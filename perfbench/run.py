"""Run one arrgm benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload paper-cli --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  A set-up is a fresh import of the library and of the benchmark's
own modules, compiled from source, then drawing the inputs from the seed;
``SETUP_REPEATS`` set-ups run back to back, ``setup_s`` is the fastest,
and the last one's workload is the one measured.
A run makes a fixed number of passes: ``--seconds`` over the workload's
``PASS_S``, the wall time of one pass at the seed commit, so a faster
library takes the fastest of as many repetitions as a slower one.
Every pass does the same work, so its outputs must match pass 0 and, for
the default seed, the digests pinned in ``reference.json``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates plain and traced passes and reports the per-layer
metrics, the tracing overhead and the check that every count repeats
exactly; the spans of the last traced pass go to ``.perfbench-out/``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 20
MIN_PASSES = 3
# A run that is this many times over ``--seconds`` stops early (host overload).
OVERRUN = 1.5
# Modules a set-up imports afresh.
FRESH_MODULES = ("arrgm", "inputs", "workloads")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def set_up(workload: str, seed: int, workdir: str):
    """Import the library afresh and build the workload; returns (seconds, module, workload)."""
    for name in [n for n in sys.modules if n.split(".")[0] in FRESH_MODULES]:
        del sys.modules[name]
    start = perf_counter()
    workloads = importlib.import_module("workloads")
    built = workloads.WORKLOADS[workload](seed, workdir)
    return perf_counter() - start, workloads, built


def pass_count(seconds: float, pass_s: float) -> int:
    return max(MIN_PASSES, round(seconds / pass_s))


def overrun(seconds: float, start: float, done: int) -> bool:
    """True once MIN_PASSES are done and the run is far past its budget."""
    return done >= MIN_PASSES and perf_counter() - start > OVERRUN * seconds


def fastest_pass(passes: list, column: int) -> float:
    """Sum over the units of a pass of each unit's fastest time across passes.

    Every pass runs the same units, and the work is deterministic and
    CPU-bound, so extra time only comes from the machine: on a shared host
    the same loop runs up to twice as slow for spells of several seconds.
    The fastest repetition of each unit is the steadiest estimate of its cost.
    """
    return sum(min(p.timings[unit][column] for p in passes) for unit in passes[0].timings)


class Run:
    """Outcome of the passes of one run: operation counts and output checks."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None

    def record(self, result) -> None:
        self.attempted += result.attempted
        self.failures += result.failures
        if self.reference is None:
            self.reference = result.outputs
            expected = self.pins
        else:
            expected = self.reference
        for key, value in expected.items():
            self.attempted += 1
            if result.outputs.get(key) != value:
                self.failures.append(f"{key}: output digest {result.outputs.get(key)} != {value}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "arrgm", "__init__.py")):
        fail(f"no arrgm sources under {SRC}; run from the root of a source checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as handle:
        reference = json.load(handle)
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    sys.path[:0] = [SRC]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    # Every set-up compiles the sources: bytecode is looked up in an empty
    # directory, whatever __pycache__ the checkout holds, and never written.
    sys.pycache_prefix = os.path.join(workdir, "pycache")
    sys.dont_write_bytecode = True
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            seconds, workloads, workload = set_up(args.workload, args.seed, workdir)
            setups.append(seconds)
        print(json.dumps({"workload": args.workload, "seed": args.seed, "inputs": workload.inputs}))
        pins = reference["any_seed"].get(args.workload, {})
        if args.seed == reference["default_seed"]:
            pins = {**pins, **reference["default_seed_pins"].get(args.workload, {})}
        run = Run(pins)
        stopwatch = workloads.Stopwatch()
        try:
            if args.trace:
                metrics = traced_passes(workload, stopwatch, run, args)
                wanted = contract["per_layer"]
            else:
                metrics = plain_passes(workload, stopwatch, run, args)
                metrics["setup_s"] = min(setups)
                wanted = contract["end_to_end"]
        finally:
            stopwatch.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not measured: {missing}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def plain_passes(workload, stopwatch, run: Run, args) -> dict:
    """Untraced passes; timings are the fastest repetition of each unit."""
    passes = []
    start = perf_counter()
    for _ in range(pass_count(args.seconds, workload.PASS_S)):
        if overrun(args.seconds, start, len(passes)):
            break
        passes.append(workload.run_pass(stopwatch))
        run.record(passes[-1])
    pass_s = fastest_pass(passes, 0)
    return {
        "pass_s": pass_s,
        "gm_matrix_s": fastest_pass(passes, 1),
        "entries_per_s": passes[0].entries / pass_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_passes(workload, stopwatch, run: Run, args) -> dict:
    """Plain and traced passes in turn; per-layer metrics from the traced ones.

    The first OBSERVED traced passes also record the extras (cells, shared
    matrices, distinct arrangements), whose bookkeeping would otherwise
    land in the callers' self time; self times come from the later ones.
    """
    import layertrace  # imports arrgm, so only once src/ is on the path

    tracer = layertrace.LayerTracer()
    plain, traced, summaries = [], [], []
    # Each traced pass follows a plain one; the pair counts as two passes.
    pairs = max(layertrace.OBSERVED + 1, pass_count(args.seconds, workload.PASS_S) // 2)
    start = perf_counter()
    for index in range(pairs):
        if index > layertrace.OBSERVED and overrun(args.seconds, start, 2 * index):
            break
        plain.append(workload.run_pass(stopwatch))
        tracer.start_pass(index, observe=index < layertrace.OBSERVED)
        tracer.install()
        try:
            traced.append(workload.run_pass(stopwatch))
        finally:
            tracer.uninstall()
        summaries.append(tracer.pass_summary())
        run.record(plain[-1])
        run.record(traced[-1])
    for name in sorted(tracer.missing):
        print(f"perfbench: {name} not found in the library; its metrics read 0", file=sys.stderr)
    run.attempted += 1
    if not layertrace.counts_repeat(summaries):
        run.failures.append("layer counts differ between traced passes")
    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write_spans(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
    metrics = layertrace.layer_metrics(summaries)
    metrics["trace.overhead"] = (
        fastest_pass(traced[layertrace.OBSERVED:], 0) / fastest_pass(plain, 0)
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())

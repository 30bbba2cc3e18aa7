"""Time symbolic ``gm_matrix`` and ``flatness_check`` on the versioned ladder.

    python tools/ladder.py --out BENCH.json [--src DIR] [--label NAME]

The ladder runs from the two paper fixtures up to the A5 braid arrangement
in P^4 (120 nbc elements): every other rung is the coordinate frame x0..xn
of P^n (x0 at infinity) plus the listed forms.  Most are generic up to a
few accidental triple points; the B3, A4 braid, B4 and A5 braid reflection
arrangements are far from normal crossing.  Ladder v3 appended the last six
rungs, one more per dimension and B4 and A5.  A rung is one symbolic
``gm_matrix`` call and one ``flatness_check`` call.  The connection is
fixed output: the sha256 of ``json.dumps(conn.to_json(), sort_keys=True)``
must start with the rung's pinned prefix, and the tool exits 1 when any
differs.  After each rung the process's high-water resident set size
(``ru_maxrss``) is recorded as ``running_peak_rss_mb``: a running peak over
the rungs so far, digests included, not the rung's own memory.  A second,
untimed pass runs every rung again under ``tracemalloc`` and records its
own peak of traced Python memory as ``traced_peak_mb``: the peak is reset
before the rung and read after its digest.  The timed pass is untraced.

The library is imported from ``--src`` (default: this checkout's ``src``),
so one copy of the tool times two source trees.  Results go into ``--out``
under ``--label``; a second run with the same label appends its times, so
alternating runs of two trees collect in one file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import tracemalloc
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# name -> (n, extra forms after the frame, or None for the fixture), digest prefix
RUNGS = {
    "example1": (None, None, "643458a73a41"),
    "ceva": (None, None, "61b12a6bbedf"),
    "p2-6": (2, [[1, 1, 1], [1, 2, -3], [2, -1, 3]], "ca60a3cf44e3"),
    "p2-7": (2, [[1, 1, 1], [1, 2, -3], [2, -1, 3], [3, 1, -2]], "bde94ae0f5b2"),
    "p3-6": (3, [[1, 1, 1, 1], [1, 2, -3, -1]], "fa2d6a1aa67d"),
    "p3-7": (3, [[1, 1, 1, 1], [1, 2, -3, -1], [2, -1, 3, 1]], "215110e2b753"),
    "p3-8": (3, [[1, 1, 1, 1], [1, 2, -3, -1], [2, -1, 3, 1], [3, 1, -2, 2]], "6b33c8ba6da4"),
    "p4-7": (4, [[1, 1, 1, 1, 1], [1, 2, -3, -1, 2]], "4881c228638e"),
    "p4-8": (4, [[1, 1, 1, 1, 1], [1, 2, -3, -1, 2], [2, -1, 3, 1, -3]], "5e7840ebdd0c"),
    # the reflection arrangements B3 and A4, then two larger generic rungs
    "b3": (2, [[1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1]], "2a5bef9e75d3"),
    "a4-braid": (
        3,
        [[1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1], [0, 1, -1, 0], [0, 1, 0, -1], [0, 0, 1, -1]],
        "702395c3a09d",
    ),
    "p2-9": (
        2, [[1, 1, 1], [1, 2, -3], [2, -1, 3], [3, 1, -2], [1, -3, 2], [2, 3, 5]], "f965ba759861",
    ),
    "p3-9": (
        3,
        [[1, 1, 1, 1], [1, 2, -3, -1], [2, -1, 3, 1], [3, 1, -2, 2], [1, -2, 1, 3]],
        "58de9d23c059",
    ),
    # ladder v3: one more rung per dimension, then B4 and the A5 braid
    "p2-11": (
        2,
        [[1, 1, 1], [1, 2, -3], [2, -1, 3], [3, 1, -2], [1, -3, 2], [2, 3, 5], [5, -2, 1],
         [4, 1, -3]],
        "5aa29f026569",
    ),
    "p3-10": (
        3,
        [[1, 1, 1, 1], [1, 2, -3, -1], [2, -1, 3, 1], [3, 1, -2, 2], [1, -2, 1, 3], [2, 3, 1, -1]],
        "527652c63072",
    ),
    "p4-9": (
        4,
        [[1, 1, 1, 1, 1], [1, 2, -3, -1, 2], [2, -1, 3, 1, -3], [3, 1, -2, 2, 1]],
        "15fcb5cdf17f",
    ),
    "p5-8": (5, [[1, 1, 1, 1, 1, 1], [1, 2, -3, -1, 2, 1]], "24842b1e1cf8"),
    # x_i + x_j, x_i - x_j for i < j in 0..3
    "b4": (
        3,
        [[1, 1, 0, 0], [1, -1, 0, 0], [1, 0, 1, 0], [1, 0, -1, 0], [1, 0, 0, 1], [1, 0, 0, -1],
         [0, 1, 1, 0], [0, 1, -1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [0, 0, 1, 1], [0, 0, 1, -1]],
        "1625cd2c7100",
    ),
    # x_i - x_j for i < j in 0..4
    "a5-braid": (
        4,
        [[1, -1, 0, 0, 0], [1, 0, -1, 0, 0], [1, 0, 0, -1, 0], [1, 0, 0, 0, -1], [0, 1, -1, 0, 0],
         [0, 1, 0, -1, 0], [0, 1, 0, 0, -1], [0, 0, 1, -1, 0], [0, 0, 1, 0, -1], [0, 0, 0, 1, -1]],
        "6282e356d94c",
    ),
}


def rung_arrangement(arrgm, name: str):
    n, extra, _ = RUNGS[name]
    if extra is None:
        return getattr(arrgm.fixtures, name)().arrangement
    frame = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    return arrgm.validate([arrgm.ProjForm.make(row) for row in frame + extra], 0)


def time_rung(arrgm, name: str) -> tuple[float, float, str, int, int]:
    """(gm_matrix seconds, flatness_check seconds, sha256, nbc, components)."""
    from arrgm import gaussmanin

    arr = rung_arrangement(arrgm, name)
    start = perf_counter()
    conn = gaussmanin.gm_matrix(gaussmanin.MovingFamily(arr))
    middle = perf_counter()
    report = gaussmanin.flatness_check(conn, arr)
    end = perf_counter()
    if not report.ok:
        raise SystemExit(f"ladder: {name} is not flat: {report.witness}")
    text = json.dumps(conn.to_json(), sort_keys=True)
    sha = hashlib.sha256(text.encode()).hexdigest()
    return middle - start, end - middle, sha, conn.size, len(conn.components)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to create or extend")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding arrgm")
    parser.add_argument("--label", default="change", help="key of this source tree's runs")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath(args.src))
    import arrgm
    import arrgm.fixtures  # noqa: F401  (the fixture rungs)

    data = {"cases": {}, "runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            data = json.load(handle)
    run = data["runs"].setdefault(args.label, {"host": {}, "rungs": {}})
    run["host"] = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    mismatched = []
    for name, (n, extra, prefix) in RUNGS.items():
        gm_s, flat_s, sha, size, comps = time_rung(arrgm, name)
        data["cases"][name] = {
            "n": n, "extra_forms": extra, "nbc": size, "components": comps, "sha256_prefix": prefix,
        }
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        entry = run["rungs"].setdefault(name, {"gm_matrix_s": [], "flatness_check_s": []})
        entry["gm_matrix_s"].append(round(gm_s, 4))
        entry["flatness_check_s"].append(round(flat_s, 4))
        entry.setdefault("running_peak_rss_mb", []).append(round(peak_mb, 1))
        entry["sha256"] = sha
        if not sha.startswith(prefix):
            mismatched.append(name)
        print(f"{args.label} {name}: gm_matrix {gm_s:.3f} s, flatness_check {flat_s:.3f} s, "
              f"running peak RSS {peak_mb:.1f} MB, sha256 {sha[:12]}", flush=True)
    tracemalloc.start()
    for name in RUNGS:
        tracemalloc.reset_peak()
        time_rung(arrgm, name)
        traced_mb = tracemalloc.get_traced_memory()[1] / 2**20
        run["rungs"][name].setdefault("traced_peak_mb", []).append(round(traced_mb, 2))
        print(f"{args.label} {name}: traced peak {traced_mb:.2f} MB", flush=True)
    tracemalloc.stop()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if mismatched:
        print(f"ladder: digest differs from the pinned prefix on {', '.join(mismatched)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layer trace recorded from outside the library.

``LayerTracer.install`` wraps the public functions and methods listed in
``TARGETS``: module functions are rebound in every ``arrgm`` module that
imports them by name, methods are replaced on their class.  Each call
records a span (name, start, end, parent span, pass id) in memory.  Self
time is a span's duration minus the durations of its direct children;
spans nest strictly because the benchmark is single-threaded.

Counts are kept next to the spans: calls, ``SampleRejectedError`` raises,
and, on observed passes only, three extras (solve cells, shared coefficient
matrices within one ``gm_matrix`` call, distinct arrangements per circuit
enumeration).  The extras copy and hash every solved matrix before the span
starts, which would be charged to the caller's self time, so self times are
taken from the passes that do not observe them.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import defaultdict
from time import perf_counter

from workloads import rebind, restore

# Traced passes that record the extras; a run makes at least one more.
OBSERVED = 2

# (span name, module, attribute path); a dotted path names a method.
TARGETS = (
    ("arrangement.validate", "arrgm.arrangement", "validate"),
    ("arrangement.lattice", "arrgm.arrangement", "lattice"),
    ("arrangement.bad_loci", "arrgm.arrangement", "bad_loci"),
    ("arrangement.discriminant", "arrgm.arrangement", "discriminant"),
    ("matroid.MatroidContext", "arrgm.matroid", "MatroidContext.__init__"),
    ("matroid.circuits", "arrgm.matroid", "MatroidContext.circuits"),
    ("osalg.normal_form", "arrgm.osalg", "OSContext.normal_form"),
    ("osalg.nbc_coordinates", "arrgm.osalg", "OSContext.nbc_coordinates"),
    ("osalg.relation_basis", "arrgm.osalg", "OSContext.relation_basis"),
    ("aomoto.FiberContext", "arrgm.aomoto", "FiberContext.__init__"),
    ("aomoto.ClassReducer", "arrgm.aomoto", "ClassReducer.__init__"),
    ("aomoto.reduce_batch", "arrgm.aomoto", "ClassReducer.reduce_batch"),
    ("aomoto.reduce_rational_form", "arrgm.aomoto", "reduce_rational_form"),
    ("exactnum.solve_linear", "arrgm.exactnum", "solve_linear"),
    ("exactnum.matrix_rank", "arrgm.exactnum", "matrix_rank"),
    ("exactnum.nullspace", "arrgm.exactnum", "nullspace"),
    ("exactnum.affine_fit", "arrgm.exactnum", "affine_fit"),
    ("exactnum.cexp_matrix", "arrgm.exactnum", "cexp_matrix"),
    ("gaussmanin.gm_matrix", "arrgm.gaussmanin", "gm_matrix"),
    ("gaussmanin.flatness_check", "arrgm.gaussmanin", "flatness_check"),
    ("monodromy.monodromy", "arrgm.monodromy", "monodromy"),
    ("monodromy.projector_structure", "arrgm.monodromy", "projector_structure"),
    ("cli.main", "arrgm.cli", "main"),
)


class LayerTracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, pass id)
        self.stack: list[int] = []
        self.pass_id = 0
        self.observe = False
        self.counts = defaultdict(int)  # (span name, stat) -> count
        self._solved: set | None = None  # coefficient matrices seen in this gm_matrix call
        self._arrangements: set = set()
        self._undo: list = []
        self.missing: set[str] = set()
        self._rejected = importlib.import_module("arrgm.errors").SampleRejectedError

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for name, module_name, path in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:  # the library no longer has it
                self.missing.add(name)
                continue
            wrapped = self._wrap(name, original)
            if owner_name:
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
            else:
                self._undo += rebind(original, wrapped)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        observe = {
            "exactnum.solve_linear": self._observe_solve,
            "matroid.circuits": self._observe_circuits,
        }.get(name) if self.observe else None
        opens_fit = self.observe and name == "gaussmanin.gm_matrix"

        def traced(*args, **kwargs):
            counts = tracer.counts
            counts[name, "calls"] += 1
            if observe is not None:
                observe(*args, **kwargs)
            if opens_fit:
                outer, tracer._solved = tracer._solved, set()
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except tracer._rejected:
                counts[name, "rejected"] += 1
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                spans[index] = (name, start, end, parent, tracer.pass_id)
                if opens_fit:
                    tracer._solved = outer

        return traced

    def _observe_solve(self, matrix, rhs=None):
        rows = matrix.row_lists() if hasattr(matrix, "row_lists") else matrix
        ncols = len(rows[0]) if rows else 0
        self.counts["exactnum.solve_linear", "cells"] += len(rows) * (ncols + len(rhs or ()))
        if self._solved is not None:
            key = tuple(tuple(row) for row in rows)
            if key in self._solved:
                self.counts["exactnum.solve_linear", "shared"] += 1
            else:
                self._solved.add(key)

    def _observe_circuits(self, ctx):
        if ctx.arr not in self._arrangements:
            self._arrangements.add(ctx.arr)
            self.counts["matroid.circuits", "arrangements"] += 1

    # -- per pass -----------------------------------------------------------

    def start_pass(self, pass_id: int, observe: bool) -> None:
        """Start recording a pass; ``observe`` records the extras (before ``install``)."""
        self.pass_id = pass_id
        self.observe = observe
        self.spans = []
        self.counts = defaultdict(int)
        self._arrangements = set()

    def pass_summary(self) -> dict:
        """Counts and self times of the spans recorded since ``start_pass``."""
        self_s = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            duration = end - start
            self_s[name] += duration
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
        return {"observed": self.observe, "counts": dict(self.counts), "self_s": dict(self_s)}

    def write_spans(self, path) -> None:
        """The spans of the last pass, one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(summaries: list[dict]) -> dict[str, float]:
    """Per-layer metrics: counts of the last observed pass, least self times of the others."""
    counts = [s for s in summaries if s["observed"]][-1]["counts"]
    timed = [s for s in summaries if not s["observed"]]
    out: dict[str, float] = {}
    for name, _, _ in TARGETS:
        out[f"{name}.calls"] = counts.get((name, "calls"), 0)
        out[f"{name}.rejected"] = counts.get((name, "rejected"), 0)
        out[f"{name}.self_s"] = min(s["self_s"].get(name, 0.0) for s in timed)
    solves = counts.get(("exactnum.solve_linear", "calls"), 0)
    out["exactnum.solve_linear.cells"] = counts.get(("exactnum.solve_linear", "cells"), 0)
    out["exactnum.solve_linear.shared_matrix_ratio"] = (
        counts.get(("exactnum.solve_linear", "shared"), 0) / solves if solves else 0.0
    )
    enumerations = counts.get(("matroid.circuits", "calls"), 0)
    out["matroid.circuits.unique_ratio"] = (
        counts.get(("matroid.circuits", "arrangements"), 0) / enumerations if enumerations else 0.0
    )
    return out


def counts_repeat(summaries: list[dict]) -> bool:
    """Counts repeat exactly between passes of one kind; calls and rejections across kinds."""
    def common(counts):
        return {key: n for key, n in counts.items() if key[1] in ("calls", "rejected")}

    for kind in (True, False):
        group = [s["counts"] for s in summaries if s["observed"] is kind]
        if any(c != group[0] for c in group):
            return False
    return all(common(s["counts"]) == common(summaries[0]["counts"]) for s in summaries)

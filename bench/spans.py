"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces the traced functions by timing wrappers in every
``slocc3`` module that binds them (``from .x import f`` copies the name, so
each copy is replaced); ``least_squares`` is wrapped separately where
``slocc3.detpoly`` and ``slocc3.product_range`` bind it.  No source file
changes.  Spans are kept in memory, written out at the end of the run, and
a layer's self time is its spans' duration minus their direct children's.

``LAYER_EFFECTS`` maps each per-layer metric to the end-to-end metric it
should move and the workload where that shows.  The traced run
records spans only inside a root span (one per operation, plus the fixed
probe calls), never while checks run.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import re
import sys
import time
from dataclasses import asdict, dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    root: int  # id of the operation's root span, shared by all its spans
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _product_name(fn, args, kwargs):
    space = _bound(fn, args, kwargs)["space"]
    return "product_range.exact" if space.dim <= 2 else "product_range.search"


def _product_attrs(fn, args, kwargs, report):
    return {"found": len(report.vectors), "starts": _bound(fn, args, kwargs)["starts"]}


def _solver_attrs(fn, args, kwargs, sol):
    return {"nfev": int(sol.nfev)}


def _equiv_attrs(fn, args, kwargs, verdict):
    return {"kind": verdict.kind}


def _cp_attrs(fn, args, kwargs, result):
    """Restarts run: on success the detail names the winning restart, which
    is the last one run; on failure every restart ran."""
    m = re.match(r"ALS, best of (\d+) restart", result.detail)
    if m is None:  # direct slice construction or zero tensor: no ALS
        restarts = 0
    elif result.success:
        restarts = int(m.group(1))
    else:
        restarts = max(1, _bound(fn, args, kwargs)["restarts"])
    return {"success": bool(result.success), "restarts": restarts}


# (module, attribute, span name or name function, attrs function, patch every binding)
TARGETS = (
    ("slocc3.product_range", "find_product_vectors", _product_name, _product_attrs, True),
    ("slocc3.product_range", "least_squares", "solver.product_range", _solver_attrs, False),
    ("slocc3.detpoly", "least_squares", "solver.detpoly", _solver_attrs, False),
    ("slocc3.detpoly", "detpoly_equiv_test", "detpoly.equiv", _equiv_attrs, True),
    ("slocc3.detpoly", "det_poly", "detpoly.det_poly", None, True),
    ("slocc3.detpoly", "substitute", "detpoly.substitute", None, True),
    ("slocc3.rank", "cp_als", "rank.cp_als", _cp_attrs, True),
    ("slocc3.rank", "rank_lower_bound", "rank.lower_bound", None, True),
    ("slocc3.rank", "classify_2mn", "rank.classify_2mn", None, True),
    ("slocc3.pencil", "pencil_invariants", "pencil.pencil_invariants", None, True),
    ("slocc3.ket", "parse_ket", "ket.parse_ket", None, True),
    ("slocc3.ket", "print_ket", "ket.print_ket", None, True),
    ("slocc3.cli", "main", "cli.main", None, True),
    ("slocc3.density", "partial_trace", "density.partial_trace", None, True),
    ("slocc3.density", "range_basis", "density.range_basis", None, True),
    ("slocc3.tensor", "local_ranks", "tensor.local_ranks", None, True),
    ("slocc3.transforms", "apply_slocc", "transforms.apply_slocc", None, True),
    ("slocc3.catalog", "catalog_get", "catalog.catalog_get", None, True),
)

_RC, _DP, _RI, _CC = "range-criterion", "detpoly-equiv", "rank-interval", "classify-cli"

# the end-to-end metric each per-layer metric should move, and where
LAYER_EFFECTS = (
    (("setup.import_s", "setup.inputs_s"), "setup_s on every workload"),
    (("product_range.exact.calls", "product_range.exact.self_s",
      "product_range.search.calls", "product_range.search.self_s",
      "product_range.search.yield"),
     f"ops_per_s, op_tail_ms and resolved_frac on {_RC}; no change elsewhere"),
    (("solver.product_range.calls", "solver.product_range.nfev",
      "solver.product_range.self_s"), f"ops_per_s on {_RC}"),
    (("solver.detpoly.calls", "solver.detpoly.nfev", "solver.detpoly.self_s"),
     f"ops_per_s on {_DP}"),
    (("detpoly.equiv.calls", "detpoly.equiv.self_s", "detpoly.equiv.yield"),
     f"ops_per_s and resolved_frac on {_DP}"),
    (("detpoly.det_poly.calls", "detpoly.det_poly.self_s", "detpoly.substitute.calls",
      "detpoly.substitute.self_s", *(f"detpoly.det_poly.n{n}_us" for n in range(2, 9))),
     f"op_p50_ms on {_CC}; no change on {_DP}"),
    (("rank.cp_als.calls", "rank.cp_als.self_s", "rank.cp_als.restarts",
      "rank.cp_als.yield", "rank.als_iter_us", "rank.lower_bound.calls",
      "rank.lower_bound.self_s"),
     f"ops_per_s, op_tail_ms and resolved_frac on {_RI}"),
    (("pencil.pencil_invariants.calls", "pencil.pencil_invariants.self_s",
      "rank.classify_2mn.calls", "rank.classify_2mn.self_s", "ket.parse_ket.calls",
      "ket.parse_ket.self_s", "ket.print_ket.calls", "ket.print_ket.self_s",
      "cli.main.calls", "cli.main.self_s", "catalog.catalog_get.calls",
      "catalog.catalog_get.self_s"),
     f"op_p50_ms on {_CC}"),
    (("density.partial_trace.calls", "density.partial_trace.self_s",
      "density.range_basis.calls", "density.range_basis.self_s",
      "tensor.local_ranks.calls", "tensor.local_ranks.self_s",
      "transforms.apply_slocc.calls", "transforms.apply_slocc.self_s"),
     f"op_p50_ms on {_CC} and on the k <= 2 part of {_RC}"),
    (("trace.overhead_pct",), "none: traced minus untraced time of the same operations"),
)


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_us", "us"), ("_pct", "%"), (".yield", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def better_of(metric: str) -> str:
    return "higher" if metric.endswith(".yield") else "lower"


LAYER_METRICS = [m for names, _ in LAYER_EFFECTS for m in names]


class Tracer:
    """Spans of the wrapped calls made inside root spans, in opening order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches = []

    @contextlib.contextmanager
    def root(self, name: str):
        """Open the root span of one operation; wrapped calls record only
        inside one."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, parent.id if parent else None, parent.root if parent else sid,
                    name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name(fn, args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs = attrs(fn, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == "slocc3" or key.startswith("slocc3.")]
        for mod_name, attr, name, attrs, everywhere in TARGETS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(orig, name, attrs)
            holders = modules if everywhere else [sys.modules[mod_name]]
            for mod in holders:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, orig in reversed(self._patches):
            setattr(mod, key, orig)
        self._patches.clear()

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def layer_metrics(self) -> dict:
        """calls, self time and ratio metrics of every traced layer."""
        calls, self_s, sums = {}, {}, {}
        for span, own in zip(self.spans, self.self_times()):
            calls[span.name] = calls.get(span.name, 0) + 1
            self_s[span.name] = self_s.get(span.name, 0.0) + own
            for key, val in span.attrs.items():
                if not isinstance(val, str):
                    sums[(span.name, key)] = sums.get((span.name, key), 0) + val
        kinds = [s.attrs.get("kind") for s in self.spans if s.name == "detpoly.equiv"]

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for _, _, name, _, _ in TARGETS:
            for layer in (("product_range.exact", "product_range.search")
                          if callable(name) else (name,)):
                out[f"{layer}.calls"] = calls.get(layer, 0)
                out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        for solver in ("solver.product_range", "solver.detpoly"):
            out[f"{solver}.nfev"] = sums.get((solver, "nfev"), 0)
        out["product_range.search.yield"] = ratio(
            sums.get(("product_range.search", "found"), 0),
            sums.get(("product_range.search", "starts"), 0))
        out["detpoly.equiv.yield"] = ratio(kinds.count("CandidateFound"),
                                           calls.get("solver.detpoly", 0))
        out["rank.cp_als.restarts"] = sums.get(("rank.cp_als", "restarts"), 0)
        out["rank.cp_als.yield"] = ratio(sums.get(("rank.cp_als", "success"), 0),
                                         calls.get("rank.cp_als", 0))
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")

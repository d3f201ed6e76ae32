"""Span tracer that wraps koszul_lab's public functions from outside the library.

A span is [name, start, end, parent index, field tag, meta].  Spans are kept
in memory and written out by the caller after the pass.  A layer's self time
is its span's duration minus the durations of its child spans; execution is
single-threaded, so children never overlap and self times over all spans sum
to the root span's duration.

Targets that the library no longer has are skipped and listed in `missing`,
so a refactor shows up as zero counts rather than a crash.  `Echelon.add` is
left unwrapped on purpose: it is called hundreds of thousands of times per
pass, and its time lands in the self time of its callers (rank, kernel_basis,
GradedModule.piece, ...).
"""

from __future__ import annotations

import contextlib
import functools
import time
import weakref
from collections import defaultdict

ROOT_NAME = "bench.pass"

# QQ tor_dims calls under these spans are rational rechecks of GF(p) candidates
# (the suites run with the auto field).  Calls under reg_monomial_ideal are the
# QQ regularity of the input ideal, not rechecks.
RECHECK_SCOPES = ("harness.run_suite.regb", "harness.run_suite.greeny",
                  "harness.run_suite.sato", "harness.run_suite.piper",
                  "harness.run_suite.thm1", "harness.probe_q1")
RECHECK_EXCLUDE = "rings.reg_monomial_ideal"

SUITES = ("check", "gen2", "greeny", "maincyc", "maps", "multi", "multi2", "piper",
          "regb", "remark_b", "sato", "signs", "surge", "thm1")

S, COUNT, RATIO = "s", "count", "ratio"

# name, unit, better; the order is the order of the printed table.
PER_LAYER = [
    ("rings.component_basis.calls", COUNT, "lower"),
    ("rings.component_basis.self_s", S, "lower"),
    ("rings.component_basis.monomials", COUNT, "lower"),
    ("rings.MonomialIdeal.contains.calls", COUNT, "lower"),
    ("exterior.wedge.calls", COUNT, "lower"),
    ("exterior.wedge.self_s", S, "lower"),
    ("exterior.boundary.calls", COUNT, "lower"),
    ("exterior.boundary.self_s", S, "lower"),
    *[(f"linalg.rank.{m}.{f}", u, "lower")
      for m, u in (("calls", COUNT), ("self_s", S), ("nnz", COUNT)) for f in ("qq", "gfp")],
    ("linalg.rank.pivot_frac", RATIO, "higher"),
    ("linalg.rank.repeat_frac", RATIO, "lower"),
    *[(f"linalg.kernel_basis.{m}.{f}", u, "lower")
      for m, u in (("calls", COUNT), ("self_s", S)) for f in ("qq", "gfp")],
    ("linalg.Echelon.back_substitute.calls", COUNT, "lower"),
    ("linalg.Echelon.back_substitute.self_s", S, "lower"),
    ("linalg.Echelon.express.calls", COUNT, "lower"),
    ("linalg.Echelon.express.self_s", S, "lower"),
    ("linalg.in_span.calls", COUNT, "lower"),
    ("linalg.in_span.self_s", S, "lower"),
    ("fields.qq_share", RATIO, "lower"),
    ("fields.linalg_self_s", S, "lower"),
    ("homology.KoszulComplex.basis.calls", COUNT, "lower"),
    ("homology.KoszulComplex.basis.self_s", S, "lower"),
    ("homology.KoszulComplex.boundary_matrix.calls", COUNT, "lower"),
    ("homology.KoszulComplex.boundary_matrix.self_s", S, "lower"),
    ("homology.KoszulComplex.boundary_matrix.nnz", COUNT, "lower"),
    ("homology.KoszulComplex.boundary_matrix.max_cols", COUNT, "lower"),
    ("homology.KoszulComplex.homology_dim.calls", COUNT, "lower"),
    ("homology.KoszulComplex.cycle_space.calls", COUNT, "lower"),
    ("homology.KoszulComplex.cycle_space.self_s", S, "lower"),
    ("homology.KoszulComplex.chain_vector.calls", COUNT, "lower"),
    ("homology.KoszulComplex.chain_vector.self_s", S, "lower"),
    ("homology.GradedModule.piece.calls", COUNT, "lower"),
    ("homology.GradedModule.piece.self_s", S, "lower"),
    ("homology.GradedModule.var_matrix.calls", COUNT, "lower"),
    ("homology.GradedModule.var_matrix.self_s", S, "lower"),
    *[(f"homology.tor_dims.{m}.{f}", u, "lower")
      for m, u in (("calls", COUNT), ("self_s", S)) for f in ("qq", "gfp")],
    ("cycles.z1_power_component.calls", COUNT, "lower"),
    ("cycles.z1_power_component.self_s", S, "lower"),
    ("cycles.Multi2Checker.check.calls", COUNT, "lower"),
    ("cycles.Multi2Checker.check.self_s", S, "lower"),
    ("cycles.gen2_families.calls", COUNT, "lower"),
    ("cycles.gen2_families.self_s", S, "lower"),
    ("veronese.veronese_betti.calls", COUNT, "lower"),
    ("veronese.veronese_betti.self_s", S, "lower"),
    ("veronese.green_lazarsfeld_index.calls", COUNT, "lower"),
    ("veronese.entries", COUNT, "higher"),
    *[(f"harness.run_suite.{s}.wall_s", S, "lower") for s in SUITES],
    ("harness.probe_q1.wall_s", S, "lower"),
    ("harness.cases", COUNT, "higher"),
    ("harness.redrawn", COUNT, "lower"),
    ("harness.accept_frac", RATIO, "higher"),
    ("harness.recheck.calls", COUNT, "lower"),
    ("harness.recheck.confirmed", COUNT, "higher"),
    ("cli.main.calls", COUNT, "lower"),
    ("cli.main.self_s", S, "lower"),
    ("trace.wall_s", S, "lower"),
    ("trace_overhead_frac", RATIO, "lower"),
]

# Metrics reported as <name>.calls and <name>.self_s, summed over fields.
_CALLS_SELF = [
    "rings.component_basis", "exterior.wedge", "exterior.boundary",
    "linalg.Echelon.back_substitute", "linalg.Echelon.express", "linalg.in_span",
    "homology.KoszulComplex.basis", "homology.KoszulComplex.boundary_matrix",
    "homology.KoszulComplex.cycle_space", "homology.KoszulComplex.chain_vector",
    "homology.GradedModule.piece", "homology.GradedModule.var_matrix",
    "cycles.z1_power_component", "cycles.Multi2Checker.check", "cycles.gen2_families",
    "veronese.veronese_betti", "cli.main",
]
# Metrics reported as <name>.calls.<field> and <name>.self_s.<field>.
_BY_FIELD = ["linalg.rank", "linalg.kernel_basis", "homology.tor_dims"]


def field_tag(field) -> str:
    return "qq" if field.characteristic == 0 else "gfp"


def _arg(pos, key):
    """Reader of one call argument, given by position or by keyword."""
    return lambda a, k: a[pos] if len(a) > pos else k[key]


class Tracer:
    """Wraps library functions in place and records spans and counts."""

    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.counts = defaultdict(int)
        self.missing = []
        self._ranked = weakref.WeakValueDictionary()  # id -> matrix passed to rank

    def open(self, name):
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1], None, None])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _span(self, fn, name, field=None, meta=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1], None, None]
            if field is not None:
                rec[4] = field_tag(field(args, kwargs))
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if meta is not None:
                rec[5] = meta(args, result)
            return result

        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, lib):
        """Wrap the targets in lib, a dict of koszul_lab submodules by short name."""

        def fn(mod, attr, name=None, **kw):
            orig = getattr(lib.get(mod), attr, None)
            if orig is None:
                self.missing.append(f"{mod}.{attr}")
                return
            wrapped = self._span(orig, name or f"{mod}.{attr}", **kw)
            # modules bind imported names at import time, so rebind every alias
            for other in lib.values():
                for key, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, key, wrapped)

        def method(mod, cls, attr, kind="span", **kw):
            klass = getattr(lib.get(mod), cls, None)
            orig = getattr(klass, attr, None) if klass is not None else None
            if orig is None:
                self.missing.append(f"{mod}.{cls}.{attr}")
                return
            name = f"{mod}.{cls}.{attr}"
            wrapped = self._count(orig, name) if kind == "count" else self._span(orig, name, **kw)
            setattr(klass, attr, wrapped)

        fn("rings", "component_basis", meta=lambda a, r: len(r))
        fn("rings", "reg_monomial_ideal")
        method("rings", "MonomialIdeal", "contains", kind="count")
        fn("exterior", "wedge")
        fn("exterior", "boundary")
        fn("linalg", "rank", field=_arg(1, "field"), meta=self._rank_meta)
        fn("linalg", "kernel_basis", field=_arg(1, "field"))
        method("linalg", "Echelon", "back_substitute", field=lambda a, k: a[0].field)
        method("linalg", "Echelon", "express", field=lambda a, k: a[0].field)
        fn("linalg", "in_span", field=_arg(2, "field"))
        method("homology", "KoszulComplex", "basis")
        method("homology", "KoszulComplex", "boundary_matrix",
               meta=lambda a, r: (len(r.entries), r.ncols))
        method("homology", "KoszulComplex", "homology_dim")
        method("homology", "KoszulComplex", "cycle_space")
        method("homology", "KoszulComplex", "chain_vector")
        method("homology", "GradedModule", "piece")
        method("homology", "GradedModule", "var_matrix")
        fn("homology", "tor_dims", field=lambda a, k: _arg(0, "M")(a, k).field,
           meta=lambda a, r: r)
        fn("cycles", "z1_power_component")
        method("cycles", "Multi2Checker", "check")
        fn("cycles", "gen2_families")
        fn("veronese", "veronese_betti", meta=lambda a, r: len(r.entries))
        fn("veronese", "green_lazarsfeld_index")
        fn("harness", "run_suite",
           name=lambda a, k: f"harness.run_suite.{_arg(0, 'name')(a, k)}",
           meta=self._report_meta)
        fn("harness", "probe_q1", meta=self._report_meta)
        fn("cli", "main")

    def _rank_meta(self, args, result):
        M = args[0]
        repeat = self._ranked.get(id(M)) is M
        with contextlib.suppress(TypeError):  # a matrix type without weakrefs
            self._ranked[id(M)] = M
        nonzero_rows = len({i for i, _ in M.entries})
        return len(M.entries), nonzero_rows, result, repeat

    @staticmethod
    def _report_meta(args, report):
        return len(report.cases), report.summary.get("redrawn", 0)


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations."""
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _has_ancestor(spans, idx, names, stop):
    parent = spans[idx][3]
    while parent >= 0:
        name = spans[parent][0]
        if name == stop:
            return False
        if name in names:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass (the tracer holds that pass only)."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls, self_s, total_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for rec, st in zip(spans, selfs):
        name, start, end, _, tag, _ = rec
        for key in (name, f"{name}.{tag}") if tag else (name,):
            calls[key] += 1
            self_s[key] += st
            total_s[key] += end - start

    m = {}
    for name in _CALLS_SELF:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in _BY_FIELD:
        for tag in ("qq", "gfp"):
            m[f"{name}.calls.{tag}"] = calls[f"{name}.{tag}"]
            m[f"{name}.self_s.{tag}"] = self_s[f"{name}.{tag}"]

    nnz = {"qq": 0, "gfp": 0}
    ranks = rows = repeats = 0
    bnnz = bcols = 0
    monomials = entries = cases = redrawn = 0
    recheck_calls = recheck_confirmed = 0
    linalg_self = {"qq": 0.0, "gfp": 0.0}
    for idx, (rec, st) in enumerate(zip(spans, selfs)):
        name, _, _, _, tag, meta = rec
        if name.startswith("linalg.") and tag:
            linalg_self[tag] += st
        if name == "linalg.rank":
            nnz[tag] += meta[0]
            rows += meta[1]
            ranks += meta[2]
            repeats += meta[3]
        elif name == "homology.KoszulComplex.boundary_matrix":
            bnnz += meta[0]
            bcols = max(bcols, meta[1])
        elif name == "rings.component_basis":
            monomials += meta
        elif name == "veronese.veronese_betti":
            entries += meta
        elif name.startswith("harness.run_suite.") or name == "harness.probe_q1":
            cases += meta[0]
            redrawn += meta[1]
        elif name == "homology.tor_dims" and tag == "qq":
            if _has_ancestor(spans, idx, RECHECK_SCOPES, RECHECK_EXCLUDE):
                recheck_calls += 1
                recheck_confirmed += meta > 0

    m["rings.component_basis.monomials"] = monomials
    m["rings.MonomialIdeal.contains.calls"] = tracer.counts["rings.MonomialIdeal.contains"]
    for tag in ("qq", "gfp"):
        m[f"linalg.rank.nnz.{tag}"] = nnz[tag]
    m["linalg.rank.pivot_frac"] = ranks / rows if rows else 0.0
    n_rank = calls["linalg.rank"]
    m["linalg.rank.repeat_frac"] = repeats / n_rank if n_rank else 0.0
    linalg_total = linalg_self["qq"] + linalg_self["gfp"]
    m["fields.qq_share"] = linalg_self["qq"] / linalg_total if linalg_total else 0.0
    m["fields.linalg_self_s"] = linalg_total
    m["homology.KoszulComplex.boundary_matrix.nnz"] = bnnz
    m["homology.KoszulComplex.boundary_matrix.max_cols"] = bcols
    m["homology.KoszulComplex.homology_dim.calls"] = calls["homology.KoszulComplex.homology_dim"]
    m["homology.tor_dims.calls.qq"] = calls["homology.tor_dims.qq"]
    m["veronese.green_lazarsfeld_index.calls"] = calls["veronese.green_lazarsfeld_index"]
    m["veronese.entries"] = entries
    for s in SUITES:
        m[f"harness.run_suite.{s}.wall_s"] = total_s[f"harness.run_suite.{s}"]
    m["harness.probe_q1.wall_s"] = total_s["harness.probe_q1"]
    m["harness.cases"] = cases
    m["harness.redrawn"] = redrawn
    m["harness.accept_frac"] = cases / (cases + redrawn) if cases + redrawn else 0.0
    m["harness.recheck.calls"] = recheck_calls
    m["harness.recheck.confirmed"] = recheck_confirmed
    m["trace.wall_s"] = total_s[ROOT_NAME]
    return m

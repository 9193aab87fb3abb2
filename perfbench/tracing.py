"""Spans around calls into wordhom's modules, recorded from outside the package.

``Tracer.install`` replaces public names where callers look them up (module
globals such as ``wordhom.cli.build_gp``, and class attributes such as
``Chain.__add__``) with wrappers that record one span per call: name, start,
end, parent span and job id.  Spans stay in flat arrays in memory until the
pass ends; ``Tracer.remove`` puts every original back.  ``layer_metrics``
turns the spans and the counts taken at the same boundaries into the
per-layer metrics: a layer's self time is its spans' durations minus the
durations of their direct child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter

JOB_SPAN = "bench.job"


def _count_snf(counts, args, factors):
    counts["linalg.snf_nnz_in"] += args[0].nnz()
    counts["linalg.snf_factors"] += len(factors)
    counts["linalg.snf_torsion_factors"] += sum(1 for d in factors if d > 1)


def _count_complex(counts, args, rep):
    counts["complexes.basis_words"] += sum(len(level) for level in rep.bases)
    counts["complexes.boundary_nnz"] += sum(m.nnz() for m in rep.boundaries)


def _count_gp(counts, args, in_position):
    if in_position:
        counts["genpos.gp_accepts"] += 1


def _count_fill(counts, args, certificate):
    counts["filler.certs"] += 1
    counts["filler.filling_terms"] += len(certificate.filling)
    counts["filler.steps"] += len(certificate.steps)


def _count_bar(counts, args, matrix):
    counts["grouphom.bar_generators"] += matrix.cols


# (module, class or None, attribute, span name, count hook).  A function
# imported into several modules is wrapped at each binding that the package
# calls it through.
TARGETS = (
    ("cli", None, "run", "cli.run", None),
    ("cli", None, "build_injective", "complexes.build", _count_complex),
    ("cli", None, "build_gp", "complexes.build", _count_complex),
    ("cli", None, "homology_table", "homology.homology_table", None),
    ("grouphom", None, "homology_table", "homology.homology_table", None),
    ("cli", None, "gp_order", "genpos.gp_order", None),
    ("filler", None, "gp_order", "genpos.gp_order", None),
    ("homology", None, "smith_normal_form", "linalg.smith_normal_form", _count_snf),
    ("grouphom", None, "smith_normal_form", "linalg.smith_normal_form", _count_snf),
    ("linalg", "SparseIntMatrix", "mul", "linalg.mul", None),
    ("genpos", "VectorRelation", "gp", "genpos.gp", _count_gp),
    ("genpos", "InjectiveRelation", "gp", "genpos.gp", _count_gp),
    ("genpos", "VectorRelation", "is_blocking", "genpos.is_blocking", None),
    ("grouphom", None, "bar_boundary", "grouphom.bar", _count_bar),
    ("grouphom", None, "build_bar_complex", "grouphom.bar", None),
    ("grouphom", "PermutationGroup", "symmetric", "grouphom.symmetric", None),
    ("filler", None, "fill_injective", "filler.fill", _count_fill),
    ("filler", None, "fill_gp", "filler.fill", _count_fill),
    ("chains", "Chain", "boundary", "chains.boundary", None),
    ("chains", "Chain", "product", "chains.arith", None),
    ("chains", "Chain", "__add__", "chains.arith", None),
    ("chains", "Chain", "__sub__", "chains.arith", None),
)

# Per-layer metric -> span names whose self times it sums.
SELF_TIMES = {
    "linalg.snf_s": ("linalg.smith_normal_form",),
    "linalg.mul_s": ("linalg.mul",),
    "complexes.build_s": ("complexes.build",),
    "homology.self_s": ("homology.homology_table",),
    "genpos.gp_s": ("genpos.gp",),
    "genpos.blocking_s": ("genpos.is_blocking",),
    "genpos.order_self_s": ("genpos.gp_order",),
    "filler.self_s": ("filler.fill",),
    "chains.boundary_s": ("chains.boundary",),
    "chains.arith_s": ("chains.arith",),
    "grouphom.bar_s": ("grouphom.bar",),
    "grouphom.group_s": ("grouphom.symmetric",),
    "cli.self_s": ("cli.run",),
    "bench.self_s": (JOB_SPAN,),
}
# Per-layer metric -> span name whose calls it counts.
CALLS = {
    "linalg.snf_calls": "linalg.smith_normal_form",
    "linalg.mul_calls": "linalg.mul",
    "genpos.gp_calls": "genpos.gp",
    "genpos.blocking_calls": "genpos.is_blocking",
    "chains.boundary_calls": "chains.boundary",
    "chains.arith_calls": "chains.arith",
}
COUNTS = (
    "linalg.snf_nnz_in",
    "linalg.snf_factors",
    "linalg.snf_torsion_factors",
    "complexes.basis_words",
    "complexes.boundary_nnz",
    "filler.certs",
    "filler.filling_terms",
    "filler.steps",
    "grouphom.bar_generators",
)


class Tracer:
    """Records nested spans of calls into the package; one instance per pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts = {key: 0 for key in COUNTS}
        self.counts["genpos.gp_accepts"] = 0
        self._stack: list[int] = []
        self._job = -1
        self._originals: list = []

    # -- recording -------------------------------------------------------
    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_job.append(self._job)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name, hook=None):
        nid = self._name_id(name)
        counts = self.counts
        opener, closer = self._open, self._close

        def traced(*args, **kwargs):
            idx = opener(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(idx)
            if hook is not None:
                hook(counts, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    @contextlib.contextmanager
    def job(self, job_id):
        """The root span of one job."""
        self._job = job_id
        idx = self._open(self._name_id(JOB_SPAN))
        try:
            yield
        finally:
            self._close(idx)
            self._job = -1

    # -- installation ----------------------------------------------------
    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        for module_name, class_name, attr, name, hook in TARGETS:
            module = importlib.import_module(f"wordhom.{module_name}")
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr]
            if isinstance(original, staticmethod):
                replacement = staticmethod(self.wrap(original.__func__, name, hook))
            else:
                replacement = self.wrap(original, name, hook)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def remove(self):
        """Put every wrapped name back, last installed first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def spans(self):
        """Spans as rows [name, start, end, parent, job], in call order."""
        return [
            [self.names[n], s, e, p, j]
            for n, s, e, p, j in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_job
            )
        ]


def layer_metrics(tracer, pass_wall):
    """Per-layer metrics of one traced pass whose job loop took pass_wall s.

    ``bench.self_s`` is the benchmark's own time: job spans' self time plus
    the loop time outside any job span, so the self times of all layers sum
    to pass_wall.
    """
    n = len(tracer.span_name)
    duration = [e - s for s, e in zip(tracer.span_start, tracer.span_end)]
    child = [0.0] * n
    for i, parent in enumerate(tracer.span_parent):
        if parent >= 0:
            child[parent] += duration[i]
    self_by_name = [0.0] * len(tracer.names)
    calls_by_name = [0] * len(tracer.names)
    max_by_name = [0.0] * len(tracer.names)
    for i, nid in enumerate(tracer.span_name):
        self_by_name[nid] += duration[i] - child[i]
        calls_by_name[nid] += 1
        if duration[i] > max_by_name[nid]:
            max_by_name[nid] = duration[i]

    def of(table, name):
        nid = tracer._name_ids.get(name)
        return table[nid] if nid is not None else 0

    out = {}
    for metric, names in SELF_TIMES.items():
        out[metric] = sum(of(self_by_name, name) for name in names)
    roots = sum(duration[i] for i in range(n) if tracer.span_parent[i] < 0)
    out["bench.self_s"] += pass_wall - roots
    for metric, name in CALLS.items():
        out[metric] = of(calls_by_name, name)
    out["linalg.snf_max_s"] = of(max_by_name, "linalg.smith_normal_form")
    out.update({key: tracer.counts[key] for key in COUNTS})
    gp_calls = out["genpos.gp_calls"]
    out["genpos.gp_accept_frac"] = tracer.counts["genpos.gp_accepts"] / gp_calls if gp_calls else 0.0
    out["trace.spans"] = n
    return out

"""Spans around volkit's layers, installed from outside the program, and the
per-layer metrics derived from them.

Each wrapper is installed where the caller looks the name up (``volkit.cli``
imports most layer functions by name; ``segmetrics`` reaches the distance
transform through ``ndimage``; ``bench_attention`` picks kernels from
``linattn._KERNELS``) and removed afterwards. Spans are kept in memory as
(name, start, end, parent, case id) plus work counts, and written out at
the end of the run. A span's self time is its duration minus the durations of
its children; the program is single-threaded here (``--jobs 1``), so children
never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from workloads import ATTN_LINEAR_N, ATTN_QUADRATIC_N

# Every per-layer metric the traced run reports: (unit, which way is better).
# Times and counts are sums over one pass of the workload's commands, median
# over passes; p50/tail and the linattn figures pool every call of the run.
# read_mb is computed from the decoded voxel bytes load_nifti returns (1 MB = 1e6 B).
# pooled_distances is an invariant: a change must not move it.
PER_LAYER = {
    "setup.import_numpy_s": ("s", "lower"),
    "setup.import_scipy_ndimage_s": ("s", "lower"),
    "setup.import_volkit_self_s": ("s", "lower"),
    "setup.import_volkit_total_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "cli.self_s": ("s", "lower"),
    "volgrid.load_nifti_s": ("s", "lower"),
    "volgrid.load_nifti_calls": ("count", "lower"),
    "volgrid.read_mb": ("MB", "lower"),
    "volgrid.load_mb_per_s": ("MB/s", "higher"),
    "volgrid.binarize_s": ("s", "lower"),
    "segmetrics.evaluate_case_s": ("s", "lower"),
    "segmetrics.evaluate_case_calls": ("count", "higher"),
    "segmetrics.evaluate_case_p50_s": ("s", "lower"),
    "segmetrics.evaluate_case_tail_s": ("s", "lower"),
    "segmetrics.evaluate_case_tail_pct": ("pct", "higher"),
    "segmetrics.boundary_metrics_self_s": ("s", "lower"),
    "segmetrics.edt_s": ("s", "lower"),
    "segmetrics.edt_calls": ("count", "lower"),
    "segmetrics.edt_voxels": ("count", "lower"),
    "segmetrics.edt_useful_frac": ("ratio", "higher"),
    "segmetrics.pooled_distances": ("count", "higher"),
    "segmetrics.confusion_s": ("s", "lower"),
    "segmetrics.cohen_kappa_s": ("s", "lower"),
    "cohortstats.cohort_report_s": ("s", "lower"),
    "cohortstats.linear_fit_s": ("s", "lower"),
    "volbounds.vpe_bounds_calls": ("count", "lower"),
    "volbounds.audit_s": ("s", "lower"),
    **{f"linattn.linear_attention_s.n{n}": ("s", "lower") for n in ATTN_LINEAR_N},
    **{f"linattn.quadratic_attention_s.n{n}": ("s", "lower") for n in ATTN_QUADRATIC_N},
    "linattn.linear_gflop_per_s": ("Gop/s", "higher"),
    "linattn.quadratic_gflop_per_s": ("Gop/s", "higher"),
    "linattn.bench_self_s": ("s", "lower"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    case: str | None = None
    work: dict = field(default_factory=dict)


class Tracer:
    """Collects spans of one traced pass; parents always precede their children."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.case: str | None = None

    @contextmanager
    def span(self, name: str):
        span = Span(name, 0.0, parent=self._open[-1] if self._open else -1, case=self.case)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, work=None, case_from=None):
        """``fn`` inside a span; ``work(args, result)`` gives the span's counts and
        ``case_from(args)`` the case id that this and later spans carry."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if case_from is not None:
                self.case = case_from(args)
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if work is not None:
                span.work = work(args, result)
            return result

        return traced


def _case_stem(args) -> str:
    name = str(args[0]).rsplit("/", 1)[-1]
    return name.split(".nii", 1)[0]


def _edt_work(args, _result) -> dict:
    # The EDT input is ~surface, so its zeros are the surface voxels whose
    # distances boundary_metrics pools (|S_pred| + |S_gt| over a case's two calls).
    field_in = args[0]
    return {"voxels": field_in.size, "surface": field_in.size - int(np.count_nonzero(field_in))}


def _kernel_work(args, result) -> dict:
    return {"n": args[0].n, "flops": result.flops}


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced volkit function for the duration of the block."""
    from volkit import cli, cohortstats, linattn, segmetrics

    saved = []

    def patch(owner, key, name, **kw):
        if isinstance(owner, dict):
            saved.append((owner.__setitem__, key, owner[key]))
            owner[key] = tracer.wrap(name, owner[key], **kw)
        else:
            saved.append((functools.partial(setattr, owner), key, getattr(owner, key)))
            setattr(owner, key, tracer.wrap(name, getattr(owner, key), **kw))

    try:
        patch(cli, "load_nifti", "volgrid.load_nifti",
              work=lambda a, r: {"bytes": r.data.nbytes}, case_from=_case_stem)
        patch(cli, "binarize", "volgrid.binarize")
        patch(cli, "evaluate_case", "segmetrics.evaluate_case")
        patch(cli, "confusion", "segmetrics.confusion")
        patch(cli, "cohen_kappa", "segmetrics.cohen_kappa")
        patch(segmetrics, "confusion", "segmetrics.confusion")
        patch(segmetrics, "boundary_metrics", "segmetrics.boundary_metrics")
        patch(segmetrics.ndimage, "distance_transform_edt", "segmetrics.edt", work=_edt_work)
        patch(cli, "cohort_report", "cohortstats.cohort_report")
        patch(cli, "linear_fit", "cohortstats.linear_fit")
        patch(cohortstats, "summarize", "cohortstats.summarize")
        patch(cli, "vpe_bounds_from_dice", "volbounds.vpe_bounds_from_dice")
        patch(cli, "avpe_bound", "volbounds.avpe_bound")
        patch(cli, "bound_curve", "volbounds.bound_curve")
        patch(linattn, "bench_attention", "linattn.bench_attention")
        patch(linattn, "fit_loglog_slope", "linattn.fit_loglog_slope")
        patch(linattn._KERNELS, "linear", "linattn.linear_attention", work=_kernel_work)
        patch(linattn._KERNELS, "quadratic", "linattn.quadratic_attention", work=_kernel_work)
        yield tracer
    finally:
        for setter, key, original in reversed(saved):
            setter(key, original)


# --- metrics ----------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def roots(spans: list[Span]) -> list[int]:
    out = []
    for i, s in enumerate(spans):
        out.append(i if s.parent < 0 else out[s.parent])
    return out


def iteration_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer sums for one traced pass over a workload's commands."""
    own = self_times(spans)
    top = roots(spans)
    total, selfs, calls, work = defaultdict(float), defaultdict(float), Counter(), defaultdict(Counter)
    for s, t in zip(spans, own):
        total[s.name] += s.end - s.start
        selfs[s.name] += t
        calls[s.name] += 1
        work[s.name].update(s.work)
    read_mb = work["volgrid.load_nifti"]["bytes"] / 1e6
    edt_voxels = work["segmetrics.edt"]["voxels"]
    pooled = work["segmetrics.edt"]["surface"]
    return {
        "cli.self_s": sum((t for s, t in zip(spans, own) if s.parent < 0), 0.0),
        "volgrid.load_nifti_s": total["volgrid.load_nifti"],
        "volgrid.load_nifti_calls": calls["volgrid.load_nifti"],
        "volgrid.read_mb": read_mb,
        "volgrid.load_mb_per_s": read_mb / total["volgrid.load_nifti"] if read_mb else 0.0,
        "volgrid.binarize_s": total["volgrid.binarize"],
        "segmetrics.evaluate_case_s": total["segmetrics.evaluate_case"],
        "segmetrics.evaluate_case_calls": calls["segmetrics.evaluate_case"],
        "segmetrics.boundary_metrics_self_s": selfs["segmetrics.boundary_metrics"],
        "segmetrics.edt_s": total["segmetrics.edt"],
        "segmetrics.edt_calls": calls["segmetrics.edt"],
        "segmetrics.edt_voxels": edt_voxels,
        "segmetrics.edt_useful_frac": pooled / edt_voxels if edt_voxels else 0.0,
        "segmetrics.pooled_distances": pooled,
        "segmetrics.confusion_s": total["segmetrics.confusion"],
        "segmetrics.cohen_kappa_s": total["segmetrics.cohen_kappa"],
        "cohortstats.cohort_report_s": total["cohortstats.cohort_report"],
        "cohortstats.linear_fit_s": total["cohortstats.linear_fit"],
        "volbounds.vpe_bounds_calls": calls["volbounds.vpe_bounds_from_dice"],
        "volbounds.audit_s": sum((s.end - s.start for s, r in zip(spans, top)
                                  if s.name.startswith("volbounds.") and spans[r].name == "cli.bounds"), 0.0),
        "linattn.bench_self_s": selfs["linattn.bench_attention"],
    }


def tail_percentile(n: int) -> int:
    """Highest whole percentile that leaves at least 10 of n samples above it (50 if none)."""
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def run_metrics(passes: list[list[Span]]) -> dict[str, float]:
    """Per-layer metrics of a traced run: medians of per-pass sums, plus
    per-call statistics pooled over every pass."""
    per_pass = [iteration_metrics(spans) for spans in passes]
    out = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        # counts stay whole numbers
        out[name] = (statistics.median_low if isinstance(values[0], int) else statistics.median)(values)
    spans = [s for p in passes for s in p]

    cases = [s.end - s.start for s in spans if s.name == "segmetrics.evaluate_case"]
    pct = tail_percentile(len(cases))
    out["segmetrics.evaluate_case_p50_s"] = float(np.percentile(cases, 50)) if cases else 0.0
    out["segmetrics.evaluate_case_tail_s"] = float(np.percentile(cases, pct)) if cases else 0.0
    out["segmetrics.evaluate_case_tail_pct"] = pct if cases else 0

    for variant, n_list in (("linear", ATTN_LINEAR_N), ("quadratic", ATTN_QUADRATIC_N)):
        calls = [s for s in spans if s.name == f"linattn.{variant}_attention"]
        for n in n_list:
            times = [s.end - s.start for s in calls if s.work["n"] == n]
            out[f"linattn.{variant}_attention_s.n{n}"] = statistics.median(times) if times else 0.0
        seconds = sum(s.end - s.start for s in calls)
        # computed: attention_cost's operation count over measured kernel time
        out[f"linattn.{variant}_gflop_per_s"] = (
            sum(s.work["flops"] for s in calls) / seconds / 1e9 if calls else 0.0)
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """setup.* metrics from one ``python -X importtime`` log (microsecond columns).

    The log lists each module after the modules it imported, indented one
    level deeper. A package's import time is the cumulative time of its own
    line; scipy's lazy submodule loading leaves no line for ``scipy.ndimage``
    itself, and then its outermost submodules' lines are summed instead.
    """
    lines = []  # (name, self us, cumulative us, parent index)
    pending: list[tuple[int, int]] = []  # (indent, index) of lines whose parent is not yet seen
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        indent = len(name) - len(name.lstrip())
        index = len(lines)
        lines.append([name.strip(), int(own), int(cumulative), -1])
        while pending and pending[-1][0] > indent:
            lines[pending.pop()[1]][3] = index
        pending.append((indent, index))

    def in_package(name, package):
        return name == package or name.startswith(package + ".")

    def package_s(package):
        own_line = [cum for name, _, cum, _ in lines if name == package]
        return sum(own_line or [cum for name, _, cum, parent in lines if in_package(name, package)
                                and (parent < 0 or not in_package(lines[parent][0], package))]) / 1e6

    return {
        "setup.import_numpy_s": package_s("numpy"),
        "setup.import_scipy_ndimage_s": package_s("scipy.ndimage"),
        "setup.import_volkit_self_s": sum(own for name, own, _, _ in lines
                                          if in_package(name, "volkit")) / 1e6,
        "setup.import_volkit_total_s": package_s("volkit"),
    }


def write_spans(path, passes: list[list[Span]], origin: float):
    """One JSON object per span; times in seconds from ``origin``, parent as an index within its pass."""
    with open(path, "w") as f:
        for i, spans in enumerate(passes):
            for s in spans:
                f.write(json.dumps({"pass": i, "name": s.name, "start": s.start - origin,
                                    "end": s.end - origin, "parent": s.parent, "case": s.case,
                                    **({"work": dict(s.work)} if s.work else {})}) + "\n")

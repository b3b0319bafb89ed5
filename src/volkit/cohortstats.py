"""Cohort-level statistics: summaries, volume regression, paired t-tests.

``linear_fit`` and ``paired_t_test`` are plain Python (``math.fsum``,
:mod:`statistics`). The t-distribution tail is the regularized incomplete beta
function from :mod:`scipy.special`, imported when a p-value is computed.
``summarize`` imports numpy (when called); ``summarize_fields`` and
``cohort_report`` use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .volbounds import VpeBounds, avpe_bound

if TYPE_CHECKING:
    from .segmetrics import CaseMetrics


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    std: float  # sample std, n-1 denominator (0 for n = 1)
    median: float
    n: int


@dataclass(frozen=True)
class RegressionFit:
    slope: float
    intercept: float
    r2: float
    n: int


@dataclass(frozen=True)
class TTestResult:
    t: float
    df: int
    p: float


def summarize(values) -> MetricSummary:
    import numpy as np

    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot summarize an empty list")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return MetricSummary(
        mean=float(values.mean()), std=std, median=float(np.median(values)), n=values.size
    )


def summarize_fields(records) -> dict:
    """Each field of the dataclass ``records`` as ``vars(summarize(...))``, in field order.

    A field is summarised over the records that define it (not None); a field
    that no record defines is None. An empty list raises ValueError.
    """
    if not records:
        raise ValueError("cannot summarize an empty list of records")
    summaries = {}
    for name in vars(records[0]):
        defined = [v for v in (getattr(r, name) for r in records) if v is not None]
        summaries[name] = vars(summarize(defined)) if defined else None
    return summaries


def linear_fit(x, y) -> RegressionFit:
    """Least-squares line with r2 = (Pearson r)^2.

    Constant x (no regression possible) and constant y (Pearson r undefined)
    are both rejected, as distinct errors.
    """
    from statistics import fmean

    x = [float(v) for v in x]
    y = [float(v) for v in y]
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least two points")
    x_mean, y_mean = fmean(x), fmean(y)
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    sxx = math.fsum(d * d for d in dx)
    syy = math.fsum(d * d for d in dy)
    if sxx == 0.0:
        raise ValueError("x is constant: slope undefined")
    if syy == 0.0:
        raise ValueError("y is constant: Pearson correlation undefined")
    sxy = math.fsum(a * b for a, b in zip(dx, dy))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    r2 = sxy * sxy / (sxx * syy)
    return RegressionFit(slope=slope, intercept=intercept, r2=r2, n=len(x))


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value of a t statistic: I_x(df/2, 1/2), x = df/(df + t^2)."""
    from scipy import special

    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if math.isnan(t):
        raise ValueError("t must not be NaN")
    if math.isinf(t):
        return 0.0
    return float(special.betainc(df / 2, 0.5, df / (df + t * t)))


def paired_t_test(a, b) -> TTestResult:
    """Two-sided paired t-test on matched samples.

    Zero-variance differences are a degenerate case: p = 1 when the
    differences are all zero, an infinite-t outcome otherwise.
    """
    from statistics import fmean, stdev

    a = [float(v) for v in a]
    b = [float(v) for v in b]
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least two pairs")
    d = [x - y for x, y in zip(a, b)]
    if not all(map(math.isfinite, d)):
        raise ValueError("paired differences must be finite")
    df = len(d) - 1
    try:
        mean = fmean(d)
        sd = stdev(d)
    except OverflowError as exc:
        raise ValueError("paired differences overflow the float range") from exc
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=df, p=1.0)
        return TTestResult(t=math.copysign(math.inf, mean), df=df, p=0.0)
    t = mean / (sd / math.sqrt(len(d)))
    return TTestResult(t=t, df=df, p=t_two_sided_p(t, df))


# --- cohort report ------------------------------------------------------


def cohort_report(cases: list[CaseMetrics]) -> dict:
    """One cohort's case count, metric summaries and avpe bound audit.

    Returns ``{"n_cases": ..., "metrics": ..., "avpe": ...}``; ``avpe`` is None
    when no case has a vpe or the mean dice is 0; its ``violated`` is ``not
    VpeBounds(-1, bound).admits(mean |vpe|)``, at float-rounding precision.
    Paired comparisons between cohorts belong to :func:`paired_t_test`.
    """
    metrics = summarize_fields(cases)  # raises ValueError on an empty cohort
    entry = {"n_cases": len(cases), "metrics": metrics, "avpe": None}

    abs_vpes = [abs(c.vpe) for c in cases if c.vpe is not None]
    mean_dice = metrics["dice"]["mean"]
    if abs_vpes and mean_dice > 0:
        bound = avpe_bound(mean_dice)
        mean_abs_vpe = summarize(abs_vpes).mean
        entry["avpe"] = {
            "mean_dice": mean_dice,
            "mean_abs_vpe": mean_abs_vpe,
            "bound": bound,
            "violated": not VpeBounds(-1.0, bound).admits(mean_abs_vpe),
        }
    return entry

"""Cohort-level statistics: summaries, volume regression, paired t-tests.

The t-distribution tail is evaluated through the regularized incomplete beta
function, computed by the standard continued-fraction expansion (modified
Lentz) to 1e-12; the test suite cross-checks it against direct quadrature
of the t density. ``linear_fit`` and ``paired_t_test`` are plain Python
(``math.fsum``, :mod:`statistics`). ``summarize`` is the only function that
imports numpy (when called); ``summarize_fields`` and ``cohort_report`` use it.
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


# --- regularized incomplete beta via continued fraction -----------------

_BETAINC_TOL = 1e-12
_BETAINC_MAX_ITER = 500
_TINY = 1e-300


def _betacf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _BETAINC_MAX_ITER + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((qam + m2) * (a + m2))
        odd = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        for aa in (even, odd):  # convergence is judged on the odd half-step's delta
            d = 1.0 + aa * d
            if abs(d) < _TINY:
                d = _TINY
            c = 1.0 + aa / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _BETAINC_TOL:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def betainc_regularized(x: float, a: float, b: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x == 0.0 or x == 1.0:
        return x
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(log_front)
    # Use the expansion on the side where it converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(x, a, b) / a
    return 1.0 - front * _betacf(1.0 - x, b, a) / b


def t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p-value of a t statistic: I_x(df/2, 1/2), x = df/(df + t^2)."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    return betainc_regularized(df / (df + t * t), df / 2.0, 0.5)


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

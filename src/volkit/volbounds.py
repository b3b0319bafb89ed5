"""Relative volume prediction error and its Dice-derived bounds.

For any mask pair with overlap, the relative volume prediction error
``vpe = pred/gt - 1`` is squeezed between two closed forms of the Dice
coefficient: ``2/(2 - dice) - 2 <= vpe <= 2/dice - 2``. The cohort mean of
``|vpe|`` is in turn bounded by ``2/mean_dice - 2``. This module provides
the closed forms, two verifiers and the bound-curve table. The exhaustive
verifier covers every count triple of a grid of up to 125 voxels, and so every
mask pair; the sampled one draws larger masks. Both check ``vpe_bounds_from_dice``
itself; only the sampled one imports numpy, to draw its masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

BOUND_CURVE_CSV_HEADER = "dice,vpe_lower,vpe_upper,abs_lower,abs_upper"

_EXHAUSTIVE_VOXEL_CAP = 125  # 5x5x5


@dataclass(frozen=True)
class VpeBounds:
    lower: float  # in [-1, 0]
    upper: float  # >= 0


@dataclass(frozen=True)
class BoundViolation:
    pred_bits: int
    gt_bits: int
    dice: float
    vpe: float
    lower: float
    upper: float


def vpe(pred_ml: float, gt_ml: float) -> float:
    """Relative volume prediction error, pred/gt - 1."""
    if gt_ml <= 0:
        raise ValueError(f"ground-truth volume must be positive, got {gt_ml}")
    return pred_ml / gt_ml - 1.0


def vpe_bounds_from_dice(dice: float) -> VpeBounds:
    """Lower and upper vpe bounds implied by a Dice value in (0, 1]."""
    if not 0.0 < dice <= 1.0:
        raise ValueError(f"dice must be in (0, 1], got {dice}")
    return VpeBounds(lower=2.0 / (2.0 - dice) - 2.0, upper=2.0 / dice - 2.0)


def avpe_bound(mean_dice: float) -> float:
    """Upper bound on the cohort mean of |vpe|: 2/mean_dice - 2."""
    if not 0.0 < mean_dice <= 1.0:
        raise ValueError(f"mean dice must be in (0, 1], got {mean_dice}")
    return 2.0 / mean_dice - 2.0


def _outside_bounds(n_pred: int, n_gt: int, overlap: int, tol: float):
    """(dice, vpe, lower, upper) of a pair whose vpe leaves ``vpe_bounds_from_dice(dice)``
    by more than ``tol``, or whose interval has ``|lower| > upper``; None otherwise.

    The pair is given by its foreground counts, with ``n_gt`` and ``overlap`` positive.
    """
    dice = 2.0 * overlap / (n_pred + n_gt)
    v = n_pred / n_gt - 1.0
    b = vpe_bounds_from_dice(dice)
    # HM-GM consequence: |lower| <= upper must hold pointwise too.
    if v < b.lower - tol or v > b.upper + tol or -b.lower > b.upper + tol:
        return dice, v, b.lower, b.upper
    return None


def verify_bounds_exhaustive(grid_dims=(3, 3, 1), tol: float = 1e-12) -> list[BoundViolation]:
    """Check the vpe bounds on EVERY mask pair with non-empty gt and overlap > 0.

    The check reads only a pair's counts, so this runs over their triples
    ``(n_pred, n_gt, overlap)``. It returns the (expected empty) violation list:
    one per violating triple, holding one witness pair of that triple.
    """
    n_vox = prod(grid_dims)
    if not 0 <= n_vox <= _EXHAUSTIVE_VOXEL_CAP:
        raise ValueError(f"{n_vox} voxels: exhaustive enumeration takes 0 to {_EXHAUSTIVE_VOXEL_CAP}")

    sizes = range(1, n_vox + 1)
    triples = ((n_pred, n_gt, overlap) for n_pred in sizes for n_gt in sizes
               for overlap in range(max(1, n_pred + n_gt - n_vox), min(n_pred, n_gt) + 1))
    # witness: pred the low p bits, gt g bits from bit p - o; they share o bits, within n_vox
    return [BoundViolation((1 << p) - 1, ((1 << g) - 1) << (p - o), *bad)
            for p, g, o in triples if (bad := _outside_bounds(p, g, o, tol))]


def verify_bounds_sampled(grid_dims, n_pairs: int, seed: int = 0, tol: float = 1e-12) -> int:
    """Sampled extension of the exhaustive check for larger grids.

    Draws random mask pairs (rejecting empty-gt and zero-overlap draws) and
    returns the number of bound violations (expected 0).
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    n_vox = prod(grid_dims)
    preds = rng.random((n_pairs, n_vox)) < rng.random((n_pairs, 1))
    gts = rng.random((n_pairs, n_vox)) < rng.random((n_pairs, 1))
    counts = zip(*(m.sum(axis=1).tolist() for m in (preds, gts, preds & gts)))
    return sum(1 for n_pred, n_gt, overlap in counts
               if overlap and _outside_bounds(n_pred, n_gt, overlap, tol))


def bound_curve(dice_grid) -> list[dict]:
    """Rows of (dice, vpe_lower, vpe_upper, abs_lower, abs_upper)."""
    rows = []
    for dice in dice_grid:
        b = vpe_bounds_from_dice(float(dice))
        rows.append(
            {
                "dice": float(dice),
                "vpe_lower": b.lower,
                "vpe_upper": b.upper,
                "abs_lower": abs(b.lower),
                "abs_upper": b.upper,
            }
        )
    return rows

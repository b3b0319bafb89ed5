"""Relative volume prediction error and its Dice-derived bounds.

For any mask pair with overlap, the relative volume prediction error
``vpe = pred/gt - 1`` is squeezed between two closed forms of the Dice
coefficient: ``2/(2 - dice) - 2 <= vpe <= 2/dice - 2``. The cohort mean of
``|vpe|`` is in turn bounded by ``2/mean_dice - 2``. This module provides
the closed forms, two verifiers and the bound-curve table. The check reads
only a mask pair's count triple ``(n_pred, n_gt, overlap)``. The exhaustive
verifier covers every triple of a grid of up to 125 voxels, and so every mask
pair; the sampled one draws triples of larger grids. Both check
``vpe_bounds_from_dice`` itself, and neither loads numpy. Every interval check
is ``VpeBounds.admits``: it compares value + 2, always positive (``vpe + 2 =
(n_pred + n_gt)/n_gt``; the bounds + 2 are ``2/(2 - dice)`` and ``2/dice``), so
one relative precision covers the dice and the vpe at any dice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

BOUND_CURVE_CSV_HEADER = "dice,vpe_lower,vpe_upper,abs_lower,abs_upper"

_EXHAUSTIVE_VOXEL_CAP = 125  # 5x5x5
_RTOL = 1e-12  # float rounding allowed beyond a closed-form bound


@dataclass(frozen=True)
class VpeBounds:
    lower: float  # in [-1, 0]
    upper: float  # >= 0

    def admits(self, vpe: float, rtol: float = _RTOL) -> bool:
        """Whether ``vpe`` is in the interval, to relative precision ``rtol`` in each value + 2."""
        return (self.lower + 2.0) * (1.0 - 2.0 * rtol) <= vpe + 2.0 <= (self.upper + 2.0) * (1.0 + 2.0 * rtol)


@dataclass(frozen=True)
class BoundViolation:
    n_pred: int
    n_gt: int
    overlap: int
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
    """Upper bound on the cohort mean of |vpe|: the per-case upper bound at the mean Dice."""
    return vpe_bounds_from_dice(mean_dice).upper


def _outside_bounds(n_pred: int, n_gt: int, overlap: int):
    """(dice, vpe, lower, upper) of a pair whose vpe ``vpe_bounds_from_dice(dice)`` does
    not admit, or whose interval has ``|lower| > upper``; None otherwise.

    The pair is given by its foreground counts, with ``n_gt`` and ``overlap`` positive.
    """
    dice = 2.0 * overlap / (n_pred + n_gt)
    v = vpe(n_pred, n_gt)
    b = vpe_bounds_from_dice(dice)
    # HM-GM consequence: |lower| <= upper must hold pointwise too.
    return None if b.admits(v) and b.admits(-b.lower) else (dice, v, b.lower, b.upper)


def _overlaps(n_pred: int, n_gt: int, n_vox: int) -> range:
    """The positive overlaps of ``n_pred`` and ``n_gt`` foreground voxels on an ``n_vox``-voxel grid."""
    return range(max(1, n_pred + n_gt - n_vox), min(n_pred, n_gt) + 1)


def verify_bounds_exhaustive(grid_dims=(3, 3, 1)) -> list[BoundViolation]:
    """Check the vpe bounds on EVERY mask pair with non-empty gt and overlap > 0.

    This runs over the pairs' count triples ``(n_pred, n_gt, overlap)``. It
    returns the (expected empty) violation list: one per violating triple.
    """
    n_vox = prod(grid_dims)
    if not 0 <= n_vox <= _EXHAUSTIVE_VOXEL_CAP:
        raise ValueError(f"{n_vox} voxels: exhaustive enumeration takes 0 to {_EXHAUSTIVE_VOXEL_CAP}")

    sizes = range(1, n_vox + 1)
    triples = ((p, g, o) for p in sizes for g in sizes for o in _overlaps(p, g, n_vox))
    return [BoundViolation(*triple, *bad) for triple in triples if (bad := _outside_bounds(*triple))]


def verify_bounds_sampled(grid_dims, n_pairs: int, seed: int = 0) -> int:
    """Sampled extension of the exhaustive check for larger grids.

    Draws ``n_pairs`` count triples of the grid: ``n_pred`` and ``n_gt``
    uniformly from 1 to the voxel count, then their overlap uniformly from the
    positive ones the grid allows. Returns the number of bound violations
    (expected 0).
    """
    import random

    n_vox = prod(grid_dims)
    if n_vox < 0 or n_pairs < 0:
        raise ValueError(f"{n_vox} voxels, {n_pairs} pairs: both must be at least 0")
    rng = random.Random(seed)
    violations = 0
    for _ in range(n_pairs if n_vox else 0):
        n_pred, n_gt = rng.randint(1, n_vox), rng.randint(1, n_vox)
        violations += _outside_bounds(n_pred, n_gt, rng.choice(_overlaps(n_pred, n_gt, n_vox))) is not None
    return violations


def bound_curve(dice_grid) -> list[dict]:
    """Rows of (dice, vpe_lower, vpe_upper, abs_lower, abs_upper), keyed by ``BOUND_CURVE_CSV_HEADER``."""
    keys = BOUND_CURVE_CSV_HEADER.split(",")
    bounds = ((dice, vpe_bounds_from_dice(dice)) for dice in map(float, dice_grid))
    return [dict(zip(keys, (dice, b.lower, b.upper, abs(b.lower), b.upper))) for dice, b in bounds]

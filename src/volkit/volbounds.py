"""Relative volume prediction error and its Dice-derived bounds.

For any mask pair with overlap, the relative volume prediction error
``vpe = pred/gt - 1`` is squeezed between two closed forms of the Dice
coefficient: ``2/(2 - dice) - 2 <= vpe <= 2/dice - 2``. The cohort mean of
``|vpe|`` is in turn bounded by ``2/mean_dice - 2``. This module provides
the closed forms, an exhaustive brute-force verifier over all small mask
pairs, and the bound-curve table. The closed forms are plain Python; numpy is
imported only by the verifiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

BOUND_CURVE_CSV_HEADER = "dice,vpe_lower,vpe_upper,abs_lower,abs_upper"

_EXHAUSTIVE_VOXEL_CAP = 12


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


def _check_pairs(pred_counts, gt_counts, overlap_counts, tol):
    """Bound check over parallel count arrays; returns violation tuples."""
    import numpy as np

    pred_counts = np.asarray(pred_counts, dtype=np.float64)
    gt_counts = np.asarray(gt_counts, dtype=np.float64)
    overlap_counts = np.asarray(overlap_counts, dtype=np.float64)

    dice = 2.0 * overlap_counts / (pred_counts + gt_counts)
    vpes = pred_counts / gt_counts - 1.0
    lower = 2.0 / (2.0 - dice) - 2.0
    upper = 2.0 / dice - 2.0
    # HM-GM consequence: |lower| <= upper must hold pointwise too.
    bad = (vpes < lower - tol) | (vpes > upper + tol) | (-lower > upper + tol)
    return dice, vpes, lower, upper, np.flatnonzero(bad)


def verify_bounds_exhaustive(grid_dims=(3, 3, 1), tol: float = 1e-12) -> list[BoundViolation]:
    """Check the vpe bounds on EVERY mask pair of a small grid.

    Enumerates all 2^N x 2^N (pred, gt) pairs with non-empty gt and
    overlap > 0 and returns the (expected empty) violation list.
    """
    import numpy as np

    n_vox = prod(grid_dims)
    if n_vox > _EXHAUSTIVE_VOXEL_CAP:
        raise ValueError(f"{n_vox} voxels: exhaustive enumeration capped at {_EXHAUSTIVE_VOXEL_CAP}")

    masks = np.arange(1 << n_vox, dtype=np.int64)
    popcount = np.array([bin(m).count("1") for m in masks], dtype=np.int64)

    pred_idx, gt_idx = np.meshgrid(masks, masks[1:], indexing="ij")
    overlap = popcount[pred_idx & gt_idx]
    keep = overlap > 0
    pred_idx, gt_idx, overlap = pred_idx[keep], gt_idx[keep], overlap[keep]

    dice, vpes, lower, upper, bad = _check_pairs(
        popcount[pred_idx], popcount[gt_idx], overlap, tol
    )
    return [
        BoundViolation(
            pred_bits=int(pred_idx[i]),
            gt_bits=int(gt_idx[i]),
            dice=float(dice[i]),
            vpe=float(vpes[i]),
            lower=float(lower[i]),
            upper=float(upper[i]),
        )
        for i in bad
    ]


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
    overlap = (preds & gts).sum(axis=1)
    keep = overlap > 0
    if not keep.any():
        return 0
    _, _, _, _, bad = _check_pairs(
        preds[keep].sum(axis=1), gts[keep].sum(axis=1), overlap[keep], tol
    )
    return int(bad.size)


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

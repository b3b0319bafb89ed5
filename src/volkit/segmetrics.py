"""Region and boundary metrics for binary volumetric masks.

Region metrics come from voxelwise confusion counts; boundary metrics (HD95,
ASSD) from surface-to-surface distances computed through an exact anisotropic
Euclidean distance transform. Cohen's kappa treats the two masks as two
raters labeling every voxel of the volume.

Conventions baked in here:
  * surfaces use 6-connectivity and the grid border counts as background;
  * both masks empty -> dice = jaccard = 1, one empty -> 0;
  * 0/0 precision or recall is reported as None, never 0 or 1;
  * HD95 is the linear-interpolation 95th percentile of the pooled
    symmetric distance multiset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .volgrid import BinaryMask, mask_volume_ml

_SPACING_RTOL = 1e-6


def __getattr__(name):
    # scipy.ndimage is imported on first use so that commands without a
    # distance transform do not pay for it; ``segmetrics.ndimage`` still resolves.
    if name == "ndimage":
        from scipy import ndimage

        return ndimage
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UndefinedMetricError(Exception):
    """Raised when a metric has no defined value for the given inputs."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class RegionMetrics:
    dice: float
    jaccard: float
    precision: Optional[float]
    recall: Optional[float]


@dataclass(frozen=True)
class CaseMetrics:
    """Full per-case evaluation record. None marks an undefined value."""

    dice: float
    jaccard: float
    precision: Optional[float]
    recall: Optional[float]
    hd95_mm: Optional[float]
    assd_mm: Optional[float]
    pred_volume_ml: float
    gt_volume_ml: float
    vpe: Optional[float]


# Metric fields in the order of the cohort report and of the case CSV's columns.
CASE_METRIC_FIELDS = (
    "dice",
    "jaccard",
    "precision",
    "recall",
    "hd95_mm",
    "assd_mm",
    "pred_volume_ml",
    "gt_volume_ml",
    "vpe",
)


def _check_compatible(a: BinaryMask, b: BinaryMask):
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: {a.dims} vs {b.dims}")
    # np.allclose(rtol=_SPACING_RTOL, atol=0) on two 3-tuples, in plain Python
    if not all(abs(x - y) <= _SPACING_RTOL * abs(y) for x, y in zip(a.spacing, b.spacing)):
        raise ValueError(f"spacing mismatch: {a.spacing} vs {b.spacing}")


def _foreground_counts(a: BinaryMask, b: BinaryMask) -> tuple[int, int, int]:
    """Foreground voxels of ``a``, of ``b`` and of both; every other count follows."""
    _check_compatible(a, b)
    both = int(np.count_nonzero(np.logical_and(a.data, b.data)))
    return int(np.count_nonzero(a.data)), int(np.count_nonzero(b.data)), both


def confusion(pred: BinaryMask, gt: BinaryMask) -> ConfusionCounts:
    """Voxelwise confusion counts of prediction against ground truth."""
    n_pred, n_gt, tp = _foreground_counts(pred, gt)
    fp = n_pred - tp
    fn = n_gt - tp
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=pred.data.size - tp - fp - fn)


def region_metrics(c: ConfusionCounts) -> RegionMetrics:
    """Dice, Jaccard, precision, and recall from confusion counts."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:  # both masks empty: perfect agreement on absence
        dice, jaccard = 1.0, 1.0
    else:
        dice = 2 * c.tp / denom
        jaccard = c.tp / (c.tp + c.fp + c.fn)
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp > 0 else None
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn > 0 else None
    return RegionMetrics(dice=dice, jaccard=jaccard, precision=precision, recall=recall)


def _bounding_box(data: np.ndarray):
    """Slices of the smallest box holding every nonzero voxel; None if there is none."""
    xy = data.any(axis=2)
    hits = [np.flatnonzero(xy.any(axis=1)), np.flatnonzero(xy.any(axis=0)),
            np.flatnonzero(data.any(axis=(0, 1)))]
    if not hits[2].size:
        return None
    return tuple(slice(int(h[0]), int(h[-1]) + 1) for h in hits)


def _surface(mask: BinaryMask) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The mask's surface on the full grid, and its voxels in ``np.nonzero`` order.

    Both are computed inside the mask's bounding box, whose outside holds no
    foreground and so no surface; the indices are shifted by the box offset,
    which keeps their row-major order. The full-grid array has the mask's
    memory layout.
    """
    surface = np.zeros_like(mask.data, dtype=bool)
    box = _bounding_box(mask.data)
    if box is None:
        return surface, np.nonzero(surface)
    fg = mask.data[box].astype(bool)
    # A foreground voxel is on the surface iff any of its 6 face neighbors is
    # background; padding makes the box border, and so the grid border, count
    # as background.
    padded = np.pad(fg, 1, constant_values=False)
    interior = np.ones_like(fg)
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    inner = fg & ~interior
    surface[box] = inner
    return surface, tuple(i + b.start for i, b in zip(np.nonzero(inner), box))


def extract_surface(mask: BinaryMask) -> np.ndarray:
    """Integer (x, y, z) coordinates of the mask's 6-connectivity surface."""
    if mask.foreground_count() == 0:
        raise UndefinedMetricError("surface of an empty mask is undefined")
    return np.transpose(_surface(mask)[1])  # np.argwhere's own definition


def edt(mask: BinaryMask) -> np.ndarray:
    """Exact anisotropic distance (mm) from every voxel to the mask surface.

    Distances are between voxel centers; surface voxels map to 0. Backed by
    the separable exact Euclidean distance transform.
    """
    from scipy import ndimage

    surface, _ = _surface(mask)
    if not surface.any():
        raise UndefinedMetricError("distance field of an empty mask is undefined")
    return ndimage.distance_transform_edt(~surface, sampling=mask.spacing)


def _distances_at(surface: np.ndarray, spacing, idx: tuple[np.ndarray, ...]) -> np.ndarray:
    """``edt()`` of ``surface`` read at the voxels with coordinates ``idx``.

    Runs the same exact feature transform as :func:`edt` but keeps only the
    nearest-surface indices, then finishes scipy's distance arithmetic
    (difference, cast, per-axis scale, square, sum over axes, sqrt) at the
    requested voxels alone, so the values are bit-identical to the full field.
    """
    from scipy import ndimage

    nearest = ndimage.distance_transform_edt(
        ~surface, sampling=spacing, return_distances=False, return_indices=True
    )[(slice(None), *idx)]
    delta = (nearest - np.stack(idx)).astype(np.float64)
    for axis, step in enumerate(np.asarray(spacing, dtype=np.float64)):
        delta[axis] *= step
    np.multiply(delta, delta, delta)
    return np.sqrt(np.add.reduce(delta, axis=0))


def _pooled_surface_distances(pred: BinaryMask, gt: BinaryMask) -> np.ndarray:
    pred_surface, pred_idx = _surface(pred)
    gt_surface, gt_idx = _surface(gt)
    pred_to_gt = _distances_at(gt_surface, gt.spacing, pred_idx)
    gt_to_pred = _distances_at(pred_surface, pred.spacing, gt_idx)
    return np.concatenate([pred_to_gt, gt_to_pred])


def boundary_metrics(pred: BinaryMask, gt: BinaryMask) -> tuple[float, float]:
    """HD95 and ASSD in millimeters over the pooled symmetric distance set."""
    _check_compatible(pred, gt)
    if pred.foreground_count() == 0 or gt.foreground_count() == 0:
        raise UndefinedMetricError("boundary metrics are undefined for an empty mask")
    pooled = _pooled_surface_distances(pred, gt)
    return float(np.percentile(pooled, 95)), float(pooled.mean())


def cohen_kappa(a: BinaryMask, b: BinaryMask) -> float:
    """Chance-corrected voxelwise agreement between two raters' masks.

    The universe is the full volume, background included.
    """
    na, nb, both = _foreground_counts(a, b)
    n = a.data.size
    agree = n - na - nb + 2 * both  # voxels in both masks or in neither
    # exact integer forms of n^2 * (p_o - p_e) and n^2 * (1 - p_e)
    chance = na * nb + (n - na) * (n - nb)
    den = n * n - chance
    if den == 0:
        raise UndefinedMetricError("kappa undefined: both raters constant and identical")
    return (agree * n - chance) / den


def evaluate_case(pred: BinaryMask, gt: BinaryMask) -> CaseMetrics:
    """Full metric record for one prediction/ground-truth pair."""
    _check_compatible(pred, gt)
    rm = region_metrics(confusion(pred, gt))
    pred_ml = mask_volume_ml(pred)
    gt_ml = mask_volume_ml(gt)

    if pred.foreground_count() > 0 and gt.foreground_count() > 0:
        hd95, assd = boundary_metrics(pred, gt)
    else:
        hd95, assd = None, None
    vpe = pred_ml / gt_ml - 1.0 if gt_ml > 0 else None

    return CaseMetrics(
        dice=rm.dice,
        jaccard=rm.jaccard,
        precision=rm.precision,
        recall=rm.recall,
        hd95_mm=hd95,
        assd_mm=assd,
        pred_volume_ml=pred_ml,
        gt_volume_ml=gt_ml,
        vpe=vpe,
    )

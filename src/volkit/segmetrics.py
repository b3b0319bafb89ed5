"""Region and boundary metrics for binary volumetric masks.

Every region number of a pair comes from its one voxelwise confusion count:
Dice, Jaccard, precision, recall, Cohen's kappa (the two masks as two raters
labeling every voxel of the volume) and both volumes, so ``eval`` and
``agree`` each count a mask once. Boundary metrics (HD95, ASSD) come from
surface-to-surface distances computed through an exact anisotropic Euclidean
distance transform.

Conventions baked in here:
  * surfaces use 6-connectivity and the grid border counts as background;
  * both masks empty -> dice = jaccard = 1, one empty -> 0;
  * 0/0 precision or recall is reported as None, never 0 or 1;
  * HD95 is the linear-interpolation 95th percentile of the pooled
    symmetric distance multiset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import volbounds
from .volgrid import BinaryMask

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

    def kappa(self) -> float:
        """Cohen's kappa of the two masks as raters labeling every voxel."""
        n = self.tp + self.fp + self.fn + self.tn
        na, nb = self.tp + self.fp, self.tp + self.fn
        # exact integer forms of n^2 * (p_o - p_e) and n^2 * (1 - p_e)
        chance = na * nb + (n - na) * (n - nb)
        den = n * n - chance
        if den == 0:
            raise UndefinedMetricError("kappa undefined: both raters constant and identical")
        return ((self.tp + self.tn) * n - chance) / den


@dataclass(frozen=True)
class RegionMetrics:
    dice: float
    jaccard: float
    precision: Optional[float]
    recall: Optional[float]


@dataclass(frozen=True)
class CaseMetrics(RegionMetrics):
    """Full per-case evaluation record. None marks an undefined value.

    The field order, RegionMetrics' fields first, is the order of the cohort
    report and of the case CSV's columns.
    """

    hd95_mm: Optional[float]
    assd_mm: Optional[float]
    pred_volume_ml: float
    gt_volume_ml: float
    vpe: Optional[float]


def _check_compatible(a: BinaryMask, b: BinaryMask):
    if a.dims != b.dims:
        raise ValueError(f"shape mismatch: {a.dims} vs {b.dims}")
    if not all(math.isclose(x, y, rel_tol=_SPACING_RTOL) for x, y in zip(a.spacing, b.spacing)):
        raise ValueError(f"spacing mismatch: {a.spacing} vs {b.spacing}")


def confusion(pred: BinaryMask, gt: BinaryMask) -> ConfusionCounts:
    """Voxelwise confusion counts of prediction against ground truth."""
    _check_compatible(pred, gt)
    tp = int(np.count_nonzero(np.logical_and(pred.data, gt.data)))
    fp = int(np.count_nonzero(pred.data)) - tp
    fn = int(np.count_nonzero(gt.data)) - tp
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
    """The distance transform's input for the mask's surface, and the surface voxels.

    The input is False on the surface and True elsewhere, on the full grid and
    in the mask's memory layout; the voxels come in ``np.nonzero`` order. Both
    are computed inside the mask's bounding box, whose outside holds no
    foreground and so no surface; the indices are shifted by the box offset,
    which keeps their row-major order. An empty mask has no surface and raises
    UndefinedMetricError.
    """
    box = _bounding_box(mask.data)
    if box is None:
        raise UndefinedMetricError("an empty mask has no surface")
    from scipy import ndimage

    fg = mask.data[box].astype(bool)
    # Foreground voxels with a background face neighbor: the mask minus its erosion by
    # the 6-connected cross, where border_value=0 makes the box and grid border background.
    inner = fg & ~ndimage.binary_erosion(fg, border_value=0)
    field_in = np.ones_like(mask.data, dtype=bool)
    field_in[box] = ~inner
    return field_in, tuple(i + b.start for i, b in zip(np.nonzero(inner), box))


def edt(mask: BinaryMask) -> np.ndarray:
    """Exact anisotropic distance (mm) from every voxel to the mask surface.

    Distances are between voxel centers; surface voxels map to 0. Backed by
    the separable exact Euclidean distance transform.
    """
    from scipy import ndimage

    return ndimage.distance_transform_edt(_surface(mask)[0], sampling=mask.spacing)


def _distances_at(field_in: np.ndarray, spacing, idx: tuple[np.ndarray, ...]) -> np.ndarray:
    """``edt()`` of the surface given as ``_surface``'s ``field_in``, read at the voxels ``idx``.

    Runs the same exact feature transform as :func:`edt` but keeps only the
    nearest-surface indices, then finishes scipy's distance arithmetic
    (difference, cast, per-axis scale, square, sum over axes, sqrt) at the
    requested voxels alone, so the values are bit-identical to the full field.
    """
    from scipy import ndimage

    nearest = ndimage.distance_transform_edt(
        field_in, sampling=spacing, return_distances=False, return_indices=True
    )[(slice(None), *idx)]
    delta = (nearest - np.stack(idx)).astype(np.float64)
    for axis, step in enumerate(np.asarray(spacing, dtype=np.float64)):
        delta[axis] *= step
    np.multiply(delta, delta, delta)
    return np.sqrt(np.add.reduce(delta, axis=0))


def _pooled_surface_distances(pred: BinaryMask, gt: BinaryMask) -> np.ndarray:
    pred_field_in, pred_idx = _surface(pred)
    gt_field_in, gt_idx = _surface(gt)
    pred_to_gt = _distances_at(gt_field_in, gt.spacing, pred_idx)
    gt_to_pred = _distances_at(pred_field_in, pred.spacing, gt_idx)
    return np.concatenate([pred_to_gt, gt_to_pred])


def boundary_metrics(pred: BinaryMask, gt: BinaryMask) -> tuple[float, float]:
    """HD95 and ASSD in millimeters over the pooled symmetric distance set."""
    _check_compatible(pred, gt)
    pooled = _pooled_surface_distances(pred, gt)
    return float(np.percentile(pooled, 95)), float(pooled.mean())


def cohen_kappa(a: BinaryMask, b: BinaryMask) -> float:
    """Chance-corrected voxelwise agreement between two raters' masks.

    The universe is the full volume, background included; kappa is a function
    of the pair's confusion counts, ``confusion(a, b).kappa()``.
    """
    return confusion(a, b).kappa()


def evaluate_case(pred: BinaryMask, gt: BinaryMask) -> CaseMetrics:
    """Full metric record for one prediction/ground-truth pair."""
    counts = confusion(pred, gt)  # confusion checks the pair is compatible
    rm = region_metrics(counts)
    # volume in ml: foreground voxel count x voxel volume (mm^3) / 1000, each mask at its own spacing
    (px, py, pz), (gx, gy, gz) = pred.spacing, gt.spacing
    pred_ml = (counts.tp + counts.fp) * px * py * pz / 1000.0
    gt_ml = (counts.tp + counts.fn) * gx * gy * gz / 1000.0
    try:
        hd95, assd = boundary_metrics(pred, gt)
    except UndefinedMetricError:  # an empty mask has no surface
        hd95, assd = None, None

    return CaseMetrics(
        **vars(rm),
        hd95_mm=hd95,
        assd_mm=assd,
        pred_volume_ml=pred_ml,
        gt_volume_ml=gt_ml,
        vpe=volbounds.vpe(pred_ml, gt_ml) if gt_ml > 0 else None,
    )

"""Independent brute-force oracles used to verify the fast implementations.

Everything here is deliberately naive: scalar loops, pairwise distance
scans, and direct quadrature. None of it shares code with the package.
"""

import math

import numpy as np
from scipy.integrate import quad


def naive_quadratic_attention(q, k, v):
    """Three-loop scalar scaled-dot-product attention."""
    n, d = q.shape
    out = np.zeros((n, d))
    for i in range(n):
        scores = np.array([sum(q[i, c] * k[j, c] for c in range(d)) / math.sqrt(d) for j in range(n)])
        scores -= scores.max()
        weights = np.exp(scores)
        weights /= weights.sum()
        for c in range(d):
            out[i, c] = sum(weights[j] * v[j, c] for j in range(n))
    return out


def unfactored_linear_attention(q, k, v):
    """Explicit-weight-matrix evaluation of the separable similarity."""

    def softmax(x):
        e = np.exp(x - x.max())
        return e / e.sum()

    n, d = q.shape
    phi = np.stack([softmax(q[i]) for i in range(n)])
    rho = np.stack([softmax(k[:, c]) for c in range(d)], axis=1)
    weights = phi @ rho.T
    return weights @ v


def numeric_attention_gradients(q, k, v, upstream, kernel, step=1e-5):
    """Central finite differences of sum(upstream * kernel(q, k, v))."""

    def loss(qq, kk, vv):
        return float((upstream * kernel(qq, kk, vv)).sum())

    grads = []
    for which in range(3):
        mats = [q.copy(), k.copy(), v.copy()]
        g = np.zeros_like(mats[which])
        for idx in np.ndindex(g.shape):
            plus = [m.copy() for m in mats]
            minus = [m.copy() for m in mats]
            plus[which][idx] += step
            minus[which][idx] -= step
            g[idx] = (loss(*plus) - loss(*minus)) / (2 * step)
        grads.append(g)
    return tuple(grads)


def brute_surface(mask_data):
    """Foreground voxels with a 6-neighborhood background/out-of-bounds neighbor."""
    nx, ny, nz = mask_data.shape
    coords = []
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                if not mask_data[x, y, z]:
                    continue
                on_surface = False
                for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    xx, yy, zz = x + dx, y + dy, z + dz
                    if not (0 <= xx < nx and 0 <= yy < ny and 0 <= zz < nz) or not mask_data[xx, yy, zz]:
                        on_surface = True
                        break
                if on_surface:
                    coords.append((x, y, z))
    return np.array(coords, dtype=np.int64).reshape(-1, 3)


def brute_edt(mask_data, spacing):
    """O(N*S) min-over-all-surface-voxels distance field in mm."""
    surface = brute_surface(mask_data).astype(np.float64) * np.asarray(spacing)
    nx, ny, nz = mask_data.shape
    field = np.zeros((nx, ny, nz))
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                p = np.array([x, y, z], dtype=np.float64) * np.asarray(spacing)
                field[x, y, z] = np.sqrt(((surface - p) ** 2).sum(axis=1)).min()
    return field


def brute_boundary_metrics(pred_data, gt_data, spacing):
    """Pairwise-distance HD95/ASSD with the pooled linear-interp percentile."""
    sp = np.asarray(spacing, dtype=np.float64)
    pred_pts = brute_surface(pred_data).astype(np.float64) * sp
    gt_pts = brute_surface(gt_data).astype(np.float64) * sp
    cross = np.sqrt(((pred_pts[:, None, :] - gt_pts[None, :, :]) ** 2).sum(axis=2))
    pooled = np.concatenate([cross.min(axis=1), cross.min(axis=0)])
    pooled.sort()
    rank = 0.95 * (len(pooled) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    hd95 = pooled[lo] + (rank - lo) * (pooled[hi] - pooled[lo])
    return float(hd95), float(pooled.mean())


def t_two_sided_p_quadrature(t, df):
    """Two-sided t p-value by numerical integration of the density."""
    coeff = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)

    def pdf(x):
        return coeff * (1 + x * x / df) ** (-(df + 1) / 2)

    tail, _ = quad(pdf, abs(t), math.inf, limit=200)
    return min(1.0, 2.0 * tail)


def brute_bound_violations(n_vox, outside_bounds):
    """Every mask pair on ``n_vox`` voxels, as integers, with non-empty gt and
    overlap > 0 that ``outside_bounds(n_pred, n_gt, overlap)`` flags:
    ``(pred_bits, gt_bits, *flagged)`` for each, all 4^n_vox pairs tried."""
    violations = []
    for pred_bits in range(1 << n_vox):
        for gt_bits in range(1, 1 << n_vox):
            overlap = (pred_bits & gt_bits).bit_count()
            if overlap and (bad := outside_bounds(pred_bits.bit_count(), gt_bits.bit_count(), overlap)):
                violations.append((pred_bits, gt_bits, *bad))
    return violations

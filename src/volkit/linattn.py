"""Linear-complexity self-attention kernel with a quadratic reference.

The quadratic kernel computes ``out_i = sum_j softmax_j(Q_i.K_j/sqrt(d)) V_j``.
The linear kernel replaces the similarity with a separable form,
``softmax_rows(Q) @ (softmax_cols(K).T @ V)``, evaluated in the factored
order, so its cost is linear in n. Beyond its inputs each kernel holds the
n x d output and one row block of weights, the linear one also a transient
n x d key softmax. Both kernels also return ``attention_cost`` at the call's
shape: the closed-form multiply-accumulate count, not one taken as they ran.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AttentionTensors:
    """Query/key/value matrices, each n tokens by d channels."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        shapes = {self.q.shape, self.k.shape, self.v.shape}
        if len(shapes) != 1 or self.q.ndim != 2:
            raise ValueError(f"Q, K, V must share one 2D shape, got {shapes}")
        n, d = self.q.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got ({n}, {d})")
        for name, m in (("Q", self.q), ("K", self.k), ("V", self.v)):
            if not np.isfinite(m).all():
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def n(self) -> int:
        return self.q.shape[0]

    @property
    def d(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True)
class AttentionOutput:
    out: np.ndarray
    flops: int


@dataclass(frozen=True)
class AttentionGradients:
    dq: np.ndarray
    dk: np.ndarray
    dv: np.ndarray


def _as_float(m: np.ndarray) -> np.ndarray:
    # float32 stays float32 (benchmark path); everything else goes to float64.
    m = np.asarray(m)
    return m if m.dtype == np.float32 else m.astype(np.float64, copy=False)


def _softmax(m: np.ndarray, axis: int, out=None) -> np.ndarray:
    # One full-size allocation (the max subtraction) unless `out` is given; exp
    # and the division then run in place on it, so only `out` is ever modified.
    m = _as_float(m)
    e = np.subtract(m, m.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Softmax along each row, stabilized by per-row max subtraction."""
    return _softmax(m, 1)


def softmax_cols(m: np.ndarray) -> np.ndarray:
    """Softmax along each column, stabilized by per-column max subtraction."""
    return _softmax(m, 0)


def attention_cost(n: int, d: int, variant: str) -> int:
    """Closed-form multiply-accumulate count for one kernel invocation.

    Quadratic: n*n*d for the score matrix, n*n exponentials, n*n*d for the
    weighted aggregation. Linear: n*d exponentials per softmax, n*d*d for
    K^T V, n*d*d for the outer product with the row-softmaxed queries.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got ({n}, {d})")
    if variant == "quadratic":
        return 2 * n * n * d + n * n
    if variant == "linear":
        return 2 * n * d * d + 2 * n * d
    raise ValueError(f"unknown variant {variant!r}")


# Queries are softmaxed and multiplied in blocks of this many weights (1 MB
# in float32), a whole number of rows each, so no n-row weight matrix is held.
_BLOCK_ELEMENTS = 2**18


def _row_blocks(weights, q: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``weights(q) @ values``, in blocks of `_BLOCK_ELEMENTS // len(values)` rows of q.

    A weight row depends on its own query alone, so the result, dtype included,
    is the whole-matrix product to rounding (bit for bit in most shapes).
    """
    rows = max(1, _BLOCK_ELEMENTS // len(values))
    out = np.empty((len(q), values.shape[1]), np.result_type(weights(q[:0]), values))
    for start in range(0, len(q), rows):
        block = slice(start, start + rows)
        np.matmul(weights(q[block]), values, out=out[block])
    return out


def quadratic_attention(t: AttentionTensors) -> AttentionOutput:
    """Reference attention with scaled-dot-product softmax similarity."""
    def weights(q_block):
        scores = _as_float(q_block @ t.k.T)
        # A Python float keeps float32 scores in float32 (a numpy float64 scalar
        # would promote them); for float64 it is the same IEEE square root.
        scores /= math.sqrt(t.d)
        return _softmax(scores, 1, out=scores)
    return AttentionOutput(out=_row_blocks(weights, t.q, t.v), flops=attention_cost(t.n, t.d, "quadratic"))


def linear_attention(t: AttentionTensors) -> AttentionOutput:
    """Separable attention evaluated in the factored (d x d) order."""
    context = softmax_cols(t.k).T @ t.v
    return AttentionOutput(out=_row_blocks(softmax_rows, t.q, context), flops=attention_cost(t.n, t.d, "linear"))


def linear_attention_weights(t: AttentionTensors) -> np.ndarray:
    """Explicit n x n weight matrix implied by the separable similarity.

    Every row sums to 1; used for verification only, never for the fast path.
    """
    return softmax_rows(t.q) @ softmax_cols(t.k).T


def linear_attention_backward(t: AttentionTensors, upstream: np.ndarray) -> AttentionGradients:
    """Analytic gradients of sum(upstream * linear_attention(t).out).

    Chain rule through the two matmuls and both softmaxes. With
    A = softmax_rows(Q), B = softmax_cols(K), C = B^T V, out = A C:
    the softmax Jacobian contracts to a * (g - <g, a>) along the
    softmaxed axis.
    """
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != t.q.shape:
        raise ValueError(f"upstream shape {upstream.shape} != {t.q.shape}")
    if not np.isfinite(upstream).all():
        raise ValueError("upstream contains non-finite entries")

    a = softmax_rows(t.q)
    b = softmax_cols(t.k)
    context = b.T @ t.v

    d_context = a.T @ upstream
    da = upstream @ context.T
    dv = b @ d_context
    db = t.v @ d_context.T

    dq = a * (da - (da * a).sum(axis=1, keepdims=True))
    dk = b * (db - (db * b).sum(axis=0, keepdims=True))
    return AttentionGradients(dq=dq, dk=dk, dv=dv)


def check_properties(n: int, d: int, seed: int, trials: int) -> list[tuple[str, float, float]]:
    """The attention property suite on ``trials`` random float64 instances.

    Each instance has between 1 and n tokens and 1 and d channels, drawn from
    ``seed``. Returns one (name, max_error, tolerance) per property: weight
    rows sum to one, factored equals unfactored, permutation equivariance,
    both kernels' outputs inside the values' convex hull, and the analytic
    gradient against central finite differences on an up-to-8x4 sub-instance.
    Raises ValueError, before drawing anything, unless n, d and trials are all
    >= 1, seed >= 0 and n <= 4096, where the n x n unfactored weights stay small.
    """
    if min(n, d, trials) < 1:
        raise ValueError(f"need n, d and trials >= 1, got n={n}, d={d} and trials={trials}")
    if n > 4096:
        raise ValueError(f"n={n} is above 4096, the cap for unfactored comparisons")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got seed={seed}")
    rng = np.random.default_rng(seed)
    err_rowsum = err_factored = err_perm = err_hull = err_grad = 0.0
    for _ in range(trials):
        nn = int(rng.integers(1, n + 1))
        dd = int(rng.integers(1, d + 1))
        t = AttentionTensors(
            q=rng.standard_normal((nn, dd)),
            k=rng.standard_normal((nn, dd)),
            v=rng.standard_normal((nn, dd)),
        )
        weights = linear_attention_weights(t)
        err_rowsum = max(err_rowsum, float(np.abs(weights.sum(axis=1) - 1.0).max()))

        out = linear_attention(t).out
        err_factored = max(err_factored, float(np.abs(out - weights @ t.v).max()))

        perm = rng.permutation(nn)
        t_perm = AttentionTensors(q=t.q[perm], k=t.k[perm], v=t.v[perm])
        err_perm = max(err_perm, float(np.abs(linear_attention(t_perm).out - out[perm]).max()))

        for o in (out, quadratic_attention(t).out):
            over = np.maximum(o - t.v.max(axis=0), 0).max()
            under = np.maximum(t.v.min(axis=0) - o, 0).max()
            err_hull = max(err_hull, float(over), float(under))

        ng, dg = min(nn, 8), min(dd, 4)
        tg = AttentionTensors(q=t.q[:ng, :dg], k=t.k[:ng, :dg], v=t.v[:ng, :dg])
        upstream = rng.standard_normal((ng, dg))
        grads = linear_attention_backward(tg, upstream)
        step = 1e-5
        for analytic, attr in ((grads.dq, "q"), (grads.dk, "k"), (grads.dv, "v")):
            numeric = np.zeros_like(analytic)
            for idx in np.ndindex(analytic.shape):
                for sign in (1, -1):
                    pert = {key: getattr(tg, key).copy() for key in "qkv"}
                    pert[attr][idx] += sign * step
                    val = float((upstream * linear_attention(AttentionTensors(**pert)).out).sum())
                    numeric[idx] += sign * val
                numeric[idx] /= 2 * step
            scale = max(float(np.abs(numeric).max()), 1.0)
            err_grad = max(err_grad, float(np.abs(analytic - numeric).max()) / scale)

    return [
        ("weight_rows_sum_to_one", err_rowsum, 1e-9),
        ("factored_equals_unfactored", err_factored, 1e-12),
        ("permutation_equivariance", err_perm, 1e-12),
        ("output_in_value_convex_hull", err_hull, 1e-9),
        ("analytic_gradient_vs_finite_difference", err_grad, 1e-5),
    ]


_KERNELS = {"quadratic": quadratic_attention, "linear": linear_attention}


def _openblas_thread_apis() -> list:
    """(get, set) thread-count functions of every OpenBLAS loaded in this process.

    Looks the libraries up in /proc/self/maps and their symbols under the
    names plain and scipy-openblas builds export; empty elsewhere.
    """
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return []
    apis = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    apis.append((get, put))
    return apis


@contextlib.contextmanager
def _openblas_single_thread():
    """Pin every loaded OpenBLAS to one thread for the block; other BLAS libraries run unpinned.

    Unpinned, numpy's OpenBLAS hands even small products to worker threads;
    on a shared 2-vCPU VM their wake-up after an idle spell made the first
    one to two seconds of timings 40x slower, which skews fitted slopes.
    """
    saved = [(put, get()) for get, put in _openblas_thread_apis()]
    for put, _ in saved:
        put(1)
    try:
        yield
    finally:
        for put, threads in saved:
            put(threads)


def bench_attention(n_list, d: int, repeats: int, seed: int = 0, variants=None) -> list[dict]:
    """Time the kernels over a range of token counts.

    Returns one row per (n, variant), in `n_list` order, with the median wall
    time of `repeats` invocations in float32, single-threaded where the BLAS is
    OpenBLAS (verification stays in float64; benchmarking uses the cheaper
    dtype); both kernels keep float32 inputs in float32 throughout, scaling and
    softmax included. Q, K and V are float32 standard normals drawn once from
    `seed` at the largest n; each smaller n times the leading n rows of that
    draw, which are C-contiguous views, not copies. `variants` restricts which
    kernels run. Raises ValueError, before drawing anything, on an empty
    `n_list`, an n or d below 1, a repeated n (it would time, and fit a slope
    through, one point twice), repeats below 3, a negative seed or an unknown
    variant.
    """
    n_list = list(n_list)
    if not n_list or min(n_list) < 1 or d < 1:
        raise ValueError(f"need a non-empty n_list of n >= 1 and d >= 1, got {n_list} and {d}")
    if len(set(n_list)) != len(n_list):
        raise ValueError(f"n_list {n_list} repeats a token count; a slope needs distinct n")
    if repeats < 3:
        raise ValueError(f"need repeats >= 3 for a stable median, got {repeats}")
    if seed < 0:
        raise ValueError(f"need seed >= 0, got seed={seed}")
    if variants is None:
        variants = tuple(_KERNELS)
    unknown = set(variants) - set(_KERNELS)
    if unknown:
        raise ValueError(f"unknown variants {sorted(unknown)!r}")
    rng = np.random.default_rng(seed)
    q, k, v = (rng.standard_normal((max(n_list), d), dtype=np.float32) for _ in "qkv")
    rows = []
    with _openblas_single_thread():
        for n in n_list:
            t = AttentionTensors(q=q[:n], k=k[:n], v=v[:n])
            for variant in variants:
                kernel = _KERNELS[variant]
                times = []
                for _ in range(repeats):
                    t0 = time.perf_counter()
                    kernel(t)
                    times.append(time.perf_counter() - t0)
                rows.append(
                    {
                        "n": int(n),
                        "d": int(d),
                        "variant": variant,
                        "median_seconds": float(np.median(times)),
                        "flops": attention_cost(n, d, variant),
                    }
                )
    return rows


def fit_loglog_slope(ns, times) -> float:
    """Least-squares slope of log(time) against log(n); needs two or more distinct n."""
    ns = np.asarray(ns, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if len(np.unique(ns)) < 2:
        raise ValueError(f"need at least two distinct n to fit a slope, got {ns.tolist()}")
    slope, _ = np.polyfit(np.log(ns), np.log(times), 1)
    return float(slope)

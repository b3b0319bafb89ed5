"""Linear-complexity self-attention kernel with a quadratic reference.

The quadratic kernel computes ``out_i = sum_j softmax_j(Q_i.K_j/sqrt(d)) V_j``.
The linear kernel replaces the similarity with a separable form,
``softmax_rows(Q) @ (softmax_cols(K).T @ V)``, evaluated in the factored
order so the intermediate is d x d instead of n x n. Both kernels report a
multiply-accumulate count so the cost model can be checked against the code
that actually ran.
"""

from __future__ import annotations

import contextlib
import ctypes
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


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Softmax along each row, stabilized by per-row max subtraction."""
    m = _as_float(m)
    e = np.exp(m - m.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_cols(m: np.ndarray) -> np.ndarray:
    """Softmax along each column, stabilized by per-column max subtraction."""
    m = _as_float(m)
    e = np.exp(m - m.max(axis=0, keepdims=True))
    return e / e.sum(axis=0, keepdims=True)


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


def quadratic_attention(t: AttentionTensors) -> AttentionOutput:
    """Reference attention with scaled-dot-product softmax similarity."""
    scores = (t.q @ t.k.T) / np.sqrt(t.d)
    weights = softmax_rows(scores)
    return AttentionOutput(out=weights @ t.v, flops=attention_cost(t.n, t.d, "quadratic"))


def linear_attention(t: AttentionTensors) -> AttentionOutput:
    """Separable attention evaluated in the factored (d x d) order."""
    context = softmax_cols(t.k).T @ t.v
    return AttentionOutput(out=softmax_rows(t.q) @ context, flops=attention_cost(t.n, t.d, "linear"))


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


def flatten_feature_map(vol: np.ndarray) -> np.ndarray:
    """Flatten a D x H x W x C feature map into an n x C token matrix.

    Token order is first-axis-fastest: token index = x + D*(y + H*z), so
    token 0 is voxel (0, 0, 0).
    """
    vol = np.asarray(vol)
    if vol.ndim != 4 or min(vol.shape) < 1:
        raise ValueError(f"expected non-degenerate 4D feature map, got shape {vol.shape}")
    nd, nh, nw, nc = vol.shape
    return vol.transpose(2, 1, 0, 3).reshape(nd * nh * nw, nc)


def unflatten_tokens(tokens: np.ndarray, spatial_dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`flatten_feature_map`."""
    nd, nh, nw = spatial_dims
    n, nc = tokens.shape
    if n != nd * nh * nw:
        raise ValueError(f"{n} tokens cannot fill dims {spatial_dims}")
    return tokens.reshape(nw, nh, nd, nc).transpose(2, 1, 0, 3)


_KERNELS = {"quadratic": quadratic_attention, "linear": linear_attention}


def _limit_blas_threads():
    try:
        from threadpoolctl import threadpool_limits

        return threadpool_limits(limits=1)
    except ImportError:
        return _openblas_single_thread()


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
    """Pin OpenBLAS to one thread for the block when threadpoolctl is absent.

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

    Returns one row per (n, variant) with the median wall time of `repeats`
    single-threaded invocations in float32 (verification stays in float64;
    benchmarking uses the cheaper dtype). `variants` restricts which kernels
    run; the quadratic one needs an n-by-n intermediate, so skip it for
    token counts where that matrix would not fit in memory.
    """
    if repeats < 3:
        raise ValueError("need repeats >= 3 for a stable median")
    if variants is None:
        variants = tuple(_KERNELS)
    unknown = set(variants) - set(_KERNELS)
    if unknown:
        raise ValueError(f"unknown variants {sorted(unknown)!r}")
    rng = np.random.default_rng(seed)
    rows = []
    with _limit_blas_threads():
        for n in n_list:
            q = rng.standard_normal((n, d)).astype(np.float32)
            k = rng.standard_normal((n, d)).astype(np.float32)
            v = rng.standard_normal((n, d)).astype(np.float32)
            t = AttentionTensors(q=q, k=k, v=v)
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
    """Least-squares slope of log(time) against log(n)."""
    ns = np.asarray(ns, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    if len(ns) < 2:
        raise ValueError("need at least two points to fit a slope")
    slope, _ = np.polyfit(np.log(ns), np.log(times), 1)
    return float(slope)

import math
import tracemalloc

import numpy as np
import pytest

from oracles import naive_quadratic_attention, numeric_attention_gradients, unfactored_linear_attention
from volkit import linattn
from volkit.linattn import (
    AttentionTensors,
    attention_cost,
    bench_attention,
    fit_loglog_slope,
    linear_attention,
    linear_attention_backward,
    linear_attention_weights,
    quadratic_attention,
    softmax_cols,
    softmax_rows,
)


def random_tensors(rng, n, d):
    return AttentionTensors(
        q=rng.standard_normal((n, d)),
        k=rng.standard_normal((n, d)),
        v=rng.standard_normal((n, d)),
    )


class TestSoftmax:
    def test_single_element(self):
        assert softmax_rows(np.array([[3.7]]))[0, 0] == 1.0
        assert softmax_cols(np.array([[3.7]]))[0, 0] == 1.0

    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]])
        np.testing.assert_allclose(softmax_cols(np.array([[0.0], [0.0]])), [[0.5], [0.5]])

    def test_hand_value(self):
        out = softmax_rows(np.array([[0.0, math.log(3.0)]]))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-15)

    def test_rows_sum_to_one_and_range(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 5)) * 50
        out = softmax_rows(m)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert ((out > 0) & (out < 1)).all()

    def test_cols_is_transposed_rows(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((6, 4))
        np.testing.assert_allclose(softmax_cols(m), softmax_rows(m.T).T, atol=1e-15)

    def test_stability_at_large_magnitudes(self):
        out = softmax_rows(np.array([[1000.0, 1000.0, -1000.0]]))
        np.testing.assert_allclose(out, [[0.5, 0.5, 0.0]], atol=1e-200)


class TestQuadraticAttention:
    def test_n_equals_one_returns_v(self):
        rng = np.random.default_rng(2)
        t = random_tensors(rng, 1, 4)
        np.testing.assert_allclose(quadratic_attention(t).out, t.v, atol=1e-15)

    def test_identical_keys_give_column_mean(self):
        rng = np.random.default_rng(3)
        k_row = rng.standard_normal(3)
        t = AttentionTensors(
            q=rng.standard_normal((5, 3)),
            k=np.tile(k_row, (5, 1)),
            v=rng.standard_normal((5, 3)),
        )
        expected = np.tile(t.v.mean(axis=0), (5, 1))
        np.testing.assert_allclose(quadratic_attention(t).out, expected, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        t = random_tensors(rng, 5, 3)
        np.testing.assert_allclose(
            quadratic_attention(t).out, naive_quadratic_attention(t.q, t.k, t.v), atol=1e-12
        )


class TestLinearAttention:
    def test_n_equals_one_returns_v(self):
        rng = np.random.default_rng(5)
        t = random_tensors(rng, 1, 6)
        np.testing.assert_allclose(linear_attention(t).out, t.v, atol=1e-14)
        np.testing.assert_allclose(
            linear_attention(t).out, unfactored_linear_attention(t.q, t.k, t.v), atol=1e-14
        )

    def test_factored_equals_unfactored(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 65))
            d = int(rng.integers(1, 17))
            t = random_tensors(rng, n, d)
            np.testing.assert_allclose(
                linear_attention(t).out, unfactored_linear_attention(t.q, t.k, t.v), atol=1e-12
            )

    def test_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = random_tensors(rng, int(rng.integers(1, 65)), int(rng.integers(1, 17)))
            w = linear_attention_weights(t)
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_convex_hull_bound(self):
        rng = np.random.default_rng(8)
        for kernel in (linear_attention, quadratic_attention):
            t = random_tensors(rng, 12, 5)
            out = kernel(t).out
            assert (out <= t.v.max(axis=0) + 1e-12).all()
            assert (out >= t.v.min(axis=0) - 1e-12).all()

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        t = random_tensors(rng, 10, 4)
        perm = rng.permutation(10)
        tp = AttentionTensors(q=t.q[perm], k=t.k[perm], v=t.v[perm])
        for kernel in (linear_attention, quadratic_attention):
            np.testing.assert_allclose(kernel(tp).out, kernel(t).out[perm], atol=1e-12)


# Straightforward forms of the kernels, one temporary per op: the float64
# results of the in-place kernels must match them bit for bit.
def _reference_softmax(m, axis):
    e = np.exp(m - m.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _reference_quadratic(q, k, v):
    scores = (q @ k.T) / np.sqrt(q.shape[1])
    return _reference_softmax(scores, 1) @ v


def _reference_linear(q, k, v):
    return _reference_softmax(q, 1) @ (_reference_softmax(k, 0).T @ v)


class TestInPlaceKernels:
    SHAPES = [(1, 1), (2, 3), (7, 5), (33, 16), (64, 7), (50, 12), (17, 64)]

    @pytest.mark.parametrize("n,d", SHAPES)
    def test_float64_bit_identical_to_reference(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        t = random_tensors(rng, n, d)
        m = rng.standard_normal((n, d)) * 20
        assert np.array_equal(softmax_rows(m), _reference_softmax(m, 1))
        assert np.array_equal(softmax_cols(m), _reference_softmax(m, 0))
        assert np.array_equal(quadratic_attention(t).out, _reference_quadratic(t.q, t.k, t.v))
        assert np.array_equal(linear_attention(t).out, _reference_linear(t.q, t.k, t.v))

    def test_integer_inputs_run_in_float64(self):
        rng = np.random.default_rng(10)
        q, k, v = (rng.integers(-3, 4, size=(6, 5)) for _ in range(3))
        t = AttentionTensors(q=q, k=k, v=v)
        assert np.array_equal(quadratic_attention(t).out, _reference_quadratic(q, k, v))
        assert np.array_equal(linear_attention(t).out, _reference_linear(q, k, v))

    @pytest.mark.parametrize("kernel", [quadratic_attention, linear_attention])
    def test_float32_stays_float32(self, kernel):
        rng = np.random.default_rng(11)
        t = random_tensors(rng, 256, 12)
        t32 = AttentionTensors(*(m.astype(np.float32) for m in (t.q, t.k, t.v)))
        same_values = AttentionTensors(*(m.astype(np.float64) for m in (t32.q, t32.k, t32.v)))
        out32 = kernel(t32).out
        assert out32.dtype == np.float32
        np.testing.assert_allclose(out32, kernel(same_values).out, rtol=0, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("softmax", [softmax_rows, softmax_cols])
    def test_softmax_leaves_argument_unchanged(self, softmax, dtype):
        m = np.random.default_rng(12).standard_normal((9, 4)).astype(dtype)
        before = m.copy()
        out = softmax(m)
        assert out.dtype == dtype
        assert np.array_equal(m, before)


class TestRowBlocks:
    """linear_attention softmaxes and multiplies the queries one row block at a time."""

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(linattn, "_BLOCK_ELEMENTS", 2**14)

    @staticmethod
    def _peak_over_inputs(t):
        tracemalloc.start()
        try:
            linear_attention(t)
            return tracemalloc.get_traced_memory()[1] / t.q.nbytes
        finally:
            tracemalloc.stop()

    @staticmethod
    def _many_blocks(rng, d, dtype):
        # 16 full blocks and a ragged last one
        rows = linattn._BLOCK_ELEMENTS // d
        n = 16 * rows + rows // 3
        return AttentionTensors(*(rng.standard_normal((n, d)).astype(dtype) for _ in "qkv"))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_peak_is_one_output_and_a_block(self, small_blocks, dtype):
        t = self._many_blocks(np.random.default_rng(20), 16, dtype)
        assert self._peak_over_inputs(t) <= 1.25

    def test_peak_at_the_benchmark_shape(self):
        # the module's own block size, float32 at d = 64 as attn-bench runs it
        t = self._many_blocks(np.random.default_rng(21), 64, np.float32)
        assert self._peak_over_inputs(t) <= 1.25

    @pytest.mark.parametrize("last", ["full", "one_row", "ragged"])
    @pytest.mark.parametrize("d", [7, 16, 64])
    def test_equals_whole_matrix_expression(self, small_blocks, d, last):
        rows = linattn._BLOCK_ELEMENTS // d
        n = 5 * rows + {"full": 0, "one_row": 1, "ragged": rows // 3}[last]
        t = random_tensors(np.random.default_rng(n + d), n, d)
        want = softmax_rows(t.q) @ (softmax_cols(t.k).T @ t.v)
        np.testing.assert_allclose(linear_attention(t).out, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("dtypes", [
        (np.float64, np.float32, np.float32),
        (np.float32, np.float64, np.float64),
        (np.float32, np.float32, np.int64),
        (np.float16, np.float32, np.float32),
    ])
    def test_mixed_dtypes_keep_the_whole_matrix_dtype(self, small_blocks, dtypes):
        rng = np.random.default_rng(22)
        q, k, v = (rng.standard_normal((500, 6)).astype(dt) for dt in dtypes)
        want = softmax_rows(q) @ (softmax_cols(k).T @ v)
        got = linear_attention(AttentionTensors(q=q, k=k, v=v)).out
        assert got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=1e-6)


class TestTensorValidation:
    @pytest.mark.parametrize("shapes", [((4, 3), (4, 3), (4, 2)), ((4, 3), (5, 3), (4, 3)), ((4,), (4,), (4,))])
    def test_shapes_must_match_and_be_2d(self, shapes):
        q, k, v = (np.zeros(s) for s in shapes)
        with pytest.raises(ValueError, match="must share one 2D shape"):
            AttentionTensors(q=q, k=k, v=v)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
    def test_n_and_d_at_least_one(self, shape):
        with pytest.raises(ValueError, match="need n >= 1 and d >= 1"):
            AttentionTensors(q=np.zeros(shape), k=np.zeros(shape), v=np.zeros(shape))

    @pytest.mark.parametrize("name", ["q", "k", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, name, bad):
        m = {key: np.zeros((3, 2)) for key in "qkv"}
        m[name][1, 1] = bad
        with pytest.raises(ValueError, match=f"{name.upper()} contains non-finite entries"):
            AttentionTensors(**m)


class TestBackward:
    def test_upstream_validated(self):
        t = random_tensors(np.random.default_rng(9), 4, 3)
        with pytest.raises(ValueError, match="upstream shape"):
            linear_attention_backward(t, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="upstream contains non-finite entries"):
            linear_attention_backward(t, np.full((4, 3), np.nan))

    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(10)
        t = random_tensors(rng, 4, 3)
        g = linear_attention_backward(t, np.zeros((4, 3)))
        assert (g.dq == 0).all() and (g.dk == 0).all() and (g.dv == 0).all()

    def test_dv_linear_in_upstream(self):
        rng = np.random.default_rng(11)
        t = random_tensors(rng, 5, 3)
        u = rng.standard_normal((5, 3))
        g1 = linear_attention_backward(t, u)
        g2 = linear_attention_backward(t, 2.5 * u)
        np.testing.assert_allclose(g2.dv, 2.5 * g1.dv, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        kernel = lambda q, k, v: linear_attention(AttentionTensors(q=q, k=k, v=v)).out
        for _ in range(10):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            t = random_tensors(rng, n, d)
            u = rng.standard_normal((n, d))
            analytic = linear_attention_backward(t, u)
            ndq, ndk, ndv = numeric_attention_gradients(t.q, t.k, t.v, u, kernel)
            for a, nmr in ((analytic.dq, ndq), (analytic.dk, ndk), (analytic.dv, ndv)):
                scale = max(float(np.abs(nmr).max()), 1.0)
                assert np.abs(a - nmr).max() / scale <= 1e-5


class TestCostModel:
    def test_matches_runtime_reported_flops(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            d = int(rng.integers(1, 32))
            t = random_tensors(rng, n, d)
            assert quadratic_attention(t).flops == attention_cost(n, d, "quadratic")
            assert linear_attention(t).flops == attention_cost(n, d, "linear")

    def test_doubling_ratios(self):
        for n in (64, 256, 1024):
            quad_ratio = attention_cost(2 * n, 16, "quadratic") / attention_cost(n, 16, "quadratic")
            lin_ratio = attention_cost(2 * n, 16, "linear") / attention_cost(n, 16, "linear")
            assert 3.5 <= quad_ratio <= 4.5
            assert 1.9 <= lin_ratio <= 2.1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            attention_cost(0, 4, "linear")
        with pytest.raises(ValueError):
            attention_cost(4, 4, "cubic")


class _Drawn(Exception):
    """Raised in place of drawing random inputs."""


def _no_draw(*args, **kwargs):
    raise _Drawn


class TestCheckProperties:
    @pytest.mark.parametrize("n,d,trials", [(0, 4, 2), (8, 0, 2), (8, 4, 0), (-1, 4, 2), (4097, 4, 2)])
    def test_bad_arguments_rejected_before_drawing(self, monkeypatch, n, d, trials):
        monkeypatch.setattr(linattn.np.random, "default_rng", _no_draw)
        with pytest.raises(ValueError, match="4096" if n > 4096 else "trials"):
            linattn.check_properties(n, d, seed=0, trials=trials)

    def test_n_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(linattn.np.random, "default_rng", _no_draw)
        with pytest.raises(_Drawn):
            linattn.check_properties(4096, 1, seed=0, trials=1)


class TestBench:
    def test_rows_and_flops_column(self):
        rows = bench_attention([16, 32], d=4, repeats=3)
        assert len(rows) == 4
        for r in rows:
            assert r["flops"] == attention_cost(r["n"], r["d"], r["variant"])
            assert r["median_seconds"] > 0

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            bench_attention([16], d=4, repeats=2)

    @pytest.mark.parametrize("n_list,d", [([0], 4), ([16, -1], 4), ([], 4), ([16], 0)])
    def test_sizes_validated(self, n_list, d):
        with pytest.raises(ValueError):
            bench_attention(n_list, d=d, repeats=3)

    def test_unknown_variant_rejected_before_drawing(self, monkeypatch):
        monkeypatch.setattr(linattn.np.random, "default_rng", _no_draw)
        with pytest.raises(ValueError, match="unknown variants \\['cubic'\\]"):
            bench_attention([16], d=4, repeats=3, variants=("linear", "cubic"))

    @pytest.mark.parametrize("n_list", [[64, 64], [16, 32, 16]])
    def test_repeated_n_rejected_before_drawing(self, monkeypatch, n_list):
        monkeypatch.setattr(linattn.np.random, "default_rng", _no_draw)
        with pytest.raises(ValueError, match="distinct n"):
            bench_attention(n_list, d=4, repeats=3)

    def test_inputs_are_leading_rows_of_one_float32_draw(self, monkeypatch):
        from volkit import linattn

        seen = []

        def capture(t):
            seen.append(t)
            return linattn.AttentionOutput(out=t.v, flops=0)

        monkeypatch.setitem(linattn._KERNELS, "linear", capture)
        n_list = [24, 8, 40, 16]
        rows = bench_attention(n_list, d=5, repeats=3, seed=7, variants=("linear",))
        assert [r["n"] for r in rows] == n_list
        assert [t.n for t in seen] == [n for n in n_list for _ in range(3)]
        rng = np.random.default_rng(7)
        drawn = [rng.standard_normal((40, 5), dtype=np.float32) for _ in "qkv"]
        largest = seen[6]
        for t in seen:
            for got, full, whole in zip((t.q, t.k, t.v), drawn, (largest.q, largest.k, largest.v)):
                assert got.dtype == np.float32 and got.flags.c_contiguous
                assert np.array_equal(got, full[: t.n])
                assert np.shares_memory(got, whole)

    def test_slope_fit_on_synthetic_times(self):
        ns = [256, 1024, 4096]
        assert fit_loglog_slope(ns, [n**2 * 1e-9 for n in ns]) == pytest.approx(2.0)
        assert fit_loglog_slope(ns, [n * 1e-9 for n in ns]) == pytest.approx(1.0)

    @pytest.mark.parametrize("ns,times", [([64, 64], [1.0, 2.0]), ([64, 64, 64], [1.0, 2.0, 3.0]), ([64], [1.0])])
    def test_slope_needs_two_distinct_n(self, ns, times):
        # polyfit used to return a slope (0.0417 for the first) with only a RankWarning
        with pytest.raises(ValueError, match="two distinct n"):
            fit_loglog_slope(ns, times)

    def test_blas_pinned_to_one_thread_and_restored(self):
        from volkit import linattn

        apis = linattn._openblas_thread_apis()
        if not apis:
            pytest.skip("numpy is not linked against OpenBLAS")
        before = [get() for get, _ in apis]
        with linattn._limit_blas_threads():
            assert [get() for get, _ in apis] == [1] * len(apis)
        assert [get() for get, _ in apis] == before

import math

import numpy as np
import pytest

from oracles import naive_quadratic_attention, numeric_attention_gradients, unfactored_linear_attention
from volkit.linattn import (
    AttentionTensors,
    attention_cost,
    bench_attention,
    fit_loglog_slope,
    flatten_feature_map,
    linear_attention,
    linear_attention_backward,
    linear_attention_weights,
    quadratic_attention,
    softmax_cols,
    softmax_rows,
    unflatten_tokens,
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


class TestBackward:
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


class TestFeatureMapAdapter:
    def test_single_voxel(self):
        vol = np.arange(5.0).reshape(1, 1, 1, 5)
        tokens = flatten_feature_map(vol)
        assert tokens.shape == (1, 5)
        np.testing.assert_array_equal(tokens[0], vol[0, 0, 0])

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        vol = rng.standard_normal((3, 4, 2, 6))
        tokens = flatten_feature_map(vol)
        np.testing.assert_array_equal(unflatten_tokens(tokens, (3, 4, 2)), vol)

    def test_token_order_first_axis_fastest(self):
        vol = np.array([[[[1.0]]], [[[2.0]]]])  # shape (2,1,1,1)
        tokens = flatten_feature_map(vol)
        np.testing.assert_array_equal(tokens, [[1.0], [2.0]])
        vol2 = np.zeros((2, 2, 1, 1))
        vol2[1, 0, 0, 0] = 7.0  # token index x + D*y = 1
        assert flatten_feature_map(vol2)[1, 0] == 7.0


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

    def test_slope_fit_on_synthetic_times(self):
        ns = [256, 1024, 4096]
        assert fit_loglog_slope(ns, [n**2 * 1e-9 for n in ns]) == pytest.approx(2.0)
        assert fit_loglog_slope(ns, [n * 1e-9 for n in ns]) == pytest.approx(1.0)

    def test_blas_pinned_to_one_thread_and_restored(self):
        from volkit import linattn

        apis = linattn._openblas_thread_apis()
        if not apis:
            pytest.skip("numpy is not linked against OpenBLAS")
        before = [get() for get, _ in apis]
        with linattn._limit_blas_threads():
            assert [get() for get, _ in apis] == [1] * len(apis)
        assert [get() for get, _ in apis] == before

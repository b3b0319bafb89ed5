import math
import tracemalloc

import numpy as np
import pytest

from oracles import naive_quadratic_attention, unfactored_linear_attention
from volkit import linattn
from volkit.linattn import (
    AttentionTensors,
    attention_cost,
    bench_attention,
    fit_loglog_slope,
    linear_attention,
    linear_attention_backward,
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

    kernel = staticmethod(linear_attention)

    @pytest.fixture
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(linattn, "_BLOCK_ELEMENTS", 2**14)

    @staticmethod
    def _width(t):
        return t.d

    def _n(self, d, last, full_blocks):
        rows = linattn._BLOCK_ELEMENTS // d
        return full_blocks * rows + {"full": 0, "one_row": 1, "ragged": rows // 3}[last]

    @staticmethod
    def _whole_matrix(q, k, v):
        return softmax_rows(q) @ (softmax_cols(k).T @ v)

    @staticmethod
    def _assert_close(got, want, v, rtol):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0)

    @staticmethod
    def _tensors(rng, n, d, dtype):
        return AttentionTensors(*(rng.standard_normal((n, d)).astype(dtype) for _ in "qkv"))

    def _assert_peak_bound(self, t):
        tracemalloc.start()
        try:
            self.kernel(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Beside the output, one block of weights: the query softmax, or the
        # scores softmaxed in place. On top come numpy's ufunc buffers (the
        # softmax's broadcast subtraction and division run buffered) and the
        # per-row maxima and sums, two each.
        rows = linattn._BLOCK_ELEMENTS // self._width(t)
        elements = linattn._BLOCK_ELEMENTS + 2 * (np.getbufsize() + rows)
        bound = t.q.nbytes + elements * t.q.itemsize
        assert peak <= bound, f"peak {peak / t.q.nbytes:.2f} outputs, bound {bound / t.q.nbytes:.2f}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_peak_is_one_output_and_a_block(self, small_blocks, dtype):
        n = self._n(16, "ragged", full_blocks=16)
        self._assert_peak_bound(self._tensors(np.random.default_rng(20), n, 16, dtype))

    def test_peak_at_the_benchmark_shape(self):
        # the module's own block size, float32 at d = 64 as attn-bench runs it
        n = self._n(64, "ragged", full_blocks=16)
        self._assert_peak_bound(self._tensors(np.random.default_rng(21), n, 64, np.float32))

    @pytest.mark.parametrize("last", ["full", "one_row", "ragged"])
    @pytest.mark.parametrize("d", [7, 16, 64])
    def test_equals_whole_matrix_expression(self, small_blocks, d, last):
        n = self._n(d, last, full_blocks=5)
        t = random_tensors(np.random.default_rng(n + d), n, d)
        self._assert_close(self.kernel(t).out, self._whole_matrix(t.q, t.k, t.v), t.v, rtol=1e-13)

    @pytest.mark.parametrize("dtypes", [
        (np.float64, np.float32, np.float32),
        (np.float32, np.float64, np.float64),
        (np.float32, np.float32, np.int64),
        (np.float16, np.float32, np.float32),
    ])
    def test_mixed_dtypes_keep_the_whole_matrix_dtype(self, small_blocks, dtypes):
        rng = np.random.default_rng(22)
        q, k, v = (rng.standard_normal((500, 6)).astype(dt) for dt in dtypes)
        want = self._whole_matrix(q, k, v)
        got = self.kernel(AttentionTensors(q=q, k=k, v=v)).out
        assert got.dtype == want.dtype
        self._assert_close(got, want, v, rtol=1e-6)


class TestQuadraticRowBlocks(TestRowBlocks):
    """quadratic_attention runs the same block loop over its n-wide scores."""

    kernel = staticmethod(quadratic_attention)

    @staticmethod
    def _width(t):
        return t.n

    def _n(self, d, last, full_blocks):
        # blocks are _BLOCK_ELEMENTS // n rows, so n is picked to match:
        # 10 x 40, 10 x 40 + 1 and 11 x 38 + 12 rows at 2**14 elements
        return {"full": 400, "one_row": 401, "ragged": 430}[last]

    @staticmethod
    def _whole_matrix(q, k, v):
        # _reference_quadratic's expression; its Python-float scale keeps
        # float32 in float32, as the kernel does
        return softmax_rows(q @ k.T / math.sqrt(q.shape[1])) @ v

    @staticmethod
    def _assert_close(got, want, v, rtol):
        # Each output row is a convex combination of V's rows, here a sum of n
        # terms, and a block takes another BLAS path than the whole matrix, so
        # an output that cancels to near zero differs by rounding on the scale
        # of V, not on its own.
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(v).max())

    def test_peak_at_the_benchmark_shape(self):
        # attn-bench's largest quadratic shape in the benchmark, at the
        # module's own block size
        self._assert_peak_bound(self._tensors(np.random.default_rng(21), 4096, 64, np.float32))


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


class TestCostModel:
    def test_matches_runtime_reported_flops(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            d = int(rng.integers(1, 32))
            t = random_tensors(rng, n, d)
            assert quadratic_attention(t).flops == attention_cost(n, d, "quadratic")
            assert linear_attention(t).flops == attention_cost(n, d, "linear")

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

    def test_negative_seed_rejected_before_drawing(self, monkeypatch):
        monkeypatch.setattr(linattn.np.random, "default_rng", _no_draw)
        with pytest.raises(ValueError, match="seed"):
            linattn.check_properties(8, 4, seed=-1, trials=2)

    def test_n_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(linattn.np.random, "default_rng", _no_draw)
        with pytest.raises(_Drawn):
            linattn.check_properties(4096, 1, seed=0, trials=1)

    def test_each_instance_is_run_once(self, monkeypatch):
        runs = []  # keeps every argument alive, so no freed instance's id is reused

        def recording(t):
            runs.append(t)
            return linear_attention(t)

        monkeypatch.setattr(linattn, "linear_attention", recording)
        linattn.check_properties(64, 16, seed=3, trials=1)
        rng = np.random.default_rng(3)
        nn, dd = int(rng.integers(1, 65)), int(rng.integers(1, 17))
        # the drawn instance, its permutation, and a +/- step pair per entry of the 3 sub-instance matrices
        assert runs[0].q.shape == (nn, dd) and len(runs) == 2 + 3 * 2 * min(nn, 8) * min(dd, 4)
        assert len({id(t) for t in runs}) == len(runs)


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

    def test_negative_seed_rejected_before_drawing(self, monkeypatch):
        monkeypatch.setattr(linattn.np.random, "default_rng", _no_draw)
        with pytest.raises(ValueError, match="seed"):
            bench_attention([16], d=4, repeats=3, seed=-1)

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
        with linattn._openblas_single_thread():
            assert [get() for get, _ in apis] == [1] * len(apis)
        assert [get() for get, _ in apis] == before

    def test_bench_attention_runs_kernels_pinned_and_restores(self, monkeypatch):
        from volkit import linattn

        apis = linattn._openblas_thread_apis()
        if not apis:
            pytest.skip("numpy is not linked against OpenBLAS")
        before = [get() for get, _ in apis]
        seen = []

        def recording_kernel(t):
            seen.append([get() for get, _ in apis])
            return linear_attention(t)

        monkeypatch.setitem(linattn._KERNELS, "linear", recording_kernel)
        bench_attention([8, 16], d=4, repeats=3, variants=("linear",))
        assert seen == [[1] * len(apis)] * 6
        assert [get() for get, _ in apis] == before

    @pytest.mark.parametrize("missing", ["maps", "library"])
    def test_no_openblas_found_leaves_the_bench_running(self, monkeypatch, missing):
        def fail(path, *args, **kwargs):
            raise OSError(f"cannot open {path}")

        if missing == "maps":  # no /proc/self/maps, e.g. not Linux
            monkeypatch.setattr(linattn, "open", fail, raising=False)
        else:  # an OpenBLAS in the maps that ctypes cannot load
            monkeypatch.setattr(linattn.ctypes, "CDLL", fail)
        assert linattn._openblas_thread_apis() == []
        rows = [(r["n"], r["variant"]) for r in bench_attention([8, 16], 4, 3)]
        assert rows == [(8, "quadratic"), (8, "linear"), (16, "quadratic"), (16, "linear")]

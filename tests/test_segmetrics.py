from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_mask, random_mask, random_nonempty_mask
from oracles import brute_boundary_metrics, brute_edt, brute_surface
from volkit.segmetrics import (
    CaseMetrics,
    ConfusionCounts,
    RegionMetrics,
    UndefinedMetricError,
    boundary_metrics,
    cohen_kappa,
    confusion,
    edt,
    evaluate_case,
    extract_surface,
    region_metrics,
)
from volkit.segmetrics import _check_compatible, _distances_at, _pooled_surface_distances, _surface
from volkit.volbounds import vpe_bounds_from_dice
from volkit.volgrid import BinaryMask, VolumeGrid


def fixture_3x3x1():
    """pred 6 fg, gt 4 fg, overlap 3 -> tp=3, fp=3, fn=1."""
    pred = np.zeros((3, 3, 1))
    gt = np.zeros((3, 3, 1))
    pred[0, :, 0] = 1
    pred[1, :, 0] = 1  # 6 voxels
    gt[1, :, 0] = 1
    gt[2, 0, 0] = 1  # 4 voxels, 3 shared
    return make_mask(pred), make_mask(gt)


class TestConfusion:
    def test_identical(self):
        rng = np.random.default_rng(0)
        m = random_mask(rng, (3, 3, 3), p=10 / 27)
        c = confusion(m, m)
        assert c.fp == c.fn == 0
        assert c.tp == m.foreground_count()
        assert c.total == 27

    def test_both_empty(self):
        m = make_mask(np.zeros((2, 2, 2)))
        c = confusion(m, m)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 0, 0, 8)

    def test_hand_fixture(self):
        pred, gt = fixture_3x3x1()
        c = confusion(pred, gt)
        assert (c.tp, c.fp, c.fn, c.tn) == (3, 3, 1, 2)

    def test_mismatch_errors(self):
        a = make_mask(np.zeros((2, 2, 2)))
        b = make_mask(np.zeros((2, 2, 3)))
        with pytest.raises(ValueError, match="shape"):
            confusion(a, b)
        c = make_mask(np.zeros((2, 2, 2)), spacing=(1, 1, 2))
        with pytest.raises(ValueError, match="spacing"):
            confusion(a, c)

    @pytest.mark.parametrize("ref", [1.0, 0.8, 2.5, 1e-3, 300.0])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_spacing_tolerance_edges(self, ref, axis):
        # relative tolerance 1e-6 of the larger spacing; np.allclose(rtol=1e-6, atol=0) agrees this far from the edge
        base = [0.7, 1.3, 2.0]
        for factor, inside in ((1 + 0.99e-6, True), (1 - 0.99e-6, True), (1 + 1.01e-6, False), (1 - 1.01e-6, False)):
            a_sp, b_sp = list(base), list(base)
            b_sp[axis] = ref
            a_sp[axis] = ref * factor
            a = make_mask(np.zeros((2, 2, 2)), spacing=a_sp)
            b = make_mask(np.zeros((2, 2, 2)), spacing=b_sp)
            assert inside == bool(np.allclose(a.spacing, b.spacing, rtol=1e-6, atol=0.0))
            if inside:
                _check_compatible(a, b)
            else:
                with pytest.raises(ValueError, match="spacing mismatch"):
                    _check_compatible(a, b)

    def test_spacing_tolerance_is_symmetric(self):
        # |x - y| lies above 1e-6 * y but below 1e-6 * x
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = 1
        a = make_mask(data, spacing=(1.000001000112, 1.0, 1.0))
        b = make_mask(data, spacing=(1.000000000112, 1.0, 1.0))
        for check in (_check_compatible, confusion, cohen_kappa):
            assert check(a, b) == check(b, a)


class TestRegionMetrics:
    def test_identical_nonempty(self):
        rm = region_metrics(ConfusionCounts(tp=5, fp=0, fn=0, tn=3))
        assert (rm.dice, rm.jaccard, rm.precision, rm.recall) == (1, 1, 1, 1)

    def test_hand_fixture_values(self):
        rm = region_metrics(ConfusionCounts(tp=3, fp=3, fn=1, tn=2))
        assert rm.dice == pytest.approx(0.6)
        assert rm.jaccard == pytest.approx(3 / 7)
        assert rm.precision == pytest.approx(0.5)
        assert rm.recall == pytest.approx(0.75)

    def test_disjoint_nonempty(self):
        rm = region_metrics(ConfusionCounts(tp=0, fp=4, fn=5, tn=0))
        assert rm.dice == 0 and rm.jaccard == 0
        assert rm.precision == 0 and rm.recall == 0

    def test_empty_conventions(self):
        both_empty = region_metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=8))
        assert both_empty.dice == 1 and both_empty.jaccard == 1
        assert both_empty.precision is None and both_empty.recall is None
        pred_empty = region_metrics(ConfusionCounts(tp=0, fp=0, fn=3, tn=5))
        assert pred_empty.dice == 0
        assert pred_empty.precision is None and pred_empty.recall == 0

    def test_jaccard_dice_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            tp, fp, fn = rng.integers(0, 50, size=3)
            if tp + fp + fn == 0:
                continue
            rm = region_metrics(ConfusionCounts(tp=int(tp), fp=int(fp), fn=int(fn), tn=1))
            assert abs(rm.jaccard - rm.dice / (2 - rm.dice)) <= 1e-12


class TestSurface:
    def test_single_voxel(self):
        data = np.zeros((3, 3, 3))
        data[1, 1, 1] = 1
        surf = extract_surface(make_mask(data))
        np.testing.assert_array_equal(surf, [[1, 1, 1]])

    def test_solid_cube_shell(self):
        data = np.zeros((5, 5, 5))
        data[1:4, 1:4, 1:4] = 1
        surf = extract_surface(make_mask(data))
        assert len(surf) == 26  # all but the center voxel

    def test_full_grid_border(self):
        surf = extract_surface(make_mask(np.ones((3, 3, 3))))
        assert len(surf) == 26

    def test_empty_errors(self):
        with pytest.raises(UndefinedMetricError):
            extract_surface(make_mask(np.zeros((2, 2, 2))))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        # as built, Fortran-ordered as NIfTI volumes load, and stored as float32
        for stored in (np.asarray, np.asfortranarray, lambda d: d.astype(np.float32)):
            for _ in range(20):
                m = random_nonempty_mask(rng, tuple(rng.integers(1, 7, size=3)))
                m = BinaryMask(VolumeGrid(data=stored(m.data), spacing=m.spacing))
                got = {tuple(c) for c in extract_surface(m)}
                want = {tuple(c) for c in brute_surface(m.data)}
                assert got == want


class TestEdt:
    def test_zero_on_surface(self):
        data = np.zeros((4, 4, 4))
        data[1:3, 1:3, 1:3] = 1
        m = make_mask(data)
        field = edt(m)
        for x, y, z in extract_surface(m):
            assert field[x, y, z] == 0.0

    def test_anisotropic_hand_value(self):
        data = np.zeros((1, 1, 5))
        data[0, 0, 0] = 1
        field = edt(make_mask(data, spacing=(1, 1, 2)))
        assert field[0, 0, 4] == pytest.approx(8.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            dims = tuple(rng.integers(2, 17, size=3))
            spacing = tuple(float(s) for s in rng.uniform(0.5, 3.0, size=3))
            m = random_nonempty_mask(rng, dims, spacing)
            np.testing.assert_allclose(edt(m), brute_edt(m.data, spacing), atol=1e-9)


class TestBoundaryMetrics:
    def test_identical_masks(self):
        rng = np.random.default_rng(4)
        m = random_nonempty_mask(rng, (5, 5, 5))
        hd95, assd = boundary_metrics(m, m)
        assert hd95 == 0.0 and assd == 0.0

    def test_offset_single_voxels(self):
        a = np.zeros((1, 1, 6))
        b = np.zeros((1, 1, 6))
        a[0, 0, 0] = 1
        b[0, 0, 4] = 1
        hd95, assd = boundary_metrics(
            make_mask(a, spacing=(1, 1, 2)), make_mask(b, spacing=(1, 1, 2))
        )
        assert hd95 == pytest.approx(8.0)
        assert assd == pytest.approx(8.0)

    def test_empty_mask_is_undefined(self):
        full = make_mask(np.ones((2, 2, 2)))
        empty = make_mask(np.zeros((2, 2, 2)))
        with pytest.raises(UndefinedMetricError):
            boundary_metrics(full, empty)
        with pytest.raises(UndefinedMetricError):
            boundary_metrics(empty, full)

    def test_matches_pairwise_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            dims = tuple(rng.integers(2, 17, size=3))
            spacing = tuple(float(s) for s in rng.uniform(0.5, 3.0, size=3))
            pred = random_nonempty_mask(rng, dims, spacing)
            gt = random_nonempty_mask(rng, dims, spacing)
            got = boundary_metrics(pred, gt)
            want = brute_boundary_metrics(pred.data, gt.data, spacing)
            np.testing.assert_allclose(got, want, atol=1e-9)


def field_path_pooled(pred, gt):
    """Pooled distances read from the two full distance fields of edt().

    ``_surface``'s first value is the distance transform's input, False on the surface.
    """
    return np.concatenate([edt(gt)[~_surface(pred)[0]], edt(pred)[~_surface(gt)[0]]])


@st.composite
def anisotropic_mask_pairs(draw):
    dims = tuple(draw(st.integers(1, 9)) for _ in range(3))
    spacing = tuple(draw(st.sampled_from([0.5, 0.8, 1.0, 1.5, 2.0, 2.5, 0.3125, 0.7])) for _ in range(3))
    masks = []
    for _ in range(2):
        kind = draw(st.sampled_from(["random", "one_voxel", "full", "box"]))
        data = np.zeros(dims, dtype=np.uint8)
        if kind == "random":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            data[...] = rng.random(dims) < draw(st.floats(0.05, 0.95))
            if not data.any():
                data[tuple(d - 1 for d in dims)] = 1
        elif kind == "one_voxel":
            data[tuple(draw(st.integers(0, d - 1)) for d in dims)] = 1
        elif kind == "full":  # every face touches the grid border
            data[...] = 1
        else:  # an axis-aligned box, touching the border when lo is 0 or hi is d
            lo = [draw(st.integers(0, d - 1)) for d in dims]
            hi = [draw(st.integers(a + 1, d)) for a, d in zip(lo, dims)]
            data[tuple(slice(a, b) for a, b in zip(lo, hi))] = 1
        masks.append(make_mask(data, spacing))
    return masks


class TestPooledSurfaceDistances:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(anisotropic_mask_pairs())
    def test_bytes_equal_full_field_path(self, pair):
        pred, gt = pair
        got = _pooled_surface_distances(pred, gt)
        want = field_path_pooled(pred, gt)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def full_grid_surface(mask):
    """The 6-connectivity surface computed over the whole grid, without a bounding box."""
    fg = mask.data.astype(bool)
    padded = np.pad(fg, 1, constant_values=False)
    interior = np.ones_like(fg)
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    return fg & ~interior


@st.composite
def laid_out_mask_pairs(draw):
    pred, gt = draw(anisotropic_mask_pairs())
    if draw(st.booleans()):  # NIfTI volumes load in Fortran order
        pred, gt = (make_mask(np.asfortranarray(m.data), m.spacing) for m in (pred, gt))
    return pred, gt


class TestBoundingBoxSurface:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(laid_out_mask_pairs())
    def test_same_surface_indices_and_distances_as_full_grid(self, pair):
        pred, gt = pair
        for mask in pair:
            want = full_grid_surface(mask)
            field_in, idx = _surface(mask)
            assert field_in.dtype == bool and np.array_equal(field_in, ~want)
            assert field_in.flags.f_contiguous == want.flags.f_contiguous
            assert field_in.flags.c_contiguous == want.flags.c_contiguous
            for got_axis, want_axis in zip(idx, np.nonzero(want)):
                assert np.array_equal(got_axis, want_axis)
        ps, gs = full_grid_surface(pred), full_grid_surface(gt)
        want = np.concatenate([
            _distances_at(~gs, gt.spacing, np.nonzero(ps)),
            _distances_at(~ps, pred.spacing, np.nonzero(gs)),
        ])
        assert _pooled_surface_distances(pred, gt).tobytes() == want.tobytes()

    def test_empty_mask_has_no_surface(self):
        with pytest.raises(UndefinedMetricError):
            _surface(make_mask(np.zeros((3, 4, 5))))


class TestCohenKappa:
    def test_identical_with_both_classes(self):
        rng = np.random.default_rng(6)
        m = random_nonempty_mask(rng, (4, 4, 4))
        assert cohen_kappa(m, m) == pytest.approx(1.0)

    def test_hand_fixture(self):
        # 10 voxels: 4 agree-fg, 4 agree-bg, 1 fg-only-a, 1 fg-only-b
        a = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0]).reshape(10, 1, 1)
        b = np.array([1, 1, 1, 1, 0, 1, 0, 0, 0, 0]).reshape(10, 1, 1)
        assert cohen_kappa(make_mask(a), make_mask(b)) == pytest.approx(0.6)

    def test_complement_balanced(self):
        data = np.zeros((10, 10, 10))
        data[:5] = 1  # exactly half foreground
        m = make_mask(data)
        comp = make_mask(1 - m.data)
        assert cohen_kappa(m, comp) == pytest.approx(-1.0)

    def test_degenerate_undefined(self):
        empty = make_mask(np.zeros((2, 2, 2)))
        with pytest.raises(UndefinedMetricError):
            cohen_kappa(empty, empty)

    def test_kappa_bounded_by_observed_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_mask(rng, (5, 5, 5))
            b = random_mask(rng, (5, 5, 5))
            try:
                k = cohen_kappa(a, b)
            except UndefinedMetricError:
                continue
            p_o = np.count_nonzero(a.data == b.data) / a.data.size
            assert k <= p_o + 1e-12
            assert -1 - 1e-12 <= k <= 1 + 1e-12


def grid_confusion(pred, gt):
    """Confusion counts from the three full-grid masks p & g, p & ~g and ~p & g."""
    p, g = pred.data.astype(bool), gt.data.astype(bool)
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    return ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=p.size - tp - fp - fn)


def grid_kappa(a, b):
    """Cohen's kappa with agreement counted on the full grid ``a == b``."""
    n = a.data.size
    av, bv = a.data.astype(bool), b.data.astype(bool)
    agree = int(np.count_nonzero(av == bv))
    na, nb = int(np.count_nonzero(av)), int(np.count_nonzero(bv))
    chance = na * nb + (n - na) * (n - nb)
    den = n * n - chance
    if den == 0:
        raise UndefinedMetricError("kappa undefined: both raters constant and identical")
    return (agree * n - chance) / den


@st.composite
def typed_mask_pairs(draw):
    """Two same-grid 0/1 masks of one dtype; bool masks (which VolumeGrid does not
    hold) come as stand-ins with the same ``data``, ``dims`` and ``spacing``."""
    dims = tuple(draw(st.integers(1, 7)) for _ in range(3))
    dtype = draw(st.sampled_from(["uint8", "int16", "float32", "float64", "bool"]))
    masks = []
    for _ in range(2):
        kind = draw(st.sampled_from(["random", "empty", "full"]))
        data = np.zeros(dims, dtype=bool)
        if kind == "full":
            data[...] = True
        elif kind == "random":
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            data[...] = rng.random(dims) < draw(st.floats(0.0, 1.0))
        if dtype == "bool":
            masks.append(SimpleNamespace(data=data, dims=dims, spacing=(1.0, 1.0, 1.0)))
        else:
            masks.append(make_mask(data.astype(dtype)))
    return masks


class TestCountsFromThreeTotals:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(typed_mask_pairs())
    def test_same_counts_and_kappa_as_full_grid_masks(self, pair):
        a, b = pair
        assert confusion(a, b) == grid_confusion(a, b)
        try:
            want = grid_kappa(a, b)
        except UndefinedMetricError:
            with pytest.raises(UndefinedMetricError):
                cohen_kappa(a, b)
        else:
            assert cohen_kappa(a, b) == want


class TestEvaluateCase:
    def test_case_record_extends_region_record(self):
        # RegionMetrics' fields come first: the order of cases.csv and the cohort report
        assert issubclass(CaseMetrics, RegionMetrics)
        pred, gt = fixture_3x3x1()
        rm = region_metrics(confusion(pred, gt))
        assert list(vars(evaluate_case(pred, gt)).items())[:4] == list(vars(rm).items())

    def test_perfect_case(self):
        rng = np.random.default_rng(8)
        m = random_nonempty_mask(rng, (5, 5, 5))
        cm = evaluate_case(m, m)
        assert cm.dice == 1 and cm.hd95_mm == 0 and cm.vpe == 0

    def test_composed_fixture(self):
        pred, gt = fixture_3x3x1()
        cm = evaluate_case(pred, gt)
        assert cm.dice == pytest.approx(0.6)
        assert cm.pred_volume_ml == pytest.approx(0.006)
        assert cm.gt_volume_ml == pytest.approx(0.004)
        assert cm.vpe == pytest.approx(0.5)

    def test_disjoint_masks_hd95_from_oracle(self):
        a = np.zeros((6, 1, 1))
        b = np.zeros((6, 1, 1))
        a[0] = 1
        b[5] = 1
        pred, gt = make_mask(a), make_mask(b)
        cm = evaluate_case(pred, gt)
        assert cm.dice == 0
        want_hd95, want_assd = brute_boundary_metrics(pred.data, gt.data, (1, 1, 1))
        assert cm.hd95_mm == pytest.approx(want_hd95)
        assert cm.assd_mm == pytest.approx(want_assd)

    def test_empty_handling(self):
        empty = make_mask(np.zeros((3, 3, 3)))
        full = make_mask(np.ones((3, 3, 3)))
        cm = evaluate_case(empty, full)
        assert cm.dice == 0 and cm.hd95_mm is None and cm.assd_mm is None
        assert cm.vpe == pytest.approx(-1.0)
        cm2 = evaluate_case(full, empty)
        assert cm2.vpe is None


class TestMetricProperties:
    def test_symmetry(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = random_nonempty_mask(rng, (5, 5, 5))
            b = random_nonempty_mask(rng, (5, 5, 5))
            ca, cb = evaluate_case(a, b), evaluate_case(b, a)
            assert ca.dice == pytest.approx(cb.dice)
            assert ca.jaccard == pytest.approx(cb.jaccard)
            assert ca.hd95_mm == pytest.approx(cb.hd95_mm)
            assert ca.assd_mm == pytest.approx(cb.assd_mm)
            assert ca.precision == pytest.approx(cb.recall)
            assert cohen_kappa(a, b) == pytest.approx(cohen_kappa(b, a))

    def test_spacing_scaling(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            data_a = (rng.random((5, 5, 5)) < 0.5).astype(np.uint8)
            data_b = (rng.random((5, 5, 5)) < 0.5).astype(np.uint8)
            if not data_a.any() or not data_b.any():
                continue
            s = 2.5
            base = evaluate_case(make_mask(data_a), make_mask(data_b))
            scaled = evaluate_case(
                make_mask(data_a, spacing=(s, s, s)), make_mask(data_b, spacing=(s, s, s))
            )
            assert scaled.dice == base.dice and scaled.jaccard == base.jaccard
            assert scaled.hd95_mm == pytest.approx(s * base.hd95_mm)
            assert scaled.assd_mm == pytest.approx(s * base.assd_mm)
            assert scaled.gt_volume_ml == pytest.approx(s**3 * base.gt_volume_ml)
            assert cohen_kappa(make_mask(data_a), make_mask(data_b)) == pytest.approx(
                cohen_kappa(make_mask(data_a, spacing=(s, s, s)), make_mask(data_b, spacing=(s, s, s)))
            )

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        inner_a = (rng.random((3, 3, 3)) < 0.6).astype(np.uint8)
        inner_b = (rng.random((3, 3, 3)) < 0.6).astype(np.uint8)
        inner_a[0, 0, 0] = inner_b[1, 1, 1] = 1

        def place(inner, offset):
            data = np.zeros((8, 8, 8), dtype=np.uint8)
            ox, oy, oz = offset
            data[ox : ox + 3, oy : oy + 3, oz : oz + 3] = inner
            return make_mask(data)

        base = evaluate_case(place(inner_a, (0, 0, 0)), place(inner_b, (0, 0, 0)))
        moved = evaluate_case(place(inner_a, (3, 2, 4)), place(inner_b, (3, 2, 4)))
        assert moved.dice == base.dice
        assert moved.hd95_mm == pytest.approx(base.hd95_mm)
        assert moved.assd_mm == pytest.approx(base.assd_mm)
        assert moved.pred_volume_ml == base.pred_volume_ml


class TestMetricIdentities:
    """Identities every metric record must satisfy, on random anisotropic mask pairs."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(anisotropic_mask_pairs())
    def test_jaccard_is_dice_over_two_minus_dice(self, pair):
        m = evaluate_case(*pair)
        assert m.jaccard == pytest.approx(m.dice / (2 - m.dice), rel=1e-12, abs=1e-15)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(anisotropic_mask_pairs())
    def test_boundary_metrics_symmetric_and_match_oracle(self, pair):
        pred, gt = pair
        forward = boundary_metrics(pred, gt)
        np.testing.assert_allclose(boundary_metrics(gt, pred), forward, rtol=1e-12, atol=0)
        np.testing.assert_allclose(forward, brute_boundary_metrics(pred.data, gt.data, pred.spacing),
                                   atol=1e-9)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(anisotropic_mask_pairs())
    def test_vpe_within_bounds_implied_by_dice(self, pair):
        m = evaluate_case(*pair)
        if m.dice > 0:
            b = vpe_bounds_from_dice(m.dice)
            assert b.lower - 1e-12 <= m.vpe <= b.upper + 1e-12

import math

import numpy as np
import pytest

from conftest import run_fresh
from oracles import brute_bound_violations
from volkit import volbounds
from volkit.volbounds import (
    VpeBounds,
    avpe_bound,
    bound_curve,
    verify_bounds_exhaustive,
    verify_bounds_sampled,
    vpe,
    vpe_bounds_from_dice,
)


class TestVpe:
    def test_equal_volumes(self):
        assert vpe(42.0, 42.0) == 0.0

    def test_ten_percent_over(self):
        assert vpe(110.0, 100.0) == pytest.approx(0.10)

    def test_empty_prediction_floor(self):
        assert vpe(0.0, 100.0) == -1.0

    def test_nonpositive_gt_rejected(self):
        with pytest.raises(ValueError):
            vpe(1.0, 0.0)


class TestBoundsFromDice:
    def test_perfect_dice(self):
        b = vpe_bounds_from_dice(1.0)
        assert b.lower == 0.0 and b.upper == 0.0

    def test_half_dice(self):
        b = vpe_bounds_from_dice(0.5)
        assert b.upper == pytest.approx(2.0)
        assert b.lower == pytest.approx(-2.0 / 3.0)


class TestAvpeBound:
    def test_is_the_per_case_upper_bound_at_the_mean_dice(self):
        for d in [*np.linspace(0.001, 1.0, 1000), 1e-300, 5e-324, math.nextafter(1.0, 0.0), 1.0]:
            assert avpe_bound(float(d)).hex() == vpe_bounds_from_dice(float(d)).upper.hex()

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.0000001, math.nan])
    def test_domain_rejected_as_for_the_per_case_bounds(self, bad):
        for bound in (avpe_bound, vpe_bounds_from_dice):
            with pytest.raises(ValueError, match=r"dice must be in \(0, 1\]"):
                bound(bad)

    def test_heterogeneous_cohort_can_exceed_arithmetic_mean_bound(self):
        # The bound is NOT a theorem for arbitrary cohorts: per-case vpes at
        # their upper bounds with very unequal dice break it. The reporting
        # layer flags this instead of assuming it away.
        dices = [1.0, 0.1]
        vpes = [0.0, vpe_bounds_from_dice(0.1).upper]  # both per-case legal
        assert np.mean(np.abs(vpes)) > avpe_bound(float(np.mean(dices)))


def count_triple(pred_bits, gt_bits):
    return pred_bits.bit_count(), gt_bits.bit_count(), (pred_bits & gt_bits).bit_count()


class TestExhaustiveVerification:
    @pytest.fixture
    def narrowed_bounds(self, monkeypatch):
        """Halve ``vpe_bounds_from_dice``'s interval; returns the real function."""
        real = volbounds.vpe_bounds_from_dice

        def narrower(dice):
            b = real(dice)
            return volbounds.VpeBounds(lower=b.lower / 2, upper=b.upper / 2)

        monkeypatch.setattr(volbounds, "vpe_bounds_from_dice", narrower)
        return real

    def test_5x5x5_zero_violations(self):
        assert verify_bounds_exhaustive((5, 5, 5)) == []

    def test_size_cap(self):
        with pytest.raises(ValueError):
            verify_bounds_exhaustive((6, 6, 6))

    def test_negative_voxel_count_is_value_error(self):
        with pytest.raises(ValueError):
            verify_bounds_exhaustive((-3, 3, 1))

    def test_verifiers_check_vpe_bounds_from_dice_itself(self, narrowed_bounds):
        # A narrower interval than the closed forms must show up as violations in
        # both verifiers: they check the function, not a copy of its formula.
        real = narrowed_bounds
        violations = verify_bounds_exhaustive((2, 2, 1))
        assert violations
        for v in violations:
            assert (v.lower, v.upper) == (real(v.dice).lower / 2, real(v.dice).upper / 2)
            assert v.vpe == v.n_pred / v.n_gt - 1
        assert verify_bounds_sampled((4, 4, 4), n_pairs=200, seed=3) > 0

    @pytest.mark.parametrize("grid_dims", [(2, 2, 1), (2, 2, 2), (3, 3, 1)])
    def test_count_triples_flag_what_the_pair_loop_flags(self, narrowed_bounds, grid_dims):
        n_vox = math.prod(grid_dims)
        violations = verify_bounds_exhaustive(grid_dims)
        # one entry per triple, each a triple of two masks on the grid that overlap
        assert all(1 <= v.overlap <= min(v.n_pred, v.n_gt) for v in violations)
        assert all(v.n_pred + v.n_gt - v.overlap <= n_vox for v in violations)
        got = {(v.n_pred, v.n_gt, v.overlap): (v.dice, v.vpe, v.lower, v.upper) for v in violations}
        assert len(got) == len(violations)
        pairs = brute_bound_violations(n_vox, volbounds._outside_bounds)
        assert len(pairs) > len(violations)
        assert got == {count_triple(pred_bits, gt_bits): tuple(bad) for pred_bits, gt_bits, *bad in pairs}


class TestAdmits:
    def test_compares_value_plus_two_at_relative_precision(self):
        b = VpeBounds(lower=-0.5, upper=1.0)  # + 2: 1.5 and 3.0
        assert b.admits(-0.5) and b.admits(1.0) and b.admits(0.25)
        assert not b.admits(1.0 + 1e-9) and not b.admits(-0.5 - 1e-9)
        assert b.admits(1.0 + 5.9e-5, rtol=1e-5) and not b.admits(1.0 + 6.1e-5, rtol=1e-5)
        assert b.admits(-0.5 - 2.9e-5, rtol=1e-5) and not b.admits(-0.5 - 3.1e-5, rtol=1e-5)

    def test_large_ratio_pair_meets_its_bound(self):
        # vpe 99999.0 against an upper bound that computes as 99998.99999999999
        assert volbounds._outside_bounds(100000, 1, 1) is None

    @pytest.mark.parametrize("side,triple", [("upper", (2, 1, 1)), ("lower", (1, 2, 1))])
    def test_flags_a_bound_moved_1e_9_inward(self, monkeypatch, side, triple):
        # nested pairs: gt inside pred meets the upper bound, pred inside gt the lower
        real = volbounds.vpe_bounds_from_dice

        def moved(dice):
            b = real(dice)
            return VpeBounds(lower=b.lower + 1e-9 * (side == "lower"), upper=b.upper - 1e-9 * (side == "upper"))

        assert volbounds._outside_bounds(*triple) is None
        monkeypatch.setattr(volbounds, "vpe_bounds_from_dice", moved)
        assert volbounds._outside_bounds(*triple) is not None


def checked_triples(monkeypatch, verify, *args, **kwargs):
    """The ``(n_pred, n_gt, overlap)`` triples ``verify(*args, **kwargs)`` hands to ``_outside_bounds``."""
    seen = []
    monkeypatch.setattr(volbounds, "_outside_bounds", lambda *triple: seen.append(triple))
    verify(*args, **kwargs)
    return seen


class TestSampledVerification:
    def test_draws_are_count_triples_of_the_grid(self, monkeypatch):
        n_vox = 4 * 3 * 2
        draws = checked_triples(monkeypatch, verify_bounds_sampled, (4, 3, 2), n_pairs=3000, seed=11)
        assert len(draws) == 3000  # every draw is checked, none rejected
        for n_pred, n_gt, overlap in draws:
            assert 1 <= n_pred <= n_vox and 1 <= n_gt <= n_vox
            assert max(1, n_pred + n_gt - n_vox) <= overlap <= min(n_pred, n_gt)

    def test_same_seed_same_draws(self, monkeypatch):
        first, again, other = (checked_triples(monkeypatch, verify_bounds_sampled, (5, 5, 5), 500, seed=seed)
                               for seed in (7, 7, 8))
        assert first == again and first != other

    def test_draws_reach_every_triple_the_exhaustive_verifier_visits(self, monkeypatch):
        every = checked_triples(monkeypatch, verify_bounds_exhaustive, (2, 2, 1))
        drawn = checked_triples(monkeypatch, verify_bounds_sampled, (2, 2, 1), n_pairs=3000, seed=0)
        assert len(every) == len(set(every))
        assert set(drawn) == set(every)

    def test_empty_grid_has_no_violations(self):
        assert verify_bounds_sampled((0, 4, 4), n_pairs=100) == 0

    @pytest.mark.parametrize("grid_dims,n_pairs", [((-3, 3, 1), 10), ((3, 3, 1), -1)])
    def test_negative_size_is_value_error(self, grid_dims, n_pairs):
        with pytest.raises(ValueError):
            verify_bounds_sampled(grid_dims, n_pairs)

    def test_verifiers_leave_numpy_unloaded(self):
        code = (
            "import sys\n"
            "from volkit.volbounds import verify_bounds_exhaustive, verify_bounds_sampled\n"
            "assert verify_bounds_exhaustive((5, 5, 5)) == []\n"
            "assert verify_bounds_sampled((8, 8, 8), n_pairs=10_000, seed=105) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
        )
        result = run_fresh(code, timeout=120)
        assert result.returncode == 0, result.stderr


class TestBoundCurve:
    def test_single_perfect_row(self):
        rows = bound_curve([1.0])
        assert rows == [
            {"dice": 1.0, "vpe_lower": 0.0, "vpe_upper": 0.0, "abs_lower": 0.0, "abs_upper": 0.0}
        ]

    def test_surgical_planning_anchor(self):
        (row,) = bound_curve([0.96])
        assert row["vpe_upper"] == pytest.approx(0.08333, abs=1e-5)
        assert row["abs_lower"] == pytest.approx(0.0769, abs=1e-4)

    def test_monotonicity(self):
        grid = np.linspace(0.2, 1.0, 50)
        rows = bound_curve(grid)
        uppers = [r["vpe_upper"] for r in rows]
        lowers = [r["vpe_lower"] for r in rows]
        assert all(a > b for a, b in zip(uppers, uppers[1:]))
        assert all(a < b for a, b in zip(lowers, lowers[1:]))

import math
from dataclasses import dataclass

import numpy as np
import pytest

from oracles import t_two_sided_p_quadrature
from volkit.cohortstats import (
    cohort_report,
    linear_fit,
    paired_t_test,
    summarize,
    summarize_fields,
    t_two_sided_p,
)
from volkit.segmetrics import CaseMetrics
from volkit.volbounds import vpe_bounds_from_dice


def simple_case(dice=1.0, vpe=0.0, **overrides):
    fields = dict(
        dice=dice,
        jaccard=dice / (2 - dice),
        precision=1.0,
        recall=1.0,
        hd95_mm=0.0,
        assd_mm=0.0,
        pred_volume_ml=1.0 + (vpe or 0.0),
        gt_volume_ml=1.0,
        vpe=vpe,
    )
    fields.update(overrides)
    return CaseMetrics(**fields)


class TestSummarize:
    def test_single_value(self):
        s = summarize([5.0])
        assert (s.mean, s.std, s.median, s.n) == (5.0, 0.0, 5.0, 1)

    def test_hand_values(self):
        s = summarize([1, 2, 3, 4])
        assert s.mean == 2.5
        assert s.std == pytest.approx(1.29099, abs=1e-5)
        assert s.median == 2.5

    def test_shift_property(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(25)
        s0 = summarize(vals)
        s1 = summarize(vals + 10.0)
        assert s1.mean == pytest.approx(s0.mean + 10.0)
        assert s1.median == pytest.approx(s0.median + 10.0)
        assert s1.std == pytest.approx(s0.std)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="values must be finite"):
            summarize([1.0, bad])


@dataclass(frozen=True)
class Rated:
    """A two-field record like ``cli``'s agreement result; ``kappa`` may be undefined."""

    dice: float
    kappa: float | None


class TestSummarizeFields:
    def test_fields_in_record_order(self):
        from dataclasses import fields

        summary = summarize_fields([simple_case(), simple_case(dice=0.5, vpe=0.5)])
        assert list(summary) == [f.name for f in fields(CaseMetrics)]
        assert list(summarize_fields([Rated(0.5, 0.2)])) == ["dice", "kappa"]

    def test_field_no_record_defines_is_none(self):
        summary = summarize_fields([Rated(0.5, None), Rated(1.0, None)])
        assert summary["kappa"] is None
        assert summary["dice"] == vars(summarize([0.5, 1.0]))

    def test_n_counts_only_defined_values(self):
        summary = summarize_fields([Rated(0.5, None), Rated(1.0, 0.4), Rated(0.25, 0.6)])
        assert summary["dice"]["n"] == 3
        assert summary["kappa"] == vars(summarize([0.4, 0.6]))
        assert summary["kappa"]["n"] == 2

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            summarize_fields([])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_values_as_the_inline_expressions(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        cases = [
            simple_case(dice=float(d), vpe=float(v), hd95_mm=None if undefined else float(h))
            for d, v, h, undefined in zip(rng.uniform(0.01, 1, n), rng.normal(0, 0.3, n),
                                          rng.uniform(0, 9, n), rng.random(n) < 0.3)
        ]
        want = {}  # the loop cohort_report ran over CaseMetrics' fields
        for name in vars(cases[0]):
            defined = [v for v in (getattr(c, name) for c in cases) if v is not None]
            want[name] = vars(summarize(defined)) if defined else None
        assert summarize_fields(cases) == want

        rated = [Rated(float(d), None if k > 0.9 else float(k))
                 for d, k in zip(rng.uniform(0, 1, n), rng.uniform(-1, 1, n))]
        kappas = [r.kappa for r in rated if r.kappa is not None]  # the agree summary's expressions
        assert summarize_fields(rated) == {
            "dice": vars(summarize([r.dice for r in rated])),
            "kappa": vars(summarize(kappas)) if kappas else None,
        }


def numpy_linear_fit(x, y):
    """The numpy expressions linear_fit used before its sums became math.fsum."""
    x = np.asarray(list(x), dtype=np.float64)
    y = np.asarray(list(y), dtype=np.float64)
    sxx = float(((x - x.mean()) ** 2).sum())
    syy = float(((y - y.mean()) ** 2).sum())
    sxy = float(((x - x.mean()) * (y - y.mean())).sum())
    slope = sxy / sxx
    return slope, float(y.mean() - slope * x.mean()), sxy * sxy / (sxx * syy)


class TestLinearFit:
    @pytest.mark.parametrize("n", [2, 7, 9, 400])
    def test_agrees_with_numpy_expressions(self, n):
        rng = np.random.default_rng(n)
        x = rng.uniform(20.0, 120.0, n)  # pancreas-sized volumes in ml
        y = 0.9 * x + 4.0 + rng.normal(0.0, 6.0, n)
        fit = linear_fit(x, y)
        assert fit.n == n
        for got, want in zip((fit.slope, fit.intercept, fit.r2), numpy_linear_fit(x, y)):
            assert got == pytest.approx(want, rel=1e-12)
    def test_perfect_line(self):
        x = [0.0, 1.0, 2.0, 3.0]
        fit = linear_fit(x, [2 * v + 1 for v in x])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r2 == pytest.approx(1.0)

    def test_hand_fixture(self):
        fit = linear_fit([1, 2, 3], [1, 3, 2])
        assert fit.slope == pytest.approx(0.5)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.r2 == pytest.approx(0.25)

    def test_degenerate_inputs_distinct_errors(self):
        with pytest.raises(ValueError, match="x is constant"):
            linear_fit([2, 2, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="y is constant"):
            linear_fit([1, 2, 3], [5, 5, 5])
        with pytest.raises(ValueError, match="length"):
            linear_fit([1, 2], [1, 2, 3])
        with pytest.raises(ValueError, match="at least two points"):
            linear_fit([1.0], [2.0])

    def test_r2_affine_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(30)
        y = 0.7 * x + rng.standard_normal(30)
        base = linear_fit(x, y).r2
        assert linear_fit(3.0 * x + 5.0, y).r2 == pytest.approx(base)
        assert linear_fit(x, 0.25 * y - 2.0).r2 == pytest.approx(base)


class TestTTest:
    def test_identical_samples_degenerate(self):
        res = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.p == 1.0 and res.t == 0.0 and res.df == 2

    def test_constant_nonzero_difference(self):
        res = paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert math.isinf(res.t) and res.t > 0 and res.p == 0.0

    def test_hand_fixture(self):
        a = [1.0, 2.0, 3.0, 4.0, 5.0]
        b = [0.0] * 5  # differences 1..5
        res = paired_t_test(a, b)
        assert res.t == pytest.approx(4.24264, abs=1e-5)
        assert res.df == 4
        assert res.p == pytest.approx(0.01324, abs=1e-4)

    def test_negation_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal(12)
        b = rng.standard_normal(12)
        r1 = paired_t_test(a, b)
        r2 = paired_t_test(b, a)
        assert r2.t == pytest.approx(-r1.t)
        assert r2.p == pytest.approx(r1.p)

    @pytest.mark.parametrize("a", [[math.nan, 1.0, 2.0], [math.inf, 1.0, 2.0], [1e308, -1e308, 0.0]])
    def test_non_finite_difference_is_value_error(self, a):
        with pytest.raises(ValueError, match="finite"):
            paired_t_test(a, [-1e308, 1e308, 0.0])

    @pytest.mark.parametrize("a", [[1.7e308, 1.7e308, 1.0], [1.7e308, -1.7e308]])
    def test_differences_beyond_float_range_are_value_error(self, a):
        # finite differences whose sum (the mean) or sum of squares (the sd) overflows
        with pytest.raises(ValueError, match="overflow the float range"):
            paired_t_test(a, [0.0] * len(a))

    def test_pairs_validated(self):
        with pytest.raises(ValueError, match="length mismatch: 3 vs 2"):
            paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least two pairs"):
            paired_t_test([1.0], [2.0])

    @pytest.mark.parametrize("df", [0, -1])
    def test_df_below_one_rejected(self, df):
        with pytest.raises(ValueError, match="df must be >= 1"):
            t_two_sided_p(1.0, df)

    def test_nan_t_rejected(self):
        with pytest.raises(ValueError, match="t must not be NaN"):
            t_two_sided_p(math.nan, 3)

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_infinite_t_has_p_zero(self, t):
        assert t_two_sided_p(t, 3) == 0.0

    def test_p_monotone_in_abs_t(self):
        ps = [t_two_sided_p(t, 7) for t in (0.0, 0.5, 1.0, 2.0, 5.0, 20.0)]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    @pytest.mark.parametrize("df", [10**3, 10**4, 10**5])
    def test_cohort_sized_df_matches_quadrature_oracle(self, df):
        # criterion 11 stops at df 100; a CT cohort of the paper's size has df above 1000
        for t in (0.0, 0.5, 1.5, 2.0, 4.0, 6.0):
            assert t_two_sided_p(t, df) == pytest.approx(t_two_sided_p_quadrature(t, df), abs=1e-8)


class TestCohortReport:
    def test_single_perfect_case(self):
        g = cohort_report([simple_case()])
        assert list(g) == ["n_cases", "metrics", "avpe"]
        assert g["n_cases"] == 1
        assert g["metrics"]["dice"] == {"mean": 1.0, "std": 0.0, "median": 1.0, "n": 1}
        assert g["metrics"]["hd95_mm"]["mean"] == 0.0
        assert g["avpe"]["mean_abs_vpe"] == 0.0
        assert g["avpe"]["bound"] == 0.0
        assert not g["avpe"]["violated"]

    def test_synthetic_cohort_expected_table(self):
        cases = [
            simple_case(dice=0.8, vpe=0.10),
            simple_case(dice=0.9, vpe=-0.05),
        ]
        ct = cohort_report(cases)
        assert ct["n_cases"] == 2
        assert ct["metrics"]["dice"]["mean"] == pytest.approx(0.85)
        assert ct["avpe"]["mean_dice"] == ct["metrics"]["dice"]["mean"]
        assert ct["avpe"]["mean_abs_vpe"] == pytest.approx(0.075)
        assert ct["avpe"]["bound"] == pytest.approx(2 / 0.85 - 2)
        assert not ct["avpe"]["violated"]

    def test_metrics_in_case_metrics_field_order(self):
        from dataclasses import fields

        report = cohort_report([simple_case(), simple_case(dice=0.5, vpe=0.5)])
        assert list(report["metrics"]) == [f.name for f in fields(CaseMetrics)]

    def test_heterogeneous_cohort_is_flagged(self):
        # both vpes are legal for their own Dice; mean |vpe| 9.0 against a bound of 1.636
        cases = [simple_case(dice=1.0, vpe=0.0), simple_case(dice=0.1, vpe=vpe_bounds_from_dice(0.1).upper)]
        avpe = cohort_report(cases)["avpe"]
        assert avpe["mean_abs_vpe"] == 9.0 and avpe["bound"] == pytest.approx(2 / 0.55 - 2)
        assert avpe["violated"]

    @pytest.mark.parametrize("cases", [
        [simple_case(dice=0.0, vpe=-1.0), simple_case(dice=0.0, vpe=4.0)],
        [simple_case(vpe=None, gt_volume_ml=0.0), simple_case(dice=0.5, vpe=None, gt_volume_ml=0.0)],
    ], ids=["every-dice-0", "no-vpe"])
    def test_avpe_is_undefined_without_a_bound_or_a_vpe(self, cases):
        assert cohort_report(cases)["avpe"] is None

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_mean_abs_vpe_is_numpy_mean_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        cases = [simple_case(dice=float(d), vpe=float(v))
                 for d, v in zip(rng.uniform(0.5, 1, n), rng.normal(0, 0.2, n))]
        abs_vpes = [abs(c.vpe) for c in cases]
        assert cohort_report(cases)["avpe"]["mean_abs_vpe"] == float(np.mean(abs_vpes))

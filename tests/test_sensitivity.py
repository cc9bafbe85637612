import math

import numpy as np
import pytest

import golden_values as gv
from citeweight import (
    CitationDataError,
    CitationMatrix,
    IterationTrace,
    JournalSet,
    NumericalError,
    WeightVector,
    influence_weights,
    linear_fit,
    pinski_narin_normalize,
    power_iterate,
    self_citation_sensitivity,
)


class TestSensitivity:
    def test_iw_pairs_match_direct_computation(self, price):
        report = self_citation_sensitivity(price, "iw", cycles=7)
        assert tuple(round(v, 4) for v in report.with_values) == gv.IW7_WITH
        assert tuple(round(v, 4) for v in report.without_values) == gv.IW7_WITHOUT

    def test_iw_percent_changes(self, price):
        report = self_citation_sensitivity(price, "iw", cycles=7)
        assert np.allclose(report.pct_change, gv.PCT_CHANGE_2DP, atol=0.005)

    def test_iw_uses_the_given_iteration_arguments(self, price):
        report = self_citation_sensitivity(price, "iw", cycles=3)
        expected = influence_weights(price, cycles=3)
        assert np.array_equal(report.with_values, expected.values)

    def test_raw_cited_headline(self, price):
        report = self_citation_sensitivity(price, "raw_cited")
        assert report.with_values.tolist() == list(gv.CITED_TOTALS)
        assert report.without_values[0] == gv.STRIPPED_J1_CITED
        assert report.pct_change[0] == pytest.approx(-34.0, abs=0.1)

    def test_ratio_headline(self, price):
        report = self_citation_sensitivity(price, "cited_citing_ratio")
        assert report.without_values[0] == pytest.approx(gv.RATIO_WITHOUT_J1, abs=1e-6)
        assert report.pct_change[0] == pytest.approx(14.944, abs=0.001)

    def test_summary_statistics(self, price):
        report = self_citation_sensitivity(price, "iw", cycles=7)
        assert report.max_abs_pct_change == pytest.approx(
            np.abs(report.pct_change).max(), rel=1e-15
        )
        assert report.mean_abs_pct_change == pytest.approx(
            np.abs(report.pct_change).mean(), rel=1e-15
        )
        assert report.max_abs_pct_change == pytest.approx(0.2103, abs=1e-4)

    def test_zero_with_value_gives_nan_pct(self):
        counts = np.array([[0, 0], [1, 1]])
        m = CitationMatrix(JournalSet(("A", "B")), counts)
        report = self_citation_sensitivity(m, "raw_cited")
        assert math.isnan(report.pct_change[0])
        assert report.pct_change[1] == pytest.approx(-50.0)
        # summary aggregates only the defined entry
        assert report.max_abs_pct_change == pytest.approx(50.0)
        assert report.mean_abs_pct_change == pytest.approx(50.0)

    def test_all_undefined_summary_is_nan(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.zeros((2, 2)))
        report = self_citation_sensitivity(m, "raw_cited")
        assert math.isnan(report.max_abs_pct_change)
        assert math.isnan(report.mean_abs_pct_change)

    def test_undefined_ratio_propagates_to_nan_pct(self):
        # journal A neither cites nor is cited outside itself, so its
        # diagonal-free ratio is 0/0
        counts = np.array([[5, 0, 0], [0, 2, 1], [0, 1, 3]])
        m = CitationMatrix(JournalSet(("A", "B", "C")), counts)
        report = self_citation_sensitivity(m, "cited_citing_ratio")
        assert math.isnan(report.pct_change[0])
        assert not math.isnan(report.pct_change[1])

    def test_raw_cited_matches_closed_form(self, price):
        report = self_citation_sensitivity(price, "raw_cited")
        diagonal = np.diagonal(price.counts)
        closed_form = -100.0 * diagonal / price.counts.sum(axis=1)
        assert np.allclose(report.pct_change, closed_form, rtol=1e-12)

    @pytest.mark.parametrize("indicator", ["iw", "raw_cited", "cited_citing_ratio"])
    def test_zero_diagonal_matrix_shows_no_change(self, indicator):
        counts = np.array([[0, 3, 2], [4, 0, 1], [2, 5, 0]])
        m = CitationMatrix(JournalSet(("A", "B", "C")), counts)
        report = self_citation_sensitivity(m, indicator, cycles=5)
        assert np.allclose(report.pct_change, 0.0, atol=1e-12)

    def test_uniform_structure_changes_every_journal_equally(self):
        # same diagonal and same off-diagonal everywhere: symmetry forces
        # identical shifts
        counts = np.full((4, 4), 2.0)
        np.fill_diagonal(counts, 9.0)
        m = CitationMatrix(JournalSet(("A", "B", "C", "D")), counts)
        report = self_citation_sensitivity(m, "iw", cycles=6)
        assert np.allclose(report.pct_change, report.pct_change[0], atol=1e-12)

    def test_unknown_indicator_lists_choices(self, price):
        with pytest.raises(CitationDataError, match="raw_cited"):
            self_citation_sensitivity(price, "pagerank")


    def test_unconverged_iw_run_raises(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[0, 2], [1, 0]]))
        with pytest.raises(NumericalError, match="did not converge"):
            self_citation_sensitivity(m, "iw")

    @pytest.mark.parametrize("indicator", ["iw", "raw_cited", "cited_citing_ratio"])
    def test_iteration_arguments_checked_for_every_indicator(self, price, indicator):
        with pytest.raises(CitationDataError, match="finite and positive"):
            self_citation_sensitivity(price, indicator, tolerance=math.inf)

class TestDecayRatios:
    def test_deltas_shrink_geometrically(self, price):
        trace = power_iterate(pinski_narin_normalize(price), cycles=10)
        # strict decrease from cycle 3 on
        for earlier, later in zip(trace.deltas[2:], trace.deltas[3:]):
            assert later < earlier

    def test_one_ratio_per_cycle_pair(self, price):
        trace = power_iterate(pinski_narin_normalize(price), cycles=6)
        assert len(trace.decay_ratios) == 5

    def test_delta_rises_at_cycle_two_then_decays(self):
        counts = np.array([[0, 0, 0], [0, 1, 1], [3, 1, 0]])
        m = CitationMatrix(JournalSet(("A", "B", "C")), counts)
        trace = power_iterate(pinski_narin_normalize(m), cycles=5)
        assert trace.decay_ratios[0] > 1
        assert all(r < 1 for r in trace.decay_ratios[1:])

    def test_ratios_divide_each_delta_by_the_one_before(self):
        final = WeightVector(JournalSet(("A", "B")), np.array([0.5, 0.5]))
        trace = IterationTrace(final, np.array([1.0, 1.0]), (1.0, 0.5, 0.6, 0.3), False)
        assert trace.decay_ratios == (0.5, 1.2, 0.5)

    def test_late_ratio_approaches_frozen_value(self, price):
        trace = power_iterate(pinski_narin_normalize(price), cycles=10)
        assert trace.decay_ratios[-1] == pytest.approx(gv.LATE_DELTA_RATIO, abs=1e-4)

    def test_late_ratio_tracks_subdominant_eigenvalue(self, price):
        trace = power_iterate(pinski_narin_normalize(price), cycles=10)
        assert trace.decay_ratios[-1] == pytest.approx(gv.SUBDOMINANT_RATIO, rel=0.05)

    def test_short_trace_has_fewer_ratios(self, price):
        normalized = pinski_narin_normalize(price)
        one = power_iterate(normalized, cycles=1)
        assert one.decay_ratios == ()
        two = power_iterate(normalized, cycles=2)
        assert two.decay_ratios == (two.deltas[1] / two.deltas[0],)

    def test_immediate_fixed_point_gives_nan_ratios(self):
        # uniform matrix lands on the fixed point in one cycle
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[1, 1], [1, 1]]))
        trace = power_iterate(pinski_narin_normalize(m), cycles=3)
        assert all(math.isnan(r) for r in trace.decay_ratios)

    def test_two_cycle_oscillation_holds_its_delta(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[0, 2], [1, 0]]))
        trace = power_iterate(pinski_narin_normalize(m), cycles=8)
        assert trace.deltas == pytest.approx((0.6,) * 8, rel=1e-12)
        assert trace.decay_ratios == (1.0,) * 7

    def test_period_three_oscillation_repeats_its_deltas(self):
        # a cyclic permutation with weights: the iterate cycles with period 3,
        # so the deltas repeat and every three consecutive ratios multiply to 1
        counts = np.array([[0, 1, 0], [0, 0, 2], [3, 0, 0]])
        m = CitationMatrix(JournalSet(("A", "B", "C")), counts)
        trace = power_iterate(pinski_narin_normalize(m), cycles=9)
        for earlier, later in zip(trace.deltas, trace.deltas[3:]):
            assert later == pytest.approx(earlier, abs=1e-12)
        ratios = trace.decay_ratios
        for triple in zip(ratios, ratios[1:], ratios[2:]):
            assert math.prod(triple) == pytest.approx(1.0, abs=1e-12)


class TestLinearFit:
    def test_recovers_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = linear_fit(x, 2.0 * x + 1.0)
        assert fit.slope == pytest.approx(2.0, rel=1e-14)
        assert fit.intercept == pytest.approx(1.0, rel=1e-14)
        assert fit.pearson_r == pytest.approx(1.0, rel=1e-14)
        assert fit.n_points == 4

    def test_descending_line(self):
        x = np.array([1.0, 2.0, 3.0])
        fit = linear_fit(x, -x)
        assert fit.slope == pytest.approx(-1.0, rel=1e-14)
        assert fit.pearson_r == pytest.approx(-1.0, rel=1e-14)

    def test_constant_x_is_an_error(self):
        with pytest.raises(NumericalError, match="identical"):
            linear_fit(np.array([2.0, 2.0, 2.0]), np.array([1.0, 2.0, 3.0]))

    def test_constant_y_is_a_flat_fit(self):
        fit = linear_fit(np.array([1.0, 2.0, 3.0]), np.array([4.0, 4.0, 4.0]))
        assert fit.slope == 0.0
        assert fit.intercept == 4.0
        assert fit.pearson_r == 0.0

    def test_validation(self):
        with pytest.raises(CitationDataError):
            linear_fit(np.array([1.0]), np.array([2.0]))
        with pytest.raises(CitationDataError):
            linear_fit(np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(CitationDataError):
            linear_fit(np.array([1.0, np.nan]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "x, y",
        [
            ([0.0, 1e155, 3.0], [1.0, 2.0, 3.0]),
            ([0.0, 1.0, 2.0], [0.0, 1e200, -1e200]),
            ([1e308, 1e308, 0.0], [1.0, 2.0, 3.0]),
        ],
        ids=["x-sum", "y-sum", "mean"],
    )
    def test_overflowed_sum_is_an_error(self, x, y):
        # the overflowed sums once gave slope 0 and r 0 with a warning
        with pytest.raises(NumericalError, match="^fit sums overflowed"):
            linear_fit(np.array(x), np.array(y))

    @pytest.mark.parametrize("scale", [1e100, 1e-100, 1e-80])
    def test_perfect_line_far_from_unit_scale(self, scale):
        # sxx * syy overflowed to r = 0, underflowed to a ZeroDivisionError,
        # or lost digits below the normal range to r = 1.0000056
        x = np.array([0.0, scale, 2.0 * scale])
        assert linear_fit(x, x).pearson_r == pytest.approx(1.0, rel=1e-15)

    def test_matches_polyfit_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 10, 40)
        y = 3.0 * x - 5.0 + rng.normal(0, 1, 40)
        fit = linear_fit(x, y)
        slope, intercept = np.polyfit(x, y, 1)
        assert fit.slope == pytest.approx(slope, rel=1e-10)
        assert fit.intercept == pytest.approx(intercept, rel=1e-10)
        assert fit.pearson_r == pytest.approx(np.corrcoef(x, y)[0, 1], rel=1e-10)

    def test_fit_of_values_against_themselves(self, price):
        x = self_citation_sensitivity(price, "iw", cycles=7).with_values
        fit = linear_fit(x, x)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.pearson_r == pytest.approx(1.0, abs=1e-12)

    def test_embedded_dataset_weight_pairs(self, price):
        report = self_citation_sensitivity(price, "iw", cycles=7)
        fit = linear_fit(report.with_values, report.without_values)
        assert fit.slope == pytest.approx(gv.FIT_SLOPE, abs=1e-6)
        assert fit.intercept == pytest.approx(gv.FIT_INTERCEPT, abs=1e-6)
        assert fit.pearson_r == pytest.approx(gv.FIT_PEARSON_R, abs=1e-6)
        assert fit.n_points == 8

import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import citeweight.metrics
import golden_values as gv
from citeweight import (
    CitationDataError,
    CitationMatrix,
    JournalSet,
    NumericalError,
    WeightVector,
    influence_weights,
    margins,
    pinski_narin_normalize,
    power_iterate,
    power_weakness_ratio,
    self_citation_diagnostics,
    self_citation_sensitivity,
    strip_self_citations,
    transpose,
)
from citeweight.metrics import (
    CYCLE_CEILING,
    DEFAULT_MAX_CYCLES,
    DEFAULT_TOLERANCE,
    _influence_trace,
)
from test_properties import EXAMPLES, cited_and_citing

#: The default iteration arguments, as ``_influence_trace`` takes them.
DEFAULTS = dict(cycles=None, tolerance=DEFAULT_TOLERANCE, max_cycles=DEFAULT_MAX_CYCLES)


def exact_stochastic_iteration(counts, cycles):
    """Rational-arithmetic reference for the weight recursion: multiply,
    then renormalize to sum 1, repeated for the given number of cycles."""
    n = len(counts)
    z = [[Fraction(int(v)) for v in row] for row in counts]
    v = [Fraction(1)] * n
    for _ in range(cycles):
        product = [sum(z[i][j] * v[j] for j in range(n)) for i in range(n)]
        total = sum(product)
        v = [p / total for p in product]
    return v


class TestNormalize:
    def test_first_column_cells_are_exact_margin_quotients(self, price):
        nm = pinski_narin_normalize(price)
        assert nm.values[0, 0] == pytest.approx(Fraction(9384, 22036), rel=1e-15)
        assert nm.values[1, 0] == pytest.approx(Fraction(2406, 24403), rel=1e-15)

    def test_full_grid_to_three_decimals(self, price):
        nm = pinski_narin_normalize(price)
        for i in range(8):
            for j in range(8):
                assert nm.values[i, j] == pytest.approx(
                    gv.NORMALIZED_3DP[i][j], abs=0.0005
                )

    def test_row_sums_are_cited_citing_ratios(self, price):
        nm = pinski_narin_normalize(price)
        totals = margins(price)
        expected = totals.cited_totals / totals.citing_totals
        assert np.allclose(nm.values.sum(axis=1), expected, rtol=1e-14)
        assert np.allclose(nm.values.sum(axis=1), gv.ROW_SUMS_3DP, atol=0.001)

    def test_column_sums_to_three_decimals(self, price):
        nm = pinski_narin_normalize(price)
        assert np.allclose(nm.values.sum(axis=0), gv.COL_SUMS_3DP, atol=0.0005)

    def test_journal_without_references_is_named(self):
        # journal B's column is all zero: it cites nobody
        counts = np.array([[1, 0], [2, 0]])
        m = CitationMatrix(JournalSet(("A", "B")), counts)
        with pytest.raises(NumericalError, match="'B'"):
            pinski_narin_normalize(m)

    def test_overflowed_quotient_is_named(self):
        # B's reference total is 1e-300, so 1e308 / 1e-300 overflows
        counts = np.array([[0.0, 1e308], [1e-300, 1.0]])
        m = CitationMatrix(JournalSet(("A", "B")), counts)
        with pytest.raises(NumericalError, match=r"normalized cell \('A', 'B'\) overflowed"):
            pinski_narin_normalize(m)

    def test_row_total_quotient_may_overflow_when_no_cell_does(self):
        # A's cited total over its citing total is 3.2e308, every cell finite
        counts = np.array([[0.0, 0.8e308, 0.8e308], [0.5, 0.0, 1.0], [0.0, 1.0, 0.0]])
        m = CitationMatrix(JournalSet(("A", "B", "C")), counts)
        assert pinski_narin_normalize(m).values[0].tolist() == [0.0, 1.6e308, 1.6e308]

    def test_values_are_write_protected(self, price):
        nm = pinski_narin_normalize(price)
        with pytest.raises(ValueError):
            nm.values[0, 0] = 1.0


class TestWeightVector:
    def test_raw_need_not_sum_to_one(self):
        wv = WeightVector(JournalSet(("A", "B")), np.array([5.0, 7.0]))
        assert len(wv) == 2

    def test_rejects_negative(self):
        with pytest.raises(CitationDataError):
            WeightVector(JournalSet(("A", "B")), np.array([1.0, -1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(CitationDataError):
            WeightVector(JournalSet(("A", "B")), np.array([1.0, 2.0, 3.0]))

    @pytest.mark.parametrize(
        "values, message",
        [
            ([1.0, 2.0, 3.0], "2 journal labels need a vector of 2 values, got shape (3,)"),
            ([-1.0, np.nan], "cell (1) is not finite"),
            ([np.inf, 1.0], "cell (0) is not finite"),
            ([1.0, -2.5], "cell (1) is negative: -2.5"),
        ],
    )
    def test_names_the_first_bad_cell(self, values, message):
        with pytest.raises(CitationDataError) as exc:
            WeightVector(JournalSet(("A", "B")), np.array(values))
        assert str(exc.value) == message


class TestPowerIterate:
    def test_first_cycle_product_is_row_sums(self, small):
        trace = power_iterate(small, cycles=1)
        assert np.allclose(trace.product, small.counts.sum(axis=1))

    def test_every_stochastic_vector_sums_to_one(self, price):
        nm = pinski_narin_normalize(price)
        for k in range(1, 11):
            vector = power_iterate(nm, cycles=k).final.values
            assert vector.sum() == pytest.approx(1.0, abs=1e-12)
            assert (vector >= 0).all()

    def test_first_delta_measured_against_uniform_start(self, small):
        trace = power_iterate(small, cycles=1)
        uniform = np.full(small.n, 1.0 / small.n)
        expected = np.abs(trace.final.values - uniform).sum()
        assert trace.deltas[0] == pytest.approx(expected, rel=1e-15)

    def test_fixed_cycles_run_exactly(self, price):
        trace = power_iterate(pinski_narin_normalize(price), cycles=7)
        assert trace.iterations_used == 7
        assert len(trace.deltas) == 7

    def test_tolerance_mode_converges(self, price):
        trace = power_iterate(pinski_narin_normalize(price), tolerance=1e-9)
        assert trace.converged
        assert trace.deltas[-1] <= 1e-9
        assert trace.iterations_used < 100

    def test_periodic_matrix_stops_at_budget_unconverged(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[0, 2], [1, 0]]))
        trace = power_iterate(pinski_narin_normalize(m), max_cycles=30)
        assert not trace.converged
        assert trace.iterations_used == 30

    def test_fixed_cycle_run_reports_convergence_when_reached(self, price):
        trace = power_iterate(pinski_narin_normalize(price), cycles=60)
        assert trace.converged

    def test_matches_exact_rational_iteration(self, small):
        trace = power_iterate(small, cycles=5)
        exact = exact_stochastic_iteration(small.counts, 5)
        assert np.allclose(trace.final.values, [float(e) for e in exact], rtol=1e-12)

    def test_zero_matrix_vanishes_with_cycle_number(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.zeros((2, 2)))
        with pytest.raises(NumericalError, match="cycle 1"):
            power_iterate(m, cycles=3)

    @pytest.mark.parametrize(
        "counts",
        # a product cell overflows; only the sum of the finite cells does
        [np.full((2, 2), 1e308), np.diag([1e308, 1e308])],
        ids=["product", "mass"],
    )
    def test_overflow_is_non_finite_at_its_cycle_without_a_warning(self, counts):
        m = CitationMatrix(JournalSet(("A", "B")), counts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite at cycle 1$"):
                power_iterate(m, cycles=3)

    def test_uniform_matrix_hits_fixed_point_immediately(self):
        m = CitationMatrix(JournalSet(("A", "B", "C")), np.full((3, 3), 2.0))
        assert np.allclose(power_iterate(m, cycles=1).final.values, 1 / 3)
        assert power_iterate(m, cycles=2).deltas[1] == 0.0

    def test_isolated_journal_converges_to_zero_weight(self):
        # an unconnected journal drains to weight zero instead of stalling
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[0, 0], [0, 5]]))
        trace = power_iterate(m)
        assert trace.converged
        assert trace.final.values.tolist() == [0.0, 1.0]

    def test_final_property(self, price):
        trace = power_iterate(pinski_narin_normalize(price), cycles=4)
        assert abs(trace.final.values.sum() - 1.0) <= 1e-12
        assert trace.final.journals == price.journals
        # the last product renormalized, built once: the same object on each access
        assert np.array_equal(trace.final.values, trace.product / trace.product.sum())
        assert trace.final is trace.final

    def test_argument_validation(self, small):
        with pytest.raises(CitationDataError):
            power_iterate(small, cycles=0)
        with pytest.raises(CitationDataError):
            power_iterate(small, cycles=2.5)
        with pytest.raises(CitationDataError):
            power_iterate(small, tolerance=0.0)
        # a tolerance that is not a real number, or is a bool, is refused
        # with the same message
        for bad in (float("inf"), float("nan"), "1e-9", None, True, 1j):
            with pytest.raises(CitationDataError, match="finite and positive"):
                power_iterate(small, tolerance=bad)
        with pytest.raises(CitationDataError):
            power_iterate(small, max_cycles=0)
        expected = "^expected a CitationMatrix or NormalizedMatrix, got ndarray$"
        with pytest.raises(CitationDataError, match=expected):
            power_iterate(np.eye(2))
        # a bool is not a cycle count, and a budget must be a whole number
        for bad in (True, False):
            with pytest.raises(CitationDataError, match="cycle count must be"):
                power_iterate(small, cycles=bad)
            with pytest.raises(CitationDataError, match="max_cycles must be"):
                power_iterate(small, max_cycles=bad)
        for bad in (2.5, 3.0):
            with pytest.raises(CitationDataError, match=f"max_cycles must be .* {bad}"):
                power_iterate(small, max_cycles=bad)
        assert power_iterate(small, cycles=np.int64(2)).iterations_used == 2
        assert power_iterate(small, cycles=150, max_cycles=5).iterations_used == 150
        assert power_iterate(small, max_cycles=np.int32(100)).converged
        for good in (1, np.float32(1e-9)):
            assert power_iterate(small, tolerance=good).converged

    @pytest.mark.parametrize("argument", ["cycles", "max_cycles"])
    def test_count_above_the_ceiling_is_refused_before_any_cycle(self, argument):
        # the zero matrix vanishes at cycle 1, so this refusal ran no cycle
        m = CitationMatrix(JournalSet(("A", "B")), np.zeros((2, 2)))
        with pytest.raises(CitationDataError, match=f"at most {CYCLE_CEILING}, got {10**18}$"):
            power_iterate(m, **{argument: 10**18})

    def test_the_ceiling_itself_is_a_valid_budget(self, small):
        assert power_iterate(small, max_cycles=CYCLE_CEILING).converged
        with pytest.raises(CitationDataError, match="max_cycles must be at most"):
            power_iterate(small, max_cycles=CYCLE_CEILING + 1)

    def test_trace_memory_does_not_grow_with_the_cycle_count(self):
        counts = np.random.default_rng(5).integers(1, 51, size=(256, 256))
        labels = tuple(f"J{i + 1}" for i in range(256))
        nm = pinski_narin_normalize(CitationMatrix(JournalSet(labels), counts))

        def peak(cycles):
            tracemalloc.start()
            try:
                power_iterate(nm, cycles=cycles)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4000) - peak(10) <= 2**20


class TestInfluenceWeights:
    def test_seven_cycles_to_four_decimals(self, price):
        w = influence_weights(price, cycles=7)
        assert tuple(round(v, 4) for v in w.values) == gv.IW7_WITH

    def test_seven_cycles_without_diagonal(self, price):
        w = influence_weights(strip_self_citations(price), cycles=7)
        assert tuple(round(v, 4) for v in w.values) == gv.IW7_WITHOUT

    def test_symmetric_exchange_splits_evenly_without_diagonal(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[0, 5], [5, 0]]))
        w = influence_weights(strip_self_citations(m))
        assert w.values.tolist() == [0.5, 0.5]

    def test_diagonal_free_variant_renormalizes_margins(self, price):
        # the stripped run must divide by recomputed reference totals, so
        # its first-cycle products differ from the full run's everywhere
        stripped = strip_self_citations(price)
        full_rows = pinski_narin_normalize(price).values.sum(axis=1)
        stripped_rows = pinski_narin_normalize(stripped).values.sum(axis=1)
        assert not np.allclose(full_rows, stripped_rows, rtol=1e-3)

    def test_tolerance_equal_to_a_delta_stops_there_converged(self, price):
        # the loop stops at a delta equal to the tolerance, so the flag and
        # the tolerance-mode check must count that delta as converged
        delta = power_iterate(pinski_narin_normalize(price), cycles=3).deltas[2]
        trace = _influence_trace(price, False, None, delta, DEFAULT_MAX_CYCLES)
        assert trace.iterations_used == 3
        assert trace.converged

    def test_tolerance_mode_raises_when_not_converged(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[0, 2], [1, 0]]))
        with pytest.raises(NumericalError, match="did not converge within 30 cycles"):
            influence_weights(m, max_cycles=30)

    def test_fixed_cycle_run_returns_even_when_not_converged(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[0, 2], [1, 0]]))
        assert abs(influence_weights(m, cycles=7).values.sum() - 1.0) <= 1e-12

    def test_converged_weights_are_an_eigenvector(self, price):
        nm = pinski_narin_normalize(price)
        w = influence_weights(price, tolerance=1e-13, max_cycles=1000)
        image = nm.values @ w.values
        assert np.allclose(image / image.sum(), w.values, atol=1e-12)

    def test_matches_dense_eigensolver(self, price):
        nm = pinski_narin_normalize(price)
        eigenvalues, eigenvectors = np.linalg.eig(nm.values)
        lead = np.argmax(np.abs(eigenvalues))
        dominant = np.real(eigenvectors[:, lead])
        dominant = dominant / dominant.sum()
        w = influence_weights(price, tolerance=1e-13, max_cycles=1000)
        assert np.abs(w.values - dominant).max() <= 1e-8


class TestKeptResults:
    """A matrix keeps its margin totals and each influence trace it was
    asked for, so a repeated call returns the object the first one built."""

    def test_a_repeated_call_returns_the_kept_object(self, price):
        kept = _influence_trace(price, False, **DEFAULTS)
        assert _influence_trace(price, False, **DEFAULTS) is kept
        assert margins(price) is margins(price)

    @pytest.mark.parametrize("order", [("seven", "tolerance"), ("tolerance", "seven")])
    def test_each_argument_set_keeps_its_own_trace(self, price, order):
        runs = {
            "seven": dict(DEFAULTS, cycles=7),
            "tolerance": dict(DEFAULTS, tolerance=1e-13, max_cycles=1000),
        }
        traces = {name: _influence_trace(price, False, **runs[name]) for name in order}
        for name in order:
            assert _influence_trace(price, False, **runs[name]) is traces[name]
        seven, converged = traces["seven"], traces["tolerance"]
        assert seven.iterations_used == 7
        assert tuple(round(v, 4) for v in seven.final.values) == gv.IW7_WITH
        assert converged.converged and converged.iterations_used > 7
        eigenvalues, eigenvectors = np.linalg.eig(pinski_narin_normalize(price).values)
        dominant = np.real(eigenvectors[:, np.argmax(np.abs(eigenvalues))])
        assert np.abs(converged.final.values - dominant / dominant.sum()).max() <= 1e-8

    def test_a_repeated_non_converging_call_raises_without_iterating(self, monkeypatch):
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[0, 2], [1, 0]]))
        with pytest.raises(NumericalError, match="did not converge within 30 cycles") as first:
            influence_weights(m, max_cycles=30)

        def not_again(*args, **kwargs):
            raise AssertionError("the kept trace was iterated again")

        monkeypatch.setattr(citeweight.metrics, "power_iterate", not_again)
        with pytest.raises(NumericalError) as second:
            influence_weights(m, max_cycles=30)
        assert str(second.value) == str(first.value)

    def test_a_fresh_matrix_with_the_same_counts_shares_nothing(self, price):
        trace, totals = _influence_trace(price, False, **DEFAULTS), margins(price)
        fresh = CitationMatrix(price.journals, price.counts)
        fresh_trace, fresh_totals = _influence_trace(fresh, False, **DEFAULTS), margins(fresh)
        assert fresh_trace is not trace and fresh_totals is not totals
        pairs = [
            (trace.final.values, fresh_trace.final.values),
            (trace.product, fresh_trace.product),
            (totals.cited_totals, fresh_totals.cited_totals),
            (totals.citing_totals, fresh_totals.citing_totals),
        ]
        for kept, made in pairs:
            assert kept.tobytes() == made.tobytes()
            assert not np.shares_memory(kept, made)

    @pytest.mark.parametrize(
        "valid, invalid",
        [
            (dict(cycles=1), dict(cycles=True)),
            (dict(cycles=3, max_cycles=1), dict(cycles=3, max_cycles=True)),
            (dict(cycles=7), dict(cycles=7, tolerance=-1.0)),
            (dict(), dict(max_cycles=CYCLE_CEILING + 1)),
        ],
    )
    def test_invalid_arguments_raise_even_after_a_hit(self, price, valid, invalid):
        # True hashes and compares equal to 1, so a lookup before the
        # argument check would return the kept trace of the valid call
        influence_weights(price, **valid)
        with pytest.raises(CitationDataError):
            influence_weights(price, **invalid)

    def test_threads_that_miss_together_return_the_one_kept_object(self):
        # a lost update, each thread keeping its own trace, would give
        # threads distinct objects
        counts = np.random.default_rng(8).integers(1, 500, size=(64, 64))
        m = CitationMatrix(JournalSet(tuple(f"J{i}" for i in range(64))), counts)
        results = []

        def worker():
            results.append((_influence_trace(m, False, **DEFAULTS), margins(m)))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(threads)
        kept = _influence_trace(m, False, **DEFAULTS)
        assert all(r[0] is kept and r[1] is margins(m) for r in results)


def _outcome(func, m):
    """The bytes of the array ``func(m)`` returns, or the message it raises."""
    try:
        return func(m).tobytes()
    except NumericalError as exc:
        return str(exc)


def _weights(m):
    return influence_weights(m).values


def _with_values(m):
    return self_citation_sensitivity(m).with_values


@EXAMPLES
@given(cited_and_citing, st.booleans())
def test_sensitivity_reads_the_weights_of_a_cold_matrix(m, weights_first):
    def fresh():
        return CitationMatrix(m.journals, m.counts)

    if weights_first:
        weights = _outcome(_weights, m)
    with_values = _outcome(_with_values, m)
    if not weights_first:
        weights = _outcome(_weights, m)
    assert weights == _outcome(_weights, fresh())
    assert with_values == _outcome(_with_values, fresh())
    # the stripped run may fail alone; otherwise both read one trace
    if isinstance(with_values, bytes):
        assert with_values == weights


class TestPowerWeakness:
    def test_single_cycle_equals_margin_ratios(self, price):
        result = power_weakness_ratio(price, 1)
        totals = margins(price)
        expected = totals.cited_totals / totals.citing_totals
        rel = np.abs(result.ratio.values / expected - 1.0)
        assert rel.max() <= 1e-12

    def test_single_cycle_matches_first_iteration_product(self, price):
        # the same identity seen from the weight recursion's side
        result = power_weakness_ratio(price, 1)
        trace = power_iterate(pinski_narin_normalize(price), cycles=1)
        assert np.allclose(result.ratio.values, trace.product, rtol=1e-12)

    @pytest.mark.parametrize("cycles", [2, 7])
    def test_components_match_exact_rational_iteration(self, price, cycles):
        result = power_weakness_ratio(price, cycles)
        exact_p = exact_stochastic_iteration(price.counts, cycles)
        exact_q = exact_stochastic_iteration(price.counts.T, cycles)
        assert np.allclose(result.power.values, [float(v) for v in exact_p], rtol=1e-12)
        assert np.allclose(result.weakness.values, [float(v) for v in exact_q], rtol=1e-12)
        exact_r = [float(p / q) for p, q in zip(exact_p, exact_q)]
        assert np.allclose(result.ratio.values, exact_r, rtol=1e-12)

    def test_symmetric_matrix_has_unit_ratio_at_any_depth(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[0, 5], [5, 0]]))
        for cycles in (1, 3, 6):
            result = power_weakness_ratio(m, cycles)
            assert np.allclose(result.ratio.values, 1.0, rtol=1e-14)

    def test_components_are_stochastic(self, price):
        result = power_weakness_ratio(price, 7)
        assert abs(result.power.values.sum() - 1.0) <= 1e-12
        assert abs(result.weakness.values.sum() - 1.0) <= 1e-12
        assert result.cycles == 7

    def test_zero_weakness_weight_is_named(self):
        # journal A never cites, so the citing-side iteration gives it 0
        counts = np.array([[0, 1], [0, 1]])
        m = CitationMatrix(JournalSet(("A", "B")), counts)
        with pytest.raises(NumericalError, match="'A'"):
            power_weakness_ratio(m, 1)

    @pytest.mark.parametrize("cycles", [None, 0, 2.5, True])
    def test_bad_cycle_count_is_refused_before_any_cycle(self, cycles):
        # the zero matrix vanishes at cycle 1, so this refusal ran no cycle
        m = CitationMatrix(JournalSet(("A", "B")), np.zeros((2, 2)))
        expected = f"^cycle count must be a positive integer, got {cycles!r}$"
        with pytest.raises(CitationDataError, match=expected):
            power_weakness_ratio(m, cycles)

    def test_transpose_swaps_power_and_weakness(self, price):
        forward = power_weakness_ratio(price, 5)
        backward = power_weakness_ratio(transpose(price), 5)
        assert np.allclose(forward.power.values, backward.weakness.values, rtol=1e-14)
        assert np.allclose(
            forward.ratio.values, 1.0 / backward.ratio.values, rtol=1e-12
        )


class TestDiagnostics:
    def test_first_journal_decomposition(self, price):
        d = self_citation_diagnostics(price)
        assert d.self_citations[0] == 9384
        assert d.cited_by_others[0] == gv.STRIPPED_J1_CITED
        assert d.citing_others[0] == gv.STRIPPED_J1_CITING
        assert d.self_cited_rate[0] == pytest.approx(9384 / 27596, rel=1e-14)
        assert d.self_citing_rate[0] == pytest.approx(9384 / 22036, rel=1e-14)
        assert d.cited_citing_ratio_with[0] == pytest.approx(27596 / 22036, rel=1e-14)
        assert d.cited_citing_ratio_without[0] == pytest.approx(
            gv.RATIO_WITHOUT_J1, abs=1e-6
        )

    def test_all_ratios_defined_for_embedded_dataset(self, price):
        d = self_citation_diagnostics(price)
        assert (~np.isnan(d.cited_citing_ratio_without)).all()

    def test_purely_self_citing_journals_get_nan_ratio(self):
        counts = np.array([[5, 0], [0, 3]])
        d = self_citation_diagnostics(CitationMatrix(JournalSet(("A", "B")), counts))
        assert np.isnan(d.cited_citing_ratio_without).all()
        assert d.self_cited_rate.tolist() == [1.0, 1.0]

    def test_uncited_journal_rates(self):
        # A receives nothing at all, so its self-cited rate is undefined
        counts = np.array([[0, 0], [1, 2]])
        d = self_citation_diagnostics(CitationMatrix(JournalSet(("A", "B")), counts))
        assert np.isnan(d.self_cited_rate[0])
        assert d.self_citing_rate[0] == 0.0
        assert d.cited_citing_ratio_without[0] == 0.0

"""Randomized invariants, 100 generated instances per property."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from citeweight import (
    CitationMatrix,
    JournalSet,
    influence_weights,
    margins,
    matrix_power,
    parse_matrix_csv,
    pinski_narin_normalize,
    power_iterate,
    power_weakness_ratio,
    self_citation_sensitivity,
    strip_self_citations,
    transpose,
)
from conftest import matrix_csv

EXAMPLES = settings(max_examples=100, deadline=None)


def make_matrix(rows):
    labels = tuple(f"J{i + 1}" for i in range(len(rows)))
    return CitationMatrix(JournalSet(labels), np.array(rows, dtype=float))


def square_rows(min_value, max_value, min_n=2, max_n=5):
    def rows_of(n):
        return st.lists(
            st.lists(st.integers(min_value, max_value), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )

    return st.integers(min_n, max_n).flatmap(rows_of)


# every journal cites and is cited, so normalization and iteration are safe
positive_matrices = square_rows(1, 50).map(make_matrix)
# zeros allowed: fine for parsing, margins, transposition, and stripping
count_matrices = square_rows(0, 50).map(make_matrix)


@st.composite
def matrix_with_permutation(draw):
    rows = draw(square_rows(1, 50))
    perm = draw(st.permutations(range(len(rows))))
    return make_matrix(rows), list(perm)


@EXAMPLES
@given(positive_matrices)
def test_normalized_rows_sum_to_margin_ratios(m):
    nm = pinski_narin_normalize(m)
    totals = margins(m)
    expected = totals.cited_totals / totals.citing_totals
    assert np.allclose(nm.values.sum(axis=1), expected, rtol=1e-12)


@EXAMPLES
@given(positive_matrices)
def test_citing_margins_are_a_fixed_left_vector(m):
    # multiplying the citing totals through the normalized matrix returns
    # them unchanged, which pins the dominant eigenvalue at one
    nm = pinski_narin_normalize(m)
    citing = margins(m).citing_totals
    assert np.allclose(citing @ nm.values, citing, rtol=1e-12)


@EXAMPLES
@given(positive_matrices, st.integers(-6, 6))
def test_power_of_two_rescaling_is_bitwise_invisible(m, exponent):
    scaled = CitationMatrix(m.journals, m.counts * 2.0**exponent)
    assert np.array_equal(
        pinski_narin_normalize(scaled).values, pinski_narin_normalize(m).values
    )
    assert np.array_equal(
        influence_weights(scaled, cycles=5).values,
        influence_weights(m, cycles=5).values,
    )


@EXAMPLES
@given(
    positive_matrices,
    st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False),
)
def test_general_rescaling_changes_nothing_measurable(m, scale):
    scaled = CitationMatrix(m.journals, m.counts * scale)
    assert np.allclose(
        pinski_narin_normalize(scaled).values,
        pinski_narin_normalize(m).values,
        rtol=1e-12,
    )


@EXAMPLES
@given(positive_matrices, st.integers(1, 8))
def test_iteration_stays_stochastic(m, cycles):
    trace = power_iterate(pinski_narin_normalize(m), cycles=cycles)
    for step in trace.steps:
        assert abs(step.stochastic.sum() - 1.0) <= 1e-12
        assert (step.stochastic >= 0).all()
    assert abs(trace.final.values.sum() - 1.0) <= 1e-12


@EXAMPLES
@given(count_matrices)
def test_strip_is_idempotent_and_shrinks_margins_by_diagonal(m):
    stripped = strip_self_citations(m)
    assert np.array_equal(
        strip_self_citations(stripped).counts, stripped.counts
    )
    diag = np.diagonal(m.counts)
    before = margins(m)
    after = margins(stripped)
    assert np.array_equal(after.cited_totals, before.cited_totals - diag)
    assert np.array_equal(after.citing_totals, before.citing_totals - diag)


@EXAMPLES
@given(count_matrices)
def test_strip_and_transpose_commute(m):
    one_way = strip_self_citations(transpose(m))
    other_way = transpose(strip_self_citations(m))
    assert np.array_equal(one_way.counts, other_way.counts)


@EXAMPLES
@given(positive_matrices, st.integers(-4, 4))
def test_sensitivity_ignores_power_of_two_rescaling(m, exponent):
    scaled = CitationMatrix(m.journals, m.counts * 2.0**exponent)
    base = self_citation_sensitivity(m, "iw", cycles=4)
    rescaled = self_citation_sensitivity(scaled, "iw", cycles=4)
    assert np.array_equal(base.pct_change, rescaled.pct_change)


@EXAMPLES
@given(count_matrices)
def test_margin_totals_agree(m):
    totals = margins(m)
    assert totals.cited_totals.sum() == totals.citing_totals.sum()


@EXAMPLES
@given(count_matrices)
def test_transpose_is_an_involution_that_swaps_margins(m):
    once = transpose(m)
    twice = transpose(once)
    assert np.array_equal(twice.counts, m.counts)
    assert np.array_equal(margins(once).cited_totals, margins(m).citing_totals)


@EXAMPLES
@given(matrix_with_permutation())
def test_weights_follow_journal_reordering(pair):
    m, perm = pair
    labels = tuple(m.journals.labels[i] for i in perm)
    shuffled = CitationMatrix(
        JournalSet(labels), m.counts[np.ix_(perm, perm)]
    )
    w = influence_weights(m, cycles=6)
    w_shuffled = influence_weights(shuffled, cycles=6)
    assert np.allclose(w_shuffled.values, w.values[perm], rtol=1e-9)


@EXAMPLES
@given(count_matrices)
def test_headerless_csv_round_trip(m):
    back = parse_matrix_csv(matrix_csv(m))
    assert np.array_equal(back.counts, m.counts)


@EXAMPLES
@given(count_matrices)
def test_labeled_csv_round_trip(m):
    back = parse_matrix_csv(matrix_csv(m, labeled=True), labeled=True)
    assert back.journals == m.journals
    assert np.array_equal(back.counts, m.counts)


@EXAMPLES
@given(square_rows(0, 9, max_n=4).map(make_matrix), st.integers(1, 3))
def test_matrix_power_matches_triple_loop(m, k):
    a = [[int(v) for v in row] for row in m.counts]
    n = m.n
    expected = a
    for _ in range(k - 1):
        expected = [
            [sum(expected[i][t] * a[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
    assert np.array_equal(matrix_power(m, k), np.array(expected, dtype=float))


@EXAMPLES
@given(positive_matrices, st.sampled_from(["iw", "raw_cited", "cited_citing_ratio"]))
def test_finite_percent_changes_are_bitwise_the_plain_formula(m, indicator):
    report = self_citation_sensitivity(m, indicator, cycles=7)
    formula = (report.without_values - report.with_values) * 100.0 / report.with_values
    finite = np.isfinite(report.pct_change)
    assert report.pct_change[finite].tobytes() == formula[finite].tobytes()


@EXAMPLES
@given(positive_matrices)
def test_first_cycle_ratio_equals_margin_quotient(m):
    result = power_weakness_ratio(m, 1)
    totals = margins(m)
    expected = totals.cited_totals / totals.citing_totals
    assert np.allclose(result.ratio.values, expected, rtol=1e-12)

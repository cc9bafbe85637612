"""Randomized invariants, 100 generated instances per property."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from citeweight import (
    CitationMatrix,
    JournalSet,
    NumericalError,
    influence_weights,
    margins,
    matrix_power,
    parse_matrix_csv,
    pinski_narin_normalize,
    power_iterate,
    power_weakness_ratio,
    self_citation_diagnostics,
    self_citation_sensitivity,
    strip_self_citations,
    transpose,
)
from citeweight.cli import main
from citeweight.matrix import _margins
from citeweight.report import FORMATS
from citeweight.sensitivity import INDICATORS
from conftest import matrix_csv
from gth import gth_weights

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
def sparse_matrices(draw):
    """Counts of 1-50 on 3-8 journals with 0-90% zero cells, whose
    off-diagonal pattern holds a cycle through every journal (so it is
    irreducible) and a 2-cycle and a 3-cycle through one journal (so it
    is aperiodic without the diagonal too)."""
    n = draw(st.integers(3, 8))
    drawn = draw(st.lists(st.integers(1, 50), min_size=n * n, max_size=n * n))
    drawn = np.array(drawn, dtype=float).reshape(n, n)
    counts = drawn.copy()
    zeros = draw(st.integers(0, n * n * 9 // 10))
    counts.flat[draw(st.permutations(range(n * n)))[:zeros]] = 0
    order = draw(st.permutations(range(n)))
    hub, a, b = draw(st.permutations(range(n)))[:3]
    cells = [*zip(order, order[1:] + order[:1]), (hub, a), (a, hub), (a, b), (b, hub)]
    rows, cols = zip(*cells)
    counts[rows, cols] = drawn[rows, cols]
    return make_matrix(counts)


# every journal cites and is cited, dense or with many zero cells
cited_and_citing = st.one_of(positive_matrices, sparse_matrices())


def off_diagonal_null_vector(m):
    """The weights solved directly: the null vector of
    L = diag(off-diagonal citing totals) - off-diagonal counts, scaled to
    sum 1 by putting a row of ones in place of the first row of L."""
    off = m.counts - np.diag(np.diagonal(m.counts))
    lap = np.diag(off.sum(axis=0)) - off
    lap[0] = 1.0
    rhs = np.zeros(m.n)
    rhs[0] = 1.0
    return np.linalg.solve(lap, rhs)


@st.composite
def matrix_with_permutation(draw):
    rows = draw(square_rows(1, 50))
    perm = draw(st.permutations(range(len(rows))))
    return make_matrix(rows), list(perm)


@EXAMPLES
@given(cited_and_citing)
def test_normalized_rows_sum_to_margin_ratios(m):
    nm = pinski_narin_normalize(m)
    totals = margins(m)
    expected = totals.cited_totals / totals.citing_totals
    assert np.allclose(nm.values.sum(axis=1), expected, rtol=1e-12)


@EXAMPLES
@given(cited_and_citing)
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
@given(cited_and_citing, st.integers(1, 8))
def test_iteration_stays_stochastic(m, cycles):
    nm = pinski_narin_normalize(m)
    for k in range(1, cycles + 1):
        vector = power_iterate(nm, cycles=k).final.values
        assert abs(vector.sum() - 1.0) <= 1e-12
        assert (vector >= 0).all()


@EXAMPLES
@given(sparse_matrices())
def test_converged_weights_ignore_self_citations(m):
    # the fixed point R_i w_i = sum_j C_ij w_j loses C_ii w_i on both sides,
    # so the weights with and without self-citations solve one equation
    traces = [
        power_iterate(pinski_narin_normalize(x), tolerance=1e-13, max_cycles=5000)
        for x in (m, strip_self_citations(m))
    ]
    # a few draws mix too slowly for the budget; too many would fail
    # hypothesis's filter health check
    assume(all(trace.converged for trace in traces))
    oracle = off_diagonal_null_vector(m)
    for trace in traces:
        assert np.abs(trace.final.values - oracle).max() <= 1e-8


@EXAMPLES
@given(cited_and_citing)
def test_converged_weights_lie_within_a_bound_of_the_gth_answer(m):
    # the tolerance bounds the last step, not the error; over 39,309
    # converged draws of these strategies the L1 error from GTH reached
    # 5.4e-9, 5.4 times the 1e-9 tolerance
    try:
        weights = influence_weights(m).values
    except NumericalError:
        reject()  # about 3% of sparse draws need more than 100 cycles
    assert np.abs(weights - gth_weights(m.counts)).sum() <= 1e-8


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


@st.composite
def block_spanning_matrices(draw):
    """2-40 journals, so the stripped totals span up to three blocks of
    rows, with cells from a palette of integers, decimals from 1e-300 to
    1e300, -0.0 and cells near the overflow threshold."""
    n = draw(st.integers(2, 40))
    cell = st.one_of(
        st.integers(0, 50).map(float),
        st.floats(1e-300, 1e300),
        st.just(-0.0),
        st.floats(1e307, 1.7e308),
    )
    palette = np.array(draw(st.lists(cell, min_size=1, max_size=6)))
    # a seed, not n * n draws, picks the cells, so a failure shrinks fast
    seed = draw(st.integers(0, 2**32 - 1))
    picks = np.random.default_rng(seed).integers(len(palette), size=(n, n))
    return make_matrix(palette[picks])


@EXAMPLES
@given(block_spanning_matrices(), st.booleans())
def test_stripped_margins_are_those_of_the_stripped_copy(m, transposed):
    # summed a block of rows at a time with no stripped copy, the totals
    # keep the copy's bits, signed zeros included, and its overflow error
    if transposed:
        m = transpose(m)

    def outcome(totals):
        try:
            kept = totals()
        except NumericalError as exc:
            return str(exc)
        return kept.cited_totals.tobytes(), kept.citing_totals.tobytes()

    blocked = outcome(lambda: _margins(m, stripped=True))
    assert blocked == outcome(lambda: margins(strip_self_citations(m)))


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
@given(cited_and_citing)
def test_first_cycle_ratio_equals_margin_quotient(m):
    result = power_weakness_ratio(m, 1)
    totals = margins(m)
    expected = totals.cited_totals / totals.citing_totals
    assert np.allclose(result.ratio.values, expected, rtol=1e-12)


@st.composite
def dominant_diagonal_matrices(draw):
    """Real-valued cells on 2-5 journals: a diagonal from 0.01 to 1, and
    off-diagonal cells from 0.01 to 1 scaled by 1e-2 to 1e-6, so that
    self-citations make up almost every total."""
    n = draw(st.integers(2, 5))
    unit = st.floats(0.01, 1.0)
    counts = np.array(draw(st.lists(unit, min_size=n * n, max_size=n * n))).reshape(n, n)
    counts *= draw(st.sampled_from([1e-2, 1e-3, 1e-4, 1e-5, 1e-6]))
    np.fill_diagonal(counts, draw(st.lists(unit, min_size=n, max_size=n)))
    return make_matrix(counts)


@EXAMPLES
@given(dominant_diagonal_matrices())
def test_diagnosed_cross_traffic_is_the_stripped_margins(m):
    # a total minus its diagonal cell cancels when the diagonal dominates
    diagnostics = self_citation_diagnostics(m)
    stripped = margins(strip_self_citations(m))
    assert np.array_equal(diagnostics.cited_by_others, stripped.cited_totals)
    assert np.array_equal(diagnostics.citing_others, stripped.citing_totals)
    raw = self_citation_sensitivity(m, "raw_cited")
    ratio = self_citation_sensitivity(m, "cited_citing_ratio")
    assert np.array_equal(raw.without_values, diagnostics.cited_by_others)
    assert np.array_equal(ratio.without_values, stripped.cited_totals / stripped.citing_totals)


@EXAMPLES
@given(cited_and_citing, st.sampled_from(INDICATORS), st.sampled_from([None, 7]))
# in tolerance mode the with-run of this matrix needs 127 cycles and the
# stripped run 225, both over the budget, and their messages differ; only
# calls that succeed are compared
@example(
    make_matrix(
        [[0, 1, 1, 0, 0], [1, 0, 1, 0, 1], [1, 0, 0, 0, 0], [1, 0, 1, 1, 0], [0, 1, 1, 1, 0]]
    ),
    "iw",
    None,
)
def test_without_values_are_the_indicator_of_the_stripped_matrix(m, indicator, cycles):
    try:
        report = self_citation_sensitivity(m, indicator, cycles=cycles)
    except NumericalError:
        reject()
    again = self_citation_sensitivity(strip_self_citations(m), indicator, cycles=cycles)
    assert report.without_values.tobytes() == again.with_values.tobytes()
    diagnostics = self_citation_diagnostics(m)
    if indicator == "cited_citing_ratio":
        assert report.with_values.tobytes() == diagnostics.cited_citing_ratio_with.tobytes()
        assert report.without_values.tobytes() == diagnostics.cited_citing_ratio_without.tobytes()
    elif indicator == "raw_cited":
        assert report.without_values.tobytes() == diagnostics.cited_by_others.tobytes()


@st.composite
def zero_heavy_matrices(draw):
    """Counts of 1-9 on 2-6 journals with at least 40% zero cells, and up
    to two extreme cells from 1e-300 to 1.7e308."""
    n = draw(st.integers(2, 6))
    counts = np.array(draw(st.lists(st.integers(1, 9), min_size=n * n, max_size=n * n)), float)
    cells = draw(st.permutations(range(n * n)))
    extremes = draw(st.lists(st.floats(1e-300, 1.7e308), max_size=2))
    counts[cells[: len(extremes)]] = extremes
    zeros = draw(st.integers(-(-4 * n * n // 10), n * n))
    counts[cells[n * n - zeros :]] = 0
    return make_matrix(counts.reshape(n, n))


@EXAMPLES
@given(zero_heavy_matrices(), st.sampled_from(INDICATORS), st.sampled_from([None, 1, 7]))
# A's stripped reference total is 1e-300, so its stripped row bound
# overflows, and its self-citation cell would too, were it not zeroed
# before the overflow scan
@example(make_matrix([[1e9, 1e8, 1e8], [1e-300, 1, 1], [0, 1, 1]]), "iw", 7)
# B's cited total overflows with self-citations and not without
@example(make_matrix([[1, 1, 1], [1, 1.7e308, 1.7e308], [1, 0, 1]]), "raw_cited", None)
def test_without_run_fails_as_the_stripped_matrix_does(m, indicator, cycles):
    # the without-run reads the counts and the stripped totals; its values,
    # and the error of whichever run fails first, must be those of the
    # with-run and then the stripped copy
    def outcome(run):
        try:
            return run().tobytes()
        except NumericalError as exc:
            return str(exc)

    if indicator == "iw":
        with_run = outcome(lambda: influence_weights(m, cycles=cycles).values)
    else:
        with_run = outcome(lambda: margins(m).cited_totals)
    stripped_run = outcome(
        lambda: self_citation_sensitivity(
            strip_self_citations(m), indicator, cycles=cycles
        ).with_values
    )
    expected = with_run if isinstance(with_run, str) else stripped_run
    without_run = outcome(
        lambda: self_citation_sensitivity(m, indicator, cycles=cycles).without_values
    )
    assert without_run == expected


CLI_FORMS = (
    ["iw"],
    ["iw", "--no-self-citations"],
    ["pwr"],
    ["normalize"],
    ["power", "-k", "2"],
    ["diagnose"],
    *(["sensitivity", "--indicator", indicator] for indicator in INDICATORS),
    ["fit"],
)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@EXAMPLES
@given(zero_heavy_matrices())
def test_cli_contract_holds_on_zero_heavy_input(m):
    # every subcommand and format: a known exit code; on failure one stderr
    # line and no report; JSON in the canonical form; and no tolerance-mode
    # iw run reports success without converging
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_text(matrix_csv(m), encoding="utf-8")
        for form in CLI_FORMS:
            for fmt in FORMATS:
                code, out, err = run_cli(*form, str(path), "--format", fmt)
                assert code in (0, 2, 3), (form, fmt, err)
                if code != 0:
                    assert out == "" and len(err.splitlines()) == 1, (form, fmt, err)
                    continue
                assert err == "", (form, fmt)
                if fmt == "json":
                    payload = json.loads(out)
                    assert out == json.dumps(payload, indent=2, allow_nan=False) + "\n"
                    if form[0] == "iw":
                        assert payload["meta"]["converged"] is True

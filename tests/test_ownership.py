"""Who holds the arrays.

The public constructors copy and check what the caller passes in.  Parsed
counts get the same checks and messages, without the copy.  A matrix the
package derives from checked counts (by transposing, stripping or
normalizing) is wrapped as it is built, neither copied nor scanned again,
and so is a weight vector it derives by iterating or dividing.  A
transpose is a view of the counts it came from; every other derived array
shares no memory with its source.  Each is read-only, as is every array
of a result the package returns.
The memory bounds are traced with tracemalloc, which sees numpy's data
buffers, at n=512, where one float64 matrix takes 2 MiB.
"""

import tracemalloc

import numpy as np
import pytest

from citeweight import (
    CitationDataError,
    CitationMatrix,
    JournalSet,
    NormalizedMatrix,
    NumericalError,
    WeightVector,
    influence_weights,
    margins,
    matrix_power,
    parse_matrix_csv,
    pinski_narin_normalize,
    power_iterate,
    power_weakness_ratio,
    price_matrix,
    self_citation_diagnostics,
    self_citation_sensitivity,
    strip_self_citations,
    transpose,
)

N = 512
MATRIX_BYTES = N * N * 8


@pytest.mark.parametrize(
    "build, attribute, source",
    [
        (CitationMatrix, "counts", np.array([[1.0, 2.0], [3.0, 4.0]])),
        (NormalizedMatrix, "values", np.array([[0.25, 0.5], [0.75, 0.5]])),
        (WeightVector, "values", np.array([0.25, 0.75])),
    ],
    ids=["CitationMatrix", "NormalizedMatrix", "WeightVector"],
)
def test_public_constructors_copy_their_input(build, attribute, source):
    held = getattr(build(JournalSet(("A", "B")), source), attribute)
    before = held.copy()
    assert not np.shares_memory(held, source)
    source[...] = 9.0
    assert held.tobytes() == before.tobytes()
    assert not held.flags.writeable


def _package_matrices():
    m = parse_matrix_csv("5,1,2\n1,6,3\n2,2,4\n")
    return {
        "parse": (None, m.counts),
        "price_matrix": (None, price_matrix().counts),
        "transpose": (m.counts, transpose(m).counts),
        "strip_self_citations": (m.counts, strip_self_citations(m).counts),
        "pinski_narin_normalize": (m.counts, pinski_narin_normalize(m).values),
    }


@pytest.mark.parametrize("name", list(_package_matrices()))
def test_package_matrices_are_read_only_and_unshared(name):
    source, result = _package_matrices()[name]
    assert not result.flags.writeable
    with pytest.raises(ValueError):
        result[0, 0] = 1.0
    if source is not None:
        # a transpose is a view of the counts by design
        assert np.shares_memory(result, source) == (name == "transpose")


def _result_arrays():
    m = price_matrix()
    diagnostics = self_citation_diagnostics(m)
    sensitivity = self_citation_sensitivity(m, cycles=7)
    totals = margins(m)
    arrays = {
        f"diagnostics.{name}": getattr(diagnostics, name)
        for name in (
            "self_citations",
            "cited_by_others",
            "citing_others",
            "self_cited_rate",
            "self_citing_rate",
            "cited_citing_ratio_with",
            "cited_citing_ratio_without",
        )
    }
    for name in ("with_values", "without_values", "pct_change"):
        arrays[f"sensitivity.{name}"] = getattr(sensitivity, name)
    arrays["margins.cited_totals"] = totals.cited_totals
    arrays["margins.citing_totals"] = totals.citing_totals
    for k in (1, 3):
        arrays[f"matrix_power.k{k}"] = matrix_power(m, k)
    arrays["influence_weights"] = influence_weights(m).values
    pwr = power_weakness_ratio(m, 7)
    for name in ("power", "weakness", "ratio"):
        arrays[f"pwr.{name}"] = getattr(pwr, name).values
    return arrays


@pytest.mark.parametrize("name", list(_result_arrays()))
def test_result_arrays_are_read_only(name):
    values = _result_arrays()[name]
    with pytest.raises(ValueError):
        values[0] = 1.0


def test_matrix_power_of_one_does_not_share_the_counts(price):
    assert not np.shares_memory(matrix_power(price, 1), price.counts)


def test_iteration_vectors_are_read_only_and_distinct(price):
    nm = pinski_narin_normalize(price)
    traces = [power_iterate(nm, cycles=k) for k in range(1, 5)]
    vectors = [v for t in traces for v in (t.product, t.final.values)]
    assert not any(v.flags.writeable for v in vectors)
    for i, a in enumerate(vectors):
        for b in vectors[i + 1 :]:
            assert not np.shares_memory(a, b)


def test_adopted_arrays_keep_the_constructor_messages():
    with pytest.raises(CitationDataError) as negative:
        parse_matrix_csv("1,2\n-3,4\n")
    assert str(negative.value) == "cell (1, 0) is negative: -3"
    with pytest.raises(CitationDataError) as infinite:
        parse_matrix_csv("1,2\n3,inf\n")
    assert str(infinite.value) == "cell (1, 1) is not finite"
    # B's reference total is 1e-300, so 1e308 / 1e-300 overflows
    m = CitationMatrix(JournalSet(("A", "B")), np.array([[0.0, 1e308], [1e-300, 1.0]]))
    with pytest.raises(NumericalError) as overflow:
        pinski_narin_normalize(m)
    assert str(overflow.value) == "normalized cell ('A', 'B') overflowed"


@pytest.mark.parametrize("build", [CitationMatrix, NormalizedMatrix])
@pytest.mark.parametrize(
    "values, message",
    [
        ([[1.0, 2.0, 3.0]], "2 journal labels need a square 2x2 matrix, got shape (1, 3)"),
        ([[-1.0, np.nan], [np.inf, 1.0]], "cell (0, 1) is not finite"),
        ([[1.0, 2.0], [-3.0, -4.0]], "cell (1, 0) is negative: -3"),
    ],
)
def test_public_constructors_name_the_first_bad_cell(build, values, message):
    with pytest.raises(CitationDataError) as exc:
        build(JournalSet(("A", "B")), np.array(values))
    assert str(exc.value) == message


def _traced_peak(func, *args):
    """Bytes allocated at the peak of ``func(*args)`` above what was live
    when it started."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        func(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def large():
    counts = np.random.default_rng(512).integers(1, 500, size=(N, N))
    return CitationMatrix(JournalSet(tuple(f"J{i}" for i in range(N))), counts)


@pytest.mark.parametrize("func", [strip_self_citations, pinski_narin_normalize, transpose])
def test_derived_matrix_is_built_once(large, func):
    # the result and a few n-vectors; a scan of its cells would add an
    # n-by-n boolean temporary, an eighth of a matrix
    assert _traced_peak(func, large) <= 1.1 * MATRIX_BYTES


def test_parse_holds_no_second_copy_of_the_text():
    # One-character fields are CPython's cached strings, so the row lists
    # cost one pointer per cell: a matrix's worth, and the result another.
    # A copy of the text at four bytes a character would add a third.
    digits = np.random.default_rng(512).integers(1, 10, size=(N, N))
    text = "".join(",".join(map(str, row)) + "\n" for row in digits.tolist())
    assert _traced_peak(parse_matrix_csv, text) <= 2.5 * MATRIX_BYTES


def test_parse_of_integer_text_holds_the_counts_once():
    # Fields of up to seven digits make the lines of the text about a
    # matrix's worth, and the int64 counts another; cast to float64 in
    # place, they are never held twice, which would add a third.
    counts = np.random.default_rng(512).integers(1, 10**6, size=(N, N), endpoint=True)
    text = "".join(",".join(map(str, row)) + "\n" for row in counts.tolist())
    assert _traced_peak(parse_matrix_csv, text) <= 2.5 * MATRIX_BYTES


def test_non_square_plain_grid_is_refused_after_one_read():
    # 16 rows of 4,096 two-digit fields: numpy's read of the lines into
    # counts peaks near 0.6 of a matrix; reading the text again as csv
    # rows, a str per field, took that near two matrices.
    text = ("10," * 4095 + "10\n") * 16

    def refuse():
        with pytest.raises(CitationDataError) as exc:
            parse_matrix_csv(text, max_size=N)
        assert str(exc.value) == "matrix must be square, got 16 rows x 4096 columns"

    assert _traced_peak(refuse) <= MATRIX_BYTES


@pytest.mark.parametrize(
    "before, func, matrices",
    [
        # the with-run's trace is kept, so the one matrix is the counts
        # normalized by the stripped totals; a stripped copy beside it
        # would make two
        (influence_weights, self_citation_sensitivity, 1.1),
        # the stripped totals were kept by the sensitivity run, so no
        # n-by-n array is made at all
        (self_citation_sensitivity, self_citation_diagnostics, 0.1),
    ],
    ids=["sensitivity-after-weights", "diagnostics-after-sensitivity"],
)
def test_without_self_citations_needs_no_stripped_copy(large, before, func, matrices):
    m = CitationMatrix(large.journals, large.counts)
    before(m)
    assert _traced_peak(func, m) <= matrices * MATRIX_BYTES


def test_a_matrix_keeps_no_n_by_n_array(large):
    # what a matrix keeps after these calls is its margin totals, those of
    # its stripped copy and one influence trace, a few n-vectors; the
    # normalized, stripped and transposed matrices the calls made are gone
    # with their results
    m = CitationMatrix(large.journals, large.counts)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        influence_weights(m)
        self_citation_sensitivity(m)
        self_citation_diagnostics(m)
        margins(m)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 32 * N * 8

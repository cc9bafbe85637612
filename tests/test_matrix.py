import csv
import time
import types

import numpy as np
import pytest

import citeweight.matrix
import golden_values as gv
from citeweight import (
    CitationDataError,
    CitationMatrix,
    JournalSet,
    NumericalError,
    margins,
    matrix_power,
    parse_matrix_csv,
    price_matrix,
    strip_self_citations,
    transpose,
)
from conftest import matrix_csv


class TestJournalSet:
    def test_basic(self):
        js = JournalSet(("A", "B"))
        assert len(js) == 2
        assert list(js) == ["A", "B"]

    def test_duplicate_labels_rejected(self):
        with pytest.raises(CitationDataError, match="duplicate"):
            JournalSet(("A", "A"))

    def test_empty_label_rejected(self):
        with pytest.raises(CitationDataError):
            JournalSet(("A", ""))

    def test_empty_set_rejected(self):
        with pytest.raises(CitationDataError, match="journal set is empty"):
            JournalSet(())


class TestCitationMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(CitationDataError, match="square"):
            CitationMatrix(JournalSet(("A", "B")), np.ones((2, 3)))

    def test_rejects_one_by_one(self):
        with pytest.raises(CitationDataError, match="2x2"):
            CitationMatrix(JournalSet(("A",)), np.ones((1, 1)))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(CitationDataError):
            CitationMatrix(JournalSet(("A", "B", "C")), np.ones((2, 2)))

    def test_rejects_negative_cell_naming_it(self):
        counts = np.array([[1.0, 2.0], [-3.0, 4.0]])
        with pytest.raises(CitationDataError, match=r"cell \(1, 0\)"):
            CitationMatrix(JournalSet(("A", "B")), counts)

    def test_rejects_non_finite(self):
        counts = np.array([[1.0, np.inf], [3.0, 4.0]])
        with pytest.raises(CitationDataError):
            CitationMatrix(JournalSet(("A", "B")), counts)

    def test_counts_are_write_protected(self, price):
        with pytest.raises(ValueError):
            price.counts[0, 0] = 99.0

    def test_input_array_not_aliased(self):
        source = np.ones((2, 2))
        m = CitationMatrix(JournalSet(("A", "B")), source)
        source[0, 0] = 7.0
        assert m.counts[0, 0] == 1.0


class TestParse:
    def test_headerless_with_generated_labels(self):
        m = parse_matrix_csv("1,2\n3,4\n")
        assert m.journals.labels == ("J1", "J2")
        assert m.counts.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_crlf_and_trailing_blank_lines(self):
        m = parse_matrix_csv("1,2\r\n3,4\r\n\r\n")
        assert m.counts.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_bytes_input(self):
        m = parse_matrix_csv(b"1,2\n3,4\n")
        assert m.counts[1, 0] == 3.0

    @pytest.mark.parametrize(
        "data", ["\ufeff1,2\n3,4\n", "\ufeff1,2\n3,4\n".encode("utf-8")], ids=["str", "bytes"]
    )
    def test_leading_byte_order_mark_is_skipped(self, data):
        assert parse_matrix_csv(data).counts.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_byte_order_mark_before_a_quoted_corner_cell(self):
        # after an unskipped mark the quote no longer opens the field, and
        # the comma inside it splits the header row
        m = parse_matrix_csv('\ufeff"cited, citing",A,B\nA,1,2\nB,3,4\n', labeled=True)
        assert m.journals.labels == ("A", "B")
        assert m.counts.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_only_one_byte_order_mark_is_skipped(self):
        with pytest.raises(CitationDataError, match=r"row 1, column 1: '\\ufeff1'"):
            parse_matrix_csv("\ufeff\ufeff1,2\n3,4\n")

    def test_labeled_round_trip(self, price):
        text = matrix_csv(price, labeled=True)
        back = parse_matrix_csv(text, labeled=True)
        assert back.journals == price.journals
        assert np.array_equal(back.counts, price.counts)

    def test_headerless_round_trip(self, price):
        back = parse_matrix_csv(matrix_csv(price))
        assert np.array_equal(back.counts, price.counts)

    def test_labels_with_commas_are_quoted(self):
        text = 'journal,"X, Y",B\n"X, Y",1,2\nB,3,4\n'
        back = parse_matrix_csv(text, labeled=True)
        assert back.journals.labels == ("X, Y", "B")

    def test_labeled_header_and_first_column_must_agree(self):
        text = "journal,A,B\nA,1,2\nC,3,4\n"
        with pytest.raises(CitationDataError):
            parse_matrix_csv(text, labeled=True)

    def test_ragged_row_names_line(self):
        with pytest.raises(CitationDataError, match="line 2"):
            parse_matrix_csv("1,2\n3\n")

    @pytest.mark.parametrize(
        "text, labeled, message",
        [
            ("1,2\n\n3,4,5\n", False, "ragged row: line 3 has 3 fields, expected 2"),
            ("1,2\r\r3,4,5\r", False, "ragged row: line 3 has 3 fields, expected 2"),
            (',"A\nx",B\n"A\nx",1,2\nB,3\n', True, "ragged row: line 5 has 2 fields, expected 3"),
        ],
        ids=["blank-line", "blank-line-bare-cr", "two-line-label"],
    )
    def test_ragged_row_line_counts_every_line_of_the_input(self, text, labeled, message):
        with pytest.raises(CitationDataError) as exc:
            parse_matrix_csv(text, labeled=labeled)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [
            ("journal,A,B\nA,1,2\nB,3\n", "ragged row: line 3 has 2 fields, expected 3"),
            ("journal,A\nA,1,2\nB,3,4\n", "ragged row: line 2 has 3 fields, expected 2"),
        ],
    )
    def test_labeled_ragged_row_counts_the_header_as_line_one(self, text, message):
        with pytest.raises(CitationDataError) as exc:
            parse_matrix_csv(text, labeled=True)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "text, labeled", [("x\n", False), ("j,A\nA,foo\n", True)], ids=["headerless", "labeled"]
    )
    def test_one_by_one_grid_is_refused_before_its_cell(self, text, labeled):
        with pytest.raises(CitationDataError) as exc:
            parse_matrix_csv(text, labeled=labeled)
        assert str(exc.value) == "matrix must be at least 2x2, got 1x1"

    def test_non_numeric_cell_named(self):
        with pytest.raises(CitationDataError, match="row 2.*column 1"):
            parse_matrix_csv("1,2\nx,4\n")

    def test_negative_count_rejected(self):
        with pytest.raises(CitationDataError):
            parse_matrix_csv("1,2\n-3,4\n")

    def test_max_size_message_mentions_the_knob(self):
        text = "\n".join(",".join("1" for _ in range(3)) for _ in range(3))
        with pytest.raises(CitationDataError, match="max_size"):
            parse_matrix_csv(text, max_size=2)

    def test_max_size_can_be_raised(self):
        text = "\n".join(",".join("1" for _ in range(3)) for _ in range(3))
        assert parse_matrix_csv(text, max_size=3).n == 3

    @pytest.mark.parametrize("max_size", [-1, 0, 1])
    def test_max_size_below_two_is_rejected_up_front(self, max_size):
        text = "\n".join(",".join("1" for _ in range(50)) for _ in range(50))
        with pytest.raises(CitationDataError, match=f"max_size must be at least 2, got {max_size}"):
            parse_matrix_csv(text, max_size=max_size)

    @pytest.mark.parametrize("max_size", [float("nan"), 2.5, "3"], ids=["nan", "2.5", "str"])
    def test_non_integer_max_size_is_rejected_up_front(self, max_size):
        # nan compares False with every row count, so it would lift the cap
        text = "\n".join(",".join("1" for _ in range(50)) for _ in range(50))
        expected = f"^max_size must be an integer, got {max_size!r}$"
        with pytest.raises(CitationDataError, match=expected):
            parse_matrix_csv(text, max_size=max_size)

    @pytest.mark.parametrize("labeled", ["yes", None, 1, 0], ids=["str", "none", "one", "zero"])
    def test_non_bool_labeled_is_rejected_up_front(self, labeled):
        with pytest.raises(CitationDataError) as exc:
            parse_matrix_csv("1,2\n3,4\n", labeled=labeled)
        assert str(exc.value) == f"labeled must be a bool, got {labeled!r}"

    def test_numpy_bool_labeled_is_accepted(self):
        assert parse_matrix_csv("j,A,B\nA,1,2\nB,3,4\n", labeled=np.True_).n == 2
        assert parse_matrix_csv("1,2\n3,4\n", labeled=np.False_).n == 2

    @pytest.mark.parametrize(
        "data", [bytearray(b"1,2\n3,4\n"), memoryview(b"1,2\n3,4\n"), ["1,2", "3,4"]],
        ids=["bytearray", "memoryview", "list"],
    )
    def test_data_that_is_not_text_or_bytes_is_rejected_up_front(self, data):
        expected = f"^data must be str or bytes, got {type(data).__name__}$"
        with pytest.raises(CitationDataError, match=expected):
            parse_matrix_csv(data)

    def test_first_bad_cell_in_row_major_order_is_named(self):
        with pytest.raises(CitationDataError, match=r"row 1, column 2: 'x'"):
            parse_matrix_csv("1,x\ny,4\n")

    def test_labeled_bad_cell_is_counted_from_the_first_count(self):
        with pytest.raises(CitationDataError, match=r"row 2, column 1: ''"):
            parse_matrix_csv("journal,A,B\nA,1,2\nB,,4\n", labeled=True)

    @pytest.mark.parametrize(
        "text, labeled",
        [("1,1\n1,x\n", False), ("journal,A,B\nA,1,1\nB,1,x\n", True)],
        ids=["headerless", "labeled"],
    )
    def test_last_bad_cell_is_named(self, text, labeled):
        with pytest.raises(CitationDataError, match=r"row 2, column 2: 'x'$"):
            parse_matrix_csv(text, labeled=labeled)

    def test_non_finite_and_negative_cells_keep_their_own_messages(self):
        with pytest.raises(CitationDataError, match=r"cell \(0, 1\) is not finite"):
            parse_matrix_csv("1,nan\n3,4\n")
        with pytest.raises(CitationDataError, match=r"cell \(1, 0\) is negative"):
            parse_matrix_csv("1,2\n-3,4\n")

    def _count_rows_read(self, monkeypatch):
        read = []

        # a real reader, which the parser asks for its line_num, fed through a
        # counter; each row of these tests is one line
        def counting_reader(lines, *args, **kwargs):
            def counted():
                for line in lines:
                    read.append(line)
                    yield line

            return csv.reader(counted(), *args, **kwargs)

        # the parser also names csv.Error, to turn a reader error into a data error
        counting_csv = types.SimpleNamespace(reader=counting_reader, Error=csv.Error)
        monkeypatch.setattr(citeweight.matrix, "csv", counting_csv)
        return read

    def test_size_cap_stops_reading_at_the_first_row_past_it(self, monkeypatch):
        read = self._count_rows_read(monkeypatch)
        with pytest.raises(CitationDataError, match="max_size"):
            parse_matrix_csv("1,1\n" * 5000, max_size=4)
        # the four rows the cap allows, then the one that breaks it
        assert len(read) == 5

    def test_labeled_size_cap_does_not_count_the_header(self, monkeypatch):
        read = self._count_rows_read(monkeypatch)
        header = "journal," + ",".join(f"J{i}" for i in range(5000)) + "\n"
        with pytest.raises(CitationDataError, match="max_size"):
            parse_matrix_csv(header + "J0,1\n" * 5000, labeled=True, max_size=4)
        assert len(read) == 6
        labeled = "journal,A,B\nA,1,2\nB,3,4\n"
        assert parse_matrix_csv(labeled, labeled=True, max_size=2).n == 2

    def test_size_cap_bounds_the_lines_numpy_reads(self, monkeypatch):
        handed, loadtxt = [], np.loadtxt

        def counting_loadtxt(lines, *args, **kwargs):
            handed.append(len(lines))
            return loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
        for text in ("1,1\n" * 5000, "1,1\n" * 5, "1,1\n\n" * 5, "1,1\r\n" * 5):
            with pytest.raises(CitationDataError, match="max_size"):
                parse_matrix_csv(text, max_size=4)
        assert parse_matrix_csv("1,1,1,1\n\n" * 4, max_size=4).n == 4
        assert handed and max(handed) <= 4

    def test_plain_headerless_grid_is_read_without_the_csv_reader(self, monkeypatch):
        def no_reader(*args, **kwargs):
            raise AssertionError("plain headerless text went to csv.reader")

        monkeypatch.setattr(csv, "reader", no_reader)
        counts = np.arange(64 * 64, dtype=float).reshape(64, 64)
        text = "".join(",".join(f"{v:g}" for v in row) + "\n" for row in counts)
        m = parse_matrix_csv(text, max_size=64)
        assert m.counts.tobytes() == counts.tobytes()
        assert m.counts.flags.c_contiguous

    @pytest.mark.parametrize(
        "text, readers",
        [
            ("1,2\n3,4\n", ["int64"]),
            ("99999999999999999999,2\n3,4\n", ["int64", "csv"]),
            ("1.5,2\n3,4\n", ["csv"]),
            ("-0,2\n3,4\n", ["csv"]),
        ],
        ids=["integers", "past-int64", "fraction", "minus-zero"],
    )
    def test_integer_text_takes_the_integer_reader(self, monkeypatch, text, readers):
        calls, loadtxt, reader = [], np.loadtxt, csv.reader

        def recorded(lines, *args, dtype, **kwargs):
            calls.append(np.dtype(dtype).name)
            # one row per line, so numpy allocates the counts once
            assert kwargs.get("max_rows") == len(lines)
            return loadtxt(lines, *args, dtype=dtype, **kwargs)

        def recorded_reader(*args, **kwargs):
            calls.append("csv")
            return reader(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", recorded)
        monkeypatch.setattr(csv, "reader", recorded_reader)
        parse_matrix_csv(text)
        assert calls == readers

    def test_blank_lines_do_not_count_toward_the_size_cap(self):
        assert parse_matrix_csv("1,2\n\n\n3,4\n\n", max_size=2).n == 2

    def test_fractional_counts_allowed(self):
        m = parse_matrix_csv("1.5,2\n3,4.25\n")
        assert m.counts[1, 1] == 4.25


class TestMargins:
    def test_embedded_dataset_totals(self, price):
        totals = margins(price)
        assert totals.cited_totals.tolist() == list(gv.CITED_TOTALS)
        assert totals.citing_totals.tolist() == list(gv.CITING_TOTALS)
        assert totals.cited_totals.sum() == gv.GRAND_TOTAL

    def test_overflowed_total_is_named(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.full((2, 2), 1e308))
        with pytest.raises(NumericalError, match="cited total of journal 'A' overflowed"):
            margins(m)

    def test_overflowed_citing_total_is_named(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[1.0, 1e308], [1.0, 1e308]]))
        with pytest.raises(NumericalError, match="citing total of journal 'B' overflowed"):
            margins(m)

    def test_orientation_swap_swaps_margins(self, price):
        flipped = margins(transpose(price))
        assert flipped.cited_totals.tolist() == list(gv.CITING_TOTALS)
        assert flipped.citing_totals.tolist() == list(gv.CITED_TOTALS)


class TestTranspose:
    def test_involution(self, price):
        back = transpose(transpose(price))
        assert np.array_equal(back.counts, price.counts)


class TestStrip:
    def test_zeroes_diagonal_only(self, price):
        stripped = strip_self_citations(price)
        assert np.all(np.diagonal(stripped.counts) == 0)
        off = ~np.eye(price.n, dtype=bool)
        assert np.array_equal(stripped.counts[off], price.counts[off])

    def test_first_journal_margins_after_strip(self, price):
        totals = margins(strip_self_citations(price))
        assert totals.cited_totals[0] == gv.STRIPPED_J1_CITED
        assert totals.citing_totals[0] == gv.STRIPPED_J1_CITING

    def test_idempotent(self, price):
        once = strip_self_citations(price)
        again = strip_self_citations(once)
        assert np.array_equal(once.counts, again.counts)


class TestMatrixPower:
    def test_rejects_zero_and_negative_k(self, small):
        for k in (0, -1):
            with pytest.raises(CitationDataError):
                matrix_power(small, k)

    def test_rejects_non_integer_k(self, small):
        for k in (1.5, True):
            with pytest.raises(CitationDataError, match="integer k >= 1"):
                matrix_power(small, k)

    def test_power_one_is_the_matrix(self, small):
        assert np.array_equal(matrix_power(small, 1), small.counts)

    def test_squared_top_left_of_embedded_dataset(self, price):
        assert matrix_power(price, 2)[0, 0] == gv.SQUARED_TOP_LEFT

    def test_matches_triple_loop(self, small):
        # independent O(n^3) re-computation, no numpy matmul involved
        a = small.counts
        n = small.n
        expected = [
            [sum(a[i][t] * a[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert np.allclose(matrix_power(small, 2), expected, rtol=0, atol=0)

    def test_cubed_matches_repeated_squaring_oracle(self, small):
        a = small.counts
        assert np.allclose(matrix_power(small, 3), a @ a @ a, rtol=1e-13)

    def test_overflow_names_cell_and_step(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.full((2, 2), 1e300))
        with pytest.raises(NumericalError, match="overflow"):
            matrix_power(m, 2)

    def test_exponent_additivity(self, price):
        combined = matrix_power(price, 3)
        staged = matrix_power(price, 1) @ matrix_power(price, 2)
        assert np.allclose(combined, staged, rtol=1e-9)

    def test_overflow_names_the_power_being_formed(self):
        # 1e100 * 1e100 * 2 is finite, the fourth power is not
        m = CitationMatrix(JournalSet(("A", "B")), np.full((2, 2), 1e100))
        assert np.isfinite(matrix_power(m, 3)).all()
        with pytest.raises(NumericalError, match=r"cell \('A', 'A'\) while computing power 4"):
            matrix_power(m, 4)

    def test_huge_k_takes_logarithmically_many_products(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[0, 1], [1, 0]]))
        start = time.perf_counter()
        assert matrix_power(m, 10**8).tolist() == [[1.0, 0.0], [0.0, 1.0]]
        assert matrix_power(m, 10**8 + 1).tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert time.perf_counter() - start < 1.0

    def test_k_from_two_to_the_64_is_refused_before_any_product(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[0, 1], [1, 0]]))
        assert matrix_power(m, 2**64 - 1).tolist() == [[0.0, 1.0], [1.0, 0.0]]
        for k in (2**64, 2**64 + 1, 10**4299):
            with pytest.raises(CitationDataError) as info:
                matrix_power(m, k)
            message = str(info.value)
            assert message.startswith("matrix power requires k below 2**64, got a ")
            assert str(k) not in message

    @pytest.mark.parametrize("k", range(1, 9))
    def test_square_and_multiply_matches_repeated_products(self, small, k):
        expected = small.counts
        for _ in range(k - 1):
            expected = expected @ small.counts
        assert np.array_equal(matrix_power(small, k), expected)

    def test_unipotent_cube(self):
        m = CitationMatrix(JournalSet(("A", "B")), np.array([[1, 1], [0, 1]]))
        assert matrix_power(m, 3).tolist() == [[1.0, 3.0], [0.0, 1.0]]


def test_strip_and_transpose_commute(price):
    one_way = strip_self_citations(transpose(price))
    other_way = transpose(strip_self_citations(price))
    assert np.array_equal(one_way.counts, other_way.counts)

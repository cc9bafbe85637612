import json
import os
import subprocess
import sys
import tomllib
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import golden_values as gv
from citeweight import __version__, price_matrix
from citeweight.cli import build_parser, main
from citeweight.matrix import parse_matrix_csv
from citeweight.metrics import CYCLE_CEILING
from citeweight.report import FORMATS
from conftest import matrix_csv


def run(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def run_process(args, stdin_text=None):
    return subprocess.run(
        [sys.executable, "-m", "citeweight", *args],
        capture_output=True,
        text=True,
        encoding="utf-8",
        input=stdin_text,
        timeout=60,
    )


@pytest.fixture
def price_csv(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(matrix_csv(price_matrix()), encoding="utf-8")
    return str(path)


@pytest.fixture
def price_labeled_csv(tmp_path):
    path = tmp_path / "labeled.csv"
    path.write_text(matrix_csv(price_matrix(), labeled=True), encoding="utf-8")
    return str(path)


class TestIw:
    def test_table_output(self, capsys):
        code, out, err = run(capsys, "iw", "--fixture", "price", "--iterations", "7")
        assert code == 0
        assert err == ""
        assert "Influence weights (7 cycles)" in out
        assert "Nature" in out
        assert "0.194241723644" in out

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys, "iw", "--fixture", "price", "--iterations", "7", "--format", "csv"
        )
        lines = out.strip().split("\n")
        assert lines[0] == "journal,weight"
        assert len(lines) == 9

    def test_json_matches_csv_values(self, capsys):
        _, csv_out, _ = run(
            capsys, "iw", "--fixture", "price", "--iterations", "7", "--format", "csv"
        )
        _, json_out, _ = run(
            capsys, "iw", "--fixture", "price", "--iterations", "7", "--format", "json"
        )
        payload = json.loads(json_out)
        for line in csv_out.strip().split("\n")[1:]:
            label, value = line.rsplit(",", 1)
            assert payload[label] == float(value)

    def test_json_meta(self, capsys):
        _, out, _ = run(capsys, "iw", "--fixture", "price", "--format", "json")
        meta = json.loads(out)["meta"]
        assert meta["indicator"] == "iw"
        assert meta["converged"] is True
        assert meta["self_citations"] is True
        assert meta["transposed"] is False
        assert meta["source"] == "fixture:price"
        assert meta["tolerance"] == 1e-9
        assert meta["iterations"] < 100

    def test_journal_order_preserved_in_json(self, capsys):
        _, out, _ = run(capsys, "iw", "--fixture", "price", "--format", "json")
        keys = list(json.loads(out))
        assert keys[:-1] == list(price_matrix().journals.labels)
        assert keys[-1] == "meta"

    def test_explicit_self_citations_flag(self, capsys):
        _, out, _ = run(
            capsys,
            "iw",
            "--fixture",
            "price",
            "--self-citations",
            "--iterations",
            "7",
            "--format",
            "csv",
        )
        values = [float(line.rsplit(",", 1)[1]) for line in out.strip().split("\n")[1:]]
        assert tuple(round(v, 4) for v in values) == gv.IW7_WITH

    def test_no_self_citations_variant(self, capsys):
        _, with_out, _ = run(
            capsys, "iw", "--fixture", "price", "--iterations", "7", "--format", "json"
        )
        _, without_out, _ = run(
            capsys,
            "iw",
            "--fixture",
            "price",
            "--iterations",
            "7",
            "--no-self-citations",
            "--format",
            "json",
        )
        with_payload = json.loads(with_out)
        without_payload = json.loads(without_out)
        assert without_payload["meta"]["self_citations"] is False
        assert round(without_payload["Nature"], 4) == 0.1947
        assert round(with_payload["Nature"], 4) == 0.1942

    def test_file_input_matches_fixture(self, capsys, price_labeled_csv):
        _, from_file, _ = run(
            capsys, "iw", price_labeled_csv, "--labeled", "--iterations", "7"
        )
        _, from_fixture, _ = run(capsys, "iw", "--fixture", "price", "--iterations", "7")
        assert from_file == from_fixture

    def test_headerless_file_gets_generated_labels(self, capsys, price_csv):
        _, out, _ = run(
            capsys, "iw", price_csv, "--iterations", "7", "--format", "json"
        )
        payload = json.loads(out)
        assert "J1" in payload
        assert round(payload["J5"], 4) == 0.1942

    def test_labeled_input(self, capsys, price_labeled_csv):
        code, out, _ = run(
            capsys, "iw", price_labeled_csv, "--labeled", "--iterations", "7"
        )
        assert code == 0
        assert "J. Biol. Chem." in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            "iw",
            "--fixture",
            "price",
            "--format",
            "csv",
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith("journal,weight\n")


class TestOtherCommands:
    def test_normalize_table(self, capsys):
        code, out, _ = run(capsys, "normalize", "--fixture", "price")
        assert code == 0
        assert "0.425848611363" in out

    def test_pwr_columns(self, capsys):
        _, out, _ = run(
            capsys, "pwr", "--fixture", "price", "--format", "csv"
        )
        assert out.startswith("journal,power,weakness,ratio\n")

    def test_pwr_single_cycle_identity(self, capsys):
        _, out, _ = run(
            capsys,
            "pwr",
            "--fixture",
            "price",
            "--iterations",
            "1",
            "--format",
            "json",
        )
        payload = json.loads(out)
        expected = np.array(gv.CITED_TOTALS) / np.array(gv.CITING_TOTALS)
        for label, want in zip(price_matrix().journals.labels, expected):
            assert payload[label]["ratio"] == pytest.approx(want, rel=1e-11)

    def test_power_squared_cell(self, capsys):
        _, out, _ = run(
            capsys, "power", "--fixture", "price", "-k", "2", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["J. Biol. Chem."]["J. Biol. Chem."] == gv.SQUARED_TOP_LEFT

    def test_power_requires_k(self, capsys):
        code, _, err = run(capsys, "power", "--fixture", "price")
        assert code == 1
        assert "usage-error" in err

    def test_power_rejects_zero_k_as_data_error(self, capsys):
        code, _, err = run(capsys, "power", "--fixture", "price", "-k", "0")
        assert code == 2
        assert "data-error" in err

    def test_power_refuses_k_from_two_to_the_64(self, capsys, tmp_path):
        path = tmp_path / "swap.csv"
        path.write_text("0,1\n1,0\n", encoding="utf-8")
        code, out, err = run(capsys, "power", str(path), "-k", str(2**64))
        assert (code, out) == (2, "")
        assert err == (
            "citeweight: data-error: matrix power requires k below 2**64, got a 65-bit k\n"
        )
        code, out, err = run(
            capsys, "power", str(path), "-k", str(2**64 - 1), "--format", "csv"
        )
        assert (code, err) == (0, "")
        assert out == "journal,J1,J2\nJ1,0,1\nJ2,1,0\n"

    @pytest.mark.parametrize("command", ["iw", "normalize"])
    def test_table_pads_wide_and_combining_labels_by_display_width(
        self, capsys, tmp_path, command
    ):
        # each wide label has an ASCII twin of the same display width, so the
        # table of the twins is the table of the originals, letter for letter
        twins = {"日本語": "NIHONG", "Cafe\u0301": "Cafe", "ＡＢ": "ABAB"}
        outputs = []
        for labels in (list(twins), list(twins.values())):
            path = tmp_path / "counts.csv"
            rows = [",".join(["j", *labels])]
            rows += [f"{label},1,2,3" for label in labels]
            path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            code, out, err = run(capsys, command, "--labeled", str(path))
            assert (code, err) == (0, "")
            outputs.append(out)
        wide, ascii_ = outputs
        for label, twin in twins.items():
            assert label in wide
            wide = wide.replace(label, twin)
        assert wide == ascii_

    def test_diagnose_fields(self, capsys):
        _, out, _ = run(capsys, "diagnose", "--fixture", "price", "--format", "json")
        entry = json.loads(out)["J. Biol. Chem."]
        assert entry["self_citations"] == 9384
        assert entry["cited_by_others"] == gv.STRIPPED_J1_CITED
        assert set(entry) == {
            "self_citations",
            "cited_by_others",
            "citing_others",
            "self_cited_rate",
            "self_citing_rate",
            "cited_citing_ratio_with",
            "cited_citing_ratio_without",
        }

    def test_sensitivity_exact_csv_header(self, capsys):
        _, out, _ = run(
            capsys,
            "sensitivity",
            "--fixture",
            "price",
            "--iterations",
            "7",
            "--format",
            "csv",
        )
        lines = out.strip().split("\n")
        assert lines[0] == "journal,with,without,pct_change"
        assert len(lines) == 9

    def test_sensitivity_table_footer(self, capsys):
        _, out, _ = run(
            capsys, "sensitivity", "--fixture", "price", "--iterations", "7"
        )
        assert "max |pct_change|" in out
        assert "mean |pct_change|" in out

    def test_sensitivity_meta_summaries(self, capsys):
        _, out, _ = run(
            capsys,
            "sensitivity",
            "--fixture",
            "price",
            "--iterations",
            "7",
            "--format",
            "json",
        )
        meta = json.loads(out)["meta"]
        assert meta["compared"] == "iw"
        assert meta["max_abs_pct_change"] == pytest.approx(0.2103, abs=1e-4)
        assert meta["mean_abs_pct_change"] == pytest.approx(0.1403, abs=1e-4)

    def test_sensitivity_raw_indicator(self, capsys):
        _, out, _ = run(
            capsys,
            "sensitivity",
            "--fixture",
            "price",
            "--indicator",
            "raw_cited",
            "--format",
            "json",
        )
        payload = json.loads(out)
        assert payload["J. Biol. Chem."]["pct_change"] == pytest.approx(-34.0, abs=0.1)

    def test_fit_statistics(self, capsys):
        _, out, _ = run(
            capsys, "fit", "--fixture", "price", "--iterations", "7", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["statistics"]["slope"] == pytest.approx(gv.FIT_SLOPE, abs=1e-5)
        assert payload["statistics"]["pearson_r"] >= 0.999
        assert payload["meta"]["intercept"] == pytest.approx(gv.FIT_INTERCEPT, abs=1e-5)

    def test_transpose_flips_pwr(self, capsys):
        _, forward, _ = run(
            capsys, "pwr", "--fixture", "price", "--format", "json"
        )
        _, backward, _ = run(
            capsys, "pwr", "--fixture", "price", "--transpose", "--format", "json"
        )
        f = json.loads(forward)
        b = json.loads(backward)
        assert b["meta"]["transposed"] is True
        for label in price_matrix().journals.labels:
            assert b[label]["ratio"] == pytest.approx(1.0 / f[label]["ratio"], rel=1e-9)

    def test_reproduce_sections(self, capsys):
        code, out, _ = run(capsys, "reproduce-paper")
        assert code == 0
        assert "Normalized citation matrix" in out
        assert "Self-citation sensitivity" in out
        assert "Least-squares line" in out

    def test_reproduce_json_shape(self, capsys):
        _, out, _ = run(capsys, "reproduce-paper", "--format", "json")
        payload = json.loads(out)
        assert set(payload) == {"normalized", "sensitivity", "points", "statistics", "meta"}
        nature = payload["sensitivity"]["Nature"]
        assert round(nature["pct_change"], 2) == 0.21

    def test_version_flag(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert out.startswith("citeweight ")

    def test_every_subcommand_finishes_within_a_second(self, capsys):
        import time

        commands = [
            ["iw", "--fixture", "price"],
            ["pwr", "--fixture", "price"],
            ["normalize", "--fixture", "price"],
            ["power", "--fixture", "price", "-k", "3"],
            ["diagnose", "--fixture", "price"],
            ["sensitivity", "--fixture", "price"],
            ["fit", "--fixture", "price"],
            ["reproduce-paper"],
        ]
        for command in commands:
            start = time.perf_counter()
            code, _, _ = run(capsys, *command)
            elapsed = time.perf_counter() - start
            assert code == 0, command
            assert elapsed < 1.0, command


@pytest.fixture(scope="module")
def seeded_csv(tmp_path_factory):
    counts = np.random.default_rng(64).integers(0, 500, size=(64, 64))
    path = tmp_path_factory.mktemp("seeded") / "counts.csv"
    path.write_text(
        "".join(",".join(map(str, row)) + "\n" for row in counts.tolist()), encoding="utf-8"
    )
    return str(path)


_JSON_COMMANDS = [
    ["iw"],
    ["pwr"],
    ["normalize"],
    ["power", "-k", "3"],
    ["diagnose"],
    ["sensitivity", "--indicator", "iw"],
    ["sensitivity", "--indicator", "raw_cited"],
    ["sensitivity", "--indicator", "cited_citing_ratio"],
    ["fit"],
]


@pytest.mark.parametrize(
    "command, source",
    [(command, source) for command in _JSON_COMMANDS for source in ("price", "seeded")]
    + [(["reproduce-paper"], None)],
    ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
)
def test_json_report_is_in_canonical_form(capsys, seeded_csv, command, source):
    # the form the benchmark's output check requires of every JSON report
    inputs = {"price": ["--fixture", "price"], "seeded": [seeded_csv], None: []}[source]
    code, out, err = run(capsys, *command, *inputs, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2, allow_nan=False) + "\n"


class TestUndefinedValueRendering:
    @pytest.fixture
    def isolated_csv(self, tmp_path):
        path = tmp_path / "isolated.csv"
        path.write_text("5,0\n0,3\n", encoding="utf-8")
        return str(path)

    def test_table_shows_na(self, capsys, isolated_csv):
        _, out, _ = run(capsys, "diagnose", isolated_csv)
        assert "n/a" in out

    def test_csv_leaves_cell_empty(self, capsys, isolated_csv):
        _, out, _ = run(capsys, "diagnose", isolated_csv, "--format", "csv")
        assert any(line.endswith(",") for line in out.strip().split("\n"))

    def test_json_uses_null(self, capsys, isolated_csv):
        _, out, _ = run(capsys, "diagnose", isolated_csv, "--format", "json")
        payload = json.loads(out)
        assert payload["J1"]["cited_citing_ratio_without"] is None


class TestExitCodes:
    def test_no_input_is_usage_error(self, capsys):
        code, _, err = run(capsys, "iw")
        assert code == 1
        assert err.startswith("citeweight: usage-error:")

    def test_both_inputs_is_usage_error(self, capsys, price_csv):
        code, _, err = run(capsys, "iw", price_csv, "--fixture", "price")
        assert code == 1
        assert "not allowed with" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert "usage-error" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "iw", "--fixture", "price", "--damping", "0.85")
        assert code == 1

    def test_bad_format_choice(self, capsys):
        code, _, _ = run(capsys, "iw", "--fixture", "price", "--format", "xml")
        assert code == 1

    def test_unknown_fixture_is_usage_error(self, capsys):
        code, _, err = run(capsys, "iw", "--fixture", "unobtainium")
        assert code == 1
        assert err.startswith("citeweight: usage-error:")

    def test_missing_file_is_data_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "iw", str(tmp_path / "absent.csv"))
        assert code == 2
        assert "data-error" in err

    def test_malformed_csv_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3\n", encoding="utf-8")
        code, _, err = run(capsys, "iw", str(path))
        assert code == 2
        assert "line 2" in err

    def test_one_by_one_matrix_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "single.csv"
        path.write_text("5\n", encoding="utf-8")
        code, _, _ = run(capsys, "iw", str(path))
        assert code == 2

    def test_zero_weakness_is_numerical_error(self, capsys, tmp_path):
        # journal 1 cites nothing, so the citing-side weight vanishes
        path = tmp_path / "mute.csv"
        path.write_text("0,1\n0,1\n", encoding="utf-8")
        code, _, err = run(capsys, "pwr", str(path), "--iterations", "1")
        assert code == 3
        assert err.startswith("citeweight: numerical-error:")

    def test_non_convergent_iteration_is_numerical_error(self, capsys, tmp_path):
        # two journals that only cite each other oscillate forever
        path = tmp_path / "cycle.csv"
        path.write_text("0,2\n1,0\n", encoding="utf-8")
        code, _, err = run(capsys, "iw", str(path))
        assert code == 3
        assert "did not converge" in err

    def test_default_cycle_budget_is_100(self, capsys, tmp_path):
        path = tmp_path / "cycle.csv"
        path.write_text("0,2\n1,0\n", encoding="utf-8")
        code, _, err = run(capsys, "iw", str(path))
        assert code == 3
        assert "did not converge within 100 cycles" in err

    @pytest.mark.parametrize(
        "rows, message",
        [(1025, "more than 1024 rows"), (1024, "must be square, got 1024 rows x 2 columns")],
    )
    def test_default_size_cap_is_1024_rows(self, capsys, tmp_path, rows, message):
        path = tmp_path / "tall.csv"
        path.write_text("0,0\n" * rows, encoding="utf-8")
        code, _, err = run(capsys, "iw", str(path))
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("command", ["iw", "sensitivity", "fit"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_every_iterating_command_rejects_non_convergence(
        self, capsys, tmp_path, command, fmt
    ):
        path = tmp_path / "cycle.csv"
        path.write_text("0,2\n1,0\n", encoding="utf-8")
        code, out, err = run(capsys, command, str(path), "--format", fmt)
        assert code == 3
        assert out == ""
        assert err.startswith("citeweight: numerical-error: influence weights did not converge")

    @pytest.mark.parametrize("command", ["iw", "sensitivity"])
    def test_fixed_cycle_run_of_periodic_matrix_succeeds(self, capsys, tmp_path, command):
        # --iterations K asks for exactly K cycles; convergence is not required
        path = tmp_path / "cycle.csv"
        path.write_text("0,2\n1,0\n", encoding="utf-8")
        code, _, err = run(capsys, command, str(path), "--iterations", "7")
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize("command", ["iw", "sensitivity", "fit"])
    @pytest.mark.parametrize("tolerance", ["inf", "-inf", "nan", "0"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, command, tolerance, fmt):
        code, out, err = run(
            capsys, command, "--fixture", "price", f"--tolerance={tolerance}", "--format", fmt
        )
        assert code == 2
        assert out == ""
        assert err.startswith("citeweight: data-error: tolerance must be finite and positive")

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command in ("iw", "sensitivity", "fit")
            for flag in ("--iterations", "--max-iterations")
        ]
        + [("pwr", "--iterations")],
    )
    def test_cycle_count_above_the_ceiling_is_data_error(self, capsys, tmp_path, command, flag):
        # J2 makes no references, which exits 3 if the data is read first
        path = tmp_path / "silent.csv"
        path.write_text("1,0\n2,0\n", encoding="utf-8")
        code, out, err = run(capsys, command, str(path), flag, str(10**18))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("citeweight: data-error: ")
        assert f"must be at most {CYCLE_CEILING}, got {10**18}" in err

    @pytest.mark.parametrize("indicator", ["raw_cited", "cited_citing_ratio"])
    def test_tolerance_checked_for_indicators_that_do_not_iterate(self, capsys, indicator):
        code, _, err = run(
            capsys,
            "sensitivity",
            "--fixture",
            "price",
            "--indicator",
            indicator,
            "--tolerance",
            "inf",
            "--format",
            "json",
        )
        assert code == 2
        assert "data-error: tolerance" in err

    def test_journal_without_references_is_numerical_error(self, capsys, tmp_path):
        path = tmp_path / "silent.csv"
        path.write_text("1,0\n2,0\n", encoding="utf-8")
        code, _, err = run(capsys, "normalize", str(path))
        assert code == 3
        assert "no references" in err

    def test_unwritable_output_is_data_error(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        code, _, err = run(
            capsys, "iw", "--fixture", "price", "--output", str(target)
        )
        assert code == 2
        assert "data-error" in err

    @pytest.mark.parametrize(
        "args",
        [["--fixture", "price", "--output", ""], [""]],
        ids=["empty output path", "empty input path"],
    )
    def test_empty_path_is_data_error(self, capsys, args):
        code, out, err = run(capsys, "iw", *args)
        assert (code, out) == (2, "")
        assert err == "citeweight: data-error: [Errno 2] No such file or directory: ''\n"

    @pytest.mark.parametrize("stage", ["read", "parse"])
    def test_input_too_large_for_memory_is_data_error(self, capsys, monkeypatch, stage):
        def refuse(*args, **kwargs):
            raise MemoryError

        read = refuse if stage == "read" else lambda: b"1,2\n3,4\n"
        stdin = types.SimpleNamespace(buffer=types.SimpleNamespace(read=read))
        monkeypatch.setattr(sys, "stdin", stdin)
        if stage == "parse":
            monkeypatch.setattr("citeweight.cli.parse_matrix_csv", refuse)
        code, out, err = run(capsys, "iw", "-")
        assert (code, out) == (2, "")
        assert err == "citeweight: data-error: input too large to hold in memory\n"

    def test_max_size_below_two_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("1,2\n3,4\n", encoding="utf-8")
        code, out, err = run(capsys, "iw", str(path), "--max-size", "-1")
        assert code == 2
        assert out == ""
        assert err == "citeweight: data-error: max_size must be at least 2, got -1\n"

    def test_max_size_below_two_is_data_error_with_a_fixture(self, capsys):
        code, out, err = run(capsys, "iw", "--fixture", "price", "--max-size", "1")
        assert code == 2
        assert out == ""
        assert err == "citeweight: data-error: max_size must be at least 2, got 1\n"

    @pytest.mark.parametrize("labeled", [False, True], ids=["headerless", "labeled"])
    def test_file_with_byte_order_mark(self, capsys, tmp_path, labeled):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark
        text = '"cited, citing",A,B\nA,1,2\nB,3,4\n' if labeled else "1,2\n3,4\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        flags = ["--labeled"] if labeled else []
        code, out, err = run(capsys, "iw", str(marked), *flags, "--format", "csv")
        assert (code, err) == (0, "")
        assert out == run(capsys, "iw", str(plain), *flags, "--format", "csv")[1]

    def test_file_that_is_not_utf8_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_bytes(b"\xff,1\n1,1\n")
        code, out, err = run(capsys, "iw", str(path))
        assert code == 2
        assert out == ""
        assert err == (
            "citeweight: data-error: input is not valid UTF-8 text: 'utf-8' codec "
            "can't decode byte 0xff in position 0: invalid start byte\n"
        )

    # every single-section report: its rows are the top-level JSON keys
    @pytest.mark.parametrize(
        "command", ["iw", "pwr", "normalize", "power -k 3", "diagnose", "sensitivity"]
    )
    def test_journal_named_meta_clashes_with_json_meta(self, capsys, tmp_path, command):
        path = tmp_path / "labeled.csv"
        path.write_text("x,meta,B,C\nmeta,5,2,1\nB,3,4,2\nC,1,2,6\n", encoding="utf-8")
        args = (*command.split(), "--labeled", str(path), "--format")
        for fmt in ("table", "csv"):
            code, out, _ = run(capsys, *args, fmt)
            assert code == 0
            assert "\nmeta" in out
        clash = (
            "citeweight: data-error: a row named 'meta' clashes with the meta block "
            "of the JSON report\n"
        )
        code, out, err = run(capsys, *args, "json")
        assert (code, out, err) == (2, "", clash)
        # refused before --output is opened: a target keeps its bytes, and a
        # missing one is not made
        kept, missing = tmp_path / "kept.json", tmp_path / "missing.json"
        kept.write_bytes(b"earlier report\n")
        for target in (kept, missing):
            code, out, err = run(capsys, *args, "json", "--output", str(target))
            assert (code, out, err) == (2, "", clash)
        assert kept.read_bytes() == b"earlier report\n"
        assert not missing.exists()


def _meta(indicator, **extra):
    return {
        "indicator": indicator,
        "source": "fixture:price",
        "transposed": False,
        "version": __version__,
        **extra,
    }


_ROUNDING_NOISE = pytest.approx(0.0, abs=1e-5)

# The whole meta block of each subcommand on --fixture price, keys in order.
# Without self-citations the tolerance-mode weights move by rounding noise
# only, so those summaries and the fit line are compared with a tolerance.
META_TABLE = [
    (
        ["iw"],
        _meta("iw", iterations=26, tolerance=1e-9, converged=True, self_citations=True),
    ),
    (
        ["iw", "--iterations", "7"],
        _meta("iw", iterations=7, tolerance=1e-9, converged=False, self_citations=True),
    ),
    (["pwr"], _meta("pwr", iterations=7, self_citations=True)),
    (["normalize"], _meta("normalize", self_citations=True)),
    (["power", "-k", "2"], _meta("power", k=2, self_citations=True)),
    (["diagnose"], _meta("diagnostics")),
    # in tolerance mode sensitivity and fit write null iterations
    (
        ["sensitivity", "--indicator", "iw"],
        _meta(
            "sensitivity",
            compared="iw",
            iterations=None,
            tolerance=1e-9,
            max_abs_pct_change=_ROUNDING_NOISE,
            mean_abs_pct_change=_ROUNDING_NOISE,
        ),
    ),
    (
        ["sensitivity", "--indicator", "raw_cited"],
        _meta(
            "sensitivity",
            compared="raw_cited",
            iterations=None,
            tolerance=1e-9,
            max_abs_pct_change=47.3383911217,
            mean_abs_pct_change=31.5083866263,
        ),
    ),
    (
        ["sensitivity", "--indicator", "cited_citing_ratio"],
        _meta(
            "sensitivity",
            compared="cited_citing_ratio",
            iterations=None,
            tolerance=1e-9,
            max_abs_pct_change=23.7464403099,
            mean_abs_pct_change=13.0451106597,
        ),
    ),
    (
        ["fit"],
        _meta(
            "fit",
            iterations=None,
            tolerance=1e-9,
            slope=pytest.approx(1.0, abs=1e-6),
            intercept=_ROUNDING_NOISE,
            pearson_r=pytest.approx(1.0, abs=1e-9),
        ),
    ),
    (
        ["reproduce-paper"],
        {
            "indicator": "reproduce",
            "source": "fixture:price",
            "iterations": 7,
            "version": __version__,
        },
    ),
]


@pytest.mark.parametrize(
    "command, expected", META_TABLE, ids=[" ".join(command) for command, _ in META_TABLE]
)
def test_meta_block_of_every_subcommand(capsys, command, expected):
    source = [] if command == ["reproduce-paper"] else ["--fixture", "price"]
    code, out, err = run(capsys, *command, *source, "--format", "json")
    assert (code, err) == (0, "")
    meta = json.loads(out)["meta"]
    assert list(meta) == list(expected)
    assert meta == expected


def test_parser_is_built_once():
    assert build_parser() is build_parser()


# argparse formats a help string only when it prints it, so a stray % in one
# shows only here
@pytest.mark.parametrize(
    "command",
    ["iw", "pwr", "normalize", "power", "diagnose", "sensitivity", "fit", "reproduce-paper"],
)
def test_help_of_every_subcommand(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: citeweight {command}")
    # the usage line draws the two input sources as independent, so the help
    # of each states the rule; argparse may wrap it over two lines
    rule = " ".join(out.split()).count("(exactly one of matrix or --fixture)")
    assert rule == (0 if command == "reproduce-paper" else 2)


def _uniform_csv(n):
    """The bench's n x n ``uniform`` counts, seed 9, as headerless CSV."""
    counts = np.random.default_rng(9).integers(0, 500, size=(n, n))
    return "".join(",".join(map(str, row)) + "\n" for row in counts.tolist())


@pytest.mark.parametrize("fmt", FORMATS)
def test_report_is_written_as_it_is_made(tmp_path, fmt):
    # Each piece is written as it is made, so the peak is set by the n x n
    # matrix (0.5 MiB here), not by the report (1.1 MiB as CSV to 1.9 MiB as
    # JSON): a report held whole even once lifts any format past the bound.
    n = 256
    path, report = tmp_path / "counts.csv", tmp_path / "report"
    path.write_text(_uniform_csv(n), encoding="utf-8")
    argv = ["normalize", str(path), "--format", fmt, "--output", str(report)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * n * n * 8


def _iw_meta(iterations=26, self_citations=True, **extra):
    return _meta(
        "iw",
        **extra,
        iterations=iterations,
        tolerance=1e-9,
        converged=True,
        self_citations=self_citations,
    )


# Each call reuses the one parser, so a flag given to one call must not reach
# the next.  None marks a usage error.
REUSE_SEQUENCE = [
    (["iw", "--no-self-citations"], _iw_meta(iterations=20, self_citations=False)),
    (["iw"], _iw_meta()),
    (["pwr", "--iterations", "3"], _meta("pwr", iterations=3, self_citations=True)),
    (["pwr"], _meta("pwr", iterations=7, self_citations=True)),
    (["iw", "--bogus"], None),
    (["iw", "--transpose"], _iw_meta(iterations=22, transposed=True)),
    (["iw"], _iw_meta()),
]


def test_repeated_calls_share_no_flags(capsys):
    for command, expected in REUSE_SEQUENCE:
        code, out, err = run(capsys, *command, "--fixture", "price", "--format", "json")
        if expected is None:
            assert (code, out, len(err.splitlines())) == (1, "", 1)
            continue
        assert (code, err) == (0, ""), command
        meta = json.loads(out)["meta"]
        assert (list(meta), meta) == (list(expected), expected), command


# Exit code of each subcommand on each condition.  Columns, in order: iw,
# pwr, normalize, power -k 3, diagnose, sensitivity with --indicator iw,
# raw_cited and cited_citing_ratio, and fit.  A code holds in every format.
EXIT_CODE_SUBCOMMANDS = (
    ["iw"],
    ["pwr"],
    ["normalize"],
    ["power", "-k", "3"],
    ["diagnose"],
    ["sensitivity", "--indicator", "iw"],
    ["sensitivity", "--indicator", "raw_cited"],
    ["sensitivity", "--indicator", "cited_citing_ratio"],
    ["fit"],
)
EXIT_CODE_TABLE = {
    # condition: (input, extra flags, codes)
    "zero column": ("1,0\n1,0\n", [], "333003003"),
    "nilpotent": ("0,1\n0,0\n", [], "333003003"),
    "period 2": ("0,2\n1,0\n", [], "300003003"),
    "negative cell": ("1,-1\n1,1\n", [], "222222222"),
    "non-numeric cell": ("1,x\n1,1\n", [], "222222222"),
    "overflowed totals": ("1e308,1e308\n1e308,1e308\n", [], "333333333"),
    # pwr and raw_cited never divide 1e308 by 1e-300; their results are finite
    "overflowed quotient": ("0,1e308\n1e-300,1\n", [], "303333033"),
    # every total is finite, but not their sum: pwr's mass overflows at cycle
    # 1, the power overflows, and fit has equal weights, so its slope is
    # undefined
    "overflowed sum of totals": ("1e308,1e307\n1e307,1e308\n", [], "030300003"),
    # as above, and the stripped matrix makes no references (iw, fit)
    "overflowed mass": ("1e308,0\n0,1e308\n", [], "030303003"),
    # longer than the csv module's field_size_limit
    "field of 200000 digits": ("1" * 200_000 + ",1\n1,1\n", [], "222222222"),
    "above max size": ("1,1,1\n1,1,1\n1,1,1\n", ["--max-size", "2"], "222222222"),
    # no input file: the bundled fixture is read
    "max size below 2, fixture": (None, ["--fixture", "price", "--max-size", "1"], "222222222"),
    "above max size, fixture": (None, ["--fixture", "price", "--max-size", "4"], "222222222"),
    # written with surrogateescape, so the file holds the byte 0xff
    "not UTF-8": ("\udcff,1\n1,1\n", [], "222222222"),
    "unknown flag": (None, ["--fixture", "price", "--bogus"], "111111111"),
    "no input": (None, [], "111111111"),
    "unknown fixture": (None, ["--fixture", "unobtainium"], "111111111"),
    "file and fixture": ("1,1\n1,1\n", ["--fixture", "price"], "111111111"),
}


@pytest.mark.parametrize(
    "column",
    range(len(EXIT_CODE_SUBCOMMANDS)),
    ids=[" ".join(command) for command in EXIT_CODE_SUBCOMMANDS],
)
@pytest.mark.parametrize("condition", list(EXIT_CODE_TABLE))
def test_exit_code_table(capsys, tmp_path, condition, column):
    text, flags, codes = EXIT_CODE_TABLE[condition]
    source = []
    if text is not None:
        path = tmp_path / "counts.csv"
        path.write_text(text, encoding="utf-8", errors="surrogateescape")
        source = [str(path)]
    command = EXIT_CODE_SUBCOMMANDS[column]
    for fmt in ("table", "csv", "json"):
        code, out, err = run(capsys, *command, *source, *flags, "--format", fmt)
        assert code == int(codes[column]), (fmt, err)
        assert (out == "") == (code != 0)
        assert len(err.splitlines()) == (code != 0)


@pytest.mark.parametrize(
    "text, expected",
    [("1e308,0\n0,1e308\n", "-100"), ("1e308,1e307\n1e307,1e308\n", "-90.9090909091")],
)
def test_raw_cited_change_near_the_float_limit(capsys, tmp_path, text, expected):
    path = tmp_path / "counts.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(
        capsys, "sensitivity", str(path), "--indicator", "raw_cited", "--format", "csv"
    )
    assert (code, err) == (0, "")
    assert [line.split(",")[-1] for line in out.splitlines()[1:3]] == [expected] * 2


@pytest.mark.parametrize(
    "text, others, ratios",
    [
        # a total minus its diagonal cell would read 9.00000000004e-06 and a
        # ratio of 3.00000000004
        ("0.6,9e-06\n3e-06,0.5\n", ["9e-06", "3e-06"], ["3", "0.333333333333"]),
        # and here 0 and an empty ratio, as 1e17 + 1 rounds to 1e17
        ("1e17,1\n1,1e17\n", ["1", "1"], ["1", "1"]),
    ],
)
def test_diagnosed_cross_traffic_is_what_sensitivity_reports(
    capsys, tmp_path, text, others, ratios
):
    path = tmp_path / "counts.csv"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "diagnose", str(path), "--format", "csv")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [row[2] for row in rows] == others  # cited_by_others
    assert [row[3] for row in rows] == others[::-1]  # citing_others
    assert [row[7] for row in rows] == ratios  # cited_citing_ratio_without
    for indicator, expected in (("raw_cited", others), ("cited_citing_ratio", ratios)):
        code, out, err = run(
            capsys, "sensitivity", str(path), "--indicator", indicator, "--format", "csv"
        )
        assert (code, err) == (0, "")
        assert [line.split(",")[2] for line in out.splitlines()[1:]] == expected


def test_overflowed_power_weakness_ratio_is_a_numerical_error(capsys, tmp_path):
    # B's citing total is 1e-10 against A's 2e300, so its weakness weight is
    # 1e-310 and 0.5 / 1e-310 overflows
    path = tmp_path / "counts.csv"
    path.write_text("1e300,1e-10\n1e300,1e-10\n", encoding="utf-8")
    code, out, err = run(capsys, "pwr", str(path))
    assert (code, out) == (3, "")
    assert err == "citeweight: numerical-error: power-weakness ratio of journal 'J2' overflowed\n"


class TestSubprocess:
    def test_stdin_matrix(self):
        result = run_process(["normalize", "-"], stdin_text="1,2\n3,4\n")
        assert result.returncode == 0
        assert "J1" in result.stdout

    def test_stdin_with_blank_lines_reads_without_warnings(self):
        result = run_process(["iw", "-"], stdin_text="\n1,2\n\n3,4\n\n")
        assert result.returncode == 0
        assert result.stderr == ""
        assert "J2" in result.stdout

    def test_stdin_that_is_not_utf8_is_data_error(self):
        # strict decoding, as under a UTF-8 locale
        result = subprocess.run(
            [sys.executable, "-m", "citeweight", "iw", "-"],
            capture_output=True,
            input=b"1,\xff\n1,1\n",
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
            timeout=60,
        )
        assert result.returncode == 2
        assert result.stdout == b""
        assert result.stderr.startswith(
            b"citeweight: data-error: input is not valid UTF-8 text: "
        )
        assert len(result.stderr.splitlines()) == 1

    def test_stdin_with_byte_order_mark(self):
        result = subprocess.run(
            [sys.executable, "-m", "citeweight", "iw", "-"],
            capture_output=True,
            input=b"\xef\xbb\xbf1,2\n3,4\n",
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stderr == b""
        assert b"J1" in result.stdout

    @pytest.mark.parametrize(
        "data, flags",
        [
            (b"\xef\xbb\xbf1,2\n3,4\n", []),
            ("x,\u00dc,B\n\u00dc,5,1\nB,2,7\n".encode(), ["--labeled"]),
            # a line break inside a quoted label is kept as written, as in a file
            (b'x,"A\r\nB",C\r\n"A\r\nB",5,1\r\nC,2,7\r\n', ["--labeled"]),
        ],
        ids=["byte-order mark", "non-ASCII label", "CRLF inside a label"],
    )
    def test_stdin_reads_as_a_file_does_whatever_the_locale(self, tmp_path, data, flags):
        # under a latin-1 locale, stdin's UTF-8 bytes are still read as UTF-8
        path = tmp_path / "counts.csv"
        path.write_bytes(data)
        stdin, file = (
            subprocess.run(
                [sys.executable, "-m", "citeweight", "iw", source, *flags],
                capture_output=True,
                input=data,
                env={**os.environ, "PYTHONIOENCODING": "latin-1"},
                timeout=60,
            )
            for source in ("-", str(path))
        )
        assert (stdin.returncode, stdin.stdout) == (file.returncode, file.stdout)
        assert (stdin.returncode, stdin.stderr) == (0, b"")

    @pytest.mark.parametrize(
        "data",
        [
            b'x,"A\r\nB",C\r\n"A\r\nB",5,1\r\nC,2,7\r\n',
            b'x,"A\rB",C\r"A\rB",5,1\rC,2,7\r',
        ],
        ids=["CRLF inside a label", "CR inside a label"],
    )
    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_cli_reads_a_file_as_the_parser_reads_its_bytes(self, tmp_path, data, source):
        path = tmp_path / "counts.csv"
        path.write_bytes(data)
        result = subprocess.run(
            [sys.executable, "-m", "citeweight", "iw", "--labeled", "--format", "json"]
            + ["-" if source == "stdin" else str(path)],
            capture_output=True,
            input=data,
            timeout=60,
        )
        assert (result.returncode, result.stderr) == (0, b"")
        labels = [key for key in json.loads(result.stdout) if key != "meta"]
        assert labels == list(parse_matrix_csv(path.read_bytes(), labeled=True).journals)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize(
        "env",
        [
            {"PYTHONIOENCODING": "latin-1"},
            {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
        ],
        ids=["latin-1 stdout", "ASCII locale"],
    )
    def test_stdout_is_utf8_whatever_the_locale(self, tmp_path, env, fmt):
        # JSON escapes non-ASCII labels, so it writes the same bytes either way
        path, report = tmp_path / "counts.csv", tmp_path / "report.txt"
        path.write_text("x,日,B\n日,5,1\nB,2,7\n", encoding="utf-8")
        flags = ["iw", "--labeled", str(path), "--format", fmt]
        base = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        result = subprocess.run(
            [sys.executable, "-m", "citeweight", *flags],
            capture_output=True,
            env={**base, **env},
            timeout=60,
        )
        assert main([*flags, "--output", str(report)]) == 0
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == report.read_bytes()

    @pytest.mark.parametrize(
        "redirect, args, code, message",
        [
            (">&-", ["iw", "--fixture", "price"], 2, "data-error: stdout is closed"),
            ("<&-", ["iw", "-"], 2, "data-error: stdin is closed"),
            # with stderr closed the error line is lost, not the exit code
            ("2>&-", ["iw", "/nonexistent/counts.csv"], 2, None),
            ("2>&-", ["iw", "-"], 3, None),
            ("2>&-", ["iw"], 1, None),
        ],
        ids=["stdout", "stdin", "stderr-missing-file", "stderr-no-references", "stderr-usage"],
    )
    def test_closed_standard_stream_is_data_error(self, redirect, args, code, message):
        # an interpreter started without the descriptor sets sys.stdout,
        # sys.stdin or sys.stderr to None; on stdin J2 makes no references
        result = subprocess.run(
            ["sh", "-c", f'exec "$0" -m citeweight "$@" {redirect}', sys.executable, *args],
            capture_output=True,
            input=b"1,0\n0,0\n",
            timeout=60,
        )
        assert result.returncode == code
        assert result.stderr == (f"citeweight: {message}\n" if message else "").encode()

    @pytest.mark.skipif(
        resource is None or not os.path.exists("/dev/zero"),
        reason="needs the resource module and /dev/zero",
    )
    def test_endless_input_under_a_memory_limit_is_data_error(self):
        # 300 MiB of address space holds the interpreter and numpy but not
        # all of an endless input; one BLAS thread keeps numpy's own
        # buffers from using up the limit on a machine with more CPUs
        limit = 300 * 2**20
        result = subprocess.run(
            [sys.executable, "-m", "citeweight", "iw", "/dev/zero"],
            capture_output=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            timeout=60,
        )
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr == b"citeweight: data-error: input too large to hold in memory\n"

    def test_error_line_to_a_reader_that_has_gone_keeps_the_exit_code(self):
        # the pipe's one reader is closed before the child writes its line
        with subprocess.Popen(
            [sys.executable, "-m", "citeweight", "iw", "/nonexistent/counts.csv"],
            stderr=subprocess.PIPE,
        ) as child:
            child.stderr.close()
            assert child.wait(timeout=60) == 2

    def test_reader_that_leaves_early_is_data_error(self, tmp_path):
        # a 1.2 MiB table, more than a pipe holds, read for one byte
        path = tmp_path / "counts.csv"
        path.write_text(_uniform_csv(256), encoding="utf-8")
        with subprocess.Popen(
            [sys.executable, "-m", "citeweight", "normalize", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as child:
            assert child.stdout.read(1) == b"N"
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        # one line: what stdout still buffered raises nothing at exit
        assert (code, err) == (2, b"citeweight: data-error: [Errno 32] Broken pipe\n")

    def test_module_entry_point(self):
        result = run_process(["iw", "--fixture", "price", "--iterations", "7"])
        assert result.returncode == 0
        assert "Nature" in result.stdout

    def test_console_script(self):
        # Run the declared [project.scripts] entry point the way an installer's
        # wrapper script does, so the test needs no install and ignores PATH.
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["citeweight"]
        module, attr = target.split(":")
        launcher = (
            "import sys\n"
            f"from {module} import {attr}\n"
            "sys.argv[0] = 'citeweight'\n"
            f"sys.exit({attr}())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", launcher, "--version"],
            capture_output=True,
            text=True,
            encoding="utf-8",
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout == f"citeweight {__version__}\n"

    def test_usage_exit_code_from_process(self):
        result = run_process(["iw"])
        assert result.returncode == 1

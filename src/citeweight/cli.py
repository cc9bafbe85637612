"""Command-line interface.

Subcommands map one-to-one onto the library: iw, pwr, normalize, power,
diagnose, sensitivity, fit, and reproduce-paper, which reruns the bundled
eight-journal worked example end to end.  Matrices come from a CSV path,
stdin ("-"), or a named fixture; reports go to stdout or --output in
table, csv, or json form.

Exit codes: 0 success, 1 usage error, 2 malformed or unreadable data,
3 numerical failure (non-convergence, undefined ratio, overflow).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import CitationDataError, NumericalError
from .fixtures import FIXTURES, load_fixture, price_matrix
from .matrix import (
    DEFAULT_MAX_SIZE,
    CitationMatrix,
    _check_max_size,
    matrix_power,
    parse_matrix_csv,
    strip_self_citations,
    transpose,
)
from .metrics import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_TOLERANCE,
    influence_trace,
    pinski_narin_normalize,
    power_weakness_ratio,
    self_citation_diagnostics,
)
from .report import (
    FORMATS,
    FitReport,
    MatrixPower,
    build_sections,
    json_cell,
    render_sections,
)
from .sensitivity import INDICATOR_IW, INDICATORS, linear_fit, self_citation_sensitivity

PROG = "citeweight"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # spec'd exit contract reserves 2 for data errors, so argparse's
    # default usage-failure code cannot be used
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{PROG}: usage-error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Journal influence indicators from square citation matrices.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument(
        "matrix", nargs="?", help="path of a CSV citation matrix, or - for stdin"
    )
    inputs.add_argument(
        "--fixture",
        metavar="NAME",
        help=f"bundled dataset instead of a file ({', '.join(sorted(FIXTURES))})",
    )
    inputs.add_argument(
        "--labeled",
        action="store_true",
        help="CSV carries a journal-label header row and first column",
    )
    inputs.add_argument(
        "--max-size",
        type=int,
        default=DEFAULT_MAX_SIZE,
        metavar="N",
        help=f"largest accepted matrix size (default {DEFAULT_MAX_SIZE})",
    )
    inputs.add_argument(
        "--transpose",
        action="store_true",
        help="swap the cited and citing orientation before computing",
    )

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", choices=FORMATS, default="table", help="report format"
    )
    output.add_argument(
        "--output", metavar="PATH", help="write the report here instead of stdout"
    )

    iteration = argparse.ArgumentParser(add_help=False)
    iteration.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="K",
        help="run exactly K cycles instead of iterating to tolerance",
    )
    iteration.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        metavar="T",
        help="L1 convergence threshold (default %(default)s)",
    )
    iteration.add_argument(
        "--max-iterations",
        type=int,
        default=DEFAULT_MAX_CYCLES,
        metavar="N",
        dest="max_iterations",
        help="cycle budget when iterating to tolerance (default %(default)s)",
    )

    selfcite = argparse.ArgumentParser(add_help=False)
    selfcite.add_argument(
        "--self-citations",
        action=argparse.BooleanOptionalAction,
        default=True,
        dest="self_citations",
        help="keep or zero the diagonal before computing (default: keep)",
    )

    sub.add_parser(
        "iw",
        parents=[inputs, iteration, selfcite, output],
        help="recursive influence weights",
    )
    pwr = sub.add_parser(
        "pwr",
        parents=[inputs, selfcite, output],
        help="power-weakness ratios from the raw matrix and its transpose",
    )
    pwr.add_argument(
        "--iterations",
        type=int,
        default=7,
        metavar="K",
        help="cycles for both component iterations (default 7)",
    )
    sub.add_parser(
        "normalize",
        parents=[inputs, selfcite, output],
        help="citations received per reference given",
    )
    power = sub.add_parser(
        "power",
        parents=[inputs, selfcite, output],
        help="k-step citation paths via repeated squaring",
    )
    power.add_argument("-k", type=int, required=True, help="exponent, at least 1")
    sub.add_parser(
        "diagnose",
        parents=[inputs, output],
        help="per-journal self-citation diagnostics",
    )
    sensitivity = sub.add_parser(
        "sensitivity",
        parents=[inputs, iteration, output],
        help="indicator shift when self-citations are removed",
    )
    sensitivity.add_argument(
        "--indicator",
        choices=INDICATORS,
        default=INDICATOR_IW,
        help="which indicator to compare (default iw)",
    )
    sub.add_parser(
        "fit",
        parents=[inputs, iteration, output],
        help="least-squares line through without-vs-with influence weights",
    )
    sub.add_parser(
        "reproduce-paper",
        parents=[output],
        help="rerun the bundled eight-journal worked example end to end",
    )
    return parser


def _load_input(args) -> tuple[CitationMatrix, str]:
    has_path = args.matrix is not None
    has_fixture = args.fixture is not None
    if has_path and has_fixture:
        raise _UsageError("give either a matrix path or --fixture, not both")
    if not has_path and not has_fixture:
        raise _UsageError("a matrix path (or - for stdin) or --fixture is required")
    _check_max_size(args.max_size)
    if has_fixture:
        m = load_fixture(args.fixture)
        source = f"fixture:{args.fixture}"
    else:
        try:
            if args.matrix == "-":
                data = sys.stdin.read()
                source = "stdin"
            else:
                data = Path(args.matrix).read_text(encoding="utf-8")
                source = args.matrix
        except UnicodeDecodeError as exc:
            raise CitationDataError(f"input is not valid UTF-8 text: {exc}") from exc
        m = parse_matrix_csv(data, labeled=args.labeled, max_size=args.max_size)
    if args.transpose:
        m = transpose(m)
    # only the subcommands that take --no-self-citations have the attribute
    if not getattr(args, "self_citations", True):
        m = strip_self_citations(m)
    return m, source


def _base_meta(args, source: str, indicator: str) -> dict:
    return {
        "indicator": indicator,
        "source": source,
        "transposed": bool(getattr(args, "transpose", False)),
        "version": __version__,
    }


def _cmd_iw(args):
    m, source = _load_input(args)
    trace = influence_trace(
        m,
        cycles=args.iterations,
        tolerance=args.tolerance,
        max_cycles=args.max_iterations,
    )
    meta = _base_meta(args, source, "iw")
    meta.update(
        iterations=trace.iterations_used,
        tolerance=args.tolerance,
        converged=trace.converged,
        self_citations=bool(args.self_citations),
    )
    return build_sections(trace), meta


def _cmd_pwr(args):
    m, source = _load_input(args)
    result = power_weakness_ratio(m, args.iterations)
    meta = _base_meta(args, source, "pwr")
    meta.update(iterations=result.cycles, self_citations=bool(args.self_citations))
    return build_sections(result), meta


def _cmd_normalize(args):
    m, source = _load_input(args)
    meta = _base_meta(args, source, "normalize")
    meta.update(self_citations=bool(args.self_citations))
    return build_sections(pinski_narin_normalize(m)), meta


def _cmd_power(args):
    m, source = _load_input(args)
    result = MatrixPower(m.journals, matrix_power(m, args.k), args.k)
    meta = _base_meta(args, source, "power")
    meta.update(k=int(args.k), self_citations=bool(args.self_citations))
    return build_sections(result), meta


def _cmd_diagnose(args):
    m, source = _load_input(args)
    return build_sections(self_citation_diagnostics(m)), _base_meta(
        args, source, "diagnostics"
    )


def _cmd_sensitivity(args):
    m, source = _load_input(args)
    report = self_citation_sensitivity(
        m,
        args.indicator,
        cycles=args.iterations,
        tolerance=args.tolerance,
        max_cycles=args.max_iterations,
    )
    meta = _base_meta(args, source, "sensitivity")
    meta.update(
        compared=args.indicator,
        iterations=args.iterations,
        tolerance=args.tolerance,
        max_abs_pct_change=json_cell(report.max_abs_pct_change),
        mean_abs_pct_change=json_cell(report.mean_abs_pct_change),
    )
    return build_sections(report), meta


def _fit_report(
    m: CitationMatrix, cycles: int | None, tolerance: float, max_cycles: int
) -> FitReport:
    """Influence weights with and without self-citations, and their fit."""
    report = self_citation_sensitivity(
        m, INDICATOR_IW, cycles=cycles, tolerance=tolerance, max_cycles=max_cycles
    )
    return FitReport(report, linear_fit(report.with_values, report.without_values))


def _cmd_fit(args):
    m, source = _load_input(args)
    report = _fit_report(m, args.iterations, args.tolerance, args.max_iterations)
    meta = _base_meta(args, source, "fit")
    meta.update(
        iterations=args.iterations,
        tolerance=args.tolerance,
        slope=json_cell(report.fit.slope),
        intercept=json_cell(report.fit.intercept),
        pearson_r=json_cell(report.fit.pearson_r),
    )
    return build_sections(report), meta


def _cmd_reproduce(args):
    m = price_matrix()
    fit_report = _fit_report(m, 7, DEFAULT_TOLERANCE, DEFAULT_MAX_CYCLES)
    sections = (
        *build_sections(pinski_narin_normalize(m)),
        *build_sections(fit_report.sensitivity),
        *build_sections(fit_report),
    )
    meta = {
        "indicator": "reproduce",
        "source": "fixture:price",
        "iterations": 7,
        "version": __version__,
    }
    return sections, meta


_COMMANDS = {
    "iw": _cmd_iw,
    "pwr": _cmd_pwr,
    "normalize": _cmd_normalize,
    "power": _cmd_power,
    "diagnose": _cmd_diagnose,
    "sensitivity": _cmd_sensitivity,
    "fit": _cmd_fit,
    "reproduce-paper": _cmd_reproduce,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        sections, meta = _COMMANDS[args.command](args)
        text = render_sections(sections, args.format, meta)
        if args.output:
            Path(args.output).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
    except _UsageError as exc:
        sys.stderr.write(f"{PROG}: usage-error: {exc}\n")
        return 1
    except (CitationDataError, OSError) as exc:
        sys.stderr.write(f"{PROG}: data-error: {exc}\n")
        return 2
    except NumericalError as exc:
        sys.stderr.write(f"{PROG}: numerical-error: {exc}\n")
        return 3
    return 0

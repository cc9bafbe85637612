"""Command-line interface.

Every subcommand that reads a matrix runs one pipeline, ``_run``: load a
named fixture, or hand the bytes of a CSV path or stdin ("-") unchanged to
``parse_matrix_csv``, the one decoder; compute the subcommand's row of
``_COMMANDS``, which builds the report sections; write the JSON ``meta``
block as the shared keys (indicator, source, transposed, version), the
row's own keys and, where the subcommand has that flag, ``self_citations``.
``reproduce-paper`` reruns the bundled eight-journal worked example with a
fixed meta block.  Reports go to stdout or --output as UTF-8 table, csv or
json, whatever the locale.

Exit codes: 0 success, 1 usage error (the parser refused the command line),
2 malformed or unreadable data, 3 numerical failure (non-convergence,
undefined ratio, overflow).
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .errors import CitationDataError, NumericalError
from .fixtures import price_matrix
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
    CYCLE_CEILING,
    DEFAULT_MAX_CYCLES,
    DEFAULT_TOLERANCE,
    _influence_trace,
    pinski_narin_normalize,
    power_weakness_ratio,
    self_citation_diagnostics,
)
from .report import (
    FORMATS,
    _fit_layout,
    _power_layout,
    build_sections,
    json_cell,
    report_pieces,
)
from .sensitivity import INDICATOR_IW, INDICATORS, linear_fit, self_citation_sensitivity

PROG = "citeweight"


def _error_line(kind: str, message) -> None:
    """Write one error line to stderr.  The line is lost when stderr is
    closed (None) or its reader has gone, so that the exit code stays the
    condition's own."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(f"{PROG}: {kind}: {message}\n")
        except OSError:
            pass


class _Parser(argparse.ArgumentParser):
    # spec'd exit contract reserves 2 for data errors, so argparse's
    # default usage-failure code cannot be used
    def error(self, message):
        _error_line("usage-error", message)
        raise SystemExit(1)


# parse_args keeps no state on the parser, so every main() call in a process
# shares the one built here on the first call, not at import
@functools.cache
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
    source = inputs.add_mutually_exclusive_group(required=True)
    # the usage line cannot show that the two exclude each other, so the help does
    rule = "(exactly one of matrix or --fixture)"
    source.add_argument(
        "matrix", nargs="?", help=f"path of a CSV citation matrix, or - for stdin {rule}"
    )
    source.add_argument(
        "--fixture", choices=("price",), help=f"bundled dataset {rule}"
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
        dest="cycles",
        help=f"run exactly K cycles (at most {CYCLE_CEILING}), not to tolerance",
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
        dest="max_cycles",
        help=f"cycle budget to tolerance (default %(default)s, at most {CYCLE_CEILING})",
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
        dest="cycles",
        help=f"cycles for both component iterations (default 7, at most {CYCLE_CEILING})",
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
    power.add_argument(
        "-k", type=int, required=True, help="exponent, at least 1 and below 2**64"
    )
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
    # the parser lets exactly one of the two through
    if args.fixture is not None:
        m = price_matrix()
        _check_max_size(args.max_size, m.n)
        source = f"fixture:{args.fixture}"
    else:
        source = "stdin" if args.matrix == "-" else args.matrix
        try:
            m = parse_matrix_csv(
                _read(args.matrix), labeled=args.labeled, max_size=args.max_size
            )
        except MemoryError as exc:
            raise CitationDataError("input too large to hold in memory") from exc
    if args.transpose:
        m = transpose(m)
    # only the subcommands that take --no-self-citations have the attribute
    if not getattr(args, "self_citations", True):
        m = strip_self_citations(m)
    return m, source


def _read(path: str) -> bytes | str:
    """The bytes of a file, or of stdin for "-"; a stdin with no bytes
    beneath it (an io.StringIO put in its place) is read as text."""
    if path != "-":
        with open(path, "rb") as file:
            return file.read()
    if sys.stdin is None:
        raise CitationDataError("stdin is closed")
    return sys.stdin.buffer.read() if hasattr(sys.stdin, "buffer") else sys.stdin.read()


def _iteration(args) -> dict:
    return {"cycles": args.cycles, "tolerance": args.tolerance, "max_cycles": args.max_cycles}


def _fit_report(m: CitationMatrix, **iteration):
    """(sensitivity report, fit) of influence weights with and without self-citations."""
    report = self_citation_sensitivity(m, INDICATOR_IW, **iteration)
    return report, linear_fit(report.with_values, report.without_values)


def _iw(m, args):
    trace = _influence_trace(m, False, **_iteration(args))
    return build_sections(trace), {
        "iterations": trace.iterations_used,
        "tolerance": args.tolerance,
        "converged": trace.converged,
    }


def _pwr(m, args):
    result = power_weakness_ratio(m, args.cycles)
    return build_sections(result), {"iterations": result.cycles}


def _power(m, args):
    return _power_layout(m.journals, matrix_power(m, args.k), args.k), {"k": args.k}


def _sensitivity(m, args):
    report = self_citation_sensitivity(m, args.indicator, **_iteration(args))
    return build_sections(report), {
        "compared": args.indicator,
        "iterations": args.cycles,
        "tolerance": args.tolerance,
        "max_abs_pct_change": json_cell(report.max_abs_pct_change),
        "mean_abs_pct_change": json_cell(report.mean_abs_pct_change),
    }


def _fit(m, args):
    report, fit = _fit_report(m, **_iteration(args))
    return _fit_layout(report, fit), {
        "iterations": args.cycles,
        "tolerance": args.tolerance,
        "slope": json_cell(fit.slope),
        "intercept": json_cell(fit.intercept),
        "pearson_r": json_cell(fit.pearson_r),
    }


# subcommand: (meta indicator, (matrix, args) -> (sections, its own meta keys)).
# A function body looks its names up at call time, so wrappers put on this
# module's attributes (bench/tracer.py) see each call.
_COMMANDS = {
    "iw": ("iw", _iw),
    "pwr": ("pwr", _pwr),
    "normalize": ("normalize", lambda m, args: (build_sections(pinski_narin_normalize(m)), {})),
    "power": ("power", _power),
    "diagnose": ("diagnostics", lambda m, args: (build_sections(self_citation_diagnostics(m)), {})),
    "sensitivity": ("sensitivity", _sensitivity),
    "fit": ("fit", _fit),
}


def _run(args):
    """The sections and meta block of one subcommand."""
    if args.command == "reproduce-paper":
        m = price_matrix()
        report, fit = _fit_report(m, cycles=7)
        sections = (
            *build_sections(pinski_narin_normalize(m)),
            *build_sections(report),
            *_fit_layout(report, fit),
        )
        return sections, {
            "indicator": "reproduce",
            "source": "fixture:price",
            "iterations": 7,
            "version": __version__,
        }
    indicator, compute = _COMMANDS[args.command]
    m, source = _load_input(args)
    sections, extra = compute(m, args)
    meta = {
        "indicator": indicator,
        "source": source,
        "transposed": args.transpose,
        "version": __version__,
        **extra,
    }
    if hasattr(args, "self_citations"):
        meta["self_citations"] = args.self_citations
    return sections, meta


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        sections, meta = _run(args)
        # every refusal comes before the first piece, so before --output ("" is
        # a path too) opens; each piece goes out as made: as UTF-8 bytes, the
        # same to a file as to stdout whatever the locale or platform, or as
        # text to a stdout with no bytes beneath (an io.StringIO)
        pieces = report_pieces(sections, args.format, meta)
        encoded = (piece.encode() for piece in pieces)
        if args.output is not None:
            with open(args.output, "wb") as file:
                file.writelines(encoded)
        elif sys.stdout is None:
            raise CitationDataError("stdout is closed")
        elif hasattr(sys.stdout, "buffer"):
            sys.stdout.flush()
            sys.stdout.buffer.writelines(encoded)
            # a reader that has gone fails here, not at exit
            sys.stdout.buffer.flush()
        else:
            sys.stdout.writelines(pieces)
    except (CitationDataError, OSError) as exc:
        _error_line("data-error", exc)
        return 2
    except NumericalError as exc:
        _error_line("numerical-error", exc)
        return 3
    return 0

"""Robustness analyses layered on the core indicators.

Three tools: recompute an indicator with and without self-citations and
report per-journal percentage shifts; profile the convergence behaviour of
an iteration trace; and fit a least-squares line through paired indicator
values to quantify how closely two variants agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CitationDataError, NumericalError
from .matrix import CitationMatrix, JournalSet, margins, strip_self_citations
from .metrics import (
    IterationTrace,
    check_iteration_args,
    influence_weights,
    self_citation_diagnostics,
)

INDICATOR_IW = "iw"
INDICATOR_RAW_CITED = "raw_cited"
INDICATOR_RATIO = "cited_citing_ratio"
INDICATORS = (INDICATOR_IW, INDICATOR_RAW_CITED, INDICATOR_RATIO)

#: Cycles a trace must contain before decay ratios are meaningful.
MIN_PROFILE_CYCLES = 3


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Per-journal indicator values with and without self-citations.

    ``pct_change`` is 100 * (without - with) / with, NaN where the
    with-value is zero; the summary fields aggregate the defined entries.
    """

    indicator: str
    journals: JournalSet
    with_values: np.ndarray
    without_values: np.ndarray
    pct_change: np.ndarray
    max_abs_pct_change: float
    mean_abs_pct_change: float


@dataclass(frozen=True, eq=False)
class ConvergenceProfile:
    """Cycle-by-cycle contraction record of an iteration trace.

    ``decay_ratios[i]`` is deltas[k]/deltas[k-1] for the cycle pair ending
    at ``ratio_cycles[i]``; ``geometric`` reports whether every ratio from
    cycle 3 on stays below 1, the signature of clean geometric decay
    toward the dominant eigenvector.
    """

    deltas: tuple[float, ...]
    decay_ratios: tuple[float, ...]
    ratio_cycles: tuple[int, ...]
    geometric: bool


@dataclass(frozen=True)
class LinearFit:
    """Ordinary least-squares line y = slope * x + intercept."""

    slope: float
    intercept: float
    pearson_r: float
    n_points: int


def self_citation_sensitivity(
    m: CitationMatrix,
    indicator: str = INDICATOR_IW,
    *,
    cycles: int | None = None,
    tolerance: float = 1e-9,
    max_cycles: int = 100,
) -> SensitivityReport:
    """Measure how much an indicator moves when self-citations are removed.

    Supported indicators: ``iw`` (influence weights), ``raw_cited``
    (received-citation totals), ``cited_citing_ratio`` (cited/citing
    margin ratio).  The iteration arguments only affect ``iw``, but are
    validated for every indicator.

    The without-variant zeroes the diagonal before any normalization, so
    for ``iw`` the reference totals are recomputed from the stripped
    matrix rather than inherited.

    Raises
    ------
    CitationDataError
        For an unknown indicator or invalid iteration arguments.
    NumericalError
        When an ``iw`` run in tolerance mode does not converge.
    """
    check_iteration_args(cycles, tolerance, max_cycles)
    if indicator == INDICATOR_IW:
        with_values = influence_weights(
            m, cycles=cycles, tolerance=tolerance, max_cycles=max_cycles
        ).values
        without_values = influence_weights(
            m,
            self_citations=False,
            cycles=cycles,
            tolerance=tolerance,
            max_cycles=max_cycles,
        ).values
    elif indicator == INDICATOR_RAW_CITED:
        with_values = margins(m).cited_totals
        without_values = margins(strip_self_citations(m)).cited_totals
    elif indicator == INDICATOR_RATIO:
        diag = self_citation_diagnostics(m)
        with_values = diag.cited_citing_ratio_with
        without_values = diag.cited_citing_ratio_without
    else:
        raise CitationDataError(
            f"unknown indicator {indicator!r}; choose one of {', '.join(INDICATORS)}"
        )

    pct = np.full(len(m.journals), np.nan)
    defined = ~np.isnan(with_values) & ~np.isnan(without_values) & (with_values != 0)
    # an overflowed change stays inf; the report layer refuses to print it
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(
            (without_values - with_values) * 100.0, with_values, out=pct, where=defined
        )
    finite = pct[~np.isnan(pct)]
    if finite.size:
        max_abs = float(np.abs(finite).max())
        mean_abs = float(np.abs(finite).mean())
    else:
        max_abs = math.nan
        mean_abs = math.nan
    return SensitivityReport(
        indicator=indicator,
        journals=m.journals,
        with_values=np.array(with_values, dtype=float),
        without_values=np.array(without_values, dtype=float),
        pct_change=pct,
        max_abs_pct_change=max_abs,
        mean_abs_pct_change=mean_abs,
    )


def convergence_profile(trace: IterationTrace) -> ConvergenceProfile:
    """Summarize how fast an iteration trace is contracting.

    Ratios pair each delta with its predecessor starting at cycle 2; the
    ``geometric`` flag only judges ratios from cycle 3 on, because the
    first two deltas still carry the imprint of the start vector.

    Raises
    ------
    CitationDataError
        If the trace has fewer than ``MIN_PROFILE_CYCLES`` cycles.
    """
    deltas = trace.deltas
    if len(deltas) < MIN_PROFILE_CYCLES:
        raise CitationDataError(
            f"profile needs at least {MIN_PROFILE_CYCLES} cycles, trace has {len(deltas)}"
        )
    ratios: list[float] = []
    ratio_cycles: list[int] = []
    for k in range(1, len(deltas)):
        prev = deltas[k - 1]
        ratios.append(deltas[k] / prev if prev > 0 else math.nan)
        ratio_cycles.append(trace.steps[k].cycle)
    judged = [r for c, r in zip(ratio_cycles, ratios) if c >= 3 and not math.isnan(r)]
    geometric = all(r < 1.0 for r in judged)
    return ConvergenceProfile(deltas, tuple(ratios), tuple(ratio_cycles), geometric)


def linear_fit(x: np.ndarray, y: np.ndarray) -> LinearFit:
    """Least-squares line and Pearson correlation for paired values.

    A constant y is a legitimate degenerate fit (slope 0, correlation
    reported as 0); a constant x leaves the slope undefined and raises.

    Raises
    ------
    CitationDataError
        On fewer than two points or mismatched lengths.
    NumericalError
        When x has no variance.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape:
        raise CitationDataError(
            f"fit needs two equal-length 1-D arrays, got shapes {xa.shape} and {ya.shape}"
        )
    if xa.size < 2:
        raise CitationDataError(f"fit needs at least 2 points, got {xa.size}")
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise CitationDataError("fit points must be finite")

    xm = xa - xa.mean()
    ym = ya - ya.mean()
    sxx = float(xm @ xm)
    syy = float(ym @ ym)
    sxy = float(xm @ ym)
    if sxx == 0.0:
        raise NumericalError("all x values are identical; slope undefined")
    slope = sxy / sxx
    intercept = float(ya.mean() - slope * xa.mean())
    pearson_r = sxy / math.sqrt(sxx * syy) if syy > 0.0 else 0.0
    return LinearFit(slope, intercept, pearson_r, int(xa.size))

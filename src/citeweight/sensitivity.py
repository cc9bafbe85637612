"""Robustness analyses layered on the core indicators.

Two tools: recompute an indicator with and without self-citations and
report per-journal percentage shifts; and fit a least-squares line through
paired indicator values to quantify how closely two variants agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CitationDataError, NumericalError
from .matrix import CitationMatrix, JournalSet, _margins
from .metrics import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_TOLERANCE,
    _influence_trace,
    _margin_ratio,
    _safe_divide,
    check_iteration_args,
)

INDICATOR_IW = "iw"


# Each indicator as one function of (matrix, stripped, iteration
# arguments).  Unstripped it is the indicator of the matrix; stripped it is,
# bit for bit and with the same errors, that of strip_self_citations of the
# matrix, computed without iterating or keeping that copy.


def _influence_weights(m: CitationMatrix, stripped: bool, iteration: dict) -> np.ndarray:
    return _influence_trace(m, stripped, **iteration).final.values


def _raw_cited(m: CitationMatrix, stripped: bool, iteration: dict) -> np.ndarray:
    return _margins(m, stripped).cited_totals


def _cited_citing_ratio(m: CitationMatrix, stripped: bool, iteration: dict) -> np.ndarray:
    return _margin_ratio(_margins(m, stripped))


_INDICATOR_VALUES = {
    INDICATOR_IW: _influence_weights,
    "raw_cited": _raw_cited,
    "cited_citing_ratio": _cited_citing_ratio,
}
INDICATORS = tuple(_INDICATOR_VALUES)


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
    tolerance: float = DEFAULT_TOLERANCE,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> SensitivityReport:
    """Measure how much an indicator moves when self-citations are removed.

    Supported indicators: ``iw`` (influence weights), ``raw_cited``
    (received-citation totals), ``cited_citing_ratio`` (cited/citing
    margin ratio).  The iteration arguments only affect ``iw``, but are
    validated for every indicator.

    Each without-value is, bit for bit, the indicator of
    :func:`strip_self_citations` of ``m``; so for ``iw`` the reference
    totals are recomputed from the stripped matrix rather than inherited.

    Converged ``iw`` weights depend only on the off-diagonal counts:
    subtract ``C_ii w_i`` from both sides of ``R_i w_i = sum_j C_ij w_j``.
    So a tolerance-mode ``iw`` shift is iteration noise (1.03e-7% at most
    on ``price``); the paper's shifts come from a fixed ``cycles=7``
    (0.21% at most, 0.14% on average).

    Raises
    ------
    CitationDataError
        For an unknown indicator or invalid iteration arguments.
    NumericalError
        When an ``iw`` run in tolerance mode does not converge.
    """
    check_iteration_args(cycles, tolerance, max_cycles)
    if indicator not in INDICATORS:
        raise CitationDataError(
            f"unknown indicator {indicator!r}; choose one of {', '.join(INDICATORS)}"
        )
    iteration = dict(cycles=cycles, tolerance=tolerance, max_cycles=max_cycles)
    values_of = _INDICATOR_VALUES[indicator]
    with_values = values_of(m, False, iteration)
    without_values = values_of(m, True, iteration)

    # an overflowed change stays inf; the report layer refuses to print it
    with np.errstate(over="ignore", invalid="ignore"):
        change = without_values - with_values
        pct = _safe_divide(change * 100.0, with_values)
        # change * 100 can overflow where the percent change is finite
        big = np.isinf(pct)
        pct[big] = change[big] / with_values[big] * 100.0
    defined = np.abs(pct[~np.isnan(pct)])
    if defined.size:
        max_abs, mean_abs = float(defined.max()), float(defined.mean())
    else:
        max_abs = mean_abs = math.nan
    pct.setflags(write=False)
    return SensitivityReport(
        indicator=indicator,
        journals=m.journals,
        with_values=with_values,
        without_values=without_values,
        pct_change=pct,
        max_abs_pct_change=max_abs,
        mean_abs_pct_change=mean_abs,
    )


def linear_fit(x: np.ndarray, y: np.ndarray) -> LinearFit:
    """Least-squares line and Pearson correlation for paired values.

    A constant y is a legitimate degenerate fit (slope 0, correlation
    reported as 0); a constant x leaves the slope undefined and raises.

    Raises
    ------
    CitationDataError
        On fewer than two points or mismatched lengths.
    NumericalError
        When x has no variance, or a mean or sum of the fit overflows.
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

    # an overflowed mean makes every sum after it non-finite too
    with np.errstate(over="ignore", invalid="ignore"):
        xm = xa - xa.mean()
        ym = ya - ya.mean()
        sxx = float(xm @ xm)
        syy = float(ym @ ym)
        sxy = float(xm @ ym)
    if not all(map(math.isfinite, (sxx, syy, sxy))):
        raise NumericalError("fit sums overflowed; rescale the values")
    if sxx == 0.0:
        raise NumericalError("all x values are identical; slope undefined")
    slope = sxy / sxx
    intercept = float(ya.mean() - slope * xa.mean())
    # two roots, as sxx * syy can overflow, or lose digits below the normal
    # range, where neither root does
    pearson_r = sxy / (math.sqrt(sxx) * math.sqrt(syy)) if syy > 0.0 else 0.0
    return LinearFit(slope, intercept, pearson_r, int(xa.size))

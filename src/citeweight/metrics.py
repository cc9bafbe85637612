"""Journal influence indicators computed from citation matrices.

The central quantity is the influence weight: the stochastic dominant
eigenvector of the reference-normalized citation matrix, obtained by
recursive power iteration.  Alongside it this module provides the
Pinski-Narin normalization itself, power-weakness ratios from the raw
matrix and its transpose, and per-journal self-citation diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CitationDataError, NumericalError
from .matrix import (
    CitationMatrix,
    JournalSet,
    MarginTotals,
    _adopt,
    _checked,
    _is_positive_count,
    _kept,
    _margins,
    margins,
    transpose,
)

#: L1 convergence threshold and cycle budget of tolerance-mode iteration.
DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_CYCLES = 100
#: Ceiling on a cycle count or budget, so that no argument can hang a run:
#: a cycle took 0.23-0.28 ms at n=1024 on 2 vCPUs (0.20-0.23 ms of it the
#: matrix-vector product), so 23-28 s.
CYCLE_CEILING = 100_000


@dataclass(frozen=True, eq=False)
class NormalizedMatrix:
    """Dimensionless citation matrix: each row divided by that journal's
    citing (reference) total.

    Row i sums to journal i's cited-to-citing ratio, and scaling the
    source counts by a positive constant leaves the values unchanged.  The
    constructor names the first non-finite or negative cell.
    """

    journals: JournalSet
    values: np.ndarray

    def __post_init__(self):
        arr = _checked(self.journals, np.array(self.values, dtype=float), 2)
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Per-journal finite non-negative weights: the stochastic vector of an
    iteration, which sums to 1, or a power-weakness ratio on its natural
    scale.  The constructor names the first non-finite or negative cell.
    """

    journals: JournalSet
    values: np.ndarray

    def __post_init__(self):
        arr = _checked(self.journals, np.array(self.values, dtype=float), 1)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class IterationTrace:
    """Bounded record of a power iteration run: the stochastic vector after
    the last cycle, that cycle's matrix-vector product before
    renormalization, and the L1 delta of every cycle.  Cycle k's delta is
    ``deltas[k - 1]``, and ``iterations_used`` is ``len(deltas)``.

    ``decay_ratios[i]`` is ``deltas[i + 1] / deltas[i]``, the ratio of the
    pair ending at cycle i + 2, NaN where the earlier delta is 0, and
    ``converged`` is whether the last delta is at most the tolerance."""

    final: WeightVector
    product: np.ndarray
    deltas: tuple[float, ...]
    converged: bool

    @property
    def iterations_used(self) -> int:
        return len(self.deltas)

    @property
    def decay_ratios(self) -> tuple[float, ...]:
        pairs = zip(self.deltas, self.deltas[1:])
        return tuple(later / earlier if earlier > 0 else math.nan for earlier, later in pairs)


@dataclass(frozen=True, eq=False)
class PowerWeaknessResult:
    """Power-weakness ratio with its component vectors.

    ``power`` iterates the matrix as stored (cited side), ``weakness``
    its transpose (citing side); ``ratio`` is their elementwise quotient.
    """

    power: WeightVector
    weakness: WeightVector
    ratio: WeightVector
    cycles: int


@dataclass(frozen=True, eq=False)
class SelfCitationDiagnostics:
    """Per-journal decomposition of citation traffic into the self block
    and the exchanges with the rest of the ecosystem.

    For each journal: ``self_citations`` is the diagonal count,
    ``cited_by_others`` and ``citing_others`` the off-diagonal margins.
    Rates and ratios with zero denominators are NaN.
    """

    journals: JournalSet
    self_citations: np.ndarray
    cited_by_others: np.ndarray
    citing_others: np.ndarray
    self_cited_rate: np.ndarray
    self_citing_rate: np.ndarray
    cited_citing_ratio_with: np.ndarray
    cited_citing_ratio_without: np.ndarray


def pinski_narin_normalize(m: CitationMatrix) -> NormalizedMatrix:
    """Divide each journal's received-citation row by its citing total.

    The divisor for row i is journal i's own reference total (the column-i
    margin), so the result is dimensionless: citations received per
    reference given.  To leave out self-citations, pass
    :func:`strip_self_citations` of the matrix.

    Raises
    ------
    NumericalError
        If some journal makes no references at all, naming it; such an
        isolated journal must be removed before normalizing.  Also if a
        margin total or a quotient overflows, naming the cell.
    """
    return _normalize(m, stripped=False)


def _normalize(m: CitationMatrix, stripped: bool) -> NormalizedMatrix:
    """``pinski_narin_normalize`` of ``m``, or with ``stripped`` of
    ``strip_self_citations(m)``, bit for bit and with the same errors:
    off the diagonal the quotients are the same, and the stripped
    diagonal is 0 either way."""
    totals = _margins(m, stripped)
    citing = totals.citing_totals
    labels = m.journals.labels
    silent = np.flatnonzero(citing == 0)
    if silent.size:
        names = ", ".join(repr(labels[i]) for i in silent)
        raise NumericalError(f"journal {names} makes no references; cannot normalize")
    with np.errstate(over="ignore"):
        values = m.counts / citing[:, None]
        # no cell of row i exceeds cited_i / citing_i, so only a row whose
        # bound overflows can hold an overflowed cell
        bounds = totals.cited_totals / citing
    if stripped:
        # a self-citation count is not bounded by the stripped totals, so
        # it is zeroed before the scan
        np.fill_diagonal(values, 0.0)
    for i in np.flatnonzero(np.isinf(bounds)):
        overflowed = np.flatnonzero(np.isinf(values[i]))
        if overflowed.size:
            raise NumericalError(
                f"normalized cell ({labels[i]!r}, {labels[overflowed[0]]!r}) overflowed"
            )
    return _adopt(NormalizedMatrix, m.journals, values)


def _iterable_values(matrix: CitationMatrix | NormalizedMatrix) -> tuple[JournalSet, np.ndarray]:
    if isinstance(matrix, CitationMatrix):
        return matrix.journals, matrix.counts
    if isinstance(matrix, NormalizedMatrix):
        return matrix.journals, matrix.values
    raise CitationDataError(
        f"expected a CitationMatrix or NormalizedMatrix, got {type(matrix).__name__}"
    )


def check_iteration_args(cycles: int | None, tolerance: float, max_cycles: int) -> None:
    """Raise :class:`CitationDataError` unless the iteration arguments of
    :func:`power_iterate` are valid: ``cycles`` None or a cycle count, a
    finite positive ``tolerance``, and ``max_cycles`` a cycle count.  A
    cycle count is an integer from 1 to :data:`CYCLE_CEILING`."""
    if cycles is not None:
        _check_cycle_count("cycle count", cycles)
    if not (tolerance > 0 and math.isfinite(tolerance)):
        raise CitationDataError(f"tolerance must be finite and positive, got {tolerance!r}")
    _check_cycle_count("max_cycles", max_cycles)


def _check_cycle_count(name: str, count: int) -> None:
    if not _is_positive_count(count):
        raise CitationDataError(f"{name} must be a positive integer, got {count!r}")
    if count > CYCLE_CEILING:
        raise CitationDataError(f"{name} must be at most {CYCLE_CEILING}, got {count!r}")


def power_iterate(
    matrix: CitationMatrix | NormalizedMatrix,
    *,
    cycles: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> IterationTrace:
    """Run the recursive weight iteration and record how it converged.

    Starting from an all-ones vector, each cycle multiplies the matrix by
    the current weight vector and renormalizes the product to sum 1; the
    first cycle therefore reproduces the matrix row sums before
    renormalization.  Cycle deltas are L1 distances between successive
    stochastic vectors, with cycle 1 measured against the normalized
    (uniform) start vector.  The trace keeps one delta per cycle and the
    vectors of the last cycle only, so memory does not grow with the
    cycle count.

    Parameters
    ----------
    matrix : CitationMatrix or NormalizedMatrix
        Square non-negative matrix to iterate.
    cycles : int, optional
        Run exactly this many cycles, at most :data:`CYCLE_CEILING`.  When
        omitted, iteration stops as soon as the delta drops to
        ``tolerance``, or after ``max_cycles`` cycles with ``converged``
        set False.
    tolerance : float
        Finite positive L1 convergence threshold; also decides the
        ``converged`` flag of fixed-cycle runs.
    max_cycles : int
        Cycle budget in tolerance mode, at most :data:`CYCLE_CEILING`.

    Raises
    ------
    NumericalError
        If an iterate or its mass (the sum that renormalizes it) overflows
        to a non-finite value, or the mass vanishes so that renormalization
        is impossible.
    """
    journals, values = _iterable_values(matrix)
    check_iteration_args(cycles, tolerance, max_cycles)

    n = values.shape[0]
    vector = np.ones(n)
    previous = np.full(n, 1.0 / n)
    deltas: list[float] = []
    for cycle in range(1, (cycles or max_cycles) + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            product = values @ vector
            mass = product.sum()
        # the sum is not finite when a cell is not, or when the cells overflow it
        if not np.isfinite(mass):
            raise NumericalError(f"weight vector became non-finite at cycle {cycle}")
        if mass <= 0.0:
            raise NumericalError(
                f"weight vector vanished at cycle {cycle}; cannot renormalize"
            )
        vector = product / mass
        deltas.append(float(np.abs(vector - previous).sum()))
        previous = vector
        if cycles is None and deltas[-1] <= tolerance:
            break
    product.setflags(write=False)
    final = _adopt(WeightVector, journals, vector)
    return IterationTrace(final, product, tuple(deltas), deltas[-1] <= tolerance)


def _influence_trace(
    m: CitationMatrix,
    stripped: bool,
    cycles: int | None,
    tolerance: float,
    max_cycles: int,
) -> IterationTrace:
    """The kept trace of :func:`influence_weights`, or with ``stripped``
    the trace or error of ``influence_weights(strip_self_citations(m))``,
    bit for bit, iterated on ``m``'s counts divided by its kept stripped
    totals, so no stripped copy is made, and not kept on ``m``."""
    check_iteration_args(cycles, tolerance, max_cycles)

    def run() -> IterationTrace:
        normalized = _normalize(m, True) if stripped else pinski_narin_normalize(m)
        return power_iterate(
            normalized, cycles=cycles, tolerance=tolerance, max_cycles=max_cycles
        )

    key = ("influence_weights", cycles, tolerance, max_cycles)
    trace = run() if stripped else _kept(m, key, run)
    if cycles is None and not trace.converged:
        raise NumericalError(
            f"influence weights did not converge within {max_cycles} cycles "
            f"(final delta {trace.deltas[-1]:.3g} above tolerance {tolerance:g})"
        )
    return trace


def influence_weights(
    m: CitationMatrix,
    *,
    cycles: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> WeightVector:
    """Recursive influence weights: the final stochastic vector of
    :func:`power_iterate`, given the iteration arguments, on
    :func:`pinski_narin_normalize` of ``m``.  To leave out self-citations,
    pass :func:`strip_self_citations` of the matrix, so the divisors are
    its recomputed reference totals.

    The trace is kept on the matrix once per argument set (O(n) memory;
    the normalized matrix is not kept).  A repeated call returns that
    trace's very vector, or raises the same error, without iterating, and
    two threads that both miss compute the same bytes.  Changing
    ``counts`` after making them writable again is outside the contract.

    Raises
    ------
    CitationDataError
        For invalid iteration arguments, before the matrix is normalized.
    NumericalError
        In tolerance mode (``cycles`` omitted), when the delta is still
        above ``tolerance`` after ``max_cycles`` cycles.  A fixed-cycle run
        returns its vector whatever the trace's ``converged`` flag.
    """
    return _influence_trace(m, False, cycles, tolerance, max_cycles).final


def power_weakness_ratio(m: CitationMatrix, cycles: int) -> PowerWeaknessResult:
    """Elementwise ratio of iterated cited-side and citing-side weights.

    Both the raw matrix (power) and its transpose (weakness) are iterated
    for the same number of cycles with per-cycle stochastic
    renormalization, and the ratio is taken of the two final vectors.
    After one cycle the ratio equals each journal's cited-to-citing margin
    ratio.

    Raises
    ------
    CitationDataError
        If ``cycles`` is not a cycle count, before any cycle is run.
    NumericalError
        If some journal's weakness weight is zero, naming it; the ratio is
        undefined there.  Also if a ratio overflows, naming the journal.
    """
    # None would make each iteration a tolerance-mode run
    _check_cycle_count("cycle count", cycles)
    power = power_iterate(m, cycles=cycles).final
    weakness = power_iterate(transpose(m), cycles=cycles).final
    zero = np.flatnonzero(weakness.values == 0)
    if zero.size:
        names = ", ".join(repr(m.journals.labels[i]) for i in zero)
        raise NumericalError(
            f"weakness weight of journal {names} is zero after {cycles} cycles; "
            "power-weakness ratio undefined"
        )
    with np.errstate(over="ignore"):
        ratio = power.values / weakness.values
    overflowed = [m.journals.labels[i] for i in np.flatnonzero(np.isinf(ratio))]
    if overflowed:
        raise NumericalError(f"power-weakness ratio of journal {overflowed[0]!r} overflowed")
    ratio_vector = _adopt(WeightVector, m.journals, ratio)
    return PowerWeaknessResult(power, weakness, ratio_vector, int(cycles))


def self_citation_diagnostics(m: CitationMatrix) -> SelfCitationDiagnostics:
    """Split each journal's citation traffic into self and cross terms.

    The cross terms are the margins of :func:`strip_self_citations` of the
    matrix, summed over the off-diagonal cells: a total minus its diagonal
    cell would cancel where self-citations dominate.  Both sets of totals
    are kept on the matrix, as :func:`margins` keeps its own.
    Zero-denominator rates and ratios are NaN, since a journal with no
    received citations or no references is valid data.
    """
    totals = margins(m)
    others = _margins(m, stripped=True)
    self_counts = np.diagonal(m.counts).copy()
    arrays = dict(
        self_citations=self_counts,
        cited_by_others=others.cited_totals,
        citing_others=others.citing_totals,
        self_cited_rate=_safe_divide(self_counts, totals.cited_totals),
        self_citing_rate=_safe_divide(self_counts, totals.citing_totals),
        cited_citing_ratio_with=_margin_ratio(totals),
        cited_citing_ratio_without=_margin_ratio(others),
    )
    for values in arrays.values():
        values.setflags(write=False)
    return SelfCitationDiagnostics(m.journals, **arrays)


def _margin_ratio(totals: MarginTotals) -> np.ndarray:
    ratio = _safe_divide(totals.cited_totals, totals.citing_totals)
    ratio.setflags(write=False)
    return ratio


def _safe_divide(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    out = np.full(numerator.shape, np.nan)
    # an overflowed quotient stays inf; the report layer refuses to print it
    with np.errstate(over="ignore"):
        np.divide(numerator, denominator, out=out, where=denominator != 0)
    return out

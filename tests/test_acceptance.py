"""Acceptance gate: end-to-end checks at fixed tolerances.

Each test is one criterion; the terminal summary lists a PASS or FAIL
line per criterion after the run (see conftest).
"""

import subprocess
import sys
import time

import numpy as np
import pytest

import golden_values as gv
import test_properties
from citeweight import (
    influence_weights,
    linear_fit,
    margins,
    pinski_narin_normalize,
    power_iterate,
    power_weakness_ratio,
    price_matrix,
    self_citation_sensitivity,
    strip_self_citations,
)


def best_time(fn, repeats=5):
    elapsed = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - start)
    return min(elapsed)


def dominant_eigenvector(values):
    eigenvalues, eigenvectors = np.linalg.eig(values)
    lead = np.argmax(np.abs(eigenvalues))
    vec = np.real(eigenvectors[:, lead])
    return vec / vec.sum()


def test_normalized_grid_and_row_sums_within_tolerance_quickly(price):
    nm = pinski_narin_normalize(price)
    assert np.abs(nm.values - np.array(gv.NORMALIZED_3DP)).max() <= 0.0005
    assert np.abs(
        nm.values.sum(axis=1) - np.array(gv.ROW_SUMS_3DP)
    ).max() <= 0.001
    assert best_time(lambda: pinski_narin_normalize(price)) < 0.010


def test_seven_cycle_weights_and_percent_shifts_quickly(price):
    with_weights = influence_weights(price, cycles=7)
    without_weights = influence_weights(strip_self_citations(price), cycles=7)
    assert np.abs(with_weights.values - np.array(gv.IW7_WITH)).max() <= 0.0005
    assert np.abs(without_weights.values - np.array(gv.IW7_WITHOUT)).max() <= 0.0005
    pct = (without_weights.values - with_weights.values) / with_weights.values * 100
    assert np.abs(pct - np.array(gv.PCT_CHANGE_2DP)).max() <= 0.10
    assert best_time(lambda: influence_weights(price, cycles=7)) < 0.010


def test_headline_shifts_for_most_self_cited_journal(price):
    raw = self_citation_sensitivity(price, "raw_cited")
    assert raw.pct_change[0] == pytest.approx(-34.0, abs=0.1)
    weights = self_citation_sensitivity(price, "iw", cycles=7)
    assert weights.pct_change[0] == pytest.approx(-0.14, abs=0.03)


def test_without_vs_with_weights_fit_near_identity_line(price):
    report = self_citation_sensitivity(price, "iw", cycles=7)
    fit = linear_fit(report.with_values, report.without_values)
    assert fit.slope == pytest.approx(1.00, abs=0.01)
    assert fit.intercept == pytest.approx(0.00, abs=0.005)
    assert fit.pearson_r >= 0.999


def test_single_cycle_ratio_identity_tight(price):
    # the first pre-normalization weight product and the single-cycle
    # power-weakness ratio are the same margin quotient
    first_product = power_iterate(pinski_narin_normalize(price), cycles=1).product
    ratio = power_weakness_ratio(price, 1).ratio.values
    assert np.abs(ratio / first_product - 1.0).max() <= 1e-12
    totals = margins(price)
    expected = totals.cited_totals / totals.citing_totals
    assert np.abs(ratio / expected - 1.0).max() <= 1e-12


def test_random_matrices_match_dense_eigensolver():
    from citeweight import CitationMatrix, JournalSet

    rng = np.random.default_rng(12345)
    for trial in range(50):
        n = int(rng.integers(3, 6))
        counts = rng.integers(1, 101, size=(n, n))
        labels = tuple(f"J{i + 1}" for i in range(n))
        nm = pinski_narin_normalize(CitationMatrix(JournalSet(labels), counts))
        trace = power_iterate(nm, tolerance=1e-13, max_cycles=5000)
        assert trace.converged, f"trial {trial}"
        oracle = dominant_eigenvector(nm.values)
        assert np.abs(trace.final.values - oracle).max() <= 1e-8, f"trial {trial}"


def test_delta_decay_is_strict_and_tracks_subdominant_eigenvalue(price):
    nm = pinski_narin_normalize(price)
    trace = power_iterate(nm, cycles=10)
    deltas = trace.deltas
    for earlier, later in zip(deltas[2:], deltas[3:]):
        assert later < earlier
    eigenvalues = np.sort(np.abs(np.linalg.eigvals(nm.values)))[::-1]
    subdominant = eigenvalues[1] / eigenvalues[0]
    assert deltas[9] / deltas[8] == pytest.approx(subdominant, rel=0.05)
    assert subdominant == pytest.approx(gv.SUBDOMINANT_RATIO, abs=1e-4)


def test_randomized_invariant_suites_run_at_volume():
    suites = [
        fn
        for name, fn in vars(test_properties).items()
        if name.startswith("test_") and callable(fn)
    ]
    assert len(suites) >= 10
    for fn in suites:
        configured = getattr(fn, "_hypothesis_internal_use_settings", None)
        assert configured is not None, fn.__name__
        assert configured.max_examples >= 100, fn.__name__


def test_example_rerun_is_deterministic_and_fast():
    command = [sys.executable, "-m", "citeweight", "reproduce-paper", "--format", "json"]
    first = subprocess.run(command, capture_output=True, timeout=60)
    start = time.perf_counter()
    second = subprocess.run(command, capture_output=True, timeout=60)
    warm = time.perf_counter() - start
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # non-empty report
    assert warm < 1.0

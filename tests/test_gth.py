"""The GTH oracle of ``tests/gth.py`` against the eigensolver and exact
answers."""

from fractions import Fraction

import numpy as np
import pytest

from citeweight import pinski_narin_normalize
from gth import gth_weights
from test_acceptance import dominant_eigenvector


def test_equals_the_eigensolver_on_price(price):
    oracle = dominant_eigenvector(pinski_narin_normalize(price).values)
    assert np.abs(gth_weights(price.counts) - oracle).sum() <= 1e-15


@pytest.mark.parametrize("coupling", [1.0, 1e-2])
def test_exact_on_a_near_decomposable_matrix(coupling):
    # ROADMAP item 11's matrix, where the iteration stops after one cycle at
    # 0.25 each: two blocks of 1e9 counts, joined by a and 3a citations
    a, b = coupling, 3 * coupling
    counts = [[5e9, 1e9, 0, 0], [1e9, 5e9, a, 0], [0, 0, 5e9, 1e9], [b, 0, 1e9, 9e9]]
    # R_i w_i = sum_j C_ij w_j gives w_1 = w_0 (1 + b/1e9), w_2 = w_0 b/a
    # and w_3 = w_2 (1 + a/1e9): about 0.125, 0.125, 0.375 and 0.375
    a, b, big = Fraction(a), Fraction(b), Fraction(10**9)
    parts = [1, 1 + b / big, b / a, b / a * (1 + a / big)]
    exact = np.array([float(part / sum(parts)) for part in parts])
    assert np.abs(gth_weights(counts) / exact - 1).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize(
    "counts",
    [[[5, 1, 0, 0], [1, 5, 0, 0], [0, 0, 5, 1], [0, 0, 1, 9]], [[1, 0], [0, 9]]],
    ids=["two-blocks", "two-journals"],
)
def test_zero_pivot_where_the_chain_has_two_closed_classes(counts):
    assert gth_weights(counts) is None

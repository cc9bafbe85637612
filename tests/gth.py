"""A subtraction-free oracle for the influence weights: the
Grassmann–Taksar–Heyman state reduction (Grassmann, Taksar & Heyman,
*Operations Research* 33, 1985; Stewart, *Introduction to the Numerical
Solution of Markov Chains*, 1994, ch. 2).

The weights solve ``R_j w_j = sum_i C_ji w_i``: with the self-citations
taken from both sides, they are the stationary vector of the chain whose
rate from journal ``j`` to journal ``i`` is ``C_ij``, journal ``j`` citing
``i``.  Gaussian elimination of that chain's states needs no subtraction,
since each pivot is the sum of a state's remaining rates, so its relative
error is bounded by a function of n alone (O'Cinneide, *Numerische
Mathematik* 65, 1993), however slowly the power iteration would mix.
"""

import numpy as np


def gth_weights(counts) -> np.ndarray | None:
    """The influence weights of a cited-by-citing count matrix, summing
    to 1, or None on a zero pivot: then the first journal is not in the
    one closed class of the chain, which may have several.  The diagonal
    is never read."""
    rates = np.array(counts, dtype=float).T
    n = len(rates)
    # remove journals from the last to the second: each rate into journal k
    # passes on to the journals before it, in proportion to k's rates to
    # them; the scaled column k is kept to rebuild k's weight from theirs
    for k in range(n - 1, 0, -1):
        pivot = rates[k, :k].sum()
        if pivot == 0:
            return None
        rates[:k, k] /= pivot
        rates[:k, :k] += np.outer(rates[:k, k], rates[k, :k])
    weights = np.zeros(n)
    weights[0] = 1.0
    for k in range(1, n):
        weights[k] = weights[:k] @ rates[:k, k]
    return weights / weights.sum()

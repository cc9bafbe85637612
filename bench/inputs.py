"""Seeded input generators for the benchmark.

Every matrix is a pure function of (generator, n, matrix id), the id
seeding the generator, so a workload always feeds citeweight the same CSV
bytes.  The constants below are fixed for all ids; a generated matrix that
citeweight rejects is reported as a failed operation, never skipped.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from checks import counts_digest

#: ``uniform``: dense integer counts drawn uniformly from [0, UNIFORM_HIGH).
UNIFORM_HIGH = 500

#: ``fields``: journals in FIELD_COUNT fields with lognormal sizes.  Cells
#: between fields are scaled by CROSS_FIELD_AFFINITY and the diagonal by
#: SELF_CITATION_BOOST; counts are Poisson with MEAN_REFERENCES expected
#: references per journal.  These give 25-33 tolerance-mode cycles at
#: n=512-1024 (23-27 with self-citations removed), against 6 for uniform
#: matrices, because the field blocks shrink the spectral gap.
FIELD_COUNT = 8
CROSS_FIELD_AFFINITY = 0.1
SELF_CITATION_BOOST = 6.0
SIZE_SIGMA = 1.0
MEAN_REFERENCES = 1000.0

# Rows: cited journal; columns: citing journal.  The eight-journal
# biochemistry matrix of the paper's worked example, kept here so that the
# labeled-CSV and stdin inputs do not depend on the package's fixture API.
PRICE_LABELS = (
    "J. Biol. Chem.",
    "Biochim. Biophys. Acta",
    "Proc. Natl. Acad. Sci.",
    "Biochemistry",
    "Nature",
    "Biochem. J.",
    "J. Mol. Biol.",
    "Biochem. Biophys. Res. Commun.",
)
PRICE_COUNTS = (
    (9384, 6181, 2107, 3750, 609, 2335, 719, 2511),
    (2406, 7550, 865, 1757, 365, 1478, 408, 1120),
    (2770, 2184, 3995, 1946, 1470, 488, 1239, 1329),
    (2553, 2591, 1057, 3827, 299, 653, 601, 887),
    (1007, 1230, 1407, 837, 2963, 379, 603, 630),
    (1183, 1812, 326, 632, 201, 2464, 150, 528),
    (1109, 1136, 1251, 1347, 504, 216, 2545, 367),
    (1624, 1719, 695, 1040, 263, 564, 241, 1313),
)


def uniform_counts(n: int, seed: int) -> np.ndarray:
    """Dense n-by-n integer counts, uniform in [0, UNIFORM_HIGH)."""
    return np.random.default_rng(seed).integers(0, UNIFORM_HIGH, size=(n, n))


def fields_counts(n: int, seed: int) -> np.ndarray:
    """Journal-like n-by-n counts with field structure and a heavy tail.

    Every journal cites at least one other journal, so the matrix stays
    normalizable with and without self-citations.
    """
    rng = np.random.default_rng(seed)
    size = rng.lognormal(0.0, SIZE_SIGMA, n)
    field = rng.integers(0, FIELD_COUNT, n)
    affinity = np.where(field[:, None] == field[None, :], 1.0, CROSS_FIELD_AFFINITY)
    rate = size[:, None] * size[None, :] * affinity
    rate[np.diag_indices(n)] *= SELF_CITATION_BOOST
    rate *= MEAN_REFERENCES * n / rate.sum()
    counts = rng.poisson(rate)
    off_diagonal = counts.sum(axis=0) - np.diagonal(counts)
    for j in np.flatnonzero(off_diagonal == 0):
        counts[(j + 1) % n, j] += 1
    return counts


GENERATORS = {"uniform": uniform_counts, "fields": fields_counts}


def library_matrix(n: int, seed: int):
    """The ``fields`` matrix as a library user builds it, journals J1..Jn,
    and the digest of its counts.  Needs citeweight on the import path."""
    import citeweight

    counts = fields_counts(n, seed)
    labels = citeweight.JournalSet(tuple(f"J{i}" for i in range(1, n + 1)))
    return citeweight.CitationMatrix(labels, counts), counts_digest(counts)


def headerless_csv(counts: np.ndarray) -> str:
    """n lines of n comma-separated integers, LF-terminated."""
    return "".join(",".join(map(str, row)) + "\n" for row in counts.tolist())


def labeled_csv(labels, counts) -> str:
    """CSV with a label header row and a label first column."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["journal", *labels])
    for label, row in zip(labels, counts):
        writer.writerow([label, *row])
    return out.getvalue()

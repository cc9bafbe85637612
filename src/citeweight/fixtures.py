"""Bundled example data.

The ``price`` fixture is the classic cross-citation matrix among eight
leading biochemistry journals, counted from the 1977 Journal Citation
Index.  It is small enough to check by hand yet rich enough to exercise
every indicator, which makes it the reference dataset for the golden
tests and the ``reproduce-paper`` command.
"""

from __future__ import annotations

from .matrix import CitationMatrix, JournalSet

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

# Rows: cited journal; columns: citing journal.
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


def price_matrix() -> CitationMatrix:
    """The eight-journal biochemistry citation matrix."""
    return CitationMatrix(JournalSet(PRICE_LABELS), PRICE_COUNTS)


FIXTURES = {"price": price_matrix}

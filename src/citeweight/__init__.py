"""Journal influence indicators from square citation matrices."""

__version__ = "0.1.0"

from .errors import CitationDataError, NumericalError
from .matrix import (
    DEFAULT_MAX_SIZE,
    CitationMatrix,
    JournalSet,
    MarginTotals,
    margins,
    matrix_power,
    parse_matrix_csv,
    strip_self_citations,
    transpose,
)
from .fixtures import price_matrix
from .metrics import (
    IterationTrace,
    NormalizedMatrix,
    PowerWeaknessResult,
    SelfCitationDiagnostics,
    WeightVector,
    influence_weights,
    pinski_narin_normalize,
    power_iterate,
    power_weakness_ratio,
    self_citation_diagnostics,
)
from .sensitivity import (
    INDICATORS,
    LinearFit,
    SensitivityReport,
    linear_fit,
    self_citation_sensitivity,
)
from .report import Section, build_sections, render_sections

__all__ = [
    "CitationDataError",
    "NumericalError",
    "DEFAULT_MAX_SIZE",
    "CitationMatrix",
    "JournalSet",
    "MarginTotals",
    "margins",
    "matrix_power",
    "parse_matrix_csv",
    "strip_self_citations",
    "transpose",
    "price_matrix",
    "IterationTrace",
    "NormalizedMatrix",
    "PowerWeaknessResult",
    "SelfCitationDiagnostics",
    "WeightVector",
    "influence_weights",
    "pinski_narin_normalize",
    "power_iterate",
    "power_weakness_ratio",
    "self_citation_diagnostics",
    "INDICATORS",
    "LinearFit",
    "SensitivityReport",
    "linear_fit",
    "self_citation_sensitivity",
    "Section",
    "build_sections",
    "render_sections",
    "__version__",
]

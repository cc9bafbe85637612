"""Output checks: digests of what citeweight produced, compared with the
digests committed in references.json.

Table and CSV output is compared byte for byte.  JSON must first be in the
program's canonical form, ``json.dumps(payload, indent=2, allow_nan=False)``
plus a newline, so indentation, the trailing newline and number spelling
are checked too; it is then compared after dropping its top-level ``meta``
block, which carries run facts (source, version) and is expected to grow.
Library results are compared through the same 12-significant-digit
rendering the CLI writes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def input_digest(data: str) -> str:
    return _sha(data.encode("utf-8"))


def counts_digest(counts) -> str:
    """Digest of generated counts handed to the library as an array."""
    return _sha(counts.astype("<i8").tobytes())


def canonical_json(payload) -> str:
    """The form in which citeweight writes a JSON report."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def output_digest(text: str, fmt: str) -> str:
    """Digest of one CLI report; raises ValueError on JSON that does not
    parse or is not in canonical form."""
    if fmt == "json":
        payload = json.loads(text)
        if canonical_json(payload) != text:
            raise ValueError("JSON is not in canonical form")
        payload.pop("meta", None)
        text = canonical_json(payload)
    return _sha(text.encode("utf-8"))


def library_op(m, metrics, sensitivity):
    """One library operation: the calls a notebook user makes on a matrix.

    Functions are looked up on the modules at call time, so a traced run
    sees the wrapped versions.
    """
    iw = metrics.influence_weights(m)
    report = sensitivity.self_citation_sensitivity(m, "iw")
    fit = sensitivity.linear_fit(report.with_values, report.without_values)
    pwr = metrics.power_weakness_ratio(m, 7)
    diag = metrics.self_citation_diagnostics(m)
    return iw, report, fit, pwr, diag


def library_digest(result) -> str:
    iw, report, fit, pwr, diag = result
    arrays = (
        iw.values,
        report.with_values,
        report.without_values,
        report.pct_change,
        (fit.slope, fit.intercept, fit.pearson_r),
        pwr.power.values,
        pwr.weakness.values,
        pwr.ratio.values,
        diag.self_citations,
        diag.cited_by_others,
        diag.citing_others,
        diag.self_cited_rate,
        diag.self_citing_rate,
        diag.cited_citing_ratio_with,
        diag.cited_citing_ratio_without,
    )
    text = "\n".join(",".join(f"{float(v):.12g}" for v in a) for a in arrays)
    return _sha(text.encode("utf-8"))


def load_references() -> dict[str, str]:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))

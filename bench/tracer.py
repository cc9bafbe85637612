"""Spans around citeweight's public functions, recorded from outside.

The tracer replaces module attributes that callers look up at call time
(``citeweight.cli.parse_matrix_csv`` and so on) with wrappers that record a
span: name, operation id, parent span, start, end, and counts taken from
the return value.  Spans stay in memory until the run ends.  A wrapped name
that no longer exists is listed as absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter


def _cells(result):
    return {"cells": result.n * result.n}


def _iterate(result, args, kwargs):
    if kwargs.get("cycles") is not None:  # fixed-cycle runs (pwr) say nothing of convergence
        return {}
    return {
        "cycles": result.iterations_used,
        "calls": 1,
        "converged": int(bool(result.converged)),
    }


def _section_cells(result):
    sections = result if isinstance(result, tuple) else (result,)
    return {"cells": sum(len(row) - 1 for sec in sections for row in sec.rows)}


def _render_name(args, kwargs):
    fmt = args[1] if len(args) > 1 else kwargs.get("fmt")
    return f"report.render.{fmt}"


# (module, attribute, span name or name function, counter)
WRAPPED = (
    ("cli", "main", "cli.main", None),
    ("cli", "parse_matrix_csv", "matrix.parse", lambda r, a, k: _cells(r)),
    ("cli", "matrix_power", "matrix.power", None),
    ("cli", "pinski_narin_normalize", "metrics.normalize", None),
    ("metrics", "pinski_narin_normalize", "metrics.normalize", None),
    ("cli", "power_iterate", "metrics.iterate", _iterate),
    ("metrics", "power_iterate", "metrics.iterate", _iterate),
    ("cli", "power_weakness_ratio", "metrics.pwr", None),
    ("metrics", "power_weakness_ratio", "metrics.pwr", None),
    ("cli", "self_citation_diagnostics", "metrics.diagnose", None),
    ("metrics", "self_citation_diagnostics", "metrics.diagnose", None),
    ("sensitivity", "self_citation_diagnostics", "metrics.diagnose", None),
    ("metrics", "influence_weights", "metrics.influence_weights", None),
    ("sensitivity", "influence_weights", "metrics.influence_weights", None),
    ("cli", "self_citation_sensitivity", "sensitivity.self", None),
    ("sensitivity", "self_citation_sensitivity", "sensitivity.self", None),
    ("cli", "linear_fit", "sensitivity.fit", None),
    ("sensitivity", "linear_fit", "sensitivity.fit", None),
    ("cli", "build_sections", "report.build", lambda r, a, k: _section_cells(r)),
    ("cli", "weights_section", "report.build", lambda r, a, k: _section_cells(r)),
    ("cli", "render_sections", _render_name, lambda r, a, k: {"bytes": len(r.encode())}),
)


class Tracer:
    """Installs the wrappers on demand and keeps every span in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[dict] = []
        self._patches = []
        for module_name, attr, name, counter in WRAPPED:
            try:
                module = importlib.import_module(f"citeweight.{module_name}")
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, counter)
            self._patches.append((module, attr, original, wrapper))

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {
                "name": name(args, kwargs) if callable(name) else name,
                "op": self.op,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "id": len(self.spans),
                "child_s": 0.0,
            }
            self.spans.append(span)
            self._stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                span.update(start=start, end=end)
                if self._stack:
                    self._stack[-1]["child_s"] += end - start
            if counter is not None:
                try:
                    span["counts"] = counter(result, args, kwargs)
                except (AttributeError, TypeError):
                    span["counts"] = {}  # the return type changed; keep the span
            return result

        return wrapper

    def install(self):
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _wrapper in self._patches:
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        totals: dict[str, float] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - span["child_s"]
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def counts(self) -> dict[str, dict[str, int]]:
        totals: dict[str, dict[str, int]] = {}
        for span in self.spans:
            bucket = totals.setdefault(span["name"], {})
            for key, value in span.get("counts", {}).items():
                bucket[key] = bucket.get(key, 0) + value
        return totals

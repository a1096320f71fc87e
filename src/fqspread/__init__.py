"""Exact spread geometry over odd finite fields.

Spreads are the finite-field analog of sin^2 of the angle between two
difference vectors; this package computes them exactly, counts them
exhaustively, builds the extremal isotropic-subspace point sets, and runs
seeded desk-scale experiments over the classical claims about them.

Submodules load on first use (PEP 562): ``import fqspread`` compiles none
of them, and ``fqspread.Field`` imports only ``ff`` and what ``ff`` needs.
"""

import importlib

# Each exported name and the submodule it comes from; a submodule maps to itself.
_EXPORTS = {
    "census": "census", "construct": "construct", "errors": "errors", "expt": "expt", "ff": "ff", "geom": "geom",
    "DistanceCensus": "census", "LineCensus": "census", "SpreadCensus": "census",
    "distinct_distances": "census", "distinct_spreads": "census", "search_iso_triple": "census",
    "spanned_lines": "census", "sphere_equiv_check": "census", "spread_occurrences": "census",
    "con1_set": "construct", "con2_set": "construct", "span": "construct",
    "iso_family_1mod4": "construct", "iso_family_3mod4": "construct",
    "ExperimentReport": "expt", "acceptance_suite": "expt",
    "Field": "ff", "parse_field": "ff",
    "PointSet": "geom", "k_spread": "geom", "sphere_points": "geom", "spread": "geom",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule behind an exported name on its first access."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS})

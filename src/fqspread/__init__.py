"""Exact spread geometry over odd finite fields.

Spreads are the finite-field analog of sin^2 of the angle between two
difference vectors; this package computes them exactly, counts them
exhaustively, builds the extremal isotropic-subspace point sets, and runs
seeded desk-scale experiments over the classical claims about them.
"""

from . import census, construct, errors, expt, ff, geom
from .census import (
    DistanceCensus,
    LineCensus,
    SpreadCensus,
    collision_count,
    distinct_distances,
    distinct_spreads,
    search_iso_triple,
    spanned_lines,
    sphere_equiv_check,
    spread_occurrences,
)
from .construct import con1_set, con2_set, iso_family_1mod4, iso_family_3mod4, span
from .expt import ExperimentReport, acceptance_suite
from .ff import Field, parse_field
from .geom import PointSet, k_spread, sphere_points, spread

__all__ = [
    "DistanceCensus",
    "ExperimentReport",
    "Field",
    "LineCensus",
    "PointSet",
    "SpreadCensus",
    "acceptance_suite",
    "census",
    "collision_count",
    "con1_set",
    "con2_set",
    "construct",
    "distinct_distances",
    "distinct_spreads",
    "errors",
    "expt",
    "ff",
    "geom",
    "iso_family_1mod4",
    "iso_family_3mod4",
    "k_spread",
    "parse_field",
    "search_iso_triple",
    "span",
    "spanned_lines",
    "sphere_equiv_check",
    "sphere_points",
    "spread",
    "spread_occurrences",
]

__version__ = "0.1.0"

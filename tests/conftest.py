"""Shared naive oracles: straight-line reimplementations used to cross-check
the vectorized census kernels.  Deliberately dumb and table-free."""

import itertools

from fqspread import geom


def naive_spread_census(ps):
    values = set()
    undefined = 0
    scanned = 0
    for a, b, c in itertools.permutations(ps.points, 3):
        scanned += 1
        s = geom.spread(ps.field, a, b, c)
        if s is None:
            undefined += 1
        else:
            values.add(s)
    return sorted(values), undefined, scanned


def naive_occurrences(ps, gamma):
    return sum(
        1
        for a, b, c in itertools.permutations(ps.points, 3)
        if geom.spread(ps.field, a, b, c) == gamma
    )


def naive_spanned_lines(ps):
    """(number of lines spanned by pairs, most spanned lines through one
    point), from a set of canonical lines."""
    lines = set()
    through = [set() for _ in ps.points]
    for (i, a), (j, b) in itertools.combinations(enumerate(ps.points), 2):
        ln = geom.line_through(ps.field, a, b)
        lines.add(ln)
        through[i].add(ln)
        through[j].add(ln)
    return len(lines), max(len(s) for s in through)


def naive_plane_spread_values(fd):
    """Every defined spread value of the whole plane F_q^2.

    The spread is scale-invariant, so it depends only on the directions of
    its two arms; every ordered pair of the q+1 directions (1, t) and
    (0, 1) is placed at the origin, equal pairs included (collinear
    triples)."""
    origin = (0, 0)
    directions = [(1, t) for t in fd.elements()] + [(0, 1)]
    values = {
        geom.spread(fd, origin, u, v)
        for u, v in itertools.product(directions, repeat=2)
    }
    values.discard(None)
    return sorted(values)


def naive_distances(ps):
    return sorted(
        {
            geom.dist(ps.field, a, b)
            for a, b in itertools.combinations(ps.points, 2)
        }
    )

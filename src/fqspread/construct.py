"""Extremal point-set constructions built from totally isotropic families.

The families are d/2 mutually orthogonal, linearly independent isotropic
vectors; their span is a point set of size q^(d/2) determining no spread at
all, and adding one extra axis direction in odd dimension gives q^((d+1)/2)
points determining at most one spread value.  For q = 3 mod 4 the family is
built from the least isotropic triple, read off the circle b^2 + c^2 = -1
by ``geom.sphere_blocks``.  Spans and family checks run on ``Field.log_dot``;
independence is checked with ``geom.rank``.
"""

from __future__ import annotations

import numpy as np

from . import ff, geom
from .errors import (
    BadDimension,
    BadResidue,
    BudgetExceeded,
    DependentInput,
    OddDimension,
)
from .geom import PointSet, Vec


def is_isotropic_family(fd: ff.Field, vectors: list[Vec]) -> bool:
    """Check the three family invariants: a zero Gram matrix (every vector
    isotropic, pairwise orthogonal), and the family linearly independent."""
    if not vectors:
        return True
    x = fd.log[np.array(vectors, dtype=np.int64)]
    return bool((fd.log_dot(x[:, None], x[None]) == fd.zero_log).all()) and geom.rank(fd, vectors) == len(vectors)


def iso_family_1mod4(fd: ff.Field, d: int) -> list[Vec]:
    """For q = 1 mod 4 and even d: the d/2 vectors with a (1, i) block in
    coordinates (2j, 2j+1), i the smaller square root of -1."""
    if d % 2:
        raise OddDimension(f"d = {d} must be even")
    if fd.q % 4 != 1:
        raise BadResidue(f"q = {fd.q} is not 1 mod 4")
    i = fd.sqrt(fd.neg(1))
    return [(0,) * (2 * j) + (1, i) + (0,) * (d - 2 * j - 2) for j in range(d // 2)]


def least_isotropic_triple(fd: ff.Field) -> tuple[int, int, int]:
    """Lexicographically least (a, b, c) with a^2 + b^2 + c^2 = 0 and a != 0.

    Every element of F_q, -1 included, is a sum of two squares, so the least
    triple has a = 1 and (b, c) is the first point of the circle
    b^2 + c^2 = -1 in index order.  a != 0 keeps the two block vectors built
    from the triple independent.
    """
    b, c = next(p for block in geom.sphere_blocks(fd, 2, fd.neg(1)) for p in block.tolist())
    return (1, b, c)


def iso_family_3mod4(fd: ff.Field, d: int) -> list[Vec]:
    """For q = 3 mod 4 and d = 0 mod 4: d/4 blocks of the pair
    (a,b,c,0) and (0,-c,b,a) built from the least isotropic triple."""
    if fd.q % 4 != 3:
        raise BadResidue(f"q = {fd.q} is not 3 mod 4")
    if d % 4:
        raise BadDimension(f"d = {d} must be divisible by 4")
    a, b, c = least_isotropic_triple(fd)
    block = [(a, b, c, 0), (0, fd.neg(c), b, a)]
    return [(0,) * (4 * j) + w + (0,) * (d - 4 * j - 4) for j in range(d // 4) for w in block]


def iso_family(fd: ff.Field, d: int) -> list[Vec]:
    """The d/2-vector family for whichever residue case applies."""
    if fd.q % 4 == 1:
        return iso_family_1mod4(fd, d)
    return iso_family_3mod4(fd, d)


def span(fd: ff.Field, vectors: list[Vec], budget: int = geom.DEFAULT_ENUM_BUDGET) -> PointSet:
    """All q^m linear combinations of m >= 1 independent vectors, in
    lexicographic coefficient order (so emitted files are byte-for-byte
    reproducible), one ``log_dot`` per block of ``geom.index_blocks``
    coefficient rows."""
    if not vectors:
        raise DependentInput("a span needs at least one vector")
    m = len(vectors)
    if geom.rank(fd, vectors) != m:
        raise DependentInput("vectors are linearly dependent")
    if fd.q**m > budget:
        raise BudgetExceeded(f"q^m = {fd.q ** m} exceeds budget {budget}")
    basis = fd.log[np.array(vectors, dtype=np.int64)].T  # (d, m)
    blocks = [
        fd.exp.take(fd.log_dot(fd.log.take(c, mode="wrap")[:, None], basis), mode="wrap")
        for c in geom.index_blocks(fd, m)
    ]
    return PointSet(fd, len(vectors[0]), np.concatenate(blocks))


def con1_set(fd: ff.Field, d: int, budget: int = geom.DEFAULT_ENUM_BUDGET) -> PointSet:
    """Even-d construction: the span of the isotropic family, q^(d/2) points
    with no defined spread."""
    return span(fd, iso_family(fd, d), budget=budget)


def con2_set(fd: ff.Field, d: int, budget: int = geom.DEFAULT_ENUM_BUDGET) -> PointSet:
    """Odd-d construction: isotropic family in the first d-1 coordinates plus
    the last axis vector; q^((d+1)/2) points, at most one defined spread."""
    if d % 2 == 0 or d < 3:
        raise BadDimension(f"d = {d} must be odd and >= 3")
    if fd.q % 4 == 3 and d % 4 != 1:
        raise BadResidue(f"q = {fd.q} = 3 mod 4 needs d = 1 mod 4, got d = {d}")
    family = [v + (0,) for v in iso_family(fd, d - 1)]
    axis = tuple([0] * (d - 1) + [1])
    return span(fd, family + [axis], budget=budget)

"""Vectors over F_q^d with the quadratic form |x| = sum(x_i^2).

Points and vectors are plain tuples of field-element indices.  The "norm"
is not a metric: distinct points can sit at distance 0 (isotropic
differences), and the spread of a triple is undefined whenever one of its
arm norms vanishes.  Undefined is represented by ``None`` throughout and is
never coerced to 0.  Determinants and ranks both read one forward Gaussian
elimination, and spheres are enumerated by one blocked, vectorized scan.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import ff
from .errors import (
    BadArity,
    BadDimension,
    BudgetExceeded,
    DimensionMismatch,
    DuplicatePoint,
    FormatError,
    IdenticalPoints,
)

Vec = tuple[int, ...]
SpreadValue = Optional[int]  # None = undefined

DEFAULT_ENUM_BUDGET = 10**8


def format_spread(s: SpreadValue) -> str:
    return "Undefined" if s is None else f"Value({s})"


# -- elementwise vector helpers ------------------------------------------------


def vadd(fd: ff.Field, u: Vec, v: Vec) -> Vec:
    _check_dims(u, v)
    return tuple(fd.add(x, y) for x, y in zip(u, v))


def vsub(fd: ff.Field, u: Vec, v: Vec) -> Vec:
    _check_dims(u, v)
    return tuple(fd.sub(x, y) for x, y in zip(u, v))


def vscale(fd: ff.Field, c: int, v: Vec) -> Vec:
    return tuple(fd.mul(c, x) for x in v)


def dot(fd: ff.Field, u: Vec, v: Vec) -> int:
    _check_dims(u, v)
    acc = 0
    for x, y in zip(u, v):
        acc = fd.add(acc, fd.mul(x, y))
    return acc


def norm(fd: ff.Field, v: Vec) -> int:
    return dot(fd, v, v)


def dist(fd: ff.Field, x: Vec, y: Vec) -> int:
    return norm(fd, vsub(fd, x, y))


def _check_dims(u: Sequence, v: Sequence) -> None:
    if len(u) != len(v):
        raise DimensionMismatch(f"dimensions {len(u)} and {len(v)} differ")


# -- spreads -------------------------------------------------------------------


def spread(fd: ff.Field, apex: Vec, b: Vec, c: Vec) -> SpreadValue:
    """Spread of the arms b-apex and c-apex: 1 - (u.v)^2 / (|u||v|).

    Argument order is (apex, arm, arm) everywhere in this package.
    Returns None when either arm norm is 0, which covers b == apex and
    c == apex.
    """
    u = vsub(fd, b, apex)
    v = vsub(fd, c, apex)
    nu = norm(fd, u)
    nv = norm(fd, v)
    if nu == 0 or nv == 0:
        return None
    duv = dot(fd, u, v)
    return fd.sub(1, fd.div(fd.mul(duv, duv), fd.mul(nu, nv)))


def k_spread(fd: ff.Field, points: Sequence[Vec]) -> SpreadValue:
    """Order-k spread of k+1 points: det(V^T V) / prod |v_i| with
    v_i = points[i] - points[0] the columns of V.

    The k = 2 case agrees with spread() on every input, undefined cases
    included.  Requires 2 <= k <= d.
    """
    k = len(points) - 1
    if k < 2:
        raise BadArity(f"need at least 3 points, got {len(points)}")
    d = len(points[0])
    if k > d:
        raise BadArity(f"order {k} exceeds dimension {d}")
    arms = [vsub(fd, x, points[0]) for x in points[1:]]
    gram = [[0] * k for _ in range(k)]
    for i in range(k):  # symmetric: one dot per pair i <= j
        for j in range(i, k):
            gram[i][j] = gram[j][i] = dot(fd, arms[i], arms[j])
    denom = 1
    for i in range(k):  # the arm norms are the diagonal
        if gram[i][i] == 0:
            return None
        denom = fd.mul(denom, gram[i][i])
    return fd.div(det(fd, gram), denom)


def det(fd: ff.Field, m: Sequence[Sequence[int]]) -> int:
    """Determinant of a square matrix over F_q: exact, no rounding exists here."""
    r, prod = _eliminate(fd, m)
    return prod if r == len(m) else 0


def rank(fd: ff.Field, vectors: Sequence[Vec]) -> int:
    """Row rank: the number of pivots of the elimination."""
    return _eliminate(fd, vectors)[0]


def _eliminate(fd: ff.Field, m: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Forward Gaussian elimination on the rows of m: (rank, the product of
    the pivots negated once per row swap, which is det(m) for a square m of
    full rank)."""
    rows = [list(row) for row in m]
    r, prod = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            prod = fd.neg(prod)
        pivot = rows[r][col]
        prod = fd.mul(prod, pivot)
        pinv = fd.inv(pivot)
        for i in range(r + 1, len(rows)):
            f = fd.mul(rows[i][col], pinv)
            if f:
                rows[i] = [fd.sub(x, fd.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        r += 1
    return r, prod


# -- canonical affine lines ------------------------------------------------------


class CanonLine(NamedTuple):
    """Canonical (base, direction) form of an affine line.

    direction's first nonzero coordinate is 1, at position j, and base_j = 0;
    two CanonLine values are equal exactly when the underlying point sets
    coincide.
    """

    base: Vec
    direction: Vec


def line_through(fd: ff.Field, p: Vec, q: Vec) -> CanonLine:
    _check_dims(p, q)
    d = vsub(fd, q, p)
    if all(x == 0 for x in d):
        raise IdenticalPoints("a line needs two distinct points")
    j = next(i for i, x in enumerate(d) if x != 0)
    direction = vscale(fd, fd.inv(d[j]), d)
    base = vsub(fd, p, vscale(fd, p[j], direction))
    return CanonLine(base, direction)


def line_points(fd: ff.Field, line: CanonLine) -> list[Vec]:
    return [vadd(fd, line.base, vscale(fd, t, line.direction)) for t in fd.elements()]


# -- point sets ------------------------------------------------------------------


class PointSet:
    """Ordered, duplicate-free collection of points sharing field and dimension."""

    __slots__ = ("field", "dim", "points", "_arr")

    def __init__(self, field: ff.Field, dim: int, points: Iterable[Vec]):
        pts = [tuple(p) for p in points]
        seen = set()
        for p in pts:
            if len(p) != dim:
                raise DimensionMismatch(f"point {p} does not have dimension {dim}")
            if any(not 0 <= x < field.q for x in p):
                raise FormatError(f"coordinate out of range in {p}")
            if p in seen:
                raise DuplicatePoint(f"duplicate point {p}")
            seen.add(p)
        self.field = field
        self.dim = dim
        self.points = tuple(pts)
        self._arr = None

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, p) -> bool:
        return tuple(p) in set(self.points)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.field == other.field
            and self.dim == other.dim
            and self.points == other.points
        )

    def __repr__(self) -> str:
        return f"PointSet(q={self.field.q}, d={self.dim}, n={len(self)})"

    def as_array(self) -> np.ndarray:
        if self._arr is None:
            self._arr = np.array(self.points, dtype=np.int32).reshape(len(self.points), self.dim)
        return self._arr

    # File format: first line "q=<int> d=<int>", then one point per line as
    # d comma-separated element indices.

    def dumps(self) -> str:
        lines = [f"q={self.field.q} d={self.dim}"]
        lines += [",".join(str(x) for x in p) for p in self.points]
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        Path(path).write_text(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "PointSet":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise FormatError("empty point-set file")
        header = lines[0].split()
        try:
            fields = dict(part.split("=") for part in header)
            q = int(fields["q"])
            d = int(fields["d"])
        except (ValueError, KeyError):
            raise FormatError(f"bad header {lines[0]!r}") from None
        fd = ff.field_for_order(q)
        pts = []
        for ln in lines[1:]:
            try:
                p = tuple(int(x) for x in ln.split(","))
            except ValueError:
                raise FormatError(f"bad point line {ln!r}") from None
            pts.append(p)
        return cls(fd, d, pts)

    @classmethod
    def load(cls, path) -> "PointSet":
        return cls.loads(Path(path).read_text(errors="replace"))


def all_points(fd: ff.Field, d: int, budget: int = DEFAULT_ENUM_BUDGET) -> PointSet:
    """All of F_q^d in lexicographic order."""
    if fd.q**d > budget:
        raise BudgetExceeded(f"q^d = {fd.q ** d} exceeds budget {budget}")
    return PointSet(fd, d, itertools.product(fd.elements(), repeat=d))


def sphere_points(
    fd: ff.Field, d: int, t: int, budget: int = DEFAULT_ENUM_BUDGET
) -> PointSet:
    """All x in F_q^d with |x| = t, enumerated in index order."""
    if not 0 <= t < fd.q:
        raise FormatError(f"t = {t} is not an element index of F_{fd.q}")
    if fd.q**d > budget:
        raise BudgetExceeded(f"q^d = {fd.q ** d} exceeds budget {budget}")
    return PointSet(fd, d, [p for b in sphere_blocks(fd, d, t) for p in b.tolist()])


# Indices of F_q^d per block of the sphere enumeration.
_SPHERE_BLOCK = 1 << 18


def sphere_blocks(fd: ff.Field, d: int, t: int) -> Iterator[np.ndarray]:
    """The x in F_q^d with |x| = t, in index order, as int32 coordinate
    arrays of shape (k, d), one per block of _SPHERE_BLOCK indices."""
    if d < 1:
        raise BadDimension(f"needs d >= 1, got d = {d}")
    total = fd.q**d
    for lo in range(0, total, _SPHERE_BLOCK):
        rest = np.arange(lo, min(total, lo + _SPHERE_BLOCK), dtype=np.int64)
        coords = np.empty((len(rest), d), dtype=np.int32)
        for c in range(d - 1, -1, -1):
            rest, coords[:, c] = np.divmod(rest, fd.q)
        logs = fd.log[coords]
        yield coords[fd.log_dot(logs, logs) == fd.log[t]]


# -- orthogonal matrices -----------------------------------------------------------

Matrix = tuple[Vec, ...]


def identity(fd: ff.Field, d: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(fd: ff.Field, a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(
            dot(fd, row, tuple(b[k][j] for k in range(len(b))))
            for j in range(len(b[0]))
        )
        for row in a
    )


def mat_vec(fd: ff.Field, m: Matrix, v: Vec) -> Vec:
    return tuple(dot(fd, row, v) for row in m)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m))


def is_orthogonal(fd: ff.Field, m: Matrix) -> bool:
    return mat_mul(fd, transpose(m), m) == identity(fd, len(m))


def random_orthogonal(fd: ff.Field, d: int, seed: int) -> Matrix:
    """Product of d+2 reflections I - 2*v*v^T/|v| through seeded random
    non-isotropic vectors; always satisfies M^T M = I and is deterministic
    per seed.  Reflections generate the orthogonal group, so products give
    adequate coverage for invariance testing (no uniformity claim)."""
    rng = random.Random(seed)
    m = identity(fd, d)
    for _ in range(d + 2):
        while True:
            v = tuple(rng.randrange(fd.q) for _ in range(d))
            nv = norm(fd, v)
            if nv != 0:
                break
        scale = fd.mul(2, fd.inv(nv))
        refl = tuple(
            tuple(
                fd.sub(1 if i == j else 0, fd.mul(scale, fd.mul(v[i], v[j])))
                for j in range(d)
            )
            for i in range(d)
        )
        m = mat_mul(fd, refl, m)
    return m

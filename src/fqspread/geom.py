"""Vectors over F_q^d with the quadratic form |x| = sum(x_i^2).

A ``PointSet`` is one (n, d) int32 array of element indices; tuples exist
only at the edges.  The "norm" is not a metric: distinct points can sit at
distance 0 (isotropic differences), and the spread of a triple is undefined
whenever one of its arm norms vanishes.  Undefined is represented by
``None`` throughout and is never coerced to 0.

The geometry runs batched on discrete logs (``Field.log``), N cases at a
time, every inner product by ``Field.log_dot``: ``arm_spreads`` gives
spreads by one gather, ``arm_k_spreads`` order-k spreads from Gram
matrices, ``eliminate`` is the one forward Gaussian elimination, and
``random_orthogonals`` multiplies the reflections of many seeds at once.
``spread``, ``k_spread`` and ``rank`` are their one-case calls on tuples.
``index_blocks`` enumerates F_q^d in blocks, behind ``all_points``, spheres
and ``construct.span``.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from . import ff
from .errors import (
    BadArity,
    BadDimension,
    BudgetExceeded,
    DimensionMismatch,
    DuplicatePoint,
    FormatError,
)

Vec = tuple[int, ...]
SpreadValue = Optional[int]  # None = undefined

DEFAULT_ENUM_BUDGET = 10**8


def format_spread(s: SpreadValue) -> str:
    return "Undefined" if s is None else f"Value({s})"


# -- spreads -------------------------------------------------------------------


def spread(fd: ff.Field, apex: Vec, b: Vec, c: Vec) -> SpreadValue:
    """Spread of the arms b-apex and c-apex: 1 - (u.v)^2 / (|u||v|).

    Argument order is (apex, arm, arm) everywhere in this package.
    Returns None when either arm norm is 0, which covers b == apex and
    c == apex.  One case of ``arm_spreads``.
    """
    u, v = _arms(fd, [apex, b, c])[:, None]
    return _value(arm_spreads(fd, u, v))


def k_spread(fd: ff.Field, points: Sequence[Vec], budget: int = DEFAULT_ENUM_BUDGET) -> SpreadValue:
    """Order-k spread of k+1 points: det(V^T V) / prod |v_i| with
    v_i = points[i] - points[0] the columns of V.

    The k = 2 case agrees with spread() on every input, undefined cases
    included.  Requires 2 <= k <= d.  One case of ``arm_k_spreads``, whose
    budget caps the k^2 d products of the Gram matrix.
    """
    k = len(points) - 1
    if k < 2:
        raise BadArity(f"need at least 3 points, got {len(points)}")
    d = len(points[0])
    if k > d:
        raise BadArity(f"order {k} exceeds dimension {d}")
    return _value(arm_k_spreads(fd, _arms(fd, points)[None], budget))


def _arms(fd: ff.Field, points: Sequence[Vec]) -> np.ndarray:
    """The arms points[i] - points[0], i >= 1, as logs (k, d)."""
    for p in points[1:]:
        if len(p) != len(points[0]):
            raise DimensionMismatch(f"dimensions {len(points[0])} and {len(p)} differ")
    x = fd.log[np.array(points, dtype=np.int64)]
    return fd.log_add(x[1:], fd.log_neg(x[0]))


def _value(s: np.ndarray) -> SpreadValue:
    s = int(s.item())
    return None if s < 0 else s


def arm_spreads(fd: ff.Field, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Spreads 1 - (u.v)^2 / (|u||v|) of the arms u and v, as elements; -1
    where either arm norm is 0.  The arms are logs over the last axis, and
    their other axes broadcast: two (N, d) arrays give N spreads, and the
    rows of a (k, d) array as u[:, None] and u[None] the k x k matrix of
    pairwise spreads."""
    return fd.spread_from_logs(fd.log_dot(u, v), fd.log_dot(u, u), fd.log_dot(v, v))


def arm_k_spreads(fd: ff.Field, arms: np.ndarray, budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """Order-k spreads det(G) / prod |v_i| of N cases of k arms v_i, arms
    (N, k, d; logs), G the k x k Gram matrix of a case's arms; elements, -1
    where an arm norm is 0.

    The Gram matrices come from ``Field.log_dot`` and their determinants
    from ``eliminate``: a formula apart from ``arm_spreads``'s one gather,
    which the k = 2 case must agree with.  Raises BudgetExceeded, before any
    Gram matrix is built, when the N k^2 d products they take exceed budget.
    """
    n, k, d = arms.shape
    if n * k * k * d > budget:
        raise BudgetExceeded(f"N k^2 d = {n * k * k * d} exceeds budget {budget}")
    gram = fd.log_dot(arms[:, :, None], arms[:, None])
    rank, det = eliminate(fd, gram)
    diag = gram.diagonal(axis1=1, axis2=2)
    value = fd.exp.take(np.where(rank == k, (det - diag.sum(axis=1)) % (fd.q - 1), fd.zero_log), mode="wrap")
    return np.where((diag == fd.zero_log).any(axis=1), -1, value)


def rank(fd: ff.Field, vectors: Sequence[Vec]) -> int:
    """Row rank: one case of ``eliminate``."""
    if not vectors:
        return 0
    return int(eliminate(fd, fd.log[np.array(vectors, dtype=np.int64)][None])[0][0])


def eliminate(fd: ff.Field, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward Gaussian elimination on N matrices m (N, r, c; logs) at once.
    Returns per case the rank and the log of the signed pivot product, which
    for a square matrix of full rank is its determinant.

    Column by column, each case takes as its pivot row the first row not yet
    a pivot row with a nonzero entry there, and clears that entry from the
    other such rows.  The pivots are taken in some order of the rows, whose
    inversions are counted as the rows not yet pivot rows above each pivot;
    an odd count negates the product.
    """
    n, r, c = m.shape
    free = np.ones((n, r), dtype=bool)  # not yet a pivot row
    ranks = np.zeros(n, dtype=np.int64)
    flips = np.zeros(n, dtype=np.int64)
    prod = np.zeros(n, dtype=m.dtype)  # the log of 1
    cases, above = np.arange(n), np.arange(r)
    for col in range(c):
        live = free & (m[:, :, col] != fd.zero_log)
        has = live.any(axis=1)
        piv = live.argmax(axis=1)  # 0 where there is no pivot: no flips
        prow = m[cases, piv]
        flips += (free & (above < piv[:, None])).sum(axis=1)
        prod = np.where(has, fd.log_mul(prod, prow[:, col]), prod)
        live[cases, piv] = False
        free[cases[has], piv[has]] = False
        ranks += has
        factor = fd.log_neg(fd.log_mul(m[:, :, col], (-prow[:, col] % (fd.q - 1))[:, None]))
        factor[~live] = fd.zero_log
        m = fd.log_add(m, fd.log_mul(factor[:, :, None], prow[:, None, :]))
        if (ranks == r).all():
            break
    return ranks, np.where(flips % 2 == 1, fd.log_neg(prod), prod)


# -- point sets ------------------------------------------------------------------


class PointSet:
    """Ordered, duplicate-free points of one field and dimension, held as one
    read-only (n, dim) int32 array, from an array or any iterable of points;
    ``points`` builds their tuples on each call.  A bad input raises the
    error of its first bad point: another dimension, then a coordinate out
    of range (checked before the int32 cast would wrap it), then a repeat."""

    __slots__ = ("field", "dim", "_coords")

    def __init__(self, field: ff.Field, dim: int, points: Union[np.ndarray, Iterable[Sequence[int]]]):
        rows = points
        if not (isinstance(points, np.ndarray) and points.shape[1:] == (dim,)):
            rows = [tuple(p) for p in points]
            points = rows[: next((i for i, p in enumerate(rows) if len(p) != dim), len(rows))]
            points = np.array(points, dtype=object).reshape(len(points), dim)  # Python ints: no overflow
        ok = ((points >= 0) & (points < field.q)).all(axis=1)
        good = len(ok) if ok.all() else int(ok.argmin())  # the rows before the first out of range
        coords = points[:good].astype(np.int32)
        weights = np.array([field.q**k for k in range(dim - 1, -1, -1)], dtype=np.int64 if field.q**dim < 2**63 else object)
        codes = coords @ weights  # base-q codes, in Python ints where int64 would overflow
        order = np.argsort(codes, kind="stable")  # a repeat sorts after the row it repeats
        first = int(order[1:][codes[order[1:]] == codes[order[:-1]]].min(initial=good))
        if first < len(rows):
            p = tuple(int(x) for x in rows[first])
            if first == len(ok):
                raise DimensionMismatch(f"point {p} does not have dimension {dim}")
            if first == good:
                raise FormatError(f"coordinate out of range in {p}")
            raise DuplicatePoint(f"duplicate point {p}")
        coords.flags.writeable = False
        self.field = field
        self.dim = dim
        self._coords = coords

    @property
    def points(self) -> tuple[Vec, ...]:
        return tuple(map(tuple, self._coords.tolist()))

    def __len__(self) -> int:
        return len(self._coords)

    def __iter__(self):
        return iter(self.points)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and self.field == other.field
            and self.dim == other.dim
            and np.array_equal(self._coords, other._coords)
        )

    def __repr__(self) -> str:
        return f"PointSet(q={self.field.q}, d={self.dim}, n={len(self)})"

    def as_array(self) -> np.ndarray:
        return self._coords

    # File format: first line "q=<int> d=<int>" (exactly these two keys),
    # then one point per line as d comma-separated element indices.

    def dumps(self) -> str:
        lines = [f"q={self.field.q} d={self.dim}"]
        lines += [",".join(map(str, p)) for p in self._coords.tolist()]
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
            if len(header) != 2 or fields.keys() != {"q", "d"}:
                raise ValueError
            q, d = int(fields["q"]), int(fields["d"])
        except ValueError:
            raise FormatError(f"bad header {lines[0]!r}") from None
        fd = ff.field_for_order(q)
        if d < 1:
            raise BadDimension(f"needs d >= 1, got d = {d}")
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


def check_space(fd: ff.Field, d: int, budget: int) -> None:
    """The gate of every walk over F_q^d: BudgetExceeded when q^d > budget."""
    if fd.q**d > budget:
        raise BudgetExceeded(f"q^d = {fd.q ** d} exceeds budget {budget}")


def all_points(fd: ff.Field, d: int, budget: int = DEFAULT_ENUM_BUDGET) -> PointSet:
    """All of F_q^d in lexicographic order."""
    check_space(fd, d, budget)
    return PointSet(fd, d, np.concatenate(list(index_blocks(fd, d))))


def sphere_points(
    fd: ff.Field, d: int, t: int, budget: int = DEFAULT_ENUM_BUDGET
) -> PointSet:
    """All x in F_q^d with |x| = t, enumerated in index order."""
    if not 0 <= t < fd.q:
        raise FormatError(f"t = {t} is not an element index of F_{fd.q}")
    check_space(fd, d, budget)
    return PointSet(fd, d, np.concatenate(list(sphere_blocks(fd, d, t))))


def sphere_size(fd: ff.Field, d: int, t: int) -> int:
    """|S_t|, the number of x in F_q^d with |x| = t, in closed form (Lidl &
    Niederreiter, Finite Fields, Thms 6.26 and 6.27), without a walk: the
    quadratic character of a nonzero element is +1 or -1 by the parity of
    its log, and -1 has the log (q - 1) / 2."""
    if d < 1:
        raise BadDimension(f"needs d >= 1, got d = {d}")
    q, half = fd.q, (fd.q - 1) // 2
    if d % 2 == 0:
        nu = q - 1 if t == 0 else -1
        return q ** (d - 1) + nu * q ** ((d - 2) // 2) * (-1) ** (d // 2 * half)
    if t == 0:
        return q ** (d - 1)
    return q ** (d - 1) + q ** ((d - 1) // 2) * (-1) ** ((d - 1) // 2 * half + int(fd.log[t]))


# Indices of F_q^d per block of the index enumeration (spheres and spans).
_BLOCK = 1 << 18


def index_blocks(fd: ff.Field, d: int) -> Iterator[np.ndarray]:
    """All of F_q^d in index order, as int32 coordinate arrays of shape
    (k, d), one per block of _BLOCK indices."""
    if d < 1:
        raise BadDimension(f"needs d >= 1, got d = {d}")
    total = fd.q**d
    for lo in range(0, total, _BLOCK):
        rest = np.arange(lo, min(total, lo + _BLOCK), dtype=np.int64)
        coords = np.empty((len(rest), d), dtype=np.int32)
        for c in range(d - 1, -1, -1):
            rest, coords[:, c] = np.divmod(rest, fd.q)
        yield coords


def sphere_blocks(fd: ff.Field, d: int, t: int) -> Iterator[np.ndarray]:
    """The x in F_q^d with |x| = t, in index order, one array (k, d) per
    block of ``index_blocks``."""
    for coords in index_blocks(fd, d):
        logs = fd.log.take(coords, mode="wrap")
        yield coords[fd.log_dot(logs, logs) == fd.log[t]]


# -- orthogonal matrices -----------------------------------------------------------

Matrix = tuple[Vec, ...]


def random_orthogonals(fd: ff.Field, d: int, seeds: Sequence[int]) -> list[Matrix]:
    """Per seed, the product R_(d+2) ... R_1 of reflections I - 2 v v^T / |v|
    through non-isotropic v drawn from ``random.Random(seed)`` (d values below
    q, redrawn while |v| = 0); M^T M = I.  Reflections generate the
    orthogonal group, enough for invariance tests (no uniformity claim).
    Each round judges one draw per pending seed in one ``Field.log_dot``;
    then M <- M - (2 / |v|) v (v^T M) runs on logs for all seeds at once."""
    if d < 1:
        raise BadDimension(f"needs d >= 1, got d = {d}")
    pending = drawn = [(random.Random(seed), []) for seed in seeds]  # (rng, accepted v)
    while pending:
        vs = [tuple(rng.randrange(fd.q) for _ in range(d)) for rng, _ in pending]
        x = fd.log[np.array(vs, dtype=np.int64)]
        for (_, out), v, ok in zip(pending, vs, fd.log_dot(x, x) != fd.zero_log):
            if ok:
                out.append(v)
        pending = [p for p in pending if len(p[1]) < d + 2]
    vs = fd.log[np.array([out for _, out in drawn], dtype=np.int64).reshape(len(seeds), d + 2, d)]
    m = np.where(np.eye(d, dtype=bool), 0, fd.zero_log)[None].repeat(len(seeds), axis=0)
    for v in vs.transpose(1, 0, 2):  # reflection j of every seed
        scale = fd.log_mul(fd.log[2], -fd.log_dot(v, v) % (fd.q - 1))
        vtm = fd.log_dot(v[:, None, :], m.transpose(0, 2, 1))
        m = fd.log_add(m, fd.log_neg(fd.log_mul(fd.log_mul(scale[:, None], v)[:, :, None], vtm[:, None])))
    return [tuple(map(tuple, x)) for x in fd.exp.take(m, mode="wrap").tolist()]

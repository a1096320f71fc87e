"""Shared naive oracles: straight-line reimplementations used to cross-check
the field arithmetic, the batched geometry and the vectorized census
kernels.  Deliberately dumb: scalar, one case at a time, table-free."""

import itertools
import random
from collections import Counter
from typing import NamedTuple

from fqspread import errors, expt, geom


class ReferenceField:
    """Schoolbook F_q on the same element indices as ``fd``: digit-wise
    addition mod p and polynomial multiplication mod ``fd.modulus``."""

    def __init__(self, fd):
        self.p, self.r, self.q = fd.p, fd.r, fd.q
        self.modulus = fd.modulus

    def digits(self, a):
        return [a // self.p**k % self.p for k in range(self.r)]

    def encode(self, digits):
        return sum(c % self.p * self.p**k for k, c in enumerate(digits))

    def add(self, a, b):
        return self.encode([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.encode([-x for x in self.digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        prod = [0] * (2 * self.r - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] += x * y
        for top in range(len(prod) - 1, self.r - 1, -1):
            lead = prod.pop()
            for k in range(self.r):
                prod[top - self.r + k] -= lead * self.modulus[k]
        return self.encode(prod)

    def pow(self, a, e):
        acc = 1
        for bit in bin(e)[2:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc

    def inv(self, a):
        return self.pow(a, self.q - 2)


# -- scalar geometry on tuples: one case at a time, no logs ------------------------


def vadd(fd, u, v):
    return tuple(fd.add(x, y) for x, y in zip(u, v))


def vsub(fd, u, v):
    return tuple(fd.sub(x, y) for x, y in zip(u, v))


def vscale(fd, c, v):
    return tuple(fd.mul(c, x) for x in v)


def dot(fd, u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = fd.add(acc, fd.mul(x, y))
    return acc


def norm(fd, v):
    return dot(fd, v, v)


def dist(fd, x, y):
    return norm(fd, vsub(fd, x, y))


def mat_vec(fd, m, v):
    return tuple(dot(fd, row, v) for row in m)


def identity(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(fd, a, b):
    return tuple(tuple(dot(fd, row, col) for col in zip(*b)) for row in a)


def is_orthogonal(fd, m):
    return mat_mul(fd, tuple(zip(*m)), m) == identity(len(m))


def naive_random_orthogonal(fd, d, seed):
    """The product of d+2 reflections I - 2 v v^T / |v|, one at a time, each
    v drawn from random.Random(seed) by randrange and redrawn while |v| = 0."""
    rng = random.Random(seed)
    m = identity(d)
    for _ in range(d + 2):
        while True:
            v = tuple(rng.randrange(fd.q) for _ in range(d))
            nv = norm(fd, v)
            if nv != 0:
                break
        scale = fd.mul(2, fd.inv(nv))
        refl = tuple(
            tuple(fd.sub(1 if i == j else 0, fd.mul(scale, fd.mul(v[i], v[j]))) for j in range(d))
            for i in range(d)
        )
        m = mat_mul(fd, refl, m)
    return m


def naive_span(fd, vectors):
    """Every linear combination of the vectors, coefficients in
    lexicographic order, one coefficient at a time."""
    pts = []
    for coeffs in itertools.product(fd.elements(), repeat=len(vectors)):
        acc = (0,) * len(vectors[0])
        for t, v in zip(coeffs, vectors):
            acc = vadd(fd, acc, vscale(fd, t, v))
        pts.append(acc)
    return pts


def naive_spread(fd, apex, b, c):
    """1 - (u.v)^2 / (|u||v|) for the arms u = b - apex, v = c - apex; None
    when either arm norm is 0."""
    u = vsub(fd, b, apex)
    v = vsub(fd, c, apex)
    nu = norm(fd, u)
    nv = norm(fd, v)
    if nu == 0 or nv == 0:
        return None
    duv = dot(fd, u, v)
    return fd.sub(1, fd.div(fd.mul(duv, duv), fd.mul(nu, nv)))


def naive_k_spread(fd, points):
    """det(V^T V) / prod |v_i| with v_i = points[i] - points[0] the columns
    of V; None when some |v_i| is 0."""
    k = len(points) - 1
    arms = [vsub(fd, x, points[0]) for x in points[1:]]
    gram = [[dot(fd, arms[i], arms[j]) for j in range(k)] for i in range(k)]
    denom = 1
    for i in range(k):
        if gram[i][i] == 0:
            return None
        denom = fd.mul(denom, gram[i][i])
    return fd.div(naive_det(fd, gram), denom)


def naive_det(fd, m):
    """Determinant by forward elimination with row swaps, one row at a time."""
    rows = [list(row) for row in m]
    prod = 1
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            prod = fd.neg(prod)
        pinv = fd.inv(rows[col][col])
        prod = fd.mul(prod, rows[col][col])
        for i in range(col + 1, len(rows)):
            f = fd.mul(rows[i][col], pinv)
            rows[i] = [fd.sub(x, fd.mul(f, y)) for x, y in zip(rows[i], rows[col])]
    return prod


class CanonLine(NamedTuple):
    """Canonical (base, direction) form of an affine line: direction's first
    nonzero coordinate is 1, at position j, and base_j = 0, so two values
    are equal exactly when their point sets coincide."""

    base: tuple
    direction: tuple


def line_through(fd, p, q):
    d = vsub(fd, q, p)
    if all(x == 0 for x in d):
        raise errors.IdenticalPoints("a line needs two distinct points")
    j = next(i for i, x in enumerate(d) if x != 0)
    direction = vscale(fd, fd.inv(d[j]), d)
    base = vsub(fd, p, vscale(fd, p[j], direction))
    return CanonLine(base, direction)


def line_points(fd, line):
    return [vadd(fd, line.base, vscale(fd, t, line.direction)) for t in fd.elements()]


# -- census oracles -------------------------------------------------------------------


def naive_spread_census(ps):
    values = set()
    undefined = 0
    scanned = 0
    for a, b, c in itertools.permutations(ps.points, 3):
        scanned += 1
        s = naive_spread(ps.field, a, b, c)
        if s is None:
            undefined += 1
        else:
            values.add(s)
    return sorted(values), undefined, scanned


def naive_spread_counts(ps):
    """Ordered triples of distinct points per spread value (None: undefined)."""
    return Counter(naive_spread(ps.field, a, b, c) for a, b, c in itertools.permutations(ps.points, 3))


def naive_spanned_lines(ps):
    """(number of lines spanned by pairs, most spanned lines through one
    point), from a set of canonical lines."""
    lines = set()
    through = [set() for _ in ps.points]
    for (i, a), (j, b) in itertools.combinations(enumerate(ps.points), 2):
        ln = line_through(ps.field, a, b)
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
        naive_spread(fd, origin, u, v)
        for u, v in itertools.product(directions, repeat=2)
    }
    values.discard(None)
    return sorted(values)


def naive_distances(ps):
    return sorted(
        {
            dist(ps.field, a, b)
            for a, b in itertools.combinations(ps.points, 2)
        }
    )


def naive_sphere_points(fd, d, t):
    """Every x in F_q^d with |x| = t, in index order, by scalar norms."""
    return [v for v in itertools.product(fd.elements(), repeat=d) if norm(fd, v) == t]


def eta(fd, a):
    """The quadratic character of F_q: 0 at 0, 1 on the nonzero squares, -1
    elsewhere."""
    return 0 if a == 0 else 1 if fd.is_square(a) else -1


def sphere_size(fd, d, t):
    """|S_t|, the number of x in F_q^d with |x| = t, in closed form (Lidl &
    Niederreiter, Finite Fields, Thms 6.26 and 6.27)."""
    q, minus_one = fd.q, fd.neg(1)
    if d % 2 == 0:
        nu = q - 1 if t == 0 else -1
        return q ** (d - 1) + nu * q ** ((d - 2) // 2) * eta(fd, fd.pow(minus_one, d // 2))
    return q ** (d - 1) + q ** ((d - 1) // 2) * eta(fd, fd.mul(fd.pow(minus_one, (d - 1) // 2), t))


def naive_rank(fd, rows):
    """Rank from the size of the span, built up one row at a time: the span
    of the rows has exactly q^rank points."""
    span = {(0,) * len(rows[0])} if rows else {()}
    for row in rows:
        span = {tuple(fd.add(x, fd.mul(c, y)) for x, y in zip(s, row)) for s in span for c in fd.elements()}
    rank = 0
    while fd.q**rank < len(span):
        rank += 1
    assert fd.q**rank == len(span)
    return rank


def naive_least_isotropic_triple(fd):
    """Lexicographically least (a, b, c), a != 0, with a^2 + b^2 + c^2 = 0,
    by scanning every triple in order."""
    for a in range(1, fd.q):
        aa = fd.mul(a, a)
        for b in range(fd.q):
            ab = fd.add(aa, fd.mul(b, b))
            for c in range(fd.q):
                if fd.add(ab, fd.mul(c, c)) == 0:
                    return (a, b, c)
    raise AssertionError("isotropic triple exists in every odd field")


def naive_below(rng, bound):
    """One value of the battery's draw law, one getrandbits(32) word at a
    time: the word's top (bound - 1).bit_length() bits, redrawn until they
    are below bound."""
    shift = 32 - (bound - 1).bit_length()
    while True:
        v = rng.getrandbits(32) >> shift
        if v < bound:
            return v


def naive_run_properties(fd, cases, seed):
    """``expt.run_properties`` one case at a time through naive_spread(),
    vadd, vsub, vscale and mat_vec, drawing each value as it goes from the
    rng of its dimension and column group.  The k2 law reads the one-case
    ``geom.k_spread``, so a fault in the batched order-k spread behind it
    shows here as in ``run_properties``; so do the pools, which read
    ``geom.random_orthogonals`` (checked against naive_random_orthogonal
    on the same seeds in test_geom)."""
    rngs = {
        (d, group): random.Random(f"{expt.trial_seed(seed, fd.q)} d={d} {group}")
        for d in expt.PROPERTY_DIMS
        for group in ("abc", "rt", "pick", "z")
    }
    pools = {
        d: geom.random_orthogonals(fd, d, [expt.trial_seed(seed, 1000 * d + i) for i in range(expt.MATRIX_POOL)])
        for d in expt.PROPERTY_DIMS
    }
    fails = {"symmetry": 0, "scaling": 0, "rigid": 0, "k2": 0}
    examples = []

    def note(kind, a, b, c):
        fails[kind] += 1
        if len(examples) < 3:
            examples.append({"kind": kind, "a": list(a), "b": list(b), "c": list(c)})

    def draw(d, group, bound, size):
        return tuple(naive_below(rngs[d, group], bound) for _ in range(size))

    for i in range(cases):
        d = expt.PROPERTY_DIMS[i % len(expt.PROPERTY_DIMS)]
        a, b, c = (draw(d, "abc", fd.q, d) for _ in range(3))
        s = naive_spread(fd, a, b, c)
        if naive_spread(fd, a, c, b) != s:
            note("symmetry", a, b, c)
        r, t = (1 + x for x in draw(d, "rt", fd.q - 1, 2))
        b2 = vadd(fd, a, vscale(fd, r, vsub(fd, b, a)))
        c2 = vadd(fd, a, vscale(fd, t, vsub(fd, c, a)))
        if naive_spread(fd, a, b2, c2) != s:
            note("scaling", a, b, c)
        m = pools[d][draw(d, "pick", expt.MATRIX_POOL, 1)[0]]
        z = draw(d, "z", fd.q, d)
        ma, mb, mc = (vadd(fd, mat_vec(fd, m, v), z) for v in (a, b, c))
        if naive_spread(fd, ma, mb, mc) != s:
            note("rigid", a, b, c)
        if geom.k_spread(fd, [a, b, c]) != s:
            note("k2", a, b, c)
    total = sum(fails.values())
    return expt.ExperimentReport(
        name="properties",
        claim="spread is symmetric, scaling-invariant, rigid-motion-invariant, and matches the order-2 simplex spread",
        params={"field": fd.label(), "cases": cases, "seed": seed, "dims": list(expt.PROPERTY_DIMS)},
        per_trial=[{"trial": 0, "failures": fails, "examples": examples, "ok": total == 0}],
        verdict="pass" if total == 0 else "fail",
    )

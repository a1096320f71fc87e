"""Shared naive oracles: straight-line reimplementations used to cross-check
the field arithmetic, the batched geometry and the vectorized census
kernels.  Deliberately dumb: scalar, one case at a time, table-free.

Table-free means independent of ``ff``'s arrays: every oracle takes its
arithmetic from the schoolbook ``ReferenceField`` (``reference(fd)``),
never from the log, exponential or Zech arrays of the ``Field`` it checks,
so a bad entry there shows as a kernel-vs-oracle mismatch."""

import functools
import itertools
import random
from collections import Counter
from typing import NamedTuple

from fqspread import expt, geom


class ReferenceField:
    """Schoolbook F_q, q = p^r, on the element indices of ``Field(p, r)``:
    digit-wise addition mod p and polynomial multiplication mod that
    field's ``modulus``.  Sums, products and inverses are memoized per
    instance; ``reference`` gives one instance per field, and plain
    arithmetic mod p for r = 1."""

    def __init__(self, p, r, modulus):
        self.p, self.r, self.q = p, r, p**r
        self.modulus = modulus
        self._sums, self._products, self._inverses = {}, {}, {}

    def elements(self):
        return range(self.q)

    def digits(self, a):
        return [a // self.p**k % self.p for k in range(self.r)]

    def encode(self, digits):
        return sum(c % self.p * self.p**k for k, c in enumerate(digits))

    def add(self, a, b):
        key = (a, b)
        if key not in self._sums:
            self._sums[key] = self.encode([x + y for x, y in zip(self.digits(a), self.digits(b))])
        return self._sums[key]

    def neg(self, a):
        return self.encode([-x for x in self.digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        key = (a, b)
        if key not in self._products:
            prod = [0] * (2 * self.r - 1)
            for i, x in enumerate(self.digits(a)):
                for j, y in enumerate(self.digits(b)):
                    prod[i + j] += x * y
            for top in range(len(prod) - 1, self.r - 1, -1):
                lead = prod.pop()
                for k in range(self.r):
                    prod[top - self.r + k] -= lead * self.modulus[k]
            self._products[key] = self.encode(prod)
        return self._products[key]

    def pow(self, a, e):
        acc = 1
        for bit in bin(e)[2:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc

    def inv(self, a):
        if a not in self._inverses:
            self._inverses[a] = self.pow(a, self.q - 2)
        return self._inverses[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_square(self, a):
        """Euler's criterion."""
        return self.pow(a, (self.q - 1) // 2) != self.neg(1)


class PrimeReferenceField(ReferenceField):
    """F_p: integers mod p."""

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


def reference(fd):
    """The schoolbook field of ``fd``, a Field or already a ReferenceField.
    An oracle calls this once and passes the result on."""
    return fd if isinstance(fd, ReferenceField) else _reference(fd.p, fd.r, fd.modulus)


@functools.lru_cache(maxsize=None)
def _reference(p, r, modulus):
    return PrimeReferenceField(p, r, modulus) if r == 1 else ReferenceField(p, r, modulus)


# -- scalar geometry on tuples: one case at a time, no logs ------------------------
#
# Each function takes a Field or a ReferenceField and reads its arithmetic
# from reference(fd), once per call.


def vadd(fd, u, v):
    F = reference(fd)
    return tuple(F.add(x, y) for x, y in zip(u, v))


def vsub(fd, u, v):
    F = reference(fd)
    return tuple(F.sub(x, y) for x, y in zip(u, v))


def vscale(fd, c, v):
    F = reference(fd)
    return tuple(F.mul(c, x) for x in v)


def dot(fd, u, v):
    F = reference(fd)
    acc = 0
    for x, y in zip(u, v):
        acc = F.add(acc, F.mul(x, y))
    return acc


def norm(fd, v):
    return dot(fd, v, v)


def dist(fd, x, y):
    F = reference(fd)
    return norm(F, vsub(F, x, y))


def mat_vec(fd, m, v):
    F = reference(fd)
    return tuple(dot(F, row, v) for row in m)


def identity(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(fd, a, b):
    F = reference(fd)
    return tuple(tuple(dot(F, row, col) for col in zip(*b)) for row in a)


def is_orthogonal(fd, m):
    return mat_mul(fd, tuple(zip(*m)), m) == identity(len(m))


def naive_random_orthogonal(fd, d, seed):
    """The product of d+2 reflections I - 2 v v^T / |v|, one at a time, each
    v drawn from random.Random(seed) by randrange and redrawn while |v| = 0."""
    F = reference(fd)
    rng = random.Random(seed)
    m = identity(d)
    for _ in range(d + 2):
        while True:
            v = tuple(rng.randrange(F.q) for _ in range(d))
            nv = norm(F, v)
            if nv != 0:
                break
        scale = F.mul(2, F.inv(nv))
        refl = tuple(
            tuple(F.sub(1 if i == j else 0, F.mul(scale, F.mul(v[i], v[j]))) for j in range(d))
            for i in range(d)
        )
        m = mat_mul(F, refl, m)
    return m


def naive_span(fd, vectors):
    """Every linear combination of the vectors, coefficients in
    lexicographic order, one coefficient at a time."""
    F = reference(fd)
    pts = []
    for coeffs in itertools.product(F.elements(), repeat=len(vectors)):
        acc = (0,) * len(vectors[0])
        for t, v in zip(coeffs, vectors):
            acc = vadd(F, acc, vscale(F, t, v))
        pts.append(acc)
    return pts


def naive_spread(fd, apex, b, c):
    """1 - (u.v)^2 / (|u||v|) for the arms u = b - apex, v = c - apex; None
    when either arm norm is 0."""
    F = reference(fd)
    u = vsub(F, b, apex)
    v = vsub(F, c, apex)
    nu = norm(F, u)
    nv = norm(F, v)
    if nu == 0 or nv == 0:
        return None
    duv = dot(F, u, v)
    return F.sub(1, F.div(F.mul(duv, duv), F.mul(nu, nv)))


def naive_k_spread(fd, points):
    """det(V^T V) / prod |v_i| with v_i = points[i] - points[0] the columns
    of V; None when some |v_i| is 0."""
    F = reference(fd)
    k = len(points) - 1
    arms = [vsub(F, x, points[0]) for x in points[1:]]
    gram = [[dot(F, arms[i], arms[j]) for j in range(k)] for i in range(k)]
    denom = 1
    for i in range(k):
        if gram[i][i] == 0:
            return None
        denom = F.mul(denom, gram[i][i])
    return F.div(naive_det(F, gram), denom)


def naive_det(fd, m):
    """Determinant by forward elimination with row swaps, one row at a time."""
    F = reference(fd)
    rows = [list(row) for row in m]
    prod = 1
    for col in range(len(rows)):
        piv = next((i for i in range(col, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            prod = F.neg(prod)
        pinv = F.inv(rows[col][col])
        prod = F.mul(prod, rows[col][col])
        for i in range(col + 1, len(rows)):
            f = F.mul(rows[i][col], pinv)
            rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(rows[i], rows[col])]
    return prod


class CanonLine(NamedTuple):
    """Canonical (base, direction) form of an affine line: direction's first
    nonzero coordinate is 1, at position j, and base_j = 0, so two values
    are equal exactly when their point sets coincide."""

    base: tuple
    direction: tuple


def line_through(fd, p, q):
    F = reference(fd)
    d = vsub(F, q, p)
    if all(x == 0 for x in d):
        raise ValueError("a line needs two distinct points")
    j = next(i for i, x in enumerate(d) if x != 0)
    direction = vscale(F, F.inv(d[j]), d)
    base = vsub(F, p, vscale(F, p[j], direction))
    return CanonLine(base, direction)


def line_points(fd, line):
    F = reference(fd)
    return [vadd(F, line.base, vscale(F, t, line.direction)) for t in F.elements()]


# -- census oracles -------------------------------------------------------------------


def naive_spread_census(ps):
    F = reference(ps.field)
    values = set()
    undefined = 0
    scanned = 0
    for a, b, c in itertools.permutations(ps.points, 3):
        scanned += 1
        s = naive_spread(F, a, b, c)
        if s is None:
            undefined += 1
        else:
            values.add(s)
    return sorted(values), undefined, scanned


def naive_spread_counts(ps):
    """Ordered triples of distinct points per spread value (None: undefined)."""
    F = reference(ps.field)
    return Counter(naive_spread(F, a, b, c) for a, b, c in itertools.permutations(ps.points, 3))


def naive_spanned_lines(ps):
    """(number of lines spanned by pairs, most spanned lines through one
    point), from a set of canonical lines."""
    F = reference(ps.field)
    lines = set()
    through = [set() for _ in ps.points]
    for (i, a), (j, b) in itertools.combinations(enumerate(ps.points), 2):
        ln = line_through(F, a, b)
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
    F = reference(fd)
    origin = (0, 0)
    directions = [(1, t) for t in F.elements()] + [(0, 1)]
    values = {
        naive_spread(F, origin, u, v)
        for u, v in itertools.product(directions, repeat=2)
    }
    values.discard(None)
    return sorted(values)


def naive_distances(ps):
    F = reference(ps.field)
    return sorted(
        {
            dist(F, a, b)
            for a, b in itertools.combinations(ps.points, 2)
        }
    )


def naive_sphere_points(fd, d, t):
    """Every x in F_q^d with |x| = t, in index order, by scalar norms."""
    F = reference(fd)
    return [v for v in itertools.product(F.elements(), repeat=d) if norm(F, v) == t]


def eta(fd, a):
    """The quadratic character of F_q: 0 at 0, 1 on the nonzero squares, -1
    elsewhere."""
    return 0 if a == 0 else 1 if reference(fd).is_square(a) else -1


def sphere_size(fd, d, t):
    """|S_t|, the number of x in F_q^d with |x| = t, in closed form (Lidl &
    Niederreiter, Finite Fields, Thms 6.26 and 6.27)."""
    F = reference(fd)
    q, minus_one = F.q, F.neg(1)
    if d % 2 == 0:
        nu = q - 1 if t == 0 else -1
        return q ** (d - 1) + nu * q ** ((d - 2) // 2) * eta(F, F.pow(minus_one, d // 2))
    return q ** (d - 1) + q ** ((d - 1) // 2) * eta(F, F.mul(F.pow(minus_one, (d - 1) // 2), t))


def total_affine_lines(q, d):
    """q^(d-1) * (q^d - 1) / (q - 1): every affine line of F_q^d."""
    return q ** (d - 1) * (q**d - 1) // (q - 1)


def naive_rank(fd, rows):
    """Rank from the size of the span, built up one row at a time: the span
    of the rows has exactly q^rank points."""
    F = reference(fd)
    span = {(0,) * len(rows[0])} if rows else {()}
    for row in rows:
        span = {tuple(F.add(x, F.mul(c, y)) for x, y in zip(s, row)) for s in span for c in F.elements()}
    rank = 0
    while F.q**rank < len(span):
        rank += 1
    assert F.q**rank == len(span)
    return rank


def naive_least_isotropic_triple(fd):
    """Lexicographically least (a, b, c), a != 0, with a^2 + b^2 + c^2 = 0,
    by scanning every triple in order."""
    F = reference(fd)
    for a in range(1, F.q):
        aa = F.mul(a, a)
        for b in range(F.q):
            ab = F.add(aa, F.mul(b, b))
            for c in range(F.q):
                if F.add(ab, F.mul(c, c)) == 0:
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
    F = reference(fd)
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
        s = naive_spread(F, a, b, c)
        if naive_spread(F, a, c, b) != s:
            note("symmetry", a, b, c)
        r, t = (1 + x for x in draw(d, "rt", fd.q - 1, 2))
        b2 = vadd(F, a, vscale(F, r, vsub(F, b, a)))
        c2 = vadd(F, a, vscale(F, t, vsub(F, c, a)))
        if naive_spread(F, a, b2, c2) != s:
            note("scaling", a, b, c)
        m = pools[d][draw(d, "pick", expt.MATRIX_POOL, 1)[0]]
        z = draw(d, "z", fd.q, d)
        ma, mb, mc = (vadd(F, mat_vec(F, m, v), z) for v in (a, b, c))
        if naive_spread(F, ma, mb, mc) != s:
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

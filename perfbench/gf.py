"""Minimal F_q arithmetic for the benchmark's own derived counts.

Independent of the package under test.  It follows the documented element
encoding: index i encodes sum(c_k alpha^k) with (c_0, ..., c_{r-1}) the
base-p digits of i, and alpha a root of the monic irreducible of degree r
whose coefficient vector, read as a base-p integer, is smallest.
"""

from __future__ import annotations


def _digits(i: int, p: int, r: int) -> list[int]:
    out = []
    for _ in range(r):
        out.append(i % p)
        i //= p
    return out


def _poly_rem(a: list[int], mod: list[int], p: int) -> list[int]:
    a = list(a)
    r = len(mod) - 1
    while len(a) > r:
        lead = a.pop()
        for k in range(r):
            a[len(a) - r + k] = (a[len(a) - r + k] - lead * mod[k]) % p
    return a + [0] * (r - len(a))


def least_irreducible(p: int, r: int) -> list[int]:
    """Ascending coefficients of the least monic irreducible of degree r."""
    for m in range(p**r):
        poly = _digits(m, p, r) + [1]
        divisors = (
            _digits(t, p, deg) + [1]
            for deg in range(1, r // 2 + 1)
            for t in range(p**deg)
        )
        if not any(not any(_poly_rem(poly, dv, p)) for dv in divisors):
            return poly
    raise ValueError(f"no irreducible of degree {r} over F_{p}")


class GF:
    """F_{p^r}: prime fields by modular arithmetic, extensions by a q x q
    multiplication table (only small extension fields are used here)."""

    def __init__(self, p: int, r: int):
        self.p, self.r, self.q = p, r, p**r
        self._mul = None
        if r > 1:
            mod = least_irreducible(p, r)
            digits = [_digits(i, p, r) for i in range(self.q)]
            self._mul = [
                [self._encode(self._polymul(a, b, mod)) for b in digits] for a in digits
            ]
            self._inv = [0] * self.q
            for a in range(1, self.q):
                self._inv[a] = self._mul[a].index(1)

    def _polymul(self, a, b, mod):
        out = [0] * (2 * self.r - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % self.p
        return _poly_rem(out, mod, self.p)

    def _encode(self, coeffs) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def sub(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a - b) % self.p
        p, out, w = self.p, 0, 1
        while a or b:
            out += ((a % p - b % p) % p) * w
            a //= p
            b //= p
            w *= p
        return out

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p if self.r == 1 else self._mul[a][b]

    def inv(self, a: int) -> int:
        return pow(a, self.p - 2, self.p) if self.r == 1 else self._inv[a]


def apex_class_counts(field: GF, points: list[tuple[int, ...]]) -> list[int]:
    """For each apex a, the number k_a of distinct projective classes among
    the arms b - a (b != a): arms scaled so their first nonzero coordinate
    is 1."""
    counts = []
    for i, a in enumerate(points):
        classes = set()
        for j, b in enumerate(points):
            if i == j:
                continue
            arm = [field.sub(x, y) for x, y in zip(b, a)]
            lead = next(x for x in arm if x)
            s = field.inv(lead)
            classes.add(tuple(field.mul(s, x) for x in arm))
        counts.append(len(classes))
    return counts

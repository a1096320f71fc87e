"""Exact arithmetic in F_q for odd prime powers q = p^r.

Elements are plain integers in [0, q): the index ``i`` encodes the element
sum(c_k * alpha^k) where (c_0, ..., c_{r-1}) are the base-p digits of ``i``
and alpha is a root of the field's modulus polynomial.  For r = 1 the index
is just the residue mod p.  Fields of characteristic 2 are rejected: every
geometric formula downstream divides by norms built from squares and only
odd q is supported.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CharacteristicTwo,
    DivisionByZero,
    NotASquare,
    NotPrime,
    SizeExceeded,
)

DEFAULT_SIZE_CAP = 1 << 20

# Largest q for which dense q x q operation tables are built; enumeration
# kernels fall back to scalar arithmetic above this.
TABLE_CAP = 2048


def is_prime(n: int) -> bool:
    """Deterministic trial division; adequate for q <= 2^20."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """Immutable description of F_q with exact element arithmetic.

    Thread-safe after construction; all operations are pure functions of
    their integer arguments.
    """

    __slots__ = ("p", "r", "q", "modulus", "_tables")

    def __init__(self, p: int, r: int = 1, size_cap: int = DEFAULT_SIZE_CAP):
        if r < 1:
            raise ValueError("extension degree must be >= 1")
        if p == 2:
            raise CharacteristicTwo("characteristic 2 is not supported")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        q = p**r
        if q > size_cap:
            raise SizeExceeded(f"q = {p}^{r} = {q} exceeds the size cap {size_cap}")
        self.p = p
        self.r = r
        self.q = q
        # Deterministic modulus: the monic irreducible of degree r over F_p
        # whose coefficient vector, read as a base-p integer, is smallest.
        self.modulus = _least_irreducible(p, r) if r > 1 else None
        self._tables = None

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digits of the index: the polynomial coefficients, ascending."""
        out = []
        for _ in range(self.r):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def encode(self, coeffs: Sequence[int]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c % self.p
        return v

    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.p
        return self.encode([x + y for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def sub(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a - b) % self.p
        return self.encode([x - y for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def neg(self, a: int) -> int:
        if self.r == 1:
            return (-a) % self.p
        return self.encode([-x for x in self.coeffs(a)])

    def mul(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a * b) % self.p
        prod = _poly_mul(self.coeffs(a), self.coeffs(b), self.p)
        return self.encode(_poly_rem(prod, self.modulus, self.p))

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        if self.r == 1:
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if self.r == 1:
            return pow(a, e, self.p)
        acc = 1
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    # -- squares -----------------------------------------------------------

    def is_square(self, a: int) -> bool:
        """Euler criterion: a^((q-1)/2) is 1 for nonzero squares, 0 for 0."""
        return self.pow(a, (self.q - 1) // 2) in (0, 1)

    def sqrt(self, a: int) -> int:
        """The square root of smaller index, by exhaustive search.

        O(q) per call, which is fine under the desk-scale size cap.
        Raises NotASquare when no root exists.
        """
        for t in range(self.q):
            if self.mul(t, t) == a:
                return t
        raise NotASquare(f"{a} is not a square in {self}")

    # -- vectorized operation tables ----------------------------------------

    def tables(self) -> "OpTables":
        """Dense numpy lookup tables (built lazily, cached).

        Only available for q <= TABLE_CAP; enumeration kernels use these so
        that prime and extension fields share one code path.
        """
        if self._tables is None:
            if self.q > TABLE_CAP:
                raise SizeExceeded(
                    f"operation tables limited to q <= {TABLE_CAP}, got q = {self.q}"
                )
            self._tables = _build_tables(self)
        return self._tables

    # -- identity ------------------------------------------------------------

    def label(self) -> str:
        return f"{self.p}^{self.r}"

    def __repr__(self) -> str:
        return f"Field({self.p}, {self.r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.r == other.r
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.r, self.modulus))


def parse_field(spec: str, size_cap: int = DEFAULT_SIZE_CAP) -> Field:
    """Parse a "p^r" field spec string ("5^1", "3^2"); bare "p" means p^1."""
    text = spec.strip()
    if "^" in text:
        p_str, _, r_str = text.partition("^")
    else:
        p_str, r_str = text, "1"
    try:
        p, r = int(p_str), int(r_str)
    except ValueError:
        raise NotPrime(f"malformed field spec {spec!r}") from None
    return Field(p, r, size_cap=size_cap)


def field_for_order(q: int, size_cap: int = DEFAULT_SIZE_CAP) -> Field:
    """The field of order q = p^r (p recovered as the smallest prime factor)."""
    if q < 3:
        raise NotPrime(f"no odd field of order {q}")
    if q > size_cap:  # before the trial division, which is O(q)
        raise SizeExceeded(f"q = {q} exceeds the size cap {size_cap}")
    p = 2
    while q % p:
        p += 1
    r = 0
    n = q
    while n > 1 and n % p == 0:
        n //= p
        r += 1
    if n != 1:
        raise NotPrime(f"{q} is not a prime power")
    return Field(p, r, size_cap=size_cap)


# -- polynomial helpers (coefficient lists ascending, over F_p) --------------


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _poly_rem(a: Sequence[int], monic_mod: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo a monic polynomial, both ascending."""
    r = len(monic_mod) - 1
    res = list(a)
    while len(res) > r:
        lead = res.pop()
        if lead:
            base = len(res) - r
            for k in range(r):
                res[base + k] = (res[base + k] - lead * monic_mod[k]) % p
    res += [0] * (r - len(res))
    return res


def _poly_is_zero(a: Sequence[int]) -> bool:
    return all(x == 0 for x in a)


def _monic_polys(p: int, deg: int) -> Iterable[tuple[int, ...]]:
    """Monic polynomials of exact degree ``deg``, ascending coefficient order,
    enumerated so the coefficient vector read as a base-p integer increases."""
    for m in range(p**deg):
        c = []
        t = m
        for _ in range(deg):
            c.append(t % p)
            t //= p
        yield tuple(c) + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Exhaustive trial division by monic polynomials of degree <= deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    if poly[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for div in _monic_polys(p, d):
            if _poly_is_zero(_poly_rem(poly, div, p)):
                return False
    return True


def _least_irreducible(p: int, r: int) -> tuple[int, ...]:
    for poly in _monic_polys(p, r):
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")  # unreachable


# -- dense lookup tables ------------------------------------------------------


class OpTables:
    """q x q int32 tables for add/sub/mul plus inverse and negation vectors.

    inv[0] is a sentinel 0 and must stay masked by callers.
    """

    __slots__ = ("q", "add", "sub", "mul", "inv", "neg")

    def __init__(self, q, add, sub, mul, inv, neg):
        self.q = q
        self.add = add
        self.sub = sub
        self.mul = mul
        self.inv = inv
        self.neg = neg


def _build_tables(fd: Field) -> OpTables:
    q = fd.q
    if fd.r == 1:
        idx = np.arange(q, dtype=np.int32)
        add = (idx[:, None] + idx[None, :]) % q
        sub = (idx[:, None] - idx[None, :]) % q
        mul = (idx[:, None] * idx[None, :]) % q
        neg = (-idx) % q
    else:
        p, r = fd.p, fd.r
        digits = np.empty((q, r), dtype=np.int32)
        t = np.arange(q, dtype=np.int64)
        for k in range(r):
            digits[:, k] = t % p
            t //= p
        weights = (p ** np.arange(r)).astype(np.int64)

        def enc(dd):
            return (dd.astype(np.int64) @ weights).astype(np.int32)

        add = enc((digits[:, None, :] + digits[None, :, :]) % p)
        sub = enc((digits[:, None, :] - digits[None, :, :]) % p)
        neg = enc((-digits) % p)
        # Multiplication through exp/log tables of a generator of F_q*.
        g = _find_generator(fd)
        exp = np.empty(q - 1, dtype=np.int32)
        acc = 1
        for k in range(q - 1):
            exp[k] = acc
            acc = fd.mul(acc, g)
        log = np.empty(q, dtype=np.int64)
        log[0] = 0
        log[exp] = np.arange(q - 1)
        mul = np.zeros((q, q), dtype=np.int32)
        nz = np.arange(1, q)
        mul[1:, 1:] = exp[(log[nz, None] + log[None, nz]) % (q - 1)]
    inv = np.zeros(q, dtype=np.int32)
    rows, cols = np.nonzero(mul == 1)
    inv[rows] = cols
    inv[0] = 0
    return OpTables(q, add, sub, mul, inv, np.asarray(neg, dtype=np.int32))


def _find_generator(fd: Field) -> int:
    n = fd.q - 1
    factors = set()
    m, f = n, 2
    while f * f <= m:
        while m % f == 0:
            factors.add(f)
            m //= f
        f += 1
    if m > 1:
        factors.add(m)
    for g in range(2, fd.q):
        if all(fd.pow(g, n // ell) != 1 for ell in factors):
            return g
    raise AssertionError("multiplicative group has a generator")  # unreachable

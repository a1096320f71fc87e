"""Exact arithmetic in F_q for odd prime powers q = p^r.

Elements are plain integers in [0, q): the index ``i`` encodes the element
sum(c_k * alpha^k) where (c_0, ..., c_{r-1}) are the base-p digits of ``i``
and alpha is a root of the field's modulus polynomial.  For r = 1 the index
is just the residue mod p.  Fields of characteristic 2 are rejected: every
geometric formula downstream divides by norms built from squares and only
odd q is supported.

All arithmetic, prime or extension field, runs on one set of O(q) int32
arrays built at construction from discrete logarithms to a generator of
F_q^*: logs, exponentials and Zech logarithms (Lidl & Niederreiter, Finite
Fields, ch. 9).  A product is an add plus a gather, a sum a Zech gather
plus an add plus a gather, both with numpy on arrays of logs.  Norms, Gram
matrices, spreads, isotropy and distances (by polarization) downstream
all come from the one inner product ``Field.log_dot``.

One least-generator search on multiplication matrices over F_p
(``_cyclic_powers``) lists the powers of a generator: of F_q^* for the
logs, and of the q + 1 directions of the plane, for q = 3 mod 4, in
F_q[i] = F_(q^2) (``_plane_class_powers``, which the census reads).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import CharacteristicTwo, FormatError, NotASquare, NotPrime, SizeExceeded

SIZE_CAP = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic trial division; adequate for q <= 2^20."""
    return next(_prime_factors(n), None) == n


def _prime_factors(n: int) -> Iterator[int]:
    """The distinct primes dividing n, ascending, by trial division; lazy,
    so a composite's least prime f comes after about f / 2 steps."""
    f = 2
    while f * f <= n:
        if n % f == 0:
            yield f
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        yield n


class Field:
    """Immutable description of F_q with exact arithmetic on arrays of logs.

    Thread-safe after construction; all operations are pure functions of
    their arguments.
    """

    __slots__ = (
        "p", "r", "q", "modulus", "zero_log", "log", "exp",
        "_half", "_red", "_zech", "_one_minus",
    )

    def __init__(self, p: int, r: int = 1):
        if r < 1:
            raise NotPrime(f"{p}^{r} is not a prime power: the extension degree must be >= 1")
        if p == 2:
            raise CharacteristicTwo("characteristic 2 is not supported")
        # Before the O(sqrt(p)) trial division, and before p^r is formed:
        # for p >= 3, p^r > 2^r exceeds the cap once r reaches its bit length.
        if p >= 3 and (p > SIZE_CAP or r >= SIZE_CAP.bit_length() or p**r > SIZE_CAP):
            raise SizeExceeded(f"q = p^r exceeds the size cap {SIZE_CAP}")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.r = r
        self.q = q = p**r
        # Deterministic modulus: the monic irreducible of degree r over F_p
        # whose coefficient vector, read as a base-p integer, is smallest.
        self.modulus = _least_irreducible(p, r) if r > 1 else None
        n = q - 1
        self.zero_log = 2 * n
        self._half = n // 2  # log of -1
        arrays = _log_arrays(p, r, self.modulus)
        for a in arrays:
            a.flags.writeable = False  # shared by every thread using the field
        self.log, self.exp, self._red, self._zech, self._one_minus = arrays

    def elements(self) -> range:
        return range(self.q)

    # -- scalars -------------------------------------------------------------

    def neg(self, a: int) -> int:
        return int(self.exp[self.log[a] + self._half])

    def sqrt(self, a: int) -> int:
        """The square root of smaller index; the squares are 0 and the even
        powers of the generator.

        Raises NotASquare when no root exists.
        """
        if a == 0:
            return 0
        la = int(self.log[a])
        if la & 1:
            raise NotASquare(f"{a} is not a square in {self}")
        root = la // 2
        return int(min(self.exp[root], self.exp[root + self._half]))

    # -- numpy arithmetic on logs ---------------------------------------------
    #
    # Arrays of logs (``log[elements]``; 0 has the log ``zero_log``) combine
    # without leaving the log domain, every result again a log of this
    # form; ``exp[logs]`` maps them back to elements.  Equal logs are equal
    # elements.  Every gather is a ``take`` in "wrap" mode: the index sums
    # stay inside their arrays (see ``_log_arrays``) but for the Zech
    # differences below 0, which wrap as Python indices do, and a take
    # reads int32 indices ~3x faster than fancy indexing (numpy 2.4).  An
    # ``out`` array receives the result in place.

    def log_mul(self, x: np.ndarray, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        return self._red.take(np.add(x, y, out=out), out=out, mode="wrap")

    def log_add(self, x: np.ndarray, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The logs of the sums; ``out`` may be y, never x."""
        z = self._zech.take(np.subtract(y, x, out=out), out=out, mode="wrap")
        return self._red.take(np.add(x, z, out=out), out=out, mode="wrap")

    def log_neg(self, x: np.ndarray) -> np.ndarray:
        return self._red.take(x + self._half, mode="wrap")

    def log_dot(self, x: np.ndarray, y: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Logs of sum_i x_i y_i over the common last axis (length >= 1) of
        two arrays of logs whose other axes broadcast.  The loop runs over
        coordinates, so no temporary carries that axis; with ``out`` it
        keeps one product temporary."""
        acc = self.log_mul(x[..., 0], y[..., 0], out=out)
        for c in range(1, x.shape[-1]):
            acc = self.log_add(self.log_mul(x[..., c], y[..., c]), acc, out=out)
        return acc

    def spread_from_logs(
        self, dot: np.ndarray, nu: np.ndarray, nv: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Elements 1 - dot^2 / (nu * nv) from the logs of a dot product and
        two norms (broadcast), in one gather; -1 where a norm is 0.  A zero
        norm moves the index past the table's last entry, -1, and the index
        is clipped there; the zero test reads the norms, not the products.
        An ``out`` array has dot's shape, which then spans the broadcast
        shape, and may be dot itself."""
        return self.spread_from_terms(dot, self.spread_terms(nu), self.spread_terms(nv), out=out)

    def spread_terms(self, norms: np.ndarray) -> np.ndarray:
        """The terms ``spread_from_terms`` adds for the logs of norms:
        -log mod q - 1, or 6 (q - 1) for the norm 0."""
        n = self.q - 1
        return np.where(norms == self.zero_log, 6 * n, -norms % n)

    def spread_from_terms(
        self, dot: np.ndarray, tu: np.ndarray, tv: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``spread_from_logs`` with the norms' ``spread_terms`` taken
        beforehand, so norms met again cost no second pass."""
        n = self.q - 1
        if out is None:
            idx = 2 * dot + (tu + tv)
        else:
            idx = np.multiply(dot, 2, out=out)
            idx += tu
            idx += tv
        np.minimum(idx, 6 * n - 1, out=idx)
        return self._one_minus.take(idx, out=out, mode="wrap")

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


def parse_field(spec: str) -> Field:
    """Parse a "p^r" field spec string ("5^1", "3^2"); bare "p" means p^1."""
    text = spec.strip()
    if "^" in text:
        p_str, _, r_str = text.partition("^")
    else:
        p_str, r_str = text, "1"
    try:
        p, r = int(p_str), int(r_str)
    except ValueError:
        raise FormatError(f"malformed field spec {spec!r}") from None
    return Field(p, r)


def field_for_order(q: int) -> Field:
    """The field of order q = p^r (p recovered as the smallest prime factor)."""
    if q < 3:
        raise NotPrime(f"no odd field of order {q}")
    if q > SIZE_CAP:  # before the trial division, which is O(sqrt(q))
        raise SizeExceeded(f"q = {q} exceeds the size cap {SIZE_CAP}")
    primes = list(_prime_factors(q))
    if len(primes) != 1:
        raise NotPrime(f"{q} is not a prime power")
    p, r = primes[0], 1
    while p**r < q:
        r += 1
    return Field(p, r)


# -- polynomial helpers (coefficient lists ascending, over F_p) --------------


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
            if not any(_poly_rem(poly, div, p)):
                return False
    return True


def _least_irreducible(p: int, r: int) -> tuple[int, ...]:
    for poly in _monic_polys(p, r):
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")  # unreachable


# -- discrete-log arrays ---------------------------------------------------------
#
# With n = q - 1 and g the generator of F_q^* of least index, the element
# g^k has the log k in [0, n) and 0 has the log 2n.  A sum of two logs that
# involves 0 is at least 2n, and one of two nonzero logs is at most 2n - 2,
# so one gather maps any such sum to its element (``exp``) or to its
# reduced log (``red``).  ``zech`` adds: with x, y logs, x + zech[y - x]
# (negative indices wrap) is a sum of logs for g^x + g^y, where
#   y - x in (-n, n)     log(1 + g^(y-x)), both nonzero (2n when g^(y-x) = -1)
#   y - x in [n+1, 2n]   0, since y is zero and the sum is x
#   y - x in [-2n, -n-1] y - x itself, since x is zero and the sum is y.
# ``one_minus[x]`` is the element 1 - g^x for x < 4n, 1 up to 6n - 2 and -1
# (undefined) at 6n - 1, so 1 - d^2 / (|u| |v|) is one gather at
# 2 log(d) - log|u| - log|v| (mod n), at most 6n - 2, and an index clipped
# to 6n - 1 reads -1.


def _log_arrays(p: int, r: int, modulus) -> tuple[np.ndarray, ...]:
    q = p**r
    n = q - 1
    h = n // 2
    zero = 2 * n
    # Indices below p are the constants F_p, which generate F_q^* only for r = 1.
    steps = (_mul_rows(p, modulus, [g // p**i % p for i in range(r)]) for g in range(p if r > 1 else 2, q))
    powers = _cyclic_powers(p, steps, n, lambda row: row[0] == 1 and not row[1:].any())
    ks = np.arange(n, dtype=np.int32)
    log = np.empty(q, dtype=np.int32)
    log[powers] = ks
    log[0] = zero
    exp = np.zeros(4 * n + 1, dtype=np.int32)
    exp[: 2 * n].reshape(2, n)[:] = powers
    red = np.full(4 * n + 1, zero, dtype=np.int32)
    red[: 2 * n].reshape(2, n)[:] = ks
    del ks
    one_plus = powers + 1  # 1 + g^k: bump digit 0, which wraps at p
    one_plus[powers % p == p - 1] -= p
    zech = np.zeros(4 * n + 1, dtype=np.int32)
    np.take(log, one_plus, out=zech[:n])
    zech[3 * n + 2 :] = zech[1:n]
    zech[2 * n + 1 : 3 * n + 1] = np.arange(-zero, -n, dtype=np.int32)
    one_minus = np.ones(6 * n, dtype=np.int32)
    one_minus[-1] = -1
    periods = one_minus[: 4 * n].reshape(4, n)
    periods[:, : n - h] = one_plus[h:]  # 1 - g^x = 1 + g^(x + h)
    periods[:, n - h :] = one_plus[:h]
    return log, exp, red, zech, one_minus


# Rows per block when powers are built, bounding the digit temporaries.
_POWER_BLOCK = 1 << 16


def _cyclic_powers(p: int, steps: Iterable[np.ndarray], order: int, trivial) -> np.ndarray:
    """``_powers`` of the first multiplication matrix in ``steps`` that
    generates a cyclic group of this order: ``trivial`` holds of the digit
    row of no g^(order / l), l a prime dividing the order."""
    primes = list(_prime_factors(order))
    for step in steps:
        if not any(trivial(_mat_pow(step, order // ell, p)[0]) for ell in primes):
            return _powers(p, step, order)
    raise AssertionError("the group is cyclic")  # unreachable


def _powers(p: int, step: np.ndarray, count: int) -> np.ndarray:
    """g^0, ..., g^(count-1) as element indices, int64 once they can pass
    int32, where ``step`` is the multiplication matrix of g: each pass
    multiplies the known prefix of k powers by the next power g^k, which
    makes it 2k long."""
    weights = p ** np.arange(len(step), dtype=np.int64)
    out = np.empty(count, dtype=np.int32 if p ** len(step) <= 1 << 31 else np.int64)
    out[0] = 1
    k = 1
    while k < count:
        m = min(k, count - k)
        for lo in range(0, m, _POWER_BLOCK):
            digits = out[lo : min(m, lo + _POWER_BLOCK), None] // weights % p
            out[k + lo : k + lo + len(digits)] = digits @ step % p @ weights
        step = step @ step % p  # multiplication by g^(2k)
        k += m
    return out


def _mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    acc = np.eye(len(m), dtype=np.int64)
    while e:
        if e & 1:
            acc = acc @ m % p
        m = m @ m % p
        e >>= 1
    return acc


def _mul_rows(p: int, modulus, c: Sequence[int]) -> np.ndarray:
    """Digit rows of c, c*alpha, ..., c*alpha^(r-1): the matrix that maps
    the digit row of x to the digit row of c*x."""
    rows = [np.array(c, dtype=np.int64)]
    for _ in range(1, len(c)):
        v = rows[-1]
        # alpha * v: shift the digits up, then fold in alpha^r = -(m_0 + ... + m_{r-1} alpha^(r-1))
        rows.append((np.concatenate(([0], v[:-1])) - v[-1] * np.array(modulus[:-1])) % p)
    return np.stack(rows)


def _plane_class_powers(fd: Field) -> tuple[np.ndarray, np.ndarray]:
    """For q = 3 mod 4, the elements (x, y) of g^k = x + iy, k <= q, in
    F_q[i] = F_(q^2), i^2 = -1, for g the least 1 + it (t < q) whose class
    generates F_(q^2)^* / F_q^*, of order q + 1: no g^((q + 1) / l), l a
    prime dividing q + 1, has y = 0.  An element of F_q[i] is the index
    x + q y, digits (x, y), and multiplying by 1 + it maps them to
    (x - ty, y + tx): the block matrix [[I, T], [-T, I]], T = ``_mul_rows``
    of t."""
    p, r, q = fd.p, fd.r, fd.q
    eye = np.eye(r, dtype=np.int64)

    def step(t: int) -> np.ndarray:
        mul = _mul_rows(p, fd.modulus, [t // p**i % p for i in range(r)])
        return np.block([[eye, mul], [-mul % p, eye]])

    powers = _cyclic_powers(p, map(step, range(1, q)), q + 1, lambda row: not row[r:].any())
    return powers % q, powers // q

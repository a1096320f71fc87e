import random
import time

import numpy as np
import pytest
from conftest import dot, reference
from hypothesis import given, settings
from hypothesis import strategies as st

from fqspread import errors, ff
from fqspread.ff import Field, parse_field

F5 = Field(5)
F7 = Field(7)
F9 = Field(3, 2)
F25 = Field(5, 2)
F27 = Field(3, 3)


def test_prime_field_has_no_modulus():
    assert (F5.p, F5.r, F5.q) == (5, 1, 5)
    assert F5.modulus is None


def test_f9_modulus_is_lexicographically_first_irreducible():
    # Oracle: scan monic degree-2 polynomials over F_3 in coefficient order
    # and take the first with no root (degree 2, so root-free = irreducible).
    expected = None
    for m in range(9):
        c0, c1 = m % 3, m // 3
        if all((c0 + c1 * x + x * x) % 3 != 0 for x in range(3)):
            expected = (c0, c1, 1)
            break
    assert expected == (1, 0, 1)
    assert F9.modulus == expected


def test_more_moduli_are_lexicographically_first():
    # Independent oracle: first monic polynomial with no base-field root in
    # coefficient order.  Root-freeness is equivalent to irreducibility for
    # degrees 2 and 3.
    def first_rootfree(p, r):
        for m in range(p**r):
            coeffs = []
            t = m
            for _ in range(r):
                coeffs.append(t % p)
                t //= p
            coeffs.append(1)
            if all(
                sum(c * x**k for k, c in enumerate(coeffs)) % p != 0 for x in range(p)
            ):
                return tuple(coeffs)

    assert Field(5, 2).modulus == first_rootfree(5, 2) == (2, 0, 1)
    assert Field(3, 3).modulus == first_rootfree(3, 3) == (1, 2, 0, 1)


def test_constructor_rejections():
    with pytest.raises(errors.CharacteristicTwo):
        Field(2, 3)
    with pytest.raises(errors.NotPrime):
        Field(9)
    with pytest.raises(errors.NotPrime):
        Field(1)
    with pytest.raises(errors.SizeExceeded):
        Field(3, 20)  # 3^20 > 2^20


@pytest.mark.parametrize(
    "p, r",
    [
        (100000000000031, 1),  # a prime: no trial division up to sqrt(p)
        (10**12, 1),  # a composite above the cap is too large, not NotPrime
        (3, 10**8),  # 3^(10^8) is never formed
    ],
)
def test_size_cap_checked_first(p, r):
    started = time.monotonic()
    with pytest.raises(errors.SizeExceeded):
        Field(p, r)
    assert time.monotonic() - started < 0.1


def test_parse_field():
    assert parse_field("5^1") == F5
    assert parse_field("3^2") == F9
    assert parse_field("7") == F7
    # a spec that is not "p" or "p^r" in integers is malformed, not a
    # non-prime order
    for spec in ("", "abc", "5^", "5^x", "^2", "5^1^2"):
        with pytest.raises(errors.FormatError):
            parse_field(spec)
    with pytest.raises(errors.NotPrime):
        parse_field("4^1")


def test_field_for_order():
    assert ff.field_for_order(9) == F9
    assert ff.field_for_order(7) == F7
    with pytest.raises(errors.NotPrime):
        ff.field_for_order(15)


def test_is_prime_and_field_for_order_exhaustively():
    # oracle: p and r by division, primality by every candidate factor
    for n in range(2501):
        assert ff.is_prime(n) == (n > 1 and all(n % f for f in range(2, n))), n
        p = next((f for f in range(2, n + 1) if n % f == 0), None)
        r, m = 0, n
        while p and m % p == 0:
            m, r = m // p, r + 1
        if n < 3 or m != 1:
            expected = errors.NotPrime
        elif p == 2:
            expected = errors.CharacteristicTwo
        else:
            assert ff.field_for_order(n) == Field(p, r), n
            continue
        with pytest.raises(expected):
            ff.field_for_order(n)


def elementwise(fd, op, *xs):
    """op (log_add, log_mul or log_neg) of fd on element lists, as elements."""
    return fd.exp[op(*(fd.log[np.array(x)] for x in xs))].tolist()


def test_prime_arith_examples():
    assert elementwise(F5, F5.log_add, [3, 1], [4, F5.neg(3)]) == [2, 3]  # 3 + 4, 1 - 3
    assert elementwise(F5, F5.log_mul, [2, 3], [3, 2]) == [1, 1]  # so 1/2 = 3
    assert elementwise(F5, F5.log_neg, [0, 1, 3]) == [0, 4, 2]


def test_f9_alpha_squared_is_minus_one():
    # alpha has digits (0, 1), index 3; with modulus x^2 + 1 its square is -1,
    # the constant 2, index 2.
    alpha = reference(F9).encode([0, 1])
    assert alpha == 3
    assert elementwise(F9, F9.log_mul, [alpha], [alpha]) == [2]
    assert F9.neg(1) == 2


def check_log_laws(fd, a, b, c):
    """Associativity, distributivity, negation and inverses of log_add,
    log_mul and log_neg on elements a, b, c (ints or arrays); equal logs are
    equal elements."""
    la, lb, lc = (fd.log[np.atleast_1d(x)] for x in (a, b, c))
    add, mul = fd.log_add, fd.log_mul
    assert (add(add(la, lb), lc) == add(la, add(lb, lc))).all()
    assert (mul(mul(la, lb), lc) == mul(la, mul(lb, lc))).all()
    assert (mul(la, add(lb, lc)) == add(mul(la, lb), mul(la, lc))).all()
    assert (add(la, fd.log_neg(la)) == fd.zero_log).all()
    assert (fd.log_neg(fd.log_neg(la)) == la).all()
    nz = la[la != fd.zero_log]
    assert (mul(nz, -nz % (fd.q - 1)) == 0).all()  # a * a^-1 = 1, whose log is 0


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_f9_algebra_laws(a, b, c):
    check_log_laws(F9, a, b, c)


def test_algebra_laws_randomized_over_more_fields():
    rng = np.random.default_rng(7)
    for fd in (F5, F7, F9, F25, F27):
        check_log_laws(fd, *rng.integers(0, fd.q, size=(3, 300)))


def test_is_square_examples():
    # the squares are 0 and the even powers of the generator, as sqrt reads them
    assert set(elementwise(F5, F5.log_mul, range(5), range(5))) == {0, 1, 4}
    assert F5.log[4] % 2 == 0
    assert F5.log[2] % 2 == 1
    assert F9.log[F9.neg(1)] % 2 == 0  # 9 = 1 mod 4


def test_sqrt_examples():
    assert F5.sqrt(4) == 2  # roots are 2 and 3; smaller index wins
    assert F5.sqrt(F5.neg(1)) == 2
    assert F5.sqrt(0) == 0
    with pytest.raises(errors.NotASquare):
        F5.sqrt(2)
    with pytest.raises(errors.NotASquare):
        F7.sqrt(F7.neg(1))  # 7 = 3 mod 4
    assert F9.sqrt(2) == 3  # sqrt(-1) in F_9 is alpha


def _odd_prime_powers_up_to(limit):
    out = []
    for p in range(3, limit + 1, 2):
        if not ff.is_prime(p):
            continue
        q = p
        r = 1
        while q <= limit:
            out.append((p, r, q))
            q *= p
            r += 1
    return sorted(out, key=lambda t: t[2])


def test_is_square_matches_squaring_table_and_sqrt_consistent_everywhere():
    # Every odd prime-power field with q <= 2000: the even logs must be
    # exactly the nonzero squares of the schoolbook squaring table, and
    # sqrt(-1) must exist exactly when q = 1 mod 4.
    for p, r, q in _odd_prime_powers_up_to(2000):
        fd = Field(p, r)
        ref = reference(fd)
        squares = {ref.mul(x, x) for x in ref.elements()}
        assert (fd.log[1:] % 2 == 0).tolist() == [a in squares for a in range(1, q)], (p, r)
        minus_one = ref.neg(1)
        if q % 4 == 1:
            root = fd.sqrt(minus_one)
            assert ref.mul(root, root) == minus_one
        else:
            with pytest.raises(errors.NotASquare):
                fd.sqrt(minus_one)


def test_sqrt_square_roundtrip_small_fields():
    for fd in (F5, F7, F9, F25):
        ref = reference(fd)
        squares = {ref.mul(x, x) for x in ref.elements()}
        for a in fd.elements():
            if a in squares:
                t = fd.sqrt(a)
                assert ref.mul(t, t) == a
                assert t <= ref.neg(t) or a == 0
            else:
                with pytest.raises(errors.NotASquare):
                    fd.sqrt(a)


def check_ops_against_reference(fd, pairs):
    """The log-domain array ops of fd on the element pairs (a, b), and its
    scalar neg and sqrt on their elements, against the table-free
    reference field."""
    ref = reference(fd)
    minus_one = ref.neg(1)
    for a in sorted({x for pair in pairs for x in pair}):
        assert fd.neg(a) == ref.neg(a), (fd, a)
        square = ref.mul(a, a)
        root = fd.sqrt(square)
        assert ref.mul(root, root) == square and root <= ref.neg(root), (fd, a)
        if ref.pow(a, (fd.q - 1) // 2) == minus_one:  # Euler: a is no square
            with pytest.raises(errors.NotASquare):
                fd.sqrt(a)
    xs, ys = (np.array(v) for v in zip(*pairs))
    lx, ly = fd.log[xs], fd.log[ys]
    assert fd.exp[fd.log_add(lx, ly)].tolist() == [ref.add(a, b) for a, b in pairs]
    assert fd.exp[fd.log_mul(lx, ly)].tolist() == [ref.mul(a, b) for a, b in pairs]
    assert fd.exp[fd.log_neg(lx)].tolist() == [ref.neg(a) for a in xs.tolist()]
    assert fd.exp[fd.log_add(lx, fd.log_neg(ly))].tolist() == [ref.sub(a, b) for a, b in pairs]
    nz = xs[xs != 0]  # the inverse of a nonzero element has the log -log(a) mod q - 1
    assert [ref.mul(a, b) for a, b in zip(nz.tolist(), fd.exp[-fd.log[nz] % (fd.q - 1)].tolist())] == [1] * len(nz)


def _small_fields():
    return [Field(p, r) for p, r, _ in _odd_prime_powers_up_to(125)]


@pytest.mark.parametrize("fd", _small_fields(), ids=Field.label)
def test_generator_is_the_least_element_of_full_order(fd):
    # every log is a power of exp[1]: the least element, by index, whose
    # schoolbook powers first reach 1 at the (q - 1)-th
    ref = reference(fd)

    def order(a):
        k, power = 1, a
        while power != 1:
            k, power = k + 1, ref.mul(power, a)
        return k

    assert int(fd.exp[1]) == next(a for a in range(1, fd.q) if order(a) == fd.q - 1)


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 27, 31, 43, 243])
def test_plane_class_powers_match_reference_field(q):
    # g^0, ..., g^q = x + iy in F_q[i] = F_(q^2), i^2 = -1, by schoolbook
    # products of pairs, for g = 1 + i t0, t0 the least t whose class has
    # order q + 1: the first power after g^0 with y = 0 is g^(q+1).  Their
    # slopes y / x (q where x = 0) are the q + 1 directions once each.
    fd = ff.field_for_order(q)
    ref = reference(fd)

    def class_powers(g):  # g^0, ..., g^k for the least k >= 1 with y = 0
        out = [(1, 0), g]
        while out[-1][1]:
            (x, y), (u, v) = out[-1], g
            out.append((ref.sub(ref.mul(x, u), ref.mul(y, v)), ref.add(ref.mul(x, v), ref.mul(y, u))))
        return out

    want = next(ps for t in range(1, q) if len(ps := class_powers((1, t))) == q + 2)[:-1]
    x, y = ff._plane_class_powers(fd)
    assert list(zip(x.tolist(), y.tolist())) == want
    assert sorted(q if a == 0 else ref.div(b, a) for a, b in want) == list(range(q + 1))


@pytest.mark.parametrize("fd", _small_fields(), ids=Field.label)
def test_ops_match_reference_field_exhaustively(fd):
    check_ops_against_reference(fd, [(a, b) for a in fd.elements() for b in fd.elements()])


@pytest.mark.parametrize("p, r", [(2053, 1), (3, 7), (3, 12), (1048573, 1), (1021, 2)])
def test_ops_match_reference_field_on_samples(p, r):
    fd = Field(p, r)
    rng = random.Random(p * 100 + r)
    edges = [0, 1, fd.neg(1), fd.q - 1]
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rng.randrange(fd.q), rng.randrange(fd.q)) for _ in range(300)]
    pairs += [(a, 0) for a, _ in pairs[-20:]] + [(0, b) for _, b in pairs[-20:]]
    check_ops_against_reference(fd, pairs)


def test_spread_from_logs_matches_scalar_formula():
    # 1 - d^2 / (nu nv) for every d and every nonzero nu, nv of F_7 and F_9
    for fd in (F7, F9):
        ref = reference(fd)
        nz = np.arange(1, fd.q)
        d = np.arange(fd.q)[:, None, None]
        got = fd.spread_from_logs(fd.log[d], fd.log[nz][None, :, None], fd.log[nz][None, None, :])
        for (x, u, v), s in np.ndenumerate(got):
            u, v = u + 1, v + 1
            assert s == ref.sub(1, ref.div(ref.mul(x, x), ref.mul(u, v)))
        # a zero norm on either side reads -1, for every d
        zero = np.array([fd.zero_log])
        assert (fd.spread_from_logs(fd.log[d], zero[None, :, None], fd.log[nz][None, None, :]) == -1).all()
        assert (fd.spread_from_logs(fd.log[d], fd.log[nz][None, :, None], zero[None, None, :]) == -1).all()


@pytest.mark.parametrize("fd", [F7, F27], ids=lambda fd: fd.label())
def test_log_dot_matches_scalar_dot(fd):
    # seeded vectors with zero coordinates and zero vectors, over the pair
    # grid (k,1,d) x (1,k,d) and over equal shapes, for d = 1, 2 and 4
    rng = random.Random(fd.q)
    for d in (1, 2, 4):
        vecs = [tuple(rng.choice([0, 0, rng.randrange(fd.q)]) for _ in range(d)) for _ in range(12)]
        vecs += [(0,) * d, (1,) + (0,) * (d - 1)]
        logs = fd.log[np.array(vecs)]
        grid = fd.log_dot(logs[:, None, :], logs[None, :, :])
        assert grid.shape == (len(vecs), len(vecs))
        for (i, j), got in np.ndenumerate(grid):
            assert fd.exp[got] == dot(fd, vecs[i], vecs[j])
        same = fd.log_dot(logs, logs[::-1])
        assert [fd.exp[x] for x in same] == [dot(fd, u, v) for u, v in zip(vecs, vecs[::-1])]

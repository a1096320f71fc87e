import itertools
import random

import pytest
from conftest import (
    dot,
    naive_least_isotropic_triple,
    naive_rank,
    naive_span,
    naive_spread_census,
    norm,
    vadd,
)

from fqspread import construct, errors, geom
from fqspread.construct import (
    con1_set,
    con2_set,
    is_isotropic_family,
    iso_family_1mod4,
    iso_family_3mod4,
    least_isotropic_triple,
    span,
)
from fqspread.ff import Field

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)
F13 = Field(13)


def test_iso_family_1mod4_frozen():
    assert iso_family_1mod4(F5, 2) == [(1, 2)]
    assert iso_family_1mod4(F5, 4) == [(1, 2, 0, 0), (0, 0, 1, 2)]
    assert iso_family_1mod4(F13, 2) == [(1, 5)]  # 5^2 = 25 = -1 mod 13, 5 < 8


def test_iso_family_1mod4_errors():
    with pytest.raises(errors.BadResidue):
        iso_family_1mod4(F7, 2)
    with pytest.raises(errors.OddDimension):
        iso_family_1mod4(F5, 3)


def test_least_isotropic_triple_frozen():
    # Oracle: lexicographic scan; 1+1+1 = 0 mod 3, 1+4+9 = 14 = 0 mod 7.
    assert least_isotropic_triple(F3) == (1, 1, 1)
    assert least_isotropic_triple(F7) == (1, 2, 3)


def test_least_isotropic_triple_matches_scan():
    # every odd prime power q <= 243, 2063 and 3^7; for q = 1048573 the first
    # block of 2^18 circle indices (b = 0, c < 2^18) holds no point
    orders = [
        (p, r)
        for p in range(3, 244, 2)
        if all(p % f for f in range(2, p))
        for r in range(1, 6)
        if p**r <= 243
    ]
    for p, r in orders + [(2063, 1), (3, 7), (1048573, 1)]:
        fd = Field(p, r)
        assert least_isotropic_triple(fd) == naive_least_isotropic_triple(fd), fd


def test_iso_family_3mod4_frozen():
    assert iso_family_3mod4(F3, 4) == [(1, 1, 1, 0), (0, 2, 1, 1)]
    fam7 = iso_family_3mod4(F7, 4)
    assert len(fam7) == 2
    assert is_isotropic_family(F7, fam7)


def test_iso_family_3mod4_errors():
    with pytest.raises(errors.BadResidue):
        iso_family_3mod4(F5, 4)
    with pytest.raises(errors.BadDimension):
        iso_family_3mod4(F3, 6)


def test_all_emitted_families_pass_invariants():
    cases = [(F5, 2), (F5, 4), (F5, 6), (F13, 4), (F3, 4), (F3, 8), (F7, 4), (F7, 8)]
    for fd, d in cases:
        fam = construct.iso_family(fd, d)
        assert len(fam) == d // 2
        assert is_isotropic_family(fd, fam)


def test_is_isotropic_family_rejects_bad_inputs():
    assert not is_isotropic_family(F5, [(1, 0)])  # not isotropic
    assert not is_isotropic_family(F5, [(1, 2), (2, 4)])  # dependent
    # orthogonal isotropic sums are isotropic, so rank must catch dependence
    u, v = (1, 2, 0, 0), (0, 0, 1, 2)
    w = vadd(F5, u, v)
    assert not is_isotropic_family(F5, [u, v, w])
    assert not is_isotropic_family(F5, [(1, 2), (1, 3)])  # isotropic, not orthogonal
    assert is_isotropic_family(F5, [])


@pytest.mark.parametrize("fd, d", [(F3, 4), (F5, 4), (Field(3, 2), 4)], ids=str)
def test_is_isotropic_family_matches_scalar_oracle(fd, d):
    # seeded families of 1 to 3 vectors, mostly isotropic ones
    iso = [v for v in itertools.product(fd.elements(), repeat=d) if norm(fd, v) == 0]
    rng = random.Random(fd.q)
    seen = set()
    for _ in range(300):
        fam = [rng.choice(iso) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.1:
            fam[0] = (1,) + (0,) * (d - 1)  # not isotropic
        want = (
            all(norm(fd, v) == 0 for v in fam)
            and all(dot(fd, u, v) == 0 for u, v in itertools.combinations(fam, 2))
            and naive_rank(fd, fam) == len(fam)
        )
        assert is_isotropic_family(fd, fam) == want
        seen.add(want)
    assert seen == {True, False}


def test_span_frozen_example():
    ps = span(F5, [(1, 2)])
    assert ps.points == ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3))


def test_span_empty_and_sizes():
    assert len(span(F5, [(1, 0, 0), (0, 1, 0)])) == 25
    with pytest.raises(errors.DependentInput):
        span(F5, [(1, 2), (2, 4)])
    with pytest.raises(errors.DependentInput):
        span(F5, [])
    with pytest.raises(errors.BudgetExceeded):
        span(F5, [(1, 0, 0), (0, 1, 0)], budget=10)


def _construction_basis(fd, d):
    # the vectors con1_set (even d) or con2_set (odd d) spans
    if d % 2 == 0:
        return construct.iso_family(fd, d)
    return [v + (0,) for v in construct.iso_family(fd, d - 1)] + [(0,) * (d - 1) + (1,)]


@pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
@pytest.mark.parametrize(
    "q, d", [(5, 2), (5, 4), (13, 2), (3, 4), (7, 4), (5, 3), (13, 3), (3, 5), (9, 4), (9, 3)], ids=str
)
def test_span_matches_scalar_oracle(monkeypatch, block, q, d):
    # the construction cases of the battery and F_9, through one block of
    # coefficient rows and through many blocks of 7
    if block:
        monkeypatch.setattr(geom, "_BLOCK", block)
    fd = Field(3, 2) if q == 9 else Field(q)
    basis = _construction_basis(fd, d)
    ps = span(fd, basis)
    assert list(ps.points) == naive_span(fd, basis)
    assert ps == (con1_set if d % 2 == 0 else con2_set)(fd, d)


def test_con1_frozen_and_census_by_naive_oracle():
    ps = con1_set(F5, 2)
    assert ps.points == ((0, 0), (1, 2), (2, 4), (3, 1), (4, 3))
    values, undefined, scanned = naive_spread_census(ps)
    assert values == []
    assert undefined == scanned == 60


def test_con1_sizes_and_zero_spreads():
    for fd, d in ((F5, 4), (F3, 4), (F7, 4)):
        ps = con1_set(fd, d)
        assert len(ps) == fd.q ** (d // 2)
        values, _, _ = naive_spread_census(ps)
        assert values == []


def test_con1_odd_dimension_rejected():
    with pytest.raises(errors.OddDimension):
        con1_set(F5, 3)


def test_con1_open_case_propagates_family_error():
    # q = 3 mod 4 with d = 2 mod 4 has no family of this shape
    with pytest.raises(errors.BadDimension):
        con1_set(F7, 6)


def test_con2_frozen_census():
    ps = con2_set(F5, 3)
    assert len(ps) == 25
    values, _, _ = naive_spread_census(ps)
    assert values == [0]  # a single defined value, and it is 0


def test_con2_sizes():
    assert len(con2_set(F13, 3)) == 169
    assert len(con2_set(F3, 5)) == 27


def test_con2_errors():
    with pytest.raises(errors.BadResidue):
        con2_set(F7, 3)  # 7 = 3 mod 4 needs d = 1 mod 4
    with pytest.raises(errors.BadDimension):
        con2_set(F5, 4)
    with pytest.raises(errors.BadDimension):
        con2_set(F5, 1)


def test_con2_family_structure():
    # last basis vector present, rest isotropic in the leading coordinates
    ps = con2_set(F3, 5)
    axis = (0, 0, 0, 0, 1)
    assert axis in ps
    for v in construct.iso_family(F3, 4):
        assert v + (0,) in ps

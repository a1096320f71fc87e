import itertools
import random

import pytest
from conftest import naive_rank, naive_sphere_points
from hypothesis import given, settings
from hypothesis import strategies as st

from fqspread import census, errors, geom
from fqspread.ff import Field
from fqspread.geom import (
    CanonLine,
    PointSet,
    dist,
    dot,
    k_spread,
    line_through,
    norm,
    spread,
)

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)
F9 = Field(3, 2)


def test_dot_examples():
    assert dot(F5, (1, 2), (3, 4)) == 1
    assert dot(F5, (0, 0), (4, 1)) == 0
    assert dot(F5, (1, 2), (1, 2)) == 0  # isotropic vector
    with pytest.raises(errors.DimensionMismatch):
        dot(F5, (1, 2), (1, 2, 3))


def test_norm_examples():
    assert norm(F5, (1, 2)) == 0
    assert norm(F5, (1, 0)) == 1
    assert norm(F3, (1, 1, 1)) == 0


def test_dist_examples():
    assert dist(F5, (3, 4), (3, 4)) == 0
    assert dist(F5, (0, 0), (1, 0)) == 1
    assert dist(F5, (0, 0), (1, 2)) == 0  # distinct points at distance 0


def test_spread_examples():
    assert spread(F5, (0, 0), (1, 0), (0, 1)) == 1
    assert spread(F5, (0, 0), (1, 1), (2, 2)) == 0
    assert spread(F5, (0, 0), (1, 2), (0, 1)) is None
    assert spread(F5, (0, 0), (0, 0), (0, 1)) is None  # b == apex


def test_spread_matches_brute_force_formula():
    # Independent check against the defining formula evaluated naively.
    rng = random.Random(3)
    for fd in (F5, F7, F9):
        for _ in range(300):
            a, b, c = (
                tuple(rng.randrange(fd.q) for _ in range(2)) for _ in range(3)
            )
            u = geom.vsub(fd, b, a)
            v = geom.vsub(fd, c, a)
            nu, nv = norm(fd, u), norm(fd, v)
            if nu == 0 or nv == 0:
                assert spread(fd, a, b, c) is None
            else:
                duv = dot(fd, u, v)
                expect = fd.sub(1, fd.mul(fd.mul(duv, duv), fd.inv(fd.mul(nu, nv))))
                assert spread(fd, a, b, c) == expect


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=6, max_size=6), st.integers(1, 4), st.integers(1, 4))
def test_spread_symmetry_and_scaling(coords, r, s):
    a, b, c = tuple(coords[0:2]), tuple(coords[2:4]), tuple(coords[4:6])
    val = spread(F5, a, b, c)
    assert spread(F5, a, c, b) == val
    b2 = geom.vadd(F5, a, geom.vscale(F5, r, geom.vsub(F5, b, a)))
    c2 = geom.vadd(F5, a, geom.vscale(F5, s, geom.vsub(F5, c, a)))
    assert spread(F5, a, b2, c2) == val


def test_spread_rigid_motion_invariance():
    rng = random.Random(11)
    for fd in (F5, F9):
        for trial in range(40):
            m = geom.random_orthogonal(fd, 3, trial)
            z = tuple(rng.randrange(fd.q) for _ in range(3))
            pts = [tuple(rng.randrange(fd.q) for _ in range(3)) for _ in range(3)]
            moved = [geom.vadd(fd, geom.mat_vec(fd, m, p), z) for p in pts]
            assert spread(fd, *moved) == spread(fd, *pts)


def test_k_spread_examples():
    assert k_spread(F5, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    # x4 - x1 dependent on the first two arms, all norms nonzero
    assert k_spread(F5, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 0
    assert k_spread(F5, [(0, 0, 0), (1, 2, 0), (0, 1, 0), (0, 0, 1)]) is None


def test_k_spread_gram_makes_one_dot_per_arm_pair(monkeypatch):
    # the Gram matrix is symmetric: k(k + 1)/2 dot calls, not k^2
    calls = []
    real_dot = geom.dot

    def counting_dot(fd, u, v):
        calls.append((u, v))
        return real_dot(fd, u, v)

    monkeypatch.setattr(geom, "dot", counting_dot)
    for points, k, want in (
        ([(0, 0, 0), (1, 2, 0), (2, 0, 1)], 2, spread(F5, (0, 0, 0), (1, 2, 0), (2, 0, 1))),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3, 1),
        ([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], 3, 0),
    ):
        calls.clear()
        assert k_spread(F5, points) == want
        assert len(calls) == k * (k + 1) // 2


def test_k_spread_arity_checks():
    with pytest.raises(errors.BadArity):
        k_spread(F5, [(0, 0), (1, 0)])  # k = 1
    with pytest.raises(errors.BadArity):
        k_spread(F5, [(0, 0), (1, 0), (0, 1), (1, 1)])  # k = 3 > d = 2


def test_k2_equals_spread_exhaustively_on_f3_plane():
    pts = list(itertools.product(range(3), repeat=2))
    for a, b, c in itertools.permutations(pts, 3):
        assert k_spread(F3, [a, b, c]) == spread(F3, a, b, c)
    # seeded triples in d = 3, with repeated points and isotropic arms
    for fd in (F5, F9):
        rng = random.Random(fd.q)
        iso = geom.sphere_points(fd, 3, 0).points[1]
        for _ in range(500):
            a, b, c = (tuple(rng.randrange(fd.q) for _ in range(3)) for _ in range(3))
            for triple in ([a, b, c], [a, a, c], [a, geom.vadd(fd, a, iso), c]):
                assert k_spread(fd, triple) == spread(fd, *triple)


def test_det_matches_permutation_expansion():
    # n = 1..4 over a prime and an extension field; zeroed entries put zeros
    # in leading positions, so the elimination has to swap rows.
    rng = random.Random(5)
    for fd in (F7, F9):
        for trial in range(120):
            n = trial % 4 + 1
            m = [[rng.randrange(fd.q) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
            expect = 0
            for perm in itertools.permutations(range(n)):
                seen = [False] * n
                # parity via cycle decomposition
                par = 0
                for i in range(n):
                    if seen[i]:
                        continue
                    j, clen = i, 0
                    while not seen[j]:
                        seen[j] = True
                        j = perm[j]
                        clen += 1
                    par += clen - 1
                term = 1
                for i in range(n):
                    term = fd.mul(term, m[i][perm[i]])
                sign = fd.neg(1) if par % 2 else 1
                expect = fd.add(expect, fd.mul(sign, term))
            assert geom.det(fd, m) == expect, (fd, m)
    # a zero leading entry on a nonsingular matrix: one swap negates
    assert geom.det(F7, [[0, 1], [1, 0]]) == F7.neg(1)
    assert geom.det(F7, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == F7.neg(1)
    assert geom.det(F7, [[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def test_rank():
    assert geom.rank(F5, [(1, 2, 0), (2, 4, 0)]) == 1
    assert geom.rank(F5, [(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2
    assert geom.rank(F5, []) == 0
    assert geom.rank(F5, [(1, 2), (0, 1)]) == 2


def test_rank_matches_naive_rank():
    # k x d matrices, k <= 4 and d <= 5, with zeroed columns and rows that
    # are combinations of earlier rows.
    rng = random.Random(11)
    for fd in (F5, F7, F9):
        for _ in range(150):
            k, d = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[rng.randrange(fd.q) for _ in range(d)] for _ in range(k)]
            for j in range(d):
                if rng.random() < 0.25:
                    for row in rows:
                        row[j] = 0
            for i in range(1, k):
                if rng.random() < 0.3:
                    a, b = rng.randrange(fd.q), rng.randrange(fd.q)
                    rows[i] = [fd.add(fd.mul(a, x), fd.mul(b, y)) for x, y in zip(rows[0], rows[i - 1])]
            rows = [tuple(row) for row in rows]
            assert geom.rank(fd, rows) == naive_rank(fd, rows), (fd, rows)


def test_line_through_examples():
    assert line_through(F5, (0, 0), (2, 4)) == CanonLine((0, 0), (1, 2))
    assert line_through(F5, (1, 1), (1, 3)) == CanonLine((1, 0), (0, 1))
    with pytest.raises(errors.IdenticalPoints):
        line_through(F5, (2, 2), (2, 2))


def test_line_through_symmetry_and_membership():
    rng = random.Random(9)
    for _ in range(100):
        p = tuple(rng.randrange(5) for _ in range(3))
        q = tuple(rng.randrange(5) for _ in range(3))
        if p == q:
            continue
        ln = line_through(F5, p, q)
        assert ln == line_through(F5, q, p)
        pts = geom.line_points(F5, ln)
        assert p in pts and q in pts
        assert len(set(pts)) == 5


def test_line_canonicalization_is_bijective_on_f3_plane():
    # Every affine line arises exactly once from canonical forms.
    lines = {
        line_through(F3, p, q)
        for p, q in itertools.combinations(itertools.product(range(3), repeat=2), 2)
    }
    assert len(lines) == 3 * (3 + 1)  # q^(d-1)(q^d-1)/(q-1) for d = 2
    as_sets = {frozenset(geom.line_points(F3, ln)) for ln in lines}
    assert len(as_sets) == len(lines)


def test_sphere_points_frozen_values():
    s1 = geom.sphere_points(F5, 2, 1)
    assert set(s1.points) == {(1, 0), (4, 0), (0, 1), (0, 4)}
    assert len(s1) == 4
    s0 = geom.sphere_points(F5, 2, 0)
    assert len(s0) == 9  # the two isotropic lines through the origin
    assert (1, 1, 1) in geom.sphere_points(F3, 3, 0)


@pytest.mark.parametrize("block", [None, 7], ids=["one-block", "blocks-of-7"])
@pytest.mark.parametrize("fd, d", [(F3, 3), (F5, 3), (F7, 3), (F9, 2), (Field(5, 2), 2)], ids=str)
def test_sphere_points_match_naive_oracle(monkeypatch, block, fd, d):
    # every t, through one block and through many blocks of 7 indices
    if block:
        monkeypatch.setattr(geom, "_SPHERE_BLOCK", block)
    for t in fd.elements():
        assert list(geom.sphere_points(fd, d, t).points) == naive_sphere_points(fd, d, t)
    reps = census._isotropic_reps(fd, d)
    lead_one = [v for v in naive_sphere_points(fd, d, 0) if next((x for x in v if x), None) == 1]
    assert reps == lead_one


def test_sphere_budget():
    with pytest.raises(errors.BudgetExceeded):
        geom.sphere_points(F5, 4, 1, budget=100)
    with pytest.raises(errors.BadDimension):
        geom.sphere_points(F5, 0, 0)


def test_isotropic_points_split_across_two_lines_when_root_exists():
    # Nonzero points at distance 0 from the origin: 2(q-1) points on two
    # isotropic lines (q-1 each) when -1 is a square, none otherwise.
    for fd in (F5, Field(13)):
        zero_pts = [p for p in geom.sphere_points(fd, 2, 0) if p != (0, 0)]
        assert len(zero_pts) == 2 * (fd.q - 1)
        lines = {line_through(fd, (0, 0), p) for p in zero_pts}
        assert len(lines) == 2
        for ln in lines:
            on_line = [p for p in zero_pts if line_through(fd, (0, 0), p) == ln]
            assert len(on_line) == fd.q - 1
    for fd in (F3, F7):
        assert [p for p in geom.sphere_points(fd, 2, 0) if p != (0, 0)] == []


def test_pinned_spread_separates_lines_up_to_reflection():
    # With apex p and a fixed first arm a, the spread seen along another
    # non-isotropic line through p is 0 exactly on the line of a, defined
    # everywhere else, and takes each value on at most 2 lines (mirror
    # images about the line of a collide, so injectivity cannot hold).
    for fd in (F5, F7):
        p, a = (0, 0), (1, 0)
        dirs = [(1, m) for m in range(fd.q)] + [(0, 1)]
        non_iso = [u for u in dirs if norm(fd, u) != 0]
        values = {}
        for u in non_iso:
            s = spread(fd, p, a, u)
            assert s is not None
            if u == (1, 0):
                assert s == 0
            else:
                assert s != 0
                values.setdefault(s, []).append(u)
        assert all(len(v) <= 2 for v in values.values())
        # the value multiset covers every non-apex line
        assert sum(len(v) for v in values.values()) == len(non_iso) - 1


def test_random_orthogonal_properties():
    for fd in (F5, F9):
        for d in (1, 2, 3):
            for seed in range(8):
                m = geom.random_orthogonal(fd, d, seed)
                assert geom.is_orthogonal(fd, m)
                if d == 1:
                    assert m[0][0] in (1, fd.neg(1))
    assert geom.random_orthogonal(F5, 2, 42) == geom.random_orthogonal(F5, 2, 42)


def test_random_orthogonal_preserves_norm():
    rng = random.Random(0)
    m = geom.random_orthogonal(F7, 3, 5)
    for _ in range(50):
        v = tuple(rng.randrange(7) for _ in range(3))
        assert norm(F7, geom.mat_vec(F7, m, v)) == norm(F7, v)


def test_pointset_validation():
    with pytest.raises(errors.DuplicatePoint):
        PointSet(F5, 2, [(0, 0), (0, 0)])
    with pytest.raises(errors.DimensionMismatch):
        PointSet(F5, 2, [(0, 0, 0)])
    with pytest.raises(errors.FormatError):
        PointSet(F5, 2, [(0, 7)])


def test_pointset_file_roundtrip(tmp_path):
    ps = geom.sphere_points(F9, 2, 1)
    path = tmp_path / "pts.txt"
    ps.save(path)
    again = PointSet.load(path)
    assert again == ps
    assert again.field == F9
    text = path.read_text()
    assert text.splitlines()[0] == "q=9 d=2"


def test_pointset_load_errors():
    with pytest.raises(errors.FormatError):
        PointSet.loads("")
    with pytest.raises(errors.FormatError):
        PointSet.loads("q=x d=2\n0,0")
    with pytest.raises(errors.FormatError):
        PointSet.loads("q=5 d=2\n0,zebra")
    with pytest.raises(errors.DuplicatePoint):
        PointSet.loads("q=5 d=2\n0,0\n0,0")


def test_format_spread():
    assert geom.format_spread(None) == "Undefined"
    assert geom.format_spread(3) == "Value(3)"

import itertools
import random

import numpy as np
import pytest
from conftest import (
    CanonLine,
    dist,
    dot,
    is_orthogonal,
    line_points,
    line_through,
    mat_vec,
    naive_det,
    naive_k_spread,
    naive_pointset_error,
    naive_random_orthogonal,
    naive_rank,
    naive_sphere_points,
    norm,
    reference,
    sphere_size,
    vadd,
    vscale,
    vsub,
)
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fqspread import census, errors, expt, geom
from fqspread.ff import Field, parse_field
from fqspread.geom import PointSet, k_spread, spread

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)
F9 = Field(3, 2)


def test_dot_examples():
    u = F5.log[np.array([(1, 2), (0, 0), (1, 2)])]
    v = F5.log[np.array([(3, 4), (4, 1), (1, 2)])]
    assert F5.exp[F5.log_dot(u, v)].tolist() == [1, 0, 0]  # (1, 2) is isotropic


def test_norm_examples():
    u = F5.log[np.array([(1, 2), (1, 0)])]
    assert F5.exp[F5.log_dot(u, u)].tolist() == [0, 1]
    u = F3.log[np.array([1, 1, 1])]
    assert F3.exp[F3.log_dot(u, u)] == 0


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([F3, F5, F9, Field(5, 2)]), st.integers(1, 6), st.data())
def test_dot_and_norm_match_scalar_oracle(fd, d, data):
    u, v = (tuple(data.draw(st.lists(st.integers(0, fd.q - 1), min_size=d, max_size=d))) for _ in range(2))
    x, y = fd.log[np.array([u, v])]
    assert fd.exp[fd.log_dot(x, y)] == dot(fd, u, v)
    assert fd.exp[fd.log_dot(x, x)] == norm(fd, u)


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
        F = reference(fd)
        for _ in range(300):
            a, b, c = (
                tuple(rng.randrange(fd.q) for _ in range(2)) for _ in range(3)
            )
            u = vsub(fd, b, a)
            v = vsub(fd, c, a)
            nu, nv = norm(fd, u), norm(fd, v)
            if nu == 0 or nv == 0:
                assert spread(fd, a, b, c) is None
            else:
                duv = dot(fd, u, v)
                expect = F.sub(1, F.mul(F.mul(duv, duv), F.inv(F.mul(nu, nv))))
                assert spread(fd, a, b, c) == expect


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=6, max_size=6), st.integers(1, 4), st.integers(1, 4))
def test_spread_symmetry_and_scaling(coords, r, s):
    a, b, c = tuple(coords[0:2]), tuple(coords[2:4]), tuple(coords[4:6])
    val = spread(F5, a, b, c)
    assert spread(F5, a, c, b) == val
    b2 = vadd(F5, a, vscale(F5, r, vsub(F5, b, a)))
    c2 = vadd(F5, a, vscale(F5, s, vsub(F5, c, a)))
    assert spread(F5, a, b2, c2) == val


def test_spread_rigid_motion_invariance():
    rng = random.Random(11)
    for fd in (F5, F9):
        for m in geom.random_orthogonals(fd, 3, range(40)):
            z = tuple(rng.randrange(fd.q) for _ in range(3))
            pts = [tuple(rng.randrange(fd.q) for _ in range(3)) for _ in range(3)]
            moved = [vadd(fd, mat_vec(fd, m, p), z) for p in pts]
            assert spread(fd, *moved) == spread(fd, *pts)


def test_k_spread_examples():
    assert k_spread(F5, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 1
    # x4 - x1 dependent on the first two arms, all norms nonzero
    assert k_spread(F5, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 0
    assert k_spread(F5, [(0, 0, 0), (1, 2, 0), (0, 1, 0), (0, 0, 1)]) is None


def test_k_spread_arity_checks():
    with pytest.raises(errors.BadArity):
        k_spread(F5, [(0, 0), (1, 0)])  # k = 1
    with pytest.raises(errors.BadArity):
        k_spread(F5, [(0, 0), (1, 0), (0, 1), (1, 1)])  # k = 3 > d = 2
    with pytest.raises(errors.DimensionMismatch):
        k_spread(F5, [(0, 0, 0), (1, 0, 0), (0, 1)])
    with pytest.raises(errors.DimensionMismatch):
        spread(F5, (0, 0), (1, 0), (0, 1, 0))


@pytest.mark.parametrize("fd", [F3, F5, F9, Field(5, 2)], ids=lambda fd: fd.label())
def test_arm_k_spreads_match_naive_k_spread(fd):
    # k = 2..4 and d = k..5, one batch per (k, d), with repeated points,
    # isotropic arms and dependent arms mixed in; the one-case k_spread too
    rng = random.Random(fd.q)
    for k in (2, 3, 4):
        for d in range(k, 6):
            iso = [v + (0,) * (d - 3) for v in geom.sphere_points(fd, min(d, 3), 0).points[1:2]]
            cases = []
            for n in range(120):
                pts = [tuple(rng.randrange(fd.q) for _ in range(d)) for _ in range(k + 1)]
                if n % 4 == 1:
                    pts[2] = pts[1]
                elif n % 4 == 2 and iso:
                    pts[1] = vadd(fd, pts[0], iso[0])
                elif n % 4 == 3:
                    pts[k] = vadd(fd, pts[1], vsub(fd, pts[2], pts[0]))
                cases.append(pts)
            x = fd.log[np.array(cases)]
            got = geom.arm_k_spreads(fd, fd.log_add(x[:, 1:], fd.log_neg(x[:, :1])))
            want = [naive_k_spread(fd, pts) for pts in cases]
            assert got.tolist() == [-1 if w is None else w for w in want], (k, d)
            assert [k_spread(fd, pts) for pts in cases[:12]] == want[:12]


def test_arm_k_spreads_budget_checked_before_gram(monkeypatch):
    # N k^2 d = 2 * 9 * 4 = 72 products
    arms = np.full((2, 3, 4), F5.log[1])
    assert geom.arm_k_spreads(F5, arms, 72).tolist() == [0, 0]
    monkeypatch.setattr(Field, "log_dot", lambda *a: pytest.fail("Gram matrix built"))
    with pytest.raises(errors.BudgetExceeded, match="N k\\^2 d = 72"):
        geom.arm_k_spreads(F5, arms, 71)
    with pytest.raises(errors.BudgetExceeded):
        k_spread(F5, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 26)


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
            for triple in ([a, b, c], [a, a, c], [a, vadd(fd, a, iso), c]):
                assert k_spread(fd, triple) == spread(fd, *triple)


def permutation_det(fd, m):
    """det(m) as the signed sum over permutations of products of entries."""
    F = reference(fd)
    n = len(m)
    total = 0
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
            term = F.mul(term, m[i][perm[i]])
        total = F.add(total, F.neg(term) if par % 2 else term)
    return total


def batched_det(fd, mats):
    """The determinants of equal-size square matrices from one eliminate
    call: the signed pivot product at full rank, else 0."""
    rank, prod = geom.eliminate(fd, fd.log[np.array(mats)])
    return [int(fd.exp[x]) if r == len(mats[0]) else 0 for r, x in zip(rank, prod)]


def test_det_matches_permutation_expansion():
    # n = 1..4 over a prime and an extension field, one eliminate call per
    # size; zeroed entries put zeros in leading positions, so the
    # elimination has to take pivots out of row order.
    rng = random.Random(5)
    for fd in (F7, F9):
        by_size = {}
        for trial in range(120):
            n = trial % 4 + 1
            m = [[rng.randrange(fd.q) if rng.random() < 0.6 else 0 for _ in range(n)] for _ in range(n)]
            by_size.setdefault(n, []).append(m)
        for mats in by_size.values():
            expect = [permutation_det(fd, m) for m in mats]
            assert batched_det(fd, mats) == expect, fd
            assert [naive_det(fd, m) for m in mats] == expect, fd
    # zero leading entries on nonsingular matrices: an odd order negates
    assert batched_det(F7, [[[0, 1], [1, 0]]]) == [F7.neg(1)]
    assert batched_det(F7, [[[0, 0, 1], [0, 1, 0], [1, 0, 0]], [[0, 1, 0], [0, 0, 1], [1, 0, 0]]]) == [
        F7.neg(1),
        1,
    ]


@pytest.mark.parametrize("fd", [F5, F9], ids=lambda fd: fd.label())
@pytest.mark.parametrize("r, c", [(1, 1), (2, 2), (3, 3), (4, 4), (2, 4), (3, 5), (4, 2), (3, 1)], ids=str)
def test_eliminate_mixed_batches(fd, r, c):
    # One call per shape mixes cases that have a pivot in a column with
    # cases that have none there, rank-deficient cases and zero leading
    # entries that take pivots out of row order; every case is checked on
    # its own against naive_rank and, when square, the permutation expansion.
    rng = random.Random(fd.q * 100 + r * 10 + c)
    mats = []
    for n in range(48):
        m = [[rng.randrange(fd.q) for _ in range(c)] for _ in range(r)]
        if n % 4 == 1:  # no pivot in some column
            col = rng.randrange(c)
            for row in m:
                row[col] = 0
        elif n % 4 == 2 and r > 1:  # a multiple of the first row
            m[rng.randrange(1, r)] = list(vscale(fd, rng.randrange(fd.q), m[0]))
        elif n % 4 == 3:  # zero leading entries above the last row
            for row in m[:-1]:
                row[0] = 0
        mats.append(m)
    mats.append([[0] * c for _ in range(r)])
    mats.append([[1 if i + j == r - 1 else 0 for j in range(c)] for i in range(r)])
    rank, prod = geom.eliminate(fd, fd.log[np.array(mats)])
    assert rank.tolist() == [naive_rank(fd, m) for m in mats]
    assert len(set(rank.tolist())) > 1
    if r == c:
        got = [int(fd.exp[x]) if k == r else 0 for k, x in zip(rank, prod)]
        assert got == [permutation_det(fd, m) for m in mats]


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
        F = reference(fd)
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
                    rows[i] = [F.add(F.mul(a, x), F.mul(b, y)) for x, y in zip(rows[0], rows[i - 1])]
            rows = [tuple(row) for row in rows]
            assert geom.rank(fd, rows) == naive_rank(fd, rows), (fd, rows)


def test_line_through_examples():
    assert line_through(F5, (0, 0), (2, 4)) == CanonLine((0, 0), (1, 2))
    assert line_through(F5, (1, 1), (1, 3)) == CanonLine((1, 0), (0, 1))
    with pytest.raises(ValueError):
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
        pts = line_points(F5, ln)
        assert p in pts and q in pts
        assert len(set(pts)) == 5


def test_line_canonicalization_is_bijective_on_f3_plane():
    # Every affine line arises exactly once from canonical forms.
    lines = {
        line_through(F3, p, q)
        for p, q in itertools.combinations(itertools.product(range(3), repeat=2), 2)
    }
    assert len(lines) == 3 * (3 + 1)  # q^(d-1)(q^d-1)/(q-1) for d = 2
    as_sets = {frozenset(line_points(F3, ln)) for ln in lines}
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
        monkeypatch.setattr(geom, "_BLOCK", block)
    for t in fd.elements():
        assert list(geom.sphere_points(fd, d, t).points) == naive_sphere_points(fd, d, t)
    reps = census._isotropic_reps(fd, d)
    lead_one = [v for v in naive_sphere_points(fd, d, 0) if next((x for x in v if x), None) == 1]
    assert reps == lead_one


@pytest.mark.parametrize(
    "fd, top",
    [(F3, 6), (F5, 6), (F7, 5), (F9, 6), (Field(5, 2), 3), (Field(3, 3), 3)],
    ids=lambda x: x.label() if isinstance(x, Field) else str(x),
)
def test_sphere_sizes_match_closed_form(fd, top):
    # |S_t| for every t and d = 1..top, and the isotropic projective classes
    for d in range(1, top + 1):
        got = [sum(len(b) for b in geom.sphere_blocks(fd, d, t)) for t in fd.elements()]
        assert got == [sphere_size(fd, d, t) for t in fd.elements()], d
        assert got == [geom.sphere_size(fd, d, t) for t in fd.elements()], d
        assert len(census._isotropic_reps(fd, d)) == (sphere_size(fd, d, 0) - 1) // (fd.q - 1)


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
            for m in geom.random_orthogonals(fd, d, range(8)):
                assert is_orthogonal(fd, m)
                if d == 1:
                    assert m[0][0] in (1, fd.neg(1))
    assert geom.random_orthogonals(F5, 2, [42]) == geom.random_orthogonals(F5, 2, [42])


@pytest.mark.parametrize("field", ["5^1", "7^1", "3^2", "13^1"])
def test_random_orthogonals_match_scalar_oracle(field):
    # every (field, d, seed) of the battery's pools at seeds 0 and 1, and d = 1
    fd = parse_field(field)
    for seed, d in itertools.product((0, 1), expt.PROPERTY_DIMS + (1,)):
        seeds = [expt.trial_seed(seed, 1000 * d + i) for i in range(expt.MATRIX_POOL)]
        assert geom.random_orthogonals(fd, d, seeds) == [naive_random_orthogonal(fd, d, s) for s in seeds]
    assert geom.random_orthogonals(fd, 2, []) == []


@pytest.mark.parametrize("d", [0, -1])
def test_random_orthogonal_rejects_dimension_below_one(d):
    # the empty vector's norm is 0, so a redraw loop would never end
    with pytest.raises(errors.BadDimension):
        geom.random_orthogonals(F5, d, [0, 1])


def test_random_orthogonal_preserves_norm():
    rng = random.Random(0)
    (m,) = geom.random_orthogonals(F7, 3, [5])
    for _ in range(50):
        v = tuple(rng.randrange(7) for _ in range(3))
        assert norm(F7, mat_vec(F7, m, v)) == norm(F7, v)


def test_pointset_validation():
    with pytest.raises(errors.DuplicatePoint):
        PointSet(F5, 2, [(0, 0), (0, 0)])
    with pytest.raises(errors.DimensionMismatch):
        PointSet(F5, 2, [(0, 0, 0)])
    with pytest.raises(errors.FormatError):
        PointSet(F5, 2, [(0, 7)])
    # out of range before any cast: 2^32 + 1 would wrap to 1 in int32
    for x in (2**32 + 1, 10**30, -1):
        with pytest.raises(errors.FormatError) as exc:
            PointSet(F5, 2, [(1, 1), (x, 0)])
        assert str(exc.value) == f"coordinate out of range in ({x}, 0)"
        if x < 2**63:
            with pytest.raises(errors.FormatError):
                PointSet(F5, 2, np.array([(1, 1), (x, 0)], dtype=np.int64))
    # the empty set, a line, and numpy inputs, among them an empty (0, d) one
    for empty in ([], np.zeros((0, 2), dtype=np.int64)):
        ps = PointSet(F5, 2, empty)
        assert (len(ps), ps.points, list(ps), ps.as_array().shape) == (0, (), [], (0, 2))
    assert PointSet(F5, 1, [(3,), (0,)]).points == ((3,), (0,))
    ps = PointSet(F5, 2, np.array([(4, 1), (0, 3)], dtype=np.int64))
    assert ps == PointSet(F5, 2, [(4, 1), (0, 3)]) and ps.points == ((4, 1), (0, 3))
    assert ps.as_array().dtype == np.int32
    with pytest.raises(errors.DuplicatePoint):
        PointSet(F5, 2, np.array([(4, 1), (0, 3), (4, 1)], dtype=np.int64))
    # 5^40 overflows int64: such rows are told apart by the ranks of their codes
    far = [(4,) * 40, (4,) * 39 + (3,)]
    assert PointSet(F5, 40, far).points == tuple(far)
    with pytest.raises(errors.DuplicatePoint):
        PointSet(F5, 40, far + far[:1])


@seed(32)
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pointset_names_the_first_bad_point(data):
    # good points with injected faults: another dimension, a coordinate out
    # of range (some of them wrapping into range in int32), a repeat
    q, dim = data.draw(st.sampled_from([(3, 1), (5, 2), (9, 3)]))
    coord = st.integers(0, q - 1)
    bad = st.sampled_from([-1, q, 2**31, 2**32 + 1, -(2**32) + 2, 10**30])
    points = []
    for _ in range(data.draw(st.integers(0, 8))):
        kind = data.draw(st.sampled_from(["good", "good", "good", "dim", "range", "repeat"]))
        if kind == "repeat" and points:
            points.append(data.draw(st.sampled_from(points)))
            continue
        p = data.draw(st.lists(coord, min_size=dim, max_size=dim))
        if kind == "dim":
            p = p + [0] if data.draw(st.booleans()) else p[:-1]
        elif kind == "range":
            p[data.draw(st.integers(0, dim - 1))] = data.draw(bad)
        points.append(tuple(p))
    fd = parse_field({3: "3", 5: "5", 9: "3^2"}[q])
    want = naive_pointset_error(q, dim, points)
    inputs = [points]
    if all(len(p) == dim and all(abs(x) < 2**63 for x in p) for p in points):
        inputs.append(np.array(points, dtype=np.int64).reshape(len(points), dim))
    for given_points in inputs:
        if want is None:
            assert PointSet(fd, dim, given_points).points == tuple(points)
            continue
        with pytest.raises(want[0]) as exc:
            PointSet(fd, dim, given_points)
        assert (type(exc.value), str(exc.value)) == want


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
        PointSet.loads("q=5 d=2 q=7\n0,0")
    assert PointSet.loads("d=2  q=5\n0,0\n1,2") == PointSet(F5, 2, [(0, 0), (1, 2)])
    with pytest.raises(errors.FormatError):
        PointSet.loads("q=5 d=2\n0,zebra")
    with pytest.raises(errors.DuplicatePoint):
        PointSet.loads("q=5 d=2\n0,0\n0,0")


def test_format_spread():
    assert geom.format_spread(None) == "Undefined"
    assert geom.format_spread(3) == "Value(3)"

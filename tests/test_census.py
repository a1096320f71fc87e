import collections
import functools
import itertools
import random
import threading
import tracemalloc
import types

import numpy as np
import pytest
from conftest import (
    dist,
    dot,
    line_through,
    mat_vec,
    naive_distances,
    naive_plane_spread_values,
    naive_rank,
    naive_spanned_lines,
    naive_spread,
    naive_spread_census,
    naive_spread_counts,
    norm,
    reference,
    sphere_size,
    total_affine_lines,
    vadd,
)
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from fqspread import census, construct, errors, expt, geom
from fqspread.census import (
    distinct_distances,
    distinct_spreads,
    search_iso_triple,
    spanned_lines,
    sphere_equiv_check,
    spread_occurrences,
)
from fqspread.ff import Field, field_for_order
from fqspread.geom import PointSet

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)
F9 = Field(3, 2)
F13 = Field(13)
F25 = Field(5, 2)
F27 = Field(3, 3)


def random_pointset(fd, d, n, seed):
    rng = random.Random(seed)
    pool = list(itertools.product(fd.elements(), repeat=d))
    rng.shuffle(pool)
    return PointSet(fd, d, pool[:n])


# -- distinct spreads ---------------------------------------------------------


def test_distinct_spreads_matches_naive_oracle():
    cases = [
        geom.all_points(F3, 2),
        random_pointset(F5, 2, 12, 1),
        random_pointset(F9, 2, 10, 2),  # an extension field
        construct.con1_set(F5, 2),
        random_pointset(F5, 3, 9, 3),
    ]
    for ps in cases:
        cen = distinct_spreads(ps)
        values, undefined, scanned = naive_spread_census(ps)
        assert list(cen.defined_values) == values
        assert cen.undefined_triples == undefined
        assert cen.triples_scanned == scanned
        assert cen.defined_count == len(values) <= ps.field.q


@pytest.mark.parametrize(
    "fd, d", [(F5, 3), (F7, 3), (F9, 3), (F5, 4), (F7, 2), (F13, 2)], ids=lambda x: str(x)
)
def test_whole_space_census_matches_closed_form(fd, d):
    # All of F_q^d: an ordered triple is undefined when one of its two arms
    # is isotropic, and I = |S_0| - 1 points sit at distance 0 from each apex.
    # The defined values are all q for d >= 3, and for d = 2 those of the
    # q + 1 directions: (q+1)/2 for q = 1 mod 4, (q+3)/2 for q = 3 mod 4.
    q, n, iso = fd.q, fd.q**d, sphere_size(fd, d, 0) - 1
    cen = distinct_spreads(geom.all_points(fd, d))
    assert cen.undefined_triples == n * ((n - 1) * (n - 2) - (n - 1 - iso) * (n - 2 - iso))
    if d >= 3:
        assert cen.defined_count == q
    else:
        assert cen.defined_count == (q + 1) // 2 if q % 4 == 1 else (q + 3) // 2


def occurrence_gammas(q):
    """The gammas an occurrence check asks for: all of them for q <= 27,
    else 0, 1 and three seeded others."""
    return range(q) if q <= 27 else (0, 1, *sorted(random.Random(q).sample(range(2, q), 3)))


def assert_occurrences_match(ps):
    """spread_occurrences of ps at each of occurrence_gammas equals that
    slot of the exact histogram and of naive_spread_counts; returns the
    occurrences."""
    gammas = occurrence_gammas(ps.field.q)
    hist = next(census._sweep([ps], census.DEFAULT_TRIPLE_BUDGET))
    counts = naive_spread_counts(ps)
    occurrences = [spread_occurrences(ps, gamma) for gamma in gammas]
    assert occurrences == [hist[gamma] for gamma in gammas] == [counts[gamma] for gamma in gammas]
    return occurrences


def assert_censuses_match_oracles(ps):
    cen = distinct_spreads(ps)
    values, undefined, scanned = naive_spread_census(ps)
    assert list(cen.defined_values) == values
    assert cen.undefined_triples == undefined
    assert cen.triples_scanned == scanned
    occurrences = assert_occurrences_match(ps)
    if ps.field.q <= 27:  # every triple has one spread value or is undefined
        assert sum(occurrences) + cen.undefined_triples == cen.triples_scanned
    lines = spanned_lines(ps)
    assert (lines.lines, lines.max_degree) == naive_spanned_lines(ps)


def random_points(fd, d, n, seed):
    """n distinct random points of F_q^d, without enumerating the space."""
    rng = random.Random(seed)
    pts = set()
    while len(pts) < n:
        pts.add(tuple(rng.randrange(fd.q) for _ in range(d)))
    return PointSet(fd, d, sorted(pts))


def plane_points(fd, d, n, seed):
    """n distinct points of a seeded plane through the origin of F_q^d,
    spanned by u and v with u_0 = 1, v_0 = 0 and v zero past coordinate 10.
    The classes of u + t v then agree past coordinate 10, so once codes
    are rank-compressed, only the ranks of their first digits tell them
    apart."""
    rng = random.Random(seed)
    u = [1] + [rng.randrange(fd.q) for _ in range(d - 1)]
    v = [0] + [rng.randrange(1, fd.q) for _ in range(10)] + [0] * (d - 11)
    coeffs = rng.sample(list(itertools.product(fd.elements(), repeat=2)), n)
    F = reference(fd)
    pts = {tuple(F.add(F.mul(x, a), F.mul(y, b)) for a, b in zip(u, v)) for x, y in coeffs}
    assert len(pts) == n  # u and v independent
    return PointSet(fd, d, sorted(pts))


def record_paths(monkeypatch):
    """Spies on the census kernel's four paths; the list returned collects
    (path, first row, end row) per window: "gram", "pairs" (gathered from a
    shared table), "per-apex" or "partners" (one value, from a table)."""
    paths = []
    add_gram, add_pairs, add_partners = census._add_gram, census._add_pairs, census._add_partners

    def rows(window):
        return window[0][0], window[-1][0] + len(window[-1][1])

    def gram(*args):
        lo, k = args[2:4]  # fd, n, lo, k, mult, ids, table, tally
        paths.append(("gram", lo, lo + len(k)))
        add_gram(*args)

    def pairs(fd, n, window, ids, table, hist):
        paths.append(("per-apex" if table is None else "pairs", *rows(window)))
        add_pairs(fd, n, window, ids, table, hist)

    def partners(*args):
        lo, k = args[1:3]  # n, lo, k, mult, ids, table, tally
        paths.append(("partners", lo, lo + len(k)))
        add_partners(*args)

    monkeypatch.setattr(census, "_add_gram", gram)
    monkeypatch.setattr(census, "_add_pairs", pairs)
    monkeypatch.setattr(census, "_add_partners", partners)
    return paths


def tables_count_partners(monkeypatch, ps, gamma):
    """Asserts that under spread_occurrences(ps, gamma) every window with a
    class table counts its partners, calling neither _add_gram nor
    _add_pairs, and every window without one gathers per apex, as in the
    exact census; returns the set of paths taken."""
    paths = record_paths(monkeypatch)
    next(census._sweep([ps], census.DEFAULT_TRIPLE_BUDGET))
    exact = [("per-apex" if path == "per-apex" else "partners", lo, end) for path, lo, end in paths]
    paths.clear()
    spread_occurrences(ps, gamma)
    assert paths == exact
    return {path for path, _, _ in paths}


@pytest.mark.parametrize(
    "name",
    [
        "prime", "f5-plane", "ext-9", "f9-plane", "ext-3^7", "con1", "con2", "sphere",
        "above-cap", "wide-codes", "one-apex-blocks", "wide-codes-one-apex-blocks",
        "capped-windows",
    ],
)
def test_class_kernel_matches_naive_oracles(name, monkeypatch):
    if name.endswith("one-apex-blocks"):
        # class ids must hold across apex blocks, each rank-compressing
        # its own arm codes
        monkeypatch.setattr(census, "_BLOCK_CELLS", 1)
    if name == "capped-windows":
        # 25 apexes in blocks of 6 (6 * n * d = 450 cells), each block its
        # own window.  Four 6-apex windows have class unions of 31, 30, 31
        # and 31 classes: the 30 share a table of 900 <= 930 cells and
        # gather from it (rows * u^2 = 5,400 > 4/2 * sum k (k + 1) = 4,344
        # cells), the others build per-apex tables; the last, one-apex
        # window shares a table of 20^2 cells and takes the Gram path.
        monkeypatch.setattr(census, "_BLOCK_CELLS", 450)
        monkeypatch.setattr(census, "_WINDOW_CELLS", 300)
        monkeypatch.setattr(census, "_TABLE_CELLS", 930)
        monkeypatch.setattr(census, "_GRAM_RATIO", 4)
        paths = record_paths(monkeypatch)
    make = {
        "prime": lambda: random_pointset(F7, 2, 20, 21),
        "f5-plane": lambda: random_pointset(F5, 2, 10, 4),
        "ext-9": lambda: random_pointset(F9, 2, 18, 22),
        "f9-plane": lambda: random_pointset(F9, 2, 8, 5),
        "ext-3^7": lambda: random_points(Field(3, 7), 3, 9, 26),
        "con1": lambda: construct.con1_set(F5, 2),
        "con2": lambda: construct.con2_set(F5, 3),
        "sphere": lambda: geom.sphere_points(F5, 3, 0),
        "above-cap": lambda: random_points(Field(2053), 2, 9, 23),
        # 5^60 > 2^124: arm codes are re-ranked, twice, before they
        # overflow int64
        "wide-codes": lambda: random_points(F5, 60, 10, 24),
        "one-apex-blocks": lambda: random_pointset(F5, 3, 25, 25),
        # a plane of F_5^60: apexes share their few classes, so one table
        # serves apexes whose blocks rank-compressed their codes apart
        "wide-codes-one-apex-blocks": lambda: plane_points(F5, 60, 9, 28),
        "capped-windows": lambda: random_pointset(F5, 3, 25, 25),
    }
    ps = make[name]()
    assert_censuses_match_oracles(ps)
    taken = tables_count_partners(monkeypatch, ps, 0)
    assert taken == {
        "above-cap": {"per-apex"}, "wide-codes": {"per-apex"}, "ext-3^7": {"per-apex"},
        "capped-windows": {"per-apex", "partners"},
    }.get(name, {"partners"})
    if name == "capped-windows":
        # per window of an exact census: the spread census stops once it
        # has seen all q values
        paths.clear()
        next(census._sweep([ps], census.DEFAULT_TRIPLE_BUDGET))
        assert [path for path, _, _ in paths] == ["per-apex", "pairs", "per-apex", "per-apex", "gram"]
        assert {path for path, _, _ in paths} == {"gram", "pairs", "per-apex"}


# Each path forced on every window: the Gram path on every shared-table
# window, the gather on every window, and per-apex tables everywhere.
FORCED_PATHS = {
    "gram": ("_GRAM_RATIO", 10**9),
    "pairs": ("_GRAM_RATIO", 0),
    "per-apex": ("_TABLE_CELLS", 0),
}

# The two producers of arm classes, each forced through the rule's helper.
PRODUCERS = {"apex": census._apex_classes, "direction": census._direction_classes}


def force_producer(monkeypatch, producer):
    monkeypatch.setattr(census, "_arm_classes", PRODUCERS[producer])


def by_producer(*params):
    """pytest params of params under each producer: apex-major keeps the
    bare id, direction-major adds -by-direction."""
    return [
        pytest.param(producer, *p, id="-".join(map(str, p)) + ("" if producer == "apex" else "-by-direction"))
        for producer in PRODUCERS
        for p in params
    ]


# Every window of these shares its class table, so each forced path runs
# on all of them.
PATH_INPUTS = {
    # 59 arms per apex over F_11^3's 133 classes
    "dense-11^3": lambda: [random_points(Field(11), 3, 60, 61)],
    # nearly one class per arm among the 212 directions
    "sparse-211^2": lambda: [random_points(Field(211), 2, 45, 62)],
    "ext-9^3": lambda: [random_points(F9, 3, 30, 63)],
    # windows of about 12 apex rows over sets of 9: sets straddle windows
    "straddling-stack": lambda: [random_pointset(F5, 2, 9, 64 + s) for s in range(5)],
}


@functools.lru_cache(maxsize=None)
def path_input(name):
    """The sets of a PATH_INPUTS entry, each with its naive histogram."""
    sets = PATH_INPUTS[name]()
    hists = []
    for ps in sets:
        counts = naive_spread_counts(ps)
        hists.append([counts[v] for v in range(ps.field.q)] + [counts[None]])
    return sets, hists


@pytest.mark.parametrize("producer, path", by_producer(*[(p,) for p in FORCED_PATHS]))
@pytest.mark.parametrize("name", PATH_INPUTS)
def test_each_kernel_path_matches_naive_oracles(name, producer, path, monkeypatch):
    sets, hists = path_input(name)
    if name == "straddling-stack":
        # apex-major: blocks of 4 apex rows, windows of 3 blocks, stacks of
        # 4 sets; direction-major: blocks of 6 and 3 rows per set, each
        # window one block and the next, so the 3-row block of one set
        # shares a window with the first block of the next
        monkeypatch.setattr(census, "_BLOCK_CELLS", 72)
        monkeypatch.setattr(census, "_WINDOW_CELLS", 100 if producer == "apex" else 50)
    force_producer(monkeypatch, producer)
    monkeypatch.setattr(census, *FORCED_PATHS[path])
    paths = record_paths(monkeypatch)
    fd = sets[0].field
    assert [h.tolist() for h in census._sweep(sets, census.DEFAULT_TRIPLE_BUDGET)] == hists
    assert {p for p, _, _ in paths} == {path}
    n = len(sets[0])
    if name == "straddling-stack":
        assert any(lo % n or end % n for _, lo, end in paths)
    cens = census.spread_censuses(sets)
    for hist, cen in zip(hists, cens):
        assert cen.defined_values == tuple(v for v in range(fd.q) if hist[v])
        assert cen.undefined_triples == hist[-1]
        assert cen.triples_scanned == n * (n - 1) * (n - 2)
    ps, hist, cen = sets[-1], hists[-1], cens[-1]
    assert distinct_spreads(ps) == cen
    gammas = sorted({*occurrence_gammas(fd.q), fd.q - 1, *cen.defined_values[:2], *cen.defined_values[-2:]})
    assert [spread_occurrences(ps, g) for g in gammas] == [hist[g] for g in gammas]
    assert tables_count_partners(monkeypatch, ps, gammas[-1]) == {"per-apex" if path == "per-apex" else "partners"}


@pytest.mark.parametrize("producer, path", by_producer(*[(p,) for p in FORCED_PATHS]))
@pytest.mark.parametrize("fd, d", [(F5, 3), (F3, 4)], ids=str)
def test_each_kernel_path_on_whole_space(fd, d, producer, path, monkeypatch):
    # Every class of F_5^3 and F_3^4 holds q - 1 arms at every apex, so a
    # lost diagonal correction (an arm paired with itself) shows.  The
    # whole space is translation invariant: its histogram is q^d times the
    # origin's, and the undefined count has the closed form of
    # test_whole_space_census_matches_closed_form.
    force_producer(monkeypatch, producer)
    monkeypatch.setattr(census, *FORCED_PATHS[path])
    paths = record_paths(monkeypatch)
    space = geom.all_points(fd, d)
    origin, arms = space.points[0], space.points[1:]
    assert origin == (0,) * d
    F = reference(fd)
    counts = collections.Counter(naive_spread(F, origin, b, c) for b, c in itertools.permutations(arms, 2))
    q, n, iso = fd.q, fd.q**d, sphere_size(fd, d, 0) - 1
    hist = next(census._sweep([space], census.DEFAULT_TRIPLE_BUDGET))
    assert hist.tolist() == [n * counts[v] for v in range(q)] + [n * counts[None]]
    assert hist[-1] == n * ((n - 1) * (n - 2) - (n - 1 - iso) * (n - 2 - iso))
    assert (hist[:-1] > 0).all()  # all q values for d >= 3
    assert {p for p, _, _ in paths} == {path}
    assert [spread_occurrences(space, g) for g in range(q)] == hist[:-1].tolist()
    assert tables_count_partners(monkeypatch, space, 0) == {"per-apex" if path == "per-apex" else "partners"}


def test_census_starts_no_thread(monkeypatch):
    started = []
    start = threading.Thread.start

    def record(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", record)
    ps = random_pointset(F5, 2, 20, 7)
    distinct_spreads(ps)
    spread_occurrences(ps, 1)
    assert started == []


def test_arm_spreads_matches_scalar_spread():
    # all pairs of rows by broadcasting (k, 1, d) x (1, k, d), and
    # elementwise (N, d); isotropic and zero arms included
    for fd, d in ((F5, 2), (F9, 3), (F13, 2)):
        rng = random.Random(fd.q)
        arms = [tuple(rng.randrange(fd.q) for _ in range(d)) for _ in range(30)]
        arms += [(0,) * d, geom.sphere_points(fd, d, 0).points[1]]
        logs = fd.log[np.array(arms)]
        grid = geom.arm_spreads(fd, logs[:, None], logs[None])
        origin = (0,) * d
        for (i, j), got in np.ndenumerate(grid):
            want = naive_spread(fd, origin, arms[i], arms[j])
            assert got == (-1 if want is None else want)
        pairs = geom.arm_spreads(fd, logs, logs[::-1])
        assert pairs.tolist() == [grid[i, len(arms) - 1 - i] for i in range(len(arms))]


def count_spread_cells(monkeypatch):
    """Wraps Field.spread_from_terms, census._class_table,
    census._plane_cycle and census._plane_table; the list returned collects
    the number of spreads each call evaluates, and each table's cells in
    place of the calls that built it: u^2 for a table of u classes, 2N for
    a plane's flat table, none for the plane cycle it reads."""
    cells = []
    spread_from_terms = Field.spread_from_terms

    def counting(fd, dot, tu, tv, out=None):
        out = spread_from_terms(fd, dot, tu, tv, out=out)
        cells.append(out.size)
        return out

    def counting_table(build, size):
        def count(fd, *args):
            mark = len(cells)
            out = build(fd, *args)
            cells[mark:] = [size(out)]
            return out

        return count

    monkeypatch.setattr(Field, "spread_from_terms", counting)
    monkeypatch.setattr(census, "_class_table", counting_table(census._class_table, np.size))
    monkeypatch.setattr(census, "_plane_cycle", counting_table(census._plane_cycle, lambda c: 0))
    monkeypatch.setattr(census, "_plane_table", counting_table(census._plane_table, lambda t: t[2].size))
    return cells


def test_class_tables_never_exceed_per_apex_cells(monkeypatch):
    # F_101^4 has 1,040,604 classes; 60 random points share few, so the
    # class union of two apexes already outgrows their own k^2 cells
    cells = count_spread_cells(monkeypatch)
    ps = random_points(Field(101), 4, 60, 27)
    blocks = census._apex_classes(ps.field, ps.field.log[ps.as_array()][None])
    per_apex = sum(int((k**2).sum()) for _, k, _, _ in blocks)
    cen = distinct_spreads(ps)
    assert 0 < sum(cells) <= per_apex
    # one oracle pass over the 205,320 triples yields the whole census
    counts = naive_spread_counts(ps)
    assert list(cen.defined_values) == sorted(v for v in counts if v is not None)
    assert cen.undefined_triples == counts[None]
    assert cen.triples_scanned == sum(counts.values())
    gammas = (0, 1, *cen.defined_values[-2:])
    assert [spread_occurrences(ps, g) for g in gammas] == [counts[g] for g in gammas]


def test_class_tables_shared_across_apexes(monkeypatch):
    # the whole plane: every apex sees all q + 1 classes, so one table
    # serves all q^2 apexes: 2N = 2 (q + 1) cells in cyclic form
    cells = count_spread_cells(monkeypatch)
    cen = distinct_spreads(geom.all_points(F7, 2))
    assert sum(cells) == 2 * 8
    assert cen.defined_values == (0, 1, 3, 4, 5)  # as in the frozen census below
    assert cen.undefined_triples == 0  # q = 3 mod 4: no isotropic arms


def drop_first_row(producer):
    """The producer's blocks without the classes of the first apex row."""

    def dropping(fd, logs):
        for lo, k, mult, reps in PRODUCERS[producer](fd, logs):
            if lo == 0:
                lo, k, mult, reps = 1, k[1:], mult[k[0] :], reps[k[0] :]
            yield lo, k, mult, reps

    return dropping


def test_spread_histogram_must_cover_every_triple(monkeypatch):
    ps = random_pointset(F5, 2, 8, 9)
    for producer in PRODUCERS:
        monkeypatch.setattr(census, "_arm_classes", drop_first_row(producer))
        with pytest.raises(errors.InternalError):
            distinct_spreads(ps)
        with pytest.raises(errors.InternalError):
            spread_occurrences(ps, 0)
        with pytest.raises(errors.InternalError):
            census.spread_censuses([ps, random_pointset(F5, 2, 8, 10)])


@pytest.mark.parametrize("producer", PRODUCERS)
def test_coverage_guard_input_counts_partners(producer, monkeypatch):
    # the input of test_spread_histogram_must_cover_every_triple builds a
    # plane table under either producer, so its spread_occurrences call
    # there is guarded on the one-value path
    force_producer(monkeypatch, producer)
    assert tables_count_partners(monkeypatch, random_pointset(F5, 2, 8, 9), 0) == {"partners"}


def test_line_census_must_partition_into_lines(monkeypatch):
    # the first point of this set lies on three lines of two points and
    # one of five, so without its row neither count divides into lines
    ps = random_pointset(F5, 2, 8, 9)
    assert spanned_lines(ps) == census.LineCensus(lines=14, max_degree=5, pairs_scanned=28)
    for producer in PRODUCERS:
        monkeypatch.setattr(census, "_arm_classes", drop_first_row(producer))
        with pytest.raises(errors.InternalError):
            spanned_lines(ps)
        with pytest.raises(errors.InternalError):
            census.line_censuses([random_pointset(F5, 2, 8, 10), ps])


# (field, d, n) of each input of the benchmark's census workload, and the
# producer the rule picks: U <= n - 1 goes by direction.
RULE_CASES = {
    "dense-11^1-d3": ((11, 1), 3, 300, "direction"),  # U = 133
    "prime-31^1-d2": ((31, 1), 2, 700, "direction"),  # U = 32
    "sparse-1021^1-d2": ((1021, 1), 2, 200, "apex"),  # U = 1022
    "ext-3^3-d3": ((3, 3), 3, 200, "apex"),  # U = 757
    "ext-5^2-d3": ((5, 2), 3, 250, "apex"),  # U = 651
}


def spy_producers(monkeypatch):
    """Wraps both producers; the list returned collects the name of each
    one called."""
    picked = []
    for name, producer in PRODUCERS.items():

        def spy(fd, logs, name=name, producer=producer):
            picked.append(name)
            return producer(fd, logs)

        monkeypatch.setattr(census, f"_{name}_classes", spy)
    return picked


@pytest.mark.parametrize("name", RULE_CASES)
def test_producer_rule_on_benchmark_inputs(name, monkeypatch):
    (p, r), d, n, want = RULE_CASES[name]
    picked = spy_producers(monkeypatch)
    census.line_censuses([random_points(Field(p, r), d, n, 90)])
    assert picked == [want]


def test_producer_rule_reads_only_directions_and_size(monkeypatch):
    # the rule sees only q (through U) and the stack's shape: a stand-in
    # field with nothing but q, and all-zero coordinates, pick the same
    picked = spy_producers(monkeypatch)
    cases = [(fd_pr, d, n, want) for fd_pr, d, n, want in RULE_CASES.values()]
    cases += [((5, 1), 2, 7, "direction"), ((5, 1), 2, 6, "apex")]  # U = 6
    cases += [((3, 1), 1, 2, "direction"), ((3, 1), 9, 9841, "apex"), ((3, 1), 9, 9842, "direction")]  # U = 9841
    for (p, r), d, n, want in cases:
        census._arm_classes(types.SimpleNamespace(q=p**r), np.zeros((2, n, d), dtype=np.int32))
        assert picked.pop() == want, (p**r, d, n)
    # q near 2^20 and d = 64: U has 385 digits, and no direction is built
    monkeypatch.setattr(census, "_directions", None)
    census._arm_classes(types.SimpleNamespace(q=1048573), np.zeros((1, 3, 64), dtype=np.int32))
    assert picked == ["apex"]


def test_direction_classes_stay_within_block_cells(monkeypatch):
    # 700 random points of F_31^2 (U = 32): blocks of 2048 // 64 = 32 rows;
    # one block of all 700 rows would hold 22,400 cells per array
    monkeypatch.setattr(census, "_BLOCK_CELLS", 2048)
    key_cells = []
    line_keys = census._line_keys

    def recording(fd, pts, cols):
        out = line_keys(fd, pts, cols)
        key_cells.append(out.size)
        return out

    monkeypatch.setattr(census, "_line_keys", recording)
    ps = random_points(Field(31), 2, 700, 91)
    fd = ps.field
    logs = fd.log[ps.as_array()][None]
    rows = 0
    tracemalloc.start()
    for lo, k, mult, reps in census._direction_classes(fd, logs):
        assert lo == rows and reps.size <= 2048 and mult.size <= 1024
        rows += len(k)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert rows == 700
    assert max(key_cells) <= 1024 and len(key_cells) == 2 * 22  # two passes
    # every live temporary together: a few block-sized arrays of int64,
    # where one unblocked array alone takes 179,200 bytes
    assert peak <= 16 * 8 * 2048
    blocked = spanned_lines(ps)
    force_producer(monkeypatch, "apex")
    assert blocked == spanned_lines(ps)


# -- stacked censuses ----------------------------------------------------------


def assert_stack_matches_oracles(sets):
    spreads = census.spread_censuses(sets)
    lines = census.line_censuses(sets)
    assert len(spreads) == len(lines) == len(sets)
    for ps, cen, ln in zip(sets, spreads, lines):
        values, undefined, scanned = naive_spread_census(ps)
        assert list(cen.defined_values) == values
        assert cen.defined_count == len(values)
        assert cen.undefined_triples == undefined
        assert cen.triples_scanned == scanned
        assert (ln.lines, ln.max_degree) == naive_spanned_lines(ps)
        assert ln.pairs_scanned == len(ps) * (len(ps) - 1) // 2
        assert_occurrences_match(ps)


@pytest.mark.parametrize(
    "fd, d, n, stack",
    [
        (F3, 2, 5, 4), (F3, 3, 6, 3), (F3, 4, 5, 3),
        (F5, 2, 6, 5), (F5, 3, 7, 3), (F5, 4, 6, 3),
        (F9, 2, 7, 4), (F9, 3, 6, 3), (F9, 4, 5, 2),
        (F27, 2, 6, 3), (F27, 3, 5, 2), (F27, 4, 4, 2),
        (F5, 2, 3, 6), (F9, 3, 3, 4), (F27, 4, 3, 3),  # n = 3
        (Field(32771), 2, 7, 3),  # q > 2^15: int32 class tables
    ],
    ids=lambda x: str(x),
)
def test_stacked_censuses_match_naive_oracles(fd, d, n, stack):
    sets = [random_points(fd, d, n, 100 * n + s) for s in range(stack)]
    assert_stack_matches_oracles(sets)


def cone_subsets(fd, d):
    """Four seeded 6-point subsets of the isotropic cone of F_q^d."""
    cone = geom.sphere_points(fd, d, 0).points
    rng = random.Random(fd.q + d)
    return [PointSet(fd, d, rng.sample(cone, 6)) for _ in range(4)]


def test_stacked_censuses_with_isotropic_arms():
    # subsets of the isotropic cones of F_5^2, F_5^3 and F_9^3: arms of
    # norm 0 leave triples undefined in some sets of every stack
    for fd, d in ((F5, 2), (F5, 3), (F9, 3)):
        sets = cone_subsets(fd, d)
        assert_stack_matches_oracles(sets)
        assert any(cen.undefined_triples for cen in census.spread_censuses(sets))


def test_stacks_of_one_and_of_identical_sets():
    ps = random_pointset(F7, 2, 11, 31)
    one = distinct_spreads(ps)
    assert census.spread_censuses([ps]) == [one]
    assert census.spread_censuses([ps] * 3) == [one] * 3
    assert census.line_censuses([ps] * 3) == [spanned_lines(ps)] * 3
    # a generator is drawn like a list
    assert census.spread_censuses(ps for _ in range(2)) == [one] * 2


@pytest.mark.parametrize(
    "producer, block, window, table",
    by_producer(
        # direction-major (6 directions, 2 coordinates) takes blocks of
        # block // 12 rows, at least 1, and chunks of block // 84 sets
        (1, 1 << 19, 1 << 21),  # one apex row per block
        (40, 1 << 19, 1 << 21),  # blocks straddle the sets; 3 rows by direction
        (40, 60, 1 << 21),  # windows of one block, stacks of a few sets
        (40, 60, 1),  # every window builds per-apex tables
        (300, 2000, 30),  # chunks of a few rows in per-apex tables; 3 sets by direction
    ),
)
def test_stacked_censuses_across_boundaries(producer, block, window, table, monkeypatch):
    force_producer(monkeypatch, producer)
    monkeypatch.setattr(census, "_BLOCK_CELLS", block)
    monkeypatch.setattr(census, "_WINDOW_CELLS", window)
    monkeypatch.setattr(census, "_TABLE_CELLS", table)
    sets = [random_pointset(F5, 2, 7, 40 + s) for s in range(5)]
    sets += [random_pointset(F5, 2, 7, 40)]  # a repeat, in another stack
    assert_stack_matches_oracles(sets)


# Inputs that each producer must census exactly as the naive oracles do.
PRODUCER_INPUTS = {
    # cyclic plane tables: q = 1 mod 4 with isotropic directions, and
    # q = 3 mod 4
    "f5-plane": lambda: [random_pointset(F5, 2, 9, 77 + s) for s in range(2)],
    "f9-plane": lambda: [random_pointset(F9, 2, 12, 70 + s) for s in range(3)],
    "f7-plane": lambda: [random_pointset(F7, 2, 11, 79 + s) for s in range(2)],
    "f11-plane": lambda: [random_pointset(Field(11), 2, 13, 81 + s) for s in range(2)],
    "f27-plane": lambda: [random_points(F27, 2, 12, 73 + s) for s in range(2)],
    "f27-space": lambda: [random_points(F27, 3, 8, 75)],
    # one direction: every set is one line
    "d1": lambda: [PointSet(F7, 1, [(x,) for x in order]) for order in (range(7), (3, 1, 4, 0, 5, 2, 6))],
    "d1-f9": lambda: [PointSet(F9, 1, [(x,) for x in (8, 1, 4, 0, 5)])],
    # arms of norm 0 leave triples undefined
    "isotropic-5^2": lambda: cone_subsets(F5, 2),
    "isotropic-9^3": lambda: cone_subsets(F9, 3),
}


@pytest.mark.parametrize("producer", PRODUCERS)
@pytest.mark.parametrize("name", PRODUCER_INPUTS)
def test_both_producers_match_naive_oracles(name, producer, monkeypatch):
    force_producer(monkeypatch, producer)
    sets = PRODUCER_INPUTS[name]()
    assert_stack_matches_oracles(sets)
    # a few points of F_27^3 or F_9^3 share too few classes for a table
    tables = "per-apex" if name in ("f27-space", "isotropic-9^3") else "partners"
    for ps in sets:
        assert tables_count_partners(monkeypatch, ps, 0) == {tables}
    if name.startswith("d1"):
        assert census.line_censuses(sets) == [census.LineCensus(1, 1, len(sets[0]) * (len(sets[0]) - 1) // 2)] * len(sets)
    if name.startswith("isotropic"):
        assert any(cen.undefined_triples for cen in census.spread_censuses(sets))


def producer_rows(producer, sets):
    """Per apex row of the stack, {class representative: multiplicity}
    from the producer's blocks (lo, k, mult, reps), each row's k classes
    flat in row order: every row holds at least one class, every class at
    least one arm and the row's classes n - 1 arms, and its
    representatives are canonical (lead log 0) and distinct."""
    fd, n = sets[0].field, len(sets[0])
    logs = fd.log[np.stack([ps.as_array() for ps in sets])]
    rows = []
    for lo, k, mult, reps in PRODUCERS[producer](fd, logs):
        assert lo == len(rows)
        assert len(mult) == len(reps) == k.sum()
        ends = np.cumsum(k)[:-1]
        for m, r in zip(np.split(mult, ends), np.split(reps, ends)):
            assert len(m) >= 1 and m.min() >= 1 and m.sum() == n - 1
            assert all(next(x for x in rep if x != fd.zero_log) == 0 for rep in r.tolist())
            classes = {tuple(rep): c for c, rep in zip(m.tolist(), r.tolist())}
            assert len(classes) == len(m)
            rows.append(classes)
    return rows


@pytest.mark.parametrize("name", PRODUCER_INPUTS)
def test_producers_yield_the_same_classes(name, monkeypatch):
    sets = PRODUCER_INPUTS[name]()
    rows = producer_rows("apex", sets)
    assert len(rows) == len(sets) * len(sets[0])
    assert producer_rows("direction", sets) == rows
    # apex blocks of 5 rows, which start and end inside the sets
    monkeypatch.setattr(census, "_BLOCK_CELLS", 5 * len(sets[0]) * sets[0].dim)
    assert producer_rows("apex", sets) == producer_rows("direction", sets) == rows


@pytest.mark.parametrize("producer", PRODUCERS)
def test_both_producers_on_whole_planes(producer, monkeypatch):
    # q (q + 1) lines, q + 1 through each point, and the frozen value sets
    force_producer(monkeypatch, producer)
    frozen = {F3: (0, 1, 2), F5: (0, 1, 3), F7: (0, 1, 3, 4, 5), F9: (0, 1, 2, 5, 8)}
    for fd, values in frozen.items():
        plane = geom.all_points(fd, 2)
        n = fd.q**2
        assert spanned_lines(plane) == census.LineCensus(fd.q * (fd.q + 1), fd.q + 1, n * (n - 1) // 2)
        assert distinct_spreads(plane).defined_values == values


def test_line_census_max_degree_pinned():
    # the whole plane: q + 1 lines through every point, q (q + 1) lines
    for fd in (F3, F5, F9):
        ln = spanned_lines(geom.all_points(fd, 2))
        assert (ln.lines, ln.max_degree) == (fd.q * (fd.q + 1), fd.q + 1)
    # points on one line: one line, one through each point
    line = PointSet(F7, 3, [(t, 2 * t % 7, 3) for t in range(7)])
    assert census.line_censuses([line, line]) == [census.LineCensus(1, 1, 21)] * 2
    # a line of 4 points and one point off it: 5 lines; the point off
    # the line sees 4 of them
    star = PointSet(F5, 2, [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)])
    assert spanned_lines(star) == census.LineCensus(lines=5, max_degree=4, pairs_scanned=10)


def test_whole_plane_table_has_twice_the_cyclic_order_cells(monkeypatch):
    # all q^2 apexes share the q + 1 directions: one flat table of 2N
    # cells serves them all, N = q + 1 for q = 3 mod 4 and q - 1 for
    # q = 1 mod 4
    for fd in (F3, F5, F9, F13):
        cells = count_spread_cells(monkeypatch)
        distinct_spreads(geom.all_points(fd, 2))
        assert sum(cells) == 2 * (fd.q + 1 if fd.q % 4 == 3 else fd.q - 1)
        monkeypatch.undo()


def canonical_reps(fd, d, seed):
    """Distinct canonical representatives of F_p^d (p prime, d 2 or 3;
    first nonzero coordinate 1), in seeded order, as logs, with isotropic
    ones among them: (1, +-sqrt(-1)) for d = 2 (p = 1 mod 4), and four
    (1, a, b) with 1 + a^2 + b^2 = 0 for d = 3."""
    p, rng = fd.q, random.Random(seed)
    reps = {(1, *(rng.randrange(p) for _ in range(d - 1))) for _ in range(60)}
    reps |= {(0, 1, *(rng.randrange(p) for _ in range(d - 2))) for _ in range(5)}
    iso = set()
    while len(iso) < 2 * (d - 1):
        a = rng.randrange(p) if d == 3 else 0
        try:
            b = fd.sqrt(-(1 + a * a) % p)
        except errors.NotASquare:
            continue
        head = (1, a) if d == 3 else (1,)
        iso |= {(*head, b), (*head, -b % p)}
    reps = sorted(reps | iso)
    rng.shuffle(reps)
    return fd.log[np.array(reps)]


@pytest.mark.parametrize(
    "p, d, dtype", [(13, 2, np.int16), (11, 3, np.int16), (32789, 2, np.int32), (32771, 3, np.int32)]
)
def test_class_table_matches_arm_spreads(p, d, dtype, monkeypatch):
    # the table's int32 log arithmetic against the one-gather batch, in
    # blocks of 7 rows, so that each block's mirror meets the next block
    fd = Field(p)
    reps = canonical_reps(fd, d, p)
    monkeypatch.setattr(census, "_BLOCK_CELLS", 7 * len(reps))
    table = census._class_table(fd, reps)
    want = geom.arm_spreads(fd, reps[:, None], reps[None])
    want[want < 0] = p
    assert table.dtype == dtype
    assert (table == want).all()
    iso = np.flatnonzero(fd.log_dot(reps, reps) == fd.zero_log)
    assert len(iso) >= 2 * (d - 1) and (table[iso] == p).all() and (table[:, iso] == p).all()


def plane_directions(fd, count=None, seed=0):
    """The canonical directions (1, t) and (0, 1) of F_q^2 as logs in a
    seeded order: all q + 1 of them, or count of them drawn with (0, 1)
    and, for q = 1 mod 4, the isotropic (1, +-sqrt(-1))."""
    rng = random.Random(seed)
    if count is None:
        dirs = [(1, t) for t in range(fd.q)]
    else:
        dirs = [(1, t) for t in rng.sample(range(fd.q), count)]
        if fd.q % 4 == 1:
            i = fd.sqrt(fd.neg(1))
            dirs += [(1, i), (1, fd.neg(i))]
    dirs = sorted(set(dirs)) + [(0, 1)]
    rng.shuffle(dirs)
    return fd.log[np.array(dirs)]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27, 49, 1021, 32789, 32771, 1048571])
def test_plane_table_matches_class_table(q):
    # the cyclic flat table read at left + right, against the u x u class
    # table, isotropic rows and columns included; the int32 fields on a
    # sample of the directions, and at 1048571 the F_(q^2) indices x + qy
    # of the cycle's powers pass int32
    fd = field_for_order(q)
    reps = plane_directions(fd, 300 if q > 1 << 15 else None, q)
    left, right, flat = census._plane_table(fd, reps, census._plane_cycle(fd))
    want = census._class_table(fd, reps)
    assert flat.dtype == want.dtype == (np.int16 if q < 1 << 15 else np.int32)
    assert len(flat) == 2 * (q - 1 if q % 4 == 1 else q + 1)
    assert (flat.take(left[:, None] + right[None, :], mode="clip") == want).all()
    isotropic = (want == q).all(axis=1)
    assert isotropic.sum() == (2 if q % 4 == 1 else 0)
    assert (want[:, isotropic] == q).all()


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49])
def test_plane_spread_function_image(q):
    # f on the cyclic group takes (q + 3)/2 values for q = 3 mod 4 and
    # (q + 1)/2 for q = 1 mod 4: the whole plane's defined values
    fd = field_for_order(q)
    image = sorted(set(census._plane_cycle(fd)[0][:-1].tolist()))
    assert len(image) == ((q + 3) // 2 if q % 4 == 3 else (q + 1) // 2)
    assert image == naive_plane_spread_values(fd)
    assert census.spread_value_count(fd, 2) == len(image)


@pytest.mark.parametrize(
    "fd, d", [(fd, d) for fd in (F3, F5, F7, F9) for d in (1, 2, 3)] + [(F3, 4)], ids=str
)
def test_spread_value_count_is_the_whole_space_census(fd, d):
    # the value mode stops at this count, so it is pinned against the
    # exact histogram of all of F_q^d, which no point set can exceed
    space = geom.all_points(fd, d)
    hist = next(census._sweep([space], census.DEFAULT_TRIPLE_BUDGET))
    assert census.spread_value_count(fd, d) == np.count_nonzero(hist[:-1]) == distinct_spreads(space).defined_count


def count_gathered(monkeypatch):
    """Spies on np.bincount, which counts the gathered arm pairs; the list
    returned collects the pairs of each call."""
    gathered = []
    bincount = np.bincount

    def counting(x, *args, **kwargs):
        gathered.append(len(x))
        return bincount(x, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", counting)
    return gathered


def assert_census_is_the_exact_histogram(sets):
    hists = list(census._sweep(sets, census.DEFAULT_TRIPLE_BUDGET))
    for cen, hist in zip(census.spread_censuses(sets), hists):
        assert cen.defined_values == tuple(np.flatnonzero(hist[:-1]).tolist())
        assert cen.undefined_triples == hist[-1]
        assert cen.triples_scanned == hist.sum()


@pytest.mark.parametrize("fd, d", [(Field(1021), 2), (F27, 3)], ids=str)
def test_spread_census_stops_once_every_value_is_seen(fd, d, monkeypatch):
    # 200 random points see all (q + 1)/2 or q values within the first
    # buffer of arm pairs, so the census gathers a sliver of the pairs an
    # exact histogram does; the undefined slot comes in closed form
    ps = random_points(fd, d, 200, 29)
    gathered = count_gathered(monkeypatch)
    next(census._sweep([ps], census.DEFAULT_TRIPLE_BUDGET))
    assert sum(gathered) == 200 * 199 * 198 // 2
    gathered.clear()
    cen = distinct_spreads(ps)
    assert cen.defined_count == census.spread_value_count(fd, d)
    assert 0 < sum(gathered) < 200 * 199 * 198 // 20
    monkeypatch.undo()
    assert_census_is_the_exact_histogram([ps])


@pytest.mark.parametrize("make", [lambda: construct.con1_set(F5, 4), lambda: construct.con2_set(F13, 3)], ids=["con1", "con2"])
def test_spread_census_of_a_set_that_never_finishes_gathers_every_pair(make, monkeypatch):
    # con1 determines no defined value and con2 one: every window gathers
    # all its arm pairs, forced onto the gather path
    ps = make()
    n = len(ps)
    monkeypatch.setattr(census, *FORCED_PATHS["pairs"])
    paths = record_paths(monkeypatch)
    gathered = count_gathered(monkeypatch)
    cen = distinct_spreads(ps)
    assert cen.defined_count < census.spread_value_count(ps.field, ps.dim)
    assert {p for p, _, _ in paths} == {"pairs"}
    assert sum(gathered) == n * (n - 1) * (n - 2) // 2
    assert_census_is_the_exact_histogram([ps])
    # at most one defined value, on classes of many arms: the one-value
    # count at each gamma, 0 among them, is the exact slot
    hist = next(census._sweep([ps], census.DEFAULT_TRIPLE_BUDGET))
    assert [spread_occurrences(ps, g) for g in range(ps.field.q)] == hist[:-1].tolist()
    assert tables_count_partners(monkeypatch, ps, 0) == {"partners"}


@pytest.mark.parametrize("path", FORCED_PATHS)
def test_spread_census_checks_the_gather_of_a_set_that_never_finishes(path, monkeypatch):
    # con1 determines no defined value, so every triple is gathered: a
    # path that loses one of them must fail the coverage guard although
    # every row's arms are there
    ps = construct.con1_set(F5, 4)
    monkeypatch.setattr(census, *FORCED_PATHS[path])
    kernel = "_add_gram" if path == "gram" else "_add_pairs"
    add = getattr(census, kernel)

    def losing_one(*args):
        add(*args)
        tally = args[-1]  # the last argument of either path
        tally.hist[np.flatnonzero(tally.hist)[0]] -= 1

    monkeypatch.setattr(census, kernel, losing_one)
    with pytest.raises(errors.InternalError):
        distinct_spreads(ps)


def test_straddling_stack_finishes_one_set_and_gathers_its_neighbour(monkeypatch):
    # con1 of F_13^2, which never finishes, then 13 random points, which
    # see all 7 values at their first few apexes, in one stack: 4-row
    # blocks, and windows of 80 representative coordinates, rows 0-19 and
    # 20-25, so the first straddles the sets.  The random set is finished
    # by its rows gathered there, which the second window's check reads
    # from hist, so the second window never runs
    sets = [construct.con1_set(F13, 2), random_pointset(F13, 2, 13, 30)]
    force_producer(monkeypatch, "apex")
    monkeypatch.setattr(census, "_BLOCK_CELLS", 4 * 13 * 2)
    monkeypatch.setattr(census, "_WINDOW_CELLS", 80)
    paths = record_paths(monkeypatch)
    cens = census.spread_censuses(sets)
    assert [(lo, end) for _, lo, end in paths] == [(0, 20)]
    assert [cen.defined_count for cen in cens] == [0, 7]
    for ps, cen in zip(sets, cens):
        values, undefined, scanned = naive_spread_census(ps)
        assert (list(cen.defined_values), cen.undefined_triples, cen.triples_scanned) == (values, undefined, scanned)
    assert_census_is_the_exact_histogram(sets)


def points_on_lines(fd, d, lines, n, seed):
    """n distinct points of F_q^d on `lines` seeded lines, drawn in turn
    from each line, so an apex on a line sees classes of several arms."""
    rng = random.Random(seed)
    F = reference(fd)
    base = [[rng.randrange(fd.q) for _ in range(d)] for _ in range(lines)]
    step = [[rng.randrange(fd.q) for _ in range(d - 1)] + [1] for _ in range(lines)]
    pts: dict = {}
    for i in range(100 * n):
        a, v, t = base[i % lines], step[i % lines], rng.randrange(fd.q)
        pts.setdefault(tuple(F.add(x, F.mul(t, y)) for x, y in zip(a, v)), None)
        if len(pts) == n:
            return PointSet(fd, d, list(pts))
    raise AssertionError("the lines hold fewer than n points")


@pytest.mark.parametrize(
    "fd, d, path, lines, n",
    [pytest.param(fd, d, path, 3, 12, id=f"{fd}-{d}-{path}") for path in ("pairs", "per-apex") for fd, d in ((F7, 2), (F13, 2), (F5, 3))]
    + [pytest.param(fd, d, "per-apex", 2, 14, id=f"{fd}-{d}-per-apex-2-lines") for fd, d in ((Field(11), 2), (F13, 2), (F9, 3), (Field(101), 3))],
)
def test_arm_gather_on_classes_of_several_arms(fd, d, path, lines, n, monkeypatch):
    # n points on a few lines: an apex on a line holds several arms in that
    # line's class, so arm pairs meet on the class table's diagonal as well
    # as across classes; blocks of 5 apex rows straddle the sets.  On 2
    # lines of 14 points an apex's 13 arms fall into at most 8 classes, and
    # the per-apex gather still evaluates every arm pair once
    sets = [points_on_lines(fd, d, lines, n, 10 * n + s) for s in range(4)]
    hists = []
    for ps in sets:
        counts = naive_spread_counts(ps)
        hists.append([counts[v] for v in range(fd.q)] + [counts[None]])
    force_producer(monkeypatch, "apex")
    monkeypatch.setattr(census, "_BLOCK_CELLS", 5 * n * d)
    monkeypatch.setattr(census, *FORCED_PATHS[path])
    cells = count_spread_cells(monkeypatch)
    blocks, tables = [], set()
    gather = census._add_pairs

    def spy(fd, n, window, ids, table, hist):
        blocks.extend((lo, lo + len(k) - 1, int(mult.max())) for lo, k, mult, _ in window)
        tables.add(table is not None)
        gather(fd, n, window, ids, table, hist)

    monkeypatch.setattr(census, "_add_pairs", spy)
    assert [h.tolist() for h in census._sweep(sets, census.DEFAULT_TRIPLE_BUDGET)] == hists
    assert tables == {path == "pairs"}
    assert any(lo // n != last // n for lo, last, _ in blocks)
    assert all(most > 1 for _, _, most in blocks)
    if path == "per-apex":
        assert sum(cells) == len(sets) * n * (n - 1) * (n - 2) // 2


@pytest.mark.parametrize("fd", [Field(101), Field(103)], ids=str)
def test_plane_lines_take_the_gram_path(fd, monkeypatch):
    # a line of q points of F_q^2 (for q = 1 mod 4 the isotropic line of
    # con1_set): every apex holds one class, so a window's plane table of
    # 2N cells outgrows its sum k^2 = rows cells, and its 1 x 1 class
    # table takes the Gram path
    ps = construct.con1_set(fd, 2) if fd.q % 4 == 1 else PointSet(fd, 2, [(t, 2 * t % fd.q) for t in range(fd.q)])
    paths = record_paths(monkeypatch)
    cen = distinct_spreads(ps)
    assert {p for p, _, _ in paths} == {"gram"}
    assert (cen.defined_count, cen.undefined_triples) == ((0, fd.q * (fd.q - 1) * (fd.q - 2)) if fd.q % 4 == 1 else (1, 0))


@pytest.mark.parametrize("path", ["pairs", "per-apex"])
@pytest.mark.parametrize("block, straddling", [(80, True), (100, False)])
def test_gather_on_straddling_and_single_set_blocks(block, straddling, path, monkeypatch):
    # 10-point sets of F_7^2 by apex: blocks of 80 // 20 = 4 apex rows
    # straddle the sets, blocks of 5 rows sit inside one set; windows of
    # about two blocks, and tiles of 40 cells, rectangles and triangles,
    # read from the shared table or evaluated per apex
    sets = [random_pointset(F7, 2, 10, 80 + s) for s in range(6)]
    hists = []
    for ps in sets:
        counts = naive_spread_counts(ps)
        hists.append([counts[v] for v in range(7)] + [counts[None]])
    force_producer(monkeypatch, "apex")
    monkeypatch.setattr(census, "_BLOCK_CELLS", block)
    monkeypatch.setattr(census, "_WINDOW_CELLS", 100)
    monkeypatch.setattr(census, *FORCED_PATHS[path])
    blocks, tables = [], set()
    gather = census._add_pairs

    def spy(fd, n, window, ids, table, hist):
        blocks.extend((lo, lo + len(k) - 1) for lo, k, _, _ in window)
        tables.add(table is not None)
        gather(fd, n, window, ids, table, hist)

    monkeypatch.setattr(census, "_add_pairs", spy)
    assert [h.tolist() for h in census._sweep(sets, census.DEFAULT_TRIPLE_BUDGET)] == hists
    assert any(lo // 10 != last // 10 for lo, last in blocks) == straddling
    assert tables == {path == "pairs"}


@functools.lru_cache(maxsize=None)
def stack_pools(fd, d):
    """The pools a stack of test_every_mode_on_stacks_that_straddle_blocks
    draws its sets from: all of F_q^d, and for q = 1 mod 4 the extremal
    set of d = 2 or 3, con1 or con2, whose subsets never finish."""
    pools = [geom.all_points(fd, d)]
    if fd.q % 4 == 1 and d > 1:
        pools.append(construct.con1_set(fd, 2) if d == 2 else construct.con2_set(fd, 3))
    return pools


@seed(33)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_mode_on_stacks_that_straddle_blocks(data):
    # stacks of 1-4 sets of 3-12 points, some drawn from con1/con2, under
    # tiny blocks and windows, each forced path and each producer: the
    # gather adds each buffer straight into the tally, so a block that
    # straddles sets must write each set's slots in every mode
    fd = data.draw(st.sampled_from([F3, F5, F7, F9, F13]))
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(3, min(12, fd.q**d)))
    sets = []
    for _ in range(data.draw(st.integers(1, 4))):
        pool = data.draw(st.sampled_from([p for p in stack_pools(fd, d) if len(p) >= n]))
        rows = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n, unique=True))
        sets.append(PointSet(fd, d, pool.as_array()[rows]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census, "_BLOCK_CELLS", data.draw(st.integers(1, 2 * n)) * n * d)
        mp.setattr(census, "_WINDOW_CELLS", data.draw(st.integers(1, 400)))
        mp.setattr(census, *FORCED_PATHS[data.draw(st.sampled_from(sorted(FORCED_PATHS)))])
        force_producer(mp, data.draw(st.sampled_from(sorted(PRODUCERS))))
        hists = list(census._sweep(sets, census.DEFAULT_TRIPLE_BUDGET))
        cens = census.spread_censuses(sets)
        for ps, hist, cen in zip(sets, hists, cens):
            counts = naive_spread_counts(ps)
            assert hist.tolist() == [counts[v] for v in range(fd.q)] + [counts[None]]
            values, undefined, scanned = naive_spread_census(ps)
            assert (list(cen.defined_values), cen.undefined_triples, cen.triples_scanned) == (values, undefined, scanned)
            assert [spread_occurrences(ps, g) for g in range(fd.q)] == [counts[g] for g in range(fd.q)]


def test_per_apex_gather_evaluates_only_pairs(monkeypatch):
    # 40 points of the moment curve (i, i^2, i^3) of F_101^3: no three are
    # collinear, so every apex has 39 classes of one arm, no window shares
    # a table, and each window evaluates exactly its rows' k (k - 1) / 2
    # class pairs: no diagonal, no cell c' < c
    fd = Field(101)
    ps = PointSet(fd, 3, [(i, i * i % 101, i**3 % 101) for i in range(40)])
    windows = []
    cells = count_spread_cells(monkeypatch)
    gather = census._add_pairs

    def spy(fd, n, window, ids, table, hist):
        assert table is None
        mark = len(cells)
        gather(fd, n, window, ids, table, hist)
        k = np.concatenate([k for _, k, _, _ in window])
        windows.append((sum(cells[mark:]), int((k * (k - 1) // 2).sum())))

    monkeypatch.setattr(census, "_add_pairs", spy)
    cen = distinct_spreads(ps)
    got, want = zip(*windows)
    assert got == want and sum(want) == 40 * 39 * 38 // 2
    counts = naive_spread_counts(ps)
    assert list(cen.defined_values) == sorted(v for v in counts if v is not None)
    assert (cen.defined_count, cen.undefined_triples, cen.triples_scanned) == (101, 758, 59280)
    assert cen.undefined_triples == counts[None]
    assert cen.triples_scanned == sum(counts.values())


@pytest.mark.parametrize("path", ["gram", "pairs"])
def test_direction_windows_where_directions_never_occur(path, monkeypatch):
    # 7-point sets of F_5^2 count by direction (U = 6 <= n - 1); one apex
    # row a window, so a window's table holds only its apex's directions
    sets = [random_pointset(F5, 2, 7, 90 + s) for s in range(4)]
    hists = []
    for ps in sets:
        counts = naive_spread_counts(ps)
        hists.append([counts[v] for v in range(5)] + [counts[None]])
    force_producer(monkeypatch, "direction")
    monkeypatch.setattr(census, "_BLOCK_CELLS", 12)  # one row a block
    monkeypatch.setattr(census, "_WINDOW_CELLS", 1)
    monkeypatch.setattr(census, *FORCED_PATHS[path])
    sizes, cycles = [], []
    plane_table, plane_cycle = census._plane_table, census._plane_cycle

    def recording(fd, reps, cycle):
        sizes.append(len(reps))
        return plane_table(fd, reps, cycle)

    def building(fd):
        cycles.append(fd)
        return plane_cycle(fd)

    monkeypatch.setattr(census, "_plane_table", recording)
    monkeypatch.setattr(census, "_plane_cycle", building)
    paths = record_paths(monkeypatch)
    assert [h.tolist() for h in census._sweep(sets, census.DEFAULT_TRIPLE_BUDGET)] == hists
    assert {p for p, _, _ in paths} == {path} and len(paths) == 28
    assert min(sizes) < 6
    # the window-independent part of the 28 plane tables, once per call
    # of the kernel: these window cells stack the sets one at a time
    assert cycles == [F5] * 4


@pytest.mark.parametrize("fd, d", [(F7, 1), (F5, 2), (F9, 2), (F3, 3), (F5, 3), (F5, 60)], ids=str)
def test_class_ids_number_the_distinct_reps(fd, d):
    # representatives drawn with repeats, some of the pool absent: the
    # directions of F_q^d, or at d = 60 random canonical representatives,
    # whose codes _codes rank-compresses
    rng = random.Random(fd.q * d)
    if d < 60:
        pool = census._directions(fd, d)[0]
    else:
        assert (fd.zero_log + 1) ** d >= 1 << 62
        leads = [rng.randrange(d) for _ in range(40)]
        pool = fd.log.take([[0] * j + [1] + [rng.randrange(fd.q) for _ in range(d - 1 - j)] for j in leads])
    picks = [rng.randrange(len(pool)) for _ in range(len(pool) * 3 // 2)]
    reps = pool[picks]
    ids, first = census._class_ids(fd, reps)
    u = len(first)
    assert u == len(np.unique(reps, axis=0)) and 0 <= ids.min() and ids.max() < u
    assert len(np.unique(reps[first], axis=0)) == u
    assert (reps[first][ids] == reps).all()
    if d > 1:
        assert len(set(picks)) < len(pool)


def test_stacked_census_guards():
    ps = random_pointset(F5, 2, 6, 1)
    for run in (census.spread_censuses, census.line_censuses):
        with pytest.raises(errors.FormatError):
            run([])
        with pytest.raises(errors.FormatError):  # another size
            run([ps, random_pointset(F5, 2, 7, 2)])
        with pytest.raises(errors.FormatError):  # another field
            run([ps, random_pointset(F7, 2, 6, 3)])
        with pytest.raises(errors.FormatError):  # another dimension
            run([ps, random_pointset(F5, 3, 6, 4)])
    with pytest.raises(errors.TooFewPoints):
        census.spread_censuses([PointSet(F5, 2, [(0, 0), (1, 0)])])
    with pytest.raises(errors.BudgetExceeded):
        census.spread_censuses([ps], budget=6**3 - 1)
    with pytest.raises(errors.BudgetExceeded):
        census.line_censuses([ps], budget=6**2 - 1)


def test_stacked_census_gates_before_drawing_and_draws_lazily(monkeypatch):
    drawn = []

    def draws(count):
        for s in range(count):
            drawn.append(s)
            yield random_pointset(F5, 2, 6, s)

    def kernel_never_runs(fd, logs):
        raise AssertionError("kernel ran past the gate")

    with monkeypatch.context() as m:
        m.setattr(census, "_arm_classes", kernel_never_runs)
        with pytest.raises(errors.BudgetExceeded):
            census.spread_censuses(draws(50), budget=100)
        with pytest.raises(errors.BudgetExceeded):
            census.line_censuses(draws(50), budget=30)
    assert drawn == [0, 0]  # only the first set of each call
    # Stacks of 200 // (6 * 2 + 5 + 1) = 11 sets: each kernel call sees
    # one stack, drawn just before it.
    monkeypatch.setattr(census, "_WINDOW_CELLS", 200)
    histograms = census._spread_histograms
    seen = []

    def recording(fd, logs, *mode):
        seen.append((len(logs), len(drawn)))
        return histograms(fd, logs, *mode)

    monkeypatch.setattr(census, "_spread_histograms", recording)
    drawn.clear()
    cens = census.spread_censuses(draws(30))
    assert seen == [(11, 11), (11, 22), (8, 30)]
    assert cens == [distinct_spreads(random_pointset(F5, 2, 6, s)) for s in range(30)]


def test_full_plane_spread_census_frozen():
    # Whole-plane value sets, frozen from exhaustive enumeration.  The
    # count is (q+1)/2 for q = 1 mod 4 and (q+3)/2 for q = 3 mod 4; no
    # subset can ever exceed it.
    expected = {
        F3: (0, 1, 2),
        F5: (0, 1, 3),
        F7: (0, 1, 3, 4, 5),
        F9: (0, 1, 2, 5, 8),
    }
    for fd, values in expected.items():
        cen = distinct_spreads(geom.all_points(fd, 2))
        assert cen.defined_values == values


def test_collinear_triple_spreads():
    ps = PointSet(F5, 2, [(0, 0), (1, 0), (2, 0)])  # non-isotropic line
    cen = distinct_spreads(ps)
    assert cen.defined_values == (0,)
    assert cen.undefined_triples == 0


def test_distinct_spreads_guards():
    with pytest.raises(errors.TooFewPoints):
        distinct_spreads(PointSet(F5, 2, [(0, 0), (1, 0)]))
    with pytest.raises(errors.BudgetExceeded):
        distinct_spreads(geom.all_points(F5, 2), budget=100)


def test_distinct_spreads_four_digit_prime_field():
    # q = 2053: a four-digit prime field through the public entry point,
    # with a collinear triple among the points.
    fd = Field(2053)
    ps = PointSet(fd, 2, [(0, 0), (1, 0), (2, 0), (0, 1), (5, 7)])
    cen = distinct_spreads(ps)
    values, undefined, scanned = naive_spread_census(ps)
    assert list(cen.defined_values) == values
    assert cen.undefined_triples == undefined
    assert cen.triples_scanned == scanned
    assert cen.defined_count <= fd.q


def test_census_rigid_motion_invariance():
    ps = random_pointset(F5, 2, 10, 7)
    base = distinct_spreads(ps).defined_values
    (m,) = geom.random_orthogonals(F5, 2, [3])
    z = (2, 4)
    moved = PointSet(
        F5, 2, [vadd(F5, mat_vec(F5, m, p), z) for p in ps.points]
    )
    assert distinct_spreads(moved).defined_values == base


def similar(ps, seed, scale, shift):
    """The image of ps under x -> scale M x + shift, M the seeded orthogonal
    matrix of geom.random_orthogonals: a similarity, which keeps every
    spread and every isotropic arm."""
    fd, d = ps.field, ps.dim
    (m,) = geom.random_orthogonals(fd, d, [seed])
    F = reference(fd)
    return PointSet(fd, d, [vadd(fd, tuple(F.mul(scale, x) for x in mat_vec(fd, m, p)), shift) for p in ps.points])


@pytest.mark.parametrize(
    "fd, d, n",
    [(Field(1021), 2, 200), (F27, 3, 200), (Field(11), 3, 300)],
    ids=["sparse-1021^2", "ext-27^3", "dense-11^3"],
)
def test_occurrences_at_scale_by_similarity(fd, d, n):
    # sets shaped like the benchmark's spread inputs, beyond the naive
    # oracles: the one-value count is the exact histogram's slot, and both
    # are unchanged under a similarity, at several gammas
    ps = random_points(fd, d, n, 300 + d)
    image = similar(ps, seed=7, scale=3, shift=tuple(range(1, d + 1)))
    hist = next(census._sweep([ps], census.DEFAULT_TRIPLE_BUDGET))
    assert (next(census._sweep([image], census.DEFAULT_TRIPLE_BUDGET)) == hist).all()
    defined = np.flatnonzero(hist[:-1]).tolist()
    gammas = sorted({0, 1, *defined[:2], *defined[-2:], *occurrence_gammas(fd.q)[-2:]})
    for gamma in gammas:
        assert spread_occurrences(ps, gamma) == spread_occurrences(image, gamma) == hist[gamma]
    # the control: x -> (x_0, a x_1, x_2, ...) with a^2 != 1 is no
    # similarity, and it must change the histogram, or the law above
    # would test nothing
    F = reference(fd)
    a = next(a for a in range(2, fd.q) if F.mul(a, a) != 1)
    skewed = PointSet(fd, d, [(p[0], F.mul(a, p[1]), *p[2:]) for p in ps.points])
    moved = next(census._sweep([skewed], census.DEFAULT_TRIPLE_BUDGET))
    assert (moved != hist).any()
    changed = next(g for g in range(fd.q) if moved[g] != hist[g])
    assert spread_occurrences(skewed, changed) == moved[changed] != spread_occurrences(ps, changed)


def test_monotonicity_under_point_removal():
    ps = random_pointset(F5, 2, 10, 8)
    full_spreads = distinct_spreads(ps).defined_count
    full_lines = spanned_lines(ps).lines
    full_dists = len(distinct_distances(ps).values)
    for drop in range(0, len(ps), 3):
        sub = PointSet(F5, 2, [p for i, p in enumerate(ps.points) if i != drop])
        assert distinct_spreads(sub).defined_count <= full_spreads
        assert spanned_lines(sub).lines <= full_lines
        assert len(distinct_distances(sub).values) <= full_dists


# -- distances ------------------------------------------------------------------


def test_distinct_distances_frozen_examples():
    single = PointSet(F5, 2, [(0, 0), (1, 0)])
    assert distinct_distances(single).values == (1,)

    circle = geom.sphere_points(F5, 2, 1)
    cen = distinct_distances(circle)
    assert cen.values == (2, 4)  # frozen from the 6-pair brute force
    assert cen.nonzero_values == (2, 4)
    assert cen.pairs_scanned == 6

    iso = distinct_distances(construct.con1_set(F5, 2))
    assert iso.values == (0,)
    assert iso.nonzero_values == ()

    with pytest.raises(errors.TooFewPoints):
        distinct_distances(PointSet(F5, 2, [(0, 0)]))


def test_distinct_distances_matches_naive_oracle():
    for ps in (random_pointset(F7, 2, 12, 9), random_pointset(F9, 2, 9, 10)):
        assert list(distinct_distances(ps).values) == naive_distances(ps)


@pytest.mark.parametrize(
    "make",
    [
        lambda: geom.all_points(F3, 3),  # 2 = -1: polarization in characteristic 3
        lambda: random_pointset(F3, 3, 4, 13),
        lambda: random_pointset(F25, 3, 40, 11),
        lambda: random_pointset(F25, 3, 5, 14),
        lambda: random_pointset(F27, 3, 40, 12),
        lambda: random_pointset(F27, 3, 5, 15),
        lambda: geom.sphere_points(F3, 3, 0),  # isotropic: many differences of norm 0
        lambda: PointSet(F27, 3, geom.sphere_points(F27, 3, 0).points[::23]),
        lambda: PointSet(F25, 3, geom.sphere_points(F25, 3, 1).points[::19]),
    ],
    ids=[
        "f3-space", "f3-few", "f25-random", "f25-few", "f27-random", "f27-few",
        "f3-isotropic", "f27-isotropic", "f25-unit",
    ],
)
def test_distinct_distances_in_space_match_naive_oracle(make):
    ps = make()
    cen = distinct_distances(ps)
    assert list(cen.values) == naive_distances(ps)
    assert cen.nonzero_values == tuple(v for v in cen.values if v)


@pytest.mark.parametrize("block", [1, 5, 40])
def test_distinct_distances_in_row_blocks_match_naive_oracle(block, monkeypatch):
    # one row, a few rows, or a few hundred pairs a block: every pair still
    # counts once, and the diagonal's zero distances never enter
    monkeypatch.setattr(census, "_BLOCK_CELLS", block)
    cases = [
        random_pointset(F7, 2, 12, 9),
        random_pointset(F9, 2, 9, 10),
        random_pointset(F25, 3, 30, 11),
        geom.sphere_points(F3, 3, 0),
        PointSet(F5, 2, [(0, 0), (1, 0)]),
    ]
    for ps in cases:
        cen = distinct_distances(ps)
        assert list(cen.values) == naive_distances(ps)
        assert cen.pairs_scanned == len(ps) * (len(ps) - 1) // 2


@pytest.mark.parametrize("fd, d", [(fd, d) for fd in (F3, F5, F7, F9) for d in (1, 2, 3)], ids=str)
def test_distance_value_count_is_the_whole_space_distance_set(fd, d):
    # the distances of F_q^d are the norms of its nonzero vectors: 0 only
    # where one is isotropic, so F_3^2 and F_7^2 miss it and F_5^2 and
    # F_9^2 hold it
    F = reference(fd)
    norms = {norm(F, v) for v in itertools.product(range(fd.q), repeat=d) if any(v)}
    assert census.distance_value_count(fd, d) == len(norms)
    assert (0 in norms) == (d >= 3 or d == 2 and fd.q % 4 == 1)


def test_distinct_distances_stop_once_every_value_is_seen(monkeypatch):
    # 700 random points of F_31^2 see all 30 nonzero values in their first
    # row block of pairs, and F_31^2 has no isotropic vector
    ps = random_points(Field(31), 2, 700, 31)
    calls = []
    pair_distances = census._pair_distances

    def counting(fd, rows, cols):
        calls.append(len(rows))
        return pair_distances(fd, rows, cols)

    monkeypatch.setattr(census, "_pair_distances", counting)
    cen = distinct_distances(ps)
    assert len(calls) == 1 and calls[0] < 699
    assert cen.values == cen.nonzero_values == tuple(range(1, 31))
    assert cen.pairs_scanned == 700 * 699 // 2


@pytest.mark.parametrize("fd", [F3, F25, F27], ids=lambda fd: fd.label())
def test_pair_distances_match_scalar_polarization(fd):
    # |a - b| and |a + b| for every ordered pair, against scalar geom; in
    # characteristic 3 the doubled Gram term is -x.y.  Rows 0-3 against
    # rows 2-6 as well: the blocks of distinct_distances
    for seed in range(3):
        ps = random_pointset(fd, 3, 7, seed)
        logs = fd.log[ps.as_array()]
        minus, plus = census._pair_distances(fd, logs, logs)
        for (i, a), (j, b) in itertools.product(enumerate(ps.points), repeat=2):
            assert fd.exp[minus[i, j]] == dist(fd, a, b)
            assert fd.exp[plus[i, j]] == norm(fd, vadd(fd, a, b))
        block = census._pair_distances(fd, logs[:4], logs[2:])
        assert [x.tolist() for x in block] == [minus[:4, 2:].tolist(), plus[:4, 2:].tolist()]


# -- lines ----------------------------------------------------------------------


def test_spanned_lines_frozen_examples():
    assert spanned_lines(geom.all_points(F5, 2)).lines == 30
    collinear = PointSet(F5, 2, [(0, 0), (1, 1), (2, 2)])
    assert spanned_lines(collinear).lines == 1
    # four points, no three collinear, all pairs distinct lines
    quad = PointSet(F5, 2, [(0, 0), (1, 0), (0, 1), (2, 3)])
    for a, b, c in itertools.combinations(quad.points, 3):
        assert line_through(F5, a, b) != line_through(F5, a, c)
    assert spanned_lines(quad).lines == 6


def test_spanned_lines_totals_match_formula():
    for fd in (F3, F5):
        for d in (2, 3):
            cen = spanned_lines(geom.all_points(fd, d))
            assert cen.lines == total_affine_lines(fd.q, d)
            # every line through a point is spanned: (q^d - 1)/(q - 1) each
            assert cen.max_degree == (fd.q**d - 1) // (fd.q - 1)


def test_spanned_lines_guards():
    with pytest.raises(errors.TooFewPoints):
        spanned_lines(PointSet(F5, 2, [(0, 0)]))
    with pytest.raises(errors.BudgetExceeded):
        spanned_lines(geom.all_points(F5, 2), budget=10)


def test_line_census_bounds_invariant():
    ps = random_pointset(F5, 2, 12, 11)
    cen = spanned_lines(ps)
    assert cen.max_degree <= cen.lines <= total_affine_lines(5, 2)


# -- occurrences -------------------------------------------------------------------


def test_spread_occurrences_small_cases():
    collinear = PointSet(F5, 2, [(0, 0), (1, 0), (2, 0)])
    assert spread_occurrences(collinear, 0) == 6  # every ordered triple
    assert spread_occurrences(collinear, 1) == 0
    ps = random_pointset(F5, 2, 9, 12)
    counts = naive_spread_counts(ps)
    for gamma in range(5):
        assert spread_occurrences(ps, gamma) == counts[gamma]


def test_spread_occurrences_on_sphere_frozen():
    # S1 in F_5^3 has 30 points; ordered-triple occurrence counts frozen
    # from the exhaustive scan.
    sphere = geom.sphere_points(F5, 3, 1)
    assert len(sphere) == 30
    assert spread_occurrences(sphere, 3) == 2640
    assert spread_occurrences(sphere, 4) == 2400


def test_origin_pinned_occurrences_follow_pair_scaling_band():
    # Spreads seen from the origin between sphere points: 1 - S = (a.b)^2 is
    # always a square, so values with 1 - gamma a non-square never occur,
    # while values with 1 - gamma a nonzero square occur Theta(n^2/q) times.
    sphere = geom.sphere_points(F5, 3, 1)
    n, q = len(sphere), 5
    counts = {g: 0 for g in range(q)}
    for a, b in itertools.permutations(sphere.points, 2):
        s = naive_spread(F5, (0, 0, 0), a, b)
        if s is not None:
            counts[s] += 1
    assert counts == {0: 510, 1: 120, 2: 240, 3: 0, 4: 0}
    lo, hi = n * n / (4 * q), 4 * n * n / q
    F = reference(F5)
    for gamma in range(q):
        one_minus = F.sub(1, gamma)
        if one_minus != 0 and F.is_square(one_minus):
            assert lo <= counts[gamma] <= hi
        elif not F.is_square(one_minus):
            assert counts[gamma] == 0


# -- projections ---------------------------------------------------------------------


def test_random_projection_shape_rank_determinism():
    proj, again, other = census.random_projections(F5, 4, 2, [7, 7, 8])
    assert len(proj) == 2 and all(len(row) == 4 for row in proj)
    assert geom.rank(F5, proj) == 2
    assert proj == again
    assert proj != other
    with pytest.raises(errors.DimensionMismatch):
        census.random_projections(F5, 4, 5, [0])
    with pytest.raises(errors.DimensionMismatch):
        census.random_projections(F5, 4, 0, [0])


def naive_projection(fd, d, k, seed):
    # the rejection law one sample at a time, ranked by the span oracle
    rng = random.Random(seed)
    for attempts in itertools.count(1):
        rows = tuple(tuple(rng.randrange(fd.q) for _ in range(d)) for _ in range(k))
        if naive_rank(fd, rows) == k:
            return rows, attempts


@pytest.mark.parametrize("fd, d, k", [(F5, 4, 2), (F3, 4, 4), (F3, 2, 1)], ids=str)
def test_random_projections_match_per_seed(fd, d, k):
    seeds = [expt.trial_seed(7, t) for t in range(200)]
    batched = census.random_projections(fd, d, k, seeds)
    want = [naive_projection(fd, d, k, seed) for seed in seeds]
    assert batched == [rows for rows, _ in want]
    assert batched == [census.random_projections(fd, d, k, [seed])[0] for seed in seeds]
    if (fd, d, k) == (F3, 4, 4):  # a singular 4 x 4 over F_3 is common
        assert max(attempts for _, attempts in want) > 2


def test_random_projections_gives_up_after_1000_attempts(monkeypatch):
    monkeypatch.setattr(geom, "eliminate", lambda fd, m: (np.zeros(len(m), dtype=np.int64), None))
    with pytest.raises(errors.InternalError):
        census.random_projections(F5, 3, 2, [0, 1])
    assert census.random_projections(F5, 3, 2, []) == []
    with pytest.raises(errors.DimensionMismatch):
        census.random_projections(F5, 3, 4, [])


def test_collision_count_injective_when_k_equals_d():
    ps = random_pointset(F5, 3, 20, 13)
    projections = census.random_projections(F5, 3, 3, range(10))
    assert census.projection_images(ps, projections) == ([0] * 10, [len(ps)] * 10)


@pytest.mark.parametrize("fd, d, k", [(F5, 4, 2), (F9, 3, 1), (F7, 3, 3), (F27, 2, 1)], ids=str)
def test_collision_count_matches_scalar_buckets(fd, d, k):
    # bucket every point by its scalar image, for seeded projections
    ps = random_points(fd, d, 60, fd.q)
    for proj in census.random_projections(fd, d, k, range(5)):
        buckets = {}
        for p in ps.points:
            img = mat_vec(fd, proj, p)
            buckets[img] = buckets.get(img, 0) + 1
        want = ([sum(m * (m - 1) // 2 for m in buckets.values())], [len(buckets)])
        assert census.projection_images(ps, [proj]) == want


def test_projection_images_match_one_projection_calls(monkeypatch):
    # batches of 180 // (30 * 2) = 3 projections, the last one short
    ps = random_points(F7, 3, 30, 7)
    projections = census.random_projections(F7, 3, 2, range(40))
    one = [census.projection_images(ps, [proj]) for proj in projections]
    want = ([c for (c,), _ in one], [s for _, (s,) in one])
    assert sum(want[0]) > 0
    monkeypatch.setattr(census, "_BLOCK_CELLS", 180)
    assert census.projection_images(ps, projections) == want
    assert census.projection_images(ps, []) == ([], [])


def test_collision_count_detects_kernel_difference():
    (proj,) = census.random_projections(F5, 4, 2, [1])
    kernel_vec = next(
        v
        for v in itertools.product(range(5), repeat=4)
        if any(v) and all(x == 0 for x in mat_vec(F5, proj, v))
    )
    a = (1, 2, 3, 4)
    ps = PointSet(F5, 4, [a, vadd(F5, a, kernel_vec)])
    assert census.projection_images(ps, [proj]) == ([1], [1])
    with pytest.raises(errors.DimensionMismatch):
        census.projection_images(PointSet(F5, 2, [(0, 0)]), [proj])


# -- isotropic triple search ------------------------------------------------------------


def test_search_iso_triple_f3_d6_none():
    assert search_iso_triple(F3, 6) is None


def test_search_iso_triple_finds_lex_first_triples():
    found5 = search_iso_triple(F5, 6)
    assert found5 == [(0, 0, 0, 0, 1, 2), (0, 0, 1, 2, 0, 0), (1, 2, 0, 0, 0, 0)]
    assert construct.is_isotropic_family(F5, found5)
    found3 = search_iso_triple(F3, 8)
    assert found3 == [
        (0, 0, 0, 0, 0, 1, 1, 1),
        (0, 0, 0, 0, 1, 0, 1, 2),
        (0, 1, 1, 1, 0, 0, 0, 0),
    ]
    assert construct.is_isotropic_family(F3, found3)


def test_search_agrees_with_constructed_families():
    # wherever the block constructions yield >= 3 vectors, search must succeed
    for fd, d in ((F5, 6), (F3, 8)):
        fam = construct.iso_family(fd, d)
        assert construct.is_isotropic_family(fd, fam[:3])
        assert search_iso_triple(fd, d) is not None


def test_search_iso_triple_same_in_small_blocks(monkeypatch):
    # candidate triples ranked two at a time keep the lexicographic order
    want = [search_iso_triple(fd, d) for fd, d in ((F3, 6), (F5, 6), (F3, 8))]
    monkeypatch.setattr(census, "_BLOCK_CELLS", 50)
    assert [search_iso_triple(fd, d) for fd, d in ((F3, 6), (F5, 6), (F3, 8))] == want


def test_orthogonality_masks_match_scalar_dots(monkeypatch):
    # each representative's scalar partner set, read in reversed order
    for fd, d in ((F3, 4), (F5, 3), (F9, 3)):
        reps = census._isotropic_reps(fd, d)
        arr = fd.log[np.array(reps)]
        want = [sum(1 << j for j, v in enumerate(reps) if dot(fd, u, v) == 0) for u in reps]
        mask = census._orthogonality_masks(fd, arr)
        assert [mask(i) for i in reversed(range(len(reps)))] == want[::-1]
    # a row read twice is built once
    calls = []
    log_dot = Field.log_dot
    monkeypatch.setattr(Field, "log_dot", lambda self, x, y: calls.append(1) or log_dot(self, x, y))
    mask = census._orthogonality_masks(fd, arr)
    assert mask(2) == mask(2) == want[2] and len(calls) == 1


def test_search_budget():
    with pytest.raises(errors.BudgetExceeded):
        search_iso_triple(F3, 8, budget=100)
    with pytest.raises(errors.BudgetExceeded):
        # point enumeration fits but the representative pair scan does not
        search_iso_triple(F13, 6)


def test_closed_form_gates_come_before_any_walk(monkeypatch):
    # F_3^16 passes the q^d gate; the sphere sizes alone settle each call
    def walked(*args):
        raise AssertionError("walked F_q^d")

    monkeypatch.setattr(geom, "sphere_blocks", walked)
    with pytest.raises(errors.BudgetExceeded, match="pair scan"):
        search_iso_triple(F3, 16)
    assert search_iso_triple(F5, 2) is None  # two isotropic lines
    with pytest.raises(errors.BudgetExceeded, match="S1"):
        sphere_equiv_check(F3, 16)
    with pytest.raises(errors.SphereTooSmall):
        expt.run_sphere_distance(F3, 16, 3000, 1, 0)


# -- sphere equivalence ------------------------------------------------------------------


def test_sphere_equiv_no_violations_small():
    rep = sphere_equiv_check(F5, 2)
    assert rep.violations == ()
    assert rep.quadruples_checked == 4**4
    assert rep.excluded == 0


def test_sphere_equiv_matches_scalar_recheck():
    # recompute the biconditional naively on the tiny (5,2) sphere
    sphere = geom.sphere_points(F5, 2, 1).points
    origin = (0, 0)
    for a, b, c, e in itertools.product(sphere, repeat=4):
        s1 = naive_spread(F5, origin, a, b)
        s2 = naive_spread(F5, origin, c, e)
        lhs = s1 == s2
        rhs = dist(F5, a, b) == dist(F5, c, e) or dist(
            F5, a, b
        ) == norm(F5, vadd(F5, c, e))
        assert lhs == rhs


def test_sphere_equiv_violations_match_naive_listing(monkeypatch):
    # Corrupt one key column (|a + b| for a = the first point) and mark one
    # origin pair undefined, then list the violating quadruples naively in
    # row-major order from the same matrices.
    seen = {}
    pair_distances, arm_spreads = census._pair_distances, geom.arm_spreads

    def corrupt_distances(fd, rows, cols):
        minus, plus = pair_distances(fd, rows, cols)
        plus[0] = fd.log[3]
        seen["minus"], seen["plus"] = minus, plus
        yield from (minus, plus)

    def undefine_one(fd, u, v):
        val = arm_spreads(fd, u, v)
        val[1, 2] = -1
        seen["spread"] = val
        return val

    monkeypatch.setattr(census, "_pair_distances", corrupt_distances)
    monkeypatch.setattr(geom, "arm_spreads", undefine_one)
    monkeypatch.setattr(census, "_MAX_VIOLATIONS", 10**6)
    rep = sphere_equiv_check(F7, 2)
    pts = geom.sphere_points(F7, 2, 1).points
    m = len(pts)
    keys = {
        (a, b): (int(seen["spread"][a, b]), int(seen["minus"][a, b]), int(seen["plus"][a, b]))
        for a, b in itertools.product(range(m), repeat=2)
    }
    naive = [
        (pts[a], pts[b], pts[c], pts[e])
        for (a, b), (c, e) in itertools.product(keys, repeat=2)
        if keys[a, b][0] >= 0 and keys[c, e][0] >= 0
        and (keys[a, b][0] == keys[c, e][0])
        != (keys[a, b][1] == keys[c, e][1] or keys[a, b][1] == keys[c, e][2])
    ]
    assert len(naive) > 50
    assert list(rep.violations) == naive
    assert rep.quadruples_checked == (m * m - 1) ** 2
    assert rep.excluded == m**4 - (m * m - 1) ** 2
    monkeypatch.setattr(census, "_MAX_VIOLATIONS", 50)
    assert list(sphere_equiv_check(F7, 2).violations) == naive[:50]
    monkeypatch.setattr(census, "_MAX_VIOLATIONS", 0)
    assert sphere_equiv_check(F7, 2).violations == ()


def test_sphere_equiv_budget():
    with pytest.raises(errors.BudgetExceeded):
        sphere_equiv_check(F7, 3, budget=10**5)

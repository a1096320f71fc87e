"""Named, reproducible experiments with structured pass/fail reports.

Every experiment samples through ``random.Random`` instances seeded from
(master seed, trial index), so re-running with identical parameters
reproduces the per-trial records byte for byte.  Random subsets are drawn
by seeded shuffling of the lexicographic point enumeration and taking a
prefix.  Reports carry no timing fields: identical runs serialize to
identical JSON.

The spread-law battery (``run_properties``) draws its cases in bulk, as
exact-uniform integers from Mersenne Twister words with one
``random.Random`` per dimension and column group (``_uniform_below`` gives
the law), and then checks the laws in numpy batches on logs, through the
census kernels' one batched spread ``geom.arm_spreads``; its k = 2 law
checks that one-gather batch against ``geom.arm_k_spreads``, the order-2
spread of the same cases from their Gram determinants by elimination.
Its orthogonal pools come from one ``geom.random_orthogonals`` call each.
``run_projection`` ranks the samples of all its trials together
(``census.random_projections``), each trial drawing from its own rng, and
counts all their images in one ``census.projection_images`` call.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import census, construct, ff, geom
from .errors import FormatError, SizeExceeded, SphereTooSmall, TooFewPoints, VacuousBound
from .geom import PointSet


@dataclass
class ExperimentReport:
    name: str
    claim: str
    params: dict
    per_trial: list[dict]
    verdict: str  # "pass" | "fail"
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "claim": self.claim,
            "params": self.params,
            "per_trial": self.per_trial,
            "verdict": self.verdict,
        }
        if self.extras:
            out["extras"] = self.extras
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2)


def trial_seed(seed: int, index: int) -> int:
    """Deterministic per-trial sub-seed."""
    return seed * 1_000_003 + index


def sample_prefix(universe: Sequence, size: int, rng: random.Random) -> list:
    """Uniform subset without replacement: shuffle a copy, take a prefix."""
    pool = list(universe)
    rng.shuffle(pool)
    return pool[:size]


def alpha(eps: Fraction) -> Fraction:
    """Line-count constant eps^2 / (1 + eps + eps^2)."""
    eps = Fraction(eps)
    return eps * eps / (1 + eps + eps * eps)


def frac_ceil(f: Fraction) -> int:
    return -((-f.numerator) // f.denominator)


def ceil_scaled_power(c: Fraction, q: int, d: int) -> int:
    """Exact ceil(c * q^(d/2)) without floating point, d odd allowed."""
    c = Fraction(c)
    if d % 2 == 0:
        return frac_ceil(c * q ** (d // 2))
    target = c * c * q**d
    n = math.isqrt(target.numerator // target.denominator)
    while n * n < target:
        n += 1
    return n


def _trial_sets(space: PointSet, size: int, trials: int, seed: int):
    """The seeded size-point subsets of space of trials 0, 1, ..., drawn
    lazily, as a stacked census or a per-trial loop reads them."""
    return (
        PointSet(space.field, space.dim, sample_prefix(space.points, size, random.Random(trial_seed(seed, t))))
        for t in range(trials)
    )


def _verdict(oks) -> str:
    return "pass" if all(oks) else "fail"


def _check_trials(trials: int, what: str = "trials") -> None:
    """No verdict rests on zero trials: a pass would be vacuous."""
    if trials < 1:
        raise FormatError(f"need at least one of the {what}, got {trials}")


# -- experiments ---------------------------------------------------------------


def run_bode(
    fd: ff.Field,
    trials: int,
    seed: int,
    full_plane: bool = False,
    budget: int = geom.DEFAULT_ENUM_BUDGET,
) -> ExperimentReport:
    """Size-(2q-1) subsets of the plane: does each determine exactly q
    distinct spreads?  ``full_plane`` replaces sampling by one deterministic
    trial on all of F_q^2.

    The spread depends only on the two arm directions, so the whole plane
    admits just (q+1)/2 defined values for q = 1 (mod 4) and (q+3)/2 for
    q = 3 (mod 4).  The exactly-q verdict is therefore ``fail`` for every
    q > 3 by design; what the trials do reproduce is that each subset
    determines the whole plane's value set."""
    q = fd.q
    size = 2 * q - 1
    n = q * q if full_plane else size
    geom.check_space(fd, 2, budget)
    census.check_triples(n, budget)  # before the plane is built
    plane = geom.all_points(fd, 2, budget)
    sets = [plane] if full_plane else _trial_sets(plane, size, trials, seed)
    per_trial = [
        {
            "trial": t,
            "size": n,
            "defined_count": cen.defined_count,
            "defined_values": list(cen.defined_values),
            "ok": cen.defined_count == q,
        }
        for t, cen in enumerate(census.spread_censuses(sets, budget))
    ]
    return ExperimentReport(
        name="bode",
        claim="every subset of the plane with at least 2q-1 points determines exactly q distinct spreads",
        params={"field": fd.label(), "d": 2, "size": size, "trials": len(per_trial), "seed": seed, "full_plane": full_plane},
        per_trial=per_trial,
        verdict=_verdict(r["ok"] for r in per_trial),
    )


def run_threshold(
    fd: ff.Field,
    d: int,
    epsilon: Fraction,
    trials: int,
    seed: int,
    adversarial: bool = False,
    budget: int = geom.DEFAULT_ENUM_BUDGET,
) -> ExperimentReport:
    """Random sets of size ceil((1+eps) q^ceil(d/2)): the defined-spread count
    should clear the conservative floor floor(q/4).  Adversarial mode swaps
    in the extremal construction of the same dimension, which sits just below
    the size threshold and must show its sharp count instead."""
    epsilon = Fraction(epsilon)
    q = fd.q
    size = frac_ceil((1 + epsilon) * q ** ((d + 1) // 2))
    if size < 3:
        raise TooFewPoints(f"epsilon = {epsilon} gives sample size {size}; a spread needs 3 points")
    floor_count = q // 4
    if adversarial:  # the sharp count is checked even where the floor is 0
        ps, _, limit = _extremal_set(fd, d, budget)
        cen = census.distinct_spreads(ps, budget)
        per_trial = [
            {
                "trial": 0,
                "size": len(ps),
                "defined_count": cen.defined_count,
                "defined_values": list(cen.defined_values),
                "ok": cen.defined_count <= limit,
            }
        ]
    else:
        if size > q**d:
            raise SizeExceeded(f"sample size {size} exceeds |F_q^d| = {q ** d}")
        if floor_count == 0:
            raise VacuousBound(f"the floor floor(q/4) is 0 on F_{q}, which every set meets")
        geom.check_space(fd, d, budget)
        census.check_triples(size, budget)  # before F_q^d is built
        sets = _trial_sets(geom.all_points(fd, d, budget), size, trials, seed)
        per_trial = [
            {"trial": t, "size": size, "defined_count": cen.defined_count, "ok": cen.defined_count >= floor_count}
            for t, cen in enumerate(census.spread_censuses(sets, budget))
        ]
    return ExperimentReport(
        name="threshold",
        claim="sets of size (1+eps)*q^ceil(d/2) determine at least floor(q/4) distinct spreads",
        params={
            "field": fd.label(),
            "d": d,
            "epsilon": str(epsilon),
            "size": size,
            "trials": len(per_trial),
            "seed": seed,
            "floor": floor_count,
            "adversarial": adversarial,
        },
        per_trial=per_trial,
        verdict=_verdict(r["ok"] for r in per_trial),
    )


def run_beck(
    fd: ff.Field,
    d: int,
    epsilon: Fraction,
    trials: int,
    seed: int,
    budget: int = geom.DEFAULT_ENUM_BUDGET,
) -> ExperimentReport:
    """Random sets of size ceil((1+eps) q^(d-1)) must span at least
    alpha_eps * q^(2d-2) lines, with alpha_eps = eps^2/(1+eps+eps^2)."""
    epsilon = Fraction(epsilon)
    q = fd.q
    size = frac_ceil((1 + epsilon) * q ** (d - 1))
    if size > q**d:
        raise SizeExceeded(f"sample size {size} exceeds |F_q^d| = {q ** d}")
    bound = alpha(epsilon) * q ** (2 * d - 2)
    if bound == 0:
        raise VacuousBound(f"the line bound is 0 at epsilon = {epsilon}, which every set meets")
    geom.check_space(fd, d, budget)
    census.check_pairs(size, budget)  # before F_q^d is built
    space = geom.all_points(fd, d, budget)
    per_trial = [
        {"trial": t, "size": size, "lines": cen.lines, "max_degree": cen.max_degree, "ok": cen.lines >= bound}
        for t, cen in enumerate(census.line_censuses(_trial_sets(space, size, trials, seed), budget))
    ]
    return ExperimentReport(
        name="beck",
        claim="sets of size (1+eps)*q^(d-1) span at least eps^2/(1+eps+eps^2) * q^(2d-2) lines",
        params={
            "field": fd.label(),
            "d": d,
            "epsilon": str(epsilon),
            "size": size,
            "trials": trials,
            "seed": seed,
            "line_bound": str(bound),
        },
        per_trial=per_trial,
        verdict=_verdict(r["ok"] for r in per_trial),
    )


def run_projection(
    fd: ff.Field,
    d: int,
    k: int,
    n_points: int,
    trials: int,
    seed: int,
    budget: int = geom.DEFAULT_ENUM_BUDGET,
) -> ExperimentReport:
    """Fix one random n-point set, sample seeded rank-k projections, and check
    the empirical mean collision count against 1.2 * C(n,2) / q^k (20%
    statistical slack).  For k = d a projection is injective, so every
    single trial must also show zero collisions (``expect_zero``)."""
    _check_trials(trials)
    q = fd.q
    if n_points < 2:
        raise TooFewPoints(f"need at least 2 points for a collision, got {n_points}")
    if n_points > q**d:
        raise SizeExceeded(f"n_points = {n_points} exceeds |F_q^d| = {q ** d}")
    expect_zero = k == d
    geom.check_space(fd, d, budget)
    projections = census.random_projections(fd, d, k, [trial_seed(seed, t) for t in range(trials)])
    universe = geom.all_points(fd, d, budget).points
    pts = PointSet(fd, d, sample_prefix(universe, n_points, random.Random(seed)))
    collisions, sizes = census.projection_images(pts, projections)
    per_trial = [
        {"trial": t, "collisions": coll, "ok": (coll == 0) if expect_zero else True}
        for t, coll in enumerate(collisions)
    ]
    first = collisions.index(min(collisions))  # the first trial of fewest collisions
    best = {"trial": first, "collisions": collisions[first], "image_size": sizes[first]}
    mean = Fraction(sum(collisions), trials)
    bound = Fraction(6, 5) * math.comb(n_points, 2) * Fraction(1, q**k)  # k checked by the projections
    mean_ok = mean <= bound
    oks = [mean_ok] + [r["ok"] for r in per_trial]
    return ExperimentReport(
        name="projection",
        claim="mean collision count of seeded rank-k projections stays below 1.2 * C(n,2) / q^k, and the best image loses at most its collision count",
        params={
            "field": fd.label(),
            "d": d,
            "k": k,
            "n_points": n_points,
            "trials": trials,
            "seed": seed,
            "mean_bound": str(bound),
            "expect_zero": expect_zero,
        },
        per_trial=per_trial,
        verdict=_verdict(oks),
        extras={
            "mean_collisions": str(mean),
            "mean_ok": mean_ok,
            "min_collision_trial": best,
        },
    )


def _extremal_set(fd: ff.Field, d: int, budget: int) -> tuple[PointSet, str, int]:
    """The extremal construction for dimension d, its kind, and the most
    distinct defined spreads it may determine: con1 with none for even d,
    con2 with at most one for odd d."""
    if d % 2 == 0:
        return construct.con1_set(fd, d, budget), "con1", 0
    return construct.con2_set(fd, d, budget), "con2", 1


def run_constructions(fd: ff.Field, d: int, budget: int = geom.DEFAULT_ENUM_BUDGET) -> ExperimentReport:
    """Build the extremal set for (q, d) and verify its exact size,
    q^ceil(d/2), and its sharp spread count."""
    ps, kind, limit = _extremal_set(fd, d, budget)
    expected_size = fd.q ** ((d + 1) // 2)
    cen = census.distinct_spreads(ps, budget)
    ok = len(ps) == expected_size and cen.defined_count <= limit
    per_trial = [
        {
            "trial": 0,
            "kind": kind,
            "n_points": len(ps),
            "expected_size": expected_size,
            "defined_count": cen.defined_count,
            "defined_values": list(cen.defined_values),
            "undefined_triples": cen.undefined_triples,
            "ok": ok,
        }
    ]
    return ExperimentReport(
        name="constructions",
        claim="the isotropic-span set has its exact extremal size and determines no spread (even d) or at most one (odd d)",
        params={"field": fd.label(), "d": d, "kind": kind},
        per_trial=per_trial,
        verdict=_verdict([ok]),
    )


def run_sphere_distance(
    fd: ff.Field,
    d: int,
    c: Fraction,
    trials: int,
    seed: int,
    budget: int = geom.DEFAULT_ENUM_BUDGET,
) -> ExperimentReport:
    """Random subsets of the unit sphere of size ceil(C q^(d/2)) must
    determine at least min(floor(q/2), floor(C q/4)) nonzero distances."""
    _check_trials(trials)
    if d < 3:
        raise SphereTooSmall(f"needs d >= 3, got d = {d}")
    c = Fraction(c)
    if c <= 0:
        raise TooFewPoints(f"C = {c} gives no sample points; C must be positive")
    q = fd.q
    threshold = min(q // 2, math.floor(c * q / 4))
    if threshold == 0:
        raise TooFewPoints(f"C = {c} gives threshold 0 on F_{q}, which every set meets; need C >= 4/q")
    geom.check_space(fd, d, budget)
    size, sphere_size = ceil_scaled_power(c, q, d), geom.sphere_size(fd, d, 1)
    if size > sphere_size:
        raise SphereTooSmall(f"sample size {size} exceeds |S1| = {sphere_size} in F_{q}^{d}")
    census.check_pairs(size, budget)
    sphere = geom.sphere_points(fd, d, 1, budget)
    per_trial = []
    for t, pts in enumerate(_trial_sets(sphere, size, trials, seed)):
        got = len(census.distinct_distances(pts, budget).nonzero_values)
        per_trial.append(
            {"trial": t, "size": size, "nonzero_distances": got, "ok": got >= threshold}
        )
    return ExperimentReport(
        name="sphere-distance",
        claim="unit-sphere subsets of size C*q^(d/2) determine at least min(q/2, C*q/4) nonzero distances",
        params={
            "field": fd.label(),
            "d": d,
            "C": str(c),
            "size": size,
            "trials": trials,
            "seed": seed,
            "threshold": threshold,
        },
        per_trial=per_trial,
        verdict=_verdict(r["ok"] for r in per_trial),
    )


def run_sphere_equiv(fd: ff.Field, d: int, budget: int = geom.DEFAULT_ENUM_BUDGET) -> ExperimentReport:
    """Exhaustive biconditional check on the unit sphere: origin-apex spreads
    coincide exactly when the endpoint distance or anti-distance coincides."""
    rep = census.sphere_equiv_check(fd, d, budget=budget)
    ok = not rep.violations
    return ExperimentReport(
        name="sphere-equiv",
        claim="on the unit sphere, spread(0,a,b) = spread(0,c,e) holds exactly when |a-b| = |c-e| or |a-b| = |c+e|",
        params={"field": fd.label(), "d": d},
        per_trial=[
            {
                "trial": 0,
                "quadruples_checked": rep.quadruples_checked,
                "excluded": rep.excluded,
                "violations": len(rep.violations),
                "ok": ok,
            }
        ],
        verdict=_verdict([ok]),
    )


def run_iso_search(
    fd: ff.Field, d: int, expect_found: bool, budget: int = geom.DEFAULT_ENUM_BUDGET
) -> ExperimentReport:
    """Exhaustive isotropic-triple search, asserted against the expected
    existence answer; any found family is re-verified against the three
    family invariants."""
    found = census.search_iso_triple(fd, d, budget)
    family_ok = construct.is_isotropic_family(fd, found) if found else True
    ok = (found is not None) == expect_found and family_ok
    return ExperimentReport(
        name="iso-search",
        claim="exhaustive search settles whether three mutually orthogonal, independent isotropic vectors exist",
        params={"field": fd.label(), "d": d, "expect_found": expect_found},
        per_trial=[
            {
                "trial": 0,
                "found": found is not None,
                "vectors": [list(v) for v in found] if found else None,
                "family_ok": family_ok,
                "ok": ok,
            }
        ],
        verdict=_verdict([ok]),
    )


PROPERTY_DIMS = (2, 3)
MATRIX_POOL = 32  # seeded orthogonal matrices per dimension


def run_properties(fd: ff.Field, cases: int, seed: int) -> ExperimentReport:
    """Randomized spread laws: symmetry, scaling invariance, rigid-motion
    invariance, and agreement of the order-2 simplex spread with spread(),
    undefined cases included.

    Case i is a triple (a, b, c) in F_q^d, d cycling through PROPERTY_DIMS,
    with scalars r, t, a pool matrix M and a shift z.  The laws compare
    spread(a, b, c) with spread(a, c, b), spread(a, a + r(b-a), a + t(c-a))
    and spread(Ma + z, Mb + z, Mc + z), all from ``geom.arm_spreads`` on
    logs, and with the order-2 spread from ``geom.arm_k_spreads``, which
    takes the Gram determinant by elimination instead of the one gather.

    The cases of each dimension d are drawn in bulk, one column group at a
    time, each from its own ``random.Random`` seeded with the string
    f"{trial_seed(seed, q)} d={d} {group}": group abc gives a, b, c (3d
    values below q per case), rt gives r, t (1 + a value below q - 1), pick
    the matrix index (below MATRIX_POOL) and z the shift (d values below
    q), in case order.  ``_uniform_below`` gives the law of one value.
    `examples` lists the first three failing (case, law) pairs, by case and
    then in the law order above.
    """
    _check_trials(cases, "cases")
    q, dims = fd.q, len(PROPERTY_DIMS)

    def arms(apex, *points):
        neg = fd.log_neg(apex)
        return [fd.log_add(p, neg) for p in points]

    def spread(apex, b, c):
        return geom.arm_spreads(fd, *arms(apex, b, c))

    def scaled(apex, p, r):  # apex + r (p - apex)
        return fd.log_add(apex, fd.log_mul(arms(apex, p)[0], fd.log[r][:, None]))

    kinds = ("symmetry", "scaling", "rigid", "k2")
    failed = np.zeros((cases, len(kinds)), dtype=bool)
    triples = {}  # d -> (cases of dimension d, 3d) element indices of a, b, c
    for j, d in enumerate(PROPERTY_DIMS):
        n = len(range(j, cases, dims))
        tag = f"{trial_seed(seed, q)} d={d}"
        triples[d] = _uniform_below(random.Random(f"{tag} abc"), q, (n, 3 * d))
        a, b, c = (fd.log[triples[d][:, k * d : (k + 1) * d]] for k in range(3))
        r, t = (1 + _uniform_below(random.Random(f"{tag} rt"), q - 1, (n, 2))).T
        pick = _uniform_below(random.Random(f"{tag} pick"), MATRIX_POOL, (n,))
        z = fd.log[_uniform_below(random.Random(f"{tag} z"), q, (n, d))]
        pool = geom.random_orthogonals(fd, d, [trial_seed(seed, 1000 * d + i) for i in range(MATRIX_POOL)])
        m = fd.log[np.array(pool)][pick]  # (N, d, d)
        ma, mb, mc = (fd.log_add(fd.log_dot(m, p[:, None, :]), z) for p in (a, b, c))
        s = spread(a, b, c)
        failed[j::dims] = np.stack(
            [
                spread(a, c, b) != s,
                spread(a, scaled(a, b, r), scaled(a, c, t)) != s,
                spread(ma, mb, mc) != s,
                geom.arm_k_spreads(fd, np.stack(arms(a, b, c), axis=1)) != s,
            ],
            axis=-1,
        )
    examples = []
    for i, k in itertools.islice(zip(*np.nonzero(failed)), 3):
        d = PROPERTY_DIMS[i % dims]
        a, b, c = triples[d][i // dims].reshape(3, d).tolist()
        examples.append({"kind": kinds[k], "a": a, "b": b, "c": c})
    fails = {kind: int(n) for kind, n in zip(kinds, failed.sum(axis=0))}
    total = sum(fails.values())
    return ExperimentReport(
        name="properties",
        claim="spread is symmetric, scaling-invariant, rigid-motion-invariant, and matches the order-2 simplex spread",
        params={"field": fd.label(), "cases": cases, "seed": seed, "dims": list(PROPERTY_DIMS)},
        per_trial=[{"trial": 0, "failures": fails, "examples": examples, "ok": total == 0}],
        verdict=_verdict([total == 0]),
    )


def _uniform_below(rng: random.Random, bound: int, shape: tuple) -> np.ndarray:
    """Exact-uniform integers in [0, bound), filled into `shape` row by row.

    Each value reads rng's next 32-bit words: the top (bound - 1).bit_length()
    bits of a word, kept when below bound, so no float is involved.  One
    getrandbits(32 * m) call holds the next m words, least significant
    first, exactly as m getrandbits(32) calls would give them; a chunk that
    keeps too few values is followed by another.
    """
    count, bits = math.prod(shape), (bound - 1).bit_length()
    out = np.empty(0, dtype=np.int64)
    while len(out) < count:
        m = ((count - len(out)) << bits) // bound + 64  # about 64 spare values
        words = np.frombuffer(rng.getrandbits(32 * m).to_bytes(4 * m, "little"), dtype="<u4")
        top = words.astype(np.int64) >> (32 - bits)
        out = np.concatenate([out, top[top < bound]])
    return out[:count].reshape(shape)


# -- acceptance suite ------------------------------------------------------------


def _plane_lines(fd: ff.Field, budget: int) -> ExperimentReport:
    """The full plane F_q^2 spans exactly q (q + 1) lines."""
    cen = census.spanned_lines(geom.all_points(fd, 2, budget), budget)
    expected = fd.q * (fd.q + 1)
    ok = cen.lines == expected
    return ExperimentReport(
        name="plane-lines",
        claim="the full plane spans exactly q*(q+1) lines",
        params={"field": fd.label(), "d": 2},
        per_trial=[{"trial": 0, "lines": cen.lines, "expected": expected, "ok": ok}],
        verdict=_verdict([ok]),
    )


def _reproducibility(seed: int, budget: int) -> ExperimentReport:
    """Two seeded bode runs serialize to the same bytes, and a census of
    con2 on F_5^3 matches a stacked census of the set in its own and in
    reverse point order."""
    fd3 = ff.Field(3)
    first = run_bode(fd3, 5, seed, budget=budget).to_json()
    second = run_bode(fd3, 5, seed, budget=budget).to_json()
    json_ok = first == second
    ps = construct.con2_set(ff.Field(5), 3, budget)
    # The census runs on one thread; the worker-count key and claim keep
    # their names so the seeded battery JSON stays byte-identical.
    reversed_ps = geom.PointSet(ps.field, ps.dim, ps.points[::-1])
    alone = census.distinct_spreads(ps, budget)
    census_ok = census.spread_censuses([ps, reversed_ps], budget) == [alone, alone]
    ok = json_ok and census_ok
    return ExperimentReport(
        name="reproducibility",
        claim="identical seeds give byte-identical reports; census results do not depend on worker count",
        params={"seed": seed},
        per_trial=[
            {"trial": 0, "json_identical": json_ok, "census_worker_independent": census_ok, "ok": ok}
        ],
        verdict=_verdict([ok]),
    )


def acceptance_suite(seed: int = 0, budget: int = geom.DEFAULT_ENUM_BUDGET) -> list[ExperimentReport]:
    """The full desk-scale verification battery, 34 reports in a fixed
    order; `budget` bounds every enumeration and census in it."""
    return [
        *(
            run_constructions(ff.Field(q), d, budget)
            for q, d in ((5, 2), (5, 4), (13, 2), (3, 4), (7, 4), (5, 3), (13, 3), (3, 5))
        ),
        *(run_bode(ff.parse_field(s), 100, seed, budget=budget) for s in ("3^1", "5^1", "7^1", "3^2")),
        *(run_iso_search(ff.Field(p), d, found, budget) for p, d, found in ((3, 6, False), (5, 6, True), (3, 8, True))),
        *(
            report
            for fd in map(ff.Field, (5, 7, 11))
            for report in (run_beck(fd, 2, Fraction(1), 100, seed, budget), _plane_lines(fd, budget))
        ),
        *(run_projection(ff.Field(5), 4, k, 25, 200, seed, budget) for k in (2, 4)),
        *(run_sphere_equiv(ff.Field(q), d, budget) for q, d in ((5, 2), (7, 2), (5, 3), (7, 3))),
        *(run_properties(ff.parse_field(s), 10_000, seed) for s in ("5^1", "7^1", "3^2", "13^1")),
        *(run_sphere_distance(ff.Field(q), 3, Fraction(2), 20, seed, budget) for q in (5, 7)),
        _reproducibility(seed, budget),
    ]

"""Acceptance battery: every desk-scale claim the package is built to verify,
with exact thresholds and wall-clock budgets.  Each test prints one
machine-greppable [acceptance] line before asserting.

(2q-1)-point planar sets: the spread is scale-invariant, so it depends only
on the two arm directions, and the whole plane F_q^2 admits exactly (q+1)/2
(q = 1 mod 4) or (q+3)/2 (q = 3 mod 4) defined spread values.  No subset can
determine q of them once q > 3.  test_two_q_minus_one therefore checks what
does hold: every seeded trial determines the whole plane's value set, taken
from a table-free oracle, and run_bode's exactly-q verdict passes only where
the plane count equals q (q = 3) and reports fail for q in {5, 7, 9}.  See
"Expected acceptance results" in README.md.

Every criterion reads its reports, selected by name, from one seeded run of
the whole battery, ``expt.acceptance_suite(seed=0)``, and holds that run's
wall time to its own bound.
"""

import time
from fractions import Fraction

import pytest
from conftest import naive_plane_spread_values

from fqspread import census, construct, expt
from fqspread.ff import Field, parse_field
from fqspread.geom import PointSet


@pytest.fixture(scope="module")
def battery():
    """The seed-0 battery's reports and its wall time in seconds."""
    started = time.monotonic()
    reports = expt.acceptance_suite(seed=0)
    return reports, time.monotonic() - started


def _reports(battery, *names):
    return [r for r in battery[0] if r.name in names]


def _line(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")


def test_battery_shape(battery):
    # the 34 reports in their fixed order; only the k = d projection
    # demands zero collisions in every trial
    reports, _ = battery
    assert [(r.name, r.params.get("field"), r.params.get("d")) for r in reports] == [
        *(("constructions", f, d) for f, d in (("5^1", 2), ("5^1", 4), ("13^1", 2), ("3^1", 4), ("7^1", 4))),
        *(("constructions", f, d) for f, d in (("5^1", 3), ("13^1", 3), ("3^1", 5))),
        *(("bode", f, 2) for f in ("3^1", "5^1", "7^1", "3^2")),
        *(("iso-search", f, d) for f, d in (("3^1", 6), ("5^1", 6), ("3^1", 8))),
        *((name, f, 2) for f in ("5^1", "7^1", "11^1") for name in ("beck", "plane-lines")),
        ("projection", "5^1", 4),
        ("projection", "5^1", 4),
        *(("sphere-equiv", f, d) for f, d in (("5^1", 2), ("7^1", 2), ("5^1", 3), ("7^1", 3))),
        *(("properties", f, None) for f in ("5^1", "7^1", "3^2", "13^1")),
        *(("sphere-distance", f, 3) for f in ("5^1", "7^1")),
        ("reproducibility", None, None),
    ]
    zero = [(r.params["k"], r.params["d"]) for r in reports if r.params.get("expect_zero")]
    assert zero == [(4, 4)]
    assert [r.params["k"] for r in _reports(battery, "projection")] == [2, 4]


def test_constructions_sharpness(battery):
    # con1 on (5,2),(5,4),(13,2),(3,4),(7,4): exactly q^(d/2) points, zero
    # defined spreads; con2 on (5,3),(13,3),(3,5): exactly q^((d+1)/2)
    # points, at most one distinct defined spread.  Exact, < 60 s total.
    reports, elapsed = _reports(battery, "constructions"), battery[1]
    ok = all(r.passed for r in reports) and elapsed < 60
    details = ", ".join(
        f"{r.params['field']}/d={r.params['d']}:{r.per_trial[0]['defined_count']}"
        for r in reports
    )
    _line("constructions-sharpness", ok, f"{details}; {elapsed:.1f}s")
    assert len(reports) == 8
    for r in reports:
        rec = r.per_trial[0]
        assert rec["n_points"] == rec["expected_size"], r.params
        if r.params["d"] % 2 == 0:
            assert rec["defined_count"] == 0, r.params
        else:
            assert rec["defined_count"] <= 1, r.params
    assert elapsed < 60


@pytest.mark.parametrize("spec", ["3^1", "5^1", "7^1", "3^2"])
def test_two_q_minus_one(battery, spec):
    # 100 seeded random subsets of F_q^2 of size 2q-1, each asserted to
    # determine every defined spread value of the whole plane, and the
    # exactly-q verdict asserted to hold only where the plane reaches q.
    # Exact per trial, < 120 s.
    fd = parse_field(spec)
    q = fd.q
    plane = naive_plane_spread_values(fd)
    plane_count = (q + 1) // 2 if q % 4 == 1 else (q + 3) // 2
    (report,) = [r for r in _reports(battery, "bode") if r.params["field"] == fd.label()]
    elapsed = battery[1]
    misses = [r["trial"] for r in report.per_trial if r["defined_values"] != plane]
    trial_flags_ok = all(r["ok"] == (r["defined_count"] == q) for r in report.per_trial)
    ok = (
        len(plane) == plane_count
        and len(report.per_trial) == 100
        and not misses
        and trial_flags_ok
        and report.passed == (plane_count == q)
        and elapsed < 120
    )
    _line(
        f"two-q-minus-one[{spec}]",
        ok,
        f"plane={plane}, {100 - len(misses)}/100 trials reach it, "
        f"exactly-q verdict={report.verdict}; {elapsed:.1f}s",
    )
    assert elapsed < 120
    assert len(plane) == plane_count, plane
    assert len(report.per_trial) == 100
    assert not misses, f"trials {misses} miss a plane spread value of {plane}"
    assert trial_flags_ok, "a trial's ok flag disagrees with defined_count == q"
    assert report.passed == (plane_count == q), report.verdict


def test_isotropic_triple_search(battery):
    # No mutually orthogonal independent isotropic triple in F_3^6; triples
    # exist in F_5^6 and F_3^8 and match the block constructions.  Exact, < 60 s.
    reports, elapsed = _reports(battery, "iso-search"), battery[1]
    lemma_ok = all(
        construct.is_isotropic_family(fd, construct.iso_family(fd, d)[:3])
        for fd, d in ((Field(5), 6), (Field(3), 8))
    )
    ok = all(r.passed for r in reports) and lemma_ok and elapsed < 60
    _line(
        "isotropic-triple-search",
        ok,
        ", ".join(
            f"{r.params['field']}/d={r.params['d']}:"
            f"{'found' if r.per_trial[0]['found'] else 'none'}"
            for r in reports
        )
        + f"; {elapsed:.1f}s",
    )
    assert elapsed < 60
    assert lemma_ok
    assert [r.per_trial[0]["found"] for r in reports] == [False, True, True]
    for r in reports:
        assert r.passed, r.params


def test_line_floor(battery):
    # q in {5,7,11}, d=2, eps=1 (alpha = 1/3): 100 seeded sets of size 2q
    # each span at least ceil(q^2/3) lines; the full plane spans exactly
    # q(q+1).  Exact per trial, < 60 s.
    reports, elapsed = _reports(battery, "beck", "plane-lines"), battery[1]
    ok = all(r.passed for r in reports) and elapsed < 60
    _line("line-floor", ok, f"{len(reports)} sub-reports; {elapsed:.1f}s")
    assert elapsed < 60
    assert len(reports) == 6
    for r in reports:
        assert r.passed, (r.name, r.params)
        if r.name == "beck":
            q = parse_field(r.params["field"]).q
            floor = -((-q * q) // 3)  # ceil(q^2 / 3)
            assert all(rec["lines"] >= floor for rec in r.per_trial)


def test_projection_collisions(battery):
    # F_5, d=4, k=2, 25 points, 200 seeded projections: mean collisions
    # <= 1.2 * C(25,2) / 25 = 14.4; the k=d control never collides.
    # Statistical with the 20% slack baked into the bound, < 30 s.
    (main, control), elapsed = _reports(battery, "projection"), battery[1]
    mean = Fraction(main.extras["mean_collisions"])
    ok = main.passed and control.passed and elapsed < 30
    _line("projection-collisions", ok, f"mean={float(mean):.3f} <= 14.4; {elapsed:.1f}s")
    assert elapsed < 30
    assert mean <= Fraction(72, 5)
    assert main.passed
    assert control.passed
    assert all(rec["collisions"] == 0 for rec in control.per_trial)


def test_sphere_equivalence(battery):
    # Exhaustive biconditional over all defined quadruples on S1 for
    # (5,2), (7,2), (5,3), (7,3): zero violations.  Exact, < 120 s.
    reports, elapsed = _reports(battery, "sphere-equiv"), battery[1]
    ok = all(r.passed for r in reports) and elapsed < 120
    checked = sum(r.per_trial[0]["quadruples_checked"] for r in reports)
    _line("sphere-equivalence", ok, f"{checked} quadruples, 0 violations; {elapsed:.1f}s")
    assert elapsed < 120
    assert len(reports) == 4
    for r in reports:
        assert r.per_trial[0]["violations"] == 0, r.params
        assert r.passed


def test_spread_property_suite(battery):
    # 10,000 randomized cases per field over q in {5,7,9,13}: symmetry,
    # scaling invariance, rigid-motion invariance, order-2 agreement,
    # undefined cases included.  Zero failures, < 60 s.
    reports, elapsed = _reports(battery, "properties"), battery[1]
    ok = all(r.passed for r in reports) and elapsed < 60
    _line(
        "spread-property-suite",
        ok,
        f"4 fields x 10000 cases, failures="
        f"{[sum(r.per_trial[0]['failures'].values()) for r in reports]}; {elapsed:.1f}s",
    )
    assert elapsed < 60
    assert [r.params["cases"] for r in reports] == [10_000] * 4
    for r in reports:
        assert r.per_trial[0]["failures"] == {
            "symmetry": 0,
            "scaling": 0,
            "rigid": 0,
            "k2": 0,
        }, r.params


def test_sphere_distance_floor(battery):
    # q in {5,7}, d=3, C=2, 20 trials: nonzero-distance count meets
    # min(floor(q/2), floor(C*q/4)) in every trial.  Exact, < 60 s.
    reports, elapsed = _reports(battery, "sphere-distance"), battery[1]
    ok = all(r.passed for r in reports) and elapsed < 60
    _line(
        "sphere-distance-floor",
        ok,
        ", ".join(f"{r.params['field']}:thr={r.params['threshold']}" for r in reports)
        + f"; {elapsed:.1f}s",
    )
    assert elapsed < 60
    assert len(reports) == 2
    for r in reports:
        assert r.passed, r.params
        threshold = r.params["threshold"]
        assert all(rec["nonzero_distances"] >= threshold for rec in r.per_trial)


def test_reproducibility():
    # Same seed, same bytes; a census does not depend on the point order.
    rep1 = expt.run_bode(Field(3), 10, 0).to_json()
    rep2 = expt.run_bode(Field(3), 10, 0).to_json()
    beck1 = expt.run_beck(Field(5), 2, Fraction(1), 10, 0).to_json()
    beck2 = expt.run_beck(Field(5), 2, Fraction(1), 10, 0).to_json()
    proj1 = expt.run_projection(Field(5), 4, 2, 25, 20, 0).to_json()
    proj2 = expt.run_projection(Field(5), 4, 2, 25, 20, 0).to_json()
    ps = construct.con2_set(Field(5), 3)
    json_ok = rep1 == rep2 and beck1 == beck2 and proj1 == proj2
    reversed_ps = PointSet(ps.field, ps.dim, ps.points[::-1])
    census_ok = census.distinct_spreads(ps) == census.distinct_spreads(reversed_ps)
    ok = json_ok and census_ok
    _line("reproducibility", ok, f"json_identical={json_ok}, worker_independent={census_ok}")
    assert json_ok
    assert census_ok

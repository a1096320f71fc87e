import json
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import naive_below, naive_run_properties

from fqspread import census, errors, expt, geom
from fqspread.expt import (
    alpha,
    ceil_scaled_power,
    run_beck,
    run_bode,
    run_constructions,
    run_iso_search,
    run_projection,
    run_properties,
    run_sphere_distance,
    run_sphere_equiv,
    run_threshold,
    trial_seed,
)
from fqspread.ff import Field

F3 = Field(3)
F5 = Field(5)
F7 = Field(7)
F9 = Field(3, 2)


def test_alpha_spot_values():
    assert alpha(Fraction(1, 2)) == Fraction(1, 7)
    assert alpha(Fraction(1)) == Fraction(1, 3)
    assert alpha(Fraction(2)) == Fraction(4, 7)
    assert alpha(Fraction(4)) == Fraction(16, 21)


def test_alpha_bounds_and_monotonicity():
    prev = Fraction(0)
    for k in range(1, 30):
        eps = Fraction(k, 4)
        a = alpha(eps)
        assert 0 < a < 1
        assert a < eps * eps
        assert a > prev
        prev = a


def test_ceil_scaled_power_exact():
    assert ceil_scaled_power(Fraction(2), 5, 3) == 23  # ceil(2 * 5^1.5)
    assert ceil_scaled_power(Fraction(2), 7, 3) == 38
    assert ceil_scaled_power(Fraction(3, 2), 5, 4) == 38  # ceil(1.5 * 25)
    assert ceil_scaled_power(Fraction(1), 9, 2) == 9
    # exact boundary: no float fuzz allowed
    assert ceil_scaled_power(Fraction(5), 25, 1) == 25


def test_trial_seed_distinct():
    seeds = {trial_seed(0, i) for i in range(100)} | {trial_seed(1, i) for i in range(100)}
    assert len(seeds) == 200


def test_run_bode_q3_passes():
    rep = run_bode(F3, 20, 0)
    assert rep.passed
    assert all(r["defined_count"] == 3 for r in rep.per_trial)
    assert rep.params["size"] == 5


def test_run_bode_full_plane_q3():
    rep = run_bode(F3, 0, 0, full_plane=True)
    assert rep.passed
    assert rep.per_trial[0]["size"] == 9
    assert rep.per_trial[0]["defined_values"] == [0, 1, 2]


def test_run_bode_q5_reports_honest_failure():
    # The plane of F_5 admits only three spread values, so the exactly-q
    # claim cannot hold; the runner must say so rather than pass.
    rep = run_bode(F5, 10, 0)
    assert rep.verdict == "fail"
    assert all(r["defined_count"] == 3 for r in rep.per_trial)


def test_report_json_reproducible():
    a = run_bode(F3, 10, 7).to_json()
    b = run_bode(F3, 10, 7).to_json()
    assert a == b
    c = run_bode(F3, 10, 8).to_json()
    assert a != c
    parsed = json.loads(a)
    assert parsed["verdict"] == "pass"
    assert len(parsed["per_trial"]) == 10


def test_reproducibility_census_sees_point_order(monkeypatch):
    # a census kernel whose result depends on point order fails the check,
    # which a census compared with itself could not see
    kernel = census._spread_histograms

    def order_dependent(fd, logs, *mode):
        hist = kernel(fd, logs, *mode)
        for row, first in zip(hist, logs[:, 0, 0]):  # each set's first coordinate, as a log
            row[int(first) % fd.q] += 1
            row[-1] -= 1
        return hist

    budget = geom.DEFAULT_ENUM_BUDGET
    assert expt._reproducibility(0, budget).per_trial[0]["census_worker_independent"] is True
    monkeypatch.setattr(census, "_spread_histograms", order_dependent)
    rep = expt._reproducibility(0, budget)
    assert rep.per_trial[0]["census_worker_independent"] is False
    assert rep.per_trial[0]["json_identical"] is True
    assert rep.verdict == "fail"


def test_run_threshold_even_d():
    rep = run_threshold(F5, 4, Fraction(1, 2), 5, 0)
    assert rep.passed
    assert rep.params["size"] == 38
    assert all(r["defined_count"] >= 1 for r in rep.per_trial)


def test_run_threshold_odd_d_embeds():
    rep = run_threshold(F5, 3, Fraction(1, 2), 3, 0)
    assert rep.params["size"] == 38  # ceil(1.5 * 5^2)
    assert rep.passed


def test_run_threshold_adversarial_shows_sharp_counts():
    even = run_threshold(F5, 4, Fraction(1, 2), 1, 0, adversarial=True)
    assert even.passed
    assert even.per_trial[0]["defined_count"] == 0
    odd = run_threshold(F5, 3, Fraction(1, 2), 1, 0, adversarial=True)
    assert odd.passed
    assert odd.per_trial[0]["defined_count"] <= 1


def test_run_threshold_size_guard():
    with pytest.raises(errors.SizeExceeded):
        run_threshold(F3, 2, Fraction(5), 1, 0)
    # epsilon <= -1 leaves no points to sample (-5 gave size -20 and a pass)
    for eps in (Fraction(-5), Fraction(-1)):
        for adversarial in (False, True):
            with pytest.raises(errors.TooFewPoints):
                run_threshold(F5, 2, eps, 2, 0, adversarial=adversarial)


def test_run_threshold_rejects_zero_floor():
    # floor(q/4) = 0 on F_3, so every random set would pass
    with pytest.raises(errors.VacuousBound):
        run_threshold(F3, 2, Fraction(1), 2, 0)
    # the adversarial construction is still held to its sharp count
    rep = run_threshold(F3, 4, Fraction(1), 2, 0, adversarial=True)
    assert rep.params["floor"] == 0
    assert rep.per_trial[0]["ok"] == (rep.per_trial[0]["defined_count"] == 0)


def test_run_beck():
    rep = run_beck(F5, 2, Fraction(1), 30, 0)
    assert rep.passed
    assert rep.params["size"] == 10
    assert rep.params["line_bound"] == "25/3"
    assert all(r["lines"] >= 9 for r in rep.per_trial)


def test_run_beck_rejects_zero_epsilon(monkeypatch):
    # alpha(0) = 0 makes the line bound 0, which every set meets
    drawn = count_draws(monkeypatch)
    with pytest.raises(errors.VacuousBound):
        run_beck(F7, 2, Fraction(0), 3, 0)
    assert drawn == []


def test_run_projection_bounds():
    rep = run_projection(F5, 4, 2, 25, 50, 0)
    assert rep.passed
    mean = Fraction(rep.extras["mean_collisions"])
    assert mean <= Fraction(72, 5)
    best = rep.extras["min_collision_trial"]
    assert best["image_size"] >= 25 - best["collisions"]


def test_run_projection_k_equals_d_zero_collisions():
    # a rank-d projection is injective, so k = d demands zero collisions in
    # every trial, and only k = d does
    rep = run_projection(F5, 4, 4, 25, 50, 0)
    assert rep.passed
    assert rep.params["expect_zero"] is True
    assert all(r["collisions"] == 0 for r in rep.per_trial)
    assert run_projection(F5, 4, 3, 25, 5, 0).params["expect_zero"] is False


def test_run_projection_rejects_degenerate_sizes():
    # fewer than 2 points have no pair to collide, so any verdict is vacuous
    for n_points in (0, 1):
        with pytest.raises(errors.TooFewPoints):
            run_projection(F5, 4, 4, n_points, 20, 0)
    with pytest.raises(errors.SizeExceeded):
        run_projection(F5, 4, 2, 5**4 + 1, 2, 0)
    assert run_projection(F5, 4, 2, 5**4, 1, 0).params["n_points"] == 5**4


def test_run_constructions():
    even = run_constructions(F5, 2)
    assert even.passed
    assert even.per_trial[0]["kind"] == "con1"
    assert even.per_trial[0]["n_points"] == 5
    odd = run_constructions(F5, 3)
    assert odd.passed
    assert odd.per_trial[0]["kind"] == "con2"
    assert odd.per_trial[0]["defined_values"] in ([], [0])


def test_run_sphere_distance():
    rep = run_sphere_distance(F5, 3, Fraction(2), 5, 0)
    assert rep.passed
    assert rep.params["size"] == 23
    assert rep.params["threshold"] == 2


def test_run_sphere_distance_guards():
    with pytest.raises(errors.SphereTooSmall):
        run_sphere_distance(F5, 2, Fraction(2), 1, 0)
    with pytest.raises(errors.SphereTooSmall):
        run_sphere_distance(F5, 3, Fraction(100), 1, 0)
    # C <= 0 gave a negative threshold and a pass
    for c in (Fraction(-1), Fraction(0)):
        with pytest.raises(errors.TooFewPoints):
            run_sphere_distance(F5, 3, c, 1, 0)
    # 0 < C < 4/q floors C q / 4 to a threshold of 0, which every set meets
    for c in (Fraction(1, 2), Fraction(3, 4)):
        with pytest.raises(errors.TooFewPoints):
            run_sphere_distance(F5, 3, c, 1, 0)
    assert run_sphere_distance(F5, 3, Fraction(4, 5), 1, 0).params["threshold"] == 1


def test_run_sphere_equiv():
    rep = run_sphere_equiv(F5, 2)
    assert rep.passed
    assert rep.per_trial[0]["violations"] == 0


def test_run_iso_search():
    none_case = run_iso_search(F3, 6, expect_found=False)
    assert none_case.passed
    found_case = run_iso_search(F5, 6, expect_found=True)
    assert found_case.passed
    assert found_case.per_trial[0]["family_ok"]
    mismatch = run_iso_search(F3, 6, expect_found=True)
    assert not mismatch.passed


def test_run_properties_small():
    for fd in (F5, F9):
        rep = run_properties(fd, 400, 0)
        assert rep.passed, rep.per_trial
        assert rep.per_trial[0]["failures"] == {
            "symmetry": 0,
            "scaling": 0,
            "rigid": 0,
            "k2": 0,
        }


F13 = Field(13)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fd", [F5, F7, F9, F13], ids=lambda fd: fd.label())
def test_run_properties_matches_scalar_oracle(fd, seed):
    assert run_properties(fd, 2000, seed).to_json() == naive_run_properties(fd, 2000, seed).to_json()


def _shifted_k_spreads(arm_k_spreads):
    # every defined order-k spread moved to s + 1
    def shifted(fd, arms, budget=geom.DEFAULT_ENUM_BUDGET):
        s = arm_k_spreads(fd, arms, budget)
        return np.where(s < 0, s, fd.exp[fd.log_add(fd.log[np.maximum(s, 0)], fd.log[1])])

    return shifted


def _diagonal(fd, d, seeds):
    # diag(1, 3[, 1]) per seed: 3^2 != 1 in all four fields (2 = -1 in F_9,
    # so diag(1, 2) would be orthogonal there)
    m = tuple(tuple((3 if i == 1 else 1) if i == j else 0 for j in range(d)) for i in range(d))
    return [m] * len(seeds)


# mutant name: (geom attribute replaced, law it breaks, replacement)
_MUTANTS = {
    "k_spread": ("arm_k_spreads", "k2", _shifted_k_spreads(geom.arm_k_spreads)),
    "random_orthogonal": ("random_orthogonals", "rigid", _diagonal),
}


@pytest.mark.parametrize("fd", [F5, F7, F9, F13], ids=lambda fd: fd.label())
@pytest.mark.parametrize("names", [["k_spread"], ["random_orthogonal"], list(_MUTANTS)], ids="+".join)
def test_run_properties_failure_path_matches_oracle(monkeypatch, fd, names):
    # broken laws must be reported with the oracle's counts and examples;
    # with both broken, one case fails two laws and examples keep law order.
    # The k2 mutant breaks the batched order-k spread, which the oracle
    # reads through the one-case geom.k_spread.
    for name in names:
        attr, _, mutant = _MUTANTS[name]
        monkeypatch.setattr(geom, attr, mutant)
    rep = run_properties(fd, 2000, 0)
    assert rep.to_json() == naive_run_properties(fd, 2000, 0).to_json()
    assert rep.verdict == "fail"
    assert all(rep.per_trial[0]["failures"][_MUTANTS[name][1]] > 0 for name in names)
    assert len(rep.per_trial[0]["examples"]) == 3


class CountingRandom(random.Random):
    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


@pytest.mark.parametrize("bound", [1, 2, 3, 5, 9, 13, 32, 2**31 + 1, 2**32])
def test_uniform_below_reads_one_word_at_a_time(bound):
    # the bulk draw equals the one-word scalar law, short chunks included
    chunks = []
    for seed in range(60):
        rng = CountingRandom(f"{seed}")
        got = expt._uniform_below(rng, bound, (250, 4))
        ref = random.Random(f"{seed}")
        assert got.shape == (250, 4)
        assert got.ravel().tolist() == [naive_below(ref, bound) for _ in range(1000)]
        chunks.append(rng.calls)
    if bound == 2**31 + 1:  # about half the words are rejected
        assert max(chunks) > 1
    assert expt._uniform_below(random.Random(0), bound, (0, 3)).shape == (0, 3)


def test_properties_reproducible():
    assert run_properties(F5, 200, 3).to_json() == run_properties(F5, 200, 3).to_json()


def test_sampling_law_is_shuffle_prefix():
    import random

    universe = geom.all_points(F3, 2).points
    rng = random.Random(trial_seed(4, 0))
    expected_pool = list(universe)
    rng.shuffle(expected_pool)
    rep = run_bode(F3, 1, 4)
    # reconstruct the first trial's subset from the documented law
    sub = census.distinct_spreads(
        geom.PointSet(F3, 2, expected_pool[:5])
    ).defined_count
    assert rep.per_trial[0]["defined_count"] == sub


def count_draws(monkeypatch):
    """Wraps expt.sample_prefix; the list returned collects one entry per
    trial drawn."""
    drawn = []
    sample = expt.sample_prefix

    def counting(universe, size, rng):
        drawn.append(size)
        return sample(universe, size, rng)

    monkeypatch.setattr(expt, "sample_prefix", counting)
    return drawn


def test_census_gates_come_before_the_space_is_built(monkeypatch):
    # F_31^4 and F_1021^2 pass the q^d gate, but no set of their sample
    # sizes passes the census gate: each refuses before F_q^d is built
    def built(*args, **kwargs):
        raise AssertionError("built F_q^d")

    monkeypatch.setattr(geom, "all_points", built)
    with pytest.raises(errors.BudgetExceeded, match=r"n\^3 = 7100029448 "):
        run_threshold(Field(31), 4, Fraction(1), 1, 0)
    with pytest.raises(errors.BudgetExceeded, match=r"n\^2 = 3550014724 "):
        run_beck(Field(31), 4, Fraction(1), 1, 0)
    with pytest.raises(errors.BudgetExceeded, match=r"n\^3 = 8502154921 "):
        run_bode(Field(1021), 1, 0)
    with pytest.raises(errors.BudgetExceeded, match=r"n\^3 = 148035889 "):  # the 529-point plane
        run_bode(Field(23), 1, 0, full_plane=True)
    # the q^d gate keeps its place ahead of the census gate
    with pytest.raises(errors.BudgetExceeded, match=r"q\^d = 923521 "):
        run_threshold(Field(31), 4, Fraction(1), 1, 0, budget=10**5)
    with pytest.raises(errors.BudgetExceeded, match=r"q\^d = 923521 "):
        run_beck(Field(31), 4, Fraction(1), 1, 0, budget=10**5)
    # a projection's k is checked after the q^d gate and before F_q^d is built
    for k in (0, 5):
        with pytest.raises(errors.DimensionMismatch):
            run_projection(Field(31), 4, k, 10, 1, 0)
    with pytest.raises(errors.BudgetExceeded, match=r"q\^d = 923521 "):
        run_projection(Field(31), 4, 0, 10, 1, 0, budget=10**5)
    # the 1,458-point samples of F_3^12's unit sphere fail the pair gate
    # before the sphere is walked
    monkeypatch.setattr(geom, "sphere_points", built)
    with pytest.raises(errors.BudgetExceeded, match=r"n\^2 = 2125764 "):
        run_sphere_distance(Field(3), 12, Fraction(2), 1, 0, budget=10**6)


@pytest.mark.parametrize(
    "run, budget",
    [
        (lambda budget: run_bode(F5, 50, 0, budget=budget), 100),  # 9^3 triples
        (lambda budget: run_threshold(F7, 2, Fraction(1), 50, 0, budget=budget), 100),  # 14^3
        (lambda budget: run_beck(F7, 2, Fraction(1), 50, 0, budget=budget), 100),  # 14^2 pairs
    ],
)
def test_census_gate_runs_before_any_trial_is_drawn(monkeypatch, run, budget):
    drawn = count_draws(monkeypatch)

    def kernel_never_runs(fd, logs):
        raise AssertionError("kernel ran past the gate")

    monkeypatch.setattr(census, "_arm_classes", kernel_never_runs)
    with pytest.raises(errors.BudgetExceeded):
        run(budget)
    assert drawn == []


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_bode(F5, 0, 0),
        lambda: run_threshold(F7, 2, Fraction(1), 0, 0),
        lambda: run_beck(F5, 2, Fraction(1), 0, 0),
        lambda: run_projection(F5, 4, 2, 25, 0, 0),
        lambda: run_sphere_distance(F5, 3, Fraction(2), 0, 0),
        lambda: run_properties(F5, 0, 0),
    ],
    ids=["bode", "threshold", "beck", "projection", "sphere-distance", "properties"],
)
def test_zero_trials_are_rejected_before_any_draw(monkeypatch, run):
    # a verdict over no trials would be a vacuous pass
    drawn = count_draws(monkeypatch)
    with pytest.raises(errors.FormatError):
        run()
    assert drawn == []


def test_stacked_reports_draw_their_trials_lazily(monkeypatch):
    # stacks of 400 // (9 * 2 + 6) = 16 sets: the first kernel call runs
    # after 16 of the 40 trials are drawn, not all of them
    full = [run_bode(F5, 40, 2).to_json(), run_beck(F5, 2, Fraction(1), 40, 2).to_json()]
    monkeypatch.setattr(census, "_WINDOW_CELLS", 400)
    drawn = count_draws(monkeypatch)
    arm_classes = census._arm_classes
    first = []

    def recording(fd, logs):
        first.append(len(drawn))
        return arm_classes(fd, logs)

    monkeypatch.setattr(census, "_arm_classes", recording)
    assert run_bode(F5, 40, 2).to_json() == full[0]
    assert first[0] == 16 and len(drawn) == 40
    first.clear()
    drawn.clear()
    assert run_beck(F5, 2, Fraction(1), 40, 2).to_json() == full[1]  # 10 points a set
    assert first[0] == 400 // (10 * 2 + 6) and len(drawn) == 40


def test_stacked_reports_match_one_set_censuses():
    # each trial's record is what the one-set census of its draw gives
    universe = geom.all_points(F7, 2).points
    rep = run_threshold(F7, 2, Fraction(1), 6, 5)
    beck = run_beck(F7, 2, Fraction(1), 6, 5)
    for t, (r, b) in enumerate(zip(rep.per_trial, beck.per_trial)):
        ps = geom.PointSet(F7, 2, expt.sample_prefix(universe, 14, random.Random(trial_seed(5, t))))
        assert r["defined_count"] == census.distinct_spreads(ps).defined_count
        ln = census.spanned_lines(ps)
        assert (b["lines"], b["max_degree"]) == (ln.lines, ln.max_degree)

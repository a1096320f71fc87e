import argparse
import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqspread import cli, errors
from fqspread.ff import Field
from fqspread.geom import PointSet, sphere_points


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_field_info(capsys):
    code, out, _ = run_cli(capsys, "field", "info", "--field", "3^2")
    assert code == 0
    info = json.loads(out)
    assert info["p"] == 3 and info["r"] == 2 and info["q"] == 9
    assert info["modulus"] == [1, 0, 1]
    assert "base-p digits" in info["encoding"]


def test_spread_eval(capsys):
    code, out, _ = run_cli(
        capsys, "spread", "eval", "--field", "5^1", "--d", "2",
        "--apex", "0,0", "--b", "1,0", "--c", "0,1",
    )
    assert code == 0
    assert out == "Value(1)\n"


def test_spread_eval_undefined(capsys):
    code, out, _ = run_cli(
        capsys, "spread", "eval", "--field", "5^1", "--d", "2",
        "--apex", "0,0", "--b", "1,2", "--c", "0,1",
    )
    assert code == 0
    assert out == "Undefined\n"


def test_spread_eval_dimension_error(capsys):
    code, _, err = run_cli(
        capsys, "spread", "eval", "--field", "5^1", "--d", "3",
        "--apex", "0,0", "--b", "1,0", "--c", "0,1",
    )
    assert code == 1
    assert err.splitlines()[0] == "DimensionMismatch"


def test_error_code_is_first_stderr_line(capsys):
    code, _, err = run_cli(
        capsys, "spread", "eval", "--field", "4^1", "--d", "2",
        "--apex", "0,0", "--b", "1,0", "--c", "0,1",
    )
    assert code == 1
    assert err.splitlines()[0] == "NotPrime"


@pytest.mark.parametrize("spec", ["", "abc", "5^", "5^x"])
def test_malformed_field_spec_is_format_error(capsys, spec):
    code, out, err = run_cli(capsys, "field", "info", "--field", spec)
    assert (code, out) == (1, "")
    assert err.splitlines()[:2] == ["FormatError", f"detail: malformed field spec {spec!r}"]


def test_construct_con1_output(capsys):
    code, out, _ = run_cli(capsys, "construct", "con1", "--field", "5^1", "--d", "2")
    assert code == 0
    assert out == "q=5 d=2\n0,0\n1,2\n2,4\n3,1\n4,3\n"


def test_construct_iso(capsys):
    code, out, _ = run_cli(capsys, "construct", "iso", "--field", "3^1", "--d", "4")
    assert code == 0
    assert out == "q=3 d=4\n1,1,1,0\n0,2,1,1\n"


def test_construct_bad_residue(capsys):
    code, _, err = run_cli(capsys, "construct", "con2", "--field", "7^1", "--d", "3")
    assert code == 1
    assert err.splitlines()[0] == "BadResidue"


def test_sphere_and_census_roundtrip(tmp_path, capsys):
    pts = tmp_path / "sphere.txt"
    code, out, _ = run_cli(
        capsys, "sphere", "--field", "5^1", "--d", "2", "--t", "1", "--out", str(pts)
    )
    assert code == 0
    assert pts.read_text().startswith("q=5 d=2\n")

    code, out, _ = run_cli(capsys, "census", "distances", "--points", str(pts))
    assert code == 0
    body = json.loads(out)
    assert body["distance_values"] == [2, 4]
    assert body["nonzero_distance_values"] == [2, 4]
    assert body["n_points"] == 4
    assert "elapsed_ms" in body


def test_census_spreads_json(tmp_path, capsys):
    path = tmp_path / "p.txt"
    PointSet(Field(5), 2, [(0, 0), (1, 0), (2, 0), (0, 1)]).save(path)
    code, out, _ = run_cli(capsys, "census", "spreads", "--points", str(path))
    assert code == 0
    body = json.loads(out)
    assert body["field"] == "5^1"
    assert body["defined_count"] == len(body["defined_spread_values"])
    assert body["triples_scanned"] == 4 * 3 * 2


def test_census_csv(tmp_path, capsys):
    path = tmp_path / "p.txt"
    sphere_points(Field(5), 2, 1).save(path)
    code, out, _ = run_cli(
        capsys, "census", "distances", "--points", str(path), "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["value", "2", "4"]


def test_census_occurrences(tmp_path, capsys):
    path = tmp_path / "p.txt"
    PointSet(Field(5), 2, [(0, 0), (1, 0), (2, 0)]).save(path)
    code, out, _ = run_cli(
        capsys, "census", "occurrences", "--points", str(path), "--gamma", "0"
    )
    assert code == 0
    assert json.loads(out)["occurrences"] == 6


@pytest.mark.parametrize("workers", ["0", "-3", "two"])
@pytest.mark.parametrize("kind", ["spreads", "occurrences"])
def test_census_workers_must_be_positive(tmp_path, capsys, kind, workers):
    # 0 and negative counts ran serially with exit 0
    path = tmp_path / "p.txt"
    PointSet(Field(5), 2, [(0, 0), (1, 0), (2, 0)]).save(path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", kind, "--points", str(path), "--gamma", "0", "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def test_census_output_ignores_workers(tmp_path, capsys):
    path = tmp_path / "p.txt"
    sphere_points(Field(5), 3, 1).save(path)
    for kind in ("spreads", "distances", "lines", "occurrences"):
        bodies = []
        for workers in ("1", "3"):
            code, out, _ = run_cli(
                capsys, "census", kind, "--points", str(path), "--gamma", "1", "--workers", workers
            )
            assert code == 0
            body = json.loads(out)
            del body["elapsed_ms"]
            bodies.append(body)
        assert bodies[0] == bodies[1]


@pytest.mark.parametrize("kind", ["lines", "occurrences"])
def test_census_csv_without_value_list_rejected(tmp_path, capsys, kind):
    path = tmp_path / "p.txt"
    PointSet(Field(5), 2, [(0, 0), (1, 0), (2, 0)]).save(path)
    code, out, err = run_cli(
        capsys, "census", kind, "--points", str(path), "--gamma", "0", "--format", "csv"
    )
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == "FormatError"


def test_census_point_file_over_size_cap(tmp_path, capsys):
    # a prime order far above the cap: rejected before any O(q) factoring
    path = tmp_path / "big.txt"
    path.write_text("q=1000000007 d=2\n0,0\n1,0\n2,0\n")
    code, _, err = run_cli(capsys, "census", "spreads", "--points", str(path))
    assert code == 1
    assert err.splitlines()[0] == "SizeExceeded"


def test_field_info_over_size_cap(capsys):
    # 3^10000 is rejected from p and r alone, without forming or printing q
    code, _, err = run_cli(capsys, "field", "info", "--field", "3^10000")
    assert code == 1
    assert err.splitlines()[0] == "SizeExceeded"


@pytest.mark.parametrize(
    "header", ["q=5 d=2 x=3", "q=5 d=2 q=7", "q=5 d=2 d=2", "q=5", "d=2 q=5 q=5", "q=5 d=2=3", "q=5 d=2 ="]
)
def test_census_point_file_header_needs_one_q_and_one_d(tmp_path, capsys, header):
    path = tmp_path / "bad.txt"
    path.write_text(f"{header}\n0,0\n1,0\n2,0\n")
    code, out, err = run_cli(capsys, "census", "spreads", "--points", str(path))
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == "FormatError"


@pytest.mark.parametrize("d", [0, -3])
@pytest.mark.parametrize("command", [("census", "spreads"), ("kspread", "eval")], ids=" ".join)
def test_point_file_dimension_below_one_is_bad_dimension(tmp_path, capsys, d, command):
    # rejected at load time, not as TooFewPoints or BadArity of an empty set
    path = tmp_path / "bad.txt"
    path.write_text(f"q=5 d={d}\n")
    code, out, err = run_cli(capsys, *command, "--points", str(path))
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == "BadDimension"


def test_census_duplicate_points_rejected(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("q=5 d=2\n0,0\n0,0\n")
    code, _, err = run_cli(capsys, "census", "spreads", "--points", str(path))
    assert code == 1
    assert err.splitlines()[0] == "DuplicatePoint"


@pytest.mark.parametrize(
    "rows, code, detail",
    [
        ("4294967297,0", "FormatError", "coordinate out of range in (4294967297, 0)"),  # 1 in int32
        (f"{10**30},0", "FormatError", f"coordinate out of range in ({10**30}, 0)"),
        ("-1,0", "FormatError", "coordinate out of range in (-1, 0)"),
        ("1,1\n1,1\n9,9", "DuplicatePoint", "duplicate point (1, 1)"),  # the repeat comes first
    ],
)
def test_point_file_names_the_first_bad_point(tmp_path, capsys, rows, code, detail):
    path = tmp_path / "bad.txt"
    path.write_text(f"q=5 d=2\n0,0\n{rows}\n")
    status, out, err = run_cli(capsys, "census", "spreads", "--points", str(path))
    assert (status, out) == (1, "")
    assert err.splitlines() == [code, f"detail: {detail}"]


def test_kspread_eval(tmp_path, capsys):
    path = tmp_path / "k.txt"
    PointSet(Field(5), 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]).save(path)
    code, out, _ = run_cli(capsys, "kspread", "eval", "--points", str(path))
    assert code == 0
    assert out == "Value(1)\n"


def test_kspread_eval_honours_budget(tmp_path, capsys):
    # 201 points of F_5^200: k = d = 200, so the Gram matrix alone takes
    # k^2 d = 8,000,000 products; the budget stops it before any is taken
    path = tmp_path / "k.txt"
    pts = [(0,) * 200] + [tuple(1 if j in (i, (i + 1) % 200) else 0 for j in range(200)) for i in range(200)]
    PointSet(Field(5), 200, pts).save(path)
    started = time.monotonic()
    code, out, err = run_cli(capsys, "kspread", "eval", "--points", str(path), "--budget", "1000")
    assert time.monotonic() - started < 1.0
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == "BudgetExceeded"
    assert err.splitlines()[1] == "detail: N k^2 d = 8000000 exceeds budget 1000"


def test_search_iso_triple_none_found(capsys):
    code, out, _ = run_cli(
        capsys, "search", "iso-triple", "--field", "3^1", "--d", "6", "--format", "csv"
    )
    assert code == 0
    assert out == "NoneFound\n"


def test_search_iso_triple_json(capsys):
    code, out, _ = run_cli(capsys, "search", "iso-triple", "--field", "3^1", "--d", "6")
    assert code == 0
    body = json.loads(out)
    assert body["found"] is False and body["vectors"] is None


def test_experiment_constructions_passes(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "constructions", "--field", "5^1", "--d", "3"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] == "pass"
    assert rep["per_trial"][0]["defined_count"] <= 1


def test_experiment_exit_status_reflects_verdict(capsys):
    # the exactly-q claim fails for q = 5, so the exit status must be 1
    code, out, _ = run_cli(
        capsys, "experiment", "bode", "--field", "5^1", "--trials", "5"
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"
    code, out, _ = run_cli(
        capsys, "experiment", "bode", "--field", "3^1", "--trials", "5"
    )
    assert code == 0


def test_experiment_byte_identical_output(capsys):
    args = ("experiment", "beck", "--field", "5^1", "--trials", "10", "--seed", "3")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_experiment_csv(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "beck", "--field", "5^1", "--trials", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "experiment,field,trial,record"
    assert len(lines) == 4


def test_experiment_sphere_equiv(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "sphere-equiv", "--field", "5^1", "--d", "2"
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_experiment_threshold_adversarial(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "threshold", "--field", "5^1", "--d", "4",
        "--epsilon", "1/2", "--adversarial",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["params"]["adversarial"] is True
    assert rep["per_trial"][0]["defined_count"] == 0


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("FQSPREAD_SEED", "9")
    _, out_env, _ = run_cli(capsys, "experiment", "beck", "--field", "5^1", "--trials", "3")
    monkeypatch.delenv("FQSPREAD_SEED")
    _, out_flag, _ = run_cli(
        capsys, "experiment", "beck", "--field", "5^1", "--trials", "3", "--seed", "9"
    )
    assert out_env == out_flag


def test_budget_flag_enforced(capsys, tmp_path):
    path = tmp_path / "p.txt"
    PointSet(Field(5), 2, [(i, 0) for i in range(5)]).save(path)
    code, _, err = run_cli(
        capsys, "census", "spreads", "--points", str(path), "--budget", "10"
    )
    assert code == 1
    assert err.splitlines()[0] == "BudgetExceeded"


def test_env_budget_override(capsys, monkeypatch, tmp_path):
    path = tmp_path / "p.txt"
    PointSet(Field(5), 2, [(i, 0) for i in range(5)]).save(path)
    monkeypatch.setenv("FQSPREAD_BUDGET", "10")
    code, _, err = run_cli(capsys, "census", "spreads", "--points", str(path))
    assert code == 1
    assert err.splitlines()[0] == "BudgetExceeded"


@pytest.mark.parametrize(
    "argv, budget, gate",
    [
        # budget 1 stops the point enumeration (q^d or q^m points); the larger
        # budgets admit it and stop the census (n^2 pairs or n^3 triples)
        (["census", "distances", "--points", "POINTS"], "10", "n^2"),
        (["experiment", "bode", "--field", "3^1", "--trials", "1"], "1", "q^d"),
        (["experiment", "bode", "--field", "3^1", "--trials", "1"], "50", "n^3"),
        (["experiment", "threshold", "--field", "5^1", "--trials", "1"], "1", "q^d"),
        (["experiment", "threshold", "--field", "5^1", "--trials", "1"], "100", "n^3"),
        (["experiment", "threshold", "--field", "5^1", "--adversarial"], "1", "q^m"),
        (["experiment", "threshold", "--field", "5^1", "--d", "3", "--adversarial"], "100", "n^3"),
        (["experiment", "beck", "--field", "3^1", "--trials", "1"], "1", "q^d"),
        (["experiment", "beck", "--field", "3^1", "--trials", "1"], "20", "n^2"),
        (["experiment", "projection", "--field", "5^1", "--d", "4", "--trials", "1"], "1", "q^d"),
        (["experiment", "constructions", "--field", "5^1"], "1", "q^m"),
        (["experiment", "constructions", "--field", "5^1"], "50", "n^3"),
        (["experiment", "sphere-distance", "--field", "5^1", "--d", "3", "--trials", "1"], "1", "q^d"),
        (["experiment", "sphere-distance", "--field", "5^1", "--d", "3", "--trials", "1"], "200", "n^2"),
        (["experiment", "all"], "1", "q^m"),
    ],
)
def test_budget_honoured_by_every_enumerating_command(capsys, tmp_path, argv, budget, gate):
    path = tmp_path / "p.txt"
    PointSet(Field(5), 2, [(0, 0), (1, 2), (3, 4), (2, 2)]).save(path)
    argv = [str(path) if a == "POINTS" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--budget", budget)
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == "BudgetExceeded"
    assert err.splitlines()[1].startswith(f"detail: {gate} = ")



def test_stacked_census_mismatch_reports_its_code(capsys, monkeypatch):
    # a trial of another size in one report's stack ends in a DomainError
    # code, never a traceback
    from fqspread import expt

    sample = expt.sample_prefix
    calls = []

    def one_short(universe, size, rng):  # the second trial draws one point less
        calls.append(size)
        return sample(universe, size - (len(calls) == 2), rng)

    monkeypatch.setattr(expt, "sample_prefix", one_short)
    code, out, err = run_cli(capsys, "experiment", "threshold", "--field", "7^1", "--d", "2", "--trials", "3")
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == "FormatError"
    assert "Traceback" not in err


def test_experiment_requires_field_except_all(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "bode"])
    assert exc.value.code == 2
    assert "--field" in capsys.readouterr().err


def test_experiment_all_runs_full_battery(capsys):
    # includes the three impossible exactly-q cases, so overall status is 1
    code, out, err = run_cli(capsys, "experiment", "all")
    assert code == 1
    reports = json.loads(out)
    names = {r["name"] for r in reports}
    assert {
        "constructions",
        "bode",
        "iso-search",
        "beck",
        "plane-lines",
        "projection",
        "sphere-equiv",
        "properties",
        "sphere-distance",
        "reproducibility",
    } <= names
    fails = [r for r in reports if r["verdict"] == "fail"]
    assert len(fails) == 3
    assert all(r["name"] == "bode" for r in fails)
    assert {r["params"]["field"] for r in fails} == {"5^1", "7^1", "3^2"}
    status_lines = [ln for ln in err.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(status_lines) == len(reports)


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["census", "nonsense", "--points", "x"])
    assert exc.value.code == 2


# argv that end in usage, help or a parse error
USAGE_PATHS = {
    "none": [],
    "help": ["--help"],
    "unknown-command": ["nosuch"],
    "unknown-flag": ["census", "--bogus"],
    "no-kind": ["experiment"],
    "command-help": ["census", "--help"],
    "kind-help": ["experiment", "bode", "-h"],
    "help-before-command": ["-h", "census"],
    "flag-before-command": ["--bogus", "census", "spreads", "--points", "p.txt"],
    "after-double-dash": ["--", "census", "lines"],
}


@pytest.mark.parametrize("argv", USAGE_PATHS.values(), ids=USAGE_PATHS)
def test_one_command_parser_reads_as_the_full_tree(argv, capsys, monkeypatch):
    def outcome():
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    built = []
    build = cli.build_parser

    def recording(words=None):
        built.append(words)
        return build(words)

    monkeypatch.setattr(cli, "build_parser", recording)
    one = outcome()
    assert built == [set(argv)] and one[0] in (0, 2)
    monkeypatch.setattr(cli, "build_parser", lambda words=None: build())
    assert outcome() == one


def test_one_command_parser_fills_only_the_named_commands():
    filled = {words[0] for words, flags in _walk(cli.build_parser({"census", "x"})) if flags}
    assert filled == {"census"}
    assert {words[0] for words, _ in _walk(cli.build_parser(set()))} == {words[0] for words, _ in _PARSED}


def test_experiment_has_no_workers_flag(capsys):
    # only `census` splits its sweep over threads
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "constructions", "--field", "5", "--d", "3", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["bode", "projection"])
def test_experiment_trials_below_one_is_usage_error(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", kind, "--field", "5^1", "--trials", "0"])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, flag, value",
    [("threshold", "--epsilon", "abc"), ("beck", "--epsilon", "1/0"), ("sphere-distance", "--C", "abc")],
)
def test_experiment_non_rational_constant_is_usage_error(capsys, kind, flag, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", kind, "--field", "5^1", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, apex",
    [("5^1", "x,0"), ("5^1", "9,9"), ("3^2", "20,0"), ("5^1", "-1,0"), ("5^1", "1,,0")],
)
def test_spread_eval_rejects_bad_coordinates(capsys, field, apex):
    code, out, err = run_cli(
        capsys, "spread", "eval", "--field", field, "--d", "2",
        f"--apex={apex}", "--b", "1,0", "--c", "0,1",
    )
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == "FormatError"


@pytest.mark.parametrize("gamma", ["99", "5", "-1"])
def test_census_occurrences_gamma_out_of_range(tmp_path, capsys, gamma):
    path = tmp_path / "p.txt"
    PointSet(Field(5), 2, [(0, 0), (1, 0), (2, 0)]).save(path)
    code, out, err = run_cli(
        capsys, "census", "occurrences", "--points", str(path), f"--gamma={gamma}"
    )
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == "FormatError"


@pytest.mark.parametrize("t", ["7", "5", "-1"])
def test_sphere_t_out_of_range(capsys, t):
    code, out, err = run_cli(capsys, "sphere", "--field", "5^1", "--d", "2", f"--t={t}")
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == "FormatError"


@pytest.mark.parametrize("name, value", [("FQSPREAD_BUDGET", "abc"), ("FQSPREAD_SEED", "1.5")])
def test_malformed_env_default_is_usage_error(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", "beck", "--field", "5^1", "--trials", "3"])
    assert exc.value.code == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, flag, value",
    [
        ("threshold", "--epsilon", "1e5000"),
        ("threshold", "--epsilon", "1e999999999"),  # checked before 10^exponent is built
        ("threshold", "--epsilon", "1e101"),
        ("beck", "--epsilon", "1e5000"),
        pytest.param("beck", "--epsilon", "1" + "0" * 4000, id="beck---epsilon-4001-digits"),
        ("sphere-distance", "--C", "1e-5000"),
        pytest.param("sphere-distance", "--C", "1/" + "3" * 101, id="sphere-distance---C-101-digit-denominator"),
    ],
)
def test_experiment_huge_rational_is_usage_error(capsys, kind, flag, value):
    # sizes and thresholds built from such constants have more digits than
    # int-to-str conversion allows in the error message
    with pytest.raises(SystemExit) as exc:
        cli.main(["experiment", kind, "--field", "5^1", "--d", "3", flag, value, "--trials", "1"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_experiment_rational_at_the_digit_bound_is_accepted(capsys):
    code, out, err = run_cli(capsys, "experiment", "threshold", "--field", "5^1", "--epsilon", "1e99", "--trials", "1")
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == "SizeExceeded"
    code, out, err = run_cli(capsys, "experiment", "sphere-distance", "--field", "5^1", "--d", "3", "--C", "1/" + "9" * 100)
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == "TooFewPoints"


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--field", "5^1", "--d", "2", "--epsilon=-5", "--trials", "2"],
        ["projection", "--field", "5^1", "--d", "4", "--n-points", "0", "--trials", "2"],
        ["projection", "--field", "5^1", "--d", "4", "--n-points", "100000", "--trials", "2"],
        ["sphere-distance", "--field", "5^1", "--d", "3", "--C=-1", "--trials", "2"],
        ["sphere-distance", "--field", "5^1", "--d", "3", "--C", "1/2", "--trials", "2"],
    ],
)
def test_experiment_vacuous_inputs_rejected(capsys, argv):
    code, out, err = run_cli(capsys, "experiment", *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] in ("TooFewPoints", "SizeExceeded")


def test_experiment_threshold_zero_floor_rejected(capsys):
    # q // 4 = 0 on F_3: the floor is met by any set
    code, out, err = run_cli(capsys, "experiment", "threshold", "--field", "3^1", "--d", "2", "--trials", "2")
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == "VacuousBound"


def test_experiment_beck_zero_epsilon_rejected(capsys):
    # alpha(0) = 0: the line bound 0 is met by any set
    code, out, err = run_cli(capsys, "experiment", "beck", "--field", "7", "--d", "2", "--epsilon", "0", "--trials", "3")
    assert (code, out) == (1, "")
    assert err.splitlines()[0] == "VacuousBound"


def test_experiment_projection_k_equals_d_expects_zero(capsys):
    # a rank-d projection is injective, so every trial is held to zero collisions
    code, out, _ = run_cli(
        capsys, "experiment", "projection", "--field", "5", "--d", "2", "--k", "2", "--n-points", "10", "--trials", "5"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["params"]["expect_zero"] is True
    assert all(r["collisions"] == 0 and r["ok"] for r in rep["per_trial"])


@pytest.mark.parametrize(
    "argv",
    [
        ["sphere", "--field", "5^1", "--d", "0", "--t", "0"],
        ["search", "iso-triple", "--field", "5^1", "--d", "0"],
        ["experiment", "beck", "--field", "5^1", "--d", "0", "--trials", "1"],
        ["experiment", "sphere-equiv", "--field", "5^1", "--d", "-1"],
        ["sphere", "--field", "3^1", "--d", "65", "--t", "0"],
        ["search", "iso-triple", "--field", "3^1", "--d", "100000"],
    ],
)
def test_dimension_out_of_range_is_usage_error(capsys, argv):
    # these ended in a traceback, in a degenerate d = 0 result, or (huge d)
    # in a q^d too large to print or to compute
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--points", "--out"])
def test_unusable_path_is_usage_error(capsys, tmp_path, flag):
    points = tmp_path / "pts.txt"
    PointSet(Field(5), 2, [(0, 0), (1, 0), (0, 1)]).save(points)
    path = str(tmp_path / "missing" / "x.txt")
    argv = ["census", "spreads", "--points", path if flag == "--points" else str(points)]
    code, out, err = run_cli(capsys, *argv, *(["--out", path] if flag == "--out" else []))
    assert (code, out) == (2, "")
    assert err.startswith("usage error:") and "x.txt" in err
    # a NUL byte made open() raise ValueError, a traceback
    argv = ["census", "spreads", "--points", "a\0b" if flag == "--points" else str(points)]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, *(["--out", "a\0b"] if flag == "--out" else [])])
    assert exc.value.code == 2


def run_cli_boundary(argv):
    """Exit status of one in-process CLI call; any exception other than an
    argparse exit propagates, so a traceback fails the caller."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 1:
        assert err.getvalue().splitlines()[0].isidentifier()  # the error code
    return code


@pytest.fixture(scope="module")
def points_f9(tmp_path_factory):
    path = tmp_path_factory.mktemp("boundary") / "f9.txt"
    PointSet(Field(3, 2), 2, [(0, 0), (1, 0), (0, 1), (4, 7)]).save(path)
    return str(path)


@settings(max_examples=150, deadline=None)
@given(coords=st.text(max_size=12), gamma=st.text(max_size=12), t=st.text(max_size=12))
def test_cli_boundary_never_tracebacks(points_f9, coords, gamma, t):
    # arbitrary coordinate, --gamma and --t strings end in 0, 1 or 2
    fd_args = ["--field", "3^2", "--d", "2"]
    for argv in (
        ["spread", "eval", *fd_args, f"--apex={coords}", "--b=1,0", "--c=0,1"],
        ["sphere", *fd_args, f"--t={t}"],
        ["census", "occurrences", f"--points={points_f9}", f"--gamma={gamma}"],
    ):
        assert run_cli_boundary(argv) in (0, 1, 2)


# -- whole-argv boundary -----------------------------------------------------

_any_text = st.text(max_size=6)
_FLAG_VALUES = {
    "--field": st.sampled_from(["3^1", "5", "7^1", "3^2", "9", "5^1", "2", "3^0"]),
    "--d": st.one_of(st.integers(0, 3).map(str), st.sampled_from(["64", "65", "100000"])),
    "--seed": st.integers(-5, 5).map(str),
    "--budget": st.integers(-1, 10**4).map(str),
    "--format": st.sampled_from(["json", "csv"]),
    "--apex": st.lists(st.integers(-2, 10), max_size=4).map(lambda v: ",".join(map(str, v))),
    "--b": st.sampled_from(["1,0", "0,1", "1,1,1", ""]),
    "--c": st.sampled_from(["0,1", "2,2", "0,0,1", "x"]),
    "--gamma": st.integers(-3, 12).map(str),
    "--t": st.integers(-3, 12).map(str),
    "--workers": st.integers(-1, 3).map(str),
    "--epsilon": st.fractions(-3, 3, max_denominator=4).map(str),
    "--C": st.fractions(-2, 3, max_denominator=4).map(str),
    "--k": st.integers(-2, 4).map(str),
    "--n-points": st.integers(-1, 30).map(str),
    "--trials": st.integers(0, 3).map(str),
}


def _walk(parser, words=()):
    """(command words, {flag: action}) for every command the parser accepts;
    a positional kind choice (``construct``, ``census``) is a word too."""
    sub = next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)
    if sub is not None:
        for name, child in sub.choices.items():
            yield from _walk(child, (*words, name))
        return
    flags = {a.option_strings[0]: a for a in parser._actions if a.option_strings and a.dest != "help"}
    kinds = [a.choices for a in parser._actions if not a.option_strings]
    for kind in kinds[0] if kinds else [None]:
        yield (*words, kind) if kind else words, flags


_PARSED = list(_walk(cli.build_parser()))
_SWITCHES = {f for _, flags in _PARSED for f, a in flags.items() if a.nargs == 0}
# (command words, required flags, optional flags), every command but the
# whole battery; --out is left out so that no arbitrary path is written
_COMMANDS = tuple(
    (
        words,
        tuple(f for f, a in flags.items() if a.required),
        tuple(f for f, a in flags.items() if not a.required and f != "--out"),
    )
    for words, flags in _PARSED
    if words != ("experiment", "all")
)


@st.composite
def _argv(draw, point_files):
    """The required flags and some optional ones; at most one flag is left
    out and at most one gets an arbitrary string."""
    words, required, optional = draw(st.sampled_from(_COMMANDS))
    flags = list(required)
    if optional:
        flags += draw(st.lists(st.sampled_from(optional), unique=True))
    dropped, garbled = (draw(st.one_of(st.none(), st.sampled_from(flags))) for _ in range(2))
    argv = list(words)
    for flag in flags:
        if flag == dropped:
            continue
        if flag in _SWITCHES:
            argv.append(flag)
            continue
        if flag == garbled:
            value = draw(_any_text)
        elif flag == "--points":
            value = draw(st.sampled_from(point_files))
        else:
            value = draw(_FLAG_VALUES[flag])
        argv.append(f"{flag}={value}")
    return argv


@pytest.fixture(scope="module")
def point_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    files = {
        "f5.txt": PointSet(Field(5), 2, [(0, 0), (1, 0), (0, 1), (2, 3)]).dumps(),
        "f9.txt": PointSet(Field(3, 2), 3, [(0, 0, 0), (1, 0, 2), (0, 4, 1)]).dumps(),
        "one.txt": "q=7 d=2\n1,1\n",
        "bad.txt": "q=6 d=2\n0,0\n",
        "binary.txt": "\udcff\x00q=5",
    }
    for name, text in files.items():
        (root / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    return [str(root / name) for name in files] + [str(root), str(root / "missing.txt")]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_whole_argv_never_tracebacks(point_files, data):
    # Real subcommands and flags with arbitrary values (tiny fields, small
    # budgets and trial counts) end in exit 0, 1 or 2, never a traceback;
    # exit 1 carries an error code on the first stderr line unless an
    # experiment reported a fail verdict.
    argv = data.draw(_argv(point_files))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    lines = err.getvalue().splitlines()
    if code == 1 and lines:
        assert issubclass(getattr(errors, lines[0], type), errors.DomainError), argv
    elif code == 1:
        assert argv[0] == "experiment", argv


# -- accepted flags against the flags each command reads ---------------------

_CENSUS_KINDS = ("spreads", "distances", "lines", "occurrences")
_NEVER_READ = (  # flags the parser accepted on these commands and nothing read
    *[(("census", kind), ("--seed",)) for kind in _CENSUS_KINDS],
    *[(("construct", kind), ("--seed", "--format")) for kind in ("con1", "con2", "iso")],
    (("field", "info"), ("--seed", "--budget", "--format")),
    (("spread", "eval"), ("--seed", "--budget", "--format")),
    (("kspread", "eval"), ("--seed", "--format")),
    (("search", "iso-triple"), ("--seed",)),
    (("sphere",), ("--seed", "--format")),
    (("experiment", "bode"), ("--d", "--epsilon", "--C", "--k", "--n-points", "--adversarial")),
    (("experiment", "threshold"), ("--C", "--k", "--n-points", "--full-plane")),
    (("experiment", "beck"), ("--C", "--k", "--n-points", "--adversarial", "--full-plane")),
    (("experiment", "projection"), ("--epsilon", "--C", "--adversarial", "--full-plane")),
    (("experiment", "sphere-distance"), ("--epsilon", "--k", "--n-points", "--adversarial", "--full-plane")),
    *[
        (("experiment", kind), ("--seed", "--epsilon", "--C", "--k", "--n-points", "--trials", "--adversarial", "--full-plane"))
        for kind in ("constructions", "sphere-equiv")
    ],
    (("experiment", "all"), ("--field", "--d", "--epsilon", "--C", "--k", "--n-points", "--trials", "--adversarial", "--full-plane")),
)
_VALUES = {
    "--field": "5", "--d": "3", "--points": "p.txt", "--apex": "0,0", "--b": "1,0", "--c": "0,1", "--t": "1",
    "--seed": "0", "--budget": "10", "--format": "json", "--epsilon": "1", "--C": "2", "--k": "2",
    "--n-points": "5", "--trials": "1",
}


@pytest.mark.parametrize(
    "words, flag",
    [pytest.param(words, flag, id=" ".join((*words, flag))) for words, flags in _NEVER_READ for flag in flags],
)
def test_flag_nothing_reads_is_usage_error(capsys, words, flag):
    # each was accepted and ignored: `experiment bode --d 3` ran on the plane
    required = [x for f, a in dict(_PARSED)[words].items() if a.required for x in (f, _VALUES[f])]
    extra = [flag] if flag in ("--adversarial", "--full-plane") else [flag, _VALUES[flag]]
    with pytest.raises(SystemExit) as exc:
        cli.main([*words, *required, *extra])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


# One small run of every command, after its words.
_SMALL_RUNS = {
    ("field", "info"): ["--field", "5"],
    ("spread", "eval"): ["--field", "5", "--d", "2", "--apex", "0,0", "--b", "1,0", "--c", "0,1"],
    ("kspread", "eval"): ["--points", "SIMPLEX"],
    ("construct", "con1"): ["--field", "5", "--d", "2"],
    ("construct", "con2"): ["--field", "5", "--d", "3"],
    ("construct", "iso"): ["--field", "3", "--d", "4"],
    ("census", "occurrences"): ["--points", "POINTS", "--gamma", "0"],
    **{("census", kind): ["--points", "POINTS"] for kind in ("spreads", "distances", "lines")},
    ("search", "iso-triple"): ["--field", "3", "--d", "4"],
    ("sphere",): ["--field", "5", "--d", "2", "--t", "1"],
    ("experiment", "bode"): ["--field", "3", "--trials", "1"],
    ("experiment", "threshold"): ["--field", "5", "--trials", "1"],
    ("experiment", "beck"): ["--field", "3", "--trials", "1"],
    ("experiment", "projection"): ["--field", "5", "--trials", "1"],
    ("experiment", "constructions"): ["--field", "5", "--d", "3"],
    ("experiment", "sphere-distance"): ["--field", "5", "--d", "3", "--trials", "1"],
    ("experiment", "sphere-equiv"): ["--field", "5"],
    ("experiment", "all"): [],
}


class _Reads:
    """A parsed namespace that records the names a handler reads from it."""

    def __init__(self, args):
        self.__dict__.update(_args=args, names=set())

    def __getattr__(self, name):
        self.names.add(name)
        return getattr(self._args, name)


def test_every_accepted_flag_is_read_but_the_kept_ones(tmp_path, capsys):
    # --workers stays accepted while the benchmark passes it; census and
    # construct keep one parser each, so --gamma and construct iso --budget
    # reach kinds that do not read them
    files = {"POINTS": tmp_path / "p.txt", "SIMPLEX": tmp_path / "k.txt"}
    PointSet(Field(5), 2, [(0, 0), (1, 0), (0, 1), (2, 3)]).save(files["POINTS"])
    PointSet(Field(5), 3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]).save(files["SIMPLEX"])
    assert set(_SMALL_RUNS) == {words for words, _ in _PARSED}
    unread = set()
    for words, flags in _PARSED:
        argv = [str(files.get(a, a)) for a in _SMALL_RUNS[words]]
        args = _Reads(cli.build_parser().parse_args([*words, *argv]))
        assert args.func(args) in (0, 1), words
        unread |= {(words, f) for f, a in flags.items() if a.dest not in args.names}
    capsys.readouterr()
    assert unread == {
        *[(("census", kind), "--workers") for kind in _CENSUS_KINDS],
        *[(("census", kind), "--gamma") for kind in ("spreads", "distances", "lines")],
        (("construct", "iso"), "--budget"),
    }

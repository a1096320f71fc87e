"""fqspread benchmark: seeded workloads through the public CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload census --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all     # every workload, one process each

Each workload is a closed loop with one client: the operations of one pass
are ``fqspread.cli.main`` calls made one after another in this process, and
passes repeat while another fits in ``--seconds`` (at least MIN_PASSES).  Every
operation's output is checked; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json:
setup time (median of fresh interpreters importing the package and building
the workload's fields), median wall and CPU time of one pass, and the peak
RSS of this process.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics from spans recorded around the package's
public functions (see spans.py).  Details, the environment record and the
spans go to perfbench/results/.

``--write-reference`` runs one pass at the default seed and stores its
checked outputs in reference.json; later runs at that seed must match them.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple, Optional

import gf
from inputs import PointSpec, draw_points, write_point_file
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
MIN_PASSES = 2
SETUP_PER_PASS = 3

# Dense: 300 of the 1331 points of F_11^3, so arms collapse to at most 133
# projective classes per apex.  Sparse: nearly every arm is its own class,
# and each q x q table (4 MB) exceeds L2.  Extension: F_27 through the
# polynomial representation.
SPREAD_INPUTS = (
    PointSpec("dense-11^1-d3", 11, 1, 3, 300),
    PointSpec("sparse-1021^1-d2", 1021, 1, 2, 200),
    PointSpec("ext-3^3-d3", 3, 3, 3, 200),
)
# The pure-Python pair loop of census lines: F_25 runs scalar polynomial
# arithmetic per pair, F_31^2 with 700 points is dominated by hashing.
LINE_INPUTS = (
    PointSpec("ext-5^2-d3", 5, 2, 3, 250),
    PointSpec("prime-31^1-d2", 31, 1, 2, 700),
)
# Fields the acceptance battery constructs.
BATTERY_FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1))
# The battery's documented red cases: (2q-1)-point sets cannot reach q
# spread values for these fields.
BATTERY_FAILS = ("FAIL bode field=5^1", "FAIL bode field=7^1", "FAIL bode field=3^2")


class Op(NamedTuple):
    key: str
    argv: list
    spec: Optional[PointSpec]
    # An untimed op runs once, checked, before the timed passes of an
    # untraced run (it doubles as their warm-up), and in every traced pass.
    timed: bool = True


class Workload(NamedTuple):
    name: str
    fields: tuple  # (p, r) pairs whose construction setup_s measures
    make_ops: Callable  # (seed, workdir) -> (ops, {input name: sha256})
    check: Callable  # (op, rc, out, err, outputs seen so far) -> (output, problems)
    ref_value: Callable  # checked output -> value stored in reference.json


# -- workloads -------------------------------------------------------------------


def _point_files(specs, seed: int, workdir: Path):
    files, digests = {}, {}
    for spec in specs:
        path = workdir / f"{spec.name}.txt"
        digests[spec.name] = write_point_file(path, spec, draw_points(spec, seed))
        files[spec.name] = str(path)
    return files, digests


def census_ops(seed: int, workdir: Path):
    """Spread censuses, then line and distance censuses.

    Per spread input: spreads at 1 worker and occurrences at 2 workers,
    timed; spreads at 2 workers, untimed, to check that the worker count does
    not change the census.  Two-worker wall time depends on both vCPUs being
    free at once, so the timed pass keeps it to one op per input.
    """
    files, digests = _point_files(SPREAD_INPUTS + LINE_INPUTS, seed, workdir)
    ops = []
    for spec in SPREAD_INPUTS:
        path = files[spec.name]
        gamma = random.Random(f"{seed}/{spec.name}/gamma").randrange(1, spec.q)
        ops += [
            Op(f"{spec.name}/spreads.w1", ["census", "spreads", "--points", path, "--workers", "1"], spec),
            Op(f"{spec.name}/spreads.w2", ["census", "spreads", "--points", path, "--workers", "2"], spec, False),
            Op(
                f"{spec.name}/occurrences.w2",
                ["census", "occurrences", "--points", path, "--gamma", str(gamma), "--workers", "2"],
                spec,
            ),
        ]
    for spec in LINE_INPUTS:
        for kind in ("lines", "distances"):
            ops.append(Op(f"{spec.name}/{kind}", ["census", kind, "--points", files[spec.name]], spec))
    return ops, digests


def battery_ops(seed: int, workdir: Path):
    return [Op("experiment-all", ["experiment", "all", "--seed", str(seed)], None)], {}


def check_census(op: Op, rc, out: str, err: str, seen):
    if rc != 0:
        return None, [f"exit status {rc}: {err.strip()[-300:]}"]
    try:
        body = json.loads(out)
    except json.JSONDecodeError:
        return None, ["stdout is not JSON"]
    body.pop("elapsed_ms", None)  # the one field documented to vary
    spec = op.spec
    n = spec.n
    kind = op.key.split("/")[1].split(".")[0]
    problems = []
    try:
        if (body["field"], body["d"], body["n_points"]) != (f"{spec.p}^{spec.r}", spec.d, n):
            problems.append("field, d or n_points differ from the input")
        if kind == "spreads":
            if body["triples_scanned"] != n * (n - 1) * (n - 2):
                problems.append("triples_scanned != n(n-1)(n-2)")
            if body["defined_count"] != len(body["defined_spread_values"]):
                problems.append("defined_count != number of defined values")
            other = seen.get(f"{spec.name}/spreads.w{1 if op.key.endswith('.w2') else 2}")
            if other is not None and body != other:
                problems.append("differs from the result at the other worker count")
        elif kind == "occurrences":
            spreads = seen.get(f"{spec.name}/spreads.w1") or seen.get(f"{spec.name}/spreads.w2")
            gamma = int(op.argv[op.argv.index("--gamma") + 1])
            if spreads is not None and (body["occurrences"] > 0) != (gamma in spreads["defined_spread_values"]):
                problems.append("occurrences disagree with the spread census")
        else:
            if body["pairs_scanned"] != n * (n - 1) // 2:
                problems.append("pairs_scanned != n(n-1)/2")
            if kind == "lines" and not (1 <= body["lines"] <= body["pairs_scanned"] and body["max_degree"] <= n - 1):
                problems.append("line counts out of range")
            if kind == "distances" and body["nonzero_distance_values"] != [v for v in body["distance_values"] if v]:
                problems.append("nonzero_distance_values inconsistent")
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed census output: {exc!r}")
    return body, problems


def check_battery(op: Op, rc, out: str, err: str, seen):
    problems = []
    if rc != 1:
        problems.append(f"exit status {rc}, expected 1: {err.strip()[-300:]}")
    fails = tuple(" ".join(ln.split()[:3]) for ln in err.splitlines() if ln.split()[:1] == ["FAIL"])
    if fails != BATTERY_FAILS:
        problems.append(f"FAIL lines {fails}, expected {BATTERY_FAILS}")
    return out, problems


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census",
            tuple((s.p, s.r) for s in SPREAD_INPUTS + LINE_INPUTS),
            census_ops,
            check_census,
            lambda body: body,
        ),
        Workload("battery", BATTERY_FIELDS, battery_ops, check_battery, _sha256),
    )
}


# -- running and checking ------------------------------------------------------------


class Checker:
    """Counts operations and those whose output fails a check."""

    def __init__(self, workload: Workload, reference: Optional[dict], digests: dict):
        self.workload = workload
        self.reference = reference
        self.first: dict = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.bad_inputs = set()
        if reference is not None:
            self.bad_inputs = {name for name, digest in digests.items() if reference["inputs"].get(name) != digest}

    def check_pass(self, results) -> None:
        this_pass: dict = {}
        seen = collections.ChainMap(this_pass, self.first)
        for op, rc, out, err in results:
            self.attempted += 1
            output, problems = self.workload.check(op, rc, out, err, seen)
            this_pass[op.key] = output
            if op.spec is not None and op.spec.name in self.bad_inputs:
                problems.append("input differs from the reference input")
            if op.key in self.first and output != self.first[op.key]:
                problems.append("output differs from the first pass")
            self.first.setdefault(op.key, output)
            if self.reference is not None and output is not None:
                if self.reference["outputs"].get(op.key) != self.workload.ref_value(output):
                    problems.append("output differs from the reference")
            if problems:
                self.failures.append(f"{op.key}: " + "; ".join(problems))

    @property
    def failed(self) -> int:
        return len(self.failures)


def invoke(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an operation that crashes counts as failed; the run goes on
        rc = None
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def run_pass(cli, ops, checker: Checker, tracer: Optional[Tracer] = None) -> dict:
    results, op_wall, op_cpu = [], [], []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        r0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = perf_counter()
        results.append((op, *invoke(cli, op.argv)))
        op_wall.append(perf_counter() - t0)
        r1 = resource.getrusage(resource.RUSAGE_SELF)
        op_cpu.append((r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime))
    checker.check_pass(results)
    return {
        "wall_s": sum(op_wall),
        "cpu_s": sum(op_cpu),
        "op_wall_s": op_wall,
        "op_cpu_s": op_cpu,
        "stdout_bytes": sum(len(out.encode()) for _op, _rc, out, _err in results),
        "traced": tracer is not None,
    }


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import fqspread
for p, r in {fields!r}:
    fd = fqspread.ff.Field(p, r)
    build = getattr(fd, "tables", None)  # fields without lookup tables skip this
    if build is not None:
        build()
print(time.perf_counter() - t0)
"""


def measure_setup(fields, samples: int) -> list[float]:
    """Seconds for a fresh interpreter to import the package and build the
    workload's fields and tables, once per sample."""
    code = SETUP_CODE.format(src=str(SRC), fields=fields)
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# -- tracing -------------------------------------------------------------------------

EXPT_KINDS = (
    "bode", "threshold", "beck", "projection", "constructions",
    "sphere_distance", "sphere_equiv", "iso_search", "properties",
)
# Vector helpers called per element or per triple: aggregated, not spanned.
GEOM_HOT = (
    "vadd", "vsub", "vscale", "dot", "norm", "dist", "det", "rank",
    "mat_vec", "mat_mul", "line_through", "spread", "k_spread",
)
SCALAR_OPS = ("add", "sub", "mul", "inv", "div", "pow", "sqrt")
LAYERS = ("expt", "census", "construct", "geom", "ff")  # cli has only main


class Derived:
    """Exact counts derived from the arguments and results of traced calls."""

    def __init__(self):
        self.counts = dict.fromkeys(
            ("triples", "gram_cells", "undefined", "spread_triples", "pairs",
             "lines", "line_pairs", "points_built", "tables_bytes"), 0)
        self.spread_inputs: list = []  # (p, r, points) per spread census call

    def spread_census(self, args, kwargs, result):
        ps = args[0]
        n = len(ps)
        self.counts["triples"] += n * (n - 1) * (n - 2)
        self.counts["gram_cells"] += n * (n - 1) ** 2
        self.spread_inputs.append((ps.field.p, ps.field.r, ps.points))
        if hasattr(result, "undefined_triples"):
            self.counts["undefined"] += result.undefined_triples
            self.counts["spread_triples"] += result.triples_scanned

    def pair_census(self, args, kwargs, result):
        n = len(args[0])
        self.counts["pairs"] += n * (n - 1) // 2
        if hasattr(result, "lines"):
            self.counts["lines"] += result.lines
            self.counts["line_pairs"] += n * (n - 1) // 2

    def points(self, args, kwargs, result):
        self.counts["points_built"] += len(result)

    def tables(self, args, kwargs, result):
        slots = getattr(type(result), "__slots__", ())
        self.counts["tables_bytes"] += sum(getattr(getattr(result, s, None), "nbytes", 0) for s in slots)

    def class_cells(self) -> int:
        """Sum over calls and apexes of k_a^2, k_a the number of distinct arm
        classes at apex a."""
        fields, memo, total = {}, {}, 0
        for p, r, points in self.spread_inputs:
            key = (p, r, points)
            if key not in memo:
                if (p, r) not in fields:
                    fields[(p, r)] = gf.GF(p, r)
                memo[key] = sum(k * k for k in gf.apex_class_counts(fields[(p, r)], list(points)))
            total += memo[key]
        return total


def install_trace(tracer: Tracer, derived: Derived) -> None:
    from fqspread import census, cli, construct, expt, ff, geom

    def workers_name(args, kwargs):
        workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
        return f"census.distinct_spreads.w{workers}"

    tracer.span(cli, "main", "cli.main")
    for kind in EXPT_KINDS:
        tracer.span(expt, f"run_{kind}", f"expt.run_{kind}")
    for attr in [a for a in vars(expt) if a.startswith("suite_")] + ["acceptance_suite"]:
        tracer.span(expt, attr, f"expt.{attr}")
    tracer.span(expt, "sample_prefix", "expt.sample_prefix")
    tracer.span(expt.ExperimentReport, "as_dict", "expt.serialize")
    tracer.span(census, "distinct_spreads", workers_name, derived.spread_census)
    tracer.span(census, "spread_occurrences", "census.spread_occurrences", derived.spread_census)
    tracer.span(census, "spanned_lines", "census.spanned_lines", derived.pair_census)
    tracer.span(census, "distinct_distances", "census.distinct_distances", derived.pair_census)
    for attr in ("search_iso_triple", "sphere_equiv_check", "collision_count", "random_projection"):
        tracer.span(census, attr, f"census.{attr}")
    for attr in ("con1_set", "con2_set"):
        tracer.span(construct, attr, f"construct.{attr}", derived.points)
    tracer.span(geom.PointSet, "load", "geom.PointSet.load")
    for attr in ("all_points", "sphere_points", "random_orthogonal"):
        tracer.span(geom, attr, f"geom.{attr}")
    for attr in GEOM_HOT:
        tracer.hot(geom, attr, f"geom.{attr}")
    tracer.span(ff.Field, "__init__", "ff.Field")
    tracer.span(ff.Field, "tables", "ff.tables")
    tracer.span(ff, "_build_tables", "ff.build_tables", derived.tables)
    tracer.span(ff, "parse_field", "ff.parse_field")
    tracer.span(ff, "field_for_order", "ff.field_for_order")
    for op in SCALAR_OPS:
        names = (f"ff.ext.{op}", f"ff.prime.{op}")
        tracer.hot(ff.Field, op, lambda args, _n=names: _n[args[0].r == 1])


def per_layer_metrics(tracer: Tracer, derived: Derived, traced: list, untraced: list) -> dict:
    n = len(traced)
    totals = tracer.totals()

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0) / n

    def self_time(name):
        return totals.get(name, {}).get("self_s", 0.0) / n

    def calls(name):
        return totals.get(name, {}).get("calls", 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    c = {k: v / n for k, v in derived.counts.items()}
    class_cells = derived.class_cells() / n
    spread_s = sum(v["total_s"] for k, v in totals.items() if k.startswith("census.distinct_spreads.")) / n
    spread_s += total("census.spread_occurrences")
    scalar = {
        kind: [v for k, v in totals.items() if k.startswith(f"ff.{kind}.")] for kind in ("prime", "ext")
    }
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    m = {
        "cli.main_s": (self_time("cli.main"), "s"),
        "cli.stdout_bytes": (statistics.median(p["stdout_bytes"] for p in traced), "bytes"),
    }
    for kind in EXPT_KINDS:
        m[f"expt.run_{kind}_s"] = (self_time(f"expt.run_{kind}"), "s")
    m.update({
        "expt.sample_prefix_s": (total("expt.sample_prefix"), "s"),
        "expt.serialize_s": (total("expt.serialize"), "s"),
        "census.distinct_spreads_s.w1": (total("census.distinct_spreads.w1"), "s"),
        "census.distinct_spreads_s.w2": (total("census.distinct_spreads.w2"), "s"),
        "census.spread_occurrences_s": (total("census.spread_occurrences"), "s"),
        "census.triples_scanned": (c["triples"], "count"),
        "census.triples_per_s": (ratio(c["triples"], spread_s), "triples/s"),
        "census.gram_cells": (c["gram_cells"], "count"),
        "census.class_cells": (class_cells, "count"),
        "census.useful_cell_ratio": (ratio(class_cells, c["gram_cells"]), "ratio"),
        "census.undefined_ratio": (ratio(c["undefined"], c["spread_triples"]), "ratio"),
        "census.thread_speedup": (
            ratio(total("census.distinct_spreads.w1"), total("census.distinct_spreads.w2")), "ratio"),
        "census.spanned_lines_s": (total("census.spanned_lines"), "s"),
        "census.pairs_scanned": (c["pairs"], "count"),
        "census.lines_per_pair": (ratio(c["lines"], c["line_pairs"]), "ratio"),
        "census.distinct_distances_s": (total("census.distinct_distances"), "s"),
        "census.search_iso_triple_s": (total("census.search_iso_triple"), "s"),
        "census.sphere_equiv_check_s": (total("census.sphere_equiv_check"), "s"),
        "census.collision_count_s": (total("census.collision_count"), "s"),
        "construct.con1_set_s": (total("construct.con1_set"), "s"),
        "construct.con2_set_s": (total("construct.con2_set"), "s"),
        "construct.points_built": (c["points_built"], "count"),
        "geom.PointSet.load_s": (total("geom.PointSet.load"), "s"),
        "geom.all_points_s": (total("geom.all_points"), "s"),
        "geom.sphere_points_s": (total("geom.sphere_points"), "s"),
        "geom.spread_s": (total("geom.spread"), "s"),
        "geom.spread_calls": (calls("geom.spread"), "count"),
        "geom.k_spread_s": (total("geom.k_spread"), "s"),
        "geom.random_orthogonal_s": (total("geom.random_orthogonal"), "s"),
        "ff.Field_s": (total("ff.Field"), "s"),
        "ff.Field_calls": (calls("ff.Field"), "count"),
        "ff.tables_s": (total("ff.tables"), "s"),
        "ff.tables_bytes": (c["tables_bytes"], "bytes"),
    })
    for kind in ("prime", "ext"):
        m[f"ff.scalar_calls.{kind}"] = (sum(v["calls"] for v in scalar[kind]) / n, "count")
        m[f"ff.scalar_s.{kind}"] = (sum(v["self_s"] for v in scalar[kind]) / n, "s")
    m["ff.scalar_calls"] = (m["ff.scalar_calls.prime"][0] + m["ff.scalar_calls.ext"][0], "count")
    m["ff.scalar_s"] = (m["ff.scalar_s.prime"][0] + m["ff.scalar_s.ext"][0], "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (
            sum(v["self_s"] for k, v in totals.items() if k.split(".")[0] == layer) / n, "s")
    self_sum = sum(v["self_s"] for v in totals.values()) / n
    m["trace.overhead_ratio"] = (ratio(traced_wall, untraced_wall), "ratio")
    m["trace.self_share"] = (ratio(self_sum, statistics.mean(p["wall_s"] for p in traced)), "ratio")
    return m


# -- environment ---------------------------------------------------------------------


def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (index / "size").read_text().strip()
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- main ----------------------------------------------------------------------------


def declared_metrics(trace: int) -> list[tuple[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_all(args) -> int:
    """Each workload in its own fresh process, so peak RSS is its own."""
    status = 0
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), *(["--write-reference"] if args.write_reference else [])]
        status = max(status, subprocess.run([sys.executable, __file__, *argv], cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "fqspread" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'fqspread'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fqspread
    from fqspread import cli

    if not Path(fqspread.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: fqspread imported from {fqspread.__file__}, not {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)

    wl = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.write_reference else args.seed
    label = f"{wl.name}-seed{seed}-trace{args.trace}"
    workdir = RESULTS / label
    workdir.mkdir(parents=True, exist_ok=True)
    ops, digests = wl.make_ops(seed, workdir)
    reference = None
    if seed == DEFAULT_SEED and not args.write_reference:
        reference = json.loads(REFERENCE.read_text())[wl.name]
    checker = Checker(wl, reference, digests)

    if args.write_reference:
        run_pass(cli, ops, checker)
        if checker.failed:
            print("\n".join(checker.failures), file=sys.stderr)
            return 1
        refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        refs[wl.name] = {
            "inputs": digests,
            "outputs": {key: wl.ref_value(out) for key, out in checker.first.items()},
        }
        REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"wrote the {wl.name} reference to {REFERENCE}")
        return 0

    started = perf_counter()
    passes: list[dict] = []
    setup: list[float] = []
    tracer = None
    if args.trace == 0:
        timed = [op for op in ops if op.timed]
        untimed = [op for op in ops if not op.timed]
        if untimed:
            run_pass(cli, untimed, checker)
        # Setup samples are spread over the run, like the passes, so both
        # see the same stretch of machine load.  A pass, with its setup
        # samples, starts only if one of the typical length still fits.
        rounds: list[float] = []
        while len(passes) < MIN_PASSES or perf_counter() - started + statistics.median(rounds) <= args.seconds:
            t0 = perf_counter()
            setup += measure_setup(wl.fields, SETUP_PER_PASS)
            passes.append(run_pass(cli, timed, checker))
            rounds.append(perf_counter() - t0)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer, derived = Tracer(), Derived()
        # One checked warm-up pass keeps first-pass allocation costs out of
        # the untraced/traced comparison.
        run_pass(cli, ops, checker)
        while not passes or perf_counter() - started + sum(p["wall_s"] for p in passes[-2:]) <= args.seconds:
            passes.append(run_pass(cli, ops, checker))
            install_trace(tracer, derived)
            try:
                passes.append(run_pass(cli, ops, checker, tracer))
            finally:
                tracer.uninstall()
        metrics = per_layer_metrics(
            tracer, derived, [p for p in passes if p["traced"]], [p for p in passes if not p["traced"]]
        )

    missing = [name for name, _unit in declared if name not in metrics]
    if missing:
        print(f"error: BENCHMARK.json declares metrics this run did not compute: {missing}", file=sys.stderr)
        return 2
    metrics = {name: {"value": metrics[name][0], "unit": unit} for name, unit in declared}

    record = {
        "workload": wl.name,
        "seed": seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "inputs": digests,
        "pass_ops": [op.key for op in ops if op.timed or args.trace],
        "setup_samples_s": setup,
        "passes": passes,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "computed_counts": [
            "census.triples_scanned", "census.pairs_scanned", "census.gram_cells",
            "census.class_cells", "ff.tables_bytes",
        ],
        "metrics": metrics,
    }
    (RESULTS / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write_jsonl(RESULTS / f"{label}.spans.jsonl")

    for failure in checker.failures[:20]:
        print(f"FAILED {failure}")
    n_untraced = sum(not p["traced"] for p in passes)
    print(f"workload {wl.name} seed {seed}: {len(passes)} passes ({n_untraced} untraced), "
          f"{len(setup)} setup samples")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"failed_ops_ratio: {checker.failed}/{checker.attempted} = {checker.failed / checker.attempted:.6g}")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

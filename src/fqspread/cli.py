"""Command-line front end.

A command accepts only the flags it reads, but for ``census --workers``
(accepted and ignored) and the flags that ``census`` and ``construct``
share across their kinds.  Each experiment kind's parser and call come
from its ``_EXPERIMENTS`` entry.  One call builds one parser: every
command is listed, but only the one the arguments name gets its flags
and subcommands, so usage, help and errors read as from the full tree.
Each command's handler imports the modules it runs on (``census``,
``construct``, ``expt``), so a call compiles only what its command uses.

Identical invocations print identical bytes to stdout, with one exception:
census reports carry an ``elapsed_ms`` timing field.  Domain errors print
their machine-parsable code alone on the first stderr line, then a detail
line, and exit with status 1; usage errors exit 2; experiments exit 0 only
on a pass verdict.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction
from typing import Optional

from . import ff, geom
from .errors import DomainError, FormatError
from .geom import PointSet

ENV_SEED = "FQSPREAD_SEED"
ENV_BUDGET = "FQSPREAD_BUDGET"
MAX_DIMENSION = 64  # keeps q^d small enough to compute and to print
MAX_RATIONAL_DIGITS = 100  # keeps sizes built from --epsilon and --C printable


def _env_int(name: str, fallback: int) -> int:
    text = os.environ.get(name, "")
    if not text:
        return fallback
    try:
        return int(text)
    except ValueError:
        print(f"usage error: environment variable {name} is not an integer: {text!r}", file=sys.stderr)
        raise SystemExit(2) from None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _dimension(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_DIMENSION:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_DIMENSION}, got {value}")
    return value


def _path(text: str) -> str:
    if "\0" in text:  # open() would raise ValueError, not OSError
        raise argparse.ArgumentTypeError("a path cannot contain a NUL byte")
    return text


def _rational(text: str) -> Fraction:
    _, e, exponent = text.lower().partition("e")
    try:  # Fraction would compute 10^exponent, so a huge one is refused first
        value = None if e and abs(int(exponent)) > MAX_RATIONAL_DIGITS else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from None
    if value is None or max(abs(value.numerator), value.denominator) >= 10**MAX_RATIONAL_DIGITS:
        raise argparse.ArgumentTypeError(
            f"numerator and denominator must have at most {MAX_RATIONAL_DIGITS} digits: {text!r}"
        )
    return value


def _parse_point(fd: ff.Field, dim: int, text: str) -> tuple[int, ...]:
    """One point, checked for dimension and coordinate range as in a point file."""
    try:
        p = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise FormatError(f"bad point {text!r}") from None
    return PointSet(fd, dim, [p]).points[0]


def _emit(args, text: str) -> None:
    if args.out and args.out != "-":
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each experiment kind's expt.run_* function and the parameters it takes
# besides the field and the budget; each is filled from the flag of that dest.
_EXPERIMENTS = {
    "bode": ("run_bode", ("trials", "seed", "full_plane")),
    "threshold": ("run_threshold", ("d", "epsilon", "trials", "seed", "adversarial")),
    "beck": ("run_beck", ("d", "epsilon", "trials", "seed")),
    "projection": ("run_projection", ("d", "k", "n_points", "trials", "seed")),
    "constructions": ("run_constructions", ("d",)),
    "sphere-distance": ("run_sphere_distance", ("d", "c", "trials", "seed")),
    "sphere-equiv": ("run_sphere_equiv", ("d",)),
}


def _add_flags(parser: argparse.ArgumentParser, env: dict, *dests: str) -> None:
    """Add the flags of ``dests``, then --out, which every command reads."""
    flags = {
        "field": ("--field", dict(required=True, help='field spec "p^r", e.g. 5^1 or 3^2')),
        "seed": ("--seed", dict(type=int, default=env["seed"])),
        "budget": ("--budget", dict(type=int, default=env["budget"])),
        "format": ("--format", dict(choices=("json", "csv"), default="json")),
        "out": ("--out", dict(type=_path, default="-", help="output path (default stdout)")),
        # experiments only: the other commands that take --d require it
        "d": ("--d", dict(type=_dimension, default=2)),
        "epsilon": ("--epsilon", dict(type=_rational, default="1", help="rational, e.g. 1, 1/2, 0.5")),
        "c": ("--C", dict(dest="c", type=_rational, default="2", help="rational sphere-subset constant")),
        "k": ("--k", dict(type=int, default=2, help="projection target dimension")),
        "n_points": ("--n-points", dict(type=int, default=25)),
        "trials": ("--trials", dict(type=_positive_int, default=100)),
        "adversarial": ("--adversarial", dict(action="store_true")),
        "full_plane": ("--full-plane", dict(action="store_true")),
    }
    for dest in (*dests, "out"):
        flag, spec = flags[dest]
        parser.add_argument(flag, **spec)


def build_parser(words=None) -> argparse.ArgumentParser:
    """The parser of every command; given words, only the commands that
    one of them names get their flags, subcommands and -h.  Every command
    is listed either way, so usage, help and choice errors read the same."""
    top = argparse.ArgumentParser(
        prog="fqspread",
        description="spread geometry over odd finite fields: censuses, constructions, experiments",
    )
    env = {"seed": _env_int(ENV_SEED, 0), "budget": _env_int(ENV_BUDGET, geom.DEFAULT_ENUM_BUDGET)}
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, text: str) -> Optional[argparse.ArgumentParser]:
        """The parser of a command, or None when no word names it: then it
        is never parsed, so it is listed with no flags and no -h."""
        named = words is None or name in words
        parser = sub.add_parser(name, help=text, add_help=named)
        return parser if named else None

    if p_field := command("field", "field utilities"):
        field_sub = p_field.add_subparsers(dest="subcommand", required=True)
        p_info = field_sub.add_parser("info", help="describe a field and its element encoding")
        p_info.set_defaults(func=_cmd_field_info)
        _add_flags(p_info, env, "field")

    if p_spread := command("spread", "spread of one triple"):
        spread_sub = p_spread.add_subparsers(dest="subcommand", required=True)
        p_eval = spread_sub.add_parser("eval")
        p_eval.set_defaults(func=_cmd_spread_eval)
        _add_flags(p_eval, env, "field")
        p_eval.add_argument("--d", type=_dimension, required=True)
        p_eval.add_argument("--apex", required=True, help="comma-separated element indices")
        p_eval.add_argument("--b", required=True)
        p_eval.add_argument("--c", required=True)

    if p_kspread := command("kspread", "order-k spread of a point file"):
        kspread_sub = p_kspread.add_subparsers(dest="subcommand", required=True)
        p_keval = kspread_sub.add_parser("eval")
        p_keval.set_defaults(func=_cmd_kspread_eval)
        p_keval.add_argument("--points", type=_path, required=True, help="point-set file of k+1 points")
        _add_flags(p_keval, env, "budget")

    if p_con := command("construct", "emit extremal point sets"):
        p_con.set_defaults(func=_cmd_construct)
        p_con.add_argument("kind", choices=("con1", "con2", "iso"))
        _add_flags(p_con, env, "field", "budget")
        p_con.add_argument("--d", type=_dimension, required=True)

    if p_cen := command("census", "exhaustive counts over a point file"):
        p_cen.set_defaults(func=_cmd_census)
        p_cen.add_argument("kind", choices=("spreads", "distances", "lines", "occurrences"))
        p_cen.add_argument("--points", type=_path, required=True)
        p_cen.add_argument("--gamma", type=int, help="spread value for `occurrences`")
        p_cen.add_argument("--workers", type=_positive_int, default=1, help="accepted and ignored")
        _add_flags(p_cen, env, "budget", "format")

    if p_search := command("search", "exhaustive searches"):
        search_sub = p_search.add_subparsers(dest="subcommand", required=True)
        p_iso = search_sub.add_parser("iso-triple")
        p_iso.set_defaults(func=_cmd_search)
        _add_flags(p_iso, env, "field", "budget", "format")
        p_iso.add_argument("--d", type=_dimension, required=True)

    if p_sphere := command("sphere", "enumerate a sphere |x| = t"):
        p_sphere.set_defaults(func=_cmd_sphere)
        _add_flags(p_sphere, env, "field", "budget")
        p_sphere.add_argument("--d", type=_dimension, required=True)
        p_sphere.add_argument("--t", type=int, required=True)

    if p_expt := command("experiment", "seeded experiments with pass/fail verdicts"):
        expt_sub = p_expt.add_subparsers(dest="kind", required=True)
        for kind, (_, params) in _EXPERIMENTS.items():
            p_kind = expt_sub.add_parser(kind)
            p_kind.set_defaults(func=_cmd_experiment)
            _add_flags(p_kind, env, "field", *params, "budget", "format")
        p_all = expt_sub.add_parser("all", help="the full acceptance battery")
        p_all.set_defaults(func=_cmd_experiment_all)
        _add_flags(p_all, env, "seed", "budget", "format")
    return top


# -- subcommand bodies -----------------------------------------------------------


def _cmd_field_info(args) -> int:
    fd = ff.parse_field(args.field)
    info = {
        "p": fd.p,
        "r": fd.r,
        "q": fd.q,
        "modulus": list(fd.modulus) if fd.modulus else None,
        "encoding": (
            "an element index i in [0, q) encodes sum(c_k * alpha^k) where "
            "(c_0, ..., c_{r-1}) are the base-p digits of i; coordinates on "
            "the command line and in point files use these indices"
        ),
    }
    _emit(args, json.dumps(info, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_spread_eval(args) -> int:
    fd = ff.parse_field(args.field)
    apex, b, c = (_parse_point(fd, args.d, t) for t in (args.apex, args.b, args.c))
    s = geom.spread(fd, apex, b, c)
    _emit(args, geom.format_spread(s) + "\n")
    return 0


def _cmd_kspread_eval(args) -> int:
    ps = PointSet.load(args.points)
    s = geom.k_spread(ps.field, list(ps.points), args.budget)
    _emit(args, geom.format_spread(s) + "\n")
    return 0


def _cmd_construct(args) -> int:
    from . import construct

    fd = ff.parse_field(args.field)
    if args.kind == "con1":
        ps = construct.con1_set(fd, args.d, budget=args.budget)
    elif args.kind == "con2":
        ps = construct.con2_set(fd, args.d, budget=args.budget)
    else:
        ps = PointSet(fd, args.d, construct.iso_family(fd, args.d))
    _emit(args, ps.dumps())
    return 0


def _cmd_census(args) -> int:
    from . import census

    if args.format == "csv" and args.kind in ("lines", "occurrences"):
        raise FormatError(f"`census {args.kind}` has no value list; use --format json")
    ps = PointSet.load(args.points)
    started = time.monotonic()
    body: dict = {"field": ps.field.label(), "d": ps.dim, "n_points": len(ps)}
    values: tuple[int, ...] = ()
    if args.kind == "spreads":
        cen = census.distinct_spreads(ps, budget=args.budget)
        body.update(
            defined_spread_values=list(cen.defined_values),
            defined_count=cen.defined_count,
            undefined_triples=cen.undefined_triples,
            triples_scanned=cen.triples_scanned,
        )
        values = cen.defined_values
    elif args.kind == "distances":
        cen = census.distinct_distances(ps, budget=args.budget)
        body.update(
            distance_values=list(cen.values),
            nonzero_distance_values=list(cen.nonzero_values),
            pairs_scanned=cen.pairs_scanned,
        )
        values = cen.values
    elif args.kind == "lines":
        cen = census.spanned_lines(ps, budget=args.budget)
        body.update(lines=cen.lines, max_degree=cen.max_degree, pairs_scanned=cen.pairs_scanned)
    else:
        if args.gamma is None:
            raise FormatError("`census occurrences` needs --gamma")
        count = census.spread_occurrences(ps, args.gamma, budget=args.budget)
        body.update(gamma=args.gamma, occurrences=count)
    body["elapsed_ms"] = int((time.monotonic() - started) * 1000)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["value"])
        for v in values:
            writer.writerow([v])
        _emit(args, buf.getvalue())
    else:
        _emit(args, json.dumps(body, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_search(args) -> int:
    from . import census

    fd = ff.parse_field(args.field)
    found = census.search_iso_triple(fd, args.d, budget=args.budget)
    if args.format == "json":
        body = {
            "field": fd.label(),
            "d": args.d,
            "found": found is not None,
            "vectors": [list(v) for v in found] if found else None,
        }
        _emit(args, json.dumps(body, sort_keys=True, indent=2) + "\n")
    elif found is None:
        _emit(args, "NoneFound\n")
    else:
        _emit(args, "\n".join(",".join(str(x) for x in v) for v in found) + "\n")
    return 0


def _cmd_sphere(args) -> int:
    fd = ff.parse_field(args.field)
    ps = geom.sphere_points(fd, args.d, args.t, budget=args.budget)
    _emit(args, ps.dumps())
    return 0


def _report_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["experiment", "field", "trial", "record"])
    for rep in reports:
        for rec in rep.per_trial:
            writer.writerow(
                [rep.name, rep.params.get("field", ""), rec.get("trial", 0), json.dumps(rec, sort_keys=True)]
            )
    return buf.getvalue()


def _cmd_experiment(args) -> int:
    from . import expt

    name, params = _EXPERIMENTS[args.kind]
    run = getattr(expt, name)
    rep = run(ff.parse_field(args.field), **{p: getattr(args, p) for p in params}, budget=args.budget)
    _emit(args, _report_csv([rep]) if args.format == "csv" else rep.to_json() + "\n")
    return 0 if rep.passed else 1


def _cmd_experiment_all(args) -> int:
    from . import expt

    reports = expt.acceptance_suite(seed=args.seed, budget=args.budget)
    for rep in reports:
        tag = rep.params.get("field", "-")
        print(f"{rep.verdict.upper():4s} {rep.name} field={tag}", file=sys.stderr)
    if args.format == "csv":
        _emit(args, _report_csv(reports))
    else:
        _emit(args, json.dumps([r.as_dict() for r in reports], sort_keys=True, indent=2) + "\n")
    return 0 if all(r.passed for r in reports) else 1


def main(argv=None) -> int:
    # argparse takes the command from the first positional word, which
    # need not be argv[0]; a command any word names is built in full
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(set(argv)).parse_args(argv)
    try:
        return args.func(args)
    except DomainError as err:
        print(err.code, file=sys.stderr)
        print(f"detail: {err}", file=sys.stderr)
        return 1
    except OSError as err:  # an unreadable --points or unwritable --out path
        print(f"usage error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

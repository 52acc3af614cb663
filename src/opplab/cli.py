"""Command-line driver for reproducible experiments.

Every subcommand reads a form (or a finite configuration), runs one
library routine, and emits CSV or JSON.  Outputs are byte-identical
across runs for a fixed seed: all randomness flows through seeded
generators and all reductions are ordered.  Input forms are always
rescaled to determinant +1 (see forms.normalize) before any computation,
so commands agree with the library conventions regardless of the scale
the form was typed at.

This is the one module that knows how a result is printed.  The JSON of a
result record is its dataclass fields, recursively, keyed by field name,
except for five keys:

    lam -> lambda, n_samples -> N, main_constant -> c_q,
    main_constant_stderr -> c_q_stderr, witness -> witness_summary.

Two fields are not printed: DichotomyOutcome.table (the small-values CSV
prints the table instead) and ImprovementStats.ratios (the raw ratio
array).  ``witness`` adds the ``witnessed`` count, and ``count`` prints
``null`` for the ratio of a degenerate window.  Every CSV header lives here.

Exit codes: 0 success, 1 usage or input errors, 2 scientific anomaly
(currently only the dichotomy command: the rational branch was rejected
and yet witness coverage fell below the configured floor).

The OPPLAB_THREADS environment variable sets the worker processes of the
projection sweep and the margulis transports, the only steps that run on
workers; it is capped at the CPUs the process may run on, and it changes
wall time only, never output bytes.  Every subcommand rejects a value that
is not a positive integer with exit 1.  Both ``python -m opplab`` and the
``opplab`` script import the package first, which pins OpenBLAS to one
thread unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is
set: no subcommand gains from BLAS threads, and their idle pool costs CPU
time in every process.  The pin does not reach child processes.

This module calls the library through its layer modules (such as
``enumeration.witness_table``), which load on first use, so a run executes
only the layers its subcommand calls: ``--help`` none beyond errors and
util, ``projection`` and ``margulis`` only projection (and forms, which
reads a --theta).  JSON output never holds NaN or Infinity; a result with
a non-finite value exits 1 instead.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

# the layers load on first use (see opplab/__init__.py): a subcommand runs only its own
from . import approx, enumeration, flows, forms, projection
from .errors import OppLabError
from .util import worker_count

WITNESS_CSV_HEADER = ("s", "v1", "v2", "v3", "value", "gap", "norm")
COUNT_CSV_HEADER = ("T", "count", "c_q", "main_term", "ratio", "degenerate_window")
EQUIDIST_CSV_HEADER = ("T", "N", "empirical", "haar", "deviation", "min_inj")
SURVEY_CSV_HEADER = ("r", "exceptional_fraction", "max_count", "energy_median", "energy_p95")
RATIONAL_CSV_HEADER = ("R", "dist", "lam", "certified", "m11", "m22", "m33", "m12", "m13", "m23")
MARGULIS_CSV_HEADER = ("rho", "ratio_median")
CQ_CSV_HEADER = ("c_q", "stderr", "delta", "samples", "seed")
DICHOTOMY_CSV_HEADER = ("branch", "dist", "lam", "certified", "witnessed_fraction")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this package reserves 2 for anomalies."""

    def error(self, message):
        raise _UsageError(message)


@dataclass
class ExperimentConfig:
    """A subcommand plus its parameters, as parsed; round-trips through JSON.

    ``params`` holds the raw argument values (strings stay strings), so the
    canonical JSON is a faithful record of what was requested and the same
    config replays to byte-identical output.
    """

    command: str
    params: dict

    def to_json_obj(self) -> dict:
        return {"command": self.command, "params": self.params}

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json_obj(cls, obj) -> "ExperimentConfig":
        return cls(command=str(obj["command"]), params=dict(obj["params"]))

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_json_obj(json.loads(text))


_NON_PARAM_KEYS = ("func", "out", "format", "save_config", "command")


def _config_from_args(command: str, args: argparse.Namespace) -> ExperimentConfig:
    params = {k: v for k, v in vars(args).items() if k not in _NON_PARAM_KEYS}
    return ExperimentConfig(command=command, params=params)


def _finite_float(text: str) -> float:
    """A float option value; NaN, infinities and non-numbers are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    try:
        values = [_finite_float(tok) for tok in text.split(",") if tok.strip()]
    except argparse.ArgumentTypeError as exc:
        raise ValueError(str(exc)) from None
    if not values:
        raise ValueError(f"expected a comma-separated list of numbers, got {text!r}")
    return values


#: JSON keys that differ from the record field they print.
_JSON_KEYS = {
    "lam": "lambda",
    "n_samples": "N",
    "main_constant": "c_q",
    "main_constant_stderr": "c_q_stderr",
    "witness": "witness_summary",
}
#: Record fields left out of the JSON (see the module docstring).
_UNPRINTED = frozenset({"table", "ratios"})


def _json_obj(value):
    """The printed JSON form of a result record: its fields, recursively."""
    if dataclasses.is_dataclass(value):
        return {
            _JSON_KEYS.get(f.name, f.name): _json_obj(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in _UNPRINTED
        }
    if isinstance(value, (list, tuple)):
        return [_json_obj(v) for v in value]
    return value


def _columns(objs: Iterable[dict], header: Sequence[str]) -> list[tuple]:
    """CSV rows read from JSON objects in header order."""
    return [tuple(obj[k] for k in header) for obj in objs]


def _witness_rows(table: enumeration.WitnessTable) -> list[tuple]:
    """One row per target; an unwitnessed target leaves the vector cells empty."""
    return [
        (s, "", "", "", "", "", "") if rec is None else (rec.s, *rec.v, rec.value, rec.gap, rec.norm)
        for s, rec in zip(table.targets, table.records)
    ]


def _emit(args: argparse.Namespace, obj, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write obj as JSON, or header and rows as CSV, as --format asks."""
    if args.format == "json":
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"  # RFC 8259 has no NaN
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _form(args: argparse.Namespace) -> forms.NormalizedForm:
    return forms.normalize(forms.parse_form(args.form))


def _load_theta(args: argparse.Namespace) -> projection.FiniteConfig:
    if args.theta is not None:
        return projection.FiniteConfig.from_json_obj(forms.read_json_arg(args.theta, "configuration"))
    if args.random_theta is not None:
        return projection.FiniteConfig.random_ball(args.random_theta, radius=args.ball_radius, seed=args.seed)
    raise ValueError("provide a configuration via --theta or --random-theta")


def cmd_dichotomy(args) -> int:
    outcome = approx.dichotomy_report(
        _form(args),
        args.R,
        args.T,
        eps=args.eps,
        grid_step=args.grid,
        a_exp=args.a_exp,
        k_exp=args.k_exp,
    )
    if outcome.table is not None:
        header, rows = WITNESS_CSV_HEADER, _witness_rows(outcome.table)
    else:
        best = outcome.approx
        row = (outcome.branch, best.dist, best.lam, best.certified, "")
        header, rows = DICHOTOMY_CSV_HEADER, [row]
    _emit(args, _json_obj(outcome), header, rows)
    if outcome.branch == "small_values" and outcome.witness.fraction < args.coverage_floor:
        return 2
    return 0


def cmd_witness(args) -> int:
    table = enumeration.witness_table(_form(args), args.s_min, args.s_max, args.grid, args.eps, args.T)
    obj = _json_obj(table)
    obj["witnessed"] = table.witnessed
    _emit(args, obj, WITNESS_CSV_HEADER, _witness_rows(table))
    return 0


def cmd_count(args) -> int:
    reports = enumeration.count_vs_main_term(
        _form(args),
        args.a,
        args.b,
        _float_list(args.T),
        delta=args.delta,
        samples=args.samples,
        seed=args.seed,
    )
    objs = [_json_obj(r) for r in reports]
    for obj in objs:
        if obj["degenerate_window"]:
            obj["ratio"] = None  # the record keeps its NaN; JSON has no NaN
    rows = [
        (r.T, r.count, r.main_constant, r.main_term, "" if r.degenerate_window else r.ratio,
         int(r.degenerate_window))
        for r in reports
    ]
    _emit(args, objs, COUNT_CSV_HEADER, rows)
    return 0


def cmd_cq(args) -> int:
    estimate, stderr = enumeration.main_term_constant(
        _form(args), delta=args.delta, samples=args.samples, seed=args.seed
    )
    obj = {
        "c_q": estimate,
        "stderr": stderr,
        "delta": args.delta,
        "samples": args.samples,
        "seed": args.seed,
    }
    _emit(args, obj, CQ_CSV_HEADER, _columns([obj], CQ_CSV_HEADER))
    return 0


def cmd_rational(args) -> int:
    result = approx.algebraicity_gap(_form(args), _float_list(args.R), exhaustive_limit=args.exhaustive_limit)
    rows = [(row.R, row.dist, row.lam, row.certified, *row.qprime.entries) for row in result.rows]
    _emit(args, _json_obj(result), RATIONAL_CSV_HEADER, rows)
    return 0


def cmd_equidist(args) -> int:
    reports = flows.discrepancy_scan(_form(args), _float_list(args.T), args.N, args.f_radius, seed=args.seed)
    objs = _json_obj(reports)
    _emit(args, objs, EQUIDIST_CSV_HEADER, _columns(objs, EQUIDIST_CSV_HEADER))
    return 0


def cmd_projection(args) -> int:
    config = _load_theta(args)
    # the grid first: an r count over the ceiling exits before the n^2 pass
    # that measures egbd
    if args.r_grid is not None:
        grid = _float_list(args.r_grid)
    else:
        grid = projection.uniform_r_grid(args.r_count, len(config))
    params = projection.ProjectionParams.measured(
        config,
        alpha=args.alpha,
        b1=args.b1 if args.b1 is not None else args.b,
        b=args.b,
        eps=args.pvare,
    )
    result = projection.projection_survey(config, params, grid, survey_const=args.C, survey_exp=args.c)
    obj = _json_obj(result)
    obj["params"] = _json_obj(params)
    _emit(args, obj, SURVEY_CSV_HEADER, _columns(obj["rows"], SURVEY_CSV_HEADER))
    return 0


def cmd_margulis(args) -> int:
    config = _load_theta(args)
    stats = projection.improvement_step_sim(
        config,
        alpha=args.alpha,
        ell=args.ell,
        b=args.b,
        r_samples=args.r_samples,
        truncation=args.M,
        seed=args.seed,
    )
    rows = list(zip(stats.rho_values, stats.rho_medians))
    _emit(args, _json_obj(stats), MARGULIS_CSV_HEADER, rows)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="opplab", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_format):
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        p.add_argument("--format", choices=("csv", "json"), default=default_format)
        p.add_argument("--save-config", default=None, help="also write the parsed config as canonical JSON")

    def form_arg(p):
        p.add_argument("--form", required=True, help="inline JSON (Gram entries or diagonal list) or a file path")

    p = sub.add_parser("dichotomy", help="decide rational-approximation vs small-values branch")
    form_arg(p)
    p.add_argument("--R", type=_finite_float, required=True, help="entry bound for the integral approximation")
    p.add_argument("--T", type=_finite_float, required=True, help="vector norm budget for the witness search")
    p.add_argument("--eps", type=_finite_float, default=None, help="witness tolerance (default R^-k_exp)")
    p.add_argument("--grid", type=_finite_float, default=0.1, help="target grid step")
    p.add_argument("--a-exp", type=_finite_float, default=4.0)
    p.add_argument("--k-exp", type=_finite_float, default=0.125)
    p.add_argument("--coverage-floor", type=_finite_float, default=0.9, help="witnessed fraction below this exits 2")
    common(p, "json")
    p.set_defaults(func=cmd_dichotomy)

    p = sub.add_parser("witness", help="table of near-representations over a grid of targets")
    form_arg(p)
    p.add_argument("--s-min", type=_finite_float, default=-5.0)
    p.add_argument("--s-max", type=_finite_float, default=5.0)
    p.add_argument("--grid", type=_finite_float, default=0.1, help="target grid step")
    p.add_argument("--eps", type=_finite_float, default=0.02, help="tolerance |Q(v) - s| <= eps")
    p.add_argument("--T", type=_finite_float, required=True, help="vector norm bound")
    common(p, "csv")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("count", help="integer-vector value counts against the volume main term")
    form_arg(p)
    p.add_argument("--a", type=_finite_float, required=True, help="window lower endpoint")
    p.add_argument("--b", type=_finite_float, required=True, help="window upper endpoint")
    p.add_argument("--T", type=str, required=True, help="comma-separated norm bounds")
    p.add_argument("--delta", type=_finite_float, default=0.05)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    common(p, "csv")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("cq", help="Monte Carlo estimate of the counting constant")
    form_arg(p)
    p.add_argument("--delta", type=_finite_float, default=0.05)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    common(p, "json")
    p.set_defaults(func=cmd_cq)

    p = sub.add_parser("rational", help="best integral approximations over a ladder of entry bounds")
    form_arg(p)
    p.add_argument("--R", type=str, required=True, help="comma-separated ascending entry bounds")
    p.add_argument("--exhaustive-limit", type=int, default=12)
    common(p, "csv")
    p.set_defaults(func=cmd_rational)

    p = sub.add_parser("equidist", help="orbit averages of a bump against the Haar prediction")
    form_arg(p)
    p.add_argument("--T", type=str, required=True, help="comma-separated flow times")
    p.add_argument("--N", type=int, default=400, help="number of unipotent samples")
    p.add_argument("--f-radius", type=_finite_float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    common(p, "csv")
    p.set_defaults(func=cmd_equidist)

    def theta_args(p):
        p.add_argument("--theta", default=None, help="configuration as inline JSON or a file path")
        p.add_argument("--random-theta", type=int, default=None, help="sample this many points in a ball instead")
        p.add_argument("--ball-radius", type=_finite_float, default=1.0)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("projection", help="concentration survey of the restricted projections")
    theta_args(p)
    p.add_argument("--alpha", type=_finite_float, default=2.0)
    p.add_argument("--b", type=_finite_float, default=0.02, help="concentration scale")
    p.add_argument("--b1", type=_finite_float, default=None, help="finest non-concentration scale (default: b)")
    p.add_argument("--pvare", type=_finite_float, default=None, help="epsilon in the thresholds (default: alpha/20000)")
    p.add_argument("--C", type=_finite_float, default=10.0, help="constant factor in the count bound")
    p.add_argument("--c", type=_finite_float, default=10.0, help="epsilon multiplier in the count bound exponent")
    p.add_argument("--r-count", type=int, default=500, help="uniform grid size on [0, 1]")
    p.add_argument("--r-grid", type=str, default=None, help="explicit comma-separated r values instead")
    common(p, "csv")
    p.set_defaults(func=cmd_projection)

    p = sub.add_parser("margulis", help="transported truncated-energy ratios on a finite configuration")
    theta_args(p)
    p.add_argument("--alpha", type=_finite_float, default=1.5)
    p.add_argument("--ell", type=_finite_float, default=1.0, help="diagonal flow time")
    p.add_argument("--b", type=_finite_float, default=0.02, help="near-return scale")
    p.add_argument("--M", type=int, default=2, help="truncation: how many smallest returns to drop")
    p.add_argument("--r-samples", type=int, default=8, help="stratified unipotent times")
    common(p, "json")
    p.set_defaults(func=cmd_margulis)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        worker_count()  # reject a bad OPPLAB_THREADS before any work, pool or not
        if args.save_config:
            with open(args.save_config, "w", newline="") as fh:
                fh.write(_config_from_args(args.command, args).canonical_json())
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OppLabError, ValueError, KeyError, TypeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: evaluate operators, run identity suites, explore.

explore judges the finite-endpoint right semigroup of check frac over a grid
of order pairs.  Exit codes: 0 success, 1 identity failure (a check record or
explore row outside its tolerance), 2 numeric failure (non-convergence, pole
or overflow; in check and explore, a record or row in error), 3 usage error
(bad flags, malformed expression, domain violations, an --out that cannot
be opened, written or closed).  Reports are byte-reproducible for a fixed
seed.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from typing import Callable, Iterator

from . import checks
from .core import QParams, Truncation, _grid_exponent, count_terms
from .errors import DomainError, QCalculusError
from .expr import ExprError, compile_expr
from .fractional import (
    left_caputo,
    left_frac_integral,
    left_riemann_deriv,
    right_caputo,
    right_frac_integral,
    right_riemann_deriv,
)
from .ivp import MLParams, q_mittag_leffler
from .special import q_exp_E, q_exp_e, q_factorial_power, q_gamma

ENV_REL_TOL = "QFRAC_REL_TOL"
ENV_MAX_TERMS = "QFRAC_MAX_TERMS"

EVAL_COLUMNS = [
    "target", "q", "alpha", "beta", "lambda", "a", "b", "s", "t", "z", "z0",
    "f", "value",
]
EXPLORE_COLUMNS = [
    "identity_id", "q", "alpha", "beta", "a", "b", "t", "value_lhs",
    "value_rhs", "rel_err", "terms", "status", "error",
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-3", "-0.5,1" or "-inf" after a flag for an unknown
        # option, as only "-1" and "-0.5" pass its pattern; no flag starts
        # "-<digit>", "-inf" or "-nan", in any case.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _env(name: str, parse: Callable[[str], float]) -> float | None:
    """The variable parsed as --rel-tol (float) or --max-terms (int) would be."""
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return parse(raw)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise UsageError(f"environment variable {name}={raw!r} is not {kind}")


def _resolve_truncation(args: argparse.Namespace) -> Truncation:
    # Precedence: flag, then environment, then library default.
    given = {
        "rel_tol": args.rel_tol if args.rel_tol is not None else _env(ENV_REL_TOL, float),
        "max_terms": args.max_terms if args.max_terms is not None else _env(ENV_MAX_TERMS, int),
    }
    return Truncation(**{key: value for key, value in given.items() if value is not None})


def _float_list(raw: str, flag: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} expects a number or comma-separated numbers, got {raw!r}")


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"eval {args.target} requires --{name.replace('_', '-')}")


class _Output:
    """The --out stream: stdout for None or '-', else the file at path, opened
    on entering and closed (stdout flushed) on leaving.  An OSError from the
    open, a write or the close is a usage error naming the path; a write that
    fails can leave part of the output behind."""

    def __init__(self, path: str | None) -> None:
        self.path = "-" if path is None else path

    def _call(self, fn: Callable, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OSError as exc:
            raise UsageError(f"cannot write --out {self.path!r}: {exc.strerror or exc}")

    def __enter__(self) -> _Output:
        if self.path == "-":
            stream, self._finish = sys.stdout, sys.stdout.flush
        else:
            stream = self._call(open, self.path, "w", encoding="utf-8", newline="")
            self._finish = stream.close
        self._write = stream.write
        return self

    def write(self, text: str) -> int:
        return self._call(self._write, text)

    def __exit__(self, *exc_info) -> None:
        self._call(self._finish)


# ---------------------------------------------------------------------------
# eval

# (target, side) -> operator(f, endpoint, alpha, t, p).
_OPERATORS = {
    ("fracint", "left"): left_frac_integral,
    ("fracint", "right"): right_frac_integral,
    ("fracder", "left"): left_riemann_deriv,
    ("fracder", "right"): right_riemann_deriv,
    ("caputo", "left"): left_caputo,
    ("caputo", "right"): right_caputo,
}


def _eval_rows(args: argparse.Namespace, p: QParams) -> Iterator[dict]:
    target = args.target
    base = {key: "" for key in EVAL_COLUMNS}
    base["target"] = target
    base["q"] = repr(p.q)

    def row(value_fn, **fields) -> dict:
        out = dict(base)
        for key, val in fields.items():
            out[key] = repr(val) if isinstance(val, float) else str(val)
        with count_terms() as counter:
            out["value"] = repr(value_fn())
        out["terms"] = counter.total
        return out

    if target == "gamma":
        _require(args, "alpha")
        yield row(lambda: q_gamma(args.alpha, p), alpha=args.alpha)
    elif target == "qfact":
        _require(args, "t", "s", "alpha")
        for t in _float_list(args.t, "--t"):
            yield row(
                lambda t=t: q_factorial_power(t, args.s, args.alpha, p),
                t=t, s=args.s, alpha=args.alpha,
            )
    elif target == "ml":
        _require(args, "alpha", "z")
        params = MLParams(args.alpha, args.beta, args.lam, args.z0)
        for z in _float_list(args.z, "--z"):
            yield row(
                lambda z=z: q_mittag_leffler(params, z, p),
                alpha=args.alpha, beta=args.beta, z=z, z0=args.z0,
                **{"lambda": args.lam},
            )
    elif target in ("eq", "Eq"):
        _require(args, "t")
        func = q_exp_e if target == "eq" else q_exp_E
        for t in _float_list(args.t, "--t"):
            yield row(lambda t=t: func(t, p), t=t)
    else:  # an operator of _OPERATORS
        _require(args, "alpha", "t", "f")
        expr = compile_expr(args.f)
        op = _OPERATORS[target, args.side]
        key, default = ("a", 0.0) if args.side == "left" else ("b", math.inf)
        end = getattr(args, key)
        if end is None:
            end = default
        for t in _float_list(args.t, "--t"):
            yield row(
                lambda t=t: op(lambda s: expr(s, t), end, args.alpha, t, p),
                alpha=args.alpha, t=t, f=args.f, **{key: end},
            )


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.q is None:
        raise UsageError("eval requires --q")
    p = QParams(args.q, _resolve_truncation(args))
    columns = list(EVAL_COLUMNS)
    if args.verbose:
        columns.append("terms")
    # Materialise before writing so failures do not leave partial output.
    rows = list(_eval_rows(args, p))
    with _Output(args.out) as stream:
        writer = csv.DictWriter(stream, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# check

def _verdict(records: list[checks.IdentityRecord]) -> int:
    """The exit code of check and explore: 2 if a record errored, 1 if one
    missed its tolerance, else 0."""
    if any(rec.error is not None for rec in records):
        return 2
    return 0 if all(rec.passed for rec in records) else 1


def _log_records(records: list[checks.IdentityRecord]) -> None:
    """The --verbose listing of check and explore: one stderr line per record."""
    for rec in records:
        state = "pass" if rec.passed else "FAIL"
        print(f"[{state}] {rec.identity} {rec.params} rel_err={rec.rel_err:.3e}", file=sys.stderr)


def _cmd_check(args: argparse.Namespace) -> int:
    trunc = _resolve_truncation(args)
    # Open --out first, so an unwritable path fails before the suite runs.
    with _Output(args.out) as stream:
        report = checks.run_suite(args.suite, seed=args.seed, trunc=trunc)
        report.write_json(stream)
    if args.verbose:
        _log_records(report.records)
    print(
        f"suite={report.suite} records={len(report.records)} "
        f"failed={report.n_failed} duration={report.duration:.2f}s",
        file=sys.stderr,
    )
    return _verdict(report.records)


# ---------------------------------------------------------------------------
# explore

def _parse_grid(raw: str | None) -> list[tuple[float, float]]:
    if raw is None:
        return checks.default_explore_grid()
    pairs = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError(f"--grid pairs must look like 'alpha,beta', got {chunk!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise UsageError(f"--grid pair {chunk!r} is not numeric")
    return pairs


def _cmd_explore(args: argparse.Namespace) -> int:
    trunc = _resolve_truncation(args)
    q = args.q if args.q is not None else 0.5
    if not (0.0 < q < 1.0):
        raise UsageError(f"--q must lie in (0, 1), got {q}")
    b = args.b if args.b is not None else 1.0
    if not (math.isfinite(b) and b > 0):
        raise UsageError(f"explore requires a finite positive --b, got {b}")
    if _grid_exponent(b, q) is None:
        raise UsageError(f"--b={b} must be an integer power of q={q}")
    t = args.t if args.t is not None else b * q * q
    m = _grid_exponent(t / b, q)
    if m is None:
        raise UsageError(f"--t relative to --b={t / b} must be an integer power of q={q}")
    if m <= 0:
        raise UsageError(f"--t must lie strictly below --b on the grid, got t={t}, b={b}")
    expr = compile_expr(args.f if args.f is not None else "1")
    f = lambda s: expr(s, t)
    pairs = _parse_grid(args.grid)
    # Open --out first, so an unwritable path fails before the pairs run.
    with _Output(args.out) as stream:
        records = checks.explore_finite_right_semigroup(pairs, q, b, f, t, trunc)
        # Columns a record does not fill (a) stay empty, as does a NaN value.
        blank_nan = lambda x: "" if math.isnan(x) else repr(x)
        writer = csv.DictWriter(stream, fieldnames=EXPLORE_COLUMNS)
        writer.writeheader()
        for rec in records:
            writer.writerow(
                {
                    "identity_id": rec.identity,
                    **{key: repr(value) for key, value in rec.params.items()},
                    "value_lhs": blank_nan(rec.lhs),
                    "value_rhs": blank_nan(rec.rhs),
                    "rel_err": blank_nan(rec.rel_err),
                    "terms": rec.terms,
                    "status": "error" if rec.error else "pass" if rec.passed else "fail",
                    "error": rec.error,
                }
            )
    if args.verbose:
        _log_records(records)
    return _verdict(records)


# ---------------------------------------------------------------------------
# parser

def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rel-tol", dest="rel_tol", type=float, default=None)
    parser.add_argument("--max-terms", dest="max_terms", type=int, default=None)
    parser.add_argument("--out", default=None, help="output path, '-' for stdout")
    parser.add_argument("--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qfrac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    ev = sub.add_parser("eval", help="evaluate one operator at given points")
    ev.add_argument(
        "target",
        choices=["gamma", "qfact", "ml", "eq", "Eq", "fracint", "fracder", "caputo"],
    )
    ev.add_argument("--q", type=float, default=None)
    ev.add_argument("--alpha", type=float, default=None)
    ev.add_argument("--beta", type=float, default=1.0)
    ev.add_argument("--lambda", dest="lam", type=float, default=0.0)
    ev.add_argument("--a", type=float, default=None)
    ev.add_argument("--b", type=float, default=None)
    ev.add_argument("--s", type=float, default=None)
    ev.add_argument("--t", default=None, help="evaluation point(s), comma separated")
    ev.add_argument("--z", default=None, help="evaluation point(s), comma separated")
    ev.add_argument("--z0", type=float, default=0.0)
    ev.add_argument("--f", default=None, help="integrand expression in s (and t)")
    ev.add_argument("--side", choices=["left", "right"], default="left")
    _add_common_flags(ev)
    ev.set_defaults(func=_cmd_eval)

    ck = sub.add_parser("check", help="run an identity suite and emit a JSON report")
    ck.add_argument("suite", choices=list(checks.SUITE_NAMES) + ["all"])
    ck.add_argument("--seed", type=int, default=0)
    _add_common_flags(ck)
    ck.set_defaults(func=_cmd_check)

    ex = sub.add_parser(
        "explore",
        help="judge the finite-endpoint right semigroup over order pairs",
    )
    ex.add_argument("--q", type=float, default=None)
    ex.add_argument("--b", type=float, default=None)
    ex.add_argument("--t", type=float, default=None)
    ex.add_argument("--f", default=None, help="test function expression, default 1")
    ex.add_argument("--grid", default=None, help="pairs 'alpha,beta;alpha,beta;...'")
    _add_common_flags(ex)
    ex.set_defaults(func=_cmd_explore)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"qfrac: error: {exc}", file=sys.stderr)
        return 3
    try:
        return args.func(args)
    except (UsageError, ExprError, DomainError) as exc:
        print(f"qfrac: error: {exc}", file=sys.stderr)
        return 3
    except (QCalculusError, OverflowError, ZeroDivisionError) as exc:
        print(f"qfrac: numeric failure: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    try:
        sys.exit(main())
    finally:
        # A reader that left early (`qfrac check all | head -1`) has had its
        # error from main; what stdout still buffers goes to devnull, so the
        # interpreter's flush at exit does not raise it again.
        try:
            sys.stdout.flush()
        except OSError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())

"""Command-line interface: prove the source theorem, maximize functionals, find extensions.

Subcommands:

* ``verify``   -- exact proof, at one local dimension, that the source operator
  extends the Werner state and that the Werner state is entangled.
* ``bell``     -- see-saw maximization of the perfect-correlation Bell
  gap or the CHSH combination on a chosen state.
* ``dso-find`` -- Douglas–Rachford projection search for a tripartite
  extension with prescribed marginals; reports why it stopped
  (``converged``, ``infeasible`` with a checked certificate, or
  ``max_iters``).

Every run writes one JSON report, ``json.dumps(report, indent=2)``, to
stdout: floats take their shortest round-trip spelling, so identical inputs
give identical bytes in every field but ``wall_time_ms``.  A short summary
goes to stderr unless ``--quiet`` is passed.  The report's ``parameters``
echo every option but ``--quiet``, in parser order; ``d`` is the state's
local dimension, which ``--d`` sets for ``werner`` alone.
Exit codes: 0 all checks passed, 1 a check failed or a violation was
found, 2 usage error, 3 structurally valid but non-density input data.
Repeated ``main(argv)`` calls share one parser, built on the first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .bell import SeeSawConfig, seesaw_chsh, seesaw_original_bell
from .extensions import dykstra_find_extension, pattern_right2, pattern_sym3
from .linalg import _split_text, operator_from_text, operator_to_text
from .states import (
    DensityOperator,
    _bipartite_dim,
    _check_local_dim,
    _source_proof,
    singlet,
    werner,
)

__all__ = ["main"]

# Slack over a classical bound: see-saw sums round near 1e-14; named states violate by >= 0.5.
_BOUND_SLACK = 1e-7


class _UsageError(Exception):
    """Bad command line or unreadable input file (exit code 2)."""


class _DataError(Exception):
    """Input parsed but fails the density-operator contract (exit code 3)."""


@dataclass
class _Outcome:
    d: int
    results: dict
    passed: bool
    notes: list[str] = field(default_factory=list)


def _check_d(d: int) -> None:
    try:
        _check_local_dim(d)
    except ValueError as exc:
        raise _UsageError(f"--d: {exc}") from exc


def _resolve_state(name: str, d: int | None) -> DensityOperator:
    """Build the requested bipartite state; ``--d`` sizes ``werner`` alone."""
    if name == "werner":
        if d is None:
            raise _UsageError("--state werner requires --d")
        _check_d(d)
        return werner(d)
    if d is not None:
        raise _UsageError(f"--d is accepted only with --state werner, got --state {name}")
    if name == "singlet":
        return singlet()
    if name.startswith("file:"):
        path = name[len("file:"):]
        try:
            text = Path(path).read_text(encoding="ascii")
            dims, _ = _split_text(text)
        except (OSError, ValueError) as exc:
            raise _UsageError(f"cannot read state file {path!r}: {exc}") from exc
        # The header is checked before any matrix is built from it.
        try:
            local = _bipartite_dim(dims)
            _check_local_dim(local)
        except ValueError as exc:
            raise _DataError(f"state file: {exc}") from exc
        try:
            op = operator_from_text(text)
        except ValueError as exc:
            raise _UsageError(f"cannot read state file {path!r}: {exc}") from exc
        try:
            return DensityOperator(op.entries, op.factor_dims)
        except ValueError as exc:
            raise _DataError(f"state file is not a density operator: {exc}") from exc
    raise _UsageError(f"unknown state {name!r}; use werner, singlet, or file:PATH")


def _check(value: float, threshold: float) -> dict:
    return {"value": float(value), "threshold": float(threshold), "pass": bool(value <= threshold)}


def _exact(value: object, passed: bool) -> dict:
    return {"value": str(value), "threshold": "0", "pass": bool(passed)}


def cmd_verify(args: argparse.Namespace) -> _Outcome:
    d = args.d
    _check_d(d)
    checks = {key: _exact(*check) for key, check in _source_proof(d).items()}
    npass = sum(entry["pass"] for entry in checks.values())
    notes = [f"verify d={d}: {npass}/{len(checks)} identity checks passed"]
    return _Outcome(d=d, results=checks, passed=npass == len(checks), notes=notes)


def cmd_bell(args: argparse.Namespace) -> _Outcome:
    try:
        cfg = SeeSawConfig(restarts=args.restarts, base_seed=args.seed)
    except ValueError as exc:
        raise _UsageError(f"--restarts / --seed: {exc}") from exc
    rho = _resolve_state(args.state, args.d)
    if args.functional == "original":
        result = seesaw_original_bell(rho, cfg)
        threshold = _BOUND_SLACK
        kind = "perfect-correlation gap"
    else:
        result = seesaw_chsh(rho, cfg)
        threshold = 2.0 + _BOUND_SLACK
        kind = "CHSH value"

    entry = _check(result.best_value, threshold)
    passed = entry["pass"]
    notes = [
        f"{kind} {result.best_value:.12g} from restart {result.restart_index} "
        f"after {result.sweeps_used} sweeps"
    ]
    if not passed:
        notes.append(
            f"VIOLATION: {kind} {result.best_value:.12g} exceeds threshold {threshold:.12g}"
        )
    return _Outcome(d=rho.factor_dims[0], results={"best_value": entry}, passed=passed, notes=notes)


def cmd_dso_find(args: argparse.Namespace) -> _Outcome:
    if args.iters < 1:
        raise _UsageError(f"--iters must be positive, got {args.iters}")
    rho = _resolve_state(args.state, args.d)
    pattern = pattern_sym3(rho) if args.pattern == "sym3" else pattern_right2(rho)
    result = dykstra_find_extension(pattern, max_iters=args.iters, tol=args.tol)
    if args.dump:
        try:
            Path(args.dump).write_text(operator_to_text(result.candidate), encoding="ascii")
        except OSError as exc:
            raise _UsageError(f"cannot write dump file {args.dump!r}: {exc}") from exc

    entry = _check(result.residual, args.tol)
    entry["pass"] = result.converged
    if result.converged:
        notes = [
            f"extension found: residual {result.residual:.3e} after "
            f"{result.iterations} iterations"
        ]
    elif result.certificate is not None:
        notes = [
            f"no extension found: infeasibility certificate "
            f"(value {result.certificate.value:.3e}) after {result.iterations} iterations"
        ]
    else:
        notes = [
            f"no extension found within {result.iterations} iterations "
            f"(best residual {result.residual:.3e})"
        ]
    if args.dump:
        notes.append(f"candidate written to {args.dump}")
    return _Outcome(
        d=rho.factor_dims[0],
        results={"residual": entry, "stop_reason": result.stop_reason},
        passed=result.converged,
        notes=notes,
    )


def _tolerance(text: str) -> float:
    """The type of ``dso-find --tol``: a finite positive float, else a usage error."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return tol


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once, on first use; its ``func`` defaults bind the ``cmd_*`` functions then, so a
    later rebinding of ``cli.cmd_*`` does not reach ``main``."""
    parser = argparse.ArgumentParser(
        prog="bellforge",
        description="Werner-state identities, Bell-functional maximization, extension search.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    d_help = "local dimension of the Werner state, 2..6"

    p_verify = sub.add_parser("verify", help="prove the source theorem exactly for one dimension")
    p_verify.add_argument("--d", type=int, required=True, help=d_help)
    p_verify.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    p_verify.set_defaults(func=cmd_verify)

    p_bell = sub.add_parser("bell", help="maximize a correlation functional by see-saw")
    p_bell.add_argument("--d", type=int, default=None, help=d_help)
    p_bell.add_argument(
        "--functional", choices=("original", "chsh"), required=True, help="objective to maximize"
    )
    p_bell.add_argument(
        "--state", default="werner", help="werner, singlet, or file:PATH (matrix text format)"
    )
    p_bell.add_argument("--restarts", type=int, default=50, help="random restarts")
    p_bell.add_argument(
        "--seed", type=int, default=0, help="base seed <= 2**64-restarts; restart r uses seed+r"
    )
    p_bell.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    p_bell.set_defaults(func=cmd_bell)

    p_find = sub.add_parser("dso-find", help="search for a tripartite extension")
    p_find.add_argument("--d", type=int, default=None, help=d_help)
    p_find.add_argument(
        "--state", default="werner", help="werner, singlet, or file:PATH (matrix text format)"
    )
    p_find.add_argument(
        "--pattern",
        choices=("sym3", "right2"),
        required=True,
        help="marginal pattern: all three factors, or factors 2 and 3",
    )
    p_find.add_argument(
        "--iters",
        type=int,
        default=5000,
        help="Douglas-Rachford iterations, each one marginal sweep and one density projection",
    )
    p_find.add_argument(
        "--tol", type=_tolerance, default=1e-6, help="residual convergence threshold"
    )
    p_find.add_argument("--dump", default=None, help="write the candidate to this path")
    p_find.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    p_find.set_defaults(func=cmd_dso_find)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 0 if code is None else 2

    start = time.perf_counter()
    try:
        outcome = args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    wall_ms = (time.perf_counter() - start) * 1000.0

    # Every option but --quiet, in parser order, with the resolved local dimension.
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "func", "quiet")}
    parameters["d"] = outcome.d
    report = {
        "command": args.command,
        "parameters": parameters,
        "results": outcome.results,
        "wall_time_ms": wall_ms,
        "artifact_version": __version__,
    }
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    if not args.quiet:
        for note in outcome.notes:
            print(note, file=sys.stderr)
    return 0 if outcome.passed else 1

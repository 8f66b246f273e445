"""Command-line interface: verify identities, maximize functionals, find extensions.

Subcommands:

* ``verify``   -- numeric checks of the flip/antisymmetrizer/Werner and
  source-operator identities for one local dimension.
* ``bell``     -- see-saw maximization of the perfect-correlation Bell
  gap or the CHSH combination on a chosen state.
* ``dso-find`` -- Douglas–Rachford projection search for a tripartite
  extension with prescribed marginals; reports why it stopped
  (``converged``, ``infeasible`` with a checked certificate, or
  ``max_iters``).

Every run writes a single JSON report to stdout (floats carry 17
significant digits, so identical inputs give identical bytes in every
field but ``wall_time_ms``) and a short human summary to stderr unless
``--quiet`` is passed.  The report's ``parameters`` echo every option
except ``--quiet``, in parser order; ``d`` is the state's local dimension.
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

import numpy as np

from . import __version__
from .bell import SeeSawConfig, seesaw_chsh, seesaw_original_bell
from .extensions import dykstra_find_extension, pattern_right2, pattern_sym3, verify_marginals
from .linalg import (
    TensorOperator,
    _idempotence,
    _split_text,
    eigenvalues,
    frobenius_distance,
    identity,
    operator_from_text,
    operator_to_text,
    partial_trace,
    trace,
)
from .states import (
    DensityOperator,
    _bipartite_dim,
    _check_local_dim,
    antisym_projector,
    antisymmetrizer3,
    dso_general,
    dso_two_qubit,
    flip,
    singlet,
    werner,
)

__all__ = ["main", "entrypoint", "render_json"]


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


def render_json(value, level: int = 0) -> str:
    """Serialize a report deterministically; floats get 17 significant digits."""
    pad = "  " * level
    inner_pad = "  " * (level + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = ",\n".join(
            f"{inner_pad}{json.dumps(str(k))}: {render_json(v, level + 1)}"
            for k, v in value.items()
        )
        return "{\n" + rows + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = ",\n".join(f"{inner_pad}{render_json(v, level + 1)}" for v in value)
        return "[\n" + rows + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _check_d(d: int) -> None:
    try:
        _check_local_dim(d)
    except ValueError as exc:
        raise _UsageError(f"--d: {exc}") from exc


def _resolve_state(name: str, d: int | None) -> DensityOperator:
    """Build the requested bipartite state, validating dimensions along the way."""
    if name == "werner":
        if d is None:
            raise _UsageError("--state werner requires --d")
        _check_d(d)
        return werner(d)
    if name == "singlet":
        if d is not None and d != 2:
            raise _UsageError(f"--state singlet is two-dimensional, got --d {d}")
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
        if d is not None and local != d:
            raise _DataError(f"state file has local dimension {local}, but --d {d} was given")
        try:
            op = operator_from_text(text)
        except ValueError as exc:
            raise _UsageError(f"cannot read state file {path!r}: {exc}") from exc
        try:
            return DensityOperator(op)
        except ValueError as exc:
            raise _DataError(f"state file is not a density operator: {exc}") from exc
    raise _UsageError(f"unknown state {name!r}; use werner, singlet, or file:PATH")


def _check(value: float, threshold: float) -> dict:
    return {"value": float(value), "threshold": float(threshold), "pass": bool(value <= threshold)}


def cmd_verify(args: argparse.Namespace) -> _Outcome:
    d, tol = args.d, args.tol
    _check_d(d)

    checks: dict[str, dict] = {}
    eye2 = identity((d, d))
    v = flip(d)
    checks["flip_trace"] = _check(abs(trace(v) - d), tol)
    checks["flip_involution"] = _check(frobenius_distance(v @ v, eye2), tol)

    w = werner(d)
    alt = ((d + 1) / d**3) * eye2 - (1.0 / d**2) * v
    checks["werner_forms_agree"] = _check(frobenius_distance(w.op, alt), tol)
    checks["werner_trace"] = _check(abs(trace(w.op) - 1.0), tol)
    eigvals = eigenvalues(w.op)
    checks["werner_negativity"] = _check(max(0.0, -eigvals[-1]), tol)
    expected = np.concatenate(
        [
            np.full(d * (d - 1) // 2, 1.0 / d**3 + 2.0 / d**2),
            np.full(d * (d + 1) // 2, 1.0 / d**3),
        ]
    )
    checks["werner_spectrum"] = _check(float(np.max(np.abs(eigvals - expected))), tol)

    q = antisymmetrizer3(d)
    pm = antisym_projector(d)
    if d == 2:
        checks["antisymmetrizer_vanishes"] = _check(float(np.linalg.norm(q.entries)), tol)
    checks["antisymmetrizer_idempotent"] = _check(_idempotence(q), tol)
    checks["antisymmetrizer_trace"] = _check(
        abs(trace(q) - d * (d - 1) * (d - 2) / 6.0), tol
    )
    target = ((d - 2) / 3.0) * pm
    for j in (1, 2, 3):
        checks[f"antisymmetrizer_partial_trace_{j}"] = _check(
            frobenius_distance(partial_trace(q, j), target), tol
        )

    source = dso_two_qubit() if d == 2 else dso_general(d)
    checks["source_trace"] = _check(abs(trace(source.op) - 1.0), tol)
    source_vals = eigenvalues(source.op)
    checks["source_negativity"] = _check(max(0.0, -source_vals[-1]), tol)
    if d == 2:
        for j, residual in zip((2, 3), verify_marginals(source.op, pattern_right2(w))):
            checks[f"source_marginal_{j}"] = _check(residual, tol)
        mixed = (1.0 / 4.0) * identity((2, 2))
        checks["source_marginal_1_mixed"] = _check(
            frobenius_distance(partial_trace(source.op, 1), mixed), tol
        )
        dso_expected = np.array([0.375, 0.375, 0.125, 0.125, 0.0, 0.0, 0.0, 0.0])
        checks["source_spectrum"] = _check(float(np.max(np.abs(source_vals - dso_expected))), tol)
    else:
        for j, residual in zip((1, 2, 3), verify_marginals(source.op, pattern_sym3(w))):
            checks[f"source_marginal_{j}"] = _check(residual, tol)

    passed = all(entry["pass"] for entry in checks.values())
    npass = sum(entry["pass"] for entry in checks.values())
    notes = [f"verify d={d}: {npass}/{len(checks)} identity checks passed"]
    return _Outcome(d=d, results=checks, passed=passed, notes=notes)


def cmd_bell(args: argparse.Namespace) -> _Outcome:
    try:
        cfg = SeeSawConfig(restarts=args.restarts, base_seed=args.seed)
    except ValueError as exc:
        raise _UsageError(f"--restarts / --seed: {exc}") from exc
    rho = _resolve_state(args.state, args.d)
    if args.functional == "original":
        result = seesaw_original_bell(rho, cfg)
        threshold = args.tol
        kind = "perfect-correlation gap"
    else:
        result = seesaw_chsh(rho, cfg)
        threshold = 2.0 + args.tol
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
    return _Outcome(
        d=rho.factor_dims[0],
        results={"best_value": entry},
        passed=passed,
        notes=notes,
    )


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
            f"{result.iterations} cycles"
        ]
    elif result.certificate is not None:
        notes = [
            f"no extension found: infeasibility certificate "
            f"(value {result.certificate.value:.3e}) after {result.iterations} cycles"
        ]
    else:
        notes = [
            f"no extension found within {result.iterations} cycles "
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

    p_verify = sub.add_parser("verify", help="check the operator identities for one dimension")
    p_verify.add_argument("--d", type=int, required=True, help="local dimension, 2..6")
    p_verify.add_argument("--tol", type=float, default=1e-10, help="pass threshold")
    p_verify.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    p_verify.set_defaults(func=cmd_verify)

    p_bell = sub.add_parser("bell", help="maximize a correlation functional by see-saw")
    p_bell.add_argument("--d", type=int, default=None, help="local dimension, 2..6")
    p_bell.add_argument(
        "--functional", choices=("original", "chsh"), required=True, help="objective to maximize"
    )
    p_bell.add_argument(
        "--state", default="werner", help="werner, singlet, or file:PATH (matrix text format)"
    )
    p_bell.add_argument("--restarts", type=int, default=50, help="random restarts")
    p_bell.add_argument("--seed", type=int, default=0, help="base seed; restart r uses seed+r")
    p_bell.add_argument("--tol", type=float, default=1e-7, help="violation threshold slack")
    p_bell.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
    p_bell.set_defaults(func=cmd_bell)

    p_find = sub.add_parser("dso-find", help="search for a tripartite extension")
    p_find.add_argument("--d", type=int, default=None, help="local dimension, 2..6")
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
        help="Douglas-Rachford cycles to run, each one marginal sweep and one density projection",
    )
    p_find.add_argument("--tol", type=float, default=1e-6, help="residual convergence threshold")
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
        if not 0.0 < args.tol < math.inf:
            raise _UsageError(f"--tol must be finite and positive, got {args.tol}")
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
    sys.stdout.write(render_json(report) + "\n")
    if not args.quiet:
        for note in outcome.notes:
            print(note, file=sys.stderr)
    return 0 if outcome.passed else 1


def entrypoint() -> None:
    raise SystemExit(main())

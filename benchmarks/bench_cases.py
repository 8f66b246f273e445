"""Workloads of the bellforge benchmark and the reference each case is checked against.

A case is one ``bellforge`` command line with its expected exit code and an
interval that the value read from its JSON report must lie in.  The
references are global optima or hard thresholds, so they hold for every
see-saw seed; a case whose exit code or value misses its reference, or that
raises, counts as failed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

# bellforge's own default for dso-find --tol; a converged search reports a
# residual at or below it.
DSO_TOL = 1e-6
# A stalled search must stay clearly infeasible.  The exact stalled residual
# is not pinned, so that stopping a stall early still passes.
STALL_RESIDUAL = 1e-3
RESTARTS = 50


@dataclass(frozen=True)
class Case:
    """One CLI invocation and its reference: exit code and value interval."""

    argv: tuple[str, ...]
    exit_code: int
    lo: float
    hi: float

    def check(self, code: int | None, stdout: str) -> str | None:
        """Return why the output misses the reference, or ``None`` when it matches."""
        if code != self.exit_code:
            return f"exit code {code}, expected {self.exit_code}"
        try:
            value = report_value(json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"
        if not self.lo <= value <= self.hi:
            return f"value {value!r} outside [{self.lo!r}, {self.hi!r}]"
        return None


def report_value(report: dict) -> float:
    """The value a reference constrains: failed checks, best value or residual."""
    command = report["command"]
    results = report["results"]
    if command == "verify":
        return float(sum(not entry["pass"] for entry in results.values()))
    if command == "bell":
        return float(results["best_value"]["value"])
    if command == "dso-find":
        return float(results["residual"]["value"])
    raise KeyError(f"unknown command {command!r}")


def _near(argv: list[str], exit_code: int, value: float, tol: float) -> Case:
    return Case(tuple(argv), exit_code, value - tol, value + tol)


def _dso(args: list[str], converges: bool) -> Case:
    argv = ["dso-find", *args, "--quiet"]
    if converges:
        return Case(tuple(argv), 0, 0.0, DSO_TOL)
    return Case(tuple(argv), 1, math.nextafter(STALL_RESIDUAL, math.inf), math.inf)


def extend_converge(seed: int, singlet_chsh: float) -> list[Case]:
    """Werner extensions that exist: dense ``eigh`` on 27- to 216-sided matrices."""
    cases = [_dso(["--pattern", "sym3", "--d", str(d)], True) for d in range(3, 7)]
    cases.append(_dso(["--pattern", "right2", "--d", "4"], True))
    return cases


def extend_stall(seed: int, singlet_chsh: float) -> list[Case]:
    """Extensions that do not exist: all 5000 cycles on 8x8 matrices."""
    return [
        _dso(["--pattern", "right2", "--state", "singlet"], False),
        _dso(["--pattern", "sym3", "--d", "2"], False),
    ]


def bell_verify(seed: int, singlet_chsh: float) -> list[Case]:
    """Identity checks for d=2..6 and 50-restart see-saws on Werner states and the singlet."""
    cases = [Case(("verify", "--d", str(d), "--quiet"), 0, 0.0, 0.0) for d in range(2, 7)]
    common = ["--restarts", str(RESTARTS), "--seed", str(seed), "--quiet"]
    for d in range(2, 7):
        state = ["--d", str(d)]
        cases.append(_near(["bell", "--functional", "chsh", *state, *common], 0, 2.0, 1e-7))
        if d == 2:
            cases.append(_near(["bell", "--functional", "original", *state, *common], 1, 0.5, 1e-9))
        else:
            cases.append(_near(["bell", "--functional", "original", *state, *common], 0, 0.0, 1e-9))
    singlet = ["--state", "singlet", *common]
    cases.append(_near(["bell", "--functional", "chsh", *singlet], 1, singlet_chsh, 1e-9))
    cases.append(_near(["bell", "--functional", "original", *singlet], 1, 2.0, 1e-9))
    return cases


WORKLOADS = {
    "extend-converge": extend_converge,
    "extend-stall": extend_stall,
    "bell-verify": bell_verify,
}

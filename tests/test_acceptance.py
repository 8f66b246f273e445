"""Acceptance suite: end-to-end checks of every headline claim.

Each test prints one PASS/FAIL line (bypassing capture, so the lines are
visible in any pytest run) and then asserts, so a failure is loud in both
the console and the test report.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

import bellforge as bf
from bellforge import SeeSawConfig
from bellforge.cli import main, render_json

IDENTITY_TOL = 1e-10


def report(capsys, name: str, ok: bool, detail: str = "") -> None:
    suffix = f"  ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}{suffix}")


def test_criterion_1_algebraic_identities(capsys):
    """Operator identities hold to 1e-10 for d = 2..6, in under a minute."""
    start = time.perf_counter()
    failures: list[str] = []

    def check(label: str, value: float, bound: float = IDENTITY_TOL) -> None:
        if not value <= bound:
            failures.append(f"{label}: {value:.3e} > {bound:.1e}")

    for d in range(2, 7):
        eye2 = bf.identity((d, d))
        v = bf.flip(d)
        check(f"d={d} flip involution", bf.frobenius_distance(v @ v, eye2))
        check(f"d={d} flip trace", abs(bf.trace(v) - d))

        q = bf.antisymmetrizer3(d)
        asymmetry = float(np.linalg.norm(q.entries - q.entries.conj().T))
        check(f"d={d} antisymmetrizer hermitian", asymmetry)
        check(f"d={d} antisymmetrizer idempotent", bf.frobenius_distance(q @ q, q))
        check(f"d={d} antisymmetrizer trace", abs(bf.trace(q) - d * (d - 1) * (d - 2) / 6.0))
        target = ((d - 2) / 3.0) * bf.antisym_projector(d)
        for j in (1, 2, 3):
            check(
                f"d={d} antisymmetrizer partial trace {j}",
                bf.frobenius_distance(bf.partial_trace(q, j), target),
            )

        w = bf.werner(d)
        alt = ((d + 1) / d**3) * eye2 - (1.0 / d**2) * v
        check(f"d={d} werner forms agree", bf.frobenius_distance(w.op, alt))

        if d >= 3:
            source = bf.dso_general(d)
            check(f"d={d} source trace", abs(bf.trace(source.op) - 1.0))
            lowest = float(np.linalg.eigvalsh(source.op.entries)[0])
            check(f"d={d} source min eigenvalue", max(0.0, -lowest))
            for j, resid in zip((1, 2, 3), bf.verify_marginals(source.op, bf.pattern_sym3(w))):
                check(f"d={d} source marginal {j}", resid)

    source2 = bf.dso_two_qubit()
    w2 = bf.werner(2)
    for j, resid in zip((2, 3), bf.verify_marginals(source2.op, bf.pattern_right2(w2))):
        check(f"d=2 source marginal {j}", resid)
    spectrum = bf.eigenvalues(source2.op)
    expected = np.array([0.375, 0.375, 0.125, 0.125, 0.0, 0.0, 0.0, 0.0])
    check("d=2 source spectrum", float(np.max(np.abs(spectrum - expected))))

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(capsys, "1 algebraic identities d=2..6", ok, f"{elapsed:.1f}s, {len(failures)} failures")
    assert not failures, failures
    assert elapsed < 60.0


def test_criterion_2_original_bell_satisfaction(capsys):
    """The see-saw finds no positive gap on werner(3) or werner(4)."""
    start = time.perf_counter()
    values = {}
    for d in (3, 4):
        result = bf.seesaw_original_bell(bf.werner(d), SeeSawConfig(restarts=50, base_seed=0))
        values[d] = result.best_value
    elapsed = time.perf_counter() - start
    ok = all(v <= 1e-7 for v in values.values()) and elapsed < 300.0
    detail = ", ".join(f"d={d}: {v:.2e}" for d, v in values.items()) + f", {elapsed:.1f}s"
    report(capsys, "2 original Bell satisfaction on werner(3,4)", ok, detail)
    for d, v in values.items():
        assert v <= 1e-7, (d, v)
    assert elapsed < 300.0


def test_criterion_3_singlet_violation_control(capsys):
    """The same optimizer drives the singlet to the maximal violation."""
    result = bf.seesaw_original_bell(bf.singlet(), SeeSawConfig(restarts=20, base_seed=0))
    ok = result.best_value >= 2.0 - 1e-4
    report(capsys, "3 singlet violation control", ok, f"gap {result.best_value:.9f}")
    assert result.best_value >= 2.0 - 1e-4


def test_criterion_4_chsh_satisfaction(capsys):
    """CHSH stays classical on werner(2..5); controls hit their closed forms.

    Identity observables are admissible (norm one) and give every
    correlation the value one, so the norm-ball optimum of the CHSH
    combination on any state is at least 2 and equals
    max(2, closed-form dichotomic maximum).  For werner(2) that closed
    form is sqrt(2), so the optimizer's target value is exactly 2.
    """
    values = {}
    for d in (2, 3, 4, 5):
        result = bf.seesaw_chsh(bf.werner(d), SeeSawConfig(restarts=50, base_seed=0))
        values[d] = result.best_value
    bound_ok = all(v <= 2.0 + 1e-7 for v in values.values())

    oracle = bf.horodecki_chsh_oracle(bf.werner(2))
    oracle_ok = abs(oracle - math.sqrt(2.0)) <= 1e-12
    match_ok = abs(values[2] - max(2.0, oracle)) <= 1e-4

    singlet = bf.seesaw_chsh(bf.singlet(), SeeSawConfig(restarts=50, base_seed=0))
    singlet_ok = abs(singlet.best_value - 2.0 * math.sqrt(2.0)) <= 1e-6

    ok = bound_ok and oracle_ok and match_ok and singlet_ok
    detail = (
        ", ".join(f"d={d}: {v:.9f}" for d, v in values.items())
        + f", oracle(w2)={oracle:.9f}, singlet={singlet.best_value:.9f}"
    )
    report(capsys, "4 CHSH satisfaction on werner(2..5)", ok, detail)
    assert bound_ok, values
    assert oracle_ok, oracle
    assert match_ok, (values[2], oracle)
    assert singlet_ok, singlet.best_value


def test_criterion_5_feasibility_solver(capsys):
    """The Douglas–Rachford search finds the symmetric werner(3) extension and certifies that the
    singlet has no two-party extension (monogamy)."""
    w = bf.werner(3)
    found = bf.dykstra_find_extension(bf.pattern_sym3(w), max_iters=5000, tol=1e-5)
    s = bf.singlet()
    stuck = bf.dykstra_find_extension(bf.pattern_right2(s), max_iters=5000, tol=1e-8)
    found_ok = found.converged and found.residual <= 1e-5 and found.iterations <= 5000
    stuck_ok = (not stuck.converged) and stuck.residual >= 1e-2
    ok = found_ok and stuck_ok
    detail = (
        f"werner3 residual {found.residual:.2e} in {found.iterations} cycles; "
        f"singlet residual {stuck.residual:.2e} after {stuck.iterations}"
    )
    report(capsys, "5 extension feasibility solver", ok, detail)
    assert found_ok, (found.converged, found.residual, found.iterations)
    assert stuck_ok, (stuck.converged, stuck.residual)


def _property_battery(round_index: int, capsys) -> list[str]:
    failures: list[str] = []
    rng = np.random.default_rng(7000 + round_index)

    # partial trace linearity and trace preservation
    dims = (2, 2, 3)
    side = 12
    g1 = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    g2 = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    x = bf.TensorOperator(g1, dims)
    y = bf.TensorOperator(g2, dims)
    for j in (1, 2, 3):
        lin = bf.partial_trace(1.5 * x + (2.0 - 1j) * y, j)
        sep = 1.5 * bf.partial_trace(x, j) + (2.0 - 1j) * bf.partial_trace(y, j)
        if bf.frobenius_distance(lin, sep) > 1e-11:
            failures.append(f"partial trace linearity j={j}")
        if abs(bf.trace(bf.partial_trace(x, j)) - bf.trace(x)) > 1e-11:
            failures.append(f"partial trace preservation j={j}")

    # spectral-sign maximizer against the sign-pattern oracle
    side = 3
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    h = bf.TensorOperator((g + g.conj().T) / 2.0, (side,))
    sign = bf.linalg._spectral_map(h.entries, bf.linalg._signs)
    achieved = float(np.trace(h.entries @ sign).real)
    _, vecs = np.linalg.eigh(h.entries)
    best = max(
        float(np.trace(h.entries @ ((vecs * np.array(p)) @ vecs.conj().T)).real)
        for p in itertools.product((1.0, -1.0), repeat=side)
    )
    if abs(achieved - best) > 1e-12:
        failures.append("spectral-sign maximizer")

    # see-saw monotone traces
    cfg = SeeSawConfig(restarts=4, base_seed=300 + round_index)
    for result in (
        bf.seesaw_original_bell(bf.werner(2), cfg),
        bf.seesaw_chsh(bf.singlet(), cfg),
    ):
        if any(b < a - 1e-12 for a, b in zip(result.value_trace, result.value_trace[1:])):
            failures.append("see-saw monotonicity")

    # CLI determinism under a fixed seed
    argv = [
        "bell", "--d", "2", "--functional", "chsh", "--state", "werner",
        "--restarts", "4", "--seed", str(100 + round_index), "--quiet",
    ]
    main(argv)
    first = json.loads(capsys.readouterr().out)
    main(argv)
    second = json.loads(capsys.readouterr().out)
    if render_json(first["results"]) != render_json(second["results"]):
        failures.append("CLI determinism")
    return failures


def test_criterion_6_property_suites_three_rounds(capsys):
    """The property battery passes three consecutive rounds without a flake."""
    all_failures: list[str] = []
    for round_index in range(3):
        all_failures.extend(
            f"round {round_index}: {item}" for item in _property_battery(round_index, capsys)
        )
    ok = not all_failures
    report(capsys, "6 property suites x3", ok, f"{len(all_failures)} failures")
    assert not all_failures, all_failures

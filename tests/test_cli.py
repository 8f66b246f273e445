"""Tests for the command-line interface: reports, exit codes, determinism."""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bellforge as bf
from bellforge import cli, states
from bellforge.cli import build_parser, main

REPORT_KEYS = ["command", "parameters", "results", "wall_time_ms", "artifact_version"]


def run_cli(capsys, argv: list[str]) -> tuple[int, dict, str]:
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else {}
    return code, report, captured.err


# ---------------------------------------------------------------------- report

REPORT_RUNS = [
    ["verify", "--d", "3", "--quiet"],
    ["bell", "--d", "2", "--functional", "chsh", "--restarts", "2", "--quiet"],
    ["dso-find", "--state", "singlet", "--pattern", "right2", "--tol", "1e-6", "--quiet"],
]


def test_report_is_standard_json(capsys):
    """Every report is the standard library's two-space JSON of its own values."""
    for argv in REPORT_RUNS:
        main(argv)
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_report_floats_take_the_shortest_round_trip_spelling(capsys):
    main(REPORT_RUNS[2])
    assert '"tol": 1e-06,' in capsys.readouterr().out
    main(REPORT_RUNS[1])
    assert '"threshold": 2.0000001,' in capsys.readouterr().out


# ---------------------------------------------------------------------- verify


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_verify_passes_for_supported_dimensions(capsys, d):
    code, report, err = run_cli(capsys, ["verify", "--d", str(d)])
    assert code == 0
    assert list(report.keys()) == REPORT_KEYS
    assert report["command"] == "verify"
    assert report["parameters"] == {"d": d}
    assert report["artifact_version"] == bf.__version__
    assert all(entry["pass"] for entry in report["results"].values())
    assert "identity checks passed" in err


# The PPT witness <Phi|werner(d)^Gamma|Phi> = (d + 1 - d^2) / d^2, Phi = sum_i |ii>, exactly.
WITNESS = {2: "-1/4", 3: "-5/9", 4: "-11/16", 5: "-19/25", 6: "-29/36"}
EXACT_KEYS = [
    "source_trace",
    "source_marginal_1",
    "source_marginal_2",
    "source_marginal_3",
    "source_psd",
    "werner_witness",
]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_verify_results_keep_their_dense_definitions(capsys, d):
    """``verify`` reports its exact checks, in this order, every defect ``"0"`` and the witness
    ``(d + 1 - d^2) / d^2``."""
    code, report, _ = run_cli(capsys, ["verify", "--d", str(d), "--quiet"])
    assert code == 0
    results = report["results"]
    assert list(results) == EXACT_KEYS
    for key in EXACT_KEYS:
        value = WITNESS[d] if key == "werner_witness" else "0"
        assert results[key] == {"value": value, "threshold": "0", "pass": True}, key


def _failing(capsys, argv: list[str]) -> list[str]:
    code, report, _ = run_cli(capsys, argv)
    assert code == 1
    return [key for key, entry in report["results"].items() if not entry["pass"]]


def _mutate(monkeypatch, change) -> None:
    """Make ``verify`` read ``change(d, v, layout)`` as the block entries of its exact scaled
    source ``S``, ``v`` those of today's S in ``layout = _layout(d, True)``."""

    def mutated(d, _original=states._source_sum):
        v, scale = _original(d)
        return change(d, v, bf.linalg._layout(d, True)), scale

    monkeypatch.setattr(states, "_source_sum", mutated)


def _raise_pair(v, layout, i: int, j: int, by: int):
    """``v`` with the symmetric pair of entries ``(i, j)`` and ``(j, i)`` of S raised by ``by``;
    both lie in one weight sector, so each is a block entry."""
    for row, col in ((i, j), (j, i)):
        [k] = np.flatnonzero((layout.rows == row) & (layout.cols == col))
        v[k] += by
    return v


@pytest.mark.parametrize("d", [3, 4, 6])
def test_verify_fails_on_a_lowered_identity_term(monkeypatch, capsys, d):
    """S with its identity term ``d - 2`` lowered by ``2(d - 2)``, which is ``2/d^4`` in the
    source, has the wrong trace and marginals and a negative ``|aaa>`` block."""

    def lowered(d, v, layout):
        v[layout.diagonal] -= 2 * (d - 2)
        return v

    _mutate(monkeypatch, lowered)
    failing = _failing(capsys, ["verify", "--d", str(d), "--quiet"])
    assert failing == EXACT_KEYS[:5]


@pytest.mark.parametrize("d", [3, 4, 6])
def test_verify_fails_on_a_perturbed_off_diagonal_pair(monkeypatch, capsys, d):
    """One symmetric pair inside a six-state sector, ``|012>`` and ``|021>``, raised by one unit:
    tracing out slot 1, where both states hold 0, sees it; slots 2 and 3 and the trace do not,
    and the block stays PSD."""

    def perturbed(d, v, layout):
        return _raise_pair(v, layout, d + 2, 2 * d + 1, 1)

    _mutate(monkeypatch, perturbed)
    failing = _failing(capsys, ["verify", "--d", str(d), "--quiet"])
    assert failing == ["source_marginal_1"]


@pytest.mark.parametrize("d", [3, 4, 6])
def test_verify_fails_on_a_flipped_sign(monkeypatch, capsys, d):
    """The exact source summed from Q's table with the sign of the transposition of slots 2 and
    3 flipped has the wrong trace and marginals."""
    flipped = tuple((images, -s if images == (1, 3, 2) else s) for images, s in states._Q)
    monkeypatch.setattr(states, "_Q", flipped)
    failing = _failing(capsys, ["verify", "--d", str(d), "--quiet"])
    assert failing == EXACT_KEYS[:5]


@pytest.mark.parametrize("d", [3, 4, 6])
def test_verify_fails_on_a_pair_no_marginal_sees(monkeypatch, capsys, d):
    """``|012>`` and ``|120>`` agree in no slot, so raising their pair by ``2 d^2`` keeps every
    partial trace and the trace; only the PSD check sees it: the pair's 2 x 2 principal block,
    ``[[d^2 + d - 2, 3 d^2], [3 d^2, d^2 + d - 2]]``, is indefinite."""

    def raised(d, v, layout):
        return _raise_pair(v, layout, d + 2, d * d + 2 * d, 2 * d * d)

    _mutate(monkeypatch, raised)
    failing = _failing(capsys, ["verify", "--d", str(d), "--quiet"])
    assert failing == ["source_psd"]


@pytest.mark.parametrize("d", [7, 8, 12, 16, 20])
def test_exact_checks_pass_past_the_command_line_cap(d):
    """The exact checks take any d; only the command line stops at 6."""
    checks = states._source_proof(d)
    assert list(checks) == EXACT_KEYS
    assert all(holds for _, holds in checks.values())
    assert [str(checks[key][0]) for key in EXACT_KEYS[:5]] == ["0"] * 5
    assert str(checks["werner_witness"][0]) == f"{d + 1 - d * d}/{d * d}"


def _rejects_tolerance(capsys, argv: list[str]) -> None:
    """``verify`` and ``bell`` have no ``--tol``, so any value is a usage error: ``verify``'s
    checks are exact, and ``bell`` compares with its classical bound plus a fixed 1e-7."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "unrecognized arguments: --tol" in captured.err


def test_verify_has_no_tolerance_option(capsys):
    _rejects_tolerance(capsys, ["verify", "--d", "5", "--tol", "1e-30"])


def test_verify_rejects_out_of_range_dimension(capsys):
    code, _, err = run_cli(capsys, ["verify", "--d", "9"])
    assert code == 2
    assert "2..6" in err


def test_verify_quiet_suppresses_summary(capsys):
    code, report, err = run_cli(capsys, ["verify", "--d", "2", "--quiet"])
    assert code == 0
    assert err == ""
    assert report["results"]


# ------------------------------------------------------------------------ bell


def test_bell_chsh_werner2_passes(capsys):
    code, report, _ = run_cli(
        capsys,
        ["bell", "--d", "2", "--functional", "chsh", "--state", "werner", "--restarts", "10"],
    )
    assert code == 0
    entry = report["results"]["best_value"]
    assert entry["pass"]
    assert entry["value"] == pytest.approx(2.0, abs=1e-9)
    assert entry["threshold"] == pytest.approx(2.0 + 1e-7)


def test_bell_chsh_singlet_flags_violation(capsys):
    code, report, err = run_cli(
        capsys, ["bell", "--functional", "chsh", "--state", "singlet", "--restarts", "10"]
    )
    assert code == 1
    assert report["results"]["best_value"]["value"] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-6)
    assert not report["results"]["best_value"]["pass"]
    assert "VIOLATION" in err


def test_bell_original_werner3_passes(capsys):
    code, report, _ = run_cli(
        capsys,
        ["bell", "--d", "3", "--functional", "original", "--state", "werner", "--restarts", "10"],
    )
    assert code == 0
    entry = report["results"]["best_value"]
    assert entry["value"] <= 1e-7
    assert entry["threshold"] == pytest.approx(1e-7)


def test_bell_original_singlet_flags_violation(capsys):
    code, report, err = run_cli(
        capsys, ["bell", "--functional", "original", "--state", "singlet", "--restarts", "5"]
    )
    assert code == 1
    assert report["results"]["best_value"]["value"] == pytest.approx(2.0, abs=1e-4)
    assert "VIOLATION" in err


def test_bell_accepts_state_file(capsys, tmp_path):
    path = tmp_path / "w2.mat"
    path.write_text(bf.operator_to_text(bf.werner(2)), encoding="ascii")
    code, report, _ = run_cli(
        capsys,
        ["bell", "--functional", "chsh", "--state", f"file:{path}", "--restarts", "5"],
    )
    assert code == 0
    assert report["parameters"]["d"] == 2


def test_bell_rejects_missing_state_file(capsys):
    code, _, err = run_cli(
        capsys, ["bell", "--functional", "chsh", "--state", "file:/no/such/file.mat"]
    )
    assert code == 2
    assert "cannot read" in err


def test_bell_rejects_state_file_with_repeated_entry(capsys, tmp_path):
    path = tmp_path / "twice.mat"
    path.write_text("dims: 2 2\n0 0 0.5 0\n0 0 1 0\n", encoding="ascii")
    code, _, err = run_cli(capsys, ["bell", "--functional", "chsh", "--state", f"file:{path}"])
    assert code == 2
    assert "cannot read state file" in err


def test_bell_rejects_non_density_file(capsys, tmp_path):
    path = tmp_path / "bad.mat"
    # trace 4, not a state
    path.write_text(bf.operator_to_text(bf.TensorOperator(np.eye(4), (2, 2))), encoding="ascii")
    code, _, err = run_cli(capsys, ["bell", "--functional", "chsh", "--state", f"file:{path}"])
    assert code == 3
    assert "not a density operator" in err


def test_bell_rejects_non_bipartite_file(capsys, tmp_path):
    path = tmp_path / "tri.mat"
    tri = bf.TensorOperator((1.0 / 8.0) * np.eye(8), (2, 2, 2))
    path.write_text(bf.operator_to_text(tri), encoding="ascii")
    code, _, err = run_cli(capsys, ["bell", "--functional", "chsh", "--state", f"file:{path}"])
    assert code == 3
    assert "bipartite" in err


def test_bell_rejects_oversized_file_header_before_building_the_matrix(capsys, tmp_path):
    path = tmp_path / "huge.mat"
    path.write_text("dims: 10000 10000\n0 0 1 0\n", encoding="ascii")
    code = main(["bell", "--functional", "chsh", "--state", f"file:{path}"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "outside 2..6" in captured.err


def test_bell_rejects_unknown_state_keyword(capsys):
    code, _, err = run_cli(capsys, ["bell", "--functional", "chsh", "--state", "ghz"])
    assert code == 2
    assert "unknown state" in err


def test_bell_rejects_singlet_dimension_conflict(capsys):
    code, _, err = run_cli(
        capsys, ["bell", "--d", "3", "--functional", "chsh", "--state", "singlet"]
    )
    assert code == 2
    assert "--d is accepted only with --state werner, got --state singlet" in err


@pytest.mark.parametrize(
    "state, d",
    [("singlet", "2"), ("file", "3"), ("file", "2")],
    ids=["singlet", "file-same-d", "file-other-d"],
)
@pytest.mark.parametrize(
    "argv",
    [["bell", "--functional", "chsh", "--restarts", "1"], ["dso-find", "--pattern", "sym3"]],
    ids=["bell", "dso-find"],
)
def test_dimension_is_read_only_for_werner(capsys, tmp_path, argv, state, d):
    """``--d`` sizes ``--state werner`` alone: beside the singlet or a ``werner(3)`` state file,
    with or without the file's own dimension, it is a usage error."""
    path = tmp_path / "w3.mat"
    path.write_text(bf.operator_to_text(bf.werner(3)), encoding="ascii")
    name = f"file:{path}" if state == "file" else state
    code = main([*argv, "--state", name, "--d", d, "--quiet"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"--d is accepted only with --state werner, got --state {name}" in captured.err


def test_bell_has_no_tolerance_option(capsys):
    _rejects_tolerance(capsys, ["bell", "--d", "2", "--functional", "chsh", "--tol", "1e-9"])


@pytest.mark.parametrize("functional, threshold", [("chsh", 2.0000001), ("original", 1e-07)])
def test_bell_threshold_is_the_classical_bound_plus_a_fixed_slack(capsys, functional, threshold):
    argv = ["bell", "--d", "3", "--functional", functional, "--restarts", "2", "--quiet"]
    code, report, _ = run_cli(capsys, argv)
    assert code == 0
    assert report["results"]["best_value"]["threshold"] == threshold


def test_bell_requires_dimension_for_werner(capsys):
    code, _, err = run_cli(capsys, ["bell", "--functional", "chsh", "--state", "werner"])
    assert code == 2
    assert "requires --d" in err


def test_bell_reports_are_deterministic(capsys):
    argv = [
        "bell",
        "--d",
        "2",
        "--functional",
        "chsh",
        "--state",
        "werner",
        "--restarts",
        "5",
        "--seed",
        "3",
        "--quiet",
    ]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first["results"] == second["results"]
    assert first["parameters"] == second["parameters"]


# -------------------------------------------------------------------- dso-find


def test_dso_find_werner3_converges(capsys):
    code, report, err = run_cli(
        capsys, ["dso-find", "--d", "3", "--state", "werner", "--pattern", "sym3"]
    )
    assert code == 0
    entry = report["results"]["residual"]
    assert entry["pass"]
    assert entry["value"] <= 1e-6
    assert report["results"]["stop_reason"] == "converged"
    assert "extension found" in err


def test_dso_find_singlet_right2_reports_no_extension(capsys):
    code, report, err = run_cli(
        capsys,
        ["dso-find", "--state", "singlet", "--pattern", "right2", "--iters", "200"],
    )
    assert code == 1
    assert report["results"]["residual"]["value"] >= 1e-2
    assert report["results"]["stop_reason"] == "infeasible"
    assert "no extension found: infeasibility certificate (value -" in err


def test_dso_find_reports_exhausted_budget(capsys):
    code, report, err = run_cli(
        capsys,
        ["dso-find", "--d", "4", "--state", "werner", "--pattern", "right2", "--iters", "5"],
    )
    assert code == 1
    assert report["results"]["stop_reason"] == "max_iters"
    assert "no extension found within 5 iterations" in err


def test_dso_find_reports_are_deterministic(capsys):
    argv = ["dso-find", "--state", "singlet", "--pattern", "right2", "--quiet"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first["results"] == second["results"]
    assert first["parameters"] == second["parameters"]


def test_dso_find_dump_round_trips(capsys, tmp_path):
    path = tmp_path / "candidate.mat"
    code, _, _ = run_cli(
        capsys,
        [
            "dso-find",
            "--d",
            "2",
            "--state",
            "werner",
            "--pattern",
            "right2",
            "--dump",
            str(path),
            "--quiet",
        ],
    )
    assert code == 0
    candidate = bf.operator_from_text(path.read_text(encoding="ascii"))
    assert candidate.factor_dims == (2, 2, 2)
    assert np.trace(candidate.entries).real == pytest.approx(1.0, abs=1e-8)
    residuals = bf.verify_marginals(candidate, bf.pattern_right2(bf.werner(2)))
    assert max(residuals) <= 1e-6


def test_dso_find_builds_no_dense_candidate_without_dump(capsys):
    """A search keeps its result as block entries: a warm ``sym3`` run at d = 6 without
    ``--dump`` peaks below one float d^6-entry matrix, and ``candidate`` is scattered from the
    entries once, on first read, with zeros outside the blocks."""
    argv = ["dso-find", "--pattern", "sym3", "--d", "6", "--quiet"]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 8 * 6**6
    result = bf.dykstra_find_extension(bf.pattern_sym3(bf.werner(6)))
    assert result.candidate is result.candidate
    entries, layout = result.candidate.entries, result.layout
    np.testing.assert_array_equal(entries[layout.rows, layout.cols], result.best)
    assert np.count_nonzero(entries) == np.count_nonzero(result.best)


def test_dso_find_rejects_bad_pattern(capsys):
    code, _, _ = run_cli(capsys, ["dso-find", "--d", "3", "--state", "werner", "--pattern", "all"])
    assert code == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--d", "3"],
        ["bell", "--d", "2", "--functional", "chsh", "--restarts", "1"],
        ["dso-find", "--d", "3", "--pattern", "sym3", "--iters", "3"],
    ],
    ids=["verify", "bell", "dso-find"],
)
def test_non_finite_or_non_positive_tolerance_is_usage_error(capsys, argv, tol):
    if argv[0] in ("verify", "bell"):
        _rejects_tolerance(capsys, [*argv, f"--tol={tol}"])
        return
    code = main([*argv, f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite and positive" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bell", "--d", "2", "--functional", "chsh", "--restarts", "0"], "must be positive"),
        (["bell", "--d", "2", "--functional", "chsh", "--seed", "-1"], "must be nonnegative"),
        (["dso-find", "--d", "3", "--pattern", "sym3", "--iters", "0"], "must be positive"),
    ],
    ids=["restarts", "seed", "iters"],
)
def test_non_positive_counts_and_negative_seed_are_usage_errors(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_seed_past_the_start_stream_is_usage_error(capsys):
    code = main(["bell", "--d", "2", "--functional", "chsh", "--seed", str(2**64)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--restarts / --seed: base_seed + restarts must be at most 2**64" in captured.err
    assert "Traceback" not in captured.err


# ------------------------------------------------------------------ parameters


@pytest.mark.parametrize(
    "argv, options",
    [
        (["verify", "--d", "2"], ["d"]),
        (
            ["bell", "--functional", "chsh", "--state", "singlet", "--restarts", "2"],
            ["d", "functional", "state", "restarts", "seed"],
        ),
        (
            ["dso-find", "--pattern", "right2", "--iters", "3"],
            ["d", "state", "pattern", "iters", "tol", "dump"],
        ),
    ],
    ids=["verify", "bell", "dso-find"],
)
def test_report_parameters_are_the_options(capsys, tmp_path, argv, options):
    """``parameters`` echoes every option but --quiet in parser order; ``d`` is resolved."""
    if argv[0] == "dso-find":
        path = tmp_path / "w2.mat"
        path.write_text(bf.operator_to_text(bf.werner(2)), encoding="ascii")
        argv = [*argv, "--state", f"file:{path}"]
    _, report, _ = run_cli(capsys, [*argv, "--quiet"])
    assert list(report["parameters"]) == options
    assert report["parameters"]["d"] == 2


# --------------------------------------------------------- supported range


@pytest.mark.parametrize(
    "entry",
    ["seesaw_chsh", "seesaw_original_bell", "dykstra_find_extension", "verify", "state_file"],
)
def test_every_entry_point_reports_the_supported_range(capsys, tmp_path, entry):
    w7 = bf.werner(7)
    library = {
        "seesaw_chsh": lambda: bf.seesaw_chsh(w7, bf.SeeSawConfig(restarts=1)),
        "seesaw_original_bell": lambda: bf.seesaw_original_bell(w7, bf.SeeSawConfig(restarts=1)),
        "dykstra_find_extension": lambda: bf.dykstra_find_extension(bf.pattern_sym3(w7)),
    }
    if entry in library:
        with pytest.raises(ValueError) as info:
            library[entry]()
        message = str(info.value)
    elif entry == "verify":
        code, _, message = run_cli(capsys, ["verify", "--d", "7"])
        assert code == 2
    else:
        path = tmp_path / "w7.mat"
        path.write_text(bf.operator_to_text(w7), encoding="ascii")
        argv = ["bell", "--functional", "chsh", "--state", f"file:{path}"]
        code, _, message = run_cli(capsys, argv)
        assert code == 3
    assert "outside 2..6" in message


def test_verify_solves_three_factor_operators_by_weight_sector(monkeypatch, capsys):
    """``verify --d 6`` builds no float state, so it solves no spectrum: its PSD check is the
    exact factorization of the weight-sector blocks."""
    sides = []
    for name in ("eigvalsh", "eigh"):

        def spy(m, *args, _original=getattr(np.linalg, name), **kwargs):
            sides.append(m.shape[-1])
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    code, report, _ = run_cli(capsys, ["verify", "--d", "6", "--quiet"])
    assert code == 0 and report["results"]["source_psd"]["pass"]
    assert sides == []


@pytest.mark.parametrize("d", [4, 5, 6])
def test_verify_does_no_dense_three_factor_work(monkeypatch, capsys, d):
    """``verify`` multiplies no three-factor operator densely and takes no norm, so it calls no
    BLAS kernel large enough to start worker threads: the exact positivity proof holds the
    scaled source as its block entries, reads no three-factor operator through ``_blocks``, and
    factors one block of each size 1, 3 and 6."""
    reads, sizes, factored = [], [], []
    blocks, norm, defect = bf.linalg._blocks, np.linalg.norm, states._psd_defect

    def blocks_spy(m, dims):
        out = blocks(m, dims)
        reads.append((sys._getframe(1).f_code.co_name, dims, [b.shape[-1] for b in out]))
        return out

    def norm_spy(x, *args, **kwargs):
        sizes.append(np.size(x))
        return norm(x, *args, **kwargs)

    def defect_spy(a):
        factored.append(a.shape)
        return defect(a)

    monkeypatch.setattr(bf.linalg, "_blocks", blocks_spy)
    monkeypatch.setattr(states, "_blocks", blocks_spy)
    monkeypatch.setattr(np.linalg, "norm", norm_spy)
    monkeypatch.setattr(states, "_psd_defect", defect_spy)
    code, _, _ = run_cli(capsys, ["verify", "--d", str(d), "--quiet"])
    assert code == 0
    assert [read for read in reads if len(read[1]) == 3] == []
    assert all(max(sides) <= 6 for _, dims, sides in reads if len(dims) == 3)
    assert sizes == []
    assert factored == [(1, 1), (3, 3), (6, 6)]


def test_warm_verify_holds_less_than_one_dense_source(capsys):
    """A warm ``verify --d 6`` peaks below the 373 248 bytes of one int64 matrix on three
    factors C^6: the proof holds the source as its 996 block entries, never densely."""
    argv = ["verify", "--d", "6", "--quiet"]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 8 * 6**6


def test_verify_solves_each_spectrum_once(monkeypatch, capsys):
    """``verify --d 2`` solves no spectrum: it validates no float state, and the exact proof
    factors its blocks instead."""
    sides = []

    def spy(m, *args, _original=np.linalg.eigvalsh, **kwargs):
        sides.append(m.shape[-1])
        return _original(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    code, _, _ = run_cli(capsys, ["verify", "--d", "2", "--quiet"])
    assert code == 0
    assert sides == []


# ----------------------------------------------------------------------- misc


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    code = main(["--version"])
    out = capsys.readouterr().out
    assert code == 0
    assert bf.__version__ in out


# --------------------------------------------------------------- shared parser


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_an_option_means_one_thing_on_every_subcommand():
    """An option string that several subcommands declare has one ``type`` and one ``help``, so
    one flag name cannot come to mean two things."""
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    seen: dict[str, set] = {}
    for subparser in subparsers.choices.values():
        for action in subparser._actions:
            for flag in action.option_strings:
                seen.setdefault(flag, set()).add((action.type, action.help))
    assert {"--d", "--state", "--quiet"} <= set(seen)
    assert {flag: meanings for flag, meanings in seen.items() if len(meanings) > 1} == {}


def test_import_builds_no_parser():
    """Importing the CLI builds nothing: the parser's cost falls on the first ``main`` call."""
    probe = "import bellforge.cli as cli; print(cli.build_parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": str(Path(bf.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "0\n"


def test_only_verify_imports_fractions():
    """Exact arithmetic is imported on first use, so ``bell`` and ``dso-find`` never load it."""
    probe = (
        "import sys, bellforge.cli as cli; cli.main(['dso-find', '--d', '3', '--pattern', 'sym3',"
        " '--quiet']); print('fractions' in sys.modules); cli.main(['verify', '--d', '3',"
        " '--quiet']); print('fractions' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bf.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    flags = [line for line in done.stdout.splitlines() if line in ("False", "True")]
    assert flags == ["False", "True"]


def test_no_command_imports_numpy_random():
    """The see-saw's starts come from the package's own integer hash, so no command loads
    ``numpy.random`` (about 5.6 MB mapped and 10 ms on a process's first ``bell`` call)."""
    probe = (
        "import contextlib, io, sys, bellforge.cli as cli\n"
        "runs = [['verify', '--d', '3'], ['bell', '--functional', 'chsh', '--d', '3'],"
        " ['bell', '--functional', 'original', '--state', 'singlet'],"
        " ['dso-find', '--pattern', 'sym3', '--d', '3']]\n"
        "sink = io.StringIO()\n"
        "with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        "    codes = [cli.main([*argv, '--quiet']) for argv in runs]\n"
        "print(codes, 'numpy.random' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bf.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[0, 0, 1, 0] False\n"


def test_options_do_not_carry_over_to_a_later_call(capsys):
    bell = ["bell", "--d", "2", "--functional", "chsh", "--quiet"]
    run_cli(capsys, [*bell, "--restarts", "3", "--seed", "5"])
    _, report, _ = run_cli(capsys, bell)
    assert [report["parameters"][k] for k in ("restarts", "seed")] == [50, 0]

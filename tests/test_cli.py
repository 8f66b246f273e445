"""Tests for the command-line interface: reports, exit codes, determinism."""

from __future__ import annotations

import json

import numpy as np
import pytest

import bellforge as bf
from bellforge.cli import main, render_json

REPORT_KEYS = ["command", "parameters", "results", "wall_time_ms", "artifact_version"]


def run_cli(capsys, argv: list[str]) -> tuple[int, dict, str]:
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else {}
    return code, report, captured.err


# -------------------------------------------------------------------- renderer


def test_render_json_floats_carry_17_significant_digits():
    assert render_json(0.1) == "0.10000000000000001"
    assert render_json(1e-10) == "1e-10"
    assert render_json(2.0) == "2"


def test_render_json_structures():
    text = render_json({"a": [1, True, None, "x"], "b": {}})
    parsed = json.loads(text)
    assert parsed == {"a": [1, True, None, "x"], "b": {}}
    assert render_json(np.float64(0.5)) == "0.5"
    assert render_json(np.int64(3)) == "3"
    with pytest.raises(TypeError):
        render_json(object())


# ---------------------------------------------------------------------- verify


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_verify_passes_for_supported_dimensions(capsys, d):
    code, report, err = run_cli(capsys, ["verify", "--d", str(d)])
    assert code == 0
    assert list(report.keys()) == REPORT_KEYS
    assert report["command"] == "verify"
    assert report["parameters"] == {"d": d, "tol": 1e-10}
    assert report["artifact_version"] == bf.__version__
    assert all(entry["pass"] for entry in report["results"].values())
    assert "identity checks passed" in err


def test_verify_fails_with_impossible_tolerance(capsys):
    code, report, _ = run_cli(capsys, ["verify", "--d", "3", "--tol", "1e-30"])
    assert code == 1
    assert not all(entry["pass"] for entry in report["results"].values())


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
    bf.save_operator(bf.werner(2).op, path)
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
    bf.save_operator(bf.identity((2, 2)), path)  # trace 4, not a state
    code, _, err = run_cli(capsys, ["bell", "--functional", "chsh", "--state", f"file:{path}"])
    assert code == 3
    assert "not a density operator" in err


def test_bell_rejects_non_bipartite_file(capsys, tmp_path):
    path = tmp_path / "tri.mat"
    bf.save_operator((1.0 / 8.0) * bf.identity((2, 2, 2)), path)
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
    assert "two-dimensional" in err


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
    assert render_json(first["results"]) == render_json(second["results"])
    assert render_json(first["parameters"]) == render_json(second["parameters"])


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
    assert "no extension found within 5 cycles" in err


def test_dso_find_reports_are_deterministic(capsys):
    argv = ["dso-find", "--state", "singlet", "--pattern", "right2", "--quiet"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert render_json(first["results"]) == render_json(second["results"])
    assert render_json(first["parameters"]) == render_json(second["parameters"])


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
    candidate = bf.load_operator(path)
    assert candidate.factor_dims == (2, 2, 2)
    assert bf.trace(candidate).real == pytest.approx(1.0, abs=1e-8)
    residuals = bf.verify_marginals(candidate, bf.pattern_right2(bf.werner(2)))
    assert max(residuals) <= 1e-6


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


# ------------------------------------------------------------------ parameters


@pytest.mark.parametrize(
    "argv, options",
    [
        (["verify", "--d", "2"], ["d", "tol"]),
        (
            ["bell", "--functional", "chsh", "--state", "singlet", "--restarts", "2"],
            ["d", "functional", "state", "restarts", "seed", "tol"],
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
        bf.save_operator(bf.werner(2).op, path)
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
        bf.save_operator(w7.op, path)
        argv = ["bell", "--functional", "chsh", "--state", f"file:{path}"]
        code, _, message = run_cli(capsys, argv)
        assert code == 3
    assert "outside 2..6" in message


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

"""Tests of the benchmark itself: metric names and units, reference gating, missing sources.

Run from the repository root with ``python -m pytest benchmarks``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import bench_cases  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """Run the benchmark command of ``BENCHMARK.json`` under this interpreter."""
    command = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "0.01", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    *_, record_line, result_line = done.stdout.splitlines()
    result = json.loads(result_line)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    record = json.loads(record_line)
    assert record["seed"] == 5 and record["failed_frac"] == 0.0
    assert "numpy" in record["env"] and "OPENBLAS_NUM_THREADS" in record["env"]["thread_vars"]


def test_wrong_reference_makes_failed_frac_nonzero(monkeypatch, capsys):
    def with_wrong_singlet_chsh(seed, singlet_chsh):
        # The classical bound 2 in place of the singlet's 2*sqrt(2).
        return bench_cases.bell_verify(seed, 2.0)

    monkeypatch.setitem(bench_cases.WORKLOADS, "bell-verify", with_wrong_singlet_chsh)
    assert run.main(["--workload", "bell-verify", "--seconds", "0.01"]) == 0
    *_, record_line, result_line = capsys.readouterr().out.splitlines()
    record, result = json.loads(record_line), json.loads(result_line)
    assert record["failed_frac"] > 0.0
    assert "--state singlet" in record["failures"][0]
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["passed_frac"]["value"] < 1.0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "bell-verify", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

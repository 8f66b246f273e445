"""Benchmark of the bellforge command-line tool, end to end and layer by layer.

Run from the repository root:

    python3 benchmarks/run.py --workload extend-converge --seed 1 --seconds 35 --trace 0

The benchmark imports ``bellforge`` from ``src/`` of the checkout it sits in
and drives ``bellforge.cli.main(argv)`` in this process over the workload's
cases (see ``bench_cases.py``), a closed loop of one case at a time.  After
one warm-up pass it repeats whole passes until ``--seconds`` have passed,
checking every output against its reference.  BLAS threading is left as the
environment sets it and recorded.

``--trace 0`` reports the end-to-end metrics, measured untraced:

* ``setup_s``: median time from starting a fresh interpreter until
  ``import bellforge.cli`` is done; one interpreter is started after each
  pass, so the samples span the whole run;
* ``wall_s`` / ``cpu_s``: wall and process CPU time (all threads) of one
  warm pass, each case timed at its fastest run in the run.  The host's
  speed drifts over tens of seconds when other tenants load it, and the
  per-case minimum is what stays put; the median pass time and its spread
  are in the run record;
* ``peak_rss_mb``: peak resident memory of this process;
* ``passed_frac``: share of case runs whose exit code and value match the
  reference, that is one minus ``failed_frac``.

``--trace 1`` alternates untraced and traced passes and reports the median
per-layer metrics of the traced passes (see ``bench_trace.py``), with the
median traced pass time and its overhead over the median untraced one.

The second-to-last output line is a JSON record of the run: seed, pass
count, the spread of the pass time, failures and the numeric environment.
The last line is the result: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from bench_cases import WORKLOADS
from bench_env import numeric_env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_SETUP_SAMPLES = 9
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import bellforge.cli\n"
    "print(repr(time.perf_counter()))\n"
)
MAX_FAILURES_SHOWN = 5


def import_cli():
    """Import ``bellforge.cli`` from this checkout's sources, or exit."""
    if not (SRC / "bellforge" / "__init__.py").is_file():
        raise SystemExit(f"error: no bellforge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bellforge.cli

    if Path(bellforge.cli.__file__).resolve().parent != SRC / "bellforge":
        raise SystemExit(f"error: imported bellforge from {bellforge.cli.__file__}, not {SRC}")
    return bellforge.cli


def setup_sample() -> float:
    """Seconds from spawning an interpreter to its ``import bellforge.cli`` done.

    ``time.perf_counter`` reads the system-wide monotonic clock, so the child's
    reading after its import is comparable with the parent's before the spawn.
    """
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(child.stdout) - start


def run_pass(main, cases, tracer=None):
    """Run every case once; return each case's (wall s, CPU s) and its output.

    An output is ``(exit code, stdout, traceback or None)``.
    """
    times, outputs = [], []
    for index, case in enumerate(cases):
        stdout = io.StringIO()
        code, error = None, None
        wall, cpu = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                if tracer is None:
                    code = main(list(case.argv))
                else:
                    tracer.case = index
                    code = tracer.call("cli", main, list(case.argv))
            except Exception:  # a case that raises counts as failed
                error = traceback.format_exc()
        times.append((time.perf_counter() - wall, time.process_time() - cpu))
        outputs.append((code, stdout.getvalue(), error))
    return times, outputs


def pass_wall(times) -> float:
    return sum(wall for wall, _ in times)


class Tally:
    """Case runs attempted and failed, with the first few failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, cases, outputs, extra: dict[int, str] | None = None) -> None:
        for index, (case, (code, stdout, error)) in enumerate(zip(cases, outputs)):
            reason = error or case.check(code, stdout) or (extra or {}).get(index)
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < MAX_FAILURES_SHOWN:
                    self.reasons.append(f"{' '.join(case.argv)}: {reason}")


def spread(samples: list[float]) -> dict:
    """Quartiles, and the highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    q1, median, q3 = statistics.quantiles(ordered, n=4) if n > 1 else ordered * 3
    top = {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11]} if n > 10 else None
    return {"q1": q1, "median": median, "q3": q3, "top": top, "samples": n}


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def measure_end_to_end(main, cases, seconds: float, tally: Tally, record: dict) -> dict:
    passes, setup = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        times, outputs = run_pass(main, cases)
        tally.check(cases, outputs)
        passes.append(times)
        setup.append(setup_sample())
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(setup_sample())
    record["passes"] = len(passes)
    record["pass_wall_s"] = spread([pass_wall(times) for times in passes])
    record["setup_s"] = spread(setup)
    per_case = list(zip(*passes))  # each case's (wall, CPU) in every pass
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(min(wall for wall, _ in runs) for runs in per_case),
        "cpu_s": sum(min(cpu for _, cpu in runs) for runs in per_case),
        "peak_rss_mb": peak_rss_mb(),
        "passed_frac": (tally.attempted - tally.failed) / tally.attempted,
    }


def measure_layers(main, cases, seconds: float, tally: Tally, record: dict) -> dict:
    from bench_trace import Tracer

    tracer = Tracer()
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        times, outputs = run_pass(main, cases)
        tally.check(cases, outputs)
        plain.append(pass_wall(times))

        tracer.reset()
        tracer.install()
        try:
            times, outputs = run_pass(main, cases, tracer)
        finally:
            tracer.uninstall()
        tally.check(cases, outputs, tracer.check_results())
        traced.append(pass_wall(times))
        layers.append(tracer.metrics())
    record["passes"] = len(traced)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics["trace.wall_s"] = statistics.median(traced)
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / statistics.median(plain) - 1.0
    return metrics


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed, passed as bell --seed")
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cli = import_cli()
    from bellforge.bell import horodecki_chsh_oracle
    from bellforge.states import singlet

    bell_seed = args.seed % 2**32
    cases = WORKLOADS[args.workload](bell_seed, horodecki_chsh_oracle(singlet()))
    tally = Tally()
    _, outputs = run_pass(cli.main, cases)  # warm-up
    tally.check(cases, outputs)

    record = {"workload": args.workload, "seed": args.seed, "bell_seed": bell_seed, "trace": args.trace}
    measure = measure_layers if args.trace else measure_end_to_end
    metrics = measure(cli.main, cases, args.seconds, tally, record)
    record.update(
        cases=len(cases),
        failed_frac=tally.failed / tally.attempted,
        failures=tally.reasons,
        env=numeric_env(),
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

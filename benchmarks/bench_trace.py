"""Per-layer spans for the bellforge benchmark, recorded from outside the library.

The tracer rebinds the names through which one bellforge module calls
another's public functions (``bellforge.cli.dykstra_find_extension``,
``bellforge.states.density_deficits``, ...) to wrappers that record a span
around each call.  The library itself is unchanged; ``uninstall`` restores
every original binding.  Spans are kept in memory for one pass and reduced
to per-layer metrics afterwards.  Calls are assumed to come from one thread.

A layer's ``time_s`` is the inclusive duration of its spans, so
``states.construct`` contains the ``states.validate`` and ``linalg`` spans
nested in it.  Spans of one layer never nest, because no traced function
calls another of its own layer through a rebound name.  ``cli.self_s`` is
the time of the ``cli`` spans that no child span covers: argument parsing,
input checks and report rendering.
"""

from __future__ import annotations

import functools
import inspect
import time
from types import ModuleType

import bellforge.bell
import bellforge.cli
import bellforge.extensions
import bellforge.linalg
import bellforge.states

CALLERS = (bellforge.cli, bellforge.states, bellforge.extensions, bellforge.bell)

# Public functions whose calls form a layer of their own; other public
# functions of ``states`` build states, and every public ``linalg`` function
# is the ``linalg`` layer.
NAMED_LAYERS = {
    "dykstra_find_extension": "extensions.dykstra",
    "verify_marginals": "extensions.verify_marginals",
    "seesaw_chsh": "bell.seesaw",
    "seesaw_original_bell": "bell.seesaw",
    "density_deficits": "states.validate",
}

LAYERS = (
    "extensions.dykstra",
    "extensions.verify_marginals",
    "bell.seesaw",
    "states.construct",
    "states.validate",
    "linalg",
)

# Observables may exceed operator norm one by the library's rounding slack.
NORM_SLACK = bellforge.bell.NORM_SLACK

# Originals for the result checks, bound before any wrapper is installed.
_verify_marginals = bellforge.extensions.verify_marginals
_density_deficits = bellforge.states.density_deficits
_operator_norm = bellforge.linalg.operator_norm


def _layer(fn) -> str | None:
    if fn.__name__ in NAMED_LAYERS:
        return NAMED_LAYERS[fn.__name__]
    if fn.__module__ == "bellforge.linalg":
        return "linalg"
    if fn.__module__ == "bellforge.states":
        return "states.construct"
    return None


def traced_bindings() -> list[tuple[ModuleType, str, str]]:
    """``(caller module, bound name, layer)`` for each cross-module call site.

    ``states.density_deficits`` is included although caller and callee share
    the module, because every ``DensityOperator`` validates through it.
    """
    found = [(bellforge.states, "density_deficits", "states.validate")]
    for caller in CALLERS:
        for name, value in vars(caller).items():
            if name.startswith("_") or not inspect.isfunction(value):
                continue
            home = value.__module__
            if home == caller.__name__ or not home.startswith("bellforge."):
                continue
            layer = _layer(value)
            if layer is not None:
                found.append((caller, name, layer))
    return found


class Tracer:
    """Spans and solver results for the calls made during one pass."""

    def __init__(self) -> None:
        self._saved: list[tuple[ModuleType, str, object]] = []
        self._stack: list[int] = []
        self.case = -1
        self.reset()

    def reset(self) -> None:
        # Each span is [layer, start, end, parent index or -1, case index].
        self.spans: list[list] = []
        # (layer, case, arguments, result) of every Dykstra and see-saw call.
        self.results: list[tuple[str, int, dict, object]] = []

    def install(self) -> None:
        for module, name, layer in traced_bindings():
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def call(self, layer: str, fn, /, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span of ``layer``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self.case])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, layer: str, fn):
        keep = layer in ("extensions.dykstra", "bell.seesaw")
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            if keep:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.results.append((layer, self.case, bound.arguments, result))
            return result

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and results recorded since ``reset``."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            spans = [s for s in self.spans if s[0] == layer]
            out[f"{layer}.time_s"] = sum((s[2] - s[1] for s in spans), 0.0)
            out[f"{layer}.calls"] = len(spans)

        dykstra = [r for layer, _, _, r in self.results if layer == "extensions.dykstra"]
        cycles = sum(r.iterations for r in dykstra)
        out["extensions.dykstra.cycles"] = cycles
        out["extensions.dykstra.cycle_ms"] = (
            1000.0 * out["extensions.dykstra.time_s"] / cycles if cycles else 0.0
        )
        out["extensions.dykstra.converged_ratio"] = (
            sum(r.converged for r in dykstra) / len(dykstra) if dykstra else 0.0
        )

        seesaw = [(a, r) for layer, _, a, r in self.results if layer == "bell.seesaw"]
        restarts = sum(arguments["cfg"].restarts for arguments, _ in seesaw)
        out["bell.seesaw.restarts"] = restarts
        out["bell.seesaw.restart_ms"] = (
            1000.0 * out["bell.seesaw.time_s"] / restarts if restarts else 0.0
        )
        out["bell.seesaw.winner_sweeps"] = sum(r.sweeps_used for _, r in seesaw)

        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        out["cli.self_s"] = sum(
            (s[2] - s[1] - covered[i] for i, s in enumerate(self.spans) if s[0] == "cli"), 0.0
        )
        return out

    def check_results(self) -> dict[int, str]:
        """Check every converged Dykstra candidate and every see-saw observable.

        Runs the original library functions after the pass, so the checks add
        to no span.  Returns the reason for each case index that fails.
        """
        failures: dict[int, str] = {}
        for layer, case, arguments, result in self.results:
            if layer == "extensions.dykstra" and result.converged:
                tol = arguments["tol"]
                marginal = max(_verify_marginals(result.candidate, arguments["pattern"]))
                deficits = _density_deficits(result.candidate)
                if not max(marginal, *deficits) <= tol:
                    failures[case] = (
                        f"converged candidate fails: marginal {marginal!r}, "
                        f"density deficits {deficits!r}, tol {tol!r}"
                    )
            elif layer == "bell.seesaw":
                for obs in result.observables:
                    norm = _operator_norm(obs.op)
                    if not norm <= 1.0 + NORM_SLACK:
                        failures[case] = f"observable {obs.label!r} has norm {norm!r}"
        return failures


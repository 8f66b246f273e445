"""Marginal-constraint checking and alternating-projection extension search.

Given a pattern of marginal constraints (bipartite target states for
chosen partial traces), this module verifies whether a tripartite
operator has the required partial traces, and searches for such an
operator with Dykstra's alternating-projection algorithm over the
intersection of

* the set of density operators (Hermitian, PSD, trace one), and
* one affine set per constraint: operators whose j-th partial trace
  equals the target.

Dykstra's method (projections with per-set correction terms) converges
to the projection onto the intersection when it is nonempty.  Only the
density set keeps a full correction: a marginal set's, ``Y_j`` tensored
with the identity at slot j, is orthogonal to the set and never moves its
projection (Bauschke & Borwein, J. Approx. Theory 79, 418 (1994)), so
the search keeps just ``Y_j``.  When the intersection is empty, these
duals grow along a Farkas witness, which one eigenvalue computation
checks.  A search stops for one of three reasons:
``converged`` (an operator meets every constraint to the tolerance),
``infeasible`` (a checked certificate proves that no extension exists)
or ``max_iters`` (neither, within the cycle budget; this proves nothing).

The marginal maps and the density set commute with complex conjugation.
With real targets (every state this package names is real in the product
basis) the conjugate of an extension is one too, so is the real
``(X + conj X) / 2``, and every projection maps real matrices to real ones.
The search therefore runs in real arithmetic when every target is real and
loses nothing, as in the symmetric-extension SDP of Doherty, Parrilo &
Spedalieri, PRA 69, 022308 (2004).

The same argument holds for diagonal phases.  Let D be a diagonal unitary.
A target with exact zeros at every entry ``(ab, cd)`` with
``sorted(ab) != sorted(cd)`` satisfies ``(D x D) rho (D x D)^H = rho`` for
every D.  Then each marginal set, and the density set, is invariant under
``D x D x D``, and so are Dykstra's iterates and correction terms.  They lie
in the commutant of those phases, which is block-diagonal over the weight
sectors that ``linalg`` defines (blocks of 1, 3 or 6 states at every d).
Every state this package names has that structure.

The search therefore stores only the block entries (996 of 46 656 at d = 6)
in the flat layout that ``linalg._layout`` builds once per dimension, or the
whole basis as one block if a target does not conserve weight.  ``linalg``
owns that layout and every map on it: partial trace, embedding, density
projection and the exact ``lambda_min``.  This module keeps the patterns,
the results, the certificate, the residuals and the loop.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PSD_TOL, TensorOperator, _add_embedded, _block_ptrace, _chunks, _conserves, _hermitian_part,
    _Layout, _layout, _project_density, _ptrace, _spectrum,
)
from .states import DensityOperator, _bipartite_dim, _check_local_dim

__all__ = [
    "MarginalPattern",
    "InfeasibilityCertificate",
    "FeasibilityResult",
    "verify_marginals",
    "pattern_sym3",
    "pattern_right2",
    "dykstra_find_extension",
]

@dataclass(frozen=True, eq=False)
class MarginalPattern:
    """Constraints ``partial_trace(T, j) == target`` for distinct factors j.

    ``constraints`` maps 1-based factor indices in {1, 2, 3} to bipartite
    density operators with equal local dimensions; every target must live
    on the same space.
    """

    constraints: tuple[tuple[int, DensityOperator], ...]

    def __post_init__(self) -> None:
        constraints = tuple((operator.index(j), target) for j, target in self.constraints)
        if not 1 <= len(constraints) <= 3:
            raise ValueError("a marginal pattern needs between 1 and 3 constraints")
        factors = [j for j, _ in constraints]
        if len(set(factors)) != len(factors) or any(j not in (1, 2, 3) for j in factors):
            raise ValueError(f"traced factors {factors} must be distinct members of {{1, 2, 3}}")
        dims = {target.factor_dims for _, target in constraints}
        if len(dims) != 1:
            raise ValueError(f"targets live on different spaces: {sorted(dims)}")
        _bipartite_dim(dims.pop())
        object.__setattr__(self, "constraints", constraints)

    @property
    def local_dim(self) -> int:
        return self.constraints[0][1].factor_dims[0]


@dataclass(frozen=True, eq=False)
class InfeasibilityCertificate:
    """Farkas witness that no density operator has the pattern's marginals.

    ``duals[k]`` is a Hermitian ``Y_j`` on the pattern's bipartite space,
    paired with the constraint that traces out factor ``j = slots[k]``.  Let
    ``M`` be the sum of the ``Y_j``, each tensored with the identity at its
    slot.  Every density operator X with the pattern's marginals ``rho_j``
    satisfies ``sum_j tr(rho_j Y_j) = tr(X M) >= lambda_min(M)``.  ``value``
    is ``(sum_j tr(rho_j Y_j) - lambda_min(M)) / sum_j ||Y_j||_F``; it is
    below ``-linalg.PSD_TOL``, far beyond its rounding error of about
    ``d**3`` machine epsilons, so no such X exists.
    """

    slots: tuple[int, ...]
    duals: tuple[TensorOperator, ...]
    value: float


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of the extension search.

    ``candidate`` is the best iterate found and ``residual`` its total
    infeasibility (largest marginal deviation plus PSD deficit plus
    trace deficit), ``iterations`` the number of projection cycles run,
    and ``converged`` whether that residual reached the tolerance.
    ``certificate`` is ``None`` unless infeasibility was proved.
    ``residual_trace`` records each cycle's marginal deviation plus trace
    deficit; the iterate is positive semidefinite by construction, so the
    PSD deficit enters only ``residual``.

    ``stop_reason`` says what the result proves: ``"converged"`` (the
    candidate is an extension up to the tolerance), ``"infeasible"`` (the
    certificate proves that no extension exists) or ``"max_iters"``
    (nothing either way).
    """

    candidate: TensorOperator
    residual: float
    iterations: int
    converged: bool
    residual_trace: tuple[float, ...]
    certificate: InfeasibilityCertificate | None

    @property
    def stop_reason(self) -> str:
        """``"converged"``, ``"infeasible"`` or ``"max_iters"``."""
        if self.converged:
            return "converged"
        return "max_iters" if self.certificate is None else "infeasible"


def pattern_sym3(rho: DensityOperator) -> MarginalPattern:
    """Pattern demanding all three bipartite marginals equal ``rho``."""
    return MarginalPattern(((1, rho), (2, rho), (3, rho)))


def pattern_right2(rho: DensityOperator) -> MarginalPattern:
    """Pattern demanding the marginals over factors 2 and 3 equal ``rho``."""
    return MarginalPattern(((2, rho), (3, rho)))


def verify_marginals(t: TensorOperator, pattern: MarginalPattern) -> list[float]:
    """Frobenius distance of each constrained partial trace from its target."""
    d = pattern.local_dim
    if t.factor_dims != (d, d, d):
        raise ValueError(
            f"operator factors {t.factor_dims} do not match the pattern's space ({d}, {d}, {d})"
        )
    return [
        float(np.linalg.norm(_ptrace(t.entries, (d, d, d), j) - target.op.entries))
        for j, target in pattern.constraints
    ]


def _project_marginal(
    v: np.ndarray, layout: _Layout, j: int, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projection onto operators whose j-th partial trace is ``target``, and its deficit.

    It adds the deficit (target - partial_trace) / d tensored with the identity at slot j.
    """
    deficit = (target - _block_ptrace(v, layout, j)) / layout.d
    return _add_embedded(v, deficit, layout, j), deficit


def _cheap_residual(
    v: np.ndarray, layout: _Layout, targets: tuple[tuple[int, np.ndarray], ...]
) -> float:
    """Worst Frobenius deviation of a constrained partial trace from its target + trace deficit."""
    marginal = max(float(np.linalg.norm(_block_ptrace(v, layout, j) - t)) for j, t in targets)
    return marginal + abs(complex(v[layout.diagonal].sum()) - 1.0)


def _residual(v: np.ndarray, layout: _Layout, targets: tuple[tuple[int, np.ndarray], ...]) -> float:
    """Total infeasibility: worst marginal deviation + trace deficit + PSD deficit."""
    return _cheap_residual(v, layout, targets) + max(0.0, -float(_spectrum(_chunks(v, layout))[0]))


def _certificate(
    raw_duals: list[np.ndarray], layout: _Layout, targets: tuple[tuple[int, np.ndarray], ...]
) -> InfeasibilityCertificate | None:
    """Check the marginal duals ``Y_j`` as a Farkas witness; keep it only if it holds.

    Only the density set keeps a full correction, as marginal set j's (``Y_j`` tensored with
    the identity at slot j) never moves its projection.  The duals are sums of deficits, which
    are exactly zero between pairs of different digit multisets when the targets are, so the
    combined operator has no entry outside the blocks and its ``lambda_min`` is exact.
    """
    duals = [_hermitian_part(y) for y in raw_duals]
    scale = sum(float(np.linalg.norm(y)) for y in duals)
    if scale == 0.0:
        return None
    combined = np.zeros(layout.rows.size, dtype=duals[0].dtype)
    for y, (j, _) in zip(duals, targets):
        combined = _add_embedded(combined, y, layout, j)
    paired = sum(float(np.vdot(y, target).real) for y, (_, target) in zip(duals, targets))
    value = (paired - float(_spectrum(_chunks(combined, layout))[0])) / scale
    if not value < -PSD_TOL:
        return None
    d = layout.d
    return InfeasibilityCertificate(
        slots=tuple(j for j, _ in targets),
        duals=tuple(TensorOperator(y, (d, d)) for y in duals),
        value=value,
    )


def dykstra_find_extension(
    pattern: MarginalPattern,
    max_iters: int = 5000,
    tol: float = 1e-6,
) -> FeasibilityResult:
    """Search for a tripartite density operator with the pattern's marginals.

    Runs Dykstra's alternating projections between the affine marginal
    sets (in constraint order) and the density set.  Only the density set
    keeps a full correction term; a marginal set's never moves its
    projection, so each constraint keeps its dual ``Y_j`` instead.  Each
    constraint matches its own target; the start is the first target with
    the maximally mixed state on its traced factor.  Each cycle ends on a
    density operator, assessed by its marginal deviation plus trace
    deficit alone; the iterate with the least such value is kept.

    The search stops for one of three reasons, given by ``stop_reason``:

    * ``"converged"``: an iterate passed ``tol`` both on that cheap
      residual and on the full one, which adds the PSD deficit from an
      eigenvalue computation; it is an extension up to ``tol``.
    * ``"infeasible"``: at cycles 1, 2, 4, 8, ... the marginal duals are
      checked as a Farkas candidate with one eigenvalue computation; a
      check that holds proves that no extension exists, and is returned
      as ``certificate``.
    * ``"max_iters"``: neither happened within ``max_iters`` cycles; this
      proves nothing either way.

    ``residual`` is the full residual of the returned candidate.

    When every target has an all-zero imaginary part, the iterates, the
    correction, the duals and all eigensolves are float64, which is exact
    by the conjugation argument in the module docstring; otherwise they are
    complex128.  ``candidate`` is complex either way.  The iterate is stored
    as its weight-sector block entries, by the phase argument there.  The
    local dimension must lie in 2..6 and ``tol`` must be finite and positive.
    """
    d = pattern.local_dim
    _check_local_dim(d)
    if operator.index(max_iters) < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")

    targets = tuple((j, target.op.entries) for j, target in pattern.constraints)
    if not any(target.imag.any() for _, target in targets):
        targets = tuple((j, target.real.copy()) for j, target in targets)
    layout = _layout(d, all(_conserves(target, d, 2) for _, target in targets))
    first_slot, first_target = targets[0]
    correction = np.zeros(layout.rows.size, dtype=first_target.dtype)
    x = _add_embedded(correction, first_target / d, layout, first_slot)
    duals = [np.zeros_like(first_target) for _ in targets]

    best, best_cheap = x, math.inf
    trace_log: list[float] = []
    converged = False
    certificate = None

    for iterations in range(1, max_iters + 1):
        for y, (j, target) in zip(duals, targets):
            x, deficit = _project_marginal(x, layout, j, target)
            y -= deficit
        shifted = x + correction
        x = _project_density(shifted, layout)
        correction = shifted - x

        current = _cheap_residual(x, layout, targets)
        trace_log.append(current)
        if current < best_cheap:
            best, best_cheap = x, current
        if current <= tol:
            full = _residual(x, layout, targets)
            if full <= tol:
                best, converged = x, True
                break
        if iterations & (iterations - 1) == 0:
            certificate = _certificate(duals, layout, targets)
            if certificate is not None:
                break

    candidate = np.zeros((d**3, d**3), dtype=best.dtype)
    candidate[layout.rows, layout.cols] = best
    return FeasibilityResult(
        candidate=TensorOperator(candidate, (d, d, d)),
        residual=full if converged else _residual(best, layout, targets),
        iterations=iterations,
        converged=converged,
        residual_trace=tuple(trace_log),
        certificate=certificate,
    )

"""Marginal-constraint checking and Douglas–Rachford extension search.

Given a pattern of marginal constraints (bipartite target states for chosen
partial traces), this module verifies whether a tripartite operator has the
required partial traces, and searches for one with Douglas–Rachford (DR)
splitting (Lions & Mercier, SIAM J. Numer. Anal. 16, 964 (1979)) between
the density operators (Hermitian, PSD, trace one) and the marginal set: the
operators whose j-th partial trace is the j-th target for every constraint.

The maps ``ptr_j(X)`` tensored with ``I/d`` at slot j are orthogonal
projections that commute.  So when the targets agree on the one-party
marginal of each factor that two constraints keep, one ordered sweep of the
per-constraint projections is the exact projection onto the marginal set;
when they disagree, the difference certifies that the set is empty.  When
the two sets do not meet, DR's displacement ``c - a`` converges to the gap
vector between them (Bauschke & Moursi, Math. Program. 164 (2017)), which is
normal to the marginal set: a sum of ``Y_j`` tensored with the identity at
slot j, peeled off slot by slot and checked as a Farkas witness by one
eigenvalue computation.  A search stops for one of three reasons:
``converged`` (an operator meets every constraint to the tolerance),
``infeasible`` (a checked certificate proves that no extension exists) or
``max_iters`` (neither, within the iteration budget; this proves nothing).

The marginal maps and the density set commute with complex conjugation.
With real targets (every state this package names is real in the product
basis) the conjugate of an extension is one too, so is the real
``(X + conj X) / 2``, and every projection maps real matrices to real ones.
The search therefore runs in real arithmetic when every target is real and
loses nothing, as in the symmetric-extension SDP of Doherty, Parrilo &
Spedalieri, PRA 69, 022308 (2004).

The same holds for diagonal phases D.  A target with exact zeros at every
entry ``(ab, cd)`` with ``sorted(ab) != sorted(cd)`` is invariant under
``D x D``, so both sets and the iterates are under ``D x D x D``: the
iterates are block-diagonal over the weight sectors of ``linalg``.  The
search stores only their block entries (996 of 46 656 at d = 6) in the
layout ``linalg._layout`` builds, or the whole basis as one block if a
target does not conserve weight.  ``linalg`` owns every map on that layout.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PSD_TOL, TensorOperator, _add_embedded, _block_ptrace, _chunks, _conserves, _dense, _frozen,
    _hermitian_part, _Layout, _layout, _project_density, _ptrace, _spectrum,
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

_Targets = tuple[tuple[int, np.ndarray], ...]

@dataclass(frozen=True, eq=False)
class MarginalPattern:
    """Constraints ``ptr_j(T) == target`` for distinct factors j.

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
    """Outcome of the DR search ``dykstra_find_extension`` (named for the benchmark layer).

    ``best`` holds the block entries, in ``layout``, of the best density point found, which
    ``candidate`` scatters into an operator on first read.  ``residual`` is its total
    infeasibility (largest marginal deviation plus PSD and trace deficits), ``iterations`` the
    number of DR iterations run (0 when the targets' shared one-party marginals proved
    infeasibility first; the point is then the start), ``converged`` whether that residual
    reached the tolerance, and ``residual_trace`` each iteration's marginal deviation plus trace
    deficit.  ``certificate`` is ``None`` unless infeasibility was proved, and ``stop_reason``
    says what the result proves.
    """

    best: np.ndarray
    layout: _Layout
    residual: float
    iterations: int
    converged: bool
    residual_trace: tuple[float, ...]
    certificate: InfeasibilityCertificate | None

    @functools.cached_property
    def candidate(self) -> TensorOperator:
        """The best point as a dense operator, built from ``best`` on first read and kept."""
        return TensorOperator(_dense(self.best, self.layout), (self.layout.d,) * 3)

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
        float(np.linalg.norm(_ptrace(t.entries, (d, d, d), j) - target.entries))
        for j, target in pattern.constraints
    ]


def _sweep(v: np.ndarray, layout: _Layout, targets: _Targets) -> tuple[np.ndarray, list]:
    """The marginal projections in constraint order, and their deficits; the projection onto the
    marginal set when the targets agree on the one-party marginals that they share.

    The projection onto the operators whose j-th partial trace is ``target`` adds the deficit
    ``(target - partial_trace_j) / d`` tensored with the identity at slot j.
    """
    deficits = []
    for j, target in targets:
        deficits.append((target - _block_ptrace(v, layout, j)) / layout.d)
        v = _add_embedded(v, deficits[-1], layout, j)
    return v, deficits


def _cheap_residual(v: np.ndarray, layout: _Layout, targets: _Targets) -> float:
    """Worst Frobenius deviation of a constrained partial trace from its target + trace deficit."""
    marginal = max(float(np.linalg.norm(_block_ptrace(v, layout, j) - t)) for j, t in targets)
    return marginal + abs(complex(v[layout.diagonal].sum()) - 1.0)


def _residual(v: np.ndarray, layout: _Layout, targets: _Targets) -> float:
    """Total infeasibility: worst marginal deviation + trace deficit + PSD deficit."""
    return _cheap_residual(v, layout, targets) + max(0.0, -float(_spectrum(_chunks(v, layout))[0]))


def _certificate(
    raw_duals: list[np.ndarray], layout: _Layout, targets: _Targets
) -> InfeasibilityCertificate | None:
    """Check the marginal duals ``Y_j`` as a Farkas witness; keep it only if it holds.

    The duals are partial traces of block entries or targets' one-party marginals tensored
    with the identity, exactly zero between pairs of different digit multisets when the targets
    are, so the combined operator has no entry outside the blocks and its ``lambda_min`` is exact.
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


def _disagreement(layout: _Layout, targets: _Targets) -> InfeasibilityCertificate | None:
    """A certificate from two targets whose one-party marginals of their shared factor differ.

    With ``delta`` that difference, ``-delta`` and ``delta`` at the shared factor, tensored with
    the identity on the other, embed to opposite operators and pair to ``-||delta||_F^2``.
    """
    d, eye = layout.d, np.eye(layout.d)
    for a, b in itertools.combinations(range(len(targets)), 2):
        (j, rho_j), (k, rho_k) = targets[a], targets[b]
        # The shared factor 6 - j - k is the first that constraint j keeps iff it is below k.
        first = (6 - j - k < k, 6 - j - k < j)
        delta = _ptrace(rho_j, (d, d), 1 + first[0]) - _ptrace(rho_k, (d, d), 1 + first[1])
        if delta.any():
            duals = [np.zeros_like(rho_j, dtype=delta.dtype) for _ in targets]
            for i, sign, f in ((a, -1.0, first[0]), (b, 1.0, first[1])):
                duals[i] = sign * (np.kron(delta, eye) if f else np.kron(eye, delta))
            certificate = _certificate(duals, layout, targets)
            if certificate is not None:
                return certificate
    return None


def dykstra_find_extension(
    pattern: MarginalPattern, max_iters: int = 5000, tol: float = 1e-6
) -> FeasibilityResult:
    """Search for a tripartite density operator with the pattern's marginals.

    Runs DR between the marginal set and the density set; the name is kept
    for the benchmark's ``extensions.dykstra`` layer.  ``z`` starts as the
    marginal sweep of the first target with the maximally mixed state on
    its traced factor.  Each iteration takes the sweep ``a`` of ``z`` and
    the density projection ``c`` of ``2a - z``, then adds ``c - a`` to
    ``z``.  The ``c`` of least marginal deviation plus trace deficit is kept.

    The search stops for one of three reasons, given by ``stop_reason``:

    * ``"converged"``: a ``c`` passed ``tol`` on that cheap residual and on
      the full one, which adds the PSD deficit from an eigensolve.
    * ``"infeasible"``: a checked Farkas certificate, returned as
      ``certificate``, proves that no extension exists.  The targets'
      shared one-party marginals are checked first (0 iterations if that
      holds), then at iterations 1, 2, 4, ... the duals peeled from ``c - a``.
    * ``"max_iters"``: neither within ``max_iters`` iterations.

    ``residual`` is the full residual of the returned candidate.  With all
    targets real, the search runs in float64, exact by the conjugation
    argument in the module docstring; otherwise in complex128.  The local
    dimension must lie in 2..6 and ``tol`` must be finite and positive.
    """
    d = pattern.local_dim
    _check_local_dim(d)
    if operator.index(max_iters) < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")

    targets = tuple((j, target.entries) for j, target in pattern.constraints)
    if not any(target.imag.any() for _, target in targets):
        targets = tuple((j, target.real.copy()) for j, target in targets)
    layout = _layout(d, all(_conserves(target, d, 2) for _, target in targets))
    slot, first = targets[0]
    best = _add_embedded(np.zeros(layout.rows.size, first.dtype), first / d, layout, slot)
    z, best_cheap, trace_log, converged = _sweep(best, layout, targets)[0], math.inf, [], False
    # ``Y_j = ptr_j(r) / d`` peeled off ``r = c - a`` is the deficit of ``a - c`` at target 0.
    zeros = tuple((j, np.zeros_like(target)) for j, target in targets)
    certificate, iterations = _disagreement(layout, targets), 0

    while certificate is None and iterations < max_iters:
        iterations += 1
        a = _sweep(z, layout, targets)[0]
        c = _project_density(2.0 * a - z, layout)
        current = _cheap_residual(c, layout, targets)
        trace_log.append(current)
        if current < best_cheap:
            best, best_cheap = c, current
        if current <= tol:
            full = _residual(c, layout, targets)
            if full <= tol:
                best, converged = c, True
                break
        if iterations & (iterations - 1) == 0:
            certificate = _certificate(_sweep(a - c, layout, zeros)[1], layout, targets)
        z += c - a

    return FeasibilityResult(
        best=_frozen(best),
        layout=layout,
        residual=full if converged else _residual(best, layout, targets),
        iterations=iterations,
        converged=converged,
        residual_trace=tuple(trace_log),
        certificate=certificate,
    )

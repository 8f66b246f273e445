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
to the projection onto the intersection when it is nonempty; when it is
empty the residual stalls away from zero, which this module reports as
non-convergence rather than a proof of infeasibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    TensorOperator,
    _density_defects,
    _ptrace,
    _reorder,
    _spectral_map,
    frobenius_distance,
    partial_trace,
)
from .states import MAX_LOCAL_DIM, DensityOperator, density_deficits

__all__ = [
    "MarginalPattern",
    "FeasibilityResult",
    "verify_marginals",
    "marginals_satisfied",
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
        constraints = tuple((int(j), target) for j, target in self.constraints)
        if not 1 <= len(constraints) <= 3:
            raise ValueError("a marginal pattern needs between 1 and 3 constraints")
        factors = [j for j, _ in constraints]
        if len(set(factors)) != len(factors) or any(j not in (1, 2, 3) for j in factors):
            raise ValueError(f"traced factors {factors} must be distinct members of {{1, 2, 3}}")
        dims = {target.factor_dims for _, target in constraints}
        if len(dims) != 1:
            raise ValueError(f"targets live on different spaces: {sorted(dims)}")
        (shape,) = dims
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"targets must be bipartite with equal local dimensions, got {shape}")
        object.__setattr__(self, "constraints", constraints)

    @property
    def local_dim(self) -> int:
        return self.constraints[0][1].factor_dims[0]


@dataclass(frozen=True, eq=False)
class FeasibilityResult:
    """Outcome of the extension search.

    ``candidate`` is the best iterate found, ``residual`` its total
    infeasibility (largest marginal deviation plus PSD deficit plus
    trace deficit), ``iterations`` the number of projection cycles run,
    and ``converged`` whether the residual reached the tolerance.
    ``residual_trace`` records the residual after every cycle.
    """

    candidate: TensorOperator
    residual: float
    iterations: int
    converged: bool
    residual_trace: tuple[float, ...]


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
        frobenius_distance(partial_trace(t, j), target.op)
        for j, target in pattern.constraints
    ]


def marginals_satisfied(
    t: TensorOperator, pattern: MarginalPattern, tol: float = 1e-10
) -> bool:
    """Whether ``t`` is a density operator with all constrained marginals within ``tol``."""
    residuals = verify_marginals(t, pattern)
    asymmetry, trace_error, negativity = density_deficits(t)
    return (
        max(residuals) <= tol
        and asymmetry <= tol
        and trace_error <= tol
        and negativity <= tol
    )


def _project_simplex(vals: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(vals)[::-1]
    shifted = np.cumsum(u) - 1.0
    ks = np.arange(1, vals.size + 1)
    support = np.nonzero(u - shifted / ks > 0)[0][-1]
    theta = shifted[support] / (support + 1)
    return np.maximum(vals - theta, 0.0)


def _project_density(m: np.ndarray) -> np.ndarray:
    """Nearest density matrix in Frobenius norm: clip eigenvalues onto the simplex."""
    return _spectral_map(m, _project_simplex)


# Factor order that moves the identity of ``kron(b, I)`` from slot 3 to the key.
_IDENTITY_ORDER = {1: (3, 1, 2), 2: (1, 3, 2), 3: (1, 2, 3)}


def _embed_identity_at(b: np.ndarray, d: int, slot: int) -> np.ndarray:
    """Tensor a bipartite matrix with the identity placed at 1-based ``slot``."""
    big = np.kron(b, np.eye(d, dtype=np.complex128))
    return _reorder(big, (d, d, d), _IDENTITY_ORDER[slot])


def _project_marginal(m: np.ndarray, d: int, j: int, target: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto operators whose j-th partial trace is ``target``.

    The deficit is spread uniformly over the traced factor: add
    (target - partial_trace(m)) / d tensored with the identity at slot j.
    """
    deficit = (target - _ptrace(m, (d, d, d), j)) / d
    return m + _embed_identity_at(deficit, d, j)


def _residual(m: np.ndarray, d: int, targets: tuple[tuple[int, np.ndarray], ...]) -> float:
    """Total infeasibility: worst marginal deviation + PSD deficit + trace deficit."""
    dims = (d, d, d)
    marginal = max(float(np.linalg.norm(_ptrace(m, dims, j) - target)) for j, target in targets)
    trace_error, negativity = _density_defects(m)
    return marginal + negativity + trace_error


def dykstra_find_extension(
    pattern: MarginalPattern,
    max_iters: int = 5000,
    tol: float = 1e-6,
) -> FeasibilityResult:
    """Search for a tripartite density operator with the pattern's marginals.

    Runs Dykstra's alternating projections between the affine marginal
    sets (in constraint order) and the density set, keeping one
    correction term per set.  Each constraint matches its own target, so
    targets may differ; the start is the first target with the maximally
    mixed state on its traced factor.  The iterate is assessed after the
    density projection of each cycle, and the best iterate seen is
    returned.

    A ``converged`` result certifies feasibility up to ``tol``.  A
    non-converged result only means no extension was found within
    ``max_iters`` cycles; it is evidence of infeasibility, not a proof.
    """
    d = pattern.local_dim
    if d > MAX_LOCAL_DIM:
        raise ValueError(f"local dimension {d} exceeds the supported maximum {MAX_LOCAL_DIM}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")

    targets = tuple((j, target.op.entries) for j, target in pattern.constraints)
    first_slot, first_target = targets[0]
    x = _embed_identity_at(first_target / d, d, first_slot)

    n = d**3
    nsets = len(targets) + 1
    corrections = [np.zeros((n, n), dtype=np.complex128) for _ in range(nsets)]

    best: np.ndarray | None = None
    best_residual = math.inf
    trace_log: list[float] = []
    iterations = 0
    converged = False

    for _ in range(max_iters):
        for i, (j, target) in enumerate(targets):
            shifted = x + corrections[i]
            projected = _project_marginal(shifted, d, j, target)
            corrections[i] = shifted - projected
            x = projected
        shifted = x + corrections[-1]
        projected = _project_density(shifted)
        corrections[-1] = shifted - projected
        x = projected

        iterations += 1
        current = _residual(x, d, targets)
        trace_log.append(current)
        if current < best_residual:
            best_residual = current
            best = x.copy()
        if current <= tol:
            converged = True
            break

    assert best is not None
    return FeasibilityResult(
        candidate=TensorOperator(best, (d, d, d)),
        residual=best_residual,
        iterations=iterations,
        converged=converged,
        residual_trace=tuple(trace_log),
    )

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
in the commutant of those phases, which is block-diagonal over weight
sectors: the basis states ``|abc>`` that share the multiset ``{a, b, c}``,
in blocks of 1, 3 or 6 states at every d.  Every state this package names
has that structure, so the search runs its density projection and its
eigenvalue checks block by block and loses nothing.  This is the symmetry
reduction of Gatermann & Parrilo, J. Pure Appl. Algebra 192, 95 (2004),
applied to the torus inside the ``U x U`` symmetry of Werner states
(Eggeling & Werner, PRA 63, 042111 (2001)).  Other targets run as one block.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PSD_TOL,
    TensorOperator,
    _density_defects,
    _hermitian_part,
    _lowest_eigenvalue,
    _ptrace,
    _spectral_map,
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
    targets = tuple((j, target.op.entries) for j, target in pattern.constraints)
    return _marginal_errors(t.entries, d, targets)


def _marginal_errors(
    m: np.ndarray, d: int, targets: tuple[tuple[int, np.ndarray], ...]
) -> list[float]:
    """Frobenius deviation of each constrained partial trace of a raw matrix from its target."""
    return [float(np.linalg.norm(_ptrace(m, (d, d, d), j) - target)) for j, target in targets]


def _project_simplex(vals: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(vals)[::-1]
    shifted = np.cumsum(u) - 1.0
    ks = np.arange(1, vals.size + 1)
    support = np.nonzero(u - shifted / ks > 0)[0][-1]
    theta = shifted[support] / (support + 1)
    return np.maximum(vals - theta, 0.0)


def _project_density(m: np.ndarray, sectors: tuple[np.ndarray, ...] | None = None) -> np.ndarray:
    """Nearest density matrix in Frobenius norm: clip eigenvalues onto the simplex.

    ``sectors`` is a ``linalg`` partition that ``m`` is block-diagonal over.
    """
    return _spectral_map(m, _project_simplex, sectors)


def _weight_sectors(
    d: int, targets: tuple[tuple[int, np.ndarray], ...]
) -> tuple[np.ndarray, ...] | None:
    """The weight sectors of the ``d**3`` basis as a ``linalg`` partition, if the targets allow.

    ``None`` (the whole space as one block) unless every target is exactly zero
    between bipartite basis states of different digit multisets.
    """
    # Digit a weighs 4**a; with at most three digits, the sum encodes the multiset.
    weight = 4 ** np.arange(d)
    pair = (weight[:, None] + weight[None, :]).ravel()
    if any(target[pair[:, None] != pair[None, :]].any() for _, target in targets):
        return None
    triple = (pair[:, None] + weight[None, :]).ravel()
    order = np.argsort(triple, kind="stable")
    _, starts, sizes = np.unique(triple[order], return_index=True, return_counts=True)
    by_size: dict[int, list[np.ndarray]] = {}
    for start, size in zip(starts, sizes):
        by_size.setdefault(int(size), []).append(order[start : start + size])
    return tuple(np.array(by_size[size]) for size in sorted(by_size))


def _embed_identity_at(b: np.ndarray, d: int, slot: int) -> np.ndarray:
    """Tensor a bipartite matrix with the identity placed at 1-based ``slot``."""
    pair, eye = [d, d], [1, 1, 1]
    pair.insert(slot - 1, 1)
    eye[slot - 1] = d
    product = b.reshape(pair + pair) * np.eye(d, dtype=b.dtype).reshape(eye + eye)
    return product.reshape(d**3, d**3)


def _project_marginal(
    m: np.ndarray, d: int, j: int, target: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal projection onto operators whose j-th partial trace is ``target``, and its deficit.

    It adds the deficit (target - partial_trace(m)) / d tensored with the identity at slot j.
    """
    deficit = (target - _ptrace(m, (d, d, d), j)) / d
    return m + _embed_identity_at(deficit, d, j), deficit


def _residual(
    m: np.ndarray,
    d: int,
    targets: tuple[tuple[int, np.ndarray], ...],
    sectors: tuple[np.ndarray, ...] | None,
) -> float:
    """Total infeasibility: worst marginal deviation + PSD deficit + trace deficit.

    The PSD deficit is an upper bound, exact when ``m`` is block-diagonal over ``sectors``.
    """
    marginal = max(_marginal_errors(m, d, targets))
    trace_error, negativity = _density_defects(m, sectors)
    return marginal + negativity + trace_error


def _certificate(
    raw_duals: list[np.ndarray],
    d: int,
    targets: tuple[tuple[int, np.ndarray], ...],
    sectors: tuple[np.ndarray, ...] | None,
) -> InfeasibilityCertificate | None:
    """Check the marginal duals ``Y_j`` as a Farkas witness; keep it only if it holds.

    Only the density set keeps a full correction, as marginal set j's (``Y_j`` tensored with
    the identity at slot j) never moves its projection.  The check uses a lower bound on
    ``lambda_min`` over ``sectors``, so it holds even where the bound is not exact.
    """
    duals = [_hermitian_part(y) for y in raw_duals]
    scale = sum(float(np.linalg.norm(y)) for y in duals)
    if scale == 0.0:
        return None
    combined = sum(_embed_identity_at(y, d, j) for y, (j, _) in zip(duals, targets))
    paired = sum(float(np.vdot(y, target).real) for y, (_, target) in zip(duals, targets))
    value = (paired - _lowest_eigenvalue(combined, sectors)) / scale
    if not value < -PSD_TOL:
        return None
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
    complex128.  ``candidate`` is complex either way.  When every target
    conserves weight, the density projection and the eigenvalue checks run
    block by block over the weight sectors, which is exact by the phase
    argument there; otherwise they run on the whole matrix.  The local dimension
    must lie in 2..6 and ``tol`` must be finite and positive.
    """
    d = pattern.local_dim
    _check_local_dim(d)
    if max_iters < 1:
        raise ValueError(f"max_iters must be positive, got {max_iters}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")

    targets = tuple((j, target.op.entries) for j, target in pattern.constraints)
    if not any(target.imag.any() for _, target in targets):
        targets = tuple((j, target.real.copy()) for j, target in targets)
    sectors = _weight_sectors(d, targets)
    first_slot, first_target = targets[0]
    x = _embed_identity_at(first_target / d, d, first_slot)
    correction = np.zeros((d**3, d**3), dtype=first_target.dtype)
    duals = [np.zeros_like(first_target) for _ in targets]

    best, best_cheap = x, math.inf
    trace_log: list[float] = []
    converged = False
    certificate = None

    for iterations in range(1, max_iters + 1):
        for y, (j, target) in zip(duals, targets):
            x, deficit = _project_marginal(x, d, j, target)
            y -= deficit
        shifted = x + correction
        x = _project_density(shifted, sectors)
        correction = shifted - x

        current = max(_marginal_errors(x, d, targets)) + abs(complex(np.trace(x)) - 1.0)
        trace_log.append(current)
        if current < best_cheap:
            best, best_cheap = x, current
        if current <= tol:
            full = _residual(x, d, targets, sectors)
            if full <= tol:
                best, converged = x, True
                break
        if iterations & (iterations - 1) == 0:
            certificate = _certificate(duals, d, targets, sectors)
            if certificate is not None:
                break

    return FeasibilityResult(
        candidate=TensorOperator(best, (d, d, d)),
        residual=full if converged else _residual(best, d, targets, sectors),
        iterations=iterations,
        converged=converged,
        residual_trace=tuple(trace_log),
        certificate=certificate,
    )

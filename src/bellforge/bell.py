"""Correlation functionals and see-saw maximization over bounded observables.

Two functionals are maximized over Hermitian observables of operator
norm at most one:

* the perfect-correlation Bell gap
  ``|E(a, b1) - E(a, b2)| - (1 - E(b1, b2))``, where the observable
  ``b1`` is shared between the two sides, and
* the CHSH combination ``|E11 + E12 + E21 - E22|``.

Both are optimized by cyclic exact updates: fixing all observables but
one leaves a linear functional ``tr(F @ w)``, whose maximizer over the
unit ball is the spectral sign of the effective operator ``F``.  Every
update therefore never decreases the objective, and the sweep values
converge monotonically.  The gap ascends ``E(a, b1) - E(a, b2)`` alone, as
``a -> -a`` flips its sign.  Random restarts guard against poor local
optima; each restart reads its starts from its own fixed slice of one
counter-based stream, an integer hash of the seed (SplitMix64) in numpy
``uint64`` arithmetic, so a block of restarts draws them at once.
Restarts advance together as stacks of matrices, in blocks of up to 256, one
stacked spectral sign per update (closed-form on qubits, one stacked
eigendecomposition above); each stops at its own convergence test, so results
equal running them one at a time.  Every contraction with the state is a
batched matrix product: the state is reshaped once into two ``d² x d²``
matrices, and each observable of a stack is a ``1 x d²`` row multiplied by one
of them on its own, so a row's bits do not depend on the height of the stack.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import TensorOperator, _hermitian_part, _signs, _spectral_map, operator_norm
from .states import DensityOperator, _bipartite_dim, _check_local_dim

__all__ = [
    "Observable",
    "SeeSawConfig",
    "OptimizationResult",
    "correlation",
    "original_bell_gap",
    "chsh_value",
    "seesaw_original_bell",
    "seesaw_chsh",
    "horodecki_chsh_oracle",
]

# Operator norm may exceed 1 by at most this much, to absorb rounding.
NORM_SLACK = 1e-10

# A restart stops after this many sweeps, or once a sweep gains less than
# the epsilon.
_MAX_SWEEPS = 200
_CONVERGENCE_EPS = 1e-12

# Restarts advance together in blocks of at most this many, which bounds the
# see-saw's memory whatever the restart count.  At least 50, so that the
# default of 50 restarts runs as one block.
_RESTART_BLOCK = 256

# The key of the one counter-based stream that every see-saw start is read from.
_START_KEY = 0xBE11_F0E6E

_PAULIS = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
)


@dataclass(frozen=True, eq=False)
class Observable:
    """Hermitian operator with operator norm at most one on a single factor."""

    op: TensorOperator
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.op.factor_dims) != 1:
            raise ValueError(f"an observable acts on one factor, got {self.op.factor_dims}")
        norm = operator_norm(self.op)  # rejects non-Hermitian input
        if norm > 1.0 + NORM_SLACK:
            raise ValueError(f"observable norm {norm:.12f} exceeds 1")


@dataclass(frozen=True)
class SeeSawConfig:
    """Random restarts of a see-saw optimizer.

    ``restarts`` independent starts are run; restart ``r`` reads its start
    observables from the fixed slice of one counter-based stream that seed
    ``base_seed + r`` owns, and ``base_seed + restarts`` is at most ``2**64``,
    so every seed is a distinct 64-bit word.
    """

    restarts: int = 20
    base_seed: int = 0

    def __post_init__(self) -> None:
        if operator.index(self.restarts) < 1:
            raise ValueError(f"restarts must be positive, got {self.restarts}")
        if operator.index(self.base_seed) < 0:
            raise ValueError(f"base_seed must be nonnegative, got {self.base_seed}")
        end = operator.index(self.base_seed) + operator.index(self.restarts)
        if end > 2**64:
            raise ValueError(f"base_seed + restarts must be at most 2**64, got {end}")


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Best functional value found, with the observables that achieve it.

    ``value_trace`` lists the winning restart's per-sweep objective
    values (monotone non-decreasing); ``sweeps_used`` is its length and
    ``restart_index`` identifies the winning restart.
    """

    best_value: float
    observables: tuple[Observable, ...]
    sweeps_used: int
    restart_index: int
    value_trace: tuple[float, ...]


def _layouts(rho_mat: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """The state ``rho[(i, j), (k, l)]`` as the ``d² x d²`` matrices ``[(j, l), (i, k)]``
    and ``[(i, k), (j, l)]``, the layouts that Alice's and Bob's contractions multiply by."""
    r4 = rho_mat.reshape(d, d, d, d)
    return (
        r4.transpose(1, 3, 0, 2).reshape(d * d, d * d),
        r4.transpose(0, 2, 1, 3).reshape(d * d, d * d),
    )


def _rows(m: np.ndarray) -> np.ndarray:
    """The transposes of a matrix or an ``(n, d, d)`` stack, each flattened to a ``1 x d²`` row."""
    return m.swapaxes(-1, -2).reshape(*m.shape[:-2], 1, -1)


def _pair(n: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real part of ``tr(b n)`` for matching matrices or stacks, as ``(n, 1, d²) @ (n, d², 1)``;
    ``tr(rho (a x b))`` for ``n = _bob_effective(r, a)``.  States and observables are validated
    Hermitian where they enter, so the imaginary part is rounding and is dropped unbounded."""
    return (n.reshape(*n.shape[:-2], 1, -1) @ _rows(b).swapaxes(-1, -2))[..., 0, 0].real


def _alice_effective(r: tuple[np.ndarray, np.ndarray], b: np.ndarray) -> np.ndarray:
    """Matrices M with tr(rho (A x B)) = tr(A M) for every first-factor observable A."""
    return (_rows(b) @ r[0]).reshape(b.shape)


def _bob_effective(r: tuple[np.ndarray, np.ndarray], a: np.ndarray) -> np.ndarray:
    """Matrices N with tr(rho (A x B)) = tr(B N) for every second-factor observable B."""
    return (_rows(a) @ r[1]).reshape(a.shape)


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer, a bijection on 64-bit words, on a ``uint64`` array: arrays wrap
    on overflow silently, where numpy scalars would warn."""
    z = z ^ (z >> 30)
    z *= 0xBF58_476D_1CE4_E5B9
    z ^= z >> 27
    z *= 0x94D0_49BB_1331_11EB
    z ^= z >> 31
    return z


def _draw_observables(d: int, seeds: range, count: int) -> np.ndarray:
    """``count >= 2`` starts per seed of consecutive ``seeds``, as a ``(len(seeds), count, d, d)``
    array.  A sweep reads only the last two and overwrites the others before it reads them, so
    those are zero.  Seed ``s`` owns the ``4d²`` words ``mix(mix(s ^ _START_KEY) + (k+1)·γ)``,
    ``0 <= k < 4d²``, of SplitMix64 (``mix`` its finalizer, ``γ`` its Weyl increment, sums modulo
    ``2**64``): exact integers, so one call draws a block, a row depends on its seed alone, and
    distinct seeds start distinct sequences, as ``mix`` is a bijection.  Box–Muller takes radii
    from the first ``2d²`` words and angles from the last; the cosines, then the sines, are the
    real and imaginary Gaussian parts of the two starts.  Each start is the Hermitian part of
    its complex Gaussian scaled to unit Frobenius norm, so its operator norm is at most one."""
    n, size = len(seeds), d * d
    seed_words = np.uint64(seeds[0]) + np.arange(n, dtype=np.uint64)
    # (k + 1)·γ, 0 <= k < 4d², modulo 2**64: uint64 arrays wrap silently
    weyl = np.arange(1, 4 * size + 1, dtype=np.uint64) * 0x9E37_79B9_7F4A_7C15
    words = _mix(_mix(seed_words ^ _START_KEY)[:, None] + weyl)
    # in (0, 1], never 0, so every radius is finite
    u = ((words.reshape(n, 2, 2 * size) >> 11) + 0.5) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[:, 0]))
    angle = (2.0 * math.pi) * u[:, 1]
    g = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=1).reshape(n, 2, 2, d, d)
    h = _hermitian_part(g[:, :, 0] + 1.0j * g[:, :, 1])
    z = np.zeros((n, count, d, d), dtype=np.complex128)
    z[:, -2:] = h / np.linalg.norm(h, axis=(-2, -1), keepdims=True)
    return z


def correlation(rho: DensityOperator, a: Observable, b: Observable) -> float:
    """Expectation tr(rho (a x b)) with ``a`` on the first factor, ``b`` on the second."""
    d = _bipartite_dim(rho.factor_dims)
    for obs, name in ((a, "a"), (b, "b")):
        if obs.op.factor_dims != (d,):
            raise ValueError(
                f"observable {obs.label or name} has dimension {obs.op.factor_dims[0]}, "
                f"state needs {d}"
            )
    return float(_pair(_bob_effective(_layouts(rho.entries, d), a.op.entries), b.op.entries))


def original_bell_gap(
    rho: DensityOperator, ja: Observable, jb1: Observable, jb2: Observable
) -> float:
    """Violation margin of the perfect-correlation Bell inequality.

    Positive values mean ``|E(a, b1) - E(a, b2)| > 1 - E(b1, b2)``; the
    observable ``jb1`` appears both as a second-side setting and as the
    shared first-side setting of the third correlation.
    """
    e1, e2, e3 = correlation(rho, ja, jb1), correlation(rho, ja, jb2), correlation(rho, jb1, jb2)
    return abs(e1 - e2) - (1.0 - e3)


def chsh_value(
    rho: DensityOperator, a1: Observable, a2: Observable, b1: Observable, b2: Observable
) -> float:
    """CHSH combination |E11 + E12 + E21 - E22|; values above 2 witness nonclassicality."""
    e11, e12, e21, e22 = (correlation(rho, a, b) for a in (a1, a2) for b in (b1, b2))
    return abs(e11 + e12 + e21 - e22)


def _original_sweep(r: tuple, mats: list) -> tuple:
    """One cyclic update of the gap's ``+1`` branch, ``E(a, b1) - E(a, b2)``, from ``jb1`` and
    ``jb2`` (``ja`` is not read): observables, linearized values, gaps."""
    ja, jb1, jb2 = mats
    m2 = _alice_effective(r, jb2)
    ja = _spectral_map(_alice_effective(r, jb1) - m2, _signs)
    na = _bob_effective(r, ja)
    jb1 = _spectral_map(na + m2, _signs)
    n1 = _bob_effective(r, jb1)
    jb2 = _spectral_map(n1 - na, _signs)
    e1, e2, e3 = _pair(na, jb1), _pair(na, jb2), _pair(n1, jb2)
    return (ja, jb1, jb2), e1 - e2 + e3 - 1.0, abs(e1 - e2) - (1.0 - e3)


def _chsh_sweep(r: tuple, mats: list) -> tuple:
    """One cyclic CHSH update from ``b1`` and ``b2`` (``a1`` and ``a2`` are not read):
    observables, signed values and absolute values."""
    a1, a2, b1, b2 = mats
    m1, m2 = _alice_effective(r, b1), _alice_effective(r, b2)
    a1 = _spectral_map(m1 + m2, _signs)
    a2 = _spectral_map(m1 - m2, _signs)
    n1, n2 = _bob_effective(r, a1), _bob_effective(r, a2)
    b1 = _spectral_map(n1 + n2, _signs)
    b2 = _spectral_map(n1 - n2, _signs)
    value = _pair(n1, b1) + _pair(n1, b2) + _pair(n2, b1) - _pair(n2, b2)
    return (a1, a2, b1, b2), value, abs(value)


def _seesaw_block(
    r: tuple, starts: np.ndarray, sweep: Callable
) -> tuple[float, int, list[np.ndarray], list[float]]:
    """The restarts from ``starts``, advanced together as stacks.

    Row ``i`` runs from the start observables ``starts[i]``, on the state's
    layouts ``r``.  ``sweep(r, mats)`` updates the given rows, forming each
    effective operator once, and returns their observables, values and scores,
    all read off those operators.  A row freezes after ``_MAX_SWEEPS`` sweeps
    or a gain below ``_CONVERGENCE_EPS``, so it ends as it would alone; its
    score is its last sweep's, with no re-evaluation pass.  Returns the largest
    score (ties go to the lowest row), its row, its observables and its value
    trace.
    """
    mats = list(starts.swapaxes(0, 1))  # views: updates write into this block's own draw

    last = np.full(len(starts), -math.inf)
    scores = np.empty(len(starts))
    history = []  # (active rows, their values) of every sweep
    rows = np.arange(len(starts))
    for _ in range(_MAX_SWEEPS):
        updated, values, scores[rows] = sweep(r, [m[rows] for m in mats])
        for m, new in zip(mats, updated):
            m[rows] = new
        history.append((rows, values))
        gain = values - last[rows]
        last[rows] = values
        rows = rows[~(gain < _CONVERGENCE_EPS)]
        if not rows.size:
            break

    best = int(np.argmax(scores))
    trace = np.concatenate([values[rows == best] for rows, values in history]).tolist()
    return float(scores[best]), best, [m[best] for m in mats], trace


def _seesaw(
    rho: DensityOperator, cfg: SeeSawConfig, labels: tuple[str, ...], sweep: Callable
) -> OptimizationResult:
    """Every restart of a see-saw, run in consecutive blocks of ``_RESTART_BLOCK``.

    A later block wins only with a strictly larger score, so ties go to the
    lowest restart, as in one stack.
    """
    d = _bipartite_dim(rho.factor_dims)
    _check_local_dim(d)
    r = _layouts(rho.entries, d)
    end = cfg.base_seed + cfg.restarts
    best = None
    for first in range(cfg.base_seed, end, _RESTART_BLOCK):
        seeds = range(first, min(first + _RESTART_BLOCK, end))
        starts = _draw_observables(d, seeds, len(labels))
        score, row, mats, trace = _seesaw_block(r, starts, sweep)
        if best is None or score > best[0]:
            best = (score, first - cfg.base_seed + row, mats, trace)
    score, restart, mats, trace = best
    return OptimizationResult(
        best_value=score,
        observables=tuple(
            Observable(TensorOperator(m, (d,)), label) for m, label in zip(mats, labels)
        ),
        sweeps_used=len(trace),
        restart_index=restart,
        value_trace=tuple(trace),
    )


def seesaw_original_bell(
    rho: DensityOperator, cfg: SeeSawConfig = SeeSawConfig()
) -> OptimizationResult:
    """Maximize the perfect-correlation Bell gap by cyclic exact updates.

    The observables are closed under ``a -> -a``, which flips the sign of
    ``E(a, b1) - E(a, b2)`` and leaves ``E(b1, b2)`` alone, so the maximum of
    ``|E(a, b1) - E(a, b2)|`` equals that of ``E(a, b1) - E(a, b2)``; each
    restart ascends that linear form, and its score keeps the absolute value.
    Restart ``r`` reads its starts from the slice of one counter-based stream
    that seed ``base_seed + r`` owns, whatever block it runs in, and ties across
    restarts resolve to the lowest restart index, so results are reproducible.
    """
    return _seesaw(rho, cfg, ("a", "b1", "b2"), _original_sweep)


def seesaw_chsh(rho: DensityOperator, cfg: SeeSawConfig = SeeSawConfig()) -> OptimizationResult:
    """Maximize the CHSH combination by cyclic exact updates.

    After the first full sweep the linear combination is nonnegative, so
    its sweep values coincide with the absolute CHSH value and increase
    monotonically.  Restart seeding and tie-breaking match
    :func:`seesaw_original_bell`.
    """
    return _seesaw(rho, cfg, ("a1", "a2", "b1", "b2"), _chsh_sweep)


def horodecki_chsh_oracle(rho: DensityOperator) -> float:
    """Closed-form CHSH maximum of a two-qubit state over traceless spin observables.

    Builds the 3x3 correlation matrix T with entries tr(rho (sigma_i x
    sigma_j)) over the Pauli basis and returns 2 sqrt(u1 + u2), where u1
    and u2 are the two largest eigenvalues of T^T T.  Identity observables
    alone reach 2, so over all norm-one observables the maximum is
    ``max(2, value)`` when both local Bloch vectors vanish (Werner states,
    the singlet, Bell-diagonal states), and may exceed it otherwise.
    """
    d = _bipartite_dim(rho.factor_dims)
    if d != 2:
        raise ValueError(f"closed-form CHSH maximum needs qubit factors, got dimension {d}")
    r = _layouts(rho.entries, 2)
    t = np.empty((3, 3), dtype=np.float64)
    for i, si in enumerate(_PAULIS):
        for j, sj in enumerate(_PAULIS):
            t[i, j] = _pair(_bob_effective(r, si), sj)
    grams = np.linalg.eigvalsh(t.T @ t)
    return float(2.0 * math.sqrt(grams[-1] + grams[-2]))

"""Werner states, permutation operators, and their tripartite source operators.

The bipartite objects live on C^d (x) C^d: the flip (swap) operator, the
antisymmetric projector, and the Werner state built from it.  The
tripartite objects live on C^d (x) C^d (x) C^d: signed permutation
operators, the three-factor antisymmetrizer, and the two source-operator
families whose partial traces reproduce Werner states.  Density operators
are validated by ``density_deficits``, exactly: on the weight-sector blocks of a
three-factor operator that conserves weight, and in real arithmetic if real.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    PSD_TOL,
    TensorOperator,
    _asymmetry,
    _blocks,
    _permutation,
    _spectrum,
    identity,
)

__all__ = [
    "DensityOperator",
    "Permutation3",
    "ALL_PERMUTATIONS_3",
    "density_deficits",
    "flip",
    "antisym_projector",
    "permutation_operator",
    "antisymmetrizer3",
    "werner",
    "singlet",
    "dso_two_qubit",
    "dso_general",
]

# Local dimensions the solvers and the command line support.
MIN_LOCAL_DIM = 2
MAX_LOCAL_DIM = 6

# Acceptable |trace - 1| when validating a density operator; the most
# negative eigenvalue is held to ``linalg.PSD_TOL``.
DENSITY_TRACE_TOL = 1e-10


def _check_local_dim(d: int) -> None:
    """Reject a local dimension that the solvers do not support."""
    if not MIN_LOCAL_DIM <= d <= MAX_LOCAL_DIM:
        raise ValueError(f"local dimension {d} outside {MIN_LOCAL_DIM}..{MAX_LOCAL_DIM}")


def _bipartite_dim(dims: tuple[int, ...]) -> int:
    """Local dimension of a bipartite space whose two factors are equal."""
    if len(dims) != 2 or dims[0] != dims[1]:
        raise ValueError(f"space {dims} is not bipartite with equal local dimensions")
    return dims[0]


def _space(d: int, n: int) -> tuple[int, ...]:
    """Factor dimensions of ``n`` copies of C^d; ``d`` must be at least 2."""
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got {d}")
    return (d,) * n


def density_deficits(t: TensorOperator) -> tuple[float, float, float]:
    """Measure how far ``t`` is from being a density operator.

    Returns ``(asymmetry, trace_error, negativity)``: the relative
    Frobenius asymmetry, ``|tr t - 1|``, and the magnitude of the most
    negative eigenvalue of the symmetrized matrix (0 when PSD).
    """
    blocks = _blocks(t.entries, t.factor_dims)
    lowest = float(_spectrum(blocks)[0])
    return _asymmetry(blocks), abs(complex(np.trace(t.entries)) - 1.0), max(0.0, -lowest)


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A trace-one positive-semidefinite Hermitian operator."""

    op: TensorOperator

    def __post_init__(self) -> None:
        asymmetry, trace_error, negativity = density_deficits(self.op)
        if asymmetry > HERMITICITY_TOL:
            raise ValueError(f"density operator is not Hermitian (asymmetry {asymmetry:.3e})")
        if trace_error > DENSITY_TRACE_TOL:
            raise ValueError(f"density operator trace deviates from 1 by {trace_error:.3e}")
        if negativity > PSD_TOL:
            raise ValueError(f"density operator has negative eigenvalue -{negativity:.3e}")

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return self.op.factor_dims


@dataclass(frozen=True)
class Permutation3:
    """Permutation of three tensor slots, stored as the image tuple.

    ``images[i - 1]`` is where slot ``i`` is sent, so ``(2, 3, 1)`` sends
    slot 1 to slot 2, slot 2 to slot 3, and slot 3 to slot 1.
    """

    images: tuple[int, int, int]
    parity: int = field(init=False)

    def __post_init__(self) -> None:
        images = tuple(operator.index(i) for i in self.images)
        if sorted(images) != [1, 2, 3]:
            raise ValueError(f"images {images} are not a permutation of (1, 2, 3)")
        inversions = sum(
            1 for a in range(3) for b in range(a + 1, 3) if images[a] > images[b]
        )
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "parity", -1 if inversions % 2 else 1)


ALL_PERMUTATIONS_3: tuple[Permutation3, ...] = tuple(
    Permutation3(images) for images in itertools.permutations((1, 2, 3))
)


def flip(d: int) -> TensorOperator:
    """Flip (swap) operator on C^d (x) C^d, exchanging the two factors.

    In the product basis it is the sum of |e_n e_m><e_m e_n| over all n, m;
    it squares to the identity and has trace d.
    """
    dims = _space(d, 2)
    return TensorOperator(_permutation(dims, (2, 1)), dims)


def antisym_projector(d: int) -> TensorOperator:
    """Projector onto the antisymmetric subspace of C^d (x) C^d: (I - flip)/2."""
    return 0.5 * (identity((d, d)) - flip(d))


def werner(d: int) -> DensityOperator:
    """Werner state on C^d (x) C^d.

    Built as (1/d^3) I + (2/d^2) P_minus with P_minus the antisymmetric
    projector; equivalently ((d+1)/d^3) I - (1/d^2) flip.
    """
    dims = _space(d, 2)
    op = (1.0 / d**3) * identity(dims) + (2.0 / d**2) * antisym_projector(d)
    return DensityOperator(op)


def singlet() -> DensityOperator:
    """Two-qubit singlet state: the rank-one projector onto (|01> - |10>)/sqrt(2)."""
    return DensityOperator(antisym_projector(2))


def permutation_operator(p: Permutation3, d: int) -> TensorOperator:
    """Unitary that permutes the three factors of C^d (x) C^d (x) C^d by ``p``.

    The content of slot ``i`` is moved to slot ``p(i)``, so the operators
    compose covariantly: U_p @ U_q is the operator of ``p`` after ``q``.
    """
    dims = _space(d, 3)
    return TensorOperator(_permutation(dims, p.images), dims)


def antisymmetrizer3(d: int) -> TensorOperator:
    """Projector onto the totally antisymmetric subspace of three C^d factors.

    Average of the six signed permutation operators; its trace is
    d(d-1)(d-2)/6, and for d = 2 it is the zero operator.
    """
    dims = _space(d, 3)
    total = sum(p.parity * _permutation(dims, p.images) for p in ALL_PERMUTATIONS_3)
    return TensorOperator((1.0 / 6.0) * total, dims)


def dso_two_qubit() -> DensityOperator:
    """Tripartite source operator for the d = 2 Werner state.

    Equals (1/4) I - (1/8) V12 - (1/8) V13 on three qubit factors, where
    V12 swaps the first two factors and V13 swaps the outer ones.
    Tracing out factor 2 or factor 3 yields the d = 2 Werner state;
    tracing out factor 1 yields the maximally mixed two-qubit state.
    """
    dims = (2, 2, 2)
    v12 = _permutation(dims, (2, 1, 3))
    v13 = _permutation(dims, (3, 2, 1))
    return DensityOperator(TensorOperator(0.25 * np.eye(8) - 0.125 * v12 - 0.125 * v13, dims))


def dso_general(d: int) -> DensityOperator:
    """Symmetric tripartite source operator for the Werner state, d >= 3.

    Equals (1/d^4) I + (6 / (d^2 (d - 2))) Q with Q the three-factor
    antisymmetrizer.  All three bipartite partial traces equal the
    Werner state.  Undefined at d = 2, where Q vanishes and the formula
    divides by zero.
    """
    if d <= 2:
        raise ValueError(f"symmetric source operator needs local dimension >= 3, got {d}")
    return _dso_from(antisymmetrizer3(d))


def _dso_from(q: TensorOperator) -> DensityOperator:
    """``dso_general(d)`` built from ``q = antisymmetrizer3(d)``, for a caller that holds it."""
    d = q.factor_dims[0]
    return DensityOperator((1.0 / d**4) * identity(q.factor_dims) + (6.0 / (d * d * (d - 2))) * q)

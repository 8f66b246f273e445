"""Werner states and their tripartite source operators.

Each named operator is one ordered sum of factor-permutation operators U_pi, built by
``_permutation_sum`` from an integer table of ``(images, s)`` terms and a scale: U_pi moves slot
``i`` to slot ``images[i - 1]``.  With integer scales the same tables give the exact operators
that ``verify`` proves the source theorem on.  A ``DensityOperator`` is a ``TensorOperator`` that
checks its ``density_deficits`` when it is built: exactly, on the weight-sector blocks of a
three-factor operator that conserves weight, and in real arithmetic if real."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    PSD_TOL,
    TensorOperator,
    _asymmetry,
    _blocks,
    _permutation,
    _spectrum,
)

__all__ = [
    "DensityOperator",
    "density_deficits",
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


def density_deficits(t: TensorOperator) -> tuple[float, float, float]:
    """Measure how far ``t`` is from being a density operator.

    Returns ``(asymmetry, trace_error, negativity)``: the relative
    Frobenius asymmetry, ``|tr t - 1|``, and the magnitude of the most
    negative eigenvalue of the symmetrized matrix (0 when PSD).
    """
    blocks = _blocks(t.entries, t.factor_dims)
    lowest = float(_spectrum(blocks)[0])
    return _asymmetry(blocks), abs(complex(np.trace(t.entries)) - 1.0), max(0.0, -lowest)


@dataclass(frozen=True, eq=False, repr=False)  # frozen against new attributes too
class DensityOperator(TensorOperator):
    """A trace-one positive-semidefinite Hermitian operator, checked when it is built."""

    def __post_init__(self) -> None:
        super().__post_init__()
        asymmetry, trace_error, negativity = density_deficits(self)
        if asymmetry > HERMITICITY_TOL:
            raise ValueError(f"density operator is not Hermitian (asymmetry {asymmetry:.3e})")
        if trace_error > DENSITY_TRACE_TOL:
            raise ValueError(f"density operator trace deviates from 1 by {trace_error:.3e}")
        if negativity > PSD_TOL:
            raise ValueError(f"density operator has negative eigenvalue -{negativity:.3e}")


# The integer term tables ``(images, s)`` the named operators are summed from: P_minus =
# (I - flip)/2 is _P_MINUS / 2, the antisymmetrizer Q is _Q / 6, each sign the parity of the
# images' inversion count, and dso_two_qubit() is _DSO_TWO_QUBIT / 8 = (2I - V12 - V13)/8.
_P_MINUS = (((1, 2), 1), ((2, 1), -1))
_Q = tuple(
    (images, (-1) ** sum(a > b for a, b in itertools.combinations(images, 2)))
    for images in itertools.permutations((1, 2, 3))
)
_DSO_TWO_QUBIT = (((1, 2, 3), 2), ((2, 1, 3), -1), ((3, 2, 1), -1))


def _scaled(table: tuple, coef: Callable[[int], float], eye: float) -> tuple:
    """The terms of ``table`` with each sign ``s`` replaced by ``coef(s)``, then the identity with
    coefficient ``eye``: last, so that where the signed terms cancel they reach 0 first."""
    identity = tuple(range(1, len(table[0][0]) + 1))
    return (*((images, coef(s)) for images, s in table), (identity, eye))


def _permutation_sum(d: int, terms: tuple) -> np.ndarray:
    """``sum c U_images`` over the ``(images, c)`` pairs on copies of C^d, d >= 2, as a raw array
    in the coefficients' dtype: int64 for integers, exactly.  Each ``c`` is added at its
    unitary's ones in the order given, which fixes every rounding."""
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got {d}")
    dims = (d,) * len(terms[0][0])
    m = np.zeros((d ** len(dims),) * 2, np.result_type(*(c for _, c in terms)))
    rows = np.arange(len(m))
    for images, c in terms:
        m[rows, _permutation(dims, images)] += c
    return m


def werner(d: int) -> DensityOperator:
    """Werner state on C^d (x) C^d.

    Built as (2/d^2) P_minus + (1/d^3) I with P_minus the antisymmetric
    projector; equivalently ((d+1)/d^3) I - (1/d^2) flip.  The terms of
    P_minus come first, so that on a symmetric state such as |aa> they
    cancel exactly to 0 before 1/d^3 is added.
    """
    if d < 2:  # before the coefficients, which divide by d
        raise ValueError(f"local dimension must be at least 2, got {d}")
    terms = _scaled(_P_MINUS, lambda s: 1.0 / d**2 * s, 1.0 / d**3)
    return DensityOperator(_permutation_sum(d, terms), (d, d))


def singlet() -> DensityOperator:
    """Two-qubit singlet state: the rank-one projector onto (|01> - |10>)/sqrt(2)."""
    return DensityOperator(_permutation_sum(2, tuple((pi, 0.5 * s) for pi, s in _P_MINUS)), (2, 2))


def dso_two_qubit() -> DensityOperator:
    """Tripartite source operator for the d = 2 Werner state.

    Equals (1/4) I - (1/8) V12 - (1/8) V13 on three qubit factors, where
    V12 swaps the first two factors and V13 swaps the outer ones.
    Tracing out factor 2 or factor 3 yields the d = 2 Werner state;
    tracing out factor 1 yields the maximally mixed two-qubit state.
    """
    terms = tuple((pi, 0.125 * s) for pi, s in _DSO_TWO_QUBIT)
    return DensityOperator(_permutation_sum(2, terms), (2, 2, 2))


def dso_general(d: int) -> DensityOperator:
    """Symmetric tripartite source operator for the Werner state, d >= 3.

    Equals (6 / (d^2 (d - 2))) Q + (1/d^4) I with Q the three-factor
    antisymmetrizer.  All three bipartite partial traces equal the
    Werner state.  The terms of Q come first, so that where they cancel
    (on |aaa> and |aab>) they sum to exactly 0 before 1/d^4 is added.
    Undefined at d = 2, where Q vanishes and the formula divides by zero.
    """
    if d <= 2:
        raise ValueError(f"symmetric source operator needs local dimension >= 3, got {d}")
    terms = _scaled(_Q, lambda s: 6.0 / (d * d * (d - 2)) * (s / 6.0), 1.0 / d**4)
    return DensityOperator(_permutation_sum(d, terms), (d, d, d))

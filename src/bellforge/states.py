"""Werner states, their tripartite source operators, and the exact proof of the source theorem.

Each named operator is one integer sum of factor-permutation operators U_pi, built in int64 by
``_permutation_sum`` from an integer table of ``(images, s)`` terms: U_pi moves slot ``i`` to slot
``images[i - 1]``.  ``_source_proof`` proves the theorem exactly on ``_werner_sum``, dense, and
``_source_sum``, the source's block entries in ``linalg._layout``; each float state is its integer
sum divided once by its scale, so every entry is the exact one correctly rounded.  A
``DensityOperator`` is a ``TensorOperator`` that checks its ``density_deficits`` when it is built:
exactly, on the weight-sector blocks of a three-factor operator that conserves weight, and in
real arithmetic if real."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITICITY_TOL,
    PSD_TOL,
    TensorOperator,
    _asymmetry,
    _block_ptrace,
    _blocks,
    _chunks,
    _dense,
    _layout,
    _permutation,
    _psd_defect,
    _rational,
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


def _scaled(table: tuple, coef: int, eye: int) -> tuple:
    """The terms of ``table``, each sign ``s`` times ``coef``, and the identity times ``eye``."""
    identity = tuple(range(1, len(table[0][0]) + 1))
    return (*((images, coef * s) for images, s in table), (identity, eye))


def _permutation_sum(d: int, terms: tuple, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The entries at the index arrays ``rows`` and ``cols`` of ``sum c U_images`` over the
    ``(images, c)`` pairs on copies of C^d, d >= 2; in int64, exactly, for integer ``c``."""
    if d < 2:
        raise ValueError(f"local dimension must be at least 2, got {d}")
    dims = (d,) * len(terms[0][0])
    return sum(c * (_permutation(dims, images)[rows] == cols) for images, c in terms)


def _werner_sum(d: int) -> np.ndarray:
    """``W = d^3 werner(d) = (d+1) I - d V`` in int64, V the flip."""
    side = np.arange(d * d)
    return _permutation_sum(d, _scaled(_P_MINUS, d, 1), side[:, None], side)


def _source_sum(d: int) -> tuple[np.ndarray, int]:
    """The block entries in ``_layout(d, True)`` of the scaled source ``S = k T`` in int64, and its
    scale ``k``: ``(2I - V12 - V13, 8)`` at d = 2, where T = dso_two_qubit(); else ``(d^2 sum
    sgn(pi) U_pi + (d-2) I, d^4 (d-2))``, where T = dso_general(d).  The blocks are the whole of
    S: every U_pi keeps the digit multiset of each basis state, so S has no other entry."""
    layout = _layout(d, True)
    terms, k = (_DSO_TWO_QUBIT, 8) if d == 2 else (_scaled(_Q, d * d, d - 2), d**4 * (d - 2))
    return _permutation_sum(d, terms, layout.rows, layout.cols), k


def _source_proof(d: int) -> dict[str, tuple]:
    """``{key: (exact value, holds)}`` for the theorem, any d >= 2, that each constrained marginal
    of ``T = S / k``, ``S, k = _source_sum(d)``, is ``werner(d) = W / d^3`` (at d = 2, slot 1 is
    ``I / d^2``): ``tr S`` is k, the marginals hold exactly, S is PSD on its distinct weight-sector
    blocks, and the witness ``<Phi|werner(d)^Gamma|Phi> = tr(W V) / d^3``, ``Phi = sum_i |ii>``,
    is negative.  A defect is a largest |entry| / k."""
    layout, w, (v, k) = _layout(d, True), _werner_sum(d), _source_sum(d)
    trace_gap = abs(int(v[layout.diagonal].sum()) - k)
    checks = {"source_trace": (_rational(trace_gap, k), trace_gap == 0)}
    marginal = k // d**3 * w
    first = k // d**2 * np.eye(d * d, dtype=np.int64) if d == 2 else marginal
    for j, target in enumerate((first, marginal, marginal), 1):
        gap = np.abs(_block_ptrace(v, layout, j) - target).max()
        checks[f"source_marginal_{j}"] = (_rational(gap, k), gap == 0)
    # Each distinct block once, keyed by its bytes, which blocks of other sizes cannot share.
    distinct = {m.tobytes(): m for chunk in _chunks(v, layout) for m in chunk}
    psd = max(_psd_defect(m) for m in distinct.values())
    checks["source_psd"] = (psd / k, psd == 0)
    witness = _rational(np.einsum("abba->", w.reshape((d,) * 4)), d**3)
    checks["werner_witness"] = (witness, witness < 0)
    return checks


def werner(d: int) -> DensityOperator:
    """Werner state on C^d (x) C^d: ((d+1)/d^3) I - (1/d^2) flip = (2/d^2) P_minus + (1/d^3) I,
    with P_minus the antisymmetric projector."""
    return DensityOperator(_werner_sum(d) / d**3, (d, d))


def singlet() -> DensityOperator:
    """Two-qubit singlet state: the rank-one projector onto (|01> - |10>)/sqrt(2)."""
    side = np.arange(4)
    return DensityOperator(_permutation_sum(2, _P_MINUS, side[:, None], side) / 2, (2, 2))


def dso_two_qubit() -> DensityOperator:
    """Tripartite source operator for the d = 2 Werner state.

    Equals (1/4) I - (1/8) V12 - (1/8) V13 on three qubit factors, where
    V12 swaps the first two factors and V13 swaps the outer ones.
    Tracing out factor 2 or factor 3 yields the d = 2 Werner state;
    tracing out factor 1 yields the maximally mixed two-qubit state.
    """
    v, k = _source_sum(2)
    return DensityOperator(_dense(v / k, _layout(2, True)), (2, 2, 2))


def dso_general(d: int) -> DensityOperator:
    """Symmetric tripartite source operator for the Werner state, d >= 3.

    Equals (6 / (d^2 (d - 2))) Q + (1/d^4) I with Q the three-factor
    antisymmetrizer.  All three bipartite partial traces equal the
    Werner state.  Undefined at d = 2, where Q vanishes and the formula
    divides by zero.
    """
    if d <= 2:
        raise ValueError(f"symmetric source operator needs local dimension >= 3, got {d}")
    v, k = _source_sum(d)
    return DensityOperator(_dense(v / k, _layout(d, True)), (d, d, d))

"""Dense complex operators on tensor-product spaces.

Every operator is stored as a row-major complex matrix tagged with the
ordered dimensions of its tensor factors.  Values are immutable after
construction and all functions here are pure, so they are safe to share
across threads.  The public functions validate at this boundary and
delegate to a private kernel on raw arrays (Hermitian part, spectral map,
partial trace, factor reordering and permutation), which the solvers'
inner loops call directly.  The kernel keeps the dtype of its input, so
real symmetric arrays stay real.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "TensorOperator",
    "identity",
    "kron",
    "trace",
    "frobenius_distance",
    "partial_trace",
    "reorder_factors",
    "eigenvalues",
    "operator_norm",
    "operator_to_text",
    "operator_from_text",
    "save_operator",
    "load_operator",
]

# Relative Frobenius asymmetry allowed before a matrix is rejected as
# non-Hermitian by the spectral routines.
HERMITICITY_TOL = 1e-10

# Most-negative eigenvalue tolerated by the positive-semidefinite check.
PSD_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class TensorOperator:
    """Square complex matrix on an ordered product of finite-dimensional factors."""

    entries: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.factor_dims)
        if not dims or min(dims) < 1:
            raise ValueError(f"factor dimensions must be positive integers, got {dims}")
        side = math.prod(dims)
        mat = np.array(self.entries, dtype=np.complex128, order="C")
        if mat.shape != (side, side):
            raise ValueError(
                f"matrix shape {mat.shape} does not match factor dimensions {dims}; "
                f"expected ({side}, {side})"
            )
        if not np.isfinite(mat).all():
            raise ValueError("matrix entries must all be finite")
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "factor_dims", dims)

    @property
    def side(self) -> int:
        """Number of rows (= columns) of the matrix."""
        return self.entries.shape[0]

    @property
    def nfactors(self) -> int:
        """Number of tensor factors."""
        return len(self.factor_dims)

    def _require_same_space(self, other: TensorOperator) -> None:
        if self.factor_dims != other.factor_dims:
            raise ValueError(
                f"operators act on different spaces: {self.factor_dims} vs {other.factor_dims}"
            )

    def __add__(self, other: TensorOperator) -> TensorOperator:
        self._require_same_space(other)
        return TensorOperator(self.entries + other.entries, self.factor_dims)

    def __sub__(self, other: TensorOperator) -> TensorOperator:
        self._require_same_space(other)
        return TensorOperator(self.entries - other.entries, self.factor_dims)

    def __neg__(self) -> TensorOperator:
        return TensorOperator(-self.entries, self.factor_dims)

    def __mul__(self, scalar: numbers.Number) -> TensorOperator:
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return TensorOperator(self.entries * scalar, self.factor_dims)

    __rmul__ = __mul__

    def __matmul__(self, other: TensorOperator) -> TensorOperator:
        self._require_same_space(other)
        return TensorOperator(self.entries @ other.entries, self.factor_dims)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TensorOperator(side={self.side}, factor_dims={self.factor_dims})"


def identity(factor_dims: tuple[int, ...]) -> TensorOperator:
    """Identity operator on the product space with the given factor dimensions."""
    side = math.prod(factor_dims)
    return TensorOperator(np.eye(side, dtype=np.complex128), tuple(factor_dims))


def kron(a: TensorOperator, b: TensorOperator) -> TensorOperator:
    """Tensor product; the factor list of ``a`` is extended by that of ``b``."""
    return TensorOperator(np.kron(a.entries, b.entries), a.factor_dims + b.factor_dims)


def trace(t: TensorOperator) -> complex:
    """Matrix trace as a complex scalar."""
    return complex(np.trace(t.entries))


def frobenius_distance(a: TensorOperator, b: TensorOperator) -> float:
    """Frobenius norm of the difference of two operators on the same space."""
    a._require_same_space(b)
    return float(np.linalg.norm(a.entries - b.entries))


def _ptrace(m: np.ndarray, dims: tuple[int, ...], j: int) -> np.ndarray:
    """Trace the 1-based factor ``j`` out of a raw matrix on factors ``dims``."""
    n = len(dims)
    reduced = np.trace(m.reshape(dims + dims), axis1=j - 1, axis2=n + j - 1)
    side = m.shape[0] // dims[j - 1]
    return reduced.reshape(side, side)


def _reorder(m: np.ndarray, dims: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """Permute the factors of a raw matrix; ``order[k]`` is the old 1-based slot moved to k+1."""
    n = len(dims)
    src = [o - 1 for o in order]
    return m.reshape(dims + dims).transpose(src + [n + o for o in src]).reshape(m.shape)


def _permutation(dims: tuple[int, ...], order: tuple[int, ...]) -> np.ndarray:
    """Unitary ``U`` with ``_reorder(m, dims, order) == U m U^T``, as a real 0/1 matrix."""
    n = len(dims)
    side = math.prod(dims)
    eye = np.eye(side).reshape(dims + dims)
    return eye.transpose([o - 1 for o in order] + list(range(n, 2 * n))).reshape(side, side)


def partial_trace(t: TensorOperator, j: int) -> TensorOperator:
    """Trace out the ``j``-th tensor factor (1-based); the others keep their order."""
    n = t.nfactors
    if n < 2:
        raise ValueError("partial trace needs at least two tensor factors")
    if not 1 <= j <= n:
        raise ValueError(f"factor index {j} outside 1..{n}")
    dims = t.factor_dims
    return TensorOperator(_ptrace(t.entries, dims, j), dims[: j - 1] + dims[j:])


def reorder_factors(t: TensorOperator, order: tuple[int, ...]) -> TensorOperator:
    """Permute tensor factors; ``order[k]`` is the 1-based old position moved to slot k+1."""
    n = t.nfactors
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"order {order} is not a permutation of 1..{n}")
    dims = t.factor_dims
    new_dims = tuple(dims[o - 1] for o in order)
    return TensorOperator(_reorder(t.entries, dims, order), new_dims)


def _asymmetry(m: np.ndarray) -> float:
    """Frobenius norm of ``m - m^H`` relative to that of ``m`` (at least 1)."""
    return float(np.linalg.norm(m - m.conj().T)) / max(1.0, float(np.linalg.norm(m)))


def _hermitian_entries(t: TensorOperator) -> np.ndarray:
    """Entries of ``t``, rejected if their asymmetry exceeds ``HERMITICITY_TOL``."""
    asym = _asymmetry(t.entries)
    if asym > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: relative asymmetry {asym:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    return t.entries


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^H) / 2`` of a matrix or a stack; real input stays real, with no extra copy."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _signs(vals: np.ndarray) -> np.ndarray:
    """Eigenvalue map of the spectral sign: >= 0 becomes +1, negative becomes -1."""
    return np.where(vals >= 0.0, 1.0, -1.0)


def _spectral_map(m: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``V f(L) V^H`` for the eigendecomposition of the Hermitian part of ``m``, symmetrized.

    One ``eigh`` call maps every matrix of an ``(..., n, n)`` stack as it would map it alone.
    """
    vals, vecs = np.linalg.eigh(_hermitian_part(m))
    return _hermitian_part((vecs * f(vals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2))


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of ``m``."""
    return np.linalg.eigvalsh(_hermitian_part(m))


def _density_defects(m: np.ndarray) -> tuple[float, float]:
    """``(|tr m - 1|, magnitude of the lowest eigenvalue if negative)`` of a raw matrix."""
    lowest = float(_eigenvalues(m)[0])
    return abs(complex(np.trace(m)) - 1.0), max(0.0, -lowest)


def eigenvalues(t: TensorOperator) -> np.ndarray:
    """Real eigenvalues of a Hermitian operator, descending."""
    return _eigenvalues(_hermitian_entries(t))[::-1]


def operator_norm(t: TensorOperator) -> float:
    """Largest absolute eigenvalue of a Hermitian operator."""
    vals = _eigenvalues(_hermitian_entries(t))
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def operator_to_text(t: TensorOperator) -> str:
    """Serialize to the plain-text matrix format.

    The first line is ``dims: d1 d2 ...``; every following line is
    ``row col real imag`` for one nonzero entry, 0-based indices, floats
    printed with 17 significant digits.  Entries that are exactly zero
    are omitted and read back as zero.
    """
    lines = ["dims: " + " ".join(str(d) for d in t.factor_dims)]
    m = t.entries
    for row, col in zip(*np.nonzero(m)):
        z = m[row, col]
        lines.append(f"{row} {col} {z.real:.17g} {z.imag:.17g}")
    return "\n".join(lines) + "\n"


def _split_text(text: str) -> tuple[tuple[int, ...], list[str]]:
    """Factor dimensions from the ``dims:`` header of matrix text, and its entry lines."""
    rows = [line.strip() for line in text.splitlines()]
    rows = [line for line in rows if line]
    if not rows or not rows[0].startswith("dims:"):
        raise ValueError("matrix text must start with a 'dims:' header line")
    try:
        dims = tuple(int(tok) for tok in rows[0][len("dims:"):].split())
    except ValueError as exc:
        raise ValueError(f"unreadable dims header {rows[0]!r}") from exc
    if not dims or min(dims) < 1:
        raise ValueError(f"dims header must list positive integers, got {dims}")
    return dims, rows[1:]


def operator_from_text(text: str) -> TensorOperator:
    """Parse the plain-text matrix format produced by :func:`operator_to_text`."""
    dims, entries = _split_text(text)
    side = math.prod(dims)
    mat = np.zeros((side, side), dtype=np.complex128)
    seen: set[tuple[int, int]] = set()
    for line in entries:
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"bad entry line {line!r}; expected 'row col real imag'")
        try:
            row, col = int(parts[0]), int(parts[1])
            re, im = float(parts[2]), float(parts[3])
        except ValueError as exc:
            raise ValueError(f"bad entry line {line!r}") from exc
        if not (0 <= row < side and 0 <= col < side):
            raise ValueError(f"entry index ({row}, {col}) outside 0..{side - 1}")
        if (row, col) in seen:
            raise ValueError(f"entry ({row}, {col}) is listed twice")
        seen.add((row, col))
        mat[row, col] = complex(re, im)
    return TensorOperator(mat, dims)


def save_operator(t: TensorOperator, path: str | Path) -> None:
    """Write an operator to ``path`` in the plain-text matrix format."""
    Path(path).write_text(operator_to_text(t), encoding="ascii")


def load_operator(path: str | Path) -> TensorOperator:
    """Read an operator from a plain-text matrix file."""
    return operator_from_text(Path(path).read_text(encoding="ascii"))

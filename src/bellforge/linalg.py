"""Dense complex operators on tensor-product spaces.

Every operator is stored as a row-major complex matrix tagged with the
ordered dimensions of its tensor factors.  Values are immutable after
construction and all functions here are pure, so they are safe to share
across threads.  An operator carries no arithmetic: callers combine its
``entries`` with numpy.  The public spectrum and text functions validate at
this boundary; the solvers' inner loops and ``verify`` call a private kernel
on raw arrays (Hermitian part, spectral map, partial trace and factor
permutation) directly.  The kernel keeps the dtype of its input, so real
symmetric arrays stay real.

On three factors C^d the weight sectors group the states ``|abc>`` of one
multiset ``{a, b, c}``, in blocks of 1, 3 and 6; a matrix with no entry
between sectors is block-diagonal (Eggeling & Werner, PRA 63, 042111 (2001);
Gatermann & Parrilo, JPAA 192, 95 (2004)).  ``_layout`` lays such matrices
out as one flat vector of block entries, once per dimension and read-only.
On that vector the kernel takes partial traces, embeds, projects onto the
density set and solves the spectrum, one stacked solve per block size, and
``_dense`` scatters it into the dense matrix.  ``eigenvalues`` and density
validation read an operator through ``_blocks``; the extension search and the
exact proof of the source theorem hold their operators in the layout itself.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "TensorOperator",
    "eigenvalues",
    "operator_norm",
    "operator_to_text",
    "operator_from_text",
]

# Relative Frobenius asymmetry allowed before a matrix is rejected as
# non-Hermitian by the spectral routines.
HERMITICITY_TOL = 1e-10

# Most-negative eigenvalue tolerated by the positive-semidefinite check.
PSD_TOL = 1e-10


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only, so that every holder may share it."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TensorOperator:
    """Square complex matrix on an ordered product of finite-dimensional factors."""

    entries: np.ndarray
    factor_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(operator.index(d) for d in self.factor_dims)
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
        object.__setattr__(self, "entries", _frozen(mat))
        object.__setattr__(self, "factor_dims", dims)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(side={len(self.entries)}, factor_dims={self.factor_dims})"


def _ptrace(m: np.ndarray, dims: tuple[int, ...], j: int) -> np.ndarray:
    """Trace the 1-based factor ``j`` out of a raw matrix on factors ``dims``."""
    n = len(dims)
    reduced = np.trace(m.reshape(dims + dims), axis1=j - 1, axis2=n + j - 1)
    side = m.shape[0] // dims[j - 1]
    return reduced.reshape(side, side)


@functools.cache
def _permutation(dims: tuple[int, ...], images: tuple[int, ...]) -> np.ndarray:
    """Column of the one entry 1 in each row of the real 0/1 unitary ``U`` that moves the content
    of 1-based factor ``i`` of a product on ``dims`` to factor ``images[i - 1]``, built once and
    read-only; ``U m U^T`` permutes the factors of a matrix ``m`` alike."""
    side = math.prod(dims)
    return _frozen(np.arange(side).reshape(dims).transpose(np.argsort(images)).reshape(-1))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    """``(m + m^H) / 2`` of a matrix or a stack; real input stays real, with no extra copy."""
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


def _signs(vals: np.ndarray) -> np.ndarray:
    """Eigenvalue map of the spectral sign: >= 0 becomes +1, negative becomes -1."""
    return np.where(vals >= 0.0, 1.0, -1.0)


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of the Hermitian part of a matrix or a stack;
    a 1x1 matrix's are the real part of its entry and 1, with no solve."""
    one = m.shape[-1] == 1
    return (m[..., 0].real, np.ones_like(m)) if one else np.linalg.eigh(_hermitian_part(m))


def _recompose(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``V diag(vals) V^H`` for eigenvectors ``V`` of a matrix or a stack, symmetrized."""
    return _hermitian_part((vecs * vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2))


def _spectral_map(m: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """``V f(L) V^H`` for the eigendecomposition of the Hermitian part of ``m``, symmetrized.

    Maps every matrix of an ``(..., n, n)`` stack as it would map it alone, by one stacked
    ``eigh``, or at ``n = 2`` in closed form: ``c I + K``, ``K = [[z, conj(o)], [o, -z]]``, has
    eigenvalues ``c -+ r``, ``r = hypot(z, |o|)``, and maps to ``(f(c-r) + f(c+r)) / 2 I +
    (f(c+r) - f(c-r)) / 2 K / r``, exactly Hermitian, or ``f(c) I`` where ``r = 0 = K``.
    """
    if m.shape[-1] != 2:
        vals, vecs = _eigh(m)
        return _recompose(f(vals), vecs)
    c = (m[..., 0, 0].real + m[..., 1, 1].real) / 2.0
    z = (m[..., 0, 0].real - m[..., 1, 1].real) / 2.0
    o = (m[..., 1, 0] + m[..., 0, 1].conj()) / 2.0
    r = np.hypot(z, np.abs(o))
    lo, hi = np.moveaxis(f(np.stack([c - r, c + r], axis=-1)), -1, 0)
    s, half, unit = (hi + lo) / 2.0, (hi - lo) / 2.0, np.where(r > 0.0, r, 1.0)
    out = np.empty_like(m)
    out[..., 0, 0], out[..., 1, 1] = s + half * (z / unit), s - half * (z / unit)
    out[..., 1, 0] = half * (o / unit)
    out[..., 0, 1] = out[..., 1, 0].conj()
    return out


def _eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of a matrix or of each matrix of a stack;
    a 1x1 matrix's is the real part of its entry, with no solve."""
    return m[..., 0].real if m.shape[-1] == 1 else np.linalg.eigvalsh(_hermitian_part(m))


def _project_simplex(vals: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(vals)[::-1]
    shifted = np.cumsum(u) - 1.0
    support = np.nonzero(u > shifted / np.arange(1, u.size + 1))[0][-1]
    return np.maximum(vals - shifted[support] / (support + 1), 0.0)


@functools.cache
def _multisets(d: int, n: int) -> np.ndarray:
    """Per basis state of n copies of C^d, its digits sorted descending as one code below d**n."""
    digits = np.sort(np.indices((d,) * n).reshape(n, -1), axis=0)[::-1]
    return _frozen(np.ravel_multi_index(tuple(digits), (d,) * n))


def _conserves(m: np.ndarray, d: int, n: int) -> bool:
    """Whether ``m`` on n copies of C^d is exactly zero between states of different multisets."""
    code = _multisets(d, n)
    return bool(np.count_nonzero(m[code[:, None] == code]) == np.count_nonzero(m.astype(bool)))


def _sectors(d: int) -> tuple[np.ndarray, ...]:
    """Basis indices of the weight sectors of three factors C^d, a (blocks, size) array per size
    in ascending order of size."""
    code = _multisets(d, 3)
    size = np.bincount(code)[code]
    order = np.lexsort((code, size))
    return tuple(order[size[order] == n].reshape(-1, n) for n in np.flatnonzero(np.bincount(size)))


@dataclass(frozen=True, eq=False)
class _Layout:
    """Where each entry of a block-diagonal ``d**3``-sided matrix sits in a flat vector: entry k
    at ``(rows[k], cols[k])``.  The blocks of one size form the row-major ``(blocks, size, size)``
    chunk ``v[start:stop].reshape(shape)`` for each ``(start, stop, shape)`` in ``chunks``."""

    d: int
    chunks: tuple[tuple[int, int, tuple[int, int, int]], ...]
    rows: np.ndarray
    cols: np.ndarray
    diagonal: np.ndarray

    @functools.cached_property
    def traced(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per slot j, the entries whose slot-j digits agree, which partial trace j sums, and the
        index ``row_pair * d**2 + col_pair`` each adds to; built on first use, by the extension
        search or the source proof."""
        d, rows, cols = self.d, self.rows, self.cols
        # Row r of ``place`` is the place value of slot r + 1 in a basis index; dropping
        # that digit from the index leaves the bipartite index ``pair[r]``.
        basis, place = np.arange(d**3), np.array([[d * d], [d], [1]])
        digit, pair = basis // place % d, basis // (d * place) * place + basis % place
        agree = [np.flatnonzero(digit[r][rows] == digit[r][cols]) for r in range(3)]
        keys = [pair[r][rows[e]] * d * d + pair[r][cols[e]] for r, e in enumerate(agree)]
        return tuple((_frozen(e), _frozen(k)) for e, k in zip(agree, keys))


@functools.cache
def _layout(d: int, conserving: bool) -> _Layout:
    """The flat layout, built once and read-only, of the matrices on three factors C^d that are
    block-diagonal over the weight sectors if ``conserving``, or of all of them as one block."""
    chunks, rows, cols, start = [], [], [], 0
    for idx in _sectors(d) if conserving else (np.arange(d**3)[None, :],):
        shape = (*idx.shape, idx.shape[1])
        chunks.append((start, start + math.prod(shape), shape))
        rows.append(np.broadcast_to(idx[:, :, None], shape).ravel())
        cols.append(np.broadcast_to(idx[:, None, :], shape).ravel())
        start += math.prod(shape)
    rows, cols = _frozen(np.concatenate(rows)), _frozen(np.concatenate(cols))
    return _Layout(d, tuple(chunks), rows, cols, _frozen(np.flatnonzero(rows == cols)))


def _dense(v: np.ndarray, layout: _Layout) -> np.ndarray:
    """The ``d**3``-sided matrix in ``v``'s dtype whose block entries are ``v``, zero elsewhere."""
    m = np.zeros((layout.d**3,) * 2, v.dtype)
    m[layout.rows, layout.cols] = v
    return m


def _chunks(v: np.ndarray, layout: _Layout) -> list[np.ndarray]:
    """The chunks of ``v`` as ``(blocks, size, size)`` stacks that share its memory."""
    return [v[start:stop].reshape(shape) for start, stop, shape in layout.chunks]


def _block_ptrace(v: np.ndarray, layout: _Layout, j: int) -> np.ndarray:
    """Trace the 1-based factor ``j`` out of the matrix whose block entries are ``v``, summing in
    ``v``'s own dtype: exactly for ``Fraction`` entries."""
    entries, key = layout.traced[j - 1]
    summed = np.zeros(layout.d**4, v.dtype)
    np.add.at(summed, key, v[entries])
    return summed.reshape(layout.d**2, layout.d**2)


def _add_embedded(v: np.ndarray, b: np.ndarray, layout: _Layout, j: int) -> np.ndarray:
    """``v`` plus the block entries of the bipartite ``b`` tensored with the identity at slot j."""
    entries, key = layout.traced[j - 1]
    out = v.copy()
    out[entries] += b.ravel()[key]
    return out


def _project_density(v: np.ndarray, layout: _Layout) -> np.ndarray:
    """Nearest density matrix in Frobenius norm: clip the joint spectrum of the blocks, one
    stacked eigensolve per block size (none for 1x1 blocks), onto the simplex."""
    spectra = [_eigh(c) for c in _chunks(v, layout)]
    joint = _project_simplex(np.concatenate([vals.ravel() for vals, _ in spectra]))
    out, offset = np.empty_like(v), 0
    for (start, stop, _), (vals, vecs) in zip(layout.chunks, spectra):
        mapped = joint[offset : offset + vals.size].reshape(vals.shape)
        offset += vals.size
        out[start:stop] = _recompose(mapped, vecs).ravel()
    return out


def _blocks(m: np.ndarray, dims: tuple[int, ...]) -> list[np.ndarray]:
    """``m`` on ``dims`` as the stacks of its weight-sector blocks if it is on three factors C^d
    and conserves weight (tested first), else as ``[m]``; real for a zero imaginary part."""
    if np.iscomplexobj(m) and not m.imag.any():
        m = m.real
    if len(dims) != 3 or len(set(dims)) != 1 or not _conserves(m, dims[0], 3):
        return [m]
    layout = _layout(dims[0], True)
    return _chunks(m[layout.rows, layout.cols], layout)


def _norm(blocks: list[np.ndarray]) -> float:
    """Frobenius norm of the block-diagonal matrix whose blocks, or stacks of them, are listed."""
    return math.hypot(*(float(np.linalg.norm(b)) for b in blocks))


def _asymmetry(blocks: list[np.ndarray]) -> float:
    """Frobenius norm of ``m - m^H`` relative to that of ``m`` (at least 1), from ``_blocks(m)``."""
    return _norm([b - b.conj().swapaxes(-1, -2) for b in blocks]) / max(1.0, _norm(blocks))


def _spectrum(blocks: list[np.ndarray]) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of the matrix with these blocks, one solve per
    stack; exact, as the matrix has no other entry."""
    return np.sort(np.concatenate([_eigenvalues(b).ravel() for b in blocks]))


def _rational(n: int, den: int = 1) -> Fraction:
    """``n / den`` exactly, for any integer type; only exact checks import ``fractions``."""
    from fractions import Fraction
    return Fraction(int(n), den)


def _psd_defect(a: np.ndarray) -> Fraction:
    """0 if the integer matrix ``a`` is symmetric and PSD, else a positive ``Fraction``: the largest
    |entry| of ``a - a^T``, or of the Schur complement that an exact LDL^T, pivoting on the largest
    diagonal entry, leaves once none is positive (a PSD one is then zero).  Fraction-free, in
    Python integers: ``s`` is the complement times its last pivot, which divides exactly."""
    if asymmetry := np.abs(a - a.T).max():
        return _rational(asymmetry)
    s, last = a.tolist(), 1
    while s and (pivot := max(row[i] for i, row in enumerate(s))) > 0:
        k = next(i for i, row in enumerate(s) if row[i] == pivot)
        column = [row[k] for row in s]
        s = [
            [(pivot * x - column[i] * column[j]) // last for j, x in enumerate(row) if j != k]
            for i, row in enumerate(s)
            if i != k
        ]
        last = pivot
    return _rational(max((abs(x) for row in s for x in row), default=0), last)


def eigenvalues(t: TensorOperator) -> np.ndarray:
    """Real eigenvalues of a Hermitian operator, descending."""
    blocks = _blocks(t.entries, t.factor_dims)
    asym = _asymmetry(blocks)
    if asym > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: relative asymmetry {asym:.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    return _spectrum(blocks)[::-1]


def operator_norm(t: TensorOperator) -> float:
    """Largest absolute eigenvalue of a Hermitian operator."""
    return float(np.max(np.abs(eigenvalues(t))))


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

"""Tests for dense tensor operators, the partial-trace kernel and Hermitian spectral routines."""

from __future__ import annotations

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import bellforge as bf
from bellforge import linalg as la
from bellforge.linalg import _chunks, _layout, _project_density, _project_simplex, _spectrum
from test_states import PARITIES, _perm


def random_operator(rng: np.random.Generator, dims: tuple[int, ...]) -> la.TensorOperator:
    side = int(np.prod(dims))
    m = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return la.TensorOperator(m, dims)


def random_hermitian(rng: np.random.Generator, dims: tuple[int, ...]) -> la.TensorOperator:
    t = random_operator(rng, dims)
    return la.TensorOperator((t.entries + t.entries.conj().T) / 2.0, dims)


# ---------------------------------------------------------------- construction


def test_constructor_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="does not match factor dimensions"):
        la.TensorOperator(np.eye(3), (2, 2))


def test_constructor_rejects_bad_dims():
    for dims in [(), (0,), (-1, 2)]:
        with pytest.raises(ValueError):
            la.TensorOperator(np.eye(int(abs(np.prod(dims))) or 1), dims)


def test_constructor_rejects_non_finite():
    m = np.eye(2, dtype=complex)
    m[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        la.TensorOperator(m, (2,))
    m[0, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        la.TensorOperator(m, (2,))


def test_entries_are_read_only():
    t = la.TensorOperator(np.eye(4), (2, 2))
    with pytest.raises(ValueError):
        t.entries[0, 0] = 5.0


def test_constructor_copies_input():
    m = np.eye(2, dtype=complex)
    t = la.TensorOperator(m, (2,))
    m[0, 0] = 7.0
    assert t.entries[0, 0] == 1.0


# -------------------------------------------------------------- partial trace


def _flip_matrix(d: int) -> np.ndarray:
    m = np.zeros((d * d, d * d), dtype=complex)
    for n in range(d):
        for k in range(d):
            m[n * d + k, k * d + n] = 1.0
    return m


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("j", [1, 2])
def test_partial_trace_of_flip_by_basis_summation(d, j):
    """Summing |e_n><e_m| tr(|e_m><e_n|) over the basis gives the identity."""
    oracle = np.zeros((d, d), dtype=complex)
    for n in range(d):
        for m in range(d):
            e_nm = np.zeros((d, d), dtype=complex)
            e_nm[n, m] = 1.0
            e_mn = e_nm.conj().T
            oracle += e_nm * np.trace(e_mn)
    reduced = la._ptrace(_flip_matrix(d), (d, d), j)
    np.testing.assert_allclose(reduced, oracle, atol=1e-14)
    np.testing.assert_allclose(oracle, np.eye(d), atol=1e-14)


def test_partial_trace_is_linear_and_trace_preserving():
    rng = np.random.default_rng(15)
    dims = (2, 3, 2)
    a = random_operator(rng, dims).entries
    b = random_operator(rng, dims).entries
    for j in (1, 2, 3):
        combined = la._ptrace(2.0 * a + (0.5 - 1j) * b, dims, j)
        separate = 2.0 * la._ptrace(a, dims, j) + (0.5 - 1j) * la._ptrace(b, dims, j)
        assert np.linalg.norm(combined - separate) <= 1e-12
        assert np.trace(la._ptrace(a, dims, j)) == pytest.approx(np.trace(a))


def test_partial_trace_preserves_hermiticity():
    rng = np.random.default_rng(16)
    h = random_hermitian(rng, (2, 2, 3))
    for j in (1, 2, 3):
        r = la._ptrace(h.entries, h.factor_dims, j)
        assert np.linalg.norm(r - r.conj().T) <= 1e-12


def test_partial_trace_of_product_factorizes():
    rng = np.random.default_rng(17)
    a = random_operator(rng, (2,))
    b = random_operator(rng, (3,))
    prod = np.kron(a.entries, b.entries)
    keep_a = la._ptrace(prod, (2, 3), 2)
    keep_b = la._ptrace(prod, (2, 3), 1)
    np.testing.assert_allclose(keep_a, complex(np.trace(b.entries)) * a.entries, atol=1e-12)
    np.testing.assert_allclose(keep_b, complex(np.trace(a.entries)) * b.entries, atol=1e-12)
    assert keep_a.shape == (2, 2)
    assert keep_b.shape == (3, 3)


@pytest.mark.parametrize("order", list(itertools.permutations((1, 2, 3))))
def test_permutation_matrix_conjugates_to_reorder(order):
    """``order`` holds the images of slots 1, 2, 3: U is orthogonal, moves the content of slot i
    of a product vector to slot ``order[i - 1]``, and so conjugates a product operator alike."""
    dims = (2, 3, 4)
    rng = np.random.default_rng(19)
    u = np.zeros((24, 24))
    u[np.arange(24), la._permutation(dims, order)] = 1.0
    np.testing.assert_array_equal(u @ u.T, np.eye(24))
    moved = [order.index(slot) for slot in (1, 2, 3)]
    vecs = [rng.integers(-9, 10, n).astype(float) for n in dims]  # exact products
    ops = [random_operator(rng, (n,)).entries for n in dims]
    v = np.kron(np.kron(vecs[0], vecs[1]), vecs[2])
    expected = np.kron(np.kron(vecs[moved[0]], vecs[moved[1]]), vecs[moved[2]])
    np.testing.assert_array_equal(u @ v, expected)
    m = np.kron(np.kron(ops[0], ops[1]), ops[2])
    reordered = np.kron(np.kron(ops[moved[0]], ops[moved[1]]), ops[moved[2]])
    np.testing.assert_allclose(u @ m @ u.T, reordered, atol=1e-14)


# ------------------------------------------------------------------- spectral


def test_eig_hermitian_reconstructs_large_matrix():
    """The spectral kernel with the identity map rebuilds the matrix from its eigenpairs."""
    rng = np.random.default_rng(19)
    h = random_hermitian(rng, (6, 6, 6))  # side 216
    recon = la._spectral_map(h.entries, lambda vals: vals)
    scale = np.linalg.norm(h.entries)
    assert np.linalg.norm(recon - h.entries) <= 1e-9 * scale
    assert np.all(np.diff(la.eigenvalues(h)) <= 1e-12)  # descending
    gram = la._spectral_map(h.entries, np.ones_like)  # V V^H
    assert np.linalg.norm(gram - np.eye(h.entries.shape[0])) <= 1e-10


def test_eig_hermitian_eigenpairs_satisfy_equation():
    """Mapping every eigenvalue but the k-th to zero gives a projector P with h P = lambda_k P."""
    rng = np.random.default_rng(20)
    h = random_hermitian(rng, (2, 3))
    vals = la.eigenvalues(h)[::-1]  # ascending, the kernel's order
    norm = la.operator_norm(h)
    for k in range(h.entries.shape[0]):
        p = la._spectral_map(h.entries, lambda v: (np.arange(v.size) == k).astype(float))
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
        resid = np.linalg.norm(h.entries @ p - vals[k] * p)
        assert resid <= 1e-10 * max(1.0, norm)


def test_eigenvalues_rejects_asymmetric_input():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="asymmetry"):
        la.eigenvalues(la.TensorOperator(m, (2,)))


def test_spectral_routines_symmetrize_within_tolerance():
    rng = np.random.default_rng(21)
    h = random_hermitian(rng, (3,))
    bump = np.zeros((3, 3), dtype=complex)
    bump[0, 1] = 1e-13
    near = la.TensorOperator(h.entries + bump, (3,))
    np.testing.assert_allclose(la.eigenvalues(near), la.eigenvalues(h), atol=1e-12)


def test_spectral_kernel_keeps_real_input_real():
    """Real symmetric input stays float64 and matches the complex computation."""
    rng = np.random.default_rng(23)
    g = rng.standard_normal((6, 6))
    assert la._hermitian_part(g).dtype == np.float64
    np.testing.assert_array_equal(la._hermitian_part(g), (g + g.T) / 2.0)
    clipped = la._spectral_map(g, lambda vals: np.clip(vals, -1.0, 1.0))
    assert clipped.dtype == np.float64
    reference = la._spectral_map(g.astype(complex), lambda vals: np.clip(vals, -1.0, 1.0))
    np.testing.assert_allclose(clipped, reference, atol=1e-13)


def test_spectral_kernel_maps_stacks_like_single_matrices():
    """A stack goes through one ``eigh`` and equals the per-matrix maps bit for bit."""
    rng = np.random.default_rng(24)
    complex_stack = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
    real_stack = rng.standard_normal((5, 3, 3))
    for stack in (complex_stack, real_stack):
        np.testing.assert_array_equal(
            la._hermitian_part(stack), [la._hermitian_part(m) for m in stack]
        )
        for f in (la._signs, lambda vals: np.clip(vals, -1.0, 1.0)):
            mapped = la._spectral_map(stack, f)
            assert mapped.dtype == stack.dtype
            np.testing.assert_array_equal(mapped, [la._spectral_map(m, f) for m in stack])


TWO_BY_TWO_MAPS = {
    "sign": la._signs,
    "clip": lambda vals: np.clip(vals, -1.0, 1.0),
    "identity": lambda vals: vals,
}


def two_by_two_stacks() -> dict[str, np.ndarray]:
    """Random complex and real 2x2 stacks, the complex one at entries near 1e-200 and 1e200,
    and scalar multiples of I, the zero matrix among them."""
    rng = np.random.default_rng(25)
    cplx = rng.standard_normal((200, 2, 2)) + 1j * rng.standard_normal((200, 2, 2))
    scalars = np.array([-2.5, -1e-300, 0.0, 1e-300, 0.5, 3.0])[:, None, None] * np.eye(2)
    return {
        "complex": cplx,
        "real": rng.standard_normal((200, 2, 2)),
        "tiny": 1e-200 * cplx,
        "huge": 1e200 * cplx,
        "scalar": scalars,
        "scalar complex": scalars.astype(complex),
    }


@pytest.mark.parametrize("name", sorted(TWO_BY_TWO_MAPS))
@pytest.mark.parametrize("stack", sorted(two_by_two_stacks()))
def test_spectral_kernel_maps_2x2_in_closed_form(monkeypatch, stack, name):
    """At size 2 the map needs no solve, equals ``V f(L) V^H`` from ``eigh`` of the Hermitian part
    within 1e-14 of its largest mapped eigenvalue, is exactly Hermitian and keeps real input real;
    ``hypot`` keeps entries near 1e-200 and 1e200 from underflowing or overflowing."""
    m, f = two_by_two_stacks()[stack], TWO_BY_TWO_MAPS[name]
    vals, vecs = np.linalg.eigh(la._hermitian_part(m))
    mapped_vals = f(vals)
    expected = (vecs * mapped_vals[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    solved = eig_spy(monkeypatch)
    mapped = la._spectral_map(m, f)
    assert not solved
    assert mapped.dtype == m.dtype
    np.testing.assert_array_equal(mapped, mapped.conj().swapaxes(-1, -2))
    scale = np.abs(mapped_vals).max(axis=-1)[:, None, None]
    assert np.all(np.abs(mapped - expected) <= 1e-14 * scale)


def dense(v: np.ndarray, layout) -> np.ndarray:
    """The full matrix whose block entries, in ``layout``, are ``v``."""
    m = np.zeros((layout.d**3, layout.d**3), dtype=v.dtype)
    m[layout.rows, layout.cols] = v
    return m


def sector_hermitian(rng: np.random.Generator, d: int, real: bool) -> np.ndarray:
    """A random Hermitian matrix on d**3 sides, zero between states of different digit multisets."""
    labels = np.array([sum(4**a for a in s) for s in itertools.product(range(d), repeat=3)])
    g = rng.standard_normal((d**3, d**3))
    if not real:
        g = g + 1j * rng.standard_normal((d**3, d**3))
    return la._hermitian_part(g) * (labels[:, None] == labels[None, :])


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_sector_partition_matches_one_block_kernel(d, real):
    """On weight-sector block entries, the density projection and lambda_min equal the dense ones."""
    rng = np.random.default_rng(100 + d)
    m = sector_hermitian(rng, d, real)
    layouts = (_layout(d, True), _layout(d, False))
    sizes = [shape[1] for _, _, shape in layouts[0].chunks]
    assert sizes == ([1, 3] if d == 2 else [1, 3, 6])
    dense_projection = la._spectral_map(m, _project_simplex)
    dense_lowest = float(np.linalg.eigvalsh(m)[0])
    for layout in layouts:
        v = m[layout.rows, layout.cols]
        # The entries of the layout are exactly the blocks: nothing outside is lost.
        np.testing.assert_array_equal(dense(v, layout), m)
        projected = _project_density(v, layout)
        assert projected.dtype == m.dtype
        assert np.max(np.abs(dense(projected, layout) - dense_projection)) <= 1e-12
        assert abs(_spectrum(_chunks(v, layout))[0] - dense_lowest) <= 1e-12
    # Moved below every other eigenvalue, the 1x1 block of |000> must set lambda_min.
    low = m.copy()
    low[0, 0] = dense_lowest - 1.0
    for layout in layouts:
        lowest = _spectrum(_chunks(low[layout.rows, layout.cols], layout))[0]
        assert abs(lowest - float(np.linalg.eigvalsh(low)[0])) <= 1e-12


def hermitian_sign(m: np.ndarray) -> np.ndarray:
    """Spectral sign that the see-saw's updates apply: eigenvalues >= 0 become +1, others -1."""
    return la._spectral_map(m, la._signs)


def test_hermitian_sign_zero_eigenvalue_maps_to_plus_one():
    m = np.diag([1.0, 0.0, -2.0])
    np.testing.assert_allclose(hermitian_sign(m), np.diag([1.0, 1.0, -1.0]), atol=1e-14)


def test_hermitian_sign_of_zero_matrix_is_identity():
    np.testing.assert_allclose(hermitian_sign(np.zeros((4, 4))), np.eye(4), atol=1e-14)


def test_hermitian_sign_squares_to_identity():
    rng = np.random.default_rng(22)
    s = hermitian_sign(random_hermitian(rng, (2, 2)).entries)
    assert np.linalg.norm(s @ s - np.eye(4)) <= 1e-12


@pytest.mark.parametrize("side", [2, 3, 4])
def test_hermitian_sign_maximizes_over_sign_patterns(side):
    """Enumerating W = U diag(+-1) U* shows the spectral sign attains the maximum of tr(XW)."""
    rng = np.random.default_rng(100 + side)
    x = random_hermitian(rng, (side,))
    achieved = float(np.trace(x.entries @ hermitian_sign(x.entries)).real)
    _, vecs = np.linalg.eigh((x.entries + x.entries.conj().T) / 2.0)
    best = -np.inf
    for pattern in itertools.product((1.0, -1.0), repeat=side):
        w = (vecs * np.array(pattern)) @ vecs.conj().T
        best = max(best, float(np.trace(x.entries @ w).real))
    assert achieved >= best - 1e-12
    assert abs(achieved - best) <= 1e-12


def test_trace_norm_equals_absolute_eigenvalue_sum():
    """tr(X sign(X)), the trace norm the sign update attains, is the sum of |eigenvalues|."""
    rng = np.random.default_rng(23)
    x = random_hermitian(rng, (2, 2))
    oracle = float(np.sum(np.abs(np.linalg.eigvalsh(x.entries))))
    assert float(np.sum(np.abs(la.eigenvalues(x)))) == pytest.approx(oracle, abs=1e-12)
    paired = float(np.trace(x.entries @ hermitian_sign(x.entries)).real)
    assert paired == pytest.approx(oracle, abs=1e-12)


def test_operator_norm_matches_extreme_eigenvalue():
    t = la.TensorOperator(np.diag([3.0, -5.0, 1.0]), (3,))
    assert la.operator_norm(t) == pytest.approx(5.0)
    rng = np.random.default_rng(24)
    h = random_hermitian(rng, (3,))
    assert la.operator_norm(h) == pytest.approx(float(np.max(np.abs(np.linalg.eigvalsh(h.entries)))))


def test_is_psd_thresholds():
    """The negativity that density validation holds to ``PSD_TOL``."""
    for lowest, psd in [(0.0, True), (-1e-11, True), (-1e-9, False)]:
        _, _, negativity = bf.density_deficits(la.TensorOperator(np.diag([1.0, lowest]), (2,)))
        assert negativity == -lowest
        assert (negativity <= la.PSD_TOL) is psd


# ---------------------------------------------------------------- text format


def test_text_round_trip_is_exact():
    rng = np.random.default_rng(25)
    t = random_operator(rng, (2, 3))
    m = np.array(t.entries)
    m[0, 1] = 0.0  # ensure a skipped entry
    m[2, 2] = 0.25 + 0.0j
    t = la.TensorOperator(m, (2, 3))
    back = la.operator_from_text(la.operator_to_text(t))
    assert back.factor_dims == t.factor_dims
    np.testing.assert_array_equal(back.entries, t.entries)


def test_save_and_load_operator(tmp_path):
    # Through a file, as ``dso-find --dump`` writes and a ``file:`` state is read.
    t = random_operator(np.random.default_rng(26), (3,))
    path = tmp_path / "op.mat"
    path.write_text(la.operator_to_text(t), encoding="ascii")
    back = la.operator_from_text(path.read_text(encoding="ascii"))
    assert back.factor_dims == (3,)
    np.testing.assert_array_equal(back.entries, t.entries)


def test_text_zero_matrix_round_trips():
    t = la.TensorOperator(np.zeros((4, 4)), (2, 2))
    text = la.operator_to_text(t)
    assert text.splitlines() == ["dims: 2 2"]
    back = la.operator_from_text(text)
    np.testing.assert_array_equal(back.entries, np.zeros((4, 4)))


def test_text_format_layout():
    t = la.TensorOperator(np.array([[0.0, 1.5], [-2.0j, 0.0]]), (2,))
    lines = la.operator_to_text(t).splitlines()
    assert lines[0] == "dims: 2"
    assert lines[1].split() == ["0", "1", "1.5", "0"]
    assert lines[2].split() == ["1", "0", "-0", "-2"]


def test_text_parser_rejects_malformed_input():
    with pytest.raises(ValueError, match="dims"):
        la.operator_from_text("0 0 1 0\n")
    with pytest.raises(ValueError, match="entry line"):
        la.operator_from_text("dims: 2\n0 0 1\n")
    with pytest.raises(ValueError, match="outside"):
        la.operator_from_text("dims: 2\n5 0 1 0\n")
    with pytest.raises(ValueError, match="positive"):
        la.operator_from_text("dims: 0\n")


def test_text_parser_rejects_repeated_entry():
    with pytest.raises(ValueError, match="listed twice"):
        la.operator_from_text("dims: 2\n0 0 0.5 0\n0 0 1 0\n")


# ------------------------------------------------------------ spectral kernel


def eig_spy(monkeypatch) -> list[tuple[int, str]]:
    """Record ``(side, dtype kind)`` of every matrix that ``eigvalsh`` or ``eigh`` is given."""
    solved = []
    for name in ("eigvalsh", "eigh"):

        def spy(m, *args, _original=getattr(np.linalg, name), **kwargs):
            solved.append((m.shape[-1], m.dtype.kind))
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return solved


def random_real_symmetric(rng: np.random.Generator, dims: tuple[int, ...]) -> la.TensorOperator:
    return la.TensorOperator(random_hermitian(rng, dims).entries.real, dims)


# name: (operator, side of the largest matrix solved, dtype kind of the solves)
KERNEL_CASES = {
    **{f"werner{d}": (lambda d=d: bf.werner(d), d * d, "f") for d in range(2, 7)},
    "singlet": (bf.singlet, 4, "f"),
    "dso_two_qubit": (bf.dso_two_qubit, 3, "f"),
    **{f"dso_general{d}": (lambda d=d: bf.dso_general(d), 6, "f") for d in range(3, 7)},
    "conserving-complex": (
        lambda: la.TensorOperator(sector_hermitian(np.random.default_rng(31), 4, False), (4,) * 3),
        6,
        "c",
    ),
    "non-conserving-real": (
        lambda: random_real_symmetric(np.random.default_rng(32), (3, 3, 3)), 27, "f"
    ),
    "non-conserving-complex": (
        lambda: random_hermitian(np.random.default_rng(33), (3, 3, 3)), 27, "c"
    ),
    "non-conserving-bipartite": (
        lambda: random_hermitian(np.random.default_rng(34), (3, 3)), 9, "c"
    ),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_spectrum_matches_dense_complex_solve(monkeypatch, case):
    """Real and blockwise solves give the spectrum of the dense complex solve, and a matrix
    with entries between weight sectors, or on another space, is solved as one block."""
    make, side, kind = KERNEL_CASES[case]
    t = make()
    oracle = np.linalg.eigvalsh(t.entries.astype(np.complex128))
    solved = eig_spy(monkeypatch)
    np.testing.assert_allclose(la.eigenvalues(t), oracle[::-1], rtol=0.0, atol=1e-12)
    assert max(s for s, _ in solved) == side
    assert {k for _, k in solved} == {kind}
    _, _, negativity = bf.density_deficits(t)
    assert abs(negativity - max(0.0, -oracle[0])) <= 1e-12



@pytest.mark.parametrize("d", [16, 40])
def test_sector_grouping_scales_with_the_basis(d):
    """Multiset codes stay below d**n, so grouping the sectors of a large d neither allocates
    far beyond the basis nor overflows, and still yields d, d(d-1) and C(d, 3) blocks."""
    for n in (2, 3):
        code = la._multisets(d, n)
        assert 0 <= code.min() and code.max() < d**n
    tracemalloc.start()
    try:
        sectors = la._sectors(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * d**3
    assert [idx.shape for idx in sectors] == [(d, 1), (d * (d - 1), 3), (math.comb(d, 3), 6)]
    covered = np.sort(np.concatenate([idx.ravel() for idx in sectors]))
    assert np.array_equal(covered, np.arange(d**3))
    digits = np.sort(np.stack(np.unravel_index(sectors[2], (d,) * 3)), axis=0)
    assert (digits == digits[:, :, :1]).all()


def test_spectrum_gathers_blocks_only_for_conserving_operators(monkeypatch):
    """The conservation check comes first; an operator that fails it is solved as one block
    without the sector indices being formed.  One that passes it builds the layout, cleared
    from the cache first, on them."""
    mixed, conserving = random_hermitian(np.random.default_rng(35), (3, 3, 3)), bf.dso_general(3)
    grouped = []
    original = la._sectors
    monkeypatch.setattr(la, "_sectors", lambda d: grouped.append(d) or original(d))
    la._layout.cache_clear()
    la._spectrum(la._blocks(mixed.entries, (3, 3, 3)))
    assert grouped == []
    la._spectrum(la._blocks(conserving.entries, (3, 3, 3)))
    assert grouped == [3]


@pytest.mark.parametrize("conserving", [True, False])
def test_cached_layouts_and_codes_are_read_only(conserving):
    """Every caller shares the cached layout and multiset codes, so no caller can write them."""
    layout = la._layout(3, conserving)
    assert la._layout(3, conserving) is layout
    shared = [layout.rows, layout.cols, layout.diagonal, *itertools.chain(*layout.traced)]
    shared += [la._multisets(3, 2), la._multisets(3, 3)]
    for a in shared:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_one_sector_grouping_serves_validation_and_dykstra(monkeypatch, d):
    """``dso_general(d)``, ``density_deficits`` and a Dykstra search at the same d read one
    cached layout, so the sectors of d are grouped once between them."""
    grouped = []
    original = la._sectors
    monkeypatch.setattr(la, "_sectors", lambda d: grouped.append(d) or original(d))
    la._layout.cache_clear()
    dso = bf.dso_general(d)
    bf.density_deficits(dso)
    bf.dykstra_find_extension(bf.pattern_sym3(bf.werner(d)), max_iters=3)
    assert grouped == [d]


def dense_asymmetry(m: np.ndarray) -> float:
    return float(np.linalg.norm(m - m.conj().T)) / max(1.0, float(np.linalg.norm(m)))


def dense_deficits(m: np.ndarray) -> tuple[float, float, float]:
    lowest = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])
    return dense_asymmetry(m), abs(complex(np.trace(m)) - 1.0), max(0.0, -lowest)


@functools.cache
def conserving_cases() -> dict[str, np.ndarray]:
    """Operators that conserve weight: the source operators, and random ones, real and complex,
    Hermitian of norm 1, and that plus an anti-Hermitian part of norm 1e-3 inside the blocks."""
    cases = {f"dso_general{d}": bf.dso_general(d).entries for d in range(3, 7)}
    for d, real in itertools.product((3, 5), (True, False)):
        rng = np.random.default_rng(200 + 2 * d + real)
        h = sector_hermitian(rng, d, real)
        g = rng.standard_normal(h.shape) * (h != 0)
        skew = g - g.T
        kind = "real" if real else "complex"
        cases[f"hermitian-{kind}{d}"] = h / np.linalg.norm(h)
        cases[f"skewed-{kind}{d}"] = h / np.linalg.norm(h) + 1e-3 * skew / np.linalg.norm(skew)
    return cases


@pytest.mark.parametrize("case", sorted(conserving_cases()))
def test_block_hermiticity_and_deficits_match_the_dense_formulas(case):
    """On a conserving operator, the blockwise asymmetry and density deficits are the dense
    values: the entries outside the blocks are zero and add nothing to either norm."""
    m = conserving_cases()[case]
    d = round(m.shape[0] ** (1 / 3))
    blocks = la._blocks(m, (d, d, d))
    assert max(b.shape[-1] for b in blocks) == 6
    assert abs(la._asymmetry(blocks) - dense_asymmetry(m)) <= 1e-15
    got = bf.density_deficits(la.TensorOperator(m, (d, d, d)))
    np.testing.assert_allclose(got, dense_deficits(m), rtol=0.0, atol=1e-15)
    if case.startswith("skewed"):
        assert la._asymmetry(blocks) == pytest.approx(2e-3, rel=1e-6)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_block_idempotence_matches_the_dense_product(d):
    """A product of ``_blocks``, ``||Q Q - Q||`` taken block by block, is the dense one, for the
    antisymmetrizer Q and for 2Q, whose defect is ``2 ||Q||``."""
    q = sum(PARITIES[images] * _perm(d, images) for images in PARITIES) / 6.0

    def idempotence(m):
        return la._norm([b @ b - b for b in la._blocks(m, (d, d, d))])

    dense = np.linalg.norm(q @ q - q)
    assert abs(idempotence(q) - dense) <= 1e-15
    exact = 2.0 * math.sqrt(d * (d - 1) * (d - 2) / 6.0)
    assert idempotence(2.0 * q) == pytest.approx(exact, rel=1e-14, abs=1e-15)


def test_psd_defect_decides_positivity_exactly():
    """The exact LDL^T agrees with the float spectrum on integer matrices: PSD ones of every rank
    have defect 0, indefinite ones a positive defect, and an asymmetric one its largest
    |a - a^T| entry."""
    rng = np.random.default_rng(47)
    for _ in range(300):
        n, rank = rng.integers(1, 7), rng.integers(0, 7)
        g = rng.integers(-3, 4, (n, rank))
        m = g @ g.T - rng.integers(0, 2) * np.eye(n, dtype=np.int64)
        defect = la._psd_defect(m)
        assert type(defect) is Fraction
        assert (defect == 0) == (np.linalg.eigvalsh(m)[0] > -1e-9), m
    assert la._psd_defect(np.array([[0, 1], [1, 0]])) == 1
    assert la._psd_defect(np.array([[1, 0], [0, -3]])) == 3
    assert la._psd_defect(np.array([[4, 2], [2, 0]])) == 1  # Schur complement 0 - 2 * 2 / 4
    assert la._psd_defect(np.array([[2, 1], [0, 2]])) == 1


def test_conservation_test_copies_no_off_sector_entry():
    """``_conserves`` counts the nonzero entries inside the sectors against all of them, so it
    copies no off-sector entry, and it agrees with testing those entries for a nonzero one: the
    least subnormal and a purely imaginary value count, and ``-0.0`` does not."""
    m = bf.dso_general(6).entries
    tracemalloc.start()
    try:
        assert la._conserves(m, 6, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 6**6  # the off-sector copy alone took twice that
    code = la._multisets(3, 3)
    row, col = next((r, c) for r in range(27) for c in range(27) if code[r] != code[c])
    for value, conserving in ((5e-324, False), (1e-300j, False), (-0.0, True)):
        for entries in (bf.dso_general(3).entries, bf.dso_general(3).entries.real):
            off = entries.astype(np.result_type(entries, value))
            off[row, col] = value
            assert la._conserves(off, 3, 3) is conserving
            assert conserving == (not off[code[:, None] != code].any())


def test_one_asymmetric_entry_inside_a_block_is_rejected():
    """A conserving operator that is not Hermitian in a single entry, inside one block, is
    rejected both as a density operator and by ``eigenvalues``."""
    m = bf.dso_general(3).entries.copy()
    code = la._multisets(3, 3)
    row, col = next((r, c) for r in range(27) for c in range(27) if r != c and code[r] == code[c])
    m[row, col] += 1e-6
    assert la._conserves(m, 3, 3)
    t = la.TensorOperator(m, (3, 3, 3))
    with pytest.raises(ValueError, match="not Hermitian"):
        bf.DensityOperator(m, (3, 3, 3))
    with pytest.raises(ValueError, match="not Hermitian"):
        la.eigenvalues(t)


def test_non_conserving_operators_stay_dense(monkeypatch):
    """A three-factor operator with entries between sectors is checked as one dense matrix,
    by ``density_deficits`` and ``eigenvalues`` alike, and the sector indices are never
    formed."""
    t = random_hermitian(np.random.default_rng(36), (3, 3, 3))
    grouped = []
    original = la._sectors
    monkeypatch.setattr(la, "_sectors", lambda d: grouped.append(d) or original(d))
    la._layout.cache_clear()
    [whole] = la._blocks(t.entries, (3, 3, 3))
    np.testing.assert_array_equal(whole, t.entries)
    m = t.entries
    assert bf.density_deficits(t) == pytest.approx(dense_deficits(m), abs=1e-13)
    np.testing.assert_allclose(la.eigenvalues(t), np.linalg.eigvalsh(m)[::-1], atol=1e-12)
    assert grouped == []

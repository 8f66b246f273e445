"""Tests for Werner states, the permutation operators they are summed from, and source
operators."""

from __future__ import annotations

import hashlib
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import bellforge as bf
from bellforge.linalg import _dense, _layout, _multisets, _permutation, _ptrace
from bellforge.states import (
    _DSO_TWO_QUBIT,
    _P_MINUS,
    _Q,
    _permutation_sum,
    _source_sum,
    _werner_sum,
)


# The sign of each permutation of three slots, by its image tuple: slot i moves to images[i - 1].
PARITIES = {
    (1, 2, 3): 1,
    (2, 1, 3): -1,
    (1, 3, 2): -1,
    (3, 2, 1): -1,
    (2, 3, 1): 1,
    (3, 1, 2): 1,
}


def _perm(d: int, images: tuple[int, ...]) -> np.ndarray:
    """The permutation unitary as a dense matrix, its ones scattered from the index map."""
    side = d ** len(images)
    u = np.zeros((side, side))
    u[np.arange(side), _permutation((d,) * len(images), images)] = 1.0
    return u


def _square(side: int) -> tuple[np.ndarray, np.ndarray]:
    """The index arrays of every entry of a ``side``-sided matrix, broadcast as rows by columns."""
    return np.arange(side)[:, None], np.arange(side)


def _flip(d: int) -> np.ndarray:
    """The flip V on C^d (x) C^d, its one term summed."""
    return _permutation_sum(d, (((2, 1), 1),), *_square(d * d))


def _antisym(d: int) -> np.ndarray:
    """The antisymmetric projector P_minus = (I - V)/2, its table's integer sum over 2."""
    return _permutation_sum(d, _P_MINUS, *_square(d * d)) / 2


def _antisymmetrizer(d: int) -> np.ndarray:
    """The antisymmetrizer Q = sum sgn(pi) U_pi / 6, its table's integer sum over 6."""
    return _permutation_sum(d, _Q, *_square(d**3)) / 6


def _scaled_dense(d: int) -> tuple[np.ndarray, int, np.ndarray]:
    """``d^3 werner(d) = (d+1) I - d V``, the scale k and the scaled source ``k T``, written on
    dense matrices of ``_perm``: ``2I - V12 - V13`` with k = 8 at d = 2, else
    ``d^2 sum sgn(pi) U_pi + (d-2) I`` with k = d^4 (d-2)."""
    w = (d + 1) * np.eye(d * d) - d * _perm(d, (2, 1))
    if d == 2:
        return w, 8, 2 * np.eye(8) - _perm(2, (2, 1, 3)) - _perm(2, (3, 2, 1))
    signed = sum(PARITIES[images] * _perm(d, images) for images in PARITIES)
    return w, d**4 * (d - 2), d * d * signed + (d - 2) * np.eye(d**3)


def _rounded(exact, *parts: np.ndarray) -> np.ndarray:
    """``float(exact(*values))`` at each entry of the integer-valued arrays ``parts``: the exact
    rational correctly rounded, computed once per distinct tuple of values."""
    stacked = np.stack([np.asarray(p).astype(np.int64).ravel() for p in parts], axis=1)
    keys, inverse = np.unique(stacked, axis=0, return_inverse=True)
    table = np.array([float(exact(*map(int, key))) for key in keys])
    return table[inverse.ravel()].reshape(np.shape(parts[0]))


# ----------------------------------------------------------------------- flip


def test_flip_two_qubit_matrix_is_frozen_swap():
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[1, 2] = expected[2, 1] = expected[3, 3] = 1.0
    np.testing.assert_array_equal(_flip(2), expected)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_flip_involution_and_trace(d):
    v = _flip(d)
    assert np.linalg.norm(v @ v - np.eye(d * d)) <= 1e-12
    assert np.trace(v) == pytest.approx(d)
    np.testing.assert_array_equal(v, v.conj().T)


def test_flip_swaps_product_vectors():
    rng = np.random.default_rng(31)
    d = 3
    v = _flip(d)
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    np.testing.assert_allclose(v @ np.kron(x, y), np.kron(y, x), atol=1e-13)


def test_flip_rejects_small_dimension():
    with pytest.raises(ValueError, match="at least 2"):
        _permutation_sum(1, (((2, 1), 1),), *_square(1))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_antisym_projector_properties(d):
    p = _antisym(d)
    assert np.linalg.norm(p @ p - p) <= 1e-12
    np.testing.assert_array_equal(p, p.conj().T)
    assert np.trace(p) == pytest.approx(d * (d - 1) / 2)
    # the flip acts as -1 on the antisymmetric subspace
    assert np.linalg.norm(_flip(d) @ p + p) <= 1e-12


# --------------------------------------------------------------- permutations


def test_permutation_parities_are_frozen():
    """Q's terms are the six permutations in ``itertools.permutations`` order, each with the
    integer sign sgn(pi) of the table above."""
    assert [images for images, _ in _Q] == list(itertools.permutations((1, 2, 3)))
    for images, s in _Q:
        assert s == PARITIES[images]
    assert sum(PARITIES[images] for images, _ in _Q) == 0
    assert len(_Q) == 6


@pytest.mark.parametrize("d", range(2, 9))
def test_every_source_term_keeps_each_digit_multiset(d):
    """Each U_pi of the source tables maps every basis state of three factors C^d to one of the
    same digit multiset, so a sum of them has no entry between weight sectors and its block
    entries in ``_layout(d, True)`` are the whole operator."""
    code = _multisets(d, 3)
    for images, _ in (*_Q, *_DSO_TWO_QUBIT):
        assert (code[_permutation((d, d, d), images)] == code).all(), images


@pytest.mark.parametrize("d", [2, 3])
def test_permutation_operator_moves_slot_contents(d):
    rng = np.random.default_rng(32)
    vecs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(3)]
    for images in PARITIES:
        u = _perm(d, images)
        moved = [None, None, None]
        for slot in range(3):
            moved[images[slot] - 1] = vecs[slot]
        lhs = u @ np.kron(np.kron(vecs[0], vecs[1]), vecs[2])
        rhs = np.kron(np.kron(moved[0], moved[1]), moved[2])
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_permutation_operators_form_a_representation(d):
    """U_p @ U_q is the operator of ``p`` after ``q``, and parity is multiplicative."""
    ops = {images: _perm(d, images) for images in PARITIES}
    for p in PARITIES:
        for q in PARITIES:
            after = tuple(p[q[i] - 1] for i in range(3))
            assert PARITIES[after] == PARITIES[p] * PARITIES[q]
            product = ops[p] @ ops[q]
            assert np.linalg.norm(product - ops[after]) <= 1e-13


def test_permutation_operator_is_unitary():
    for images in PARITIES:
        u = _perm(3, images)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(27), atol=1e-13)


@pytest.mark.parametrize("d", [2, 3])
def test_transpositions_match_flip_constructions(d):
    """The three transposition operators factor through the bipartite flip."""
    v = _flip(d)
    one = np.eye(d)
    v12, v23 = np.kron(v, one), np.kron(one, v)
    v13 = v23 @ v12 @ v23
    for images, expected in [((2, 1, 3), v12), ((1, 3, 2), v23), ((3, 2, 1), v13)]:
        u = _perm(d, images)
        assert np.linalg.norm(u - expected) <= 1e-13


# ------------------------------------------------------------- antisymmetrizer


def _six_term_antisymmetrizer(d: int) -> np.ndarray:
    """Independent construction summing explicit basis outer products."""

    def unit(n: int, m: int) -> np.ndarray:
        e = np.zeros((d, d), dtype=complex)
        e[n, m] = 1.0
        return e

    eye = np.eye(d, dtype=complex)
    total = np.kron(np.kron(eye, eye), eye)
    for n in range(d):
        for m in range(d):
            total -= np.kron(np.kron(unit(n, m), unit(m, n)), eye)
            total -= np.kron(np.kron(eye, unit(n, m)), unit(m, n))
            total -= np.kron(np.kron(unit(n, m), eye), unit(m, n))
    for n in range(d):
        for m in range(d):
            for k in range(d):
                total += np.kron(np.kron(unit(n, m), unit(m, k)), unit(k, n))
                total += np.kron(np.kron(unit(m, n), unit(k, m)), unit(n, k))
    return total / 6.0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_antisymmetrizer_matches_six_term_expansion(d):
    q = _antisymmetrizer(d)
    oracle = _six_term_antisymmetrizer(d)
    assert np.max(np.abs(q - oracle)) <= 1e-13


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_antisymmetrizer_is_projector_with_known_trace(d):
    q = _antisymmetrizer(d)
    np.testing.assert_array_equal(q, q.conj().T)
    assert np.linalg.norm(q @ q - q) <= 1e-12
    assert np.trace(q) == pytest.approx(d * (d - 1) * (d - 2) / 6, abs=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_antisymmetrizer_commutes_with_permutations(d):
    q = _antisymmetrizer(d)
    for images, parity in PARITIES.items():
        u = _perm(d, images)
        assert np.linalg.norm(q @ u - u @ q) <= 1e-12
        # signed action: U_p Q = parity(p) Q on the antisymmetric subspace
        assert np.linalg.norm(u @ q - float(parity) * q) <= 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("j", [1, 2, 3])
def test_antisymmetrizer_partial_traces(d, j):
    q = _antisymmetrizer(d)
    target = ((d - 2) / 3.0) * _antisym(d)
    assert np.linalg.norm(_ptrace(q, (d, d, d), j) - target) <= 1e-12


def test_antisymmetrizer_vanishes_for_qubits():
    assert np.max(np.abs(_antisymmetrizer(2))) <= 1e-14


# --------------------------------------------------------------- werner state


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_werner_two_constructions_agree(d):
    w = bf.werner(d)
    alt = ((d + 1) / d**3) * np.eye(d * d) - (1.0 / d**2) * _flip(d)
    assert np.linalg.norm(w.entries - alt) <= 1e-13
    assert np.trace(w.entries) == pytest.approx(1.0, abs=1e-12)
    assert bf.eigenvalues(w)[-1] >= -bf.linalg.PSD_TOL


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_werner_spectrum_formula(d):
    vals = bf.eigenvalues(bf.werner(d))
    expected = np.concatenate(
        [
            np.full(d * (d - 1) // 2, 1.0 / d**3 + 2.0 / d**2),
            np.full(d * (d + 1) // 2, 1.0 / d**3),
        ]
    )
    np.testing.assert_allclose(vals, expected, atol=1e-13)


def test_werner_qubit_spectrum_frozen():
    vals = bf.eigenvalues(bf.werner(2))
    np.testing.assert_allclose(vals, [0.625, 0.125, 0.125, 0.125], atol=1e-14)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_werner_marginals_are_maximally_mixed(d):
    w = bf.werner(d)
    for j in (1, 2):
        reduced = _ptrace(w.entries, (d, d), j)
        assert np.linalg.norm(reduced - (1.0 / d) * np.eye(d)) <= 1e-13


def test_werner_rejects_small_dimension():
    for d in (0, 1):
        with pytest.raises(ValueError, match="at least 2"):
            bf.werner(d)


def test_singlet_is_rank_one_antisymmetric_vector():
    s = bf.singlet()
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(s.entries, np.outer(psi, psi.conj()), atol=1e-14)
    vals = bf.eigenvalues(s)
    np.testing.assert_allclose(vals, [1.0, 0.0, 0.0, 0.0], atol=1e-14)


# ------------------------------------------------------------ density operator


def test_density_operator_rejects_wrong_trace():
    with pytest.raises(ValueError, match="trace"):
        bf.DensityOperator(np.eye(4), (2, 2))


def test_density_operator_rejects_negative_eigenvalue():
    m = np.diag([1.5, -0.5, 0.0, 0.0])
    with pytest.raises(ValueError, match="negative eigenvalue"):
        bf.DensityOperator(m, (2, 2))


def test_density_operator_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 0.3
    with pytest.raises(ValueError, match="Hermitian"):
        bf.DensityOperator(m, (2, 2))


# One pair of basis states of three qutrits per block size, both in the same weight sector:
# |000> alone, |001> and |010> of the 3-state sector, |012> and |021> of the 6-state one.
SECTOR_PAIRS = {1: (0, 0), 3: (1, 3), 6: (5, 7)}


@pytest.mark.parametrize("real", [True, False])
@pytest.mark.parametrize("size", sorted(SECTOR_PAIRS))
def test_density_operator_rejects_negativity_inside_one_block(monkeypatch, size, real):
    """A weight-conserving operator whose only negative eigenvalue lies in one block of the
    given size is rejected, by a blockwise check that solves no matrix above 6 x 6."""
    i, j = SECTOR_PAIRS[size]
    m = np.eye(27, dtype=complex) / 27.0
    if size == 1:
        m[0, 0], m[13, 13] = -1e-3, 2.0 / 27.0 + 1e-3  # |111> keeps the trace at one
    else:
        m[i, j] = m[j, i] = 2.0 / 27.0
    if not real:
        m[5, 11], m[11, 5] = 0.01j, -0.01j  # |012> and |102>, in the 6-state sector
    lowest = float(np.linalg.eigvalsh(m)[0])
    assert lowest < -bf.linalg.PSD_TOL
    sides = []

    def spy(a, *args, _original=np.linalg.eigvalsh, **kwargs):
        sides.append(a.shape[-1])
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    t = bf.TensorOperator(m, (3, 3, 3))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        bf.DensityOperator(m, (3, 3, 3))
    assert abs(bf.density_deficits(t)[2] + lowest) <= 1e-15
    assert sides and max(sides) <= 6


def test_density_deficits_of_valid_state_vanish():
    asym, trace_err, neg = bf.density_deficits(bf.werner(3))
    assert asym <= 1e-15
    assert trace_err <= 1e-14
    assert neg <= 1e-14


# ------------------------------------------------------------ source operators


def test_dso_two_qubit_marginals_are_frozen():
    t = bf.dso_two_qubit()
    w2 = bf.werner(2)
    for j in (2, 3):
        assert np.linalg.norm(_ptrace(t.entries, (2, 2, 2), j) - w2.entries) <= 1e-13
    mixed = 0.25 * np.eye(4)
    assert np.linalg.norm(_ptrace(t.entries, (2, 2, 2), 1) - mixed) <= 1e-13


def test_dso_two_qubit_spectrum_frozen():
    vals = bf.eigenvalues(bf.dso_two_qubit())
    expected = [0.375, 0.375, 0.125, 0.125, 0.0, 0.0, 0.0, 0.0]
    np.testing.assert_allclose(vals, expected, atol=1e-13)


def test_dso_two_qubit_matches_permutation_route():
    """The same operator arises from signed permutation operators directly."""
    v12, v13 = _perm(2, (2, 1, 3)), _perm(2, (3, 2, 1))
    direct = 0.25 * np.eye(8) - 0.125 * v12 - 0.125 * v13
    assert np.linalg.norm(bf.dso_two_qubit().entries - direct) <= 1e-13


def test_dso_general_rejects_low_dimension():
    for d in (1, 2):
        with pytest.raises(ValueError, match=">= 3"):
            bf.dso_general(d)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_dso_general_all_marginals_equal_werner(d):
    t = bf.dso_general(d)
    w = bf.werner(d)
    assert np.trace(t.entries) == pytest.approx(1.0, abs=1e-12)
    assert bf.eigenvalues(t)[-1] >= -bf.linalg.PSD_TOL
    for j in (1, 2, 3):
        assert np.linalg.norm(_ptrace(t.entries, (d, d, d), j) - w.entries) <= 1e-12


def test_dso_general_three_dim_spectrum_frozen():
    """At d = 3 the antisymmetric subspace is one-dimensional: one eigenvalue
    1/81 + 2/3 = 55/81, the remaining 26 equal 1/81."""
    vals = bf.eigenvalues(bf.dso_general(3))
    expected = np.concatenate([[55.0 / 81.0], np.full(26, 1.0 / 81.0)])
    np.testing.assert_allclose(vals, expected, atol=1e-13)


# ------------------------------------------------- one ordered permutation sum
#
# Each named operator is one ordered sum of permutation operators.  The references below are the
# formulas written out in complex128 numpy; the sums must reproduce their entries bit for bit,
# signed zeros included.


def _flip_ref(d: int) -> bf.TensorOperator:
    return bf.TensorOperator(_perm(d, (2, 1)), (d, d))


def _antisym_ref(d: int) -> bf.TensorOperator:
    return bf.TensorOperator(0.5 * (np.eye(d * d, dtype=complex) - _flip_ref(d).entries), (d, d))


def _antisymmetrizer_ref(d: int) -> bf.TensorOperator:
    total = sum(PARITIES[images] * _perm(d, images) for images in itertools.permutations((1, 2, 3)))
    return bf.TensorOperator((1.0 / 6.0) * total, (d, d, d))


def _same_bits(a: bf.TensorOperator, b: bf.TensorOperator) -> bool:
    return a.factor_dims == b.factor_dims and a.entries.tobytes() == b.entries.tobytes()


@pytest.mark.parametrize("d", range(2, 9))
def test_bipartite_sums_match_their_formulas_bit_for_bit(d):
    werner_ref = bf.TensorOperator(
        (1.0 / d**3) * np.eye(d * d, dtype=complex) + (2.0 / d**2) * _antisym_ref(d).entries, (d, d)
    )
    assert _same_bits(bf.TensorOperator(_flip(d), (d, d)), _flip_ref(d))
    assert _same_bits(bf.TensorOperator(_antisym(d), (d, d)), _antisym_ref(d))
    assert _same_bits(bf.werner(d), werner_ref)


@pytest.mark.parametrize("d", range(2, 7))
def test_tripartite_sums_match_their_formulas_bit_for_bit(d):
    for images in PARITIES:
        reference = bf.TensorOperator(_perm(d, images), (d, d, d))
        summed = bf.TensorOperator(_permutation_sum(d, ((images, 1),), *_square(d**3)), (d, d, d))
        assert _same_bits(summed, reference)
    assert _same_bits(bf.TensorOperator(_antisymmetrizer(d), (d, d, d)), _antisymmetrizer_ref(d))


@pytest.mark.parametrize("d", range(3, 9))
def test_dso_general_matches_its_formula_bit_for_bit(d):
    """Each entry of ``dso_general(d)`` is ``(6 / (d^2 (d-2))) Q + (1/d^4) I``, summed in
    ``Fraction``s from the signed permutation sum ``6 Q`` and rounded once."""
    signed = sum(PARITIES[images] * _perm(d, images) for images in PARITIES)

    def exact(q6: int, eye: int) -> Fraction:
        return Fraction(6, d * d * (d - 2)) * Fraction(q6, 6) + Fraction(eye, d**4)

    reference = bf.TensorOperator(_rounded(exact, signed, np.eye(d**3)), (d, d, d))
    assert _same_bits(bf.dso_general(d), reference)


def test_qubit_sources_match_their_formulas_bit_for_bit():
    v12, v13 = _perm(2, (2, 1, 3)), _perm(2, (3, 2, 1))
    reference = bf.TensorOperator(0.25 * np.eye(8) - 0.125 * v12 - 0.125 * v13, (2, 2, 2))
    assert _same_bits(bf.dso_two_qubit(), reference)
    assert _same_bits(bf.singlet(), _antisym_ref(2))


def test_source_state_frees_its_integer_sum_before_validation():
    """``dso_general`` holds its int64 sum as block entries only and scatters their float
    quotient once: the peak holds the complex state, that quotient and the checks' temporaries,
    below one more d^6-entry matrix, which a dense int64 sum alone would fill."""
    bf.dso_general(6)
    tracemalloc.start()
    try:
        bf.dso_general(6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (16 + 8 + 8) * 6**6


@pytest.mark.parametrize("d", [3, 6])
def test_each_sum_constructs_one_operator(monkeypatch, d):
    """The terms are summed as raw arrays, so a named operator is one ``TensorOperator``."""
    calls = []

    def spy(self, _original=bf.TensorOperator.__post_init__):
        calls.append(self.factor_dims)
        _original(self)

    monkeypatch.setattr(bf.TensorOperator, "__post_init__", spy)
    for build in (bf.werner, bf.dso_general):
        calls.clear()
        build(d)
        assert len(calls) == 1, build.__name__


# sha256 of the entries of werner(2..6), singlet(), dso_two_qubit() and dso_general(3..6), in that
# order, as complex128 bytes.  Of these, only dso_general(5) moved (300 entries) when each state
# became its integer sum over its scale, to the correctly rounded exact value.
BUILD_DIGEST = "b3c559748fb8ac0917d858511485243d77a7012ccc4e0b08620ed37d97684dc4"


def test_float_builds_keep_their_bytes():
    states = [
        *(bf.werner(d) for d in range(2, 7)),
        bf.singlet(),
        bf.dso_two_qubit(),
        *(bf.dso_general(d) for d in range(3, 7)),
    ]
    digest = hashlib.sha256()
    for state in states:
        digest.update(state.entries.tobytes())
    assert digest.hexdigest() == BUILD_DIGEST


def test_term_tables_are_frozen():
    assert _P_MINUS == (((1, 2), 1), ((2, 1), -1))
    assert _DSO_TWO_QUBIT == (((1, 2, 3), 2), ((2, 1, 3), -1), ((3, 2, 1), -1))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_integer_sums_are_the_scaled_operators(d):
    """``verify``'s W and the block entries of its S, summed in int64 from the tables, are the
    dense formulas."""
    w, (v, scale) = _werner_sum(d), _source_sum(d)
    assert w.dtype == v.dtype == np.int64
    dense_w, dense_scale, dense_s = _scaled_dense(d)
    assert scale == dense_scale
    np.testing.assert_array_equal(w, dense_w)
    np.testing.assert_array_equal(_dense(v, _layout(d, True)), dense_s)


@pytest.mark.parametrize("d", range(2, 13))
def test_integer_sums_times_a_dyadic_scale_are_the_float_builds(d):
    """Every float build is its integer sum divided once by its scale, ``entries == m / k``, at
    every d: ``werner(d)`` over d^3, and ``dso_two_qubit()`` over 8 or ``dso_general(d)`` over
    d^4 (d-2)."""
    v, scale = _source_sum(d)
    source = bf.dso_two_qubit() if d == 2 else bf.dso_general(d)
    assert (bf.werner(d).entries == _werner_sum(d) / d**3).all()
    assert (source.entries == _dense(v, _layout(d, True)) / scale).all()


@pytest.mark.parametrize("d", range(2, 9))
def test_float_builds_are_their_exact_operators_correctly_rounded(d):
    """Every entry of ``werner(d)``, of the source (``dso_two_qubit()`` at d = 2, else
    ``dso_general(d)``) and, at d = 2, of ``singlet()`` is ``float(Fraction(m, k))`` of its
    integer entry ``m`` and scale ``k`` in the dense formulas, with a zero imaginary part."""
    w, scale, s = _scaled_dense(d)
    cases = [
        (bf.werner(d), w, d**3),
        (bf.dso_two_qubit() if d == 2 else bf.dso_general(d), s, scale),
    ]
    if d == 2:
        cases.append((bf.singlet(), np.eye(4) - _perm(2, (2, 1)), 2))
    for state, m, k in cases:
        assert (state.entries.imag == 0).all()
        assert (state.entries.real == _rounded(lambda v, k=k: Fraction(v, k), m)).all()

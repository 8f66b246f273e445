"""Tests for marginal verification and the Douglas–Rachford extension search."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import bellforge as bf
from bellforge import extensions
from bellforge import linalg as la
from bellforge.extensions import _project_marginal
from bellforge.linalg import (
    PSD_TOL, _add_embedded, _block_ptrace, _layout, _permutation, _project_density, _ptrace
)


def random_hermitian(rng: np.random.Generator, side: int) -> np.ndarray:
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    return (g + g.conj().T) / 2.0


def random_density(rng: np.random.Generator, side: int) -> np.ndarray:
    g = rng.standard_normal((side, side)) + 1j * rng.standard_normal((side, side))
    m = g @ g.conj().T
    return m / np.trace(m).real


def real_and_rotated(d: int, slots: tuple[int, ...]):
    """A feasible pattern with real targets, its image under U (x) U, and U (x) U (x) U.

    The targets are the marginals of a random real density operator of rank
    d**2.  U is a diagonal phase unitary, so the rotated targets are
    genuinely complex (unlike Werner states, which U (x) U leaves fixed).
    """
    rng = np.random.default_rng(5)
    g = rng.standard_normal((d**3, d * d))
    t = bf.TensorOperator(g @ g.T / np.trace(g @ g.T), (d, d, d))
    u = np.diag(np.exp(1j * (0.7 * np.arange(d) + 0.3 * np.arange(d) ** 2)))
    u2 = np.kron(u, u)
    real, rotated = [], []
    for j in slots:
        rho = bf.partial_trace(t, j)
        real.append((j, bf.DensityOperator(rho)))
        turned = bf.TensorOperator(u2 @ rho.entries @ u2.conj().T, (d, d))
        rotated.append((j, bf.DensityOperator(turned)))
    assert all(np.abs(rho.op.entries.imag).max() > 1e-2 for _, rho in rotated)
    return bf.MarginalPattern(tuple(real)), bf.MarginalPattern(tuple(rotated)), np.kron(u2, u)


def singlet_mixture(p: float) -> bf.DensityOperator:
    """``p * singlet + (1 - p) * I/4``."""
    return bf.DensityOperator(p * bf.singlet().op + (1.0 - p) * 0.25 * bf.identity((2, 2)))


# Images of the three factors of ``kron(Y, I)`` that move its identity to the traced slot.
SLOT_IMAGES = {1: (2, 3, 1), 2: (1, 3, 2), 3: (1, 2, 3)}


def certificate_value(cert: bf.InfeasibilityCertificate, pattern: bf.MarginalPattern) -> float:
    """``(sum_j tr(rho_j Y_j) - lambda_min(M)) / sum_j ||Y_j||_F``, via ``embed_identity``."""
    d = pattern.local_dim
    targets = dict(pattern.constraints)
    m = np.zeros((d**3, d**3), dtype=np.complex128)
    paired = 0.0
    for j, y in zip(cert.slots, cert.duals):
        m += embed_identity(y.entries, d, j)
        paired += np.trace(targets[j].op.entries @ y.entries).real
    scale = sum(np.linalg.norm(y.entries) for y in cert.duals)
    return (paired - np.linalg.eigvalsh(m)[0]) / scale


def embed_identity(b: np.ndarray, d: int, slot: int) -> np.ndarray:
    """``b`` tensored with the identity at 1-based ``slot``: ``kron(b, I)`` conjugated by the
    factor permutation that the named operators are built from, in the dtype of ``b``."""
    u = _permutation((d, d, d), SLOT_IMAGES[slot])
    return u @ np.kron(b, np.eye(d)) @ u.T


def dense(v: np.ndarray, layout) -> np.ndarray:
    """The full matrix whose block entries, in ``layout``, are ``v``."""
    m = np.zeros((layout.d**3, layout.d**3), dtype=v.dtype)
    m[layout.rows, layout.cols] = v
    return m


def one_block(d: int) -> tuple[np.ndarray, ...]:
    """The whole ``d**3`` basis as one block, the layout of targets that do not conserve weight."""
    return (np.arange(d**3)[None, :],)


def random_entries(rng: np.random.Generator, layout, real: bool) -> np.ndarray:
    """The block entries of a random Hermitian matrix: its blocks are Hermitian as well."""
    m = random_hermitian(rng, layout.d**3)
    return (m.real if real else m)[layout.rows, layout.cols]


def layouts(d: int):
    """The weight-sector layout and the one-block layout at local dimension ``d``."""
    return {"sectors": _layout(d, True), "one block": _layout(d, False)}


def density_layouts():
    """The one block of d = 2 and the weight sectors of d = 3, with their local dimensions."""
    return ((2, _layout(2, False)), (3, _layout(3, True)))


def random_pair(rng: np.random.Generator, d: int, real: bool, kind: str) -> np.ndarray:
    """A bipartite Hermitian matrix that the layout ``kind`` holds exactly once embedded.

    For the weight sectors it is zero between basis pairs of different digit multisets.
    """
    g = random_hermitian(rng, d * d)
    if kind == "sectors":
        labels = np.array([4**a + 4**b for a, b in itertools.product(range(d), repeat=2)])
        g = g * (labels[:, None] == labels[None, :])
    return g.real.copy() if real else g


# -------------------------------------------------------------------- patterns


def test_pattern_validation():
    w = bf.werner(2)
    with pytest.raises(ValueError, match="between 1 and 3"):
        bf.MarginalPattern(())
    with pytest.raises(ValueError, match="distinct"):
        bf.MarginalPattern(((2, w), (2, w)))
    with pytest.raises(ValueError, match="distinct"):
        bf.MarginalPattern(((4, w), (1, w)))
    with pytest.raises(ValueError, match="different spaces"):
        bf.MarginalPattern(((1, w), (2, bf.werner(3))))


@pytest.mark.parametrize(
    "build",
    [
        lambda i: bf.MarginalPattern(((i, bf.werner(2)),)).constraints[0][0],
        lambda i: bf.Permutation3((i, 1, 3)).images[0],
        lambda i: bf.TensorOperator(np.eye(4), (i, 2)).factor_dims[0],
    ],
    ids=["MarginalPattern", "Permutation3", "TensorOperator"],
)
def test_slots_and_dimensions_must_be_integers(build):
    for bad in (2.7, 2.0, 1.9):
        with pytest.raises(TypeError):
            build(bad)
    assert build(np.int64(2)) == 2


def test_pattern_rejects_non_bipartite_targets():
    tri = bf.DensityOperator((1.0 / 8.0) * bf.identity((2, 2, 2)))
    with pytest.raises(ValueError, match="bipartite"):
        bf.MarginalPattern(((1, tri),))


def test_pattern_helpers():
    w = bf.werner(3)
    sym = bf.pattern_sym3(w)
    right = bf.pattern_right2(w)
    assert [j for j, _ in sym.constraints] == [1, 2, 3]
    assert [j for j, _ in right.constraints] == [2, 3]
    assert sym.local_dim == 3
    assert right.local_dim == 3


# ---------------------------------------------------------- verify_marginals


def test_verify_marginals_on_known_source_operators():
    res2 = bf.verify_marginals(bf.dso_two_qubit().op, bf.pattern_right2(bf.werner(2)))
    assert max(res2) <= 1e-13
    res3 = bf.verify_marginals(bf.dso_general(3).op, bf.pattern_sym3(bf.werner(3)))
    assert max(res3) <= 1e-13
    assert len(res3) == 3


def test_verify_marginals_detects_mismatch():
    t = (1.0 / 27.0) * bf.identity((3, 3, 3))
    res = bf.verify_marginals(t, bf.pattern_sym3(bf.werner(3)))
    assert min(res) > 1e-2


def test_verify_marginals_rejects_wrong_space():
    with pytest.raises(ValueError, match="do not match"):
        bf.verify_marginals(bf.identity((2, 2, 2)), bf.pattern_sym3(bf.werner(3)))


# ------------------------------------------------------------ raw projections


def test_embed_identity_matches_reordered_kron():
    """The gather-add is ``b (x) I`` at each slot and the ``bincount`` trace is ``_ptrace``."""
    rng = np.random.default_rng(41)
    for d, real in itertools.product(range(2, 7), (True, False)):
        for kind, layout in layouts(d).items():
            b = random_pair(rng, d, real, kind)
            x = random_entries(rng, layout, real)
            for slot in (1, 2, 3):
                embedded = _add_embedded(np.zeros_like(x), b, layout, slot)
                assert embedded.dtype == x.dtype
                assert np.max(np.abs(dense(embedded, layout) - embed_identity(b, d, slot))) == 0.0
                # tracing the identity slot recovers d * b
                back = _block_ptrace(embedded, layout, slot)
                assert np.max(np.abs(back - d * b)) <= 1e-12
                reference = _ptrace(dense(x, layout), (d, d, d), slot)
                assert np.max(np.abs(_block_ptrace(x, layout, slot) - reference)) <= 1e-12


def test_marginal_projection_is_exact_and_idempotent():
    rng = np.random.default_rng(42)
    for d, real in itertools.product(range(2, 7), (True, False)):
        for kind, layout in layouts(d).items():
            target = random_pair(rng, d, real, kind)
            for j in (1, 2, 3):
                x = random_entries(rng, layout, real)
                proj, deficit = _project_marginal(x, layout, j, target)
                full = dense(proj, layout)
                assert np.max(np.abs(_ptrace(full, (d, d, d), j) - target)) <= 1e-12
                step = full - dense(x, layout)
                assert np.max(np.abs(step - embed_identity(deficit, d, j))) <= 1e-12
                again, no_deficit = _project_marginal(proj, layout, j, target)
                assert np.max(np.abs(again - proj)) <= 1e-12
                assert np.max(np.abs(no_deficit)) <= 1e-12


def test_marginal_projection_is_orthogonal():
    """The residual x - P(x) is orthogonal to differences of feasible points."""
    rng = np.random.default_rng(43)
    for d, real in itertools.product(range(2, 7), (True, False)):
        for kind, layout in layouts(d).items():
            target = random_pair(rng, d, real, kind)

            def project(x, j):
                return dense(_project_marginal(x, layout, j, target)[0], layout)

            def draw():
                return random_entries(rng, layout, real)

            for j in (1, 2, 3):
                x = draw()
                residual = dense(x, layout) - project(x, j)
                for _ in range(2):
                    inner = np.vdot(residual, project(draw(), j) - project(draw(), j))
                    assert abs(inner) <= 1e-10


def test_density_projection_returns_density_and_is_idempotent():
    rng = np.random.default_rng(44)
    for d, layout in density_layouts():
        x = random_entries(rng, layout, False)
        p = _project_density(x, layout)
        asym, trace_err, neg = bf.density_deficits(bf.TensorOperator(dense(p, layout), (d, d, d)))
        assert asym <= 1e-13 and trace_err <= 1e-12 and neg <= 1e-12
        again = _project_density(p, layout)
        assert np.max(np.abs(again - p)) <= 1e-12


def test_density_projection_is_nonexpansive_toward_densities():
    rng = np.random.default_rng(45)
    for d, layout in density_layouts():
        for _ in range(5):
            x = random_entries(rng, layout, False)
            witness = random_density(rng, d**3)
            px = dense(_project_density(x, layout), layout)
            before = np.linalg.norm(dense(x, layout) - witness)
            assert np.linalg.norm(px - witness) <= before + 1e-12


def test_density_projection_picks_nearest_point():
    rng = np.random.default_rng(46)
    for d, layout in density_layouts():
        v = random_entries(rng, layout, False)
        x, px = dense(v, layout), dense(_project_density(v, layout), layout)
        for _ in range(10):
            other = random_density(rng, d**3)
            assert np.linalg.norm(x - px) <= np.linalg.norm(x - other) + 1e-12


# ------------------------------------------------------------------- dykstra


def test_dykstra_finds_symmetric_extension_of_werner3():
    w = bf.werner(3)
    result = bf.dykstra_find_extension(bf.pattern_sym3(w), max_iters=5000, tol=1e-6)
    assert result.converged
    assert result.residual <= 1e-6
    assert result.iterations <= 5000
    assert result.candidate.factor_dims == (3, 3, 3)
    assert max(bf.verify_marginals(result.candidate, bf.pattern_sym3(w))) <= 2e-6
    asym, trace_err, neg = bf.density_deficits(result.candidate)
    assert asym <= 1e-12 and trace_err <= 1e-10 and neg <= 1e-10
    assert result.iterations == len(result.residual_trace)


def test_dykstra_finds_right_extension_of_werner2():
    w = bf.werner(2)
    result = bf.dykstra_find_extension(bf.pattern_right2(w), max_iters=500, tol=1e-8)
    assert result.converged
    assert result.residual <= 1e-8


def test_dykstra_reports_failure_on_singlet_monogamy():
    pattern = bf.pattern_right2(bf.singlet())
    result = bf.dykstra_find_extension(pattern, max_iters=400, tol=1e-6)
    assert not result.converged
    assert result.residual >= 1e-2
    assert result.stop_reason == "infeasible"
    assert result.iterations < 400
    cert = result.certificate
    assert cert.slots == (2, 3)
    assert cert.value < -PSD_TOL
    assert certificate_value(cert, pattern) < 0
    assert certificate_value(cert, pattern) == pytest.approx(cert.value, abs=1e-12)


@pytest.mark.parametrize(
    "name, p, reason",
    [
        # sym3: three pair singlet weights sum to at most 3/2, so p <= 1/3
        ("sym3", 0.3, "converged"),
        ("sym3", 0.45, "infeasible"),
        ("sym3", 0.7, "infeasible"),
        # right2: two-extendible exactly for p <= 2/3
        ("right2", 0.55, "converged"),
        ("right2", 0.7, "infeasible"),
        ("right2", 0.9, "infeasible"),
    ],
)
def test_dykstra_matches_analytic_extension_thresholds(name, p, reason):
    pattern = getattr(bf, f"pattern_{name}")(singlet_mixture(p))
    result = bf.dykstra_find_extension(pattern, max_iters=5000, tol=1e-6)
    assert result.stop_reason == reason
    if reason == "converged":
        assert result.certificate is None
        assert result.residual <= 1e-6
    else:
        assert result.certificate.value < -PSD_TOL
        assert certificate_value(result.certificate, pattern) < 0


@pytest.mark.parametrize(
    "name, p, reason, iterations",
    [
        # at or below the threshold 1/3, the density projection of the swept start is feasible
        *[("sym3", p, "converged", 1) for p in (0.3, 0.33, 0.3333, 1.0 / 3.0)],
        # just above it, the displacement of the first two iterations certifies
        *[("sym3", p, "infeasible", 2) for p in (0.3335, 0.34, 0.4)],
        *[("right2", p, "infeasible", 2) for p in (0.67, 0.7)],
    ],
)
def test_dykstra_decides_near_threshold_qubit_patterns_at_once(name, p, reason, iterations):
    pattern = getattr(bf, f"pattern_{name}")(singlet_mixture(p))
    result = bf.dykstra_find_extension(pattern, max_iters=5000, tol=1e-6)
    assert result.stop_reason == reason
    assert result.iterations <= iterations
    if reason == "converged":
        assert result.certificate is None and result.residual <= 1e-6
    else:
        assert certificate_value(result.certificate, pattern) < -PSD_TOL
        assert certificate_value(result.certificate, pattern) == pytest.approx(
            result.certificate.value, abs=1e-12
        )


def low_rank_real_state(rng: np.random.Generator, d: int, rank: int) -> bf.TensorOperator:
    """A random complex state of the given rank averaged with its conjugate: real, rank <= 2 rank."""
    g = rng.standard_normal((d**3, rank)) + 1j * rng.standard_normal((d**3, rank))
    m = (g @ g.conj().T).real
    return bf.TensorOperator(m / np.trace(m), (d, d, d))


@pytest.mark.parametrize("d, rank", [(2, 2), (3, 2), (3, 4)])
def test_dykstra_converges_on_low_rank_feasible_marginals(d, rank):
    """Slot-1 and slot-3 marginals of low-rank real states: extensions on the PSD boundary."""
    rng = np.random.default_rng(10 * d + rank)
    for _ in range(10):
        t = low_rank_real_state(rng, d, rank)
        pattern = bf.MarginalPattern(
            tuple((j, bf.DensityOperator(bf.partial_trace(t, j))) for j in (1, 3))
        )
        result = bf.dykstra_find_extension(pattern, max_iters=200, tol=1e-6)
        assert result.stop_reason == "converged"
        assert result.certificate is None and result.residual <= 1e-6


def product_with_zero(d: int) -> bf.DensityOperator:
    """``|0><0| (x) I/d``, whose two one-party marginals differ."""
    zero = np.zeros((d, d))
    zero[0, 0] = 1.0
    return bf.DensityOperator(bf.TensorOperator(np.kron(zero, np.eye(d) / d), (d, d)))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "make_pattern",
    [
        lambda d: bf.pattern_sym3(product_with_zero(d)),
        lambda d: bf.MarginalPattern(((2, bf.werner(d)), (3, product_with_zero(d)))),
    ],
    ids=["sym3", "right2"],
)
def test_dykstra_certifies_disagreeing_targets_before_iterating(make_pattern, d):
    """Two targets that disagree on the factor they share leave the marginal set empty."""
    pattern = make_pattern(d)
    result = bf.dykstra_find_extension(pattern, max_iters=5000, tol=1e-6)
    assert result.stop_reason == "infeasible"
    assert result.iterations == 0 and result.residual_trace == ()
    cert = result.certificate
    assert cert.slots == tuple(j for j, _ in pattern.constraints)
    assert cert.value < -PSD_TOL
    assert certificate_value(cert, pattern) == pytest.approx(cert.value, abs=1e-12)
    # the candidate is the start: the first target with I/d on its traced factor
    first_slot, first = pattern.constraints[0]
    start = embed_identity(first.op.entries / d, d, first_slot)
    assert np.max(np.abs(result.candidate.entries - start)) <= 1e-15
    assert result.residual == pytest.approx(max(bf.verify_marginals(result.candidate, pattern)))


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("slots", [(1, 2, 3), (2, 3)], ids=["sym3", "right2"])
def test_dykstra_never_certifies_feasible_marginals(d, slots):
    rng = np.random.default_rng(60 + d + len(slots))
    for _ in range(4):
        t = bf.TensorOperator(random_density(rng, d**3), (d, d, d))
        pattern = bf.MarginalPattern(
            tuple((j, bf.DensityOperator(bf.partial_trace(t, j))) for j in slots)
        )
        result = bf.dykstra_find_extension(pattern, max_iters=5000, tol=1e-6)
        assert result.stop_reason == "converged"
        assert result.certificate is None


def test_dykstra_stops_at_max_iters_without_proof():
    result = bf.dykstra_find_extension(bf.pattern_right2(bf.werner(4)), max_iters=5, tol=1e-6)
    assert result.stop_reason == "max_iters"
    assert not result.converged and result.certificate is None
    assert result.iterations == len(result.residual_trace) == 5
    # the reported residual adds the PSD deficit to a per-cycle value
    assert result.residual >= min(result.residual_trace)


def test_dykstra_eigensolver_calls_stay_logarithmic(monkeypatch):
    """One ``eigh`` per iteration and block size (the density projection), ``eigvalsh`` on a log
    schedule after at most one check per pair of constraints.

    ``werner(3)`` conserves weight, so its sectors come in sizes 1, 3 and 6 and each
    eigensolve is one call per size above 1; the rotated pattern runs as one block.
    Real targets run every eigensolve in real arithmetic, complex ones in complex.
    """
    dtypes = {"eigh": [], "eigvalsh": []}
    for name in dtypes:

        def counted(a, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
            dtypes[_name].append(a.dtype)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    _, rotated, _ = real_and_rotated(3, (1, 2, 3))
    cases = ((bf.pattern_sym3(bf.werner(3)), np.float64, 2), (rotated, np.complex128, 1))
    for pattern, dtype, solves in cases:
        for seen in dtypes.values():
            seen.clear()
        result = bf.dykstra_find_extension(pattern, max_iters=5000, tol=1e-6)
        assert result.converged
        assert len(dtypes["eigh"]) == solves * result.iterations
        checks = 2 * math.ceil(math.log2(result.iterations)) + 4
        assert len(dtypes["eigvalsh"]) <= solves * checks
        assert set(dtypes["eigh"]) == set(dtypes["eigvalsh"]) == {np.dtype(dtype)}
        assert result.candidate.entries.dtype == np.complex128


def sector_oracle(d: int) -> dict[tuple[int, ...], list[int]]:
    """Basis indices of the d**3 product basis grouped by their sorted digits."""
    sectors: dict[tuple[int, ...], list[int]] = {}
    for index, digits in enumerate(itertools.product(range(d), repeat=3)):
        sectors.setdefault(tuple(sorted(digits)), []).append(index)
    return sectors


def raw_targets(pattern: bf.MarginalPattern) -> tuple[tuple[int, np.ndarray], ...]:
    return tuple((j, rho.op.entries) for j, rho in pattern.constraints)


def search_layout(pattern: bf.MarginalPattern):
    """The layout that a search for ``pattern`` stores its iterates in, seen at one cycle."""
    built = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extensions, "_layout", lambda *args: built.append(_layout(*args)) or built[-1])
        bf.dykstra_find_extension(pattern, max_iters=1)
    return built[0]


def blocks_of(layout) -> tuple[np.ndarray, ...]:
    """The basis indices of the blocks of ``layout``, a (blocks, size) array per chunk."""
    return tuple(layout.rows[a:b].reshape(shape)[:, :, 0] for a, b, shape in layout.chunks)


def factor3_pattern(m: np.ndarray) -> bf.MarginalPattern:
    """The one constraint that tracing out factor 3 leaves the density matrix ``m``."""
    d = math.isqrt(m.shape[0])
    return bf.MarginalPattern(((3, bf.DensityOperator(bf.TensorOperator(m, (d, d)))),))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_weight_sectors_group_basis_states_by_digit_multiset(d):
    sectors = blocks_of(search_layout(bf.pattern_sym3(bf.werner(d))))
    found = sorted(sorted(block.tolist()) for idx in sectors for block in idx)
    assert found == sorted(sector_oracle(d).values())
    assert [idx.shape[1] for idx in sectors] == sorted({len(v) for v in sector_oracle(d).values()})
    rng = np.random.default_rng(d)
    classical = bf.DensityOperator(bf.TensorOperator(np.diag(rng.dirichlet(np.ones(d * d))), (d, d)))
    diagonal = blocks_of(search_layout(bf.pattern_right2(classical)))
    assert len(diagonal) == len(sectors)
    assert all(np.array_equal(a, b) for a, b in zip(diagonal, sectors))


def is_one_block(sectors: tuple[np.ndarray, ...], d: int) -> bool:
    return len(sectors) == 1 and np.array_equal(sectors[0], one_block(d)[0])


def test_weight_sectors_fall_back_to_one_block():
    real, rotated, _ = real_and_rotated(3, (1, 2, 3))
    assert is_one_block(blocks_of(search_layout(real)), 3)
    assert is_one_block(blocks_of(search_layout(rotated)), 3)
    # One entry pair between different multisets, |01> and |02>, is enough.
    mixed = np.eye(9) / 9
    mixed[1, 2] = mixed[2, 1] = 0.01
    assert is_one_block(blocks_of(search_layout(factor3_pattern(mixed))), 3)
    mixed[1, 2] = mixed[2, 1] = 0.0
    assert not is_one_block(blocks_of(search_layout(factor3_pattern(mixed))), 3)


SECTOR_STATES = {
    **{f"werner{d}": (lambda d=d: bf.werner(d)) for d in range(2, 7)},
    "singlet": bf.singlet,
}


@pytest.mark.parametrize("make_pattern", [bf.pattern_sym3, bf.pattern_right2])
@pytest.mark.parametrize("state", sorted(SECTOR_STATES))
def test_weight_sectors_change_no_search_outcome(monkeypatch, state, make_pattern):
    """The blockwise search and the one-block search agree up to rounding."""
    pattern = make_pattern(SECTOR_STATES[state]())
    d = pattern.local_dim
    assert not is_one_block(blocks_of(search_layout(pattern)), d)
    blocked = bf.dykstra_find_extension(pattern, max_iters=5000, tol=1e-6)
    monkeypatch.setattr(extensions, "_layout", lambda d, conserving: _layout(d, False))
    whole = bf.dykstra_find_extension(pattern, max_iters=5000, tol=1e-6)
    assert blocked.stop_reason == whole.stop_reason
    assert blocked.iterations == whole.iterations
    assert abs(blocked.residual - whole.residual) <= 1e-12
    assert np.max(np.abs(blocked.candidate.entries - whole.candidate.entries)) <= 1e-12


@pytest.mark.parametrize("d, slots", [(2, (2, 3)), (3, (1, 2, 3)), (3, (2, 3))])
def test_dykstra_real_and_complex_paths_agree(d, slots):
    """A local phase rotation of real targets gives the same run in complex arithmetic."""
    real, rotated, u3 = real_and_rotated(d, slots)
    a = bf.dykstra_find_extension(real, max_iters=5000, tol=1e-6)
    b = bf.dykstra_find_extension(rotated, max_iters=5000, tol=1e-6)
    assert a.stop_reason == b.stop_reason == "converged"
    assert a.iterations == b.iterations > 1
    assert abs(a.residual - b.residual) <= 1e-12
    turned = u3 @ a.candidate.entries @ u3.conj().T
    assert np.max(np.abs(turned - b.candidate.entries)) <= 1e-9


def test_dykstra_residual_trace_samples_non_increasing():
    w = bf.werner(3)
    feasible = bf.dykstra_find_extension(bf.pattern_sym3(w), max_iters=5000, tol=1e-12)
    s = bf.singlet()
    stuck = bf.dykstra_find_extension(bf.pattern_right2(s), max_iters=1000, tol=1e-12)
    for trace in (feasible.residual_trace, stuck.residual_trace):
        samples = trace[::50]
        for earlier, later in zip(samples, samples[1:]):
            assert later <= earlier + 1e-9


def test_dykstra_is_deterministic():
    w = bf.werner(3)
    a = bf.dykstra_find_extension(bf.pattern_sym3(w), max_iters=200, tol=1e-7)
    b = bf.dykstra_find_extension(bf.pattern_sym3(w), max_iters=200, tol=1e-7)
    assert a.residual == b.residual
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.candidate.entries, b.candidate.entries)


def test_dykstra_matches_differing_targets():
    """Each constraint keeps its own target: dso_two_qubit witnesses this pattern."""
    w = bf.werner(2)
    mixed = bf.DensityOperator(0.25 * bf.identity((2, 2)))
    pattern = bf.MarginalPattern(((1, mixed), (2, w), (3, w)))
    assert max(bf.verify_marginals(bf.dso_two_qubit().op, pattern)) <= 1e-13
    tol = 1e-6
    result = bf.dykstra_find_extension(pattern, max_iters=5000, tol=tol)
    assert result.converged
    assert max(bf.verify_marginals(result.candidate, pattern)) <= tol


def test_dykstra_rejects_large_dimension():
    w7 = bf.werner(7)
    with pytest.raises(ValueError, match="outside"):
        bf.dykstra_find_extension(bf.pattern_sym3(w7), max_iters=10, tol=1e-6)


def test_dykstra_rejects_unit_dimension():
    trivial = bf.DensityOperator(bf.TensorOperator(np.ones((1, 1)), (1, 1)))
    with pytest.raises(ValueError, match="outside"):
        bf.dykstra_find_extension(bf.MarginalPattern(((1, trivial),)), max_iters=10, tol=1e-6)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_dykstra_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="finite and positive"):
        bf.dykstra_find_extension(bf.pattern_right2(bf.werner(2)), max_iters=10, tol=tol)


def test_dykstra_rejects_bad_iteration_count():
    w = bf.werner(2)
    with pytest.raises(ValueError, match="positive"):
        bf.dykstra_find_extension(bf.pattern_right2(w), max_iters=0, tol=1e-6)


def test_dykstra_rejects_non_integer_iteration_count(monkeypatch):
    """A float cycle count fails before the layout is chosen, not inside the loop."""
    found = []
    monkeypatch.setattr(bf.extensions, "_layout", lambda *args: found.append(args))
    with pytest.raises(TypeError):
        bf.dykstra_find_extension(bf.pattern_right2(bf.werner(2)), max_iters=2.5, tol=1e-6)
    assert not found


def dense_ptrace(m: np.ndarray, d: int, j: int) -> np.ndarray:
    return np.trace(m.reshape((d,) * 6), axis1=j - 1, axis2=j + 2).reshape(d * d, d * d)


def lowest_eigenvalue(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def nearest_density(m: np.ndarray) -> np.ndarray:
    """Full-matrix ``eigh``, then the sort-based simplex projection of the whole spectrum."""
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    u = np.sort(vals)[::-1]
    excess = np.cumsum(u) - 1.0
    k = np.nonzero(u > excess / np.arange(1, u.size + 1))[0][-1]
    p = (vecs * np.maximum(vals - excess[k] / (k + 1), 0.0)) @ vecs.conj().T
    return (p + p.conj().T) / 2.0


def textbook_douglas_rachford(
    pattern: bf.MarginalPattern, max_iters: int, tol: float
) -> bf.FeasibilityResult:
    """The search on dense matrices, as Douglas–Rachford splitting is stated.

    It calls no helper of the search: embeddings come from ``embed_identity``, the density
    projection from one full-matrix ``eigh``, and ``lambda_min`` from a dense ``eigvalsh``.
    The duals are peeled off the displacement ``r = c - a`` as ``Y_j = ptr_j(r) / d``, then
    ``r -= Y_j (x) I`` at j.  It has no check of the targets' one-party marginals, so it
    stands for the search only on targets that agree on them.
    """
    d = pattern.local_dim
    targets = raw_targets(pattern)
    if not any(target.imag.any() for _, target in targets):
        targets = tuple((j, target.real.copy()) for j, target in targets)

    def sweep(x):
        for j, target in targets:
            x = x + embed_identity((target - dense_ptrace(x, d, j)) / d, d, j)
        return x

    def cheap(x):
        errors = [np.linalg.norm(dense_ptrace(x, d, j) - target) for j, target in targets]
        return float(max(errors)) + abs(complex(np.trace(x)) - 1.0)

    def residual(x):
        return cheap(x) + max(0.0, -lowest_eigenvalue(x))

    def certificate(r):
        duals = []
        for j, _ in targets:
            y = dense_ptrace(r, d, j) / d
            r = r - embed_identity(y, d, j)
            duals.append((y + y.conj().T) / 2.0)
        scale = sum(float(np.linalg.norm(y)) for y in duals)
        if scale == 0.0:
            return None
        combined = sum(embed_identity(y, d, j) for y, (j, _) in zip(duals, targets))
        paired = sum(float(np.vdot(y, target).real) for y, (_, target) in zip(duals, targets))
        value = (paired - lowest_eigenvalue(combined)) / scale
        if not value < -PSD_TOL:
            return None
        return bf.InfeasibilityCertificate(
            slots=tuple(j for j, _ in targets),
            duals=tuple(bf.TensorOperator(y, (d, d)) for y in duals),
            value=value,
        )

    best = embed_identity(targets[0][1] / d, d, targets[0][0])
    z, best_cheap, converged, found = sweep(best), math.inf, False, None
    for iterations in range(1, max_iters + 1):
        a = sweep(z)
        c = nearest_density(2.0 * a - z)
        current = cheap(c)
        if current < best_cheap:
            best, best_cheap = c, current
        if current <= tol and residual(c) <= tol:
            best, converged = c, True
            break
        if iterations & (iterations - 1) == 0:
            found = certificate(c - a)
            if found is not None:
                break
        z = z + c - a
    return bf.FeasibilityResult(
        candidate=bf.TensorOperator(best, (d, d, d)),
        residual=residual(best),
        iterations=iterations,
        converged=converged,
        residual_trace=(),
        certificate=found,
    )


DUAL_CASES = {
    "werner3-sym3": lambda: bf.pattern_sym3(bf.werner(3)),
    "werner4-right2": lambda: bf.pattern_right2(bf.werner(4)),
    "singlet-right2": lambda: bf.pattern_right2(bf.singlet()),
    "werner2-sym3": lambda: bf.pattern_sym3(bf.werner(2)),
    "sym3-p0.45": lambda: bf.pattern_sym3(singlet_mixture(0.45)),
    "right2-p0.7": lambda: bf.pattern_right2(singlet_mixture(0.7)),
    "rotated-sym3": lambda: real_and_rotated(3, (1, 2, 3))[1],
}


# The seven searches of the benchmark's ``extend-converge`` and ``extend-stall``
# workloads, at the CLI defaults, with the stop reason and iteration count of each.
BENCHMARK_SEARCHES = {
    **{
        f"werner{d}-sym3": (lambda d=d: bf.pattern_sym3(bf.werner(d)), "converged", iterations)
        for d, iterations in ((3, 10), (4, 12), (5, 11), (6, 3))
    },
    "werner4-right2": (lambda: bf.pattern_right2(bf.werner(4)), "converged", 19),
    "singlet-right2": (lambda: bf.pattern_right2(bf.singlet()), "infeasible", 1),
    "werner2-sym3": (lambda: bf.pattern_sym3(bf.werner(2)), "infeasible", 1),
}


@pytest.mark.parametrize("case", sorted(BENCHMARK_SEARCHES))
def test_benchmark_searches_keep_their_outcomes(case):
    """A faster search must take the same path: same stop reason after the same iterations."""
    make_pattern, reason, iterations = BENCHMARK_SEARCHES[case]
    result = bf.dykstra_find_extension(make_pattern(), max_iters=5000, tol=1e-6)
    assert (result.stop_reason, result.iterations) == (reason, iterations)


def reference_weight_sectors(d: int, targets) -> tuple[np.ndarray, ...]:
    """The weight sectors as ``extensions`` grouped them itself, before ``linalg`` owned them."""
    weight = 4 ** np.arange(d)
    pair = (weight[:, None] + weight[None, :]).ravel()
    if any(target[pair[:, None] != pair[None, :]].any() for _, target in targets):
        return (np.arange(d**3)[None, :],)
    triple = (pair[:, None] + weight[None, :]).ravel()
    order = np.argsort(triple, kind="stable")
    _, starts, sizes = np.unique(triple[order], return_index=True, return_counts=True)
    by_size: dict[int, list[np.ndarray]] = {}
    for start, size in zip(starts, sizes):
        by_size.setdefault(int(size), []).append(order[start : start + size])
    return tuple(np.array(by_size[size]) for size in sorted(by_size))


def reference_layout(pattern: bf.MarginalPattern):
    """``linalg``'s layout built, past its cache, on the reference's blocks for ``pattern``."""
    blocks = reference_weight_sectors(pattern.local_dim, raw_targets(pattern))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(la, "_sectors", lambda d: blocks)
        return la._layout.__wrapped__(pattern.local_dim, True)


@pytest.mark.parametrize("conserving", [True, False])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_weight_sectors_keep_the_reference_layout(d, conserving):
    """Built on ``linalg``'s sectors, the layout equals the reference's entry for entry."""
    pattern = bf.pattern_sym3(bf.werner(d))
    if not conserving:
        mixed = np.eye(d * d) / (d * d)
        mixed[0, 1] = mixed[1, 0] = 0.01  # |00> and |01> hold different multisets
        pattern = factor3_pattern(mixed)
    ours = search_layout(pattern)
    reference = reference_layout(pattern)
    assert is_one_block(blocks_of(ours), d) is not conserving
    assert (ours.d, ours.chunks) == (reference.d, reference.chunks)
    pairs = [(ours.rows, reference.rows), (ours.cols, reference.cols)]
    pairs += [(ours.diagonal, reference.diagonal)]
    pairs += [p for a, b in zip(ours.traced, reference.traced, strict=True) for p in zip(a, b)]
    for a, b in pairs:
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("case", sorted(BENCHMARK_SEARCHES))
def test_benchmark_searches_match_reference_sectors_bit_for_bit(monkeypatch, case):
    """The 7 benchmark searches run on the same blocks as before ``linalg`` owned them."""
    pattern = BENCHMARK_SEARCHES[case][0]()
    ours = bf.dykstra_find_extension(pattern, max_iters=5000, tol=1e-6)
    layout = reference_layout(pattern)
    monkeypatch.setattr(extensions, "_layout", lambda d, conserving: layout)
    reference = bf.dykstra_find_extension(pattern, max_iters=5000, tol=1e-6)
    assert (ours.stop_reason, ours.iterations) == (reference.stop_reason, reference.iterations)
    assert ours.residual == reference.residual
    np.testing.assert_array_equal(ours.candidate.entries, reference.candidate.entries)


@pytest.mark.parametrize("case", sorted(DUAL_CASES))
def test_bipartite_duals_match_full_corrections(case):
    """The block-entry search, with bipartite duals peeled off its displacement, runs the same
    search as dense textbook Douglas–Rachford, which peels them off the full matrix."""
    pattern = DUAL_CASES[case]()
    ours = bf.dykstra_find_extension(pattern, max_iters=5000, tol=1e-6)
    reference = textbook_douglas_rachford(pattern, max_iters=5000, tol=1e-6)
    assert ours.stop_reason == reference.stop_reason
    assert ours.iterations == reference.iterations
    assert abs(ours.residual - reference.residual) <= 1e-12
    assert np.max(np.abs(ours.candidate.entries - reference.candidate.entries)) <= 1e-12
    assert (ours.certificate is None) == (reference.certificate is None)
    if ours.certificate is not None:
        assert ours.certificate.slots == reference.certificate.slots
        assert abs(ours.certificate.value - reference.certificate.value) <= 1e-12
        for y, z in zip(ours.certificate.duals, reference.certificate.duals):
            assert np.max(np.abs(y.entries - z.entries)) <= 1e-12


@pytest.mark.parametrize("case", ["werner3-sym3", "werner4-right2", "singlet-right2"])
def test_partial_trace_count_is_exact(monkeypatch, case):
    """Per constraint, the search traces once to sweep the start, twice per iteration (to
    project and to assess), once per certificate check (to peel) and once per full residual:
    at each iteration whose cheap residual passes ``tol`` and, unless converged, at the end.
    The check of the targets' one-party marginals takes none."""
    calls = 0

    def counted(*args, _original=extensions._block_ptrace):
        nonlocal calls
        calls += 1
        return _original(*args)

    monkeypatch.setattr(extensions, "_block_ptrace", counted)
    pattern = DUAL_CASES[case]()
    result = bf.dykstra_find_extension(pattern, max_iters=5000, tol=1e-6)
    k, n = len(pattern.constraints), result.iterations
    # Certificates are checked at iterations 1, 2, 4, ..., but not at the one that converged.
    checks = n.bit_length() - (result.converged and n & (n - 1) == 0)
    full = sum(r <= 1e-6 for r in result.residual_trace) + (not result.converged)
    assert n >= 1 and calls == k * (1 + 2 * n + checks + full)


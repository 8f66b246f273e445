"""Tests for correlation functionals and the see-saw optimizers."""

from __future__ import annotations

import math

import numpy as np
import pytest

import bellforge as bf
from bellforge import Observable, SeeSawConfig, TensorOperator
from bellforge import bell
from bellforge.linalg import _ptrace

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def obs(matrix: np.ndarray, label: str = "") -> Observable:
    return Observable(TensorOperator(matrix, (matrix.shape[0],)), label)


def maximally_mixed(d: int) -> bf.DensityOperator:
    return bf.DensityOperator((1.0 / d**2) * np.eye(d * d), (d, d))


def random_observable(d: int, seed: int, label: str = "w") -> Observable:
    """The start observable that the see-saw draws first from stream ``seed``."""
    return obs(bell._draw_observables(d, [seed], 2)[0, 0], label)


# ------------------------------------------------------------------ observable


def test_observable_accepts_unit_norm_hermitian():
    o = obs(SIGMA_Z, "a")
    assert o.op.factor_dims == (2,)
    assert o.label == "a"


def test_observable_rejects_large_norm():
    with pytest.raises(ValueError, match="exceeds 1"):
        obs(2.0 * SIGMA_Z)


def test_observable_rejects_non_hermitian():
    with pytest.raises(ValueError, match="asymmetry"):
        obs(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_observable_rejects_multi_factor_operator():
    with pytest.raises(ValueError, match="one factor"):
        Observable(TensorOperator(np.eye(4), (2, 2)))


def test_observable_allows_zero_matrix():
    assert obs(np.zeros((3, 3))).op.factor_dims == (3,)


# ------------------------------------------------------------ random sampling


def test_random_observable_is_deterministic():
    a = random_observable(3, seed=7)
    b = random_observable(3, seed=7)
    np.testing.assert_array_equal(a.op.entries, b.op.entries)
    c = random_observable(3, seed=8)
    assert np.max(np.abs(a.op.entries - c.op.entries)) > 1e-3


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_random_observable_norm_bounded(d):
    for w in bell._draw_observables(d, range(1000), 2)[:, 0]:
        assert bf.operator_norm(TensorOperator(w, (d,))) <= 1.0 + 1e-12


MASK = 2**64 - 1


def splitmix_words(seed: int, count: int) -> list[int]:
    """Words ``mix(mix(seed ^ key) + (k+1)·γ)``, ``0 <= k < count``, of SplitMix64 (``mix`` its
    finalizer, ``γ`` its Weyl increment) in Python integers: the reference start stream."""

    def mix(z: int) -> int:
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    start = mix(seed ^ bell._START_KEY)
    return [mix((start + (k + 1) * 0x9E3779B97F4A7C15) & MASK) for k in range(count)]


def scalar_draw(d: int, seed: int) -> np.ndarray:
    """The two read starts of ``seed`` from its ``4d²`` words of the start stream, by a scalar
    ``math`` Box–Muller per pair of words, each start made Hermitian and scaled to unit Frobenius
    norm on its own: the reference for the stacked draw."""
    size = d * d
    u = [((w >> 11) + 0.5) * 2.0**-53 for w in splitmix_words(seed, 4 * size)]
    starts = []
    for trig in (math.cos, math.sin):
        g = [
            math.sqrt(-2.0 * math.log(p)) * trig(2.0 * math.pi * q)
            for p, q in zip(u[: 2 * size], u[2 * size :])
        ]
        m = np.array(g[:size]).reshape(d, d) + 1.0j * np.array(g[size:]).reshape(d, d)
        h = (m + m.conj().T) / 2.0
        starts.append(h / np.linalg.norm(h))
    return np.array(starts)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("height", [1, 3, 4])
def test_draw_matches_per_matrix_draw(d, height):
    """Stacks of ``height`` seeds draw what a scalar Box–Muller over each seed's own words of a
    Python-integer SplitMix64 does, at the first 60 seeds and the last 60 below ``2**64``; each
    start is exactly Hermitian with unit Frobenius norm, so ``Observable`` accepts it, and a
    seed's starts are the same bits alone or in any stack.  The draw makes the words of the d it
    is given, so d = 7, above the command line's cap, draws too."""
    for seeds in (range(60), range(2**64 - 60, 2**64)):
        drawn = np.concatenate(
            [bell._draw_observables(d, seeds[i : i + height], 2) for i in range(0, 60, height)]
        )
        reference = np.array([scalar_draw(d, seed) for seed in seeds])
        np.testing.assert_allclose(drawn, reference, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(drawn, bell._draw_observables(d, seeds, 2))
        np.testing.assert_array_equal(drawn, drawn.conj().swapaxes(-1, -2))
        np.testing.assert_allclose(
            np.linalg.norm(drawn, axis=(-2, -1)), 1.0, rtol=0.0, atol=1e-15
        )
        for w in drawn[:5].reshape(-1, d, d):
            obs(w)


@pytest.mark.parametrize("d", [2, 6])
def test_seeds_draw_distinct_starts(d):
    """No two of the 20 000 starts that seeds 0-9999 draw are equal."""
    starts = bell._draw_observables(d, range(10_000), 2).reshape(-1, d * d)
    assert len(np.unique(starts, axis=0)) == len(starts)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_stacks_draw_the_rows_of_one_draw(d):
    """A seed's starts do not depend on the height of its stack or its place in it: stacks of
    1, 3, 7 and 50 seeds at every offset give one 300-seed draw's rows bit for bit."""
    whole = bell._draw_observables(d, range(300), 2)
    for height in (1, 3, 7, 50):
        for first in range(300 - height + 1):
            stack = bell._draw_observables(d, range(first, first + height), 2)
            np.testing.assert_array_equal(stack, whole[first : first + height])


@pytest.mark.parametrize("d", [2, 6])
def test_draw_is_finite(d):
    """No word maps to a zero uniform, so every entry of 10 000 seeds' starts is finite, up to
    the last seed a configuration admits."""
    assert np.isfinite(bell._draw_observables(d, range(10_000), 2)).all()
    assert np.isfinite(bell._draw_observables(d, range(2**64 - 50, 2**64), 2)).all()


def test_random_observable_mean_is_centered():
    n = 10_000
    mean = bell._draw_observables(2, range(n), 2)[:, 0].mean(axis=0)
    # each entry has standard deviation below 1, so 5 sigma of the mean is 5/sqrt(n)
    assert np.max(np.abs(mean)) <= 5.0 / math.sqrt(n)


@pytest.mark.parametrize("unread", [1, 2])
@pytest.mark.parametrize("d", [2, 3, 6])
def test_unread_draws_keep_the_stream_and_the_read_starts(d, unread):
    """Slots before the last two, which a sweep overwrites before it reads them, take no draw
    and stay zero; the two read starts are a two-slot draw's, bit for bit."""
    seeds = range(40)
    drawn = bell._draw_observables(d, seeds, unread + 2)
    assert drawn.shape == (40, unread + 2, d, d)
    assert not drawn[:, :unread].any()
    np.testing.assert_array_equal(drawn[:, unread:], bell._draw_observables(d, seeds, 2))


SEESAWS = {"original": bf.seesaw_original_bell, "chsh": bf.seesaw_chsh}


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("functional", sorted(SEESAWS))
def test_seesaw_never_reads_the_unclamped_starts(monkeypatch, functional, d):
    """A sweep overwrites ``a`` (``a1``, ``a2``) before it reads it: NaN there changes no bit."""
    cfg = SeeSawConfig(restarts=8, base_seed=4)
    expected = SEESAWS[functional](bf.werner(d), cfg)
    poisoned = []

    def draw(*args, _original=bell._draw_observables, **kwargs):
        starts = _original(*args, **kwargs)
        starts[:, :-2] = np.nan
        poisoned.append(starts.shape)
        return starts

    monkeypatch.setattr(bell, "_draw_observables", draw)
    got = SEESAWS[functional](bf.werner(d), cfg)
    assert poisoned
    assert got.best_value == expected.best_value
    assert (got.sweeps_used, got.restart_index) == (expected.sweeps_used, expected.restart_index)
    assert got.value_trace == expected.value_trace
    for a, b in zip(got.observables, expected.observables, strict=True):
        assert a.label == b.label
        np.testing.assert_array_equal(a.op.entries, b.op.entries)


@pytest.mark.parametrize("functional", sorted(SEESAWS))
def test_seesaw_maps_only_by_the_spectral_sign(monkeypatch, functional):
    """No start is clamped: every spectral map of a 50-restart search is an update's sign."""
    maps = []

    def spectral_map(m, f, _original=bell._spectral_map):
        maps.append(f)
        return _original(m, f)

    monkeypatch.setattr(bell, "_spectral_map", spectral_map)
    SEESAWS[functional](bf.werner(3), SeeSawConfig(restarts=50))
    assert maps and all(f is bell._signs for f in maps)


# ------------------------------------------------------------------ correlation


def test_singlet_anticorrelation_is_frozen():
    value = bf.correlation(bf.singlet(), obs(SIGMA_Z), obs(SIGMA_Z))
    assert value == pytest.approx(-1.0, abs=1e-12)
    assert bf.correlation(bf.singlet(), obs(SIGMA_X), obs(SIGMA_X)) == pytest.approx(-1.0, abs=1e-12)


def test_correlation_factorizes_on_product_states():
    rng = np.random.default_rng(51)
    for _ in range(3):
        g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        g2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        r1 = g1 @ g1.conj().T
        r1 /= np.trace(r1).real
        r2 = g2 @ g2.conj().T
        r2 /= np.trace(r2).real
        rho = bf.DensityOperator(np.kron(r1, r2), (2, 2))
        a = random_observable(2, seed=int(rng.integers(10_000)))
        b = random_observable(2, seed=int(rng.integers(10_000)))
        expected = np.trace(r1 @ a.op.entries).real * np.trace(r2 @ b.op.entries).real
        assert bf.correlation(rho, a, b) == pytest.approx(expected, abs=1e-12)


def test_correlation_on_werner3_diagonal_observables():
    """Closed form ((d+1)/d^3) tr(A) tr(B) - (1/d^2) tr(AB) gives -2/9 here."""
    a = obs(np.diag([1.0, -1.0, 0.0]))
    value = bf.correlation(bf.werner(3), a, a)
    assert value == pytest.approx(-2.0 / 9.0, abs=1e-13)


def test_correlation_bounded_by_one():
    rng = np.random.default_rng(52)
    w = bf.werner(3)
    for seed in range(20):
        a = random_observable(3, seed=seed)
        b = random_observable(3, seed=1000 + seed)
        assert abs(bf.correlation(w, a, b)) <= 1.0 + 1e-12


def test_correlation_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        bf.correlation(bf.werner(3), obs(SIGMA_Z), random_observable(3, 1))
    qutrit, qubit = random_observable(3, 1, ""), obs(SIGMA_Z)
    with pytest.raises(ValueError, match="observable b has dimension 2, state needs 3"):
        bf.original_bell_gap(bf.werner(3), qutrit, qutrit, qubit)
    with pytest.raises(ValueError, match="observable a has dimension 2, state needs 3"):
        bf.chsh_value(bf.werner(3), qutrit, qubit, qutrit, qutrit)
    with pytest.raises(ValueError, match="observable b2 has dimension 3, state needs 2"):
        bf.chsh_value(bf.werner(2), qubit, qubit, qubit, random_observable(3, 1, "b2"))


# ------------------------------------------------------------------- gap value


def test_gap_frozen_singlet_example():
    value = bf.original_bell_gap(bf.singlet(), obs(SIGMA_Z), obs(SIGMA_Z), obs(-SIGMA_Z))
    assert value == pytest.approx(2.0, abs=1e-12)


def test_gap_of_zero_observables_is_minus_one():
    zero = obs(np.zeros((2, 2)))
    assert bf.original_bell_gap(bf.werner(2), zero, zero, zero) == pytest.approx(-1.0)


@pytest.mark.parametrize("d", [3, 4])
def test_gap_nonpositive_for_werner_random_triples(d):
    w = bf.werner(d)
    for seed in range(25):
        ja = random_observable(d, seed=seed, label="a")
        jb1 = random_observable(d, seed=5000 + seed, label="b1")
        jb2 = random_observable(d, seed=9000 + seed, label="b2")
        assert bf.original_bell_gap(w, ja, jb1, jb2) <= 1e-12


def test_gap_uses_shared_observable_on_both_sides():
    rng = np.random.default_rng(53)
    w = bf.werner(2)
    ja = random_observable(2, seed=1)
    jb1 = random_observable(2, seed=2)
    jb2 = random_observable(2, seed=3)
    manual = abs(
        bf.correlation(w, ja, jb1) - bf.correlation(w, ja, jb2)
    ) - (1.0 - bf.correlation(w, jb1, jb2))
    assert bf.original_bell_gap(w, ja, jb1, jb2) == pytest.approx(manual, abs=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_gap_invariant_under_negating_first_observable(d):
    """Negating the one-sided observable flips both correlations inside the
    absolute value and leaves the shared term alone, so the gap is unchanged."""
    w = bf.werner(d)
    for seed in range(10):
        ja = random_observable(d, seed=seed)
        jb1 = random_observable(d, seed=100 + seed)
        jb2 = random_observable(d, seed=200 + seed)
        neg = obs(-ja.op.entries)
        lhs = bf.original_bell_gap(w, ja, jb1, jb2)
        rhs = bf.original_bell_gap(w, neg, jb1, jb2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


# ------------------------------------------------------------------ chsh value


def test_chsh_classical_bound_on_product_states():
    ket0 = np.zeros((2, 2))
    ket0[0, 0] = 1.0
    rho = bf.DensityOperator(np.kron(ket0, ket0), (2, 2))
    plus, minus = obs(np.eye(2)), obs(-np.eye(2))
    for a1 in (plus, minus):
        for a2 in (plus, minus):
            assert bf.chsh_value(rho, a1, a2, plus, minus) <= 2.0 + 1e-12


def test_chsh_singlet_optimal_settings_reach_tsirelson():
    b1 = obs(-(SIGMA_Z + SIGMA_X) / math.sqrt(2.0))
    b2 = obs((SIGMA_X - SIGMA_Z) / math.sqrt(2.0))
    value = bf.chsh_value(bf.singlet(), obs(SIGMA_Z), obs(SIGMA_X), b1, b2)
    assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)


# ---------------------------------------------------------------- contractions


def einsum_alice(r4: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ijkl,...lj->...ik", r4, b)


def einsum_bob(r4: np.ndarray, a: np.ndarray) -> np.ndarray:
    return np.einsum("ijkl,...ki->...jl", r4, a)


def einsum_corr(r4: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ijkl,...ki,...lj->...", r4, a, b)


def random_density_matrix(d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d * d, d * d)) + 1.0j * rng.standard_normal((d * d, d * d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_contractions_match_einsum_oracle(d):
    """The batched products on the state's two layouts equal the 4-index einsums over
    ``r4[i, j, k, l] = rho[(i, j), (k, l)]``, on stacks and on single matrices."""
    rho = random_density_matrix(d, seed=60 + d)
    r4 = rho.reshape(d, d, d, d)
    r = bell._layouts(rho, d)
    a, b = bell._draw_observables(d, range(5), 2).swapaxes(0, 1)
    for x, y in ((a, b), (a[0], b[0])):
        for new, oracle in (
            (bell._alice_effective(r, y), einsum_alice(r4, y)),
            (bell._bob_effective(r, x), einsum_bob(r4, x)),
            (bell._pair(bell._bob_effective(r, x), y), einsum_corr(r4, x, y).real),
        ):
            assert new.shape == oracle.shape
            np.testing.assert_allclose(new, oracle, rtol=0.0, atol=1e-13)


def test_correlation_accepts_every_validated_state():
    """A state whose anti-Hermitian part the density check admits has the correlations of its
    Hermitian part: the imaginary rounding is dropped, not held to a bound of its own."""
    sign = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0]).astype(complex)
    rho = bf.DensityOperator(bf.werner(6).entries + 8e-12j * np.kron(sign, sign), (6, 6))
    a = obs(sign)
    value = bf.correlation(rho, a, a)
    assert type(value) is float
    assert value == bf.correlation(bf.werner(6), a, a)


# ---------------------------------------------------------------------- oracle


def test_horodecki_oracle_frozen_values():
    assert bf.horodecki_chsh_oracle(bf.singlet()) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert bf.horodecki_chsh_oracle(bf.werner(2)) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    ket0 = np.zeros((2, 2))
    ket0[0, 0] = 1.0
    product = bf.DensityOperator(np.kron(ket0, ket0), (2, 2))
    assert bf.horodecki_chsh_oracle(product) == pytest.approx(2.0, abs=1e-12)


def test_horodecki_oracle_rejects_non_qubit():
    with pytest.raises(ValueError, match="qubit"):
        bf.horodecki_chsh_oracle(bf.werner(3))


# --------------------------------------------------------------------- see-saw


def test_seesaw_config_validation():
    with pytest.raises(ValueError, match="restarts"):
        SeeSawConfig(restarts=0)
    with pytest.raises(ValueError, match="base_seed"):
        SeeSawConfig(base_seed=-3)


def test_seesaw_config_bounds_the_seed_range():
    """Seeds run up to ``2**64``, so each is a distinct 64-bit word of the start stream's hash;
    the last admitted seed still draws and runs."""
    top = SeeSawConfig(restarts=10, base_seed=2**64 - 10)
    for cfg in ({"restarts": 11, "base_seed": 2**64 - 10}, {"restarts": 1, "base_seed": 2**64}):
        with pytest.raises(ValueError, match=r"base_seed \+ restarts must be at most 2\*\*64"):
            SeeSawConfig(**cfg)
    result = bf.seesaw_chsh(bf.singlet(), top)
    assert 0 <= result.restart_index < 10
    assert abs(result.best_value - bf.horodecki_chsh_oracle(bf.singlet())) <= 1e-9


@pytest.mark.parametrize("field", ["restarts", "base_seed"])
def test_seesaw_config_rejects_non_integers(field):
    with pytest.raises(TypeError):
        SeeSawConfig(**{field: 2.5})
    assert getattr(SeeSawConfig(**{field: np.int64(2)}), field) == 2


def test_seesaw_rejects_large_dimension():
    with pytest.raises(ValueError, match="outside"):
        bf.seesaw_original_bell(maximally_mixed(7), SeeSawConfig(restarts=1))
    with pytest.raises(ValueError, match="outside"):
        bf.seesaw_chsh(maximally_mixed(7), SeeSawConfig(restarts=1))


def test_seesaw_original_finds_singlet_violation():
    result = bf.seesaw_original_bell(bf.singlet(), SeeSawConfig(restarts=20, base_seed=0))
    assert result.best_value >= 2.0 - 1e-4
    assert [o.label for o in result.observables] == ["a", "b1", "b2"]


def test_seesaw_original_respects_werner_bound():
    result = bf.seesaw_original_bell(bf.werner(3), SeeSawConfig(restarts=50, base_seed=0))
    assert result.best_value <= 1e-7


def test_seesaw_original_on_maximally_mixed_state():
    """Identity observables give every correlation the value one, which makes
    the inequality tight; separability forbids anything above zero."""
    result = bf.seesaw_original_bell(maximally_mixed(3), SeeSawConfig(restarts=10, base_seed=1))
    assert result.best_value == pytest.approx(0.0, abs=1e-9)


def test_seesaw_original_recompute_matches_best_value():
    result = bf.seesaw_original_bell(bf.werner(2), SeeSawConfig(restarts=8, base_seed=2))
    recomputed = bf.original_bell_gap(bf.werner(2), *result.observables)
    assert abs(recomputed - result.best_value) <= 1e-12


def test_seesaw_value_traces_are_monotone():
    for result in (
        bf.seesaw_original_bell(bf.singlet(), SeeSawConfig(restarts=6, base_seed=3)),
        bf.seesaw_chsh(bf.singlet(), SeeSawConfig(restarts=6, base_seed=3)),
        bf.seesaw_chsh(bf.werner(3), SeeSawConfig(restarts=6, base_seed=4)),
    ):
        trace = result.value_trace
        assert len(trace) == result.sweeps_used
        for earlier, later in zip(trace, trace[1:]):
            assert later >= earlier - 1e-12


def test_seesaw_results_are_deterministic():
    cfg = SeeSawConfig(restarts=10, base_seed=5)
    first = bf.seesaw_chsh(bf.werner(2), cfg)
    second = bf.seesaw_chsh(bf.werner(2), cfg)
    assert first.best_value == second.best_value
    assert first.restart_index == second.restart_index
    for a, b in zip(first.observables, second.observables):
        np.testing.assert_array_equal(a.op.entries, b.op.entries)


def test_seesaw_chsh_singlet_reaches_tsirelson():
    result = bf.seesaw_chsh(bf.singlet(), SeeSawConfig(restarts=20, base_seed=0))
    assert result.best_value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-6)
    assert [o.label for o in result.observables] == ["a1", "a2", "b1", "b2"]


def test_seesaw_chsh_werner2_attains_classical_value():
    """Identity observables make the combination exactly 2 on any state, so the
    optimum over the whole norm ball is max(2, traceless-dichotomic maximum).
    For this state the closed form gives sqrt(2) < 2, so the optimizer's
    ceiling is the classical value itself."""
    result = bf.seesaw_chsh(bf.werner(2), SeeSawConfig(restarts=20, base_seed=0))
    oracle = bf.horodecki_chsh_oracle(bf.werner(2))
    assert result.best_value == pytest.approx(2.0, abs=1e-9)
    assert abs(result.best_value - max(2.0, oracle)) <= 1e-4


@pytest.mark.parametrize("d", [3, 4, 5])
def test_seesaw_chsh_werner_never_violates(d):
    result = bf.seesaw_chsh(bf.werner(d), SeeSawConfig(restarts=15, base_seed=0))
    assert result.best_value <= 2.0 + 1e-7


def test_seesaw_chsh_recompute_matches_best_value():
    result = bf.seesaw_chsh(bf.singlet(), SeeSawConfig(restarts=5, base_seed=9))
    recomputed = bf.chsh_value(bf.singlet(), *result.observables)
    assert abs(recomputed - result.best_value) <= 1e-12


SEARCHES = {"original": (bf.seesaw_original_bell, 3), "chsh": (bf.seesaw_chsh, 4)}


@pytest.mark.parametrize("functional", sorted(SEARCHES))
@pytest.mark.parametrize("state", ["werner2", "werner3", "werner4", "singlet"])
def test_stacked_restarts_match_independent_runs(functional, state):
    """Restarts run as one stack equal the best of single-restart runs, lowest index on ties.

    One GEMM over the whole stack would make a row's bits depend on the stack
    height; the ``chsh`` cases on ``werner(3)`` and ``werner(4)`` catch that.
    """
    search, _ = SEARCHES[functional]
    rho, restarts = {
        "werner2": (bf.werner(2), 6),
        # the seven restarts on werner(3) stop after two or three sweeps
        "werner3": (bf.werner(3), 7),
        "werner4": (bf.werner(4), 12),
        "singlet": (bf.singlet(), 10),
    }[state]
    base_seed = 0
    stacked = search(rho, SeeSawConfig(restarts=restarts, base_seed=base_seed))
    singles = [search(rho, SeeSawConfig(restarts=1, base_seed=base_seed + r)) for r in range(restarts)]
    # restarts stop after different sweep counts, so each froze on its own
    assert len({single.sweeps_used for single in singles}) > 1
    winner = max(range(restarts), key=lambda r: singles[r].best_value)
    alone = singles[winner]
    assert stacked.restart_index == winner
    assert stacked.best_value == alone.best_value
    assert stacked.value_trace == alone.value_trace
    assert stacked.sweeps_used == alone.sweeps_used
    for a, b in zip(stacked.observables, alone.observables):
        assert a.label == b.label
        np.testing.assert_array_equal(a.op.entries, b.op.entries)


@pytest.mark.parametrize("functional", sorted(SEARCHES))
def test_seesaw_eigensolver_calls_do_not_grow_with_restarts(monkeypatch, functional):
    """One stacked ``eigh`` per update and sweep, and none for the start draw.

    A run of many restarts therefore makes as many calls as its longest
    single restart.  Base seed 34 puts a longest restart among the first
    five on ``werner(3)``, so 5 and 40 restarts make the same number.
    """
    search, updates = SEARCHES[functional]
    calls = []

    def counted(a, *args, _original=np.linalg.eigh, **kwargs):
        calls.append(a.shape)
        return _original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)

    def count(restarts, base_seed):
        calls.clear()
        result = search(bf.werner(3), SeeSawConfig(restarts=restarts, base_seed=base_seed))
        return len(calls), result

    base_seed = 34
    singles = []
    for r in range(40):
        n, result = count(1, base_seed + r)
        # a single restart's sweeps set the count
        assert n == updates * result.sweeps_used
        singles.append(n)
    stacked = {restarts: count(restarts, base_seed)[0] for restarts in (5, 40)}
    assert stacked == {restarts: max(singles[:restarts]) for restarts in (5, 40)}
    assert stacked[5] == stacked[40]


@pytest.mark.parametrize("state", ["werner2", "singlet"])
@pytest.mark.parametrize("functional", sorted(SEARCHES))
def test_qubit_seesaw_makes_no_eigensolver_call(monkeypatch, functional, state):
    """On qubits every update maps 2x2 matrices in closed form, and the starts need no clamp, so
    no ``eigh`` runs (the returned observables' norm checks use ``eigvalsh``)."""
    calls = []

    def counted(a, *args, _original=np.linalg.eigh, **kwargs):
        calls.append(a.shape)
        return _original(a, *args, **kwargs)

    rho = bf.werner(2) if state == "werner2" else bf.singlet()
    monkeypatch.setattr(np.linalg, "eigh", counted)
    result = SEARCHES[functional][0](rho, SeeSawConfig(restarts=50))
    assert result.sweeps_used >= 2
    assert calls == []


@pytest.mark.parametrize("seed", range(5))
def test_seesaw_meets_benchmark_references(seed):
    """The optima the benchmark's ``bell`` cases check, from 50 restarts at base seeds 0-4:
    CHSH 2 on ``werner(2..6)``, the gap 1/2 at d = 2 and 0 above, and on the singlet the
    closed-form CHSH maximum and the gap 2."""
    cfg = SeeSawConfig(restarts=50, base_seed=seed)
    for d in range(2, 7):
        assert abs(bf.seesaw_chsh(bf.werner(d), cfg).best_value - 2.0) <= 1e-7
        gap = bf.seesaw_original_bell(bf.werner(d), cfg).best_value
        assert abs(gap - (0.5 if d == 2 else 0.0)) <= 1e-9
    singlet = bf.singlet()
    chsh = bf.seesaw_chsh(singlet, cfg).best_value
    assert abs(chsh - bf.horodecki_chsh_oracle(singlet)) <= 1e-9
    assert abs(bf.seesaw_original_bell(singlet, cfg).best_value - 2.0) <= 1e-9


# Seeds at which the winner of 7 restarts on ``werner(3)`` ties a restart in another block of two.
BLOCK_TIES = {
    "original": SeeSawConfig(restarts=7, base_seed=28),
    "chsh": SeeSawConfig(restarts=7, base_seed=4),
}


@pytest.mark.parametrize("functional", sorted(SEARCHES))
def test_restart_blocks_match_one_stack(monkeypatch, functional):
    """Restarts run in blocks of two equal one stack bit for bit, and no stack outgrows a block.

    On ``werner(3)`` each functional's winner ties a restart in another block,
    and sits past the first block, so the tie-break and the index offset are
    exercised; the single-restart scores check that premise.
    """
    search, _ = SEARCHES[functional]
    cfg = BLOCK_TIES[functional]
    scores = [
        search(bf.werner(3), SeeSawConfig(restarts=1, base_seed=cfg.base_seed + r)).best_value
        for r in range(cfg.restarts)
    ]
    winner = max(range(cfg.restarts), key=scores.__getitem__)
    assert winner >= 2
    assert any(scores[r] == scores[winner] and r // 2 != winner // 2 for r in range(cfg.restarts))
    rows = []

    def recorded(m, f, _original=bell._spectral_map):
        rows.append(m.shape[0])
        return _original(m, f)

    monkeypatch.setattr(bell, "_spectral_map", recorded)
    whole = search(bf.werner(3), cfg)
    assert max(rows) > 2
    rows.clear()
    monkeypatch.setattr(bell, "_RESTART_BLOCK", 2)
    blocked = search(bf.werner(3), cfg)
    assert max(rows) <= 2
    assert blocked.restart_index == whole.restart_index == winner
    assert blocked.best_value == whole.best_value
    assert blocked.sweeps_used == whole.sweeps_used
    assert blocked.value_trace == whole.value_trace
    for a, b in zip(blocked.observables, whole.observables):
        assert a.label == b.label
        np.testing.assert_array_equal(a.op.entries, b.op.entries)


# ----------------------------------------------------------- reference sweeps
# The sweeps as they were before each effective operator was formed once per
# sweep: every correlation was its own contraction with the state, and a row's
# score came from a separate pass over its final observables.


def reference_corr(r: tuple, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    val = (bell._rows(a) @ r[1] @ bell._rows(b).swapaxes(-1, -2))[..., 0, 0]
    worst = np.max(np.abs(val.imag))
    if worst > 1e-10:
        raise ValueError(f"correlation has imaginary part {worst:.3e}")
    return val.real


def reference_gap(r: tuple, ja: np.ndarray, jb1: np.ndarray, jb2: np.ndarray) -> np.ndarray:
    e1 = reference_corr(r, ja, jb1)
    e2 = reference_corr(r, ja, jb2)
    e3 = reference_corr(r, jb1, jb2)
    return abs(e1 - e2) - (1.0 - e3)


def reference_chsh(r: tuple, a1, a2, b1, b2) -> np.ndarray:
    corr = reference_corr
    return corr(r, a1, b1) + corr(r, a1, b2) + corr(r, a2, b1) - corr(r, a2, b2)


def reference_original_sweep(r: tuple, mats) -> tuple:
    alice, bob, sign = bell._alice_effective, bell._bob_effective, bell._signs
    ja, jb1, jb2 = mats
    ja = bell._spectral_map(alice(r, jb1) - alice(r, jb2), sign)
    jb1 = bell._spectral_map(bob(r, ja) + alice(r, jb2), sign)
    jb2 = bell._spectral_map(-bob(r, ja) + bob(r, jb1), sign)
    corr = reference_corr
    value = (corr(r, ja, jb1) - corr(r, ja, jb2)) + corr(r, jb1, jb2) - 1.0
    return (ja, jb1, jb2), value


def reference_chsh_sweep(r: tuple, mats) -> tuple:
    alice, bob, sign = bell._alice_effective, bell._bob_effective, bell._signs
    a1, a2, b1, b2 = mats
    a1 = bell._spectral_map(alice(r, b1) + alice(r, b2), sign)
    a2 = bell._spectral_map(alice(r, b1) - alice(r, b2), sign)
    b1 = bell._spectral_map(bob(r, a1) + bob(r, a2), sign)
    b2 = bell._spectral_map(bob(r, a1) - bob(r, a2), sign)
    mats = (a1, a2, b1, b2)
    return mats, reference_chsh(r, *mats)


# functional: (reference sweep, reference score, sweep)
REFERENCE = {
    "original": (reference_original_sweep, reference_gap, bell._original_sweep),
    "chsh": (reference_chsh_sweep, lambda *m: abs(reference_chsh(*m)), bell._chsh_sweep),
}
LABELS = {"original": ("a", "b1", "b2"), "chsh": ("a1", "a2", "b1", "b2")}


def sweep_inputs(d: int, count: int, rows: int = 6) -> list:
    """The see-saw's start observables of ``rows`` rows."""
    starts = bell._draw_observables(d, range(rows), count)
    return [starts[:, k].copy() for k in range(count)]


def state_matrix(kind: str, d: int) -> np.ndarray:
    return bf.werner(d).entries if kind == "werner" else random_density_matrix(d, seed=80 + d)


@pytest.mark.parametrize("kind", ["werner", "random"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("functional", sorted(REFERENCE))
def test_sweeps_match_reference_bit_for_bit(functional, d, kind):
    """Three sweeps from the same starts give the reference's observables, values and scores,
    on the real ``werner(d)`` and on a random complex state."""
    reference_sweep, reference_score, sweep = REFERENCE[functional]
    r = bell._layouts(state_matrix(kind, d), d)
    mats = sweep_inputs(d, len(LABELS[functional]))
    expected = mats
    for _ in range(3):
        mats, values, scores = sweep(r, mats)
        expected, expected_values = reference_sweep(r, expected)
        for m, e in zip(mats, expected, strict=True):
            np.testing.assert_array_equal(m, e)
        np.testing.assert_array_equal(values, expected_values)
        np.testing.assert_array_equal(scores, reference_score(r, *expected))


@pytest.mark.parametrize("kind", ["werner", "random"])
@pytest.mark.parametrize("functional", sorted(REFERENCE))
def test_seesaw_results_match_reference(functional, kind):
    """Whole searches on the reference sweeps, each row scored by a pass over its final
    observables, give the same result bit for bit."""
    reference_sweep, reference_score, _ = REFERENCE[functional]
    d = 4
    rho = bf.DensityOperator(state_matrix(kind, d), (d, d))
    cfg = SeeSawConfig(restarts=12, base_seed=3)

    def scored(r, mats):
        updated, values = reference_sweep(r, mats)
        return updated, values, reference_score(r, *updated)

    expected = bell._seesaw(rho, cfg, LABELS[functional], scored)
    result = SEARCHES[functional][0](rho, cfg)
    assert result.best_value == expected.best_value
    assert result.restart_index == expected.restart_index
    assert result.sweeps_used == expected.sweeps_used
    assert result.value_trace == expected.value_trace
    for a, b in zip(result.observables, expected.observables, strict=True):
        assert a.label == b.label
        np.testing.assert_array_equal(a.op.entries, b.op.entries)


@pytest.mark.parametrize("functional", sorted(REFERENCE))
def test_sweep_forms_each_effective_operator_once(monkeypatch, functional):
    """A sweep of either functional forms two effective operators for each side."""
    _, _, sweep = REFERENCE[functional]
    calls = []
    for name in ("_alice_effective", "_bob_effective"):

        def counted(r, m, _name=name, _original=getattr(bell, name)):
            calls.append(_name)
            return _original(r, m)

        monkeypatch.setattr(bell, name, counted)
    sweep(bell._layouts(bf.werner(3).entries, 3), sweep_inputs(3, len(LABELS[functional])))
    assert sorted(calls) == ["_alice_effective"] * 2 + ["_bob_effective"] * 2


# ----------------------------------------------------------- one sign branch
# The gap search once ran every restart twice, as the branches ``s = +1`` and ``s = -1`` of
# ``|E(a, b1) - E(a, b2)|``.  ``two_branch_sweep`` is that sweep; its ``+1`` rows are the sweep
# the search runs now, and its ``-1`` rows the branch it no longer runs.


def two_branch_sweep(r: tuple, s: np.ndarray, mats, sign=bell._signs) -> tuple:
    """One cyclic gap update of the rows' branches ``s``, an ``(n, 1, 1)`` array of ``+1`` and
    ``-1``, with the eigenvalue map ``sign``: observables, linearized values, gaps."""
    ja, jb1, jb2 = mats
    m2 = bell._alice_effective(r, jb2)
    ja = bell._spectral_map(s * (bell._alice_effective(r, jb1) - m2), sign)
    na = bell._bob_effective(r, ja)
    jb1 = bell._spectral_map(s * na + m2, sign)
    n1 = bell._bob_effective(r, jb1)
    jb2 = bell._spectral_map(-s * na + n1, sign)
    e1, e2, e3 = bell._pair(na, jb1), bell._pair(na, jb2), bell._pair(n1, jb2)
    value = s[:, 0, 0] * (e1 - e2) + e3 - 1.0
    return (ja, jb1, jb2), value, abs(e1 - e2) - (1.0 - e3)


def branch_search(rho: bf.DensityOperator, cfg: SeeSawConfig, s: float) -> bf.OptimizationResult:
    """The gap search over the rows of branch ``s`` of the two-branch sweep.  A row's bits do
    not depend on the stack it runs in, so these are the rows of ``s`` in a two-branch stack."""

    def sweep(r, mats):
        return two_branch_sweep(r, np.full((len(mats[0]), 1, 1), s), mats)

    return bell._seesaw(rho, cfg, LABELS["original"], sweep)


@pytest.mark.parametrize("kind", ["werner", "random"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_minus_branch_mirrors_plus_branch_off_zero_eigenvalues(d, kind):
    """From the same starts, the ``-1`` branch runs the ``+1`` branch with ``ja`` negated and
    ``jb1``, ``jb2``, values and scores alike, over three sweeps, until an update meets an
    effective operator with an eigenvalue at zero: ``_signs`` maps it to ``+1`` on both branches,
    so there they part, each on an ascent of its own.  Every case checks some rows' sweeps."""
    r = bell._layouts(state_matrix(kind, d), d)
    plus = minus = sweep_inputs(d, 3, rows=24)
    s = np.ones((24, 1, 1))
    mirrored = np.ones(24, dtype=bool)
    checked = 0
    smallest = []

    def sign(vals):
        smallest.append(np.abs(vals).min(axis=-1))
        return bell._signs(vals)

    for _ in range(3):
        smallest.clear()
        plus, plus_values, plus_scores = two_branch_sweep(r, s, plus, sign)
        minus, minus_values, minus_scores = two_branch_sweep(r, -s, minus, sign)
        mirrored &= np.min(smallest, axis=0) > 1e-6
        pairs = (
            (minus[0], -plus[0]),
            (minus[1], plus[1]),
            (minus[2], plus[2]),
            (minus_values, plus_values),
            (minus_scores, plus_scores),
        )
        for got, expected in pairs:
            np.testing.assert_allclose(got[mirrored], expected[mirrored], rtol=0.0, atol=1e-12)
        checked += int(mirrored.sum())
    assert checked >= 4


@pytest.mark.parametrize("state", ["werner2", "werner3", "werner4", "werner6", "singlet", "random"])
def test_gap_search_keeps_the_plus_rows_of_two_branches(state):
    """The one-branch search is, bit for bit, the best of the two-branch search's ``+1`` rows,
    and falls short of the best of both branches by at most 1e-15."""
    rho = {
        "werner2": bf.werner(2),
        "werner3": bf.werner(3),
        "werner4": bf.werner(4),
        "werner6": bf.werner(6),
        "singlet": bf.singlet(),
        "random": bf.DensityOperator(random_density_matrix(5, seed=85), (5, 5)),
    }[state]
    cfg = SeeSawConfig(restarts=50, base_seed=0)
    result = bf.seesaw_original_bell(rho, cfg)
    plus, minus = branch_search(rho, cfg, 1.0), branch_search(rho, cfg, -1.0)
    assert result.best_value == plus.best_value
    assert result.restart_index == plus.restart_index
    assert result.value_trace == plus.value_trace
    for a, b in zip(result.observables, plus.observables, strict=True):
        assert a.label == b.label
        np.testing.assert_array_equal(a.op.entries, b.op.entries)
    both = max(plus.best_value, minus.best_value)
    assert both - 1e-15 <= result.best_value <= both


def test_gap_search_passes_one_row_per_restart(monkeypatch):
    """A 50-restart gap search hands at most 50 rows to each spectral map."""
    rows = []

    def recorded(m, f, _original=bell._spectral_map):
        rows.append(m.shape[0])
        return _original(m, f)

    monkeypatch.setattr(bell, "_spectral_map", recorded)
    bf.seesaw_original_bell(bf.werner(3), SeeSawConfig(restarts=50))
    assert max(rows) == 50


# ------------------------------------------------------- oracle cross-check

BELL_BASIS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / math.sqrt(2.0)


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1.0j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_seesaw_chsh_meets_horodecki_oracle_on_zero_marginal_states():
    """Bell-diagonal states turned by random local unitaries are complex and have vanishing
    local Bloch vectors, so the maximum over all norm-one observables is ``max(2, oracle)``."""
    rng = np.random.default_rng(13)
    oracles, gaps = [], []
    for _ in range(60):
        u = np.kron(random_unitary(rng), random_unitary(rng))
        m = u @ (BELL_BASIS.T * rng.dirichlet(np.ones(4))) @ BELL_BASIS @ u.conj().T
        rho = bf.DensityOperator((m + m.conj().T) / 2.0, (2, 2))
        for j in (1, 2):
            marginal = _ptrace(rho.entries, (2, 2), j)
            np.testing.assert_allclose(marginal, np.eye(2) / 2.0, rtol=0.0, atol=1e-14)
        oracles.append(bf.horodecki_chsh_oracle(rho))
        value = bf.seesaw_chsh(rho, SeeSawConfig(restarts=20, base_seed=0)).best_value
        gaps.append(value - max(2.0, oracles[-1]))
    # both sides of the classical value occur
    assert min(oracles) < 2.0 < max(oracles) - 0.2
    assert np.iscomplexobj(m) and np.abs(m.imag).max() > 0.1
    assert min(gaps) >= -1e-5
    assert max(gaps) <= 1e-12


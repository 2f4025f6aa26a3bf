import numpy as np
import pytest

from references import per_channel_bank
from si_subnyq.errors import InvalidInputError
from si_subnyq.sampling_design import make_cs_matrix
from si_subnyq.si_core import CoefficientBank, FrequencyGrid, GeneratorSet, random_generator_set
from si_subnyq.sparse_model import (
    SparseSISignal,
    SparsityProfile,
    signal_spectrum,
    synthesize,
)


def dtft_oracle(sequence, theta):
    return sum(sequence[n] * np.exp(-1j * theta * n) for n in range(len(sequence)))


def make_signal(m, k, support, n, seed, gens):
    profile = SparsityProfile(m, k, frozenset(support))
    bank = synthesize(profile, n, seed)
    return SparseSISignal(profile, bank, gens)


# ---------------------------------------------------------------------------
# profile validation
# ---------------------------------------------------------------------------

def test_profile_rejects_k_above_m():
    with pytest.raises(InvalidInputError):
        SparsityProfile(3, 4, frozenset({0, 1, 2}))


@pytest.mark.parametrize("m, k, support, name", [
    (6.5, 1, {1}, "m"), (6, True, {1}, "k"), (True, 1, {0}, "m"),
])
def test_profile_refuses_non_integer_m_and_k(m, k, support, name):
    with pytest.raises(InvalidInputError, match=f"^{name} must be an integer"):
        SparsityProfile(m, k, frozenset(support))


# Each index collection refuses a bool or a float entry, where it once
# truncated it, and keeps taking numpy integers: (its entry's name, a build).
INDEX_BUILDS = {
    "profile_support": ("support entry",
                        lambda entries: SparsityProfile(6, 2, frozenset(entries))),
    "bank_support": ("support entry",
                     lambda entries: CoefficientBank(np.zeros((6, 3), complex),
                                                     frozenset(entries))),
    "coset_rows": ("coset row",
                   lambda entries: make_cs_matrix("fourier_rows", 2, 8,
                                                  np.random.default_rng(0), cosets=entries)),
    "alias_support": ("alias_support entry",
                      lambda entries: GeneratorSet(FrequencyGrid(4), 1.0, tuple(entries),
                                                   np.ones((2, 4, 2)))),
}


@pytest.mark.parametrize("entries", [(1.7, 3), (True, 3), (2.9, 5.0)])
@pytest.mark.parametrize("build", sorted(INDEX_BUILDS))
def test_index_collections_refuse_non_integer_entries(build, entries):
    name, make = INDEX_BUILDS[build]
    with pytest.raises(InvalidInputError, match=f"^{name} must be an integer, got "):
        make(entries)


@pytest.mark.parametrize("build", sorted(INDEX_BUILDS))
def test_index_collections_take_numpy_integers(build):
    INDEX_BUILDS[build][1]((np.int64(1), np.uint8(3)))


def test_profile_rejects_wrong_support_size():
    with pytest.raises(InvalidInputError):
        SparsityProfile(5, 2, frozenset({1}))


def test_profile_rejects_out_of_range_indices():
    with pytest.raises(InvalidInputError):
        SparsityProfile(5, 2, frozenset({1, 7}))


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------

def test_empty_union_is_all_zero():
    bank = synthesize(SparsityProfile(4, 0, frozenset()), 8, seed=1)
    assert bank.support == frozenset()
    assert np.all(bank.sequences == 0)


def test_same_seed_reproduces_bank():
    profile = SparsityProfile(5, 2, frozenset({0, 3}))
    a = synthesize(profile, 12, seed=99)
    b = synthesize(profile, 12, seed=99)
    assert np.array_equal(a.sequences, b.sequences)


def test_support_and_off_support_energy():
    profile = SparsityProfile(6, 2, frozenset({1, 4}))
    bank = synthesize(profile, 16, seed=7)
    assert bank.support == frozenset({1, 4})
    off = sorted(set(range(6)) - {1, 4})
    assert np.sum(np.abs(bank.sequences[off]) ** 2) == 0.0
    for channel in (1, 4):
        assert np.any(bank.sequences[channel] != 0)


def test_synthesis_reads_the_stream_as_one_draw_per_part_and_channel():
    # the bank and the generator's next draw equal those of the per-channel
    # loop: each active channel in ascending order, real parts then imaginary
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m = int(rng.integers(1, 9))
        k = int(rng.integers(0, m + 1))
        n = int(rng.integers(1, 40))
        profile = SparsityProfile(m, k, frozenset(int(i) for i in
                                                 rng.choice(m, size=k, replace=False)))
        seed = int(rng.integers(2 ** 32))
        fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
        bank = synthesize(profile, n, fast)
        expected = per_channel_bank(profile, n, slow)
        assert bank.sequences.tobytes() == expected.sequences.tobytes()
        assert bank.support == expected.support
        assert fast.standard_normal() == slow.standard_normal()


def test_chunk_of_banks_equals_each_bank_drawn_alone():
    # a chunk reads each generator as a lone call does and returns the same
    # bytes, k = 0 banks and N = 1 included; the banks share one array
    rng = np.random.default_rng(77)
    for _ in range(60):
        m, n, size = int(rng.integers(1, 9)), int(rng.integers(1, 20)), int(rng.integers(1, 7))
        profiles = [SparsityProfile(m, k, frozenset(rng.choice(m, size=k, replace=False).tolist()))
                    for k in rng.integers(0, m + 1, size=size).tolist()]
        seeds = rng.integers(2 ** 32, size=size).tolist()
        chunk_rngs = [np.random.default_rng(seed) for seed in seeds]
        lone_rngs = [np.random.default_rng(seed) for seed in seeds]
        banks = synthesize(profiles, n, chunk_rngs)
        assert len(banks) == size
        for bank, profile, fast, slow in zip(banks, profiles, chunk_rngs, lone_rngs):
            alone = synthesize(profile, n, slow)
            assert bank.sequences.tobytes() == alone.sequences.tobytes()
            assert bank.support == alone.support
            assert not bank.sequences.flags.writeable
            assert fast.standard_normal() == slow.standard_normal()
        assert np.shares_memory(banks[0].sequences.base, banks[-1].sequences)


def test_empty_chunk_has_no_banks():
    assert synthesize([], 8, []) == []


@pytest.mark.parametrize("profiles, seeds", [
    ([SparsityProfile(4, 1, frozenset({0})), SparsityProfile(5, 1, frozenset({0}))], [1, 2]),
    ([SparsityProfile(4, 1, frozenset({0}))], [1, 2]),
], ids=["two_m", "seed_count"])
def test_chunk_refuses_mixed_m_and_a_seed_count_off_by_one(profiles, seeds):
    with pytest.raises(InvalidInputError, match="^a chunk takes profiles of one m"):
        synthesize(profiles, 8, seeds)


# ---------------------------------------------------------------------------
# signal_spectrum
# ---------------------------------------------------------------------------

def test_zero_coefficients_give_zero_anywhere():
    rng = np.random.default_rng(10)
    gens = random_generator_set(3, FrequencyGrid(8), 1.0, (-1, 0, 1), rng)
    signal = make_signal(3, 0, set(), 8, 11, gens)
    for omega in (0.0, 0.1234, -3.7, 17.0):
        assert signal_spectrum(signal, omega) == 0


def test_unit_impulse_sifts_generator_spectrum():
    rng = np.random.default_rng(12)
    gens = random_generator_set(2, FrequencyGrid(8), 1.0, (-1, 0, 1), rng)
    sequences = np.zeros((2, 8), dtype=np.complex128)
    sequences[0, 0] = 1.0
    bank = CoefficientBank.from_sequences(sequences)
    signal = SparseSISignal(SparsityProfile(2, 1, frozenset({0})), bank, gens)
    lattice = gens.lattice_frequencies()
    for q in (0, 3, 5):
        for j_idx in range(len(gens.alias_support)):
            omega = float(lattice[q, j_idx])
            assert signal_spectrum(signal, omega) == pytest.approx(
                complex(gens.spectra[0, q, j_idx]), abs=1e-12)


def test_spectrum_matches_dft_oracle_at_grid_frequencies():
    rng = np.random.default_rng(13)
    gens = random_generator_set(3, FrequencyGrid(8), 2.0, (-1, 0, 1), rng)
    signal = make_signal(3, 2, {0, 2}, 8, 14, gens)
    j0 = gens.alias_support.index(0)
    for q in range(8):
        omega = gens.grid.points[q] / gens.period
        expected = sum(
            dtft_oracle(signal.coefficients.sequences[ell], gens.grid.points[q])
            * gens.spectra[ell, q, j0]
            for ell in range(3))
        assert signal_spectrum(signal, omega) == pytest.approx(expected, rel=1e-12)


def test_spectrum_linearity_property():
    rng = np.random.default_rng(15)
    gens = random_generator_set(3, FrequencyGrid(8), 1.0, (-2, -1, 0, 1), rng)
    profile = SparsityProfile(3, 3, frozenset({0, 1, 2}))
    d1 = synthesize(profile, 8, seed=16)
    d2 = synthesize(profile, 8, seed=17)
    alpha = 1.3 - 0.4j
    mix = CoefficientBank.from_sequences(d1.sequences + alpha * d2.sequences)
    s1 = SparseSISignal(profile, d1, gens)
    s2 = SparseSISignal(profile, d2, gens)
    sm = SparseSISignal(profile, mix, gens)
    lattice = gens.lattice_frequencies()
    picks = np.random.default_rng(18).integers(0, 8, size=10)
    for q in picks:
        omega = float(lattice[q, 1])
        lhs = signal_spectrum(sm, omega)
        rhs = signal_spectrum(s1, omega) + alpha * signal_spectrum(s2, omega)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)


def test_off_lattice_inside_cell_rejected():
    rng = np.random.default_rng(19)
    gens = random_generator_set(2, FrequencyGrid(8), 1.0, (0, 1), rng)
    signal = make_signal(2, 1, {0}, 8, 20, gens)
    lattice = gens.lattice_frequencies()
    omega = float(lattice[2, 0]) + 0.3 * float(lattice[1, 0] - lattice[0, 0])
    with pytest.raises(InvalidInputError):
        signal_spectrum(signal, omega)


def test_signal_rejects_mismatched_support():
    rng = np.random.default_rng(21)
    gens = random_generator_set(2, FrequencyGrid(4), 1.0, (0, 1), rng)
    bank = synthesize(SparsityProfile(2, 1, frozenset({1})), 4, seed=22)
    with pytest.raises(InvalidInputError):
        SparseSISignal(SparsityProfile(2, 1, frozenset({0})), bank, gens)

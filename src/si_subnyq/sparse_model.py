"""Sparse signal model: only k of m generator channels carry energy.

Channel indices are 0-based throughout the library.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .si_core import TWO_PI, CoefficientBank, GeneratorSet, _require_int


@dataclass(frozen=True)
class SparsityProfile:
    """Which k of the m channels are active."""

    m: int
    k: int
    support: frozenset[int]

    def __post_init__(self):
        _require_int(self.m, "m")
        _require_int(self.k, "k")
        support = frozenset(_require_int(i, "support entry") for i in self.support)
        if self.k > self.m:
            raise InvalidInputError(f"k={self.k} exceeds m={self.m}")
        if len(support) != self.k:
            raise InvalidInputError(
                f"support {sorted(support)} has {len(support)} entries, expected k={self.k}")
        if any(i < 0 or i >= self.m for i in support):
            raise InvalidInputError(f"support {sorted(support)} out of range 0..{self.m - 1}")
        object.__setattr__(self, "support", support)


@dataclass(frozen=True)
class SparseSISignal:
    """A sparse shift-invariant signal: profile + coefficients + generators."""

    profile: SparsityProfile
    coefficients: CoefficientBank
    generators: GeneratorSet

    def __post_init__(self):
        if self.coefficients.support != self.profile.support:
            raise InvalidInputError("coefficient support does not match the sparsity profile")
        if self.coefficients.m != self.generators.m:
            raise InvalidInputError(
                f"coefficient bank has {self.coefficients.m} channels, "
                f"generator set has {self.generators.m}")


def _choose(rng: np.random.Generator, n: int, size: int) -> tuple[int, ...]:
    """``size`` distinct indexes of 0..n-1, in the order ``rng`` draws them."""
    return tuple(int(i) for i in rng.choice(n, size=size, replace=False))


def synthesize(profile: SparsityProfile | Sequence[SparsityProfile], n_samples: int,
               seed: int | np.random.Generator | Sequence[int | np.random.Generator],
               ) -> CoefficientBank | list[CoefficientBank]:
    """Seeded random coefficient bank honoring the sparsity profile; for a
    chunk (profiles of one m, a seed or generator each), the list of their
    banks, views of one zero-filled (banks, m, n_samples) array.

    Active channels, in ascending order, get i.i.d. unit-variance complex
    normal values; inactive channels are exactly zero. One draw of shape
    (k, 2, n_samples) per bank gives every active channel its real then its
    imaginary part, the order in which one draw per part and channel reads
    the stream.
    """
    _require_int(n_samples, "n_samples")
    if n_samples < 1:
        raise InvalidInputError(f"n_samples must be >= 1, got {n_samples}")
    lone = isinstance(profile, SparsityProfile)
    profiles, seeds = ([profile], [seed]) if lone else (list(profile), list(seed))
    m = profiles[0].m if profiles else 0
    if len(seeds) != len(profiles) or any(prof.m != m for prof in profiles):
        raise InvalidInputError("a chunk takes profiles of one m and one seed per profile")
    z = np.empty((sum(prof.k for prof in profiles), 2, n_samples))
    for prof, s, end in zip(profiles, seeds, itertools.accumulate(prof.k for prof in profiles)):
        np.random.default_rng(s).standard_normal(out=z[end - prof.k:end])
    sequences = np.zeros((len(profiles), m, n_samples), dtype=np.complex128)
    rows = [t * m + i for t, prof in enumerate(profiles) for i in sorted(prof.support)]
    sequences.reshape(-1, n_samples)[rows] = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    banks = [CoefficientBank._owned(seq, prof.support) for seq, prof in zip(sequences, profiles)]
    return banks[0] if lone else banks


def _dtft(sequence: np.ndarray, theta: float) -> complex:
    n = np.arange(sequence.shape[0])
    return complex(np.sum(sequence * np.exp(-1j * theta * n)))


def signal_spectrum(signal: SparseSISignal, omega: float) -> complex:
    """Evaluate X(omega) = sum_l D_l(e^{j*omega*T}) A_l(omega).

    D_l is the finite N-term transform of channel l, evaluable at any omega.
    The generator factor is known on the declared frequency lattice: inside a
    declared alias cell, omega must land on a lattice point; outside every
    declared cell the generator spectra are exactly zero, so the value is 0.
    Channels whose sequences are identically zero never contribute.
    """
    gens = signal.generators
    grid_n = gens.grid.n
    theta = omega * gens.period
    spacing = TWO_PI / grid_n
    # locate omega on the (q, j) lattice: omega*T = w_q - 2*pi*j, w_q in [0, 2*pi)
    cell = int(np.ceil(-theta / TWO_PI - 1e-12))  # alias cell index containing omega
    in_union = cell in gens.alias_support
    q = int(np.round((theta + TWO_PI * cell) / spacing))
    on_lattice = 0 <= q < grid_n and abs(theta - (q * spacing - TWO_PI * cell)) <= 1e-9 * spacing

    total = 0.0 + 0.0j
    for channel in range(gens.m):
        seq = signal.coefficients.sequences[channel]
        if not np.any(seq != 0):
            continue
        if not in_union:
            continue  # generator spectrum is exactly zero outside the declared cells
        if not on_lattice:
            raise InvalidInputError(
                f"omega={omega} lies inside a declared alias cell but not on the "
                f"frequency lattice (resolution {spacing / gens.period:.3e})")
        a_val = gens.spectra[channel, q, gens.alias_support.index(cell)]
        total += _dtft(seq, theta) * a_val
    return total

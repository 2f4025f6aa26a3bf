"""Slow references the fast routes of the library are checked against: the
plain SVD scan for the Kruskal rank, a coefficient bank drawn channel by
channel, and coefficients through ``np.linalg.pinv``."""

import itertools

import numpy as np

from si_subnyq.si_core import CoefficientBank

_ORACLE_CHUNK = 20000


def svd_scan_kruskal_rank(A, rel_tol=1e-10):
    """Reference: the exhaustive SVD scan, as kruskal_rank computed it before
    the determinant screen (input guards dropped)."""
    A = np.asarray(A, dtype=np.complex128)
    p, m = A.shape
    sigma = 0
    for q in range(1, min(p, m) + 1):
        combos = itertools.combinations(range(m), q)
        all_full_rank = True
        while True:
            chunk = list(itertools.islice(combos, _ORACLE_CHUNK))
            if not chunk:
                break
            subs = np.moveaxis(A[:, np.asarray(chunk)], 1, 0)  # (batch, p, q)
            sv = np.linalg.svd(subs, compute_uv=False)
            if not np.all(sv[:, -1] > rel_tol * sv[:, 0]):
                all_full_rank = False
                break
        if not all_full_rank:
            break
        sigma = q
    return sigma


def per_channel_bank(profile, n_samples, rng):
    """The coefficient bank ``synthesize`` draws, one channel at a time: each
    active channel, in ascending order, takes n_samples real parts, then
    n_samples imaginary parts, from ``rng``."""
    sequences = np.zeros((profile.m, n_samples), dtype=np.complex128)
    for channel in sorted(profile.support):
        sequences[channel] = (rng.standard_normal(n_samples)
                              + 1j * rng.standard_normal(n_samples)) / np.sqrt(2.0)
    return CoefficientBank(sequences, profile.support)


def pinv_coefficients(y_tilde, design, support, rank_rel_tol):
    """The coefficient sequences of ``support`` from demodulated measurements
    without Z: a singular-value rank check of A_S, then
    ifft(pinv(A_S) fft(y_tilde)) on the support's rows."""
    support = sorted(support)
    sequences = np.zeros((design.m, design.grid.n), dtype=np.complex128)
    if support:
        a_s = design.A[:, support]
        sv = np.linalg.svd(a_s, compute_uv=False)
        if sv[-1] <= rank_rel_tol * sv[0]:
            raise ValueError(f"columns {support} of A are rank deficient")
        spectra = np.fft.fft(y_tilde.sequences, axis=1)
        sequences[support] = np.fft.ifft(np.linalg.pinv(a_s) @ spectra, axis=1)
    return sequences

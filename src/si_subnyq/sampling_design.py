"""Compressive sampling system construction.

A measurement design bundles a p x m mixing matrix A (p <= m), an invertible
p x p shaping filter bank W(w_q) and an optional invertible diagonal m x m
bank Z(w_q). Measurements are y(w_q) = W(w_q) A Z(w_q) d(w_q) per grid bin,
equivalently a multichannel circular filtering of the coefficient sequences.

The module also synthesizes the analog-side objects: the biorthogonal set of
any admissible sampling family, and the p sampling filters whose
cross-spectrum matrix with the generators equals W(w_q) A exactly.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InvalidInputError
from .si_core import (
    CoefficientBank,
    FrequencyGrid,
    GeneratorSet,
    PeriodicMatrixFunction,
    _as_complex_readonly,
    _require_int,
    cross_spectrum_matrix,
)
from .tolerances import DEFAULT_TOLERANCES, Tolerances

KRUSKAL_MAX_COLUMNS = 24
# Most children one block of the Kruskal level pass makes, and the largest
# level it keeps whole for the next level to grow from.
_KRUSKAL_BLOCK = 1 << 14
_KRUSKAL_KEEP = 1 << 18
_EPS, _TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
MATRIX_KINDS = ("gaussian", "gaussian_real", "bernoulli", "fourier_rows")


@dataclass(frozen=True)
class MeasurementDesign:
    """Immutable measurement system (A, W, optional Z) on a frequency grid; a Z
    must be exactly diagonal and finite. ``validate_design`` judges conditioning."""

    A: np.ndarray = field(repr=False)
    W: PeriodicMatrixFunction
    grid: FrequencyGrid
    Z: PeriodicMatrixFunction | None = None

    def __post_init__(self):
        a = _as_complex_readonly(self.A)
        if a.ndim != 2 or 0 in a.shape:
            raise DimensionError(f"A must be 2-D with a row and a column, got shape {a.shape}")
        p, m = a.shape
        if p > m:
            raise InvalidInputError(f"A must have p <= m rows, got {p} x {m}")
        if self.W.grid.n != self.grid.n:
            raise DimensionError("W lives on a different grid than the design")
        if self.W.rows != p or self.W.cols != p:
            raise DimensionError(f"W must be {p} x {p}, got {self.W.rows} x {self.W.cols}")
        if self.Z is not None:
            if self.Z.grid.n != self.grid.n:
                raise DimensionError("Z lives on a different grid than the design")
            if self.Z.rows != m or self.Z.cols != m:
                raise DimensionError(f"Z must be {m} x {m}, got {self.Z.rows} x {self.Z.cols}")
            if not self.Z.is_diagonal():
                raise InvalidInputError("Z must be exactly diagonal")
            self.Z.require_conditioned(math.inf, "Z")
        object.__setattr__(self, "A", a)

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]


@dataclass(frozen=True)
class MeasurementBank:
    """p compressed measurement sequences of length N.

    The constructor keeps a read-only complex copy. ``_owned`` keeps the
    array it is given: only ``compressive_sample`` and ``ctf.demodulate``
    call it, each on the complex (p, N) array its inverse FFT has just made
    (for a chunk, one slice of it), to spare a trial's megabyte banks a
    second copy.
    """

    sequences: np.ndarray = field(repr=False)

    def __post_init__(self):
        seq = _as_complex_readonly(self.sequences)
        if seq.ndim != 2:
            raise DimensionError(f"sequences must be (p, N), got shape {seq.shape}")
        object.__setattr__(self, "sequences", seq)

    @classmethod
    def _owned(cls, sequences: np.ndarray) -> "MeasurementBank":
        """The bank of a fresh complex (p, N) array, made read-only and kept."""
        sequences.setflags(write=False)
        bank = cls.__new__(cls)
        object.__setattr__(bank, "sequences", sequences)
        return bank

    @property
    def p(self) -> int:
        return self.sequences.shape[0]

    @property
    def length(self) -> int:
        return self.sequences.shape[1]


def _require_finite(a: np.ndarray, name: str) -> None:
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} has a NaN or infinite entry")


def validate_design(design: MeasurementDesign,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> None:
    """Enforce the design invariants: every entry of A finite, and cond(W(w_q))
    and cond(Z(w_q)) at most cond_tol at every grid point, as
    ``PeriodicMatrixFunction.require_conditioned`` judges them; a Z of any
    uniform scale has condition number 1 and is accepted.

    Each condition number is computed once per W or Z object and cached on it
    (both are immutable); ``demodulate`` and ``ctf``'s coefficient step
    re-check the same arrays, so a validated design pays for them once.
    """
    _require_finite(design.A, "A")
    design.W.require_conditioned(tol.cond_tol, "W")
    if design.Z is not None:
        design.Z.require_conditioned(tol.cond_tol, "Z")


@functools.lru_cache(maxsize=1)
def _identity_w(grid: FrequencyGrid, p: int) -> PeriodicMatrixFunction:
    """The p x p identity bank on ``grid``, made once: it is immutable, so
    every design of that shape can share it and its cached checks."""
    return PeriodicMatrixFunction.identity(grid, p)


def make_design(A: np.ndarray, grid: FrequencyGrid,
                W: PeriodicMatrixFunction | None = None,
                Z: PeriodicMatrixFunction | None = None,
                tol: Tolerances = DEFAULT_TOLERANCES) -> MeasurementDesign:
    """Validated constructor; W defaults to the identity bank, one shared
    object per (grid, p)."""
    A = np.asarray(A, dtype=np.complex128)
    if W is None:
        W = _identity_w(grid, A.shape[0])
    design = MeasurementDesign(A=A, W=W, grid=grid, Z=Z)
    validate_design(design, tol)
    return design


def biorthogonalize(h: GeneratorSet, a_gen: GeneratorSet,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> GeneratorSet:
    """Turn any admissible sampling family h into the biorthogonal family v.

    v(nu) = M_HA^{-*}(e^{j w_q}) h(nu) pointwise on the frequency lattice; the
    result satisfies cross_spectrum_matrix(v, a_gen) = I at every grid point.
    """
    m_ha = cross_spectrum_matrix(h, a_gen)
    if m_ha.rows != m_ha.cols:
        raise DimensionError(
            f"biorthogonalization needs as many h channels ({h.m}) as generators ({a_gen.m})")
    m_ha.require_conditioned(tol.cond_tol, "M_HA")
    inv = np.linalg.inv(m_ha.values)
    spectra = np.einsum("qir,rqj->iqj", np.conj(inv), h.spectra)
    return GeneratorSet(h.grid, h.period, h.alias_support, spectra)


def build_sampling_filters(design: MeasurementDesign, v: GeneratorSet) -> GeneratorSet:
    """Synthesize the p sampling filters s(nu) = W*(e^{j w_q}) A* v(nu).

    When v is biorthogonal to the generators, the cross-spectrum matrix of the
    returned filters against the generators equals W(w_q) A at every grid
    point (with Z absent).
    """
    if design.grid.n != v.grid.n:
        raise DimensionError("design and biorthogonal set live on different grids")
    if design.m != v.m:
        raise DimensionError(
            f"design mixes {design.m} channels but biorthogonal set has {v.m}")
    # A first, then W: two contractions cost far less than one three-operand
    # einsum, which does not pick this order by itself.
    mixed = np.einsum("rl,lqj->rqj", np.conj(design.A), v.spectra)
    spectra = np.einsum("qir,rqj->iqj", np.conj(design.W.values), mixed)
    return GeneratorSet(v.grid, v.period, v.alias_support, spectra)


def compressive_sample(d: CoefficientBank | Sequence[CoefficientBank],
                       design: MeasurementDesign | Sequence[MeasurementDesign],
                       ) -> MeasurementBank | list[MeasurementBank]:
    """Produce the compressed measurements y(w_q) = W(w_q) A Z(w_q) d(w_q); for
    a chunk (banks and designs of one shape), the list of their measurements.

    This is the direct per-bin product; it coincides with pushing d through
    the combined operator via the filter-bank path (circular convolution).

    Only the support's rows are transformed; the rest stay zero. Z, A and W
    act on all m rows, as ``A[:, S] @ X_S`` rounds differently from ``A @ X``
    (tests/test_active_channels.py checks the bits against a whole-bank FFT).
    A chunk takes one FFT of all support rows, one stacked ``A @ X`` (matmul
    runs the BLAS routine per slice: each bank gets its lone bits) and, when
    every W is the identity, one inverse FFT.
    """
    lone = isinstance(d, CoefficientBank)
    banks, designs = ([d], [design]) if lone else (list(d), list(design))
    if len(designs) != len(banks):
        raise InvalidInputError(f"{len(banks)} banks need as many designs, got {len(designs)}")
    for bank, des in zip(banks, designs):
        if bank.m != des.m:
            raise DimensionError(f"bank has {bank.m} channels but A has {des.m} columns")
        if bank.length != des.grid.n:
            raise DimensionError(f"sequence length {bank.length} != grid length {des.grid.n}")
    if len({des.A.shape + (des.grid.n,) for des in designs}) > 1:
        raise DimensionError("the designs of a chunk must share one shape")
    if not banks:
        return []
    supports = [sorted(bank.support) for bank in banks]
    spectra = np.zeros((len(banks), designs[0].m, designs[0].grid.n), dtype=np.complex128)
    at = [t for t, rows in enumerate(supports) for _ in rows], [i for rows in supports for i in rows]
    spectra[at] = np.fft.fft(np.concatenate([b.sequences[rows] for b, rows in zip(banks, supports)]),
                             axis=1)
    for x, des in zip(spectra, designs):
        if des.Z is not None:
            x[...] = des.Z.apply(x)
    mixed = np.array([des.A for des in designs]) @ spectra
    applied = [des.W.apply(x) for des, x in zip(designs, mixed)]  # an identity returns x
    ys = (np.fft.ifft(mixed, axis=2) if all(w.base is mixed for w in applied)
          else [np.fft.ifft(w, axis=1) for w in applied])
    out = [MeasurementBank._owned(y) for y in ys]
    return out[0] if lone else out


def combined_operator(design: MeasurementDesign) -> PeriodicMatrixFunction:
    """The p x m sampling operator M(w_q) = W(w_q) A Z(w_q)."""
    values = design.W.values @ design.A
    if design.Z is not None:
        values = values * design.Z.diagonal()[:, None, :]
    return PeriodicMatrixFunction(design.grid, values)


class _Block(NamedTuple):
    """Whole sibling groups of one level q of the lexicographic subset tree
    (a sibling group: the subsets P + {j}, j > max(P), of one parent P).

    Subset i is S = P + {j}, j = last[i], whose columns are the set bits of
    mask[i]. K_P is the Schur complement of G_P in the Gram matrix G;
    piv[i] = K_P[j, j] = det(G_S) / det(G_P); det[i] = D_S = u^q det(G_S)
    (see ``kruskal_rank``); ok[i] says the screen cleared S and every prefix
    of S.

    Rows. The row of S is K_P[j, c] for c > j, one entry per child S + {c},
    so a level has C(m, q + 1) row entries. It is formed only when the
    children of S are grown (``_children``), from ``up``: the rows of level
    q - 1 back to back, one entry per subset of the block ``_children``
    made, of which this block may be a cut. With P = P' + {j_P}, subset i
    owns x[i] = K_P'[j_P, j], the row of P runs on at x[i + 1], x[i + 2],
    ..., and the row of the sibling P' + {j} of P is
    up[src[i] + d] = K_P'[j, j + d], d >= 1. Both are contiguous runs, and
    K_P[j, j + d] = up[src[i] + d] - mult[i] x[i + d] with
    mult[i] = conj(x[i]) / K_P'[j_P, j_P]. Level 1 reads G itself: up is G
    flattened, src[i] the place of G[j, j] and mult = x = 0. Cutting a block
    cuts every field but ``up``.

    A block of a stack of matrices holds last, mask and src once and the
    other fields' entries of each matrix in turn; only a stack of one is cut
    (see ``_stack_size``)."""

    last: np.ndarray
    mask: np.ndarray
    piv: np.ndarray
    det: np.ndarray
    ok: np.ndarray
    mult: np.ndarray
    x: np.ndarray
    src: np.ndarray
    up: np.ndarray


class _Links(NamedTuple):
    """Where the children of a piece b of level q read b: child t extends
    subset par[t] of b, sib[t] is its sibling P + {j'} in b and row[t] the
    place of K_P'[j, j'] in b.up. Like ``_Shape``, independent of A."""

    par: np.ndarray
    sib: np.ndarray
    row: np.ndarray


class _Shape(NamedTuple):
    """The fields of a ``_Block`` that do not depend on A."""

    last: np.ndarray
    mask: np.ndarray
    src: np.ndarray


def _links(b, counts: np.ndarray, first: np.ndarray) -> tuple[_Links, _Shape]:
    """The layout of the (q+1)-subsets S + {j'}, j' > j, of the q-subsets
    S = P + {j} of b (a ``_Block`` or ``_Shape``), in lexicographic order;
    subset i of b has counts[i] = m - 1 - j children, the first at first[i].
    Child t's sibling P + {j'} sits j' - j places after S."""
    par = np.repeat(np.arange(counts.size), counts)
    gap = np.arange(1, par.size + 1) - first[par]  # j' - j
    last = b.last[par] + gap
    sib = par + gap  # P + {j'}
    return (_Links(par, sib, b.src[par] + gap),
            _Shape(last, b.mask[par] | (1 << last), (first - 1)[sib]))


def _children(b: _Block, links: _Links, shape: _Shape, q: int, scales: list,
              clear: float, real: bool) -> _Block:
    """The children of b laid out by ``_links``, for each matrix of the stack
    whose u are ``scales``. Forms the rows of b: x[t] = K_P[j, j'] for child
    t, whose sibling owns K_P[j', j'], so one elimination step gives the
    pivot of the child. A zero pivot in b divides by zero here, under the
    caller's errstate."""
    (par, sib, row), n = links, len(scales)
    if n > 1:  # matrix i reads its own entries, after those of matrix i - 1
        start = np.arange(n)[:, None]
        par, sib, row = ((start * width + index).reshape(-1) for index, width in (
            (par, b.last.size), (sib, b.last.size), (row, b.up.size // n)))
    u = scales[0] if n == 1 else np.repeat(scales, links.par.size)
    x = b.up[row]  # K_P'[j, j']
    x -= b.mult[par] * b.x[sib]  # K_P[j, j'] = K_P'[j, j'] - mult K_P'[j_P, j']
    mult = (x if real else x.conj()) / b.piv[par]  # a real G's x is its own conjugate
    piv = b.piv[sib] - (mult * x).real
    det = b.det[par] * (piv * u)
    ok = b.ok[par] & (det > clear * (q + 1) ** (q + 1) / q ** q)
    return _Block(shape.last, shape.mask, piv, det, ok, mult, x, shape.src, x)


# At most 300 levels (m <= 24) per block size: 11.2 MiB with every m in use
# at the default one, 3 MiB of it at m = 16.
@functools.lru_cache(maxsize=None)
def _whole_level(m: int, q: int, block: int) -> tuple[_Links | None, _Shape] | None:
    """The read-only (links, shape) of level q of the subset tree of m
    columns (no links at q = 1) if every level up to q is grown whole, that
    is C(m, q') <= block for 2 <= q' <= q; else None. Laid out by ``_links``
    as a level grown per call is, once per process."""
    if q == 1:
        cols = np.arange(m)
        level = (None, _Shape(cols, 1 << cols, cols * (m + 1)))  # level 1 reads G
    else:
        up = _whole_level(m, q - 1, block) if math.comb(m, q) <= block else None
        if up is None:
            return None
        counts = m - 1 - up[1].last
        level = _links(up[1], counts, np.cumsum(counts) - counts)
    for part in filter(None, level):
        for field in part:
            field.flags.writeable = False
    return level


def _pieces(b: _Block, q: int, m: int):
    """b, a block of level q, cut between sibling groups into runs of at most
    _KRUSKAL_BLOCK children each (one run if b has no more), or of one group
    where a group alone has more; each with the ``_links`` of its children.
    A level grown whole (every block of level q is then all of it) reads
    them from ``_whole_level``."""
    whole = _whole_level(m, q + 1, _KRUSKAL_BLOCK)
    if whole is not None:
        yield b, *whole
        return
    counts = m - 1 - b.last
    ends = np.cumsum(counts)
    parent = b.mask ^ (1 << b.last)
    cuts = np.flatnonzero(np.diff(parent, prepend=-1, append=-1))  # group starts, end
    before = np.concatenate(([0], ends))[cuts]  # children before each cut
    i = 0
    while i < cuts.size - 1:
        k = int(np.searchsorted(before, before[i] + _KRUSKAL_BLOCK, side="right")) - 1
        k = max(k, i + 1)
        lo, hi = cuts[i], cuts[k]
        piece = _Block(*(field[lo:hi] for field in b[:-1]), b.up)
        yield piece, *_links(piece, counts[lo:hi], ends[lo:hi] - counts[lo:hi] - before[i])
        i = k


def _grow(blocks, q: int, target: int, m: int, scales: list, clear: float, real: bool):
    """The blocks of level ``target`` that descend from ``blocks`` of level q."""
    for b in blocks:
        for piece, links, shape in _pieces(b, q, m):
            child = _children(piece, links, shape, q, scales, clear, real)
            if not child.ok.size:
                continue
            if q + 1 == target:
                yield child
            else:
                yield from _grow((child,), q + 1, target, m, scales, clear, real)


def _stack_size(m: int, p: int) -> int:
    """Matrices of p rows and m columns that one level pass takes together:
    as many as one block holds at the widest level the pass can reach,
    C(m, q) with q = min(p, m // 2); at least one."""
    return max(1, _KRUSKAL_BLOCK // math.comb(m, min(p, m // 2)))


def kruskal_rank(A: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> int | np.ndarray:
    """Largest q such that every set of q columns of A is linearly independent;
    for a stack A of shape (n, p, m), an int array of the n matrices' ranks.

    Exhaustive over column subsets, bottom-up in q, ending a matrix's scan at
    the first block of a level that holds a failing subset of it; a subset
    counts as full rank when its smallest singular value exceeds rel_tol =
    ``tol.rank_rel_tol`` times its largest (the SVD test). Refuses matrices
    wider than 24 columns (combinatorial guard) and A with a NaN or infinite
    entry.

    Stacks. A 2-D A is a stack of one. The pass takes up to
    ``_stack_size(m, p)`` matrices at a time and grows each level for all of
    them in one block; a matrix leaves at the level where its SVD test fails.
    Each gets the Gram, pivots, screen and SVD test it gets alone, so the
    error bound below holds per matrix (a stack holding a complex matrix forms
    every Gram in complex arithmetic, which the bound covers).

    Screen. Each q-subset S is first screened on the Gram matrix G = A^H A.
    Let H = G_S / tr(G_S), with eigenvalues l_1 <= ... <= l_q summing to 1.
    H is positive semidefinite, so by AM-GM on the other q - 1 eigenvalues
    det(H) <= l_1 * (1 / (q - 1))^(q - 1), and l_q <= 1; hence
    l_1 / l_q >= l_1 >= b = det(H) * (q - 1)^(q - 1). Let u be the power of
    two that puts max_j G_jj in [1/2, 1) (at most 2^1023; 1 for G = 0, 0 for
    an overflowed G). As tr(G_S) <= q / u, D_S = u^q det(G_S) has the
    statistic D_S (q - 1)^(q - 1) / q^q <= b. S is cleared as full rank when
    it exceeds clear = max(rel_tol, 1e4 * eps), tr(G_S) is at least the
    smallest normal double (below it G carries underflow error) and every
    prefix of S (its first i columns, i < q) was cleared; a trace never falls
    from prefix to subset, so the trace test is made on single columns and
    the prefix rule carries it. Every other subset, including each one where
    D_S is NaN, goes through the SVD test on the complex column slices, so
    every decision the screen does not make is exactly the SVD test's.

    Level pass. det(G_S) comes from symmetric Gaussian elimination (LDL^H)
    of G_S in column order, shared along the subset tree (see ``_Block`` and
    ``_children``): a child S + {j'} of S = P + {j} has the pivot
    K_S[j', j'] = K_P[j', j'] - |K_P[j, j']|^2 / K_P[j, j], so
    D_child = D_S * (u * pivot). Growing level q + 1 costs a few numpy
    operations over its C(m, q + 1) subsets, each with one entry of the rows
    of level q, and no LAPACK call. A level forms its rows only when the next
    level is grown from it, so the level where the scan stops forms none.
    Blocks hold whole sibling groups, so the children of a block are one
    contiguous lexicographic range. A level of at most _KRUSKAL_KEEP subsets
    is kept whole for the next level to grow from; deeper levels are regrown
    block by block from the last kept one, so memory stays bounded up to 24
    columns. Which subset extends which (``_links``) depends on m alone: the
    levels grown in one block are laid out once per m and held for the
    process (``_whole_level``), so a call does only the arithmetic on them.
    The children of a subset that only the SVD test passed are never
    cleared, so a zero or negative pivot only ever feeds subsets that go to
    the SVD test.

    Error bound. Each entry of each K_P comes from the computed G by one
    elimination step per column of P, in column order, each step on the
    entries the step before computed (a regrown level repeats the same
    operations on the same operands, so it computes the same values). So
    the computed pivots of S are those of LDL^H without pivoting applied to
    the computed G_S. By the backward error analysis of a matrix product
    and of LDL^H / Cholesky (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., sections 3.5, 3.6 and 10.1) they are the exact
    pivots of M = A_S^H A_S + E with
    ||E||_2 <= delta = c (p + q + 4) eps tr(G_S), c = 2, which covers
    complex arithmetic and, with tr(G_S) at least the smallest normal
    double, underflow. The bound needs every pivot but the last to be
    positive, which the prefix rule guarantees. Each u * pivot is at most
    about 1, so a D_S above clear stayed normal, where scaling by u is exact,
    and tr(M) <= q / u + q delta: the statistic is at most b(M) up to a
    relative q eps + q^2 delta / tr. For p + q <= 400 (every design),
    delta / tr <= 1e3 eps, and:
    - A dependent S: M has an eigenvalue in [-delta, delta] and the others
      sum in absolute value to at most tr(M) + 2 q delta, so the statistic
      is at most about delta / tr <= 1e3 eps, under the 1e4 * eps floor: S
      is never cleared.
    - A cleared S: b(M) > clear up to that rounding, so M is positive
      definite (two eigenvalues in [-delta, 0) would make b(M) of order
      (delta / tr)^2) and l_1 of A_S^H A_S is at least
      clear - 2 delta / tr >= 0.8 clear. So sigma_min / sigma_max of A_S is
      at least sqrt(0.8 clear), 1.3e-6 when the eps floor sets clear, far
      above such a rel_tol. When rel_tol sets clear, one column has ratio
      1 > rel_tol, and for q >= 2 b <= max_l l (1 - l)^(q - 1) <= 1 / 4, so
      clearing needs rel_tol < 1 / 4 and leaves a ratio of at least
      sqrt(0.8 rel_tol) >= 1.7 rel_tol. The SVD test's own rounding does
      not close that margin, so every cleared subset passes it and sigma is
      what the SVD scan gives.
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim not in (2, 3):
        raise DimensionError(f"A must be 2-D or a stack of 2-D matrices, got shape {A.shape}")
    p, m = A.shape[-2:]
    if m > KRUSKAL_MAX_COLUMNS:
        raise InvalidInputError(
            f"kruskal_rank refuses m={m} columns: exhaustive subset search is "
            f"limited to {KRUSKAL_MAX_COLUMNS} columns")
    _require_finite(A, "A")
    stack = A[None] if A.ndim == 2 else A
    size = _stack_size(m, p)
    ranks = [rank for lo in range(0, stack.shape[0], size)
             for rank in _level_pass(stack[lo:lo + size], tol)]
    return ranks[0] if A.ndim == 2 else np.array(ranks, dtype=int)


def _level_pass(stack: np.ndarray, tol: Tolerances) -> list[int]:
    """The ranks of a checked stack of at most ``_stack_size(m, p)`` matrices, in one pass."""
    p, m = stack.shape[1:]
    rel_tol = tol.rank_rel_tol
    ranks = [min(p, m)] * stack.shape[0]
    live = range(len(ranks))  # the matrices still in the pass, by place in the stack
    real = not stack.imag.any()
    clear = max(rel_tol, 1e4 * _EPS)
    cols, masks, src = _whole_level(m, 1, _KRUSKAL_BLOCK)[1]
    # An overflowed G or a zero pivot makes NaN or inf only in subsets the
    # screen does not clear; those go to the SVD test.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gram = (stack.real.transpose(0, 2, 1) @ stack.real if real
                else stack.conj().transpose(0, 2, 1) @ stack)
        gdiag = gram.diagonal(0, 1, 2).real
        scales = [math.ldexp(1.0, min(-math.frexp(peak)[1], 1023)) if peak < math.inf
                  else 0.0 for peak in gdiag.max(axis=1, initial=0.0).tolist()]
        gdiag = gdiag.reshape(-1)
        det = gdiag * (scales[0] if len(scales) == 1 else np.repeat(scales, m))
        zero = np.zeros(gdiag.size, gram.dtype)
        kept = (_Block(cols, masks, gdiag, det, (det > clear) & (gdiag >= _TINY),
                       zero, zero, src, gram.reshape(-1)),)
        kept_q = 1
        for q in range(1, min(p, m) + 1):
            level = kept if q == kept_q else _grow(kept, kept_q, q, m, scales, clear, real)
            keep = [] if math.comb(m, q) <= _KRUSKAL_KEEP else None
            failed = set()  # places in ``live``
            for b in level:
                if not b.ok.all():
                    t, i = np.nonzero(~b.ok.reshape(len(live), -1))
                    # the set bits of each mask, ascending: the subset's columns
                    in_set = (b.mask[i][:, None] >> cols) & 1
                    subs = stack[t[:, None], :, np.nonzero(in_set)[1].reshape(-1, q)]
                    sv = np.linalg.svd(subs.swapaxes(1, 2), compute_uv=False)  # min(p, q) each
                    failed.update(t[~(sv[:, -1] > rel_tol * sv[:, 0])].tolist())
                    if len(failed) == len(live):
                        break
                if keep is not None:
                    keep.append(b)
            if keep is not None:
                kept, kept_q = keep, q
            if failed:  # those matrices leave the stack
                for t in failed:
                    ranks[live[t]] = q - 1
                stay = [t not in failed for t in range(len(live))]
                if not any(stay):
                    break
                live, scales = ([v for v, kept_v in zip(vs, stay) if kept_v]
                                for vs in (live, scales))
                stack = stack[stay]
                kept = [b._replace(**{f: getattr(b, f).reshape(len(stay), -1)[stay].reshape(-1)
                                      for f in ("piv", "det", "ok", "mult", "x", "up")})
                        for b in kept]
    return ranks


# ---------------------------------------------------------------------------
# Random ensembles
# ---------------------------------------------------------------------------

def make_cs_matrix(kind: str, p: int, m: int, rng: np.random.Generator,
                   cosets=None) -> np.ndarray:
    """Draw a p x m compressed-sensing matrix.

    gaussian       i.i.d. complex Gaussian, columns normalized to unit norm
    gaussian_real  i.i.d. real Gaussian, columns normalized to unit norm
    bernoulli      i.i.d. +-1/sqrt(p)
    fourier_rows   p rows of the m x m DFT-style matrix exp(2j*pi*l*c/m)/sqrt(m);
                   row indices are ``cosets`` or a random distinct draw
    """
    if p > m:
        raise InvalidInputError(f"p={p} must not exceed m={m}")
    if kind == "gaussian":
        A = rng.standard_normal((p, m)) + 1j * rng.standard_normal((p, m))
        return A / np.linalg.norm(A, axis=0, keepdims=True)
    if kind == "gaussian_real":
        A = rng.standard_normal((p, m)).astype(np.complex128)
        return A / np.linalg.norm(A, axis=0, keepdims=True)
    if kind == "bernoulli":
        return rng.choice([-1.0, 1.0], size=(p, m)).astype(np.complex128) / np.sqrt(p)
    if kind == "fourier_rows":
        if cosets is None:
            cosets = rng.choice(m, size=p, replace=False)
        cosets = np.asarray([_require_int(c, "coset row") for c in cosets], dtype=int)
        if cosets.shape[0] != p:
            raise InvalidInputError(f"need {p} coset rows, got {cosets.shape[0]}")
        if len(set(int(c) % m for c in cosets)) != p:
            raise InvalidInputError("coset rows must be distinct mod m")
        ell = np.arange(m)
        return np.exp(2j * np.pi * np.outer(cosets, ell) / m) / np.sqrt(m)
    raise InvalidInputError(f"unknown matrix kind {kind!r}; choose from {MATRIX_KINDS}")


def random_invertible_w(p: int, grid: FrequencyGrid,
                        rng: np.random.Generator) -> PeriodicMatrixFunction:
    """Random invertible p x p filter bank with condition number at most 1e4
    at every bin, in at most 64 draws."""
    for _ in range(64):
        values = rng.standard_normal((grid.n, p, p)) + 1j * rng.standard_normal((grid.n, p, p))
        w = PeriodicMatrixFunction(grid, values)
        if np.max(w.condition_numbers()) <= 1e4:
            return w
    raise InvalidInputError("failed to draw a well-conditioned W")


def random_diagonal_z(m: int, grid: FrequencyGrid,
                      rng: np.random.Generator) -> PeriodicMatrixFunction:
    """Random invertible diagonal bank; magnitudes in [0.5, 1.5], random phase."""
    mag = rng.uniform(0.5, 1.5, size=(grid.n, m))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(grid.n, m))
    return PeriodicMatrixFunction._from_diagonal(grid, mag * np.exp(1j * phase))


# ---------------------------------------------------------------------------
# JSON serialization (bit-exact round trip)
# ---------------------------------------------------------------------------

def _pairs(values: np.ndarray) -> list:
    flat = np.asarray(values, dtype=np.complex128).reshape(-1)
    return [[float(v.real), float(v.imag)] for v in flat]


def design_to_json(design: MeasurementDesign, matrix_kind: str | None = None,
                   seed: int | None = None) -> str:
    """Serialize a design. Doubles are written as Python's shortest repr,
    which parses back to the same double, so the round trip is bit-exact.
    A non-finite or unserializable value raises InvalidInputError."""
    doc = {
        "p": design.p,
        "m": design.m,
        "N": design.grid.n,
        "A": _pairs(design.A),
        "W": [_pairs(design.W.values[q]) for q in range(design.grid.n)],
        "Z": None if design.Z is None else
             [_pairs(design.Z.diagonal()[q]) for q in range(design.grid.n)],
        "matrix_kind": matrix_kind,
        "seed": seed,
    }
    try:
        return json.dumps(doc, allow_nan=False, default=int)  # int: NumPy integers
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"cannot serialize design: {exc}") from exc


def _from_pairs(pairs, shape: tuple[int, ...], key: str) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in pairs],
                        dtype=np.complex128).reshape(shape)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(
            f"design field {key!r} needs {math.prod(shape)} [re, im] pairs per entry: "
            f"{exc}") from exc


def _per_bin(doc: dict, key: str, shape: tuple[int, ...], grid: FrequencyGrid) -> np.ndarray:
    """Field ``key`` (W or Z): one list of [re, im] pairs per grid bin."""
    bins = doc[key]
    if not isinstance(bins, list) or len(bins) != grid.n:
        raise InvalidInputError(f"design field {key!r} needs one entry per grid bin ({grid.n})")
    return np.stack([_from_pairs(pairs, shape, key) for pairs in bins])


def design_from_json(text: str, tol: Tolerances = DEFAULT_TOLERANCES
                     ) -> tuple[MeasurementDesign, dict]:
    """Parse a serialized design; returns (design, metadata).

    Text that is not a JSON object, or a field of the wrong type or length,
    raises InvalidInputError naming the field. The design is built by
    ``make_design``, so a W or a Z whose condition number exceeds cond_tol at
    some bin raises SingularOperatorError naming the grid point.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"design document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInputError("design document must be a JSON object")
    for key in ("p", "m", "N", "A", "W"):
        if key not in doc:
            raise InvalidInputError(f"design document is missing field {key!r}")
        if key in ("p", "m", "N") and type(doc[key]) is not int:  # rejects a bool too
            raise InvalidInputError(f"design field {key!r} must be an integer")
    p, m = doc["p"], doc["m"]
    grid = FrequencyGrid(doc["N"])
    W = PeriodicMatrixFunction(grid, _per_bin(doc, "W", (p, p), grid))
    Z = None
    if doc.get("Z") is not None:
        Z = PeriodicMatrixFunction._from_diagonal(grid, _per_bin(doc, "Z", (m,), grid))
    design = make_design(_from_pairs(doc["A"], (p, m), "A"), grid, W, Z, tol)
    meta = {"matrix_kind": doc.get("matrix_kind"), "seed": doc.get("seed")}
    return design, meta

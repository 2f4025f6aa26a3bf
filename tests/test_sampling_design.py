import itertools
import json

import numpy as np
import pytest

from si_subnyq.errors import DimensionError, InvalidInputError, SingularOperatorError
from si_subnyq.sampling_design import (
    MeasurementDesign,
    biorthogonalize,
    build_sampling_filters,
    combined_operator,
    compressive_sample,
    design_from_json,
    design_to_json,
    kruskal_rank,
    make_cs_matrix,
    make_design,
    random_diagonal_z,
    random_invertible_w,
    validate_design,
)
from si_subnyq.scenarios import multiband_slice_generators, shifted_box_generators
from si_subnyq.si_core import (
    FrequencyGrid,
    GeneratorSet,
    PeriodicMatrixFunction,
    cross_spectrum_matrix,
    filterbank_sample,
    random_generator_set,
)
from si_subnyq.sparse_model import SparsityProfile, synthesize


def row_reduction_rank(matrix, tol=1e-10):
    """Rank by Gaussian elimination with partial pivoting (oracle)."""
    a = np.array(matrix, dtype=np.complex128)
    rows, cols = a.shape
    scale = np.max(np.abs(a)) or 1.0
    rank = 0
    for col in range(cols):
        if rank >= rows:
            break
        pivot = rank + np.argmax(np.abs(a[rank:, col]))
        if np.abs(a[pivot, col]) <= tol * scale:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = a[rank] / a[rank, col]
        for r in range(rows):
            if r != rank:
                a[r] -= a[r, col] * a[rank]
        rank += 1
    return rank


def kruskal_oracle(matrix):
    """Exhaustive Kruskal rank with two independent rank tests per subset."""
    p, m = matrix.shape
    for q in range(1, min(p, m) + 1):
        for combo in itertools.combinations(range(m), q):
            sub = matrix[:, combo]
            sv = np.linalg.svd(sub, compute_uv=False)
            svd_full = sv[-1] > 1e-10 * sv[0]
            rr_full = row_reduction_rank(sub) == q
            assert svd_full == rr_full, f"rank tests disagree on columns {combo}"
            if not svd_full:
                return q - 1
    return min(p, m)


# ---------------------------------------------------------------------------
# biorthogonalize
# ---------------------------------------------------------------------------

def test_orthonormal_family_is_self_biorthogonal():
    gens = multiband_slice_generators(4, 1.0, FrequencyGrid(8))
    v = biorthogonalize(gens, gens)
    assert np.max(np.abs(v.spectra - gens.spectra)) <= 1e-14


def test_box_family_is_self_biorthogonal_at_unit_period():
    gens = shifted_box_generators(5, 1.0, FrequencyGrid(8))
    v = biorthogonalize(gens, gens)
    assert np.max(np.abs(v.spectra - gens.spectra)) <= 1e-13


def test_biorthogonalized_family_gives_identity():
    rng = np.random.default_rng(31)
    grid = FrequencyGrid(8)
    gens = random_generator_set(3, grid, 1.0, (-2, -1, 0, 1, 2), rng)
    h = random_generator_set(3, grid, 1.0, gens.alias_support, rng)
    v = biorthogonalize(h, gens)
    m_va = cross_spectrum_matrix(v, gens)
    assert np.max(np.abs(m_va.values - np.eye(3))) <= 1e-10


def test_biorthogonal_set_unique_across_equivalent_families():
    rng = np.random.default_rng(32)
    grid = FrequencyGrid(8)
    gens = random_generator_set(3, grid, 1.0, (-1, 0, 1, 2), rng)
    h = random_generator_set(3, grid, 1.0, gens.alias_support, rng)
    v1 = biorthogonalize(h, gens)
    recombine = random_invertible_w(3, grid, rng)
    h2 = GeneratorSet(grid, 1.0, gens.alias_support,
                      np.einsum("qir,rqj->iqj", recombine.values, h.spectra))
    v2 = biorthogonalize(h2, gens)
    assert np.max(np.abs(v1.spectra - v2.spectra)) <= 1e-9


def test_singular_point_is_named():
    gens = multiband_slice_generators(3, 1.0, FrequencyGrid(8))
    spectra = np.array(gens.spectra, copy=True)
    spectra[0, 2, :] = 0.0  # kill one channel at grid point 2
    h = GeneratorSet(gens.grid, gens.period, gens.alias_support, spectra)
    with pytest.raises(SingularOperatorError) as err:
        biorthogonalize(h, gens)
    assert err.value.grid_index == 2


# ---------------------------------------------------------------------------
# build_sampling_filters
# ---------------------------------------------------------------------------

def test_identity_design_returns_biorthogonal_set():
    gens = multiband_slice_generators(3, 1.0, FrequencyGrid(8))
    v = biorthogonalize(gens, gens)
    design = make_design(np.eye(3), gens.grid)
    filters = build_sampling_filters(design, v)
    assert np.max(np.abs(filters.spectra - v.spectra)) <= 1e-14


def test_periodic_design_filters_are_mixed_prefilter_shifts():
    gens = shifted_box_generators(4, 1.0, FrequencyGrid(8))
    v = biorthogonalize(gens, gens)
    rng = np.random.default_rng(33)
    a_matrix = make_cs_matrix("gaussian", 2, 4, rng)
    design = make_design(a_matrix, gens.grid)
    filters = build_sampling_filters(design, v)
    expected = np.einsum("il,lqj->iqj", np.conj(a_matrix), v.spectra)
    assert np.max(np.abs(filters.spectra - expected)) <= 1e-14


def test_synthesized_filters_realize_the_target_operator():
    rng = np.random.default_rng(34)
    grid = FrequencyGrid(8)
    gens = random_generator_set(4, grid, 1.0, (-2, -1, 0, 1, 2, 3), rng)
    h = random_generator_set(4, grid, 1.0, gens.alias_support, rng)
    v = biorthogonalize(h, gens)
    a_matrix = make_cs_matrix("gaussian", 2, 4, rng)
    w = random_invertible_w(2, grid, rng)
    design = make_design(a_matrix, grid, W=w)
    filters = build_sampling_filters(design, v)
    m_sa = cross_spectrum_matrix(filters, gens)
    target = w.values @ a_matrix
    assert np.max(np.abs(m_sa.values - target)) <= 1e-10


# ---------------------------------------------------------------------------
# compressive_sample
# ---------------------------------------------------------------------------

def test_zero_bank_samples_to_zero():
    grid = FrequencyGrid(8)
    design = make_design(make_cs_matrix("gaussian", 2, 4, np.random.default_rng(35)), grid)
    d = synthesize(SparsityProfile(4, 0, frozenset()), 8, seed=0)
    assert np.all(compressive_sample(d, design).sequences == 0)


def test_static_case_is_plain_matrix_product():
    # N = 1: a single bin at w = 0 reduces everything to one matrix-vector product
    grid = FrequencyGrid(1)
    rng = np.random.default_rng(36)
    a_matrix = make_cs_matrix("gaussian", 3, 5, rng)
    design = make_design(a_matrix, grid)
    d = synthesize(SparsityProfile(5, 5, frozenset(range(5))), 1, seed=37)
    y = compressive_sample(d, design)
    expected = a_matrix @ d.sequences[:, 0]
    assert np.max(np.abs(y.sequences[:, 0] - expected)) <= 1e-14


def test_direct_product_agrees_with_filterbank_path():
    rng = np.random.default_rng(38)
    grid = FrequencyGrid(8)
    a_matrix = make_cs_matrix("gaussian", 3, 5, rng)
    w = random_invertible_w(3, grid, rng)
    z = random_diagonal_z(5, grid, rng)
    design = make_design(a_matrix, grid, W=w, Z=z)
    d = synthesize(SparsityProfile(5, 5, frozenset(range(5))), 8, seed=39)
    direct = compressive_sample(d, design).sequences
    via_bank = filterbank_sample(d, combined_operator(design))
    assert np.max(np.abs(direct - via_bank)) / np.max(np.abs(direct)) <= 1e-12


def test_dimension_mismatch_rejected():
    grid = FrequencyGrid(8)
    design = make_design(make_cs_matrix("gaussian", 2, 4, np.random.default_rng(40)), grid)
    d = synthesize(SparsityProfile(3, 0, frozenset()), 8, seed=0)
    with pytest.raises(DimensionError):
        compressive_sample(d, design)


def _chunk_designs(rng, grid, p, m):
    """Designs of one shape: identity, dense and diagonal W, with and without Z."""
    dense = rng.standard_normal((grid.n, p, p)) + 1j * rng.standard_normal((grid.n, p, p))
    diagonal = PeriodicMatrixFunction._from_diagonal(grid, np.exp(1j * rng.uniform(0, 6, (grid.n, p))))
    for w in (None, PeriodicMatrixFunction(grid, dense), diagonal):
        for z in (None, random_diagonal_z(m, grid, rng)):
            yield make_design(make_cs_matrix("gaussian", p, m, rng), grid, W=w, Z=z)


@pytest.mark.parametrize("n", [1, 8, 89])
@pytest.mark.parametrize("identity_only", [True, False])
def test_chunk_of_measurements_equals_each_bank_sampled_alone(n, identity_only):
    rng = np.random.default_rng(n)
    grid = FrequencyGrid(n)
    designs = [d for d in _chunk_designs(rng, grid, 3, 5) for _ in range(2)]
    if identity_only:
        designs = [d for d in designs if d.W.is_diagonal() and d.Z is None
                   and np.all(d.W.diagonal() == 1)]
    banks = [synthesize(SparsityProfile(5, k, frozenset(range(k))), n, rng)
             for k in rng.integers(0, 4, size=len(designs)).tolist()]
    ys = compressive_sample(banks, designs)
    assert len(ys) == len(designs)
    for y, bank, design in zip(ys, banks, designs):
        assert y.sequences.tobytes() == compressive_sample(bank, design).sequences.tobytes()
        assert not y.sequences.flags.writeable
        assert not np.shares_memory(y.sequences, bank.sequences)


def test_empty_chunk_has_no_measurements():
    assert compressive_sample([], []) == []


def test_chunk_refuses_mixed_shapes_and_a_design_count_off_by_one():
    rng = np.random.default_rng(41)
    grid = FrequencyGrid(8)
    narrow, wide = (make_design(make_cs_matrix("gaussian", p, 4, rng), grid) for p in (2, 3))
    bank = synthesize(SparsityProfile(4, 1, frozenset({2})), 8, rng)
    with pytest.raises(DimensionError, match="^the designs of a chunk must share one shape$"):
        compressive_sample([bank, bank], [narrow, wide])
    with pytest.raises(InvalidInputError, match="^2 banks need as many designs, got 1$"):
        compressive_sample([bank, bank], [narrow])


# ---------------------------------------------------------------------------
# kruskal_rank
# ---------------------------------------------------------------------------

def test_kruskal_identity():
    assert kruskal_rank(np.eye(3)) == 3


def test_kruskal_repeated_column():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert kruskal_rank(a) == 1


def test_kruskal_matches_exhaustive_dual_oracle():
    rng = np.random.default_rng(41)
    a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    assert kruskal_rank(a) == kruskal_oracle(a)


def test_kruskal_zero_matrix():
    assert kruskal_rank(np.zeros((3, 4))) == 0


def test_kruskal_guard_refuses_wide_matrices():
    with pytest.raises(InvalidInputError, match="24"):
        kruskal_rank(np.ones((2, 25)))


# ---------------------------------------------------------------------------
# design validation and ensembles
# ---------------------------------------------------------------------------

def test_design_rejects_more_rows_than_columns():
    grid = FrequencyGrid(4)
    with pytest.raises(InvalidInputError):
        MeasurementDesign(A=np.ones((4, 2)), W=PeriodicMatrixFunction.identity(grid, 4),
                          grid=grid)


@pytest.mark.parametrize("shape", [(0, 3), (0, 0)])
def test_design_rejects_a_without_rows_or_columns(shape):
    with pytest.raises(DimensionError, match="A must be 2-D with a row and a column"):
        make_design(np.zeros(shape), FrequencyGrid(4))


def test_validate_design_rejects_singular_w():
    grid = FrequencyGrid(4)
    values = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
    values[1] = 0.0
    design = MeasurementDesign(A=np.ones((2, 3)), W=PeriodicMatrixFunction(grid, values),
                               grid=grid)
    with pytest.raises(SingularOperatorError) as err:
        validate_design(design)
    assert err.value.grid_index == 1


def test_validate_design_rejects_vanishing_z_entry():
    grid = FrequencyGrid(4)
    rng = np.random.default_rng(43)
    z = np.array(random_diagonal_z(3, grid, rng).values, copy=True)
    z[2, 1, 1] = 0.0
    design = MeasurementDesign(A=np.ones((2, 3)),
                               W=PeriodicMatrixFunction.identity(grid, 2),
                               grid=grid, Z=PeriodicMatrixFunction(grid, z))
    with pytest.raises(SingularOperatorError):
        validate_design(design)


def test_design_rejects_non_diagonal_z():
    grid = FrequencyGrid(4)
    z = np.broadcast_to(np.ones((3, 3)), (4, 3, 3))
    with pytest.raises(InvalidInputError):
        MeasurementDesign(A=np.ones((2, 3)),
                          W=PeriodicMatrixFunction.identity(grid, 2),
                          grid=grid, Z=PeriodicMatrixFunction(grid, z))


def test_gaussian_matrix_has_unit_columns():
    a = make_cs_matrix("gaussian", 3, 6, np.random.default_rng(44))
    assert np.allclose(np.linalg.norm(a, axis=0), 1.0)


def test_bernoulli_matrix_entries():
    a = make_cs_matrix("bernoulli", 4, 6, np.random.default_rng(45))
    assert np.allclose(np.abs(a), 1 / np.sqrt(4))


def test_fourier_rows_requires_distinct_cosets():
    with pytest.raises(InvalidInputError):
        make_cs_matrix("fourier_rows", 2, 4, np.random.default_rng(46), cosets=[0, 4])


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def test_design_json_round_trip_is_bit_exact():
    rng = np.random.default_rng(47)
    grid = FrequencyGrid(6)
    a_matrix = make_cs_matrix("gaussian", 2, 4, rng)
    w = random_invertible_w(2, grid, rng)
    z = random_diagonal_z(4, grid, rng)
    design = make_design(a_matrix, grid, W=w, Z=z)
    text = design_to_json(design, matrix_kind="gaussian", seed=47)
    loaded, meta = design_from_json(text)
    assert np.array_equal(loaded.A, design.A)
    assert np.array_equal(loaded.W.values, design.W.values)
    assert np.array_equal(loaded.Z.values, design.Z.values)
    assert meta == {"matrix_kind": "gaussian", "seed": 47}
    # a second serialization of the loaded design is byte-identical
    assert design_to_json(loaded, matrix_kind="gaussian", seed=47) == text


def test_design_json_without_z():
    grid = FrequencyGrid(3)
    design = make_design(np.eye(2, 3), grid)
    loaded, meta = design_from_json(design_to_json(design))
    assert loaded.Z is None
    assert np.array_equal(loaded.A, design.A)
    assert meta == {"matrix_kind": None, "seed": None}


def test_design_json_rejects_non_finite_values():
    grid = FrequencyGrid(3)
    a_matrix = np.eye(2, 3)
    a_matrix[1, 2] = np.nan
    design = MeasurementDesign(A=a_matrix, W=PeriodicMatrixFunction.identity(grid, 2),
                               grid=grid)
    with pytest.raises(InvalidInputError, match="cannot serialize"):
        design_to_json(design)


def test_design_json_writes_numpy_integers_as_integers():
    grid = FrequencyGrid(np.int64(3))
    text = design_to_json(make_design(np.eye(2, 3), grid), seed=np.uint64(2 ** 63))
    loaded, meta = design_from_json(text)
    assert loaded.grid.n == 3
    assert meta["seed"] == 2 ** 63


def test_design_json_missing_field_rejected():
    with pytest.raises(InvalidInputError, match="'A'"):
        design_from_json('{"p": 1, "m": 2, "N": 2, "W": []}')


def _design_doc():
    rng = np.random.default_rng(49)
    grid = FrequencyGrid(3)
    design = make_design(make_cs_matrix("gaussian", 2, 4, rng), grid,
                         W=random_invertible_w(2, grid, rng),
                         Z=random_diagonal_z(4, grid, rng))
    return json.loads(design_to_json(design))


@pytest.mark.parametrize("text, message", [
    ('{"p": 1, "m": 2,', "not valid JSON"),
    ("[1, 2]", "JSON object"),
    ("3", "JSON object"),
])
def test_design_json_rejects_malformed_documents(text, message):
    with pytest.raises(InvalidInputError, match=message):
        design_from_json(text)


@pytest.mark.parametrize("field, edit", [
    ("A", lambda doc: doc["A"].pop()),
    ("A", lambda doc: doc["A"].append([0.0, 0.0])),
    ("A", lambda doc: doc["A"].__setitem__(0, [1.0])),
    ("W", lambda doc: doc["W"].pop()),
    ("W", lambda doc: doc["W"][1].pop()),
    ("W", lambda doc: doc.__setitem__("W", "identity")),
    ("Z", lambda doc: doc["Z"].append(doc["Z"][0])),
    ("Z", lambda doc: doc["Z"][2].pop()),
    ("p", lambda doc: doc.__setitem__("p", "2")),
    ("N", lambda doc: doc.__setitem__("N", 3.0)),
])
def test_design_json_wrong_length_or_type_names_the_field(field, edit):
    doc = _design_doc()
    edit(doc)
    with pytest.raises(InvalidInputError, match=f"'{field}'"):
        design_from_json(json.dumps(doc))


def test_design_json_rejects_singular_w_like_make_design():
    grid = FrequencyGrid(5)
    values = np.broadcast_to(np.eye(2), (5, 2, 2)).copy()
    values[3] = [[1.0, 2.0], [2.0, 4.0]]  # rank one at grid point 3
    tampered = MeasurementDesign(A=np.eye(2, 3), W=PeriodicMatrixFunction(grid, values),
                                 grid=grid)
    with pytest.raises(SingularOperatorError) as made:
        make_design(tampered.A, grid, W=tampered.W)
    with pytest.raises(SingularOperatorError) as loaded:
        design_from_json(design_to_json(tampered))
    assert loaded.value.grid_index == made.value.grid_index == 3


def test_design_json_rejects_near_zero_z():
    grid = FrequencyGrid(4)
    z = np.array(random_diagonal_z(3, grid, np.random.default_rng(48)).values, copy=True)
    z[1, 2, 2] = 1e-12
    tampered = MeasurementDesign(A=np.eye(2, 3), W=PeriodicMatrixFunction.identity(grid, 2),
                                 grid=grid, Z=PeriodicMatrixFunction(grid, z))
    with pytest.raises(SingularOperatorError) as err:
        design_from_json(design_to_json(tampered))
    assert err.value.grid_index == 1

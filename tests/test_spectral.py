"""Spectral module tests: validation, stationary vectors, real spectra,
eigenvectors, Jordan chains and indicator expansions.

Matrices used throughout:
  R2  two-color, eigenvalues {1, 0.3}
  RJ  three-color doubly stochastic, eigenvalue 0.25 repeated and defective
  RS  symmetric three-color, eigenvalue 0.25 repeated with full eigenspace
  R0  three-color with a defective zero eigenvalue
"""
import numpy as np
import pytest

from urnbound import (
    BasisSingular,
    ComplexSpectrum,
    NegativeEntry,
    NonFiniteEntry,
    NotAnEigenvalue,
    NotDefective,
    NotIrreducible,
    NotRepeated,
    ReplacementMatrix,
    RowSumNotOne,
    SpectralDecomposition,
    EigenStructure,
    decompose,
    indicator_coefficients,
    stationary_vector,
    validate_matrix,
)
from urnbound.spectral import (
    _real_spectrum as real_spectrum,
    _right_eigenvector as right_eigenvector,
    _strong_components,
)

from oracles import jordan_chain, strong_components_reference

R2_ROWS = [[0.7, 0.3], [0.4, 0.6]]
RJ_ROWS = [[5 / 8, 3 / 8, 0.0], [1 / 8, 3 / 8, 1 / 2], [1 / 4, 1 / 4, 1 / 2]]
RS_ROWS = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]
R0_ROWS = [[1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3], [1 / 2, 1 / 6, 1 / 3]]


def test_validate_accepts_two_color_example():
    R = validate_matrix(R2_ROWS)
    assert R.dim == 2
    np.testing.assert_allclose(R.matrix, R2_ROWS)


def test_validate_rejects_identity_as_reducible():
    with pytest.raises(NotIrreducible):
        validate_matrix([[1.0, 0.0], [0.0, 1.0]])


def test_validate_rejects_bad_row_sum():
    with pytest.raises(RowSumNotOne) as err:
        validate_matrix([[0.5, 0.6], [0.4, 0.6]])
    # a plain float, not numpy 2's np.float64(...) repr
    assert str(err.value) == "row 0 sums to 1.1, expected 1"


def test_validate_rejects_negative_entry():
    with pytest.raises(NegativeEntry):
        validate_matrix([[1.1, -0.1], [0.4, 0.6]])


@pytest.mark.parametrize("rows", [
    [[float("nan"), 0.5], [0.4, 0.6]],
    [[0.7, 0.3], [float("inf"), 0.6]],
    [[0.7, 0.3], [0.4, -float("inf")]],
])
def test_validate_rejects_non_finite_entry(rows):
    with pytest.raises(NonFiniteEntry, match=r"entry \(\d,\d\)"):
        validate_matrix(rows)


def test_validate_renormalizes_tiny_row_sum_error():
    rows = [[0.7 + 4e-13, 0.3], [0.4, 0.6]]
    R = validate_matrix(rows)
    np.testing.assert_allclose(R.matrix.sum(axis=1), [1.0, 1.0], atol=0)


def test_matrix_is_read_only():
    R = validate_matrix(R2_ROWS)
    with pytest.raises(ValueError):
        R.matrix[0, 0] = 0.5


def test_stationary_two_color():
    pi = stationary_vector(validate_matrix(R2_ROWS))
    np.testing.assert_allclose(pi, [4 / 7, 3 / 7], atol=1e-12)


def test_stationary_symmetric_half():
    pi = stationary_vector(validate_matrix([[0.5, 0.5], [0.5, 0.5]]))
    np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)


def test_stationary_doubly_stochastic_is_uniform():
    pi = stationary_vector(validate_matrix(RJ_ROWS))
    np.testing.assert_allclose(pi, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


@pytest.mark.parametrize("rows", [R2_ROWS, RJ_ROWS, RS_ROWS, R0_ROWS])
def test_stationary_properties(rows):
    R = validate_matrix(rows)
    pi = stationary_vector(R)
    assert np.min(pi) > 0
    assert abs(pi.sum() - 1.0) <= 1e-12
    assert np.max(np.abs(pi @ R.matrix - pi)) <= 1e-10


def test_spectrum_two_color_is_trace_minus_one_exactly():
    spec = real_spectrum(validate_matrix(R2_ROWS))
    assert spec == [(1.0, 1, 1), (0.7 + 0.6 - 1.0, 1, 1)]


@pytest.mark.parametrize("rows", [
    [[0.9, 0.1], [0.15, 0.85]],
    [[0.2, 0.8], [0.7, 0.3]],
    [[0.5, 0.5], [0.5, 0.5]],
])
def test_spectrum_two_color_exactness_property(rows):
    spec = real_spectrum(validate_matrix(rows))
    assert spec[1][0] == rows[0][0] + rows[1][1] - 1.0


def test_spectrum_defective_repeated():
    spec = real_spectrum(validate_matrix(RJ_ROWS))
    assert spec == [(1.0, 1, 1), (0.25, 2, 1)]


def test_spectrum_repeated_full_eigenspace():
    spec = real_spectrum(validate_matrix(RS_ROWS))
    assert spec == [(1.0, 1, 1), (0.25, 2, 2)]


def test_spectrum_defective_zero():
    spec = real_spectrum(validate_matrix(R0_ROWS))
    assert spec[0] == (1.0, 1, 1)
    lam, alg, geo = spec[1]
    assert abs(lam) <= 1e-12 and (alg, geo) == (2, 1)


def test_spectrum_complex_pair_rejected():
    # 3-cycle rotation mixed with rest: nonprincipal pair is complex
    rows = [[0.1, 0.9, 0.0], [0.0, 0.1, 0.9], [0.9, 0.0, 0.1]]
    with pytest.raises(ComplexSpectrum):
        real_spectrum(validate_matrix(rows))


def test_spectrum_four_color_via_general_path():
    rows = (0.6 * np.eye(4) + 0.1 * np.ones((4, 4))).tolist()
    spec = real_spectrum(validate_matrix(rows))
    assert spec[0] == (1.0, 1, 1)
    lam, alg, geo = spec[1]
    assert abs(lam - 0.6) <= 1e-9 and (alg, geo) == (3, 3)


def test_right_eigenvector_two_color_canonical():
    xi = right_eigenvector(validate_matrix(R2_ROWS), 0.3)
    np.testing.assert_allclose(xi, [0.75, -1.0], atol=1e-12)


def test_right_eigenvector_rj():
    xi = right_eigenvector(validate_matrix(RJ_ROWS), 0.25)
    np.testing.assert_allclose(xi, [1.0, -1.0, 0.0], atol=1e-12)


def test_right_eigenvector_rejects_non_eigenvalue():
    with pytest.raises(NotAnEigenvalue):
        right_eigenvector(validate_matrix(R2_ROWS), 0.9)


@pytest.mark.parametrize("rows,lam", [
    (R2_ROWS, 0.3),
    (RJ_ROWS, 0.25),
    ([[0.2, 0.8], [0.7, 0.3]], -0.5),
])
def test_pi_orthogonality(rows, lam):
    R = validate_matrix(rows)
    pi = stationary_vector(R)
    xi = right_eigenvector(R, lam)
    assert abs(pi @ xi) <= 1e-10


def test_jordan_chain_rj():
    xi2, xi3 = jordan_chain(validate_matrix(RJ_ROWS), 0.25)
    np.testing.assert_allclose(xi2, [1.0, -1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(xi3, [0.0, 8 / 3, -8 / 3], atol=1e-10)


def test_jordan_chain_relations_and_independence():
    R = validate_matrix(RJ_ROWS)
    xi2, xi3 = jordan_chain(R, 0.25)
    assert np.max(np.abs(R.matrix @ xi2 - 0.25 * xi2)) <= 1e-10
    assert np.max(np.abs(R.matrix @ xi3 - xi2 - 0.25 * xi3)) <= 1e-10
    assert np.linalg.matrix_rank(np.column_stack([xi2, xi3])) == 2


def test_jordan_chain_full_eigenspace_rejected():
    with pytest.raises(NotDefective):
        jordan_chain(validate_matrix(RS_ROWS), 0.25)


def test_jordan_chain_simple_eigenvalue_rejected():
    with pytest.raises(NotRepeated):
        jordan_chain(validate_matrix(R2_ROWS), 0.3)


def test_jordan_chain_defective_zero():
    R = validate_matrix(R0_ROWS)
    xi2, xi3 = jordan_chain(R, 0.0)
    assert np.max(np.abs(R.matrix @ xi2)) <= 1e-10
    assert np.max(np.abs(R.matrix @ xi3 - xi2)) <= 1e-10


def test_decompose_solves_the_spectrum_once(monkeypatch):
    from urnbound import spectral
    calls = []

    def counted(R):
        calls.append(R)
        return real_spectrum(R)

    monkeypatch.setattr(spectral, "_real_spectrum", counted)
    S = decompose(validate_matrix(RJ_ROWS))
    assert len(calls) == 1
    assert S.structures[0].jordan


def test_indicator_coefficients_two_color_textbook_vector():
    # with xi = (3, -4): 1 = 4/7 + 3a and 0 = 4/7 - 4a force a = 1/7
    R = validate_matrix(R2_ROWS)
    S = SpectralDecomposition(
        R, stationary_vector(R), ((1.0, 1, 1), (0.3, 1, 1)),
        (EigenStructure(0.3, 1, 1, (np.array([3.0, -4.0]),), False),))
    alpha = indicator_coefficients(S, 0)
    np.testing.assert_allclose(alpha, [4 / 7, 1 / 7], atol=1e-12)


def test_indicator_coefficients_rj_color0():
    S = decompose(validate_matrix(RJ_ROWS))
    alpha = indicator_coefficients(S, 0)
    np.testing.assert_allclose(alpha, [1 / 3, 2 / 3, 1 / 8], atol=1e-12)


@pytest.mark.parametrize("rows", [R2_ROWS, RJ_ROWS, RS_ROWS, R0_ROWS])
def test_indicator_reconstruction_every_color(rows):
    S = decompose(validate_matrix(rows))
    basis = S.basis
    for color in range(S.matrix.dim):
        target = np.zeros(S.matrix.dim)
        target[color] = 1.0
        alpha = indicator_coefficients(S, color)
        assert alpha[0] == pytest.approx(S.pi[color], abs=1e-12)
        assert np.max(np.abs(basis @ alpha - target)) <= 1e-12


@pytest.mark.parametrize("rows", [R2_ROWS, RJ_ROWS, RS_ROWS])
def test_indicator_coefficients_sum_over_colors(rows):
    # indicators sum to the all-ones vector: pi parts sum to 1, the rest to 0
    S = decompose(validate_matrix(rows))
    total = sum(indicator_coefficients(S, c) for c in range(S.matrix.dim))
    expect = np.zeros(S.matrix.dim)
    expect[0] = 1.0
    np.testing.assert_allclose(total, expect, atol=1e-12)


def test_decompose_precomputes_alphas():
    S = decompose(validate_matrix(RJ_ROWS))
    assert S.alphas is not None and S.alphas.shape == (3, 3)
    np.testing.assert_allclose(S.alphas[:, 0], S.pi, atol=1e-12)


def test_basis_requires_full_vector_count():
    R = validate_matrix(RJ_ROWS)
    S = SpectralDecomposition(
        R, stationary_vector(R), ((1.0, 1, 1),),
        (EigenStructure(0.25, 1, 1, (np.array([1.0, -1.0, 0.0]),), False),))
    with pytest.raises(BasisSingular):
        _ = S.basis


def test_replacement_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        ReplacementMatrix(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]))


@pytest.mark.parametrize("adjacency", [
    np.eye(2, dtype=bool),                                # two self-loops
    np.ones((3, 3), dtype=bool),
    np.triu(np.ones((4, 4), dtype=bool)),                 # a chain: 4 parts
    np.roll(np.eye(5, dtype=bool), 1, axis=1),            # one 5-cycle
    np.kron(np.eye(2), np.ones((2, 2))).astype(bool),     # two blocks
    np.array(RJ_ROWS) > 0,
])
def test_strong_components_match_scipy_oracle(adjacency):
    assert _strong_components(adjacency) == strong_components_reference(
        adjacency)


def test_strong_components_random_graphs_match_oracle():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5, 8, 13):
        for density in (0.1, 0.3, 0.6):
            adjacency = rng.random((d, d)) < density
            assert _strong_components(adjacency) == \
                strong_components_reference(adjacency)


def test_members_follow_the_basis():
    S = decompose(validate_matrix(RJ_ROWS))
    (st,) = S.structures
    xi2, xi3 = st.vectors
    eigen, chain = S.members
    assert (eigen.kind, chain.kind) == ("eigen", "jordan")
    assert eigen.partner is None and chain.partner is xi2
    assert chain.vector is xi3 and chain.value == st.value == 0.25
    np.testing.assert_array_equal(
        S.basis, np.column_stack([np.ones(3), xi2, xi3]))


def test_terms_pair_coefficients_with_members_and_drop_zeros():
    S = decompose(validate_matrix(RS_ROWS))    # 1/4 twice, full eigenspace
    terms = S.terms([0.5, 0.0, -2.0])
    assert [a for a, _ in terms] == [-2.0]
    assert terms[0][1].vector is S.structures[0].vectors[1]
    assert all(m.kind == "eigen" for m in S.members)


def test_zero_chain_member_is_flagged_zero():
    S = decompose(validate_matrix(R0_ROWS))
    assert [m.zero for m in S.members] == [True, True]
    assert [m.kind for m in S.members] == ["eigen", "jordan"]

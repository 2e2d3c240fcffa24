"""Decomposition tests: products, exact reconstructions, variance scales,
Jordan weights, the appendix coefficient and the normalized martingale.

Frozen values were computed by hand or with the literal-loop references in
oracles.py; the vectorized implementations must reproduce them.
"""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from urnbound import (
    IndexOrder,
    LambdaOutOfRange,
    NotEigenpair,
    NotJordanPair,
    Trajectory,
    appendix_zeroth,
    conditional_means,
    dn_asymptotic,
    decompose,
    dn_exact,
    expand,
    growth_product,
    jordan_weights,
    rate_function,
    simulate,
    tail_products,
    validate_matrix,
)

from urnbound import decomposition
from urnbound.decomposition import _BLOCK, member_weights
from urnbound.spectral import ZERO_TOL, Member

from oracles import (
    appendix_reference,
    appendix_reference_slow,
    dm_martingale,
    dm_step_residuals,
    dn_exact_reference,
    dn_reference,
    euler_ratio,
    growth_reference,
    increment_conditional_means,
    jordan_chain,
    jordan_weight_bound,
    jordan_weight_constant,
    k_weight_reference,
    tail_reference,
    tails_reference,
)

R2 = validate_matrix([[0.7, 0.3], [0.4, 0.6]])
XI2COLOR = np.array([0.75, -1.0])
M2 = Member(0.3, XI2COLOR)
RJ = validate_matrix([[5 / 8, 3 / 8, 0.0], [1 / 8, 3 / 8, 1 / 2],
                      [1 / 4, 1 / 4, 1 / 2]])
XI2, XI3 = jordan_chain(RJ, 0.25)
R0 = validate_matrix([[1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3],
                      [1 / 2, 1 / 6, 1 / 3]])
Z2, Z3 = jordan_chain(R0, 0.0)
CHAIN = Member(0.25, XI3, XI2)
ZERO_CHAIN = Member(0.0, Z3, Z2)

LAMBDA_GRID = [-0.9, -0.5, -0.1, 0.1, 0.25, 0.5, 0.75, 0.9]


# -- products ------------------------------------------------------------------

def test_growth_product_lambda_zero():
    assert growth_product(0.0, 17) == 1.0


def test_growth_product_telescopes_at_one():
    assert growth_product(1.0, 3) == pytest.approx(4.0, abs=1e-14)


def test_growth_product_direct_value():
    assert growth_product(0.5, 2) == pytest.approx(1.875, abs=1e-15)


def test_growth_product_empty():
    assert growth_product(0.3, 0) == 1.0


@pytest.mark.parametrize("lam", [-0.7, -0.25, 0.4, 0.95])
def test_growth_product_matches_reference(lam):
    for n in (1, 5, 37, 200):
        assert growth_product(lam, n) == pytest.approx(
            growth_reference(lam, n), rel=1e-13)


def test_growth_product_rejects_out_of_range():
    with pytest.raises(LambdaOutOfRange):
        growth_product(-1.0, 5)
    with pytest.raises(LambdaOutOfRange):
        growth_product(1.5, 5)


def test_tail_product_convention_at_top_index():
    assert tail_products(0.5, 7)[7] == 1.0
    assert tail_products(0.5, 0).tolist() == [1.0]


def test_tail_product_direct_values():
    assert tail_products(0.5, 2)[0] == pytest.approx(35 / 24, rel=1e-15)
    assert tail_products(-0.5, 1)[0] == pytest.approx(0.75, rel=1e-15)


def test_tail_product_rejects_bad_order():
    with pytest.raises(IndexOrder):
        tail_products(0.5, -1)


@pytest.mark.parametrize("lam", [-0.6, 0.25, 0.5, 0.9])
def test_tail_products_match_scalar_route(lam):
    n = 64
    batch = tail_products(lam, n)
    singles = [tail_reference(lam, j, n) for j in range(n + 1)]
    np.testing.assert_allclose(batch, singles, rtol=1e-13)


@pytest.mark.parametrize("lam", [-0.6, 0.40079008156005286, 0.9])
def test_tail_products_are_one_running_product_across_blocks(lam):
    # the blocks must carry the product exactly: same bits as one loop
    for n in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 100_000):
        assert tail_products(lam, n).tolist() == tails_reference(lam, n), n


def test_zeroth_term_values():
    # the deterministic part of C_N.xi is growth_product(lam, N) * C_0.xi
    assert growth_product(0.0, 10) * 0.4 == 0.4
    assert growth_product(0.5, 2) * 0.75 == pytest.approx(1.40625, abs=1e-15)
    traj = simulate([1.0, 0.0], R2, 2, 0)
    exp = expand(traj, M2)
    assert exp.zeroths[0] == pytest.approx(growth_product(0.3, 2) * 0.75,
                                       rel=1e-15)


# -- eigen decomposition -------------------------------------------------------

def test_martingale_decompose_one_forced_draw():
    # C0=(1,0) forces a white draw; hand expansion gives zeroth 0.975,
    # a zero increment, and C_1.xi = 0.975
    traj = simulate([1.0, 0.0], R2, 1, 0)
    exp = expand(traj, M2)
    (zeroth,), ((_, increments),) = exp.zeroths, exp.parts
    assert zeroth == pytest.approx(0.975, abs=1e-15)
    assert increments[0] == pytest.approx(0.0, abs=1e-15)
    assert exp.reconstructed == pytest.approx(0.975, abs=1e-15)
    assert exp.actual == pytest.approx(0.975, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_martingale_reconstruction(seed):
    traj = simulate([1.0, 0.0], R2, 2000, seed)
    exp = expand(traj, M2)
    assert exp.residual <= 1e-9


def test_martingale_decompose_zero_eigenvalue_is_frozen():
    R = validate_matrix([[0.5, 0.5], [0.5, 0.5]])
    traj = simulate([1.0, 0.0], R, 300, 4)
    exp = expand(traj, Member(0.0, np.array([1.0, -1.0])))
    assert exp.reconstructed == exp.zeroths[0] == 1.0
    assert abs(exp.actual - 1.0) <= 1e-9


def test_martingale_decompose_rejects_bad_pair():
    traj = simulate([1.0, 0.0], R2, 10, 0)
    with pytest.raises(NotEigenpair):
        expand(traj, Member(0.3, np.array([1.0, 1.0])))


def test_partial_sums_end_at_reconstruction():
    traj = simulate([1.0, 0.0], R2, 50, 3)
    exp = expand(traj, M2)
    assert exp.partial_sums()[-1] == pytest.approx(exp.reconstructed, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_increment_conditional_means_vanish(seed):
    traj = simulate([1.0, 0.0], R2, 500, seed)
    means = increment_conditional_means(traj, XI2COLOR, 0.3)
    assert np.max(np.abs(means)) <= 1e-12


def test_increment_conditional_means_vanish_rj():
    traj = simulate([1.0, 0.0, 0.0], RJ, 500, 11)
    means = increment_conditional_means(traj, XI2, 0.25)
    assert np.max(np.abs(means)) <= 1e-12


@pytest.mark.parametrize("R", [R2, RJ], ids=["R2", "RJ"])
def test_conditional_means_of_an_eigenvector_keep_the_bits(R):
    # an eigenvector has one part, whose row is the earlier
    # eigenvector-only check, bit for bit
    c0 = np.eye(R.dim)[0]
    eigen = [m for m in decompose(R).members if m.partner is None]
    assert eigen
    for member in eigen:
        for seed in range(3):
            traj = simulate(c0, R, 500, seed)
            row, = conditional_means(traj, member)
            np.testing.assert_array_equal(
                row, increment_conditional_means(traj, member.vector,
                                                 member.value))


def test_conditional_means_reject_a_member_that_fails_its_relation():
    traj = simulate([1.0, 0.0, 0.0], RJ, 10, 0)
    with pytest.raises(NotEigenpair):
        conditional_means(traj, Member(0.25, XI3))
    with pytest.raises(NotJordanPair):
        conditional_means(traj, Member(0.25, XI2, XI3))
    with pytest.raises(NotJordanPair):   # R0's lambda = 0 chain
        conditional_means(traj, Member(0.0, Z3, Z2))
    with pytest.raises(LambdaOutOfRange):
        conditional_means(traj, Member(1.0, XI2))


# -- variance scale ------------------------------------------------------------

def test_dn_exact_lambda_zero_counts_terms():
    assert dn_exact(0.0, 25) == 26.0


def test_dn_exact_direct_value():
    assert dn_exact(0.5, 2) == pytest.approx(2585 / 576, rel=1e-14)


def test_dn_exact_at_zero_horizon():
    assert dn_exact(0.3, 0) == 1.0


@pytest.mark.parametrize("lam", [-0.8, -0.3, 0.2, 0.5, 0.85])
def test_dn_exact_matches_reference(lam):
    for n in (0, 1, 7, 40):
        assert dn_exact(lam, n) == pytest.approx(dn_reference(lam, n),
                                                 rel=1e-12)


# the eigenvalues of the benchmark's matrices, then 10 across (-1, 1)
DN_SUM_LAMBDAS = ([0.3, 0.25, 0.40079008156005286, 0.20854614213994688]
                  + [float(lam) for lam in np.linspace(-0.99, 0.99, 10)])
DN_SUM_HORIZONS = (0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1,
                   100_000, 1 << 20)


@pytest.mark.parametrize("lam", DN_SUM_LAMBDAS)
def test_dn_exact_matches_the_correctly_rounded_sum(lam):
    for n in DN_SUM_HORIZONS:
        ref = dn_exact_reference(lam, n)
        assert abs(dn_exact(lam, n) - ref) <= 1e-13 * ref, n


def test_dn_bits_do_not_depend_on_blas_threads():
    code = ("from urnbound.decomposition import dn_exact, dn_asymptotic\n"
            "for lam in (0.3, 0.25, 0.40079008156005286, "
            "0.20854614213994688):\n"
            "    print(dn_exact(lam, 1 << 20).hex(), "
            "dn_asymptotic(lam, 1 << 22)[1].hex())\n")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].split()) == 8


@pytest.mark.parametrize("lam", LAMBDA_GRID)
def test_dn_asymptotic_dominates(lam):
    for n in (1, 10, 100, 1000, 10_000, 100_000, 1_000_000, 1 << 20,
              1 << 22, 1 << 24):
        _, bound = dn_asymptotic(lam, n)
        assert dn_exact(lam, n) <= bound * (1.0 + 1e-12)


@settings(max_examples=200, deadline=None)
@given(lam=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       n=st.integers(1, 1 << 16))
@example(lam=0.0, n=1)
@example(lam=0.5, n=1000)
@example(lam=0.5 - 1e-12, n=1000)
@example(lam=0.5 + 1e-12, n=1000)
@example(lam=0.5 - 1e-4, n=1 << 16)
@example(lam=0.5 + 1e-4, n=1 << 16)
def test_dn_asymptotic_dominates_any_lambda_and_horizon(lam, n):
    _, bound = dn_asymptotic(lam, n)
    assert dn_exact(lam, n) <= bound * (1.0 + 1e-12)


def test_rate_function_holds_above_two_to_the_twenty():
    for lam in (-0.5, 0.3, 0.40079008156005286, 0.5, 0.75):
        for n in ((1 << 20) + 1, 1 << 22):
            _, rate = rate_function(lam, n)
            assert rate <= (n + 1.0) ** 2 / dn_exact(lam, n)


def test_dn_asymptotic_regime_labels():
    assert dn_asymptotic(-0.5, 10)[0] == "a"
    assert dn_asymptotic(0.25, 10)[0] == "b"
    assert dn_asymptotic(0.5, 10)[0] == "c"
    assert dn_asymptotic(0.75, 10)[0] == "d"


def test_dn_asymptotic_growth_shapes():
    # regime (b) linear in N = n + 1, regime (d) power 2*lam of N + 1/2
    _, b1 = dn_asymptotic(0.25, 999)
    _, b2 = dn_asymptotic(0.25, 1999)
    assert b2 / b1 == pytest.approx(2.0, rel=1e-12)
    _, d1 = dn_asymptotic(0.75, 999)
    _, d2 = dn_asymptotic(0.75, 1999)
    assert d2 / d1 == pytest.approx(((1999 + 1.5) / (999 + 1.5)) ** 1.5,
                                    rel=1e-12)


def test_euler_ratio_lambda_zero_is_exactly_one():
    assert euler_ratio(0.0, 123) == 1.0


@pytest.mark.parametrize("lam", [-0.5, 0.3, 0.5, 0.9])
def test_euler_ratio_near_one(lam):
    assert 0.99 <= euler_ratio(lam, 10_000) <= 1.01


# -- Jordan weights ------------------------------------------------------------

def test_jordan_weight_empty_sum():
    assert jordan_weights(0.5, 8)[8] == 0.0


def test_jordan_weight_single_term():
    for n in (1, 4, 33):
        assert jordan_weights(0.25, n)[n - 1] == pytest.approx(
            1.0 / (n + 1.0), rel=1e-13)


def test_jordan_weight_direct_value():
    assert jordan_weights(0.5, 1)[0] == pytest.approx(0.5, abs=1e-15)


def test_jordan_weight_index_checks():
    with pytest.raises(IndexOrder):
        jordan_weights(0.5, -1)
    with pytest.raises(LambdaOutOfRange):
        jordan_weights(0.0, 2)


@pytest.mark.parametrize("lam", [-0.5, 0.25, 0.5, 0.75])
def test_jordan_weights_match_double_loop(lam):
    for n in (1, 2, 5, 13, 40):
        fast = jordan_weights(lam, n)
        slow = [k_weight_reference(lam, i, n) for i in range(n + 1)]
        np.testing.assert_allclose(fast, slow, rtol=1e-11, atol=1e-15)


def test_jordan_weights_large_n_spot_check():
    lam, n = 0.25, 2000
    fast = jordan_weights(lam, n)
    for i in (0, 1, 999, 1999, 2000):
        assert fast[i] == pytest.approx(k_weight_reference(lam, i, n),
                                        rel=1e-10, abs=1e-15)


def test_jordan_weight_bound_formula_positive_lambda():
    assert jordan_weight_bound(0.5, 2, 8) == pytest.approx(
        (8 / 2) ** 0.5 * (1 + np.log(8)), rel=1e-14)


def test_jordan_weight_bound_negative_lambda_factor():
    # the worst prefix-ratio step contributes (1/2)^lam = 2^0.5
    assert jordan_weight_bound(-0.5, 1, 10) == pytest.approx(
        10.0 ** -0.5 * (1 + np.log(10)) * 2.0 ** 0.5, rel=1e-14)


def test_jordan_weight_bound_index_check():
    with pytest.raises(IndexOrder):
        jordan_weight_bound(0.5, 0, 4)


@pytest.mark.parametrize("lam", [-0.5, 0.25, 0.5, 0.75])
def test_jordan_weights_below_calibrated_bound(lam):
    c = jordan_weight_constant(lam)
    n = 1
    while n <= 10_000:
        k = jordan_weights(lam, n)[1:]
        i = np.arange(1, n + 1)
        bound = np.array([jordan_weight_bound(lam, int(ii), n) for ii in i])
        assert np.all(k <= c * bound * (1.0 + 1e-12))
        n *= 10
    assert c > 0


# -- appendix coefficient ------------------------------------------------------

def test_appendix_zeroth_base_case():
    assert appendix_zeroth(0.5, 0) == 1.0
    assert appendix_zeroth(-0.3, 0) == 1.0


def test_appendix_zeroth_hand_value():
    # (1 + 0.5/2)*1*1 + 1*(1/2)*(1 + 0.5) = 1.25 + 0.75
    assert appendix_zeroth(0.5, 1) == pytest.approx(2.0, abs=1e-15)


def test_appendix_zeroth_rejects_zero_lambda():
    with pytest.raises(LambdaOutOfRange):
        appendix_zeroth(0.0, 5)


def test_appendix_reference_fast_matches_slow():
    # validate the O(n) oracle against the literal double loop
    for lam in (-0.5, 0.25, 0.75):
        for n in (0, 1, 2, 7, 23, 60):
            assert appendix_reference(lam, n) == pytest.approx(
                appendix_reference_slow(lam, n), rel=1e-13)


@pytest.mark.parametrize("lam", [-0.5, 0.25, 0.5, 0.75])
def test_appendix_zeroth_equals_generic_form(lam):
    for n in (0, 1, 2, 3, 10, 100, 457):
        assert appendix_zeroth(lam, n) == pytest.approx(
            appendix_reference(lam, n), rel=1e-12)


def test_appendix_zeroth_log_envelope():
    # Z(n, lam) stays below const * n^lam (1 + log n)
    lam = 0.25
    vals = [appendix_zeroth(lam, n) / (n ** lam * (1 + np.log(n)))
            for n in (10, 100, 1000, 10_000)]
    assert max(vals) <= 2.0


# -- Jordan decomposition ------------------------------------------------------

def test_jordan_decompose_one_forced_draw():
    # C0=(1,0,0): C0.xi2 = 1, C0.xi3 = 0, first draw forced to color 0;
    # C1.xi3 = 1 and the expansion is zeroth2 = Z(0) * 1 = 1 exactly
    traj = simulate([1.0, 0.0, 0.0], RJ, 1, 0)
    exp = expand(traj, CHAIN)
    zeroth_xi3, zeroth_xi2 = exp.zeroths
    assert zeroth_xi3 == pytest.approx(0.0, abs=1e-15)
    assert zeroth_xi2 == pytest.approx(1.0, abs=1e-15)
    assert exp.parts[1][0][0] == 0.0          # the nested weight
    assert exp.reconstructed == pytest.approx(1.0, abs=1e-12)
    assert exp.actual == pytest.approx(1.0, abs=1e-12)


def test_jordan_decompose_centered_start_drops_zeroth():
    # C0 proportional to pi has C0.xi2 = C0.xi3 = 0
    traj = simulate([1 / 3, 1 / 3, 1 / 3], RJ, 100, 8)
    exp = expand(traj, CHAIN)
    zeroth_xi3, zeroth_xi2 = exp.zeroths
    assert abs(zeroth_xi2) <= 1e-13
    assert abs(zeroth_xi3) <= 1e-13
    assert exp.residual <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_jordan_reconstruction(seed):
    traj = simulate([1.0, 0.0, 0.0], RJ, 1000, seed)
    exp = expand(traj, CHAIN)
    assert exp.residual <= 1e-9


def test_jordan_decompose_rejects_bad_pair():
    traj = simulate([1.0, 0.0, 0.0], RJ, 10, 0)
    with pytest.raises(NotJordanPair):
        expand(traj, Member(0.25, XI2, XI3))
    with pytest.raises(NotJordanPair):   # lam = 0 is the lam = 0 chain's
        expand(traj, Member(0.0, XI3, XI2))
    with pytest.raises(LambdaOutOfRange):
        expand(traj, Member(1.0, XI3, XI2))


@pytest.mark.parametrize("lam", [1e-13, -5e-13, ZERO_TOL, -ZERO_TOL])
def test_jordan_decompose_rejects_a_lambda_that_rounds_to_zero(lam):
    # the lambda != 0 route never sees such a chain: expand sends it to
    # the lambda = 0 chain (Member.zero), bit for bit
    traj = simulate([1.0, 0.0, 0.0], R0, 10, 0)
    assert Member(lam, Z3, Z2).zero
    exp, zero = expand(traj, Member(lam, Z3, Z2)), expand(traj, ZERO_CHAIN)
    assert exp.member.value == 0.0
    assert exp.zeroths == zero.zeroths
    assert exp.reconstructed == zero.reconstructed
    (w, inc), = exp.parts
    (w0, inc0), = zero.parts
    np.testing.assert_array_equal(w, w0)
    np.testing.assert_array_equal(inc, inc0)


def test_repeated_zero_harmonic_zeroth():
    # after two draws the harmonic coefficient is 1 + 1/2
    traj = simulate([1.0, 0.0, 0.0], R0, 2, 1)
    exp = expand(traj, ZERO_CHAIN)
    c0 = traj.initial
    zeroth_xi3, zeroth_xi2 = exp.zeroths
    assert zeroth_xi2 == pytest.approx(1.5 * float(c0 @ Z2), rel=1e-14)
    assert zeroth_xi3 == pytest.approx(float(c0 @ Z3), rel=1e-14)
    assert exp.residual <= 1e-9


def test_repeated_zero_centered_start():
    pi = np.array([7 / 18, 5 / 18, 1 / 3])  # stationary vector of R0
    traj = simulate(pi, R0, 200, 5)
    exp = expand(traj, ZERO_CHAIN)
    assert abs(exp.zeroths[1]) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_repeated_zero_reconstruction(seed):
    traj = simulate([1.0, 0.0, 0.0], R0, 800, seed)
    exp = expand(traj, ZERO_CHAIN)
    assert exp.residual <= 1e-9
    (direct_weights, _), = exp.parts       # no nested part
    np.testing.assert_array_equal(direct_weights, np.ones(800))
    header, rows = exp.table
    assert header[3:5] == ["nested_weight", "nested_increment"]
    for column in rows.columns[3:5]:         # written as zeros
        np.testing.assert_array_equal(column, np.zeros(800))


# -- normalized martingale -----------------------------------------------------

def test_dm_martingale_starts_at_initial_statistic():
    traj = simulate([1.0, 0.0, 0.0], RJ, 100, 2)
    series = dm_martingale(traj, XI2, XI3, 0.25)
    assert series.values[0] == float(traj.initial @ XI3)
    assert series.normalizers[0] == 1.0


def test_dm_martingale_one_step_hand_values():
    # from C0 = pi the three possible M_1 values are (xi2 + lam*xi3)_i / 1.25
    c0 = np.array([1 / 3, 1 / 3, 1 / 3])
    expected = {0: 0.8, 1: -4 / 15, 2: -8 / 15}
    for i, want in expected.items():
        traj = Trajectory(RJ, c0, np.array([i]), seed=None)
        series = dm_martingale(traj, XI2, XI3, 0.25)
        assert series.values[1] == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_dm_martingale_exact_one_step_identity(seed):
    traj = simulate([1.0, 0.0, 0.0], RJ, 500, seed)
    resid = dm_step_residuals(traj, XI2, XI3, 0.25)
    assert np.max(resid) <= 1e-12


def test_dm_martingale_zero_lambda_chain():
    traj = simulate([1.0, 0.0, 0.0], R0, 300, 9)
    resid = dm_step_residuals(traj, Z2, Z3, 0.0)
    assert np.max(resid) <= 1e-12


@pytest.mark.parametrize("R,kinds", [
    (R2, ["martingale_decompose"]),
    (RJ, ["martingale_decompose", "jordan_decompose"]),
    (R0, ["martingale_decompose", "repeated_zero_decompose"]),
])
def test_expand_picks_the_decomposition_from_the_member(R, kinds,
                                                        monkeypatch):
    # each kind of member goes through its own route, one part per part
    # of member_weights
    taken = []
    for name in ("martingale_decompose", "jordan_decompose",
                 "repeated_zero_decompose"):
        route = getattr(decomposition, name)
        monkeypatch.setattr(decomposition, name, lambda *args, _n=name,
                            _route=route: taken.append(_n) or _route(*args))
    c0 = np.eye(R.dim)[0]
    traj = simulate(c0, R, 300, 12)
    members = decompose(R).members
    expansions = [expand(traj, m) for m in members]
    assert taken == kinds
    for m, exp in zip(members, expansions):
        assert exp.summary["eigenvalue"] == pytest.approx(m.value, abs=1e-12)
        assert exp.residual <= 1e-9
        assert len(exp.parts) == len(member_weights(m, 300)[2])
    if R is R0:   # the lam = 0 chain: one part, zero nested columns
        _, rows = expansions[1].table
        assert not np.any(rows.columns[3:5])

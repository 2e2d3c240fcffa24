"""Exact decompositions of linear urn statistics.

For a right eigenvector xi with real eigenvalue lam, one draw moves the
statistic by C_{j+1}.xi = (1 + lam/(j+1)) C_j.xi + lam (chi_{j+1}.xi -
C_j.xi/(j+1)), where the correction term has conditional mean zero.
Iterating over a trajectory of N draws gives the closed form

    C_N.xi = growth_product(lam, N) * C_0.xi
             + sum_{j=0}^{N-1} tail_products(lam, N-1)[j]
               * lam * (chi_{j+1}.xi - C_j.xi/(j+1)),

an exact identity for every realization, not just in expectation.  The
same iteration for a generalized vector xi3 (R xi3 = xi2 + lam xi3) picks
up two extra pieces: a deterministic coefficient on C_0.xi2 given by
appendix_zeroth(), and nested martingale increments against xi2 carrying
the weights jordan_weights().  member_weights() tabulates these pieces
per kind of spectral member for the expansions and the bounds alike.
All weighted sums of squares needed by the deviation bounds are
available exactly (dn_exact) and through a proven closed-form envelope
(dn_asymptotic), which dominates dn_exact for every n.

Index conventions follow the one-step recursion: weights for a statistic
observed after N draws use tail_products(lam, N-1)[j] for j = 0 .. N-1,
and the empty product (j = N-1) equals 1.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._format import Table, columns
from .errors import (
    IndexOrder,
    LambdaOutOfRange,
    NotEigenpair,
    NotJordanPair,
)
from .process import Trajectory
from .spectral import Member

EIGEN_RESID_TOL = 1e-8
_BLOCK = 1 << 15  # tail products are walked in blocks of this length


def _check_lambda(lam: float, allow_one: bool = False,
                  allow_zero: bool = True) -> float:
    lam = float(lam)
    high_ok = lam <= 1.0 if allow_one else lam < 1.0
    if not (-1.0 < lam and high_ok):
        top = "1]" if allow_one else "1)"
        raise LambdaOutOfRange(f"lam={lam} outside (-1, {top}")
    if not allow_zero and lam == 0.0:
        raise LambdaOutOfRange(
            "lam=0 is handled by the repeated-zero decomposition")
    return lam


def growth_product(lam: float, n: int) -> float:
    """prod_{j=0}^{n-1} (1 + lam/(j+1)); empty product (n=0) is 1.

    Admits lam in (-1, 1]; the right endpoint telescopes to n + 1.
    """
    lam = _check_lambda(lam, allow_one=True)
    if n < 0:
        raise IndexOrder(f"n={n} must be nonnegative")
    return float(np.prod(1.0 + lam / np.arange(1, n + 1)))


def tail_products(lam: float, n: int) -> np.ndarray:
    """Tail products T(j, n) = prod_{k=j+1}^{n} (1 + lam/(k+1)) for
    j = 0 .. n in one backward pass; T(n, n) = 1."""
    lam = _check_lambda(lam, allow_one=True)
    if n < 0:
        raise IndexOrder(f"n={n} must be nonnegative")
    out = np.ones(n + 1)
    top = n
    for block in _tail_blocks(lam, n):
        out[top - block.size:top] = block[::-1]
        top -= block.size
    return out


def _tail_blocks(lam: float, n: int):
    """T(j, n) for j = n-1 down to 0, in blocks of at most _BLOCK.

    Each block's cumprod is seeded with the product carried from the
    block above, so every value is the same running product, bit for
    bit, whatever the block size.  Memory is O(_BLOCK).
    """
    carry = 1.0
    for hi in range(n + 1, 1, -_BLOCK):
        block = 1.0 + lam / np.arange(hi, max(hi - _BLOCK, 1), -1)
        block[0] *= carry
        np.cumprod(block, out=block)
        carry = block[-1]
        yield block


def _prefix_products(lam: float, m: int) -> np.ndarray:
    """growth_product(lam, k) for k = 0 .. m."""
    out = np.ones(m + 1)
    out[1:] = np.cumprod(1.0 + lam / np.arange(1, m + 1))
    return out


class MartingaleExpansion(NamedTuple):
    """Exact expansion of C_N.xi for one trajectory of N draws.

    reconstructed = zeroth + weights . increments and must match the
    simulated statistic `actual` to float accuracy.
    """

    eigenvalue: float
    zeroth: float
    weights: np.ndarray
    increments: np.ndarray
    reconstructed: float
    actual: float

    @property
    def residual(self) -> float:
        """|reconstructed - actual| / max(1, |actual|)."""
        return abs(self.reconstructed - self.actual) / max(1.0, abs(self.actual))

    def partial_sums(self) -> np.ndarray:
        return self.zeroth + np.cumsum(self.weights * self.increments)

    @property
    def table(self) -> Table:
        """(header, rows): one row per draw j with its running sum."""
        return columns(["j", "weight", "increment", "partial_sum"],
                       range(self.weights.size), self.weights,
                       self.increments, self.partial_sums())


def _check_eigenpair(traj: Trajectory, xi: np.ndarray, lam: float) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    resid = np.max(np.abs(traj.matrix.matrix @ xi - lam * xi))
    if resid > EIGEN_RESID_TOL:
        raise NotEigenpair(f"||R xi - lam xi|| = {resid:.3e} for lam={lam}")
    return xi


def martingale_decompose(traj: Trajectory, xi, lam: float) -> MartingaleExpansion:
    """Split C_N.xi into its deterministic part and weighted martingale
    increments lam * (chi_{j+1}.xi - C_j.xi/(j+1))."""
    lam = _check_lambda(lam)
    xi = _check_eigenpair(traj, xi, lam)
    n_draws = traj.n_draws
    path = traj.statistic(xi)
    times = np.arange(1, n_draws + 1, dtype=float)
    increments = lam * (xi[traj.draws] - path[:n_draws] / times)
    growth, _, weights, _ = member_weights(Member(lam, xi), n_draws)
    zeroth = growth * path[0]
    reconstructed = zeroth + float(weights @ increments)
    return MartingaleExpansion(lam, zeroth, weights, increments,
                               reconstructed, float(path[-1]))


def increment_conditional_means(traj: Trajectory, xi, lam: float) -> np.ndarray:
    """Exact conditional mean of each increment given the past.

    Averages lam * (xi_i - C_j.xi/(j+1)) over the d possible draws with
    probabilities C_j[i]/(j+1); algebraically zero at every step.
    """
    lam = _check_lambda(lam)
    xi = _check_eigenpair(traj, xi, lam)
    n_draws = traj.n_draws
    counts = traj.counts_matrix()[:n_draws]
    path = traj.statistic(xi)[:n_draws]
    times = np.arange(1, n_draws + 1, dtype=float)
    probs = counts / times[:, None]
    return lam * (probs @ xi - (path / times) * probs.sum(axis=1))


def dn_exact(lam: float, n: int) -> float:
    """Sum of squared tail products, j = 0 .. n (the exact variance scale).

    Each block's squares are summed by np.add.reduce and the block sums
    added in order: no BLAS call, so the bits do not depend on how many
    threads the machine's BLAS runs.
    """
    lam = _check_lambda(lam)
    if n < 0:
        raise IndexOrder(f"n={n} must be nonnegative")
    total = 0.0
    for block in _tail_blocks(lam, n):
        total += float(np.add.reduce(block * block))
    return 1.0 + total


def _regime(lam: float) -> str:
    """Regime label of the D_n envelope: (a) lam < 0, (b) 0 <= lam < 1/2,
    (c) lam = 1/2 within 1e-12, (d) lam > 1/2."""
    if abs(lam - 0.5) <= 1e-12:
        return "c"
    if lam < 0.0:
        return "a"
    return "b" if lam < 0.5 else "d"


def dn_asymptotic(lam: float, n: int) -> tuple[str, float]:
    """Labeled regime and a closed-form envelope that is at least
    dn_exact(lam, n) for every n >= 1.

    With N = n + 1, T(j, n) = prod_{m=j+2}^{N} (1 + lam/m), and every case
    starts from log(1 + x) <= x:

    - lam < 0, mu = -lam: sum_{m=j+2}^{N} 1/m >= log((n+2)/(j+2)), so
      T(j, n) <= ((j+2)/(n+2))^mu; as x^(2 mu) increases, sum_{j=0}^{n}
      (j+2)^(2 mu) <= int_2^{n+3} x^(2 mu) dx, and D_n <=
      (n+3)^(2 mu + 1) / ((2 mu + 1) (n+2)^(2 mu)).
    - lam >= 0: sum_{m=j+2}^{N} 1/m <= log(N/(j+1)), so T(j, n) <=
      (N/(j+1))^lam and D_n <= N^(2 lam) sum_{i=1}^{N} i^(-2 lam).  For
      2 lam <= 1 each term (N/i)^(2 lam) is at most N/i and the harmonic
      sum is at most 1 + log N; for 2 lam < 1 the decreasing terms are
      also below int_0^N x^(-2 lam) dx.  So D_n <= N min(1/(1 - 2 lam),
      1 + log N), which is N (1 + log N) at lam = 1/2; for lam > 1/2,
      i^(-2 lam) <= 1/i gives D_n <= N^(2 lam) (1 + log N).
    - lam > 1/2 also: 1/m <= log((m + 1/2)/(m - 1/2)), so T(j, n) <=
      ((n + 3/2)/(j + 3/2))^lam, and by convexity (j + 3/2)^(-2 lam) <=
      int_{j+1}^{j+2} x^(-2 lam) dx, so the sum over j is at most
      int_1^inf x^(-2 lam) dx and D_n <= (N + 1/2)^(2 lam) / (2 lam - 1).

    The envelope is the smaller of the bounds its case has.  Regimes:
    (a) and (b) grow linearly, (c) like n (1 + log n), (d) like n^(2 lam).
    """
    lam = _check_lambda(lam)
    if n < 1:
        raise IndexOrder(f"n={n} must be at least 1")
    big, twice = n + 1.0, 2.0 * lam
    harmonic = 1.0 + math.log(big)
    if lam < 0.0:
        power = 1.0 - twice
        envelope = (n + 3.0) ** power / (power * (n + 2.0) ** (power - 1.0))
    elif twice == 1.0:
        envelope = big * harmonic
    elif twice < 1.0:
        envelope = big * min(1.0 / (1.0 - twice), harmonic)
    else:
        envelope = min((big + 0.5) ** twice / (twice - 1.0),
                       big ** twice * harmonic)
    return _regime(lam), envelope


def euler_ratio(lam: float, n: int) -> float:
    """growth_product(lam, n) * Gamma(lam + 1) / n^lam; tends to 1."""
    lam = _check_lambda(lam, allow_one=True)
    if n < 1:
        raise IndexOrder(f"n={n} must be at least 1")
    return growth_product(lam, n) * math.gamma(lam + 1.0) / float(n) ** lam


# -- defective (Jordan) eigenvalues -------------------------------------------

def jordan_weights(lam: float, n: int) -> np.ndarray:
    """Nested weights K(i, n) for i = 0 .. n in O(n) total.

    K(i, n) = sum_{j=i+1}^{n} T(j, n) * (1/(j+1))
              * prod_{l=i+1}^{j-1} (1 + lam/(l+1)),
    which collapses to (P_{n+1}/P_{i+1}) * sum_{j=i+1}^{n} 1/(j+1+lam)
    with P_k = growth_product(lam, k).  K(n, n) = 0 and
    K(n-1, n) = 1/(n+1).
    """
    lam = _check_lambda(lam, allow_zero=False)
    if n < 0:
        raise IndexOrder(f"n={n} must be nonnegative")
    prefix = _prefix_products(lam, n + 1)
    inv = 1.0 / (np.arange(0, n + 1) + 1.0 + lam)
    suffix = np.zeros(n + 2)
    suffix[:n + 1] = np.cumsum(inv[::-1])[::-1]
    return (prefix[n + 1] / prefix[1:n + 2]) * suffix[1:n + 2]


def appendix_zeroth(lam: float, n: int) -> float:
    """Deterministic coefficient Z(n, lam) on C_0.xi2, written as the
    three-part sum: the j = 0 term, the j = 1 term, then j >= 2.

    Z(n, lam) = sum_{j=0}^{n} T(j, n) * (1/(j+1))
                * growth_product(lam, j);  Z(0, lam) = 1.
    """
    lam = _check_lambda(lam, allow_zero=False)
    if n < 0:
        raise IndexOrder(f"n={n} must be nonnegative")
    tails = tail_products(lam, n)
    total = float(tails[0])                       # j = 0: empty prefix
    if n >= 1:
        total += float(tails[1]) * 0.5 * (1.0 + lam)  # j = 1: prefix (1 + lam)
    if n >= 2:
        j = np.arange(2, n + 1)
        prefix = _prefix_products(lam, n)
        total += float(np.sum(tails[2:] * prefix[2:n + 1] / (j + 1.0)))
    return total


def member_weights(member: Member, n: int):
    """(growth, shift, direct, nested) for the member v after n draws:
    C_n.v = growth C_0.v + shift C_0.xi2 + direct . (direct increments)
    + nested . (nested increments), xi2 being v's chain partner.

    Eigenvector: growth_product, 0, tail_products, zeros.  Chain member:
    plus the appendix_zeroth shift and jordan_weights as nested weights.
    Chain member of eigenvalue 0: 1, the harmonic number H_n, ones, zeros.
    """
    lam = member.value
    if member.partner is not None and member.zero:
        harmonic = float(np.sum(1.0 / np.arange(1.0, n + 1.0)))
        return 1.0, harmonic, np.ones(n), np.zeros(n)
    growth = growth_product(lam, n)
    if n == 0:
        return growth, 0.0, np.empty(0), np.empty(0)
    direct = tail_products(lam, n - 1)
    if member.partner is None:
        return growth, 0.0, direct, np.zeros(n)
    return (growth, appendix_zeroth(lam, n - 1), direct,
            jordan_weights(lam, n - 1))


class JordanExpansion(NamedTuple):
    """Exact expansion of C_N.xi3 for a defective eigenvalue.

    reconstructed = zeroth_xi3 + zeroth_xi2
                    + direct_weights . direct_increments   (against xi2 + lam*xi3)
                    + nested_weights . nested_increments   (against xi2)
    """

    eigenvalue: float
    zeroth_xi3: float
    zeroth_xi2: float
    direct_weights: np.ndarray
    direct_increments: np.ndarray
    nested_weights: np.ndarray
    nested_increments: np.ndarray
    reconstructed: float
    actual: float

    @property
    def residual(self) -> float:
        return abs(self.reconstructed - self.actual) / max(1.0, abs(self.actual))

    @property
    def table(self) -> Table:
        """(header, rows): one row per draw j with its running sum."""
        partial = (self.zeroth_xi3 + self.zeroth_xi2
                   + np.cumsum(self.direct_weights * self.direct_increments
                               + self.nested_weights * self.nested_increments))
        return columns(["j", "direct_weight", "direct_increment",
                        "nested_weight", "nested_increment", "partial_sum"],
                       range(self.direct_weights.size), self.direct_weights,
                       self.direct_increments, self.nested_weights,
                       self.nested_increments, partial)


def _check_jordan_pair(traj, xi2, xi3, lam):
    xi2 = np.asarray(xi2, dtype=float)
    xi3 = np.asarray(xi3, dtype=float)
    m = traj.matrix.matrix
    r2 = np.max(np.abs(m @ xi2 - lam * xi2))
    r3 = np.max(np.abs(m @ xi3 - xi2 - lam * xi3))
    if max(r2, r3) > EIGEN_RESID_TOL:
        raise NotJordanPair(
            f"chain residuals {r2:.3e}, {r3:.3e} for lam={lam}")
    return xi2, xi3


def _chain_decompose(traj: Trajectory, member: Member) -> JordanExpansion:
    """Expansion of C_N.xi3 for a checked chain member xi3 (partner xi2)."""
    xi2, xi3, lam = member.partner, member.vector, member.value
    n_draws = traj.n_draws
    s2 = traj.statistic(xi2)
    s3 = traj.statistic(xi3)
    times = np.arange(1, n_draws + 1, dtype=float)
    growth, shift, direct_w, nested_w = member_weights(member, n_draws)
    if member.zero:
        # C_j.xi2 is frozen: no nested part, so no 0 * (...) cells either
        direct_inc = xi2[traj.draws] - s2[:n_draws] / times
        nested_inc = np.zeros(n_draws)
    else:
        mixed = xi2 + lam * xi3
        direct_inc = (mixed[traj.draws]
                      - (s2[:n_draws] + lam * s3[:n_draws]) / times)
        nested_inc = lam * (xi2[traj.draws] - s2[:n_draws] / times)
    zeroth3, zeroth2 = growth * s3[0], shift * s2[0]
    reconstructed = (zeroth3 + zeroth2 + float(direct_w @ direct_inc)
                     + float(nested_w @ nested_inc))
    return JordanExpansion(lam, zeroth3, zeroth2, direct_w, direct_inc,
                           nested_w, nested_inc, reconstructed, float(s3[-1]))


def jordan_decompose(traj: Trajectory, xi2, xi3, lam: float) -> JordanExpansion:
    """Expansion of C_N.xi3 when R xi3 = xi2 + lam xi3 with lam != 0.

    The direct increments (chi_{j+1} - C_j/(j+1)).(xi2 + lam xi3) carry
    the usual tail-product weights; pushing the accumulated C_j.xi2/(j+1)
    terms down to time zero leaves the appendix_zeroth coefficient on
    C_0.xi2 plus nested increments against xi2 weighted by K(i, N-1).
    """
    lam = _check_lambda(lam, allow_zero=False)
    xi2, xi3 = _check_jordan_pair(traj, xi2, xi3, lam)
    return _chain_decompose(traj, Member(lam, xi3, xi2))


def repeated_zero_decompose(traj: Trajectory, xi2, xi3) -> JordanExpansion:
    """Expansion of C_N.xi3 for a defective zero eigenvalue.

    With lam = 0 the statistic C_j.xi2 is frozen at C_0.xi2, so
    C_N.xi3 = C_0.xi3 + C_0.xi2 * H_N + sum_j (chi_{j+1} - C_j/(j+1)).xi2
    with H_N the harmonic number; all direct weights are 1 and the nested
    contribution vanishes.
    """
    xi2, xi3 = _check_jordan_pair(traj, xi2, xi3, 0.0)
    return _chain_decompose(traj, Member(0.0, xi3, xi2))


def expand(traj: Trajectory, member: Member) -> MartingaleExpansion | JordanExpansion:
    """Exact expansion of C_N.v for one member of the spectral model:
    martingale_decompose for an eigenvector, jordan_decompose for a chain
    member, repeated_zero_decompose for a chain member of eigenvalue 0."""
    if member.partner is None:
        return martingale_decompose(traj, member.vector, member.value)
    if member.zero:
        return repeated_zero_decompose(traj, member.partner, member.vector)
    return jordan_decompose(traj, member.partner, member.vector, member.value)


# -- normalized martingale for the defective case -----------------------------

class MartingaleSeries(NamedTuple):
    """Values M_0 .. M_N of the normalized defective-case martingale.

    M_m = C_m.xi3 / P_m - sum_{j=0}^{m-1} C_j.xi2 / ((j+1) P_{j+1}) with
    P_m = growth_product(lam, m).  The compensator makes the drift cancel:
    E(M_{m+1} | F_m) = M_m exactly.
    """

    eigenvalue: float
    values: np.ndarray
    normalizers: np.ndarray


def dm_martingale(traj: Trajectory, xi2, xi3, lam: float) -> MartingaleSeries:
    """Normalized martingale along a trajectory; M_0 = C_0.xi3."""
    lam = _check_lambda(lam)
    xi2, xi3 = _check_jordan_pair(traj, xi2, xi3, lam)
    n_draws = traj.n_draws
    s2 = traj.statistic(xi2)
    s3 = traj.statistic(xi3)
    prefix = _prefix_products(lam, n_draws)
    times = np.arange(1, n_draws + 1, dtype=float)
    compensator = np.zeros(n_draws + 1)
    if n_draws:
        compensator[1:] = np.cumsum(s2[:n_draws] / (times * prefix[1:]))
    return MartingaleSeries(lam, s3 / prefix - compensator, prefix)


def dm_step_residuals(traj: Trajectory, xi2, xi3, lam: float) -> np.ndarray:
    """|E(M_{m+1} | F_m) - M_m| for m = 0 .. N-1, by enumerating the d
    possible draws with their exact probabilities."""
    series = dm_martingale(traj, xi2, xi3, lam)  # checks lam and the pair
    n_draws = traj.n_draws
    m_vals = series.values
    prefix = series.normalizers
    counts = traj.counts_matrix()[:n_draws]
    s2 = traj.statistic(xi2)[:n_draws]
    s3 = traj.statistic(xi3)[:n_draws]
    times = np.arange(1, n_draws + 1, dtype=float)
    rxi3 = traj.matrix.matrix @ xi3
    expected_s3 = s3 + (counts @ rxi3) / times
    # the compensator through step m, recovered from the series values so
    # both sides of the identity share the same floats
    compensator = s3 / prefix[:n_draws] - m_vals[:n_draws]
    expected_m = (expected_s3 / prefix[1:] - compensator
                  - s2 / (times * prefix[1:]))
    return np.abs(expected_m - m_vals[:n_draws])

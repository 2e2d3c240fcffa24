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
the weights jordan_weights().  member_weights() holds this for every kind
of spectral member as one table of parts (w, a, u), each the series
sum_j w_j * a * (chi_{j+1}.u - C_j.u/(j+1)).  expand() turns it into one
Expansion record for any member along a trajectory, and the bounds read
the same table; conditional_means() checks the fact both rest on: every
part's increment has conditional mean zero given the past.
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
    """(growth, shift, parts) for the member v after n draws: C_n.v =
    growth C_0.v + shift C_0.xi2 + sum over the parts (w, a, u) of
    sum_j w_j * a * (chi_{j+1}.u - C_j.u/(j+1)), xi2 being v's partner.

    Eigenvector (lam = 0 too): growth_product, 0, [(tail_products, lam,
    v)].  Chain member: growth_product, appendix_zeroth, [(tail_products,
    1, xi2 + lam v), (jordan_weights, lam, xi2)].  Chain member of
    eigenvalue 0: 1, the harmonic number H_n, [(ones, 1, xi2)].
    """
    lam, v, xi2 = member
    if xi2 is not None and member.zero:
        harmonic = float(np.sum(1.0 / np.arange(1.0, n + 1.0)))
        return 1.0, harmonic, [(np.ones(n), 1.0, xi2)]
    growth = growth_product(lam, n)
    tails = tail_products(lam, n - 1) if n else np.empty(0)
    if xi2 is None:
        return growth, 0.0, [(tails, lam, v)]
    shift, nested = ((appendix_zeroth(lam, n - 1), jordan_weights(lam, n - 1))
                     if n else (0.0, np.empty(0)))
    return growth, shift, [(tails, 1.0, xi2 + lam * v), (nested, lam, xi2)]


# (zeroth names, column prefixes of the parts) of each kind of member
_LAYOUT = {"eigen": (("zeroth",), ("",)),
           "jordan": (("zeroth_xi3", "zeroth_xi2"), ("direct_", "nested_"))}


class Expansion(NamedTuple):
    """Exact expansion of C_N.v for one member v and one trajectory of N
    draws.

    `zeroths` holds growth C_0.v, and for a chain member also
    shift C_0.xi2; `parts` holds one (weights, increments) pair per part
    of member_weights(member, N).  reconstructed = the zeroths + every
    part's weights . increments, and must match the simulated statistic
    `actual` to float accuracy.
    """

    member: Member
    zeroths: tuple[float, ...]
    parts: tuple[tuple[np.ndarray, np.ndarray], ...]
    reconstructed: float
    actual: float

    @property
    def residual(self) -> float:
        """|reconstructed - actual| / max(1, |actual|)."""
        return abs(self.reconstructed - self.actual) / max(1.0, abs(self.actual))

    def _columns(self):
        """The parts, with a lam = 0 chain's nested part as zeros."""
        zeros = np.zeros(self.parts[0][0].size)
        missing = len(_LAYOUT[self.member.kind][1]) - len(self.parts)
        return self.parts + ((zeros, zeros),) * missing

    def partial_sums(self) -> np.ndarray:
        """The zeroths plus the running sum of the weighted increments.
        Sums start from their first term, not 0, which would turn -0.0
        into 0.0."""
        steps = [w * inc for w, inc in self._columns()]
        return (sum(self.zeroths[1:], self.zeroths[0])
                + np.cumsum(sum(steps[1:], steps[0])))

    @property
    def table(self) -> Table:
        """(header, rows): one row per draw j with its running sum."""
        parts = self._columns()
        header = [p + name for p in _LAYOUT[self.member.kind][1]
                  for name in ("weight", "increment")]
        return columns(["j", *header, "partial_sum"],
                       range(parts[0][0].size),
                       *(a for part in parts for a in part),
                       self.partial_sums())

    @property
    def summary(self) -> dict:
        """The decompose.json record: eigenvalue, the zeroths by name,
        reconstructed, actual and residual."""
        names = _LAYOUT[self.member.kind][0]
        return {"eigenvalue": float(self.member.value),
                **dict(zip(names, self.zeroths)),
                "reconstructed": self.reconstructed, "actual": self.actual,
                "residual": self.residual}


def _check_member(traj: Trajectory, member: Member) -> None:
    """Raise LambdaOutOfRange for a value outside (-1, 1), NotEigenpair
    unless R v = lam v for an eigenvector, and NotJordanPair unless
    R xi2 = lam xi2 and R v = xi2 + lam v for a chain member (at lam = 0
    for a chain of eigenvalue 0 within ZERO_TOL)."""
    lam, v, xi2 = member
    m = traj.matrix.matrix
    if xi2 is None:
        lam = _check_lambda(lam)
        resid = np.max(np.abs(m @ v - lam * v))
        if resid > EIGEN_RESID_TOL:
            raise NotEigenpair(f"||R xi - lam xi|| = {resid:.3e} for lam={lam}")
        return
    lam = 0.0 if member.zero else _check_lambda(lam)
    r2 = np.max(np.abs(m @ xi2 - lam * xi2))
    r3 = np.max(np.abs(m @ v - xi2 - lam * v))
    if max(r2, r3) > EIGEN_RESID_TOL:
        raise NotJordanPair(f"chain residuals {r2:.3e}, {r3:.3e} for lam={lam}")


def _expand(traj: Trajectory, member: Member) -> Expansion:
    """Check member, then expand C_N.v over member_weights' parts."""
    _check_member(traj, member)
    n_draws = traj.n_draws
    growth, shift, parts = member_weights(member, n_draws)
    times = np.arange(1, n_draws + 1, dtype=float)
    zeroth = growth * (traj.initial @ member.vector)
    zeroth2 = shift * (traj.initial @ member.partner) if shift else 0.0
    reconstructed, pairs = zeroth + zeroth2, []
    for w, a, u in parts:
        inc = a * (u[traj.draws] - traj.statistic(u)[:n_draws] / times)
        reconstructed += float(w @ inc)
        pairs.append((w, inc))
    actual = float(traj.statistic(member.vector)[-1])
    zeroths = (zeroth,) if member.partner is None else (zeroth, zeroth2)
    return Expansion(member, zeroths, tuple(pairs), reconstructed, actual)


def expand(traj: Trajectory, member: Member) -> Expansion:
    """Exact expansion of C_N.v for one member of the spectral model.

    Raises as _check_member does.  Each kind of member takes its own
    route below, which bench/traced_cli.py wraps by name to time the
    expansions: an eigenvector, a chain member, and a chain member of
    eigenvalue 0 (Member.zero), whose nested weights are zero.
    """
    if member.partner is None:
        return martingale_decompose(traj, member.vector, member.value)
    if member.zero:
        return repeated_zero_decompose(traj, member.partner, member.vector)
    return jordan_decompose(traj, member.partner, member.vector, member.value)


def martingale_decompose(traj: Trajectory, xi, lam: float) -> Expansion:
    """expand's route for an eigenvector xi of lam."""
    return _expand(traj, Member(lam, xi))


def jordan_decompose(traj: Trajectory, xi2, xi3, lam: float) -> Expansion:
    """expand's route for a chain R xi3 = xi2 + lam xi3, lam != 0."""
    return _expand(traj, Member(lam, xi3, xi2))


def repeated_zero_decompose(traj: Trajectory, xi2, xi3) -> Expansion:
    """expand's route for a chain R xi3 = xi2 of eigenvalue 0."""
    return _expand(traj, Member(0.0, xi3, xi2))


def conditional_means(traj: Trajectory, member: Member) -> np.ndarray:
    """E[a (chi_{j+1}.u - C_j.u/(j+1)) | F_j] for j = 0 .. N-1, one row
    per part (w, a, u) of member_weights(member, N).

    Draw j takes color i with probability p_j[i] = C_j[i]/(j+1), so the
    row of a part is a (p_j.u - (C_j.u/(j+1)) sum_i p_j[i]).  In a
    balanced urn p_j sums to 1 and every row vanishes up to rounding:
    each increment of every expansion is a martingale difference.
    """
    _check_member(traj, member)
    n_draws = traj.n_draws
    _, _, parts = member_weights(member, n_draws)
    times = np.arange(1, n_draws + 1, dtype=float)
    probs = traj.counts_matrix()[:n_draws] / times[:, None]
    total = probs.sum(axis=1)
    return np.array([a * (probs @ u - (traj.statistic(u)[:n_draws] / times)
                          * total) for _, a, u in parts])

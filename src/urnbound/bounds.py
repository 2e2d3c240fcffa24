"""Explicit deviation bounds for linear urn statistics.

Each martingale increment of an eigen-statistic is bounded in absolute
value: chi.xi is one component of xi and C_j.xi/(j+1) is a convex
combination of them, so the raw increment lies within spread(xi) =
max(xi) - min(xi), and the weighted increment within

    c_j = |lam| * spread(xi) * tail_products(lam, n-1)[j].

The bounded-difference inequality then gives, for the centered statistic
after n draws and deviation s,

    P(C_n.xi - A > s) <= exp(-2 s^2 / sum_j (2 c_j)^2),

where A is the deterministic part of the decomposition.  Reports use
s = n*t for eigen-statistics (deviation t per draw) and s = (n+1)*t for
color counts (deviation t per unit of mass), matching the exact
threshold conversion between the two.

Everything is evaluated in log-space first; reports carry both log_tail
and tail (tail underflows to exact 0 rather than overflowing).
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .decomposition import (
    EIGEN_RESID_TOL,
    dn_asymptotic,
    member_weights,
)
from .errors import IndexOrder, LambdaOutOfRange, NotEigenpair
from .spectral import (
    Member,
    ReplacementMatrix,
    SpectralDecomposition,
    decompose,
    indicator_coefficients,
)


def spread(xi) -> float:
    """max(xi) - min(xi): the range an increment of chi.xi can cover."""
    xi = np.asarray(xi, dtype=float)
    return float(np.max(xi) - np.min(xi))


def azuma_tail(s: float, c) -> float:
    """exp(-2 s^2 / sum_j (2 c_j)^2) for a martingale with |increment_j| <= c_j.

    s = 0 returns 1.  When every c_j is zero the martingale cannot move,
    so a positive deviation has probability exactly 0.
    """
    log_t = azuma_log_tail(s, c)
    return math.exp(log_t) if log_t > -math.inf else 0.0


def azuma_log_tail(s: float, c) -> float:
    """Logarithm of azuma_tail; -inf encodes the exact-zero case."""
    if s < 0:
        raise ValueError(f"deviation s={s} must be nonnegative")
    if s == 0:
        return 0.0
    c = np.asarray(c, dtype=float)
    denom = float(np.sum((2.0 * c) ** 2))
    if denom == 0.0:
        return -math.inf
    return -2.0 * s * s / denom


def rate_function(lam: float, n: int) -> tuple[str, float]:
    """Deviation-rate label and value f(n) = (n+1)^2 / dn_asymptotic.

    Linear below lam = 1/2, n / log n at the critical value, and
    n^(2 - 2 lam) above it.  f(n) is at most (n+1)^2 / dn_exact for
    every n, because the envelope dominates dn_exact (see dn_asymptotic).
    """
    regime, envelope = dn_asymptotic(lam, n)  # checks lam and n
    label = {"c": "n/log n",
             "d": f"n^{2.0 - 2.0 * lam:g}"}.get(regime, "linear")
    return label, (n + 1.0) ** 2 / envelope


class BoundReport(NamedTuple):
    """Deviation bound for one (horizon, threshold) pair.

    n counts draws: the event concerns C_n, deviates by s from its
    deterministic center, and accumulates n increments (j = 0 .. n-1).
    zeroth_shift is the center A (requires the initial state) so callers
    can translate the centered event into a raw threshold.
    """

    n: int
    t: float
    statistic: str
    increment_bounds: np.ndarray
    sum_sq: float
    tail: float
    regime: str
    rate_value: float
    log_tail: float
    deviation: float
    zeroth_shift: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "statistic": self.statistic,
            "increment_bounds": [float(c) for c in self.increment_bounds],
            "sum_sq": self.sum_sq,
            "tail": self.tail,
            "regime": self.regime,
            "rate_value": self.rate_value,
        }


class _Member:
    """One term alpha * C.v of a statistic, bounded according to the kind
    of v that its spectral Member records."""

    def __init__(self, S: SpectralDecomposition, alpha: float, member: Member):
        self.alpha = float(alpha)
        self.member = member
        self.vector, self.lam = member.vector, member.value
        # a chain member is bounded through its image (R - lam I) v, which
        # equals the partner xi2 to within the spectral residual tolerance
        self.xi2 = (None if member.partner is None
                    else S.matrix.matrix @ self.vector - self.lam * self.vector)
        self.frozen = member.partner is None and member.zero

    def describe(self) -> str:
        if self.frozen:
            return f"{self.alpha:g}*[constant, lam=0]"
        return f"{self.alpha:g}*[{self.member.kind}, lam={self.lam:g}]"

    def increment_bounds(self, n_draws: int) -> np.ndarray:
        """|alpha| * c_j for j = 0 .. n_draws - 1: each weight of
        member_weights() times the range of the increment it multiplies."""
        if self.frozen:
            return np.zeros(n_draws)
        _, _, direct, nested = member_weights(self.member, n_draws)
        if self.xi2 is None:
            return abs(self.alpha) * abs(self.lam) * spread(self.vector) * direct
        if self.member.zero:
            return abs(self.alpha) * spread(self.xi2) * direct
        mixed = self.xi2 + self.lam * self.vector
        return abs(self.alpha) * (spread(mixed) * direct
                                  + abs(self.lam) * spread(self.xi2) * nested)

    def center(self, n_draws: int, initial: np.ndarray) -> float:
        """alpha times the deterministic part of C_n.v."""
        c0v = float(initial @ self.vector)
        if self.frozen:
            return self.alpha * c0v
        growth, shift, _, _ = member_weights(self.member, n_draws)
        if self.xi2 is None:
            return self.alpha * growth * c0v
        return self.alpha * (growth * c0v + shift * float(initial @ self.xi2))


def _checked_member(S: SpectralDecomposition, vector, lam: float) -> Member:
    """Classify a caller's (vector, lam) as an eigenvector or the
    generalized member of a chain; raise NotEigenpair if it is neither."""
    m = S.matrix.matrix
    v = np.asarray(vector, dtype=float)
    lam = float(lam)
    if not -1.0 < lam < 1.0:
        raise LambdaOutOfRange(f"member eigenvalue {lam} outside (-1, 1)")
    r = m @ v - lam * v
    if np.max(np.abs(r)) <= EIGEN_RESID_TOL:
        return Member(lam, v)
    if np.max(np.abs(m @ r - lam * r)) <= EIGEN_RESID_TOL:
        return Member(lam, v, r)
    raise NotEigenpair(
        f"vector is neither an eigenvector nor a chain member for lam={lam}")


def _combined_report(members, n, t, s, label, initial) -> BoundReport:
    if n < 1:
        raise IndexOrder(f"horizon n={n} must be at least 1")
    if t < 0:
        raise ValueError(f"t={t} must be nonnegative")
    moving = [mem.lam for mem in members if not mem.frozen]
    lam_star = max(moving) if moving else 0.0
    regime, rate_value = rate_function(lam_star, max(n - 1, 1))
    c = np.zeros(n)
    for mem in members:
        c += mem.increment_bounds(n)
    sum_sq = float(np.sum((2.0 * c) ** 2))
    log_tail = azuma_log_tail(s, c)
    tail = math.exp(log_tail) if log_tail > -math.inf else 0.0
    shift = None
    if initial is not None:
        initial = np.asarray(initial, dtype=float)
        shift = float(sum(mem.center(n, initial) for mem in members))
    return BoundReport(n=n, t=float(t), statistic=label,
                       increment_bounds=c, sum_sq=sum_sq, tail=tail,
                       regime=regime, rate_value=rate_value,
                       log_tail=log_tail, deviation=float(s),
                       zeroth_shift=shift)


def statistic_bound(S: SpectralDecomposition, combo, n: int, t: float,
                    initial=None) -> BoundReport:
    """Bound for the centered eigen-combination after n draws.

    combo is a list of (alpha, member) pairs as given by S.terms(), or
    of (alpha, vector, lam) triples; the vector of a triple must be an
    eigenvector or the generalized member of a chain for its lam.  The
    bounded event is sum_i alpha_i (C_n.v_i - A_i) > n*t.  Pass the
    initial state to have the report carry the total center shift.
    """
    members = [_Member(S, entry[0], entry[1]) if len(entry) == 2
               else _Member(S, entry[0], _checked_member(S, *entry[1:]))
               for entry in combo]
    label = " + ".join(mem.describe() for mem in members)
    return _combined_report(members, n, t, float(n) * t, label, initial)


def color_deviation_bound(R, color: int, n: int, t: float,
                          initial=None) -> BoundReport:
    """Bound for P(C_n[color] - pi[color]*(n+1) - A > t*(n+1)).

    The indicator of the color is expanded in the right-vector basis;
    the principal coefficient pi[color] carries the linear growth and the
    remaining members form the bounded martingale.  A is the centering
    shift of those members (reported when the initial state is given).
    """
    S = R if isinstance(R, SpectralDecomposition) else decompose(
        R if isinstance(R, ReplacementMatrix) else ReplacementMatrix(np.asarray(R, float)))
    alphas = (S.alphas[color] if S.alphas is not None
              else indicator_coefficients(S, color))
    members = [_Member(S, a, m) for a, m in S.terms(alphas)]
    label = (f"color {color} deviation per unit mass; members: "
             + " + ".join(mem.describe() for mem in members))
    return _combined_report(members, n, t, (n + 1.0) * t, label, initial)

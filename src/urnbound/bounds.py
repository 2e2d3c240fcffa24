"""Explicit deviation bounds for linear urn statistics.

A term alpha * C_n.v of a statistic expands over the parts (w, a, u) of
member_weights(v, n), each a series of increments a * (chi_{j+1}.u -
C_j.u/(j+1)); a chain member's parts use its image (R - lam I) v for
xi2.  chi.u is one component of u and C_j.u/(j+1) is a convex
combination of them, so such an increment lies within |a| * spread(u),
spread(u) = max(u) - min(u), and the statistic's weighted increment at
step j within

    c_j = sum over terms and their parts of |alpha| |a| spread(u) w_j.

The bounded-difference inequality then gives, for the centered statistic
after n draws and deviation s,

    P(C_n.xi - A > s) <= exp(-2 s^2 / sum_j (2 c_j)^2),

where A, the deterministic part, sums alpha * (growth C_0.v + shift
C_0.xi2) over the terms.  Reports use s = n*t for eigen-statistics
(deviation t per draw) and s = (n+1)*t for color counts (deviation t per
unit of mass), matching the exact threshold conversion between the two.

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
    return math.exp(azuma_log_tail(s, c))  # exp(-inf) is exactly 0


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


def _term(S: SpectralDecomposition, alpha: float, member: Member):
    """(alpha, member) for one term alpha * C.v of a statistic.  A chain
    member is bounded through its image (R - lam I) v as its partner,
    which equals xi2 to within the spectral residual tolerance."""
    if member.partner is not None:
        v, lam = member.vector, member.value
        member = member._replace(partner=S.matrix.matrix @ v - lam * v)
    return float(alpha), member


def _label(terms) -> str:
    return " + ".join(f"{alpha:g}*[constant, lam=0]"
                      if m.partner is None and m.zero
                      else f"{alpha:g}*[{m.kind}, lam={m.value:g}]"
                      for alpha, m in terms)


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
    # a lambda = 0 eigenvector never moves, so it sets no rate
    moving = [m.value for _, m in members if m.partner is not None
              or not m.zero]
    lam_star = max(moving) if moving else 0.0
    regime, rate_value = rate_function(lam_star, max(n - 1, 1))
    c0 = None if initial is None else np.asarray(initial, dtype=float)
    c, center = np.zeros(n), 0
    for alpha, member in members:
        growth, shift, parts = member_weights(member, n)
        for w, a, u in parts:
            c += (abs(alpha) * abs(a) * spread(u)) * w
        if c0 is not None:
            term = alpha * growth * float(c0 @ member.vector)
            if shift:
                term += alpha * shift * float(c0 @ member.partner)
            center += term
    sum_sq = float(np.sum((2.0 * c) ** 2))
    log_tail = azuma_log_tail(s, c)
    tail = math.exp(log_tail)  # exp(-inf) is exactly 0
    return BoundReport(n=n, t=float(t), statistic=label,
                       increment_bounds=c, sum_sq=sum_sq, tail=tail,
                       regime=regime, rate_value=rate_value,
                       log_tail=log_tail, deviation=float(s),
                       zeroth_shift=None if c0 is None else float(center))


def statistic_bound(S: SpectralDecomposition, combo, n: int, t: float,
                    initial=None) -> BoundReport:
    """Bound for the centered eigen-combination after n draws.

    combo is a list of (alpha, member) pairs as given by S.terms(), or
    of (alpha, vector, lam) triples; the vector of a triple must be an
    eigenvector or the generalized member of a chain for its lam.  The
    bounded event is sum_i alpha_i (C_n.v_i - A_i) > n*t.  Pass the
    initial state to have the report carry the total center shift.
    """
    members = [_term(S, entry[0], entry[1] if len(entry) == 2
                     else _checked_member(S, *entry[1:])) for entry in combo]
    return _combined_report(members, n, t, float(n) * t, _label(members),
                            initial)


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
    members = [_term(S, a, m) for a, m in S.terms(alphas)]
    label = (f"color {color} deviation per unit mass; members: "
             + _label(members))
    return _combined_report(members, n, t, (n + 1.0) * t, label, initial)

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
A threshold enters only through s, so the bound functions take a grid
of thresholds and compute c_j, the rate and A once for all of it.

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


def _log_tail(s: float, sum_sq: float) -> float:
    """-2 s^2 / sum_sq, the log tail at deviation s given sum_j (2 c_j)^2.

    s = 0 gives 0.  When every c_j is zero the martingale cannot move,
    so a positive deviation gets -inf: probability exactly 0.
    """
    if s < 0:
        raise ValueError(f"deviation s={s} must be nonnegative")
    if s == 0:
        return 0.0
    if sum_sq == 0.0:
        return -math.inf
    return -2.0 * s * s / sum_sq


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
    can translate the centered event into a raw threshold.  The reports
    of one threshold grid share one increment_bounds array.
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


def _grid_reports(members, n, thresholds, scale, label,
                  initial) -> list[BoundReport]:
    """One report per threshold t, at deviation s = scale * t.  The
    increment bounds, rate and center do not depend on t, so they are
    computed once for the whole grid."""
    if n < 1:
        raise IndexOrder(f"horizon n={n} must be at least 1")
    ts = [float(t) for t in thresholds]
    if any(t < 0 for t in ts):
        raise ValueError(f"t={min(ts)} must be nonnegative")
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
    zeroth = None if c0 is None else float(center)
    log_tails = [_log_tail(scale * t, sum_sq) for t in ts]  # exp(-inf) = 0
    return [BoundReport(n, t, label, c, sum_sq, math.exp(log_tail), regime,
                        rate_value, log_tail, scale * t, zeroth)
            for t, log_tail in zip(ts, log_tails)]


def statistic_bound(S: SpectralDecomposition, combo, n: int, thresholds,
                    initial=None) -> list[BoundReport]:
    """Bounds for the centered eigen-combination after n draws, one per
    threshold t of the grid.

    combo is a list of (alpha, member) pairs as given by S.terms(), or
    of (alpha, vector, lam) triples; the vector of a triple must be an
    eigenvector or the generalized member of a chain for its lam.  The
    bounded event is sum_i alpha_i (C_n.v_i - A_i) > n*t.  Pass the
    initial state to have the reports carry the total center shift.
    """
    members = [_term(S, entry[0], entry[1] if len(entry) == 2
                     else _checked_member(S, *entry[1:])) for entry in combo]
    return _grid_reports(members, n, thresholds, float(n), _label(members),
                         initial)


def color_deviation_bound(R, color: int, n: int, thresholds,
                          initial=None) -> list[BoundReport]:
    """Bounds for P(C_n[color] - pi[color]*(n+1) - A > t*(n+1)), one per
    threshold t of the grid.

    The indicator of the color is expanded in the right-vector basis;
    the principal coefficient pi[color] carries the linear growth and the
    remaining members form the bounded martingale.  A is the centering
    shift of those members (reported when the initial state is given).
    A color outside 0 .. d-1 raises ValueError.
    """
    S = R if isinstance(R, SpectralDecomposition) else decompose(
        R if isinstance(R, ReplacementMatrix) else ReplacementMatrix(np.asarray(R, float)))
    members = [_term(S, a, m)
               for a, m in S.terms(indicator_coefficients(S, color))]
    label = (f"color {color} deviation per unit mass; members: "
             + _label(members))
    return _grid_reports(members, n, thresholds, n + 1.0, label, initial)

"""Spectral structure of balanced-urn replacement matrices.

A replacement matrix R is row-stochastic and irreducible: every draw adds
one unit of total mass, and every color is reachable from every other.
This module validates R, computes its stationary (left Perron) vector pi
and the real spectrum, solves each nonprincipal root's null space once
for a canonical right eigenvector, a full eigenspace or an (eigenvector,
generalized vector) chain, and expands color indicator vectors in the
resulting right-vector basis.

Conventions
-----------
* Eigenvectors are scaled so the largest-magnitude component has absolute
  value 1, then the sign is flipped so the first nonzero component is
  positive.
* A generalized vector xi3 solves (R - lam*I) xi3 = xi2 with chain
  coefficient exactly 1; the xi2-component of xi3 is removed by zeroing
  the entry at xi2's first nonzero position, which makes the pair
  deterministic.
* Eigenvalues within 1e-8 of each other are treated as repeated; ranks
  use a singular-value threshold of 1e-9.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    BasisSingular,
    ComplexSpectrum,
    DimensionMismatch,
    LambdaOutOfRange,
    NegativeEntry,
    NonFiniteEntry,
    NotAnEigenvalue,
    NotDefective,
    NotIrreducible,
    RowSumNotOne,
    UrnboundError,
)

ROW_SUM_TOL = 1e-12
CLUSTER_TOL = 1e-8      # eigenvalues closer than this are one root
RANK_TOL = 1e-9         # singular values below this count as zero
RESIDUAL_TOL = 1e-10    # eigen relations must hold this tightly
ZERO_TOL = 1e-12        # |lam| at or below this is the eigenvalue 0


class ReplacementMatrix(NamedTuple("ReplacementMatrix",
                                    [("matrix", np.ndarray)])):
    """Validated row-stochastic irreducible replacement matrix."""

    __slots__ = ()

    def __new__(cls, matrix):
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(
                f"matrix must be square, got shape {m.shape}")
        if m.shape[0] < 2:
            raise DimensionMismatch("need at least two colors")
        m.flags.writeable = False
        return super().__new__(cls, m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def validate_matrix(rows) -> ReplacementMatrix:
    """Check entries, row sums and irreducibility; renormalize rows.

    Raises NonFiniteEntry, NegativeEntry, RowSumNotOne or NotIrreducible.
    Row sums within 1e-12 of 1 are divided out so downstream balance is
    exact.  Irreducibility is judged on the graph of positive entries,
    where a subnormal entry is an edge; stationary_vector (so decompose)
    also needs the computed pi strictly positive, so [[0, 1], [5e-324, 1]]
    passes here and is refused there.
    """
    m = ReplacementMatrix(rows).matrix  # shape checks
    # NaN passes every comparison below, so it has to be caught first
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:
        i, j = bad[0]
        raise NonFiniteEntry(f"entry ({i},{j}) = {m[i, j]} is not finite")
    neg = np.argwhere(m < 0)
    if neg.size:
        i, j = neg[0]
        raise NegativeEntry(f"entry ({i},{j}) = {m[i, j]} is negative")
    with np.errstate(over="ignore"):    # an inf sum fails the check below
        sums = m.sum(axis=1)
    bad = np.argwhere(np.abs(sums - 1.0) > ROW_SUM_TOL)
    if bad.size:
        i = int(bad[0][0])
        raise RowSumNotOne(f"row {i} sums to {float(sums[i])!r}, expected 1")
    m = m / sums[:, None]
    ncomp = _strong_components(m > 0)
    if ncomp != 1:
        raise NotIrreducible(
            f"positive-entry graph has {ncomp} strongly connected components")
    return ReplacementMatrix(m)


def _strong_components(adjacency: np.ndarray) -> int:
    """Number of strongly connected components of a directed graph.

    k boolean squarings of (adjacency or identity) give reachability in
    up to 2^k steps, and d nodes need at most d - 1; two nodes share a
    component exactly when each reaches the other, so the components are
    the distinct rows of the mutual-reachability matrix.
    """
    d = adjacency.shape[0]
    reach = adjacency | np.eye(d, dtype=bool)
    for _ in range(d.bit_length()):
        reach = reach @ reach
    return len({row.tobytes() for row in reach & reach.T})


def stationary_vector(R: ReplacementMatrix) -> np.ndarray:
    """Left Perron vector: pi R = pi, pi > 0, sum(pi) = 1.  Raises
    NotIrreducible unless pi > 0; the residual check is a numerical guard.
    That is stricter than validate_matrix's graph test: [[0, 1],
    [5e-324, 1]] passes there, but its pi[0], about 5e-324, is lost in
    the solve's rounding, so the computed one is not positive."""
    m = R.matrix
    d = R.dim
    a = np.vstack([m.T - np.eye(d), np.ones(d)])
    b = np.zeros(d + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    pi = pi / pi.sum()
    if np.min(pi) <= 0:
        raise NotIrreducible("stationary vector not strictly positive")
    resid = np.max(np.abs(pi @ m - pi))
    if resid > RESIDUAL_TOL:
        raise UrnboundError(f"stationary residual {resid:.3e} too large")
    return pi


def _det3(m) -> float:
    return (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))


def _real_spectrum(R: ReplacementMatrix) -> list[tuple[float, int]]:
    """Nonprincipal roots in descending order, each with its algebraic
    multiplicity; roots within CLUSTER_TOL are one root.

    For d <= 3 the roots come from the characteristic polynomial with the
    factor (lam - 1) divided out, so small cases are closed-form.  Raises
    ComplexSpectrum when an imaginary part exceeds 1e-9.
    """
    m = R.matrix
    d = R.dim
    if d == 2:
        others = [m[0, 0] + m[1, 1] - 1.0]
    elif d == 3:
        tr = m[0, 0] + m[1, 1] + m[2, 2]
        det = _det3(m)
        # char poly = (lam - 1)(lam^2 + (1 - tr) lam + det)
        disc = (tr - 1.0) ** 2 - 4.0 * det
        if disc < 0:
            imag = np.sqrt(-disc) / 2.0
            if imag > 1e-9:
                raise ComplexSpectrum(
                    f"nonprincipal pair has imaginary part {imag:.3e}")
            others = [(tr - 1.0) / 2.0] * 2
        else:
            root = np.sqrt(disc)
            others = [(tr - 1.0 + root) / 2.0, (tr - 1.0 - root) / 2.0]
    else:
        eig = np.linalg.eigvals(m)
        worst = np.max(np.abs(eig.imag))
        if worst > 1e-9:
            raise ComplexSpectrum(f"imaginary part {worst:.3e} beyond tolerance")
        vals = np.real(eig)
        principal = int(np.argmin(np.abs(vals - 1.0)))
        others = np.delete(vals, principal)
    roots: list[tuple[float, int]] = []
    for v in sorted(others, reverse=True):
        if roots and abs(roots[-1][0] - v) < CLUSTER_TOL:
            roots[-1] = (roots[-1][0], roots[-1][1] + 1)  # keep the first
        else:
            roots.append((float(v), 1))
    return roots


def _canonical(v: np.ndarray) -> np.ndarray:
    """Scale so max |component| is 1, then make first nonzero positive."""
    v = v / np.max(np.abs(v))
    for x in v:
        if abs(x) > 1e-12:
            if x < 0:
                v = -v
            break
    return v


def _null_basis(m: np.ndarray, lam: float) -> list[np.ndarray]:
    d = m.shape[0]
    _, s, vt = np.linalg.svd(m - lam * np.eye(d))
    k = int(np.sum(s < RANK_TOL))
    return [_canonical(vt[d - 1 - i]) for i in range(k)]


def _chain(R: ReplacementMatrix, lam: float,
           xi2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pair (xi2, xi3) with R xi3 = xi2 + lam xi3, for an eigenvector xi2
    of a defective eigenvalue lam of algebraic multiplicity 2.  Raises
    NotDefective, a numerical guard, when the residual exceeds RESIDUAL_TOL.
    """
    shifted = R.matrix - lam * np.eye(R.dim)
    xi3, *_ = np.linalg.lstsq(shifted, xi2, rcond=None)
    resid = np.max(np.abs(shifted @ xi3 - xi2))
    if resid > RESIDUAL_TOL:
        raise NotDefective(f"chain equation residual {resid:.3e}")
    # remove the xi2-component: zero xi3 at xi2's first nonzero entry
    pivot = int(np.argmax(np.abs(xi2) > 1e-12))
    xi3 = xi3 - (xi3[pivot] / xi2[pivot]) * xi2
    return xi2, xi3


class Member(NamedTuple):
    """One right vector of the basis and what it is.

    `partner` is xi2 when `vector` is the generalized member xi3 of a
    Jordan chain (R xi3 = xi2 + value * xi3), and None when `vector` is
    an eigenvector.
    """

    value: float
    vector: np.ndarray
    partner: np.ndarray | None = None

    @property
    def kind(self) -> str:
        return "eigen" if self.partner is None else "jordan"

    @property
    def zero(self) -> bool:
        """True for the eigenvalue 0 (within ZERO_TOL)."""
        return abs(self.value) <= ZERO_TOL


class EigenStructure(NamedTuple):
    """Right vectors attached to one nonprincipal eigenvalue.

    For a simple eigenvalue `vectors` holds one eigenvector; for a
    repeated eigenvalue with full eigenspace it holds two eigenvectors;
    for a defective one it holds the (xi2, xi3) chain and `jordan` is True.
    """

    value: float
    algebraic: int
    geometric: int
    vectors: tuple[np.ndarray, ...]
    jordan: bool

    @property
    def members(self) -> tuple[Member, ...]:
        """The vectors in order; a chain's xi3 carries xi2 as its partner."""
        if self.jordan:
            xi2, xi3 = self.vectors
            return (Member(self.value, xi2), Member(self.value, xi3, xi2))
        return tuple(Member(self.value, v) for v in self.vectors)


class SpectralDecomposition(NamedTuple):
    """Stationary vector, real spectrum and right-vector basis of R."""

    matrix: ReplacementMatrix
    pi: np.ndarray
    eigenvalues: tuple[tuple[float, int, int], ...]
    structures: tuple[EigenStructure, ...]
    alphas: np.ndarray | None = None

    @property
    def members(self) -> tuple[Member, ...]:
        """Every right vector in basis order (after the all-ones vector)."""
        return tuple(m for st in self.structures for m in st.members)

    def terms(self, coefficients) -> list[tuple[float, Member]]:
        """Pair basis coefficients (constant term first, as in `alphas`)
        with the members they multiply, dropping zero coefficients."""
        return [(float(a), m) for a, m in zip(coefficients[1:], self.members)
                if a != 0]

    @property
    def basis(self) -> np.ndarray:
        """Columns: all-ones vector, then every right vector in order."""
        cols = [np.ones(self.matrix.dim)] + [m.vector for m in self.members]
        if len(cols) != self.matrix.dim:
            raise BasisSingular(
                f"basis has {len(cols)} vectors for dimension {self.matrix.dim}")
        return np.column_stack(cols)


def decompose(R: ReplacementMatrix) -> SpectralDecomposition:
    """Full spectral structure: pi, spectrum, right vectors, indicator alphas.

    Each nonprincipal root's null space is solved once.  Its dimension geo
    picks a full eigenspace when geo = alg > 1, else the first null vector:
    alone for a simple root, as a chain's head when alg = 2.
    LambdaOutOfRange is reachable from a config; the other raises guard
    numerical failures.
    """
    pi = stationary_vector(R)
    eigenvalues, structures = [(1.0, 1, 1)], []
    for lam, alg in _real_spectrum(R):
        if not -1.0 < lam < 1.0:
            raise LambdaOutOfRange(
                f"nonprincipal eigenvalue {lam} outside (-1, 1)")
        basis = _null_basis(R.matrix, lam)
        geo = min(len(basis), alg)
        if geo == alg > 1:
            vectors = tuple(basis)
        elif alg > 2:
            raise UrnboundError(
                "chains of length greater than 2 are not supported")
        elif not basis:
            raise NotAnEigenvalue(
                f"{lam} is not an eigenvalue within tolerance")
        else:
            xi = basis[0]
            resid = np.max(np.abs(R.matrix @ xi - lam * xi))
            if resid > RESIDUAL_TOL:
                raise NotAnEigenvalue(
                    f"eigen residual {resid:.3e} for lam={lam}")
            vectors = (xi,) if alg == 1 else _chain(R, lam, xi)
        eigenvalues.append((lam, alg, geo))
        structures.append(EigenStructure(lam, alg, geo, vectors, geo < alg))
    dec = SpectralDecomposition(R, pi, tuple(eigenvalues), tuple(structures))
    return dec._replace(alphas=np.vstack(
        [indicator_coefficients(dec, c) for c in range(R.dim)]))


def indicator_coefficients(S: SpectralDecomposition, color: int) -> np.ndarray:
    """Coefficients (alpha_1, ..., alpha_d) with
    e_color = alpha_1 * ones + sum_i alpha_i xi_i.

    alpha_1 always equals pi[color]: every right vector is pi-orthogonal,
    so dotting the expansion with pi isolates the constant term.  Raises
    BasisSingular when the vectors are dependent beyond tolerance.  A
    config reaches it: a defective matrix moved by 1e-13 splits its double
    root, and the nearly parallel eigenvectors miss e_color by about 6e-11
    (the near-defective case of the CLI's spectral-error tests).
    """
    d = S.matrix.dim
    if not 0 <= color < d:
        raise ValueError(f"color {color} out of range for {d} colors")
    basis = S.basis
    target = np.zeros(d)
    target[color] = 1.0
    try:
        alpha = np.linalg.solve(basis, target)
    except np.linalg.LinAlgError as exc:
        raise BasisSingular(str(exc)) from exc
    resid = np.max(np.abs(basis @ alpha - target))
    if resid > 1e-12:
        raise BasisSingular(f"indicator reconstruction residual {resid:.3e}")
    return alpha

"""Dense symmetric eigendecompositions, local spectra, and spectral projectors.

Eigenvectors get a deterministic sign: the largest-magnitude component is made
positive, ties resolved toward the lowest index.

The dense solver leaves every entry with an absolute error of ~1e-16, so the
exponentially small tails of localized eigenvectors drown in that floor.
``eig_sym`` rebuilds them from the landscape of the matrix being decomposed:
with u solving A u = 1 and vbar = (A u) / u, the barrier set
T = {k : vbar_k > lambda} of an eigenpair (lambda, psi) satisfies
A_TT u_T >= vbar_T u_T > lambda u_T for a Z-matrix, so A_TT - lambda is a
nonsingular M-matrix and the eigen equation restricted to T gives

    psi_T = -(A_TT - lambda)^{-1} A_{T,T^c} psi_{T^c},

one banded Cholesky solve per eigenpair.  The inverse of an M-matrix is
entrywise non-negative, so constant-sign data meets no cancellation and the
rebuilt entries keep relative accuracy however deep the decay runs.  The repair
applies to Z-matrices whose bandwidth is at most max(1, n // 3) and whose
landscape is strictly positive; otherwise, or for an eigenpair whose solve
fails, the dense vector stands, and ``EigenDecomposition`` counts the
repaired and the failed eigenpairs.

Its one limit: entries of T^c keep the dense solver's absolute accuracy
(or its exact zeros), so where psi is tiny on T^c, far from its own well,
the T entries beyond them follow that data.  Verifiers that weight tail
entries by exp(2 alpha rho) rely on the repair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .landscape import _solve_spd
from .matrices import (
    DENSE_EIGEN_LIMIT,
    NotPositiveDefiniteError,
    SparseSymMatrix,
    _frozen,
    _index_mask,
    _write_csv,
)

__all__ = [
    "EigenDecomposition",
    "LocalEigenData",
    "SpectralProjector",
    "eig_sym",
    "local_eig",
    "global_projector",
    "local_projector",
    "project",
    "counting_global",
    "counting_local",
    "write_eigenvalues_csv",
]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Full spectrum: values ascending, vectors[:, k] belongs to values[k].

    ``tails_repaired`` counts the eigenvectors whose tails were rebuilt by the
    Dirichlet solve on their barrier set; ``tails_failed`` counts those whose
    solve failed or gave non-finite values and that kept the dense vector.
    """

    values: np.ndarray
    vectors: np.ndarray
    tails_repaired: int = 0
    tails_failed: int = 0

    def __post_init__(self):
        _frozen(self.values)
        _frozen(self.vectors)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True, eq=False)
class LocalEigenData:
    """Spectrum of a principal submatrix, embedded back into full length.

    ``vectors`` has one full-length column per local eigenvalue, zero outside
    ``domain``; restricted to the domain the columns are orthonormal.
    """

    region_id: int
    domain: frozenset[int]
    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        _frozen(self.values)
        _frozen(self.vectors)


@dataclass(frozen=True, eq=False)
class SpectralProjector:
    """Orthogonal projector onto eigenvectors with eigenvalue in an open interval."""

    basis: np.ndarray
    interval: tuple[float, float]
    kind: str

    def __post_init__(self):
        _frozen(self.basis)


def _repair_tails(A: SparseSymMatrix, values: np.ndarray, vectors: np.ndarray) -> tuple[int, int]:
    """Rebuild each column of ``vectors`` on its barrier set T, in place.

    For eigenpair k with T = {vbar > values[k]} neither empty nor everything,
    psi_T is overwritten by the solution of (A_TT - lambda) psi_T =
    -(A psi 1_{T^c})_T in compressed band storage (the bandwidth of A_TT never
    exceeds A's) and the column is renormalized.  Returns (repaired, failed);
    a failed column keeps its dense values.
    """
    n = A.n
    bw = A.bandwidth()
    if not A.is_z or bw == 0 or bw > max(1, n // 3):
        return 0, 0
    try:
        u = _solve_spd(A, np.ones(n))
    except NotPositiveDefiniteError:
        return 0, 0
    if not np.all(u > 0.0):
        return 0, 0
    vbar = A.matvec(u) / u
    off_i, off_j, off_v = A.off_arrays()
    lo, hi = off_i - 1, off_j - 1
    repaired = failed = 0
    for k in range(n):
        lam = float(values[k])
        barrier = vbar > lam
        size = int(np.count_nonzero(barrier))
        if size == 0 or size == n:
            continue
        psi = np.where(barrier, 0.0, vectors[:, k])  # psi 1_{T^c}
        rhs = -A.matvec(psi)[barrier]
        rank = np.cumsum(barrier) - 1
        inner = barrier[lo] & barrier[hi]
        ri, rj = rank[lo[inner]], rank[hi[inner]]
        band = np.zeros((bw + 1, size), dtype=float)
        band[bw] = A.diag[barrier] - lam
        band[bw + ri - rj, rj] = off_v[inner]
        # banded Cholesky at every bandwidth (solveh_banded hands W = 1 to
        # ptsv, whose wrapper rejects a one-site T)
        _, psi[barrier], info = scipy.linalg.lapack.dpbsv(band, rhs)
        norm = np.linalg.norm(psi)
        if info != 0 or not (np.isfinite(norm) and norm > 0.0):
            failed += 1
            continue
        vectors[:, k] = psi / norm
        repaired += 1
    return repaired, failed


def _fix_signs(vectors: np.ndarray) -> None:
    """Largest-magnitude component positive, in place; exact ties pick the lowest index."""
    for k in range(vectors.shape[1]):
        col = vectors[:, k]
        if col[int(np.argmax(np.abs(col)))] < 0.0:
            col *= -1.0


def eig_sym(A: SparseSymMatrix, *, refine_tails: bool = True) -> EigenDecomposition:
    """Full eigendecomposition with deterministic signs (and Dirichlet tail repair)."""
    if A.n > DENSE_EIGEN_LIMIT:
        raise ValueError(f"dense eigensolve limited to n <= {DENSE_EIGEN_LIMIT}, got n = {A.n}")
    values, vectors = np.linalg.eigh(A.to_dense())
    repaired, failed = _repair_tails(A, values, vectors) if refine_tails else (0, 0)
    _fix_signs(vectors)
    return EigenDecomposition(values, vectors, tails_repaired=repaired, tails_failed=failed)


def _principal_submatrix(A: SparseSymMatrix, keep: np.ndarray) -> SparseSymMatrix:
    """A restricted to the positions where the boolean ``keep`` holds, relabelled 1..m."""
    local = np.cumsum(keep)  # 1-based local index at every kept position
    off_i, off_j, off_v = A.off_arrays()
    both = keep[off_i - 1] & keep[off_j - 1]
    off = np.column_stack((local[off_i[both] - 1], local[off_j[both] - 1], off_v[both]))
    return SparseSymMatrix(int(local[-1]), A.diag[keep], off)


def local_eig(
    A: SparseSymMatrix,
    domain,
    region_id: int = 0,
    *,
    refine_tails: bool = True,
) -> LocalEigenData:
    """Spectrum of the principal submatrix on ``domain`` (1-based indices).

    The submatrix goes through ``eig_sym``, tail repair included, with the
    landscape of the submatrix itself.
    """
    dom = sorted({int(i) for i in domain})
    if not dom:
        raise ValueError("empty domain")
    keep = _index_mask(A.n, dom)
    sub = eig_sym(_principal_submatrix(A, keep), refine_tails=refine_tails)
    vectors = np.zeros((A.n, sub.n), dtype=float)
    vectors[keep, :] = sub.vectors
    return LocalEigenData(
        region_id=int(region_id),
        domain=frozenset(dom),
        values=sub.values,
        vectors=vectors,
    )


def global_projector(ed: EigenDecomposition, lo: float, hi: float) -> SpectralProjector:
    """Projector onto global eigenvectors with eigenvalue in the open (lo, hi)."""
    mask = (ed.values > lo) & (ed.values < hi)
    return SpectralProjector(
        basis=np.array(ed.vectors[:, mask]),
        interval=(float(lo), float(hi)),
        kind="global",
    )


def local_projector(locals_: list[LocalEigenData], lo: float, hi: float) -> SpectralProjector:
    """Projector onto local eigenvectors (all regions) with eigenvalue in (lo, hi).

    Columns from different regions have disjoint supports, so the combined
    basis is orthonormal whenever each region's is.
    """
    cols = []
    width = None
    for loc in locals_:
        width = loc.vectors.shape[0]
        mask = (loc.values > lo) & (loc.values < hi)
        if np.any(mask):
            cols.append(loc.vectors[:, mask])
    if cols:
        basis = np.hstack(cols)
    else:
        basis = np.zeros((width or 0, 0), dtype=float)
    return SpectralProjector(basis=basis, interval=(float(lo), float(hi)), kind="local")


def project(P: SpectralProjector, x) -> np.ndarray:
    """Apply the projector: basis @ (basis.T @ x)."""
    x = np.asarray(x, dtype=float)
    if P.basis.shape[1] == 0:
        return np.zeros_like(x)
    return P.basis @ (P.basis.T @ x)


def counting_global(ed: EigenDecomposition, lam: float) -> int:
    """N(lam): number of global eigenvalues <= lam."""
    return int(np.count_nonzero(ed.values <= lam))


def counting_local(locals_: list[LocalEigenData], mu: float) -> int:
    """N0(mu): number of local eigenvalues <= mu, summed over regions."""
    return int(sum(np.count_nonzero(loc.values <= mu) for loc in locals_))


def write_eigenvalues_csv(path, ed: EigenDecomposition) -> None:
    """CSV with header index,value (1-based eigenvalue index, ascending)."""
    _write_csv(path, ["index", "value"], np.arange(1, ed.values.size + 1), ed.values)

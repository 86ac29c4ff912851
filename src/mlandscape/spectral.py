"""Full symmetric eigendecompositions, local spectra, and window bases.

``eig_sym`` takes its spectrum from ``matrices._eigh``: LAPACK's tridiagonal
divide and conquer on the stored diagonals at bandwidth <= 1, the dense
``np.linalg.eigh`` on wider bands, with the bits of the dense solve on both.

Eigenvectors get a deterministic sign: the largest-magnitude component is made
positive, ties resolved toward the lowest index (one ``argmax`` per block of
columns).

Either solver leaves every entry with an absolute error of ~1e-16, so the
exponentially small tails of localized eigenvectors drown in that floor.
``eig_sym(A, L)`` rebuilds them from the caller's landscape: for any positive
u with vbar = (A u) / u (u = A^{-1} 1 is only the M-matrix case), the barrier
set T = {k : vbar_k > lambda} of an eigenpair (lambda, psi) satisfies
A_TT u_T >= vbar_T u_T > lambda u_T for a Z-matrix, so A_TT - lambda is a
nonsingular M-matrix and the eigen equation restricted to T gives

    psi_T = -(A_TT - lambda)^{-1} A_{T,T^c} psi_{T^c},

one banded Cholesky solve per eigenpair.  Only eigenpairs with
min vbar <= lambda < max vbar have a T that is neither empty nor everything.
A block of them gets its right sides from one product of A with their
columns, and its systems go to one call of LAPACK's ``dpbsv`` (through the
``_lapack`` binding): ``matrices._upper_band`` stacks the A_TT - lambda
along the diagonal of one band at A's bandwidth W (which also gives the
landscape solve its band), with W spacer columns between two systems:
diagonal 1, no coupling, right side +0.0.  With W of them every system's
solution has the bits of its own ``dpbsv``, signed zeros included.  When
``dpbsv`` stops at a column, the eigenpair that owns it fails alone: the systems before it are solved again
as a stack, with the same bits, and those after it go on in a new one.  The
inverse of an M-matrix is entrywise non-negative, so constant-sign data
meets no cancellation and the rebuilt entries keep relative accuracy
however deep the decay runs.  The repair applies to Z-matrices whose
bandwidth is at most max(1, n // 3); otherwise, with no landscape (``L``
None), or for an eigenpair whose solve fails, the solver's vector stands,
and ``EigenDecomposition`` counts the repaired and the failed eigenpairs.

Its one limit: entries of T^c keep the solver's absolute accuracy
(or its exact zeros), so where psi is tiny on T^c, far from its own well,
the T entries beyond them follow that data.  Verifiers that weight tail
entries by exp(2 alpha rho) rely on the repair.

``local_eig`` decomposes the relabelled principal submatrix
(``matrices._submatrix``) of its domain the same way, with its own landscape.
With ``emax`` it keeps and repairs only the eigenpairs with value <= emax,
and always the lowest one, as the leading columns of the full spectrum's
array, so every product with them has the full spectrum's bits.

Both run the repair and the sign fix on the vectors in the order the solver
leaves them (``_eigh(..., contiguous=False)``): Fortran order from
``dstevd``, so each block's columns are read and written contiguously (the
dense solve's come C-ordered).  The repair gathers a block into the same
C-contiguous rows from either order and the sign fix is exact, so the order
changes no bit.  The one C-contiguous copy is ``eig_sym``'s result and
``local_eig``'s embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lapack
from .landscape import LandscapeData, _require_landscape_of, solve_landscape
from .matrices import (
    SparseSymMatrix,
    _frozen,
    _blocks,
    _eigh,
    _index_mask,
    _stack_columns,
    _submatrix,
    _upper_band,
    _write_csv,
)

__all__ = [
    "EigenDecomposition",
    "LocalEigenData",
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
    solve failed or gave non-finite values and that kept the solver's vector.
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


def _repair_tails(
    A: SparseSymMatrix, vbar: np.ndarray, values: np.ndarray, vectors: np.ndarray
) -> tuple[int, int]:
    """Rebuild each column of ``vectors`` on its barrier set T, in place.

    For eigenpair k with T = {vbar > values[k]} neither empty nor everything
    (``values`` ascending, so these are one run of them), psi_T is
    overwritten by the solution of (A_TT - lambda) psi_T = -(A psi 1_{T^c})_T
    and the column is renormalized.  The right sides of a block of them
    (``_blocks``) come from one product of A with the block's columns, and the
    block's systems are solved as one stack (``_solve_stack``); each column
    gets the bits of its own ``matvec`` and its own ``dpbsv``.  Returns
    (repaired, failed); a failed column keeps the solver's values.
    """
    n = A.n
    bw = A.bandwidth()
    if not A.is_z or bw == 0 or bw > max(1, n // 3):
        return 0, 0
    # T is everything below min vbar and empty from max vbar up
    first, stop = np.searchsorted(values, [vbar.min(), vbar.max()])
    repaired = failed = 0
    # at most BLOCK_ENTRIES // (n bw) eigenpairs a block, so a stack's band
    # stays near BLOCK_ENTRIES entries at any bandwidth
    for b in _blocks(stop - first, n * bw):
        ks = slice(first + b.start, first + b.stop)
        # row c of each array is eigenpair ks.start + c: its T, psi 1_{T^c} and A psi 1_{T^c}
        barriers = vbar[None, :] > values[ks, None]
        psis = np.where(barriers, 0.0, vectors[:, ks].T)
        sides = np.ascontiguousarray(A.matvec(psis.T).T)
        solved, lost = _solve_stack(A, barriers, values[ks], sides, psis)
        norms = np.ones(len(psis))
        norms[solved] = np.sqrt([psi.dot(psi) for psi in psis[solved]])  # np.linalg.norm's bits
        ok = solved & np.isfinite(norms) & (norms > 0.0)
        psis /= np.where(ok, norms, 1.0)[:, None]
        psis[~ok] = vectors[:, ks].T[~ok]
        vectors[:, ks] = psis.T
        repaired += int(np.count_nonzero(ok))
        failed += lost + int(np.count_nonzero(solved & ~ok))
    return repaired, failed


def _solve_stack(A, barriers, values, sides, psis):
    """Solve the systems of a block of eigenpairs as one stack of bands, writing ``psis``.

    ``sides`` and ``psis`` are C-contiguous, one row per eigenpair.  Row c's
    system (A_TT - values[c]) x = -sides[c]_T, T = barriers[c], is block c of
    ``_upper_band``.  Its bw unit spacer columns, with right side +0.0, keep
    each block's bits those of its own ``dpbsv``, signed zeros included.  When
    ``dpbsv`` stops at a column (info > 0), the row that owns the column
    fails; the rows before it are solved again as a stack and the rows after
    it go on in a new one.  Returns (the rows solved as a mask, the count of
    failed ones).
    """
    bw = A.bandwidth()
    solved = np.zeros(len(barriers), dtype=bool)
    lost = 0
    pending = [np.arange(len(barriers))]
    while pending:
        stack = pending.pop()
        if stack.size == 0:
            continue
        keep = barriers[stack]
        columns = owner, sites, cols = _stack_columns(keep, bw)
        at = stack[owner] * keep.shape[1] + sites  # flat positions in sides and psis
        rhs = np.zeros(int(cols[-1]) + 1)
        rhs[cols] = -sides.ravel()[at]
        # banded Cholesky at every bandwidth (the landscape solve hands W = 1
        # to dptsv; scipy's dptsv wrapper rejects a one-site T)
        _, x, info = _lapack.dpbsv(_upper_band(A, keep, values[stack], columns), rhs)
        if info > 0:  # spacers never fail: column info is a system's
            bad = int(owner[np.searchsorted(cols, info - 1)])
            lost += 1
            pending += [stack[bad + 1 :], stack[:bad]]
            continue
        psis.reshape(-1)[at] = x[cols]
        solved[stack] = True
    return solved, lost


def _fix_signs(vectors: np.ndarray) -> None:
    """Largest-magnitude component positive, in place; exact ties pick the lowest index.

    One ``argmax`` per block of columns; the flipped columns are negated by
    ``*= -1.0`` (numpy 2.4.6 computes ``np.negative(out=)`` wrongly on a view).
    """
    for b in _blocks(vectors.shape[1], vectors.shape[0]):
        block = vectors[:, b]
        peaks = np.argmax(np.abs(block), axis=0)
        flip = block[peaks, np.arange(peaks.size)] < 0.0
        block[:, flip] *= -1.0


def _kept(values: np.ndarray, emax: float | None) -> int:
    """How many of the ascending ``values`` are <= emax, at least one; all of them for None."""
    if emax is None:
        return int(values.size)
    return max(1, int(np.count_nonzero(values <= emax)))


def eig_sym(A: SparseSymMatrix, L: LandscapeData | None) -> EigenDecomposition:
    """Full eigendecomposition with deterministic signs, tails repaired from ``L`` unless None."""
    if L is not None:
        _require_landscape_of(A, L)
    values, vectors = _eigh(A, contiguous=False)
    repaired, failed = _repair_tails(A, L.vbar, values, vectors) if L is not None else (0, 0)
    _fix_signs(vectors)
    return EigenDecomposition(
        values, np.ascontiguousarray(vectors), tails_repaired=repaired, tails_failed=failed
    )


def local_eig(
    A: SparseSymMatrix, domain, region_id: int = 0, *, emax: float | None = None
) -> LocalEigenData:
    """Spectrum of the principal submatrix on ``domain`` (1-based indices).

    The submatrix gets its own ``solve_landscape``, which raises if it is not
    positive definite or its landscape is not positive, and then the
    decomposition of ``eig_sym``, for the eigenpairs it keeps: those with value
    <= ``emax`` and always the lowest one, or all of them for None.  The kept
    vectors are the leading columns of an n x m array (m the domain size), the
    layout of the full spectrum, so every product with them has its bits.
    """
    keep = _index_mask(A.n, domain)
    if not keep.any():
        raise ValueError("empty domain")
    A_dom = _submatrix(A, keep)
    L_dom = solve_landscape(A_dom)
    values, vectors = _eigh(A_dom, contiguous=False)  # made C-contiguous by the embedding
    k = _kept(values, emax)
    _repair_tails(A_dom, L_dom.vbar, values[:k], vectors[:, :k])
    _fix_signs(vectors[:, :k])
    embedded = np.zeros((A.n, values.size), dtype=float)
    embedded[keep, :k] = vectors[:, :k]
    return LocalEigenData(
        region_id=int(region_id),
        domain=frozenset((np.flatnonzero(keep) + 1).tolist()),
        values=values[:k],
        vectors=embedded[:, :k],
    )


def global_projector(ed: EigenDecomposition, center: float, radius: float) -> np.ndarray:
    """Orthonormal basis of the global eigenvectors with |lambda - center| < radius.

    The window is measured from its center, so an eigenvalue equal to the
    center lies in it for every radius > 0, however far below the float
    spacing at the center the radius is.
    """
    return ed.vectors[:, np.abs(ed.values - center) < radius]


def local_projector(locals_: list[LocalEigenData], center: float, radius: float) -> np.ndarray:
    """Basis of the local eigenvectors (all regions) with |mu - center| < radius.

    Columns from different regions have disjoint supports, so the combined
    basis is orthonormal whenever each region's is.
    """
    cols = []
    width = None
    for loc in locals_:
        width = loc.vectors.shape[0]
        mask = np.abs(loc.values - center) < radius
        if np.any(mask):
            cols.append(loc.vectors[:, mask])
    if cols:
        return np.hstack(cols)
    return np.zeros((width or 0, 0), dtype=float)


def project(basis: np.ndarray, x) -> np.ndarray:
    """The orthogonal projection of x onto the span of the basis: basis @ (basis.T @ x)."""
    x = np.asarray(x, dtype=float)
    if basis.shape[1] == 0:
        return np.zeros_like(x)
    return basis @ (basis.T @ x)


def _count_at_most(values: np.ndarray, lam):
    """How many values are <= lam, elementwise over an array lam; values may be unsorted."""
    counts = np.count_nonzero(values <= np.asarray(lam, dtype=float)[..., None], axis=-1)
    return int(counts) if np.ndim(lam) == 0 else counts


def counting_global(ed: EigenDecomposition, lam):
    """N(lam): number of global eigenvalues <= lam, elementwise over an array lam."""
    return _count_at_most(ed.values, lam)


def counting_local(locals_: list[LocalEigenData], mu):
    """N0(mu): number of local eigenvalues <= mu over all regions, elementwise over an array mu."""
    return _count_at_most(np.concatenate([np.empty(0)] + [loc.values for loc in locals_]), mu)


def write_eigenvalues_csv(path, ed: EigenDecomposition) -> None:
    """CSV with header index,value (1-based eigenvalue index, ascending)."""
    _write_csv(path, ["index", "value"], np.arange(1, ed.values.size + 1), ed.values)

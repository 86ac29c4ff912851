"""Landscape solves and effective potentials.

The landscape vector u solves A u = 1 (componentwise ones).  Every verifier
uses the effective potential ``vbar = (A u) / u`` of the recovered u: the
paper's Z-matrix theorem holds exactly for the ratio potential of whatever
positive u is used, while ``1 / u`` equals vbar only when the solve is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .matrices import (
    NonPositiveLandscapeError,
    NotPositiveDefiniteError,
    SparseSymMatrix,
    _frozen,
    _index_mask,
    _write_csv,
)

__all__ = [
    "LandscapeData",
    "ShiftedPotential",
    "solve_landscape",
    "landscape_from_vector",
    "shift_potential",
    "write_landscape_csv",
]


@dataclass(frozen=True, eq=False)
class LandscapeData:
    """Landscape vector u, effective potential vbar = (A u)/u, solve residual."""

    u: np.ndarray
    vbar: np.ndarray
    residual_inf: float

    def __post_init__(self):
        _frozen(self.u)
        _frozen(self.vbar)


@dataclass(frozen=True, eq=False)
class ShiftedPotential:
    """Non-negative shifted potential v = (vbar - threshold)_+ and its well set.

    ``wells`` holds the 1-based indices where vbar <= threshold, i.e. exactly
    where v vanishes.  Membership uses the exact comparison, no fuzz.
    """

    threshold: float
    v: np.ndarray
    wells: frozenset[int]

    def __post_init__(self):
        _frozen(self.v)


def _band_upper(A: SparseSymMatrix, bw: int) -> np.ndarray:
    """Upper band storage (scipy solveh_banded layout) of a banded matrix."""
    n = A.n
    ab = np.zeros((bw + 1, n), dtype=float)
    ab[bw, :] = A.diag
    off_i, off_j, off_v = A.off_arrays()
    # entry (i, j) with i < j sits at ab[bw + i - j, j - 1] in 0-based columns
    ab[bw + (off_i - off_j), off_j - 1] = off_v
    return ab


def _solve_spd(A: SparseSymMatrix, rhs: np.ndarray) -> np.ndarray:
    """Banded Cholesky solve at the matrix's own bandwidth."""
    try:
        return scipy.linalg.solveh_banded(_band_upper(A, A.bandwidth()), rhs, lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("not positive definite") from exc


def solve_landscape(A: SparseSymMatrix) -> LandscapeData:
    """Solve A u = 1 for a positive definite A and derive the potential.

    One pass of iterative refinement is applied if the residual exceeds
    1e-10 * max(1, max |a_ij|).  A non-positive component of u is an error:
    the landscape of an M-matrix is strictly positive, so a sign flip means
    the input is outside the supported class.
    """
    ones = np.ones(A.n, dtype=float)
    u = _solve_spd(A, ones)
    tol = 1e-10 * max(1.0, A.max_abs_entry())
    residual = ones - A.matvec(u)
    if float(np.abs(residual).max()) > tol:
        u = u + _solve_spd(A, residual)
        residual = ones - A.matvec(u)
    if np.any(u <= 0.0):
        raise NonPositiveLandscapeError("landscape not positive")
    au = A.matvec(u)
    return LandscapeData(u=u, vbar=au / u, residual_inf=float(np.abs(ones - au).max()))


def landscape_from_vector(A: SparseSymMatrix, u) -> LandscapeData:
    """Wrap a user-supplied strictly positive u; vbar is recomputed from A."""
    u = np.array(u, dtype=float)
    if u.shape != (A.n,):
        raise ValueError(f"u must have length {A.n}, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite")
    if np.any(u <= 0.0):
        raise NonPositiveLandscapeError("landscape not positive")
    au = A.matvec(u)
    residual = float(np.abs(1.0 - au).max())
    return LandscapeData(u=u, vbar=au / u, residual_inf=residual)


def _shift(vbar: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """v = (vbar - threshold)_+ and the well mask vbar <= threshold."""
    return np.maximum(vbar - threshold, 0.0), vbar <= threshold


def shift_potential(L, threshold: float) -> ShiftedPotential:
    """Shifted potential v = (vbar - threshold)_+ and wells {i : vbar_i <= threshold}.

    ``L`` may be a LandscapeData (its vbar is used) or a bare potential vector
    of length n.
    """
    vbar = L.vbar if isinstance(L, LandscapeData) else np.asarray(L, dtype=float)
    threshold = float(threshold)
    v, in_wells = _shift(vbar, threshold)
    wells = frozenset((np.flatnonzero(in_wells) + 1).tolist())
    return ShiftedPotential(threshold=threshold, v=v, wells=wells)


def write_landscape_csv(path, L: LandscapeData, sp: ShiftedPotential) -> None:
    """Per-index CSV with fixed header index,u,vbar,v,in_well (1-based indices)."""
    n = L.u.size
    in_well = _index_mask(n, sp.wells).astype(np.int64)
    header = ["index", "u", "vbar", "v", "in_well"]
    _write_csv(path, header, np.arange(1, n + 1), L.u, L.vbar, sp.v, in_well)

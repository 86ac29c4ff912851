"""Landscape solves and effective potentials.

The landscape vector u solves A u = 1 (componentwise ones).  Every verifier
uses the effective potential ``vbar = (A u) / u`` of the recovered u: the
paper's Z-matrix theorem holds exactly for the ratio potential of whatever
positive u is used, while ``1 / u`` equals vbar only when the solve is exact.

The solve is a banded Cholesky factorization (``scipy.linalg.solveh_banded``)
of the band storage ``matrices._upper_band`` builds, the same storage the tail
repair in ``spectral`` factors with its own driver.
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
    _upper_band,
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
    """Landscape u (finite, > 0), potential vbar = (A u)/u of equal length, solve residual."""

    u: np.ndarray
    vbar: np.ndarray
    residual_inf: float

    def __post_init__(self):
        if self.u.shape != self.vbar.shape:
            raise ValueError(f"u and vbar lengths differ: {self.u.shape} vs {self.vbar.shape}")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("u must be finite")
        if np.any(self.u <= 0.0):
            raise NonPositiveLandscapeError("landscape not positive")
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


def _solve_spd(A: SparseSymMatrix, rhs: np.ndarray) -> np.ndarray:
    """Banded Cholesky solve at the matrix's own bandwidth."""
    band = _upper_band(A, np.ones((1, A.n), dtype=bool), np.zeros(1))
    try:
        return scipy.linalg.solveh_banded(band, rhs, lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("not positive definite") from exc


def _residual_tolerance(A: SparseSymMatrix) -> float:
    """The bound 1e-10 * max(1, max |a_ij|) on |1 - A u|_inf that a landscape solve must meet."""
    return 1e-10 * max(1.0, A.max_abs_entry())


def _require_landscape_of(A: SparseSymMatrix, L: LandscapeData) -> None:
    """ValueError unless the landscape ``L`` has one entry per index of A."""
    if L.u.size != A.n:
        raise ValueError(f"landscape has length {L.u.size}, matrix has n = {A.n}")


def solve_landscape(A: SparseSymMatrix) -> LandscapeData:
    """Solve A u = 1 for a positive definite A and derive the potential.

    One pass of iterative refinement is applied if the residual exceeds
    ``_residual_tolerance(A)``.  A non-positive component of u is an error
    (raised by ``LandscapeData``): the landscape of an M-matrix is strictly
    positive, so a sign flip means the input is outside the supported class.
    """
    ones = np.ones(A.n, dtype=float)
    u = _solve_spd(A, ones)
    residual = ones - A.matvec(u)
    if float(np.abs(residual).max()) > _residual_tolerance(A):
        u = u + _solve_spd(A, residual)
    return landscape_from_vector(A, u)


def landscape_from_vector(A: SparseSymMatrix, u) -> LandscapeData:
    """Wrap a strictly positive u of length n; vbar and the residual are computed from A."""
    u = np.array(u, dtype=float)
    au = A.matvec(u)
    with np.errstate(divide="ignore", invalid="ignore"):  # such a u is rejected below
        vbar = au / u
    return LandscapeData(u=u, vbar=vbar, residual_inf=float(np.abs(1.0 - au).max()))


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
    if np.isnan(threshold):  # +-inf are fine: no wells, or every site a well
        raise ValueError("thresholds must not be NaN")
    v, in_wells = _shift(vbar, threshold)
    wells = frozenset((np.flatnonzero(in_wells) + 1).tolist())
    return ShiftedPotential(threshold=threshold, v=v, wells=wells)


def write_landscape_csv(path, L: LandscapeData, sp: ShiftedPotential) -> None:
    """Per-index CSV with fixed header index,u,vbar,v,in_well (1-based indices)."""
    n = L.u.size
    in_well = _index_mask(n, sp.wells).astype(np.int64)
    header = ["index", "u", "vbar", "v", "in_well"]
    _write_csv(path, header, np.arange(1, n + 1), L.u, L.vbar, sp.v, in_well)

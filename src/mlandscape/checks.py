"""Numerical verifiers for the localization and decoupling inequalities.

Conventions shared by every check here:

* ``W_c`` is always max(connectivity(A), 2); every bound is monotone in W_c,
  so flooring at 2 keeps the inequalities valid for near-diagonal matrices.
* Exponentially weighted sums are evaluated in log space, each term as
  exp(2 alpha rho_k + 2 ln |phi_k|), and terms with phi_k == 0 (or with a
  vanishing potential factor) are skipped before exponentiating.  That makes
  0 * inf contribute 0, which is the exact value of those terms.
* Both localization checks and the corollary take one eigenpair or a whole
  family of them and evaluate it as array passes over blocks of pairs of at
  most ``matrices.BLOCK_ENTRIES`` entries in all; the terms of a block are
  formed once, and the one-pair forms are the batch of one.  A localization
  pair reads its row of a ``threshold_fields`` sweep as stored: phi, v and
  the distance at the row's non-sources in ascending order (every other
  site is a well, where v = 0 and the term vanishes).  The corollary stacks
  its block's vectors and weights as rows.  A batch gives the bits of its
  pairs checked one at a time because each pair is summed in ``np.sum``'s
  pairwise order over its own C-contiguous row or slice of terms (never
  padded or reduced across rows), and |phi|^2 is taken on the caller's own
  vector.  The decoupling checks take a sequence of eigen indices too and
  loop over it.
* Inequalities carry a relative slack of 1e-9 (``REL_SLACK``) to absorb
  floating-point noise; a failure beyond the slack means the claimed
  inequality genuinely fails for the computed quantities.
* Both localization checks return a ``LocalizationReports``, the batch's
  nine report fields as columns; a one-pair form returns its only row.
* A check returns its verdict and never raises on a violated relation; each
  family's rule is the one expression where its report is built:
  localization ``_reports`` (column operations in the order of the one-pair
  rule, so each entry has that pair's bits), identities ``_agree`` (plus the
  Z-matrix sign bound in ``check_commutator_identity``), corollary
  ``check_dc_corollary``, decoupling ``_decoupling`` and its spectral step
  ``_spectral_step_holds``, counting ``check_counting``.
  ``experiment._family`` turns the verdicts into one summary entry per
  family; the landscape residual is compared there against
  ``landscape._residual_tolerance``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .agmon import ThresholdFields, build_metric, distance_from_set, threshold_fields
from .landscape import LandscapeData, _require_landscape_of, shift_potential
from .matrices import (
    SparseSymMatrix,
    _blocks,
    _index_mask,
    _indices,
    _ReportColumns,
    _write_csv,
    classify,
    connectivity,
    restrict,
)
from .partition import WellPartition
from .spectral import (
    EigenDecomposition,
    LocalEigenData,
    counting_global,
    counting_local,
    global_projector,
    local_projector,
    project,
)

__all__ = [
    "EmptyWellSetError",
    "LocalizationReport",
    "LocalizationReports",
    "DecouplingReport",
    "CountingReport",
    "ScatterData",
    "check_landscape_localization",
    "check_general_localization",
    "check_commutator_identity",
    "check_double_commutator_lemma",
    "check_dc_corollary",
    "check_decoupling_local",
    "check_decoupling_global",
    "check_counting",
    "agmon_scatter",
    "write_scatter_csv",
]

REL_SLACK = 1e-9

# Floor for the decoupling defect test: a computed defect below this is
# numerically indistinguishable from zero (it is N * eps^2 round-off), and the
# decoupling bound itself can be exactly 0 when boundaries are empty.
DEFECT_ABS_SLACK = 1e-20
# Floor for the spectral step of a decoupling report (``_spectral_step_holds``),
# scaled by delta^2 past delta = 1 like the side it is subtracted from.
RESIDUAL_ABS_SLACK = 1e-25
# Points of the counting check's mu grid, from below the lowest eigenvalue up to ebar.
_COUNTING_GRID_POINTS = 50


class EmptyWellSetError(ValueError):
    """The relative well set of a localization check is empty."""


@dataclass(frozen=True, eq=False)
class LocalizationReport:
    """One evaluated localization inequality.

    ``lhs_first`` is the eigenvalue-gap line, ``lhs_second`` the weighted
    potential line; ``holds`` compares their sum against ``rhs`` with relative
    slack; ``max_margin`` is rhs - (lhs_first + lhs_second).
    """

    eigen_id: int | None
    E: float
    threshold: float
    alpha: float
    lhs_first: float
    lhs_second: float
    rhs: float
    holds: bool
    max_margin: float


@dataclass(frozen=True, eq=False)
class LocalizationReports(_ReportColumns):
    """Localization reports of a batch of pairs, each field a column in pair order.

    ``eigen_id`` is int64 (or, for a one-pair check, an object column of the
    caller's label, None included), ``holds`` bool and every other column
    float64.  ``record[i]`` is pair i's ``LocalizationReport``.
    """

    row_type = LocalizationReport

    eigen_id: np.ndarray
    E: np.ndarray
    threshold: np.ndarray
    alpha: np.ndarray
    lhs_first: np.ndarray
    lhs_second: np.ndarray
    rhs: np.ndarray
    holds: np.ndarray
    max_margin: np.ndarray


@dataclass(frozen=True, eq=False)
class DecouplingReport:
    """One evaluated spectral decoupling inequality (either direction)."""

    direction: str
    eigen_id: int
    region_id: int | None
    eigen_value: float
    delta: float
    s_used: float
    residual_norm_sq: float
    defect_sq: float
    bound: float
    holds: bool


def _spectral_step_holds(r: DecouplingReport) -> bool:
    """The residual of a decoupling report dominates delta^2 times its defect, up to round-off."""
    scale = r.delta**2
    return r.residual_norm_sq >= scale * r.defect_sq - RESIDUAL_ABS_SLACK * max(1.0, scale)


@dataclass(frozen=True, eq=False)
class CountingReport:
    """Two-sided eigenvalue counting comparison on a grid of thresholds.

    Inequality 1: min(nbar, N0(mu - delta)) <= N(mu) for every grid mu;
    inequality 2: min(nbar, N(mu - delta)) <= N0(mu).
    """

    mu_grid: np.ndarray
    delta: float
    nbar: int
    lhs_from_local: np.ndarray
    rhs_global: np.ndarray
    lhs_from_global: np.ndarray
    rhs_local: np.ndarray
    all_hold: bool


@dataclass(frozen=True, eq=False)
class ScatterData:
    """Decay-versus-distance scatter for one eigenvector.

    ``points`` holds (rho(i, i_max), -ln |psi_i|) for indices above the floor
    with finite distance; the fitted slope and Pearson correlation are plain
    least squares on those points.
    """

    eigen_id: int
    i_max: int
    floor: float
    points: np.ndarray
    fitted_slope: float
    pearson_r: float


def _wc(A: SparseSymMatrix) -> int:
    return max(connectivity(A), 2)


def _weighted_terms(P: np.ndarray, V: np.ndarray, R: np.ndarray, alpha: float, lengths):
    """(P_k^2 e^{2 alpha R_k}, the same terms times V_k, each row's (start, stop) in both).

    P, V and R are rows of entries laid end to end, row i of ``lengths[i]``
    entries.  Only the k with P_k != 0 and V_k != 0 give a term; the others
    are exactly zero and are skipped before any exponential is formed (the
    0 * inf convention).  V vanishes exactly on the wells, so the first
    terms are those of phi off the wells.  The terms of a block are formed
    once, in row order.
    """
    keep = (P != 0.0) & (V != 0.0)
    with np.errstate(over="ignore", divide="ignore"):
        terms = np.exp(2.0 * alpha * R[keep] + 2.0 * np.log(np.abs(P[keep])))
    ends = np.concatenate([[0], np.cumsum(keep)])[np.cumsum(lengths)].tolist()
    return terms, terms * V[keep], list(zip([0] + ends[:-1], ends))


def _row_sums(terms: np.ndarray, bounds) -> list:
    """Each row's sum by ``np.sum`` over its own slice: the pairwise summation of that row alone."""
    add = np.add.reduce  # what np.sum runs on a 1-D array, without its dispatch
    return [float(add(terms[start:stop])) for start, stop in bounds]


def _sweep(
    A: SparseSymMatrix, L, thresholds, fields: ThresholdFields | None, excluded=()
) -> ThresholdFields:
    """The sweep the fields of L.vbar at ``thresholds`` are read from.

    That is ``fields``, a ``threshold_fields`` sweep of A and L.vbar that
    excludes nothing, or else a sweep of its own over ``thresholds``.
    """
    _require_landscape_of(A, L)
    if fields is None:
        return threshold_fields(A, L.vbar, thresholds, excluded)
    if fields.matrix is not A or fields.vbar is not L.vbar:
        raise ValueError("fields were swept for another matrix or landscape")
    return fields


def _decoupling_coefficient(wc: int, a_max: float, delta: float) -> float:
    """W_c^2 max|a|^3 / delta^3, the factor of the decoupling bound and of nbar.

    +inf where delta^3 overflows or underflows to 0 (or max|a|^3 overflows).
    """
    try:
        return (wc * wc / delta**3) * a_max**3
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _checked_alpha(alpha, wc: int) -> float:
    """alpha as a float, sqrt(1 / W_c) when it is None; ValueError outside (0, sqrt(2 / W_c)]."""
    alpha = math.sqrt(1.0 / wc) if alpha is None else float(alpha)
    if not (0.0 < alpha <= math.sqrt(2.0 / wc) * (1.0 + 1e-12)):
        raise ValueError(f"alpha must lie in (0, sqrt(2/W_c)], got {alpha}")
    return alpha


def _checked_floor(floor) -> float:
    """The scatter amplitude floor; ValueError unless it is positive and finite."""
    if not (0.0 < float(floor) < math.inf):
        raise ValueError(f"scatter floor must be positive and finite, got {floor}")
    return float(floor)


def _eigen_ids(j, count: int) -> np.ndarray:
    """j as 1-based eigen indices (int64); ValueError unless each is an integer in [1, count]."""
    return _indices(j, count, "eigen index", "columns")


def _reports(eigen_id, E, ebar, alpha, lhs_first, lhs_second, rhs) -> LocalizationReports:
    """The reports of columns of pairs: lhs_first + lhs_second against rhs with relative slack.

    Scalars are broadcast to columns, and no column is the caller's array.
    Each entry is the float operation of the one-pair rule on that pair's
    entries, so it has the rule's bits.
    """
    E = np.array(E, dtype=float)
    column = lambda x: np.broadcast_to(np.array(x, dtype=float), E.shape)  # noqa: E731
    alpha, lhs_first, lhs_second, rhs = map(column, (alpha, lhs_first, lhs_second, rhs))
    with np.errstate(all="ignore"):  # inf - inf gives NaN, as on floats
        lhs = lhs_first + lhs_second
        holds = lhs <= rhs * (1.0 + REL_SLACK)
        margin = rhs - lhs
    return LocalizationReports(
        eigen_id, E, column(ebar), alpha, lhs_first, lhs_second, rhs, holds, margin
    )


def check_landscape_localization(
    A: SparseSymMatrix,
    L: LandscapeData,
    ed: EigenDecomposition,
    j: int | Sequence[int],
    *,
    fields: ThresholdFields | None = None,
) -> LocalizationReport | LocalizationReports:
    """Landscape localization bound for the j-th eigenpair (1-based).

    Uses the effective potential vbar = (A u)/u, its wells at threshold
    E = lambda_j, and the weight exp(2 rho(k, wells) / sqrt(W_c)); the bound
    is W_c * max |a_ij| over all entries.  ``fields``, a ``threshold_fields``
    sweep of A and L.vbar with no excluded set that holds E, supplies the
    distances, so checks sharing it run no Dijkstra of their own.

    ``j`` may also be a sequence of eigen indices: the reports come back as
    ``LocalizationReports`` in that order, evaluated in blocks of eigenpairs
    (``BLOCK_ENTRIES``); one index gives the report itself.
    """
    if not classify(A, compute_spectrum=False).is_z:
        raise ValueError("matrix is not a Z-matrix")
    ids = np.atleast_1d(_eigen_ids(j, ed.n))
    wc = _wc(A)
    alpha = _checked_alpha(None, wc)
    rhs = wc * A.max_abs_entry()
    E = ed.values[ids - 1]
    sweep = _sweep(A, L, E, fields)
    second = []
    for b in _blocks(ids.size, A.n):
        lengths, sites, v, rho = sweep.slices(sweep.index(E[b]))
        P = ed.vectors[sites, np.repeat(ids[b] - 1, lengths)]
        _, weighted, bounds = _weighted_terms(P, v, rho, alpha, lengths)
        second += _row_sums(weighted, bounds)
    reports = _reports(ids, E, E, alpha, 0.0, second, rhs)
    return reports if np.ndim(j) else reports[0]


def check_general_localization(
    A: SparseSymMatrix,
    L: LandscapeData,
    phi,
    E: float | Sequence[float],
    ebar: float | Sequence[float],
    D,
    alpha: float | None,
    *,
    eigen_id: int | Sequence[int] | None = None,
    fields: ThresholdFields | None = None,
) -> LocalizationReport | LocalizationReports:
    """Two-line localization bound for a (local) eigenvector phi of eigenvalue E.

    Works for any symmetric Z-matrix and landscape ``L`` of it (any positive u
    via ``landscape_from_vector``); wells of L.vbar are taken at ebar,
    distances are measured to wells minus the excluded set D (1-based indices
    in [1, n]), and phi must vanish on D and satisfy the local eigen relation
    on its complement (the caller's duty).
    Requires finite E <= ebar and 0 < alpha <= sqrt(2 / W_c) (None gives
    sqrt(1 / W_c), the rate of the landscape bound), and phi finite of
    length n.  ``fields`` is shared as in ``check_landscape_localization``
    (holding ebar) and is only read when D is empty.

    Batch form: with ``ebar`` a sequence, phi is an n x k matrix of column
    vectors and ``E`` and ``eigen_id`` are sequences of ebar's length; pair i
    checks column eigen_id[i] (1-based) of phi with E[i] and ebar[i].  The
    reports come back as ``LocalizationReports`` in pair order, evaluated in
    blocks of pairs (``BLOCK_ENTRIES``); D and alpha are shared.
    """
    batch = bool(np.ndim(ebar))
    if batch:
        phi = np.asarray(phi, dtype=float)
        if phi.ndim != 2 or phi.shape[0] != A.n:
            raise ValueError(f"phi must be an n x k matrix with n = {A.n}, got shape {phi.shape}")
        if not (np.ndim(E) == np.ndim(eigen_id) == 1 and len(E) == len(eigen_id) == len(ebar)):
            raise ValueError("E, ebar and eigen_id must be sequences of one length")
        cols = _eigen_ids(eigen_id, phi.shape[1]) - 1
        labels = cols + 1
    else:
        phi = _finite_vector(phi, A.n, "phi")[:, None]
        cols, labels = np.zeros(1, dtype=np.int64), np.empty(1, dtype=object)
        labels[0] = eigen_id
    E = np.atleast_1d(np.asarray(E, dtype=float))
    ebar = np.atleast_1d(np.asarray(ebar, dtype=float))
    if not classify(A, compute_spectrum=False).is_z:
        raise ValueError("matrix is not a Z-matrix")
    for name, x in (("E", E), ("ebar", ebar)):
        if not np.all(np.isfinite(x)):
            raise ValueError(f"{name} must be finite, got {float(x[~np.isfinite(x)][0])}")
    over = E > ebar
    if over.any():
        raise ValueError(
            f"eigenvalue E = {float(E[over][0])} exceeds threshold ebar = {float(ebar[over][0])}"
        )
    wc = _wc(A)
    alpha = _checked_alpha(alpha, wc)
    in_excluded = _index_mask(A.n, D)
    memo = None if in_excluded.any() else fields  # it holds distances to whole well sets
    sweep = _sweep(A, L, ebar, memo, np.flatnonzero(in_excluded) + 1)
    # site k is a relative well (a well outside D) at row j when copies[k] <= j,
    # so a pair crosses the relative wells' boundary at the rows in [in_lo, in_hi)
    off_i, off_j, off_v = A.off_arrays()
    c_i, c_j = sweep.copies[off_i - 1], sweep.copies[off_j - 1]
    crossing = c_i != c_j
    in_lo, in_hi = np.minimum(c_i, c_j)[crossing], np.maximum(c_i, c_j)[crossing]
    a_off = np.abs(off_v[crossing])
    first_well = int(sweep.copies.min())
    c_second = 1.0 - alpha * alpha * wc / 2.0
    s_first, s_second, norm_sq, a_cross = [], [], [], []
    for b in _blocks(cols.size, A.n):
        j = sweep.index(ebar[b])
        if (j < first_well).any():
            raise EmptyWellSetError("empty relative well set")
        if not np.isfinite(phi[:, cols[b]]).all():
            raise ValueError("phi must be finite")
        at = j[:, None]
        crosses = (in_lo <= at) & (at < in_hi)
        a_cross.append(np.where(crosses, a_off, 0.0).max(axis=1, initial=0.0))
        lengths, sites, v, rho = sweep.slices(j)
        P = phi[sites, np.repeat(cols[b], lengths)]
        terms, weighted, bounds = _weighted_terms(P, v, rho, alpha, lengths)
        s_first += _row_sums(terms, bounds)
        s_second += _row_sums(weighted, bounds)
        norm_sq += [phi[:, c] @ phi[:, c] for c in cols[b].tolist()]  # each on its own column
    with np.errstate(all="ignore"):  # overflow gives inf and 0 * inf NaN, as on floats
        first = (ebar - E) * np.array(s_first, dtype=float)
        second = c_second * np.array(s_second, dtype=float)
        rhs = (wc / 2.0) * np.array(norm_sq, dtype=float) * np.concatenate([[]] + a_cross)
    reports = _reports(labels, E, ebar, alpha, first, second, rhs)
    return reports if batch else reports[0]


def _finite_vector(x, n: int, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


def _commutator_slots(rows, cols, c: np.ndarray, dvec: np.ndarray) -> np.ndarray:
    """Slot values of [C, D] = C D - D C (D = diag(dvec)) from those of C.

    A product with a diagonal matrix has one non-zero term per entry, so each
    slot is exactly the entry a dense product would give.
    """
    return c * dvec[cols] - dvec[rows] * c


def _slot_apply(rows, cols, c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """C x for the operator with slot values c, summed row by row in slot order."""
    return np.bincount(rows, weights=c * x[cols], minlength=x.size)


def _quad_double_commutator(A: SparseSymMatrix, dvec: np.ndarray, x: np.ndarray) -> float:
    """<[[A, D], D] x, x> by operator algebra on the CSR slots of A (D = diag(dvec))."""
    rows, cols = A.pattern.rows, A.pattern.indices
    c1 = _commutator_slots(rows, cols, A.slot_values(), dvec)
    c2 = _commutator_slots(rows, cols, c1, dvec)
    return float(x @ _slot_apply(rows, cols, c2, x))


def _agree(left: float, right: float) -> bool:
    """The two routes to an identity agree to 1e-10 relative; a NaN difference counts for them."""
    return not abs(left - right) > 1e-10 * (1.0 + abs(left))


def check_commutator_identity(A: SparseSymMatrix, d, u) -> tuple[float, float, bool]:
    """Double-commutator quadratic form versus its entrywise expansion.

    Evaluates <[[A, D], D] u, u> by operator algebra, forming both commutators
    entry by entry on the CSR slots of A (``A.pattern``), and independently as
    sum over i != j of a_ij u_i u_j (d_i - d_j)^2 over the stored pairs; the
    two routes must agree to 1e-10 relative.  For a Z-matrix and a
    constant-sign u the common value must additionally be <= 0 (within 1e-12).
    Returns (lhs, rhs, holds).  ``d`` and ``u`` must be finite and of length
    n (ValueError otherwise).
    """
    d = _finite_vector(d, A.n, "d")
    u = _finite_vector(u, A.n, "u")
    lhs = _quad_double_commutator(A, d, u)
    off_i, off_j, off_v = A.off_arrays()
    ii = off_i - 1
    jj = off_j - 1
    rhs = 2.0 * float(np.sum(off_v * u[ii] * u[jj] * (d[ii] - d[jj]) ** 2))
    is_z = classify(A, compute_spectrum=False).is_z
    constant_sign = bool(np.all(u >= 0.0) or np.all(u <= 0.0))
    return lhs, rhs, _agree(lhs, rhs) and not (is_z and constant_sign and lhs > 1e-12)


def check_double_commutator_lemma(A: SparseSymMatrix, psi_diag, g, u) -> tuple[float, float, bool]:
    """Commutator splitting identity for diagonal Psi and G.

    <G [Psi, A] u, G Psi u> must equal
    1/2 <[[A, G Psi], G Psi] u, u> - 1/2 <[[A, G], G] Psi u, Psi u>
    to 1e-10 relative; returns (left, right, holds).  Each commutator is formed
    entry by entry on the CSR slots of A, as in ``check_commutator_identity``.
    ``psi_diag``, ``g`` and ``u`` must be finite and of length n (ValueError
    otherwise).
    """
    psi_diag = _finite_vector(psi_diag, A.n, "psi_diag")
    g = _finite_vector(g, A.n, "g")
    u = _finite_vector(u, A.n, "u")
    rows, cols, a = A.pattern.rows, A.pattern.indices, A.slot_values()
    commutator = psi_diag[rows] * a - a * psi_diag[cols]
    left = float((g * _slot_apply(rows, cols, commutator, u)) @ (g * (psi_diag * u)))
    right = 0.5 * _quad_double_commutator(A, g * psi_diag, u) - 0.5 * _quad_double_commutator(
        A, g, psi_diag * u
    )
    return left, right, _agree(left, right)


def _corollary_blocks(A: SparseSymMatrix, count: int) -> Iterator[slice]:
    """The blocks ``check_dc_corollary`` evaluates ``count`` pairs in.

    A row of a block spans the n sites and the stored pairs of A, so a block
    has at most BLOCK_ENTRIES // max(n, pairs) rows.
    """
    return _blocks(count, max(A.n, A.off_count))


def check_dc_corollary(
    A: SparseSymMatrix, L, phi, E: float | Sequence[float], g
) -> tuple[float, float, bool] | list[tuple[float, float, bool]]:
    """Weighted eigenvalue bound from the double-commutator argument.

    For a Z-matrix A, a landscape ``L`` of it, a (local) eigenvector phi of
    eigenvalue E, and a diagonal weight G:  sum of phi_k^2 G_k^2 (vbar_k - E)
    must not exceed -1/2 sum over i != j of a_ij phi_i phi_j (G_i - G_j)^2.
    Returns (lhs, rhs, holds); the slack uses |rhs| so a negative right side
    is not tightened.  ``phi`` and ``g`` must be finite and of length n, and
    E finite (ValueError otherwise).

    Batch form: with ``E`` a sequence of k eigenvalues, phi is an n x k matrix
    and g a k x n matrix; pair i checks column i of phi with E[i] and row i of
    g.  The triples come back as a list in pair order, evaluated in blocks of
    pairs (``_corollary_blocks``).  Each block is stacked as C-contiguous
    rows and each row summed on its own, so a batch gives the bits of its
    pairs checked one at a time.
    """
    batch = bool(np.ndim(E))
    if batch:
        E = np.asarray(E, dtype=float)
        if E.ndim != 1:
            raise ValueError(f"E must be a number or a sequence of them, got shape {E.shape}")
        phi = np.asarray(phi, dtype=float)
        g = np.asarray(g, dtype=float)
        for name, x, shape in (("phi", phi, (A.n, E.size)), ("g", g, (E.size, A.n))):
            if x.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {x.shape}")
            if not np.all(np.isfinite(x)):
                raise ValueError(f"{name} must be finite")
    else:
        phi = _finite_vector(phi, A.n, "phi")[:, None]
        g = _finite_vector(g, A.n, "g")[None, :]
        E = np.array([float(E)])
    if not classify(A, compute_spectrum=False).is_z:
        raise ValueError("matrix is not a Z-matrix")
    _require_landscape_of(A, L)
    if not np.all(np.isfinite(E)):
        raise ValueError(f"E must be finite, got {float(E[~np.isfinite(E)][0])}")
    off_i, off_j, off_v = A.off_arrays()
    ii = off_i - 1
    jj = off_j - 1
    out = []
    for b in _corollary_blocks(A, E.size):
        P = np.ascontiguousarray(phi[:, b].T)
        G = np.ascontiguousarray(g[b])
        lhs = np.add.reduce(P * P * G * G * (L.vbar - E[b, None]), axis=1)
        dG = np.take(G, ii, axis=1) - np.take(G, jj, axis=1)
        terms = off_v * np.take(P, ii, axis=1) * np.take(P, jj, axis=1) * dG**2
        rhs = -np.add.reduce(terms, axis=1)
        for l, r in zip(lhs.tolist(), rhs.tolist()):
            out.append((l, r, l <= r + REL_SLACK * abs(r) + 1e-12))
    return out if batch else out[0]


def _decoupling(A, part, direction, region_id, values, vectors, j, delta, ebar, window, residual):
    """Both decoupling directions; ``window`` and ``residual`` are each direction's own.

    ``j`` is one 1-based eigen index or a sequence of them; a sequence gives
    the list of reports in its order.
    """
    if not part.axioms_hold:
        raise ValueError("partition axioms unverified")
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    ids = np.atleast_1d(_eigen_ids(j, len(values)))
    cut = float(ebar) - delta
    over = values[ids - 1] > cut
    if over.any():
        kind = "eigenvalue" if region_id is None else "local eigenvalue"
        raise ValueError(f"{kind} {float(values[ids[over][0] - 1])} exceeds ebar - delta = {cut}")
    wc, s = _wc(A), part.s_achieved
    decay = 0.0 if math.isinf(s) else math.exp(-2.0 * s / math.sqrt(wc))
    coeff = _decoupling_coefficient(wc, A.max_abs_entry(), delta) * decay
    reports = []
    for k in ids.tolist():
        value = float(values[k - 1])
        vec = vectors[:, k - 1]
        defect = vec - project(window(value, delta), vec)
        defect_sq = float(defect @ defect)
        bound = coeff * float(vec @ vec)
        res = residual(vec, value)
        reports.append(
            DecouplingReport(
                direction=direction,
                eigen_id=k,
                region_id=region_id,
                eigen_value=value,
                delta=delta,
                s_used=s,
                residual_norm_sq=float(res @ res),
                defect_sq=defect_sq,
                bound=bound,
                holds=defect_sq <= bound * (1.0 + REL_SLACK) + DEFECT_ABS_SLACK,
            )
        )
    return reports if np.ndim(j) else reports[0]


def check_decoupling_local(
    A: SparseSymMatrix,
    part: WellPartition,
    local: LocalEigenData,
    ed: EigenDecomposition,
    j: int | Sequence[int],
    delta: float,
    ebar: float,
) -> DecouplingReport | list[DecouplingReport]:
    """A local eigenvector is nearly a global spectral-window vector.

    For local eigenpair (mu, phi) of a verified partition with mu <= ebar -
    delta, the defect |phi - Psi phi|^2 (Psi the projector onto the global
    eigenvectors with |lambda - mu| < delta) is bounded by (W_c^2/delta^3)
    max|a|^3 e^{-2 S / sqrt(W_c)} |phi|^2 with S the achieved separation.
    The residual |A phi - mu phi|^2 is recorded: it always dominates delta^2
    times the defect.  A sequence ``j`` gives the list of reports in its
    order.
    """
    return _decoupling(
        A, part, "local_to_global", local.region_id, local.values, local.vectors, j, delta, ebar,
        window=lambda center, radius: global_projector(ed, center, radius),
        residual=lambda phi, mu: A.matvec(phi) - mu * phi,
    )


def check_decoupling_global(
    A: SparseSymMatrix,
    part: WellPartition,
    ed: EigenDecomposition,
    locals_: list[LocalEigenData],
    j: int | Sequence[int],
    delta: float,
    ebar: float,
) -> DecouplingReport | list[DecouplingReport]:
    """A global eigenvector is nearly a local spectral-window vector.

    Mirror direction: for global eigenpair (lambda, psi) with lambda <= ebar -
    delta, the defect against the projector onto the local eigenvectors of
    every region with |mu - lambda| < delta obeys the same bound.  The
    recorded residual is the summed block residual
    |sum_l (A|_l - lambda) psi|_l|^2.  A sequence ``j`` gives the list of
    reports in its order; each call restricts A to every region once.
    """
    restricted = [(_index_mask(A.n, region), restrict(A, region)) for region in part.regions]

    def block_residual(psi, lam):
        residual = np.zeros(A.n, dtype=float)
        for inside, blocked in restricted:
            chunk = np.where(inside, psi, 0.0)
            residual += blocked.matvec(chunk) - lam * chunk
        return residual

    return _decoupling(
        A, part, "global_to_local", None, ed.values, ed.vectors, j, delta, ebar,
        window=lambda center, radius: local_projector(locals_, center, radius),
        residual=block_residual,
    )


def check_counting(
    ed: EigenDecomposition,
    locals_: list[LocalEigenData],
    delta: float,
    ebar: float,
    s: float,
    wc: int,
    a_max: float,
) -> CountingReport:
    """Two-sided counting-function comparison below a threshold.

    nbar is the largest integer with (W_c^2/delta^3) a_max^3 nbar <
    e^{2 S / sqrt(W_c)} (capped at the matrix order; 0 allowed), in log space
    where the ratio of the two sides leaves float range.  On a grid of
    ``_COUNTING_GRID_POINTS`` mu values up to ebar, min(nbar, N0(mu - delta))
    <= N(mu) and min(nbar, N(mu - delta)) <= N0(mu) must both hold.
    """
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    n = ed.n
    coeff = _decoupling_coefficient(wc, a_max, delta)
    if math.isinf(s):
        nbar = n
    else:
        x = 2.0 * s / math.sqrt(wc)
        try:
            threshold = math.exp(x)
            nbar = int(math.floor(threshold / coeff))
        except OverflowError:  # e^x or e^x / coeff past float range
            log_ratio = x - math.log(coeff)
            nbar = n if log_ratio > math.log(n + 1) else math.ceil(math.exp(log_ratio)) - 1
        else:
            if nbar * coeff >= threshold:
                nbar -= 1
        nbar = max(0, min(nbar, n))

    # an empty local spectrum contributes no eigenvalue
    local_lows = (loc.values.min() for loc in locals_ if loc.values.size)
    lo = float(min(ed.values.min(), min(local_lows, default=np.inf)))
    mu_grid = np.linspace(lo - delta, float(ebar), _COUNTING_GRID_POINTS)
    lhs_from_local = np.minimum(nbar, counting_local(locals_, mu_grid - delta))
    rhs_global = counting_global(ed, mu_grid)
    lhs_from_global = np.minimum(nbar, counting_global(ed, mu_grid - delta))
    rhs_local = counting_local(locals_, mu_grid)
    all_hold = bool(
        np.all(lhs_from_local <= rhs_global) and np.all(lhs_from_global <= rhs_local)
    )
    return CountingReport(
        mu_grid=mu_grid,
        delta=delta,
        nbar=nbar,
        lhs_from_local=lhs_from_local,
        rhs_global=rhs_global,
        lhs_from_global=lhs_from_global,
        rhs_local=rhs_local,
        all_hold=all_hold,
    )


def agmon_scatter(
    A: SparseSymMatrix,
    L: LandscapeData,
    ed: EigenDecomposition,
    j: int,
    *,
    floor: float = 1e-17,
) -> ScatterData:
    """Eigenvector decay against Agmon distance from its peak.

    Distances use the potential shifted at E = lambda_j; the source is the
    largest-|psi| index (ties to the lowest index).  Points keep indices with
    |psi_i| > floor and finite distance; slope and Pearson r come from
    ordinary least squares of -ln |psi_i| against rho.
    """
    floor = _checked_floor(floor)
    j = int(_eigen_ids(j, ed.n))
    E = float(ed.values[j - 1])
    psi = ed.vectors[:, j - 1]
    sp = shift_potential(L.vbar, E)
    metric = build_metric(A, sp)
    i_max = int(np.argmax(np.abs(psi))) + 1
    rho = distance_from_set(metric, [i_max]).dist
    mask = (np.abs(psi) > floor) & np.isfinite(rho)
    xs = rho[mask]
    ys = -np.log(np.abs(psi[mask]))
    points = np.column_stack([xs, ys])
    if xs.size >= 2 and float(np.ptp(xs)) > 0.0:
        slope = float(np.polyfit(xs, ys, 1)[0])
        r = float(np.corrcoef(xs, ys)[0, 1])
    else:
        slope = math.nan
        r = math.nan
    return ScatterData(
        eigen_id=j,
        i_max=i_max,
        floor=float(floor),
        points=points,
        fitted_slope=slope,
        pearson_r=r,
    )


def write_scatter_csv(path, sd: ScatterData) -> None:
    """CSV with header rho,neglog (one row per retained index)."""
    _write_csv(path, ["rho", "neglog"], sd.points[:, 0], sd.points[:, 1])

"""Numerical verifiers for the localization and decoupling inequalities.

Conventions shared by every check here:

* ``W_c`` is always max(connectivity(A), 2); every bound is monotone in W_c,
  so flooring at 2 keeps the inequalities valid for near-diagonal matrices.
* Exponentially weighted sums are evaluated in log space, term by term as
  exp(2 alpha rho_k + 2 ln |phi_k|), and terms with phi_k == 0 (or with a
  vanishing potential factor) are skipped before exponentiating.  That makes
  0 * inf contribute 0, which is the exact value of those terms.
* Inequalities carry a relative slack of 1e-9 to absorb floating-point noise;
  a failure beyond the slack means the claimed inequality genuinely fails for
  the computed quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .agmon import _dijkstra, build_metric, distance_from_set, edge_weights
from .landscape import LandscapeData, _shift, shift_potential
from .matrices import (
    NonPositiveLandscapeError,
    SparseSymMatrix,
    _index_mask,
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


def _log_weighted_sum(phi: np.ndarray, rho: np.ndarray, alpha: float, factor=None) -> float:
    """Sum of phi_k^2 exp(2 alpha rho_k) [* factor_k], in log space.

    Terms with phi_k == 0, or factor_k == 0, are exactly zero and skipped
    before any exponential is formed (the 0 * inf convention).
    """
    mask = phi != 0.0
    if factor is not None:
        mask &= factor != 0.0
    if not np.any(mask):
        return 0.0
    with np.errstate(over="ignore", divide="ignore"):
        exponents = 2.0 * alpha * rho[mask] + 2.0 * np.log(np.abs(phi[mask]))
        terms = np.exp(exponents)
    if factor is not None:
        terms = terms * factor[mask]
    return float(np.sum(terms))


def _field(A: SparseSymMatrix, vbar, threshold: float, fields=None, in_excluded=None) -> tuple:
    """(v, well mask, distances to the wells outside in_excluded) of vbar shifted at threshold.

    The distances are those of ``build_metric``'s metric, from one Dijkstra.
    ``fields`` memoizes the triple by threshold for checks of one matrix and
    one vbar that exclude nothing.
    """
    if fields is not None and threshold in fields:
        return fields[threshold]
    v, in_wells = _shift(vbar, threshold)
    in_source = in_wells if in_excluded is None else in_wells & ~in_excluded
    field = (v, in_wells, _dijkstra(A.pattern.values(edge_weights(A, v)), in_source))
    if fields is not None:
        fields[threshold] = field
    return field


def _checked_alpha(alpha, wc: int) -> float:
    alpha = float(alpha)
    if not (0.0 < alpha <= math.sqrt(2.0 / wc) * (1.0 + 1e-12)):
        raise ValueError(f"alpha must lie in (0, sqrt(2/W_c)], got {alpha}")
    return alpha


def _report(eigen_id, E, ebar, alpha, lhs_first, lhs_second, rhs) -> LocalizationReport:
    lhs = lhs_first + lhs_second
    holds = lhs <= rhs * (1.0 + REL_SLACK)
    return LocalizationReport(
        eigen_id, E, ebar, alpha, lhs_first, lhs_second, rhs, holds, max_margin=rhs - lhs
    )


def check_landscape_localization(
    A: SparseSymMatrix,
    L: LandscapeData,
    ed: EigenDecomposition,
    j: int,
    *,
    fields: dict | None = None,
) -> LocalizationReport:
    """Landscape localization bound for the j-th eigenpair (1-based).

    Uses the effective potential vbar = (A u)/u, its wells at threshold
    E = lambda_j, and the weight exp(2 rho(k, wells) / sqrt(W_c)); the bound
    is W_c * max |a_ij| over all entries.  A ``fields`` dict shared by checks
    of A and this landscape computes each threshold's distances once.
    """
    if not classify(A, compute_spectrum=False).is_z or np.any(L.u <= 0.0):
        raise ValueError("matrix is not an M-matrix with positive landscape")
    if not (1 <= j <= ed.n):
        raise ValueError(f"eigen index {j} outside [1, {ed.n}]")
    wc = _wc(A)
    alpha = 1.0 / math.sqrt(wc)
    E = float(ed.values[j - 1])
    v, _, rho = _field(A, L.vbar, E, fields)
    lhs = _log_weighted_sum(ed.vectors[:, j - 1], rho, alpha, factor=v)
    return _report(j, E, E, alpha, 0.0, lhs, wc * A.max_abs_entry())


def check_general_localization(
    A: SparseSymMatrix,
    u,
    phi,
    E: float,
    ebar: float,
    D,
    alpha: float,
    *,
    eigen_id: int | None = None,
    fields: dict | None = None,
) -> LocalizationReport:
    """Two-line localization bound for a (local) eigenvector phi of eigenvalue E.

    Works for any symmetric Z-matrix with a strictly positive u; the potential
    is vbar = (A u)/u, wells are taken at the threshold ebar, distances are
    measured to wells minus the excluded set D (1-based indices in [1, n]),
    and phi must vanish on D and satisfy the local eigen relation on its
    complement (the caller's duty).
    Requires E <= ebar and 0 < alpha <= sqrt(2 / W_c).  ``fields`` is shared
    as in ``check_landscape_localization`` and is only read when D is empty.
    """
    u = np.asarray(u, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not classify(A, compute_spectrum=False).is_z:
        raise ValueError("matrix is not a Z-matrix")
    if np.any(u <= 0.0):
        raise NonPositiveLandscapeError("landscape not positive")
    if E > ebar:
        raise ValueError(f"eigenvalue E = {E} exceeds threshold ebar = {ebar}")
    wc = _wc(A)
    alpha = _checked_alpha(alpha, wc)
    E, ebar = float(E), float(ebar)
    in_excluded = _index_mask(A.n, D)
    memo = None if in_excluded.any() else fields  # it holds distances to whole well sets
    v, in_wells, rho = _field(A, A.matvec(u) / u, ebar, memo, in_excluded)
    in_rel = in_wells & ~in_excluded
    if not np.any(in_rel):
        raise EmptyWellSetError("empty relative well set")

    phi_out = np.where(in_wells, 0.0, phi)
    lhs_first = (ebar - E) * _log_weighted_sum(phi_out, rho, alpha)
    lhs_second = (1.0 - alpha * alpha * wc / 2.0) * _log_weighted_sum(phi_out, rho, alpha, v)
    off_i, off_j, off_v = A.off_arrays()
    crossing = in_rel[off_i - 1] ^ in_rel[off_j - 1]
    a_cross = float(np.abs(off_v[crossing]).max()) if np.any(crossing) else 0.0
    rhs = (wc / 2.0) * float(phi @ phi) * a_cross
    return _report(eigen_id, E, ebar, alpha, lhs_first, lhs_second, rhs)


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


def check_commutator_identity(A: SparseSymMatrix, d, u) -> tuple[float, float, float]:
    """Double-commutator quadratic form versus its entrywise expansion.

    Evaluates <[[A, D], D] u, u> by operator algebra, forming both commutators
    entry by entry on the CSR slots of A (``A.pattern``), and independently as
    sum over i != j of a_ij u_i u_j (d_i - d_j)^2 over the stored pairs; the
    two routes must agree to 1e-10 relative.  For a Z-matrix and a
    constant-sign u the common value must additionally be <= 0 (within 1e-12).
    Returns (lhs, rhs, |lhs-rhs|).  ``d`` and ``u`` must be finite and of
    length n (ValueError otherwise).
    """
    d = _finite_vector(d, A.n, "d")
    u = _finite_vector(u, A.n, "u")
    lhs = _quad_double_commutator(A, d, u)
    off_i, off_j, off_v = A.off_arrays()
    ii = off_i - 1
    jj = off_j - 1
    rhs = 2.0 * float(np.sum(off_v * u[ii] * u[jj] * (d[ii] - d[jj]) ** 2))
    diff = abs(lhs - rhs)
    if diff > 1e-10 * (1.0 + abs(lhs)):
        raise ArithmeticError(
            f"double-commutator identity violated: lhs={lhs!r} rhs={rhs!r}"
        )
    is_z = classify(A, compute_spectrum=False).is_z
    constant_sign = bool(np.all(u >= 0.0) or np.all(u <= 0.0))
    if is_z and constant_sign and lhs > 1e-12:
        raise ArithmeticError(
            f"double-commutator form must be non-positive for a Z-matrix "
            f"with constant-sign u, got {lhs!r}"
        )
    return lhs, rhs, diff


def check_double_commutator_lemma(A: SparseSymMatrix, psi_diag, g, u) -> float:
    """Commutator splitting identity for diagonal Psi and G.

    <G [Psi, A] u, G Psi u> must equal
    1/2 <[[A, G Psi], G Psi] u, u> - 1/2 <[[A, G], G] Psi u, Psi u>
    to 1e-10 relative; returns |left - right|.  Every commutator is formed
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
    diff = abs(left - right)
    if diff > 1e-10 * (1.0 + abs(left)):
        raise ArithmeticError(
            f"commutator splitting identity violated: left={left!r} right={right!r}"
        )
    return diff


def check_dc_corollary(A: SparseSymMatrix, u, phi, E: float, g) -> tuple[float, float, bool]:
    """Weighted eigenvalue bound from the double-commutator argument.

    For a Z-matrix A, positive u, a (local) eigenvector phi of eigenvalue E,
    and a diagonal weight G:  sum of phi_k^2 G_k^2 (vbar_k - E) must not
    exceed -1/2 sum over i != j of a_ij phi_i phi_j (G_i - G_j)^2.
    Returns (lhs, rhs, holds); the slack uses |rhs| so a negative right side
    is not tightened.
    """
    u = np.asarray(u, dtype=float)
    phi = np.asarray(phi, dtype=float)
    g = np.asarray(g, dtype=float)
    if not classify(A, compute_spectrum=False).is_z:
        raise ValueError("matrix is not a Z-matrix")
    if np.any(u <= 0.0):
        raise NonPositiveLandscapeError("landscape not positive")
    vbar = A.matvec(u) / u
    lhs = float(np.sum(phi * phi * g * g * (vbar - float(E))))
    off_i, off_j, off_v = A.off_arrays()
    ii = off_i - 1
    jj = off_j - 1
    rhs = -float(np.sum(off_v * phi[ii] * phi[jj] * (g[ii] - g[jj]) ** 2))
    holds = lhs <= rhs + REL_SLACK * abs(rhs) + 1e-12
    return lhs, rhs, holds


def _decoupling_bound(wc: int, a_max: float, delta: float, s: float, norm_sq: float) -> float:
    decay = 0.0 if math.isinf(s) else math.exp(-2.0 * s / math.sqrt(wc))
    return (wc * wc / delta**3) * a_max**3 * decay * norm_sq


def _require_verified(part: WellPartition) -> None:
    if not part.axioms_hold:
        raise ValueError("partition axioms unverified")


def check_decoupling_local(
    A: SparseSymMatrix,
    part: WellPartition,
    local: LocalEigenData,
    ed: EigenDecomposition,
    j: int,
    delta: float,
    ebar: float,
) -> DecouplingReport:
    """A local eigenvector is nearly a global spectral-window vector.

    For local eigenpair (mu, phi) of a verified partition with mu <= ebar -
    delta, the defect |phi - Psi_(mu-delta, mu+delta) phi|^2 (global window
    projector) is bounded by (W_c^2/delta^3) max|a|^3 e^{-2 S / sqrt(W_c)}
    |phi|^2 with S the achieved separation.  The residual |A phi - mu phi|^2
    is recorded: it always dominates delta^2 times the defect.
    """
    _require_verified(part)
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    mu = float(local.values[j - 1])
    if mu > float(ebar) - delta:
        raise ValueError(f"local eigenvalue {mu} exceeds ebar - delta = {float(ebar) - delta}")
    phi = local.vectors[:, j - 1]
    window = global_projector(ed, mu - delta, mu + delta)
    defect = phi - project(window, phi)
    defect_sq = float(defect @ defect)
    wc = _wc(A)
    bound = _decoupling_bound(wc, A.max_abs_entry(), delta, part.s_achieved, float(phi @ phi))
    residual = A.matvec(phi) - mu * phi
    return DecouplingReport(
        direction="local_to_global",
        eigen_id=j,
        region_id=local.region_id,
        eigen_value=mu,
        delta=delta,
        s_used=part.s_achieved,
        residual_norm_sq=float(residual @ residual),
        defect_sq=defect_sq,
        bound=bound,
        holds=defect_sq <= bound * (1.0 + REL_SLACK) + DEFECT_ABS_SLACK,
    )


def check_decoupling_global(
    A: SparseSymMatrix,
    part: WellPartition,
    ed: EigenDecomposition,
    locals_: list[LocalEigenData],
    j: int,
    delta: float,
    ebar: float,
) -> DecouplingReport:
    """A global eigenvector is nearly a local spectral-window vector.

    Mirror direction: for global eigenpair (lambda, psi) with lambda <= ebar -
    delta, the defect against the window projector built from all local
    eigenvectors obeys the same bound.  The recorded residual is the summed
    block residual |sum_l (A|_l - lambda) psi|_l|^2.
    """
    _require_verified(part)
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    lam = float(ed.values[j - 1])
    if lam > float(ebar) - delta:
        raise ValueError(f"eigenvalue {lam} exceeds ebar - delta = {float(ebar) - delta}")
    psi = ed.vectors[:, j - 1]
    window = local_projector(locals_, lam - delta, lam + delta)
    defect = psi - project(window, psi)
    defect_sq = float(defect @ defect)
    wc = _wc(A)
    bound = _decoupling_bound(wc, A.max_abs_entry(), delta, part.s_achieved, float(psi @ psi))

    residual = np.zeros(A.n, dtype=float)
    for region in part.regions:
        pos = np.array(sorted(region), dtype=np.int64) - 1
        chunk = np.zeros(A.n, dtype=float)
        chunk[pos] = psi[pos]
        blocked = restrict(A, region)
        residual += blocked.matvec(chunk) - lam * chunk
    return DecouplingReport(
        direction="global_to_local",
        eigen_id=j,
        region_id=None,
        eigen_value=lam,
        delta=delta,
        s_used=part.s_achieved,
        residual_norm_sq=float(residual @ residual),
        defect_sq=defect_sq,
        bound=bound,
        holds=defect_sq <= bound * (1.0 + REL_SLACK) + DEFECT_ABS_SLACK,
    )


def check_counting(
    ed: EigenDecomposition,
    locals_: list[LocalEigenData],
    delta: float,
    ebar: float,
    s: float,
    wc: int,
    a_max: float,
    *,
    grid_points: int = 50,
) -> CountingReport:
    """Two-sided counting-function comparison below a threshold.

    nbar is the largest integer with (W_c^2/delta^3) a_max^3 nbar <
    e^{2 S / sqrt(W_c)} (capped at the matrix order; 0 allowed).  On a grid of
    mu values up to ebar, min(nbar, N0(mu - delta)) <= N(mu) and
    min(nbar, N(mu - delta)) <= N0(mu) must both hold.
    """
    delta = float(delta)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    n = ed.n
    coeff = (wc * wc / delta**3) * a_max**3
    if math.isinf(s):
        nbar = n
    else:
        threshold = math.exp(2.0 * s / math.sqrt(wc))
        nbar = int(math.floor(threshold / coeff))
        if nbar * coeff >= threshold:
            nbar -= 1
        nbar = max(0, min(nbar, n))

    lo = float(min(ed.values.min(), min((loc.values.min() for loc in locals_), default=np.inf)))
    mu_grid = np.linspace(lo - delta, float(ebar), grid_points)
    lhs_from_local = np.empty(grid_points, dtype=np.int64)
    rhs_global = np.empty(grid_points, dtype=np.int64)
    lhs_from_global = np.empty(grid_points, dtype=np.int64)
    rhs_local = np.empty(grid_points, dtype=np.int64)
    for idx, mu in enumerate(mu_grid):
        n_local_below = counting_local(locals_, mu - delta)
        n_global_below = counting_global(ed, mu - delta)
        lhs_from_local[idx] = min(nbar, n_local_below)
        rhs_global[idx] = counting_global(ed, mu)
        lhs_from_global[idx] = min(nbar, n_global_below)
        rhs_local[idx] = counting_local(locals_, mu)
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
    if not (1 <= j <= ed.n):
        raise ValueError(f"eigen index {j} outside [1, {ed.n}]")
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

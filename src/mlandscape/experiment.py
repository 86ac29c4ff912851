"""Config-driven experiment orchestration: run every verifier, emit artifacts.

The CLI is a thin wrapper around this module so that whole runs stay testable
in-process.  All randomness used by the randomized identity checks derives
from the ensemble seed; nothing reads the clock, so a fixed config reproduces
every output file byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .agmon import build_metric, threshold_fields
from .checks import (
    _checked_alpha,
    _checked_floor,
    _corollary_blocks,
    _decoupling_coefficient,
    _spectral_step_holds,
    _wc,
    agmon_scatter,
    check_commutator_identity,
    check_counting,
    check_dc_corollary,
    check_decoupling_global,
    check_decoupling_local,
    check_double_commutator_lemma,
    check_general_localization,
    check_landscape_localization,
    write_scatter_csv,
)
from .landscape import _residual_tolerance, shift_potential, solve_landscape, write_landscape_csv
from .matrices import (
    EnsembleConfig,
    SparseSymMatrix,
    _is_integer,
    _is_real,
    _json_value,
    _write_json,
)
from .partition import WellPartition, build_partition, write_partition_json
from .spectral import LocalEigenData, _kept, eig_sym, local_eig, write_eigenvalues_csv

__all__ = [
    "ExperimentConfig",
    "load_config",
    "dump_config",
    "partition_stage",
    "scatter_stage",
    "run_verification",
]

PER_EIGENVALUE = "per-eigenvalue"

# Test seam: replace to post-process the computed spectrum (fault injection in
# the verify pipeline tests).  Must accept and return an EigenDecomposition.
_SPECTRUM_HOOK = None


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a reproducible run needs; round-trips losslessly as JSON."""

    ensemble: EnsembleConfig = field(
        default_factory=lambda: EnsembleConfig(n=1000, half_bandwidth=1)
    )
    thresholds: tuple[float, ...] | str = PER_EIGENVALUE
    s_requested: float = 2.0
    delta: float = 0.05
    alpha: float | None = None
    n_plot: int = 5
    out_dir: str = "out"
    scatter_floor: float = 1e-17

    def __post_init__(self):
        if isinstance(self.thresholds, (list, tuple, np.ndarray)) and len(self.thresholds) > 0:
            for t in self.thresholds:
                if not _is_real(t):
                    raise ValueError(f"thresholds must be numbers, got {t!r}")
                if not math.isfinite(t):
                    raise ValueError(f"thresholds must be finite, got {t}")
            object.__setattr__(self, "thresholds", tuple(float(t) for t in self.thresholds))
        elif not isinstance(self.thresholds, str) or self.thresholds != PER_EIGENVALUE:
            raise ValueError(
                f"thresholds must be {PER_EIGENVALUE!r} or a non-empty list, "
                f"got {self.thresholds!r}"
            )
        for name in ("s_requested", "delta", "alpha", "scatter_floor"):
            value = getattr(self, name)
            if not (_is_real(value) or (name == "alpha" and value is None)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not _is_integer(self.n_plot):
            raise ValueError(f"n_plot must be an integer, got {self.n_plot!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a string, got {self.out_dir!r}")
        # each guard is written so that NaN fails it; S = inf merges every well
        if not (self.s_requested >= 0.0):
            raise ValueError(f"S_requested must be >= 0, got {self.s_requested}")
        if not (self.delta > 0.0):
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")
        if self.alpha is not None and not (self.alpha > 0.0):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.n_plot < 0:
            raise ValueError(f"n_plot must be >= 0, got {self.n_plot}")
        _checked_floor(self.scatter_floor)

    def partition_threshold(self) -> float | None:
        if isinstance(self.thresholds, str):
            return None
        return max(self.thresholds)


def _config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(data) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    if kwargs.get("s_requested") == "inf":  # how config.json spells an infinite S
        kwargs["s_requested"] = math.inf
    if "ensemble" in kwargs:
        ens = kwargs["ensemble"]
        if not isinstance(ens, dict):
            raise ValueError("ensemble must be a JSON object")
        unknown = set(ens) - {f.name for f in fields(EnsembleConfig)}
        if unknown:
            raise ValueError(f"unknown ensemble keys: {sorted(unknown)}")
        missing = {"n", "half_bandwidth"} - set(ens)
        if missing:
            raise ValueError(f"ensemble lacks keys: {sorted(missing)}")
        kwargs["ensemble"] = EnsembleConfig(**ens)
    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    return _config_from_dict(data)


def dump_config(path, cfg: ExperimentConfig) -> None:
    _write_json(path, asdict(cfg))


def partition_stage(
    A: SparseSymMatrix, L, ebar: float, s_requested: float
) -> WellPartition | None:
    """Wells of the landscape ``L`` shifted at ``ebar``, their metric and partition.

    None when no site is a well (vbar > ebar everywhere): there is nothing to
    partition, and every caller reports that instead of an empty partition.
    """
    sp = shift_potential(L, ebar)
    if not sp.wells:
        return None
    return build_partition(A, build_metric(A, sp), s_requested)


def scatter_stage(A: SparseSymMatrix, L, ed, out: str, count: int, floor: float) -> list:
    """ScatterData of eigenpairs 1..min(count, n), each written to out/scatter_{j}.csv."""
    scatters = [agmon_scatter(A, L, ed, j, floor=floor) for j in range(1, min(count, A.n) + 1)]
    for sd in scatters:
        write_scatter_csv(os.path.join(out, f"scatter_{sd.eigen_id}.csv"), sd)
    return scatters


def _preflight(A: SparseSymMatrix, cfg: ExperimentConfig) -> tuple[int, float]:
    """(W_c, alpha) of a run of cfg on A.

    ValueError for a non-Z A, an alpha out of range, or, where explicit
    thresholds make decoupling and counting run, a delta for which
    W_c^2 max|a|^3 / delta^3 is not a positive float.
    """
    if not A.is_z:
        raise ValueError("matrix is not a Z-matrix")
    wc = _wc(A)
    alpha = _checked_alpha(cfg.alpha, wc)
    if cfg.partition_threshold() is not None:
        coeff = _decoupling_coefficient(wc, A.max_abs_entry(), cfg.delta)
        if not (0.0 < coeff < math.inf):
            raise ValueError(
                f"delta {cfg.delta} is out of range: W_c^2 max|a|^3 / delta^3 = {coeff}"
            )
    return wc, alpha


def _region_spectrum(A: SparseSymMatrix, ed, region, region_id: int, emax: float) -> LocalEigenData:
    """``local_eig`` of a region up to ``emax``.

    A region of all n sites is A itself, whose spectrum is ``ed``, cut the same way.
    """
    if len(region) == A.n:
        k = _kept(ed.values, emax)
        return LocalEigenData(int(region_id), frozenset(region), ed.values[:k], ed.vectors[:, :k])
    return local_eig(A, region, region_id=region_id, emax=emax)


def _family(checks: dict, name: str, holds, label=None, out=None, reports=None, **extra) -> None:
    """checks[name] of a check family, and out/{name}.json of its ``reports`` if ``out`` is given.

    ``holds`` is the family's verdict, or with ``label`` a bool column of one
    flag per item: the entry then counts the items and lists ``label(i)`` of
    each item i that fails.
    """
    if label is None:
        entry = {"pass": bool(holds)}
    else:
        holds = np.asarray(holds, dtype=bool)
        failures = [label(i) for i in np.flatnonzero(~holds).tolist()]
        entry = {"pass": not failures, "count": holds.size, "failures": failures}
    checks[name] = {**entry, **extra}
    if out is not None:
        _write_json(os.path.join(out, f"{name}.json"), reports)


def run_verification(A: SparseSymMatrix, cfg: ExperimentConfig, out_dir=None) -> dict:
    """Full verifier sweep over one matrix; returns the summary dict.

    Writes one JSON per check family plus summary.json into out_dir (defaults
    to cfg.out_dir; made at the first artifact).  "all_proved_hold" is the
    conjunction of every pass flag in the summary's checks, and "exit_code"
    is 0 when it holds and 2 otherwise; numerical failures raise instead.
    """
    out = str(out_dir if out_dir is not None else cfg.out_dir)
    wc, alpha = _preflight(A, cfg)
    checks: dict = {}
    summary: dict = {"n": A.n, "connectivity_floor": wc, "checks": checks}

    L = solve_landscape(A)
    tol = _residual_tolerance(A)
    _family(
        checks, "landscape_residual", L.residual_inf <= tol, residual_inf=L.residual_inf, tol=tol
    )

    ed = own = eig_sym(A, L)  # own: A's spectrum even when the hook fakes one
    summary["tails_repaired"] = ed.tails_repaired
    summary["tails_failed"] = ed.tails_failed
    if _SPECTRUM_HOOK is not None:
        ed = _SPECTRUM_HOOK(ed)
    os.makedirs(out, exist_ok=True)
    write_eigenvalues_csv(os.path.join(out, "eigenvalues.csv"), ed)

    part_ebar = cfg.partition_threshold()
    csv_ebar = part_ebar if part_ebar is not None else float(ed.values[0])
    write_landscape_csv(os.path.join(out, "landscape.csv"), L, shift_potential(L, csv_ebar))

    # both localization families read one sweep of distance fields, at every
    # eigenvalue and every explicit threshold, and each evaluates all of its
    # pairs in one call
    per_eigenvalue = isinstance(cfg.thresholds, str)
    swept = ed.values if per_eigenvalue else np.concatenate([ed.values, cfg.thresholds])
    sweep = threshold_fields(A, L.vbar, swept)
    ids = np.arange(1, A.n + 1)
    reports = check_landscape_localization(A, L, ed, ids, fields=sweep)
    if per_eigenvalue:
        ebars = ed.values
    else:  # j-major pairs (j, ebar), ebar in config order, for every ebar >= E_j
        ids = np.repeat(ids, len(cfg.thresholds))
        ebars = np.tile(cfg.thresholds, A.n)
        keep = ebars >= ed.values[ids - 1]
        ids, ebars = ids[keep], ebars[keep]
    has_wells = ebars >= L.vbar.min()  # no site is a well below min vbar
    skipped = int(np.count_nonzero(~has_wells))
    ids, ebars = ids[has_wells], ebars[has_wells]
    gen_reports = check_general_localization(
        A, L, ed.vectors, ed.values[ids - 1], ebars, (), alpha, eigen_id=ids, fields=sweep
    )
    _family(
        checks, "landscape_localization", reports.holds, reports.eigen_id.item, out, reports
    )
    _family(
        checks, "general_localization", gen_reports.holds,
        lambda i: (gen_reports.eigen_id.item(i), gen_reports.threshold.item(i)), out, gen_reports,
        skipped_empty_wells=skipped, alpha=alpha,
    )

    # identity spot checks with seed-derived randomness
    rng = np.random.default_rng(np.random.SeedSequence(cfg.ensemble.seed, spawn_key=(2**31,)))
    identity, lemma = [], []
    for d, g, x in (rng.standard_normal((3, A.n)) for _ in range(8)):
        identity.append(check_commutator_identity(A, d, x))
        lemma.append(check_double_commutator_lemma(A, d, g, x))
    _family(
        checks, "identities", all(ok for _, _, ok in identity + lemma), instances=len(identity),
        max_identity_diff=max([0.0] + [abs(lhs - rhs) for lhs, rhs, _ in identity]),
        max_lemma_diff=max([0.0] + [abs(lhs - rhs) for lhs, rhs, _ in lemma]),
    )

    # one batch per block, its weights drawn as rows: the stream of one draw per eigenpair
    triples = []
    for b in _corollary_blocks(A, A.n):
        g = rng.standard_normal((b.stop - b.start, A.n))
        triples += check_dc_corollary(A, L, ed.vectors[:, b], ed.values[b], g)
    _family(checks, "dc_corollary", [ok for _, _, ok in triples], lambda i: i + 1)

    # partition-based checks need one explicit threshold
    part = None
    if part_ebar is not None:
        part = partition_stage(A, L, part_ebar, cfg.s_requested)
        if part is None:
            checks["partition"] = {"built": False, "threshold": part_ebar, "reason": "no wells"}
        else:
            write_partition_json(os.path.join(out, "partition.json"), part)
            checks["partition"] = {
                "built": True,
                "threshold": part_ebar,
                "wells": len(part.wells),
                "regions": len(part.regions),
                "s_achieved": _json_value(part.s_achieved),
                "axioms_hold": part.axioms_hold,
            }

    if part is not None and part.axioms_hold:
        # counting and decoupling read local eigenvalues <= ebar only
        locals_ = [
            _region_spectrum(A, own, reg, i, part_ebar) for i, reg in enumerate(part.regions)
        ]
        cut = part_ebar - cfg.delta
        dec_reports = []
        for loc in locals_:
            ids = np.flatnonzero(loc.values <= cut) + 1
            dec_reports += check_decoupling_local(A, part, loc, ed, ids, cfg.delta, part_ebar)
        ids = np.flatnonzero(ed.values <= cut) + 1
        dec_reports += check_decoupling_global(A, part, ed, locals_, ids, cfg.delta, part_ebar)
        _family(
            checks, "decoupling", [r.holds for r in dec_reports],
            lambda i: (dec_reports[i].direction, dec_reports[i].region_id, dec_reports[i].eigen_id),
            out, dec_reports,
            spectral_step_pass=all(_spectral_step_holds(r) for r in dec_reports),
        )

        cr = check_counting(
            ed, locals_, cfg.delta, part_ebar, part.s_achieved, wc, A.max_abs_entry()
        )
        _family(checks, "counting", cr.all_hold, out=out, reports=cr, nbar=cr.nbar)

    # scatter data for the first few eigenvectors
    written = len(scatter_stage(A, L, ed, out, cfg.n_plot, cfg.scatter_floor))
    checks["scatter"] = {"written": written, "floor": cfg.scatter_floor}

    flags = [e[f] for e in checks.values() for f in ("pass", "spectral_step_pass") if f in e]
    summary["all_proved_hold"] = all(flags)
    summary["exit_code"] = 0 if summary["all_proved_hold"] else 2
    _write_json(os.path.join(out, "summary.json"), summary)
    return summary

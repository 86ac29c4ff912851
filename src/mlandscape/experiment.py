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
from .landscape import solve_landscape, shift_potential, write_landscape_csv
from .matrices import (
    EnsembleConfig,
    SparseSymMatrix,
    _is_integer,
    _is_real,
    _json_value,
    _write_json,
)
from .partition import WellPartition, build_partition, write_partition_json
from .spectral import eig_sym, local_eig, write_eigenvalues_csv

__all__ = [
    "ExperimentConfig",
    "load_config",
    "dump_config",
    "partition_stage",
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
        if not (self.scatter_floor > 0.0):
            raise ValueError(f"scatter floor must be positive, got {self.scatter_floor}")
        if not math.isfinite(self.scatter_floor):
            raise ValueError(f"scatter floor must be finite, got {self.scatter_floor}")

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


def _preflight(A: SparseSymMatrix, cfg: ExperimentConfig) -> tuple[int, float]:
    """(W_c, alpha) of a run of cfg on A; ValueError for a non-Z A or an alpha out of range."""
    if not A.is_z:
        raise ValueError("matrix is not a Z-matrix")
    wc = _wc(A)
    alpha = cfg.alpha if cfg.alpha is not None else math.sqrt(1.0 / wc)
    _checked_alpha(alpha, wc)
    return wc, alpha


def run_verification(A: SparseSymMatrix, cfg: ExperimentConfig, out_dir=None) -> dict:
    """Full verifier sweep over one matrix; returns the summary dict.

    Writes one JSON per check family plus summary.json into out_dir (defaults
    to cfg.out_dir).  The summary's "exit_code" is 0 when every proved
    inequality holds and 2 otherwise; numerical failures raise instead.
    """
    out = str(out_dir if out_dir is not None else cfg.out_dir)
    wc, alpha = _preflight(A, cfg)
    os.makedirs(out, exist_ok=True)
    summary: dict = {"n": A.n, "connectivity_floor": wc}
    checks: dict = {}
    summary["checks"] = checks

    L = solve_landscape(A)
    tol = 1e-10 * max(1.0, A.max_abs_entry())
    checks["landscape_residual"] = {
        "pass": bool(L.residual_inf <= tol),
        "residual_inf": L.residual_inf,
        "tol": tol,
    }

    ed = eig_sym(A)
    summary["tails_repaired"] = ed.tails_repaired
    summary["tails_failed"] = ed.tails_failed
    if _SPECTRUM_HOOK is not None:
        ed = _SPECTRUM_HOOK(ed)
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
    failures = [r.eigen_id for r in reports if not r.holds]
    checks["landscape_localization"] = {
        "pass": not failures,
        "count": len(reports),
        "failures": failures,
    }
    _write_json(os.path.join(out, "landscape_localization.json"), reports)

    gen_failures = [(r.eigen_id, r.threshold) for r in gen_reports if not r.holds]
    checks["general_localization"] = {
        "pass": not gen_failures,
        "count": len(gen_reports),
        "skipped_empty_wells": skipped,
        "failures": gen_failures,
        "alpha": alpha,
    }
    _write_json(os.path.join(out, "general_localization.json"), gen_reports)

    # identity spot checks with seed-derived randomness
    rng = np.random.default_rng(np.random.SeedSequence(cfg.ensemble.seed, spawn_key=(2**31,)))
    ident = {"pass": True, "instances": 0, "max_identity_diff": 0.0, "max_lemma_diff": 0.0}
    try:
        for _ in range(8):
            d = rng.standard_normal(A.n)
            g = rng.standard_normal(A.n)
            x = rng.standard_normal(A.n)
            _, _, diff = check_commutator_identity(A, d, x)
            ident["max_identity_diff"] = max(ident["max_identity_diff"], diff)
            ident["max_lemma_diff"] = max(
                ident["max_lemma_diff"], check_double_commutator_lemma(A, d, g, x)
            )
            ident["instances"] += 1
    except ArithmeticError as exc:
        ident["pass"] = False
        ident["error"] = str(exc)
    checks["identities"] = ident

    corollary_fails = []
    for j in range(1, A.n + 1):
        g = rng.standard_normal(A.n)
        lhs, rhs, ok = check_dc_corollary(A, L, ed.vectors[:, j - 1], float(ed.values[j - 1]), g)
        if not ok:
            corollary_fails.append(j)
    checks["dc_corollary"] = {"pass": not corollary_fails, "count": A.n, "failures": corollary_fails}

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
        locals_ = [local_eig(A, reg, region_id=i) for i, reg in enumerate(part.regions)]
        cut = part_ebar - cfg.delta
        dec_reports = [
            check_decoupling_local(A, part, loc, ed, j, cfg.delta, part_ebar)
            for loc in locals_
            for j in range(1, loc.values.size + 1)
            if loc.values[j - 1] <= cut
        ] + [
            check_decoupling_global(A, part, ed, locals_, j, cfg.delta, part_ebar)
            for j in range(1, A.n + 1)
            if ed.values[j - 1] <= cut
        ]
        spectral_step_ok = all(
            r.residual_norm_sq >= cfg.delta**2 * r.defect_sq - 1e-25 for r in dec_reports
        )
        dec_failures = [
            (r.direction, r.region_id, r.eigen_id) for r in dec_reports if not r.holds
        ]
        checks["decoupling"] = {
            "pass": not dec_failures,
            "count": len(dec_reports),
            "failures": dec_failures,
            "spectral_step_pass": spectral_step_ok,
        }
        _write_json(os.path.join(out, "decoupling.json"), dec_reports)

        cr = check_counting(
            ed, locals_, cfg.delta, part_ebar, part.s_achieved, wc, A.max_abs_entry()
        )
        checks["counting"] = {"pass": cr.all_hold, "nbar": cr.nbar}
        _write_json(os.path.join(out, "counting.json"), cr)

    # scatter data for the first few eigenvectors
    written = 0
    for j in range(1, min(cfg.n_plot, A.n) + 1):
        sd = agmon_scatter(A, L, ed, j, floor=cfg.scatter_floor)
        write_scatter_csv(os.path.join(out, f"scatter_{j}.csv"), sd)
        written += 1
    checks["scatter"] = {"written": written, "floor": cfg.scatter_floor}

    proved = [
        checks["landscape_residual"]["pass"],
        checks["landscape_localization"]["pass"],
        checks["general_localization"]["pass"],
        checks["identities"]["pass"],
        checks["dc_corollary"]["pass"],
    ]
    if "decoupling" in checks:
        proved.append(checks["decoupling"]["pass"])
        proved.append(checks["decoupling"]["spectral_step_pass"])
    if "counting" in checks:
        proved.append(checks["counting"]["pass"])
    summary["all_proved_hold"] = bool(all(proved))
    summary["exit_code"] = 0 if summary["all_proved_hold"] else 2
    _write_json(os.path.join(out, "summary.json"), summary)
    return summary

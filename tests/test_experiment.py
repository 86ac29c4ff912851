"""Run configuration, the verification sweep, and its artifact contract."""

import itertools
import json
import math
import os

import numpy as np
import pytest

from mlandscape import (
    EmptyWellSetError,
    EnsembleConfig,
    ExperimentConfig,
    build_metric,
    build_partition,
    check_general_localization,
    check_landscape_localization,
    connectivity,
    distance_from_set,
    dump_config,
    eig_sym,
    generate_band_ensemble,
    load_config,
    run_verification,
    shift_potential,
    solve_landscape,
)
import mlandscape.experiment as experiment
from mlandscape.experiment import PER_EIGENVALUE, report_dict
from mlandscape.matrices import _write_json
from mlandscape.spectral import EigenDecomposition


def small_cfg(**over):
    ens = over.pop("ensemble", EnsembleConfig(n=60, half_bandwidth=1, seed=5))
    return ExperimentConfig(ensemble=ens, n_plot=2, **over)


# ---------------------------------------------------------------- config


def test_config_round_trip(tmp_path):
    cfg = ExperimentConfig(
        ensemble=EnsembleConfig(n=30, half_bandwidth=2, epsilon=0.2, seed=9),
        thresholds=(0.5, 1.25),
        s_requested=3.0,
        delta=0.1,
        alpha=0.4,
        n_plot=1,
        out_dir="elsewhere",
        scatter_floor=1e-12,
    )
    p = tmp_path / "config.json"
    dump_config(p, cfg)
    assert load_config(p) == cfg


def test_config_per_eigenvalue_sentinel_round_trips(tmp_path):
    cfg = ExperimentConfig()
    assert cfg.thresholds == "per-eigenvalue"
    assert cfg.partition_threshold() is None
    p = tmp_path / "config.json"
    dump_config(p, cfg)
    assert load_config(p) == cfg


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "config.json"
    p.write_text('{"nn": 10}')
    with pytest.raises(ValueError, match="unknown config keys"):
        load_config(p)


def test_config_rejects_bad_json(tmp_path):
    p = tmp_path / "config.json"
    p.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(p)


def test_config_validation():
    with pytest.raises(ValueError, match="thresholds"):
        ExperimentConfig(thresholds="everything")
    with pytest.raises(ValueError, match="delta"):
        ExperimentConfig(delta=0.0)
    with pytest.raises(ValueError, match="S_requested"):
        ExperimentConfig(s_requested=-1.0)
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig(alpha=-0.5)
    with pytest.raises(ValueError, match="floor"):
        ExperimentConfig(scatter_floor=0.0)


NAN = float("nan")


@pytest.mark.parametrize(
    "field, message",
    [
        ("s_requested", "S_requested"),
        ("delta", "delta"),
        ("alpha", "alpha"),
        ("scatter_floor", "floor"),
    ],
)
def test_config_rejects_nan(field, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{field: NAN})
    with pytest.raises(ValueError, match=message):
        experiment._config_from_dict({field: NAN})


@pytest.mark.parametrize("value", [NAN, float("inf"), float("-inf")])
def test_config_rejects_non_finite_thresholds(value):
    with pytest.raises(ValueError, match="thresholds must be finite"):
        ExperimentConfig(thresholds=(0.5, value))
    with pytest.raises(ValueError, match="thresholds must be finite"):
        experiment._config_from_dict({"thresholds": [value]})


def test_config_with_infinite_s_round_trips_as_strict_json(tmp_path):
    # S = inf merges every well; config.json spells it "inf", not Infinity
    cfg = ExperimentConfig(s_requested=float("inf"))
    p = tmp_path / "config.json"
    dump_config(p, cfg)
    assert json.loads(p.read_text())["s_requested"] == "inf"
    assert load_config(p) == cfg


def test_partition_threshold_picks_largest():
    cfg = ExperimentConfig(thresholds=(0.5, 1.25, 0.75))
    assert cfg.partition_threshold() == 1.25


# ---------------------------------------------------------------- sweep


def test_sweep_artifacts_and_summary(tmp_path):
    cfg = small_cfg()
    A, _ = generate_band_ensemble(cfg.ensemble)
    summary = run_verification(A, cfg, tmp_path)
    assert summary["exit_code"] == 0
    assert summary["all_proved_hold"]
    assert summary["n"] == 60
    checks = summary["checks"]
    for name in (
        "landscape_residual",
        "landscape_localization",
        "general_localization",
        "identities",
        "dc_corollary",
        "scatter",
    ):
        assert name in checks
    assert checks["landscape_localization"]["pass"]
    assert checks["landscape_localization"]["count"] == 60
    assert summary["tails_repaired"] > 0
    assert summary["tails_failed"] == 0
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert (on_disk["tails_repaired"], on_disk["tails_failed"]) == (
        summary["tails_repaired"],
        0,
    )
    assert checks["general_localization"]["pass"]
    for fname in (
        "summary.json",
        "eigenvalues.csv",
        "landscape.csv",
        "landscape_localization.json",
        "general_localization.json",
        "scatter_1.csv",
        "scatter_2.csv",
    ):
        assert (tmp_path / fname).exists(), fname
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert on_disk["exit_code"] == 0


def test_sweep_with_partition_threshold(tmp_path):
    ens = EnsembleConfig(n=60, half_bandwidth=1, seed=5)
    A, _ = generate_band_ensemble(ens)
    ebar = float(np.quantile(solve_landscape(A).vbar, 0.2))
    cfg = small_cfg(ensemble=ens, thresholds=(ebar,), s_requested=1.0)
    summary = run_verification(A, cfg, tmp_path)
    part = summary["checks"]["partition"]
    assert part["built"]
    assert part["wells"] >= 1
    assert (tmp_path / "partition.json").exists()
    if part["axioms_hold"]:
        assert "decoupling" in summary["checks"]
        assert "counting" in summary["checks"]
        assert (tmp_path / "decoupling.json").exists()


def test_sweep_is_deterministic(tmp_path):
    cfg = small_cfg()
    A, _ = generate_band_ensemble(cfg.ensemble)
    run_verification(A, cfg, tmp_path / "a")
    run_verification(A, cfg, tmp_path / "b")
    for name in ("summary.json", "eigenvalues.csv", "scatter_1.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_sweep_thread_fanout_changes_nothing(tmp_path, monkeypatch):
    cfg = small_cfg()
    A, _ = generate_band_ensemble(cfg.ensemble)
    monkeypatch.delenv("MLANDSCAPE_THREADS", raising=False)
    run_verification(A, cfg, tmp_path / "one")
    monkeypatch.setenv("MLANDSCAPE_THREADS", "3")
    run_verification(A, cfg, tmp_path / "three")
    assert (tmp_path / "one" / "summary.json").read_bytes() == (
        tmp_path / "three" / "summary.json"
    ).read_bytes()


def test_sweep_flags_a_faulty_spectrum(tmp_path, monkeypatch):
    """A spectrum that no longer matches its vectors must trip the verifier."""
    cfg = small_cfg()
    A, _ = generate_band_ensemble(cfg.ensemble)

    def scramble(ed):
        return EigenDecomposition(values=ed.values, vectors=ed.vectors[:, ::-1].copy())

    monkeypatch.setattr(experiment, "_SPECTRUM_HOOK", scramble)
    summary = run_verification(A, cfg, tmp_path)
    assert not summary["checks"]["landscape_localization"]["pass"]
    assert not summary["all_proved_hold"]
    assert summary["exit_code"] == 2


def _one_check_at_a_time(A, L, ed, thresholds, alpha):
    """Every localization check on its own, with no distance field shared."""
    landscape = [check_landscape_localization(A, L, ed, j) for j in range(1, ed.n + 1)]
    general, skipped = [], 0
    for j in range(1, ed.n + 1):
        E = float(ed.values[j - 1])
        for ebar in (E,) if thresholds == PER_EIGENVALUE else [t for t in thresholds if t >= E]:
            try:
                general.append(
                    check_general_localization(
                        A, L.u, ed.vectors[:, j - 1], E, ebar, frozenset(), alpha, eigen_id=j
                    )
                )
            except EmptyWellSetError:
                skipped += 1
    return landscape, general, skipped


@pytest.mark.parametrize("w", [1, 2, 3])
def test_verify_localization_equals_the_public_checks_bit_for_bit(w, tmp_path, monkeypatch):
    """Shared distance fields change no byte of either localization file."""
    ens = EnsembleConfig(n=120, half_bandwidth=w, seed=20 + w)
    A, _ = generate_band_ensemble(ens)
    L = solve_landscape(A)
    ed = eig_sym(A)
    alpha = math.sqrt(1.0 / max(connectivity(A), 2))
    low = float(L.vbar.min()) - 0.01  # below every vbar: no wells
    mid = float(np.median(L.vbar))
    explicit = (mid, low, mid, float(L.vbar.max()))  # mid twice
    # every E >= min vbar, so an empty well set needs a spectrum moved below it
    lowered = EigenDecomposition(ed.values - (ed.values[2] - low), ed.vectors)
    skips = 0
    for k, (spectrum, thresholds) in enumerate(
        itertools.product((ed, lowered), (PER_EIGENVALUE, explicit))
    ):
        monkeypatch.setattr(experiment, "_SPECTRUM_HOOK", lambda _, s=spectrum: s)
        out = tmp_path / f"run{k}"
        cfg = ExperimentConfig(ensemble=ens, thresholds=thresholds, n_plot=0)
        summary = run_verification(A, cfg, out)
        landscape, general, skipped = _one_check_at_a_time(A, L, spectrum, thresholds, alpha)
        for name, reports in (("landscape", landscape), ("general", general)):
            _write_json(tmp_path / "one_at_a_time.json", [report_dict(r) for r in reports])
            want = (tmp_path / "one_at_a_time.json").read_bytes()
            assert (out / f"{name}_localization.json").read_bytes() == want
        assert summary["checks"]["general_localization"]["skipped_empty_wells"] == skipped
        skips += skipped
    assert skips >= 3  # the lowered spectrum puts E_1..E_3 at or below `low`

    # against the reciprocal potential 1/u, which equals vbar for an exact solve
    rate = 1.0 / math.sqrt(max(connectivity(A), 2))
    for rep in _one_check_at_a_time(A, L, ed, PER_EIGENVALUE, alpha)[0]:
        psi = ed.vectors[:, rep.eigen_id - 1]
        sp = shift_potential(1.0 / L.u, rep.E)
        rho = distance_from_set(build_metric(A, sp), sp.wells).dist
        keep = (psi != 0.0) & (sp.v != 0.0)
        terms = np.exp(2.0 * rate * rho[keep] + 2.0 * np.log(np.abs(psi[keep])))
        ref = float(np.sum(terms * sp.v[keep]))
        if rep.lhs_second > 1e-30:
            assert abs(rep.lhs_second - ref) <= 1e-11 * rep.lhs_second


def test_calibrated_large_partition():
    """Wide-band run pinned at calibration: 8 separated wells, audit passes."""
    A, _ = generate_band_ensemble(EnsembleConfig(n=1000, half_bandwidth=3, seed=1))
    L = solve_landscape(A)
    sp = shift_potential(L, 0.7)
    part = build_partition(A, build_metric(A, sp), s_requested=2.0)
    assert len(part.wells) == 8
    assert len(part.regions) == 8
    assert part.axioms_hold
    assert part.s_achieved >= 2.0
    assert part.unassigned == frozenset()


def test_verify_runs_one_dijkstra_per_eigenpair(tmp_path, monkeypatch):
    """Both localization families of an eigenpair share one distance field."""
    import scipy.sparse.csgraph as csgraph

    real = csgraph.dijkstra
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(csgraph, "dijkstra", counted)
    ens = EnsembleConfig(n=60, half_bandwidth=1, seed=5)
    A, _ = generate_band_ensemble(ens)
    summary = run_verification(A, ExperimentConfig(ensemble=ens, n_plot=0), tmp_path)
    assert summary["exit_code"] == 0
    assert summary["checks"]["general_localization"]["count"] == 60
    assert len(calls) == 60

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
    SparseSymMatrix,
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
import mlandscape.agmon as agmon
import mlandscape.experiment as experiment
import mlandscape.matrices as matrices
from mlandscape.agmon import ThresholdFields
from mlandscape.checks import LocalizationReport, _weighted_terms
from mlandscape.experiment import PER_EIGENVALUE
from mlandscape.matrices import _index_mask, _write_json
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


def test_both_localization_families_report_one_alpha(tmp_path):
    """At W_c = 2, 1 / sqrt(2) and sqrt(1 / 2) differ in the last bit: both families use the latter."""
    cfg = small_cfg()  # W = 1
    A, _ = generate_band_ensemble(cfg.ensemble)
    run_verification(A, cfg, tmp_path)
    for name in ("landscape", "general"):
        reports = json.loads((tmp_path / f"{name}_localization.json").read_text())
        assert {r["alpha"] for r in reports} == {math.sqrt(1.0 / 2)}, name


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
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    assert len(names) == 7
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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


@pytest.mark.parametrize("faulty", [False, True])
def test_the_verdict_is_every_pass_flag_of_the_summary(tmp_path, monkeypatch, faulty):
    ens = EnsembleConfig(n=500, half_bandwidth=1, seed=5)
    cfg = ExperimentConfig(ensemble=ens, thresholds=(0.5,), s_requested=2.0, n_plot=0)
    if faulty:  # a spectrum whose vectors no longer match their values
        monkeypatch.setattr(
            experiment,
            "_SPECTRUM_HOOK",
            lambda ed: EigenDecomposition(values=ed.values, vectors=ed.vectors[:, ::-1].copy()),
        )
    A, _ = generate_band_ensemble(ens)
    summary = run_verification(A, cfg, tmp_path)
    checks = summary["checks"]
    flags = {
        (name, flag): entry[flag]
        for name, entry in checks.items()
        for flag in ("pass", "spectral_step_pass")
        if flag in entry
    }
    proved = (
        "landscape_residual",
        "landscape_localization",
        "general_localization",
        "identities",
        "dc_corollary",
        "decoupling",
        "counting",
    )
    assert set(flags) == {(name, "pass") for name in proved} | {("decoupling", "spectral_step_pass")}
    assert summary["all_proved_hold"] is all(flags.values())
    assert summary["all_proved_hold"] is not faulty
    assert summary["exit_code"] == (2 if faulty else 0)
    on_disk = json.loads((tmp_path / "summary.json").read_text())
    assert (on_disk["all_proved_hold"], on_disk["exit_code"]) == (not faulty, summary["exit_code"])


@pytest.mark.parametrize("shifted", [False, True])
def test_counting_fails_on_a_shifted_spectrum(tmp_path, monkeypatch, shifted):
    """Negative control: every eigenvalue 0.2 low miscounts N(mu) against the local spectra."""
    ens = EnsembleConfig(n=300, half_bandwidth=1, seed=5)
    cfg = ExperimentConfig(ensemble=ens, thresholds=(0.5,), s_requested=2.0, n_plot=0)
    if shifted:
        monkeypatch.setattr(
            experiment,
            "_SPECTRUM_HOOK",
            lambda ed: EigenDecomposition(values=ed.values - 0.2, vectors=ed.vectors),
        )
    A, _ = generate_band_ensemble(ens)
    summary = run_verification(A, cfg, tmp_path)
    assert summary["checks"]["counting"]["pass"] is not shifted
    assert summary["exit_code"] == (2 if shifted else 0)


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
                        A, L, ed.vectors[:, j - 1], E, ebar, frozenset(), alpha, eigen_id=j
                    )
                )
            except EmptyWellSetError:
                skipped += 1
    return landscape, general, skipped


def _written_out(A, L, ed, thresholds, alpha):
    """Both localization families pair by pair from their definitions.

    One metric and one Dijkstra per pair (``agmon._dijkstra`` on
    ``build_metric``'s graph), and plain masked sums of psi_k^2 e^{2 rate rho_k}.
    """
    wc = max(connectivity(A), 2)
    off_i, off_j, off_v = A.off_arrays()

    def sums(psi, sp, rate):
        """The sum over psi != 0 off the wells, and the one weighted by v where v != 0."""
        rho = agmon._dijkstra(build_metric(A, sp)._graph, _index_mask(A.n, sp.wells))
        off = (psi != 0.0) & ~np.isin(np.arange(1, A.n + 1), list(sp.wells))
        pos = off & (sp.v != 0.0)
        with np.errstate(over="ignore"):
            terms = np.exp(2.0 * rate * rho[off] + 2.0 * np.log(np.abs(psi[off])))
            weighted = np.exp(2.0 * rate * rho[pos] + 2.0 * np.log(np.abs(psi[pos]))) * sp.v[pos]
        return float(np.sum(terms)), float(np.sum(weighted))

    def report(j, E, t, rate, first, second, rhs):
        lhs = first + second
        return LocalizationReport(
            j, E, t, rate, first, second, rhs, lhs <= rhs * (1.0 + 1e-9), rhs - lhs
        )

    landscape, general, skipped = [], [], 0
    rate = math.sqrt(1.0 / wc)
    for j in range(1, ed.n + 1):
        E, psi = float(ed.values[j - 1]), ed.vectors[:, j - 1]
        _, lhs = sums(psi, shift_potential(L, E), rate)
        landscape.append(report(j, E, E, rate, 0.0, lhs, wc * A.max_abs_entry()))
        for t in (E,) if thresholds == PER_EIGENVALUE else [t for t in thresholds if t >= E]:
            sp = shift_potential(L, t)
            if not sp.wells:
                skipped += 1
                continue
            first, second = sums(psi, sp, alpha)
            in_wells = np.isin(np.arange(1, A.n + 1), list(sp.wells))
            crossing = in_wells[off_i - 1] != in_wells[off_j - 1]
            a_cross = float(np.abs(off_v[crossing]).max()) if crossing.any() else 0.0
            rhs = (wc / 2.0) * float(psi @ psi) * a_cross
            lines = ((t - E) * first, (1.0 - alpha * alpha * wc / 2.0) * second)
            general.append(report(j, E, t, alpha, *lines, rhs))
    return landscape, general, skipped


def _no_dense_rows(self, thresholds):
    raise AssertionError("a localization check spread the sweep into dense rows")


@pytest.mark.parametrize(
    "w, thresholds", [(1, PER_EIGENVALUE), (1, (0.5,)), (2, PER_EIGENVALUE)], ids=str
)
def test_verify_reads_the_sweep_rows_as_stored(w, thresholds, tmp_path, monkeypatch):
    """Both localization families sum straight off the sweep's rows: ``rows`` is never called.

    They return columns, and verify writes and counts them as columns: no
    ``LocalizationReport`` is built.
    """
    ens = EnsembleConfig(n=200, half_bandwidth=w, seed=5)
    A, _ = generate_band_ensemble(ens)
    monkeypatch.setattr(ThresholdFields, "rows", _no_dense_rows)

    def no_report(self, *args, **kwargs):
        raise AssertionError("verify built a LocalizationReport")

    monkeypatch.setattr(LocalizationReport, "__init__", no_report)
    cfg = ExperimentConfig(ensemble=ens, thresholds=thresholds, s_requested=2.0, n_plot=0)
    summary = run_verification(A, cfg, tmp_path)
    assert summary["checks"]["landscape_localization"]["count"] == A.n
    assert summary["checks"]["general_localization"]["count"] > 0
    if thresholds != PER_EIGENVALUE:
        assert "decoupling" in summary["checks"]


@pytest.mark.parametrize("w", [1, 2, 3])
def test_verify_localization_equals_the_public_checks_bit_for_bit(w, tmp_path, monkeypatch):
    """Verify's blocked batches write the bytes of the one-pair checks and of the definitions.

    The one-pair checks are batches of one, so the pairs are also written out
    in full (``_written_out``).  Blocks of 7 eigenpairs make every family run
    in many blocks.
    """
    ens = EnsembleConfig(n=120, half_bandwidth=w, seed=20 + w)
    A, _ = generate_band_ensemble(ens)
    L = solve_landscape(A)
    ed = eig_sym(A, L)
    alpha = math.sqrt(1.0 / max(connectivity(A), 2))
    low = float(L.vbar.min()) - 0.01  # below every vbar: no wells
    mid = float(np.median(L.vbar))
    explicit = (mid, low, mid, float(L.vbar.max()))  # mid twice
    # every E >= min vbar, so an empty well set needs a spectrum moved below it
    lowered = EigenDecomposition(ed.values - (ed.values[2] - low), ed.vectors)
    monkeypatch.setattr(matrices, "BLOCK_ENTRIES", 7 * A.n)
    read = []

    def terms(P, V, R, alpha, lengths):
        read.append(len(lengths))
        return _weighted_terms(P, V, R, alpha, lengths)

    monkeypatch.setattr("mlandscape.checks._weighted_terms", terms)
    monkeypatch.setattr(ThresholdFields, "rows", _no_dense_rows)
    skips = 0
    for k, (spectrum, thresholds) in enumerate(
        itertools.product((ed, lowered), (PER_EIGENVALUE, explicit))
    ):
        monkeypatch.setattr(experiment, "_SPECTRUM_HOOK", lambda _, s=spectrum: s)
        out = tmp_path / f"run{k}"
        cfg = ExperimentConfig(ensemble=ens, thresholds=thresholds, n_plot=0)
        del read[:]
        summary = run_verification(A, cfg, out)
        assert len(read) > math.ceil(A.n / 7) and max(read) == 7  # landscape alone: 18 blocks
        one_at_a_time = _one_check_at_a_time(A, L, spectrum, thresholds, alpha)
        written_out = _written_out(A, L, spectrum, thresholds, alpha)
        for reference in (one_at_a_time, written_out):
            landscape, general, skipped = reference
            for name, reports in (("landscape", landscape), ("general", general)):
                _write_json(tmp_path / "reference.json", reports)
                want = (tmp_path / "reference.json").read_bytes()
                assert (out / f"{name}_localization.json").read_bytes() == want
            assert summary["checks"]["general_localization"]["skipped_empty_wells"] == skipped
        skips += skipped
    assert skips >= 3  # the lowered spectrum puts E_1..E_3 at or below `low`

    # against the reciprocal potential 1/u, which equals vbar for an exact solve
    rate = math.sqrt(1.0 / max(connectivity(A), 2))
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


def test_verify_runs_one_dijkstra_for_every_threshold(tmp_path, monkeypatch):
    """Both families read one sweep of all n thresholds; on a chain that sweep runs no Dijkstra."""
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
    assert len(calls) == 0  # a chain's sweep folds its rows, no Dijkstra


def test_verify_forms_vbar_once_per_landscape(tmp_path, monkeypatch):
    """No check re-derives vbar from u: the matvec count stays below n."""
    ens = EnsembleConfig(n=60, half_bandwidth=1, seed=1)
    A, _ = generate_band_ensemble(ens)
    real = SparseSymMatrix.matvec
    calls = []

    def counted(self, x):
        calls.append(1)
        return real(self, x)

    monkeypatch.setattr(SparseSymMatrix, "matvec", counted)
    summary = run_verification(A, ExperimentConfig(ensemble=ens, n_plot=0), tmp_path)
    assert summary["checks"]["dc_corollary"]["count"] == 60
    assert len(calls) < 60


def test_verify_solves_the_landscape_once(tmp_path, monkeypatch):
    """The tail repair reads the landscape the verify holds: one full-size landscape."""
    import mlandscape.landscape as landscape

    real = landscape.landscape_from_vector
    sizes = []

    def counted(A, u):
        sizes.append(A.n)
        return real(A, u)

    monkeypatch.setattr(landscape, "landscape_from_vector", counted)
    ens = EnsembleConfig(n=100, half_bandwidth=1, seed=1)
    A, _ = generate_band_ensemble(ens)
    summary = run_verification(A, ExperimentConfig(ensemble=ens, n_plot=0), tmp_path)
    assert summary["tails_repaired"] > 0
    assert sizes.count(100) == 1


def test_verify_draws_the_corollary_weights_of_one_eigenpair_after_another(tmp_path, monkeypatch):
    """Each block's weights are the rows the per-eigenpair draws of n would give, bit for bit."""
    ens = EnsembleConfig(n=60, half_bandwidth=2, seed=7)
    A, _ = generate_band_ensemble(ens)
    real = experiment.check_dc_corollary
    seen = []

    def recorded(A, L, phi, E, g):
        seen.append((L, np.array(phi), np.array(E), np.array(g), real(A, L, phi, E, g)))
        return seen[-1][-1]

    monkeypatch.setattr(experiment, "check_dc_corollary", recorded)
    monkeypatch.setattr(matrices, "BLOCK_ENTRIES", 8 * max(A.n, A.off_count))
    run_verification(A, ExperimentConfig(ensemble=ens, n_plot=0), tmp_path)
    assert [len(E) for _, _, E, _, _ in seen] == [8] * 7 + [4]
    rng = np.random.default_rng(np.random.SeedSequence(ens.seed, spawn_key=(2**31,)))
    rng.standard_normal(8 * 3 * A.n)  # the identity checks draw first
    for L, phi, E, g, triples in seen:
        for c in range(len(E)):
            row = rng.standard_normal(A.n)
            assert np.array_equal(g[c], row)
            assert real(A, L, phi[:, c], float(E[c]), row) == triples[c]


def test_a_region_of_every_site_reuses_the_spectrum_before_the_hook(tmp_path, monkeypatch):
    """A one-region partition takes A's own spectrum, not local_eig's repeat of it.

    A faulted spectrum from the hook is still compared against the true local
    one: every artifact equals that of a run that calls local_eig.
    """
    ens = EnsembleConfig(n=80, half_bandwidth=1, seed=1)
    A, _ = generate_band_ensemble(ens)
    cfg = ExperimentConfig(ensemble=ens, thresholds=(0.5,), s_requested=2.0, n_plot=0)
    domains = []
    real_local_eig = experiment.local_eig

    def local_eig(A, domain, region_id=0, *, emax=None):
        domains.append(len(domain))
        return real_local_eig(A, domain, region_id=region_id, emax=emax)

    def scramble(ed):
        return EigenDecomposition(values=ed.values, vectors=ed.vectors[:, ::-1].copy())

    monkeypatch.setattr(experiment, "local_eig", local_eig)
    monkeypatch.setattr(experiment, "_SPECTRUM_HOOK", scramble)
    summary = run_verification(A, cfg, tmp_path / "reused")
    assert summary["checks"]["partition"]["regions"] == 1
    assert domains == []
    assert not summary["checks"]["decoupling"]["pass"]

    monkeypatch.setattr(
        experiment,
        "_region_spectrum",
        lambda A, ed, region, i, emax: local_eig(A, region, region_id=i, emax=emax),
    )
    run_verification(A, cfg, tmp_path / "solved")
    assert domains == [A.n]
    names = sorted(p.name for p in (tmp_path / "reused").iterdir())
    assert "decoupling.json" in names and "counting.json" in names
    for name in names:
        reused, solved = (tmp_path / d / name for d in ("reused", "solved"))
        assert reused.read_bytes() == solved.read_bytes()


@pytest.mark.parametrize("w, seed", [(1, 9), (2, 3)])
def test_local_spectra_cut_at_the_partition_threshold_write_the_bytes_of_full_ones(
    w, seed, tmp_path, monkeypatch
):
    """Decoupling and counting read local eigenvalues <= ebar only, so every artifact of
    a multi-region verify is the same with each region's spectrum cut there."""
    ens = EnsembleConfig(n=120, half_bandwidth=w, seed=seed)
    A, _ = generate_band_ensemble(ens)
    cfg = ExperimentConfig(ensemble=ens, thresholds=(0.5,), s_requested=2.0, n_plot=0)
    kept = []
    real_local_eig = experiment.local_eig

    def local_eig(A, domain, region_id=0, *, emax=None):
        loc = real_local_eig(A, domain, region_id=region_id, emax=emax)
        kept.append((loc.values.size, len(domain)))
        return loc

    monkeypatch.setattr(experiment, "local_eig", local_eig)
    summary = run_verification(A, cfg, tmp_path / "cut")
    assert summary["checks"]["partition"]["regions"] == len(kept) > 1
    assert all(k < m for k, m in kept)
    assert summary["checks"]["decoupling"]["count"] > 0

    monkeypatch.setattr(
        experiment,
        "_region_spectrum",
        lambda A, ed, region, i, emax: real_local_eig(A, region, region_id=i),
    )
    run_verification(A, cfg, tmp_path / "full")
    names = sorted(p.name for p in (tmp_path / "cut").iterdir())
    assert "decoupling.json" in names and "counting.json" in names
    for name in names:
        assert (tmp_path / "cut" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

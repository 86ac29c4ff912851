"""End-to-end command-line tests; every command runs in-process via main()."""

import csv
import json

import pytest

import mlandscape.experiment as experiment
from mlandscape.cli import main
from mlandscape.experiment import EnsembleConfig, ExperimentConfig, dump_config
from mlandscape.spectral import EigenDecomposition

INDEFINITE_MTX = """\
%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 1.0
2 2 1.0
2 1 -2.0
"""


@pytest.fixture(scope="module")
def mat(tmp_path_factory):
    """One generated 40-site matrix shared by the read-only commands."""
    gen = tmp_path_factory.mktemp("cli_gen")
    rc = main(
        ["generate", "--n", "40", "--bandwidth", "1", "--seed", "11", "--out", str(gen)]
    )
    assert rc == 0
    return str(gen / "matrix.mtx"), gen


# ---- argument handling


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "mlandscape" in capsys.readouterr().err


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_missing_matrix_file(tmp_path, capsys):
    rc = main(["landscape", str(tmp_path / "absent.mtx"), "--out", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_matrix_file(tmp_path, capsys):
    bad = tmp_path / "junk.mtx"
    bad.write_text("gibberish\n")
    rc = main(["landscape", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "bad matrix file" in capsys.readouterr().err


# ---- generate


def test_generate_artifacts(mat):
    _, gen = mat
    meta = json.loads((gen / "matrix_meta.json").read_text())
    assert meta["n"] == 40
    assert meta["seed"] == 11
    assert meta["half_bandwidth"] == 1
    assert abs(meta["min_eigenvalue"] - 0.1) <= 1e-8
    assert (gen / "matrix.mtx").exists()
    assert (gen / "config.json").exists()


def test_generate_same_seed_reproduces_bytes(tmp_path):
    args = ["generate", "--n", "24", "--bandwidth", "2", "--seed", "6"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    assert (d1 / "matrix.mtx").read_bytes() == (d2 / "matrix.mtx").read_bytes()


# ---- per-matrix commands


def test_landscape_csv(mat, tmp_path, capsys):
    path, _ = mat
    assert main(["landscape", path, "--out", str(tmp_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    with open(tmp_path / "landscape.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "u", "vbar", "v", "in_well"]
    assert len(rows) == 41


def test_spectrum_csv(mat, tmp_path, capsys):
    path, _ = mat
    assert main(["spectrum", path, "--out", str(tmp_path)]) == 0
    assert "(40 eigenvalues)" in capsys.readouterr().out
    with open(tmp_path / "eigenvalues.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "value"]
    values = [float(r[1]) for r in rows[1:]]
    assert values == sorted(values)


def test_partition_requires_threshold(mat, tmp_path, capsys):
    path, _ = mat
    rc = main(["partition", path, "--out", str(tmp_path)])
    assert rc == 1
    assert "needs --ebar" in capsys.readouterr().err


def test_partition_with_threshold(mat, tmp_path, capsys):
    path, _ = mat
    rc = main(["partition", path, "--ebar", "0.7", "--out", str(tmp_path)])
    assert rc == 0
    assert "regions" in capsys.readouterr().out
    report = json.loads((tmp_path / "partition.json").read_text())
    assert len(report["regions"]) == len(report["wells"]) >= 1


def test_verify_passes_on_healthy_matrix(mat, tmp_path, capsys):
    path, _ = mat
    rc = main(["verify", path, "--out", str(tmp_path)])
    assert rc == 0
    assert "verification pass" in capsys.readouterr().out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["exit_code"] == 0


def test_verify_rejects_nan_delta(mat, tmp_path, capsys):
    path, _ = mat
    rc = main(["verify", path, "--delta", "nan", "--out", str(tmp_path)])
    assert rc == 1
    assert "delta must be positive, got nan" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_verify_rejects_nan_ebar(mat, tmp_path, capsys):
    path, _ = mat
    rc = main(["verify", path, "--ebar", "nan", "--out", str(tmp_path)])
    assert rc == 1
    assert "thresholds must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_verify_rejects_out_of_range_alpha_before_any_work(tmp_path, capsys):
    gen = tmp_path / "gen"
    assert main(["generate", "--n", "40", "--seed", "3", "--out", str(gen)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    rc = main(["verify", str(gen / "matrix.mtx"), "--alpha", "5", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: alpha must lie in (0, sqrt(2/W_c)], got 5.0")
    assert err.count("\n") == 1
    assert not out.exists()


def test_verify_summary_bytes_do_not_depend_on_out_dir(mat, tmp_path):
    path, _ = mat
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", path, "--out", str(d1)]) == 0
    assert main(["verify", path, "--out", str(d2)]) == 0
    assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()


def test_verify_honors_thread_env(mat, tmp_path, monkeypatch):
    path, _ = mat
    d1, d2 = tmp_path / "serial", tmp_path / "fanout"
    monkeypatch.delenv("MLANDSCAPE_THREADS", raising=False)
    assert main(["verify", path, "--out", str(d1)]) == 0
    monkeypatch.setenv("MLANDSCAPE_THREADS", "3")
    assert main(["verify", path, "--out", str(d2)]) == 0
    assert (d1 / "summary.json").read_bytes() == (d2 / "summary.json").read_bytes()


def test_scatter_writes_one_file_per_vector(mat, tmp_path, capsys):
    path, _ = mat
    assert main(["scatter", path, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "slope" in out
    for j in range(1, 6):
        assert (tmp_path / f"scatter_{j}.csv").exists()
    assert not (tmp_path / "scatter_6.csv").exists()


def test_figures_without_threshold(mat, tmp_path):
    path, _ = mat
    assert main(["figures", path, "--out", str(tmp_path)]) == 0
    for name in (
        "overlay.csv",
        "overlay.svg",
        "potential.csv",
        "potential.svg",
        "scatter_1.csv",
        "scatter_1.svg",
    ):
        assert (tmp_path / name).exists()
    assert not (tmp_path / "partition.svg").exists()


def test_figures_with_threshold_adds_partition(mat, tmp_path):
    path, _ = mat
    rc = main(["figures", path, "--ebar", "0.7", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "partition.json").exists()
    assert (tmp_path / "partition.svg").exists()
    assert (tmp_path / "partition.svg").read_text().startswith("<svg")


# ---- report


def test_report_prints_per_check_lines(tmp_path, capsys):
    rc = main(
        ["report", "--n", "30", "--bandwidth", "1", "--seed", "4", "--out", str(tmp_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "landscape_residual: pass" in out
    assert "landscape_localization: pass" in out
    assert out.rstrip().endswith("overall: pass")
    assert (tmp_path / "matrix.mtx").exists()
    assert (tmp_path / "summary.json").exists()


# ---- failure exit codes


def test_indefinite_matrix_exits_3(tmp_path, capsys):
    bad = tmp_path / "indefinite.mtx"
    bad.write_text(INDEFINITE_MTX)
    rc = main(["landscape", str(bad), "--out", str(tmp_path)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_injected_spectral_fault_exits_2(tmp_path, monkeypatch, capsys):
    gen = tmp_path / "gen"
    assert (
        main(["generate", "--n", "60", "--bandwidth", "1", "--seed", "5", "--out", str(gen)])
        == 0
    )

    def scramble(ed):
        return EigenDecomposition(values=ed.values, vectors=ed.vectors[:, ::-1].copy())

    monkeypatch.setattr(experiment, "_SPECTRUM_HOOK", scramble)
    rc = main(["verify", str(gen / "matrix.mtx"), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "verification FAIL" in capsys.readouterr().out


# ---- config file plumbing


def test_config_file_with_flag_override(tmp_path):
    cfg = ExperimentConfig(ensemble=EnsembleConfig(n=24, half_bandwidth=1, seed=3))
    cfg_path = tmp_path / "exp.json"
    dump_config(cfg_path, cfg)
    out = tmp_path / "out"
    rc = main(["generate", "--config", str(cfg_path), "--seed", "7", "--out", str(out)])
    assert rc == 0
    meta = json.loads((out / "matrix_meta.json").read_text())
    # n comes from the config file, seed from the overriding flag
    assert meta["n"] == 24
    assert meta["seed"] == 7


def test_unknown_config_keys_exit_1(tmp_path, capsys):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text('{"bogus": 1}\n')
    rc = main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        '{"delta": "0.1"}',
        '{"n_plot": 2.5}',
        '{"ensemble": {"n": 10, "half_bandwidth": 1, "foo": 1}}',
        '{"ensemble": {"n": 10, "half_bandwidth": true}}',
        '{"thresholds": 0.5}',
        '{"s_requested": null}',
        '{"delta": Infinity}',
        '{"scatter_floor": Infinity}',
    ],
)
def test_malformed_config_values_exit_1_before_any_work(tmp_path, capsys, config):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(config + "\n")
    out = tmp_path / "out"
    rc = main(["report", "--config", str(cfg_path), "--n", "20", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert not out.exists()


def test_report_rejects_infinite_delta(tmp_path, capsys):
    rc = main(
        ["report", "--n", "30", "--seed", "2", "--ebar", "0.5", "--delta", "inf",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    assert "delta must be finite, got inf" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---- no wells at the threshold (vbar > 0 everywhere, so ebar < 0 leaves none)


def test_partition_without_wells_exits_1_like_verify_reports(mat, tmp_path, capsys):
    path, _ = mat
    rc = main(["partition", path, "--ebar=-1.0", "--out", str(tmp_path / "part")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: no wells at ebar -1.0")
    assert not (tmp_path / "part").exists()

    assert main(["verify", path, "--ebar=-1.0", "--out", str(tmp_path / "verify")]) == 0
    summary = json.loads((tmp_path / "verify" / "summary.json").read_text())
    assert summary["checks"]["partition"]["reason"] == "no wells"
    assert not (tmp_path / "verify" / "partition.json").exists()


def test_figures_without_wells_skip_the_partition(mat, tmp_path, capsys):
    path, _ = mat
    assert main(["figures", path, "--ebar=-1.0", "--out", str(tmp_path)]) == 0
    assert "no wells at ebar -1.0" in capsys.readouterr().out
    assert (tmp_path / "overlay.svg").exists()
    assert not (tmp_path / "partition.json").exists()
    assert not (tmp_path / "partition.svg").exists()


# ---- artifact format


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_every_artifact_is_strict_json_or_a_rectangular_numeric_csv(tmp_path):
    out = tmp_path / "run"
    args = ["--ebar", "0.5", "--s", "inf", "--out", str(out)]
    assert main(["report", "--n", "30", "--seed", "4", *args]) == 0
    assert main(["figures", str(out / "matrix.mtx"), *args]) == 0

    jsons = sorted(out.glob("*.json"))
    csvs = sorted(out.glob("*.csv"))
    assert {"config.json", "matrix_meta.json", "partition.json", "summary.json"} <= {
        p.name for p in jsons
    }
    assert {"eigenvalues.csv", "landscape.csv", "overlay.csv", "potential.csv"} <= {
        p.name for p in csvs
    }
    for p in jsons:
        json.loads(p.read_text(encoding="ascii"), parse_constant=_reject_constant)
    for p in csvs:
        with open(p, newline="", encoding="ascii") as fh:
            header, *rows = list(csv.reader(fh))
        assert header and all(header), p.name
        for row in rows:
            assert len(row) == len(header), p.name
            for cell in row:
                float(cell)

    # the written config (S spelled "inf") reproduces the run
    again = tmp_path / "again"
    assert main(["report", "--config", str(out / "config.json"), "--out", str(again)]) == 0
    assert (again / "summary.json").read_bytes() == (out / "summary.json").read_bytes()

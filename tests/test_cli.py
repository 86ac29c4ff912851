"""End-to-end command-line tests; every command runs in-process via main()."""

import contextlib
import csv
import io
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mlandscape.checks as checks
import mlandscape.cli as cli
import mlandscape.experiment as experiment
import mlandscape.matrices as matrices
from mlandscape.cli import main
from mlandscape.matrices import SparseSymMatrix
from mlandscape.experiment import EnsembleConfig, ExperimentConfig, dump_config
from mlandscape.spectral import EigenDecomposition

INDEFINITE_MTX = """\
%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 1.0
2 2 1.0
2 1 -2.0
"""

# positive definite (eigenvalues 0.5 and 1.5) but not a Z-matrix
NON_Z_MTX = """\
%%MatrixMarket matrix coordinate real symmetric
2 2 3
1 1 1.0
2 2 1.0
2 1 0.5
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


def test_the_parser_is_built_once_and_a_usage_error_leaves_it_as_fresh(
    tmp_path, capsys, monkeypatch
):
    """A usage error and then valid calls behave as the same calls on fresh parsers do."""
    built = []
    real = cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted)
    calls = (
        ["verify", "--n", "x"],  # no matrix, and --n is no integer
        ["generate", "--n", "20", "--seed", "2", "--out", "gen"],
        ["landscape", "gen/matrix.mtx", "--ebar", "0.5", "--out", "gen"],
    )
    seen = []
    for fresh in (False, True):
        (tmp_path / str(fresh)).mkdir()
        monkeypatch.chdir(tmp_path / str(fresh))
        cli._parser.cache_clear()
        del built[:]
        runs = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            runs.append((main(argv), *capsys.readouterr()))
        files = sorted((p.name, p.read_bytes()) for p in (tmp_path / str(fresh) / "gen").iterdir())
        seen.append((runs, files))
        assert len(built) == (len(calls) if fresh else 1)
    assert seen[0] == seen[1]
    assert [rc for rc, _, _ in seen[0][0]] == [1, 0, 0]


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


def test_spectrum_needs_no_positive_landscape(tmp_path):
    bad = tmp_path / "indefinite.mtx"
    bad.write_text(INDEFINITE_MTX)
    assert main(["spectrum", str(bad), "--out", str(tmp_path)]) == 0
    with open(tmp_path / "eigenvalues.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert [float(r[1]) for r in rows[1:]] == [-1.0, 3.0]


def test_spectrum_writes_the_eigenvalues_verify_writes(mat, tmp_path):
    path, _ = mat
    assert main(["spectrum", path, "--out", str(tmp_path / "spectrum")]) == 0
    assert main(["verify", path, "--out", str(tmp_path / "verify")]) == 0
    written = (tmp_path / "spectrum" / "eigenvalues.csv").read_bytes()
    assert written == (tmp_path / "verify" / "eigenvalues.csv").read_bytes()


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


def test_report_rejects_out_of_range_alpha_before_writing_the_matrix(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["report", "--n", "40", "--seed", "3", "--alpha", "5", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: alpha must lie in (0, sqrt(2/W_c)], got 5.0")
    assert err.count("\n") == 1
    assert not out.exists()


def test_verify_rejects_non_z_matrix_before_any_work(tmp_path, capsys):
    path = tmp_path / "non_z.mtx"
    path.write_text(NON_Z_MTX)
    out = tmp_path / "out"
    rc = main(["verify", str(path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: matrix is not a Z-matrix")
    assert err.count("\n") == 1
    assert not out.exists()


def test_verify_of_an_indefinite_z_matrix_leaves_no_directory(tmp_path, capsys):
    path = tmp_path / "indefinite.mtx"
    path.write_text(INDEFINITE_MTX)
    out = tmp_path / "out"
    rc = main(["verify", str(path), "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert err.count("\n") == 1
    assert not out.exists()


def test_verify_past_the_eigensolve_cap_leaves_no_directory(tmp_path, capsys):
    n = matrices.DENSE_EIGEN_LIMIT + 1
    sites = np.arange(1, n)
    chain = SparseSymMatrix(n, np.full(n, 3.0), np.column_stack((sites, sites + 1, -np.ones(n - 1))))
    path = tmp_path / "chain.mtx"
    matrices.write_matrix(path, chain)
    out = tmp_path / "out"
    rc = main(["verify", str(path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dense eigensolve limited to n <= 5000")
    assert err.count("\n") == 1
    assert not out.exists()


def test_an_order_too_large_for_memory_is_one_error_line(tmp_path, capsys):
    # 10^15 doubles (7 PiB) exceed any address space, so the allocation fails at once
    path = tmp_path / "huge.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n1000000000000000 1000000000000000 0\n"
    )
    out = tmp_path / "out"
    rc = main(["verify", str(path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate")
    assert err.count("\n") == 1
    assert not out.exists()


def test_verify_rejects_empty_threshold_list_before_any_work(mat, tmp_path, capsys):
    path, _ = mat
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text('{"thresholds": []}\n')
    out = tmp_path / "out"
    rc = main(["verify", path, "--config", str(cfg_path), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: thresholds must be 'per-eigenvalue' or a non-empty list")
    assert not out.exists()


def test_verify_summary_bytes_do_not_depend_on_out_dir(mat, tmp_path):
    path, _ = mat
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", path, "--out", str(d1)]) == 0
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


@pytest.mark.parametrize("command, count", [("scatter", 5), ("figures", 1)])
def test_scatter_files_come_from_the_experiment_stage(mat, tmp_path, monkeypatch, command, count):
    """Both subcommands scatter and write through experiment's attributes, as verify does."""
    path, _ = mat
    seen = []
    write = experiment.write_scatter_csv
    monkeypatch.setattr(
        experiment, "write_scatter_csv", lambda p, sd: seen.append(p) or write(p, sd)
    )
    assert main([command, path, "--out", str(tmp_path)]) == 0
    assert seen == [str(tmp_path / f"scatter_{j}.csv") for j in range(1, count + 1)]


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


def test_failed_tridiagonal_eigensolve_exits_3(mat, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(matrices.lapack, "dstevd", lambda d, e, compute_v=1: (d, None, 1))
    rc = main(["verify", mat[0], "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_a_failing_identity_is_a_written_verdict(mat, tmp_path, monkeypatch):
    quad = checks._quad_double_commutator
    monkeypatch.setattr(checks, "_quad_double_commutator", lambda A, d, x: quad(A, d, x) + 1.0)
    out = tmp_path / "out"
    assert main(["verify", mat[0], "--out", str(out)]) == 2
    summary = json.loads((out / "summary.json").read_text())
    identities = summary["checks"]["identities"]
    assert identities["pass"] is False and identities["instances"] == 8
    assert "error" not in identities
    assert (summary["all_proved_hold"], summary["exit_code"]) == (False, 2)


def test_a_stray_arithmetic_error_exits_3(mat, tmp_path, monkeypatch, capsys):
    def overflow(A, cfg):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "run_verification", overflow)
    assert main(["verify", mat[0], "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.splitlines() == ["numerical failure: math range error"]


@pytest.mark.parametrize("delta", ["1e300", "1e-110", "1e-300"])
def test_verify_refuses_a_delta_past_float_range(tmp_path, capsys, delta):
    gen = tmp_path / "gen"
    assert main(["generate", "--n", "200", "--bandwidth", "1", "--seed", "3", "--out", str(gen)]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    argv = ["verify", str(gen / "matrix.mtx"), "--ebar", "0.5", "--delta", delta, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: delta {float(delta)} is out of range")
    assert not out.exists()
    # per-eigenvalue thresholds run no decoupling, so delta is not read
    argv = ["verify", str(gen / "matrix.mtx"), "--delta", delta, "--out", str(out)]
    assert main(argv) == 0


def test_report_refuses_a_delta_past_float_range_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["report", "--n", "30", "--seed", "2", "--ebar", "0.5", "--delta", "1e300"]
    assert main([*argv, "--out", str(out)]) == 1
    assert "error: delta 1e+300 is out of range" in capsys.readouterr().err
    assert not out.exists()


def test_a_separation_past_float_range_ends_in_a_verdict(tmp_path):
    # S = 707 gives e^{2 S / sqrt(W_c)} = e^{1000}, past float range
    out = tmp_path / "out"
    argv = ["report", "--n", "1500", "--bandwidth", "1", "--seed", "2", "--ebar", "0.1016"]
    rc = main([*argv, "--s", "1.0", "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["partition"]["s_achieved"] > 709.8 / 2**0.5
    assert summary["checks"]["counting"] == {"pass": True, "nbar": 1500}
    assert rc == summary["exit_code"] == 0


@pytest.mark.parametrize("n, seed", [(100, 1), (60, 4), (200, 3)])
def test_a_delta_below_the_float_spacing_keeps_each_eigenvalue_in_its_window(
    tmp_path, capsys, n, seed
):
    # E - 1e-20 and E + 1e-20 both round to E: a window from those ends is empty
    out = tmp_path / "out"
    argv = ["report", "--n", str(n), "--bandwidth", "1", "--seed", str(seed), "--ebar", "0.5"]
    rc = main([*argv, "--s", "inf", "--delta", "1e-20", "--out", str(out)])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["decoupling"]["pass"] is True
    assert summary["checks"]["decoupling"]["count"] > 0
    assert "decoupling: pass" in capsys.readouterr().out
    assert rc == summary["exit_code"] == 0


@pytest.mark.parametrize("bandwidth", ["1", "2"])
def test_verify_far_below_the_potential_warns_nothing(tmp_path, capsys, bandwidth):
    # at --ebar=-1e308, v = vbar + 1e308 and v_i v_j is past float range
    gen = tmp_path / "gen"
    argv = ["generate", "--n", "100", "--bandwidth", bandwidth, "--seed", "1", "--out", str(gen)]
    assert main(argv) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        argv = ["verify", str(gen / "matrix.mtx"), "--ebar=-1e308", "--out", str(tmp_path / "out")]
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def sixty(tmp_path_factory):
    """One n = 60, W = 1 matrix file and a fresh --out path per call."""
    gen = tmp_path_factory.mktemp("sixty")
    rc = main(["generate", "--n", "60", "--bandwidth", "1", "--seed", "4", "--out", str(gen)])
    assert rc == 0
    runs = itertools.count()
    return str(gen / "matrix.mtx"), lambda: gen / f"run{next(runs)}"


_LOG_UNIFORM = st.builds(
    lambda sign, e: sign * 10.0**e, st.sampled_from([1.0, 1.0, 1.0, -1.0]), st.floats(-300.0, 300.0)
)


@given(
    st.fixed_dictionaries(
        {}, optional={k: _LOG_UNIFORM for k in ("delta", "s", "alpha", "ebar", "floor")}
    )
)
@example({"ebar": 0.5, "delta": 1e300})
@example({"ebar": -1e308})
@example({"ebar": 0.5, "s": math.inf, "delta": 1e-20})
@settings(max_examples=150, deadline=None)
def test_verify_options_end_in_a_verdict_or_one_error_line(sixty, options):
    """Any delta, S, alpha, ebar and floor: a written verdict, or one error line and no directory.

    Nothing warns on the way.
    """
    path, fresh_out = sixty
    out = fresh_out()
    argv = ["verify", path, "--out", str(out)] + [f"--{k}={v!r}" for k, v in options.items()]
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout):
        warnings.simplefilter("error")
        with contextlib.redirect_stderr(stderr):
            rc = main(argv)
    if rc in (0, 2):
        assert json.loads((out / "summary.json").read_text())["exit_code"] == rc
        assert stderr.getvalue() == ""
    else:
        assert rc in (1, 3)
        assert len(stderr.getvalue().splitlines()) == 1
        assert "Traceback" not in stderr.getvalue()
        assert not out.exists()


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

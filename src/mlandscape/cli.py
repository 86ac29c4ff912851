"""Command-line harness: generate | landscape | spectrum | verify | partition |
scatter | figures | report.

Exit codes: 0 success, 1 usage or config error, 2 proved-inequality violation,
3 numerical failure (solver or eigensolver breakdown).  Argparse's default
exit status for bad usage is overridden to honor that contract.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .experiment import (
    ExperimentConfig,
    dump_config,
    load_config,
    partition_stage,
    run_verification,
)
from .checks import agmon_scatter, write_scatter_csv
from .figures import (
    render_lines_svg,
    render_partition_svg,
    render_scatter_svg,
    write_overlay_csv,
    write_potential_csv,
)
from .landscape import shift_potential, solve_landscape, write_landscape_csv
from .matrices import (
    MatrixFormatError,
    NonPositiveLandscapeError,
    NotPositiveDefiniteError,
    _write_json,
    generate_band_ensemble,
    read_matrix,
    smallest_eigenvalue,
    write_matrix,
)
from .partition import partition_report_dict, write_partition_json
from .spectral import eig_sym, write_eigenvalues_csv

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # the exit-code contract reserves 2 for inequality violations; argparse
    # would exit(2) on bad usage, so route usage failures through exit 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="JSON experiment config")
    shared.add_argument("--seed", type=int, help="ensemble seed")
    shared.add_argument("--out", metavar="DIR", help="output directory")
    shared.add_argument("--n", type=int, help="matrix order")
    shared.add_argument("--bandwidth", type=int, help="number of sub/superdiagonals")
    shared.add_argument("--epsilon", type=float, help="target smallest eigenvalue")
    shared.add_argument("--ebar", type=float, help="well threshold energy")
    shared.add_argument("--delta", type=float, help="decoupling margin")
    shared.add_argument("--s", type=float, help="requested separation")
    shared.add_argument("--alpha", type=float, help="localization exponent rate")
    shared.add_argument("--floor", type=float, help="scatter amplitude floor")

    parser = _Parser(prog="mlandscape", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("generate", parents=[shared], help="draw an ensemble matrix")
    for name, help_text in [
        ("landscape", "solve the landscape system for a matrix file"),
        ("spectrum", "full eigendecomposition of a matrix file"),
        ("verify", "run every inequality verifier on a matrix file"),
        ("partition", "build and audit a well partition"),
        ("scatter", "decay-versus-distance scatter data"),
        ("figures", "emit figure CSVs and SVG renderings"),
    ]:
        p = sub.add_parser(name, parents=[shared], help=help_text)
        p.add_argument("matrix", help="Matrix Market file")
    sub.add_parser("report", parents=[shared], help="full self-contained run")
    return parser


def _build_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if args.config is not None:
        cfg = load_config(args.config)
    ens = cfg.ensemble
    ens_over = {}
    if args.n is not None:
        ens_over["n"] = args.n
    if args.bandwidth is not None:
        ens_over["half_bandwidth"] = args.bandwidth
    if args.epsilon is not None:
        ens_over["epsilon"] = args.epsilon
    if args.seed is not None:
        ens_over["seed"] = args.seed
    if ens_over:
        ens = dataclasses.replace(ens, **ens_over)
    over = {"ensemble": ens}
    if args.ebar is not None:
        over["thresholds"] = (args.ebar,)
    if args.delta is not None:
        over["delta"] = args.delta
    if args.s is not None:
        over["s_requested"] = args.s
    if args.alpha is not None:
        over["alpha"] = args.alpha
    if args.floor is not None:
        over["scatter_floor"] = args.floor
    if args.out is not None:
        over["out_dir"] = args.out
    return dataclasses.replace(cfg, **over)


def _outdir(cfg: ExperimentConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _write_generate_artifacts(cfg: ExperimentConfig, out: str) -> str:
    A, shift = generate_band_ensemble(cfg.ensemble)
    matrix_path = os.path.join(out, "matrix.mtx")
    write_matrix(matrix_path, A)
    meta = {
        "n": cfg.ensemble.n,
        "half_bandwidth": cfg.ensemble.half_bandwidth,
        "epsilon": cfg.ensemble.epsilon,
        "seed": cfg.ensemble.seed,
        "shift": shift,
        "lambda0_unshifted": cfg.ensemble.epsilon - shift,
        "min_eigenvalue": smallest_eigenvalue(A),
    }
    _write_json(os.path.join(out, "matrix_meta.json"), meta)
    dump_config(os.path.join(out, "config.json"), cfg)
    return matrix_path


def _cmd_generate(args) -> int:
    cfg = _build_config(args)
    path = _write_generate_artifacts(cfg, _outdir(cfg))
    print(f"wrote {path}")
    return 0


def _cmd_landscape(args) -> int:
    cfg = _build_config(args)
    A = read_matrix(args.matrix)
    L = solve_landscape(A)
    ebar = cfg.partition_threshold()
    threshold = ebar if ebar is not None else float(np.min(L.vbar))
    out = _outdir(cfg)
    path = os.path.join(out, "landscape.csv")
    write_landscape_csv(path, L, shift_potential(L, threshold))
    print(f"wrote {path}")
    return 0


def _cmd_spectrum(args) -> int:
    cfg = _build_config(args)
    A = read_matrix(args.matrix)
    ed = eig_sym(A)
    out = _outdir(cfg)
    path = os.path.join(out, "eigenvalues.csv")
    write_eigenvalues_csv(path, ed)
    print(f"wrote {path} ({ed.n} eigenvalues)")
    return 0


def _cmd_verify(args) -> int:
    cfg = _build_config(args)
    A = read_matrix(args.matrix)
    summary = run_verification(A, cfg)
    status = "pass" if summary["all_proved_hold"] else "FAIL"
    print(f"verification {status} (summary.json in {cfg.out_dir})")
    return int(summary["exit_code"])


def _cmd_partition(args) -> int:
    cfg = _build_config(args)
    ebar = cfg.partition_threshold()
    if ebar is None:
        raise _UsageError("partition needs --ebar (or explicit thresholds in --config)")
    A = read_matrix(args.matrix)
    part = partition_stage(A, solve_landscape(A), ebar, cfg.s_requested)
    if part is None:
        raise ValueError(f"no wells at ebar {ebar}: vbar > ebar at every site")
    out = _outdir(cfg)
    path = os.path.join(out, "partition.json")
    write_partition_json(path, part)
    rep = partition_report_dict(part)
    print(
        f"wrote {path}: {len(part.regions)} regions, "
        f"S achieved {rep['s_achieved']}, axioms {'hold' if part.axioms_hold else 'FAIL'}"
    )
    return 0


def _cmd_scatter(args) -> int:
    cfg = _build_config(args)
    A = read_matrix(args.matrix)
    L = solve_landscape(A)
    ed = eig_sym(A)
    out = _outdir(cfg)
    for j in range(1, min(cfg.n_plot, ed.n) + 1):
        sd = agmon_scatter(A, L, ed, j, floor=cfg.scatter_floor)
        path = os.path.join(out, f"scatter_{j}.csv")
        write_scatter_csv(path, sd)
        print(f"wrote {path} (slope {sd.fitted_slope:.4g}, r {sd.pearson_r:.4g})")
    return 0


def _cmd_figures(args) -> int:
    cfg = _build_config(args)
    A = read_matrix(args.matrix)
    L = solve_landscape(A)
    ed = eig_sym(A)
    out = _outdir(cfg)

    overlay_csv = os.path.join(out, "overlay.csv")
    write_overlay_csv(overlay_csv, L, ed, cfg.n_plot)
    render_lines_svg(overlay_csv, os.path.join(out, "overlay.svg"), "landscape and eigenvectors")

    potential_csv = os.path.join(out, "potential.csv")
    write_potential_csv(potential_csv, L, ed, cfg.n_plot)
    render_lines_svg(
        potential_csv, os.path.join(out, "potential.svg"), "reciprocal landscape baselines"
    )

    sd = agmon_scatter(A, L, ed, 1, floor=cfg.scatter_floor)
    scatter_csv = os.path.join(out, "scatter_1.csv")
    write_scatter_csv(scatter_csv, sd)
    render_scatter_svg(scatter_csv, os.path.join(out, "scatter_1.svg"))

    ebar = cfg.partition_threshold()
    part = None if ebar is None else partition_stage(A, L, ebar, cfg.s_requested)
    if part is not None:
        part_json = os.path.join(out, "partition.json")
        write_partition_json(part_json, part)
        render_partition_svg(part_json, os.path.join(out, "partition.svg"))
    elif ebar is not None:
        print(f"no wells at ebar {ebar}: partition.* skipped")
    print(f"figures written to {out}")
    return 0


def _cmd_report(args) -> int:
    cfg = _build_config(args)
    out = _outdir(cfg)
    matrix_path = _write_generate_artifacts(cfg, out)
    A = read_matrix(matrix_path)
    summary = run_verification(A, cfg, out)
    for name, entry in summary["checks"].items():
        if "pass" in entry:
            mark = "pass" if entry["pass"] else "FAIL"
        else:
            mark = "info"
        detail = ", ".join(
            f"{k}={v}" for k, v in entry.items() if k != "pass" and not isinstance(v, (list, dict))
        )
        print(f"{name}: {mark}" + (f" ({detail})" if detail else ""))
    overall = "pass" if summary["all_proved_hold"] else "FAIL"
    print(f"overall: {overall}")
    return int(summary["exit_code"])


_HANDLERS = {
    "generate": _cmd_generate,
    "landscape": _cmd_landscape,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
    "partition": _cmd_partition,
    "scatter": _cmd_scatter,
    "figures": _cmd_figures,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (NotPositiveDefiniteError, NonPositiveLandscapeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"proved relation violated: {exc}", file=sys.stderr)
        return 2
    except MatrixFormatError as exc:
        print(f"bad matrix file: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

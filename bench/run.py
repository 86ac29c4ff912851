"""Verifier benchmark: wall time from a Matrix Market file to a verdict.

    python3 bench/run.py --workload chain --seed 1 --seconds 55 --trace 0

One client in a closed loop, in one process.  Each operation is one
``mlandscape verify <matrix.mtx>`` run in-process through
``mlandscape.cli.main`` (read_matrix, run_verification, artifact writing) on
matrices drawn from the workload seed; it succeeds when it exits 0.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced operations alternate on the same matrix and
the last line carries the per-layer metrics (see NOTES.md).  Run records and
spans go to ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

from spans import ROOT as ROOT_SPAN
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

# One BLAS thread, the README's documented default; MLANDSCAPE_THREADS stays
# unset so the verifier runs its checks serially.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Set-up runs this many times, half before the timed loop and half after it,
# so that its median spans the run rather than one moment of a shared machine.
SETUP_REPEATS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    bandwidth: int
    matrices: int  # distinct matrices per run; timed operations cycle through them
    verify_args: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in [
        # per-eigenvalue thresholds at W=1: the only path through the
        # tridiagonal tail march, plus 2n metric builds and Dijkstras
        Workload("chain", 500, 1, 6),
        # W=2 skips the march, so agmon dominates; n=600 is the smallest order
        # with known false FAIL verdicts, which are counted as they come.  It
        # is a report-only workload (not in BENCHMARK.json): a timed workload
        # must have no failing operations, and here they come and go with
        # the seed
        Workload("band", 600, 2, 3),
        # one explicit threshold: partition, local spectra, decoupling and
        # counting run, and general localization shrinks to a few eigenpairs;
        # the draws split between one region and many, so a run averages
        # over several matrices
        Workload("wells", 500, 1, 8, ("--ebar", "0.5", "--s", "2.0")),
    ]
}

# Workloads run.py accepts but BENCHMARK.json does not time.
REPORT_ONLY = ("band",)

END_TO_END = {"verify_s": "s", "verify_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

FAMILIES = (
    "landscape_residual",
    "landscape_localization",
    "general_localization",
    "identities",
    "dc_corollary",
    "decoupling",
    "counting",
)

PER_LAYER = {
    "agmon.build_metric_s": "s",
    "agmon.build_metric_calls": "count",
    "agmon.distance_s": "s",
    "agmon.distance_calls": "count",
    "spectral.eig_sym_s": "s",
    "spectral.local_eig_s": "s",
    "spectral.local_eig_calls": "count",
    "spectral.local_sites": "count",
    "checks.identities_s": "s",
    "checks.localization_s": "s",
    "checks.localization_calls": "count",
    "checks.classify_calls": "count",
    "checks.dc_corollary_s": "s",
    "checks.scatter_s": "s",
    "checks.decoupling_s": "s",
    "checks.decoupling_calls": "count",
    "matrices.restrict_calls": "count",
    "checks.counting_s": "s",
    "partition.build_s": "s",
    "partition.regions": "count",
    "landscape.solve_s": "s",
    "matrices.generate_s": "s",
    "matrices.write_s": "s",
    "matrices.read_s": "s",
    "experiment.write_s": "s",
    "experiment.artifact_bytes": "bytes",
    "experiment.self_s": "s",
    **{f"checks.inequality_failures.{f}": "count" for f in FAMILIES},
    "trace.verify_s": "s",
    "trace.overhead_s": "s",
}

# Per-layer times taken from the set-up step, not from traced operations.
SETUP_LAYER = ("matrices.generate_s", "matrices.write_s")


def pin_environment() -> dict:
    """Pin BLAS threads and unset MLANDSCAPE_THREADS; call before numpy loads."""
    os.environ.update(BLAS_THREADS)
    previous = os.environ.pop("MLANDSCAPE_THREADS", None)
    return {
        "blas_threads": BLAS_THREADS,
        "MLANDSCAPE_THREADS": "unset",
        "MLANDSCAPE_THREADS_before": previous,
    }


def load_program():
    """Import mlandscape from the checkout's src/, never from elsewhere."""
    if not (SRC / "mlandscape" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mlandscape sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mlandscape.cli

    if not Path(mlandscape.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: imported {mlandscape.__file__}, not the sources in {SRC}")
    return mlandscape.cli


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_record(pinned: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **pinned,
    }


def matrix_seeds(w: Workload, seed: int) -> list[int]:
    return [seed * w.matrices + k for k in range(w.matrices)]


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def run_setup(w: Workload, seed: int, work: Path, reps: range) -> tuple[list[Path], list[dict]]:
    """Set up once per rep, each in a fresh interpreter; keep the files of rep 0."""
    samples = []
    for rep in reps:
        dest = work / f"setup{rep}"
        cmd = [sys.executable, str(BENCH_DIR / "setup_step.py"), str(SRC), str(dest)]
        cmd += [str(w.n), str(w.bandwidth), *map(str, matrix_seeds(w, seed))]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
        if rep:
            if _digest(dest) != _digest(work / "setup0"):
                raise RuntimeError("the same seed wrote different matrix files")
            shutil.rmtree(dest)
    return [work / "setup0" / f"matrix{k}.mtx" for k in range(w.matrices)], samples


def _float_fields(row) -> bool:
    try:
        for x in row:
            float(x)
    except ValueError:
        return False
    return True


def check_outputs(out: Path, code: int, matrix: Path) -> tuple[list[str], dict | None]:
    """Problems with one verdict's artifacts (none means correct), and its summary."""
    import numpy as np
    import scipy.io

    problems, parsed = [], {}
    for f in sorted(out.iterdir()):
        try:
            if f.suffix == ".json":
                parsed[f.name] = json.loads(f.read_text(encoding="utf-8"))
            elif f.suffix == ".csv":
                rows = list(csv.reader(io.StringIO(f.read_text(encoding="utf-8"))))
                if not rows or any(len(r) != len(rows[0]) or not _float_fields(r) for r in rows[1:]):
                    problems.append(f"{f.name}: ragged or non-numeric rows")
            else:
                problems.append(f"{f.name}: unexpected artifact")
        except (ValueError, UnicodeDecodeError) as exc:
            problems.append(f"{f.name}: does not parse ({exc})")
    summary = parsed.get("summary.json")
    if not isinstance(summary, dict) or "all_proved_hold" not in summary:
        return problems + ["summary.json missing or without a verdict"], None
    expected = 0 if summary["all_proved_hold"] else 2
    if code != expected or summary.get("exit_code") != expected:
        problems.append(
            f"exit {code}, summary exit_code {summary.get('exit_code')}, "
            f"all_proved_hold {summary['all_proved_hold']}"
        )
    # recompute the landscape residual from the written u, independently of
    # the program's reader and matvec
    A = scipy.io.mmread(str(matrix)).tocsr()
    try:
        with open(out / "landscape.csv", encoding="utf-8") as fh:
            u = np.array([float(r["u"]) for r in csv.DictReader(fh)])
        residual = float(np.max(np.abs(A @ u - 1.0)))
    except (OSError, KeyError, ValueError) as exc:
        return problems + [f"landscape.csv: no usable u column ({exc!r})"], summary
    tol = 1e-10 * max(1.0, float(abs(A).max()))
    if not residual <= tol:
        problems.append(f"landscape residual {residual:.3e} above {tol:.3e}")
    return problems, summary


def family_failures(summary: dict) -> dict[str, int]:
    """Failing items per proved check family in one summary.json."""
    out = {}
    for fam in FAMILIES:
        entry = summary.get("checks", {}).get(fam)
        if entry is None:
            out[fam] = 0
        elif "failures" in entry:
            out[fam] = len(entry["failures"]) + (not entry.get("spectral_step_pass", True))
        else:
            out[fam] = int(not entry["pass"])
    return out


def verify_op(cli, w: Workload, op_id: int, matrix: Path, out: Path, tracer) -> dict:
    argv = ["verify", str(matrix), "--out", str(out), *w.verify_args]
    buf = io.StringIO()
    code, error = None, None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.installed())
        c0, t0 = process_time(), perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                with tracer.operation(op_id) if tracer is not None else contextlib.nullcontext():
                    code = cli.main(argv)
        except Exception:
            error = traceback.format_exc()
        wall, cpu = perf_counter() - t0, process_time() - c0
    op = {"op": op_id, "traced": tracer is not None, "matrix": matrix.name, "exit": code}
    op.update(wall_s=wall, cpu_s=cpu, output=buf.getvalue()[-2000:], error=error)
    if code in (0, 2):
        op["problems"], summary = check_outputs(out, code, matrix)
        op["sha256"] = _digest(out)
        op["bytes"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
        if summary is not None:
            op["family_failures"] = family_failures(summary)
    return op


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def layer_metrics(tracer: Tracer, ops: list[dict], setup: list[dict]) -> tuple[dict, list[dict]]:
    """Per-layer means over the traced operations, and each one's self-time sum."""
    traced = [o for o in ops if o["traced"]]
    untraced = [o for o in ops[1:] if not o["traced"]]
    totals = {name: 0.0 for name in PER_LAYER}
    sums = []
    for o in traced:
        self_times = tracer.self_times(o["op"])
        for span, secs in self_times.items():
            totals["experiment.self_s" if span == ROOT_SPAN else span + "_s"] += secs
        for key, n in tracer.counts[o["op"]].items():
            if key in totals:
                totals[key] += n
        totals["experiment.artifact_bytes"] += o.get("bytes", 0)
        sums.append(
            {
                "op": o["op"],
                "self_sum_s": sum(self_times.values()),
                "root_s": tracer.root_seconds(o["op"]),
                "wall_s": o["wall_s"],
            }
        )
    values = {k: v / len(traced) for k, v in totals.items()}
    verdicts = [o for o in ops if "family_failures" in o]
    for fam in FAMILIES:
        key = f"checks.inequality_failures.{fam}"
        values[key] = sum(o["family_failures"][fam] for o in verdicts) / max(1, len(verdicts))
    for key in SETUP_LAYER:
        values[key] = statistics.median(s[key.split(".")[1]] for s in setup)
    traced_wall = statistics.fmean(o["wall_s"] for o in traced)
    values["trace.verify_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.fmean(o["wall_s"] for o in untraced)
    return values, sums


def identity_problems(ops: list[dict], workload: str, log) -> list[str]:
    """Print each matrix's artifact digests; repeats of a matrix must agree."""
    digests: dict[str, list] = {}
    for o in ops:
        if "sha256" in o:
            digests.setdefault(o["matrix"], []).append(o["sha256"])
    problems = []
    for name, ds in sorted(digests.items()):
        log(f"digest {workload} {name}: {' '.join(sorted(set(ds)))} ({len(ds)} verdicts)")
        if len(set(ds)) != 1:
            problems.append(f"{name}: artifacts differ between repeats of the same matrix")
    if not any(len(ds) > 1 for ds in digests.values()):
        problems.append("no matrix was verified twice, so byte identity is unchecked")
    return problems


def end_to_end(ops: list[dict], setup: list[dict], peak_rss_mb: float, log) -> dict:
    """End-to-end values, printed with their median, quartiles and sample count."""
    timed = [o for o in ops[1:] if not o["traced"]]
    samples = {
        "verify_s": [o["wall_s"] for o in timed],
        "verify_cpu_s": [o["cpu_s"] for o in timed],
        "setup_s": [s["setup_s"] for s in setup],
        "peak_rss_mb": [peak_rss_mb],
    }
    # times per matrix are means over the timed operations, which mix the
    # draws' different costs evenly; setup_s is a median over its repeats
    values = {k: statistics.fmean(samples[k]) for k in ("verify_s", "verify_cpu_s")}
    values["setup_s"] = statistics.median(samples["setup_s"])
    values["peak_rss_mb"] = peak_rss_mb
    log(f"{'metric':<14}{'value':>12}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit")
    for name, xs in samples.items():
        q1, med, q3 = _quartiles(xs)
        row = f"{values[name]:>12.4f}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}{len(xs):>4}"
        log(f"{name:<14}{row}  {END_TO_END[name]}")
    return values


def log(msg: str) -> None:
    print(msg, flush=True)


def run_ops(cli, w: Workload, matrices: list[Path], seconds: float, tracer, work: Path, log):
    """Closed loop of verify operations until `seconds` would be passed."""
    # op 0 is an untimed warm-up on matrix 0; timed ops then cycle through the
    # matrices, in untraced/traced pairs when tracing, so matrix 0 is always
    # verified twice and byte identity is checked
    per_matrix = 1 if tracer is None else 2
    ops: list[dict] = []
    start = perf_counter()
    while True:
        i = len(ops)
        k = (max(i - 1, 0) // per_matrix) % w.matrices
        traced = tracer is not None and i > 0 and i % 2 == 0
        op = verify_op(cli, w, i, matrices[k], work / f"op{i:03d}", tracer if traced else None)
        ops.append(op)
        log(
            f"op {i} {'traced' if traced else 'untraced'} {op['matrix']}: exit {op['exit']} "
            f"wall {op['wall_s']:.3f} s cpu {op['cpu_s']:.3f} s sha256 {op.get('sha256')}"
        )
        if op["error"]:
            log(op["error"].rstrip())
        done = len(ops)
        if done < 1 + per_matrix or (done - 1) % per_matrix:
            continue
        step = statistics.fmean(o["wall_s"] for o in ops[1:]) * per_matrix
        if perf_counter() - start + step > seconds:
            return ops


def run_benchmark(w: Workload, seed: int, seconds: float, trace: bool, out_root=OUT_ROOT, log=log):
    """One run: set up, loop verify operations for `seconds`, check and report.

    Returns (result line, full record).  The record holds every operation,
    the setup samples, the environment and, when traced, the per-op span sums.
    """
    env = environment_record(pin_environment())
    cli = load_program()
    log("env " + json.dumps(env, sort_keys=True))
    out_root = Path(out_root)
    work = out_root / f"work-{w.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if trace else None
    try:
        half = SETUP_REPEATS // 2
        matrices, setup = run_setup(w, seed, work, range(half))
        ops = run_ops(cli, w, matrices, seconds, tracer, work, log)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup += run_setup(w, seed, work, range(half, SETUP_REPEATS))[1]
        log(
            f"setup {w.name}: {len(setup)} fresh-process repeats, "
            f"matrix seeds {matrix_seeds(w, seed)}, n={w.n}, W={w.bandwidth}"
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [f"op {o['op']}: {p}" for o in ops for p in o.get("problems", [])]
    problems += identity_problems(ops, w.name, log)
    for p in problems:
        log("problem " + p)
    attempted = len(ops)
    failed = sum(1 for o in ops if o["exit"] != 0)
    values = end_to_end(ops, setup, peak_rss_mb, log)
    log(f"{'fail_rate':<14}{failed / attempted:>12.4f}  ({failed} of {attempted} operations)  ratio")

    record = {"workload": w.name, "seed": seed, "env": env, "setup": setup, "ops": ops}
    if trace:
        values, record["self_time_sums"] = layer_metrics(tracer, ops, setup)
        wall = values["trace.verify_s"]
        log(f"{'layer metric':<52}{'value':>14}  unit   share of traced verify_s")
        for name, unit in PER_LAYER.items():
            share = ""
            if unit == "s" and name not in SETUP_LAYER and not name.startswith("trace."):
                share = f"{100.0 * values[name] / wall:6.1f}%"
            log(f"{name:<52}{values[name]:>14.6g}  {unit:<6} {share}")
        spans_path = out_root / f"{w.name}-seed{seed}-spans.jsonl"
        tracer.write_jsonl(spans_path)
        log(f"spans: {len(tracer.spans)} written to {spans_path}")
    names = PER_LAYER if trace else END_TO_END
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in names.items()},
    }
    record["result"] = line
    record["problems"] = problems
    with open(out_root / f"{w.name}-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    log(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    line, _ = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), log=log)
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

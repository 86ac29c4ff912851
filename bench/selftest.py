"""Harness self-test: a tiny-n smoke of every workload shape, untraced and traced.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the traced layer self times sum to the traced wall time, that the call
counters are wired (local spectra and decoupling run on the wells shape only),
and that the benchmark exits non-zero without a result line in a directory
that holds only BENCHMARK.json and bench/.  It takes about half a minute and
is not part of the repository's test suite.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import run

# Small orders that keep each workload's shape; at n=80 the wells threshold
# still leaves wells, so the partition path runs.
TINY_N = {"chain": 80, "band": 60, "wells": 80}
# Per-layer times that are self times of a traced operation.
OP_SECONDS = [
    k
    for k, u in run.PER_LAYER.items()
    if u == "s" and k not in run.SETUP_LAYER and not k.startswith("trace.")
]


def _units(line: dict) -> dict:
    return {k: v["unit"] for k, v in line["metrics"].items()}


def check_workload(w, spec: dict, out) -> list[str]:
    errors = []
    lines: list[str] = []
    tiny = dataclasses.replace(w, n=TINY_N[w.name])
    line, _ = run.run_benchmark(tiny, 1, 0, False, out_root=out, log=lines.append)
    if not line["correct"]:
        errors.append(f"{w.name}: untraced run not correct")
    if _units(line) != spec["end_to_end"]:
        errors.append(f"{w.name}: end-to-end metrics {_units(line)} != {spec['end_to_end']}")

    line, record = run.run_benchmark(tiny, 1, 0, True, out_root=out, log=lines.append)
    m = {k: v["value"] for k, v in line["metrics"].items()}
    if not line["correct"]:
        errors.append(f"{w.name}: traced run not correct")
    if _units(line) != spec["per_layer"]:
        errors.append(f"{w.name}: per-layer metrics {_units(line)} != {spec['per_layer']}")
    wall = m["trace.verify_s"]
    layer_sum = sum(m[k] for k in OP_SECONDS)
    if abs(layer_sum - wall) > 1e-3 + 5e-3 * wall:
        errors.append(f"{w.name}: layer self times sum to {layer_sum:.6f} s, traced wall {wall:.6f} s")
    for s in record["self_time_sums"]:
        if abs(s["self_sum_s"] - s["root_s"]) > 1e-9:
            errors.append(f"{w.name}: op {s['op']} self times do not sum to the root span")
    wired = [m["spectral.local_eig_calls"], m["checks.decoupling_calls"], m["partition.regions"]]
    if (w.name == "wells") != all(c > 0 for c in wired) or (w.name != "wells" and any(wired)):
        errors.append(f"{w.name}: local_eig/decoupling/regions counts {wired}")
    for key in ("agmon.build_metric_calls", "agmon.distance_calls", "checks.localization_calls"):
        if not m[key] > 0:
            errors.append(f"{w.name}: {key} is {m[key]}")
    if errors:
        print("\n".join(lines))
    return errors


def check_missing_sources(out) -> list[str]:
    bare = out / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, "bench/run.py", "--workload", "chain", "--seed", "1"]
    cmd += ["--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    if done.returncode == 0 or last.startswith("{"):
        return [f"without sources: exit {done.returncode}, last line {last!r}"]
    return []


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = {key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")}
    if list(spec["end_to_end"].items()) != list(run.END_TO_END.items()):
        return _report(["BENCHMARK.json end_to_end differs from run.END_TO_END"])
    if list(spec["per_layer"].items()) != list(run.PER_LAYER.items()):
        return _report(["BENCHMARK.json per_layer differs from run.PER_LAYER"])
    timed = sorted(w for w in run.WORKLOADS if w not in run.REPORT_ONLY)
    if sorted(w["name"] for w in bench["workloads"]) != timed:
        return _report(["BENCHMARK.json workloads differ from run.WORKLOADS minus REPORT_ONLY"])
    out = run.OUT_ROOT / "selftest"
    errors = []
    for w in run.WORKLOADS.values():
        errors += check_workload(w, spec, out)
    errors += check_missing_sources(out)
    shutil.rmtree(out, ignore_errors=True)
    return _report(errors)


def _report(errors: list[str]) -> int:
    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("FAIL" if errors else "pass"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

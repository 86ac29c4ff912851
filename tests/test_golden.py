"""The byte-identity contract as a committed manifest of ``report`` runs.

``tests/golden.json`` records, for each config in ``CONFIGS``, the argv, the
exit code, the stdout and a sha256 per written file (``config.json`` aside:
it records the output directory), plus the fingerprint of the platform that
wrote it.  The test reruns every config in one child process pinned to one
BLAS thread.  On the recorded platform every digest and the stdout must
match; on another one the exit codes and the pass/FAIL/info/overall marks
must.  The test never skips.

A change that moves bytes on purpose rewrites the manifest with

    python tests/test_golden.py --write

and lists the changed files in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden.json"

CONFIGS = [
    ["report", "--n", "500", "--bandwidth", "1", "--seed", "3", "--ebar", "0.5", "--s", "2.0"],
    ["report", "--n", "500", "--bandwidth", "1", "--seed", "5", "--ebar", "0.5", "--s", "2.0"],
    ["report", "--n", "500", "--bandwidth", "1", "--seed", "8", "--ebar", "0.5", "--s", "2.0"],
    ["report", "--n", "200", "--bandwidth", "1", "--seed", "3"],
    ["report", "--n", "500", "--bandwidth", "1", "--seed", "1"],
    ["report", "--n", "150", "--bandwidth", "2", "--seed", "7", "--ebar", "0.6", "--s", "1.0"],
    ["report", "--n", "400", "--bandwidth", "3", "--seed", "11", "--ebar", "0.6", "--s", "1.0"],
    ["report", "--n", "1200", "--bandwidth", "2", "--seed", "4", "--ebar", "0.5"],
    ["report", "--n", "300", "--bandwidth", "2", "--seed", "3"],
    ["report", "--n", "200", "--bandwidth", "3", "--seed", "7"],
]

# every BLAS the wheels may bundle, at one thread: the bits of a dense
# eigensolve depend on the thread count
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _fingerprint() -> dict:
    """numpy and scipy versions, their BLAS builds, and the machine with its SIMD set."""
    import numpy
    import scipy

    def blas(lib) -> dict:
        info = lib.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    try:  # numpy's own kernels (exp, log, sums) dispatch on these
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": blas(numpy), "scipy": blas(scipy)},
        "machine": platform.machine(),
        "simd": sorted(k for k, on in __cpu_features__.items() if on),
    }


def _run_configs() -> dict:
    """Every config run in this process: the manifest's content."""
    from mlandscape import cli

    runs = []
    for argv in CONFIGS:
        with tempfile.TemporaryDirectory() as out:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main([*argv, "--out", out])
            files = {
                p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(out).rglob("*"))
                if p.is_file() and p.name != "config.json"
            }
        runs.append({"argv": argv, "exit": code, "stdout": buf.getvalue(), "files": files})
    return {"platform": _fingerprint(), "runs": runs}


def _child_run() -> dict:
    """``_run_configs`` in a child process at one BLAS thread."""
    env = {**os.environ, **ONE_THREAD}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__, "--child"], env=env, capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _marks(stdout: str) -> list:
    """(check name, pass/FAIL/info) per line of a report's stdout, overall included."""
    return [tuple(line.split(" (", 1)[0].split(": ")) for line in stdout.splitlines()]


def test_report_runs_match_the_manifest():
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    got = _child_run()
    assert [r["argv"] for r in got["runs"]] == [r["argv"] for r in want["runs"]]
    if got["platform"] == want["platform"]:
        print(f"golden: platform matches, comparing the bytes of {len(CONFIGS)} runs")
        for g, w in zip(got["runs"], want["runs"]):
            assert (g["exit"], g["stdout"]) == (w["exit"], w["stdout"]), g["argv"]
            assert g["files"] == w["files"], g["argv"]
    else:
        print(
            f"golden: another platform ({got['platform']} against {want['platform']}), "
            f"comparing the exit codes and verdict marks of {len(CONFIGS)} runs"
        )
        for g, w in zip(got["runs"], want["runs"]):
            assert g["exit"] == w["exit"], g["argv"]
            assert _marks(g["stdout"]) == _marks(w["stdout"]), g["argv"]


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        json.dump(_run_configs(), sys.stdout)
    elif sys.argv[1:] == ["--write"]:
        text = json.dumps(_child_run(), indent=2, sort_keys=True) + "\n"
        MANIFEST.write_text(text, encoding="utf-8")
        print(f"wrote {MANIFEST}")
    else:
        sys.exit("usage: python tests/test_golden.py --write")

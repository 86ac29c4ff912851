"""One benchmark set-up: import mlandscape, draw the run's matrices, write them.

Runs in a fresh interpreter so that the import is paid in full:

    python3 bench/setup_step.py SRC_DIR OUT_DIR N BANDWIDTH SEED [SEED ...]

Writes OUT_DIR/matrix<k>.mtx for the k-th seed and prints one JSON object
with the import, generate and write times in seconds.
"""

import json
import os
import sys
from time import perf_counter


def main(argv) -> int:
    t0 = perf_counter()
    src, out, n, bandwidth, *seeds = argv
    sys.path.insert(0, src)
    import mlandscape

    if not os.path.abspath(mlandscape.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"setup: imported {mlandscape.__file__}, not the sources in {src}", file=sys.stderr)
        return 2
    t1 = perf_counter()
    generate_s = write_s = 0.0
    os.makedirs(out, exist_ok=True)
    for k, seed in enumerate(seeds):
        a = perf_counter()
        cfg = mlandscape.EnsembleConfig(n=int(n), half_bandwidth=int(bandwidth), seed=int(seed))
        A, _ = mlandscape.generate_band_ensemble(cfg)
        b = perf_counter()
        mlandscape.write_matrix(os.path.join(out, f"matrix{k}.mtx"), A)
        write_s += perf_counter() - b
        generate_s += b - a
    total = perf_counter() - t0
    print(
        json.dumps(
            {"import_s": t1 - t0, "generate_s": generate_s, "write_s": write_s, "setup_s": total}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

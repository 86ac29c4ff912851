"""In-memory span tracer that wraps the program's functions from outside.

The package binds names with ``from .x import f``, so a function is wrapped at
every module attribute its callers look it up through (``PLAN`` below), not
only at its defining module.  Spans nest on one stack, which is exact because
a verify run is single-threaded (``MLANDSCAPE_THREADS`` unset).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# Name of the root span of every operation; its self time, and that of
# run_verification, is the unattributed remainder experiment.self_s.
ROOT = "experiment"


def _sites(args, kwargs, result):
    domain = kwargs["domain"] if "domain" in kwargs else args[1]
    return "spectral.local_sites", len(domain)


def _regions(args, kwargs, result):
    return "partition.regions", len(result.regions)


# (module, attribute looked up by the caller, span name, extra count)
PLAN = [
    ("mlandscape.cli", "read_matrix", "matrices.read", None),
    ("mlandscape.cli", "run_verification", ROOT, None),
    ("mlandscape.experiment", "solve_landscape", "landscape.solve", None),
    ("mlandscape.experiment", "eig_sym", "spectral.eig_sym", None),
    ("mlandscape.experiment", "local_eig", "spectral.local_eig", _sites),
    ("mlandscape.experiment", "check_landscape_localization", "checks.localization", None),
    ("mlandscape.experiment", "check_general_localization", "checks.localization", None),
    ("mlandscape.experiment", "check_commutator_identity", "checks.identities", None),
    ("mlandscape.experiment", "check_double_commutator_lemma", "checks.identities", None),
    ("mlandscape.experiment", "check_dc_corollary", "checks.dc_corollary", None),
    ("mlandscape.experiment", "build_partition", "partition.build", _regions),
    ("mlandscape.experiment", "check_decoupling_local", "checks.decoupling", None),
    ("mlandscape.experiment", "check_decoupling_global", "checks.decoupling", None),
    ("mlandscape.experiment", "check_counting", "checks.counting", None),
    ("mlandscape.experiment", "agmon_scatter", "checks.scatter", None),
    ("mlandscape.experiment", "write_eigenvalues_csv", "experiment.write", None),
    ("mlandscape.experiment", "write_landscape_csv", "experiment.write", None),
    ("mlandscape.experiment", "write_partition_json", "experiment.write", None),
    ("mlandscape.experiment", "write_scatter_csv", "experiment.write", None),
    ("mlandscape.experiment", "_write_json", "experiment.write", None),
    ("mlandscape.experiment", "build_metric", "agmon.build_metric", None),
    ("mlandscape.checks", "build_metric", "agmon.build_metric", None),
    ("mlandscape.checks", "distance_from_set", "agmon.distance", None),
    ("mlandscape.partition", "distance_from_set", "agmon.distance", None),
    # set_distance and pairwise_distance look it up inside agmon itself
    ("mlandscape.agmon", "distance_from_set", "agmon.distance", None),
]

# (module, attribute, counter): calls counted without a span, so their time
# stays in the calling layer's self time.
COUNTS = [
    ("mlandscape.checks", "classify", "checks.classify_calls"),
    ("mlandscape.checks", "restrict", "matrices.restrict_calls"),
]


class Tracer:
    """Records spans (name, start, end, parent, operation id) in memory."""

    def __init__(self):
        self.epoch = perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts: dict = defaultdict(Counter)  # op id -> counter name -> n
        self._stack: list[int] = []
        self._op = None

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        self.counts[self._op][name + "_calls"] += 1
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closed {idx}, top was {popped}")

    def _span_wrapper(self, fn, name, extra):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if extra is not None:
                key, amount = extra(args, kwargs, result)
                self.counts[self._op][key] += amount
            return result

        return wrapper

    def _count_wrapper(self, fn, key):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[self._op][key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every PLAN and COUNTS attribute; restore them on exit."""
        saved = []
        try:
            for mod_name, attr, name, extra in PLAN:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._span_wrapper(fn, name, extra))
            for mod_name, attr, key in COUNTS:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._count_wrapper(fn, key))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    @contextlib.contextmanager
    def operation(self, op_id):
        """Root span of one operation; every span opened inside carries op_id."""
        self._op = op_id
        idx = self._open(ROOT)
        try:
            yield
        finally:
            self._close(idx)
            self._op = None

    def self_times(self, op_id) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its children's."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, op in self.spans:
            if op == op_id:
                out[name] += end - start
        for name, start, end, parent, op in self.spans:
            if op == op_id and parent is not None:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def root_seconds(self, op_id) -> float:
        return sum(
            end - start
            for _, start, end, parent, op in self.spans
            if op == op_id and parent is None
        )

    def write_jsonl(self, path) -> None:
        """One span per line; times in seconds since the tracer was made."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                rec = {
                    "name": name,
                    "start": start - self.epoch,
                    "end": end - self.epoch,
                    "parent": parent,
                    "op": op,
                }
                fh.write(json.dumps(rec) + "\n")

"""The benchmark tracer patches functions by (module, attribute); each must exist.

``bench/spans.py`` wraps callees at the attribute their callers look up, so a
renamed or dropped import in the package crashes a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_attribute_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(mod, attr) for mod, attr, *_ in spans.PLAN + spans.COUNTS]
    assert targets
    missing = [
        f"{mod}.{attr}"
        for mod, attr in targets
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []

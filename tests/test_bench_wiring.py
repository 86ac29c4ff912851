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


def test_verify_calls_the_traced_localization_checks(tmp_path, monkeypatch):
    """The tracer times localization through these two names; verify must call them."""
    from mlandscape import experiment
    from mlandscape.matrices import EnsembleConfig, generate_band_ensemble

    calls = {}
    for name in ("check_landscape_localization", "check_general_localization"):
        real = getattr(experiment, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(experiment, name, counted)
    ens = EnsembleConfig(n=30, half_bandwidth=1, seed=2)
    A, _ = generate_band_ensemble(ens)
    experiment.run_verification(A, experiment.ExperimentConfig(ensemble=ens, n_plot=0), tmp_path)
    assert calls == {"check_landscape_localization": 30, "check_general_localization": 30}

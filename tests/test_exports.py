"""Every module's public names: ``__all__`` lists only what the module defines."""

import importlib
import pkgutil

import pytest

import mlandscape

MODULES = sorted(info.name for info in pkgutil.iter_modules(mlandscape.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(f"mlandscape.{name}")
    public = module.__all__
    assert len(set(public)) == len(public), f"{name}.__all__ repeats a name"
    missing = [attr for attr in public if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module lacks: {missing}"
    namespace = {}
    exec(f"from mlandscape.{name} import *", namespace)
    assert set(public) <= set(namespace)


def test_package_exports_are_public_names_of_their_modules():
    """A name the package re-exports is in the ``__all__`` of the module defining it."""
    for attr, value in vars(mlandscape).items():
        home = getattr(value, "__module__", None)
        if attr.startswith("_") or not (home or "").startswith("mlandscape."):
            continue
        assert attr in importlib.import_module(home).__all__, f"{home}.{attr}"

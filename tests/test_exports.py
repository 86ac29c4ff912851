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
    """Every name in the package's ``__all__`` resolves, and it is in the
    ``__all__`` of the module defining it; the names are bound on first use,
    so ``vars(mlandscape)`` alone would show too few of them."""
    assert len(set(mlandscape.__all__)) == len(mlandscape.__all__)
    for attr in mlandscape.__all__:
        home = getattr(mlandscape, attr).__module__
        assert home.startswith("mlandscape."), f"{attr} is defined in {home}"
        assert attr in importlib.import_module(home).__all__, f"{home}.{attr}"
    assert set(mlandscape.__all__) <= set(dir(mlandscape))
    with pytest.raises(AttributeError):
        mlandscape.no_such_name


def test_package_star_import_binds_exactly_its_exports():
    namespace = {}
    exec("from mlandscape import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mlandscape.__all__)

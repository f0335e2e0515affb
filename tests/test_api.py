"""Public API: every name a covhedge module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import covhedge

MODULES = sorted(info.name for info in pkgutil.walk_packages(
    covhedge.__path__, prefix="covhedge."))


def test_every_module_is_listed():
    assert {"covhedge.matcalc", "covhedge.models", "covhedge.transforms",
            "covhedge.simulate", "covhedge.hedging.backtest"} <= set(MODULES)


@pytest.mark.parametrize("name", ["covhedge"] + MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []

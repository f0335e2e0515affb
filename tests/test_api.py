"""Public API: every name a covhedge module lists in ``__all__`` exists and
has a reader in the package or the benchmark."""

import ast
import dataclasses
import importlib
import pkgutil
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
# fields kept without a reader: the diagnostics that ROADMAP item 10 gathers
# into one record, counted today so that tests can assert on them
DIAGNOSTICS = {"SimResult.clip_count", "TransformGrid.phi_quadrature"}


def _reads() -> tuple[set, set]:
    """The names, and the attribute names read, anywhere in src/ or
    bench/.  A read through ``self`` or ``cls`` does not count: a field
    that only its own class reads has no reader."""
    names, attrs = set(), set()
    for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("bench/**/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id in ("self", "cls"))):
                attrs.add(node.attr)
    return names, attrs


def _public_classes():
    for name in MODULES:
        module = importlib.import_module(name)
        for n in getattr(module, "__all__", ()):
            obj = getattr(module, n)
            if isinstance(obj, type):
                yield obj


def test_every_public_name_has_a_reader():
    names, attrs = _reads()
    read = names | attrs
    unread = [f"{name}.{n}" for name in MODULES
              for n in getattr(importlib.import_module(name), "__all__", ())
              if n not in read]
    assert unread == []


def test_every_public_field_has_a_reader():
    """Every field of a public dataclass or NamedTuple, and every public
    property of a public class, is read as an attribute in src/ or bench/."""
    _, attrs = _reads()
    unread = []
    for cls in _public_classes():
        fields = ([f.name for f in dataclasses.fields(cls)]
                  if dataclasses.is_dataclass(cls)
                  else list(getattr(cls, "_fields", ())))
        fields += [n for n, v in vars(cls).items()
                   if isinstance(v, property) and not n.startswith("_")]
        unread += [f"{cls.__name__}.{f}" for f in dict.fromkeys(fields)
                   if f not in attrs]
    assert sorted(set(unread) - DIAGNOSTICS) == []

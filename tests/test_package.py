"""Package layout: every gnl function has one name, in its own module."""

import importlib
import pkgutil

import gnl

LAYERS = ("errors", "fock", "graphs", "nullifiers", "schwinger", "states")


def _modules():
    return [importlib.import_module(f"gnl.{m.name}") for m in pkgutil.iter_modules(gnl.__path__)]


def test_import_gnl_loads_the_layer_modules():
    for name in LAYERS:
        assert getattr(gnl, name) is importlib.import_module(f"gnl.{name}")
    assert gnl.graphs.tms_k(0.5).shape == (2, 2)


def test_the_package_holds_no_function_or_class():
    held = [name for name, obj in vars(gnl).items() if callable(obj)]
    assert held == []


def test_no_module_holds_a_function_of_another():
    # classes and exception types may be imported by name; a function,
    # lru_cache'd or not, is called through its own module
    foreign = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name, obj in vars(module).items()
        if callable(obj) and not isinstance(obj, type)
        and getattr(obj, "__module__", "").startswith("gnl.")
        and obj.__module__ != module.__name__
    ]
    assert foreign == []

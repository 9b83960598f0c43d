"""The lazy package namespace: every public name resolves on first access to
the object its submodule defines, and unknown names are attribute errors."""

import importlib

import pytest

import eprsim

SUBMODULES = ("engine", "kernels", "models", "polarization", "reference", "stats", "twophoton")


def test_every_public_name_is_its_submodules_object():
    assert len(set(eprsim.__all__)) == len(eprsim.__all__)
    for name in SUBMODULES:
        assert getattr(eprsim, name) is importlib.import_module(f"eprsim.{name}")
    exported = [name for name in eprsim.__all__ if name not in SUBMODULES]
    assert sorted(exported) == sorted(eprsim._MODULE_OF)
    for name in exported:
        module = importlib.import_module(f"eprsim.{eprsim._MODULE_OF[name]}")
        assert getattr(eprsim, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from eprsim import *", namespace)
    for name in eprsim.__all__:
        assert namespace[name] is getattr(eprsim, name), name


def test_dir_lists_every_public_name():
    assert set(eprsim.__all__) <= set(dir(eprsim))
    assert "__version__" in dir(eprsim)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        eprsim.no_such_name
    assert not hasattr(eprsim, "RunConfigs")
    with pytest.raises(ImportError):
        exec("from eprsim import no_such_name", {})

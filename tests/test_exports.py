"""Every name a module exports through ``__all__`` resolves."""

import importlib
import pkgutil
import types

import pytest

import segment_bethe

MODULES = ["segment_bethe"] + [
    f"segment_bethe.{info.name}"
    for info in pkgutil.iter_modules(segment_bethe.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_double_row_names_its_module():
    # The package binds no function over its submodule's name, so both
    # import spellings give the module; the builder is imported from it.
    import segment_bethe.double_row as dr
    from segment_bethe.double_row import double_row

    assert isinstance(segment_bethe.double_row, types.ModuleType)
    assert dr is segment_bethe.double_row
    assert callable(dr.transfer_matrices) and callable(dr.act)
    assert double_row is dr.double_row and callable(double_row)
    assert "double_row" not in segment_bethe.__all__

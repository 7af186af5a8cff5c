"""The package's public API is one table, ``faultscope._EXPORTS``: a row per
module, naming the names that module exports. ``__all__`` is derived from it."""

import importlib

import faultscope as fs


def _table_names() -> list[str]:
    return [name for names in fs._EXPORTS.values() for name in names]


def test_every_export_resolves():
    for name in fs.__all__:
        assert hasattr(fs, name), name


def test_every_export_is_its_modules_object():
    for module_name, names in fs._EXPORTS.items():
        module = importlib.import_module(f"faultscope.{module_name}")
        for name in names:
            assert getattr(fs, name) is getattr(module, name), f"{module_name}.{name}"


def test_table_names_no_name_twice():
    names = _table_names()
    assert len(names) == len(set(names))


def test_all_is_the_table_plus_version():
    assert sorted(fs.__all__) == sorted([*_table_names(), "__version__"])
    assert fs.__version__ == fs.VERSION

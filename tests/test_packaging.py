"""Distribution metadata agrees with the package."""

import importlib
import pathlib
import pkgutil
import types

import pytest

import cg_uncert

tomllib = pytest.importorskip("tomllib")

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_distribution_name_and_version():
    # the distribution is what `pip show` and importlib.metadata look up
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert project["name"] == "cg-uncert"
    assert project["version"] == cg_uncert.__version__


def test_every_export_resolves():
    # a deleted definition must not leave its name behind in an __all__ or in
    # the package namespace
    listed = {}
    for info in pkgutil.iter_modules(cg_uncert.__path__):
        mod = importlib.import_module(f"cg_uncert.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"cg_uncert.{info.name}.__all__ lists missing {name!r}"
            listed[name] = getattr(mod, name)
    public = [n for n, v in vars(cg_uncert).items()
              if not n.startswith("_") and not isinstance(v, types.ModuleType)]
    assert public
    for name in public:
        assert name in listed, f"cg_uncert.{name} is in no module's __all__"
        assert getattr(cg_uncert, name) is listed[name], name

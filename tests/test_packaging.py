"""Distribution metadata agrees with the package, the README's module map
lists its modules, and the package imports nothing beyond numpy at start-up."""

import ast
import importlib
import pathlib
import pkgutil
import re
import types

import pytest

import cg_uncert

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"
README = ROOT / "README.md"


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


def test_readme_module_map_names_every_module():
    # the map is the README's list of "- `module` — ..." entries after
    # "Module map:", up to the next heading
    text = README.read_text(encoding="utf-8")
    start = text.index("Module map:")
    section = text[start:text.index("\n#", start)]
    mapped = re.findall(r"^- `(\w+)` —", section, flags=re.M)
    modules = sorted(p.stem for p in (ROOT / "src" / "cg_uncert").glob("*.py")
                     if p.stem != "__init__")
    assert sorted(mapped) == modules


def _import_time_scipy(node) -> list:
    """Line numbers of scipy imports that run when the module is imported:
    everywhere but inside function bodies."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return []
    found = []
    if isinstance(node, ast.Import):
        found += [node.lineno for a in node.names if a.name.split(".")[0] == "scipy"]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        if (node.module or "").split(".")[0] == "scipy":
            found.append(node.lineno)
    for child in ast.iter_child_nodes(node):
        found += _import_time_scipy(child)
    return found


def test_no_module_imports_scipy_at_import_time():
    # scipy.special alone was over half of the start-up time of the CLI; the
    # few routines that still need scipy import it inside the function
    sources = sorted((ROOT / "src" / "cg_uncert").glob("*.py"))
    assert sources
    for path in sources:
        lines = _import_time_scipy(ast.parse(path.read_text(), str(path)))
        assert not lines, f"{path.name} imports scipy at import time on lines {lines}"

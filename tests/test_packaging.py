"""Distribution metadata agrees with the package, the test extra lists what
the tests import, the README's module map lists its modules and its examples
run, the package
imports no scipy at start-up or anywhere else and declares numpy as its one
dependency, only numerics takes fixed-order Gauss-Legendre panels, and the
test configuration reports a failing test as a failure."""

import ast
import contextlib
import importlib
import io
import pathlib
import pkgutil
import re
import shlex
import subprocess
import sys
import textwrap
import types

import pytest

import cg_uncert
from cg_uncert import cli

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


def test_the_test_extra_lists_what_the_tests_import():
    # the suite takes scipy as an oracle, so it belongs with the test tools
    # whether or not the runtime needs it; numpy is the one runtime package
    # the extra may leave out
    extra = tomllib.loads(PYPROJECT.read_text())["project"]["optional-dependencies"]["test"]
    declared = {re.match(r"[\w-]+", req).group(0) for req in extra}
    local = {p.stem for d in ("tests", "perfbench") for p in (ROOT / d).glob("*.py")}
    imported = set()
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - local - {"cg_uncert"}
    assert "scipy" in third_party and third_party - declared == {"numpy"}


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


def test_the_readme_examples_run():
    # each python block runs as written, and each command of the command-line
    # section, run in-process, exits 0 with output
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 2
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, str(README), "exec"), {})
    start = text.index("## Command line")
    sh = re.search(r"^```sh\n(.*?)^```", text[start:], flags=re.M | re.S).group(1)
    commands = [shlex.split(line) for line in sh.replace("\\\n", " ").splitlines()
                if line.startswith("cg-uncert ")]
    assert [argv[1] for argv in commands] == ["bounds", "kfun", "check", "region", "sample"]
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv[1:])
        assert rc == 0 and out.getvalue(), argv

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
    # scipy.special alone was over half of the start-up time of the CLI
    sources = sorted((ROOT / "src" / "cg_uncert").glob("*.py"))
    assert sources
    for path in sources:
        lines = _import_time_scipy(ast.parse(path.read_text(), str(path)))
        assert not lines, f"{path.name} imports scipy at import time on lines {lines}"


def _scipy_imports(node, where: str) -> list:
    """(dotted path of the enclosing functions, module, names) of every scipy
    import under node."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = f"{where}.{node.name}" if where else node.name
    found = []
    if isinstance(node, ast.Import):
        found += [(where, a.name, []) for a in node.names if a.name.split(".")[0] == "scipy"]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        if (node.module or "").split(".")[0] == "scipy":
            found.append((where, node.module, [a.name for a in node.names]))
    for child in ast.iter_child_nodes(node):
        found += _scipy_imports(child, where)
    return found


def test_the_package_takes_nothing_from_scipy_and_depends_on_numpy_alone():
    # every quadrature runs through numerics.adaptive_panels and the widest
    # square-well momentum bins take a far-tail series, so the package needs
    # numpy alone: scipy is an oracle of the tests, not a dependency
    sources = sorted((ROOT / "src" / "cg_uncert").glob("*.py"))
    assert sources
    found = []
    for path in sources:
        found += [(path.name, *imp) for imp in
                  _scipy_imports(ast.parse(path.read_text(), str(path)), "")]
    assert found == []
    dependencies = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    assert [re.match(r"[\w-]+", req).group(0) for req in dependencies] == ["numpy"]


def _fixed_order_uses(node) -> list:
    """Line numbers under node that import, name or call
    gauss_legendre_panels."""
    name = "gauss_legendre_panels"
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and any(a.name == name for a in sub.names):
            found.append(sub.lineno)
        elif isinstance(sub, ast.Name) and sub.id == name:
            found.append(sub.lineno)
        elif isinstance(sub, ast.Attribute) and sub.attr == name:
            found.append(sub.lineno)
    return found


def test_specfun_takes_nothing_but_the_standard_library():
    # lambda0 is summed from checked-in tables, with no eigensolve at run
    # time, so specfun needs neither numpy nor the rest of the package
    path = ROOT / "src" / "cg_uncert" / "specfun.py"
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or "").split(".")[0])
    assert imported and imported <= set(sys.stdlib_module_names), imported


def test_only_numerics_takes_fixed_order_panels():
    # every quadrature, the tail rings of the continuous functionals among
    # them, runs through numerics.adaptive_panels, which alone calls the
    # fixed-order rule; the square-well momentum masses take their nodes from
    # numerics._gl_nodes, not from fixed-order panels
    sources = sorted((ROOT / "src" / "cg_uncert").glob("*.py"))
    assert sources
    for path in sources:
        if path.stem == "numerics":
            continue
        lines = _fixed_order_uses(ast.parse(path.read_text(), str(path)))
        assert not lines, f"{path.name} uses gauss_legendre_panels on lines {lines}"


def test_a_failing_hypothesis_test_fails_the_run_without_aborting_it(tmp_path):
    # on a failure Hypothesis's pytest plugin imports libcst, which warns that
    # mypy_extensions.TypedDict is deprecated; filterwarnings = error made
    # that an INTERNALERROR (exit 3) that stopped the run and its summary
    probe = tmp_path / "test_probe.py"
    probe.write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
        """))
    r = subprocess.run([sys.executable, "-m", "pytest", "-c", str(ROOT / "pytest.ini"),
                        "--rootdir", str(tmp_path), "-p", "no:cacheprovider", str(probe)],
                       cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert r.returncode == 1, r.stdout + r.stderr
    assert "PASSED test_probe.py::test_passes" in r.stdout
    assert "FAILED test_probe.py::test_fails" in r.stdout

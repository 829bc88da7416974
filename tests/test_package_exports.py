"""The public surface of every ``repro`` package, held by value.

``package_exports.txt`` has one line per exported name, in ``__all__``
order: package, name, the module that defines it, and the object's own
``__module__`` (``-`` for constants, which have none).  How a package
comes by its exports may change; this table may not.
"""

import ast
import importlib
from pathlib import Path

import pytest

from tests.test_import_hygiene import run_fresh

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")
SNAPSHOT = (HERE / "package_exports.txt").read_text()

DEFINED_IN = {
    (package, name): module
    for package, name, module, _ in map(str.split, SNAPSHOT.splitlines())
}
PACKAGES = sorted({package for package, _ in DEFINED_IN})


def test_every_package_is_in_the_table():
    on_disk = sorted(
        ".".join(path.parent.relative_to(SRC).parts)
        for path in Path(SRC, "repro").rglob("__init__.py")
    )
    assert on_disk == PACKAGES


def test_no_package_init_imports_what_it_exports():
    # The export rule of ``repro._exports``, read off the source: a
    # package ``__init__`` imports at its top only what builds its table.
    allowed = {"__future__", "typing", "repro._exports"}
    offenders = []
    for path in sorted(Path(SRC, "repro").rglob("__init__.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}: {module}"
                for module in modules
                if module not in allowed
            ]
    assert not offenders


def test_export_table_is_unchanged():
    lines = []
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            exported = getattr(module, name)
            defined_in = DEFINED_IN.get((package, name), "?")
            if defined_in != "?":
                source = importlib.import_module(defined_in)
                assert getattr(source, name) is exported, (package, name)
            own = getattr(exported, "__module__", None) or "-"
            lines.append(f"{package} {name} {defined_in} {own}\n")
    assert "".join(lines) == SNAPSHOT


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_exactly_all(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    del namespace["__builtins__"]
    module = importlib.import_module(package)
    assert sorted(namespace) == sorted(module.__all__)
    for name, value in namespace.items():
        assert value is getattr(module, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export(package):
    module = importlib.import_module(package)
    listed = dir(module)
    assert listed == sorted(listed)
    assert set(module.__all__) | {"__name__", "__doc__", "__path__"} <= set(listed)


def test_a_submodule_nobody_imported_resolves_by_attribute():
    # ``import repro`` alone, then plain attribute access down to
    # modules the caller never named in an import statement.
    script = (
        "import sys, repro\n"
        "for dotted in ('core.solver', 'grid.host', 'models.sisc',"
        " 'problems.heat'):\n"
        "    found = repro\n"
        "    for part in dotted.split('.'):\n"
        "        found = getattr(found, part)\n"
        "    assert found is sys.modules['repro.' + dotted], dotted\n"
        "assert repro.core.solver.run_aiac is repro.run_aiac\n"
        "print('ok')\n"
    )
    run_fresh(script)

"""``src/repro`` ships what its entry points reach.

The entry points are what a user or CI runs: ``python -m repro`` (the
CLI verbs, ``SWEEP_VERBS`` and the serve daemon behind them), the
benchmark under ``bench/``, the sweep benchmark under ``benchmarks/``,
the scripts under ``examples/``, and the inline scripts of the CI
workflow.  Tests are not entry points: a def only tests call is a test
helper shipped as product, and belongs under ``tests/``
(``tests/oracles.py``) or nowhere.

The call graph is read off the AST by name, which over-approximates —
reading a name reaches every def of that name in every loaded module —
so a def reported here is certainly unreached:

* a module is loaded when reached code imports it: directly, through a
  package's lazy export table (``repro._exports``), or as the module of
  a ``"module:attribute"`` string; its module-level statements run;
* a top-level def or class of a loaded module is reached when reached
  code reads its name: as an identifier, an attribute, an imported name
  or a string constant that is exactly the name;
* a method is reached when its class is and its name is read, when it is
  a dunder, or when the standard library calls it (``STDLIB_HOOKS``).

``unreached_defs.txt`` lists what stays unreached on purpose, each with
its reason; it may only shrink.  A def that drops out of reach fails the
test until it is deleted or listed.
"""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path

import pytest
import yaml

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.__main__", "repro.cli")
ENTRY_SCRIPTS = ("bench/*.py", "benchmarks/*.py", "examples/*.py")
CI_WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
#: Methods the standard library calls on a subclass, by name.
STDLIB_HOOKS = {"handle"}  # socketserver.BaseRequestHandler
LISTED = Path(__file__).with_name("unreached_defs.txt")

_FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEF = (*_FUNCTION, ast.ClassDef)


class _Reads(ast.NodeVisitor):
    """The names and ``repro`` modules a piece of code reads."""

    def __init__(self) -> None:
        self.names: set[str] = set()
        self.modules: set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        self.names.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.names.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            module, _, name = node.value.rpartition(":")
            if module.startswith("repro"):
                self.modules.add(module)
            if name.isidentifier():
                self.names.add(name)

    def visit_Expr(self, node: ast.Expr) -> None:
        if not isinstance(node.value, ast.Constant):  # a docstring
            self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        self.modules.update(alias.name for alias in node.names)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.names.update(alias.name for alias in node.names)
        if not node.level:  # src/ imports absolutely; a relative one is a script's
            self.modules.add(node.module)
            self.modules.update(f"{node.module}.{a.name}" for a in node.names)


def _reads(*nodes: ast.AST) -> _Reads:
    reads = _Reads()
    for node in nodes:
        reads.visit(node)
    return reads


class _Def:
    """One top-level def or class, or one method, and what it reads."""

    def __init__(self, module: str, node: ast.AST, owner: "_Def | None") -> None:
        self.module, self.owner, self.name = module, owner, node.name
        self.key = f"{module}:{owner.name + '.' if owner else ''}{node.name}"
        if isinstance(node, ast.ClassDef):  # its methods are their own defs
            body = [s for s in node.body if not isinstance(s, _FUNCTION)]
            self.reads = _reads(*node.bases, *node.decorator_list, *body)
        else:
            self.reads = _reads(node)


def _parse_src():
    """``{module: (module-level reads, lazy export table)}`` and the defs."""
    modules, defs = {}, []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        top, table = [], {}
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, _DEF):
                owner = _Def(module, stmt, None)
                defs.append(owner)
                if isinstance(stmt, ast.ClassDef):
                    defs += [
                        _Def(module, s, owner)
                        for s in stmt.body
                        if isinstance(s, _FUNCTION)
                    ]
            elif (
                isinstance(stmt, ast.Assign)
                and isinstance(stmt.value, ast.Call)
                and getattr(stmt.value.func, "id", "") == "lazy_exports"
            ):
                table = ast.literal_eval(stmt.value.args[1])
            elif not (
                isinstance(stmt, ast.Assign)
                and getattr(stmt.targets[0], "id", "") == "__all__"
            ):
                top.append(stmt)
        modules[module] = (_reads(*top), table)
    return modules, defs


def ci_runs(workflow: Path = CI_WORKFLOW) -> list[str]:
    """Every step's ``run``, read as YAML the way the CI service reads the
    workflow, so a file it would reject fails here too."""
    jobs = yaml.safe_load(workflow.read_text())["jobs"]
    return [step.get("run", "") for job in jobs.values() for step in job["steps"]]


def ci_scripts(workflow: Path = CI_WORKFLOW) -> list[str]:
    """The Python the workflow's steps run: the ``python - <<'EOF'``
    heredocs and ``python -c "..."`` bodies of every ``run``."""
    scripts = []
    for run in ci_runs(workflow):
        scripts += re.findall(r"python - <<'EOF'\n(.*?)\n *EOF$", run, re.S | re.M)
        scripts += re.findall(r'python -c "(.*?)"', run)
    return [textwrap.dedent(script) for script in scripts]


def unreached(entry_scripts=ENTRY_SCRIPTS) -> set[str]:
    """Keys (``module:qualname``) of the defs no entry point reaches."""
    modules, defs = _parse_src()
    names: set[str] = set()
    wanted = set(ENTRY_MODULES)
    for pattern in entry_scripts:
        for path in sorted(ROOT.glob(pattern)):
            reads = _reads(ast.parse(path.read_text()))
            names |= reads.names
            wanted |= reads.modules
    for script in ci_scripts():
        reads = _reads(ast.parse(script))
        names |= reads.names
        wanted |= reads.modules

    loaded: set[str] = set()
    reached: set[_Def] = set()
    changed = True
    while changed:
        changed = False
        for module in sorted(wanted - loaded):
            if module in modules:
                loaded.add(module)
                reads, _ = modules[module]
                names |= reads.names
                wanted |= reads.modules
                wanted.add(module.rpartition(".")[0])  # its package
                changed = True
        for package in loaded:
            table = modules[package][1]
            lazy = {f"{package}.{table[n]}" for n in table.keys() & names}
            changed |= not lazy <= wanted
            wanted |= lazy
        for d in defs:
            if d in reached or d.module not in loaded:
                continue
            if d.owner is None:
                hit = d.name in names
            else:
                hit = d.owner in reached and (
                    d.name in names
                    or d.name in STDLIB_HOOKS
                    or (d.name.startswith("__") and d.name.endswith("__"))
                )
            if hit:
                reached.add(d)
                names |= d.reads.names
                wanted |= d.reads.modules
                changed = True
    return {
        d.key
        for d in defs
        if d not in reached and (d.owner is None or d.owner in reached)
    }


def _listed() -> set[str]:
    lines = LISTED.read_text().splitlines()
    return {line.split()[0] for line in lines if line and not line.startswith("#")}


def test_src_ships_only_what_an_entry_point_reaches():
    found, listed = unreached(), _listed()
    assert not found - listed, (
        "unreached from every entry point: delete these (or move a test "
        f"oracle to tests/oracles.py): {sorted(found - listed)}"
    )
    assert not listed - found, (
        f"reached now: drop them from {LISTED.name}: {sorted(listed - found)}"
    )


def test_a_def_only_a_dropped_entry_point_calls_is_reported():
    # The analysis is not vacuous: ``numerics.newton.newton_batched_2x2``
    # runs only under ``bench/``, so without those scripts it is unreached.
    assert "repro.numerics.newton:newton_batched_2x2" not in unreached()
    without = unreached(tuple(p for p in ENTRY_SCRIPTS if p != "bench/*.py"))
    assert "repro.numerics.newton:newton_batched_2x2" in without


def test_ci_scripts_come_from_the_parsed_workflow(tmp_path):
    # Every inline script of every step is read: none is lost to a
    # pattern that stopped matching.
    calls = sum(
        run.count("python - <<'EOF'") + run.count('python -c "') for run in ci_runs()
    )
    assert calls and len(ci_scripts()) == calls
    # A plain-scalar ``run`` holding ": " is a YAML error, for which the
    # CI service rejects the whole workflow: it fails here too.
    broken = tmp_path / "ci.yml"
    broken.write_text(
        "jobs:\n  test:\n    steps:\n"
        "      - run: python -c \"assert s.startswith('compiled: ')\"\n"
    )
    with pytest.raises(yaml.YAMLError, match="mapping values are not allowed"):
        ci_scripts(broken)

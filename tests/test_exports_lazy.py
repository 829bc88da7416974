"""``repro._exports.lazy_exports`` on a throwaway package.

The real packages are long since loaded in this process, so the rule is
exercised on one written to ``tmp_path``; ``test_package_exports.py``
holds what the real ones export.
"""

import importlib
import sys
import threading

import pytest

INIT = """
from repro._exports import lazy_exports

EAGER = "eager"

__getattr__, __dir__, __all__ = lazy_exports(
    globals(),
    {"Thing": "slow", "CONSTANT": "slow", "Unbuildable": "broken"},
)
"""

# Slow enough that every thread of the race below arrives mid-import.
SLOW = """
import time

CONSTANT = ("a", "b")
time.sleep(0.2)


class Thing:
    pass
"""


@pytest.fixture
def package(tmp_path, monkeypatch):
    root = tmp_path / "lazypkg"
    root.mkdir()
    (root / "__init__.py").write_text(INIT)
    (root / "slow.py").write_text(SLOW)
    (root / "broken.py").write_text("import lazypkg_missing_dependency\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield importlib.import_module("lazypkg")
    for name in [n for n in sys.modules if n.split(".")[0] == "lazypkg"]:
        del sys.modules[name]


def test_importing_the_package_imports_no_export(package):
    assert "lazypkg.slow" not in sys.modules
    assert package.__all__ == ["Thing", "CONSTANT", "Unbuildable"]
    assert {"Thing", "CONSTANT", "EAGER", "__name__"} <= set(dir(package))


def test_an_export_is_imported_on_first_read_and_cached(package):
    thing = package.Thing
    assert thing is sys.modules["lazypkg.slow"].Thing
    assert vars(package)["Thing"] is thing
    assert "CONSTANT" not in vars(package)
    from lazypkg import CONSTANT

    assert CONSTANT == ("a", "b")


def test_a_submodule_resolves_by_attribute(package):
    assert package.slow is sys.modules["lazypkg.slow"]


def test_an_unknown_name_is_an_attribute_error(package):
    with pytest.raises(AttributeError, match="'lazypkg' has no attribute 'nope'"):
        package.nope
    assert not hasattr(package, "__wrapped__")
    with pytest.raises(ImportError):
        from lazypkg import nope  # noqa: F401


@pytest.mark.parametrize("name", ["Unbuildable", "broken"])
def test_a_failing_import_inside_a_submodule_is_not_masked(package, name):
    with pytest.raises(ModuleNotFoundError) as excinfo:
        getattr(package, name)
    assert excinfo.value.name == "lazypkg_missing_dependency"


def test_threads_racing_for_one_cold_export_get_one_whole_module(package):
    # The daemon's case: the dispatcher's first job and a handler thread
    # both need a name nobody has read yet.
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    seen: list = []
    errors: list = []

    def resolve():
        try:
            barrier.wait(timeout=10.0)
            thing = package.Thing
            seen.append((thing, sys.modules["lazypkg.slow"].CONSTANT))
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=resolve) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert len(seen) == n_threads
    assert {id(thing) for thing, _ in seen} == {id(package.Thing)}
    assert {constant for _, constant in seen} == {("a", "b")}

"""The one rule by which a ``repro`` package exports names (PEP 562).

A package ``__init__`` lists its public names against the submodule that
defines each and imports none of them; a name is imported when it is
first read, so a process loads what its verb runs.
"""

from importlib import import_module


def lazy_exports(package: dict, exports: dict[str, str]):
    """``__getattr__``, ``__dir__`` and ``__all__`` of one package.

    ``package`` is the package's ``globals()``; ``exports`` maps a public
    name to its defining module, relative to the package.  A name not in
    the table resolves as a submodule of the package.  What resolves is
    cached in ``package``, so the hook runs once per name.
    """
    prefix = package["__name__"] + "."

    def __getattr__(name: str):
        if name in exports:
            module = import_module(prefix + exports[name])
            value = package[name] = getattr(module, name)
            return value
        try:
            return import_module(prefix + name)
        except ModuleNotFoundError as exc:
            if exc.name != prefix + name:
                raise  # the submodule exists; an import inside it failed
            raise AttributeError(
                f"module {package['__name__']!r} has no attribute {name!r}"
            ) from None

    def __dir__():
        return sorted({*package, *exports})

    return __getattr__, __dir__, list(exports)

"""Two-slit interference with an imperfect which-way detector.

The package decomposes the detector into unambiguous path flags plus a
discrimination-failure state, and shows how the resulting branches carry
the loss of fringe visibility as random half-fringe momentum kicks.

The package exports every public name of its library modules, as each
module's ``__all__`` lists it.  The names load on first use: importing the
package loads none of its modules, nor numpy, until one of its names or
``__all__`` is first read.  So `kickscope.cli` can set up its process
before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_LIBRARY = ("errors", "hilbert", "wavepacket", "experiment")


def _load() -> None:
    # Binds every exported name, ``__all__`` and the library modules here,
    # so later reads find them without calling ``__getattr__``.
    modules = [importlib.import_module(f"{__name__}.{name}") for name in _LIBRARY]
    exports = {name: getattr(module, name) for module in modules for name in module.__all__}
    globals().update(exports, __all__=list(exports))


def __getattr__(name: str):
    if name == "__all__" or not name.startswith("__"):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _load()
    return sorted(globals())

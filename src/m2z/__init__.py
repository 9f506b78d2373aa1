"""Exact arithmetic for 2x2 integer matrix classes and their relatives:
the divisibility lattice with its hyper-distance, the per-prime posets,
Conway's big picture, divisor-count Dirichlet coefficients, and the
supernatural-number classification of extensions of Q by Z.

``import m2z`` runs no library module: each is registered in ``sys.modules``
unexecuted and runs on the first access to one of its attributes.  The
package serves the ``__all__`` names of the modules in ``_PUBLIC``."""

import sys
from _thread import RLock
from importlib.util import find_spec, module_from_spec
from types import ModuleType

__version__ = "0.1.0"
_PUBLIC = ("bigpicture", "errors", "localposet", "matrices", "supernatural", "zeta")
_RUNNING = RLock()  # held through each run, so that other threads wait for a whole module


class _Unrun(ModuleType):
    def __getattribute__(self, attr):
        with _RUNNING:
            spec = ModuleType.__getattribute__(self, "__spec__")
            if spec.loader_state is None:  # the run's own accesses find it set and pass
                spec.loader_state = "run"
                try:
                    spec.loader.exec_module(self)
                except BaseException:  # a run that raised runs again on the next access
                    spec.loader_state = None
                    raise
                self.__class__ = ModuleType
        return ModuleType.__getattribute__(self, attr)


for _name in (*_PUBLIC, "primes", "record", "textout"):
    _spec = find_spec(f"{__name__}.{_name}")
    sys.modules[_spec.name] = globals()[_name] = module_from_spec(_spec)
    globals()[_name].__class__ = _Unrun


def __getattr__(name: str):
    modules = [globals()[m] for m in _PUBLIC]
    if name == "__all__":
        return [public for m in modules for public in m.__all__]
    # no private name, nor a submodule before its import (`from m2z import cli` asks first), runs a module
    if name.isidentifier() and not name.startswith("_") and not find_spec(f"{__name__}.{name}"):
        for m in modules:
            if name in m.__all__:
                return getattr(m, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

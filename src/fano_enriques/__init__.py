"""Exact arithmetic for Fano threefolds with torsion.

Hilbert series of Fano and Fano-Enriques threefolds from numerical data
(-K^3, singularity basket, torsion markings), presentation inference
from series, enumeration of admissible torsion markings, and a search
for quotient constructions over catalogs of known Fano threefolds.

Everything is exact: coefficients are rationals, comparisons are
equalities, and the two independent routes to each quantity (integer
period vs pointwise, orbifold series vs model series) are reconciled
rather than trusted individually.

Each submodule's __all__ is the one list of the names it exports, and
the package's __all__ is their union.  Importing the package loads no
submodule: a name is looked up on first access (PEP 562) by importing
the exporting submodules in dependency order until one's __all__ holds
it, so the command line can build its parser without loading the engine.
"""

from importlib import import_module

# the submodules whose __all__ the package re-exports, each after every
# submodule it imports, so a lookup loads little beyond the home it finds
_EXPORTERS = (
    "errors",
    "exact",
    "orbifold",
    "series",
    "gradedrings",
    "hilbert",
    "enumeration",
    "quotient",
    "catalog",
)
_SUBMODULES = (*_EXPORTERS, "cli")

__version__ = "0.1.0"


def _exporters():
    for name in _EXPORTERS:
        yield import_module(f".{name}", __name__)


def __getattr__(name: str):
    if name == "__all__":
        value = [export for module in _exporters() for export in module.__all__]
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        # no private name is exported, so none loads the engine
        exported = () if name.startswith("_") else _exporters()
        home = next((module for module in exported if name in module.__all__), None)
        if home is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(home, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__"), *_SUBMODULES})

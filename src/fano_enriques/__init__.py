"""Exact arithmetic for Fano threefolds with torsion.

Hilbert series of Fano and Fano-Enriques threefolds from numerical data
(-K^3, singularity basket, torsion markings), presentation inference
from series, enumeration of admissible torsion markings, and a search
for quotient constructions over catalogs of known Fano threefolds.

Everything is exact: coefficients are rationals, comparisons are
equalities, and the two independent routes to each quantity (integer
period vs pointwise, orbifold series vs model series) are reconciled
rather than trusted individually.

Importing the package loads no submodule: each name below, and each
submodule, is imported on first access (PEP 562), so the command line
can build its parser without loading the engine.
"""

from importlib import import_module

# every exported name, by the submodule that defines it
_EXPORTS = {
    "errors": (
        "CatalogError",
        "EngineError",
        "IncompatibleSeriesError",
        "InconsistentDataError",
        "InconsistentMarkingError",
        "InferenceFailureError",
        "InternalConsistencyError",
        "InvalidModulusError",
        "MalformedInputError",
        "NonInvertibleFactorError",
        "NotTerminalError",
        "OutOfRangeError",
        "UnnormalizedResidualError",
    ),
    "exact": (
        "MAX_TORSION",
        "Rational",
        "format_rational",
        "is_integer",
        "parse_rational",
        "units",
    ),
    "orbifold": (
        "SMOOTH",
        "Basket",
        "MarkedSingularity",
        "SingularityType",
        "forced_preimage",
        "inverse_weight",
        "normalize_type",
        "preimage_singularity",
        "terminal_sum",
    ),
    "series": ("Bidegree", "BigradedSeries"),
    "hilbert": (
        "FanoData",
        "FanoEnriquesData",
        "altinok_series",
        "bigraded_series",
        "parity_defect",
        "pfaffian_series",
        "torsion_delta_at",
        "torsion_delta_series",
        "wci_series",
    ),
    "gradedrings": ("Presentation", "infer_presentation", "presentation_series"),
    "enumeration": (
        "MAX_INDEX",
        "BtCandidate",
        "RestrictionReport",
        "canonicalize",
        "check_restrictions",
        "enumerate_bt",
    ),
    "quotient": (
        "CROSS_CODIMENSION",
        "CoverRecord",
        "QuotientCandidate",
        "Rejection",
        "SearchResult",
        "match_cover",
        "search",
    ),
    "catalog": (
        "bundled_catalog",
        "bundled_json",
        "load_catalog",
        "resolve_catalog",
        "save_catalog",
        "verify_fixtures",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

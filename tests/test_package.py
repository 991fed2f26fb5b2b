"""The package namespace: every export resolves on first access to the
object its home module defines."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import fano_enriques
from fano_enriques import errors

# each name the package exports, with the submodule that defines it
HOMES = {
    **dict.fromkeys(
        [
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
        ],
        "errors",
    ),
    **dict.fromkeys(
        [
            "MAX_TORSION",
            "Rational",
            "format_rational",
            "is_integer",
            "parse_rational",
            "units",
        ],
        "exact",
    ),
    **dict.fromkeys(
        [
            "SMOOTH",
            "Basket",
            "MarkedSingularity",
            "SingularityType",
            "compose_actions",
            "forced_preimage",
            "inverse_weight",
            "normalize_type",
            "preimage_singularity",
            "terminal_sum",
        ],
        "orbifold",
    ),
    **dict.fromkeys(["Bidegree", "BigradedSeries"], "series"),
    **dict.fromkeys(
        [
            "FanoData",
            "FanoEnriquesData",
            "altinok_series",
            "bigraded_series",
            "parity_defect",
            "pfaffian_series",
            "torsion_delta_at",
            "torsion_delta_series",
            "wci_series",
        ],
        "hilbert",
    ),
    **dict.fromkeys(["Presentation", "infer_presentation", "presentation_series"], "gradedrings"),
    **dict.fromkeys(
        [
            "MAX_INDEX",
            "BtCandidate",
            "RestrictionReport",
            "canonicalize",
            "check_restrictions",
            "enumerate_bt",
        ],
        "enumeration",
    ),
    **dict.fromkeys(
        [
            "CROSS_CODIMENSION",
            "CoverRecord",
            "QuotientCandidate",
            "Rejection",
            "SearchResult",
            "match_cover",
            "search",
        ],
        "quotient",
    ),
    **dict.fromkeys(
        [
            "bundled_catalog",
            "bundled_json",
            "load_catalog",
            "resolve_catalog",
            "save_catalog",
            "verify_fixtures",
        ],
        "catalog",
    ),
}
SUBMODULES = sorted({*HOMES.values(), "cli"})


def test_all_lists_exactly_the_exports():
    assert sorted(fano_enriques.__all__) == sorted(HOMES)


@pytest.mark.parametrize("name", sorted(HOMES))
def test_export_is_its_home_modules_object(name):
    home = importlib.import_module(f"fano_enriques.{HOMES[name]}")
    assert getattr(fano_enriques, name) is getattr(home, name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fano_enriques import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(HOMES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_are_attributes(name):
    assert getattr(fano_enriques, name) is importlib.import_module(f"fano_enriques.{name}")


def test_dir_lists_exports_and_submodules():
    assert set(dir(fano_enriques)) >= set(HOMES) | set(SUBMODULES) | {"__version__"}


@pytest.mark.parametrize("name", ["no_such_name", "_HOME_", "Fraction"])
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(fano_enriques, name)
    assert not hasattr(fano_enriques, name)


def test_every_raise_names_an_engine_error():
    untyped = []
    for path in sorted(Path(fano_enriques.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise):
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", None) or getattr(exc, "attr", None)
            cls = vars(errors).get(name)
            if not (isinstance(cls, type) and issubclass(cls, errors.EngineError)):
                untyped.append(f"{path.name}:{node.lineno} raises {name}")
    # the one exception: the package __getattr__ must raise AttributeError
    # for an unknown name, as the import system requires
    allowed = [u for u in untyped if re.fullmatch(r"__init__\.py:\d+ raises AttributeError", u)]
    assert len(allowed) == 1 and untyped == allowed

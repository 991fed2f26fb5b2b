"""The package namespace: every export resolves on first access to the
object its home module defines."""

import ast
import importlib
import os
import re
import subprocess
import sys
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
            "parse_rational",
        ],
        "exact",
    ),
    **dict.fromkeys(
        [
            "SMOOTH",
            "Basket",
            "MarkedSingularity",
            "SingularityType",
            "normalize_type",
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
            "pfaffian_series",
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
# helpers that left the API: each is still a name of its home module, where
# the engine and the benchmark's tracer find it, but the package exports none
HELPERS = {
    **dict.fromkeys(["is_integer", "units"], "exact"),
    **dict.fromkeys(
        ["forced_preimage", "inverse_weight", "preimage_singularity", "terminal_sum"], "orbifold"
    ),
    **dict.fromkeys(["parity_defect", "torsion_delta_at"], "hilbert"),
    **dict.fromkeys(["RestrictionReport", "canonicalize"], "enumeration"),
}
SUBMODULES = sorted({*HOMES.values(), "cli"})


def test_all_lists_exactly_the_exports():
    assert sorted(fano_enriques.__all__) == sorted(HOMES)
    assert len(HOMES) == 51


@pytest.mark.parametrize("name", sorted({**HOMES, **HELPERS}))
def test_export_is_its_home_modules_object(name):
    # an export is its home's object; a helper stays at home, unexported
    home = importlib.import_module(f"fano_enriques.{HOMES.get(name) or HELPERS[name]}")
    if name in HOMES:
        assert getattr(fano_enriques, name) is getattr(home, name)
    else:
        assert hasattr(home, name) and not hasattr(fano_enriques, name)


@pytest.mark.parametrize("module", sorted(set(HOMES.values())))
def test_each_modules_all_lists_exactly_its_exports(module):
    # the package re-exports each __all__, so these lists are its API
    home = importlib.import_module(f"fano_enriques.{module}")
    assert sorted(home.__all__) == sorted(name for name in HOMES if HOMES[name] == module)


def test_exporters_come_after_what_they_import():
    # a lookup imports the exporters in order, so one that came before its
    # own imports would load modules the name's home does not need
    order = fano_enriques._EXPORTERS
    assert sorted(order) == sorted(set(HOMES.values()))
    for k, module in enumerate(order):
        tree = ast.parse(Path(fano_enriques.__file__).with_name(f"{module}.py").read_text())
        imported = {node.module for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.level == 1}
        assert imported <= set(order[:k]), module


def test_star_import_binds_every_export():
    namespace = {}
    exec("from fano_enriques import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(HOMES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_are_attributes(name):
    assert getattr(fano_enriques, name) is importlib.import_module(f"fano_enriques.{name}")


def test_dir_lists_exports_and_submodules():
    assert set(dir(fano_enriques)) >= set(HOMES) | set(SUBMODULES) | {"__version__"}


@pytest.mark.parametrize("name", ["no_such_name", "_HOME_", "Fraction", "__wrapped__"])
def test_unknown_attribute_raises(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(fano_enriques, name)
    assert not hasattr(fano_enriques, name)
    assert name not in vars(fano_enriques)  # nothing cached for the name


def test_private_name_loads_no_submodule():
    # no private name is exported, so a probe for one imports nothing
    script = (
        "import sys, fano_enriques\n"
        "assert not hasattr(fano_enriques, '_HOME')\n"
        "print(sorted(m for m in sys.modules if m.startswith('fano_enriques')))\n"
    )
    src = str(Path(fano_enriques.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.stdout == "['fano_enriques']\n"


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

"""Arguments of the wrong kind: every public callable refuses them with an
EngineError, never a bare TypeError or AttributeError, and never returns.

The sweep is generated from fano_enriques.__all__ and inspect.signature.
Each callable the package defines gets every required positional argument
set to 5, then to object(); the error classes, which take any message, and
Rational, which is the standard library's Fraction, are left out.  A call
with 5 may return, since 5 is a valid value of many arguments, but one with
object() may not.  Then each optional parameter of the callables in VALID
is set to object(), the required ones holding the valid values there.
ELEMENT_CALLS are the wrong kinds one level down: an element of a
sequence, a method's argument, a JSON field.

Operator protocols are Python's own: series + 5 is a MalformedInputError,
but 5 + series is the TypeError Python raises for operands that define no
reflected operator.

Run as a script, the module makes every call in a fresh interpreter, prints
each refusal, and exits with a line per call that ended otherwise:

    python tests/test_kinds.py
"""

import inspect
import sys

import pytest

import fano_enriques
from fano_enriques.errors import EngineError
from fano_enriques.gradedrings import pfaffian_numerator

WRONG_KINDS = ("5", "object()")

# valid required arguments of the callables whose options are swept
VALID = {
    "enumerate_bt": "2",
    "check_restrictions": 'BtCandidate(2, Basket.parse("1/2(1,1,1)_1"))',
    "infer_presentation": "BigradedSeries.one(1, 3)",
    "search": "[], []",
}

ELEMENT_CALLS = [
    "Basket(5)",
    "normalize_type(5.0, (1, 2, 3))",
    "normalize_type(5, (1.0, 2, 3))",
    "Basket.parse(None)",
    "BigradedSeries.polynomial(1, 3, [(1, 2)])",
    'wci_series((1, 1, 1, 1, 1), "4", 5)',
    "wci_series(5, (4,), 5)",
    "pfaffian_series((1,) * 7, 5, 5)",
    "presentation_series(5, [], 1, 3)",
    "presentation_series([Bidegree(1)], 5, 1, 3)",
    "BigradedSeries.polynomial(1, 3, 5)",
    "BigradedSeries.polynomial(1, 3, [5])",
    "BigradedSeries.polynomial(1, 3, [(1, Bidegree(1), 2)])",
    "BigradedSeries.one(2, 5).peel(5)",
    "BigradedSeries.one(2, 5).divide_factor((1, 0))",
    "pfaffian_numerator(5, Bidegree(4), 1, 3)",
    "pfaffian_numerator([Bidegree(1)] * 5, 4, 1, 3)",
    "pfaffian_numerator([1] * 5, Bidegree(4), 1, 3)",
    'Presentation(5, (), "clean")',
    "BigradedSeries.one(1, 3) + 5",
    'Basket.from_json([{"r": 2}])',
    "Basket.from_json(5)",
    "Basket.from_json([5])",
    "FanoEnriquesData.from_json({})",
    "FanoEnriquesData.from_json(5)",
    "CoverRecord.from_json({})",
    'CoverRecord.from_json({"name": ["x"], "weights": [1] * 5, "degrees": [4], "minusK3": 4})',
    "enumerate_bt(2, strict_chi=5)",
    "search([5], [])",
    "BigradedSeries(1, [5])",
    "BigradedSeries(1, 5)",
    'BigradedSeries.one(1, 3).coefficient("a")',
    "BigradedSeries.one(1, 3).component(object())",
    'Basket.parse("1/2(1,1,1)") + 5',
    'Basket.from_json([{"r": 2, "a": 1, "l": 0.5}])',
    "SearchResult([5])",
    "SearchResult([], [5])",
]


def public_callables():
    """(name, callable) for each callable the package exports and defines."""
    for name in fano_enriques.__all__:
        value = getattr(fano_enriques, name)
        if isinstance(value, type) and issubclass(value, Exception):
            continue
        if callable(value) and value.__module__.startswith("fano_enriques."):
            yield name, value


def calls() -> list[tuple[str, bool]]:
    """Each call of the sweep as (text, whether it may return)."""
    out = []
    for name, value in public_callables():
        parameters = inspect.signature(value).parameters.values()
        required = [p for p in parameters if p.default is p.empty and p.kind in (
            p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        if required:
            out += [(f"{name}({', '.join([kind] * len(required))})", kind == "5")
                    for kind in WRONG_KINDS]
        if name in VALID:
            out += [(f"{name}({VALID[name]}, {p.name}=object())", False)
                    for p in parameters if p.default is not p.empty]
    return out + [(call, False) for call in ELEMENT_CALLS]


def namespace() -> dict:
    """What the calls read: the package's exports and pfaffian_numerator."""
    names = {name: getattr(fano_enriques, name) for name in fano_enriques.__all__}
    return dict(names, pfaffian_numerator=pfaffian_numerator)


def outcome(call: str, may_return: bool) -> tuple[bool, str]:
    """Whether the call ended as it should, and how it ended."""
    try:
        eval(call, namespace())
    except EngineError as exc:
        return True, f"{call}: {type(exc).__name__}: {exc}"
    except Exception as exc:
        return False, f"{call}: bare {type(exc).__name__}: {exc}"
    return may_return, f"{call}: returned"


def test_the_sweep_reaches_every_callable_that_takes_an_argument():
    # the 51 exports less 13 error classes, 4 constants and Rational
    assert len(list(public_callables())) == 33
    swept = {call.partition("(")[0] for call, _ in calls()}
    assert {name for name, _ in public_callables()} - swept == {"verify_fixtures"}


@pytest.mark.parametrize("call, may_return", [pytest.param(*c, id=c[0]) for c in calls()])
def test_wrong_kind_ends_in_an_engine_error(call, may_return):
    ok, ending = outcome(call, may_return)
    assert ok, ending


def test_operator_protocol_errors_are_pythons_own():
    series = fano_enriques.BigradedSeries.one(1, 3)
    with pytest.raises(TypeError):
        5 + series
    with pytest.raises(fano_enriques.MalformedInputError):
        series + 5


if __name__ == "__main__":
    endings = [outcome(call, may_return) for call, may_return in calls()]
    print("\n".join(ending for ok, ending in endings if ok))
    bad = [ending for ok, ending in endings if not ok]
    if bad:
        sys.exit("\n".join(bad))

"""Exact arithmetic helpers, the engine's kind and range checks, its input readers.

All computations in this package are over Q; floating point never
appears.  Rational is an alias for the stdlib Fraction, re-exported so
the rest of the code has a single import site should the representation
ever need to change.  Modular arithmetic is the standard library's: a
residue is `a % r` and an inverse `pow(a, -1, r)`; only the unit group
(units) and its modulus check live here.

The module imports nothing of the engine but its errors, so the command
line parser can read MAX_TORSION from here without loading a builder.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction as Rational
from math import gcd

from .errors import (
    CatalogError,
    InvalidModulusError,
    MalformedInputError,
    OutOfRangeError,
)

__all__ = [
    "MAX_TORSION",
    "Rational",
    "parse_rational",
    "format_rational",
]

# R3 of the census (a fixed point of the covering) bounds the torsion order
MAX_TORSION = 24
MAX_TRUNC = 10**5  # the longest truncation, far past any golden's or benchmark's


def units(r: int) -> list[int]:
    """Units of Z/r in increasing order."""
    if type(r) is not int or r <= 0:
        raise InvalidModulusError(f"modulus must be a positive integer, got {r!r}")
    if r == 1:
        return [0]
    return [u for u in range(1, r) if gcd(u, r) == 1]


def instance(name: str, value, *kinds: type):
    """value itself when it is of one of the kinds (a bool is no int), else
    MalformedInputError naming it: the one kind rule of the public callables."""
    if isinstance(value, kinds) and (type(value) is not bool or bool in kinds):
        return value
    listing = " or ".join(kind.__name__ for kind in kinds)
    raise MalformedInputError(f"{name} must be {listing}, got {value!r}")


def nonnegative(name: str, value: int) -> int:
    """value itself, or OutOfRangeError naming it when it is not an int (a
    bool is none) or is negative."""
    if type(value) is not int:
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise OutOfRangeError(f"{name} must be >= 0, got {value}")
    return value


def listed(name: str, value) -> tuple:
    """value as a tuple, or MalformedInputError naming it when it is no
    iterable: a builder's weights, degrees, bidegrees or terms."""
    if not isinstance(value, Iterable):
        raise MalformedInputError(f"{name} must be a sequence, got {value!r}")
    return tuple(value)


def truncation(name: str, value: int) -> int:
    """A series truncation: an int within [0, MAX_TRUNC], else OutOfRangeError,
    before any list of its coefficients is asked for."""
    if nonnegative(name, value) > MAX_TRUNC:
        raise OutOfRangeError(f"{name} must be <= {MAX_TRUNC}, got {value}")
    return value


def torsion_order(r: int) -> int:
    """A torsion order: r itself when it is an int (not a bool) in
    [2, MAX_TORSION], else OutOfRangeError.  The one check of the order,
    for BtCandidate, enumerate_bt and FanoEnriquesData alike."""
    if type(r) is not int:
        raise OutOfRangeError(f"torsion order must be an integer, got {r!r}")
    if not 2 <= r <= MAX_TORSION:
        raise OutOfRangeError(f"torsion order {r} outside [2, {MAX_TORSION}]")
    return r


def is_integer(q: Rational) -> bool:
    return q.denominator == 1


def parse_rational(text: str) -> Rational:
    """Parse 'p/q' or 'p' into a Rational.  Whitespace around tokens is fine."""
    text = instance("rational text", text, str)
    try:
        return Rational(text.strip())
    except (ValueError, ZeroDivisionError):
        raise MalformedInputError(f"not a finite rational number: {text!r}") from None


def exact_rational(value: Rational) -> Rational:
    """A rational argument of the library, read exactly: an int or a
    Fraction.  A float would be taken at its binary value (0.1 as
    3602879701896397/36028797018963968) and a bool is no number, so both
    are refused, as rational_from_json refuses them in JSON."""
    if type(value) in (int, Rational):
        return Rational(value)
    raise MalformedInputError(f"not an exact rational: {value!r}; pass an int or a Fraction")


def rational_from_json(value) -> Rational:
    """A rational field of parsed JSON, read exactly: an int, or a 'p/q' (or
    'p') string.  A JSON float has already been rounded to binary when it
    is parsed (12345678901234567891.0 arrives as 1.2345678901234567e+19,
    1e-400 as 0.0), and a bool is no number, so both are refused, like
    every other type."""
    if type(value) is int:
        return Rational(value)
    if type(value) is str:
        return parse_rational(value)
    raise MalformedInputError(
        f"not an exact rational: {value!r}; write an integer or a \"p/q\" string"
    )


def json_object(what: str, obj, *fields: str) -> dict:
    """Parsed JSON that must be an object holding the given fields: obj
    itself, else MalformedInputError naming the wrong kind or the first
    missing field."""
    if not isinstance(obj, dict):
        listing = f"{', '.join(fields[:-1])} and {fields[-1]}"
        raise MalformedInputError(
            f"{what} JSON must be an object with fields {listing}, got {type(obj).__name__}"
        )
    for field in fields:
        if field not in obj:
            raise MalformedInputError(f"{what} JSON has no field {field!r}")
    return obj


def format_rational(q: Rational) -> str:
    """Render as 'p/q', or 'p' when integral."""
    if instance("rational", q, int, Rational).denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def read_file(source, origin: str | None = None) -> str:
    """The UTF-8 text of a path, a path string, a package resource or a
    binary stream such as stdin's; what cannot be read or decoded is a
    CatalogError naming `origin`, by default the source."""
    from pathlib import Path

    try:
        if hasattr(source, "read"):
            return source.read().decode("utf-8")
        return (Path(source) if isinstance(source, str) else source).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CatalogError(f"cannot read {origin or source}: {exc}") from exc


def parse_json(text: str, origin: str):
    """JSON text as a value.  Every ValueError json.loads raises, bad syntax
    or an integer literal past the interpreter's digit limit, becomes a
    CatalogError naming `origin`."""
    import json

    try:
        return json.loads(text)
    except ValueError as exc:
        raise CatalogError(f"{origin}: invalid JSON: {exc}") from exc

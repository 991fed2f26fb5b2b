"""Truncated power series with coefficients in the group ring Z[e]/(e^r - 1).

A BigradedSeries stores r parallel coefficient rows: coeffs[i][n] is the
coefficient of e^i t^n.  The t-variable is truncated at a fixed order N,
the e-variable is exact (exponents live in Z/r).  With r = 1 this is an
ordinary truncated series, which is how the single-graded formulas are
represented throughout.

Every series the engine handles is a polynomial over a product of
binomials (1 - e^i t^n), so the container has exactly two ring operations
beyond + and -: peel multiplies by such a product and divide_factor
divides by one, each in one pass that copies the rows once and applies
every binomial in place, an O(rN) shift per factor.  There is no general
product.  polynomial is the one constructor from terms (c, Bidegree).

Coefficients are exact rationals, stored as Fractions: Hilbert series of
actual varieties have nonnegative integer entries, but the orbifold
correction terms that build them do not, so the container never asserts
integrality; hilbert_defect names the first coefficient that keeps a
series from being a Hilbert series, for the callers that need one.
__post_init__ is the one place a coefficient is normalized, once: a
Fraction passes through untouched (peel, divide_factor, +, -, collapse and
the builders all hand it Fractions), an int becomes a Fraction, and
anything inexact or not a number (a float, a bool, a string, None) is
refused with MalformedInputError rather than rounded; polynomial holds
each term's coefficient to the same rule.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .errors import (
    IncompatibleSeriesError,
    MalformedInputError,
    NonInvertibleFactorError,
    UnnormalizedResidualError,
)
from .exact import (
    Rational,
    format_rational,
    instance,
    json_object,
    listed,
    nonnegative,
    rational_from_json,
    truncation,
)

__all__ = ["Bidegree", "BigradedSeries"]

Scalar = Union[int, Rational]

_FRACTIONS = frozenset({Rational})


def _coefficient(c: Scalar) -> Rational:
    """c as a Fraction: a Fraction itself, an int converted, else refused."""
    if type(c) is Rational:
        return c
    if type(c) is int:
        return Rational(c)
    raise MalformedInputError(
        f"series coefficient must be a Fraction or an int, got {c!r}"
    )


def _modulus(r: int) -> int:
    """The grading modulus r itself: an int (not a bool) >= 1, else
    IncompatibleSeriesError."""
    if type(r) is not int:
        raise IncompatibleSeriesError(f"grading modulus must be an integer, got {r!r}")
    if r < 1:
        raise IncompatibleSeriesError(f"grading modulus must be >= 1, got {r}")
    return r


def _row(row: Iterable[Scalar]) -> tuple[Rational, ...]:
    """One coefficient row; a row of Fractions only is kept as it is."""
    row = tuple(row)
    if not _FRACTIONS.issuperset(map(type, row)):
        row = tuple(map(_coefficient, row))
    return row


@dataclass(frozen=True, order=True)
class Bidegree:
    """Degree (n, i) in Z >= 0 (t-degree) x Z/r (e-degree)."""

    n: int
    i: int = 0

    def __post_init__(self):
        nonnegative("t-degree", self.n)
        nonnegative("e-degree", self.i)

    def __str__(self):
        return f"({self.n},{self.i})"


@dataclass(frozen=True, slots=True)
class BigradedSeries:
    """Immutable truncated series in Z[[t]][e]/(e^r - 1), equal and hashed as
    (r, coeffs); slotted, so no series carries a __dict__."""

    r: int
    coeffs: tuple[tuple[Rational, ...], ...]

    def __post_init__(self):
        r = _modulus(self.r)
        try:
            rows = tuple(map(_row, self.coeffs))
        except TypeError:  # coeffs or a row is no iterable
            message = f"series rows must be a sequence of rows, got {self.coeffs!r}"
            raise MalformedInputError(message) from None
        if len(rows) != r:
            raise IncompatibleSeriesError(f"expected {r} rows, got {len(rows)}")
        if not rows[0]:
            raise IncompatibleSeriesError("rows must contain the constant term")
        if any(len(row) != len(rows[0]) for row in rows):
            raise IncompatibleSeriesError("rows must have equal length")
        object.__setattr__(self, "coeffs", rows)

    # -- construction -------------------------------------------------

    @classmethod
    def polynomial(
        cls, r: int, trunc: int, terms: Iterable[tuple[Scalar, Bidegree]]
    ) -> "BigradedSeries":
        """The sum of the terms c e^i t^n, given as (c, Bidegree(n, i)), below
        t^(trunc+1): e-degrees wrap mod r and repeated bidegrees add up.  The
        modulus and the truncation are checked before any row is built; terms
        that are no sequence, a term that is no pair and one whose degree is no
        Bidegree are each a MalformedInputError."""
        r, width = _modulus(r), truncation("trunc", trunc) + 1
        rows = [[0] * width for _ in range(r)]
        for term in listed("series terms", terms):
            try:
                c, d = term
            except (TypeError, ValueError):
                message = f"series term {term!r} is no pair (c, Bidegree)"
                raise MalformedInputError(message) from None
            if instance("series term degree", d, Bidegree).n <= trunc:
                rows[d.i % r][d.n] += _coefficient(c)
        return cls(r, rows)

    @classmethod
    def one(cls, r: int, trunc: int) -> "BigradedSeries":
        return cls.polynomial(r, trunc, [(1, Bidegree(0))])

    # -- inspection ---------------------------------------------------

    @property
    def trunc(self) -> int:
        return len(self.coeffs[0]) - 1

    def coefficient(self, n: int, i: int = 0) -> Rational:
        return self.component(i)[instance("t-degree", n, int)]

    def component(self, i: int) -> tuple[Rational, ...]:
        """Coefficient row of e^i."""
        return self.coeffs[instance("e-degree", i, int) % self.r]

    def __repr__(self):
        return f"BigradedSeries(r={self.r}, trunc={self.trunc})"

    def __str__(self):
        out = ""
        for n in range(self.trunc + 1):
            for i in range(self.r):
                c = self.coeffs[i][n]
                if c == 0:
                    continue
                factors = []
                if abs(c) != 1 or (n == 0 and i == 0):
                    factors.append(format_rational(abs(c)))
                if i:
                    factors.append("e" if i == 1 else f"e^{i}")
                if n:
                    factors.append("t" if n == 1 else f"t^{n}")
                sign = ("-" if c < 0 else "") if not out else (" - " if c < 0 else " + ")
                out += sign + "*".join(factors)
        return out or "0"

    # -- ring operations ----------------------------------------------

    def _coefficientwise(self, other: "BigradedSeries", op) -> "BigradedSeries":
        """op on each pair of coefficients, to the lesser truncation: the
        one body of + and -."""
        if self.r != instance("operand", other, BigradedSeries).r:
            raise IncompatibleSeriesError(
                f"grading moduli differ: {self.r} vs {other.r}"
            )
        return BigradedSeries(
            self.r, [list(map(op, a, b)) for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __add__(self, other: "BigradedSeries") -> "BigradedSeries":
        return self._coefficientwise(other, operator.add)

    def __sub__(self, other: "BigradedSeries") -> "BigradedSeries":
        return self._coefficientwise(other, operator.sub)

    def collapse(self) -> "BigradedSeries":
        """Set e = 1: sum the rows into a single-graded series."""
        return BigradedSeries(
            1,
            [[sum(self.coeffs[i][n] for i in range(self.r))
              for n in range(self.trunc + 1)]],
        )

    # -- the two binomial operations ------------------------------------

    def _binomials(self, factors: tuple, name: str) -> list[tuple[int, int]]:
        """Each factor as (n, i mod r), all checked before any row is copied:
        one that is no Bidegree is a MalformedInputError, one of t-degree 0
        (1 - e^i is no unit) a NonInvertibleFactorError."""
        for d in factors:
            if instance(f"{name} factor", d, Bidegree).n < 1:
                raise NonInvertibleFactorError(f"{name} factor needs t-degree >= 1")
        return [(d.n, d.i % self.r) for d in factors]

    def peel(self, *factors: Bidegree) -> "BigradedSeries":
        """Multiply by prod (1 - e^i t^n) over the factors, cancelling a
        generator of each bidegree: each factor in place on one copy of the
        rows, from the top degree down, out[k][m] = a[k][m] - a[k - i][m - n]
        reading the product of the factors before it."""
        r, rows = self.r, [list(row) for row in self.coeffs]
        for nn, i in self._binomials(factors, "peel"):
            for m in range(self.trunc, nn - 1, -1):
                for k in range(r):
                    rows[k][m] -= rows[(k - i) % r][m - nn]
        return BigradedSeries(r, rows)

    def divide_factor(self, *factors: Bidegree) -> "BigradedSeries":
        """Divide by prod (1 - e^i t^n) over the factors (exact in the
        truncated ring), the mirror image of peel: each factor in place from
        the bottom degree up, out[k][m] = a[k][m] + out[k - i][m - n] reading
        the rows being built."""
        r, rows = self.r, [list(row) for row in self.coeffs]
        for nn, i in self._binomials(factors, "division"):
            for m in range(nn, self.trunc + 1):
                for k in range(r):
                    rows[k][m] += rows[(k - i) % r][m - nn]
        return BigradedSeries(r, rows)

    def first_deviation(self) -> Optional[tuple[Bidegree, Rational]]:
        """Least (n >= 1, then i) with a nonzero coefficient, or None.

        The series must be a normalized residual: constant column
        (1, 0, ..., 0).
        """
        if self.coeffs[0][0] != 1 or any(self.coeffs[i][0] != 0 for i in range(1, self.r)):
            raise UnnormalizedResidualError(
                "residual constant column is not (1, 0, ..., 0)"
            )
        for n in range(1, self.trunc + 1):
            for i in range(self.r):
                c = self.coeffs[i][n]
                if c != 0:
                    return Bidegree(n, i), c
        return None

    def hilbert_defect(self) -> Optional[tuple[Bidegree, Rational]]:
        """The first (bidegree, coefficient) that keeps this from being a
        Hilbert series, or None.

        Row by row: row i's constant term (1 for i = 0, else 0), then that
        row's coefficients, each of which must be a nonnegative integer.
        """
        for i, row in enumerate(self.coeffs):
            if row[0] != (1 if i == 0 else 0):
                return Bidegree(0, i), row[0]
            for n, c in enumerate(row):
                if c.denominator != 1 or c.numerator < 0:  # every c is a Fraction
                    return Bidegree(n, i), c
        return None

    # -- serialization --------------------------------------------------

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "trunc": self.trunc,
            "coeffs": [[format_rational(c) for c in row] for row in self.coeffs],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "BigradedSeries":
        obj = json_object("series", obj, "r", "coeffs")
        r, coeffs = instance("series JSON field r", obj["r"], int), obj["coeffs"]
        if not isinstance(coeffs, list) or not all(isinstance(row, list) for row in coeffs):
            raise MalformedInputError("series JSON field coeffs must be a list of rows")
        rows = [[rational_from_json(c) for c in row] for row in coeffs]
        series = cls(r, rows)
        if series.trunc != obj.get("trunc", series.trunc):
            raise IncompatibleSeriesError("declared truncation does not match rows")
        return series


"""Independent reference routes for the series kernel (not a test module).

The engine builds every series from two O(rN) binomial shifts,
BigradedSeries.peel and BigradedSeries.divide_factor.  This module keeps
the general O(r^2 N^2) product and the geometric-series expansion that
those shifts replaced, so the tests can check the kernel against a route
that shares none of its code.  It also keeps the series route to a
cover's -K^3 that CoverRecord.implied_k_cubed's integer arithmetic
replaced.  The file name does not match test_*.py, so pytest imports it
from the test modules but never collects it.
"""

from fractions import Fraction
from math import lcm, prod

from fano_enriques.errors import CatalogError
from fano_enriques.series import Bidegree, BigradedSeries


def _integer_rows(s: BigradedSeries, n: int) -> tuple[int, list[list[int]]]:
    """s to t^n over one common denominator d: (d, the rows times d)."""
    d = lcm(*(c.denominator for row in s.coeffs for c in row[: n + 1]))
    return d, [[c.numerator * (d // c.denominator) for c in row[: n + 1]] for row in s.coeffs]


def product(a: BigradedSeries, b: BigradedSeries) -> BigradedSeries:
    """a * b in Z[[t]][e]/(e^r - 1), truncated at the shorter operand: the
    integer rows of a and b multiplied, then divided once by both
    denominators."""
    if a.r != b.r:
        raise ValueError(f"grading moduli differ: {a.r} vs {b.r}")
    r, n = a.r, min(a.trunc, b.trunc)
    da, rows_a = _integer_rows(a, n)
    db, rows_b = _integer_rows(b, n)
    rows = [[0] * (n + 1) for _ in range(r)]
    for i, row_a in enumerate(rows_a):
        for m in range(n + 1):
            x = row_a[m]
            if not x:
                continue
            for j, row_b in enumerate(rows_b):
                out = rows[(i + j) % r]
                for k in range(n + 1 - m):
                    y = row_b[k]
                    if y:
                        out[m + k] += x * y
    d = da * db
    return BigradedSeries(r, [[Fraction(c, d) for c in row] for row in rows])


def binomial(r: int, trunc: int, d: Bidegree) -> BigradedSeries:
    """1 - e^i t^n as a truncated series."""
    return BigradedSeries.polynomial(r, trunc, [(1, Bidegree(0)), (-1, d)])


def geometric(d: Bidegree, r: int, trunc: int) -> BigradedSeries:
    """1/(1 - e^i t^n) = sum_k e^(k*i mod r) t^(k*n), truncated; n >= 1."""
    rows = [[0] * (trunc + 1) for _ in range(r)]
    for k in range(trunc // d.n + 1):
        rows[(k * d.i) % r][k * d.n] += 1
    return BigradedSeries(r, rows)


def presentation(generators, relations, r: int, trunc: int) -> BigradedSeries:
    """prod(1 - e^s t^d) over relations times the geometric series of every
    generator, multiplied out term by term."""
    total = BigradedSeries.one(r, trunc)
    for q in relations:
        total = product(total, binomial(r, trunc, q))
    for g in generators:
        total = product(total, geometric(g, r, trunc))
    return total


def series_k_cubed(cover) -> Fraction:
    """-K^3 of a CoverRecord by the series route: its r = 1 numerator to
    the top degree, times 1/(1 - t) once per codimension, summed over
    prod(weights); CatalogError if that leaves a tail past
    top - codimension, i.e. the numerator does not vanish to that order."""
    c = cover.codimension
    if cover.structure == "pfaffian":
        top = sum(cover.weights) - 1
        rows = [[0] * (top + 1)]
        rows[0][0], rows[0][top] = 1, -1
        for d in cover.degrees:
            rows[0][d] -= 1
            rows[0][top - d] += 1
        quotient = BigradedSeries(1, rows)
    else:
        top = sum(cover.degrees)
        quotient = presentation((), [Bidegree(d) for d in cover.degrees], 1, top)
    for _ in range(c):
        quotient = product(quotient, geometric(Bidegree(1), 1, top))
    coeffs = quotient.component(0)
    if any(coeffs[top - c + 1 :]):
        raise CatalogError(f"{cover.name}: numerator does not vanish to order {c} at t = 1")
    return sum(coeffs) / prod(cover.weights)

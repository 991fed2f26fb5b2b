"""Independent reference routes for the engine (not a test module).

The engine builds every series from two O(rN) binomial shifts,
BigradedSeries.peel and BigradedSeries.divide_factor.  This module keeps
the general O(r^2 N^2) product and the geometric-series expansion that
those shifts replaced, so the tests can check the kernel against a route
that shares none of its code.  It also keeps the series route to a
cover's -K^3 that CoverRecord.implied_k_cubed's integer arithmetic
replaced, and the search over the unit group that normalize_type's
modular inverses replaced.  The file name does not match test_*.py, so
pytest imports it from the test modules but never collects it.
"""

from fractions import Fraction
from math import gcd, lcm, prod

from fano_enriques.errors import CatalogError, NotTerminalError
from fano_enriques.exact import units
from fano_enriques.orbifold import SMOOTH, SingularityType
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


def normalize_type(r: int, exponents: tuple[int, int, int]):
    """1/r(x, y, z) in the form 1/r'(1, a, r'-a) by searching the unit
    group: every unit u mod r' and every exponent u sends to 1, keeping the
    least a over all of them; SMOOTH or NotTerminalError as the engine."""
    if r < 1:
        raise NotTerminalError(f"index must be positive, got {r}")
    if len(exponents) != 3:
        raise NotTerminalError(f"need exactly three exponents, got {exponents!r}")
    exps = tuple(e % r for e in exponents) if r > 1 else (0, 0, 0)
    if r == 1:
        return SMOOTH
    g = gcd(r, gcd(gcd(exps[0], exps[1]), exps[2]))
    r2 = r // g
    if r2 == 1:
        return SMOOTH
    exps = tuple((e // g) % r2 for e in exps)

    best = None
    for u in units(r2):
        w = [(u * e) % r2 for e in exps]
        for k in range(3):
            if w[k] != 1:
                continue
            c1, c2 = w[(k + 1) % 3], w[(k + 2) % 3]
            if c1 == 0 or (c1 + c2) % r2 != 0 or gcd(c1, r2) != 1:
                continue
            a = min(c1, c2)
            if best is None or a < best:
                best = a
    if best is None:
        raise NotTerminalError(
            f"1/{r}({exponents[0]},{exponents[1]},{exponents[2]}) is not terminal"
        )
    return SingularityType(r2, best)

"""Presentation inference: from a Hilbert series to generators and relations.

The series must first be a Hilbert series: infer_presentation refuses its
first BigradedSeries.hilbert_defect.  The method then walks the series
degree by degree.  A positive deviation of the residual from 1 at bidegree
(n, i) means c new generators there (peel off (1 - e^i t^n)^c, one peel);
a negative one means relations (divide the residual by the binomials, one
divide_factor).  Inference stops

* clean        -- the residual reaches 1 within the truncation,
* special      -- a generator and a relation are forced at the same
                  t-degree (with different e-degrees); the series cannot
                  decide such a model and a higher-codimension description
                  is expected, so the engine reports rather than guesses,
* inconclusive -- the next deviation lies beyond a max_degree, if given.

One wrinkle: a codimension-3 model cut out by the five Pfaffians of a
skew matrix has numerator 1 - sum t^{d_k} + sum t^{e-d_k} - t^e, whose
positive middle terms are syzygies, not generators.  After five relations
have been recorded, a positive deviation therefore first attempts to
close the numerator against that shape before anything else: the
residual is multiplied back by the five relations only then, and compared
with pfaffian_numerator, BigradedSeries.polynomial of pfaffian_terms: the
one list of that shape, which hilbert's pfaffian_series and quotient's
-K^3 also read.  No builder here has a default truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InconsistentDataError, InferenceFailureError, MalformedInputError
from .exact import is_integer, listed, nonnegative, truncation
from .series import Bidegree, BigradedSeries

__all__ = [
    "Presentation",
    "infer_presentation",
    "presentation_series",
]

MAX_LISTED = 10**4  # generators and relations in all; the searches infer a dozen


def _bidegrees(name: str, values) -> tuple:
    """values as a tuple, else MalformedInputError naming them: when they
    are no sequence, or one is no Bidegree."""
    values = listed(name, values)
    for d in values:
        if not isinstance(d, Bidegree):
            raise MalformedInputError(f"{name} entry {d!r} is no Bidegree")
    return values


@dataclass(frozen=True)
class Presentation:
    """Inferred generator and relation bidegrees for Proj of a graded ring."""

    generators: tuple[Bidegree, ...]
    relations: tuple[Bidegree, ...]
    status: str

    def __post_init__(self):
        for field in ("generators", "relations"):
            object.__setattr__(self, field, tuple(sorted(_bidegrees(field, getattr(self, field)))))
        if self.status not in ("clean", "special", "inconclusive"):
            raise MalformedInputError(f"unknown status {self.status!r}")

    @property
    def codimension(self) -> int:
        return len(self.generators) - 4

    def to_json(self) -> dict:
        return {
            "generators": [[g.n, g.i] for g in self.generators],
            "relations": [[q.n, q.i] for q in self.relations],
            "status": self.status,
            "codim": self.codimension,
        }

    def __str__(self):
        gens = " ".join(str(g) for g in self.generators) or "-"
        rels = " ".join(str(q) for q in self.relations) or "-"
        return f"generators {gens} | relations {rels} | {self.status}"


def _pfaffian_closure(residual: BigradedSeries, relations: Sequence[Bidegree]) -> Optional[int]:
    """Try to read residual * prod(1 - e^s t^d) over the 5 relations, one
    peel, as the Pfaffian numerator.

    Returns the top second degree on success, None if no match.
    """
    r, trunc = residual.r, residual.trunc
    total = sum(q.n for q in relations)
    e = total // 2
    if total % 2 or e > trunc or any(q.n > e for q in relations):
        return None
    numerator = residual.peel(*relations)
    for sbar in range(r):
        if pfaffian_numerator(relations, Bidegree(e, sbar), r, trunc) == numerator:
            return sbar
    return None


def infer_presentation(s: BigradedSeries, max_degree: Optional[int] = None) -> Presentation:
    """Deduce a weighted-projective presentation from a Hilbert series.

    Relations are recorded greedily from negative deviations, up to the series'
    truncation or to max_degree if given; status clean means the residual was
    resolved by then.  Degrees are only trustworthy up to there -- callers must
    truncate generously.  Listing over MAX_LISTED generators and relations is
    an InferenceFailureError, and an s that is no BigradedSeries a
    MalformedInputError.
    """
    if not isinstance(s, BigradedSeries):
        raise MalformedInputError(f"not a BigradedSeries: {s!r}")
    max_degree = s.trunc if max_degree is None else nonnegative("max_degree", max_degree)
    defect = s.hilbert_defect()
    if defect is not None:
        d, c = defect
        if d.n == 0:
            raise InconsistentDataError("constant term of a Hilbert series must be 1 at e^0")
        raise InconsistentDataError(f"coefficient at e^{d.i} t^{d.n} is {c}; not a Hilbert series")
    residual = s
    generators: list[Bidegree] = []
    relations: list[Bidegree] = []

    while True:
        deviation = residual.first_deviation()
        if deviation is None:
            return Presentation(tuple(generators), tuple(relations), "clean")
        d, c = deviation
        if not is_integer(c):
            raise InferenceFailureError(
                f"deviation {c} at {d} is not an integer; no graded ring fits"
            )
        c = int(c)
        if d.n > max_degree:
            return Presentation(tuple(generators), tuple(relations), "inconclusive")
        if len(generators) + len(relations) + abs(c) > MAX_LISTED:
            raise InferenceFailureError(
                f"deviation {c} at {d} is too large to list as generators or relations"
            )

        if c > 0:
            if len(relations) == 5 and _pfaffian_closure(residual, relations) is not None:
                return Presentation(tuple(generators), tuple(relations), "clean")
            generators.extend([d] * c)
            if any(q.n == d.n for q in relations):
                return Presentation(tuple(generators), tuple(relations), "special")
            residual = residual.peel(*[d] * c)
        else:
            relations.extend([d] * (-c))
            if any(g.n == d.n for g in generators):
                return Presentation(tuple(generators), tuple(relations), "special")
            residual = residual.divide_factor(*[d] * -c)


def pfaffian_terms(relations: Sequence[Bidegree], top: Bidegree, r: int) -> list:
    """Numerator of a codimension-3 model cut out by the five Pfaffians of
    a skew 5x5 matrix, relations (d, s), top = (e, sbar), as twelve terms (c, bidegree):

        1 - sum e^s t^d + sum e^{sbar - s} t^{e - d} - e^sbar t^e,

    the middle sum being the syzygies.  Every relation needs d <= e;
    relations that are no sequence of Bidegrees, or a top that is no
    Bidegree, are a MalformedInputError.
    """
    relations = _bidegrees("relations", relations)
    if not isinstance(top, Bidegree):
        raise MalformedInputError(f"top degree {top!r} is no Bidegree")
    terms = [(1, Bidegree(0)), (-1, top)]
    for q in relations:
        terms += [(-1, q), (1, Bidegree(top.n - q.n, (top.i - q.i) % r))]
    return terms


def pfaffian_numerator(
    relations: Sequence[Bidegree], top: Bidegree, r: int, trunc: int
) -> BigradedSeries:
    """pfaffian_terms as a series: the sum of their monomials to t^trunc."""
    return BigradedSeries.polynomial(r, trunc, pfaffian_terms(relations, top, r))


def presentation_series(
    generators: Sequence[Bidegree], relations: Sequence[Bidegree], r: int, trunc: int
) -> BigradedSeries:
    """The Hilbert series a presentation would have,
    prod(1 - e^s t^d) over relations / prod(1 - e^i t^n) over generators:
    1 peeled by the product over the relations, then divided by the
    product over the generators: two kernel calls, each one pass with an
    O(rN) shift per binomial.  A bidegree of t-degree 0 raises
    NonInvertibleFactorError, and generators or relations that are no
    sequence MalformedInputError."""
    generators, relations = listed("generators", generators), listed("relations", relations)
    one = BigradedSeries.one(r, truncation("trunc", trunc))
    return one.peel(*relations).divide_factor(*generators)

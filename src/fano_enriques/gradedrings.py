"""Presentation inference: from a Hilbert series to generators and relations.

The method walks the series degree by degree.  A positive deviation of the
residual from 1 at bidegree (n, i) means c new generators there (peel off
(1 - e^i t^n)^c); a negative one means relations (divide the residual by
the corresponding binomials).  Inference stops

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
with pfaffian_numerator, the one builder of that shape (hilbert's
pfaffian_series divides the same numerator by the weights).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InconsistentDataError, InferenceFailureError
from .exact import is_integer, nonnegative, truncation
from .series import Bidegree, BigradedSeries

__all__ = [
    "Presentation",
    "infer_presentation",
    "pfaffian_numerator",
    "presentation_series",
]


@dataclass(frozen=True)
class Presentation:
    """Inferred generator and relation bidegrees for Proj of a graded ring."""

    generators: tuple[Bidegree, ...]
    relations: tuple[Bidegree, ...]
    status: str

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(sorted(self.generators)))
        object.__setattr__(self, "relations", tuple(sorted(self.relations)))
        if self.status not in ("clean", "special", "inconclusive"):
            raise ValueError(f"unknown status {self.status!r}")

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


def _validate_hilbert(s: BigradedSeries):
    if s.coefficient(0, 0) != 1 or any(s.coefficient(0, i) != 0 for i in range(1, s.r)):
        raise InconsistentDataError("constant term of a Hilbert series must be 1 at e^0")
    for i in range(s.r):
        for n, c in enumerate(s.component(i)):
            if not is_integer(c) or c < 0:
                raise InconsistentDataError(
                    f"coefficient at e^{i} t^{n} is {c}; not a Hilbert series"
                )


def _pfaffian_closure(residual: BigradedSeries, relations: Sequence[Bidegree]) -> Optional[int]:
    """Try to read residual * prod(1 - e^s t^d) over the 5 relations as
    the Pfaffian numerator.

    Returns the top second degree on success, None if no match.
    """
    r, trunc = residual.r, residual.trunc
    total = sum(q.n for q in relations)
    e = total // 2
    if total % 2 or e > trunc or any(q.n > e for q in relations):
        return None
    numerator = residual
    for q in relations:
        numerator = numerator.peel(q)
    for sbar in range(r):
        if pfaffian_numerator(relations, Bidegree(e, sbar), r, trunc) == numerator:
            return sbar
    return None


def infer_presentation(s: BigradedSeries, max_degree: Optional[int] = None) -> Presentation:
    """Deduce a weighted-projective presentation from a Hilbert series.

    Relations are recorded greedily from negative deviations, up to the
    series' truncation or to max_degree if given; status clean means the
    residual was completely resolved by then.  Degrees are only
    trustworthy up to there -- callers must truncate generously.
    """
    max_degree = s.trunc if max_degree is None else nonnegative("max_degree", max_degree)
    _validate_hilbert(s)
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
        if abs(c) > sys.maxsize:
            raise InferenceFailureError(
                f"deviation {c} at {d} is too large to list as generators or relations"
            )

        if c > 0:
            if len(relations) == 5 and _pfaffian_closure(residual, relations) is not None:
                return Presentation(tuple(generators), tuple(relations), "clean")
            generators.extend([d] * c)
            if any(q.n == d.n for q in relations):
                return Presentation(tuple(generators), tuple(relations), "special")
            for _ in range(c):
                residual = residual.peel(d)
        else:
            relations.extend([d] * (-c))
            if any(g.n == d.n for g in generators):
                return Presentation(tuple(generators), tuple(relations), "special")
            for _ in range(-c):
                residual = residual.divide_factor(d)


def pfaffian_numerator(
    relations: Sequence[Bidegree], top: Bidegree, r: int, trunc: int
) -> BigradedSeries:
    """Numerator of a codimension-3 model cut out by the five Pfaffians of
    a skew 5x5 matrix, with relations (d, s) and top = (e, sbar):

        1 - sum e^s t^d + sum e^{sbar - s} t^{e - d} - e^sbar t^e,

    the middle sum being the syzygies.  Every relation needs d <= e.
    """
    e, sbar = top.n, top.i
    total = BigradedSeries.one(r, trunc) - BigradedSeries.monomial(r, trunc, top)
    for q in relations:
        total = total - BigradedSeries.monomial(r, trunc, q)
        total = total + BigradedSeries.monomial(
            r, trunc, Bidegree(e - q.n, (sbar - q.i) % r)
        )
    return total


def presentation_series(
    generators: Sequence[Bidegree],
    relations: Sequence[Bidegree],
    r: int,
    trunc: int = 20,
) -> BigradedSeries:
    """The Hilbert series a presentation would have,
    prod(1 - e^s t^d) over relations / prod(1 - e^i t^n) over generators:
    each relation peeled from 1, then each generator divided out, every
    step one O(rN) binomial shift.  A bidegree of t-degree 0 raises
    NonInvertibleFactorError."""
    total = BigradedSeries.one(r, truncation("trunc", trunc))
    for q in relations:
        total = total.peel(q)
    for g in generators:
        total = total.divide_factor(g)
    return total

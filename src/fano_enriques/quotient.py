"""Matching cyclic covers against candidate torsion data.

A Fano threefold X with a torsion divisor of order r has a degree-r
cyclic cover Y, again Fano, with -K_Y^3 = r * (-K_X^3).  Going the other
way: given a catalog threefold Y and a candidate marked basket bt, the
numerical data of a hypothetical quotient is forced.

  1. every marked point of X lifts to a computable number of points of a
     computable type on Y (smooth fibers drop out),
  2. those forced types must embed in Y's basket,
  3. whatever is left of Y's basket must split into free orbits of size
     r; one representative per orbit descends to an unmarked point of X,
  4. -K_X^3 = -K_Y^3 / r must satisfy the parity constraint against the
     assembled basket,
  5. the surviving data feeds the bigraded series, and
  6. presentation inference either produces a clean model or flags the
     candidate as special (a generator and relation in the same degree).

Step 1 is BtCandidate's forced preimage (orbifold.forced_preimage),
computed once per census entry; steps 2-4 are match_cover, which search
calls for every (cover, census entry) pair.  search drives the whole
pipeline over a catalog and a census of admissible (r, bt) at the one
truncation its caller chose, no lower than any cover's model degree: it
checks each cover's basket series to it before reading the census, infers
each presentation up to it and collects typed rejections for the pairs
that fail.  A search result serializes as the rows, special cases and
rejections `search --json` prints.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from math import comb, prod
from typing import Sequence, Union

from .enumeration import BtCandidate
from .errors import (
    CatalogError,
    InconsistentDataError,
    InferenceFailureError,
    InternalConsistencyError,
    MalformedInputError,
    OutOfRangeError,
)
from .exact import (
    Rational,
    exact_rational,
    format_rational,
    instance,
    json_object,
    listed,
    rational_from_json,
    truncation,
)
from .gradedrings import Presentation, infer_presentation, pfaffian_terms
from .hilbert import (
    FanoData,
    FanoEnriquesData,
    altinok_series,
    bigraded_series,
    pfaffian_series,
    wci_series,
)
from .orbifold import Basket, MarkedSingularity
from .series import Bidegree, BigradedSeries

__all__ = [
    "CoverRecord",
    "QuotientCandidate",
    "Rejection",
    "SearchResult",
    "match_cover",
    "search",
    "CROSS_CODIMENSION",
]

TRUNC = 24  # search's default truncation, recorded in the goldens

# diagnostic flag: inferred presentation does not live in the cover's
# weighted space, so the quotient model has a different codimension
CROSS_CODIMENSION = "cross-codimension"


@dataclass(frozen=True)
class CoverRecord:
    """A catalog Fano threefold, polarized by -K.

    Complete intersections carry their equation degrees; codimension-3
    models cut out by the Pfaffians of a skew 5x5 matrix carry the five
    Pfaffian degrees instead (structure = "pfaffian").  The model series
    comes from wci_series or pfaffian_series, which also enforce the shape
    of weights and degrees; -K^3 is read off the same numerators, with no
    series.  The basket is stored explicitly rather than derived from
    equations; search cross-checks its series against the model series
    (orbifold_series).
    """

    name: str
    weights: tuple[int, ...]
    degrees: tuple[int, ...]
    basket: Basket
    minus_k_cubed: Rational
    structure: str = "ci"
    notes: str = ""

    def __post_init__(self):
        instance("name", self.name, str)
        instance("notes", self.notes, str)
        object.__setattr__(self, "weights", listed("weights", self.weights))
        object.__setattr__(self, "degrees", listed("degrees", self.degrees))
        object.__setattr__(self, "minus_k_cubed", exact_rational(self.minus_k_cubed))
        object.__setattr__(self, "basket", Basket.coerce(self.basket))
        if self.structure not in ("ci", "pfaffian"):
            raise CatalogError(
                f"{self.name}: unknown structure {self.structure!r}"
            )
        # exactly int: int() would truncate 2.9 to 2 and load another cover
        for kind, values in (("weights", self.weights), ("degrees", self.degrees)):
            if not values or any(type(v) is not int or v < 1 for v in values):
                raise CatalogError(f"{self.name}: {kind} must be positive integers")
        # search reads only the point types, so a marking would be dropped
        marked = [e for e in self.basket if e.l]
        if marked:
            raise CatalogError(
                f"{self.name}: basket entry {marked[0]} is marked; a cover's "
                f"basket carries no torsion marking"
            )

    @property
    def codimension(self) -> int:
        return len(self.weights) - 4

    @property
    def model_degree(self) -> int:
        """The least truncation at which the model's series sees the whole
        model: its largest weight or equation degree, or for a Pfaffian
        model the top degree sum(weights) - 1 of its numerator."""
        if self.structure == "pfaffian":
            return sum(self.weights) - 1
        return max(self.weights + self.degrees)

    def series(self, trunc: int):
        """Hilbert series of the model, straight from weights and degrees."""
        if self.structure == "pfaffian":
            return pfaffian_series(self.weights, self.degrees, trunc)
        return wci_series(self.weights, self.degrees, trunc)

    def orbifold_series(self, trunc: int) -> BigradedSeries:
        """altinok_series of the declared basket and -K^3, once it equals the
        model series to t^trunc; else CatalogError naming the cover and the
        first t-degree at which the two differ."""
        try:
            model = self.series(trunc)
        except InconsistentDataError as exc:
            raise CatalogError(f"{self.name}: {exc}") from exc
        try:
            orbifold = altinok_series(FanoData(self.minus_k_cubed, self.basket), trunc)
        except InconsistentDataError as exc:
            raise CatalogError(f"{self.name}: declared basket admits no series: {exc}") from exc
        for n, (a, b) in enumerate(zip(orbifold.component(0), model.component(0))):
            if a != b:
                raise CatalogError(
                    f"{self.name}: series mismatch at t^{n}: basket gives "
                    f"{format_rational(a)}, model gives {format_rational(b)}"
                )
        return orbifold

    def implied_k_cubed(self) -> Rational:
        """-K^3 the weights and degrees force, for a record of valid shape.

        The series N(t) / prod(1 - t^w) has a pole of order 4 at t = 1, so
        N(1 - s) = sum_j mu_j s^j must have mu_j = 0 for j < c, the
        codimension; then -K^3 = mu_c / prod(weights).  With m degrees, a
        complete intersection has mu_j = 0 for j < m and mu_m = prod(degrees)
        (so mu is listed only to min(m, c)); a Pfaffian numerator
        sum_k c_k t^{a_k} (pfaffian_terms) has mu_j = (-1)^j sum_k c_k
        binom(a_k, j).  Integer arithmetic only: no degree is expanded.
        """
        c = self.codimension
        if self.structure == "pfaffian":
            relations = [Bidegree(d) for d in self.degrees]
            terms = pfaffian_terms(relations, Bidegree(sum(self.weights) - 1), 1)
            mu = [(-1) ** j * sum(k * comb(a.n, j) for k, a in terms) for j in range(c + 1)]
        else:
            m = len(self.degrees)
            mu = [prod(self.degrees) if j == m else 0 for j in range(min(m, c) + 1)]
        if any(mu[:c]):
            raise CatalogError(f"{self.name}: numerator does not vanish to order {c} at t = 1")
        return Rational(mu[c], prod(self.weights))

    def validate(self) -> list[str]:
        """Every invariant violation that needs no truncation, as strings.

        A shape the model builders refuse is reported alone, with their
        message (they refuse it before computing any coefficient);
        otherwise -K^3 is checked against the model, and -K^3 with the
        basket against FanoData, whose message names a parity failure.  The
        basket's series is checked against the model's by search, at its
        truncation.
        """
        try:
            self.series(0)
        except InconsistentDataError as exc:
            return [str(exc)]
        try:
            implied = self.implied_k_cubed()
        except CatalogError as exc:
            return [str(exc)]
        problems: list[str] = []
        if implied != self.minus_k_cubed:
            problems.append(
                f"declared -K^3 = {format_rational(self.minus_k_cubed)} but the "
                f"model forces {format_rational(implied)}"
            )
        try:
            FanoData(self.minus_k_cubed, self.basket)
        except InconsistentDataError as exc:
            problems.append(str(exc))
        return problems

    def to_json(self) -> dict:
        obj = {
            "name": self.name,
            "weights": list(self.weights),
            "degrees": list(self.degrees),
            "basket": self.basket.to_json(),
            "minusK3": format_rational(self.minus_k_cubed),
        }
        if self.structure != "ci":
            obj["structure"] = self.structure
        if self.notes:
            obj["notes"] = self.notes
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "CoverRecord":
        obj = json_object("cover", obj, "name", "weights", "degrees", "minusK3")
        return cls(
            name=obj["name"],
            weights=obj["weights"],
            degrees=obj["degrees"],
            basket=Basket.from_json(obj.get("basket", [])),
            minus_k_cubed=rational_from_json(obj["minusK3"]),
            structure=obj.get("structure", "ci"),
            notes=obj.get("notes", ""),
        )

    def __str__(self):
        w = ",".join(str(x) for x in self.weights)
        d = ",".join(str(x) for x in self.degrees)
        return f"{self.name} = ({d}) in P({w})"


@dataclass(frozen=True)
class Rejection:
    """A (cover, r, bt) triple that failed, and at which step."""

    cover: str
    r: int
    bt: Basket
    reason: str
    detail: str = ""

    REASONS = (
        "preimage-mismatch",
        "orbit-indivisible",
        "parity-fail",
        "inconsistent-data",
        "inference-failure",
    )

    def __post_init__(self):
        for field, kind in (("cover", str), ("r", int), ("bt", Basket), ("detail", str)):
            instance(field, getattr(self, field), kind)
        if self.reason not in self.REASONS:
            raise MalformedInputError(f"unknown rejection reason {self.reason!r}")

    def to_json(self) -> dict:
        return {
            "cover": self.cover,
            "r": self.r,
            "bt": self.bt.to_json(),
            "reason": self.reason,
            "detail": self.detail,
        }

    def __str__(self):
        return f"{self.cover} | r={self.r} | {self.bt} | {self.reason}: {self.detail}"


@dataclass(frozen=True)
class QuotientCandidate:
    """Numerical data of a quotient that survived matching and inference."""

    cover: CoverRecord
    data: FanoEnriquesData
    presentation: Presentation
    diagnostics: tuple[str, ...] = ()

    def __post_init__(self):
        instance("cover", self.cover, CoverRecord)
        instance("data", self.data, FanoEnriquesData)
        instance("presentation", self.presentation, Presentation)
        if self.data.minus_k_cubed * self.data.r != self.cover.minus_k_cubed:
            raise InconsistentDataError(
                f"{self.cover.name}: -K^3 = "
                f"{format_rational(self.data.minus_k_cubed)} is not "
                f"1/{self.data.r} of the cover's "
                f"{format_rational(self.cover.minus_k_cubed)}"
            )
        object.__setattr__(self, "diagnostics", listed("diagnostics", self.diagnostics))

    @property
    def status(self) -> str:
        return self.presentation.status

    def to_json(self) -> dict:
        """The candidate as a quotient golden stores a row, before any
        curated label or notes: each generator and relation is its
        bidegree (n, i), i the exponent of the torsion action."""
        return {
            "cover": self.cover.name,
            **self.data.to_json(),
            "generators": [[g.n, g.i] for g in self.presentation.generators],
            "relations": [[q.n, q.i] for q in self.presentation.relations],
            "flags": sorted(self.diagnostics),
        }

    def __str__(self):
        be = str(self.data.be) if self.data.be else "-"
        flags = f" [{', '.join(self.diagnostics)}]" if self.diagnostics else ""
        return (
            f"{self.cover.name} | r={self.data.r} | "
            f"-K^3={format_rational(self.data.minus_k_cubed)} | "
            f"bt: {self.data.bt} | be: {be} | {self.presentation}{flags}"
        )


def _same_shape(cover: CoverRecord, presentation: Presentation) -> bool:
    gens = sorted(g.n for g in presentation.generators)
    rels = sorted(q.n for q in presentation.relations)
    return gens == sorted(cover.weights) and rels == sorted(cover.degrees)


def match_cover(
    cover: CoverRecord, candidate: BtCandidate
) -> Union[FanoEnriquesData, Rejection]:
    """Assemble quotient data for the cover and a census candidate, whose
    forced preimage the candidate carries, or say why there is none."""
    instance("cover", cover, CoverRecord)
    instance("candidate", candidate, BtCandidate)
    r, bt, need = candidate.r, candidate.entries, candidate.preimage
    have = Counter(e.type for e in cover.basket)
    for s, m in sorted(need.items()):
        if have.get(s, 0) < m:
            return Rejection(
                cover.name, r, bt, "preimage-mismatch",
                f"needs {m} x {s}, cover has {have.get(s, 0)}",
            )

    residual = have - need
    be_entries: list[MarkedSingularity] = []
    for s, m in sorted(residual.items()):
        if m % r:
            return Rejection(
                cover.name, r, bt, "orbit-indivisible",
                f"{m} x {s} cannot split into free orbits of size {r}",
            )
        be_entries.extend([MarkedSingularity(s, 0)] * (m // r))

    try:
        return FanoEnriquesData(
            r, cover.minus_k_cubed / r, bt, Basket(tuple(be_entries))
        )
    except InconsistentDataError as exc:
        return Rejection(cover.name, r, bt, "parity-fail", str(exc))


class SearchResult(list):
    """List of accepted candidates; failures are kept on .rejections."""

    def __init__(
        self,
        candidates: Iterable[QuotientCandidate] = (),
        rejections: Iterable[Rejection] = (),
    ):
        super().__init__(instance("candidate", c, QuotientCandidate)
                         for c in listed("candidates", candidates))
        self.rejections = [instance("rejection", r, Rejection)
                           for r in listed("rejections", rejections)]

    def clean(self) -> list[QuotientCandidate]:
        return [c for c in self if c.status == "clean"]

    def special(self) -> list[QuotientCandidate]:
        return [c for c in self if c.status == "special"]

    def golden_json(self) -> dict:
        """The clean rows and the special cases as a quotient golden stores them."""
        return {
            "rows": [c.to_json() for c in self.clean()],
            "special_cases": [c.to_json() for c in self.special()],
        }

    def to_json(self) -> dict:
        """golden_json() and every rejection, as `search --json` prints them."""
        return {**self.golden_json(), "rejections": [rej.to_json() for rej in self.rejections]}


def search(
    catalog: Sequence[CoverRecord],
    census: Iterable[BtCandidate],
    trunc: int = TRUNC,
) -> SearchResult:
    """Try every cover against every marked basket of the census.

    trunc must reach every cover's model_degree, else an OutOfRangeError
    has one line per cover it cuts short: below it a presentation can lack
    a relation and still read clean.  Each cover's basket series must then
    equal its model series to trunc (orbifold_series), else a CatalogError
    has one line per failing cover.
    The census is any iterable of distinct BtCandidates, each carrying its
    own order r, such as enumerate_bt returns, read once after those checks;
    rejections come in census order, then catalog order.  Accepted
    candidates get a bigraded series and a presentation inferred up to the
    same truncation, so inference never stops short as inconclusive; the
    collapse of the series is checked against the cover's own series, which
    is an arithmetic identity for correctly assembled data and hence an
    engine guard, not a data filter.
    """
    truncation("trunc", trunc)
    instance("census", census, Iterable)
    catalog = [instance("catalog entry", c, CoverRecord) for c in listed("catalog", catalog)]
    short = [
        f"{cover.name}: model needs trunc >= {cover.model_degree}, got {trunc}"
        for cover in catalog if cover.model_degree > trunc
    ]
    if short:
        raise OutOfRangeError("\n".join(short))
    orbifold: list[BigradedSeries] = []
    problems: list[str] = []
    for cover in catalog:
        try:
            orbifold.append(cover.orbifold_series(trunc))
        except CatalogError as exc:
            problems.append(str(exc))
    if problems:
        raise CatalogError("\n".join(problems))

    candidates: list[QuotientCandidate] = []
    rejections: list[Rejection] = []
    for bt_candidate in census:
        r, bt = instance("census entry", bt_candidate, BtCandidate).r, bt_candidate.entries
        for cover, cover_series in zip(catalog, orbifold):
            outcome = match_cover(cover, bt_candidate)
            if isinstance(outcome, Rejection):
                rejections.append(outcome)
                continue

            try:
                series = bigraded_series(outcome, trunc)
            except InconsistentDataError as exc:
                rejections.append(
                    Rejection(cover.name, r, bt, "inconsistent-data", str(exc))
                )
                continue

            if series.collapse() != cover_series:
                raise InternalConsistencyError(
                    f"component sum for {cover.name} (r={r}, bt {bt}) "
                    f"does not reproduce the cover series"
                )

            try:
                pres = infer_presentation(series)
            except InferenceFailureError as exc:
                rejections.append(
                    Rejection(cover.name, r, bt, "inference-failure", str(exc))
                )
                continue

            diagnostics = () if _same_shape(cover, pres) else (CROSS_CODIMENSION,)
            candidates.append(QuotientCandidate(cover, outcome, pres, diagnostics))

    candidates.sort(
        key=lambda c: (c.data.r, c.cover.name, c.data.bt.entries, c.data.be.entries)
    )
    return SearchResult(candidates, rejections)

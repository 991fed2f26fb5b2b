"""Terminal cyclic quotient singularity algebra.

A point of type 1/r(w1,w2,w3) is the quotient of C^3 by the diagonal
action of the r-th roots of unity with the given weights.  The isolated
terminal ones in dimension three are exactly those reducible to the
canonical shape 1/r(1, a, r-a) with gcd(a, r) = 1 (the terminal lemma);
everything in this package, preimage fibers included, funnels through
normalize_type, which reads that normal form off by modular inverses.
A point with trivial action is SMOOTH, which is None.

Baskets are multisets of such points, optionally carrying a marking
l in [0, r): the coefficient expressing a fixed numerically trivial
divisor as l*K in the local class group at the point.  Unmarked entries
are stored with l = 0.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Sequence

from .errors import InconsistentMarkingError, MalformedInputError, NotTerminalError
from .exact import Rational, json_object, listed

__all__ = [
    "SingularityType",
    "MarkedSingularity",
    "SMOOTH",
    "Basket",
    "normalize_type",
    "inverse_weight",
    "terminal_sum",
    "preimage_singularity",
    "forced_preimage",
]


# a point whose action is trivial once its non-faithful part is divided out
SMOOTH = None


@dataclass(frozen=True, order=True)
class SingularityType:
    """Canonical terminal cyclic quotient point 1/r(1, a, r-a)."""

    r: int
    a: int

    def __post_init__(self):
        if type(self.r) is not int or type(self.a) is not int:
            raise NotTerminalError(
                f"index and weight must be integers, got {self.r!r}, {self.a!r}"
            )
        if self.r < 2:
            raise NotTerminalError(f"index must be >= 2, got {self.r}")
        # canonical weight: 1 <= a <= r/2 and a a unit mod r
        if not 1 <= self.a <= self.r // 2 or gcd(self.a, self.r) != 1:
            raise NotTerminalError(
                f"1/{self.r}(1,{self.a},{self.r - self.a}) is not in canonical terminal form"
            )

    @property
    def exponents(self) -> tuple[int, int, int]:
        return (1, self.a, self.r - self.a)

    def __str__(self):
        return f"1/{self.r}(1,{self.a},{self.r - self.a})"


@dataclass(frozen=True, order=True)
class MarkedSingularity:
    """A SingularityType plus the local torsion coefficient l in [0, r)."""

    type: SingularityType
    l: int = 0

    def __post_init__(self):
        if not isinstance(self.type, SingularityType):
            raise MalformedInputError(f"not a singularity type: {self.type!r}")
        if type(self.l) is not int:
            raise InconsistentMarkingError(f"marking must be an integer, got {self.l!r}")
        if not 0 <= self.l < self.type.r:
            raise InconsistentMarkingError(
                f"marking {self.l} out of range for {self.type}"
            )

    @property
    def d(self) -> int:
        """gcd(r, l); the index of the covering fiber point."""
        return gcd(self.type.r, self.l)

    @property
    def alpha(self) -> int:
        """r / gcd(r, l); the order of the stabilizer character at the point."""
        return self.type.r // self.d

    def __str__(self):
        if self.l == 0:
            return str(self.type)
        return f"{self.type}_{self.l}"


_POINT_RE = re.compile(
    r"^(?:(\d+)\s*x\s*)?1/(\d+)\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)(?:_(\d+))?"
    r"(?:\s*x\s*(\d+))?$"
)


@dataclass(frozen=True)
class Basket:
    """Sorted multiset of (possibly marked) terminal quotient points."""

    entries: tuple[MarkedSingularity, ...] = ()

    def __post_init__(self):
        entries = self.entries
        if isinstance(entries, str) or not isinstance(entries, Iterable):
            raise MalformedInputError(
                f"not a basket: {entries!r}; pass a Basket or a sequence of "
                f"MarkedSingularity, or read text with Basket.parse"
            )
        entries = tuple(entries)
        for e in entries:
            if not isinstance(e, MarkedSingularity):
                raise MalformedInputError(f"not a singularity entry: {e!r}")
        object.__setattr__(self, "entries", tuple(sorted(entries)))

    @classmethod
    def coerce(cls, value) -> "Basket":
        """A record's basket field: a Basket as it is, a sequence of
        MarkedSingularity as a Basket, anything else MalformedInputError."""
        return value if isinstance(value, Basket) else cls(value)

    def __iter__(self) -> Iterator[MarkedSingularity]:
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __add__(self, other: "Basket") -> "Basket":
        return Basket(self.entries + tuple(other))

    def counts(self) -> Counter:
        return Counter(self.entries)

    def __str__(self):
        if not self.entries:
            return "(empty)"
        parts = []
        for entry, k in self.counts().items():
            parts.append(str(entry) if k == 1 else f"{entry} x{k}")
        return ", ".join(parts)

    def to_json(self) -> list[dict]:
        out = []
        for e in self.entries:
            rec = {"r": e.type.r, "a": e.type.a}
            if e.l:
                rec["l"] = e.l
            out.append(rec)
        return out

    @classmethod
    def from_json(cls, records: Iterable[dict]) -> "Basket":
        """A list of {"r", "a", "l"} objects, l 0 when absent; anything else
        is a MalformedInputError."""
        entries = []
        for rec in listed("basket JSON", records):
            rec = json_object("basket entry", rec, "r", "a")
            r, a, l = rec["r"], rec["a"], rec.get("l", 0)
            # exactly int: 0.5 or true would pass the point types' range checks
            if any(type(x) is not int for x in (r, a, l)):
                raise MalformedInputError(
                    f"basket entry {rec!r}: r, a and l must be integers"
                )
            entries.append(MarkedSingularity(SingularityType(r, a), l))
        return cls(tuple(entries))

    @classmethod
    def parse(cls, text: str) -> "Basket":
        """Parse "1/2(1,1,1), 2x1/5(1,2,3)_1" (or "... x2" suffix) notation."""
        if not isinstance(text, str):
            raise MalformedInputError(f"basket text must be a string, got {text!r}")
        text = text.strip()
        if not text or text == "(empty)":
            return cls()
        # split on commas outside the exponent parentheses
        tokens = re.split(r",(?![^()]*\))", text)
        entries: list[MarkedSingularity] = []
        for token in tokens:
            token = token.strip()
            if not token:
                continue
            m = _POINT_RE.match(token)
            # a count of 0 lists no point, so it is as unreadable as a typo
            if m is None or int(m[1] or m[7] or 1) == 0:
                raise NotTerminalError(f"cannot parse basket entry {token!r}")
            pre, r, w1, w2, w3, l, post = m.groups()
            count = int(pre or post or 1)
            point = normalize_type(int(r), (int(w1), int(w2), int(w3)))
            if point is SMOOTH:
                raise NotTerminalError(f"entry {token!r} reduces to a smooth point")
            entries.extend([MarkedSingularity(point, int(l or 0))] * count)
        return cls(tuple(entries))


def normalize_type(r: int, exponents: tuple[int, int, int]) -> SingularityType | None:
    """Bring 1/r(x, y, z) to the canonical form 1/r'(1, a, r'-a).

    First the non-faithful part of the action is divided out
    (g = gcd(r, x, y, z)); a trivial remaining action yields SMOOTH.
    Then each exponent e that is a unit mod r' is tried: e^-1 is the one
    unit that sends it to 1, and when the other two exponents are units
    summing to 0 it sends them to a and r'-a.  The least such a gives the
    form; none means the point is not an isolated terminal singularity
    and raises NotTerminalError, as do an index or exponents that are no ints.
    """
    if type(r) is not int or not isinstance(exponents, Sequence) or any(
        type(e) is not int for e in exponents
    ):
        raise NotTerminalError(f"index and exponents must be integers, got {r!r}, {exponents!r}")
    if r < 1:
        raise NotTerminalError(f"index must be positive, got {r}")
    if len(exponents) != 3:
        raise NotTerminalError(f"need exactly three exponents, got {exponents!r}")
    g = gcd(r, *exponents)
    r2 = r // g
    if r2 == 1:
        return SMOOTH
    exps = [(e // g) % r2 for e in exponents]
    weights = []
    for k, e in enumerate(exps):
        b = exps[k - 1]
        if gcd(e, r2) == gcd(b, r2) == 1 and (b + exps[k - 2]) % r2 == 0:
            c = b * pow(e, -1, r2) % r2  # e^-1 sends the triple to (1, c, -c)
            weights.append(min(c, r2 - c))
    if not weights:
        raise NotTerminalError(
            f"1/{r}({exponents[0]},{exponents[1]},{exponents[2]}) is not terminal"
        )
    return SingularityType(r2, min(weights))


def inverse_weight(s: SingularityType) -> int:
    """b with a*b = 1 mod r; the weight in the 1/r(b, 1, -1) presentation."""
    return pow(s.a, -1, s.r)


def terminal_sum(points: Basket | Counter) -> Rational:
    """Sum of r - 1/r over a basket, or over a Counter of singularity types
    such as forced_preimage returns; bounded by 24 for actual Fanos."""
    types = points.elements() if isinstance(points, Counter) else (e.type for e in points)
    return sum((Rational(s.r * s.r - 1, s.r) for s in types), Rational(0))


def preimage_singularity(m: MarkedSingularity, r: int) -> tuple[int, SingularityType | None]:
    """Points of the degree-r cyclic cover lying over a marked point.

    Returns (count, fiber type).  The marking determines the stabilizer
    order alpha = r_Q/gcd(r_Q, l); alpha must divide the torsion order r,
    and the fiber consists of r/alpha identical points whose type is the
    normal form of the exponent triple mod d = gcd(r_Q, l): SMOOTH for d = 1.
    """
    alpha = m.alpha
    if r % alpha != 0:
        raise InconsistentMarkingError(
            f"{m} has stabilizer order {alpha}, incompatible with torsion order {r}"
        )
    return r // alpha, normalize_type(m.d, m.type.exponents)


def forced_preimage(bt: Basket, r: int) -> Counter:
    """Multiset of singularity types the degree-r cover must contain over bt.

    The one check of a marking against a torsion order: every entry must
    be marked (l != 0), and preimage_singularity refuses a stabilizer
    order that does not divide r.  Smooth fibers drop out; the rest of the
    cover's basket is free to be anything at this point.
    """
    out: Counter = Counter()
    for entry in bt:
        if entry.l == 0:
            raise InconsistentMarkingError(f"marked basket entry {entry} has l = 0")
        count, fiber = preimage_singularity(entry, r)
        if fiber is not SMOOTH:
            out[fiber] += count
    return out

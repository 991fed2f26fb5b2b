"""Exhaustive enumeration of admissible marked baskets.

A marked basket records where a torsion divisor of order r is non-Cartier
and how.  Five necessary conditions cut the search space down to a finite,
small list:

  R1  sum of (r_Q - 1/r_Q) over the basket is < 24,
  R2  the same bound for the forced preimage on the cyclic cover,
  R3  the covering has a fixed point: some entry has stabilizer order
      exactly r (and r <= 24, which BtCandidate enforces),
  R4  chi(-nK + i*sigma) - chi(-nK) is an integer for every i and n,
  R5  chi(i*sigma) is a nonnegative integer for every i (h^0 of a divisor
      class; the strict variant insists on 0 for i != 0).

R1 bounds both the index of any entry and the number of entries, so a
depth-first walk over nondecreasing item sequences with a running budget
is exhaustive.  Candidates are reported up to rescaling of the torsion
generator (sigma -> u*sigma multiplies every marking by u).

R3 holds by construction: the items list the witnesses (entries of
stabilizer order r) first and the rest after, each block in order of
index, so a basket with a witness starts with one, and the walk starts
every basket at a witness.  R1 costs never fall within a block, so a
frame whose item it cannot pay for ends, or, among the witnesses, goes
on at the first non-witness item.

The walk is one loop in _census over a stack of frames.  It tests R4/R5
in Python ints, from the per-entry integer delta cycles of
hilbert._delta_cycle_scaled (computed directly from the local kernel, and
the same cycles the series builders tile), memoized per order;
check_restrictions evaluates the same conditions per n through the
Fraction formula torsion_delta_at over one period, so the two are
independent routes.  Everything the walk uses (items, costs, the stack,
the chosen prefix, the baskets found and the cycle memo) is a local of
_census, freed by refcounting when it returns; only the census itself is
cached, once per process and order.  The walk records each basket's strict-R5
verdict as it admits it, and the strict census keeps the baskets whose
verdict holds.  That is exact because strict R5 implies R5 and R4/R5
are invariant under sigma -> u*sigma and under reordering entries, so
every representative of a canonical basket gets the same verdict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cache, lru_cache
from math import gcd, lcm
from typing import Callable

from .exact import MAX_TORSION, format_rational, is_integer, torsion_order, units
from .hilbert import _delta_cycle_scaled, torsion_delta_at
from .orbifold import Basket, MarkedSingularity, SingularityType, forced_preimage, terminal_sum

__all__ = [
    "MAX_INDEX",
    "BtCandidate",
    "RestrictionReport",
    "check_restrictions",
    "canonicalize",
    "enumerate_bt",
]

# R1 forces r_Q - 1/r_Q < 24, hence r_Q <= 24; R3 caps the torsion order
# at MAX_TORSION, defined in exact.py
MAX_INDEX = 24


@dataclass(frozen=True)
class BtCandidate:
    """A torsion order together with a fully marked basket.

    Construction checks the order against [2, MAX_TORSION] and every
    marking against the order (forced_preimage), and keeps the types the
    degree-r cover must contain as .preimage, which R2 and match_cover
    read.  Census candidates are cached and shared, so .preimage is
    read-only.
    """

    r: int
    entries: Basket
    preimage: Counter = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        torsion_order(self.r)
        object.__setattr__(self, "entries", Basket.coerce(self.entries))
        object.__setattr__(self, "preimage", forced_preimage(self.entries, self.r))

    def __str__(self):
        return f"r={self.r} | {self.entries}"


@dataclass
class RestrictionReport:
    """Pass/fail per restriction, with the offending value on failure."""

    results: dict[str, tuple[bool, str]]

    @property
    def admissible(self) -> bool:
        return all(passed for passed, _ in self.results.values())

    def __getitem__(self, key: str) -> tuple[bool, str]:
        return self.results[key]

    def failures(self) -> list[str]:
        return [k for k, (passed, _) in self.results.items() if not passed]

    def __str__(self):
        return "; ".join(
            f"{k}:{'pass' if passed else 'FAIL(' + detail + ')'}"
            for k, (passed, detail) in self.results.items()
        )


def check_restrictions(c: BtCandidate, strict_chi: bool = False) -> RestrictionReport:
    """Evaluate R1-R5 for a candidate; all five must pass for admissibility."""
    results: dict[str, tuple[bool, str]] = {}

    s1 = terminal_sum(c.entries)
    results["R1"] = (s1 < 24, format_rational(s1))

    s2 = terminal_sum(c.preimage)
    results["R2"] = (s2 < 24, format_rational(s2))

    witness = any(entry.alpha == c.r for entry in c.entries)
    results["R3"] = (witness, f"r={c.r}" if witness else "no entry with stabilizer order r")

    period = lcm(*(entry.type.r for entry in c.entries))
    r4_ok, r4_detail = True, ""
    for i in range(1, c.r):
        for n in range(period):
            v = torsion_delta_at(c.entries, i, n)
            if not is_integer(v):
                r4_ok, r4_detail = False, f"delta({i},{n}) = {format_rational(v)}"
                break
        if not r4_ok:
            break
    results["R4"] = (r4_ok, r4_detail)

    r5_ok, r5_detail = True, ""
    for i in range(1, c.r):
        chi = 1 + torsion_delta_at(c.entries, i, 0)
        bad = (not is_integer(chi)) or chi < 0 or (strict_chi and chi != 0)
        if bad:
            r5_ok, r5_detail = False, f"chi({i}*sigma) = {format_rational(chi)}"
            break
    results["R5"] = (r5_ok, r5_detail)

    return RestrictionReport(results)


def canonicalize(c: BtCandidate) -> BtCandidate:
    """Least representative of the candidate under sigma -> u*sigma."""
    best = None
    for u in units(c.r):
        rescaled = tuple(
            sorted(
                MarkedSingularity(e.type, (u * e.l) % e.type.r)
                for e in c.entries
            )
        )
        if best is None or rescaled < best:
            best = rescaled
    return BtCandidate(c.r, Basket(best or ()))


def _admissible_items(r: int) -> tuple[list[MarkedSingularity], list[MarkedSingularity]]:
    """The points usable for order r, sorted: witnesses (alpha = r), the rest.

    The stabilizer order alpha = r_Q/gcd(r_Q, l) of an entry must divide r
    and exceed 1 (markings are nonzero); writing r_Q = alpha*m, the valid
    markings are l = m*u with u a unit mod alpha.
    """
    blocks = ([], [])  # the witnesses, the rest
    for alpha in range(2, r + 1):
        if r % alpha:
            continue
        for m in range(1, MAX_INDEX // alpha + 1):
            r_q = alpha * m
            for a in range(1, r_q // 2 + 1):
                if gcd(a, r_q) != 1:
                    continue
                for u in range(1, alpha):
                    if gcd(u, alpha) == 1:
                        blocks[alpha < r].append(
                            MarkedSingularity(SingularityType(r_q, a), m * u)
                        )
    return sorted(blocks[0]), sorted(blocks[1])


def _numeric_verdict(
    entries: tuple[MarkedSingularity, ...], r: int, cycles: Callable[..., tuple[int, ...]]
) -> bool | None:
    """R4 + R5, short-circuiting: None when either fails, else whether strict
    R5 holds (chi(i*sigma) = 0 for every i != 0).  R1-R3 are maintained by
    the search itself.

    Works in integers: per-entry cycles, cycles(r_Q, a, l') (the order's own
    memo of hilbert._delta_cycle_scaled), are scaled by 12*r_Q, the
    candidate total by d = 12*lcm(r_Q), so integrality is a single modulus
    test, chi(i*sigma) >= 0 becomes total >= -d and chi(i*sigma) = 0
    becomes total = -d.  A basket that passes has had every i checked at
    n = 0, so its strict verdict costs nothing more.
    """
    period = lcm(*(e.type.r for e in entries))
    d = 12 * period
    strict = True
    for i in range(1, r):
        parts = []
        for e in entries:
            r_q = e.type.r
            lp = (i * e.l) % r_q
            if lp:
                parts.append((cycles(r_q, e.type.a, lp), r_q, d // (12 * r_q)))
        for n in range(period):
            total = sum(cycle[n % r_q] * f for cycle, r_q, f in parts)
            if total % d:
                return None
            if n == 0:
                if total < -d:
                    return None
                strict = strict and total == -d
    return strict


def enumerate_bt(r: int, strict_chi: bool = False) -> list[BtCandidate]:
    """All admissible marked baskets for torsion order r, canonical and sorted."""
    census = _census(torsion_order(r))
    return [c for c, strict in census if strict or not strict_chi]


@lru_cache(maxsize=None)
def _census(r: int) -> tuple[tuple[BtCandidate, bool], ...]:
    """The census of order r, walked once per process: each basket with its
    strict-R5 verdict.  The walk is depth first over a stack of frames (next
    item, R1 cost, R2 cost), a frame's depth in the stack being the length
    of the chosen prefix it extends: a popped frame pushes its next sibling,
    then the child that extends the prefix by its item.  A root frame past
    the witnesses ends (R3), and a frame that cannot pay for its witness
    goes on at the first non-witness item, if there is one."""
    witnesses, rest = _admissible_items(r)
    items, w = witnesses + rest, len(witnesses)
    # budget arithmetic in integers: costs scaled by lcm(1..24)
    scale = lcm(*range(1, MAX_INDEX + 1))
    budget = 24 * scale
    cost1 = [(it.type.r * it.type.r - 1) * (scale // it.type.r) for it in items]
    cost1.append(budget)  # a frame at the end of the items fails R1 and ends
    cost2 = [
        (r // it.alpha) * (it.d * it.d - 1) * (scale // it.d) if it.d > 1 else 0
        for it in items
    ]

    cycles = cache(_delta_cycle_scaled)
    found: dict[tuple[MarkedSingularity, ...], bool] = {}  # canonical entries -> strict R5
    chosen: list[MarkedSingularity] = []
    stack = [(0, 0, 0)]
    while stack:
        k, s1, s2 = stack.pop()
        del chosen[len(stack):]
        if k == w and not chosen:
            continue  # R3: a basket starts with a witness
        n1 = s1 + cost1[k]
        if n1 >= budget:
            if rest and k < w:
                stack.append((w, s1, s2))  # the rest may still be affordable
            continue
        stack.append((k + 1, s1, s2))
        n2 = s2 + cost2[k]
        if n2 >= budget:
            continue
        chosen.append(items[k])
        if (strict := _numeric_verdict(tuple(chosen), r, cycles)) is not None:
            found[canonicalize(BtCandidate(r, Basket(tuple(chosen)))).entries.entries] = strict
        stack.append((k, n1, n2))
    return tuple((BtCandidate(r, Basket(e)), strict) for e, strict in sorted(found.items()))

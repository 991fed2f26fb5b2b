"""Hilbert series from numerical data.

Three series builders live here:

* altinok_series -- the closed form for the anticanonical ring of a Fano
  threefold with basket B and given -K^3,

      P(t) = (1+t)/(1-t)^2 + (t+t^2)/(1-t)^4 * (-K^3/2)
             - sum_Q 1/((1-t)(1-t^r_Q)) * sum_i w_Q(i) t^i,

  with w_Q(i) = [b_Q i](r_Q - [b_Q i])/(2 r_Q) and b_Q the inverse weight.
  The polynomial Riemann-Roch part (chi(O), c2-term) is already folded
  into the first two summands, so the basket and -K^3 are the only inputs.
  Every summand is a polynomial over a product of binomials (1 - t^w), so
  each is built by O(N) divisions (BigradedSeries.divide_factor), never
  by expanding geometric series and multiplying them.

* torsion_delta_* -- the per-component correction h^0(-nK + i*sigma) -
  h^0(-nK) coming from a torsion divisor sigma marked into the basket.
  It has period L = lcm r_Q in n and two routes: the per-n Fraction
  formula torsion_delta_at, and one integer period summed from per-entry
  cycles (_delta_cycle_scaled, which the census walk also reads).  The
  builders reconcile the two over one period, which is exact, and tile
  that period out to the truncation.

* wci_series / pfaffian_series -- independent oracles for covers: the
  Hilbert series a weighted complete intersection (or codimension-3
  Pfaffian model) must have, straight from weights and degrees, after
  checking that shape.  The complete intersection is
  gradedrings.presentation_series of its weights and degrees; the
  Pfaffian model divides gradedrings.pfaffian_numerator by (1 - t^w) once
  per weight.  CoverRecord reads -K^3 from the same two numerators.

Negative truncations raise OutOfRangeError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import lcm
from typing import Sequence

from .errors import (
    InconsistentDataError,
    InconsistentMarkingError,
    InternalConsistencyError,
)
from .exact import (
    MAX_TORSION,
    Rational,
    format_rational,
    is_integer,
    rational_from_json,
    residue,
    torsion_order,
    truncation,
)
from .gradedrings import pfaffian_numerator, presentation_series
from .orbifold import Basket, forced_preimage, inverse_weight
from .series import Bidegree, BigradedSeries, Scalar

__all__ = [
    "MAX_TORSION",
    "FanoData",
    "FanoEnriquesData",
    "parity_defect",
    "altinok_series",
    "torsion_delta_at",
    "torsion_delta_series",
    "bigraded_series",
    "wci_series",
    "pfaffian_series",
]


def parity_defect(minus_k_cubed: Rational, basket: Basket) -> Rational:
    """(-K^3 - sum_Q b_Q(r_Q - b_Q)/r_Q) / 2; an integer for genuine data."""
    total = Rational(minus_k_cubed)
    for entry in basket:
        r = entry.type.r
        b = inverse_weight(entry.type)
        total -= Rational(b * (r - b), r)
    return total / 2


@dataclass(frozen=True)
class FanoData:
    """Numerical data of a Fano threefold: -K^3 and the basket.

    Markings on basket entries, if any, are irrelevant here; only the
    underlying types enter the series.
    """

    minus_k_cubed: Rational
    basket: Basket = field(default_factory=Basket)

    def __post_init__(self):
        object.__setattr__(self, "minus_k_cubed", Rational(self.minus_k_cubed))
        if self.minus_k_cubed <= 0:
            raise InconsistentDataError(
                f"-K^3 must be positive, got {self.minus_k_cubed}"
            )
        k = parity_defect(self.minus_k_cubed, self.basket)
        if not is_integer(k):
            raise InconsistentDataError(
                f"-K^3 = {format_rational(self.minus_k_cubed)} fails the parity "
                f"constraint for basket {{{self.basket}}} (defect {k})"
            )


@dataclass(frozen=True)
class FanoEnriquesData:
    """Numerical data of a Fano threefold with a torsion divisor of order r.

    bt holds the marked part of the basket (every l nonzero, stabilizer
    order dividing r); be the unmarked remainder.  -K^3 and the combined
    basket must also pass FanoData.
    """

    r: int
    minus_k_cubed: Rational
    bt: Basket
    be: Basket = field(default_factory=Basket)

    def __post_init__(self):
        torsion_order(self.r)
        forced_preimage(self.bt, self.r)  # the one marking check; refuses bad bt
        for entry in self.be:
            if entry.l != 0:
                raise InconsistentMarkingError(
                    f"unmarked basket entry {entry} carries a marking"
                )
        fano = FanoData(self.minus_k_cubed, self.combined_basket)
        object.__setattr__(self, "minus_k_cubed", fano.minus_k_cubed)

    @property
    def combined_basket(self) -> Basket:
        return self.bt + self.be

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "minusK3": format_rational(self.minus_k_cubed),
            "bt": self.bt.to_json(),
            "be": self.be.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FanoEnriquesData":
        return cls(
            r=obj["r"],
            minus_k_cubed=rational_from_json(obj["minusK3"]),
            bt=Basket.from_json(obj["bt"]),
            be=Basket.from_json(obj.get("be", [])),
        )


def _local_weight(r: int, b: int, j: int) -> Rational:
    """w(j) = [b*j]_r (r - [b*j]_r) / (2r), the periodic correction kernel."""
    bj = (b * j) % r
    return Rational(bj * (r - bj), 2 * r)


def _divided(numerator: Sequence[Scalar], trunc: int, *weights: int) -> BigradedSeries:
    """numerator / prod_w (1 - t^w), truncated at t^trunc: one O(N) shift-and-add
    division per weight, never a general product."""
    row = list(numerator[: trunc + 1]) + [0] * (trunc + 1 - len(numerator))
    total = BigradedSeries(1, [row])
    for w in weights:
        total = total.divide_factor(Bidegree(w, 0))
    return total


def altinok_series(data: FanoData, trunc: int = 20) -> BigradedSeries:
    """Hilbert series sum h^0(-nK) t^n of a Fano threefold, exactly.

    Raises InconsistentDataError if the resulting coefficients are not
    nonnegative integers: the basket / -K^3 pair then belongs to no
    actual variety (a sharper sieve than the parity check).
    """
    n = truncation("trunc", trunc)
    half_k = data.minus_k_cubed / 2
    total = _divided([1, 1], n, 1, 1) + _divided([0, half_k, half_k], n, 1, 1, 1, 1)

    for entry, mult in data.basket.counts().items():
        r = entry.type.r
        b = inverse_weight(entry.type)
        kernel = [mult * _local_weight(r, b, i) for i in range(r)]
        total = total - _divided(kernel, n, 1, r)

    for m, c in enumerate(total.component(0)):
        if not is_integer(c) or c < 0:
            raise InconsistentDataError(
                f"series coefficient at t^{m} is {format_rational(c)}; "
                f"no Fano threefold has -K^3 = {format_rational(data.minus_k_cubed)} "
                f"with basket {{{data.basket}}}"
            )
    return total


def torsion_delta_at(bt: Basket, i: int, n: int) -> Rational:
    """chi(-nK + i*sigma) - chi(-nK) for the marked basket bt.

    Each entry contributes through its effective local coefficient
    l' = [i * l]_{r_Q}; entries with l' = 0 contribute nothing.
    """
    total = Rational(0)
    for entry in bt:
        r = entry.type.r
        lp = residue(i * entry.l, r)
        if lp == 0:
            continue
        b = inverse_weight(entry.type)
        total += Rational((r - lp) * (r * r - 1), 12 * r)
        for j in range(n + 1, n + r - lp + 1):
            total -= _local_weight(r, b, j)
    return total


@lru_cache(maxsize=None)
def _delta_cycle_scaled(r_q: int, a: int, lp: int) -> tuple[int, ...]:
    """Per-entry torsion delta over one period of n, scaled by 12*r_q.

    Computed directly in integers, independently of the Fraction route
    torsion_delta_at.  With b = a^-1 mod r_q and [x] = x mod r_q,

        12*r_q*delta(n) = (r_q - l')(r_q^2 - 1)
                          - sum_{j=n+1}^{n+r_q-l'} 6*[bj]*(r_q - [bj]),

    and the window sum slides along one period of n.
    """
    b = pow(a, -1, r_q)
    kernel = [6 * ((b * j) % r_q) * (r_q - (b * j) % r_q) for j in range(r_q)]
    head = (r_q - lp) * (r_q * r_q - 1)
    width = r_q - lp
    window = sum(kernel[1 : width + 1])
    out = []
    for n in range(r_q):
        out.append(head - window)
        window += kernel[(n + 1 + width) % r_q] - kernel[(n + 1) % r_q]
    return tuple(out)


def _torsion_cycle(bt: Basket, i: int) -> tuple[list[int], int]:
    """12*L*delta_i(n) for n = 0..L-1, with L = lcm r_Q over the entries of
    bt with l' != 0, and the denominator 12*L.  Reconciled with
    torsion_delta_at at every n of the period, which is exact because both
    sides have period L; a mismatch is an engine bug, not a data problem.
    """
    parts = [
        (entry.type.r, _delta_cycle_scaled(entry.type.r, entry.type.a, lp))
        for entry in bt if (lp := residue(i * entry.l, entry.type.r))
    ]
    period = lcm(*(r for r, _ in parts))
    cycle = [sum(c[n % r] * (period // r) for r, c in parts) for n in range(period)]
    for n, v in enumerate(cycle):
        if Rational(v, 12 * period) != torsion_delta_at(bt, i, n):
            raise InternalConsistencyError(
                f"torsion delta closed form disagrees with the per-n values "
                f"for i = {i}, basket {{{bt}}}"
            )
    return cycle, 12 * period


def _tiled_delta(bt: Basket, i: int, trunc: int) -> list[Rational]:
    """delta_i(n) for n = 0..trunc: one reconciled period, tiled."""
    cycle, d = _torsion_cycle(bt, i)
    period = [Rational(v, d) for v in cycle]
    return [period[n % len(period)] for n in range(trunc + 1)]


def torsion_delta_series(bt: Basket, i: int, trunc: int = 20) -> BigradedSeries:
    """Series sum_n (chi(-nK + i*sigma) - chi(-nK)) t^n, tiled from one
    reconciled integer period (_torsion_cycle)."""
    return BigradedSeries(1, [_tiled_delta(bt, i, truncation("trunc", trunc))])


def bigraded_series(data: FanoEnriquesData, trunc: int = 20) -> BigradedSeries:
    """Full bigraded Hilbert series sum h^0(-nK + i*sigma) e^i t^n.

    Component i is the untwisted series plus the torsion delta for i,
    tiled from one reconciled period; component 0 is the untwisted series
    itself, since delta_0 = 0.  For genuine data every coefficient is a
    nonnegative integer, the constant term sits entirely in component 0
    (h^0 of a nontrivial torsion class vanishes); anything else raises
    InconsistentDataError.
    """
    truncation("trunc", trunc)
    base = altinok_series(
        FanoData(data.minus_k_cubed, data.combined_basket), trunc
    ).component(0)
    rows = [list(base)]
    for i in range(1, data.r):
        delta = _tiled_delta(data.bt, i, trunc)
        rows.append([b + v for b, v in zip(base, delta)])

    for i, row in enumerate(rows):
        expected_constant = 1 if i == 0 else 0
        if row[0] != expected_constant:
            raise InconsistentDataError(
                f"chi({i}*sigma) = {format_rational(row[0])}, "
                f"expected {expected_constant}: data admits no torsion divisor"
            )
        for n, c in enumerate(row):
            if not is_integer(c) or c < 0:
                raise InconsistentDataError(
                    f"component {i} coefficient at t^{n} is {format_rational(c)}; "
                    f"numerical data is inconsistent"
                )
    return BigradedSeries(data.r, rows)


def wci_series(weights: Sequence[int], degrees: Sequence[int], trunc: int = 20) -> BigradedSeries:
    """prod (1 - t^d) / prod (1 - t^w), the series of a weighted complete
    intersection polarized by O(1).

    Anticanonical polarization (sum of weights minus sum of degrees = 1)
    is required; that is the only normalization the quotient search uses.
    A degree 0 raises NonInvertibleFactorError.
    """
    truncation("trunc", trunc)
    if sum(weights) - sum(degrees) != 1:
        raise InconsistentDataError(
            f"weights {tuple(weights)} and degrees {tuple(degrees)} are not "
            f"anticanonically polarized"
        )
    return presentation_series(
        [Bidegree(w) for w in weights], [Bidegree(d) for d in degrees], 1, trunc
    )


def pfaffian_series(weights: Sequence[int], degrees: Sequence[int], trunc: int = 20) -> BigradedSeries:
    """Series of a codimension-3 model cut out by the five Pfaffians of a
    skew 5x5 matrix: pfaffian_numerator, 1 - sum t^{d_k} + sum t^{e-d_k} - t^e
    with e = sum(weights) - 1 = sum(degrees)/2, over prod (1 - t^w).
    """
    truncation("trunc", trunc)
    if len(degrees) != 5:
        raise InconsistentDataError(
            f"a Pfaffian model needs 5 degrees, got {len(degrees)}"
        )
    e = sum(weights) - 1
    mismatch = f"Pfaffian degrees {tuple(degrees)} incompatible with weights {tuple(weights)}"
    if sum(degrees) != 2 * e:
        raise InconsistentDataError(
            f"{mismatch}: sum is not 2*(sum(weights) - 1) = {2 * e}"
        )
    if max(degrees) > e:
        raise InconsistentDataError(f"{mismatch}: degrees exceed e = {e}")
    total = pfaffian_numerator([Bidegree(d) for d in degrees], Bidegree(e), 1, trunc)
    for w in weights:
        total = total.divide_factor(Bidegree(w))
    return total

"""Hilbert series from numerical data.

Three series builders live here:

* altinok_series -- the closed form for the anticanonical ring of a Fano
  threefold with basket B and given -K^3,

      P(t) = (1+t)/(1-t)^2 + (t+t^2)/(1-t)^4 * (-K^3/2)
             - sum_Q 1/((1-t)(1-t^r_Q)) * sum_i w_Q(i) t^i,

  with w_Q(i) = [b_Q i](r_Q - [b_Q i])/(2 r_Q) and b_Q the inverse weight.
  The polynomial Riemann-Roch part (chi(O), c2-term) is already folded
  into the first two summands, so the basket and -K^3 are the only inputs.
  Every summand is a polynomial (BigradedSeries.polynomial) over a
  product of binomials (1 - t^w), so each is built by one
  BigradedSeries.divide_factor by that product, an O(N) shift per binomial,
  never by expanding geometric series.

* torsion_delta_* -- the per-component correction h^0(-nK + i*sigma) -
  h^0(-nK) coming from a torsion divisor sigma marked into the basket.
  It has period L = lcm r_Q in n and two routes: the per-n Fraction
  formula torsion_delta_at, and one integer cycle per point type
  (r_Q, a, l') (_delta_cycle_scaled, uncached: the census walk memoizes
  each order's cycles itself and drops them with the walk).
  _reconciled_cycle checks each cycle once against the one-point
  torsion_delta_at and caches it for the series builders, and
  torsion_delta_series sums the cycles over L and tiles them;
  bigraded_series adds it to the untwisted series (the kernel's +) for
  each twisted component.

* wci_series / pfaffian_series -- independent oracles for covers: the
  Hilbert series a weighted complete intersection (or codimension-3
  Pfaffian model) must have, straight from weights and degrees, after
  checking that shape.  The complete intersection is
  gradedrings.presentation_series of its weights and degrees; the
  Pfaffian model divides gradedrings.pfaffian_numerator by the product of
  the (1 - t^w) in one divide_factor.  CoverRecord reads -K^3 off the same
  numerators without building either.

Every builder takes its caller's truncation (no default); a negative one
raises OutOfRangeError.  altinok_series and bigraded_series refuse a
result that is not a Hilbert series by its first hilbert_defect.
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
    Rational,
    exact_rational,
    format_rational,
    is_integer,
    json_object,
    listed,
    rational_from_json,
    torsion_order,
    truncation,
)
from .gradedrings import pfaffian_numerator, presentation_series
from .orbifold import Basket, MarkedSingularity, SingularityType, forced_preimage, inverse_weight
from .series import Bidegree, BigradedSeries, Scalar

__all__ = [
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
        object.__setattr__(self, "minus_k_cubed", exact_rational(self.minus_k_cubed))
        object.__setattr__(self, "basket", Basket.coerce(self.basket))
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
        object.__setattr__(self, "bt", Basket.coerce(self.bt))
        object.__setattr__(self, "be", Basket.coerce(self.be))
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
        obj = json_object("Fano-Enriques data", obj, "r", "minusK3", "bt")
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
    """numerator / prod_w (1 - t^w), truncated at t^trunc: the polynomial
    divided by the product of binomials in one divide_factor pass, an O(N)
    shift per weight, never a general product."""
    terms = [(c, Bidegree(n)) for n, c in enumerate(numerator)]
    return BigradedSeries.polynomial(1, trunc, terms).divide_factor(*map(Bidegree, weights))


def altinok_series(data: FanoData, trunc: int) -> BigradedSeries:
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

    defect = total.hilbert_defect()
    if defect is not None:
        d, c = defect
        raise InconsistentDataError(
            f"series coefficient at t^{d.n} is {format_rational(c)}; "
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
        lp = (i * entry.l) % r
        if lp == 0:
            continue
        b = inverse_weight(entry.type)
        total += Rational((r - lp) * (r * r - 1), 12 * r)
        for j in range(n + 1, n + r - lp + 1):
            total -= _local_weight(r, b, j)
    return total


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


@lru_cache(maxsize=None)
def _reconciled_cycle(r_q: int, a: int, lp: int) -> tuple[int, ...]:
    """_delta_cycle_scaled(r_q, a, lp) once it equals torsion_delta_at of the
    point 1/r_q(1, a, r_q - a)_lp over its period: one check per point type
    covers every basket, as torsion_delta_at sums its entries' point values."""
    cycle = _delta_cycle_scaled(r_q, a, lp)
    point = Basket((MarkedSingularity(SingularityType(r_q, a), lp),))
    for n, v in enumerate(cycle):
        if Rational(v, 12 * r_q) != torsion_delta_at(point, 1, n):
            raise InternalConsistencyError(
                f"torsion delta closed form disagrees with the per-n values for {point}"
            )
    return cycle


def torsion_delta_series(bt: Basket, i: int, trunc: int) -> BigradedSeries:
    """Series sum_n (chi(-nK + i*sigma) - chi(-nK)) t^n: the entries'
    reconciled cycles at l' = [i*l]_{r_Q}, summed over L = lcm r_Q and tiled:
    the one tiling, which bigraded_series reads for each twisted component."""
    trunc = truncation("trunc", trunc)
    parts = [
        (entry.type.r, _reconciled_cycle(entry.type.r, entry.type.a, lp))
        for entry in bt if (lp := (i * entry.l) % entry.type.r)
    ]
    L = lcm(*(r for r, _ in parts))
    cycle = [Rational(sum(c[n % r] * (L // r) for r, c in parts), 12 * L) for n in range(L)]
    return BigradedSeries(1, [[cycle[n % L] for n in range(trunc + 1)]])


def bigraded_series(data: FanoEnriquesData, trunc: int) -> BigradedSeries:
    """Full bigraded Hilbert series sum h^0(-nK + i*sigma) e^i t^n.

    Component i is the untwisted series plus torsion_delta_series for i;
    component 0 is the untwisted series itself, since delta_0 = 0.  For
    genuine data every coefficient is a nonnegative integer, the constant
    term sits entirely in component 0 (h^0 of a nontrivial torsion class
    vanishes); anything else raises InconsistentDataError.
    """
    base = altinok_series(FanoData(data.minus_k_cubed, data.combined_basket), trunc)
    series = BigradedSeries(data.r, [base.component(0)] + [
        (base + torsion_delta_series(data.bt, i, trunc)).component(0)
        for i in range(1, data.r)
    ])
    defect = series.hilbert_defect()
    if defect is None:
        return series
    d, c = defect
    if d.n == 0:
        raise InconsistentDataError(
            f"chi({d.i}*sigma) = {format_rational(c)}, "
            f"expected {1 if d.i == 0 else 0}: data admits no torsion divisor"
        )
    raise InconsistentDataError(
        f"component {d.i} coefficient at t^{d.n} is {format_rational(c)}; "
        f"numerical data is inconsistent"
    )


def wci_series(weights: Sequence[int], degrees: Sequence[int], trunc: int) -> BigradedSeries:
    """prod (1 - t^d) / prod (1 - t^w), the series of a weighted complete
    intersection polarized by O(1).

    Anticanonical polarization (sum of weights minus sum of degrees = 1)
    is required; that is the only normalization the quotient search uses.
    A degree 0 raises NonInvertibleFactorError, a weight or degree that is
    no int an OutOfRangeError from Bidegree, and weights or degrees that are
    no sequence a MalformedInputError.
    """
    truncation("trunc", trunc)
    weights, degrees = listed("weights", weights), listed("degrees", degrees)
    gens, rels = [Bidegree(w) for w in weights], [Bidegree(d) for d in degrees]
    if sum(weights) - sum(degrees) != 1:
        raise InconsistentDataError(
            f"weights {tuple(weights)} and degrees {tuple(degrees)} are not "
            f"anticanonically polarized"
        )
    return presentation_series(gens, rels, 1, trunc)


def pfaffian_series(weights: Sequence[int], degrees: Sequence[int], trunc: int) -> BigradedSeries:
    """Series of a codimension-3 model cut out by the five Pfaffians of a
    skew 5x5 matrix: pfaffian_numerator, 1 - sum t^{d_k} + sum t^{e-d_k} - t^e
    with e = sum(weights) - 1 = sum(degrees)/2, over prod (1 - t^w).  A
    weight or degree that is no int is an OutOfRangeError from Bidegree, and
    weights or degrees that are no sequence a MalformedInputError.
    """
    truncation("trunc", trunc)
    weights, degrees = listed("weights", weights), listed("degrees", degrees)
    gens, rels = [Bidegree(w) for w in weights], [Bidegree(d) for d in degrees]
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
    return pfaffian_numerator(rels, Bidegree(e), 1, trunc).divide_factor(*gens)

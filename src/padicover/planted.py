"""Curated covers with known reduction behavior, for dual-route testing.

Every instance here is built from an explicit critical divisor and labeled
with the regimes its colliding branch values must land in.  ``suite`` builds
the instances and nothing else.  The labels are checked against the discrete
classifier by the tests (``tests/test_planted.py``, every instance), and the
benchmark's verify workload compares each request's regimes with its label, so
a typo in a parameter table fails loudly instead of silently testing the wrong
thing.
The point of the suite is the independent cross-check: the blow-up engine
re-derives each model from scratch, and the two routes must agree component
for component, thickness for thickness.

Two structural families drive the colliding-pair coverage.  In the first the
triple critical point sits at distance delta from one of the doubles, so the
colliding fibers have profiles (3,1,1) and (2,1,1,1) (excess u = 1); in the
second the two doubles collide, giving (2,1,1,1) twice (u = 2).  Sweeping
v(delta) and the residues moves the pair through all three regimes and
realizes every admissible splitting shape: (4,1) and (3,2) for u = 1, and
(2,2,1) for u = 2.  The u = 2 family with v(delta) >= 1 pairs its leftover
points at conjugate residues outside F_p — the engine reports that honestly
(ResidualRootOutsideFp) — so its oracle-checked instances use fractional
v(delta) instead, where every group is anchored by a rational critical point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cover import from_critical_divisor
from .field import FieldContext, _rational


class PlantedInstance:
    """A cover plus the regimes its colliding pairs are planted to realize."""

    __slots__ = ("name", "cover", "regimes")

    def __init__(self, name, cover, regimes):
        self.name = name
        self.cover = cover  # Cover
        self.regimes = regimes  # sorted regime names; () means no colliding pairs at all


def _point(ctx, spec):
    if isinstance(spec, tuple) and spec and spec[0] == "+pi":
        return ctx.from_rational(Fraction(spec[1])) + ctx.pi()
    return ctx.from_rational(Fraction(spec))


def build_cover(p, e, points):
    """A cover from (location, multiplicity) pairs; ("+pi", q) means q + pi."""
    ctx = FieldContext(p, e)
    return from_critical_divisor([(_point(ctx, x), m) for x, m in points], ctx)


# parameter tables ----------------------------------------------------------

_GOOD_P5_STARS = [
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 4),
    (1, 2, 3),
    (1, 3, 4),
    (2, 3, 4),
    (0, 1, 4),
    (0, 2, 3),
]

_GOOD_P5_FOUR_ARMS = [
    (0, 1, 2, 3),
    (0, 1, 2, 4),
    (1, 2, 3, 4),
    (0, 1, 3, 4),
    (0, 2, 3, 4),
]

_GOOD_P3 = [(0, 1), (0, 2), (1, 2), (1, -1), (2, 4), (0, 4)]

_SINGLE_VERTEX = [(5, 0), (5, 1), (5, 2), (3, 0), (3, 1)]

# triple at b + delta, doubles at b and c; v(delta) and b - c steer the pair
_T1_CRITICAL = [  # v(delta) = 1 with a unit obstruction: distance exactly p
    (0, -1, 5),
    (0, -2, 5),
    (0, 1, 5),
    (1, 0, 5),
    (1, -1, 5),
    (2, 0, 5),
    (0, -4, 5),
    (3, 1, 5),
]

_T1_NEAR = [  # either v(delta) = 2, or v(delta) = 1 with the obstruction deep
    (0, -1, 25),
    (0, 1, 25),
    (1, 0, 25),
    (0, -2, 25),
    (0, -3, 5),
    (0, 7, 5),
    (0, -1, 10),
    (0, -23, 5),
    (1, -2, 5),
]

_T1_FAR_BC = [(0, -1), (0, 1), (0, -2), (1, 0), (1, -1), (2, 0)]  # delta = pi

# doubles at b and b + delta, triple at a
_T2_CRITICAL_A = [2, 3]  # v(delta) = 1/2; these residues land on the threshold
_T2_NEAR_A = [1, 4]  # same distance, residues past the threshold
_T2_FAR_A = [1, 2]  # v(delta) = 1/4 keeps the pair below the threshold

_P7_GOOD = [
    ("p7-twin-arms", [(0, 4), (1, 4)]),
    ("p7-three-arms", [(0, 3), (1, 3), (2, 3)]),
]


def suite():
    """The full planted suite (56 instances), built and not classified."""
    out = []

    def add(name, p, e, points, regimes):
        out.append(PlantedInstance(name, build_cover(p, e, points), regimes))

    for a, b, c in _GOOD_P5_STARS:
        add(f"good-p5-star-{a}{b}{c}", 5, 1, [(a, 3), (b, 2), (c, 2)], ())
    for pts in _GOOD_P5_FOUR_ARMS:
        name = "good-p5-arms-" + "".join(str(x) for x in pts)
        add(name, 5, 1, [(x, 2) for x in pts], ())
    for a, b in _GOOD_P3:
        add(f"good-p3-{a}_{b}", 3, 1, [(a, 2), (b, 2)], ())
    for p, c in _SINGLE_VERTEX:
        add(f"one-point-p{p}-at-{c}", p, 1, [(c, p)], ())
    for b, c, delta in _T1_CRITICAL:
        add(
            f"pair-critical-b{b}c{c}d{delta}",
            5,
            1,
            [(b + delta, 3), (b, 2), (c, 2)],
            ("critical",),
        )
    for b, c, delta in _T1_NEAR:
        add(
            f"pair-near-b{b}c{c}d{delta}",
            5,
            1,
            [(b + delta, 3), (b, 2), (c, 2)],
            ("near",),
        )
    for b, c in _T1_FAR_BC:
        add(
            f"pair-far-b{b}c{c}",
            5,
            2,
            [(("+pi", b), 3), (b, 2), (c, 2)],
            ("far",),
        )
    for a in _T2_CRITICAL_A:
        add(
            f"twin-critical-a{a}",
            5,
            2,
            [(("+pi", 0), 2), (0, 2), (a, 3)],
            ("critical",),
        )
    for a in _T2_NEAR_A:
        add(f"twin-near-a{a}", 5, 2, [(("+pi", 0), 2), (0, 2), (a, 3)], ("near",))
    for a in _T2_FAR_A:
        add(f"twin-far-a{a}", 5, 4, [(("+pi", 0), 2), (0, 2), (a, 3)], ("far",))
    for name, pts in _P7_GOOD:
        add(name, 7, 1, pts, ())
    add("p7-one-point", 7, 1, [(0, 7)], ())
    return tuple(out)


# random covers -------------------------------------------------------------


def _random_composition(rng, total):
    parts = []
    while total:
        k = rng.randint(1, total)
        parts.append(k)
        total -= k
    return parts


def random_integral_cover(rng, p, e=1):
    """A random cover with integral critical points and a unit branch value.

    Multiplicities come from a random composition of p - 1; locations are
    distinct rationals of nonnegative valuation (denominators prime to p).
    Resamples until some branch value is a unit, so the family genuinely
    exercises the nontrivial residues, then returns the cover.

    A location is drawn as a / b and kept as the reduced int pair
    (a // g, b // g), g = gcd(a, b) > 0 as b > 0: each rational has exactly
    one reduced pair with a positive denominator, so a set of pairs dedupes
    exactly as a set of ``Fraction``s would, and the first entry is the
    ``Fraction``'s numerator.  Every allowed denominator, and so every
    reduced one, divides 42, so a * (42 // b) = 42 * a / b is an int key in
    the rational order.  The draws, and so the covers and the generator's
    final state, are those of drawing ``Fraction``s.

    The test needs no cover: integral locations make beta = X**p mod the
    maximal ideal, so beta(x) = x**p = x there and beta(x) is a unit exactly
    when x is, when p does not divide its numerator.  The accepted draw's
    beta is built only when something reads it.
    """
    ctx = FieldContext(p, e)
    denominators = [b for b in (1, 1, 1, 2, 3, 7) if b % p]
    while True:
        mults = [k + 1 for k in _random_composition(rng, p - 1)]
        locations = set()
        while len(locations) < len(mults):
            a, b = rng.randint(-3 * p, 3 * p), rng.choice(denominators)
            g = gcd(a, b)
            locations.add((a // g, b // g))
        if any(a % p for a, _ in locations):
            ordered = sorted(locations, key=lambda ab: ab[0] * (42 // ab[1]))
            points = [(_rational(ctx, a, b), m) for (a, b), m in zip(ordered, mults)]
            return from_critical_divisor(points, ctx)

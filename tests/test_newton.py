import random
from fractions import Fraction

import pytest

from padicover import fppoly, kpoly
from padicover.field import FieldContext
from padicover.kpoly import ZeroPolynomial
from padicover.newton import (
    newton_polygon,
    positive_root_count,
    positive_roots,
)
from reference import from_rationals, root_valuations

K5 = FieldContext(5, 1)


def P(ctx, *coeffs):
    return from_rationals(ctx, coeffs)


def sorted_valuations(vals):
    """root_valuations order: finite values sorted, then one None per root 0."""
    return sorted(v for v in vals if v is not None) + [None] * vals.count(None)


def test_polygon_x_squared_plus_px():
    np = newton_polygon(P(K5, 0, 5, 1))
    assert np.vertices == ((1, Fraction(1)), (2, Fraction(0)))
    assert len(np.segments) == 1
    assert np.segments[0].slope == -1 and np.segments[0].length == 1
    assert np.x_order == 1
    assert root_valuations(P(K5, 0, 5, 1)) == [1, None]


def test_polygon_pure_power():
    f = P(K5, 0, 0, 0, 0, 0, 1)
    np = newton_polygon(f)
    assert np.segments == ()
    assert np.x_order == 5
    assert root_valuations(f) == [None] * 5


def test_polygon_eisenstein_quadratic():
    K = FieldContext(5, 2)
    f = P(K, -5, 0, 1)
    np = newton_polygon(f)
    assert [(s.slope, s.length) for s in np.segments] == [(Fraction(-1, 2), 2)]
    assert root_valuations(f) == [Fraction(1, 2)] * 2
    # and pi really is a root
    assert not kpoly.eval_at(f, K.pi())


def test_polygon_three_planted_roots():
    f = kpoly.from_roots(K5, [(K5.from_rational(1), 1), (K5.from_rational(5), 1), (K5.from_rational(25), 1)])
    assert root_valuations(f) == [0, 1, 2]


def test_zero_polynomial_rejected():
    with pytest.raises(ZeroPolynomial):
        newton_polygon(P(K5))


def random_planted(rng, ctx, n):
    roots = []
    for _ in range(n):
        v = rng.randint(-2, 3)
        unit = rng.choice([1, 2, 3, 4, 6])
        mult = rng.randint(1, 2)
        if rng.random() < 0.15:
            roots.append((ctx.zero(), mult))
        else:
            roots.append((ctx.from_rational(Fraction(unit) * Fraction(ctx.p) ** v), mult))
    return roots


def test_slope_duality_planted_roots():
    # acceptance-criterion workhorse in miniature: polygons recover planted
    # valuations exactly, 100 random polynomials
    rng = random.Random(1234)
    for _ in range(100):
        ctx = FieldContext(rng.choice([3, 5]), 1)
        roots = random_planted(rng, ctx, rng.randint(1, 4))
        f = kpoly.from_roots(ctx, roots)
        expected = sorted_valuations([r.val() for r, m in roots for _ in range(m)])
        assert root_valuations(f) == expected


def test_product_slopes_are_union():
    rng = random.Random(77)
    for _ in range(100):
        ctx = FieldContext(5, rng.choice([1, 2]))
        f = kpoly.from_roots(ctx, random_planted(rng, ctx, 2))
        g = kpoly.from_roots(ctx, random_planted(rng, ctx, 2))
        assert root_valuations(kpoly.mul(f, g)) == sorted_valuations(
            root_valuations(f) + root_valuations(g)
        )


def test_positive_root_helpers():
    # X(X-5)(X-1/5)(X-2): positive-valuation roots are 0 and 5
    f = kpoly.from_roots(
        K5,
        [
            (K5.zero(), 1),
            (K5.from_rational(5), 1),
            (K5.from_rational(Fraction(1, 5)), 1),
            (K5.from_rational(2), 1),
        ],
    )
    assert positive_roots(kpoly.scaled_valuations(f)) == (2, 1, 1)
    assert positive_root_count(f) == 2
    assert positive_roots([None, None, 0]) == (2, None, 1)  # X^2: only the center


def hull_readings(f):
    """The readings off the hull: x_order plus the lengths of the negative
    slopes, then the last negative segment, whose negated slope is the least
    positive root valuation rise / (n * run), as its drop in n * v and its
    length (None and 1 when there is no negative slope)."""
    np = newton_polygon(f)
    negative = [seg for seg in np.segments if seg.slope < 0]
    count = np.x_order + sum(seg.length for seg in negative)
    if not negative:
        return count, None, 1
    last = negative[-1]
    return count, -last.slope * f.n * last.length, last.length


def test_hull_free_readings_match_the_hull():
    # coefficients mix exponent denominators 1-4, may all have positive
    # valuation (non-primitive f), and low ones may vanish (X divides f)
    rng = random.Random(2026)
    kinds = set()
    for _ in range(2000):
        ctx = FieldContext(rng.choice([3, 5, 7]), 1)
        shift = Fraction(rng.randint(0, 3), rng.randint(1, 3))
        f = [ctx.zero()] * rng.choice([0, 0, 1, 2])
        for _ in range(rng.randint(1, 7)):
            c = ctx.zero()
            if rng.random() < 0.8:
                for _ in range(rng.randint(1, 2)):
                    q = shift + Fraction(rng.randint(0, 8), rng.randint(1, 4))
                    u = ctx.uniformizer_power(q.numerator, q.denominator)
                    c = c + ctx.from_rational(rng.randint(1, 4)) * u
            f.append(c)
        if not any(f):
            continue
        g = kpoly.from_elements(ctx, f)
        readings = positive_roots(kpoly.scaled_valuations(g))
        assert readings == hull_readings(g)
        vals = [c.val() for c in f if c]
        kinds.update(
            kind
            for kind, hit in (
                ("X divides f", not f[0]),
                ("non-primitive", min(vals) > 0),
                ("mixed denominators", len({v.denominator for v in vals}) > 1),
                ("nothing separates", readings[1] is None),
            )
            if hit
        )
    assert len(kinds) == 4


def test_collinear_points_merge():
    # (X-5)(X-10): valuations (0,2),(1,1),(2,0) are collinear -> one segment
    f = kpoly.from_roots(K5, [(K5.from_rational(5), 1), (K5.from_rational(10), 1)])
    np = newton_polygon(f)
    assert len(np.segments) == 1
    assert np.segments[0] .slope == -1 and np.segments[0].length == 2

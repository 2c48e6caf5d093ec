"""The integer-row layout of kpoly against a reference on lists of field elements.

The reference below keeps every coefficient as its own ``Element`` and does
each operation the textbook way (Horner for translation and evaluation, one
power of u per coefficient, the content as the least coefficient valuation).
It is slow and obviously right; the layout must agree with it exactly and
come out canonical.  The operations kpoly itself writes on field elements
(``sub``, ``mul``, ``scale_arg``) are also checked against its row kernels
(``eval_at``, ``from_roots``, ``rescale``), which share no code with them.
A non-rational root goes through ``from_roots`` on field elements, the way
``ref_from_roots`` takes every root; ``kpoly.mul``, a double loop over the
coefficients, checks that route independently.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from padicover import fppoly, kpoly
from padicover.field import FieldContext, NegativeValuation
from padicover.newton import positive_roots
from reference import poly_general


# ---------------------------------------------------------------------------
# the reference: polynomials as trimmed lists of Elements


def trim(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def ref_translate(f, b):
    out = []
    for c in reversed(f):
        # out <- out * (X + b) + c
        new = [c * 0] + out
        for i, oc in enumerate(out):
            new[i] = new[i] + oc * b
        new[0] = new[0] + c
        out = new
    return trim(out)


def ref_scale_arg(f, u):
    return trim([c * u**i for i, c in enumerate(f)])


def ref_rescale(f, nu, c):
    ctx = f[0].ctx
    out = [ctx.zero()]
    for i in range(1, len(f)):
        q = i * nu - c
        out.append(f[i] * ctx.uniformizer_power(q.numerator, q.denominator))
    return trim(out)


def ref_primitive(f, ctx):
    v = min(c.val() for c in f if c)
    inv = ctx.uniformizer_power(-v.numerator, v.denominator)
    return [c * inv for c in f], v


def ref_reduction(f, ctx):
    return fppoly.normalize([c.residue() for c in f], ctx.p)


def ref_eval_at(f, x):
    acc = x.ctx.zero()
    for c in reversed(f):
        acc = acc * x + c
    return acc


def ref_from_roots(ctx, roots):
    f = [ctx.one()]
    for x, m in roots:
        for _ in range(m):
            f = trim([a - b * x for a, b in zip([ctx.zero()] + f, f + [ctx.zero()])])
    return f


def ref_positive_roots(f):
    pts = [(i, c.val()) for i, c in enumerate(f) if c]
    count, least = min(pts, key=lambda pt: pt[1])
    return count, min(((v - least) / (count - i) for i, v in pts if i < count), default=None)


# ---------------------------------------------------------------------------
# reading a layout without kpoly


def elements(f):
    """The coefficients of a layout, built from its rows by field arithmetic."""
    ctx = f.ctx
    size = kpoly.degree(f) + 1
    out = [ctx.zero()] * size
    for k, row in f.rows:
        power = ctx.uniformizer_power(k, f.n)
        for i, a in enumerate(row):
            out[i] = out[i] + ctx.from_rational(Fraction(a, f.den)) * power
    return out


def assert_canonical(f):
    """Rows sorted and nonzero, one length with a nonzero last column, n and
    den least."""
    if not f:
        assert (f.n, f.rows, f.den) == (1, (), 1)
        return
    ks = [k for k, _ in f.rows]
    assert ks == sorted(set(ks)) and 0 <= ks[0] and ks[-1] < f.n
    assert len({len(row) for _, row in f.rows}) == 1
    assert all(any(row) and all(type(a) is int for a in row) for _, row in f.rows)
    assert any(row[-1] for _, row in f.rows)
    assert gcd(f.n, *ks) == 1
    assert f.den > 0 and gcd(f.den, *[a for _, row in f.rows for a in row]) == 1


def same(f, reference):
    """The layout f holds exactly the reference list, canonically."""
    assert_canonical(f)
    assert elements(f) == trim(reference)
    assert f == kpoly.from_elements(f.ctx, reference)


# ---------------------------------------------------------------------------
# seeded inputs


def random_element(rng, ctx, n, terms=3):
    """Up to ``terms`` terms a/d * p**(k/n), k possibly negative, d
    sometimes divisible by p."""
    p, x = ctx.p, ctx.zero()
    for _ in range(rng.randint(1, terms)):
        k = rng.randint(-n, 3 * n)
        a = rng.randint(-30, 30)
        d = rng.choice([1, 1, 2, 3, p, p * p, 2 * p])
        x = x + ctx.from_rational(Fraction(a, d)) * ctx.uniformizer_power(k, n)
    return x


def random_poly(rng, ctx):
    n = rng.randint(1, 4)
    coeffs = [
        random_element(rng, ctx, rng.choice([n, 1]), 2) if rng.random() < 0.85 else ctx.zero()
        for _ in range(rng.randint(1, 6))
    ]
    return coeffs


def cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        ctx = FieldContext(rng.choice([3, 5, 7]), 1)
        coeffs = random_poly(rng, ctx)
        f = kpoly.from_elements(ctx, coeffs)
        if f:
            yield rng, ctx, coeffs, f


def test_from_elements_round_trips():
    kinds = set()
    for _, ctx, coeffs, f in cases(1, 300):
        same(f, coeffs)
        kinds.update(
            kind
            for kind, hit in (
                ("n > 1", f.n > 1),
                ("p | den", f.den % ctx.p == 0),
                ("several rows", len(f.rows) > 1),
            )
            if hit
        )
    assert kinds == {"n > 1", "p | den", "several rows"}


def test_one_rational_row_is_made_canonical_as_the_general_form_makes_it():
    # the row antiderivative builds for a rational beta: trailing zeros, an
    # all-zero row, a negative den and a content shared with den
    rng, seen = random.Random(13), set()
    for _ in range(400):
        ctx = FieldContext(rng.choice([3, 5, 7]), 1)
        p = ctx.p
        common = rng.choice([1, 2, p, p * p, 6])
        row = [rng.choice([0, rng.randint(-50, 50)]) * common for _ in range(rng.randint(1, 6))]
        row += [0] * rng.randint(0, 2)
        if rng.random() < 0.1:
            row = [0] * len(row)
        den = rng.choice([1, 2, 3, p, p * p, 12]) * rng.choice([1, common, -1, -common])
        for rows in ([(0, row)], {0: list(row)}.items()):
            got = kpoly._poly(ctx, 1, rows, den)
            assert_canonical(got)
            assert got == poly_general(ctx, 1, [(0, row)], den)
            assert elements(got) == trim(ctx.from_rational(Fraction(a, den)) for a in row)
        seen.add((not any(row), den < 0, not row[-1], gcd(den, *row) > 1))
    assert all(any(kind[i] for kind in seen) for i in range(4))


def test_translate():
    for rng, ctx, coeffs, f in cases(2, 200):
        integer = ctx.from_rational(rng.randint(-2 * ctx.p, 2 * ctx.p))
        several = random_element(rng, ctx, rng.randint(1, 4))
        for b in (integer, several, ctx.from_rational(Fraction(rng.randint(1, 9), ctx.p))):
            same(kpoly.translate(f, b), ref_translate(coeffs, b))


def test_scale_arg():
    for rng, ctx, coeffs, f in cases(3, 200):
        monomial = ctx.uniformizer_power(rng.randint(-4, 8), rng.randint(1, 4))
        several = random_element(rng, ctx, rng.randint(1, 4))
        for u in (monomial, several, ctx.zero()):
            same(kpoly.scale_arg(f, u), ref_scale_arg(coeffs, u))


def test_scale_arg_by_a_power_of_p_is_rescale():
    # scale_arg works on field elements; rescale is the row kernel
    for rng, ctx, coeffs, f in cases(9, 200):
        q = Fraction(rng.randint(0, 6), rng.randint(1, 4))
        scaled = kpoly.rescale(f, q.numerator, 0, q.denominator)
        tail = [kpoly.coefficient(scaled, i) for i in range(1, kpoly.degree(f) + 1)]
        want = kpoly.from_elements(ctx, [kpoly.coefficient(f, 0)] + tail)
        assert kpoly.scale_arg(f, ctx.uniformizer_power(q.numerator, q.denominator)) == want


def test_mul_of_linear_factors_is_from_roots():
    rng = random.Random(10)
    for _ in range(100):
        ctx = FieldContext(rng.choice([3, 5, 7]), 1)
        roots = [
            (random_element(rng, ctx, rng.randint(1, 4), rng.choice([1, 2])), rng.randint(1, 3))
            for _ in range(rng.randint(0, 3))
        ]
        product = kpoly.from_elements(ctx, [ctx.one()])
        for x, m in roots:
            for _ in range(m):
                product = kpoly.mul(product, kpoly.from_elements(ctx, [-x, ctx.one()]))
        assert product == kpoly.from_roots(ctx, roots)


def test_sub_evaluates_to_the_difference():
    # at a rational point eval_at is the integer Horner per row
    for rng, ctx, coeffs, f in cases(11, 200):
        g = kpoly.from_elements(ctx, random_poly(rng, ctx))
        x = ctx.from_rational(Fraction(rng.randint(-20, 20), rng.choice([1, 2, ctx.p])))
        assert kpoly.eval_at(kpoly.sub(f, g), x) == kpoly.eval_at(f, x) - kpoly.eval_at(g, x)


def test_rescale():
    # nu >= 0 with mixed denominators, c of either sign, the constant dropped
    for rng, ctx, coeffs, f in cases(8, 200):
        nu = Fraction(rng.randint(0, 6), rng.randint(1, 4))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        d = lcm(nu.denominator, c.denominator)
        same(kpoly.rescale(f, int(nu * d), int(c * d), d), ref_rescale(coeffs, nu, c))


def test_primitive_and_reduction():
    negative = 0
    for _, ctx, coeffs, f in cases(4, 300):
        g, v = kpoly.primitive(f)
        h, w = ref_primitive(coeffs, ctx)
        same(g, h)
        assert v == w and type(v) is Fraction
        assert kpoly.reduction(g) == ref_reduction(h, ctx)
        assert kpoly.reduction(g)  # content 0: a nonzero reduction
        if min(c.val() for c in coeffs if c) < 0:
            negative += 1
            with pytest.raises(NegativeValuation):
                kpoly.reduction(f)
        else:
            assert kpoly.reduction(f) == ref_reduction(coeffs, ctx)
    assert negative > 20


def test_unit_residue():
    # every nonzero coefficient against the residue of c / p**v(c), built by
    # field arithmetic; the seeded inputs reach a den divisible by p and a
    # den whose unit part is not 1 mod p
    seen = {"coefficients": 0, "p | den": 0, "den unit not 1": 0}
    for _, ctx, coeffs, f in cases(13, 300):
        p, den = ctx.p, f.den
        while den % p == 0:
            den //= p
        for i, c in enumerate(coeffs):
            if c:
                v = c.val()
                unit = c * ctx.uniformizer_power(-v.numerator, v.denominator)
                assert kpoly.unit_residue(f, i) == unit.residue() != 0
                seen["coefficients"] += 1
                seen["p | den"] += f.den % p == 0
                seen["den unit not 1"] += den % p != 1
    assert seen == {"coefficients": 876, "p | den": 717, "den unit not 1": 519}


def test_eval_at():
    for rng, ctx, coeffs, f in cases(5, 200):
        for x in (
            ctx.from_rational(Fraction(rng.randint(-20, 20), rng.choice([1, 2, ctx.p]))),
            random_element(rng, ctx, rng.randint(1, 4)),
            ctx.zero(),
        ):
            assert kpoly.eval_at(f, x) == ref_eval_at(coeffs, x)


def test_from_roots():
    rng = random.Random(6)
    for _ in range(100):
        ctx = FieldContext(rng.choice([3, 5, 7]), 1)
        roots = [
            (random_element(rng, ctx, rng.randint(1, 4), rng.choice([1, 2])), rng.randint(1, 3))
            for _ in range(rng.randint(0, 3))
        ]
        same(kpoly.from_roots(ctx, roots), ref_from_roots(ctx, roots))
    # rational roots only, the pass that keeps each row in place: multiplicities
    # up to p - 1, as in a critical divisor, and denominators both prime to p
    # and divisible by p
    for p in (5, 7, 31, 101):
        ctx, dens = FieldContext(p, 1), set()
        for _ in range(12):
            roots = []
            for _ in range(rng.randint(1, 3)):
                d = rng.choice([1, 2, 3, p, 2 * p, p * p])
                a = rng.choice([0, rng.randint(-3 * p, 3 * p), rng.randint(1, 9) * d + 1])
                x = ctx.from_rational(Fraction(a, d))
                dens.add(x.den % p == 0)
                roots.append((x, rng.randint(1, p - 1)))
            same(kpoly.from_roots(ctx, roots), ref_from_roots(ctx, roots))
        assert dens == {True, False}


def reading(f):
    """positive_roots of f as (count, least positive root valuation or None)."""
    count, rise, run = positive_roots(kpoly.scaled_valuations(f))
    return count, None if rise is None else Fraction(rise, f.n * run)


def test_positive_roots():
    for _, ctx, coeffs, f in cases(7, 300):
        assert reading(f) == ref_positive_roots(coeffs)
        g = kpoly.primitive(f)[0]
        assert reading(g) == ref_positive_roots(elements(g))

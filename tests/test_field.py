import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, strategies as st

from padicover.field import (
    PRIME_BOUND,
    DivisionByZero,
    FieldContext,
    NegativeValuation,
    _from_pairs,
    _parse_pair,
    _reduced,
    parse_rat,
)
from reference import reduced_general, vp


def random_element(rng, ctx, scale=3):
    coeffs = []
    for _ in range(ctx.e):
        num = rng.randint(-(ctx.p**scale), ctx.p**scale)
        den = rng.choice([1, 1, 1, ctx.p, ctx.p**2, rng.randint(1, 50)])
        coeffs.append(Fraction(num, den))
    return ctx.element(coeffs)


def test_context_basics():
    K = FieldContext(5, 4)
    assert K.from_rational(5).val() == 1
    assert K.pi().val() == Fraction(1, 4)
    assert K.zero().val() is None
    assert K.one().val() == 0
    with pytest.raises(ValueError):
        FieldContext(6)
    with pytest.raises(ValueError):
        FieldContext(5, 0)


def test_p_and_e_must_be_integers():
    for p, e in ((5.9, 1), (5.0, 1), (5, 1.7), (True, 1), (5, True), ("5", 1)):
        with pytest.raises(ValueError, match="must be integers"):
            FieldContext(p, e)


def test_primality_is_exact_up_to_the_bound():
    def accepts(p):
        try:
            FieldContext(p)
        except ValueError:
            return False
        return True

    def trial_division(n):
        return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

    assert all(accepts(n) == trial_division(n) for n in range(3000))
    # a strong pseudoprime to base 2, a Carmichael number, and the least
    # strong pseudoprime to every prime base up to 37
    for n in (2047, 561, 1, 318665857834031151167461):
        assert not accepts(n)
    assert FieldContext(2**61 - 1).p == 2**61 - 1
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        FieldContext(PRIME_BOUND)


def test_val_examples():
    K = FieldContext(5, 1)
    assert K.from_rational(Fraction(50)).val() == 2
    assert K.from_rational(Fraction(3, 5)).val() == -1
    assert K.from_rational(Fraction(7, 3)).val() == 0
    L = FieldContext(5, 2)
    # 5 + pi has valuation 1/2 (the pi term wins)
    assert L.element([5, 1]).val() == Fraction(1, 2)
    # 1/5 * pi has valuation -1/2
    assert L.element([0, Fraction(1, 5)]).val() == Fraction(-1, 2)


def test_ultrametric_random_pairs():
    # v(x+y) >= min(v x, v y), equality whenever the valuations differ
    rng = random.Random(20260822)
    contexts = [FieldContext(5, 1), FieldContext(5, 2), FieldContext(3, 4), FieldContext(7, 3)]
    for _ in range(10_000):
        K = rng.choice(contexts)
        x, y = random_element(rng, K), random_element(rng, K)
        if not (x and y and x + y):
            continue  # a zero term or sum makes the law trivial
        vx, vy, vs = x.val(), y.val(), (x + y).val()
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)


def test_multiplicativity_random():
    rng = random.Random(7)
    for e in (1, 2, 3, 6):
        K = FieldContext(5, e)
        for _ in range(400):
            x, y = random_element(rng, K), random_element(rng, K)
            if x and y:
                assert (x * y).val() == x.val() + y.val()
            else:
                assert (x * y).val() is None


def test_mul_div_roundtrip():
    rng = random.Random(99)
    for e in (1, 2, 4, 5):
        K = FieldContext(5, e)
        for _ in range(200):
            x, y = random_element(rng, K), random_element(rng, K)
            if not y:
                continue
            assert (x * y.inverse()) * y == x
    with pytest.raises(DivisionByZero):
        K.zero().inverse()


def test_residue_is_ring_homomorphism():
    rng = random.Random(4)
    K = FieldContext(7, 3)
    picked = 0
    while picked < 300:
        x, y = random_element(rng, K), random_element(rng, K)
        if (x and x.val() < 0) or (y and y.val() < 0):
            continue
        picked += 1
        assert (x + y).residue() == (x.residue() + y.residue()) % 7
        assert (x * y).residue() == (x.residue() * y.residue()) % 7
    assert K.one().residue() == 1
    with pytest.raises(NegativeValuation) as info:
        K.element([Fraction(1, 7), 0, 0]).residue()
    assert str(info.value) == "element has valuation -1 < 0"
    with pytest.raises(NegativeValuation) as info:
        K.element([0, Fraction(1, 7), 0]).residue()
    assert str(info.value) == "element has valuation -2/3 < 0"


def test_uniformizer_power_exact():
    # every rational is a valuation, whatever the context's e
    K = FieldContext(5, 4)
    for num in range(-8, 9):
        for den in (1, 4, 6, 35):
            u = K.uniformizer_power(num, den)
            assert u.val() == Fraction(num, den)
            assert u * K.uniformizer_power(-num, den) == K.one()
    assert K.uniformizer_power(1, 6) ** 6 == K.from_rational(5)
    assert K.uniformizer_power(3, 4) == K.pi() ** 3


def _spread(strings, k):
    """A dense vector over pi as one over a k-th root of pi."""
    out = ["0"] * (k * len(strings))
    out[::k] = strings
    return out


def test_embedding_preserves_arithmetic():
    # the e = 2 vector spread over e' = 6 names the same element
    K = FieldContext(5, 2)
    L = K.enlarged(6)
    rng = random.Random(11)
    for _ in range(100):
        x, y = random_element(rng, K), random_element(rng, K)
        lx = L.element(_spread(x.to_strings(), 3))
        ly = L.element(_spread(y.to_strings(), 3))
        assert lx == x and lx.val() == x.val()
        assert (lx * ly).to_strings() == _spread((x * y).to_strings(), 3)
        assert (lx + ly).to_strings() == _spread((x + y).to_strings(), 3)
    with pytest.raises(ValueError):
        K.enlarged(5)


@given(st.fractions(), st.fractions())
def test_vp_additive(q1, q2):
    p = 5
    if q1 == 0 or q2 == 0:
        return
    assert vp(q1 * q2, p) == vp(q1, p) + vp(q2, p)


@given(st.fractions())
def test_rat_format_roundtrip(q):
    assert parse_rat(str(q)) == q


@given(
    st.sampled_from([2, 3, 5]),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 30)), min_size=1, max_size=4),
)
def test_strings_parse_straight_to_the_canonical_element(p, pairs):
    # "a/b" not in lowest terms, "0/b" and spaces; the reference sums Fractions
    K = FieldContext(p, len(pairs))
    strings = [f" {a * b}/{b * b}" if a % 2 else f"{a}/{b} " for a, b in pairs]
    want = K.zero()
    for i, c in enumerate(strings):
        want += K.from_rational(parse_rat(c)) * K.pi() ** i
    assert K.element(strings) == want
    assert K.element([parse_rat(c) for c in strings]) == want


@pytest.mark.parametrize("bad", ["1/0", "0/0", " -3/0"])
def test_a_zero_denominator_is_refused(bad):
    with pytest.raises(ZeroDivisionError):
        parse_rat(bad)
    with pytest.raises(ZeroDivisionError):
        FieldContext(5, 2).element(["1", bad])


@pytest.mark.parametrize("bad", [True, 1.5, "1.5", "1e3", "1/-2", "1 / 2", "", None])
def test_only_ints_fractions_and_rational_strings_parse(bad):
    with pytest.raises(ValueError):
        parse_rat(bad)
    with pytest.raises(ValueError):
        FieldContext(5, 2).element([bad])


@pytest.mark.parametrize("bad", [1.5, 2.0, "2", "1/2", True, None])
def test_from_rational_takes_only_an_int_or_a_fraction(bad):
    K = FieldContext(5, 2)
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        K.from_rational(bad)
    with pytest.raises(TypeError):
        K.one() + bad
    assert K.from_rational(Fraction(-3, 5)) * K.from_rational(5) == K.from_rational(-3)


def test_pow_matches_repeated_mul():
    K = FieldContext(3, 2)
    x = K.element([2, Fraction(1, 3)])
    assert x**0 == K.one()
    assert x**3 == x * x * x
    assert x**-2 == (x * x).inverse()


def test_pow_takes_only_an_int():
    K = FieldContext(5, 2)
    x = K.element([2, Fraction(1, 5)])
    for n in (2.5, 2.0, "2", True, Fraction(2)):
        with pytest.raises(TypeError, match="exponent must be an int"):
            x**n
    assert x**2 == x * x


# sparse elements mixing the denominators N of their exponents
MIXED = FieldContext(5, 12)


@st.composite
def mixed_elements(draw):
    x = MIXED.zero()
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.sampled_from([1, 2, 3, 4, 6]))
        q = Fraction(draw(st.integers(-2 * n, 3 * n)), n)
        c = draw(st.fractions(min_value=-60, max_value=60, max_denominator=30))
        x = x + MIXED.uniformizer_power(q.numerator, q.denominator) * c
    return x


@given(mixed_elements(), mixed_elements())
def test_mixed_denominators_valuation_is_multiplicative(x, y):
    if x and y:
        assert (x * y).val() == x.val() + y.val()
    else:
        assert (x * y).val() is None


@given(mixed_elements())
def test_integrality_is_a_valuation_at_least_zero(x):
    assert x.is_integral() == (not x or x.scaled_val() >= 0)


@given(mixed_elements())
def test_mixed_denominators_inverse(x):
    if not x:
        return
    assert x * x.inverse() == MIXED.one()


@given(mixed_elements())
def test_mixed_denominators_dense_roundtrip(x):
    assert MIXED.element(x.to_strings()) == x


# a dense reference model of Q_p(pi), pi = p**(1/e): vectors of e Fractions,
# multiplied modulo X**e - p


def dense_mul(x, y, p):
    e = len(x)
    out = [Fraction(0)] * e
    for i, c in enumerate(x):
        for j, d in enumerate(y):
            if i + j < e:
                out[i + j] += c * d
            else:
                out[i + j - e] += c * d * p
    return out


def dense_val(x, p):
    e = len(x)
    vals = [vp(c, p) + Fraction(i, e) for i, c in enumerate(x) if c]
    return min(vals) if vals else None


def dense_strings(x):
    return [str(c.numerator) + (f"/{c.denominator}" if c.denominator > 1 else "") for c in x]


def assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *(a for _, a in x.terms)) == 1
    assert all(type(a) is int and a for _, a in x.terms)


def dense_vectors(p, e):
    coeff = st.one_of(
        st.just(Fraction(0)),
        st.builds(
            Fraction,
            st.integers(-(p**4), p**4),
            st.sampled_from([1, 2, p, p * p, p**3, 3 * p, 7]),
        ),
    )
    return st.lists(coeff, min_size=e, max_size=e)


@st.composite
def dense_cases(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    e = draw(st.sampled_from([1, 2, 3, 4]))
    x, y = draw(dense_vectors(p, e)), draw(dense_vectors(p, e))
    q = draw(st.fractions(min_value=-50, max_value=50, max_denominator=p**2))
    return FieldContext(p, e), x, y, q


@given(dense_cases())
def test_integer_kernel_matches_the_dense_fraction_model(case):
    K, dx, dy, q = case
    p = K.p
    x, y = K.element(dx), K.element(dy)
    for z, dz in ((x, dx), (y, dy)):
        assert_canonical(z)
        assert z.to_strings() == dense_strings(dz)
    results = {
        "+": (x + y, [a + b for a, b in zip(dx, dy)]),
        "-": (x - y, [a - b for a, b in zip(dx, dy)]),
        "neg": (-x, [-c for c in dx]),
        "*": (x * y, dense_mul(dx, dy, p)),
        "* rational": (x * q, [c * q for c in dx]),
    }
    for op, (z, dz) in results.items():
        assert_canonical(z)
        assert z.to_strings() == dense_strings(dz), op
        assert z == K.element(dz), op
        expected = dense_val(dz, p)
        assert z.val() == expected, op
    v = dense_val(dx, p)
    if v is None or v > 0:
        assert x.residue() == 0
    elif v == 0:
        assert x.residue() == dx[0].numerator * pow(dx[0].denominator, -1, p) % p
    else:
        with pytest.raises(NegativeValuation):
            x.residue()
    if any(dx):
        inv = x.inverse()
        assert_canonical(inv)
        dinv = [Fraction(c) for c in inv.to_strings()]
        assert dense_mul(dx, dinv, p) == [Fraction(1)] + [Fraction(0)] * (K.e - 1)
    s = (x + y) - y
    assert s == x and hash(s) == hash(x)


# -- the rational fast paths against the general forms ------------------------


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(-(7**5), 7**5),
    st.integers(1, 7**4),
    st.integers(1, 60),
    st.sampled_from([1, 2, 3, 4]),
)
def test_a_rational_is_reduced_as_the_general_form_reduces_it(p, a, den, common, e):
    # a shared factor, a power of p among them, so the gcd has work to do
    K = FieldContext(p, e)
    a, den = a * common, den * common
    terms = [(0, a)] if a else []
    got = _reduced(K, 1, terms, den)
    assert_canonical(got)
    assert got == reduced_general(K, 1, terms, den)
    assert got == K.from_rational(Fraction(a, den))


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.sampled_from([1, 2, 3, 4]),
    st.integers(-500, 500),
    st.integers(1, 500),
    st.lists(st.sampled_from(["0", " 0", "0/7", "-0", 0, Fraction(0)]), max_size=3),
)
def test_a_leading_only_coordinate_parses_as_the_general_form(p, e, a, b, zeros):
    K = FieldContext(p, e)
    coeffs = [f"{a}/{b}"] + zeros[: e - 1]
    pairs = [(i, *_parse_pair(c)) for i, c in enumerate(coeffs)]
    got = K.element(coeffs)
    assert_canonical(got)
    assert got == _from_pairs(K, e, pairs)
    assert got.n == 1 and got == K.from_rational(Fraction(a, b))


@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(-500, 500),
    st.integers(1, 500),
    st.integers(-500, 500).filter(bool),
    st.integers(1, 500),
)
def test_a_later_nonzero_coefficient_still_parses_off_the_rationals(p, a, b, c, d):
    for K, coeffs, n in (
        (FieldContext(p, 2), ["0", f"{c}/{d}"], 2),
        (FieldContext(p, 2), [f"{a}/{b}", f"{c}/{d}"], 2),
        (FieldContext(p, 3), [f"{a}/{b}", "0", f"{c}/{d}"], 3),
    ):
        pairs = [(i, *_parse_pair(x)) for i, x in enumerate(coeffs)]
        got = K.element(coeffs)
        assert_canonical(got)
        assert got.n == n and got == _from_pairs(K, K.e, pairs)

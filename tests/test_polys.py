import random
from collections import Counter
from fractions import Fraction

import pytest

from padicover import fppoly, kpoly
from padicover.cover import from_critical_divisor
from padicover.field import FieldContext
from padicover.kpoly import ZeroPolynomial
from reference import derivative, fp_mul, from_rationals, is_squarefree


def test_fppoly_divmod_gcd():
    p = 5
    f = fp_mul([1, 1], [2, 0, 1], p)  # (X+1)(X^2+2)
    q, r = fppoly.divmod_fp(f, [1, 1], p)
    assert q == [2, 0, 1] and r == []
    assert fppoly.gcd(f, [1, 1], p) == [1, 1]
    assert fppoly.gcd([2, 0, 1], [1, 1], p) == [1]
    assert is_squarefree(f, p)
    assert not is_squarefree(fp_mul(f, [1, 1], p), p)


def test_fppoly_roots():
    p = 7
    f = fp_mul(fp_mul([6, 1], [6, 1], p), [1, 0, 1], p)  # (X-1)^2(X^2+1)
    roots, cof = fppoly.rational_roots(f, p)
    assert roots == {1: 2}
    assert fppoly.degree(cof) == 2
    assert fppoly.root_multiplicity(f, 1, p) == 2
    assert fppoly.root_multiplicity(f, 3, p) == 0


def test_residual_roots_are_stripped_exactly():
    # prod (X - w)**m over the roots, times the cofactor, is f again, and the
    # cofactor has no root in F_p by direct evaluation
    rng = random.Random(13)
    for p in (3, 5, 7, 11, 13):
        for _ in range(60):
            f = [rng.randrange(-2 * p, 2 * p) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(0, 4)):  # plant some repeated roots
                f = fp_mul(f, [-rng.randrange(p), 1], p)
            if not fppoly.normalize(f, p):
                continue
            roots, cofactor = fppoly.rational_roots(f, p)
            product = cofactor
            for w, m in roots.items():
                assert m >= 1
                for _ in range(m):
                    product = fp_mul(product, [-w % p, 1], p)
            assert product == fppoly.normalize(f, p)
            assert cofactor == fppoly.normalize(cofactor, p)
            for w in range(p):
                assert sum(c * w**i for i, c in enumerate(cofactor)) % p
                assert fppoly.root_multiplicity(f, w, p) == roots.get(w, 0)


def scan_rational_roots(f, p):
    """The reference reading: every residue in turn, divided out by
    ``divmod_fp`` while it is a root, whatever the cofactor's degree."""
    roots, g = {}, fppoly.normalize(f, p)
    for w in range(p):
        while g and not fppoly.divmod_fp(g, [-w % p, 1], p)[1]:
            g = fppoly.divmod_fp(g, [-w % p, 1], p)[0]
            roots[w] = roots.get(w, 0) + 1
    return roots, g


def random_irreducible(rng, p, d):
    """A monic irreducible polynomial of degree 2 or 3: one with no root."""
    while True:
        f = [rng.randrange(p) for _ in range(d)] + [1]
        if all(sum(c * w**i for i, c in enumerate(f)) % p for w in range(p)):
            return f


def test_rational_roots_match_the_per_residue_scan():
    # random products of linear factors, irreducible factors of degree 2
    # and 3, and a unit: rootless, constant and zero cofactors all occur
    rng = random.Random(31)
    cofactors = Counter()
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        for _ in range(40):
            f = [rng.randrange(1, p)]
            for _ in range(rng.randint(0, 5)):
                f = fp_mul(f, [-rng.randrange(p) % p, 1], p)
            for _ in range(rng.choice([0, 0, 1, 2])):
                f = fp_mul(f, random_irreducible(rng, p, rng.choice([2, 3])), p)
            if rng.random() < 0.02:
                f = []
            roots, cofactor = fppoly.rational_roots(f, p)
            assert (roots, cofactor) == scan_rational_roots(f, p)
            cofactors[min(fppoly.degree(cofactor), 1)] += 1
    assert set(cofactors) == {-1, 0, 1}


def test_kpoly_affine_substitution_matches_eval():
    rng = random.Random(5)
    K = FieldContext(5, 2)
    for _ in range(40):
        f = [K.element([rng.randint(-9, 9), rng.randint(-9, 9)]) for _ in range(rng.randint(1, 5))]
        f = kpoly.from_elements(K, f)
        if not f:
            continue
        a = K.element([rng.randint(1, 9), rng.randint(0, 3)])
        b = K.element([rng.randint(-9, 9), rng.randint(-9, 9)])
        x = K.element([rng.randint(-9, 9), 0])
        lhs = kpoly.eval_at(kpoly.scale_arg(kpoly.translate(f, b), a), x)
        rhs = kpoly.eval_at(f, a * x + b)
        assert lhs == rhs


def test_kpoly_primitive_and_content():
    K = FieldContext(5, 2)
    f = from_rationals(K, [25, 10, 5])
    g, c = kpoly.primitive(f)
    assert c == 1
    vals = [kpoly.coefficient(g, i).val() for i in range(kpoly.degree(g) + 1)]
    assert min(v for v in vals if v is not None) == 0
    assert kpoly.reduction(g) == [0, 2, 1]
    with pytest.raises(ZeroPolynomial):
        kpoly.primitive(from_rationals(K, []))


def test_kpoly_divmod_roundtrip():
    rng = random.Random(17)
    K = FieldContext(3, 1)
    for _ in range(30):
        f = from_rationals(K, [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
        g = from_rationals(K, [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))])
        if not f or not g:
            continue
        q, r = kpoly.divmod_k(f, g)
        assert kpoly.sub(f, kpoly.mul(q, g)) == r
        assert kpoly.degree(r) < kpoly.degree(g)


def test_kpoly_gcd_planted_common_factor():
    K = FieldContext(5, 1)
    common = from_rationals(K, [-2, 1])  # X - 2
    f = kpoly.mul(common, from_rationals(K, [1, 1]))
    g = kpoly.mul(common, from_rationals(K, [3, 0, 1]))
    assert kpoly.gcd_k(f, g) == common
    # coprime pair has constant gcd
    assert kpoly.degree(kpoly.gcd_k(from_rationals(K, [1, 1]), from_rationals(K, [2, 1]))) == 0


def test_kpoly_calculus():
    # beta, built in one pass, is the antiderivative of p * prod (X - x)**(m-1)
    # that vanishes at 0
    K = FieldContext(5, 2)
    points = [(K.pi(), 3), (K.from_rational(Fraction(1, 3)), 3)]
    beta = from_critical_divisor(points, K).beta
    dbeta = kpoly.from_roots(K, [(x, m - 1) for x, m in points])
    assert derivative(beta) == kpoly.mul(dbeta, from_rationals(K, [5]))
    assert not kpoly.eval_at(beta, K.zero())
    assert kpoly.coefficient(beta, 5) == K.one()


def test_kpoly_from_roots_kills_roots():
    K = FieldContext(5, 2)
    pts = [(K.pi(), 2), (K.from_rational(3), 1)]
    f = kpoly.from_roots(K, pts)
    assert kpoly.degree(f) == 3
    for x, _ in pts:
        assert not kpoly.eval_at(f, x)
    assert kpoly.coefficient(f, 3) == K.one()

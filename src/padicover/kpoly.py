"""Polynomials over the valued field K, on integer rows over one denominator.

A polynomial is held as  sum over k of p**(k/n) * P_k(X) / den,  with every
P_k in Z[X]: the layout of :mod:`padicover.field` lifted to polynomials, and
that of FLINT's fmpq_poly (W. Hart, ICMS 2010) with the classes p**(k/n)
added.  A :class:`Poly` keeps only its nonzero rows P_k, all of length
deg + 1, one shared n, the least its rows need, and one positive den, the
least with gcd(den, every entry) = 1.  So the layout is canonical, equality
compares it, and no coefficient is stored as a field element.  A polynomial
over Q, n = 1, is one row (0, P_0) over den; ``_poly`` makes such a row, the
one ``antiderivative`` builds for every rational beta, canonical with one
gcd(den, *P_0) and a trim of its trailing zeros.

The workloads decide which operations are row kernels: those that building a
cover, ``branch_data`` and the blow-up engine call, and rows serve their
rational operands.

* ``from_roots`` makes one pass over one integer row per rational linear
  factor, and ``antiderivative`` one pass in all; together they build beta.
  Any other factor X - x multiplies the coefficients as field elements.
* ``eval_at`` at a rational point is a homogeneous integer Horner per row;
  at any other point (planted covers, e > 1) it is Horner over field
  elements.  So both split as rows for rational operands and the field for
  the rest, and multiplication in Z[p**(1/n)] has the one definition in
  :mod:`padicover.field`.
* ``translate`` by a rational integer is the integer Taylor shift of each row
  (the classical in-place Horner scheme; von zur Gathen and Gerhard, ISSAC
  1997).  It keeps the layout canonical: the shift is unimodular over Z.
* ``rescale``, the blow-up's change of chart, finds each entry's row and
  power of p from its exponent index, in one pass.  The blow-up engine runs
  it once on each non-root disc it blows up, on the chart the disc keeps,
  just before the disc's first blow-up, and never on a leaf; every child
  disc's reduction is read off the translated parent by ``unit_residue``,
  the residue of a coefficient's unit part.
* ``reduction`` reads the k = 0 row mod p: the other rows lie in the maximal
  ideal, and p divides den exactly when some coefficient is not integral.
* ``scaled_valuations`` gives n times the valuation of each coefficient as an
  int, in one pass; the Newton readings of :mod:`padicover.newton` use it.
* ``coefficient`` and ``from_elements`` convert between rows and elements.

No workload runs the rest, so they go through ``elements`` and the arithmetic
of :mod:`padicover.field`: ``sub``, ``mul``, ``scale_arg``, ``translate`` by
any other element, ``primitive`` (``rescale`` plus the constant term),
``divmod_k`` and ``gcd_k``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm

from . import fppoly
from .field import NegativeValuation, _reduced, _vp_int


class ZeroPolynomial(ValueError):
    """An operation that needs a nonzero polynomial got the zero one."""


class Poly:
    """sum over (k, row) in rows of p**(k/n) * row(X) / den.

    ``rows`` is a tuple of pairs (k, row), sorted by k with 0 <= k < n, each
    row a nonzero tuple of ints, the coefficients of P_k from X**0 up, all of
    length deg + 1 with some row nonzero in the last place.  n is least and
    den > 0 is least, so equal polynomials have equal layouts.  The zero
    polynomial has no rows, n = 1 and den = 1.
    """

    __slots__ = ("ctx", "n", "rows", "den")

    def __init__(self, ctx, n, rows, den):
        self.ctx = ctx
        self.n = n
        self.rows = rows
        self.den = den

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.n == other.n
            and self.den == other.den
            and self.rows == other.rows
            and self.ctx.p == other.ctx.p
        )

    def __hash__(self):
        return hash((self.n, self.rows, self.den))

    def __repr__(self):
        return f"Poly(p={self.ctx.p}, n={self.n}, rows={self.rows!r}, den={self.den})"


def _poly(ctx, n, rows, den):
    """Poly from pairs (k, row), rows of one length and k < n, over den != 0,
    made canonical: zero rows and trailing zero columns dropped, n least, den
    positive and least.  One row over n = 1 takes one gcd, with den."""
    if n == 1 and len(rows) == 1:
        ((_, row),) = rows
        size = len(row)
        while size and not row[size - 1]:
            size -= 1
        if not size:
            return Poly(ctx, 1, (), 1)
        h = gcd(den, *row)
        if den < 0:
            h = -h
        row = row[:size] if h == 1 else [a // h for a in row[:size]]
        return Poly(ctx, 1, ((0, tuple(row)),), den // h)
    live = sorted(kr for kr in rows if any(kr[1]))
    if not live:
        return Poly(ctx, 1, (), 1)
    size = len(live[0][1])
    while not any(row[size - 1] for _, row in live):
        size -= 1
    g = gcd(n, *[k for k, _ in live])  # n > 1: over n = 1 there is at most one row
    h = den
    for _, row in live:
        if h == 1:
            break
        h = gcd(h, *row)
    if den < 0:
        h = -h
    if size < len(live[0][1]):
        live = [(k, row[:size]) for k, row in live]
    if h == 1:
        return Poly(ctx, n // g, tuple((k // g, tuple(row)) for k, row in live), den)
    return Poly(
        ctx, n // g, tuple((k // g, tuple(a // h for a in row)) for k, row in live), den // h
    )


def degree(f):
    return len(f.rows[0][1]) - 1 if f.rows else -1


def from_elements(ctx, coeffs):
    """The polynomial sum of coeffs[i] * X**i, from field elements."""
    n = lcm(1, *(c.n for c in coeffs))
    den = lcm(1, *(c.den for c in coeffs))
    out = {}
    for i, c in enumerate(coeffs):
        s, q = n // c.n, den // c.den
        for k, a in c.terms:
            out.setdefault(k * s, [0] * len(coeffs))[i] = a * q
    return _poly(ctx, n, out.items(), den)


def coefficient(f, i):
    """The coefficient of X**i, as a field element."""
    return _reduced(f.ctx, f.n, [(k, row[i]) for k, row in f.rows if row[i]], f.den)


def elements(f):
    """The coefficients of f from X**0 up, as field elements."""
    return [coefficient(f, i) for i in range(degree(f) + 1)]


def sub(f, g):
    pairs = zip_longest(elements(f), elements(g), fillvalue=f.ctx.zero())
    return from_elements(f.ctx, [a - b for a, b in pairs])


def mul(f, g):
    a, b = elements(f), elements(g)
    out = [f.ctx.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return from_elements(f.ctx, out)


def from_roots(ctx, roots_with_mult):
    """Monic polynomial prod (X - x)**m from [(x, m), ...].

    Rational roots go first, on one integer row over den: with x = a / d
    each factor is (d*X - a) / d, so entry i becomes d*row[i-1] - a*row[i],
    and the large entries are multiplied only by the small d and a.  The row
    is canonical already, a product of primitive d*X - a being primitive
    (Gauss).  Any other root multiplies the coefficients as field elements,
    c'_i = c_{i-1} - x*c_i, as ``eval_at`` does at such a point.
    """
    row, den, others = [1], 1, []
    for x, m in roots_with_mult:
        if x.n > 1:
            others.append((x, m))
            continue
        d, a = x.den, x.terms[0][1] if x.terms else 0
        den *= d**m
        for _ in range(m):
            row = [d * b - a * c for b, c in zip([0] + row, row + [0])]
    f = Poly(ctx, 1, ((0, tuple(row)),), den)
    if not others:
        return f
    coeffs, zero = elements(f), ctx.zero()
    for x, m in others:
        for _ in range(m):
            coeffs = [a - x * b for a, b in zip([zero] + coeffs, coeffs + [zero])]
    return from_elements(ctx, coeffs)


def antiderivative(f, c):
    """c times the antiderivative of f that vanishes at 0, over one
    denominator: row entry i is scaled by c * lcm(1..deg+1) / (i + 1)."""
    size = degree(f) + 1
    m = lcm(1, *range(1, size + 1))
    factors = [c * m // (i + 1) for i in range(size)]
    rows = [(k, [0] + [a * q for a, q in zip(row, factors)]) for k, row in f.rows]
    return _poly(f.ctx, f.n, rows, f.den * m)


def eval_at(f, x):
    """f(x), one field element: a homogeneous integer Horner per row when x
    is rational, else Horner over field elements."""
    ctx = f.ctx
    if not f.rows:
        return ctx.zero()
    size, d = len(f.rows[0][1]), x.den
    if x.n == 1:
        a = x.terms[0][1] if x.terms else 0
        terms = []
        for k, row in f.rows:
            # sum of row[i] * a**i * d**(size - 1 - i)
            acc, dp = 0, 1
            for c in reversed(row):
                acc = acc * a + c * dp
                dp *= d
            if acc:
                terms.append((k, acc))
        return _reduced(ctx, f.n, terms, f.den * d ** (size - 1))
    acc = ctx.zero()
    for i in range(size - 1, -1, -1):
        acc = acc * x + coefficient(f, i)
    return acc


def _taylor_shift(row, a):
    """The integer polynomial row(X + a), by the in-place Horner scheme."""
    c = list(row)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += a * c[j + 1]
    return tuple(c)


def translate(f, b):
    """f(X + b).  For a rational integer b, the Taylor shift of each row;
    else f(b * (Y + 1)) at Y = X / b."""
    if not b or degree(f) < 1:
        return f
    if b.n == 1 and b.den == 1:
        a = b.terms[0][1]
        return Poly(f.ctx, f.n, tuple((k, _taylor_shift(row, a)) for k, row in f.rows), f.den)
    return scale_arg(translate(scale_arg(f, b), f.ctx.one()), b.inverse())


def scale_arg(f, u):
    """f(u * X): coefficient i times u**i."""
    return from_elements(f.ctx, [c * u**i for i, c in enumerate(elements(f))])


def rescale(f, j, c, d):
    """(f(p**(j/d) * X) - f(0)) / p**(c/d) for ints j >= 0, c and d > 0, in
    one pass; j/d and c/d need not be in lowest terms.

    The constant column is left out: the oracle carries constants apart.
    Over N = lcm(n, d), entry i of row k stands at p**(E/N) with
    E = k*s + i*J - C >= -C (s = N/n, J = j*N/d, C = c*N/d), so over
    den * p**-low, low = min(0, floor(-C/N)), it goes to row E mod N times
    p**((E - low*N) // N).
    """
    p, size = f.ctx.p, degree(f) + 1
    n = lcm(f.n, d)
    s, J, C = n // f.n, j * (n // d), c * (n // d)
    low = min(0, -C // n)
    out = {}
    for k, row in f.rows:
        for i in range(1, size):
            if row[i]:
                q, r = divmod(k * s + i * J - C - low * n, n)
                out.setdefault(r, [0] * size)[i] = row[i] * p**q
    return _poly(f.ctx, n, out.items(), f.den * p**-low)


def scaled_valuations(f):
    """n * v(c_i) for each coefficient c_i of f, an int, or None for c_i = 0.

    Rows come in increasing k, so a coefficient whose entry in some row is
    prime to p has met its least term there (any entry divisible by p sits
    at n or above) and later rows are skipped for it.
    """
    p, n = f.ctx.p, f.n
    out = [None] * (degree(f) + 1)
    for k, row in f.rows:
        for i, a in enumerate(row):
            if a:
                w = out[i]
                if w is not None and w < n:
                    continue
                v = k if a % p else _vp_int(a, p) * n + k
                if w is None or v < w:
                    out[i] = v
    if f.den % p == 0:
        shift = _vp_int(f.den, p) * n
        out = [None if w is None else w - shift for w in out]
    return out


def unit_residue(f, i):
    """The residue of c / p**v(c) for the coefficient c of X**i, which must
    be nonzero: its least entry (row k, p-adic order q, least q * n + k as
    in ``scaled_valuations``) less its powers of p, over the unit part of den.
    """
    p, n, least = f.ctx.p, f.n, None
    for k, row in f.rows:
        a = row[i]
        if a:
            q = 0 if a % p else _vp_int(a, p)
            if least is None or q * n + k < least[0]:
                least = q * n + k, a // p**q
    den = f.den
    if den % p == 0:
        den //= p ** _vp_int(den, p)
    return least[1] * pow(den, -1, p) % p


def primitive(f):
    """(f / p**v, v) for the content valuation v of f: ``rescale`` with nu = 0
    divides all but the constant term, which is added back divided.  The
    result has content 0, so it reduces to a nonzero polynomial mod the
    maximal ideal.  Raises ZeroPolynomial for the zero polynomial.
    """
    if not f.rows:
        raise ZeroPolynomial("zero polynomial has no primitive part")
    w = min(w for w in scaled_valuations(f) if w is not None)
    constant = coefficient(f, 0) * f.ctx.uniformizer_power(-w, f.n)
    return sub(rescale(f, 0, w, f.n), from_elements(f.ctx, [-constant])), Fraction(w, f.n)


def reduction(f):
    """Coefficientwise residues, as an F_p polynomial.

    A coefficient of negative valuation raises ``NegativeValuation``.
    """
    p = f.ctx.p
    if f.den % p == 0:
        raise NegativeValuation("a coefficient has negative valuation")
    if not f.rows or f.rows[0][0]:
        return []
    inv = pow(f.den, -1, p)
    return fppoly.normalize([a * inv for a in f.rows[0][1]], p)


def divmod_k(f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    ctx, dg = g.ctx, degree(g)
    inv = coefficient(g, dg).inverse()
    q = [ctx.zero()] * max(1, degree(f) - dg + 1)
    while degree(f) >= dg:
        k = degree(f) - dg
        q[k] = coefficient(f, degree(f)) * inv
        # the leading term cancels exactly
        f = sub(f, mul(from_elements(ctx, [ctx.zero()] * k + [q[k]]), g))
    return from_elements(ctx, q), f


def gcd_k(f, g):
    """Monic gcd over the field K (plain Euclid; exact arithmetic)."""
    while g:
        f, g = g, divmod_k(f, g)[1]
    if not f:
        return f
    return mul(f, from_elements(f.ctx, [coefficient(f, degree(f)).inverse()]))

"""Dense polynomials with coefficients in the valued field K.

Same list-of-coefficients convention as :mod:`padicover.fppoly`, but the
entries are field :class:`~padicover.field.Element` values: ``[c0, c1, ...]``
with no trailing zeros, ``[]`` the zero polynomial.  These lists feed the
Newton-polygon code and the blow-up engine, so the operations that matter are
affine substitutions X -> a*X + b (kept cheap: translation is integer
Horner, argument scaling by a monomial touches each coefficient once),
content/primitive-part extraction, and Euclidean gcd over K.
"""

from __future__ import annotations

from . import fppoly
from .field import Element


class ZeroPolynomial(ValueError):
    """An operation that needs a nonzero polynomial got the zero one."""


def trim(f):
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def degree(f):
    return len(f) - 1 if f else -1


def from_rationals(ctx, qs):
    return trim([ctx.from_rational(q) for q in qs])


def add(f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else None
        b = g[i] if i < len(g) else None
        if a is None:
            out.append(b)
        elif b is None:
            out.append(a)
        else:
            out.append(a + b)
    return trim(out)


def neg(f):
    return [-c for c in f]


def sub(f, g):
    return add(f, neg(g))


def scale(f, a):
    """Multiply every coefficient by the field element a."""
    if not a:
        return []
    return trim([c * a for c in f])


def mul(f, g):
    if not f or not g:
        return []
    ctx = f[0].ctx
    out = [ctx.zero() for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        if not a:
            continue
        for j, b in enumerate(g):
            if b:
                out[i + j] = out[i + j] + a * b
    return trim(out)


def mul_linear(f, root):
    """f(X) * (X - root), one coefficient shift and one scale pass."""
    if not f:
        return []
    ctx = f[0].ctx
    out = [ctx.zero()] + list(f)
    for i, c in enumerate(f):
        out[i] = out[i] - c * root
    return trim(out)


def from_roots(ctx, roots_with_mult):
    """Monic polynomial prod (X - x)**m from [(x, m), ...]."""
    f = [ctx.one()]
    for x, m in roots_with_mult:
        for _ in range(m):
            f = mul_linear(f, x)
    return f


def eval_at(f, x):
    if not f:
        if isinstance(x, Element):
            return x.ctx.zero()
        raise ZeroPolynomial("cannot infer context evaluating the zero polynomial")
    acc = f[0].ctx.zero()
    for c in reversed(f):
        acc = acc * x + c
    return acc


def derivative(f):
    return trim([c.scale(i) for i, c in enumerate(f)][1:])


def translate(f, b):
    """f(X + b) by Horner; cheap when b is a field element of small support."""
    if not f or not b:
        return trim(f)
    ctx = f[0].ctx
    out = [f[-1]]
    for c in reversed(f[:-1]):
        # out <- out*(X+b) + c
        new = [ctx.zero()] + out
        for i, oc in enumerate(out):
            new[i] = new[i] + oc * b
        new[0] = new[0] + c
        out = new
    return trim(out)


def scale_arg(f, u):
    """f(u * X): coefficient i picks up u**i."""
    if not f:
        return []
    ctx = f[0].ctx
    out, power = [], ctx.one()
    for i, c in enumerate(f):
        out.append(c * power if i else c)
        power = power * u
    return trim(out)


def primitive(f, ctx):
    """(f / u, v) where u is the canonical uniformizer power of content valuation v.

    The result has content valuation exactly 0, so it reduces to a nonzero
    polynomial mod the maximal ideal.  Raises ZeroPolynomial for the zero
    polynomial.
    """
    if not f:
        raise ZeroPolynomial("zero polynomial has no primitive part")
    v = min(c.val() for c in f if c)
    if v == 0:
        return list(f), v
    inv = ctx.uniformizer_power(v).inverse()
    return [c * inv for c in f], v


def reduction(f, ctx):
    """Coefficientwise residues, as an F_p polynomial.

    A coefficient of negative valuation raises ``NegativeValuation``.
    """
    return fppoly.normalize([c.residue() for c in f], ctx.p)


def divmod_k(f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = trim(f)
    g = trim(g)
    dg = degree(g)
    inv = g[-1].inverse()
    ctx = g[-1].ctx
    q = [ctx.zero() for _ in range(max(1, len(f) - dg))]
    while degree(f) >= dg:
        c = f[-1] * inv
        k = degree(f) - dg
        q[k] = c
        for i, gi in enumerate(g):
            f[i + k] = f[i + k] - c * gi
        f.pop()  # the leading term cancels exactly
        f = trim(f)
    return trim(q), trim(f)


def gcd_k(f, g):
    """Monic gcd over the field K (plain Euclid; exact arithmetic)."""
    f, g = trim(f), trim(g)
    while g:
        f, g = g, divmod_k(f, g)[1]
    if not f:
        return []
    return scale(f, f[-1].inverse())

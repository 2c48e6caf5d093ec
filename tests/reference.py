"""Helpers that only the tests call, each a reference the tests check against.

They build test inputs or read an answer the slow, obvious way; no code path
of the package runs them, so they live here rather than in ``padicover``.
"""

from fractions import Fraction

from padicover import fppoly, kpoly
from padicover.field import _vp_int
from padicover.newton import newton_polygon


def vp(q, p):
    """p-adic valuation of a rational number (None for 0)."""
    q = Fraction(q)
    if q == 0:
        return None
    return _vp_int(q.numerator, p) - _vp_int(q.denominator, p)


def fp_mul(f, g, p):
    """The product of two polynomials over F_p (lists of ints, constant first)."""
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return fppoly.normalize(out, p)


def from_rationals(ctx, qs):
    """The polynomial sum of qs[i] * X**i over K, from ints or Fractions."""
    return kpoly.from_elements(ctx, [ctx.from_rational(q) for q in qs])


def derivative(f):
    """f' over K, coefficient by coefficient."""
    ctx = f.ctx
    coeffs = kpoly.elements(f)
    return kpoly.from_elements(ctx, [c * ctx.from_rational(i) for i, c in enumerate(coeffs)][1:])


def root_valuations(f):
    """Multiset of valuations of all deg(f) roots, as a list.

    Segment of slope s and length l -> l roots of valuation -s, listed sorted;
    then one None (infinite valuation) per root 0 (X-divisibility).
    """
    np = newton_polygon(f)
    out = sorted(-seg.slope for seg in np.segments for _ in range(seg.length))
    return out + [None] * np.x_order

"""Newton polygons over the valued field.

The polygon of f = sum a_i X**i is the lower convex hull of the points
(i, val(a_i)) with nonzero a_i.  Its segment of slope s and horizontal
length l certifies exactly l roots of valuation -s in an algebraic closure;
divisibility by X**m adds m roots of infinite valuation.  That
correspondence is the only root information the rest of the package ever
uses — no root is ever found explicitly.

Both readings below work on n * val(a_i), the integers that
``kpoly.scaled_valuations`` reads off the rows of f in one pass.  The
blow-up engine needs two readings of the polygon: how many roots lie in the
open unit disc, and the least positive root valuation.  Both come from one
pass over those integers, with no hull and no ``Fraction``
(``positive_roots``, which takes the list, so the engine reads every fiber
of a disc off one).  The hull itself (``newton_polygon``, ``Fraction``
slopes and vertices) is
built for ``classify --emit-newton`` and as the tests' reference reading.
Whether a cover is integral is one scan over its coefficient valuations, in
``oracle.fundamental_model``.
"""

from __future__ import annotations

from fractions import Fraction

from . import kpoly
from .kpoly import ZeroPolynomial


class Segment:
    __slots__ = ("slope", "length")

    def __init__(self, slope, length):
        self.slope = slope  # Fraction
        self.length = length  # int


class NewtonPolygon:
    """Lower hull data: vertices (i, v(a_i)) and segments (slope, length)."""

    __slots__ = ("vertices", "segments", "x_order", "degree")

    def __init__(self, vertices, segments, x_order, degree):
        self.vertices = vertices  # ((i, Fraction), ...)
        self.segments = segments  # (Segment, ...)
        self.x_order = x_order  # multiplicity of the root 0 (= lowest index with a_i != 0)
        self.degree = degree

    def to_json(self):
        return {
            "vertices": [[i, str(v)] for i, v in self.vertices],
            "segments": [
                {"slope": str(s.slope), "len": s.length} for s in self.segments
            ],
            "x_order": self.x_order,
            "degree": self.degree,
        }


def newton_polygon(f):
    """Lower convex hull of (i, val(a_i)); monotone chain over n * val(a_i)."""
    if not f:
        raise ZeroPolynomial("newton polygon of the zero polynomial")
    n = f.n
    pts = [(i, w) for i, w in enumerate(kpoly.scaled_valuations(f)) if w is not None]
    # pts is nonempty (leading coefficient) and already sorted by i
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            x3, y3 = pt
            # keep the chain convex downward; pop when hull[-1] sits on or
            # above the line hull[-2] -> pt (collinear points merge)
            if (y2 - y1) * (x3 - x1) >= (y3 - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        segments.append(Segment(Fraction(y2 - y1, n * (x2 - x1)), x2 - x1))
    return NewtonPolygon(
        vertices=tuple((i, Fraction(w, n)) for i, w in hull),
        segments=tuple(segments),
        x_order=pts[0][0],
        degree=kpoly.degree(f),
    )


def positive_roots(vals):
    """(count, rise, run): the roots of strictly positive valuation, in one pass.

    ``vals`` lists n * v(a_i) for each coefficient a_i, None for a_i = 0.
    count is the number of roots inside the open unit disc of the current
    chart (the root 0 included), the quantity the blow-up engine compares
    across fibers.  The segments of negative slope end where the least
    valuation is first attained, at (count, v), so count is that index.  The
    smallest positive *finite* root valuation is nu = rise / (n * run), the
    least (v(a_i) - v) / (count - i) over i < count, compared as integer
    pairs.  The first i that attains it is kept, so run is the length of the
    polygon's segment of slope -nu.  rise is None (and run 1) when every root
    in the disc is exactly at the center (or there are none), so nothing new
    separates at any scale.
    """
    pts = [(i, w) for i, w in enumerate(vals) if w is not None]
    if not pts:
        raise ZeroPolynomial("Newton reading of the zero polynomial")
    count, least = min(pts, key=lambda pt: pt[1])
    rise, run = None, 1
    for i, w in pts:
        if i >= count:
            break
        if rise is None or (w - least) * run < rise * (count - i):
            rise, run = w - least, count - i
    return count, rise, run


def positive_root_count(f):
    """The count of ``positive_roots`` for the coefficients of f."""
    return positive_roots(kpoly.scaled_valuations(f))[0]

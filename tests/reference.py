"""Helpers that only the tests call, each a reference the tests check against.

They build test inputs or read an answer the slow, obvious way or by an
earlier algorithm; no code path of the package runs them, so they live here
rather than in ``padicover``.
"""

from collections import Counter
from fractions import Fraction
from math import gcd

from padicover import fppoly, kpoly
from padicover.classifier import classify_cover
from padicover.cover import from_critical_divisor
from padicover.dualgraph import group_key
from padicover.field import Element, FieldContext, _vp_int
from padicover.newton import newton_polygon
from padicover.planted import _random_composition


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


def is_squarefree(f, p):
    """True when f over F_p has no repeated factor: gcd(f, f') is constant."""
    return fppoly.degree(fppoly.gcd(f, fppoly.deriv(f, p), p)) == 0


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


def _submultisets(parts, most):
    """(chosen, rest) for each sub-multiset `chosen` of `parts` ((value,
    count) pairs, values descending) with sum at most `most`."""
    if not parts:
        yield (), ()
        return
    (v, c), tail = parts[0], parts[1:]
    for k in range(min(c, most // v) + 1):
        for chosen, rest in _submultisets(tail, most - k * v):
            yield (v,) * k + chosen, ((v, c - k),) * (k < c) + rest


def _draws(parts, count, total, left):
    """(chosen, rest) for each sub-multiset `chosen` of `parts` ((value,
    count) pairs, values descending, `left` parts in all) with exactly
    `count` parts summing to exactly `total`."""
    if not count:
        if not total:
            yield (), parts
        return
    if count > left or not count <= total <= count * parts[0][0]:
        return
    (v, c), tail = parts[0], parts[1:]
    left -= c
    for k in range(max(0, count - left), min(c, count, total // v) + 1):
        for chosen, rest in _draws(tail, count - k, total - k * v, left):
            yield (v,) * k + chosen, ((v, c - k),) * (k < c) + rest


def _splits(left1, left2, memo):
    """(order of the first group, ((sort key, group), ...)) per split of the
    remainders left1, left2, each remainder's splits found once in `memo`."""
    if not left1:
        return [((), ())]
    found = memo.get((left1, left2))
    if found is None:
        found = memo[left1, left2] = []
        (head, c), tail = left1[0], left1[1:]
        rest1 = ((head, c - 1),) * (c > 1) + tail
        n2 = sum(n for _, n in left2)
        for more1, rest in _submultisets(rest1, sum(v * n for v, n in left2) - head):
            d = head + sum(more1)
            for g2, rest2 in _draws(left2, d - len(more1), d, n2):
                group = (d, more1[::-1] + (head,), g2[::-1])
                key = group_key(group)
                order, entry = (-head, key), (key, group)
                found.extend(
                    (order, (entry,) + more)
                    for first, more in _splits(rest, rest2, memo)
                    if not first or first >= order
                )
    return found


def partitions_by_groups(p, profile1, profile2):
    """The admissible partition pairs of two fibers, in the canonical order
    of ``classifier.admissible_partitions``, built group by group over all
    the parts: the largest part left in fiber 1 heads each group, the rest
    of g1 is a sub-multiset of what is left of fiber 1, and g2 is drawn with
    exactly d + 1 - len(g1) parts summing to exactly d = sum(g1).  Groups
    come in (head, sort key) order, so each pair comes once."""
    if len(profile1) + len(profile2) - p - 1 < 1:
        return ()
    fibers = [tuple(sorted(Counter(pr).items(), reverse=True)) for pr in (profile1, profile2)]
    found = sorted(tuple(sorted(entries)) for _, entries in _splits(*fibers, {}))
    return tuple(tuple(group for _, group in entries) for entries in found)


def random_integral_cover_by_evaluation(rng, p, e=1):
    """``planted.random_integral_cover`` the obvious way: every draw is
    built, and kept when beta evaluated at some critical point is a unit."""
    ctx = FieldContext(p, e)
    denominators = [b for b in (1, 1, 1, 2, 3, 7) if b % p]
    while True:
        mults = [k + 1 for k in _random_composition(rng, p - 1)]
        locations = set()
        while len(locations) < len(mults):
            locations.add(
                Fraction(rng.randint(-3 * p, 3 * p), rng.choice(denominators))
            )
        points = [
            (ctx.from_rational(x), m) for x, m in zip(sorted(locations), mults)
        ]
        cover = from_critical_divisor(points, ctx)
        values = {kpoly.eval_at(cover.beta, x).scaled_val() for x, _ in points}
        if 0 in values:
            return cover


def verify_planted(instance):
    """The planted instance, once the classifier finds exactly its labeled
    regimes; a drifted label raises ValueError naming the instance."""
    classification = classify_cover(instance.cover)
    got = tuple(sorted(t.regime for t in classification.tails))
    if got != instance.regimes:
        raise ValueError(
            f"planted instance {instance.name} drifted: "
            f"expected regimes {instance.regimes}, classifier found {got}"
        )
    return instance


def reduced_general(ctx, n, terms, den):
    """field._reduced by its general route alone, for any n: sorted nonzero
    terms (k, a) over den > 0, n and den made least by one gcd each."""
    g = gcd(n, *[k for k, _ in terms]) if n > 1 else 1
    h = gcd(den, *[a for _, a in terms]) if den > 1 else 1
    if g > 1 or h > 1:
        n, den = n // g, den // h
        terms = [(k // g, a // h) for k, a in terms]
    return Element(ctx, n, tuple(terms), den)


def poly_general(ctx, n, rows, den):
    """kpoly._poly by its general route alone, for any number of rows: zero
    rows and trailing zero columns dropped, n least, den positive and least."""
    live = sorted(kr for kr in rows if any(kr[1]))
    if not live:
        return kpoly.Poly(ctx, 1, (), 1)
    size = len(live[0][1])
    while not any(row[size - 1] for _, row in live):
        size -= 1
    g = gcd(n, *[k for k, _ in live])
    h = gcd(den, *[a for _, row in live for a in row])
    if den < 0:
        h = -h
    rows = tuple((k // g, tuple(a // h for a in row[:size])) for k, row in live)
    return kpoly.Poly(ctx, n // g, rows, den // h)

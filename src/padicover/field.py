"""Exact arithmetic in the tower of totally ramified extensions Q_p(p**(1/N)).

An element is a finite sum  sum(a * p**(k/N)) / d  of integers a times powers
of one root p**(1/N), over one positive integer denominator d, the roots
chosen compatibly (p**(1/N) is the M-th power of p**(1/(M*N))), so every
rational exponent is available and no ramification index has to be fixed in
advance.  Each element keeps its own N, the least its exponents need, only
its nonzero terms, 0 <= k < N, and the least d, so that gcd(d, every a) = 1;
a product folds p**(k/N) with k >= N into a factor p.  Multiplication in
Z[p**(1/N)] is defined once, in ``Element.__mul__``: ``Element.inverse`` and
:mod:`padicover.kpoly` multiply through it.  This is the layout of
FLINT's fmpq_poly: arithmetic runs on plain integers and each result is
normalized by one gcd, so there is no precision to manage, no rounding
anywhere, and no per-coefficient rational to normalize.  Input strings are
parsed straight to integer pairs (a, b), with no ``Fraction`` in between.
A rational, n = 1, is the common case and takes one gcd and no lists:
``_reduced`` hands it to ``_rational``, and ``FieldContext.element`` reads a
coordinate whose only nonzero coefficient is the first straight to it.
``Fraction`` appears only where a rational comes in whole (``parse_rat``
and ``from_rational``; ``uniformizer_power`` takes its exponent as an int
pair q, den and builds none), in ``Element.val`` and in the Gauss-Jordan
inverse of an element with several terms; a rational goes out as the
``str()`` of its ``Fraction``.  There is no division operator: x / y is
``x * y.inverse()``.  The valuation is normalized so that v(p) = 1;
``Element.scaled_val`` reads it as the int n * v over the element's own n,
``val`` as a ``Fraction``, and ``None`` stands for the infinite valuation of
0, so a comparison that forgets the zero case raises TypeError instead of
answering.

X**N - p is Eisenstein, so the terms of a nonzero element have pairwise
distinct valuations v_p(a) + k/N - v_p(d) (their fractional parts k/N differ),
the minimum in the valuation formula is attained exactly once, and no
cancellation can hide it.  The representation with least N and least d is
unique.  This is what makes the sparse form a faithful model of the complete
field for every question asked here.

A :class:`FieldContext` fixes p, and a ramification index e that is only the
input and output format: vectors of e rationals over pi = p**(1/e).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm


class DivisionByZero(ZeroDivisionError):
    """Division by the zero element of K."""


class NegativeValuation(ValueError):
    """Residue asked of an element outside the valuation ring."""


# Miller-Rabin with the 13 primes up to 41 as bases decides primality exactly
# for every n below this bound (Sorenson and Webster, 2015)
PRIME_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for n < PRIME_BOUND."""
    if n < 2 or any(n % a == 0 for a in _BASES):
        return n in _BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    # a is a witness unless a**d = 1 or a**(d * 2**r) = -1 for some r < s
    return not any(
        pow(a, d, n) != 1 and all(pow(a, d << r, n) != n - 1 for r in range(s))
        for a in _BASES
    )


def _vp_int(a, p):
    # a a nonzero int; divides by p**(2**j) for j = 0, 1, ... while it can,
    # then by the same powers back down, so it takes O(log v_p(a)) divisions
    k, powers, q = 0, [], p
    while a % q == 0:
        a //= q
        k += 1 << len(powers)
        powers.append(q)
        q *= q
    for j in range(len(powers) - 1, -1, -1):
        if a % powers[j] == 0:
            a //= powers[j]
            k += 1 << j
    return k


def _fmt(a, d):
    # a / d with d > 0, rendered in lowest terms
    if d != 1:
        g = gcd(a, d)
        a, d = a // g, d // g
    return str(a) if d == 1 else f"{a}/{d}"


_RATIONAL = re.compile(r" *([+-]?[0-9]+)(?:/([0-9]+))? *")


def _parse_pair(s):
    """(a, b) with a / b = s and b > 0, not necessarily in lowest terms, from
    an int, a Fraction, or a string 'a' or 'a/b'.

    a and b are ASCII digits, a with an optional sign, and spaces may
    surround the whole.  Anything else, a float, a bool, a decimal point or
    an exponent, raises ValueError; a zero denominator raises
    ZeroDivisionError.
    """
    if isinstance(s, str):
        if match := _RATIONAL.fullmatch(s):
            if b := int(match[2] or 1):
                return int(match[1]), b
            raise ZeroDivisionError(f"{s!r} has a zero denominator")
    elif type(s) is int:
        return s, 1
    elif isinstance(s, Fraction):
        return s.numerator, s.denominator
    raise ValueError(f"{s!r} is not a rational of the form a or a/b")


def parse_rat(s):
    """A Fraction from what ``_parse_pair`` reads, refusing what it refuses."""
    return Fraction(*_parse_pair(s))


class FieldContext:
    """The tower over Q_p, with a ramification index e for the dense format.

    Holds p (prime) and acts as element factory.  Arithmetic never depends
    on e: it only fixes how elements are read and printed, as vectors of e
    rationals over pi = p**(1/e).  Contexts with the same (p, e) are
    interchangeable.
    """

    __slots__ = ("p", "e")

    def __init__(self, p, e=1):
        if type(p) is not int or type(e) is not int:
            raise ValueError(f"p and e must be integers, got p = {p!r}, e = {e!r}")
        if p >= PRIME_BOUND:
            raise ValueError(f"p = {p} is not below {PRIME_BOUND}, where primality is exact")
        if not _is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if e < 1:
            raise ValueError(f"e must be >= 1, got {e}")
        self.p = p
        self.e = e

    def __eq__(self, other):
        return (
            isinstance(other, FieldContext)
            and self.p == other.p
            and self.e == other.e
        )

    def __hash__(self):
        return hash((self.p, self.e))

    def __repr__(self):
        return f"FieldContext(p={self.p}, e={self.e})"

    # -- element construction ------------------------------------------

    def element(self, coeffs):
        """Element from <= e rationals or rational strings (coeffs of pi**i)."""
        cs = [_parse_pair(c) for c in coeffs]
        if len(cs) > self.e:
            raise ValueError(f"expected at most {self.e} coefficients, got {len(cs)}")
        if cs and not any(a for a, _ in cs[1:]):
            return _rational(self, *cs[0])
        return _from_pairs(self, self.e, [(i, a, b) for i, (a, b) in enumerate(cs)])

    def from_rational(self, q):
        """The rational q, an int or a Fraction; anything else, a float, a
        bool or a string, raises TypeError."""
        if type(q) is not int and not isinstance(q, Fraction):
            raise TypeError(f"{q!r} is not an int or a Fraction")
        return Element(self, 1, ((0, q.numerator),) if q else (), q.denominator)

    def zero(self):
        return Element(self, 1, (), 1)

    def one(self):
        return Element(self, 1, ((0, 1),), 1)

    def pi(self):
        """The uniformizer p**(1/e) of the dense format (p itself when e == 1)."""
        return self.uniformizer_power(1, self.e)

    def uniformizer_power(self, q, den):
        """The canonical element p**(q/den) of valuation q/den, for ints q and
        den > 0, which need not be in lowest terms."""
        if (g := gcd(q, den)) > 1:
            q, den = q // g, den // g
        a, k = divmod(q, den)
        if a >= 0:
            return Element(self, den, ((k, self.p**a),), 1)
        return Element(self, den, ((k, 1),), self.p ** (-a))

    def enlarged(self, new_e):
        """The context whose dense format has e' = new_e, a multiple of e."""
        new_e = int(new_e)
        if new_e % self.e != 0:
            raise ValueError(f"new e {new_e} must be a multiple of {self.e}")
        return FieldContext(self.p, new_e)


def _reduced(ctx, n, terms, den):
    """Element from sorted nonzero terms (k, a) over den > 0, made canonical:
    n least, and den least by one gcd with the numerators.  A rational, n = 1
    and at most one term, goes to ``_rational``."""
    if n == 1:
        return _rational(ctx, terms[0][1] if terms else 0, den)
    g = gcd(n, *[k for k, _ in terms])
    h = gcd(den, *[a for _, a in terms]) if den > 1 else 1
    if g > 1 or h > 1:
        n, den = n // g, den // h
        terms = [(k // g, a // h) for k, a in terms]
    return Element(ctx, n, tuple(terms), den)


def _rational(ctx, a, den):
    """The rational a / den (den > 0): _reduced for n = 1, the hot case, inlined."""
    if not a:
        return Element(ctx, 1, (), 1)
    if den != 1:
        g = gcd(a, den)
        if g != 1:
            a, den = a // g, den // g
    return Element(ctx, 1, ((0, a),), den)


def _from_pairs(ctx, n, terms):
    """Element from terms (k, a, b), k ascending, each a / b * p**(k/n), b > 0."""
    den = lcm(*(b for _, _, b in terms))
    return _reduced(ctx, n, [(k, a * (den // b)) for k, a, b in terms if a], den)


def _combine(x, y, negate):
    """x + y, or x - y when negate."""
    if not y.terms:
        return x
    # bring both numerators over the least common denominator
    g = gcd(x.den, y.den)
    sx, sy = y.den // g, x.den // g
    den = x.den * sx
    if x.n == 1 and y.n == 1:
        a = -y.terms[0][1] * sy if negate else y.terms[0][1] * sy
        if x.terms:
            a += x.terms[0][1] * sx
        return _rational(x.ctx, a, den)
    n = lcm(x.n, y.n)
    ex, ey = n // x.n, n // y.n
    acc = {k * ex: a * sx for k, a in x.terms}
    for k, a in y.terms:
        k, a = k * ey, a * sy
        if negate:
            a = -a
        acc[k] = acc[k] + a if k in acc else a
    return _reduced(x.ctx, n, sorted(ka for ka in acc.items() if ka[1]), den)


class Element:
    """An exact element of the tower: (sum of a * p**(k/n) over its terms) / den.

    ``terms`` is a tuple of pairs (k, a), sorted by k, with 0 <= k < n and
    every a a nonzero int; ``den`` is a positive int with gcd(den, every a)
    = 1; ``n`` is the least denominator the exponents need (1 for a
    rational).  All three are canonical, so equality compares them.
    """

    __slots__ = ("ctx", "n", "terms", "den")

    def __init__(self, ctx, n, terms, den):
        self.ctx = ctx
        self.n = n
        self.terms = terms
        self.den = den

    # -- predicates ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.n == other.n
            and self.den == other.den
            and self.terms == other.terms
            and self.ctx.p == other.ctx.p
        )

    def __hash__(self):
        return hash((self.n, self.terms, self.den))

    def is_integral(self):
        """v >= 0, read off den: v < 0 exactly when p divides den, as
        gcd(den, every a) = 1 then leaves some a prime to p."""
        return self.den % self.ctx.p != 0

    # -- valuation and residue ------------------------------------------

    def scaled_val(self):
        """n * v as an int: min over terms of n * v_p(a) + k, minus n * v_p(den).

        None for 0.  The minimum is attained exactly once because the fractional parts
        k/n are pairwise distinct for 0 <= k < n.
        """
        p, n = self.ctx.p, self.n
        best = None
        for k, a in self.terms:
            v = k if a % p else _vp_int(a, p) * n + k
            if best is None or v < best:
                best = v
        if best is not None and self.den % p == 0:
            best -= _vp_int(self.den, p) * n
        return best

    def val(self):
        """The valuation, a Fraction (None for 0)."""
        w = self.scaled_val()
        return None if w is None else Fraction(w, self.n)

    def residue(self):
        """Image in F_p = residue field, for elements of valuation >= 0.

        Only a k = 0 term can have valuation 0.
        """
        p, terms = self.ctx.p, self.terms
        if not self.is_integral():
            raise NegativeValuation(f"element has valuation {self.val()} < 0")
        if not terms or terms[0][0]:
            return 0
        return terms[0][1] * pow(self.den, -1, p) % p

    # -- arithmetic ------------------------------------------------------

    def _check(self, other):
        if isinstance(other, Element):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError("elements belong to different field contexts")
            return other
        return self.ctx.from_rational(other)  # TypeError unless an int or a Fraction

    def __add__(self, other):
        return _combine(self, self._check(other), False)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.ctx, self.n, tuple((k, -a) for k, a in self.terms), self.den)

    def __sub__(self, other):
        return _combine(self, self._check(other), True)

    def __mul__(self, other):
        other = self._check(other)
        a, b, ctx = self.terms, other.terms, self.ctx
        if not a or not b:
            return ctx.zero()
        den = self.den * other.den
        if self.n == 1 and other.n == 1:
            return _rational(ctx, a[0][1] * b[0][1], den)
        p = ctx.p
        n = lcm(self.n, other.n)
        sa, sb = n // self.n, n // other.n
        acc = {}
        for i, c in a:
            for j, d in b:
                k, cd = i * sa + j * sb, c * d
                if k >= n:
                    k, cd = k - n, cd * p
                acc[k] = acc[k] + cd if k in acc else cd
        return _reduced(ctx, n, sorted(kc for kc in acc.items() if kc[1]), den)

    __rmul__ = __mul__

    def inverse(self):
        terms, n, p = self.terms, self.n, self.ctx.p
        if not terms:
            raise DivisionByZero("inverse of zero")
        if len(terms) == 1:
            # (a * p**(k/n) / den)**-1 = den * p**((n-k)/n) / (a * p), or den / a
            ((k, a),) = terms
            num = self.den if a > 0 else -self.den
            if k == 0:
                return Element(self.ctx, n, ((0, num),), abs(a))
            return _reduced(self.ctx, n, ((n - k, num),), abs(a) * p)
        # solve x * y = 1 by Gauss-Jordan; column j of the matrix of x over the
        # basis p**(i/n) holds the coordinates of x * p**(j/n), whose own n
        # divides n
        rows = [[Fraction(0)] * n + [Fraction(i == 0)] for i in range(n)]
        for j in range(n):
            z = self * self.ctx.uniformizer_power(j, n)
            for k, c in z.terms:
                rows[k * (n // z.n)][j] = Fraction(c, z.den)
        for col in range(n):
            # the matrix is invertible because x != 0 in a field
            pivot = next(r for r in range(col, n) if rows[r][col])
            rows[col], rows[pivot] = rows[pivot], rows[col]
            top = [v / rows[col][col] for v in rows[col]]
            rows[col] = top
            for r in range(n):
                f = rows[r][col]
                if r != col and f:
                    rows[r] = [v - f * w for v, w in zip(rows[r], top)]
        solution = [(k, row[n].numerator, row[n].denominator) for k, row in enumerate(rows)]
        return _from_pairs(self.ctx, n, solution)

    def __pow__(self, n):
        if type(n) is not int:
            raise TypeError(f"exponent must be an int, got {type(n).__name__}")
        if n < 0:
            return self.inverse() ** (-n)
        out = self.ctx.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- presentation ----------------------------------------------------

    def to_strings(self):
        """The dense format: e rationals, the coefficients of pi**i."""
        e = self.ctx.e
        if e % self.n:
            raise ValueError(f"{self!r} is not in Q_{self.ctx.p}(p^(1/{e}))")
        out = ["0"] * e
        for k, a in self.terms:
            out[k * (e // self.n)] = _fmt(a, self.den)
        return out

    def __repr__(self):
        if self.n == 1:
            return _fmt(self.terms[0][1], self.den) if self.terms else "0"
        e, parts = self.ctx.e, []
        for k, a in self.terms:
            c = _fmt(a, self.den)
            if k == 0:
                parts.append(c)
                continue
            if e % self.n:
                power = f"p^({k}/{self.n})"
            else:
                i = k * (e // self.n)
                power = "pi" if i == 1 else f"pi^{i}"
            parts.append(f"({c})*{power}")
        return " + ".join(parts)

"""Exact arithmetic in the tower of totally ramified extensions Q_p(p**(1/N)).

An element is a finite sum  sum(c * p**(k/N))  of rationals c times powers of
one root p**(1/N), the roots chosen compatibly (p**(1/N) is the M-th power of
p**(1/(M*N))), so every rational exponent is available and no ramification
index has to be fixed in advance.  Each element keeps its own N, the least
its exponents need, and only its nonzero terms, 0 <= k < N; a product folds
p**(k/N) with k >= N into a factor p.  All arithmetic is done with
:class:`fractions.Fraction`, so there is no precision to manage and no
rounding anywhere.  The valuation is normalized so that v(p) = 1.

X**N - p is Eisenstein, so the terms of a nonzero element have pairwise
distinct valuations v_p(c) + k/N (their fractional parts k/N differ), the
minimum in the valuation formula is attained exactly once, and no
cancellation can hide it.  The representation with least N is unique.  This
is what makes the sparse form a faithful model of the complete field for
every question asked here.

A :class:`FieldContext` fixes p, and a ramification index e that is only the
input and output format: vectors of e rationals over pi = p**(1/e).
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
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


def vp(q, p):
    """p-adic valuation of a rational number (None for 0)."""
    q = Fraction(q)
    if q == 0:
        return None
    return _vp(q, p)


def _vp(q, p):
    # q a nonzero Fraction
    n, d = q.numerator, q.denominator
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    while d % p == 0:
        d //= p
        k -= 1
    return k


@total_ordering
class Valuation:
    """A value of the valuation: a rational number, or infinity (for 0).

    Totally ordered, with infinity as the top element; addition and scalar
    multiplication follow the usual absorbing rules.
    """

    __slots__ = ("q",)

    def __init__(self, q=None):
        self.q = q if q is None or type(q) is Fraction else Fraction(q)

    @classmethod
    def infinite(cls):
        return cls(None)

    @property
    def is_infinite(self):
        return self.q is None

    def _coerce(self, other):
        # the rational another value or number stands for (None: infinity)
        if isinstance(other, Valuation):
            return other.q
        return other if isinstance(other, (int, Fraction)) else Fraction(other)

    def __eq__(self, other):
        try:
            q = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.q == q

    def __lt__(self, other):
        q = self._coerce(other)
        return self.q is not None and (q is None or self.q < q)

    def __gt__(self, other):
        q = self._coerce(other)
        return q is not None and (self.q is None or self.q > q)

    def __add__(self, other):
        q = self._coerce(other)
        if self.q is None or q is None:
            return Valuation.infinite()
        return Valuation(self.q + q)

    __radd__ = __add__

    def __mul__(self, k):
        if self.q is None:
            return Valuation.infinite()
        return Valuation(self.q * Fraction(k))

    __rmul__ = __mul__

    def __neg__(self):
        if self.q is None:
            raise ValueError("cannot negate the infinite valuation")
        return Valuation(-self.q)

    def __hash__(self):
        return hash(self.q)

    def __repr__(self):
        return "oo" if self.q is None else f"{self.q}"


def fmt_rat(q):
    """Render a rational as 'a' or 'a/b' (exactly, no floats)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rat(s):
    """Parse 'a' or 'a/b' into a Fraction."""
    return Fraction(str(s).strip())


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
        """Element from an iterable of <= e rationals (coeffs of pi**i)."""
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.e:
            raise ValueError(f"expected at most {self.e} coefficients, got {len(cs)}")
        return _reduced(self, self.e, [(i, c) for i, c in enumerate(cs) if c])

    def from_rational(self, q):
        q = Fraction(q)
        return Element(self, 1, ((0, q),) if q else ())

    def zero(self):
        return Element(self, 1, ())

    def one(self):
        return Element(self, 1, ((0, Fraction(1)),))

    def pi(self):
        """The uniformizer p**(1/e) of the dense format (p itself when e == 1)."""
        return self.uniformizer_power(Fraction(1, self.e))

    def uniformizer_power(self, q):
        """The canonical element p**q of valuation q, for any rational q."""
        q = Fraction(q)
        a, k = divmod(q.numerator, q.denominator)
        return Element(self, q.denominator, ((k, Fraction(self.p) ** a),))

    def element_from_strings(self, strings):
        return self.element([parse_rat(s) for s in strings])

    def enlarged(self, new_e):
        """The context whose dense format has e' = new_e, a multiple of e."""
        new_e = int(new_e)
        if new_e % self.e != 0:
            raise ValueError(f"new e {new_e} must be a multiple of {self.e}")
        return FieldContext(self.p, new_e)


def _reduced(ctx, n, terms):
    """Element from sorted nonzero terms (k, c) over p**(1/n), with n made least."""
    g = n
    for k, _ in terms:
        if g == 1:
            break
        g = gcd(g, k)
    if g > 1:
        n //= g
        terms = [(k // g, c) for k, c in terms]
    return Element(ctx, n, tuple(terms))


def _combine(x, y, negate):
    """x + y, or x - y when negate."""
    if x.n == 1 and y.n == 1:
        if not y.terms:
            return x
        c = -y.terms[0][1] if negate else y.terms[0][1]
        if x.terms:
            c = x.terms[0][1] + c
        return Element(x.ctx, 1, ((0, c),) if c else ())
    n = lcm(x.n, y.n)
    sx, sy = n // x.n, n // y.n
    acc = {k * sx: c for k, c in x.terms}
    for k, c in y.terms:
        k *= sy
        if negate:
            c = -c
        acc[k] = acc[k] + c if k in acc else c
    return _reduced(x.ctx, n, sorted(kc for kc in acc.items() if kc[1]))


class Element:
    """An exact element of the tower: the sum of c * p**(k/n) over its terms.

    ``terms`` is a tuple of pairs (k, c), sorted by k, with 0 <= k < n and
    every c a nonzero Fraction; ``n`` is the least denominator the exponents
    need (1 for a rational).  Both are canonical, so equality compares them.
    """

    __slots__ = ("ctx", "n", "terms")

    def __init__(self, ctx, n, terms):
        self.ctx = ctx
        self.n = n
        self.terms = terms

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.n == other.n
            and self.terms == other.terms
            and self.ctx.p == other.ctx.p
        )

    def __hash__(self):
        return hash((self.n, self.terms))

    # -- valuation and residue ------------------------------------------

    def val(self):
        """The valuation: min over terms of v_p(c) + k/n (infinite for 0).

        The minimum is attained exactly once because the fractional parts
        k/n are pairwise distinct for 0 <= k < n.
        """
        p, n = self.ctx.p, self.n
        best = None
        for k, c in self.terms:
            v = _vp(c, p) * n + k
            if best is None or v < best:
                best = v
        return Valuation.infinite() if best is None else Valuation(Fraction(best, n))

    def residue(self):
        """Image in F_p = residue field, for elements of valuation >= 0."""
        v = self.val()
        if v < 0:
            raise NegativeValuation(f"element has valuation {v} < 0")
        if v > 0:
            return 0
        # only the k = 0 term can have valuation exactly 0
        c = self.terms[0][1]
        p = self.ctx.p
        num = c.numerator % p
        den = c.denominator % p
        return (num * pow(den, -1, p)) % p

    # -- arithmetic ------------------------------------------------------

    def _check(self, other):
        if isinstance(other, Element):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError("elements belong to different field contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_rational(other)
        raise TypeError(f"cannot combine Element with {type(other).__name__}")

    def __add__(self, other):
        return _combine(self, self._check(other), False)

    __radd__ = __add__

    def __neg__(self):
        return Element(self.ctx, self.n, tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other):
        return _combine(self, self._check(other), True)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._check(other)
        a, b, ctx = self.terms, other.terms, self.ctx
        if not a or not b:
            return ctx.zero()
        if self.n == 1 and other.n == 1:
            return Element(ctx, 1, ((0, a[0][1] * b[0][1]),))
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
        return _reduced(ctx, n, sorted(kc for kc in acc.items() if kc[1]))

    __rmul__ = __mul__

    def scale(self, q):
        """Multiply by a plain rational (cheap path, exponents unchanged)."""
        q = Fraction(q)
        if not q:
            return self.ctx.zero()
        return Element(self.ctx, self.n, tuple((k, c * q) for k, c in self.terms))

    def inverse(self):
        terms, n, p = self.terms, self.n, self.ctx.p
        if not terms:
            raise DivisionByZero("inverse of zero")
        if len(terms) == 1:
            ((k, c),) = terms
            if k == 0:
                return Element(self.ctx, n, ((0, 1 / c),))
            return Element(self.ctx, n, ((n - k, 1 / (c * p)),))
        # solve x * y = 1 by Gauss-Jordan; row i of the matrix of x over the
        # basis p**(j/n) is the coefficient of p**(i/n) in x * p**(j/n)
        a = [Fraction(0)] * n
        for k, c in terms:
            a[k] = c
        rows = [
            [a[i - j] if j <= i else a[i - j + n] * p for j in range(n)] + [Fraction(i == 0)]
            for i in range(n)
        ]
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
        return _reduced(self.ctx, n, [(k, row[n]) for k, row in enumerate(rows) if row[n]])

    def __truediv__(self, other):
        other = self._check(other)
        if other.is_zero():
            raise DivisionByZero("division by zero element")
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._check(other) / self

    def __pow__(self, n):
        n = int(n)
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
        for k, c in self.terms:
            out[k * (e // self.n)] = fmt_rat(c)
        return out

    def __repr__(self):
        if self.n == 1:
            return fmt_rat(self.terms[0][1]) if self.terms else "0"
        e, parts = self.ctx.e, []
        for k, c in self.terms:
            if k == 0:
                parts.append(fmt_rat(c))
                continue
            if e % self.n:
                power = f"p^({k}/{self.n})"
            else:
                i = k * (e // self.n)
                power = "pi" if i == 1 else f"pi^{i}"
            parts.append(f"({fmt_rat(c)})*{power}")
        return " + ".join(parts)

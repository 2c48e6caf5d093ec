"""Small helpers for polynomials over the prime field F_p.

A polynomial is a plain list of ints ``[c0, c1, ...]`` (coefficients mod p,
constant term first) with no trailing zeros; ``[]`` is the zero polynomial.
Just enough of the usual toolbox lives here — derivatives, rational roots
with their multiplicities, gcd — for deciding when residual polynomials
separate points and for reading ramification off reductions.  Everything is
exact mod p.
"""

from __future__ import annotations


def trim(f):
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def normalize(f, p):
    return trim([c % p for c in f])


def degree(f):
    return len(f) - 1 if f else -1


def scale(f, a, p):
    return normalize([c * a for c in f], p)


def monic(f, p):
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return scale(f, inv, p)


def divmod_fp(f, g, p):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = normalize(f, p)
    dg, inv = degree(g), pow(g[-1], -1, p)
    q = [0] * max(1, len(f) - dg)
    while degree(f) >= dg:
        c = (f[-1] * inv) % p
        k = degree(f) - dg
        q[k] = c
        for i, gi in enumerate(g):
            f[i + k] = (f[i + k] - c * gi) % p
        f = trim(f)
    return trim(q), f


def gcd(f, g, p):
    f, g = normalize(f, p), normalize(g, p)
    while g:
        f, g = g, divmod_fp(f, g, p)[1]
    return monic(f, p)


def deriv(f, p):
    return normalize([(i * c) % p for i, c in enumerate(f)][1:], p)


def _strip_root(f, w, p):
    """(m, f / (X - w)**m) for the multiplicity m of w as a root of f.

    Synthetic division (Knuth, TAOCP 2, 4.6.4): Horner's partial sums of f
    at w are the coefficients of the quotient by X - w, and the last one is
    the remainder f(w), so one pass both tests the root and divides it out.
    f must be normalized; the quotient then is too (its leading coefficient
    is f's).
    """
    m = 0
    while f:
        partial, acc = [], 0
        for c in reversed(f):
            acc = (acc * w + c) % p
            partial.append(acc)
        if acc:
            break
        f = partial[-2::-1]
        m += 1
    return m, f


def root_multiplicity(f, w, p):
    """Multiplicity of X = w as a root of f (0 if not a root)."""
    return _strip_root(normalize(f, p), w, p)[0]


def rational_roots(f, p):
    """dict w -> multiplicity over F_p, plus the rootless cofactor.

    Each residue is tested by a Horner evaluation and stripped only at a
    root; the scan stops once the cofactor is constant.
    """
    roots = {}
    g = normalize(f, p)
    for w in range(p):
        if len(g) < 2:
            break
        acc = 0
        for c in reversed(g):
            acc = (acc * w + c) % p
        if not acc:
            roots[w], g = _strip_root(g, w, p)
    return roots, g


def fmt(f):
    """Human-readable form for error messages, lowest degree first."""
    if not f:
        return "0"
    parts = []
    for i, c in enumerate(f):
        if c == 0:
            continue
        if i == 0:
            parts.append(f"{c}")
        elif i == 1:
            parts.append("X" if c == 1 else f"{c}*X")
        else:
            parts.append(f"X^{i}" if c == 1 else f"{c}*X^{i}")
    return " + ".join(parts)

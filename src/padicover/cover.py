"""Degree-p polynomial covers of the line: construction and ramification data.

A cover is given by a monic degree-p polynomial beta with beta(0) = 0, and is
always built from its *critical divisor* — the finite critical points with
their multiplicities — so that fibers over branch values never have to be
root-found: beta is the antiderivative of p * prod (X - x)**(m-1), which is
exactly the condition that x ramifies with index m.  The branch locus, the
fiber profiles (multiplicities of points in each ramified fiber, padded with
1s for the unramified points), and the degree bookkeeping

    sum over branch values of n_lambda  =  (r - 2) p + 1

all come out of that divisor by grouping and counting alone.  beta is built
on first read, in one pass over the integer rows of that product
(``kpoly.antiderivative``), so a cover that is only drawn and written out
never builds it.
``branch_data`` returns the branch points and checks the degree count; it is
the one place a branch value is computed, once per cover.  A ``BranchPoint``
is the value with its fiber profile and display label; the blow-up engine
reads the critical points off the divisor, not off the branch points.
"""

from __future__ import annotations

import sys
from functools import cached_property

from . import kpoly
from .field import FieldContext


class InvalidDivisor(ValueError):
    """Critical multiplicities that cannot come from a degree-p polynomial."""


# Exact mode builds beta densely, so its cost grows about as p**3.  On a
# shared 2-vCPU Xeon, verify of the random covers of seeds 1-3 took 0.3-0.5 s
# at p = 401, 0.7-0.9 s at p = 503 and 1.1-2.5 s at p = 809 (least of two
# runs each); at p = 1009, measured before this bound, two took 5-9 s and the
# third failed writing a branch value over Python's 4,300-digit limit (exit 3).
EXACT_P_BOUND = 1000

# The input's e only sets the dense format, but every label is written in it:
# a vector of e rationals per branch value.  Output grows linearly in e, and
# nothing bounds it otherwise: classify of a 3-point p = 5 cover printed 67 KB
# at e = 1,000 and 64 MB at e = 10**6; at e = 10**8 it ran out of a 2 GB cap.
EXACT_E_BOUND = 1000


class RHViolation(AssertionError):
    """The degree count failed — internal inconsistency, never expected."""


class CriticalDivisor:
    """Finite critical points (x, m): x ramifies with index m >= 2."""

    __slots__ = ("points", "p")

    def __init__(self, points, p):
        self.points = points  # ((Element, int), ...)
        self.p = p
        seen, total = set(), 0
        for x, m in points:
            if type(m) is not int:
                raise InvalidDivisor(f"multiplicity {m!r} at {x!r} is not an integer")
            if m < 2:
                raise InvalidDivisor(f"multiplicity {m} < 2 at {x!r}")
            if x in seen:
                raise InvalidDivisor(f"repeated critical point {x!r}")
            seen.add(x)
            total += m - 1
        if total != self.p - 1:
            raise InvalidDivisor(
                f"sum of (m-1) is {total}, expected p-1 = {self.p - 1}"
            )


class BranchPoint:
    """One finite branch value with its fiber profile and label.

    profile: multiplicities of the p preimages, descending, summing to p;
    label: the value's coefficient string(s), the name both routes mark
    components with.  The critical points over the value are not kept: the
    blow-up engine reads the points off the divisor (``Cover.critical``).
    """

    __slots__ = ("value", "profile", "label")

    def __init__(self, value, profile, label):
        self.value = value  # Element
        self.profile = profile
        self.label = label


class Cover:
    """A cover fixed by its critical divisor; beta is derived from it on first read."""

    def __init__(self, ctx, critical):
        self.ctx = ctx  # FieldContext
        self.critical = critical  # CriticalDivisor

    @cached_property  # kept in the instance dict, so Cover has no __slots__
    def beta(self):
        """beta, monic of degree p with beta(0) = 0, as a kpoly.Poly (integer
        rows over one denominator): the antiderivative of
        p * prod (X - x)**(m-1), built on first read and kept."""
        dbeta = kpoly.from_roots(self.ctx, [(x, m - 1) for x, m in self.critical.points])
        return kpoly.antiderivative(dbeta, self.ctx.p)

    @cached_property
    def branch_points(self):
        """The finite branch points, computed on first use; see branch_data."""
        groups = {}
        for x, m in self.critical.points:
            groups.setdefault(kpoly.eval_at(self.beta, x), []).append((x, m))
        keyed = []
        for lam, points in groups.items():
            mults = sorted((m for _, m in points), reverse=True)
            ramified = sum(mults)
            if ramified > self.ctx.p:
                raise InvalidDivisor(
                    f"critical points over {lam!r} carry total multiplicity {ramified} > p"
                )
            try:
                strings = lam.to_strings()
            except ValueError as exc:
                i = self.critical.points.index(points[0])
                raise InvalidDivisor(
                    f"the branch value over critical point {i} (m = {points[0][1]}) has a "
                    f"coefficient over the {sys.get_int_max_str_digits()}-digit limit "
                    "for writing integers"
                ) from exc
            label = strings[0] if len(strings) == 1 else "(" + ",".join(strings) + ")"
            profile = tuple(mults) + (1,) * (self.ctx.p - ramified)
            keyed.append((strings, BranchPoint(lam, profile, label)))
        # canonical order: by value strings, purely for deterministic output
        keyed.sort(key=lambda pair: pair[0])
        branch = tuple(bp for _, bp in keyed)
        total = sum(len(bp.profile) for bp in branch)
        r = len(branch) + 1
        expected = (r - 2) * self.ctx.p + 1
        if total != expected:
            raise RHViolation(f"sum n = {total}, expected (r-2)p+1 = {expected} for r={r}")
        return branch


def from_critical_divisor(points, ctx):
    """The unique monic degree-p cover with critical points [(x, m), ...].

    beta' = p * prod (X - x)**(m-1) and beta(0) = 0; integrating divides the
    degree-j coefficient by j+1 <= p, so when every x is integral the only
    denominator p sits in front of the leading term, where it cancels — this
    is why such covers are automatically integral with reduction X**p.
    The bounds and the divisor are checked here; beta is built on first read
    (``Cover.beta``).
    """
    if ctx.p > EXACT_P_BOUND:
        raise InvalidDivisor(
            f"exact mode takes p <= {EXACT_P_BOUND}, got p = {ctx.p}; "
            f"formula mode (--profiles) takes larger p"
        )
    if ctx.e > EXACT_E_BOUND:
        raise InvalidDivisor(f"exact mode takes e <= {EXACT_E_BOUND}, got e = {ctx.e}")
    return Cover(ctx, CriticalDivisor(tuple(points), ctx.p))


def branch_data(cover):
    """The cover's finite branch points, as a tuple of ``BranchPoint``s.

    Groups the critical points by branch value and reads off the fiber
    profiles; infinity is implicit, with profile (p,).  This is the one place
    a branch value is computed and labelled, and it happens once per cover:
    the tuple is kept on the cover (``Cover.branch_points``), which is not
    mutated after construction, so the classifier and the oracle of one
    request share it.  The Riemann-Hurwitz count sum n = (r - 2) p + 1 is
    checked here (RHViolation).  A value whose label would pass Python's
    int-to-string digit limit raises InvalidDivisor.
    """
    return cover.branch_points


def cover_from_json(doc):
    """Exact-mode input: {"p":5,"e":1,"critical":[{"x":"0","m":3},...]}.

    "x" may be a single rational string (constant element) or a list of e
    rational strings (coefficients over the pi-power basis).
    """
    ctx = FieldContext(doc["p"], doc.get("e", 1))
    points = []
    for entry in doc["critical"]:
        raw = entry["x"]
        points.append((ctx.element(raw if isinstance(raw, (list, tuple)) else [raw]), entry["m"]))
    return from_critical_divisor(points, ctx)

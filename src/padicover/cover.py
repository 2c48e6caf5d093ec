"""Degree-p polynomial covers of the line: construction and ramification data.

A cover is given by a monic degree-p polynomial beta with beta(0) = 0, and is
always built from its *critical divisor* — the finite critical points with
their multiplicities — so that fibers over branch values never have to be
root-found: beta is the antiderivative of p * prod (X - x)**(m-1), which is
exactly the condition that x ramifies with index m.  The branch locus, the
fiber profiles (multiplicities of points in each ramified fiber, padded with
1s for the unramified points), and the degree bookkeeping

    sum over branch values of n_lambda  =  (r - 2) p + 1

all come out of that divisor by grouping and counting alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kpoly
from .field import Element, FieldContext
from .newton import check_integrality


class InvalidDivisor(ValueError):
    """Critical multiplicities that cannot come from a degree-p polynomial."""


# Exact mode builds beta densely, so its cost grows about as p**3.  On a
# 2-vCPU Xeon, verify of a random cover took 10-15 s at p = 401 and 23-45 s at
# p = 503, and classify 1.5 s at p = 701; at p = 1009 classify ran 4 s and
# then failed printing branch values over Python's 4,300-digit limit.
EXACT_P_BOUND = 500


class RHViolation(AssertionError):
    """The degree count failed — internal inconsistency, never expected."""


@dataclass(frozen=True)
class CriticalDivisor:
    """Finite critical points (x, m): x ramifies with index m >= 2."""

    points: tuple  # ((Element, int), ...)
    p: int

    def __post_init__(self):
        seen = set()
        total = 0
        for x, m in self.points:
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


@dataclass(frozen=True)
class BranchPoint:
    """One finite branch value with its fiber profile.

    profile: multiplicities of the p preimages, descending, summing to p;
    n = len(profile) is the number of distinct points in the fiber.
    """

    value: Element
    profile: tuple

    @property
    def n(self):
        return len(self.profile)


@dataclass(frozen=True)
class RamificationData:
    """Branch values with profiles; infinity is implicit with profile (p,)."""

    p: int
    branch: tuple  # (BranchPoint, ...)

    @property
    def r(self):
        return len(self.branch) + 1

    def rh_identity(self):
        """Check sum of n over finite branch values == (r-2)p + 1."""
        total = sum(bp.n for bp in self.branch)
        expected = (self.r - 2) * self.p + 1
        if total != expected:
            raise RHViolation(
                f"sum n = {total}, expected (r-2)p+1 = {expected} for r={self.r}"
            )
        return total


@dataclass(frozen=True)
class Cover:
    """beta monic of degree p with beta(0) = 0, plus its critical divisor."""

    beta: tuple  # kpoly coefficients, immutable
    ctx: FieldContext
    critical: CriticalDivisor

    def beta_list(self):
        return list(self.beta)

    def value_at(self, x):
        return kpoly.eval_at(list(self.beta), x)

    def integrality(self):
        return check_integrality(list(self.beta), self.ctx)


def from_critical_divisor(div, ctx):
    """The unique monic degree-p cover with the given critical divisor.

    beta' = p * prod (X - x)**(m-1) and beta(0) = 0; integrating divides the
    degree-j coefficient by j+1 <= p, so when every x is integral the only
    denominator p sits in front of the leading term, where it cancels — this
    is why such covers are automatically integral with reduction X**p.
    """
    if ctx.p > EXACT_P_BOUND:
        raise InvalidDivisor(
            f"exact mode takes p <= {EXACT_P_BOUND}, got p = {ctx.p}; "
            f"formula mode (--profiles) takes larger p"
        )
    if not isinstance(div, CriticalDivisor):
        div = CriticalDivisor(tuple(div), ctx.p)
    if div.p != ctx.p:
        raise InvalidDivisor(f"divisor for p = {div.p} given a field with p = {ctx.p}")
    dbeta = kpoly.scale_rat(
        kpoly.from_roots(ctx, [(x, m - 1) for x, m in div.points]), ctx.p
    )
    beta = kpoly.antiderivative(dbeta)
    return Cover(tuple(beta), ctx, div)


def branch_label(value):
    """Display label for a branch value: its coefficient string(s).

    Both the discrete classifier and the blow-up engine use these labels to
    mark components, so they must agree character for character.
    """
    strings = value.to_strings()
    if len(strings) == 1:
        return strings[0]
    return "(" + ",".join(strings) + ")"


def branch_data(cover):
    """Group critical points by branch value and read off fiber profiles."""
    groups = {}
    order = []
    for x, m in cover.critical.points:
        lam = cover.value_at(x)
        if lam not in groups:
            groups[lam] = []
            order.append(lam)
        groups[lam].append(m)
    branch = []
    for lam in order:
        mults = groups[lam]
        ramified = sum(mults)
        if ramified > cover.ctx.p:
            raise InvalidDivisor(
                f"critical points over {lam!r} carry total multiplicity {ramified} > p"
            )
        profile = tuple(sorted(mults, reverse=True)) + (1,) * (cover.ctx.p - ramified)
        branch.append(BranchPoint(lam, profile))
    # canonical order: by value-string key, purely for deterministic output
    branch.sort(key=lambda bp: bp.value.to_strings())
    ram = RamificationData(cover.ctx.p, tuple(branch))
    ram.rh_identity()
    return ram


def cover_from_json(doc):
    """Exact-mode input: {"p":5,"e":1,"critical":[{"x":"0","m":3},...]}.

    "x" may be a single rational string (constant element) or a list of e
    rational strings (coefficients over the pi-power basis).
    """
    ctx = FieldContext(doc["p"], doc.get("e", 1))
    points = []
    for entry in doc["critical"]:
        raw = entry["x"]
        if isinstance(raw, (list, tuple)):
            x = ctx.element_from_strings(raw)
        else:
            x = ctx.element_from_strings([raw])
        points.append((x, entry["m"]))
    return from_critical_divisor(CriticalDivisor(tuple(points), ctx.p), ctx)

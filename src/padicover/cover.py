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
from fractions import Fraction

from . import kpoly
from .field import Element, FieldContext
from .newton import check_integrality


class InvalidDivisor(ValueError):
    """Critical multiplicities that cannot come from a degree-p polynomial."""


class RHViolation(AssertionError):
    """The degree count failed — internal inconsistency, never expected."""


class NeedsExtension(ValueError):
    """Normalization is impossible inside the supplied field context."""


class NotEnoughBranchPoints(ValueError):
    """Fewer than two finite branch values: the two-value form has no meaning."""


@dataclass(frozen=True)
class CriticalDivisor:
    """Finite critical points (x, m): x ramifies with index m >= 2."""

    points: tuple  # ((Element, int), ...)
    p: int

    def __post_init__(self):
        seen = set()
        total = 0
        for x, m in self.points:
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

    def find(self, value):
        for bp in self.branch:
            if bp.value == value:
                return bp
        raise KeyError(f"{value!r} is not a branch value")


@dataclass(frozen=True)
class Cover:
    """beta monic of degree p with beta(0) = 0, plus its critical divisor."""

    beta: tuple  # kpoly coefficients, immutable
    ctx: FieldContext
    critical: CriticalDivisor

    @classmethod
    def from_beta(cls, beta, critical, ctx):
        """Accept raw coefficients, but only with the critical points supplied
        and consistent: beta' must equal p * prod (X - x)**(m-1)."""
        beta = kpoly.trim(list(beta))
        expected = kpoly.scale_rat(
            kpoly.from_roots(ctx, [(x, m - 1) for x, m in critical.points]), ctx.p
        )
        if kpoly.derivative(beta) != expected:
            raise InvalidDivisor("supplied critical divisor does not match beta'")
        if not beta or not beta[0].is_zero():
            raise InvalidDivisor("beta(0) must be 0")
        if kpoly.degree(beta) != ctx.p or beta[-1] != ctx.one():
            raise InvalidDivisor(f"beta must be monic of degree {ctx.p}")
        return cls(tuple(beta), ctx, critical)

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
    if not isinstance(div, CriticalDivisor):
        div = CriticalDivisor(tuple(div), ctx.p)
    dbeta = kpoly.scale_rat(
        kpoly.from_roots(ctx, [(x, m - 1) for x, m in div.points]), ctx.p
    )
    beta = kpoly.antiderivative(dbeta)
    assert kpoly.degree(beta) == ctx.p and beta[-1] == ctx.one()
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


@dataclass(frozen=True)
class AffineChange:
    """X = x_scale * X' + x_shift upstairs;  T = t_scale * T' + t_shift downstairs."""

    x_shift: Element
    x_scale: Element
    t_shift: Element
    t_scale: Element

    def is_identity(self):
        return (
            self.x_shift.is_zero()
            and self.t_shift.is_zero()
            and (self.x_scale - self.x_scale.ctx.one()).is_zero()
            and (self.t_scale - self.t_scale.ctx.one()).is_zero()
        )


@dataclass(frozen=True)
class NormalizationResult:
    cover: Cover
    change: AffineChange
    # "normalized": branch values include 0 and 1;
    # "semi_normalized": include 0 and a unit;
    # "not_enough_branch_points": r < 3, translated so the single value is 0
    status: str


def _integer_root(n, p):
    """The exact p-th root of an integer n >= 1, or None (Newton's method)."""
    r = 1 << -(-n.bit_length() // p)  # r**p > n
    while True:
        s = ((p - 1) * r + n // r ** (p - 1)) // p
        if s >= r:
            return r if r**p == n else None
        r = s


def _rational_pth_root(q, p):
    """Exact p-th root of a Fraction, or None (p odd here, so signs pass through)."""
    q = Fraction(q)
    if q == 0:
        return Fraction(0)
    rn = _integer_root(abs(q.numerator), p)
    rd = _integer_root(q.denominator, p)
    if rn is None or rd is None:
        return None
    return Fraction(rn if q > 0 else -rn, rd)


def _apply_change(cover, x_shift, x_scale, t_shift, t_scale):
    new_points = tuple(
        ((x - x_shift) * x_scale.inverse(), m) for x, m in cover.critical.points
    )
    return from_critical_divisor(
        CriticalDivisor(new_points, cover.ctx.p), cover.ctx
    )


def normalize(cover, strict=False):
    """Move the cover to the standard two-value form by affine changes.

    Output branch values lie in R and include 0 (with beta(0) = 0 still) and,
    when achievable inside the context, 1; a unit branch value is the
    fallback ("semi-normalized").  Raises NeedsExtension when no affine
    change over this field can do it (all branch differences have positive
    valuation, or some difference is non-integral).  With r < 3 there is no
    second value to place: the result is flagged, or raised under strict.
    """
    ctx = cover.ctx
    ram = branch_data(cover)
    values = [bp.value for bp in ram.branch]

    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            if (a - b).val() < 0:
                raise NeedsExtension(
                    "branch values cannot be made integral by translation: "
                    f"v({a!r} - {b!r}) < 0"
                )

    if len(values) < 2:
        if strict:
            raise NotEnoughBranchPoints(
                f"only {len(values)} finite branch value(s); need two"
            )
        lam0 = values[0]
        x0 = _anchor_over(cover, lam0)
        if lam0.is_zero() and x0.is_zero():
            change = _identity_change(ctx)
            result = cover
        else:
            change = AffineChange(x0, ctx.one(), lam0, ctx.one())
            result = _apply_change(cover, x0, ctx.one(), lam0, ctx.one())
        return NormalizationResult(result, change, "not_enough_branch_points")

    # pick the base value: it must have a unit partner among the others
    def anchor_sort_key(lam):
        bp = ram.find(lam)
        return (-max(bp.profile), lam.to_strings())

    candidates = []
    for lam in values:
        if any((other - lam).is_unit() for other in values if other is not lam):
            candidates.append(lam)
    if not candidates:
        raise NeedsExtension(
            "no pair of branch values differs by a unit; rescaling would need "
            "a p-th root outside the field (all differences have valuation > 0)"
        )
    candidates.sort(key=anchor_sort_key)
    # keep an existing exact 0 as the base whenever it qualifies
    zero_candidates = [lam for lam in candidates if lam.is_zero()]
    lam0 = zero_candidates[0] if zero_candidates else candidates[0]
    x0 = _anchor_over(cover, lam0)

    shifted_values = [v - lam0 for v in values]
    units = [v for v in shifted_values if v.is_unit()]
    has_one = any((u - ctx.one()).is_zero() for u in units)

    x_scale, t_scale = ctx.one(), ctx.one()
    status = "semi_normalized"
    if has_one:
        status = "normalized"
    else:
        # try to send some unit branch value to exactly 1: needs an exact
        # p-th root of it for the upstairs rescale (only rationals checked;
        # never extends the field silently)
        units.sort(key=lambda u: u.to_strings())
        for u in units:
            if u.n != 1:
                continue
            root = _rational_pth_root(u.terms[0][1], ctx.p)
            if root is not None:
                x_scale = ctx.from_rational(root)
                t_scale = u
                status = "normalized"
                break

    if (
        x0.is_zero()
        and lam0.is_zero()
        and x_scale == ctx.one()
        and t_scale == ctx.one()
    ):
        return NormalizationResult(cover, _identity_change(ctx), status)

    change = AffineChange(x0, x_scale, lam0, t_scale)
    return NormalizationResult(
        _apply_change(cover, x0, x_scale, lam0, t_scale), change, status
    )


def _identity_change(ctx):
    return AffineChange(ctx.zero(), ctx.one(), ctx.zero(), ctx.one())


def _anchor_over(cover, lam):
    """The critical point of largest multiplicity over lam (ties by repr)."""
    over = [(m, x) for x, m in cover.critical.points if cover.value_at(x) == lam]
    over.sort(key=lambda t: (-t[0], t[1].to_strings()))
    return over[0][1]


def cover_from_json(doc):
    """Exact-mode input: {"p":5,"e":1,"critical":[{"x":"0","m":3},...]}.

    "x" may be a single rational string (constant element) or a list of e
    rational strings (coefficients over the pi-power basis).
    """
    p = int(doc["p"])
    e = int(doc.get("e", 1))
    ctx = FieldContext(p, e)
    points = []
    for entry in doc["critical"]:
        raw = entry["x"]
        if isinstance(raw, (list, tuple)):
            x = ctx.element_from_strings(raw)
        else:
            x = ctx.element_from_strings([raw])
        points.append((x, int(entry["m"])))
    return from_critical_divisor(CriticalDivisor(tuple(points), p), ctx)

"""Reduction types of prime-degree covers, built from branch data alone.

The separating semi-stable model of a cover is determined by discrete data:
the ramification profile over each branch value and, for each pair of branch
values that collide in the residue field, the valuation of their difference.
This module turns that data into explicit dual-graph pairs.

The naive reduction of a degree-p polynomial cover is always the p-th power
map (the derivative carries a factor of p), so every branch value whose fiber
has at least two points grows a chain of components where the honest geometry
reappears.  A single branch value grows one arm; two branch values at
distance epsilon > 0 interact, and the shape of the interaction is governed
by the threshold p/u, where u = n1 + n2 - p - 1 counts the excess of the two
fibers.  Below the threshold the pair behaves like two independent arms
hanging off a shared component; at the threshold they fuse; above it the
fibers split into s = u + 1 groups described by an admissible partition pair.
Those pairs are generated group by group under their constraints, not
filtered from all multiset partitions of the two fibers.

Everything here is exact rational arithmetic on profiles and valuations; no
field elements are touched.  The exact-mode entry point classify_cover pulls
its discrete data out of a cover over a concrete field and then delegates.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import branchtree
from .cover import branch_data
from .dualgraph import DualGraphPair, VerticalMap


class ClassifierError(ValueError):
    pass


class InvalidProfile(ClassifierError):
    pass


class ThresholdUndefined(ClassifierError):
    """The pair has u = 0, so no threshold separates the regimes."""

    def __init__(self, pair, n1, n2, p):
        self.pair = pair
        super().__init__(
            f"pair {pair} has fiber sizes {n1} + {n2} = p + 1 = {p + 1}; "
            "the threshold p/u is undefined (u = 0) and the reduction type "
            "is not covered by the pair trichotomy"
        )


class NonIntegralBranchValue(ClassifierError):
    """A branch value lies outside the unit disc, so no residue is defined."""


class NotSimpleReduction(ClassifierError):
    """Some residue cluster has more than two branch values."""

    def __init__(self, offenders):
        self.offenders = tuple(offenders)
        super().__init__(
            "branch locus is not simple; offending clusters: "
            + "; ".join(self.offenders)
        )


class InadmissiblePartition(ClassifierError):
    pass


def check_profile(p, profile):
    prof = tuple(sorted(profile, reverse=True))
    if not prof or any(m < 1 for m in prof):
        raise InvalidProfile(f"profile {profile} has parts < 1")
    if sum(prof) != p:
        raise InvalidProfile(f"profile {profile} sums to {sum(prof)}, not {p}")
    return prof


# ---------------------------------------------------------------------------
# partition pairs


@dataclass(frozen=True)
class PartitionPair:
    """Grouped splitting of two fibers: groups (d, parts1, parts2).

    Each group has total d on both sides and len(parts1) + len(parts2)
    = d + 1.  Groups are kept in canonical order (largest d first, then
    largest parts); parts are stored ascending.
    """

    groups: tuple

    @classmethod
    def from_groups(cls, p, groups):
        canon = []
        for d, g1, g2 in groups:
            g1 = tuple(sorted(g1))
            g2 = tuple(sorted(g2))
            if sum(g1) != d or sum(g2) != d:
                raise InadmissiblePartition(
                    f"group sums {sum(g1)}, {sum(g2)} differ from d = {d}"
                )
            if len(g1) + len(g2) != d + 1:
                raise InadmissiblePartition(
                    f"group (d={d}) has {len(g1)} + {len(g2)} parts, "
                    f"expected d + 1 = {d + 1}"
                )
            canon.append((d, g1, g2))
        if len(canon) < 2:
            raise InadmissiblePartition("a partition pair needs at least 2 groups")
        if sum(d for d, _, _ in canon) != p:
            raise InadmissiblePartition("group degrees do not sum to p")
        canon.sort(key=_group_sort_key)
        return cls(tuple(canon))

    def to_json(self):
        return [
            {"d": d, "fiber1": list(g1), "fiber2": list(g2)}
            for d, g1, g2 in self.groups
        ]


def _group_sort_key(group):
    d, g1, g2 = group
    return (
        -d,
        tuple(-x for x in sorted(g1, reverse=True)),
        tuple(-x for x in sorted(g2, reverse=True)),
    )


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


def _groupings(fiber1, fiber2, last=()):
    """The splits of two equal-sum fibers ((value, count) pairs) into groups
    (d, g1, g2), parts descending; see admissible_partitions.  `last` is
    (-head, sort key) of the previous group: groups with equal heads come in
    sort-key order, so each split comes once."""
    if not fiber1:
        yield ()
        return
    (head, c), tail = fiber1[0], fiber1[1:]
    rest1 = ((head, c - 1),) * (c > 1) + tail
    for more1, left1 in _submultisets(rest1, sum(v * n for v, n in rest1)):
        d = head + sum(more1)
        for g2, left2 in _submultisets(fiber2, d):
            if sum(g2) != d or len(more1) + len(g2) != d:
                continue
            group = (d, (head,) + more1, g2)
            order = (-head, _group_sort_key(group))
            if order >= last:
                yield from ((group,) + more for more in _groupings(left1, left2, order))


def admissible_partitions(p, profile1, profile2):
    """All partition pairs of the two fibers, in canonical order.

    Each group (d, g1, g2) is built under its constraints (Knuth, TAOCP 4A,
    7.2.1.5): the largest part left in fiber 1 heads it, the rest of g1 is
    any sub-multiset of what is left of fiber 1, and g2 is a sub-multiset of
    fiber 2 with sum d = sum(g1) and d + 1 - len(g1) parts.  Summed over the
    groups, len(g1) + len(g2) = d + 1 gives exactly u + 1 = n1 + n2 - p of
    them, so there is no pair when u < 1.
    """
    profile1 = check_profile(p, profile1)
    profile2 = check_profile(p, profile2)
    if pair_excess(p, profile1, profile2) < 1:
        return ()
    fibers = [tuple(sorted(Counter(pr).items(), reverse=True)) for pr in (profile1, profile2)]
    found = [PartitionPair.from_groups(p, groups) for groups in _groupings(*fibers)]
    return tuple(sorted(found, key=lambda pp: [_group_sort_key(g) for g in pp.groups]))


# ---------------------------------------------------------------------------
# the trichotomy


def pair_excess(p, profile1, profile2):
    return len(profile1) + len(profile2) - p - 1


@dataclass(frozen=True)
class TailReport:
    pair: tuple  # (label1, label2)
    profiles: tuple  # (profile1, profile2)
    epsilon: Fraction
    excess: int
    threshold: Fraction
    regime: str
    partitions: tuple  # of PartitionPair; empty unless regime == "near"

    def to_json(self):
        from .field import fmt_rat

        return {
            "pair": list(self.pair),
            "profiles": [list(pr) for pr in self.profiles],
            "epsilon": fmt_rat(self.epsilon),
            "excess": self.excess,
            "threshold": fmt_rat(self.threshold),
            "regime": self.regime,
            "partitions": [pp.to_json() for pp in self.partitions],
        }


def analyze_tail(p, pair, profile1, profile2, epsilon):
    """The pair's excess u, threshold p/u and regime at distance epsilon."""
    profile1 = check_profile(p, profile1)
    profile2 = check_profile(p, profile2)
    eps = Fraction(epsilon)
    if eps <= 0:
        raise InvalidProfile(f"pair distance must be positive, got {eps}")
    u = pair_excess(p, profile1, profile2)
    if u <= 0:
        raise ThresholdUndefined(pair, len(profile1), len(profile2), p)
    threshold = Fraction(p, u)
    regime = "far" if eps < threshold else "critical" if eps == threshold else "near"
    parts = ()
    if regime == "near":
        parts = admissible_partitions(p, profile1, profile2)
        if not parts:
            raise InadmissiblePartition(
                f"no admissible partition for profiles {profile1}, {profile2}"
            )
    return TailReport(
        pair=tuple(pair),
        profiles=(profile1, profile2),
        epsilon=eps,
        excess=u,
        threshold=threshold,
        regime=regime,
        partitions=parts,
    )


# ---------------------------------------------------------------------------
# model assembly


class _Builder:
    """Accumulates components of both trees and emits a DualGraphPair."""

    def __init__(self, p):
        self.p = p
        self.x_marks = {"C": [("inf", p)]}
        self.y_marks = {"D": ["inf"]}
        self.x_edges = []
        self.y_edges = []
        self.vertical = {"C": VerticalMap("D", p, "inseparable")}
        self.partitions = []

    def add_ordinary_arm(self, label, profile):
        n = len(profile)
        if n == 1:
            # totally ramified fiber: the single point sits on the root
            self.x_marks["C"].append((label, profile[0]))
            self.y_marks["D"].append(label)
            return
        cx, dy = f"C'({label})", f"D'({label})"
        self.x_marks[cx] = [(label, m) for m in profile]
        self.y_marks[dy] = [label]
        t = Fraction(1, n - 1)
        self.x_edges.append(("C", cx, t))
        self.y_edges.append(("D", dy, self.p * t))
        self.vertical[cx] = VerticalMap(
            dy, self.p, "etale", notes=("wild above junction image",)
        )

    def add_tail(self, report, partition=None):
        a, b = report.pair
        eps = report.epsilon
        prof1, prof2 = report.profiles
        cx, dy = f"C'({a},{b})", f"D'({a},{b})"
        if report.regime == "far":
            self.x_marks[cx] = []
            self.y_marks[dy] = []
            self.x_edges.append(("C", cx, eps / self.p))
            self.y_edges.append(("D", dy, eps))
            self.vertical[cx] = VerticalMap(dy, self.p, "inseparable")
            for label, prof in ((a, prof1), (b, prof2)):
                n = len(prof)
                nu = Fraction(self.p - report.excess * eps, self.p * (n - 1))
                leaf_x, leaf_y = f"C({label})", f"D({label})"
                self.x_marks[leaf_x] = [(label, m) for m in prof]
                self.y_marks[leaf_y] = [label]
                self.x_edges.append((cx, leaf_x, nu))
                self.y_edges.append((dy, leaf_y, self.p * nu))
                self.vertical[leaf_x] = VerticalMap(
                    leaf_y, self.p, "etale", notes=("wild above junction image",)
                )
        elif report.regime == "critical":
            self.x_marks[cx] = [(a, m) for m in prof1] + [(b, m) for m in prof2]
            self.y_marks[dy] = [a, b]
            self.x_edges.append(("C", cx, eps / self.p))
            self.y_edges.append(("D", dy, eps))
            self.vertical[cx] = VerticalMap(
                dy, self.p, "etale", notes=("wild above one unramified point",)
            )
        else:  # near
            if partition is None:
                raise InadmissiblePartition(
                    "a near-threshold tail needs a partition pair"
                )
            eps0 = report.threshold
            eps1 = eps - eps0
            d1y = f"D_1({a},{b})"
            self.x_marks[cx] = []
            self.y_marks[dy] = []
            self.y_marks[d1y] = [a, b]
            self.x_edges.append(("C", cx, eps0 / self.p))
            self.y_edges.append(("D", dy, eps0))
            self.y_edges.append((dy, d1y, eps1))
            self.vertical[cx] = VerticalMap(dy, self.p, "etale")
            for i, (d, g1, g2) in enumerate(partition.groups, start=1):
                leaf = f"C_{i}({a},{b})"
                self.x_marks[leaf] = [(a, m) for m in g1] + [(b, m) for m in g2]
                self.x_edges.append((cx, leaf, eps1 / d))
                self.vertical[leaf] = VerticalMap(d1y, d, "etale", notes=("tame",))
            self.partitions.append(((a, b), partition.groups))

    def build(self):
        pair = DualGraphPair(
            p=self.p,
            x_root="C",
            y_root="D",
            x_marks={k: tuple(v) for k, v in self.x_marks.items()},
            y_marks={k: tuple(v) for k, v in self.y_marks.items()},
            x_edges=list(self.x_edges),
            y_edges=list(self.y_edges),
            vertical=dict(self.vertical),
            partitions=tuple(sorted(self.partitions)),
        )
        return pair.validate()


@dataclass(frozen=True)
class Classification:
    p: int
    ordinary: tuple  # ((label, profile), ...)
    tails: tuple  # of TailReport
    models: tuple  # of DualGraphPair, one per choice of partitions

    @property
    def model(self):
        if len(self.models) != 1:
            raise ClassifierError(
                f"classification has {len(self.models)} candidate models; "
                "pick one explicitly"
            )
        return self.models[0]


def assemble(p, ordinary, tail_reports):
    """All candidate full models: one per choice of a partition pair for
    each near-threshold tail (other regimes are rigid)."""
    choice_sets = []
    for rep in tail_reports:
        if rep.regime == "near":
            choice_sets.append([(rep, pp) for pp in rep.partitions])
        else:
            choice_sets.append([(rep, None)])
    models = []
    for combo in itertools.product(*choice_sets) if choice_sets else [()]:
        b = _Builder(p)
        for label, prof in ordinary:
            b.add_ordinary_arm(label, prof)
        for rep, pp in combo:
            b.add_tail(rep, pp)
        models.append(b.build())
    return Classification(
        p=p,
        ordinary=tuple((lbl, tuple(prof)) for lbl, prof in ordinary),
        tails=tuple(tail_reports),
        models=tuple(models),
    )


def classify_formula(p, branch_specs):
    """Formula mode: branch_specs is a list of dicts with keys
    name, profile, and optionally tail_with + epsilon (on one member of
    each tail pair).  No field arithmetic happens."""
    by_name = {}
    for spec in branch_specs:
        name = spec["name"]
        if name in by_name:
            raise InvalidProfile(f"duplicate branch point name {name!r}")
        by_name[name] = spec
    profiles = {n: check_profile(p, s["profile"]) for n, s in by_name.items()}
    pairs = {}
    for name, spec in sorted(by_name.items()):
        partner = spec.get("tail_with")
        if partner is None:
            continue
        if partner not in by_name:
            raise InvalidProfile(f"tail partner {partner!r} of {name!r} unknown")
        if partner == name:
            raise InvalidProfile(f"branch point {name!r} cannot pair with itself")
        pair = tuple(sorted((name, partner)))
        eps = spec.get("epsilon")
        eps = None if eps is None else Fraction(eps)
        if pair in pairs:
            if eps is not None and pairs[pair] is not None and eps != pairs[pair]:
                raise InvalidProfile(f"tail {pair} has two different epsilons")
            if eps is not None:
                pairs[pair] = eps
        else:
            pairs[pair] = eps
    claimed = set()
    for pair in pairs:
        for name in pair:
            if name in claimed:
                raise InvalidProfile(f"branch point {name!r} sits in two tails")
            claimed.add(name)
    tails = []
    for pair, eps in sorted(pairs.items()):
        if eps is None:
            raise InvalidProfile(f"tail {pair} is missing epsilon")
        tails.append(analyze_tail(p, pair, profiles[pair[0]], profiles[pair[1]], eps))
    ordinary = [
        (n, profiles[n]) for n in sorted(by_name) if n not in claimed
    ]
    return assemble(p, ordinary, tails)


def classify_cover(cover):
    """Exact mode: read branch data and residue geometry off a concrete
    cover whose branch values are all integral."""
    p = cover.ctx.p
    labeled = []
    for bp in branch_data(cover):
        if bp.value and bp.value.val() < 0:
            raise NonIntegralBranchValue(
                f"branch value {bp.label} is not integral; move the branch values "
                "into the unit disc by a change of coordinates"
            )
        labeled.append((bp.label, bp.value, bp.profile))
    if len(labeled) == 1:
        lbl, _, prof = labeled[0]
        return assemble(p, [(lbl, prof)], [])
    if len(labeled) == 2:
        (la, xa, pa), (lb, xb, pb) = sorted(labeled, key=lambda t: t[0])
        gap = (xa - xb).val()
        if gap > 0:
            # two finite branch values force sum(n) = p + 1, so u = 0 and
            # analyze_tail reports the trichotomy as undefined
            return assemble(p, [], [analyze_tail(p, (la, lb), pa, pb, gap)])
    points = [(lbl, val) for lbl, val, _ in labeled]
    tree = branchtree.build_branch_tree(points)
    verdict = branchtree.classify_points(tree)
    if not verdict.simple:
        raise NotSimpleReduction(verdict.offenders)
    prof_by = {lbl: prof for lbl, _, prof in labeled}
    ordinary = [(lbl, prof_by[lbl]) for lbl in sorted(verdict.ordinary)]
    tails = []
    for tail in sorted(verdict.tails, key=lambda t: t.pair):
        a, b = tail.pair
        tails.append(analyze_tail(p, (a, b), prof_by[a], prof_by[b], tail.epsilon))
    return assemble(p, ordinary, tails)



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
A group's parts greater than 1 force its ones, so those pairs are built as
the multiset partitions of the two fibers' parts greater than 1 into blocks
that make groups, padded with groups of ones; the splits of each remainder
are found once per call, in a memo that a module-level recursion takes as an
argument, so no closure holds it in a cycle.  The rigid part of a
classification's models (root, ordinary arms, tails and the whole downstairs
tree) is built once; each partition choice adds only its leaves.  When there
are two or more choices, the models share one dict of rendered upstairs
components (the dualgraph docstring says why only that table is kept); a
single model renders directly.

Everything here is exact rational arithmetic on profiles and valuations; no
field elements are touched.  The exact-mode entry point classify_cover pulls
its discrete data out of a cover over a concrete field and then delegates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import branchtree
from .cover import branch_data
from .dualgraph import DualGraphPair, VerticalMap, group_key, groups_json


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

    def __init__(self, offenders, tree):
        self.offenders = tuple(offenders)
        self.tree = tree  # the branchtree.MetricTree the offenders are read from
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


def _subsets(parts, memo):
    """(chosen, len, excess, rest, len, excess) per sub-multiset `chosen` of
    `parts` (descending), the excess being sum - len; found once in `memo`."""
    found = memo.get(parts)
    if found is None:
        runs = [(v, parts.count(v)) for v in dict.fromkeys(parts)]
        found = memo[parts] = []
        for ks in itertools.product(*[range(c + 1) for _, c in runs]):
            chosen = rest = ()
            for (v, c), k in zip(runs, ks):
                chosen += (v,) * k
                rest += (v,) * (c - k)
            n, m = len(chosen), len(rest)
            found.append((chosen, n, sum(chosen) - n, rest, m, sum(rest) - m))
    return found


def _headed(parts, memo):
    """The sub-multisets of `parts`, as ``_subsets`` gives them, that hold
    its largest part."""
    head = parts[0]
    return [
        ((head,) + c, n + 1, e + head - 1, r, rn, re)
        for c, n, e, r, rn, re in _subsets(parts[1:], memo)
    ]


_NO_BLOCKS = ((((), ()), ((),)),)  # the one split of nothing, under ((), ()) < every block


def _blocks(rest1, rest2, left, memo):
    """((first block, [split, ...]), ...): the splits of the parts rest1,
    rest2 (all > 1, descending) into at most `left` blocks (h1, h2) in
    non-increasing order, by first block, each split a tuple of
    (group_key(group), group).  `memo` holds the splits of each remainder
    (rest1, rest2, left), the entry of each block and ``_subsets``."""
    if not (rest1 or rest2):
        return _NO_BLOCKS
    found = memo.get((rest1, rest2, left))
    if found is not None:
        return found
    found = memo[rest1, rest2, left] = []
    left -= 1
    if rest1:
        firsts, seconds = _headed(rest1, memo), _subsets(rest2, memo)
    else:
        firsts, seconds = [((), 0, 0, (), 0, 0)], _headed(rest2, memo)
    for h1, n1, e1, r1, rn1, re1 in firsts:
        for h2, n2, e2, r2, rn2, re2 in seconds:
            if n1 > e2 + 1 or n2 > e1 + 1 or rn1 > re2 + left or rn2 > re1 + left:
                continue
            block = (h1, h2)
            tails = [
                tail
                for first, splits in _blocks(r1, r2, left, memo)
                if first <= block
                for tail in splits
            ]
            if tails:
                entry = memo.get(block)
                if entry is None:
                    g1 = (1,) * (e2 + 1 - n1) + h1[::-1]
                    group = (e1 + e2 + 1, g1, (1,) * (e1 + 1 - n2) + h2[::-1])
                    entry = memo[block] = ((group_key(group), group),)
                found.append((block, [entry + tail for tail in tails]))
    return found


def admissible_partitions(p, profile1, profile2):
    """All partition pairs of the two fibers, in canonical order: each a
    tuple of groups (d, parts1, parts2), parts ascending, the groups in
    ``dualgraph.group_key`` order.

    A group (d, g1, g2) has sum(g1) = sum(g2) = d and len(g1) + len(g2) =
    d + 1, so its parts greater than 1 force its ones.  Let h_i be the parts
    > 1 of g_i and e_i = sum(h_i) - len(h_i).  Then g_i holds d - sum(h_i)
    ones, and the length condition gives d = e1 + e2 + 1: g1 holds
    e2 + 1 - len(h1) ones and g2 holds e1 + 1 - len(h2).  So (h1, h2) makes
    a group exactly when len(h1) <= e2 + 1 and len(h2) <= e1 + 1, and
    h1 = h2 = () makes (1, (1,), (1,)).  Over s groups, fiber 1 spends
    E2 + s - L1 ones, where L_i counts the parts > 1 of fiber i and E_i is
    their excess, and it has n1 - L1; since E2 = p - n2, these agree
    exactly when s = n1 + n2 - p = u + 1, and likewise for fiber 2.  So the
    pairs are the multiset partitions of the two fibers' parts > 1 into at
    most u + 1 blocks that make groups (Knuth, TAOCP 4A, 7.2.1.5), padded
    with (1, (1,), (1,)) to u + 1 groups, and there is none when u < 1.

    ``_blocks`` builds them with nothing generated and then thrown away but
    the splits that a block's order filter drops.  The first block holds the
    largest part left on side 1, or on side 2 once side 1 is used up, and
    the blocks come in non-increasing (h1, h2) order, so each pair comes
    once.  A block holds at most e2 + 1 parts of side 1 and e1 + 1 of side 2,
    so a remainder (rest1, rest2) with k blocks left is pruned when
    len(rest1) > E(rest2) + k or len(rest2) > E(rest1) + k, E being the
    excess; as the empty remainder is pruned once k < 0, so is every split
    into more than u + 1 blocks.  Each remainder's splits and each block's group are found once
    per call, in a dict that ``_blocks`` takes as an argument and that is
    freed when the call returns.
    """
    profile1 = check_profile(p, profile1)
    profile2 = check_profile(p, profile2)
    count = pair_excess(p, profile1, profile2) + 1
    if count < 2:
        return ()
    rest1 = tuple(m for m in profile1 if m > 1)
    rest2 = tuple(m for m in profile2 if m > 1)
    found = sorted(
        tuple(sorted(split))
        for _, splits in _blocks(rest1, rest2, count, {})
        for split in splits
    )
    ones = ((1, (1,), (1,)),)
    return tuple(
        tuple(group for _, group in split) + ones * (count - len(split)) for split in found
    )


# ---------------------------------------------------------------------------
# the trichotomy


def pair_excess(p, profile1, profile2):
    return len(profile1) + len(profile2) - p - 1


class TailReport:
    __slots__ = ("pair", "profiles", "epsilon", "excess", "threshold", "regime", "partitions")

    def __init__(self, pair, profiles, epsilon, excess, threshold, regime, partitions):
        self.pair = pair  # (label1, label2)
        self.profiles = profiles  # (profile1, profile2)
        self.epsilon = epsilon  # Fraction
        self.excess = excess  # int
        self.threshold = threshold  # Fraction
        self.regime = regime  # str
        self.partitions = partitions  # of tuples of groups; empty unless regime == "near"

    def to_json(self):
        return {
            "pair": list(self.pair),
            "profiles": [list(pr) for pr in self.profiles],
            "epsilon": str(self.epsilon),
            "excess": self.excess,
            "threshold": str(self.threshold),
            "regime": self.regime,
            "partitions": [groups_json(groups) for groups in self.partitions],
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
    """Accumulates the rigid components of both trees (marks as tuples) and
    emits one DualGraphPair per choice of near-tail leaves.  An upstairs
    component C<tag> maps onto D<tag>; the roots have the tag ""."""

    def __init__(self, p):
        self.p = p
        self.x_marks = {"C": (("inf", p),)}
        self.y_marks = {"D": ("inf",)}
        self.x_edges = []
        self.y_edges = []
        self.vertical = {"C": VerticalMap("D", p, "inseparable")}

    def hang(self, over, tag, t, x_marks, y_marks, kind="etale", notes=()):
        """C<tag> over D<tag> by a degree-p map of this kind, hung below C<over>
        and D<over>: the downstairs edge is t thick and the upstairs one t / p,
        the scaling law that DualGraphPair.validate checks."""
        cx, dy = "C" + tag, "D" + tag
        self.x_marks[cx] = x_marks
        self.y_marks[dy] = y_marks
        self.x_edges.append(("C" + over, cx, Fraction(t.numerator, t.denominator * self.p)))
        self.y_edges.append(("D" + over, dy, t))
        self.vertical[cx] = VerticalMap(dy, self.p, kind, notes=notes)

    def add_arm(self, label, profile, height, over="", tag="'"):
        """The arm of a branch value whose fiber has n points: C<tag>(label)
        below C<over>, at downstairs thickness height / (n - 1).  An ordinary
        arm hangs off the root with height p; a totally ramified fiber's one
        point sits on the root instead."""
        n = len(profile)
        if n == 1:
            self.x_marks["C"] += ((label, profile[0]),)
            self.y_marks["D"] += (label,)
            return
        marks, notes = tuple((label, m) for m in profile), ("wild above junction image",)
        self.hang(over, f"{tag}({label})", Fraction(height, n - 1), marks, (label,), notes=notes)

    def add_tail(self, report):
        """The tail's rigid part; a near tail's leaves C_i come from _near_leaves.
        A far tail is a junction with the two arms C(a), C(b) hung below it at
        height p - u * epsilon."""
        (a, b), (prof1, prof2), eps = report.pair, report.profiles, report.epsilon
        tag = f"'({a},{b})"
        if report.regime == "far":
            self.hang("", tag, eps, (), (), "inseparable")
            for label, prof in ((a, prof1), (b, prof2)):
                self.add_arm(label, prof, self.p - report.excess * eps, over=tag, tag="")
        elif report.regime == "critical":
            marks = tuple((a, m) for m in prof1) + tuple((b, m) for m in prof2)
            self.hang("", tag, eps, marks, (a, b), notes=("wild above one unramified point",))
        else:  # near
            self.hang("", tag, report.threshold, (), ())
            self.y_marks[f"D_1({a},{b})"] = (a, b)
            self.y_edges.append(("D" + tag, f"D_1({a},{b})", eps - report.threshold))

    def build(self, choices, memo):
        """The model with the leaves of each (leaves, entry) choice, rendering
        its upstairs components into `memo`, a dict or None."""
        x_marks, x_edges, vertical = dict(self.x_marks), list(self.x_edges), dict(self.vertical)
        for leaves, _ in choices:
            for name, marks, edge, vm in leaves:
                x_marks[name] = marks
                x_edges.append(edge)
                vertical[name] = vm
        return DualGraphPair(
            p=self.p, x_root="C", y_root="D", x_marks=x_marks, y_marks=dict(self.y_marks),
            x_edges=x_edges, y_edges=list(self.y_edges), vertical=vertical,
            partitions=tuple(sorted(entry for _, entry in choices)), memo=memo,
        ).validate()


def _near_leaves(report):
    """Per partition pair of a near tail, the leaves C_i it adds, as
    ((name, marks, edge, map), ...) and its entry (pair, groups).  Each leaf
    of degree d hangs at thickness epsilon_1 / d, computed once per d."""
    a, b = report.pair
    cx, d1y = f"C'({a},{b})", f"D_1({a},{b})"
    eps1 = report.epsilon - report.threshold
    by_degree = {}
    for groups in report.partitions:
        leaves = []
        for i, (d, g1, g2) in enumerate(groups, start=1):
            if d not in by_degree:
                by_degree[d] = eps1 / d, VerticalMap(d1y, d, "etale", notes=("tame",))
            thickness, vm = by_degree[d]
            name = f"C_{i}({a},{b})"
            marks = tuple([(a, m) for m in g1] + [(b, m) for m in g2])
            leaves.append((name, marks, (cx, name, thickness), vm))
        yield leaves, ((a, b), groups)


class Classification:
    __slots__ = ("p", "ordinary", "tails", "models", "tree")

    def __init__(self, p, ordinary, tails, models, tree=None):
        self.p = p
        self.ordinary = ordinary  # ((label, profile), ...)
        self.tails = tails  # of TailReport
        self.models = models  # of DualGraphPair, one per choice of partitions
        self.tree = tree  # classify_cover's branchtree.MetricTree, if it built one


def assemble(p, ordinary, tail_reports, tree=None):
    """All candidate full models: one per choice of a partition pair for
    each near-threshold tail (other regimes are rigid).  The rigid part is
    built once; each choice adds only the leaves of its near tails.  Two or
    more models share one dict of rendered upstairs components, which lives
    as long as they do; a single model has none, as a dict of its own would
    never hit."""
    skeleton = _Builder(p)
    for label, prof in ordinary:
        skeleton.add_arm(label, prof, p)
    for rep in tail_reports:
        skeleton.add_tail(rep)
    choice_sets = [_near_leaves(rep) for rep in tail_reports if rep.regime == "near"]
    combos = list(itertools.product(*choice_sets))
    memo = {} if len(combos) > 1 else None
    return Classification(
        p=p,
        ordinary=tuple((lbl, tuple(prof)) for lbl, prof in ordinary),
        tails=tuple(tail_reports),
        models=tuple(skeleton.build(combo, memo) for combo in combos),
        tree=tree,
    )


def classify_formula(p, branch_specs):
    """Formula mode: branch_specs is a list of dicts with keys name, profile,
    and optionally tail_with + epsilon (on one member of each tail pair; an
    epsilon without tail_with is refused).  No field arithmetic happens.
    The profiles must satisfy Riemann-Hurwitz: infinity is totally ramified,
    so the sum of p - n over the finite branch points, n the fiber size, is
    p - 1."""
    by_name = {}
    for spec in branch_specs:
        name = spec["name"]
        if name in by_name:
            raise InvalidProfile(f"duplicate branch point name {name!r}")
        if name == "inf":
            raise InvalidProfile("the branch point name 'inf' is reserved for infinity")
        by_name[name] = spec
    profiles = {n: check_profile(p, s["profile"]) for n, s in by_name.items()}
    ramification = sum(p - len(prof) for prof in profiles.values())
    if ramification != p - 1:
        raise InvalidProfile(
            f"Riemann-Hurwitz fails: the sum of p - n over the finite branch points "
            f"is {ramification}, not p - 1 = {p - 1}"
        )
    pairs = {}
    for name, spec in sorted(by_name.items()):
        partner = spec.get("tail_with")
        if partner is None:
            if spec.get("epsilon") is not None:
                raise InvalidProfile(f"branch point {name!r} has an epsilon but no tail_with")
            continue
        if partner not in by_name:
            raise InvalidProfile(f"tail partner {partner!r} of {name!r} unknown")
        if partner == name:
            raise InvalidProfile(f"branch point {name!r} cannot pair with itself")
        pair = tuple(sorted((name, partner)))
        eps = spec.get("epsilon")
        eps = None if eps is None else Fraction(eps)
        known = pairs.get(pair)
        if eps is not None and known is not None and eps != known:
            raise InvalidProfile(f"tail {pair} has two different epsilons")
        pairs[pair] = known if eps is None else eps
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
    ordinary = [(n, profiles[n]) for n in sorted(by_name) if n not in claimed]
    return assemble(p, ordinary, tails)


def classify_cover(cover):
    """Exact mode: read branch data and residue geometry off a concrete
    cover whose branch values are all integral.  The result carries the
    branch tree it is read from; a cover with one branch value has none."""
    p = cover.ctx.p
    branch = branch_data(cover)
    for bp in branch:
        if not bp.value.is_integral():
            raise NonIntegralBranchValue(f"branch value {bp.label} is not integral")
    if len(branch) == 1:
        return assemble(p, [(branch[0].label, branch[0].profile)], [])
    if len(branch) == 2:
        a, b = sorted(branch, key=lambda bp: bp.label)
        if (a.value - b.value).scaled_val() > 0:
            # two finite branch values force sum(n) = p + 1, so u = 0 and
            # the trichotomy is undefined
            raise ThresholdUndefined((a.label, b.label), len(a.profile), len(b.profile), p)
    tree = branchtree.build_branch_tree((bp.label, bp.value) for bp in branch)
    verdict = branchtree.classify_points(tree)
    if verdict.offenders:
        raise NotSimpleReduction(verdict.offenders, tree)
    profile = {bp.label: bp.profile for bp in branch}
    tails = [
        analyze_tail(p, t.pair, profile[t.pair[0]], profile[t.pair[1]], t.epsilon)
        for t in verdict.tails
    ]
    return assemble(p, [(lbl, profile[lbl]) for lbl in verdict.ordinary], tails, tree)

"""Metric tree of a marked projective line over the valuation ring.

The finite branch values, all integral, are grouped by the nested-disc rule:
two points sit strictly inside a common sub-disc of radius q exactly when
v(a - b) > q.  The root D is the unit-disc component, where the point at
infinity also specializes (the virtual mark "inf").  Its classes, v(a - b) >
0, are read off the residues: for integral a and b, a - b lies in the
maximal ideal exactly when a and b have one image in F_p, so the root takes
one residue read per point, and each member of a class of two or more is
subtracted once, from the class's first member.  One recursive walk, a
module-level function that takes the tree built so far as an argument,
builds the rest: at a component of depth d > 0 the points split into the
classes of v(a - b) > d, each class found by comparing a point with the
first member of every class so far.  At every component, a class of one
point is a mark of the component, and each larger class g becomes a child
component, in order of its sorted labels.  The child's depth is the least
v(x - g[0]) over its members: v(a - b) >= min(v(a - g[0]), v(b - g[0])) by
the ultrametric inequality, so that is the least pairwise valuation.  Its
edge to the parent has thickness = depth - parent depth.  Components are
named as the walk creates them: D, then v1, v2, ... depth first, the order
of ``MetricTree.nodes``.

The walk runs on ints, each valuation read as N * v with N the lcm of the
points' own n (``Element.scaled_val``).  A member placed in a class carries
its distance to the class's first member down the walk, where it gives the
child's depth and places the member in the child's first class, headed by
the same point, so no pair is subtracted twice.  A node's ``depth`` and
``thickness`` are the only ``Fraction``s, built once each.

A non-root leaf carrying exactly two marks directly below the root is a
*simple tail*; the whole configuration has simple reduction when every
non-root component is one.  Everything downstream (the closed-form
classifier and its blow-up cross-check) assumes that shape, so this module
is also the gatekeeper that reports offending clusters.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class AllPointsCoalesce(ValueError):
    """All marked points share one residue: no two specialize apart."""


ONE_POINT = "need at least two marked points"


class TreeNode:
    __slots__ = ("name", "depth", "thickness", "parent", "marks", "children")

    def __init__(self, name, depth, thickness, parent):
        self.name = name
        self.depth = depth  # Fraction
        self.thickness = thickness  # depth below the parent; None on the root
        self.parent = parent  # parent's name; None on the root
        self.marks = []  # mark labels, sorted
        self.children = []  # TreeNode, in creation order


class Tail:
    __slots__ = ("pair", "epsilon")

    def __init__(self, pair, epsilon):
        self.pair = pair  # two mark labels, sorted
        self.epsilon = epsilon  # Fraction


class BranchClassification:
    __slots__ = ("ordinary", "tails", "offenders")

    def __init__(self, ordinary, tails, offenders):
        self.ordinary = ordinary  # labels marked on the root, sorted
        self.tails = tails  # Tail entries, in order of their pairs
        self.offenders = offenders  # human-readable descriptions of non-simple clusters


class MetricTree:
    __slots__ = ("root", "nodes")

    def __init__(self, root, nodes):
        self.root = root  # TreeNode
        self.nodes = nodes  # name -> TreeNode, in creation order: D, v1, v2, ...

    def to_json(self):
        out = []
        for n in self.nodes.values():
            entry = {"name": n.name, "depth": str(n.depth), "marks": list(n.marks)}
            if n.parent is not None:
                entry["parent"] = n.parent
                entry["thickness"] = str(n.thickness)
            out.append(entry)
        return {"vertices": out}


def _scaled_distance(x, y, n):
    """n * v(x - y), an int, for distinct x and y whose n divide n."""
    d = x - y
    return d.scaled_val() * (n // d.n)


def _group(points, threshold, n):
    """Partition (label, x, w) by the equivalence v(a - b) > threshold
    (ultrametric, so it is one), valuations scaled by n.  Every point after
    the first carries w = n * v(x - points[0].x); each member comes out
    carrying its w to its class's first member, which carries None."""
    groups = []
    for label, x, w in points:
        for i, g in enumerate(groups):
            if i:  # the first class is headed by points[0], whose w x carries
                w = _scaled_distance(x, g[0][1], n)
            if w > threshold:
                g.append((label, x, w))
                break
        else:
            groups.append([(label, x, None)])
    return groups


def build_branch_tree(points):
    """Cluster the marked points into the rooted metric tree.

    points: iterable of (label, Element), all with valuation >= 0 and
    pairwise distinct.  Requires at least two distinct residues, otherwise
    the root component would not exist as a stable marked component
    (AllPointsCoalesce).
    """
    pts = [(str(label), x, None) for label, x in points]
    if len(pts) < 2:
        raise AllPointsCoalesce(ONE_POINT)
    seen, by_residue = set(), {}
    for pt in pts:
        label, x, _ = pt
        if not x.is_integral():
            raise ValueError(f"marked point {label} has negative valuation")
        if x in seen:
            raise ValueError(f"marked points must be distinct ({label} repeats)")
        seen.add(x)
        by_residue.setdefault(x.residue(), []).append(pt)
    if len(by_residue) < 2:
        raise AllPointsCoalesce("all marked points share one residue; no two specialize apart")
    n = lcm(*(x.n for _, x, _ in pts))
    # v(a - b) > 0 exactly when a and b have one residue; each member of a
    # class carries its distance to the class's first member, as in _group
    root_groups = [
        [head] + [(label, x, _scaled_distance(x, head[1], n)) for label, x, _ in rest]
        for head, *rest in by_residue.values()
    ]
    root = TreeNode("D", Fraction(0), None, None)
    root.marks.append("inf")
    nodes = {}
    _attach(root, 0, root_groups, n, nodes)
    return MetricTree(root, nodes)


def _attach(node, depth, groups, n, nodes):
    """Record `node`, mark its one-point classes, attach a child per larger class."""
    nodes[node.name] = node
    node.marks += [g[0][0] for g in groups if len(g) == 1]
    node.marks.sort()
    clusters = [g for g in groups if len(g) > 1]
    for g in sorted(clusters, key=lambda g: sorted(lbl for lbl, _, _ in g)):
        below = min(w for _, _, w in g[1:])
        child = TreeNode(
            f"v{len(nodes)}", Fraction(below, n), Fraction(below - depth, n), node.name
        )
        node.children.append(child)
        _attach(child, below, _group(g, below, n), n, nodes)


def classify_points(tree):
    """Ordinary points, tails with their thickness, and the offending
    clusters: every non-root component that is not a simple tail."""
    root = tree.root
    ordinary = tuple(m for m in root.marks if m != "inf")
    tails, offenders = [], []
    for node in tree.nodes.values():
        if node is root:
            continue
        if node.parent == root.name and not node.children and len(node.marks) == 2:
            tails.append(Tail(pair=tuple(node.marks), epsilon=node.thickness))
        else:
            offenders.append(
                f"cluster {node.name} (marks {{{', '.join(node.marks) or '-'}}}, "
                f"{len(node.children)} sub-cluster(s), depth {node.depth})"
            )
    return BranchClassification(ordinary, tuple(tails), tuple(offenders))

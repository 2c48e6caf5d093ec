"""Metric tree of a marked projective line over the valuation ring.

The finite branch values, all integral, are grouped by the nested-disc rule:
two points sit strictly inside a common sub-disc of radius q exactly when
v(a - b) > q.  Clusters of size >= 2 become components; the component at
depth d (its internal minimal pairwise valuation) hangs below its enclosing
cluster by an edge of thickness = difference of depths; marked points attach
to the smallest cluster containing them.  The root is the unit-disc
component, where the point at infinity also specializes (stored as the
virtual mark "inf").

A non-root leaf carrying exactly two marks directly below the root is a
*simple tail*; the whole configuration has simple reduction when every
non-root component is one.  Everything downstream (the closed-form
classifier and its blow-up cross-check) assumes that shape, so this module
is also the gatekeeper that reports offending clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .field import fmt_rat


class AllPointsCoalesce(ValueError):
    """All marked points share one residue: no two specialize apart."""


class VertexNotFound(KeyError):
    """Asked about a vertex the tree does not have."""


@dataclass
class TreeNode:
    name: str
    depth: Fraction
    marks: list = field(default_factory=list)  # mark labels, sorted
    children: list = field(default_factory=list)  # TreeNode, sorted canonically
    parent: str | None = None

    @property
    def is_leaf(self):
        return not self.children


@dataclass(frozen=True)
class Tail:
    pair: tuple  # two mark labels, sorted
    epsilon: Fraction


@dataclass(frozen=True)
class BranchClassification:
    ordinary: tuple  # labels marked on the root
    tails: tuple  # Tail entries
    simple: bool
    offenders: tuple  # human-readable descriptions of non-simple clusters


class MetricTree:
    def __init__(self, root, nodes):
        self.root = root
        self.nodes = nodes  # name -> TreeNode

    def node(self, name):
        try:
            return self.nodes[name]
        except KeyError:
            raise VertexNotFound(f"no vertex named {name!r}") from None

    def thickness(self, child_name):
        """Edge length from a non-root vertex up to its parent."""
        child = self.node(child_name)
        if child.parent is None:
            raise VertexNotFound(f"{child_name!r} is the root; no parent edge")
        return child.depth - self.node(child.parent).depth

    def to_json(self):
        out = []
        for name in sorted(self.nodes, key=_name_key):
            n = self.nodes[name]
            entry = {"name": n.name, "depth": fmt_rat(n.depth), "marks": list(n.marks)}
            if n.parent is not None:
                entry["parent"] = n.parent
                entry["thickness"] = fmt_rat(self.thickness(n.name))
            out.append(entry)
        return {"vertices": out}

def _name_key(name):
    return (len(name), name)


def _group(points, threshold):
    """Partition by the equivalence v(a-b) > threshold (ultrametric, so it is one)."""
    groups = []
    for label, x in points:
        placed = False
        for g in groups:
            if (x - g[0][1]).val() > threshold:
                g.append((label, x))
                placed = True
                break
        if not placed:
            groups.append([(label, x)])
    return groups


def build_branch_tree(points):
    """Cluster the marked points into the rooted metric tree.

    points: iterable of (label, Element), all with valuation >= 0 and
    pairwise distinct.  Requires at least two distinct residues, otherwise
    the root component would not exist as a stable marked component
    (AllPointsCoalesce).
    """
    pts = [(str(label), x) for label, x in points]
    if len(pts) < 2:
        raise AllPointsCoalesce("need at least two marked points")
    seen = set()
    for label, x in pts:
        if x and x.val() < 0:
            raise ValueError(f"marked point {label} has negative valuation")
        if x in seen:
            raise ValueError(f"marked points must be distinct ({label} repeats)")
        seen.add(x)

    root_groups = _group(pts, Fraction(0))
    if len(root_groups) < 2:
        raise AllPointsCoalesce(
            "all marked points share one residue; no two specialize apart"
        )

    nodes = {}
    root = TreeNode(name="D", depth=Fraction(0), marks=["inf"], parent=None)
    nodes[root.name] = root
    counter = [0]

    def build_cluster(group, parent):
        # group has >= 2 points; its depth is the minimal pairwise valuation
        depth = min(
            (a - b).val()
            for i, (_, a) in enumerate(group)
            for _, b in group[i + 1 :]
        )
        counter[0] += 1
        node = TreeNode(name=f"v{counter[0]}", depth=depth, parent=parent.name)
        nodes[node.name] = node
        attach(node, _group(group, depth))
        return node

    def attach(node, groups):
        subtrees = []
        for g in groups:
            if len(g) == 1:
                node.marks.append(g[0][0])
            else:
                subtrees.append(g)
        node.marks.sort()
        # deterministic construction order: by the sorted labels inside
        subtrees.sort(key=lambda g: sorted(lbl for lbl, _ in g))
        for g in subtrees:
            node.children.append(build_cluster(g, node))

    attach(root, root_groups)
    return MetricTree(root, nodes)


def classify_points(tree):
    """Ordinary points, tails with their thickness, and the simple verdict."""
    root = tree.root
    ordinary = tuple(m for m in root.marks if m != "inf")
    tails, offenders = [], []
    for name in sorted(tree.nodes, key=_name_key):
        node = tree.nodes[name]
        if node is root:
            continue
        depth_one = node.parent == root.name
        if depth_one and node.is_leaf and len(node.marks) == 2:
            tails.append(
                Tail(pair=tuple(sorted(node.marks)), epsilon=tree.thickness(name))
            )
        else:
            shape = (
                f"cluster {node.name} (marks {{{', '.join(node.marks) or '-'}}}, "
                f"{len(node.children)} sub-cluster(s), depth {fmt_rat(node.depth)})"
            )
            offenders.append(shape)
    return BranchClassification(
        ordinary=ordinary,
        tails=tuple(tails),
        simple=not offenders,
        offenders=tuple(offenders),
    )

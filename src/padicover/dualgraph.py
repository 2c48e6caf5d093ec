"""The two-sided dual graph of a semi-stable model of a cover.

One object holds both special fibers: the upstairs tree (components of the
model of the source line, each genus 0), the downstairs tree (target side),
the vertical map between them (degree and separability per component), edge
thicknesses on both sides as exact rationals, and the specializations of the
marked points — fiber points with their ramification indices upstairs,
branch values downstairs, "inf" for the point at infinity on both roots.

Structural laws every instance must satisfy (validate() checks them, and the
constructors in the classifier and the blow-up engine both run it):

  * both graphs are trees rooted at the components where "inf" specializes;
  * each downstairs edge thickness = (degree of the child's vertical map)
    x (upstairs thickness) — the scaling law of singular points;
  * over every downstairs component the vertical degrees sum to p.

Two models are compared by canonical rooted-tree encodings: a nested tuple
built bottom-up with children sorted, downstairs first, then upstairs with
each component annotated by the canonical id of its image.  Equality of
encodings is exactly label-respecting isomorphism of the pairs.

The candidate models of one classification differ only in their near-tail
leaves, so two or more of them share one dict of rendered upstairs
components (the models' `memo`): each distinct upstairs component is
rendered once per classification.  Edges, downstairs components and
partition entries are rendered afresh on every call.  Measured table by
table, in µs per model, keyed against direct, on the near-regime formula
benchmark and then on small exact covers: upstairs components 11.4 vs 13.0
and 7.0 vs 6.6, downstairs components 2.7 vs 3.9 and 2.5 vs 2.3, edges 10.0
vs 10.0 and 5.5 vs 4.4.  The upstairs table saves the most where it saves at
all; the downstairs one saves about 1 % of a near-regime formula request and
edges save nothing, so only the upstairs table is kept, and only where it is
shared.  A model without the dict (every oracle model, and a
classification's only candidate) renders its upstairs components directly,
as a dict of its own would never hit; it is told by `memo is None`, never by
truth value: the shared dict is empty until the first render.
"""

from __future__ import annotations

from operator import itemgetter


class InvalidDualGraph(ValueError):
    """A structural law failed (not a tree, scaling law broken, bad degrees)."""


def group_key(group):
    """The canonical order of the groups (d, parts1, parts2) of a partition
    pair, parts ascending: largest d first, then largest parts first."""
    d, g1, g2 = group
    return -d, tuple(-x for x in reversed(g1)), tuple(-x for x in reversed(g2))


def groups_json(groups):
    """The groups (d, parts1, parts2) of one partition pair, as JSON."""
    return [{"d": d, "fiber1": list(g1), "fiber2": list(g2)} for d, g1, g2 in groups]


_ENDS = itemgetter(0, 1)


def _edges_json(edges):
    """[a, b, "t"] per edge, sorted by (a, b)."""
    return [[a, b, str(t)] for a, b, t in sorted(edges, key=_ENDS)]


def _x_component(name, marks, vm):
    """An upstairs component as JSON: its marks and its vertical map."""
    entry = {
        "name": name,
        "marks": [[lbl, m] for lbl, m in sorted(marks)],
        "map": {"to": vm.target, "degree": vm.degree, "kind": vm.kind},
    }
    if vm.notes:
        entry["map"]["notes"] = list(vm.notes)
    return entry


def _tree_parents(side, comps, edges, root):
    """child -> (parent, thickness) on one side, once its edges make a tree
    rooted at root with every thickness positive."""
    parents = {}
    for a, b, t in edges:
        if a not in comps or b not in comps:
            raise InvalidDualGraph(f"{side}-edge {a}-{b} names unknown component")
        if b in parents:
            raise InvalidDualGraph(f"{side}-component {b} has two parents")
        if t.numerator <= 0:  # a rational's sign, with no ABC check
            raise InvalidDualGraph(f"{side}-edge {a}-{b} has thickness {t} <= 0")
        parents[b] = a, t
    if root in parents:
        raise InvalidDualGraph(f"{side}-root {root} has a parent")
    if len(edges) != len(comps) - 1:
        raise InvalidDualGraph(f"{side}-graph is not a tree")
    # every non-root component has a parent: |comps| - 1 distinct targets, no root
    reaches = {root}  # components known to reach the root
    for cur in comps:
        if cur in reaches or parents[cur][0] in reaches:
            reaches.add(cur)
            continue
        walk = set()
        while cur not in reaches:
            if cur in walk:
                raise InvalidDualGraph(f"{side}-graph has a cycle at {cur}")
            walk.add(cur)
            cur = parents[cur][0]
        reaches.update(walk)
    return parents


def _children(comps, edges):
    """name -> [(child, thickness), ...] for one side of the pair."""
    ch = {name: [] for name in comps}
    for a, b, t in edges:
        ch[a].append((b, t))
    return ch


def _y_enc(name, children, marks, order):
    """The downstairs subtree at `name`; its children, in key order, go to `order`."""
    kids = sorted(
        ((t.numerator, t.denominator), _y_enc(b, children, marks, order), b)
        for b, t in children[name]
    )
    order[name] = [b for _, _, b in kids]
    return tuple(sorted(marks[name])), tuple(kid[:2] for kid in kids)


def _x_enc(name, children, marks, vertical, y_ids):
    """The upstairs subtree at `name`, each component with its image's y-id."""
    vm = vertical[name]
    kids = sorted(
        ((t.numerator, t.denominator), _x_enc(b, children, marks, vertical, y_ids))
        for b, t in children[name]
    )
    return tuple(sorted(marks[name])), (y_ids[vm.target], vm.degree, vm.kind), tuple(kids)


class VerticalMap:
    __slots__ = ("target", "degree", "kind", "notes")

    def __init__(self, target, degree, kind, notes=()):
        self.target = target  # downstairs component name
        self.degree = degree  # int
        self.kind = kind  # "inseparable" | "etale"
        self.notes = notes  # informational (e.g. wild/tame points); never compared


class DualGraphPair:
    __slots__ = ("p", "x_root", "y_root", "x_marks", "y_marks", "x_edges", "y_edges",
                 "vertical", "partitions", "memo")

    def __init__(self, p, x_root, y_root, x_marks, y_marks, x_edges, y_edges, vertical,
                 partitions=(), memo=None):
        self.p = p
        self.x_root = x_root
        self.y_root = y_root
        self.x_marks = x_marks  # name -> tuple of (label, multiplicity), upstairs
        self.y_marks = y_marks  # name -> tuple of labels, downstairs
        self.x_edges = x_edges  # (parent, child, Fraction thickness), directed away from root
        self.y_edges = y_edges
        self.vertical = vertical  # x name -> VerticalMap
        self.partitions = partitions  # ((pair_labels, groups), ...) canonical nested tuples
        self.memo = memo  # dict of rendered upstairs components, or None

    # -- structure ------------------------------------------------------

    def validate(self):
        """Check every structural law, in a fixed order, and return self.

        Every law runs on every call, with nothing remembered between calls:
        a check here reads a few ints, and a memo key for it (a Fraction's
        hash, or the same ints in a tuple) costs as much as the check.
        """
        x_marks, y_marks, vertical = self.x_marks, self.y_marks, self.vertical
        if self.x_root not in x_marks or self.y_root not in y_marks:
            raise InvalidDualGraph("root missing from component list")
        _tree_parents("x", x_marks, self.x_edges, self.x_root)
        y_parents = _tree_parents("y", y_marks, self.y_edges, self.y_root)
        for name in x_marks:
            vm = vertical.get(name)
            if vm is None:
                raise InvalidDualGraph(f"component {name} has no vertical map")
            if vm.target not in y_marks:
                raise InvalidDualGraph(f"{name} maps to unknown {vm.target}")
            if vm.kind not in ("inseparable", "etale"):
                raise InvalidDualGraph(f"{name} has unknown kind {vm.kind!r}")
        # roots map to roots
        if vertical[self.x_root].target != self.y_root:
            raise InvalidDualGraph("x-root does not map to y-root")
        # degree conservation over each downstairs component
        degsum = dict.fromkeys(y_marks, 0)
        for vm in vertical.values():
            degsum[vm.target] += vm.degree
        for name, total in degsum.items():
            if total != self.p:
                raise InvalidDualGraph(
                    f"degrees over {name} sum to {total}, expected p = {self.p}"
                )
        # thickness scaling law along vertical edge images
        for a, b, t_up in self.x_edges:
            ya, vm = vertical[a].target, vertical[b]
            yb = vm.target
            if ya == yb:
                raise InvalidDualGraph(
                    f"x-edge {a}-{b} maps to a single downstairs component {ya}"
                )
            parent, t_down = y_parents.get(yb, (None, None))
            if parent != ya:
                raise InvalidDualGraph(
                    f"image of x-edge {a}-{b} is not a downstairs edge {ya}-{yb}"
                )
            # t_down == e_p * t_up, cross-multiplied to build no Fraction
            e_p = vm.degree
            if t_down.numerator * t_up.denominator != e_p * t_up.numerator * t_down.denominator:
                raise InvalidDualGraph(
                    f"scaling law broken on {a}-{b}: down {t_down} != {e_p} * {t_up}"
                )
        return self

    # -- canonical comparison -------------------------------------------

    def canonical_key(self):
        """Each subtree encoded once, thicknesses as (numerator, denominator)
        pairs.  Models are not mutated after construction, but a verify keys
        each once, so module-level encoders build the key anew on every call."""
        y_order = {}  # name -> children in the order of their encodings
        y_form = _y_enc(self.y_root, _children(self.y_marks, self.y_edges), self.y_marks, y_order)
        # canonical ids in the order of a DFS that visits children by their
        # encodings (identical subtrees are interchangeable, so the ids are
        # well-defined up to swapping equal encodings)
        y_ids, stack = {}, [self.y_root]
        while stack:
            name = stack.pop()
            y_ids[name] = len(y_ids)
            stack.extend(reversed(y_order[name]))
        x_children = _children(self.x_marks, self.x_edges)
        x_form = _x_enc(self.x_root, x_children, self.x_marks, self.vertical, y_ids)
        return (y_form, x_form, self.partitions)

    def is_isomorphic_to(self, other):
        """Equal canonical keys.  The partitions, the key's last entry, are
        compared first: the candidates of one classification have pairwise
        different partitions, so a verify builds the key of at most one."""
        if self.partitions != other.partitions:
            return False
        return self.canonical_key() == other.canonical_key()

    # -- serialization ----------------------------------------------------

    def to_json(self):
        """The model as a JSON document, components and edges sorted by name.
        With a `memo`, each upstairs component is keyed by the values it is
        rendered from, never by identity, so the documents of one
        classification's models may share upstairs entries: copy a document
        before changing it.  Without one, and for edges and downstairs
        components always, everything is rendered afresh on every call."""
        x_comps, x_marks, vertical, rendered = [], self.x_marks, self.vertical, self.memo
        for name in sorted(x_marks):
            marks, vm = x_marks[name], vertical[name]
            if rendered is None:
                x_comps.append(_x_component(name, marks, vm))
                continue
            key = name, marks, vm.target, vm.degree, vm.kind, vm.notes
            entry = rendered.get(key)
            if entry is None:
                entry = rendered[key] = _x_component(name, marks, vm)
            x_comps.append(entry)
        y_marks = self.y_marks
        return {
            "p": self.p,
            "x": {
                "root": self.x_root,
                "components": x_comps,
                "edges": _edges_json(self.x_edges),
            },
            "y": {
                "root": self.y_root,
                "components": [
                    {"name": name, "marks": sorted(y_marks[name])} for name in sorted(y_marks)
                ],
                "edges": _edges_json(self.y_edges),
            },
            "partitions": [
                {"pair": list(pair), "groups": groups_json(groups)}
                for pair, groups in self.partitions
            ],
        }

    def to_dot(self):
        """The to_json document drawn: both trees, then the vertical maps."""
        doc = self.to_json()
        lines = ["digraph dual_graph_pair {", "  rankdir=TB;", "  node [shape=box];"]
        for side, spell in (("x", _dot_x_mark), ("y", str)):
            lines.append(f'  subgraph cluster_{side} {{ label="{side.upper()}_k"; style=rounded;')
            for comp in doc[side]["components"]:
                name, marks = _dot(comp["name"]), ",".join(map(spell, comp["marks"]))
                label = name if not marks else f"{name}\\n[{_dot(marks)}]"
                lines.append(f'    "{side}_{name}" [label="{label}"];')
            for a, b, t in doc[side]["edges"]:
                edge = f'"{side}_{_dot(a)}" -> "{side}_{_dot(b)}"'
                lines.append(f'    {edge} [label="{t}", dir=none];')
            lines.append("  }")
        for comp in doc["x"]["components"]:
            vm = comp["map"]
            kind = "insep" if vm["kind"] == "inseparable" else "et"
            lines.append(
                f'  "x_{_dot(comp["name"])}" -> "y_{_dot(vm["to"])}" '
                f'[style=dashed, label="{vm["degree"]} {kind}"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_x_mark(mark):
    label, m = mark
    return f"{label}^{m}" if m > 1 else label


def _dot(text):
    """text inside a DOT quoted string: backslashes and quotes escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')

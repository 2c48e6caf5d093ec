"""Independent verification of reduction types by explicit fiberwise blow-ups.

Nothing here knows about thresholds, excesses, or partition combinatorics.
The engine carries one polynomial per ramified fiber — beta minus the branch
value, rewritten in the coordinate of the current disc and stripped to
primitive form — and repeatedly blows up wherever two or more fiber points
still share a residue.  Each blow-up radius is read off a Newton polygon, so
every thickness in the resulting model is an exact rational number, and the
downstairs (target) tree is reconstructed from the images of the discs that
survive contraction.  Agreement with the discrete classifier is then a
genuine two-route check: same dual graphs, computed from different inputs by
different mathematics.

Tracks are ``kpoly.Poly`` values, integer rows over one denominator, so the
translation to a residue's integer lift is an integer Taylor shift of each
row, and the rescaling by p**nu moves entries between rows.  Each blow-up
reads every translated fiber polynomial once: its count of roots in the open
disc and its least positive root valuation come from one pass over the
coefficient valuations (``newton.positive_roots``), with no convex hull.
Each residue is lifted once, and each residual polynomial is stripped of its
rational roots by synthetic division.  Branch values, their labels and the
critical points over them are read from ``cover.branch_data``, never
recomputed here.  A disc maps onto its image, so the image holds exactly the
branch values whose tracks the disc carries: an image disc is named by its
radius and those labels, and the downstairs tree needs no valuation test.

Conventions.  A "track" is a pair (label, branch value); its carried
polynomial V always has content 0, so its reduction is a nonzero polynomial
over F_p whose degree equals the number of fiber points (with multiplicity)
in the current closed disc.  A track also carries the critical points of its
fiber that lie in the disc, in the disc's coordinate: a fiber point of
multiplicity m >= 2 is exactly such a critical point of index m, so the
distinct points in a disc are the Newton root count less the sum of (m - 1)
over the critical points inside it, and no gcd over the field is needed.
Radii are arbitrary rationals (the field layer has no fixed e), so one pass
separates everything.  Every blow-up is centered at an F_p-rational
residue; a residual root outside F_p that is repeated, or shared by two
fibers, is reported as an error rather than silently mishandled
(ResidualRootOutsideFp).  Rational critical points do not rule this out:
among the 450 seeded random covers of the differential test, all with
rational critical points, 29 are refused this way, every one for a shared
root; a repeated one has not been observed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import fppoly, kpoly, newton
from .cover import branch_data
from .dualgraph import DualGraphPair, VerticalMap
from .field import fmt_rat


class OracleError(Exception):
    """Base class for everything the blow-up engine can complain about."""


class NotIntegralCover(OracleError):
    """The cover has no integral model of the required shape.

    Carries the witness string: the offending coefficient or the reduction.
    """

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"cover is not integral with p-th-power reduction: {witness}")


class CenterNotRoot(OracleError):
    """Asked to blow up at a residue that is not a residual root."""


class ResidualRootOutsideFp(OracleError):
    """A repeated or shared residual root is not F_p-rational.

    The engine only lifts rational centers; a multiple root of a residual
    polynomial outside the prime field, or one shared by two fibers, would
    require an unramified extension of the base to continue, so the run
    stops loudly instead.  Covers with rational critical points reach this
    too: the shared kind refuses 29 of the 450 seeded random covers in the
    differential test; the repeated kind has not been seen.
    """


class NonTermination(OracleError):
    """Blow-up count exceeded MAX_BLOWUPS (a safety valve, not math)."""


MAX_BLOWUPS = 2048


# ---------------------------------------------------------------------------
# state


class _Node:
    """One upstairs disc: its carried fiber polynomials and bookkeeping."""

    __slots__ = (
        "name",
        "parent",
        "thickness",
        "tracks",
        "points",
        "m",
        "down_radius",
        "marks",
        "children",
        "kind",
    )

    def __init__(self, name, parent, thickness, tracks, points, m, down_radius):
        self.name = name
        self.parent = parent
        self.thickness = thickness  # Fraction; None on the root
        self.tracks = tracks  # label -> primitive kpoly.Poly
        self.points = points  # label -> ((x, m), ...) critical points in the disc
        self.m = m  # local degree of the cover on this disc
        self.down_radius = down_radius  # Fraction, radius of the image disc
        self.marks = []
        self.children = []
        self.kind = None  # "inseparable" | "etale", set while processing


@dataclass(frozen=True)
class Stage:
    """Trace record of one blow-up (raw history, before contraction)."""

    node: str  # child disc created
    parent: str
    residue: int
    nu: Fraction  # radius increment upstairs
    m: int  # local degree carried into the child
    k: int  # distinct fiber points inside the child disc
    participants: tuple  # track labels with points in the child
    residuals: dict  # label -> residual polynomial at the parent (string)

    def to_json(self):
        return {
            "node": self.node,
            "parent": self.parent,
            "residue": self.residue,
            "lift": str(self.residue),
            "nu": fmt_rat(self.nu),
            "m": self.m,
            "k": self.k,
            "participants": list(self.participants),
            "residuals": dict(self.residuals),
        }


class ModelState:
    """A partially or fully separated model: disc tree plus trace."""

    def __init__(self, ctx, labels):
        self.ctx = ctx
        self.labels = tuple(labels)  # one per ramified fiber, as given
        self.nodes = {}
        self.stages = []


@dataclass(frozen=True)
class OracleResult:
    """Everything a verification run produces."""

    model: DualGraphPair
    stages: tuple  # one Stage per blow-up
    e: int  # lcm of the cover's e and the denominators of the stage radii
    labels: tuple

    def trace_json(self):
        return [s.to_json() for s in self.stages]


# ---------------------------------------------------------------------------
# construction of the naive model


def fundamental_model(cover):
    """Set up the naive integral model and one track per ramified fiber.

    beta comes from ``cover.from_critical_divisor``, so it is monic of degree
    p with beta(0) = 0, and it is integral with reduction X**p exactly when
    every non-leading coefficient has positive valuation: one scan over the
    coefficients decides it.  Raises NotIntegralCover otherwise, witnessed by
    the first coefficient of negative valuation or else by the reduction.
    The chart at infinity then needs no test (X**p * beta(1/X) reduces to 1),
    which is why only finite fibers need work, and each track beta - lambda
    of an integral branch value lambda already has content 0.
    """
    ctx = cover.ctx
    unit = False
    for i, w in enumerate(kpoly.scaled_valuations(cover.beta)[:-1]):
        if w is not None and w <= 0:
            if w < 0:
                v = Fraction(w, cover.beta.n)
                raise NotIntegralCover(f"coefficient {i} has valuation {v} < 0")
            unit = True
    if unit:
        red = fppoly.fmt(kpoly.reduction(cover.beta, ctx))
        raise NotIntegralCover(f"reduction is {red}, not X^{ctx.p}")
    # no reversed-chart test: every b_i with i < p has v > 0, so X**p * beta(1/X) reduces to 1
    branch = branch_data(cover)
    state = ModelState(ctx, [bp.label for bp in branch])
    carried, points = {}, {}
    for bp in branch:
        if bp.value and bp.value.val() < 0:
            raise NotIntegralCover(f"branch value {bp.label} is not integral")
        # no primitive part: beta is monic and integral and lambda integral, so content 0
        carried[bp.label] = kpoly.sub(cover.beta, kpoly.from_elements(ctx, [bp.value]))
        points[bp.label] = bp.points
    root = _Node("C", None, None, carried, points, ctx.p, Fraction(0))
    root.marks.append(("inf", ctx.p))
    state.nodes["C"] = root
    return state


# ---------------------------------------------------------------------------
# one blow-up


def _repeated(points, lift):
    """Sum of (m - 1) over the critical points in the open disc at lift."""
    return sum(m - 1 for x, m in points if not (d := x - lift) or d.val() > 0)


def blow_up(ctx, tracks, points, lift, mults):
    """Blow up the unit disc at an F_p-rational residue, rescaling every track.

    ``tracks`` maps labels to primitive polynomials on the current disc and
    ``points`` to their critical points.  ``lift`` is the residue's integer
    lift in 0..p-1, as a field element.  ``mults`` maps each label whose
    reduction has the residue as a root to that root's multiplicity, as the
    residual table reads it; an empty ``mults`` raises CenterNotRoot.  Each
    translated track is read once, in one pass over its coefficient
    valuations: its root count in the open disc must equal the residual
    multiplicity, and the increment nu is the least positive root valuation
    over all of them, the radius at which something first separates.  Only
    the tracks in ``mults`` are carried into the child, with the critical
    points inside it.  Returns the child's (tracks, points, nu, m).
    """
    if not mults:
        raise CenterNotRoot(f"residue {lift!r} is not a root of any carried fiber")
    shifted = {}
    nu = None
    for label in sorted(mults):
        g = kpoly.translate(tracks[label], lift)
        shifted[label] = g
        total, v = newton.positive_roots(g)
        if total != mults[label]:
            raise OracleError(
                f"fiber {label} at residue {lift!r}: {total} roots in the disc by the "
                f"Newton polygon, {mults[label]} by the residual multiplicity"
            )
        if v is not None and (nu is None or v < nu):
            nu = v
    m_values = sorted(set(mults.values()))
    if len(m_values) != 1:
        raise OracleError(
            f"local degree mismatch at residue {lift!r}: {dict(sorted(mults.items()))}"
        )
    m = m_values[0]
    if nu is None:
        raise CenterNotRoot(
            f"all fiber points at residue {lift!r} coincide; nothing separates"
        )
    scale, unscale = ctx.uniformizer_power(nu), ctx.uniformizer_power(-nu)
    carried, inside = {}, {}
    for label in sorted(mults):
        prim, content = kpoly.primitive(kpoly.scale_arg(shifted[label], scale), ctx)
        if content != m * nu:
            raise OracleError(
                f"fiber {label} at residue {lift!r}: image radius increment {content}, "
                f"not m * nu = {m * nu}"
            )
        carried[label] = prim
        inside[label] = tuple(
            (d * unscale, mx)
            for x, mx in points[label]
            if not (d := x - lift) or d.val() >= nu
        )
    return carried, inside, nu, m


# ---------------------------------------------------------------------------
# the separation loop


def _residual_table(node, reductions, p):
    """Residual roots per track, with irrational residues handled honestly.

    ``reductions`` maps each track of the node to its reduction, in label
    order.  Returns (table, extra_marks) where table maps a rational residue
    to {label: multiplicity} and extra_marks lists simple marks at residues
    outside F_p.  A repeated irrational root, or one shared between two
    tracks, raises ResidualRootOutsideFp.
    """
    table = {}
    cofactors = {}
    extra_marks = []
    for label, hbar in reductions.items():
        if fppoly.degree(hbar) != node.m:
            raise OracleError(
                f"residual degree {fppoly.degree(hbar)} on {node.name} "
                f"differs from local degree {node.m}"
            )
        roots, cofactor = fppoly.rational_roots(hbar, p)
        for wbar, mult in roots.items():
            table.setdefault(wbar, {})[label] = mult
        if fppoly.degree(cofactor) > 0:
            if not fppoly.is_squarefree(cofactor, p):
                raise ResidualRootOutsideFp(
                    f"repeated residual root outside F_{p} on {node.name} "
                    f"(fiber {label}: cofactor {fppoly.fmt(cofactor)})"
                )
            cofactors[label] = cofactor
            extra_marks.extend([(label, 1)] * fppoly.degree(cofactor))
    labels = sorted(cofactors)
    for i, la in enumerate(labels):
        for lb in labels[i + 1 :]:
            if fppoly.degree(fppoly.gcd(cofactors[la], cofactors[lb], p)) > 0:
                raise ResidualRootOutsideFp(
                    f"fibers {la} and {lb} share a residual root outside F_{p} "
                    f"on {node.name}"
                )
    return table, extra_marks


def _set_kind(node, reductions, p):
    verdicts = {not fppoly.deriv(hbar, p) for hbar in reductions.values()}
    if len(verdicts) != 1:
        raise OracleError(f"inconsistent separability verdicts on {node.name}")
    node.kind = "inseparable" if verdicts.pop() else "etale"


def separate_fibers(cover):
    """Blow up until every fiber point sits alone, and return the full state.

    Each track is reduced once per node: the node's kind, its residual table
    and the stage records all read that one reduction.  The count k of
    distinct fiber points at a residue decides between a mark (k = 1) and a
    blow-up, and is the stage's k.  Each residue is lifted once, for the
    count and the blow-up.  Raises NonTermination after MAX_BLOWUPS blow-ups.
    """
    state = fundamental_model(cover)
    ctx = state.ctx
    stack = ["C"]
    while stack:
        node = state.nodes[stack.pop()]
        reductions = {
            label: kpoly.reduction(node.tracks[label], ctx)
            for label in sorted(node.tracks)
        }
        _set_kind(node, reductions, ctx.p)
        table, extra_marks = _residual_table(node, reductions, ctx.p)
        node.marks.extend(extra_marks)
        for wbar in sorted(table):
            parts = table[wbar]
            # a residual root of multiplicity t is t fiber points in the disc
            lift = ctx.from_rational(wbar)
            k = sum(
                t - _repeated(node.points[label], lift) for label, t in parts.items()
            )
            if k == 1:
                (label,) = parts
                node.marks.append((label, parts[label]))
                continue
            tracks, points, nu, m = blow_up(ctx, node.tracks, node.points, lift, parts)
            if len(state.stages) >= MAX_BLOWUPS:
                raise NonTermination(
                    f"exceeded {MAX_BLOWUPS} blow-ups; the model is not separating"
                )
            child_name = f"{node.name}.{wbar}"
            child = _Node(
                child_name, node.name, nu, tracks, points, m, node.down_radius + m * nu
            )
            state.nodes[child_name] = child
            node.children.append(child_name)
            participants = tuple(sorted(parts))
            state.stages.append(
                Stage(
                    node=child_name,
                    parent=node.name,
                    residue=wbar,
                    nu=nu,
                    m=m,
                    k=k,
                    participants=participants,
                    residuals={la: fppoly.fmt(reductions[la]) for la in participants},
                )
            )
            stack.append(child_name)
    return state


# ---------------------------------------------------------------------------
# assembling the dual graph pair


def _contract(state):
    """Remove unstable intermediate discs (no marks, a single child)."""
    names = list(state.nodes)
    for name in reversed(names):
        node = state.nodes.get(name)
        if node is None or node.parent is None:
            continue
        if node.marks or len(node.children) != 1:
            continue
        child = state.nodes[node.children[0]]
        if child.m != node.m:
            raise OracleError(
                f"local degree {node.m} on {name} but {child.m} on its only child"
            )
        child.thickness = child.thickness + node.thickness
        child.parent = node.parent
        parent = state.nodes[node.parent]
        parent.children[parent.children.index(name)] = child.name
        del state.nodes[name]


def _image_discs(state):
    """The downstairs tree: the distinct images of the surviving discs.

    A disc maps onto its image, so the image holds exactly the branch values
    whose tracks the disc carries; (radius, labels) names it.  Returns the
    disc names by key, in order of first appearance, and each node's disc.
    """
    discs, target = {}, {}
    for name, node in state.nodes.items():
        key = (node.down_radius, tuple(sorted(node.tracks)))
        if key not in discs:
            radius, labels = key
            if radius == 0:
                discs[key] = "D"
            else:
                discs[key] = f"D({'+'.join(labels)}@{fmt_rat(radius)})"
        target[name] = discs[key]
    if len(set(discs.values())) != len(discs):
        raise OracleError("image discs do not have distinct names")
    return discs, target


def _extract_partitions(state, target, y_marks):
    """Read realized splitting data off the graph, in canonical form.

    Wherever two branch values share their deepest disc and that disc has
    several upstairs components over it, each component contributes a group:
    its local degree together with the mark multiplicities from both fibers.
    """
    from .classifier import PartitionPair

    by_disc = {}
    for name, node in state.nodes.items():
        by_disc.setdefault(target[name], []).append(node)
    out = []
    for disc_name in sorted(by_disc):
        labels = tuple(sorted(set(y_marks.get(disc_name, ())) - {"inf"}))
        if len(labels) != 2:
            continue
        over = by_disc[disc_name]
        if len(over) < 2:
            continue
        la, lb = labels
        groups = []
        for node in sorted(over, key=lambda n: n.name):
            g1 = tuple(sorted(m for label, m in node.marks if label == la))
            g2 = tuple(sorted(m for label, m in node.marks if label == lb))
            stray = [label for label, _ in node.marks if label not in (la, lb)]
            if stray:
                raise OracleError(
                    f"component over {disc_name} carries marks {stray} "
                    f"from outside the colliding pair"
                )
            groups.append((node.m, g1, g2))
        pair = PartitionPair.from_groups(state.ctx.p, groups)
        out.append(((la, lb), pair.groups))
    return tuple(sorted(out))


def assemble_model(state):
    """Contract the raw blow-up tree and build the dual graph pair."""
    _contract(state)
    discs, target = _image_discs(state)
    x_marks = {}
    x_edges = []
    vertical = {}
    for name, node in state.nodes.items():
        x_marks[name] = tuple(sorted(node.marks))
        vertical[name] = VerticalMap(target[name], node.m, node.kind)
        if node.parent is not None:
            x_edges.append((node.parent, name, node.thickness))
    y_marks = {disc: [] for disc in discs.values()}
    y_marks["D"].append("inf")
    for label in sorted(state.labels):
        deepest = max((k for k in discs if label in k[1]), key=lambda k: k[0])
        y_marks[discs[deepest]].append(label)
    y_marks = {name: tuple(sorted(marks)) for name, marks in y_marks.items()}
    y_edges = []
    for key in sorted(discs, key=lambda k: (k[0], discs[k])):
        # the parent: the disc of largest smaller radius holding these labels
        radius, labels = key
        outer = [k for k in discs if k[0] < radius and set(labels) <= set(k[1])]
        if outer:
            parent = max(outer, key=lambda k: k[0])
            y_edges.append((discs[parent], discs[key], radius - parent[0]))
    partitions = _extract_partitions(state, target, y_marks)
    model = DualGraphPair(
        p=state.ctx.p,
        x_root="C",
        y_root="D",
        x_marks=x_marks,
        y_marks=y_marks,
        x_edges=x_edges,
        y_edges=y_edges,
        vertical=vertical,
        partitions=partitions,
    )
    model.validate()
    return model


# ---------------------------------------------------------------------------
# the whole run


def run_oracle(cover):
    """Separate all fibers in one pass and assemble the model.

    Labels are fixed from the cover as given, so they stay comparable with
    the classifier's.  The reported e is the least ramification index over
    which the cover and every blow-up radius are defined.
    """
    state = separate_fibers(cover)
    model = assemble_model(state)
    return OracleResult(
        model=model,
        stages=tuple(state.stages),
        e=lcm(cover.ctx.e, *(stage.nu.denominator for stage in state.stages)),
        labels=state.labels,
    )

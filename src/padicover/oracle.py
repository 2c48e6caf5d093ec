"""Independent verification of reduction types by explicit fiberwise blow-ups.

Nothing here knows about thresholds, excesses, or partition combinatorics,
and nothing is imported from the classifier; the canonical order of partition
groups comes from ``dualgraph``.
The engine carries one polynomial per ramified fiber — beta minus the branch
value, rewritten in the coordinate of the current disc and stripped to
primitive form — and repeatedly blows up wherever two or more fiber points
still share a residue.  Each blow-up radius is read off a Newton polygon, so
every thickness in the resulting model is an exact rational number, and the
downstairs (target) tree is reconstructed from the images of the discs that
survive contraction.  Agreement with the discrete classifier is then a
genuine two-route check: same dual graphs, computed from different inputs by
different mathematics.

A disc's fiber polynomials differ only in their constant terms, so a disc
holds one ``kpoly.Poly`` and each fiber a constant (Conventions).  A blow-up
translates it once, an integer Taylor shift of each row, and reads its
coefficient valuations once for every fiber's Newton polygon
(``newton.positive_roots``, no convex hull).  Its valuations stay ints over
one denominator N, so nu = rise / N: the unit powers p**-nu and
p**(-m * nu), the rescaling and the image radius are all built from those
ints, and the one ``Fraction`` of a blow-up is nu itself, the stage's
thickness.  The child's reduction is read off the same ints: coefficient i
of its core is a unit exactly when the translated coefficient's valuation
plus i * nu is m * nu, and its residue is then the translated coefficient's
unit residue (``kpoly.unit_residue``).  The child keeps the translated
core and the reading as its chart, and its own core, the one-pass rescaling
``kpoly.rescale`` of the chart, is built only when the child is blown up in
turn; most child discs are leaves and never need it.  An image radius is a
pair (num, den) in lowest terms, and the downstairs tree orders its discs
by exact ints, the numerators over the lcm of the denominators.  A residual
polynomial, one per distinct offset residue, has its F_p roots found in one
of two ways.  On an inseparable disc its one root is read off directly (see
Conventions).  On an etale disc it is evaluated at successive residues by
Horner's rule and divided by synthetic division only at a root, until its
cofactor is constant (``fppoly.rational_roots``).  Branch values and labels
come from ``cover.branch_data``, critical points from ``cover.critical``.  A
disc maps onto its image, so the image holds exactly the branch values whose
tracks the disc carries: an image disc is named by its radius and those
labels, and the downstairs tree needs no valuation test.

Conventions.  A "track" is a pair (label, branch value).  A disc holds a
core B, beta in the disc's chart less its constant term, and each track an
offset kappa; the track's polynomial is V = B + kappa (at the root B = beta,
kappa = -lambda).  A blow-up divides every fiber by the same p**(m * nu),
as the content check enforces, so the translated core's new constant moves
into the offsets.  V has content 0, so its reduction is a nonzero
polynomial over F_p whose degree is the number of fiber points (with
multiplicity) in the closed disc.  As reductions differ by constants, the
core's derivative alone decides separability, and fibers whose offsets
differ mod the maximal ideal share no residual root: gcd(B + a, B + b)
divides a - b.  A disc keeps the critical points inside it, in its
coordinate, by residue alone: a fiber point of multiplicity m >= 2 is
exactly a critical point of index m, so the distinct points at a residue
are the Newton root count less the sum of (m - 1) over the points there.
A point x at residue w lies on its fiber lambda = beta(x), V_lambda(x) = 0,
so lambda's residual polynomial has the root w: lambda is in the residual
table at w, and in ``mults`` when the disc is blown up there.  So a sum
over the points at w is one over fibers in the table at w, a child gets
only points of fibers it carries, and each point is inside the child:
x - lift is 0 or a root of positive valuation of V_lambda translated, so
v(x - lift) >= nu, the least such valuation over the fibers in ``mults``.
An inseparable disc (the core's reduction has derivative 0) has core
reduction c * X**p, since the local degree is at most p, so a fiber of
offset residue a reduces to c * (X + a / c)**p: its one root is -a / c, of
multiplicity p.  Radii are arbitrary rationals (the field layer has no
fixed e), so one pass separates everything.  Every blow-up is centered at an
F_p-rational residue; a residual root outside F_p shared by two fibers is
reported as an error (ResidualRootOutsideFp), and a repeated one cannot
occur.

Gauss's lemma.  The derivative of beta is a constant times the product of
(X - x)**(m - 1) over the critical points, all K-rational, and in a disc's
chart so is the core's.  On an etale disc the core's derivative reduces to
a nonzero polynomial, and by Gauss's lemma (the reduction of a product of
primitive polynomials is the product of their reductions) it is c times the
product of (X - xbar)**(m - 1) over the critical points inside the disc:
the factor of a point outside the closed disc reduces to a constant.  So
the degree of the reduced derivative is the sum of (m - 1) over the
critical points the disc carries, and ``_residual_table`` checks this on
every etale disc, raising OracleError where it fails.  A repeated root of a
residual polynomial is a root of its derivative, the core's, so it is the
residue of a critical point, in F_p, and the rootless cofactor of a
residual polynomial is squarefree without a gcd.  A shared root is not ruled
out: among the 450 seeded random covers of the differential test, all with
rational critical points, 29 are refused, every one for a shared root.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import fppoly, kpoly, newton
from .cover import branch_data
from .dualgraph import DualGraphPair, VerticalMap, group_key


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
    """Two fibers share a residual root outside F_p.

    The engine only lifts rational centers; a root outside the prime field
    shared by two fibers would require an unramified extension of the base
    to continue, so the run stops loudly instead.  Residual polynomials of
    one disc differ by constants, so two fibers share such a root exactly
    when their offsets agree mod the maximal ideal (gcd(B + a, B + b)
    divides a - b).  A repeated root outside F_p cannot occur (Gauss's
    lemma, in the module docstring).
    """


class NonTermination(OracleError):
    """Blow-up count exceeded MAX_BLOWUPS (a safety valve, not math)."""


MAX_BLOWUPS = 2048


# ---------------------------------------------------------------------------
# state


class _Node:
    """One upstairs disc: its chart, its core's reduction, its fibers'
    offsets, and bookkeeping.

    ``chart`` is (g, rise, mrise, N), the parent's core translated to the
    center and the blow-up's Newton reading; the disc's core is
    ``kpoly.rescale(*chart)``, which ``separate_fibers`` builds only to blow
    the disc up.  The root has no chart: its core is beta.
    """

    __slots__ = (
        "name",
        "parent",
        "thickness",
        "chart",
        "reduction",
        "tracks",
        "points",
        "m",
        "down_radius",
        "marks",
        "children",
        "kind",
    )

    def __init__(self, name, parent, thickness, chart, reduction, tracks, points, m, down_radius):
        self.name = name
        self.parent = parent
        self.thickness = thickness  # Fraction; None on the root
        self.chart = chart  # (g, rise, mrise, N); None on the root
        self.reduction = reduction  # F_p list, of the core: beta in the chart less its constant
        self.tracks = tracks  # label -> offset: the fiber's polynomial is core + offset
        self.points = points  # residue -> [(x, m), ...] critical points
        self.m = m  # local degree of the cover on this disc
        self.down_radius = down_radius  # (num, den) in lowest terms, radius of the image disc
        self.marks = []
        self.children = []
        self.kind = None  # "inseparable" | "etale", set by _residual_table


class Stage:
    """Trace record of one blow-up (raw history, before contraction).  The
    residual reductions stay F_p lists; only to_json, which a trace asks
    for, spells them out."""

    __slots__ = ("node", "parent", "residue", "nu", "m", "k", "participants", "residuals")

    def __init__(self, node, parent, residue, nu, m, k, participants, residuals):
        self.node = node  # child disc created
        self.parent = parent
        self.residue = residue  # int
        self.nu = nu  # Fraction, radius increment upstairs
        self.m = m  # local degree carried into the child
        self.k = k  # distinct fiber points inside the child disc
        self.participants = participants  # track labels with points in the child
        self.residuals = residuals  # label -> residual polynomial at the parent, F_p list

    def to_json(self):
        return {
            "node": self.node,
            "parent": self.parent,
            "residue": self.residue,
            "lift": str(self.residue),
            "nu": str(self.nu),
            "m": self.m,
            "k": self.k,
            "participants": list(self.participants),
            "residuals": {label: fppoly.fmt(f) for label, f in self.residuals.items()},
        }


class ModelState:
    """A partially or fully separated model: disc tree plus trace."""

    def __init__(self, ctx, labels):
        self.ctx = ctx
        self.labels = tuple(labels)  # one per ramified fiber, as given
        self.nodes = {}
        self.stages = []


class OracleResult:
    """Everything a verification run produces."""

    __slots__ = ("model", "stages", "e", "labels")

    def __init__(self, model, stages, e, labels):
        self.model = model  # DualGraphPair
        self.stages = stages  # one Stage per blow-up
        self.e = e  # lcm of the cover's e and the denominators of the stage radii
        self.labels = labels

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
    (core beta, offset -lambda) of an integral lambda has content 0.  The
    scan has proved that beta reduces to X**p, the root's reduction.
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
        red = fppoly.fmt(kpoly.reduction(cover.beta))
        raise NotIntegralCover(f"reduction is {red}, not X^{ctx.p}")
    # no reversed-chart test: every b_i with i < p has v > 0, so X**p * beta(1/X) reduces to 1
    branch = branch_data(cover)
    state = ModelState(ctx, [bp.label for bp in branch])
    offsets = {}
    for bp in branch:
        if not bp.value.is_integral():
            raise NotIntegralCover(f"branch value {bp.label} is not integral")
        offsets[bp.label] = -bp.value
    points = _by_residue(cover.critical.points)
    root = _Node("C", None, None, None, [0] * ctx.p + [1], offsets, points, ctx.p, (0, 1))
    root.marks.append(("inf", ctx.p))
    state.nodes["C"] = root
    return state


# ---------------------------------------------------------------------------
# one blow-up


def _by_residue(points):
    """Critical points (x, m) as residue -> [(x, m), ...] (Conventions).

    Every point is integral, so none is dropped.  At the root, admission has
    shown that every non-leading coefficient of beta has v > 0, so for
    v(x) < 0 the leading term wins: v(beta(x)) = p * v(x) < 0, and
    ``fundamental_model`` refuses that branch value as not integral before
    this runs.  In ``blow_up`` every point at the center's residue has
    v(d) >= nu (Conventions), so d * p**(-nu) is integral.  Were either
    argument to break, ``residue`` would raise NegativeValuation rather than
    lose the point.
    """
    out = {}
    for x, m in points:
        out.setdefault(x.residue(), []).append((x, m))
    return out


def blow_up(ctx, node, core, wbar, mults):
    """Blow up the node's unit disc at an F_p-rational residue; return the child.

    ``mults`` maps each label whose reduction has the residue wbar as a root
    to its multiplicity; none raises CenterNotRoot.  The node's core,
    ``core``, is translated once and its new constant moves into the
    offsets.  A fiber's Newton reading is the core's valuation list with
    its offset's at index 0: its count in the open disc must be the
    multiplicity, and nu is the least positive root valuation over all
    fibers.  Each fiber's content in the child's chart, the least of the
    core's and its offset's, must be m * nu; the offsets are divided by
    p**(m * nu).  The child carries the fibers in ``mults``, the critical
    points at wbar, all inside it (Conventions), and its core's reduction,
    read coefficient by coefficient from the same valuations, and its chart:
    the translated core g with the reading.
    """
    if not mults:
        raise CenterNotRoot(f"residue {wbar} is not a root of any carried fiber on {node.name}")
    lift = ctx.from_rational(wbar)
    g = kpoly.translate(core, lift)
    shift = kpoly.coefficient(g, 0)
    offsets = {label: node.tracks[label] + shift for label in sorted(mults)}
    # every valuation below is an int over one n: n * v, and nu = rise / (n * run)
    n = lcm(g.n, *(c.n for c in offsets.values()))
    vals = [None if w is None else w * (n // g.n) for w in kpoly.scaled_valuations(g)]
    kappa_val, rise, run = {}, None, 1
    for label, c in offsets.items():
        w = c.scaled_val()
        kappa_val[label] = vals[0] = None if w is None else w * (n // c.n)
        total, r, t = newton.positive_roots(vals)
        if total != mults[label]:
            raise OracleError(
                f"fiber {label} at residue {wbar} on {node.name}: {total} roots in the disc "
                f"by the Newton polygon, {mults[label]} by the residual multiplicity"
            )
        if r is not None and (rise is None or r * run < rise * t):
            rise, run = r, t
    m_values = sorted(set(mults.values()))
    if len(m_values) != 1:
        raise OracleError(
            f"local degree mismatch at residue {wbar} on {node.name}: "
            f"{dict(sorted(mults.items()))}"
        )
    m = m_values[0]
    if rise is None:
        raise CenterNotRoot(
            f"all fiber points at residue {wbar} on {node.name} coincide; nothing separates"
        )
    # nu = rise / N and m * nu = mrise / N stay ints over N; the one
    # Fraction is nu itself, the stage's thickness
    N, mrise = n * run, m * rise
    nu = Fraction(rise, N)
    # contents in the child's chart, times N: the core's is the least
    # v(c_i) + i * nu over i >= 1, a fiber's the least of that and its offset's
    core_content = min(w * run + i * rise for i, w in enumerate(vals) if i and w is not None)
    unscale, shrink = ctx.uniformizer_power(-rise, N), ctx.uniformizer_power(-mrise, N)
    inside = [((x - lift) * unscale, mx) for x, mx in node.points.get(wbar, ())]
    for label, c in offsets.items():
        w = kappa_val[label]
        content = core_content if w is None else min(core_content, w * run)
        if content != mrise:
            raise OracleError(
                f"fiber {label} at residue {wbar} on {node.name}: image radius increment "
                f"{Fraction(content, N)}, not m * nu = {Fraction(mrise, N)}"
            )
        offsets[label] = c * shrink
    # coefficient i >= 1 of the core is g's times p**((i * rise - mrise) / N):
    # a unit exactly when its valuation times N is 0
    reduction = [0] * len(vals)
    for i in range(1, len(vals)):
        if vals[i] is not None and vals[i] * run + i * rise == mrise:
            reduction[i] = kpoly.unit_residue(g, i)
    # the image radius grows by m * nu
    a, b = node.down_radius
    a, b = a * N + mrise * b, b * N
    h = gcd(a, b)
    return _Node(
        f"{node.name}.{wbar}", node.name, nu, (g, rise, mrise, N), fppoly.trim(reduction),
        offsets, _by_residue(inside), m, (a // h, b // h),
    )


# ---------------------------------------------------------------------------
# the separation loop


def _residual_table(node, p):
    """Residual roots per fiber, with irrational residues handled honestly.

    A fiber's reduction is the node's core reduction plus its offset's
    residue a, and is read once per distinct residue.  Sets ``node.kind``
    and returns (table, extra_marks, reductions): a rational residue ->
    {label: multiplicity}, simple marks outside F_p, and label -> reduction.
    Two fibers with equal offset residues and roots outside F_p raise
    ResidualRootOutsideFp.

    An inseparable disc (core' = 0) has core c * X**p, so each fiber's one
    root is -a / c, of multiplicity p.  On an etale disc the degree of
    core' must be the sum of (m - 1) over the critical points the disc
    carries (Gauss's lemma, in the module docstring), else OracleError; so
    every repeated residual root is in F_p and each rootless cofactor is a
    set of simple marks.
    """
    core = node.reduction
    if fppoly.degree(core) != node.m:
        raise OracleError(
            f"residual degree {fppoly.degree(core)} on {node.name} "
            f"differs from local degree {node.m}"
        )
    slope = fppoly.deriv(core, p)
    node.kind = "etale" if slope else "inseparable"
    critical = sum(m - 1 for at in node.points.values() for _, m in at)
    if slope and fppoly.degree(slope) != critical:
        raise OracleError(
            f"etale disc {node.name}: the reduced derivative of its core has degree "
            f"{fppoly.degree(slope)}, its critical points give {critical}"
        )
    inverse = None if slope else pow(core[-1], -1, p)
    table, extra_marks, reductions = {}, [], {}
    readings, shared = {}, {}
    for label in sorted(node.tracks):
        a = node.tracks[label].residue()
        if a not in readings:
            hbar = fppoly.normalize([a] + core[1:], p)
            if inverse is not None:
                readings[a] = hbar, {-a * inverse % p: node.m}, 0
            else:
                roots, cofactor = fppoly.rational_roots(hbar, p)
                readings[a] = hbar, roots, fppoly.degree(cofactor)
        reductions[label], roots, outside = readings[a]
        for wbar, mult in roots.items():
            table.setdefault(wbar, {})[label] = mult
        if outside > 0:
            shared.setdefault(a, []).append(label)
            extra_marks.extend([(label, 1)] * outside)
    for labels in shared.values():
        if len(labels) > 1:
            raise ResidualRootOutsideFp(
                f"fibers {labels[0]} and {labels[1]} share a residual root outside F_{p} "
                f"on {node.name}"
            )
    return table, extra_marks, reductions


def separate_fibers(cover):
    """Blow up until every fiber point sits alone, and return the full state.

    Each node carries its core's reduction: the node's kind, its residual
    table and the stage records all read it.  The count k of distinct
    fiber points at a residue decides between a mark (k = 1) and a blow-up,
    and is the stage's k.  A node's core, beta at the root and
    ``kpoly.rescale`` of its chart elsewhere, is built once, before its
    first blow-up.  Raises NonTermination after MAX_BLOWUPS blow-ups.
    """
    state = fundamental_model(cover)
    ctx = state.ctx
    stack = ["C"]
    while stack:
        node = state.nodes[stack.pop()]
        table, extra_marks, reductions = _residual_table(node, ctx.p)
        node.marks.extend(extra_marks)
        core = None
        for wbar in sorted(table):
            parts = table[wbar]
            # t fiber points per residual root of multiplicity t, m - 1 too many per critical point
            k = sum(parts.values()) - sum(m - 1 for _, m in node.points.get(wbar, ()))
            if k == 1:
                (label,) = parts
                node.marks.append((label, parts[label]))
                continue
            if core is None:
                core = cover.beta if node.chart is None else kpoly.rescale(*node.chart)
            child = blow_up(ctx, node, core, wbar, parts)
            if len(state.stages) >= MAX_BLOWUPS:
                raise NonTermination(
                    f"exceeded {MAX_BLOWUPS} blow-ups; the model is not separating"
                )
            state.nodes[child.name] = child
            node.children.append(child.name)
            participants = tuple(sorted(parts))
            state.stages.append(
                Stage(
                    node=child.name,
                    parent=node.name,
                    residue=wbar,
                    nu=child.thickness,
                    m=child.m,
                    k=k,
                    participants=participants,
                    residuals={la: reductions[la] for la in participants},
                )
            )
            stack.append(child.name)
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
    whose tracks the disc carries; (num, den, labels), the radius in lowest
    terms, names it.  Returns the disc names by key, in order of first
    appearance, and each node's disc.
    """
    discs, target = {}, {}
    for name, node in state.nodes.items():
        key = (*node.down_radius, tuple(sorted(node.tracks)))
        if key not in discs:
            a, b, labels = key
            radius = str(a) if b == 1 else f"{a}/{b}"
            discs[key] = "D" if a == 0 else f"D({'+'.join(labels)}@{radius})"
        target[name] = discs[key]
    if len(set(discs.values())) != len(discs):
        raise OracleError("image discs do not have distinct names")
    return discs, target


def _extract_partitions(state, target, y_marks):
    """Read realized splitting data off the graph, in canonical form.

    Wherever two branch values share their deepest disc and that disc has
    several upstairs components over it, each component contributes a group:
    its local degree d together with the mark multiplicities from both
    fibers, which must sum to d on each side and number d + 1 in all.  The
    groups come in ``dualgraph.group_key`` order.  That the degrees over the
    disc sum to p is checked by ``DualGraphPair.validate``.
    """
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
            d = node.m
            if sum(g1) != d or sum(g2) != d or len(g1) + len(g2) != d + 1:
                raise OracleError(
                    f"component {node.name} over {disc_name} of degree {d} carries "
                    f"parts {g1} and {g2}, not two splittings of {d} into {d + 1} parts"
                )
            groups.append((d, g1, g2))
        out.append(((la, lb), tuple(sorted(groups, key=group_key))))
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
    # image discs by radius, then name; a label's mark goes on the last disc
    # that holds it, the deepest, and a disc's parent is the nearest one
    # before it of smaller radius that holds all its labels.  A radius is
    # read as its numerator over the lcm L of the denominators, an exact int.
    L = lcm(*(b for _, b, _ in discs))
    records = sorted(
        (a * (L // b), name, frozenset(labels)) for (a, b, labels), name in discs.items()
    )
    y_marks = {name: [] for name in discs.values()}
    y_marks["D"].append("inf")
    deepest = {label: name for _, name, labels in records for label in labels}
    for label, name in deepest.items():
        y_marks[name].append(label)
    y_marks = {name: tuple(sorted(marks)) for name, marks in y_marks.items()}
    y_edges = []
    for j, (radius, name, labels) in enumerate(records):
        for outer, parent, held in reversed(records[:j]):
            if outer < radius and labels <= held:
                y_edges.append((parent, name, Fraction(radius - outer, L)))
                break
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

"""The oracle's int readings against plain references.

``_residual_table`` runs no squarefree gcd: it checks the Gauss's-lemma
identity in degree on every etale disc, which makes every rootless cofactor
squarefree; ``blow_up`` reads a child's reduction without building its core,
and the downstairs tree keys its image discs by int pairs.  The references
here run the gcd on every rootless cofactor, reduce the core
``kpoly.rescale`` builds from a disc's chart and key the discs by
``Fraction`` radii summed along the upstairs path.
"""

import random
from fractions import Fraction

import pytest

from padicover import fppoly, kpoly, oracle, planted
from padicover.cover import branch_data
from padicover.field import FieldContext
from padicover.oracle import (
    OracleError,
    ResidualRootOutsideFp,
    _Node,
    _residual_table,
    assemble_model,
    separate_fibers,
)
from reference import fp_mul, is_squarefree


def ref_residual_table(node, p):
    """``_residual_table`` with the squarefree test on every cofactor in
    place of the Gauss's-lemma identity."""
    core = node.reduction
    table, extra_marks, reductions = {}, [], {}
    shared = {}
    for label in sorted(node.tracks):
        a = node.tracks[label].residue()
        hbar = fppoly.normalize([a] + core[1:], p)
        if fppoly.degree(hbar) != node.m:
            raise OracleError(
                f"residual degree {fppoly.degree(hbar)} on {node.name} "
                f"differs from local degree {node.m}"
            )
        roots, cofactor = fppoly.rational_roots(hbar, p)
        if fppoly.degree(cofactor) > 0 and not is_squarefree(cofactor, p):
            raise ResidualRootOutsideFp(
                f"repeated residual root outside F_{p} on {node.name} "
                f"(fiber {label}: cofactor {fppoly.fmt(cofactor)})"
            )
        reductions[label] = hbar
        for wbar, mult in roots.items():
            table.setdefault(wbar, {})[label] = mult
        if fppoly.degree(cofactor) > 0:
            shared.setdefault(a, []).append(label)
            extra_marks.extend([(label, 1)] * fppoly.degree(cofactor))
    for labels in shared.values():
        if len(labels) > 1:
            raise ResidualRootOutsideFp(
                f"fibers {labels[0]} and {labels[1]} share a residual root outside F_{p} "
                f"on {node.name}"
            )
    return table, extra_marks, reductions


def reading(fn, node, p):
    """What a residual reading returns, or the type and message it raises."""
    try:
        return fn(node, p)
    except OracleError as exc:
        return type(exc), str(exc)


def covers(primes, es, per, seed):
    """The planted suite and seeded random covers at every p and e."""
    rng = random.Random(seed)
    out = [inst.cover for inst in planted.suite()]
    for p in primes:
        for e in es:
            out += [planted.random_integral_cover(rng, p, e) for _ in range(per)]
    return out


def test_residual_table_matches_the_reading_that_always_runs_the_gcd(monkeypatch):
    # every node the separation reads, refusals included; "gcd" counts the
    # nodes with a rootless cofactor of degree >= 4, the least degree at
    # which a repeated root outside F_p can show
    seen = {"nodes": 0, "gcd": 0, "refused": 0}

    def compared(node, p):
        got = reading(_residual_table, node, p)
        assert got == reading(ref_residual_table, node, p)
        seen["nodes"] += 1
        residues = {track.residue() for track in node.tracks.values()}
        core = node.reduction
        cofactors = (fppoly.rational_roots([a] + core[1:], p)[1] for a in residues)
        seen["gcd"] += any(fppoly.degree(c) >= 4 for c in cofactors)
        return _residual_table(node, p)

    monkeypatch.setattr(oracle, "_residual_table", compared)
    for cover in covers((3, 5, 7, 11, 13), (1, 2), 6, 19):
        try:
            separate_fibers(cover)
        except ResidualRootOutsideFp:
            seen["refused"] += 1
    assert seen == {"nodes": 433, "gcd": 56, "refused": 8}


def critical_count(node):
    """The sum of (m - 1) over the critical points a node carries."""
    return sum(m - 1 for at in node.points.values() for _, m in at)


def test_a_disc_reads_its_reduction_and_builds_its_core_only_to_blow_it_up(monkeypatch):
    # the reduction blow_up reads off the translated parent, against the
    # reduction of the core kpoly.rescale builds from the disc's chart; the
    # core is built once for each non-root disc that is blown up, and never
    # for the root (its core is beta) or for a leaf
    built = []
    rescale = kpoly.rescale

    def counted(f, j, c, d):
        built.append(f)
        return rescale(f, j, c, d)

    monkeypatch.setattr(kpoly, "rescale", counted)
    seen = {"covers": 0, "blown up": 0, "leaves": 0}
    for cover in covers((3, 5, 7, 11, 13), (1, 2), 6, 19):
        built.clear()
        try:
            state = separate_fibers(cover)
        except ResidualRootOutsideFp:
            continue
        root = state.nodes["C"]
        assert root.chart is None and root.reduction == kpoly.reduction(cover.beta)
        discs = [node for node in state.nodes.values() if node.parent is not None]
        blown_up = [node for node in discs if node.children]
        assert sorted(map(id, built)) == sorted(id(node.chart[0]) for node in blown_up)
        for node in discs:
            assert node.reduction == kpoly.reduction(rescale(*node.chart))
        seen["covers"] += 1
        seen["blown up"] += len(blown_up)
        seen["leaves"] += len(discs) - len(blown_up)
    assert seen == {"covers": 108, "blown up": 58, "leaves": 239}


def test_no_squarefree_gcd_runs_where_critical_points_are_carried(monkeypatch):
    # on every etale disc the reduced derivative of the core has degree the
    # sum of (m - 1) over the critical points inside (Gauss's lemma), so the
    # residual table never needs the gcd, refused covers included
    calls = []
    fp_gcd = fppoly.gcd

    def counted(f, g, p):
        calls.append(f)
        return fp_gcd(f, g, p)

    monkeypatch.setattr(fppoly, "gcd", counted)
    seen = {"etale": 0, "inseparable": 0, "refused": 0}
    for cover in covers((3, 5, 7, 11, 13), (1, 2), 6, 19):
        try:
            state = separate_fibers(cover)
        except ResidualRootOutsideFp:
            seen["refused"] += 1
            continue
        p = state.ctx.p
        for node in state.nodes.values():
            seen[node.kind] += 1
            if node.kind == "etale":
                slope = fppoly.deriv(node.reduction, p)
                assert slope and fppoly.degree(slope) == critical_count(node)
    assert calls == []
    assert seen == {"etale": 286, "inseparable": 119, "refused": 8}


def test_every_critical_point_lies_on_a_fiber_the_residual_table_carries(monkeypatch):
    # a disc indexes its critical points by residue alone: a point at residue
    # w lies on its own fiber, whose residual polynomial then has the root w,
    # so every residue carrying a point is a key of the disc's table; at the
    # root the point's own fiber, the branch value beta(x), is in the table
    seen = {"covers": 0, "discs": 0, "root points": 0, "refused": 0}

    def checked(node, p):
        table, extra_marks, reductions = _residual_table(node, p)
        assert set(node.points) <= set(table), node.name
        if node.parent is None:
            label = {bp.value: bp.label for bp in branch_data(cover)}
            for x, _ in cover.critical.points:
                assert label[kpoly.eval_at(cover.beta, x)] in table[x.residue()]
                seen["root points"] += 1
        seen["discs"] += 1
        return table, extra_marks, reductions

    monkeypatch.setattr(oracle, "_residual_table", checked)
    for cover in covers((3, 5, 7, 11, 13), (1, 2), 6, 23):
        seen["covers"] += 1
        try:
            separate_fibers(cover)
        except ResidualRootOutsideFp:
            seen["refused"] += 1
    assert seen == {"covers": 116, "discs": 382, "root points": 298, "refused": 8}


def residual_node(p, residual, critical=(), name="C"):
    """A node of local degree deg(residual) whose one fiber reduces to the
    monic ``residual`` (lowest degree first): the core reduces to residual
    less its constant, and the offset is the constant.  ``critical`` lists
    the residues of the critical points the node carries, each of index 2."""
    ctx = FieldContext(p, 1)
    offsets = {"a": ctx.from_rational(residual[0])}
    points = {w: [(ctx.from_rational(w), 2)] for w in critical}
    reduction = [0, *residual[1:]]
    return _Node(name, None, None, None, reduction, offsets, points, len(residual) - 1, (0, 1))


# X**2 + 1 and X**2 + 2 are irreducible over F_7: -1 and -2 are not squares.
# Q * R = X**4 + 3X**2 + 2 has derivative 2X(2X**2 + 3), with roots 0, 3
# and 4; Q**2 and Q**2 * R have derivatives 4X(X**2 + 1) and
# X(6X**4 + 2X**2 + 3), whose only root in F_7 is 0
Q, R = [1, 0, 1], [2, 0, 1]


def test_a_product_of_two_distinct_irreducible_quadratics_is_squarefree():
    node = residual_node(7, fp_mul(Q, R, 7), critical=(0, 3, 4))
    got = _residual_table(node, 7)
    assert got == ref_residual_table(node, 7)
    assert got == ({}, [("a", 1)] * 4, {"a": fp_mul(Q, R, 7)})
    assert node.kind == "etale"


@pytest.mark.parametrize("residual", [fp_mul(Q, Q, 7), fp_mul(fp_mul(Q, Q, 7), R, 7)])
def test_a_squared_irreducible_quadratic_is_a_repeated_root(residual):
    # no F_7-rational critical points match the reduced derivative, so the
    # Gauss's-lemma identity fails and the disc is refused; the reference
    # reading finds the repeated root by the squarefree gcd
    node = residual_node(7, residual, critical=(0,))
    assert fppoly.rational_roots(fppoly.normalize(residual, 7), 7)[0] == {}
    slope = fppoly.degree(residual) - 1
    with pytest.raises(OracleError) as info:
        _residual_table(node, 7)
    assert str(info.value) == (
        f"etale disc C: the reduced derivative of its core has degree {slope}, "
        "its critical points give 1"
    )
    kind, message = reading(ref_residual_table, node, 7)
    assert kind is ResidualRootOutsideFp and "repeated residual root" in message


def test_a_disc_whose_critical_points_disagree_with_its_derivative_is_refused():
    # Q * R with one of the three critical points its derivative needs: the
    # residual roots are all simple, but the disc has lost a critical point,
    # so the engine refuses it, naming the disc and both degrees
    node = residual_node(7, fp_mul(Q, R, 7), critical=(0,), name="C.3.1")
    with pytest.raises(OracleError) as info:
        _residual_table(node, 7)
    assert not isinstance(info.value, ResidualRootOutsideFp)
    assert str(info.value) == (
        "etale disc C.3.1: the reduced derivative of its core has degree 3, "
        "its critical points give 1"
    )
    assert reading(ref_residual_table, node, 7) == ({}, [("a", 1)] * 4, {"a": fp_mul(Q, R, 7)})


def ref_y_tree(state):
    """The downstairs marks and edges of a contracted state, each image disc
    keyed by a ``Fraction`` radius: the sum of m * thickness along its path."""
    radius = {}
    for name, node in state.nodes.items():
        r, at = Fraction(0), node
        while at.parent is not None:
            r += at.m * at.thickness
            at = state.nodes[at.parent]
        radius[name] = r
    discs = {}
    for name, node in state.nodes.items():
        key = (radius[name], tuple(sorted(node.tracks)))
        if key not in discs:
            r, labels = key
            discs[key] = "D" if r == 0 else f"D({'+'.join(labels)}@{r})"
    records = sorted((r, name, frozenset(labels)) for (r, labels), name in discs.items())
    y_marks = {name: [] for name in discs.values()}
    y_marks["D"].append("inf")
    deepest = {label: name for _, name, labels in records for label in labels}
    for label, name in deepest.items():
        y_marks[name].append(label)
    y_edges = []
    for j, (r, name, labels) in enumerate(records):
        for outer, parent, held in reversed(records[:j]):
            if outer < r and labels <= held:
                y_edges.append((parent, name, r - outer))
                break
    return {name: tuple(sorted(marks)) for name, marks in y_marks.items()}, y_edges


def test_image_discs_match_the_fraction_keyed_tree():
    compared, mixed = 0, 0
    for cover in covers((3, 5, 7), (1, 2, 3), 8, 23):
        try:
            state = separate_fibers(cover)
        except ResidualRootOutsideFp:
            continue
        model = assemble_model(state)
        y_marks, y_edges = ref_y_tree(state)
        assert model.y_marks == y_marks
        assert model.y_edges == y_edges
        compared += 1
        # two radii whose numerators alone order them the wrong way
        radii = {node.down_radius for node in state.nodes.values()}
        mixed += any(a < c and a * d > c * b for a, b in radii for c, d in radii)
    assert (compared, mixed) == (127, 10)

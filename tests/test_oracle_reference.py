"""The oracle's int readings against plain references.

``_residual_table`` runs the squarefree gcd only on a rootless cofactor of
degree >= 4 of a disc whose reduced derivative does not have the degree its
critical points give, ``blow_up`` reads a child's reduction without building
its core, and the downstairs tree keys its image discs by int pairs; the
references here always run the gcd, reduce the core ``kpoly.rescale`` builds
and key the discs by ``Fraction`` radii summed along the upstairs path.
"""

import random
from fractions import Fraction

import pytest

from padicover import fppoly, kpoly, oracle, planted
from padicover.field import FieldContext
from padicover.oracle import (
    OracleError,
    ResidualRootOutsideFp,
    _Node,
    _residual_table,
    assemble_model,
    separate_fibers,
)
from reference import fp_mul, from_rationals


def ref_residual_table(node, core, p):
    """``_residual_table`` with the squarefree test on every cofactor."""
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
        if fppoly.degree(cofactor) > 0 and not fppoly.is_squarefree(cofactor, p):
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


def reading(fn, node, core, p):
    """What a residual reading returns, or the type and message it raises."""
    try:
        return fn(node, core, p)
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
    # nodes with a rootless cofactor of degree >= 4, where the test still runs
    seen = {"nodes": 0, "gcd": 0, "refused": 0}

    def compared(node, core, p):
        got = reading(_residual_table, node, core, p)
        assert got == reading(ref_residual_table, node, core, p)
        seen["nodes"] += 1
        residues = {track.residue() for track in node.tracks.values()}
        cofactors = (fppoly.rational_roots([a] + core[1:], p)[1] for a in residues)
        seen["gcd"] += any(fppoly.degree(c) >= 4 for c in cofactors)
        return _residual_table(node, core, p)

    monkeypatch.setattr(oracle, "_residual_table", compared)
    for cover in covers((3, 5, 7, 11, 13), (1, 2), 6, 19):
        try:
            separate_fibers(cover)
        except ResidualRootOutsideFp:
            seen["refused"] += 1
    assert seen == {"nodes": 433, "gcd": 56, "refused": 8}


def critical_count(node):
    """The sum of (m - 1) over the critical points a node carries."""
    return sum(m - 1 for at in node.points.values() for xs in at.values() for _, m in xs)


def test_a_disc_reads_its_reduction_and_builds_its_core_only_to_blow_it_up(monkeypatch):
    # the reduction blow_up reads off the translated parent, against the
    # reduction of the core kpoly.rescale builds; the core is built once for
    # each child disc that is blown up in turn, and never for a leaf
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
        discs = [node for node in state.nodes.values() if node.parent is not None]
        blown_up = [node for node in discs if node.children]
        assert len(built) == len(blown_up)
        assert all(node.chart is None for node in blown_up)
        assert all(node.chart is not None for node in discs if not node.children)
        for node in discs:
            assert node.reduction == kpoly.reduction(node.core)
        seen["covers"] += 1
        seen["blown up"] += len(blown_up)
        seen["leaves"] += len(discs) - len(blown_up)
    assert seen == {"covers": 108, "blown up": 58, "leaves": 239}


def test_no_squarefree_gcd_runs_where_critical_points_are_carried(monkeypatch):
    # on every etale disc the reduced derivative of the core has degree the
    # sum of (m - 1) over the critical points inside (Gauss's lemma), so the
    # residual table never needs the gcd, refused covers included
    calls = []
    is_squarefree = fppoly.is_squarefree

    def counted(f, p):
        calls.append(f)
        return is_squarefree(f, p)

    monkeypatch.setattr(fppoly, "is_squarefree", counted)
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


def residual_node(p, residual):
    """A node of local degree deg(residual) whose one fiber reduces to the
    monic ``residual`` (lowest degree first): the core is residual less its
    constant, perturbed upstairs by p * X, and the offset is the constant."""
    ctx = FieldContext(p, 1)
    core = from_rationals(ctx, (0, residual[1] + p, *residual[2:]))
    offsets = {"a": ctx.from_rational(residual[0])}
    node = _Node("C", None, None, core, offsets, {}, len(residual) - 1, (0, 1))
    return node, kpoly.reduction(core)


# X**2 + 1 and X**2 + 2 are irreducible over F_7: -1 and -2 are not squares
Q, R = [1, 0, 1], [2, 0, 1]


def test_a_product_of_two_distinct_irreducible_quadratics_is_squarefree():
    node, core = residual_node(7, fp_mul(Q, R, 7))
    got = _residual_table(node, core, 7)
    assert got == ref_residual_table(node, core, 7)
    assert got == ({}, [("a", 1)] * 4, {"a": fp_mul(Q, R, 7)})


@pytest.mark.parametrize("residual", [fp_mul(Q, Q, 7), fp_mul(fp_mul(Q, Q, 7), R, 7)])
def test_a_squared_irreducible_quadratic_is_a_repeated_root(residual):
    node, core = residual_node(7, residual)
    assert fppoly.rational_roots(fppoly.normalize(residual, 7), 7)[0] == {}
    with pytest.raises(ResidualRootOutsideFp, match="repeated residual root") as info:
        _residual_table(node, core, 7)
    assert reading(ref_residual_table, node, core, 7) == (ResidualRootOutsideFp, str(info.value))


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

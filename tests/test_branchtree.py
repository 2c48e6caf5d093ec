import random
from fractions import Fraction
from itertools import combinations, count, product

import pytest
from hypothesis import assume, given, strategies as st

from padicover import planted
from padicover.branchtree import (
    AllPointsCoalesce,
    build_branch_tree,
    classify_points,
)
from padicover.cover import branch_data
from padicover.field import Element, FieldContext

K = FieldContext(5, 1)


def pts(*pairs):
    return [(label, K.from_rational(v)) for label, v in pairs]


def is_simple(points):
    return not classify_points(build_branch_tree(points)).offenders


def test_good_reduction_single_vertex():
    t = build_branch_tree(pts(("0", 0), ("1", 1), ("lam", 2)))
    assert len(t.nodes) == 1
    bc = classify_points(t)
    assert bc.ordinary == ("0", "1", "lam")
    assert bc.tails == ()
    assert not bc.offenders


def test_single_tail():
    eps = Fraction(3)
    t = build_branch_tree(pts(("0", 0), ("1", 1), ("lam", 125)))
    bc = classify_points(t)
    assert bc.ordinary == ("1",)
    assert len(bc.tails) == 1
    assert bc.tails[0].pair == ("0", "lam")
    assert bc.tails[0].epsilon == eps
    assert not bc.offenders


def test_worked_five_point_example():
    t = build_branch_tree(
        pts(("0", 0), ("1", 1), ("1+5^3", 1 + 125), ("5^2", 25), ("2", 2))
    )
    bc = classify_points(t)
    assert bc.ordinary == ("2",)
    assert {tail.pair: tail.epsilon for tail in bc.tails} == {
        ("0", "5^2"): Fraction(2),
        ("1", "1+5^3"): Fraction(3),
    }
    assert not bc.offenders


def test_nested_cluster_is_not_simple():
    t = build_branch_tree(pts(("0", 0), ("5", 5), ("5^2", 25), ("1", 1)))
    bc = classify_points(t)
    assert bc.offenders  # names the offending cluster(s)
    assert any("sub-cluster" in o or "marks" in o for o in bc.offenders)
    assert not is_simple(pts(("0", 0), ("5", 5), ("5^2", 25), ("1", 1)))


def test_two_disjoint_tails_simple():
    assert is_simple(pts(("0", 0), ("5", 5), ("1", 1), ("1+5", 6)))


def test_three_marks_in_one_tail_not_simple():
    t = build_branch_tree(pts(("a", 0), ("b", 5), ("c", 10), ("1", 1)))
    bc = classify_points(t)
    assert len(bc.offenders) == 1


def test_coalescing_rejected():
    with pytest.raises(AllPointsCoalesce):
        build_branch_tree(pts(("0", 0), ("5", 5), ("25", 25)))
    with pytest.raises(AllPointsCoalesce):
        build_branch_tree(pts(("0", 0)))


def test_input_validation():
    with pytest.raises(ValueError):
        build_branch_tree(pts(("a", Fraction(1, 5)), ("b", 1)))
    with pytest.raises(ValueError):
        build_branch_tree(pts(("a", 3), ("b", 3)))


def test_distance_and_thickness():
    t = build_branch_tree(
        pts(("0", 0), ("1", 1), ("1+5^3", 1 + 125), ("5^2", 25), ("2", 2))
    )
    tails = [n for n in t.nodes.values() if n.parent == "D"]
    assert len(tails) == 2
    a, b = sorted(tails, key=lambda n: n.depth)
    assert a.thickness == Fraction(2)
    assert b.thickness == Fraction(3)
    assert t.root.thickness is None


def test_small_configurations_always_simple():
    rng = random.Random(42)
    for _ in range(200):
        vals = rng.sample(range(-50, 50), 3)
        try:
            assert is_simple(pts(*((str(i), v) for i, v in enumerate(vals))))
        except AllPointsCoalesce:
            pass  # degenerate, not a counterexample


@given(st.lists(st.integers(-10_000, 10_000), min_size=3, max_size=6, unique=True))
def test_ultrametric_triple(vals):
    xs = [K.from_rational(v) for v in vals]
    for a, b, c in combinations(xs, 3):
        d = sorted([(a - b).val(), (b - c).val(), (a - c).val()])
        assert d[0] == d[1]
    # so one member measures a cluster: its least distance to the others is
    # the least pairwise distance
    least = min((a - b).val() for a, b in combinations(xs, 2))
    for r in xs:
        assert min((x - r).val() for x in xs if x is not r) == least


def test_dot_and_json_deterministic():
    config = pts(("0", 0), ("1", 1), ("lam", 125))
    t1, t2 = build_branch_tree(config), build_branch_tree(config)
    assert t1.to_json() == t2.to_json()


def reference_tree(points):
    """The all-pairs rule, kept as a reference: a cluster's depth is its
    least pairwise valuation, its classes are found by comparing with every
    member, and components are named depth first, sub-clusters by their
    sorted labels.  Returns the ``to_json`` document and the ordinary marks,
    tails and offenders of ``classify_points``."""
    vertices, tails, offenders, names = [], [], [], count(1)

    def walk(name, parent, depth, parent_depth, group):
        classes = []
        for label, x in group:
            home = [c for c in classes if all((x - y).val() > depth for _, y in c)]
            if home:
                home[0].append((label, x))
            else:
                classes.append([(label, x)])
        marks = sorted([c[0][0] for c in classes if len(c) == 1] + ["inf"] * (parent is None))
        subs = sorted((c for c in classes if len(c) > 1), key=lambda c: sorted(l for l, _ in c))
        entry = {"name": name, "depth": str(depth), "marks": marks}
        if parent is not None:
            entry.update(parent=parent, thickness=str(depth - parent_depth))
            if parent == "D" and not subs and len(marks) == 2:
                tails.append((tuple(marks), depth - parent_depth))
            else:
                offenders.append(
                    f"cluster {name} (marks {{{', '.join(marks) or '-'}}}, "
                    f"{len(subs)} sub-cluster(s), depth {depth})"
                )
        vertices.append(entry)
        for c in subs:
            least = min((a - b).val() for (_, a), (_, b) in combinations(c, 2))
            walk(f"v{next(names)}", name, least, depth, c)

    walk("D", None, Fraction(0), None, points)
    ordinary = tuple(m for m in vertices[0]["marks"] if m != "inf")
    return {"vertices": sorted(vertices, key=lambda v: (len(v["name"]), v["name"]))}, (
        ordinary,
        tuple(tails),
        tuple(offenders),
    )


def nested_configuration(rng):
    """2-7 distinct points x = sum of c_j * pi**j over j < 7 in Q_p(p**(1/2)),
    digits c_j drawn from at most three residues, so points often share a
    long prefix and the clusters nest; labels are shuffled letters, so the
    order of the points is not the order of their labels."""
    p = rng.choice([2, 3, 5, 7])
    ctx = FieldContext(p, 2)
    values = set()
    for _ in range(rng.randint(2, 7)):
        digits = [rng.randrange(min(p, 3)) for _ in range(rng.randint(1, 7))]
        values.add((
            sum(c * p ** (j // 2) for j, c in enumerate(digits) if j % 2 == 0),
            sum(c * p ** (j // 2) for j, c in enumerate(digits) if j % 2 == 1),
        ))
    labels = rng.sample("abcdefg", len(values))
    return [(lbl, ctx.element(list(v))) for lbl, v in zip(labels, sorted(values))]


def test_one_walk_matches_the_all_pairs_reference():
    rng = random.Random(2003)
    nested = coalesced = 0
    for _ in range(1500):
        points = nested_configuration(rng)
        if len({x.residue() for _, x in points}) < 2:
            with pytest.raises(AllPointsCoalesce):
                build_branch_tree(points)
            coalesced += 1
            continue
        tree = build_branch_tree(points)
        doc, (ordinary, tails, offenders) = reference_tree(points)
        assert tree.to_json() == doc
        bc = classify_points(tree)
        assert bc.ordinary == ordinary
        assert [(t.pair, t.epsilon) for t in bc.tails] == list(tails)
        assert bc.offenders == offenders
        nested += any(v.get("parent", "D") != "D" for v in doc["vertices"])
    assert nested > 300 and coalesced > 0


def val_walk_tree(points):
    """The one-walk tree with every valuation read as a ``Fraction`` by
    ``Element.val``: each class compared with its first member, a child's
    depth the least v(x - g[0]) over its members, every pair subtracted
    where it is met.  Returns (name, parent, marks, depth, thickness) per
    component, in creation order."""

    def group(members, threshold):
        classes = []
        for label, x in members:
            for c in classes:
                if (x - c[0][1]).val() > threshold:
                    c.append((label, x))
                    break
            else:
                classes.append([(label, x)])
        return classes

    out = []

    def walk(name, parent, depth, parent_depth, classes, marks):
        own = sorted(marks + [c[0][0] for c in classes if len(c) == 1])
        out.append((name, parent, own, depth, None if parent is None else depth - parent_depth))
        subs = sorted((c for c in classes if len(c) > 1), key=lambda c: sorted(l for l, _ in c))
        for c in subs:
            below = min((x - c[0][1]).val() for _, x in c[1:])
            walk(f"v{len(out)}", name, below, depth, group(c, below), [])

    classes = group(points, Fraction(0))
    if len(classes) < 2:
        raise AllPointsCoalesce("reference")
    walk("D", None, Fraction(0), None, classes, ["inf"])
    return out


def test_integer_walk_matches_the_fraction_walk_on_covers():
    # the branch values of the planted suite (e up to 4, some values off Q)
    # and of seeded random covers (rational values)
    configs = [branch_data(inst.cover) for inst in planted.suite()]
    rng = random.Random(1604)
    for p, e in product((5, 7, 11), (1, 2)):
        configs += [branch_data(planted.random_integral_cover(rng, p, e)) for _ in range(200)]
    clustered = nested = coalesced = irrational = 0
    for branch in configs:
        points = [(bp.label, bp.value) for bp in branch]
        if len(points) < 2:
            continue
        try:
            want = val_walk_tree(points)
        except AllPointsCoalesce:
            with pytest.raises(AllPointsCoalesce):
                build_branch_tree(points)
            coalesced += 1
            continue
        got = build_branch_tree(points).nodes.values()
        assert [(n.name, n.parent, n.marks, n.depth, n.thickness) for n in got] == want
        clustered += len(got) > 1
        nested += any(n.parent not in (None, "D") for n in got)
        irrational += any(x.n > 1 for _, x in points)
    # 256 configurations with a cluster, 7 nested, 48 coalesced, 12 off Q
    assert clustered > 200 and nested > 3 and coalesced > 20 and irrational > 10


def test_the_root_is_split_by_residue_without_subtracting(monkeypatch):
    """Points with pairwise distinct residues make one root class each, so the
    root split subtracts nothing; a class of k points subtracts k - 1 times."""
    calls, general = [], Element.__sub__
    monkeypatch.setattr(Element, "__sub__", lambda x, y: calls.append(1) or general(x, y))
    K7 = FieldContext(7, 2)
    distinct = [(str(r), K7.from_rational(r) + K7.pi() * r) for r in (3, -1, 0, 1, 9, 5)]
    tree = build_branch_tree(distinct)
    assert calls == [] and list(tree.nodes) == ["D"]
    assert tree.root.marks == sorted(["inf", "3", "-1", "0", "1", "9", "5"])
    # the class of residue 1: three members, one subtraction each after the first
    clustered = distinct + [("8", K7.from_rational(8)), ("50", K7.from_rational(50))]
    tree = build_branch_tree(clustered)
    assert len(calls) == 2 + 1  # the root's two, then the child's split of 8 and 50
    assert [n.marks for n in tree.nodes.values()] == [
        sorted(["inf", "3", "-1", "0", "9", "5"]), ["1"], ["50", "8"]
    ]

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from padicover.branchtree import (
    AllPointsCoalesce,
    VertexNotFound,
    build_branch_tree,
    classify_points,
)
from padicover.field import FieldContext

K = FieldContext(5, 1)


def pts(*pairs):
    return [(label, K.from_rational(v)) for label, v in pairs]


def is_simple(points):
    return classify_points(build_branch_tree(points)).simple


def test_good_reduction_single_vertex():
    t = build_branch_tree(pts(("0", 0), ("1", 1), ("lam", 2)))
    assert len(t.nodes) == 1
    bc = classify_points(t)
    assert bc.ordinary == ("0", "1", "lam")
    assert bc.tails == ()
    assert bc.simple


def test_single_tail():
    eps = Fraction(3)
    t = build_branch_tree(pts(("0", 0), ("1", 1), ("lam", 125)))
    bc = classify_points(t)
    assert bc.ordinary == ("1",)
    assert len(bc.tails) == 1
    assert bc.tails[0].pair == ("0", "lam")
    assert bc.tails[0].epsilon == eps
    assert bc.simple


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
    assert bc.simple


def test_nested_cluster_is_not_simple():
    t = build_branch_tree(pts(("0", 0), ("5", 5), ("5^2", 25), ("1", 1)))
    bc = classify_points(t)
    assert not bc.simple
    assert bc.offenders  # names the offending cluster(s)
    assert any("sub-cluster" in o or "marks" in o for o in bc.offenders)
    assert not is_simple(pts(("0", 0), ("5", 5), ("5^2", 25), ("1", 1)))


def test_two_disjoint_tails_simple():
    assert is_simple(pts(("0", 0), ("5", 5), ("1", 1), ("1+5", 6)))


def test_three_marks_in_one_tail_not_simple():
    t = build_branch_tree(pts(("a", 0), ("b", 5), ("c", 10), ("1", 1)))
    bc = classify_points(t)
    assert not bc.simple
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
    assert t.thickness(a.name) == Fraction(2)
    assert t.thickness(b.name) == Fraction(3)
    with pytest.raises(VertexNotFound):
        t.thickness("nope")
    with pytest.raises(VertexNotFound):
        t.thickness("D")


def test_small_configurations_always_simple():
    rng = random.Random(42)
    for _ in range(200):
        vals = rng.sample(range(-50, 50), 3)
        try:
            assert is_simple(pts(*((str(i), v) for i, v in enumerate(vals))))
        except AllPointsCoalesce:
            pass  # degenerate, not a counterexample


@given(st.lists(st.integers(-10_000, 10_000), min_size=3, max_size=3, unique=True))
def test_ultrametric_triple(vals):
    a, b, c = (K.from_rational(v) for v in vals)
    d = sorted([(a - b).val(), (b - c).val(), (a - c).val()])
    assert d[0] == d[1]


def test_dot_and_json_deterministic():
    config = pts(("0", 0), ("1", 1), ("lam", 125))
    t1, t2 = build_branch_tree(config), build_branch_tree(config)
    assert t1.to_json() == t2.to_json()

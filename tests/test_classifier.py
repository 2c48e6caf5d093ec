"""Reduction-type classifier: regime formulas, partitions, full models."""

import hashlib
import json
import random
import re
from collections import Counter
from copy import copy, deepcopy
from fractions import Fraction as F
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from padicover import cli, oracle
from padicover.classifier import (
    ClassifierError,
    InvalidProfile,
    NotSimpleReduction,
    ThresholdUndefined,
    admissible_partitions,
    analyze_tail,
    classify_cover,
    classify_formula,
)
from padicover.cover import cover_from_json, from_critical_divisor
from padicover.dualgraph import DualGraphPair, InvalidDualGraph, group_key
from padicover.field import FieldContext
from reference import partitions_by_groups


def edge_map(model, side):
    edges = model.x_edges if side == "x" else model.y_edges
    return {b: (a, t) for a, b, t in edges}


def arm_thicknesses(model, side, parent):
    edges = model.x_edges if side == "x" else model.y_edges
    return sorted(t for a, _b, t in edges if a == parent)


def rational_cover(p, points, e=1):
    ctx = FieldContext(p, e)
    return from_critical_divisor(
        [(ctx.from_rational(F(x)), m) for x, m in points], ctx
    )


# -- single-arm and star models ---------------------------------------------


def test_ordinary_pair_model():
    # nu carries the rest of the ramification: (5 - 3) + (5 - 3) = p - 1
    res = classify_formula(
        5, [{"name": "mu", "profile": [3, 1, 1]}, {"name": "nu", "profile": [3, 1, 1]}]
    )
    (model,) = res.models
    assert set(model.x_marks) == {"C", "C'(mu)", "C'(nu)"}
    assert edge_map(model, "x")["C'(mu)"] == ("C", F(1, 2))
    assert edge_map(model, "y")["D'(mu)"] == ("D", F(5, 2))
    assert model.x_marks["C'(mu)"] == (("mu", 3), ("mu", 1), ("mu", 1))
    assert model.vertical["C"].kind == "inseparable"
    vm = model.vertical["C'(mu)"]
    assert (vm.target, vm.degree, vm.kind) == ("D'(mu)", 5, "etale")


def test_good_reduction_stars():
    res = classify_formula(
        5,
        [
            {"name": "0", "profile": [3, 1, 1]},
            {"name": "1", "profile": [2, 1, 1, 1]},
            {"name": "lam", "profile": [2, 1, 1, 1]},
        ],
    )
    (model,) = res.models
    assert len(model.x_marks) == len(model.y_marks) == 4
    assert arm_thicknesses(model, "x", "C") == [F(1, 3), F(1, 3), F(1, 2)]
    assert arm_thicknesses(model, "y", "D") == [F(5, 3), F(5, 3), F(5, 2)]
    assert not res.tails

    res3 = classify_formula(
        3, [{"name": "0", "profile": [2, 1]}, {"name": "b", "profile": [2, 1]}]
    )
    (model3,) = res3.models
    assert arm_thicknesses(model3, "x", "C") == [F(1), F(1)]
    assert arm_thicknesses(model3, "y", "D") == [F(3), F(3)]


# -- thresholds and regimes ---------------------------------------------------


def test_showcase_thresholds():
    for eps, want in ((F(1), "far"), (F(5), "critical"), (F(7), "near")):
        report = analyze_tail(5, ("a", "b"), (3, 1, 1), (2, 1, 1, 1), eps)
        assert (report.threshold, report.regime) == (F(5), want)
    for eps, want in ((F(1), "far"), (F(5, 2), "critical"), (F(3), "near")):
        report = analyze_tail(5, ("a", "b"), (2, 1, 1, 1), (2, 1, 1, 1), eps)
        assert (report.threshold, report.regime) == (F(5, 2), want)


def test_threshold_undefined_when_fibers_saturate():
    # n1 + n2 = p + 1 leaves no room between the pair and infinity
    with pytest.raises(ThresholdUndefined) as exc:
        analyze_tail(5, ("a", "b"), (4, 1), (2, 1, 1, 1), 1)
    assert "p + 1 = 6" in str(exc.value)
    # at p = 3 every tail pair saturates: profiles have at most 2 parts
    with pytest.raises(ThresholdUndefined):
        analyze_tail(3, ("a", "b"), (2, 1), (2, 1), 1)


# -- the far regime -----------------------------------------------------------


def test_far_showcase_model():
    res = classify_formula(
        5,
        [
            {"name": "0", "profile": [3, 1, 1], "tail_with": "lam", "epsilon": "1"},
            {"name": "lam", "profile": [2, 1, 1, 1]},
            {"name": "1", "profile": [2, 1, 1, 1]},
        ],
    )
    (tail,) = res.tails
    assert (tail.pair, tail.regime) == (("0", "lam"), "far")
    assert (tail.excess, tail.threshold) == (1, F(5))
    (model,) = res.models
    ex, ey = edge_map(model, "x"), edge_map(model, "y")
    assert ex["C'(0,lam)"] == ("C", F(1, 5))
    assert ex["C(0)"] == ("C'(0,lam)", F(2, 5))
    assert ex["C(lam)"] == ("C'(0,lam)", F(4, 15))
    assert ex["C'(1)"] == ("C", F(1, 3))
    assert ey["D'(0,lam)"] == ("D", F(1))
    assert ey["D(0)"] == ("D'(0,lam)", F(2))
    assert ey["D(lam)"] == ("D'(0,lam)", F(4, 3))
    assert ey["D'(1)"] == ("D", F(5, 3))
    assert model.vertical["C'(0,lam)"].kind == "inseparable"
    assert model.vertical["C(0)"].kind == "etale"
    assert model.x_marks["C(0)"] == (("0", 3), ("0", 1), ("0", 1))
    assert model.y_marks["D(lam)"] == ("lam",)
    assert model.x_marks["C'(0,lam)"] == ()


def test_far_arm_thickness_formula():
    # nu_i = (p - u*eps) / (p (n_i - 1)), shrinking to 0 as eps -> p/u
    for eps in (F(1), F(2), F(4)):
        rep = analyze_tail(5, ("a", "b"), (3, 1, 1), (2, 1, 1, 1), eps)
        res = classify_formula(
            5,
            [
                {"name": "a", "profile": [3, 1, 1], "tail_with": "b",
                 "epsilon": str(eps)},
                {"name": "b", "profile": [2, 1, 1, 1]},
                {"name": "c", "profile": [2, 1, 1, 1]},
            ],
        )
        (model,) = res.models
        ex = edge_map(model, "x")
        assert rep.regime == "far"
        assert ex["C(a)"][1] == F(5 - eps, 10)
        assert ex["C(b)"][1] == F(5 - eps, 15)
    for eps in (F(1), F(2)):
        rep = analyze_tail(5, ("a", "b"), (2, 1, 1, 1), (2, 1, 1, 1), eps)
        res = classify_formula(
            5,
            [
                {"name": "a", "profile": [2, 1, 1, 1], "tail_with": "b",
                 "epsilon": str(eps)},
                {"name": "b", "profile": [2, 1, 1, 1]},
                {"name": "c", "profile": [3, 1, 1]},
            ],
        )
        (model,) = res.models
        ex = edge_map(model, "x")
        assert ex["C(a)"][1] == ex["C(b)"][1] == F(5 - 2 * eps, 15)


# -- the critical regime ------------------------------------------------------


def test_critical_showcase_models():
    res = classify_formula(
        5,
        [
            {"name": "0", "profile": [3, 1, 1], "tail_with": "lam", "epsilon": "5"},
            {"name": "lam", "profile": [2, 1, 1, 1]},
            {"name": "1", "profile": [2, 1, 1, 1]},
        ],
    )
    (model,) = res.models
    assert edge_map(model, "x")["C'(0,lam)"] == ("C", F(1))
    assert edge_map(model, "y")["D'(0,lam)"] == ("D", F(5))
    assert len(model.x_marks["C'(0,lam)"]) == 7  # both fibers sit here
    assert model.y_marks["D'(0,lam)"] == ("0", "lam")
    assert model.vertical["C'(0,lam)"].kind == "etale"

    res2 = classify_formula(
        5,
        [
            {"name": "1", "profile": [2, 1, 1, 1], "tail_with": "lam",
             "epsilon": "5/2"},
            {"name": "lam", "profile": [2, 1, 1, 1]},
            {"name": "0", "profile": [3, 1, 1]},
        ],
    )
    (model2,) = res2.models
    assert edge_map(model2, "x")["C'(1,lam)"] == ("C", F(1, 2))
    assert edge_map(model2, "y")["D'(1,lam)"] == ("D", F(5, 2))


# -- the near regime and partition pairs --------------------------------------

SHOWCASE_04 = (
    ((4, (1, 3), (1, 1, 2)), (1, (1,), (1,))),
    ((3, (3,), (1, 1, 1)), (2, (1, 1), (2,))),
)
SHOWCASE_14 = (
    ((3, (1, 2), (1, 2)), (1, (1,), (1,)), (1, (1,), (1,))),
    ((2, (2,), (1, 1)), (2, (1, 1), (2,)), (1, (1,), (1,))),
)


def test_near_partitions_unbalanced_pair():
    pps = admissible_partitions(5, (3, 1, 1), (2, 1, 1, 1))
    assert pps == SHOWCASE_04
    res = classify_formula(
        5,
        [
            {"name": "0", "profile": [3, 1, 1], "tail_with": "lam", "epsilon": "7"},
            {"name": "lam", "profile": [2, 1, 1, 1]},
            {"name": "1", "profile": [2, 1, 1, 1]},
        ],
    )
    assert len(res.models) == 2
    by_partition = {m.partitions[0][1]: m for m in res.models}
    m41 = by_partition[SHOWCASE_04[0]]
    m32 = by_partition[SHOWCASE_04[1]]
    for model, leaf_thick in ((m41, [F(1, 2), F(2)]), (m32, [F(2, 3), F(1)])):
        ex, ey = edge_map(model, "x"), edge_map(model, "y")
        assert ex["C'(0,lam)"] == ("C", F(1))
        assert ey["D'(0,lam)"] == ("D", F(5))
        assert ey["D_1(0,lam)"] == ("D'(0,lam)", F(2))
        assert arm_thicknesses(model, "x", "C'(0,lam)") == sorted(leaf_thick)
        assert model.y_marks["D_1(0,lam)"] == ("0", "lam")
        assert model.x_marks["C'(0,lam)"] == ()
        assert model.vertical["C'(0,lam)"].kind == "etale"
    # group degrees become vertical degrees of the leaves
    assert sorted(
        m41.vertical[n].degree for n in m41.x_marks if n.startswith("C_")
    ) == [1, 4]
    assert m41.x_marks["C_1(0,lam)"] == (
        ("0", 1), ("0", 3), ("lam", 1), ("lam", 1), ("lam", 2)
    )


def test_near_partitions_balanced_pair():
    pps = admissible_partitions(5, (2, 1, 1, 1), (2, 1, 1, 1))
    assert pps == SHOWCASE_14
    res = classify_formula(
        5,
        [
            {"name": "1", "profile": [2, 1, 1, 1], "tail_with": "lam",
             "epsilon": "3"},
            {"name": "lam", "profile": [2, 1, 1, 1]},
            {"name": "0", "profile": [3, 1, 1]},
        ],
    )
    assert len(res.models) == 2
    thicks = sorted(
        tuple(arm_thicknesses(m, "x", "C'(1,lam)")) for m in res.models
    )
    assert thicks == [
        (F(1, 6), F(1, 2), F(1, 2)),
        (F(1, 4), F(1, 4), F(1, 2)),
    ]
    for m in res.models:
        assert edge_map(m, "y")["D_1(1,lam)"] == ("D'(1,lam)", F(1, 2))
        assert edge_map(m, "y")["D'(1,lam)"] == ("D", F(5, 2))


def all_profiles(p):
    out = []

    def rec(rest, biggest, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for m in range(min(rest, biggest), 0, -1):
            rec(rest - m, m, acc + [m])

    rec(p, p, [])
    return out


def test_partition_invariants_across_profiles():
    for p in (5, 7):
        for prof1, prof2 in product(all_profiles(p), repeat=2):
            u = len(prof1) + len(prof2) - p - 1
            if u < 1:
                continue
            pps = admissible_partitions(p, prof1, prof2)
            assert len(set(pps)) == len(pps)
            for groups in pps:
                assert len(groups) == u + 1
                merged1, merged2 = [], []
                for d, g1, g2 in groups:
                    assert sum(g1) == sum(g2) == d
                    assert len(g1) + len(g2) == d + 1
                    merged1.extend(g1)
                    merged2.extend(g2)
                assert sorted(merged1) == sorted(prof1)
                assert sorted(merged2) == sorted(prof2)


def reference_partitions(p, prof1, prof2):
    """Every split of the two fibers into u + 1 groups (d, g1, g2) with
    sum(g1) = sum(g2) = d and len(g1) + len(g2) = d + 1, by brute force: the
    group of fiber 1's largest part left tries every pair of sub-multisets
    of what is left, with no pruning.  Canonical order: parts ascending,
    groups by ``group_key``, pairs by their groups' keys."""

    def sub_multisets(parts):
        counts = Counter(parts)
        for ks in product(*(range(c + 1) for c in counts.values())):
            chosen = Counter(dict(zip(counts, ks)))
            yield tuple(sorted(chosen.elements())), list((counts - chosen).elements())

    def splits(left1, left2):
        if not left1:
            if not left2:
                yield ()
            return
        rest1 = sorted(left1)
        head = rest1.pop()
        for more1, after1 in sub_multisets(rest1):
            for g2, after2 in sub_multisets(left2):
                d = head + sum(more1)
                if sum(g2) == d and len(more1) + 1 + len(g2) == d + 1:
                    for more in splits(after1, after2):
                        yield ((d, more1 + (head,), g2),) + more

    u = len(prof1) + len(prof2) - p - 1
    found = {
        tuple(sorted(groups, key=group_key))
        for groups in splits(list(prof1), list(prof2))
        if len(groups) == u + 1
    }
    return tuple(sorted(found, key=lambda groups: [group_key(g) for g in groups]))


def test_partition_enumeration_is_complete():
    cases = [
        (p, prof1, prof2)
        for p in (5, 7)
        for prof1, prof2 in product(all_profiles(p), repeat=2)
        if len(prof1) + len(prof2) - p - 1 >= 1
    ]
    rng = random.Random(11)
    for p in (11, 13):
        near = [
            (p, prof1, prof2)
            for prof1, prof2 in product(all_profiles(p), repeat=2)
            if len(prof1) + len(prof2) - p - 1 >= 1
        ]
        cases += rng.sample(near, 40)
    total = 0
    for p, prof1, prof2 in cases:
        want = reference_partitions(p, prof1, prof2)
        assert admissible_partitions(p, prof1, prof2) == want, (p, prof1, prof2)
        total += len(want)
    assert total > len(cases)


def test_partition_enumeration_matches_the_group_by_group_reference():
    # the blocks of parts > 1 against the enumerator that builds each group
    # from all its parts: every near pair at p <= 13, and a seeded sample of
    # 300 at each of p = 17, 19 and 23
    total = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        profiles = all_profiles(p)
        if p <= 13:
            cases = [(a, b) for a, b in product(profiles, repeat=2) if len(a) + len(b) > p + 1]
        else:
            rng, drawn = random.Random(p), set()
            while len(drawn) < 300:
                a, b = rng.choice(profiles), rng.choice(profiles)
                if len(a) + len(b) > p + 1:
                    drawn.add((a, b))
            cases = sorted(drawn)
        for prof1, prof2 in cases:
            want = partitions_by_groups(p, prof1, prof2)
            assert admissible_partitions(p, prof1, prof2) == want, (p, prof1, prof2)
            total += len(want)
    assert total == 69768


def test_large_near_pair():
    ones = (1,) * 29
    pps = admissible_partitions(31, (2,) + ones, (2,) + ones)
    assert list(pps) == [
        ((3, (1, 2), (1, 2)),) + ((1, (1,), (1,)),) * 28,
        ((2, (2,), (1, 1)), (2, (1, 1), (2,))) + ((1, (1,), (1,)),) * 27,
    ]
    assert all(len(groups) == 29 for groups in pps)  # u + 1 = 30 + 30 - 31


@given(
    st.sampled_from(
        [
            (p, a, b)
            for p in (5, 7)
            for a in all_profiles(p)
            for b in all_profiles(p)
            if len(a) + len(b) - p - 1 >= 1
        ]
    )
)
def test_partition_enumeration_order_free(case):
    p, prof1, prof2 = case
    shuffled1, shuffled2 = list(prof1), list(prof2)
    random.Random(hash(case)).shuffle(shuffled1)
    random.Random(~hash(case)).shuffle(shuffled2)
    assert admissible_partitions(p, shuffled1, shuffled2) == admissible_partitions(
        p, prof1, prof2
    )


# a near cover whose blow-up model has the groups (3, (1, 1, 1), (3,)) and
# (2, (2,), (1, 1)) over the pair's deepest disc
NEAR_DOC = {"p": 5, "critical": [{"x": "5", "m": 3}, {"x": "0", "m": 2}, {"x": "-23", "m": 2}]}


def test_partition_validation_errors(tmp_path, capsys, monkeypatch):
    with pytest.raises(InvalidProfile):
        admissible_partitions(5, (3, 1), (2, 1, 1, 1))
    with pytest.raises(InvalidProfile):
        admissible_partitions(5, (3, 1, 1, 0), (2, 1, 1, 1))
    # the blow-up route checks each group it reads off its model: a bad
    # group is an engine error (exit 4), never a disagreement (exit 1)
    path = tmp_path / "near.json"
    path.write_text(json.dumps(NEAR_DOC))
    separate = oracle.separate_fibers
    for marks in (
        [("0", 1), ("78125/12", 1), ("78125/12", 1)],  # sums 1 and 2, d = 2
        [("0", 2), ("78125/12", 2)],  # 1 + 1 parts, d + 1 = 3
    ):

        def tampered(cover, marks=marks):
            state = separate(cover)
            (node,) = [n for n in state.nodes.values() if n.m == 2]
            node.marks = list(marks)
            return state

        monkeypatch.setattr(oracle, "separate_fibers", tampered)
        assert cli.main(["verify", "--cover", str(path)]) == 4
        error = json.loads(capsys.readouterr().err)["error"]
        assert "not two splittings of 2 into 3 parts" in error


# sha256 of the canonical JSON of `classify --profiles --emit both` for every
# near pair at p = 7 and 11 whose ramification fits one cover, at the fixed
# distance p + 1/2 (a third point takes up the rest of Riemann-Hurwitz), and
# for covers with two and three near tails, whose models run over the product
# of the tails' partition choices.  Rewrite it with
# `PYTHONPATH=src python tests/test_classifier.py`.
FORMULA_GOLDEN = Path(__file__).parent / "formula_golden.json"


def _spec(name, profile, partner=None, epsilon=None):
    spec = {"name": name, "profile": list(profile)}
    if partner is not None:
        spec.update(tail_with=partner, epsilon=str(epsilon))
    return spec


def _ones(count):
    return (1,) * count


MULTI_TAIL_DOCS = {
    "p7-two-tails-balanced": (7, [
        _spec("a", (2,) + _ones(5), "b", F(15, 2)), _spec("b", (2,) + _ones(5)),
        _spec("c", (2,) + _ones(5), "d", 8), _spec("d", (2,) + _ones(5)),
        _spec("e", (3,) + _ones(4)),
    ]),
    "p7-two-tails-unbalanced": (7, [
        _spec("a", (3,) + _ones(4), "b", F(15, 2)), _spec("b", (2,) + _ones(5)),
        _spec("c", (2,) + _ones(5), "d", F(23, 3)), _spec("d", (2,) + _ones(5)),
        _spec("e", (2,) + _ones(5)),
    ]),
    "p11-two-tails-3x4": (11, [
        _spec("a", (2, 2) + _ones(7), "b", F(23, 2)), _spec("b", (4,) + _ones(7)),
        _spec("c", (2,) + _ones(9), "d", 12), _spec("d", (3, 2) + _ones(6)),
        _spec("e", (2,) + _ones(9)),
    ]),
    "p11-two-tails-2x3": (11, [
        _spec("a", (3,) + _ones(8), "b", 12), _spec("b", (3,) + _ones(8)),
        _spec("c", (2, 2) + _ones(7), "d", F(23, 2)), _spec("d", (4,) + _ones(7)),
        _spec("e", (2,) + _ones(9)),
    ]),
    "p11-three-tails": (11, [
        _spec("a", (2,) + _ones(9), "b", F(23, 2)), _spec("b", (2,) + _ones(9)),
        _spec("c", (2,) + _ones(9), "d", 12), _spec("d", (2,) + _ones(9)),
        _spec("e", (2,) + _ones(9), "f", F(35, 3)), _spec("f", (2,) + _ones(9)),
        _spec("g", (5,) + _ones(6)),
    ]),
}


def formula_docs():
    docs = {}
    for p in (7, 11):
        ramified = [pr for pr in all_profiles(p) if len(pr) < p]
        for pr1, pr2 in combinations_with_replacement(ramified, 2):
            u = len(pr1) + len(pr2) - p - 1
            rest = (p - 1) - (p - len(pr1)) - (p - len(pr2))
            if u < 1 or rest < 0:
                continue
            specs = [_spec("a", pr1, "b", F(2 * p + 1, 2)), _spec("b", pr2)]
            if rest:
                specs.append(_spec("c", (rest + 1,) + _ones(p - rest - 1)))
            name = "p{}-near-{}-{}".format(
                p, ".".join(map(str, pr1)), ".".join(map(str, pr2))
            )
            docs[name] = (p, specs)
    docs.update(MULTI_TAIL_DOCS)
    return docs


def formula_outputs():
    got = {}
    for name, (p, specs) in formula_docs().items():
        doc = cli._classification_doc(classify_formula(p, specs), "both", "formula")
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        got[name] = hashlib.sha256(canonical.encode()).hexdigest()
    return got


def test_formula_output_is_pinned():
    docs = formula_docs()
    assert sum(name.startswith("p7-near") for name in docs) == 19
    assert sum(name.startswith("p11-near") for name in docs) == 246
    assert formula_outputs() == json.loads(FORMULA_GOLDEN.read_text())


# -- exact mode ---------------------------------------------------------------


def test_exact_good_reduction_p3():
    cover = rational_cover(3, [(0, 2), (1, 2)])
    res = classify_cover(cover)
    (model,) = res.models
    assert not res.tails
    assert len(model.x_marks) == 3
    assert arm_thicknesses(model, "x", "C") == [F(1), F(1)]
    assert arm_thicknesses(model, "y", "D") == [F(3), F(3)]
    labels = {lbl for name in model.y_marks for lbl in model.y_marks[name]}
    assert labels == {"inf", "0", "-1/2"}


def test_exact_totally_ramified_single_vertex():
    cover = rational_cover(5, [(0, 5)])
    (model,) = classify_cover(cover).models
    assert set(model.x_marks) == {"C"}
    assert set(model.y_marks) == {"D"}
    assert model.x_marks["C"] == (("inf", 5), ("0", 5))
    assert not model.x_edges and not model.y_edges


def test_exact_near_balanced_tail():
    # double points at 0 and 5 collide: v(beta(0) - beta(5)) = 4 > 5/2
    cover = rational_cover(5, [(2, 3), (0, 2), (5, 2)])
    res = classify_cover(cover)
    (tail,) = res.tails
    assert tail.pair == ("-625/4", "0")
    assert (tail.epsilon, tail.threshold, tail.regime) == (F(4), F(5, 2), "near")
    assert res.ordinary == (("-28", (3, 1, 1)),)
    assert tail.partitions == SHOWCASE_14
    assert len(res.models) == 2


def test_exact_critical_and_near_unbalanced_tail():
    crit = classify_cover(rational_cover(5, [(5, 3), (0, 2), (-1, 2)]))
    (tail,) = crit.tails
    assert tail.pair == ("0", "3125/4")
    assert (tail.epsilon, tail.regime) == (F(5), "critical")
    assert len(crit.models) == 1

    near = classify_cover(rational_cover(5, [(5, 3), (0, 2), (-23, 2)]))
    (tail,) = near.tails
    assert (tail.epsilon, tail.regime) == (F(7), "near")
    assert tail.profiles == ((2, 1, 1, 1), (3, 1, 1))
    junction = f"C'({tail.pair[0]},{tail.pair[1]})"
    leaf_sets = {tuple(arm_thicknesses(m, "x", junction)) for m in near.models}
    assert leaf_sets == {(F(1, 2), F(2)), (F(2, 3), F(1))}


def test_exact_far_tail_needs_ramified_base():
    # critical point at pi, e = 2: the pair distance is 5/2 < 5
    ctx = FieldContext(5, 2)
    pts = [
        (ctx.pi(), 3),
        (ctx.from_rational(F(0)), 2),
        (ctx.from_rational(F(-1)), 2),
    ]
    res = classify_cover(from_critical_divisor(pts, ctx))
    (tail,) = res.tails
    assert (tail.epsilon, tail.regime) == (F(5, 2), "far")
    junction = f"C'({tail.pair[0]},{tail.pair[1]})"
    (model,) = res.models
    assert sorted(arm_thicknesses(model, "x", junction)) == [F(1, 6), F(1, 4)]
    down = f"D'({tail.pair[0]},{tail.pair[1]})"
    assert sorted(arm_thicknesses(model, "y", down)) == [F(5, 6), F(5, 4)]


def test_exact_threshold_undefined():
    with pytest.raises(ThresholdUndefined):
        classify_cover(rational_cover(5, [(0, 4), (5, 2)]))


def test_exact_not_simple():
    with pytest.raises(NotSimpleReduction) as exc:
        classify_cover(rational_cover(5, [(0, 2), (5, 2), (10, 2), (1, 2)]))
    assert exc.value.offenders


def test_exact_requires_integral_branch_values():
    cover = rational_cover(5, [(F(1, 5), 3), (0, 2), (1, 2)])
    with pytest.raises(ClassifierError, match="integral"):
        classify_cover(cover)


# -- canonical comparison and validation ---------------------------------------


def rename_components(model, xmap, ymap):
    return DualGraphPair(
        p=model.p,
        x_root=xmap.get(model.x_root, model.x_root),
        y_root=ymap.get(model.y_root, model.y_root),
        x_marks={xmap.get(n, n): v for n, v in model.x_marks.items()},
        y_marks={ymap.get(n, n): v for n, v in model.y_marks.items()},
        x_edges=[(xmap.get(a, a), xmap.get(b, b), t) for a, b, t in model.x_edges],
        y_edges=[(ymap.get(a, a), ymap.get(b, b), t) for a, b, t in model.y_edges],
        vertical={
            xmap.get(n, n): type(vm)(ymap.get(vm.target, vm.target), vm.degree,
                                     vm.kind, vm.notes)
            for n, vm in model.vertical.items()
        },
        partitions=model.partitions,
    ).validate()


def showcase_far():
    (model,) = classify_formula(
        5,
        [
            {"name": "0", "profile": [3, 1, 1], "tail_with": "lam", "epsilon": "1"},
            {"name": "lam", "profile": [2, 1, 1, 1]},
            {"name": "1", "profile": [2, 1, 1, 1]},
        ],
    ).models
    return model


def showcase_near():
    """The near showcase model whose partition has a group of degree 4; its
    upstairs thicknesses include 1/2 and 1."""
    models = classify_formula(
        5,
        [
            {"name": "0", "profile": [3, 1, 1], "tail_with": "lam", "epsilon": "7"},
            {"name": "lam", "profile": [2, 1, 1, 1]},
            {"name": "1", "profile": [2, 1, 1, 1]},
        ],
    ).models
    return next(m for m in models if m.partitions[0][1][0][0] == 4)


def test_component_names_do_not_matter():
    a = showcase_far()
    b = rename_components(
        a,
        {"C(0)": "Z9", "C'(0,lam)": "junction", "C'(1)": "arm"},
        {"D(lam)": "W", "D'(0,lam)": "dj"},
    )
    assert a.is_isomorphic_to(b)


def test_edge_order_and_thickness_spelling_do_not_matter():
    a, b = showcase_near(), showcase_near()
    spelled = {F(1, 2): F(2, 4), F(1): 1}
    b.x_edges = [(x, y, spelled.get(t, t)) for x, y, t in reversed(b.x_edges)]
    b.y_edges = [(x, y, spelled.get(t, t)) for x, y, t in reversed(b.y_edges)]
    assert [t for *_, t in b.x_edges if type(t) is int] == [1]
    assert F(1, 2) in [t for *_, t in b.x_edges]
    b.validate()
    assert a.is_isomorphic_to(b) and b.is_isomorphic_to(a)


def test_thickness_change_breaks_isomorphism():
    a = showcase_far()
    b = showcase_far()
    b.x_edges = [
        (x, y, t if y != "C(0)" else t + 1) for x, y, t in b.x_edges
    ]
    b.y_edges = [
        (x, y, t if y != "D(0)" else t + 5) for x, y, t in b.y_edges
    ]
    b.validate()
    assert not a.is_isomorphic_to(b)


def replaced(model, **fields):
    """A shallow copy of a model with the given fields replaced."""
    out = copy(model)
    for name, value in fields.items():
        setattr(out, name, value)
    return out


def test_equal_trees_with_different_partitions_are_not_isomorphic():
    # the partitions, the canonical key's last entry, are compared first
    a = showcase_near()
    for partitions in ((), ((("0", "lam"), ((4, (1, 1, 2), (1, 3)), (1, (1,), (1,)))),)):
        assert partitions != a.partitions
        b = replaced(showcase_near(), partitions=partitions)
        assert a.canonical_key()[:-1] == b.canonical_key()[:-1]
        assert not a.is_isomorphic_to(b) and not b.is_isomorphic_to(a)
    assert a.is_isomorphic_to(replaced(showcase_near()))


def test_mark_multiplicity_is_compared():
    a = showcase_far()
    b = showcase_far()
    b.x_marks["C(0)"] = (("0", 3), ("0", 2), ("0", 1))
    assert not a.is_isomorphic_to(b)


def with_vertical(model, name, **changes):
    vm = model.vertical[name]
    fields = {"target": vm.target, "degree": vm.degree, "kind": vm.kind, **changes}
    model.vertical[name] = type(vm)(fields["target"], fields["degree"], fields["kind"], vm.notes)


@pytest.mark.parametrize("change", ["degree", "kind", "group"])
def test_vertical_maps_and_partition_groups_are_compared(change):
    a, b = showcase_near(), showcase_near()
    if change == "degree":
        with_vertical(b, "C_2(0,lam)", degree=b.vertical["C_2(0,lam)"].degree + 1)
    elif change == "kind":
        with_vertical(b, "C'(0,lam)", kind="inseparable")
    else:
        ((pair, ((d, g1, g2), *rest)),) = b.partitions
        b.partitions = ((pair, ((d, (2, 2), g2), *rest)),)
        assert g1 != (2, 2)
    assert not a.is_isomorphic_to(b) and not b.is_isomorphic_to(a)


def test_scaling_law_enforced():
    model = showcase_far()
    model.y_edges = [
        (a, b, t if b != "D(0)" else t * 2) for a, b, t in model.y_edges
    ]
    with pytest.raises(InvalidDualGraph, match="scaling"):
        model.validate()


def test_degree_conservation_enforced():
    model = showcase_far()
    vm = model.vertical["C(0)"]
    model.vertical["C(0)"] = type(vm)(vm.target, 4, vm.kind, vm.notes)
    with pytest.raises(InvalidDualGraph, match="sum"):
        model.validate()


def break_law(model, law):
    """Break one structural law of the near showcase model.  A tree law is
    named "<side>: <law>" and broken at the side's deepest edge a-b."""
    side, _, tree_law = law.partition(": ")
    if tree_law:
        comps, edges = getattr(model, f"{side}_marks"), getattr(model, f"{side}_edges")
        root, (a, b, t) = getattr(model, f"{side}_root"), edges[-1]
        if tree_law == "unknown component":
            edges.append((root, "ghost", t))
        elif tree_law == "two parents":
            edges.append((edges[0][1], b, t))
        elif tree_law == "<= 0":
            edges[-1] = (a, b, F(0))
        elif tree_law == "has a parent":
            edges.append((b, root, t))
        elif tree_law == "not a tree":
            comps["ghost"] = ()
        else:  # a cycle: b becomes the parent of its own parent a
            edges[:] = [(b if y == a else x, y, s) for x, y, s in edges]
    elif law == "x-root missing":
        model.x_root = "ghost"
    elif law == "y-root missing":
        model.y_root = "ghost"
    elif law == "no vertical map":
        del model.vertical["C'(1)"]
    elif law == "unknown target":
        with_vertical(model, "C'(1)", target="ghost")
    elif law == "unknown kind":
        with_vertical(model, "C'(1)", kind="radicial")
    elif law == "root to root":
        with_vertical(model, "C", target="D'(1)")
    elif law == "edge in one component":  # C_2 below C_1, both over D_1
        model.x_edges[-1] = ("C_1(0,lam)", "C_2(0,lam)", F(2))
    else:  # C_2 below C, but D_1 is not below D
        model.x_edges[-1] = ("C", "C_2(0,lam)", F(2))


TREE_LAWS = ["unknown component", "two parents", "<= 0", "has a parent", "not a tree", "cycle"]


# the walk to the root has no "disconnected" raise: once the earlier tree
# checks pass, every non-root component has a parent
@pytest.mark.parametrize(
    "law, message",
    [(f"{side}: {law}", f"^{side}-.*{law}") for side in "xy" for law in TREE_LAWS]
    + [
        ("x-root missing", "root missing"),
        ("y-root missing", "root missing"),
        ("no vertical map", "C'\\(1\\) has no vertical map"),
        ("unknown target", "C'\\(1\\) maps to unknown ghost"),
        ("unknown kind", "unknown kind 'radicial'"),
        ("root to root", "x-root does not map to y-root"),
        ("edge in one component", "maps to a single downstairs component D_1"),
        ("edge image", "image of x-edge C-C_2\\(0,lam\\) is not a downstairs edge D-D_1"),
    ],
)
def test_each_structural_law_is_enforced(law, message):
    model = showcase_near().validate()
    break_law(model, law)
    with pytest.raises(InvalidDualGraph, match=message):
        model.validate()


def add_edges(model, side, edges):
    """Add the edges and their targets, the targets first among the side's
    components and in reverse, so the walk to the root starts at the last."""
    comps = getattr(model, f"{side}_marks")
    setattr(model, f"{side}_marks", {**{b: () for _, b in reversed(edges)}, **comps})
    getattr(model, f"{side}_edges").extend((a, b, F(1)) for a, b in edges)


def chain(top, names):
    return list(zip([top, *names], names))


DEEP = [f"k{i}" for i in range(1, 9)]  # 8 edges below the root; the showcase has 2


@pytest.mark.parametrize("side", "xy")
@pytest.mark.parametrize(
    "shape, message",
    [
        ("cycle", "^{side}-graph has a cycle at c$"),
        ("chain", "^(component k8 has no vertical map|degrees over k8 sum to 0)"),
        ("chain, then a cycle under a chain", "^{side}-graph has a cycle at c$"),
    ],
    ids=["cycle", "deep-chain", "cycle-below-deep-chain"],
)
def test_the_walk_to_the_root_finds_cycles_past_deep_chains(side, shape, message):
    # a 3-cycle a -> b -> c -> a avoids the root; the deep chain reaches it, so
    # the walk passes it and the first failure is a later law
    model = showcase_near().validate()
    edges = chain(getattr(model, f"{side}_root"), DEEP) if "chain" in shape else []
    if "cycle" in shape:
        edges += [("c", "a"), ("a", "b"), ("b", "c")]
    if "under" in shape:
        edges += chain("c", [f"t{i}" for i in range(1, 7)])
    add_edges(model, side, edges)
    with pytest.raises(InvalidDualGraph, match=message.format(side=side)):
        model.validate()


def test_json_and_dot_deterministic():
    a = showcase_far()
    b = showcase_far()
    assert a.to_json() == b.to_json()
    dot = a.to_dot()
    assert 'label="X_k"' in dot and 'label="Y_k"' in dot
    assert "style=dashed" in dot
    assert a.to_json()["x"]["edges"][0][2].count("/") <= 1  # rationals as strings
    near = classify_formula(
        5,
        [
            {"name": "0", "profile": [3, 1, 1], "tail_with": "lam", "epsilon": "7"},
            {"name": "lam", "profile": [2, 1, 1, 1]},
            {"name": "1", "profile": [2, 1, 1, 1]},
        ],
    )
    docs = [m.to_json() for m in near.models]
    assert docs[0]["partitions"][0]["groups"][0]["d"] == 4
    assert docs[1]["partitions"][0]["groups"][0]["d"] == 3


def test_dot_escapes_quotes_and_backslashes_in_names():
    specs = [{"name": 'a"b\\c', "profile": [3, 1, 1]}, {"name": "mu", "profile": [3, 1, 1]}]
    (model,) = classify_formula(5, specs).models
    for line in model.to_dot().splitlines():
        # outside its quoted strings, no line holds a quote or a backslash
        bare = re.sub(r'"(?:[^"\\]|\\.)*"', "", line)
        assert '"' not in bare and "\\" not in bare, line
    assert '"x_C\'(a\\"b\\\\c)"' in model.to_dot()


# -- candidates that share one memo -------------------------------------------

# exact covers of the classify-exact benchmark pool whose classification has
# two near tails
TWO_NEAR_TAIL_COVERS = [
    {"p": 5, "e": 1, "critical": [
        {"x": "9/7", "m": 2}, {"x": "2", "m": 2}, {"x": "15/7", "m": 2}, {"x": "5", "m": 2},
    ]},
    {"p": 5, "e": 2, "critical": [
        {"x": ["-14", "0"], "m": 2}, {"x": ["-5/7", "0"], "m": 2},
        {"x": ["1", "0"], "m": 2}, {"x": ["10/3", "0"], "m": 2},
    ]},
    {"p": 7, "e": 1, "critical": [
        {"x": "-9", "m": 2}, {"x": "-6", "m": 3}, {"x": "5", "m": 2}, {"x": "8", "m": 3},
    ]},
    {"p": 7, "e": 1, "critical": [
        {"x": "-15", "m": 3}, {"x": "-5/3", "m": 2}, {"x": "1", "m": 2},
        {"x": "6", "m": 2}, {"x": "17", "m": 2},
    ]},
]


def shared_memo_classifications():
    """Each near pair of formula_docs (the formula-near workload's rule) at
    the least distance that workload draws, p/u + 1/6, and at p + 1/2; the
    formula covers with two and three near tails; and exact covers with two
    near tails."""
    for name, (p, specs) in formula_docs().items():
        if name in MULTI_TAIL_DOCS:
            yield name, classify_formula(p, specs)
            continue
        u = len(specs[0]["profile"]) + len(specs[1]["profile"]) - p - 1
        for eps in (F(p, u) + F(1, 6), F(2 * p + 1, 2)):
            yield f"{name}@{eps}", classify_formula(
                p, [{**specs[0], "epsilon": str(eps)}, *specs[1:]]
            )
    for i, doc in enumerate(TWO_NEAR_TAIL_COVERS):
        yield f"exact-{i}", classify_cover(cover_from_json(doc))


def detached(model):
    """An independent deep copy of a model, with no memo."""
    return deepcopy(replaced(model, memo=None))


def test_candidates_render_and_compare_as_copies_without_a_memo():
    names, candidates = Counter(), 0
    for name, classification in shared_memo_classifications():
        names[name.split("-")[0] if "@" in name else "multi"] += 1
        (memo,) = {id(m.memo) for m in classification.models}
        for tail in classification.tails:
            assert tail.to_json() == deepcopy(tail).to_json(), name
        for model in classification.models:
            copy = detached(model)
            assert copy.validate() is copy
            assert model.to_json() == copy.to_json(), name
            assert model.canonical_key() == copy.canonical_key(), name
            candidates += 1
        if name.startswith("exact"):
            assert [t.regime for t in classification.tails] == ["near", "near"]
    assert names == {"p7": 2 * 19, "p11": 2 * 246, "multi": 5 + len(TWO_NEAR_TAIL_COVERS)}
    assert candidates > 2 * 1491


def test_the_shared_memo_holds_fewer_entries_than_the_upstairs_components_rendered():
    """Once every candidate of a near classification with two or more has
    rendered, the one dict the candidates share holds fewer entries than the
    upstairs components they rendered: the dict is shared."""
    classifications = 0
    for name, classification in shared_memo_classifications():
        models = classification.models
        if len(models) < 2:
            continue
        for model in models:
            model.to_json()
        (memo,) = {id(m.memo): m.memo for m in models}.values()
        assert type(memo) is dict, name
        assert len(memo) < sum(len(m.x_marks) for m in models), name
        classifications += 1
    assert classifications == 2 * (19 + 246) + 5 + len(TWO_NEAR_TAIL_COVERS)  # all of them


def test_a_single_candidate_renders_without_a_memo():
    """Rigid regimes give one model, which renders directly, as an oracle
    model does; the candidates of a near tail with two or more partition
    pairs share one dict."""
    ordinary = [{"name": str(i), "profile": [2, 1, 1, 1]} for i in range(4)]

    def tail(eps):
        pair = {**ordinary[0], "tail_with": "1", "epsilon": eps}
        return classify_formula(5, [pair, *ordinary[1:]])

    shapes = {}
    for name, classification in {
        "ordinary": classify_formula(5, ordinary), "far": tail("1"), "near": tail("7")
    }.items():
        models = classification.models
        (memo,) = {id(m.memo): m.memo for m in models}.values()
        shapes[name] = len(models), type(memo).__name__
        for model in models:
            assert model.to_json() == detached(model).to_json(), name
    assert shapes == {"ordinary": (1, "NoneType"), "far": (1, "NoneType"), "near": (2, "dict")}


def two_candidates():
    """The first two candidates of the near showcase classification, the
    first validated after the classifier built both."""
    first, second, *_ = classify_formula(
        5,
        [
            {"name": "0", "profile": [3, 1, 1], "tail_with": "lam", "epsilon": "7"},
            {"name": "lam", "profile": [2, 1, 1, 1]},
            {"name": "1", "profile": [2, 1, 1, 1]},
        ],
    ).models
    assert first.memo is second.memo
    return first.validate(), second


LEAF, LEAF_EDGE = "C_1(0,lam)", "C'\\(0,lam\\)-C_1\\(0,lam\\)"


def set_leaf_thickness(model, scale):
    (i,) = [i for i, (_, b, _) in enumerate(model.x_edges) if b == LEAF]
    a, b, t = model.x_edges[i]
    model.x_edges[i] = (a, b, t * scale)


@pytest.mark.parametrize(
    "law, message",
    [
        ("leaf thickness", f"^x-edge {LEAF_EDGE} has thickness 0 <= 0$"),
        ("unknown target", "^C_1\\(0,lam\\) maps to unknown ghost$"),
        ("scaling law", f"^scaling law broken on {LEAF_EDGE}: down 2 != 3 \\* 4/3$"),
        ("degree sum", "^degrees over D_1\\(0,lam\\) sum to 6, expected p = 5$"),
    ],
)
def test_each_per_fact_law_holds_on_a_later_candidate(law, message):
    first, second = two_candidates()
    if law == "leaf thickness":
        set_leaf_thickness(second, 0)
    elif law == "unknown target":
        with_vertical(second, LEAF, target="ghost")
    elif law == "scaling law":
        set_leaf_thickness(second, 2)
    else:
        with_vertical(second, LEAF, degree=second.vertical[LEAF].degree + 1)
    with pytest.raises(InvalidDualGraph, match=message):
        second.validate()
    assert first.validate() is first


@pytest.mark.parametrize("change", ["x_marks", "vertical map", "x-edge", "y-edge"])
def test_changing_one_candidate_changes_no_other_document(change):
    models = classify_formula(*MULTI_TAIL_DOCS["p7-two-tails-balanced"]).models
    docs = [m.to_json() for m in models]
    frozen = [json.dumps(d, sort_keys=True) for d in docs]
    victim = models[0]
    if change == "x_marks":
        victim.x_marks["C"] += (("zz", 1),)
    elif change == "vertical map":
        with_vertical(victim, "C_1(a,b)", kind="inseparable")
    elif change == "x-edge":
        a, b, t = victim.x_edges[-1]
        victim.x_edges[-1] = (a, b, t * 2)
    else:
        a, b, t = victim.y_edges[-1]
        victim.y_edges[-1] = (a, b, t * 2)
    assert json.dumps(victim.to_json(), sort_keys=True) != frozen[0]
    assert victim.to_json() == detached(victim).to_json()
    assert [json.dumps(m.to_json(), sort_keys=True) for m in models[1:]] == frozen[1:]
    assert [json.dumps(d, sort_keys=True) for d in docs] == frozen


if __name__ == "__main__":
    rows = formula_outputs()
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items())
    FORMULA_GOLDEN.write_text("{\n" + body + "\n}\n")

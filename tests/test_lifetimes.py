"""Every object a request builds is freed by reference counting.

Each path runs with the cyclic collector off; ``gc.collect()`` afterwards
counts the objects that only the collector could free, and must find none.
A recursive closure (a nested function that calls itself by name) is the
usual culprit: the function holds the cell that holds the function, so it,
and every memo, tree or model it can reach, outlives the call.
"""

import gc
import random
from fractions import Fraction

import pytest

from padicover import cli, planted
from padicover.classifier import (
    InvalidProfile,
    NotSimpleReduction,
    admissible_partitions,
    classify_cover,
    classify_formula,
)
from padicover.oracle import run_oracle

REFUSALS = tuple(cli._ADVICE) + (NotSimpleReduction, InvalidProfile)


def unreachable_after(run):
    """Objects left in reference cycles by `run()`, the collector off meanwhile."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


def verify(cover):
    """What ``padicover verify --emit both --trace`` renders of a cover."""
    classification = classify_cover(cover)
    result = run_oracle(cover)
    matched = [m for m in classification.models if result.model.is_isomorphic_to(m)]
    docs = [m.to_json() for m in classification.models] + [m.to_dot() for m in matched]
    docs += [t.to_json() for t in classification.tails]
    docs += [result.model.to_json(), result.model.to_dot(), result.trace_json()]
    if classification.tree is not None:
        docs.append(classification.tree.to_json())
    return docs


def test_the_planted_suite_leaves_no_cycle():
    def run():
        for inst in planted.suite():
            verify(inst.cover)

    assert unreachable_after(run) == 0


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_seeded_random_covers_leave_no_cycle_refused_or_not(p):
    refused = []

    def run():
        rng = random.Random(11)
        for _ in range(40):
            try:
                verify(planted.random_integral_cover(rng, p))
            except REFUSALS as exc:
                refused.append(type(exc).__name__)

    assert unreachable_after(run) == 0
    assert refused  # a refusal frees what it built too


def heaviest_near_pairs(p, count):
    """The `count` near profile pairs at p with the most partition pairs."""
    pairs = [
        (len(admissible_partitions(p, pr1, pr2)), pr1, pr2)
        for i, pr1 in enumerate(cli._partitions_of(p))
        for pr2 in cli._partitions_of(p)[i:]
        if len(pr1) + len(pr2) > p + 1 and (p - len(pr1)) + (p - len(pr2)) <= p - 1
    ]
    return [(pr1, pr2) for _, pr1, pr2 in sorted(pairs, reverse=True)[:count]]


@pytest.mark.parametrize("p", [7, 11])
def test_the_heaviest_near_classifications_leave_no_cycle(p):
    specs = []
    for pr1, pr2 in heaviest_near_pairs(p, 5):
        u = len(pr1) + len(pr2) - p - 1
        epsilon = Fraction(p, u) + Fraction(1, 6)
        spec = [
            {"name": "a", "profile": pr1, "tail_with": "b", "epsilon": epsilon},
            {"name": "b", "profile": pr2},
        ]
        rest = (p - 1) - (p - len(pr1)) - (p - len(pr2))
        if rest:
            spec.append({"name": "c", "profile": (rest + 1,) + (1,) * (p - rest - 1)})
        specs.append(spec)

    def run():
        for spec in specs:
            classification = classify_formula(p, spec)
            models = classification.models
            assert len({m.canonical_key() for m in models}) == len(models) > 1
            assert all([m.to_json() for m in models] + [t.to_json() for t in classification.tails])

    assert unreachable_after(run) == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_the_atlas_rows_leave_no_cycle(p):
    assert unreachable_after(lambda: cli._atlas_rows(p)) == 0


def test_the_census_sees_a_recursive_closure():
    def leaky():
        memo = {}

        def walk(k):
            memo[k] = k and walk(k - 1)
            return memo[k]

        return walk(3)

    assert unreachable_after(leaky) > 0

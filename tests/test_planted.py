"""Shape and determinism of the curated cover suite."""

import random

import pytest

from padicover import classifier, kpoly, planted
from padicover.planted import PlantedInstance, build_cover, random_integral_cover, suite
from reference import random_integral_cover_by_evaluation, verify_planted


def test_suite_is_big_enough_and_covers_every_regime():
    instances = suite()
    assert len(instances) == 56
    names = [inst.name for inst in instances]
    assert len(set(names)) == len(names)
    seen = {inst.regimes for inst in instances}
    assert () in seen  # pure good reduction
    assert ("far",) in seen
    assert ("critical",) in seen
    assert ("near",) in seen
    primes = {inst.cover.ctx.p for inst in instances}
    assert primes == {3, 5, 7}


def test_every_planted_label_is_what_the_classifier_finds():
    for inst in suite():
        assert verify_planted(inst) is inst


def test_the_label_check_catches_a_drifted_label():
    cover = build_cover(5, 1, [(0, 3), (1, 2), (2, 2)])  # good reduction
    drifted = PlantedInstance("wrong", cover, ("near",))
    with pytest.raises(ValueError, match="drifted"):
        verify_planted(drifted)


def test_the_suite_builds_its_covers_and_classifies_none(monkeypatch):
    # the labels are checked above and by the benchmark's requests, so
    # building the suite builds no beta and runs no classifier
    calls = []
    eager = classifier.classify_cover

    def counted(cover):
        calls.append(cover)
        return eager(cover)

    monkeypatch.setattr(classifier, "classify_cover", counted)
    # a module that imports the classifier by name calls its own binding
    monkeypatch.setattr(planted, "classify_cover", counted, raising=False)
    instances = suite()
    assert calls == []
    assert [inst.name for inst in instances if "beta" in vars(inst.cover)] == []


def test_random_covers_are_reproducible_and_integral():
    a = [random_integral_cover(random.Random(7), p) for p in (3, 5)]
    b = [random_integral_cover(random.Random(7), p) for p in (3, 5)]
    for one, two in zip(a, b):
        assert one.beta == two.beta
        # monic of degree p with beta(0) = 0, integral with reduction X**p
        p, ctx = one.ctx.p, one.ctx
        beta = [kpoly.coefficient(one.beta, i) for i in range(kpoly.degree(one.beta) + 1)]
        assert (len(beta), beta[-1], beta[0]) == (p + 1, ctx.one(), ctx.zero())
        assert all(not b or b.val() > 0 for b in beta[:-1])
        values = [kpoly.eval_at(one.beta, x) for x, _ in one.critical.points]
        assert any(v.val() == 0 for v in values)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 31])
def test_random_covers_match_the_generator_that_evaluates_beta(p):
    # deciding by the residue of x makes the same draws and keeps the same ones
    for e in (1, 2, 3):
        new, old = random.Random(100 * p + e), random.Random(100 * p + e)
        for _ in range(200):
            a = random_integral_cover(new, p, e)
            b = random_integral_cover_by_evaluation(old, p, e)
            assert (a.beta.n, a.beta.rows, a.beta.den) == (b.beta.n, b.beta.rows, b.beta.den)
            assert a.critical.points == b.critical.points
            assert any(kpoly.eval_at(a.beta, x).scaled_val() == 0 for x, _ in a.critical.points)
        assert new.random() == old.random()


def test_a_cover_builds_its_beta_once_on_first_read(monkeypatch):
    # a drawn cover builds no beta; the first read builds it, later reads share it
    built = []
    eager = kpoly.antiderivative

    def counted(f, p):
        built.append(p)
        return eager(f, p)

    monkeypatch.setattr(kpoly, "antiderivative", counted)
    for p in (3, 5, 7, 11, 13, 17, 31):
        for e in (1, 2, 3):
            rng = random.Random(100 * p + e)
            covers = [random_integral_cover(rng, p, e) for _ in range(20)]
            assert built == []
            for cover in covers:
                beta = cover.beta
                assert built == [p]
                assert cover.beta is beta and built == [p]
                built.clear()
                roots = [(x, m - 1) for x, m in cover.critical.points]
                assert beta == eager(kpoly.from_roots(cover.ctx, roots), p)

"""Blow-up engine: agreement with the classifier and its failure modes."""

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from padicover import fppoly, kpoly, newton, oracle, planted
from padicover.branchtree import AllPointsCoalesce
from padicover.classifier import NotSimpleReduction, ThresholdUndefined, classify_cover
from padicover.cover import branch_data, from_critical_divisor
from padicover.field import FieldContext
from padicover.oracle import (
    CenterNotRoot,
    NonTermination,
    NotIntegralCover,
    OracleError,
    ResidualRootOutsideFp,
    _Node,
    _residual_table,
    blow_up,
    fundamental_model,
    run_oracle,
    separate_fibers,
)
from reference import derivative


def rational_cover(p, points, e=1):
    ctx = FieldContext(p, e)
    return from_critical_divisor(
        [(ctx.from_rational(Fraction(x)), m) for x, m in points], ctx
    )


def coefficients(f):
    return [kpoly.coefficient(f, i) for i in range(kpoly.degree(f) + 1)]


def assert_agrees(cover):
    """The oracle's model must match exactly one classifier candidate."""
    result = run_oracle(cover)
    classification = classify_cover(cover)
    matched = [m for m in classification.models if result.model.is_isomorphic_to(m)]
    assert len(matched) == 1
    return result, matched[0]


def test_totally_ramified_cover_needs_no_blow_ups():
    cover = rational_cover(5, [(0, 5)])
    result = run_oracle(cover)
    assert len(result.stages) == 0
    assert result.e == 1
    assert result.model.x_marks == {"C": (("0", 5), ("inf", 5))}
    assert result.model.y_marks == {"D": ("0", "inf")}
    vm = result.model.vertical["C"]
    assert (vm.target, vm.degree, vm.kind) == ("D", 5, "inseparable")


def test_good_reduction_star_agrees_with_classifier():
    cover = rational_cover(5, [(0, 3), (1, 2), (2, 2)])
    result, _ = assert_agrees(cover)
    assert len(result.stages) == 3
    # arms need radii 1/2, 1/3, 1/3, so the reported e is their lcm 6
    assert result.e == 6
    assert result.model.vertical["C"].kind == "inseparable"
    for name, vm in result.model.vertical.items():
        if name != "C":
            assert vm.kind == "etale"
            assert vm.degree == 5


def test_good_reduction_p3_stays_in_the_base_field():
    cover = rational_cover(3, [(0, 2), (1, 2)])
    result, _ = assert_agrees(cover)
    assert result.e == 1
    assert len(result.stages) == 2


def test_tail_far_regime_agrees():
    # critical points pi, 0, -1: the colliding values sit at distance 5/2 < 5
    ctx = FieldContext(5, 2)
    cover = from_critical_divisor(
        [
            (ctx.pi(), 3),
            (ctx.from_rational(Fraction(0)), 2),
            (ctx.from_rational(Fraction(-1)), 2),
        ],
        ctx,
    )
    result, _ = assert_agrees(cover)
    assert len(result.stages) == 4
    # junction at 1/2, profile arms at 1/4 and 1/6: the reported e is 12
    assert result.e == 12


def test_tail_critical_regime_agrees():
    cover = rational_cover(5, [(5, 3), (0, 2), (-1, 2)])
    result, matched = assert_agrees(cover)
    assert len(result.stages) == 2  # the junction plus one ordinary arm
    assert matched.partitions == ()
    # first stage is the junction: both colliding fibers, all seven points
    junction = result.stages[0]
    assert junction.participants == ("0", "3125/4")
    assert junction.nu == 1
    assert junction.m == 5
    assert junction.k == 7


def test_tail_near_regime_realizes_one_partition():
    cover = rational_cover(5, [(5, 3), (0, 2), (-23, 2)])
    result = run_oracle(cover)
    classification = classify_cover(cover)
    assert len(classification.models) == 2  # one candidate per admissible partition
    matched = [m for m in classification.models if result.model.is_isomorphic_to(m)]
    assert len(matched) == 1
    assert result.model.partitions == matched[0].partitions
    ((_pair, groups),) = result.model.partitions
    shape = tuple(sorted((d for d, _, _ in groups), reverse=True))
    assert shape in {(4, 1), (3, 2)}
    junction = result.stages[0]
    assert junction.participants == ("0", "78125/12")
    assert junction.nu == 1  # threshold radius: epsilon_0 / p = 5/5


def test_near_with_conjugate_groups_is_reported_not_fudged():
    # both tail criticals share one junction group here, so the two leftover
    # single-point groups pair up at conjugate residues outside F_5
    cover = rational_cover(5, [(2, 3), (0, 2), (5, 2)])
    with pytest.raises(ResidualRootOutsideFp, match="share a residual root"):
        run_oracle(cover)


def core_of(cover, node):
    """A node's core: beta at the root, else ``kpoly.rescale`` of its chart."""
    return cover.beta if node.chart is None else kpoly.rescale(*node.chart)


def carried(core, node, label):
    """A fiber's polynomial on a node of the given core: the core plus the
    fiber's offset."""
    return kpoly.sub(core, kpoly.from_elements(core.ctx, [-node.tracks[label]]))


def blow_up_root(cover, residue):
    """Blow up the naive model of a cover at a residue, with the residual
    multiplicities there read off the root's residual table."""
    state = fundamental_model(cover)
    root = state.nodes["C"]
    table, _, _ = _residual_table(root, state.ctx.p)
    return blow_up(state.ctx, root, cover.beta, residue, table.get(residue, {}))


def test_blow_up_rejects_a_center_that_is_not_a_root():
    cover = rational_cover(5, [(0, 5)])
    with pytest.raises(CenterNotRoot, match="not a root") as info:
        blow_up_root(cover, 3)
    assert str(info.value).endswith(" on C")


def test_blow_up_rejects_a_center_where_nothing_separates():
    cover = rational_cover(5, [(0, 5)])
    with pytest.raises(CenterNotRoot, match="nothing separates") as info:
        blow_up_root(cover, 0)
    assert str(info.value) == "all fiber points at residue 0 on C coincide; nothing separates"


def test_non_integral_cover_is_refused():
    cover = rational_cover(3, [(Fraction(1, 3), 3)])
    with pytest.raises(NotIntegralCover) as info:
        run_oracle(cover)
    assert str(info.value) == (
        "cover is not integral with p-th-power reduction: coefficient 1 has valuation -1 < 0"
    )


def test_integrality_pass():
    # beta = X^5 reduces to X^5; every integral critical divisor gives such a beta
    result = run_oracle(rational_cover(5, [(0, 5)]))
    assert result.stages == ()
    state = fundamental_model(rational_cover(5, [(0, 3), (5, 2), (-1, 2)]))
    assert len(state.nodes["C"].tracks) == 3


def test_integrality_violations():
    # the two witnesses: the first coefficient of negative valuation, else the
    # reduction when a lower coefficient is a unit
    for points, witness in (
        ([(Fraction(1, 5), 3), (0, 2), (1, 2)], "coefficient 2 has valuation -1 < 0"),
        (
            [(Fraction(1, 5), 2), (0, 2), (1, 2), (2, 2)],
            "reduction is 4*X^2 + X^3 + X^4 + X^5, not X^5",
        ),
    ):
        with pytest.raises(NotIntegralCover) as info:
            run_oracle(rational_cover(5, points))
        assert info.value.witness == witness
        assert str(info.value) == f"cover is not integral with p-th-power reduction: {witness}"


def random_divisor_cover(rng, p, den):
    """A cover at p whose critical points have denominator dividing den."""
    left, mults = p - 1, []
    while left:
        k = rng.randint(1, left)
        mults.append(k + 1)
        left -= k
    xs = set()
    while len(xs) < len(mults):
        xs.add(Fraction(rng.randint(-3 * den, 3 * den), den))
    return rational_cover(p, list(zip(sorted(xs), mults)))


def test_admission_is_one_scan_over_the_lower_coefficients():
    # refused exactly when a non-leading coefficient of beta is nonzero with
    # valuation <= 0; an admitted track is beta - lambda itself, content 0:
    # the root's core is beta, reducing to X**p, and the track's offset is -lambda
    rng = random.Random(11)
    seen = Counter()
    for p in (3, 5, 7):
        for den in (1, 2, p, p * p):
            for _ in range(20):
                cover = random_divisor_cover(rng, p, den)
                low = [(i, c.val()) for i, c in enumerate(coefficients(cover.beta)[:-1]) if c]
                negative = [(i, v) for i, v in low if v < 0]
                try:
                    state = fundamental_model(cover)
                except NotIntegralCover as exc:
                    if negative:
                        i, v = negative[0]
                        assert exc.witness == f"coefficient {i} has valuation {v} < 0"
                    else:
                        red = fppoly.fmt(kpoly.reduction(cover.beta))
                        assert exc.witness == f"reduction is {red}, not X^{p}"
                    assert any(v <= 0 for _, v in low)
                    seen["coefficient" if negative else "reduction"] += 1
                    continue
                assert all(v > 0 for _, v in low)
                # so _by_residue never meets a point outside the closed unit disc
                assert all(x.is_integral() for x, _ in cover.critical.points)
                root = state.nodes["C"]
                assert root.chart is None
                assert root.reduction == kpoly.reduction(cover.beta) == [0] * p + [1]
                for bp in branch_data(cover):
                    track = kpoly.sub(cover.beta, kpoly.from_elements(cover.ctx, [bp.value]))
                    assert root.tracks[bp.label] == -bp.value
                    assert carried(cover.beta, root, bp.label) == track
                    assert min(c.val() for c in coefficients(track) if c) == 0
                seen["admitted"] += 1
    assert seen == {"admitted": 128, "coefficient": 106, "reduction": 6}


def test_repeated_residual_root_outside_fp_is_an_error():
    # (X**2 + 3)**2 over F_5: a repeated irrational root; the core X**4 + X**2
    # carries the fiber with offset 4.  Its derivative 2X(2X**2 + 1) has
    # roots outside F_5, so no F_5-rational critical points can match it:
    # the Gauss's-lemma identity fails, and the disc is refused before any
    # root is read
    ctx = FieldContext(5, 1)
    offsets = {"a": ctx.from_rational(4)}
    node = _Node("C", None, None, None, [0, 0, 1, 0, 1], offsets, {}, 4, (0, 1))
    with pytest.raises(OracleError) as info:
        _residual_table(node, ctx.p)
    assert not isinstance(info.value, ResidualRootOutsideFp)
    assert str(info.value) == (
        "etale disc C: the reduced derivative of its core has degree 3, "
        "its critical points give 0"
    )


def test_stage_budget_is_a_loud_failure(monkeypatch):
    cover = rational_cover(5, [(0, 3), (1, 2), (2, 2)], e=6)
    monkeypatch.setattr(oracle, "MAX_BLOWUPS", 3)  # exactly the three arms
    assert len(separate_fibers(cover).stages) == 3
    monkeypatch.setattr(oracle, "MAX_BLOWUPS", 2)  # one short: the third must fail
    with pytest.raises(NonTermination, match="exceeded 2 blow-ups"):
        separate_fibers(cover)
    monkeypatch.setattr(oracle, "MAX_BLOWUPS", 1)
    with pytest.raises(NonTermination, match="exceeded 1 blow-ups"):
        separate_fibers(cover)


def test_every_stage_scales_the_image_by_the_local_degree():
    cover = rational_cover(5, [(5, 3), (0, 2), (-23, 2)])
    result = run_oracle(cover)
    for stage in result.stages:
        assert stage.nu > 0
        assert stage.m >= 1
        assert stage.k >= 2
    data = result.trace_json()
    assert [s["node"] for s in data] == [s.node for s in result.stages]
    assert all(set(s) >= {"node", "nu", "m", "k", "participants"} for s in data)


def test_blow_up_past_the_separating_radius_is_a_typed_error(monkeypatch):
    # the junction of this cover separates at nu = 1; doubling every reading
    # overshoots to nu = 2, so the image radius is not m * nu (a check that
    # survives python -O); the root count stays true, so the count check passes
    true_readings = newton.positive_roots

    def doubled(vals):
        count, rise, run = true_readings(vals)
        return count, None if rise is None else 2 * rise, run

    monkeypatch.setattr(newton, "positive_roots", doubled)
    cover = rational_cover(5, [(5, 3), (0, 2), (-1, 2)])
    with pytest.raises(OracleError, match="image radius increment") as info:
        blow_up_root(cover, 0)
    assert " at residue 0 on C: image radius increment " in str(info.value)


def test_critical_point_count_matches_the_squarefree_count(monkeypatch):
    # each stage's k, the distinct points in the child disc counted from the
    # carried critical points, against the positive roots of gcd(g, g') over
    # the field, g being each participating track translated to the center
    expected = []
    blow_up_once = oracle.blow_up

    def counted(ctx, node, core, wbar, mults):
        k = 0
        for label in mults:
            g = kpoly.translate(carried(core, node, label), ctx.from_rational(wbar))
            squarefree = newton.positive_root_count(kpoly.gcd_k(g, derivative(g)))
            k += newton.positive_root_count(g) - squarefree
        expected.append(k)
        return blow_up_once(ctx, node, core, wbar, mults)

    monkeypatch.setattr(oracle, "blow_up", counted)
    rng = random.Random(3)
    covers = [inst.cover for inst in planted.suite()]
    covers += [planted.random_integral_cover(rng, p) for p in (5, 7) for _ in range(10)]
    compared = 0
    for cover in covers:
        expected.clear()
        try:
            stages = separate_fibers(cover).stages
        except ResidualRootOutsideFp:
            continue
        assert [stage.k for stage in stages] == expected
        compared += len(stages)
    assert compared > len(covers)


def test_each_fiber_is_the_core_plus_a_constant_offset():
    # every stage against the per-fiber blow-up it replaces: the parent's
    # polynomial for the fiber, translated to the center, its argument scaled
    # by p**nu, then divided by its content, which must be m * nu, is the
    # child's core plus the fiber's offset; the core keeps constant term 0
    rng = random.Random(12)
    covers = [inst.cover for inst in planted.suite()]
    covers += [
        planted.random_integral_cover(rng, p, e)
        for p in (3, 5, 7, 11)
        for e in (1, 2)
        for _ in range(8)
    ]
    checked, shared = 0, 0
    for cover in covers:
        try:
            state = separate_fibers(cover)
        except ResidualRootOutsideFp:
            continue
        ctx = state.ctx
        assert not kpoly.coefficient(cover.beta, 0)
        for stage in state.stages:
            parent, child = state.nodes[stage.parent], state.nodes[stage.node]
            parent_core, core = core_of(cover, parent), core_of(cover, child)
            assert not kpoly.coefficient(core, 0)
            assert sorted(child.tracks) == list(stage.participants)
            lift = ctx.from_rational(stage.residue)
            for label in stage.participants:
                g = kpoly.translate(carried(parent_core, parent, label), lift)
                nu = stage.nu
                scaled = kpoly.scale_arg(g, ctx.uniformizer_power(nu.numerator, nu.denominator))
                prim, content = kpoly.primitive(scaled)
                assert content == stage.m * stage.nu
                assert carried(core, child, label) == prim
                checked += 1
            shared += len(stage.participants) > 1
    assert (checked, shared) == (353, 67)


def test_seeded_random_covers_agree_or_are_refused():
    # classifier against oracle on 450 seeded covers; the exact counts pin
    # both routes, and no cover may match zero or several candidates.  The
    # agreeing covers are also counted by how many candidates they had (1, 2,
    # 3 or more), so a change in which partition pairs exist shows here.
    # Every residual root outside F_p that refuses a cover is shared by two
    # fibers: a repeated one cannot occur (Gauss's lemma)
    refusals = (ThresholdUndefined, ResidualRootOutsideFp, AllPointsCoalesce, NotSimpleReduction)
    rng = random.Random(7)
    counts, candidates = Counter(), Counter()
    for p in (3, 5, 7):
        for _ in range(150):
            cover = planted.random_integral_cover(rng, p)
            try:
                classification = classify_cover(cover)
                result = run_oracle(cover)
            except refusals as exc:
                counts[type(exc).__name__] += 1
                if isinstance(exc, ResidualRootOutsideFp):
                    assert "share a residual root" in str(exc)
                continue
            matched = [m for m in classification.models if result.model.is_isomorphic_to(m)]
            counts["agree" if len(matched) == 1 else "disagree"] += 1
            if len(matched) == 1:
                candidates[min(len(classification.models), 3)] += 1
    assert counts == {
        "agree": 390,
        "ThresholdUndefined": 26,
        "ResidualRootOutsideFp": 29,
        "AllPointsCoalesce": 3,
        "NotSimpleReduction": 2,
    }
    assert candidates == {1: 372, 2: 18}  # none had 3 or more


@pytest.mark.parametrize(
    "p, seed, digest",
    [
        (101, 1, "c8b03490dc75e137f37eed44fd1a4d42b7626809a72de5e8dd87060dc1038fbf"),
        (101, 2, "7b27326de00642b7cf4529c7ec316b2d49c3d9ff5b8146edaa3329f7b7c14da3"),
        (211, 1, "87043c8713df54003d5195ccec69b4875c05c6e33cf2ba49dbe6bb8d7542d1a8"),
    ],
)
def test_large_prime_runs_are_pinned(p, seed, digest):
    # the model, trace and e of a random cover at a large p, pinned by the
    # sha256 of their canonical JSON; the two routes must agree
    cover = planted.random_integral_cover(random.Random(seed), p)
    result, _ = assert_agrees(cover)
    doc = {"model": result.model.to_json(), "trace": result.trace_json(), "e": result.e}
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest

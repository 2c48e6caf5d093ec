"""Coordinate changes that keep the separating model, and one that does not.

Each check builds seeded random covers at p <= 13, rewrites each one, and
runs both routes on the original and on the rewrite.  A refusal must be the
same refusal on both sides; otherwise the rewrite's models must be the
original's once each branch value label is renamed.  These checks need no
agreement between the routes, so they also guard code that only one route
runs.
"""

import contextlib
import io
import json
import random
from collections import Counter
from fractions import Fraction
from math import lcm

from padicover import cli, kpoly, planted
from padicover.branchtree import AllPointsCoalesce
from padicover.classifier import ClassifierError, classify_cover
from padicover.cover import branch_data, from_critical_divisor
from padicover.dualgraph import DualGraphPair, group_key
from padicover.field import FieldContext
from padicover.oracle import OracleError, run_oracle

PRIMES = (3, 5, 7, 11, 13)


def random_covers(seed, per_p=15):
    rng = random.Random(seed)
    return rng, [planted.random_integral_cover(rng, p) for p in PRIMES for _ in range(per_p)]


def label_of(value):
    """A branch value's label, written as ``cover.branch_data`` writes it."""
    strings = value.to_strings()
    return strings[0] if len(strings) == 1 else "(" + ",".join(strings) + ")"


def moved(cover, move):
    """The cover whose critical points are move(x) for the points x of `cover`,
    in the same order, with the same multiplicities."""
    points = [(move(x), m) for x, m in cover.critical.points]
    return from_critical_divisor(points, points[0][0].ctx)


def label_over(cover, value):
    """The label ``cover.branch_data`` gives the branch value `value`."""
    (label,) = [bp.label for bp in branch_data(cover) if bp.value == value]
    return label


def rename_by_points(before, after):
    """Label of each branch value of `before` -> label of the value of `after`
    over the corresponding critical points; `after` lists its critical points
    in the order of `before`."""
    old, new = (
        {x: label_over(c, kpoly.eval_at(c.beta, x)) for x, _ in c.critical.points}
        for c in (before, after)
    )
    pairs = {
        (old[x], new[y]) for (x, _), (y, _) in zip(before.critical.points, after.critical.points)
    }
    rename = dict(pairs)
    assert len(rename) == len(pairs) == len(set(rename.values()))  # no fiber splits or merges
    return rename


def relabelled(model, rename):
    """The model with each branch value label a renamed to rename[a]; a pair
    whose labels swap order has its groups' two fibers swapped."""
    def mark(label):
        return rename.get(label, label)  # "inf" keeps its name

    partitions = []
    for (a, b), groups in model.partitions:
        a, b = mark(a), mark(b)
        if a > b:
            a, b = b, a
            groups = tuple(sorted(((d, g2, g1) for d, g1, g2 in groups), key=group_key))
        partitions.append(((a, b), groups))
    return DualGraphPair(
        p=model.p, x_root=model.x_root, y_root=model.y_root,
        x_marks={n: tuple(sorted((mark(a), m) for a, m in ms)) for n, ms in model.x_marks.items()},
        y_marks={n: tuple(sorted(mark(a) for a in ms)) for n, ms in model.y_marks.items()},
        x_edges=model.x_edges, y_edges=model.y_edges, vertical=model.vertical,
        partitions=tuple(sorted(partitions)),
    ).validate()


def routes(cover):
    """(the classifier's models, the oracle's result), each replaced by the
    type of its refusal where the route refuses the cover."""
    out = []
    for route in (lambda c: classify_cover(c).models, run_oracle):
        try:
            out.append(route(cover))
        except (ClassifierError, OracleError, AllPointsCoalesce) as exc:
            out.append(type(exc))
    return tuple(out)


def same_answers(before, after, rename, e_after=lambda e: e):
    """Check that both routes answer `after` as they answer `before` once
    each label a is renamed rename[a], the oracle's e becoming e_after(e);
    "refused" if a route refuses both covers alike, else "same"."""
    (models, result), (models2, result2) = routes(before), routes(after)
    if isinstance(models, type) or isinstance(models2, type):
        assert models2 is models
    else:
        assert len(models2) == len(models)
        for model in models:
            renamed = relabelled(model, rename)
            assert sum(renamed.is_isomorphic_to(m) for m in models2) == 1
    if isinstance(result, type) or isinstance(result2, type):
        assert result2 is result
    else:
        assert relabelled(result.model, rename).is_isomorphic_to(result2.model)
        assert result2.e == e_after(result.e)
    refused = isinstance(models, type) or isinstance(result, type)
    return "refused" if refused else "same"


def affine(cover, u, c):
    """The cover under x -> u*x + c, and the renaming lambda -> u**p * lambda
    + beta_new(c) of its branch values, where beta_new(u*x + c) =
    u**p * beta(x) + beta_new(c), as beta_new' = u**(p-1) * beta'."""
    ctx = cover.ctx
    u, c = ctx.from_rational(u), ctx.from_rational(c)
    after = moved(cover, lambda x: u * x + c)
    shift, scale = kpoly.eval_at(after.beta, c), u ** ctx.p
    return after, {bp.label: label_of(scale * bp.value + shift) for bp in branch_data(cover)}


def cli_outputs(tmp_path, doc):
    """(exit code, stdout, stderr) of classify, with every emission, and of
    verify with its trace, on the exact-mode document `doc`."""
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(doc))
    out = []
    for argv in (
        ["classify", "--cover", str(path), "--emit", "both", "--emit-newton", "--emit-branch-tree"],
        ["verify", "--cover", str(path), "--emit", "both", "--trace"],
    ):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        out.append((code, stdout.getvalue(), stderr.getvalue()))
    return out


def test_the_critical_divisor_in_any_order_gives_the_same_output(tmp_path):
    rng, covers = random_covers(13)
    codes = Counter()
    for cover in covers:
        points = [{"x": x.to_strings(), "m": m} for x, m in cover.critical.points]
        doc = {"p": cover.ctx.p, "e": 1, "critical": points}
        shuffled = rng.sample(points, len(points))
        outputs = cli_outputs(tmp_path, doc)
        assert cli_outputs(tmp_path, {**doc, "critical": shuffled}) == outputs
        codes[tuple(code for code, _, _ in outputs)] += 1
    assert codes == {(0, 0): 58, (0, 4): 11, (4, 4): 6}


def test_the_same_cover_written_at_e_2_gives_the_same_model():
    _, covers = random_covers(11)
    counts = Counter()
    for cover in covers:
        ctx2 = FieldContext(cover.ctx.p, 2)
        after = moved(cover, lambda x: ctx2.element(x.to_strings() + ["0"]))
        rename = {bp.label: f"({bp.label},0)" for bp in branch_data(cover)}
        counts[same_answers(cover, after, rename, lambda e: lcm(2, e))] += 1
    assert counts == {"same": 55, "refused": 20}


def test_moving_every_critical_point_by_p_to_the_30_keeps_the_model():
    rng, covers = random_covers(17)
    counts = Counter()
    for cover in covers:
        p30 = cover.ctx.from_rational(cover.ctx.p**30)
        after = moved(cover, lambda x: x + p30 * rng.randint(-9, 9))
        counts[same_answers(cover, after, rename_by_points(cover, after))] += 1
    assert counts == {"same": 62, "refused": 13}


def test_a_unit_affine_change_keeps_the_model():
    rng, covers = random_covers(19)
    counts = Counter()
    for cover in covers:
        p = cover.ctx.p
        unit = Fraction(rng.choice([a for a in range(-9, 10) if a % p]), rng.choice([1, 2, 4, 8]))
        after, rename = affine(cover, unit, rng.randint(-2 * p, 2 * p))
        assert rename == rename_by_points(cover, after)
        counts[same_answers(cover, after, rename)] += 1
    assert counts == {"same": 64, "refused": 11}


def test_x_to_p_x_changes_the_model():
    # a known fact, not an invariance: the cover under x -> p*x has its own
    # model, so the refusal advice never suggests rescaling.  The counts over
    # the oracle's models are pinned: (same, changed, refused on either side)
    _, covers = random_covers(23)
    counts = Counter()
    for cover in covers:
        after, rename = affine(cover, cover.ctx.p, 0)
        (_, result), (_, result2) = routes(cover), routes(after)
        if isinstance(result, type) or isinstance(result2, type):
            counts[cover.ctx.p, "refused"] += 1
        else:
            same = relabelled(result.model, rename).is_isomorphic_to(result2.model)
            counts[cover.ctx.p, "same" if same else "changed"] += 1
    assert counts == {
        (3, "same"): 8, (3, "changed"): 7,
        (5, "same"): 4, (5, "changed"): 8, (5, "refused"): 3,
        (7, "same"): 2, (7, "changed"): 11, (7, "refused"): 2,
        (11, "same"): 2, (11, "changed"): 10, (11, "refused"): 3,
        (13, "same"): 1, (13, "changed"): 10, (13, "refused"): 4,
    }

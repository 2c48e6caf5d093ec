import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padicover import field, kpoly
from padicover.cover import (
    EXACT_P_BOUND,
    InvalidDivisor,
    branch_data,
    cover_from_json,
    from_critical_divisor,
)
from padicover.field import FieldContext
from reference import from_rationals


def coefficients(f):
    return [kpoly.coefficient(f, i) for i in range(kpoly.degree(f) + 1)]


def D(ctx, *pts):
    return [(ctx.from_rational(x), m) for x, m in pts]


def fiber(branch, value):
    (bp,) = [bp for bp in branch if bp.value == value]
    return bp


def points_over(cover, bp):
    """The critical points (x, m) of the cover whose branch value is bp's."""
    points = cover.critical.points
    return tuple((x, m) for x, m in points if kpoly.eval_at(cover.beta, x) == bp.value)


def rh_sum(branch):
    """sum of n over the finite branch values; (r - 2) p + 1 by Riemann-Hurwitz."""
    return sum(len(bp.profile) for bp in branch)


def test_degree_two_cover():
    K = FieldContext(2, 1)
    c = from_critical_divisor(D(K, (3, 2)), K)
    # beta = X^2 - 6X  (antiderivative of 2(X-3))
    assert c.beta == from_rationals(K, [0, -6, 1])


def test_pure_power_cover():
    K = FieldContext(3, 1)
    c = from_critical_divisor(D(K, (0, 3)), K)
    assert c.beta == from_rationals(K, [0, 0, 0, 1])
    (bp,) = branch_data(c)  # r = 2 with infinity
    assert bp.profile == (3,)
    assert (bp.label, points_over(c, bp)) == ("0", c.critical.points)
    assert rh_sum((bp,)) == 1


def test_showcase_shape_profiles():
    K = FieldContext(5, 1)
    c = from_critical_divisor(D(K, (0, 3), (2, 2), (3, 2)), K)
    branch = branch_data(c)
    profiles = sorted(bp.profile for bp in branch)
    assert profiles == [(2, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1)]
    assert rh_sum(branch) == 11  # (4-2)*5 + 1


def test_invalid_divisors():
    K = FieldContext(5, 1)
    for pts in (
        [(0, 3), (2, 2)],  # sum (m-1) = 3 != 4
        [(0, 1), (1, 2), (2, 2), (3, 2)],  # m = 1
        [(0, 3), (0, 2), (1, 2)],  # repeated point
        [(0, 3.0), (1, 2), (2, 2)],  # m not an integer
    ):
        with pytest.raises(InvalidDivisor):
            from_critical_divisor(D(K, *pts), K)
    K1009 = FieldContext(1009, 1)  # the least prime above the bound
    with pytest.raises(InvalidDivisor, match=f"p <= {EXACT_P_BOUND}, got p = 1009"):
        from_critical_divisor(D(K1009, (0, 1009)), K1009)


def test_shared_branch_value_grouping():
    # beta(2) = beta(0) = 0 for this divisor, giving one fiber of profile (2,2,1)
    K = FieldContext(5, 1)
    c = from_critical_divisor(D(K, (0, 2), (2, 2), (3, 2), (Fraction(9, 10), 2)), K)
    assert not kpoly.eval_at(c.beta, K.from_rational(2))
    branch = branch_data(c)
    zero_fiber = fiber(branch, K.zero())
    assert zero_fiber.profile == (2, 2, 1)
    assert points_over(c, zero_fiber) == ((K.zero(), 2), (K.from_rational(2), 2))
    assert len(branch) == 3  # r = 4 with infinity
    assert rh_sum(branch) == 11


def test_critical_multiplicity_reappears_in_profile():
    rng = random.Random(3)
    for _ in range(40):
        p = rng.choice([3, 5])
        K = FieldContext(p, 1)
        pts, left = [], p - 1
        used = set()
        while left > 0:
            m = rng.randint(2, min(p, left + 1))
            x = rng.randint(-6, 6)
            if x in used:
                continue
            used.add(x)
            pts.append((x, m))
            left -= m - 1
        c = from_critical_divisor(D(K, *pts), K)
        branch = branch_data(c)
        for x, m in pts:
            lam = kpoly.eval_at(c.beta, K.from_rational(x))
            assert m in fiber(branch, lam).profile
            assert (K.from_rational(x), m) in points_over(c, fiber(branch, lam))


def test_integrality_of_integral_covers():
    rng = random.Random(8)
    for _ in range(40):
        p = rng.choice([3, 5])
        K = FieldContext(p, 1)
        pts, left = [], p - 1
        used = set()
        while left > 0:
            m = rng.randint(2, min(p, left + 1))
            x = Fraction(rng.randint(-20, 20), rng.choice([1, 2, 7]))
            if x in used:
                continue
            used.add(x)
            pts.append((x, m))
            left -= m - 1
        c = from_critical_divisor(D(K, *pts), K)
        # monic of degree p with beta(0) = 0, and every lower coefficient in
        # the maximal ideal: integral with reduction X**p
        beta = coefficients(c.beta)
        assert (len(beta), beta[-1], beta[0]) == (p + 1, K.one(), K.zero())
        assert all(not b or b.val() > 0 for b in beta[:-1])


def test_cover_json_parsing():
    doc = {
        "p": 5,
        "e": 2,
        "critical": [
            {"x": "0", "m": 3},
            {"x": ["2", "1"], "m": 2},
            {"x": "3", "m": 2},
        ],
    }
    c = cover_from_json(doc)
    assert c.ctx.e == 2
    assert c.critical.points[1][0] == c.ctx.element([2, 1])
    branch = branch_data(c)
    assert rh_sum(branch) == 11
    # labels are the value strings, parenthesized when e > 1, in sorted order
    assert [bp.label for bp in branch] == [
        "(" + ",".join(bp.value.to_strings()) + ")" for bp in branch
    ]
    assert [bp.value.to_strings() for bp in branch] == sorted(
        bp.value.to_strings() for bp in branch
    )


def test_a_branch_value_too_long_to_write_is_an_invalid_divisor():
    # beta(10**900) has about 4,500 digits, over Python's int-to-string limit
    doc = {
        "p": 5,
        "critical": [{"x": "1" + "0" * 900, "m": 3}, {"x": "0", "m": 2}, {"x": "1", "m": 2}],
    }
    with pytest.raises(InvalidDivisor, match=r"critical point 0 \(m = 3\).*-digit limit"):
        branch_data(cover_from_json(doc))


def test_the_classify_exact_points_parse_without_the_general_form(monkeypatch):
    """Every point of the classify-exact documents is a rational (n = 1), at
    e = 1 and e = 2 alike, so none goes through field._from_pairs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    docs = [req.doc for req in workloads.setup_classify_exact(random.Random(1))]
    assert len(docs) == 2000 and {doc["e"] for doc in docs} == {1, 2}
    calls, general = [], field._from_pairs
    monkeypatch.setattr(field, "_from_pairs", lambda *args: calls.append(args) or general(*args))
    points = [x for doc in docs for x, _ in cover_from_json(doc).critical.points]
    assert len(points) > 2000 and all(x.n == 1 for x in points)
    assert calls == []

import random
from fractions import Fraction

import pytest

from padicover import kpoly
from padicover.cover import (
    CriticalDivisor,
    InvalidDivisor,
    NeedsExtension,
    NotEnoughBranchPoints,
    _rational_pth_root,
    branch_data,
    cover_from_json,
    from_critical_divisor,
    normalize,
)
from padicover.field import FieldContext


def D(ctx, *pts):
    return CriticalDivisor(tuple((ctx.from_rational(x), m) for x, m in pts), ctx.p)


def test_degree_two_cover():
    K = FieldContext(2, 1)
    c = from_critical_divisor(D(K, (3, 2)), K)
    # beta = X^2 - 6X  (antiderivative of 2(X-3))
    assert c.beta_list() == kpoly.from_rationals(K, [0, -6, 1])


def test_pure_power_cover():
    K = FieldContext(3, 1)
    c = from_critical_divisor(D(K, (0, 3)), K)
    assert c.beta_list() == kpoly.from_rationals(K, [0, 0, 0, 1])
    ram = branch_data(c)
    assert ram.r == 2
    assert ram.branch[0].profile == (3,)
    assert ram.rh_identity() == 1


def test_showcase_shape_profiles():
    K = FieldContext(5, 1)
    c = from_critical_divisor(D(K, (0, 3), (2, 2), (3, 2)), K)
    ram = branch_data(c)
    profiles = sorted(bp.profile for bp in ram.branch)
    assert profiles == [(2, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1)]
    assert ram.rh_identity() == 11  # (4-2)*5 + 1


def test_invalid_divisors():
    K = FieldContext(5, 1)
    with pytest.raises(InvalidDivisor):
        D(K, (0, 3), (2, 2))  # sum (m-1) = 3 != 4
    with pytest.raises(InvalidDivisor):
        D(K, (0, 1), (1, 2), (2, 2), (3, 2))  # m = 1
    with pytest.raises(InvalidDivisor):
        D(K, (0, 3), (0, 2), (1, 2))  # repeated point
    # raw-coefficient entry requires a matching divisor
    from padicover.cover import Cover

    good = from_critical_divisor(D(K, (0, 5)), K)
    with pytest.raises(InvalidDivisor):
        Cover.from_beta(good.beta_list(), D(K, (1, 5)), K)
    rebuilt = Cover.from_beta(good.beta_list(), good.critical, K)
    assert rebuilt.beta == good.beta


def test_shared_branch_value_grouping():
    # beta(2) = beta(0) = 0 for this divisor, giving one fiber of profile (2,2,1)
    K = FieldContext(5, 1)
    c = from_critical_divisor(D(K, (0, 2), (2, 2), (3, 2), (Fraction(9, 10), 2)), K)
    assert c.value_at(K.from_rational(2)).is_zero()
    ram = branch_data(c)
    zero_fiber = ram.find(K.zero())
    assert zero_fiber.profile == (2, 2, 1)
    assert ram.r == 4
    ram.rh_identity()


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
        ram = branch_data(c)
        for x, m in pts:
            lam = c.value_at(K.from_rational(x))
            assert m in ram.find(lam).profile


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
        assert c.integrality().integral


def test_normalize_identity_when_already_standard():
    K = FieldContext(5, 1)
    c = from_critical_divisor(D(K, (0, 3), (2, 2), (3, 2)), K)
    res = normalize(c)
    assert res.change.is_identity()
    assert res.cover is c
    assert res.status == "semi_normalized"  # 0 present, other values units but != 1


def test_normalize_needs_extension_for_deep_values():
    # branch values {0, -27/2} at p=3: all differences have positive valuation,
    # and fixing that needs an X-rescale by a p-th root the field lacks
    K = FieldContext(3, 1)
    c = from_critical_divisor(D(K, (0, 2), (3, 2)), K)
    lam = c.value_at(K.from_rational(3))
    assert lam.val() == 3
    with pytest.raises(NeedsExtension):
        normalize(c)


def test_normalize_translates_anchor_to_origin():
    K = FieldContext(5, 1)
    c = from_critical_divisor(D(K, (3, 3), (4, 2), (5, 2)), K)
    res = normalize(c)
    ram = branch_data(res.cover)
    values = [bp.value for bp in ram.branch]
    assert any(v.is_zero() for v in values)
    zero_fiber = res.cover.ctx.zero()
    assert res.cover.value_at(zero_fiber).is_zero()
    profiles = sorted(bp.profile for bp in ram.branch)
    assert profiles == [(2, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1)]
    assert res.status == "semi_normalized"
    assert res.change.x_shift == K.from_rational(3)


def test_normalize_rescales_pth_power_to_one():
    # branch values {0, 32, -864}: 32 = 2^5 rescales exactly to 1
    K = FieldContext(5, 1)
    c = from_critical_divisor(D(K, (0, 3), (2, 2), (6, 2)), K)
    assert c.value_at(K.from_rational(2)) == K.from_rational(32)
    res = normalize(c)
    assert res.status == "normalized"
    values = [bp.value for bp in branch_data(res.cover).branch]
    assert K.one() in values and K.zero() in values
    assert res.change.x_scale == K.from_rational(2)
    assert res.change.t_scale == K.from_rational(32)
    # profiles are invariants of the change of coordinates
    assert sorted(bp.profile for bp in branch_data(res.cover).branch) == sorted(
        bp.profile for bp in branch_data(c).branch
    )


def test_rational_pth_root_is_exact_beyond_float_range():
    assert _rational_pth_root(Fraction(7**400), 5) == 7**80
    assert _rational_pth_root(Fraction(-(3**500), 2**50), 5) == Fraction(-(3**100), 2**10)
    assert _rational_pth_root(Fraction(7**400 + 1), 5) is None
    assert _rational_pth_root(Fraction(32, 243), 5) == Fraction(2, 3)


def test_normalize_single_branch_value():
    K = FieldContext(3, 1)
    c = from_critical_divisor(D(K, (1, 3)), K)
    res = normalize(c)
    assert res.status == "not_enough_branch_points"
    ram = branch_data(res.cover)
    assert len(ram.branch) == 1 and ram.branch[0].value.is_zero()
    with pytest.raises(NotEnoughBranchPoints):
        normalize(c, strict=True)


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
    assert branch_data(c).rh_identity() == 11

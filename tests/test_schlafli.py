"""Pair validation, splitting rules, matrices and characteristic polynomials."""

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypq import polyint, schlafli
from hypq.errors import (
    DegenerateInput,
    NotHyperbolic,
    SchemeParityMismatch,
    UnknownRegion,
    UnsupportedCase,
)
from hypq.schlafli import (
    IntMatrix,
    Region,
    Scheme,
    _fan_blocks,
    auto_schemes,
    build_system,
    characteristic_polynomial,
    splitting_matrix,
    validate,
)
from hypq.verify import ODD_PAIRS
from sweep_sample import SWEEP_SAMPLE

#: SHA-256 over repr(build_system(pair, scheme)) of each case in order,
#: recorded when every scheme still wrote its own rules: the sweep sample,
#: and every desk pair (p 4..12, odd q 5..13) under odd-legacy.
SAMPLE_RULES_SHA256 = "682bce071585711efd23f66d6c58dd2098301b27f6ce5e840e3a568a2a2dba97"
LEGACY_DESK_RULES_SHA256 = "ef4303dc96fb1c2ce2f8b79bc88df5a1325223a01016d6ef51e07060578f86fc"


def test_validate_accepts_hyperbolic_pairs():
    pair = validate(5, 4)
    assert (pair.p, pair.q, pair.h) == (5, 4, 2)
    assert str(pair) == "{5,4}"
    assert validate(4, 5).h == 2
    assert validate(5, 7).h == 3
    assert validate(7, 3).h == 1  # hyperbolic, though no scheme applies


def test_validate_rejects_degenerate_and_non_hyperbolic():
    for p, q in [(2, 7), (7, 2), (1, 1), (0, 5), (-4, 5)]:
        with pytest.raises(DegenerateInput):
            validate(p, q)
    # spherical and Euclidean pairs: p*q <= 2(p+q)
    for p, q in [(3, 3), (3, 4), (4, 3), (3, 5), (4, 4), (3, 6), (6, 3)]:
        with pytest.raises(NotHyperbolic):
            validate(p, q)


@given(st.integers(3, 40), st.integers(3, 40))
def test_validate_matches_angle_sum_criterion(p, q):
    # hyperbolic iff the interior angle 2pi/q is below the Euclidean
    # polygon angle pi(p-2)/p, i.e. 1/p + 1/q < 1/2, i.e. pq > 2(p+q)
    hyperbolic = q * p - 2 * p - 2 * q > 0
    if hyperbolic:
        assert validate(p, q).p == p
    else:
        with pytest.raises(NotHyperbolic):
            validate(p, q)


def test_scheme_tags_round_trip():
    for scheme in Scheme:
        assert Scheme(scheme.tag) is scheme
    with pytest.raises(ValueError):
        Scheme("nonsense")


def test_scheme_facts():
    assert [s.head for s in Scheme] == [
        Region.S0, Region.S0, Region.S0, Region.S0_PRIME,
    ]
    assert [s.scale for s in Scheme] == [1, 1, 1, 2]
    assert auto_schemes(validate(5, 4)) == (Scheme.EVEN_Q,)
    assert auto_schemes(validate(5, 7)) == (Scheme.ODD_V1, Scheme.ODD_V2)
    for pair, scheme in SWEEP_SAMPLE:
        assert build_system(pair, scheme).seed is scheme.head


def test_parity_guards():
    with pytest.raises(SchemeParityMismatch):
        build_system(validate(5, 4), Scheme.ODD_V1)
    with pytest.raises(SchemeParityMismatch):
        build_system(validate(5, 4), Scheme.ODD_V2)
    with pytest.raises(SchemeParityMismatch):
        build_system(validate(5, 7), Scheme.EVEN_Q)


def test_small_p_and_small_h_guards():
    with pytest.raises(UnsupportedCase):
        build_system(validate(3, 8), Scheme.EVEN_Q)
    with pytest.raises(UnsupportedCase):
        build_system(validate(3, 7), Scheme.ODD_V1)
    # odd q below 5 never reaches the h guard: {p,3} needs p >= 7 and
    # h = 1 there
    with pytest.raises(UnsupportedCase):
        build_system(validate(7, 3), Scheme.ODD_V1)


def test_even_scheme_rules_for_5_4():
    system = build_system(validate(5, 4), Scheme.EVEN_Q)
    assert system.seed is Region.S0
    assert system.regions == (Region.S0, Region.S1)
    r0 = system.rule(Region.S0)
    # f = (5-3)(2-1) = 2, g = (5-2)(2-1) - 2 = 1
    assert r0.children == ((Region.S0, 2), (Region.S1, 1))
    r1 = system.rule(Region.S1)
    assert r1.children == ((Region.S0, 1), (Region.S1, 1))
    with pytest.raises(UnknownRegion):
        system.rule(Region.S0_PRIME)


def test_odd_v1_rules_for_5_7():
    system = build_system(validate(5, 7), Scheme.ODD_V1)
    assert system.seed is Region.S0
    # f = 2*2 = 4, g = 3*2 - 2 = 4
    assert system.rule(Region.S0).children == (
        (Region.S0, 4), (Region.S0_PRIME, 1), (Region.S1, 1),
    )
    assert system.rule(Region.S0_PRIME).children == (
        (Region.S0, 4), (Region.S1, 1),
    )
    assert system.rule(Region.S1).children == ((Region.S0, 4), (Region.S1, 1))


def test_odd_v2_rules_for_5_7():
    system = build_system(validate(5, 7), Scheme.ODD_V2)
    assert system.seed is Region.S0_PRIME
    assert system.rule(Region.S0_PRIME).children == (
        (Region.S0_PRIME, 8), (Region.S1, 1),
    )
    assert system.rule(Region.S1).children == ((Region.S0_PRIME, 8), (Region.S1, 1))


def test_legacy_scheme_shares_the_even_matrix():
    pair = validate(5, 7)
    legacy = splitting_matrix(build_system(pair, Scheme.ODD_LEGACY))
    assert legacy.entries == ((4, 1), (4, 1))
    assert characteristic_polynomial(legacy) == (1, -5, 0)


def test_matrix_rows_follow_rule_order():
    system = build_system(validate(6, 9), Scheme.ODD_V1)
    m = splitting_matrix(system)
    assert m.order == 3
    # f = 3*3 = 9, g = 4*3 - 2 = 10
    assert m.entries == ((9, 1, 1), (9, 0, 1), (10, 0, 1))
    assert m.row(Region.S0_PRIME) == (9, 0, 1)


def test_characteristic_polynomial_is_monic_and_exact():
    # an independent 2x2 oracle: X^2 - trace*X + det
    for p, q in [(5, 4), (6, 4), (8, 6), (4, 10)]:
        m = splitting_matrix(build_system(validate(p, q), Scheme.EVEN_Q))
        (a, b), (c, d) = m.entries
        assert characteristic_polynomial(m) == (1, -(a + d), a * d - b * c)


def test_characteristic_polynomial_orders():
    assert characteristic_polynomial(IntMatrix((Region.S0,), ((3,),))) == (1, -3)
    four = IntMatrix((Region.S0,) * 4, ((1, 0, 0, 0),) * 4)
    with pytest.raises(ValueError):
        characteristic_polynomial(four)


def test_characteristic_polynomial_cubic_oracle():
    # det(xI - M) evaluated at more points than the degree pins the monic
    # cubic uniquely, so exact agreement at each x is a full check
    def det3(m):
        (a, b, c), (d, e, f), (g, h, i) = m
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    m = splitting_matrix(build_system(validate(5, 7), Scheme.ODD_V1))
    poly = characteristic_polynomial(m)
    for x in range(-3, 4):
        shifted = [
            [(x if r == c else 0) - m.entries[r][c] for c in range(3)]
            for r in range(3)
        ]
        assert polyint.eval_at(poly, x) == det3(shifted)


def test_fan_sizes_scale_with_scheme():
    pair = validate(5, 7)  # h = 3
    v1 = build_system(pair, Scheme.ODD_V1)
    v2 = build_system(pair, Scheme.ODD_V2)
    for system, scale in ((v1, 1), (v2, 2)):
        head = system.rule(system.seed)
        assert all(size % scale == 0 for _, size in head.fans)
    assert v1.rule(Region.S0).fans == v1.rule(Region.S0_PRIME).fans


def _fan_blocks_per_label(p, h, scale):
    """Oracle: the head and tail fan layouts each formatted label by label,
    as _fan_blocks built them before the tail reused the head's fans."""
    head = tuple((f"V{i}", scale * (h - 1)) for i in range(2, p - 1))
    tail = (
        (("V2", scale * (h - 2)),)
        + tuple((f"V{i}", scale * (h - 1)) for i in range(3, p - 1))
        + (("V1", scale * (h - 2)),)
    )
    return head, tail


def test_fan_blocks_equal_the_per_label_oracle():
    # every p in 4..900 once, cycling through every (h, scale) with h in
    # 2..40 and scale 1 or 2, so each combination meets many p
    combos = [(h, scale) for scale in (1, 2) for h in range(2, 41)]
    for p in range(4, 901):
        h, scale = combos[p % len(combos)]
        assert _fan_blocks(p, h, scale) == _fan_blocks_per_label(p, h, scale)
    for h, scale in combos:
        for p in (4, 5, 6, 900):
            assert _fan_blocks(p, h, scale) == _fan_blocks_per_label(p, h, scale)


def test_rules_equal_the_per_label_oracle_on_the_sweep_sample(monkeypatch):
    built = [build_system(pair, scheme).rules for pair, scheme in SWEEP_SAMPLE]
    monkeypatch.setattr(schlafli, "_fan_blocks", _fan_blocks_per_label)
    expected = [build_system(pair, scheme).rules for pair, scheme in SWEEP_SAMPLE]
    assert built == expected


def _rules_digest(cases):
    digest = hashlib.sha256()
    for pair, scheme in cases:
        digest.update(repr(build_system(pair, scheme)).encode())
    return digest.hexdigest()


def test_rules_are_pinned_on_the_sweep_sample():
    assert _rules_digest(SWEEP_SAMPLE) == SAMPLE_RULES_SHA256


def test_legacy_rules_are_pinned_on_the_desk():
    cases = [(validate(p, q), Scheme.ODD_LEGACY) for p, q in ODD_PAIRS]
    assert len(cases) == 45
    assert _rules_digest(cases) == LEGACY_DESK_RULES_SHA256

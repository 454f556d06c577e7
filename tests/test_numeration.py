"""Numeration systems: basis growth, greedy and maximal digit strings."""

import functools
import random
import time
from bisect import bisect_right
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypq import numeration
from hypq.errors import DigitOutOfRange, Unrepresentable
from hypq.numeration import (
    _survey,
    _Table,
    basis,
    decode,
    enumerate_language,
    find_maximal_ties,
    grow,
    represent_greedy,
    represent_maximal,
)
from hypq.schlafli import Scheme, validate
from hypq.spectral import analyze
from hypq.verify import _desk_cases

FIVE_FOUR = basis(validate(5, 4), Scheme.EVEN_Q, 8)
FIVE_SEVEN = basis(validate(5, 7), Scheme.ODD_V1, 8)


def test_basis_terms_and_bound():
    assert FIVE_FOUR.terms == (1, 3, 8, 21, 55, 144, 377, 987)
    assert FIVE_FOUR.digit_bound == 2
    assert FIVE_FOUR.coefficients == (-1, 3)

    # cubic recurrence seeded with three level counts
    assert FIVE_SEVEN.terms[:4] == (1, 6, 34, 194)
    assert FIVE_SEVEN.digit_bound == 5


def test_basis_input_validation():
    with pytest.raises(ValueError):
        basis(validate(5, 4), Scheme.EVEN_Q, 0)


def test_short_basis_keeps_the_seed_and_grows_right():
    # fewer terms asked than the cubic's degree: the three seed terms stay,
    # so growing continues the recurrence instead of a truncated window
    pair = validate(5, 7)
    short = basis(pair, Scheme.ODD_V1, 2)
    assert short.terms == (1, 6, 34)
    assert grow(short, 6).terms == basis(pair, Scheme.ODD_V1, 6).terms
    assert grow(short, 6).terms == (1, 6, 34, 194, 1106, 6306)
    assert basis(validate(5, 4), Scheme.EVEN_Q, 1).terms == (1, 3)


def test_grow_is_pure_and_consistent():
    longer = grow(FIVE_FOUR, 12)
    assert len(FIVE_FOUR) == 8  # input untouched
    assert longer.terms[:8] == FIVE_FOUR.terms
    assert len(longer) == 12
    for a, b, c in zip(longer.terms, longer.terms[1:], longer.terms[2:]):
        assert c == 3 * b - a
    assert grow(FIVE_FOUR, 3) is FIVE_FOUR
    # the search state stays out of the value
    assert longer == grow(basis(validate(5, 4), Scheme.EVEN_Q, 8), 12)
    assert repr(FIVE_FOUR) == (
        "BasisSequence(terms=(1, 3, 8, 21, 55, 144, 377, 987), "
        "coefficients=(-1, 3), digit_bound=2)"
    )


def test_decode_checks_digits():
    assert decode((2, 1), FIVE_FOUR) == 7
    assert decode((0,), FIVE_FOUR) == 0
    with pytest.raises(DigitOutOfRange):
        decode((3, 0), FIVE_FOUR)
    with pytest.raises(DigitOutOfRange, match="digit -1 outside 0..2"):
        decode((1, -1, 3), FIVE_FOUR)
    with pytest.raises(DigitOutOfRange, match="digit 3 outside 0..2"):
        decode((1, 3, -1), FIVE_FOUR)
    assert decode((), FIVE_FOUR) == 0
    # longer strings than the stored basis grow it on the fly
    assert decode((1,) + (0,) * 9, FIVE_FOUR) == grow(FIVE_FOUR, 10).terms[9]


def test_greedy_known_strings():
    # 7 = 2*3 + 1*1 over 1, 3, 8, ...
    assert represent_greedy(7, FIVE_FOUR).digits == (2, 1)
    assert represent_greedy(0, FIVE_FOUR).digits == (0,)
    assert represent_greedy(8, FIVE_FOUR).digits == (1, 0, 0)
    assert represent_greedy(20, FIVE_FOUR).digits == (2, 1, 1)


def test_maximal_can_disagree_with_greedy():
    # a longest string leads with the largest term not exceeding the
    # value, exactly where greedy starts, so the two strings share their
    # length whenever greedy completes; the representative may still
    # differ, as for 16 = 2*8 = 1*8 + 2*3 + 2*1
    assert represent_greedy(16, FIVE_FOUR).digits == (2, 0, 0)
    m = represent_maximal(16, FIVE_FOUR)
    assert m.digits == (1, 2, 2)
    for value in range(300):
        g = represent_greedy(value, FIVE_FOUR)
        assert len(represent_maximal(value, FIVE_FOUR).digits) == len(g.digits)


def test_maximal_tie_break_is_lexicographic():
    # 16 = 2*8 = 1*8 + 2*3 + 2*1: two longest strings, the smaller wins
    ties = find_maximal_ties(FIVE_FOUR, 2, 3)
    assert 16 in ties
    assert ties[16] == [(1, 2, 2), (2, 0, 0)]
    assert represent_maximal(16, FIVE_FOUR).digits == (1, 2, 2)


def test_maximal_agrees_with_exhaustive_survey():
    best = {}
    for digits in enumerate_language(FIVE_FOUR, 2, 6):
        best[decode(digits, FIVE_FOUR)] = digits
    horizon = grow(FIVE_FOUR, 7).terms[6]  # above it, 7-digit strings win
    for value, want in sorted(best.items()):
        if value >= horizon:
            continue
        got = represent_maximal(value, FIVE_FOUR)
        assert got.digits == want, value


def test_maximal_round_trip_and_leading_digit():
    for value in range(2001):
        rep = represent_maximal(value, FIVE_FOUR)
        assert decode(rep.digits, FIVE_FOUR) == value
        assert rep.value == value
        if value:
            assert rep.digits[0] >= 1
        assert all(0 <= d <= 2 for d in rep.digits)


def test_maximal_with_explicit_bound():
    # bound 1 over the same basis: some values drop out entirely
    assert represent_maximal(4, FIVE_FOUR, bound=1).digits == (1, 1)
    with pytest.raises(Unrepresentable):
        represent_maximal(7, FIVE_FOUR, bound=1)
    with pytest.raises(Unrepresentable):
        represent_maximal(1, FIVE_FOUR, bound=0)
    with pytest.raises(ValueError):
        represent_maximal(-1, FIVE_FOUR)


def test_golden_ratio_case_has_gaps():
    # {4,5} first odd variant: beta is the golden ratio, digit bound 1,
    # basis 1, 3, 6, 11, 19, ...; small integers fall through the gaps
    seq = basis(validate(4, 5), Scheme.ODD_V1, 8)
    assert seq.digit_bound == 1
    assert seq.terms[:5] == (1, 3, 6, 11, 19)
    representable = set()
    for value in range(30):
        try:
            rep = represent_maximal(value, seq)
        except Unrepresentable:
            continue
        assert decode(rep.digits, seq) == value
        representable.add(value)
    assert representable.isdisjoint({2, 5, 8})
    assert {0, 1, 3, 4, 6, 7, 9, 10, 11} <= representable


def test_enumerate_language_guard():
    with pytest.raises(ValueError):
        enumerate_language(FIVE_FOUR, 2, 0)
    with pytest.raises(ValueError):
        enumerate_language(FIVE_FOUR, 2, 13)


def test_find_maximal_ties_refuses_before_the_work():
    # 13 digits would take seconds; the guard answers at once
    for max_len in (0, 13):
        t0 = time.perf_counter()
        with pytest.raises(ValueError):
            find_maximal_ties(basis(validate(5, 4), Scheme.EVEN_Q, 8), 2, max_len)
        assert time.perf_counter() - t0 < 1.0


@settings(max_examples=60)
@given(st.integers(0, 200000))
def test_round_trip_property_5_7(value):
    rep = represent_maximal(value, FIVE_SEVEN)
    assert decode(rep.digits, FIVE_SEVEN) == value
    greedy = represent_greedy(value, FIVE_SEVEN)
    assert decode(greedy.digits, FIVE_SEVEN) == value
    assert len(rep.digits) >= len(greedy.digits)


@settings(max_examples=40)
@given(st.integers(0, 5000), st.integers(0, 5000))
def test_representation_is_injective(a, b):
    ra = represent_maximal(a, FIVE_FOUR).digits
    rb = represent_maximal(b, FIVE_FOUR).digits
    assert (ra == rb) == (a == b)


# ------------------------------------------- interval lemma and its oracle


class _MemoOnly:
    """The memoized feasibility search with no interval shortcut: the
    reference the closed-form path must agree with."""

    def __init__(self, terms, bound):
        self.terms = terms
        self.bound = bound
        self.max_sum = [0]
        for t in terms:
            self.max_sum.append(self.max_sum[-1] + bound * t)
        self.memo = {}

    def can(self, k, r):
        if r == 0:
            return True
        if k <= 0 or r < 0 or r > self.max_sum[k]:
            return False
        key = (k, r)
        hit = self.memo.get(key)
        if hit is None:
            t = self.terms[k - 1]
            hit = any(
                self.can(k - 1, r - d * t) for d in range(min(self.bound, r // t) + 1)
            )
            self.memo[key] = hit
        return hit


def _memo_only_maximal(value, seq, bound=None):
    """Longest, then lexicographically least, digit string; None if none."""
    bound = seq.digit_bound if bound is None else bound
    if value == 0:
        return (0,)
    while seq.terms[-1] <= value:
        seq = grow(seq, len(seq.terms) + len(seq.coefficients))
    feas = _MemoOnly(seq.terms, bound)
    terms = seq.terms
    k_max = max(i + 1 for i, t in enumerate(terms) if t <= value)
    for length in range(k_max, 0, -1):
        t = terms[length - 1]
        if any(
            feas.can(length - 1, value - d * t)
            for d in range(1, min(bound, value // t) + 1)
        ):
            break
    else:
        return None
    digits, r = [], value
    for pos in range(length, 0, -1):
        t = terms[pos - 1]
        lo = 1 if pos == length else 0
        d = next(
            d for d in range(lo, min(bound, r // t) + 1) if feas.can(pos - 1, r - d * t)
        )
        digits.append(d)
        r -= d * t
    return tuple(digits)


def _maximal_or_none(value, seq, bound=None):
    try:
        return represent_maximal(value, seq, bound).digits
    except Unrepresentable:
        return None


ORACLE_CASES = [
    ((5, 4), Scheme.EVEN_Q),
    ((8, 6), Scheme.EVEN_Q),
    ((5, 7), Scheme.ODD_V1),
    ((5, 7), Scheme.ODD_V2),
    ((12, 13), Scheme.ODD_V1),
    ((4, 5), Scheme.ODD_V1),
    ((4, 5), Scheme.ODD_V2),
]


def _interval(pair, scheme, n=80):
    seq = basis(pair, scheme, n)
    return _Table(seq.terms, seq.coefficients, seq.digit_bound).interval


def test_interval_condition_on_the_desk_cases():
    regular = 0
    for pair, scheme in _desk_cases():
        if analyze(pair, scheme).regular:
            assert _interval(pair, scheme) == 80, (pair, scheme)
            regular += 1
    assert regular == 132
    # {4,5}, first variant: 1, 3, ... with digits 0..1 fails at the second
    # term (3 > 1 + 1*1); the second, 2^k - 1 with digits 0..2, meets it
    assert _interval(validate(4, 5), Scheme.ODD_V1) == 1
    assert _interval(validate(4, 5), Scheme.ODD_V2) == 80


def test_feasibility_matches_reachable_sets():
    # the lemma inside the prefix, the memo above it: both against the
    # reachable sets built by brute force
    for seq, bound in [
        (FIVE_FOUR, 2),
        (FIVE_FOUR, 1),
        (basis(validate(4, 5), Scheme.ODD_V1, 8), 1),
    ]:
        feas = _Table(seq.terms[:7], seq.coefficients, bound)
        reach = {0}
        for k, t in enumerate(seq.terms[:7], 1):
            reach = {v + d * t for v in reach for d in range(bound + 1)}
            top = feas.max_sum[k]
            assert {r for r in range(-1, top + 2) if feas.can(k, r)} == reach
            if k <= feas.interval:
                assert reach == set(range(top + 1))


def test_maximal_equals_the_memo_only_oracle():
    rng = random.Random(20261017)
    huge = [rng.randrange(10**20, 10**30) for _ in range(60)]
    for (p, q), scheme in ORACLE_CASES:
        seq = basis(validate(p, q), scheme, 8)
        for value in [*range(3001), *huge]:
            assert _maximal_or_none(value, seq) == _memo_only_maximal(value, seq), (
                p, q, scheme, value,
            )
    # an explicit bound leaves the prefix early: 3 > 1 + 1*1 over 1, 3, 8, ...
    for value in [*range(3001), *huge[:10]]:
        assert _maximal_or_none(value, FIVE_FOUR, 1) == _memo_only_maximal(
            value, FIVE_FOUR, 1
        ), value


def test_golden_ratio_case_agrees_with_exhaustive_survey():
    for scheme, max_len in [(Scheme.ODD_V1, 12), (Scheme.ODD_V2, 8)]:
        seq = basis(validate(4, 5), scheme, 8)
        b = seq.digit_bound
        best = {decode(ds, seq): ds for ds in enumerate_language(seq, b, max_len)}
        horizon = grow(seq, max_len + 1).terms[max_len]
        for value in range(horizon):
            assert _maximal_or_none(value, seq) == best.get(value), (scheme, value)


def test_numeration_cache_stays_bounded(monkeypatch):
    # no module-level cache: the search state lives on each basis
    assert not any(
        isinstance(obj, functools._lru_cache_wrapper) for obj in vars(numeration).values()
    )

    # many huge values grow one term list once, each term appended once,
    # to the first term past the largest value
    appended = []
    append = _Table.append
    monkeypatch.setattr(
        _Table, "append", lambda self, t=None: appended.append(t) or append(self, t)
    )
    rng = random.Random(7)
    seq = basis(validate(12, 13), Scheme.ODD_V1, 8)
    table = seq._table()
    appended.clear()
    values = [rng.randrange(10**20, 10**30) for _ in range(10**4)]
    for value in values:
        represent_maximal(value, seq)
    assert seq._tables == {seq.digit_bound: table}
    assert len(seq.terms) == 8
    terms = table.terms
    assert len(terms) == bisect_right(terms, max(values)) + 1
    assert len(appended) == len(terms) - 8
    # a basis inside its interval prefix never touches the memo
    assert table.memo == {}

    # past the prefix the memo is capped, and answers survive its reset
    golden = basis(validate(4, 5), Scheme.ODD_V1, 8)
    monkeypatch.setattr(numeration, "_MEMO_LIMIT", 50)
    for value in range(1001):
        assert _maximal_or_none(value, golden) == _memo_only_maximal(value, golden)
    assert 0 < len(golden._table().memo) <= 50


# ------------------------------------------- the brute-force survey and its oracles


def _product_survey(seq, bound, max_len):
    """value -> all of its longest digit strings within max_len, by
    itertools.product over every string."""
    weights = grow(seq, max_len).terms[:max_len]
    best = {}
    for length in range(1, max_len + 1):
        for head in range(1, bound + 1):
            for rest in product(range(bound + 1), repeat=length - 1):
                digits = (head, *rest)
                value = sum(d * t for d, t in zip(digits, weights[length - 1 :: -1]))
                entry = best.get(value)
                if entry is None or entry[0] < length:
                    best[value] = (length, [digits])
                elif entry[0] == length:
                    entry[1].append(digits)
    return {v: reps for v, (_, reps) in best.items()}


def _brute_longest(seq, bound, limit):
    """Length of the longest digit string per value up to limit, by a
    depth-first walk that stops at the first digit past the limit."""
    seq = grow(seq, 4)
    while seq.terms[-1] <= limit:
        seq = grow(seq, len(seq.terms) + 1)
    terms = seq.terms
    max_len = max(i + 1 for i, t in enumerate(terms) if t <= limit)
    best = {}

    def walk(pos, acc, length):
        lo = 1 if pos == length - 1 else 0
        for d in range(lo, bound + 1):
            val = acc + d * terms[pos]
            if val > limit:
                break
            if pos == 0:
                if length > best.get(val, 0):
                    best[val] = length
            else:
                walk(pos - 1, val, length)

    for length in range(1, max_len + 1):
        walk(length - 1, 0, length)
    return best


SURVEY_CASES = [
    (basis(validate(4, 5), Scheme.ODD_V1, 8), 1, 12),
    (basis(validate(4, 5), Scheme.ODD_V2, 8), 2, 8),
    (FIVE_FOUR, 1, 10),
    (FIVE_FOUR, 2, 8),
]
SURVEY_IDS = ["4,5-odd-v1", "4,5-odd-v2", "5,4-bound-1", "5,4-bound-2"]


@pytest.mark.parametrize("seq, bound, max_len", SURVEY_CASES, ids=SURVEY_IDS)
def test_language_and_ties_match_the_product_survey(seq, bound, max_len):
    old = _product_survey(seq, bound, max_len)
    assert _survey(seq, bound, max_len) == {v: sorted(r) for v, r in old.items()}
    language = sorted({(0,), *(min(r) for r in old.values())}, key=lambda ds: (len(ds), ds))
    assert enumerate_language(seq, bound, max_len) == language
    ties = {v: sorted(r) for v, r in sorted(old.items()) if len(r) > 1}
    assert find_maximal_ties(seq, bound, max_len) == ties


@pytest.mark.parametrize("seq, bound, max_len", SURVEY_CASES, ids=SURVEY_IDS)
def test_survey_lengths_match_the_old_walk(seq, bound, max_len):
    # values up to 2000, or below the 13th term where 12 digits run out
    terms = grow(seq, 13).terms
    limit = min(2000, terms[12] - 1)
    horizon = bisect_right(terms, limit)
    best = _survey(seq, bound, horizon, limit)
    assert {v: len(r[0]) for v, r in best.items()} == _brute_longest(seq, bound, limit)
    # the limit only cuts values: below it, the unlimited survey agrees
    full = _survey(seq, bound, horizon)
    assert best == {v: r for v, r in full.items() if v <= limit}
    for value in range(1, limit + 1):
        want = best[value][0] if value in best else None
        assert _maximal_or_none(value, seq, bound) == want, value

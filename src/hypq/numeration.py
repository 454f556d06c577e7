"""Numeration systems attached to a splitting.

The counting recurrence of a splitting defines an increasing integer
sequence; every natural number can then be written as a digit string
over that basis with digits 0..b, b the floor of the dominant root.
Among all such digit strings of a value, the splitting's language keeps
the longest ones.  Ties between longest strings are broken toward the
lexicographically smallest read most-significant-first, so that the
representative is total and deterministic; actual ties are observable
through find_maximal_ties rather than hidden.

Digit strings are most-significant-first everywhere in this module.

Which remainders a prefix of the basis can write follows from a
completeness lemma (Fraenkel, *Systems of numeration*, Amer. Math.
Monthly 92, 1985).  Write S_0 = 0 and S_k = b*(t_1 + ... + t_k).  If
t_j <= 1 + S_{j-1} for every j <= k (so t_1 = 1), the values that
t_1..t_k write with digits 0..b are exactly the integers 0..S_k.
Proof, by induction on k: those values are the union over d = 0..b of
d*t_k + [0, S_{k-1}], and consecutive pieces meet because
t_k <= S_{k-1} + 1, so the union is [0, b*t_k + S_{k-1}] = [0, S_k].
Up to the longest prefix that meets the condition, feasibility is
therefore a range test; above it a memoized search remains.  Both read
a table that lives on the basis itself, one per digit bound, with no
module-level cache: it grows in place and its memo is capped.  Every
regular case with p <= 12 and q <= 13 meets the condition on its first
80 terms, and so does the second odd variant of {4,5}; the first odd
variant of {4,5} fails it at the second term.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import mul

from . import spectral, tree
from .errors import DigitOutOfRange, NonMonotoneBasis, Unrepresentable
from .polyint import degree
from .schlafli import SchlafliPair, Scheme
from .tree import recurrence_coefficients


@dataclass(frozen=True)
class BasisSequence:
    """Strictly increasing terms t_1 < t_2 < ... driving the numeration.

    The first degree-many terms are the spanning-tree level counts; the
    recurrence read off the splitting polynomial extends them.  Other
    solutions of the same recurrence would be equally conceivable.

    The search state (one _Table per digit bound) hangs off the basis,
    outside its constructor, equality and repr: it is made on first use
    and grows in place, so a basis applies its recurrence once per term.
    """

    terms: tuple[int, ...]
    coefficients: tuple[int, ...]
    digit_bound: int
    _tables: dict[int, _Table] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.terms)

    def _table(self, bound: int | None = None) -> _Table:
        """The search state under a digit bound, the basis's own by default."""
        bound = self.digit_bound if bound is None else bound
        table = self._tables.get(bound)
        if table is None:
            table = self._tables[bound] = _Table(self.terms, self.coefficients, bound)
        return table


@dataclass(frozen=True)
class Representation:
    """A digit string (most significant first) and the value it encodes."""

    digits: tuple[int, ...]
    value: int

    def __str__(self) -> str:
        return " ".join(str(d) for d in self.digits)


#: A table's memo is dropped once it holds _MEMO_LIMIT entries; only
#: bases past their interval prefix fill it.
_MEMO_LIMIT = 1 << 15


class _Table:
    """Terms, prefix sums and feasibility of a basis under one digit bound.

    Can a remainder be written with the first k terms and digits 0..bound?
    For k up to ``interval``, the longest prefix of terms meeting the
    completeness condition, the answer is 0 <= r <= max_sum[k]; above it
    the answer is searched digit by digit and memoized.  Terms only ever
    join at the end, so no prefix, sum, interval or memo entry changes.
    """

    def __init__(self, seed: tuple[int, ...], coefficients: tuple[int, ...], bound: int):
        self.coefficients = coefficients
        self.bound = bound
        self.terms: list[int] = []
        self.max_sum = [0]
        self.interval = 0
        self.memo: dict[tuple[int, int], bool] = {}
        for t in seed:
            self.append(t)

    def append(self, t: int | None = None) -> None:
        """Add the term t, by default the next one of the recurrence."""
        terms = self.terms
        if t is None:
            window = terms[-len(self.coefficients) :]
            t = sum(c * u for c, u in zip(self.coefficients, window))
        if terms and t <= terms[-1]:
            raise NonMonotoneBasis(
                f"basis stalls at {terms[-1]} -> {t}; the level-count seed is unusable here"
            )
        if self.interval == len(terms) and t <= self.max_sum[-1] + 1:
            self.interval += 1
        terms.append(t)
        self.max_sum.append(self.max_sum[-1] + self.bound * t)

    def grow_to(self, n: int) -> list[int]:
        """The terms, extended to at least n of them."""
        while len(self.terms) < n:
            self.append()
        return self.terms

    def grow_past(self, value: int) -> list[int]:
        """The terms, extended until the last one exceeds value."""
        while self.terms[-1] <= value:
            self.append()
        return self.terms

    def can(self, k: int, r: int) -> bool:
        if k <= self.interval:
            return 0 <= r <= self.max_sum[k]
        if r == 0:
            return True
        if r < 0 or r > self.max_sum[k]:
            return False
        key = (k, r)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.least_digit(k, r, 0) is not None
            if len(self.memo) >= _MEMO_LIMIT:
                self.memo.clear()
            self.memo[key] = hit
        return hit

    def least_digit(self, k: int, r: int, lo: int) -> int | None:
        """Smallest digit d >= lo of term k leaving r - d*t_k writable by
        the first k-1 terms, or None if there is none."""
        t = self.terms[k - 1]
        if k - 1 <= self.interval:
            d = (r - self.max_sum[k - 1] + t - 1) // t
            if d < lo:
                d = lo
            return d if d <= self.bound and d * t <= r else None
        for d in range(lo, min(self.bound, r // t) + 1):
            if self.can(k - 1, r - d * t):
                return d
        return None


def basis(pair: SchlafliPair, scheme: Scheme, n: int) -> BasisSequence:
    """The first max(n, d) terms of the numeration basis for a pair and
    scheme, d the degree of its polynomial: all d seed terms are kept,
    since extending the basis needs a full window of the recurrence."""
    if n < 1:
        raise ValueError("need at least one term")
    report = spectral.analyze(pair, scheme)
    d = degree(report.polynomial)
    seed = tuple(sum(v) for v in tree.kind_counts(report.system, d - 1))
    coeffs = recurrence_coefficients(report.polynomial)
    return grow(BasisSequence(seed, coeffs, report.digit_bound), n)


def grow(seq: BasisSequence, n: int) -> BasisSequence:
    """A copy of the basis with at least n terms (by-value, input untouched).

    The copy shares the input's search state, which holds the same terms.
    """
    terms = seq._table().grow_to(n)
    if n <= len(seq.terms):
        return seq
    out = BasisSequence(tuple(terms[:n]), seq.coefficients, seq.digit_bound)
    object.__setattr__(out, "_tables", seq._tables)
    return out


def decode(digits, seq: BasisSequence) -> int:
    """Exact value of a digit string over the basis."""
    digits = tuple(digits)
    b = seq.digit_bound
    if digits and (min(digits) < 0 or max(digits) > b):
        bad = next(d for d in digits if not 0 <= d <= b)
        raise DigitOutOfRange(f"digit {bad} outside 0..{b}")
    terms = seq._table().grow_to(len(digits))
    return sum(map(mul, reversed(digits), terms))


def represent_greedy(value: int, seq: BasisSequence) -> Representation:
    """Largest term first, largest admissible digit at each term.

    Greedy is not complete for every basis and bound; a remainder that
    cannot be cleared raises Unrepresentable instead of bending a digit.
    """
    if value < 0:
        raise ValueError("value must be >= 0")
    if value == 0:
        return Representation((0,), 0)
    terms = seq._table().grow_past(value)
    b = seq.digit_bound
    k = bisect_right(terms, value) - 1
    digits = []
    r = value
    for pos in range(k, -1, -1):
        d = min(b, r // terms[pos])
        digits.append(d)
        r -= d * terms[pos]
    if r != 0:
        raise Unrepresentable(f"greedy leaves remainder {r} for value {value}")
    return Representation(tuple(digits), value)


def represent_maximal(
    value: int, seq: BasisSequence, bound: int | None = None
) -> Representation:
    """Longest digit string for the value; lexicographically smallest on ties.

    First find the greatest feasible length (leading digit nonzero),
    then fix digits from the most significant end, always the smallest
    digit that leaves a completable remainder.  By the completeness
    lemma of the module docstring, while the lower terms meet
    t_j <= 1 + b*(t_1 + ... + t_{j-1}) they write exactly the remainders
    0..b*(t_1 + ... + t_{k-1}), so that digit is a closed form,
    max(lo, ceil((r - b*(t_1 + ... + t_{k-1})) / t_k)), valid when it
    does not exceed min(b, r // t_k); above that prefix the digits are
    tried in turn against a memoized search.
    """
    if value < 0:
        raise ValueError("value must be >= 0")
    bound = seq.digit_bound if bound is None else bound
    if value == 0:
        return Representation((0,), 0)
    if bound < 1:
        raise Unrepresentable("digit bound below 1 admits only zero")
    feas = seq._table(bound)
    terms = feas.grow_past(value)

    for length in range(bisect_right(terms, value), 0, -1):
        lead = feas.least_digit(length, value, 1)
        if lead is not None:
            break
    else:
        raise Unrepresentable(f"no digit string over 0..{bound} encodes {value}")

    digits = [lead]
    r = value - lead * terms[length - 1]
    for pos in range(length - 1, 0, -1):
        d = feas.least_digit(pos, r, 0)
        if d is None:  # pragma: no cover - the length search guarantees a digit
            raise AssertionError("feasible length lost during digit fixing")
        digits.append(d)
        r -= d * terms[pos - 1]
    if r != 0:  # pragma: no cover
        raise AssertionError("digits do not exhaust the value")
    return Representation(tuple(digits), value)


def enumerate_language(
    seq: BasisSequence, bound: int, max_len: int
) -> list[tuple[int, ...]]:
    """Every value's longest representation within max_len digits.

    Exhaustive over all digit strings of length <= max_len, so it serves
    as the brute-force oracle for represent_maximal at small sizes.
    """
    language = {(0,)}
    for reps in _survey(seq, bound, max_len).values():
        language.add(reps[0])
    return sorted(language, key=lambda ds: (len(ds), ds))


def find_maximal_ties(
    seq: BasisSequence, bound: int, max_len: int
) -> dict[int, list[tuple[int, ...]]]:
    """Values whose longest representation is not unique, with all winners.

    Nonempty results are the concrete counterexamples to the uniqueness
    of the longest representation; the tie-break in represent_maximal
    exists because such values occur.
    """
    best = _survey(seq, bound, max_len)
    return {v: reps for v, reps in sorted(best.items()) if len(reps) > 1}


def _survey(
    seq: BasisSequence, bound: int, max_len: int, limit: int | None = None
) -> dict[int, list[tuple[int, ...]]]:
    """value -> all of its longest digit strings within max_len digits,
    in lexicographic order; with a limit, only values up to it.

    Brute force: a depth-first walk over the strings of each length,
    leading digit nonzero, most significant digit first and digits in
    increasing order, which is why each list comes out sorted.  A branch
    stops at the first digit that takes its value past the limit.
    """
    if max_len < 1 or max_len > 12:
        raise ValueError("max_len must be within 1..12")
    terms = seq._table().grow_to(max_len)
    if limit is None:
        limit = bound * sum(terms[:max_len])
    best: dict[int, list[tuple[int, ...]]] = {}
    digits: list[int] = []

    def walk(pos: int, acc: int, length: int) -> None:
        for d in range(1 if pos == length - 1 else 0, bound + 1):
            val = acc + d * terms[pos]
            if val > limit:
                break
            digits.append(d)
            if pos:
                walk(pos - 1, val, length)
            else:
                reps = best.get(val)
                if reps is None or len(reps[0]) < length:
                    best[val] = [tuple(digits)]
                else:
                    reps.append(tuple(digits))
            digits.pop()

    for length in range(1, max_len + 1):
        walk(length - 1, 0, length)
    return best

"""A fixed sample of the survey sweep: every (p, q, scheme) with p, q >= 4
and p*q <= 3600, under the schemes ``analyze --scheme auto`` reports.

Every 25th case in sorted order, plus the largest rules at both ends of
the sweep ({900,4}, {4,900}, {4,899} under both odd variants) and the
square {60,60}.
"""

from hypq.schlafli import Scheme, auto_schemes, validate

MAX_PQ = 3600

_SWEEP = sorted(
    (p, q, scheme.value)
    for p in range(4, MAX_PQ // 4 + 1)
    for q in range(4, MAX_PQ // p + 1)
    if p * q > 2 * (p + q)
    for scheme in auto_schemes(validate(p, q))
)

SWEEP_SAMPLE = [
    (validate(p, q), Scheme(tag))
    for p, q, tag in _SWEEP[::25]
    + [
        (900, 4, "even-q"),
        (4, 900, "even-q"),
        (4, 899, "odd-v1"),
        (4, 899, "odd-v2"),
        (60, 60, "even-q"),
    ]
]

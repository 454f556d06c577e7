"""Roots of the splitting polynomial and the regularity verdict.

The language of a splitting is regular exactly when the dominant root
beta of the splitting polynomial is a Pisot number: beta > 1 and every
other root lies strictly inside the unit circle.  Degenerate cases may
first require stripping factors of X and factors of the form
1 + X + ... + X^m; the verdict is then taken on the remaining core.

The verdict is exact: the non-regular cases hinge on a root of modulus
exactly 1, or within a hair of it, which floating point cannot tell
apart.  Integer roots are found by exact trial division.  What remains
of a monic polynomial of degree <= 3 after that deflation has no
rational root, so it is irreducible over Q: its roots are simple, and
none is real of modulus 1.  Where each of its roots lies against the
unit circle is read from integer sign tests on its coefficients (see
_place_counts).  Floats serve only the displayed roots and beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import polyint
from .errors import UnsupportedCase
from .schlafli import (
    IntMatrix,
    SchlafliPair,
    Scheme,
    SplittingSystem,
    build_system,
    characteristic_polynomial,
    splitting_matrix,
)

#: Nominal accuracy of the numeric roots after polishing.
ROOT_PRECISION = 1e-12

REASON_PISOT = "PisotCore"
REASON_UNIT_ROOT = "RootOnUnitCircle"
REASON_NON_PISOT = "NonPisotCore"
REASON_NO_DOMINANT = "NoDominantRoot"


@dataclass(frozen=True)
class Root:
    """A single root; exact is set when it is a certified integer."""

    value: complex
    exact: int | None = None

    @property
    def is_real(self) -> bool:
        return self.value.imag == 0.0


@dataclass(frozen=True)
class RootSet:
    """All roots of one polynomial, with the dominant real root singled out.

    remainder is the polynomial left once its integer roots are deflated
    exactly: (1,), or an irreducible monic quadratic or cubic.  The
    verdict reads where its roots lie from its integer coefficients.
    """

    roots: tuple[Root, ...]
    beta: float | None
    remainder: tuple[int, ...] = (1,)


@dataclass(frozen=True)
class FactorDecomposition:
    """A polynomial as X^stripped_x_power * product(unit_factors) * core."""

    stripped_x_power: int
    unit_factors: tuple[tuple[int, ...], ...]
    core: tuple[int, ...]


@dataclass(frozen=True)
class PisotCertificate:
    """Outcome of the Pisot test: the exact verdict, its reason, and the
    dominant root beta as a float for display."""

    pisot: bool
    reason: str
    beta: float | None


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _integer_roots(poly: tuple[int, ...]) -> tuple[list[int], tuple[int, ...]]:
    """Deflate all integer roots (monic => all rational roots are integers)."""
    found: list[int] = []
    while polyint.degree(poly) >= 1 and poly[-1] == 0:
        found.append(0)
        poly = poly[:-1]
    progress = True
    while progress and polyint.degree(poly) >= 1:
        progress = False
        for d in _divisors(poly[-1]):
            for cand in (d, -d):
                if polyint.eval_at(poly, cand) == 0:
                    found.append(cand)
                    poly = polyint.deflate_root(poly, cand)
                    progress = True
                    break
            if progress:
                break
    return found, poly


def _quadratic_roots(b: float, c: float) -> list[complex]:
    """Roots of X^2 + bX + c, where c != 0."""
    disc = b * b - 4 * c
    if disc >= 0:
        s = math.sqrt(disc)
        r1 = (-b - s) / 2.0 if b >= 0 else (-b + s) / 2.0
        r2 = c / r1  # product of the roots is c, and c != 0 here
        return [complex(r1), complex(r2)]
    s = math.sqrt(-disc)
    return [complex(-b / 2.0, s / 2.0), complex(-b / 2.0, -s / 2.0)]


def _cubic_roots(a: int, b: int, c: int) -> list[complex]:
    """Roots of X^3 + aX^2 + bX + c; no integer root remains at this point."""
    shift = a / 3.0
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    if 4.0 * p**3 + 27.0 * q * q <= 0.0:
        # three real roots; p < 0 is forced in this branch
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (2.0 * p) * math.sqrt(-3.0 / p)
        theta = math.acos(max(-1.0, min(1.0, arg))) / 3.0
        ts = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
        return [complex(t - shift) for t in ts]
    s = math.sqrt(q * q / 4.0 + p**3 / 27.0)
    t0 = _cbrt(-q / 2.0 + s) + _cbrt(-q / 2.0 - s)
    r = t0 - shift
    rad = 3.0 * t0 * t0 + 4.0 * p
    if rad < 0.0:
        # rounding lost the pair: solve for it from r by Vieta, its sum
        # being -a - r and its product -c / r (c != 0, so r != 0)
        return [complex(r)] + _quadratic_roots(a + r, -c / r)
    # the remaining factor is t^2 + t0*t + (t0^2 + p), complex pair
    im = math.sqrt(rad) / 2.0
    re = -t0 / 2.0
    return [complex(r), complex(re - shift, im), complex(re - shift, -im)]


def _polish(poly: tuple[int, ...], z: complex) -> complex:
    deriv = polyint.derivative(poly)
    for _ in range(2):
        d = polyint.eval_at(deriv, z)
        if d == 0:
            break
        z = z - polyint.eval_at(poly, z) / d
    return z


def find_roots(poly: tuple[int, ...]) -> RootSet:
    """All roots of a monic integer polynomial of degree 1..3.

    Integer roots are found by exact trial division over the divisors of
    the constant term and flagged exact.  The remainder is kept exactly,
    and its roots are solved in closed form and polished with two Newton
    steps on the original polynomial; those floats are for display and
    for beta, never for the verdict.
    """
    poly = polyint.normalize(poly)
    n = polyint.degree(poly)
    if n < 1 or poly[0] != 1:
        raise ValueError("expected a monic polynomial of positive degree")
    if n > 3:
        raise UnsupportedCase("root finding is implemented for degree <= 3")

    ints, rest = _integer_roots(poly)
    roots = [Root(complex(v), exact=v) for v in ints]
    m = polyint.degree(rest)
    if m == 1:
        raise AssertionError("a monic linear factor always has an integer root")
    numeric: list[complex] = []
    if m == 2:
        numeric = _quadratic_roots(rest[1], rest[2])
    elif m == 3:
        numeric = _cubic_roots(rest[1], rest[2], rest[3])
    for z in numeric:
        z = _polish(poly, z)
        if z.imag == 0.0:
            z = complex(z.real)
        roots.append(Root(z))

    roots.sort(key=lambda r: (-r.value.real, abs(r.value.imag)))
    reals = [r for r in roots if r.is_real]
    beta = max((r.value.real for r in reals), default=None)
    return RootSet(tuple(roots), beta, rest)


#: The admissible degenerate factors 1 + X + ... + X^m for m = 1, 2.
#: X - 1 is deliberately not among them.
UNIT_FACTORS = ((1, 1), (1, 1, 1))


def strip_factors(poly: tuple[int, ...]) -> FactorDecomposition:
    """Remove factors of X and unit factors by exact division."""
    core = polyint.normalize(poly)
    x_power = 0
    while polyint.degree(core) >= 1 and core[-1] == 0:
        core = core[:-1]
        x_power += 1
    removed: list[tuple[int, ...]] = []
    progress = True
    while progress:
        progress = False
        for unit in UNIT_FACTORS:
            if polyint.degree(core) >= polyint.degree(unit):
                quo = polyint.divide_exact(core, unit)
                if quo is not None:
                    removed.append(unit)
                    core = quo
                    progress = True
                    break
    return FactorDecomposition(x_power, tuple(removed), core)


def is_pisot(poly: tuple[int, ...]) -> PisotCertificate:
    """Decide whether the dominant root is a Pisot number.

    True iff the greatest real root beta exceeds 1 and every other root
    has modulus strictly below 1.  The verdict is exact: it counts the
    roots above 1, outside the unit circle and on it with integer
    arithmetic only.  beta is the float root, for display.
    """
    poly = polyint.normalize(poly)
    if polyint.degree(poly) < 1:
        return PisotCertificate(False, REASON_NO_DOMINANT, None)
    return _verdict(find_roots(poly))


def _verdict(rs: RootSet) -> PisotCertificate:
    """The Pisot test of is_pisot, read off roots already found."""
    above, outside, on_circle = _place_counts(rs.remainder)
    for r in rs.roots:
        if r.exact is not None:
            above += r.exact > 1
            outside += abs(r.exact) > 1
            on_circle += abs(r.exact) == 1
    if not above:
        return PisotCertificate(False, REASON_NO_DOMINANT, rs.beta)
    if outside > 1:
        return PisotCertificate(False, REASON_NON_PISOT, rs.beta)
    if on_circle:
        return PisotCertificate(False, REASON_UNIT_ROOT, rs.beta)
    return PisotCertificate(True, REASON_PISOT, rs.beta)


def _place_counts(rem: tuple[int, ...]) -> tuple[int, int, int]:
    """(real roots above 1, roots outside the unit circle, roots on it)
    of a remainder of find_roots, by integer sign tests.

    The remainder has no rational root, so none of the values tested
    below is zero.
    """
    if len(rem) == 1:
        return 0, 0, 0
    c = rem[-1]
    if len(rem) == 3:
        b = rem[1]
        if b * b - 4 * c < 0:
            # a complex pair with |z|^2 = c
            return 0, 2 * (c > 1), 2 * (c == 1)
    else:
        a, b = rem[1], rem[2]
        if 18 * a * b * c - 4 * a**3 * c + a * a * b * b - 4 * b**3 - 27 * c * c < 0:
            # one real root r, below which the monic R is negative, and a
            # pair with |z|^2 = -c/r: inside the circle iff |r| > |c|
            # (|r| = |c| would make r rational)
            r_above = polyint.eval_at(rem, 1) < 0
            r_below = polyint.eval_at(rem, -1) > 0
            pair_inside = (
                polyint.eval_at(rem, abs(c)) < 0 or polyint.eval_at(rem, -abs(c)) > 0
            )
            return int(r_above), r_above + r_below + 2 * (not pair_inside), 0
    # every root is real, so Descartes' rule of signs counts them exactly
    above = _roots_above(rem, 1)
    return above, above + len(rem) - 1 - _roots_above(rem, -1), 0


def _roots_above(poly: tuple[int, ...], s: int) -> int:
    """The number of roots above s of a polynomial whose roots are all
    real and none at s: the sign changes of P(X + s), whose coefficients
    come from repeated synthetic division."""
    shifted = list(poly)
    for end in range(len(shifted) - 1, 0, -1):
        for j in range(1, end + 1):
            shifted[j] += s * shifted[j - 1]
    signs = [c > 0 for c in shifted if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _floor_dominant(poly: tuple[int, ...], beta: float) -> int:
    """floor(beta) guarded by exact sign checks around the float value.

    The dominant root is the greatest real root of a monic polynomial,
    so the polynomial is strictly positive beyond it; the floor is the
    largest integer at which the value is still <= 0.
    """
    guess = math.floor(beta)
    best = guess - 1
    for cand in (guess, guess + 1):
        if polyint.eval_at(poly, cand) <= 0:
            best = cand
    return best


@dataclass(frozen=True)
class SpectralReport:
    """Full spectral verdict for one pair and scheme."""

    pair: SchlafliPair
    scheme: Scheme
    system: SplittingSystem
    matrix: IntMatrix
    polynomial: tuple[int, ...]
    decomposition: FactorDecomposition
    roots: RootSet
    beta: float
    pisot: bool
    regular: bool
    reason: str
    digit_bound: int
    warnings: tuple[str, ...]


def analyze(pair: SchlafliPair, scheme: Scheme) -> SpectralReport:
    """Chain rules -> matrix -> polynomial -> stripping -> verdict.

    The roots of the core are found once; the verdict (regular and
    reason), the displayed roots and beta are all read from them.

    pisot is the same test applied to the full polynomial, and it equals
    regular and not unit_factors.  Proof: the full polynomial's roots are
    the stripped zeros (modulus 0, inside the disc), the roots of the
    unit factors X + 1 and X^2 + X + 1 (modulus exactly 1, on the
    circle) and the roots of the core.  A unit factor therefore puts a
    non-dominant root on the circle and the full test fails; without
    one, the full polynomial's dominant root is the core's (it exceeds 1
    whenever either test can pass) and the only extra roots are zeros,
    so both tests agree.  For the same reason beta, the core's dominant
    root, is the full polynomial's whenever it exceeds 1.  digit_bound
    floors it against the full polynomial, the one governing the
    counting recurrence.
    """
    system = build_system(pair, scheme)
    matrix = splitting_matrix(system)
    poly = characteristic_polynomial(matrix)
    deco = strip_factors(poly)
    roots = (
        find_roots(deco.core)
        if polyint.degree(deco.core) >= 1
        else RootSet((), None)
    )
    verdict = _verdict(roots)
    if verdict.reason == REASON_NO_DOMINANT:
        # e.g. {4,5} under the legacy odd scheme: (X-1)^2, no growth,
        # the splitting never gets off the ground
        raise UnsupportedCase(
            f"{pair} under {scheme.tag}: no dominant root above 1"
        )
    beta = roots.beta

    warnings = []
    for rule in system.rules:
        for kind, mult in rule.children:
            if mult == 0:
                warnings.append(
                    f"rule {rule.parent.label} produces {kind.label} with multiplicity 0"
                )

    return SpectralReport(
        pair=pair,
        scheme=scheme,
        system=system,
        matrix=matrix,
        polynomial=poly,
        decomposition=deco,
        roots=roots,
        beta=beta,
        pisot=verdict.pisot and not deco.unit_factors,
        regular=verdict.pisot,
        reason=verdict.reason,
        digit_bound=_floor_dominant(poly, beta),
        warnings=tuple(warnings),
    )

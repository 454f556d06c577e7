"""Root finding, factor stripping and the Pisot/regularity verdicts."""

import itertools
import math
from decimal import Decimal, localcontext

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypq import polyint, spectral
from hypq.errors import HypqError, UnsupportedCase
from hypq.report import report_json, report_text
from hypq.schlafli import (
    Scheme,
    build_system,
    characteristic_polynomial,
    splitting_matrix,
    validate,
)
from hypq.spectral import (
    REASON_NO_DOMINANT,
    REASON_NON_PISOT,
    REASON_PISOT,
    REASON_UNIT_ROOT,
    ROOT_PRECISION,
    RootSet,
    SpectralReport,
    analyze,
    find_roots,
    is_pisot,
    strip_factors,
)
from hypq.verify import EVEN_PAIRS, ODD_PAIRS, _desk_cases
from sweep_sample import SWEEP_SAMPLE

PHI = (1 + math.sqrt(5)) / 2


def test_find_roots_quadratic_closed_form():
    rs = find_roots((1, -3, 1))  # roots (3 +- sqrt 5)/2
    vals = sorted(r.value.real for r in rs.roots)
    assert abs(vals[0] - (3 - math.sqrt(5)) / 2) < 1e-12
    assert abs(vals[1] - (3 + math.sqrt(5)) / 2) < 1e-12
    assert abs(rs.beta - vals[1]) < 1e-15
    assert all(r.exact is None for r in rs.roots)


def test_find_roots_certifies_integer_roots():
    rs = find_roots((1, -3, 2))  # (X-1)(X-2)
    assert sorted(r.exact for r in rs.roots) == [1, 2]
    assert rs.beta == 2.0


def test_find_roots_counts_multiplicity_and_complex_pairs():
    rs = find_roots((1, -2, 1))  # (X-1)^2
    assert [r.exact for r in rs.roots] == [1, 1]

    rs = find_roots((1, 0, 1))  # X^2 + 1
    assert rs.beta is None
    mods = sorted(abs(r.value) for r in rs.roots)
    assert all(abs(m - 1.0) < 1e-12 for m in mods)


def test_roots_satisfy_their_polynomial():
    for poly in [(1, -5, -4, 0), (1, -2, 0, 1), (1, -9, 0), (1, -3, 1)]:
        rs = find_roots(poly)
        assert len(rs.roots) == polyint.degree(poly)
        for r in rs.roots:
            assert abs(polyint.eval_at(poly, r.value)) < 1e-8
        # exact integer roots really are roots, exactly
        for r in rs.roots:
            if r.exact is not None:
                assert polyint.eval_at(poly, r.exact) == 0


def test_strip_factors_x_powers_and_units():
    deco = strip_factors((1, -5, -4, 0))
    assert deco.stripped_x_power == 1
    assert deco.unit_factors == ()
    assert deco.core == (1, -5, -4)

    # (X+1)(X^2+X+1)(X^2-X-1) * X
    poly = polyint.mul((1, 1), polyint.mul((1, 1, 1), (1, -1, -1))) + (0,)
    poly = polyint.mul(polyint.mul((1, 1), (1, 1, 1)), (1, -1, -1))
    poly = polyint.mul(poly, (1, 0))
    deco = strip_factors(poly)
    assert deco.stripped_x_power == 1
    assert sorted(deco.unit_factors) == [(1, 1), (1, 1, 1)]
    assert deco.core == (1, -1, -1)


def test_strip_factors_reconstructs_the_original():
    for poly in [(1, -2, 0, 1), (1, -9, 0), (1, -3, 2), (1, 2, 1, 0, 0)]:
        deco = strip_factors(poly)
        rebuilt = deco.core
        for unit in deco.unit_factors:
            rebuilt = polyint.mul(rebuilt, unit)
        rebuilt = polyint.mul(rebuilt, (1,) + (0,) * deco.stripped_x_power)
        assert rebuilt == polyint.normalize(poly)


def test_strip_factors_keeps_x_minus_one():
    # only X, X+1 and X^2+X+1 are stripped; a root at exactly 1 stays in
    # the core to force the unit-circle verdict
    deco = strip_factors((1, -2, 0, 1))
    assert deco.core == (1, -2, 0, 1)
    assert deco.unit_factors == ()


def test_is_pisot_golden_ratio():
    cert = is_pisot((1, -1, -1))
    assert cert.pisot and cert.reason == REASON_PISOT
    assert abs(cert.beta - PHI) < 1e-12
    (conjugate,) = (r.value for r in find_roots((1, -1, -1)).roots if r.value.real < 0)
    assert abs(abs(conjugate) - (PHI - 1)) < 1e-12


def test_is_pisot_rejects_unit_and_outside_roots():
    assert is_pisot((1, -3, 2)).reason == REASON_UNIT_ROOT  # (X-1)(X-2)
    assert is_pisot((1, -2, 0, 1)).reason == REASON_UNIT_ROOT  # root exactly 1
    # (X-3)(X-2): second root outside the unit circle
    assert is_pisot((1, -5, 6)).reason == REASON_NON_PISOT
    assert is_pisot((1, -1)).reason == REASON_NO_DOMINANT  # beta = 1
    assert is_pisot((5,)).reason == REASON_NO_DOMINANT


def test_is_pisot_resolves_conjugate_pairs_exactly():
    # X^3 - X^2 - 1: the complex pair has modulus 1/sqrt(beta) < 1
    cert = is_pisot((1, -1, 0, -1))
    assert cert.pisot
    # X^3 - X - 1 is the plastic number, smallest Pisot of all
    assert is_pisot((1, 0, -1, -1)).pisot


@given(st.integers(2, 50), st.integers(0, 60))
def test_is_pisot_family_x2_minus_ax_minus_b(a, b):
    # classic family: X^2 - aX - b is Pisot iff b <= a; the second root
    # crosses -1 exactly at b = a + 1 since P(-1) = 1 + a - b
    cert = is_pisot((1, -a, -b))
    other = min(r.value.real for r in find_roots((1, -a, -b)).roots)
    if b <= a:
        assert cert.pisot, (a, b)
        assert abs(other) < 1
    elif b == a + 1:
        assert not cert.pisot and cert.reason == REASON_UNIT_ROOT
    else:
        assert not cert.pisot and cert.reason == REASON_NON_PISOT


def test_analyze_regular_even_case():
    r = analyze(validate(5, 4), Scheme.EVEN_Q)
    assert r.polynomial == (1, -3, 1)
    assert r.pisot and r.regular
    assert r.reason == REASON_PISOT
    assert abs(r.beta - (3 + math.sqrt(5)) / 2) < 1e-12
    assert r.digit_bound == 2
    assert r.warnings == ()


def test_analyze_strips_before_judging():
    r = analyze(validate(5, 7), Scheme.ODD_V1)
    assert r.polynomial == (1, -5, -4, 0)
    assert r.decomposition.stripped_x_power == 1
    assert r.regular and r.pisot
    assert abs(r.beta - (5 + math.sqrt(41)) / 2) < 1e-12
    assert r.digit_bound == 5

    r2 = analyze(validate(5, 7), Scheme.ODD_V2)
    assert r2.polynomial == (1, -9, 0)
    assert r2.decomposition.core == (1, -9)
    assert r2.beta == 9.0
    assert r2.digit_bound == 9


def test_analyze_4_5_verdicts():
    r1 = analyze(validate(4, 5), Scheme.ODD_V1)
    assert r1.polynomial == (1, -2, 0, 1)
    assert not r1.regular and not r1.pisot
    assert r1.reason == REASON_UNIT_ROOT
    assert abs(r1.beta - PHI) < 1e-9
    assert r1.digit_bound == 1

    r2 = analyze(validate(4, 5), Scheme.ODD_V2)
    assert r2.polynomial == (1, -3, 2)
    assert not r2.regular and r2.reason == REASON_UNIT_ROOT
    assert r2.beta == 2.0


def test_analyze_zero_multiplicity_warning():
    # {4,7} first odd variant: g = 2*2 - 2 = 2 but f = 1*2 = 2... no
    # warning there; {4,5} has g = 0, so S1 -> 0*S0 + S1 warns
    r = analyze(validate(4, 5), Scheme.ODD_V1)
    assert any("multiplicity 0" in w for w in r.warnings)


def test_analyze_legacy_4_5_has_no_growth():
    with pytest.raises(UnsupportedCase):
        analyze(validate(4, 5), Scheme.ODD_LEGACY)


def test_digit_bound_is_exact_floor():
    # beta here is (3 + sqrt 17)/2 = 3.5615...; a float slip either way
    # would be caught by the exact sign checks
    r = analyze(validate(4, 7), Scheme.ODD_V1)
    assert r.polynomial == (1, -3, -2, 0)
    assert abs(r.beta - (3 + math.sqrt(17)) / 2) < 1e-12
    assert r.digit_bound == math.floor(r.beta) == 3
    assert polyint.eval_at(r.polynomial, r.digit_bound) <= 0
    assert polyint.eval_at(r.polynomial, r.digit_bound + 1) > 0


# ----------------------------------------------------------------------
# Oracle: the verdict as computed before it was exact.  It finds the roots
# four times per case, deflates the integer roots twice more to recover
# the exact modulus of a quadratic's pair, and judges every other modulus
# as a float with a safety margin, so it can answer "indeterminate".

UNIT_MARGIN = 1e-9
REASON_INDETERMINATE = "IndeterminateModulus"


def _oracle_pair_modulus_sq(poly):
    _, rest = spectral._integer_roots(poly)
    if polyint.degree(rest) == 2 and rest[1] * rest[1] - 4 * rest[2] < 0:
        return rest[2]
    return None


def _oracle_is_pisot(poly):
    """(pisot, reason, beta), judged on float moduli."""
    poly = polyint.normalize(poly)
    if polyint.degree(poly) < 1:
        return False, REASON_NO_DOMINANT, None
    rs = find_roots(poly)
    if rs.beta is None:
        return False, REASON_NO_DOMINANT, None

    idx = max(
        (i for i, r in enumerate(rs.roots) if r.is_real),
        key=lambda i: rs.roots[i].value.real,
    )
    beta_root = rs.roots[idx]
    if beta_root.exact is not None:
        if beta_root.exact <= 1:
            return False, REASON_NO_DOMINANT, rs.beta
    elif rs.beta <= 1.0 + UNIT_MARGIN:
        reason = (
            REASON_INDETERMINATE
            if rs.beta > 1.0 - UNIT_MARGIN
            else REASON_NO_DOMINANT
        )
        return False, reason, rs.beta

    pair_mod_sq = _oracle_pair_modulus_sq(poly)
    on_circle = outside = indeterminate = False
    for i, r in enumerate(rs.roots):
        if i == idx:
            continue
        if r.exact is not None:
            if abs(r.exact) == 1:
                on_circle = True
            elif abs(r.exact) > 1:
                outside = True
        elif r.value.imag != 0.0 and pair_mod_sq is not None:
            if pair_mod_sq == 1:
                on_circle = True
            elif pair_mod_sq > 1:
                outside = True
        else:
            m = abs(r.value)
            if m > 1.0 + UNIT_MARGIN:
                outside = True
            elif m >= 1.0 - UNIT_MARGIN:
                indeterminate = True

    if outside:
        return False, REASON_NON_PISOT, rs.beta
    if on_circle:
        return False, REASON_UNIT_ROOT, rs.beta
    if indeterminate:
        return False, REASON_INDETERMINATE, rs.beta
    return True, REASON_PISOT, rs.beta


def _oracle_analyze(pair, scheme):
    system = build_system(pair, scheme)
    matrix = splitting_matrix(system)
    poly = characteristic_polynomial(matrix)
    deco = strip_factors(poly)
    core_pisot, core_reason, _ = _oracle_is_pisot(deco.core)
    core_roots = (
        find_roots(deco.core)
        if polyint.degree(deco.core) >= 1
        else RootSet((), None, ROOT_PRECISION)
    )
    full_pisot, _, _ = _oracle_is_pisot(poly)

    full_roots = find_roots(poly)
    if full_roots.beta is None or full_roots.beta <= 1.0:
        raise UnsupportedCase(
            f"{pair} under {scheme.tag}: no dominant root above 1"
        )
    beta = full_roots.beta

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
        roots=core_roots,
        beta=beta,
        pisot=full_pisot,
        regular=core_pisot,
        reason=core_reason,
        digit_bound=spectral._floor_dominant(poly, beta),
        warnings=tuple(warnings),
    )


#: Every monic quadratic and cubic with coefficients in -12..12.
SMALL_MONIC = [
    (1,) + rest
    for degree in (2, 3)
    for rest in itertools.product(range(-12, 13), repeat=degree)
]


def test_is_pisot_matches_the_oracle_on_small_monic_polynomials():
    assert len(SMALL_MONIC) == 16250
    for poly in SMALL_MONIC:
        want = _oracle_is_pisot(poly)
        assert want[1] != REASON_INDETERMINATE, poly
        cert = is_pisot(poly)
        assert (cert.pisot, cert.reason, cert.beta) == want, poly


def test_full_verdict_is_core_verdict_without_unit_factors():
    # no splitting polynomial has a unit factor (P(-1) != 0 for all three
    # closed forms), so only this sweep reaches that branch of analyze
    with_units = 0
    for poly in SMALL_MONIC:
        deco = strip_factors(poly)
        with_units += bool(deco.unit_factors)
        assert is_pisot(poly).pisot == (
            is_pisot(deco.core).pisot and not deco.unit_factors
        ), poly
    assert with_units == 516


def _outcome(fn, pair, scheme):
    try:
        r = fn(pair, scheme)
    except HypqError as exc:
        return type(exc).__name__, str(exc)
    return report_json(r), report_text(r), r.pisot, r.regular, r.reason


def test_analyze_matches_the_oracle_on_every_desk_case_and_scheme():
    desk = [
        (validate(p, q), scheme)
        for p, q in EVEN_PAIRS + ODD_PAIRS
        for scheme in Scheme
    ]
    compared = unsupported = 0
    for pair, scheme in desk + SWEEP_SAMPLE:
        want = _outcome(_oracle_analyze, pair, scheme)
        if want[0] == "SchemeParityMismatch":
            continue
        assert want[-1] != REASON_INDETERMINATE, (pair, scheme)
        assert _outcome(analyze, pair, scheme) == want, (pair, scheme)
        compared += 1
        unsupported += want[0] == "UnsupportedCase"
    assert compared == 44 + 3 * 45 + len(SWEEP_SAMPLE)
    assert len(SWEEP_SAMPLE) == 1007
    assert unsupported == 1  # {4,5} under the legacy odd scheme


def test_analyze_finds_roots_once(monkeypatch):
    calls = []
    deflations = []
    real = spectral.find_roots
    real_deflate = spectral._integer_roots

    def counting(poly):
        calls.append(poly)
        return real(poly)

    def counting_deflate(poly):
        deflations.append(poly)
        return real_deflate(poly)

    def forbidden(poly):
        raise AssertionError("analyze must not search the roots again")

    monkeypatch.setattr(spectral, "find_roots", counting)
    monkeypatch.setattr(spectral, "_integer_roots", counting_deflate)
    monkeypatch.setattr(spectral, "is_pisot", forbidden)
    for pair, scheme in _desk_cases():
        calls.clear()
        deflations.clear()
        r = analyze(pair, scheme)
        assert calls == [r.decomposition.core], (pair, scheme)
        # the verdict reads RootSet.remainder and does not deflate again
        assert deflations == [r.decomposition.core], (pair, scheme)


def _decimal_real_root(poly, digits=60):
    """Bounds on the one real root r of a monic cubic, which bisection on
    P brackets to ``digits`` digits."""
    with localcontext() as ctx:
        ctx.prec = digits + 20
        bound = Decimal(1 + max(map(abs, poly[1:])))  # Cauchy's bound
        lo, hi = -bound, bound
        while hi - lo > Decimal(10) ** -digits * bound:
            mid = (lo + hi) / 2
            if polyint.eval_at(poly, mid) < 0:
                lo = mid
            else:
                hi = mid
        return lo, hi


def _decimal_pair_modulus_sq(poly, digits=60):
    """Bounds on |z|^2 = -c/r for a monic cubic X^3 + aX^2 + bX + c with
    one real root r > 1."""
    c = poly[3]
    lo, hi = _decimal_real_root(poly, digits)
    assert lo > 1
    with localcontext() as ctx:
        ctx.prec = digits + 20
        return sorted((-c / lo, -c / hi))


@pytest.mark.parametrize(
    "poly", [(1, -30000, 0, -30000), (1, -30000, 2, -30000)]
)
def test_is_pisot_decides_pairs_a_float_margin_cannot(poly):
    # one real root above 1 and a complex pair whose modulus lies within
    # about 5.6e-10 of 1: inside the old float margin, where that verdict
    # answered "indeterminate"
    assert _oracle_is_pisot(poly)[1] == REASON_INDETERMINATE
    low, high = _decimal_pair_modulus_sq(poly)
    assert low < high and (high < 1 or low > 1)
    assert abs(low - 1) < 2 * UNIT_MARGIN
    want = REASON_PISOT if high < 1 else REASON_NON_PISOT
    cert = is_pisot(poly)
    assert (cert.pisot, cert.reason) == (high < 1, want)


@pytest.mark.parametrize(
    "poly,reason",
    [
        ((1, -235756, 873157, -808477), REASON_NON_PISOT),
        ((1, 731003, -202557, 14064), REASON_NO_DOMINANT),
    ],
)
def test_find_roots_keeps_a_pair_the_closed_form_rounds_away(poly, reason):
    # one real root and a complex pair so narrow that the closed form's
    # radicand rounds below 0: the pair comes from the real root by Vieta
    _, a, b, c = poly
    assert a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c + 18 * a * b * c < 0
    roots = find_roots(poly).roots
    (real,) = [r.value for r in roots if r.is_real]
    low, high = sorted(
        (r.value for r in roots if not r.is_real), key=lambda z: z.imag
    )
    assert low == high.conjugate() and high.imag > 0
    lo, _ = _decimal_real_root(poly)
    with localcontext() as ctx:
        ctx.prec = 60
        re = (-a - lo) / 2
        want = complex(float(re), float((-c / lo - re * re).sqrt()))
    assert abs(real - float(lo)) <= 1e-9 * abs(real)
    assert abs(high - want) <= 1e-9 * abs(want)
    assert is_pisot(poly).reason == reason

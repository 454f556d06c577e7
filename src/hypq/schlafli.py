"""Validation of {p,q} and the recursive sector splitting systems.

A pair {p,q} describes the tiling of the plane by regular p-gons with q
of them around every vertex; it lives in the hyperbolic plane exactly
when 1/p + 1/q < 1/2.  For such a pair the plane can be carved into
angular sectors that reproduce themselves under a finite set of
production rules.  Even q admits a two-region scheme; odd q admits the
same matrix with a zig-zag geometry, plus two refinements (a
three-region variant and a doubled two-region variant).  The incidence
matrix of the rules and its characteristic polynomial drive the spanning
trees, the numeration systems and the regularity verdicts elsewhere in
the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import (
    DegenerateInput,
    NotHyperbolic,
    SchemeParityMismatch,
    UnknownRegion,
    UnsupportedCase,
)


class Region(Enum):
    """Sector species appearing in the splitting rules."""

    S0 = "S0"
    S0_PRIME = "S0'"
    S1 = "S1"

    @property
    def label(self) -> str:
        return self.value


#: Fixed region order used for matrix rows/columns and serialization.
REGION_ORDER = (Region.S0, Region.S0_PRIME, Region.S1)


class Scheme(Enum):
    """The four splitting schemes."""

    EVEN_Q = "even-q"
    ODD_LEGACY = "odd-legacy"
    ODD_V1 = "odd-v1"
    ODD_V2 = "odd-v2"

    @property
    def tag(self) -> str:
        return self.value

    @property
    def head(self) -> Region:
        """The region that heads the rules and seeds the tree."""
        return Region.S0_PRIME if self is Scheme.ODD_V2 else Region.S0

    @property
    def scale(self) -> int:
        """2 for the doubled two-region odd scheme, 1 otherwise."""
        return 2 if self is Scheme.ODD_V2 else 1


@dataclass(frozen=True)
class SchlafliPair:
    """A validated Schlafli pair {p,q}."""

    p: int
    q: int

    @property
    def h(self) -> int:
        """floor(q/2); the half-count that controls all odd-q constructions."""
        return self.q // 2

    def __str__(self) -> str:
        return f"{{{self.p},{self.q}}}"


def validate(p: int, q: int) -> SchlafliPair:
    """Check that {p,q} is a hyperbolic pair and return it.

    The hyperbolic condition 1/p + 1/q < 1/2 is tested in integer form
    (p*q > 2p + 2q), so {4,4}, {6,3} and {3,6} are rejected exactly.
    """
    if p < 3 or q < 3:
        raise DegenerateInput(f"{{{p},{q}}}: both p and q must be at least 3")
    if p * q <= 2 * (p + q):
        raise NotHyperbolic(f"{{{p},{q}}}: requires 1/p + 1/q < 1/2")
    return SchlafliPair(p, q)


@dataclass(frozen=True)
class SplittingRule:
    """One production rule: how a region splits into child regions.

    children is the ordered list of (kind, multiplicity) pairs; the order
    is the left-to-right order used by the spanning tree.  fans records
    the blocks of consecutive head-sharing copies as (vertex label, size)
    pairs; fan sizes are h-1 or h-2 (doubled for the two-region odd
    variant) and may be zero at small h.
    """

    parent: Region
    children: tuple[tuple[Region, int], ...]
    fans: tuple[tuple[str, int], ...]

    @property
    def child_total(self) -> int:
        return sum(m for _, m in self.children)

    def multiplicity(self, kind: Region) -> int:
        return sum(m for k, m in self.children if k is kind)


@dataclass(frozen=True)
class SplittingSystem:
    """A full rule set for one pair and scheme."""

    pair: SchlafliPair
    scheme: Scheme
    rules: tuple[SplittingRule, ...]
    seed: Region

    @property
    def regions(self) -> tuple[Region, ...]:
        present = {r.parent for r in self.rules}
        return tuple(k for k in REGION_ORDER if k in present)

    def rule(self, kind: Region) -> SplittingRule:
        for r in self.rules:
            if r.parent is kind:
                return r
        raise UnknownRegion(f"region {kind.label} does not occur under {self.scheme.tag}")


def _fan_blocks(p: int, h: int, scale: int) -> tuple[tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]]:
    """Fan layouts for the head region and for the trailing region.

    The head region carries p-3 fans of size h-1 at the vertices V2..V(p-2).
    The trailing region carries a fan of size h-2 at V2, then the head's
    own p-4 fans at V3..V(p-2), reused as built, then a fan of size h-2 at
    V1.  scale doubles every size for the two-region odd variant.
    """
    head = tuple((f"V{i}", scale * (h - 1)) for i in range(2, p - 1))
    short = scale * (h - 2)
    return head, (("V2", short),) + head[1:] + (("V1", short),)


def _check_rules(system: SplittingSystem) -> None:
    for rule in system.rules:
        mults = [m for _, m in rule.children]
        if any(m < 0 for m in mults):
            raise UnsupportedCase(
                f"{system.pair} under {system.scheme.tag}: negative branch multiplicity"
            )
        s1 = [m for k, m in rule.children if k is Region.S1]
        if s1 != [1]:
            raise AssertionError("every rule must produce exactly one trailing region")
        fan_total = sum(size for _, size in rule.fans)
        if fan_total != rule.multiplicity(system.seed):
            raise AssertionError("fan sizes must add up to the fanned multiplicity")


def check_scheme(pair: SchlafliPair, scheme: Scheme) -> None:
    """The scheme must match the parity of q, and odd schemes need h >= 2."""
    q_even = pair.q % 2 == 0
    if scheme is Scheme.EVEN_Q and not q_even:
        raise SchemeParityMismatch(f"{pair}: scheme {scheme.tag} needs even q")
    if scheme is not Scheme.EVEN_Q and q_even:
        raise SchemeParityMismatch(f"{pair}: scheme {scheme.tag} needs odd q")
    if scheme is not Scheme.EVEN_Q and pair.h < 2:
        raise UnsupportedCase(f"{pair}: odd schemes need q >= 5")


def auto_schemes(pair: SchlafliPair) -> tuple[Scheme, ...]:
    """The schemes a pair gets by default: even-q for even q, both odd
    variants for odd q."""
    if pair.q % 2 == 0:
        return (Scheme.EVEN_Q,)
    return (Scheme.ODD_V1, Scheme.ODD_V2)


def build_system(pair: SchlafliPair, scheme: Scheme) -> SplittingSystem:
    """Construct the splitting rules for a pair under a scheme.

    Even q uses two regions S0, S1.  Odd q offers three schemes: the
    legacy one (same matrix as even q, zig-zag sector walls), a
    three-region variant S0, S0', S1 and a doubled two-region variant
    S0', S1.  Besides check_scheme, every scheme needs p >= 4 for the
    fan layout to make sense.
    """
    check_scheme(pair, scheme)
    if pair.p < 4:
        raise UnsupportedCase(f"{pair}: the sector splittings need p >= 4")

    p, h = pair.p, pair.h
    f = (p - 3) * (h - 1)
    g = (p - 2) * (h - 1) - 2
    head, scale = scheme.head, scheme.scale
    head_fans, tail_fans = _fan_blocks(p, h, scale)
    tail = (Region.S1, 1)
    # the three-region scheme sheds one S0' between the head's copies and
    # its trailing region; S0' splits like S0 without it
    shed = ((Region.S0_PRIME, 1),) if scheme is Scheme.ODD_V1 else ()
    rules = [SplittingRule(head, ((head, scale * f), *shed, tail), head_fans)]
    if shed:
        rules.append(SplittingRule(Region.S0_PRIME, ((Region.S0, f), tail), head_fans))
    rules.append(SplittingRule(Region.S1, ((head, scale * g), tail), tail_fans))
    system = SplittingSystem(pair, scheme, tuple(rules), head)
    _check_rules(system)
    return system


@dataclass(frozen=True)
class IntMatrix:
    """The incidence matrix of a splitting system, row = parent region."""

    regions: tuple[Region, ...]
    entries: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.regions)

    def row(self, kind: Region) -> tuple[int, ...]:
        return self.entries[self.regions.index(kind)]


def splitting_matrix(system: SplittingSystem) -> IntMatrix:
    """Assemble the integer matrix M with M[i][j] = multiplicity of
    region j among the children of region i, regions in fixed order."""
    regions = system.regions
    entries = tuple(
        tuple(system.rule(parent).multiplicity(child) for child in regions)
        for parent in regions
    )
    return IntMatrix(regions, entries)


def characteristic_polynomial(matrix: IntMatrix) -> tuple[int, ...]:
    """det(X*I - M), monic, descending, for orders 1 to 3.

    The coefficients after the leading 1 are -trace, then the sum of the
    principal 2x2 minors, then -det (at order 2 the one minor is det).
    """
    m = matrix.entries
    if matrix.order == 1:
        ((a,),) = m
        return (1, -a)
    if matrix.order == 2:
        (a, b), (c, d) = m
        return (1, -(a + d), a * d - b * c)
    if matrix.order == 3:
        (a, b, c), (d, e, f), (g, h, i) = m
        minors = (a * e - b * d) + (a * i - c * g) + (e * i - f * h)
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        return (1, -(a + e + i), minors, -det)
    raise ValueError("only orders 1..3 are needed here")

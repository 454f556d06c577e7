"""Serialization of analysis results for the command line.

One schema, two renderings: ``report_dict`` produces the JSON shape
with the fixed top-level keys {pair, scheme, rules, matrix, polynomial,
roots, beta, pisot, regular, reason, digit_bound, warnings}; and
``report_text`` a human-readable block in the S0 / S0' / S1 notation.
Integers that do not fit a 53-bit float mantissa are emitted as decimal
strings so that a JSON round trip through doubles cannot corrupt them.

The factor decomposition and the root list describe the core that the
regularity verdict is taken on; they live under the "roots" key.

``report_json`` and ``reports_json`` lay out the indent-2 text with a
small hand-laid writer, byte-identical to ``json.dumps(indent=2)``.
``json.dumps`` runs CPython's C encoder only when ``indent`` is None, so
with an indent every leaf of a report (thousands of fan labels and
counts) would go through the pure-Python encoder; the writer joins the
layout itself and encodes the leaves with C-backed primitives.
"""

from __future__ import annotations

import json
from itertools import chain

from . import polyint
from .spectral import SpectralReport

#: Largest integer magnitude representable exactly by a double.
_SAFE_INT = 2**53


def _int(n: int):
    return str(n) if abs(n) >= _SAFE_INT else n


def _ints(seq) -> list:
    return [_int(n) for n in seq]


def poly_text(poly: tuple[int, ...]) -> str:
    """Readable form like ``X^3 - 2X^2 + 1``."""
    deg = polyint.degree(poly)
    if deg == 0:
        return str(poly[0])
    parts: list[str] = []
    for i, c in enumerate(poly):
        if c == 0:
            continue
        power = deg - i
        mag = abs(c)
        coeff = "" if (mag == 1 and power > 0) else str(mag)
        if power == 0:
            term = str(mag)
        elif power == 1:
            term = f"{coeff}X"
        else:
            term = f"{coeff}X^{power}"
        if not parts:
            parts.append(("-" if c < 0 else "") + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts)


def report_dict(sr: SpectralReport) -> dict:
    """The JSON-shaped report; stable key order, JSON-safe values."""
    rules = [
        {
            "parent": rule.parent.label,
            "children": [[k.label, _int(m)] for k, m in rule.children],
            "fans": [[label, _int(size)] for label, size in rule.fans],
        }
        for rule in sr.system.rules
    ]
    deco = sr.decomposition
    roots = {
        "decomposition": {
            "x_power": deco.stripped_x_power,
            "unit_factors": [_ints(u) for u in deco.unit_factors],
            "core": _ints(deco.core),
        },
        "values": [
            {
                "re": r.value.real,
                "im": r.value.imag,
                "exact": _int(r.exact) if r.exact is not None else None,
            }
            for r in sr.roots.roots
        ],
        "precision": sr.roots.precision,
    }
    return {
        "pair": {"p": sr.pair.p, "q": sr.pair.q},
        "scheme": sr.scheme.tag,
        "rules": rules,
        "matrix": [_ints(row) for row in sr.matrix.entries],
        "polynomial": _ints(sr.polynomial),
        "roots": roots,
        "beta": sr.beta,
        "pisot": sr.pisot,
        "regular": sr.regular,
        "reason": sr.reason,
        "digit_bound": _int(sr.digit_bound),
        "warnings": list(sr.warnings),
    }


def report_json(sr: SpectralReport) -> str:
    return _write(report_dict(sr))


def reports_json(srs: list[SpectralReport]) -> str:
    return _write([report_dict(sr) for sr in srs])


_encode_str = json.encoder.encode_basestring_ascii
#: json's own spelling of the rarer leaves: NaN, Infinity, -0.0, true, null.
_encode_other = json.JSONEncoder().encode
_LEAF = {
    str: _encode_str,
    int: int.__repr__,
    float: _encode_other,
    bool: _encode_other,
    type(None): _encode_other,
}
_LEAF_TYPES = frozenset(_LEAF)
_ROW_TYPES = frozenset((list, tuple))


def _leaves(values) -> list[str]:
    return [_LEAF[type(v)](v) for v in values]


def _write(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` for a JSON-shaped obj with str keys.

    pad is the line break and indentation before obj's closing bracket.
    A list of equally long leaf lists (the matrix rows, the thousands of
    [label, count] fan pairs) is encoded in one pass and cut into rows.
    """
    leaf = _LEAF.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_encode_str(k) + ": " + _write(v, inner) for k, v in obj.items()]
        return "{" + inner + sep.join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if _LEAF_TYPES.issuperset(map(type, obj)):
            items = _leaves(obj)
        elif (
            _ROW_TYPES.issuperset(map(type, obj))
            and all(obj)
            and len(set(map(len, obj))) == 1
            and _LEAF_TYPES.issuperset(map(type, chain.from_iterable(obj)))
        ):
            deeper = inner + "  "
            cells = _leaves(chain.from_iterable(obj))
            rows = map(("," + deeper).join, zip(*[iter(cells)] * len(obj[0])))
            row_sep = inner + "]," + inner + "[" + deeper
            items = ["[" + deeper + row_sep.join(rows) + inner + "]"]
        else:
            items = [_write(v, inner) for v in obj]
        return "[" + inner + sep.join(items) + pad + "]"
    return _encode_other(obj)


def _rule_text(rule) -> str:
    children = " + ".join(f"{m}*{k.label}" for k, m in rule.children if m)
    fans = ", ".join(f"{label}:{size}" for label, size in rule.fans if size)
    line = f"  {rule.parent.label:3} -> {children}"
    if fans:
        line += f"    fans {fans}"
    return line


def report_text(sr: SpectralReport) -> str:
    """Human-readable block; one report per analyzed scheme."""
    lines = [f"{sr.pair} under {sr.scheme.tag}"]
    lines.append("rules:")
    lines.extend(_rule_text(rule) for rule in sr.system.rules)
    width = max(
        len(str(e)) for row in sr.matrix.entries for e in row
    )
    lines.append("matrix:")
    for row in sr.matrix.entries:
        lines.append("  [" + " ".join(f"{e:>{width}}" for e in row) + "]")
    lines.append(
        f"polynomial: {list(sr.polynomial)}   {poly_text(sr.polynomial)}"
    )
    deco = sr.decomposition
    if deco.stripped_x_power or deco.unit_factors:
        stripped = [f"X^{deco.stripped_x_power}"] if deco.stripped_x_power else []
        stripped += [poly_text(u) for u in deco.unit_factors]
        lines.append(
            f"core: {list(deco.core)} after stripping {', '.join(stripped)}"
        )
    roots = []
    for r in sr.roots.roots:
        if r.exact is not None:
            roots.append(f"{r.exact} (exact)")
        elif r.value.imag == 0.0:
            roots.append(f"{r.value.real:.10f}")
        else:
            roots.append(f"{r.value.real:.10f}{r.value.imag:+.10f}i")
    lines.append(f"roots: {', '.join(roots)}")
    lines.append(f"beta: {sr.beta:.10f}")
    lines.append(f"digit bound: {sr.digit_bound}")
    lines.append(
        f"pisot: {str(sr.pisot).lower()}   regular: {str(sr.regular).lower()}"
        f"   reason: {sr.reason}"
    )
    for w in sr.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)

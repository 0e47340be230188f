"""Text forms for fractions, field elements, ideals, conductors and classes.

Grammar, with w standing for the field's integral generator:
  element    1+2*w   -3   w   5-2*w
  ideal      (1+w,3)          generators, comma separated
  conductor  4*P2*P3          product of integers, named primes, ideals
  class      [1+2*w]*[(3,1+w)]^-1*[1,-1]@P3*4*P2
Named primes P<p> resolve through prime splitting with the smaller HNF
residue; a 'bar' suffix picks the conjugate.  A Chinese-remainder class
factor [r1,...]@f1*... must be the last factor: everything after the @ is
read as its conductor factor list.
"""

from __future__ import annotations

from fractions import Fraction

from .quadfield import Field, QIdeal, QuadInt, ideal_from_gens, principal_ideal, split_prime
from .rayclass import Conductor, RayClassRef, crt_class, ray_class


class ParseError(ValueError):
    pass


def parse_fraction(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def parse_element(fld: Field, text: str) -> QuadInt:
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty element")
    # split into signed monomials
    monos: list[str] = []
    cur = ""
    for i, ch in enumerate(s):
        if ch in "+-" and i > 0 and s[i - 1] not in "+-*":
            monos.append(cur)
            cur = ch
        else:
            cur += ch
    monos.append(cur)
    x = y = 0
    for mono in monos:
        m = mono.lstrip("+")
        sign = 1
        while m.startswith("-"):
            sign = -sign
            m = m[1:]
        if not m:
            raise ParseError(f"bad element {text!r}")
        if m == "w":
            y += sign
        elif m.endswith("*w"):
            y += sign * _int(m[:-2], text)
        elif m.endswith("w"):
            y += sign * _int(m[:-1], text)
        else:
            x += sign * _int(m, text)
    return fld.elem(x, y)


def _int(s: str, ctx: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ParseError(f"bad integer {s!r} in {ctx!r}") from None


def parse_named_prime(fld: Field, name: str) -> QIdeal:
    base = name
    conj = False
    if base.endswith("bar"):
        conj = True
        base = base[:-3]
    if not base.startswith("P") or not base[1:].isdigit():
        raise ParseError(f"bad prime name {name!r}")
    p = int(base[1:])
    rec = split_prime(fld, p)
    if rec.kind == "inert":
        raise ParseError(f"{p} is inert; there is no ideal of norm {p}")
    if conj:
        if rec.kind == "ramified":
            return rec.prime
        return rec.conj
    return rec.prime


def parse_ideal_literal(fld: Field, text: str) -> QIdeal:
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError(f"ideal literal must be parenthesized: {text!r}")
    gens = [parse_element(fld, part) for part in s[1:-1].split(",") if part.strip()]
    if not gens:
        raise ParseError(f"no generators in {text!r}")
    return ideal_from_gens(gens)


def _split_top(s: str, sep: str) -> list[str]:
    parts = []
    depth = 0
    cur = ""
    for ch in s:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += ch
    parts.append(cur)
    return parts


def parse_conductor_expr(fld: Field, text: str) -> QIdeal:
    """Product of integer literals, named primes and ideal literals."""
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty conductor expression")
    out = fld.maximal_order
    for part in _split_top(s, "*"):
        if not part:
            raise ParseError(f"empty factor in {text!r}")
        if part.startswith("("):
            factor = parse_ideal_literal(fld, part)
        elif part.startswith("P") and len(part) > 1 and part[1].isdigit():
            factor = parse_named_prime(fld, part)
        elif part[0].isdigit() and "P" in part:
            # juxtaposed form like 4P2: one factor equal to (4) * P2
            cut = part.index("P")
            factor = principal_ideal(fld.elem(_int(part[:cut], text))).mul(
                parse_named_prime(fld, part[cut:])
            )
        else:
            factor = principal_ideal(fld.elem(_int(part, text)))
        out = out.mul(factor)
    return out


def parse_class_spec(fld: Field, text: str, F: Conductor) -> RayClassRef:
    """Product of class factors at the conductor F.

    Factors: [element], [ideal literal], either with an optional integer
    exponent ^k (taken modulo the group order), and Chinese-remainder forms
    [r1,r2,...]@f1*f2*... whose factor list must multiply to F.
    """
    s = text.replace(" ", "")
    raw_parts = _split_top(s, "*")
    parts: list[str] = []
    for i, part in enumerate(raw_parts):
        if "@" in part:
            # a Chinese-remainder factor owns the rest of the expression
            parts.append("*".join(raw_parts[i:]))
            break
        parts.append(part)
    result: RayClassRef | None = None
    for part in parts:
        if not part:
            raise ParseError(f"empty factor in {text!r}")
        exp = 1
        if "^" in part:
            part, etext = part.rsplit("^", 1)
            exp = _int(etext, text)
        if "@" in part:
            bracket, mods = part.split("@", 1)
            if mods.startswith("F="):
                mods = mods[2:]
            if not (bracket.startswith("[") and bracket.endswith("]")):
                raise ParseError(f"bad CRT factor {part!r}")
            residues = [x for x in bracket[1:-1].split(",")]
            factors = []
            for ftext in _split_top(mods, "*"):
                factors.append(parse_conductor_expr(fld, ftext))
            if len(residues) != len(factors):
                raise ParseError("CRT residue count differs from factor count")
            components = [
                (Q, parse_element(fld, rtext)) for Q, rtext in zip(factors, residues)
            ]
            ref = crt_class(components, F)
        else:
            if not (part.startswith("[") and part.endswith("]")):
                raise ParseError(f"bad class factor {part!r}")
            inner = part[1:-1]
            if inner.startswith("("):
                ideal = parse_ideal_literal(fld, inner)
            else:
                ideal = principal_ideal(parse_element(fld, inner))
            ref = RayClassRef(ideal, F)
        # x^order = 1: square and multiply on the reduced exponent
        acc, exp = ray_class(1, F), exp % F.group.order
        while exp:
            if exp & 1:
                acc = acc * ref
            ref, exp = ref * ref, exp >> 1
        result = acc if result is None else result * acc
    if result is None:
        raise ParseError("empty class spec")
    return result

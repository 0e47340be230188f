"""Exact sparse q-series with rational exponents and integer coefficients.

A series is a finite map from exponents to coefficients together with a
rational truncation bound T: every term with exponent <= T is tracked
exactly and everything above T is discarded.  Exponents are kept as integer
numerators over a single positive denominator per series, so all arithmetic
is integer arithmetic; there is no floating point anywhere in this module.

Series values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Iterator, Mapping, Optional


class ExactDivisionError(ArithmeticError):
    """A quotient coefficient failed to be an integer."""


def _fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not exact; pass int, Fraction or a 'p/q' string")
    return Fraction(x)


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


class QSeries:
    """Truncated formal series sum_n c_n q^(n/denom) with c_n in Z.

    Invariants: no stored coefficient is zero, every stored exponent is
    <= trunc, and denom is reduced (gcd of denom and all numerators is 1),
    which makes equality plain field-wise comparison.
    """

    __slots__ = ("denom", "terms", "trunc")

    def __init__(self, denom: int, terms: Mapping[int, int], trunc) -> None:
        trunc = _fraction(trunc)
        if denom <= 0:
            raise ValueError("exponent denominator must be positive")
        kept = {
            n: c
            for n, c in terms.items()
            if c != 0 and n * trunc.denominator <= trunc.numerator * denom
        }
        g = denom
        for n in kept:
            g = gcd(g, n)
            if g == 1:
                break
        if g > 1:
            denom //= g
            kept = {n // g: c for n, c in kept.items()}
        if not kept:
            denom = 1
        self.denom = denom
        self.terms = kept
        self.trunc = trunc

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, trunc) -> "QSeries":
        return cls(1, {}, trunc)

    @classmethod
    def one(cls, trunc) -> "QSeries":
        return cls(1, {0: 1}, trunc)

    @classmethod
    def from_exponents(cls, terms: Mapping[Fraction, int], trunc) -> "QSeries":
        """Build from a map of exact rational exponents to coefficients."""
        denom = 1
        for e in terms:
            denom = _lcm(denom, _fraction(e).denominator)
        scaled: dict[int, int] = {}
        for e, c in terms.items():
            e = _fraction(e)
            n = e.numerator * (denom // e.denominator)
            scaled[n] = scaled.get(n, 0) + c
        return cls(denom, scaled, trunc)

    # -- inspection ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def exponents(self) -> list[Fraction]:
        return [Fraction(n, self.denom) for n in sorted(self.terms)]

    def coeff(self, e) -> int:
        e = _fraction(e)
        if self.denom % e.denominator:
            return 0
        return self.terms.get(e.numerator * (self.denom // e.denominator), 0)

    def min_exponent(self) -> Optional[Fraction]:
        if not self.terms:
            return None
        return Fraction(min(self.terms), self.denom)

    def items(self) -> Iterator[tuple[Fraction, int]]:
        for n in sorted(self.terms):
            yield Fraction(n, self.denom), self.terms[n]

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return (
            self.denom == other.denom
            and self.terms == other.terms
            and self.trunc == other.trunc
        )

    def __hash__(self) -> int:
        return hash((self.denom, tuple(sorted(self.terms.items())), self.trunc))

    def __repr__(self) -> str:
        if not self.terms:
            return f"QSeries(0; trunc={self.trunc})"
        bits = []
        for e, c in self.items():
            exp = "" if e == 0 else ("*q" if e == 1 else f"*q^({e})")
            bits.append(f"{c:+d}{exp}")
        return f"QSeries({' '.join(bits)}; trunc={self.trunc})"

    # -- ring operations ----------------------------------------------------

    def _aligned(self, other: "QSeries") -> tuple[int, dict[int, int], dict[int, int]]:
        D = _lcm(self.denom, other.denom)
        fa, fb = D // self.denom, D // other.denom
        a = self.terms if fa == 1 else {n * fa: c for n, c in self.terms.items()}
        b = other.terms if fb == 1 else {n * fb: c for n, c in other.terms.items()}
        return D, a, b

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        D, a, b = self._aligned(other)
        out = dict(a)
        for n, c in b.items():
            out[n] = out.get(n, 0) + c
        return QSeries(D, out, min(self.trunc, other.trunc))

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __neg__(self) -> "QSeries":
        return QSeries(self.denom, {n: -c for n, c in self.terms.items()}, self.trunc)

    def scaled(self, k: int) -> "QSeries":
        return QSeries(self.denom, {n: k * c for n, c in self.terms.items()}, self.trunc)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scaled(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        D, a, b = self._aligned(other)
        T = min(self.trunc, other.trunc)
        nmax = (T.numerator * D) // T.denominator
        sa = sorted(a.items())
        sb = sorted(b.items())
        out: dict[int, int] = {}
        if sa and sb:
            nb0 = sb[0][0]
            for na, ca in sa:
                if na + nb0 > nmax:
                    break
                for nb, cb in sb:
                    n = na + nb
                    if n > nmax:
                        break
                    out[n] = out.get(n, 0) + ca * cb
        return QSeries(D, out, T)

    __rmul__ = __mul__

    def truncated(self, trunc) -> "QSeries":
        trunc = _fraction(trunc)
        if trunc > self.trunc:
            raise ValueError(f"cannot extend truncation {self.trunc} to {trunc}")
        return QSeries(self.denom, self.terms, trunc)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "denom": self.denom,
            "trunc": [self.trunc.numerator, self.trunc.denominator],
            "terms": [[n, self.terms[n]] for n in sorted(self.terms)],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "QSeries":
        return cls(d["denom"], dict(d["terms"]), Fraction(d["trunc"][0], d["trunc"][1]))


def equals_to_order(a: QSeries, b: QSeries, order) -> tuple[bool, Optional[tuple[Fraction, int, int]]]:
    """Exact comparison of all coefficients with exponent <= order.

    Returns (True, None) on agreement, else (False, (e, ca, cb)) for the
    smallest mismatching exponent e.  Refuses to compare beyond what either
    series actually knows.
    """
    order = _fraction(order)
    if order > a.trunc or order > b.trunc:
        raise ValueError(
            f"comparison order {order} exceeds a truncation bound "
            f"({a.trunc}, {b.trunc})"
        )
    D, ta, tb = a._aligned(b)
    nmax = (order.numerator * D) // order.denominator
    for n in sorted(set(ta) | set(tb)):
        if n > nmax:
            break
        ca, cb = ta.get(n, 0), tb.get(n, 0)
        if ca != cb:
            return False, (Fraction(n, D), ca, cb)
    return True, None


def divide_by_unit(num: QSeries, den: QSeries) -> QSeries:
    """q-series quotient num/den with exact integer coefficients.

    den must be nonzero; after factoring out its minimal exponent its leading
    coefficient has to divide every quotient coefficient produced, otherwise
    ExactDivisionError is raised.  The result is exact to
    min(num.trunc, den.trunc) minus den's minimal exponent, and satisfies
    divide_by_unit(num, den) * den == num on that range.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero series")
    D, a, b = num._aligned(den)
    sb = sorted(b.items())
    m0, b0 = sb[0]
    tail = sb[1:]
    t_res = min(num.trunc, den.trunc) - Fraction(m0, D)
    nmax = (t_res.numerator * D) // t_res.denominator + m0
    work = {n: c for n, c in a.items() if n <= nmax}
    heap = sorted(work)
    out: dict[int, int] = {}
    while heap:
        e = heapq.heappop(heap)
        c = work.pop(e, 0)
        if c == 0:
            continue
        if c % b0:
            raise ExactDivisionError(
                f"coefficient {c} at exponent {Fraction(e, D)} is not divisible by {b0}"
            )
        qc = c // b0
        qn = e - m0
        out[qn] = qc
        for m, bm in tail:
            n2 = qn + m
            if n2 > nmax:
                break
            prev = work.get(n2, 0)
            if prev == 0 and n2 not in work:
                heapq.heappush(heap, n2)
            work[n2] = prev - qc * bm
    return QSeries(D, out, t_res)


# -- classical series -------------------------------------------------------


def theta_lincomb(combo: Iterable[tuple[int, int]], level: int, trunc) -> QSeries:
    """Integer combination sum_i c_i theta(ell_i, level) of level-k lattice sums.

    theta(ell, k) = sum_{n in Z} q^(k (n + ell/2k)^2), so every term sits at
    an exponent (2kn + ell)^2 / 4k.  All terms go into one integer dict over
    denominator 4k; the summation range of each ell is derived from exact
    integer square-root bounds so no term below the truncation is missed.
    """
    if level < 1:
        raise ValueError("level must be a positive integer")
    T = _fraction(trunc)
    if T < 0:
        raise ValueError("truncation must be >= 0")
    k4 = 4 * level
    two_k = 2 * level
    M = isqrt((k4 * T.numerator) // T.denominator)
    terms: dict[int, int] = {}
    for c, ell in combo:
        if not isinstance(c, int):
            raise TypeError("theta combination coefficients must be integers")
        # every v = ell mod 2k with |v| <= M, from the lowest upwards
        for v in range(ell - two_k * ((M + ell) // two_k), M + 1, two_k):
            e = v * v
            terms[e] = terms.get(e, 0) + c
    return QSeries(k4, terms, T)


def theta_gen(ell: int, level: int, trunc) -> QSeries:
    """Level-k lattice sum sum_{n in Z} q^(k (n + ell/2k)^2), k = level."""
    return theta_lincomb(((1, ell),), level, trunc)


def series_sum(series: Iterable[QSeries]) -> QSeries:
    """Sum of a nonempty collection of series, accumulated in one dict.

    Denominators are aligned once, to their common multiple; the result is
    truncated at the smallest truncation among the summands.
    """
    parts = list(series)
    if not parts:
        raise ValueError("empty sum")
    D = 1
    for s in parts:
        D = _lcm(D, s.denom)
    out: dict[int, int] = {}
    for s in parts:
        f = D // s.denom
        for n, c in s.terms.items():
            n *= f
            out[n] = out.get(n, 0) + c
    return QSeries(D, out, min(s.trunc for s in parts))


def eta(trunc) -> QSeries:
    """Dedekind eta as the level-6 theta difference theta(1,6) - theta(5,6)."""
    return theta_lincomb(((1, 1), (-1, 5)), 6, trunc)


def v_func(r: int, m: int, trunc) -> QSeries:
    """V(r, m) = theta(r, m(m+1)) - theta(r(2m+1), m(m+1)) for m >= 2."""
    if m < 2:
        raise ValueError("m must be >= 2")
    return theta_lincomb(((1, r), (-1, r * (2 * m + 1))), m * (m + 1), trunc)


def virasoro_char(r: int, s: int, m: int, trunc) -> QSeries:
    """Unitary minimal-model character at level m, indices 1 <= s <= r <= m-1.

    Computed as [theta(r(m+1)-sm, m(m+1)) - theta(r(m+1)+sm, m(m+1))] / eta;
    the division is exact and the result is good through the requested
    truncation.  Leading exponents may be negative (the vacuum character at
    m=3 starts at q^(-1/48)).
    """
    if m < 2 or not (1 <= s <= r <= m - 1):
        raise ValueError("need 2 <= m and 1 <= s <= r <= m-1")
    pad = _fraction(trunc) + Fraction(1, 24)
    k = m * (m + 1)
    num = theta_lincomb(((1, r * (m + 1) - s * m), (-1, r * (m + 1) + s * m)), k, pad)
    return divide_by_unit(num, eta(pad))

"""Arithmetic of the ring of integers of an imaginary quadratic field.

K = Q[sqrt(D)] for squarefree D < 0.  Elements are a + b*w with w = sqrt(D)
when D = 2, 3 mod 4 and w = (1 + sqrt(D))/2 when D = 1 mod 4.  Fractional
ideals are canonical scaled Hermite-normal-form lattices
(1/q) * (a Z + (b + c w) Z); the representation is unique, so equality and
hashing are plain field-wise comparison.  Everything here is immutable and
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Optional

from .qseries import _fraction


# -- rational integer helpers -------------------------------------------------


def is_squarefree(n: int) -> bool:
    return n != 0 and all(e == 1 for e in factorint(n).values())


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| by trial division (desk-scale inputs)."""
    if not isinstance(n, int):
        raise TypeError("n must be an int")
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primes_upto(n: int) -> list[int]:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


def legendre(a: int, p: int) -> int:
    """Quadratic residue symbol (a/p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks)."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a square modulo {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def squarefree_decompose(n: int) -> tuple[int, int]:
    """n = mu^2 * n0 with n0 squarefree; returns (mu, n0). Requires n > 0."""
    if n <= 0:
        raise ValueError("need a positive integer")
    mu, n0 = 1, 1
    for p, e in factorint(n).items():
        mu *= p ** (e // 2)
        if e % 2:
            n0 *= p
    return mu, n0


# -- field --------------------------------------------------------------------


class Field:
    """Parameters of Q[sqrt(D)] and its ring of integers."""

    __slots__ = ("D", "half_basis", "disc", "omega_norm", "units")

    def __init__(self, D: int) -> None:
        if not isinstance(D, int):
            raise TypeError("D must be an int")
        if D >= 0 or not is_squarefree(D):
            raise ValueError("D must be a negative squarefree integer")
        self.D = D
        self.half_basis = D % 4 == 1
        self.disc = D if self.half_basis else 4 * D
        self.omega_norm = (1 - D) // 4 if self.half_basis else -D
        if D == -1:
            units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        elif D == -3:
            units = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]
        else:
            units = [(1, 0), (-1, 0)]
        self.units = tuple(QuadInt(self, x, y) for x, y in units)

    def __repr__(self) -> str:
        return f"Field(D={self.D})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.D == self.D

    def __hash__(self) -> int:
        return hash(("Field", self.D))

    # norm and conjugation in (1, w) coordinates; x, y may be rationals
    def norm_xy(self, x, y):
        if self.half_basis:
            return x * x + x * y + self.omega_norm * y * y
        return x * x + self.omega_norm * y * y

    def conj_xy(self, x, y):
        if self.half_basis:
            return x + y, -y
        return x, -y

    def omega_mul_xy(self, x, y):
        """Coordinates of w * (x + y w)."""
        if self.half_basis:
            return -self.omega_norm * y, x + y
        return self.D * y, x

    def mul_xy(self, x1, y1, x2, y2):
        if self.half_basis:
            return x1 * x2 - self.omega_norm * y1 * y2, x1 * y2 + x2 * y1 + y1 * y2
        return x1 * x2 + self.D * y1 * y2, x1 * y2 + x2 * y1

    def sqrtD_xy(self) -> tuple[int, int]:
        """Coordinates of sqrt(D) itself."""
        return (-1, 2) if self.half_basis else (0, 1)

    def elem(self, x: int, y: int = 0) -> "QuadInt":
        if not (isinstance(x, int) and isinstance(y, int)):
            raise TypeError("element coordinates must be ints")
        return QuadInt(self, x, y)

    @property
    def one(self) -> "QuadInt":
        return QuadInt(self, 1, 0)

    @property
    def maximal_order(self) -> "QIdeal":
        return QIdeal(self, 1, 1, 0, 1)


_FIELDS: dict[int, Field] = {}


def field(D: int) -> Field:
    if not isinstance(D, int):
        raise TypeError("D must be an int")
    if D not in _FIELDS:
        _FIELDS[D] = Field(D)
    return _FIELDS[D]


# -- elements -----------------------------------------------------------------


class QuadInt:
    """Algebraic integer x + y*w of a fixed field, exact integer coordinates."""

    __slots__ = ("field", "x", "y")

    def __init__(self, fld: Field, x: int, y: int) -> None:
        self.field = fld
        self.x = x
        self.y = y

    def __add__(self, other: "QuadInt") -> "QuadInt":
        return QuadInt(self.field, self.x + other.x, self.y + other.y)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        return QuadInt(self.field, self.x - other.x, self.y - other.y)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.field, -self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, int):
            return QuadInt(self.field, self.x * other, self.y * other)
        x, y = self.field.mul_xy(self.x, self.y, other.x, other.y)
        return QuadInt(self.field, x, y)

    __rmul__ = __mul__

    def conj(self) -> "QuadInt":
        x, y = self.field.conj_xy(self.x, self.y)
        return QuadInt(self.field, x, y)

    def norm(self) -> int:
        return self.field.norm_xy(self.x, self.y)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuadInt)
            and self.field.D == other.field.D
            and self.x == other.x
            and self.y == other.y
        )

    def __hash__(self) -> int:
        return hash((self.field.D, self.x, self.y))

    def __repr__(self) -> str:
        if self.y == 0:
            return f"{self.x}"
        w = f"{self.y}*w" if self.y not in (1, -1) else ("w" if self.y == 1 else "-w")
        return f"{self.x}{'+' if self.y > 0 and self.x != 0 else ''}{w}" if self.x else w


# -- lattice HNF --------------------------------------------------------------


def _extgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, s, t with s*a + t*b = g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf2(cols: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """HNF (a, b, c) of the Z-span of integer columns: a Z + (b, c) Z.

    Requires full rank; a, c > 0 and 0 <= b < a on return.
    """
    a = 0
    b = c = 0
    for x, y in cols:
        if x == 0 and y == 0:
            continue
        if y == 0:
            a = gcd(a, x)
            continue
        if c == 0:
            b, c = x, y
            continue
        g, s, t = _extgcd(c, y)
        a = gcd(a, (c * x - y * b) // g)
        b, c = s * b + t * x, g
    if a == 0 or c == 0:
        raise ValueError("columns do not span a rank-2 lattice")
    a = abs(a)
    if c < 0:
        b, c = -b, -c
    b %= a
    return a, b, c


# -- ideals -------------------------------------------------------------------


class QIdeal:
    """Fractional ideal (1/q) * (a Z + (b + c w) Z) in canonical form.

    Canonical means a, c > 0, 0 <= b < a, gcd(q, c) = 1 and q minimal with
    q * I integral; integral ideals therefore have q = 1 and norm a * c.
    """

    __slots__ = ("field", "q", "a", "b", "c")

    def __init__(self, fld: Field, q: int, a: int, b: int, c: int) -> None:
        self.field = fld
        self.q = q
        self.a = a
        self.b = b
        self.c = c

    @classmethod
    def from_scaled_columns(
        cls, fld: Field, den: int, cols: Iterable[tuple[int, int]]
    ) -> "QIdeal":
        """(1/den) times the Z-span of integer columns, canonicalized."""
        a, b, c = hnf2(cols)
        g = gcd(gcd(a, b), c)
        gq = gcd(den, g)
        if gq > 1:
            den //= gq
            a, b, c = a // gq, b // gq, c // gq
        return cls(fld, den, a, b, c)

    # -- basic structure ------------------------------------------------------

    @property
    def key(self) -> tuple[int, int, int, int]:
        return (self.q, self.a, self.b, self.c)

    def norm(self) -> Fraction:
        return Fraction(self.a * self.c, self.q * self.q)

    @property
    def is_integral(self) -> bool:
        return self.q == 1

    def is_maximal_order(self) -> bool:
        return self.key == (1, 1, 0, 1)

    def basis(self) -> tuple[QuadInt, QuadInt]:
        """Z-basis of q * I (the integral scaled lattice)."""
        return (
            QuadInt(self.field, self.a, 0),
            QuadInt(self.field, self.b, self.c),
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QIdeal)
            and self.field.D == other.field.D
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.field.D, self.key))

    def __repr__(self) -> str:
        s = f"[{self.a}, {self.b}+{self.c}w]"
        return s if self.q == 1 else f"(1/{self.q})*{s}"

    # -- membership -----------------------------------------------------------

    def contains_xy(self, x, y) -> bool:
        """Membership of the field element x + y*w (rational coordinates)."""
        qx, qy = self.q * Fraction(x), self.q * Fraction(y)
        if qx.denominator != 1 or qy.denominator != 1:
            return False
        j, r = divmod(int(qy), self.c)
        if r:
            return False
        return (int(qx) - j * self.b) % self.a == 0

    def __contains__(self, elt: QuadInt) -> bool:
        if self.q == 1:
            j, r = divmod(elt.y, self.c)
            if r:
                return False
            return (elt.x - j * self.b) % self.a == 0
        return self.contains_xy(elt.x, elt.y)

    # -- arithmetic -------------------------------------------------------------

    def mul(self, other: "QIdeal") -> "QIdeal":
        f = self.field
        cols = []
        for g in self.basis():
            for h in other.basis():
                p = g * h
                cols.append((p.x, p.y))
        return QIdeal.from_scaled_columns(f, self.q * other.q, cols)

    def __mul__(self, other):
        if isinstance(other, QIdeal):
            return self.mul(other)
        return NotImplemented

    def scaled(self, r: Fraction) -> "QIdeal":
        """The ideal r * I for a positive rational r."""
        r = _fraction(r)
        if r <= 0:
            raise ValueError("scale must be positive")
        num, den = r.numerator, r.denominator
        cols = [(num * g.x, num * g.y) for g in self.basis()]
        return QIdeal.from_scaled_columns(self.field, self.q * den, cols)

    def conj(self) -> "QIdeal":
        cols = []
        for g in self.basis():
            h = g.conj()
            cols.append((h.x, h.y))
        return QIdeal.from_scaled_columns(self.field, self.q, cols)

    def inverse(self) -> "QIdeal":
        return self.conj().scaled(1 / self.norm())

    def add(self, other: "QIdeal") -> "QIdeal":
        """hcf(I, J) = I + J, the smallest lattice containing both."""
        den = self.q * other.q // gcd(self.q, other.q)
        fa, fb = den // self.q, den // other.q
        cols = [(fa * g.x, fa * g.y) for g in self.basis()]
        cols += [(fb * g.x, fb * g.y) for g in other.basis()]
        return QIdeal.from_scaled_columns(self.field, den, cols)

    def divides(self, other: "QIdeal") -> bool:
        return other.mul(self.inverse()).is_integral

    def is_coprime(self, other: "QIdeal") -> bool:
        return self.add(other).is_maximal_order()

    def pow(self, e: int) -> "QIdeal":
        if e < 0:
            return self.inverse().pow(-e)
        out = self.field.maximal_order
        base = self
        while e:
            if e & 1:
                out = out.mul(base)
            base = base.mul(base) if e > 1 else base
            e >>= 1
        return out


def principal_ideal(g: QuadInt) -> QIdeal:
    return ideal_from_gens([g])


def ideal_from_gens(gens: Iterable[QuadInt]) -> QIdeal:
    """The integral ideal generated by the given elements."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("at least one nonzero generator required")
    fld = gens[0].field
    cols = []
    for g in gens:
        cols.append((g.x, g.y))
        cols.append(fld.omega_mul_xy(g.x, g.y))
    return QIdeal.from_scaled_columns(fld, 1, cols)


# -- prime splitting ----------------------------------------------------------


@dataclass(frozen=True)
class SplitRecord:
    """How a rational prime p decomposes: inert, ramified(P) or split(P, Pbar)."""

    p: int
    kind: str
    prime: Optional[QIdeal]
    conj: Optional[QIdeal]

    def primes_above(self) -> list[QIdeal]:
        if self.kind == "inert":
            return []
        if self.kind == "ramified":
            return [self.prime]
        return [self.prime, self.conj]


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return factorint(p) == {p: 1}


def split_prime(fld: Field, p: int) -> SplitRecord:
    """Decomposition of p in O_K; the returned prime has the smaller HNF b.

    For odd p the number of ideals of norm p is 1 + (D/p); p = 2 is decided
    by the discriminant residue mod 8.
    """
    if not isinstance(p, int):
        raise TypeError("p must be an int")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    D = fld.D

    def prime_at(b: int) -> QIdeal:
        b %= p
        assert fld.norm_xy(b, 1) % p == 0
        return QIdeal(fld, 1, p, b, 1)

    def conj_b(b: int) -> int:
        return (-b - 1) % p if fld.half_basis else (-b) % p

    if p == 2:
        if not fld.half_basis:
            return SplitRecord(2, "ramified", prime_at(D % 2), None)
        if D % 8 == 1:
            b1, b2 = 0, 1
            return SplitRecord(2, "split", prime_at(b1), prime_at(b2))
        return SplitRecord(2, "inert", None, None)
    if D % p == 0:
        b = (p - 1) // 2 if fld.half_basis else 0
        return SplitRecord(p, "ramified", prime_at(b), None)
    sym = legendre(D, p)
    if sym == -1:
        return SplitRecord(p, "inert", None, None)
    x = sqrt_mod(D, p)
    if fld.half_basis:
        # solve (2b+1)^2 = D mod p: pick the odd square root
        if x % 2 == 0:
            x = p - x
        b = ((x - 1) // 2) % p
    else:
        b = x % p
    b2 = conj_b(b)
    lo, hi = min(b, b2), max(b, b2)
    return SplitRecord(p, "split", prime_at(lo), prime_at(hi))


def _prime_ideals_above(fld: Field, p: int) -> list[QIdeal]:
    """The prime ideals over p: (p) itself when p is inert."""
    return split_prime(fld, p).primes_above() or [principal_ideal(fld.elem(p))]


# -- factorization ------------------------------------------------------------


def valuation(I: QIdeal, P: QIdeal) -> int:
    """v_P(I) for a prime ideal P; negative for denominators."""
    if not I.is_integral:
        integral = QIdeal(I.field, 1, I.a, I.b, I.c)
        denom = principal_ideal(I.field.elem(I.q))
        return valuation(integral, P) - valuation(denom, P)
    Pinv = P.inverse()
    v = 0
    cur = I
    nxt = cur.mul(Pinv)
    while nxt.is_integral:
        v += 1
        cur = nxt
        nxt = cur.mul(Pinv)
    return v


def factor_ideal(I: QIdeal) -> dict[QIdeal, int]:
    """Prime factorization; reconstructing the product returns I exactly."""
    fld = I.field
    out: dict[QIdeal, int] = {}

    def accumulate(n_norm: int, sign: int, L: QIdeal) -> None:
        for p in factorint(n_norm):
            for P in _prime_ideals_above(fld, p):
                v = valuation(L, P)
                if v:
                    out[P] = out.get(P, 0) + sign * v

    integral = QIdeal(fld, 1, I.a, I.b, I.c)
    accumulate(I.a * I.c, 1, integral)
    if I.q != 1:
        accumulate(I.q, -1, principal_ideal(fld.elem(I.q)))
    return {P: v for P, v in out.items() if v}


# -- reduced forms and principality (one Gauss reduction) ----------------------


def _gauss_reduce(I: QIdeal) -> tuple[tuple[int, int, int], tuple[int, int]]:
    """The reduced form (A, B, C) of I's ideal class, and the first vector u
    of the reduced basis, a point of least norm A N(L) of L = q I.

    The form is N(x a + y (b + c w)) / N(L) on the oriented HNF basis (u, v)
    of L, reduced so that |B| <= A <= C, with B >= 0 when A = C
    (Cohen, GTM 138, 5.3).  Each step is v += r u, or the swap
    (u, v) <- (v, -u), which keeps the orientation, so two ideals have the
    same reduced form exactly when they lie in the same ideal class.
    """
    fld, n = I.field, I.a * I.c
    ux, uy, vx, vy = I.a, 0, I.b, I.c
    A, C = I.a * I.a // n, fld.norm_xy(I.b, I.c) // n
    B = fld.norm_xy(I.a + I.b, I.c) // n - A - C
    while True:
        r = (A - B) // (2 * A)
        B, C = B + 2 * r * A, A * r * r + B * r + C
        vx, vy = vx + r * ux, vy + r * uy
        if A <= C:
            return ((A, -B, C) if A == C and B < 0 else (A, B, C)), (ux, uy)
        A, B, C = C, -B, A
        ux, uy, vx, vy = vx, vy, -ux, -uy


def _reduced_form(I: QIdeal) -> tuple[int, int, int]:
    """The reduced form (A, B, C) of I's ideal class."""
    return _gauss_reduce(I)[0]


def is_principal(I: QIdeal) -> Optional[tuple[QuadInt, int]]:
    """Generator of I as (numerator, denominator) if principal, else None.

    I = (g/den) O_K with g integral; den is I's scale denominator, so den = 1
    for integral ideals.  I is principal exactly when its reduced form has
    A = 1, and then the least point u of q I generates it.
    """
    (A, _, _), (x, y) = _gauss_reduce(I)
    return (QuadInt(I.field, x, y), I.q) if A == 1 else None


# -- lattice points --------------------------------------------------------------


def quad_le_range(A: int, B: int, C: int) -> Optional[tuple[int, int]]:
    """Integer solutions of A i^2 + B i + C <= 0 with A > 0, as [lo, hi].

    The roots are (-B -+ sqrt(disc)) / 2A, and floor(x / m) = floor(floor(x) / m)
    for a positive integer m, so r = isqrt(disc) gives both ends exactly.
    """
    disc = B * B - 4 * A * C
    if disc < 0:
        return None
    r = isqrt(disc)
    lo, hi = -((B + r) // (2 * A)), (r - B) // (2 * A)
    return (lo, hi) if lo <= hi else None


def coset_points(fld: Field, ox: int, oy: int, a: int, b: int, c: int, bound: int):
    """Points of the coset (ox, oy) + (a Z + (b + c w) Z) of norm <= bound,
    as (norm, x, y) with x + y w the point.

    A point is (ox + i a + j b, oy + j c), so y depends on j alone, and
    4 N(x, y) = (2x + e y)^2 + delta y^2; both index ranges are exact
    integer solutions of quadratic inequalities.
    """
    e, delta = (1, -fld.D) if fld.half_basis else (0, -4 * fld.D)
    jr = quad_le_range(delta * c * c, 2 * delta * c * oy, delta * oy * oy - 4 * bound)
    if not jr:
        return
    for j in range(jr[0], jr[1] + 1):
        y = oy + j * c
        x0 = ox + j * b
        u0 = 2 * x0 + e * y
        dy = delta * y * y
        ir = quad_le_range(4 * a * a, 4 * a * u0, u0 * u0 + dy - 4 * bound)
        if ir:
            for i in range(ir[0], ir[1] + 1):
                u = u0 + 2 * a * i
                yield (u * u + dy) >> 2, x0 + a * i, y


# -- enumeration ---------------------------------------------------------------


def _prime_divides(P: QIdeal, F: QIdeal) -> bool:
    """P | F for integral F, tested by lattice containment F <= P."""
    g1, g2 = F.basis()
    return g1 in P and g2 in P


def enumerate_ideals(
    fld: Field, bound: int, coprime_to: Optional[QIdeal] = None
) -> list[QIdeal]:
    """All integral ideals of norm <= bound, sorted by (norm, a, b, c).

    Built multiplicatively from the powers of one prime ideal at a time, so
    by unique factorization each ideal appears exactly once.  With
    coprime_to set, prime divisors of that ideal are excluded.
    """
    if not isinstance(bound, int):
        raise TypeError("bound must be an int")
    if bound < 1:
        return []
    items: list[tuple[int, QIdeal]] = [(1, fld.maximal_order)]
    for p in primes_upto(bound):
        for P in _prime_ideals_above(fld, p):
            NP = P.a * P.c
            if NP > bound or coprime_to is not None and _prime_divides(P, coprime_to):
                continue
            powers = [(NP, P)]
            while powers[-1][0] * NP <= bound:
                n, I = powers[-1]
                powers.append((n * NP, I.mul(P)))
            items += [(n * m, I.mul(J)) for n, I in items for m, J in powers if n * m <= bound]
    return [I for _, I in sorted(items, key=lambda t: (t[0], t[1].key))]


def class_group_reps(fld: Field) -> list[QIdeal]:
    """One integral ideal per ideal class, the least of each in (norm, HNF)
    order.  Every class holds a reduced form (A, B, C) with |B| <= A <= C,
    hence a primitive ideal [A, b + w] of norm A <= sqrt(|disc| / 3), and
    the least ideal of a class is primitive (Cohen, GTM 138, 5.3)."""
    reps: dict[tuple[int, int, int], QIdeal] = {}
    for A in range(1, isqrt(abs(fld.disc) // 3) + 2):
        for b in range(A):
            if fld.norm_xy(b, 1) % A == 0:
                I = QIdeal(fld, 1, A, b, 1)
                reps.setdefault(_reduced_form(I), I)
    return list(reps.values())


def class_number(fld: Field) -> int:
    """Order of the ideal class group."""
    return len(class_group_reps(fld))

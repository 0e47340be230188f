"""Ray classes modulo a conductor and their theta series.

The pieces here: the ray class group of a conductor F with an explicit label
for every class, Chinese-remainder component notation for classes of
principal ideals, the quadratic character a partner field induces on ray
classes, the skew class sets it splits into, and theta series of classes.

An ideal I prime to F is labelled (j, rho): R_j is the ideal class
representative (prime to F conj(F)) with I conj(R_j) = (alpha), and rho is
the smallest residue of u alpha modulo F over the units u.  The label is a
complete invariant of the ray class, found with one principality test.  The
group order h phi(F) / [O* : O*_{F,1}] is known in advance (Cohen, Advanced
Topics in Computational Number Theory, ch. 3-4), so the skew class sets are
read off the whole group once prime ideals have generated that many classes.
The integral ideals of a class are the multiples of conj(R_j)^-1 by the
nonzero points of one lattice coset, so its theta series is a lattice sum and
its smallest ideal comes from a shortest point; no ideal is enumerated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence, Union

from .quadfield import (
    Field,
    QIdeal,
    QuadInt,
    _extgcd,
    _is_prime,
    _prime_divides,
    _reduced_form,
    class_number,
    coset_points,
    enumerate_ideals,
    factor_ideal,
    field,
    ideal_from_gens,
    is_principal,
    legendre,
    factorint,
    principal_ideal,
    split_prime,
    valuation,
)
from .qseries import ExactDivisionError, QSeries, _fraction


class NotCoprimeError(ValueError):
    """An ideal or element meets the conductor; the requested test is undefined."""


class ClosureError(RuntimeError):
    """Prime ideals up to the bound did not generate the certified number of
    ray classes; increase the bound."""


class SkewOverlapError(ValueError):
    """The skew sets coincide at this conductor: some conjugation-symmetric
    class carries character value -1, so no character separates the subgroup
    from its coset and the cross-field relation machinery does not apply."""


# -- conductors ----------------------------------------------------------------


class Conductor:
    """An integral nonzero ideal used as the modulus for ray classes."""

    __slots__ = ("ideal", "factors", "self_conjugate", "_group")

    def __init__(self, ideal: QIdeal) -> None:
        if not ideal.is_integral:
            raise ValueError("a conductor must be an integral ideal")
        self.ideal = ideal
        self.factors = factor_ideal(ideal)
        self.self_conjugate = ideal.conj() == ideal
        self._group: Optional[RayClassGroup] = None

    @property
    def field(self) -> Field:
        return self.ideal.field

    @property
    def group(self) -> "RayClassGroup":
        """The ray class group modulo this conductor, built on first use."""
        if self._group is None:
            self._group = RayClassGroup(self)
        return self._group

    @property
    def primes(self) -> list[QIdeal]:
        return list(self.factors)

    @property
    def key(self) -> tuple:
        return (self.field.D, self.ideal.key)

    def norm(self) -> int:
        return int(self.ideal.norm())

    def divides(self, other: "Conductor") -> bool:
        return self.ideal.divides(other.ideal)

    def __eq__(self, other) -> bool:
        return isinstance(other, Conductor) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        return f"Conductor({self.ideal!r} in Q[sqrt({self.field.D})])"


def conductor_of(g: Union[QuadInt, QIdeal, int], fld: Optional[Field] = None) -> Conductor:
    if isinstance(g, QIdeal):
        return Conductor(g)
    if isinstance(g, int):
        if fld is None:
            raise ValueError("field required for an integer conductor")
        g = fld.elem(g)
    return Conductor(principal_ideal(g))


# -- ray class groups and class labels ------------------------------------------


def _coprime_to_conductor(I: QIdeal, F: Conductor) -> bool:
    return all(valuation(I, P) == 0 for P in F.primes)


def in_k1f(lam: QuadInt, mu: QuadInt, F: Conductor) -> bool:
    """Whether lam/mu is 1 modulo F.

    Both elements must generate ideals with equal valuations at every prime
    of F (otherwise the quotient is not even prime to F and NotCoprimeError
    is raised).  With H = hcf(lam O, mu O) the test is lam - mu in F*H.
    """
    if lam.is_zero() or mu.is_zero():
        raise ValueError("need nonzero elements")
    Il, Im = principal_ideal(lam), principal_ideal(mu)
    for P in F.primes:
        if valuation(Il, P) != valuation(Im, P):
            raise NotCoprimeError("quotient is not prime to the conductor")
    H = Il.add(Im)
    return (lam - mu) in F.ideal.mul(H)


def _ideals_prime_to(fld: Field, M: QIdeal):
    """Integral ideals prime to M in (norm, HNF) order, without end."""
    done, bound = 0, 64
    while True:
        for I in enumerate_ideals(fld, bound, coprime_to=M):
            if I.a * I.c > done:
                yield I
        done, bound = bound, 4 * bound


class RayClassGroup:
    """The ray class group modulo a conductor F, with a label for every class.

    R_0 = O, R_1, ..., R_{h-1} represent the ideal classes and are prime to
    F conj(F).  An ideal I prime to F has the label (j, rho): [I] = [R_j],
    found from I's reduced form, I conj(R_j) = (alpha), and rho is the
    smallest residue of u alpha modulo F over the units u.  Two ideals share
    a label exactly when they share a ray class.  Labels multiply through the
    class-group table R_i R_j conj(R_k) = (t).  The group order
    h phi(F) / [O* : O*_{F,1}] is known in advance, so a list of classes that
    reaches it is certified complete.
    """

    def __init__(self, F: Conductor) -> None:
        fld = self.field = F.field
        self.conductor = F
        self._abc = F.ideal.a, F.ideal.b, F.ideal.c
        h = class_number(fld)
        self._index: dict[tuple, int] = {}
        reps: list[QIdeal] = []
        for I in _ideals_prime_to(fld, F.ideal.mul(F.ideal.conj())):
            if self._index.setdefault(_reduced_form(I), len(reps)) == len(reps):
                reps.append(I)
                if len(reps) == h:
                    break
        self._conj = [R.conj() for R in reps]
        self.phi = 1
        for P, e in F.factors.items():
            n = int(P.norm())
            self.phi *= n ** (e - 1) * (n - 1)
        self.w = units_mod_conductor(F)[1]
        self.order = h * self.phi * self.w // len(fld.units)
        self._table: dict[tuple, tuple] = {}
        for i in range(h):
            for j in range(h):
                P = reps[i].mul(reps[j])
                k = self._index[_reduced_form(P)]
                t = is_principal(P.mul(self._conj[k]))[0].conj()
                nk = self._reduce(int(reps[k].norm()), 0)
                self._table[i, j] = k, self._mul_res(nk, self._inv_res(self._reduce(t.x, t.y)))
        self.one = 0, self._canon(self._reduce(1, 0))
        self._lattices: dict[int, tuple] = {}

    # residues modulo F, as reduced coordinates (x mod a, y mod c)
    def _reduce(self, x: int, y: int) -> tuple[int, int]:
        a, b, c = self._abc
        k, y = divmod(y, c)
        return (x - k * b) % a, y

    def _mul_res(self, r: tuple, s: tuple) -> tuple[int, int]:
        return self._reduce(*self.field.mul_xy(r[0], r[1], s[0], s[1]))

    def _inv_res(self, r: tuple) -> tuple[int, int]:
        out, e = self._reduce(1, 0), self.phi - 1
        while e:
            if e & 1:
                out = self._mul_res(out, r)
            r, e = self._mul_res(r, r), e >> 1
        return out

    def _canon(self, r: tuple) -> tuple[int, int]:
        return min(self._mul_res((u.x, u.y), r) for u in self.field.units)

    def label(self, I: QIdeal) -> tuple:
        """The label of the ray class of an ideal prime to F."""
        if not I.is_integral:
            if gcd(I.q, self._abc[0]) == 1:
                j, rho = self.label(QIdeal(self.field, 1, I.a, I.b, I.c))
                return j, self._canon(self._mul_res(rho, (pow(I.q, -1, self._abc[0]), 0)))
            # the denominator meets F: write I = N1 / N2 with N1, N2 integral
            N2 = I.add(self.field.maximal_order).inverse()
            return self.mul(self.label(I.mul(N2)), self.inv(self.label(N2)))
        j = self._index[_reduced_form(I)]
        alpha = is_principal(I.mul(self._conj[j]))[0]
        return j, self._canon(self._reduce(alpha.x, alpha.y))

    def mul(self, x: tuple, y: tuple) -> tuple:
        k, t = self._table[x[0], y[0]]
        return k, self._canon(self._mul_res(self._mul_res(x[1], y[1]), t))

    def inv(self, x: tuple) -> tuple:
        j = next(j for (i, j), (k, _) in self._table.items() if i == x[0] and k == 0)
        return j, self._canon(self._inv_res(self._mul_res(x[1], self._table[x[0], j][1])))

    def primes(self, bad: int = 1, bound: Optional[int] = None):
        """Degree-one prime ideals prime to F, of prime norm p <= bound (no
        cap when bound is None) with p not dividing bad."""
        p = 1
        while bound is None or p < bound:
            p += 1
            if bad % p and _is_prime(p):
                for P in split_prime(self.field, p).primes_above():
                    if not _prime_divides(P, self.conductor.ideal):
                        yield P

    def span(self, gens: Iterable[tuple], one_data, mul_data) -> dict:
        """Every class, each with data carried multiplicatively from the
        generators.  gens yields (label, data) pairs; it is read until the
        classes found reach the certified order, and ClosureError is raised
        if it ends first."""
        elems = {self.one: one_data}
        gens = iter(gens)
        while len(elems) < self.order:
            g, gd = next(gens, (None, None))
            if g is None:
                raise ClosureError(
                    f"generator primes reached {len(elems)} of the {self.order} ray classes; increase the bound"
                )
            x, xd = g, gd
            base = list(elems.items())
            while x not in elems:
                for y, yd in base:
                    elems[self.mul(y, x)] = mul_data(yd, xd)
                x, xd = self.mul(x, g), mul_data(xd, gd)
        return elems

    def coset(self, x: tuple) -> tuple[int, tuple[int, int, int, int, int]]:
        """N(R_j) and the coset (ox, oy, a, b, c) = rho e + conj(R_j) F of the
        class x = (j, rho), with e = 1 mod F and e = 0 mod conj(R_j).

        The nonzero points alpha of the coset give the integral ideals
        (alpha) conj(R_j)^-1 of the class, each from w_F of them, and
        N(alpha) = N(I) N(R_j).  The coset holds 0 exactly when F = O.
        """
        j, (rx, ry) = x
        if j not in self._lattices:
            M = self._conj[j]
            L = M.mul(self.conductor.ideal)
            e = idempotent_for(self.conductor.ideal, M)
            self._lattices[j] = int(M.norm()), (e.x, e.y), (L.a, L.b, L.c)
        nR, (ex, ey), (a, b, c) = self._lattices[j]
        ox, oy = self.field.mul_xy(rx, ry, ex, ey)
        k, oy = divmod(oy, c)
        return nR, ((ox - k * b) % a, oy, a, b, c)

    def canonical(self, x: tuple) -> QIdeal:
        """Smallest-norm integral ideal of the class x, ties broken by HNF order.

        Its generators times conj(R_j) are the nonzero points of least norm
        of the class's coset, found under a bound that starts at the norm of
        the coset's lattice and grows fourfold.
        """
        _, (ox, oy, a, b, c) = self.coset(x)
        bound = a * c
        while not (pts := [p for p in coset_points(self.field, ox, oy, a, b, c, bound) if p[0]]):
            bound *= 4
        least = min(n for n, _, _ in pts)
        Rinv = self._conj[x[0]].inverse()
        ideals = (principal_ideal(self.field.elem(px, py)).mul(Rinv) for n, px, py in pts if n == least)
        return min(ideals, key=lambda I: I.key)


def same_ray_class(I: QIdeal, J: QIdeal, F: Conductor) -> bool:
    """[I]_F == [J]_F.  Both ideals must be prime to F."""
    if not (_coprime_to_conductor(I, F) and _coprime_to_conductor(J, F)):
        raise NotCoprimeError("ideals must be prime to the conductor")
    return F.group.label(I) == F.group.label(J)


# -- ray class references ---------------------------------------------------------


class RayClassRef:
    """A ray class held as a representative ideal plus its conductor."""

    __slots__ = ("rep", "conductor", "_label")

    def __init__(
        self, rep: QIdeal, conductor: Conductor, check: bool = True, label: Optional[tuple] = None
    ) -> None:
        if check and not _coprime_to_conductor(rep, conductor):
            raise NotCoprimeError("representative is not prime to the conductor")
        self.rep = rep
        self.conductor = conductor
        self._label = label

    @property
    def label(self) -> tuple:
        if self._label is None:
            self._label = self.conductor.group.label(self.rep)
        return self._label

    def same_class(self, other: "RayClassRef") -> bool:
        return self.conductor == other.conductor and self.label == other.label

    def contains_ideal(self, I: QIdeal) -> bool:
        return self.conductor.group.label(I) == self.label

    def __mul__(self, other: "RayClassRef") -> "RayClassRef":
        if self.conductor != other.conductor:
            raise ValueError("class product needs one common conductor")
        return RayClassRef(self.rep.mul(other.rep), self.conductor, check=False)

    def inv(self) -> "RayClassRef":
        return RayClassRef(self.rep.inverse(), self.conductor, check=False)

    def canonical_rep(self) -> QIdeal:
        """Smallest-norm integral ideal in the class, ties broken by HNF order."""
        return self.conductor.group.canonical(self.label)

    def canonical_key(self) -> tuple:
        I = self.canonical_rep()
        return (int(I.norm()), I.a, I.b, I.c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RayClassRef):
            return NotImplemented
        return self.same_class(other)

    def __hash__(self) -> int:
        return hash((self.conductor.key, self.label))

    def __repr__(self) -> str:
        return f"[{self.rep!r}]_{self.conductor.ideal!r}"


def ray_class(g: Union[QuadInt, QIdeal, int], F: Conductor) -> RayClassRef:
    if isinstance(g, int):
        g = F.field.elem(g)
    if isinstance(g, QuadInt):
        g = principal_ideal(g)
    return RayClassRef(g, F)


def reduce_class(x: RayClassRef, smaller: Conductor) -> RayClassRef:
    """Image of the class under the reduction to a divisor of its conductor."""
    if not smaller.divides(x.conductor):
        raise ValueError("target conductor must divide the source conductor")
    return RayClassRef(x.rep, smaller, check=False)


def units_mod_conductor(F: Conductor) -> tuple[list[QuadInt], int]:
    """Units congruent to 1 modulo F, and their count w_F."""
    one = F.field.one
    us = [u for u in F.field.units if (u - one) in F.ideal]
    return us, len(us)


def lift_classes(xs: Sequence["RayClassRef"], big: Conductor) -> list["RayClassRef"]:
    """Inverse image of a set of classes under reduction from a bigger conductor.

    big must factor as Q * F with Q coprime to F (the conductor of xs).  The
    classes modulo big are generated from prime ideals up to the certified
    order, and those whose representatives reduce into xs are kept.
    """
    if not xs:
        raise ValueError("nothing to lift")
    F = xs[0].conductor
    Q = big.ideal.mul(F.ideal.inverse())
    if not Q.is_integral:
        raise ValueError("the source conductor must divide the target")
    if Q.is_maximal_order():
        return list(xs)
    if not Q.is_coprime(F.ideal):
        raise ValueError("the conductor extension must be coprime to the base")
    G = big.group
    want = {x.label for x in xs}
    elems = G.span(((G.label(P), P) for P in G.primes()), big.field.maximal_order, QIdeal.mul)
    return [RayClassRef(I, big, check=False, label=x) for x, I in elems.items() if F.group.label(I) in want]


# -- Chinese remainder classes -----------------------------------------------------


def _solve_columns(cols: Sequence[tuple[int, int]], target: tuple[int, int]) -> Optional[list[int]]:
    """Integer coefficients expressing target in the Z-span of the columns."""
    n = len(cols)
    a = 0
    a_comb = [0] * n
    b = c = 0
    bc_comb = [0] * n

    def axpy(s, u, t, idx=None, v=None):
        out = [s * ui for ui in u]
        if idx is not None:
            out[idx] += t
        else:
            for i2, vi in enumerate(v):
                out[i2] += t * vi
        return out

    for idx, (x, y) in enumerate(cols):
        if x == 0 and y == 0:
            continue
        if y == 0:
            g, s, t = _extgcd(a, x)
            a_comb = axpy(s, a_comb, t, idx=idx)
            a = g
            continue
        if c == 0:
            b, c = x, y
            bc_comb = [0] * n
            bc_comb[idx] = 1
            continue
        g, s, t = _extgcd(c, y)
        elim_x = (c * x - y * b) // g
        elim_comb = [c // g * (1 if i2 == idx else 0) - y // g * bc_comb[i2] for i2 in range(n)]
        g2, s2, t2 = _extgcd(a, elim_x)
        a_comb = axpy(s2, a_comb, t2, v=elim_comb)
        a = g2
        bc_comb = axpy(s, bc_comb, t, idx=idx)
        b, c = s * b + t * x, g
    tx, ty = target
    if c == 0:
        if ty != 0:
            return None
        j = 0
        rem = tx
        coeffs_j = [0] * n
    else:
        j, r = divmod(ty, c)
        if r:
            return None
        rem = tx - j * b
        coeffs_j = bc_comb
    if a == 0:
        if rem != 0:
            return None
        i = 0
    else:
        i, r2 = divmod(rem, a)
        if r2:
            return None
    return [i * ai + j * bj for ai, bj in zip(a_comb, coeffs_j)]


def idempotent_for(Q: QIdeal, M: QIdeal) -> QuadInt:
    """An element congruent to 1 mod Q and 0 mod M, for coprime integral Q, M."""
    fld = Q.field
    q1, q2 = Q.basis()
    m1, m2 = M.basis()
    cols = [(q1.x, q1.y), (q2.x, q2.y), (m1.x, m1.y), (m2.x, m2.y)]
    coeffs = _solve_columns(cols, (1, 0))
    if coeffs is None:
        raise NotCoprimeError("the two ideals are not coprime")
    e = coeffs[2] * m1 + coeffs[3] * m2
    assert (fld.one - e) in Q and e in M
    return e


def crt_class(
    components: Sequence[tuple[QIdeal, Union[QuadInt, int]]],
    conductor: Optional[Conductor] = None,
) -> RayClassRef:
    """The class [g]_F of the element matching the given residue at each factor.

    Factors must be pairwise coprime with product F; every residue has to be
    invertible at its factor.  Integer residues are allowed at any factor.
    """
    if not components:
        raise ValueError("at least one component required")
    fld = components[0][0].field
    parts: list[tuple[QIdeal, QuadInt]] = []
    for Q, r in components:
        if isinstance(r, int):
            r = fld.elem(r)
        parts.append((Q, r))
    F_ideal = fld.maximal_order
    for Q, _ in parts:
        if not F_ideal.is_coprime(Q):
            raise NotCoprimeError("conductor factors must be pairwise coprime")
        F_ideal = F_ideal.mul(Q)
    if conductor is not None and conductor.ideal != F_ideal:
        raise ValueError("factors do not multiply to the stated conductor")
    F = conductor if conductor is not None else Conductor(F_ideal)
    gamma = fld.elem(0)
    for Q, r in parts:
        if not ideal_from_gens([r]).add(Q).is_maximal_order():
            raise NotCoprimeError(f"residue {r!r} is not invertible at its factor")
        M = F_ideal.mul(Q.inverse())
        gamma = gamma + r * idempotent_for(Q, M)
    return RayClassRef(principal_ideal(gamma), F)


# -- the quadratic character -------------------------------------------------------


def _disc_of(D: int) -> int:
    return D if D % 4 == 1 else 4 * D


def psi_conductor(D: int, Dprime: int) -> Conductor:
    """Conductor of the character that the partner field D' induces on Q[sqrt(D)].

    The value is the principal ideal (2^a * |disc'| / gcd(|disc|, |disc'|))
    where a = 1 exactly when both discriminants and the discriminant of the
    real partner field are all even.
    """
    if D >= 0 or Dprime >= 0 or D == Dprime:
        raise ValueError("need two distinct negative fundamental D values")
    dt, dpt = _disc_of(D), _disc_of(Dprime)
    g = gcd(D, Dprime)
    dpp = D * Dprime // (g * g)
    dppt = dpp if dpp % 4 == 1 else 4 * dpp
    a = 1 if (dt % 2 == 0 and dpt % 2 == 0 and dppt % 2 == 0) else 0
    m = 2**a * abs(dpt) // gcd(abs(dt), abs(dpt))
    fld = field(D)
    return Conductor(principal_ideal(fld.elem(m)))


class CharacterPsi:
    """Ray class character I -> phi'(N(I)) built from the partner field's
    quadratic residue symbols; values are +-1 and multiplicative."""

    __slots__ = ("D", "Dprime", "field", "conductor", "_norm_cache")

    def __init__(self, D: int, Dprime: int) -> None:
        self.D = D
        self.Dprime = Dprime
        self.field = field(D)
        self.conductor = psi_conductor(D, Dprime)
        self._norm_cache: dict[int, int] = {}

    def value_on_norm(self, n: Union[int, Fraction]) -> int:
        if isinstance(n, Fraction):
            return self.value_on_norm(n.numerator) * self.value_on_norm(n.denominator)
        n = abs(n)
        if gcd(n, 2 * abs(self.Dprime)) != 1:
            raise NotCoprimeError(f"norm {n} is not prime to 2 D'")
        hit = self._norm_cache.get(n)
        if hit is None:
            hit = 1
            for p, e in factorint(n).items():
                if e % 2:
                    hit *= legendre(self.Dprime, p)
            self._norm_cache[n] = hit
        return hit

    def value(self, I: QIdeal) -> int:
        if not I.is_integral:
            raise ValueError("the character is evaluated on integral ideals")
        return self.value_on_norm(int(I.norm()))


def admissible(chi: CharacterPsi, F: Conductor, chip: CharacterPsi, Fp: Conductor) -> bool:
    """Whether (F, F') is an admissible conductor pair for the two fields."""
    return (
        F.self_conjugate
        and Fp.self_conjugate
        and chi.conductor.divides(F)
        and chip.conductor.divides(Fp)
        and F.norm() * chi.field.disc == Fp.norm() * chip.field.disc
    )


# -- skew class sets ------------------------------------------------------------------


_AS_CACHE: dict[tuple, tuple] = {}


def compute_skew_sets(
    chi: CharacterPsi, F: Conductor, bound: Optional[int] = None
) -> tuple[list[RayClassRef], list[RayClassRef]]:
    """The subgroup A of skew classes with character +1 and its coset S.

    The ray class group modulo F is generated from prime ideals P of norm
    p not dividing 2 D D' (p <= bound when a bound is given) until its
    certified order is reached; A and S are the images of x -> x / conj(x)
    on the classes x with psi(x) = +1 and -1.  If the generator primes run
    out first, ClosureError is raised (never a partial answer).
    """
    if not F.self_conjugate:
        raise ValueError("the conductor must be self-conjugate")
    if not chi.conductor.divides(F):
        raise ValueError("the conductor must lie inside the character's conductor")
    cache_key = (chi.D, chi.Dprime, F.key, bound)
    hit = _AS_CACHE.get(cache_key)
    if hit is not None:
        return hit
    G = F.group
    gens = (
        (G.label(P), (G.label(P.mul(P.conj().inverse())), chi.value(P)))
        for P in G.primes(2 * chi.D * chi.Dprime, bound)
    )
    elems = G.span(gens, (G.one, 1), lambda x, y: (G.mul(x[0], y[0]), x[1] * y[1]))
    a_idx = {skew for skew, v in elems.values() if v == 1}
    s_idx = {skew for skew, v in elems.values() if v == -1}
    if a_idx & s_idx:
        raise SkewOverlapError(
            "skew sets overlap at this conductor: a conjugation-symmetric class "
            "has character value -1, so the subgroup equals its coset"
        )
    out = tuple(
        sorted((RayClassRef(G.canonical(x), F, check=False, label=x) for x in idx), key=RayClassRef.canonical_key)
        for idx in (a_idx, s_idx)
    )
    _AS_CACHE[cache_key] = out
    return out


def skew_sets_to_json(chi: CharacterPsi, F: Conductor, A, S, bound) -> dict:
    return {
        "D": chi.D,
        "Dprime": chi.Dprime,
        "F": list(F.ideal.key[1:]),
        "bound": bound,
        "A": [list(x.canonical_key()[1:]) for x in A],
        "S": [list(x.canonical_key()[1:]) for x in S],
    }


def skew_sets_from_json(d: dict) -> tuple[CharacterPsi, Conductor, list[RayClassRef], list[RayClassRef]]:
    chi = CharacterPsi(d["D"], d["Dprime"])
    fld = chi.field
    a, b, c = d["F"]
    F = Conductor(QIdeal(fld, 1, a, b, c))
    A = [RayClassRef(QIdeal(fld, 1, *t), F) for t in d["A"]]
    S = [RayClassRef(QIdeal(fld, 1, *t), F) for t in d["S"]]
    return chi, F, A, S


# -- class combinations and theta series -----------------------------------------------


class ClassCombo:
    """Formal integer combination of ray classes over one conductor."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, RayClassRef]]) -> None:
        terms = tuple((int(c), x) for c, x in terms)
        if not terms:
            raise ValueError("empty combination")
        F = terms[0][1].conductor
        if any(x.conductor != F for _, x in terms):
            raise ValueError("all classes must share one conductor")
        self.terms = terms

    @classmethod
    def sum_of(cls, refs: Iterable[RayClassRef], coeff: int = 1) -> "ClassCombo":
        return cls([(coeff, x) for x in refs])

    @property
    def conductor(self) -> Conductor:
        return self.terms[0][1].conductor

    def __neg__(self) -> "ClassCombo":
        return ClassCombo([(-c, x) for c, x in self.terms])

    def __add__(self, other: "ClassCombo") -> "ClassCombo":
        return ClassCombo(self.terms + other.terms)

    def __sub__(self, other: "ClassCombo") -> "ClassCombo":
        return self + (-other)

    def times(self, ref: RayClassRef) -> "ClassCombo":
        return ClassCombo([(c, x * ref) for c, x in self.terms])


ComboLike = Union[ClassCombo, RayClassRef]


def _as_combo(W: ComboLike) -> ClassCombo:
    if isinstance(W, RayClassRef):
        return ClassCombo([(1, W)])
    return W


def ray_theta(W: ComboLike, d, trunc) -> QSeries:
    """Theta series sum_x n_x sum_{I in x integral, N(I) <= d*trunc} q^(N(I)/d).

    Each class is summed over its lattice coset (RayClassGroup.coset): a
    point alpha stands for the ideal (alpha) conj(R_j)^-1 at exponent
    N(alpha) / (d N(R_j)), and every ideal is reached by w_F points, so the
    summed coefficients are divided by w_F exactly.
    """
    combo = _as_combo(W)
    d = _fraction(d)
    T = _fraction(trunc)
    if d <= 0:
        raise ValueError("scale must be positive")
    F = combo.conductor
    G = F.group
    coeffs: dict[tuple, int] = {}
    for c, x in combo.terms:
        coeffs[x.label] = coeffs.get(x.label, 0) + c
    cosets = [(G.coset(x), c) for x, c in coeffs.items() if c]
    # exponents N(alpha) / (d N(R_j)) over the one denominator d * L
    L = lcm(*(nR for (nR, _), _ in cosets))
    terms: dict[int, int] = {}
    for (nR, coset), c in cosets:
        cap = d * T * nR
        scale = d.denominator * (L // nR)
        for n, _, _ in coset_points(F.field, *coset, cap.numerator // cap.denominator):
            if n:
                k = n * scale
                terms[k] = terms.get(k, 0) + c
    for k, c in terms.items():
        terms[k], r = divmod(c, G.w)
        if r:
            raise ExactDivisionError(f"coefficient {c} of a coset sum is not divisible by w_F = {G.w}")
    return QSeries(d.numerator * L, terms, T)

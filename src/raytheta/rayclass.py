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
Topics in Computational Number Theory, ch. 3-4), so each call for skew class
sets reads them off the whole group once prime ideals have generated that
many classes.  A class
(RayClassRef) is held as its label: products, inverses, reductions and lifts
run on labels through the group's multiplication table, built on the first
product, and no ideal is multiplied to combine classes.
The integral ideals of a class are the multiples of conj(R_j)^-1 by the
nonzero points of one lattice coset, so its theta series is a lattice sum and
its smallest ideal comes from a shortest point.  R_j is found the same way:
the integral ideals of the class of a reduced-form ideal I are the multiples
of conj(I)^-1 by the nonzero points of conj(I), and R_j is the least of them
prime to F conj(F), that is of norm prime to N(F).  No ideal is enumerated.
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
    class_group_reps,
    coset_points,
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
    """The certified number of ray classes needs generator primes of norm
    above the bound; increase the bound."""


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
        return all(other.factors.get(P, 0) >= e for P, e in self.factors.items())

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
    elif not isinstance(g, QuadInt):
        raise TypeError("a conductor is an ideal, an element or an int")
    return Conductor(principal_ideal(g))


# -- ray class groups and class labels ------------------------------------------


def _coprime_to_conductor(I: QIdeal, F: Conductor) -> bool:
    return all(valuation(I, P) == 0 for P in F.primes)


def _least_ideal(fld: Field, coset: tuple, M: QIdeal, coprime: int = 1) -> QIdeal:
    """The least integral ideal (alpha) M^-1 in (norm, HNF) order, over the
    nonzero points alpha of the coset (ox, oy, a, b, c) inside the integral
    ideal M, whose norm is prime to coprime.

    The ideal's norm is N(alpha) / N(M), so points are taken by norm and a
    norm is rejected before any ideal is built; the bound starts at the norm
    of the coset's lattice and grows fourfold, and ideals are built only for
    the norm being examined.
    """
    nM, Minv = int(M.norm()), M.inverse()
    done, bound = 0, coset[2] * coset[4]
    while True:
        by_norm: dict[int, list] = {}
        for n, x, y in coset_points(fld, *coset, bound):
            if n > done:
                by_norm.setdefault(n, []).append((x, y))
        for n in sorted(by_norm):
            # the ideal's norm, not N(alpha): N(M) may share a prime with
            # coprime, and then no N(alpha) is prime to it and the search
            # never ends
            if gcd(n // nM, coprime) == 1:
                return min((principal_ideal(QuadInt(fld, x, y)).mul(Minv) for x, y in by_norm[n]), key=lambda I: I.key)
        done, bound = bound, 4 * bound


class RayClassGroup:
    """The ray class group modulo a conductor F, with a label for every class.

    R_0 = O, R_1, ..., R_{h-1} represent the ideal classes and are prime to
    F conj(F).  Since F conj(F) = (N(F)), an integral ideal is prime to it
    exactly when its norm is prime to N(F), so the R_j search rejects whole
    norms before it builds any ideal.  An ideal I prime to F has the label
    (j, rho): [I] = [R_j], found from I's reduced form, I conj(R_j) = (alpha),
    and rho is the smallest residue of u alpha modulo F over the units u.
    Two ideals share a label exactly when they share a ray class.  Labels
    multiply through the class-group table R_i R_j conj(R_k) = (t), whose h^2
    principality tests are made on the first product or inverse: labelling,
    cosets, canonical representatives and theta series never read it.  The
    group order h phi(F) / [O* : O*_{F,1}] is known in advance, so a list of
    classes that reaches it is certified complete.
    """

    def __init__(self, F: Conductor) -> None:
        fld = self.field = F.field
        self.conductor = F
        self._abc = F.ideal.a, F.ideal.b, F.ideal.c
        # R_j: the least ideal prime to F conj(F) = (N(F)) of each class [I],
        # among the multiples (alpha) conj(I)^-1 of the points alpha of conj(I)
        conjs = [I.conj() for I in class_group_reps(fld)]
        reps = [_least_ideal(fld, (0, 0, M.a, M.b, M.c), M, F.norm()) for M in conjs]
        reps.sort(key=lambda R: (R.a * R.c, R.key))
        self._reps = reps
        self._index = {_reduced_form(R): j for j, R in enumerate(reps)}
        self._conj = [R.conj() for R in reps]
        self.phi = 1
        for P, e in F.factors.items():
            n = int(P.norm())
            self.phi *= n ** (e - 1) * (n - 1)
        self.w = units_mod_conductor(F)[1]
        self.order = len(reps) * self.phi * self.w // len(fld.units)
        self._table: Optional[dict[tuple, tuple]] = None
        self.one = 0, self._canon(self._reduce(1, 0))
        self._lattices: dict[int, tuple] = {}

    @property
    def table(self) -> dict[tuple, tuple]:
        """The class-group table (i, j) -> (k, tau): [R_i R_j] = [R_k] and
        R_i R_j conj(R_k) = (g) with tau = N(R_k) / conj(g) mod F; built on
        the first product or inverse, the only callers of its h^2
        principality tests."""
        if self._table is None:
            reps = self._reps
            self._table = {}
            for i, Ri in enumerate(reps):
                for j, Rj in enumerate(reps):
                    P = Ri.mul(Rj)
                    k = self._index[_reduced_form(P)]
                    t = is_principal(P.mul(self._conj[k]))[0].conj()
                    nk = self._reduce(int(reps[k].norm()), 0)
                    self._table[i, j] = k, self._mul_res(nk, self._inv_res(self._reduce(t.x, t.y)))
        return self._table

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
        k, t = self.table[x[0], y[0]]
        return k, self._canon(self._mul_res(self._mul_res(x[1], y[1]), t))

    def inv(self, x: tuple) -> tuple:
        table = self.table
        j = next(j for (i, j), (k, _) in table.items() if i == x[0] and k == 0)
        return j, self._canon(self._inv_res(self._mul_res(x[1], table[x[0], j][1])))

    def primes(self, bad: int = 1):
        """Degree-one prime ideals prime to F, of prime norm p not dividing
        bad, in increasing p; the stream never ends."""
        p = 1
        while True:
            p += 1
            if bad % p and _is_prime(p):
                for P in split_prime(self.field, p).primes_above():
                    if not _prime_divides(P, self.conductor.ideal):
                        yield P

    def span(self, gens: Iterable[tuple], one_data, mul_data) -> dict:
        """Every class, each with data carried multiplicatively from the
        generators.  gens yields (label, data) pairs without end; it is read
        until the classes found reach the certified order."""
        elems = {self.one: one_data}
        gens = iter(gens)
        while len(elems) < self.order:
            g, gd = next(gens)
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
        return _least_ideal(self.field, self.coset(x)[1], self._conj[x[0]])


def same_ray_class(I: QIdeal, J: QIdeal, F: Conductor) -> bool:
    """[I]_F == [J]_F.  Both ideals must be prime to F."""
    if not (_coprime_to_conductor(I, F) and _coprime_to_conductor(J, F)):
        raise NotCoprimeError("ideals must be prime to the conductor")
    return F.group.label(I) == F.group.label(J)


# -- ray class references ---------------------------------------------------------


class RayClassRef:
    """A ray class held as its label in the ray class group of its conductor.

    Built from an ideal prime to the conductor, the ideal is labelled at once
    and kept as rep; a class derived by arithmetic (products, inverses,
    reduction, lifting) has its canonical representative as rep.
    """

    __slots__ = ("conductor", "label", "_rep")

    def __init__(self, rep: QIdeal, conductor: Conductor) -> None:
        if not _coprime_to_conductor(rep, conductor):
            raise NotCoprimeError("representative is not prime to the conductor")
        self.conductor = conductor
        self.label = conductor.group.label(rep)
        self._rep: Optional[QIdeal] = rep

    @classmethod
    def of(cls, conductor: Conductor, label: tuple) -> "RayClassRef":
        """The class with the given label modulo the conductor."""
        x = cls.__new__(cls)
        x.conductor, x.label, x._rep = conductor, label, None
        return x

    @property
    def rep(self) -> QIdeal:
        if self._rep is None:
            self._rep = self.canonical_rep()
        return self._rep

    def same_class(self, other: "RayClassRef") -> bool:
        return self.conductor == other.conductor and self.label == other.label

    def __mul__(self, other: "RayClassRef") -> "RayClassRef":
        if self.conductor != other.conductor:
            raise ValueError("class product needs one common conductor")
        return RayClassRef.of(self.conductor, self.conductor.group.mul(self.label, other.label))

    def inv(self) -> "RayClassRef":
        return RayClassRef.of(self.conductor, self.conductor.group.inv(self.label))

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
    elif not isinstance(g, (QuadInt, QIdeal)):
        raise TypeError("a ray class is given by an ideal, an element or an int")
    if isinstance(g, QuadInt):
        g = principal_ideal(g)
    return RayClassRef(g, F)


def reduce_class(x: RayClassRef, smaller: Conductor) -> RayClassRef:
    """Image of the class under the reduction to a divisor of its conductor."""
    if not smaller.divides(x.conductor):
        raise ValueError("target conductor must divide the source conductor")
    return RayClassRef.of(smaller, smaller.group.label(x.rep))


def units_mod_conductor(F: Conductor) -> tuple[list[QuadInt], int]:
    """Units congruent to 1 modulo F, and their count w_F."""
    one = F.field.one
    us = [u for u in F.field.units if (u - one) in F.ideal]
    return us, len(us)


def lift_classes(xs: Sequence["RayClassRef"], big: Conductor) -> list["RayClassRef"]:
    """Inverse image of a set of classes under reduction from a bigger conductor.

    big must factor as Q * F with Q coprime to F (the conductor of xs).  The
    classes modulo big are generated from prime ideals up to the certified
    order, each paired with its image modulo F, and those whose image lies
    in xs are kept.
    """
    if not xs:
        raise ValueError("nothing to lift")
    F = xs[0].conductor
    if not F.divides(big):
        raise ValueError("the source conductor must divide the target")
    if any(big.factors[P] != e for P, e in F.factors.items()):
        raise ValueError("the conductor extension must be coprime to the base")
    if len(big.factors) == len(F.factors):
        return list(xs)
    G, H = big.group, F.group
    want = {x.label for x in xs}
    elems = G.span(((G.label(P), H.label(P)) for P in G.primes()), H.one, H.mul)
    return [RayClassRef.of(big, x) for x, y in elems.items() if y in want]


# -- Chinese remainder classes -----------------------------------------------------


def idempotent_for(Q: QIdeal, M: QIdeal) -> QuadInt:
    """An element congruent to 1 mod Q and 0 mod M, for coprime integral Q, M.

    With Q = [a_Q, b_Q + c_Q w] and M likewise, e = k a_M + t c_Q (b_M + c_M w)
    lies in M and has its w-coordinate in c_Q Z, so e = 1 mod Q exactly when
    k a_M + t B = 1 mod a_Q, B = c_Q b_M - c_M b_Q.  Two extended gcds solve
    this when gcd(a_M, B, a_Q) = 1, which holds exactly when Q + M = O (c
    divides a and b, so coprime ideals have coprime c_Q and c_M).
    """
    fld = Q.field
    g, k, t = _extgcd(M.a, Q.c * M.b - M.c * Q.b)
    g, s, _ = _extgcd(g, Q.a)
    if g != 1:
        raise NotCoprimeError("the two ideals are not coprime")
    e = QuadInt(fld, s * (k * M.a + t * Q.c * M.b), s * t * Q.c * M.c)
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
        elif not isinstance(r, QuadInt):
            raise TypeError("a residue is an element or an int")
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

    __slots__ = ("D", "Dprime", "field", "conductor")

    def __init__(self, D: int, Dprime: int) -> None:
        self.D = D
        self.Dprime = Dprime
        self.field = field(D)
        self.conductor = psi_conductor(D, Dprime)

    def value_on_norm(self, n: Union[int, Fraction]) -> int:
        if isinstance(n, Fraction):
            return self.value_on_norm(n.numerator) * self.value_on_norm(n.denominator)
        n = abs(n)
        if gcd(n, 2 * abs(self.Dprime)) != 1:
            raise NotCoprimeError(f"norm {n} is not prime to 2 D'")
        out = 1
        for p, e in factorint(n).items():
            if e % 2:
                out *= legendre(self.Dprime, p)
        return out

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


def compute_skew_sets(
    chi: CharacterPsi, F: Conductor, bound: Optional[int] = None
) -> tuple[list[RayClassRef], list[RayClassRef]]:
    """The subgroup A of skew classes with character +1 and its coset S, in
    label order.

    The ray class group modulo F is spanned once, from prime ideals P of
    norm p not dividing 2 D D' in increasing p, until its certified order
    is reached; A and S are the images of x -> x / conj(x) on the classes x
    with psi(x) = +1 and -1.  The bound only caps how far the prime stream
    may run: ClosureError names the largest generator norm used when it is
    above the bound (never a partial answer), and a bound below 2, which
    admits no prime at all, is a ValueError.
    """
    if bound is not None and not isinstance(bound, int):
        raise TypeError("bound must be an int")
    if bound is not None and bound < 2:
        raise ValueError(f"bound must be at least 2 (got {bound}): no prime p <= bound generates a class")
    if not F.self_conjugate:
        raise ValueError("the conductor must be self-conjugate")
    if not chi.conductor.divides(F):
        raise ValueError("the conductor must lie inside the character's conductor")
    G = F.group
    used = 0

    def gens():
        nonlocal used
        for P in G.primes(2 * chi.D * chi.Dprime):
            used = int(P.norm())
            yield G.label(P), (G.label(P.mul(P.conj().inverse())), chi.value(P))

    elems = G.span(gens(), (G.one, 1), lambda x, y: (G.mul(x[0], y[0]), x[1] * y[1]))
    if bound is not None and used > bound:
        raise ClosureError(
            f"the {G.order} ray classes need generator primes up to norm {used}, above the bound {bound}"
        )
    a_idx = {skew for skew, v in elems.values() if v == 1}
    s_idx = {skew for skew, v in elems.values() if v == -1}
    if a_idx & s_idx:
        raise SkewOverlapError(
            "skew sets overlap at this conductor: a conjugation-symmetric class "
            "has character value -1, so the subgroup equals its coset"
        )
    return tuple([RayClassRef.of(F, x) for x in sorted(idx)] for idx in (a_idx, s_idx))


def skew_sets_to_json(chi: CharacterPsi, F: Conductor, A, S, bound) -> dict:
    """The skew sets with their classes as canonical HNF keys, in key order."""
    return {
        "D": chi.D,
        "Dprime": chi.Dprime,
        "F": list(F.ideal.key[1:]),
        "bound": bound,
        "A": [list(key[1:]) for key in sorted(x.canonical_key() for x in A)],
        "S": [list(key[1:]) for key in sorted(x.canonical_key() for x in S)],
    }


# -- class combinations and theta series -----------------------------------------------


class ClassCombo:
    """Formal integer combination of ray classes over one conductor."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple[int, RayClassRef]]) -> None:
        terms = tuple(terms)
        if not all(isinstance(c, int) for c, _ in terms):
            raise TypeError("class combination coefficients must be integers")
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

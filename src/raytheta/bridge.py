"""Coset theta functions and their reduction to ray class theta series.

A product of two generalized theta functions is a theta function of a coset
of a rank-2 lattice sitting inside an imaginary quadratic field.  When that
lattice is an ideal, the coset theta function equals w_F times a ray class
theta series at conductor J/hcf(alpha, J).  On top of these two reductions
sit the cross-field relation check (equality of skew-set theta differences
over an admissible conductor pair) and the conductor descent check (trading
a prime off the conductor against doubled class sets).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .qseries import QSeries, _fraction
from .quadfield import (
    Field,
    QIdeal,
    QuadInt,
    coset_points,
    factor_ideal,
    field,
    hnf2,
    principal_ideal,
    quad_le_range,
    squarefree_decompose,
)
from .rayclass import (
    CharacterPsi,
    ClassCombo,
    Conductor,
    RayClassRef,
    admissible,
    compute_skew_sets,
    lift_classes,
    ray_theta,
)
from .report import ReportBuilder, VerificationReport

Coords = tuple[Fraction, Fraction]


# -- direct coset enumeration -----------------------------------------------------


def _scale_to_int(offset: Coords, cols: Sequence[Coords]) -> tuple[int, tuple[int, int], list[tuple[int, int]]]:
    offset = tuple(map(_fraction, offset))
    cols = [tuple(map(_fraction, col)) for col in cols]
    s = 1
    for v in (*offset, *(x for col in cols for x in col)):
        s = s // gcd(s, v.denominator) * v.denominator
    o = (int(s * offset[0]), int(s * offset[1]))
    icols = [(int(s * x), int(s * y)) for x, y in cols]
    return s, o, icols


def theta_coset_raw(
    fld: Field, offset: Coords, cols: Sequence[Coords], d, trunc
) -> QSeries:
    """Lattice sum over offset + span(cols) of q^(|x|^2 / d), exponent <= trunc.

    cols are one or two basis vectors in (1, w) coordinates; rational entries
    are allowed.  Enumeration bounds are exact.
    """
    d = _fraction(d)
    T = _fraction(trunc)
    if d <= 0:
        raise ValueError("scale must be positive")
    s, (ox, oy), icols = _scale_to_int(offset, cols)
    cap = s * s * d * T
    M = cap.numerator // cap.denominator
    counts: dict[int, int] = {}
    if len(icols) == 1:
        (wx, wy) = icols[0]
        if wx == 0 and wy == 0:
            raise ValueError("degenerate lattice")
        Aq = fld.norm_xy(wx, wy)
        Bq = fld.norm_xy(ox + wx, oy + wy) - Aq - fld.norm_xy(ox, oy)
        rng = quad_le_range(Aq, Bq, fld.norm_xy(ox, oy) - M)
        norms = (fld.norm_xy(ox + i * wx, oy + i * wy) for i in range(rng[0], rng[1] + 1)) if rng else ()
    else:
        norms = (n for n, _, _ in coset_points(fld, ox, oy, *hnf2(icols), M))
    for n in norms:
        counts[n] = counts.get(n, 0) + 1
    # a point of norm n sits at exponent n / (s^2 d)
    s2d = s * s * d
    return QSeries(s2d.numerator, {n * s2d.denominator: k for n, k in counts.items()}, T)


def _ideal_cols(J: QIdeal) -> list[Coords]:
    q = J.q
    return [
        (Fraction(J.a, q), Fraction(0)),
        (Fraction(J.b, q), Fraction(J.c, q)),
    ]


# -- coset specifications -----------------------------------------------------------


@dataclass(frozen=True)
class CosetSpec:
    """A coset alpha + J of an ideal J inside O_K, with a theta scale factor."""

    field: Field
    alpha: QuadInt
    lattice: QIdeal
    d: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.d, (int, Fraction)):
            raise TypeError("the theta scale d is an int or a Fraction")

    def offset(self) -> Coords:
        return (Fraction(self.alpha.x), Fraction(self.alpha.y))


def coset_theta_direct(spec: CosetSpec, trunc) -> QSeries:
    """Direct lattice-point enumeration of theta(alpha + J; d)."""
    return theta_coset_raw(
        spec.field, spec.offset(), _ideal_cols(spec.lattice), spec.d, trunc
    )


def product_to_coset(r: int, k: int, s: int, ell: int) -> CosetSpec:
    """The coset theta data equal to the product theta(r, k) * theta(s, ell).

    With h = hcf(k, ell), k/h = mu^2 k0 and ell/h = lambda^2 l0 (k0, l0
    squarefree), the product is the theta function of
    alpha + J in Q[sqrt(-k0 l0)] with alpha = r lambda l0 + s mu sqrt(D),
    J = 2 h lambda l0 mu <mu k0, lambda sqrt(D)>, and d = 4 k ell l0 / h.
    Only the case where J is an ideal of the maximal order is representable
    here; otherwise split the coset first.
    """
    if k < 1 or ell < 1:
        raise ValueError("levels must be positive integers")
    h = gcd(k, ell)
    mu, k0 = squarefree_decompose(k // h)
    lam, l0 = squarefree_decompose(ell // h)
    D = -k0 * l0
    fld = field(D)
    m = 2 * h * lam * l0 * mu
    sx, sy = fld.sqrtD_xy()
    cols = [(m * mu * k0, 0), (m * lam * sx, m * lam * sy)]
    try:
        a, b, c = hnf2(cols)
    except ValueError:
        raise ValueError("degenerate level data")
    J = QIdeal(fld, 1, a, b, c)
    for gx, gy in ((a, 0), (b, c)):
        wx, wy = fld.omega_mul_xy(gx, gy)
        if not fld.elem(wx, wy) in J:
            raise ValueError(
                "the product lattice is not an ideal; split the coset first"
            )
    alpha = fld.elem(r * lam * l0, 0) + s * mu * fld.elem(sx, sy)
    d = Fraction(4 * k * ell * l0, h)
    return CosetSpec(fld, alpha, J, d)


@dataclass(frozen=True)
class RayThetaSpec:
    """Ray class theta data w * theta(x; scale) equal to some coset theta."""

    ray_class: RayClassRef
    scale: Fraction
    weight: int

    def __post_init__(self) -> None:
        if not isinstance(self.scale, (int, Fraction)):
            raise TypeError("the theta scale is an int or a Fraction")
        if not isinstance(self.weight, int):
            raise TypeError("the weight is an int")
        object.__setattr__(self, "scale", Fraction(self.scale))

    def theta(self, trunc) -> QSeries:
        return ray_theta(self.ray_class, self.scale, trunc).scaled(self.weight)


def coset_to_rayclass(spec: CosetSpec) -> RayThetaSpec:
    """Rewrite theta(alpha + J; d) as w_F * theta([alpha H^-1]_F; d / N(H)).

    H = alpha O + J, F = J H^-1; the weight w_F counts units congruent to 1
    mod F.  Requires alpha not in J (the coset must avoid the origin).
    """
    if spec.alpha in spec.lattice:
        raise ValueError("alpha lies in the lattice; the coset contains 0")
    alpha_ideal = principal_ideal(spec.alpha)
    H = alpha_ideal.add(spec.lattice)
    F = Conductor(spec.lattice.mul(H.inverse()))
    x = RayClassRef(alpha_ideal.mul(H.inverse()), F)
    return RayThetaSpec(x, spec.d / H.norm(), F.group.w)


# -- coset decomposition --------------------------------------------------------------


def decompose_coset(
    fld: Field,
    offset: Coords,
    cols: Sequence[Coords],
    sub_cols: Sequence[Coords],
) -> list[Coords]:
    """Offsets w such that offset + L splits as the disjoint union of
    (offset + w) + Lsub over a transversal of L / Lsub.

    L and Lsub are rank-2 lattices given by two basis columns each, and Lsub
    must be a finite-index sublattice of L; raises on any other rank, on
    infinite index or on vectors outside L.
    """
    if len(cols) != 2 or len(sub_cols) != 2:
        raise ValueError("both lattices need a rank-2 basis")
    (a1, a2), (b1, b2) = (tuple(map(_fraction, c)) for c in cols)
    det = a1 * b2 - a2 * b1
    if det == 0:
        raise ValueError("degenerate lattice basis")
    m_cols = []
    for sx, sy in sub_cols:
        sx, sy = _fraction(sx), _fraction(sy)
        u = (sx * b2 - sy * b1) / det
        v = (a1 * sy - a2 * sx) / det
        if u.denominator != 1 or v.denominator != 1:
            raise ValueError("sublattice is not contained in the lattice")
        m_cols.append((int(u), int(v)))
    try:
        ha, hb, hc = hnf2(m_cols)
    except ValueError:
        raise ValueError("sublattice has infinite index")
    ox, oy = _fraction(offset[0]), _fraction(offset[1])
    out = []
    for i in range(ha):
        for j in range(hc):
            wx = i * a1 + j * b1
            wy = i * a2 + j * b2
            out.append((ox + wx, oy + wy))
    return out


def split_coset(spec: CosetSpec, sub: QIdeal) -> list[CosetSpec]:
    """Split a coset of an ideal into cosets of a finite-index subideal."""
    offsets = decompose_coset(
        spec.field, spec.offset(), _ideal_cols(spec.lattice), _ideal_cols(sub)
    )
    out = []
    for ox, oy in offsets:
        if ox.denominator != 1 or oy.denominator != 1:
            raise ValueError("offsets left the maximal order")
        out.append(CosetSpec(spec.field, spec.field.elem(int(ox), int(oy)), sub, spec.d))
    return out


# -- the two relation checkers ----------------------------------------------------------


def skew_pair(D: int, Dprime: int, F: Conductor, Fprime: Conductor, bound: Optional[int] = None) -> tuple:
    """((A, S), (A', S')): the skew sets over K at F and over K' at F' of an
    admissible conductor pair, each group spanned once."""
    chi = CharacterPsi(D, Dprime)
    chip = CharacterPsi(Dprime, D)
    if not admissible(chi, F, chip, Fprime):
        raise ValueError("conductor pair is not admissible")
    return compute_skew_sets(chi, F, bound), compute_skew_sets(chip, Fprime, bound)


def cross_field_sides(skew: tuple, J: QIdeal, Jprime: QIdeal, d, trunc) -> tuple[QSeries, QSeries]:
    """The two theta differences (A - S)[J] over K and (A' - S')[J'] over K',
    for skew = skew_pair(...)."""
    return tuple(
        ray_theta((ClassCombo.sum_of(A) - ClassCombo.sum_of(S)).times(RayClassRef(I, A[0].conductor)), d, trunc)
        for (A, S), I in zip(skew, (J, Jprime))
    )


def check_cross_field(
    D: int,
    Dprime: int,
    F: Conductor,
    Fprime: Conductor,
    J: QIdeal,
    Jprime: QIdeal,
    d,
    trunc,
    bound: Optional[int] = None,
    name: str = "cross_field",
) -> VerificationReport:
    """Theta difference of A[J] - S[J] over K against A'[J'] - S'[J'] over K'.

    The caller supplies the pair (J, J') of norms of one ideal of the
    composite field; the composite field itself is never represented.  The
    scale d only rescales every exponent by 1/d on both sides, so equality
    checked at one d is equality for all d.
    """
    rows = ReportBuilder(trunc)
    lhs, rhs = cross_field_sides(skew_pair(D, Dprime, F, Fprime, bound), J, Jprime, d, rows.trunc)
    params = {
        "D": D,
        "Dprime": Dprime,
        "F": list(F.ideal.key[1:]),
        "Fprime": list(Fprime.ideal.key[1:]),
        "J": list(J.key),
        "Jprime": list(Jprime.key),
        "d": Fraction(d),
    }
    return rows.add(name, params, ("", lhs, rhs))


def _is_prime_ideal(P: QIdeal) -> bool:
    return P.is_integral and factor_ideal(P) == {P: 1}


def check_descent(
    F: Conductor,
    P: QIdeal,
    J: QIdeal,
    B: Sequence[RayClassRef],
    T: Sequence[RayClassRef],
    d,
    trunc,
    name: str = "descent",
) -> VerificationReport:
    """Inverse images of B and its coset T = B[P/conj(P)] in the ray class
    group with conductor F*P give the same theta difference as B and T.

    Hypotheses checked: F self-conjugate, P maximal and prime to F, J prime
    to P*F, B contains both the square of the skew class of P and the skew
    class of J, and T is exactly B times the skew class of P.
    """
    rows = ReportBuilder(trunc)
    fld = F.field
    if not F.self_conjugate:
        raise ValueError("conductor must be self-conjugate")
    if not _is_prime_ideal(P):
        raise ValueError("P must be a maximal ideal")
    if not P.is_coprime(F.ideal):
        raise ValueError("P must be prime to the conductor")
    FP = Conductor(F.ideal.mul(P))
    xJ = RayClassRef(J, FP)  # raises if J meets P*F
    skew_p = RayClassRef(P.mul(P.conj().inverse()), F)
    skew_j = RayClassRef(J.mul(J.conj().inverse()), F)
    if not any((skew_p * skew_p).same_class(b) for b in B):
        raise ValueError("B must contain the squared skew class of P")
    if not any(skew_j.same_class(b) for b in B):
        raise ValueError("B must contain the skew class of J")
    t_expect = [b * skew_p for b in B]
    if len(T) != len(B) or not all(any(t.same_class(u) for u in t_expect) for t in T):
        raise ValueError("T must be the coset of B by the skew class of P")

    b_lift = lift_classes(list(B), FP)
    t_lift = lift_classes(list(T), FP)
    lhs = ray_theta(
        (ClassCombo.sum_of(b_lift) - ClassCombo.sum_of(t_lift)).times(xJ), d, trunc
    )
    xJ_small = RayClassRef(J, F)
    rhs = ray_theta(
        (ClassCombo.sum_of(list(B)) - ClassCombo.sum_of(list(T))).times(xJ_small),
        d,
        trunc,
    )
    params = {
        "D": fld.D,
        "F": list(F.ideal.key[1:]),
        "P": list(P.key),
        "J": list(J.key),
        "d": Fraction(d),
        "lifted_sizes": [len(b_lift), len(t_lift)],
    }
    return rows.add(name, params, ("", lhs, rhs))

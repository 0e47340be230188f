"""Verification suites for the theta-function and character identities.

Every suite compares exact truncated q-series and returns VerificationReport
rows.  Comparisons are done in eta-multiplied form (V functions) so that no
series division sits on the trusted path; character-level statements are
recovered by exact division only when a report asks for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Optional, Sequence

from .bridge import cross_field_sides
from .qseries import (
    QSeries,
    _fraction,
    eta,
    series_sum,
    theta_gen,
    theta_lincomb,
    v_func,
)
from .quadfield import (
    class_number,
    factorint,
    field,
    principal_ideal,
    split_prime,
)
from .rayclass import (
    CharacterPsi,
    ClassCombo,
    Conductor,
    RayClassRef,
    compute_skew_sets,
    crt_class,
    ray_class,
    ray_theta,
)
from .report import ReportBuilder, VerificationReport


# -- small helpers ---------------------------------------------------------------


class _VCache:
    """V(r, m) values memoized on the canonical index min(r mod 2k, -r mod 2k)."""

    def __init__(self, trunc) -> None:
        self.trunc = _fraction(trunc)
        self._store: dict[tuple[int, int], QSeries] = {}

    def __call__(self, r: int, m: int) -> QSeries:
        two_k = 2 * m * (m + 1)
        rr = r % two_k
        key = (min(rr, two_k - rr), m)
        hit = self._store.get(key)
        if hit is None:
            hit = v_func(key[0], m, self.trunc)
            self._store[key] = hit
        return hit


def _v_sum(indices: Iterable[int], m: int, trunc) -> QSeries:
    """sum_x V(x, m) over the indices, as one lattice sum at level m(m+1)."""
    f = 2 * m + 1
    combo = [(sign, x * g) for x in indices for sign, g in ((1, 1), (-1, f))]
    return theta_lincomb(combo, m * (m + 1), trunc)


# -- the first identity family (level 3 vs level 4 squares) -------------------------


def _id1_sides(i: int, V: _VCache) -> tuple[QSeries, QSeries]:
    lhs = V(1, 2) * V(4 - 3 * i, 3)
    rows = {
        1: ((1, 2), (6, 7)),
        2: ((1, 3), (7, 11)),
        3: ((3, 6), (2, 11)),
    }
    (p1, p2), (n1, n2) = rows[i]
    rhs = V(p1, 4) * V(p2, 4) - V(n1, 4) * V(n2, 4)
    return lhs, rhs


def verify_id1(trunc=Fraction(20)) -> list[VerificationReport]:
    """The three quadratic identities tying level 3 to level 4."""
    rows = ReportBuilder(trunc)
    V = _VCache(rows.trunc)
    for i in (1, 2, 3):
        rows.add("id1", {"i": i}, ("", *_id1_sides(i, V)))
    return rows.reports


ID2_ROWS: list[tuple[str, tuple]] = [
    # eta * (V(a,4) + e1 V(b,4)) == (V(1,3) + e1 V(5,3)) (V(c,5) - e1 V(d,5))
    ("pp", (1, 11, 1, 2, 8)),
    ("pm", (1, 11, -1, 2, 8)),
    ("mp", (-3, 7, 1, -4, 14)),
    ("mm", (-3, 7, -1, -4, 14)),
    # eta * V(a,4) == V(2,3) (V(c,5) - V(d,5))
    ("s2", (2, 1, 19)),
    ("s6", (6, 7, 13)),
]


def _id2_sides(tag: str, V: _VCache, trunc) -> tuple[QSeries, QSeries]:
    e = eta(trunc)
    data = dict(ID2_ROWS)[tag]
    if tag in ("s2", "s6"):
        a, c, d = data
        return e * V(a, 4), V(2, 3) * (V(c, 5) - V(d, 5))
    a, b, sign, c, d = data
    lhs = e * (V(a, 4) + V(b, 4).scaled(sign))
    rhs = (V(1, 3) + V(5, 3).scaled(sign)) * (V(c, 5) - V(d, 5).scaled(sign))
    return lhs, rhs


def verify_id2(trunc=Fraction(20)) -> list[VerificationReport]:
    """The six eta-multiplied identities tying level 4 to levels 3 and 5."""
    rows = ReportBuilder(trunc)
    V = _VCache(rows.trunc)
    for tag, _ in ID2_ROWS:
        rows.add("id2", {"row": tag}, ("", *_id2_sides(tag, V, rows.trunc)))
    return rows.reports


# -- the three cross-field relation lines ---------------------------------------------


def _sqrt2_conductors():
    k2 = field(-2)
    f4p2 = Conductor(principal_ideal(k2.elem(0, 4)))
    f4 = Conductor(principal_ideal(k2.elem(4)))
    return k2, f4p2, f4


def _gauss_conductors():
    k1 = field(-1)
    f8 = Conductor(principal_ideal(k1.elem(8)))
    f4p2 = Conductor(principal_ideal(k1.elem(4)).mul(split_prime(k1, 2).prime))
    return k1, f8, f4p2


def verify_relations55(trunc=Fraction(20), bound: Optional[int] = None) -> list[VerificationReport]:
    """Three theta-difference relations between Q[sqrt(-2)] and Q[i].

    Each line is checked twice: the two sides against each other, each a
    ray class theta difference summed over lattice cosets in its own field,
    and the left side against its V-product form.
    """
    rows = ReportBuilder(trunc)
    k2, f4p2, f4 = _sqrt2_conductors()
    k1, f8, f4p2_g = _gauss_conductors()
    V = _VCache(rows.trunc)
    lines = [
        ("line1", f4p2, f8, k2.maximal_order, k1.maximal_order, Fraction(16), V(1, 2) * V(1, 3)),
        ("line2", f4p2, f8, principal_ideal(k2.elem(1, 2)), principal_ideal(k1.elem(3)), Fraction(16), V(1, 2) * V(5, 3)),
        ("line3", f4, f4p2_g, k2.maximal_order, k1.maximal_order, Fraction(8), V(1, 2) * V(2, 3)),
    ]
    for name, Fc, Fcp, J, Jp, d, vform in lines:
        lhs, rhs = cross_field_sides(-2, -1, Fc, Fcp, J, Jp, d, rows.trunc, bound)
        rows.add(
            "relations55",
            {"line": name, "d": d},
            ("cross-field mismatch", lhs, rhs),
            ("V-form mismatch", vform, lhs),
        )
    return rows.reports


# -- the infinite family ----------------------------------------------------------------


@dataclass(frozen=True)
class FamilyParams:
    """Parameters (a, p, a', m, c) of one member of the identity family."""

    a: int
    p: int
    aprime: int
    m: int
    c: int
    r: int
    eps: int

    @classmethod
    def build(cls, a: int, r: int, eps: int, experimental: bool = False) -> "FamilyParams":
        if a % 4 != 1 and not experimental:
            raise ValueError("a must be 1 mod 4 (pass experimental=True to override)")
        if eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")
        if r % 2 == 0:
            raise ValueError("r must be odd")
        M = 4 * a * a + 1
        best = None
        for ap in range(isqrt(M), 0, -1):
            if M % (ap * ap) == 0:
                q = M // (ap * ap)
                if factorint(q) == {q: 1}:
                    best = (q, ap)
                    break
        if best is None:
            raise ValueError(f"4a^2+1 = {M} is not prime times a square")
        p, aprime = best
        if r % p == 0:
            raise ValueError("r must be prime to p")
        return cls(a=a, p=p, aprime=aprime, m=4 * a * a, c=a * aprime, r=r, eps=eps)


def thm51_index(params: FamilyParams, u: int) -> int:
    """The lift h_u of u: h_u = u mod p and h_u = 1 mod 8a^2 (Chinese remainders)."""
    p, n = params.p, 8 * params.a * params.a
    return u + p * (((1 - u) * pow(p, -1, n)) % n)


def thm51_lhs(params: FamilyParams, trunc) -> QSeries:
    """Triple sum of V-products at level m = 4a^2,

        sum_{u < p/2} sum_{v, w < c} V(c h_u (r + 8vp), m) V(c h_u ((2a - eps p) r + 8wp), m),

    summed as sum_u L_u R_u with L_u and R_u the sums over v and over w.
    """
    a, p, c, m, r, eps = params.a, params.p, params.c, params.m, params.r, params.eps
    T = _fraction(trunc)
    products = []
    for u in range(1, (p - 1) // 2 + 1):
        hu = thm51_index(params, u)
        left = _v_sum((c * hu * (r + 8 * v * p) for v in range(c)), m, T)
        right = _v_sum((c * hu * ((2 * a - eps * p) * r + 8 * w * p) for w in range(c)), m, T)
        products.append(left * right)
    return series_sum(products)


def thm51_rhs(params: FamilyParams, trunc) -> QSeries:
    """Ray class theta difference over Q[i] at conductor (1+i)^(6-eps)."""
    k1 = field(-1)
    p2 = split_prime(k1, 2).prime
    Fc = Conductor(p2.pow(6 - params.eps))
    delta = k1.elem(1, 4)
    r_elt = k1.elem(params.r)
    combo = ClassCombo(
        [(1, ray_class(r_elt, Fc)), (-1, ray_class(r_elt * delta, Fc))]
    )
    return ray_theta(combo, Fraction(2 ** (4 - params.eps)), trunc)


def thm51_vv_form(params: FamilyParams, trunc) -> QSeries:
    """The compact a=1 form V(r,4)V(rf,4) + V(7r,4)V(7rf,4), f = |2a - eps p|."""
    V = _VCache(trunc)
    f = abs(2 * params.a - params.eps * params.p)
    r = params.r
    return V(r, 4) * V(r * f, 4) + V(7 * r, 4) * V(7 * r * f, 4)


def thm51_check(
    a: int = 1,
    r: int = 1,
    eps: int = 0,
    trunc=Fraction(20),
    experimental: bool = False,
) -> VerificationReport:
    """One member of the family: level-m V-product sum against the Gaussian
    ray class theta difference."""
    rows = ReportBuilder(trunc)
    params = FamilyParams.build(a, r, eps, experimental)
    return rows.add(
        "thm51",
        {"a": a, "p": params.p, "c": params.c, "m": params.m, "r": r, "eps": eps},
        ("", thm51_lhs(params, rows.trunc), thm51_rhs(params, rows.trunc)),
    )


# -- consolidation of characters across levels --------------------------------------------


def consolidate(c: int, kprime: int, b: int, r: int, m: int, trunc=Fraction(10)) -> VerificationReport:
    """Summing c thetas (or V functions) at level k = c^2 k' drops to level k'.

    Verifies both the plain theta consolidation
    sum_j theta(c b (r + 2 j k'), k) = theta(b r, k') and, when k = m(m+1),
    its V-function corollary with right side theta(br,k') - theta(br(2m+1),k').
    """
    rows = ReportBuilder(trunc)
    if gcd(b, c) != 1:
        raise ValueError("b must be prime to c")
    k = c * c * kprime
    if m * (m + 1) != k:
        raise ValueError(f"m(m+1) = {m*(m+1)} differs from c^2 k' = {k}")
    T = rows.trunc
    indices = [c * b * (r + 2 * j * kprime) for j in range(c)]
    lemma_lhs = theta_lincomb([(1, x) for x in indices], k, T)
    lemma_rhs = theta_gen(b * r, kprime, T)
    coro_lhs = _v_sum(indices, m, T)
    coro_rhs = theta_lincomb(((1, b * r), (-1, b * r * (2 * m + 1))), kprime, T)
    return rows.add(
        "consolidate",
        {"c": c, "kprime": kprime, "b": b, "r": r, "m": m},
        ("theta form failed", lemma_lhs, lemma_rhs),
        ("V form failed", coro_lhs, coro_rhs),
    )


# -- Pell levels ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PellSolution:
    """A level m with m(m+1) = 12 c^2 and 2m+1 = 7 mod 24."""

    m: int
    c: int

    def verify(self) -> bool:
        x = 2 * self.m + 1
        return (
            x * x - 48 * self.c * self.c == 1
            and x % 24 == 7
            and self.m * (self.m + 1) == 12 * self.c * self.c
        )


def pell_levels(count: int) -> list[PellSolution]:
    """First `count` nontrivial levels solving (2m+1)^2 - 48 c^2 = 1 with
    2m+1 = 7 mod 24, by the fundamental-solution recurrence; every output is
    re-verified by exact arithmetic.  The degenerate m = 3 (c = 1) solution
    is skipped.
    """
    if count < 1:
        raise ValueError("count must be positive")
    out: list[PellSolution] = []
    x, y = 7, 1
    while len(out) < count:
        if x % 24 == 7 and y > 1:
            sol = PellSolution(m=(x - 1) // 2, c=y)
            if not sol.verify():
                raise AssertionError(f"recurrence produced a bad solution {sol}")
            out.append(sol)
        x, y = 7 * x + 48 * y, x + 7 * y
    return out


def pell_reports(count: int = 2) -> list[VerificationReport]:
    rows = ReportBuilder(0)
    for sol in pell_levels(count):
        rows.add("pell", {"m": sol.m, "c": sol.c}, ("", sol.verify(), None))
    return rows.reports


# -- the second identity family over sqrt(-30) / sqrt(-10) ----------------------------------


SRT_ROWS = [(1, 1, 1), (-11, -5, 1), (-3, -5, 13), (-7, 1, 13)]


def _sqrt30_data():
    K = field(-30)
    p5 = split_prime(K, 5).prime
    p3 = split_prime(K, 3).prime
    p2 = split_prime(K, 2).prime
    f4p2 = principal_ideal(K.elem(4)).mul(p2)
    Fc = Conductor(p5.mul(p3).mul(f4p2))
    # the norm-13 prime pinned by the decomposition of 10 + sqrt(-30)
    H = p2.mul(p5)
    p13 = principal_ideal(K.elem(10, 1)).mul(H.inverse())
    return K, Fc, p5, p3, f4p2, p13


def _sqrt10_data():
    Kp = field(-10)
    p5 = split_prime(Kp, 5).prime
    p2 = split_prime(Kp, 2).prime
    three = principal_ideal(Kp.elem(3))
    f4p2 = principal_ideal(Kp.elem(4)).mul(p2)
    Fc = Conductor(p5.mul(three).mul(f4p2))
    p13 = principal_ideal(Kp.elem(5, 2)).mul(p5.inverse())
    return Kp, Fc, p5, three, f4p2, p13


def verify_sec54(trunc=Fraction(4), bound: Optional[int] = None) -> list[VerificationReport]:
    """The four-row identity suite between Q[sqrt(-30)] and Q[sqrt(-10)].

    Emits class-group sanity, the explicit skew-set listings, and for each
    (s, r, t) row the cross-field equality at d = 240 plus both V-product
    reduction checks.
    """
    rows = ReportBuilder(trunc)
    T = rows.trunc
    K, Fc, p5, p3, f4p2, p13 = _sqrt30_data()
    Kp, Fcp, p5p, three, f4p2p, p13p = _sqrt10_data()
    h_ok = class_number(K) == 4 and class_number(Kp) == 2
    rows.add("sec54_class_groups", {"hK": class_number(K), "hKp": class_number(Kp)}, ("", h_ok, None))

    chi = CharacterPsi(-30, -10)
    chip = CharacterPsi(-10, -30)
    A, S = compute_skew_sets(chi, Fc, bound)
    Ap, Sp = compute_skew_sets(chip, Fcp, bound)
    mu = K.elem(1, 2)
    expect_A = [
        crt_class([(p5, 1), (p3, 1), (f4p2, 1)]),
        crt_class([(p5, 1), (p3, 1), (f4p2, -1)]),
        crt_class([(p5, -1), (p3, 1), (f4p2, 3 * mu)]),
        crt_class([(p5, -1), (p3, 1), (f4p2, (-3) * mu)]),
    ]
    sflip = crt_class([(p5, -1), (p3, 1), (f4p2, 1)])
    a_ok = len(A) == 4 and all(any(a.same_class(e) for a in A) for e in expect_A)
    s_ok = len(S) == 4 and all(any(s.same_class(a * sflip) for s in S) for a in A)
    rows.add(
        "sec54_skew_sets",
        {"|A|": len(A), "|S|": len(S), "|A'|": len(Ap), "|S'|": len(Sp)},
        ("", a_ok and s_ok and len(Ap) == 8 and len(Sp) == 8, None),
    )

    V = _VCache(T)
    d = Fraction(240)
    for s, r, t in SRT_ROWS:
        gamma_l = crt_class([(p5, s), (p3, 1), (f4p2, 2 - s)])
        J = p13.mul(gamma_l.rep)
        gamma_r = crt_class([(p5p, t), (three, 1), (f4p2p, r)])
        Jp = p13p.mul(gamma_r.rep)
        lhs_theta, rhs_theta = cross_field_sides(-30, -10, Fc, Fcp, J, Jp, d, T, bound)
        rows.add("sec54_cross", {"s": s, "r": r, "t": t, "d": d}, ("", lhs_theta, rhs_theta))
        rows.add("sec54_lhs_reduction", {"s": s}, ("", (V(1, 2) * V(s, 4)).scaled(2), lhs_theta))
        vv = V(r, 3) * V(2 * t, 5) + V(-5 * r, 3) * V(32 * t, 5)
        rows.add("sec54_rhs_reduction", {"r": r, "t": t}, ("", vv.scaled(2), rhs_theta))
    return rows.reports


# -- relation search harness ------------------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """A finite pool of V-function products to scan for integer relations."""

    pool: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]
    trunc: Fraction = Fraction(20)
    max_coeff: int = 99
    max_matrix_entries: int = 2_000_000

    @classmethod
    def from_products(cls, products: Sequence[tuple[str, Sequence[tuple[int, int]]]], trunc=Fraction(20), max_coeff: int = 99) -> "SearchConfig":
        return cls(
            pool=tuple((label, tuple(factors)) for label, factors in products),
            trunc=_fraction(trunc),
            max_coeff=max_coeff,
        )


def _rational_kernel(rows: list[list[Fraction]], n: int) -> list[list[int]]:
    rows = [row[:] for row in rows if any(x != 0 for x in row)]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        sel = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][fc]
        den = 1
        for x in v:
            den = den // gcd(den, x.denominator) * x.denominator
        ints = [int(x * den) for x in v]
        g = 0
        for x in ints:
            g = gcd(g, x)
        basis.append([x // g for x in ints])
    return basis


def search_relations(cfg: SearchConfig) -> list[dict]:
    """Integer relations among the pool series, exact to the configured
    truncation; every hit is tagged CANDIDATE (never claimed proven)."""
    if not cfg.pool:
        raise ValueError("empty search pool")
    V = _VCache(cfg.trunc)
    labels = []
    series = []
    for label, factors in cfg.pool:
        labels.append(label)
        prod: Optional[QSeries] = None
        for r, m in factors:
            term = V(r, m)
            prod = term if prod is None else prod * term
        assert prod is not None
        series.append(prod)
    denom = 1
    for s in series:
        denom = denom // gcd(denom, s.denom) * s.denom
    grid = sorted({n * (denom // s.denom) for s in series for n in s.terms})
    if len(grid) * len(series) > cfg.max_matrix_entries:
        raise ValueError("search matrix exceeds the configured size guard")
    rows = [
        [Fraction(s.terms.get(n // (denom // s.denom), 0) if n % (denom // s.denom) == 0 else 0) for s in series]
        for n in grid
    ]
    kernel = _rational_kernel(rows, len(series))
    out = []
    for vec in kernel:
        if max(abs(x) for x in vec) > cfg.max_coeff:
            continue
        out.append(
            {
                "status": "CANDIDATE",
                "trunc": [cfg.trunc.numerator, cfg.trunc.denominator],
                "coeffs": {lab: x for lab, x in zip(labels, vec) if x},
            }
        )
    return out


def idp1_pool(trunc=Fraction(20)) -> SearchConfig:
    """Pool of the nine products appearing in the first identity family."""
    prods = [
        ("L1", [(1, 2), (1, 3)]),
        ("L2", [(1, 2), (2, 3)]),
        ("L3", [(1, 2), (5, 3)]),
        ("R11", [(1, 4), (2, 4)]),
        ("R12", [(6, 4), (7, 4)]),
        ("R21", [(1, 4), (3, 4)]),
        ("R22", [(7, 4), (11, 4)]),
        ("R31", [(3, 4), (6, 4)]),
        ("R32", [(2, 4), (11, 4)]),
    ]
    return SearchConfig.from_products(prods, trunc)


def id24_pool(trunc=Fraction(20)) -> SearchConfig:
    """Pool spanning one eta-multiplied row of the second family."""
    prods = [
        ("L", [(1, 2), (1, 4)]),
        ("VV1", [(1, 3), (2, 5)]),
        ("VV2", [(5, 3), (32, 5)]),
    ]
    return SearchConfig.from_products(prods, trunc)


# -- negative controls --------------------------------------------------------------------


def negative_control(suite: str, trunc=Fraction(10)) -> VerificationReport:
    """Deliberately mutated variant of a suite comparison; must FAIL with a
    finite first-mismatch exponent."""
    rows = ReportBuilder(trunc)
    T = rows.trunc
    V = _VCache(T)
    if suite == "id1":
        lhs = V(1, 2) * V(1, 3)
        rhs = V(1, 4) * V(2, 4) + V(6, 4) * V(7, 4)
    elif suite == "id2":
        lhs = eta(T) * V(2, 4)
        rhs = V(2, 3) * (V(1, 5) - V(17, 5))
    elif suite == "relations55":
        k2, f4p2, _ = _sqrt2_conductors()
        chi = CharacterPsi(-2, -1)
        A, S = compute_skew_sets(chi, f4p2)
        lhs = ray_theta(ClassCombo.sum_of(A) + ClassCombo.sum_of(S), 16, T)
        rhs = V(1, 2) * V(1, 3)
    elif suite == "thm51":
        params = FamilyParams.build(1, 1, 0)
        lhs = thm51_lhs(params, T)
        k1 = field(-1)
        p2 = split_prime(k1, 2).prime
        Fc = Conductor(p2.pow(6))
        combo = ClassCombo(
            [(1, ray_class(1, Fc)), (1, ray_class(k1.elem(1, 4), Fc))]
        )
        rhs = ray_theta(combo, 16, T)
    elif suite == "consolidate":
        lhs = _v_sum((99 * (1 + 12 * j) for j in range(99)), 242, T)
        rhs = theta_gen(1, 6, T) + theta_gen(5, 6, T)
    elif suite == "sec54":
        K, Fc, p5, p3, f4p2, p13 = _sqrt30_data()
        chi = CharacterPsi(-30, -10)
        A, S = compute_skew_sets(chi, Fc)
        gamma = crt_class([(p5, 1), (p3, 1), (f4p2, 1)])
        xJ = RayClassRef(p13.mul(gamma.rep), Fc)
        lhs = ray_theta((ClassCombo.sum_of(A) - ClassCombo.sum_of(S)).times(xJ), 240, T)
        rhs = (V(1, 2) * V(1, 4)).scaled(-2)
    elif suite == "pell":
        sol = PellSolution(m=675, c=175)
        return rows.add(
            "negative_control",
            {"suite": suite, "m": sol.m, "c": sol.c},
            (
                "mutated multiplier fails exact re-verification",
                sol.verify(),
                (Fraction(0), (2 * 675 + 1) ** 2 - 48 * 175**2, 1),
            ),
        )
    else:
        raise ValueError(f"no negative control for suite {suite!r}")
    return rows.add("negative_control", {"suite": suite}, ("", lhs, rhs))


# -- the CLI-facing registry -------------------------------------------------------------------


SUITE_NAMES = ["id1", "id2", "relations55", "thm51", "consolidate", "pell", "sec54", "search"]

SUITE_DEFAULT_TRUNC = {
    "id1": Fraction(20),
    "id2": Fraction(20),
    "relations55": Fraction(20),
    "thm51": Fraction(20),
    "consolidate": Fraction(10),
    "pell": Fraction(0),
    "sec54": Fraction(4),
    "search": Fraction(20),
}


def run_suite(
    name: str,
    trunc=None,
    *,
    bound: Optional[int] = None,
    a: Optional[int] = None,
    r: Optional[int] = None,
    eps: Optional[int] = None,
    count: int = 2,
    experimental: bool = False,
) -> list[VerificationReport]:
    if name not in SUITE_NAMES:
        raise KeyError(name)
    T = _fraction(trunc) if trunc is not None else SUITE_DEFAULT_TRUNC[name]
    if name == "id1":
        return verify_id1(T)
    if name == "id2":
        return verify_id2(T)
    if name == "relations55":
        return verify_relations55(T, bound)
    if name == "thm51":
        if a is None:
            return [
                thm51_check(1, rr, ee, T, experimental)
                for rr, ee in ((1, 0), (3, 0), (1, 1))
            ]
        return [thm51_check(a, r if r is not None else 1, eps if eps is not None else 0, T, experimental)]
    if name == "consolidate":
        reports = [consolidate(99, 6, 1, 1, 242, T)]
        for rr in (1, -2, -5):
            reports.append(consolidate(195, 12, 1, rr, 675, T))
        return reports
    if name == "pell":
        return pell_reports(count)
    if name == "sec54":
        return verify_sec54(T if trunc is not None else Fraction(4), bound)
    if name == "search":
        return search_regression(T)
    raise KeyError(name)


def search_regression(trunc=Fraction(20)) -> list[VerificationReport]:
    """Regression form of the search harness: pools holding known identities
    must return them (and only them)."""
    rows = ReportBuilder(trunc)
    rels1 = search_relations(idp1_pool(rows.trunc))
    want = [
        {"L1": 1, "R11": -1, "R12": 1},
        {"L2": 1, "R21": -1, "R22": 1},
        {"L3": 1, "R31": -1, "R32": 1},
    ]
    got = [r["coeffs"] for r in rels1]
    ok1 = len(rels1) == 3 and all(
        w in got or {k: -v for k, v in w.items()} in got for w in want
    )
    rows.add("search", {"pool": "idp1", "relations": len(rels1)}, ("", ok1, None))
    rels2 = search_relations(id24_pool(rows.trunc))
    ok2 = len(rels2) == 1 and sorted(rels2[0]["coeffs"]) == ["L", "VV1", "VV2"]
    rows.add("search", {"pool": "id24", "relations": len(rels2)}, ("", ok2, None))
    return rows.reports

"""Acceptance gate: every stated criterion at its stated tolerance.

All comparisons are exact coefficient equality on the compared range
(tolerance zero); runtimes are wall-clock guards.  Run with -s to see one
PASS/FAIL line per criterion:  pytest tests/test_acceptance.py -s
"""

import random
import time
from fractions import Fraction as F

from raytheta.bridge import (
    CosetSpec,
    coset_theta_direct,
    coset_to_rayclass,
    decompose_coset,
    product_to_coset,
    theta_coset_raw,
)
from raytheta.identities import (
    FamilyParams,
    PellSolution,
    consolidate,
    negative_control,
    pell_levels,
    thm51_check,
    thm51_lhs,
    thm51_vv_form,
    verify_id1,
    verify_id2,
    verify_relations55,
    verify_sec54,
)
from raytheta.qseries import equals_to_order, eta, theta_gen, v_func
from raytheta.quadfield import (
    factor_ideal,
    field,
    ideal_from_gens,
    ideal_product,
    is_principal,
    principal_ideal,
)
from raytheta.rayclass import same_ray_class, Conductor

DS = (-1, -2, -10, -30)


def _line(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion} failed: {detail}"


def test_criterion_1_id1_at_q20():
    t0 = time.perf_counter()
    reports = verify_id1(F(20))
    elapsed = time.perf_counter() - t0
    ok = len(reports) == 3 and all(r.passed for r in reports) and elapsed < 5.0
    _line("1 (id1 at q^20)", ok, f"3 identities, {elapsed:.2f}s")


def test_criterion_2_id2_at_q20():
    t0 = time.perf_counter()
    reports = verify_id2(F(20))
    elapsed = time.perf_counter() - t0
    ok = len(reports) == 6 and all(r.passed for r in reports) and elapsed < 5.0
    _line("2 (id2 at q^20)", ok, f"6 identities, {elapsed:.2f}s")


def test_criterion_3_relations55():
    # trunc 20 reaches ideal norms 320/320/160, covering 160 per side;
    # each line also checks the V-product form of its left side
    reports = verify_relations55(F(20))
    norms = [int(r.params["d"] * 20) for r in reports]
    ok = (
        len(reports) == 3
        and all(r.passed for r in reports)
        and all(n >= 160 for n in norms)
    )
    _line("3 (cross-field relations)", ok, f"norm ranges {norms}")


def test_criterion_4_family():
    t0 = time.perf_counter()
    base_ok = True
    for r, eps in ((1, 0), (3, 0), (1, 1)):
        params = FamilyParams.build(1, r, eps)
        lhs = thm51_lhs(params, F(20))
        vv_ok, _ = equals_to_order(lhs, thm51_vv_form(params, F(20)), F(20))
        base_ok = base_ok and vv_ok and thm51_check(1, r, eps, F(20)).passed
    p5 = FamilyParams.build(5, 1, 0)
    p13 = FamilyParams.build(13, 1, 0)
    terms = [(p.p - 1) // 2 * p.c * p.c for p in (p5, p13)]
    members = [thm51_check(a, 1, eps, F(20)) for a in (5, 13) for eps in (0, 1)]
    elapsed = time.perf_counter() - t0
    ok = (
        base_ok
        and (p5.m, p5.p, p5.c) == (100, 101, 5)
        and (p13.m, p13.p, p13.c) == (676, 677, 13)
        and terms == [1250, 57122]
        and all(rep.passed for rep in members)
        and elapsed < 10.0
    )
    _line(
        "4 (infinite family)",
        ok,
        f"a=1 rows + a=5, 13 at q^20, eps 0 and 1 (1250 and 57122 V-products), {elapsed:.2f}s",
    )


def test_criterion_5_consolidation_and_pell():
    c242 = consolidate(99, 6, 1, 1, 242, F(10))
    sum_99 = None
    for j in range(99):
        term = v_func(99 * (1 + 12 * j), 242, F(10))
        sum_99 = term if sum_99 is None else sum_99 + term
    eta_ok, _ = equals_to_order(sum_99, eta(F(10)), F(10))
    c675 = [consolidate(195, 12, 1, r, 675, F(10)).passed for r in (1, -2, -5)]
    sols = pell_levels(2)
    pell_ok = (
        [(s.m, s.c) for s in sols] == [(675, 195), (131043, 37829)]
        and all(s.verify() for s in sols)
        and not PellSolution(675, 175).verify()
    )
    ok = c242.passed and eta_ok and all(c675) and pell_ok
    _line(
        "5 (consolidation + Pell)",
        ok,
        f"m=242 sum=eta, m=675 rows {c675}, first levels {[(s.m, s.c) for s in sols]}",
    )


def test_criterion_6_sec54():
    t0 = time.perf_counter()
    reports = verify_sec54(F(4))
    elapsed = time.perf_counter() - t0
    by_name: dict[str, list] = {}
    for r in reports:
        by_name.setdefault(r.name, []).append(r)
    ok = (
        all(r.passed for r in reports)
        and by_name["sec54_class_groups"][0].params == {"hK": 4, "hKp": 2}
        and len(by_name["sec54_cross"]) == 4
        and len(by_name["sec54_lhs_reduction"]) == 4
        and len(by_name["sec54_rhs_reduction"]) == 4
        and elapsed < 30.0
    )
    _line("6 (sqrt(-30)/sqrt(-10) suite)", ok, f"norms to 960, {elapsed:.2f}s")


def _random_nonzero(rng, fld, lim=9):
    while True:
        g = fld.elem(rng.randint(-lim, lim), rng.randint(-lim, lim))
        if not g.is_zero():
            return g


def _random_ideal(rng, fld, lim=9):
    return ideal_from_gens(
        [_random_nonzero(rng, fld, lim) for _ in range(rng.randint(1, 2))]
    )


def test_criterion_7_property_suites():
    rng = random.Random(2024)
    counts = {}

    n_ok = 0
    for _ in range(200):
        k = field(rng.choice(DS))
        I, J = _random_ideal(rng, k), _random_ideal(rng, k)
        assert I.mul(J).norm() == I.norm() * J.norm()
        n_ok += 1
    counts["norm multiplicativity"] = n_ok

    n_ok = 0
    for _ in range(200):
        k = field(rng.choice(DS))
        I = _random_ideal(rng, k)
        assert ideal_product(k, factor_ideal(I)) == I
        n_ok += 1
    counts["factorization round-trip"] = n_ok

    n_ok = 0
    for _ in range(200):
        k = field(rng.choice(DS))
        alpha = _random_nonzero(rng, k)
        got = is_principal(principal_ideal(alpha))
        assert got is not None and any(got[0] == u * alpha for u in k.units)
        n_ok += 1
    counts["principal round-trip"] = n_ok

    n_ok = 0
    pool = []
    for D in DS:
        k = field(D)
        pool.append(Conductor(principal_ideal(k.elem(2))))
        pool.append(Conductor(principal_ideal(k.elem(3))))
    while n_ok < 200:
        Fc = rng.choice(pool)
        k = Fc.field
        ideals = []
        while len(ideals) < 3:
            g = _random_nonzero(rng, k)
            I = principal_ideal(g)
            try:
                same_ray_class(I, I, Fc)
            except Exception:
                continue
            ideals.append(I)
        I, J, L = ideals
        assert same_ray_class(I, I, Fc)
        assert same_ray_class(I, J, Fc) == same_ray_class(J, I, Fc)
        if same_ray_class(I, J, Fc):
            assert same_ray_class(I.mul(L), J.mul(L), Fc)
            if same_ray_class(J, L, Fc):
                assert same_ray_class(I, L, Fc)
        n_ok += 1
    counts["ray class equivalence"] = n_ok

    n_ok = 0
    while n_ok < 200:
        k = field(rng.choice(DS))
        J = _random_ideal(rng, k, 6)
        if not J.is_integral or int(J.norm()) < 2:
            continue
        alpha = _random_nonzero(rng, k)
        if alpha in J:
            continue
        spec = CosetSpec(k, alpha, J, F(rng.choice([1, 2, 4, 16])))
        T = F(3) if int(J.norm()) < 200 else F(1)
        rspec = coset_to_rayclass(spec)
        ok, mism = equals_to_order(rspec.theta(T), coset_theta_direct(spec, T), T)
        assert ok, (k.D, alpha, J, mism)
        n_ok += 1
    counts["coset to ray class bridge"] = n_ok

    n_ok = 0
    while n_ok < 200:
        h = rng.randint(1, 4)
        k_lvl = h * rng.choice([1, 2, 3, 5, 6, 10])
        l_lvl = h * rng.choice([1, 2, 3, 5, 6, 10])
        from math import gcd

        if gcd(k_lvl, l_lvl) != h:
            continue
        r, s = rng.randint(-8, 8), rng.randint(-8, 8)
        try:
            spec = product_to_coset(r, k_lvl, s, l_lvl)
        except ValueError:
            continue
        lhs = theta_gen(r, k_lvl, F(6)) * theta_gen(s, l_lvl, F(6))
        ok, mism = equals_to_order(lhs, coset_theta_direct(spec, F(6)), F(6))
        assert ok, (r, k_lvl, s, l_lvl, mism)
        n_ok += 1
    counts["product vs direct lattice"] = n_ok

    n_ok = 0
    while n_ok < 200:
        k = field(rng.choice(DS))
        L = [(F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for _ in range(2)]
        if L[0][0] * L[1][1] - L[0][1] * L[1][0] == 0:
            continue
        M = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        dm = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        if dm == 0 or abs(dm) > 4:
            continue
        sub = [
            (M[0][0] * L[0][0] + M[0][1] * L[1][0], M[0][0] * L[0][1] + M[0][1] * L[1][1]),
            (M[1][0] * L[0][0] + M[1][1] * L[1][0], M[1][0] * L[0][1] + M[1][1] * L[1][1]),
        ]
        off = (F(rng.randint(-2, 2), 2), F(rng.randint(-2, 2), 2))
        offs = decompose_coset(k, off, L, sub)
        whole = theta_coset_raw(k, off, L, 2, F(5))
        total = None
        for o in offs:
            part = theta_coset_raw(k, o, sub, 2, F(5))
            total = part if total is None else total + part
        ok, mism = equals_to_order(whole, total, F(5))
        assert ok, (k.D, L, sub, mism)
        n_ok += 1
    counts["coset decomposition partition"] = n_ok

    n_ok = 0
    for _ in range(200):
        ell, k_lvl = rng.randint(-40, 40), rng.randint(1, 25)
        t = theta_gen(ell, k_lvl, F(12))
        assert t == theta_gen(-ell, k_lvl, F(12))
        assert t == theta_gen(ell + 2 * k_lvl, k_lvl, F(12))
        n_ok += 1
    counts["theta index symmetry"] = n_ok

    n_ok = 0
    for _ in range(200):
        T = F(rng.randint(1, 40), rng.choice([1, 2, 4]))
        poly = {0: 1}
        for n in range(1, int(T) + 2):
            nxt = dict(poly)
            for e, cc in poly.items():
                if e + n <= T:
                    nxt[e + n] = nxt.get(e + n, 0) - cc
            poly = {e: cc for e, cc in nxt.items() if cc}
        from raytheta.qseries import QSeries

        oracle = QSeries.from_exponents({F(24 * e + 1, 24): cc for e, cc in poly.items()}, T)
        ok, mism = equals_to_order(eta(T), oracle, T)
        assert ok, (T, mism)
        n_ok += 1
    counts["eta vs Euler product"] = n_ok

    ok = all(v >= 200 for v in counts.values())
    _line("7 (property suites)", ok, ", ".join(f"{k}: {v}" for k, v in counts.items()))


def test_criterion_8_negative_controls():
    outcomes = {}
    for suite in ("id1", "id2", "relations55", "thm51", "consolidate", "sec54", "pell"):
        rep = negative_control(suite, F(6))
        outcomes[suite] = (not rep.passed) and rep.first_mismatch is not None
    ok = all(outcomes.values())
    _line("8 (negative controls)", ok, ", ".join(f"{k}: {'FAILs' if v else 'BAD'}" for k, v in outcomes.items()))

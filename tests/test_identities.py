"""The verification suites at working truncations, plus their mutations."""

from dataclasses import replace
from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from raytheta.identities import (
    FamilyParams,
    _VCache,
    _bucket_by_u,
    _integer_kernel,
    _v_sum,
    PellSolution,
    SearchConfig,
    consolidate,
    id24_pool,
    idp1_pool,
    negative_control,
    pell_levels,
    pell_reports,
    run_suite,
    search_regression,
    search_relations,
    thm51_check,
    thm51_lhs,
    thm51_rhs,
    verify_id1,
    verify_id2,
    verify_relations55,
    verify_sec54,
)
from raytheta.bridge import (
    CosetSpec,
    RayThetaSpec,
    check_cross_field,
    check_descent,
    coset_theta_direct,
    decompose_coset,
    product_to_coset,
    theta_coset_raw,
)
from raytheta.qseries import QSeries, equals_to_order, eta, theta_gen, theta_lincomb, v_func, virasoro_char
from raytheta.quadfield import Field, enumerate_ideals, factorint, field, split_prime
from raytheta.rayclass import (
    CharacterPsi,
    ClassCombo,
    Conductor,
    compute_skew_sets,
    conductor_of,
    crt_class,
    psi_conductor,
    ray_class,
    ray_theta,
)
from raytheta.report import ReportBuilder


def test_id1_all_pass():
    reports = verify_id1(F(12))
    assert [r.passed for r in reports] == [True, True, True]


def test_id2_all_pass():
    reports = verify_id2(F(12))
    assert len(reports) == 6 and all(r.passed for r in reports)


def test_relations55_all_pass():
    reports = verify_relations55(F(8))
    assert len(reports) == 3 and all(r.passed for r in reports)


def thm51_vv_form(params: FamilyParams, trunc) -> QSeries:
    """The compact a = 1 form V(r,4)V(rf,4) + V(7r,4)V(7rf,4), f = |2a - eps p|."""
    V = _VCache(trunc)
    f = abs(2 * params.a - params.eps * params.p)
    r = params.r
    return V(r, 4) * V(r * f, 4) + V(7 * r, 4) * V(7 * r * f, 4)


def test_thm51_base_cases_match_vv_form():
    for r, eps in ((1, 0), (3, 0), (1, 1)):
        params = FamilyParams.build(1, r, eps)
        lhs = thm51_lhs(params, F(12))
        vv = thm51_vv_form(params, F(12))
        ok, mism = equals_to_order(lhs, vv, F(12))
        assert ok, (r, eps, mism)
        assert thm51_check(1, r, eps, F(12)).passed


def test_thm51_next_member():
    rep = thm51_check(5, 1, 0, F(20))
    assert rep.passed and rep.params["m"] == 100 and rep.params["p"] == 101


def test_thm51_further_square_free_member():
    # a = 13 gives p = 677 prime with a' = 1; both parity variants hold
    rep = thm51_check(13, 1, 0, F(20))
    assert rep.passed and rep.params["m"] == 676
    assert thm51_check(13, 1, 1, F(20)).passed


def test_thm51_nontrivial_square_part_fails_and_is_reported():
    # a = 9 satisfies every stated precondition (p = 13, a' = 5) yet its
    # eps = 0 rows differ from the first coefficient on; the checker must
    # report the mismatch honestly rather than error out.  Its eps = 1 rows
    # hold.
    rep = thm51_check(9, 1, 0, F(2))
    assert not rep.passed
    assert rep.first_mismatch == (F(1, 16), 0, 1)
    rep2 = thm51_check(9, 3, 1, F(3))
    assert rep2.passed and rep2.first_mismatch is None


def test_thm51_a41_fails_and_is_reported():
    # a = 41 (p = 269, a' = 5) is the next member with a' > 1.  With h_u
    # prime to c its left side is the twist -rhs(5r), as at a = 9: the eps = 1
    # rows hold, and eps = 0 fails from the first coefficients on.
    rep = thm51_check(41, 1, 0, F(20))
    assert not rep.passed
    assert rep.first_mismatch == (F(1, 16), 0, 1)
    rep1 = thm51_check(41, 1, 1, F(20))
    assert rep1.passed and rep1.first_mismatch is None


def _crt_lift(params, u):
    """The lift h_u of u: h_u = u mod p and h_u = 1 mod 8c^2 (Chinese remainders).

    Folding L_u = sum_{v<c} V(c h_u (r + 8vp), m) to level 4p, as the
    consolidation lemma (the ``consolidate`` suite) does, needs h_u prime to
    c = a a', which h_u = 1 mod 8c^2 gives; h_u = 1 mod 8a^2 would fix
    nothing mod a'.  p has an inverse mod 8c^2 since ``FamilyParams.build``
    refuses p | a'.
    """
    p, n = params.p, 8 * params.c * params.c
    return u + p * (((1 - u) * pow(p, -1, n)) % n)


def _old_lift(params, u):
    # the index lift before the Chinese-remainder fix; right only at a = 1
    return u + 5 * params.p * (1 - u)


def _triple_sum_oracle(params, trunc, lift):
    """thm51's left side term by term: one V-product per (u, v, w)."""
    a, p, c, m, r, eps = params.a, params.p, params.c, params.m, params.r, params.eps
    two_k = 2 * m * (m + 1)
    memo = {}

    def V(x):
        x %= two_k
        if x not in memo:
            memo[x] = v_func(x, m, trunc)
        return memo[x]

    total = None
    for u in range(1, (p - 1) // 2 + 1):
        hu = lift(params, u)
        for v in range(c):
            left = V(c * hu * (r + 8 * v * p))
            for w in range(c):
                term = left * V(c * hu * ((2 * a - eps * p) * r + 8 * w * p))
                total = term if total is None else total + term
    return total


@pytest.mark.parametrize("lift", [_crt_lift, _old_lift], ids=["crt", "old"])
@pytest.mark.parametrize("a,trunc", [(1, F(20)), (5, F(20)), (13, F(20))])
@pytest.mark.parametrize("eps", [0, 1])
def test_thm51_lhs_equals_triple_sum_oracle(a, trunc, eps, lift):
    # thm51_lhs is the triple sum under the CRT lift; the two lifts agree
    # mod 8c^2 p only at a = 1, and from a = 5 on the old lift's triple sum is
    # another series, so the oracle tells a wrong lift apart
    params = FamilyParams.build(a, 1, eps)
    got = thm51_lhs(params, trunc)
    want = _triple_sum_oracle(params, trunc, lift)
    assert got.trunc == want.trunc
    assert (got == want) == (lift is _crt_lift or a == 1)


def _per_u_oracle(params, trunc, lift=_crt_lift):
    """thm51's left side as the sum of one QSeries product L_u * R_u per u
    (the triple sum, multiplied out per u)."""
    a, p, c, m, r, eps = params.a, params.p, params.c, params.m, params.r, params.eps
    products = []
    for u in range(1, (p - 1) // 2 + 1):
        hu = lift(params, u)
        left = _v_sum((c * hu * (r + 8 * v * p) for v in range(c)), m, trunc)
        right = _v_sum((c * hu * ((2 * a - eps * p) * r + 8 * w * p) for w in range(c)), m, trunc)
        products.append(left * right)
    return sum(products, QSeries.zero(trunc))


@pytest.mark.parametrize(
    "a,r,eps",
    [(a, 1, eps) for a in (1, 5, 9, 13, 41) for eps in (0, 1)] + [(1, 3, 0), (1, 3, 1)],
)
def test_thm51_lhs_equals_per_u_product_oracle(a, r, eps):
    params = FamilyParams.build(a, r, eps)
    want = _per_u_oracle(params, F(20))
    # also cut exactly at the last exponent, which must be kept
    for T in (F(20), want.exponents()[-1]):
        got = thm51_lhs(params, T)
        want = _per_u_oracle(params, T)
        assert (got.denom, got.terms, got.trunc) == (want.denom, want.terms, want.trunc)


@pytest.mark.parametrize("a", [2, 3, 7, 8, 10, 19])
@pytest.mark.parametrize("eps", [0, 1])
def test_thm51_lhs_off_the_family(a, eps):
    # experimental members: even c (a = 2, 8, 10, where the eps = 0 side has
    # r' = 0 mod 4, so x and -x share a class and cancel), a = 3 mod 4
    # (3, 7, 19), and a' = 17 > 1 at a = 19 (4a^2 + 1 = 5 * 17^2)
    params = FamilyParams.build(a, 1, eps, experimental=True)
    assert thm51_lhs(params, F(20)) == _per_u_oracle(params, F(20))


@pytest.mark.parametrize("eps", [0, 1])
def test_old_lift_triple_sum_differs_at_a41(eps):
    # a' = 5 > 1: a wrong lift stays detectable where the lift matters most
    params = FamilyParams.build(41, 1, eps)
    assert _per_u_oracle(params, F(20), _old_lift) != thm51_lhs(params, F(20))


def test_thm51_index_is_the_crt_lift():
    for a in (1, 5, 9, 13, 41, 441):
        params = FamilyParams.build(a, 1, 0)
        n = 8 * params.c * params.c
        for u in range(1, (params.p - 1) // 2 + 1):
            h = _crt_lift(params, u)
            assert h % params.p == u % params.p and h % n == 1
            assert gcd(h, params.c) == 1


@pytest.mark.parametrize("a", [1, 5, 9, 13, 41])
def test_thm51_lhs_sums_whole_progressions(a):
    # bucket u holds exactly the points of L_u's (or R_u's) two whole
    # progressions under the CRT lift, +1 on x = h_u s and -1 on x = f h_u s
    # (mod 8p), and each x = s (mod 8) prime to p lies in one bucket only
    from raytheta.qseries import _theta_terms

    T = F(20)
    for eps in (0, 1):
        params = FamilyParams.build(a, 1, eps)
        p, c, m = params.p, params.c, params.m
        k, f, X = m * (m + 1), 2 * m + 1, isqrt(16 * params.p * 20)
        for s in (params.r, (2 * a - eps * p) * params.r):
            buckets = _bucket_by_u(s, p, X)
            # y -> -y maps the class of -s onto that of s, point for point
            assert _bucket_by_u(-s, p, X) == buckets
            assert set(buckets) <= set(range(1, (p - 1) // 2 + 1))
            placed = [(e, n) for terms in buckets.values() for e, n in terms.items()]
            points = [x * x for x in range(-X, X + 1) if x % 8 == s % 8 and x % p]
            # x -> x^2 is one-to-one on the class, as s is not 0 mod 4
            assert sorted(e for e, _ in placed) == sorted(points)
            assert all(n in (1, -1) for _, n in placed)
            for u in range(1, (p - 1) // 2 + 1):
                h = _crt_lift(params, u)
                start = c * h * s
                combo = [(sign, g * (start + j * 8 * c * p * h)) for j in range(c) for sign, g in ((1, 1), (-1, f))]
                want = {e: n for e, n in _theta_terms(combo, k, T).items() if n}
                assert {c * c * e: n for e, n in buckets.get(u, {}).items()} == want


def test_thm51_lhs_refuses_p_dividing_c_or_rprime():
    # FamilyParams.build never makes these, so the guard is reached only by
    # hand-built parameters
    params = FamilyParams.build(5, 1, 0)
    for bad in (replace(params, r=params.p), replace(params, c=params.p * params.c)):
        with pytest.raises(ValueError, match="no bucketing by u"):
            thm51_lhs(bad, F(2))


def test_consolidate_never_buckets_lattice_points(monkeypatch):
    # consolidate checks the lemma that the bucketing relies on, so it must
    # keep summing its c thetas one index at a time
    import raytheta.identities as ident

    def refuse(*args):
        raise AssertionError("bucketing called")

    monkeypatch.setattr(ident, "_bucket_by_u", refuse)
    reports = run_suite("consolidate")
    assert reports and all(r.passed for r in reports)
    with pytest.raises(AssertionError, match="bucketing called"):
        thm51_lhs(FamilyParams.build(1, 1, 0), F(2))


def test_thm51_fixed_members_pass_for_every_r():
    for a in (5, 13):
        for eps in (0, 1):
            for r in (1, 3, 5, 7, 9, 11, 13, 15):
                rep = thm51_check(a, r, eps, F(20))
                assert rep.passed, (a, r, eps, rep.first_mismatch)


def test_thm51_parameter_validation():
    with pytest.raises(ValueError):
        thm51_check(1, 2, 0, F(2))  # even r
    with pytest.raises(ValueError):
        thm51_check(1, 5, 0, F(2))  # r divisible by p
    with pytest.raises(ValueError):
        thm51_check(3, 1, 0, F(2))  # a = 3 mod 4 without the override
    with pytest.raises(ValueError):
        thm51_check(1, 1, 2, F(2))
    with pytest.raises(ValueError, match="divides a'"):
        thm51_check(341, 1, 0, F(2))  # 4a^2 + 1 = 5 * 305^2: p has no inverse mod 8c^2
    for a in (-3, 0):  # -3 % 4 == 1, so a sign check must come first
        for experimental in (False, True):
            with pytest.raises(ValueError, match="positive"):
                thm51_check(a, 1, 0, F(2), experimental)


def test_thm51_builds_one_group_per_eps(monkeypatch):
    import raytheta.identities as ids
    import raytheta.rayclass as rc

    built = []
    real = rc.RayClassGroup.__init__

    def counting(self, Fc):
        built.append(Fc.key)
        real(self, Fc)

    monkeypatch.setattr(rc.RayClassGroup, "__init__", counting)
    ids._thm51_conductor.cache_clear()
    assert all(rep.passed for rep in run_suite("thm51"))
    for a, eps in ((5, 0), (5, 1), (13, 0), (13, 1)):
        assert thm51_check(a, 7, eps, F(20)).passed
    assert sorted(built) == sorted(ids._thm51_conductor(eps).key for eps in (0, 1))


def _fresh_conductor_rhs(params, trunc):
    """thm51's right side with a conductor, and so a ray class group, of its own."""
    k1 = field(-1)
    Fc = Conductor(split_prime(k1, 2).prime.pow(6 - params.eps))
    r_elt = k1.elem(params.r)
    combo = ClassCombo([(1, ray_class(r_elt, Fc)), (-1, ray_class(r_elt * k1.elem(1, 4), Fc))])
    return ray_theta(combo, F(2 ** (4 - params.eps)), trunc)


def test_thm51_rows_match_fresh_conductor_oracle():
    # rows after rows on the shared conductors: same right side, same verdict
    # and the same first mismatch as with a conductor built for the row alone
    T, failing = F(20), set()
    for a in (1, 5, 9, 13, 41):
        for eps in (0, 1):
            for r in (1, 3, 5, 7):
                if (a, r) == (1, 5):  # p = 5 divides r
                    continue
                params = FamilyParams.build(a, r, eps)
                want = _fresh_conductor_rhs(params, T)
                got = thm51_rhs(params, T)
                assert (got.denom, got.terms, got.trunc) == (want.denom, want.terms, want.trunc)
                rep = thm51_check(a, r, eps, T)
                assert (rep.passed, rep.first_mismatch) == equals_to_order(thm51_lhs(params, T), want, T)
                if not rep.passed:
                    failing.add((a, eps))
    # a' = 5 (mod 8) at eps = 0: the FAIL rows are compared too
    assert failing == {(9, 0), (41, 0)}


def test_thm51_experimental_override_runs():
    params = FamilyParams.build(3, 1, 0, experimental=True)
    assert (params.p, params.aprime) == (37, 1)


def test_consolidate_fixtures():
    assert consolidate(99, 6, 1, 1, 242, F(10)).passed
    for r in (1, -2, -5):
        assert consolidate(195, 12, 1, r, 675, F(10)).passed


def test_consolidate_242_sum_is_eta():
    V = _VCache(F(10))
    total = sum((V(99 * (1 + 12 * j), 242) for j in range(99)), QSeries.zero(F(10)))
    ok, mism = equals_to_order(total, eta(F(10)), F(10))
    assert ok, mism


def test_consolidate_675_rhs_is_level3_v():
    from raytheta.qseries import theta_gen

    for r in (1, -2, -5):
        rhs = theta_gen(r, 12, F(10)) - theta_gen(r * 1351, 12, F(10))
        ok, mism = equals_to_order(rhs, v_func(r, 3, F(10)), F(10))
        assert ok, mism


def test_consolidate_trivial_c():
    assert consolidate(1, 12, 5, 1, 3, F(10)).passed


def test_consolidate_random_valid_tuples():
    import random

    rng = random.Random(3)
    done = vacuous = 0
    while done < 25:
        m = rng.choice([2, 3, 4, 5, 8, 14, 20])
        k = m * (m + 1)
        # pick a square divisor c^2 of k
        cs = [c for c in range(1, 15) if k % (c * c) == 0]
        c = rng.choice(cs)
        b = rng.choice([t for t in range(1, 8) if __import__("math").gcd(t, c) == 1])
        r = rng.randint(-10, 10)
        kp = k // (c * c)
        # theta(l, k') leads at q^(k'/4) or below, so the theta form compares a
        # term; the V form theta(br, k') - theta(br(2m+1), k') is identically
        # zero exactly when br(2m+1) = +-br mod 2k', and is then refused
        T = max(F(8), F(kp, 4))
        x, y = b * r, b * r * (2 * m + 1)
        if (x - y) % (2 * kp) and (x + y) % (2 * kp):
            assert consolidate(c, kp, b, r, m, T).passed
            done += 1
        else:
            with pytest.raises(ValueError, match="compares nothing in check 'V form failed'"):
                consolidate(c, kp, b, r, m, T)
            vacuous += 1
    assert vacuous
    # br(2m + 1) = 27 = -9 mod 24: the V form is 0 = 0 at every truncation
    for T in (F(10), F(400)):
        with pytest.raises(ValueError, match="compares nothing in check 'V form failed'"):
            consolidate(1, 12, 3, 9, 3, T)


def test_consolidate_rejects_bad_divisibility():
    with pytest.raises(ValueError):
        consolidate(175, 12, 1, 1, 675, F(4))
    with pytest.raises(ValueError):
        consolidate(6, 2, 3, 1, 8, F(4))


def test_pell_first_two_levels():
    sols = pell_levels(2)
    assert [(s.m, s.c) for s in sols] == [(675, 195), (131043, 37829)]
    assert all(s.verify() for s in sols)


def test_pell_reports_pass():
    assert all(r.passed for r in pell_reports(2))


def test_pell_companion_family():
    # levels with m(m+1) = 6 c^2 feed the same consolidation at k' = 6
    assert 242 * 243 == 6 * 99**2
    assert 23762 * 23763 == 6 * 9701**2


def test_pell_typo_guard():
    assert not PellSolution(675, 175).verify()
    assert PellSolution(675, 195).verify()


def test_search_recovers_known_relations():
    rels = search_relations(idp1_pool(F(16)))
    assert len(rels) == 3
    want = [
        {"L1": 1, "R11": -1, "R12": 1},
        {"L2": 1, "R21": -1, "R22": 1},
        {"L3": 1, "R31": -1, "R32": 1},
    ]
    got = [r["coeffs"] for r in rels]
    for w in want:
        assert w in got or {k: -v for k, v in w.items()} in got
    assert all(r["status"] == "CANDIDATE" for r in rels)


def test_search_single_series_no_relation():
    cfg = SearchConfig.from_products([("only", [(1, 2)])], F(10))
    assert search_relations(cfg) == []


def test_search_refuses_pool_series_that_compare_nothing():
    # each series below the truncation is a one-term "relation" on its own
    with pytest.raises(ValueError, match="in pool series VV2: they compare nothing"):
        search_relations(id24_pool(F(1)))
    with pytest.raises(ValueError, match="in pool series L1, L2, L3, R11, R12, R21, R22, R31, R32: "):
        search_relations(idp1_pool(F(1, 20)))


def test_search_id24_family():
    rels = search_relations(id24_pool(F(16)))
    assert len(rels) == 1
    coeffs = rels[0]["coeffs"]
    assert sorted(coeffs) == ["L", "VV1", "VV2"]
    sign = coeffs["L"]
    assert coeffs["VV1"] == -sign and coeffs["VV2"] == -sign


def _fraction_kernel(rows, n):
    """Gauss-Jordan elimination over Q: the kernel basis the search used to take."""
    rows = [[F(x) for x in row] for row in rows if any(x != 0 for x in row)]
    pivots = []
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
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [F(0)] * n
        v[fc] = F(1)
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


@st.composite
def planted_matrices(draw):
    """Random integer rows plus integer combinations of them, shuffled."""
    n = draw(st.integers(1, 9))
    entry = st.one_of(st.just(0), st.integers(-6, 6))
    base = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=n))
    mix = st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base))
    planted = [
        [sum(k * row[j] for k, row in zip(ks, base)) for j in range(n)]
        for ks in draw(st.lists(mix, max_size=8))
    ]
    return draw(st.permutations(base + planted)), n


@settings(max_examples=200, deadline=None)
@given(planted_matrices())
def test_integer_kernel_equals_fraction_oracle(matrix):
    rows, n = matrix
    kept = [row[:] for row in rows]
    assert _integer_kernel(rows, n) == _fraction_kernel(rows, n)
    assert rows == kept


@pytest.mark.parametrize("pool,relations", [(idp1_pool, 3), (id24_pool, 1)], ids=["idp1", "id24"])
def test_search_kernel_equals_fraction_oracle_on_real_matrix(pool, relations, monkeypatch):
    import raytheta.identities as ident

    seen = []

    def recording(rows, n):
        rows = list(rows)
        seen.append((rows, n))
        return _integer_kernel(rows, n)

    monkeypatch.setattr(ident, "_integer_kernel", recording)
    cfg = pool(F(60))
    rels = search_relations(cfg)
    [(rows, n)] = seen
    kernel = _integer_kernel(rows, n)
    assert kernel == _fraction_kernel(rows, n)
    assert len(rels) == len(kernel) == relations
    # the size guard counts exactly the cells of this matrix
    entries = len(rows) * n
    assert search_relations(replace(cfg, max_matrix_entries=entries)) == rels
    with pytest.raises(ValueError, match="size guard"):
        search_relations(replace(cfg, max_matrix_entries=entries - 1))


def test_search_rejects_negative_max_coeff():
    with pytest.raises(ValueError, match="max coefficient"):
        SearchConfig.from_products([("x", [(1, 2)])], F(10), max_coeff=-1)
    assert search_relations(replace(idp1_pool(F(16)), max_coeff=0)) == []


def test_search_size_guard():
    cfg = SearchConfig.from_products([("x", [(1, 2)])], F(10))
    cfg = SearchConfig(pool=cfg.pool, trunc=cfg.trunc, max_coeff=9, max_matrix_entries=1)
    with pytest.raises(ValueError):
        search_relations(cfg)


@pytest.mark.parametrize("suite", ["id1", "id2", "relations55", "thm51", "consolidate", "pell"])
def test_negative_controls_fail(suite):
    rep = negative_control(suite, F(8))
    assert not rep.passed
    assert rep.first_mismatch is not None


def test_run_suite_registry():
    reports = run_suite("id1", F(8))
    assert len(reports) == 3
    with pytest.raises(KeyError):
        run_suite("nosuch")
    # an option is passed only to a suite that takes it
    with pytest.raises(ValueError, match="takes no option bound"):
        run_suite("id1", F(8), bound=10)
    with pytest.raises(ValueError, match="takes no option r"):
        run_suite("pell", count=1, r=3)
    # pell rows are exact integer checks: a truncation is an option it does not take
    with pytest.raises(ValueError, match="suite pell takes no option trunc"):
        run_suite("pell", F(5))
    assert [rep.trunc for rep in run_suite("pell")] == [0, 0]
    assert [rep.params["r"] for rep in run_suite("thm51", F(4), r=3)] == [3]


def test_stability_under_raised_truncation():
    # PASS suites stay PASS when the comparison range doubles
    assert all(r.passed for r in verify_id1(F(24)))
    assert all(r.passed for r in verify_id2(F(24)))
    assert thm51_check(1, 1, 0, F(24)).passed
    assert all(r.passed for r in verify_relations55(F(40)))


def test_sec54_stable_at_raised_truncation():
    from raytheta.identities import verify_sec54

    # ideal norms to 1440 instead of the acceptance gate's 960
    assert all(r.passed for r in verify_sec54(F(6)))


def _conductor_4p2():
    return conductor_of(field(-2).elem(0, 4))


def _ray_class_4p2():
    return ray_class(1, _conductor_4p2())


def _descent_args_4p2():
    """F, P, J, B and T of the Q[sqrt(-2)] descent fixture."""
    Fc, K2 = _conductor_4p2(), field(-2)
    A, S = compute_skew_sets(CharacterPsi(-2, -1), Fc)
    return Fc, split_prime(K2, 3).prime, K2.maximal_order, A, S


GAUSS_BASIS = [(1, 0), (0, 1)]

# public entry points that take a truncation, scale, coefficient or coordinate
FLOAT_CALLS = {
    "id1": lambda: verify_id1(6.0),
    "id2": lambda: verify_id2(6.0),
    "vcache": lambda: _VCache(6.0),
    "consolidate": lambda: consolidate(99, 6, 1, 1, 242, 10.0),
    "run_suite": lambda: run_suite("id2", 0.1),
    "run_suite_pell": lambda: run_suite("pell", 1.0),
    "search": lambda: search_regression(16.0),
    "negative_control": lambda: negative_control("id1", 8.0),
    "thm51": lambda: thm51_check(1, 1, 0, 4.0),
    "relations55": lambda: verify_relations55(8.0),
    "report_builder": lambda: ReportBuilder(2.5),
    "theta_lincomb_trunc": lambda: theta_lincomb([(1, 1)], 6, 2.0),
    "theta_lincomb_coeff": lambda: theta_lincomb([(1.0, 1)], 6, 2),
    "ray_theta_both": lambda: ray_theta(_ray_class_4p2(), 16.0, 2.5),
    "ray_theta_trunc": lambda: ray_theta(_ray_class_4p2(), 16, 2.5),
    "ray_theta_scale": lambda: ray_theta(_ray_class_4p2(), 16.0, 2),
    "coset_direct_trunc": lambda: coset_theta_direct(product_to_coset(1, 4, 4, 40), 2.5),
    "coset_raw_scale": lambda: theta_coset_raw(field(-1), (0, 0), GAUSS_BASIS, 2.5, 4),
    "coset_raw_offset": lambda: theta_coset_raw(field(-1), (0.5, 0), GAUSS_BASIS, 2, 4),
    "coset_raw_basis": lambda: theta_coset_raw(field(-1), (0, 0), [(1.0, 0), (0, 1)], 2, 4),
    "coset_raw_rank1": lambda: theta_coset_raw(field(-1), (0, 0), [(2, 0.0)], 2, 4),
    "decompose_offset": lambda: decompose_coset(field(-1), (0.5, 0), GAUSS_BASIS, [(2, 0), (0, 2)]),
    "decompose_sublattice": lambda: decompose_coset(field(-1), (0, 0), GAUSS_BASIS, [(2.0, 0), (0, 2)]),
    "field": lambda: field(-7.0),
    "field_class": lambda: Field(-7.0),
    "elem_x": lambda: field(-2).elem(1.5, 0),
    "elem_y": lambda: field(-2).elem(1, 2.0),
    "split_prime": lambda: split_prime(field(-5), 5.0),
    "enumerate_ideals": lambda: enumerate_ideals(field(-1), 10.0),
    "pell_levels": lambda: pell_levels(2.0),
    "ideal_scaled": lambda: field(-5).maximal_order.scaled(0.5),
    "conductor_of": lambda: conductor_of(4.0, field(-5)),
    "factorint": lambda: factorint(12.0),
    "series_scaled": lambda: theta_gen(1, 3, 4).scaled(2.5),
    "series_coeff": lambda: QSeries(1, {1: 1.5}, 2),
    "series_denom": lambda: QSeries(2.0, {}, 2),
    "coset_spec": lambda: CosetSpec(**{**vars(product_to_coset(1, 4, 4, 40)), "d": 2.5}),
    "ray_theta_spec_scale": lambda: RayThetaSpec(_ray_class_4p2(), 2.5, 1),
    "ray_theta_spec_weight": lambda: RayThetaSpec(_ray_class_4p2(), 16, 1.0),
    "theta_gen": lambda: theta_gen(1, 6, 2.0),
    "eta": lambda: eta(2.0),
    "v_func": lambda: v_func(1, 3, 2.0),
    "virasoro_char": lambda: virasoro_char(1, 1, 3, 2.0),
    "equals_to_order": lambda: equals_to_order(eta(2), eta(2), 1.0),
    "sec54": lambda: verify_sec54(4.0),
    "class_combo": lambda: ClassCombo([(1.5, _ray_class_4p2())]),
    "class_combo_sum_of": lambda: ClassCombo.sum_of([_ray_class_4p2()], coeff=1.5),
    "ray_class": lambda: ray_class(3.0, _conductor_4p2()),
    "crt_class": lambda: crt_class([(split_prime(field(-2), 3).prime, 1.0)]),
    "skew_sets_bound": lambda: compute_skew_sets(CharacterPsi(-2, -1), _conductor_4p2(), 960.0),
    "character_psi": lambda: CharacterPsi(-2.0, -1),
    "psi_conductor": lambda: psi_conductor(-2.0, -1),
    "product_to_coset": lambda: product_to_coset(1.0, 4, 4, 40),
    "cross_field": lambda: check_cross_field(
        -2, -1, _conductor_4p2(), conductor_of(field(-1).elem(8)),
        field(-2).maximal_order, field(-1).maximal_order, 16, 2.0,
    ),
    "descent": lambda: check_descent(*_descent_args_4p2(), 16, 2.0),
    "search_max_coeff": lambda: SearchConfig.from_products([("L1", [(1, 2), (1, 3)])], max_coeff=2.5),
    "family_params": lambda: FamilyParams.build(5, 1.0, 0),
}

# public callables that take no number, so no FLOAT_CALLS entry can exist
TAKE_NO_NUMBER = (
    "ClosureError", "ExactDivisionError", "NotCoprimeError", "SkewOverlapError",
    "Conductor", "RayClassRef", "admissible", "class_group_reps", "class_number",
    "coset_to_rayclass", "divide_by_unit", "factor_ideal", "ideal_from_gens",
    "is_principal", "lift_classes", "principal_ideal", "reduce_class",
    "same_ray_class", "search_relations", "split_coset", "units_mod_conductor",
    "valuation",
)
# value types that store their fields as given: the checked entry points build
# them (Field.elem, split_prime, pell_levels, the suites), and QuadInt is built
# in the innermost loops
UNCHECKED_VALUES = ("QuadInt", "PellSolution", "SplitRecord", "VerificationReport")


@pytest.mark.parametrize("call", list(FLOAT_CALLS.values()), ids=list(FLOAT_CALLS))
def test_identities_reject_float_truncations(call):
    with pytest.raises(TypeError):
        call()


def _rejecting_name(call, owners):
    """The public name whose code a FLOAT_CALLS entry called directly and got
    its TypeError from (a class counts through any of its methods)."""
    with pytest.raises(TypeError) as info:
        call()
    tb = info.tb
    while tb.tb_frame.f_code is not call.__code__:
        tb = tb.tb_next
    return owners.get(tb.tb_next.tb_frame.f_code)


def test_float_calls_cover_every_public_callable():
    import raytheta

    owners = {}
    for name in raytheta.__all__:
        obj = getattr(raytheta, name)
        if isinstance(obj, type):
            for attr in vars(obj).values():
                code = getattr(getattr(attr, "__func__", attr), "__code__", None)
                if code is not None:
                    owners[code] = name
        elif callable(obj):
            owners[obj.__code__] = name
    public = {name for name in raytheta.__all__ if callable(getattr(raytheta, name))}
    checked = {_rejecting_name(call, owners) for call in FLOAT_CALLS.values()} - {None}
    exempt = set(TAKE_NO_NUMBER) | set(UNCHECKED_VALUES)
    assert public - checked == exempt
    assert not checked & exempt


def test_enumerate_ideals_rejects_float_bound_up_front():
    # a float bound used to fail inside the prime sieve, with an unrelated
    # "can't multiply sequence" TypeError
    with pytest.raises(TypeError, match="bound must be an int"):
        FLOAT_CALLS["enumerate_ideals"]()


def test_sec54_builds_one_group_per_conductor(monkeypatch):
    import raytheta.identities as ids
    import raytheta.rayclass as rc

    built = []
    real = rc.RayClassGroup.__init__

    def counting(self, F):
        built.append(F.key)
        real(self, F)

    monkeypatch.setattr(rc.RayClassGroup, "__init__", counting)
    assert all(r.passed for r in ids.verify_sec54(F(2)))
    assert sorted(built) == sorted({ids._sqrt30_data()[1].key, ids._sqrt10_data()[1].key})

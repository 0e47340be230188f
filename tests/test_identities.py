"""The verification suites at working truncations, plus their mutations."""

from fractions import Fraction as F

import pytest

from raytheta.identities import (
    FamilyParams,
    _VCache,
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
    thm51_index,
    thm51_lhs,
    thm51_vv_form,
    verify_id1,
    verify_id2,
    verify_relations55,
)
from raytheta.bridge import coset_theta_direct, decompose_coset, product_to_coset, theta_coset_raw
from raytheta.qseries import equals_to_order, eta, series_sum, theta_lincomb, v_func
from raytheta.quadfield import Field, field
from raytheta.rayclass import conductor_of, ray_class, ray_theta
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


@pytest.mark.parametrize("lift", [thm51_index, _old_lift], ids=["crt", "old"])
@pytest.mark.parametrize("a,trunc", [(1, F(20)), (5, F(20)), (13, F(4))])
@pytest.mark.parametrize("eps", [0, 1])
def test_thm51_lhs_equals_triple_sum_oracle(a, trunc, eps, lift, monkeypatch):
    import raytheta.identities as ident

    monkeypatch.setattr(ident, "thm51_index", lift)
    params = FamilyParams.build(a, 1, eps)
    got = thm51_lhs(params, trunc)
    want = _triple_sum_oracle(params, trunc, lift)
    assert (got.denom, got.terms, got.trunc) == (want.denom, want.terms, want.trunc)


def test_thm51_index_is_the_crt_lift():
    for a in (1, 5, 9, 13):
        params = FamilyParams.build(a, 1, 0)
        n = 8 * a * a
        for u in range(1, (params.p - 1) // 2 + 1):
            h = thm51_index(params, u)
            assert h % params.p == u % params.p and h % n == 1


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


def test_thm51_experimental_override_runs():
    params = FamilyParams.build(3, 1, 0, experimental=True)
    assert (params.p, params.aprime) == (37, 1)


def test_consolidate_fixtures():
    assert consolidate(99, 6, 1, 1, 242, F(10)).passed
    for r in (1, -2, -5):
        assert consolidate(195, 12, 1, r, 675, F(10)).passed


def test_consolidate_242_sum_is_eta():
    V = _VCache(F(10))
    total = series_sum(V(99 * (1 + 12 * j), 242) for j in range(99))
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
    done = 0
    while done < 25:
        m = rng.choice([2, 3, 4, 5, 8, 14, 20])
        k = m * (m + 1)
        # pick a square divisor c^2 of k
        cs = [c for c in range(1, 15) if k % (c * c) == 0]
        c = rng.choice(cs)
        b = rng.choice([t for t in range(1, 8) if __import__("math").gcd(t, c) == 1])
        r = rng.randint(-10, 10)
        assert consolidate(c, k // (c * c), b, r, m, F(8)).passed
        done += 1


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


def test_search_id24_family():
    rels = search_relations(id24_pool(F(16)))
    assert len(rels) == 1
    coeffs = rels[0]["coeffs"]
    assert sorted(coeffs) == ["L", "VV1", "VV2"]
    sign = coeffs["L"]
    assert coeffs["VV1"] == -sign and coeffs["VV2"] == -sign


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


def _ray_class_4p2():
    return ray_class(1, conductor_of(field(-2).elem(0, 4)))


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
    "decompose_rank1": lambda: decompose_coset(field(-1), (0, 0), [(1, 0.0)], [(3, 0)]),
    "field": lambda: field(-7.0),
    "field_class": lambda: Field(-7.0),
    "elem_x": lambda: field(-2).elem(1.5, 0),
    "elem_y": lambda: field(-2).elem(1, 2.0),
}


@pytest.mark.parametrize("call", list(FLOAT_CALLS.values()), ids=list(FLOAT_CALLS))
def test_identities_reject_float_truncations(call):
    with pytest.raises(TypeError):
        call()

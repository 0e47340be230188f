"""Series arithmetic against independent oracles and frozen expansions."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from raytheta.qseries import (
    ExactDivisionError,
    QSeries,
    divide_by_unit,
    equals_to_order,
    eta,
    theta_gen,
    theta_lincomb,
    v_func,
    virasoro_char,
)


def euler_product_eta(trunc) -> QSeries:
    """Oracle: q^(1/24) * prod_{n=1}^{N} (1 - q^n) expanded term by term."""
    T = F(trunc)
    N = int(T) + 1
    poly = {0: 1}
    for n in range(1, N + 1):
        out = dict(poly)
        for e, c in poly.items():
            if e + n <= T:
                out[e + n] = out.get(e + n, 0) - c
        poly = {e: c for e, c in out.items() if c}
    return QSeries.from_exponents({F(24 * e + 1, 24): c for e, c in poly.items()}, T)


def brute_theta_product(l1, k1, l2, k2, trunc) -> QSeries:
    """Oracle: double lattice sum for theta(l1,k1)*theta(l2,k2)."""
    T = F(trunc)
    terms: dict[F, int] = {}
    rng = int(T) + abs(l1) + abs(l2) + k1 + k2 + 2
    for n in range(-rng, rng + 1):
        e1 = F((2 * k1 * n + l1) ** 2, 4 * k1)
        if e1 > T:
            continue
        for m in range(-rng, rng + 1):
            e2 = F((2 * k2 * m + l2) ** 2, 4 * k2)
            e = e1 + e2
            if e <= T:
                terms[e] = terms.get(e, 0) + 1
    return QSeries.from_exponents(terms, T)


# -- constructors and representation ---------------------------------------


def test_theta_1_6_expansion():
    t = theta_gen(1, 6, 8)
    assert t.to_json_dict()["terms"] == [[1, 1], [121, 1], [169, 1]]
    assert t.denom == 24


def test_theta_0_1_expansion():
    t = theta_gen(0, 1, 9)
    assert dict(t.items()) == {F(0): 1, F(1): 2, F(4): 2, F(9): 2}


def test_theta_rejects_bad_level():
    with pytest.raises(ValueError):
        theta_gen(1, 0, 5)


def test_zero_series_normalizes():
    assert QSeries(7, {3: 0}, 2).denom == 1
    assert QSeries.zero(5).is_zero()


def test_denominator_is_reduced():
    s = QSeries(8, {2: 1, 6: -1}, 3)
    assert s.denom == 4 and s.terms == {1: 1, 3: -1}


def test_json_round_trip():
    t = theta_gen(5, 6, 30)
    assert QSeries.from_json_dict(t.to_json_dict()) == t


# -- eta and V --------------------------------------------------------------


def test_eta_equals_euler_product():
    for T in (8, 20, F(101, 4)):
        ok, mismatch = equals_to_order(eta(T), euler_product_eta(T), T)
        assert ok, mismatch


def test_eta_leading_coefficient():
    assert eta(8).coeff(F(1, 24)) == 1


def test_eta_frozen_pentagonal_signs():
    e = eta(8)
    expect = {F(1, 24): 1, F(25, 24): -1, F(49, 24): -1, F(121, 24): 1, F(169, 24): 1}
    assert dict(e.items()) == expect


def test_eta_is_v_1_2():
    assert eta(15) == v_func(1, 2, 15)


@pytest.mark.parametrize("ell,k", [(0, 1), (1, 6), (5, 6), (3, 4), (-7, 12), (11, 20)])
def test_theta_symmetry(ell, k):
    T = 18
    t = theta_gen(ell, k, T)
    assert t == theta_gen(-ell, k, T)
    assert t == theta_gen(ell + 2 * k, k, T)


def test_v_symmetries():
    T = 16
    for r, m in [(1, 2), (2, 3), (5, 4), (-7, 5), (11, 6)]:
        v = v_func(r, m, T)
        assert v == v_func(-r, m, T)
        for k in (1, -2):
            assert v == v_func(r + 2 * k * m * (m + 1), m, T)
        assert v_func(r * (2 * m + 1), m, T) == -v


def test_v_vanishing_index():
    for m in (2, 3, 4):
        assert v_func(m * (m + 1), m, 12).is_zero()


def test_v_rejects_small_m():
    with pytest.raises(ValueError):
        v_func(1, 1, 4)


# -- lattice-sum kernel and one-dict sums ----------------------------------


def brute_theta(ell, k, trunc) -> QSeries:
    """Oracle: theta(ell, k) by direct lattice enumeration with exact exponents."""
    T = F(trunc)
    rng = int(T) + abs(ell) // (2 * k) + 2
    terms: dict[F, int] = {}
    for n in range(-rng, rng + 1):
        e = F((2 * k * n + ell) ** 2, 4 * k)
        if e <= T:
            terms[e] = terms.get(e, 0) + 1
    return QSeries.from_exponents(terms, T)


truncations = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(0, 40), st.integers(1, 6)),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-60, 60)), min_size=1, max_size=6),
    st.integers(1, 20),
    truncations,
)
def test_theta_lincomb_is_signed_sum_of_thetas(combo, k, T):
    got = theta_lincomb(combo, k, T)
    want = sum((theta_gen(ell, k, T).scaled(c) for c, ell in combo), QSeries.zero(T))
    assert got == want
    assert want == sum((brute_theta(ell, k, T).scaled(c) for c, ell in combo), QSeries.zero(T))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 60),
    st.dictionaries(st.integers(-500, 500), st.integers(-3, 3), max_size=30),
    st.builds(F, st.integers(-60, 200), st.integers(1, 40)),
)
def test_init_keeps_the_terms_of_the_cross_multiplied_bound(denom, terms, T):
    # the one-bound filter n <= floor(T * denom) against the old predicate
    # n * T.denominator <= T.numerator * denom, negative exponents included
    s = QSeries(denom, terms, T)
    want = {
        F(n, denom): c
        for n, c in terms.items()
        if c != 0 and n * T.denominator <= T.numerator * denom
    }
    assert dict(s.items()) == want and s.trunc == T


@pytest.mark.parametrize("ell,k,T", [(0, 1, 0), (1, 6, 0), (0, 1, F(1, 2)), (-7, 12, F(49, 48)), (13, 6, 10)])
def test_theta_gen_matches_brute_force(ell, k, T):
    assert theta_gen(ell, k, T) == brute_theta(ell, k, T)


# -- ring operations --------------------------------------------------------


def test_add_neg_cancels():
    a = theta_gen(1, 6, 9)
    assert (a + (-a)).is_zero()


def test_scaled_takes_only_int_factors():
    a = theta_gen(1, 3, 4)
    assert a.scaled(2).terms == {25: 2, 1: 2}
    for k in (2.5, F(5, 2), F(2)):
        with pytest.raises(TypeError):
            a.scaled(k)


def test_constructor_takes_only_int_coefficients():
    # floats that cancel, a Fraction equal to an int and a term beyond the
    # truncation are refused too
    for terms in ({1: 1.5, 2: -1.5}, {1: F(2)}, {1: 1, 99: 0.5}):
        with pytest.raises(TypeError, match="coefficients"):
            QSeries(1, terms, 2)
    with pytest.raises(TypeError, match="denominator"):
        QSeries(F(2), {1: 1}, 2)


def test_mul_identity():
    a = theta_gen(1, 6, 9)
    assert a * QSeries.one(9) == a


def test_mul_matches_double_sum_oracle():
    T = F(25, 2)
    got = theta_gen(1, 6, T) * theta_gen(1, 12, T)
    ok, mismatch = equals_to_order(got, brute_theta_product(1, 6, 1, 12, T), T)
    assert ok, mismatch


@pytest.mark.parametrize("l1,k1,l2,k2", [(0, 1, 0, 1), (3, 4, 2, 5), (-5, 6, 7, 9)])
def test_mul_oracle_more_levels(l1, k1, l2, k2):
    T = F(10)
    got = theta_gen(l1, k1, T) * theta_gen(l2, k2, T)
    ok, mismatch = equals_to_order(got, brute_theta_product(l1, k1, l2, k2, T), T)
    assert ok, mismatch


sparse_series = st.builds(
    lambda denom, terms, trunc: QSeries(denom, terms, trunc),
    st.sampled_from([1, 2, 3, 4, 6, 24]),
    st.dictionaries(st.integers(min_value=0, max_value=60), st.integers(-9, 9), max_size=6),
    st.sampled_from([F(10), F(25, 2), F(60)]),
)


@settings(max_examples=200, deadline=None)
@given(sparse_series, sparse_series)
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=200, deadline=None)
@given(sparse_series, sparse_series, sparse_series)
def test_mul_associates_and_distributes(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, deadline=None)
@given(sparse_series)
def test_divide_round_trip_by_eta(a):
    e = eta(a.trunc)
    q = divide_by_unit(a * e, e)
    ok, mismatch = equals_to_order(q, a, q.trunc)
    assert ok, mismatch


def test_divide_eta_by_itself():
    e = eta(20)
    q = divide_by_unit(e, e)
    assert q.coeff(0) == 1 and len(q) == 1


def test_divide_detects_non_exact():
    two = QSeries.one(5).scaled(2)
    with pytest.raises(ExactDivisionError):
        divide_by_unit(QSeries.one(5) + QSeries(1, {1: 1}, 5), two + QSeries(1, {1: 1}, 5))


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divide_by_unit(eta(5), QSeries.zero(5))


def test_divide_nonmonic_exact_case():
    a = QSeries(1, {0: 3, 1: -6, 2: 9}, 6)
    d = QSeries(1, {0: 3, 1: 3}, 6)
    q = divide_by_unit(a, d)
    ok, _ = equals_to_order(q * d, a, q.trunc)
    assert ok


# -- Virasoro characters -----------------------------------------------------


def test_virasoro_vacuum_leading_term():
    chi = virasoro_char(1, 1, 3, 10)
    assert chi.min_exponent() == F(-1, 48)
    assert chi.coeff(F(-1, 48)) == 1


def test_virasoro_diagonal_is_v_over_eta():
    T = F(14)
    for r, m in [(1, 3), (2, 3), (2, 4), (3, 5)]:
        lhs = virasoro_char(r, r, m, T) * eta(T)
        ok, mismatch = equals_to_order(lhs, v_func(r, m, T), T - F(1, 24))
        assert ok, (r, m, mismatch)


def test_virasoro_off_diagonal_identity():
    T = F(12)
    for r, s, m in [(2, 1, 3), (3, 2, 4), (4, 2, 5)]:
        lhs = virasoro_char(r, s, m, T) * eta(T)
        rhs = v_func(r * (m + 1) - s * m, m, T)
        ok, mismatch = equals_to_order(lhs, rhs, T - F(1, 24))
        assert ok, (r, s, m, mismatch)


def test_virasoro_equals_divide_by_unit():
    q = divide_by_unit(v_func(1, 3, 12), eta(12))
    chi = virasoro_char(1, 1, 3, 12 - F(1, 24))
    ok, mismatch = equals_to_order(q, chi, min(q.trunc, chi.trunc))
    assert ok, mismatch


def _fermion_half_product(sign, T):
    """prod_{n>=1} (1 + sign*q^(n-1/2)) expanded exactly to order T+1."""
    poly = {F(0): 1}
    n = 1
    while F(2 * n - 1, 2) <= T + 1:
        e = F(2 * n - 1, 2)
        nxt = dict(poly)
        for ee, c in poly.items():
            if ee + e <= T + 1:
                nxt[ee + e] = nxt.get(ee + e, 0) + sign * c
        poly = {k: v for k, v in nxt.items() if v}
        n += 1
    return poly


def test_level3_characters_match_free_fermion_oracles():
    # the three level-3 characters have classical product forms; all three
    # must agree with the theta-quotient route coefficient by coefficient
    T = F(12)
    plus = _fermion_half_product(1, T)
    minus = _fermion_half_product(-1, T)
    for s, chi in ((1, virasoro_char(1, 1, 3, T)), (-1, virasoro_char(2, 1, 3, T))):
        expect: dict = {}
        for src, sg in ((plus, 1), (minus, s)):
            for e, c in src.items():
                key = e - F(1, 48)
                expect[key] = expect.get(key, 0) + sg * c
        oracle = QSeries.from_exponents({e: c // 2 for e, c in expect.items() if c}, T)
        ok, mismatch = equals_to_order(chi, oracle, T - 1)
        assert ok, mismatch

    poly = {F(0): 1}
    n = 1
    while n <= T + 1:
        nxt = dict(poly)
        for ee, c in poly.items():
            if ee + n <= T + 1:
                nxt[ee + n] = nxt.get(ee + n, 0) + c
        poly = {k: v for k, v in nxt.items() if v}
        n += 1
    oracle = QSeries.from_exponents({e + F(1, 16) - F(1, 48): c for e, c in poly.items()}, T)
    ok, mismatch = equals_to_order(virasoro_char(2, 2, 3, T), oracle, T - 1)
    assert ok, mismatch


def test_virasoro_rejects_bad_indices():
    with pytest.raises(ValueError):
        virasoro_char(2, 3, 4, 8)
    with pytest.raises(ValueError):
        virasoro_char(4, 1, 4, 8)


# -- comparison --------------------------------------------------------------


def test_equals_self_any_order():
    a = theta_gen(1, 6, 11)
    ok, mismatch = equals_to_order(a, a, 11)
    assert ok and mismatch is None


def test_first_mismatch_reported():
    ok, mismatch = equals_to_order(theta_gen(1, 6, 5), theta_gen(5, 6, 5), 2)
    assert not ok
    assert mismatch == (F(1, 24), 1, 0)


def test_shifted_theta_agrees():
    ok, _ = equals_to_order(theta_gen(1, 6, 10), theta_gen(13, 6, 10), 10)
    assert ok


def test_equals_refuses_beyond_truncation():
    with pytest.raises(ValueError):
        equals_to_order(theta_gen(1, 6, 5), theta_gen(1, 6, 9), 7)

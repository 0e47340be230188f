"""Coset thetas against the series oracle, and the two reduction theorems."""

import random
from math import isqrt
from fractions import Fraction as F

import pytest

from raytheta.bridge import (
    CosetSpec,
    RayThetaSpec,
    check_cross_field,
    check_descent,
    coset_theta_direct,
    coset_to_rayclass,
    decompose_coset,
    product_to_coset,
    quad_le_range,
    split_coset,
    theta_coset_raw,
)
from raytheta.qseries import QSeries, equals_to_order, theta_gen
from raytheta.quadfield import field, ideal_from_gens, principal_ideal, split_prime
from raytheta.rayclass import (
    CharacterPsi,
    ClassCombo,
    Conductor,
    RayClassRef,
    compute_skew_sets,
    conductor_of,
    ray_class,
    ray_theta,
)

K1, K2, K10, K30 = field(-1), field(-2), field(-10), field(-30)


def test_quad_le_range_exhaustive():
    rng = random.Random(2)
    for _ in range(400):
        A = rng.randint(1, 12)
        B = rng.randint(-25, 25)
        C = rng.randint(-60, 60)
        got = quad_le_range(A, B, C)
        want = [i for i in range(-80, 81) if A * i * i + B * i + C <= 0]
        if not want:
            assert got is None
        else:
            assert got == (want[0], want[-1])


# -- raw coset sums ------------------------------------------------------------


def test_rank1_coset_matches_theta_gen():
    for ell, k in [(1, 6), (5, 6), (0, 1), (3, 4), (-7, 12)]:
        T = F(15)
        got = theta_coset_raw(K2, (F(ell, 2 * k), F(0)), [(F(1), F(0))], F(1, k), T)
        ok, mism = equals_to_order(got, theta_gen(ell, k, T), T)
        assert ok, (ell, k, mism)


def test_rank1_product_rule():
    # theta((v,v') + L x L'; d) = theta(v + L; d) * theta(v' + L'; d)
    T = F(9)
    for a, b, vnum, wnum in [(1, 1, 1, 1), (2, 3, 1, 5), (3, 2, -1, 7)]:
        lhs = theta_coset_raw(
            K2, (F(vnum, 2), F(wnum, 4)), [(F(a), F(0)), (F(0), F(b))], 4, T
        )
        r1 = theta_coset_raw(K2, (F(vnum, 2), F(0)), [(F(a), F(0))], 4, T)
        r2 = theta_coset_raw(K2, (F(0), F(wnum, 4)), [(F(0), F(b))], 4, T)
        ok, mism = equals_to_order(lhs, r1 * r2, T)
        assert ok, mism


def test_scalar_rescaling_invariance():
    rng = random.Random(9)
    for _ in range(60):
        k = random.Random(rng.random()).choice([K1, K2, K10, K30])
        alpha = k.elem(rng.randint(-4, 4), rng.randint(-4, 4))
        g = k.elem(rng.randint(1, 3), rng.randint(0, 2))
        if alpha.is_zero() or g.is_zero():
            continue
        J = principal_ideal(k.elem(rng.randint(2, 5), rng.randint(0, 2)))
        spec = CosetSpec(k, alpha, J, F(4))
        scaled = CosetSpec(k, g * alpha, principal_ideal(g).mul(J), F(4) * g.norm())
        T = F(6)
        ok, mism = equals_to_order(
            coset_theta_direct(spec, T), coset_theta_direct(scaled, T), T
        )
        assert ok, mism


def test_degenerate_coset_contains_origin():
    J = principal_ideal(K2.elem(3))
    spec = CosetSpec(K2, K2.elem(3), J, F(1))
    t = coset_theta_direct(spec, 10)
    assert t.coeff(0) == 1


# -- product -> coset -----------------------------------------------------------


def test_product_to_coset_sqrt2_fixture():
    spec = product_to_coset(7, 6, 1, 12)
    assert spec.field.D == -2
    assert spec.d == 96
    assert spec.lattice == principal_ideal(K2.elem(24))
    assert spec.alpha == K2.elem(14, 1)


def test_product_to_coset_gaussian_fixture():
    p = 5
    spec = product_to_coset(1, 4 * p, 3, 4 * p)
    assert spec.field.D == -1
    assert spec.d == 16 * p
    assert spec.lattice == principal_ideal(K1.elem(8 * p))
    assert spec.alpha == K1.elem(1, 3)


def test_product_to_coset_sqrt10_fixture():
    spec = product_to_coset(1, 12, 2, 30)
    assert spec.field.D == -10
    assert spec.d == 1200
    p2 = split_prime(K10, 2).prime
    assert spec.lattice == principal_ideal(K10.elem(60)).mul(p2)
    assert spec.alpha == K10.elem(5, 2)


def test_product_to_coset_rejects_non_ideal_lattice():
    # a square factor in either reduced level breaks maximal-order closure
    for r, k, s, ell in [(1, 1, 1, 4), (1, 20, 3, 5), (1, 4, 1, 36)]:
        with pytest.raises(ValueError):
            product_to_coset(r, k, s, ell)


def test_product_to_coset_rejects_bad_levels():
    with pytest.raises(ValueError):
        product_to_coset(1, 0, 1, 4)


IDEAL_CASES = [
    (1, 6, 1, 12),
    (7, 6, -5, 12),
    (1, 6, 5, 6),
    (2, 4, 3, 4),
    (1, 8, 1, 4),
    (1, 12, 2, 30),
    (3, 6, 1, 20),
    (1, 5, 2, 5),
    (0, 3, 1, 3),
    (4, 15, 1, 15),
    (1, 18, 5, 9),
]


@pytest.mark.parametrize("r,k,s,ell", IDEAL_CASES)
def test_product_matches_direct_enumeration(r, k, s, ell):
    T = F(10)
    spec = product_to_coset(r, k, s, ell)
    lhs = theta_gen(r, k, T) * theta_gen(s, ell, T)
    ok, mism = equals_to_order(lhs, coset_theta_direct(spec, T), T)
    assert ok, mism


def test_product_conjugate_sign_same_series():
    T = F(10)
    for r, k, s, ell in [(1, 6, 1, 12), (1, 12, 2, 30)]:
        spec = product_to_coset(r, k, s, ell)
        flipped = CosetSpec(spec.field, spec.alpha.conj(), spec.lattice, spec.d)
        ok, mism = equals_to_order(
            coset_theta_direct(spec, T), coset_theta_direct(flipped, T), T
        )
        assert ok, mism


def test_product_random_sampled_cases():
    rng = random.Random(77)
    done = 0
    while done < 200:
        h = rng.randint(1, 4)
        k = h * rng.choice([1, 2, 3, 5, 6, 10])
        ell = h * rng.choice([1, 2, 3, 5, 6, 10])
        from math import gcd

        if gcd(k, ell) != h:
            continue
        r, s = rng.randint(-8, 8), rng.randint(-8, 8)
        try:
            spec = product_to_coset(r, k, s, ell)
        except ValueError:
            continue
        T = F(6)
        lhs = theta_gen(r, k, T) * theta_gen(s, ell, T)
        ok, mism = equals_to_order(lhs, coset_theta_direct(spec, T), T)
        assert ok, (r, k, s, ell, mism)
        done += 1


# -- coset -> ray class -----------------------------------------------------------


def test_worked_reduction_example():
    spec = CosetSpec(K2, K2.elem(2, 1), principal_ideal(K2.elem(24)), F(96))
    rspec = coset_to_rayclass(spec)
    p2 = split_prime(K2, 2).prime
    p3 = split_prime(K2, 3).prime
    expected_F = principal_ideal(K2.elem(4)).mul(p2).mul(p3)
    assert rspec.ray_class.conductor.ideal == expected_F
    assert rspec.scale == 16
    assert rspec.weight == 1
    T = F(4)
    ok, mism = equals_to_order(rspec.theta(T), coset_theta_direct(spec, T), T)
    assert ok, mism


def test_ray_theta_spec_refuses_floats_when_built():
    x = coset_to_rayclass(product_to_coset(1, 4, 4, 40)).ray_class
    with pytest.raises(TypeError):
        RayThetaSpec(x, 2.5, 1)
    with pytest.raises(TypeError):
        RayThetaSpec(x, F(5, 2), 1.0)
    spec = RayThetaSpec(x, 3, 2)
    assert type(spec.scale) is F and spec.scale == 3 and spec.weight == 2


def test_reduction_rejects_origin_coset():
    with pytest.raises(ValueError):
        coset_to_rayclass(CosetSpec(K2, K2.elem(24), principal_ideal(K2.elem(24)), F(96)))


def test_bridge_identity_randomized():
    rng = random.Random(101)
    done = 0
    while done < 200:
        k = rng.choice([K1, K2, K10, K30])
        J = ideal_from_gens(
            [
                k.elem(rng.randint(-6, 6), rng.randint(-6, 6)),
                k.elem(rng.randint(-6, 6), rng.randint(-6, 6)),
            ]
            if rng.random() < 0.5
            else [k.elem(rng.randint(-6, 6), rng.randint(-6, 6))]
        ) if True else None
        try:
            Jm = principal_ideal(k.elem(rng.randint(1, 3))).mul(J)
        except Exception:
            continue
        if not Jm.is_integral or int(Jm.norm()) < 2:
            continue
        alpha = k.elem(rng.randint(-9, 9), rng.randint(-9, 9))
        if alpha.is_zero() or alpha in Jm:
            continue
        d = F(rng.choice([1, 2, 4, 16]))
        spec = CosetSpec(k, alpha, Jm, d)
        T = F(3) if int(Jm.norm()) < 200 else F(1)
        rspec = coset_to_rayclass(spec)
        ok, mism = equals_to_order(rspec.theta(T), coset_theta_direct(spec, T), T)
        assert ok, (k.D, alpha, Jm, d, mism)
        done += 1


# -- decomposition ------------------------------------------------------------------


def test_rank2_coset_matches_brute_force():
    # both field bases: w = sqrt(D), and w = (1 + sqrt(D)) / 2 for D = 1 mod 4
    rng = random.Random(31)
    done = 0
    while done < 60:
        k = rng.choice([K1, K2, field(-3), field(-7), field(-15)])
        (a1, a2), (b1, b2) = cols = [
            (F(rng.randint(-3, 3), rng.choice([1, 2])), F(rng.randint(-3, 3), rng.choice([1, 2])))
            for _ in range(2)
        ]
        det = abs(a1 * b2 - a2 * b1)
        if det == 0:
            continue
        ox, oy = off = (F(rng.randint(-4, 4), 3), F(rng.randint(-4, 4), 2))
        d, T = F(rng.randint(1, 4), rng.randint(1, 2)), F(rng.randint(0, 8), rng.randint(1, 2))
        # N(x + y w) >= (x^2 + y^2) / 2 bounds |x|, |y| by r; the inverse basis bounds i, j
        r = isqrt(int(2 * d * T)) + 1
        I = int((abs(b2) * (r + abs(ox)) + abs(b1) * (r + abs(oy))) / det) + 1
        J = int((abs(a1) * (r + abs(oy)) + abs(a2) * (r + abs(ox))) / det) + 1
        terms = {}
        for i in range(-I, I + 1):
            for j in range(-J, J + 1):
                x, y = ox + i * a1 + j * b1, oy + i * a2 + j * b2
                e = k.norm_xy(x, y) / d
                if e <= T:
                    terms[e] = terms.get(e, 0) + 1
        assert theta_coset_raw(k, off, cols, d, T) == QSeries.from_exponents(terms, T), (k.D, off, cols, d, T)
        done += 1


def test_decompose_identity_index():
    cols = [(F(1), F(0)), (F(0), F(1))]
    offs = decompose_coset(K2, (F(1, 2), F(0)), cols, cols)
    assert offs == [(F(1, 2), F(0))]


def test_decompose_rank2_partition_random():
    rng = random.Random(55)
    done = 0
    while done < 200:
        k = rng.choice([K1, K2, K10])
        L = [(F(rng.randint(-3, 3)), F(rng.randint(-3, 3))) for _ in range(2)]
        det = L[0][0] * L[1][1] - L[0][1] * L[1][0]
        if det == 0:
            continue
        M = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        dm = M[0][0] * M[1][1] - M[0][1] * M[1][0]
        if dm == 0 or abs(dm) > 4:
            continue
        sub = [
            (
                M[0][0] * L[0][0] + M[0][1] * L[1][0],
                M[0][0] * L[0][1] + M[0][1] * L[1][1],
            ),
            (
                M[1][0] * L[0][0] + M[1][1] * L[1][0],
                M[1][0] * L[0][1] + M[1][1] * L[1][1],
            ),
        ]
        off = (F(rng.randint(-2, 2), 2), F(rng.randint(-2, 2), 2))
        offs = decompose_coset(k, off, L, sub)
        assert len(offs) == abs(dm)
        T = F(5)
        whole = theta_coset_raw(k, off, L, 2, T)
        total = None
        for o in offs:
            part = theta_coset_raw(k, o, sub, 2, T)
            total = part if total is None else total + part
        ok, mism = equals_to_order(whole, total, T)
        assert ok, (k.D, L, sub, mism)
        done += 1


def test_decompose_rejects_infinite_index():
    with pytest.raises(ValueError):
        decompose_coset(K2, (F(0), F(0)), [(F(1), F(0)), (F(0), F(1))], [(F(1), F(0))])


def test_decompose_rejects_rank1_lattices():
    with pytest.raises(ValueError, match="rank-2"):
        decompose_coset(K2, (F(1, 4), F(0)), [(F(1), F(0))], [(F(5), F(0))])


def test_split_coset_of_ideal():
    J = principal_ideal(K2.elem(2))
    sub = principal_ideal(K2.elem(4))
    spec = CosetSpec(K2, K2.elem(1, 1), J, F(4))
    parts = split_coset(spec, sub)
    assert len(parts) == 4
    T = F(6)
    whole = coset_theta_direct(spec, T)
    total = None
    for p in parts:
        t = coset_theta_direct(p, T)
        total = t if total is None else total + t
    ok, mism = equals_to_order(whole, total, T)
    assert ok, mism


# -- cross-field and descent -------------------------------------------------------


def f4p2_sqrt2() -> Conductor:
    return conductor_of(K2.elem(0, 4))


def test_cross_field_first_relation_line():
    rep = check_cross_field(
        -2, -1, f4p2_sqrt2(), conductor_of(K1.elem(8)),
        K2.maximal_order, K1.maximal_order, 16, F(5),
    )
    assert rep.passed, rep


def test_cross_field_second_relation_line():
    rep = check_cross_field(
        -2, -1, f4p2_sqrt2(), conductor_of(K1.elem(8)),
        principal_ideal(K2.elem(1, 2)), principal_ideal(K1.elem(3)), 16, F(5),
    )
    assert rep.passed, rep


def test_cross_field_third_relation_line():
    F4 = conductor_of(K2.elem(4))
    F4p2p = Conductor(principal_ideal(K1.elem(4)).mul(split_prime(K1, 2).prime))
    rep = check_cross_field(
        -2, -1, F4, F4p2p, K2.maximal_order, K1.maximal_order, 8, F(5),
    )
    assert rep.passed, rep


def test_cross_field_rejects_inadmissible():
    with pytest.raises(ValueError):
        check_cross_field(
            -2, -1, Conductor(K2.maximal_order), Conductor(K1.maximal_order),
            K2.maximal_order, K1.maximal_order, 16, F(2),
        )


def test_descent_sqrt2_fixture():
    chi = CharacterPsi(-2, -1)
    Fc = f4p2_sqrt2()
    A, S = compute_skew_sets(chi, Fc)
    p3 = split_prime(K2, 3).prime
    rep = check_descent(Fc, p3, K2.maximal_order, A, S, 16, F(5))
    assert rep.passed, rep


def test_descent_gaussian_fixture():
    chip = CharacterPsi(-1, -2)
    F8 = conductor_of(K1.elem(8))
    Ap, Sp = compute_skew_sets(chip, F8)
    P = principal_ideal(K1.elem(1, -2))
    rep = check_descent(F8, P, K1.maximal_order, Ap, Sp, 16, F(5))
    assert rep.passed, rep


def test_descent_zero_difference_of_equal_sets():
    Fc = f4p2_sqrt2()
    x = ray_class(1, Fc)
    combo = ClassCombo.sum_of([x]) - ClassCombo.sum_of([x])
    assert ray_theta(combo, 16, 5).is_zero()


def test_descent_hypothesis_violations():
    chi = CharacterPsi(-2, -1)
    Fc = f4p2_sqrt2()
    A, S = compute_skew_sets(chi, Fc)
    p3 = split_prime(K2, 3).prime
    with pytest.raises(ValueError):
        check_descent(Fc, p3.mul(p3), K2.maximal_order, A, S, 16, F(2))
    with pytest.raises(ValueError):
        check_descent(Fc, split_prime(K2, 2).prime, K2.maximal_order, A, S, 16, F(2))
    with pytest.raises(ValueError):
        check_descent(Fc, p3, K2.maximal_order, A, A, 16, F(2))
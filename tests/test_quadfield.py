"""Ideal arithmetic against brute-force lattice oracles and known instances."""

import random
from fractions import Fraction as F

import pytest

from raytheta.quadfield import (
    QIdeal,
    class_group_reps,
    class_number,
    enumerate_ideals,
    factor_ideal,
    factorint,
    field,
    hnf2,
    ideal_from_gens,
    ideal_product,
    is_principal,
    legendre,
    principal_ideal,
    split_prime,
    sqrt_mod,
    valuation,
)

DS = [-1, -2, -3, -5, -7, -10, -15, -30]


def random_element(rng, fld, lim=9):
    while True:
        g = fld.elem(rng.randint(-lim, lim), rng.randint(-lim, lim))
        if not g.is_zero():
            return g


def random_ideal(rng, fld, lim=9):
    gens = [random_element(rng, fld, lim) for _ in range(rng.randint(1, 2))]
    return ideal_from_gens(gens)


# -- integer helpers ----------------------------------------------------------


def test_factorint():
    assert factorint(600) == {2: 3, 3: 1, 5: 2}
    assert factorint(1) == {}


def test_sqrt_mod_many_primes():
    for p in [3, 5, 13, 17, 97, 101, 1009]:
        for a in range(1, p):
            if legendre(a, p) == 1:
                r = sqrt_mod(a, p)
                assert r * r % p == a


def test_field_validation():
    with pytest.raises(ValueError):
        field(-4)
    with pytest.raises(ValueError):
        field(3)


def test_float_field_leaves_cache_exact():
    # -7.0 == -7 and both hash alike, so a float must be refused before the
    # field cache is consulted or filled
    with pytest.raises(TypeError):
        field(-7.0)
    k = field(-7)
    assert type(k.D) is int and type(k.disc) is int and k.disc == -7


def test_units_counts():
    assert len(field(-1).units) == 4
    assert len(field(-3).units) == 6
    assert len(field(-2).units) == 2
    for D in DS:
        for u in field(D).units:
            assert u.norm() == 1


# -- HNF oracle ---------------------------------------------------------------


def test_hnf2_matches_sympy_oracle():
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    rng = random.Random(7)
    done = 0
    while done < 200:
        cols = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(3)]
        try:
            a, b, c = hnf2(cols)
        except ValueError:
            continue
        H = hermite_normal_form(Matrix([[x for x, _ in cols], [y for _, y in cols]]))
        assert H.shape == (2, 2) and H[1, 0] == 0
        assert (a, b, c) == (H[0, 0], H[0, 1] % H[0, 0], H[1, 1]), cols
        done += 1


# -- ideal construction --------------------------------------------------------


def test_norm_of_single_generator():
    k = field(-2)
    rho = k.elem(0, 1)
    assert ideal_from_gens([k.one + rho]).norm() == 3
    P2 = ideal_from_gens([rho])
    assert P2.norm() == 2
    assert P2.mul(P2) == principal_ideal(k.elem(2))
    assert ideal_from_gens([k.one]) == k.maximal_order


def test_rejects_all_zero_generators():
    k = field(-2)
    with pytest.raises(ValueError):
        ideal_from_gens([k.elem(0, 0)])


def test_membership_matches_generator_combinations():
    rng = random.Random(3)
    for D in DS:
        k = field(D)
        for _ in range(25):
            g = random_element(rng, k)
            I = ideal_from_gens([g])
            for _ in range(10):
                mult = random_element(rng, k, 5)
                assert (g * mult) in I
            h = random_element(rng, k, 5)
            if h.norm() % g.norm():
                pass  # h need not be in I; just check no crash
            assert I.contains_xy(F(g.x), F(g.y))


def test_fractional_canonical_form():
    k = field(-2)
    I = principal_ideal(k.elem(3)).scaled(F(1, 6))
    # (1/2) O_K
    assert I.key == (2, 1, 0, 1)
    assert I.norm() == F(1, 4)
    J = I.scaled(F(2))
    assert J == k.maximal_order


# -- splitting ----------------------------------------------------------------


def test_split_examples():
    k2 = field(-2)
    rec = split_prime(k2, 3)
    assert rec.kind == "split"
    assert rec.prime == ideal_from_gens([k2.elem(1, 1)])
    assert rec.conj == ideal_from_gens([k2.elem(1, -1)])

    k1 = field(-1)
    rec5 = split_prime(k1, 5)
    assert rec5.kind == "split"
    assert rec5.prime == ideal_from_gens([k1.elem(1, -2)])

    k10 = field(-10)
    rec2 = split_prime(k10, 2)
    assert rec2.kind == "ramified"
    assert rec2.prime.mul(rec2.prime) == principal_ideal(k10.elem(2))


def test_split_prime_counts_match_symbol():
    for D in DS:
        k = field(D)
        for p in [3, 5, 7, 11, 13, 17, 19, 23]:
            if D % p == 0:
                continue
            rec = split_prime(k, p)
            norm_p = [I for I in enumerate_ideals(k, p) if I.norm() == p]
            assert len(norm_p) == 1 + legendre(k.disc, p)
            if rec.kind == "split":
                assert rec.conj == rec.prime.conj()
                assert rec.prime != rec.conj
                assert rec.prime.mul(rec.conj) == principal_ideal(k.elem(p))


def test_split_2_half_basis():
    # -7 = 1 mod 8 splits, -3 = 5 mod 8 inert
    assert split_prime(field(-7), 2).kind == "split"
    assert split_prime(field(-3), 2).kind == "inert"
    assert split_prime(field(-15), 2).kind == "split"


def test_split_rejects_composite():
    with pytest.raises(ValueError):
        split_prime(field(-2), 6)


# -- factorization ------------------------------------------------------------


def test_factor_24_in_sqrt_minus_2():
    k = field(-2)
    I = principal_ideal(k.elem(24))
    fac = factor_ideal(I)
    p2 = split_prime(k, 2).prime
    p3, p3bar = split_prime(k, 3).prime, split_prime(k, 3).conj
    assert fac == {p2: 6, p3: 1, p3bar: 1}


def test_factor_maximal_order_empty():
    assert factor_ideal(field(-2).maximal_order) == {}


def test_factor_round_trip_random():
    rng = random.Random(11)
    count = 0
    while count < 250:
        k = field(rng.choice(DS))
        I = random_ideal(rng, k)
        fac = factor_ideal(I)
        assert ideal_product(k, fac) == I
        count += 1


def test_factor_fractional_negative_valuations():
    k = field(-2)
    p3 = split_prime(k, 3).prime
    I = p3.inverse()
    fac = factor_ideal(I)
    assert fac == {p3: -1}
    assert valuation(I, p3) == -1


# -- norms and conjugation -----------------------------------------------------


def test_norm_multiplicative_random():
    rng = random.Random(5)
    for _ in range(250):
        k = field(rng.choice(DS))
        I, J = random_ideal(rng, k), random_ideal(rng, k)
        assert I.mul(J).norm() == I.norm() * J.norm()


def test_conj_involution_and_norm_ideal():
    rng = random.Random(13)
    for _ in range(250):
        k = field(rng.choice(DS))
        I = random_ideal(rng, k)
        assert I.conj().conj() == I
        n = I.norm()
        assert I.mul(I.conj()) == k.maximal_order.scaled(n)


def test_hcf_with_maximal_order():
    rng = random.Random(17)
    for D in DS:
        k = field(D)
        I = random_ideal(rng, k)
        assert I.add(k.maximal_order) == k.maximal_order


def test_coprime_lcm_is_product():
    k = field(-2)
    p3 = split_prime(k, 3).prime
    p5 = principal_ideal(k.elem(5))
    assert p3.is_coprime(p5)
    assert p3.intersect(p5) == p3.mul(p5)


def test_divisibility_equivalences_random():
    rng = random.Random(23)
    checked = 0
    while checked < 200:
        k = field(rng.choice(DS))
        I, J = random_ideal(rng, k), random_ideal(rng, k)
        facs = set(factor_ideal(I)) | set(factor_ideal(J))
        dividing = all(valuation(I, P) <= valuation(J, P) for P in facs)
        assert dividing == I.divides(J)
        contains = all((g in I) if I.q == 1 else I.contains_xy(g.x, g.y) for g in J.basis()) and J.q == 1 and I.q == 1
        if I.q == 1 and J.q == 1:
            assert dividing == contains
        checked += 1


# -- principality ---------------------------------------------------------------


def test_principal_examples():
    k = field(-2)
    p3 = split_prime(k, 3).prime
    gen = is_principal(p3)
    assert gen is not None
    g, den = gen
    assert den == 1 and principal_ideal(g) == p3

    k30 = field(-30)
    p11 = split_prime(k30, 11).prime
    assert is_principal(p11) is None
    sq = p11.mul(p11)
    g, den = is_principal(sq)
    assert den == 1
    assert principal_ideal(g) == sq
    assert abs(g.y) == 2 and abs(g.x) == 1 and g.norm() == 121


def test_principal_round_trip_random():
    rng = random.Random(31)
    for _ in range(250):
        k = field(rng.choice(DS))
        alpha = random_element(rng, k)
        got = is_principal(principal_ideal(alpha))
        assert got is not None
        g, den = got
        assert den == 1
        assert any(g == u * alpha for u in k.units)


def test_non_principal_detected():
    k5 = field(-5)
    p2 = split_prime(k5, 2).prime
    assert is_principal(p2) is None
    assert class_number(k5) == 2


# -- enumeration -----------------------------------------------------------------


def test_enumerate_gaussian_norms_up_to_5():
    k = field(-1)
    norms = [int(I.norm()) for I in enumerate_ideals(k, 5)]
    assert norms == [1, 2, 4, 5, 5]


def test_enumerate_trivial_bound():
    k = field(-2)
    assert enumerate_ideals(k, 1) == [k.maximal_order]


def test_enumerate_matches_hnf_brute_force():
    # every integral ideal once: cross-check against direct HNF search
    for D in [-1, -2, -10, -30, -7, -15]:
        k = field(D)
        B = 40
        brute = []
        for c in range(1, B + 1):
            for ap in range(1, B // (c * c) + 1):
                for bp in range(ap):
                    if k.norm_xy(bp, 1) % ap == 0:
                        brute.append((ap * c * c, (ap * c, bp * c, c)))
        got = [(int(I.norm()), (I.a, I.b, I.c)) for I in enumerate_ideals(k, B)]
        assert sorted(got) == sorted(brute)


def test_enumerate_coprime_filter():
    k = field(-2)
    p2 = split_prime(k, 2).prime
    for I in enumerate_ideals(k, 50, coprime_to=p2):
        assert int(I.norm()) % 2 == 1


def test_enumerate_cache_slicing():
    k = field(-1)
    big = enumerate_ideals(k, 60)
    small = enumerate_ideals(k, 9)
    assert small == [I for I in big if I.norm() <= 9]


# -- class numbers ----------------------------------------------------------------


@pytest.mark.parametrize(
    "D,h",
    [(-1, 1), (-2, 1), (-3, 1), (-7, 1), (-5, 2), (-10, 2), (-15, 2), (-30, 4), (-23, 3)],
)
def test_class_numbers(D, h):
    assert class_number(field(D)) == h


def test_class_group_reps_exact_bound_loses_no_class():
    # the integer bound isqrt(|disc| / 3) + 1 must keep every class: the reps
    # equal the first ideal of each class among all ideals of norm <= |disc|
    for D in (-1, -2, -3, -5, -6, -10, -14, -21, -23, -30, -47, -71, -89, -105, -163):
        k = field(D)
        brute = []
        for I in enumerate_ideals(k, abs(k.disc)):
            if not any(is_principal(I.mul(J.conj())) for J in brute):
                brute.append(I)
        assert class_group_reps(k) == brute


@pytest.mark.parametrize("D,h", [(-47, 5), (-71, 7), (-89, 12), (-105, 8), (-163, 1)])
def test_class_numbers_larger_discriminants(D, h):
    assert class_number(field(D)) == h

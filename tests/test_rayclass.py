"""Ray class machinery on worked instances plus randomized structural laws."""

import random
from fractions import Fraction as F

import pytest

from raytheta.identities import _sqrt10_data, _sqrt30_data
from raytheta.quadfield import (
    QIdeal,
    class_group_reps,
    enumerate_ideals,
    field,
    ideal_from_gens,
    is_principal,
    principal_ideal,
    split_prime,
)
from raytheta.rayclass import (
    CharacterPsi,
    ClassCombo,
    ClosureError,
    Conductor,
    NotCoprimeError,
    RayClassRef,
    admissible,
    compute_skew_sets,
    crt_class,
    conductor_of,
    in_k1f,
    psi_conductor,
    ray_class,
    ray_theta,
    reduce_class,
    same_ray_class,
    skew_sets_from_json,
    skew_sets_to_json,
    units_mod_conductor,
)

K2 = field(-2)
K1 = field(-1)
RHO = K2.elem(0, 1)
I_UNIT = K1.elem(0, 1)


def f4p2() -> Conductor:
    return conductor_of(K2.elem(0, 4))  # 4 * (rho)


def f8() -> Conductor:
    return conductor_of(K1.elem(8))


# -- membership in K_{1,F} -----------------------------------------------------


def test_in_k1f_basic():
    F2 = conductor_of(K2.elem(2))
    assert in_k1f(K2.elem(1, 2), K2.one, F2)
    assert in_k1f(K2.elem(5, -4), K2.elem(5, -4), F2)


def test_in_k1f_negative_case():
    F4 = conductor_of(K1.elem(4))
    assert not in_k1f(K1.elem(1, 2), K1.one, F4)


def test_in_k1f_not_applicable():
    F2 = conductor_of(K2.elem(2))
    with pytest.raises(NotCoprimeError):
        in_k1f(RHO, K2.one, F2)


# -- ray class equality -----------------------------------------------------------


def test_same_class_skew_fixture():
    Fc = f4p2()
    one_rho = principal_ideal(K2.elem(1, 1))
    skew = one_rho.mul(one_rho.conj().inverse())
    assert same_ray_class(skew, principal_ideal(K2.elem(5, 2)), Fc)
    assert same_ray_class(skew, principal_ideal(K2.elem(5, -2)), Fc)
    assert same_ray_class(skew, principal_ideal(K2.elem(-3, 2)), Fc)
    assert not same_ray_class(skew, K2.maximal_order, Fc)


def test_same_class_reflexive():
    Fc = f4p2()
    I = principal_ideal(K2.elem(3, 2))
    assert same_ray_class(I, I, Fc)


def test_same_class_gaussian_fixture():
    Fc = f8()
    one_2i = principal_ideal(K1.elem(1, 2))
    skew = one_2i.mul(one_2i.conj().inverse())
    assert same_ray_class(skew, principal_ideal(K1.elem(1, 4)), Fc)
    assert same_ray_class(skew, principal_ideal(K1.elem(-1, 4)), Fc)


def test_same_class_requires_coprime():
    with pytest.raises(NotCoprimeError):
        same_ray_class(principal_ideal(RHO), K2.maximal_order, f4p2())


def _random_coprime_ideal(rng, fld, F, lim=9):
    while True:
        g = fld.elem(rng.randint(-lim, lim), rng.randint(-lim, lim))
        if g.is_zero():
            continue
        I = principal_ideal(g)
        try:
            RayClassRef(I, F)
            return I
        except NotCoprimeError:
            continue


CONDUCTOR_POOL = []
for D in (-1, -2, -10, -30):
    k = field(D)
    CONDUCTOR_POOL.append(Conductor(principal_ideal(k.elem(2))))
    CONDUCTOR_POOL.append(Conductor(principal_ideal(k.elem(3))))
    CONDUCTOR_POOL.append(Conductor(split_prime(k, 2).prime.mul(principal_ideal(k.elem(2)))))


def test_same_class_is_equivalence_and_multiplicative():
    rng = random.Random(41)
    for _ in range(200):
        Fc = rng.choice(CONDUCTOR_POOL)
        k = Fc.field
        I = _random_coprime_ideal(rng, k, Fc)
        J = _random_coprime_ideal(rng, k, Fc)
        L = _random_coprime_ideal(rng, k, Fc)
        assert same_ray_class(I, I, Fc)
        assert same_ray_class(I, J, Fc) == same_ray_class(J, I, Fc)
        if same_ray_class(I, J, Fc) and same_ray_class(J, L, Fc):
            assert same_ray_class(I, L, Fc)
        # compatibility with multiplication
        if same_ray_class(I, J, Fc):
            assert same_ray_class(I.mul(L), J.mul(L), Fc)


# -- class labels against the pairwise oracle -----------------------------------------


def _same_class_oracle(I, J, Fc):
    """The pairwise test labels replace: I J^-1 = (delta / n) is principal and
    u delta = n modulo F hcf(delta, n) for some unit u."""
    fld = Fc.field
    LI = QIdeal(fld, 1, I.a, I.b, I.c)
    LJ = QIdeal(fld, 1, J.a, J.b, J.c)
    gen = is_principal(LI.mul(LJ.conj()).scaled(J.q))
    if gen is None:
        return False
    delta, n = gen[0], fld.elem(I.q * LJ.a * LJ.c)
    FH = Fc.ideal.mul(principal_ideal(delta).add(principal_ideal(n)))
    return any((u * delta - n) in FH for u in fld.units)


def _label_conductors():
    p3 = split_prime(K2, 3).prime
    return [
        _sqrt30_data()[1],
        _sqrt10_data()[1],
        f4p2(),
        conductor_of(K2.elem(4)),
        f8(),
        Conductor(principal_ideal(K1.elem(4)).mul(split_prime(K1, 2).prime)),
        Conductor(p3.mul(f4p2().ideal)),  # not self-conjugate
        # six units; classes of Q[sqrt(-21)] include the form 5x^2 + 4xy + 5y^2
        conductor_of(field(-3).elem(4)),
        conductor_of(field(-21).elem(2)),
    ]


@pytest.mark.parametrize("idx", range(9))
def test_labels_agree_with_pairwise_oracle(idx):
    Fc = _label_conductors()[idx]
    G = Fc.group
    ideals = enumerate_ideals(Fc.field, 400, coprime_to=Fc.ideal)[:45]
    # fractional ideals too, including ones whose denominator meets F when F
    # is not self-conjugate (1/conj(P3) = P3/3 at F = P3*4P2)
    ideals += [I.mul(J.inverse()) for I, J in zip(ideals[1:6], ideals[6:11])]
    ideals += [I.inverse() for I in ideals[1:6]]
    # I (1 + a w) with F meeting Z in aZ lies in the class of I
    ideals += [I.mul_element(Fc.field.elem(1, Fc.ideal.a)) for I in ideals[1:11]]
    if not Fc.self_conjugate:
        ideals.append(split_prime(K2, 3).conj.inverse())
    labels = [G.label(I) for I in ideals]
    for I, x in zip(ideals, labels):
        for J, y in zip(ideals, labels):
            assert (x == y) == _same_class_oracle(I, J, Fc), (I, J)


def test_label_count_equals_certified_order():
    for data, order in ((_sqrt30_data(), 256), (_sqrt10_data(), 512)):
        Fc = data[1]
        G = Fc.group
        assert G.order == order
        classes = G.span(((G.label(P), None) for P in G.primes()), None, lambda x, y: None)
        assert len(classes) == order
        seen = {G.label(I) for I in enumerate_ideals(Fc.field, 960, coprime_to=Fc.ideal)}
        assert seen < set(classes)


def test_label_multiplication_matches_ideal_products():
    rng = random.Random(5)
    for Fc in _label_conductors():
        G = Fc.group
        ideals = enumerate_ideals(Fc.field, 200, coprime_to=Fc.ideal)
        for _ in range(40):
            I, J = rng.choice(ideals), rng.choice(ideals)
            assert G.mul(G.label(I), G.label(J)) == G.label(I.mul(J))
            assert G.mul(G.label(I), G.inv(G.label(I))) == G.one


# skew sets found by the earlier norm-bounded product sweep; the group
# construction must reproduce them exactly
SEC54_SKEW_KEYS = {
    (-30, -10): (
        [[1, 0, 1], [241, 115, 1], [481, 231, 1], [31, 0, 31]],
        [[961, 466, 1], [41, 0, 41], [49, 0, 49], [3601, 1771, 1]],
    ),
    (-10, -30): (
        [[1, 0, 1], [241, 58, 1], [241, 183, 1], [481, 82, 1], [481, 230, 1], [481, 251, 1],
         [1201, 205, 1], [41, 0, 41]],
        [[721, 117, 1], [31, 0, 31], [1681, 430, 1], [1681, 1251, 1], [49, 0, 49],
         [2641, 1295, 1], [2641, 1346, 1], [3841, 650, 1]],
    ),
}


def test_sec54_skew_set_keys_unchanged():
    for (D, Dp), data in (((-30, -10), _sqrt30_data()), ((-10, -30), _sqrt10_data())):
        A, S = compute_skew_sets(CharacterPsi(D, Dp), data[1])
        got = ([list(x.canonical_key()[1:]) for x in A], [list(x.canonical_key()[1:]) for x in S])
        assert got == SEC54_SKEW_KEYS[D, Dp]


def test_canonical_key_stable_across_representatives():
    Fc = f4p2()
    a = ray_class(K2.elem(5, 2), Fc)
    b = RayClassRef(
        principal_ideal(K2.elem(1, 1)).mul(principal_ideal(K2.elem(1, -1)).inverse()), Fc
    )
    assert a.same_class(b)
    assert a.canonical_key() == b.canonical_key()
    assert a == b and hash(a) == hash(b)


# -- CRT classes -------------------------------------------------------------------


def test_crt_seven_fixture():
    p3 = split_prime(K2, 3).prime
    f_ideal = p3.mul(f4p2().ideal)
    Fc = Conductor(f_ideal)
    seven = ray_class(7, Fc)
    assert crt_class([(p3, 1), (f4p2().ideal, -1)]).same_class(seven)
    assert crt_class([(p3, -1), (f4p2().ideal, 1)]).same_class(seven)


def test_crt_identity_and_unit_relation():
    p3 = split_prime(K2, 3).prime
    f4 = f4p2().ideal
    Fc = Conductor(p3.mul(f4))
    assert crt_class([(p3, 1), (f4, 1)]).same_class(ray_class(1, Fc))
    a, b = K2.elem(2), K2.elem(1, 2)
    u = K2.elem(-1)
    assert crt_class([(p3, a), (f4, b)]).same_class(crt_class([(p3, u * a), (f4, u * b)]))


def test_crt_rejects_non_invertible_residue():
    p3 = split_prime(K2, 3).prime
    with pytest.raises(NotCoprimeError):
        crt_class([(p3, 3), (f4p2().ideal, 1)])


def test_crt_rejects_common_factor():
    p3 = split_prime(K2, 3).prime
    with pytest.raises(NotCoprimeError):
        crt_class([(p3, 1), (p3.mul(p3), 1)])


# -- reduction ---------------------------------------------------------------------


def test_reduce_is_identity_at_same_conductor():
    Fc = f4p2()
    x = ray_class(K2.elem(5, 2), Fc)
    assert reduce_class(x, Fc).same_class(x)


def test_reduce_skew_fixture():
    Fc = f4p2()
    F4 = conductor_of(K2.elem(4))
    s = ray_class(K2.elem(5, 2), Fc)
    assert reduce_class(s, F4).same_class(ray_class(K2.elem(1, 2), F4))


def test_reduce_gaussian_fixture():
    F8 = f8()
    F4p2 = Conductor(principal_ideal(K1.elem(4)).mul(split_prime(K1, 2).prime))
    s = ray_class(K1.elem(1, 4), F8)
    reduced = reduce_class(s, F4p2)
    assert reduced.same_class(ray_class(3, F4p2))
    assert reduced.same_class(ray_class(5, F4p2))


def test_reduce_requires_divisor():
    p3 = split_prime(K2, 3).prime
    with pytest.raises(ValueError):
        reduce_class(ray_class(7, f4p2()), Conductor(p3))


# -- units mod conductor --------------------------------------------------------------


def test_units_mod_conductor():
    assert units_mod_conductor(Conductor(K2.maximal_order))[1] == 2
    assert units_mod_conductor(f4p2())[1] == 1
    assert units_mod_conductor(f8())[1] == 1
    assert units_mod_conductor(Conductor(split_prime(K1, 2).prime))[1] == 4


# -- character ---------------------------------------------------------------------


def test_psi_conductors():
    assert psi_conductor(-2, -1).ideal == principal_ideal(K2.elem(2))
    assert psi_conductor(-1, -2).ideal == principal_ideal(K1.elem(4))
    assert psi_conductor(-30, -10).ideal == principal_ideal(field(-30).elem(2))
    assert psi_conductor(-10, -30).ideal == principal_ideal(field(-10).elem(6))


def test_psi_values():
    psi = CharacterPsi(-2, -1)
    assert psi.value(principal_ideal(K2.elem(1, 1))) == -1
    assert psi.value(K2.maximal_order) == 1
    psi_p = CharacterPsi(-1, -2)
    assert psi_p.value(principal_ideal(K1.elem(1, -2))) == -1


def test_psi_rejects_bad_norm():
    psi = CharacterPsi(-2, -1)
    with pytest.raises(NotCoprimeError):
        psi.value(principal_ideal(RHO))


def test_psi_multiplicative_and_trivial_on_one_mod_conductor():
    rng = random.Random(61)
    psi = CharacterPsi(-2, -1)
    Fpsi = psi.conductor
    done = 0
    while done < 200:
        g = K2.elem(rng.randint(-9, 9), rng.randint(-9, 9))
        h = K2.elem(rng.randint(-9, 9), rng.randint(-9, 9))
        if g.is_zero() or h.is_zero():
            continue
        I, J = principal_ideal(g), principal_ideal(h)
        try:
            assert psi.value(I.mul(J)) == psi.value(I) * psi.value(J)
        except NotCoprimeError:
            continue
        if in_k1f(g, K2.one, Fpsi):
            assert psi.value(I) == 1
        done += 1


# -- admissibility -----------------------------------------------------------------


def test_admissible_pairs():
    chi = CharacterPsi(-2, -1)
    chip = CharacterPsi(-1, -2)
    F4p2_gauss = Conductor(principal_ideal(K1.elem(4)).mul(split_prime(K1, 2).prime))
    assert admissible(chi, f4p2(), chip, f8())
    assert admissible(chi, conductor_of(K2.elem(4)), chip, F4p2_gauss)
    assert not admissible(chi, Conductor(K2.maximal_order), chip, Conductor(K1.maximal_order))
    assert not admissible(chi, f4p2(), chip, F4p2_gauss)


# -- skew class sets ---------------------------------------------------------------


def test_skew_sets_sqrt_minus_2():
    chi = CharacterPsi(-2, -1)
    A, S = compute_skew_sets(chi, f4p2())
    assert len(A) == 1 and len(S) == 1
    assert A[0].same_class(ray_class(1, f4p2()))
    assert S[0].same_class(ray_class(K2.elem(5, 2), f4p2()))


def test_skew_sets_gaussian():
    chip = CharacterPsi(-1, -2)
    A, S = compute_skew_sets(chip, f8())
    assert len(A) == 1 and len(S) == 1
    assert A[0].same_class(ray_class(1, f8()))
    assert S[0].same_class(ray_class(K1.elem(1, 4), f8()))


def test_skew_sets_reduced_conductors():
    chi = CharacterPsi(-2, -1)
    F4 = conductor_of(K2.elem(4))
    A, S = compute_skew_sets(chi, F4)
    assert len(A) == 1 and S[0].same_class(ray_class(K2.elem(1, 2), F4))

    chip = CharacterPsi(-1, -2)
    F4p2 = Conductor(principal_ideal(K1.elem(4)).mul(split_prime(K1, 2).prime))
    Ap, Sp = compute_skew_sets(chip, F4p2)
    assert len(Ap) == 1 and Sp[0].same_class(ray_class(3, F4p2))


def test_skew_sets_closure_failure_reported():
    chi = CharacterPsi(-2, -1)
    with pytest.raises(ClosureError):
        compute_skew_sets(chi, f4p2(), bound=2)


def test_skew_sets_bound_caps_generator_primes():
    chi = CharacterPsi(-2, -1)
    A, S = compute_skew_sets(chi, f4p2())
    assert compute_skew_sets(chi, f4p2(), bound=100) == (A, S)


def test_skew_sets_overlap_detected_for_unusable_pair():
    # over Q[sqrt(-6)] with partner -2, some conjugation-symmetric class
    # carries character -1 at every small self-conjugate conductor, so the
    # subgroup/coset split does not exist; the engine must refuse loudly
    from raytheta.rayclass import SkewOverlapError

    k6 = field(-6)
    p3 = split_prime(k6, 3).prime
    chi = CharacterPsi(-6, -2)
    Fc = Conductor(principal_ideal(k6.elem(2)).mul(p3))
    assert Fc.self_conjugate and chi.conductor.divides(Fc)
    with pytest.raises(SkewOverlapError):
        compute_skew_sets(chi, Fc)


def test_skew_sets_require_self_conjugate_and_inside_psi():
    chi = CharacterPsi(-2, -1)
    p3 = split_prime(K2, 3).prime
    with pytest.raises(ValueError):
        compute_skew_sets(chi, Conductor(p3.mul(principal_ideal(K2.elem(2)))))
    with pytest.raises(ValueError):
        compute_skew_sets(chi, Conductor(K2.maximal_order))


def test_skew_sets_json_round_trip():
    chi = CharacterPsi(-2, -1)
    A, S = compute_skew_sets(chi, f4p2())
    blob = skew_sets_to_json(chi, f4p2(), A, S, 960)
    chi2, F2, A2, S2 = skew_sets_from_json(blob)
    assert [x.canonical_key() for x in A2] == [x.canonical_key() for x in A]
    assert [x.canonical_key() for x in S2] == [x.canonical_key() for x in S]
    assert blob == skew_sets_to_json(chi2, F2, A2, S2, 960)


# -- theta series -------------------------------------------------------------------


def test_ray_theta_leading_term():
    x = ray_class(1, f8())
    t = ray_theta(x, 16, 2)
    assert t.min_exponent() == F(1, 16)
    assert t.coeff(F(1, 16)) == 1


def test_ray_theta_partition_law():
    # summing over every ideal class with trivial conductor reproduces the
    # full norm-counting series
    for D in (-10, -30):
        k = field(D)
        F1 = Conductor(k.maximal_order)
        combo = ClassCombo.sum_of([RayClassRef(rep, F1) for rep in class_group_reps(k)])
        total = ray_theta(combo, 1, 30)
        expect: dict = {}
        for I in enumerate_ideals(k, 30):
            n = F(int(I.norm()))
            expect[n] = expect.get(n, 0) + 1
        from raytheta.qseries import QSeries, equals_to_order

        ok, mismatch = equals_to_order(total, QSeries.from_exponents(expect, 30), 30)
        assert ok, mismatch


def test_ray_theta_rejects_mixed_conductors():
    with pytest.raises(ValueError):
        ClassCombo([(1, ray_class(1, f8())), (1, ray_class(1, conductor_of(K1.elem(4))))])


def test_unit_residues_counts():
    # phi(Q) counts the invertible residues modulo Q
    p3 = split_prime(K2, 3).prime
    assert Conductor(p3).group.phi == 2
    three_inert = principal_ideal(field(-10).elem(3))
    assert Conductor(three_inert).group.phi == 8
    assert f4p2().group.phi == 16


def test_lift_classes_inverse_image():
    from raytheta.rayclass import lift_classes

    Fc = f4p2()
    p3 = split_prime(K2, 3).prime
    big = Conductor(Fc.ideal.mul(p3))
    lifted = lift_classes([ray_class(1, Fc)], big)
    # kernel of the reduction: one class per unit residue at the new prime,
    # and every lift reduces back to the identity
    assert len(lifted) == 2
    for x in lifted:
        assert reduce_class(x, Fc).same_class(ray_class(1, Fc))
    seven = ray_class(7, big)
    assert any(x.same_class(seven) for x in lifted)


def test_lift_classes_trivial_extension():
    from raytheta.rayclass import lift_classes

    Fc = f4p2()
    xs = [ray_class(K2.elem(5, 2), Fc)]
    assert lift_classes(xs, Fc) == xs


def test_lift_classes_rejects_non_coprime_extension():
    from raytheta.rayclass import lift_classes

    F4 = conductor_of(K2.elem(4))
    with pytest.raises(ValueError):
        lift_classes([ray_class(1, F4)], f4p2())


def test_reduce_is_group_homomorphism_sampled():
    rng = random.Random(97)
    Fbig = f4p2()
    F4 = conductor_of(K2.elem(4))
    for _ in range(60):
        I = _random_coprime_ideal(rng, K2, Fbig)
        J = _random_coprime_ideal(rng, K2, Fbig)
        x, y = RayClassRef(I, Fbig), RayClassRef(J, Fbig)
        assert reduce_class(x * y, F4).same_class(reduce_class(x, F4) * reduce_class(y, F4))


def test_ray_theta_partition_law_nontrivial_conductor():
    # discovered classes at conductor 4P2 partition the coprime ideals, so
    # summing their theta series reproduces the coprime norm-count series
    from raytheta.qseries import QSeries, equals_to_order

    Fc = f4p2()
    B = 40
    classes: list[RayClassRef] = []
    expect: dict = {}
    for I in enumerate_ideals(K2, B, coprime_to=Fc.ideal):
        if not any(c.contains_ideal(I) for c in classes):
            classes.append(RayClassRef(I, Fc))
        n = F(int(I.norm()))
        expect[n] = expect.get(n, 0) + 1
    total = ray_theta(ClassCombo.sum_of(classes), 1, B)
    ok, mismatch = equals_to_order(total, QSeries.from_exponents(expect, B), B)
    assert ok, mismatch
    assert len(classes) == 8


# -- coset thetas and canonical reps against the ideal enumeration -------------------
#
# ray_theta and RayClassGroup.canonical sum over lattice cosets.  The oracles
# below are their earlier forms: label every integral ideal prime to F in
# (norm, HNF) order, and sum (or take the first of) those with the wanted label.

_LABELLED: dict = {}


def _labelled_ideals(Fc, bound):
    """(ideal, label) for the integral ideals prime to F of norm <= bound, in
    (norm, HNF) order; cached per conductor and sliced for smaller bounds."""
    hit = _LABELLED.get(Fc.key)
    if hit is None or hit[0] < bound:
        G = Fc.group
        hit = _LABELLED[Fc.key] = (
            bound,
            [(I, G.label(I)) for I in enumerate_ideals(Fc.field, bound, coprime_to=Fc.ideal)],
        )
    return [(I, x) for I, x in hit[1] if I.a * I.c <= bound]


def _ray_theta_oracle(W, d, trunc):
    """The enumeration form of ray_theta."""
    from raytheta.qseries import QSeries

    combo = ClassCombo([(1, W)]) if isinstance(W, RayClassRef) else W
    d, T = F(d), F(trunc)
    coeffs: dict = {}
    for c, x in combo.terms:
        coeffs[x.label] = coeffs.get(x.label, 0) + c
    cap = d * T
    terms: dict = {}
    for I, x in _labelled_ideals(combo.conductor, cap.numerator // cap.denominator):
        if coeffs.get(x):
            e = F(I.a * I.c) / d
            terms[e] = terms.get(e, 0) + coeffs[x]
    return QSeries.from_exponents(terms, T)


def _canonical_oracle(Fc, labels):
    """The first ideal of each label in (norm, HNF) order."""
    first: dict = {}
    bound = 64
    while not set(labels) <= set(first):
        for I, x in _labelled_ideals(Fc, bound):
            first.setdefault(x, I)
        bound *= 4
    return {x: first[x] for x in labels}


def _assert_matches_oracle(W, d, trunc):
    got, want = ray_theta(W, d, trunc), _ray_theta_oracle(W, d, trunc)
    assert (got.denom, got.terms, got.trunc) == (want.denom, want.terms, want.trunc)
    return got


def _suite_ray_theta_calls(monkeypatch):
    """Every ray_theta call the relations55, sec54 and thm51 suites make, as
    (combo, d) pairs."""
    import raytheta.bridge as bridge
    import raytheta.identities as ids

    calls = []

    def record(W, d, trunc):
        calls.append((W, d))
        return ray_theta(W, d, trunc)

    monkeypatch.setattr(ids, "ray_theta", record)
    monkeypatch.setattr(bridge, "ray_theta", record)
    ids.verify_relations55(F(2))
    ids.verify_sec54(F(1))
    for a in (1, 5, 13):
        for eps in (0, 1):
            for r in range(1, 16, 2):
                if a != 1 or r % 5:  # r must be prime to p = 5 when a = 1
                    ids.thm51_check(a, r, eps, F(1, 2))
    return calls


def test_ray_theta_matches_oracle_on_suite_classes(monkeypatch):
    calls = _suite_ray_theta_calls(monkeypatch)
    assert len(calls) == 3 * 2 + 4 * 2 + 2 * 6 + 2 * 2 * 8
    classes = {}
    for W, d in calls:
        _assert_matches_oracle(W, d, 60)
        for _, x in ClassCombo([(1, W)]).terms if isinstance(W, RayClassRef) else W.terms:
            classes[x.conductor.key, x.label, d] = x, d
    # each class on its own too, so that no error cancels inside a combination
    assert len(classes) > 100
    for x, d in classes.values():
        _assert_matches_oracle(x, d, 60)


def test_ray_theta_matches_oracle_on_round_trip_classes():
    from raytheta.bridge import coset_to_rayclass, product_to_coset

    # the (k, ell, r, s) products of the theta_deep benchmark's round trips
    bases = [
        (4, 40, 1, 4), (8, 20, 7, 3), (3, 30, 5, 3), (4, 10, 8, 1), (20, 24, 5, 4),
        (9, 30, 7, 4), (12, 40, 1, 5), (15, 18, 8, 4), (6, 9, 7, 3), (8, 12, 5, 7),
        (4, 24, 2, 8), (3, 18, 5, 6), (2, 10, 5, 6), (4, 20, 7, 6), (3, 15, 2, 6),
        (4, 8, 3, 2), (2, 4, 5, 1), (4, 4, 7, 1), (3, 3, 3, 5), (2, 2, 2, 2),
    ]
    for k, ell, r, s in bases:
        spec = coset_to_rayclass(product_to_coset(r, k, s, ell))
        assert not _assert_matches_oracle(spec.ray_class, spec.scale, 60).is_zero()


@pytest.mark.parametrize("D", [-5, -23])
def test_ray_theta_matches_oracle_trivial_conductor(D):
    # F = O: the coset of each class is the ideal conj(R_j) itself, 0 included
    k = field(D)
    F1 = Conductor(k.maximal_order)
    reps = class_group_reps(k)
    assert len(reps) > 1
    for R in reps:
        _assert_matches_oracle(RayClassRef(R, F1), 1, 300)
        _assert_matches_oracle(RayClassRef(R.conj(), F1), 7, 40)
    _assert_matches_oracle(ClassCombo([(3, RayClassRef(R, F1)) for R in reps]), 1, 300)


def test_ray_theta_matches_oracle_on_random_classes():
    rng = random.Random(11)
    for Fc in _label_conductors() + CONDUCTOR_POOL:
        refs = [RayClassRef(_random_coprime_ideal(rng, Fc.field, Fc), Fc) for _ in range(4)]
        for x in refs:
            _assert_matches_oracle(x, 1, 200)
        combo = ClassCombo([(rng.randint(-3, 3) or 1, x) for x in refs])
        _assert_matches_oracle(combo.times(refs[0].inv()), F(5, 2), 60)


def test_ray_theta_refuses_inexact_division(monkeypatch):
    # every ideal of Q[i] is reached by its four generators; one point too
    # many leaves a coefficient that w_F = 4 does not divide
    import raytheta.rayclass as rc
    from raytheta.qseries import ExactDivisionError

    real = rc.coset_points

    def one_extra(*args):
        pts = list(real(*args))
        return pts + [p for p in pts if p[0]][:1]

    monkeypatch.setattr(rc, "coset_points", one_extra)
    with pytest.raises(ExactDivisionError):
        ray_theta(RayClassRef(K1.maximal_order, Conductor(K1.maximal_order)), 1, 10)


@pytest.mark.parametrize("data", [_sqrt30_data, _sqrt10_data], ids=["sqrt-30", "sqrt-10"])
def test_canonical_matches_oracle_on_whole_sec54_groups(data):
    Fc = data()[1]
    G = Fc.group
    labels = list(G.span(((G.label(P), None) for P in G.primes()), None, lambda x, y: None))
    assert len(labels) == G.order
    want = _canonical_oracle(Fc, labels)
    for x in labels:
        assert G.canonical(x) == want[x], x


def test_canonical_matches_oracle_on_sampled_classes():
    rng = random.Random(23)
    for Fc in _label_conductors() + CONDUCTOR_POOL:
        labels = {Fc.group.label(_random_coprime_ideal(rng, Fc.field, Fc)) for _ in range(12)}
        want = _canonical_oracle(Fc, labels)
        for x in labels:
            assert Fc.group.canonical(x) == want[x], (Fc, x)

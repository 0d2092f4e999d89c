import random

import pytest

from sl8hecke.groupmodel import (
    PARAHORIC,
    STABILIZER,
    GroupElem,
    MembershipError,
    commutator,
    elem_eps,
    elem_s,
    elem_s_prime,
    elem_z,
    sign_character_trivial,
    identity,
    in_K0,
    in_KM0,
    in_g0,
    in_iwahori,
    letters,
    lower_l,
    monomial_matrix,
    monomial_terms,
    rho0,
    rho_M0,
    torus,
    upper_u,
)
from sl8hecke import groupmodel
from sl8hecke.reference import Decomposition, iwahori_decompose, random_K0, random_KM0
from sl8hecke.residue import UNIT_MINUS_ONE, UNIT_ONE, eta_residue, make_field, sgn
from sl8hecke.tower import E2, E4


def zeta_const(tw, tag=E2, power=1):
    return tw.constant(tag, tw.field.pow(tw.field.zeta, power))


# -- named elements and basic group law ----------------------------------------


@pytest.mark.parametrize("q", [5, 9, 13])
def test_letter_terms_match_their_laurent_definitions(q, request):
    # elem_* and every lift read the letters' hand-written terms, so each is
    # pinned here to the Laurent matrix it stands for
    tw = request.getfixturevalue(f"tower{q}")
    one2, zero2, one4, pi2 = tw.one(E2), tw.zero(E2), tw.one(E4), tw.uniformizer(E2)
    zeta = tw.constant(E2, tw.field.zeta)
    expected = {
        "s": GroupElem(zero2, one2, -one2, zero2, one4),
        "s'": GroupElem(zero2, pi2**-1, -pi2, zero2, one4),
        "z": GroupElem(zeta * pi2, zero2, zero2, pi2, tw.uniformizer(E4) ** -2),
        "eps": GroupElem(-one2, zero2, zero2, one2, one4),
    }
    lets = letters(tw)
    assert set(lets) == set(expected)
    for name, g in expected.items():
        assert monomial_terms(g) == lets[name]
        assert monomial_matrix(tw, lets[name]) == g
    named = (elem_s(tw), elem_s_prime(tw), elem_z(tw), elem_eps(tw))
    assert named == tuple(expected.values())


def test_s_squared_is_minus_identity(tower5):
    s = elem_s(tower5)
    ss = s * s
    assert ss.is_diagonal()
    assert ss.a == -tower5.one(E2)
    assert ss.d == -tower5.one(E2)
    assert ss.g4 == tower5.one(E4)


def test_s_times_s_prime(tower5):
    tw = tower5
    prod = elem_s(tw) * elem_s_prime(tw)
    pi2 = tw.uniformizer(E2)
    assert prod.is_diagonal()
    assert prod.a == -pi2
    assert prod.d == -(pi2 ** -1)


def test_named_elements_in_g0(tower5):
    for g in (elem_s(tower5), elem_s_prime(tower5), elem_z(tower5), elem_eps(tower5)):
        assert in_g0(g)


def test_commutator_s_z(tower5, tower13):
    for tw in (tower5, tower13):
        com = commutator(elem_s(tw), elem_z(tw))
        expected = torus(tw, zeta_const(tw, power=-1), zeta_const(tw), tw.one(E4))
        assert com.is_diagonal()
        assert com.to_torus() == expected
        assert rho_M0(com.to_torus()) == UNIT_MINUS_ONE


def test_commutator_s_z_scalar_oracle(tower5):
    # independent route: conjugation by the reflection swaps the diagonal,
    # so the commutator is (y/x, x/y, 1) computed purely with scalar series
    tw = tower5
    z = elem_z(tw)
    x, y = z.a, z.d
    com = commutator(elem_s(tw), z)
    assert com.to_torus() == torus(tw, y / x, x / y, tw.one(E4))


def test_inverse_roundtrip_exact_elements(tower5, rng):
    tw = tower5
    pool = [elem_s(tw), elem_s_prime(tw), elem_z(tw), elem_eps(tw)]
    for _ in range(10):
        g = identity(tw)
        for _ in range(4):
            g = g * rng.choice(pool)
            g = g * upper_u(tw, rng.randrange(tw.q))
        assert g * g.inverse() == identity(tw)


def test_inverse_of_dense_element_has_unit_diagonal(tower5, rng):
    # off-diagonal entries of g*g^-1 cancel below window certainty for
    # division-tainted entries; the unit diagonal is still checkable
    for _ in range(5):
        g = random_K0(tower5, STABILIZER, rng)
        prod_a = g.a * g.inverse().a + g.b * g.inverse().c
        assert prod_a == tower5.one(E2)


# -- memberships -----------------------------------------------------------------


def test_in_iwahori_examples(tower5):
    tw = tower5
    assert in_iwahori(upper_u(tw, 3))
    assert in_iwahori(upper_u(tw, tw.t(E2)))
    assert not in_iwahori(elem_s(tw))  # c = -1 is a unit, not in the ideal
    assert in_iwahori(lower_l(tw, tw.uniformizer(E2)))
    assert not in_iwahori(elem_z(tw))


def test_in_K0_examples(tower5):
    tw = tower5
    eps = elem_eps(tw)
    assert in_K0(eps, STABILIZER)
    assert not in_K0(eps, PARAHORIC)
    tt = torus(tw, zeta_const(tw, power=-1), zeta_const(tw), tw.one(E4)).to_group()
    assert in_K0(tt, STABILIZER) and in_K0(tt, PARAHORIC)
    assert not in_K0(elem_z(tw), STABILIZER)


def test_in_KM0_examples(tower5):
    tw = tower5
    good = torus(tw, zeta_const(tw, power=-1), zeta_const(tw), tw.one(E4))
    assert in_KM0(good, STABILIZER) and in_KM0(good, PARAHORIC)
    both = torus(tw, -tw.one(E2), -tw.one(E2), tw.one(E4))
    assert in_KM0(both, PARAHORIC)
    bad = torus(tw, zeta_const(tw), tw.one(E2), tw.one(E4))
    assert not in_KM0(bad, STABILIZER)
    assert not in_KM0(bad, PARAHORIC)


def test_eps_in_KM0_stabilizer_only(tower5):
    eps = elem_eps(tower5).to_torus()
    assert in_KM0(eps, STABILIZER)
    assert not in_KM0(eps, PARAHORIC)


# -- characters --------------------------------------------------------------------


def test_rho_values(tower5):
    tw = tower5
    assert rho_M0(torus(tw, zeta_const(tw, power=-1), zeta_const(tw), tw.one(E4))) == UNIT_MINUS_ONE
    assert rho0(upper_u(tw, 2), STABILIZER) == UNIT_ONE
    assert rho_M0(torus(tw, -tw.one(E2), -tw.one(E2), tw.one(E4))) == UNIT_ONE


def test_rho_rejects_non_members(tower5):
    tw = tower5
    with pytest.raises(MembershipError):
        rho_M0(torus(tw, zeta_const(tw), tw.one(E2), tw.one(E4)))
    with pytest.raises(MembershipError):
        rho0(elem_s(tw), STABILIZER)


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_rho0_homomorphism_on_random_pairs(tower5, variant):
    rng = random.Random(101)
    for _ in range(200):
        g = random_K0(tower5, variant, rng)
        h = random_K0(tower5, variant, rng)
        assert rho0(g * h, variant) == rho0(g, variant) * rho0(h, variant)


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_rho0_restricts_to_rho_M0(tower5, variant):
    rng = random.Random(103)
    for _ in range(25):
        tt = random_KM0(tower5, variant, rng)
        assert rho0(tt.to_group(), variant) == rho_M0(tt)


def test_commutator_independent_of_compact_perturbation(tower5):
    rng = random.Random(107)
    tw = tower5
    for _ in range(20):
        k = random_KM0(tw, STABILIZER, rng).to_group()
        kp = random_KM0(tw, STABILIZER, rng).to_group()
        com = commutator(elem_s(tw) * k, elem_z(tw) * kp)
        assert com.is_diagonal()
        tt = com.to_torus()
        assert in_KM0(tt, STABILIZER)
        assert rho_M0(tt) == UNIT_MINUS_ONE


# -- Iwahori factorisation ------------------------------------------------------------


def assert_valid_decomposition(g: GroupElem, dec: Decomposition):
    assert in_iwahori(dec.k1) and in_iwahori(dec.k2)
    mono = dec.monomial.as_group()
    assert dec.k1 * mono * dec.k2 == g


def test_decompose_lower_unipotent_unit(tower5):
    tw = tower5
    g = lower_l(tw, 3)
    dec = iwahori_decompose(g)
    assert dec.monomial.kind == "anti"
    assert_valid_decomposition(g, dec)


def test_decompose_already_iwahori(tower5):
    g = upper_u(tower5, 2)
    dec = iwahori_decompose(g)
    assert dec.monomial.kind == "diag"
    assert dec.monomial.as_group() == identity(tower5)
    assert_valid_decomposition(g, dec)


def test_decompose_monomial_input_is_fixed(tower5):
    g = elem_s_prime(tower5)
    dec = iwahori_decompose(g)
    assert dec.k1 == identity(tower5)
    assert dec.k2 == identity(tower5)
    assert dec.monomial.as_group() == g
    assert_valid_decomposition(g, dec)


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_decompose_roundtrip_random(tower5, variant):
    rng = random.Random(127)
    tw = tower5
    words = [identity(tw), elem_s(tw), elem_s_prime(tw), elem_z(tw), elem_s(tw) * elem_z(tw)]
    for _ in range(40):
        g = random_K0(tw, variant, rng) * rng.choice(words) * random_K0(tw, variant, rng)
        dec = iwahori_decompose(g)
        assert_valid_decomposition(g, dec)


def test_decompose_unipotent_factors_are_in_both_subgroups(tower5):
    rng = random.Random(131)
    tw = tower5
    for _ in range(15):
        g = random_K0(tw, PARAHORIC, rng) * elem_s(tw) * random_K0(tw, PARAHORIC, rng)
        dec = iwahori_decompose(g)
        for k in (dec.k1, dec.k2):
            assert in_K0(k, STABILIZER) and in_K0(k, PARAHORIC)


def test_decompose_rejects_singular_matrices(tower5):
    tw = tower5
    one, zero = tw.one(E2), tw.zero(E2)
    rank_one = GroupElem(one, one, one, one, tw.one(E4))
    zero_matrix = GroupElem(zero, zero, zero, zero, tw.one(E4))
    for g in (rank_one, zero_matrix):
        with pytest.raises(ValueError, match="singular"):
            iwahori_decompose(g)


def test_decompose_builds_unipotent_factors_on_first_read(tower5):
    g = lower_l(tower5, 3) * elem_s(tower5) * upper_u(tower5, 2)
    dec = iwahori_decompose(g)
    assert "k1" not in vars(dec) and "k2" not in vars(dec)
    assert dec.k2 is dec.k2
    assert_valid_decomposition(g, dec)


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_decompose_invariants_match_the_built_monomial(tower5, variant):
    rng = random.Random(137)
    tw = tower5
    words = [identity(tw), elem_s(tw), elem_s_prime(tw), elem_z(tw), lower_l(tw, 3), upper_u(tw, 2)]
    for _ in range(40):
        g = random_K0(tw, variant, rng) * rng.choice(words) * random_K0(tw, variant, rng)
        dec = iwahori_decompose(g)
        ords, residues, inside = dec.ords, dec.residues, dec.factors_in_iwahori()
        assert not {"pivot_inv", "monomial", "k1", "k2"} & set(vars(dec))
        mono = dec.monomial
        assert ords == (mono.first.ord_norm(), mono.second.ord_norm())
        assert residues == (mono.first.unit_residue(), mono.second.unit_residue())
        assert dec.product == mono.first * mono.second
        assert inside and in_iwahori(dec.k1) and in_iwahori(dec.k2)


def test_decompose_quotient_valuations_follow_the_unipotent_kind(tower5):
    # u(2) decomposes with k2 = u(2); read as l(2), the unit quotient is
    # integral but not in the maximal ideal
    dec = iwahori_decompose(upper_u(tower5, 2))
    assert dec.factors_in_iwahori()
    swapped = dec._replace(make_k2=lower_l)
    assert not swapped.factors_in_iwahori()
    assert not in_iwahori(swapped.k2)


# -- sign-character triviality ----------------------------------------------------------


@pytest.mark.parametrize("q", [5, 13])
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_sign_character_trivial(q, variant):
    assert sign_character_trivial(make_field(q), variant)


def character_trivial_by_triples(field, variant, character):
    """The (q-1)**3 loop over residue triples (x, y, z): the reference for
    the enumeration of (xy, z) in `sign_character_trivial`."""
    mul = field.mul
    for xr in range(1, field.q):
        for yr in range(1, field.q):
            xy = mul(xr, yr)
            xy2 = mul(xy, xy)
            for zr in range(1, field.q):
                z2 = mul(zr, zr)
                if mul(xy2, mul(z2, z2)) != 1:
                    continue
                if variant == PARAHORIC and mul(xy, z2) != 1:
                    continue
                if character(field, xy).exp != 0:
                    return False
    return True


@pytest.mark.parametrize("q", [5, 9, 13, 17, 25, 29, 37, 41, 49, 53])
@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
@pytest.mark.parametrize("character", [sgn, eta_residue], ids=["sgn", "eta"])
def test_sign_character_pairs_match_the_triple_loop(q, variant, character, monkeypatch):
    # eta in place of sgn is not trivial on the admissible triples, so both
    # verdicts are compared
    field = make_field(q)
    monkeypatch.setattr(groupmodel, "sgn", character)
    assert sign_character_trivial(field, variant) == character_trivial_by_triples(field, variant, character)


def test_sign_character_unit_triple(tower5):
    # a triple with x*y = 1 is allowed and has sign +1: sanity of the scan
    f = tower5.field
    assert sgn(f, f.mul(1, 1)).exp == 0


# -- samplers are exact ------------------------------------------------------------------


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_random_KM0_members(tower5, variant):
    rng = random.Random(137)
    seen_eps_coset = False
    for _ in range(30):
        tt = random_KM0(tower5, variant, rng)
        assert in_KM0(tt, variant)
        if variant == STABILIZER and not in_KM0(tt, PARAHORIC):
            seen_eps_coset = True
    if variant == STABILIZER:
        assert seen_eps_coset  # the sampler reaches both residue cosets


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_random_K0_members(tower5, tower9, variant):
    for tw in (tower5, tower9):
        rng = random.Random(139)
        for _ in range(15):
            assert in_K0(random_K0(tw, variant, rng), variant)

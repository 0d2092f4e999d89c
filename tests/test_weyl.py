import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from sl8hecke.groupmodel import PARAHORIC, STABILIZER, GroupElem, elem_eps, elem_z, in_KM0, letters
from sl8hecke.residue import UNIT_I, UNIT_MINUS_ONE, UNIT_ONE, UnitI, eta_residue, make_field, sgn
from sl8hecke.tower import Tower
from sl8hecke.lattice import congruence_lattice_members, hermite_normal_form, lattice_check, norm_condition_holds
from sl8hecke.weyl import (
    S,
    SP,
    W_ID,
    W_S,
    W_SP,
    W_Z,
    WeylElem,
    _reduce,
    group_structure_check,
    h_M0,
    lift,
    plength,
    translation_power,
    window_elements,
)


# -- normal forms ----------------------------------------------------------------


def test_s_squared_is_identity():
    assert W_S * W_S == W_ID


def test_z_central_in_normal_form():
    assert W_S * W_Z * W_S.inverse() == W_Z


def test_translation_has_no_collapse():
    w = (W_S * W_SP) ** 3
    assert w.word == (S, SP) * 3
    assert plength(w) == 6


def test_inverse_and_associativity():
    a = WeylElem((S, SP), 2, 1)
    b = WeylElem((SP,), -1)
    c = WeylElem((S,), 3, 1)
    assert (a * b) * c == a * (b * c)
    assert (a * a.inverse()).word == ()
    assert (a * a.inverse()).zexp == 0
    assert b * b.inverse() == W_ID


def test_non_reduced_word_rejected():
    with pytest.raises(ValueError):
        WeylElem((S, S))


def test_plength_ignores_central_part():
    assert plength(WeylElem((S,), 3)) == 1
    assert plength(W_ID) == 0
    assert plength(WeylElem((S, SP, S))) == 3
    assert plength(WeylElem((S,), 2, 1)) == 1


words = st.integers(-4, 4).map(translation_power)
elems = st.builds(
    lambda w, s_tail, z, e: w * (W_S if s_tail else W_ID) * WeylElem((), z, e),
    words,
    st.booleans(),
    st.integers(-3, 3),
    st.integers(0, 1),
)


@given(elems, elems)
def test_plength_subadditive(a, b):
    assert plength(a * b) <= plength(a) + plength(b)


@given(elems, st.integers(-3, 3), st.integers(0, 1))
def test_plength_invariant_under_central(a, z, e):
    assert plength(a * WeylElem((), z, e)) == plength(a)


def test_serialisation():
    assert str(W_ID) == "1"
    assert str(WeylElem((S, SP), 3, 1)) == "s.s'.z^3.e"
    assert str(WeylElem((SP,), -1)) == "s'.z^-1"


reduced_words = st.builds(
    lambda first, n: tuple((S, SP)[(first + i) % 2] for i in range(n)), st.integers(0, 1), st.integers(0, 6)
)
normal_forms = st.builds(WeylElem, reduced_words, st.integers(-3, 3), st.integers(0, 1))


@given(normal_forms, normal_forms, st.booleans())
def test_products_and_inverses_equal_the_validated_forms(u, v, mirror):
    # products and inverses skip the constructor's checks: each must equal, and
    # hash like, the form validated from the reduced concatenation.  With
    # `mirror`, v's word is u's reversed, so the junction cancels everything
    if mirror:
        v = WeylElem(u.word[::-1], v.zexp, v.ebit)
    got = u * v
    want = WeylElem(_reduce(u.word + v.word), u.zexp + v.zexp, (u.ebit + v.ebit) % 2)
    assert got == want and hash(got) == hash(want)
    inv = u.inverse()
    want = WeylElem(tuple(reversed(u.word)), -u.zexp, u.ebit)
    assert inv == want and hash(inv) == hash(want)


@pytest.mark.parametrize(
    "value", [W_ID, WeylElem((S, SP, S), -2, 1), W_SP * W_S * W_SP, UNIT_ONE, UNIT_I, UnitI(3)], ids=repr
)
def test_copies_and_pickles_rebuild_equal_values(value):
    for other in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert other == value and hash(other) == hash(value)


@pytest.mark.parametrize("q", [13, 9])
def test_characters_and_unit_arithmetic_return_the_four_shared_units(q):
    field = make_field(q)
    shared = [UNIT_ONE, UNIT_I, UNIT_MINUS_ONE, UNIT_I.inverse()]
    assert [UnitI(k) for k in range(-4, 8)] == shared * 3
    got = [eta_residue(field, x) for x in field.units()] + [sgn(field, x) for x in field.units()]
    got += [a * b for a in shared for b in shared] + [a**n for a in shared for n in range(-5, 6)]
    got += [a.inverse() for a in shared] + [UnitI(k) for k in range(-4, 8)]
    got += [copy.copy(a) for a in shared] + [pickle.loads(pickle.dumps(a)) for a in shared]
    assert all(any(u is a for a in shared) for u in got)
    assert len({id(a) for a in shared}) == 4


# independent oracle: the infinite dihedral group acts faithfully on the
# integers by reflections, s at 0 and s' at 1
def _isometry(word):
    # returns (a, b) for x -> a*x + b with a in {1, -1}
    a, b = 1, 0
    for letter in word:
        if letter == S:
            a, b = -a, -b  # x -> -x applied after the current map
        else:
            a, b = -a, 2 - b  # x -> 2 - x applied after the current map
    return a, b


@given(st.lists(st.sampled_from([S, SP]), max_size=12))
def test_reduction_matches_isometry_model(letters):
    from sl8hecke.weyl import _reduce

    reduced = _reduce(tuple(letters))
    assert _isometry(tuple(letters)) == _isometry(reduced)
    # reduced words are a normal form: distinct reduced words give distinct maps
    assert len(reduced) <= len(letters)


def test_isometry_model_separates_short_words():
    from sl8hecke.weyl import _reduce

    seen = {}
    for n in range(8):
        for start in (S, SP):
            word = tuple((S, SP)[(i + (start == SP)) % 2] for i in range(n))
            word = _reduce(word)
            iso = _isometry(word)
            assert seen.setdefault(iso, word) == word
    assert len(seen) == 15  # identity + 2 words per length 1..7


# -- lifts ----------------------------------------------------------------------


def test_lift_of_generators(tower5):
    from sl8hecke.groupmodel import elem_s, elem_s_prime, elem_z

    assert lift(tower5, W_S) == elem_s(tower5)
    assert lift(tower5, W_SP) == elem_s_prime(tower5)
    assert lift(tower5, W_Z) == elem_z(tower5)


def test_lift_of_z_has_valuation_triple(tower5):
    assert h_M0(lift(tower5, W_Z).to_torus()) == (1, 1, -2)


def test_lift_of_ss_prime(tower5):
    tw = tower5
    g = lift(tw, W_S * W_SP)
    from sl8hecke.tower import E2

    pi2 = tw.uniformizer(E2)
    assert g.is_diagonal()
    assert g.a == -pi2 and g.d == -(pi2 ** -1)
    assert h_M0(g.to_torus()) == (1, -1, 0)


@given(elems, elems)
def test_lift_is_homomorphism_modulo_compact_torus(a, b):
    tw = _shared_tower()
    disc = lift(tw, (a * b)).inverse() * lift(tw, a) * lift(tw, b)
    assert disc.is_diagonal()
    assert in_KM0(disc.to_torus(), STABILIZER)


_tower_singleton = {}


def _shared_tower():
    # hypothesis-driven tests cannot take the session fixture; share one tower
    if "tw" not in _tower_singleton:
        from sl8hecke.residue import make_field
        from sl8hecke.tower import Tower

        _tower_singleton["tw"] = Tower(make_field(5), 40)
    return _tower_singleton["tw"]


def test_h_M0_homomorphism_and_unit_kernel(tower5):
    from sl8hecke.reference import random_KM0

    rng = random.Random(41)
    for _ in range(20):
        t1 = random_KM0(tower5, STABILIZER, rng)
        t2 = random_KM0(tower5, STABILIZER, rng)
        assert h_M0(t1 * t2) == tuple(u + v for u, v in zip(h_M0(t1), h_M0(t2)))
        assert h_M0(t1) == (0, 0, 0)  # compact-torus members are unit triples
    zt = lift(tower5, W_Z).to_torus()
    assert h_M0(zt) != (0, 0, 0)


# -- Hermite normal form and the lattice identity -----------------------------------


def test_hnf_canonical_small_cases():
    assert hermite_normal_form([(2, 0), (0, 3)]) == ((2, 0), (0, 3))
    assert hermite_normal_form([(0, 3), (2, 0)]) == ((2, 0), (0, 3))
    assert hermite_normal_form([(1, 1), (1, -1)]) == ((1, 1), (0, 2))
    assert hermite_normal_form([(4,), (6,)]) == ((2,),)
    assert hermite_normal_form([(0, 0)]) == ()


def test_hnf_detects_lattice_equality_and_inequality():
    a = hermite_normal_form([(1, 1, -2), (1, -1, 0)])
    b = hermite_normal_form([(1, -1, 0), (0, -2, 2)])
    assert a == b
    c = hermite_normal_form([(1, -1, 0), (0, 0, 2)])
    assert a != c


def test_congruence_members_examples():
    members = set(congruence_lattice_members(2))
    assert (1, 1, -2) in members
    assert (1, -1, 0) in members
    assert (1, 0, -1) not in members  # odd last entry


def test_norm_condition_matches_congruence(tower5):
    assert norm_condition_holds(tower5, (1, 1, -2))
    assert norm_condition_holds(tower5, (1, -1, 0))
    assert not norm_condition_holds(tower5, (1, 0, -1))
    assert not norm_condition_holds(tower5, (1, 0, 0))


def test_lattice_check(tower5, tower13):
    assert lattice_check(tower5)
    assert lattice_check(tower13)


# -- group structure -----------------------------------------------------------------


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_group_structure(tower5, variant):
    assert group_structure_check(tower5, variant)


def tower_with_letter(name, terms):
    """A fresh tower whose memoised canonical letter `name` is replaced by `terms`."""
    tower = Tower(make_field(5), precision=40)
    tower.cache["letters"] = {**letters(tower), name: terms}
    return tower


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_group_structure_rejects_a_z_of_the_wrong_valuation(variant):
    # z with E4 exponent -1 is still central modulo the compact torus, so only
    # the valuation triples of z**n, here n * (1, 1, -1), can catch it
    tower = tower_with_letter("z", ("diag", ((make_field(5).zeta, 1), (1, 1), (1, -1))))
    assert h_M0(elem_z(tower).to_torus()) == (1, 1, -1)
    assert group_structure_check(tower, variant) is False


def test_group_structure_rejects_an_eps_inside_the_compact_torus():
    tower = tower_with_letter("eps", ("diag", ((1, 0), (1, 0), (1, 0))))
    assert in_KM0(elem_eps(tower).to_torus(), PARAHORIC)
    assert group_structure_check(tower, PARAHORIC) is False


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_group_structure_rejects_a_rescaled_affine_letter(variant):
    # s' with its first entry scaled by pi2: s'^2 = diag(-pi2, -pi2) leaves T0
    tower = tower_with_letter("s'", ("anti", ((1, 0), (make_field(5).neg(1), 1), (1, 0))))
    assert group_structure_check(tower, variant) is False


@pytest.mark.parametrize("variant", [STABILIZER, PARAHORIC])
def test_group_structure_multiplies_no_matrix(variant, monkeypatch):
    # the relations and the translations' valuation triples are read from terms
    def refuse(self, other):
        raise AssertionError("group_structure_check multiplied a GroupElem")

    monkeypatch.setattr(GroupElem, "__mul__", refuse)
    assert group_structure_check(Tower(make_field(5), precision=40), variant)


def test_translations_have_expected_valuations(tower5):
    g = lift(tower5, translation_power(7))
    assert h_M0(g.to_torus()) == (7, -7, 0)
    g = lift(tower5, W_Z ** 5)
    assert h_M0(g.to_torus()) == (5, 5, -10)


def test_valuation_triple_is_linear_on_translations(tower5):
    # h of (ss')^a z^b is a*(1,-1,0) + b*(1,1,-2) for all small a, b
    for a in range(-3, 4):
        for b in range(-3, 4):
            w = translation_power(a) * (W_Z ** b)
            got = h_M0(lift(tower5, w).to_torus())
            assert got == (a + b, b - a, -2 * b)


def test_window_elements_counts():
    # words of length <= 2: 5 of them; zexp in {-1,0,1}: x3; eps: x2
    assert len(window_elements(2, 1, include_eps=False)) == 15
    assert len(window_elements(2, 1, include_eps=True)) == 30
    assert len(window_elements(4, 2, include_eps=True)) == 90

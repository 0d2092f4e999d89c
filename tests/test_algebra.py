import itertools
import random

import pytest

from sl8hecke.algebra import (
    CoxeterError,
    CoxeterSystem,
    CrossedProductAlgebra,
    GenericHeckeElem,
    TwistedGroupAlgebra,
    build_example_algebra,
    crossed_mul,
    hecke_mul,
    structure_constant,
    structure_constant_rows,
    twisted_mul,
)
from sl8hecke.groupmodel import STABILIZER
from sl8hecke.cocycle import CocycleTable
from sl8hecke.hecke import HeckeContext
from sl8hecke.residue import COEFF_ONE, HeckeCoeff
from sl8hecke.weyl import W_ID, W_S, W_Z


AFF_A1 = CoxeterSystem(("s", "t"))  # infinite dihedral
A2 = CoxeterSystem(("s", "t"), braid_order=3)
B2 = CoxeterSystem(("s", "t"), braid_order=4)


def coeff(n, m=0):
    return HeckeCoeff(n, m)


# -- Coxeter reduction -------------------------------------------------------------


def test_reduce_infinite_dihedral():
    assert AFF_A1.reduce(("s", "s")) == ()
    assert AFF_A1.reduce(("s", "t", "t", "s")) == ()
    assert AFF_A1.reduce(("s", "t", "s")) == ("s", "t", "s")
    assert AFF_A1.reduce(("s", "t", "s", "t")) == ("s", "t", "s", "t")


def test_reduce_braid_a2():
    # in the order-6 dihedral group sts = tst, and (st)^3 = 1
    assert A2.reduce(("s", "t", "s")) == A2.reduce(("t", "s", "t"))
    assert A2.reduce(("s", "t") * 3) == ()
    assert A2.reduce(("s", "t", "s", "t")) == ("t", "s")


def test_dihedral_group_order():
    for system, order in ((A2, 6), (B2, 8)):
        elems = set()
        frontier = [()]
        while frontier:
            w = frontier.pop()
            if w in elems:
                continue
            elems.add(w)
            for s in system.generators:
                frontier.append(system.reduce((s,) + w))
        assert len(elems) == order


def test_rank_bound():
    with pytest.raises(CoxeterError):
        CoxeterSystem(("a", "b", "c"))


def test_odd_braid_order_rejects_unequal_parameters():
    ts = GenericHeckeElem.basis(A2, ("s",))
    with pytest.raises(CoxeterError):
        hecke_mul(ts, ts, {"s": coeff(3), "t": coeff(5)})


def test_equality_distinguishes_systems():
    assert GenericHeckeElem.basis(A2, ("s",)) != GenericHeckeElem.basis(B2, ("s",))
    assert GenericHeckeElem.basis(A2, ("s",)) == GenericHeckeElem.basis(A2, ("s",))


def test_sum_over_different_systems_raises():
    # the sum checks its operands' systems as hecke_mul does
    with pytest.raises(CoxeterError, match="mismatched Coxeter systems"):
        GenericHeckeElem.basis(A2, ("s",)) + GenericHeckeElem.basis(AFF_A1, ("s", "t"))


def test_sums_and_scalings_drop_zero_coefficients():
    ts = GenericHeckeElem.basis(B2, ("s",))
    both = ts + GenericHeckeElem.basis(B2, ("t",))
    assert (both + ts.scaled(coeff(-1))).terms == {("t",): COEFF_ONE}
    assert both.scaled(coeff(0)) == GenericHeckeElem(B2, {})
    assert list((both + ts).terms) == [("s",), ("t",)]


def test_the_public_constructor_still_rejects_a_non_reduced_key():
    with pytest.raises(CoxeterError, match="non-reduced key"):
        GenericHeckeElem(AFF_A1, {("s", "s"): COEFF_ONE})
    with pytest.raises(CoxeterError, match="non-reduced key"):
        GenericHeckeElem(A2, {("t", "s", "t"): COEFF_ONE})  # the longest element reads s t s


def test_the_algebra_section_reduces_each_word_once(monkeypatch):
    # sums, scalings, products and basis elements carry keys that `reduce`
    # gave, so they are not reduced again, and the trivial Hecke factor's empty
    # words are not acted on: at q = 5 the section made 2,519 reduce calls
    # before, 1,013 of them re-validating keys and 403 on empty words
    from sl8hecke.cli import Config, run_all

    calls = []
    reduce = CoxeterSystem.reduce
    monkeypatch.setattr(CoxeterSystem, "reduce", lambda system, word: calls.append(word) or reduce(system, word))
    report = run_all(Config(q=5), sections=("algebra",))
    assert report.checks and all(check.status == "pass" for check in report.checks)
    assert 0 < len(calls) <= 1103


# -- Hecke multiplication ---------------------------------------------------------------


def test_quadratic_rule():
    params = {"s": coeff(5), "t": coeff(5)}
    ts = GenericHeckeElem.basis(AFF_A1, ("s",))
    prod = hecke_mul(ts, ts, params)
    assert prod.terms == {(): coeff(5), ("s",): coeff(4)}


def test_length_additive_product():
    params = {"s": coeff(5), "t": coeff(5)}
    ts = GenericHeckeElem.basis(AFF_A1, ("s",))
    tt = GenericHeckeElem.basis(AFF_A1, ("t",))
    assert hecke_mul(ts, tt, params).terms == {("s", "t"): COEFF_ONE}


def test_group_algebra_degeneration():
    # parameters all 1: structure constants match group multiplication
    params = {"s": COEFF_ONE, "t": COEFF_ONE}
    words = [(), ("s",), ("t",), ("s", "t"), ("t", "s"), ("s", "t", "s")]
    for v in words:
        for w in words:
            prod = hecke_mul(
                GenericHeckeElem.basis(A2, v), GenericHeckeElem.basis(A2, w), params
            )
            assert prod.terms == {A2.reduce(v + w): COEFF_ONE}


@pytest.mark.parametrize("system", [AFF_A1, A2, B2])
def test_hecke_associativity_random(system):
    rng = random.Random(97)
    if system.braid_order == 3:
        # odd braid order: the reflections are conjugate, parameters equal
        params = {"s": coeff(3, 1), "t": coeff(3, 1)}
    else:
        params = {"s": coeff(3, 1), "t": coeff(-2, 2)}
    words = [(), ("s",), ("t",), ("s", "t"), ("t", "s")]

    def rand_elem():
        out = GenericHeckeElem(system, {})
        for _ in range(rng.randrange(1, 4)):
            w = system.reduce(rng.choice(words))
            out = out + GenericHeckeElem.basis(system, w).scaled(
                coeff(rng.randrange(-3, 4), rng.randrange(-3, 4))
            )
        return out

    for _ in range(100):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        left = hecke_mul(hecke_mul(a, b, params), c, params)
        right = hecke_mul(a, hecke_mul(b, c, params), params)
        assert left == right


# -- twisted group algebras ----------------------------------------------------------------


@pytest.fixture(scope="module")
def ctx5():
    from sl8hecke.residue import make_field
    from sl8hecke.tower import Tower

    return HeckeContext(Tower(make_field(5), 40), STABILIZER)


@pytest.fixture(scope="module")
def table5(ctx5):
    return CocycleTable(ctx5)


def test_twisted_commutation_defect(table5):
    alg = TwistedGroupAlgebra(
        lambda u, v: u * v, lambda u, v: table5.mu(u, v).as_coeff(), W_ID
    )
    sz = twisted_mul(alg.basis(W_S), alg.basis(W_Z))
    zs = twisted_mul(alg.basis(W_Z), alg.basis(W_S))
    assert sz.terms.keys() == zs.terms.keys() == {W_S * W_Z}
    assert sz.terms[W_S * W_Z] == -zs.terms[W_S * W_Z]


def test_trivial_cocycle_is_group_algebra(table5, ctx5):
    alg = TwistedGroupAlgebra(lambda u, v: u * v, lambda u, v: COEFF_ONE, W_ID)
    for u in ctx5.window(1, 1):
        for v in ctx5.window(1, 1):
            prod = twisted_mul(alg.basis(u), alg.basis(v))
            assert prod.terms == {u * v: COEFF_ONE}


def test_twisted_identity_normalised(table5, ctx5):
    alg = TwistedGroupAlgebra(
        lambda u, v: u * v, lambda u, v: table5.mu(u, v).as_coeff(), W_ID
    )
    for w in ctx5.window(2, 1):
        assert twisted_mul(alg.basis(W_ID), alg.basis(w)).terms == {w: COEFF_ONE}


def test_twisted_associativity(table5, ctx5):
    alg = TwistedGroupAlgebra(
        lambda u, v: u * v, lambda u, v: table5.mu(u, v).as_coeff(), W_ID
    )
    rng = random.Random(83)
    window = ctx5.window(2, 1)
    for _ in range(100):
        a, b, c = (alg.basis(rng.choice(window)) for _ in range(3))
        assert twisted_mul(twisted_mul(a, b), c) == twisted_mul(a, twisted_mul(b, c))


def test_broken_cocycle_breaks_associativity(table5):
    bad_pair = (W_S, W_Z)

    def broken(u, v):
        if (u, v) == bad_pair:
            return -table5.mu(u, v).as_coeff()
        return table5.mu(u, v).as_coeff()

    alg = TwistedGroupAlgebra(lambda u, v: u * v, broken, W_ID)
    probes = [W_ID, W_S, W_Z, W_S * W_Z, W_Z ** -1]
    violations = 0
    for a, b, c in itertools.product(probes, repeat=3):
        left = twisted_mul(twisted_mul(alg.basis(a), alg.basis(b)), alg.basis(c))
        right = twisted_mul(alg.basis(a), twisted_mul(alg.basis(b), alg.basis(c)))
        if left != right:
            violations += 1
    assert violations > 0


# -- crossed products -------------------------------------------------------------------------


def test_sums_over_different_algebras_raise():
    twisted = [TwistedGroupAlgebra(lambda u, v: "1", lambda u, v: COEFF_ONE, "1") for _ in range(2)]
    with pytest.raises(ValueError, match="elements of different twisted algebras"):
        twisted[0].basis("1") + twisted[1].basis("1")
    crossed = [CrossedProductAlgebra(t, AFF_A1, {"s": coeff(3), "t": coeff(3)}) for t in twisted]
    with pytest.raises(ValueError, match="elements of different crossed products"):
        crossed_mul(crossed[0].basis("1"), crossed[1].basis("1"))


def test_crossed_degenerates_to_twisted(table5, ctx5):
    alg = build_example_algebra(table5)
    twisted = alg.twisted
    for u in ctx5.window(1, 1):
        for v in ctx5.window(1, 1):
            crossed = crossed_mul(alg.basis(u), alg.basis(v))
            flat = twisted_mul(twisted.basis(u), twisted.basis(v))
            assert {g: c for (g, w), c in crossed.terms.items()} == flat.terms


def test_crossed_degenerates_to_hecke():
    params = {"s": coeff(3), "t": coeff(3)}
    twisted = TwistedGroupAlgebra(lambda u, v: "1", lambda u, v: COEFF_ONE, "1")
    alg = CrossedProductAlgebra(twisted, A2, params)
    words = [(), ("s",), ("t",), ("s", "t")]
    for v in words:
        for w in words:
            crossed = crossed_mul(alg.basis("1", v), alg.basis("1", w))
            plain = hecke_mul(
                GenericHeckeElem.basis(A2, v), GenericHeckeElem.basis(A2, w), params
            )
            assert {word: c for (g, word), c in crossed.terms.items()} == plain.terms


def test_crossed_action_twists_hecke_factor():
    # the nontrivial letter swap on the infinite dihedral factor
    params = {"s": coeff(3), "t": coeff(3)}
    group = {"1": 0, "g": 1}  # order-two group acting by the swap

    def gmul(a, b):
        return "1" if group[a] ^ group[b] == 0 else "g"

    def action(a, letter):
        if a == "g":
            return "t" if letter == "s" else "s"
        return letter

    twisted = TwistedGroupAlgebra(gmul, lambda u, v: COEFF_ONE, "1")
    alg = CrossedProductAlgebra(twisted, AFF_A1, params, action=action, inverse=lambda g: g)
    left = crossed_mul(alg.basis("1", ("s",)), alg.basis("g", ()))
    assert left.terms == {("g", ("t",)): COEFF_ONE}
    # associativity across the action
    rng = random.Random(79)
    basis_pool = [alg.basis(g, w) for g in ("1", "g") for w in [(), ("s",), ("t",), ("s", "t")]]
    for _ in range(100):
        a, b, c = (rng.choice(basis_pool) for _ in range(3))
        assert crossed_mul(crossed_mul(a, b), c) == crossed_mul(a, crossed_mul(b, c))


# -- the example algebra -----------------------------------------------------------------------


def test_example_structure_constants(table5):
    alg = build_example_algebra(table5)
    uv, c = structure_constant(alg, W_S, W_Z)
    assert uv == W_S * W_Z
    assert c in (HeckeCoeff(1, 0), HeckeCoeff(-1, 0), HeckeCoeff(0, 1), HeckeCoeff(0, -1))
    uv, c = structure_constant(alg, W_S, W_S)
    assert uv == W_ID and c == COEFF_ONE


def test_example_commutation_certificate(table5):
    # e_s e_z e_s^-1 e_z^-1 = -e_1
    alg = build_example_algebra(table5)
    prod = crossed_mul(
        crossed_mul(crossed_mul(alg.basis(W_S), alg.basis(W_Z)), alg.basis(W_S.inverse())),
        alg.basis(W_Z.inverse()),
    )
    assert prod.terms == {(W_ID, ()): HeckeCoeff(-1, 0)}


def test_central_elements_commute(table5):
    alg = build_example_algebra(table5)
    z2 = W_Z * W_Z
    a = crossed_mul(alg.basis(W_Z), alg.basis(z2))
    b = crossed_mul(alg.basis(z2), alg.basis(W_Z))
    assert a == b


def test_structure_constant_rows_deterministic(table5, ctx5):
    window = ctx5.window(1, 1)
    rows1 = structure_constant_rows(build_example_algebra(table5), window)
    rows2 = structure_constant_rows(build_example_algebra(CocycleTable(ctx5)), window)
    assert rows1 == rows2
    assert len(rows1) == len(window) ** 2

"""The residue certificates behind the report's weyl and cocycle rows, and
planted mutants that each certificate must reject."""

import pytest

from sl8hecke import cocycle, groupmodel, matrices
from sl8hecke.cocycle import cocycle_certificate, rho0_certificate
from sl8hecke.groupmodel import PARAHORIC, STABILIZER, letters
from sl8hecke.hecke import HeckeContext
from sl8hecke.residue import eta_residue, make_field
from sl8hecke.tower import E2, Tower

VARIANTS = (STABILIZER, PARAHORIC)
QS = (5, 9, 13, 53)


def _context(q, variant):
    # a fresh tower per context, so a planted letter never reaches another test
    return HeckeContext(Tower(make_field(q), 40), variant)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("q", QS)
def test_cocycle_certificate_holds(q, variant):
    cert = cocycle_certificate(_context(q, variant))
    assert set(cert.relations) == {"s^2", "[s, z]", "[s, eps]", "s'^2", "[s', z]", "[s', eps]", "eps^2"}
    assert all(cert.relations.values()) and cert.normalizes and cert.invariant and cert.holds


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("q", QS)
def test_rho0_certificate_holds(q, variant):
    cert = rho0_certificate(_context(q, variant))
    assert cert.reduction and cert.multiplicative and cert.restriction and cert.holds


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("q", (5, 9, 13))
def test_rescaled_affine_letter_breaks_the_letter_relations(q, variant):
    ctx = _context(q, variant)
    tw = ctx.tower
    # s' with its first entry scaled by pi2: s'^2 = diag(-pi2, -pi2) leaves T0
    letters(tw)["s'"] = ("anti", ((1, 0), (tw.field.neg(1), 1), (1, 0)))
    cert = cocycle_certificate(ctx)
    assert not cert.relations["s'^2"]
    assert not cert.lift_multiplicative and not cert.holds
    # the planted letter is still monomial, and rho is untouched
    assert cert.normalizes and cert.invariant


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("q", (5, 9, 13))
def test_character_of_the_x_entry_breaks_invariance(q, variant, monkeypatch):
    monkeypatch.setattr(cocycle, "rho_residues", lambda fld, rx, ry, rz: eta_residue(fld, rx))
    cert = cocycle_certificate(_context(q, variant))
    assert not cert.invariant and not cert.holds
    assert cert.lift_multiplicative


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("q", (5, 9, 13))
def test_eta_of_the_d_residue_breaks_the_norm_reduction(q, variant, monkeypatch):
    # eta(d_res) in place of eta(N(d)) = eta(d_res**2): multiplicative, but not rho0
    monkeypatch.setattr(matrices, "rho0", lambda g, v: eta_residue(g.d.tower.field, g.d.unit_residue()))
    cert = rho0_certificate(_context(q, variant))
    assert not cert.reduction and not cert.restriction and not cert.holds


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("q", (5, 9, 13))
def test_witnesses_outside_the_iwahori_break_multiplicativity(q, variant, monkeypatch):
    # l(1) in place of l(pi2): the c-entry is a unit, so c_g * b_h reaches the d-residue
    monkeypatch.setattr(cocycle, "lower_l", lambda tw, c: groupmodel.lower_l(tw, tw.one(E2)))
    cert = rho0_certificate(_context(q, variant))
    assert not cert.multiplicative and not cert.reduction and not cert.holds

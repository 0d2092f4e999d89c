"""The 2-cocycle of the canonical lift family, and the certificates behind it.

Everything here reads a :class:`~sl8hecke.hecke.HeckeContext` for its
tower, variant and window; nothing here is needed to multiply in the Hecke
algebra, so `hecke` does not import this module.

  * :class:`CocycleTable`: mu(w1, w2) = rho(lift(w1 w2)^-1 lift(w1)
    lift(w2)), the obstruction to the lift family being multiplicative.
    For the canonical family the discrepancy is the `term_product` of the
    lifts' terms, over F_q with no Laurent arithmetic; a family perturbed
    by compact-torus factors, whose entries are series, multiplies matrices.
    The commutator pairing beta(u, v) = mu(u,v)/mu(v,u) on commuting pairs
    is invariant under changing the lift family by compact-torus factors,
    so beta != 1 certifies that the cohomology class of mu is non-trivial
    and that the torus character admits no extension to its normaliser
    (``nontriviality_certificate``).  mu(s, z), mu(z, s) and beta(s, z)
    read only the lifts of s, z and sz, so the checks that vary the family
    for them perturb those three alone.

  * ``cocycle_certificate`` and ``rho0_certificate``: the facts behind
    the cocycle and the depth-zero character, checked on the letter lifts'
    terms (`groupmodel.letters`) and exhausted over residues (every
    character involved has depth zero).  The letter relations lie in the
    compact torus, the letter lifts normalise it and fix rho, and rho0 is
    the quadratic character of the d-entry residue.

  * ``perturbed_table``, ``sz_perturbed_table`` and
    ``multiplicative_family_search``: lift families twisted by random
    compact-torus members (`reference.random_KM0`), the sampled
    cross-checks of the same facts.  They import `reference` when called,
    so the report, which reads the certificates, never loads it.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .groupmodel import (
    admissible_torus_residues,
    in_compact_torus,
    letter_relations,
    letters,
    lower_l,
    rho_residues,
    term_inverse,
    term_product,
    upper_u,
)
from .hecke import ClassificationError, HeckeContext
from .matrices import GroupElem, TorusElem, commutator, in_K0, in_KM0, rho0, rho_M0
from .residue import UNIT_ONE, UnitI, sgn
from .tower import E2, E4, LaurentElem
from .weyl import W_ID, W_S, W_Z, WeylElem, lift_memos, lift_terms


class CocycleTable:
    """mu-values of a lift family: the canonical lifts, optionally perturbed
    by compact-torus factors (the identity keeps its lift, so mu is
    normalised)."""

    def __init__(self, ctx: HeckeContext, perturbation: dict[WeylElem, TorusElem] | None = None):
        self.ctx = ctx
        self.perturbation = dict(perturbation or {})
        self.perturbation.pop(W_ID, None)
        self._mu: dict[tuple[WeylElem, WeylElem], UnitI] = {}
        self._lift_memos = lift_memos(ctx.tower)

    def family_lift(self, w: WeylElem) -> GroupElem:
        base = self.ctx.lift(w)
        k = self.perturbation.get(w)
        return base * k.to_group() if k is not None else base

    def family_lift_inverse(self, w: WeylElem) -> GroupElem:
        k = self.perturbation.get(w)
        if k is None:
            return self.ctx.lift_inverse(w)
        return k.inverse().to_group() * self.ctx.lift_inverse(w)

    def mu(self, w1: WeylElem, w2: WeylElem) -> UnitI:
        """rho of the discrepancy lift(w1 w2)^-1 lift(w1) lift(w2), for w1, w2 in W of any size."""
        key = (w1, w2)
        got = self._mu.get(key)
        if got is None:
            self.ctx.require_in_W(w1)
            self.ctx.require_in_W(w2)
            got = self._mu[key] = self._matrix_mu(w1, w2) if self.perturbation else self._canonical_mu(w1, w2)
        return got

    def _matrix_mu(self, w1: WeylElem, w2: WeylElem) -> UnitI:
        disc = self.family_lift_inverse(w1 * w2) * self.family_lift(w1) * self.family_lift(w2)
        if not disc.is_diagonal():
            raise ClassificationError("lift discrepancy is not diagonal")
        tt = disc.to_torus()
        if not in_KM0(tt, self.ctx.variant):
            raise ClassificationError("lift discrepancy left the compact torus")
        return rho_M0(tt)

    def _canonical_mu(self, w1: WeylElem, w2: WeylElem) -> UnitI:
        # the canonical lifts are exact monomials: the discrepancy is the
        # product of their (residue, exponent) terms over F_q, read from the
        # memos of `lift_terms` (terms are non-empty, so `or` marks a miss)
        tower, (fwd, inv) = self.ctx.tower, self._lift_memos
        fld, w = tower.field, w1 * w2
        disc = term_product(
            fld,
            inv.get(w) or lift_terms(tower, w, True),
            fwd.get(w1) or lift_terms(tower, w1),
            fwd.get(w2) or lift_terms(tower, w2),
        )
        kind, ((rx, _), (ry, _), (rz, _)) = disc
        if kind != "diag":
            raise ClassificationError("lift discrepancy is not diagonal")
        if not in_compact_torus(fld, self.ctx.variant, disc):
            raise ClassificationError("lift discrepancy left the compact torus")
        return rho_residues(fld, rx, ry, rz)

    def beta(self, u: WeylElem, v: WeylElem) -> UnitI:
        """mu(u,v)/mu(v,u) on commuting pairs; equal to rho of the commutator
        of the lifts, hence independent of the lift family."""
        if u * v != v * u:
            raise ValueError(f"{u} and {v} do not commute")
        ratio = self.mu(u, v) * self.mu(v, u).inverse()
        com = commutator(self.family_lift(u), self.family_lift(v))
        if not com.is_diagonal():
            raise ClassificationError("commutator of lifts is not diagonal")
        direct = rho_M0(com.to_torus())
        if ratio != direct:
            raise ClassificationError("mu-ratio disagrees with the commutator value")
        return direct

    def cocycle_identity_holds(self, u: WeylElem, v: WeylElem, w: WeylElem) -> bool:
        return self.mu(u, v) * self.mu(u * v, w) == self.mu(v, w) * self.mu(u, v * w)


class Certificate(NamedTuple):
    """Outcome of the non-triviality search."""

    nontrivial: bool
    pair: tuple[WeylElem, WeylElem] | None
    value: UnitI | None

    @property
    def extension_obstructed(self) -> bool:
        # a character extension would kill every commutator of lifts,
        # forcing beta = 1 on commuting pairs
        return self.nontrivial


def nontriviality_certificate(table: CocycleTable) -> Certificate:
    """A commuting pair with beta != 1, certifying a non-trivial cohomology
    class (beta is invariant under coboundaries)."""
    window = table.ctx.window(2, 1)
    # (s, z) first, then the window pairs; the dict keeps each pair once, in order
    candidates = dict.fromkeys([(W_S, W_Z)] + [(u, v) for u in window for v in window])
    for u, v in candidates:
        if u * v != v * u:
            continue
        value = table.beta(u, v)
        if value != UNIT_ONE:
            return Certificate(True, (u, v), value)
    return Certificate(False, None, None)


# ---------------------------------------------------------------------------------
# residue certificates: the sampled group facts, exhausted over residues


class CocycleCertificate(NamedTuple):
    """The letter facts that make mu a 2-cocycle on all of W, with L the
    canonical lift and T0 the compact torus of the variant.

    (a) `relations` maps L(a)**2, [L(a), L(z)] and [L(a), L(eps)] for a in
        {s, s'}, and L(eps)**2, to whether each lands in T0.  `normalizes`:
        conjugation by each letter lift sends diag(x, y, z) to itself (a
        diagonal lift) or to diag(y, x, z) (an antidiagonal one), and the T0
        conditions read x and y only through x * y, so every lift normalises T0.
    (b) `invariant`: rho is fixed by that swap on every unit triple of T0.
        rho has depth zero, so this is exhausted over the (q - 1)**2 residue
        pairs (xy, z) and the fibre of each admissible one.

    Then every L(uv)^-1 L(u) L(v) lies in T0, mu is a 2-cocycle on all of W,
    and changing the lifts by T0 factors changes mu by a coboundary:
    beta(u, v) is the same in every compact-torus lift family (K. S. Brown,
    Cohomology of Groups, ch. IV).
    """

    relations: dict[str, bool]
    normalizes: bool
    invariant: bool

    @property
    def lift_multiplicative(self) -> bool:
        """(a): L is a homomorphism modulo T0."""
        return self.normalizes and all(self.relations.values())

    @property
    def holds(self) -> bool:
        return self.lift_multiplicative and self.invariant


def cocycle_certificate(ctx: HeckeContext) -> CocycleCertificate:
    """Check (a) and (b) of `CocycleCertificate` on the (residue, exponent)
    terms of the letter lifts and on residues, with no Laurent arithmetic."""
    fld, variant = ctx.tower.field, ctx.variant
    terms = letters(ctx.tower)
    # a witness with three distinct residues shows each letter's permutation
    x, y, z = ((fld.pow(fld.zeta, k), 0) for k in (1, 2, 3))
    normalizes = all(
        term_product(fld, m, ("diag", (x, y, z)), term_inverse(fld, m))
        == ("diag", (y, x, z) if m[0] == "anti" else (x, y, z))
        for m in terms.values()
    )
    invariant = all(
        rho_residues(fld, rx, ry, rz) == rho_residues(fld, ry, rx, rz)
        for xy, rz in admissible_torus_residues(fld, variant)
        for ry in range(1, fld.q)
        for rx in (fld.mul(xy, fld.inv(ry)),)
    )
    return CocycleCertificate(letter_relations(ctx.tower, variant), normalizes, invariant)


class Rho0Certificate(NamedTuple):
    """The reduction of rho0(g) = eta(N(d)) on the compact subgroup K0 to the
    residue of g's d-entry, on an exact witness for every unit residue r.

    - `reduction`: g_r = l(pi2) * diag(r^-1, r) * u(1) lies in K0 with
      d-entry r + r^-1 * pi2, and rho0(g_r) = sgn(r): E2/F is ramified, so
      N(d) = d_res**2 mod t, and eta(d_res**2) = sgn(d_res).
    - `multiplicative`: K0 lies in the Iwahori, so (gh)_d = c_g b_h + d_g d_h
      with c_g in the maximal ideal and b_h integral.  Over all (q - 1)**2
      witness pairs, the residue of (g_r g_r')_d, read from the entries'
      leading terms, has sgn(r) sgn(r'), so rho0 is multiplicative.
    - `restriction`: the monomial torus witness (r^-1, r, 1) lies in the
      compact torus, and rho0 of its matrix, rho_M0 and `rho_residues` agree.

    (Moy-Prasad, Invent. Math. 116, 1994: depth-zero characters factor
    through the reductive quotient.)
    """

    reduction: bool
    multiplicative: bool
    restriction: bool

    @property
    def holds(self) -> bool:
        return self.reduction and self.multiplicative and self.restriction


def _leading(x: LaurentElem) -> tuple:
    """(valuation, leading residue), (math.inf, 0) for zero."""
    return (math.inf, 0) if x.is_zero else (x.lead, x.unit_residue())


def rho0_certificate(ctx: HeckeContext) -> Rho0Certificate:
    """Check `Rho0Certificate` on the witnesses of the q - 1 unit residues
    and on every pair of them."""
    tw, variant = ctx.tower, ctx.variant
    fld = tw.field
    lower, upper = lower_l(tw, tw.uniformizer(E2)), upper_u(tw, 1)
    reduction = restriction = True
    witnesses = {}
    for r in range(1, fld.q):
        t = TorusElem(tw.constant(E2, fld.inv(r)), tw.constant(E2, r), tw.one(E4))
        g = lower * t.to_group() * upper
        reduction = reduction and in_K0(g, variant) and rho0(g, variant) == sgn(fld, g.d.unit_residue())
        restriction = (
            restriction
            and in_KM0(t, variant)
            and rho0(t.to_group(), variant) == rho_M0(t) == rho_residues(fld, fld.inv(r), r, 1)
        )
        witnesses[r] = (_leading(g.b), _leading(g.c), _leading(g.d))

    def d_residue_multiplies(g, h) -> bool:
        (_, (nc, rc), (nd, rd)), ((nb, rb), _, (ne, re)) = g, h
        if nd or ne or nc + nb < 0:
            return False
        res = fld.mul(rd, re)
        if nc + nb == 0:
            res = fld.add(res, fld.mul(rc, rb))
        return res != 0 and sgn(fld, res) == sgn(fld, rd) * sgn(fld, re)

    multiplicative = all(d_residue_multiplies(g, h) for g in witnesses.values() for h in witnesses.values())
    return Rho0Certificate(reduction, multiplicative, restriction)


def perturbed_table(ctx: HeckeContext, rng: random.Random) -> CocycleTable:
    """A lift family twisted by random compact-torus factors on the whole
    window, so that mu can be read on any window pair of the family."""
    from .reference import random_KM0

    perturbation = {}
    for w in ctx.window():
        if not w.is_identity():
            perturbation[w] = random_KM0(ctx.tower, ctx.variant, rng)
    return CocycleTable(ctx, perturbation)


def sz_perturbed_table(ctx: HeckeContext, rng: random.Random) -> CocycleTable:
    """A lift family twisted by random compact-torus factors on s, z and sz
    only: all that mu(s, z), mu(z, s) and beta(s, z) read."""
    from .reference import random_KM0

    return CocycleTable(ctx, {w: random_KM0(ctx.tower, ctx.variant, rng) for w in (W_S, W_Z, W_S * W_Z)})


def multiplicative_family_search(ctx: HeckeContext, rng: random.Random, trials: int = 40) -> int:
    """Count families (out of `trials` random ones) that are multiplicative on
    the length-additive pairs (s, z) and (z, s).

    beta(s, z) = -1 forces mu(s,z) != 1 or mu(z,s) != 1 in every family, so
    the count must be 0: no choice of representatives multiplies cleanly on
    length-additive pairs.  Both values read only the lifts of s, z and sz,
    so each family perturbs those three alone.
    """
    hits = 0
    for _ in range(trials):
        table = sz_perturbed_table(ctx, rng)
        if table.mu(W_S, W_Z) == UNIT_ONE and table.mu(W_Z, W_S) == UNIT_ONE:
            hits += 1
    return hits

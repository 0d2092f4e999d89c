"""Reference computations on matrices: the Iwahori factorisation and random
compact members.

None of this is on the report's path.  The report reads every double-coset
label and basis-function value from the invariants of a transversal family
(`groupmodel.pivot_step`, `hecke.TransversalFamily`) and every character
fact from residue certificates (`cocycle`), so no CLI command loads this
module.  What is here is the matrix form of the same computations, kept as
the oracle that tests and the sampled cross-checks compare against:

  * `iwahori_decompose` factors any invertible element as k1 * m * k2 with
    k1, k2 Iwahori (unipotent, so they land in both compact subgroups) and m
    monomial; pivots prefer the diagonal, then row order.  It reads the
    invariants through `pivot_step`, and the lazy builders of
    :class:`Decomposition` make m's series entry, k1 and k2 (each needing
    the pivot inverse) on first read from the matrix.  `HeckeContext.classify`
    and `phi` call it, importing this module when first called.

  * `random_KM0` and `random_K0` draw exact members of the compact torus
    and the compact subgroup, for property tests and the perturbed lift
    families of `cocycle`.

`groupmodel` still serves these four names (`__getattr__`), loading this
module on first read.
"""

from __future__ import annotations

import random
from collections import namedtuple
from functools import cached_property

from .groupmodel import PIVOT_CASES, STABILIZER, VARIANTS, lower_l, pivot_step, quotients_in_iwahori, upper_u
from .matrices import GroupElem, Monomial, TorusElem, _ordn, identity, in_K0, in_KM0
from .series import random_unit
from .tower import E2, E4, LaurentElem, PrecisionExhausted, Tower

# -- Iwahori factorisation ------------------------------------------------------------


class Decomposition(
    namedtuple("Decomposition", "g case kind ords residues quotient_ords product make_k1 make_k2")
):
    """g = make_k1(x) * m * make_k2(y / pivot) in the pivot case `case` of
    PIVOT_CASES.  kind ("diag" or "anti"), ords (ord_norm of m's first and
    second entries), residues (their leading residues) and quotient_ords
    (ord(num) - ord(pivot), ord(y) - ord(pivot)) come from `pivot_step`;
    product is first * second, det(g) for "diag" and -det(g) for "anti";
    make_k1 and make_k2 build k1 and k2 from the tower and a quotient.
    `pivot_inv`, `monomial` (with the series entry), k1 and k2 are built on
    first read and kept in the instance dict, which this subclass has for
    them (it declares no ``__slots__``)."""

    @property
    def g4(self) -> LaurentElem:
        return self.g.g4

    def _entries(self) -> tuple[LaurentElem, ...]:
        """(pivot, num, rest, y)"""
        entries = (self.g.a, self.g.b, self.g.c, self.g.d)
        return tuple(entries[i] for i in PIVOT_CASES[self.case][:4])

    def factors_in_iwahori(self) -> bool:
        return quotients_in_iwahori(self.quotient_ords, self.make_k1, self.make_k2)

    @cached_property
    def pivot_inv(self) -> LaurentElem:
        return self._entries()[0].inverse()

    @cached_property
    def x(self) -> LaurentElem:
        return self._entries()[1] * self.pivot_inv

    @cached_property
    def monomial(self) -> Monomial:
        pivot, _, rest, y = self._entries()
        comp = rest - self.x * y
        first, second = (pivot, comp) if PIVOT_CASES[self.case][0] < 2 else (comp, pivot)
        return Monomial(self.kind, first, second, self.g.g4)

    @cached_property
    def k1(self) -> GroupElem:
        return self.make_k1(self.g.a.tower, self.x)

    @cached_property
    def k2(self) -> GroupElem:
        return self.make_k2(self.g.a.tower, self._entries()[3] * self.pivot_inv)


def iwahori_decompose(g: GroupElem) -> Decomposition:
    """Factor g = k1 * m * k2 with k1, k2 unipotent Iwahori and m monomial.

    The unipotent factors have determinant 1 and trivial E4 part, so they
    lie in both compact subgroups.  Inverts nothing; raises ValueError for a
    singular matrix.
    """
    det = g.det2()
    if det.is_zero:
        raise ValueError("matrix is singular: the determinant is zero")
    entries = (g.a, g.b, g.c, g.d)
    residues = [0 if e.is_zero else e.unit_residue() for e in entries]
    case, ords, m_residues, quotient_ords = pivot_step(
        det.tower.field, [_ordn(e) for e in entries], residues, det.lead, det.unit_residue()
    )
    _, _, _, _, kind, make_k1, make_k2 = PIVOT_CASES[case]
    product = det if kind == "diag" else -det
    return Decomposition(g, case, kind, ords, m_residues, quotient_ords, product, make_k1, make_k2)


# -- random members (exact constructions, used by property checks) ----------------------


def random_KM0(tower: Tower, variant: str, rng: random.Random) -> TorusElem:
    """A random element of the compact torus.

    Built from pieces whose norm condition holds exactly by construction:
    a unit pair (u, u**-1, 1), Galois-quotient twists w/sigma(w) and
    v/sigma(v) (norm one on the nose), and a constant triple
    (zeta^a, zeta^b, zeta^c) solving 2(a+b) + 4c = 0 mod q-1.  The choice
    of c mod (q-1)/4 steers the parahoric residue condition.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    fld = tower.field
    u = random_unit(tower, E2, rng, depth=4)
    w = random_unit(tower, E2, rng, depth=3)
    v = random_unit(tower, E4, rng, depth=3)
    a = rng.randrange(fld.q - 1)
    b = rng.randrange(fld.q - 1)
    if (a + b) % 2:
        b = (b + 1) % (fld.q - 1)
    s = a + b
    quarter = (fld.q - 1) // 4
    c = (-(s // 2)) % quarter
    # s + 2c mod (q-1) is 0 or (q-1)/2 depending on the shift below
    if (s + 2 * c) % (fld.q - 1) != 0:
        c += quarter
    if variant == STABILIZER and rng.randrange(2):
        c += quarter  # flips into the sign coset, stabiliser only
    x = u * (w / w.galois(1)) * tower.constant(E2, fld.pow(fld.zeta, a))
    y = u.inverse() * tower.constant(E2, fld.pow(fld.zeta, b))
    z = (v / v.galois(1)) * tower.constant(E4, fld.pow(fld.zeta, c))
    tt = TorusElem(x, y, z)
    if not in_KM0(tt, variant):
        raise AssertionError("random compact-torus construction failed its membership")
    return tt


def random_K0(tower: Tower, variant: str, rng: random.Random) -> GroupElem:
    """A random element of the compact subgroup: a product of unipotents and
    compact-torus members, each an exact member.

    A draw is rejected and retried when a matrix entry cancels below window
    certainty (a rare genuine zero under inexact factors), so the sampler
    never manufactures an uncertified value.
    """
    for _ in range(64):
        try:
            g = identity(tower)
            for _ in range(rng.randrange(2, 5)):
                kind = rng.randrange(3)
                if kind == 0:
                    x = tower.from_coeffs(
                        E2,
                        rng.randrange(0, 3),
                        [rng.randrange(1, tower.q)] + [rng.randrange(tower.q) for _ in range(3)],
                    )
                    g = g * upper_u(tower, x)
                elif kind == 1:
                    c = tower.from_coeffs(
                        E2,
                        rng.randrange(1, 4),
                        [rng.randrange(1, tower.q)] + [rng.randrange(tower.q) for _ in range(3)],
                    )
                    g = g * lower_l(tower, c)
                else:
                    g = g * random_KM0(tower, variant, rng).to_group()
        except PrecisionExhausted:
            continue
        if not in_K0(g, variant):
            raise AssertionError("random compact-subgroup construction failed its membership")
        return g
    raise AssertionError("compact-subgroup sampling kept cancelling below window certainty")

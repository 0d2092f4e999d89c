"""Hecke-algebra computations for the depth-zero pair, and the 2-cocycle.

Everything here runs over a :class:`HeckeContext`, which fixes the tower,
the compact-subgroup variant, and the verification window (maximal word
length and central exponent).  The main computations:

  * ``coset_reps(w)``: an exact transversal of K/(K cap wKw^-1).  For a
    reduced word a_1 ... a_L it is the set of products of L root-subgroup
    factors (Iwahori-Matsumoto), factor i the letter unipotent, u(x) for
    the finite reflection and l(pi2*x) for the affine one, x over residue
    representatives, conjugated by the lift of a_1 ... a_{i-1}: an
    elementary unipotent whose coefficient is one exact term.  It is held
    as the product's multilinear forms over F_q (``base_family``), and is
    validated exhaustively from them: entry valuations show each member r
    in K, and r gets ``coset_key(r * lift(w))``, read from r's own entries,
    a right-K-invariant key (Hermite data of two Iwahori-stable lattices
    and ord of the E4 part).  Only members sharing a key get the exact pair
    test on their matrices, which are read off the forms on request.

  * ``classify(g)``: the double-coset label of g, obtained by the pivot
    step of the Iwahori factorisation on g's invariants (entry valuations
    and residues, the exact determinant), reading the valuation triple of
    the monomial part, and fixing the sign bit so that the discrepancy
    against the canonical lift lands in the compact torus.  The
    discrepancy membership is asserted; a failure would mean a wrong label.
    ``classify`` and ``phi`` analyse one matrix; they are the reference for
    the families below.

  * :class:`BaseFamily`: the members r(p) of a transversal, or their
    inverses, p the residue parameters.  Its entries are multilinear forms
    in p, composed from the factors (the inverses' from the factors in
    reverse order at -p), and each entry's digits are evaluated over F_q at
    every point; the members are grouped by the valuation pattern of their
    four entries (a handful per family).  The context builds, validates and
    memoises both per word and direction (``base_family``).

  * :class:`TransversalFamily`: left * r(p) * right over a base family, for
    exact monomial frames left and right given as terms (canonical lifts,
    `weyl.lift_terms`).  A monomial frame permutes the entries and shifts
    each one's exponent and scales its residue by a fixed term, so each
    point's invariants are read from the base with no matrix arithmetic,
    and everything but two residues is memoised per valuation pattern of
    the base's four entries.

  * ``convolve_at(w1, w2, g)``: the finite convolution sum
    sum_h phi_{w1}(h) phi_{w2}(h^-1 g) over h in the left cosets of
    K w1 K, evaluated exactly in Gaussian integers at an exact monomial g
    (one exact term per entry, as at every canonical lift), read once as
    terms (`monomial_terms`).  The second factors come from one family
    lift(w1)^-1 * r^-1 * g, one valuation pattern at a time: phi_{w2} at a
    member is the quadratic character of the discrepancy's y-residue, a
    pattern's fixed scale times a base residue, so each pattern adds its
    scale's sign times a sum over its members memoised per word of w1.  The
    left values phi_{w1}(r * lift(w1)) are all 1: every member r is a
    product of unipotents with d-entry residue 1 (checked), so the value is
    rho0(r) = eta(N(d)) = 1.

  * ``double_coset_product(w1, w2)``: the set of double cosets in
    K w1 K w2 K, the labels of the valuation patterns of the family
    lift(w1) * r * lift(w2) over the middle transversal r of
    K/(K cap w2 K w2^-1), one label per pattern.

  * :class:`CocycleTable`: mu(w1, w2) = rho(lift(w1 w2)^-1 lift(w1)
    lift(w2)), the obstruction to the lift family being multiplicative.
    For the canonical family the discrepancy is the `term_product` of the
    lifts' terms, over F_q with no Laurent arithmetic; a family perturbed
    by compact-torus factors, whose entries are series, multiplies matrices.
    The commutator pairing beta(u, v) = mu(u,v)/mu(v,u) on commuting pairs
    is invariant under changing the lift family by compact-torus factors,
    so beta != 1 certifies that the cohomology class of mu is non-trivial
    and that the torus character admits no extension to its normaliser.
    mu(s, z), mu(z, s) and beta(s, z) read only the lifts of s, z and sz, so
    the checks that vary the family for them perturb those three alone.

  * ``cocycle_certificate`` and ``rho0_certificate``: the facts behind
    the cocycle and the depth-zero character, checked on the letter lifts'
    terms (`groupmodel.letters`) and exhausted over residues (every
    character involved has depth zero).  The letter relations lie in the
    compact torus, the letter lifts normalise it and fix rho, and rho0 is
    the quadratic character of the d-entry residue.  The perturbed
    families and the random members of `groupmodel` are the sampled
    cross-checks of the same facts.
"""

from __future__ import annotations

import math
import random
from functools import cached_property
from typing import NamedTuple

from .groupmodel import (
    PARAHORIC,
    STABILIZER,
    PIVOT_CASES,
    Decomposition,
    GroupElem,
    MembershipError,
    TorusElem,
    admissible_torus_residues,
    commutator,
    compact_torus_conditions,
    in_K0,
    in_KM0,
    iwahori_decompose,
    letters,
    lower_l,
    monomial_terms,
    pivot_step,
    quotients_in_iwahori,
    random_KM0,
    rho0,
    rho_M0,
    rho_residues,
    term_inverse,
    term_product,
    upper_u,
)
from .residue import COEFF_ONE, COEFF_ZERO, HeckeCoeff, UNIT_ONE, UnitI, eta_residue, sgn
from .tower import E2, E4, LaurentElem, Tower
from .weyl import (
    S,
    W_ID,
    W_S,
    W_Z,
    WeylElem,
    lift,
    lift_inverse,
    lift_memos,
    lift_terms,
    plength,
    translation_power,
    window_elements,
)


class WindowExceeded(ValueError):
    """A Weyl element fell outside the verification window."""


class ClassificationError(RuntimeError):
    """The double-coset label could not be established."""


class TransversalError(RuntimeError):
    """A coset transversal failed its validation: a member outside K, two
    members in one coset, or a member whose d-entry residue is not 1."""


def coset_key(h: GroupElem) -> tuple:
    """A key of h that is invariant under h -> h * k for k in the Iwahori x O4^x,
    hence for k in either compact subgroup.

    The key holds ord of the E4 part and the Hermite data of two lattices
    that the Iwahori preserves: the span of the columns of h's 2x2 part, and
    of h * diag(1, pi2).  Such a lattice has the basis (pi^e1, pi^e1 * y),
    (0, pi^beta), with e1 the least valuation in its top row, beta =
    ord(det) - e1, and y the quotient bottom / top of a column attaining e1,
    determined modulo pi^(beta - e1).
    """
    return _coset_key(((h.a, h.c), (h.b, h.d)), (0, 0), h.det2().lead, h.g4.lead)


def _coset_key(cols, shifts, det_ord: int, g4_ord: int) -> tuple:
    """`coset_key` of the matrix whose column j is cols[j], (top, bottom),
    times a term of exponent shifts[j], given ord of its det and E4 part."""
    ((top1, bottom1), (top2, bottom2)), (s1, s2) = cols, shifts
    key = [g4_ord]
    for shift in (0, 1):
        # (e1, beta, y mod pi^(beta - e1)) of the span of column 1 and pi^shift *
        # column 2; scaling a column leaves its quotient as it is
        if top2.is_zero or (not top1.is_zero and top1.lead + s1 <= top2.lead + s2 + shift):
            top, bottom, e1 = top1, bottom1, top1.lead + s1
        else:
            top, bottom, e1 = top2, bottom2, top2.lead + s2 + shift
        beta = det_ord + shift - e1
        key.append((e1, beta, _quotient_digits(bottom, top, beta - e1)))
    return tuple(key)


def _quotient_digits(num: LaurentElem, den: LaurentElem, bound: int) -> tuple:
    """num / den modulo pi^bound, by truncated division: (exponent of the
    leading digit, the digits up to exponent bound - 1), or () when the
    quotient lies in pi^bound O.  Raises TransversalError when a digit it
    needs lies beyond an inexact operand's window.

    It keeps its own loop rather than `series_inverse` and `mul_trunc`: a
    call needs one to four digits, and through those kernels a call cost
    about twice as much (2.7-3.1 against 5.6-6.4 us, the best of 5 in each
    of two runs on every 12th of the 247,524 calls that `omega_check(4, 2)`
    makes at q = 13 over both variants, on a 2-core host)."""
    if num.is_zero:
        return ()
    lead = num.lead - den.lead
    count = bound - lead
    if count <= 0:
        return ()
    tw = num.tower
    if count > tw.N and not (num.exact and den.exact):
        raise TransversalError(f"coset key needs {count} quotient digits; the window certifies {tw.N}")
    fld = tw.field
    n, d = num.coeffs, den.coeffs
    d0_inv = fld.inv(d[0])
    digits: list[int] = []
    for k in range(count):
        acc = n[k] if k < len(n) else 0
        for j in range(1, min(k, len(d) - 1) + 1):
            acc = fld.sub(acc, fld.mul(d[j], digits[k - j]))
        digits.append(fld.mul(acc, d0_inv))
    return lead, tuple(digits)


class HeckeContext:
    """Session state: tower + variant + window, with memoised transversals.

    Nothing here draws random numbers; `rng` is accepted for callers that
    still pass one and is ignored."""

    def __init__(
        self,
        tower: Tower,
        variant: str = STABILIZER,
        window_words: int = 4,
        window_z: int = 2,
        rng: random.Random | None = None,
    ):
        if variant not in (STABILIZER, PARAHORIC):
            raise ValueError(f"unknown variant {variant!r}")
        self.tower = tower
        self.variant = variant
        self.window_words = window_words
        self.window_z = window_z
        self._bases: dict[tuple[tuple[str, ...], bool], BaseFamily] = {}
        self._conv_patterns: dict[tuple[str, ...], list[tuple[int, dict[int, HeckeCoeff]]]] = {}
        self._labels: dict[tuple, tuple | str] = {}

    # -- window -------------------------------------------------------------

    def require_window(self, w: WeylElem) -> None:
        if len(w.word) > self.window_words or abs(w.zexp) > self.window_z:
            raise WindowExceeded(f"{w} outside window (words<={self.window_words}, |z|<={self.window_z})")

    def window(self, max_word: int | None = None, max_z: int | None = None) -> list[WeylElem]:
        return window_elements(
            self.window_words if max_word is None else max_word,
            self.window_z if max_z is None else max_z,
            include_eps=(self.variant == PARAHORIC),
        )

    def lift(self, w: WeylElem) -> GroupElem:
        return lift(self.tower, w)

    def lift_inverse(self, w: WeylElem) -> GroupElem:
        return lift_inverse(self.tower, w)

    def lift_terms(self, w: WeylElem, inverse: bool = False) -> tuple[str, tuple]:
        return lift_terms(self.tower, w, inverse)

    # -- transversals ----------------------------------------------------------

    def coset_reps(self, w: WeylElem) -> list[GroupElem]:
        return list(self.base_family(w).members)

    def coset_reps_with_inverses(self, w: WeylElem) -> list[tuple[GroupElem, GroupElem]]:
        return list(zip(self.base_family(w).members, self.base_family(w, True).members))

    def base_family(self, w: WeylElem, inverse: bool = False) -> "BaseFamily":
        """The transversal of K/(K cap wKw^-1) (its members, or their inverses
        when `inverse`); it depends only on the word part.

        For the reduced word a_1 ... a_L, member i is r(p) = X_1(p_1) ... X_L(p_L)
        with p the base-q digits of i, p_1 the most significant, and its
        inverse is X_L(-p_L) ... X_1(-p_1) (`_factors`).  Both directions are
        built from their forms, validated, and memoised on the word."""
        self.require_window(w)
        key = w.word
        if (key, inverse) not in self._bases:
            tw, factors = self.tower, self._factors(key)
            directions = (factors, [(i, lower, tw.field.neg(c), e) for i, lower, c, e in reversed(factors)])
            bases = [BaseFamily(tw, len(key), _product_forms(tw.field, len(key), f)) for f in directions]
            self._validate_transversal(w, *bases)
            self._bases[(key, False)], self._bases[(key, True)] = bases
        return self._bases[(key, inverse)]

    def _factors(self, word: tuple[str, ...]) -> list[tuple[int, bool, int, int]]:
        """The root-subgroup factors X_i(p_i) = P Y_{a_i}(p_i) P^-1 of the
        transversal of a reduced word, P = lift(a_1 ... a_{i-1}), with
        Y_s(x) = u(x) and Y_{s'}(x) = l(pi2 * x): each the elementary
        unipotent u(c * pi2**e * p_i), or l(...) when lower, as (i, lower, c, e).

        A diagonal P = diag(m1, m2) scales the coefficient of u by m1 / m2 and
        of l by m2 / m1; an antidiagonal one also swaps u and l."""
        fld = self.tower.field
        out = []
        for i, letter in enumerate(word):
            kind, ((r1, e1), (r2, e2), _) = self.lift_terms(WeylElem(word[:i]))
            lower = (letter != S) != (kind == "anti")
            (rn, en), (rd, ed) = ((r2, e2), (r1, e1)) if lower else ((r1, e1), (r2, e2))
            out.append((i, lower, fld.mul(rn, fld.inv(rd)), en - ed + (letter != S)))
        return out

    def _validate_transversal(self, w: WeylElem, base: "BaseFamily", inverse: "BaseFamily") -> None:
        """Every member r of `base` (`inverse` holds their inverses) must lie
        in K with d-entry residue 1, and distinct members in distinct cosets
        of K cap wKw^-1, checked exhaustively.

        Every member is a product of elementary unipotents, so its det and E4
        part are 1, and it lies in K (either variant) iff a and d are units,
        b is integral and c lies in the maximal ideal, read from `base.ords`.
        With d = 1 mod pi2, phi_w(r * lift(w)) = rho0(r) = eta(N(d)) = 1.

        r * k with k in K cap wKw^-1 gives (r * k) * lift(w) =
        (r * lift(w)) * (lift(w)^-1 k lift(w)), a right K-multiple, so the
        right-K-invariant `coset_key` of r * lift(w) is constant on a coset:
        distinct keys prove distinct cosets, and only members sharing a key
        get the exact pair test.  Column j of r * lift(w) is a column of r,
        swapped when lift(w) is antidiagonal, times one term of lift(w): the
        key is read from r's entries."""
        word = WeylElem(w.word)
        kind, ((_, e1), (_, e2), (_, e4)) = self.lift_terms(word)
        cols, shifts = (((0, 2), (1, 3)), (e1, e2)) if kind == "diag" else (((1, 3), (0, 2)), (e2, e1))
        buckets: dict[tuple, list[int]] = {}
        for i, ((na, nb, nc, nd), res) in enumerate(zip(base.ords, base.residues)):
            if na != 0 or nd != 0 or nb < 0 or nc < 1:
                raise TransversalError(f"non-member representative for {w}")
            if res[3] != 1:
                raise TransversalError(f"a member of the transversal of {w} has d-entry residue other than 1")
            key = _coset_key([(base.entry(i, t), base.entry(i, b)) for t, b in cols], shifts, e1 + e2, e4)
            buckets.setdefault(key, []).append(i)
        for bucket in buckets.values():
            for k, i in enumerate(bucket):
                for j in bucket[k + 1 :]:
                    r_j = base.members[j]
                    if self._same_coset(self.lift_inverse(word), inverse.members[i], r_j, r_j * self.lift(word)):
                        raise TransversalError(f"duplicate coset in transversal of {w}")

    def _same_coset(self, w_lift_inv: GroupElem, r_i_inv: GroupElem, r_j: GroupElem, h_j: GroupElem) -> bool:
        """r_i and r_j share a coset of K cap wKw^-1, with h_j = r_j * lift(w):
        r_i^-1 r_j lies in wKw^-1 and in K, the first, rarely true, tested first."""
        return in_K0(w_lift_inv * (r_i_inv * h_j), self.variant) and in_K0(r_i_inv * r_j, self.variant)

    # -- classification -----------------------------------------------------------

    def _candidates(self, anti: bool, n1: int, n2: int, n3: int):
        """The sign-bit candidates for monomial data of this kind and valuation
        triple, as (label, the terms of the x- and y-entries and E4 part of the
        label's lift inverse), or the message of the ClassificationError they raise."""
        if n3 % 2 or n1 + n2 + n3 != 0:
            return f"valuation triple {(n1, n2, n3)} outside the group image"
        zexp = -n3 // 2
        b = n1 - zexp
        if n2 != zexp - b:
            return f"inconsistent valuation triple {(n1, n2, n3)}"
        core = translation_power(b)
        if anti:
            core = core * W_S
        out = []
        for ebit in (0, 1) if self.variant == PARAHORIC else (0,):
            cand = WeylElem(core.word, zexp, ebit)
            kind, terms = self.lift_terms(cand, inverse=True)
            # inv * m is diagonal iff inv is monomial of m's kind
            if (kind == "anti") != anti:
                return "discrepancy is not diagonal"
            out.append((cand, *terms))
        return out

    def _choose_label(self, kind: str, ords, residues, product, g4):
        """Name the double coset of monomial data m of this kind, with entry
        valuations `ords`, residues `residues`, exact entry product `product`
        and E4 part g4: (label, residue of the y-entry of the label's lift
        inverse, index of m's entry it meets in the compact-torus
        discrepancy lift(label)^-1 * m), or the ClassificationError message.

        The discrepancy's residue condition reads rx * ry = res(lx * ly) * r1 * r2
        and r1 * r2 = res(product), so with product and g4 fixed the outcome
        depends on the residues not at all: it is memoised on kind, ords,
        product and g4 (`_find_label` is the analysis itself).
        """
        key = (kind, ords, product.lead, product.coeffs, g4.lead, g4.coeffs)
        got = self._labels.get(key)
        if got is None:
            got = self._labels[key] = self._find_label(kind, ords, residues, product, g4)
        return got

    def _find_label(self, kind: str, ords, residues, product, g4):
        anti = kind == "anti"
        (n1, n2), (r1, r2) = ords, residues
        cands = self._candidates(anti, n1, n2, g4.ord_norm())
        if isinstance(cands, str):
            return cands
        tw = self.tower
        fld = tw.field
        # disc = diag(lx * first, ly * second), or (lx * second, ly * first) if anti
        (nx, rx), (ny, ry), pos = ((n2, r2), (n1, r1), 0) if anti else ((n1, r1), (n2, r2), 1)
        for cand, (lxr, lxe), (lyr, lye), (l4r, l4e) in cands:
            z = LaurentElem(tw, E4, l4e, (l4r,)) * g4
            disc_ords = (lxe + nx, lye + ny, z.lead)
            res = (fld.mul(lxr, rx), fld.mul(lyr, ry), z.unit_residue())
            lxy = LaurentElem(tw, E2, lxe + lye, (fld.mul(lxr, lyr),))
            if compact_torus_conditions(fld, self.variant, disc_ords, res, (lxy, product), z):
                return cand, lyr, pos
        return "no sign bit matches the discrepancy"

    def _analyze_matrix(self, g: GroupElem) -> tuple[WeylElem, Decomposition, int]:
        dec = iwahori_decompose(g)
        got = self._choose_label(dec.kind, dec.ords, dec.residues, dec.product, dec.g4)
        if isinstance(got, str):
            raise ClassificationError(got)
        label, ly_res, pos = got
        return label, dec, self.tower.field.mul(ly_res, dec.residues[pos])

    def classify(self, g: GroupElem) -> WeylElem:
        """Double-coset label of g; raises WindowExceeded outside the window."""
        w = self._analyze_matrix(g)[0]
        self.require_window(w)
        return w

    # -- basis functions and convolution ----------------------------------------------

    def phi(self, w: WeylElem, g: GroupElem, scale: HeckeCoeff = COEFF_ONE) -> HeckeCoeff:
        """Value at g of the basis function supported on the double coset of w,
        normalised to `scale` at the canonical lift; raises ClassificationError
        when g has no double-coset label."""
        label, dec, disc_ry = self._analyze_matrix(g)
        return self._phi_value(w, label, dec.factors_in_iwahori(), disc_ry, scale)

    def _phi_value(
        self, w: WeylElem, label: WeylElem, factors_in_iwahori: bool, disc_ry: int, scale: HeckeCoeff = COEFF_ONE
    ) -> HeckeCoeff:
        if label != w:
            return COEFF_ZERO
        # rho0(k1) * rho0(disc * k2) with disc in the compact torus: both lie in
        # K iff k1 and k2 are Iwahori, rho0(k1) = 1, and rho0(disc * k2) is eta
        # of N(y-entry of disc), which reads only its residue disc_ry**2
        if not factors_in_iwahori:
            raise MembershipError("element is outside the compact subgroup")
        fld = self.tower.field
        value = eta_residue(fld, fld.mul(disc_ry, disc_ry)).as_coeff()
        return value if scale is COEFF_ONE else scale * value

    def _left_patterns(self, w: WeylElem) -> list[tuple[int, dict[int, HeckeCoeff]]]:
        """The valuation patterns of the inverse family of w, memoised per
        word: (first member, S(k) = the sum of sgn(residue of base entry k
        at i) over the pattern's members i, by base entry k, none for an entry
        that is zero across the pattern and so never a pivot)."""
        got = self._conv_patterns.get(w.word)
        if got is None:
            base = self.base_family(w, True)
            fld, res = self.tower.field, base.residues
            got = self._conv_patterns[w.word] = [
                (members[0], {k: _sgn_sum(fld, (res[i][k] for i in members)) for k in range(4) if res[members[0]][k]})
                for members in base.patterns
            ]
        return got

    def convolve_at(self, w1: WeylElem, w2: WeylElem, g: GroupElem) -> HeckeCoeff:
        """(phi_{w1} * phi_{w2})(g), an exact Gaussian integer, at an exact
        monomial g (one exact term per entry, as at every canonical lift); any
        other g raises ValueError.  The left value phi_{w1}(r * lift(w1)) is 1
        at every member r (`base_family` checks its d-residue),
        so each valuation pattern of the family lift(w1)^-1 * r^-1 * g adds
        its value at its scale times S(source)."""
        self.require_window(w1)
        self.require_window(w2)
        right = monomial_terms(g)
        if right is None:
            raise ValueError("convolve_at needs an exact monomial g, one exact term per entry")
        fam = TransversalFamily(self, self.lift_terms(w1, inverse=True), self.base_family(w1, True), right)
        total = COEFF_ZERO
        for first, sums in self._left_patterns(w1):
            label, in_iwahori, src, scale, _ = fam.pattern(first)
            value = self._phi_value(w2, label, in_iwahori, scale)
            if not value.is_zero():
                total = total + value * sums[src]
        return total

    def double_coset_product(self, w1: WeylElem, w2: WeylElem) -> frozenset[WeylElem]:
        """The set of double cosets meeting (K w1 K)(K w2 K): one label per
        valuation pattern of the family lift(w1) * r * lift(w2)."""
        self.require_window(w1)
        self.require_window(w2)
        fam = TransversalFamily(self, self.lift_terms(w1), self.base_family(w2), self.lift_terms(w2))
        return frozenset(fam.pattern(members[0])[0] for members in fam.base.patterns)

    # -- the length-zero verification ---------------------------------------------------

    def omega_check(self, max_word: int = 2, max_z: int = 1, details: list | None = None) -> bool:
        """Every window pair multiplies into a single line of the algebra.

        For pairs with additive word length the double-coset product must be
        the single coset of the product; for the others the convolution must
        vanish at every extraneous double coset.  In particular this checks
        the two quadratic-relation collapses (phi_s * phi_s)(lift(s)) = 0
        and likewise for the affine reflection.
        """
        window = self.window(max_word, max_z)
        ok = True
        for w1 in window:
            for w2 in window:
                entry = self._omega_pair(w1, w2)
                if details is not None:
                    details.append(entry)
                ok = ok and entry["pass"]
        return ok

    def _omega_pair(self, w1: WeylElem, w2: WeylElem) -> dict:
        product = w1 * w2
        cosets = self.double_coset_product(w1, w2)
        additive = plength(product) == plength(w1) + plength(w2)
        entry = {
            "w1": str(w1),
            "w2": str(w2),
            "additive": additive,
            "cosets": sorted(str(c) for c in cosets),
        }
        if additive:
            entry["pass"] = cosets == {product}
            return entry
        if product not in cosets:
            entry["pass"] = False
            return entry
        extraneous = [v for v in cosets if v != product]
        vanishing = {}
        for v in extraneous:
            value = self.convolve_at(w1, w2, self.lift(v))
            vanishing[str(v)] = repr(value)
            if not value.is_zero():
                entry["pass"] = False
                entry["vanishing"] = vanishing
                return entry
        entry["pass"] = True
        entry["vanishing"] = vanishing
        return entry


def _sgn_sum(fld, residues) -> HeckeCoeff:
    """The sum of sgn over nonzero residues: +1 on the squares, the even powers of the generator."""
    return HeckeCoeff(sum(-1 if fld.dlog(r) % 2 else 1 for r in residues), 0)


def _grid_values(field, coeffs) -> list[int]:
    """Values of the multilinear form sum_S coeffs[S] * prod_{i in S} p_i at
    every p in F_q^L, p_1 most significant in both the bit mask S and the
    output order."""
    half = len(coeffs) // 2
    if not half:
        return list(coeffs)
    # rows[j][x] is coefficient j of the form left after p_1 = x
    rows = [field.affine_values(a, b) for a, b in zip(coeffs[:half], coeffs[half:])]
    if half == 1:
        return rows[0]
    out = []
    for column in zip(*rows):
        out += _grid_values(field, column)
    return out


def _product_forms(field, length: int, factors) -> list[dict[int, list[int]]]:
    """The forms of the entries a, b, c, d of the product of elementary
    unipotents, each factor (i, lower, c, e) being u(c * pi2**e * p_i), or
    l(...) when lower, over p in F_q^length.  An entry's form
    sum_S G_S * prod_{i in S} p_i is given by levels: exponent k -> the pi2**k
    digit of G_S at every bit mask S, p_1 the most significant bit.  The
    factors are multiplied on the right into the identity's forms, each a
    column operation with one F_q product per coefficient."""
    size = 2**length
    forms: list[dict[int, list[int]]] = [{0: [1] + [0] * (size - 1)}, {}, {}, {0: [1] + [0] * (size - 1)}]
    for i, lower, c, e in factors:
        bit = 1 << (length - 1 - i)
        # u(x) adds x times column 0 to column 1; l(x) adds x times column 1 to column 0
        for src, dst in ((1, 0), (3, 2)) if lower else ((0, 1), (2, 3)):
            for k, coeffs in forms[src].items():
                target = forms[dst].setdefault(k + e, [0] * size)
                # p_i occurs in one factor only, so no mask here holds its bit
                for mask, g in enumerate(coeffs):
                    if g:
                        target[mask | bit] = field.add(target[mask | bit], field.mul(c, g))
    return forms


class BaseFamily:
    """The members r(p) of a length-L transversal (or their inverses), p in
    F_q^L the residue parameters: member i has the base-q digits of i as p,
    p_1 the most significant.

    Each r(p) is a product of L elementary unipotents, each linear in one
    parameter, so every matrix entry is a multilinear form
    sum_S G_S * prod_{i in S} p_i with exact Laurent coefficients G_S, and
    det and the E4 part are 1.  `forms` gives them as `_product_forms` does,
    and each level is evaluated over F_q at every point.  Each entry's
    valuation (math.inf for zero) and leading residue is its lowest nonzero
    level, and `members` holds the matrices, built on first read, each entry
    from its digits (`entry`) with no Laurent arithmetic.  `patterns` lists
    the member indices of each distinct valuation pattern of the four
    entries, the patterns in order of first occurrence.
    """

    def __init__(self, tower: Tower, length: int, forms):
        fld, n = tower.field, tower.q**length
        # per entry: exponent -> the digit at that exponent at every point, ascending
        levels = [{k: _grid_values(fld, form[k]) for k in sorted(form)} for form in forms]
        columns = [self._leading(entry, n) for entry in levels]
        self.ords = list(zip(*(c[0] for c in columns)))
        self.residues = list(zip(*(c[1] for c in columns)))
        patterns: dict[tuple, list[int]] = {}
        for i, ords in enumerate(self.ords):
            patterns.setdefault(ords, []).append(i)
        self.patterns = list(patterns.values())
        self.tower = tower
        # per entry: its lowest exponent and one row of digits per exponent from there up
        spans = [range(min(e), max(e) + 1) if e else range(0) for e in levels]
        self._rows = [(span.start, [e.get(k, [0] * n) for k in span]) for e, span in zip(levels, spans)]

    def __len__(self) -> int:
        return len(self.ords)

    @staticmethod
    def _leading(levels: dict[int, list[int]], n: int) -> tuple[list, list]:
        """Valuation (math.inf for zero) and leading residue of an entry at every point."""
        ords, residues = [math.inf] * n, [0] * n
        todo = range(n)
        for k, values in levels.items():
            for i in todo:
                if values[i]:
                    ords[i], residues[i] = k, values[i]
            todo = [i for i in todo if not values[i]]
            if not todo:
                break
        return ords, residues

    def entry(self, i: int, k: int) -> LaurentElem:
        """Entry k (of a, b, c, d) of member i, with `Tower.from_coeffs`'s window."""
        lo, rows = self._rows[k]
        return self.tower.from_coeffs(E2, lo, [row[i] for row in rows])

    @cached_property
    def members(self) -> list[GroupElem]:
        one4 = self.tower.one(E4)
        return [GroupElem(*(self.entry(i, k) for k in range(4)), one4) for i in range(len(self))]


class TransversalFamily:
    """The elements left * r(p) * right over a base family r(p), for
    exact monomial frames left and right given as terms (`groupmodel`).

    With l_i and m_i the row-i entries of left and right, and a, b = 1 for
    an antidiagonal left, right frame (0 for a diagonal one), entry (i, j)
    of left * r * right is l_i * r[i ^ a][j ^ b] * m_{j ^ b}.  So each point's
    entry valuations and leading residues are the base's, permuted, shifted
    by a fixed exponent and scaled by a fixed residue per entry; det and the
    E4 part are the frames' (the base's are 1).  Labels and basis-function
    values come from the pivot step on those invariants, with no matrix
    arithmetic per point, and everything but two residues is memoised per
    valuation pattern of the base's four entries.

    `base` is a memoised `BaseFamily` (``HeckeContext.base_family``).
    """

    def __init__(self, ctx: HeckeContext, left: tuple, base: BaseFamily, right: tuple):
        self.ctx = ctx
        self.base = base
        (left_kind, lt), (right_kind, rt) = left, right
        a, b = left_kind == "anti", right_kind == "anti"
        tw = ctx.tower
        fld = tw.field
        # entry k = 2i + j reads base entry 2 (i ^ a) + (j ^ b)
        self.source, self.shift, self.scale = [], [], []
        for i in (0, 1):
            for j in (0, 1):
                (c1, e1), (c2, e2) = lt[i], rt[j ^ b]
                self.source.append(2 * (i ^ a) + (j ^ b))
                self.shift.append(e1 + e2)
                self.scale.append(fld.mul(c1, c2))
        # det and the E4 part are the frames' (the base's are 1), each one term:
        # those of the monomial left * right, whose det is first * second, negated if anti
        kind, ((r1, e1), (r2, e2), (r4, e4)) = term_product(fld, left, right)
        det_res = fld.mul(r1, r2)
        self.det_ord, self.det_res = e1 + e2, det_res if kind == "diag" else fld.neg(det_res)
        self.g4 = LaurentElem(tw, E4, e4, (r4,))
        self.products = {
            "diag": LaurentElem(tw, E2, self.det_ord, (self.det_res,)),
            "anti": LaurentElem(tw, E2, self.det_ord, (fld.neg(self.det_res),)),
        }
        self._patterns: dict[tuple, tuple | str] = {}

    def __len__(self) -> int:
        return len(self.base)

    def pattern(self, i: int) -> tuple[WeylElem, bool, int, int, bool]:
        """`_pattern` of member i's valuation pattern, memoised per pattern;
        raises ClassificationError for a pattern with no label."""
        ords = self.base.ords[i]
        got = self._patterns.get(ords)
        if got is None:
            got = self._patterns[ords] = self._pattern(ords, self.base.residues[i])
        if isinstance(got, str):
            raise ClassificationError(got)
        return got

    def analyze(self, i: int) -> tuple[WeylElem, bool, int]:
        """(label, k1 and k2 Iwahori, residue of the discrepancy's y-entry) at member i."""
        label, in_iwahori, src, scale, at_pivot = self.pattern(i)
        # the y-entry meets m's pivot entry, or the complement product / pivot
        fld = self.ctx.tower.field
        rb = self.base.residues[i][src]
        return label, in_iwahori, fld.mul(scale, rb if at_pivot else fld.inv(rb))

    def _pattern(self, base_ords, base_residues):
        """All of `analyze` that the base's four entry valuations decide, from
        one member with those valuations: (label, k1 and k2 Iwahori, the base
        entry under the pivot, scale, whether the discrepancy's y-entry meets
        the pivot) with disc_ry = scale * base residue, or scale / base
        residue; or the ClassificationError message.  The label reads no
        residue (see `HeckeContext._choose_label`)."""
        fld = self.ctx.tower.field
        ords = [base_ords[s] + e for s, e in zip(self.source, self.shift)]
        residues = [fld.mul(base_residues[s], c) for s, c in zip(self.source, self.scale)]
        case, m_ords, m_residues, quotient_ords = pivot_step(fld, ords, residues, self.det_ord, self.det_res)
        piv, _, _, _, kind, make_k1, make_k2 = PIVOT_CASES[case]
        product = self.products[kind]
        got = self.ctx._choose_label(kind, m_ords, m_residues, product, self.g4)
        if isinstance(got, str):
            return got
        label, ly_res, pos = got
        # the pivot is m's first entry iff it sits in g's first row
        at_pivot = (pos == 0) == (piv < 2)
        scale = ly_res if at_pivot else fld.mul(ly_res, product.unit_residue())
        # the pivot's residue is the base residue times the frame's scale
        c = self.scale[piv]
        scale = fld.mul(scale, c) if at_pivot else fld.mul(scale, fld.inv(c))
        return label, quotients_in_iwahori(quotient_ords, make_k1, make_k2), self.source[piv], scale, at_pivot

    def phi(self, w: WeylElem, i: int) -> HeckeCoeff:
        """The basis function of w at member i."""
        return self.ctx._phi_value(w, *self.analyze(i))


# ---------------------------------------------------------------------------------
# the 2-cocycle


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
        """rho of the discrepancy lift(w1 w2)^-1 lift(w1) lift(w2)."""
        key = (w1, w2)
        got = self._mu.get(key)
        if got is None:
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
        disc = term_product(fld, inv.get(w) or lift_terms(tower, w, True), fwd.get(w1) or lift_terms(tower, w1))
        disc = term_product(fld, disc, fwd.get(w2) or lift_terms(tower, w2))
        kind, ((rx, nx), (ry, ny), (rz, nz)) = disc
        if kind != "diag":
            raise ClassificationError("lift discrepancy is not diagonal")
        if not compact_torus_conditions(fld, self.ctx.variant, (nx, ny, nz), (rx, ry, rz)):
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
    inverse = {name: term_inverse(fld, m) for name, m in terms.items()}

    def product(*factors):
        out = factors[0]
        for f in factors[1:]:
            out = term_product(fld, out, f)
        return out

    def in_torus(m) -> bool:
        kind, ((rx, nx), (ry, ny), (rz, nz)) = m
        return kind == "diag" and compact_torus_conditions(fld, variant, (nx, ny, nz), (rx, ry, rz))

    relations = {}
    for a in ("s", "s'"):
        relations[f"{a}^2"] = in_torus(product(terms[a], terms[a]))
        for b in ("z", "eps"):
            relations[f"[{a}, {b}]"] = in_torus(product(terms[a], terms[b], inverse[a], inverse[b]))
    relations["eps^2"] = in_torus(product(terms["eps"], terms["eps"]))
    # a witness with three distinct residues shows each letter's permutation
    x, y, z = ((fld.pow(fld.zeta, k), 0) for k in (1, 2, 3))
    normalizes = all(
        product(m, ("diag", (x, y, z)), inverse[n]) == ("diag", (y, x, z) if m[0] == "anti" else (x, y, z))
        for n, m in terms.items()
    )
    invariant = all(
        rho_residues(fld, rx, ry, rz) == rho_residues(fld, ry, rx, rz)
        for xy, rz in admissible_torus_residues(fld, variant)
        for ry in range(1, fld.q)
        for rx in (fld.mul(xy, fld.inv(ry)),)
    )
    return CocycleCertificate(relations, normalizes, invariant)


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
    perturbation = {}
    for w in ctx.window():
        if not w.is_identity():
            perturbation[w] = random_KM0(ctx.tower, ctx.variant, rng)
    return CocycleTable(ctx, perturbation)


def sz_perturbed_table(ctx: HeckeContext, rng: random.Random) -> CocycleTable:
    """A lift family twisted by random compact-torus factors on s, z and sz
    only: all that mu(s, z), mu(z, s) and beta(s, z) read."""
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

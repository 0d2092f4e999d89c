"""Generic kernel: parameterised Hecke algebras, twisted group algebras,
and their crossed products; instantiated on the computed 2-cocycle.

The Hecke factor is the standard presentation over a Coxeter system: basis
T_w indexed by reduced words, with T_s T_w = T_{sw} when the length grows
and T_s T_w = q_s T_{sw} + (q_s - 1) T_w when it drops.  Word reduction is
implemented for systems of rank at most two (which includes the infinite
dihedral system the example needs, and every finite dihedral type for
exercising the kernel).

The twisted factor is the algebra with basis e_g over a group, multiplied
by e_g e_h = mu(g, h) e_{gh} for a 2-cocycle mu; associativity is exactly
the cocycle identity.  The crossed product interleaves the two through a
declared action of the group on the Coxeter letters (a right action:
(e_g x T_w) (e_h x T_v) = mu(g,h) e_{gh} x T_{h^-1(w)} T_v).

The example instantiation has trivial Coxeter part, so the crossed
product degenerates to the twisted group algebra of the extended Weyl
group with the lift cocycle.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Callable, Hashable

from .cocycle import CocycleTable
from .residue import COEFF_ONE, COEFF_ZERO, HeckeCoeff
from .weyl import WeylElem, _reduce


class CoxeterError(ValueError):
    pass


class CoxeterSystem(namedtuple("CoxeterSystem", "generators braid_order", defaults=(None,))):
    """Generators plus the order m(s, t) of each product st (None = infinity;
    rank 2 only).

    Only ranks 0, 1, 2 are supported; the reduction rules of higher ranks
    are out of scope for this kernel.
    """

    # a namedtuple base rather than NamedTuple, whose class body may not define __new__
    __slots__ = ()

    def __new__(cls, generators: tuple[str, ...], braid_order: int | None = None):
        if len(generators) > 2:
            raise CoxeterError("only Coxeter systems of rank <= 2 are supported")
        if len(set(generators)) != len(generators):
            raise CoxeterError("duplicate generators")
        if braid_order is not None and braid_order < 2:
            raise CoxeterError("braid order must be >= 2 or None for infinity")
        return super().__new__(cls, generators, braid_order)

    def reduce(self, word) -> tuple[str, ...]:
        """Canonical reduced form of a word in the generators."""
        for letter in word:
            if letter not in self.generators:
                raise CoxeterError(f"unknown generator {letter!r}")
        out = list(_reduce(word))
        m = self.braid_order
        if m is None or len(self.generators) < 2:
            return tuple(out)
        # dihedral of order 2m: fold alternating words longer than m, and
        # canonicalise the unique longest element
        while len(out) > m:
            head = out[:m]
            flipped = [self.generators[1 - self.generators.index(l)] for l in head]
            out = list(_reduce(flipped + out[m:]))
        if len(out) == m and out and out[0] != self.generators[0]:
            out = [self.generators[1 - self.generators.index(l)] for l in out]
        return tuple(out)

    def left_mul(self, s: str, word: tuple[str, ...]) -> tuple[str, ...]:
        return self.reduce((s,) + word)


def _collect(pairs) -> dict:
    """Sum the coefficients of (key, coefficient) pairs per key, keys in the
    order they first appear, and drop the keys whose sum is zero."""
    out: dict = {}
    for key, c in pairs:
        out[key] = out.get(key, COEFF_ZERO) + c
    return {key: c for key, c in out.items() if not c.is_zero()}


class _Combination:
    """Finite linear combination: a dict from basis key to HeckeCoeff, over an
    owner (a Coxeter system or an algebra).  Owners compare with ``==``, value
    equality for a CoxeterSystem and identity for an algebra; combinations
    over different owners never mix, and mixing raises ``_MISMATCH``."""

    __slots__ = ("owner", "terms")
    _MISMATCH: tuple[type, str]

    def __init__(self, owner, terms: dict):
        self.owner = owner
        self.terms = terms

    @classmethod
    def _trusted(cls, owner, terms: dict):
        """A combination whose keys are valid by construction, built
        without the subclass's checks, which the public constructor applies."""
        out = object.__new__(cls)
        out.owner, out.terms = owner, terms
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}(owner={self.owner!r}, terms={self.terms!r})"

    def _check(self, other: "_Combination") -> None:
        if self.owner != other.owner:
            error, message = self._MISMATCH
            raise error(message)

    def __add__(self, other):
        self._check(other)
        return self._trusted(self.owner, _collect([*self.terms.items(), *other.terms.items()]))

    def scaled(self, c: HeckeCoeff):
        return self._trusted(self.owner, _collect((key, c * v) for key, v in self.terms.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.owner == other.owner and self.terms == other.terms


class GenericHeckeElem(_Combination):
    """Finite linear combination of basis elements T_w, keys reduced words.
    The constructor checks that each key is reduced; sums, scalings, products
    and basis elements, whose keys `CoxeterSystem.reduce` gave, skip it."""

    __slots__ = ()
    _MISMATCH = (CoxeterError, "mismatched Coxeter systems")

    def __init__(self, system: CoxeterSystem, terms: dict[tuple[str, ...], HeckeCoeff] | None = None):
        terms = {} if terms is None else terms
        for w in terms:
            if system.reduce(w) != w:
                raise CoxeterError(f"non-reduced key {w!r}")
        super().__init__(system, terms)

    @staticmethod
    def basis(system: CoxeterSystem, word=()) -> "GenericHeckeElem":
        return GenericHeckeElem._trusted(system, {system.reduce(tuple(word)): COEFF_ONE})


def hecke_mul(
    a: GenericHeckeElem, b: GenericHeckeElem, params: dict[str, HeckeCoeff]
) -> GenericHeckeElem:
    """Product in the parameterised Hecke algebra, bilinear over the bases."""
    a._check(b)
    system = a.owner
    if (
        system.braid_order is not None
        and system.braid_order % 2 == 1
        and len({params[s] for s in system.generators}) > 1
    ):
        # odd braid order makes the generators conjugate: the parameter
        # function must be constant or the presentation is not associative
        raise CoxeterError("odd braid order requires equal parameters")
    return GenericHeckeElem._trusted(system, _collect(
        (word, cv * cw * c)
        for v, cv in a.terms.items()
        for w, cw in b.terms.items()
        for word, c in _basis_product(system, v, w, params).items()
    ))


def _basis_product(
    system: CoxeterSystem, v: tuple[str, ...], w: tuple[str, ...], params: dict[str, HeckeCoeff]
) -> dict[tuple[str, ...], HeckeCoeff]:
    """T_v * T_w as a dict, by letterwise left multiplication."""
    acc = {w: COEFF_ONE}
    for s in reversed(v):
        acc = _collect(_left_mul_terms(system, s, params[s], acc))
    return acc


def _left_mul_terms(system: CoxeterSystem, s: str, q_s: HeckeCoeff, terms: dict):
    """The pairs of T_s * sum(c T_u): c T_{su} where the length grows, else
    q_s c T_{su} and (q_s - 1) c T_u."""
    for word, c in terms.items():
        key = system.left_mul(s, word)
        if len(key) > len(word):
            yield key, c
        else:
            yield key, q_s * c
            yield word, (q_s - COEFF_ONE) * c


# ---------------------------------------------------------------------------------
# twisted group algebras


class TwistedGroupAlgebra:
    """Group algebra twisted by a 2-cocycle: e_g e_h = mu(g, h) e_{gh}.

    ``group_mul`` multiplies hashable element keys, ``cocycle`` returns a
    HeckeCoeff, and ``identity_key`` is the group's identity.  Elements of
    different algebra handles never mix.
    """

    def __init__(
        self,
        group_mul: Callable[[Hashable, Hashable], Hashable],
        cocycle: Callable[[Hashable, Hashable], HeckeCoeff],
        identity_key: Hashable,
    ):
        self.group_mul = group_mul
        self.cocycle = cocycle
        self.identity_key = identity_key

    def basis(self, g) -> "TwistedElem":
        return TwistedElem(self, {g: COEFF_ONE})


class TwistedElem(_Combination):
    __slots__ = ()
    _MISMATCH = (ValueError, "elements of different twisted algebras")


def twisted_mul(a: TwistedElem, b: TwistedElem) -> TwistedElem:
    a._check(b)
    alg = a.owner
    return TwistedElem(alg, _collect(
        (alg.group_mul(g, h), cg * ch * alg.cocycle(g, h))
        for g, cg in a.terms.items()
        for h, ch in b.terms.items()
    ))


# ---------------------------------------------------------------------------------
# crossed products


class CrossedProductAlgebra:
    """Twisted group algebra acting on a Hecke factor.

    ``action(g, letter)`` gives the image of a Coxeter letter under g (a
    length-preserving automorphism); the trivial action is the default.
    """

    def __init__(
        self,
        twisted: TwistedGroupAlgebra,
        system: CoxeterSystem,
        params: dict[str, HeckeCoeff],
        action: Callable[[Hashable, str], str] | None = None,
        inverse: Callable[[Hashable], Hashable] | None = None,
    ):
        self.twisted = twisted
        self.system = system
        self.params = params
        self.action = action or (lambda g, letter: letter)
        self.inverse = inverse or (lambda g: g)

    def basis(self, g, word=()) -> "CrossedElem":
        return CrossedElem(self, {(g, self.system.reduce(tuple(word))): COEFF_ONE})

    def act_on_word(self, g, word: tuple[str, ...]) -> tuple[str, ...]:
        if not word:  # every g fixes the empty word
            return word
        return self.system.reduce(tuple(self.action(g, letter) for letter in word))


class CrossedElem(_Combination):
    __slots__ = ()
    _MISMATCH = (ValueError, "elements of different crossed products")


def crossed_mul(a: CrossedElem, b: CrossedElem) -> CrossedElem:
    a._check(b)
    alg = a.owner
    twisted = alg.twisted
    return CrossedElem(alg, _collect(
        ((gh, word), scalar * c)
        for (g, w), c1 in a.terms.items()
        for (h, v), c2 in b.terms.items()
        for scalar, gh in [(c1 * c2 * twisted.cocycle(g, h), twisted.group_mul(g, h))]
        for word, c in _basis_product(alg.system, alg.act_on_word(alg.inverse(h), w), v, alg.params).items()
    ))


# ---------------------------------------------------------------------------------
# the example instantiation


TRIVIAL_SYSTEM = CoxeterSystem(())


def build_example_algebra(table: CocycleTable) -> CrossedProductAlgebra:
    """The crossed product with trivial Coxeter factor over the extended Weyl
    group with the computed lift cocycle: the twisted group algebra."""
    twisted = TwistedGroupAlgebra(
        group_mul=lambda u, v: u * v,
        cocycle=lambda u, v: table.mu(u, v).as_coeff(),
        identity_key=WeylElem(),
    )
    return CrossedProductAlgebra(twisted, TRIVIAL_SYSTEM, {})


def structure_constant(alg: CrossedProductAlgebra, u: WeylElem, v: WeylElem) -> tuple[WeylElem, HeckeCoeff]:
    """e_u e_v = coeff * e_{uv}; returns (uv, coeff)."""
    prod = crossed_mul(alg.basis(u), alg.basis(v))
    ((key, coeff),) = prod.terms.items()
    g, word = key
    if word != ():
        raise AssertionError("example algebra has trivial Hecke factor")
    return g, coeff


def structure_constant_rows(alg: CrossedProductAlgebra, elements) -> list[tuple[str, str, str, int, int]]:
    """CSV rows (u, v, uv, re, im) over the given window elements."""
    rows = []
    for u in elements:
        for v in elements:
            uv, coeff = structure_constant(alg, u, v)
            rows.append((str(u), str(v), str(uv), coeff.re, coeff.im))
    return rows

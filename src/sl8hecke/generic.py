"""Genericity valuations for the two dual-Lie functionals on coroots.

The eight-dimensional standard space splits as E2 + E2 + E4 over F, giving
eight eigencoordinates for the diagonal torus: two Galois slots for each
E2 summand and four for E4.  Two invariant functionals act on diagonal
Lie elements:

  * the depth-1/4 functional: trace from E4 after multiplying by pi4**(-1)
    (weight sigma^k(pi4**(-1)) on the k-th E4 coordinate, 0 on E2 ones);
  * the depth-1/2 functional: trace from E2 after multiplying by
    pi2**(-1) composed with the determinant direction (weight
    sigma^k(pi2**(-1)) on each E2 slot's k-th coordinate, 0 on E4).

Pairing a functional against the coroot direction E_ii - E_jj gives
weight(i) - weight(j).  The genericity conditions assert that these
pairings have valuation exactly -1/4 on the twelve coroots inside the E4
block and exactly -1/2 on the forty coroots outside the quadratic-slot
pattern, and that explicit diagonal witnesses pair to valuation 0.
Valuations are compared as integers, in quarters of ord(t): the targets
are -1 and -2.  Coroots are handled purely through eigencoordinates; no
8x8 matrices are materialised.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .tower import E2, E4, RAMIFICATION, LaurentElem, Tower

E2_SLOT1 = "e2-slot1"
E2_SLOT2 = "e2-slot2"
E4_BLOCK = "e4"

X0 = "X0"  # depth-1/4 functional, supported on the E4 block
X1 = "X1"  # depth-1/2 functional, supported on the E2 slots

LEVEL_QUARTER = "G1/G0"  # coroots of G1 not in G0 (inside the E4 block)
LEVEL_HALF = "G2/G1"  # coroots of G2 not in G1

# valuations in quarters of ord(t), as integers: -1/4 and -1/2
_TARGET = {LEVEL_QUARTER: -1, LEVEL_HALF: -2}
_FUNCTIONAL = {LEVEL_QUARTER: X0, LEVEL_HALF: X1}


class EigenCoordinate(namedtuple("EigenCoordinate", "block galois_index")):
    # a namedtuple base rather than NamedTuple, whose class body may not define __new__
    __slots__ = ()

    def __new__(cls, block: str, galois_index: int):
        bound = 4 if block == E4_BLOCK else 2
        if not 0 <= galois_index < bound:
            raise ValueError(f"galois index {galois_index} out of range for {block}")
        return super().__new__(cls, block, galois_index)


class RootPair(NamedTuple):
    i: EigenCoordinate
    j: EigenCoordinate
    level: str


def coordinates() -> tuple[EigenCoordinate, ...]:
    coords = []
    for slot in (E2_SLOT1, E2_SLOT2):
        coords += [EigenCoordinate(slot, k) for k in range(2)]
    coords += [EigenCoordinate(E4_BLOCK, k) for k in range(4)]
    return tuple(coords)


def _in_g0(i: EigenCoordinate, j: EigenCoordinate) -> bool:
    # roots of the small group: cross-slot pairs within one Galois index
    return (
        {i.block, j.block} == {E2_SLOT1, E2_SLOT2}
        and i.galois_index == j.galois_index
    )


def _in_g1(i: EigenCoordinate, j: EigenCoordinate) -> bool:
    return _in_g0(i, j) or (i.block == E4_BLOCK and j.block == E4_BLOCK)


def root_pairs(level: str) -> list[RootPair]:
    """Ordered coroot index pairs at the requested level of the chain."""
    coords = coordinates()
    out = []
    for i in coords:
        for j in coords:
            if i == j:
                continue
            if level == LEVEL_QUARTER:
                if i.block == E4_BLOCK and j.block == E4_BLOCK:
                    out.append(RootPair(i, j, level))
            elif level == LEVEL_HALF:
                if not _in_g1(i, j):
                    out.append(RootPair(i, j, level))
            else:
                raise ValueError(f"unknown level {level!r}")
    return out


def weight(tower: Tower, coord: EigenCoordinate, functional: str) -> LaurentElem:
    """The functional's weight on one eigencoordinate (an element of E4 or E2)."""
    if functional == X0:
        if coord.block != E4_BLOCK:
            return tower.zero(E4)
        return (tower.uniformizer(E4) ** -1).galois(coord.galois_index)
    if functional == X1:
        if coord.block == E4_BLOCK:
            return tower.zero(E2)
        return (tower.uniformizer(E2) ** -1).galois(coord.galois_index)
    raise ValueError(f"unknown functional {functional!r}")


def pairing_on_coroot(tower: Tower, pair: RootPair) -> LaurentElem:
    fn = _FUNCTIONAL[pair.level]
    return weight(tower, pair.i, fn) - weight(tower, pair.j, fn)


class GenericityReport(NamedTuple):
    level: str
    target: int  # in quarters of ord(t)
    valuations: list[tuple[RootPair, int]]  # in quarters of ord(t)
    witness_ord: int
    ge1_pass: bool
    ge0_pass: bool

    @property
    def passed(self) -> bool:
        return self.ge1_pass and self.ge0_pass


def check_ge1(tower: Tower, level: str) -> GenericityReport:
    """Valuation of the pairing on every coroot at this level, in quarters
    of ord(t); all must equal the level's depth exactly."""
    target = _TARGET[level]
    rows = []
    ok = True
    for pair in root_pairs(level):
        v = _quarters(pairing_on_coroot(tower, pair))
        rows.append((pair, v))
        ok = ok and (v == target)
    witness = check_ge0_witness(tower, level)
    return GenericityReport(level, target, rows, witness, ok, witness == 0)


def _quarters(x: LaurentElem) -> int:
    """ord(x) in quarters of ord(t), as an integer."""
    return x.ord_norm() * (4 // RAMIFICATION[x.tag])


def check_ge0_witness(tower: Tower, level: str) -> int:
    """Valuation of the functional on its explicit diagonal witness; must be
    0.  The witness lies in F, where ord_norm is ord."""
    return witness_value(tower, level).ord_norm()


def witness_value(tower: Tower, level: str) -> LaurentElem:
    """The exact pairing value at the witness (4 resp. 2 as constants of F).

    Depth 1/4: the witness (0, pi4) pairs to Tr_{E4/F}(pi4**(-1) * pi4) = 4.
    Depth 1/2: the witness (diag(pi2, 0), 0) pairs through the determinant
    direction to Tr_{E2/F}(pi2**(-1) * pi2) = 2.
    """
    if level == LEVEL_QUARTER:
        return ((tower.uniformizer(E4) ** -1) * tower.uniformizer(E4)).trace_to_F()
    if level == LEVEL_HALF:
        return ((tower.uniformizer(E2) ** -1) * tower.uniformizer(E2)).trace_to_F()
    raise ValueError(f"unknown level {level!r}")

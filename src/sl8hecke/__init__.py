"""Exact verification of a depth-zero Hecke algebra with non-trivial 2-cocycle.

The package models, over F = F_q((t)) with 4 | q - 1, the group
G0(F) = (GL2(E2) x E4^x) cap SL8(F) for the ramified quartic/quadratic
tower E2, E4 over F, the depth-zero character pair attached to its
standard Iwahori, and the extended affine Weyl group acting on it.  All
arithmetic is exact (truncated Laurent series over F_q, Gaussian-integer
scalars), and the headline computation is a machine-checked certificate
that the lift 2-cocycle on the Weyl group is cohomologically non-trivial.

Each section's code is its own module: `residue`, `tower`, `groupmodel`,
`weyl` and `hecke`, on exact terms and residues, are the layers every
command loads; `matrices` (the matrix model), `series` (elements of more
than one term), `cocycle`, `lattice`, `generic` and `algebra` are loaded by
the rows that call them, and `reference` (matrix oracles and samplers) by
no command.  `cli` lists which command loads what.
"""

__version__ = "0.1.0"

from .residue import (
    HeckeCoeff,
    ResidueField,
    UnitI,
    char_sum_eta_squares,
    eta_residue,
    make_field,
    sgn,
)
from .tower import E2, E4, F, LaurentElem, PrecisionExhausted, Tower
from .groupmodel import PARAHORIC, STABILIZER
from .weyl import WeylElem, plength
from .hecke import HeckeContext
from .residue import moved_names as _moved_names

# the 2-cocycle and the matrix model are loaded on first read of these names
__getattr__ = _moved_names(
    globals(),
    cocycle=("CocycleTable", "nontriviality_certificate"),
    matrices=("GroupElem", "TorusElem", "lift"),
)

__all__ = [
    "HeckeCoeff",
    "ResidueField",
    "UnitI",
    "char_sum_eta_squares",
    "eta_residue",
    "make_field",
    "sgn",
    "E2",
    "E4",
    "F",
    "LaurentElem",
    "PrecisionExhausted",
    "Tower",
    "PARAHORIC",
    "STABILIZER",
    "GroupElem",
    "TorusElem",
    "WeylElem",
    "lift",
    "plength",
    "CocycleTable",
    "HeckeContext",
    "nontriviality_certificate",
]

"""Exact construction and certification of cubic GRRs of PSU3(q).

The package builds the three-involution connection sets of PSU3(q) for
q >= 4 (separate odd/even characteristic branches), then certifies by exact
computation everything a graphical-regular-representation verdict needs:
parameter existence, involution and rotation orders, irreducibility of the
matrix triple, generation (exact permutation group order on the q^3 + 1
isotropic points of the Hermitian form), and triviality of the group of
automorphisms preserving the connection set.
"""

__version__ = "0.1.0"

from .gf import Field, FieldElem, field
from .mat3 import CharPoly, Mat3

__all__ = [
    "Field",
    "FieldElem",
    "field",
    "Mat3",
    "CharPoly",
]

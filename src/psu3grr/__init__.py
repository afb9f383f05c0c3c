"""Exact construction and certification of cubic GRRs of PSU3(q).

The package builds the three-involution connection sets of PSU3(q) for
q >= 4 (separate odd/even characteristic branches), then certifies by exact
computation everything a graphical-regular-representation verdict needs:
parameter existence, involution and rotation orders, irreducibility of the
matrix triple, generation (exact permutation group order on the q^3 + 1
isotropic points of the Hermitian form), and triviality of the group of
automorphisms preserving the connection set.

Importing the package imports nothing else, so `psu3grr.cli` runs its
own start-up (see there) before numpy is first loaded; the field, matrix
and stage names live in their modules (`psu3grr.gf`, `psu3grr.mat3`, ...).
"""

__version__ = "0.1.0"

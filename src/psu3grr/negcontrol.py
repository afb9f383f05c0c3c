"""Negative control: PSU3(3) has no generating involution triple.

This is the exhaustive cross-check behind the q = 3 refusal.  It enumerates
the group element by element as permutations of the 28 isotropic points and
closes every candidate triple by plain multiplication, so it shares no code
with the stabilizer chain whose orders it backs up.
"""

from __future__ import annotations

from . import __version__
from .gf import field
from .grouporder import IsotropicAction, expected_group_order
from .mat3 import Mat3, is_special_unitary


def _compose(a, b):
    return tuple(b[x] for x in a)


def _invert(g):
    out = [0] * len(g)
    for i, x in enumerate(g):
        out[x] = i
    return tuple(out)


def _closure(seeds, step) -> set:
    """The least set that holds seeds and is closed under step, which maps
    an element to an iterable of its images."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        for h in step(frontier.pop()):
            if h not in seen:
                seen.add(h)
                frontier.append(h)
    return seen


def run_negative_control_q3() -> dict:
    """Certify that no triple of involutions generates PSU3(3).

    PSU3(3) = SU3(3) (trivial center) is realised as permutations of its 28
    isotropic points; the group is enumerated from its unitriangular
    subgroups, involutions are classified up to conjugacy, and every triple
    (x0, y, z) with x0 a class representative is closed under multiplication
    to get the exact subgroup order.  Fixing x0 per class is harmless:
    conjugating a triple conjugates the subgroup it generates.
    """
    fld = field(3, 1)
    action = IsotropicAction(fld)
    expected = expected_group_order(3)

    # unitriangular subgroups (upper and lower) generate SU3(3)
    one, zero = fld.one, fld.zero
    gens = []
    for s in fld.elements():
        for t in fld.elements():
            upper = Mat3(fld, (one, s, t, zero, one, -(s.frobenius(fld.f)),
                               zero, zero, one))
            if is_special_unitary(upper):
                gens.append(upper)
                gens.append(upper.transpose())
    perm_gens = [tuple(int(x) for x in action.permutation(m)) for m in gens]
    identity = tuple(range(action.degree))

    def subgroup(generators) -> set:
        return _closure([identity],
                        lambda g: (_compose(g, s) for s in generators))

    elements = subgroup(perm_gens)
    if len(elements) != expected:
        raise RuntimeError(
            f"enumeration of PSU3(3) found {len(elements)} elements, "
            f"expected {expected}")

    involutions = sorted(g for g in elements
                         if g != identity and _compose(g, g) == identity)

    conjugators = [(_invert(g), g) for g in perm_gens]
    unclassified = set(involutions)
    class_reps = []
    class_sizes = []
    while unclassified:
        rep = min(unclassified)
        orbit = _closure([rep], lambda t: (_compose(_compose(gi, t), g)
                                           for gi, g in conjugators))
        class_reps.append(rep)
        class_sizes.append(len(orbit))
        unclassified -= orbit

    max_proper = 0
    generating = 0
    triples = 0
    for rep in class_reps:
        for yi, y in enumerate(involutions):
            for z in involutions[yi:]:
                triples += 1
                order = len(subgroup((rep, y, z)))
                if order == expected:
                    generating += 1
                elif order > max_proper:
                    max_proper = order
    return {
        "tool": "psu3grr",
        "version": __version__,
        "schema": "psu3grr-negative-control-q3/1",
        "group_order": expected,
        "degree": action.degree,
        "involution_count": len(involutions),
        "involution_class_count": len(class_reps),
        "involution_class_sizes": class_sizes,
        "triples_tested": triples,
        "generating_triples_found": generating,
        "max_proper_subgroup_order": max_proper,
        "verdict": ("NO_GENERATING_INVOLUTION_TRIPLE" if generating == 0
                    else "GENERATING_TRIPLE_FOUND"),
    }

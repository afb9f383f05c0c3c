"""Parameter search, separation conditions, and triple construction."""

import pytest

from psu3grr import construct
from psu3grr.construct import (ConnectionSetError, ConstructionError,
                               ConstructionParams, UnsupportedQ,
                               build_triple, charpoly_coeffs,
                               check_connection_set, count_valid_b,
                               exponent_set, find_b, require_supported,
                               rotation_order, search_params, separated,
                               separation_table, valid_b_blocks)
from psu3grr.gf import field
from psu3grr.mat3 import Mat3, is_special_unitary, projective_order

ODD_QS = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)]
EVEN_QS = [(2, 2), (2, 3), (2, 4), (2, 5)]


def _scan_valid_b(F, parity):
    """Independent oracle: direct scan with raw field operations."""
    out = []
    for b in list(F.elements())[1:]:
        bq = b.frobenius(F.f)
        if b + bq != F.one:
            continue
        if b * bq == F.one:
            continue
        if parity == "odd" and b == bq:
            continue
        out.append(b)
    return out


def _valid_b(F, parity):
    """Every index valid_b_blocks yields, in order."""
    return [int(i) for block in valid_b_blocks(F, parity) for i in block]


@pytest.mark.parametrize("p,f", ODD_QS + EVEN_QS + [(7, 2), (2, 6)])
def test_find_b_is_first_valid(p, f):
    """find_b, the census count_valid_b and the stacked predicate
    valid_b_blocks against a direct scan, for q from 4 to 64."""
    F = field(p, f)
    parity = require_supported(F)
    oracle = _scan_valid_b(F, parity)
    assert oracle, "trace is onto, so valid b must exist"
    assert _valid_b(F, parity) == [b.index for b in oracle]
    assert find_b(F) == oracle[0]
    assert count_valid_b(F) == len(oracle)


@pytest.mark.parametrize("p,f", [(5, 2), (2, 4)])
@pytest.mark.parametrize("block", [1, 7])
def test_valid_b_does_not_depend_on_the_block_size(monkeypatch, p, f, block):
    """Blocks that split the field give the same b, first b and census."""
    F = field(p, f)
    parity = require_supported(F)
    oracle = [b.index for b in _scan_valid_b(F, parity)]
    monkeypatch.setattr(construct, "BLOCK", block)
    assert _valid_b(F, parity) == oracle
    assert find_b(F).index == oracle[0]
    assert count_valid_b(F) == len(oracle)


def test_find_b_counts_small():
    # q = 5: five trace-one elements; b = 1/2 (subfield) and the two
    # norm-one sixth roots of unity are excluded
    assert count_valid_b(field(5, 1)) == 2
    # q = 4: four trace-one elements, minus norm-one ones
    F = field(2, 2)
    assert count_valid_b(F) == len(_scan_valid_b(F, "even"))


def test_subfield_b_is_excluded_for_odd_q():
    """Any b in GF(q) has b + b^q = 2b; b = 1/2 meets the trace condition
    but fails b != b^q."""
    F = field(5, 1)
    half = F.from_int(2).inv()  # 1/2 = 3 in GF(5)
    assert half + half.frobenius(F.f) == F.one
    assert half.index not in _valid_b(F, "odd")


def test_exponent_set():
    assert exponent_set(1, "odd") == (0, 1)       # {0, 1, 2} mod 2
    assert exponent_set(2, "even") == (0, 2)      # {0, 2, 4, 8} mod 4
    assert exponent_set(3, "odd") == (0, 1, 2)    # {0, f/3, 2f/3}
    assert exponent_set(3, "even") == (0, 2, 3, 4)
    assert exponent_set(2, "odd") == (0, 2)
    assert exponent_set(5, "even") == (0, 5)


def test_condition_xy_xz_fails_for_a_one():
    """With a = 1 both sides of the xy/xz separation coincide."""
    F = field(5, 1)
    b = find_b(F)
    assert not separated(charpoly_coeffs(F, "odd", F.one, b), "xy-xz")


def test_condition_trace_nonzero_detects_zero_trace():
    F = field(2, 2)
    b = find_b(F)
    bad = [a for a in list(F.elements())[1:]
           if a + a.inv() + F.one == F.zero]
    for a in bad:
        assert not separated(charpoly_coeffs(F, "even", a, b),
                             "trace-nonzero")


@pytest.mark.parametrize("p,f", ODD_QS + EVEN_QS)
def test_search_params_succeeds(p, f):
    F = field(p, f)
    cp = search_params(F)
    assert cp.a_census >= 1
    target = F.q - 1 if cp.parity == "odd" else F.q + 1
    assert cp.a.order() == target
    assert all(holds for _, _, holds in separation_table(
        F, cp.parity, cp.a, cp.b, cp.exponent_set))


def test_search_params_census_matches_exhaustive_scan():
    """Oracle: rescan all order-(q-1) elements for the chosen b."""
    F = field(13, 1)
    cp = search_params(F)
    I = exponent_set(F.f, "odd")
    census = sum(1 for a in map(F.from_index, F.indices_of_order(F.q - 1))
                 if all(holds for _, _, holds in
                        separation_table(F, "odd", a, cp.b, I)))
    assert census == cp.a_census


def test_search_is_deterministic():
    for p, f in [(5, 1), (2, 3)]:
        F = field(p, f)
        c1, c2 = search_params(F), search_params(F)
        assert c1.b == c2.b and c1.a == c2.a
        assert c1.exponent_set == c2.exponent_set and c1.a_census == c2.a_census


@pytest.mark.parametrize("p,f", [(3, 1), (2, 1)])
def test_unsupported_q_is_refused(p, f):
    with pytest.raises(UnsupportedQ):
        search_params(field(p, f))


def test_build_triple_odd_fixed_matrices():
    F = field(5, 1)
    cp = search_params(F)
    t = build_triple(cp)
    one, zero = F.one, F.zero
    assert t.Z == Mat3(F, (zero, zero, one, zero, -one, zero, one, zero, zero))
    yz = t.Y * t.Z
    assert yz == Mat3(F, (cp.a, zero, zero, zero, one, zero,
                          zero, zero, cp.a.inv()))


@pytest.mark.parametrize("p,f", [(5, 1), (7, 1), (3, 2), (2, 2), (2, 3),
                                 (2, 4)])
def test_rotation_is_named_and_ordered_by_parity(p, f):
    """The rotation is Y Z for odd q and Z Y for even q, and its projective
    order, its expected order, rotation_order and the order of a agree."""
    F = field(p, f)
    cp = search_params(F)
    name, rotation, expected = build_triple(cp).rotation
    assert name == ("yz" if p % 2 else "zy")
    assert (projective_order(rotation) == expected
            == rotation_order(F, cp.parity) == cp.a.order())


def test_build_triple_even_transvection():
    F = field(2, 2)
    t = build_triple(search_params(F))
    one, zero = F.one, F.zero
    assert t.Z == Mat3(F, (one, zero, one, zero, one, zero, zero, zero, one))


@pytest.mark.parametrize("p,f", ODD_QS + EVEN_QS)
def test_build_triple_integrity(p, f):
    F = field(p, f)
    t = build_triple(search_params(F))
    I = Mat3.identity(F)
    for m in t.matrices:
        assert is_special_unitary(m)
        assert m * m == I


def test_connection_set_check_names_the_violation():
    """A bad connection set is a ConstructionError, which certify reports
    as a stage failure."""
    F = field(5, 1)
    t = build_triple(search_params(F))
    assert issubclass(ConnectionSetError, ConstructionError)
    check_connection_set(t.matrices)
    for bad, message in [((t.X, t.Y, Mat3.identity(F)), "Z projects to"),
                         ((t.X, t.Y, t.Y * t.Z), "Z is not an involution"),
                         ((t.X, t.Y, t.X), "X and Z coincide")]:
        with pytest.raises(ConnectionSetError, match=message):
            check_connection_set(bad)


def test_charpoly_coeff_values_against_displayed_products():
    """The coefficient dictionary matches the actual products' char polys."""
    for p, f in [(5, 1), (3, 2), (2, 2), (2, 3)]:
        F = field(p, f)
        cp = search_params(F)
        t = build_triple(cp)
        coeffs = charpoly_coeffs(F, cp.parity, cp.a, cp.b)
        if cp.parity == "odd":
            products = {"yz": t.Y * t.Z, "xy": t.X * t.Y, "xz": t.X * t.Z}
        else:
            products = {"zy": t.Z * t.Y, "zx": t.Z * t.X, "xy": t.X * t.Y}
        for key, mat in products.items():
            poly = mat.char_poly()
            assert poly.c2 == -coeffs[key]
            assert poly.c1 == coeffs[key]
            assert poly.c0 == -F.one


def test_counting_bounds_per_condition():
    """Each separation condition is a quadratic (after clearing a^-1) in a,
    so it excludes at most 2 elements; odd twisted conditions are only
    quadratic at twist 0 (higher twists raise the degree)."""
    for p, f in [(5, 1), (7, 1), (2, 2), (2, 3)]:
        F = field(p, f)
        parity = require_supported(F)
        target = F.q - 1 if parity == "odd" else F.q + 1
        if parity == "odd":
            cases = [("yz-xy", 0), ("yz-xz", 0), ("xy-xz", None)]
        else:
            I = exponent_set(F.f, parity)
            cases = [(c, i) for c in ("zx-zy", "zx-xy") for i in I]
            cases += [("zy-xy", None), ("trace-nonzero", None)]
        for b in _scan_valid_b(F, parity):
            for cond, i in cases:
                excluded = sum(
                    1 for a in map(F.from_index, F.indices_of_order(target))
                    if not separated(charpoly_coeffs(F, parity, a, b),
                                     cond, i))
                assert excluded <= 2

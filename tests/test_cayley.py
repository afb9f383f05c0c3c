"""Cayley graph construction, export, and structural invariants."""

import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from psu3grr import cayley
from psu3grr.cayley import (MAX_KEY_Q, CayleyGraph, ConnectionSetError,
                            GraphSizeError, build_graph, check_graph_gate,
                            edge_list_sha256, export_graph, frame_points,
                            import_edge_list)
from psu3grr.construct import GeneratorTriple, build_triple, search_params
from psu3grr.gf import FieldElem, field
from psu3grr.grouporder import IsotropicAction, expected_group_order
from psu3grr.mat3 import Mat3, standard_hermitian_form, su3_center_scalars


def _graph(p, f, **kw):
    F = field(p, f)
    t = build_triple(search_params(F))
    return t, build_graph(t, **kw)


def _toy(n, edges):
    return CayleyGraph(n, np.array(edges, dtype=np.int32).reshape(-1, 2))


def test_toy_export_format():
    g = _toy(2, [(0, 1)])
    assert export_graph(g, "edge-list") == b"p edge 2 1\n0 1\n"
    assert export_graph(_toy(2, []), "edge-list") == b"p edge 2 0\n"


def test_toy_adjacency_k4():
    g = _toy(4, list(combinations(range(4), 2)))
    assert export_graph(g, "adjacency") == (
        b"p adj 4 6\n1 2 3\n0 2 3\n0 1 3\n0 1 2\n")


def test_unsupported_format():
    g = _toy(2, [(0, 1)])
    with pytest.raises(ValueError):
        export_graph(g, "graphml")


def test_graph_q4_structure():
    t, g = _graph(2, 2)
    assert g.vertex_count == 62400
    assert len(g.edges) == 93600
    degree = [0] * g.vertex_count
    for u, v in g.edges:
        assert u < v
        degree[u] += 1
        degree[v] += 1
    assert set(degree) == {3}
    # int64, as u * n + v overflows the int32 columns
    packed = g.edges[:, 0].astype(np.int64) * g.vertex_count + g.edges[:, 1]
    assert np.all(packed[1:] > packed[:-1])  # sorted, no repeats


def test_graph_q4_connected():
    _, g = _graph(2, 2)
    # breadth-first sweep over the edge list alone
    nbrs = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen = bytearray(g.vertex_count)
    seen[0] = 1
    frontier = [0]
    count = 1
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    nxt.append(v)
        frontier = nxt
    assert count == g.vertex_count


def test_export_round_trip():
    _, g = _graph(2, 2)
    data = export_graph(g, "edge-list")
    n, edges = import_edge_list(data)
    assert n == g.vertex_count and np.array_equal(edges, g.edges)
    assert edge_list_sha256(g) == edge_list_sha256(g)
    adj = export_graph(g, "adjacency")
    assert adj.startswith(b"p adj 62400 93600\n")
    assert len(adj.splitlines()) == g.vertex_count + 1


@pytest.mark.parametrize("data", [b"p edge 2 1\n0 7\n", b"p edge 2 1\n-1 1\n",
                                  b"p edge 2 1\n0 2\n"])
def test_import_rejects_vertex_ids_out_of_range(data):
    with pytest.raises(ValueError, match="outside"):
        import_edge_list(data)


def test_import_rejects_other_exports():
    g = _toy(4, list(combinations(range(4), 2)))
    with pytest.raises(ValueError, match="not an edge-list export"):
        import_edge_list(export_graph(g, "adjacency"))
    lines = export_graph(g, "edge-list").splitlines(keepends=True)
    assert import_edge_list(b"".join(lines))[0] == 4
    with pytest.raises(ValueError, match="edge count mismatch"):
        import_edge_list(b"".join(lines[:-1]))


def test_graph_build_memory_is_bounded():
    """The q = 5 BFS writes each level's edges, sorted, straight into the
    returned 1.5 MB int32 (m, 2) array, and the degree check counts over
    blocks of rows, so the peak is that array plus one level's lookup
    arrays (3.5 MiB traced; 4.5 MiB with the int64 buffer sorted and
    unpacked at the end)."""
    F = field(5, 1)
    t = build_triple(search_params(F))
    order = expected_group_order(F.q)
    build_graph(t)
    tracemalloc.start()
    try:
        g = build_graph(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edges.nbytes == 3 * order * 4
    assert peak < 4 * 2 ** 20, peak


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1)])
def test_bfs_writes_sorted_int32_rows(p, f):
    """Each level's block of edges is sorted and its smaller ends exceed
    the smaller end of every row before it, so the rows come out sorted
    without a final sort; np.lexsort stands in for that sort."""
    F = field(p, f)
    t = build_triple(search_params(F))
    edges = cayley._bfs(t, IsotropicAction(F), expected_group_order(F.q))
    assert edges.dtype == np.int32 and edges.flags.c_contiguous
    u, v = edges[:, 0], edges[:, 1]
    assert np.all(u < v)
    assert np.all((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1])))
    assert np.array_equal(edges, edges[np.lexsort((v, u))])


@pytest.mark.parametrize("n,edges,message", [
    # K4 is cubic; with one edge missing the count is off
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)], "edge count"),
    # 3n/2 edges, but vertex 0 has degree 5 and vertices 4 and 5 degree 2
    (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (2, 3),
         (4, 5)], "not 3-regular"),
    # K4 with the edge {0, 1} replaced by a second {2, 3}
    (4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 3)], "not 3-regular"),
    (4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)], "outside"),
])
def test_cubic_check_rejects_bad_graphs(n, edges, message):
    with pytest.raises(RuntimeError, match=message):
        cayley._check_cubic(n, np.array(edges, dtype=np.int32))


def test_cubic_check_counts_across_blocks():
    g = _mobius_ladder(1000)  # 1500 rows, in blocks of 94
    cayley._check_cubic(g.vertex_count, g.edges)
    bad = g.edges.copy()
    bad[700, 1] = bad[300, 1]
    with pytest.raises(RuntimeError, match="not 3-regular"):
        cayley._check_cubic(g.vertex_count, bad)


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1)])
def test_bfs_numbering_ignores_the_key_points(p, f, monkeypatch):
    """The edges are the same when the vertices are keyed by another
    non-collinear triple of isotropic points: the frame mirrored to the
    end of the point order, n - 1, n - 2 and n - 2 - q."""
    F = field(p, f)
    t = build_triple(search_params(F))
    action = IsotropicAction(F)
    order = expected_group_order(F.q)
    default = cayley._bfs(t, action, order)
    n = action.degree
    other = (n - 1, n - 2, n - 2 - F.q)
    assert not set(other) & set(frame_points(F.q))
    rows = [[FieldElem(F, i) for i in action.point_matrix[k]] for k in other]
    assert Mat3.from_rows(F, rows).det()
    monkeypatch.setattr(cayley, "frame_points", lambda _: other)
    assert np.array_equal(cayley._bfs(t, action, order), default)


def test_right_translation_is_automorphism():
    """10 random translations, checked on 10^4 sampled edges overall.

    Vertices are multiplied as the scalar reference's matrix labels and
    looked up by its coset keys."""
    t, g = _graph(2, 2)
    F = t.field
    labels, key_index, _ = _scalar_bfs(t)
    canon = _canonicalizer(F)
    rng = random.Random(0xCAFE)
    edges = g.edges.tolist()
    edge_set = set(map(tuple, edges))
    sample = [edges[rng.randrange(len(edges))] for _ in range(1000)]
    for _ in range(10):
        h = Mat3.from_flat_indices(F, labels[rng.randrange(g.vertex_count)])

        def times_h(u):
            prod = Mat3.from_flat_indices(F, labels[u]) * h
            return key_index[canon(prod.flat_indices)]

        for u, v in sample:
            uu, vv = times_h(u), times_h(v)
            assert (uu, vv) in edge_set or (vv, uu) in edge_set


def test_size_gate():
    F = field(7, 1)
    t = build_triple(search_params(F))
    with pytest.raises(GraphSizeError):
        build_graph(t)  # 5.6M vertices


@pytest.mark.parametrize("order,message", [
    (31200, "more than 46800 edges"),  # the edge buffer would overrun
    (62398, "more than 93597 edges"),
    (62402, "found 62400 elements"),
])
def test_wrong_certified_order_is_refused(order, message):
    F = field(2, 2)
    t = build_triple(search_params(F))
    with pytest.raises(RuntimeError, match=message):
        cayley._bfs(t, IsotropicAction(F), order)


def test_connection_set_violations_are_rejected():
    F = field(5, 1)
    cp = search_params(F)
    t = build_triple(cp)
    ident = Mat3.identity(F)
    with_identity = GeneratorTriple(cp, t.X, t.Y, ident)
    with pytest.raises(ConnectionSetError):
        build_graph(with_identity)
    duplicated = GeneratorTriple(cp, t.X, t.Y, t.X)
    with pytest.raises(ConnectionSetError):
        build_graph(duplicated)
    non_involution = GeneratorTriple(cp, t.X, t.Y, t.Y * t.Z)
    with pytest.raises(ConnectionSetError):
        build_graph(non_involution)
    # -Y is an involution acting as Y does, but the key argument needs SU3
    outside_su3 = GeneratorTriple(cp, t.X, t.Y.scalar_mul(-F.one), t.Z)
    with pytest.raises(ConnectionSetError, match="Y is not in SU3"):
        build_graph(outside_su3)


def test_key_packing_limit_refuses_large_q():
    # q = 13 has 8.1e8 vertices, past memory; up to q = 11 a key (three
    # point indices in base q^3 + 1) and a child's position fit in an int64
    F = field(13, 1)
    t = build_triple(search_params(F))
    with pytest.raises(GraphSizeError, match=f"q <= {MAX_KEY_Q}"):
        check_graph_gate(F, allow_large=True)
    with pytest.raises(GraphSizeError, match=f"q <= {MAX_KEY_Q}"):
        build_graph(t, allow_large=True)
    F11 = field(11, 1)
    assert (((11 ** 3 + 1) ** 3 - 1).bit_length()
            + (3 * expected_group_order(11) - 1).bit_length()) <= 63
    assert check_graph_gate(F11, allow_large=True) == expected_group_order(11)


def test_bfs_refuses_values_past_int64():
    F = field(2, 2)
    t = build_triple(search_params(F))
    # 19 key bits at q = 4, and positions of 46 bits
    with pytest.raises(GraphSizeError, match="overflow"):
        cayley._bfs(t, IsotropicAction(F), 2 ** 44)


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1)])
def test_frame_points_are_isotropic_and_in_general_position(p, f):
    F = field(p, f)
    W = standard_hermitian_form(F)
    action = IsotropicAction(F)
    frame = [[FieldElem(F, i) for i in action.point_matrix[k]]
             for k in frame_points(F.q)]
    assert len(frame) == 3

    def form(u, v):
        conj = [x.frobenius(F.f) for x in u]
        return sum((conj[i] * W.e[3 * i + j] * v[j]
                    for i in range(3) for j in range(3)), F.zero)

    for v in frame:
        assert not form(v, v)
    # distinct isotropic points are never orthogonal (Witt index 1), which
    # the three-point key relies on
    for u, v in combinations(frame, 2):
        assert form(u, v)
    assert Mat3.from_rows(F, frame).det()


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1)])
def test_transposed_permutation_is_column_action(p, f):
    """P_s = permutation(s^T) sends point v to s v, checked point by point
    with scalar matrix arithmetic."""
    F = field(p, f)
    action = IsotropicAction(F)
    points = [[FieldElem(F, i) for i in row]
              for row in action.point_matrix.tolist()]
    index = {tuple(x.index for x in v): k for k, v in enumerate(points)}
    for s in build_triple(search_params(F)).matrices:
        perm = action.permutation(s.transpose())
        for k, v in enumerate(points):
            w = [sum((s.e[3 * i + j] * v[j] for j in range(3)), F.zero)
                 for i in range(3)]
            lead = next(x for x in w if x).inv()
            assert perm[k] == index[tuple((x * lead).index for x in w)]


# ---------------------------------------------------------------------------
# Reference: the sequential scalar BFS and string export the level-synchronous
# numpy closure replaced.  Kept only to check that closure.
# ---------------------------------------------------------------------------

def _canonicalizer(field):
    """key9 -> lexicographically least flat tuple over center multiples."""
    scalars = [c.index for c in su3_center_scalars(field) if c != field.one]
    if not scalars:
        return lambda key: key
    mul = field.mul_index
    rows = [[mul(c, i) for i in range(field.size)] for c in scalars]
    def canon(key):
        best = key
        for row in rows:
            cand = (row[key[0]], row[key[1]], row[key[2]],
                    row[key[3]], row[key[4]], row[key[5]],
                    row[key[6]], row[key[7]], row[key[8]])
            if cand < best:
                best = cand
        return best
    return canon


def _mat_mul_flat(field):
    mul, add = field.mul_index, field.add_index
    def mul9(m, n):
        return tuple(add(add(mul(m[3 * i], n[j]), mul(m[3 * i + 1], n[3 + j])),
                         mul(m[3 * i + 2], n[6 + j]))
                     for i in range(3) for j in range(3))
    return mul9


def _scalar_bfs(t):
    """(labels, key_index, sorted edges) of the sequential closure."""
    field = t.field
    canon = _canonicalizer(field)
    mul9 = _mat_mul_flat(field)
    gens = [m.flat_indices for m in t.matrices]
    ident = Mat3.identity(field).flat_indices
    root = canon(ident)
    key_index = {root: 0}
    labels = [root]
    reps = [ident]
    edges = set()
    pos = 0
    while pos < len(reps):
        g = reps[pos]
        for s in gens:
            h = mul9(s, g)
            k = canon(h)
            idx = key_index.get(k)
            if idx is None:
                idx = len(labels)
                key_index[k] = idx
                labels.append(k)
                reps.append(h)
            edges.add((pos, idx) if pos < idx else (idx, pos))
        pos += 1
    return labels, key_index, sorted(edges)


def _scalar_export(n, edges, fmt):
    if fmt == "edge-list":
        lines = [f"p edge {n} {len(edges)}"]
        lines.extend(f"{u} {v}" for u, v in edges)
        return ("\n".join(lines) + "\n").encode()
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    lines = [f"p adj {n} {len(edges)}"]
    lines.extend(" ".join(str(x) for x in sorted(row)) for row in nbrs)
    return ("\n".join(lines) + "\n").encode()


def test_level_bfs_matches_scalar_reference():
    t, g = _graph(2, 2)
    _, key_index, edges = _scalar_bfs(t)
    assert g.vertex_count == len(key_index) == 62400
    assert key_index[Mat3.identity(t.field).flat_indices] == 0
    assert g.edges.tolist() == [list(e) for e in edges]


def test_enumerate_group_identity_is_index_zero():
    t, g = _graph(2, 2)
    assert g.vertex_count == 62400
    # vertex 0 is the identity: its neighbours are the generator classes,
    # discovered first, in generator order
    canon = _canonicalizer(t.field)
    _, key_index, _ = _scalar_bfs(t)
    assert key_index[canon(Mat3.identity(t.field).flat_indices)] == 0
    gen_idx = {key_index[canon(m.flat_indices)] for m in t.matrices}
    nbrs = {int(v) for u, v in g.edges if u == 0}
    assert nbrs == gen_idx == set(range(1, len(gen_idx) + 1))


def _boundary_edges(top):
    """Sorted edges among 0, 1, 2 and the ids 10^k - 2 .. 10^k + 1 for
    10^k <= top, each joined to its successor and to a few far ids."""
    ids = sorted({0, 1, 2}.union(*({10 ** k + d for d in (-2, -1, 0, 1)}
                                   for k in range(1, len(str(top))))))
    edges = {(u, v) for u, v in zip(ids, ids[1:])}
    edges |= {(ids[i], ids[j]) for i in range(len(ids))
              for j in range(i + 5, len(ids), 7)}
    return sorted(edges), ids[-1] + 2


@pytest.mark.parametrize("chunk", [cayley.BLOCK, 5])
@pytest.mark.parametrize("fmt,top", [("edge-list", 10 ** 7)])
def test_export_digits_cross_every_boundary(fmt, top, chunk, monkeypatch):
    """Ids of every decimal width up to 8 digits (q = 7 ids have 7), and
    chunks of mixed widths."""
    edges, n = _boundary_edges(top)
    monkeypatch.setattr(cayley, "BLOCK", chunk)
    assert export_graph(_toy(n, edges), fmt) == _scalar_export(n, edges, fmt)


def _mobius_ladder(n):
    """The cubic graph on n (even) vertices joining i to i + 1 and to
    i + n/2, mod n."""
    edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n)}
    edges |= {(i, i + n // 2) for i in range(n // 2)}
    return _toy(n, sorted(edges))


@pytest.mark.parametrize("chunk", [cayley.BLOCK, 1000, 97])
def test_cubic_exports_cross_chunk_boundaries(chunk, monkeypatch):
    """Ids of 1 to 6 digits, in both formats; vertex 0 has only larger
    neighbours and vertex n - 1 only smaller ones."""
    g = _mobius_ladder(100002)
    edges = [tuple(e) for e in g.edges.tolist()]
    monkeypatch.setattr(cayley, "BLOCK", chunk)
    for fmt in ("edge-list", "adjacency"):
        assert export_graph(g, fmt) == _scalar_export(g.vertex_count, edges,
                                                      fmt), fmt


@pytest.mark.parametrize("p,f", [(2, 2), (5, 1)])
def test_exports_match_scalar_reference(p, f):
    t, g = _graph(p, f)
    _, _, edges = _scalar_bfs(t)
    for fmt in ("edge-list", "adjacency"):
        assert export_graph(g, fmt) == _scalar_export(g.vertex_count, edges,
                                                      fmt), fmt

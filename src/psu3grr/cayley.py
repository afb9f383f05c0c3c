"""Explicit construction and export of the cubic Cayley graph.

Vertices are the elements of PSU3(q).  A breadth first closure from the
identity under left multiplication by {X, Y, Z} enumerates the group
deterministically (the identity gets index 0) and yields the undirected
edges {g, sg} at the same time.

Each element g is keyed by where it sends three isotropic points.  The
points f1, f2, f3 are the points 0, 1 and q + 1 of `IsotropicAction`, not
collinear (`frame_points`), and the key of g is the point indices of
g f1, g f2, g f3, with g acting on column vectors.  The key identifies the
element of the group X, Y and Z generate, which `build_graph` first puts
in SU3(q) through `construct.check_connection_set`:

* SU3(q) meets the scalars exactly in its center, so PSU3(q) embeds in
  PGL3(q^2): g and h are the same element of PSU3(q) exactly when h^-1 g
  is scalar.
* Distinct isotropic points are never orthogonal: the unitary 3-space has
  Witt index 1, so it holds no totally isotropic plane.  Hence
  h(fi, fj) != 0 for i != j, with h the Hermitian form.
* A unitary matrix M that fixes f1, f2 and f3 is scalar.  They are a
  basis, as they are not collinear, and M fi = li fi makes M diag(l1, l2,
  l3) in it.  M preserves the form, so h(fi, fj) = li^q lj h(fi, fj), and
  li^q lj = 1 for every i != j.  From l1^q l2 = 1 = l3^q l2 follows
  l1^q = l3^q, so l1 = l3 as the Frobenius map is injective; likewise
  l1^q l3 = 1 = l2^q l3 gives l1 = l2.
* Hence g and h have the same key exactly when h^-1 g fixes the three
  points, that is when they are the same vertex.  Center multiples share a
  key, so no minimum over the center is taken.  Should a key ever collide
  all the same, the closure finds fewer elements than |PSU3(q)|, and
  `build_graph` raises.

Left multiplication is then a gather: the column action preserves the
isotropic points (s^H W s = W), and the point index of s v is P_s[index of
v] for P_s = `IsotropicAction.permutation(s.transpose())`, since the row
action v -> v s^T is the transpose of v -> s v.  So key(s g) = P_s[key(g)],
three permutation gathers per child and no field arithmetic.  A key is
packed into one int64 in base q^3 + 1.

The closure runs one BFS level at a time on numpy arrays:

* A level is a (3, F) array of the keys of its vertices, and its
  (parent, generator) columns, parent-major, are the children s * g for
  s = X, Y, Z.  Only the forward columns are formed, in increasing
  position order; the back columns are left out.
* The back columns of a vertex v of level L + 1 are the generators s with
  s * v in level L.  X, Y and Z are involutions (checked by
  `construct.check_connection_set`), so if a column (u, s) of level L
  produced v, then s * v = s * s * u = u; and if s * v = w lies in level
  L, then s * w = v, so the column (w, s) produced v.  Hence the back
  columns of v are the generators of the columns where v appears among
  level L's children, one OR over v's run (below) when v is numbered.
  Leaving them out loses nothing: the edge {u, v} of a back column was
  kept at its smaller end u, and the column holds u, already numbered.
* The K forward child values key << s | j, with j the column's index
  among the forward columns and s = bit_length(K - 1), are sorted once,
  by value.  Their low bits give the sorting permutation.  A run of equal
  keys is one vertex, and its columns are exactly the forward columns
  where it appears, in increasing order, so the run's head is its first
  appearance.  No two values are equal, so there are no ties whose order
  could matter.  Each child gets its run's id, and its parent is read off
  its column's position (parent start + position // 3).  The value must
  fit in an int64: at q = MAX_KEY_Q = 11 a key is below 1332^3 < 2^31.2
  and j below 3n < 2^27.7, so values stay under 2^59.
* The distinct keys are matched against the keys of the current level,
  held sorted with its vertex ids: one `searchsorted` places every known
  key among the distinct keys, and as both sides are sorted, the search
  walks memory in order.  Looking only there finds every known vertex.
  The graph is undirected (g = s * (s * g)), so BFS distances of
  neighbours differ by at most one, and every neighbour of a vertex of
  level L lies in level L - 1, L or L + 1; those in level L - 1 are
  exactly its back columns.  The keys not found form level L + 1; they
  are in sorted order already, so that level's sorted keys cost no sort.
* The new vertices are numbered in the order of their first appearance in
  the (parent, generator) sequence (one more value sort, of first
  appearance << bits | run, as first appearances are distinct), and the
  next frontier takes their columns in that order.  A back column never
  holds a new vertex, and the forward columns keep their order, so the
  first appearance among them is the first appearance in the whole
  sequence.  That is the numbering of the sequential BFS (pop vertices in
  index order, try X, Y, Z, number each unseen element next): it numbers
  levels in turn, since a FIFO queue holds every vertex of level L before
  any of level L + 1, and within level L + 1 it numbers each vertex when
  it first appears as a child in that same sequence.  So edges and every
  export are the same as the sequential BFS's.
* Every edge kept while level L is processed has its smaller end, the
  parent, in level L, and the levels hold increasing id ranges.  So each
  level's kept edges, sorted as u << 32 | v, are written straight into
  the returned (m, 2) array after those of the levels before, and the
  blocks concatenate into sorted order with no final sort.

The keys' point-index digits are int16 at every q a graph is built for
(the permutations' dtype, at degree q^3 + 1 <= 1332), packed keys int64,
and everything else int32: vertex ids, column positions, parents,
generators, run starts and the returned edges.  That is exact as long as
3n < 2^31, and at q = MAX_KEY_Q, 3n = 3 * 70 915 680 = 212 747 040 <
2^28.  `_bfs` checks both this bound and the int64 one above for the
order it is given before the first level.

No per-vertex or per-edge Python object is made while building, hashing or
exporting a graph, and nothing after the BFS copies the whole edge array
to int64: `CayleyGraph` holds the int32 edge array, the degree check
counts it in blocks, and exports are written in chunks straight from it,
the adjacency export as the rows of the (n, 3) neighbour table of the
cubic graph (see `_adjacency_chunks`).

The triple alone fixes the graph, on |PSU3(q)| vertices, built only up to
|PSU3(5)| = 126000 unless overridden; nothing downstream needs it, it
exists for export and independent cross-checks.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import grouporder
from .construct import (ConnectionSetError, GeneratorTriple,
                        check_connection_set)
from .gf import BLOCK, Field
from .grouporder import IsotropicAction

DEFAULT_MAX_VERTICES = 126000
# Largest q whose graph is built at all, even when allowed past the default
# gate: |PSU3(13)| is about 8.1e8 vertices, whose edge array alone would take
# some 10 GB in int32.
MAX_KEY_Q = 11


class GraphSizeError(RuntimeError):
    """Graph refused by `check_graph_gate` before any work."""


def _pack(cols: np.ndarray, base: int) -> np.ndarray:
    """One int64 per column of a (k, F) digit array, row 0 most significant."""
    out = cols[0].astype(np.int64)
    for row in cols[1:]:
        out *= base
        out += row
    return out


def frame_points(q: int) -> tuple[int, int, int]:
    """Three isotropic points, not collinear: 0, 1 and q + 1.

    In the order of `IsotropicAction.point_matrix`, point 0 is [0, 0, 1]
    and points 1 to q are the [1, 0, y] with y + y^q = 0, all on the line
    v1 = 0; point q + 1 is [1, x, y] with x the field element of index 1,
    which is not 0.  The three rows have determinant x, so the points are
    not collinear.
    """
    return 0, 1, q + 1


class CayleyGraph(NamedTuple):
    vertex_count: int
    edges: np.ndarray   # int32 (m, 2): u < v in each row, rows sorted


def check_graph_gate(field: Field, allow_large: bool) -> int:
    """Refuse a graph the BFS cannot or should not build, before any work;
    otherwise return its vertex count |PSU3(q)|."""
    expected_order = grouporder.expected_group_order(field.q)
    if expected_order > DEFAULT_MAX_VERTICES and not allow_large:
        raise GraphSizeError(
            f"|PSU3({field.q})| = {expected_order} vertices exceeds the "
            f"default gate of {DEFAULT_MAX_VERTICES}; pass allow_large=True "
            "(CLI: --allow-large-graph) to build it anyway")
    if field.q > MAX_KEY_Q:
        raise GraphSizeError(
            f"q = {field.q}: |PSU3({field.q})| = {expected_order} vertices "
            f"do not fit in memory; graphs are built for q <= {MAX_KEY_Q} "
            "only")
    return expected_order


def _bfs(t: GeneratorTriple, action: IsotropicAction, expected_order: int):
    """Sorted int32 (m, 2) edges of the level-synchronous closure; see the
    module doc."""
    perms = [action.permutation(s.transpose()) for s in t.matrices]
    base = action.degree
    k = len(perms)
    # column positions and vertex ids must fit in an int32, and a level's
    # values key << shift | j in an int64
    position_bits = (k * expected_order - 1).bit_length()
    if position_bits > 31 or (base ** 3 - 1).bit_length() + position_bits > 63:
        raise GraphSizeError(
            f"q = {action.field.q}: BFS positions of {expected_order} "
            "vertices overflow an int32, or packed keys an int64")
    # children s * v are gathered from one table of the permutations: the
    # image of point x under generator s is table[s * base + x]
    table = np.concatenate(perms)
    frontier = np.array(frame_points(action.field.q), table.dtype)[:, None]
    # the current level's keys, sorted, with the vertex ids alongside
    level_keys, level_ids = _pack(frontier, base), np.zeros(1, dtype=np.int32)
    # per frontier vertex, bit s set when s * v lies in the previous level
    back = np.zeros(1, dtype=np.uint8)
    bit = (1 << np.arange(k)).astype(np.uint8)
    # every vertex is a parent once and keeps the edges to its larger
    # neighbours, 3n/2 in all on a cubic graph; each level's block is
    # written in order
    edges = np.empty((k * expected_order // 2, 2), dtype=np.int32)
    m = 0
    start = 0  # index of the first vertex of the current level
    n = 1
    while frontier.shape[1]:
        # the positions vertex * k + generator of the forward columns, in
        # increasing order
        cols = np.flatnonzero(back[:, None] & bit == 0).astype(np.int32)
        del back
        if not len(cols):  # every neighbour lies in the previous level
            break
        vert, offset = np.divmod(cols, k)
        offset *= base
        children = np.empty((len(frontier), len(cols)), dtype=frontier.dtype)
        for row, points in zip(children, frontier):
            table.take(points.take(vert) + offset, out=row)
        del frontier, vert, offset
        # sort key << shift | j, j the index among the forward columns, by
        # value: the low bits give the permutation, and each run of equal
        # keys is one vertex, whose head is its first appearance
        shift = (len(cols) - 1).bit_length()
        keys = _pack(children, base)
        keys <<= shift
        keys |= np.arange(len(cols), dtype=np.int32)
        keys.sort()
        sort = np.empty(len(keys), dtype=np.int32)
        np.bitwise_and(keys, (1 << shift) - 1, out=sort, casting="unsafe")
        keys >>= shift
        head = np.empty(len(keys), dtype=bool)
        head[0] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        starts = np.flatnonzero(head).astype(np.int32)
        del head
        unique = keys.take(starts)
        del keys
        first = sort.take(starts)
        # a forward child lies in the current level or the next: look each
        # vertex up in the current level
        ids = np.full(len(unique), -1, dtype=np.int32)
        pos = np.searchsorted(unique, level_keys)
        np.minimum(pos, len(unique) - 1, out=pos)
        hit = unique[pos] == level_keys
        ids[pos[hit]] = level_ids[hit]
        del pos, hit, level_keys, level_ids
        # number the new vertices by first appearance: sort first << bits
        # | run by value, as the first appearances are distinct
        new = np.flatnonzero(ids < 0)
        bits = (len(unique) - 1).bit_length()
        order = np.left_shift(first.take(new), bits, dtype=np.int64)
        del first
        order |= new
        order.sort()
        runs = order & ((1 << bits) - 1)
        ids[runs] = np.arange(n, n + len(new), dtype=np.int32)
        level_keys, level_ids = unique.take(new), ids.take(new)
        del unique, new
        # the column each new vertex first appeared in
        order >>= bits
        frontier = children[:, order]
        del children, order
        # the edges in key order: every child in a run gets the run's id,
        # and the child at position c has the parent start + c // k
        idx = np.repeat(ids, np.diff(starts, append=np.int32(len(sort))))
        parents, gen = np.divmod(cols.take(sort, out=sort), k)
        parents += start
        del sort, ids, cols
        # child s * u = v makes s * v = u a back column of v, as s is an
        # involution: OR each new vertex's generator bits over its run
        back = np.bitwise_or.reduceat(bit.take(gen), starts).take(runs)
        del gen, starts, runs
        if np.any(idx == parents):
            raise ConnectionSetError("loop edge: a generator fixes a coset")
        # an edge {g, sg} within the level is found from both ends, and one
        # to the next level from its end in this level (the other end's
        # column is a back column): keep each at its smaller end.  It is
        # found there only once, as check_connection_set rejects generators
        # that coincide in PSU3(q).
        up = parents < idx
        end = m + np.count_nonzero(up)
        if end > len(edges):
            raise RuntimeError(
                f"group closure has more than {len(edges)} edges, the "
                f"number of a cubic graph on {expected_order} vertices")
        # the level's edges, sorted as u << 32 | v: all their smaller ends
        # lie in this level, above the smaller end of every row before
        block = np.left_shift(parents[up], 32, dtype=np.int64)
        block |= idx[up]
        del parents, idx, up
        block.sort()
        np.right_shift(block, 32, out=edges[m:end, 0], casting="unsafe")
        np.bitwise_and(block, 0xFFFFFFFF, out=edges[m:end, 1],
                       casting="unsafe")
        del block
        m = end
        start, n = n, n + frontier.shape[1]
        if n > expected_order:
            break
    if n != expected_order:
        raise RuntimeError(
            f"group closure found {n} elements, certificate says "
            f"{expected_order}")
    return edges[:m]


def _check_cubic(n: int, edges: np.ndarray):
    """Raise unless the edges have 3n/2 rows and every vertex id in
    [0, n) occurs three times.

    Degrees are counted over sixteen blocks of rows, each by a bincount of
    its id window, so the int64 copy of the ends that bincount reads is a
    sixteenth of them, never the whole array.  They are kept mod 256:
    counts that are 3 mod 256 are at least 3 each, and as the n counts sum
    to 2m = 3n, each is 3.
    """
    if len(edges) * 2 != 3 * n:
        raise RuntimeError(f"edge count {len(edges)} != 3n/2")
    degree = np.zeros(n, dtype=np.uint8)
    rows = max(-(-len(edges) // 16), 1)
    for lo in range(0, len(edges), rows):
        ends = edges[lo:lo + rows].ravel()
        low, high = int(ends.min()), int(ends.max()) + 1
        if low < 0 or high > n:
            raise RuntimeError(f"vertex id outside [0, {n})")
        window = degree[low:high]
        np.add(window, np.bincount(np.subtract(ends, low, dtype=np.intp),
                                   minlength=high - low),
               out=window, casting="unsafe")
    if np.any(degree != 3):
        raise RuntimeError("graph is not 3-regular")


def build_graph(t: GeneratorTriple, allow_large: bool = False) -> CayleyGraph:
    """Cay(PSU3(q), {X, Y, Z}) on |PSU3(q)| vertices, from the triple alone."""
    order = check_graph_gate(t.field, allow_large)
    check_connection_set(t.matrices)
    edges = _bfs(t, IsotropicAction(t.field), order)
    _check_cubic(order, edges)
    return CayleyGraph(order, edges)


def _decimal(values: np.ndarray, seps: np.ndarray) -> bytes:
    """Each value in decimal followed by its separator byte.

    Values are vertex ids, at least 0 and below 2^31 for every q <=
    MAX_KEY_Q, so digits are computed in int32.  Row i of the (N, width +
    1) buffer holds the digits of value i, most significant first, and its
    separator; the bytes come out row by row, without leading zeros.
    """
    width = len(str(int(values.max(initial=0))))
    rest = values.astype(np.int32)
    quot = np.empty_like(rest)
    buf = np.empty((len(values), width + 1), dtype=np.uint8)
    for col in range(width - 1, -1, -1):
        np.floor_divide(rest, 10, out=quot)
        rest -= 10 * quot
        np.add(rest, 48, out=buf[:, col], casting="unsafe")
        rest, quot = quot, rest
    buf[:, width] = seps
    # digit c is written when value >= 10^(width - 1 - c), the last digit
    # and the separator always
    low = np.zeros(width + 1, dtype=np.int32)
    low[:width - 1] = 10 ** np.arange(width - 1, 0, -1, dtype=np.int32)
    return buf[values[:, None] >= low].tobytes()


def _edge_list_chunks(g: CayleyGraph):
    yield f"p edge {g.vertex_count} {len(g.edges)}\n".encode()
    rows = BLOCK // 2
    seps = np.tile(np.array([32, 10], dtype=np.uint8), rows)
    for lo in range(0, len(g.edges), rows):
        values = g.edges[lo:lo + rows].ravel()
        yield _decimal(values, seps[:len(values)])


def _adjacency_chunks(g: CayleyGraph):
    """Line v is row v of the (n, 3) neighbour table: every CayleyGraph is
    cubic, as `build_graph` checks.

    The rows u < v are sorted, so the ends of vertex v are its edges
    (w, v), w < v, and then its edges (v, w), w > v, each by increasing w:
    its row is sorted as written.  One int64 sort of the reversed rows
    v << 32 | w puts the lower ends in vertex order.  Let L(v) count the
    lower ends of the vertices below v; as those vertices own 3v ends,
    U(v) = 3v - L(v) edge rows have their smaller end below v.  Vertex v
    takes slots 3v to 3v + 2, lower ends first, so lower end i (in sorted
    order, of vertex v) goes to slot i + U(v), and edge row j (of smaller
    end v) to slot j + L(v + 1).  Neither needs a sort by vertex.
    """
    n, edges = g.vertex_count, g.edges
    yield f"p adj {n} {len(edges)}\n".encode()
    lower = edges[:, 1].astype(np.int64)
    lower <<= 32
    lower |= edges[:, 0]
    lower.sort()
    step = BLOCK // 3
    seps = np.tile(np.array([32, 32, 10], dtype=np.uint8), step)
    for a in range(0, n, step):
        b = min(a + step, n)
        span = np.arange(a, b + 1, dtype=np.int64)
        below = np.searchsorted(lower, span << 32)
        rows = 3 * span - below
        nbrs = np.empty(3 * (b - a), dtype=np.int32)
        # slots relative to the chunk's first slot 3a = L(a) + U(a)
        ends = lower[below[0]:below[-1]]
        at = rows.take((ends >> 32) - a)
        at += np.arange(-rows[0], len(ends) - rows[0])
        nbrs[at] = ends
        ends = edges[rows[0]:rows[-1]]
        at = below.take(ends[:, 0] - (a - 1))
        at += np.arange(-below[0], len(ends) - below[0])
        nbrs[at] = ends[:, 1]
        yield _decimal(nbrs, seps[:len(nbrs)])


def export_chunks(g: CayleyGraph, fmt: str = "edge-list"):
    """The bytes of `export_graph(g, fmt)`, as an iterator of chunks."""
    if fmt == "edge-list":
        return _edge_list_chunks(g)
    if fmt == "adjacency":
        return _adjacency_chunks(g)
    raise ValueError(f"unsupported export format: {fmt}")


def export_graph(g: CayleyGraph, fmt: str = "edge-list") -> bytes:
    """Deterministic byte serialization.

    edge-list: header "p edge N M", then one "u v" line per edge, u < v,
    sorted.  adjacency: header "p adj N M", then line i holds the three
    neighbors of vertex i, sorted.
    """
    return b"".join(export_chunks(g, fmt))


def import_edge_list(data: bytes) -> tuple[int, np.ndarray]:
    header, _, body = data.partition(b"\n")
    tag, kind, n, m = header.split()
    if tag != b"p" or kind != b"edge":
        raise ValueError("not an edge-list export")
    n, m = int(n), int(m)
    tokens = body.split()
    if len(tokens) != 2 * m or body.count(b"\n") != m:
        raise ValueError("edge count mismatch in edge-list import")
    edges = np.array(tokens, dtype=np.int64).reshape(m, 2)
    if np.any(edges < 0) or np.any(edges >= n):
        raise ValueError(f"vertex id outside [0, {n}) in edge-list import")
    return n, edges


def edge_list_sha256(g: CayleyGraph) -> str:
    # hashlib's OpenSSL SHA-256, not the built-in one cli hashes
    # certificates with: it hashes the q = 5 edge list (2 312 691 bytes) in
    # about 1.7 ms against 9.4 ms on a 2-vCPU Xeon VM.  Imported here, so
    # libcrypto loads only in runs that hash a graph, and after its BFS
    import hashlib

    digest = hashlib.sha256()
    for chunk in export_chunks(g, "edge-list"):
        digest.update(chunk)
    return digest.hexdigest()

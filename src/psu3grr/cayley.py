"""Explicit construction and export of the cubic Cayley graph.

Vertices are the elements of PSU3(q).  A breadth first closure from the
identity under left multiplication by {X, Y, Z} enumerates the group
deterministically (the identity gets index 0) and yields the undirected
edges {g, sg} at the same time.

Each element g is keyed by where it sends a projective frame.  The frame
f1, ..., f4 is four points of `IsotropicAction.point_matrix`, no three
collinear (`frame_points`), and the key of g is the point indices of
g f1, ..., g f4, with g acting on column vectors.  The key identifies the
element:

* SU3(q) meets the scalars exactly in its center, so PSU3(q) embeds in
  PGL3(q^2): g and h are the same element of PSU3(q) exactly when h^-1 g
  is scalar.
* A matrix M that fixes the four frame points is scalar.  Write
  f4 = a f1 + b f2 + c f3; a, b and c are nonzero because no three frame
  points are collinear.  M fi = li fi for each i gives
  a l1 f1 + b l2 f2 + c l3 f3 = l4 (a f1 + b f2 + c f3), so l1 = l2 = l3 = l4.
* Hence g and h have the same key exactly when h^-1 g fixes the frame,
  that is when they are the same vertex.  Center multiples share a key, so
  no minimum over the center is taken.  Should a key ever collide all the
  same, the closure finds fewer elements than |PSU3(q)|, and
  `build_graph` raises.

Left multiplication is then a gather: the column action preserves the
isotropic points (s^H W s = W), and the point index of s v is P_s[index of
v] for P_s = `IsotropicAction.permutation(s.transpose())`, since the row
action v -> v s^T is the transpose of v -> s v.  So key(s g) = P_s[key(g)],
four permutation gathers per child and no field arithmetic.  A key is packed
into one int64 in base q^3 + 1, which holds for q <= 38.

The closure runs one BFS level at a time on numpy arrays:

* A level is a (4, F) array of the keys of its vertices.  The children
  s * g for s = X, Y, Z are formed in (parent, generator) order,
  parent-major.
* The 3F child keys of a level (F vertices) are sorted once with
  `np.argsort`.  A run of equal keys is one vertex, and its positions are
  exactly the (parent, generator) columns where it appears, so it first
  appears at the smallest position in its run (`np.minimum.reduceat`).
  The sort need not be stable: the runs, the sorted distinct keys and the
  minima are the same whatever order ties come in.  So are the level's
  edges: each child gets its run's id, and its parent is read off its
  position (parent start + position // 3), and the edges are sorted at
  the end anyway.
* The distinct keys are matched against the keys of the previous and the
  current level, each held sorted with its vertex ids: `searchsorted`
  places every known key among the distinct keys, and as both sides are
  sorted, the searches walk memory in order.  Looking only there finds
  every known vertex: X, Y and Z are
  involutions (checked by `construct.check_connection_set`), so g = s(sg)
  and the graph is undirected; hence BFS distances of neighbours differ by
  at most one, and every neighbour of a vertex of level L lies in level
  L - 1, L or L + 1.  The keys not found there form level L + 1; they are
  in sorted order already, so that level's sorted keys cost no sort.
* The new vertices are numbered in the order of their first appearance in
  the (parent, generator) sequence, and the next frontier takes their
  columns in that order.  That is the numbering of the sequential
  BFS (pop vertices in index order, try X, Y, Z, number each unseen element
  next): it numbers levels in turn, since a FIFO queue holds every vertex
  of level L before any of level L + 1, and within level L + 1 it numbers
  each vertex when it first appears as a child in that same sequence.  So
  edges and every export are the same as the sequential BFS's.

No per-vertex or per-edge Python object is made while building, hashing or
exporting a graph: `CayleyGraph` holds the edge array, and exports are
written in chunks straight from it.

The full graph is only built for groups up to |PSU3(5)| = 126000 vertices
unless explicitly overridden; nothing downstream needs the explicit graph,
it exists for export and independent cross-checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .construct import (ConnectionSetError, GeneratorTriple,
                        check_connection_set)
from .gf import Field
from .grouporder import IsotropicAction
from .mat3 import Mat3

DEFAULT_MAX_VERTICES = 126000
# Largest q whose graph is built at all, even when allowed past the default
# gate: |PSU3(13)| is about 8.1e8 vertices, whose edge array alone would take
# some 19 GB.
MAX_KEY_Q = 11
# Numbers per chunk when an export is formatted or hashed.
EXPORT_CHUNK = 1 << 16


class GraphSizeError(RuntimeError):
    """Graph refused by `check_graph_gate` before any work."""


def _pack(cols: np.ndarray, base: int) -> np.ndarray:
    """One int64 per column of a (k, F) digit array, row 0 most significant."""
    out = cols[0].astype(np.int64)
    for row in cols[1:]:
        out *= base
        out += row
    return out


def frame_points(action: IsotropicAction) -> tuple[int, ...]:
    """The first four isotropic points, in point order, no three collinear.

    Each point is taken greedily unless it lies on a line through two points
    already taken.  One always exists: a line holds at most q + 1 isotropic
    points, and three lines miss some of the q^3 + 1.
    """
    fld = action.field
    rows = action.point_matrix.tolist()
    frame: list[int] = []
    for i, row in enumerate(rows):
        if all(Mat3.from_flat_indices(fld, rows[j] + rows[k] + row).det()
               for j, k in combinations(frame, 2)):
            frame.append(i)
            if len(frame) == 4:
                return tuple(frame)
    raise AssertionError("no projective frame among the isotropic points")


@dataclass
class CayleyGraph:
    vertex_count: int
    edges: np.ndarray   # (m, 2): u < v in each row, rows sorted


def check_graph_gate(field: Field, expected_order: int, allow_large: bool):
    """Refuse a graph the BFS cannot or should not build, before any work."""
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


def _bfs(t: GeneratorTriple, action: IsotropicAction, expected_order: int):
    """Sorted (m, 2) edges of the level-synchronous closure; see the module
    doc."""
    perms = [action.permutation(s.transpose()) for s in t.matrices]
    frontier = np.array(frame_points(action), dtype=perms[0].dtype)[:, None]
    # the previous and the current level: their keys, sorted, with the
    # vertex ids alongside
    known = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
             (_pack(frontier, action.degree), np.zeros(1, dtype=np.int64))]
    # edges packed as u << 32 | v: every vertex is a parent once and keeps
    # the edges to its larger neighbours, 3n/2 in all on a cubic graph
    packed = np.empty(len(perms) * expected_order // 2, dtype=np.int64)
    m = 0
    start = 0  # index of the first vertex of the current level
    n = 1
    while frontier.shape[1]:
        # columns in (parent, generator) order, parent-major
        children = np.stack([perm.take(frontier) for perm in perms],
                            axis=2).reshape(4, -1)
        del frontier
        keys = _pack(children, action.degree)
        # sort the children by key: each run of equal keys is one vertex,
        # which first appears at the smallest position in its run
        sort = np.argsort(keys)
        keys = keys[sort]
        head = np.empty(len(keys), dtype=bool)
        head[0] = True
        np.not_equal(keys[1:], keys[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        del head
        unique = keys[starts]
        del keys
        first = np.minimum.reduceat(sort, starts)
        # look each vertex up among the previous and the current level
        ids = np.full(len(unique), -1, dtype=np.int64)
        for level_keys, level_ids in known:
            pos = np.searchsorted(unique, level_keys)
            np.minimum(pos, len(unique) - 1, out=pos)
            hit = unique[pos] == level_keys
            ids[pos[hit]] = level_ids[hit]
            del pos, hit
        # number the new vertices by first appearance
        new = np.flatnonzero(ids < 0)
        by_first = new[np.argsort(first[new])]
        ids[by_first] = np.arange(n, n + len(new))
        known = [known[1], (unique[new], ids[new])]
        # the (parent, generator) column each new vertex first appeared in
        frontier = children[:, first[by_first]]
        del children, unique, first, new, by_first
        # the edges in key order: every child in a run gets the run's id,
        # and the child at position i has the parent start + i // 3
        idx = np.repeat(ids, np.diff(starts, append=len(sort)))
        parents = np.floor_divide(sort, len(perms), out=sort)
        parents += start
        del sort, starts, ids
        if np.any(idx == parents):
            raise ConnectionSetError("loop edge: a generator fixes a coset")
        # each edge {g, sg} is found from both ends, since every vertex is
        # a parent once: keep it at its smaller end.  It is found there only
        # once, as check_connection_set rejects generators that coincide in
        # PSU3(q).
        up = parents < idx
        end = m + np.count_nonzero(up)
        if end > len(packed):
            raise RuntimeError(
                f"group closure has more than {len(packed)} edges, the "
                f"number of a cubic graph on {expected_order} vertices")
        np.left_shift(parents[up], 32, out=packed[m:end])
        packed[m:end] |= idx[up]
        del parents, idx, up
        m = end
        start, n = n, n + frontier.shape[1]
        if n > expected_order:
            break
    if n != expected_order:
        raise RuntimeError(
            f"group closure found {n} elements, certificate says "
            f"{expected_order}")
    packed = packed[:m]
    packed.sort()
    edges = np.empty((m, 2), dtype=np.int64)
    np.right_shift(packed, 32, out=edges[:, 0])
    np.bitwise_and(packed, 0xFFFFFFFF, out=edges[:, 1])
    return edges


def build_graph(t: GeneratorTriple, expected_order: int,
                allow_large: bool = False) -> CayleyGraph:
    check_graph_gate(t.field, expected_order, allow_large)
    check_connection_set(t.matrices)
    edges = _bfs(t, IsotropicAction(t.field), expected_order)
    n = expected_order
    if len(edges) * 2 != 3 * n:
        raise RuntimeError(f"edge count {len(edges)} != 3n/2")
    if np.any(np.bincount(edges.ravel(), minlength=n) != 3):
        raise RuntimeError("graph is not 3-regular")
    return CayleyGraph(n, edges)


def _decimal(values: np.ndarray, seps: np.ndarray) -> bytes:
    """Each value in decimal followed by its separator byte.

    A value of -1 writes its separator alone (an empty adjacency line).
    """
    width = len(str(max(int(values.max(initial=0)), 0)))
    buf = np.empty((len(values), width + 1), dtype=np.uint8)
    rest = np.maximum(values, 0)
    ndigits = np.where(values < 0, 0, 1)
    for col in range(width - 1, -1, -1):
        buf[:, col] = 48 + rest % 10
        rest //= 10
        if col:
            ndigits += values >= 10 ** (width - col)
    buf[:, width] = seps
    keep = np.arange(width + 1) >= width - ndigits[:, None]
    return buf[keep].tobytes()


def _token_chunks(values: np.ndarray, seps: np.ndarray):
    for lo in range(0, len(values), EXPORT_CHUNK):
        yield _decimal(values[lo:lo + EXPORT_CHUNK], seps[lo:lo + EXPORT_CHUNK])


def _edge_list_chunks(g: CayleyGraph):
    yield f"p edge {g.vertex_count} {len(g.edges)}\n".encode()
    seps = np.tile(np.array([32, 10], dtype=np.uint8), len(g.edges))
    yield from _token_chunks(g.edges.ravel(), seps)


def _adjacency_chunks(g: CayleyGraph):
    yield f"p adj {g.vertex_count} {len(g.edges)}\n".encode()
    rows = g.edges.ravel()
    cols = g.edges[:, ::-1].ravel()
    isolated = np.flatnonzero(
        np.bincount(rows, minlength=g.vertex_count) == 0)
    rows = np.concatenate([rows, isolated])
    cols = np.concatenate([cols, np.full(len(isolated), -1)])
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    line_end = np.ones(len(rows), dtype=bool)
    line_end[:-1] = rows[1:] != rows[:-1]
    yield from _token_chunks(cols, np.where(line_end, 10, 32).astype(np.uint8))


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
    sorted.  adjacency: header "p adj N M", then line i holds the sorted
    neighbors of vertex i.
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
    digest = hashlib.sha256()
    for chunk in export_chunks(g, "edge-list"):
        digest.update(chunk)
    return digest.hexdigest()

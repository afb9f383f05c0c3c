"""Explicit construction and export of the cubic Cayley graph.

Vertices are the elements of PSU3(q), realised as canonical coset keys: a
matrix coset {c * M : c in the center of SU3(q)} is keyed by the
lexicographically least flat index tuple among its members.  A breadth
first closure from the identity under left multiplication by {X, Y, Z}
enumerates the group deterministically (the identity coset gets index 0)
and yields the undirected edges {g, sg} at the same time.

The closure runs one BFS level at a time on numpy index arrays:

* A level is an (F, 9) array of the field indices of one member of each
  of its cosets.  The children s * g for s = X, Y, Z are formed with the
  field's numpy kernels (`mul_np`, `add_np`), in (parent, generator)
  order, parent-major.
* Each coset is keyed by its least member, packed into one int64 in base
  |GF(q^2)| with entry 0 most significant, so numeric order of keys is the
  lexicographic order of flat index tuples.  Packing needs
  |GF(q^2)|^9 = q^18 < 2^63, i.e. q <= 11; `check_graph_gate` refuses
  larger q before any work.
* A child is looked up only among the keys of the previous and the
  current level.  This finds every known vertex: X, Y and Z are
  involutions (checked by `construct.check_connection_set`), so g = s(sg) and
  the graph is undirected; hence BFS distances of neighbours differ by at
  most one, and every neighbour of a vertex of level L lies in level
  L - 1, L or L + 1.  The children not found there form level L + 1.
* The new vertices are numbered in the order they first appear in the
  (parent, generator) sequence.  That is the numbering of the sequential
  BFS (pop vertices in index order, try X, Y, Z, number each unseen coset
  next): it numbers levels in turn, since a FIFO queue holds every vertex
  of level L before any of level L + 1, and within level L + 1 it numbers
  each vertex when it first appears as a child in that same sequence.  So
  labels, edges and every export are the same as the sequential BFS's.

No per-vertex or per-edge Python object is made while building, hashing or
exporting a graph: `CayleyGraph` holds index arrays, and exports are
written in chunks straight from them.

The full graph is only built for groups up to |PSU3(5)| = 126000 vertices
unless explicitly overridden; nothing downstream needs the explicit graph,
it exists for export and independent cross-checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .construct import (ConnectionSetError, GeneratorTriple,
                        check_connection_set)
from .gf import Field
from .mat3 import Mat3, su3_center_scalars

DEFAULT_MAX_VERTICES = 126000
# Largest q whose coset keys fit in an int64: |GF(q^2)|^9 = q^18 < 2^63.
MAX_KEY_Q = 11
# Numbers per chunk when an export is formatted or hashed.
EXPORT_CHUNK = 1 << 16


class GraphSizeError(RuntimeError):
    """Graph refused by `check_graph_gate` before any work."""


class _CosetKeys:
    """Packs the least member of each coset of a column of flat indices."""

    def __init__(self, field: Field):
        self.size = field.size
        elements = np.arange(field.size)
        # int32, the dtype of the level arrays, so that each gathered (9, F)
        # copy is half the size of an int64 one
        self.scalar_rows = [field.mul_np(c.index, elements).astype(np.int32)
                            for c in su3_center_scalars(field)
                            if c != field.one]

    def _pack(self, cols: np.ndarray) -> np.ndarray:
        key = cols[0].astype(np.int64)
        for col in cols[1:]:
            key *= self.size
            key += col
        return key

    def __call__(self, cols: np.ndarray) -> np.ndarray:
        """Keys of the (9, F) matrices given column-wise."""
        keys = self._pack(cols)
        for scalar in self.scalar_rows:
            np.minimum(keys, self._pack(scalar.take(cols)), out=keys)
        return keys

    def unpack(self, keys: np.ndarray) -> np.ndarray:
        """The (n, 9) flat index rows of n keys (uint8: size <= 121)."""
        rows = np.empty((len(keys), 9), dtype=np.uint8)
        for j in range(8, -1, -1):
            keys, rows[:, j] = np.divmod(keys, self.size)
        return rows


def _left_mul(field: Field, s, cols: np.ndarray) -> np.ndarray:
    """s * g for every matrix g of a (9, F) array given column-wise."""
    add, elements = field.add_np, np.arange(field.size)
    out = np.empty_like(cols)
    for i in range(3):
        # the products by s's entries, as rows over the field
        r0, r1, r2 = (field.mul_np(e, elements) for e in s[3 * i:3 * i + 3])
        for j in range(3):
            out[3 * i + j] = add(add(r0.take(cols[j]), r1.take(cols[3 + j])),
                                 r2.take(cols[6 + j]))
    return out


@dataclass
class CayleyGraph:
    vertex_count: int
    edges: np.ndarray   # (m, 2): u < v in each row, rows sorted
    labels: np.ndarray  # (n, 9): vertex -> canonical coset key
    field: Field

    @cached_property
    def key_index(self) -> dict:
        """Canonical coset key (flat index tuple) -> vertex index."""
        return {tuple(k): i for i, k in enumerate(self.labels.tolist())}

    def mul_index(self, i: int, j: int) -> int:
        """Index of the product of vertices i and j (group multiplication)."""
        a, b = (Mat3.from_flat_indices(self.field, self.labels[k].tolist())
                for k in (i, j))
        prod = a * b
        # the coset key is the least flat index tuple over center multiples
        return self.key_index[min(prod.scalar_mul(c).flat_indices
                                  for c in su3_center_scalars(self.field))]


def check_graph_gate(field: Field, expected_order: int, allow_large: bool):
    """Refuse a graph the BFS cannot or should not build, before any work."""
    if expected_order > DEFAULT_MAX_VERTICES and not allow_large:
        raise GraphSizeError(
            f"|PSU3({field.q})| = {expected_order} vertices exceeds the "
            f"default gate of {DEFAULT_MAX_VERTICES}; pass allow_large=True "
            "(CLI: --allow-large-graph) to build it anyway")
    if field.q > MAX_KEY_Q:
        raise GraphSizeError(
            f"q = {field.q}: the graph packs each coset key into an int64, "
            f"which needs |GF(q^2)|^9 < 2^63, i.e. q <= {MAX_KEY_Q}")


def _bfs(t: GeneratorTriple, expected_order: int, allow_large: bool):
    """(labels, edges) of the level-synchronous closure; see the module doc."""
    field = t.field
    check_graph_gate(field, expected_order, allow_large)
    check_connection_set(t.matrices)
    coset_key = _CosetKeys(field)
    gens = [m.flat_indices for m in t.matrices]
    ident = Mat3.identity(field).flat_indices
    frontier = np.array(ident, dtype=np.int32)[:, None]  # (9, F)
    level_keys = coset_key(frontier)
    prev_keys = level_keys[:0]
    key_levels = [level_keys]
    edge_levels = []
    start = 0  # index of the first vertex of the current level
    n = 1
    while frontier.shape[1]:
        # columns in (parent, generator) order, parent-major
        children = np.stack([_left_mul(field, s, frontier) for s in gens],
                            axis=2).reshape(9, -1)
        keys = coset_key(children)
        parents = np.repeat(np.arange(start, n), len(gens))
        # look each child up among the previous and the current level
        known = np.concatenate([prev_keys, level_keys])
        order = np.argsort(known)
        pos = np.minimum(np.searchsorted(known[order], keys), len(known) - 1)
        found = known[order[pos]] == keys
        idx = np.empty(len(keys), dtype=np.int64)
        idx[found] = start - len(prev_keys) + order[pos[found]]
        # number the new cosets by first appearance
        new = np.flatnonzero(~found)
        new_keys, first, inverse = np.unique(
            keys[new], return_index=True, return_inverse=True)
        by_first = np.argsort(first)
        number = np.empty(len(new_keys), dtype=np.int64)
        number[by_first] = np.arange(n, n + len(new_keys))
        idx[new] = number[inverse]
        if np.any(idx == parents):
            raise ConnectionSetError("loop edge: a generator fixes a coset")
        edge_levels.append(np.minimum(parents, idx) << 32
                           | np.maximum(parents, idx))
        prev_keys, level_keys = level_keys, new_keys[by_first]
        key_levels.append(level_keys)
        frontier = children[:, new[first[by_first]]]
        start, n = n, n + len(new_keys)
        if n > expected_order:
            break
    if n != expected_order:
        raise RuntimeError(
            f"group closure found {n} elements, certificate says "
            f"{expected_order}")
    labels = coset_key.unpack(np.concatenate(key_levels))
    # each edge {g, sg} is found from both ends: keep one copy, sorted
    packed = np.sort(np.concatenate(edge_levels))
    packed = packed[np.append(True, packed[1:] != packed[:-1])]
    edges = np.stack([packed >> 32, packed & 0xFFFFFFFF], axis=1)
    return labels, edges


def build_graph(t: GeneratorTriple, expected_order: int,
                allow_large: bool = False) -> CayleyGraph:
    labels, edges = _bfs(t, expected_order, allow_large)
    n = len(labels)
    if len(edges) * 2 != 3 * n:
        raise RuntimeError(f"edge count {len(edges)} != 3n/2")
    if np.any(np.bincount(edges.ravel(), minlength=n) != 3):
        raise RuntimeError("graph is not 3-regular")
    return CayleyGraph(n, edges, labels, t.field)


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
    return n, np.array(tokens, dtype=np.int64).reshape(m, 2)


def edge_list_sha256(g: CayleyGraph) -> str:
    digest = hashlib.sha256()
    for chunk in export_chunks(g, "edge-list"):
        digest.update(chunk)
    return digest.hexdigest()

"""Explicit construction and export of the cubic Cayley graph.

Vertices are the elements of PSU3(q), realised as canonical coset keys: a
matrix coset {c * M : c in the center of SU3(q)} is keyed by the
lexicographically least flat index tuple among its members.  A breadth
first closure from the identity under left multiplication by {X, Y, Z}
enumerates the group deterministically (the identity coset gets index 0)
and yields the undirected edges {g, sg} at the same time.

The full graph is only built for groups up to |PSU3(5)| = 126000 vertices
unless explicitly overridden; nothing downstream needs the explicit graph,
it exists for export and independent cross-checks.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .construct import GeneratorTriple
from .gf import Field
from .mat3 import Mat3, matrix_order, projectively_equal, su3_center_scalars

DEFAULT_MAX_VERTICES = 126000


class ConnectionSetError(ValueError):
    """The projected triple is not a valid cubic connection set."""


class GraphSizeError(RuntimeError):
    """Graph too large for the default gate; pass allow_large to override."""


def _canonicalizer(field: Field):
    """key9 -> lexicographically least flat tuple over center multiples."""
    scalars = [c.index for c in su3_center_scalars(field) if c != field.one]
    if not scalars:
        return lambda key: key
    mul = field._mul
    rows = [mul[c] for c in scalars]
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


def _mat_mul_flat(field: Field):
    mul = field._mul
    add = field._add
    def mul9(m, n):
        m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
        n0, n1, n2, n3, n4, n5, n6, n7, n8 = n
        return (
            add[add[mul[m0][n0]][mul[m1][n3]]][mul[m2][n6]],
            add[add[mul[m0][n1]][mul[m1][n4]]][mul[m2][n7]],
            add[add[mul[m0][n2]][mul[m1][n5]]][mul[m2][n8]],
            add[add[mul[m3][n0]][mul[m4][n3]]][mul[m5][n6]],
            add[add[mul[m3][n1]][mul[m4][n4]]][mul[m5][n7]],
            add[add[mul[m3][n2]][mul[m4][n5]]][mul[m5][n8]],
            add[add[mul[m6][n0]][mul[m7][n3]]][mul[m8][n6]],
            add[add[mul[m6][n1]][mul[m7][n4]]][mul[m8][n7]],
            add[add[mul[m6][n2]][mul[m7][n5]]][mul[m8][n8]],
        )
    return mul9


@dataclass
class CayleyGraph:
    vertex_count: int
    edges: list[tuple[int, int]]          # sorted, u < v in each pair
    vertex_labels: list[tuple[int, ...]]  # index -> canonical coset key
    key_index: dict
    field: Field

    def mul_index(self, i: int, j: int) -> int:
        """Index of the product of vertices i and j (group multiplication)."""
        if not hasattr(self, "_mul9"):
            self._mul9 = _mat_mul_flat(self.field)
            self._canon = _canonicalizer(self.field)
        return self.key_index[self._canon(self._mul9(self.vertex_labels[i],
                                                     self.vertex_labels[j]))]


def _validate_connection_set(t: GeneratorTriple):
    for name, m in zip("XYZ", t.matrices):
        if m.is_scalar():
            raise ConnectionSetError(f"{name} projects to the identity")
        if matrix_order(m) != 2:
            raise ConnectionSetError(f"{name} is not an involution")
    pairs = (("X", 0, "Y", 1), ("X", 0, "Z", 2), ("Y", 1, "Z", 2))
    for n1, i, n2, j in pairs:
        if projectively_equal(t.matrices[i], t.matrices[j]):
            raise ConnectionSetError(f"{n1} and {n2} coincide projectively")


def check_graph_gate(field: Field, expected_order: int, allow_large: bool):
    """Refuse a graph the BFS cannot or should not build, before any work."""
    if not field.has_tables:
        raise GraphSizeError("graph construction needs a table-backed field")
    if expected_order > DEFAULT_MAX_VERTICES and not allow_large:
        raise GraphSizeError(
            f"|PSU3({field.q})| = {expected_order} vertices exceeds the "
            f"default gate of {DEFAULT_MAX_VERTICES}; pass allow_large=True "
            "(CLI: --allow-large-graph) to build it anyway")


def _bfs(t: GeneratorTriple, expected_order: int, allow_large: bool):
    field = t.field
    check_graph_gate(field, expected_order, allow_large)
    _validate_connection_set(t)
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
            a, b = (pos, idx) if pos < idx else (idx, pos)
            if a == b:
                raise ConnectionSetError("loop edge: a generator fixes a coset")
            edges.add((a, b))
        pos += 1
    if len(labels) != expected_order:
        raise RuntimeError(
            f"group closure found {len(labels)} elements, certificate says "
            f"{expected_order}")
    return labels, key_index, sorted(edges)


def enumerate_group(t: GeneratorTriple, expected_order: int,
                    allow_large: bool = False) -> dict:
    """Canonical-key -> index bijection for PSU3(q); identity is index 0."""
    _, key_index, _ = _bfs(t, expected_order, allow_large)
    return key_index


def build_graph(t: GeneratorTriple, expected_order: int,
                allow_large: bool = False) -> CayleyGraph:
    labels, key_index, edges = _bfs(t, expected_order, allow_large)
    n = len(labels)
    if len(edges) * 2 != 3 * n:
        raise RuntimeError(f"edge count {len(edges)} != 3n/2")
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    if any(d != 3 for d in degree):
        raise RuntimeError("graph is not 3-regular")
    return CayleyGraph(n, edges, labels, key_index, t.field)


def export_graph(g: CayleyGraph, fmt: str = "edge-list") -> bytes:
    """Deterministic byte serialization.

    edge-list: header "p edge N M", then one "u v" line per edge, u < v,
    sorted.  adjacency: header "p adj N M", then line i holds the sorted
    neighbors of vertex i.
    """
    if fmt == "edge-list":
        lines = [f"p edge {g.vertex_count} {len(g.edges)}"]
        lines.extend(f"{u} {v}" for u, v in g.edges)
        return ("\n".join(lines) + "\n").encode()
    if fmt == "adjacency":
        nbrs = [[] for _ in range(g.vertex_count)]
        for u, v in g.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        lines = [f"p adj {g.vertex_count} {len(g.edges)}"]
        lines.extend(" ".join(str(x) for x in sorted(row)) for row in nbrs)
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unsupported export format: {fmt}")


def import_edge_list(data: bytes) -> tuple[int, list[tuple[int, int]]]:
    lines = data.decode().splitlines()
    tag, kind, n, m = lines[0].split()
    if tag != "p" or kind != "edge":
        raise ValueError("not an edge-list export")
    n, m = int(n), int(m)
    edges = []
    for line in lines[1:]:
        u, v = line.split()
        edges.append((int(u), int(v)))
    if len(edges) != m:
        raise ValueError("edge count mismatch in edge-list import")
    return n, edges


def edge_list_sha256(g: CayleyGraph) -> str:
    return hashlib.sha256(export_graph(g, "edge-list")).hexdigest()

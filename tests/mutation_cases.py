"""Crafted clause-violating mutations of known-good certificates.

Each builder returns a list of (label, hypergraph, certificate, expected_tag)
tuples: 20 mutations per cycle kind, each designed to trip one specific
verifier clause. The bases are constructor outputs, which are verifier-gated,
so every failure below is introduced by the mutation itself.
"""

from __future__ import annotations

from sigmacycles import (
    CycleCertificate,
    Edge,
    construct_berge_hamiltonian,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    make_hypergraph,
    parse_partition,
)
from sigmacycles.certificates import KIND_K_INTERSECTING, KIND_SHARP
from sigmacycles.verify import (
    TAG_CONSECUTIVE_EMPTY,
    TAG_COVERAGE_GAP,
    TAG_DEGENERATE_LENGTH,
    TAG_DUPLICATE_EDGE,
    TAG_FORBIDDEN_NONEMPTY,
    TAG_MEMBERSHIP,
    TAG_NON_EDGE,
    TAG_VERTEX_REPEATED,
)


def _swap_vertices(cert: CycleCertificate, i: int, j: int) -> CycleCertificate:
    seq = list(cert.vertex_sequence)
    seq[i], seq[j] = seq[j], seq[i]
    return cert.replace(vertex_sequence=tuple(seq))


def _copy_vertex(cert: CycleCertificate, dst: int, src: int) -> CycleCertificate:
    seq = list(cert.vertex_sequence)
    seq[dst] = seq[src]
    return cert.replace(vertex_sequence=tuple(seq))


def _set_edge(cert: CycleCertificate, i: int, edge: Edge) -> CycleCertificate:
    edges = list(cert.edges)
    edges[i] = edge
    return cert.replace(edges=tuple(edges))


def _drop_edge(cert: CycleCertificate, i: int) -> CycleCertificate:
    return cert.replace(edges=cert.edges[:i] + cert.edges[i + 1 :])


def _truncate(cert: CycleCertificate, count: int) -> CycleCertificate:
    return cert.replace(edges=cert.edges[:count])


def berge_mutations():
    H = make_hypergraph(3, 3, parse_partition("2,1"))
    base = construct_berge_hamiltonian(H)
    # three vertices in three distinct classes: sizes (1,1,1) != (2,1)
    bad_edge = Edge.of([(0, 0), (1, 1), (2, 2)])
    cases = []
    for i in range(6):
        cases.append((f"swap-vertices-{i}-{i+1}", H, _swap_vertices(base, i, i + 1), TAG_MEMBERSHIP))
    for dst, src in [(0, 4), (2, 7), (1, 8), (5, 3)]:
        cases.append((f"repeat-vertex-{dst}<-{src}", H, _copy_vertex(base, dst, src), TAG_VERTEX_REPEATED))
    for i in [1, 4, 8, 0, 6]:
        cases.append((f"non-edge-at-{i}", H, _set_edge(base, i, bad_edge), TAG_NON_EDGE))
    for i, j in [(5, 2), (7, 0), (3, 8), (6, 1)]:
        cases.append((f"duplicate-{i}<-{j}", H, _set_edge(base, i, base.edges[j]), TAG_DUPLICATE_EDGE))
    short = base.replace(edges=base.edges[:8], vertex_sequence=base.vertex_sequence[:8])
    cases.append(("drop-last-vertex-and-edge", H, short, TAG_COVERAGE_GAP))
    assert len(cases) == 20
    return cases


def sharp_mutations():
    H = make_hypergraph(3, 6, parse_partition("2,1"))
    base = construct_sharp_hamiltonian(H)
    cases = []
    for i in [11, 5, 0, 7, 2]:
        cases.append((f"delete-edge-{i}", H, _drop_edge(base, i), TAG_CONSECUTIVE_EMPTY))
    for i, j in [(5, 2), (9, 0), (3, 8), (11, 1), (7, 4)]:
        cases.append((f"duplicate-{i}<-{j}", H, _set_edge(base, i, base.edges[j]), TAG_DUPLICATE_EDGE))
    for i in range(4):
        # three distinct classes: sizes (1,1,1) != (2,1)
        bad = Edge.of([(0, i), (1, i), (2, i)])
        cases.append((f"non-edge-at-{3 * i}", H, _set_edge(base, 3 * i, bad), TAG_NON_EDGE))
    for shift in range(3):
        def sh(v):
            return (v[0], (v[1] + shift) % 6)

        crafted = CycleCertificate(
            hypergraph=H,
            kind=KIND_SHARP,
            edges=(
                Edge.of([sh((0, 0)), sh((0, 1)), sh((1, 0))]),
                Edge.of([sh((1, 0)), sh((2, 0)), sh((2, 1))]),
                Edge.of([sh((0, 0)), sh((0, 1)), sh((2, 2))]),
                Edge.of([sh((0, 2)), sh((0, 3)), sh((1, 1))]),
            ),
        )
        cases.append((f"edges-0-2-share-shift{shift}", H, crafted, TAG_FORBIDDEN_NONEMPTY))
    crafted13 = CycleCertificate(
        hypergraph=H,
        kind=KIND_SHARP,
        edges=(
            Edge.of([(0, 0), (0, 1), (1, 0)]),
            Edge.of([(1, 0), (2, 0), (2, 1)]),
            Edge.of([(1, 1), (1, 2), (2, 0)]),
            Edge.of([(0, 0), (0, 2), (2, 1)]),
        ),
    )
    cases.append(("edges-1-3-share", H, crafted13, TAG_FORBIDDEN_NONEMPTY))
    cases.append(("three-edges", H, _truncate(base, 3), TAG_DEGENERATE_LENGTH))
    cases.append(("two-edges", H, _truncate(base, 2), TAG_DEGENERATE_LENGTH))
    assert len(cases) == 20
    return cases


def k_intersecting_mutations():
    H = make_hypergraph(4, 3, parse_partition("1,1,1"))
    base = construct_k_intersecting(H, 3)
    # all constructed edges use rows 0,1,2 so an all-row-0 edge is fresh
    disjointish = Edge.of([(0, 0), (1, 0), (2, 0)])
    cases = []
    for i in [0, 3, 6, 10]:
        cases.append((f"replace-edge-{i}", H, _set_edge(base, i, disjointish), TAG_CONSECUTIVE_EMPTY))
    for i in [11, 6]:
        cases.append((f"delete-edge-{i}", H, _drop_edge(base, i), TAG_CONSECUTIVE_EMPTY))
    for i, j in [(5, 2), (9, 0), (3, 8), (11, 1), (7, 4)]:
        cases.append((f"duplicate-{i}<-{j}", H, _set_edge(base, i, base.edges[j]), TAG_DUPLICATE_EDGE))
    for i in range(4):
        # two vertices in one class: sizes (2,1) != (1,1,1)
        bad = Edge.of([(0, 0), (0, 1), (1 + i % 3, i % 3)])
        cases.append((f"non-edge-at-{3 * i}", H, _set_edge(base, 3 * i, bad), TAG_NON_EDGE))
    for shift in range(3):
        # 8 edges on 7 distinct vertices; positions 0 and 4 of the walk reuse
        # the same vertex, so the non-window triple (0,1,4) shares it
        walk = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 0), (1, 1), (2, 1), (3, 1)]
        walk = [(c, (row + shift) % 3) for c, row in walk]
        edges = tuple(
            Edge.of([walk[(i - 2) % 8], walk[(i - 1) % 8], walk[i]]) for i in range(8)
        )
        crafted = CycleCertificate(hypergraph=H, kind=KIND_K_INTERSECTING, edges=edges, k=3)
        cases.append((f"pinch-vertex-shift{shift}", H, crafted, TAG_FORBIDDEN_NONEMPTY))
    cases.append(("four-edges", H, _truncate(base, 4), TAG_DEGENERATE_LENGTH))
    cases.append(("three-edges", H, _truncate(base, 3), TAG_DEGENERATE_LENGTH))
    assert len(cases) == 20
    return cases

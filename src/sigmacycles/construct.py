"""Explicit cycle constructions on the vertex grid.

All constructors are deterministic, search-free, and verifier-gated: a
certificate is only returned after the corresponding definition-level
verifier has accepted it.  Before building an edge they raise ValueError
when the certificate would hold more vertex slots (edges x r) than the
export item limit.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Sequence

from .certificates import (
    KIND_BERGE,
    KIND_K_INTERSECTING,
    KIND_SHARP,
    CycleCertificate,
    Matching,
)
from .core import Edge, GridVertex, SigmaHypergraph, edge_count
from .errors import (
    ConstructionUnsupported,
    DegenerateIntersection,
    KOutOfRange,
    NTooSmall,
    OnlyOneEdge,
    QNotRepresentable,
)
from .export import _MAX_ITEMS
from .verify import (
    VerificationReport,
    verify_berge_hamiltonian,
    verify_k_intersecting,
    verify_sharp_cycle,
)


def frobenius_decompose(q: int, r: int) -> tuple[int, int]:
    """Write q = x*r + y*(r+1) with x, y >= 0 and y minimal.

    Always succeeds for q >= r(r-1); below that bound a representation may
    or may not exist.  Raises QNotRepresentable when there is none.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if q < 1:
        raise ValueError("q must be >= 1")
    y = q % r
    x = (q - y * (r + 1)) // r
    if x < 0:
        raise QNotRepresentable(f"q={q} is not x*{r} + y*{r + 1} with x, y >= 0")
    return x, y


def _part_vertices(
    H: SigmaHypergraph, block_start_row: int, j: int, i: int
) -> list[GridVertex]:
    """Vertices of part i of the j-th diagonal edge of a block: part sizes
    occupy consecutive row segments of the block's top r rows, class shifted
    i columns right of j."""
    off = [0, *itertools.accumulate(H.sigma.parts)]
    cls = (j + i) % H.n
    return [(cls, block_start_row + row) for row in range(off[i], off[i + 1])]


def _check_block(H: SigmaHypergraph, block_start_row: int, block_height: int) -> None:
    r = H.r
    if block_height not in (r, r + 1):
        raise ValueError(f"block height must be {r} or {r + 1}")
    if block_start_row < 0 or block_start_row + block_height > H.q:
        raise ValueError("block out of range")


def _diagonal_edge(H: SigmaHypergraph, block_start_row: int, j: int) -> Edge:
    """Diagonal edge j of a block: part i from class j+i (mod n)."""
    return Edge.of(
        v for i in range(H.sigma.s) for v in _part_vertices(H, block_start_row, j, i)
    )


def diagonal_matching(H: SigmaHypergraph, block_start_row: int, block_height: int) -> Matching:
    """n pairwise-disjoint edges placed diagonally: edge j takes its i-th part
    from class j+i (mod n), covering the block's top r x n subgrid."""
    _check_block(H, block_start_row, block_height)
    return Matching(tuple(_diagonal_edge(H, block_start_row, j) for j in range(H.n)))


def _shifted_edge(
    H: SigmaHypergraph, b: int, h: int, j: int, threshold: int, tail_b: int, tail_j: int
) -> Edge:
    """Shifted edge of the h-high block at row b: parts before threshold as in
    diagonal edge j, later parts as in diagonal edge tail_j of the block at
    row tail_b.  In an (r+1)-high block the first part trades its last row
    for the block's extra row, so the shifted edges cover that row too."""
    vs: list[GridVertex] = []
    for i in range(H.sigma.s):
        if i >= threshold:
            vs += _part_vertices(H, tail_b, tail_j, i)
            continue
        pv = _part_vertices(H, b, j, i)
        if i == 0 and h == H.r + 1:
            pv[-1] = (pv[-1][0], b + H.r)
        vs += pv
    return Edge.of(vs)


def shifted_matching(
    H: SigmaHypergraph, block_start_row: int, block_height: int, p: int
) -> Matching:
    """The companion matching to diagonal_matching under split index p."""
    _check_block(H, block_start_row, block_height)
    s = H.sigma.s
    if not 1 <= p < s:
        raise ValueError(f"split index must satisfy 1 <= p < s={s}")
    if H.n <= s:
        raise NTooSmall(f"n={H.n} <= s={s}: shifted edges would collide")
    b, h, n = block_start_row, block_height, H.n
    return Matching(tuple(_shifted_edge(H, b, h, j, p, b, (j + 1) % n) for j in range(n)))


def _blocks(H: SigmaHypergraph) -> list[tuple[int, int]]:
    """(start_row, height) for x r-blocks stacked top-down, then y (r+1)-blocks."""
    x, y = frobenius_decompose(H.q, H.r)
    blocks = []
    row = 0
    for _ in range(x):
        blocks.append((row, H.r))
        row += H.r
    for _ in range(y):
        blocks.append((row, H.r + 1))
        row += H.r + 1
    return blocks


def _check_size(H: SigmaHypergraph, edges: int) -> None:
    """Refuse, before any edge is built, a certificate whose vertex slots
    (edges x r) exceed the export item limit.  A block chain counts its
    blocks as sum(frobenius_decompose(q, r)), without listing them."""
    slots = edges * H.r
    if slots > _MAX_ITEMS:
        raise ValueError(f"{H}: {slots} certificate vertex slots exceed the limit of {_MAX_ITEMS}")


def _zero_head(H: SigmaHypergraph, blocks: list[tuple[int, int]], threshold: int) -> bool:
    """True when an (r+1)-block leaves a diagonal edge and its shifted edge
    with this threshold no common vertex (head size t-1 = 0)."""
    return blocks[-1][1] == H.r + 1 and sum(H.sigma.parts[:threshold]) < 2


def _chain_blocks(
    H: SigmaHypergraph, blocks: list[tuple[int, int]], thresholds: Sequence[int]
) -> tuple[Edge, ...]:
    """The block-chain cycle: per block and class j, diagonal edge j followed
    by one shifted edge per threshold.  The tails of class j come from
    diagonal edge j+1; those of the last class come from the next block's
    diagonal edge 0, and the last block wraps to the first."""
    edges: list[Edge] = []
    for m, (b, h) in enumerate(blocks):
        next_b, _ = blocks[(m + 1) % len(blocks)]
        for j in range(H.n):
            tail_b, tail_j = (b, j + 1) if j < H.n - 1 else (next_b, 0)
            edges.append(_diagonal_edge(H, b, j))
            edges += [_shifted_edge(H, b, h, j, t, tail_b, tail_j) for t in thresholds]
    return tuple(edges)


def _require_verified(report: VerificationReport, what: str) -> None:
    if not report.ok or not report.hamiltonian:
        raise ConstructionUnsupported(
            f"recipe failed verification for {what}: "
            f"{report.violated_condition or 'not hamiltonian'}"
        )


def construct_sharp_hamiltonian(H: SigmaHypergraph, p: int = 1) -> CycleCertificate:
    """Sharp Hamiltonian cycle from chained diagonal/shifted matchings.

    The grid splits into x r-blocks followed by y (r+1)-blocks; each block
    contributes the 2n edges E_0, E*_0, ..., E_{n-1}, E*_{n-1}: the block
    chain with the single threshold p.  When an (r+1)-block would leave the
    head of split p empty, the split moves to the smallest one with head sum
    >= 2.
    """
    s = H.sigma.s
    if s < 2:
        raise ConstructionUnsupported("sharp construction needs at least two parts")
    if H.n <= s:
        raise NTooSmall(f"n={H.n} <= s={s}")
    _check_size(H, sum(frobenius_decompose(H.q, H.r)) * 2 * H.n)
    blocks = _blocks(H)
    if not 1 <= p < s:
        raise ValueError(f"split index must satisfy 1 <= p < s={s}")
    if _zero_head(H, blocks, p):
        p = next((c for c in range(1, s) if not _zero_head(H, blocks, c)), None)
    if p is None:
        raise DegenerateIntersection(
            f"sigma=({H.sigma}) with an (r+1)-block: every split gives a zero intersection"
        )
    cert = CycleCertificate(
        hypergraph=H,
        kind=KIND_SHARP,
        edges=_chain_blocks(H, blocks, [p]),
        split_index=p,
        claimed_hamiltonian=True,
    )
    report = verify_sharp_cycle(H, cert)
    _require_verified(report, str(H))
    t, z = report.profile.uniform_t, report.profile.uniform_z
    return dataclasses.replace(cert, claimed_t=t, claimed_z=z)


def construct_berge_hamiltonian(H: SigmaHypergraph) -> CycleCertificate:
    """Berge Hamiltonian cycle walking the grid bottom row to top row.

    Edge k anchors its first part at the walk position (class k mod n,
    counting row passes from the bottom); parts that wrap past the last
    class sit one row higher, and row arithmetic is modulo q.

    Refuses (ConstructionUnsupported) r = 1, fewer than nq edges, where no
    Berge Hamiltonian cycle exists, and a rectangular sigma with q equal to
    its part size, which the walk does not cover; a single edge raises
    OnlyOneEdge.
    """
    sigma = H.sigma
    n, q, s = H.n, H.q, sigma.s
    nq = n * q
    q_is_part = sigma.rectangular and q == sigma.delta_max
    if q_is_part and n == s:
        raise OnlyOneEdge(f"{H} has a single edge")
    if H.r < 2:
        raise ConstructionUnsupported(f"{H}: a Berge cycle needs edges of at least 2 vertices")
    if edge_count(H) < nq:
        raise ConstructionUnsupported(f"{H}: too few edges for a cycle through all {nq} vertices")
    if q_is_part and sigma.delta_max >= 2:
        raise ConstructionUnsupported(
            f"{H}: the walk recipe does not cover a rectangular sigma with q equal to its part size"
        )
    _check_size(H, nq)
    verts = tuple((m % n, q - 1 - (m // n)) for m in range(nq))
    edges = []
    for k in range(nq):
        c, rho = k % n, k // n
        vs: list[GridVertex] = []
        for i, a in enumerate(sigma.parts):
            cls_raw = c + i
            anchor = q - 1 - (rho + cls_raw // n)
            vs += [((cls_raw % n), (anchor - d) % q) for d in range(a)]
        edges.append(Edge.of(vs))
    cert = CycleCertificate(
        hypergraph=H,
        kind=KIND_BERGE,
        edges=tuple(edges),
        vertex_sequence=verts,
        claimed_hamiltonian=True,
    )
    _require_verified(verify_berge_hamiltonian(H, cert), str(H))
    return cert


def construct_k_intersecting(H: SigmaHypergraph, k: int) -> CycleCertificate:
    """k-intersecting Hamiltonian cycle: the block chain with thresholds
    k-1, ..., 1.

    Per block, each diagonal edge i is followed by k-1 shifted edges that keep
    the leading parts of edge i and take the trailing parts from diagonal
    edge i+1, the threshold moving one part left per edge.  In (r+1)-blocks
    the shifted edges share the swapped first part so the k-window
    intersection has size a_1 - 1, hence the largest part must be >= 2 there.
    """
    s = H.sigma.s
    if s < 2:
        raise ConstructionUnsupported("k-intersecting construction needs at least two parts")
    if not 2 <= k <= s:
        raise KOutOfRange(f"k={k} outside [2, {s}]")
    if H.n <= s:
        raise NTooSmall(f"n={H.n} <= s={s}")
    _check_size(H, sum(frobenius_decompose(H.q, H.r)) * H.n * k)
    blocks = _blocks(H)
    if _zero_head(H, blocks, 1):
        raise DegenerateIntersection(
            f"sigma=({H.sigma}) with an (r+1)-block: threshold 1 gives a zero intersection"
        )
    edges = _chain_blocks(H, blocks, range(k - 1, 0, -1))
    cert = CycleCertificate(
        hypergraph=H, kind=KIND_K_INTERSECTING, edges=edges, k=k, claimed_hamiltonian=True
    )
    _require_verified(verify_k_intersecting(H, cert, k), f"{H}, k={k}")
    return cert

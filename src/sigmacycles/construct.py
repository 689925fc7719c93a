"""Explicit cycle constructions on the vertex grid.

All constructors are deterministic, search-free, and verifier-gated: each
ends in _certify, which returns a certificate only after the corresponding
definition-level verifier has accepted it.  Before building an edge they
raise ValueError when the certificate would hold more vertex slots
(edges x r) than the export item limit.

A refusal is one of two kinds.  NoCycle says that no cycle of the kind
asked for exists, and why: every constructor raises it, after its usage
errors, with the reason verify.no_cycle_reason gives, the one home of the
nonexistence rules.  NoRecipe says that no recipe here covers the
parameters; a cycle may still exist.

Every recipe cuts its edges from one grid of vertex tuples made once per
call (_columns, which lives in core: enumerate_edges cuts its parts from
the same grid): a part (the vertices of an edge in one class) is a slice
of its class's column, rows ascending, and an edge is its parts
concatenated in ascending class order.  No recipe builds a vertex, sorts
an edge's vertices or calls Edge.of; the gate's verifier is what checks
that every edge holds r distinct in-range vertices in the sigma shape.

The sharp and k-intersecting cycles are block chains, and both start with
one preamble (_blocks): NoRecipe for n <= s or q with no block split, the
size check, then the blocks.  Each block's diagonal parts are cut once
(_diagonal_parts), and every chain edge, like every edge of the public
matchings, is cut from them.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Sequence

from .certificates import (
    KIND_BERGE,
    KIND_K_INTERSECTING,
    KIND_SHARP,
    CycleCertificate,
    check_k,
    check_split_index,
)
from .core import MAX_ITEMS, Edge, GridVertex, SigmaHypergraph, _Column, _columns
from .errors import NoCycle, NoRecipe
from .verify import (
    no_cycle_reason,
    verify_berge_hamiltonian,
    verify_k_intersecting,
    verify_sharp_cycle,
)


def frobenius_decompose(q: int, r: int) -> tuple[int, int]:
    """Write q = x*r + y*(r+1) with x, y >= 0 and y minimal.

    Always succeeds for q >= r(r-1); below that bound a representation may
    or may not exist.  Raises NoRecipe when there is none: the block chain
    needs one, a cycle may not.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if q < 1:
        raise ValueError("q must be >= 1")
    y = q % r
    x = (q - y * (r + 1)) // r
    if x < 0:
        raise NoRecipe(f"q={q} is not x*{r} + y*{r + 1} with x, y >= 0")
    return x, y


def _check_block(H: SigmaHypergraph, block_start_row: int, block_height: int) -> None:
    r = H.r
    if block_height not in (r, r + 1):
        raise ValueError(f"block height must be {r} or {r + 1}")
    if block_start_row < 0 or block_start_row + block_height > H.q:
        raise ValueError("block out of range")


# the s parts of one edge, each a slice of one class's column
_Parts = list[_Column]


def _edge(parts: _Parts) -> Edge:
    """The edge of parts in pairwise distinct classes, each a run of rows
    ascending: ordering the s parts by class (their first vertices) orders
    the r vertices."""
    return Edge(tuple(chain.from_iterable(sorted(parts))))


def _diagonal_parts(H: SigmaHypergraph, columns: list[_Column], b: int) -> list[_Parts]:
    """For each class j, the s parts of diagonal edge j of the block at
    index b of columns: part i is the column slice of class j+i (mod n) over
    its run of consecutive rows in the block's top r rows.  Diagonal edge j
    is _edge(parts[j])."""
    off = list(accumulate(H.sigma.parts, initial=b))
    n = H.n
    return [
        [columns[(j + i) % n][off[i]:off[i + 1]] for i in range(H.sigma.s)] for j in range(n)
    ]


def diagonal_matching(
    H: SigmaHypergraph, block_start_row: int, block_height: int
) -> tuple[Edge, ...]:
    """The n pairwise-disjoint edges, as a tuple, placed diagonally: edge j
    takes its i-th part from class j+i (mod n), covering the block's top
    r x n subgrid."""
    _check_block(H, block_start_row, block_height)
    columns = _columns(H, range(block_start_row, block_start_row + block_height))
    return tuple(map(_edge, _diagonal_parts(H, columns, 0)))


def _shifted_edge(
    H: SigmaHypergraph, columns: list[_Column], b: int, h: int, head: _Parts, tail: _Parts, t: int
) -> Edge:
    """Shifted edge of the h-high block at index b of columns: the parts
    before threshold t from head, the rest from tail.  In an (r+1)-high block
    the first part trades its last row for the block's extra row, so the
    shifted edges cover that row too."""
    parts = head[:t] + tail[t:]
    if h == H.r + 1:
        first = parts[0]
        parts[0] = first[:-1] + (columns[first[0][0]][b + H.r],)
    return _edge(parts)


def shifted_matching(
    H: SigmaHypergraph, block_start_row: int, block_height: int, p: int
) -> tuple[Edge, ...]:
    """The companion matching to diagonal_matching under split index p, as a
    tuple of n edges."""
    _check_block(H, block_start_row, block_height)
    s = H.sigma.s
    check_split_index(p, s)
    if H.n <= s:
        raise NoRecipe(f"n={H.n} <= s={s}: shifted edges would collide")
    b, h, n = block_start_row, block_height, H.n
    columns = _columns(H, range(b, b + h))
    parts = _diagonal_parts(H, columns, 0)
    return tuple(
        _shifted_edge(H, columns, 0, h, parts[j], parts[(j + 1) % n], p) for j in range(n)
    )


def _check_size(H: SigmaHypergraph, edges: int) -> None:
    """Refuse, before any edge is built, a certificate whose vertex slots
    (edges x r) exceed the export item limit."""
    slots = edges * H.r
    if slots > MAX_ITEMS:
        raise ValueError(f"{H}: {slots} certificate vertex slots exceed the limit of {MAX_ITEMS}")


def _blocks(H: SigmaHypergraph, edges_per_class: int) -> list[tuple[int, int]]:
    """The block chain's preamble: NoRecipe for n <= s or for q with no
    block split (frobenius_decompose), then the size check for
    edges_per_class edges per block and class, counting the blocks without
    listing them.  Returns (start_row, height) for x r-blocks stacked
    top-down, then y (r+1)-blocks."""
    s = H.sigma.s
    if H.n <= s:
        raise NoRecipe(f"n={H.n} <= s={s}")
    x, y = frobenius_decompose(H.q, H.r)
    _check_size(H, (x + y) * H.n * edges_per_class)
    heights = [H.r] * x + [H.r + 1] * y
    return list(zip(accumulate(heights, initial=0), heights))


def _zero_head(H: SigmaHypergraph, blocks: list[tuple[int, int]]) -> bool:
    """True when an (r+1)-block leaves a diagonal edge and its shifted edge
    at threshold 1 no common vertex: the first part trades its last row
    (see _shifted_edge), so its head is empty when a_1 = 1.  A head of two
    or more parts always keeps a vertex."""
    return blocks[-1][1] == H.r + 1 and H.sigma.delta_max == 1


def _chain_blocks(
    H: SigmaHypergraph, blocks: list[tuple[int, int]], thresholds: Sequence[int]
) -> tuple[Edge, ...]:
    """The block-chain cycle: per block and class j, diagonal edge j followed
    by one shifted edge per threshold, each cut from the block's diagonal
    parts.  The tails of class j come from diagonal edge j+1; the next
    block's diagonal edge 0 follows the last class, and the last block wraps
    to the first."""
    edges: list[Edge] = []
    columns = _columns(H, range(H.q))
    # each block's parts are built once, one block ahead: only the first,
    # the current and the next block's parts are alive at a time
    first = nxt = _diagonal_parts(H, columns, blocks[0][0])
    for m, (b, h) in enumerate(blocks):
        parts = nxt
        nxt = _diagonal_parts(H, columns, blocks[m + 1][0]) if m + 1 < len(blocks) else first
        chained = parts + [nxt[0]]
        for j in range(H.n):
            edges.append(_edge(chained[j]))
            edges += [
                _shifted_edge(H, columns, b, h, chained[j], chained[j + 1], t) for t in thresholds
            ]
    return tuple(edges)


def _certify(
    H: SigmaHypergraph, kind: str, edges: tuple[Edge, ...], verifier, **fields
) -> CycleCertificate:
    """The gate every recipe ends in: the certificate of the edges, claimed
    Hamiltonian, returned only once verifier(H, cert) accepts it as a
    Hamiltonian cycle; a sharp one then claims the measured (t, z), which
    is None where the sizes do not alternate uniformly.  Otherwise raises
    NoRecipe; every constructor refuses before this what its recipe does
    not cover, so on working code the gate never refuses.  Each constructor
    passes the verifier by its name in this module, so a wrapper put there
    is called."""
    cert = CycleCertificate(H, kind, edges, claimed_hamiltonian=True, **fields)
    report = verifier(H, cert)
    if not report.ok or not report.hamiltonian:
        what = H if cert.k is None else f"{H}, k={cert.k}"
        raise NoRecipe(
            f"recipe failed verification for {what}: "
            f"{report.violated_condition or 'not hamiltonian'}"
        )
    if kind == KIND_SHARP:
        # t and z are sharp claims: a k = 2 report has a profile too, but
        # a k-intersecting certificate claims none
        return cert.replace(claimed_t=report.profile.uniform_t, claimed_z=report.profile.uniform_z)
    return cert


def _check_cycle(H: SigmaHypergraph, kind: str) -> None:
    """Raise NoCycle, with its reason, where no_cycle_reason proves that H
    has no cycle of this kind."""
    reason = no_cycle_reason(H, kind)
    if reason is not None:
        raise NoCycle(f"{H}: {reason}")


def construct_sharp_hamiltonian(H: SigmaHypergraph, p: int = 1) -> CycleCertificate:
    """Sharp Hamiltonian cycle from chained diagonal/shifted matchings.

    The grid splits into x r-blocks followed by y (r+1)-blocks; each block
    contributes the 2n edges E_0, E*_0, ..., E_{n-1}, E*_{n-1}: the block
    chain with the single threshold p.  When an (r+1)-block would leave the
    head of split 1 empty (a_1 = 1), the split moves to 2.

    Raises ValueError for a split index outside 1..s-1 when s >= 2, then
    NoCycle where no_cycle_reason(H, KIND_SHARP) gives a reason, and
    NoRecipe for one part (n = 1), n <= s, q with no block split
    (frobenius_decompose), or an (r+1)-block with a_1 = 1 and s = 2, where
    split 1 is the only one and its head is empty.
    """
    s = H.sigma.s
    if s > 1:
        # a bad split stays a usage error wherever splits exist
        check_split_index(p, s)
    _check_cycle(H, KIND_SHARP)
    if s < 2:
        raise NoRecipe("sharp construction needs at least two parts")
    blocks = _blocks(H, 2)
    if p == 1 and _zero_head(H, blocks):
        if s == 2:
            raise NoRecipe(
                f"sigma=({H.sigma}) with an (r+1)-block: every split gives a zero intersection"
            )
        p = 2
    return _certify(H, KIND_SHARP, _chain_blocks(H, blocks, [p]), verify_sharp_cycle, split_index=p)


def construct_berge_hamiltonian(H: SigmaHypergraph) -> CycleCertificate:
    """Berge Hamiltonian cycle walking the grid bottom row to top row.

    Edge k = rho*n + c anchors its first part at the walk position (class
    c, row pass rho counted from the bottom): its part in class (c+i) mod n
    is the a_i rows just above row top = q - rho - [c+i >= n], a slice of
    that class's column, or two slices where it wraps past row 0.  So parts
    that wrap past the last class sit one row higher, and rows wrap modulo
    q.  The class order of the parts is computed once per c, and the vertex
    sequence, the walk positions, reuses the same vertex tuples.

    Raises NoCycle where no_cycle_reason(H, KIND_BERGE) gives a reason, one
    of them fewer than nq edges (a single edge among them), and NoRecipe
    for a rectangular sigma with q equal to its part size >= 2, which the
    walk does not cover.
    """
    _check_cycle(H, KIND_BERGE)
    sigma = H.sigma
    n, q = H.n, H.q
    nq = n * q
    if sigma.rectangular and q == sigma.delta_max >= 2:
        raise NoRecipe(
            f"{H}: the walk recipe does not cover a rectangular sigma with q equal to its part size"
        )
    _check_size(H, nq)
    columns = _columns(H, range(q))
    # per class c of the walk, the parts of its edges in ascending class
    # order: the part's column, whether it wraps past the last class (and so
    # sits one row higher) and its size
    layouts = []
    for c in range(n):
        placed = sorted(((c + i) % n, (c + i) // n, a) for i, a in enumerate(sigma.parts))
        layouts.append([(columns[cls], wrap, a) for cls, wrap, a in placed])
    edges = []
    for rho in range(q):
        for layout in layouts:
            vs: tuple[GridVertex, ...] = ()
            for column, wrap, a in layout:
                # the a rows just above row top, wrapping past row 0
                top = q - rho - wrap
                vs += column[top - a:top] if top >= a else column[:top] + column[top - a:]
            edges.append(Edge(vs))
    verts = tuple(columns[c][row] for row in range(q - 1, -1, -1) for c in range(n))
    return _certify(H, KIND_BERGE, tuple(edges), verify_berge_hamiltonian, vertex_sequence=verts)


def construct_k_intersecting(H: SigmaHypergraph, k: int) -> CycleCertificate:
    """k-intersecting Hamiltonian cycle: the block chain with thresholds
    k-1, ..., 1.

    Per block, each diagonal edge i is followed by k-1 shifted edges that keep
    the leading parts of edge i and take the trailing parts from diagonal
    edge i+1, the threshold moving one part left per edge.  In (r+1)-blocks
    the shifted edges share the swapped first part so the k-window
    intersection has size a_1 - 1, hence the largest part must be >= 2 there.

    Raises ValueError when k is not an int >= 2 (a bool is not one), then
    NoCycle where no_cycle_reason(H, KIND_K_INTERSECTING) gives a reason
    (r < 2 or H disconnected), and NoRecipe for one part (n = 1), k > s,
    n <= s, q with no block split (frobenius_decompose), or an (r+1)-block
    with a_1 = 1, where the head of threshold 1 is empty.
    """
    check_k(k)
    _check_cycle(H, KIND_K_INTERSECTING)
    s = H.sigma.s
    if s < 2:
        raise NoRecipe("k-intersecting construction needs at least two parts")
    if k > s:
        raise NoRecipe(f"k={k} outside [2, {s}]")
    blocks = _blocks(H, k)
    if _zero_head(H, blocks):
        raise NoRecipe(
            f"sigma=({H.sigma}) with an (r+1)-block: threshold 1 gives a zero intersection"
        )
    edges = _chain_blocks(H, blocks, range(k - 1, 0, -1))
    return _certify(H, KIND_K_INTERSECTING, edges, verify_k_intersecting, k=k)

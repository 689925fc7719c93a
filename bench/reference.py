"""Independent reference checks for benchmark outputs.

Nothing here imports `sigmacycles`: certificates are plain data (lists of
`(class, row)` pairs), and every check works from the definitions in the
package docstrings, not from the package's code.  Cycle checks build a
vertex -> edge incidence map once, so they run in time linear in the
certificate size (plus the pairs inside each vertex's incidence list, which
is at most k per vertex on a valid cycle).

`check_cycle` also reproduces the verifiers' first-violation contract
(smallest index tuple, stages ordered edge validity -> duplicates ->
sequence structure -> pair/window conditions), so the benchmark can confirm
that each hostile file it builds is rejected for the reason it was built for.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

Vertex = tuple[int, int]

NON_EDGE = "non-edge-member"
DUPLICATE_EDGE = "duplicate-edge"
VERTEX_REPEATED = "vertex-repeated"
COVERAGE_GAP = "coverage-gap"
MEMBERSHIP = "membership-violated"
CONSECUTIVE_EMPTY = "consecutive-intersection-empty"
FORBIDDEN_NONEMPTY = "forbidden-intersection-nonempty"
DEGENERATE_LENGTH = "degenerate-length"


@dataclass(frozen=True)
class Verdict:
    """First violated condition (None when the cycle is valid), whether the
    edges cover the whole grid, and the measured intersection sizes."""

    tag: Optional[str]
    hamiltonian: bool = False
    pair_sizes: Optional[tuple[int, ...]] = None
    window_sizes: Optional[tuple[int, ...]] = None

    @property
    def ok(self) -> bool:
        return self.tag is None


def as_edges(raw: Iterable[Iterable[Sequence[int]]]) -> list[tuple[Vertex, ...]]:
    """Edges from JSON-style nested lists (or Edge.vertices tuples)."""
    return [tuple((v[0], v[1]) for v in e) for e in raw]


def edge_valid(n: int, q: int, sigma: Sequence[int], edge: Sequence[Vertex]) -> bool:
    """An edge is r distinct in-grid vertices whose nonzero per-class counts,
    sorted, equal the partition sigma."""
    if len(edge) != sum(sigma) or len(set(edge)) != len(edge):
        return False
    if not all(0 <= c < n and 0 <= row < q for c, row in edge):
        return False
    counts = sorted(Counter(c for c, _ in edge).values(), reverse=True)
    return counts == sorted(sigma, reverse=True)


def _validity(n, q, sigma, edges) -> Optional[str]:
    for e in edges:
        if not edge_valid(n, q, sigma, e):
            return NON_EDGE
    if len(set(tuple(sorted(e)) for e in edges)) != len(edges):
        return DUPLICATE_EDGE
    return None


def _incidence(sets: Sequence[frozenset]) -> dict[Vertex, list[int]]:
    inc: dict[Vertex, list[int]] = defaultdict(list)
    for i, s in enumerate(sets):
        for v in s:
            inc[v].append(i)
    return inc


def uniform_profile(pair_sizes: Sequence[int]) -> tuple[Optional[int], Optional[int]]:
    """(t, z) when an even-length profile alternates t, z, t, z, ...; else (None, None)."""
    p = len(pair_sizes)
    if p >= 2 and p % 2 == 0:
        t, z = pair_sizes[0], pair_sizes[1]
        if all(s == (t if i % 2 == 0 else z) for i, s in enumerate(pair_sizes)):
            return t, z
    return None, None


def _sharp(n, q, sigma, edges) -> Verdict:
    p = len(edges)
    if p < 4:
        return Verdict(DEGENERATE_LENGTH)
    bad = _validity(n, q, sigma, edges)
    if bad:
        return Verdict(bad)
    sets = [frozenset(e) for e in edges]
    inc = _incidence(sets)

    def consecutive(i: int, j: int) -> bool:
        return j == i + 1 or (i == 0 and j == p - 1)

    # Every violating pair is either a consecutive pair with no common vertex
    # or a non-consecutive pair inside one vertex's incidence list; the first
    # violation is the lexicographically smallest such pair.
    candidates = []
    for i in range(p - 1):
        if not sets[i] & sets[i + 1]:
            candidates.append(((i, i + 1), CONSECUTIVE_EMPTY))
            break
    if not sets[0] & sets[p - 1]:
        candidates.append(((0, p - 1), CONSECUTIVE_EMPTY))
    for members in inc.values():
        for i, j in combinations(members, 2):
            if not consecutive(i, j):
                candidates.append(((i, j), FORBIDDEN_NONEMPTY))
    if candidates:
        return Verdict(min(candidates)[1])
    pair_sizes = tuple(len(sets[i] & sets[(i + 1) % p]) for i in range(p))
    return Verdict(None, len(inc) == n * q, pair_sizes=pair_sizes)


def _k_intersecting(n, q, sigma, edges, k) -> Verdict:
    p = len(edges)
    if p < k + 2:
        return Verdict(DEGENERATE_LENGTH)
    bad = _validity(n, q, sigma, edges)
    if bad:
        return Verdict(bad)
    sets = [frozenset(e) for e in edges]

    def window_common(i: int, size: int) -> frozenset:
        return frozenset.intersection(*(sets[(i + d) % p] for d in range(size)))

    window_sizes = []
    for i in range(p):
        common = window_common(i, k)
        if not common:
            return Verdict(CONSECUTIVE_EMPTY)
        window_sizes.append(len(common))
    if any(window_common(i, k + 1) for i in range(p)):
        return Verdict(FORBIDDEN_NONEMPTY)
    # A non-window k-subset with a common vertex v is a k-subset of v's
    # incidence list; the first one overall is the minimum over vertices of
    # each list's first non-window combination.
    windows = {frozenset((i + d) % p for d in range(k)) for i in range(p)}
    inc = _incidence(sets)
    first = None
    for members in inc.values():
        for combo in combinations(members, k):
            if frozenset(combo) not in windows:
                first = combo if first is None else min(first, combo)
                break
    if first is not None:
        return Verdict(FORBIDDEN_NONEMPTY)
    return Verdict(None, len(inc) == n * q, window_sizes=tuple(window_sizes))


def _berge(n, q, sigma, edges, vertex_sequence) -> Verdict:
    bad = _validity(n, q, sigma, edges)
    if bad:
        return Verdict(bad)
    verts = vertex_sequence
    if verts is None or len(verts) != len(edges) or len(verts) != n * q:
        return Verdict(COVERAGE_GAP)
    if len(set(verts)) != len(verts):
        return Verdict(VERTEX_REPEATED)
    if not all(0 <= c < n and 0 <= row < q for c, row in verts):
        return Verdict(COVERAGE_GAP)
    p = len(edges)
    for i in range(p):
        # edges are r-tuples, so `in` is O(r); no per-edge set is built
        if verts[i] not in edges[i] or verts[(i + 1) % p] not in edges[i]:
            return Verdict(MEMBERSHIP)
    return Verdict(None, True)


def check_cycle(
    n: int,
    q: int,
    sigma: Sequence[int],
    kind: str,
    edges: Sequence[Sequence[Vertex]],
    k: Optional[int] = None,
    vertex_sequence: Optional[Sequence[Vertex]] = None,
) -> Verdict:
    """Definition-level check of a sharp, k-intersecting or Berge cycle."""
    if kind == "berge":
        return _berge(n, q, sigma, edges, vertex_sequence)
    if kind == "sharp" or (k if k is not None else 2) == 2:
        return _sharp(n, q, sigma, edges)
    return _k_intersecting(n, q, sigma, edges, k)


def check_document(doc: dict) -> Verdict:
    """check_cycle on a certificate file's JSON object."""
    hg, cycle = doc["hypergraph"], doc["cycle"]
    vseq = cycle.get("vertex_sequence")
    return check_cycle(
        hg["n"],
        hg["q"],
        hg["sigma"],
        cycle["kind"],
        as_edges(cycle["edges"]),
        k=cycle.get("k"),
        vertex_sequence=[tuple(v) for v in vseq] if vseq is not None else None,
    )


def dot_arcs(edges: Sequence[Sequence[Vertex]]) -> set[tuple[int, int, int]]:
    """(i, j, |E_i & E_j|) for every pair of edges that share a vertex."""
    shared: Counter = Counter()
    for members in _incidence([frozenset(e) for e in edges]).values():
        shared.update(combinations(members, 2))
    return {(i, j, size) for (i, j), size in shared.items()}


_ARC = re.compile(r'^  e(\d+) -- e(\d+) \[label="(\d+)"\];$', re.M)
_NODE = re.compile(r'^  e\d+ \[label="e\d+"\];$', re.M)


def dot_matches(text: str, edges: Sequence[Sequence[Vertex]]) -> bool:
    """The DOT intersection graph has one node per edge and exactly the arcs
    dot_arcs predicts."""
    arcs = {(int(i), int(j), int(s)) for i, j, s in _ARC.findall(text)}
    return len(_NODE.findall(text)) == len(edges) and arcs == dot_arcs(edges)


def svg_counts(n: int, q: int, edges: Sequence[Sequence[Vertex]]) -> dict[str, int]:
    """Circles the SVG must hold: one per grid cell per panel, one outlined
    circle per edge vertex, shaded where a vertex is shared with a cyclic
    neighbour."""
    sets = [frozenset(e) for e in edges]
    p = len(sets)
    shaded = sum(len(sets[i] & (sets[i - 1] | sets[(i + 1) % p])) for i in range(p))
    outlined = sum(len(s) for s in sets)
    return {"circles": p * n * q, "outlined": outlined, "shaded": shaded}


def svg_matches(text: str, n: int, q: int, edges: Sequence[Sequence[Vertex]]) -> bool:
    want = svg_counts(n, q, edges)
    got = {
        "circles": text.count("<circle "),
        "outlined": text.count('stroke="black"'),
        "shaded": text.count('fill="#999999"'),
    }
    return text.rstrip().endswith("</svg>") and got == want


def exhaustive_nu(n: int, q: int, sigma: Sequence[int]) -> int:
    """Maximum matching size by memoised search over used-vertex masks.

    Enumerates edges from all r-subsets of the grid, so it is meant only
    for tiny grids (n*q <= 16)."""
    grid = [(c, row) for c in range(n) for row in range(q)]
    index = {v: i for i, v in enumerate(grid)}
    masks = [
        sum(1 << index[v] for v in combo)
        for combo in combinations(grid, sum(sigma))
        if edge_valid(n, q, sigma, combo)
    ]
    by_low: dict[int, list[int]] = defaultdict(list)
    for m in masks:
        by_low[(m & -m).bit_length() - 1].append(m)
    full = (1 << len(grid)) - 1
    memo: dict[int, int] = {}

    def best(used: int) -> int:
        if used == full:
            return 0
        if used not in memo:
            free = ~used & full
            low = (free & -free).bit_length() - 1
            # either the lowest free vertex stays unmatched, or an edge whose
            # lowest vertex it is takes it (lower vertices are all decided)
            result = best(used | (1 << low))
            for m in by_low[low]:
                if not m & used:
                    result = max(result, 1 + best(used | m))
            memo[used] = result
        return memo[used]

    return best(0)

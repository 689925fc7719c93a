"""Definition-level cycle checkers, bound calculators and brute-force oracles.

Verifiers never trust a certificate's claims: every condition is re-derived
from the edge/vertex data.  Failures are verdicts, not exceptions; the first
violated condition (smallest lexicographic index tuple, checks staged as
edge validity -> duplicates -> sequence structure -> pair/window conditions)
is reported with a stable tag.

The sharp and k-intersecting verifiers are exact and take no budget.  They
read the pair and subset conditions off a vertex -> edge incidence index:
edges that share a vertex are exactly the pairs (or k-sets) inside some
vertex's incidence list.  Each list yields its own first violating candidate
and the verifier reports the minimum over the candidates, which keeps the
first-violation contract above.  A check costs O(k * sum of incidence sizes)
plus O(p*k) window intersections, not O(p^2) pairs or C(p, k) subsets.
The index itself is core.incidence, which export.render_dot reads too.  The
brute-force oracles search the same index over all edges of H, held as int
bitsets and built in builtin passes (_edge_bitsets) from the lazy
core.enumerate_edges; the sharp search carries the edges through blocked
vertices down its tree as one bitset.

Edge validity, the first stage of every verifier, is one exact pass over the
edge list that applies core.is_edge's rule inline: in-range vertex pairs, r
distinct vertices, and the sigma shape of the columns, memoised per column
tuple.  A second pass finds the first repeated edge.  A reject names the
same edge with the same detail as a per-edge is_edge loop would.

A certificate's claims (claims.hamiltonian, claims.t, claims.z) are never
checked: no verdict or tag compares them with what the verifier measures,
which the report carries (profile, window sizes, coverage).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .certificates import (
    KIND_BERGE,
    KIND_K_INTERSECTING,
    KIND_SHARP,
    CycleCertificate,
    SharpnessProfile,
)
from .core import Edge, GridVertex, SigmaHypergraph, edge_count, enumerate_edges, incidence
from .errors import BudgetExceeded

TAG_DUPLICATE_EDGE = "duplicate-edge"
TAG_NON_EDGE = "non-edge-member"
TAG_VERTEX_REPEATED = "vertex-repeated"
TAG_COVERAGE_GAP = "coverage-gap"
TAG_MEMBERSHIP = "membership-violated"
TAG_CONSECUTIVE_EMPTY = "consecutive-intersection-empty"
TAG_FORBIDDEN_NONEMPTY = "forbidden-intersection-nonempty"
TAG_DEGENERATE_LENGTH = "degenerate-length"


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violated_condition: Optional[str] = None
    detail: Optional[str] = None
    profile: Optional[SharpnessProfile] = None
    window_sizes: Optional[tuple[int, ...]] = None
    hamiltonian: bool = False

    @classmethod
    def failure(cls, tag: str, detail: str) -> "VerificationReport":
        return cls(ok=False, violated_condition=tag, detail=detail)


def _edge_validity_failure(H: SigmaHypergraph, edges: Sequence[Edge]) -> Optional[VerificationReport]:
    """The first non-edge, else the first repeated edge, else None.

    One pass applies core.is_edge's rule to each edge inline, in its order:
    every vertex a pair in range (a vertex that is not a pair raises
    ValueError, which marks a non-edge), then r distinct vertices, then the
    sigma shape of the edge's columns, memoised per column tuple.  A second
    pass finds the first repeated edge with a dict, as the per-edge
    reference does, so an unhashable edge after a repeat is never hashed.
    """
    n, q, r = H.n, H.q, H.r
    shapes: dict[tuple, bool] = {}
    for i, e in enumerate(edges):
        vs = e.vertices
        try:
            cols = []
            for c, row in vs:
                if not (0 <= c < n and 0 <= row < q):
                    raise ValueError
                cols.append(c)
            valid = len(set(vs)) == len(vs) == r
            if valid:
                key = tuple(cols)
                valid = shapes.get(key)
                if valid is None:
                    valid = shapes[key] = (
                        tuple(sorted(Counter(key).values(), reverse=True)) == H.sigma.parts
                    )
        except ValueError:
            valid = False
        if not valid:
            return VerificationReport.failure(TAG_NON_EDGE, f"edge {i} is not an edge of {H}")
    seen: dict[tuple, int] = {}
    for i, e in enumerate(edges):
        vs = e.vertices
        if vs in seen:
            return VerificationReport.failure(TAG_DUPLICATE_EDGE, f"edge {i} duplicates edge {seen[vs]}")
        seen[vs] = i
    return None


def verify_berge_hamiltonian(H: SigmaHypergraph, cert: CycleCertificate) -> VerificationReport:
    """Check the Berge Hamiltonian cycle conditions: distinct vertices covering
    the whole grid, distinct valid edges, and cyclic membership of each
    consecutive vertex pair in its linking edge."""
    if cert.kind != KIND_BERGE:
        raise ValueError(f"expected a berge certificate, got {cert.kind!r}")
    edges = cert.edges
    bad = _edge_validity_failure(H, edges)
    if bad is not None:
        return bad
    verts = cert.vertex_sequence
    if verts is None or len(verts) != len(edges):
        return VerificationReport.failure(
            TAG_COVERAGE_GAP, "vertex sequence missing or length differs from edge count"
        )
    if len(verts) != H.vertex_count:
        return VerificationReport.failure(
            TAG_COVERAGE_GAP, f"{len(verts)} vertices listed, grid has {H.vertex_count}"
        )
    seen: dict[GridVertex, int] = {}
    for i, v in enumerate(verts):
        if v in seen:
            return VerificationReport.failure(TAG_VERTEX_REPEATED, f"vertex {v} repeated at {seen[v]} and {i}")
        seen[v] = i
    for v in verts:
        if not H.in_bounds(v):
            return VerificationReport.failure(TAG_COVERAGE_GAP, f"vertex {v} out of bounds")
    # nq distinct in-bounds vertices necessarily cover the grid
    p = len(edges)
    for i in range(p):
        v, w = verts[i], verts[(i + 1) % p]
        if v not in edges[i] or w not in edges[i]:
            return VerificationReport.failure(
                TAG_MEMBERSHIP, f"edge {i} does not contain both vertex {i} and vertex {(i + 1) % p}"
            )
    return VerificationReport(ok=True, hamiltonian=True)


def _first_shared_non_window(
    index: dict[GridVertex, list[int]], k: int, p: int
) -> Optional[tuple[int, ...]]:
    """Smallest (lexicographic) k-subset of the p edges that shares a vertex
    and is not a cyclic window of k consecutive edges, or None."""
    first = None
    for ids in index.values():
        if len(ids) < k:
            continue
        # ids holds at most len(ids) windows, so the first non-window
        # subset comes within len(ids) + 1 steps.  A sorted window either
        # spans k - 1 or wraps: it runs up to p - 1 and on from 0, with
        # exactly one gap in between.
        for s in itertools.combinations(ids, k):
            if s[-1] - s[0] == k - 1 or (
                s[0] == 0 and s[-1] == p - 1 and sum(b != a + 1 for a, b in zip(s, s[1:])) == 1
            ):
                continue
            if first is None or s < first:
                first = s
            break
    return first


def _verify_sharp_edges(H: SigmaHypergraph, edges: Sequence[Edge]) -> VerificationReport:
    p = len(edges)
    if p < 4:
        return VerificationReport.failure(TAG_DEGENERATE_LENGTH, f"{p} edges; a sharp cycle needs at least 4")
    bad = _edge_validity_failure(H, edges)
    if bad is not None:
        return bad
    pair_sizes = tuple(
        len(set(edges[i].vertices).intersection(edges[(i + 1) % p].vertices)) for i in range(p)
    )
    index = incidence(edges)
    candidates = [(i, i + 1, TAG_CONSECUTIVE_EMPTY) for i in range(p - 1) if not pair_sizes[i]]
    if not pair_sizes[p - 1]:
        candidates.append((0, p - 1, TAG_CONSECUTIVE_EMPTY))
    pair = _first_shared_non_window(index, 2, p)
    if pair is not None:
        candidates.append((*pair, TAG_FORBIDDEN_NONEMPTY))
    if candidates:
        i, j, tag = min(candidates)
        if tag == TAG_CONSECUTIVE_EMPTY:
            return VerificationReport.failure(tag, f"consecutive edges {i} and {j} are disjoint")
        shared = len(set(edges[i].vertices).intersection(edges[j].vertices))
        return VerificationReport.failure(
            tag, f"non-consecutive edges {i} and {j} share {shared} vertex(es)"
        )
    profile = SharpnessProfile.from_sizes(pair_sizes)
    return VerificationReport(ok=True, profile=profile, hamiltonian=len(index) == H.vertex_count)


def verify_sharp_cycle(H: SigmaHypergraph, cert: CycleCertificate) -> VerificationReport:
    """Check the sharp-cycle conditions: consecutive edges intersect, every
    other pair is disjoint.  The report carries the measured intersection
    profile and whether the cycle covers the whole grid."""
    if cert.kind != KIND_SHARP:
        raise ValueError(f"expected a sharp certificate, got {cert.kind!r}")
    return _verify_sharp_edges(H, cert.edges)


def verify_k_intersecting(
    H: SigmaHypergraph,
    cert: CycleCertificate,
    k: Optional[int] = None,
) -> VerificationReport:
    """Check the k-intersecting cycle conditions.

    Every cyclic window of k consecutive edges must share a vertex; every
    cyclic window of k+1 consecutive edges and every non-window k-subset must
    have an empty common intersection.  By monotonicity of intersections this
    certifies the full "any other collection of k or more edges" condition.

    The check is exact for every k and has no budget.  The window stages cost
    O(p*k) intersections.  A non-window k-subset with a common vertex v lies
    inside v's incidence list, so each list yields its first such subset and
    the minimum over all vertices is reported: O(k * sum of incidence sizes).
    Raises ValueError when k < 2.
    """
    if cert.kind not in (KIND_K_INTERSECTING, KIND_SHARP):
        raise ValueError(f"expected a k-intersecting certificate, got {cert.kind!r}")
    if k is None:
        k = cert.k if cert.k is not None else 2
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if k == 2:
        return _verify_sharp_edges(H, cert.edges)
    edges = cert.edges
    p = len(edges)
    if p < k + 2:
        return VerificationReport.failure(
            TAG_DEGENERATE_LENGTH, f"{p} edges; a {k}-intersecting cycle needs at least {k + 2}"
        )
    bad = _edge_validity_failure(H, edges)
    if bad is not None:
        return bad

    def common(idxs: tuple[int, ...]) -> set[GridVertex]:
        acc = set(edges[idxs[0]].vertices)
        for i in idxs[1:]:
            acc.intersection_update(edges[i].vertices)
        return acc

    window_sizes = []
    for i in range(p):
        w = tuple((i + d) % p for d in range(k))
        inter = common(w)
        if not inter:
            return VerificationReport.failure(
                TAG_CONSECUTIVE_EMPTY, f"window {w} has empty intersection"
            )
        window_sizes.append(len(inter))
    for i in range(p):
        w1 = tuple((i + d) % p for d in range(k + 1))
        if common(w1):
            return VerificationReport.failure(
                TAG_FORBIDDEN_NONEMPTY, f"window of {k + 1} consecutive edges {w1} shares a vertex"
            )
    index = incidence(edges)
    subset = _first_shared_non_window(index, k, p)
    if subset is not None:
        return VerificationReport.failure(
            TAG_FORBIDDEN_NONEMPTY, f"non-window edge subset {subset} shares a vertex"
        )
    return VerificationReport(
        ok=True, window_sizes=tuple(window_sizes), hamiltonian=len(index) == H.vertex_count
    )


def verify_matching(H: SigmaHypergraph, edges: Iterable[Edge]) -> bool:
    """True iff all edges are valid and pairwise vertex-disjoint."""
    es = list(edges)
    return _edge_validity_failure(H, es) is None and all(
        len(ids) == 1 for ids in incidence(es).values()
    )


# ---------------------------------------------------------------------------
# Bounds


@dataclass(frozen=True)
class BoundsReport:
    """Matching and sharp-cycle bounds, exact rationals throughout."""

    nu_upper: Optional[Fraction]
    unmatched_lower: Optional[int]
    sharp_edge_lower: Fraction
    sharp_edge_upper: Fraction
    nonexistence_fired: Optional[bool] = None


def matching_upper_bound(H: SigmaHypergraph) -> Optional[tuple[int, Fraction]]:
    """When d = gcd(sigma) >= 2 and t = q mod d >= 1, at least t*n vertices
    stay unmatched, so the maximum matching is at most n(q-t)/r.
    Returns (unmatched_lower, nu_upper), or None when not applicable."""
    d = H.sigma.gcd_parts
    if d < 2:
        return None
    t = H.q % d
    if t == 0:
        return None
    return t * H.n, Fraction(H.n * (H.q - t), H.r)


def sharp_cycle_bounds(H: SigmaHypergraph) -> tuple[Fraction, Fraction]:
    """Edge-count window for any sharp Hamiltonian cycle:
    nq/(r-1) <= |E(C)| <= 2nq/r.  Raises ValueError when r < 2, where
    consecutive edges cannot share a vertex without being equal."""
    if H.r < 2:
        raise ValueError(f"sharp cycle bounds need r >= 2, got r={H.r}")
    nq = H.vertex_count
    return Fraction(nq, H.r - 1), Fraction(2 * nq, H.r)


def sharp_nonexistence_test(H: SigmaHypergraph, nu: int) -> bool:
    """True iff 2*nu + 1 < nq/(r-1); with nu >= the true maximum matching
    size this certifies that no sharp Hamiltonian cycle exists.  Raises
    ValueError when nu < 0, which no matching size can be, or when r < 2."""
    if nu < 0:
        raise ValueError(f"matching size nu must be >= 0, got {nu}")
    return 2 * nu + 1 < sharp_cycle_bounds(H)[0]


def bounds_report(H: SigmaHypergraph, nu: Optional[int] = None) -> BoundsReport:
    """All bounds for H; with nu, also the nonexistence test (ValueError for nu < 0)."""
    frag = matching_upper_bound(H)
    lower, upper = sharp_cycle_bounds(H)
    fired = sharp_nonexistence_test(H, nu) if nu is not None else None
    return BoundsReport(
        nu_upper=frag[1] if frag else None,
        unmatched_lower=frag[0] if frag else None,
        sharp_edge_lower=lower,
        sharp_edge_upper=upper,
        nonexistence_fired=fired,
    )


# ---------------------------------------------------------------------------
# Brute-force oracles


def _bits(x: int) -> Iterator[int]:
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


# _BIT_DIGITS[b] maps each byte to b"1" when its bit b is set, else b"0"
_BIT_DIGITS = [bytes(b"01"[x >> b & 1] for x in range(256)) for b in range(8)]


def _edge_bitsets(H: SigmaHypergraph) -> tuple[list[Edge], list[int], list[int]]:
    """The incidence index of all edges of H as int bitsets.

    Returns the edges in enumeration order, each edge's vertex bitmask, and
    for each vertex the bitmask of the edges through it.  Vertex bit i is the
    i-th vertex of H.vertices() (grid order); edge bit j is edges[j].

    No Python loop runs per (edge, vertex) pair.  An edge's mask is a sum of
    vertex bits.  The masks, written as B little-endian bytes each, form one
    buffer whose stride-B column of byte u >> 3 holds vertex u's bit of every
    edge; translating that column to ASCII binary digits on bit u & 7 and
    reversing it gives the base-2 numeral of the vertex's edge bitset (int()
    in base 2 has no digit limit).
    """
    edges = list(enumerate_edges(H))
    q = H.q
    bit = {(c, row): 1 << (c * q + row) for c, row in H.vertices()}
    masks = [sum(map(bit.__getitem__, e.vertices)) for e in edges]
    width = (H.vertex_count + 7) // 8
    buf = b"".join([mask.to_bytes(width, "little") for mask in masks])
    inc = [
        int(buf[u >> 3 :: width].translate(_BIT_DIGITS[u & 7])[::-1], 2)
        for u in range(H.vertex_count)
    ]
    return edges, masks, inc


def _edges_meeting(vertex_mask: int, inc: list[int]) -> int:
    """Bitmask of the edges through any vertex of vertex_mask."""
    out = 0
    for u in _bits(vertex_mask):
        out |= inc[u]
    return out


@dataclass(frozen=True)
class MaxMatchingResult:
    nu: int
    exact: bool
    nodes: int


def brute_force_max_matching(H: SigmaHypergraph, budget: int = 2_000_000) -> MaxMatchingResult:
    """Exact maximum matching size by branch and bound.

    Branches on the lexicographically-first vertex still reachable by a
    candidate edge: either some candidate edge through it is taken, or the
    vertex is left unmatched and all edges through it are discarded.  Pruned
    by size + floor(reachable_vertices / r) <= best.  When the node budget
    runs out the best matching found so far is returned flagged inexact.
    Candidate sets are int bitsets over the edges (see _edge_bitsets).
    Raises ValueError when budget < 0.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    m = edge_count(H)
    if m > budget:
        raise BudgetExceeded(f"{m} edges exceeds budget {budget}")
    edges, masks, inc = _edge_bitsets(H)
    r = H.r
    best = 0
    nodes = 0
    exact = True

    def rec(cand: int, reach: list[int], size: int) -> None:
        # reach: the parent's reachable vertices, ascending; cand only
        # shrinks, so no other vertex can be reachable here
        nonlocal best, nodes, exact
        nodes += 1
        if nodes > budget:
            exact = False
            return
        if not cand:
            best = max(best, size)
            return
        reach = [u for u in reach if cand & inc[u]]
        best = max(best, size + 1)
        if size + len(reach) // r <= best:
            return
        v = reach[0]
        for j in _bits(cand & inc[v]):
            if not exact:
                return
            rec(cand & ~_edges_meeting(masks[j], inc), reach, size + 1)
        if exact:
            rec(cand & ~inc[v], reach, size)

    rec((1 << len(edges)) - 1, list(range(H.vertex_count)), 0)
    return MaxMatchingResult(best, exact, nodes)


@dataclass(frozen=True)
class SharpSearchResult:
    status: str  # "found" | "exhausted"
    certificate: Optional[CycleCertificate] = None
    nodes: int = 0


def brute_force_sharp_hamiltonian_exists(
    H: SigmaHypergraph, max_len: int, budget: int = 2_000_000
) -> SharpSearchResult:
    """Exhaustive search for a sharp Hamiltonian cycle of up to max_len edges.

    Depth-first over edge sequences whose first edge is the lexicographically
    smallest of the cycle; prefixes must be sharp paths and the coverage bound
    (remaining edges x (r-1) >= uncovered vertices) prunes dead branches.
    Any cycle found is re-checked by verify_sharp_cycle before it is returned.
    The extensions of a path are read off int bitsets over the edges (see
    _edge_bitsets), in ascending edge order.  The result carries the number
    of search nodes.  Raises BudgetExceeded when the node budget runs out,
    and ValueError when max_len or budget is negative.
    """
    if max_len < 0 or budget < 0:
        raise ValueError(f"max_len and budget must be >= 0, got {max_len} and {budget}")
    m = edge_count(H)
    if m > budget:
        raise BudgetExceeded(f"{m} edges exceeds budget {budget}")
    edges, masks, inc = _edge_bitsets(H)
    nq = H.vertex_count
    r = H.r
    target = (1 << nq) - 1
    nodes = 0

    def check() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"search budget {budget} exhausted")

    def dfs(path: list[int], union: int, blocked_edges: int) -> Optional[list[int]]:
        # blocked_edges: the edges through a vertex outside the first edge
        # that a path edge other than the last one holds.  A new edge must
        # avoid those vertices, intersect the last edge, and (unless it
        # closes the cycle) avoid the first edge as well.
        check()
        depth = len(path)
        if depth >= max_len:
            return None
        uncovered = nq - bin(union).count("1")
        if uncovered > (max_len - depth) * (r - 1):
            return None
        first = path[0]
        first_mask = masks[first]
        last_mask = masks[path[-1]]
        # edges after the first that meet the last edge and avoid the
        # blocked vertices outside the first edge.  No path edge is left:
        # each edge between the first and the last has a blocked vertex
        # outside the first edge, and so has the last edge from depth 3 on
        # (it meets the edge before it, not the first one); the second edge
        # at depth 2 meets the first and goes with the filter below.
        cand = _edges_meeting(last_mask, inc) >> (first + 1) << (first + 1)
        cand &= ~blocked_edges
        if depth >= 2:
            # past the second edge, an edge that meets the first one is only
            # tried as a closing edge, and a closing edge holds every
            # uncovered vertex; the loop below skips every other such edge
            closers = 0
            if depth >= 3 and uncovered <= r:
                closers = all_edges
                for u in _bits(target & ~union):
                    closers &= inc[u]
            cand &= ~first_meets | closers
        # the children's blocked edges, computed only once a child is entered;
        # computing them at every node was slower on exhausted searches
        child_blocked = None
        for j in _bits(cand):
            mj = masks[j]
            closes = depth + 1 >= 4 and (mj & first_mask) and (mj | union) == target
            # cand spares the blocked vertices inside the first edge, so a
            # closing edge may meet the second edge; such an edge cannot pass
            # verify_sharp_cycle, so it is not handed to it
            if closes and not (mj & masks[path[1]]):
                candidate = path + [j]
                cert = CycleCertificate(
                    hypergraph=H,
                    kind=KIND_SHARP,
                    edges=tuple(edges[i] for i in candidate),
                )
                report = verify_sharp_cycle(H, cert)
                if report.ok and report.hamiltonian:
                    return candidate
            # the second edge is consecutive to the first; later extensions
            # must stay disjoint from it until the cycle closes
            if depth == 1 or not (mj & first_mask):
                if child_blocked is None:
                    child_blocked = blocked_edges | _edges_meeting(last_mask & ~first_mask, inc)
                found = dfs(path + [j], union | mj, child_blocked)
                if found is not None:
                    return found
        return None

    all_edges = (1 << len(edges)) - 1
    for start in range(len(edges)):
        check()
        first_meets = _edges_meeting(masks[start], inc)  # read by dfs
        found = dfs([start], masks[start], 0)
        if found is not None:
            cert = CycleCertificate(
                hypergraph=H, kind=KIND_SHARP, edges=tuple(edges[i] for i in found)
            )
            return SharpSearchResult("found", cert, nodes)
    return SharpSearchResult("exhausted", nodes=nodes)

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
There is one such index, core.incidence: the verifiers, export.render_dot
and the sharp brute-force oracle all read it.  The oracle builds it over
core.enumerate_edges, all edges of H, and holds it as int bitsets
(_edge_bitsets), unless max_len is too short to cover the grid from edge 0.  The sharp search starts from edge 0 only: permuting the
classes and the rows within each class maps H onto itself and any edge onto
any other, so a sharp Hamiltonian cycle exists if and only if one passes
through edge 0.  It carries the edges through blocked vertices down its
tree as one bitset, on an explicit stack.  The max-matching oracle builds
no index: an edge is fixed by its per-class part sizes, so it searches the
class loads of packings of sigma, not the edges.

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
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .certificates import (
    KIND_BERGE,
    KIND_K_INTERSECTING,
    KIND_SHARP,
    CycleCertificate,
    SharpnessProfile,
)
from .core import (
    Edge,
    GridVertex,
    Partition,
    Record,
    SigmaHypergraph,
    edge_count,
    enumerate_edges,
    incidence,
)
from .errors import BudgetExceeded

if TYPE_CHECKING:
    # sharp_cycle_bounds imports it when it runs: the verifiers and oracles
    # never load fractions (and the decimal module it imports)
    from fractions import Fraction

TAG_DUPLICATE_EDGE = "duplicate-edge"
TAG_NON_EDGE = "non-edge-member"
TAG_VERTEX_REPEATED = "vertex-repeated"
TAG_COVERAGE_GAP = "coverage-gap"
TAG_MEMBERSHIP = "membership-violated"
TAG_CONSECUTIVE_EMPTY = "consecutive-intersection-empty"
TAG_FORBIDDEN_NONEMPTY = "forbidden-intersection-nonempty"
TAG_DEGENERATE_LENGTH = "degenerate-length"


class VerificationReport(Record):
    __slots__ = ("ok", "violated_condition", "detail", "profile", "window_sizes", "hamiltonian")
    ok: bool
    violated_condition: Optional[str]
    detail: Optional[str]
    profile: Optional[SharpnessProfile]
    window_sizes: Optional[tuple[int, ...]]
    hamiltonian: bool

    def __init__(
        self,
        ok: bool,
        violated_condition: Optional[str] = None,
        detail: Optional[str] = None,
        profile: Optional[SharpnessProfile] = None,
        window_sizes: Optional[tuple[int, ...]] = None,
        hamiltonian: bool = False,
    ) -> None:
        self._set(ok, violated_condition, detail, profile, window_sizes, hamiltonian)

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


def _load_ceiling(sigma: Partition) -> Callable[..., int]:
    """The ceiling on the copies of sigma that pack into classes of
    capacities c, each copy's parts in distinct classes: the least
    floor(sum of floor(c/a) / m) over the terms (a, m).  The gcd term
    (d, r/d): every class load is a sum of parts, so a multiple of
    d = gcd(sigma).  A slot term (a, m_a) for each part size a: a class
    holds at most floor(c/a) of the m_a parts of size a or more.  The
    returned function takes the capacities, each counted `classes` times.
    """
    parts, r, d = sigma.parts, sigma.r, sigma.gcd_parts
    # parts are non-increasing, so the parts >= a end at the last a.  A slot
    # term with a = d is never below the gcd term (m_d <= s <= r/d), so a
    # rectangular sigma has the gcd term alone
    slots = {a: i + 1 for i, a in enumerate(parts) if a != d}.items()
    units = r // d

    def ceiling(capacities: Sequence[int], classes: int = 1) -> int:
        best = sum([c // d for c in capacities]) * classes // units
        for a, m in slots:
            best = min(best, sum([c // a for c in capacities]) * classes // m)
        return best

    return ceiling


def matching_upper_bound(H: SigmaHypergraph) -> int:
    """An upper bound on the maximum matching size of H: the class-load
    ceiling (see _load_ceiling) of n classes of capacity q, with which
    brute_force_max_matching prunes its root.  O(s) time."""
    return _load_ceiling(H.sigma)((H.q,), H.n)


def sharp_cycle_bounds(H: SigmaHypergraph) -> tuple[Fraction, Fraction]:
    """Edge-count window for any sharp Hamiltonian cycle:
    nq/(r-1) <= |E(C)| <= 2nq/r.  Raises ValueError when r < 2, where
    consecutive edges cannot share a vertex without being equal."""
    if H.r < 2:
        raise ValueError(f"sharp cycle bounds need r >= 2, got r={H.r}")
    from fractions import Fraction

    nq = H.vertex_count
    return Fraction(nq, H.r - 1), Fraction(2 * nq, H.r)


def sharp_nonexistence_test(H: SigmaHypergraph, nu: int) -> bool:
    """True iff 2*nu + 1 < nq/(r-1); with nu >= the true maximum matching
    size this certifies that no sharp Hamiltonian cycle exists.  Raises
    ValueError when nu < 0, which no matching size can be, or when r < 2."""
    if nu < 0:
        raise ValueError(f"matching size nu must be >= 0, got {nu}")
    return 2 * nu + 1 < sharp_cycle_bounds(H)[0]


# ---------------------------------------------------------------------------
# Brute-force oracles


def _bits(x: int) -> Iterator[int]:
    """Indices of the set bits of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _edge_bitsets(H: SigmaHypergraph) -> tuple[list[Edge], list[int], list[int]]:
    """The incidence index of all edges of H as int bitsets.

    Returns the edges in enumerate_edges order, each edge's vertex bitmask,
    and for each vertex the bitmask of the edges through it, read off
    core.incidence.  Vertex (c, row) is bit c*q + row, its position in
    H.vertices(); edge bit j is edges[j].
    """
    edges = list(enumerate_edges(H))
    index = incidence(edges)
    masks = [0] * len(edges)
    inc = []
    for u, v in enumerate(H.vertices()):
        buf = bytearray((len(edges) + 7) // 8)
        for i in index.get(v, ()):
            buf[i >> 3] |= 1 << (i & 7)
            masks[i] |= 1 << u
        inc.append(int.from_bytes(buf, "little"))
    return edges, masks, inc


def _edges_meeting(vertex_mask: int, inc: list[int]) -> int:
    """Bitmask of the edges through any vertex of vertex_mask."""
    out = 0
    while vertex_mask:
        low = vertex_mask & -vertex_mask
        out |= inc[low.bit_length() - 1]
        vertex_mask ^= low
    return out


class MaxMatchingResult(Record):
    __slots__ = ("nu", "exact", "nodes")
    nu: int
    exact: bool
    nodes: int

    def __init__(self, nu: int, exact: bool, nodes: int) -> None:
        self._set(nu, exact, nodes)


def _placements(
    state: tuple[int, ...], parts: tuple[int, ...], taken: list[int], out: dict[tuple[int, ...], None]
) -> None:
    """Add to out, in depth-first order, every state left by placing parts
    (non-increasing) into distinct classes of state that have room for them;
    taken[j] is the part already placed in class j, or 0.

    Classes of equal capacity are interchangeable, and state is sorted, so
    a part skips a class whose capacity equals the last class it tried.
    """
    if not parts:
        child = tuple(sorted((c - t for c, t in zip(state, taken) if c > t), reverse=True))
        out.setdefault(child)
        return
    need, tried = parts[0], None
    for j, c in enumerate(state):
        if c < need:
            break
        if taken[j] or c == tried:
            continue
        taken[j], tried = need, c
        _placements(state, parts[1:], taken, out)
        taken[j] = 0


def brute_force_max_matching(H: SigmaHypergraph, budget: int = 2_000_000) -> MaxMatchingResult:
    """Exact maximum matching size by a memoised search over class loads.

    An edge is fixed by its per-class part sizes alone, and rows within a
    class are interchangeable, so nu(H) is the largest number of copies of
    sigma that pack into n classes of capacity q with each copy's parts in
    distinct classes.  A state is the tuple of non-zero residual class
    capacities, sorted in descending order; its children are the distinct
    states one more copy can leave (see _placements), and
    f(state) = max(0, 1 + max over children of f(child)), memoised.  A
    state stops branching once it reaches the ceiling of its capacities
    (see _load_ceiling: the gcd and part-slot terms); at the root that is
    matching_upper_bound(H).  The search is depth first over an explicit
    stack, so its depth (nu) is not bounded by the recursion limit, and the
    first descent is a greedy packing.  nodes counts the states expanded:
    the memo misses with room for r more vertices (a state with fewer is
    worth 0).  When nodes exceeds the budget the largest packing found so
    far is returned flagged inexact.
    Builds no edge index.  Raises BudgetExceeded when H has more edges than
    the budget, which so bounds the size of H as well as the search, and
    ValueError when budget < 0.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    m = edge_count(H)
    if m > budget:
        raise BudgetExceeded(f"{m} edges exceeds budget {budget}")
    parts, r = H.sigma.parts, H.r
    ceiling_of = _load_ceiling(H.sigma)
    memo: dict[tuple[int, ...], int] = {}
    best = nodes = 0
    # the current path, one frame per state: [state, children left (next
    # last), value so far, ceiling]; the frame at depth d has d copies placed
    path: list[list] = [[(H.q,) * H.n, None, 0, 0]]
    while path:
        frame = path[-1]
        state, left, value, ceiling = frame
        depth = len(path) - 1
        if left is None:
            best = max(best, depth)
            nodes += 1
            if nodes > budget:
                return MaxMatchingResult(best, False, nodes)
            out: dict[tuple[int, ...], None] = {}
            _placements(state, parts, [0] * len(state), out)
            frame[1] = left = list(out)[::-1]
            frame[3] = ceiling = ceiling_of(state)
        if left and value < ceiling:
            child = left.pop()
            # fewer than r vertices left: no copy fits, so no expansion
            got = memo.get(child) if sum(child) >= r else 0
            if got is None:
                path.append([child, None, 0, 0])
            else:
                frame[2] = max(value, 1 + got)
                best = max(best, depth + frame[2])
            continue
        path.pop()
        memo[state] = value
        if path:
            path[-1][2] = max(path[-1][2], 1 + value)
            best = max(best, depth + value)
    return MaxMatchingResult(best, True, nodes)


class SharpSearchResult(Record):
    __slots__ = ("status", "certificate", "nodes")
    status: str  # "found" | "exhausted"
    certificate: Optional[CycleCertificate]
    nodes: int

    def __init__(self, status: str, certificate: Optional[CycleCertificate] = None, nodes: int = 0) -> None:
        self._set(status, certificate, nodes)


def brute_force_sharp_hamiltonian_exists(
    H: SigmaHypergraph, max_len: int, budget: int = 2_000_000
) -> SharpSearchResult:
    """Exhaustive search for a sharp Hamiltonian cycle of up to max_len edges.

    An edge of H is fixed only by its per-class intersection sizes, so the
    group S_q wr S_n, which permutes the classes and the rows within each
    class, acts on H by automorphisms and is transitive on the edges.  A
    sharp Hamiltonian cycle of up to max_len edges therefore exists if and
    only if one passes through edge 0, and the search is one depth-first
    pass over edge sequences that start at edge 0.  Prefixes must be sharp
    paths and the coverage bound (remaining edges x (r-1) >= uncovered
    vertices) prunes dead branches.  With max_len >= floor(2nq/r) (see
    sharp_cycle_bounds), "exhausted" proves that no sharp Hamiltonian cycle
    exists.  Any cycle found is re-checked by verify_sharp_cycle before it is
    returned.
    When the coverage bound already prunes edge 0 alone (max_len too short
    to cover the grid from it), the answer is "exhausted" and no edge index
    is built.  Otherwise the extensions of a path are read off int bitsets
    over the edges (see _edge_bitsets), in ascending edge order.  The search
    runs on an explicit stack, one frame per path edge that has candidates,
    so max_len is not bounded by the recursion limit.
    The result carries the number of search nodes: the empty path and every
    path entered.  Raises BudgetExceeded when the node budget runs out, and
    ValueError when max_len or budget is negative.
    """
    if max_len < 0 or budget < 0:
        raise ValueError(f"max_len and budget must be >= 0, got {max_len} and {budget}")
    m = edge_count(H)
    if m > budget:
        raise BudgetExceeded(f"{m} edges exceeds budget {budget}")
    # the root, edge 0, is the second node; it leaves nq - r vertices
    # uncovered, and when the coverage bound prunes it the answer needs no
    # edge index
    if budget < 2:
        raise BudgetExceeded(f"search budget {budget} exhausted")
    nq, r = H.vertex_count, H.r
    if max_len <= 1 or nq - r > (max_len - 1) * (r - 1):
        return SharpSearchResult("exhausted", nodes=2)
    edges, masks, inc = _edge_bitsets(H)
    target = (1 << nq) - 1
    # every path starts at edge 0 (see the docstring)
    first_mask = masks[0]
    first_meets = _edges_meeting(first_mask, inc)
    all_edges = (1 << len(masks)) - 1
    # the edges of the path
    path: list[int] = []
    # one frame per path edge that has candidates: (union, the candidates
    # left (an iterator), the children's blocked edges).  The blocked edges
    # go through a vertex outside the first edge that a path edge other
    # than the last one holds.  A new edge must avoid those vertices,
    # intersect the last edge, and (unless it closes the cycle) avoid the
    # first edge as well.
    frames: list[tuple[int, Iterator[int], int]] = []
    nodes = 1  # the empty path, whose one child is edge 0
    j, union, blocked = 0, first_mask, 0
    while j is not None:
        # enter the path path + [j], which covers union
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"search budget {budget} exhausted")
        path.append(j)
        depth = len(path)
        uncovered = nq - bin(union).count("1")
        cand = 0
        if depth < max_len and uncovered <= (max_len - depth) * (r - 1):
            # edges other than the first that meet the last edge and avoid
            # the blocked vertices outside the first edge.  No path edge is
            # left: each edge between the first and the last has a blocked
            # vertex outside the first edge, and so has the last edge from
            # depth 3 on (it meets the edge before it, not the first one);
            # the second edge at depth 2 meets the first and goes with the
            # filter below.
            cand = _edges_meeting(masks[j], inc) & ~1 & ~blocked
            if depth >= 2:
                # past the second edge, an edge that meets the first one is
                # only tried as a closing edge, and a closing edge holds every
                # uncovered vertex; the loop below skips every other such edge
                closers = 0
                if depth >= 3 and uncovered <= r:
                    closers = all_edges
                    for u in _bits(target & ~union):
                        closers &= inc[u]
                cand &= ~first_meets | closers
        if cand:
            child_blocked = blocked | _edges_meeting(masks[j] & ~first_mask, inc)
            frames.append((union, _bits(cand), child_blocked))
        else:
            path.pop()
        # the next path to enter: the next candidate of the deepest frame
        # that has one
        j = None
        while frames and j is None:
            union, cands, child_blocked = frames[-1]
            depth = len(path)
            for j in cands:
                mj = masks[j]
                # the second edge is consecutive to the first; later
                # extensions must stay disjoint from it until the cycle closes
                if depth == 1 or not (mj & first_mask):
                    union, blocked = union | mj, child_blocked
                    break
                # a closing edge: the filter above admits an edge that meets
                # the first one only from depth 3 on, and only when it holds
                # every uncovered vertex.  cand spares the blocked vertices
                # inside the first edge, so a closing edge may meet the second
                # edge; such an edge cannot pass verify_sharp_cycle, so it is
                # not handed to it
                if not (mj & masks[path[1]]):
                    cert = CycleCertificate(
                        hypergraph=H, kind=KIND_SHARP, edges=tuple(edges[i] for i in path + [j])
                    )
                    report = verify_sharp_cycle(H, cert)
                    if report.ok and report.hamiltonian:
                        return SharpSearchResult("found", cert, nodes)
            else:
                j = None
                frames.pop()
                path.pop()
    return SharpSearchResult("exhausted", nodes=nodes)

"""Definition-level cycle checkers, bounds, nonexistence rules and brute-force
oracles.

Verifiers never trust a certificate's claims: every condition is re-derived
from the edge/vertex data.  Failures are verdicts, not exceptions; the first
violated condition (smallest lexicographic index tuple, checks staged as
edge validity -> duplicates -> sequence structure -> pair/window conditions)
is reported with a stable tag.

The sharp and k-intersecting verifiers are exact and take no budget.  They
read every pair and subset condition off a vertex -> edge incidence index:
edges that share a vertex are exactly the pairs (or k-sets) inside some
vertex's incidence list.  One pass over the lists (_scan) counts the
vertices of each window of k consecutive edges, finds the first window of
k+1 that shares a vertex, and takes each list's first non-window k-subset;
the verifier reports the minimum over the candidates, which keeps the
first-violation contract above.  A check costs O(k * sum of incidence
sizes), with no window intersections, and never examines O(p^2) pairs or
C(p, k) subsets.  There is one such index, core.incidence: the verifiers
and export.render_dot read it.

The brute-force oracles build no edge index.  An edge of H is fixed by its
per-class part sizes alone, so permuting the classes and the rows within
each class maps H onto itself, and both oracles search per-class counts up
to that symmetry, not edges.  A state is run-length encoded, as (type,
number of classes of that type) pairs, and one placement enumerator
(_placements) gives the moves of both: every way to put the parts of sigma
in distinct classes, once per multiset of (type, take) pairs.  The
max-matching oracle's type is a class's residual capacity and a move packs
one more copy of sigma.  The sharp oracle's type counts a class's rows that
are uncovered, in the first path edge but not the second, and in the last
but not the one before, and a move adds one edge to a sharp path that
starts at edge 0; some permutation maps edge 0 onto any edge, so a sharp
Hamiltonian cycle exists if and only if one passes through edge 0.  Both
memoise states and keep their path on an explicit stack.

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
import operator
from collections import Counter
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .certificates import (
    KIND_BERGE,
    KIND_K_INTERSECTING,
    KIND_SHARP,
    CycleCertificate,
    SharpnessProfile,
    check_k,
)
from .core import (
    Edge,
    GridVertex,
    Partition,
    Record,
    SigmaHypergraph,
    edge_count,
    incidence,
)
from .errors import BudgetExceeded

TAG_DUPLICATE_EDGE = "duplicate-edge"
TAG_NON_EDGE = "non-edge-member"
TAG_VERTEX_REPEATED = "vertex-repeated"
TAG_COVERAGE_GAP = "coverage-gap"
TAG_MEMBERSHIP = "membership-violated"
TAG_CONSECUTIVE_EMPTY = "consecutive-intersection-empty"
TAG_FORBIDDEN_NONEMPTY = "forbidden-intersection-nonempty"
TAG_DEGENERATE_LENGTH = "degenerate-length"


class VerificationReport(Record):
    """A verifier's verdict.  hamiltonian says whether the edges cover every
    vertex; a failing report measured no coverage and carries None."""

    __slots__ = ("ok", "violated_condition", "detail", "profile", "window_sizes", "hamiltonian")
    ok: bool
    violated_condition: Optional[str]
    detail: Optional[str]
    profile: Optional[SharpnessProfile]
    window_sizes: Optional[tuple[int, ...]]
    hamiltonian: Optional[bool]

    def __init__(
        self,
        ok: bool,
        violated_condition: Optional[str] = None,
        detail: Optional[str] = None,
        profile: Optional[SharpnessProfile] = None,
        window_sizes: Optional[tuple[int, ...]] = None,
        hamiltonian: Optional[bool] = None,
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
    the whole grid, at least 2 distinct valid edges, and cyclic membership
    of each consecutive vertex pair in its linking edge."""
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
    n, q = H.n, H.q
    for v in verts:
        c, row = v
        if not (0 <= c < n and 0 <= row < q):
            return VerificationReport.failure(TAG_COVERAGE_GAP, f"vertex {v} out of bounds")
    # nq distinct in-bounds vertices necessarily cover the grid
    p = len(edges)
    if p < 2:
        # the one vertex of a 1 x 1 grid: no two cycle vertices to link
        return VerificationReport.failure(TAG_DEGENERATE_LENGTH, f"{p} edge; a Berge cycle needs at least 2")
    for i in range(p):
        vs = edges[i].vertices
        if verts[i] not in vs or verts[(i + 1) % p] not in vs:
            return VerificationReport.failure(
                TAG_MEMBERSHIP, f"edge {i} does not contain both vertex {i} and vertex {(i + 1) % p}"
            )
    return VerificationReport(ok=True, hamiltonian=True)


def _is_window(ids: Sequence[int], p: int) -> bool:
    """True iff the ascending ids fill a window of consecutive edges on a
    cycle of p: at most one cyclic step between neighbours, the wrap from
    the last id back to the first included, is not 1."""
    return sum((b - a) % p != 1 for a, b in zip(ids, ids[1:] + ids[:1])) <= 1


def _scan(
    index: dict[GridVertex, list[int]], k: int, p: int
) -> tuple[list[int], Optional[int], Optional[tuple[int, ...]]]:
    """One pass over the incidence lists of p edges, whose ids ascend.
    Returns sizes, where sizes[i] counts the vertices in every edge of the
    k-window starting at i; the least i whose (k+1)-window shares a vertex,
    or None; and the smallest (lexicographic) k-subset that shares a vertex
    and is not a window, or None (each list gives its first such subset)."""
    span = k - 1
    sizes = [0] * p
    shared = subset = None
    for ids in index.values():
        m = len(ids)
        if m == k:
            # the common case: one window that does not wrap (its last id,
            # ids[span], is span past its first)
            a = ids[0]
            if ids[span] - a == span:
                sizes[a] += 1
                continue
        elif m < k:
            continue
        # otherwise a window that wraps, k ids that are no window, or a
        # longer list (never in a valid cycle).  Each window the list holds
        # is counted by the run of ids from its start; it holds at most m,
        # so its first non-window subset comes within m + 1 subsets
        held = set(ids)
        for a in ids:
            run = 1
            while run <= k and (a + run) % p in held:
                run += 1
            if run >= k:
                sizes[a] += 1
            if run > k and (shared is None or a < shared):
                shared = a
        for s in itertools.combinations(ids, k):
            if not _is_window(s, p):
                if subset is None or s < subset:
                    subset = s
                break
    return sizes, shared, subset


def _verify_sharp_edges(H: SigmaHypergraph, edges: Sequence[Edge]) -> VerificationReport:
    p = len(edges)
    if p < 4:
        return VerificationReport.failure(TAG_DEGENERATE_LENGTH, f"{p} edges; a sharp cycle needs at least 4")
    bad = _edge_validity_failure(H, edges)
    if bad is not None:
        return bad
    index = incidence(edges)
    sizes, _, pair = _scan(index, 2, p)
    last = p - 1
    candidates = [(i, i + 1, TAG_CONSECUTIVE_EMPTY) for i in range(last) if not sizes[i]]
    if not sizes[last]:
        candidates.append((0, last, TAG_CONSECUTIVE_EMPTY))
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
    profile = SharpnessProfile.from_sizes(tuple(sizes))
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

    The check is exact for every k and has no budget.  A set of edges shares
    a vertex v exactly when it lies inside v's incidence list, so one scan of
    the lists (_scan) gives every stage, in O(k * sum of incidence sizes) and
    with no window intersections.
    Raises ValueError when k is not an int >= 2 (a bool is not an int),
    before any edge is checked.
    """
    if cert.kind not in (KIND_K_INTERSECTING, KIND_SHARP):
        raise ValueError(f"expected a k-intersecting certificate, got {cert.kind!r}")
    if k is None:
        k = cert.k if cert.k is not None else 2
    check_k(k)
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
    index = incidence(edges)
    sizes, shared, subset = _scan(index, k, p)
    # staged: an empty window, a shared (k+1)-window, a non-window subset
    if 0 in sizes:
        w = tuple((sizes.index(0) + d) % p for d in range(k))
        return VerificationReport.failure(TAG_CONSECUTIVE_EMPTY, f"window {w} has empty intersection")
    if shared is not None:
        w1 = tuple((shared + d) % p for d in range(k + 1))
        return VerificationReport.failure(
            TAG_FORBIDDEN_NONEMPTY, f"window of {k + 1} consecutive edges {w1} shares a vertex"
        )
    if subset is not None:
        return VerificationReport.failure(
            TAG_FORBIDDEN_NONEMPTY, f"non-window edge subset {subset} shares a vertex"
        )
    return VerificationReport(ok=True, window_sizes=tuple(sizes), hamiltonian=len(index) == H.vertex_count)


def verify_matching(H: SigmaHypergraph, edges: Iterable[Edge]) -> bool:
    """True iff all edges are valid and pairwise vertex-disjoint."""
    es = list(edges)
    return _edge_validity_failure(H, es) is None and all(
        len(ids) == 1 for ids in incidence(es).values()
    )


# ---------------------------------------------------------------------------
# Bounds and nonexistence rules


def _load_ceiling(sigma: Partition) -> Callable[..., int]:
    """The ceiling on the copies of sigma that pack into classes of
    capacities c, each copy's parts in distinct classes: the least
    floor(sum of floor(c/a) / m) over the terms (a, m).  The gcd term
    (d, r/d): every class load is a sum of parts, so a multiple of
    d = gcd(sigma).  A slot term (a, m_a) for each part size a: a class
    holds at most floor(c/a) of the m_a parts of size a or more.  With
    exactly s classes, also max(0, 1 + floor((c_max - a_1)/a_s)): every copy
    then puts one part in every class, so the class that holds one copy's
    a_1 also holds a part of at least a_s from each other copy.  The
    returned function takes the capacities run-length encoded, as
    (capacity, classes) pairs, capacities in descending order.
    """
    parts, r, d, s = sigma.parts, sigma.r, sigma.gcd_parts, sigma.s
    # parts are non-increasing, so the parts >= a end at the last a.  A slot
    # term with a = d is never below the gcd term (m_d <= s <= r/d), so a
    # rectangular sigma has the gcd term alone
    slots = {a: i + 1 for i, a in enumerate(parts) if a != d}.items()
    units = r // d

    def ceiling(groups: Sequence[tuple[int, int]]) -> int:
        best = sum([c // d * k for c, k in groups]) // units
        for a, m in slots:
            best = min(best, sum([c // a * k for c, k in groups]) // m)
        if sum([k for _, k in groups]) == s:
            best = min(best, max(0, 1 + (groups[0][0] - parts[0]) // parts[-1]))
        return best

    return ceiling


def matching_upper_bound(H: SigmaHypergraph) -> int:
    """An upper bound on the maximum matching size of H: the class-load
    ceiling (see _load_ceiling) of n classes of capacity q, with which
    brute_force_max_matching prunes its root.  O(s) time."""
    return _load_ceiling(H.sigma)(((H.q, H.n),))


def sharp_cycle_bounds(H: SigmaHypergraph) -> tuple[int, int]:
    """The edge-count window [lo, hi] of any sharp Hamiltonian cycle, empty
    when lo > hi.  lo = max(4, ceil(nq/(r-1))): a sharp cycle has at least
    4 edges, and consecutive edges share a vertex, so nq <= m(r-1).
    hi = floor(2nq/r): each vertex lies in at most 2 edges.  Raises
    ValueError when r < 2, where consecutive edges cannot share a vertex
    without being equal."""
    if H.r < 2:
        raise ValueError(f"sharp cycle bounds need r >= 2, got r={H.r}")
    nq = H.vertex_count
    return max(4, -(-nq // (H.r - 1))), 2 * nq // H.r


def no_cycle_reason(H: SigmaHypergraph, kind: str) -> Optional[str]:
    """The reason no cycle of kind exists in H, or None when no rule here
    proves it.  Every rule is a proof, tried in this order:
    - r < 2: an edge of one vertex links no two cycle vertices;
    - one part and n >= 2: every edge lies in one class, so H is
      disconnected;
    - Berge: fewer than nq edges, where a cycle through all nq vertices
      has nq distinct edges;
    - sharp: the window [lo, hi] of sharp_cycle_bounds is empty, or
      floor(lo/2) > matching_upper_bound(H), since the alternate edges
      e_1, e_3, ... of a cycle of m edges form a matching of floor(m/2)."""
    if H.r < 2:
        return "an edge of one vertex links no two cycle vertices"
    if H.sigma.s == 1 and H.n >= 2:
        return "every edge lies in one class, so H is disconnected"
    if kind == KIND_BERGE and edge_count(H) < H.vertex_count:
        return f"too few edges for a cycle through all {H.vertex_count} vertices"
    if kind == KIND_SHARP:
        lo, hi = sharp_cycle_bounds(H)
        nu = matching_upper_bound(H)
        if lo > hi or lo // 2 > nu:
            return f"edge-count window [{lo}, {hi}] and max matching <= {nu} leave no sharp cycle"
    return None


# ---------------------------------------------------------------------------
# Brute-force oracles


def _placements(groups: Sequence[tuple], parts: Iterable[tuple], takes: Callable) -> Iterator[tuple]:
    """Yield every way to place the parts of sigma in distinct classes, up
    to swapping classes of one type: one (type, take) pair per part.
    groups is a run-length state, (type, number of classes of that type)
    pairs; parts holds (part size, number of parts of that size) pairs,
    sizes in descending order; takes(type, a) lists what a part of size a
    may take from a class of that type.  Equal parts take their options in
    non-decreasing order, so each multiset of (type, take) pairs comes
    once, in lexicographic order of the option indices, and no group gets
    more parts than it has classes.  No recursion over the parts."""
    pools = []
    for a, k in parts:
        options = [(kind, t) for kind, _ in groups for t in takes(kind, a)]
        pools.append(itertools.combinations_with_replacement(options, k))
    classes = dict(groups)
    for combo in itertools.product(*pools):
        placement = combo[0] if len(combo) == 1 else sum(combo, ())
        used = [kind for kind, _ in placement]
        if len(set(used)) == len(used) or all(classes[kind] >= used.count(kind) for kind in used):
            yield placement


def _child(groups: Sequence[tuple], placement: tuple, step: Callable, none: Any) -> tuple:
    """The run-length state, types in descending order, that placement
    leaves: a class of type t that takes a part's take becomes
    step(t, take), and one that takes no part step(t, none).  none is also
    the type of a class that can take nothing, and such classes are
    dropped."""
    counts: dict[Any, int] = {}
    idle = dict(groups)
    for kind, take in placement:
        idle[kind] -= 1
        after = step(kind, take)
        counts[after] = counts.get(after, 0) + 1
    for kind, k in idle.items():
        if k:
            after = step(kind, none)
            counts[after] = counts.get(after, 0) + k
    counts.pop(none, None)
    return tuple(sorted(counts.items(), reverse=True))


def _fits(c: int, a: int) -> tuple[int, ...]:
    """A part of size a takes a rows from a class with room for them."""
    return (a,) if c >= a else ()


class MaxMatchingResult(Record):
    __slots__ = ("nu", "exact", "nodes")
    nu: int
    exact: bool
    nodes: int

    def __init__(self, nu: int, exact: bool, nodes: int) -> None:
        self._set(nu, exact, nodes)


def brute_force_max_matching(H: SigmaHypergraph, budget: int = 2_000_000) -> MaxMatchingResult:
    """Exact maximum matching size by a memoised search over class loads.

    An edge is fixed by its per-class part sizes alone, and rows within a
    class are interchangeable, so nu(H) is the largest number of copies of
    sigma that pack into n classes of capacity q with each copy's parts in
    distinct classes.  A state is the run-length tuple of non-zero residual
    class capacities, (capacity, classes) pairs in descending order; its
    children are the states one more copy can leave (_placements with one
    type per class, its capacity), made one at a time, and
    f(state) = max(0, 1 + max over children of f(child)), memoised.  A
    state stops branching once it reaches the ceiling of its capacities
    (see _load_ceiling); at the root that is matching_upper_bound(H).  The
    search is depth first over an explicit stack, so its depth (nu) is not
    bounded by the recursion limit, and the first descent is a greedy
    packing.  nodes counts the states expanded: the memo misses with room
    for r more vertices (a state with fewer is worth 0).  When nodes
    exceeds the budget the largest packing found so far is returned
    flagged inexact.  Builds no edge index, so any H is
    answered, whatever its edge count: the budget alone bounds time and
    memory, as the memo and the path hold one entry per state expanded.
    Never raises BudgetExceeded; raises ValueError when budget < 0.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    parts, r = Counter(H.sigma.parts).items(), H.r
    ceiling_of = _load_ceiling(H.sigma)
    memo: dict[tuple, int] = {}
    best = nodes = 0
    # the current path, one frame per state: [state, placements left,
    # value so far, ceiling]; the frame at depth d has d copies placed, and
    # ceiling None marks a frame not yet expanded.  A frame makes its first
    # child with an enumerator it does not keep, and keeps one for the rest
    # only if it resumes below its ceiling, so a greedy descent holds none.
    # A child is made when its turn comes, and one that an earlier
    # placement already made is a memo hit
    path: list[list] = [[((H.q, H.n),), None, 0, None]]
    while path:
        frame = path[-1]
        state, moves, value, ceiling = frame
        depth = len(path) - 1
        if ceiling is None:
            best = max(best, depth)
            nodes += 1
            if nodes > budget:
                return MaxMatchingResult(best, False, nodes)
            frame[3] = ceiling = ceiling_of(state)
            moves = _placements(state, parts, _fits)
        elif moves is None and value < ceiling:
            frame[1] = moves = itertools.islice(_placements(state, parts, _fits), 1, None)
        placement = next(moves, None) if value < ceiling else None
        if placement is not None:
            child = _child(state, placement, operator.sub, 0)
            # fewer than r vertices left: no copy fits, so no expansion
            got = memo.get(child) if sum([c * k for c, k in child]) >= r else 0
            if got is None:
                path.append([child, None, 0, None])
            else:
                frame[2] = max(value, 1 + got)
                best = max(best, depth + frame[2])
            continue
        path.pop()
        memo[state] = value
        if path:
            path[-1][2] = max(path[-1][2], 1 + value)
    return MaxMatchingResult(best, True, nodes)


class SharpSearchResult(Record):
    __slots__ = ("status", "certificate", "nodes")
    status: str  # "found" | "exhausted"
    certificate: Optional[CycleCertificate]
    nodes: int

    def __init__(self, status: str, certificate: Optional[CycleCertificate] = None, nodes: int = 0) -> None:
        self._set(status, certificate, nodes)


# The sharp search.  A vertex of a sharp path e_1..e_m is uncovered (U), in
# e_1 but not e_2 (F), in e_m but not e_(m-1) (L), or blocked.  A class's
# type is its (U, F, L) row counts, the rest of its rows being blocked, and
# a take is the (U, F, L) rows that one part of an edge takes from a class.


def _extend_takes(kind: tuple[int, int, int], a: int) -> list[tuple[int, int, int]]:
    # a non-closing edge takes U and L rows only
    u, _, l = kind
    return [(a - x, 0, x) for x in range(max(0, a - u), min(a, l) + 1)]


def _close_takes(kind: tuple[int, int, int], a: int) -> list[tuple[int, int, int]]:
    # a closing edge takes every U row of each class it meets, and F and L
    # rows besides
    u, f, l = kind
    return [(u, a - u - x, x) for x in range(max(0, a - u - f), min(a - u, l) + 1)]


def _step(second: bool, kind: tuple[int, int, int], take: tuple[int, int, int]) -> tuple[int, int, int]:
    # a class after a non-closing edge takes take from it: the U rows taken
    # become L, and the old L rows are blocked, except that those the second
    # edge leaves become F
    (u, f, l), (xu, _, xl) = kind, take
    return (u - xu, f + l - xl, xu) if second else (u - xu, f, xu)


def _sharp_cycle(H: SigmaHypergraph, moves: Sequence[tuple]) -> tuple[Edge, ...]:
    """The edges that moves, each a (type, take) pair per part, make from
    the empty path: each part goes to the first class of its type and takes
    that class's first rows of each type, lowest U rows first.  Rows of one
    type are interchangeable, so any such rule gives a cycle of the shape
    the search found.  Each edge scans the n classes, which the budget
    bounds: n x len(moves) <= n x min(max_len, hi) (see
    brute_force_sharp_hamiltonian_exists)."""
    rows = [([*range(H.q)], [], []) for _ in range(H.n)]  # each class's U, F and L rows
    edges = []
    for i, move in enumerate(moves):
        vertices, new_l = [], {}
        for kind, (xu, xf, xl) in move:
            c = next(c for c in range(H.n) if c not in new_l and tuple(map(len, rows[c])) == kind)
            u, f, l = rows[c]
            new_l[c] = u[:xu]
            vertices += [(c, y) for y in u[:xu] + f[:xf] + l[:xl]]
            del u[:xu], f[:xf], l[:xl]
        edges.append(Edge(tuple(sorted(vertices))))
        for c, (u, f, l) in enumerate(rows):
            if i == 1:
                f += l
            l[:] = new_l.get(c, ())
    return tuple(edges)


def brute_force_sharp_hamiltonian_exists(
    H: SigmaHypergraph, max_len: int, budget: int = 2_000_000
) -> SharpSearchResult:
    """Exhaustive search for a sharp Hamiltonian cycle of up to max_len edges.

    An edge of H is fixed only by its per-class intersection sizes, so the
    group S_q wr S_n, which permutes the classes and the rows within each
    class, acts on H by automorphisms and is transitive on the edges.  A
    sharp Hamiltonian cycle of up to max_len edges therefore exists if and
    only if one passes through edge 0, and the search grows sharp paths
    e_1..e_m from e_1 = edge 0.  Which completions a path has depends only
    on the edges left and on its vertex sets U (uncovered), F (in e_1 but
    not e_2) and L (in e_m but not e_(m-1)), and the group acts on those
    too.  So a state is the run-length tuple of class types, ((U, F, L) row
    counts, classes) pairs, and the search makes one move per multiset of
    (type, take) pairs (_placements):
    - a non-closing edge takes U and L rows only, at least one of each.
      Its U rows become L and every old L row is blocked, except that the
      L rows the second edge leaves become F;
    - a closing edge, from m = 3 on, takes every U row, at least one F and
      one L row, and nothing else.
    Closing moves come first, then the others, fewest U rows first.  A state
    that fails with k edges left is dead with at most k edges left; the
    memo key is (m >= 3, state), since an edge closes only from m = 3.  The
    coverage bound (edges left x (r-1) >= uncovered vertices) prunes paths.
    A found cycle is made of concrete rows by rule (_sharp_cycle) and
    re-checked by verify_sharp_cycle before it is returned.  The path is
    kept on an explicit stack, so max_len is not bounded by the recursion
    limit.  The result carries the number of search nodes: the empty path
    and every path entered.  Builds no edge index.

    The root answers "exhausted" after 2 nodes, with no search, when
    no_cycle_reason(H, KIND_SHARP) gives a reason, or when max_len is below
    the edge-count window [lo, hi] of sharp_cycle_bounds.  Otherwise the
    search runs up to min(max_len, hi) edges, so with max_len >= hi
    "exhausted" proves that no sharp Hamiltonian cycle exists.  It raises
    BudgetExceeded up front when n x min(max_len, hi) exceeds the budget
    (each of up to that many path frames holds a state of up to n class
    types), and when the node budget runs out.  Raises ValueError when max_len or budget is negative.
    """
    if max_len < 0 or budget < 0:
        raise ValueError(f"max_len and budget must be >= 0, got {max_len} and {budget}")
    # the root, edge 0, is the second node; where no cycle of up to max_len
    # edges can exist no search is needed
    if budget < 2:
        raise BudgetExceeded(f"search budget {budget} exhausted")
    if no_cycle_reason(H, KIND_SHARP) is not None:
        return SharpSearchResult("exhausted", nodes=2)
    lo, hi = sharp_cycle_bounds(H)
    if max_len < lo:
        return SharpSearchResult("exhausted", nodes=2)
    n, q, r, parts = H.n, H.q, H.r, Counter(H.sigma.parts).items()
    max_len = min(max_len, hi)
    if n * max_len > budget:
        raise BudgetExceeded(f"{n} classes x {max_len} path edges exceeds budget {budget}")
    memo: dict[tuple, int] = {}
    # one frame per path, from the empty one: (state, uncovered rows, moves
    # left (next last), the move that made it)
    frames = [((((q, 0, 0), n),), n * q, [(r, tuple(((q, 0, 0), (a, 0, 0)) for a in H.sigma.parts))], ())]
    nodes = 1  # the empty path, whose one move makes edge 0
    while frames:
        state, uncovered, left, _ = frames[-1]
        m = len(frames) - 1
        if not left:
            memo[m >= 3, state] = max_len - m
            frames.pop()
            continue
        xu, move = left.pop()
        child = _child(state, move, partial(_step, m == 1), (0, 0, 0))
        if memo.get((m >= 2, child), -1) >= max_len - m - 1:
            continue
        # enter the path extended by the move
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"search budget {budget} exhausted")
        state, uncovered, left, m = child, uncovered - xu, [], m + 1
        if uncovered <= (max_len - m) * (r - 1):
            if 3 <= m < max_len and uncovered <= r - 2:
                for p in _placements(state, parts, _close_takes):
                    xu, xf, xl = map(sum, zip(*[take for _, take in p]))
                    if xu == uncovered and xf and xl:
                        path = [frame[3] for frame in frames[1:]] + [move, p]
                        cert = CycleCertificate(hypergraph=H, kind=KIND_SHARP, edges=_sharp_cycle(H, path))
                        report = verify_sharp_cycle(H, cert)
                        if report.ok and report.hamiltonian:
                            return SharpSearchResult("found", cert, nodes)
                        raise AssertionError(f"the sharp search made a bad cycle: {report.detail}")
            if m + 1 < max_len:
                for p in _placements(state, parts, _extend_takes):
                    xu, _, xl = map(sum, zip(*[take for _, take in p]))
                    if xu and xl:
                        left.append((xu, p))
                # popped from the end, so the fewest U rows come first
                left.sort(key=operator.itemgetter(0), reverse=True)
        frames.append((state, uncovered, left, move))
    return SharpSearchResult("exhausted", nodes=nodes)

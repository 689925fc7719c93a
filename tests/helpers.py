"""Shared helpers for the test suite: small independent oracles."""

from __future__ import annotations

import itertools
import json
from functools import cmp_to_key
from typing import Any, Iterable, Iterator, Optional, Sequence

from sigmacycles import CycleCertificate, Edge, SharpnessProfile, SigmaHypergraph, is_edge
from sigmacycles.certfile import SCHEMA_VERSION
from sigmacycles.certificates import KIND_BERGE, KIND_K_INTERSECTING, KIND_SHARP, KINDS, Matching
from sigmacycles.construct import _blocks, _check_block, _part_vertices, frobenius_decompose
from sigmacycles.core import (
    GridVertex,
    Partition,
    edge_count,
    enumerate_edges,
    incidence,
)
from sigmacycles.errors import (
    BudgetExceeded,
    CertificateParseError,
    ConstructionUnsupported,
    DegenerateIntersection,
    KOutOfRange,
    NoEdgesError,
    NTooSmall,
)
from sigmacycles.export import _check_size
from sigmacycles.verify import (
    TAG_CONSECUTIVE_EMPTY,
    TAG_DEGENERATE_LENGTH,
    TAG_DUPLICATE_EDGE,
    TAG_FORBIDDEN_NONEMPTY,
    TAG_NON_EDGE,
    MaxMatchingResult,
    SharpSearchResult,
    VerificationReport,
    verify_k_intersecting,
    verify_sharp_cycle,
)


def partitions_of(r: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """All partitions of r into non-increasing positive parts."""
    if r == 0:
        yield ()
        return
    cap = r if max_part is None else min(r, max_part)
    for first in range(cap, 0, -1):
        for rest in partitions_of(r - first, first):
            yield (first,) + rest


def exhaustive_edge_count(H: SigmaHypergraph) -> int:
    """Count edges by testing every r-subset of the vertex grid."""
    verts = list(H.vertices())
    return sum(1 for combo in itertools.combinations(verts, H.r) if is_edge(H, combo))


def exhaustive_edges(H: SigmaHypergraph) -> list[frozenset]:
    verts = list(H.vertices())
    return [
        frozenset(combo)
        for combo in itertools.combinations(verts, H.r)
        if is_edge(H, combo)
    ]


# ---------------------------------------------------------------------------
# Reference edge-validity stage: is_edge on every edge in order, then a dict
# of the edges seen.  sigmacycles.verify applies is_edge's rule inline and
# must return the same report or raise the same exception.


def reference_edge_validity_failure(
    H: SigmaHypergraph, edges: Sequence[Edge]
) -> Optional[VerificationReport]:
    for i, e in enumerate(edges):
        try:
            valid = is_edge(H, e.vertices)
        except ValueError:
            valid = False
        if not valid:
            return VerificationReport.failure(TAG_NON_EDGE, f"edge {i} is not an edge of {H}")
    seen: dict[tuple, int] = {}
    for i, e in enumerate(edges):
        if e.vertices in seen:
            return VerificationReport.failure(
                TAG_DUPLICATE_EDGE, f"edge {i} duplicates edge {seen[e.vertices]}"
            )
        seen[e.vertices] = i
    return None


# ---------------------------------------------------------------------------
# Reference verifiers: the pairwise sharp check and the C(p, k) subset sweep,
# quadratic and exponential in p.  The incidence-index verifiers in
# sigmacycles.verify must return identical reports.


def reference_verify_sharp_edges(H: SigmaHypergraph, edges: Sequence[Edge]) -> VerificationReport:
    p = len(edges)
    if p < 4:
        return VerificationReport.failure(TAG_DEGENERATE_LENGTH, f"{p} edges; a sharp cycle needs at least 4")
    bad = reference_edge_validity_failure(H, edges)
    if bad is not None:
        return bad
    sets = [e.vertex_set() for e in edges]
    for i in range(p):
        for j in range(i + 1, p):
            consecutive = (j == i + 1) or (i == 0 and j == p - 1)
            inter = sets[i] & sets[j]
            if consecutive and not inter:
                return VerificationReport.failure(
                    TAG_CONSECUTIVE_EMPTY, f"consecutive edges {i} and {j} are disjoint"
                )
            if not consecutive and inter:
                return VerificationReport.failure(
                    TAG_FORBIDDEN_NONEMPTY,
                    f"non-consecutive edges {i} and {j} share {len(inter)} vertex(es)",
                )
    pair_sizes = tuple(len(sets[i] & sets[(i + 1) % p]) for i in range(p))
    profile = SharpnessProfile.from_sizes(pair_sizes)
    hamiltonian = len(frozenset().union(*sets)) == H.vertex_count
    return VerificationReport(ok=True, profile=profile, hamiltonian=hamiltonian)


def reference_verify_k_intersecting(
    H: SigmaHypergraph, cert: CycleCertificate, k: Optional[int] = None
) -> VerificationReport:
    if k is None:
        k = cert.k if cert.k is not None else 2
    if k == 2:
        return reference_verify_sharp_edges(H, cert.edges)
    edges = cert.edges
    p = len(edges)
    if p < k + 2:
        return VerificationReport.failure(
            TAG_DEGENERATE_LENGTH, f"{p} edges; a {k}-intersecting cycle needs at least {k + 2}"
        )
    bad = reference_edge_validity_failure(H, edges)
    if bad is not None:
        return bad
    sets = [e.vertex_set() for e in edges]

    def common(idxs: Iterable[int]) -> frozenset[GridVertex]:
        it = iter(idxs)
        acc = sets[next(it)]
        for i in it:
            acc = acc & sets[i]
            if not acc:
                break
        return acc

    windows = [tuple((i + d) % p for d in range(k)) for i in range(p)]
    window_sets = {frozenset(w) for w in windows}
    window_sizes = []
    for w in windows:
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
    for subset in itertools.combinations(range(p), k):
        if frozenset(subset) in window_sets:
            continue
        if common(subset):
            return VerificationReport.failure(
                TAG_FORBIDDEN_NONEMPTY, f"non-window edge subset {subset} shares a vertex"
            )
    hamiltonian = len(frozenset().union(*sets)) == H.vertex_count
    return VerificationReport(ok=True, window_sizes=tuple(window_sizes), hamiltonian=hamiltonian)


# ---------------------------------------------------------------------------
# Reference certificate codec: the generic json.dumps(indent=2) writer and the
# per-vertex validation loop.  sigmacycles.certfile must write the same bytes
# and, apart from its strict scalar types (booleans are not integers, claims
# and vertex_sequence are typed), accept and reject the same documents with
# the same messages.


def reference_to_json_dict(cert: CycleCertificate) -> dict[str, Any]:
    H = cert.hypergraph
    cycle: dict[str, Any] = {"kind": cert.kind}
    if cert.k is not None:
        cycle["k"] = cert.k
    if cert.split_index is not None:
        cycle["split_index"] = cert.split_index
    cycle["edges"] = [[[c, row] for c, row in e.vertices] for e in cert.edges]
    if cert.vertex_sequence is not None:
        cycle["vertex_sequence"] = [[c, row] for c, row in cert.vertex_sequence]
    claims: dict[str, Any] = {"hamiltonian": cert.claimed_hamiltonian}
    if cert.claimed_t is not None:
        claims["t"] = cert.claimed_t
    if cert.claimed_z is not None:
        claims["z"] = cert.claimed_z
    return {
        "schema_version": SCHEMA_VERSION,
        "hypergraph": {"n": H.n, "q": H.q, "sigma": list(H.sigma.parts)},
        "cycle": cycle,
        "claims": claims,
    }


def reference_dumps(cert: CycleCertificate) -> str:
    return json.dumps(reference_to_json_dict(cert), indent=2) + "\n"


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CertificateParseError(message)


def _vertex_pair(item: Any, where: str) -> tuple[int, int]:
    _expect(
        isinstance(item, list) and len(item) == 2 and all(isinstance(x, int) for x in item),
        f"{where}: vertex must be a [class_index, row_index] integer pair",
    )
    return (item[0], item[1])


def reference_from_json_dict(doc: Any) -> CycleCertificate:
    _expect(isinstance(doc, dict), "certificate must be a JSON object")
    _expect(doc.get("schema_version") == SCHEMA_VERSION, "unknown or missing schema_version")
    hg = doc.get("hypergraph")
    _expect(isinstance(hg, dict), "missing hypergraph object")
    _expect(isinstance(hg.get("n"), int) and isinstance(hg.get("q"), int), "n and q must be integers")
    sigma_raw = hg.get("sigma")
    _expect(
        isinstance(sigma_raw, list)
        and sigma_raw
        and all(isinstance(a, int) and a >= 1 for a in sigma_raw),
        "sigma must be a nonempty array of positive integers",
    )
    _expect(
        all(sigma_raw[i] >= sigma_raw[i + 1] for i in range(len(sigma_raw) - 1)),
        "sigma parts not sorted non-increasing",
    )
    try:
        H = SigmaHypergraph(hg["n"], hg["q"], Partition(tuple(sigma_raw)))
    except (NoEdgesError, ValueError) as exc:
        raise CertificateParseError(f"invalid hypergraph parameters: {exc}") from exc

    cycle = doc.get("cycle")
    _expect(isinstance(cycle, dict), "missing cycle object")
    kind = cycle.get("kind")
    _expect(kind in KINDS, f"unknown cycle kind {kind!r}")
    k = cycle.get("k")
    _expect(
        k is None or (isinstance(k, int) and not isinstance(k, bool) and k >= 2),
        "k must be an integer >= 2",
    )
    split = cycle.get("split_index")
    _expect(split is None or isinstance(split, int), "split_index must be an integer")

    edges_raw = cycle.get("edges")
    _expect(isinstance(edges_raw, list) and edges_raw, "cycle.edges must be a nonempty array")
    edges = []
    for idx, e_raw in enumerate(edges_raw):
        _expect(isinstance(e_raw, list), f"edge {idx} must be an array of vertices")
        vs = [_vertex_pair(item, f"edge {idx}") for item in e_raw]
        _expect(
            len(vs) == H.r, f"edge {idx} has {len(vs)} vertices, expected r={H.r}"
        )
        _expect(len(set(vs)) == len(vs), f"edge {idx} has a duplicate vertex")
        for v in vs:
            _expect(H.in_bounds(v), f"edge {idx}: vertex {list(v)} out of range for {H}")
        edges.append(Edge.of(vs))

    vseq_raw = cycle.get("vertex_sequence")
    vseq = None
    if kind == KIND_BERGE:
        _expect(isinstance(vseq_raw, list), "berge certificate requires cycle.vertex_sequence")
    if vseq_raw is not None:
        vs = [_vertex_pair(item, "vertex_sequence") for item in vseq_raw]
        for v in vs:
            _expect(H.in_bounds(v), f"vertex_sequence: vertex {list(v)} out of range for {H}")
        vseq = tuple(vs)

    claims = doc.get("claims") or {}
    _expect(isinstance(claims, dict), "claims must be an object")
    return CycleCertificate(
        hypergraph=H,
        kind=kind,
        edges=tuple(edges),
        k=k,
        split_index=split,
        vertex_sequence=vseq,
        claimed_hamiltonian=bool(claims.get("hamiltonian", False)),
        claimed_t=claims.get("t"),
        claimed_z=claims.get("z"),
    )


# ---------------------------------------------------------------------------
# Reference oracles: the numpy branch and bound, the DFS that scans every edge
# at each node, the edge enumeration that re-sorts the row choices at every
# node, and the oracles' bitset index built one (edge, vertex) pair at a time.
# The bitset oracles in sigmacycles.verify must walk the same search trees:
# same answers, node counts, certificates and BudgetExceeded messages.  The
# DFS reference also returns its node count.


def _row_choice_cmp(r1: tuple[int, ...], r2: tuple[int, ...]) -> int:
    # Lexicographic on the induced vertex sequence: a choice that is a strict
    # prefix of another continues with a later class, so the longer one sorts
    # first; the empty choice (skip this class) sorts last.
    for a, b in zip(r1, r2):
        if a != b:
            return -1 if a < b else 1
    if len(r1) == len(r2):
        return 0
    return 1 if len(r1) < len(r2) else -1


def reference_enumerate_edges(H: SigmaHypergraph) -> Iterator[Edge]:
    """Yield every edge exactly once, in lexicographic order of the
    canonical vertex sequences.  Restartable; nothing is materialized."""

    sigma_parts = H.sigma.parts
    n, q = H.n, H.q

    def rec(c: int, remaining: tuple[int, ...], acc: list[GridVertex]) -> Iterator[Edge]:
        if not remaining:
            yield Edge(tuple(acc))
            return
        if n - c < len(remaining):
            return
        choices: list[tuple[int, ...]] = [()]
        for a in set(remaining):
            choices.extend(itertools.combinations(range(q), a))
        choices.sort(key=cmp_to_key(_row_choice_cmp))
        for rows in choices:
            if rows:
                rest = list(remaining)
                rest.remove(len(rows))
                yield from rec(c + 1, tuple(rest), acc + [(c, rr) for rr in rows])
            else:
                yield from rec(c + 1, remaining, acc)

    return rec(0, sigma_parts, [])


def _bitset(ids: Iterable[int], size: int) -> int:
    """The int with exactly the bits ids set, each below size."""
    buf = bytearray((size + 7) // 8)
    for i in ids:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def reference_edge_bitsets(H: SigmaHypergraph) -> tuple[list[Edge], list[int], list[int]]:
    """The incidence index of all edges of H as int bitsets, built with a
    bytearray per edge and per vertex over core.incidence.  Enumerates with
    reference_enumerate_edges, so the edge list is checked too.

    Returns the edges in enumeration order, each edge's vertex bitmask, and
    for each vertex the bitmask of the edges through it.  Vertex bit i is the
    i-th vertex of H.vertices() (grid order); edge bit j is edges[j].
    """
    edges = list(reference_enumerate_edges(H))
    vertices = list(H.vertices())
    vindex = {v: i for i, v in enumerate(vertices)}
    masks = [_bitset((vindex[v] for v in e.vertices), len(vertices)) for e in edges]
    index = incidence(edges)
    inc = [_bitset(index.get(v, ()), len(edges)) for v in vertices]
    return edges, masks, inc


def reference_brute_force_max_matching(H: SigmaHypergraph, budget: int = 2_000_000) -> MaxMatchingResult:
    """Exact maximum matching size by branch and bound.

    Branches on the lexicographically-first vertex still reachable by a
    candidate edge: either some candidate edge through it is taken, or the
    vertex is left unmatched and all edges through it are discarded.  Pruned
    by size + floor(reachable_vertices / r) <= best.  When the node budget
    runs out the best matching found so far is returned flagged inexact.
    """
    # Imported here, not at module level: no other code path needs numpy,
    # and importing it would double the CLI's start-up time.
    import numpy as np

    m = edge_count(H)
    if m > budget:
        raise BudgetExceeded(f"{m} edges exceeds budget {budget}")
    edges = list(enumerate_edges(H))
    if not edges:
        return MaxMatchingResult(0, True, 0)
    nq = H.vertex_count
    vindex = {v: i for i, v in enumerate(sorted(H.vertices()))}
    incidence = np.zeros((nq, len(edges)), dtype=bool)
    for j, e in enumerate(edges):
        for v in e.vertices:
            incidence[vindex[v], j] = True
    r = H.r
    best = 0
    nodes = 0
    exact = True
    conflict_cache: dict[int, np.ndarray] = {}

    def conflict(j: int) -> np.ndarray:
        vec = conflict_cache.get(j)
        if vec is None:
            vec = incidence[incidence[:, j]].any(axis=0)
            conflict_cache[j] = vec
        return vec

    def rec(cand: np.ndarray, size: int) -> None:
        nonlocal best, nodes, exact
        nodes += 1
        if nodes > budget:
            exact = False
            return
        reachable = incidence[:, cand].any(axis=1) if cand.any() else None
        if reachable is None:
            best = max(best, size)
            return
        best = max(best, size + 1)
        if size + int(reachable.sum()) // r <= best:
            return
        v = int(np.argmax(reachable))
        for j in np.nonzero(cand & incidence[v])[0]:
            if not exact:
                return
            rec(cand & ~conflict(int(j)), size + 1)
        if exact:
            rec(cand & ~incidence[v], size)

    rec(np.ones(len(edges), dtype=bool), 0)
    return MaxMatchingResult(best, exact, nodes)


def reference_brute_force_sharp_hamiltonian_exists(
    H: SigmaHypergraph, max_len: int, budget: int = 2_000_000
) -> SharpSearchResult:
    """Exhaustive search for a sharp Hamiltonian cycle of up to max_len edges.

    Depth-first over edge sequences whose first edge is the lexicographically
    smallest of the cycle; prefixes must be sharp paths and the coverage bound
    (remaining edges x (r-1) >= uncovered vertices) prunes dead branches.
    Any cycle found is re-checked by verify_sharp_cycle before it is returned.
    Raises BudgetExceeded when the node budget runs out.
    """
    m = edge_count(H)
    if m > budget:
        raise BudgetExceeded(f"{m} edges exceeds budget {budget}")
    edges = list(enumerate_edges(H))
    nq = H.vertex_count
    r = H.r
    vindex = {v: i for i, v in enumerate(sorted(H.vertices()))}
    masks = []
    for e in edges:
        mask = 0
        for v in e.vertices:
            mask |= 1 << vindex[v]
        masks.append(mask)
    target = (1 << nq) - 1
    nodes = 0

    def check(node_cost: int = 1) -> None:
        nonlocal nodes
        nodes += node_cost
        if nodes > budget:
            raise BudgetExceeded(f"search budget {budget} exhausted")

    def dfs(path: list[int], union: int, blocked: int) -> Optional[list[int]]:
        # blocked: vertices in path edges other than the last; a new edge
        # must avoid them, intersect the last edge, and (unless it closes
        # the cycle) avoid the first edge as well.
        check()
        depth = len(path)
        if depth >= max_len:
            return None
        uncovered = nq - bin(union).count("1")
        if uncovered > (max_len - depth) * (r - 1):
            return None
        first = path[0]
        last_mask = masks[path[-1]]
        inner_blocked = blocked & ~masks[first] if depth >= 2 else 0
        for j in range(first + 1, len(edges)):
            if j in path:
                continue
            mj = masks[j]
            if not (mj & last_mask):
                continue
            if depth >= 2 and (mj & inner_blocked):
                continue
            closes = depth + 1 >= 4 and (mj & masks[first]) and (mj | union) == target
            # inner_blocked spares the vertices the second edge shares with
            # the first; a closing edge that meets the second edge cannot
            # pass verify_sharp_cycle, so it is not handed to it
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
            if depth == 1 or not (mj & masks[first]):
                found = dfs(path + [j], union | mj, blocked | last_mask)
                if found is not None:
                    return found
        return None

    for start in range(len(edges)):
        check()
        found = dfs([start], masks[start], 0)
        if found is not None:
            cert = CycleCertificate(
                hypergraph=H, kind=KIND_SHARP, edges=tuple(edges[i] for i in found)
            )
            return SharpSearchResult("found", cert, nodes)
    return SharpSearchResult("exhausted", nodes=nodes)


# ---------------------------------------------------------------------------
# Reference constructors: the sharp and k-intersecting recipes written out
# separately, each with its own (r+1)-block row swap, next-block tail and
# degeneracy rule.  The single block-chain recipe in sigmacycles.construct
# must give byte-identical certificates and the same exceptions.


def reference_diagonal_matching(H: SigmaHypergraph, block_start_row: int, block_height: int) -> Matching:
    _check_block(H, block_start_row, block_height)
    s = H.sigma.s
    if H.n < s:
        raise NTooSmall(f"n={H.n} < s={s}")
    edges = []
    for j in range(H.n):
        vs: list[GridVertex] = []
        for i in range(s):
            vs += _part_vertices(H, block_start_row, j, i)
        edges.append(Edge.of(vs))
    return Matching(tuple(edges))


def reference_shifted_edge(
    H: SigmaHypergraph,
    block_start_row: int,
    block_height: int,
    j: int,
    p: int,
    tail_block_start: Optional[int] = None,
    tail_j: Optional[int] = None,
) -> Edge:
    s = H.sigma.s
    vs: list[GridVertex] = []
    for i in range(s):
        if i < p:
            pv = _part_vertices(H, block_start_row, j, i)
            if i == 0 and block_height == H.r + 1:
                cls = pv[-1][0]
                pv = pv[:-1] + [(cls, block_start_row + H.r)]
        else:
            if tail_block_start is not None:
                pv = _part_vertices(H, tail_block_start, tail_j or 0, i)
            else:
                pv = _part_vertices(H, block_start_row, (j + 1) % H.n, i)
        vs += pv
    return Edge.of(vs)


def reference_shifted_matching(
    H: SigmaHypergraph, block_start_row: int, block_height: int, p: int
) -> Matching:
    _check_block(H, block_start_row, block_height)
    s = H.sigma.s
    if not 1 <= p < s:
        raise ValueError(f"split index must satisfy 1 <= p < s={s}")
    if H.n <= s:
        raise NTooSmall(f"n={H.n} <= s={s}: shifted edges would collide")
    edges = tuple(
        reference_shifted_edge(H, block_start_row, block_height, j, p) for j in range(H.n)
    )
    return Matching(edges)


def reference_resolve_split(H: SigmaHypergraph, p: int, y: int) -> int:
    parts = H.sigma.parts
    s = len(parts)
    if not 1 <= p < s:
        raise ValueError(f"split index must satisfy 1 <= p < s={s}")
    if y == 0 or sum(parts[:p]) >= 2:
        return p
    for cand in range(1, s):
        if sum(parts[:cand]) >= 2:
            return cand
    raise DegenerateIntersection(
        f"sigma=({H.sigma}) with an (r+1)-block: every split gives a zero intersection"
    )


def reference_construct_sharp_hamiltonian(H: SigmaHypergraph, p: int = 1) -> CycleCertificate:
    s = H.sigma.s
    if s < 2:
        raise ConstructionUnsupported("sharp construction needs at least two parts")
    if H.n <= s:
        raise NTooSmall(f"n={H.n} <= s={s}")
    blocks = _blocks(H)
    x, y = frobenius_decompose(H.q, H.r)
    p = reference_resolve_split(H, p, y)
    edges: list[Edge] = []
    for m, (b, h) in enumerate(blocks):
        next_b, _ = blocks[(m + 1) % len(blocks)]
        for j in range(H.n):
            diag = Edge.of(
                v for i in range(s) for v in _part_vertices(H, b, j, i)
            )
            if j < H.n - 1:
                star = reference_shifted_edge(H, b, h, j, p)
            else:
                star = reference_shifted_edge(H, b, h, j, p, tail_block_start=next_b, tail_j=0)
            edges += [diag, star]
    cert = CycleCertificate(
        hypergraph=H, kind=KIND_SHARP, edges=tuple(edges), split_index=p
    )
    report = verify_sharp_cycle(H, cert)
    if not report.ok or not report.hamiltonian:
        raise ConstructionUnsupported(
            f"recipe failed verification for {H}: {report.violated_condition or 'not hamiltonian'}"
        )
    profile = report.profile
    return CycleCertificate(
        hypergraph=H,
        kind=KIND_SHARP,
        edges=tuple(edges),
        split_index=p,
        claimed_hamiltonian=True,
        claimed_t=profile.uniform_t if profile else None,
        claimed_z=profile.uniform_z if profile else None,
    )


def reference_construct_k_intersecting(H: SigmaHypergraph, k: int) -> CycleCertificate:
    sigma = H.sigma
    s = sigma.s
    if s < 2:
        raise ConstructionUnsupported("k-intersecting construction needs at least two parts")
    if not 2 <= k <= s:
        raise KOutOfRange(f"k={k} outside [2, {s}]")
    if H.n <= s:
        raise NTooSmall(f"n={H.n} <= s={s}")
    blocks = _blocks(H)
    _, y = frobenius_decompose(H.q, H.r)
    if y > 0 and sigma.delta_max == 1:
        raise DegenerateIntersection(
            f"largest part 1 with an (r+1)-block: window intersection would be empty"
        )
    n, r = H.n, H.r
    edges: list[Edge] = []
    for m, (b, h) in enumerate(blocks):
        next_b, _ = blocks[(m + 1) % len(blocks)]
        for i in range(n):
            edges.append(Edge.of(v for pi in range(s) for v in _part_vertices(H, b, i, pi)))
            for j in range(2, k + 1):
                threshold = k - j + 1  # parts from this index on come from edge i+1
                vs: list[GridVertex] = []
                for pi in range(s):
                    if pi == 0:
                        pv = _part_vertices(H, b, i, 0)
                        if h == r + 1:
                            pv = pv[:-1] + [(pv[-1][0], b + r)]
                    elif pi < threshold:
                        pv = _part_vertices(H, b, i, pi)
                    else:
                        if i < n - 1:
                            pv = _part_vertices(H, b, i + 1, pi)
                        else:
                            pv = _part_vertices(H, next_b, 0, pi)
                    vs += pv
                edges.append(Edge.of(vs))
    cert = CycleCertificate(hypergraph=H, kind=KIND_K_INTERSECTING, edges=tuple(edges), k=k)
    report = verify_k_intersecting(H, cert, k)
    if not report.ok or not report.hamiltonian:
        raise ConstructionUnsupported(
            f"recipe failed verification for {H}, k={k}: "
            f"{report.violated_condition or 'not hamiltonian'}"
        )
    return CycleCertificate(
        hypergraph=H,
        kind=KIND_K_INTERSECTING,
        edges=tuple(edges),
        k=k,
        claimed_hamiltonian=True,
    )


# ---------------------------------------------------------------------------
# Reference DOT renderer: the intersection of every one of the p(p-1)/2 edge
# pairs, with the cap counted over all of them.  sigmacycles.export reads the
# pairs off the incidence index and must write the same bytes.


def reference_render_dot(cert: CycleCertificate) -> str:
    """Intersection graph of the cycle: one node per edge, an arc for every
    nonempty pairwise intersection labeled with its size.  Raises ValueError
    when the cycle has more edge pairs than the rendering limit."""
    p = len(cert.edges)
    _check_size(p * (p - 1) // 2, "dot edge pairs")
    sets = [e.vertex_set() for e in cert.edges]
    lines = ["graph cycle {"]
    for i in range(len(sets)):
        lines.append(f'  e{i} [label="e{i}"];')
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            size = len(sets[i] & sets[j])
            if size:
                lines.append(f'  e{i} -- e{j} [label="{size}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

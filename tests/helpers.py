"""Shared helpers for the test suite: small independent oracles."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from sigmacycles import CycleCertificate, Edge, SharpnessProfile, SigmaHypergraph, is_edge
from sigmacycles.core import GridVertex
from sigmacycles.verify import (
    TAG_CONSECUTIVE_EMPTY,
    TAG_DEGENERATE_LENGTH,
    TAG_FORBIDDEN_NONEMPTY,
    VerificationReport,
    _edge_validity_failure,
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
# Reference verifiers: the pairwise sharp check and the C(p, k) subset sweep,
# quadratic and exponential in p.  The incidence-index verifiers in
# sigmacycles.verify must return identical reports.


def reference_verify_sharp_edges(H: SigmaHypergraph, edges: Sequence[Edge]) -> VerificationReport:
    p = len(edges)
    if p < 4:
        return VerificationReport.failure(TAG_DEGENERATE_LENGTH, f"{p} edges; a sharp cycle needs at least 4")
    bad = _edge_validity_failure(H, edges)
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
    bad = _edge_validity_failure(H, edges)
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

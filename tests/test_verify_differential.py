"""Differential tests: the incidence-index verifiers against the pairwise and
C(p, k) reference verifiers in helpers.py.  Reports must agree exactly."""

import itertools
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmacycles import (
    Edge,
    Partition,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    enumerate_edges,
    make_hypergraph,
    parse_partition,
    verify_k_intersecting,
    verify_sharp_cycle,
)
from sigmacycles.certificates import KIND_K_INTERSECTING, KIND_SHARP, CycleCertificate
from sigmacycles.verify import TAG_CONSECUTIVE_EMPTY, TAG_FORBIDDEN_NONEMPTY, _is_window

from helpers import reference_verify_k_intersecting, reference_verify_sharp_edges
from mutation_cases import k_intersecting_mutations, sharp_mutations

# (sigma, n, q, k): constructor bases with 6 to 24 edges
BASES = [
    ("2,1", 3, 6, 2),
    ("1,1", 4, 4, 2),
    ("2,2", 3, 8, 2),
    ("1,1,1", 4, 3, 3),
    ("2,1,1", 4, 5, 3),
    ("3,2,1", 4, 6, 3),
    ("1,1,1,1", 5, 4, 4),
    ("2,1,1,1", 5, 5, 4),
]


def fields(report):
    return (
        report.ok,
        report.violated_condition,
        report.detail,
        report.profile,
        report.window_sizes,
        report.hamiltonian,
    )


def assert_same(H, edges, k):
    """Compare both verifiers on an edge sequence; return the report."""
    cert = CycleCertificate(hypergraph=H, kind=KIND_K_INTERSECTING, edges=tuple(edges), k=k)
    got = verify_k_intersecting(H, cert, k)
    assert fields(got) == fields(reference_verify_k_intersecting(H, cert, k))
    if k == 2:
        sharp = cert.replace(kind=KIND_SHARP, k=None)
        assert fields(verify_sharp_cycle(H, sharp)) == fields(got)
    return got


@lru_cache(maxsize=None)
def base(index):
    sigma, n, q, k = BASES[index]
    H = make_hypergraph(n, q, parse_partition(sigma))
    return H, construct_k_intersecting(H, k).edges, k


@lru_cache(maxsize=None)
def all_edges(H):
    return list(enumerate_edges(H))


def move_vertex(edge, old, new):
    return Edge.of(new if v == old else v for v in edge.vertices)


def crowd(edges, v):
    """Put v into every edge that can take it without changing its class
    profile, in place of a vertex of v's class."""
    out = []
    for e in edges:
        old = next((u for u in e.vertices if u[0] == v[0]), None)
        out.append(e if old is None or v in e.vertices else move_vertex(e, old, v))
    return out


def planted_cycle(p, k, planted, spare=0, gaps=()):
    """A k-intersecting cycle of p edges on a one-row grid in which window i
    has a vertex of its own, plus one vertex in each planted set of edge
    indices.  Every vertex is its own class, so sigma = (1,) * r once the
    edges are padded with vertices of their own to one size r.  Planted
    vertices take the lowest classes, in the order given; `spare` unused
    classes make the cycle non-Hamiltonian.  The windows starting at the
    indices in `gaps` get no vertex of their own."""
    windows = [{(i + d) % p for d in range(k)} for i in range(p) if i not in gaps]
    members = [set(s) for s in planted] + windows
    classes = [[c for c, m in enumerate(members) if i in m] for i in range(p)]
    r = max(map(len, classes))
    n = len(members)
    for cs in classes:
        while len(cs) < r:
            cs.append(n)
            n += 1
    H = make_hypergraph(n + spare, 1, Partition((1,) * r))
    return H, [Edge.of((c, 0) for c in cs) for cs in classes]


@st.composite
def planted(draw):
    """A planted k-intersecting cycle with up to three more planted sets of
    any size, sometimes the (k+1)-window that wraps, p-2 to k-2.  Up to two
    windows get no vertex of their own, so a crowded vertex can be the only
    one that keeps a window from being empty."""
    k = draw(st.integers(2, 4))
    p = draw(st.integers(k + 2, k + 6))
    edge = st.integers(0, p - 1)
    wrap = {(p - 2 + d) % p for d in range(k + 1)}
    sets = draw(st.lists(st.one_of(st.just(wrap), st.sets(edge, min_size=2)), max_size=3))
    gaps = draw(st.sets(edge, max_size=2))
    H, edges = planted_cycle(p, k, sets, draw(st.integers(0, 1)), gaps)
    return H, edges, k


@settings(deadline=None, max_examples=300)
@given(planted())
def test_planted_shared_vertices(case):
    assert_same(*case)


@st.composite
def crowded_sharp(draw):
    """A planted sharp cycle with one vertex in three or more edges (often
    the wrap triple 0, 1, p-1 or every edge), plus up to two more planted
    sets of any size.  Some consecutive pairs may share no vertex of their
    own, so the crowded vertex alone can keep them from being disjoint."""
    p = draw(st.integers(4, 10))
    edge = st.integers(0, p - 1)
    crowded = st.one_of(st.just({0, 1, p - 1}), st.just(set(range(p))), st.sets(edge, min_size=3))
    sets = [draw(crowded)] + draw(st.lists(st.sets(edge, min_size=2), max_size=2))
    gaps = draw(st.sets(edge, max_size=2))
    return planted_cycle(p, 2, draw(st.permutations(sets)), draw(st.integers(0, 1)), gaps)


@pytest.mark.parametrize("p", range(1, 10))
def test_is_window_on_every_subset(p):
    """_is_window against the definition, on every non-empty ascending
    subset of range(p): 1,013 cases over p <= 9."""
    for m in range(1, p + 1):
        for ids in itertools.combinations(range(p), m):
            window = any({(i + d) % p for d in range(m)} == set(ids) for i in range(p))
            assert _is_window(ids, p) == window, ids


@settings(deadline=None, max_examples=300)
@given(crowded_sharp())
def test_vertex_in_three_or_more_edges(case):
    H, edges = case
    cert = CycleCertificate(hypergraph=H, kind=KIND_SHARP, edges=tuple(edges))
    assert fields(verify_sharp_cycle(H, cert)) == fields(reference_verify_sharp_edges(H, edges))


@pytest.mark.parametrize("index", range(len(BASES)), ids=[f"{b[0]}-n{b[1]}-q{b[2]}" for b in BASES])
def test_profile_is_the_consecutive_intersection_sizes(index):
    sigma, n, q, _ = BASES[index]
    H = make_hypergraph(n, q, parse_partition(sigma))
    edges = construct_sharp_hamiltonian(H).edges
    p = len(edges)
    sizes = tuple(len(set(edges[i].vertices) & set(edges[(i + 1) % p].vertices)) for i in range(p))
    report = verify_sharp_cycle(H, CycleCertificate(hypergraph=H, kind=KIND_SHARP, edges=edges))
    assert report.ok and report.profile.pair_sizes == sizes


@st.composite
def mutated(draw):
    H, edges, k = base(draw(st.integers(0, len(BASES) - 1)))
    edges = list(edges)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "move", "crowd"]))
        i = draw(st.integers(0, len(edges) - 1))
        j = draw(st.integers(0, len(edges) - 1))
        if op == "delete" and len(edges) > 1:
            del edges[i]
        elif op == "duplicate":
            edges.insert(j, edges[i])
        elif op == "swap":
            edges[i], edges[j] = edges[j], edges[i]
        elif op == "move":
            old = draw(st.sampled_from(edges[i].vertices))
            column = old[0] if draw(st.booleans()) else draw(st.integers(0, H.n - 1))
            new = (column, draw(st.integers(0, H.q - 1)))
            if new not in edges[i].vertices:
                edges[i] = move_vertex(edges[i], old, new)
        elif op == "crowd":
            edges = crowd(edges, draw(st.sampled_from(edges[i].vertices)))
    return H, edges, k


@settings(deadline=None, max_examples=300)
@given(mutated())
def test_mutated_constructor_outputs(case):
    assert_same(*case)


@st.composite
def random_sequences(draw):
    H, _, k = base(draw(st.integers(0, len(BASES) - 1)))
    pool = all_edges(H)
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=k + 1, max_size=k + 6))
    return H, [pool[i] for i in picks], k


@settings(deadline=None, max_examples=200)
@given(random_sequences())
def test_random_edge_sequences(case):
    assert_same(*case)


@pytest.mark.parametrize("index", range(len(BASES)), ids=[b[0] + f"-k{b[3]}" for b in BASES])
def test_constructor_outputs_pass(index):
    report = assert_same(*base(index))
    assert report.ok and report.hamiltonian


@pytest.mark.parametrize(
    "label,H,cert,tag",
    sharp_mutations() + k_intersecting_mutations(),
    ids=[c[0] for c in sharp_mutations() + k_intersecting_mutations()],
)
def test_mutation_cases_match_reference(label, H, cert, tag):
    k = 2 if cert.kind == KIND_SHARP else 3
    report = assert_same(H, cert.edges, k)
    assert report.violated_condition == tag


def test_wrap_pair_empty():
    H, edges, _ = base(0)
    report = assert_same(H, edges[:-1], 2)
    p = len(edges) - 1
    assert report.detail == f"consecutive edges 0 and {p - 1} are disjoint"


def test_wrap_window_empty():
    H, edges, k = base(3)
    report = assert_same(H, edges[:-1], k)
    assert report.violated_condition == TAG_CONSECUTIVE_EMPTY


def test_every_ordering_of_a_four_cycle():
    H = make_hypergraph(2, 2, parse_partition("1,1"))
    cycle = [
        Edge.of([(0, 0), (1, 0)]),
        Edge.of([(1, 0), (0, 1)]),
        Edge.of([(0, 1), (1, 1)]),
        Edge.of([(1, 1), (0, 0)]),
    ]
    verdicts = {order: assert_same(H, [cycle[i] for i in order], 2).ok
                for order in itertools.permutations(range(4))}
    # the eight rotations and reflections of the cycle pass, nothing else
    assert sum(verdicts.values()) == 8


@pytest.mark.parametrize("index", [3, 6])
def test_length_k_plus_two(index):
    H, edges, k = base(index)
    pool = all_edges(H)
    for start in range(0, len(pool) - (k + 2), 7):
        assert_same(H, pool[start : start + k + 2], k)
    assert_same(H, edges[: k + 2], k)
    assert_same(H, edges[: k + 1], k)


@pytest.mark.parametrize("index", [0, 3, 6])
def test_one_vertex_in_many_edges(index):
    H, edges, k = base(index)
    v = edges[0].vertices[0]
    crowded = crowd(edges, v)
    assert sum(v in e.vertices for e in crowded) > k + 1
    report = assert_same(H, crowded, k)
    assert report.violated_condition == TAG_FORBIDDEN_NONEMPTY


def test_smaller_index_wins_across_kinds():
    H, edges, _ = base(0)
    p = len(edges)
    # swapping edges 5 and 6 empties the consecutive pair (4, 5) and makes
    # the non-consecutive pair (4, 6) meet: the consecutive pair is smaller
    swapped = list(edges)
    swapped[5], swapped[6] = swapped[6], swapped[5]
    report = assert_same(H, swapped, 2)
    assert report.detail == "consecutive edges 4 and 5 are disjoint"
    # swapping the last two edges empties the wrap pair (0, p-1) and makes
    # (0, p-2) meet: now the forbidden pair is smaller
    swapped = list(edges)
    swapped[-2], swapped[-1] = swapped[-1], swapped[-2]
    report = assert_same(H, swapped, 2)
    assert report.violated_condition == TAG_FORBIDDEN_NONEMPTY
    assert report.detail.startswith(f"non-consecutive edges 0 and {p - 2} share")


def test_vertex_in_exactly_k_edges():
    H, edges = planted_cycle(6, 3, [{0, 1, 3}])
    report = assert_same(H, edges, 3)
    assert report.detail == "non-window edge subset (0, 1, 3) shares a vertex"


def test_minimum_over_vertices_not_first_vertex():
    # the vertex indexed first yields (0, 3, 5); the smaller (0, 1, 3) wins
    H, edges = planted_cycle(6, 3, [{0, 3, 5}, {0, 1, 3}])
    report = assert_same(H, edges, 3)
    assert report.detail == "non-window edge subset (0, 1, 3) shares a vertex"


@pytest.mark.parametrize("k", [2, 3, 4])
def test_valid_but_not_hamiltonian(k):
    H, edges = planted_cycle(k + 3, k, [], spare=1)
    report = assert_same(H, edges, k)
    assert report.ok and report.hamiltonian is False

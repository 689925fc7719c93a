"""Differential tests: the verifiers' edge-validity stage, which applies
is_edge's rule inline in one pass, against the per-edge is_edge reference
loop in helpers.py.  Edges are built directly, without Edge.of, so
they may hold any coordinate type, vertex shape or order; both stages must
return the same report or raise the same exception type."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import partitions_of, reference_edge_validity_failure
from sigmacycles import Edge, Partition, enumerate_edges, make_hypergraph
from sigmacycles.verify import TAG_NON_EDGE, _edge_validity_failure

SETTINGS = settings(deadline=None, max_examples=400)

SIGMAS = [sigma for r in range(1, 5) for sigma in partitions_of(r)]

# What a coordinate may be replaced with: booleans and floats that compare
# equal to in-range ints, NaN, and ints out of range on either side (n and q
# themselves are added per hypergraph).
ODD_COORDINATES = [True, False, 0.0, 1.0, 0.5, math.nan, -1, 9, 2**70]


def outcome(stage, H, edges):
    try:
        report = stage(H, edges)
    except Exception as exc:  # the exception type is part of the contract
        return "raise", type(exc)
    return "report", report


@st.composite
def odd_vertex(draw, v, H):
    """v with one change: an odd coordinate, a list, a 1- or 3-tuple.  v may
    already be changed by an earlier draw: a list, or a 1- or 3-tuple."""
    kind = draw(st.sampled_from(["coordinate"] * 3 + ["list", "short", "long"]))
    if kind == "coordinate":
        vs = list(v)
        vs[draw(st.integers(0, len(vs) - 1))] = draw(st.sampled_from(ODD_COORDINATES + [H.n, H.q]))
        return tuple(vs)
    if kind == "list":
        return list(v)
    if kind == "short":
        return v[:1]
    return tuple(v) + (draw(st.integers(0, 2)),)


@st.composite
def odd_edge(draw, vertices, H):
    """The vertex tuple of an edge with one change that may or may not keep
    it an edge.  The tuple may already be changed, even emptied, by an
    earlier draw; an empty one has no vertex to change or drop."""
    vs = list(vertices)
    change = draw(st.sampled_from(["vertex"] * 3 + ["shuffle", "repeat", "drop", "add", "list"]))
    if change == "vertex" and vs:
        i = draw(st.integers(0, len(vs) - 1))
        vs[i] = draw(odd_vertex(vs[i], H))
    elif change == "shuffle":
        vs = draw(st.permutations(vs))
    elif change == "repeat" and len(vs) > 1:
        vs[draw(st.integers(1, len(vs) - 1))] = vs[0]
    elif change == "drop" and vs:
        del vs[draw(st.integers(0, len(vs) - 1))]
    elif change == "add":
        vs.append((draw(st.integers(0, H.n - 1)), draw(st.integers(0, H.q - 1))))
    elif change == "list":
        return vs
    return tuple(vs)


@st.composite
def hypergraph_and_edges(draw):
    sigma = Partition(draw(st.sampled_from(SIGMAS)))
    H = make_hypergraph(
        draw(st.integers(sigma.s, 5)), draw(st.integers(sigma.delta_max, 5)), sigma
    )
    pool = [e.vertices for e in enumerate_edges(H)]
    vertex_tuples = draw(st.lists(st.sampled_from(pool), max_size=150))
    for _ in range(draw(st.integers(0, 3))):
        if not vertex_tuples:
            break
        i = draw(st.integers(0, len(vertex_tuples) - 1))
        op = draw(st.sampled_from(["odd", "odd", "copy"]))
        if op == "odd":
            vertex_tuples[i] = draw(odd_edge(vertex_tuples[i], H))
        else:
            vertex_tuples[i] = vertex_tuples[draw(st.integers(0, len(vertex_tuples) - 1))]
    return H, [Edge(vs) for vs in vertex_tuples]


@SETTINGS
@given(hypergraph_and_edges())
# an edge whose vertices are held in a list is keyed by its vertex set, like
# a tuple: it repeats an earlier tuple and is repeated by a later one
@example(
    (
        make_hypergraph(1, 2, Partition((1,))),
        [Edge(((0, 0),)), Edge(((0, 0),)), Edge([(0, 0)])],
    )
)
@example((make_hypergraph(2, 2, Partition((1, 1))), [Edge([(1, 0), (0, 0)]), Edge(((0, 0), (1, 0)))]))
# a list vertex raises TypeError only once every vertex of its edge is in
# range, where is_edge hashes them; an out-of-range vertex after it makes a
# non-edge
@example((make_hypergraph(3, 2, Partition((1, 1, 1))), [Edge(((0, 0), [1, 0], (2, 0)))]))
@example((make_hypergraph(3, 2, Partition((1, 1, 1))), [Edge(([0, 0], [1, 0], [2, 0]))]))
@example((make_hypergraph(3, 2, Partition((1, 1, 1))), [Edge(((0, 0), [1, 0], (3, 0)))]))
def test_validity_stage_matches_reference(case):
    H, edges = case
    assert outcome(_edge_validity_failure, H, edges) == outcome(
        reference_edge_validity_failure, H, edges
    )


@SETTINGS
@given(st.integers(0, 149), st.integers(0, 149), st.integers(0, 149))
def test_repeated_edge_at_every_position(length, i, j):
    H = make_hypergraph(5, 5, Partition((1, 1)))
    edges = list(enumerate_edges(H))[: length + 1]
    i, j = i % len(edges), j % len(edges)
    edges[i] = edges[j]
    assert _edge_validity_failure(H, edges) == reference_edge_validity_failure(H, edges)


def test_nan_coordinate_is_not_an_edge():
    # NaN compares false both ways, so a min/max bounds test alone would pass it
    H = make_hypergraph(3, 2, Partition((1, 1, 1)))
    nan_edge = Edge(((0, 0), (math.nan, 0), (1, 0)))
    report = _edge_validity_failure(H, [nan_edge])
    assert report == reference_edge_validity_failure(H, [nan_edge])
    assert report.violated_condition == TAG_NON_EDGE
    assert report.detail == f"edge 0 is not an edge of {H}"
    valid = list(enumerate_edges(H))
    edges = valid[:5] + [nan_edge] + valid[5:]
    assert _edge_validity_failure(H, edges).detail == f"edge 5 is not an edge of {H}"


def test_out_of_range_in_a_later_block():
    H = make_hypergraph(5, 5, Partition((1, 1)))
    valid = list(enumerate_edges(H))
    for bad in [((0, 0), (5, 0)), ((0, 0), (1, 5)), ((-1, 0), (1, 0)), ((0, -1), (1, 0))]:
        edges = valid[:130] + [Edge(bad)] + valid[130:]
        report = _edge_validity_failure(H, edges)
        assert report == reference_edge_validity_failure(H, edges)
        assert report.detail == f"edge 130 is not an edge of {H}"


def test_equal_non_int_coordinates_are_accepted_like_ints():
    # True == 1 and 1.0 == 1: is_edge takes them, so the inline bounds test
    # must take them too
    H = make_hypergraph(3, 2, Partition((1, 1, 1)))
    edges = [Edge(((0, 0), (True, 0), (2, 0))), Edge(((0, 1), (1.0, 1), (2, 1)))]
    assert _edge_validity_failure(H, edges) is None
    assert reference_edge_validity_failure(H, edges) is None
    edges.append(Edge(((0, 0), (1, 0), (2, 0))))
    assert _edge_validity_failure(H, edges).detail == "edge 2 duplicates edge 0"

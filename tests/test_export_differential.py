"""Differential tests: the DOT renderer, which reads its arcs off the
vertex -> edge incidence index, against the all-pairs renderer in helpers.py.
Both must write the same bytes on constructed cycles and on arbitrary edge
lists, including repeated edges, edges that share vertices with many
others and edges built directly with a repeated vertex."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import partitions_of, reference_render_dot
from sigmacycles import (
    Edge,
    Partition,
    construct_berge_hamiltonian,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    enumerate_edges,
    make_hypergraph,
)
from sigmacycles.certificates import KIND_SHARP, CycleCertificate
from sigmacycles.errors import ConstructionError
from sigmacycles.export import render_dot

SETTINGS = settings(deadline=None, max_examples=300)

SIGMAS = [sigma for r in range(1, 6) for sigma in partitions_of(r)]


@st.composite
def hypergraphs(draw, max_r=5, max_n=6, max_q=8):
    sigma = Partition(draw(st.sampled_from([s for s in SIGMAS if sum(s) <= max_r])))
    n = draw(st.integers(min_value=sigma.s, max_value=max_n))
    q = draw(st.integers(min_value=sigma.delta_max, max_value=max_q))
    return make_hypergraph(n, q, sigma)


@SETTINGS
@given(hypergraphs(), st.sampled_from(["berge", "sharp", "k"]), st.integers(1, 4))
def test_constructed_cycles_match_reference(H, kind, arg):
    try:
        if kind == "berge":
            cert = construct_berge_hamiltonian(H)
        elif kind == "sharp":
            cert = construct_sharp_hamiltonian(H, arg)
        else:
            cert = construct_k_intersecting(H, arg + 1)
    except (ConstructionError, ValueError):
        return
    assert render_dot(cert) == reference_render_dot(cert)


@SETTINGS
@given(hypergraphs(max_r=3, max_n=4, max_q=4), st.data())
def test_edge_lists_match_reference(H, data):
    """Edges drawn with repetition from all edges of a small H: duplicates
    and edges that meet several others in one vertex."""
    pool = list(enumerate_edges(H))
    edges = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    cert = CycleCertificate(hypergraph=H, kind=KIND_SHARP, edges=tuple(edges))
    assert render_dot(cert) == reference_render_dot(cert)


@SETTINGS
@given(hypergraphs(max_r=3, max_n=4, max_q=4), st.data())
def test_repeated_vertex_edges_match_reference(H, data):
    """Edges built without Edge.of, one vertex written twice: the incidence
    list holds the edge twice, which must give no self-arc and no extra
    shared vertex."""
    pool = list(enumerate_edges(H))
    edges = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(edges) - 1))
        vs = edges[i].vertices
        j = data.draw(st.integers(0, len(vs) - 1))
        edges[i] = Edge(vs + (vs[j],))
    cert = CycleCertificate(hypergraph=H, kind=KIND_SHARP, edges=tuple(edges))
    assert render_dot(cert) == reference_render_dot(cert)


def test_repeated_vertex_gives_no_self_arc():
    H = make_hypergraph(3, 3, Partition((2, 1)))
    edges = (Edge(((0, 0), (0, 0), (1, 0))), Edge(((0, 0), (0, 1), (2, 0))))
    cert = CycleCertificate(hypergraph=H, kind=KIND_SHARP, edges=edges)
    dot = render_dot(cert)
    assert dot == reference_render_dot(cert)
    assert "e0 -- e0" not in dot
    assert 'e0 -- e1 [label="1"]' in dot

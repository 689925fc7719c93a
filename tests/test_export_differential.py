"""Differential tests: the DOT renderer, which reads its arcs off the
vertex -> edge incidence index, against the all-pairs renderer in helpers.py,
and the SVG renderer, which joins precomputed row and column strings,
against the one-f-string-per-cell renderer there.  Each must write the same
bytes as its reference on constructed cycles and on arbitrary edge lists,
including repeated edges, edges that share vertices with many others and
edges built directly with a repeated vertex or (SVG) vertices off the grid."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import partitions_of, reference_render_dot, reference_render_svg
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
from sigmacycles.export import render_dot, render_svg

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
    assert render_svg(cert) == reference_render_svg(cert)


@SETTINGS
@given(hypergraphs(max_r=3, max_n=4, max_q=4), st.data())
def test_edge_lists_match_reference(H, data):
    """Edges drawn with repetition from all edges of a small H: duplicates
    and edges that meet several others in one vertex."""
    pool = list(enumerate_edges(H))
    edges = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    cert = CycleCertificate(hypergraph=H, kind=KIND_SHARP, edges=tuple(edges))
    assert render_dot(cert) == reference_render_dot(cert)
    assert render_svg(cert) == reference_render_svg(cert)


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
    assert render_svg(cert) == reference_render_svg(cert)


def test_repeated_vertex_gives_no_self_arc():
    H = make_hypergraph(3, 3, Partition((2, 1)))
    edges = (Edge(((0, 0), (0, 0), (1, 0))), Edge(((0, 0), (0, 1), (2, 0))))
    cert = CycleCertificate(hypergraph=H, kind=KIND_SHARP, edges=edges)
    dot = render_dot(cert)
    assert dot == reference_render_dot(cert)
    assert "e0 -- e0" not in dot
    assert 'e0 -- e1 [label="1"]' in dot


@SETTINGS
@given(hypergraphs(max_r=3, max_n=4, max_q=4), st.data())
def test_out_of_grid_vertices_svg_match_reference(H, data):
    """Edges built directly with int vertices in and around the grid,
    negative classes and rows included: the ones outside are not drawn."""
    vertex = st.tuples(st.integers(-3, H.n + 2), st.integers(-3, H.q + 2))
    edge = st.lists(vertex, min_size=1, max_size=5).map(lambda vs: Edge(tuple(vs)))
    edges = data.draw(st.lists(edge, min_size=1, max_size=8))
    cert = CycleCertificate(hypergraph=H, kind=KIND_SHARP, edges=tuple(edges))
    assert render_svg(cert) == reference_render_svg(cert)


def test_benchmark_sharp_cycle_svg_bytes():
    """The 200-edge sigma=2,1 n=10 q=30 sharp cycle that the benchmark
    exports: 60,000 grid cells, pinned by length and digest."""
    cert = construct_sharp_hamiltonian(make_hypergraph(10, 30, Partition((2, 1))))
    svg = render_svg(cert)
    assert svg == reference_render_svg(cert)
    assert len(svg) == 5_218_431
    assert hashlib.sha256(svg.encode()).hexdigest() == (
        "cbedab1b3b8a0960a5a7c6ed14a3d28226d018dc16fd68683a8f0bb8571cb811"
    )


def test_empty_cycle_svg_raises_value_error():
    """The reader refuses an empty cycle.edges; a library caller gets a
    ValueError that names it, not a ZeroDivisionError."""
    H = make_hypergraph(3, 3, Partition((2, 1)))
    cert = CycleCertificate(hypergraph=H, kind=KIND_SHARP, edges=())
    with pytest.raises(ValueError, match="no edges"):
        render_svg(cert)

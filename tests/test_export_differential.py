"""Differential tests: the DOT renderer, which reads its arcs off the
vertex -> edge incidence index, against the all-pairs renderer in helpers.py.
Both must write the same bytes on constructed cycles and on arbitrary edge
lists, including repeated edges and edges that share vertices with many
others."""

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import partitions_of, reference_render_dot
from sigmacycles import (
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

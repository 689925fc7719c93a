"""Differential tests: the single block-chain recipe against the separate
sharp and k-intersecting recipes in helpers.py, and the column-slice Berge
walk against the per-vertex walk there.  Certificates must serialize
to the same bytes, and a rejected call must raise the kind that NEW_KIND
names for the reference's exception type, with the same message.  The
allowed differences: a hypergraph with no cycle at all (r < 2, or one part
and n >= 2) is refused with NoCycle and its reason, a sharp refusal where
no_cycle_reason gives the edge-count window is NoCycle naming it, k < 2
breaks the rule for k, and a degenerate k-intersecting call carries the
shared degeneracy message."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    partitions_of,
    reference_construct_berge_hamiltonian,
    reference_construct_k_intersecting,
    reference_construct_sharp_hamiltonian,
    reference_diagonal_matching,
    reference_shifted_matching,
)
from sigmacycles import (
    KIND_SHARP,
    Partition,
    certfile,
    construct_berge_hamiltonian,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    diagonal_matching,
    make_hypergraph,
    no_cycle_reason,
    sharp_cycle_bounds,
    shifted_matching,
)
from sigmacycles.errors import ConstructionError

SETTINGS = settings(deadline=None, max_examples=300)

SIGMAS = [sigma for r in range(1, 7) for sigma in partitions_of(r)]


@st.composite
def hypergraphs(draw):
    """Every sigma with r <= 6, n from s to 7, q from the largest part to 13."""
    sigma = Partition(draw(st.sampled_from(SIGMAS)))
    n = draw(st.integers(min_value=sigma.s, max_value=7))
    q = draw(st.integers(min_value=sigma.delta_max, max_value=13))
    return make_hypergraph(n, q, sigma)


def outcome(build, *args):
    try:
        return "ok", certfile.dumps(build(*args))
    except (ConstructionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


# the kind that replaced each refusal type the reference constructors raise
NEW_KIND = {
    "ConstructionUnsupported": "NoRecipe",
    "DegenerateIntersection": "NoRecipe",
    "KOutOfRange": "NoRecipe",
    "NTooSmall": "NoRecipe",
    # q with no block split: the reference shares frobenius_decompose
    "NoRecipe": "NoRecipe",
}


def expected(H, want):
    """The library's outcome where the reference gives want: NoCycle with
    its reason where H has no cycle at all, which the reference refuses
    too; otherwise want with its refusal type replaced by its kind."""
    reason = None
    if H.r < 2:
        reason = "an edge of one vertex links no two cycle vertices"
    elif H.sigma.s == 1 and H.n >= 2:
        reason = "every edge lies in one class, so H is disconnected"
    if reason is not None:
        assert want[0] == "ConstructionUnsupported"
        return "NoCycle", f"{H}: {reason}"
    return NEW_KIND.get(want[0], want[0]), want[1]


def matching_outcome(build, *args):
    try:
        return "ok", build(*args)
    except (ConstructionError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@SETTINGS
@given(hypergraphs(), st.data())
def test_sharp_matches_reference(H, data):
    p = data.draw(st.integers(min_value=0, max_value=H.sigma.s))
    got = outcome(construct_sharp_hamiltonian, H, p)
    want = expected(H, outcome(reference_construct_sharp_hamiltonian, H, p))
    if want[0] == "NoRecipe" and no_cycle_reason(H, KIND_SHARP) is not None:
        assert got[0] == "NoCycle"
        assert f"edge-count window {list(sharp_cycle_bounds(H))}" in got[1]
    else:
        assert got == want


@SETTINGS
@given(hypergraphs(), st.data())
def test_k_intersecting_matches_reference(H, data):
    k = data.draw(st.integers(min_value=0, max_value=H.sigma.s + 1))
    got = outcome(construct_k_intersecting, H, k)
    want = outcome(reference_construct_k_intersecting, H, k)
    if k < 2:
        assert got == ("ValueError", "k must be an integer >= 2")
    elif want[0] == "DegenerateIntersection":
        assert got == (
            "NoRecipe",
            f"sigma=({H.sigma}) with an (r+1)-block: threshold 1 gives a zero intersection",
        )
    else:
        assert got == expected(H, want)


@SETTINGS
@given(hypergraphs(), st.data())
def test_block_matchings_match_reference(H, data):
    h = data.draw(st.sampled_from([H.r, H.r + 1]))
    b = data.draw(st.integers(min_value=0, max_value=max(H.q - h, 0)))
    p = data.draw(st.integers(min_value=0, max_value=H.sigma.s))
    want = matching_outcome(reference_diagonal_matching, H, b, h)
    assert matching_outcome(diagonal_matching, H, b, h) == (NEW_KIND.get(want[0], want[0]), want[1])
    want = matching_outcome(reference_shifted_matching, H, b, h, p)
    assert matching_outcome(shifted_matching, H, b, h, p) == (NEW_KIND.get(want[0], want[0]), want[1])


def test_berge_matches_reference():
    # every sigma with r <= 6, n s..8, q a_1..13: 2,062 hypergraphs, 1,578
    # certificates.  The walk's parts wrap past row 0 and past the last
    # class; each refusal keeps its kind and message
    hypergraphs = built = 0
    for parts in SIGMAS:
        sigma = Partition(parts)
        for n in range(sigma.s, 9):
            for q in range(sigma.delta_max, 14):
                H = make_hypergraph(n, q, sigma)
                got = outcome(construct_berge_hamiltonian, H)
                assert got == outcome(reference_construct_berge_hamiltonian, H), H
                hypergraphs += 1
                built += got[0] == "ok"
    assert (hypergraphs, built) == (2062, 1578)


@pytest.mark.parametrize("sigma, n, q", [((3, 2, 1), 60, 120), ((2, 1), 40, 120)])
def test_berge_benchmark_sizes_match_reference(sigma, n, q):
    # the 7,200- and 4,800-edge walks of the file-roundtrip benchmark
    H = make_hypergraph(n, q, Partition(sigma))
    got = certfile.dumps(construct_berge_hamiltonian(H))
    assert got == certfile.dumps(reference_construct_berge_hamiltonian(H))

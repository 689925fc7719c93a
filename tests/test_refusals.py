"""The two refusal kinds.  NoCycle is a proof: on tiny grids an independent
search finds no cycle wherever a constructor raises it, and no_cycle_reason
gives no reason wherever a constructor builds a verified cycle.  And no
refusal comes from the verifier gate: every one is decided before an edge
is built.  Every edge a constructor or matching builds is canonical, though
no recipe sorts one."""

from helpers import (
    berge_hamiltonian_exists,
    partitions_of,
    reference_brute_force_sharp_hamiltonian_exists,
)
from sigmacycles import (
    Edge,
    NoCycle,
    NoRecipe,
    Partition,
    construct_berge_hamiltonian,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    diagonal_matching,
    make_hypergraph,
    no_cycle_reason,
    shifted_matching,
)


def grid(max_r, max_n, max_q, max_nq=None):
    """Every sigma with r <= max_r, n from s to max_n, q from the largest
    part to max_q, and nq <= max_nq when given."""
    for r in range(1, max_r + 1):
        for parts in partitions_of(r):
            sigma = Partition(parts)
            for n in range(sigma.s, max_n + 1):
                for q in range(sigma.delta_max, max_q + 1):
                    if max_nq is None or n * q <= max_nq:
                        yield make_hypergraph(n, q, sigma)


def refusal(build, *args):
    """The refusal kind of a constructor call, or None when it builds."""
    try:
        build(*args)
    except (NoCycle, NoRecipe) as exc:
        return type(exc)
    return None


def canonical(edges):
    """True when every edge is its own Edge.of: vertices sorted, none
    repeated.  The recipes cut edges from column slices and never sort."""
    return all(e == Edge.of(e.vertices) for e in edges)


def test_no_refusal_reaches_the_gate():
    # every sigma with r <= 6, n s..8, q a_1..13: 2,062 hypergraphs, 3,594
    # certificates and 6,994 refusals.  A split index outside 1..s-1 and
    # k < 2 are usage errors, tested apart.  Every certificate built is
    # verified, so no nonexistence rule may fire on its kind, and its edges
    # are canonical, as are those of both matchings on the top and bottom
    # block of each height
    hypergraphs = refused = built = 0
    for H in grid(6, 8, 13):
        hypergraphs += 1
        s = H.sigma.s
        for h in (H.r, H.r + 1):
            for b in {0, H.q - h} if h <= H.q else ():
                assert canonical(diagonal_matching(H, b, h)), (H, b, h)
                if H.n > s:
                    for p in range(1, s):
                        assert canonical(shifted_matching(H, b, h, p)), (H, b, h, p)
        calls = [(construct_berge_hamiltonian,)]
        calls += [(construct_sharp_hamiltonian, p) for p in range(1, max(s, 2))]
        calls += [(construct_k_intersecting, k) for k in range(2, s + 2)]
        for build, *args in calls:
            try:
                cert = build(H, *args)
            except (NoCycle, NoRecipe) as exc:
                assert "recipe failed verification" not in str(exc), (H, build.__name__, args)
                refused += 1
            else:
                assert no_cycle_reason(H, cert.kind) is None, (H, build.__name__, args)
                assert canonical(cert.edges), (H, build.__name__, args)
                built += 1
    assert (hypergraphs, built, refused) == (2062, 3594, 6994)


def test_berge_no_cycle_is_a_proof():
    # every sigma with r <= 4 and nq <= 8: 86 hypergraphs, 37 without a cycle
    outcomes = []
    for H in grid(4, 8, 8, max_nq=8):
        kind = refusal(construct_berge_hamiltonian, H)
        assert kind is not NoRecipe, H
        assert berge_hamiltonian_exists(H) == (kind is None), H
        outcomes.append(kind)
    assert (outcomes.count(None), outcomes.count(NoCycle)) == (49, 37)


def test_sharp_no_cycle_is_a_proof():
    # every sigma with r <= 4, n s..4, q a_1..6.  The edge search, which
    # shares no rule with the constructor, exhausts floor(2nq/r) edges
    # wherever the constructor raises NoCycle
    no_cycle = 0
    for H in grid(4, 4, 6):
        kind = refusal(construct_sharp_hamiltonian, H, 1 if H.sigma.s > 1 else 0)
        if kind is NoCycle:
            no_cycle += 1
            result = reference_brute_force_sharp_hamiltonian_exists(H, 2 * H.n * H.q // H.r)
            assert result.status == "exhausted", H
        # k refuses with NoCycle exactly where no cycle of any kind exists,
        # and sharp refuses there too
        no_cycle_at_all = H.r < 2 or (H.sigma.s == 1 and H.n >= 2)
        for k in range(2, H.sigma.s + 2):
            k_kind = refusal(construct_k_intersecting, H, k)
            assert (k_kind is NoCycle) == no_cycle_at_all, (H, k)
            assert k_kind is not NoCycle or kind is NoCycle, (H, k)
    # 60 with no cycle at all, and 20 where the edge-count window and the
    # matching bound rule out a sharp cycle
    assert no_cycle == 80

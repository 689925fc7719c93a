"""Differential tests: the oracles against the numpy branch and bound and
the list-scan DFS in helpers.py, and the edge enumeration against the one
that re-sorts at every node.  Both oracles search per-class counts, the
references every edge, so their trees differ.  The max-matching oracle
agrees with its reference on refusals and exact answers, and a reference cut
by the budget finds no larger matching.  The sharp oracle starts from edge 0
only and searches vertex-type counts, the reference every edge sequence from
every edge in turn: they agree on the status, and the symmetry that makes
them agree is tested on its own."""

import gc
import inspect
import itertools
import math
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    partitions_of,
    reference_brute_force_max_matching,
    reference_brute_force_sharp_hamiltonian_exists,
    reference_enumerate_edges,
    reference_packing,
)
from sigmacycles import (
    KIND_SHARP,
    CycleCertificate,
    Edge,
    Partition,
    brute_force_max_matching,
    brute_force_sharp_hamiltonian_exists,
    edge_count,
    enumerate_edges,
    make_hypergraph,
    matching_upper_bound,
    no_cycle_reason,
    sharp_cycle_bounds,
    verify_sharp_cycle,
)
from sigmacycles import core, verify
from sigmacycles.core import incidence
from sigmacycles.errors import BudgetExceeded, NoEdgesError
from sigmacycles.verify import MaxMatchingResult

SETTINGS = settings(deadline=None, max_examples=300)

SIGMAS = [sigma for r in range(1, 6) for sigma in partitions_of(r)]


def hypergraph(sigma, n, q):
    try:
        return make_hypergraph(n, q, Partition(sigma))
    except NoEdgesError:
        return None


def matching_outcome(oracle, H, budget):
    try:
        result = oracle(H, budget=budget)
    except BudgetExceeded as exc:
        return "budget", str(exc)
    return result.nu, result.exact, result.nodes


def sharp_outcome(oracle, H, max_len, budget):
    try:
        result = oracle(H, max_len, budget=budget)
    except BudgetExceeded as exc:
        return "budget", str(exc)
    edges = result.certificate.edges if result.certificate is not None else None
    return result.status, edges, result.nodes


def assert_same_matching(H, budget=2_000_000):
    # the class-load search and the reference's edge branch and bound walk
    # different trees.  The oracle answers every H, never above the root's
    # ceiling; where the reference refuses H for its edge count, an exact
    # oracle answer is the reference's answer at an unlimited budget.  An
    # exact reference answer is the oracle's exact answer, and a reference
    # cut by the budget found a matching no larger than the oracle's
    result = brute_force_max_matching(H, budget=budget)
    got = result.nu, result.exact, result.nodes
    ref = matching_outcome(reference_brute_force_max_matching, H, budget)
    assert got[0] <= matching_upper_bound(H)
    if ref[0] == "budget":
        if got[1]:
            unlimited = reference_brute_force_max_matching(H, budget=math.inf)
            assert unlimited.exact and unlimited.nu == got[0]
    elif ref[1]:
        assert got[:2] == ref[:2]
    else:
        assert got[0] >= ref[0]
    return got


def refused_up_front(H, max_len, budget):
    # the sharp oracle's refusal before its search: a budget below the
    # root's 2 nodes, or n x min(max_len, hi) over the budget where the root
    # does not answer (no nonexistence reason, and max_len in reach of the
    # window [lo, hi])
    if budget < 2:
        return True
    if no_cycle_reason(H, KIND_SHARP) is not None:
        return False
    lo, hi = sharp_cycle_bounds(H)
    return max_len >= lo and H.n * min(max_len, hi) > budget


def assert_same_sharp(H, max_len, budget=2_000_000):
    # the class-count search and the reference's edge search walk different
    # trees, so their statuses are compared, not their nodes or cycles.  The
    # oracle decides whatever the reference decides within the same budget,
    # unless it refuses up front; it may decide more.  A found cycle is a
    # sharp Hamiltonian cycle of H with at most max_len edges
    got = sharp_outcome(brute_force_sharp_hamiltonian_exists, H, max_len, budget)
    ref = sharp_outcome(reference_brute_force_sharp_hamiltonian_exists, H, max_len, budget)
    if ref[0] != "budget" and not refused_up_front(H, max_len, budget):
        assert got[0] == ref[0]
    if got[0] == "found":
        assert len(got[1]) <= max_len
        report = verify_sharp_cycle(H, CycleCertificate(hypergraph=H, kind=KIND_SHARP, edges=got[1]))
        assert report.ok and report.hamiltonian
    return got


# The oracle benchmark's pinned instances: (sigma, n, q, nu) for max-matching
# and (sigma, n, q, max_len, status) for sharp-exists.
PINNED_MATCHING = [
    ((3, 3, 3), 5, 5, 1),
    ((2, 2), 4, 6, 6),
    ((2, 2, 2), 4, 6, 4),
    ((2, 2), 4, 5, 4),
    ((3, 3), 4, 5, 2),
    ((2, 1), 4, 3, 4),
    ((2, 2), 3, 4, 3),
    ((1, 1), 3, 3, 4),
    ((2, 1), 3, 3, 3),
    ((2, 2), 4, 4, 4),
    ((3, 3), 3, 4, 1),
    ((2, 1), 3, 4, 4),
    ((2, 2), 3, 5, 3),
]
PINNED_SHARP = [
    ((2, 1), 3, 6, 12, "found"),
    ((2, 2), 3, 6, 10, "found"),
    ((3, 3), 3, 4, 6, "exhausted"),
]


@pytest.mark.parametrize("sigma, n, q, nu", PINNED_MATCHING)
def test_pinned_max_matching(sigma, n, q, nu):
    assert assert_same_matching(make_hypergraph(n, q, Partition(sigma)))[:2] == (nu, True)


def test_pinned_max_matching_states():
    # the class-load states the oracle expands, in PINNED_MATCHING order
    states = [
        brute_force_max_matching(make_hypergraph(n, q, Partition(sigma))).nodes
        for sigma, n, q, _ in PINNED_MATCHING
    ]
    assert states == [2, 6, 4, 5, 3, 5, 3, 4, 4, 4, 2, 4, 3]


@pytest.mark.parametrize("sigma, n, q, max_len, status", PINNED_SHARP)
def test_pinned_sharp_exists(sigma, n, q, max_len, status):
    H = make_hypergraph(n, q, Partition(sigma))
    assert assert_same_sharp(H, max_len)[0] == status


@pytest.mark.parametrize(
    "sigma, n, q, nu, nodes",
    [
        ((3, 3, 3), 5, 5, 1, 9007),  # 10,000 edges
        ((2, 2, 2), 4, 6, 4, 4267),  # 13,500 edges
    ],
)
def test_benchmark_matching_trees(sigma, n, q, nu, nodes):
    # the reference's edge branch and bound on the two largest pinned
    # instances; the oracle needs 2 and 4 class-load states (PINNED_MATCHING)
    result = reference_brute_force_max_matching(make_hypergraph(n, q, Partition(sigma)))
    assert (result.nu, result.exact, result.nodes) == (nu, True, nodes)


@pytest.mark.parametrize(
    "sigma, n, q, budget, expected",
    [
        # 10,000 edges, more than the budget: the reference refuses before
        # its search, and the oracle answers in 2 states
        ((3, 3, 3), 5, 5, 10, "budget"),
        # 600 edges, 5803 reference nodes: the reference stops mid-tree,
        # inexact, below that budget; the oracle's 5 states fit every one
        ((2, 2), 4, 5, 1000, False),
        ((2, 2), 4, 5, 5802, False),
        ((2, 2), 4, 5, 5803, True),
    ],
)
def test_max_matching_budget_cut(sigma, n, q, budget, expected):
    H = make_hypergraph(n, q, Partition(sigma))
    got = assert_same_matching(H, budget)
    ref = matching_outcome(reference_brute_force_max_matching, H, budget)
    assert (ref[0] if expected == "budget" else ref[1]) == expected
    assert got == ((1, True, 2) if expected == "budget" else (4, True, 5))


@pytest.mark.parametrize("budget", [1, 5, 10, 20])
def test_max_matching_cut_by_its_budget(budget):
    # 84,700 edges, far more than these budgets, which count class-load
    # states only.  The search needs 21: the first greedy descent finds 20
    # copies, which is the root's ceiling, since every class load is even:
    # 8 * 10 // 4 = 20.
    H = make_hypergraph(8, 11, Partition((2, 2)))
    assert brute_force_max_matching(H, budget=21) == MaxMatchingResult(20, True, 21)
    result = brute_force_max_matching(H, budget=budget)
    assert not result.exact and result.nodes == budget + 1
    assert result.nu <= 20


@pytest.mark.parametrize(
    "sigma, n, q, result",
    [
        # gcd 2 and q odd: the gcd term, n(q-1)/r
        ((2, 2), 8, 11, (20, True, 21)),
        # perfect matchings, nq/r
        ((2, 1), 10, 15, (50, True, 56)),
        ((3, 2, 1), 12, 20, (40, True, 58)),  # 5,718,240,000 edges
        # far more edges than the default budget of 2,000,000 states
        ((2, 1), 40, 120, (1600, True, 1681)),
        ((3, 2, 1), 60, 120, (1200, True, 2049)),  # about 4.9e16 edges
        # 5,000 copies deep, past the default recursion limit
        ((1,), 1, 5000, (5000, True, 5000)),
    ],
)
def test_max_matching_beyond_brute_force(sigma, n, q, result):
    # each answer is the root's ceiling, matching_upper_bound
    H = make_hypergraph(n, q, Partition(sigma))
    assert matching_upper_bound(H) == result[0]
    assert brute_force_max_matching(H) == MaxMatchingResult(*result)


def test_max_matching_deep_descent_memory():
    # a 5,000-copy greedy descent: no frame keeps a placement enumerator
    # while it waits on its first child, so each holds little more than its
    # one-pair state
    H = make_hypergraph(1, 5000, Partition((1,)))
    tracemalloc.start()
    try:
        result = brute_force_max_matching(H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == MaxMatchingResult(5000, True, 5000)
    assert peak < 4_000_000


@pytest.mark.parametrize(
    "sigma, n, q, budget, result",
    [
        # 1,379,400 edges: the gcd term allows 44 copies, but a class of 11
        # rows holds two parts of 4, so 20 classes hold 40 copies' 4-parts
        ((4, 1), 20, 11, 2_000_000, (40, True, 84)),
        # the root's ceiling is 45 by either term; the slot term at inner
        # states keeps the search far under a budget of 1,000 (the gcd term
        # alone needs 15,055 states)
        ((3, 1), 20, 9, 1000, (45, True, 140)),
        ((3, 1), 40, 9, 2_000_000, (90, True, 524)),
    ],
)
def test_max_matching_part_slot_ceiling(sigma, n, q, budget, result):
    H = make_hypergraph(n, q, Partition(sigma))
    assert brute_force_max_matching(H, budget=budget) == MaxMatchingResult(*result)


@SETTINGS
@given(sigma=st.sampled_from(SIGMAS), n=st.integers(1, 4), q=st.integers(1, 5))
def test_matching_upper_bound_brackets_nu(sigma, n, q):
    # the reference's exact nu <= the class-load ceiling <= the gcd term
    H = hypergraph(sigma, n, q)
    if H is None or edge_count(H) > 3000:
        return
    d = math.gcd(*sigma)
    ref = reference_brute_force_max_matching(H)
    assert ref.exact
    assert ref.nu <= matching_upper_bound(H) <= n * (q - q % d) // H.r


@pytest.mark.parametrize("sigma", [sigma for r in range(1, 8) for sigma in partitions_of(r)], ids=str)
def test_matching_upper_bound_at_n_equals_s(sigma):
    # n = s adds the term 1 + (q - a_1) // a_s, with which the oracle also
    # prunes; its exact nu is the reference packing's, and the bound never
    # falls below it (q >= a_1, or H has no edges)
    s = len(sigma)
    packing = reference_packing(sigma, s)
    for q in range(sigma[0], sigma[0] + 7):
        H = make_hypergraph(s, q, Partition(sigma))
        exact = brute_force_max_matching(H)
        assert exact.exact
        assert exact.nu == packing((q,) * s) <= matching_upper_bound(H)


def test_load_ceiling_with_s_classes():
    # every sigma with r 2-7 and every tuple of exactly s capacities 1-9:
    # the ceiling, n = s term included, is never below the exact packing,
    # and it is above it on 18,394 of the 23,463 tuples (18,404 without
    # that term)
    checked = above = 0
    for r in range(2, 8):
        for sigma in partitions_of(r):
            s = len(sigma)
            packing = reference_packing(sigma, s)
            ceiling = verify._load_ceiling(Partition(sigma))
            for caps in itertools.combinations_with_replacement(range(9, 0, -1), s):
                groups = tuple(sorted(Counter(caps).items(), reverse=True))
                exact, bound = packing(caps), ceiling(groups)
                assert bound >= exact, (sigma, caps)
                checked += 1
                above += bound > exact
    assert (checked, above) == (23_463, 18_394)


@pytest.mark.parametrize(
    "sigma, n, q, budget",
    [
        ((2, 1), 3000, 3000, 5000),  # a greedy descent, cut by the budget
        ((3, 2), 25, 7, 2000),  # a search that backtracks
    ],
)
def test_max_matching_memory_per_state(sigma, n, q, budget):
    # the memo and the path hold one entry per state expanded: about 560
    # and 320 bytes per state here on Python 3.11, and a deep descent
    # about 550 at 20,000 states, so the default budget of 2,000,000 states
    # can reach about 1.1 GB.  The bound is loose, for other Python versions
    H = make_hypergraph(n, q, Partition(sigma))
    tracemalloc.start()
    try:
        result = brute_force_max_matching(H, budget=budget)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.nodes == budget + 1
    assert peak / result.nodes < 1024


def test_oracles_build_no_index(monkeypatch):
    # both searches read only n, q and sigma: no enumerated edge, no edge
    # count and no vertex -> edge index.  The sharp oracle's one incidence
    # call is verify_sharp_cycle's re-check of the cycle it found
    def refuse(arg):
        raise AssertionError("an oracle enumerated or counted the edges of H")

    indexed = []

    def cycle_index(edges):
        indexed.append(len(edges))
        return incidence(edges)

    for module in (core, verify):
        monkeypatch.setattr(module, "enumerate_edges", refuse, raising=False)
        monkeypatch.setattr(module, "edge_count", refuse, raising=False)
    monkeypatch.setattr(core, "incidence", refuse)
    monkeypatch.setattr(verify, "incidence", cycle_index)
    assert brute_force_max_matching(make_hypergraph(4, 6, Partition((2, 2, 2)))).nu == 4
    H = make_hypergraph(3, 4, Partition((3, 3)))
    assert brute_force_sharp_hamiltonian_exists(H, 6).status == "exhausted"
    assert indexed == []
    H = make_hypergraph(20, 20, Partition((2, 1)))  # 1,444,000 edges
    result = brute_force_sharp_hamiltonian_exists(H, 266)
    assert result.status == "found" and indexed == [len(result.certificate.edges)]


@pytest.mark.parametrize(
    "sigma, n, q, max_len, budget, outcome",
    [
        # 3 classes x 12 path edges over the budget: refused before the search
        ((2, 1), 3, 6, 12, 5, "3 classes x 12 path edges exceeds budget 5"),
        # the search needs 5 nodes, but 6 classes x 5 path edges need room
        ((2, 2), 6, 2, 5, 29, "6 classes x 5 path edges exceeds budget 29"),
        ((2, 2), 6, 2, 5, 30, "exhausted"),
        # max-len past the window [4, 6] is capped at its upper end
        ((2, 2), 6, 2, 100, 35, "6 classes x 6 path edges exceeds budget 35"),
        # the nonexistence test answers at the root, in 2 nodes, whatever
        # the path edges
        ((3, 3), 3, 4, 6, 2, "exhausted"),
        # 675 edges: the reference stops mid-tree (it needs 2,946 nodes), the
        # oracle finds a cycle after 25
        ((2, 2), 3, 6, 10, 1000, "found"),
    ],
)
def test_sharp_exists_budget_cut(sigma, n, q, max_len, budget, outcome):
    got = assert_same_sharp(make_hypergraph(n, q, Partition(sigma)), max_len, budget)
    assert got[0] == outcome or got == ("budget", outcome)


@pytest.mark.parametrize(
    "sigma, n, q, max_len, status, nodes",
    [
        ((2, 1), 3, 6, 12, "found", 14),
        ((2, 2), 3, 6, 10, "found", 25),
        ((2, 2), 3, 4, 6, "found", 19),
        # max-len in the window [4, 6] but below the shortest cycle
        ((3, 1), 3, 4, 4, "exhausted", 43),
        ((2, 2), 6, 2, 5, "exhausted", 5),
        ((1, 1, 1), 4, 4, 8, "found", 267),
    ],
)
def test_sharp_exists_reports_nodes(sigma, n, q, max_len, status, nodes):
    result = brute_force_sharp_hamiltonian_exists(make_hypergraph(n, q, Partition(sigma)), max_len)
    assert (result.status, result.nodes) == (status, nodes)


@pytest.mark.parametrize(
    "sigma, n, q, max_len, status, nodes",
    [
        ((2, 1), 3, 4, 6, "found", 128),
        # max-len in the window but below the shortest cycle
        ((3, 1), 5, 4, 7, "exhausted", 965),
        ((3, 1), 3, 4, 4, "exhausted", 43),
    ],
)
@pytest.mark.parametrize("short", [0, 1])
def test_sharp_exists_budget_at_its_node_count(sigma, n, q, max_len, status, nodes, short):
    # a budget of exactly the node count gives the same answer, one less
    # raises, and the reference agrees at both where it decides.  Each tree
    # has more nodes than n x min(max_len, hi), so neither budget is
    # refused up front
    H = make_hypergraph(n, q, Partition(sigma))
    assert n * min(max_len, sharp_cycle_bounds(H)[1]) < nodes
    got = assert_same_sharp(H, max_len, nodes - short)
    if short:
        assert got == ("budget", f"search budget {nodes - 1} exhausted")
    else:
        assert got[0] == status and got[2] == nodes


@pytest.mark.parametrize(
    "sigma, n, q, max_len",
    [
        # the nonexistence test fires: window [4, 4] with nu <= 1, and
        # window [4, 5] with nu <= 1
        ((3, 3), 3, 4, 6),
        ((3, 3, 3), 5, 5, 16),
        # max-len below the window: [8, 10] and [9, 9]
        ((2, 1), 3, 5, 7),
        ((1, 1), 3, 3, 8),
    ],
)
def test_sharp_exists_answered_at_the_root(sigma, n, q, max_len):
    # no cycle of up to max-len edges can exist, so the root answers in 2
    # nodes, at a budget of 2 too
    H = make_hypergraph(n, q, Partition(sigma))
    for budget in (2, 2_000_000):
        result = brute_force_sharp_hamiltonian_exists(H, max_len, budget=budget)
        assert (result.status, result.nodes) == ("exhausted", 2)


def test_sharp_exists_searches_from_edge_zero_only():
    # 120,000 edges and no cycle within 12 edges: 12 is below the window's
    # lower end ceil(nq/(r-1)) = 50, so the root answers, and 2 nodes decide
    # what a search from every edge needs 240,000 nodes for.  A budget below
    # those 2 raises
    H = make_hypergraph(10, 10, Partition((1, 1, 1)))
    assert edge_count(H) == 120_000
    result = brute_force_sharp_hamiltonian_exists(H, 12)
    assert (result.status, result.nodes) == ("exhausted", 2)
    assert brute_force_sharp_hamiltonian_exists(H, 12, budget=2).status == "exhausted"
    with pytest.raises(BudgetExceeded, match="search budget 1 exhausted"):
        brute_force_sharp_hamiltonian_exists(make_hypergraph(1, 1, Partition((1,))), 12, budget=1)


def test_sharp_exists_deeper_than_the_recursion_limit():
    # the search keeps one frame per path edge on its own stack, so a
    # 200-edge cycle needs no Python frame per edge
    H = make_hypergraph(2, 100, Partition((1, 1)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        result = brute_force_sharp_hamiltonian_exists(H, 200)
    finally:
        sys.setrecursionlimit(limit)
    assert result.status == "found" and len(result.certificate.edges) == 200


def test_sharp_exists_deep_search_memory():
    # 360,000 edges and a 1,200-edge cycle: memory is bounded by the 1,200
    # path frames, each a run-length state of at most two class types, not
    # by the edges of H
    H = make_hypergraph(2, 600, Partition((1, 1)))
    tracemalloc.start()
    try:
        result = brute_force_sharp_hamiltonian_exists(H, 1300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.status, len(result.certificate.edges), result.nodes) == ("found", 1200, 1200)
    assert peak < 8_000_000


# Sharp-existence answers just outside the theorem's hypotheses (n >= s+1 and
# q >= r(r-1)), searched up to floor(2nq/r) edges, the most a sharp
# Hamiltonian cycle can have: there "exhausted" proves that none exists.
OUTSIDE_HYPOTHESES = [
    ((2, 1), 2, 6, "found"),  # n = s
    ((3, 1), 2, 8, "found"),  # n = s, q < r(r-1)
    ((1, 1, 1, 1), 4, 6, "found"),  # n = s, q < r(r-1)
    ((2, 1, 1), 3, 6, "found"),  # n = s, q < r(r-1)
    ((2, 2), 3, 4, "found"),  # q < r(r-1)
    ((2, 2), 3, 3, "exhausted"),  # q < r(r-1)
]


@pytest.mark.parametrize("sigma, n, q, status", OUTSIDE_HYPOTHESES)
def test_sharp_exists_outside_the_hypotheses(sigma, n, q, status):
    H = make_hypergraph(n, q, Partition(sigma))
    assert n < H.sigma.s + 1 or q < H.r * (H.r - 1)
    lower, upper = sharp_cycle_bounds(H)
    got = assert_same_sharp(H, upper)
    assert got[0] == status
    if status == "found":
        assert lower <= len(got[1]) <= upper


# Six instances of the grid below whose edge search takes about 10 s
# together, two thirds of the grid's time: (sigma, n, q)
SLOW_EDGE_SEARCH = {
    ((2, 2), 4, 4), ((2, 2), 4, 5), ((2, 2), 4, 6),
    ((2, 1, 1), 4, 5), ((2, 1, 1), 4, 6), ((1, 1, 1), 4, 6),
}


def test_nonexistence_test_matches_the_edge_search():
    # every sigma with 2 <= r <= 4, n s..4, q a_1..6 but SLOW_EDGE_SEARCH:
    # 130 instances.  The reference edge search, which shares no rule with
    # no_cycle_reason, runs up to floor(2nq/r) edges; a reason is given
    # exactly where it exhausts, never where it finds a cycle, and an
    # instance that runs out of budget is skipped
    outcomes = []
    for r in range(2, 5):
        for sigma in partitions_of(r):
            partition = Partition(sigma)
            for n in range(partition.s, 5):
                for q in range(partition.delta_max, 7):
                    if (sigma, n, q) in SLOW_EDGE_SEARCH:
                        continue
                    H = make_hypergraph(n, q, partition)
                    try:
                        status = reference_brute_force_sharp_hamiltonian_exists(
                            H, sharp_cycle_bounds(H)[1], budget=20_000
                        ).status
                    except BudgetExceeded:
                        status = "budget"
                    fires = no_cycle_reason(H, KIND_SHARP) is not None
                    if status != "budget":
                        assert fires == (status == "exhausted"), H
                    outcomes.append(status)
    assert [outcomes.count(s) for s in ("exhausted", "found", "budget")] == [56, 73, 1]


def relabel(edge, classes, rows):
    """The image of edge when class c goes to classes[c] and row y of class c
    to row rows[c][y]."""
    return Edge.of((classes[c], rows[c][y]) for c, y in edge.vertices)


def map_onto(e0, e, n, q):
    """A class permutation and per-class row permutations that send edge e0 to
    edge e: the classes of each part size in e0 go to those of the same size
    in e, and the rows that e0 holds in a class to the rows e holds in the
    image class."""
    held0, held = [[[y for c, y in edge.vertices if c == k] for k in range(n)] for edge in (e0, e)]
    by_size0, by_size = [sorted(range(n), key=lambda k: -len(rs[k])) for rs in (held0, held)]
    classes, rows = [0] * n, [[0] * q for _ in range(n)]
    for k0, k in zip(by_size0, by_size):
        classes[k0] = k
        rest0 = [y for y in range(q) if y not in held0[k0]]
        rest = [y for y in range(q) if y not in held[k]]
        for y0, y in zip(held0[k0] + rest0, held[k] + rest):
            rows[k0][y0] = y
    return classes, rows


@settings(deadline=None, max_examples=200)
@given(sigma=st.sampled_from(SIGMAS), n=st.integers(1, 4), q=st.integers(1, 5), data=st.data())
def test_class_and_row_permutations_are_automorphisms(sigma, n, q, data):
    # the premise of the sharp search from edge 0: an edge is fixed by its
    # per-class intersection sizes alone, so relabelling classes and rows
    # maps the edge set onto itself
    H = hypergraph(sigma, n, q)
    if H is None:
        return
    classes = data.draw(st.permutations(range(n)))
    rows = [data.draw(st.permutations(range(q))) for _ in range(n)]
    edges = set(enumerate_edges(H))
    assert {relabel(e, classes, rows) for e in edges} == edges


@settings(deadline=None, max_examples=100)
@given(sigma=st.sampled_from(SIGMAS), n=st.integers(1, 4), q=st.integers(1, 5))
def test_automorphisms_are_transitive_on_edges(sigma, n, q):
    # and some relabelling sends edge 0 to any edge
    H = hypergraph(sigma, n, q)
    if H is None:
        return
    edges = list(enumerate_edges(H))
    for e in edges:
        classes, rows = map_onto(edges[0], e, n, q)
        assert sorted(classes) == list(range(n))
        assert all(sorted(perm) == list(range(q)) for perm in rows)
        assert relabel(edges[0], classes, rows) == e


@SETTINGS
@given(
    sigma=st.sampled_from(SIGMAS),
    n=st.integers(1, 4),
    q=st.integers(1, 5),
    budget=st.sampled_from([1, 20, 300, 3000, 2_000_000]),
)
def test_max_matching_matches_reference(sigma, n, q, budget):
    H = hypergraph(sigma, n, q)
    if H is None or edge_count(H) > 3000:
        return
    assert_same_matching(H, budget)


@SETTINGS
@given(
    sigma=st.sampled_from(SIGMAS),
    n=st.integers(1, 4),
    q=st.integers(1, 6),
    max_len=st.integers(4, 10),
    budget=st.sampled_from([1, 50, 500, 5000]),
)
def test_sharp_exists_matches_reference(sigma, n, q, max_len, budget):
    H = hypergraph(sigma, n, q)
    if H is None:
        return
    assert_same_sharp(H, max_len, budget)


def test_enumeration_order_matches_reference():
    # r = 6 is where three distinct part sizes first meet, so the merge of
    # one row-choice stream per part size interleaves three streams
    for sigma in SIGMAS + [sigma for sigma in partitions_of(6) if len(sigma) <= 4]:
        for n in range(1, 5):
            for q in range(1, 6):
                H = hypergraph(sigma, n, q)
                if H is not None:
                    assert list(enumerate_edges(H)) == list(reference_enumerate_edges(H))


def test_oracles_build_edges_only_for_a_found_cycle(monkeypatch):
    # max-matching builds no Edge at all, and the sharp search one per edge
    # of the cycle it found, of H's 540
    built = []
    real_edge = core.Edge

    def counted_edge(vertices):
        edge = real_edge(vertices)
        built.append(edge)
        return edge

    monkeypatch.setattr(core, "Edge", counted_edge)
    monkeypatch.setattr(verify, "Edge", counted_edge)
    H = make_hypergraph(4, 6, Partition((2, 2, 2)))
    assert brute_force_max_matching(H).nu == 4
    assert built == []
    H = make_hypergraph(3, 6, Partition((2, 1)))
    result = brute_force_sharp_hamiltonian_exists(H, 12)
    assert result.status == "found"
    assert built == list(result.certificate.edges) and len(built) == 11


def test_enumeration_is_lazy(monkeypatch):
    # 49,787,136 edges: an enumeration that built them all before the first
    # would hit the construction limit below instead of taking minutes
    H = make_hypergraph(9, 9, Partition((3, 3, 3)))
    assert edge_count(H) == 49_787_136
    built = itertools.count()
    real_edge = core.Edge

    def counted_edge(vertices):
        if next(built) > 10_000:
            raise AssertionError("enumerate_edges built more edges than were asked for")
        return real_edge(vertices)

    monkeypatch.setattr(core, "Edge", counted_edge)
    first = list(itertools.islice(enumerate_edges(H), 1000))
    monkeypatch.undo()
    assert first == list(itertools.islice(reference_enumerate_edges(H), 1000))
    assert next(enumerate_edges(H)) == first[0]


@pytest.mark.parametrize(
    "sigma, n, q, vertices",
    [
        ((2, 1), 3, 1000, ((0, 0), (0, 1), (1, 0))),
        ((3, 2), 3, 120, ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))),
    ],
)
def test_first_edge_streams_its_row_choices(sigma, n, q, vertices):
    # the first edge needs one row choice per part: an enumeration that
    # listed every row choice first would hold C(q, a) tuples per part size,
    # tens of MB here
    H = make_hypergraph(n, q, Partition(sigma))
    tracemalloc.start()
    try:
        first = next(enumerate_edges(H))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == Edge(vertices)
    assert peak < 1_000_000


def test_oracles_leave_no_reference_cycle():
    # a search state caught in a reference cycle would wait for the cyclic
    # garbage collector, and peak memory would creep up over calls
    H = make_hypergraph(3, 6, Partition((2, 1)))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        brute_force_max_matching(H)
        brute_force_sharp_hamiltonian_exists(H, 12)
        brute_force_sharp_hamiltonian_exists(make_hypergraph(3, 4, Partition((3, 3))), 6)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_edge_runs_leave_no_reference_cycle():
    # the run recursion is a module-level function, not a closure that refers
    # to itself, so enumerate_edges (run to the end or dropped midway) leaves
    # neither its generators nor its merges of part streams to the collector
    H = make_hypergraph(4, 6, Partition((2, 2, 2)))
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        list(enumerate_edges(H))
        next(enumerate_edges(H))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()

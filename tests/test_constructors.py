"""Matchings, block decomposition and the three cycle constructors."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmacycles import (
    NoCycle,
    NoRecipe,
    Partition,
    construct_berge_hamiltonian,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    diagonal_matching,
    edge_count,
    frobenius_decompose,
    make_hypergraph,
    parse_partition,
    shifted_matching,
    verify_berge_hamiltonian,
    verify_k_intersecting,
    verify_matching,
    verify_sharp_cycle,
)

from helpers import partitions_of


class TestDiagonalMatching:
    def test_edge_layout(self):
        H = make_hypergraph(3, 3, parse_partition("2,1"))
        m = diagonal_matching(H, 0, 3)
        assert m[0].vertex_set() == {(0, 0), (0, 1), (1, 2)}
        assert m[1].vertex_set() == {(1, 0), (1, 1), (2, 2)}
        assert m[2].vertex_set() == {(2, 0), (2, 1), (0, 2)}

    def test_covers_block(self):
        H = make_hypergraph(3, 3, parse_partition("2,1"))
        m = diagonal_matching(H, 0, 3)
        covered = {v for e in m for v in e.vertices}
        assert covered == {(c, row) for c in range(3) for row in range(3)}
        assert verify_matching(H, m)

    def test_offset_block(self):
        H = make_hypergraph(3, 6, parse_partition("2,1"))
        m = diagonal_matching(H, 3, 3)
        assert m[0].vertex_set() == {(0, 3), (0, 4), (1, 5)}

    def test_block_out_of_range(self):
        H = make_hypergraph(3, 3, parse_partition("2,1"))
        with pytest.raises(ValueError):
            diagonal_matching(H, 1, 3)

    @pytest.mark.parametrize(
        "matching", [diagonal_matching, lambda H, b, h: shifted_matching(H, b, h, 1)],
        ids=["diagonal", "shifted"],
    )
    def test_block_height_checked_first(self, matching):
        H = make_hypergraph(4, 6, parse_partition("2,1"))
        with pytest.raises(ValueError, match=r"^block height must be 3 or 4$"):
            matching(H, 0, H.r - 1)


class TestShiftedMatching:
    def test_edge_layout_and_intersections(self):
        H = make_hypergraph(3, 3, parse_partition("2,1"))
        diag = diagonal_matching(H, 0, 3)
        star = shifted_matching(H, 0, 3, p=1)
        assert star[0].vertex_set() == {(0, 0), (0, 1), (2, 2)}
        assert len(diag[0].vertex_set() & star[0].vertex_set()) == 2
        assert len(star[0].vertex_set() & diag[1].vertex_set()) == 1
        assert verify_matching(H, star)
        assert all(s != d for s in star for d in diag)

    def test_tall_block_swaps_first_part_row(self):
        H = make_hypergraph(3, 4, parse_partition("2,1"))
        diag = diagonal_matching(H, 0, 4)
        star = shifted_matching(H, 0, 4, p=1)
        assert star[0].vertex_set() == {(0, 0), (0, 3), (2, 2)}
        assert len(diag[0].vertex_set() & star[0].vertex_set()) == 1
        # the swap makes the matching cover the block's extra row
        assert {v for e in diag + star for v in e.vertices} >= {(c, 3) for c in range(3)}

    def test_requires_extra_class(self):
        H = make_hypergraph(2, 3, parse_partition("2,1"))
        with pytest.raises(NoRecipe, match=r"^n=2 <= s=2: shifted edges would collide$"):
            shifted_matching(H, 0, 3, p=1)

    def test_split_range(self):
        H = make_hypergraph(3, 3, parse_partition("2,1"))
        for p in (0, 2, True):
            with pytest.raises(ValueError):
                shifted_matching(H, 0, 3, p=p)


class TestFrobenius:
    @pytest.mark.parametrize(
        "q,r,expected",
        [((6), 3, (2, 0)), (7, 3, (1, 1)), (13, 4, (2, 1)), (5, 4, (0, 1))],
    )
    def test_examples(self, q, r, expected):
        assert frobenius_decompose(q, r) == expected

    def test_not_representable(self):
        with pytest.raises(NoRecipe, match=r"^q=1 is not x\*3 \+ y\*4 with x, y >= 0$"):
            frobenius_decompose(1, 3)
        with pytest.raises(NoRecipe, match=r"^q=5 is not x\*3 \+ y\*4"):
            frobenius_decompose(5, 3)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            frobenius_decompose(6, 1)
        with pytest.raises(ValueError):
            frobenius_decompose(0, 3)


class TestBergeConstructor:
    def test_nine_edge_cycle(self):
        H = make_hypergraph(3, 3, parse_partition("2,1"))
        cert = construct_berge_hamiltonian(H)
        assert len(cert.edges) == 9
        assert len(set(cert.edges)) == 9
        assert len(cert.vertex_sequence) == 9
        report = verify_berge_hamiltonian(H, cert)
        assert report.ok and report.hamiltonian

    def test_single_edge_graph(self):
        # one edge is a case of too few edges
        with pytest.raises(NoCycle, match="too few edges for a cycle through all 4 vertices"):
            construct_berge_hamiltonian(make_hypergraph(2, 2, parse_partition("2,2")))

    def test_too_few_edges(self):
        with pytest.raises(NoCycle, match="too few edges"):
            construct_berge_hamiltonian(make_hypergraph(3, 2, parse_partition("2,2")))

    @pytest.mark.parametrize(
        "sigma, n, q, reason",
        [
            ("3,3", 2, 3, "too few edges for a cycle through all 6 vertices"),
            ("1", 1, 1, "an edge of one vertex links no two cycle vertices"),
        ],
    )
    def test_single_edge_cases(self, sigma, n, q, reason):
        with pytest.raises(NoCycle, match=reason):
            construct_berge_hamiltonian(make_hypergraph(n, q, parse_partition(sigma)))

    @pytest.mark.parametrize("sigma, n, q", [("2,2", 4, 2), ("3,3", 5, 3)])
    def test_too_few_edges_message(self, sigma, n, q):
        # C(n, 2) < nq edges: no Berge cycle through all nq vertices exists
        H = make_hypergraph(n, q, parse_partition(sigma))
        assert edge_count(H) < n * q
        with pytest.raises(NoCycle, match="too few edges for a cycle through all"):
            construct_berge_hamiltonian(H)

    def test_walk_recipe_refusal_does_not_deny_a_cycle(self):
        # 10 edges for 10 vertices, and a Berge Hamiltonian cycle exists: the
        # refusal names the recipe's limit, not the absence of a cycle
        H = make_hypergraph(5, 2, parse_partition("2,2"))
        assert edge_count(H) == 10
        with pytest.raises(NoRecipe) as info:
            construct_berge_hamiltonian(H)
        assert "walk recipe does not cover" in str(info.value)
        assert "too few edges" not in str(info.value)

    @pytest.mark.parametrize("n, q", [(1, 2), (3, 1), (3, 4)])
    def test_r1_refused_up_front(self, n, q):
        with pytest.raises(NoCycle) as info:
            construct_berge_hamiltonian(make_hypergraph(n, q, parse_partition("1")))
        assert "an edge of one vertex links no two cycle vertices" in str(info.value)

    def test_graph_case(self):
        H = make_hypergraph(3, 2, parse_partition("1,1"))
        cert = construct_berge_hamiltonian(H)
        assert len(cert.edges) == 6
        assert verify_berge_hamiltonian(H, cert).ok

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_sweep_verified(self, data):
        r = data.draw(st.integers(min_value=2, max_value=5))
        sigma = data.draw(
            st.sampled_from([p for p in sorted(partitions_of(r)) if len(p) >= 2])
        )
        p = Partition(sigma)
        n = data.draw(st.integers(min_value=p.s, max_value=5))
        q = data.draw(st.integers(min_value=p.delta_max, max_value=5))
        H = make_hypergraph(n, q, p)
        if p.rectangular and q == p.delta_max and (n == p.s or p.delta_max >= 2):
            return
        cert = construct_berge_hamiltonian(H)
        assert verify_berge_hamiltonian(H, cert).ok


class TestSharpConstructor:
    def test_two_block_cycle(self):
        H = make_hypergraph(3, 6, parse_partition("2,1"))
        cert = construct_sharp_hamiltonian(H, p=1)
        assert len(cert.edges) == 12
        assert (cert.claimed_t, cert.claimed_z) == (2, 1)
        assert len({v for e in cert.edges for v in e.vertices}) == 18
        report = verify_sharp_cycle(H, cert)
        assert report.ok and report.hamiltonian

    def test_single_tall_block(self):
        H = make_hypergraph(3, 5, parse_partition("2,2"))
        cert = construct_sharp_hamiltonian(H, p=1)
        assert len(cert.edges) == 6
        assert (cert.claimed_t, cert.claimed_z) == (1, 2)
        assert len({v for e in cert.edges for v in e.vertices}) == 15

    def test_n_too_small(self):
        with pytest.raises(NoRecipe, match=r"^n=2 <= s=2$"):
            construct_sharp_hamiltonian(make_hypergraph(2, 6, parse_partition("2,1")))

    @pytest.mark.parametrize("p", [0, 2, True, 1.0])
    @pytest.mark.parametrize("n, q", [(2, 6), (4, 5), (4, 6)])
    def test_bad_split_refused_first(self, n, q, p):
        # before the NoRecipe refusals of n = 2 <= s and of q = 5, and
        # before building
        with pytest.raises(ValueError, match=r"split_index must be an integer in 1\.\.1"):
            construct_sharp_hamiltonian(make_hypergraph(n, q, parse_partition("2,1")), p=p)

    def test_degenerate_split(self):
        # q forces an (r+1)-block and every split head has size 1
        with pytest.raises(NoRecipe, match="every split gives a zero intersection"):
            construct_sharp_hamiltonian(make_hypergraph(3, 3, parse_partition("1,1")))

    def test_split_retry_prefers_wider_head(self):
        # requested split has head sum 1; the constructor moves it right
        H = make_hypergraph(4, 4, parse_partition("1,1,1"))
        cert = construct_sharp_hamiltonian(H, p=1)
        assert cert.split_index == 2
        assert verify_sharp_cycle(H, cert).ok


class TestKIntersectingConstructor:
    def test_three_intersecting(self):
        H = make_hypergraph(4, 3, parse_partition("1,1,1"))
        cert = construct_k_intersecting(H, 3)
        assert len(cert.edges) == 12
        report = verify_k_intersecting(H, cert, 3)
        assert report.ok and report.hamiltonian
        # each window of 3 consecutive edges meets exactly in the first part
        # of its leading diagonal edge
        sets = [e.vertex_set() for e in cert.edges]
        for i in range(4):
            window = sets[3 * i] & sets[3 * i + 1] & sets[3 * i + 2]
            assert window == {(i, 0)}

    def test_k2_matches_sharp_shape(self):
        H = make_hypergraph(4, 5, parse_partition("2,2,1"))
        cert = construct_k_intersecting(H, 2)
        assert len(cert.edges) == 8
        as_sharp = cert.replace(kind="sharp", k=None)
        assert verify_sharp_cycle(H, as_sharp).ok
        # k=2 is the block chain with the single threshold 1, as is split 1
        assert cert.edges == construct_sharp_hamiltonian(H, 1).edges

    def test_degenerate_tall_block(self):
        with pytest.raises(NoRecipe, match="threshold 1 gives a zero intersection"):
            construct_k_intersecting(make_hypergraph(3, 3, parse_partition("1,1")), 2)

    def test_degenerate_message_names_threshold(self):
        # q=4 forces an (r+1)-block; threshold 2 keeps a shared vertex, only
        # threshold 1 leaves the intersection empty
        H = make_hypergraph(4, 4, parse_partition("1,1,1"))
        with pytest.raises(NoRecipe) as info:
            construct_k_intersecting(H, 3)
        assert str(info.value) == (
            "sigma=(1,1,1) with an (r+1)-block: threshold 1 gives a zero intersection"
        )

    def test_k_out_of_range(self):
        H = make_hypergraph(4, 3, parse_partition("1,1,1"))
        with pytest.raises(NoRecipe, match=r"^k=4 outside \[2, 3\]$"):
            construct_k_intersecting(H, 4)
        # below 2, k breaks the rule for k itself, as in a certificate
        for k in (0, 1):
            with pytest.raises(ValueError, match="k must be an integer >= 2"):
                construct_k_intersecting(H, k)

    @pytest.mark.parametrize("k", [2.0, 3.0, True])
    def test_k_not_an_int(self, k):
        # refused before the range and n checks: n = s here
        H = make_hypergraph(3, 3, parse_partition("1,1,1"))
        with pytest.raises(ValueError, match="k must be an integer >= 2"):
            construct_k_intersecting(H, k)

    def test_n_too_small(self):
        with pytest.raises(NoRecipe, match=r"^n=3 <= s=3$"):
            construct_k_intersecting(make_hypergraph(3, 3, parse_partition("1,1,1")), 2)


CONSTRUCTORS = [
    construct_berge_hamiltonian,
    construct_sharp_hamiltonian,
    lambda H: construct_k_intersecting(H, 2),
]
CONSTRUCTOR_IDS = ["berge", "sharp", "k-intersecting"]


class TestNoCycleFirst:
    @pytest.mark.parametrize("build", CONSTRUCTORS, ids=CONSTRUCTOR_IDS)
    @pytest.mark.parametrize("n, q", [(1, 1), (1, 3), (4, 2)])
    def test_r1(self, build, n, q):
        with pytest.raises(NoCycle, match="an edge of one vertex links no two cycle vertices$"):
            build(make_hypergraph(n, q, parse_partition("1")))

    @pytest.mark.parametrize("build", CONSTRUCTORS, ids=CONSTRUCTOR_IDS)
    @pytest.mark.parametrize("sigma, n, q", [("2", 2, 2), ("3", 2, 5), ("3", 3, 3)])
    def test_one_part_disconnected(self, build, sigma, n, q):
        # each edge lies in one class; (3) n=3 q=3 also has fewer than nq edges
        with pytest.raises(NoCycle, match="every edge lies in one class, so H is disconnected$"):
            build(make_hypergraph(n, q, parse_partition(sigma)))

    @pytest.mark.parametrize(
        "build, message",
        [
            (construct_sharp_hamiltonian, "sharp construction needs at least two parts"),
            (lambda H: construct_k_intersecting(H, 2), "k-intersecting construction needs at least two parts"),
        ],
        ids=["sharp", "k-intersecting"],
    )
    def test_one_part_one_class_has_no_recipe(self, build, message):
        # n = 1: H is the complete 2-uniform hypergraph on 5 vertices, whose
        # Berge cycle the walk builds
        H = make_hypergraph(1, 5, parse_partition("2"))
        assert verify_berge_hamiltonian(H, construct_berge_hamiltonian(H)).ok
        with pytest.raises(NoRecipe, match=f"^{message}$"):
            build(H)


class TestSizeCap:
    # just over export's 1,000,000-item limit: a missing cap costs seconds
    @pytest.mark.parametrize(
        "build, sigma, n, q, slots",
        [
            (construct_sharp_hamiltonian, "2,1", 3, 200_000, 1_199_988),
            (lambda H: construct_k_intersecting(H, 3), "2,1,1", 4, 100_000, 1_200_000),
            (construct_berge_hamiltonian, "2,1", 3, 200_000, 1_800_000),
        ],
        ids=["sharp", "k-intersecting", "berge"],
    )
    def test_refused_before_building(self, build, sigma, n, q, slots):
        H = make_hypergraph(n, q, parse_partition(sigma))
        with pytest.raises(ValueError, match=f"{slots} certificate vertex slots exceed the limit"):
            build(H)

    def test_benchmark_sizes_build(self):
        # the largest certificates the benchmark constructs stay under the cap
        H = make_hypergraph(60, 120, parse_partition("3,2,1"))
        assert len(construct_berge_hamiltonian(H).edges) == 7200
        assert len(construct_sharp_hamiltonian(H).edges) == 2400

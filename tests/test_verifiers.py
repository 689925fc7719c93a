"""Verifiers, bound calculators and brute-force oracles."""

import pytest

from helpers import partitions_of
from sigmacycles import (
    KIND_BERGE,
    KIND_K_INTERSECTING,
    KIND_SHARP,
    BudgetExceeded,
    Partition,
    CycleCertificate,
    Edge,
    brute_force_max_matching,
    brute_force_sharp_hamiltonian_exists,
    construct_berge_hamiltonian,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    diagonal_matching,
    make_hypergraph,
    matching_upper_bound,
    no_cycle_reason,
    parse_partition,
    sharp_cycle_bounds,
    verify_berge_hamiltonian,
    verify_k_intersecting,
    verify_matching,
    verify_sharp_cycle,
)


def H(n, q, sigma):
    return make_hypergraph(n, q, parse_partition(sigma))


def refutes_sharp(h):
    return no_cycle_reason(h, KIND_SHARP) is not None


class TestBergeVerifier:
    def test_constructed_passes(self):
        h = H(3, 3, "2,1")
        report = verify_berge_hamiltonian(h, construct_berge_hamiltonian(h))
        assert report.ok
        assert report.hamiltonian
        assert report.violated_condition is None

    def test_report_carries_detail(self):
        h = H(3, 3, "2,1")
        cert = construct_berge_hamiltonian(h)
        seq = list(cert.vertex_sequence)
        seq[1], seq[2] = seq[2], seq[1]
        report = verify_berge_hamiltonian(h, cert.replace(vertex_sequence=tuple(seq)))
        assert not report.ok
        assert report.violated_condition == "membership-violated"
        assert report.detail

    def test_one_vertex_is_no_cycle(self):
        # the 1 x 1 grid: one edge of one vertex links no two cycle
        # vertices, which is why construct_berge_hamiltonian raises NoCycle
        h = H(1, 1, "1")
        cert = CycleCertificate(h, KIND_BERGE, (Edge.of([(0, 0)]),), vertex_sequence=((0, 0),))
        report = verify_berge_hamiltonian(h, cert)
        assert (report.ok, report.violated_condition, report.detail, report.hamiltonian) == (
            False, "degenerate-length", "1 edge; a Berge cycle needs at least 2", None
        )
        # an out-of-bounds vertex keeps its tag: the rule comes after the
        # vertex checks
        report = verify_berge_hamiltonian(h, cert.replace(vertex_sequence=((0, 1),)))
        assert report.violated_condition == "coverage-gap"

    # A certificate file cannot carry these: the reader requires
    # vertex_sequence and rejects an out-of-range row before any check runs.
    @pytest.mark.parametrize(
        "change, detail",
        [
            (lambda seq: None, "vertex sequence missing or length differs from edge count"),
            (lambda seq: seq[:-1], "vertex sequence missing or length differs from edge count"),
            (lambda seq: seq[:-1] + ((4, 0),), "vertex (4, 0) out of bounds"),
        ],
        ids=["missing", "one-short", "out-of-bounds"],
    )
    def test_in_process_sequence_faults(self, change, detail):
        h = H(4, 6, "2,1")
        cert = construct_berge_hamiltonian(h)
        bad = cert.replace(vertex_sequence=change(cert.vertex_sequence))
        report = verify_berge_hamiltonian(h, bad)
        assert (report.ok, report.violated_condition, report.detail) == (
            False, "coverage-gap", detail
        )


class TestKindChecks:
    @pytest.mark.parametrize(
        "verifier, kind, message",
        [
            (verify_berge_hamiltonian, "sharp", "expected a berge certificate, got 'sharp'"),
            (verify_sharp_cycle, "berge", "expected a sharp certificate, got 'berge'"),
            (
                lambda h, cert: verify_k_intersecting(h, cert, 3),
                "berge",
                "expected a k-intersecting certificate, got 'berge'",
            ),
        ],
        ids=["berge", "sharp", "k-intersecting"],
    )
    def test_wrong_kind_raises(self, verifier, kind, message):
        h = H(4, 6, "2,1")
        certs = {"sharp": construct_sharp_hamiltonian(h), "berge": construct_berge_hamiltonian(h)}
        with pytest.raises(ValueError) as exc:
            verifier(h, certs[kind])
        assert str(exc.value) == message


class TestSharpVerifier:
    def test_constructed_passes_with_profile(self):
        h = H(3, 6, "2,1")
        report = verify_sharp_cycle(h, construct_sharp_hamiltonian(h, p=1))
        assert report.ok and report.hamiltonian
        assert report.profile.uniform_t == 2
        assert report.profile.uniform_z == 1
        assert not report.profile.t_sharp
        assert report.profile.pair_sizes == (2, 1) * 6

    def test_t_sharp_profile(self):
        h = H(3, 8, "2,2")
        report = verify_sharp_cycle(h, construct_sharp_hamiltonian(h, p=1))
        assert report.ok
        assert report.profile.uniform_t == 2
        assert report.profile.uniform_z == 2
        assert report.profile.t_sharp

    def test_missing_edge_detected(self):
        h = H(3, 6, "2,1")
        cert = construct_sharp_hamiltonian(h)
        short = cert.replace(edges=cert.edges[:-1])
        report = verify_sharp_cycle(h, short)
        assert not report.ok
        assert report.violated_condition == "consecutive-intersection-empty"

    def test_failing_report_measures_no_coverage(self):
        # the swapped cycle still covers all 24 vertices: a refuted report
        # says "not measured", not "misses a vertex"
        h = H(4, 6, "2,1")
        cert = construct_sharp_hamiltonian(h)
        edges = cert.edges[:-2] + (cert.edges[-1], cert.edges[-2])
        assert len({v for e in edges for v in e.vertices}) == 24
        report = verify_sharp_cycle(h, cert.replace(edges=edges))
        assert report.violated_condition == "forbidden-intersection-nonempty"
        assert report.hamiltonian is None


class TestKIntersectingVerifier:
    def test_constructed_passes_full_subset_check(self):
        h = H(4, 3, "1,1,1")
        report = verify_k_intersecting(h, construct_k_intersecting(h, 3), 3)
        assert report.ok and report.hamiltonian
        assert report.window_sizes and all(w >= 1 for w in report.window_sizes)

    def test_k2_delegates_to_sharp_verdict(self):
        h = H(4, 5, "2,2,1")
        cert = construct_k_intersecting(h, 2)
        as_sharp = cert.replace(kind="sharp", k=None)
        assert verify_k_intersecting(h, cert, 2).ok == verify_sharp_cycle(h, as_sharp).ok

    def test_large_certificate_fully_verified(self):
        # C(420, 3) = 12,259,940 subsets: past what a subset sweep can afford
        h = H(14, 40, "2,1,1")
        cert = construct_k_intersecting(h, 3)
        assert len(cert.edges) == 420
        report = verify_k_intersecting(h, cert, 3)
        assert report.ok and report.hamiltonian
        assert len(report.window_sizes) == 420

    def test_k_below_two_rejected(self):
        h = H(4, 3, "1,1,1")
        with pytest.raises(ValueError):
            verify_k_intersecting(h, construct_k_intersecting(h, 3), 1)

    @pytest.mark.parametrize("k", [2.0, 3.0, True])
    def test_k_not_an_int_rejected(self, k):
        # before any edge is checked: two edges are not even a cycle
        h = H(4, 3, "1,1,1")
        cert = construct_k_intersecting(h, 3)
        with pytest.raises(ValueError, match="k must be an integer >= 2"):
            verify_k_intersecting(h, cert.replace(edges=cert.edges[:2]), k)


class TestVerifyMatching:
    def test_diagonal_matching_passes(self):
        h = H(3, 3, "2,1")
        assert verify_matching(h, diagonal_matching(h, 0, 3))

    def test_shared_vertex_fails(self):
        h = H(3, 3, "2,1")
        e1 = Edge.of([(0, 0), (0, 1), (1, 0)])
        e2 = Edge.of([(1, 0), (1, 1), (2, 0)])
        assert not verify_matching(h, [e1, e2])

    def test_empty_is_vacuous(self):
        assert verify_matching(H(3, 3, "2,1"), [])

    def test_non_edge_fails(self):
        h = H(3, 3, "2,1")
        assert not verify_matching(h, [Edge.of([(0, 0), (1, 0), (2, 0)])])


class TestBounds:
    def test_matching_upper_bound_examples(self):
        # the gcd term: q mod d rows of each class stay unmatched
        assert matching_upper_bound(H(2, 3, "2,2")) == 1
        assert matching_upper_bound(H(4, 7, "3,3")) == 4
        # square partition: 3 of each class's 5 rows are usable, and
        # 15 // 9 = 1, where nq/r = 25/9
        assert matching_upper_bound(H(5, 5, "3,3,3")) == 1

    def test_matching_upper_bound_without_gcd(self):
        # gcd 1: nq/r = 4, the slot terms allow 6
        assert matching_upper_bound(H(3, 4, "2,1")) == 4
        # a class of 11 rows holds two parts of 4: 40 copies, not 220 // 5
        assert matching_upper_bound(H(20, 11, "4,1")) == 40

    def test_matching_upper_bound_takes_no_time_in_n(self):
        # one capacity counted n times: no tuple of n classes is built
        assert matching_upper_bound(H(10**9, 5, "2,1")) == 5 * 10**9 // 3

    def test_sharp_cycle_bounds(self):
        # [max(4, ceil(nq/(r-1))), floor(2nq/r)], two ints
        assert sharp_cycle_bounds(H(3, 6, "2,1")) == (9, 12)
        # nq/(r-1) = 25/8 and 2nq/r = 50/9
        assert sharp_cycle_bounds(H(5, 5, "3,3,3")) == (4, 5)
        assert all(type(end) is int for end in sharp_cycle_bounds(H(5, 5, "3,3,3")))

    def test_r2_bounds_collapse(self):
        lo, hi = sharp_cycle_bounds(H(3, 4, "1,1"))
        assert lo == hi == 12

    def test_four_edge_floor(self):
        # nq/(r-1) = 2, but a sharp cycle has at least 4 edges, and
        # 2nq/r = 3: the window is empty, so a reason is given
        assert sharp_cycle_bounds(H(2, 3, "2,2")) == (4, 3)
        assert no_cycle_reason(H(2, 3, "2,2"), KIND_SHARP) == (
            "edge-count window [4, 3] and max matching <= 1 leave no sharp cycle"
        )

    def test_r1_rejected(self):
        # nq/(r-1) has no value for r = 1, but no cycle of any kind exists
        h = H(3, 3, "1")
        with pytest.raises(ValueError, match="r >= 2"):
            sharp_cycle_bounds(h)
        for kind in (KIND_BERGE, KIND_SHARP, KIND_K_INTERSECTING):
            assert no_cycle_reason(h, kind) == "an edge of one vertex links no two cycle vertices"

    def test_nonexistence(self):
        assert refutes_sharp(H(5, 5, "3,3,3"))
        assert not refutes_sharp(H(3, 6, "2,1"))
        # window [4, 4]: a 4-edge cycle's alternate edges are a matching of
        # 2, and nu = 1 (2nu + 1 < nq/(r-1) = 3 does not hold)
        assert sharp_cycle_bounds(H(3, 3, "2,2")) == (4, 4)
        assert refutes_sharp(H(3, 3, "2,2"))

    def test_the_rule_reads_the_matching_bound(self):
        # the class-load ceiling allows 1 on window [4, 4], and 6 on [9, 12]
        assert no_cycle_reason(H(3, 3, "2,2"), KIND_SHARP) == (
            "edge-count window [4, 4] and max matching <= 1 leave no sharp cycle"
        )
        assert no_cycle_reason(H(3, 6, "2,1"), KIND_SHARP) is None

    def test_disconnected(self):
        # one part and n >= 2: every edge lies in one class.  The window
        # [12, 12] and nu <= 6 alone would not refute
        h = H(3, 4, "2")
        assert sharp_cycle_bounds(h) == (12, 12)
        assert matching_upper_bound(h) == 6
        for kind in (KIND_BERGE, KIND_SHARP, KIND_K_INTERSECTING):
            assert no_cycle_reason(h, kind) == "every edge lies in one class, so H is disconnected"
        assert not refutes_sharp(H(1, 4, "2"))

    def test_berge_edge_count(self):
        # C(4,2) = 6 edges for 4 vertices, and one edge for 3: too few for
        # the Berge cycle only
        assert no_cycle_reason(H(1, 4, "2"), KIND_BERGE) is None
        h = H(1, 3, "3")
        assert no_cycle_reason(h, KIND_BERGE) == "too few edges for a cycle through all 3 vertices"
        assert no_cycle_reason(h, KIND_K_INTERSECTING) is None

    def test_k_has_only_the_common_rules(self):
        # the sharp window refutes, but no rule here covers k
        h = H(2, 3, "2,2")
        assert refutes_sharp(h)
        assert no_cycle_reason(h, KIND_K_INTERSECTING) is None

    def test_nonexistence_boundary_is_strict(self):
        # window [9, 9] and floor(9/2) = 4 = nu <= 4 exactly: must not fire.
        # Window [4, 4] and floor(4/2) = 2, one above nu <= 1: fires
        h = H(3, 3, "1,1")
        assert (sharp_cycle_bounds(h), matching_upper_bound(h)) == ((9, 9), 4)
        assert not refutes_sharp(h)
        h = H(3, 3, "2,2")
        assert (sharp_cycle_bounds(h), matching_upper_bound(h)) == ((4, 4), 1)
        assert refutes_sharp(h)

    def test_never_weaker_than_the_fractional_rule(self):
        # 2nu + 1 < nq/(r-1) implies nu + 1 <= floor(lo/2), with nu the
        # built-in bound.  Past one-part sigma, the fractional rule holds on
        # two instances of this grid, and the window rule refutes both
        fired = []
        for r in range(2, 10):
            for sigma in partitions_of(r):
                for n in range(len(sigma), 9):
                    for q in range(sigma[0], 13):
                        h = make_hypergraph(n, q, Partition(sigma))
                        if (2 * matching_upper_bound(h) + 1) * (r - 1) < n * q:
                            assert refutes_sharp(h), h
                            if len(sigma) > 1:
                                fired.append((sigma, n, q))
                                assert no_cycle_reason(h, KIND_SHARP).startswith("edge-count window")
        assert fired == [((5, 1, 1, 1, 1), 5, 5), ((3, 3, 3), 5, 5)]


class TestMaxMatchingOracle:
    def test_small_exact(self):
        res = brute_force_max_matching(H(2, 3, "2,2"))
        assert res.exact and res.nu == 1

    def test_three_disjoint(self):
        res = brute_force_max_matching(H(3, 5, "2,2"))
        assert res.exact and res.nu == 3

    def test_budget(self):
        # 10,000 edges, more than the budget, which counts class-load states
        res = brute_force_max_matching(H(5, 5, "3,3,3"), budget=100)
        assert res.exact and res.nu == 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
            brute_force_max_matching(H(2, 3, "2,2"), budget=-1)

    def test_oracle_meets_divisibility_bound(self):
        h = H(2, 3, "2,2")
        assert brute_force_max_matching(h).nu == matching_upper_bound(h) == 1


class TestSharpExistsOracle:
    def test_found_result_is_verified(self):
        h = H(3, 3, "2,1")
        res = brute_force_sharp_hamiltonian_exists(h, max_len=6)
        assert res.status == "found"
        assert verify_sharp_cycle(h, res.certificate).ok

    def test_graph_cycle(self):
        res = brute_force_sharp_hamiltonian_exists(H(2, 2, "1,1"), max_len=6)
        assert res.status == "found"
        assert len(res.certificate.edges) == 4

    def test_exhausted(self):
        res = brute_force_sharp_hamiltonian_exists(H(4, 4, "4,1,1,1"), max_len=4)
        assert res.status == "exhausted"

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_force_sharp_hamiltonian_exists(H(3, 6, "2,1"), max_len=12, budget=5)

    @pytest.mark.parametrize("max_len, budget", [(-1, 100), (6, -1)])
    def test_negative_limits_rejected(self, max_len, budget):
        with pytest.raises(ValueError, match="must be >= 0"):
            brute_force_sharp_hamiltonian_exists(H(2, 2, "1,1"), max_len=max_len, budget=budget)

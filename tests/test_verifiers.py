"""Verifiers, bound calculators and brute-force oracles."""

from fractions import Fraction

import pytest

from sigmacycles import (
    BudgetExceeded,
    Edge,
    brute_force_max_matching,
    brute_force_sharp_hamiltonian_exists,
    construct_berge_hamiltonian,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    diagonal_matching,
    make_hypergraph,
    matching_upper_bound,
    parse_partition,
    sharp_cycle_bounds,
    sharp_nonexistence_test,
    verify_berge_hamiltonian,
    verify_k_intersecting,
    verify_matching,
    verify_sharp_cycle,
)


def H(n, q, sigma):
    return make_hypergraph(n, q, parse_partition(sigma))


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
        assert sharp_cycle_bounds(H(3, 6, "2,1")) == (Fraction(9), Fraction(12))
        assert sharp_cycle_bounds(H(5, 5, "3,3,3")) == (Fraction(25, 8), Fraction(50, 9))

    def test_r2_bounds_collapse(self):
        lo, hi = sharp_cycle_bounds(H(3, 4, "1,1"))
        assert lo == hi == 12

    def test_r1_rejected(self):
        # nq/(r-1) has no value for r = 1
        h = H(3, 3, "1")
        with pytest.raises(ValueError, match="r >= 2"):
            sharp_cycle_bounds(h)
        with pytest.raises(ValueError, match="r >= 2"):
            sharp_nonexistence_test(h, 1)

    def test_nonexistence(self):
        assert sharp_nonexistence_test(H(5, 5, "3,3,3"), 1)
        assert not sharp_nonexistence_test(H(3, 6, "2,1"), 6)

    def test_nonexistence_boundary_is_strict(self):
        # n*q/(r-1) = 9 and 2*nu+1 = 9 exactly: must not fire
        h = H(3, 3, "1,1")
        assert Fraction(h.vertex_count, h.r - 1) == 9
        assert not sharp_nonexistence_test(h, 4)

    def test_negative_nu_rejected(self):
        # 2*nu + 1 < nq/(r-1) holds for every nu < 0 and would refute a
        # hypergraph that has a sharp Hamiltonian cycle
        h = H(3, 6, "2,1")
        with pytest.raises(ValueError, match="nu must be >= 0"):
            sharp_nonexistence_test(h, -5)
        assert sharp_nonexistence_test(h, 0)


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

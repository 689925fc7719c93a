"""Acceptance checks. Each test records one PASS/FAIL verdict line, printed
in the terminal summary after the run (see conftest.py)."""

import time
from contextlib import contextmanager

from sigmacycles import (
    KIND_SHARP,
    NoRecipe,
    Partition,
    brute_force_max_matching,
    construct_berge_hamiltonian,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    edge_count,
    frobenius_decompose,
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

from conftest import ACCEPTANCE_RESULTS
from helpers import exhaustive_edge_count, partitions_of
from mutation_cases import berge_mutations, k_intersecting_mutations, sharp_mutations

VERIFIERS = {
    "berge": lambda H, c: verify_berge_hamiltonian(H, c),
    "sharp": lambda H, c: verify_sharp_cycle(H, c),
    "k-intersecting": lambda H, c: verify_k_intersecting(H, c),
}


@contextmanager
def criterion(num: int, label: str, limit_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        ACCEPTANCE_RESULTS.append(f"criterion {num:2d} [{label}]: FAIL")
        raise
    elapsed = time.monotonic() - start
    if limit_s is not None and elapsed >= limit_s:
        ACCEPTANCE_RESULTS.append(
            f"criterion {num:2d} [{label}]: FAIL (took {elapsed:.1f}s, limit {limit_s}s)"
        )
        raise AssertionError(f"criterion {num} exceeded {limit_s}s ({elapsed:.1f}s)")
    ACCEPTANCE_RESULTS.append(f"criterion {num:2d} [{label}]: PASS ({elapsed:.2f}s)")


def sharp_sweep_cases():
    for r in range(2, 6):
        for parts in partitions_of(r):
            if len(parts) < 2:
                continue
            sigma = Partition(parts)
            for n in (sigma.s + 1, sigma.s + 2):
                for q in range(r * (r - 1), r * (r - 1) + 2 * r + 1):
                    yield sigma, n, q


_SHARP_SWEEP_CERTS = []


def test_criterion_01_nine_edge_cycle():
    with criterion(1, "nine-edge cycle on the 3x3 grid", limit_s=1.0):
        H = make_hypergraph(3, 3, parse_partition("2,1"))
        cert = construct_berge_hamiltonian(H)
        assert len(cert.edges) == 9
        assert len(set(cert.edges)) == 9
        assert len(cert.vertex_sequence) == 9
        assert verify_berge_hamiltonian(H, cert).ok


def test_criterion_02_sharp_sweep():
    with criterion(2, "sharp constructor sweep, r <= 5", limit_s=60.0):
        cases = list(sharp_sweep_cases())
        assert len(cases) == 242
        for sigma, n, q in cases:
            H = make_hypergraph(n, q, sigma)
            x, y = frobenius_decompose(q, sigma.r)
            try:
                cert = construct_sharp_hamiltonian(H)
            except NoRecipe as exc:
                assert "every split gives a zero intersection" in str(exc)
                assert sigma.delta_max == 1 and y > 0
                continue
            report = verify_sharp_cycle(H, cert)
            assert report.ok and report.hamiltonian
            _SHARP_SWEEP_CERTS.append((H, cert))
        assert _SHARP_SWEEP_CERTS


def test_criterion_03_profiles():
    with criterion(3, "measured (t,z) profiles"):
        H = make_hypergraph(3, 6, parse_partition("2,1"))
        report = verify_sharp_cycle(H, construct_sharp_hamiltonian(H, p=1))
        assert report.profile.uniform_t == 2
        assert report.profile.uniform_z == 1
        assert not report.profile.t_sharp

        H = make_hypergraph(3, 8, parse_partition("2,2"))
        report = verify_sharp_cycle(H, construct_sharp_hamiltonian(H, p=1))
        assert report.profile.uniform_t == 2
        assert report.profile.uniform_z == 2
        assert report.profile.t_sharp


def test_criterion_04_square_nonexistence():
    with criterion(4, "square-partition matching number and refutation", limit_s=30.0):
        H = make_hypergraph(5, 5, parse_partition("3,3,3"))
        assert edge_count(H) == 10_000
        result = brute_force_max_matching(H)
        assert result.exact
        assert result.nu == 1
        assert matching_upper_bound(H) == result.nu
        assert no_cycle_reason(H, KIND_SHARP) == (
            "edge-count window [4, 5] and max matching <= 1 leave no sharp cycle"
        )
        # nq/(r-1) = 25/8: a cycle of at least 4 edges needs a matching of 2
        assert sharp_cycle_bounds(H) == (4, 5)


def test_criterion_05_matching_bound_tightness():
    with criterion(5, "matching bound vs oracle"):
        H = make_hypergraph(2, 3, parse_partition("2,2"))
        assert matching_upper_bound(H) == 1
        assert brute_force_max_matching(H).nu == 1

        H = make_hypergraph(3, 5, parse_partition("2,2"))
        assert matching_upper_bound(H) == 3
        assert brute_force_max_matching(H).nu == 3

        # the square partition: the bound alone refutes a sharp cycle
        H = make_hypergraph(5, 5, parse_partition("3,3,3"))
        assert matching_upper_bound(H) == 1
        assert no_cycle_reason(H, KIND_SHARP) is not None


def test_criterion_06_k_intersecting_sweep():
    with criterion(6, "k-intersecting constructor sweep", limit_s=120.0):
        checked = 0
        for sigma_text in ("1,1,1", "2,1,1", "2,2,1", "3,2,1"):
            sigma = parse_partition(sigma_text)
            r, s = sigma.r, sigma.s
            for k in range(2, s + 1):
                for q in (r, r * (r - 1)):
                    H = make_hypergraph(s + 1, q, sigma)
                    try:
                        cert = construct_k_intersecting(H, k)
                    except NoRecipe as exc:
                        assert "threshold 1 gives a zero intersection" in str(exc)
                        continue
                    report = verify_k_intersecting(H, cert, k)
                    assert report.ok and report.hamiltonian
                    checked += 1
        assert checked == 16


def test_criterion_07_edge_count_oracle():
    with criterion(7, "edge count formula vs exhaustive oracle", limit_s=30.0):
        instances = 0
        for r in range(1, 6):
            for parts in partitions_of(r):
                sigma = Partition(parts)
                for n in range(sigma.s, 5):
                    for q in range(sigma.delta_max, 5):
                        H = make_hypergraph(n, q, sigma)
                        assert edge_count(H) == exhaustive_edge_count(H)
                        instances += 1
        assert instances >= 100


def test_criterion_08_frobenius_property():
    with criterion(8, "two-term decomposition of q", limit_s=1.0):
        for r in range(2, 13):
            for q in range(r * (r - 1), r * (r - 1) + 101):
                x, y = frobenius_decompose(q, r)
                assert x >= 0 and y >= 0
                assert x * r + y * (r + 1) == q


def test_criterion_09_sharp_invariants():
    with criterion(9, "edge-count window and alternating matching"):
        assert _SHARP_SWEEP_CERTS, "criterion 2 must run first"
        for H, cert in _SHARP_SWEEP_CERTS:
            lo, hi = sharp_cycle_bounds(H)
            assert lo <= len(cert.edges) <= hi
            assert verify_matching(H, cert.edges[1::2])


def test_criterion_10_mutation_rejection():
    with criterion(10, "sixty clause-violating mutations rejected"):
        for label, H, cert, tag in berge_mutations():
            report = verify_berge_hamiltonian(H, cert)
            assert not report.ok and report.violated_condition == tag, label
        for label, H, cert, tag in sharp_mutations():
            report = verify_sharp_cycle(H, cert)
            assert not report.ok and report.violated_condition == tag, label
        for label, H, cert, tag in k_intersecting_mutations():
            report = verify_k_intersecting(H, cert, k=3)
            assert not report.ok and report.violated_condition == tag, label

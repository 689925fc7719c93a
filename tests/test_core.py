"""Partitions, hypergraph construction, edge tests and enumeration."""

import copy
import importlib
import inspect
import itertools
import os
import pickle
import subprocess
import sys
import types
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sigmacycles
from sigmacycles import (
    KIND_SHARP,
    CycleCertificate,
    Edge,
    NoEdgesError,
    Partition,
    SigmaHypergraph,
    brute_force_max_matching,
    brute_force_sharp_hamiltonian_exists,
    construct_sharp_hamiltonian,
    edge_count,
    enumerate_edges,
    is_edge,
    make_hypergraph,
    parse_partition,
    verify_sharp_cycle,
)

from helpers import exhaustive_edge_count, exhaustive_edges, partitions_of


def test_star_import_binds_no_module():
    # the package's own imports bind its submodules as attributes; a star
    # import must not hand them to the importer
    modules = [n for n in sigmacycles.__all__ if isinstance(getattr(sigmacycles, n), types.ModuleType)]
    assert modules == []
    assert "construct_sharp_hamiltonian" in sigmacycles.__all__
    assert sigmacycles.__all__ == sorted(sigmacycles.__all__)


PUBLIC = [
    "BudgetExceeded", "CertificateParseError", "ConstructionError", "CycleCertificate", "Edge",
    "GridVertex", "KIND_BERGE", "KIND_K_INTERSECTING", "KIND_SHARP", "MaxMatchingResult",
    "NoCycle", "NoEdgesError", "NoRecipe", "Partition", "SharpSearchResult",
    "SharpnessProfile", "SigmaHypergraph", "VerificationReport", "brute_force_max_matching",
    "brute_force_sharp_hamiltonian_exists", "construct_berge_hamiltonian",
    "construct_k_intersecting", "construct_sharp_hamiltonian", "diagonal_matching",
    "edge_count", "enumerate_edges", "frobenius_decompose", "is_edge", "make_hypergraph",
    "matching_upper_bound", "no_cycle_reason", "parse_partition", "sharp_cycle_bounds",
    "shifted_matching", "verify_berge_hamiltonian", "verify_k_intersecting", "verify_matching",
    "verify_sharp_cycle",
]


class TestPackageSurface:
    """The package loads its names lazily; what it offers stays fixed."""

    def test_all_is_pinned(self):
        assert sigmacycles.__all__ == PUBLIC
        assert set(PUBLIC) <= set(dir(sigmacycles))

    def test_names_are_their_home_objects(self):
        # a class or function is the one its defining module holds; the
        # GridVertex alias and the KIND_* strings have no module of their own
        for name in PUBLIC:
            value = getattr(sigmacycles, name)
            home = getattr(value, "__module__", "")
            if not home.startswith("sigmacycles."):
                home = "sigmacycles.core" if name == "GridVertex" else "sigmacycles.certificates"
            assert getattr(importlib.import_module(home), name) is value, name

    def test_star_import_binds_every_name(self):
        scope = {}
        exec("from sigmacycles import *", scope)
        assert sorted(set(scope) - {"__builtins__"}) == PUBLIC
        assert scope["verify_sharp_cycle"] is sigmacycles.verify.verify_sharp_cycle

    def test_submodules_resolve_after_a_bare_import(self):
        # in a fresh interpreter: here the test modules have imported them all
        script = (
            "import sigmacycles\n"
            "print(sigmacycles.core.__name__, sigmacycles.verify.__name__)\n"
            "from sigmacycles import certfile\n"
            "print(certfile.__name__)\n"
        )
        src = str(Path(sigmacycles.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [
            "sigmacycles.core", "sigmacycles.verify", "sigmacycles.certfile"
        ]

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sigmacycles.no_such_name


class TestPartition:
    def test_parse_basic(self):
        p = parse_partition("2,1")
        assert p.parts == (2, 1)
        assert p.r == 3
        assert p.s == 2
        assert p.delta_max == 2
        assert p.gcd_parts == 1
        assert not p.rectangular

    def test_parse_sorts(self):
        assert parse_partition("1,2").parts == (2, 1)

    def test_square(self):
        p = parse_partition("3,3,3")
        assert p.r == 9
        assert p.s == 3
        assert p.delta_max == 3
        assert p.gcd_parts == 3
        assert p.rectangular

    def test_rectangular_not_square(self):
        assert parse_partition("2,2,2").rectangular

    @pytest.mark.parametrize("text", ["", "0", "-1,2", "1,0", "a,b", "2,,1"])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)

    def test_constructor_rejects_unsorted(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    @pytest.mark.parametrize(
        "parts, message",
        [
            ((), "at least one part"),
            ((0,), "positive integers, got 0"),
            ((True,), "positive integers, got True"),
            ((2, True), "positive integers, got True"),
            # the type is checked before any comparison: no TypeError
            (("2",), "positive integers, got '2'"),
            ((2, None), "positive integers, got None"),
            ((2.0,), "positive integers, got 2.0"),
        ],
    )
    def test_constructor_refuses(self, parts, message):
        with pytest.raises(ValueError, match=message):
            Partition(parts)

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=6))
    def test_of_is_order_invariant(self, parts):
        canonical = Partition.of(parts)
        for perm in itertools.islice(itertools.permutations(parts), 24):
            assert Partition.of(perm) == canonical


class TestHypergraph:
    def test_valid(self):
        H = make_hypergraph(3, 3, parse_partition("2,1"))
        assert H.vertex_count == 9
        assert H.r == 3
        assert len(list(H.vertices())) == 9

    def test_n_below_s(self):
        with pytest.raises(NoEdgesError):
            make_hypergraph(1, 2, parse_partition("2,1"))

    def test_q_below_delta(self):
        with pytest.raises(NoEdgesError):
            make_hypergraph(2, 1, parse_partition("2,2"))

    @pytest.mark.parametrize(
        "n, q", [(2.5, 3), (True, 3), (3, True), (3, False), ("3", 3), (None, 3), (0, 3), (3, -1)]
    )
    def test_n_and_q_refused(self, n, q):
        with pytest.raises(ValueError, match="n and q must be integers >= 1"):
            SigmaHypergraph(n, q, parse_partition("2,1"))

    def test_make_hypergraph_is_the_type(self):
        assert make_hypergraph is SigmaHypergraph

    def test_in_bounds(self):
        H = make_hypergraph(2, 3, parse_partition("2,1"))
        assert H.in_bounds((1, 2))
        assert not H.in_bounds((2, 0))
        assert not H.in_bounds((0, 3))
        assert not H.in_bounds((-1, 0))


class TestCycleCertificate:
    """CycleCertificate checks its scalar fields; the edges are left to the
    verifiers."""

    H = SigmaHypergraph(3, 6, Partition((2, 1)))
    EDGES = (Edge(((0, 0), (0, 1), (1, 0))),)

    def make(self, **fields):
        return CycleCertificate(self.H, KIND_SHARP, self.EDGES, **fields)

    def test_accepts_valid_fields(self):
        cert = self.make(k=2, split_index=1, claimed_hamiltonian=True, claimed_t=0, claimed_z=3)
        assert (cert.k, cert.split_index, cert.claimed_t, cert.claimed_z) == (2, 1, 0, 3)
        assert self.make().claimed_hamiltonian is False

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"k": 1}, "k must be an integer >= 2"),
            ({"k": True}, "k must be an integer >= 2"),
            ({"k": 2.0}, "k must be an integer >= 2"),
            ({"split_index": 0}, r"split_index must be an integer in 1\.\.1"),
            ({"split_index": 2}, r"split_index must be an integer in 1\.\.1"),
            ({"split_index": True}, r"split_index must be an integer in 1\.\.1"),
            ({"claimed_hamiltonian": 1}, "claimed_hamiltonian must be a boolean"),
            ({"claimed_hamiltonian": None}, "claimed_hamiltonian must be a boolean"),
            ({"claimed_t": -1}, "claimed_t and claimed_z must be integers >= 0"),
            ({"claimed_t": True}, "claimed_t and claimed_z must be integers >= 0"),
            ({"claimed_t": 1.5}, "claimed_t and claimed_z must be integers >= 0"),
            ({"claimed_z": "1"}, "claimed_t and claimed_z must be integers >= 0"),
        ],
    )
    def test_refuses(self, fields, message):
        with pytest.raises(ValueError, match=message):
            self.make(**fields)


class TestIsEdge:
    def setup_method(self):
        self.H = make_hypergraph(3, 3, parse_partition("2,1"))

    def test_matching_sizes(self):
        assert is_edge(self.H, [(0, 0), (0, 1), (1, 0)])

    def test_one_class(self):
        assert not is_edge(self.H, [(0, 0), (0, 1), (0, 2)])

    def test_three_classes(self):
        assert not is_edge(self.H, [(0, 0), (1, 0), (2, 0)])

    def test_wrong_cardinality(self):
        assert not is_edge(self.H, [(0, 0), (0, 1)])

    def test_out_of_bounds_raises(self):
        with pytest.raises(ValueError):
            is_edge(self.H, [(0, 0), (0, 1), (3, 0)])


class TestEdge:
    def test_canonical_order(self):
        e1 = Edge.of([(1, 0), (0, 1), (0, 0)])
        e2 = Edge.of([(0, 0), (0, 1), (1, 0)])
        assert e1 == e2
        assert e1.vertices == ((0, 0), (0, 1), (1, 0))

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(ValueError):
            Edge.of([(0, 0), (0, 0), (1, 0)])


@lru_cache(maxsize=None)
def value_examples() -> dict:
    """type name -> (a value, its field names in order, changes that give an
    unequal value, changes that __init__ rejects with ValueError or None)"""
    H = make_hypergraph(3, 6, Partition((2, 1)))
    cert = construct_sharp_hamiltonian(H)
    report = verify_sharp_cycle(H, cert)
    return {
        "Partition": (Partition((2, 1)), ("parts",), {"parts": (3, 1)}, {"parts": (1, 2)}),
        "SigmaHypergraph": (H, ("n", "q", "sigma"), {"q": 7}, {"n": 0}),
        "Edge": (cert.edges[0], ("vertices",), {"vertices": cert.edges[1].vertices}, None),
        "SharpnessProfile": (
            report.profile, ("pair_sizes", "uniform_t", "uniform_z"), {"uniform_z": None}, None
        ),
        "CycleCertificate": (
            cert,
            ("hypergraph", "kind", "edges", "k", "split_index", "vertex_sequence",
             "claimed_hamiltonian", "claimed_t", "claimed_z"),
            {"claimed_t": None},
            {"kind": "bogus"},
        ),
        "VerificationReport": (
            report,
            ("ok", "violated_condition", "detail", "profile", "window_sizes", "hamiltonian"),
            {"hamiltonian": False},
            None,
        ),
        "MaxMatchingResult": (brute_force_max_matching(H), ("nu", "exact", "nodes"), {"nodes": 0}, None),
        "SharpSearchResult": (
            brute_force_sharp_hamiltonian_exists(H, 12),
            ("status", "certificate", "nodes"),
            {"certificate": None},
            None,
        ),
    }


VALUE_TYPES = [
    "Partition", "SigmaHypergraph", "Edge", "SharpnessProfile", "CycleCertificate",
    "VerificationReport", "MaxMatchingResult", "SharpSearchResult",
]


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_type_contract(name):
    """The immutable value types behave as frozen dataclasses: equality and
    hash by class and fields, no assignment, a Name(field=value, ...) repr,
    copy and pickle round trips, and replace() that validates again."""
    value, fields, changes, invalid = value_examples()[name]
    cls = getattr(sigmacycles, name)
    assert type(value) is cls
    values = tuple(getattr(value, f) for f in fields)
    other = cls(*(changes.get(f, v) for f, v in zip(fields, values)))

    same = cls(*values)
    assert same is not value and same == value and not same != value
    assert hash(same) == hash(value) == hash(values)
    assert other != value
    assert value.__eq__(values) is NotImplemented and value != values

    for f in fields + ("no_such_field",):
        with pytest.raises(AttributeError):
            setattr(value, f, None)
    for f in fields:
        with pytest.raises(AttributeError):
            delattr(value, f)
    assert tuple(getattr(value, f) for f in fields) == values

    assert repr(value) == f"{name}({', '.join(f'{f}={v!r}' for f, v in zip(fields, values))})"

    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value

    assert value.replace() == value
    assert value.replace(**changes) == other
    if hasattr(copy, "replace"):  # Python 3.13+
        assert copy.replace(value, **changes) == other
    if invalid is not None:
        with pytest.raises(ValueError):
            value.replace(**invalid)


class TestEnumerationAndCount:
    def test_count_frozen_values(self):
        assert edge_count(make_hypergraph(3, 3, parse_partition("2,1"))) == 54
        assert edge_count(make_hypergraph(2, 2, parse_partition("2,2"))) == 1
        assert edge_count(make_hypergraph(2, 3, parse_partition("2,2"))) == 9

    def test_count_of_a_huge_grid(self):
        # the count needs no factorial of n: n(n-1) x C(3,2) x C(3,1) edges
        # here, and n(n-1)(n-2)/3! x 3^3 for three parts of size 1
        n = 10**9
        assert edge_count(make_hypergraph(n, 3, parse_partition("2,1"))) == n * (n - 1) * 9
        assert edge_count(make_hypergraph(n, 3, parse_partition("1,1,1"))) == n * (n - 1) * (n - 2) // 6 * 27

    def test_enumeration_deeper_than_the_recursion_limit(self):
        # the runs come from an explicit stack with one frame per part, not
        # one per skipped class, and no Python frame per frame: 300 classes
        # and 300 parts need neither
        H = make_hypergraph(300, 1, parse_partition("1,1"))
        tall = make_hypergraph(301, 1, parse_partition(",".join(["1"] * 300)))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            edges = list(enumerate_edges(H))
            tall_edges = list(enumerate_edges(tall))
        finally:
            sys.setrecursionlimit(limit)
        assert len(edges) == edge_count(H) == 300 * 299 // 2
        assert edges[-1].vertices == ((298, 0), (299, 0))
        assert len(tall_edges) == edge_count(tall) == 301
        assert tall_edges[0].vertices == tuple((c, 0) for c in range(300))
        assert tall_edges[-1].vertices == tuple((c, 0) for c in range(1, 301))

    def test_single_edge_is_whole_grid(self):
        H = make_hypergraph(2, 2, parse_partition("2,2"))
        (edge,) = enumerate_edges(H)
        assert edge.vertex_set() == set(H.vertices())

    @pytest.mark.parametrize(
        "n,q,sigma",
        [
            (3, 3, "2,1"),
            (2, 3, "2,2"),
            (3, 2, "1,1"),
            (4, 3, "1,1,1"),
            (2, 4, "3,1"),
            (3, 3, "3"),
        ],
    )
    def test_matches_exhaustive_oracle(self, n, q, sigma):
        H = make_hypergraph(n, q, parse_partition(sigma))
        edges = list(enumerate_edges(H))
        assert len(edges) == edge_count(H)
        assert {e.vertex_set() for e in edges} == set(exhaustive_edges(H))

    def test_enumeration_is_sorted_and_duplicate_free(self):
        H = make_hypergraph(3, 3, parse_partition("2,1"))
        edges = [e.vertices for e in enumerate_edges(H)]
        assert len(set(edges)) == len(edges)
        assert edges == sorted(edges)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_count_formula_matches_brute_force(self, data):
        r = data.draw(st.integers(min_value=2, max_value=4))
        sigma = data.draw(st.sampled_from(sorted(partitions_of(r))))
        p = Partition(sigma)
        n = data.draw(st.integers(min_value=p.s, max_value=4))
        q = data.draw(st.integers(min_value=p.delta_max, max_value=4))
        H = make_hypergraph(n, q, p)
        assert edge_count(H) == exhaustive_edge_count(H)

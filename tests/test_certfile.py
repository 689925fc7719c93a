"""JSON certificate serialization: round trips and parse diagnostics."""

import gc
import json
import tracemalloc

import pytest

from helpers import partitions_of
from sigmacycles import (
    CertificateParseError,
    ConstructionError,
    Partition,
    construct_berge_hamiltonian,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    make_hypergraph,
    parse_partition,
)
from sigmacycles import certfile
from sigmacycles.certfile import dumps, from_json_dict, read_certificate, write_certificate
from sigmacycles.cli import main


def certs():
    yield construct_berge_hamiltonian(make_hypergraph(3, 3, parse_partition("2,1")))
    yield construct_sharp_hamiltonian(make_hypergraph(3, 6, parse_partition("2,1")))
    yield construct_k_intersecting(make_hypergraph(4, 3, parse_partition("1,1,1")), 3)


@pytest.mark.parametrize("cert", list(certs()), ids=lambda c: c.kind)
def test_round_trip(cert, tmp_path):
    path = tmp_path / "cert.json"
    write_certificate(cert, path)
    loaded = read_certificate(path)
    assert loaded == cert
    assert dumps(loaded) == dumps(cert)


def constructed(sigma, n, q):
    """Every certificate a constructor returns on H(n, q | sigma): the Berge
    walk, the sharp chain at every split, the k-window chain at every k."""
    H = make_hypergraph(n, q, Partition(sigma))
    builds = [lambda: construct_berge_hamiltonian(H)]
    builds += [lambda p=p: construct_sharp_hamiltonian(H, p) for p in range(1, H.sigma.s)]
    builds += [lambda k=k: construct_k_intersecting(H, k) for k in range(2, H.sigma.s + 1)]
    for build in builds:
        try:
            yield build()
        except ConstructionError:
            pass


@pytest.mark.parametrize("sigma", [sigma for r in range(2, 5) for sigma in partitions_of(r)], ids=str)
def test_every_constructed_certificate_round_trips(sigma):
    seen = 0
    for n in range(len(sigma), 6):
        for q in range(sigma[0], 9):
            for cert in constructed(sigma, n, q):
                assert from_json_dict(json.loads(dumps(cert))) == cert
                seen += 1
    assert seen > 0


def test_serialization_is_deterministic():
    cert = construct_berge_hamiltonian(make_hypergraph(3, 3, parse_partition("2,1")))
    assert dumps(cert) == dumps(cert)
    doc = json.loads(dumps(cert))
    assert list(doc) == ["schema_version", "hypergraph", "cycle", "claims"]


def test_dumps_memory_is_near_its_text():
    # the 7,200-edge Berge walk: one %-format per array and one join of the
    # document, so the peak is the edge list's template and its text (about
    # twice the text), not a copy of the body per nesting level
    cert = construct_berge_hamiltonian(make_hypergraph(60, 120, parse_partition("3,2,1")))
    tracemalloc.start()
    try:
        text = dumps(cert)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cert.edges) == 7200
    assert peak <= 2.5 * len(text)


def base_doc():
    cert = construct_sharp_hamiltonian(make_hypergraph(3, 6, parse_partition("2,1")))
    return json.loads(dumps(cert))


def expect_error(doc, fragment):
    with pytest.raises(CertificateParseError) as exc:
        from_json_dict(doc)
    assert fragment in str(exc.value)


def test_unknown_schema_version():
    doc = base_doc()
    doc["schema_version"] = "2"
    expect_error(doc, "schema_version")


def test_unsorted_sigma():
    doc = base_doc()
    doc["hypergraph"]["sigma"] = [1, 2]
    expect_error(doc, "partition parts must be non-increasing, got (1, 2)")


def test_invalid_hypergraph():
    doc = base_doc()
    doc["hypergraph"]["q"] = 1
    expect_error(doc, "invalid hypergraph parameters")


def test_unknown_kind():
    doc = base_doc()
    doc["cycle"]["kind"] = "loose"
    expect_error(doc, "unknown cycle kind")


def test_wrong_edge_cardinality():
    doc = base_doc()
    doc["cycle"]["edges"][2] = doc["cycle"]["edges"][2][:2]
    expect_error(doc, "edge 2 has 2 vertices, expected r=3")


def test_duplicate_vertex_in_edge():
    doc = base_doc()
    doc["cycle"]["edges"][1][0] = doc["cycle"]["edges"][1][1]
    expect_error(doc, "edge 1 has a duplicate vertex")


def test_vertex_out_of_range():
    # Each side of the grid; with two bad vertices the first in file order is named.
    for vertices in ([[7, 0], [5, 0]], [[-1, 0]], [[0, 6]], [[0, -1]]):
        doc = base_doc()
        doc["cycle"]["edges"][0][: len(vertices)] = vertices
        expect_error(doc, f"edge 0: vertex {vertices[0]} out of range")


def test_malformed_vertex():
    doc = base_doc()
    doc["cycle"]["edges"][0][0] = [0, "x"]
    expect_error(doc, "integer pair")


@pytest.mark.parametrize("k", [0, 1, -3, True, False, "3"])
def test_invalid_k(k, tmp_path, capsys):
    doc = json.loads(dumps(construct_k_intersecting(make_hypergraph(4, 3, parse_partition("1,1,1")), 3)))
    doc["cycle"]["k"] = k
    expect_error(doc, "k must be an integer >= 2")
    path = tmp_path / "bad-k.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, fragment",
    [
        (("cycle", "edges", 0, 0), [True, 0], "integer pair"),
        (("cycle", "edges", 0, 0), [0, False], "integer pair"),
        (("cycle", "vertex_sequence"), [[True, 0]], "vertex_sequence: vertex must be"),
        (("cycle", "vertex_sequence"), 5, "vertex_sequence must be an array"),
        (("claims", "hamiltonian"), "false", "claimed_hamiltonian must be a boolean"),
        (("claims", "hamiltonian"), 1, "claimed_hamiltonian must be a boolean"),
        (("claims", "t"), "x", "claimed_t and claimed_z must be integers >= 0"),
        (("claims", "z"), 1.5, "claimed_t and claimed_z must be integers >= 0"),
        (("claims", "t"), True, "claimed_t and claimed_z must be integers >= 0"),
        (("cycle", "split_index"), True, "split_index must be an integer in 1..1"),
        (("hypergraph", "n"), True, "n and q must be integers >= 1"),
        (("hypergraph", "q"), True, "n and q must be integers >= 1"),
        (("hypergraph", "sigma"), [2, True], "partition parts must be positive integers, got True"),
        (("claims",), [], "claims must be an object"),
        (("claims",), 0, "claims must be an object"),
        (("claims",), False, "claims must be an object"),
        (("claims",), "", "claims must be an object"),
        (("claims",), None, "claims must be an object"),
        # out of range: each of these verified PASS before the reader checked ranges
        (("cycle", "split_index"), -3, "split_index must be an integer in 1..1"),
        (("cycle", "split_index"), 0, "split_index must be an integer in 1..1"),
        (("cycle", "split_index"), 99, "split_index must be an integer in 1..1"),
        (("claims", "t"), -5, "claimed_t and claimed_z must be integers >= 0"),
        (("claims", "z"), -1, "claimed_t and claimed_z must be integers >= 0"),
    ],
    ids=[
        "true-coordinate", "false-row", "true-in-vertex-sequence", "vertex-sequence-number",
        "hamiltonian-string", "hamiltonian-number", "t-string", "z-float", "t-true",
        "split-true", "n-true", "q-true", "sigma-true",
        "claims-empty-array", "claims-zero", "claims-false", "claims-empty-string", "claims-null",
        "split-negative", "split-zero", "split-too-large", "t-negative", "z-negative",
    ],
)
def test_strict_scalar_types(path, value, fragment, tmp_path, capsys):
    doc = base_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    expect_error(doc, fragment)
    bad = tmp_path / "strict.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 2
    assert main(["export", str(bad), "--format", "svg"]) == 2
    err = capsys.readouterr().err
    assert "verify: parse error" in err and "export: parse error" in err


def test_berge_requires_vertex_sequence():
    cert = construct_berge_hamiltonian(make_hypergraph(3, 3, parse_partition("2,1")))
    doc = json.loads(dumps(cert))
    del doc["cycle"]["vertex_sequence"]
    expect_error(doc, "vertex_sequence")


def test_truncated_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(dumps(construct_berge_hamiltonian(make_hypergraph(3, 3, parse_partition("2,1"))))[:40])
    with pytest.raises(CertificateParseError):
        read_certificate(path)


def test_missing_file(tmp_path):
    with pytest.raises(CertificateParseError):
        read_certificate(tmp_path / "nope.json")


@pytest.fixture
def gc_state():
    """Restores the collector's state whatever a test leaves it in."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("content", ["valid", "truncated", "not-a-certificate"])
def test_read_restores_gc_state(enabled, content, gc_state, tmp_path, monkeypatch):
    path = tmp_path / "cert.json"
    write_certificate(next(certs()), path)
    if content == "truncated":  # fails in json.loads
        path.write_text(path.read_text()[:40])
    elif content == "not-a-certificate":  # fails in from_json_dict
        path.write_text("{}")
    seen = []
    parse = certfile.from_json_dict

    def spy(doc):
        seen.append(gc.isenabled())
        return parse(doc)

    monkeypatch.setattr(certfile, "from_json_dict", spy)
    if enabled:
        gc.enable()
    else:
        gc.disable()
    if content == "valid":
        read_certificate(path)
        assert seen == [False]  # paused while the document is validated
    else:
        with pytest.raises(CertificateParseError):
            read_certificate(path)
    assert gc.isenabled() is enabled

"""Differential tests: the certificate codec against the reference codec in
helpers.py (the generic json.dumps writer and the per-vertex reader loop).

The writer must produce the same bytes on every constructor output.  The
reader must return an equal certificate, or raise CertificateParseError with
the same message, on valid and mutated documents, except where a document
uses a JSON type that only the strict reader rejects (see strict_type_case).
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import partitions_of, reference_dumps, reference_from_json_dict
from sigmacycles import (
    CertificateParseError,
    ConstructionError,
    Edge,
    Partition,
    construct_berge_hamiltonian,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    make_hypergraph,
    parse_partition,
)
from sigmacycles.certfile import dumps, from_json_dict
from sigmacycles.cli import main
from sigmacycles.errors import NoEdgesError

SETTINGS = settings(deadline=None, max_examples=300)

SIGMAS = [sigma for r in range(1, 6) for sigma in partitions_of(r)]
RECIPES = [("berge", None)] + [("sharp", p) for p in (1, 2, 3)] + [("k", k) for k in (2, 3, 4)]


def build(sigma, n, q, recipe):
    """A constructor output, or None when the parameters admit none."""
    kind, arg = recipe
    try:
        H = make_hypergraph(n, q, Partition(sigma))
        if kind == "berge":
            return construct_berge_hamiltonian(H)
        if kind == "sharp":
            return construct_sharp_hamiltonian(H, arg)
        return construct_k_intersecting(H, arg)
    except (NoEdgesError, ConstructionError, ValueError):
        return None


@SETTINGS
@given(
    st.sampled_from(SIGMAS),
    st.integers(2, 6),
    st.integers(1, 8),
    st.sampled_from(RECIPES),
)
def test_dumps_matches_reference(sigma, n, q, recipe):
    cert = build(sigma, n, q, recipe)
    if cert is None:
        return
    text = dumps(cert)
    assert text == reference_dumps(cert)
    doc = json.loads(text)
    assert from_json_dict(doc) == reference_from_json_dict(doc) == cert


@pytest.mark.parametrize(
    "changes",
    [{"vertex_sequence": ()}, {"claimed_hamiltonian": False, "claimed_t": None}, {"k": 7}],
    ids=["empty-vertex-sequence", "no-claims", "k"],
)
def test_dumps_matches_reference_on_parsed_shapes(changes):
    """Shapes no constructor returns but the reader accepts."""
    cert = construct_berge_hamiltonian(make_hypergraph(3, 3, parse_partition("2,1")))
    cert = cert.replace(**changes)
    assert dumps(cert) == reference_dumps(cert)


@pytest.mark.parametrize(
    "changes",
    [
        {"edges": ()},
        {"edges": (), "vertex_sequence": ()},
        {"edges": (Edge(((0, 0), (1, 2))), Edge(()), Edge(((0, 1), (0, 2), (1, 0), (2, 2))))},
    ],
    ids=["no-edges", "no-edges-empty-vertex-sequence", "mixed-vertex-counts"],
)
def test_dumps_matches_reference_on_unparsed_shapes(changes):
    """Shapes no constructor returns and the reader refuses, but dumps
    writes: an empty cycle.edges, and edges of different vertex counts."""
    cert = construct_berge_hamiltonian(make_hypergraph(3, 3, parse_partition("2,1")))
    cert = cert.replace(**changes)
    assert dumps(cert) == reference_dumps(cert)


def strict_type_case(doc) -> bool:
    """True when the document holds a value that the reference reader's own
    checks let through but the strict reader or a value type rejects: a
    boolean as n, q, a sigma part, split_index or a vertex coordinate; an
    integer split_index outside 1..s-1; a claims.hamiltonian that is not a
    boolean; a claims.t or claims.z that is not an integer, or is negative;
    a vertex_sequence that is present but not an array; claims that are
    present and falsy but not an object (the reference reads them as empty
    claims).  The reference may then return a certificate, or fail in a
    value type; only the strict reader's refusal is checked."""
    if not isinstance(doc, dict):
        return False
    hg = doc.get("hypergraph")
    sigma = hg.get("sigma") if isinstance(hg, dict) else None
    if isinstance(hg, dict):
        if isinstance(hg.get("n"), bool) or isinstance(hg.get("q"), bool):
            return True
        if isinstance(sigma, list) and any(isinstance(a, bool) for a in sigma):
            return True
    cycle = doc.get("cycle")
    if isinstance(cycle, dict):
        split = cycle.get("split_index")
        if isinstance(split, bool):
            return True
        if type(split) is int and isinstance(sigma, list) and not 1 <= split < len(sigma):
            return True
        vseq = cycle.get("vertex_sequence")
        if vseq is not None and not isinstance(vseq, list):
            return True
        edges = cycle.get("edges")
        lists = (edges if isinstance(edges, list) else []) + [vseq or []]
        for items in lists:
            for item in items if isinstance(items, list) else []:
                if isinstance(item, list) and any(isinstance(x, bool) for x in item):
                    return True
    claims = doc.get("claims", {})
    if not claims and not isinstance(claims, dict):
        return True
    if isinstance(claims, dict):
        if "hamiltonian" in claims and not isinstance(claims["hamiltonian"], bool):
            return True
        if any(claims.get(key) is not None and type(claims[key]) is not int for key in "tz"):
            return True
        if any(type(claims.get(key)) is int and claims[key] < 0 for key in "tz"):
            return True
    return False


def outcome(reader, doc):
    try:
        return "ok", reader(doc)
    except CertificateParseError as exc:
        return "error", str(exc)


BASES = [
    json.loads(dumps(cert))
    for cert in (
        construct_berge_hamiltonian(make_hypergraph(3, 3, parse_partition("2,1"))),
        construct_sharp_hamiltonian(make_hypergraph(3, 6, parse_partition("2,1"))),
        construct_sharp_hamiltonian(make_hypergraph(4, 7, parse_partition("1,1,1")), 2),
        construct_k_intersecting(make_hypergraph(4, 3, parse_partition("1,1,1")), 3),
    )
]

# Values a mutation writes: wrong types, wrong lengths, out-of-range numbers.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8), st.sampled_from([1.0, 2.5, "1", "x", "berge"])
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.lists(st.lists(st.integers(-1, 7), min_size=1, max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["n", "q", "t"]), SCALARS, max_size=2),
)


def paths(node, prefix=()):
    """Every (container path, key) in a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix, key
        yield from paths(child, prefix + (key,))


def mutate(doc, data) -> None:
    """One in-place edit at a drawn place: replace a value, shift an integer
    (a coordinate out of range, say), delete a key or list item, insert a
    copy of a list item next to it, or overwrite a value with a copy of a
    sibling (a duplicate vertex or edge, n equal to q).  Half the draws are
    among the places outside the vertex lists, which would otherwise hold
    few of them."""
    places = list(paths(doc))
    shallow = [place for place in places if len(place[0]) <= 1]
    prefix, key = data.draw(st.sampled_from(data.draw(st.sampled_from([places, shallow]))))
    parent = doc
    for step in prefix:
        parent = parent[step]
    ops = ["replace", "delete", "insert" if isinstance(parent, list) else "copy", "copy"]
    op = data.draw(st.sampled_from(ops + ["shift"] * (type(parent[key]) is int)))
    if op == "shift":
        parent[key] += data.draw(st.integers(-8, 8))
    elif op == "replace":
        parent[key] = data.draw(VALUES)
    elif op == "delete":
        del parent[key]
    elif op == "insert":
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        siblings = list(parent) if isinstance(parent, dict) else range(len(parent))
        parent[key] = copy.deepcopy(parent[data.draw(st.sampled_from(siblings))])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("differential")


@SETTINGS
@given(st.sampled_from(range(len(BASES))), st.integers(0, 3), st.data())
def test_reader_matches_reference(workdir, base, mutations, data):
    doc = copy.deepcopy(BASES[base])
    for _ in range(mutations):
        mutate(doc, data)
    got = outcome(from_json_dict, doc)
    if strict_type_case(doc):
        assert got[0] == "error"
    else:
        assert got == outcome(reference_from_json_dict, doc)
    if got[0] == "ok":
        assert dumps(got[1]) == reference_dumps(got[1])
    else:
        path = workdir / "mutated.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert main(["export", str(path), "--format", "dot"]) == 2


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=20,
)


@SETTINGS
@given(st.sampled_from(range(len(BASES))), st.integers(1, 3), st.data())
def test_arbitrary_json_raises_only_parse_errors(base, replacements, data):
    """Arbitrary JSON in place of the whole document or of any part of it
    either parses or raises CertificateParseError, and whatever parses
    round-trips: dumps(parse(dumps(c))) == dumps(c)."""
    holder = [copy.deepcopy(BASES[base])]
    for _ in range(replacements):
        prefix, key = data.draw(st.sampled_from(list(paths(holder))))
        parent = holder
        for step in prefix:
            parent = parent[step]
        parent[key] = data.draw(JSON)
    try:
        cert = from_json_dict(holder[0])
    except CertificateParseError:
        return
    text = dumps(cert)
    assert dumps(from_json_dict(json.loads(text))) == text


# A bad vertex at the first, a middle or the last edge: the reader must name
# the same edge with the same message as the reference.
EDGE_MUTATIONS = {
    "row-out-of-range": lambda edges, i, doc: edges[i][0].__setitem__(1, doc["hypergraph"]["q"]),
    "column-negative": lambda edges, i, doc: edges[i][-1].__setitem__(0, -1),
    "float-coordinate": lambda edges, i, doc: edges[i][0].__setitem__(1, 0.5),
    "three-coordinates": lambda edges, i, doc: edges[i][0].append(0),
    "string-vertex": lambda edges, i, doc: edges[i].__setitem__(0, "x"),
    "missing-vertex": lambda edges, i, doc: edges[i].pop(),
    "extra-vertex": lambda edges, i, doc: edges[i].append(list(edges[i][0])),
    "duplicate-vertex": lambda edges, i, doc: edges[i].__setitem__(-1, list(edges[i][0])),
    "edge-not-an-array": lambda edges, i, doc: edges.__setitem__(i, {}),
    # two faults in one edge: the check that runs first names the edge
    "missing-vertex-and-float": lambda edges, i, doc: (
        edges[i].pop(),
        edges[i][0].__setitem__(1, 0.5),
    ),
    "duplicate-and-out-of-range": lambda edges, i, doc: (
        edges[i].__setitem__(-1, list(edges[i][0])),
        edges[i][1].__setitem__(1, doc["hypergraph"]["q"]),
    ),
}


@pytest.mark.parametrize("position", ["first", "middle", "last"])
@pytest.mark.parametrize("mutation", sorted(EDGE_MUTATIONS))
@pytest.mark.parametrize("base", range(len(BASES)))
def test_bad_first_or_last_edge_matches_reference(base, mutation, position):
    doc = copy.deepcopy(BASES[base])
    edges = doc["cycle"]["edges"]
    i = {"first": 0, "middle": len(edges) // 2, "last": len(edges) - 1}[position]
    EDGE_MUTATIONS[mutation](edges, i, doc)
    got = outcome(from_json_dict, doc)
    assert got[0] == "error"
    assert got == outcome(reference_from_json_dict, doc)
    assert f"edge {i}" in got[1]

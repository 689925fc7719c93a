"""JSON certificate files (schema_version 1).

Field order is fixed (schema_version, hypergraph, cycle, claims) and all
indices are 0-based, so identical certificates serialize byte-identically.
The writer emits the layout of `json.dumps(doc, indent=2)` directly: each
array is one %-format of the flat tuple of its values, over a template
joined from per-item templates (an edge's is cached per vertex count), and
the document is one list of fragments joined once.

The reader checks the shape of untrusted files and leaves their values to
the value types, which are strict about types (a boolean is not an
integer).  Any file that is unreadable, not JSON or not a valid certificate
raises CertificateParseError.  Each vertex list is checked in one pass over
its vertices, and a message names the first failing edge in file order.
"""

from __future__ import annotations

import gc
import json
from functools import cache
from itertools import chain
from pathlib import Path
from typing import Any, Iterable, NoReturn, Optional, Sequence

from .certificates import KIND_BERGE, CycleCertificate
from .core import Edge, GridVertex, Partition, SigmaHypergraph
from .errors import CertificateParseError

SCHEMA_VERSION = "1"


def _block(items: Iterable[Sequence[str]], depth: int, brackets: str = "[]") -> list[str]:
    """The fragments of an array (brackets "[]") or an object ("{}") nested
    `depth` levels deep, laid out as json.dumps(indent=2) lays it out.  Each
    item is the fragments of one element or member, which are not copied."""
    pad = "\n" + "  " * (depth + 1)
    out = [brackets[0] + pad]
    for item in items:
        out += item
        out.append("," + pad)
    if len(out) == 1:
        return [brackets]
    out[-1] = pad[:-2] + brackets[1]
    return out


def _array(templates: Iterable[str], values: Iterable[int], depth: int) -> str:
    """An array written by one %-format: the item %-templates laid out as
    one template, filled with the values in order."""
    return "".join(_block(((t,) for t in templates), depth)) % tuple(values)


def _member(key: str, value: Any) -> tuple[str]:
    return (f'"{key}": {json.dumps(value)}',)


# One [c, row] pair inside an edge (depth 4) and inside vertex_sequence (depth 3).
_EDGE_VERTEX = "".join(_block((("%d",), ("%d",)), 4))
_SEQUENCE_VERTEX = "".join(_block((("%d",), ("%d",)), 3))


@cache
def _edge_format(size: int) -> str:
    """The %-template of an edge item with `size` vertices (depth 3): a %d
    per coordinate."""
    return "".join(_block(((_EDGE_VERTEX,),) * size, 3))


def dumps(cert: CycleCertificate) -> str:
    """The file text: json.dumps(doc, indent=2) + "\n" of the schema document.
    Each array is one %-format of the flat tuple of its values (_array), and
    the document is one list of fragments joined once, so no level copies
    the text below it.  Vertex coordinates are written with %d, so they must
    be ints, as the constructors and the reader make them."""
    H = cert.hypergraph
    parts = H.sigma.parts
    hypergraph = [
        _member("n", H.n),
        _member("q", H.q),
        ('"sigma": ', _array(("%d",) * len(parts), parts, 2)),
    ]
    cycle = [_member("kind", cert.kind)]
    if cert.k is not None:
        cycle.append(_member("k", cert.k))
    if cert.split_index is not None:
        cycle.append(_member("split_index", cert.split_index))
    vertices = [e.vertices for e in cert.edges]
    coordinates = chain.from_iterable(chain.from_iterable(vertices))
    cycle.append(('"edges": ', _array(map(_edge_format, map(len, vertices)), coordinates, 2)))
    sequence = cert.vertex_sequence
    if sequence is not None:
        templates = (_SEQUENCE_VERTEX,) * len(sequence)
        cycle.append(('"vertex_sequence": ', _array(templates, chain.from_iterable(sequence), 2)))
    claims = [_member("hamiltonian", cert.claimed_hamiltonian)]
    if cert.claimed_t is not None:
        claims.append(_member("t", cert.claimed_t))
    if cert.claimed_z is not None:
        claims.append(_member("z", cert.claimed_z))
    top = [
        _member("schema_version", SCHEMA_VERSION),
        ('"hypergraph": ', *_block(hypergraph, 1, "{}")),
        ('"cycle": ', *_block(cycle, 1, "{}")),
        ('"claims": ', *_block(claims, 1, "{}")),
    ]
    return "".join([*_block(top, 0, "{}"), "\n"])


def write_certificate(cert: CycleCertificate, path: str | Path) -> None:
    Path(path).write_text(dumps(cert))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CertificateParseError(message)


_PAIR = ": vertex must be a [class_index, row_index] integer pair"


def _fail(edge: Optional[int], message: str) -> NoReturn:
    where = "vertex_sequence" if edge is None else f"edge {edge}"
    raise CertificateParseError(where + message)


def _vertices(
    items: Any, H: SigmaHypergraph, edge: Optional[int] = None, r: int = 0
) -> tuple[GridVertex, ...]:
    """Validate one JSON vertex list in a single pass and return its vertices:
    cycle.edges[edge], which must hold r = H.r vertices (passed in, so the
    caller derives it once per file), or vertex_sequence when edge is None.

    Checks, in order: an array of [c, row] integer pairs; for an edge, r
    vertices and no duplicate, and the vertices come back sorted; every
    vertex in range, the first one out of range in file order named.  The
    first failing check raises; its "edge {idx}" label is built only then.
    """
    if type(items) is not list:
        _fail(edge, " must be an array of vertices")
    n, q = H.n, H.q
    vs = []
    bad = None
    for item in items:
        if type(item) is not list or len(item) != 2:
            _fail(edge, _PAIR)
        c, row = item
        if type(c) is not int or type(row) is not int:
            _fail(edge, _PAIR)
        if bad is None and not (0 <= c < n and 0 <= row < q):
            bad = item
        vs.append((c, row))
    if edge is not None:
        if len(vs) != r:
            _fail(edge, f" has {len(vs)} vertices, expected r={r}")
        vs.sort()
        if len(set(vs)) != r:
            _fail(edge, " has a duplicate vertex")
    if bad is not None:
        _fail(edge, f": vertex {bad} out of range for {H}")
    return tuple(vs)


def from_json_dict(doc: Any) -> CycleCertificate:
    """The certificate a parsed JSON document holds.

    The reader checks only the document's shape: the objects and arrays,
    schema_version, a nonempty cycle.edges, each vertex list (_vertices), and
    a Berge cycle's vertex_sequence.  Partition, SigmaHypergraph and
    CycleCertificate check the values, and their ValueError becomes
    CertificateParseError, prefixed "invalid hypergraph parameters: " for
    the hypergraph's.
    """
    _expect(type(doc) is dict, "certificate must be a JSON object")
    _expect(doc.get("schema_version") == SCHEMA_VERSION, "unknown or missing schema_version")
    hg = doc.get("hypergraph")
    _expect(type(hg) is dict, "missing hypergraph object")
    sigma = hg.get("sigma")
    _expect(type(sigma) is list, "sigma must be an array")
    try:
        H = SigmaHypergraph(hg.get("n"), hg.get("q"), Partition(tuple(sigma)))
    except ValueError as exc:
        raise CertificateParseError(f"invalid hypergraph parameters: {exc}") from exc

    cycle = doc.get("cycle")
    _expect(type(cycle) is dict, "missing cycle object")
    edges_raw = cycle.get("edges")
    _expect(type(edges_raw) is list and edges_raw, "cycle.edges must be a nonempty array")
    r = H.r
    edges = tuple(Edge(_vertices(e_raw, H, idx, r)) for idx, e_raw in enumerate(edges_raw))
    kind = cycle.get("kind")
    vseq = cycle.get("vertex_sequence")
    if kind == KIND_BERGE:
        _expect(type(vseq) is list, "berge certificate requires cycle.vertex_sequence")
    if vseq is not None:
        vseq = _vertices(vseq, H)

    claims = doc.get("claims", {})
    _expect(type(claims) is dict, "claims must be an object")
    try:
        return CycleCertificate(
            hypergraph=H,
            kind=kind,
            edges=edges,
            k=cycle.get("k"),
            split_index=cycle.get("split_index"),
            vertex_sequence=vseq,
            claimed_hamiltonian=claims.get("hamiltonian", False),
            claimed_t=claims.get("t"),
            claimed_z=claims.get("z"),
        )
    except ValueError as exc:
        raise CertificateParseError(str(exc)) from exc


def read_certificate(path: str | Path) -> CycleCertificate:
    """Read and validate a certificate file.  The cyclic garbage collector is
    paused while the file is parsed: json.loads and from_json_dict build no
    reference cycles, only many containers that would set it off."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            # ValueError covers invalid UTF-8 and JSONDecodeError; RecursionError
            # is deeply nested arrays.
            raise CertificateParseError(f"cannot read certificate: {exc}") from exc
        return from_json_dict(doc)
    finally:
        if gc_was_enabled:
            gc.enable()

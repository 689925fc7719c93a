"""JSON certificate files (schema_version 1).

Field order is fixed (schema_version, hypergraph, cycle, claims) and all
indices are 0-based, so identical certificates serialize byte-identically.
The writer emits the layout of `json.dumps(doc, indent=2)` directly.

The reader is the validation boundary for untrusted files: every check is
strict about JSON types (a boolean is not an integer), and any file that is
unreadable, not JSON or not a valid certificate raises
CertificateParseError.  Each vertex list is checked in one pass over its
vertices, and a message names the first failing edge in file order.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path
from typing import Any, Iterable, NoReturn, Optional

from .certificates import KIND_BERGE, KINDS, CycleCertificate
from .core import Edge, GridVertex, Partition, SigmaHypergraph
from .errors import CertificateParseError, NoEdgesError

SCHEMA_VERSION = "1"


def _block(items: Iterable[str], depth: int, brackets: str = "[]") -> str:
    """Join already-rendered items the way json.dumps(indent=2) lays out an
    array (brackets "[]") or an object ("{}") nested `depth` levels deep."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(items)
    return brackets[0] + pad + body + pad[:-2] + brackets[1] if body else brackets


def _member(key: str, value: Any) -> str:
    return f'"{key}": {json.dumps(value)}'


# One [c, row] pair inside an edge (depth 4) and inside vertex_sequence (depth 3).
_EDGE_VERTEX = _block(("%d", "%d"), 4)
_SEQUENCE_VERTEX = _block(("%d", "%d"), 3)


def dumps(cert: CycleCertificate) -> str:
    """The file text: json.dumps(doc, indent=2) + "\n" of the schema document.
    Vertex coordinates are written with %d, so they must be ints, as the
    constructors and the reader make them."""
    H = cert.hypergraph
    hypergraph = [
        _member("n", H.n),
        _member("q", H.q),
        '"sigma": ' + _block(map(json.dumps, H.sigma.parts), 2),
    ]
    cycle = [_member("kind", cert.kind)]
    if cert.k is not None:
        cycle.append(_member("k", cert.k))
    if cert.split_index is not None:
        cycle.append(_member("split_index", cert.split_index))
    edges = (_block(map(_EDGE_VERTEX.__mod__, e.vertices), 3) for e in cert.edges)
    cycle.append('"edges": ' + _block(edges, 2))
    if cert.vertex_sequence is not None:
        sequence = map(_SEQUENCE_VERTEX.__mod__, cert.vertex_sequence)
        cycle.append('"vertex_sequence": ' + _block(sequence, 2))
    claims = [_member("hamiltonian", cert.claimed_hamiltonian)]
    if cert.claimed_t is not None:
        claims.append(_member("t", cert.claimed_t))
    if cert.claimed_z is not None:
        claims.append(_member("z", cert.claimed_z))
    top = [
        _member("schema_version", SCHEMA_VERSION),
        '"hypergraph": ' + _block(hypergraph, 1, "{}"),
        '"cycle": ' + _block(cycle, 1, "{}"),
        '"claims": ' + _block(claims, 1, "{}"),
    ]
    return _block(top, 0, "{}") + "\n"


def write_certificate(cert: CycleCertificate, path: str | Path) -> None:
    Path(path).write_text(dumps(cert))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CertificateParseError(message)


_PAIR = ": vertex must be a [class_index, row_index] integer pair"


def _fail(edge: Optional[int], message: str) -> NoReturn:
    where = "vertex_sequence" if edge is None else f"edge {edge}"
    raise CertificateParseError(where + message)


def _vertices(items: Any, H: SigmaHypergraph, edge: Optional[int] = None) -> tuple[GridVertex, ...]:
    """Validate one JSON vertex list in a single pass and return its vertices:
    cycle.edges[edge], or vertex_sequence when edge is None.

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
        r = H.r
        if len(vs) != r:
            _fail(edge, f" has {len(vs)} vertices, expected r={r}")
        vs.sort()
        if len(set(vs)) != r:
            _fail(edge, " has a duplicate vertex")
    if bad is not None:
        _fail(edge, f": vertex {bad} out of range for {H}")
    return tuple(vs)


def from_json_dict(doc: Any) -> CycleCertificate:
    _expect(type(doc) is dict, "certificate must be a JSON object")
    _expect(doc.get("schema_version") == SCHEMA_VERSION, "unknown or missing schema_version")
    hg = doc.get("hypergraph")
    _expect(type(hg) is dict, "missing hypergraph object")
    _expect(type(hg.get("n")) is int and type(hg.get("q")) is int, "n and q must be integers")
    sigma_raw = hg.get("sigma")
    _expect(
        type(sigma_raw) is list
        and sigma_raw
        and all(type(a) is int and a >= 1 for a in sigma_raw),
        "sigma must be a nonempty array of positive integers",
    )
    _expect(
        all(sigma_raw[i] >= sigma_raw[i + 1] for i in range(len(sigma_raw) - 1)),
        "sigma parts not sorted non-increasing",
    )
    try:
        H = SigmaHypergraph(hg["n"], hg["q"], Partition(tuple(sigma_raw)))
    except (NoEdgesError, ValueError) as exc:
        raise CertificateParseError(f"invalid hypergraph parameters: {exc}") from exc

    cycle = doc.get("cycle")
    _expect(type(cycle) is dict, "missing cycle object")
    kind = cycle.get("kind")
    _expect(kind in KINDS, f"unknown cycle kind {kind!r}")
    k = cycle.get("k")
    _expect(k is None or (type(k) is int and k >= 2), "k must be an integer >= 2")
    split = cycle.get("split_index")
    _expect(split is None or type(split) is int, "split_index must be an integer")
    s = H.sigma.s
    _expect(split is None or 1 <= split < s, f"split_index must be in 1..{s - 1}")

    edges_raw = cycle.get("edges")
    _expect(type(edges_raw) is list and edges_raw, "cycle.edges must be a nonempty array")
    edges = tuple(Edge(_vertices(e_raw, H, idx)) for idx, e_raw in enumerate(edges_raw))

    vseq_raw = cycle.get("vertex_sequence")
    if kind == KIND_BERGE:
        _expect(type(vseq_raw) is list, "berge certificate requires cycle.vertex_sequence")
    vseq = None
    if vseq_raw is not None:
        vseq = _vertices(vseq_raw, H)

    claims = doc.get("claims", {})
    _expect(type(claims) is dict, "claims must be an object")
    hamiltonian = claims.get("hamiltonian", False)
    _expect(type(hamiltonian) is bool, "claims.hamiltonian must be a boolean")
    t, z = claims.get("t"), claims.get("z")
    _expect(
        (t is None or type(t) is int) and (z is None or type(z) is int),
        "claims.t and claims.z must be integers",
    )
    _expect((t is None or t >= 0) and (z is None or z >= 0), "claims.t and claims.z must be >= 0")
    return CycleCertificate(
        hypergraph=H,
        kind=kind,
        edges=edges,
        k=k,
        split_index=split,
        vertex_sequence=vseq,
        claimed_hamiltonian=hamiltonian,
        claimed_t=t,
        claimed_z=z,
    )


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

"""JSON certificate files (schema_version 1).

Field order is fixed (schema_version, hypergraph, cycle, claims) and all
indices are 0-based, so identical certificates serialize byte-identically.
The writer emits the layout of `json.dumps(doc, indent=2)` directly.

The reader is the validation boundary for untrusted files: every check is
strict about JSON types (a boolean is not an integer), and any file that is
unreadable, not JSON or not a valid certificate raises
CertificateParseError.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path
from typing import Any, Iterable, Optional

from .certificates import KIND_BERGE, KINDS, CycleCertificate
from .core import Edge, GridVertex, Partition, SigmaHypergraph, proven_coordinates
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


def _vertices(items: Any, where: str, H: SigmaHypergraph, r: int | None) -> list[GridVertex]:
    """Validate one JSON vertex list in a single pass and return its vertices.

    Checks, in order: an array of [c, row] integer pairs; for an edge (r
    given), r vertices and no duplicate, and the vertices come back sorted;
    every vertex in range.  The first failing check raises, naming `where`.
    The caller builds `where`, so from_json_dict runs this per edge only
    when _proven_edges cannot prove the whole edge array.
    """
    if type(items) is not list:
        raise CertificateParseError(f"{where} must be an array of vertices")
    pairs = {list} >= set(map(type, items)) and {2} >= set(map(len, items))
    vs = list(map(tuple, items)) if pairs else []
    cols, rows = zip(*vs) if vs else ((), ())
    if not (pairs and {int} >= set(map(type, cols + rows))):
        raise CertificateParseError(f"{where}: vertex must be a [class_index, row_index] integer pair")
    if r is not None:
        if len(vs) != r:
            raise CertificateParseError(f"{where} has {len(vs)} vertices, expected r={r}")
        vs.sort()
        if len(set(vs)) != r:
            raise CertificateParseError(f"{where} has a duplicate vertex")
    if vs and not (0 <= min(cols) and max(cols) < H.n and 0 <= min(rows) and max(rows) < H.q):
        bad = next(v for v in map(tuple, items) if not H.in_bounds(v))
        raise CertificateParseError(f"{where}: vertex {list(bad)} out of range for {H}")
    return vs


def _proven_edges(edges_raw: list, H: SigmaHypergraph) -> Optional[tuple[Edge, ...]]:
    """The edges of a JSON edge array that C-level passes prove valid, else None.

    Proves what the per-edge _vertices loop checks, all at once: arrays of r
    [c, row] pairs of in-range ints (core.proven_coordinates; booleans are
    not ints) with no duplicate vertex within an edge.  None means "not
    proven"; the caller then runs the loop, which names the first failure
    in file order.
    """
    coordinates = proven_coordinates(H, edges_raw, list)
    if coordinates is None:
        return None
    edges = list(map(tuple, map(sorted, zip(*[zip(*coordinates)] * H.r))))
    if {H.r} != set(map(len, map(set, edges))):
        return None
    return tuple(map(Edge, edges))


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
    r = H.r
    edges = _proven_edges(edges_raw, H)
    if edges is None:
        edges = tuple(
            Edge(tuple(_vertices(e_raw, f"edge {idx}", H, r))) for idx, e_raw in enumerate(edges_raw)
        )

    vseq_raw = cycle.get("vertex_sequence")
    if kind == KIND_BERGE:
        _expect(type(vseq_raw) is list, "berge certificate requires cycle.vertex_sequence")
    vseq = None
    if vseq_raw is not None:
        vseq = tuple(_vertices(vseq_raw, "vertex_sequence", H, None))

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

"""JSON certificate files (schema_version 1).

Field order is fixed (schema_version, hypergraph, cycle, claims) and all
indices are 0-based, so identical certificates serialize byte-identically.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .certificates import KIND_BERGE, KINDS, CycleCertificate
from .core import Edge, Partition, SigmaHypergraph
from .errors import CertificateParseError, NoEdgesError

SCHEMA_VERSION = "1"


def to_json_dict(cert: CycleCertificate) -> dict[str, Any]:
    H = cert.hypergraph
    cycle: dict[str, Any] = {"kind": cert.kind}
    if cert.k is not None:
        cycle["k"] = cert.k
    if cert.split_index is not None:
        cycle["split_index"] = cert.split_index
    cycle["edges"] = [[[c, row] for c, row in e.vertices] for e in cert.edges]
    if cert.vertex_sequence is not None:
        cycle["vertex_sequence"] = [[c, row] for c, row in cert.vertex_sequence]
    claims: dict[str, Any] = {"hamiltonian": cert.claimed_hamiltonian}
    if cert.claimed_t is not None:
        claims["t"] = cert.claimed_t
    if cert.claimed_z is not None:
        claims["z"] = cert.claimed_z
    return {
        "schema_version": SCHEMA_VERSION,
        "hypergraph": {"n": H.n, "q": H.q, "sigma": list(H.sigma.parts)},
        "cycle": cycle,
        "claims": claims,
    }


def dumps(cert: CycleCertificate) -> str:
    return json.dumps(to_json_dict(cert), indent=2) + "\n"


def write_certificate(cert: CycleCertificate, path: str | Path) -> None:
    Path(path).write_text(dumps(cert))


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CertificateParseError(message)


def _vertex_pair(item: Any, where: str) -> tuple[int, int]:
    _expect(
        isinstance(item, list) and len(item) == 2 and all(isinstance(x, int) for x in item),
        f"{where}: vertex must be a [class_index, row_index] integer pair",
    )
    return (item[0], item[1])


def from_json_dict(doc: Any) -> CycleCertificate:
    _expect(isinstance(doc, dict), "certificate must be a JSON object")
    _expect(doc.get("schema_version") == SCHEMA_VERSION, "unknown or missing schema_version")
    hg = doc.get("hypergraph")
    _expect(isinstance(hg, dict), "missing hypergraph object")
    _expect(isinstance(hg.get("n"), int) and isinstance(hg.get("q"), int), "n and q must be integers")
    sigma_raw = hg.get("sigma")
    _expect(
        isinstance(sigma_raw, list)
        and sigma_raw
        and all(isinstance(a, int) and a >= 1 for a in sigma_raw),
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
    _expect(isinstance(cycle, dict), "missing cycle object")
    kind = cycle.get("kind")
    _expect(kind in KINDS, f"unknown cycle kind {kind!r}")
    k = cycle.get("k")
    _expect(
        k is None or (isinstance(k, int) and not isinstance(k, bool) and k >= 2),
        "k must be an integer >= 2",
    )
    split = cycle.get("split_index")
    _expect(split is None or isinstance(split, int), "split_index must be an integer")

    edges_raw = cycle.get("edges")
    _expect(isinstance(edges_raw, list) and edges_raw, "cycle.edges must be a nonempty array")
    edges = []
    for idx, e_raw in enumerate(edges_raw):
        _expect(isinstance(e_raw, list), f"edge {idx} must be an array of vertices")
        vs = [_vertex_pair(item, f"edge {idx}") for item in e_raw]
        _expect(
            len(vs) == H.r, f"edge {idx} has {len(vs)} vertices, expected r={H.r}"
        )
        _expect(len(set(vs)) == len(vs), f"edge {idx} has a duplicate vertex")
        for v in vs:
            _expect(H.in_bounds(v), f"edge {idx}: vertex {list(v)} out of range for {H}")
        edges.append(Edge.of(vs))

    vseq_raw = cycle.get("vertex_sequence")
    vseq = None
    if kind == KIND_BERGE:
        _expect(isinstance(vseq_raw, list), "berge certificate requires cycle.vertex_sequence")
    if vseq_raw is not None:
        vs = [_vertex_pair(item, "vertex_sequence") for item in vseq_raw]
        for v in vs:
            _expect(H.in_bounds(v), f"vertex_sequence: vertex {list(v)} out of range for {H}")
        vseq = tuple(vs)

    claims = doc.get("claims") or {}
    _expect(isinstance(claims, dict), "claims must be an object")
    return CycleCertificate(
        hypergraph=H,
        kind=kind,
        edges=tuple(edges),
        k=k,
        split_index=split,
        vertex_sequence=vseq,
        claimed_hamiltonian=bool(claims.get("hamiltonian", False)),
        claimed_t=claims.get("t"),
        claimed_z=claims.get("z"),
    )


def read_certificate(path: str | Path) -> CycleCertificate:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CertificateParseError(f"cannot read certificate: {exc}") from exc
    return from_json_dict(doc)

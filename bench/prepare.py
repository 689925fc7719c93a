"""Set-up step of the benchmark: build one workload's inputs from a seed.

    python3 bench/prepare.py --workload refute --seed 0 --out DIR

runs in a fresh interpreter (run.py times it), imports `sigmacycles`,
writes every input file the workload needs under DIR/files and the job list
to DIR/manifest.json.  The same seed gives byte-identical output.  Every
job's expected outcome is fixed here, from how its input was made, and
hostile files are confirmed against the independent reference checker.

Seeds vary the job order and inputs of the same cost class (split index,
mutation positions within a third, draws from a pinned instance pool);
instance sizes stay fixed so that run-to-run spread measures the program,
not the draw.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
from sigmacycles import (  # noqa: E402
    certfile,
    construct_berge_hamiltonian,
    construct_k_intersecting,
    construct_sharp_hamiltonian,
    make_hypergraph,
    parse_partition,
)

# Desk-scale maximum-matching instances with known answers, small enough
# (n*q <= 16) for reference.exhaustive_nu to confirm them.  The oracle
# workload draws three per seed; each takes a few milliseconds.
MATCHING_POOL = (
    ((2, 1), 4, 3, 4),
    ((2, 2), 3, 4, 3),
    ((1, 1), 3, 3, 4),
    ((2, 1), 3, 3, 3),
    ((2, 2), 4, 4, 4),
    ((3, 3), 3, 4, 1),
    ((2, 1), 3, 4, 4),
    ((2, 2), 3, 5, 3),
)


def _sigma_text(sigma) -> str:
    return ",".join(str(a) for a in sigma)


def _build(kind: str, sigma, n: int, q: int, split: int = 1, k: int | None = None):
    H = make_hypergraph(n, q, parse_partition(_sigma_text(sigma)))
    if kind == "sharp":
        return construct_sharp_hamiltonian(H, split)
    if kind == "berge":
        return construct_berge_hamiltonian(H)
    return construct_k_intersecting(H, k)


def _write(out: Path, name: str, text: str) -> str:
    path = out / "files" / name
    path.write_text(text)
    return f"files/{name}"


def _doc_text(doc: dict) -> str:
    # Compact, unlike certfile.dumps: indented output takes the slow
    # pure-Python encoder, and the parser accepts either.
    return json.dumps(doc) + "\n"


def _cli(job_id: str, argv: list[str], expect_exit: int, edges: int, **extra) -> dict:
    return {"id": job_id, "type": "cli", "argv": argv, "expect_exit": expect_exit,
            "edges": edges, **extra}


def _roundtrip(kind, sigma, n, q, split=1, k=None) -> dict:
    label = (f"{kind}-{_sigma_text(sigma)}-n{n}-q{q}" + (f"-k{k}" if k else "")
             + (f"-split{split}" if split != 1 else ""))
    return {"id": label, "type": "roundtrip", "kind": kind, "sigma": list(sigma),
            "n": n, "q": q, "split": split, "k": k}


def sharp_accept(rng: random.Random, out: Path) -> list[dict]:
    """Construct (self-verifying) -> dumps -> write -> parse -> verify again.

    The quadratic pair loop and the C(p, k) subset sweep do almost all the
    work.  The six jobs, by cost, are the 200- and 800-edge sharp cycles,
    two CLI calls of similar cost, the 150-edge k-cycle and the 2400-edge
    sharp cycle (split drawn by the seed): job_s.p50 falls in the middle of
    the CLI pair's samples and job_s.p90 near the middle of the largest
    cycle's, so neither jumps between two jobs of very different cost from
    one run to the next.  The 3200-edge
    sharp cycle is left out to keep a pass under four seconds; refute runs
    the sharp verifier on that base."""
    cert = _build("sharp", (2, 1), 20, 60)
    path = _write(out, "sharp800.json", certfile.dumps(cert))
    jobs = [
        _roundtrip("sharp", (2, 1), 10, 30),
        _roundtrip("sharp", (2, 1), 20, 60),
        _cli("cli-construct-sharp800",
             ["construct", "--kind", "sharp", "--sigma", "2,1", "--n", "20", "--q", "60",
              "-o", "cli-sharp800.json"], 0, 800, output_cert="cli-sharp800.json"),
        _cli("cli-verify-sharp800", ["verify", path], 0, 800, stdout_has=["PASS"]),
        _roundtrip("k-intersecting", (2, 1, 1), 10, 20, k=3),
        _roundtrip("sharp", (3, 2, 1), 60, 120, split=rng.choice((1, 2))),
    ]
    rng.shuffle(jobs)
    return jobs


def file_roundtrip(rng: random.Random, out: Path) -> list[dict]:
    """Big linear-time Berge certificates through the file format, DOT/SVG
    export, and CLI start-up; the sharp pair loop barely runs."""
    berge = _build("berge", (3, 2, 1), 60, 120)
    berge_path = _write(out, "berge7200.json", certfile.dumps(berge))
    sharp = _build("sharp", (2, 1), 10, 30)
    sharp_path = _write(out, "sharp200.json", certfile.dumps(sharp))
    jobs = [
        _roundtrip("berge", (3, 2, 1), 60, 120),
        _roundtrip("berge", (2, 1), 40, 120),
        {"id": "export-dot-sharp200", "type": "export", "format": "dot", "path": sharp_path},
        {"id": "export-svg-sharp200", "type": "export", "format": "svg", "path": sharp_path},
        _cli("cli-construct-berge7200",
             ["construct", "--kind", "berge", "--sigma", "3,2,1", "--n", "60", "--q", "120",
              "-o", "cli-berge7200.json"], 0, 7200, output_cert="cli-berge7200.json"),
        _cli("cli-verify-berge7200", ["verify", berge_path], 0, 7200, stdout_has=["PASS"]),
        _cli("cli-export-svg-sharp200",
             ["export", sharp_path, "--format", "svg", "-o", "cli-sharp200.svg"], 0, 200,
             output_svg="cli-sharp200.svg", svg_of=sharp_path),
    ]
    rng.shuffle(jobs)
    return jobs


# --- hostile files -----------------------------------------------------------


def _third_position(rng: random.Random, p: int, third: int) -> int:
    # The middle half of the third: the reject cost of a quadratic verifier
    # grows with the position, so a narrow window keeps the cost of a draw
    # close to the third's typical cost.
    lo, hi = (4 * third + 1) / 12, (4 * third + 3) / 12
    return min(p - 1, int(rng.uniform(lo, hi) * p))


def _with_edges(doc: dict, edges: list) -> dict:
    return {**doc, "cycle": {**doc["cycle"], "edges": edges}}


def _delete_edge(doc, i, rng):
    edges = doc["cycle"]["edges"]
    return _with_edges(doc, edges[:i] + edges[i + 1:]), reference.CONSECUTIVE_EMPTY


def _duplicate_edge(doc, i, rng):
    edges = list(doc["cycle"]["edges"])
    edges[i] = edges[(i - rng.randint(2, 50)) % len(edges)]
    return _with_edges(doc, edges), reference.DUPLICATE_EDGE


def _non_edge(doc, i, rng):
    """Move one vertex of the edge's largest class into a class the edge does
    not use; the class sizes no longer match sigma."""
    n = doc["hypergraph"]["n"]
    edges = list(doc["cycle"]["edges"])
    edge = [list(v) for v in edges[i]]
    classes = [c for c, _ in edge]
    largest = max(set(classes), key=classes.count)
    free = [c for c in range(n) if c not in classes]
    victim = next(v for v in edge if v[0] == largest)
    victim[0] = rng.choice(free)
    edges[i] = sorted(edge)
    return _with_edges(doc, edges), reference.NON_EDGE


def _foreign_vertex(doc, i, rng):
    """Swap a vertex of edge i that its neighbours can spare for a same-class
    vertex of a nearby non-consecutive edge: the edge stays valid, but two
    non-consecutive edges now meet."""
    edges = [[tuple(v) for v in e] for e in doc["cycle"]["edges"]]
    p = len(edges)
    mine = set(edges[i])
    prev, nxt = set(edges[i - 1]), set(edges[(i + 1) % p])
    for v in edges[i]:
        if not ((prev & mine) - {v} and (nxt & mine) - {v}):
            continue
        for dist in range(2, p // 2):
            for j in ((i + dist) % p, (i - dist) % p):
                for w in edges[j]:
                    if w[0] == v[0] and w not in mine:
                        new = sorted((mine - {v}) | {w})
                        out = [list(map(list, e)) for e in edges]
                        out[i] = [list(x) for x in new]
                        return _with_edges(doc, out), reference.FORBIDDEN_NONEMPTY
    raise RuntimeError(f"no foreign vertex for edge {i}")


MUTATIONS = {
    "delete-edge": _delete_edge,
    "duplicate-edge": _duplicate_edge,
    "non-edge": _non_edge,
    "foreign-vertex": _foreign_vertex,
}

# Which mutations each base gets, one per third of the edge sequence.
# Position-dependent reject paths (delete, foreign) run on one sharp base
# each so a pass stays under ten seconds; duplicate and non-edge stop in the
# linear validity stage and run everywhere.
REFUTE_BASES = {
    "sharp3200": (("sharp", (2, 1), 40, 120, None),
                  ("delete-edge", "duplicate-edge", "non-edge")),
    "sharp2400": (("sharp", (3, 2, 1), 60, 120, None),
                  ("foreign-vertex", "duplicate-edge", "non-edge")),
    "k150": (("k-intersecting", (2, 1, 1), 10, 20, 3),
             ("delete-edge", "duplicate-edge", "non-edge")),
}
THIRDS = ("early", "middle", "late")


def _verify_job(job_id, path, expect_exit, edges, phase, tag=None) -> dict:
    return {"id": job_id, "type": "verify-inproc", "path": path, "expect_exit": expect_exit,
            "expect_tag": tag, "edges": edges, "phase": phase}


def refute(rng: random.Random, out: Path) -> list[dict]:
    """`cli.main(["verify", path])` on hostile and valid files: reject cost
    depends on where the violation sits."""
    jobs = []
    docs = {}
    for name, ((kind, sigma, n, q, k), mutations) in REFUTE_BASES.items():
        doc = json.loads(certfile.dumps(_build(kind, sigma, n, q, k=k)))
        docs[name] = doc
        p = len(doc["cycle"]["edges"])
        path = _write(out, f"{name}.json", _doc_text(doc))
        jobs.append(_verify_job(f"control-{name}", path, 0, p, "control"))
        for mutation in mutations:
            for third, phase in enumerate(THIRDS):
                i = _third_position(rng, p, third)
                bad, tag = MUTATIONS[mutation](doc, i, rng)
                got = reference.check_document(bad).tag
                if got != tag:
                    raise RuntimeError(
                        f"{name} {mutation}@{i}: built for {tag}, reference says {got}")
                job_id = f"{mutation}-{name}-{phase}"
                path = _write(out, f"{job_id}.json", _doc_text(bad))
                jobs.append(_verify_job(job_id, path, 1, len(bad["cycle"]["edges"]), phase, tag))

    text = _doc_text(docs["sharp3200"])
    cut = rng.randint(len(text) // 4, 3 * len(text) // 4)
    path = _write(out, "truncated-sharp3200.json", text[:cut])
    jobs.append(_verify_job("truncated-sharp3200", path, 2, 0, "malformed"))

    wrong = {**docs["sharp2400"], "schema_version": "2"}
    path = _write(out, "schema-sharp2400.json", _doc_text(wrong))
    jobs.append(_verify_job("schema-sharp2400", path, 2, 0, "malformed"))

    edges = list(docs["k150"]["cycle"]["edges"])
    i = rng.randrange(len(edges))
    edges[i] = [[edges[i][0][0], docs["k150"]["hypergraph"]["q"]]] + edges[i][1:]
    far = _with_edges(docs["k150"], edges)
    path = _write(out, "out-of-range-k150.json", _doc_text(far))
    jobs.append(_verify_job("out-of-range-k150", path, 2, 0, "malformed"))

    # CLI verdicts on three cheap rejects whose cost is almost all start-up,
    # so the CLI samples form one group and cli_s.p50 does not depend on
    # which of two different-cost jobs lands in the middle.
    oor = next(j for j in jobs if j["id"] == "out-of-range-k150")
    jobs.append(_cli("cli-verify-out-of-range-k150", ["verify", oor["path"]], 2, 0))
    dup = next(j for j in jobs if j["id"] == "duplicate-edge-k150-early")
    jobs.append(_cli("cli-verify-duplicate-k150", ["verify", dup["path"]], 1,
                     dup["edges"], stdout_has=[f"FAIL: {reference.DUPLICATE_EDGE}:"]))
    truncated = next(j for j in jobs if j["id"] == "truncated-sharp3200")
    jobs.append(_cli("cli-verify-truncated-sharp3200", ["verify", truncated["path"]], 2, 0))
    rng.shuffle(jobs)
    return jobs


def oracle(rng: random.Random, out: Path) -> list[dict]:
    """Brute-force oracles: edge enumeration, the numpy branch and bound and
    the bitmask DFS do all the work; no certificate file is involved."""

    def mm(sigma, n, q, nu):
        return {"id": f"max-matching-{_sigma_text(sigma)}-n{n}-q{q}", "type": "max-matching",
                "sigma": list(sigma), "n": n, "q": q, "expect_nu": nu}

    def se(sigma, n, q, max_len, status):
        return {"id": f"sharp-exists-{_sigma_text(sigma)}-n{n}-q{q}-L{max_len}",
                "type": "sharp-exists", "sigma": list(sigma), "n": n, "q": q,
                "max_len": max_len, "expect_status": status}

    jobs = [
        # nu=1: two edges would need six 3-row class slots among five classes.
        mm((3, 3, 3), 5, 5, 1),
        # nu=6 and nu=4 are perfect matchings (nq/r).
        mm((2, 2), 4, 6, 6),
        mm((2, 2, 2), 4, 6, 4),
        # nu=4: q odd and gcd 2 leave n=4 vertices unmatched, so nu <= 16/4.
        mm((2, 2), 4, 5, 4),
        se((2, 1), 3, 6, 12, "found"),
        se((2, 2), 3, 6, 10, "found"),
        se((3, 3), 3, 4, 6, "exhausted"),
        _cli("cli-oracle-max-matching-2,2-n4-q6",
             ["oracle", "max-matching", "--sigma", "2,2", "--n", "4", "--q", "6"], 0, 0,
             stdout="6\n"),
        _cli("cli-oracle-sharp-exists-2,1-n3-q6",
             ["oracle", "sharp-exists", "--sigma", "2,1", "--n", "3", "--q", "6",
              "--max-len", "12", "-o", "cli-found.json"], 0, 0,
             stdout_has=["found ("], output_cert="cli-found.json"),
        _cli("cli-oracle-max-matching-3,3-n4-q5",
             ["oracle", "max-matching", "--sigma", "3,3", "--n", "4", "--q", "5"], 0, 0,
             stdout="2\n"),
    ]
    jobs += [mm(*entry) for entry in rng.sample(MATCHING_POOL, 3)]
    rng.shuffle(jobs)
    return jobs


GENERATORS = {
    "sharp-accept": sharp_accept,
    "file-roundtrip": file_roundtrip,
    "refute": refute,
    "oracle": oracle,
}
WORKLOADS = tuple(GENERATORS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    (args.out / "files").mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    jobs = GENERATORS[args.workload](rng, args.out)
    manifest = {"workload": args.workload, "seed": args.seed, "jobs": jobs}
    (args.out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

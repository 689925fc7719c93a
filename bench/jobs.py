"""Job runners: each job is one user action from a workload manifest.

A job's program calls are timed (and, in a traced pass, enclosed in a "job"
span); the checks against the reference run afterwards, untimed.  Program
functions are called through their modules (`construct.construct_...`) so
that tracing wrappers, when installed, see the calls.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import reference
import sigmacycles.certfile as certfile
import sigmacycles.cli as cli
import sigmacycles.construct as construct
import sigmacycles.core as core
import sigmacycles.export as export
import sigmacycles.verify as verify

# Bound before any tracing wrapper is installed: the round-trip check calls
# it after the timed job, where it must open no span.
from sigmacycles.certfile import dumps as untraced_dumps

CLI_TIMEOUT_S = 120
VERIFIERS = {
    "sharp": "verify_sharp_cycle",
    "berge": "verify_berge_hamiltonian",
    "k-intersecting": "verify_k_intersecting",
}


@dataclass
class Outcome:
    job: str
    seconds: float
    ok: bool
    reason: str = ""
    edges: int = 0
    cli: bool = False
    scale: float = 1.0  # host-speed correction, set by the caller

    @property
    def corrected(self) -> float:
        return self.seconds * self.scale


Check = Callable[[], tuple[bool, str, int]]


def _passed(edges: int = 0) -> tuple[bool, str, int]:
    return True, "", edges


def _failed(reason: str) -> tuple[bool, str, int]:
    return False, reason, 0


def _hypergraph(job: dict):
    return core.make_hypergraph(job["n"], job["q"], core.Partition(tuple(job["sigma"])))


def _read_doc(path: Path) -> dict:
    return json.loads(path.read_text())


class Runner:
    """Runs manifest jobs inside one work directory."""

    def __init__(self, workdir: Path, src: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.tracer = None  # set for traced passes

    def run(self, job: dict) -> Outcome:
        body = getattr(self, "_" + job["type"].replace("-", "_"))
        span = self.tracer.begin("job") if self.tracer else None
        start = perf_counter()
        error = None
        try:
            check = body(job)
        except Exception as exc:  # an uncaught program error fails the job
            error = exc
        seconds = perf_counter() - start
        if self.tracer:
            self.tracer.end(span, {"job": job["id"]})
        is_cli = job["type"] == "cli"
        if error is not None:
            return Outcome(job["id"], seconds, False,
                           f"uncaught {type(error).__name__}: {error}", cli=is_cli)
        ok, reason, edges = check()
        return Outcome(job["id"], seconds, ok, reason, edges, is_cli)

    # --- job bodies: program calls only; each returns its check -------------

    def _roundtrip(self, job: dict) -> Check:
        H = _hypergraph(job)
        kind = job["kind"]
        if kind == "sharp":
            cert = construct.construct_sharp_hamiltonian(H, job["split"])
        elif kind == "berge":
            cert = construct.construct_berge_hamiltonian(H)
        else:
            cert = construct.construct_k_intersecting(H, job["k"])
        path = self.workdir / "roundtrip.json"
        certfile.write_certificate(cert, path)
        parsed = certfile.read_certificate(path)
        verifier = getattr(verify, VERIFIERS[kind])
        if kind == "k-intersecting":
            report = verifier(parsed.hypergraph, parsed, job["k"])
        else:
            report = verifier(parsed.hypergraph, parsed)
        # The check takes the program's objects out of `held` and drops each
        # before the next step, so it never holds more than the job body did
        # and peak_rss_mb stays the program's.
        held = {"cert": cert, "parsed": parsed}
        return lambda: self._check_roundtrip(job, held, report, path)

    def _check_roundtrip(self, job, held, report, path):
        cert = held.pop("cert")
        doc = json.loads(path.read_text())
        if reference.as_edges(doc["cycle"]["edges"]) != [e.vertices for e in cert.edges]:
            return _failed("file edges differ from the constructed certificate")
        p, claimed = len(cert.edges), (cert.claimed_t, cert.claimed_z)
        if not (cert.claimed_hamiltonian and report.ok and report.hamiltonian):
            return _failed(f"verifier or claims disagree: {report.violated_condition}")
        del cert
        verdict = reference.check_document(doc)
        del doc
        if not (verdict.ok and verdict.hamiltonian):
            return _failed(f"reference rejects the certificate: {verdict.tag}")
        if job["kind"] == "sharp":
            if report.profile.pair_sizes != verdict.pair_sizes:
                return _failed("verifier profile differs from reference")
            if claimed != reference.uniform_profile(verdict.pair_sizes):
                return _failed("claimed (t, z) differs from reference profile")
        if job["kind"] == "k-intersecting" and report.window_sizes != verdict.window_sizes:
            return _failed("verifier window sizes differ from reference")
        if untraced_dumps(held.pop("parsed")) != path.read_text():
            return _failed("dumps(parse(dumps(c))) != dumps(c)")
        return _passed(p)

    def _export(self, job: dict) -> Check:
        cert = certfile.read_certificate(self.workdir / job["path"])
        if job["format"] == "dot":
            text = export.render_dot(cert)
        else:
            text = export.render_svg(cert)

        def check():
            doc = _read_doc(self.workdir / job["path"])
            edges = reference.as_edges(doc["cycle"]["edges"])
            hg = doc["hypergraph"]
            if job["format"] == "dot":
                good = reference.dot_matches(text, edges)
            else:
                good = reference.svg_matches(text, hg["n"], hg["q"], edges)
            return _passed(len(edges)) if good else _failed(f"{job['format']} output wrong")

        return check

    def _cli(self, job: dict) -> Check:
        argv = [sys.executable, "-m", "sigmacycles.cli", *job["argv"]]
        span = self.tracer.begin("cli.subprocess") if self.tracer else None
        try:
            proc = subprocess.run(argv, cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
        finally:
            if self.tracer:
                self.tracer.end(span, {"command": job["argv"][0]})
        return lambda: self._check_cli(job, proc)

    def _check_cli(self, job, proc):
        if proc.returncode != job["expect_exit"] or "Traceback" in proc.stderr:
            return _failed(f"exit {proc.returncode}, expected {job['expect_exit']}: "
                           f"{proc.stderr.strip()[-200:]}")
        missing = [s for s in job.get("stdout_has", []) if s not in proc.stdout]
        if missing or job.get("stdout", proc.stdout) != proc.stdout:
            return _failed(f"unexpected stdout: {proc.stdout[-200:]!r}")
        if "output_cert" in job:
            verdict = reference.check_document(_read_doc(self.workdir / job["output_cert"]))
            if not (verdict.ok and verdict.hamiltonian):
                return _failed(f"reference rejects CLI output: {verdict.tag}")
        if "output_svg" in job:
            doc = _read_doc(self.workdir / job["svg_of"])
            text = (self.workdir / job["output_svg"]).read_text()
            hg = doc["hypergraph"]
            edges = reference.as_edges(doc["cycle"]["edges"])
            if not reference.svg_matches(text, hg["n"], hg["q"], edges):
                return _failed("CLI svg output wrong")
        return _passed(job["edges"])

    def _verify_inproc(self, job: dict) -> Check:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", str(self.workdir / job["path"])])

        def check():
            stdout = out.getvalue()
            if code != job["expect_exit"]:
                return _failed(f"exit {code}, expected {job['expect_exit']}")
            if job["expect_tag"] and f"FAIL: {job['expect_tag']}:" not in stdout:
                return _failed(f"wrong violation, expected {job['expect_tag']}: {stdout[-200:]}")
            if code == 0 and "PASS" not in stdout:
                return _failed("exit 0 without PASS")
            if code == 2 and "parse error" not in err.getvalue():
                return _failed("exit 2 without a parse error message")
            return _passed(job["edges"])

        return check

    def _max_matching(self, job: dict) -> Check:
        result = verify.brute_force_max_matching(_hypergraph(job))

        def check():
            if not result.exact or result.nu != job["expect_nu"]:
                return _failed(f"nu={result.nu} exact={result.exact}, pinned {job['expect_nu']}")
            return _passed()

        return check

    def _sharp_exists(self, job: dict) -> Check:
        result = verify.brute_force_sharp_hamiltonian_exists(_hypergraph(job), job["max_len"])

        def check():
            if result.status != job["expect_status"]:
                return _failed(f"status {result.status}, pinned {job['expect_status']}")
            if result.status != "found":
                return _passed()
            edges = [e.vertices for e in result.certificate.edges]
            verdict = reference.check_cycle(job["n"], job["q"], job["sigma"], "sharp", edges)
            if not (verdict.ok and verdict.hamiltonian and len(edges) <= job["max_len"]):
                return _failed(f"found cycle invalid: {verdict.tag}")
            return _passed(len(edges))

        return check


# --- known-defect probes -----------------------------------------------------


def _k_doc() -> dict:
    """A small valid k-intersecting certificate to corrupt."""
    H = core.make_hypergraph(4, 3, core.Partition((1, 1, 1)))
    return json.loads(certfile.dumps(construct.construct_k_intersecting(H, 3)))


def _cli_verify_doc(workdir: Path, doc: dict) -> tuple[Optional[int], str]:
    path = workdir / "probe.json"
    path.write_text(json.dumps(doc))
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(["verify", str(path)]), ""
    except Exception as exc:  # the defect under probe may be a crash
        return None, type(exc).__name__


def _probe_k_budget(runner: Runner) -> str:
    H = core.make_hypergraph(14, 40, core.Partition((2, 1, 1)))
    try:
        construct.construct_k_intersecting(H, 3)
        in_process = "fixed"
    except Exception as exc:
        in_process = "reproduced" if type(exc).__name__ == "BudgetExceeded" else "changed"
    proc = subprocess.run(
        [sys.executable, "-m", "sigmacycles.cli", "construct", "--kind", "k-intersecting",
         "--k", "3", "--sigma", "2,1,1", "--n", "14", "--q", "40", "-o", "probe-k.json"],
        cwd=runner.workdir, env=runner.env, capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S)
    if proc.returncode == 0:
        via_cli = "fixed"
    elif proc.returncode == 1 and "BudgetExceeded" in proc.stderr:
        via_cli = "reproduced"
    else:
        via_cli = "changed"
    return in_process if in_process == via_cli else f"{in_process} in process, {via_cli} via CLI"


def _probe_k_zero(runner: Runner) -> str:
    doc = _k_doc()
    doc["cycle"]["k"] = 0
    code, crash = _cli_verify_doc(runner.workdir, doc)
    return "reproduced" if crash == "StopIteration" else "fixed" if code == 2 else "changed"


def _probe_true_coordinate(runner: Runner) -> str:
    doc = _k_doc()
    edge = next(e for e in doc["cycle"]["edges"] if [1, 0] in e)
    edge[edge.index([1, 0])] = [True, 0]
    code, _ = _cli_verify_doc(runner.workdir, doc)
    return "reproduced" if code == 0 else "fixed" if code == 2 else "changed"


PROBES = {
    "k-budget": _probe_k_budget,
    "k-zero": _probe_k_zero,
    "true-coordinate": _probe_true_coordinate,
}


def probe_defects(runner: Runner, ledger: list[dict], workload: str) -> dict[str, str]:
    """Re-run each known defect of this workload once: "reproduced", "fixed"
    (the documented correct behaviour) or "changed" (some third behaviour)."""
    return {d["id"]: PROBES[d["id"]](runner) for d in ledger if d["workload"] == workload}

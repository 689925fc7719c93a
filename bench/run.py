"""sigma-cycles benchmark: time to a verified certificate, to a verdict on a
certificate file, and to an oracle answer.

    python3 bench/run.py --workload sharp-accept --seed 0 --seconds 20 --trace 0

Workloads (closed loop, one client, no threads; CLI children run one at a
time): sharp-accept, file-roundtrip, refute, oracle -- see prepare.py for
what each holds and why.

A run times the set-up (prepare.py in a fresh interpreter) several times,
between passes over the workload's job list, and repeats passes until the
next would end after --seconds.  Every job's output is checked against the
independent reference in reference.py; a job fails on a wrong verdict,
violation tag or exit code, an uncaught exception, a wrong oracle answer or
a round trip that is not byte-identical.

Host-speed correction: on a shared 2-vCPU cloud VM the CPU speed was seen
to drift by up to a third within a minute, moving every wall time together.  A fixed
pure-Python loop is timed between the jobs of each pass and around each
set-up, and each pass's (or set-up's) wall times are scaled by
CAL_REFERENCE_S / (median loop time).  The end-to-end times are therefore
seconds on a host where the loop takes CAL_REFERENCE_S; the raw wall times
and the loop times are kept in the results file.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports per-layer metrics from the traced ones (tracing.py),
in raw wall seconds.
The CLI is run as `python -m sigmacycles.cli` with PYTHONPATH=src: the
package has no `__main__.py` and the run does not install the
`sigma-cycles` script.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Each run
also writes its samples, environment and (traced) spans to bench/_results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-up runs once before the first pass and once after each pass (into a
# scratch directory) until it has run SETUPS times; spreading the repeats
# over the run steadies their median.
SETUPS = 5
# Host-speed probe: CAL_LOOPS iterations of an integer loop, nominally
# CAL_REFERENCE_S long; CAL_AROUND_SETUP probes run before and after each
# set-up.
CAL_LOOPS = 100_000
CAL_REFERENCE_S = 0.008
CAL_AROUND_SETUP = 5
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "cert_edges_per_s": "edges/s",
    "cli_s.p50": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of a traced run.  "computed" counts are derived from
# input sizes (C(p,2) pairs, C(p,k) subsets, bytes, p*n*q SVG cells), not
# counted inside the program; oracle nodes come from MaxMatchingResult.
PER_LAYER = {
    "core.is_edge.calls": "count",
    "core.is_edge.s": "s",
    "core.enumerate_edges.s": "s",
    "core.enumerate_edges.edges": "count",
    "core.self_s": "s",
    "construct.sharp.self_s": "s",
    "construct.k.self_s": "s",
    "construct.berge.self_s": "s",
    "construct.s": "s",
    "construct.edges": "count",
    "construct.selfcheck_share": "ratio",
    "construct.self_s": "s",
    "verify.sharp.s": "s",
    "verify.sharp.us_per_edge": "us",
    "verify.sharp.pairs": "count",
    "verify.k.s": "s",
    "verify.k.subsets": "count",
    "verify.berge.s": "s",
    "verify.berge.us_per_edge": "us",
    "verify.reject.early_s": "s",
    "verify.reject.late_s": "s",
    "verify.accept.s": "s",
    "verify.self_s": "s",
    "certfile.dumps.s": "s",
    "certfile.dumps.MB_per_s": "MB/s",
    "certfile.parse.s": "s",
    "certfile.parse.MB_per_s": "MB/s",
    "certfile.bytes": "bytes",
    "certfile.reject.s": "s",
    "certfile.self_s": "s",
    "export.dot.s": "s",
    "export.dot.pairs": "count",
    "export.svg.s": "s",
    "export.svg.bytes": "bytes",
    "export.svg.elements": "count",
    "export.self_s": "s",
    "cli.import_s": "s",
    "cli.construct_s": "s",
    "cli.verify_s": "s",
    "cli.export_s": "s",
    "cli.self_s": "s",
    "oracle.max_matching.s": "s",
    "oracle.max_matching.nodes": "count",
    "oracle.max_matching.us_per_node": "us",
    "oracle.sharp_exists.s": "s",
    "oracle.enumerate_share": "ratio",
    "oracle.self_s": "s",
    "bench.self_s": "s",
    "trace.pass_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}
COMPUTED = ("verify.sharp.pairs", "verify.k.subsets", "certfile.bytes", "export.dot.pairs",
            "export.svg.elements")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    import numpy

    quota = _read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        v1 = (_read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
              _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us"))
        quota = " ".join(v1) if None not in v1 else "unavailable"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git unavailable)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cgroup_cpu_max": quota,
        "machine": platform.machine(),
        "commit": commit,
        "cli": "python -m sigmacycles.cli with PYTHONPATH=src (no sigma-cycles script "
               "installed; the package has no __main__.py)",
    }


def calibration_seconds() -> float:
    """Wall time of a fixed pure-Python loop: the host-speed probe."""
    start = perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i * i
    return perf_counter() - start


def timed_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Wall time of prepare.py in a fresh interpreter, and the median time
    of the calibration loops run just before and after it."""
    shutil.rmtree(workdir, ignore_errors=True)
    loops = [calibration_seconds() for _ in range(CAL_AROUND_SETUP)]
    argv = [sys.executable, str(BENCH / "prepare.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(workdir)]
    start = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    seconds = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    loops += [calibration_seconds() for _ in range(CAL_AROUND_SETUP)]
    return seconds, statistics.median(loops)


def fresh_import_seconds() -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import sigmacycles.cli"], check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start


def nearest_rank(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def run_pass(runner, jobs: list[dict]) -> tuple[list, list[float]]:
    """One pass: the jobs' outcomes, each scaled by the pass's host-speed
    correction, and the calibration loop times taken between the jobs."""
    loops = [calibration_seconds()]
    outcomes = []
    for job in jobs:
        outcomes.append(runner.run(job))
        loops.append(calibration_seconds())
    scale = CAL_REFERENCE_S / statistics.median(loops)
    for o in outcomes:
        o.scale = scale
    return outcomes, loops


def run_passes(runner, jobs: list[dict], seconds: float, traced: bool, trace_module,
               between_passes):
    """Closed-loop passes until the next would end after `seconds` of run
    time.  With `traced`, passes alternate untraced / traced.  Calls
    `between_passes()` after each pass, outside the measured time.  Returns
    the untraced and traced passes as lists of outcome lists, the
    calibration loop times, and the tracer."""
    tracer = trace_module.Tracer()
    plain, with_trace, loops = [], [], []
    elapsed = 0.0
    while True:
        start = perf_counter()
        use_trace = traced and len(plain) > len(with_trace)
        restore = trace_module.install(tracer) if use_trace else None
        runner.tracer = tracer if use_trace else None
        try:
            outcomes, pass_loops = run_pass(runner, jobs)
        finally:
            runner.tracer = None
            if restore:
                restore()
        (with_trace if use_trace else plain).append(outcomes)
        loops.append(pass_loops)
        elapsed += perf_counter() - start
        done = len(plain) + len(with_trace)
        if (not traced or with_trace) and elapsed * (done + 1) / done > seconds:
            return plain, with_trace, loops, tracer
        between_passes()


def pass_seconds(outcomes, corrected: bool = True) -> float:
    return sum(o.corrected if corrected else o.seconds for o in outcomes)


def end_to_end(setups: list[float], passes) -> dict[str, float]:
    """End-to-end metrics from host-speed-corrected times; `setups` holds
    corrected set-up times."""
    outcomes = [o for pass_outcomes in passes for o in pass_outcomes]
    times = [o.corrected for o in outcomes]
    total_s = sum(times)
    cli_times = [o.corrected for o in outcomes if o.cli]
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_seconds(p) for p in passes),
        "job_s.p50": statistics.median(times),
        "job_s.p90": nearest_rank(times, 0.9),
        "cert_edges_per_s": sum(o.edges for o in outcomes) / total_s,
        "cli_s.p50": statistics.median(cli_times) if cli_times else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(trace_module, tracer, plain, with_trace, jobs) -> dict[str, float]:
    """Per-layer metrics in raw wall seconds.  trace.coverage is the share of
    the traced pass time spent inside program-layer spans (the rest is the
    benchmark's own job dispatch, bench.self_s); trace.overhead compares
    host-speed-corrected traced and untraced passes."""
    metrics = trace_module.summarize(tracer.spans, {j["id"]: j for j in jobs}, len(with_trace))
    traced_mean = statistics.fmean(pass_seconds(p, corrected=False) for p in with_trace)
    metrics["cli.import_s"] = statistics.median(
        fresh_import_seconds() for _ in range(IMPORT_REPEATS))
    metrics["trace.pass_s"] = traced_mean
    metrics["trace.coverage"] = 1 - metrics["bench.self_s"] / traced_mean
    metrics["trace.overhead"] = (statistics.median(pass_seconds(p) for p in with_trace)
                                 / statistics.median(pass_seconds(p) for p in plain))
    return {name: metrics[name] for name in PER_LAYER}


def main(argv=None) -> int:
    if not (SRC / "sigmacycles" / "__init__.py").is_file():
        print(f"error: no sigmacycles package under {SRC}", file=sys.stderr)
        return 2
    import prepare  # imports sigmacycles

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=prepare.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workdir = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    spare = workdir.with_name(workdir.name + "-setup")
    try:
        setups = [timed_setup(args.workload, args.seed, workdir)]

        def more_setups() -> None:
            if len(setups) < SETUPS:
                setups.append(timed_setup(args.workload, args.seed, spare))

        import jobs as jobs_module
        import tracing as trace_module

        manifest = json.loads((workdir / "manifest.json").read_text())
        jobs = manifest["jobs"]
        runner = jobs_module.Runner(workdir, SRC)
        plain, with_trace, loops, tracer = run_passes(
            runner, jobs, args.seconds, bool(args.trace), trace_module, more_setups)
        while len(setups) < SETUPS:
            more_setups()
        ledger = json.loads((BENCH / "known_defects.json").read_text())["defects"]
        probes = jobs_module.probe_defects(runner, ledger, args.workload)
        if args.trace:
            metrics = per_layer(trace_module, tracer, plain, with_trace, jobs)
            units = PER_LAYER
        else:
            metrics = end_to_end([s * CAL_REFERENCE_S / c for s, c in setups], plain)
            units = END_TO_END
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)

    outcomes = [o for pass_outcomes in plain + with_trace for o in pass_outcomes]
    failures = [o for o in outcomes if not o.ok]
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "calibration": {"loops": CAL_LOOPS, "reference_s": CAL_REFERENCE_S,
                        "between_jobs_s": loops},
        "setup": [{"wall_s": s, "calibration_s": c} for s, c in setups],
        "passes": {"untraced": [pass_seconds(p, False) for p in plain],
                   "traced": [pass_seconds(p, False) for p in with_trace]},
        "jobs": [[o.job, o.seconds, o.scale, o.ok, o.reason] for o in outcomes],
        "known_defects": probes, "metrics": metrics, "computed": list(COMPUTED),
        "spans": tracer.spans,
    }
    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record) + "\n")

    cli_samples = sum(o.cli for o in outcomes)
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {len(plain)} untraced and "
          f"{len(with_trace)} traced passes, {len(outcomes)} job samples, "
          f"{cli_samples} CLI samples, set-up x{len(setups)}")
    print(f"# host-speed correction: calibration loop median "
          f"{statistics.median(x for p in loops for x in p):.6g} s against {CAL_REFERENCE_S} s; "
          f"raw median pass {statistics.median(pass_seconds(p, False) for p in plain):.6g} s, "
          f"raw median set-up {statistics.median(s for s, _ in setups):.6g} s")
    print("# environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in metrics.items():
        label = " (computed)" if key in COMPUTED else ""
        print(f"{key} {value:.6g} {units[key]}{label}")
    print(f"fail_ratio {len(failures) / len(outcomes):.6g} ratio "
          f"({len(failures)} failed / {len(outcomes)} attempted)")
    for o in failures[:20]:
        print(f"# FAILED {o.job}: {o.reason}")
    for defect_id, status in probes.items():
        print(f"# known defect {defect_id}: {status}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

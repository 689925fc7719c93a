"""In-memory span tracing from outside the package.

`install(tracer)` replaces the public functions of each layer with timing
wrappers, in every `sigmacycles` module that holds a reference to them (so a
call that `construct` makes to the `verify_*` it imported is traced too), and
returns a function that puts the originals back.  An untraced run installs
nothing.

A span is `[name, start, end, parent, info]`; `parent` is the index of the
enclosing span or -1.  Self time is a span's duration minus its direct
children's durations.  The layer of a span is the part of its name before
the first dot; spans named "job" belong to the benchmark itself ("bench").
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import statistics
from collections import defaultdict
from time import perf_counter

MODULES = (
    "sigmacycles",
    "sigmacycles.core",
    "sigmacycles.construct",
    "sigmacycles.verify",
    "sigmacycles.certfile",
    "sigmacycles.export",
    "sigmacycles.cli",
)

LAYERS = ("core", "construct", "verify", "oracle", "certfile", "export", "cli", "bench")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1, None])
        self._open.append(index)
        self.spans[index][1] = perf_counter()
        return index

    def end(self, index: int, info=None) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[4] = info
        self._open.pop()


def _construct_info(args, kwargs, result):
    return {"edges": len(result.edges) if result is not None else 0}


def _verify_info(args, kwargs, result):
    cert = args[1]
    k = args[2] if len(args) > 2 else kwargs.get("k")
    if k is None:
        k = cert.k if cert.k is not None else 2
    return {"p": len(cert.edges), "k": k, "ok": result.ok if result is not None else None}


def _read_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]) if os.path.exists(args[0]) else 0}


def _svg_info(args, kwargs, result):
    cert = args[0]
    H = cert.hypergraph
    return {"bytes": len(result) if result is not None else 0,
            "elements": len(cert.edges) * H.n * H.q}


# span name -> (module, function, info(args, kwargs, result) or None)
TRACED = {
    "core.is_edge": ("sigmacycles.core", "is_edge", None),
    "core.enumerate_edges": ("sigmacycles.core", "enumerate_edges", None),
    "construct.sharp": ("sigmacycles.construct", "construct_sharp_hamiltonian", _construct_info),
    "construct.k": ("sigmacycles.construct", "construct_k_intersecting", _construct_info),
    "construct.berge": ("sigmacycles.construct", "construct_berge_hamiltonian", _construct_info),
    "verify.sharp": ("sigmacycles.verify", "verify_sharp_cycle", _verify_info),
    "verify.k": ("sigmacycles.verify", "verify_k_intersecting", _verify_info),
    "verify.berge": ("sigmacycles.verify", "verify_berge_hamiltonian", _verify_info),
    "oracle.max_matching": ("sigmacycles.verify", "brute_force_max_matching",
                            lambda a, kw, r: {"nodes": r.nodes if r else 0}),
    "oracle.sharp_exists": ("sigmacycles.verify", "brute_force_sharp_hamiltonian_exists", None),
    "certfile.dumps": ("sigmacycles.certfile", "dumps",
                       lambda a, kw, r: {"bytes": len(r) if r is not None else 0}),
    "certfile.write": ("sigmacycles.certfile", "write_certificate", None),
    "certfile.parse": ("sigmacycles.certfile", "read_certificate", _read_info),
    "export.dot": ("sigmacycles.export", "render_dot",
                   lambda a, kw, r: {"p": len(a[0].edges)}),
    "export.svg": ("sigmacycles.export", "render_svg", _svg_info),
    "cli.main": ("sigmacycles.cli", "main", None),
}


def _wrap(tracer: Tracer, name: str, fn, info):
    if name == "core.enumerate_edges":
        # A generator: drain it inside the span so the span covers the
        # enumeration (both oracles list() it straight away).
        @functools.wraps(fn)
        def enumerate_wrapper(*args, **kwargs):
            index = tracer.begin(name)
            edges = []
            try:
                edges = list(fn(*args, **kwargs))
            finally:
                tracer.end(index, {"edges": len(edges)})
            return iter(edges)

        return enumerate_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        result = None
        error = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            tracer.end(index)
            details = info(args, kwargs, result) if info else {}
            tracer.spans[index][4] = dict(details, error=error) if error else details

    return wrapper


def install(tracer: Tracer):
    """Wrap every TRACED function wherever a sigmacycles module refers to it;
    returns the function that restores the originals."""
    modules = [importlib.import_module(m) for m in MODULES]
    replaced = []
    for name, (module, attr, info) in TRACED.items():
        original = getattr(importlib.import_module(module), attr)
        wrapper = _wrap(tracer, name, original, info)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    replaced.append((m, key, original))

    def restore() -> None:
        for m, key, original in replaced:
            setattr(m, key, original)

    return restore


def layer_of(name: str) -> str:
    return "bench" if name == "job" else name.split(".", 1)[0]


def summarize(spans: list[list], jobs: dict[str, dict], passes: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `passes` traced passes.

    Times and counts are per pass; shares and rates are ratios of totals.
    `jobs` maps a job id (the "job" key of a job span's info) to its
    manifest entry.
    """
    durations = [s[2] - s[1] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child_time[s[3]] += durations[i]

    def ancestor(i: int, prefix: str) -> int:
        i = spans[i][3]
        while i >= 0 and not spans[i][0].startswith(prefix):
            i = spans[i][3]
        return i

    total = defaultdict(float)  # name -> summed duration
    self_total = defaultdict(float)  # name -> summed self time
    count = defaultdict(int)
    info_sum = defaultdict(float)  # "name:key" -> summed info value
    layer_self = defaultdict(float)
    selfcheck = 0.0  # verify time nested directly in construct spans
    enumerate_in_oracle = 0.0
    reject_parse = 0.0
    verify_by_phase = defaultdict(list)  # phase -> verify seconds per job
    cli_walls = defaultdict(list)
    job_verify = defaultdict(float)
    for i, (name, _, _, parent, info) in enumerate(spans):
        d, own = durations[i], durations[i] - child_time[i]
        total[name] += d
        self_total[name] += own
        count[name] += 1
        layer_self[layer_of(name)] += own
        info = info or {}
        for key, value in info.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                info_sum[f"{name}:{key}"] += value
        if name.startswith("verify."):
            if parent >= 0 and spans[parent][0].startswith("construct."):
                selfcheck += d
            job = ancestor(i, "job")
            if job >= 0:
                job_verify[job] += d
            if name == "verify.sharp" or (name == "verify.k" and info.get("k") == 2):
                info_sum["pairs"] += math.comb(info["p"], 2)
            elif name == "verify.k":
                info_sum["subsets"] += math.comb(info["p"], info["k"])
        elif name == "core.enumerate_edges" and ancestor(i, "oracle.") >= 0:
            enumerate_in_oracle += d
        elif name == "certfile.parse" and "error" in info:
            reject_parse += d
        elif name == "cli.subprocess":
            cli_walls[info["command"]].append(d)
        elif name == "export.dot":
            info_sum["dot_pairs"] += math.comb(info.get("p", 0), 2)
    for job, seconds in job_verify.items():
        phase = jobs.get(spans[job][4]["job"], {}).get("phase")
        if phase:
            verify_by_phase[phase].append(seconds)

    def per_pass(value: float) -> float:
        return value / passes

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return a / b * scale if b else 0.0

    def mean(values: list[float]) -> float:
        return statistics.fmean(values) if values else 0.0

    def median(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    construct_s = sum(total[n] for n in ("construct.sharp", "construct.k", "construct.berge"))
    oracle_s = total["oracle.max_matching"] + total["oracle.sharp_exists"]
    mb = 1e6
    metrics = {
        "core.is_edge.calls": per_pass(count["core.is_edge"]),
        "core.is_edge.s": per_pass(total["core.is_edge"]),
        "core.enumerate_edges.s": per_pass(total["core.enumerate_edges"]),
        "core.enumerate_edges.edges": per_pass(info_sum["core.enumerate_edges:edges"]),
        "construct.sharp.self_s": per_pass(self_total["construct.sharp"]),
        "construct.k.self_s": per_pass(self_total["construct.k"]),
        "construct.berge.self_s": per_pass(self_total["construct.berge"]),
        "construct.s": per_pass(construct_s),
        "construct.edges": per_pass(sum(info_sum[f"construct.{k}:edges"]
                                        for k in ("sharp", "k", "berge"))),
        "construct.selfcheck_share": ratio(selfcheck, construct_s),
        "verify.sharp.s": per_pass(total["verify.sharp"]),
        "verify.sharp.us_per_edge": ratio(total["verify.sharp"],
                                          info_sum["verify.sharp:p"], 1e6),
        "verify.sharp.pairs": per_pass(info_sum["pairs"]),
        "verify.k.s": per_pass(total["verify.k"]),
        "verify.k.subsets": per_pass(info_sum["subsets"]),
        "verify.berge.s": per_pass(total["verify.berge"]),
        "verify.berge.us_per_edge": ratio(total["verify.berge"],
                                          info_sum["verify.berge:p"], 1e6),
        "verify.reject.early_s": mean(verify_by_phase["early"]),
        "verify.reject.late_s": mean(verify_by_phase["late"]),
        "verify.accept.s": mean(verify_by_phase["control"]),
        "certfile.dumps.s": per_pass(total["certfile.dumps"]),
        "certfile.dumps.MB_per_s": ratio(info_sum["certfile.dumps:bytes"],
                                         total["certfile.dumps"] * mb),
        "certfile.parse.s": per_pass(total["certfile.parse"]),
        "certfile.parse.MB_per_s": ratio(info_sum["certfile.parse:bytes"],
                                         total["certfile.parse"] * mb),
        "certfile.bytes": per_pass(info_sum["certfile.dumps:bytes"]
                                   + info_sum["certfile.parse:bytes"]),
        "certfile.reject.s": per_pass(reject_parse),
        "export.dot.s": per_pass(total["export.dot"]),
        "export.dot.pairs": per_pass(info_sum["dot_pairs"]),
        "export.svg.s": per_pass(total["export.svg"]),
        "export.svg.bytes": per_pass(info_sum["export.svg:bytes"]),
        "export.svg.elements": per_pass(info_sum["export.svg:elements"]),
        "cli.construct_s": median(cli_walls["construct"]),
        "cli.verify_s": median(cli_walls["verify"]),
        "cli.export_s": median(cli_walls["export"]),
        "oracle.max_matching.s": per_pass(total["oracle.max_matching"]),
        "oracle.max_matching.nodes": per_pass(info_sum["oracle.max_matching:nodes"]),
        "oracle.max_matching.us_per_node": ratio(total["oracle.max_matching"],
                                                 info_sum["oracle.max_matching:nodes"], 1e6),
        "oracle.sharp_exists.s": per_pass(total["oracle.sharp_exists"]),
        "oracle.enumerate_share": ratio(enumerate_in_oracle, oracle_s),
        "trace.spans": per_pass(len(spans)),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_pass(layer_self[layer])
    return metrics

"""Command-line front end.

Each subcommand is straight-line code; `main` is the one boundary that turns
an error into a message on stderr, `<command>: <message>`, and an exit code:

    0  success, or the certificate passes verification
    1  verification refuted the certificate
    2  CertificateParseError ("parse error: ..."), any other ValueError
       (bad parameters, NoEdgesError, an export over the size limit), an
       OSError writing an -o path ("cannot write <path>: <reason>"), or a
       failed write to stdout, such as a closed pipe or a full device
       ("cannot write stdout: <reason>")
    3  a constructor refusal, NoCycle (no such cycle exists) or NoRecipe
       (no recipe covers the parameters), as "<Name>: ...", or
       BudgetExceeded ("budget exceeded: ...")

Each subcommand imports the modules it runs when it runs, so a call loads
(and, without cached bytecode, compiles) only those: `oracle max-matching`
never loads the constructors or the certificate file format.  The value
types need no dataclasses, so no call loads it or inspect, ast and dis.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

from .certificates import KIND_BERGE, KIND_K_INTERSECTING, KIND_SHARP
from .core import SigmaHypergraph, edge_count, enumerate_edges, parse_partition
from .errors import BudgetExceeded, CertificateParseError, ConstructionError

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3


def _add_hypergraph_args(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--sigma", required=True, help="comma-separated partition parts")
    sp.add_argument("--n", type=int, required=True, help="number of classes")
    sp.add_argument("--q", type=int, required=True, help="class size")


def _hypergraph(args: argparse.Namespace) -> SigmaHypergraph:
    return SigmaHypergraph(args.n, args.q, parse_partition(args.sigma))


def _write_output(path: str, text: str) -> None:
    """Write text to an -o path.  An OSError from the open, the write or the
    close (a full device fails only there) names the path."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        exc.filename = path
        raise


def _cmd_construct(args: argparse.Namespace) -> int:
    from . import certfile
    from .construct import (
        construct_berge_hamiltonian,
        construct_k_intersecting,
        construct_sharp_hamiltonian,
    )

    H = _hypergraph(args)
    if args.kind == KIND_BERGE:
        cert = construct_berge_hamiltonian(H)
    elif args.kind == KIND_SHARP:
        cert = construct_sharp_hamiltonian(H, p=args.split)
    elif args.k is None:
        raise ValueError("--k is required for kind k-intersecting")
    else:
        cert = construct_k_intersecting(H, args.k)
    if args.output:
        _write_output(args.output, certfile.dumps(cert))
    else:
        sys.stdout.write(certfile.dumps(cert))
    summary = f"{cert.kind}: {len(cert.edges)} edges"
    if cert.claimed_t is not None:
        summary += f", profile ({cert.claimed_t},{cert.claimed_z})"
    if cert.k is not None:
        summary += f", k={cert.k}"
    # a certificate on stdout stays one JSON document
    print(summary, file=sys.stdout if args.output else sys.stderr)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import certfile

    cert = certfile.read_certificate(args.path)
    # after the read: a file that fails to parse never loads the verifiers
    from .verify import verify_berge_hamiltonian, verify_k_intersecting, verify_sharp_cycle

    H = cert.hypergraph
    if cert.kind == KIND_BERGE:
        report = verify_berge_hamiltonian(H, cert)
    elif cert.kind == KIND_SHARP:
        report = verify_sharp_cycle(H, cert)
    else:
        report = verify_k_intersecting(H, cert)
    if report.profile is not None:
        print(f"profile: {list(report.profile.pair_sizes)}")
        if report.profile.uniform_t is not None:
            kind = "t-sharp" if report.profile.t_sharp else "(t,z)-sharp"
            print(f"{kind}: t={report.profile.uniform_t}, z={report.profile.uniform_z}")
    if report.window_sizes is not None:
        print(f"window sizes: {list(report.window_sizes)}")
    if report.ok:
        # a failing check stops before it measures coverage
        print(f"hamiltonian: {str(report.hamiltonian).lower()}")
        print("PASS")
        return EXIT_OK
    print(f"FAIL: {report.violated_condition}: {report.detail}")
    return EXIT_REFUTED


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .verify import matching_upper_bound, no_cycle_reason, sharp_cycle_bounds

    H = _hypergraph(args)
    # raises ValueError for r < 2 before anything prints
    lo, hi = sharp_cycle_bounds(H)
    reason = no_cycle_reason(H, KIND_SHARP)
    print(f"vertices: {H.vertex_count}")
    print(f"sharp cycle edge-count window: [{lo}, {hi}]")
    print(f"max matching <= {matching_upper_bound(H)}")
    if reason is not None:
        print(f"refuted: {reason}")
    print("INCONCLUSIVE" if reason is None else "REFUTES-SHARP-HC")
    return EXIT_OK


def _cmd_max_matching(args: argparse.Namespace) -> int:
    from .verify import brute_force_max_matching

    result = brute_force_max_matching(_hypergraph(args), budget=args.budget)
    if result.exact:
        print(result.nu)
    else:
        print(f">= {result.nu} (inexact, budget exhausted)")
    return EXIT_OK


def _cmd_sharp_exists(args: argparse.Namespace) -> int:
    from .verify import brute_force_sharp_hamiltonian_exists, no_cycle_reason, sharp_cycle_bounds

    H = _hypergraph(args)
    result = brute_force_sharp_hamiltonian_exists(H, max_len=args.max_len, budget=args.budget)
    if result.status == "found":
        print(f"found ({len(result.certificate.edges)} edges)")
        if args.output:
            from . import certfile

            _write_output(args.output, certfile.dumps(result.certificate))
    else:
        print("exhausted")
        # a nonexistence reason is a proof that no sharp cycle exists,
        # whatever --max-len is
        if no_cycle_reason(H, KIND_SHARP) is None:
            lo, hi = sharp_cycle_bounds(H)
            if args.max_len < hi:
                print(
                    f"note: only sharp cycles of at most {args.max_len} edges are ruled out; "
                    f"the sharp cycle edge-count window is [{lo}, {hi}]",
                    file=sys.stderr,
                )
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    H = _hypergraph(args)
    if args.count_only:
        print(edge_count(H))
        return EXIT_OK
    for edge in enumerate_edges(H):
        print(" ".join(f"{c},{row}" for c, row in edge.vertices))
    return EXIT_OK


def _cmd_export(args: argparse.Namespace) -> int:
    from . import certfile, export

    cert = certfile.read_certificate(args.path)
    text = export.render_dot(cert) if args.format == "dot" else export.render_svg(cert)
    if args.output:
        _write_output(args.output, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parse_args leaves the
    parser unchanged and returns a new namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="sigma-cycles",
        description="Construct, verify and analyze Hamiltonian cycle certificates "
        "for grid-structured uniform hypergraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("construct", help="construct a verifier-gated certificate")
    _add_hypergraph_args(sp)
    sp.add_argument("--kind", required=True, choices=[KIND_BERGE, KIND_SHARP, KIND_K_INTERSECTING])
    sp.add_argument("--k", type=int, help="window size for k-intersecting cycles")
    sp.add_argument("--split", type=int, default=1, help="split index for sharp cycles")
    sp.add_argument(
        "-o", "--output", help="certificate output path (default: stdout, the summary to stderr)"
    )
    sp.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("verify", help="verify a certificate file")
    sp.add_argument("path")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("bounds", help="matching and sharp-cycle bounds")
    _add_hypergraph_args(sp)
    sp.set_defaults(func=_cmd_bounds)

    oracles = sub.add_parser("oracle", help="brute-force oracles").add_subparsers(
        dest="oracle", required=True
    )
    sp = oracles.add_parser("max-matching", help="exact maximum matching size")
    _add_hypergraph_args(sp)
    sp.add_argument("--budget", type=int, default=2_000_000, help="search state budget")
    sp.set_defaults(func=_cmd_max_matching)

    sp = oracles.add_parser("sharp-exists", help="search for a sharp Hamiltonian cycle")
    _add_hypergraph_args(sp)
    sp.add_argument("--budget", type=int, default=2_000_000, help="search node budget")
    sp.add_argument("--max-len", type=int, default=12, help="maximum cycle length")
    sp.add_argument("-o", "--output", help="write a found certificate here")
    sp.set_defaults(func=_cmd_sharp_exists)

    sp = sub.add_parser("enumerate", help="stream or count edges")
    _add_hypergraph_args(sp)
    sp.add_argument("--count-only", action="store_true")
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("export", help="render a certificate as DOT or SVG")
    sp.add_argument("path")
    sp.add_argument("--format", required=True, choices=["dot", "svg"])
    sp.add_argument("-o", "--output", help="output path (default: stdout)")
    sp.set_defaults(func=_cmd_export)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        # a reader that closed the pipe fails this flush, not the one at
        # exit; stdout is None when fd 1 was closed before start-up
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except CertificateParseError as exc:
        message, code = f"parse error: {exc}", EXIT_USAGE
    except ValueError as exc:
        message, code = str(exc), EXIT_USAGE
    except OSError as exc:
        # reads fail as CertificateParseError and _write_output names its
        # path, so an error without a file name is a failed write to stdout:
        # a closed pipe or a full device
        message, code = f"cannot write {exc.filename or 'stdout'}: {exc.strerror or exc}", EXIT_USAGE
        if exc.filename is None:
            # what is left in stdout's buffer goes to devnull at exit, so
            # the interpreter's last flush cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except ConstructionError as exc:
        message, code = f"{type(exc).__name__}: {exc}", EXIT_UNSUPPORTED
    except BudgetExceeded as exc:
        message, code = f"budget exceeded: {exc}", EXIT_UNSUPPORTED
    print(f"{args.command}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

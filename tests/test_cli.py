"""CLI subcommands, exit codes and renderer determinism."""

import contextlib
import copy
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sigmacycles
from sigmacycles import core, verify
from sigmacycles.cli import main
from sigmacycles.certfile import read_certificate
from test_certfile_differential import BASES, mutate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_berge(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, out, _ = run(
            capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "3",
            "--kind", "berge", "-o", str(path),
        )
        assert code == 0
        assert "9 edges" in out
        assert len(read_certificate(path).edges) == 9

    def test_sharp_profile(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, out, _ = run(
            capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "6",
            "--kind", "sharp", "--split", "1", "-o", str(path),
        )
        assert code == 0
        assert "12 edges" in out
        assert "(2,1)" in out

    def test_unsupported_exit_code(self, capsys):
        code, _, err = run(
            capsys, "construct", "--sigma", "2,1", "--n", "2", "--q", "6", "--kind", "sharp"
        )
        assert code == 3
        assert err == "construct: NoRecipe: n=2 <= s=2\n"

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["2,2", "4", "2"], "NoCycle: H(n=4, q=2, sigma=(2,2)): too few edges for a cycle through all 8 vertices"),
            (["2,2", "5", "2"], "NoRecipe: H(n=5, q=2, sigma=(2,2)): the walk recipe does not cover"),
            (["1", "3", "2"], "NoCycle: H(n=3, q=2, sigma=(1)): an edge of one vertex links no two cycle vertices"),
            (["2,2", "2", "2"], "NoCycle: H(n=2, q=2, sigma=(2,2)): too few edges for a cycle through all 4 vertices"),
            (["2", "2", "3"], "NoCycle: H(n=2, q=3, sigma=(2)): every edge lies in one class, so H is disconnected"),
        ],
        ids=["too-few-edges", "walk-recipe", "r1", "single-edge", "disconnected"],
    )
    def test_berge_refusals(self, capsys, argv, prefix):
        sigma, n, q = argv
        code, out, err = run(
            capsys, "construct", "--sigma", sigma, "--n", n, "--q", q, "--kind", "berge"
        )
        assert code == 3
        assert out == ""
        assert err.startswith(f"construct: {prefix}")

    @pytest.mark.parametrize("k", ["0", "1"])
    def test_k_below_two_is_a_usage_error(self, capsys, k):
        # the rule for k, as the reader and the verifiers apply it
        code, out, err = run(
            capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "6",
            "--kind", "k-intersecting", "--k", k,
        )
        assert code == 2
        assert out == ""
        assert err == "construct: k must be an integer >= 2\n"

    def test_oversize_refused(self, capsys):
        code, out, err = run(
            capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "200000", "--kind", "sharp"
        )
        assert code == 2
        assert out == ""
        assert "construct: " in err and "certificate vertex slots exceed the limit" in err

    def test_usage_error(self, capsys):
        code, _, err = run(
            capsys, "construct", "--sigma", "0,1", "--n", "3", "--q", "3", "--kind", "berge"
        )
        assert code == 2

    def test_k_required(self, capsys):
        code, _, err = run(
            capsys, "construct", "--sigma", "1,1,1", "--n", "4", "--q", "3",
            "--kind", "k-intersecting",
        )
        assert code == 2
        assert "--k" in err

    def test_stdout_is_valid_json(self, capsys):
        code, out, err = run(
            capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "3", "--kind", "berge"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert err == "berge: 9 edges\n"

    @pytest.mark.parametrize("n, q", [(2, 6), (4, 5), (4, 6)])
    def test_bad_split_is_usage_error(self, capsys, n, q):
        # checked before n, the item limit and the split of q into blocks
        code, _, err = run(
            capsys, "construct", "--sigma", "2,1", "--n", str(n), "--q", str(q),
            "--kind", "sharp", "--split", "0",
        )
        assert code == 2
        assert "split_index must be an integer in 1..1" in err


class TestVerify:
    def make_cert(self, capsys, tmp_path, *argv):
        path = tmp_path / "c.json"
        code, _, _ = run(capsys, *argv, "-o", str(path))
        assert code == 0
        return path

    def test_round_trip(self, capsys, tmp_path):
        path = self.make_cert(
            capsys, tmp_path,
            "construct", "--sigma", "2,1", "--n", "3", "--q", "6", "--kind", "sharp",
        )
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "PASS" in out

    def test_large_k_intersecting_round_trip(self, capsys, tmp_path):
        path = self.make_cert(
            capsys, tmp_path,
            "construct", "--kind", "k-intersecting", "--k", "3",
            "--sigma", "2,1,1", "--n", "14", "--q", "40",
        )
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "PASS" in out
        assert "hamiltonian: true" in out

    def test_hamiltonian_line_only_on_pass(self, capsys, tmp_path):
        path = self.make_cert(
            capsys, tmp_path,
            "construct", "--sigma", "2,1", "--n", "4", "--q", "6", "--kind", "sharp",
        )
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert "hamiltonian: true" in out
        # the last two edges swapped: edge 0 meets the edge now second to last
        doc = json.loads(path.read_text())
        edges = doc["cycle"]["edges"]
        edges[-2], edges[-1] = edges[-1], edges[-2]
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "FAIL: forbidden-intersection-nonempty" in out
        assert "hamiltonian:" not in out

    def test_one_vertex_berge_file_fails(self, capsys, tmp_path):
        # the 1 x 1 grid's one edge is no cycle, as construct's NoCycle says
        H = core.make_hypergraph(1, 1, core.parse_partition("1"))
        cert = sigmacycles.CycleCertificate(
            H, "berge", (core.Edge.of([(0, 0)]),), vertex_sequence=((0, 0),)
        )
        path = tmp_path / "one.json"
        path.write_text(sigmacycles.certfile.dumps(cert))
        code, out, _ = run(capsys, "verify", str(path))
        assert (code, out) == (1, "FAIL: degenerate-length: 1 edge; a Berge cycle needs at least 2\n")
        code, _, err = run(capsys, "construct", "--kind", "berge", "--sigma", "1", "--n", "1", "--q", "1")
        assert code == 3 and err.startswith("construct: NoCycle: ")

    def test_corrupted_vertex(self, capsys, tmp_path):
        path = self.make_cert(
            capsys, tmp_path,
            "construct", "--sigma", "2,1", "--n", "3", "--q", "3", "--kind", "berge",
        )
        doc = json.loads(path.read_text())
        doc["cycle"]["edges"][0][0] = [1, 0]  # same class as another vertex? keep valid range
        doc["cycle"]["edges"][0] = [[0, 0], [1, 0], [2, 0]]
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "non-edge-member" in out

    def test_truncated_file(self, capsys, tmp_path):
        path = self.make_cert(
            capsys, tmp_path,
            "construct", "--sigma", "2,1", "--n", "3", "--q", "3", "--kind", "berge",
        )
        path.write_text(path.read_text()[:50])
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "parse error" in err


class TestUnreadableFile:
    """Files that are not JSON at all end in a parse error (exit 2) from
    every subcommand that reads a certificate, never in a traceback."""

    @pytest.mark.parametrize(
        "command", [["verify"], ["export", "--format", "dot"]], ids=["verify", "export"]
    )
    @pytest.mark.parametrize(
        "content",
        [
            b'\xff\xfe{"schema_version": "1"}',
            b"[" * 200_000 + b"]" * 200_000,
            b'{"schema_version": "1", "hypergraph": {"n": ' + b"9" * 5000 + b"}}",
        ],
        ids=["invalid-utf8", "deeply-nested-arrays", "integer-too-long"],
    )
    def test_parse_error(self, capsys, tmp_path, content, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, _, err = run(capsys, command[0], str(bad), *command[1:])
        assert code == 2
        assert "parse error" in err


class TestUnwritableOutput:
    """An output path that cannot be written is a usage error (exit 2) with
    a message, never a traceback and never the "refuted" code 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--sigma", "2,1", "--n", "3", "--q", "6", "--kind", "sharp"],
            ["export", "{cert}", "--format", "svg"],
            ["oracle", "sharp-exists", "--sigma", "1,1", "--n", "2", "--q", "2", "--max-len", "6"],
        ],
        ids=["construct", "export", "oracle"],
    )
    @pytest.mark.parametrize("target", ["missing-dir/out", "."], ids=["missing-dir", "directory"])
    def test_cannot_write(self, capsys, tmp_path, argv, target):
        cert = tmp_path / "c.json"
        assert run(
            capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "3",
            "--kind", "berge", "-o", str(cert),
        )[0] == 0
        out = tmp_path / target
        argv = [a.replace("{cert}", str(cert)) for a in argv]
        code, _, err = run(capsys, *argv, "-o", str(out))
        assert code == 2
        assert f"{argv[0]}: cannot write {out}: " in err
        assert not (tmp_path / "missing-dir").exists()


class TestBounds:
    def test_refutes(self, capsys):
        code, out, _ = run(capsys, "bounds", "--sigma", "3,3,3", "--n", "5", "--q", "5")
        assert code == 0
        assert "REFUTES-SHARP-HC" in out

    def test_inconclusive(self, capsys):
        code, out, _ = run(capsys, "bounds", "--sigma", "2,1", "--n", "3", "--q", "6")
        assert code == 0
        assert "INCONCLUSIVE" in out
        assert "[9, 12]" in out

    def test_uniform_r1_is_usage_error(self, capsys):
        # nothing is printed before the r message
        code, out, err = run(capsys, "bounds", "--sigma", "1", "--n", "3", "--q", "3")
        assert code == 2
        assert out == ""
        assert "bounds: sharp cycle bounds need r >= 2, got r=1" in err

    def test_empty_window(self, capsys):
        # nq/(r-1) = 2, but a sharp cycle has at least 4 edges, and
        # 2nq/r = 3: the window is empty
        code, out, _ = run(capsys, "bounds", "--sigma", "2,2", "--n", "2", "--q", "3")
        assert (code, out) == (0, (
            "vertices: 6\n"
            "sharp cycle edge-count window: [4, 3]\n"
            "max matching <= 1\n"
            "refuted: edge-count window [4, 3] and max matching <= 1 leave no sharp cycle\n"
            "REFUTES-SHARP-HC\n"
        ))

    def test_window_and_matching(self, capsys):
        # window [4, 4]: a 4-edge cycle's alternate edges are a matching of
        # 2, and the class-load ceiling allows 1
        code, out, _ = run(capsys, "bounds", "--sigma", "2,2", "--n", "3", "--q", "3")
        assert (code, out) == (0, (
            "vertices: 9\n"
            "sharp cycle edge-count window: [4, 4]\n"
            "max matching <= 1\n"
            "refuted: edge-count window [4, 4] and max matching <= 1 leave no sharp cycle\n"
            "REFUTES-SHARP-HC\n"
        ))

    def test_disconnected(self, capsys):
        # one part and n >= 2: the window [12, 12] and the matching bound 6
        # leave room, so the refutation names its own reason
        code, out, _ = run(capsys, "bounds", "--sigma", "2", "--n", "3", "--q", "4")
        assert (code, out) == (0, (
            "vertices: 12\n"
            "sharp cycle edge-count window: [12, 12]\n"
            "max matching <= 6\n"
            "refuted: every edge lies in one class, so H is disconnected\n"
            "REFUTES-SHARP-HC\n"
        ))

    def test_bound_without_gcd(self, capsys):
        # gcd 1: the bound is nq/r, and the test always runs on it
        code, out, _ = run(capsys, "bounds", "--sigma", "2,1", "--n", "3", "--q", "6")
        assert code == 0
        assert out.endswith("max matching <= 6\nINCONCLUSIVE\n")

    def test_nu_is_not_an_option(self, capsys):
        # bounds runs on its own matching bound alone: an outside one is a
        # usage error from argparse, and nothing is printed
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--sigma", "2,1", "--n", "3", "--q", "6", "--nu", "3"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "unrecognized arguments: --nu 3" in err

    @pytest.mark.parametrize("sigma, n, q", [("4,1,1", "3", "4"), ("3,1,1,1", "4", "3")])
    def test_matching_bound_gap_at_r6(self, capsys, sigma, n, q):
        # the class-load ceiling alone allows a matching of 2 here, where the
        # exact nu is 1.  n = s closes the gap: every copy of sigma puts a
        # part in every class, so nu <= 1 + (q - a_1) // a_s = 1.  bounds
        # refutes, the oracle's exact nu agrees, the sharp search over the
        # whole window [4, 4] finds nothing, and the sharp constructor's
        # refusal is a proof
        hg = ["--sigma", sigma, "--n", n, "--q", q]
        assert run(capsys, "bounds", *hg)[:2] == (0, (
            "vertices: 12\nsharp cycle edge-count window: [4, 4]\nmax matching <= 1\n"
            "refuted: edge-count window [4, 4] and max matching <= 1 leave no sharp cycle\n"
            "REFUTES-SHARP-HC\n"
        ))
        assert run(capsys, "oracle", "max-matching", *hg)[:2] == (0, "1\n")
        assert run(capsys, "oracle", "sharp-exists", *hg, "--max-len", "4") == (0, "exhausted\n", "")
        code, _, err = run(capsys, "construct", "--kind", "sharp", *hg)
        assert code == 3 and err.startswith("construct: NoCycle: ")

    @pytest.mark.parametrize(
        "sigma, n, q",
        [("3,3,3", 5, 5), ("2", 2, 3), ("2", 4, 5), ("3", 3, 5), ("4", 4, 7)],
    )
    def test_refutes_without_nu(self, capsys, sigma, n, q):
        # the bound alone refutes, and the sharp oracle at max-len
        # floor(2nq/r) finds no cycle either
        code, out, _ = run(capsys, "bounds", "--sigma", sigma, "--n", str(n), "--q", str(q))
        assert code == 0
        assert out.endswith("REFUTES-SHARP-HC\n")
        H = core.make_hypergraph(n, q, core.parse_partition(sigma))
        max_len = 2 * n * q // H.r
        assert verify.brute_force_sharp_hamiltonian_exists(H, max_len).status == "exhausted"


class TestOracle:
    def test_max_matching(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "max-matching", "--sigma", "2,2", "--n", "3", "--q", "5"
        )
        assert code == 0
        assert out.strip() == "3"

    def test_sharp_exists_exhausted(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "sharp-exists", "--sigma", "4,1,1,1", "--n", "4", "--q", "4",
            "--max-len", "4",
        )
        assert code == 0
        assert out.strip() == "exhausted"

    def test_sharp_exists_short_search_notes_the_window(self, capsys):
        # the default max-len 12 is far below floor(2nq/r) = 66: exhausted
        # says nothing about Hamiltonian cycles, and stderr says so
        code, out, err = run(
            capsys, "oracle", "sharp-exists", "--sigma", "1,1,1", "--n", "10", "--q", "10"
        )
        assert (code, out) == (0, "exhausted\n")
        assert err == (
            "note: only sharp cycles of at most 12 edges are ruled out; "
            "the sharp cycle edge-count window is [50, 66]\n"
        )

    @pytest.mark.parametrize(
        "sigma, n, q, max_len",
        [("2", "4", "5", "12"), ("2,2", "2", "3", "2"), ("2,2", "3", "3", "3")],
        ids=["disconnected", "empty-window", "matching"],
    )
    def test_sharp_exists_refuted_has_no_note(self, capsys, sigma, n, q, max_len):
        # max-len below floor(2nq/r), but no_cycle_reason proves that no
        # sharp cycle exists at any length: no note
        code, out, err = run(
            capsys, "oracle", "sharp-exists", "--sigma", sigma, "--n", n, "--q", q,
            "--max-len", max_len,
        )
        assert (code, out, err) == (0, "exhausted\n", "")

    def test_sharp_exists_full_search_has_no_note(self, capsys):
        # max-len 4 = floor(2nq/r): exhausted proves that no sharp
        # Hamiltonian cycle exists
        code, out, err = run(
            capsys, "oracle", "sharp-exists", "--sigma", "2,2", "--n", "3", "--q", "3",
            "--max-len", "4",
        )
        assert (code, out, err) == (0, "exhausted\n", "")

    def test_sharp_exists_found(self, capsys, tmp_path):
        path = tmp_path / "found.json"
        code, out, _ = run(
            capsys, "oracle", "sharp-exists", "--sigma", "1,1", "--n", "2", "--q", "2",
            "--max-len", "6", "-o", str(path),
        )
        assert code == 0
        assert "found" in out
        assert len(read_certificate(path).edges) == 4

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["sharp-exists", "--max-len", "-1"], "max_len and budget must be >= 0, got -1 and"),
            (["sharp-exists", "--budget", "-1"], "max_len and budget must be >= 0, got 12 and -1"),
            (["max-matching", "--budget", "-1"], "budget must be >= 0, got -1"),
        ],
        ids=["sharp-max-len", "sharp-budget", "matching-budget"],
    )
    def test_negative_limit_is_usage_error(self, capsys, argv, fragment):
        code, out, err = run(
            capsys, "oracle", argv[0], "--sigma", "2,1", "--n", "3", "--q", "3", *argv[1:]
        )
        assert code == 2
        assert out == ""
        assert f"oracle: {fragment}" in err

    @pytest.mark.parametrize(
        "argv, rejected",
        [(["--max-len", "-1"], "--max-len -1"), (["-o", "x.json"], "-o x.json")],
        ids=["max-len", "output"],
    )
    def test_max_matching_takes_only_its_options(self, capsys, tmp_path, monkeypatch, argv, rejected):
        # max-len and -o belong to sharp-exists: max-matching rejects them
        # as argparse usage errors, and writes nothing
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "max-matching", "--sigma", "2,1", "--n", "3", "--q", "3", *argv])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"unrecognized arguments: {rejected}" in err
        assert list(tmp_path.iterdir()) == []

    def test_inexact_max_matching(self, capsys):
        # 84,700 edges: the class-load search is cut after 10 states, in its
        # first greedy descent
        code, out, err = run(
            capsys, "oracle", "max-matching", "--sigma", "2,2", "--n", "8", "--q", "11",
            "--budget", "10",
        )
        assert (code, out, err) == (0, ">= 10 (inexact, budget exhausted)\n", "")

    def test_budget_exit(self, capsys):
        # 10,000 edges, more than the budget, which counts class-load states:
        # the search answers in 2
        code, out, err = run(
            capsys, "oracle", "max-matching", "--sigma", "3,3,3", "--n", "5", "--q", "5",
            "--budget", "10",
        )
        assert (code, out, err) == (0, "1\n", "")

    def test_sharp_exists_huge_grid(self, capsys):
        # max-len reaches the window [5 x 10^11, floor(2nq/r)], so the search
        # is refused before it starts: n x min(max-len, floor(2nq/r)) exceeds
        # the budget.  The default max-len is below the window, which the
        # root answers first
        argv = ["oracle", "sharp-exists", "--sigma", "2,1", "--n", "1000000", "--q", "1000000"]
        code, out, err = run(capsys, *argv, "--max-len", str(10**12))
        assert (code, out) == (3, "")
        assert err == (
            "oracle: budget exceeded: 1000000 classes x 666666666666 path edges exceeds budget 2000000\n"
        )
        code, out, _ = run(capsys, *argv)
        assert (code, out) == (0, "exhausted\n")


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--sigma", "2,1", "--n", "3", "--q", "3", "--count-only"
        )
        assert code == 0
        assert out.strip() == "54"

    def test_single_edge(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--sigma", "2,2", "--n", "2", "--q", "2", "--count-only"
        )
        assert out.strip() == "1"

    def test_stream_matches_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--sigma", "2,1", "--n", "3", "--q", "3")
        assert code == 0
        assert len(out.splitlines()) == 54

    def test_thousand_parts(self, capsys):
        # one edge, all 1,000 classes: the runs come from an explicit stack,
        # so the number of parts is not bounded by the recursion limit
        code, out, err = run(
            capsys, "enumerate", "--sigma", ",".join(["1"] * 1000), "--n", "1000", "--q", "1"
        )
        assert (code, len(out.splitlines()), err) == (0, 1, "")


class TestExport:
    def make_cert(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, _, _ = run(
            capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "3",
            "--kind", "berge", "-o", str(path),
        )
        assert code == 0
        return path

    def test_svg_shape(self, capsys, tmp_path):
        path = self.make_cert(capsys, tmp_path)
        code, out, _ = run(capsys, "export", str(path), "--format", "svg")
        assert code == 0
        assert out.startswith("<svg")
        assert out.count(">e") == 9  # one labeled panel per edge

    def test_svg_to_file(self, capsys, tmp_path):
        path = self.make_cert(capsys, tmp_path)
        printed = run(capsys, "export", str(path), "--format", "svg")[1]
        out_path = tmp_path / "out.svg"
        code, out, _ = run(capsys, "export", str(path), "--format", "svg", "-o", str(out_path))
        assert (code, out) == (0, "")
        assert out_path.read_bytes() == printed.encode()

    def test_dot_shape(self, capsys, tmp_path):
        path = self.make_cert(capsys, tmp_path)
        code, out, _ = run(capsys, "export", str(path), "--format", "dot")
        assert code == 0
        assert out.startswith("graph cycle {")
        assert out.count("[label=\"e") == 9

    def test_deterministic(self, capsys, tmp_path):
        path = self.make_cert(capsys, tmp_path)
        outputs = []
        for fmt in ("svg", "dot"):
            a = run(capsys, "export", str(path), "--format", fmt)[1]
            b = run(capsys, "export", str(path), "--format", fmt)[1]
            assert a == b
            outputs.append(a)
        assert outputs[0] != outputs[1]

    def test_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "export", str(bad), "--format", "dot")
        assert code == 2

    def test_oversize_svg_refused(self, capsys, tmp_path):
        # one edge on a declared 20000 x 20000 grid: 4e8 cells to draw
        path = tmp_path / "big.json"
        doc = {
            "schema_version": "1",
            "hypergraph": {"n": 20000, "q": 20000, "sigma": [2, 1]},
            "cycle": {"kind": "sharp", "edges": [[[0, 0], [0, 1], [1, 0]]]},
        }
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "export", str(path), "--format", "svg")
        assert code == 2
        assert out == ""
        assert "export: svg grid cells: 400000000 exceeds the rendering limit" in err
        code, out, _ = run(capsys, "export", str(path), "--format", "dot")
        assert code == 0
        assert out.count("[label=\"e") == 1

    def test_oversize_dot_refused(self, capsys, tmp_path):
        # 1500 copies of one 3-vertex edge: each vertex lists all 1500, so the
        # index holds 3 * C(1500, 2) = 3,372,750 pairs
        path = tmp_path / "c.json"
        doc = {
            "schema_version": "1",
            "hypergraph": {"n": 3, "q": 3, "sigma": [2, 1]},
            "cycle": {"kind": "sharp", "edges": [[[0, 0], [0, 1], [1, 0]]] * 1500},
        }
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "export", str(path), "--format", "dot")
        assert code == 2
        assert out == ""
        assert "export: dot edge pairs: 3372750 exceeds the rendering limit" in err

    def test_long_cycle_dot_renders(self, capsys, tmp_path):
        # 1600 edges, 1,279,200 edge pairs: over the limit if every pair
        # were intersected, but only consecutive edges share a vertex
        path = tmp_path / "c.json"
        code, _, _ = run(
            capsys, "construct", "--sigma", "1,1", "--n", "40", "--q", "40",
            "--kind", "berge", "-o", str(path),
        )
        assert code == 0
        code, out, _ = run(capsys, "export", str(path), "--format", "dot")
        assert code == 0
        assert out.count("[label=\"e") == 1600
        assert out.count(" -- ") == 1600

    def test_limit_clears_benchmark_size(self):
        # a 200-edge sharp cycle on a 10 x 30 grid draws 60,000 cells; keep a
        # tenfold margin above it
        assert core.MAX_ITEMS >= 10 * 200 * 10 * 30


class TestParserReuse:
    def test_consecutive_calls_parse_independently(self, capsys, tmp_path):
        # main reuses one parser: options of one call must not leak into the next
        path = tmp_path / "c.json"
        code, out, _ = run(
            capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "6",
            "--kind", "sharp", "--split", "1", "-o", str(path),
        )
        assert code == 0
        assert out.startswith("sharp: 12 edges, profile")
        code, out, _ = run(capsys, "bounds", "--sigma", "2,2", "--n", "3", "--q", "3")
        assert code == 0
        assert "REFUTES-SHARP-HC" in out
        code, out, _ = run(capsys, "bounds", "--sigma", "2,1", "--n", "3", "--q", "6")
        assert code == 0
        assert out.endswith("max matching <= 6\nINCONCLUSIVE\n")
        code, out, _ = run(
            capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "3", "--kind", "berge"
        )
        assert code == 0
        assert json.loads(out[: out.rindex("}") + 1])["cycle"]["kind"] == "berge"
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out.endswith("PASS\n")


def python(*argv, **kwargs) -> subprocess.Popen:
    """A fresh interpreter that imports this package from source."""
    src = str(Path(sigmacycles.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, *argv], text=True, env=dict(os.environ, PYTHONPATH=src), **kwargs
    )


class TestStartup:
    """A call imports only the modules its subcommand runs (each module
    is compiled from source when no bytecode is cached), and no code path
    needs numpy.  The value types are defined without dataclasses, so no
    call loads it or the inspect module it imports."""

    SCRIPT = (
        "import sys\n"
        "import sigmacycles\n"
        "if sys.argv[1:]:\n"
        "    from sigmacycles.cli import main\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "print(*sorted(sys.modules), file=sys.stderr)\n"
    )

    def modules(self, *argv, script=SCRIPT) -> set[str]:
        proc = python("-c", script, *argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        return set(err.split())

    def test_bare_import_loads_no_submodule(self):
        loaded = self.modules()
        assert "sigmacycles" in loaded
        assert [m for m in loaded if m.startswith("sigmacycles.") or m == "numpy"] == []

    def test_value_type_modules_load_no_dataclasses(self):
        loaded = self.modules(script=(
            "import sys\n"
            "import sigmacycles.core, sigmacycles.certificates, sigmacycles.verify\n"
            "print(*sorted(sys.modules), file=sys.stderr)\n"
        ))
        assert "sigmacycles.verify" in loaded
        assert [m for m in ("dataclasses", "inspect") if m in loaded] == []

    @pytest.mark.parametrize(
        "argv, runs, skips",
        [
            (["oracle", "max-matching", "--sigma", "2,2", "--n", "3", "--q", "5"], "verify",
             ["sigmacycles.construct", "sigmacycles.certfile", "sigmacycles.export",
              "json", "fractions"]),
            (["verify", "{cert}"], "verify", ["sigmacycles.construct", "sigmacycles.export"]),
            (["export", "{cert}", "--format", "dot"], "export",
             ["sigmacycles.verify", "sigmacycles.construct"]),
            (["construct", "--kind", "sharp", "--sigma", "2,1", "--n", "3", "--q", "6"],
             "construct", ["sigmacycles.export"]),
        ],
        ids=["oracle", "verify", "export", "construct"],
    )
    def test_command_loads_only_what_it_runs(self, capsys, tmp_path, argv, runs, skips):
        cert = tmp_path / "c.json"
        run(capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "6", "--kind", "sharp",
            "-o", str(cert))
        loaded = self.modules(*(a.replace("{cert}", str(cert)) for a in argv))
        assert f"sigmacycles.{runs}" in loaded
        assert [m for m in skips + ["numpy", "dataclasses", "inspect"] if m in loaded] == []

    def test_unparsable_file_loads_no_verifier(self, capsys, tmp_path):
        cert = tmp_path / "c.json"
        run(capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "6", "--kind", "sharp",
            "-o", str(cert))
        text = cert.read_text()
        cert.write_text(text[: len(text) // 2])
        loaded = self.modules(str(cert), script=(
            "import sys\n"
            "from sigmacycles.cli import main\n"
            "assert main(['verify', *sys.argv[1:]]) == 2\n"
            "print(*sorted(sys.modules), file=sys.stderr)\n"
        ))
        assert "sigmacycles.certfile" in loaded
        assert "sigmacycles.verify" not in loaded

    def test_closed_stdout_is_a_usage_error(self):
        # 90,000 lines overflow the pipe: writes after the reader has gone
        # fail, and the message replaces a BrokenPipeError traceback
        proc = python(
            "-m", "sigmacycles.cli", "enumerate", "--sigma", "1", "--n", "300", "--q", "300",
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == "0,0\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
        assert err == "enumerate: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFullDevice:
    """A write that fails after its file opened (every write to /dev/full
    does) exits 2 with a message naming the path or stdout, never with a
    traceback and the "refuted" code 1."""

    @pytest.mark.parametrize(
        "argv, target",
        [
            (["construct", "--kind", "sharp", "--sigma", "2,1", "--n", "3", "--q", "6",
              "-o", "/dev/full"], "/dev/full"),
            (["oracle", "sharp-exists", "--sigma", "1,1", "--n", "2", "--q", "2",
              "--max-len", "6", "-o", "/dev/full"], "/dev/full"),
            (["export", "{cert}", "--format", "svg", "-o", "/dev/full"], "/dev/full"),
            (["export", "{cert}", "--format", "svg"], "stdout"),
            (["enumerate", "--sigma", "1,1", "--n", "10", "--q", "10"], "stdout"),
        ],
        ids=["construct", "oracle", "export", "export-stdout", "enumerate-stdout"],
    )
    def test_full_device(self, capsys, tmp_path, argv, target):
        cert = tmp_path / "c.json"
        run(capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "6", "--kind", "sharp",
            "-o", str(cert))
        argv = [a.replace("{cert}", str(cert)) for a in argv]
        with open("/dev/full", "w") as full:
            stdout = full if target == "stdout" else subprocess.DEVNULL
            proc = python("-m", "sigmacycles.cli", *argv, stdout=stdout, stderr=subprocess.PIPE)
            _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert err == f"{argv[0]}: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"


def exit_code(argv) -> int:
    """main's exit code with its output discarded; argparse's usage errors
    leave through SystemExit, whose code counts as the exit code.  Any other
    exception propagates and fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


# tmp_path only receives -o outputs and the mutated file, rewritten by each
# example, so sharing it across examples is safe
EXIT_SETTINGS = settings(
    deadline=None, max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

# half the draws come from the valid range, so that commands also get past
# argument validation into construction, search and enumeration
SIZE = st.one_of(st.integers(2, 5), st.integers(-2, 5)).map(str)
PART = st.one_of(st.integers(1, 3), st.integers(-1, 4))
SIGMA = st.lists(PART, max_size=3).map(lambda parts: ",".join(map(str, parts)))


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


@st.composite
def argv(draw, out):
    command = draw(st.sampled_from(["construct", "bounds", "oracle", "enumerate"]))
    args = [command]
    if command == "oracle":
        args.append(draw(st.sampled_from(["max-matching", "sharp-exists"])))
    args += ["--sigma", draw(SIGMA), "--n", draw(SIZE), "--q", draw(SIZE)]
    if command == "construct":
        args += ["--kind", draw(st.sampled_from(["berge", "sharp", "k-intersecting"]))]
        args += draw(optional("--k", st.integers(-1, 5))) + draw(optional("--split", st.integers(-1, 4)))
    elif command == "bounds":
        args += draw(optional("--nu", st.integers(-2, 30)))
    elif command == "oracle":
        args += draw(optional("--budget", st.integers(-1, 3000)))
        args += draw(optional("--max-len", st.integers(-1, 8)))
    else:
        args += draw(st.sampled_from([[], ["--count-only"]]))
    if command in ("construct", "oracle"):
        args += draw(st.sampled_from([[], ["-o", str(out)]]))
    return args


class TestExitCodes:
    """Any argument list or certificate file ends in a documented exit code,
    never a traceback: 0 success, 1 refuted (verify only), 2 usage or parse
    error, 3 construction unsupported or budget exceeded."""

    @EXIT_SETTINGS
    @given(st.data())
    def test_fuzzed_arguments(self, tmp_path, data):
        args = data.draw(argv(tmp_path / "out.json"))
        allowed = {0, 2} if args[0] in ("bounds", "enumerate") else {0, 2, 3}
        assert exit_code(args) in allowed

    @EXIT_SETTINGS
    @given(st.sampled_from(range(len(BASES))), st.integers(0, 3), st.data())
    def test_mutated_certificate_files(self, tmp_path, base, mutations, data):
        doc = copy.deepcopy(BASES[base])
        for _ in range(mutations):
            mutate(doc, data)
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        assert exit_code(["verify", str(path)]) in {0, 1, 2}
        for fmt in ("dot", "svg"):
            assert exit_code(["export", str(path), "--format", fmt]) in {0, 2}

"""CLI subcommands, exit codes and renderer determinism."""

import contextlib
import copy
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
from sigmacycles import export
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
        assert "NTooSmall" in err

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["2,2", "4", "2"], "too few edges for a cycle through all 8 vertices"),
            (["2,2", "5", "2"], "the walk recipe does not cover"),
            (["1", "3", "2"], "a Berge cycle needs edges of at least 2 vertices"),
            (["2,2", "2", "2"], "OnlyOneEdge"),
        ],
        ids=["too-few-edges", "walk-recipe", "r1", "single-edge"],
    )
    def test_berge_refusals(self, capsys, argv, fragment):
        sigma, n, q = argv
        code, out, err = run(
            capsys, "construct", "--sigma", sigma, "--n", n, "--q", q, "--kind", "berge"
        )
        assert code == 3
        assert out == ""
        assert fragment in err

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
        code, out, _ = run(
            capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "3", "--kind", "berge"
        )
        assert code == 0
        doc = json.loads(out[: out.rindex("}") + 1])
        assert doc["schema_version"] == "1"


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
        code, out, _ = run(
            capsys, "bounds", "--sigma", "3,3,3", "--n", "5", "--q", "5", "--nu", "1"
        )
        assert code == 0
        assert "REFUTES-SHARP-HC" in out

    def test_inconclusive(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--sigma", "2,1", "--n", "3", "--q", "6", "--nu", "6"
        )
        assert code == 0
        assert "INCONCLUSIVE" in out
        assert "[9, 12]" in out

    def test_negative_nu(self, capsys):
        code, out, err = run(
            capsys, "bounds", "--sigma", "2,1", "--n", "3", "--q", "6", "--nu", "-5"
        )
        assert code == 2
        assert "REFUTES-SHARP-HC" not in out
        assert "bounds: matching size nu must be >= 0, got -5" in err
        # the same hypergraph has a sharp Hamiltonian cycle
        code, out, _ = run(
            capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "6", "--kind", "sharp"
        )
        assert code == 0
        assert "12 edges" in out

    def test_uniform_r1_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--sigma", "1", "--n", "3", "--q", "3")
        assert code == 2
        assert out == ""
        assert "bounds: sharp cycle bounds need r >= 2, got r=1" in err

    def test_matching_bound(self, capsys):
        code, out, _ = run(capsys, "bounds", "--sigma", "2,2", "--n", "2", "--q", "3")
        assert code == 0
        assert "unmatched vertices >= 2" in out
        assert "max matching <= 1" in out

    def test_not_applicable(self, capsys):
        code, out, _ = run(capsys, "bounds", "--sigma", "2,1", "--n", "3", "--q", "6")
        assert code == 0
        assert "not applicable" in out


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

    def test_sharp_exists_found(self, capsys, tmp_path):
        path = tmp_path / "found.json"
        code, out, _ = run(
            capsys, "oracle", "sharp-exists", "--sigma", "1,1", "--n", "2", "--q", "2",
            "--max-len", "6", "-o", str(path),
        )
        assert code == 0
        assert "found" in out
        assert len(read_certificate(path).edges) == 4

    def test_startup_does_not_import_numpy(self):
        # No code path needs numpy, not even the max-matching oracle.
        script = (
            "import sys, sigmacycles, sigmacycles.cli\n"
            "print('numpy' in sys.modules)\n"
            "code = sigmacycles.cli.main("
            "['oracle', 'max-matching', '--sigma', '2,2', '--n', '3', '--q', '5'])\n"
            "print('numpy' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        src = str(Path(sigmacycles.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "3", "False"]

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

    def test_budget_exit(self, capsys):
        code, _, err = run(
            capsys, "oracle", "max-matching", "--sigma", "3,3,3", "--n", "5", "--q", "5",
            "--budget", "10",
        )
        assert code == 3
        assert "budget" in err


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
        assert export._MAX_ITEMS >= 10 * 200 * 10 * 30


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
        code, out, _ = run(capsys, "bounds", "--sigma", "3,3,3", "--n", "5", "--q", "5", "--nu", "1")
        assert code == 0
        assert "REFUTES-SHARP-HC" in out
        code, out, _ = run(capsys, "bounds", "--sigma", "3,3,3", "--n", "5", "--q", "5")
        assert code == 0
        assert "REFUTES-SHARP-HC" not in out and "INCONCLUSIVE" not in out
        code, out, _ = run(
            capsys, "construct", "--sigma", "2,1", "--n", "3", "--q", "3", "--kind", "berge"
        )
        assert code == 0
        assert json.loads(out[: out.rindex("}") + 1])["cycle"]["kind"] == "berge"
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert out.endswith("PASS\n")


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

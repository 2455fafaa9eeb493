"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import math
import os
import shlex
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from qrtan.cli import build_parser, main
from qrtan.itinerary import ContractionFailure
from qrtan.plane import BranchResidualError

SRC = Path(__file__).resolve().parent.parent / "src"
README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestSolveXi0:
    def test_prints_twelve_significant_digits(self, capsys):
        code, out, _ = run_cli(["solve-xi0", "--lambda", "2"], capsys)
        assert code == 0
        assert out.strip() == "1.91500804815"

    def test_domain_error_is_usage_error(self, capsys):
        code, out, err = run_cli(["solve-xi0", "--lambda", "0.5"], capsys)
        assert code == 2
        assert "error" in err


class TestOrbit:
    def test_ndjson_schema_and_convergence(self, capsys):
        code, out, _ = run_cli(["orbit", "--lambda", "2", "--start", "0.3,-0.4,1",
                                "--n", "100"], capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        cfg = lines[0]
        assert cfg["record"] == "config" and cfg["lambda"] == 2.0
        assert cfg["start"] == [0.3, -0.4, 1.0] and cfg["n"] == 100
        steps = lines[1:]
        assert [s["n"] for s in steps] == list(range(1, len(steps) + 1))
        for s in steps:
            assert set(s) == {"n", "x", "y", "z"} or set(s) == {"n", "inf"}
        last = steps[-1]
        assert abs(last["z"] - 1.91500804815) < 1e-5
        assert abs(last["x"]) < 1e-5 and abs(last["y"]) < 1e-5

    def test_pole_start_truncates_with_inf_record(self, capsys):
        code, out, _ = run_cli(["orbit", "--lambda", "1", "--start",
                                f"0,{math.pi/2},0", "--n", "5"], capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[1] == {"n": 1, "inf": True}
        assert len(lines) == 2

    def test_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "orbit.ndjson"
        code, _, _ = run_cli(["orbit", "--lambda", "2", "--start", "0.1,0.2,0.5",
                              "--n", "3", "--out", str(out_path)], capsys)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 4  # config + 3 steps


class TestItinerary:
    def test_symbols_stream(self, capsys):
        code, out, _ = run_cli(["itinerary", "--lambda", "2", "--start", "1.0,1.3",
                                "--n", "6"], capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        assert lines[0]["record"] == "config"
        stop = lines[-1]
        assert stop["record"] == "stop" and stop["reason"] in (
            "complete", "pole-hit", "left-diamonds")
        for rec in lines[1:-1]:
            assert set(rec) == {"n", "m", "pole_n", "x", "y"}


class TestPeriodic:
    def test_cycle_output(self, capsys):
        code, out, _ = run_cli(["periodic", "--lambda", "2", "--cycle",
                                "1,1;-1,-1;0,1"], capsys)
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        summary = lines[-1]
        assert summary["record"] == "summary"
        assert summary["period"] == 3
        assert summary["residual"] < 1e-9

    def test_invalid_cycle_is_usage_error(self, capsys):
        code, _, err = run_cli(["periodic", "--lambda", "2", "--cycle", "0,0"],
                               capsys)
        assert code == 2


class TestRender:
    def test_ppm_output(self, tmp_path, capsys):
        out_path = tmp_path / "basin.ppm"
        code, out, _ = run_cli(["render-basin", "--lambda", "0.9", "--res", "32x24",
                                "--max-iter", "60", "--out", str(out_path)], capsys)
        assert code == 0
        data = out_path.read_bytes()
        assert data.startswith(b"P6\n32 24\n255\n")
        assert len(data) == len(b"P6\n32 24\n255\n") + 32 * 24 * 3

    def test_escape_render(self, tmp_path, capsys):
        out_path = tmp_path / "escape.ppm"
        code, _, _ = run_cli(["render-escape", "--lambda", "2", "--res", "24x24",
                              "--max-iter", "40", "--out", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_bytes().startswith(b"P6\n24 24\n255\n")

    def test_window_flag(self, tmp_path, capsys):
        out_path = tmp_path / "w.ppm"
        # leading-dash values need the --flag=value spelling under argparse
        code, _, _ = run_cli(["render-basin", "--lambda", "0.9",
                              "--window=-0.5,-0.5,0.5,0.5", "--res", "16x16",
                              "--max-iter", "40", "--out", str(out_path)], capsys)
        assert code == 0

    def test_png_flag(self, tmp_path, capsys):
        out_path = tmp_path / "basin.png"
        code, _, _ = run_cli(["render-basin", "--lambda", "0.9", "--res", "16x16",
                              "--max-iter", "30", "--png", "--out", str(out_path)],
                             capsys)
        assert code == 0
        assert out_path.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"

    def test_png_holds_ppm_pixels(self, tmp_path, capsys):
        args = ["render-basin", "--lambda", "1.1107", "--res", "20x12", "--max-iter", "60"]
        ppm, png = tmp_path / "b.ppm", tmp_path / "b.png"
        assert run_cli(args + ["--out", str(ppm)], capsys)[0] == 0
        assert run_cli(args + ["--png", "--out", str(png)], capsys)[0] == 0
        data = png.read_bytes()
        assert data[:8] == b"\x89PNG\r\n\x1a\n"
        pos, chunks = 8, []
        while pos < len(data):
            (length,) = struct.unpack(">I", data[pos:pos + 4])
            tag, body = data[pos + 4:pos + 8], data[pos + 8:pos + 8 + length]
            (crc,) = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])
            assert crc == zlib.crc32(tag + body)
            chunks.append((tag, body))
            pos += 12 + length
        assert [t for t, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
        assert chunks[0][1] == struct.pack(">IIBBBBB", 20, 12, 8, 2, 0, 0, 0)
        rows = np.frombuffer(zlib.decompress(chunks[1][1]), dtype=np.uint8).reshape(12, -1)
        assert (rows[:, 0] == 0).all()  # filter type 0 on every row
        header = b"P6\n20 12\n255\n"
        assert rows[:, 1:].tobytes() == ppm.read_bytes()[len(header):]

    def test_r_esc_sets_depth_threshold(self, tmp_path, capsys):
        def render(*extra):
            path = tmp_path / "esc.ppm"
            code, _, _ = run_cli(["render-escape", "--lambda", "2", "--res", "24x24",
                                  "--max-iter", "60", *extra, "--out", str(path)], capsys)
            assert code == 0
            return path.read_bytes()

        images = [render("--r-esc", r) for r in ("10", "50", "1000")]
        assert len(set(images)) == 3
        assert render() == render("--r-esc", "8")  # default 4 * lambda

    def test_thread_flag_same_bytes(self, tmp_path, capsys):
        paths = []
        for threads in ("1", "3"):
            p = tmp_path / f"t{threads}.ppm"
            code, _, _ = run_cli(["render-basin", "--lambda", "1.1107",
                                  "--res", "40x40", "--max-iter", "80",
                                  "--threads", threads, "--out", str(p)], capsys)
            assert code == 0
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestVerify:
    def test_full_suite_exit_zero(self, capsys):
        code, out, _ = run_cli(["verify", "--lambda", "2", "--suite", "all"],
                               capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert all(l.startswith("PASS") for l in lines[:-1])
        assert "checks passed" in lines[-1]

    def test_fast_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--lambda", "2", "--suite", "all",
                                "--fast"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert all(l.startswith("PASS") for l in lines[:-1])
        assert "checks passed" in lines[-1]

    def test_named_suite(self, capsys):
        code, out, _ = run_cli(["verify", "--lambda", "1", "--suite", "core",
                                "--fast"], capsys)
        assert code == 0
        assert "tangent-embedding" in out


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["solve-xi0"]) == 2

    def test_bad_start_format(self, capsys):
        assert main(["orbit", "--lambda", "1", "--start", "1,2", "--n", "3"]) == 2


class TestInputValidation:
    """Bad numeric input exits 2 with a one-line message and no output."""

    COMMANDS = {
        "orbit": ["--start", "0.1,0.2,0.3", "--n", "3"],
        "itinerary": ["--start", "1.0,1.3", "--n", "3"],
        "periodic": ["--cycle", "1,1"],
        "verify": ["--suite", "core", "--fast"],
        "solve-xi0": [],
    }

    @staticmethod
    def assert_usage_error(code, out, err):
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("lam", ["0", "-1", "nan", "inf"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_lambda(self, command, lam, tmp_path, capsys):
        argv = [command, f"--lambda={lam}", *self.COMMANDS[command]]
        out_path = tmp_path / "out.ndjson"
        if command in ("orbit", "itinerary", "periodic"):
            argv += ["--out", str(out_path)]
        self.assert_usage_error(*run_cli(argv, capsys))
        assert not out_path.exists()

    @pytest.mark.parametrize("command,start", [
        ("orbit", "nan,0.2,0.3"), ("orbit", "0.1,0.2,inf"),
        ("itinerary", "nan,1.3"), ("itinerary", "1.0,-inf"),
    ])
    def test_non_finite_start(self, command, start, tmp_path, capsys):
        out_path = tmp_path / "out.ndjson"
        argv = [command, "--lambda", "2", f"--start={start}", "--out", str(out_path)]
        self.assert_usage_error(*run_cli(argv, capsys))
        assert not out_path.exists()

    @pytest.mark.parametrize("window", ["-1,-1,inf,1", "-inf,-1,1,1", "-1,nan,1,1",
                                        "-1,-1,1,nan"])
    @pytest.mark.parametrize("command", ["render-basin", "render-escape"])
    def test_non_finite_window(self, command, window, tmp_path, capsys):
        out_path = tmp_path / "img.ppm"
        argv = [command, "--lambda", "2", f"--window={window}", "--res", "4x4",
                "--out", str(out_path)]
        self.assert_usage_error(*run_cli(argv, capsys))
        assert not out_path.exists()

    @pytest.mark.parametrize("r_esc", ["0", "-1", "nan", "inf"])
    def test_bad_r_esc(self, r_esc, tmp_path, capsys):
        out_path = tmp_path / "img.ppm"
        argv = ["render-escape", "--lambda", "2", f"--r-esc={r_esc}", "--res", "4x4",
                "--out", str(out_path)]
        self.assert_usage_error(*run_cli(argv, capsys))
        assert not out_path.exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    @pytest.mark.parametrize("command", ["orbit", "itinerary"])
    def test_bad_step_count(self, command, n, tmp_path, capsys):
        out_path = tmp_path / "out.ndjson"
        argv = [command, "--lambda", "2", *self.COMMANDS[command], f"--n={n}"]
        for extra in ([], ["--out", str(out_path)]):
            self.assert_usage_error(*run_cli(argv + extra, capsys))
        assert not out_path.exists()

    @pytest.mark.parametrize("flag,value", [("--max-iter", "0"), ("--max-iter", "-2")])
    @pytest.mark.parametrize("command", ["render-basin", "render-escape"])
    def test_bad_iteration_count(self, command, flag, value, tmp_path, capsys):
        out_path = tmp_path / "img.ppm"
        argv = [command, "--lambda", "2", f"{flag}={value}", "--res", "4x4",
                "--out", str(out_path)]
        code, out, err = run_cli(argv, capsys)
        self.assert_usage_error(code, out, err)
        assert flag in err
        assert not out_path.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    @pytest.mark.parametrize("command", ["render-basin", "render-escape"])
    def test_bad_thread_count(self, command, threads, tmp_path, capsys):
        out_path = tmp_path / "img.ppm"
        argv = [command, "--lambda", "2", f"--threads={threads}", "--res", "4x4",
                "--out", str(out_path)]
        code, out, err = run_cli(argv, capsys)
        self.assert_usage_error(code, out, err)
        assert "--threads" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["render-basin", "render-escape"])
    def test_capture_tolerance_is_not_an_option(self, command, tmp_path, capsys):
        # the fate rules are constants of analysis: --tol is an unknown flag
        out_path = tmp_path / "img.ppm"
        argv = [command, "--lambda", "2", "--tol=1e-3", "--res", "4x4",
                "--out", str(out_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --tol=1e-3" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("failure", [None, ContractionFailure, BranchResidualError])
    def test_periodic_failure_leaves_no_output(self, failure, monkeypatch, tmp_path,
                                               capsys):
        cycle = "0,0"  # the pole (0, 0) sits inside the calibrated radius at lambda 1
        if failure is not None:
            cycle = "1,1"

            def fail(*args, **kwargs):
                raise failure("composed branch map is not contracting on this cycle")

            monkeypatch.setattr("qrtan.cli.itin_mod.periodic_point_from_cycle", fail)
        out_path = tmp_path / "cycle.ndjson"
        for argv in (["periodic", "--lambda", "1", "--cycle", cycle],
                     ["periodic", "--lambda", "1", "--cycle", cycle, "--out", str(out_path)]):
            self.assert_usage_error(*run_cli(argv, capsys))
        assert not out_path.exists()

    def test_branch_residual_error(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise BranchResidualError("no preimage of (1.0, 2.0) in diamond (1, 1)")

        monkeypatch.setattr("qrtan.cli.itin_mod.periodic_point_from_cycle", fail)
        code, out, err = run_cli(["periodic", "--lambda", "2", "--cycle", "1,1"], capsys)
        assert code == 2
        assert err == "error: no preimage of (1.0, 2.0) in diamond (1, 1)\n"


def run_module(*argv, timeout=None):
    # the child does not see pytest's pythonpath setting, so hand it src/
    # for a checkout where qrtan is not installed
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "qrtan.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = run_module("solve-xi0", "--lambda", "2")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1.91500804815"

    @pytest.mark.parametrize("args, absorbed", [
        (["--lambda", "1.41"], False),
        (["--lambda", "1.40", "--suite", "analysis", "--fast"], True)])
    def test_verify_near_sqrt2_finishes(self, args, absorbed):
        # every ray's contraction factor is at least lam/sqrt(2), so near
        # sqrt(2) petal-absorbed finds few or no samples; it must still return
        proc = run_module("verify", *args, timeout=60)
        assert proc.returncode == 0
        assert not [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
        assert ("petal-absorbed" in proc.stdout) == absorbed


def test_readme_command_lines_parse():
    # every qrtan line of the README's "Command line" block names only
    # subcommands and flags the parser has
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines()
                if line.startswith("qrtan ")]
    assert len(commands) >= 8
    rejected = []
    for argv in commands:
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                build_parser().parse_args(argv)
        except SystemExit:
            rejected.append((argv, err.getvalue()))
    assert rejected == []

"""Smoke test of the scripts in demos/: each runs to completion, with
every RuntimeWarning an error."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_demo(args, cwd):
    # the child does not see pytest's pythonpath setting, so hand it src/
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args],
                          cwd=cwd, capture_output=True, text=True, env=env)


def test_basin_figures(tmp_path):
    proc = run_demo([str(ROOT / "demos" / "basin_figures.py"), "--res", "16",
                     "--threads", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "basin_0.9.ppm", "basin_1.1107.ppm", "escape_2.0.ppm"]


def test_escaping_orbit_tour(tmp_path):
    # outside verify, the only caller of periodic_near_escaping and so of
    # the Newton polish
    proc = run_demo([str(ROOT / "demos" / "escaping_orbit_tour.py")], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "periodic point within 1e-3 of the escaping point" in proc.stdout

"""Tests of the benchmark harness itself, at the smoke size.

    PYTHONPATH=src python -m pytest -q bench/test_qbench.py
"""

import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
from qbench import harness, layers, tracer, workloads

SPEC = json.loads(run.SPEC.read_text())
run.import_qrtan()

import qrtan  # noqa: E402  (after run.import_qrtan pins the source tree)
import qrtan.plane  # noqa: E402
import qrtan.render  # noqa: E402
import qrtan.verify  # noqa: E402


def smoke_run(workload, trace, tmp_path, reference=None):
    return harness.run_workload(workload, 3, 0.0, trace, "smoke", run.SRC, tmp_path,
                                reference=reference)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    result = smoke_run(workload, trace, tmp_path)
    record = run.result_record(SPEC, trace, result)
    declared = run.declared_metrics(SPEC, trace)
    assert list(record["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = record["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    names = {m["name"] for m in declared}
    assert {k for k in result.values if k.startswith("verify.check_s.")} <= names


def test_every_verify_check_has_a_declared_metric():
    declared = {m["name"] for m in SPEC["per_layer"] if m["name"].startswith("verify.check_s.")}
    seen = {f"verify.check_s.{r.name}"
            for lam in workloads.LAMBDAS["verify"]
            for r in qrtan.verify.run_suite(lam, "all", fast=True)}
    assert seen == declared


def test_end_to_end_metrics_are_never_zero(tmp_path):
    record = run.result_record(SPEC, False, smoke_run("symbolic", False, tmp_path))
    assert all(v["value"] > 0 for v in record["metrics"].values())


def test_corrupted_digest_counts_as_failed_job(tmp_path):
    reference = workloads.load_reference()
    key = workloads.render_key("render-basin", 0.9, workloads.SIZES["smoke"].basin_res,
                               workloads.SIZES["smoke"].basin_iter)
    reference[key] = "0" * 64
    plain = smoke_run("basin", False, tmp_path, reference)
    assert plain.values["pass_frac"] < 1.0
    assert all("digest" in f for f in plain.failures)
    traced = smoke_run("basin", True, tmp_path, reference)
    assert traced.values["fail_frac"] == pytest.approx(1 / 3)
    assert not run.result_record(SPEC, True, traced)["correct"]


@pytest.mark.parametrize("config", workloads.REFERENCE_IMAGES,
                         ids=lambda c: workloads.render_key(*c).replace(" ", "-"))
def test_reference_image_matches_pinned_digest(config, tmp_path):
    job = workloads.RenderJob(*config, tmp_path / "image.ppm",
                              workloads.load_reference()[workloads.render_key(*config)])
    ok, detail = job.run()
    assert ok, detail


def test_failing_verify_check_counts_as_failed_job(tmp_path, monkeypatch):
    def check_always_fails(lam, rng):
        return qrtan.verify.CheckResult("tangent-embedding", False, "forced failure")

    monkeypatch.setitem(qrtan.verify.SUITES, "core", [check_always_fails])
    plain = smoke_run("verify", False, tmp_path)
    assert plain.values["pass_frac"] == 0.0
    traced = smoke_run("verify", True, tmp_path)
    assert traced.values["fail_frac"] == 1.0
    assert traced.values["verify.checks_passed"] == 0


def test_tracer_swaps_every_lookup_and_restores():
    original = qrtan.core.tangent3
    tr = tracer.Tracer()
    with tracer.installed(layers.wrappers(tr)):
        assert qrtan.plane.tangent3 is not original
        assert qrtan.verify.tangent3 is qrtan.plane.tangent3
        assert qrtan.verify.SUITES["all"][0] is qrtan.verify.check_tangent_embedding
        qrtan.plane.plane_map(np.array([0.3, 0.2]), 2.0)
    assert qrtan.plane.tangent3 is original and qrtan.verify.tangent3 is original
    assert tr.calls("core.tangent3", parent="plane.plane_map") == 1
    assert 0.0 <= tr.self_s("plane.plane_map") <= tr.total_s("plane.plane_map")


def test_fate_codes_match_the_renderer():
    r = qrtan.render
    assert layers.FATE_CODES == {r._FATE_UNDECIDED: "undecided", r._FATE_ORIGIN: "origin",
                                 r._FATE_ESCAPING: "escaping", r._FATE_POLE: "pole"}


def test_symbolic_inputs_follow_the_seed():
    size = workloads.SIZES["smoke"]
    a = [j.name for j in workloads.symbolic_jobs(7, size)]
    assert a == [j.name for j in workloads.symbolic_jobs(7, size)]
    assert a != [j.name for j in workloads.symbolic_jobs(8, size)]


def test_smoke_command_runs_in_seconds(tmp_path):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(run.ROOT / "bench" / "run.py"),
                           "--workload", "escape", "--seed", "1", "--seconds", "1",
                           "--trace", "0", "--size", "smoke"],
                          capture_output=True, text=True, timeout=120, cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"]
    assert time.perf_counter() - t0 < 60


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "basin",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

"""Runs one workload and computes its metrics.

Untraced run (``trace=False``), the end-to-end metrics:

* ``setup_s``: median over ``setup_reps`` fresh interpreters of the time
  to ``import qrtan`` and make the first ``calibrate_expansion`` call for
  each lambda of the workload.  One untimed interpreter runs first, so
  every timed one finds the bytecode cache written; the timed ones start
  between passes, so they sample the whole run rather than its start;
* ``wall_s``: time of one warm pass over the workload's jobs, each job
  taken at its fastest over the run's passes.  Passes repeat while one
  more brings the measured time closer to ``seconds``.  On a shared
  machine whose speed drifts by tens of percent over minutes, the
  per-job minimum tracks the program's own cost far more steadily than
  the median pass does;
* ``peak_rss_mb``: peak resident memory of this process;
* ``pass_frac``: passed jobs over attempted jobs, 1 - fail_frac.

Traced run (``trace=True``), the per-layer metrics: one untraced pass,
then the same pass again with every layer boundary wrapped (see
``layers``), whose ratio is the tracing overhead.  The first
``calibrate_expansion`` calls are traced separately, before anything
else runs.
"""

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import layers, tracer, workloads

_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qrtan
for lam in sys.argv[2:]:
    qrtan.calibrate_expansion(float(lam))
print(time.perf_counter() - t0)
"""


def cold_setup_s(src, lams):
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(src),
                           *[repr(lam) for lam in lams]],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def run_pass(jobs):
    """Run every job once; returns (seconds per job, failures)."""
    times, failures = [], []
    for job in jobs:
        t0 = time.perf_counter()
        try:
            ok, detail = job.run()
        except Exception as e:  # a job that raises is a failed job, not a crash
            ok, detail = False, f"{type(e).__name__}: {e}"
        times.append(time.perf_counter() - t0)
        if not ok:
            failures.append(f"{job.name}: {detail}")
    return times, failures


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit(root):
    """The checked-out commit, read from .git without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root, workload, seed, size_name, trace, seconds):
    import numpy

    return {
        "record": "environment",
        "workload": workload,
        "seed": seed,
        "size": size_name,
        "trace": int(trace),
        "seconds": seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(root),
    }


@dataclass
class Run:
    """What one run measured: end-to-end or per-layer values plus job counts."""

    values: dict
    attempted: int
    failures: list
    spans: list = field(default_factory=list)
    setup_samples: list = field(default_factory=list)


def _warm_up(workload, seed, out_dir, lams):
    import qrtan

    for lam in lams:
        qrtan.calibrate_expansion(lam)
    smoke = workloads.SIZES["smoke"]
    run_pass(workloads.build_jobs(workload, seed, smoke, out_dir, workloads.load_reference()))


def run_workload(workload, seed, seconds, trace, size_name, src, out_dir, reference=None):
    import qrtan

    size = workloads.SIZES[size_name]
    lams = workloads.LAMBDAS[workload]
    reference = workloads.load_reference() if reference is None else reference
    Path(out_dir).mkdir(parents=True, exist_ok=True)

    if trace:
        setup_tr = tracer.Tracer()
        with tracer.installed(layers.wrappers(setup_tr)):
            for lam in lams:
                qrtan.calibrate_expansion(lam)
        _warm_up(workload, seed, out_dir, lams)
        jobs = workloads.build_jobs(workload, seed, size, out_dir, reference)
        plain, f1 = run_pass(jobs)
        tr = tracer.Tracer()
        with tracer.installed(layers.wrappers(tr)):
            traced, f2 = run_pass(jobs)
        attempted, failures = 2 * len(jobs), f1 + f2
        values = layers.per_layer_metrics(tr, setup_tr, sum(plain), sum(traced),
                                          layers.grid_temp_bytes_per_point(),
                                          len(failures) / attempted)
        return Run(values, attempted, failures, tr.table())

    cold_setup_s(src, lams)  # untimed: warms the bytecode and file caches
    _warm_up(workload, seed, out_dir, lams)
    jobs = workloads.build_jobs(workload, seed, size, out_dir, reference)
    setup_times, best, passes, failures = [], None, 0, []
    t0 = time.perf_counter()
    while True:
        if len(setup_times) < size.setup_reps:
            setup_times.append(cold_setup_s(src, lams))
        times, fails = run_pass(jobs)
        best = times if best is None else [min(a, b) for a, b in zip(best, times)]
        passes += 1
        failures += fails
        elapsed = time.perf_counter() - t0
        # one more pass only if it brings the measured time closer to `seconds`
        if elapsed + elapsed / passes / 2 > seconds:
            break
    while len(setup_times) < size.setup_reps:
        setup_times.append(cold_setup_s(src, lams))
    attempted = passes * len(jobs)
    values = {
        "wall_s": sum(best),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": _peak_rss_mb(),
        "pass_frac": 1.0 - len(failures) / attempted,
    }
    return Run(values, attempted, failures, setup_samples=setup_times)

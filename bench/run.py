"""qrtan benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload basin --seed 0 --seconds 30 --trace 0

Workloads: basin, escape, verify, symbolic (see qbench/workloads.py).
``--trace 0`` measures the end-to-end metrics declared in BENCHMARK.json,
``--trace 1`` the per-layer metrics from a traced pass.  ``--size
smoke`` shrinks the jobs so a run takes seconds.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An environment
record precedes it (and, untraced, the cold set-up samples whose median
is ``setup_s``), and a traced run writes its span table to
``.bench_out/trace-<workload>-seed<seed>.json``.  Exit code 0 after a
measurement, even one with failed jobs (they show in ``correct`` and
``failed``); 2 when the harness cannot run at all.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT_DIR = ROOT / ".bench_out"

# metric families whose members are only produced by what actually ran;
# a declared member that did not run reports 0
_SPARSE = ("verify.check_s.", "verify.run_suite_s.", "render.render_basin_s.",
           "render.render_escape_depth_s.")


def parse_args(argv):
    p = argparse.ArgumentParser(description="qrtan benchmark")
    p.add_argument("--workload", required=True,
                   choices=("basin", "escape", "verify", "symbolic"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    return p.parse_args(argv)


def import_qrtan():
    """Import qrtan from this checkout's src/, never from anywhere else."""
    if not (SRC / "qrtan" / "__init__.py").is_file():
        raise RuntimeError(f"no qrtan sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qrtan

    if Path(qrtan.__file__).resolve().parent != SRC / "qrtan":
        raise RuntimeError(f"imported qrtan from {qrtan.__file__}, not from {SRC}")
    return qrtan


def declared_metrics(spec, trace):
    return spec["per_layer" if trace else "end_to_end"]


def result_record(spec, trace, run):
    """The final JSON object: every declared metric, by name, with its unit."""
    metrics = {}
    for m in declared_metrics(spec, trace):
        name = m["name"]
        if name in run.values:
            value = run.values[name]
        elif name.startswith(_SPARSE):
            value = 0
        else:
            raise KeyError(f"the harness computed no value for declared metric {name!r}")
        metrics[name] = {"value": value, "unit": m["unit"]}
    failed = len(run.failures)
    return {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text())
        import_qrtan()
    except (OSError, ValueError, RuntimeError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    from qbench import harness

    env = harness.environment(ROOT, args.workload, args.seed, args.size, args.trace,
                              args.seconds)
    run = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                               args.size, SRC, OUT_DIR)
    record = result_record(spec, args.trace, run)
    print(json.dumps(env))
    if run.setup_samples:
        print(json.dumps({"record": "setup-samples", "seconds": run.setup_samples}))
    for f in run.failures:
        print(json.dumps({"record": "failed-job", "job": f}))
    if args.trace:
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"environment": env, "values": run.values,
                                          "spans": run.spans}, indent=1))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

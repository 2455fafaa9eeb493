"""Render every image the benchmark and its tests check; rewrite reference.json.

    python3 bench/pin_digests.py

Only for a change that alters render output on purpose: such a change
re-pins the digests and says so.  Renders go through qrtan.cli.main,
exactly as the benchmark jobs run them.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from run import import_qrtan


def main():
    import_qrtan()
    from qbench import workloads

    digests = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        out = Path(tmp) / "image.ppm"
        configs = list(workloads.REFERENCE_IMAGES)
        for size in workloads.SIZES.values():
            configs += [("render-basin", lam, size.basin_res, size.basin_iter)
                        for lam in workloads.LAMBDAS["basin"]]
            configs += [("render-escape", lam, size.escape_res, size.escape_iter)
                        for lam in workloads.LAMBDAS["escape"]]
        for command, lam, res, max_iter in configs:
            job = workloads.RenderJob(command, lam, res, max_iter, out, None)
            code, _ = workloads.run_cli(job.argv)
            if code != 0:
                raise SystemExit(f"{job.name}: exit code {code}")
            digests[job.name] = hashlib.sha256(out.read_bytes()).hexdigest()
            print(job.name, digests[job.name])
    workloads.REFERENCE.write_text(json.dumps({"sha256": digests}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

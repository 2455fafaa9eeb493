"""The four workloads as lists of jobs, built from a seed.

A job is one unit the user would run: a CLI render or verify call, or
one symbolic construction through the public library functions.  Each
job checks its own output and returns ``(ok, detail)``; an exception
also counts as a failed job.

* ``basin``: ``render-basin`` at 64x64, 500 iterations, default
  window, for lambda 0.9, 1.1107 and 2; the seed orders the jobs.
* ``escape``: ``render-escape`` at lambda 2, 256x256, 200 iterations.
* ``verify``: ``verify --suite all --fast`` at lambda 0.9, 1 and 2 with
  ``--seed`` set to the seed.
* ``symbolic``: at lambda 1 and 2, points with seeded pole-diamond
  itineraries (``point_from_itinerary``, 26 compositions, checked by
  ``shadow_check`` over 20 symbols) and periodic points of seeded
  period-1..4 pole cycles (``periodic_point_from_cycle``).

Render outputs are compared with the SHA-256 digests pinned in
``reference.json``; a mismatch fails the job.
"""

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("basin", "escape", "verify", "symbolic")

LAMBDAS = {
    "basin": (0.9, 1.1107, 2.0),
    "escape": (2.0,),
    "verify": (0.9, 1.0, 2.0),
    "symbolic": (1.0, 2.0),
}

REFERENCE = Path(__file__).resolve().parent.parent / "reference.json"


@dataclass(frozen=True)
class Size:
    basin_res: int
    basin_iter: int
    escape_res: int
    escape_iter: int
    verify_args: tuple
    itineraries: int      # per lambda
    cycles: int           # per lambda
    setup_reps: int       # timed cold set-ups per run


# "full" is what the benchmark measures: every job short enough that a
# run holds many passes, so the per-job minimum is steady on a shared
# machine.  "smoke" is for tests.
SIZES = {
    "full": Size(64, 500, 256, 200, ("--suite", "all", "--fast"), 150, 150, 9),
    "smoke": Size(24, 40, 32, 30, ("--suite", "core", "--fast"), 3, 3, 1),
}

# The reference images users render (basin at 256x256, escape depth at
# 512x512), pinned in reference.json beside the benchmark's own renders
# and checked by the harness tests.
REFERENCE_IMAGES = (*(("render-basin", lam, 256, 500) for lam in LAMBDAS["basin"]),
                    ("render-escape", LAMBDAS["escape"][0], 512, 200))

N_COMPOSE = 26
SHADOW_DEPTH = 20
PREFIX_LEN = 6
POOL_SPAN = 2.0 * math.pi   # prefix and cycle poles: norm in (r, r + POOL_SPAN]
TAIL_DIRECTIONS = ((0, 1), (0, -1), (1, 0), (-1, 0))


def load_reference():
    return json.loads(REFERENCE.read_text())["sha256"]


def render_key(command, lam, res, max_iter):
    return f"{command} lam={lam:g} res={res}x{res} max_iter={max_iter}"


def run_cli(argv):
    """qrtan.cli.main on ``argv`` with its output captured; (code, stdout)."""
    import qrtan.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = qrtan.cli.main(argv)
    return code, out.getvalue()


class RenderJob:
    def __init__(self, command, lam, res, max_iter, out_path, expect):
        self.name = render_key(command, lam, res, max_iter)
        self.argv = [command, "--lambda", repr(lam), "--res", f"{res}x{res}",
                     "--max-iter", str(max_iter), "--out", str(out_path)]
        self.out_path = Path(out_path)
        self.expect = expect

    def run(self):
        code, _ = run_cli(self.argv)
        if code != 0:
            return False, f"exit code {code}"
        digest = hashlib.sha256(self.out_path.read_bytes()).hexdigest()
        self.out_path.unlink()
        if digest != self.expect:
            return False, f"digest {digest} != pinned {self.expect}"
        return True, ""


class VerifyJob:
    def __init__(self, lam, seed, extra):
        self.name = f"verify lam={lam:g} seed={seed}"
        self.argv = ["verify", "--lambda", repr(lam), "--seed", str(seed), *extra]

    def run(self):
        code, text = run_cli(self.argv)
        fails = [line for line in text.splitlines() if line.startswith("FAIL ")]
        if code != 0 or fails:
            return False, f"exit code {code}: " + "; ".join(fails)
        return True, ""


class ItineraryJob:
    def __init__(self, lam, prefix, tail_start, direction):
        self.name = f"itinerary lam={lam:g} prefix={prefix} tail={tail_start}+k*{direction}"
        self.lam = lam
        self.prefix = prefix
        self.tail_start = tail_start
        self.direction = direction

    def _tail(self, j):
        k = j - len(self.prefix)
        return (self.tail_start[0] + k * self.direction[0],
                self.tail_start[1] + k * self.direction[1])

    def run(self):
        import qrtan.itinerary as it

        itin = it.Itinerary(prefix=list(self.prefix), tail=self._tail)
        _, waypoints = it.point_from_itinerary(itin, self.lam, n_compose=N_COMPOSE,
                                               return_waypoints=True)
        ok, worst = it.shadow_check(waypoints, itin, self.lam, SHADOW_DEPTH)
        return ok, f"worst one-step gap {worst:.2e}"


class CycleJob:
    def __init__(self, lam, cycle):
        self.name = f"periodic lam={lam:g} cycle={cycle}"
        self.lam = lam
        self.cycle = cycle

    def run(self):
        import qrtan.itinerary as it

        res = it.periodic_point_from_cycle(it.PeriodicCycleSpec(cycle=list(self.cycle)),
                                           self.lam)
        ok = res.period == len(self.cycle) and math.isfinite(res.residual)
        return ok, f"residual {res.residual:.2e}"


def _pole_norm(idx):
    import qrtan.plane

    return float(np.linalg.norm(qrtan.plane.pole_location(idx)))


def _pole_pool(radius):
    """Poles with norm in (radius, radius + POOL_SPAN], in a fixed order."""
    reach = int(math.ceil((radius + POOL_SPAN) / (math.pi / 2))) + 2
    return [(m, n) for m in range(-reach, reach + 1) for n in range(-reach, reach + 1)
            if radius < _pole_norm((m, n)) <= radius + POOL_SPAN]


def _outward_tail(rng, radius):
    """Start and direction of a straight tail of poles whose norms exceed
    ``radius`` and never decrease."""
    d = TAIL_DIRECTIONS[int(rng.integers(len(TAIL_DIRECTIONS)))]
    k = 0
    # norms along a line are convex in k: once past the radius and growing,
    # every later pole is too
    while not (_pole_norm((k * d[0], k * d[1])) > radius
               and _pole_norm(((k + 1) * d[0], (k + 1) * d[1]))
               >= _pole_norm((k * d[0], k * d[1]))):
        k += 1
    k += int(rng.integers(0, 4))
    return (k * d[0], k * d[1]), d


def symbolic_jobs(seed, size):
    import qrtan.plane

    rng = np.random.default_rng(seed)
    jobs = []
    for lam in LAMBDAS["symbolic"]:
        radius = qrtan.plane.required_tail_radius(lam)
        pool = _pole_pool(radius)
        for _ in range(size.itineraries):
            prefix = tuple(pool[i] for i in rng.integers(0, len(pool), PREFIX_LEN))
            start, d = _outward_tail(rng, radius)
            jobs.append(ItineraryJob(lam, prefix, start, d))
        for _ in range(size.cycles):
            period = int(rng.integers(1, 5))
            cycle = tuple(pool[i] for i in rng.integers(0, len(pool), period))
            jobs.append(CycleJob(lam, cycle))
    return jobs


def build_jobs(workload, seed, size, out_dir, reference):
    """The job list of one pass of ``workload``."""
    rng = np.random.default_rng(seed)
    out_dir = Path(out_dir)
    if workload == "basin":
        lams = [LAMBDAS["basin"][i] for i in rng.permutation(len(LAMBDAS["basin"]))]
        return [RenderJob("render-basin", lam, size.basin_res, size.basin_iter,
                          out_dir / f"basin-{i}.ppm",
                          reference.get(render_key("render-basin", lam, size.basin_res,
                                                   size.basin_iter)))
                for i, lam in enumerate(lams)]
    if workload == "escape":
        lam = LAMBDAS["escape"][0]
        return [RenderJob("render-escape", lam, size.escape_res, size.escape_iter,
                          out_dir / "escape-0.ppm",
                          reference.get(render_key("render-escape", lam, size.escape_res,
                                                   size.escape_iter)))]
    if workload == "verify":
        return [VerifyJob(lam, seed, size.verify_args) for lam in LAMBDAS["verify"]]
    if workload == "symbolic":
        return symbolic_jobs(seed, size)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")

"""Fixed points, basins, petal region and orbit-fate classification.

For lam > 1 the scaled tangent map has attracting fixed points at
(0, 0, +-xi) where xi solves lam*tanh(xi) = xi, and the open half-spaces
are their basins; for lam <= 1 everything off the plane falls into the
origin.  On the plane, for lam < sqrt(2), the petal region {|T(q)| < |q|}
of the central square is absorbed by the origin.  This module solves the
scalar fixed-point equations, classifies orbits with an honest Undecided
outcome, and carries the sampled checks behind those statements,
including the full-space blow-up probe.
"""

import functools
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    HALF_PI,
    INFINITY,
    QUARTER_PI,
    _checked_vec3,
    _tangent3_xyz,
    as_vec3,
    chordal,
    is_infinity,
    tangent3,
    tangent3_grid,
)
from .plane import (
    SQRT2,
    containing_diamond,
    pole_location,
    preimages_tangent3,
)


def _bisect(below, lo, hi):
    """Midpoint of the bracket after up to 200 bisection steps, keeping
    ``below(lo)`` true and ``below(hi)`` false.

    Once a step leaves (lo, hi) unchanged (the midpoint rounds to an
    end), every later step would too, so the loop stops there with the
    bits the full run gives; from a bracket of doubles that takes at
    most a few dozen steps.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        new = (mid, hi) if below(mid) else (lo, mid)
        if new == (lo, hi):
            break
        lo, hi = new
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=64)
def axis_fixed_point(lam: float) -> float:
    """The positive solution of lam * tanh(xi) = xi (needs lam > 1).

    Bisection on [tiny, lam] followed by Newton polish; the residual of
    the returned value is below 1e-12.  For lam <= 1 the only solution
    is 0 and a ValueError is raised.  Cached per lam: ``classify_orbit``
    asks for it on every call.
    """
    if not lam > 1.0:
        raise ValueError("the equation has a positive root only for lam > 1")
    def g(t):
        return lam * math.tanh(t) - t
    # g > 0 near 0+ since the slope is lam > 1; g(lam) < 0
    x = _bisect(lambda t: g(t) > 0.0, 1e-300, lam)
    for _ in range(4):
        dg = lam / math.cosh(x) ** 2 - 1.0
        if dg == 0.0:
            break
        x -= g(x) / dg
    return x


def smallest_tan_fixed_point(mu: float) -> float:
    """The smallest positive solution of mu * tan(x) = x, for 0 < mu < 1.

    Lies in (0, pi/2); decreasing in mu.  Bisection plus Newton polish,
    residual below 1e-12.
    """
    if not (0.0 < mu < 1.0):
        raise ValueError("need 0 < mu < 1")
    def g(t):
        return mu * math.tan(t) - t
    # g < 0 just above 0, g -> +inf at pi/2
    x = _bisect(lambda t: g(t) < 0.0, 1e-12, HALF_PI * (1.0 - 1e-14))
    for _ in range(4):
        dg = mu / math.cos(x) ** 2 - 1.0
        if dg == 0.0:
            break
        step = g(x) / dg
        if 0.0 < x - step < HALF_PI:
            x -= step
    return x


# ---------------------------------------------------------------------------
# petal region in the plane

def petal_contains(p, lam: float) -> bool:
    """Membership in the petal region Q = {q in S : lam*tan(m) < |q|}.

    S is the open square m = max(|x|, |y|) < pi/4, where the plane map is
    F(q) = lam*q*tan(m)/|q|, so Q is where |F(q)| < |q| (README, "The
    petal region").  Defined for 0 < lam < sqrt(2).
    """
    if not (0.0 < lam < SQRT2):
        raise ValueError("petal region defined for 0 < lam < sqrt(2)")
    x, y = float(p[0]), float(p[1])
    m = max(abs(x), abs(y))
    return m < QUARTER_PI and (m == 0.0 or lam * math.tan(m) < math.hypot(x, y))


def petal_boundary_residual(lam: float, n_samples: int = 100):
    """Max |T_lam(p) - p| over petal-boundary points inside the open square.

    Along the ray of slope a the map acts as mu*tan with
    mu = lam/sqrt(1+a^2), and the boundary abscissa is that map's
    smallest positive fixed point; only those below pi/4 lie in the open
    square.  For lam <= pi/4 there are none and (0.0, 0) is returned.
    Each boundary point is bisected on its own ray; the map then takes
    them all in one ``tangent3_grid`` pass.
    """
    if not (0.0 < lam < SQRT2):
        raise ValueError("need 0 < lam < sqrt(2)")
    lo = max(lam * lam - 1.0, 0.0)
    xs, ys = [], []
    for a2 in np.linspace(lo, 1.0, n_samples + 1)[1:].tolist():
        # a2 > lam^2 - 1 on every sample, so mu < 1
        bound = smallest_tan_fixed_point(lam / math.sqrt(1.0 + a2))
        if bound >= QUARTER_PI:
            continue
        a = math.sqrt(a2)
        for sx in (1.0, -1.0):
            for sa in (1.0, -1.0):
                x = sx * bound
                xs += [x, sa * a * x]
                ys += [sa * a * x, x]
    x, y = np.array(xs), np.array(ys)
    tx, ty, _, _ = tangent3_grid(x, y, 0.0, lam)
    return float(np.max(np.hypot(tx - x, ty - y), initial=0.0)), len(xs)


# ---------------------------------------------------------------------------
# orbit classification

# the fate rules, read when called: all by classify_orbit, the first two
# by the renderer
SETTLE = 3
CAPTURE_TOL = 1e-6
ESCAPE_RUN = 8
ESCAPE_NORM = 50.0


class Fate(Enum):
    TO_UPPER_FIXED = "ToUpperFixed"
    TO_LOWER_FIXED = "ToLowerFixed"
    TO_ORIGIN = "ToOrigin"
    ESCAPING = "Escaping"
    POLE_HIT = "PoleHit"
    UNDECIDED = "Undecided"


@dataclass
class FateRecord:
    fate: Fate
    iterations: int
    residual: float
    witness: object  # final point, or INFINITY for a pole hit


def classify_orbit(v, lam: float, max_iter: int = 500) -> FateRecord:
    """Iterate the scaled tangent map and name the orbit's fate.

    Convergence fates require staying within CAPTURE_TOL of the target
    for SETTLE consecutive steps.  The escape call is heuristic by
    nature (the escaping set is totally disconnected): the orbit must
    sit in pole diamonds whose centre norms strictly increased for
    ESCAPE_RUN consecutive steps while the orbit norm exceeds
    ESCAPE_NORM.  The centres are (i, j) pi/2 for integers i, j, and
    their norms are compared as the Python integers i^2 + j^2, so a step
    between distinct centres of equal norm is no growth, at any size.
    Anything else at the horizon is Undecided.
    """
    if max_iter < 1:
        raise ValueError("need max_iter >= 1")
    targets = [(Fate.TO_ORIGIN, 0.0)]
    if lam > 1.0:
        xi = axis_fixed_point(lam)
        targets.append((Fate.TO_UPPER_FIXED, xi))
        targets.append((Fate.TO_LOWER_FIXED, -xi))
    runs = [0] * len(targets)
    x, y, z = _checked_vec3(v)[1]
    # the last plane iterates, as many as the escape rule reads
    recent = deque(maxlen=ESCAPE_RUN + 1)
    for it in range(1, max_iter + 1):
        p = _tangent3_xyz(x, y, z, lam)
        if p is None:
            return FateRecord(Fate.POLE_HIT, it, 0.0, INFINITY)
        x, y, z = p
        # every target sits on the axis: (0, 0, tz)
        xy2 = x * x + y * y
        for i, (fate, tz) in enumerate(targets):
            dz = z - tz
            d = math.sqrt(xy2 + dz * dz)
            runs[i] = runs[i] + 1 if d < CAPTURE_TOL else 0
            if runs[i] >= SETTLE:
                return FateRecord(fate, it, d, np.array(p))
        # escape bookkeeping only makes sense on the invariant plane
        if z != 0.0:
            recent.clear()
            continue
        recent.append(p)
        if (math.sqrt(xy2) > ESCAPE_NORM and len(recent) > ESCAPE_RUN
                and _centre_norms_grow(recent)):
            return FateRecord(Fate.ESCAPING, it, 0.0, np.array(p))
    return FateRecord(Fate.UNDECIDED, max_iter, math.nan, np.array(p))


def _centre_norms_grow(points):
    """Whether every point lies in an open pole diamond and the diamonds'
    centre norms strictly increase along the points; diamond (m, n) has
    centre (i, j) pi/2 with i = n + m, j = n - m + 1, and i^2 + j^2 is
    compared."""
    prev = -1
    for p in points:
        idx = containing_diamond(p)
        if idx is None:
            return False
        i, j = idx.n + idx.m, idx.n - idx.m + 1
        n2 = i * i + j * j
        if not n2 > prev:
            return False
        prev = n2
    return True


# ---------------------------------------------------------------------------
# sampled inequality checks

def parabolic_decrease_check(eps: float = 0.05, n_samples: int = 10_000,
                             seed: int = 0) -> bool:
    """Sampled check (lam = 1 only) that the third component obeys
    T_3(x,y,z) <= z - z^3/24 on the cusp region {max(|x|,|y|) < z/2 < eps}.

    Each sample is z = uniform(0, 2 eps), then x and y uniform in
    (-z/2, z/2), drawn as the triple of uniforms those calls consume and
    rescaled by the same arithmetic; a z of exactly 0 is redrawn alone.
    """
    rng = np.random.default_rng(seed)
    count = 0
    while count < n_samples:
        state = rng.bit_generator.state
        u = rng.random((n_samples - count, 3))
        zero = np.flatnonzero(u[:, 0] == 0.0)
        if zero.size:
            # replay the stream up to that z, so the redraw starts after it
            rng.bit_generator.state = state
            rng.random(3 * int(zero[0]) + 1)
            u = u[:zero[0]]
        z = (2.0 * eps) * u[:, 0]
        m = z / 2.0
        x = -m + (m + m) * u[:, 1]
        y = -m + (m + m) * u[:, 2]
        count += len(u)
        if np.any(tangent3_grid(x, y, z, 1.0)[2] > z - z ** 3 / 24.0):
            return False
    return True


def third_component_bound_violations(lam: float, n_samples: int = 10_000,
                                     seed: int = 0, slack: float = 1e-12) -> int:
    """Count violations of T_3(x,y,z) >= lam*tanh(z) - slack over random
    samples with 0 < z < 5 (odd- and even-parity tiles both covered)."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-10.0, 10.0, n_samples)
    ys = rng.uniform(-10.0, 10.0, n_samples)
    zs = rng.uniform(1e-9, 5.0, n_samples)
    tz = tangent3_grid(xs, ys, zs, lam)[2]
    return int(np.count_nonzero(tz < lam * np.tanh(zs) - slack))


def offaxis_monotonicity_violations(lam: float, n_samples: int = 10_000,
                                    seed: int = 0) -> int:
    """Count violations of ratio(T(v)) < ratio(v), ratio = max(|x|, |y|)/z,
    on random upper-half-space samples with max(|x|,|y|) bounded away
    from 0.  The ratio strictly decreasing along orbits is the engine of
    the basin argument.

    A sample is the triple (uniform(-10, 10), uniform(-10, 10),
    uniform(1e-6, 10)); an image at a pole or off the upper half-space
    is a violation.
    """
    rng = np.random.default_rng(seed)
    x, y, z = rng.uniform([-10.0, -10.0, 1e-6], [10.0, 10.0, 10.0], (n_samples, 3)).T
    ratio = np.maximum(np.abs(x), np.abs(y))
    keep = ~(ratio < 1e-9)
    ratio = ratio[keep] / z[keep]
    tx, ty, tz, finite = tangent3_grid(x[keep], y[keep], z[keep], lam)
    up = finite & (tz > 0.0)
    img_ratio = np.divide(np.maximum(np.abs(tx), np.abs(ty)), tz,
                          out=np.full(tz.shape, math.inf), where=up)
    return int(np.count_nonzero(~(img_ratio < ratio)))


# ---------------------------------------------------------------------------
# blow-up probe

@dataclass
class TargetCoverage:
    target: object
    covered: bool
    iterations: int | None       # steps of the map needed, when covered
    witness: np.ndarray | None   # start point in the probed ball
    distance: float              # chordal gap achieved at the target
    note: str = ""


@dataclass
class BlowupReport:
    center: np.ndarray
    radius: float
    lam: float
    results: list = field(default_factory=list)

    @property
    def all_covered(self) -> bool:
        return all(r.covered for r in self.results)


def _far_preimage(target, lam, min_norm):
    """A verified preimage of ``target`` whose plane coordinates are far out.

    Preimages of any non-omitted value occupy two pi-periodic families
    per coordinate at a fixed height, so marching the search box outward
    always finds one.
    """
    k = int(math.ceil(min_norm / math.pi)) + 1
    for attempt in range(k, k + 8):
        cx = attempt * math.pi
        got = preimages_tangent3(target, lam, (cx - HALF_PI, cx + HALF_PI,
                                               cx - HALF_PI, cx + HALF_PI))
        if got:
            return got[0]
    return None


def blowup_probe(center, radius: float, lam: float, targets,
                 max_iter: int = 60, n_samples: int = 400,
                 seed: int = 0) -> BlowupReport:
    """Sampled check that iterates of a small ball blow up onto everything.

    Iterates a seeded sample of the 3-ball B(center, radius) (center is a
    plane point) and records, per target, the first step coming within
    0.05 (chordal) of it.  When the ball contains a pole, a
    two-step witness is constructed exactly: a far preimage of the
    target, then its preimage beside the pole inside the ball; the
    witness is verified by forward evaluation, never assumed.  Targets
    equal to the omitted values (0, 0, +-lam) are rejected.  Forward
    sampling stops as soon as every accepted target has a witness (or
    at once when none was accepted): later steps cannot change a
    target's first hit, so the report is the one a run to ``max_iter``
    gives.  Honest non-coverage at the horizon is reported, not patched
    over.
    """
    if radius <= 0.0:
        raise ValueError("need radius > 0")
    hit_tol = 0.05
    center = np.array([float(center[0]), float(center[1]), 0.0])
    omitted = (np.array([0.0, 0.0, lam]), np.array([0.0, 0.0, -lam]))
    report = BlowupReport(center=center, radius=radius, lam=lam)

    checks = []
    for t in targets:
        if not is_infinity(t):
            t = as_vec3(t)
            if any(chordal(t, o) < 1e-9 for o in omitted):
                report.results.append(TargetCoverage(
                    t, False, None, None, math.inf, "rejected: omitted value"))
                continue
        checks.append(t)

    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_samples, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= (radius * rng.uniform(0.0, 1.0, n_samples) ** (1.0 / 3.0))[:, None]
    pts += center
    starts = np.vstack([center[None, :], pts])

    best = {id(t): (math.inf, None, None) for t in checks}

    # two-step exact witnesses through any pole inside the ball
    pole_hits = []
    span = int(math.ceil((np.abs(center[:2]).max() + radius) / HALF_PI)) + 1
    for m in range(-span, span + 1):
        for n in range(-span, span + 1):
            loc = pole_location((m, n))
            if math.hypot(loc[0] - center[0], loc[1] - center[1]) < radius * 0.98:
                pole_hits.append(loc)
    for t in checks:
        for loc in pole_hits:
            far = _far_preimage(t, lam, min_norm=max(50.0, 4.0 * math.pi / radius))
            if far is None:
                continue
            cands = preimages_tangent3(far, lam,
                                       (loc[0] - QUARTER_PI, loc[0] + QUARTER_PI,
                                        loc[1] - QUARTER_PI, loc[1] + QUARTER_PI))
            for c in cands:
                if float(np.linalg.norm(c - center)) >= radius:
                    continue
                p = tangent3(c, lam)
                if is_infinity(p):
                    continue
                p2 = tangent3(p, lam)
                d = chordal(p2, t)
                if d < hit_tol and d < best[id(t)][0]:
                    best[id(t)] = (d, 2, c)
            if best[id(t)][1] is not None:
                break

    # forward sampling for whatever is still uncovered; a covered target
    # keeps its first hit, so once none is left the samples decide nothing
    alive = [np.array(s) for s in starts]
    for step in range(1, max_iter + 1):
        if all(best[id(t)][1] is not None for t in checks):
            break
        nxt = []
        for p in alive:
            q = tangent3(p, lam)
            if is_infinity(q):
                continue
            nxt.append(q)
        alive = nxt
        if not alive:
            break
        for t in checks:
            if best[id(t)][1] is not None:
                continue
            for q in alive:
                d = chordal(q, t)
                if d < hit_tol:
                    best[id(t)] = (d, step, None)
                    break

    for t in checks:
        d, m, witness = best[id(t)]
        covered = m is not None
        report.results.append(TargetCoverage(
            t, covered, m, witness, d,
            "" if covered else f"not reached within {max_iter} iterations"))
    return report

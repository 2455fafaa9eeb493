"""Desk-scale verification suite for the tangent-family dynamics.

Each check exercises one constructive statement behind the library:
geometric identities of the map, derivative and contraction bounds,
inverse-branch round trips, itinerary shadowing, periodic orbits and
basin absorption.  Checks are seeded and cheap (the whole suite runs in
well under a minute per parameter value); each returns a pass/fail plus
a one-line detail, and the CLI turns the collection into per-check
output lines and an exit code.

Checks apply only where their hypotheses do (a petal check at lam > 1.4
or an axis fixed point at lam < 1 would be meaningless), so the suite
adapts to the parameter it is given.

A sampled check evaluates all its points in one array pass: the map
through ``tangent3_grid``, distances through ``chordal_grid`` and the
plane derivative through its closed form on arrays.  Only
``petal-membership``, a few hundred scalar probes, loops point by point.
The oracles stay independent of that kernel: complex ``tan`` for the
embedded planes, the unfolded route on arrays for the beam.  Orbit
checks run ``classify_orbit``, which iterates on Python floats.  The
checks share one random generator, and each draws the same values, in
the same count, as drawing one sample at a time would: a rejection
sampler draws blocks of its remaining need, so it never draws past its
last accepted sample.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, itinerary, plane
from .core import (
    HALF_PI,
    QUARTER_PI,
    _tangent3_composed_grid,
    chordal_grid,
    fold_axis_grid,
    tangent3,
    tangent3_grid,
)
from .plane import SQRT2, singular_values_2x2


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _sample_points(rng, n, span=10.0):
    return rng.uniform(-span, span, size=(n, 3))


def _max(values) -> float:
    """Largest entry of an array as a float, 0.0 when it is empty."""
    return float(np.max(values, initial=0.0))


def _norm3(x, y, z):
    """Euclidean norms of parallel coordinate arrays."""
    return np.sqrt(x * x + y * y + z * z)


def check_tangent_embedding(lam, rng, n=10_000):
    """Restriction to the (x,z)- and (y,z)-planes equals lam*tan(a+ib)."""
    a = rng.uniform(-10, 10, n)
    b = rng.uniform(-10, 10, n)
    w = lam * np.tan(a + 1j * b)  # independent complex-arithmetic oracle
    zero = np.zeros(n)
    worst = max(
        _max(chordal_grid(tangent3_grid(a, zero, b, lam)[:3], (w.real, zero, w.imag))),
        _max(chordal_grid(tangent3_grid(zero, a, b, lam)[:3], (zero, w.real, w.imag))))
    return CheckResult("tangent-embedding",
                       worst < 1e-10, f"max chordal error {worst:.2e}")


def check_periodicity(lam, rng, n=10_000):
    """T(v + (pi,0,0)) = T(v) = T(v + (0,pi,0)) in the chordal metric."""
    x, y, z = _sample_points(rng, n).T
    base = tangent3_grid(x, y, z, lam)[:3]
    worst = max(_max(chordal_grid(base, tangent3_grid(x + math.pi, y, z, lam)[:3])),
                _max(chordal_grid(base, tangent3_grid(x, y + math.pi, z, lam)[:3])))
    return CheckResult("periodicity", worst < 1e-10, f"max chordal error {worst:.2e}")


def check_reflection_equivariance(lam, rng, n=10_000):
    """T commutes with reflection in each coordinate plane."""
    v = _sample_points(rng, n // 3).T
    *img, finite = tangent3_grid(*v, lam)
    worst = 0.0
    for axis in range(3):
        rv = list(v)
        rv[axis] = -rv[axis]
        rimg = list(img)
        rimg[axis] = -rimg[axis]
        *lhs, lhs_finite = tangent3_grid(*rv, lam)
        err = chordal_grid(lhs, rimg)
        # T(v) at infinity needs T(rv) there too; both there is 0
        err[~finite & lhs_finite] = math.inf
        worst = max(worst, _max(err))
    return CheckResult("reflection-equivariance", worst < 1e-10,
                       f"max chordal error {worst:.2e}")


def check_omitted_values(lam, rng, n=2_000):
    """(0,0,+-lam) is never attained but is the limit for z -> +-inf."""
    tx, ty, tz, finite = tangent3_grid(*_sample_points(rng, n).T, lam)
    tx, ty, tz = tx[finite], ty[finite], tz[finite]
    gaps = np.minimum(_norm3(tx, ty, tz - lam), _norm3(tx, ty, tz + lam))
    min_gap = float(np.min(gaps, initial=math.inf))
    x, y, _ = _sample_points(rng, 200).T
    worst_limit = 0.0
    for z, limit in ((20.0, lam), (-20.0, -lam)):
        tx, ty, tz, _ = tangent3_grid(x, y, np.full(x.shape, z), lam)
        worst_limit = max(worst_limit, _max(_norm3(tx, ty, tz - limit)))
    ok = min_gap > 0.0 and worst_limit < 1e-8
    return CheckResult("omitted-values", ok,
                       f"min gap {min_gap:.2e}, limit error {worst_limit:.2e}")


def check_half_space_invariance(lam, rng, n=5_000):
    """sign of the third component is preserved off the plane."""
    x, y, z = _sample_points(rng, n).T
    off = z != 0.0
    _, _, tz, finite = tangent3_grid(x[off], y[off], z[off], lam)
    bad = int(np.count_nonzero(~finite | (np.signbit(tz) != np.signbit(z[off]))))
    return CheckResult("half-space-invariance", bad == 0, f"{bad} violations")


def check_composed_consistency(lam, rng, n=10_000):
    """Beam evaluation agrees with the unfolded cayley(zorich(2v)) route."""
    pts = _sample_points(rng, 2 * n, span=5.0)
    # keep the first n samples at least 1e-6 from every fold line
    gap = np.minimum(*(QUARTER_PI - np.abs(fold_axis_grid(pts[:, k], QUARTER_PI)[0])
                       for k in (0, 1)))
    x, y, z = pts[~(gap < 1e-6)][:n].T
    worst = _max(chordal_grid(tangent3_grid(x, y, z, lam)[:3],
                              _tangent3_composed_grid(x, y, z, lam)))
    return CheckResult("composed-vs-beam-consistency", worst < 1e-9,
                       f"max chordal error {worst:.2e} over {len(x)} samples")


def check_axis_action(lam, rng, n=2_000):
    """T_lam(0,0,z) = (0,0, lam*tanh z)."""
    z = rng.uniform(-20, 20, n)
    zero = np.zeros(n)
    tx, ty, tz, _ = tangent3_grid(zero, zero, z, lam)
    worst = _max(_norm3(tx, ty, tz - lam * np.tanh(z)))
    return CheckResult("axis-action", worst < 1e-12, f"max error {worst:.2e}")


def check_axis_fixed_point(lam, rng):
    """xi solves lam*tanh(xi) = xi and (0,0,xi) is fixed (lam > 1 only)."""
    xi = analysis.axis_fixed_point(lam)
    r1 = abs(xi - lam * math.tanh(xi))
    p = np.array([0.0, 0.0, xi])
    r2 = float(np.linalg.norm(tangent3(p, lam) - p))
    ok = r1 < 1e-12 and r2 < 1e-10
    return CheckResult("axis-fixed-point", ok,
                       f"xi={xi:.12g}, eq residual {r1:.1e}, map residual {r2:.1e}")


def check_basin_classification(lam, rng, n=200):
    """Orbits off the plane fall into the advertised attractor."""
    want = analysis.Fate.TO_UPPER_FIXED if lam > 1.0 else analysis.Fate.TO_ORIGIN
    starts = rng.uniform([-10.0, -10.0, 0.01], [10.0, 10.0, 5.0], (n, 3))
    bad = sum(analysis.classify_orbit(v, lam, max_iter=500).fate is not want
              for v in starts)
    return CheckResult("basin-classification", bad == 0,
                       f"{bad}/{n} orbits missed {want.value}")


def check_offaxis_monotonicity(lam, rng, n=10_000):
    bad = analysis.offaxis_monotonicity_violations(lam, n_samples=n,
                                                   seed=int(rng.integers(2**31)))
    return CheckResult("offaxis-monotonicity", bad == 0, f"{bad} violations")


def check_third_component_bound(lam, rng, n=10_000):
    bad = analysis.third_component_bound_violations(lam, n_samples=n,
                                                    seed=int(rng.integers(2**31)))
    return CheckResult("third-component-bound", bad == 0, f"{bad} violations")


def check_parabolic_bound(lam, rng, n=10_000):
    ok = analysis.parabolic_decrease_check(eps=0.05, n_samples=n,
                                           seed=int(rng.integers(2**31)))
    return CheckResult("parabolic-axis-bound", ok,
                       "third component below z - z^3/24 on the cusp region")


def _accepted_uniform(rng, n, low, high, dim, keep, limit=math.inf):
    """n rows of rng.uniform(low, high, dim) that pass ``keep`` (a mask of a
    block of rows), drawn in blocks of the remaining need, at most
    ``limit`` rows in all: the same values, in the same count, as
    drawing one row at a time until n pass or the limit is spent.
    """
    blocks = [np.empty((0, dim))]
    while n > 0 and limit > 0:
        block = rng.uniform(low, high, (min(n, limit), dim))
        limit -= len(block)
        block = block[keep(block)]
        blocks.append(block)
        n -= len(block)
    return np.concatenate(blocks)


def check_derivative_lower_bound(lam, rng, n=10_000):
    """Sampled eigenvalues of DF stay above lam/sqrt(2) - 0.01 in modulus.

    The eigenvalue bound is what the derivative computation actually
    establishes.  The least *singular* value genuinely dips below
    lam/sqrt(2) on a cone about the diagonals (the matrix is non-normal
    there, with a double eigenvalue exactly lam/sqrt(2)), so it is
    reported but not gated on.
    """
    bound = lam / SQRT2 - 0.01
    x, y = _accepted_uniform(
        rng, n, -6, 6, 2,
        lambda p: plane._distance_to_nonsmooth_grid(p[:, 0], p[:, 1]) > 1e-3).T
    a, b, c, d = plane._jacobian_grid(x, y, lam)
    worst_sv = float(singular_values_2x2(a, b, c, d)[0].min())
    lo, hi, real = plane._real_eigenvalues(a, b, c, d, np.sqrt, np.maximum)
    worst_eig = float(np.min(np.minimum(np.abs(lo[real]), np.abs(hi[real])), initial=math.inf))
    return CheckResult("derivative-lower-bound", worst_eig >= bound,
                       f"min |eigenvalue| {worst_eig:.4f} vs bound {bound:.4f} "
                       f"(least singular value seen {worst_sv:.4f})")


def _in_eigen_sector(p):
    """Rows of p folding into 0 < |fy| < |fx| < pi/4, 1e-3 off the non-smooth set."""
    a, b = (np.abs(fold_axis_grid(c, QUARTER_PI)[0]) for c in p.T)
    return (0.0 < b) & (b < a) & (plane._distance_to_nonsmooth_grid(*p.T) > 1e-3)


def check_eigen_crosscheck(lam, rng, n=500):
    """The plane Jacobian reproduces the closed-form sector eigenvalues.

    Near a tile centre the two eigenvalues separate only as r^2, so the
    rounding error of the computed pair grows like 1e-16/r^2: about
    1.5e-10 at the 1e-3 cut-off, well inside the 1e-8 tolerance.
    """
    x, y = _accepted_uniform(rng, n, -6, 6, 2, _in_eigen_sector).T
    (fx, ox), (fy, oy) = fold_axis_grid(x, QUARTER_PI), fold_axis_grid(y, QUARTER_PI)
    # without the fold's signs DF has eigenvalues lam*(g(a), a g'(a))/r, g = tan or cot
    a, r, odd = np.abs(fx), np.hypot(fx, fy), ox ^ oy
    t, s = np.tan(a), np.sin(a)
    e1 = lam * np.where(odd, np.cos(a) / s / r, t / r)
    e2 = lam * np.where(odd, -a / (s * s * r), a * (1.0 + t * t) / r)
    sx, sy = 1.0 - 2.0 * ox, 1.0 - 2.0 * oy
    j11, j12, j21, j22 = plane._jacobian_grid(x, y, lam)
    lo, hi, real = plane._real_eigenvalues(j11 * sx, j12 * sy, j21 * sx, j22 * sy,
                                           np.sqrt, np.maximum)
    err = np.maximum(*(np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
                       for got, want in ((lo, np.minimum(e1, e2)), (hi, np.maximum(e1, e2)))))
    worst = _max(np.where(real, err, math.inf))
    return CheckResult("derivative-eigen-crosscheck", worst < 1e-8,
                       f"max relative eigenvalue error {worst:.2e}")


def check_branch_roundtrip(lam, rng, n_targets=200):
    """F o S_q = id on sampled targets; S_q(inf) is the pole, exactly.

    The targets of all nine diamonds go through one pass of the batched
    branch engine and one forward ``tangent3_grid`` pass.
    """
    from .core import INFINITY
    poles = [plane.PoleIndex(m, nn) for m in (-1, 0, 1) for nn in (-1, 0, 1)]
    targets = []
    for q in poles:
        exact = plane.inverse_branch(q, INFINITY, lam)
        if not np.array_equal(exact, plane.pole_location(q)):
            return CheckResult("branch-roundtrip", False, "branch at infinity != pole")
        targets.append(_accepted_uniform(
            rng, n_targets, -20, 20, 2,
            lambda w: ~(plane._diagonal_segment_distance_grid(w[:, 0], w[:, 1], lam) < 1e-6)))
    wx, wy = np.concatenate(targets).T
    centres = np.repeat([plane.pole_location(q) for q in poles], n_targets, axis=0)
    x, y = plane._inverse_branch_grid(centres[:, 0], centres[:, 1], wx, wy, lam)
    worst = _max(chordal_grid(tangent3_grid(x, y, 0.0, lam)[:3], (wx, wy, 0.0)))
    return CheckResult("branch-roundtrip", worst < 1e-9,
                       f"max chordal residual {worst:.2e}")


def check_branch_contraction(lam, rng, n_pairs=1000):
    """Branch images of one diamond shrink pairwise by sqrt(2)/lam + 0.01."""
    bound = SQRT2 / lam + 0.01
    p = plane.PoleIndex(0, 3)
    q = plane.PoleIndex(0, 0)
    pts = plane.pole_location(p) + _accepted_uniform(
        rng, 2 * n_pairs, -HALF_PI, HALF_PI, 2,
        lambda d: np.abs(d[:, 0]) + np.abs(d[:, 1]) < HALF_PI)
    ratio = plane.branch_contraction_ratio(q, p, pts.reshape(-1, 2, 2), lam)
    return CheckResult("branch-contraction", ratio <= bound,
                       f"max ratio {ratio:.4f} vs bound {bound:.4f}")


def check_pole_expansion(lam, rng, n_pairs=1000):
    """|F(a)-F(b)| >= (2 - 0.01)|a-b| on the calibrated pole ball."""
    cal = plane.calibrate_expansion(lam)
    c = plane.pole_location(plane.PoleIndex(0, 0))
    # per pair: the two angles, then the two radius uniforms
    u = rng.uniform([0.0, 0.0, 0.0, 0.0], [2 * math.pi, 2 * math.pi, 1.0, 1.0], (n_pairs, 4))
    ang = u[:, :2]
    rad = cal.eps * np.sqrt(u[:, 2:])
    pairs = np.stack([c[0] + rad * np.cos(ang), c[1] + rad * np.sin(ang)], axis=-1)
    ratio = plane.pole_expansion_ratio(plane.PoleIndex(0, 0), pairs, lam)
    ok = ratio >= 2.0 - 0.01
    return CheckResult("pole-expansion", ok,
                       f"min ratio {ratio:.4f} on eps={cal.eps:.4f} ball")


def check_calibration(lam, rng):
    """The calibrated radii satisfy their defining properties."""
    cal = plane.calibrate_expansion(lam)
    ok = 0.0 < cal.eps < QUARTER_PI and cal.delta > 0.0 and cal.r1 > lam / SQRT2
    return CheckResult("expansion-calibration", ok,
                       f"delta={cal.delta:.4f} eps={cal.eps:.4f} r1={cal.r1:.2f} "
                       f"branch radius {cal.branch_radius:.2f}")


def check_diagonal_invariance(lam, rng, n=500):
    """The diagonal lines map into the bounded diagonal segment."""
    x = rng.uniform(-30, 30, n)
    tx, ty, _, finite = tangent3_grid(np.concatenate([x, x]), np.concatenate([x, -x]),
                                      0.0, lam)
    if not finite.all():
        return CheckResult("diagonal-invariance", False, "diagonal point hit a pole")
    worst_off = _max(np.abs(np.abs(tx) - np.abs(ty)))
    worst_len = _max(np.abs(tx))
    ok = worst_off < 1e-10 and worst_len <= lam / SQRT2 + 1e-10
    return CheckResult("diagonal-invariance", ok,
                       f"off-diagonal {worst_off:.1e}, max |x| {worst_len:.6f} "
                       f"vs {lam / SQRT2:.6f}")


def check_petal_membership(lam, rng):
    """Sanity of the petal region for this lam (square case and axis case)."""
    probes_in = [np.array([0.1, 0.1])] if lam <= 1.25 else []
    ok = all(analysis.petal_contains(p, lam) for p in probes_in)
    if lam <= QUARTER_PI:
        for _ in range(200):
            p = rng.uniform(-QUARTER_PI, QUARTER_PI, 2) * 0.999
            ok = ok and analysis.petal_contains(p, lam)
    if lam > 1.0:
        ok = ok and not analysis.petal_contains(np.array([QUARTER_PI, 0.0]), lam)
    return CheckResult("petal-membership", ok, "membership probes behave")


def check_petal_boundary_fixed(lam, rng):
    """Petal boundary points inside the open square are fixed (pi/4 < lam < sqrt2)."""
    worst, count = analysis.petal_boundary_residual(lam, n_samples=100)
    if count == 0:
        return CheckResult("petal-boundary-fixed", True, "vacuous at this lam")
    return CheckResult("petal-boundary-fixed", worst < 1e-9,
                       f"max residual {worst:.2e} over {count} boundary points")


# uniform draws check_petal_absorbed may spend looking for its samples
_PETAL_DRAWS = 200_000


def check_petal_absorbed(lam, rng, n=300):
    """Petal samples are classified as captured by the origin (lam < sqrt2).

    Samples keep away from the petal boundary (where convergence slows
    without limit) and, for lam >= 1, away from the axis directions
    (whose one-dimensional contraction factor lam/sqrt(1+slope^2)
    approaches 1, the parabolic regime no finite budget resolves).  At
    most ``_PETAL_DRAWS`` points are drawn.
    """
    def sampled(p):
        # points right at the boundary converge arbitrarily slowly
        return (analysis.petal_contains(p, lam)
                and analysis.petal_contains((p[0] * 1.05, p[1] * 1.05), lam)
                and _petal_rate(p, lam) <= 0.99)

    def keep(block):
        # lam*m < |p| is necessary for lam*tan(m) < |p| (tan m >= m); a few
        # ulp of slack cover numpy's hypot differing from math's
        m = np.abs(block).max(axis=1)
        out = (lam * m < np.hypot(*block.T) * (1.0 + 1e-15)) | (m == 0.0)
        out[out] = [sampled(p) for p in block[out].tolist()]
        return out

    pts = _accepted_uniform(rng, n, -QUARTER_PI, QUARTER_PI, 2, keep, _PETAL_DRAWS)
    tried = len(pts)
    bad = sum(analysis.classify_orbit(np.array([x, y, 0.0]), lam, max_iter=2500).fate
              is not analysis.Fate.TO_ORIGIN for x, y in pts.tolist())
    if tried == 0:
        return CheckResult("petal-absorbed", True, "vacuous at this lam")
    found = "" if tried == n else f"; {tried} of {n} found in {_PETAL_DRAWS} draws"
    return CheckResult("petal-absorbed", bad == 0,
                       f"{bad}/{tried} petal orbits strayed (sectors with "
                       f"contraction factor <= 0.99){found}")


def _petal_rate(p, lam):
    """Contraction factor lam*m/|p| of the ray through p, m = max(|x|, |y|)."""
    x, y = float(p[0]), float(p[1])
    if x == 0.0 and y == 0.0:
        return 0.0
    return lam * max(abs(x), abs(y)) / math.hypot(x, y)


def check_lines_absorbed(lam, rng, n=200):
    """The diagonal line grid falls into the origin's basin (lam < 1)."""
    bad = 0
    for _ in range(n):
        x = rng.uniform(-20.0, 20.0)
        k = int(rng.integers(-5, 6))
        s = 1.0 if rng.uniform() < 0.5 else -1.0
        p = np.array([x, s * x + k * math.pi, 0.0])
        rec = analysis.classify_orbit(p, lam, max_iter=2000)
        if rec.fate is not analysis.Fate.TO_ORIGIN:
            bad += 1
    return CheckResult("lines-absorbed", bad == 0, f"{bad}/{n} line orbits strayed")


def _growing_itinerary(offset=0):
    return itinerary.Itinerary(prefix=[], tail=lambda j: (0, j + offset))


def check_itinerary_shadow(lam, rng, depth=20):
    """Constructed symbolic points run their prescribed diamonds."""
    itin = _growing_itinerary(offset=3 if lam > SQRT2 else _first_far_offset(lam))
    x, wps = itinerary.point_from_itinerary(itin, lam, n_compose=depth + 6,
                                            return_waypoints=True)
    ok, worst = itinerary.shadow_check(wps, itin, lam, depth)
    return CheckResult("itinerary-shadow", ok,
                       f"{depth} symbols verified, worst one-step gap {worst:.2e}")


def _first_far_offset(lam):
    r = plane.required_tail_radius(lam)
    j = 0
    while float(np.linalg.norm(plane.pole_location((0, j)))) <= r:
        j += 1
    return j


def check_itinerary_cauchy(lam, rng, n_lo=6, n_hi=24):
    """Truncation increments decay geometrically within the 2^(1-j) budget."""
    itin = _growing_itinerary(offset=3 if lam > SQRT2 else _first_far_offset(lam))
    pts = {n: itinerary.point_from_itinerary(itin, lam, n_compose=n)
           for n in range(n_lo, n_hi + 1)}
    ok = True
    worst_ratio = 0.0
    prev_inc = None
    for n in range(n_lo, n_hi):
        inc = float(np.linalg.norm(pts[n + 1] - pts[n]))
        if inc > 2.0 ** (1 - n) * math.pi:
            ok = False
        if prev_inc is not None and prev_inc > 1e-14:
            worst_ratio = max(worst_ratio, inc / prev_inc)
        prev_inc = inc
    ok = ok and worst_ratio <= 0.6
    return CheckResult("itinerary-cauchy", ok,
                       f"worst increment ratio {worst_ratio:.3f} (budget 0.6)")


def check_itinerary_roundtrip(lam, rng, n_tails=20, depth=12):
    """Symbol read-back of constructed points matches the prescription."""
    if lam <= SQRT2:
        # read-back depth at the mandatory tail norms decays fast below sqrt2
        depth = min(depth, 6)
    base = _low_norm_cycle(lam)
    bad = 0
    for _ in range(n_tails):
        rot = int(rng.integers(0, len(base)))
        head = [base[(rot + j) % len(base)] for j in range(16)]
        itin = itinerary.Itinerary(
            prefix=[], tail=_mixed_tail(head, _first_far_offset(lam) + 16))
        x = itinerary.point_from_itinerary(itin, lam, n_compose=depth + 14)
        got, reason = itinerary.itinerary_of(x, lam, depth)
        if list(got) != [itin.symbol(j) for j in range(depth)]:
            bad += 1
    return CheckResult("itinerary-roundtrip", bad == 0,
                       f"{bad}/{n_tails} read-backs disagreed at depth {depth}")


def _low_norm_cycle(lam):
    """Valid cycle poles of smallest norm for this lam."""
    r = plane.required_tail_radius(lam)
    cands = []
    for m in range(-6, 7):
        for n in range(-6, 7):
            norm = float(np.linalg.norm(plane.pole_location((m, n))))
            if norm > r:
                cands.append(((m, n), norm))
    cands.sort(key=lambda t: t[1])
    return [c[0] for c in cands[:8]]


def _mixed_tail(head, growth_offset):
    def tail(j):
        if j < len(head):
            return head[j]
        return (0, j - len(head) + growth_offset)
    return tail


def check_periodic_cycles(lam, rng):
    """Composed-branch fixed points close up under forward iteration.

    Above sqrt(2) the admissible poles sit close enough in for periods
    1, 3, 7 to stay below 1e-9 in double precision; at or below sqrt(2)
    the mandatory pole norms are larger, forward noise grows by the
    squared pole norm per step, and only short periods can meet the same
    figure, so the check scales the lengths it demands it of.
    """
    base = _low_norm_cycle(lam)
    lengths = (1, 3, 7) if lam > SQRT2 else (1, 2, 3)
    worst = 0.0
    for k in lengths:
        cyc = [base[j % len(base)] for j in range(k)]
        res = itinerary.periodic_point_from_cycle(
            itinerary.PeriodicCycleSpec(cycle=cyc), lam)
        worst = max(worst, res.residual)
    return CheckResult("periodic-cycles", worst < 1e-9,
                       f"worst forward residual {worst:.2e} over periods {lengths}")


def check_periodic_near_escaping(lam, rng, eta=1e-3):
    """A periodic point shadows a constructed escaping point within eta."""
    base = _low_norm_cycle(lam)
    head = [base[j % len(base)] for j in range(16)]
    itin = itinerary.Itinerary(prefix=[],
                               tail=_mixed_tail(head, _first_far_offset(lam) + 16))
    v = itinerary.point_from_itinerary(itin, lam, n_compose=30)
    res = itinerary.periodic_near_escaping(v, eta, lam)
    gap = float(np.linalg.norm(res.point - v))
    ok = gap < eta and res.residual < 1e-9
    return CheckResult("periodic-near-escaping", ok,
                       f"gap {gap:.2e} (eta {eta}), period {res.period}, "
                       f"residual {res.residual:.2e}")


def check_blowup(lam, rng):
    """A ball at a pole blows up onto sample targets in two steps."""
    targets = [np.array([0.0, 0.0, 0.0]), np.array([3.0, -2.0, 1.0]),
               np.array([0.0, 0.0, lam + 1.0])]
    rep = analysis.blowup_probe(plane.pole_location((0, 0)), 0.4, lam, targets,
                                max_iter=40, seed=int(rng.integers(2**31)))
    ok = rep.all_covered
    ms = [r.iterations for r in rep.results]
    return CheckResult("blowup-coverage", ok, f"steps per target: {ms}")


_CORE = [check_tangent_embedding, check_periodicity, check_reflection_equivariance,
         check_omitted_values, check_half_space_invariance,
         check_composed_consistency, check_axis_action]
_ANALYSIS = [check_axis_fixed_point, check_basin_classification,
             check_offaxis_monotonicity, check_third_component_bound,
             check_parabolic_bound, check_petal_membership,
             check_petal_boundary_fixed, check_petal_absorbed,
             check_lines_absorbed, check_diagonal_invariance, check_blowup]
_PLANE = [check_derivative_lower_bound, check_eigen_crosscheck,
          check_branch_roundtrip, check_branch_contraction,
          check_pole_expansion, check_calibration]
_ITINERARY = [check_itinerary_shadow, check_itinerary_cauchy,
              check_itinerary_roundtrip, check_periodic_cycles,
              check_periodic_near_escaping]

SUITES = {
    "core": _CORE,
    "plane": _PLANE,
    "analysis": _ANALYSIS,
    "itinerary": _ITINERARY,
    "all": _CORE + _PLANE + _ANALYSIS + _ITINERARY,
}


def _applies(check, lam):
    if check is check_axis_fixed_point:
        return lam > 1.0
    if check is check_parabolic_bound:
        return lam == 1.0
    if check in (check_petal_membership, check_petal_boundary_fixed):
        return 0.0 < lam < SQRT2
    if check is check_petal_absorbed:
        # every ray's factor is at least lam/sqrt(2); above 0.99 none is sampled
        return 0.0 < lam and lam / SQRT2 <= 0.99
    if check is check_lines_absorbed:
        return lam < 1.0
    if check is check_basin_classification:
        return lam > 1.0 or lam < 1.0
    return True


def run_suite(lam: float, suite: str = "all", seed: int = 0, fast: bool = False):
    """Run the named suite at parameter lam; returns a list of CheckResult.

    ``fast`` trims the sample counts for use in smoke tests.
    """
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    rng = np.random.default_rng(seed)
    results = []
    for check in SUITES[suite]:
        if _applies(check, lam):
            kw = _FAST_KW.get(check, {}) if fast else {}
            results.append(check(lam, rng, **kw))
    return results


_FAST_KW = {
    check_tangent_embedding: {"n": 500},
    check_periodicity: {"n": 500},
    check_reflection_equivariance: {"n": 500},
    check_omitted_values: {"n": 300},
    check_half_space_invariance: {"n": 500},
    check_composed_consistency: {"n": 500},
    check_axis_action: {"n": 300},
    check_basin_classification: {"n": 40},
    check_offaxis_monotonicity: {"n": 1000},
    check_third_component_bound: {"n": 1000},
    check_parabolic_bound: {"n": 1000},
    check_derivative_lower_bound: {"n": 800},
    check_eigen_crosscheck: {"n": 120},
    check_branch_roundtrip: {"n_targets": 50},
    check_branch_contraction: {"n_pairs": 200},
    check_pole_expansion: {"n_pairs": 200},
    check_petal_absorbed: {"n": 60},
    check_lines_absorbed: {"n": 50},
    check_itinerary_roundtrip: {"n_tails": 6},
    check_diagonal_invariance: {"n": 120},
}

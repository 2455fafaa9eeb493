"""Acceptance suite: the contract-level checks, one per criterion, each
printing a PASS/FAIL line (run with `pytest tests/test_acceptance.py -s`
to watch them stream).

Tolerances are fixed here, not tuned: where a stated figure is
unreachable in double precision or contradicts the mathematics, the
criterion still runs exactly as stated and is allowed to fail loudly
rather than be weakened (see the A5 singular-value clause).
"""

import math

import numpy as np

from qrtan.analysis import (
    Fate,
    axis_fixed_point,
    classify_orbit,
    parabolic_decrease_check,
    petal_boundary_residual,
    petal_contains,
    third_component_bound_violations,
    offaxis_monotonicity_violations,
)
from qrtan.core import INFINITY, chordal, is_infinity, tangent3, tangent3_grid
from qrtan.itinerary import (
    Itinerary,
    PeriodicCycleSpec,
    itinerary_of,
    periodic_near_escaping,
    periodic_point_from_cycle,
    point_from_itinerary,
    shadow_check,
)
from qrtan.plane import (
    PoleIndex,
    branch_contraction_ratio,
    calibrate_expansion,
    diagonal_segment_distance,
    distance_to_nonsmooth,
    inverse_branch,
    jacobian_plane_map,
    plane_map,
    pole_expansion_ratio,
    pole_location,
)
from qrtan.render import RenderConfig, compute_escape_depth, encode_ppm, render_basin

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4
SQRT2 = math.sqrt(2.0)

LOW_POLES = [(1, 1), (-1, -1), (2, 0), (0, -2), (0, 1), (-1, 0), (2, -1), (1, -2)]


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    return passed


def test_a01_tangent_embedding_oracle():
    rng = np.random.default_rng(101)
    n = 100_000
    a = rng.uniform(-10, 10, n)
    b = rng.uniform(-10, 10, n)
    w = np.tan(a + 1j * b)  # independent complex-arithmetic oracle
    worst = 0.0
    for v, q in (((a, np.zeros(n), b), (w.real, np.zeros(n), w.imag)),
                 ((np.zeros(n), a, b), (np.zeros(n), w.real, w.imag))):
        tx, ty, tz, finite = tangent3_grid(*v)
        assert bool(finite.all())
        num = np.sqrt((tx - q[0]) ** 2 + (ty - q[1]) ** 2 + (tz - q[2]) ** 2)
        den = np.sqrt((1 + tx ** 2 + ty ** 2 + tz ** 2)
                      * (1 + q[0] ** 2 + q[1] ** 2 + q[2] ** 2))
        worst = max(worst, float((2.0 * num / den).max()))
    assert report("A1 tangent-embedding", worst < 1e-10,
                  f"max chordal error {worst:.2e} over {n} samples (tol 1e-10)")


def test_a02_symmetry_and_periodicity():
    rng = np.random.default_rng(102)
    worst_p = 0.0
    worst_r = 0.0
    shifts = (np.array([math.pi, 0, 0]), np.array([0, math.pi, 0]))
    refl = (np.array([-1.0, 1, 1]), np.array([1, -1.0, 1]), np.array([1, 1, -1.0]))
    for v in rng.uniform(-10, 10, size=(10_000, 3)):
        base = tangent3(v)
        for s in shifts:
            worst_p = max(worst_p, chordal(base, tangent3(v + s)))
        for r in refl:
            mirrored = tangent3(r * v)
            if is_infinity(base):
                ok = is_infinity(mirrored)
                worst_r = max(worst_r, 0.0 if ok else 2.0)
            else:
                worst_r = max(worst_r, chordal(mirrored, r * base))
    ok = worst_p < 1e-10 and worst_r < 1e-10
    assert report("A2 symmetry/periodicity", ok,
                  f"periodicity {worst_p:.2e}, reflection {worst_r:.2e} (tol 1e-10)")


def test_a03_fixed_points_and_basins():
    xi = axis_fixed_point(2.0)
    eq_res = abs(xi - 2.0 * math.tanh(xi))
    p = np.array([0.0, 0.0, xi])
    map_res = float(np.linalg.norm(tangent3(p, 2.0) - p))
    rng = np.random.default_rng(103)
    missed_up = 0
    for _ in range(1000):
        v = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10),
                      rng.uniform(0.01, 5.0)])
        if classify_orbit(v, 2.0, max_iter=500).fate is not Fate.TO_UPPER_FIXED:
            missed_up += 1
    missed_origin = 0
    for _ in range(1000):
        z = rng.uniform(0.01, 5.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
        v = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10), z])
        if classify_orbit(v, 0.5, max_iter=500).fate is not Fate.TO_ORIGIN:
            missed_origin += 1
    ok = eq_res < 1e-12 and map_res < 1e-10 and missed_up == 0 and missed_origin == 0
    assert report("A3 fixed-points/basins", ok,
                  f"xi residuals {eq_res:.1e}/{map_res:.1e}; "
                  f"missed attractor {missed_up}/1000 up, {missed_origin}/1000 origin")


def test_a04_monotone_quantities():
    viol_rho = {lam: offaxis_monotonicity_violations(lam, n_samples=10_000,
                                                     seed=104 + i)
                for i, lam in enumerate((0.5, 1.0, 2.0))}
    viol_third = {lam: third_component_bound_violations(lam, n_samples=10_000,
                                                        seed=204 + i)
                  for i, lam in enumerate((1.0, 2.0))}
    parabolic = parabolic_decrease_check(eps=0.05, n_samples=10_000, seed=304)
    ok = all(v == 0 for v in viol_rho.values()) \
        and all(v == 0 for v in viol_third.values()) and parabolic
    assert report("A4 monotone-quantities", ok,
                  f"off-axis ratio violations {viol_rho}, third-component "
                  f"violations {viol_third}, cusp bound holds: {parabolic}")


def _sampled_min_singular_value(lam, n, seed):
    rng = np.random.default_rng(seed)
    worst = math.inf
    used = 0
    while used < n:
        p = rng.uniform(-6, 6, 2)
        if distance_to_nonsmooth(p) <= 1e-3:
            continue
        used += 1
        s = jacobian_plane_map(p, lam)
        worst = min(worst, s.min_singular_value)
    return worst


def test_a05_derivative_bounds():
    lam = 1.0
    sv = _sampled_min_singular_value(lam, 10_000, 105)
    sv_ok = sv >= lam / SQRT2 - 0.01

    rng = np.random.default_rng(205)
    ratios = {}
    for lam_c, bound in ((2.0, SQRT2 / 2.0 + 0.01), (1.0, SQRT2 + 0.01)):
        src = PoleIndex(0, 3)
        c = pole_location(src)
        pairs = []
        while len(pairs) < 1000:
            d1 = rng.uniform(-HALF_PI, HALF_PI, 2)
            d2 = rng.uniform(-HALF_PI, HALF_PI, 2)
            if abs(d1[0]) + abs(d1[1]) < HALF_PI and abs(d2[0]) + abs(d2[1]) < HALF_PI:
                pairs.append((c + d1, c + d2))
        ratios[lam_c] = (branch_contraction_ratio((0, 0), pairs, lam_c), bound)
    contraction_ok = all(r <= b for r, b in ratios.values())

    expansion = {}
    for lam_e in (0.5, 1.0, 2.0):
        cal = calibrate_expansion(lam_e)
        c = pole_location((0, 0))
        pairs = []
        while len(pairs) < 1000:
            d1 = rng.uniform(-cal.eps, cal.eps, 2)
            d2 = rng.uniform(-cal.eps, cal.eps, 2)
            if np.linalg.norm(d1) < cal.eps and np.linalg.norm(d2) < cal.eps:
                pairs.append((c + d1, c + d2))
        expansion[lam_e] = pole_expansion_ratio(pairs, lam_e)
    expansion_ok = all(r >= 2.0 - 0.01 for r in expansion.values())

    ok = sv_ok and contraction_ok and expansion_ok
    if sv_ok:
        sv_note = "PASS"
    else:
        sv_note = ("FAIL: the derivative matrix is non-normal on a cone about "
                   "the diagonals, where its least singular value drops to "
                   "~0.45*lam while both eigenvalues stay at lam/sqrt(2)")
    report("A5 derivative-bounds", ok,
           f"min singular value {sv:.4f} vs {lam / SQRT2 - 0.01:.4f} ({sv_note}); "
           f"contraction ratios {dict((k, round(v[0], 4)) for k, v in ratios.items())} "
           f"({'PASS' if contraction_ok else 'FAIL'}); "
           f"expansion ratios {dict((k, round(v, 3)) for k, v in expansion.items())} "
           f"({'PASS' if expansion_ok else 'FAIL'})")
    assert contraction_ok and expansion_ok
    assert sv_ok, ("sampled min singular value sits below lam/sqrt(2)-0.01; "
                   "the bound holds for the eigenvalues but not the singular "
                   "values of this non-normal derivative")


def test_a06_inverse_branches():
    rng = np.random.default_rng(106)
    poles = [(m, n) for m in (-1, 0, 1) for n in (-1, 0, 1)]
    worst = 0.0
    exact = True
    for lam in (1.0, 2.0):
        for q in poles:
            got = inverse_branch(q, INFINITY, lam)
            exact = exact and np.array_equal(got, pole_location(q))
            count = 0
            while count < 1000:
                w = rng.uniform(-20, 20, 2)
                if diagonal_segment_distance(w, lam) < 1e-6:
                    continue
                count += 1
                x = inverse_branch(q, w, lam)
                worst = max(worst, chordal([*plane_map(x, lam), 0.0], [*w, 0.0]))
    ok = worst < 1e-9 and exact
    assert report("A6 inverse-branches", ok,
                  f"max roundtrip residual {worst:.2e} over 9 poles x 1000 targets "
                  f"x lam in (1, 2); branch at infinity exact: {exact}")


def _random_tail_itinerary(rng, head_len=16):
    head = [LOW_POLES[int(rng.integers(len(LOW_POLES)))] for _ in range(head_len)]

    def tail(j):
        if j < head_len:
            return head[j]
        return (0, j - head_len + 19)

    return Itinerary(prefix=[], tail=tail)


def test_a07_itineraries():
    lam = 2.0
    itin = Itinerary(prefix=[], tail=lambda j: (0, j + 3))
    x, wps = point_from_itinerary(itin, lam, n_compose=26, return_waypoints=True)
    shadow_ok, worst_gap = shadow_check(wps, itin, lam, depth=20)

    pts = {n: point_from_itinerary(itin, lam, n_compose=n) for n in range(6, 26)}
    cauchy_ok = True
    worst_ratio = 0.0
    prev = None
    for n in range(6, 25):
        inc = float(np.linalg.norm(pts[n + 1] - pts[n]))
        if inc > 2.0 ** (1 - n) * math.pi:
            cauchy_ok = False
        if prev is not None and prev > 1e-14:
            worst_ratio = max(worst_ratio, inc / prev)
        prev = inc
    cauchy_ok = cauchy_ok and worst_ratio <= 0.6

    rng = np.random.default_rng(107)
    bad = 0
    for _ in range(100):
        it = _random_tail_itinerary(rng)
        v = point_from_itinerary(it, lam, n_compose=28)
        got, _ = itinerary_of(v, lam, 15)
        if got != it.symbols(15):
            bad += 1
    ok = shadow_ok and cauchy_ok and bad == 0
    assert report("A7 itineraries", ok,
                  f"20-symbol shadow check gap {worst_gap:.2e}; Cauchy ratio "
                  f"{worst_ratio:.3f} (<= 0.6); symbol roundtrip misses {bad}/100")


def test_a08_periodic_points():
    lam = 2.0
    worst = 0.0
    for k in (1, 3, 7):
        cyc = [LOW_POLES[j % len(LOW_POLES)] for j in range(k)]
        res = periodic_point_from_cycle(PeriodicCycleSpec(cycle=cyc), lam)
        worst = max(worst, res.residual)
    rng = np.random.default_rng(108)
    it = _random_tail_itinerary(rng)
    v = point_from_itinerary(it, lam, n_compose=30)
    near = periodic_near_escaping(v, 1e-3, lam)
    gap = float(np.linalg.norm(near.point - v))
    ok = worst < 1e-9 and gap < 1e-3 and near.residual < 1e-9
    assert report("A8 periodic-points", ok,
                  f"cycle residuals <= {worst:.2e} for periods 1/3/7; shadowing "
                  f"gap {gap:.2e} at eta 1e-3 (period {near.period}, residual "
                  f"{near.residual:.2e})")


def test_a09_petals_and_escape_density():
    worst_boundary, count = petal_boundary_residual(1.2, n_samples=100)
    boundary_ok = worst_boundary < 1e-9 and count > 0

    rng = np.random.default_rng(109)
    lam = 0.9
    q_bad = 0
    tried = 0
    while tried < 300:
        p = rng.uniform(-QUARTER_PI, QUARTER_PI, 2)
        if not petal_contains(p, lam) or not petal_contains(p * 1.05, lam):
            continue
        tried += 1
        rec = classify_orbit(np.array([p[0], p[1], 0.0]), lam, max_iter=2000)
        if rec.fate is not Fate.TO_ORIGIN:
            q_bad += 1
    l_bad = 0
    for _ in range(200):
        x = rng.uniform(-20, 20)
        k = int(rng.integers(-5, 6))
        s = 1.0 if rng.uniform() < 0.5 else -1.0
        rec = classify_orbit(np.array([x, s * x + k * math.pi, 0.0]), lam,
                             max_iter=2000)
        if rec.fate is not Fate.TO_ORIGIN:
            l_bad += 1

    depth = compute_escape_depth(RenderConfig(lam=2.0, width=512, height=512,
                                              max_iter=200, threads=2))
    frac = float((depth > 0).mean())
    ok = boundary_ok and q_bad == 0 and l_bad == 0 and frac > 0.99
    assert report("A9 petals/escape-density", ok,
                  f"boundary residual {worst_boundary:.2e} over {count} points; "
                  f"petal strays {q_bad}/300; line strays {l_bad}/200; "
                  f"finite-depth fraction {frac:.4f} (> 0.99)")


def test_a10_golden_images():
    outputs = {}
    for lam in (0.9, 1.1107):
        runs = []
        for threads in (1, 4, 1):
            cfg = RenderConfig(lam=lam, width=256, height=256, max_iter=500,
                               threads=threads)
            runs.append(encode_ppm(render_basin(cfg)))
        outputs[lam] = runs
    ok = all(len(set(runs)) == 1 for runs in outputs.values())
    sizes = {lam: len(runs[0]) for lam, runs in outputs.items()}
    assert report("A10 golden-images", ok,
                  f"basin renders byte-identical across runs and thread counts "
                  f"at 256x256 for lam 0.9 and 1.1107 (sizes {sizes})")

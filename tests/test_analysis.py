"""Tests for fixed points, basins, the petal region, fate classification and
the blow-up probe."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import scalar_reference as ref
from qrtan import analysis
from qrtan.analysis import (
    BlowupReport,
    Fate,
    TargetCoverage,
    _far_preimage,
    axis_fixed_point,
    blowup_probe,
    classify_orbit,
    offaxis_monotonicity_violations,
    parabolic_decrease_check,
    petal_boundary_residual,
    petal_contains,
    smallest_tan_fixed_point,
    third_component_bound_violations,
)
from qrtan.core import INFINITY, as_vec3, chordal, is_infinity, tangent3
from qrtan.itinerary import Itinerary, point_from_itinerary
from qrtan.plane import containing_diamond, pole_location, preimages_tangent3

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4


def bisect(f, lo, hi, n=200):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(n):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestAxisFixedPoint:
    def test_matches_bisection_oracle(self):
        want = bisect(lambda t: 2 * math.tanh(t) - t, 1.0, 3.0)
        got = axis_fixed_point(2.0)
        assert abs(got - want) < 1e-12
        assert abs(got - 1.9150080481545375) < 1e-12  # frozen oracle value

    def test_equation_residual(self):
        for lam in (1.2, 2.0, 5.0, 1.0001):
            xi = axis_fixed_point(lam)
            assert abs(xi - lam * math.tanh(xi)) < 1e-12

    def test_bifurcation_continuity(self):
        assert 0 < axis_fixed_point(1.0001) < 0.02

    def test_is_a_map_fixed_point(self):
        xi = axis_fixed_point(2.0)
        p = np.array([0.0, 0.0, xi])
        assert np.linalg.norm(tangent3(p, 2.0) - p) < 1e-10

    @pytest.mark.parametrize("lam", [1.0, 0.7, -2.0])
    def test_rejects_lam_at_most_one(self, lam):
        with pytest.raises(ValueError):
            axis_fixed_point(lam)


class TestSmallestTanFixedPoint:
    def test_matches_bisection_oracle(self):
        want = bisect(lambda t: 0.5 * math.tan(t) - t, 0.1, math.pi / 2 - 0.01)
        got = smallest_tan_fixed_point(0.5)
        assert abs(got - want) < 1e-11
        assert abs(got - 1.1655611852072114) < 1e-11  # frozen oracle value

    def test_decreasing_in_mu(self):
        assert smallest_tan_fixed_point(0.3) > smallest_tan_fixed_point(0.5) \
            > smallest_tan_fixed_point(0.8)

    def test_residual_and_range(self):
        for mu in (0.05, 0.3, 0.62, 0.9, 0.99):
            phi = smallest_tan_fixed_point(mu)
            assert 0 < phi < math.pi / 2
            assert abs(mu * math.tan(phi) - phi) < 1e-12

    def test_quarter_pi_special_value(self):
        # mu = pi/4 has its smallest fixed point exactly at pi/4
        assert abs(smallest_tan_fixed_point(QUARTER_PI) - QUARTER_PI) < 1e-12

    @pytest.mark.parametrize("mu", [0.0, 1.0, 1.5, -0.2])
    def test_domain(self, mu):
        with pytest.raises(ValueError):
            smallest_tan_fixed_point(mu)


class TestOffaxisRatio:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_decreases_along_orbits(self, lam):
        assert offaxis_monotonicity_violations(lam, n_samples=10_000, seed=1) == 0


class TestPetalRegion:
    def test_diagonal_point_inside(self):
        # slope 1 sector bound at lam=1.2: smallest fixed point of
        # (1.2/sqrt2)*tan, about 0.665
        mu = 1.2 / math.sqrt(2)
        bound = bisect(lambda t: mu * math.tan(t) - t, 0.1, math.pi / 2 - 0.01)
        assert 0.6 < bound < 0.7
        assert petal_contains((0.1, 0.1), 1.2)
        assert petal_contains((bound * 0.99, bound * 0.99), 1.2) or bound > QUARTER_PI

    def test_axis_point_outside_for_large_lam(self):
        assert not petal_contains((QUARTER_PI, 0.0), 1.2)

    def test_small_lam_gives_full_square(self):
        rng = np.random.default_rng(4)
        lam = 0.7  # below pi/4
        for _ in range(500):
            p = rng.uniform(-QUARTER_PI, QUARTER_PI, 2) * 0.9999
            assert petal_contains(p, lam)
        assert not petal_contains((QUARTER_PI, QUARTER_PI), lam)

    def test_origin_inside(self):
        assert petal_contains((0.0, 0.0), 1.3)

    def test_domain(self):
        with pytest.raises(ValueError):
            petal_contains((0.1, 0.1), 1.5)  # above sqrt(2)

    def test_forward_invariance_and_capture(self):
        rng = np.random.default_rng(8)
        lam = 1.2
        count = 0
        while count < 200:
            p = rng.uniform(-QUARTER_PI, QUARTER_PI, 2)
            if not petal_contains(p, lam) or not petal_contains(p * 1.02, lam):
                continue
            count += 1
            img = tangent3(np.array([p[0], p[1], 0.0]), lam)
            assert petal_contains(img[:2], lam)
            rec = classify_orbit(np.array([p[0], p[1], 0.0]), lam, max_iter=3000)
            assert rec.fate is Fate.TO_ORIGIN


class TestPetalClosedForm:
    """The closed form against the sector fans it replaced, and the facts
    that make it the petal (README, "The petal region")."""

    def test_agrees_with_sector_fans(self, monkeypatch):
        # the reference bisects once per slope^2; points along one ray repeat it
        monkeypatch.setattr(ref, "petal_x_bound",
                            functools.lru_cache(maxsize=1024)(ref.petal_x_bound))
        rng = np.random.default_rng(22)
        total = 0
        wrong = []
        for lam in np.linspace(0.3, 1.414, 11):
            pts = rng.uniform(-0.85, 0.85, (300, 2)).tolist()
            for a in rng.uniform(-1.0, 1.0, 220):
                mu = lam / math.sqrt(1.0 + a * a)
                ts = rng.uniform(0.0, 0.85, 40).tolist()
                for edge in ([QUARTER_PI] + ([smallest_tan_fixed_point(mu)]
                                             if mu < 1.0 else [])):
                    ts += [edge * (1.0 - 1e-9), edge * (1.0 + 1e-9)]
                for t in ts:
                    for x in (t, -t):
                        pts += [(x, a * x), (a * x, x)]
            wrong += [(p, lam) for p in pts
                      if petal_contains(p, lam) != ref.petal_contains(p, lam)]
            total += len(pts)
        assert total >= 400_000
        assert wrong == []

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 1.414), st.floats(-QUARTER_PI, QUARTER_PI),
           st.floats(-QUARTER_PI, QUARTER_PI))
    def test_rays_invariant(self, lam, x, y):
        # on the central square F(q) = lam*q*tan(m)/|q|
        m, r = max(abs(x), abs(y)), math.hypot(x, y)
        assume(1e-8 < m < QUARTER_PI)
        fx, fy, fz = tangent3(np.array([x, y, 0.0]), lam)
        assert fz == 0.0
        assert abs(x * fy - y * fx) <= 1e-13 * r * math.hypot(fx, fy)
        assert x * fx + y * fy > 0.0
        assert math.hypot(fx, fy) == pytest.approx(lam * math.tan(m), rel=1e-13)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 1.414), st.floats(-QUARTER_PI, QUARTER_PI),
           st.floats(-QUARTER_PI, QUARTER_PI))
    def test_petal_traps(self, lam, x, y):
        # F(Q) in Q with |F(q)| < |q|; kept off the boundary, where F(q) = q
        m, r = max(abs(x), abs(y)), math.hypot(x, y)
        assume(m > 1e-8 and petal_contains((x, y), lam))
        assume(lam * math.tan(m) < (1.0 - 1e-9) * r)
        fx, fy, _ = tangent3(np.array([x, y, 0.0]), lam)
        assert math.hypot(fx, fy) < r
        assert petal_contains((fx, fy), lam)


class TestPetalBoundary:
    def test_boundary_points_fixed(self):
        worst, count = petal_boundary_residual(1.2, n_samples=100)
        assert count > 0
        assert worst < 1e-9

    def test_slope_one_boundary_point_fixed(self):
        lam = 1.2
        mu = lam / math.sqrt(2)
        phi = smallest_tan_fixed_point(mu)
        p = np.array([phi, phi, 0.0])
        assert np.linalg.norm(tangent3(p, lam) - p) < 1e-12

    def test_vacuous_below_quarter_pi(self):
        worst, count = petal_boundary_residual(0.7, n_samples=50)
        assert count == 0 and worst == 0.0


class TestClassifyOrbit:
    def test_upper_fixed_point(self):
        rec = classify_orbit(np.array([0.3, -0.4, 1.0]), 2.0, max_iter=200)
        assert rec.fate is Fate.TO_UPPER_FIXED
        assert rec.iterations <= 200
        assert np.linalg.norm(rec.witness - [0, 0, 1.9150080481545375]) < 1e-5

    def test_lower_fixed_point_by_symmetry(self):
        rec = classify_orbit(np.array([0.3, -0.4, -1.0]), 2.0, max_iter=200)
        assert rec.fate is Fate.TO_LOWER_FIXED

    def test_origin_capture_small_lam(self):
        rec = classify_orbit(np.array([0.3, 0.2, 0.7]), 0.5, max_iter=200)
        assert rec.fate is Fate.TO_ORIGIN

    def test_pole_hit(self):
        rec = classify_orbit(np.array([0.0, math.pi / 2, 0.0]), 1.0, max_iter=10)
        assert rec.fate is Fate.POLE_HIT
        assert is_infinity(rec.witness)
        assert rec.iterations == 1

    def test_escaping_constructed_point(self, fate_rule):
        # a point built to run through diamonds of growing norm; thresholds
        # chosen inside the horizon where forward iteration is trustworthy
        lam = 2.0
        itin = Itinerary(prefix=[], tail=lambda j: (0, j + 3))
        v = point_from_itinerary(itin, lam, n_compose=28)
        fate_rule(ESCAPE_RUN=5, ESCAPE_NORM=18.0)
        rec = classify_orbit(np.array([v[0], v[1], 0.0]), lam, max_iter=50)
        assert rec.fate is Fate.ESCAPING

    @pytest.mark.parametrize("scale", [1, 2 ** 40 + 1])
    @pytest.mark.parametrize("first,second", [((2, 11), (5, 10)), ((8, 11), (4, 13))])
    def test_equal_centre_norms_are_no_growth(self, first, second, scale):
        # a step between distinct diamond centres (i, j) pi/2 of equal norm
        # (i^2 + j^2 is 125, then 185, times scale^2) is no growth, at any
        # size; at scale 1, math.sqrt of the float norms splits the second
        def near(i, j):
            i, j = scale * i, scale * j
            p = (i * HALF_PI + 0.1, j * HALF_PI + 0.2)
            q = containing_diamond(p)
            assert (q.n + q.m, q.n - q.m + 1) == (i, j)
            return p

        assert not analysis._centre_norms_grow([near(*first), near(*second)])
        larger = (second[0] + 1, second[1] + 1)
        assert analysis._centre_norms_grow([near(*first), near(*larger)])

    def test_step_off_the_diamonds_is_no_growth(self):
        # (pi, 0) lies on a diamond edge, in no open diamond, so a run
        # through it does not grow; the centres after it alone do
        growing = [(10.3, 0.2), (20.3, 0.2), (40.3, 0.2), (80.3, 0.2)]
        assert containing_diamond((math.pi, 0.0)) is None
        assert not analysis._centre_norms_grow([(math.pi, 0.0), *growing])
        assert analysis._centre_norms_grow(growing)

    def test_undecided_is_honest(self):
        # a petal-boundary fixed point never converges to a target nor escapes
        lam = 1.2
        phi = smallest_tan_fixed_point(lam / math.sqrt(2))
        rec = classify_orbit(np.array([phi, phi, 0.0]), lam, max_iter=50)
        assert rec.fate is Fate.UNDECIDED

    def test_domain(self):
        with pytest.raises(ValueError):
            classify_orbit(np.array([0.1, 0.1, 0.1]), 1.0, max_iter=0)

    @pytest.mark.parametrize("knob", ["tol", "escape_run", "escape_norm"])
    def test_fate_rules_are_not_options(self, knob):
        with pytest.raises(TypeError, match=knob):
            classify_orbit(np.array([0.1, 0.2, 0.0]), 1.0, max_iter=10, **{knob: 1})

    def test_reads_capture_tolerance_when_called(self, fate_rule):
        v = np.array([0.3, 0.2, 0.0])
        assert classify_orbit(v, 0.5, max_iter=200).fate is Fate.TO_ORIGIN
        fate_rule(CAPTURE_TOL=0.0)  # no distance is below 0: nothing settles
        assert classify_orbit(v, 0.5, max_iter=200).fate is Fate.UNDECIDED

    @pytest.mark.parametrize("blocking", [dict(ESCAPE_NORM=math.inf), dict(ESCAPE_RUN=100)])
    def test_reads_escape_rule_when_called(self, fate_rule, blocking):
        # the escaping point above, with a rule it meets, then with one it
        # cannot meet in 50 steps
        lam = 2.0
        v = point_from_itinerary(Itinerary(prefix=[], tail=lambda j: (0, j + 3)), lam,
                                 n_compose=28)
        start = np.array([v[0], v[1], 0.0])
        fate_rule(ESCAPE_RUN=5, ESCAPE_NORM=18.0)
        assert classify_orbit(start, lam, max_iter=50).fate is Fate.ESCAPING
        fate_rule(**blocking)
        assert classify_orbit(start, lam, max_iter=50).fate is Fate.UNDECIDED

    def test_axis_fixed_point_solved_once_per_lam(self, monkeypatch):
        solves = []
        bisect = analysis._bisect

        def counting(*args):
            solves.append(args)
            return bisect(*args)

        monkeypatch.setattr(analysis, "_bisect", counting)
        analysis.axis_fixed_point.cache_clear()
        lam = 1.2345
        for v in ([0.3, -0.4, 1.0], [0.1, 0.2, -0.5], [2.0, 1.0, 0.3]):
            classify_orbit(np.array(v), lam, max_iter=20)
        assert len(solves) == 1


class TestInequalities:
    def test_parabolic_region_decrease(self):
        assert parabolic_decrease_check(eps=0.05, n_samples=10_000, seed=2)

    def test_axis_series_bound(self):
        # on the axis the third component is tanh(z) <= z - z^3/24 for small z
        for z in np.linspace(1e-3, 0.1, 50):
            img = tangent3(np.array([0.0, 0.0, z]), 1.0)
            assert img[2] <= z - z ** 3 / 24.0

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_third_component_floor(self, lam):
        assert third_component_bound_violations(lam, n_samples=10_000, seed=3) == 0

    def test_axis_equality(self):
        for lam in (1.0, 2.0):
            for z in np.linspace(0.1, 4.0, 20):
                img = tangent3(np.array([0.0, 0.0, z]), lam)
                assert abs(img[2] - lam * math.tanh(z)) < 1e-12

    def test_diagonal_one_dimensional_reduction(self):
        # T(x, a x, 0) = (t, a t, 0) with t = mu tan(x), mu = lam/sqrt(1 + a^2)
        for lam in (0.9, 1.2, 2.0):
            rng = np.random.default_rng(5)
            for _ in range(300):
                a = rng.uniform(-1.0, 1.0)
                x = rng.uniform(-QUARTER_PI, QUARTER_PI)
                t = lam / math.sqrt(1.0 + a * a) * math.tan(x)
                img = tangent3(np.array([x, a * x, 0.0]), lam)
                assert np.linalg.norm(img - np.array([t, a * t, 0.0])) < 1e-12


class TestBasinSweep:
    def test_upper_half_space_absorbed_large_lam(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            v = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10),
                          rng.uniform(0.01, 5)])
            rec = classify_orbit(v, 2.0, max_iter=500)
            assert rec.fate is Fate.TO_UPPER_FIXED

    def test_everything_off_plane_to_origin_small_lam(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10),
                          rng.uniform(0.01, 5) * (1 if rng.uniform() < 0.5 else -1)])
            if abs(v[2]) < 0.01:
                continue
            rec = classify_orbit(v, 0.5, max_iter=500)
            assert rec.fate is Fate.TO_ORIGIN

    def test_local_contraction_rate_near_attractors(self):
        # fitted contraction factor, reported by the fit being below one
        rng = np.random.default_rng(9)
        xi = axis_fixed_point(2.0)
        target = np.array([0.0, 0.0, xi])
        worst = 0.0
        for _ in range(1000):
            d = rng.normal(size=3)
            d *= rng.uniform(0, 0.05) / np.linalg.norm(d)
            y = target + d
            num = np.linalg.norm(tangent3(y, 2.0) - target)
            worst = max(worst, num / np.linalg.norm(d))
        assert worst < 1.0
        # same at the origin for lam = 0.5
        worst = 0.0
        for _ in range(1000):
            d = rng.normal(size=3)
            d *= rng.uniform(0, 0.05) / np.linalg.norm(d)
            num = np.linalg.norm(tangent3(d, 0.5))
            worst = max(worst, num / np.linalg.norm(d))
        assert worst < 1.0

    def test_diagonal_grid_absorbed_below_one(self):
        rng = np.random.default_rng(10)
        lam = 0.9
        for _ in range(100):
            x = rng.uniform(-20, 20)
            k = int(rng.integers(-5, 6))
            s = 1.0 if rng.uniform() < 0.5 else -1.0
            rec = classify_orbit(np.array([x, s * x + k * math.pi, 0.0]), lam,
                                 max_iter=2000)
            assert rec.fate is Fate.TO_ORIGIN


class TestBlowupProbe:
    def test_ball_at_pole_covers_targets(self):
        targets = [np.array([0.0, 0.0, 0.0]), np.array([5.0, 5.0, 0.0]),
                   np.array([1.0, -2.0, 0.5]), INFINITY]
        rep = blowup_probe(pole_location((0, 0)), 0.4, 2.0, targets,
                           max_iter=40, seed=0)
        assert rep.all_covered
        for r in rep.results:
            assert r.iterations is not None and r.iterations <= 40
            assert r.distance < 0.05

    def test_omitted_value_rejected(self):
        lam = 2.0
        rep = blowup_probe(pole_location((0, 0)), 0.4, lam,
                           [np.array([0.0, 0.0, lam])], seed=0)
        res = rep.results[0]
        assert not res.covered and "omitted" in res.note

    def test_quiet_center_reports_timeout(self):
        # a tiny ball deep inside the origin's basin cannot blow up
        rep = blowup_probe(np.array([0.05, 0.05]), 0.01, 0.9,
                           [np.array([5.0, 5.0, 0.0])], max_iter=25, seed=0)
        res = rep.results[0]
        assert not res.covered
        assert "not reached" in res.note

    def test_domain(self):
        with pytest.raises(ValueError):
            blowup_probe(np.array([0.0, 0.0]), 0.0, 1.0, [])

    @pytest.mark.parametrize("center,radius,lam,targets", [
        # every target gets the two-step pole witness
        ((0.0, HALF_PI), 0.4, 2.0, [np.array([0.0, 0.0, 0.0]), np.array([5.0, 5.0, 0.0]),
                                    np.array([1.0, -2.0, 0.5]), INFINITY]),
        ((0.0, HALF_PI), 0.4, 0.9, [np.array([3.0, -2.0, 1.0]), np.array([0.0, 0.0, 1.9])]),
        # no pole in the ball: forward samples reach the upper axis fixed
        # point at step 2 and a target just above it at step 3
        ((0.5, 1.0), 0.3, 2.0, [np.array([0.0, 0.0, 1.915008]),
                                np.array([0.0, 0.0, 2.025008])]),
        # one target reached by forward sampling, one never
        ((0.5, 1.0), 0.3, 2.0, [np.array([0.0, 0.0, 1.915008]), np.array([5.0, 5.0, 0.0])]),
        # not reached at the horizon
        ((0.05, 0.05), 0.01, 0.9, [np.array([5.0, 5.0, 0.0])]),
        # every target rejected, and a rejected one beside a covered one
        ((0.0, HALF_PI), 0.4, 2.0, [np.array([0.0, 0.0, 2.0]), np.array([0.0, 0.0, -2.0])]),
        ((0.0, HALF_PI), 0.4, 2.0, [np.array([0.0, 0.0, 2.0]), np.array([1.0, 1.0, 0.0])]),
    ])
    def test_report_matches_full_forward_loop(self, center, radius, lam, targets):
        kw = dict(max_iter=30, n_samples=120, seed=3)
        got = blowup_probe(np.array(center), radius, lam, targets, **kw)
        want = _reference_blowup_probe(np.array(center), radius, lam, targets, **kw)
        assert np.array_equal(got.center, want.center)
        assert (got.radius, got.lam) == (want.radius, want.lam)
        assert len(got.results) == len(want.results) == len(targets)
        for g, w in zip(got.results, want.results):
            assert is_infinity(g.target) == is_infinity(w.target)
            if not is_infinity(w.target):
                assert np.array_equal(g.target, w.target)
            assert (g.covered, g.iterations, g.distance, g.note) == \
                (w.covered, w.iterations, w.distance, w.note)
            assert (g.witness is None) == (w.witness is None)
            if w.witness is not None:
                assert np.array_equal(g.witness, w.witness)


def _reference_blowup_probe(center, radius, lam, targets, max_iter=60, n_samples=400,
                            hit_tol=0.05, seed=0):
    """blowup_probe as it was before forward sampling stopped early: every
    start is iterated to ``max_iter`` (or until all hit poles)."""
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
    alive = [np.array(s) for s in starts]
    for step in range(1, max_iter + 1):
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

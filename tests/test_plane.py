"""Tests for the plane map: pole lattice, derivative sampling, inverse
branches and the expansion calibration."""

import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qrtan import core, itinerary, plane
from qrtan.core import (
    INFINITY,
    QUARTER_PI,
    _beam_formula,
    _checked_vec3,
    as_vec3,
    chordal,
    fold_axis,
    is_infinity,
    tangent3,
    vec_norm,
)
from qrtan.itinerary import (
    ContractionFailure,
    Itinerary,
    PeriodicCycleSpec,
    PeriodicPoint,
    _newton_polish,
    _solve_cycle,
    periodic_near_escaping,
    periodic_point_from_cycle,
    point_from_itinerary,
)
from qrtan.plane import (
    BranchDomainError,
    BranchResidualError,
    JacobianSample,
    PoleIndex,
    branch_contraction_ratio,
    calibrate_expansion,
    containing_diamond,
    diagonal_segment_distance,
    distance_to_nonsmooth,
    inverse_branch,
    jacobian_plane_map,
    plane_map,
    pole_expansion_ratio,
    pole_location,
    preimages_tangent3,
    required_tail_radius,
    singular_values_2x2,
)

HALF_PI = math.pi / 2
SQRT2 = math.sqrt(2)


def diamond_samples(rng, idx, n):
    c = pole_location(idx)
    out = []
    while len(out) < n:
        d = rng.uniform(-HALF_PI, HALF_PI, 2)
        if abs(d[0]) + abs(d[1]) < HALF_PI:
            out.append(c + d)
    return out


class TestPoleLattice:
    @pytest.mark.parametrize("idx,loc", [
        ((0, 0), (0.0, HALF_PI)),
        ((1, 0), (HALF_PI, 0.0)),
        ((0, 1), (HALF_PI, math.pi)),
    ])
    def test_locations(self, idx, loc):
        np.testing.assert_allclose(pole_location(idx), loc)

    def test_poles_map_to_infinity(self):
        for m in range(-3, 4):
            for n in range(-3, 4):
                assert is_infinity(plane_map(pole_location((m, n)), 1.7))

    def test_containing_diamond_examples(self):
        assert containing_diamond((0.1, 1.5)) == PoleIndex(0, 0)
        assert containing_diamond((1.0, 1.0)) is None  # diagonal grid point

    def test_center_containment_roundtrip(self):
        for m in range(-20, 21, 4):
            for n in range(-20, 21, 4):
                assert containing_diamond(pole_location((m, n))) == PoleIndex(m, n)


class TestPlaneMap:
    def test_agrees_with_real_tangent(self):
        got = plane_map((math.pi / 8, 0.0))
        assert abs(got[0] - math.tan(math.pi / 8)) < 1e-14 and got[1] == 0.0

    def test_pole_value(self):
        assert is_infinity(plane_map((0.0, HALF_PI)))

    def test_diagonal_stays_diagonal_and_bounded(self):
        rng = np.random.default_rng(2)
        lam = 2.0
        for x in rng.uniform(-30, 30, 500):
            for s in (1.0, -1.0):
                img = plane_map((x, s * x), lam)
                assert not is_infinity(img)
                assert abs(abs(img[0]) - abs(img[1])) < 1e-10
                assert abs(img[0]) <= lam / SQRT2 + 1e-12


class TestJacobian:
    def test_closed_form_eigenvalues_at_sample(self):
        # sector closed form is the oracle for the Jacobian's eigenvalues
        s = jacobian_plane_map((0.5, 0.2), 1.0)
        r = math.hypot(0.5, 0.2)
        want = sorted([math.tan(0.5) / r, 0.5 * (1 + math.tan(0.5) ** 2) / r])
        assert s.eigenvalues is not None
        np.testing.assert_allclose(sorted(s.eigenvalues), want, rtol=1e-8)
        np.testing.assert_allclose(want, [1.0145, 1.2056], rtol=2e-4)

    def test_fd_matches_closed_form_across_sector(self):
        # where p folds into the sector 0 < |fy| < |fx| < pi/4, DF without the
        # fold's reflections has eigenvalues (g(a)/r, a g'(a)/r), a = |fx|,
        # r = |(fx, fy)|, g = tan on even tiles and cot on odd ones
        rng = np.random.default_rng(3)
        used = 0
        while used < 300:
            p = rng.uniform(-6, 6, 2)
            (fx, px), (fy, py) = fold_axis(p[0], QUARTER_PI), fold_axis(p[1], QUARTER_PI)
            a, b = abs(fx), abs(fy)
            if not 0.0 < b < a < QUARTER_PI or distance_to_nonsmooth(p) < 1e-3:
                continue
            used += 1
            r = math.hypot(a, b)
            if (px + py) % 2:
                closed = [1.0 / math.tan(a) / r, -a / (math.sin(a) ** 2 * r)]
            else:
                closed = [math.tan(a) / r, a / (math.cos(a) ** 2 * r)]
            j = jacobian_plane_map(p, 1.0).matrix * [(-1.0) ** px, (-1.0) ** py]
            lo, hi, real = plane._real_eigenvalues(*j.ravel().tolist(), math.sqrt, max)
            assert real
            np.testing.assert_allclose([lo, hi], sorted(closed), rtol=1e-8)

    def test_eigenvalue_floor(self):
        # |eigenvalues| >= lam/sqrt(2) wherever the derivative exists
        rng = np.random.default_rng(5)
        lam = 1.0
        used = 0
        floor = math.inf
        while used < 2000:
            p = rng.uniform(-6, 6, 2)
            if distance_to_nonsmooth(p) < 1e-3:
                continue
            used += 1
            s = jacobian_plane_map(p, lam)
            if s.eigenvalues is not None:
                floor = min(floor, min(abs(e) for e in s.eigenvalues))
        assert floor >= lam / SQRT2 - 0.01

    def test_singular_values_ordered(self):
        s = jacobian_plane_map((0.4, 0.1), 2.0)
        assert 0 <= s.min_singular_value <= s.max_singular_value

    def test_rejects_nonsmooth_neighborhood(self):
        with pytest.raises(ValueError):
            jacobian_plane_map((0.3, 0.3), 1.0)  # on a tile diagonal


class TestInverseBranch:
    def test_infinity_maps_to_pole_exactly(self):
        for idx in [(0, 0), (2, -1), (-3, 4)]:
            got = inverse_branch(idx, INFINITY, 1.0)
            assert np.array_equal(got, pole_location(idx))

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_roundtrip_random_targets(self, lam):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(300):
            q = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
            w = rng.uniform(-15, 15, 2)
            if diagonal_segment_distance(w, lam) < 1e-6:
                continue
            x = inverse_branch(q, w, lam)
            c = pole_location(q)
            assert abs(x[0] - c[0]) + abs(x[1] - c[1]) <= HALF_PI + 1e-9
            worst = max(worst, chordal([*plane_map(x, lam), 0.0], [*w, 0.0]))
        assert worst < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(-4, 4), n=st.integers(-4, 4), wx=st.floats(-50.0, 50.0),
           wy=st.floats(-50.0, 50.0), lam=st.floats(0.3, 4.0))
    def test_branch_is_right_inverse(self, m, n, wx, wy, lam):
        w = np.array([wx, wy])
        assume(diagonal_segment_distance(w, lam) > 1e-6)
        x = inverse_branch((m, n), w, lam)
        c = pole_location((m, n))
        assert abs(x[0] - c[0]) + abs(x[1] - c[1]) <= HALF_PI + 1e-9
        assert chordal([*plane_map(x, lam), 0.0], [*w, 0.0]) < 1e-9

    def test_identity_on_diamond(self):
        rng = np.random.default_rng(11)
        lam = 1.0
        q = PoleIndex(1, 1)
        worst = 0.0
        for p in diamond_samples(rng, q, 500):
            w = plane_map(p, lam)
            if is_infinity(w):
                continue
            back = inverse_branch(q, w, lam)
            worst = max(worst, float(np.linalg.norm(back - p)))
        assert worst < 1e-9

    def test_distinct_branches_distinct_diamonds(self):
        lam = 1.0
        w = np.array([5.3, 2.1])
        a = inverse_branch((0, 0), w, lam)
        b = inverse_branch((1, 2), w, lam)
        assert containing_diamond(a) == PoleIndex(0, 0)
        assert containing_diamond(b) == PoleIndex(1, 2)

    def test_far_diamond_lands_near_pole(self):
        # images of a far diamond concentrate beside the target pole
        lam = 1.0
        cal = calibrate_expansion(lam)
        rng = np.random.default_rng(13)
        q = PoleIndex(0, 0)
        far = PoleIndex(0, 9)   # norm ~ 15, beyond the branch radius
        assert np.linalg.norm(pole_location(far)) > cal.branch_radius
        c = pole_location(q)
        for w in diamond_samples(rng, far, 200):
            x = inverse_branch(q, w, lam)
            assert np.linalg.norm(x - c) < cal.eps

    def test_rejects_removed_segment(self):
        with pytest.raises(BranchDomainError):
            inverse_branch((0, 0), np.array([0.3, 0.3]), 1.0)


class TestBatchedBranchEngine:
    """``plane._inverse_branch_grid`` returns the points of ``inverse_branch``
    bit for bit and raises the same error classes."""

    @staticmethod
    def _targets(rng, lam, n):
        """n targets into diamonds |m|, |n| <= 3: generic, near-tie (|w| from
        1e13 to 1e40, where the pole often wins, and |w| = lam(1 +- 3e-12) and
        lam(1 +- 1e-13), the latter read in both hemisphere charts), tiny and
        huge ones."""
        poles = rng.integers(-3, 4, (n, 2))
        kind = np.arange(n) % 5
        r = np.select(
            [kind == 0, kind == 1, kind == 2, kind == 3],
            [rng.uniform(0.0, 30.0, n), 10.0 ** rng.uniform(13.0, 40.0, n),
             lam * (1.0 + rng.choice([-3e-12, 3e-12, -1e-13, 1e-13], n)),
             10.0 ** rng.uniform(-300.0, 2.0, n)],
            10.0 ** rng.uniform(40.0, 308.0, n))
        ang = rng.uniform(0.0, 2.0 * math.pi, n)
        return [tuple(q) for q in poles.tolist()], r * np.cos(ang), r * np.sin(ang)

    @staticmethod
    def _grid(poles, wx, wy, lam):
        loc = np.array([pole_location(q) for q in poles]).reshape(-1, 2)
        return plane._inverse_branch_grid(loc[:, 0], loc[:, 1], wx, wy, lam)

    @pytest.mark.parametrize("lam", [0.5, 0.9, 1.0, 1.3, 2.0, 3.0])
    def test_points_match_scalar_engine(self, lam):
        poles, wx, wy = self._targets(np.random.default_rng(int(lam * 100)), lam, 1000)
        x, y = self._grid(poles, wx, wy, lam)
        pole_wins = 0
        for q, w, got in zip(poles, zip(wx.tolist(), wy.tolist()), zip(x.tolist(), y.tolist())):
            want = inverse_branch(q, w, lam)
            assert struct.pack("2d", *got) == want.tobytes()
            pole_wins += want.tobytes() == pole_location(q).tobytes()
        assert pole_wins > 100

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_same_error_classes(self, lam):
        half = lam / SQRT2
        good = [(3.0, -1.0), (0.2, 5.0)]
        bad = [(half, half), (-half, half), (0.3 * half, -0.3 * half), (0.0, 0.0),
               (math.inf, 0.0), (math.nan, 1.0), (1.7e308, 1.0)]
        for w in bad:
            try:
                inverse_branch((1, -2), w, lam)
            except (BranchDomainError, ValueError) as e:
                want = type(e)
            else:
                assert lam > 1.0 and w == (1.7e308, 1.0)  # w / lam is finite
                continue
            wx, wy = np.array([*good, w, *good]).T
            with pytest.raises(want) as caught:
                self._grid([(1, -2)] * len(wx), wx, wy, lam)
            assert type(caught.value) is want

    def test_residual_error_names_target_lam_and_residual(self, monkeypatch):
        def shifted(x, y, z, lam):
            tx, ty, tz, finite = core.tangent3_grid(x, y, z, lam)
            return tx + 1e-3, ty, tz, finite

        monkeypatch.setattr(plane, "tangent3_grid", shifted)
        with pytest.raises(BranchResidualError, match=r"\(3\.0, 1\.0\).*lam=1\.3.*residual"):
            self._grid([(0, 1)] * 2, np.array([3.0, 2.5]), np.array([1.0, -1.0]), 1.3)

    def test_empty_batch(self):
        x, y = self._grid([], np.array([]), np.array([]), 1.0)
        assert x.shape == y.shape == (0,)

    def test_segment_distance_grid_matches_scalar_up_to_rounding(self):
        rng = np.random.default_rng(29)
        for lam in (0.5, 1.0, 3.0):
            pts = rng.normal(size=(500, 2)) * 10.0 ** rng.uniform(-4.0, 2.0, (500, 1))
            pts[::3, 1] = pts[::3, 0]
            got = plane._diagonal_segment_distance_grid(pts[:, 0], pts[:, 1], lam)
            want = [diagonal_segment_distance(p, lam) for p in pts]
            np.testing.assert_allclose(got, want, rtol=4e-16, atol=0.0)


class TestPreimages:
    def test_pole_lattice_from_infinity(self):
        got = preimages_tangent3(INFINITY, 1.0, (-4, 4, -4, 4))
        locs = sorted((round(p[0], 6), round(p[1], 6)) for p in got)
        want = []
        for m in range(-4, 5):
            for n in range(-4, 5):
                c = pole_location((m, n))
                if -4 <= c[0] <= 4 and -4 <= c[1] <= 4:
                    want.append((round(c[0], 6), round(c[1], 6)))
        assert locs == sorted(want)
        assert all(p[2] == 0 for p in got)

    def test_omitted_values_have_no_preimage(self):
        lam = 1.5
        assert preimages_tangent3([0, 0, lam], lam, (-10, 10, -10, 10)) == []
        assert preimages_tangent3([0, 0, -lam], lam, (-10, 10, -10, 10)) == []

    def test_generic_target_verified(self):
        lam = 2.0
        target = np.array([3.0, -2.0, 1.0])
        got = preimages_tangent3(target, lam, (-7, 7, -7, 7))
        assert got
        for p in got:
            assert chordal(tangent3(p, lam), target) < 1e-9


class TestContractionExpansion:
    @pytest.mark.parametrize("lam,bound", [(2.0, 0.7171), (1.0, 1.4243)])
    def test_branch_contraction_bound(self, lam, bound):
        rng = np.random.default_rng(17)
        p = PoleIndex(0, 3)
        pts = diamond_samples(rng, p, 400)
        pairs = list(zip(pts[::2], pts[1::2]))
        ratio = branch_contraction_ratio((0, 0), p, pairs, lam)
        assert ratio <= bound

    def test_degenerate_pair_skipped(self):
        w = pole_location((0, 3)) + np.array([0.2, 0.1])
        ratio = branch_contraction_ratio((0, 0), (0, 3), [(w, w)], 1.0)
        assert ratio == 0.0

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_pole_expansion(self, lam):
        cal = calibrate_expansion(lam)
        rng = np.random.default_rng(19)
        c = pole_location((0, 0))
        pairs = []
        while len(pairs) < 400:
            a = c + cal.eps * rng.uniform(-1, 1, 2)
            b = c + cal.eps * rng.uniform(-1, 1, 2)
            if np.linalg.norm(a - c) < cal.eps and np.linalg.norm(b - c) < cal.eps:
                pairs.append((a, b))
        assert pole_expansion_ratio((0, 0), pairs, lam) >= 2.0 - 0.01

    def test_pairs_straddling_pole_expand(self):
        lam = 1.0
        c = pole_location((0, 0))
        cal = calibrate_expansion(lam)
        d = 0.5 * cal.eps
        pairs = [(c + np.array([d, 0]), c - np.array([d, 0])),
                 (c + np.array([0, d]), c - np.array([0, d]))]
        assert pole_expansion_ratio((0, 0), pairs, lam) >= 2.0

    def test_iterated_pullback_diameter_shrinks(self):
        # composing branches n times shrinks a diamond by (sqrt2/lam)^n * pi
        lam = 2.0
        rng = np.random.default_rng(23)
        chain = [PoleIndex(0, 0), PoleIndex(1, 1), PoleIndex(-1, 0),
                 PoleIndex(0, 1), PoleIndex(1, -2), PoleIndex(0, 0),
                 PoleIndex(1, 1), PoleIndex(-1, 0), PoleIndex(0, 1),
                 PoleIndex(1, -2)]
        src = PoleIndex(0, 3)
        pts = diamond_samples(rng, src, 40)
        for n in range(1, 11):
            imgs = []
            for w in pts:
                x = np.array(w)
                for q in reversed(chain[:n]):
                    x = inverse_branch(q, x, lam)
                imgs.append(x)
            imgs = np.array(imgs)
            diam = max(np.linalg.norm(a - b) for a in imgs for b in imgs)
            assert diam <= (SQRT2 / lam) ** n * math.pi


class TestCalibration:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_certificate_shape(self, lam):
        cal = calibrate_expansion(lam)
        assert 0 < cal.eps < math.pi / 4
        assert cal.delta > 0
        assert cal.r1 > lam / SQRT2
        assert cal.branch_radius > cal.far_field_bound

    def test_calibration_cached_and_deterministic(self):
        a = calibrate_expansion(1.0)
        b = calibrate_expansion(1.0)
        assert a is b  # write-once cache per parameter
        # the eps trend across lam is recorded, not asserted: it depends on
        # how fast the far-field radius grows with lam in this procedure
        record = {lam: calibrate_expansion(lam).eps for lam in (0.5, 1.0, 2.0)}
        assert all(0 < e < math.pi / 4 for e in record.values())

    # calibrate_expansion(lam) field by field (lam, delta, r1, eps,
    # far_field_bound, branch_radius, domain_radius) as the finite-difference
    # ball sampler gave them; the closed-form sampler must not move a bit
    PINNED = {
        0.9: ("0x1.ccccccccccccdp-1", "0x1.2fe0d76bcf61cp-1", "0x1.2000000000000p+1",
              "0x1.8a14d57b373dfp-3", "0x1.6ea3e00656078p+2", "0x1.d83299350df82p+2",
              "0x1.921fb54b01ed6p+0"),
        1.0: ("0x1.0000000000000p+0", "0x1.2fe0d76bcf61cp-1", "0x1.31785a67b5a74p+1",
              "0x1.8a14d57b373dfp-3", "0x1.9760c0070a414p+2", "0x1.0077bc9ae118fp+3",
              "0x1.921fb54b01ed6p+0"),
        1.1107: ("0x1.1c56d5cfaacdap+0", "0x1.4b61b1f7f1153p-1", "0x1.534921da5bb54p+1",
                 "0x1.8a14d57b373dfp-3", "0x1.00b47939fbaa5p+3", "0x1.357bd5d157a2ap+3",
                 "0x1.921fb54b01ed6p+0"),
        2.0: ("0x1.0000000000000p+1", "0x1.adbfb1056c5e9p-1", "0x1.974b2334f2346p+1",
              "0x1.2fe0d76bcf61cp-2", "0x1.26bb47586dc5ep+3", "0x1.5b82a3efc9be3p+3",
              "0x1.921fb54b01ed6p+0"),
    }

    @pytest.mark.parametrize("lam", sorted(PINNED))
    def test_calibration_pinned(self, lam):
        cal = calibrate_expansion(lam)
        got = tuple(float(getattr(cal, f)).hex() for f in
                    ("lam", "delta", "r1", "eps", "far_field_bound", "branch_radius",
                     "domain_radius"))
        assert got == self.PINNED[lam]

    def test_delta_ball_derivative(self):
        lam = 1.0
        cal = calibrate_expansion(lam)
        rng = np.random.default_rng(29)
        c = pole_location((0, 0))
        checked = 0
        floor = math.inf
        while checked < 500:
            d = rng.uniform(-cal.delta, cal.delta, 2)
            if np.linalg.norm(d) >= cal.delta:
                continue
            p = c + d
            if distance_to_nonsmooth(p) < 1e-4:
                continue
            checked += 1
            s = jacobian_plane_map(p, lam)
            floor = min(floor, s.min_singular_value)
        assert floor >= 2.0 - 0.02

    def test_required_radius_regimes(self):
        # below sqrt2 the branch radius governs; above it only the domain one
        assert required_tail_radius(1.0) == calibrate_expansion(1.0).branch_radius
        assert required_tail_radius(2.0) == calibrate_expansion(2.0).domain_radius
        assert required_tail_radius(2.0) < required_tail_radius(1.0)


# ---------------------------------------------------------------------------
# the Mobius pullback, hemisphere chart, chordal metric and diamond
# enumerator on numpy arrays, as they were before the inverse-branch engine
# ran on Python floats, kept verbatim (renamed) as the reference: the float
# engine must return the same bytes, and it must not warn where these did
# (numpy overflows at huge targets)

def _reference_cayley_inverse(p):
    if is_infinity(p):
        return np.array([0.0, 0.0, -1.0])
    p = as_vec3(p)
    d = p[0] * p[0] + p[1] * p[1] + (1.0 - p[2]) ** 2
    if d == 0.0:
        return INFINITY
    s = 1.0 / d
    return np.array([2.0 * s * p[0], 2.0 * s * p[1], -1.0 + 2.0 * s * (1.0 - p[2])])


def _reference_hemisphere_to_square(u) -> tuple:
    u = np.asarray(u, dtype=float)
    n = vec_norm(u)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"unit vector required, got norm {n}")
    ux, uy, uz = float(u[0]), float(u[1]), float(u[2])
    if uz < -1e-9:
        raise ValueError("upper hemisphere required")
    r = math.hypot(ux, uy)
    if uz >= 0.7:
        m = math.asin(min(1.0, r))
    else:
        m = math.acos(min(1.0, max(-1.0, uz)))
    mx = max(abs(ux), abs(uy))
    if mx == 0.0:
        return (0.0, 0.0)
    f = m / mx
    return (ux * f, uy * f)


def _reference_chordal(p, q) -> float:
    pinf, qinf = is_infinity(p), is_infinity(q)
    if pinf and qinf:
        return 0.0
    if pinf or qinf:
        f = np.asarray(q if pinf else p, dtype=float)
        ff = float(f @ f)
        if ff == math.inf:  # |f| beyond ~1.34e154: hypot scales instead
            return 2.0 / math.hypot(1.0, *f.tolist())
        return 2.0 / math.sqrt(1.0 + ff)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = p - q
    dd = float(d @ d)
    dist = 2.0 * math.sqrt(dd) / math.sqrt((1.0 + float(p @ p)) * (1.0 + float(q @ q)))
    if 0.0 < dist < math.inf or not d.any():
        return dist
    # a squared norm or their product (1 + |p|^2)(1 + |q|^2) overflowed
    # (|p| |q| beyond ~1e154, e.g. next to a pole: the distance reads 0,
    # inf or NaN) or |p - q|^2 underflowed (|p - q| below ~1e-162): the
    # same distance from hypot, which scales instead of squaring
    scaled = math.hypot(*d.tolist()) / math.hypot(1.0, *p.tolist())
    return 2.0 * scaled / math.hypot(1.0, *q.tolist())


def _reference_plane_chordal(a, b) -> float:
    ainf, binf = is_infinity(a), is_infinity(b)
    pa = a if ainf else np.array([float(a[0]), float(a[1]), 0.0])
    pb = b if binf else np.array([float(b[0]), float(b[1]), 0.0])
    return _reference_chordal(pa, pb)


def _reference_diamond_candidates(u, loc, slack: float = 1e-9):
    lx, ly = float(loc[0]), float(loc[1])
    half = HALF_PI + 2.0 * slack
    return [np.array([x, y]) for x, y in _reference_chart_preimages(u, lx, half, ly, half)
            if abs(x - lx) + abs(y - ly) <= HALF_PI + slack]


def _reference_chart_preimages(u, cx, half_x, cy, half_y):
    uz = float(u[2])
    charts = []
    if uz >= -1e-12:
        charts.append((_reference_hemisphere_to_square(u), 0))
    if uz <= 1e-12:
        charts.append((_reference_hemisphere_to_square(np.array([u[0], u[1], -uz])), 1))
    for (a, b), need in charts:
        ys = _reference_family_members_box(b, cy, half_y)
        for x, parx in _reference_family_members_box(a, cx, half_x):
            for y, pary in ys:
                if (parx + pary) % 2 == need:
                    yield x, y


# ---------------------------------------------------------------------------
# the two preimage enumerators, the gate-free cycle solver and the inline
# Newton stencil as they were before they were merged, kept verbatim as the
# reference: the merged engine must give the same floats, bit for bit

def _reference_branch_candidates(u, loc, slack: float = 1e-9):
    out = []
    uz = float(u[2])
    charts = []
    if uz >= -1e-12:
        charts.append((_reference_hemisphere_to_square(u), 0))
    if uz <= 1e-12:
        charts.append((_reference_hemisphere_to_square(np.array([u[0], u[1], -uz])), 1))
    lx, ly = float(loc[0]), float(loc[1])
    for (a, b), need in charts:
        xs = _reference_family_members(a, lx)
        ys = _reference_family_members(b, ly)
        for x, parx in xs:
            for y, pary in ys:
                if (parx + pary) % 2 != need:
                    continue
                if abs(x - lx) + abs(y - ly) <= HALF_PI + slack:
                    out.append(np.array([x, y]))
    return out


def _reference_family_members(a, center):
    out = []
    for off, par in ((a / 2.0, 0), ((math.pi - a) / 2.0, 1)):
        k0 = round((center - off) / math.pi)
        for k in (k0 - 1, k0, k0 + 1):
            x = off + k * math.pi
            if abs(x - center) <= math.pi:
                out.append((x, par))
    return out


def _reference_preimages_tangent3(target, lam: float, xy_box, z_tol: float = math.inf):
    u = _reference_cayley_inverse(target if is_infinity(target)
                                  else np.asarray(target, dtype=float) / lam)
    if is_infinity(u):
        return []  # target = (0,0,lam), an omitted value
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        return []  # target = (0,0,-lam), the other omitted value
    zc = math.log(norm) / 2.0
    if abs(zc) > z_tol:
        return []
    uhat = u / norm
    x0, x1, y0, y1 = xy_box
    cx, cy = (x0 + x1) / 2.0, (y0 + y1) / 2.0
    half_x, half_y = (x1 - x0) / 2.0, (y1 - y0) / 2.0
    charts = []
    if uhat[2] >= -1e-12:
        charts.append((_reference_hemisphere_to_square(uhat), 0))
    if uhat[2] <= 1e-12:
        charts.append((_reference_hemisphere_to_square(
            np.array([uhat[0], uhat[1], -uhat[2]])), 1))
    out = []
    for (a, b), need in charts:
        for x, parx in _reference_family_members_box(a, cx, half_x):
            for y, pary in _reference_family_members_box(b, cy, half_y):
                if (parx + pary) % 2 != need:
                    continue
                cand = np.array([x, y, zc])
                img = tangent3(cand, lam)
                if _reference_chordal(img, target) < 1e-9:
                    out.append(cand)
    return out


def _reference_family_members_box(a, center, half):
    out = []
    for off, par in ((a / 2.0, 0), ((math.pi - a) / 2.0, 1)):
        klo = math.floor((center - half - off) / math.pi)
        khi = math.ceil((center + half - off) / math.pi)
        for k in range(klo, khi + 1):
            x = off + k * math.pi
            if center - half <= x <= center + half:
                out.append((x, par))
    return out


def _reference_periodic_from_mixed_cycle(spec, lam: float):
    def comp(w):
        for idx in reversed(spec.cycle):
            w = inverse_branch(idx, w, lam)
        return w

    y = pole_location(spec.cycle[0]).copy()
    prev_step = None
    noncontract = 0
    for _ in range(400):
        y_next = comp(y)
        step = vec_norm(y_next - y)
        y = y_next
        if prev_step is not None and prev_step > 0.0:
            if step >= prev_step:
                noncontract += 1
                if noncontract >= 5:
                    raise ContractionFailure(
                        "composed branch map is not contracting on this cycle")
            else:
                noncontract = 0
        prev_step = step
        if step < 1e-13:
            break
    y = _reference_newton_polish(y, spec.cycle, lam)
    orbit, residual = _forward_cycle(y, spec.cycle, lam)
    if orbit is None:
        raise ContractionFailure("forward orbit left the prescribed diamonds")
    return PeriodicPoint(point=y, period=len(spec.cycle), residual=residual, orbit=orbit)


def _forward_cycle(y, cycle, lam):
    """Forward-run one period; returns (orbit, residual) or (None, inf) when a
    diamond membership or pole is violated."""
    orbit = [np.array(y)]
    p = np.array(y)
    for idx in cycle:
        if containing_diamond(p) != idx:
            return None, math.inf
        p = plane_map(p, lam)
        if is_infinity(p):
            return None, math.inf
        orbit.append(p)
    return orbit[:-1], vec_norm(orbit[0] - p)


def _reference_newton_polish(y, cycle, lam, rounds: int = 6):
    def forward(p):
        pts = [np.array(p)]
        for _ in cycle:
            q = plane_map(pts[-1], lam)
            if is_infinity(q):
                return None
            pts.append(q)
        return pts

    def resid(p):
        pts = forward(p)
        if pts is None:
            return math.inf, None
        return vec_norm(pts[-1] - pts[0]), pts

    best_r, best_pts = resid(y)
    best = np.array(y)
    cur = np.array(y)
    h = 1e-7
    for _ in range(rounds):
        pts = forward(cur)
        if pts is None:
            break
        jac = np.eye(2)
        ok = True
        for p in pts[:-1]:
            cols = []
            for i in range(2):
                pp, pm = p.copy(), p.copy()
                pp[i] += h
                pm[i] -= h
                fp, fm = plane_map(pp, lam), plane_map(pm, lam)
                if is_infinity(fp) or is_infinity(fm):
                    ok = False
                    break
                cols.append((fp - fm) / (2.0 * h))
            if not ok:
                break
            jac = np.column_stack(cols) @ jac
        if not ok:
            break
        g = pts[-1] - pts[0]
        try:
            delta = np.linalg.solve(jac - np.eye(2), -g)
        except np.linalg.LinAlgError:
            break
        cand = cur + delta
        r_cand, _ = resid(cand)
        if r_cand < best_r:
            best_r, best = r_cand, cand
            cur = cand
        else:
            break
    return best


def _outcome(fn, *args):
    """What fn(*args) gives: its value or the type and text of its exception."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError, RuntimeError) as e:
        return type(e), str(e)


def _assert_same(got, want):
    """Equal bit for bit: arrays (dtype, shape, values), INFINITY, periodic
    points, exceptions, or lists of these."""
    if isinstance(want, PeriodicPoint):
        assert isinstance(got, PeriodicPoint)
        _assert_same(got.point, want.point)
        _assert_same(got.orbit, want.orbit)
        assert got.period == want.period
        assert got.residual == want.residual or (math.isnan(got.residual)
                                                 and math.isnan(want.residual))
    elif isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert got == want  # INFINITY, or (exception type, message)


class TestBranchEngineBitIdentity:
    LAMS = (0.7, 1.0, 1.1107, 2.0, 5.0)

    @staticmethod
    def _branch_cases(rng, lam, n):
        """Seeded (diamond, target) pairs over |m|, |n| <= 4: INFINITY, points on
        and within 1e-6 of the removed segment, the unit circle |w| = lam (where
        both hemisphere charts are used), tiny, generic and huge targets."""
        half = lam / SQRT2
        cases = []
        for i in range(n):
            q = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
            kind = i % 6
            if kind == 0:
                w = INFINITY
            elif kind == 1:
                t = rng.uniform(-1.2 * half, 1.2 * half)
                w = np.array([t, t if rng.random() < 0.5 else -t])
                if (i // 6) % 2:
                    w = w + rng.uniform(-1e-6, 1e-6, 2)
            elif kind == 2:
                ang = rng.uniform(0.0, 2.0 * math.pi)
                w = lam * (1.0 + rng.uniform(-1e-12, 1e-12)) * np.array(
                    [math.cos(ang), math.sin(ang)])
            elif kind == 3:
                w = rng.normal(size=2) * 10.0 ** rng.uniform(-8.0, -2.0)
            elif kind == 4:
                w = rng.uniform(-6.0, 6.0, 2)
            else:
                w = rng.normal(size=2) * 10.0 ** rng.uniform(2.0, 8.0)
            cases.append((q, w))
        return cases

    def test_branch_candidates_match_reference(self):
        def float_candidates(u, loc):
            return [np.array(c) for c in plane._branch_candidates(*u.tolist(), *loc.tolist())]

        rng = np.random.default_rng(211)
        compared = 0
        for lam in self.LAMS:
            for q, w in self._branch_cases(rng, lam, 300):
                if is_infinity(w):
                    continue
                u = _reference_cayley_inverse(
                    np.array([float(w[0]) / lam, float(w[1]) / lam, 0.0]))
                loc = pole_location(q)
                want = _outcome(_reference_branch_candidates, u, loc)
                _assert_same(_outcome(_reference_diamond_candidates, u, loc), want)
                _assert_same(_outcome(float_candidates, u, loc), want)
                compared += 1
        assert compared == 5 * 250

    def test_inverse_branch_matches_reference(self):
        rng = np.random.default_rng(223)
        cases = [(q, w, lam) for lam in self.LAMS for q, w in self._branch_cases(rng, lam, 600)]
        got = [_outcome(inverse_branch, q, w, lam) for q, w, lam in cases]
        want = [_outcome(_reference_inverse_branch, q, w, lam, 1e-9,
                         _reference_branch_candidates) for q, w, lam in cases]
        for g, w in zip(got, want):
            _assert_same(g, w)
        errors = {w[0] for w in want if isinstance(w, tuple)}
        assert errors == {BranchDomainError}  # exact segment points

    def test_preimages_match_reference(self):
        rng = np.random.default_rng(227)
        found = 0
        for i in range(300):
            lam = self.LAMS[i % len(self.LAMS)]
            if i % 3 == 0:  # box edges on the pole lattice coordinates
                x0, y0 = rng.integers(-6, 5, 2) * HALF_PI
                box = (x0, x0 + rng.integers(1, 4) * HALF_PI,
                       y0, y0 + rng.integers(1, 4) * HALF_PI)
            else:
                x0, y0 = rng.uniform(-8.0, 8.0, 2)
                box = (x0, x0 + rng.uniform(0.1, 6.0), y0, y0 + rng.uniform(0.1, 6.0))
            if i % 7 == 0:
                target = INFINITY
            else:
                target = rng.normal(size=3) * [2.0, 2.0, 0.5 if i % 2 else 0.0]
            want = _outcome(_reference_preimages_tangent3, target, lam, box)
            _assert_same(_outcome(preimages_tangent3, target, lam, box), want)
            found += len(want)
        assert found > 300

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_cycles_match_reference(self, lam):
        rng = np.random.default_rng(229)
        r = required_tail_radius(lam)
        far = [(m, n) for m in range(-8, 9) for n in range(-8, 9)
               if r < np.linalg.norm(pole_location((m, n))) <= r + 2.0 * math.pi]
        near = [(m, n) for m in range(-3, 4) for n in range(-3, 4)]
        for period in (1, 2, 3, 4):
            for _ in range(4):
                spec = PeriodicCycleSpec(
                    cycle=[far[i] for i in rng.integers(0, len(far), period)])
                want = _outcome(_reference_periodic_from_mixed_cycle, spec, lam)
                _assert_same(_outcome(periodic_point_from_cycle, spec, lam), want)
                _assert_same(_outcome(_solve_cycle, spec.cycle, lam, 400), want)
                spec = PeriodicCycleSpec(
                    cycle=[near[i] for i in rng.integers(0, len(near), period)])
                _assert_same(_outcome(_solve_cycle, spec.cycle, lam, 400),
                             _outcome(_reference_periodic_from_mixed_cycle, spec, lam))

    def test_newton_polish_next_to_pole_never_worsens(self):
        y = np.array([-1e-7, HALF_PI])  # 1e-7 from the pole (0, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _ = _newton_polish(y, [PoleIndex(0, 0)], 1.0)
        assert vec_norm(plane_map(got, 1.0) - got) <= vec_norm(plane_map(y, 1.0) - y)

    def test_periodic_near_escaping_matches_reference(self, monkeypatch):
        lam = 2.0
        head = [(1, 1), (-1, -1), (2, 0), (0, -2), (0, 1), (-1, 0), (2, -1), (1, -2)] * 2
        itin = Itinerary(prefix=[], tail=lambda j: head[j] if j < len(head)
                         else (0, j - len(head) + 19))
        v = point_from_itinerary(itin, lam, n_compose=30)
        got = periodic_near_escaping(v, 1e-6, lam)

        def old_solver(cycle, lam_, max_iter):
            assert max_iter == 400
            return _reference_periodic_from_mixed_cycle(PeriodicCycleSpec(cycle), lam_)

        monkeypatch.setattr(itinerary, "_solve_cycle", old_solver)
        _assert_same(got, periodic_near_escaping(v, 1e-6, lam))


# ---------------------------------------------------------------------------
# the scalar plane path before it ran on Python floats (the beam formula
# without its z = 0 branch, tangent3, plane_map, the finite-difference
# Jacobian and the inverse-branch scan), kept verbatim as the reference:
# the float core must give the same bytes, -0.0 included, and the
# closed-form Jacobian the same matrix up to the stencil's error

def _reference_beam_formula(x: float, y: float, z: float):
    m = max(abs(x), abs(y))
    th = math.tanh(z)
    e = math.exp(-abs(z))
    sech = 2.0 * e / (1.0 + e * e)
    s2 = sech * sech
    cm = math.cos(m)
    denom = cm * cm * s2 + th * th
    # denom vanishes nowhere on the beam: cos^2 M >= 1/2 there
    third = th / denom
    r = math.hypot(x, y)
    if r == 0.0:
        return 0.0, 0.0, third
    f = cm * math.sin(m) * s2 / (r * denom)
    return x * f, y * f, third


def _reference_tangent3(v, lam: float = 1.0):
    x, y, z = _checked_vec3(v)[1]
    fx, px = fold_axis(x, QUARTER_PI)
    fy, py = fold_axis(y, QUARTER_PI)
    bx, by, bz = _reference_beam_formula(fx, fy, z)
    if (px + py) % 2:
        n2 = bx * bx + by * by + bz * bz
        if n2 == 0.0:
            return INFINITY
        bx, by, bz = bx / n2, by / n2, bz / n2
    return np.array([lam * bx, lam * by, lam * bz])


def _reference_plane_map(p, lam: float = 1.0):
    t = _reference_tangent3([float(p[0]), float(p[1]), 0.0], lam)
    if is_infinity(t):
        return INFINITY
    return t[:2]


def _reference_fd_matrix(p, lam, h):
    cols = []
    for i in range(2):
        pp = np.array([float(p[0]), float(p[1])])
        pm = pp.copy()
        pp[i] += h
        pm[i] -= h
        fp = _reference_plane_map(pp, lam)
        fm = _reference_plane_map(pm, lam)
        if is_infinity(fp) or is_infinity(fm):
            raise ArithmeticError("pole hit inside finite-difference stencil")
        cols.append((fp - fm) / (2.0 * h))
    return np.column_stack(cols)


def _reference_jacobian_plane_map(p, lam: float = 1.0, reject_margin: float = 1e-6):
    if distance_to_nonsmooth(p) <= reject_margin:
        raise ValueError("point too close to the non-smooth set")
    j_fine = _reference_fd_matrix(p, lam, 1e-6)
    j_coarse = _reference_fd_matrix(p, lam, 1e-4)
    scale = max(float(np.abs(j_coarse).max()), 1e-30)
    if float(np.abs(j_fine - j_coarse).max()) / scale > 1e-3:
        j_half = _reference_fd_matrix(p, lam, 1e-4 / 2.0)
        j = (4.0 * j_half - j_coarse) / 3.0
    else:
        j = j_fine
    smin, smax = singular_values_2x2(j[0, 0], j[0, 1], j[1, 0], j[1, 1])
    tr = j[0, 0] + j[1, 1]
    det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    disc = tr * tr - 4.0 * det
    eig = None
    if disc >= 0.0:
        sq = math.sqrt(disc)
        eig = tuple(sorted(((tr - sq) / 2.0, (tr + sq) / 2.0)))
    return JacobianSample(np.array([float(p[0]), float(p[1])]), j,
                          float(smin), float(smax), eig)


def _reference_inverse_branch(q, w, lam: float = 1.0, residual_tol: float = 1e-9,
                              branch_candidates=_reference_diamond_candidates):
    q = PoleIndex(*q)
    loc = pole_location(q)
    if is_infinity(w):
        return loc.copy()
    wx, wy = float(w[0]), float(w[1])
    if diagonal_segment_distance((wx, wy), lam) == 0.0:
        raise BranchDomainError("target lies on the removed diagonal segment")
    u = _reference_cayley_inverse(np.array([wx / lam, wy / lam, 0.0]))
    candidates = branch_candidates(u, loc)
    candidates.append(loc.copy())
    best = None
    best_res = math.inf
    for cand in candidates:
        img = _reference_plane_map(cand, lam)
        res = _reference_plane_chordal(img, np.array([wx, wy]))
        if res < best_res:
            best_res = res
            best = cand
    if best is None or best_res > residual_tol:
        raise BranchResidualError(
            f"no preimage of {(wx, wy)} in diamond {tuple(q)} (best residual {best_res:.3e})")
    return best


def _raw(v):
    """The bytes of a result: float64 arrays with dtype and shape, floats by
    their IEEE bits (so -0.0 != 0.0), INFINITY, and nested tuples or
    Jacobian samples of these."""
    if is_infinity(v) or v is None:
        return repr(v)
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, float):
        return struct.pack("<d", v)
    if isinstance(v, JacobianSample):
        return tuple(_raw(getattr(v, f)) for f in
                     ("point", "matrix", "min_singular_value", "max_singular_value",
                      "eigenvalues"))
    if isinstance(v, tuple):
        return tuple(_raw(c) for c in v)
    raise TypeError(f"no raw form for {v!r}")


def _raw_outcome(fn, *args):
    """The raw result of fn(*args), or the type and text of its exception."""
    try:
        return "value", _raw(fn(*args))
    except (ArithmeticError, ValueError, RuntimeError) as e:
        return "raised", type(e), str(e)


class TestFloatPlanePathBitIdentity:
    LAMS = (0.7, 0.9, 1.0, 1.1107, 2.0, 5.0)
    POLES = [((n + m) * HALF_PI, (n - m + 1) * HALF_PI)
             for m in range(-3, 4) for n in range(-3, 4)]
    CENTRES = [(k * HALF_PI, j * HALF_PI) for k in range(-3, 4) for j in range(-3, 4)]
    NON_FINITE = [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0), (2.0, math.nan)]

    @staticmethod
    def _plane_points(rng):
        """Seeded plane points on every special locus of the scalar path."""
        pts = [tuple(p) for p in rng.uniform(-10.0, 10.0, (400, 2))]
        pts += TestFloatPlanePathBitIdentity.POLES + TestFloatPlanePathBitIdentity.CENTRES
        pts += [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (1e-156, HALF_PI), (HALF_PI, 1e-156),
                (-1e-156, HALF_PI), (1e-300, -1e-300), (5e-324, 0.0), (QUARTER_PI, 0.3),
                (0.3, -QUARTER_PI), (1e15, -3e14)]
        for x, y in TestFloatPlanePathBitIdentity.POLES[::5]:
            for d in rng.normal(size=(6, 2)) * 10.0 ** rng.uniform(-12.0, -2.0, (6, 1)):
                pts.append((x + d[0], y + d[1]))
        return pts

    def test_beam_formula_matches_reference(self):
        rng = np.random.default_rng(301)
        beam = [tuple(p) for p in rng.uniform(-QUARTER_PI, QUARTER_PI, (400, 2))]
        beam += [(0.0, 0.0), (-0.0, 0.0), (0.0, 1e-300), (QUARTER_PI, -QUARTER_PI),
                 (5e-324, -5e-324), (0.2, 0.2), (-0.5, 0.5)]
        zs = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-8, -0.3, 2.0, -40.0, 800.0]
        for x, y in beam:
            for z in zs:
                assert _raw(_beam_formula(x, y, z)) == _raw(_reference_beam_formula(x, y, z))

    def test_tangent3_and_plane_map_match_reference(self):
        rng = np.random.default_rng(303)
        pts = self._plane_points(rng)
        zs = (0.0, -0.0, 1e-300, -0.25, 3.0)
        poles = 0
        for lam in self.LAMS:
            for x, y in pts:
                for z in zs:
                    want = _raw_outcome(_reference_tangent3, (x, y, z), lam)
                    poles += want == ("value", "Infinity")
                    assert _raw_outcome(tangent3, (x, y, z), lam) == want
                assert (_raw_outcome(plane_map, (x, y), lam)
                        == _raw_outcome(_reference_plane_map, (x, y), lam))
                assert (_raw_outcome(plane_map, np.array([x, y]), lam)
                        == _raw_outcome(_reference_plane_map, np.array([x, y]), lam))
        # every lattice point hits its pole at z = +0.0 and -0.0
        assert poles >= 2 * len(self.LAMS) * len(self.POLES)
        for lam in self.LAMS:
            for x, y in self.NON_FINITE:
                for fn, ref, arg in ((tangent3, _reference_tangent3, (x, y, 0.0)),
                                     (tangent3, _reference_tangent3, (0.0, 0.0, x + y)),
                                     (plane_map, _reference_plane_map, (x, y))):
                    want = _raw_outcome(ref, arg, lam)
                    assert want[:2] == ("raised", ValueError)
                    assert _raw_outcome(fn, arg, lam) == want

    def test_jacobian_matches_reference(self):
        # the closed form against the finite differences it replaced: the
        # same rejections, and wherever the point keeps 1e-3 from the fold
        # lines and tile diagonals the same matrix to 1e-8 relative plus the
        # stencil's truncation error (h/r)^2, h = 1e-6 and r the distance to
        # the tile centre (the pole on odd tiles)
        rng = np.random.default_rng(311)
        pts = self._plane_points(rng)
        compared = 0
        for lam in self.LAMS:
            for p in pts:
                want = _outcome(_reference_jacobian_plane_map, p, lam)
                got = _outcome(jacobian_plane_map, p, lam)
                if isinstance(want, tuple):
                    if want[0] is ValueError:
                        assert got == want
                    continue
                assert np.array_equal(got.point, want.point)
                if distance_to_nonsmooth(p) > 1e-3:
                    fx, _, fy, _ = fold_axis(p[0], QUARTER_PI) + fold_axis(p[1], QUARTER_PI)
                    tol = 1e-8 + (1e-6 / math.hypot(fx, fy)) ** 2
                    err = np.abs(got.matrix - want.matrix).max()
                    assert err <= tol * np.abs(want.matrix).max()
                    compared += 1
        assert compared >= 350 * len(self.LAMS)

    def test_cayley_inverse_and_chart_match_reference(self):
        # (1 - z)^2 is libm's pow, which is not always the rounded product:
        # about one z in a thousand tells the two apart
        rng = np.random.default_rng(317)
        pts = rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-300.0, 300.0, (20000, 1))
        pts[::4] = rng.normal(size=(5000, 3))
        pts[1::8] *= 1e-150
        warned = 0
        for p in [*pts, (0.0, 0.0, 1.0), (-0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                want = _raw_outcome(_reference_cayley_inverse, p)
                u = _reference_cayley_inverse(p) if want[0] == "value" else INFINITY
            warned += bool(caught)
            assert _raw_outcome(core.cayley_inverse, p) == want
            n = 0.0 if is_infinity(u) else vec_norm(u)
            if 0.0 < n < math.inf:
                for v in (u / n, u / n * [1.0, 1.0, -1.0], u):
                    got = _raw_outcome(core.hemisphere_to_square, v)
                    want_uv = _raw_outcome(_reference_hemisphere_to_square, v)
                    # the norm in the unit-norm message is summed on floats now
                    assert got == want_uv or got[:2] == want_uv[:2] == ("raised", ValueError)
        assert warned > 1000
        for p in [(math.inf, 0.0, 0.0), (0.0, math.nan, 1.0), INFINITY]:
            assert _raw_outcome(core.cayley_inverse, p) == _raw_outcome(
                _reference_cayley_inverse, p)

    def test_inverse_branch_matches_reference(self):
        # the same bytes (or exception) as the array-level engine on every
        # kind of target, and no RuntimeWarning where that engine warned
        rng = np.random.default_rng(313)
        errors = set()
        warned = pole_wins = 0
        for lam in self.LAMS:
            half = lam / SQRT2
            cases = []
            for i in range(480):
                q = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
                kind = i % 8
                ang = rng.uniform(0.0, 2.0 * math.pi)
                if kind == 0:
                    w = INFINITY
                elif kind == 1:  # on the removed segment
                    t = rng.uniform(-half, half)
                    w = (t, t if i % 16 < 8 else -t)
                elif kind == 2:  # within 1e-6 of it
                    t = rng.uniform(-1.1 * half, 1.1 * half)
                    w = (t + rng.uniform(-1e-6, 1e-6), -t + rng.uniform(-1e-6, 1e-6))
                elif kind == 3:  # |w| from 1e-300 to 1e308
                    r = 10.0 ** rng.uniform(-300.0, 308.0)
                    w = (r * math.cos(ang), r * math.sin(ang))
                elif kind == 4:
                    w = tuple(rng.uniform(-6.0, 6.0, 2))
                elif kind == 5:
                    w = tuple(lam * np.array(self.POLES[i % len(self.POLES)]))
                elif kind == 6:  # |w| = lam(1 +- 1e-12): both hemisphere charts
                    r = lam * (1.0 + (1e-12 if i % 16 < 8 else -1e-12))
                    w = (r * math.cos(ang), r * math.sin(ang))
                else:  # beyond ~1e16 the pole's residual often beats the candidate's
                    r = 10.0 ** rng.uniform(17.0, 30.0)
                    w = (r * math.cos(ang), r * math.sin(ang))
                cases.append((q, w))
            # the segment's end points and the floats just beyond them
            out = math.nextafter(half, math.inf)
            cases += [((1, 2), (sx * h, sy * h)) for h in (half, out)
                      for sx in (1.0, -1.0) for sy in (1.0, -1.0)]
            # w / lam overflows for lam < 1
            cases += [((0, 0), p) for p in self.NON_FINITE + [(math.inf, -math.inf),
                                                               (1.7e308, 1.0)]]
            # |w| from 1e77 to 1.26e154 at far poles: (1 + |p|^2)(1 + |q|^2)
            # overflows in a residual, which both sides then take from hypot
            for _ in range(40):
                q = tuple(int(k) for k in rng.integers(-1000, 1001, 2))
                r = 10.0 ** rng.uniform(77.0, 154.1)
                ang = rng.uniform(0.0, 2.0 * math.pi)
                cases.append((q, (r * math.cos(ang), r * math.sin(ang))))
            for q, w in cases:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    want = _raw_outcome(_reference_inverse_branch, q, w, lam)
                warned += any(issubclass(c.category, RuntimeWarning) for c in caught)
                if want[0] == "raised":
                    errors.add(want[1])
                elif not is_infinity(w):
                    pole_wins += want == ("value", _raw(pole_location(q)))
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert _raw_outcome(inverse_branch, q, w, lam) == want
        assert errors == {BranchDomainError, ValueError}
        assert warned > 50 and pole_wins > 300


class TestNonFinitePoints:
    """Plane entry points reject inf and NaN with the ValueError of tangent3."""

    @pytest.mark.parametrize("fn", [containing_diamond, distance_to_nonsmooth,
                                    jacobian_plane_map, plane_map])
    @pytest.mark.parametrize("p", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0),
                                   (0.5, math.nan)])
    def test_rejected_with_tangent3_message(self, fn, p):
        with pytest.raises(ValueError) as want:
            tangent3((*p, 0.0))
        with pytest.raises(ValueError) as got:
            fn(p)
        assert str(got.value) == str(want.value)

    def test_huge_finite_point_has_no_diamond(self):
        # x + y or y - x overflows: adjacent floats are far more than a
        # diamond apart there, so no diamond is resolved
        for p in [(1e308, 1e308), (1e308, -1e308), (-1e308, 1e308), (-1e308, -1e308)]:
            assert containing_diamond(p) is None


# ---------------------------------------------------------------------------
# the float inverse-branch engine before its enumerator became one loop and
# the pole was priced from the target, kept verbatim (renamed) as the
# reference: the engine must return the same bytes.

def _reference_float_inverse_branch(q, w, lam: float = 1.0):
    q = PoleIndex(*q)
    lx, ly = plane._pole_xy(q.m, q.n)
    if is_infinity(w):
        return np.array([lx, ly])
    wx, wy = float(w[0]), float(w[1])
    if (wy == wx or wy == -wx) and abs(wx) <= lam / SQRT2:
        raise BranchDomainError("target lies on the removed diagonal segment")
    x, y = wx / lam, wy / lam
    core._require_finite(x, y)
    candidates = _reference_float_branch_candidates(*core._cayley_inverse_xyz(x, y, 0.0), lx, ly)
    candidates.append((lx, ly))
    target = (wx, wy, 0.0)
    ww = wx * wx + wy * wy
    best = None
    best_res = math.inf
    for cx, cy in candidates:
        t = core._tangent3_xyz(cx, cy, 0.0, lam)
        if t is None:
            res = core._chordal_infinite(ww, (wx, wy))
        else:
            tx, ty = t[0], t[1]
            dx, dy = tx - wx, ty - wy
            res = core._chordal_finite(dx * dx + dy * dy, tx * tx + ty * ty, ww,
                                       (dx, dy, 0.0), (tx, ty, 0.0), target)
        if res < best_res:
            best_res = res
            best = (cx, cy)
    if best is None or best_res > 1e-9:
        raise BranchResidualError(
            f"no preimage of {(wx, wy)} in diamond {tuple(q)} (best residual {best_res:.3e})")
    return np.array(best)


def _reference_float_branch_candidates(ux, uy, uz, lx, ly):
    half = HALF_PI + 2e-9
    return [(x, y) for x, y in _reference_float_chart_preimages(ux, uy, uz, lx, half, ly, half)
            if abs(x - lx) + abs(y - ly) <= HALF_PI + 1e-9]


def _reference_float_chart_preimages(ux, uy, uz, cx, half_x, cy, half_y):
    charts = []
    if uz >= -1e-12:
        charts.append((core._hemisphere_xy(ux, uy, uz), 0))
    if uz <= 1e-12:
        charts.append((core._hemisphere_xy(ux, uy, -uz), 1))
    for (a, b), need in charts:
        ys = _reference_float_family_members(b, cy, half_y)
        for x, parx in _reference_float_family_members(a, cx, half_x):
            for y, pary in ys:
                if (parx + pary) % 2 == need:
                    yield x, y


def _reference_float_family_members(a, center, half):
    out = []
    for off, par in ((a / 2.0, 0), ((math.pi - a) / 2.0, 1)):
        klo = math.floor((center - half - off) / math.pi)
        khi = math.ceil((center + half - off) / math.pi)
        for k in range(klo, khi + 1):
            x = off + k * math.pi
            if center - half <= x <= center + half:
                out.append((x, par))
    return out


def _polar(rng, r):
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return (r * math.cos(ang), r * math.sin(ang))


class TestScalarBranchWork:
    """``inverse_branch`` enumerates the diamond's candidates in one loop and
    prices the pole from the target: the same bytes, only the work its
    answer needs, and integer pole indices only."""

    LAMS = (0.5, 0.9, 1.0, 2.0, 3.0)
    BOUND = plane._EXACT_POLES

    @pytest.mark.parametrize("q", [(0.5, 0), (1.2, 3.0), (1.0, 2), (0, np.float64(2.0)),
                                   ("1", 2), (None, 0)])
    def test_rejects_non_integral_pole_index(self, q):
        for w in ((0.3, 0.2), INFINITY):
            with pytest.raises(ValueError, match=re.escape(f"pole index {tuple(q)}")) as caught:
                inverse_branch(q, w, 1.0)
            assert type(caught.value) is ValueError
            assert "\n" not in str(caught.value)

    def test_accepts_numpy_integer_index(self):
        w = (0.3, 0.2)
        want = inverse_branch((1, -2), w, 1.3)
        for q in [(np.int64(1), np.int32(-2)), np.array([1, -2]), PoleIndex(1, -2),
                  [np.int8(1), -2]]:
            assert inverse_branch(q, w, 1.3).tobytes() == want.tobytes()
            assert inverse_branch(q, INFINITY, 1.3).tobytes() == pole_location((1, -2)).tobytes()

    def test_pole_maps_to_infinity_below_bound(self):
        # the closed-form pole residual rests on this: below the bound every
        # pole folds onto its tile centre and the map is exactly infinite
        rng = np.random.default_rng(401)
        top = math.log10(self.BOUND / HALF_PI)
        m, n = (np.rint(rng.choice([-1.0, 1.0], (2, 5000)) * 10.0 ** rng.uniform(0.0, top, (2, 5000)))
                .astype(np.int64).tolist())
        edge = int(self.BOUND / HALF_PI) - 1  # |n + m| or |n - m + 1| just inside the bound
        poles = list(zip(m, n)) + [(0, edge), (0, -edge - 1), (-edge // 2, edge - edge // 2),
                                   (edge // 2, -(edge - edge // 2) + 1)]
        checked = 0
        for lam in (0.5, 1.0, 2.0, 3.7):
            for pm, pn in poles:
                lx, ly = plane._pole_xy(pm, pn)
                if max(abs(lx), abs(ly)) >= self.BOUND:
                    continue
                assert core._tangent3_xyz(lx, ly, 0.0, lam) is None, (pm, pn)
                checked += 1
        assert checked > 4 * 4000
        # far beyond it the fold can miss the centre, so poles there keep the
        # forward evaluation
        far = [plane._pole_xy(int(j), 0) for j in rng.integers(10**17, 10**18, 200)]
        assert any(core._tangent3_xyz(x, y, 0.0, 1.0) is not None for x, y in far)

    def test_past_bound_matches_references(self):
        rng = np.random.default_rng(409)
        j0 = math.ceil(self.BOUND / HALF_PI)
        cases = []
        for i in range(400):
            j = j0 + int(rng.integers(0, 64)) if i % 2 else int(10.0 ** rng.uniform(12.5, 17.0))
            if i % 4 < 2:
                q = (j // 2, j - j // 2)  # x = j*pi/2 past the bound
            else:
                q = (-(j // 2), j - j // 2 - 1)  # y = j*pi/2 past the bound
            cases.append((q, _polar(rng, 10.0 ** rng.uniform(-3.0, 40.0)),
                          self.LAMS[i % len(self.LAMS)]))
        pole_wins = 0
        for q, w, lam in cases:
            lx, ly = plane._pole_xy(*q)
            assert max(abs(lx), abs(ly)) >= self.BOUND
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                want = _outcome(_reference_inverse_branch, q, w, lam)
            got = _outcome(inverse_branch, q, w, lam)
            _assert_same(got, want)
            _assert_same(got, _outcome(_reference_float_inverse_branch, q, w, lam))
            grid = _outcome(plane._inverse_branch_grid, lx, ly, w[0], w[1], lam)
            if isinstance(got, np.ndarray):
                pole_wins += got.tobytes() == pole_location(q).tobytes()
                assert struct.pack("2d", grid[0][0], grid[1][0]) == got.tobytes()
            else:
                assert grid[0] is got[0]
        assert pole_wins > 50

    def test_forward_evaluations_are_the_candidates(self, monkeypatch):
        evaluated = []
        engine = core._tangent3_xyz

        def counting(x, y, z, lam):
            evaluated.append((x, y))
            return engine(x, y, z, lam)

        monkeypatch.setattr(plane, "_tangent3_xyz", counting)
        rng = np.random.default_rng(419)
        for i in range(300):
            lam = self.LAMS[i % len(self.LAMS)]
            q = tuple(int(v) for v in rng.integers(-6, 7, 2))
            w = _polar(rng, 10.0 ** rng.uniform(-6.0, 30.0))
            lx, ly = plane._pole_xy(*q)
            want = plane._branch_candidates(
                *core._cayley_inverse_xyz(w[0] / lam, w[1] / lam, 0.0), lx, ly)
            del evaluated[:]
            inverse_branch(q, w, lam)
            assert evaluated == want  # never the pole itself
            inverse_branch(q, INFINITY, lam)
            assert evaluated == want

    def test_point_from_itinerary_reads_each_tail_symbol_once(self):
        reads = []

        def tail(j):
            reads.append(j)
            return (0, j + 3)

        itin = Itinerary(prefix=[(1, 1), (-1, -1)], tail=tail)
        point_from_itinerary(itin, 2.0, n_compose=12)
        assert sorted(reads) == list(range(2, 13))

    def test_wide_targets_match_references(self):
        # poles up to |m|, |n| = 1e6; |w| = lam(1 +- 1e-13), read in both
        # hemisphere charts; |w| from 1e150 to 1e308 (beyond ~1.3e154 the
        # pole's residual takes the hypot branch); and |w| from 1e-300 to
        # 1e-200, where |image - w|^2 underflows, the residuals come from
        # hypot, and the first least residual wins (there the candidates'
        # residuals tie, so it is the first candidate)
        rng = np.random.default_rng(421)
        firsts = two_chart = 0
        for i in range(2000):
            lam = self.LAMS[i % len(self.LAMS)]
            kind = i % 4
            q = tuple(int(v) for v in rng.integers(-10**6, 10**6 + 1, 2))
            if kind == 0:
                w = INFINITY if i % 40 == 0 else _polar(rng, 10.0 ** rng.uniform(-3.0, 3.0))
            elif kind == 1:
                w = _polar(rng, lam * (1.0 + (1e-13 if i % 8 < 4 else -1e-13)))
            elif kind == 2:
                w = _polar(rng, 10.0 ** rng.uniform(150.0, 308.0))
            else:
                w = _polar(rng, 10.0 ** rng.uniform(-300.0, -200.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _outcome(inverse_branch, q, w, lam)
            _assert_same(got, _outcome(_reference_float_inverse_branch, q, w, lam))
            if kind != 2:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    _assert_same(got, _outcome(_reference_inverse_branch, q, w, lam))
            if kind in (1, 3):
                u = core._cayley_inverse_xyz(w[0] / lam, w[1] / lam, 0.0)
                if kind == 1:
                    two_chart += abs(u[2]) <= 1e-12
                else:
                    cands = plane._branch_candidates(*u, *plane._pole_xy(*q))
                    res = [chordal([*plane_map(c, lam), 0.0], [*w, 0.0]) for c in cands]
                    assert min(res) > 0.0
                    assert got.tobytes() == np.array(cands[int(np.argmin(res))]).tobytes()
                    firsts += got.tobytes() == np.array(cands[0]).tobytes()
        assert firsts == 500 and two_chart > 400

    def test_enumerator_matches_references(self):
        # boxes of every width about centres up to 1e18 (beyond ~1e15 the
        # family loop ends on its k bound, not on the box), and the
        # preimages of targets near far poles
        rng = np.random.default_rng(431)
        found = 0
        for i in range(600):
            u = rng.normal(size=3)
            if i % 3 == 0:
                u[2] = rng.uniform(-1e-12, 1e-12) * np.linalg.norm(u[:2])
            u = (u / np.linalg.norm(u)).tolist()
            cx, cy = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(0.0, 18.0, 2)
            hx, hy = 10.0 ** rng.uniform(-3.0, 1.5, 2)
            assert (plane._chart_preimages(*u, cx, hx, cy, hy)
                    == list(_reference_float_chart_preimages(*u, cx, hx, cy, hy)))
            assert (plane._branch_candidates(*u, cx, cy)
                    == _reference_float_branch_candidates(*u, cx, cy))
            lam = self.LAMS[i % len(self.LAMS)]
            lx, ly = plane._pole_xy(*(int(v) for v in rng.integers(-10**6, 10**6 + 1, 2)))
            box = (lx - hx, lx + hx, ly - hy, ly + hy)
            if i % 5 == 0:
                target = INFINITY
            elif i % 5 == 1:
                target = np.array([*_polar(rng, lam * (1.0 + rng.choice([-1e-13, 1e-13]))), 0.0])
            else:
                target = rng.normal(size=3) * [3.0, 3.0, 0.5 if i % 2 else 0.0]
            want = _outcome(_reference_preimages_tangent3, target, lam, box)
            _assert_same(_outcome(preimages_tangent3, target, lam, box), want)
            found += len(want)
        assert found > 300

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
            lo, hi, real = plane._real_eigenvalues(*j.ravel().tolist())
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

    def test_errors_name_target_diamond_and_lam(self, monkeypatch):
        # the scalar and the batched engine raise one message per fault
        want = "target (0.3, 0.3) lies on the removed diagonal segment at lam=1.0 (diamond (2, -1))"
        for call in (lambda: inverse_branch((2, -1), (0.3, 0.3), 1.0),
                     lambda: plane._inverse_branch_grid([0, 2], [1, -1], [3.0, 0.3], [1.0, 0.3],
                                                        1.0)):
            with pytest.raises(BranchDomainError) as caught:
                call()
            assert str(caught.value) == want

        # a fault in the tile-frame map, where both engines take the residual
        def shifted(fx, fy, z, odd, lam):
            t = core._tile_map(fx, fy, z, odd, lam)
            return None if t is None else [t[0] + 1e-3, t[1], t[2]]

        def shifted_grid(fx, fy, z, odd, lam):
            tx, ty, tz, finite = core._tile_map_grid(fx, fy, z, odd, lam)
            return tx + 1e-3, ty, tz, finite

        monkeypatch.setattr(plane, "_tile_map", shifted)
        monkeypatch.setattr(plane, "_tile_map_grid", shifted_grid)
        want = (r"^no preimage of \(3\.0, 1\.0\) in diamond \(0, 1\) at lam=1\.3 "
                r"\(best residual 1\.\d{3}e-04\)$")
        with pytest.raises(BranchResidualError, match=want):
            inverse_branch((0, 1), (3.0, 1.0), 1.3)
        with pytest.raises(BranchResidualError, match=want):
            plane._inverse_branch_grid([0, 0], [1, 1], [3.0, 2.5], [1.0, -1.0], 1.3)


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
        m, n = np.array(poles, dtype=np.int64).reshape(-1, 2).T
        return plane._inverse_branch_grid(m, n, wx, wy, lam)

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
        def shifted(fx, fy, z, odd, lam):
            tx, ty, tz, finite = core._tile_map_grid(fx, fy, z, odd, lam)
            return tx + 1e-3, ty, tz, finite

        monkeypatch.setattr(plane, "_tile_map_grid", shifted)
        with pytest.raises(BranchResidualError, match=r"\(3\.0, 1\.0\).*lam=1\.3.*residual"):
            self._grid([(0, 1)] * 2, np.array([3.0, 2.5]), np.array([1.0, -1.0]), 1.3)

    def test_empty_batch(self):
        x, y = self._grid([], np.array([]), np.array([]), 1.0)
        assert x.shape == y.shape == (0,)


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

    @pytest.mark.parametrize("lam", [0.9, 2.0])
    def test_preimages_of_infinity_are_the_pole_locations(self, lam):
        # the unfold of a tile centre is i*pi/2 exactly, so each pole of the
        # closed box comes back as pole_location's floats, in tile order:
        # on boxes whose edges lie on the lattice (of width 0 too) and on
        # boxes near coordinates of 1e6
        rng = np.random.default_rng(433)
        for k in range(200):
            if k % 2:
                i0, j0 = (int(v) for v in rng.integers(-8, 8, 2))
                di, dj = (int(v) for v in rng.integers(0, 4, 2))
                box = (i0 * HALF_PI, (i0 + di) * HALF_PI, j0 * HALF_PI, (j0 + dj) * HALF_PI)
            else:
                x0, y0 = rng.choice([-1.0, 1.0], 2) * rng.uniform(1e6 - 10.0, 1e6 + 10.0, 2)
                box = (x0, x0 + rng.uniform(0.0, 5.0), y0, y0 + rng.uniform(0.0, 5.0))
            want = []
            for i in range(math.floor(box[0] / HALF_PI) - 1, math.ceil(box[1] / HALF_PI) + 2):
                for j in range(math.floor(box[2] / HALF_PI) - 1, math.ceil(box[3] / HALF_PI) + 2):
                    if (i + j) % 2:
                        x, y = pole_location(((i - j + 1) // 2, (i + j - 1) // 2)).tolist()
                        if box[0] <= x <= box[1] and box[2] <= y <= box[3]:
                            want.append(np.array([x, y, 0.0]))
            _assert_same(preimages_tangent3(INFINITY, lam, box), want)

    @pytest.mark.parametrize("lam", [0.9, 2.0])
    def test_box_edge_on_a_negative_mirror(self, lam):
        # boxes whose lower x or y edge lies on a mirror -(k + 1/2) pi/2,
        # which the odd fold gives to the tile below it, and targets on the
        # sphere |w| = lam, whose chart points lie on tile edges: the box's
        # scan finds the points a scan of a wider box finds inside it, the
        # lower tile's point on the edge among them
        rng = np.random.default_rng(439)
        angles = np.concatenate([np.arange(8) * QUARTER_PI, rng.uniform(0.0, 2 * math.pi, 8)])
        units = rng.normal(size=(6, 3))
        units /= np.linalg.norm(units, axis=1)[:, None]
        targets = [lam * np.array([math.cos(a), math.sin(a), 0.0]) for a in angles]
        targets += list(lam * units)
        on_edge = 0
        for k in range(4):
            lo = -(k + 0.5) * HALF_PI
            assert plane._tiles(lo, lo) == range(-k - 1, -k)
            for box in ((lo, lo + 2.0, -1.0, 1.0), (-1.0, 1.5, lo, lo + 1.0), (lo, -lo, lo, -lo)):
                wide = (box[0] - 1.7, box[1] + 1.7, box[2] - 1.7, box[3] + 1.7)
                for t in targets:
                    want = [p for p in preimages_tangent3(t, lam, wide)
                            if box[0] <= p[0] <= box[1] and box[2] <= p[1] <= box[3]]
                    _assert_same(preimages_tangent3(t, lam, box), want)
                    on_edge += sum(p[0] == lo or p[1] == lo for p in want)
        assert on_edge > 20

    @pytest.mark.parametrize("box", [(-0.5, 1.0, -0.3, 0.3), (QUARTER_PI, 1.0, -0.3, 0.3),
                                     (-0.5, QUARTER_PI, -0.3, 0.3)])
    def test_point_on_a_mirror_comes_once(self, box):
        # (pi/4, 0) lies on the mirror between tiles 0 and 1: both unfold to it
        _assert_same(preimages_tangent3((2.0, 0.0, 0.0), 2.0, box),
                     [np.array([QUARTER_PI, 0.0, 0.0])])

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
        ratio = branch_contraction_ratio((0, 0), pairs, lam)
        assert ratio <= bound

    def test_degenerate_pair_skipped(self):
        w = pole_location((0, 3)) + np.array([0.2, 0.1])
        ratio = branch_contraction_ratio((0, 0), [(w, w)], 1.0)
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
        assert pole_expansion_ratio(pairs, lam) >= 2.0 - 0.01

    def test_pairs_straddling_pole_expand(self):
        lam = 1.0
        c = pole_location((0, 0))
        cal = calibrate_expansion(lam)
        d = 0.5 * cal.eps
        pairs = [(c + np.array([d, 0]), c - np.array([d, 0])),
                 (c + np.array([0, d]), c - np.array([0, d]))]
        assert pole_expansion_ratio(pairs, lam) >= 2.0

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
    CERT_LAMS = (0.5, 0.9, 1.0, 1.1107, 1.5, 2.0, 3.0)

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
        # delta grows with lam until it reaches pi/4, and eps with delta
        record = [calibrate_expansion(lam).eps for lam in (0.5, 1.0, 1.5, 2.0, 3.0)]
        assert record[0] < record[1] < record[2] < record[3] == record[4] < math.pi / 4

    def test_calibration_draws_nothing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("calibrate_expansion made a random generator")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(plane, "_CALIBRATION_CACHE", {})
        assert calibrate_expansion(1.3).lam == 1.3

    def test_tiny_lambda_raises(self):
        # delta ~ sqrt(lam) lies beyond the bisection's 200 halvings of pi/4
        for lam in (1e-120, 1e-200):
            with pytest.raises(RuntimeError, match=f"lam={lam}"):
                calibrate_expansion(lam)
        assert calibrate_expansion(1e-30).delta == pytest.approx(6.58e-16, rel=1e-2)

    # calibrate_expansion(lam) field by field (lam, delta, r1, eps,
    # far_field_bound, branch_radius, domain_radius), from the closed forms
    PINNED = {
        0.9: ("0x1.ccccccccccccdp-1", "0x1.38f28f461249dp-1", "0x1.ff09e0f31188cp+0",
              "0x1.c613b82d72c93p-3", "0x1.6c6244e9c99d8p+2", "0x1.d5f0fe18818e2p+2",
              "0x1.921fb54b01ed6p+0"),
        1.0: ("0x1.0000000000000p+0", "0x1.48ca85b33e120p-1", "0x1.0c65c1591b566p+1",
              "0x1.df65e58cff277p-3", "0x1.7f1f367e2aa99p+2", "0x1.e8adeface29a2p+2",
              "0x1.921fb54b01ed6p+0"),
        1.1107: ("0x1.1c56d5cfaacdap+0", "0x1.5925c1738d5bap-1", "0x1.19dff167e2df0p+1",
                 "0x1.f9ed5ddb9ef23p-3", "0x1.92cbac12425a4p+2", "0x1.fc5a6540fa4aep+2",
                 "0x1.921fb54b01ed6p+0"),
        2.0: ("0x1.0000000000000p+1", "0x1.921fb54442d18p-1", "0x1.a6fb8c82f304fp+1",
              "0x1.2ce7999800d8ap-2", "0x1.2f90b53e1f6ffp+3", "0x1.645811d57b684p+3",
              "0x1.921fb54b01ed6p+0"),
    }

    @pytest.mark.parametrize("lam", sorted(PINNED))
    def test_calibration_pinned(self, lam):
        cal = calibrate_expansion(lam)
        got = tuple(float(getattr(cal, f)).hex() for f in
                    ("lam", "delta", "r1", "eps", "far_field_bound", "branch_radius",
                     "domain_radius"))
        assert got == self.PINNED[lam]

    @pytest.mark.parametrize("lam", CERT_LAMS)
    def test_far_field_bound_is_the_sup(self, lam):
        # |F| = lam*cot(m) on the pole's odd tile: the bound is reached at the
        # four diagonal points at distance eps and exceeded nowhere on the
        # diamond minus the eps-ball
        cal = calibrate_expansion(lam)
        cx, cy = pole_location((0, 0))
        s = cal.eps / SQRT2
        fx, fy, _, _ = core.tangent3_grid(cx + np.array([s, -s, -s, s]),
                                          cy + np.array([s, s, -s, -s]), 0.0, lam)
        diagonal = np.hypot(fx, fy)
        assert diagonal.max() <= cal.far_field_bound * (1.0 + 1e-12)
        assert diagonal.min() >= cal.far_field_bound * (1.0 - 1e-12)
        u, v = (a.ravel() for a in np.meshgrid(*2 * [np.linspace(-HALF_PI, HALF_PI, 801)]))
        keep = (np.abs(u) + np.abs(v) < HALF_PI) & (np.hypot(u, v) >= cal.eps)
        fx, fy, _, finite = core.tangent3_grid(cx + u[keep], cy + v[keep], 0.0, lam)
        assert finite.all()
        assert np.hypot(fx, fy).max() <= cal.far_field_bound * (1.0 + 1e-12)

    @pytest.mark.parametrize("lam", CERT_LAMS)
    def test_branch_radius_claim(self, lam):
        # every pole of norm in (branch_radius, branch_radius + pi]: points
        # just inside its diamond's boundary, where |w| is least, pull back
        # into the eps-ball about the base pole (one engine pass per 16 poles)
        cal = calibrate_expansion(lam)
        reach = int((cal.branch_radius + math.pi) / HALF_PI) + 2
        poles = [pole_location((m, n)) for m in range(-reach, reach + 1)
                 for n in range(-reach, reach + 1)]
        poles = np.array([p for p in poles
                          if cal.branch_radius < np.linalg.norm(p) <= cal.branch_radius + math.pi])
        corners = HALF_PI * (1.0 - 1e-9) * np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [1, 0]])
        t = ((np.arange(2000) + 0.5) / 2000)[:, None]
        edge = np.concatenate([(1.0 - t) * a + t * b for a, b in zip(corners, corners[1:])])
        cx, cy = pole_location((0, 0))
        for i in range(0, len(poles), 16):
            w = (poles[i:i + 16, None] + edge).reshape(-1, 2)
            x, y = plane._inverse_branch_grid(0, 0, w[:, 0], w[:, 1], lam)
            assert np.hypot(x - cx, y - cy).max() < cal.eps

    @pytest.mark.parametrize("lam", CERT_LAMS)
    def test_delta_minimises_over_the_angle(self, lam):
        # the least singular value on the circle of radius rho, over a dense
        # grid of c = max(|cos|, |sin|) of the angle (the polar form of DF):
        # its root in rho is no smaller than delta
        c = np.linspace(1.0 / SQRT2, 1.0, 65_537)
        b_over_a = np.sqrt(1.0 - c * c) / c

        def expands(rho):
            m = rho * c
            s = np.sin(m)
            a = c / (s * s)
            d = np.cos(m) / (s * rho)
            b = a * b_over_a
            smin = 2.0 * lam * a * d / (np.hypot(a + d, b) + np.hypot(a - d, b))
            return float(smin.min()) >= 2.0

        grid = QUARTER_PI if expands(QUARTER_PI) else core._bisect(expands, 0.0, QUARTER_PI)
        assert calibrate_expansion(lam).delta <= grid

    @pytest.mark.parametrize("lam", CERT_LAMS)
    def test_delta_ball_polar_grid(self, lam):
        # the least singular value of DF, from its Cartesian closed form, on
        # 20 001 angles x 400 radii up to delta
        cal = calibrate_expansion(lam)
        cx, cy = pole_location((0, 0))
        t = (np.arange(20_001) + 0.5) * (2.0 * math.pi / 20_001)
        worst = math.inf
        for j in range(0, 400, 20):
            rho = cal.delta / 400 * np.arange(j + 1, j + 21)[:, None]
            a, b, c, d = plane._jacobian_grid(cx + rho * np.cos(t), cy + rho * np.sin(t), lam)
            worst = min(worst, float(singular_values_2x2(a, b, c, d)[0].min()))
        assert worst >= 2.0

    def test_delta_leaves_a_margin_on_the_check_grid(self):
        # expansion-calibration's 16 radii x 256 half-step angles at the
        # lambda of least margin among 400 from 0.2 to 4, where one angle
        # falls near the minimising one: delta taken inside the bisection
        # root keeps sigma_min above 2 by more than rounding can take away
        lam = float(np.linspace(0.2, 4.0, 400)[55])
        cal = calibrate_expansion(lam)
        cx, cy = pole_location((0, 0))
        t = (np.arange(256) + 0.5) * (2.0 * math.pi / 256)
        rho = cal.delta / 16 * np.arange(1, 17)[:, None]
        smin = singular_values_2x2(*plane._jacobian_grid(
            cx + rho * np.cos(t), cy + rho * np.sin(t), lam))[0].min()
        assert smin - 2.0 >= 1e-12

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
# the box preimage enumerator, the gate-free cycle solver and the inline
# Newton stencil as they were before they were merged, kept verbatim as the
# reference: the merged engine must give the same floats, bit for bit

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
                    raise itinerary._cycle_failure(
                        spec.cycle, lam, "composed branch map is not contracting: the fifth "
                        "step in a row that did not shrink went from "
                        f"{prev_step:.3e} to {step:.3e}")
            else:
                noncontract = 0
        prev_step = step
        if step < 1e-13:
            break
    y = _reference_newton_polish(y, spec.cycle, lam)
    orbit, residual, bad = _forward_cycle(y, spec.cycle, lam)
    if orbit is None:
        raise itinerary._cycle_failure(spec.cycle, lam, bad)
    return PeriodicPoint(point=y, period=len(spec.cycle), residual=residual, orbit=orbit)


def _forward_cycle(y, cycle, lam):
    """Forward-run one period; returns (orbit, residual, None), or (None,
    inf, why) when the period hits a pole or, failing that, an orbit point
    leaves its diamond (the first one)."""
    orbit = [np.array(y)]
    p = np.array(y)
    for _ in cycle:
        p = plane_map(p, lam)
        if is_infinity(p):
            return None, math.inf, "the fixed point's orbit hits a pole within one period"
        orbit.append(p)
    for j, (q, idx) in enumerate(zip(orbit, cycle)):
        at = containing_diamond(q)
        if at != idx:
            where = "on the diagonal grid" if at is None else f"in diamond {tuple(at)}"
            return None, math.inf, (f"the fixed point's orbit leaves diamond {tuple(idx)}: "
                                    f"point {j} ({q[0]:.17g}, {q[1]:.17g}) lies {where}")
    return orbit[:-1], vec_norm(orbit[0] - p), None


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


# The closed-form branch point against the old route, the Mobius pullback,
# hemisphere chart and family scan of ``_reference_inverse_branch`` and
# ``_reference_float_inverse_branch`` (which return the same bytes), kept as
# the oracle.  Where the old point keeps BAND from the diamond's boundary the
# two agree within ULP_BUDGET ulp of the pole's larger coordinate (at most 2
# over 40 000 random targets at |m|, |n| <= 6).  Inside the band the old scan
# could keep a candidate up to 1e-9 outside the diamond, on its far side (a
# tiny target at pole (1, 0) went to (-1.8e-285, -5.9e-286), by the vertex
# at the origin, where the closed form gives (pi, -5.9e-286)), so there the
# closed form is held to the closed diamond itself, within the same budget.
BAND = 1e-9
ULP_BUDGET = 4


def _closed_form_vs_old_route(q, w, lam, got, want):
    """Compare inverse_branch's outcome ``got`` with the old route's ``want``
    (values, or (exception type, message)) for target w into diamond q.

    Returns where the pair fell: "raised" (the same exception class),
    "off band", "band", "new only" (the old scan found no float within
    1e-9 and the closed form did) or "old only" (the reverse).  A "new
    only" point is held to what the engine certifies: F on its exact
    offset in the tile frame is within 1e-9 of w, and the returned float
    is that offset's unfold, bit for bit (the float's own forward image
    can miss w by more: 1.04e-9 at a pole near 1e6), or it is the pole.
    """
    lx, ly = plane._pole_xy(*q)
    budget = ULP_BUDGET * math.ulp(max(abs(lx), abs(ly)))
    if isinstance(want, tuple) and isinstance(got, tuple):
        assert got[0] is want[0]
        return "raised"
    if isinstance(got, tuple):
        assert got[0] is BranchResidualError
        return "old only"
    if isinstance(want, tuple):
        assert want[0] is BranchResidualError
        assert _tile_frame_residual(q, w, lam, got) <= 1e-9
        assert abs(got[0] - lx) + abs(got[1] - ly) <= HALF_PI + budget
        return "new only"
    assert got.dtype == want.dtype and got.shape == want.shape == (2,)
    if abs(want[0] - lx) + abs(want[1] - ly) < HALF_PI - BAND:
        assert np.abs(got - want).max() <= budget, (q, w, lam)
        return "off band"
    assert abs(got[0] - lx) + abs(got[1] - ly) <= HALF_PI + budget, (q, w, lam)
    return "band"


def _tile_frame_residual(q, w, lam, got):
    """The residual that certifies inverse_branch's point ``got`` for target
    w into diamond q: the chordal gap from F on the closed form's offset,
    in the tile frame, to w where ``got`` is that offset's unfold bit for
    bit, else chordal(w, INFINITY) after asserting that ``got`` is the
    pole (past about 1e16 the two can round to the same floats)."""
    wx, wy = float(w[0]), float(w[1])
    mu, odd = plane._branch_angle(wx, wy, lam)
    ti, tj, qx, qy = plane._branch_point(q[1] + q[0], q[1] - q[0] + 1, wx, wy, mu, odd, max)
    if got.tobytes() == np.array(plane._unfold(ti, tj, qx, qy)).tobytes():
        image = core._tile_map(qx, qy, 0.0, odd, lam)
        return chordal(INFINITY if image is None else image, [wx, wy, 0.0])
    assert got.tobytes() == pole_location(q).tobytes()
    return chordal(INFINITY, [wx, wy, 0.0])


def _preimages_match(target, lam, box, got, want):
    """Compare preimages_tangent3's outcome ``got`` with the family form's
    ``want`` (``_reference_preimages_tangent3``) for target in box.

    Every reference point has a returned partner at the same height within
    ULP_BUDGET ulp of its larger coordinate (the family form rounds an odd
    tile's point as (pi - a)/2 + k*pi, the unfold as (2k + 1)*pi/2 - a/2),
    and every returned point lies in the box and passes the forward check.
    Returns whether the counts agree.
    """
    if isinstance(want, tuple):
        assert got == want
        return True
    x0, x1, y0, y1 = box
    for p in want:
        budget = ULP_BUDGET * math.ulp(max(abs(p[0]), abs(p[1])))
        assert any(g[2] == p[2] and max(abs(g[0] - p[0]), abs(g[1] - p[1])) <= budget
                   for g in got), (target, lam, box, p)
    for g in got:
        assert x0 <= g[0] <= x1 and y0 <= g[1] <= y1
        assert chordal(tangent3(g, lam), target) < 1e-9
    return len(got) == len(want)


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

    def test_inverse_branch_matches_reference(self):
        rng = np.random.default_rng(223)
        cases = [(q, w, lam) for lam in self.LAMS for q, w in self._branch_cases(rng, lam, 600)]
        where, errors = set(), set()
        for q, w, lam in cases:
            got = _outcome(inverse_branch, q, w, lam)
            if is_infinity(w):
                _assert_same(got, pole_location(q))
                continue
            want = _outcome(_reference_inverse_branch, q, w, lam)
            if isinstance(want, tuple):
                errors.add(want[0])
            where.add(_closed_form_vs_old_route(q, w, lam, got, want))
        assert errors == {BranchDomainError}  # exact segment points
        assert where == {"raised", "off band", "band"}

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
            same = _preimages_match(target, lam, box,
                                    _outcome(preimages_tangent3, target, lam, box), want)
            # on a lattice edge the unfold lands on the pole, which the
            # family form can round out of the box
            assert same or i % 3 == 0
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
        # the array-level old route on every kind of target: the same
        # exception classes, the same point within the ulp budget off the
        # boundary band, and no RuntimeWarning where the old route warned
        rng = np.random.default_rng(313)
        errors, where = set(), set()
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
                    want = _outcome(_reference_inverse_branch, q, w, lam)
                warned += any(issubclass(c.category, RuntimeWarning) for c in caught)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = _outcome(inverse_branch, q, w, lam)
                if is_infinity(w):
                    _assert_same(got, pole_location(q))
                    continue
                if isinstance(want, tuple):
                    errors.add(want[0])
                else:
                    pole_wins += got.tobytes() == pole_location(q).tobytes()
                where.add(_closed_form_vs_old_route(q, w, lam, got, want))
        assert errors == {BranchDomainError, ValueError}
        assert where == {"raised", "off band", "band"}
        assert warned > 50 and pole_wins > 300

    def test_reference_chordal_covers_the_sampled_range(self):
        # the old route's residuals are only an oracle where its metric is
        # right: plane points from 1e-300 to 1e308 against nearby, unrelated
        # and infinite ones, so (1 + |p|^2)(1 + |q|^2) overflows beyond
        # |p| |q| ~ 1e154 and |p|^2 itself beyond 1.34e154; the hypot
        # fallback keeps it within 4 ulp of chordal's value throughout
        rng = np.random.default_rng(331)
        worst = 0.0
        for i in range(6000):
            p = np.array([*_polar(rng, 10.0 ** rng.uniform(-300.0, 308.0)), 0.0])
            kind = i % 3
            if kind == 0:
                q = p * (1.0 + rng.normal() * 10.0 ** rng.uniform(-15.0, -1.0))
            elif kind == 1:
                q = np.array([*_polar(rng, 10.0 ** rng.uniform(-300.0, 308.0)), 0.0])
            else:
                q = INFINITY
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # numpy's overflow in the oracle
                want = _reference_chordal(p, q)
            got = chordal(p, q)
            assert abs(want - got) <= 4 * math.ulp(got), (p, q)
            worst = max(worst, abs(want - got) / math.ulp(got))
        assert worst > 0.0  # the oracle sums by dot: it is no copy of chordal


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
    candidates = _reference_float_branch_candidates(
        *core.cayley_inverse((x, y, 0.0)).tolist(), lx, ly)
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
    """``inverse_branch`` evaluates one closed-form point and prices the pole
    from the target: the old route's point within the ulp budget, only the
    work its answer needs, and integer pole indices only."""

    LAMS = (0.5, 0.9, 1.0, 2.0, 3.0)
    # below this every pole folds onto its tile centre (a property of
    # tangent3); the engines price a pole in the tile frame at any norm
    BOUND = 2.0 ** 40

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
        # far beyond it the fold can miss the centre, which the tile frame
        # of the branch engines never reads
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
        # past the bound a diamond spans few floats, and the old scan's
        # float candidates often miss w by more than 1e-9; the closed form,
        # checked on its exact offset in the tile frame, never fails, and
        # wherever the old scan succeeded it gives the old point within the
        # ulp budget
        pole_wins = 0
        where = []
        for q, w, lam in cases:
            lx, ly = plane._pole_xy(*q)
            assert max(abs(lx), abs(ly)) >= self.BOUND
            got = inverse_branch(q, w, lam)
            want = _outcome(_reference_float_inverse_branch, q, w, lam)
            where.append(_closed_form_vs_old_route(q, w, lam, got, want))
            x, y = plane._inverse_branch_grid(*q, w[0], w[1], lam)
            pole_wins += got.tobytes() == pole_location(q).tobytes()
            assert struct.pack("2d", x[0], y[0]) == got.tobytes()
        assert pole_wins > 50
        assert "old only" not in where and where.count("new only") > 100

    def test_forward_evaluations_are_the_candidates(self, monkeypatch):
        evaluated, unfolded = [], []
        engine, unfold = core._tile_map, plane._unfold

        def counting(fx, fy, z, odd, lam):
            evaluated.append((fx, fy))
            return engine(fx, fy, z, odd, lam)

        def recording(ti, tj, qx, qy):
            unfolded.append(((qx, qy), unfold(ti, tj, qx, qy)))
            return unfolded[-1][1]

        monkeypatch.setattr(plane, "_tile_map", counting)
        monkeypatch.setattr(plane, "_unfold", recording)
        rng = np.random.default_rng(419)
        for i in range(600):
            lam = self.LAMS[i % len(self.LAMS)]
            # poles of norm 1 to 1e16 (the pole priced from the target alone)
            q = tuple(int(v) for v in rng.integers(-6, 7, 2))
            if i % 2:
                q = (q[0], q[1] * int(10.0 ** rng.uniform(0.0, 16.0)))
            w = _polar(rng, 10.0 ** rng.uniform(-6.0, 30.0))
            del evaluated[:], unfolded[:]
            got = inverse_branch(q, w, lam)
            # the closed-form offset alone, never the pole itself; the point
            # returned is that offset's unfold
            assert len(evaluated) == 1
            if got.tobytes() != pole_location(q).tobytes():
                assert [o for o, _ in unfolded] == evaluated
                assert got.tobytes() == np.array(unfolded[0][1]).tobytes()
            del evaluated[:]
            inverse_branch(q, INFINITY, lam)
            assert evaluated == []

    @pytest.mark.parametrize("lam", [0.9, 1.0, 2.0])
    @pytest.mark.parametrize("scale", [1e7, 1e10, 1e13, 1e16])
    def test_far_poles_reach_every_target(self, lam, scale):
        # poles (0, n), n in [N, 2N] (norm about 2.2n), and |w| from 0.1 to
        # 100: the float point's own residual misses 1e-9 at most of these
        # (271 of 300 at N = 1e7, all beyond 1e10), the tile frame at none
        rng = np.random.default_rng([round(math.log10(scale)), round(10 * lam)])
        n = (scale * rng.uniform(1.0, 2.0, 60)).astype(np.int64)
        ws = [_polar(rng, 10.0 ** rng.uniform(-1.0, 2.0)) for _ in n]
        x, y = plane._inverse_branch_grid(0, n, *np.array(ws).T, lam)
        for k, w in enumerate(ws):
            q = (0, int(n[k]))
            got = inverse_branch(q, w, lam)
            assert struct.pack("2d", x[k], y[k]) == got.tobytes()
            assert _tile_frame_residual(q, w, lam, got) <= 1e-9
            lx, ly = plane._pole_xy(*q)
            assert abs(got[0] - lx) + abs(got[1] - ly) <= HALF_PI + 4 * math.ulp(ly)

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
        # hemisphere charts by the old route; |w| from 1e150 to 1e308 (beyond
        # ~1.3e154 the pole's residual takes the hypot branch); and |w| from
        # 1e-300 to 1e-200, where |image - w|^2 underflows and the residual
        # comes from hypot.  Those tiny targets land on a diamond vertex, in
        # the band, where the old scan's tied residuals picked its first
        # candidate, at either vertex; the closed form takes the vertex whose
        # triangle holds w's direction.  At poles near 1e6, where the fold
        # keeps about 10 digits of a point near a tile centre, the closed
        # form also reaches some targets of |w| near 1e-3 that the old scan
        # missed by more than 1e-9; checked in the tile frame it reaches
        # every target, where the unfolded float's own residual did not
        rng = np.random.default_rng(421)
        where = []
        two_chart = 0
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
            if is_infinity(w):
                _assert_same(got, pole_location(q))
                continue
            where.append((kind, _closed_form_vs_old_route(
                q, w, lam, got, _outcome(_reference_float_inverse_branch, q, w, lam))))
            if kind == 1:
                two_chart += abs(core.cayley_inverse((w[0] / lam, w[1] / lam, 0.0))[2]) <= 1e-12
        assert {k: {c for j, c in where if j == k} for k in range(4)} == {
            0: {"off band", "new only"}, 1: {"off band"}, 2: {"off band"}, 3: {"band"}}
        assert where.count((3, "band")) == 500 and two_chart > 400

    def test_enumerator_matches_references(self):
        # boxes of every width about poles of index up to 1e6 (coordinates
        # up to about 3e6), and targets near infinity, near the equator of
        # the chart (|w| = lam on the plane) and generic
        rng = np.random.default_rng(431)
        found = counted = 0
        for i in range(600):
            hx, hy = 10.0 ** rng.uniform(-3.0, 1.5, 2)
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
            same = _preimages_match(target, lam, box,
                                    _outcome(preimages_tangent3, target, lam, box), want)
            if max(map(abs, box)) < 1e6:  # beyond, either form can miss 1e-9
                assert same
                counted += 1
            found += len(want)
        assert found > 300 and counted > 100

"""Tests for the map evaluation layer: charts, folding, Mobius pieces and
the tangent map itself."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrtan import core, plane
from qrtan.core import (
    INFINITY,
    _beam_formula,
    as_vec3,
    chordal,
    fold_axis,
    fold_to_beam,
    hemisphere_to_square,
    invert_sphere,
    is_infinity,
    iterate,
    cayley,
    cayley_inverse,
    square_to_hemisphere,
    tangent3,
    tangent3_composed,
    tangent3_grid,
    vec_norm,
    zorich,
)

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4


def bisect(f, lo, hi, n=200):
    """Sign-change bisection; the independent scalar root oracle."""
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


class TestSquareToHemisphere:
    def test_origin_maps_to_north_pole(self):
        np.testing.assert_allclose(square_to_hemisphere(0, 0), [0, 0, 1])

    def test_edge_midpoint(self):
        np.testing.assert_allclose(square_to_hemisphere(HALF_PI, 0), [1, 0, 0],
                                   atol=1e-15)

    def test_corner_direction(self):
        got = square_to_hemisphere(QUARTER_PI, QUARTER_PI)
        np.testing.assert_allclose(got, [0.5, 0.5, math.sqrt(2) / 2], atol=1e-15)

    def test_unit_norm_and_upper(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            x, y = rng.uniform(-HALF_PI, HALF_PI, 2)
            u = square_to_hemisphere(x, y)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12
            assert u[2] >= -1e-15

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            square_to_hemisphere(2.0, 0.0)


class TestHemisphereToSquare:
    def test_north_pole(self):
        assert hemisphere_to_square([0, 0, 1]) == (0.0, 0.0)

    def test_equator_point(self):
        x, y = hemisphere_to_square([1, 0, 0])
        assert abs(x - HALF_PI) < 1e-12 and y == 0.0

    def test_roundtrip_random_hemisphere(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            v = rng.normal(size=3)
            v[2] = abs(v[2])
            v /= np.linalg.norm(v)
            x, y = hemisphere_to_square(v)
            back = square_to_hemisphere(x, y)
            worst = max(worst, float(np.linalg.norm(back - v)))
        assert worst < 1e-9

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            hemisphere_to_square([0.5, 0, 0.5])

    def test_rejects_lower_hemisphere(self):
        with pytest.raises(ValueError):
            hemisphere_to_square([0.6, 0, -0.8])


class TestFolding:
    def test_interior_untouched(self):
        f = fold_to_beam(0.1, -0.2)
        assert (f.x, f.y, f.parity) == (0.1, -0.2, 0)

    def test_single_reflection(self):
        f = fold_to_beam(HALF_PI, 0.0)
        assert abs(f.x) < 1e-15 and f.y == 0.0 and f.parity == 1

    def test_double_reflection_cancels(self):
        f = fold_to_beam(HALF_PI, HALF_PI)
        assert abs(f.x) < 1e-15 and abs(f.y) < 1e-15 and f.parity == 0

    def test_folded_in_closed_square(self):
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(-40, 40, size=(2000, 2)):
            f = fold_to_beam(x, y)
            assert abs(f.x) <= QUARTER_PI + 1e-12
            assert abs(f.y) <= QUARTER_PI + 1e-12

    def test_reflection_composition_recovers_input(self):
        # the fold differs from the input by the reflection group: unfolding
        # by mirror images must land back on the original point
        rng = np.random.default_rng(5)
        for x in rng.uniform(-20, 20, 200):
            f, = (fold_to_beam(x, 0.0),)
            # x is either f.x or a mirror image of it shifted by k*pi/2 tiles
            k = round((x - f.x) / HALF_PI)
            alt = round((x + f.x) / HALF_PI)
            assert (abs(f.x + k * HALF_PI - x) < 1e-9 and k % 2 == 0) or \
                   (abs(-f.x + alt * HALF_PI - x) < 1e-9 and alt % 2 == 1)


class TestZorich:
    def test_base_value(self):
        np.testing.assert_allclose(zorich([0, 0, 0]), [0, 0, 1])

    def test_exponential_scaling(self):
        np.testing.assert_allclose(zorich([0, 0, math.log(2)]), [0, 0, 2])

    def test_one_reflection_flips_hemisphere(self):
        np.testing.assert_allclose(zorich([math.pi, 0, 0]), [0, 0, -1], atol=1e-15)

    def test_norm_is_exp_z(self):
        rng = np.random.default_rng(13)
        for v in rng.uniform(-5, 5, size=(500, 3)):
            n = np.linalg.norm(zorich(v))
            assert abs(n - math.exp(v[2])) <= 1e-12 * math.exp(v[2])

    def test_never_zero(self):
        rng = np.random.default_rng(17)
        for v in rng.uniform(-3, 3, size=(200, 3)):
            assert np.linalg.norm(zorich(v)) > 0

    def test_overflow_raises(self):
        with pytest.raises(OverflowError):
            zorich([0, 0, 1000.0])


class TestCayley:
    def test_origin(self):
        np.testing.assert_allclose(cayley([0, 0, 0]), [0, 0, -1])

    def test_pole_of_the_map(self):
        assert is_infinity(cayley([0, 0, -1]))

    def test_infinity(self):
        np.testing.assert_allclose(cayley(INFINITY), [0, 0, 1])

    def test_unit_x_fixed(self):
        np.testing.assert_allclose(cayley([1, 0, 0]), [1, 0, 0], atol=1e-15)

    def test_plane_to_unit_sphere(self):
        rng = np.random.default_rng(19)
        for x, y in rng.uniform(-50, 50, size=(500, 2)):
            u = cayley([x, y, 0.0])
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12

    def test_inverse_examples(self):
        assert is_infinity(cayley_inverse([0, 0, 1]))
        np.testing.assert_allclose(cayley_inverse([0, 0, -1]), [0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(cayley_inverse(INFINITY), [0, 0, -1])

    def test_roundtrip_chordal(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for p in rng.uniform(-10, 10, size=(1000, 3)):
            q = cayley(cayley_inverse(p))
            worst = max(worst, chordal(p, q))
            q2 = cayley_inverse(cayley(p))
            worst = max(worst, chordal(p, q2))
        assert worst < 1e-10


class TestInvertSphere:
    def test_basic(self):
        np.testing.assert_allclose(invert_sphere([2, 0, 0]), [0.5, 0, 0])
        np.testing.assert_allclose(invert_sphere([0, 1, 0]), [0, 1, 0])
        np.testing.assert_allclose(invert_sphere([1, 1, 0]), [0.5, 0.5, 0])

    def test_involution_and_norm_product(self):
        rng = np.random.default_rng(29)
        for v in rng.uniform(-5, 5, size=(300, 3)):
            if np.linalg.norm(v) < 1e-6:
                continue
            w = invert_sphere(v)
            assert abs(np.linalg.norm(w) * np.linalg.norm(v) - 1) < 1e-12
            np.testing.assert_allclose(invert_sphere(w), v, rtol=1e-12, atol=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            invert_sphere([0, 0, 0])


class TestTangent3:
    def test_axis_is_tanh(self):
        got = tangent3([0, 0, 1.0])
        np.testing.assert_allclose(got, [0, 0, math.tanh(1.0)], atol=1e-15)

    def test_pole(self):
        assert is_infinity(tangent3([0.0, HALF_PI, 0.0]))

    def test_zero(self):
        np.testing.assert_allclose(tangent3([HALF_PI, HALF_PI, 0.0]), [0, 0, 0],
                                   atol=1e-15)

    def test_eighth_pi_matches_real_tangent(self):
        got = tangent3([math.pi / 8, 0, 0])
        assert abs(got[0] - (math.sqrt(2) - 1)) < 1e-14
        assert got[1] == 0.0 and got[2] == 0.0

    def test_scaling_parameter(self):
        v = [0.3, 0.1, 0.4]
        np.testing.assert_allclose(tangent3(v, 2.5), 2.5 * tangent3(v, 1.0),
                                   rtol=1e-15)

    def test_large_z_does_not_overflow(self):
        for z in (400.0, 1000.0, -1000.0):
            got = tangent3([0.2, 0.1, z])
            np.testing.assert_allclose(got, [0, 0, math.copysign(1.0, z)],
                                       atol=1e-12)

    def test_periodicity(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for v in rng.uniform(-10, 10, size=(10_000, 3)):
            base = tangent3(v)
            for shift in ([math.pi, 0, 0], [0, math.pi, 0]):
                worst = max(worst, chordal(base, tangent3(v + np.array(shift))))
        assert worst < 1e-10

    def test_reflection_equivariance(self):
        rng = np.random.default_rng(37)
        worst = 0.0
        for v in rng.uniform(-10, 10, size=(3000, 3)):
            img = tangent3(v)
            for axis in range(3):
                r = np.ones(3)
                r[axis] = -1.0
                mirrored = tangent3(r * v)
                if is_infinity(img):
                    assert is_infinity(mirrored)
                else:
                    worst = max(worst, chordal(mirrored, r * img))
        assert worst < 1e-10

    def test_embedded_complex_tangent(self):
        import cmath
        rng = np.random.default_rng(41)
        worst = 0.0
        for a, b in rng.uniform(-10, 10, size=(3000, 2)):
            w = cmath.tan(complex(a, b))
            worst = max(worst, chordal(tangent3([a, 0, b]),
                                       np.array([w.real, 0.0, w.imag])))
            worst = max(worst, chordal(tangent3([0, a, b]),
                                       np.array([0.0, w.real, w.imag])))
        assert worst < 1e-10

    def test_omitted_values_and_limits(self):
        rng = np.random.default_rng(43)
        for v in rng.uniform(-10, 10, size=(2000, 3)):
            img = tangent3(v)
            if is_infinity(img):
                continue
            assert np.linalg.norm(img - [0, 0, 1]) > 0
            assert np.linalg.norm(img - [0, 0, -1]) > 0
        for x, y in rng.uniform(-10, 10, size=(200, 2)):
            assert np.linalg.norm(tangent3([x, y, 20.0]) - [0, 0, 1]) < 1e-8
            assert np.linalg.norm(tangent3([x, y, -20.0]) - [0, 0, -1]) < 1e-8

    def test_half_space_sign_preserved(self):
        rng = np.random.default_rng(47)
        for v in rng.uniform(-10, 10, size=(3000, 3)):
            if v[2] == 0:
                continue
            img = tangent3(v)
            assert math.copysign(1, img[2]) == math.copysign(1, v[2])

    def test_agrees_with_composed_form(self):
        rng = np.random.default_rng(53)
        worst = 0.0
        used = 0
        while used < 10_000:
            v = rng.uniform(-5, 5, 3)
            fx = fold_to_beam(v[0], v[1])
            if min(QUARTER_PI - abs(fx.x), QUARTER_PI - abs(fx.y)) < 1e-6:
                continue
            used += 1
            worst = max(worst, chordal(tangent3(v), tangent3_composed(v)))
        assert worst < 1e-9

    def test_axis_action_scaled(self):
        rng = np.random.default_rng(59)
        for lam in (0.5, 1.0, 2.0):
            for z in rng.uniform(-20, 20, 500):
                got = tangent3([0, 0, z], lam)
                assert np.linalg.norm(got - [0, 0, lam * math.tanh(z)]) < 1e-12


class TestIterate:
    def test_fixed_origin(self):
        orbit = iterate([0, 0, 0], 1.0, 5)
        assert len(orbit) == 5
        for p in orbit:
            np.testing.assert_allclose(p, [0, 0, 0], atol=1e-15)

    def test_truncates_at_pole(self):
        orbit = iterate([0, HALF_PI, 0], 1.0, 3)
        assert len(orbit) == 1 and is_infinity(orbit[0])

    def test_converges_to_axis_fixed_point(self):
        # oracle: bisection on 2*tanh(t) = t over [1, 3]
        xi = bisect(lambda t: 2 * math.tanh(t) - t, 1.0, 3.0)
        orbit = iterate([0, 0, 0.5], 2.0, 50)
        assert np.linalg.norm(orbit[-1] - [0, 0, xi]) < 1e-9

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            iterate([0, 0, 0], 1.0, 0)


class TestGridEvaluation:
    def test_matches_scalar(self):
        rng = np.random.default_rng(61)
        pts = rng.uniform(-8, 8, size=(500, 3))
        tx, ty, tz, finite = tangent3_grid(pts[:, 0], pts[:, 1], pts[:, 2], 1.3)
        for i, v in enumerate(pts):
            got = tangent3(v, 1.3)
            assert finite[i] == (not is_infinity(got))
            if finite[i]:
                assert chordal(got, np.array([tx[i], ty[i], tz[i]])) < 1e-12

    def test_pole_flagged(self):
        tx, ty, tz, finite = tangent3_grid(np.array([0.0]), np.array([HALF_PI]),
                                           np.array([0.0]))
        assert not finite[0]

    def test_plane_stays_plane(self):
        rng = np.random.default_rng(67)
        x = rng.uniform(-10, 10, 1000)
        y = rng.uniform(-10, 10, 1000)
        _, _, tz, finite = tangent3_grid(x, y, np.zeros_like(x))
        assert np.all(tz[finite] == 0.0)

    def test_plane_path_takes_scalar_zero(self):
        rng = np.random.default_rng(71)
        x = rng.uniform(-10, 10, 1000)
        y = rng.uniform(-10, 10, 1000)
        x[:3], y[:3] = (0.0, HALF_PI, math.pi), (HALF_PI, 0.0, HALF_PI)  # poles
        tx, ty, tz, finite = tangent3_grid(x, y, 0.0, 0.8)
        assert finite.dtype == bool and not finite[:3].any() and finite[3:].all()
        assert np.all(tz[finite] == 0.0) and np.all(tz[~finite] == np.inf)
        for got, want in zip((tx, ty, finite), plane.plane_map_grid(x, y, 0.8)):
            assert np.array_equal(got, want)

    def test_reciprocal_floor_is_the_overflow_threshold(self):
        floor = core._RECIP_FLOOR
        with np.errstate(over="ignore"):
            assert np.isinf(np.float64(1.0) / floor)
        assert math.isfinite(1.0 / math.nextafter(floor, 1.0))

    # |b|^2 is subnormal at these points: fx = fy = 0 and the third
    # component, or the planar one, is about 1e-157
    EVEN_TILE_TINY = [(0.0, 0.0, 1.6e-156), (0.0, 0.0, -3e-160), (math.pi, 0.0, 1e-157),
                      (HALF_PI, HALF_PI, 2e-158), (1e-157, 0.0, 0.0), (0.0, -4e-158, 0.0)]
    ODD_TILE_TINY = [(1e-156, HALF_PI, 0.0), (HALF_PI, -3e-157, 0.0),
                     (math.pi, HALF_PI, 1e-157), (0.0, HALF_PI, -2e-158),
                     (-1e-157, HALF_PI, 1e-157), (HALF_PI, 1e-160, 0.0)]

    @pytest.mark.parametrize("points", [EVEN_TILE_TINY, ODD_TILE_TINY],
                             ids=["even_tiles", "odd_tiles"])
    def test_subnormal_norm_silent_and_equal_to_scalar(self, points):
        pts = np.array(points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tangent3_grid(pts[:, 0], pts[:, 1], pts[:, 2], 1.7)
            want = [tangent3(p, 1.7) for p in pts]
        assert got[3].all()
        for i, w in enumerate(want):
            assert not is_infinity(w)
            np.testing.assert_allclose([got[0][i], got[1][i], got[2][i]], w,
                                       rtol=1e-12, atol=0.0)
        flat = pts[:, 2] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            on_plane = tangent3_grid(pts[flat, 0], pts[flat, 1], 0.0, 1.7)
        for a, b in zip(on_plane, got):
            assert np.array_equal(a, b[flat])


class TestChordal:
    def test_infinity_cases(self):
        assert chordal(INFINITY, INFINITY) == 0.0
        assert abs(chordal([0, 0, 0], INFINITY) - 2.0) < 1e-15
        assert chordal([1e12, 0, 0], INFINITY) < 1e-11

    def test_bounded_by_two(self):
        rng = np.random.default_rng(71)
        for _ in range(200):
            p, q = rng.uniform(-100, 100, size=(2, 3))
            assert chordal(p, q) <= 2.0 + 1e-12

    def test_near_pole_image_is_finite(self):
        p = tangent3((1e-156, HALF_PI, 0.0))
        assert abs(float(p[0])) > 1e155  # |p|^2 overflows
        with np.errstate(over="ignore"):  # the squared-norm expression overflows first
            for q in (np.zeros(3), np.array([3.0, -2.0, 1.0])):
                d = chordal(p, q)  # 2 for q = 0
                assert math.isfinite(d) and math.isclose(d, chordal(INFINITY, q), rel_tol=1e-12)
                assert math.isclose(chordal(q, p), d, rel_tol=1e-15)
            assert chordal(p, p) == 0.0

    def test_matches_squared_norm_formula_below_overflow(self):
        def reference(p, q):
            d = p - q
            return 2.0 * math.sqrt(float(d @ d)) / math.sqrt((1.0 + float(p @ p))
                                                             * (1.0 + float(q @ q)))

        rng = np.random.default_rng(73)
        for _ in range(5000):
            p = rng.normal(size=3) * 10.0 ** rng.uniform(-300.0, 150.0)
            q = rng.normal(size=3) * 10.0 ** rng.uniform(-300.0, 150.0)
            assert chordal(p, q) == reference(p, q)


# ---------------------------------------------------------------------------
# the scalar path before its per-call overhead was removed, kept verbatim as
# the reference: the current code must give the same floats, bit for bit

def _reference_as_vec3(v):
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("finite point required; use INFINITY for the point at infinity")
    return a


def _reference_tangent3(v, lam=1.0):
    v = _reference_as_vec3(v)
    fold = fold_to_beam(float(v[0]), float(v[1]))
    bx, by, bz = _beam_formula(fold.x, fold.y, float(v[2]))
    if fold.parity:
        n2 = bx * bx + by * by + bz * bz
        if n2 == 0.0:
            return INFINITY
        bx, by, bz = bx / n2, by / n2, bz / n2
    return np.array([lam * bx, lam * by, lam * bz])


def _reference_plane_map(p, lam=1.0):
    t = _reference_tangent3(np.array([float(p[0]), float(p[1]), 0.0]), lam)
    if is_infinity(t):
        return INFINITY
    return np.array([t[0], t[1]])


def _assert_same(got, want):
    if is_infinity(want):
        assert is_infinity(got)
        return
    assert not is_infinity(got)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _awkward_points(rng):
    """Seeded points on every special locus of the scalar path."""
    pts = [rng.uniform(-10.0, 10.0, 3) for _ in range(2000)]
    for m in range(-3, 4):  # pole lattice
        for n in range(-3, 4):
            pts.append(np.array([(n + m) * HALF_PI, (n - m + 1) * HALF_PI, 0.0]))
    for k in range(-6, 6):  # mirror lines x, y = (2k+1)pi/4
        mirror = (2 * k + 1) * QUARTER_PI
        for y, z in rng.uniform(-4.0, 4.0, size=(20, 2)):
            pts.append(np.array([mirror, y, z]))
            pts.append(np.array([y, mirror, z]))
            pts.append(np.array([mirror, y, 0.0]))
    for t, k, j, z in zip(rng.uniform(-QUARTER_PI, QUARTER_PI, 300),
                          rng.integers(-4, 5, 300), rng.integers(-4, 5, 300),
                          rng.uniform(-3.0, 3.0, 300)):  # tile diagonals
        sign = 1.0 if k % 2 else -1.0
        pts.append(np.array([t + k * HALF_PI, sign * t + j * HALF_PI, z]))
        pts.append(np.array([t + k * HALF_PI, sign * t + j * HALF_PI, 0.0]))
    for x, y, z in zip(rng.uniform(-10, 10, 300), rng.uniform(-10, 10, 300),
                       rng.uniform(-800.0, 800.0, 300)):  # sech^2 underflow
        pts.append(np.array([x, y, z]))
    pts += [np.array([0.0, 0.0, 0.0]), np.array([0.0, 0.0, 800.0]),
            np.array([0.0, 0.0, -745.0]), np.array([1e-300, -1e-300, 0.0]),
            np.array([-0.0, 0.0, -0.0])]
    return pts


class TestScalarPathBitIdentity:
    LAMS = (0.9, 1.0, 2.0, 1.1107)

    def test_tangent3_matches_reference(self):
        rng = np.random.default_rng(101)
        pts = _awkward_points(rng)
        poles = 0
        for lam in self.LAMS:
            for v in pts:
                want = _reference_tangent3(v, lam)
                poles += is_infinity(want)
                _assert_same(tangent3(v, lam), want)
        assert poles == 49 * len(self.LAMS)  # the lattice points hit their poles

    def test_plane_map_matches_reference(self):
        rng = np.random.default_rng(103)
        for lam in self.LAMS:
            for v in _awkward_points(rng):
                _assert_same(plane.plane_map(v[:2], lam), _reference_plane_map(v[:2], lam))

    @pytest.mark.parametrize("v", [[1, 2, 3], (0, 0, 0), [0, 1, 0], (2, -1, 1),
                                   np.array([1, 2, 3]), [1.5, True, 0]])
    def test_integer_and_list_inputs(self, v):
        for lam in (1.0, 2, 0.9):
            _assert_same(tangent3(v, lam), _reference_tangent3(v, lam))
            _assert_same(plane.plane_map(list(v)[:2], lam),
                         _reference_plane_map(list(v)[:2], lam))
        _assert_same(as_vec3(v), _reference_as_vec3(v))

    @pytest.mark.parametrize("v", [[math.nan, 0, 0], [0, math.inf, 0], [0, 0, -math.inf],
                                   [1, 2], [1, 2, 3, 4], [[1, 2, 3]], 5.0, []])
    def test_rejects_like_reference(self, v):
        with pytest.raises(ValueError) as want:
            _reference_as_vec3(v)
        for fn in (as_vec3, tangent3):
            with pytest.raises(ValueError) as got:
                fn(v)
            assert str(got.value) == str(want.value)

    def test_vec_norm_matches_numpy(self):
        rng = np.random.default_rng(107)
        for n in (2, 3):
            for v in rng.normal(size=(5000, n)) * rng.uniform(1e-6, 1e6, (5000, 1)):
                assert vec_norm(v) == float(np.linalg.norm(v))


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(-1e4, 1e4), half=st.sampled_from([QUARTER_PI, HALF_PI, 0.1, 3.0]))
    def test_fold_axis_reflects_into_tile(self, x, half):
        f, parity = fold_axis(x, half)
        tol = 1e-12 * max(1.0, abs(x))
        assert -half - tol <= f <= half + tol
        unfolded = f if parity == 0 else -f
        k = round((x - unfolded) / (2.0 * half))
        assert abs(x - unfolded - k * 2.0 * half) <= tol
        assert k % 2 == parity

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(-HALF_PI, HALF_PI), y=st.floats(-HALF_PI, HALF_PI))
    def test_chart_round_trip(self, x, y):
        got = hemisphere_to_square(square_to_hemisphere(x, y))
        assert abs(got[0] - x) < 1e-12 and abs(got[1] - y) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(-50.0, 50.0), y=st.floats(-50.0, 50.0), z=st.floats(-5.0, 5.0),
           lam=st.floats(0.1, 5.0))
    def test_grid_agrees_with_scalar(self, x, y, z, lam):
        tx, ty, tz, finite = tangent3_grid(np.array([x]), np.array([y]), np.array([z]), lam)
        want = tangent3(np.array([x, y, z]), lam)
        assert bool(finite[0]) == (not is_infinity(want))
        if finite[0]:
            assert chordal(np.array([tx[0], ty[0], tz[0]]), want) < 1e-12

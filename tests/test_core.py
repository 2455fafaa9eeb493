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
    chordal_grid,
    fold_axis,
    fold_axis_grid,
    hemisphere_to_square,
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

    @pytest.mark.parametrize("u", [[math.nan, 0.0, 1.0], [0.0, 0.0, math.nan],
                                   [math.inf, 0.0, 0.0]])
    def test_rejects_non_finite(self, u):
        with pytest.raises(ValueError, match="unit vector"):
            hemisphere_to_square(u)


def fold_to_beam(x, y):
    """(fx, fy, parity): (x, y) folded into the fundamental square
    [-pi/4, pi/4]^2 by ``fold_axis``, with the total reflection count mod 2."""
    fx, px = fold_axis(x, QUARTER_PI)
    fy, py = fold_axis(y, QUARTER_PI)
    return fx, fy, (px + py) % 2


class TestFolding:
    def test_interior_untouched(self):
        assert fold_to_beam(0.1, -0.2) == (0.1, -0.2, 0)

    def test_single_reflection(self):
        fx, fy, parity = fold_to_beam(HALF_PI, 0.0)
        assert abs(fx) < 1e-15 and fy == 0.0 and parity == 1

    def test_double_reflection_cancels(self):
        fx, fy, parity = fold_to_beam(HALF_PI, HALF_PI)
        assert abs(fx) < 1e-15 and abs(fy) < 1e-15 and parity == 0

    def test_folded_in_closed_square(self):
        rng = np.random.default_rng(3)
        for x, y in rng.uniform(-40, 40, size=(2000, 2)):
            fx, fy, _ = fold_to_beam(x, y)
            assert abs(fx) <= QUARTER_PI + 1e-12
            assert abs(fy) <= QUARTER_PI + 1e-12

    def test_reflection_composition_recovers_input(self):
        # the fold differs from the input by the reflection group: unfolding
        # by mirror images must land back on the original point
        rng = np.random.default_rng(5)
        for x in rng.uniform(-20, 20, 200):
            fx, _, _ = fold_to_beam(x, 0.0)
            # x is either fx or a mirror image of it shifted by k*pi/2 tiles
            k = round((x - fx) / HALF_PI)
            alt = round((x + fx) / HALF_PI)
            assert (abs(fx + k * HALF_PI - x) < 1e-9 and k % 2 == 0) or \
                   (abs(-fx + alt * HALF_PI - x) < 1e-9 and alt % 2 == 1)

    @pytest.mark.parametrize("span", [1e3, 1e19, 1e200])
    def test_grid_fold_is_silent_and_matches_scalar(self, span):
        # the tile parity is taken on floats, so tile indices beyond 2^63
        # neither warn nor lose their (even) parity
        rng = np.random.default_rng(int(math.log10(span)) + 11)
        x = rng.uniform(-span, span, 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            folded, odd = fold_axis_grid(x, QUARTER_PI)
        want = [fold_axis(float(v), QUARTER_PI) for v in x]
        assert odd.dtype == bool
        assert folded.tolist() == [f for f, _ in want]
        assert odd.tolist() == [p == 1 for _, p in want]


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

    @pytest.mark.parametrize("p", [[1e200, 0.0, 0.0], [0.0, 0.0, 1e200],
                                   [-1e200, 3e170, -1e300], [2e154, -2e154, 0.0]])
    def test_huge_point_tends_to_north_pole_without_warning(self, p):
        assert np.array_equal(cayley(p), [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("x,y", [(1e-160, 0.0), (0.0, -3e-156)])
    def test_points_next_to_the_pole_have_finite_images(self, x, y):
        # the squared distance to the pole is subnormal and its reciprocal
        # overflows; the image is still about (2/x, 2/y) off the axis, with
        # the last coordinate +1 for cayley and -1 for its inverse
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = cayley([x, y, -1.0]), cayley_inverse([x, y, 1.0])
        for got, w in ((a, 1.0), (b, -1.0)):
            assert np.isfinite(got).all()
            want = [2.0 / x if x else 0.0, 2.0 / y if y else 0.0, w]
            np.testing.assert_allclose(got, want, rtol=1e-3)

    def test_far_zorich_image_goes_to_north_pole(self):
        assert np.array_equal(cayley(zorich([0.3, 0.2, 400.0])), [0.0, 0.0, 1.0])

    def test_matches_numpy_scalar_arithmetic(self):
        # the formula on numpy float64 scalars, below the overflow of its squares
        def reference(p):
            p = np.asarray(p, dtype=float)
            d = p[0] * p[0] + p[1] * p[1] + (p[2] + 1.0) ** 2
            if d == 0.0:
                return INFINITY
            r = 1.0 / d
            return np.array([2.0 * r * p[0], 2.0 * r * p[1], 1.0 - 2.0 * r * (p[2] + 1.0)])

        rng = np.random.default_rng(29)
        pts = rng.normal(size=(3000, 3)) * 10.0 ** rng.uniform(-8, 150, (3000, 1))
        pts = [*pts, *rng.integers(-3, 4, size=(200, 3)), [1.0, 0.0, 0.0], [0.0, 0.0, -1.0],
               [-0.0, 0.0, -1.0], [1e-300, 0.0, -1.0]]
        for p in pts:
            _assert_same(cayley(p), reference(p))

    def test_roundtrip_chordal(self):
        rng = np.random.default_rng(23)
        worst = 0.0
        for p in rng.uniform(-10, 10, size=(1000, 3)):
            q = cayley(cayley_inverse(p))
            worst = max(worst, chordal(p, q))
            q2 = cayley_inverse(cayley(p))
            worst = max(worst, chordal(p, q2))
        assert worst < 1e-10


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
            fx, fy, _ = fold_to_beam(v[0], v[1])
            if min(QUARTER_PI - abs(fx), QUARTER_PI - abs(fy)) < 1e-6:
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
        _, _, tz, finite = tangent3_grid(x, y, 0.0, 0.8)
        assert finite.dtype == bool and not finite[:3].any() and finite[3:].all()
        assert np.all(tz[finite] == 0.0) and np.all(tz[~finite] == np.inf)

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


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


class TestKernelPlatformAssumptions:
    """Identities of the platform's arithmetic that tangent3_grid relies on
    for bit identity; a libm or numpy that breaks one fails here first."""

    def test_hypot_ignores_signs_and_order(self):
        rng = np.random.default_rng(83)
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-300,
                            1e300, -1e300, 1.0, -1.0])
        a = np.concatenate([rng.standard_normal(20000) * 10.0 ** rng.integers(-320, 300, 20000),
                            np.repeat(special, special.size)])
        b = np.concatenate([rng.standard_normal(20000) * 10.0 ** rng.integers(-320, 300, 20000),
                            np.tile(special, special.size)])
        b[:5000] = a[:5000] * rng.uniform(0.5, 2.0, 5000)  # comparable magnitudes
        want = _bits(np.hypot(a, b))
        assert np.array_equal(_bits(np.hypot(np.abs(b), np.abs(a))), want)
        hi = np.maximum(np.abs(a), np.abs(b))
        lo = np.minimum(np.abs(a), np.abs(b))
        assert np.array_equal(_bits(np.hypot(hi, lo)), want)

    def test_sign_product_fold_equals_select(self):
        rng = np.random.default_rng(89)
        # tile indices up to 2**52, where both parities occur, and beyond
        # 2**53, where every float index is even
        k = np.concatenate([rng.integers(-2**52, 2**52, 4000),
                            rng.integers(2**53, 2**62, 2000) * rng.choice([-1, 1], 2000)])
        x = np.concatenate([rng.uniform(-50.0, 50.0, 4000),
                            (k + rng.uniform(-0.5, 0.5, k.size)) * HALF_PI,
                            (k[:50] + 0.5) * HALF_PI, [0.0, -0.0, QUARTER_PI, -QUARTER_PI]])
        folded, odd = fold_axis_grid(x, QUARTER_PI)
        tile = np.floor((x + QUARTER_PI) / HALF_PI)
        u = x - tile * HALF_PI
        assert np.array_equal(_bits(folded), _bits(np.where(odd, -u, u)))
        assert np.array_equal(odd, tile.astype(np.int64) % 2 != 0)
        assert odd.any() and not odd.all()


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
        for q in (np.zeros(3), np.array([3.0, -2.0, 1.0])):
            d = chordal(p, q)  # 2 for q = 0
            assert math.isfinite(d) and math.isclose(d, chordal(INFINITY, q), rel_tol=1e-12)
            assert math.isclose(chordal(q, p), d, rel_tol=1e-15)
        assert chordal(p, p) == 0.0

    def test_huge_points_keep_their_value_without_warning(self):
        # beyond ~1e154 a squared norm overflows; chordal gives what the
        # squared-norm arithmetic and its hypot fallback give with the
        # overflow silenced, and emits no RuntimeWarning (an error here).
        # The fallback takes over where the squared form is not finite and
        # positive, unless |p - q|^2 = 0, and for the distance to infinity
        # where |p|^2 overflows
        def reference(p, q):
            with np.errstate(over="ignore"):
                if is_infinity(q):
                    pp = float(p @ p)
                    if pp == math.inf:
                        return 2.0 / math.hypot(1.0, *p.tolist())
                    return 2.0 / math.sqrt(1.0 + pp)
                d = p - q
                dd = float(d @ d)
                dist = 2.0 * math.sqrt(dd) / math.sqrt((1.0 + float(p @ p))
                                                       * (1.0 + float(q @ q)))
            if 0.0 < dist < math.inf or dd == 0.0:
                return dist
            scaled = math.hypot(*d.tolist()) / math.hypot(1.0, *p.tolist())
            return 2.0 * scaled / math.hypot(1.0, *q.tolist())

        rng = np.random.default_rng(79)
        pairs = [(np.array([1e308, 0.0, 0.0]), np.array([-1e308, 0.0, 0.0])),
                 (np.array([1e153, 0.0, 0.0]), np.zeros(3)),
                 (np.array([1e160, 0.0, 0.0]), np.zeros(3))]
        for _ in range(3000):
            pairs.append((rng.normal(size=3) * 10.0 ** rng.uniform(150.0, 307.0),
                          rng.normal(size=3) * 10.0 ** rng.uniform(-5.0, 307.0)))
        for p, q in pairs:
            for a, b in ((p, q), (q, p), (p, p)):
                assert chordal(a, b) == reference(a, b)
            assert chordal(p, INFINITY) == chordal(INFINITY, p) == reference(p, INFINITY)

    def test_huge_point_is_not_at_infinity(self):
        # |p|^2 overflows, so the squared form of d(p, inf) reads 0.0; hypot
        # gives 2/|p|
        p = [1e160, 0.0, 0.0]
        assert math.isclose(chordal(p, INFINITY), 2e-160, rel_tol=1e-15)
        assert chordal(INFINITY, p) == chordal(p, INFINITY)
        got = chordal_grid(np.array([p, [np.inf, 0.0, 0.0]]).T,
                           np.array([[np.inf, 0.0, 0.0], p]).T)
        assert got.tolist() == [chordal(p, INFINITY)] * 2

    def test_distinct_points_are_not_at_distance_zero(self):
        # (1 + |p|^2)(1 + |q|^2) overflows while |p - q|^2 does not, so the
        # squared form reads 0.0 for two distinct points; hypot gives the value
        far = [1e150, 0.0, 0.0]
        near = [3e4, 0.0, 0.0]
        assert math.isclose(chordal(far, near), 6.666666662962963e-05, rel_tol=1e-15)
        assert math.isclose(chordal(far, near), chordal(INFINITY, near), rel_tol=1e-15)
        assert math.isclose(chordal(near, far), chordal(far, near), rel_tol=1e-15)
        assert math.isclose(chordal(far, [-1e150, 0.0, 0.0]), 4e-150, rel_tol=1e-15)
        assert chordal(far, far) == 0.0
        got = chordal_grid(np.array([far, far, far]).T,
                           np.array([near, [-1e150, 0.0, 0.0], far]).T)
        assert got.tolist() == [chordal(far, near), chordal(far, [-1e150, 0.0, 0.0]), 0.0]

    def test_close_points_are_not_at_distance_zero(self):
        # |p - q|^2 underflows to 0.0 for two distinct points; hypot gives
        # the value, and only p = q (signed zeros included) reads 0.0
        pairs = [([1e-170, 0.0, 0.0], [0.0, 0.0, 0.0]), ([0.0, 3e-200, -4e-200], [0.0] * 3),
                 ([1.0, 2e-300, 0.0], [1.0, 0.0, 0.0]), ([5e-324, 0.0, 0.0], [0.0, 0.0, 0.0]),
                 ([0.0, -0.0, 0.0], [-0.0, 0.0, 0.0])]
        want = [2e-170, 1e-199, 2e-300, 1e-323, 0.0]
        got = [chordal(p, q) for p, q in pairs]
        assert [math.isclose(g, w, rel_tol=1e-15) for g, w in zip(got, want)] == [True] * 5
        grid = chordal_grid(np.array([p for p, _ in pairs]).T, np.array([q for _, q in pairs]).T)
        assert grid.tolist() == got

    def test_grid_matches_scalar(self):
        # the grid sums squared norms left to right where chordal takes
        # numpy's dot, so values agree to rounding; infinity (any infinite
        # coordinate) and the hypot fallback agree exactly
        rng = np.random.default_rng(83)
        p = rng.normal(size=(3, 4000)) * 10.0 ** rng.uniform(-5.0, 300.0, (3, 4000))
        q = rng.normal(size=(3, 4000)) * 10.0 ** rng.uniform(-5.0, 300.0, (3, 4000))
        p[:, :40] = np.inf
        q[:, 20:60] = np.inf
        q[:, 100:140] = p[:, 100:140]
        got = chordal_grid(p, q)

        def point(a, i):
            return INFINITY if np.isinf(a[:, i]).any() else a[:, i]

        want = np.array([chordal(point(p, i), point(q, i)) for i in range(p.shape[1])])
        assert np.allclose(got, want, rtol=4e-16, atol=0.0)
        assert np.array_equal(got[:140], want[:140])
        assert got[100:140].tolist() == [0.0] * 40

    def test_matches_squared_norm_formula_below_overflow(self):
        def reference(p, q):
            d = p - q
            return 2.0 * math.sqrt(float(d @ d)) / math.sqrt((1.0 + float(p @ p))
                                                             * (1.0 + float(q @ q)))

        rng = np.random.default_rng(73)
        for _ in range(5000):
            p = rng.normal(size=3) * 10.0 ** rng.uniform(-300.0, 150.0)
            q = rng.normal(size=3) * 10.0 ** rng.uniform(-300.0, 150.0)
            want = reference(p, q)
            if want == 0.0 and (p - q).any():
                # (1 + |p|^2)(1 + |q|^2) overflowed or |p - q|^2 underflowed:
                # the value comes from hypot
                want = 2.0 * (math.hypot(*(p - q)) / math.hypot(1.0, *p)) / math.hypot(1.0, *q)
            assert chordal(p, q) == want


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
    fx, fy, parity = fold_to_beam(float(v[0]), float(v[1]))
    bx, by, bz = _beam_formula(fx, fy, float(v[2]))
    if parity:
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

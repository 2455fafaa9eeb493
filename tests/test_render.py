"""Tests for basin/escape-depth rendering and PPM output."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qrtan import analysis, render
from qrtan.analysis import SETTLE, petal_contains
from qrtan.core import fold_axis, fold_axis_grid, tangent3_grid
from qrtan.render import (
    _COMPACT_SHARE,
    _FATE_ORIGIN,
    _FATE_POLE,
    RenderConfig,
    _diamond_centers,
    _far,
    classify_plane_block,
    colorize_depth,
    colorize_fates,
    compute_escape_depth,
    encode_ppm,
    pixel_grid,
    render_basin,
    render_escape_depth,
    write_ppm,
)

QUARTER_PI = math.pi / 4
HALF_PI = math.pi / 2


class TestConfig:
    def test_defaults(self):
        cfg = RenderConfig(lam=2.0)
        assert cfg.window == (-QUARTER_PI, -QUARTER_PI, 3 * QUARTER_PI, 3 * QUARTER_PI)
        assert cfg.max_iter == 500
        assert cfg.depth_norm == 8.0  # 4 * lam

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError):
            RenderConfig(lam=1.0, window=(0, 0, 0, 1))

    @pytest.mark.parametrize("window", [(-1.0, -1.0, math.inf, 1.0),
                                        (-math.inf, -1.0, 1.0, 1.0),
                                        (-1.0, math.nan, 1.0, 1.0)])
    def test_rejects_non_finite_window(self, window):
        with pytest.raises(ValueError, match="finite"):
            RenderConfig(lam=1.0, window=window)

    @pytest.mark.parametrize("window,res", [((-1e308, -1e308, 1e308, 1e308), 1),
                                            ((-1.0, -1e308, 1.0, 1e308), 4),
                                            # the extent is finite, but not 7.5 times it
                                            ((-8e307, -1.0, 8e307, 1.0), 8)])
    def test_rejects_overflowing_extent(self, window, res):
        with pytest.raises(ValueError, match="window extent overflows"):
            RenderConfig(lam=1.0, window=window, width=res, height=res)

    def test_widest_window_has_finite_pixels(self):
        cfg = RenderConfig(lam=1.0, window=(-8e307, -1e-300, 8e307, 1e-300), width=1,
                           height=3)
        gx, gy = pixel_grid(cfg, 0, cfg.height)
        assert np.isfinite(gx).all() and np.isfinite(gy).all()

    @pytest.mark.parametrize("depth_norm", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_depth_norm(self, depth_norm):
        with pytest.raises(ValueError, match="positive and finite"):
            RenderConfig(lam=1.0, depth_norm=depth_norm)

    @pytest.mark.parametrize("max_iter", [0, -2])
    def test_rejects_bad_iteration_count(self, max_iter):
        with pytest.raises(ValueError, match="at least 1"):
            RenderConfig(lam=1.0, max_iter=max_iter)

    @pytest.mark.parametrize("field", ["threads"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_rejects_bad_work_split(self, field, value):
        with pytest.raises(ValueError, match="at least 1"):
            RenderConfig(lam=1.0, **{field: value})

    @pytest.mark.parametrize("knob", ["tol", "escape_run", "escape_norm"])
    def test_fate_rules_are_not_options(self, knob):
        # the fate rules are constants of analysis, not render options
        with pytest.raises(TypeError, match=knob):
            RenderConfig(lam=1.0, **{knob: 1})

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            RenderConfig(lam=1.0, width=0)

    @pytest.mark.parametrize("field", ["width", "height", "max_iter", "threads"])
    @pytest.mark.parametrize("value", [8.0, 10.5, True, np.bool_(True), "8", None])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            RenderConfig(lam=1.0, **{field: value})

    def test_accepts_numpy_integer_counts(self):
        cfg = RenderConfig(lam=1.0, width=np.int64(8), height=np.int32(6), max_iter=np.uint16(9),
                           threads=np.int8(2))
        assert all(type(getattr(cfg, f)) is int for f in ("width", "height", "max_iter", "threads"))
        assert render_basin(cfg).shape == (6, 8, 3)


class TestPixelGrid:
    def test_centres_and_orientation(self):
        cfg = RenderConfig(lam=1.0, window=(0.0, 0.0, 1.0, 1.0), width=4, height=4)
        gx, gy = pixel_grid(cfg, 0, 4)
        assert gx[0, 0] == 0.125 and gx[0, -1] == 0.875
        assert gy[0, 0] == 0.875 and gy[-1, 0] == 0.125  # row 0 is the top


class TestDeterminism:
    def test_threads_do_not_change_bytes(self):
        base = None
        for threads in (1, 3):
            cfg = RenderConfig(lam=0.9, width=96, height=64, max_iter=120,
                               threads=threads)
            img = render_basin(cfg)
            data = encode_ppm(img)
            if base is None:
                base = data
            assert data == base

    def test_repeat_runs_identical(self):
        cfg = RenderConfig(lam=1.1107, width=64, height=64, max_iter=150)
        assert np.array_equal(render_basin(cfg), render_basin(cfg))

    def test_escape_depth_threads_identical(self):
        a = compute_escape_depth(RenderConfig(lam=2.0, width=64, height=48,
                                              max_iter=80, threads=1))
        b = compute_escape_depth(RenderConfig(lam=2.0, width=64, height=48,
                                              max_iter=80, threads=4))
        assert np.array_equal(a, b)


def full_grid_classify(x, y, cfg, depth_only=False):
    """Reference loop: every pixel carried to max_iter through full-array
    masked passes, with the capture rule of ``analysis`` at call time and
    no escape rule.  classify_plane_block must match it bit for bit: its
    fate and when in a basin call, and with ``depth_only`` its depth in
    an escape-depth call."""
    shape = x.shape
    px = x.astype(float).copy()
    py = y.astype(float).copy()
    fate = np.zeros(shape, dtype=np.uint8)
    when = np.zeros(shape, dtype=np.int32)
    depth = np.zeros(shape, dtype=np.int32)
    run_origin = np.zeros(shape, dtype=np.int16)
    alive = np.ones(shape, dtype=bool)
    zeros = np.zeros(shape)
    with np.errstate(invalid="ignore"):
        for step in range(1, cfg.max_iter + 1):
            tx, ty, _, finite = tangent3_grid(px, py, zeros, cfg.lam)
            px = np.where(alive, tx, px)
            py = np.where(alive, ty, py)
            hit = alive & ~finite
            fate[hit] = _FATE_POLE
            when[hit] = step
            depth[hit & (depth == 0)] = step
            alive &= finite
            norm = np.hypot(px, py)
            run_origin = np.where(alive & (norm < analysis.CAPTURE_TOL), run_origin + 1, 0)
            captured = alive & (run_origin >= SETTLE)
            fate[captured] = _FATE_ORIGIN
            when[captured] = step
            alive &= ~captured
            inside = _reference_diamond_centers(px, py)
            depth[alive & inside & (norm > cfg.depth_norm) & (depth == 0)] = step
    when[alive] = cfg.max_iter
    return fate, when, depth


def _as_returned(reference, depth_only=False):
    """A reference loop's (fate, when, depth) as classify_plane_block
    returns it: a basin call tracks no depth and returns zeros."""
    fate, when, depth = reference
    return fate, when, depth if depth_only else np.zeros_like(depth)


# lam covering every fate a z = 0 render meets: origin captures (0.9),
# captures and undecided pixels (1.1107), undecided only (1.5, 2); every
# block adds pole hits
FATE_MIXES = [0.9, 1.1107, 1.5, 2.0]


def block_with_poles(cfg):
    """The image's pixel grid with three pixels moved onto poles."""
    gx, gy = pixel_grid(cfg, 0, cfg.height)
    for (i, j), pole in zip([(0, 0), (5, 7), (23, 31)],
                            [(0.0, HALF_PI), (HALF_PI, 0.0), (HALF_PI, math.pi)]):
        gx[i, j], gy[i, j] = pole  # pole hits at step 1
    return gx, gy


# (lam, depth_norm) with depth_norm above ESCAPE_NORM (50): --r-esc 51 to
# 200, and lam 13 and 20 at the default 4 * lam
ABOVE_ESCAPE_NORM = [(2.0, 51.0), (2.0, 60.0), (2.0, 100.0), (3.0, 200.0), (5.0, 80.0),
                     (1.5, 55.0), (13.0, None), (20.0, None)]


class TestLiveSet:
    """The loop drops decided pixels; no pixel's result may depend on
    which other pixels share its block or when they leave."""

    @pytest.mark.parametrize("lam", FATE_MIXES)
    def test_matches_full_grid_loop(self, lam):
        cfg = RenderConfig(lam=lam, width=32, height=24, max_iter=150)
        gx, gy = block_with_poles(cfg)
        expected = full_grid_classify(gx, gy, cfg)
        for got, want in zip(classify_plane_block(gx, gy, cfg), _as_returned(expected)):
            np.testing.assert_array_equal(got, want)
        _, _, depth = classify_plane_block(gx, gy, cfg, depth_only=True)
        want = full_grid_classify(gx, gy, cfg, depth_only=True)[2]
        np.testing.assert_array_equal(depth, want)

    @pytest.mark.parametrize("lam", FATE_MIXES)
    def test_basin_call_tracks_no_depth(self, monkeypatch, lam):
        # a basin call returns an all-zero depth and makes no depth_norm
        # test; the same block has an escape depth
        bounds = []

        def recording(px, py, mx, bound, sel):
            bounds.append(bound)
            return _far(px, py, mx, bound, sel)

        monkeypatch.setattr(render, "_far", recording)
        cfg = RenderConfig(lam=lam, width=32, height=24, max_iter=150)
        gx, gy = block_with_poles(cfg)
        depth = classify_plane_block(gx, gy, cfg)[2]
        assert depth.dtype == np.int32 and depth.shape == gx.shape
        assert not depth.any()
        assert cfg.depth_norm not in bounds
        assert classify_plane_block(gx, gy, cfg, depth_only=True)[2].any()
        assert cfg.depth_norm in bounds

    # the fixture only sets the rule, which each example sets afresh
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lam=st.floats(0.5, 3.0),
           x0=st.floats(-3.0, 3.0), y0=st.floats(-3.0, 3.0),
           span_x=st.floats(0.05, 3.0), span_y=st.floats(0.05, 3.0),
           width=st.integers(1, 24), height=st.integers(1, 24),
           max_iter=st.integers(1, 120),
           escape_factor=st.floats(0.1, 4.0))
    def test_early_stopped_depth_matches_full_classification(
            self, fate_rule, lam, x0, y0, span_x, span_y, width, height, max_iter,
            escape_factor):
        # escape_factor < 1 puts ESCAPE_NORM below depth_norm, where the
        # escape rule, if it ran, could end a pixel before its first passage
        fate_rule(ESCAPE_NORM=escape_factor * 4.0 * lam, ESCAPE_RUN=2)
        cfg = RenderConfig(lam=lam, window=(x0, y0, x0 + span_x, y0 + span_y),
                           width=width, height=height, max_iter=max_iter)
        gx, gy = pixel_grid(cfg, 0, height)
        _, _, full = full_grid_classify(gx, gy, cfg, depth_only=True)
        np.testing.assert_array_equal(compute_escape_depth(cfg), full)

    @pytest.mark.parametrize("depth_only", [False, True])
    @pytest.mark.parametrize("lam", FATE_MIXES)
    def test_pixels_independent_of_block(self, lam, depth_only):
        cfg = RenderConfig(lam=lam, width=32, height=24, max_iter=150)
        gx, gy = block_with_poles(cfg)
        block = classify_plane_block(gx, gy, cfg, depth_only=depth_only)
        assert np.count_nonzero(block[0] == _FATE_POLE) == 3
        assert len(np.unique(block[0])) >= 2

        order = np.random.default_rng(7).permutation(gx.size)
        shuffled = classify_plane_block(gx.ravel()[order], gy.ravel()[order], cfg,
                                        depth_only=depth_only)
        for whole, part in zip(block, shuffled):
            unshuffled = np.empty_like(part)
            unshuffled[order] = part
            np.testing.assert_array_equal(unshuffled.reshape(whole.shape), whole)

        rows = [classify_plane_block(gx[i:i + 1], gy[i:i + 1], cfg, depth_only=depth_only)
                for i in range(cfg.height)]
        for k, whole in enumerate(block):
            np.testing.assert_array_equal(np.concatenate([r[k] for r in rows]), whole)

    @pytest.mark.parametrize("depth_norm", [None, 60.0])
    def test_depth_render_looks_up_only_far_points(self, monkeypatch, depth_norm):
        # an escape-depth render runs no escape rule, so the diamond lookup
        # sees only points above depth_norm, also where depth_norm is above
        # ESCAPE_NORM (60 > 50)
        norms = []

        def recording(x, y):
            norms.append(np.hypot(x, y))
            return _diamond_centers(x, y)

        monkeypatch.setattr(render, "_diamond_centers", recording)
        cfg = RenderConfig(lam=2.0, width=32, height=32, max_iter=60, depth_norm=depth_norm)
        assert compute_escape_depth(cfg).any()
        seen = np.concatenate(norms)
        assert seen.size > 0
        assert (seen > cfg.depth_norm).all()

    @pytest.mark.parametrize("depth_norm", [None, 60.0])
    def test_basin_render_makes_no_diamond_lookup(self, monkeypatch, depth_norm):
        # a basin render runs no escape rule and tracks no depth, so it
        # never asks for diamond membership; an escape-depth render does
        calls = []

        def recording(x, y):
            calls.append(np.size(x))
            return _diamond_centers(x, y)

        monkeypatch.setattr(render, "_diamond_centers", recording)
        cfg = RenderConfig(lam=2.0, width=16, height=16, max_iter=20, depth_norm=depth_norm)
        render_basin(cfg)
        assert calls == []
        compute_escape_depth(cfg)
        assert calls

    @pytest.mark.parametrize("lam,depth_norm", ABOVE_ESCAPE_NORM)
    def test_depth_above_escape_norm_is_first_passage(self, lam, depth_norm):
        # every pixel's depth is its first passage above depth_norm, from
        # a loop that never runs the escape rule
        cfg = RenderConfig(lam=lam, width=32, height=32, max_iter=200, depth_norm=depth_norm)
        assert cfg.depth_norm > analysis.ESCAPE_NORM
        gx, gy = pixel_grid(cfg, 0, cfg.height)
        depth = compute_escape_depth(cfg)
        assert depth.any()
        np.testing.assert_array_equal(depth, full_grid_classify(gx, gy, cfg, depth_only=True)[2])

    def test_reads_fate_rule_when_called(self, fate_rule):
        # CAPTURE_TOL set out of reach takes the origin captures away, as
        # in the full-grid loop
        cfg = RenderConfig(lam=0.9, width=32, height=24, max_iter=150)
        gx, gy = block_with_poles(cfg)
        assert (classify_plane_block(gx, gy, cfg)[0] == _FATE_ORIGIN).any()
        fate_rule(CAPTURE_TOL=0.0)
        got = classify_plane_block(gx, gy, cfg)
        assert not (got[0] == _FATE_ORIGIN).any()
        for g, want in zip(got, _as_returned(full_grid_classify(gx, gy, cfg))):
            np.testing.assert_array_equal(g, want)

    @pytest.mark.parametrize("lam", [1.5, 2.0])
    def test_escape_rule_does_not_reach_a_basin_call(self, fate_rule, lam):
        # a short escape rule, which gave this block escapes while the
        # render ran it, leaves a basin call's arrays as they are
        cfg = RenderConfig(lam=lam, width=32, height=24, max_iter=150)
        gx, gy = block_with_poles(cfg)
        want = classify_plane_block(gx, gy, cfg)
        fate_rule(ESCAPE_NORM=5.0, ESCAPE_RUN=2)
        _assert_identical(classify_plane_block(gx, gy, cfg), want)

    def test_depth_only_retires_at_first_passage(self):
        cfg = RenderConfig(lam=2.0, width=32, height=32, max_iter=120)
        gx, gy = pixel_grid(cfg, 0, cfg.height)
        fate, when, depth = classify_plane_block(gx, gy, cfg, depth_only=True)
        passed = (fate == 0) & (depth > 0)
        assert passed.any()
        np.testing.assert_array_equal(when[passed], depth[passed])


# ---------------------------------------------------------------------------
# the grid kernel, the diamond lookup and the render loop as they were
# before they ran in place, kept as the reference: only the names changed,
# the diamond lookup returns membership alone, and the loop reads the
# capture rule of ``analysis`` and runs no escape rule.  The in-place code
# must give the same arrays, bit for bit

def _reference_fold_axis_grid(x, half_width):
    """Vectorized fold_axis; returns (folded, parity) arrays.  The fold of
    |x|, reflected on odd tiles and negated where x has its sign bit set."""
    width = 2.0 * half_width
    a = np.abs(x)
    k = np.floor((a + half_width) / width)
    u = a - k * width
    odd = (k.astype(np.int64) % 2) != 0
    return np.where(odd != np.signbit(x), -u, u), odd.astype(np.int64)


def _reference_tangent3_grid(x, y, z, lam: float = 1.0):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    fx, px = _reference_fold_axis_grid(x, QUARTER_PI)
    fy, py = _reference_fold_axis_grid(y, QUARTER_PI)
    m = np.maximum(np.abs(fx), np.abs(fy))
    th = np.tanh(z)
    e = np.exp(-np.abs(z))
    sech = 2.0 * e / (1.0 + e * e)
    s2 = sech * sech
    cm = np.cos(m)
    denom = cm * cm * s2 + th * th
    third = th / denom
    r = np.hypot(fx, fy)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(r > 0.0, cm * np.sin(m) * s2 / (r * denom), 0.0)
    bx = fx * f
    by = fy * f
    bz = third
    odd = ((px + py) % 2) == 1
    n2 = bx * bx + by * by + bz * bz
    pole = odd & (n2 == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(odd & ~pole, 1.0 / np.where(n2 > 0.0, n2, 1.0), 1.0)
    tx = lam * bx * inv
    ty = lam * by * inv
    tz = lam * bz * inv
    tx = np.where(pole, np.inf, tx)
    ty = np.where(pole, np.inf, ty)
    tz = np.where(pole, np.inf, tz)
    return tx, ty, tz, ~pole


def _reference_diamond_centers(x, y):
    u = x + y
    v = y - x
    n = np.round((u - HALF_PI) / math.pi)
    m = np.round((HALF_PI - v) / math.pi)
    cx = (n + m) * HALF_PI
    cy = (n - m + 1) * HALF_PI
    return (np.abs(x - cx) + np.abs(y - cy)) < HALF_PI


def _reference_classify_plane_block(x, y, cfg: RenderConfig, *, depth_only=False):
    shape = x.shape
    size = x.size
    fate = np.zeros(size, dtype=np.uint8)
    when = np.zeros(size, dtype=np.int32)
    depth = np.zeros(size, dtype=np.int32)
    zeros = np.zeros(size)
    idx = np.arange(size)
    px = x.astype(float).ravel()
    py = y.astype(float).ravel()
    run_origin = np.zeros(size, dtype=np.int16)
    nodepth = np.ones(size, dtype=bool)
    live = np.ones(size, dtype=bool)

    def retire(done, code, step):
        sel = idx[done]
        fate[sel] = code
        when[sel] = step

    for step in range(1, cfg.max_iter + 1):
        n_live = np.count_nonzero(live)
        if n_live == 0:
            break
        if (idx.size - n_live) * _COMPACT_SHARE >= idx.size:
            idx, px, py, run_origin, nodepth = (
                a[live] for a in (idx, px, py, run_origin, nodepth))
            live = np.ones(n_live, dtype=bool)
        px, py, _, finite = _reference_tangent3_grid(px, py, zeros[:idx.size], cfg.lam)
        hit = live & ~finite
        retire(hit, _FATE_POLE, step)
        depth[idx[hit & nodepth]] = step  # a pole hit tops any norm threshold
        px[hit] = py[hit] = 0.0  # inf placeholders would warn until compaction
        live &= finite
        norm = np.hypot(px, py)
        d_origin = norm  # z = 0 throughout
        run_origin = np.where(live & (d_origin < analysis.CAPTURE_TOL), run_origin + 1, 0)
        captured = live & (run_origin >= SETTLE)
        retire(captured, _FATE_ORIGIN, step)
        live &= ~captured
        newdepth = live & _reference_diamond_centers(px, py) & (norm > cfg.depth_norm) & nodepth
        depth[idx[newdepth]] = step
        nodepth &= ~newdepth
        if depth_only:
            when[idx[newdepth]] = step
            live &= ~newdepth
    when[idx[live]] = cfg.max_iter
    return fate.reshape(shape), when.reshape(shape), depth.reshape(shape)


def _assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w)


def _pole_lattice(k=6):
    n, m = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1))
    return ((n + m) * HALF_PI).ravel(), ((n - m + 1) * HALF_PI).ravel()


def _special_lines(rng, n=400):
    """Points on the mirror lines x, y = (2k+1)pi/4 and on the tile
    diagonals x +- y = k pi/2, where the fold and the max switch branch."""
    t = rng.uniform(-7.0, 7.0, n)
    k = rng.integers(-6, 7, n)
    mirror = (2 * k + 1) * QUARTER_PI
    diag = k * HALF_PI
    xs = np.concatenate([mirror, t, t, diag - t])
    ys = np.concatenate([t, mirror, diag + t, t])
    return xs, ys


class TestGridKernelBitIdentity:
    """tangent3_grid, _diamond_centers and classify_plane_block against
    the reference copies above: same values, dtypes and shapes."""

    LAMS = (0.5, 0.9, 1.1107, 1.5, 2.0, 3.0)

    @staticmethod
    def _kernel_pair(x, y, z, lam):
        with np.errstate(all="ignore"):  # the reference's own overflow warnings
            want = _reference_tangent3_grid(x, y, z, lam)
        return tangent3_grid(x, y, z, lam), want

    @pytest.mark.parametrize("span", [1.0, 10.0, 1e3, 1e8, 1e15])
    def test_seeded_points_match_reference(self, span):
        rng = np.random.default_rng(int(math.log10(span)) + 401)
        for zspan in (1e-3, 1.0, 30.0, 800.0):
            x = rng.uniform(-span, span, 3000)
            y = rng.uniform(-span, span, 3000)
            z = rng.uniform(-zspan, zspan, 3000)
            for lam in self.LAMS:
                _assert_identical(*self._kernel_pair(x, y, z, lam))

    def test_huge_coordinates_match_reference(self):
        # beyond about 1.4e19 the tile index leaves int64 and the reference
        # kernel's cast warns; the parity is still right there (such floats
        # are even)
        rng = np.random.default_rng(409)
        x = rng.uniform(-1e200, 1e200, 3000)
        y = rng.uniform(-1e200, 1e200, 3000)
        z = rng.uniform(-800.0, 800.0, 3000)
        with np.errstate(invalid="ignore"):
            for lam in (0.9, 2.0):
                _assert_identical(*self._kernel_pair(x, y, z, lam))

    def test_plane_with_scalar_zero_matches_reference(self):
        rng = np.random.default_rng(419)
        lx, ly = _pole_lattice()
        sx, sy = _special_lines(rng)
        for x, y in ((rng.uniform(-10, 10, 4000), rng.uniform(-10, 10, 4000)),
                     (rng.uniform(-1e12, 1e12, 4000), rng.uniform(-1e12, 1e12, 4000)),
                     (lx, ly), (sx, sy),
                     (rng.uniform(-7, 7, (40, 50)), rng.uniform(-7, 7, (40, 50)))):
            for lam in self.LAMS:
                with np.errstate(all="ignore"):
                    want = _reference_tangent3_grid(x, y, np.zeros_like(x), lam)
                _assert_identical(tangent3_grid(x, y, 0.0, lam), want)
        got, _ = self._kernel_pair(lx, ly, np.zeros_like(lx), 1.0)
        assert not got[3].any()  # every lattice point is a pole hit

    def test_lattice_and_special_lines_off_the_plane(self):
        rng = np.random.default_rng(431)
        for x, y in (_pole_lattice(), _special_lines(rng)):
            z = rng.uniform(-3.0, 3.0, x.size)
            z[::3] = 0.0
            for lam in self.LAMS:
                _assert_identical(*self._kernel_pair(x, y, z, lam))

    def test_broadcast_and_zero_dim_inputs_match_reference(self):
        rng = np.random.default_rng(439)
        x = rng.uniform(-5, 5, (1, 30))
        y = rng.uniform(-5, 5, (20, 1))
        for z in (0.5, rng.uniform(-2, 2, 30), 0.0):
            for lam in (0.9, 2.0):
                _assert_identical(*self._kernel_pair(x, y, z, lam))
        for p in ((0.3, -1.2, 0.7), (0.0, HALF_PI, 0.0), (2.0, 1.0, 0.0)):
            got, want = self._kernel_pair(*p, 1.3)
            assert all(np.shape(g) == () for g in got)
            _assert_identical(got, want)

    def test_diamond_centers_match_reference(self):
        rng = np.random.default_rng(433)
        sx, sy = _special_lines(rng)
        # the diamond edges x +- y = (k + 1/2) pi, where rounding ties
        t = rng.uniform(-7.0, 7.0, 400)
        e = (rng.integers(-6, 7, 400) + 0.5) * math.pi
        for x, y in ((rng.uniform(-50, 50, 4000), rng.uniform(-50, 50, 4000)),
                     (sx, sy), (t, e - t), (t, e + t), _pole_lattice()):
            _assert_identical([_diamond_centers(x, y)], [_reference_diamond_centers(x, y)])

    @pytest.mark.parametrize("depth_only", [False, True])
    @pytest.mark.parametrize("lam", LAMS)
    def test_classify_matches_reference(self, lam, depth_only):
        cfg = RenderConfig(lam=lam, width=32, height=24, max_iter=100)
        gx, gy = block_with_poles(cfg)
        want = _as_returned(
            _reference_classify_plane_block(gx, gy, cfg, depth_only=depth_only), depth_only)
        _assert_identical(classify_plane_block(gx, gy, cfg, depth_only=depth_only), want)
        rows = [classify_plane_block(gx[i:i + 1], gy[i:i + 1], cfg, depth_only=depth_only)
                for i in range(cfg.height)]
        _assert_identical([np.concatenate([r[k] for r in rows]) for k in range(3)], want)


class TestWorkingSet:
    """The loop streams an image's pixels through one working set (one per
    band with threads); no byte may depend on its size, which may cut the
    rows anywhere."""

    SMALL = 97  # odd, so refills cut the 32-wide rows at shifting offsets

    @pytest.mark.parametrize("depth_only", [False, True])
    @pytest.mark.parametrize("lam", FATE_MIXES)
    def test_small_set_matches_reference(self, monkeypatch, lam, depth_only):
        cfg = RenderConfig(lam=lam, width=32, height=24, max_iter=150)
        gx, gy = block_with_poles(cfg)
        default = classify_plane_block(gx, gy, cfg, depth_only=depth_only)
        want = _as_returned(_reference_classify_plane_block(gx, gy, cfg, depth_only=depth_only),
                            depth_only)
        monkeypatch.setattr(render, "_WORKING_SET", self.SMALL)
        got = classify_plane_block(gx, gy, cfg, depth_only=depth_only)
        _assert_identical(got, default)
        _assert_identical(got, want)

    @pytest.mark.parametrize("small", [False, True])
    def test_axes_broadcast_like_the_grid(self, monkeypatch, small):
        if small:
            monkeypatch.setattr(render, "_WORKING_SET", self.SMALL)
        cfg = RenderConfig(lam=1.1107, width=30, height=20, max_iter=120)
        gx, gy = pixel_grid(cfg, 0, cfg.height)
        for depth_only in (False, True):
            _assert_identical(
                classify_plane_block(gx[0], gy[:, :1], cfg, depth_only=depth_only),
                classify_plane_block(gx, gy, cfg, depth_only=depth_only))

    @pytest.mark.parametrize("threads", [1, 3])
    def test_small_set_renders_equal_default(self, monkeypatch, threads):
        basin = RenderConfig(lam=1.1107, width=40, height=30, max_iter=150)
        escape = RenderConfig(lam=2.0, width=40, height=30, max_iter=80)
        want = render_basin(basin), compute_escape_depth(escape)
        monkeypatch.setattr(render, "_WORKING_SET", self.SMALL)
        basin.threads = escape.threads = threads
        _assert_identical((render_basin(basin), compute_escape_depth(escape)), want)

    @pytest.mark.parametrize("small", [False, True])
    def test_pixels_select_from_the_block(self, monkeypatch, small):
        # a subset of the block's pixels, in any order, gets the values
        # those pixels have in the whole block
        if small:
            monkeypatch.setattr(render, "_WORKING_SET", self.SMALL)
        cfg = RenderConfig(lam=1.1107, width=30, height=20, max_iter=120)
        gx, gy = pixel_grid(cfg, 0, cfg.height)
        pixels = np.random.default_rng(11).permutation(gx.size)[:377]
        for depth_only in (False, True):
            whole = classify_plane_block(gx[0], gy[:, :1], cfg, depth_only=depth_only)
            _assert_identical(
                classify_plane_block(gx[0], gy[:, :1], cfg, depth_only=depth_only,
                                     pixels=pixels),
                [a.ravel()[pixels] for a in whole])

    @pytest.mark.parametrize("threads", [1, 3])
    def test_one_call_per_band_of_representatives(self, monkeypatch, threads):
        # one call per thread on the pixel axes, each running its share of
        # the representative pixels, fewer than the image's
        calls = []

        def recording(x, y, cfg, **kwargs):
            calls.append((np.shape(x), np.shape(y), kwargs["pixels"].tolist()))
            return classify_plane_block(x, y, cfg, **kwargs)

        monkeypatch.setattr(render, "classify_plane_block", recording)
        cfg = RenderConfig(lam=2.0, width=24, height=10, max_iter=40, threads=threads)
        render_basin(cfg)
        compute_escape_depth(cfg)
        reps = _representatives(cfg)[0]
        assert reps.size < 24 * 10
        bands = [b.tolist() for b in np.array_split(reps, threads)]
        assert sorted(calls) == sorted([((24,), (10, 1), b) for b in bands] * 2)

    def test_escape_render_kernel_calls(self, monkeypatch):
        # the 256x256 lambda = 2 escape render streams its 65 536 pixels
        # through few kernel calls, none over the working set
        sizes = []

        def counting(x, y, z, lam):
            sizes.append(np.size(x))
            return tangent3_grid(x, y, z, lam)

        monkeypatch.setattr(render, "tangent3_grid", counting)
        compute_escape_depth(RenderConfig(lam=2.0, width=256, height=256, max_iter=200))
        assert len(sizes) <= 350
        assert max(sizes) <= render._WORKING_SET


def _swap_probe_points(rng, span):
    """Seeded points for the swap tests: uniform in [-span, span]^2, the
    pole lattice, the tile edges (mirror lines), signed zeros beside
    mirrors and poles."""
    mx, my = _special_lines(rng, 200)
    lx, ly = _pole_lattice(4)
    zeros = np.array([0.0, -0.0, 0.0, -0.0, HALF_PI, -HALF_PI, QUARTER_PI, 3 * QUARTER_PI])
    signed = np.array([-0.0, 0.0, 0.0, -0.0, -0.0, 0.0, -0.0, 0.0])
    return (np.concatenate([rng.uniform(-span, span, 2000), mx, lx, zeros]),
            np.concatenate([rng.uniform(-span, span, 2000), my, ly, signed]))


def _near_diamond_edges(rng, n=4000, family=1):
    """Points within an ulp of the diamond edges x - y = k pi (``family``
    1) or x + y = k pi (-1), outside the depth threshold's disc as far
    points are: each y is +-(x - k pi) moved by at most one ulp."""
    k = rng.integers(-40, 41, n).astype(float)
    k[k == 0] = 1.0
    x = rng.uniform(-60.0, 60.0, n)
    y = family * (x - k * math.pi)
    step = rng.integers(-1, 2, n)
    y = np.where(step < 0, np.nextafter(y, -np.inf), np.where(step > 0, np.nextafter(y, np.inf), y))
    return x, y


class TestSwapEquivariance:
    """The map and the loop's rules commute with (x, y) -> (y, x) bit for
    bit, which lets a render classify one pixel per first-step class."""

    @pytest.mark.parametrize("span", [1.0, 10.0, 1e3, 1e6])
    def test_kernel_commutes_with_swap(self, span):
        rng = np.random.default_rng(int(math.log10(span)) + 701)
        x, y = _swap_probe_points(rng, span)
        for lam in (0.9, 1.1107, 2.0):
            for z in (0.0, rng.uniform(-3.0, 3.0, x.size)):
                tx, ty, tz, finite = tangent3_grid(x, y, z, lam)
                sx, sy, sz, sfinite = tangent3_grid(y, x, z, lam)
                _assert_identical((sx, sy, sz, sfinite), (ty, tx, tz, finite))
                # on the plane the lattice's pole hits are in the sample
                assert np.ndim(z) or not finite.all()

    def test_capture_rule_commutes_with_swap(self):
        rng = np.random.default_rng(709)
        x = np.concatenate([rng.uniform(-1e-6, 1e-6, 3000),
                            rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 300, 2000),
                            [0.0, -0.0, 5e-324, 1e-6, analysis.CAPTURE_TOL]])
        y = rng.permutation(x) * rng.choice([-1.0, 1.0], x.size)
        _assert_identical([np.hypot(y, x), np.maximum(np.abs(y), np.abs(x))],
                          [np.hypot(x, y), np.maximum(np.abs(x), np.abs(y))])

    def test_depth_rule_commutes_with_swap(self):
        rng = np.random.default_rng(719)
        x, y = _near_diamond_edges(rng)
        far_x, far_y = rng.uniform(-1e3, 1e3, (2, 4000))
        for a, b in ((x, y), (far_x, far_y), _pole_lattice()):
            _assert_identical([render._in_diamond(b, a)], [render._in_diamond(a, b)])
        # the lookup alone does not commute there: these points reach the
        # sliver where it rounds the two orders apart
        assert (_diamond_centers(x, y) != _diamond_centers(y, x)).any()
        # and the ordered lookup is the lookup wherever that sliver is not
        ok = _diamond_centers(x, y) == _diamond_centers(y, x)
        _assert_identical([render._in_diamond(x, y)[ok]], [_diamond_centers(x, y)[ok]])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _mirror_probe(rng, n=2000, half_width=QUARTER_PI):
    """Values where a fold's rounding can break its symmetry: the mirror
    lines (k + 1/2) 2 half_width as doubles and one ulp either side (3n),
    huge |v| (n), signed zeros and the extremes (9), then n uniform ones."""
    mirror = (rng.integers(-10**6, 10**6, n) + 0.5) * (2.0 * half_width)
    huge = 10.0 ** rng.uniform(15.0, 308.0, n) * rng.choice([-1.0, 1.0], n)
    edges = [0.0, -0.0, QUARTER_PI, -QUARTER_PI, 3 * QUARTER_PI, 5e-324, -5e-324,
             np.finfo(float).max, -np.finfo(float).max]
    return np.concatenate([mirror, np.nextafter(mirror, np.inf), np.nextafter(mirror, -np.inf),
                           huge, edges, rng.uniform(-10.0, 10.0, n)])


class TestSignFlipEquivariance:
    """The fold is odd, and the map and the loop's rules commute with
    negating either coordinate, as they do with the swap, bit for bit."""

    @pytest.mark.parametrize("half_width", [QUARTER_PI, HALF_PI])
    def test_fold_is_odd(self, half_width):
        # the mirror lines, one ulp either side, huge |v|, +-0 and the
        # extremes: -v folds to the negated value, bits and parity
        rng = np.random.default_rng(727)
        v = _mirror_probe(rng, 2000, half_width)
        f, odd = fold_axis_grid(v, half_width)
        g, godd = fold_axis_grid(-v, half_width)
        np.testing.assert_array_equal(_bits(g), _bits(-f))
        np.testing.assert_array_equal(godd, odd)
        assert (f == 0.0).any()  # exact tile centres, among the huge values
        # -0.0 stays -0.0; the scalar fold gives the grid's bits
        assert np.signbit(fold_axis_grid(np.array([-0.0]), half_width)[0]).all()
        for x, fx, ox in zip(v[::7].tolist(), f[::7].tolist(), odd[::7].tolist()):
            assert fold_axis(x, half_width) == (fx, int(ox))
            assert math.copysign(1.0, fold_axis(x, half_width)[0]) == math.copysign(1.0, fx)

    @pytest.mark.parametrize("span", [1.0, 10.0, 1e3, 1e6, 1e17])
    def test_kernel_commutes_with_sign_flips(self, span):
        rng = np.random.default_rng(int(math.log10(span)) + 733)
        x, y = _swap_probe_points(rng, span)
        x = np.concatenate([x, _mirror_probe(rng, 300)])
        y = np.concatenate([y, rng.permutation(_mirror_probe(rng, 300))])
        for lam in (0.9, 1.1107, 2.0):
            for z in (0.0, rng.uniform(-3.0, 3.0, x.size)):
                t = tangent3_grid(x, y, z, lam)
                for sx, sy in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
                    s = tangent3_grid(sx * x, sy * y, z, lam)
                    np.testing.assert_array_equal(s[3], t[3])
                    # off the poles' placeholders the flipped point's value
                    # is the flipped value, bit for bit
                    fin = t[3]
                    for a, b in zip(s[:3], (sx * t[0], sy * t[1], t[2])):
                        np.testing.assert_array_equal(_bits(a[fin]), _bits(b[fin]))

    def test_capture_rule_commutes_with_sign_flips(self):
        rng = np.random.default_rng(739)
        x = np.concatenate([rng.uniform(-1e-6, 1e-6, 3000),
                            rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 300, 2000),
                            [0.0, -0.0, 5e-324, 1e-6, analysis.CAPTURE_TOL]])
        y = rng.permutation(x)
        want = [np.hypot(x, y), np.maximum(np.abs(x), np.abs(y))]
        for a, b in ((-x, y), (x, -y), (-x, -y)):
            _assert_identical([np.hypot(a, b), np.maximum(np.abs(a), np.abs(b))], want)

    @pytest.mark.parametrize("family", [1, -1])
    def test_depth_rule_commutes_with_sign_flips(self, family):
        rng = np.random.default_rng(743 + family)
        x, y = _near_diamond_edges(rng, family=family)
        want = render._in_diamond(x, y)
        for a, b in ((-x, y), (x, -y), (-x, -y), (y, x), (-y, x)):
            _assert_identical([render._in_diamond(a, b)], [want])
        # the lookup alone does not commute with the flips there
        raw = [_diamond_centers(a, b) for a, b in ((x, y), (-x, y), (x, -y), (-x, -y))]
        assert any((r != raw[0]).any() for r in raw[1:])
        # and the ordered lookup is the lookup wherever they all agree
        agree = np.logical_and.reduce([r == raw[0] for r in raw[1:]])
        _assert_identical([want[agree]], [raw[0][agree]])


def _representatives(cfg):
    """The image's representative pixels (flat indices) and each pixel's
    representative, from ``render._first_step_classes``."""
    rep, reps = render._first_step_classes(*render._pixel_axes(cfg, 0, cfg.height))(0, cfg.height)
    np.testing.assert_array_equal(reps, np.flatnonzero(rep.ravel() == np.arange(rep.size)))
    return reps, rep


# windows: the default (symmetric under the swap and the parity flip), an
# asymmetric one and a non-square one
CLASS_WINDOWS = [None, (-0.3, -1.1, 2.9, 0.4), (-1.0, -0.5, 4.0, 0.5)]

# an 8x3 image whose middle row lies on the x-axis, where the plane map is
# lam tan x.  At this lam the pixel (0.4375, 0) steps to x = pi/4 as a
# double, on a mirror line, and its sign image (-0.4375, 0), which
# represents it, to -pi/4: a fold that is not odd puts the two on tiles of
# opposite parity
MIRROR_LANDING = {"lam": 1.6791698643631132, "window": (-0.5, -1.5, 0.5, 1.5), "width": 8,
                  "height": 3, "max_iter": 200, "depth_norm": 20.0}


def _mirror_pixels(half_height, lam):
    """A 2x2 image with columns x = -pi/4 and pi/4, on the mirror lines, and
    rows pi/4 +- half_height/2: (-pi/4, y0) represents (pi/4, y0) and
    (pi/4, y1) that of (-pi/4, y1) up to the sign of x."""
    return {"lam": lam, "window": (-HALF_PI, QUARTER_PI - half_height, HALF_PI,
                                   QUARTER_PI + half_height), "width": 2, "height": 2}


# the configs a render must classify as every pixel on its own would, with
# the small working set each runs with too
CLASS_CONFIGS = [
    *(pytest.param({"lam": lam, "width": 36, "height": 28, "max_iter": 120,
                    **({} if window is None else {"window": window})}, TestWorkingSet.SMALL,
                   id=f"{lam}-window{i}")
      for i, window in enumerate(CLASS_WINDOWS) for lam in (0.9, 1.1107, 2.0)),
    pytest.param(MIRROR_LANDING, 2, id="mirror-landing"),
    pytest.param(_mirror_pixels(0.25, 3.0), 2, id="mirror-pixels-3"),
    pytest.param(_mirror_pixels(0.375, 2.0), 2, id="mirror-pixels-2"),
]


def _full_axes(cfg, depth_only):
    """classify_plane_block on the image's full pixel axes, as the render's
    arrays: fate and when, or the depth."""
    xs, ys = render._pixel_axes(cfg, 0, cfg.height)
    out = classify_plane_block(xs, ys[:, np.newaxis], cfg, depth_only=depth_only)
    return list(out[2:] if depth_only else out[:2])


class TestFirstStepClasses:
    """A render classifies one pixel per first-step class and copies its
    arrays to the rest: the bytes of classifying every pixel."""

    @pytest.mark.parametrize("config,small_set", CLASS_CONFIGS)
    def test_render_equals_full_axes(self, monkeypatch, config, small_set):
        cfg = RenderConfig(**config)
        for depth_only in (False, True):
            want = _full_axes(cfg, depth_only)
            for small in (False, True):
                if small:
                    monkeypatch.setattr(render, "_WORKING_SET", small_set)
                for threads in (1, 3):
                    cfg.threads = threads
                    _assert_identical(render._render(cfg, depth_only=depth_only), want)
                monkeypatch.undo()
            cfg.threads = 1
        got = render_basin(cfg), compute_escape_depth(cfg)
        fate, when = _full_axes(cfg, False)
        _assert_identical(got, (colorize_fates(fate, when, cfg.max_iter),
                                _full_axes(cfg, True)[0]))

    @pytest.mark.parametrize("window", CLASS_WINDOWS)
    @pytest.mark.parametrize("shape", [(36, 28), (64, 64), (5, 1), (1, 7)])
    def test_classes_against_brute_force(self, window, shape):
        # each pixel's representative is the least flat index whose first
        # step reads the same (|fx|, |fy|, ox ^ oy), directly or swapped
        kw = {} if window is None else {"window": window}
        cfg = RenderConfig(lam=1.0, width=shape[0], height=shape[1], **kw)
        xs, ys = render._pixel_axes(cfg, 0, cfg.height)
        reps, rep = _representatives(cfg)
        # any band of rows gives the same rows of the map
        band = render._first_step_classes(xs, ys)
        for i0 in range(ys.size):
            i1 = min(i0 + 2, ys.size)
            got, own = band(i0, i1)
            np.testing.assert_array_equal(got, rep[i0:i1])
            np.testing.assert_array_equal(own, reps[(reps >= i0 * xs.size)
                                                   & (reps < i1 * xs.size)])
        fx, ox = fold_axis_grid(xs, QUARTER_PI)
        fy, oy = fold_axis_grid(ys, QUARTER_PI)
        ax, ay = np.abs(fx).view(np.int64), np.abs(fy).view(np.int64)
        first, want = {}, []
        for i in range(ys.size):
            for j in range(xs.size):
                a, b = sorted((ax[j], ay[i]))
                want.append(first.setdefault((a, b, bool(ox[j] ^ oy[i])), i * xs.size + j))
        np.testing.assert_array_equal(rep.ravel(), want)
        np.testing.assert_array_equal(reps, np.unique(want))

    def test_every_pixel_its_own_representative(self):
        # no two pixels share a first step: the render skips the gather
        cfg = RenderConfig(lam=2.0, window=(0.1, 0.23, 0.37, 0.55), width=9, height=7,
                           max_iter=60)
        assert _representatives(cfg)[0].size == 9 * 7
        for depth_only in (False, True):
            _assert_identical(render._render(cfg, depth_only=depth_only),
                              _full_axes(cfg, depth_only))

    def test_default_render_classifies_a_fifth(self, monkeypatch):
        sizes = []

        def recording(x, y, cfg, **kwargs):
            sizes.append(kwargs["pixels"].size)
            return classify_plane_block(x, y, cfg, **kwargs)

        monkeypatch.setattr(render, "classify_plane_block", recording)
        render_basin(RenderConfig(lam=2.0, width=64, height=64, max_iter=5))
        # 865 orbits for 4 096 pixels: the swap alone left 2 119
        assert 800 <= sum(sizes) <= 900

    def test_orbit_landing_on_a_mirror_keeps_the_symmetry(self):
        # (-0.4375, 0) and (0.4375, 0) step to -pi/4 and pi/4, on mirror
        # lines; the odd fold takes both to odd tiles, so every later step
        # of the two orbits agrees up to the sign of x, and the image
        # classified pixel by pixel is mirror-symmetric in both axes
        cfg = RenderConfig(**MIRROR_LANDING)
        tx = tangent3_grid(np.array([-0.4375, 0.4375]), np.zeros(2), 0.0, cfg.lam)[0]
        assert tx.tolist() == [-QUARTER_PI, QUARTER_PI]
        assert fold_axis_grid(tx, QUARTER_PI)[1].all()
        reps, rep = _representatives(cfg)
        assert rep[1, 7] == 8 and 15 not in reps
        for a in _full_axes(cfg, False) + _full_axes(cfg, True):
            np.testing.assert_array_equal(a[1], a[1, ::-1])
            np.testing.assert_array_equal(a, a[::-1, ::-1])
        depth = _full_axes(cfg, True)[0]
        assert depth[1, 0] == depth[1, 7] > 0


class TestBasinContent:
    def test_petal_pixels_captured_by_origin(self):
        # inside the petal region every pixel's orbit falls to the origin
        cfg = RenderConfig(lam=0.9, width=96, height=96,
                           window=(-QUARTER_PI, -QUARTER_PI, QUARTER_PI, QUARTER_PI),
                           max_iter=1500)
        gx, gy = pixel_grid(cfg, 0, cfg.height)
        fate, _, _ = classify_plane_block(gx, gy, cfg)
        total = 0
        captured = 0
        for i in range(cfg.height):
            for j in range(cfg.width):
                p = (gx[i, j], gy[i, j])
                if petal_contains(p, 0.9) and petal_contains((p[0] * 1.1, p[1] * 1.1), 0.9):
                    total += 1
                    captured += int(fate[i, j] == _FATE_ORIGIN)
        assert total > 100
        assert captured == total

    def test_escape_depth_dense_above_sqrt2(self):
        cfg = RenderConfig(lam=2.0, width=96, height=96, max_iter=200)
        depth = compute_escape_depth(cfg)
        assert float((depth > 0).mean()) > 0.95

    def test_escape_depth_plateaus_below_one(self):
        cfg = RenderConfig(lam=0.9, width=96, height=96, max_iter=200,
                           window=(-QUARTER_PI, -QUARTER_PI, QUARTER_PI, QUARTER_PI))
        depth = compute_escape_depth(cfg)
        # the petal fills this window; escape depth never triggers inside it
        assert float((depth == 0).mean()) > 0.9

    def test_escape_image_colours_depth(self):
        cfg = RenderConfig(lam=2.0, width=32, height=32, max_iter=60)
        img = render_escape_depth(cfg)
        assert img.shape == (32, 32, 3) and img.dtype == np.uint8


class TestPalette:
    def test_colorize_shapes(self):
        fate = np.zeros((4, 5), dtype=np.uint8)
        when = np.zeros((4, 5), dtype=np.int32)
        img = colorize_fates(fate, when, 100)
        assert img.shape == (4, 5, 3) and img.dtype == np.uint8
        np.testing.assert_array_equal(img, 0)  # undecided stays black

    def test_depth_zero_black(self):
        img = colorize_depth(np.zeros((3, 3), dtype=np.int32), 100)
        np.testing.assert_array_equal(img, 0)

    def test_faster_capture_is_darker(self):
        fate = np.ones((1, 2), dtype=np.uint8)
        when = np.array([[3, 300]], dtype=np.int32)
        img = colorize_fates(fate, when, 500)
        assert img[0, 0].sum() < img[0, 1].sum()

    @pytest.mark.parametrize("max_iter", [1, 2, 60, 200, 500, 2500])
    def test_every_count_matches_float_palette(self, max_iter):
        counts = np.arange(max_iter + 1, dtype=np.int32).reshape(1, -1)
        for fate in (_FATE_ORIGIN, _FATE_POLE, 0):
            fates = np.full(counts.shape, fate, dtype=np.uint8)
            _assert_identical((colorize_fates(fates, counts, max_iter),),
                              (_reference_colorize_fates(fates, counts, max_iter),))
        _assert_identical((colorize_depth(counts, max_iter),),
                          (_reference_colorize_depth(counts, max_iter),))

    @pytest.mark.parametrize("shape,max_iter,seed", [((256, 256), 200, 11),
                                                     ((130, 77), 500, 12),
                                                     ((37, 41), 10**7, 13)])
    def test_random_images_match_float_palette(self, shape, max_iter, seed, monkeypatch):
        # counts run past max_iter (the ramp's clipped end); at 1e7 the
        # largest count tops the pixel count, so the table holds the
        # distinct counts, and no table has more rows than its pixels
        rows = []
        ramp = render._ramp

        def recording(t, anchors):
            rows.append(t.size)
            return ramp(t, anchors)

        monkeypatch.setattr(render, "_ramp", recording)
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 3 * max_iter, shape, dtype=np.int32)
        fate = rng.choice(np.array([0, _FATE_ORIGIN, 4, _FATE_POLE], dtype=np.uint8), shape)
        _assert_identical((colorize_fates(fate, counts, max_iter),
                           colorize_depth(counts, max_iter)),
                          (_reference_colorize_fates(fate, counts, max_iter),
                           _reference_colorize_depth(counts, max_iter)))
        assert rows and max(rows) <= min(counts.size, render._WORKING_SET)
        if max_iter == 10**7:
            origin = counts[fate == _FATE_ORIGIN]
            assert rows == [np.unique(origin).size, np.unique(counts[counts > 0]).size]

    @pytest.mark.parametrize("bad", [np.array([[3, -1]], dtype=np.int32),
                                     np.array([[3.0, 1.0]])])
    def test_rejects_negative_or_float_counts(self, bad):
        for colorize in (lambda c: colorize_fates(np.ones(c.shape, np.uint8), c, 10),
                         lambda c: colorize_depth(c, 10)):
            with pytest.raises(ValueError, match="non-negative integers") as e:
                colorize(bad)
            assert "\n" not in str(e.value)

    def test_rejects_fates_of_another_shape(self):
        # same size, other shape: flat order would colour the wrong pixels
        with pytest.raises(ValueError, match="fate shape"):
            colorize_fates(np.ones((2, 3), np.uint8), np.ones((3, 2), np.int32), 10)

    def test_colouring_allocates_little_past_the_image(self):
        # a guard with no timer: at 256x256 the peak stays below 4x the
        # output image (a float image alone is 8x), and a 16x16 image at
        # max_iter 1e7 builds no 1e7-row table
        rng = np.random.default_rng(17)
        counts = rng.integers(0, 201, (256, 256), dtype=np.int32)
        fate = rng.choice(np.array([0, _FATE_ORIGIN, _FATE_POLE], dtype=np.uint8), (256, 256))
        small = rng.integers(0, 10**7, (16, 16), dtype=np.int32)
        for colour, limit in ((lambda: colorize_depth(counts, 200), 4 * counts.size * 3),
                              (lambda: colorize_fates(fate, counts, 200), 4 * counts.size * 3),
                              (lambda: colorize_depth(small, 10**7), 256 * 1024),
                              (lambda: colorize_fates(fate[:16, :16], small, 10**7),
                               256 * 1024)):
            tracemalloc.start()
            try:
                colour()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit


def _reference_ramp(t, anchors):
    t = np.clip(t, 0.0, 1.0)
    out = np.empty(t.shape + (3,), dtype=float)
    for c in range(3):
        out[..., c] = np.interp(t, anchors[:, 0], anchors[:, c + 1])
    return out


def _reference_colorize_fates(fate, when, max_iter):
    """The fate palette on a float64 image, as before the colour tables."""
    t = np.log1p(when.astype(float)) / math.log1p(max_iter)
    img = np.zeros(fate.shape + (3,), dtype=float)
    origin = fate == _FATE_ORIGIN
    img[origin] = _reference_ramp(t[origin], render._ORIGIN_ANCHORS)
    img[fate == _FATE_POLE] = (255.0, 255.0, 255.0)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def _reference_colorize_depth(depth, max_iter):
    """The depth palette on a float64 image, as before the colour tables."""
    img = np.zeros(depth.shape + (3,), dtype=float)
    got = depth > 0
    t = np.log1p(depth[got].astype(float)) / math.log1p(max_iter)
    img[got] = _reference_ramp(t, render._DEPTH_ANCHORS)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


class TestPpm:
    def test_header_and_size(self):
        img = np.zeros((5, 7, 3), dtype=np.uint8)
        img[2, 3] = (1, 2, 3)
        data = encode_ppm(img)
        assert data.startswith(b"P6\n7 5\n255\n")
        assert len(data) == len(b"P6\n7 5\n255\n") + 5 * 7 * 3
        # row-major RGB payload
        offset = len(b"P6\n7 5\n255\n") + (2 * 7 + 3) * 3
        assert data[offset:offset + 3] == bytes([1, 2, 3])

    def test_roundtrip_file(self, tmp_path):
        img = (np.arange(4 * 6 * 3, dtype=np.uint8)).reshape(4, 6, 3)
        path = tmp_path / "img.ppm"
        write_ppm(img, path)
        assert path.read_bytes() == encode_ppm(img)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError):
            encode_ppm(np.zeros((4, 4, 3), dtype=float))

"""Tests for basin/escape-depth rendering and PPM output."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qrtan import analysis, render
from qrtan.analysis import SETTLE, petal_contains
from qrtan.core import tangent3_grid
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
    """Vectorized fold_axis; returns (folded, parity) arrays."""
    width = 2.0 * half_width
    k = np.floor((x + half_width) / width)
    u = x - k * width
    odd = (k.astype(np.int64) % 2) != 0
    return np.where(odd, -u, u), odd.astype(np.int64)


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

    @pytest.mark.parametrize("threads", [1, 3])
    def test_one_call_per_band_on_axes(self, monkeypatch, threads):
        shapes = []

        def recording(x, y, cfg, **kwargs):
            shapes.append((np.shape(x), np.shape(y)))
            return classify_plane_block(x, y, cfg, **kwargs)

        monkeypatch.setattr(render, "classify_plane_block", recording)
        cfg = RenderConfig(lam=2.0, width=24, height=10, max_iter=40, threads=threads)
        render_basin(cfg)
        compute_escape_depth(cfg)
        bands = [(4, 1), (3, 1), (3, 1)] if threads == 3 else [(10, 1)]
        assert sorted(shapes) == sorted(((24,), b) for b in bands * 2)

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

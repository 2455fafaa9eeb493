"""Basin and escape-depth images of the plane dynamics.

Pixels are classified with the same fate logic as the scalar orbit
classifier, but vectorized over the whole grid.  Decided pixels leave
the loop: it iterates only the pixels still live, and an escape-depth
render also stops each pixel at its first passage above the depth
threshold.  A pixel's arithmetic does not depend on which other pixels
are still in the loop, so the output bytes equal those of iterating
every pixel to ``max_iter``.  Output is 8-bit RGB, written as binary
PPM (P6) so golden files need no image library; PNG is available on
request, written with the standard library.  Rendering is
deterministic: the grid is cut into fixed row blocks, each block is
computed by pure array code, and assembly is by block index, so the
thread count can change the wall time but never a byte of the image.
"""

import math
import struct
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import HALF_PI, QUARTER_PI, tangent3_grid

_FATE_UNDECIDED = 0
_FATE_ORIGIN = 1
_FATE_UPPER = 2
_FATE_LOWER = 3
_FATE_ESCAPING = 4
_FATE_POLE = 5

_DEFAULT_WINDOW = (-QUARTER_PI, -QUARTER_PI, 3 * QUARTER_PI, 3 * QUARTER_PI)

# the render loop compacts its carried pixel arrays once at least
# 1/_COMPACT_SHARE of the entries are done; compacting every step keeps
# resizing the arrays, which costs resident memory through the allocator
_COMPACT_SHARE = 4


@dataclass
class RenderConfig:
    lam: float
    window: tuple = _DEFAULT_WINDOW  # (x0, y0, x1, y1)
    width: int = 256
    height: int = 256
    max_iter: int = 500
    tol: float = 1e-6
    escape_run: int = 8
    escape_norm: float = 50.0    # orbit-fate heuristic threshold
    depth_norm: float = None     # escape-depth threshold; default 4*lam
    settle: int = 3
    threads: int = 1
    row_block: int = 64  # fixed work unit; not tied to the thread count

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ValueError("scaling parameter must be positive")
        x0, y0, x1, y1 = self.window
        if not all(math.isfinite(c) for c in self.window):
            raise ValueError("window entries must be finite")
        if not (x1 > x0 and y1 > y0):
            raise ValueError("window must be non-degenerate")
        if self.width < 1 or self.height < 1:
            raise ValueError("resolution must be positive")
        if self.max_iter < 1:
            raise ValueError("iteration count must be at least 1")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ValueError("capture tolerance must be positive and finite")
        if self.threads < 1:
            raise ValueError("thread count must be at least 1")
        if self.row_block < 1:
            raise ValueError("row block must be at least 1")
        if self.depth_norm is None:
            # a few times lam sits beyond every bounded invariant structure,
            # so first passage above it marks a genuine far excursion while
            # staying frequent enough to show up within a few hundred
            # iterations wherever the far-excursion set is dense at all
            self.depth_norm = 4.0 * self.lam
        elif not (math.isfinite(self.depth_norm) and self.depth_norm > 0.0):
            raise ValueError("escape-depth threshold must be positive and finite")


def pixel_grid(cfg: RenderConfig, row0: int, row1: int):
    """Plane coordinates of pixel centres for rows [row0, row1).

    Row 0 is the top of the image and y increases upward, so the top row
    carries the largest y.
    """
    x0, y0, x1, y1 = cfg.window
    xs = x0 + (np.arange(cfg.width) + 0.5) * (x1 - x0) / cfg.width
    ys = y1 - (np.arange(row0, row1) + 0.5) * (y1 - y0) / cfg.height
    return np.meshgrid(xs, ys)


def _diamond_centers(x, y):
    """Vectorized diamond lookup: centre coordinates and strict membership."""
    n = x + y
    n -= HALF_PI
    n /= math.pi
    np.rint(n, out=n)
    m = y - x
    np.subtract(HALF_PI, m, out=m)
    m /= math.pi
    np.rint(m, out=m)
    cx = n + m
    cx *= HALF_PI
    n -= m
    n += 1
    cy = np.multiply(n, HALF_PI, out=n)
    dx = np.subtract(x, cx, out=m)
    np.abs(dx, out=dx)
    dy = y - cy
    np.abs(dy, out=dy)
    dx += dy
    return cx, cy, dx < HALF_PI


def classify_plane_block(x, y, cfg: RenderConfig, *, depth_only=False):
    """Fate codes and capture steps for a block of plane points (z = 0).

    Mirrors the scalar classifier: convergence needs ``settle``
    consecutive steps inside ``tol`` of a target, escape needs
    ``escape_run`` consecutive strictly-growing diamond-centre norms
    plus norm above ``escape_norm``.  Also returns the first step at
    which each orbit exceeded ``depth_norm`` inside a diamond (the
    escape depth; 0 where that never happened).

    Only live pixels are iterated: the loop carries their flat indices
    and state, and a pixel leaves at a pole hit, origin capture or
    escape.  With ``depth_only`` it also leaves at its first depth
    passage, keeping fate 0 with ``when`` set to that step; the depth
    array is the same as without it.
    """
    shape = x.shape
    size = x.size
    fate = np.zeros(size, dtype=np.uint8)
    when = np.zeros(size, dtype=np.int32)
    depth = np.zeros(size, dtype=np.int32)
    # state of the carried pixels; entries done since the last compaction
    # stay carried, masked out by ``live``
    idx = np.arange(size)
    px = x.astype(float).ravel()
    py = y.astype(float).ravel()
    run_origin = np.zeros(size, dtype=np.int16)
    grow = np.zeros(size, dtype=np.int16)
    prev_cn = np.full(size, np.nan)
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
            idx, px, py, run_origin, grow, prev_cn, nodepth = (
                a[live] for a in (idx, px, py, run_origin, grow, prev_cn, nodepth))
            live = np.ones(n_live, dtype=bool)
        px, py, _, finite = tangent3_grid(px, py, 0.0, cfg.lam)
        hit = live & ~finite
        if hit.any():
            retire(hit, _FATE_POLE, step)
            depth[idx[hit & nodepth]] = step  # a pole hit tops any norm threshold
            px[hit] = py[hit] = 0.0  # inf placeholders would warn until compaction
            live &= finite
        norm = np.hypot(px, py)
        # distance to the origin is the norm: z = 0 throughout
        close = norm < cfg.tol
        close &= live
        run_origin += 1
        run_origin *= close
        captured = live & (run_origin >= cfg.settle)
        if captured.any():
            retire(captured, _FATE_ORIGIN, step)
            live &= ~captured
        # the axis fixed points at z = +-xi are unreachable from z = 0
        # (the plane is exactly invariant), so the origin is the only
        # convergence target a basin render can see
        cx, cy, tracked = _diamond_centers(px, py)
        tracked &= live
        cn = np.hypot(cx, cy, out=cx)
        grew = cn > prev_cn  # False where prev_cn is NaN
        grew &= tracked
        grow += 1
        grow *= grew
        # NaN where the pixel is not tracked: its next step cannot count as growth
        np.putmask(cn, ~tracked, np.nan)
        prev_cn = cn
        newdepth = norm > cfg.depth_norm
        newdepth &= tracked
        newdepth &= nodepth
        deeper = newdepth.any()
        if deeper:
            depth[idx[newdepth]] = step
            nodepth &= ~newdepth
        esc = grow >= cfg.escape_run
        esc &= tracked
        esc &= norm > cfg.escape_norm
        if esc.any():
            retire(esc, _FATE_ESCAPING, step)
            live &= ~esc
        if depth_only and deeper:
            when[idx[newdepth]] = step
            live &= ~newdepth
    when[idx[live]] = cfg.max_iter
    return fate.reshape(shape), when.reshape(shape), depth.reshape(shape)


# ---------------------------------------------------------------------------
# palettes

_ORIGIN_ANCHORS = np.array([
    (0.00, 10, 25, 110),
    (0.35, 55, 115, 200),
    (0.60, 235, 220, 110),
    (0.80, 230, 120, 55),
    (1.00, 170, 35, 35),
], dtype=float)

_DEPTH_ANCHORS = np.array([
    (0.00, 20, 12, 60),
    (0.35, 95, 35, 125),
    (0.65, 225, 95, 60),
    (1.00, 250, 240, 150),
], dtype=float)


def _ramp(t, anchors):
    t = np.clip(t, 0.0, 1.0)
    out = np.empty(t.shape + (3,), dtype=float)
    pos = anchors[:, 0]
    for c in range(3):
        out[..., c] = np.interp(t, pos, anchors[:, c + 1])
    return out


def _log_fraction(when, max_iter):
    return np.log1p(when.astype(float)) / math.log1p(max_iter)


def colorize_fates(fate, when, max_iter):
    """Fate hue with log-scaled capture-time lightness: fast capture into the
    origin is dark blue, slow capture drifts through yellow to red; pole hits
    are white, escapes light grey, undecided black."""
    t = _log_fraction(when, max_iter)
    img = np.zeros(fate.shape + (3,), dtype=float)
    origin = fate == _FATE_ORIGIN
    img[origin] = _ramp(t[origin], _ORIGIN_ANCHORS)
    up = fate == _FATE_UPPER
    img[up] = np.stack([60 + 120 * t[up], 170 - 60 * t[up], 90 + 40 * t[up]], axis=-1)
    down = fate == _FATE_LOWER
    img[down] = np.stack([120 + 60 * t[down], 60 + 40 * t[down], 170 * np.ones_like(t[down])], axis=-1)
    img[fate == _FATE_POLE] = (255.0, 255.0, 255.0)
    img[fate == _FATE_ESCAPING] = (210.0, 210.0, 218.0)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def colorize_depth(depth, max_iter):
    """Escape depth on a dark-to-light ramp; zero depth stays black."""
    img = np.zeros(depth.shape + (3,), dtype=float)
    got = depth > 0
    img[got] = _ramp(_log_fraction(depth[got], max_iter), _DEPTH_ANCHORS)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# drivers

def _run_blocks(cfg: RenderConfig, worker):
    blocks = [(r, min(r + cfg.row_block, cfg.height))
              for r in range(0, cfg.height, cfg.row_block)]
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(worker, blocks))
    else:
        results = [worker(b) for b in blocks]
    return blocks, results


def render_basin(cfg: RenderConfig) -> np.ndarray:
    """Basin image: per-pixel orbit fate with capture-time shading.

    Returns an (height, width, 3) uint8 array, row 0 at the top.
    """
    def worker(block):
        r0, r1 = block
        gx, gy = pixel_grid(cfg, r0, r1)
        fate, when, _ = classify_plane_block(gx, gy, cfg)
        return colorize_fates(fate, when, cfg.max_iter)

    blocks, results = _run_blocks(cfg, worker)
    img = np.empty((cfg.height, cfg.width, 3), dtype=np.uint8)
    for (r0, r1), chunk in zip(blocks, results):
        img[r0:r1] = chunk
    return img


def compute_escape_depth(cfg: RenderConfig) -> np.ndarray:
    """First step at which each pixel's orbit exceeds depth_norm inside a
    diamond (0 where that never happens within max_iter)."""
    def worker(block):
        r0, r1 = block
        gx, gy = pixel_grid(cfg, r0, r1)
        _, _, depth = classify_plane_block(gx, gy, cfg, depth_only=True)
        return depth

    blocks, results = _run_blocks(cfg, worker)
    depth = np.empty((cfg.height, cfg.width), dtype=np.int32)
    for (r0, r1), chunk in zip(blocks, results):
        depth[r0:r1] = chunk
    return depth


def render_escape_depth(cfg: RenderConfig) -> np.ndarray:
    """Escape-depth image (uint8 RGB); black where the orbit never ran off."""
    return colorize_depth(compute_escape_depth(cfg), cfg.max_iter)


# ---------------------------------------------------------------------------
# image output

def _check_rgb(image):
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise ValueError("expected an (h, w, 3) uint8 image")


def encode_ppm(image: np.ndarray) -> bytes:
    """Binary PPM (P6, maxval 255) encoding of an (h, w, 3) uint8 array."""
    _check_rgb(image)
    h, w = image.shape[:2]
    return f"P6\n{w} {h}\n255\n".encode("ascii") + image.tobytes()


def write_ppm(image: np.ndarray, path):
    with open(path, "wb") as f:
        f.write(encode_ppm(image))


def _png_chunk(tag: bytes, data: bytes) -> bytes:
    return (struct.pack(">I", len(data)) + tag + data
            + struct.pack(">I", zlib.crc32(tag + data)))


def write_png(image: np.ndarray, path):
    """8-bit RGB PNG, every row with filter type 0 (none); PPM is the
    canonical format."""
    _check_rgb(image)
    h, w = image.shape[:2]
    rows = np.concatenate([np.zeros((h, 1), dtype=np.uint8), image.reshape(h, 3 * w)],
                          axis=1)
    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # depth 8, colour type RGB
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", header)
                + _png_chunk(b"IDAT", zlib.compress(rows.tobytes()))
                + _png_chunk(b"IEND", b""))

"""Basin and escape-depth images of the plane dynamics.

Pixels are classified by the origin-capture and pole rules of the scalar
orbit classifier, vectorized: one loop per image (per band of rows with
several threads) streams the pixels through a working set.  A basin
pixel has three outcomes: captured by the origin, a pole hit, or
undecided at ``max_iter``.  The escape rule of ``classify_orbit`` does
not run here: the escaping plane orbits form a thin exceptional set, and
no pixel of the renders measured in the README lands on it.  An
escape-depth render also stops each pixel at its first passage above the
depth threshold, found by one rule: the pixels above it, then the diamond
lookup on those.  Only that render tracks the passage; a basin image's
depth array stays 0.  The capture rule reads the constants of
``analysis``.  A pixel's arithmetic does not depend on which other
pixels share the set, so the bytes equal those of iterating every pixel
to ``max_iter``, for any set size, band or thread count.  Output is
8-bit RGB, written as binary PPM (P6) so golden files need no image
library; PNG is available on request, written with the standard library.
"""

import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import analysis
from .core import HALF_PI, QUARTER_PI, tangent3_grid

# no code for the axis fixed points: no orbit of the plane z = 0 reaches them
_FATE_UNDECIDED = 0
_FATE_ORIGIN = 1
# no render gives it; kept while the benchmark's fate table reads it
_FATE_ESCAPING = 4
_FATE_POLE = 5

_DEFAULT_WINDOW = (-QUARTER_PI, -QUARTER_PI, 3 * QUARTER_PI, 3 * QUARTER_PI)

# the render loop compacts its carried pixel arrays once at least
# 1/_COMPACT_SHARE of the entries are done; compacting every step keeps
# resizing the arrays, which costs resident memory through the allocator
_COMPACT_SHARE = 4

# the most pixels the render loop carries at once
_WORKING_SET = 16384


@dataclass
class RenderConfig:
    lam: float
    window: tuple = _DEFAULT_WINDOW  # (x0, y0, x1, y1)
    width: int = 256
    height: int = 256
    max_iter: int = 500
    depth_norm: float = None     # escape-depth threshold; default 4*lam
    threads: int = 1

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
        if self.threads < 1:
            raise ValueError("thread count must be at least 1")
        if self.depth_norm is None:
            # a few times lam sits beyond every bounded invariant structure,
            # so first passage above it marks a genuine far excursion while
            # staying frequent enough to show up within a few hundred
            # iterations wherever the far-excursion set is dense at all
            self.depth_norm = 4.0 * self.lam
        elif not (math.isfinite(self.depth_norm) and self.depth_norm > 0.0):
            raise ValueError("escape-depth threshold must be positive and finite")


def _pixel_axes(cfg: RenderConfig, row0: int, row1: int):
    """x of the pixel columns and y of rows [row0, row1)."""
    x0, y0, x1, y1 = cfg.window
    xs = x0 + (np.arange(cfg.width) + 0.5) * (x1 - x0) / cfg.width
    ys = y1 - (np.arange(row0, row1) + 0.5) * (y1 - y0) / cfg.height
    return xs, ys


def pixel_grid(cfg: RenderConfig, row0: int, row1: int):
    """Plane coordinates of pixel centres for rows [row0, row1).

    Row 0 is the top of the image and y increases upward, so the top row
    carries the largest y.
    """
    return np.meshgrid(*_pixel_axes(cfg, row0, row1))


def _diamond_centers(x, y):
    """Vectorized strict membership in the open pole diamonds, whose
    centres are (n + m, n - m + 1) pi/2 for integers n, m."""
    n = x + y
    n -= HALF_PI
    n /= math.pi
    np.rint(n, out=n)
    m = y - x
    np.subtract(HALF_PI, m, out=m)
    m /= math.pi
    np.rint(m, out=m)
    i = n + m
    n -= m
    n += 1
    dx = np.multiply(i, HALF_PI, out=i)
    np.subtract(x, dx, out=dx)
    np.abs(dx, out=dx)
    dy = np.multiply(n, HALF_PI, out=n)
    np.subtract(y, dy, out=dy)
    np.abs(dy, out=dy)
    dx += dy
    return dx < HALF_PI


def _flat_slice(rows, start, stop):
    """``rows.ravel()[start:stop]``, copying only the rows it touches."""
    w = rows.shape[1]
    r0 = start // w
    return rows[r0:-(-stop // w)].ravel()[start - r0 * w:stop - r0 * w]


def _far(px, py, mx, bound, sel):
    """Indices where ``sel`` and hypot(px, py) > bound; the hypot is at most
    2 mx (mx = max(|px|, |py|)), so only mx >= bound/2 takes it."""
    c = np.flatnonzero(sel & (mx >= 0.5 * bound))
    return c[np.hypot(px[c], py[c]) > bound]


def classify_plane_block(x, y, cfg: RenderConfig, *, depth_only=False):
    """Fate codes and capture steps for a block of plane points (z = 0).

    Mirrors the scalar classifier's capture rule, reading the constants
    of ``analysis`` when called: convergence needs SETTLE consecutive
    steps inside CAPTURE_TOL of the origin.  The escape rule does not
    run, so a pixel's fate is origin, pole or undecided.  ``x`` and ``y``
    are broadcast together, so a row of x and a column of y give an
    image.

    Pixels enter a working set of at most ``_WORKING_SET`` entries in
    flat order, each counting its own steps, and leave at a pole hit,
    origin capture or their ``max_iter``-th step.  With ``depth_only`` a
    pixel leaves also at its first passage above ``depth_norm`` inside a
    diamond, keeping fate 0 with ``when`` set to that step.  The
    returned depth is then the escape depth: that step, or the step of a
    pole hit, 0 where neither came.  Without ``depth_only`` nothing
    tracks the passage and the depth array stays all 0.
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    # rows along the last axis, so a run of flat indices spans few rows
    w = max(shape[-1], 1) if shape else 1
    xr, yr = (np.broadcast_to(np.asarray(c, dtype=float), shape).reshape(-1, w)
              for c in (x, y))
    size = xr.size
    # depth first, below the loop's temporaries: an escape render keeps it,
    # and there it leaves them one free block (fate first fragmented the
    # heap, peak RSS +0.5 MiB at 256x256)
    depth = np.zeros(size, dtype=np.int32)
    when = np.zeros(size, dtype=np.int32)
    fate = np.zeros(size, dtype=np.uint8)
    # the working set in entry order: flat index, the loop step before the
    # pixel's first, point and rule state.  Done entries stay, masked out
    # by ``live``, until a quarter is done; then the live ones move to the
    # front and new pixels fill the room, which never outgrows the arrays
    # (it starts as n done entries).
    n = min(_WORKING_SET, size)
    idx, born = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.int32)
    px, py = np.empty(n), np.empty(n)
    run_origin = np.empty(n, dtype=np.int16)
    live = np.zeros(n, dtype=bool)
    entered = step = 0

    def retire(done, code):
        sel = idx[done]
        fate[sel] = code
        when[sel] = step - born[done]

    def refill(a, fill):
        a[:n_live] = a[keep]
        a[n_live:n] = fill
        return a[:n]

    while True:
        n_live = np.count_nonzero(live)
        if (n - n_live) * _COMPACT_SHARE >= n:
            k = min(n - n_live, size - entered)
            if n_live + k == 0:
                break
            keep = np.flatnonzero(live)
            n = n_live + k
            idx = refill(idx, np.arange(entered, entered + k))
            born = refill(born, step)
            px = refill(px, _flat_slice(xr, entered, entered + k))
            py = refill(py, _flat_slice(yr, entered, entered + k))
            run_origin = refill(run_origin, 0)
            live = refill(live, True)
            del keep  # as large as the set; the steps need the room
            entered += k
        step += 1
        px, py, _, finite = tangent3_grid(px, py, 0.0, cfg.lam)
        if not finite.all():
            pole = ~finite
            hit = live & pole
            retire(hit, _FATE_POLE)
            if depth_only:
                depth[idx[hit]] = step - born[hit]  # a pole hit tops any norm threshold
            px[pole] = py[pole] = 0.0  # inf placeholders would warn until compaction
            live &= finite
        # distance to the origin is the norm: z = 0 throughout.  It is at
        # least mx, so only entries with mx < CAPTURE_TOL take the hypot
        mx = np.abs(px)
        np.maximum(mx, np.abs(py), out=mx)
        close = mx < analysis.CAPTURE_TOL
        close &= live
        if close.any():
            c = np.flatnonzero(close)
            close[c] = np.hypot(px[c], py[c]) < analysis.CAPTURE_TOL
            run_origin += 1
            run_origin *= close
            captured = run_origin >= analysis.SETTLE  # only live pixels are close
            if captured.any():
                retire(captured, _FATE_ORIGIN)
                live &= ~captured
        else:
            run_origin[:] = 0
        # the axis fixed points at z = +-xi are unreachable from z = 0
        # (the plane is exactly invariant), so the origin is the only
        # convergence target a basin render can see
        if depth_only:
            # every live pixel is before its first passage; the diamond
            # lookup runs on the pixels above depth_norm only
            far = _far(px, py, mx, cfg.depth_norm, live)
            far = far[_diamond_centers(px[far], py[far])]
            sel = idx[far]
            depth[sel] = when[sel] = step - born[far]
            live[far] = False
        # pixels at their max_iter-th step stay undecided; they entered
        # first, so they lead the set
        last = np.searchsorted(born, step - cfg.max_iter, side="right")
        when[idx[:last][live[:last]]] = cfg.max_iter
        live[:last] = False
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
    are white, undecided black."""
    t = _log_fraction(when, max_iter)
    img = np.zeros(fate.shape + (3,), dtype=float)
    origin = fate == _FATE_ORIGIN
    img[origin] = _ramp(t[origin], _ORIGIN_ANCHORS)
    img[fate == _FATE_POLE] = (255.0, 255.0, 255.0)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def colorize_depth(depth, max_iter):
    """Escape depth on a dark-to-light ramp; zero depth stays black."""
    img = np.zeros(depth.shape + (3,), dtype=float)
    got = depth > 0
    img[got] = _ramp(_log_fraction(depth[got], max_iter), _DEPTH_ANCHORS)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


# ---------------------------------------------------------------------------
# drivers

def _render(cfg: RenderConfig, finish, **kwargs):
    """``finish`` of classify_plane_block's arrays over the image, one band
    of rows per thread; no pixel's arithmetic depends on its band."""
    xs, ys = _pixel_axes(cfg, 0, cfg.height)
    ys = ys[:, np.newaxis]

    def band(y):
        return finish(classify_plane_block(xs, y, cfg, **kwargs))

    if cfg.threads == 1:
        return band(ys)
    # imported here: it pulls in logging, which a one-thread run never needs
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        bands = np.array_split(ys, min(cfg.threads, cfg.height))
        return np.concatenate(list(pool.map(band, bands)))


def render_basin(cfg: RenderConfig) -> np.ndarray:
    """Basin image: per-pixel orbit fate with capture-time shading.

    Returns an (height, width, 3) uint8 array, row 0 at the top.
    """
    return _render(cfg, lambda r: colorize_fates(r[0], r[1], cfg.max_iter))


def compute_escape_depth(cfg: RenderConfig) -> np.ndarray:
    """First step at which each pixel's orbit exceeds depth_norm inside a
    diamond (0 where that never happens within max_iter)."""
    return _render(cfg, lambda r: r[2], depth_only=True)


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

"""Basin and escape-depth images of the plane dynamics.

Pixels are classified by the origin-capture and pole rules of the scalar
orbit classifier, vectorized: one loop per image (per band with several
threads) streams the pixels through a working set.  Only one pixel per
first-step class runs: pixels whose first step reads the same folded
input up to the swap x <-> y and the sign of either folded coordinate
share an orbit up to that symmetry, and the others copy its arrays: the
fold is odd, and the kernel and the loop's rules commute with the swap
and with the sign flips, all bit for bit.  A basin pixel has three
outcomes: captured by the origin, a pole hit, or undecided at
``max_iter``.  The escape rule of
``classify_orbit`` does not run here: the escaping plane orbits form a
thin exceptional set, and no pixel of the renders measured in the README
lands on it.  An escape-depth render also stops each pixel at its first
passage above the depth threshold, found by one rule: the pixels above
it, then the diamond lookup on those.  Only that render tracks the
passage; a basin image's depth array stays 0.  The capture rule reads
the constants of ``analysis``.  A pixel's arithmetic does not depend on
which other pixels share the set, so the bytes equal those of iterating
every pixel to ``max_iter``, for any set size, band or thread count.
Output is 8-bit RGB, written as binary PPM (P6) so golden files need no
image library; PNG is available on request, encoded with the standard
library.  Colours are rows of a table indexed by count: each capture
step or depth present is coloured once and copied to its pixels, a
working set at a time, so a render's memory is its working set plus the
output image.
"""

import math
import numbers
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import analysis
from .core import HALF_PI, QUARTER_PI, fold_axis_grid, tangent3_grid
from .plane import _require_positive_lam

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
        _require_positive_lam(self.lam)
        for name in ("width", "height", "max_iter", "threads"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))  # numpy integers would wrap in the loop's arithmetic
        x0, y0, x1, y1 = self.window
        if not all(math.isfinite(c) for c in self.window):
            raise ValueError("window entries must be finite")
        if not (x1 > x0 and y1 > y0):
            raise ValueError("window must be non-degenerate")
        if self.width < 1 or self.height < 1:
            raise ValueError("resolution must be positive")
        # the farthest pixel centre's offset, as _pixel_axes computes it
        if not all(math.isfinite((n - 0.5) * (b - a))
                   for n, a, b in ((self.width, x0, x1), (self.height, y0, y1))):
            raise ValueError("window extent overflows: " + ",".join(f"{c:g}" for c in self.window))
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


def _in_diamond(x, y):
    """``_diamond_centers`` on (min(|x|, |y|), max(|x|, |y|)).  The
    diamonds are symmetric under the swap (x, y) -> (y, x) and under
    negating either coordinate, but the lookup rounds x - y and y - x
    apart within about an ulp of the edges x - y = k pi, and x + y and
    -x - y near x + y = k pi; this point of each orbit makes the
    membership commute with all of them bit for bit."""
    x, y = np.abs(x), np.abs(y)
    return _diamond_centers(np.minimum(x, y), np.maximum(x, y))


def _far(px, py, mx, bound, sel):
    """Indices where ``sel`` and hypot(px, py) > bound; the hypot is at most
    2 mx (mx = max(|px|, |py|)), so only mx >= bound/2 takes it."""
    c = np.flatnonzero(sel & (mx >= 0.5 * bound))
    return c[np.hypot(px[c], py[c]) > bound]


def classify_plane_block(x, y, cfg: RenderConfig, *, depth_only=False, pixels=None):
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

    With ``pixels``, a 1-D array of flat indices into the block, only
    those pixels run, entering in that order, and the arrays returned are
    theirs.
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    w = max(shape[-1], 1) if shape else 1
    xr, yr = (np.broadcast_to(np.asarray(c, dtype=float), shape).reshape(-1, w)
              for c in (x, y))
    size = xr.size if pixels is None else pixels.size
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
            fresh = np.arange(entered, entered + k)
            idx = refill(idx, fresh)
            born = refill(born, step)
            # the entering pixels' rows and columns in the block
            at = np.divmod(fresh if pixels is None else pixels[entered:entered + k], w)
            px = refill(px, xr[at])
            py = refill(py, yr[at])
            del fresh, at
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
            far = far[_in_diamond(px[far], py[far])]
            sel = idx[far]
            depth[sel] = when[sel] = step - born[far]
            live[far] = False
        # pixels at their max_iter-th step stay undecided; they entered
        # first, so they lead the set
        last = np.searchsorted(born, step - cfg.max_iter, side="right")
        when[idx[:last][live[:last]]] = cfg.max_iter
        live[:last] = False
    if pixels is None:
        return fate.reshape(shape), when.reshape(shape), depth.reshape(shape)
    return fate, when, depth


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


def _palette(counts, max_iter, anchors):
    """The ramp's uint8 RGB at log1p(count) / log1p(max_iter), one row per
    entry of the 1-D integer array ``counts``.

    Each count present is coloured once, as a row of a table, and every
    entry gathers its row.  The rows are 0..max count when that is fewer
    than the entries, else the distinct counts, so the table never
    outgrows them (a max_iter of 1e7 on a small image builds no 1e7-row
    table).  A row is the elementwise arithmetic of colouring an entry
    alone, on the same value, so the bytes are those of a float image.
    Counts past max_iter take the ramp's end, as ``_ramp`` clips.
    """
    top = counts.max(initial=0)
    if top < counts.size:
        rows, at = np.arange(top + 1), counts
    else:
        rows, at = np.unique(counts, return_inverse=True)
    t = np.log1p(rows.astype(float)) / math.log1p(max_iter)
    table = np.clip(np.rint(_ramp(t, anchors)), 0, 255).astype(np.uint8)
    return np.take(table, at, axis=0)


def _colorize(counts, max_iter, anchors, fate=None):
    """(h, w, 3) uint8 image of the integer image ``counts``, a working set
    of pixels at a time: the pixels with fate origin (without ``fate``,
    those with a positive count) take ``_palette``'s colour, pole hits
    are white and the rest black.  Its memory is the output image plus
    the temporaries of one working set."""
    counts = np.asarray(counts)
    if not np.issubdtype(counts.dtype, np.integer) or counts.min(initial=0) < 0:
        raise ValueError(f"palette counts must be non-negative integers, got dtype "
                         f"{counts.dtype} with min {counts.min(initial=0)}")
    img = np.zeros(counts.shape + (3,), dtype=np.uint8)
    rgb, flat = img.reshape(-1, 3), counts.reshape(-1)
    if fate is not None:
        fate = np.asarray(fate)
        if fate.shape != counts.shape:
            raise ValueError(f"fate shape {fate.shape} differs from when shape {counts.shape}")
        fate = fate.reshape(-1)
    for i in range(0, flat.size, _WORKING_SET):
        part, c = rgb[i:i + _WORKING_SET], flat[i:i + _WORKING_SET]
        if fate is None:
            shaded = c > 0
        else:
            f = fate[i:i + _WORKING_SET]
            shaded = f == _FATE_ORIGIN
            part[f == _FATE_POLE] = 255
        part[shaded] = _palette(c[shaded], max_iter, anchors)
    return img


def colorize_fates(fate, when, max_iter):
    """Fate hue with log-scaled capture-time lightness: fast capture into the
    origin is dark blue, slow capture drifts through yellow to red; pole hits
    are white, undecided black.  Each capture step present is coloured once
    (``_palette``); a negative ``when`` raises ValueError."""
    return _colorize(when, max_iter, _ORIGIN_ANCHORS, fate=fate)


def colorize_depth(depth, max_iter):
    """Escape depth on a dark-to-light ramp; zero depth stays black.  Each
    depth present is coloured once (``_palette``); a negative depth raises
    ValueError."""
    return _colorize(depth, max_iter, _DEPTH_ANCHORS)


# ---------------------------------------------------------------------------
# drivers

def _first_step_classes(xs, ys):
    """Each pixel's representative among those with the same first step up
    to symmetry, for the grid of columns ``xs`` and rows ``ys``.

    ``tangent3_grid`` reads a point only as (fx, fy, ox ^ oy): the folded
    coordinates and the tile parity.  Its result commutes bit for bit with
    the swap (x, y) -> (y, x) and with negating fx or fy: the tile map
    reads only |fx| and |fy|, IEEE products are sign-symmetric and libm's
    hypot takes fabs first.  The fold is odd bit for bit (``fold_axis``),
    so a point whose coordinates are negated folds to the negated point
    with the same parity, and each later step of two such orbits agrees
    up to the signs too.  So two pixels whose inputs agree up to the swap
    and the signs have orbits that agree up to them, and the same fate,
    ``when`` and depth: the capture rule reads hypot and the depth rule
    ``_in_diamond``, both of |x| and |y| in either order.  Each column and
    row gets a key, the bit pattern of its |folded value| (so +0.0 and
    -0.0 meet) and its parity.  A pixel's representative is the least
    flat index among its images under the identity, the flip of both
    parities, the swap and both.  Each image's least index is a row term
    plus a column term looked up per key, so no sort runs.

    Returns ``band(i0, i1)``: for the pixel rows [i0, i1), each pixel's
    representative (an (i1 - i0, len(xs)) array of flat indices) and the
    representatives among them (their flat indices, increasing).
    """
    h, w = ys.size, xs.size
    keys, firsts = [], []
    for axis in (xs, ys):
        f, odd = fold_axis_grid(axis, QUARTER_PI)
        keys.append(list(zip(np.abs(f).view(np.int64).tolist(), odd.tolist())))
        first = {}
        for i, key in enumerate(keys[-1]):
            first.setdefault(key, i)
        firsts.append(first)
    (cols, rows), flipped = keys, [[(v, not o) for v, o in k] for k in keys]

    def term(keys, axis):
        # the least column (axis 0) or row (axis 1) with each key, as a
        # flat-index term; a key the axis lacks gives h*w, past every pixel
        first, scale = firsts[axis], (1, w)[axis]
        return np.array([first.get(k, h * w // scale) for k in keys], dtype=np.intp) * scale

    # (row table, column table) of each image; the swap reads a row's key
    # among the columns and a column's among the rows
    images = [(term(rows, 1), term(cols, 0)), (term(flipped[1], 1), term(flipped[0], 0)),
              (term(rows, 0), term(cols, 1)), (term(flipped[1], 0), term(flipped[0], 1))]

    def band(i0, i1):
        rep = np.add.outer(images[0][0][i0:i1], images[0][1])
        tmp = np.empty_like(rep)
        for r, c in images[1:]:
            np.minimum(rep, np.add.outer(r[i0:i1], c, out=tmp), out=rep)
        own = np.arange(i0 * w, i1 * w)
        return rep, own[rep.ravel() == own]

    return band


def _render(cfg: RenderConfig, *, depth_only=False):
    """fate and when over the image, or with ``depth_only`` the escape
    depth, from classify_plane_block on one representative pixel per
    first-step class (``_first_step_classes``), split into one band per
    thread; every other pixel copies its representative's values.  The
    bytes are those of classifying every pixel: no pixel's arithmetic
    depends on which others share its call.  The class maps are built a
    band of rows at a time, so they never take an image's room."""
    h, w = cfg.height, cfg.width
    # the images first, below the temporaries: allocated after them they
    # left the heap fragmented, peak RSS +0.27 MiB over 150 escape renders
    image = [np.empty((h, w), dtype=t)
             for t in ((np.int32,) if depth_only else (np.uint8, np.int32))]
    xs, ys = _pixel_axes(cfg, 0, h)
    classes = _first_step_classes(xs, ys)
    step = max(1, _WORKING_SET // w)
    bands = [(i, min(i + step, h)) for i in range(0, h, step)]
    reps = np.concatenate([classes(*b)[1] for b in bands])

    def classify(pixels):
        return classify_plane_block(xs, ys[:, np.newaxis], cfg, depth_only=depth_only,
                                    pixels=pixels)

    if cfg.threads == 1:
        out = classify(reps)
    else:
        # imported here: it pulls in logging, which a one-thread run never needs
        from concurrent.futures import ThreadPoolExecutor

        k = min(cfg.threads, reps.size)
        with ThreadPoolExecutor(max_workers=k) as pool:
            parts = list(pool.map(classify, np.array_split(reps, k)))
        out = [np.concatenate(a) for a in zip(*parts)]
    out = out[2:] if depth_only else out[:2]
    del reps
    # each representative's place among them, filled band by band: no
    # pixel's representative comes after it
    position = np.empty(h * w, dtype=np.int32 if h * w < 2**31 else np.intp)
    done = 0
    for i0, i1 in bands:
        rep, reps = classes(i0, i1)
        position[reps] = np.arange(done, done + reps.size)
        done += reps.size
        at = position[rep]
        for a, im in zip(out, image):
            im[i0:i1] = a[at]
    return image


def render_basin(cfg: RenderConfig) -> np.ndarray:
    """Basin image: per-pixel orbit fate with capture-time shading.

    Returns an (height, width, 3) uint8 array, row 0 at the top.
    """
    return colorize_fates(*_render(cfg), cfg.max_iter)


def compute_escape_depth(cfg: RenderConfig) -> np.ndarray:
    """First step at which each pixel's orbit exceeds depth_norm inside a
    diamond (0 where that never happens within max_iter)."""
    return _render(cfg, depth_only=True)[0]


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


def encode_png(image: np.ndarray) -> bytes:
    """8-bit RGB PNG encoding of an (h, w, 3) uint8 array, every row with
    filter type 0 (none); PPM is the canonical format."""
    _check_rgb(image)
    h, w = image.shape[:2]
    rows = np.concatenate([np.zeros((h, 1), dtype=np.uint8), image.reshape(h, 3 * w)],
                          axis=1)
    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # depth 8, colour type RGB
    return (b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", header)
            + _png_chunk(b"IDAT", zlib.compress(rows.tobytes()))
            + _png_chunk(b"IEND", b""))

"""Dynamics of the tangent map restricted to the invariant plane z = 0.

The plane map F has a square lattice of poles whose open L1 diamonds of
radius pi/2 tile the plane off the diagonal grid of lines y = +-x + k*pi.
Off a short closed diagonal segment through the origin, F admits one
single-valued inverse branch into each diamond; those branches are the
engine behind itineraries and periodic points.  This module evaluates F
and its derivative, constructs the inverse branches in closed form
(with a residual check on the tile offset, before the unfold, so a
wrong branch can never pass silently at any pole norm), and
calibrates the radii used by expansion-based arguments.  The tangent
map takes each tile's beam one to one onto a half-space, so its
preimages in a box, off the plane too, are one hemisphere-chart point
per tile, unfolded (``preimages_tangent3``); ``_unfold`` is the one
inverse of the tile fold, shared with the branch points.
"""

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    HALF_PI,
    INFINITY,
    QUARTER_PI,
    _NONFINITE,
    _bisect,
    _chordal_finite,
    _chordal_infinite,
    _hemisphere_xy,
    _require_finite,
    _tile_map,
    _tile_map_grid,
    cayley_inverse,
    chordal,
    chordal_grid,
    fold_axis,
    fold_axis_grid,
    is_infinity,
    tangent3,
    tangent3_grid,
    tile_index,
    vec_norm,
)

SQRT2 = math.sqrt(2.0)


class PoleIndex(NamedTuple):
    m: int
    n: int


def _pole_xy(m, n):
    """Plane coordinates ((n+m)pi/2, (n-m+1)pi/2) of pole (m, n), as floats."""
    return (n + m) * HALF_PI, (n - m + 1) * HALF_PI


def pole_location(idx) -> np.ndarray:
    """Plane coordinates ((n+m)pi/2, (n-m+1)pi/2) of pole (m, n)."""
    m, n = idx
    return np.array(_pole_xy(m, n))


def containing_diamond(p):
    """Index of the open diamond containing p, or None on the diagonal grid.

    In rotated coordinates u = x+y, v = y-x the diamonds are axis-aligned
    squares of side pi centred at (n*pi + pi/2, -m*pi + pi/2), so the
    index is found by rounding; membership is strict.  A finite point
    whose u or v overflows is also None: at that size adjacent floats are
    far more than a diamond apart, so no diamond can be resolved.
    """
    x, y = float(p[0]), float(p[1])
    u = x + y
    v = y - x
    try:
        n = round((u - HALF_PI) / math.pi)
        m = round((HALF_PI - v) / math.pi)
    except (OverflowError, ValueError):
        _require_finite(x, y)
        return None
    lx, ly = _pole_xy(m, n)
    if abs(x - lx) + abs(y - ly) < HALF_PI:
        return PoleIndex(int(m), int(n))
    return None


def plane_map(p, lam: float = 1.0):
    """F(p) = tangent3((p_x, p_y, 0)); stays in the plane or hits INFINITY.

    A single call of ``tangent3`` (so the float core's exact z = 0
    branch), which also rejects a non-finite point.  The library does not
    call it: the inverse branches check F on the tile offset
    (``_tile_map``), and the symbolic layer steps with the float core.
    """
    t = tangent3([float(p[0]), float(p[1]), 0.0], lam)
    if is_infinity(t):
        return INFINITY
    return t[:2]


# ---------------------------------------------------------------------------
# derivative


@dataclass
class JacobianSample:
    """Derivative of the plane map at one point, from its closed form."""

    point: np.ndarray
    matrix: np.ndarray
    min_singular_value: float
    max_singular_value: float
    eigenvalues: tuple | None  # pair of reals when the spectrum is real


def _fold_point(p):
    """(fx, px, fy, py): p folded into the fundamental square, with the
    reflection parity of each coordinate; a non-finite p raises the
    ValueError of tangent3."""
    x, y = float(p[0]), float(p[1])
    try:
        return fold_axis(x, QUARTER_PI) + fold_axis(y, QUARTER_PI)
    except (OverflowError, ValueError):
        _require_finite(x, y)
        raise


def distance_to_nonsmooth(p) -> float:
    """Distance from p to the fold lines x,y = (2k+1)pi/4 and the diagonals of its tile.

    The plane map is smooth off these; derivative sampling must keep away
    from them.
    """
    fx, _, fy, _ = _fold_point(p)
    return _nonsmooth_distance(fx, fy, abs, min, math.hypot)


def _nonsmooth_distance(fx, fy, absolute, minimum, hypot):
    """distance_to_nonsmooth at the folded point (fx, fy), with the
    functions from the builtins and math (floats) or numpy (arrays)."""
    d_fold = minimum(QUARTER_PI - absolute(fx), QUARTER_PI - absolute(fy))
    d_diag = minimum(absolute(absolute(fx) - absolute(fy)) / SQRT2, hypot(fx, fy))
    return minimum(d_fold, d_diag)


def _distance_to_nonsmooth_grid(x, y):
    """distance_to_nonsmooth at arrays of plane points."""
    fx, _ = fold_axis_grid(np.asarray(x, dtype=float), QUARTER_PI)
    fy, _ = fold_axis_grid(np.asarray(y, dtype=float), QUARTER_PI)
    return _nonsmooth_distance(fx, fy, np.abs, np.minimum, np.hypot)


def _jacobian_entries(qx, qy, r, mx, my, g, dg, sx, sy, lam):
    """Entries (a, b, c, d) of DF = [[a, b], [c, d]] at a point folded to q = (qx, qy).

    On its tile F = lam*q*g(m)/r with r = |q|, m = max(|qx|, |qy|) and
    g = tan on even tiles, cot on odd ones (the inversion folded in), so
    DF = lam*[(g/r)I - (g/r^3)q q^T + (g'/r)q grad(m)^T] diag(sx, sy), where
    grad(m) = (mx, my) is the signed axis of the larger coordinate,
    dg = g'(m) and sx, sy = +-1 are the fold's reflections.  With u = q/r,
    I - u u^T = [[uy^2, -ux uy], [-ux uy, ux^2]], so no entry cancels.
    Plain arithmetic: floats and arrays alike.
    """
    ux = qx / r
    uy = qy / r
    c = g / r
    cross = -c * ux * uy
    return (lam * (c * uy * uy + dg * ux * mx) * sx,
            lam * (cross + dg * ux * my) * sy,
            lam * (cross + dg * uy * mx) * sx,
            lam * (c * ux * ux + dg * uy * my) * sy)


def _plane_jacobian(p, lam):
    """DF at p as a (2, 2) array: the closed form on Python floats.

    Defined off the tile centres (r = 0); on a fold line or a tile
    diagonal it is the derivative from one side.
    """
    fx, px, fy, py = _fold_point(p)
    ax, ay = abs(fx), abs(fy)
    on_x = ax >= ay
    t = math.tan(max(ax, ay))
    g, sign = (1.0 / t, -1.0) if (px + py) % 2 else (t, 1.0)
    a, b, c, d = _jacobian_entries(
        fx, fy, math.hypot(fx, fy),
        math.copysign(1.0, fx) if on_x else 0.0, 0.0 if on_x else math.copysign(1.0, fy),
        g, sign * (1.0 + g * g), -1.0 if px else 1.0, -1.0 if py else 1.0, lam)
    return np.array([[a, b], [c, d]])


def _jacobian_grid(x, y, lam):
    """Entries (a, b, c, d) of DF_lam = [[a, b], [c, d]] at arrays of plane
    points, from the closed form of ``_jacobian_entries``.

    The array counterpart of ``_plane_jacobian``; defined off the tile
    centres, where tan of the fold maximum vanishes.
    """
    fx, ox = fold_axis_grid(np.asarray(x, dtype=float), QUARTER_PI)
    fy, oy = fold_axis_grid(np.asarray(y, dtype=float), QUARTER_PI)
    ax, ay = np.abs(fx), np.abs(fy)
    on_x = ax >= ay
    t = np.tan(np.maximum(ax, ay))
    odd = ox ^ oy
    g = np.where(odd, 1.0 / t, t)
    return _jacobian_entries(
        fx, fy, np.hypot(fx, fy),
        np.where(on_x, np.copysign(1.0, fx), 0.0), np.where(on_x, 0.0, np.copysign(1.0, fy)),
        g, np.where(odd, -1.0, 1.0) * (1.0 + g * g), np.where(ox, -1.0, 1.0),
        np.where(oy, -1.0, 1.0), lam)


def jacobian_plane_map(p, lam: float = 1.0) -> JacobianSample:
    """DF at p from the closed form, with its singular values and real eigenvalues.

    Points within 1e-6 of the fold lines or tile diagonals are rejected
    (the max in the formula is not differentiable there).
    """
    if distance_to_nonsmooth(p) <= 1e-6:
        raise ValueError("point too close to the non-smooth set")
    j = _plane_jacobian(p, lam)
    (a, b), (c, d) = j.tolist()
    smin, smax = map(float, singular_values_2x2(a, b, c, d))
    lo, hi, real = _real_eigenvalues(a, b, c, d)
    return JacobianSample(np.array([float(p[0]), float(p[1])]), j, smin, smax,
                          (float(lo), float(hi)) if real else None)


def singular_values_2x2(a, b, c, d):
    """(s_min, s_max) of [[a, b], [c, d]] in closed form, on numbers or arrays."""
    f = a * a + b * b + c * c + d * d
    det = a * d - b * c
    root = np.sqrt(np.maximum(f * f - 4.0 * det * det, 0.0))
    smax = np.sqrt((f + root) / 2.0)
    smin = np.sqrt(np.maximum((f - root) / 2.0, 0.0))
    return smin, smax


def _real_eigenvalues(a, b, c, d):
    """(lo, hi, real) for [[a, b], [c, d]] in closed form, on numbers or
    arrays: the eigenvalues lo <= hi where they are real (``real``:
    tr^2 >= 4 det)."""
    tr = a + d
    disc = tr * tr - 4.0 * (a * d - b * c)
    sq = np.sqrt(np.maximum(disc, 0.0))
    return (tr - sq) / 2.0, (tr + sq) / 2.0, disc >= 0.0


# ---------------------------------------------------------------------------
# inverse branches

def diagonal_segment_distance(w, lam: float):
    """Distance from w, a point or an array of points along the last axis,
    to the closed segment {(x, +-x): |x| <= lam/sqrt(2)} removed from the
    branch domain: the nearer of its pieces on y = x and y = -x (nearest
    parameters t and s)."""
    w = np.asarray(w, dtype=float)
    x, y = w[..., 0], w[..., 1]
    half = lam / SQRT2
    t = np.clip((x + y) / 2.0, -half, half)
    s = np.clip((x - y) / 2.0, -half, half)
    return np.minimum(np.hypot(x - t, y - t), np.hypot(x - s, y + s))


class BranchDomainError(ValueError):
    """Target outside the domain of the inverse branches."""


class BranchResidualError(RuntimeError):
    """The branch point did not reproduce the target; indicates a bug or an
    invalid target, never a legitimate outcome."""


def _domain_error(w, q, lam):
    return BranchDomainError(
        f"target {w} lies on the removed diagonal segment at lam={lam} (diamond {q})")


def _residual_error(w, q, lam, res):
    return BranchResidualError(
        f"no preimage of {w} in diamond {q} at lam={lam} (best residual {res:.3e})")


def _branch_angle(wx, wy, lam):
    """(mu, odd) for a finite target w on Python floats: the larger
    coordinate mu of the folded preimage, and whether that preimage lies on
    the pole's odd tile (|w| >= lam, |F| = lam*cot(mu)) rather than an even
    one (|F| = lam*tan(mu))."""
    r = math.hypot(wx, wy)
    if r >= lam:
        return math.atan(lam / r), True
    return math.atan(r / lam), False


def _sign_of_parity(k):
    """(-1)^k for integers, as an integer (arrays too)."""
    return 1 - 2 * (k % 2)


def _unfold(ti, tj, qx, qy):
    """The point of tile (ti, tj) that ``fold_axis`` at pi/4 folds to
    (qx, qy): (ti*pi/2 + (-1)^ti qx, tj*pi/2 + (-1)^tj qy).  Integer tile
    indices; numbers and arrays alike."""
    return (ti * HALF_PI + _sign_of_parity(ti) * qx,
            tj * HALF_PI + _sign_of_parity(tj) * qy)


def _branch_point(i, j, wx, wy, mu, odd, maximum):
    """The preimage of w in the diamond of the pole at (i, j)*pi/2 (i + j
    odd), with (mu, odd) from ``_branch_angle``: its tile (ti, tj), of
    parity ``odd``, and its folded offset (qx, qy) there.

    The offset is w*mu/|w|_inf, on the pole's odd tile or on the even
    neighbour that w's larger coordinate points to, k -> k + (-1)^k
    sign(w_k) along that axis.  Integer arithmetic on the flags, so the
    same for numbers and arrays; ``maximum`` is max or np.maximum.
    """
    ax, ay = abs(wx), abs(wy)
    s = mu / maximum(ax, ay)
    along_x = ax > ay
    step = 1 - odd  # 0 on the odd tile
    ti = i + step * along_x * _sign_of_parity(i) * (2 * (wx > 0.0) - 1)
    tj = j + step * (1 - along_x) * _sign_of_parity(j) * (2 * (wy > 0.0) - 1)
    return ti, tj, wx * s, wy * s


def inverse_branch(q, w, lam: float = 1.0) -> np.ndarray:
    """The inverse branch of the plane map taking values in diamond q.

    At the folded point F is parallel to it with |F| = lam*g(m), so a
    finite w has one preimage in the diamond, in closed form
    (``_branch_point``): the folded point w*mu/|w|_inf, with
    mu = arctan(lam/|w|) on the pole's odd tile when |w| >= lam, else
    mu = arctan(|w|/lam) on an even neighbour.  It is accepted only if F
    on that offset (``_tile_map``) reproduces w within 1e-9 (chordal), and
    returned unfolded.  w = INFINITY maps to the pole, its tile's centre,
    which also competes (and wins only strictly) for targets near
    infinity.  q must be integers; a w with w/lam beyond the float range
    is rejected as non-finite.  Everything runs on Python floats; only
    the returned point is an array.
    """
    _require_positive_lam(lam)
    try:
        m, n = map(operator.index, q)
    except TypeError:
        raise ValueError(f"pole index {tuple(q)} is not a pair of integers") from None
    lx, ly = _pole_xy(m, n)
    if is_infinity(w):
        return np.array([lx, ly])
    wx, wy = float(w[0]), float(w[1])
    # diagonal_segment_distance(w, lam) == 0.0, exactly
    if (wy == wx or wy == -wx) and abs(wx) <= lam / SQRT2:
        raise _domain_error((wx, wy), (m, n), lam)
    _require_finite(wx / lam, wy / lam)
    mu, odd = _branch_angle(wx, wy, lam)
    ti, tj, qx, qy = _branch_point(n + m, n - m + 1, wx, wy, mu, odd, max)
    ww = wx * wx + wy * wy
    res = pole_res = _chordal_infinite(ww, (wx, wy))  # the residual of a pole hit
    t = _tile_map(qx, qy, 0.0, odd, lam)
    if t is not None:
        tx, ty = t[0], t[1]
        dx, dy = tx - wx, ty - wy
        res = _chordal_finite(dx * dx + dy * dy, tx * tx + ty * ty, ww,
                              (dx, dy, 0.0), (tx, ty, 0.0), (wx, wy, 0.0))
    best = (lx, ly) if pole_res < res else _unfold(ti, tj, qx, qy)
    res = min(res, pole_res)
    if not res <= 1e-9:
        raise _residual_error((wx, wy), (m, n), lam, res)
    return np.array(best)


def _inverse_branch_grid(m, n, wx, wy, lam):
    """inverse_branch's points, bit for bit, for arrays of finite targets
    (wx, wy), each into the diamond of pole (m, n) (integer arrays too).

    ``_branch_angle`` target by target on Python floats (numpy's hypot
    and arctan differ from math's in the last bit), then
    ``_branch_point`` on arrays, and the residuals from ``_tile_map_grid``
    and ``chordal_grid``, the pole's against INFINITY, as in
    ``inverse_branch``.  Raises its errors, naming the first target at fault.
    """
    m, n, wx, wy = np.broadcast_arrays(*(np.asarray(c, dtype=t).ravel() for c, t in (
        (m, np.int64), (n, np.int64), (wx, float), (wy, float))))

    def first(bad):
        i = int(np.argmax(bad))
        return (float(wx[i]), float(wy[i])), (int(m[i]), int(n[i]))

    on = ((wy == wx) | (wy == -wx)) & (np.abs(wx) <= lam / SQRT2)
    if on.any():
        raise _domain_error(*first(on), lam)
    with np.errstate(over="ignore"):  # as Python floats overflow to inf
        if not (np.isfinite(wx / lam).all() and np.isfinite(wy / lam).all()):
            raise ValueError(_NONFINITE)
    angles = [_branch_angle(a, b, lam) for a, b in zip(wx.tolist(), wy.tolist())]
    mu = np.array([a for a, _ in angles], dtype=float)
    odd = np.array([o for _, o in angles], dtype=bool)
    i, j = n + m, n - m + 1
    ti, tj, qx, qy = _branch_point(i, j, wx, wy, mu, odd, np.maximum)
    x, y = _unfold(ti, tj, qx, qy)  # before the tile map overwrites the offset
    res = chordal_grid(_tile_map_grid(qx, qy, 0.0, odd, lam)[:3], (wx, wy, 0.0))
    pole_res = chordal_grid((math.inf, 0.0, 0.0), (wx, wy, 0.0))
    win = pole_res < res
    res = np.where(win, pole_res, res)
    bad = ~(res <= 1e-9)
    if bad.any():
        w, q = first(bad)
        raise _residual_error(w, q, lam, res[int(np.argmax(bad))])
    return np.where(win, i * HALF_PI, x), np.where(win, j * HALF_PI, y)


def _tiles(lo, hi):
    """The indices of the tiles that ``fold_axis`` assigns to [lo, hi]."""
    return range(tile_index(lo, QUARTER_PI), tile_index(hi, QUARTER_PI) + 1)


def preimages_tangent3(target, lam: float, xy_box):
    """All solutions of tangent3(v, lam) = target with (v_x, v_y) in xy_box.

    ``target`` may be a finite 3-vector or INFINITY (whose preimages are
    the poles); ``xy_box`` is a finite closed box (x0, x1, y0, y1).  Each
    tile's beam maps one to one onto a half-space, so with
    u = cayley_inverse(target/lam) a target has one preimage per tile:
    half the chart point of u/|u| on even tiles, of (u_x, u_y, -u_z)/|u|
    on odd ones (both within 1e-12 of the equator), unfolded, at height
    log|u|/2.  Returns those in the box whose chart point passes the
    forward check (chordal residual below 1e-9, on the tile offset, so
    the same for every tile of a parity), each point once, in tile order.
    """
    return list(_tile_preimages(target, lam, xy_box))


def _tile_preimages(target, lam: float, xy_box):
    """``preimages_tangent3``'s points one at a time, in its tile order; a
    tile is unfolded only when the scan reaches it."""
    _require_positive_lam(lam)
    x0, x1, y0, y1 = box = tuple(map(float, xy_box))
    if not all(map(math.isfinite, box)):
        raise ValueError(f"box entries must be finite, got {box}")
    u = cayley_inverse(target if is_infinity(target)
                       else np.asarray(target, dtype=float) / lam)
    if is_infinity(u):
        return []  # target = (0,0,lam), an omitted value
    norm = vec_norm(u)
    if norm == 0.0:
        return []  # target = (0,0,-lam), the other omitted value
    zc = math.log(norm) / 2.0
    ux, uy, uz = (u / norm).tolist()
    # the folded point on even and on odd tiles, or None where it fails
    half = [None, None]
    for odd, sz in enumerate((uz, -uz)):
        if sz >= -1e-12:  # on that hemisphere
            q = [c / 2.0 for c in _hemisphere_xy(ux, uy, sz)]
            t = _tile_map(*q, zc, odd, lam)
            half[odd] = q if chordal(INFINITY if t is None else t, target) < 1e-9 else None
    seen = set()  # a point on a mirror line unfolds from the tiles on both sides
    for ti in _tiles(x0, x1):
        for tj in _tiles(y0, y1):
            q = half[(ti + tj) % 2]
            if q is None:
                continue
            x, y = _unfold(ti, tj, *q)
            if x0 <= x <= x1 and y0 <= y <= y1 and (x, y) not in seen:
                seen.add((x, y))
                yield np.array([x, y, zc])


# ---------------------------------------------------------------------------
# contraction / expansion certificates

def branch_contraction_ratio(q, pairs, lam: float = 1.0) -> float:
    """max over pairs of |S_q(w1)-S_q(w2)| / |w1-w2|.

    Coincident pairs are skipped.  The derivative bound on the branches
    caps this at sqrt(2)/lam.  One batched engine pass.
    """
    w1, w2, d = _pair_arrays(pairs)
    keep = d != 0.0
    n = int(np.count_nonzero(keep))
    x, y = _inverse_branch_grid(*PoleIndex(*q), np.concatenate([w1[keep, 0], w2[keep, 0]]),
                                np.concatenate([w1[keep, 1], w2[keep, 1]]), lam)
    dx = x[:n] - x[n:]
    dy = y[:n] - y[n:]
    return float(np.max(np.sqrt(dx * dx + dy * dy) / d[keep], initial=0.0))


def pole_expansion_ratio(pairs, lam: float = 1.0) -> float:
    """min over pairs of |F(a)-F(b)| / |a-b|, the pairs near one pole.

    A pair with an infinite image expands trivially (the other image is
    finite, so the chordal gap is positive while |a-b| is tiny) and is
    skipped rather than measured.  Pairs on opposite sides of the pole
    need no special handling: their images sit in the far field in
    roughly opposite directions, making the Euclidean gap huge.  One
    ``tangent3_grid`` pass per side.
    """
    a, b, d = _pair_arrays(pairs)
    ax, ay, _, a_fin = tangent3_grid(a[:, 0], a[:, 1], 0.0, lam)
    bx, by, _, b_fin = tangent3_grid(b[:, 0], b[:, 1], 0.0, lam)
    keep = (d != 0.0) & a_fin & b_fin
    dx = ax[keep] - bx[keep]
    dy = ay[keep] - by[keep]
    return float(np.min(np.sqrt(dx * dx + dy * dy) / d[keep], initial=math.inf))


def _pair_arrays(pairs):
    """Arrays (a, b, |a - b|) of point pairs; non-finite points raise the
    ValueError of tangent3."""
    w = np.asarray(pairs, dtype=float).reshape(len(pairs), 2, 2)
    if not np.isfinite(w).all():
        raise ValueError(_NONFINITE)
    a, b = w[:, 0], w[:, 1]
    return a, b, np.hypot(a[:, 0] - b[:, 0], a[:, 1] - b[:, 1])


# ---------------------------------------------------------------------------
# calibration

@dataclass(frozen=True)
class ExpansionCalibration:
    """Radii certifying the expansion picture around poles for one lam.

    All but domain_radius are closed forms on a pole's odd tile, where
    |F| = lam*cot(m), m the larger coordinate of the offset from the pole
    (README, "The expansion certificate").

    delta:   ball about each pole where the least singular value of DF
             stays >= 2, at most pi/4 (the ball stays on the odd tile)
    r1:      far-field radius; the circle |y| = r1 pulls back within
             0.98*delta of the pole
    eps:     ball about each pole whose image stays at norm > 2*r1
    far_field_bound: sup of |F| over a diamond minus its eps-ball,
             attained on the tile diagonals at distance eps
    branch_radius:   poles beyond this norm have every branch image of
             their diamond inside the eps-ball (far_field_bound plus the
             diamond circumradius, with margin)
    domain_radius:   poles beyond this norm have the closed diamond
             disjoint from the removed diagonal segment
    """

    lam: float
    delta: float
    r1: float
    eps: float
    far_field_bound: float
    branch_radius: float
    domain_radius: float


_CALIBRATION_CACHE: dict = {}


def _polar_min_singular(rho, theta, lam):
    """Least singular value of DF at distance rho from a pole, at angle
    theta in [0, pi/4] from the axis, on the pole's odd tile.

    With c = cos(theta), m = rho*c and c' = sin(theta), DF in the frame
    (radial, angular) is lam*[[-a, -b], [0, d]] with a = c csc^2 m,
    b = c' csc^2 m and d = cot(m)/rho.  Its singular values have sum
    hypot(a + d, b) and difference hypot(a - d, b) (times lam) and
    product lam^2*a*d, so the least one needs no subtraction.
    """
    c = math.cos(theta)
    m = rho * c
    s = math.sin(m)
    csc2 = 1.0 / (s * s)
    a = c * csc2
    b = math.sin(theta) * csc2
    d = math.cos(m) / (s * rho)
    return 2.0 * lam * a * d / (math.hypot(a + d, b) + math.hypot(a - d, b))


def _domain_radius(lam):
    """Largest norm of a pole whose closed diamond meets the removed
    segment, times 1 + 1e-9.

    In u = x + y, v = y - x the L1 distance is the larger of |du| and
    |dv|, pole (m, n) sits at ((2n + 1) pi/2, (1 - 2m) pi/2), and the
    segment's piece on y = x is {v = 0, |u| <= sqrt2 lam}.  So the poles
    within pi/2 of that piece have m in {0, 1} and n*pi <= sqrt2 lam (or
    the mirror image, -n - 1 for n), and those of the piece on y = -x are
    their reflections x -> -x: the farthest is pole (0, n), n the largest.
    """
    n = math.floor((2.0 * (lam / SQRT2) + 1e-12) / math.pi)
    return float(np.linalg.norm(pole_location((0, n)))) * (1.0 + 1e-9)


def _require_positive_lam(lam):
    """Raise the ValueError for a scaling parameter that is not positive and
    finite (NaN and inf included)."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"scaling parameter must be positive, got {lam}")


def calibrate_expansion(lam: float) -> ExpansionCalibration:
    """The certificate radii at parameter lam, in closed form (cached).

    delta is the largest rho <= pi/4 whose circle keeps the least
    singular value of DF >= 2: bisection on rho (the value falls with
    rho) of its minimum over the angle, itself found by bisection, taken
    a relative 1e-12 inside the root, where its guard checks it.  Then
    r1 = lam/tan(0.98*delta/sqrt2), eps = arctan(lam/(2*r1)) and
    far_field_bound = lam*cot(eps/sqrt2), and branch_radius adds 1.05
    times the diamond circumradius pi/2 to it.
    """
    _require_positive_lam(lam)
    key = float(lam)
    hit = _CALIBRATION_CACHE.get(key)
    if hit is not None:
        return hit

    def expands(rho):  # the least singular value on the circle of radius rho is >= 2
        def f(t):
            return _polar_min_singular(rho, t, key)
        # f has one minimum over the angle, where its slope changes sign
        return f(_bisect(lambda t: f(t) > f(t + 1e-8), 0.0, QUARTER_PI)) >= 2.0

    if expands(QUARTER_PI):
        delta = QUARTER_PI
    else:
        delta = _bisect(expands, 0.0, QUARTER_PI) * (1.0 - 1e-12)
        if not expands(delta):  # 200 halvings of pi/4 fell short of the root
            raise RuntimeError(f"expansion radius below the bisection's reach at lam={lam}")
    r1 = key / math.tan(0.98 * delta / SQRT2)
    eps = math.atan(key / (2.0 * r1))
    far = key / math.tan(eps / SQRT2)
    cal = ExpansionCalibration(lam=key, delta=delta, r1=r1, eps=eps, far_field_bound=far,
                               branch_radius=far + HALF_PI * 1.05,
                               domain_radius=_domain_radius(key))
    _CALIBRATION_CACHE[key] = cal
    return cal


def required_tail_radius(lam: float) -> float:
    """Pole-norm threshold for itinerary tails and periodic cycles.

    For lam <= sqrt(2) the nested-diamond construction leans on the
    eps-ball expansion, so tails must clear branch_radius.  For larger
    lam every branch already contracts by sqrt(2)/lam < 1 on whole
    diamonds, and only the domain constraint (closed diamonds clear of
    the removed segment) remains.
    """
    cal = calibrate_expansion(lam)
    if lam > SQRT2:
        return cal.domain_radius
    return cal.branch_radius

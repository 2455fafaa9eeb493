"""Dynamics of the tangent map restricted to the invariant plane z = 0.

The plane map F has a square lattice of poles whose open L1 diamonds of
radius pi/2 tile the plane off the diagonal grid of lines y = +-x + k*pi.
Off a short closed diagonal segment through the origin, F admits one
single-valued inverse branch into each diamond; those branches are the
engine behind itineraries and periodic points.  This module evaluates F
and its derivative, constructs the inverse branches in closed form
(with a residual check so a wrong branch can never pass silently), and
calibrates the radii used by expansion-based arguments.  One enumerator
of the tangent map's preimages in a box serves both the inverse branches
(box around a diamond, then the diamond itself) and ``preimages_tangent3``.
"""

import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple

import numpy as np

from .core import (
    HALF_PI,
    INFINITY,
    QUARTER_PI,
    _NONFINITE,
    _cayley_inverse_xyz,
    _chordal_finite,
    _chordal_infinite,
    _hemisphere_xy,
    _require_finite,
    _tangent3_xyz,
    cayley_inverse,
    chordal,
    chordal_grid,
    fold_axis,
    fold_axis_grid,
    is_infinity,
    tangent3,
    tangent3_grid,
    vec_norm,
)

SQRT2 = math.sqrt(2.0)
# poles with both coordinates below this map to INFINITY exactly (the fold lands
# on the tile centre): the branch engines price them from the target alone
_EXACT_POLES = 2.0 ** 40


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
    branch), which also rejects a non-finite point.  The inverse-branch
    scan and the symbolic layer, which evaluate F many times per result,
    call the float core directly instead.
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


def jacobian_plane_map(p, lam: float = 1.0) -> JacobianSample:
    """DF at p from the closed form, with its singular values and real eigenvalues.

    Points within 1e-6 of the fold lines or tile diagonals are rejected
    (the max in the formula is not differentiable there).
    """
    if distance_to_nonsmooth(p) <= 1e-6:
        raise ValueError("point too close to the non-smooth set")
    j = _plane_jacobian(p, lam)
    (a, b), (c, d) = j.tolist()
    smin, smax = _singular_values(a, b, c, d, math.sqrt, max)
    lo, hi, real = _real_eigenvalues(a, b, c, d, math.sqrt, max)
    return JacobianSample(np.array([float(p[0]), float(p[1])]), j, smin, smax,
                          (lo, hi) if real else None)


def _singular_values(a, b, c, d, sqrt, maximum):
    """(s_min, s_max) of [[a, b], [c, d]] in closed form, with ``sqrt`` and
    ``maximum`` from math (floats) or numpy (arrays)."""
    f = a * a + b * b + c * c + d * d
    det = a * d - b * c
    root = sqrt(maximum(f * f - 4.0 * det * det, 0.0))
    smax = sqrt((f + root) / 2.0)
    smin = sqrt(maximum((f - root) / 2.0, 0.0))
    return smin, smax


def _real_eigenvalues(a, b, c, d, sqrt, maximum):
    """(lo, hi, real) for [[a, b], [c, d]] in closed form: the eigenvalues
    lo <= hi where they are real (``real``: tr^2 >= 4 det), with ``sqrt``
    and ``maximum`` from math (floats) or numpy (arrays)."""
    tr = a + d
    disc = tr * tr - 4.0 * (a * d - b * c)
    sq = sqrt(maximum(disc, 0.0))
    return (tr - sq) / 2.0, (tr + sq) / 2.0, disc >= 0.0


def singular_values_2x2(a, b, c, d):
    """(s_min, s_max) of [[a, b], [c, d]], vectorization-friendly closed form."""
    return _singular_values(a, b, c, d, np.sqrt, np.maximum)


# ---------------------------------------------------------------------------
# inverse branches

def diagonal_segment_distance(w, lam: float) -> float:
    """Distance from w to the closed segment {(x, +-x): |x| <= lam/sqrt(2)} removed
    from the branch domain."""
    return _segment_distance(float(w[0]), float(w[1]), lam / SQRT2,
                             lambda t, h: max(-h, min(h, t)), min, math.hypot)


def _diagonal_segment_distance_grid(x, y, lam):
    """diagonal_segment_distance on arrays (numpy's hypot may differ in
    the last bit)."""
    return _segment_distance(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                             lam / SQRT2, lambda t, h: np.clip(t, -h, h), np.minimum,
                             np.hypot)


def _segment_distance(x, y, half, clip, minimum, hypot):
    """The distance to the segment pieces on y = x and y = -x (nearest
    parameters t and s), with functions for floats or arrays."""
    t = clip((x + y) / 2.0, half)
    s = clip((x - y) / 2.0, half)
    return minimum(hypot(x - t, y - t), hypot(x - s, y + s))


class BranchDomainError(ValueError):
    """Target outside the domain of the inverse branches."""


class BranchResidualError(RuntimeError):
    """No branch candidate reproduced the target; indicates a bug or an
    invalid target, never a legitimate outcome."""


def inverse_branch(q, w, lam: float = 1.0) -> np.ndarray:
    """The inverse branch of the plane map taking values in diamond q.

    For finite w the candidate preimages are reconstructed in closed
    form: pull w/lam back through the Mobius map to a unit vector, read
    off the hemisphere chart point, and enumerate the finitely many
    reflection-group images in the diamond; the candidate is accepted
    only if its forward image reproduces w within 1e-9 (chordal).
    w = INFINITY maps to the pole itself, which also competes last (and
    wins only strictly) for targets near infinity.  q must be integers.

    Everything runs on Python floats through the float cores of the
    Mobius pullback, the chart, the map and the chordal metric; only the
    returned point is an array.
    """
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
        raise BranchDomainError("target lies on the removed diagonal segment")
    x, y = wx / lam, wy / lam
    _require_finite(x, y)
    candidates = _branch_candidates(*_cayley_inverse_xyz(x, y, 0.0), lx, ly)
    near = abs(lx) < _EXACT_POLES > abs(ly)  # else the pole is evaluated forward
    ww = wx * wx + wy * wy
    at_infinity = _chordal_infinite(ww, (wx, wy))  # the residual of a pole hit
    best = None
    best_res = math.inf
    for cx, cy in candidates if near else candidates + [(lx, ly)]:
        t = _tangent3_xyz(cx, cy, 0.0, lam)
        if t is None:
            res = at_infinity
        else:
            tx, ty = t[0], t[1]
            dx, dy = tx - wx, ty - wy
            res = _chordal_finite(dx * dx + dy * dy, tx * tx + ty * ty, ww,
                                  (dx, dy, 0.0), (tx, ty, 0.0), (wx, wy, 0.0))
        if res < best_res:
            best, best_res = (cx, cy), res
    if near and at_infinity < best_res:
        best, best_res = (lx, ly), at_infinity
    if best is None or best_res > 1e-9:
        raise BranchResidualError(
            f"no preimage of {(wx, wy)} in diamond {(m, n)} (best residual {best_res:.3e})")
    return np.array(best)


def _inverse_branch_grid(lx, ly, wx, wy, lam):
    """inverse_branch's points, bit for bit, for arrays of finite targets
    (wx, wy), each into the diamond of the pole at (lx, ly) (arrays too).

    The scalar steps on arrays: the pullback with the operations of
    ``_cayley_inverse_xyz``; the chart on the float core, target by target
    (numpy's hypot and arcsin differ from math's in the last bit); the
    candidates in fixed slots in the scalar order, the pole last; and the
    first least residual from ``tangent3_grid`` and ``chordal_grid``.
    Raises the scalar engine's errors, naming the first target at fault.
    """
    lx, ly, wx, wy = np.broadcast_arrays(
        *(np.asarray(c, dtype=float).ravel() for c in (lx, ly, wx, wy)))
    n = len(wx)
    on = ((wy == wx) | (wy == -wx)) & (np.abs(wx) <= lam / SQRT2)
    if on.any():
        i = int(np.argmax(on))
        raise BranchDomainError(
            f"target {(float(wx[i]), float(wy[i]))} lies on the removed diagonal segment")
    with np.errstate(over="ignore"):  # as Python floats overflow to inf
        x = wx / lam
        y = wy / lam
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(_NONFINITE)
        s = 1.0 / (x * x + y * y + 1.0)
        ww = wx * wx + wy * wy
    ux = 2.0 * s * x
    uy = 2.0 * s * y
    uz = -1.0 + 2.0 * s
    # per target the upper chart point, then the lower one; (0, 0) if unread
    charts = np.fromiter(chain.from_iterable(
        (*(_hemisphere_xy(a, b, c) if c >= -1e-12 else (0.0, 0.0)),
         *(_hemisphere_xy(a, b, -c) if c <= 1e-12 else (0.0, 0.0)))
        for a, b, c in zip(ux.tolist(), uy.tolist(), uz.tolist())), float, 4 * n)
    charts = charts.reshape(n, 2, 2).T
    xs, x_ok = _family_slots(charts[0], lx)
    ys, y_ok = _family_slots(charts[1], ly)
    # chart c pairs x offset o with y offset (o + c) % 2; slot 8c + 4o + 2i + j
    # (x member i, y member j) reads row slot >> 1 of xs and row
    # (slot >> 2) * 2 + (slot & 1) of ys, and slot 16, row 8 of both, is the pole
    pair = np.array([[0, 1], [1, 0]])
    ys, y_ok = ys[[[0], [1]], pair], y_ok[[[0], [1]], pair]
    ok = np.empty((17, n), dtype=bool)
    ok[:16] = (x_ok[:, :, :, None] & y_ok[:, :, None]
               & np.stack([uz >= -1e-12, uz <= 1e-12])[:, None, None, None]).reshape(16, n)
    ok[16] = np.maximum(np.abs(lx), np.abs(ly)) >= _EXACT_POLES  # far poles go forward
    xs = np.concatenate([xs.reshape(8, n), lx[None]])
    ys = np.concatenate([ys.reshape(8, n), ly[None]])
    slot, col = np.nonzero(ok)
    cx = xs[slot >> 1, col]
    cy = ys[(slot >> 2) * 2 + (slot & 1), col]
    keep = np.abs(cx - lx[col]) + np.abs(cy - ly[col]) <= HALF_PI + 1e-9
    slot, col, cx, cy = slot[keep], col[keep], cx[keep], cy[keep]
    res = np.full((17, n), np.inf)
    res[16] = 2.0 / np.sqrt(1.0 + ww)  # the pole, priced as in inverse_branch
    for i in np.flatnonzero(ww == math.inf):
        res[16, i] = _chordal_infinite(math.inf, (wx[i], wy[i]))
    res[slot, col] = chordal_grid(tangent3_grid(cx, cy, 0.0, lam)[:3], (wx[col], wy[col], 0.0))
    best = np.argmin(res, axis=0)
    cols = np.arange(n)
    bad = ~(res[best, cols] <= 1e-9)
    if bad.any():
        i = int(np.argmax(bad))
        raise BranchResidualError(
            f"no preimage of {(float(wx[i]), float(wy[i]))} near the pole at "
            f"{(float(lx[i]), float(ly[i]))}, lam={lam} (best residual {res[best[i], i]:.3e})")
    return xs[best >> 1, cols], ys[(best >> 2) * 2 + (best & 1), cols]


def _family_slots(a, center):
    """``_chart_preimages``' families (half-width pi/2 + 2e-9) for arrays a of
    shape (2 charts, n): (values, valid), indexed [chart, offset, slot, target].

    The scalar loop runs k from floor((center - half - off)/pi) up to 3
    further; its members, at most two consecutive k since the box is just
    over pi wide, follow the k that land below the box.
    """
    half = HALF_PI + 2e-9
    off = np.stack([a / 2.0, (math.pi - a) / 2.0], axis=-2)
    lo = center - half
    hi = center + half
    k = np.floor((lo - off) / math.pi)
    x = k[..., None, :] + np.arange(4.0)[:, None]
    x *= math.pi
    x += off[..., None, :]
    k += np.count_nonzero(x < lo, axis=-2)
    x = (k[..., None, :] + np.arange(2.0)[:, None]) * math.pi + off[..., None, :]
    return x, (lo <= x) & (x <= hi)


def _branch_candidates(ux, uy, uz, lx, ly):
    """Preimage candidates (x, y) in the closed diamond around the pole at
    (lx, ly), widened by 1e-9, for the unit vector (ux, uy, uz).

    The enclosing box is wider than that L1 bound by one more 1e-9, so
    rounding in the box test can never drop a point the L1 test keeps.
    """
    half = HALF_PI + 2e-9
    return _chart_preimages(ux, uy, uz, lx, half, ly, half, HALF_PI + 1e-9)


def _chart_preimages(ux, uy, uz, cx, half_x, cy, half_y, radius=math.inf):
    """The points (x, y) with |x-cx| <= half_x, |y-cy| <= half_y and
    |x-cx| + |y-cy| <= radius whose Zorich direction is the unit vector
    (ux, uy, uz), as a list.  The chart point (a, b) of each hemisphere,
    upper then lower, gives the families a/2 + k*pi (direct) and
    (pi-a)/2 + k*pi (reflected), k rising, per coordinate; x runs over the
    direct then the reflected members, y likewise inside it, keeping the
    pairs whose reflection parities add up to the hemisphere flip."""
    pi, floor, ceil = math.pi, math.floor, math.ceil
    out = []
    xlo, xhi, ylo, yhi = cx - half_x, cx + half_x, cy - half_y, cy + half_y
    for flip, sz in ((0, uz), (1, -uz)):
        if not sz >= -1e-12:
            continue
        a, b = _hemisphere_xy(ux, uy, sz)
        fam = []  # x direct, x reflected, y direct, y reflected
        for off, lo, hi in ((a / 2.0, xlo, xhi), ((pi - a) / 2.0, xlo, xhi),
                            (b / 2.0, ylo, yhi), ((pi - b) / 2.0, ylo, yhi)):
            k, top = floor((lo - off) / pi), ceil((hi - off) / pi)
            members = []
            while k <= top and (x := off + k * pi) <= hi:  # x rises with k
                if x >= lo:
                    members.append(x)
                k += 1
            fam.append(members)
        xd, xr, yd, yr = fam
        for xs, ys in ((xd, yr), (xr, yd)) if flip else ((xd, yd), (xr, yr)):
            for x in xs:
                for y in ys:
                    if abs(x - cx) + abs(y - cy) <= radius:
                        out.append((x, y))
    return out


def preimages_tangent3(target, lam: float, xy_box):
    """All solutions of tangent3(v, lam) = target with (v_x, v_y) in xy_box.

    ``target`` may be a finite 3-vector or INFINITY (whose preimages are
    the poles); ``xy_box`` is (x0, x1, y0, y1).  Returns verified
    preimages (forward chordal residual below 1e-9).  The z-coordinate
    of every preimage of a fixed target is the same number log|u|/2.
    """
    u = cayley_inverse(target if is_infinity(target)
                       else np.asarray(target, dtype=float) / lam)
    if is_infinity(u):
        return []  # target = (0,0,lam), an omitted value
    norm = vec_norm(u)
    if norm == 0.0:
        return []  # target = (0,0,-lam), the other omitted value
    zc = math.log(norm) / 2.0
    x0, x1, y0, y1 = xy_box
    out = []
    for x, y in _chart_preimages(*(u / norm).tolist(), (x0 + x1) / 2.0, (x1 - x0) / 2.0,
                                 (y0 + y1) / 2.0, (y1 - y0) / 2.0):
        t = _tangent3_xyz(x, y, zc, lam)
        if chordal(INFINITY if t is None else t, target) < 1e-9:
            out.append(np.array([x, y, zc]))
    return out


# ---------------------------------------------------------------------------
# contraction / expansion certificates

def branch_contraction_ratio(q, p, pairs, lam: float = 1.0) -> float:
    """max over pairs in diamond p of |S_q(w1)-S_q(w2)| / |w1-w2|.

    Coincident pairs are skipped.  The derivative bound on the branches
    caps this at sqrt(2)/lam.  One batched engine pass.
    """
    w1, w2, d = _pair_arrays(pairs)
    keep = d != 0.0
    n = int(np.count_nonzero(keep))
    lx, ly = _pole_xy(*PoleIndex(*q))
    x, y = _inverse_branch_grid(lx, ly, np.concatenate([w1[keep, 0], w2[keep, 0]]),
                                np.concatenate([w1[keep, 1], w2[keep, 1]]), lam)
    dx = x[:n] - x[n:]
    dy = y[:n] - y[n:]
    return float(np.max(np.sqrt(dx * dx + dy * dy) / d[keep], initial=0.0))


def pole_expansion_ratio(p, pairs, lam: float = 1.0) -> float:
    """min over pairs near pole p of |F(a)-F(b)| / |a-b|.

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

    delta:   ball about each pole where the sampled least singular value
             of DF stays >= 2
    r1:      far-field radius; the circle |y| = r1 pulls back inside the
             delta-ball
    eps:     ball about each pole whose image stays at norm > 2*r1,
             capped below pi/4
    far_field_bound: sampled sup of |F| over a diamond minus its eps-ball
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

_BASE_POLE = PoleIndex(0, 0)  # all diamonds are congruent under the symmetry group
_N_RADII = 64
_N_SAMPLES = 1000
_SEED = 20260811


def _ball_samples(rng, center, radius, n):
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    rad = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    return np.column_stack([center[0] + rad * np.cos(ang), center[1] + rad * np.sin(ang)])


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


def _min_singular_on_ball(lam, radius, rng):
    """Sampled least singular value of DF_lam on a ball about the base pole,
    from the closed-form Jacobian on all samples at once."""
    pts = _ball_samples(rng, pole_location(_BASE_POLE), radius, _N_SAMPLES)
    # the ball's only tile centre is the pole itself, never sampled
    smin, _ = singular_values_2x2(*_jacobian_grid(pts[:, 0], pts[:, 1], lam))
    return float(smin.min())


def _require_positive_lam(lam):
    """Raise the ValueError for a scaling parameter that is not positive (or NaN)."""
    if not lam > 0.0:
        raise ValueError(f"scaling parameter must be positive, got {lam}")


def calibrate_expansion(lam: float) -> ExpansionCalibration:
    """Scan for the certificate radii at parameter lam (cached, seeded).

    delta is the largest radius on a dyadic grid keeping the sampled
    least singular value >= 2; r1 doubles until the circle |y| = r1
    pulls back within delta of the pole; eps is the largest grid radius
    keeping |F| > 2*r1, capped below pi/4.  Calibration failure raises,
    it never returns a bogus certificate.
    """
    _require_positive_lam(lam)
    key = float(lam)
    hit = _CALIBRATION_CACHE.get(key)
    if hit is not None:
        return hit
    rng = np.random.default_rng(_SEED)
    inscribed = HALF_PI / SQRT2  # largest ball inside a diamond
    radii = inscribed * 0.98 * (2.0 ** (-np.arange(_N_RADII) / 8.0))
    delta = next((float(r) for r in radii if _min_singular_on_ball(lam, float(r), rng) >= 2.0),
                 None)
    if delta is None:
        raise RuntimeError(f"derivative never reaches 2 near poles at lam={lam}")

    c = pole_location(_BASE_POLE)
    r1 = max(1.5 * lam / SQRT2, 1.0)
    for _ in range(60):
        circle = ((r1 * math.cos(t), r1 * math.sin(t))
                  for t in rng.uniform(0.0, 2.0 * math.pi, 400))
        if all(diagonal_segment_distance(w, lam) == 0.0
               or vec_norm(inverse_branch(_BASE_POLE, w, lam) - c) < 0.98 * delta
               for w in circle):
            break
        r1 *= 1.5
    else:
        raise RuntimeError(f"far-field radius did not stabilize at lam={lam}")

    eps = None
    for r in radii:
        if r >= QUARTER_PI:
            continue
        pts = _ball_samples(rng, c, float(r), _N_SAMPLES)
        fx, fy, _, finite = tangent3_grid(pts[:, 0], pts[:, 1], 0.0, lam)
        norms = np.where(finite, np.hypot(fx, fy), np.inf)
        if float(norms.min()) > 2.0 * r1:
            eps = float(r)
            break
    if eps is None:
        raise RuntimeError(f"image-norm radius collapsed at lam={lam}")

    # sup of |F| over the diamond minus the eps-ball (sampled, with margin)
    pts = _ball_samples(rng, c, HALF_PI, 4 * _N_SAMPLES)
    dx, dy = pts[:, 0] - c[0], pts[:, 1] - c[1]
    pts = pts[(np.abs(dx) + np.abs(dy) < HALF_PI) & (np.hypot(dx, dy) >= eps)]
    fx, fy, _, finite = tangent3_grid(pts[:, 0], pts[:, 1], 0.0, lam)
    far = float(np.hypot(fx[finite], fy[finite]).max()) * 1.05
    branch_radius = far + HALF_PI * 1.05

    # smallest norm beyond which closed diamonds miss the removed segment
    half = lam / SQRT2
    ts = np.linspace(-half, half, 512)
    dom = 0.0
    span = int(math.ceil((lam + math.pi) / HALF_PI)) + 1
    for m in range(-span, span + 1):
        for n in range(-span, span + 1):
            loc = pole_location((m, n))
            l1 = np.minimum(np.abs(ts - loc[0]) + np.abs(ts - loc[1]),
                            np.abs(ts - loc[0]) + np.abs(-ts - loc[1]))
            if float(l1.min()) <= HALF_PI + 1e-12:
                dom = max(dom, float(np.linalg.norm(loc)))
    cal = ExpansionCalibration(lam=key, delta=delta, r1=r1, eps=eps,
                               far_field_bound=far, branch_radius=branch_radius,
                               domain_radius=dom * (1.0 + 1e-9))
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

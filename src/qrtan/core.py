"""Evaluation of the three-dimensional quasiregular tangent map.

The map is built like the complex tangent, one level up: a Zorich map
(the quasiregular analogue of exp, a hemisphere chart stretched by e^z
and unfolded by reflections) post-composed with a Mobius transformation
of R^3 u {inf} that plays the role of the Cayley transform.  The result
is doubly periodic with periods (pi,0,0) and (0,pi,0), has a plane of
poles and zeros, omits (0,0,+-1), and restricts to the ordinary tangent
on the (x,z)- and (y,z)-planes.

Values live in R^3 u {inf}; the point at infinity is the module-level
sentinel ``INFINITY`` and distances near it use the chordal metric.
Everything here is pure and stateless.
"""

import math

import numpy as np

HALF_PI = math.pi / 2
QUARTER_PI = math.pi / 4


class _Infinity:
    """The point at infinity of R^3 u {inf} (a singleton sentinel)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infinity"


INFINITY = _Infinity()


def is_infinity(p) -> bool:
    return p is INFINITY


_NONFINITE = "finite point required; use INFINITY for the point at infinity"


def _require_finite(*coords):
    """Raise the ValueError for a non-finite point unless every coordinate is finite.

    Called from the handlers of the OverflowError/ValueError that floor
    and round raise on inf and NaN, so the check costs nothing on finite
    input; a finite point lets the caller re-raise the original error.
    The float paths also call it directly, where ``as_vec3`` would.
    """
    if not all(map(math.isfinite, coords)):
        raise ValueError(_NONFINITE) from None


def _checked_vec3(v):
    """(array, [x, y, z]) for a finite point; the array is float64 of shape (3,).

    Finiteness is tested on the Python floats: a numpy reduction costs
    more than the rest of a scalar tangent3 call.
    """
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {a.shape}")
    c = a.tolist()
    if not (math.isfinite(c[0]) and math.isfinite(c[1]) and math.isfinite(c[2])):
        raise ValueError(_NONFINITE)
    return a, c


def as_vec3(v) -> np.ndarray:
    """Coerce a finite point to a float64 array of shape (3,)."""
    return _checked_vec3(v)[0]


def vec_norm(v) -> float:
    """Euclidean norm of a real 1-D float array.

    This is the sqrt of the dot product that np.linalg.norm computes for
    such input, so the result is equal bit for bit, without its dispatch
    overhead.
    """
    return math.sqrt(float(v.dot(v)))


# below this norm of p and of q, no squared norm in chordal (|p|^2, |q|^2,
# |p - q|^2) can overflow: (2e153)^2 < 1.8e308
_CHORDAL_SAFE = 1e153


def _chordal_ratio(dd, pp, qq, sqrt):
    """2|p-q| / sqrt((1+|p|^2)(1+|q|^2)) from the squared norms dd = |p-q|^2,
    pp = |p|^2 and qq = |q|^2, with ``sqrt`` from math (floats) or numpy
    (arrays)."""
    return 2.0 * sqrt(dd) / sqrt((1.0 + pp) * (1.0 + qq))


def _chordal_scaled(d, p, q):
    """The same distance from the coordinates of d = p - q, p and q by hypot,
    which scales instead of squaring, so no intermediate overflows."""
    scaled = math.hypot(*d) / math.hypot(1.0, *p)
    return 2.0 * scaled / math.hypot(1.0, *q)


def _chordal_finite(dd, pp, qq, d, p, q):
    """Chordal distance of finite p and q from dd = |p-q|^2, pp = |p|^2 and
    qq = |q|^2, with the coordinates of d = p - q, p and q for the fallback.

    The squared form wherever it is finite and positive, or 0 with
    p = q.  Where a squared norm overflowed (|p| or |q| beyond ~1e154,
    e.g. next to a pole) or dd underflowed (|p - q| below ~1e-162) the
    form is infinite, NaN or a spurious 0, and the same distance comes
    from hypot instead.  Shared by ``chordal``
    (squared norms from numpy's dot), the inverse-branch residual
    (squared norms on Python floats) and ``chordal_grid``.
    """
    dist = _chordal_ratio(dd, pp, qq, math.sqrt)
    if 0.0 < dist < math.inf or not any(d):
        return dist
    return _chordal_scaled(d, p, q)


def _chordal_infinite(pp, p):
    """Chordal distance to INFINITY from a finite point with pp = |p|^2 and
    coordinates p.  Where pp overflowed (|p| beyond ~1.34e154) it comes
    from hypot instead, which scales instead of squaring."""
    if pp == math.inf:
        return 2.0 / math.hypot(1.0, *p)
    return 2.0 / math.sqrt(1.0 + pp)


def chordal(p, q) -> float:
    """Chordal distance on R^3 u {inf}.

    d(p,q) = 2|p-q| / sqrt((1+|p|^2)(1+|q|^2)) for finite points and
    d(p,inf) = 2 / sqrt(1+|p|^2); the metric of the one-point
    compactification, bounded by 2, so comparisons near poles stay
    meaningful.  Squared norms come from numpy's dot.  A point of norm
    1e153 or more takes the same arithmetic with numpy's overflow
    warning silenced, so a huge point (an image next to a pole) does not
    warn; where a squared norm overflowed, the distance comes from hypot.
    """
    pinf, qinf = is_infinity(p), is_infinity(q)
    if pinf and qinf:
        return 0.0
    if pinf or qinf:
        f = np.asarray(q if pinf else p, dtype=float)
        c = f.tolist()
        if math.hypot(*c) < _CHORDAL_SAFE:
            return _chordal_infinite(float(f.dot(f)), c)
        with np.errstate(over="ignore"):
            return _chordal_infinite(float(f.dot(f)), c)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if math.hypot(*p.tolist()) < _CHORDAL_SAFE > math.hypot(*q.tolist()):
        d = p - q
        return _chordal_finite(float(d.dot(d)), float(p.dot(p)), float(q.dot(q)), d, p, q)
    with np.errstate(over="ignore"):
        d = p - q
        sq = float(d.dot(d)), float(p.dot(p)), float(q.dot(q))
    return _chordal_finite(*sq, d, p, q)


def chordal_grid(p, q):
    """chordal on parallel coordinate arrays, one distance per point pair.

    ``p`` and ``q`` are (x, y, z) triples of arrays, with scalars
    broadcast against them; a point with an infinite coordinate is
    INFINITY, as ``tangent3_grid`` marks its pole hits.  The formula is
    chordal's, with the squared norms summed left to right on the arrays
    (chordal takes numpy's dot), so a value may differ from chordal's in
    the last bit.  A pair whose squared form fails takes chordal's own
    hypot fallback, point by point.
    """
    px, py, pz, qx, qy, qz = np.broadcast_arrays(
        *(np.asarray(c, dtype=float) for c in (*p, *q)))
    pinf = np.isinf(px) | np.isinf(py) | np.isinf(pz)
    qinf = np.isinf(qx) | np.isinf(qy) | np.isinf(qz)
    with np.errstate(over="ignore", invalid="ignore"):
        d = (px - qx, py - qy, pz - qz)
        dd, pp, qq = (a * a + b * b + c * c for a, b, c in (d, (px, py, pz), (qx, qy, qz)))
        dist = _chordal_ratio(dd, pp, qq, np.sqrt)
        one = pinf ^ qinf
        # 0 exactly where the finite point's squared norm overflowed
        dist[one] = 2.0 / np.sqrt(1.0 + np.where(pinf, qq, pp)[one])
    both = pinf & qinf
    dist[both] = 0.0
    same = (d[0] == 0.0) & (d[1] == 0.0) & (d[2] == 0.0)
    fallback = ~(((dist > 0.0) & (dist < math.inf)) | same | both)
    for i in np.flatnonzero(fallback):
        di, pi, qi = (tuple(float(c.flat[i]) for c in t)
                      for t in (d, (px, py, pz), (qx, qy, qz)))
        if one.flat[i]:
            dist.flat[i] = _chordal_infinite(math.inf, qi if pinf.flat[i] else pi)
        else:
            dist.flat[i] = _chordal_scaled(di, pi, qi)
    return dist


def fold_axis(x: float, half_width: float):
    """Fold one coordinate into [-half_width, half_width] by reflections.

    Mirrors sit at (k + 1/2) * 2*half_width.  Tiles are taken half-open
    [lower, upper), so points exactly on a mirror are treated as part of
    the tile above it; by continuity of the maps built on top of this
    the choice is invisible.  Returns (folded, reflection_count_parity).
    """
    width = 2.0 * half_width
    k = math.floor((x + half_width) / width)
    u = x - k * width
    if k % 2:
        return -u, 1
    return u, 0


def square_to_hemisphere(x: float, y: float) -> np.ndarray:
    """Bi-Lipschitz chart from [-pi/2, pi/2]^2 onto the closed upper unit hemisphere.

    The square's sup-norm balls are carried to circles of latitude: with
    M = max(|x|, |y|), the image is ((x, y) * sin(M)/hypot(x, y), cos(M)).
    The origin maps to the north pole by continuous extension.
    """
    if abs(x) > HALF_PI + 1e-12 or abs(y) > HALF_PI + 1e-12:
        raise ValueError("chart domain is [-pi/2, pi/2]^2")
    r = math.hypot(x, y)
    if r == 0.0:
        return np.array([0.0, 0.0, 1.0])
    m = max(abs(x), abs(y))
    s = math.sin(m) / r
    return np.array([x * s, y * s, math.cos(m)])


def _hemisphere_xy(ux: float, uy: float, uz: float):
    """hemisphere_to_square on three Python floats: the chart point (x, y).

    The float-level core under hemisphere_to_square and the preimage
    enumerator.  The norm for the unit-norm check is summed on floats.
    """
    n = math.sqrt(ux * ux + uy * uy + uz * uz)
    # written so that a NaN norm fails the test too
    if not abs(n - 1.0) <= 1e-9:
        raise ValueError(f"unit vector required, got norm {n}")
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


def hemisphere_to_square(u) -> tuple:
    """Invert square_to_hemisphere on the closed upper hemisphere.

    Requires a unit vector (within 1e-9) with nonnegative third
    component.  With M = arccos(u_z), the planar part is recovered by
    rescaling (u_x, u_y) so its sup norm equals M.  Near the north pole
    the equal expression M = arcsin(hypot(u_x, u_y)) is used: arccos
    loses half the digits there (square-root singularity) while arcsin
    of the small planar radius is fully conditioned.
    """
    u = np.asarray(u, dtype=float)
    return _hemisphere_xy(float(u[0]), float(u[1]), float(u[2]))


_EXP_OVERFLOW = "e^z overflows; use the beam form of the tangent map instead"


def zorich(v) -> np.ndarray:
    """Zorich map: e^z times the hemisphere chart, unfolded by reflections.

    Defined on all of R^3 by folding (x, y) across the planes
    x = (k+1/2)pi and y = (l+1/2)pi; an odd number of reflections flips
    the image through z = 0.  Never vanishes; |Z(v)| = e^{v_z}.
    """
    v = as_vec3(v)
    scale = math.exp(v[2])
    if math.isinf(scale):
        raise OverflowError(_EXP_OVERFLOW)
    fx, px = fold_axis(float(v[0]), HALF_PI)
    fy, py = fold_axis(float(v[1]), HALF_PI)
    img = scale * square_to_hemisphere(fx, fy)
    if (px + py) % 2:
        img[2] = -img[2]
    return img


def cayley(p):
    """Mobius homeomorphism of R^3 u {inf} sending the plane z=0 onto the unit sphere.

    (x,y,z) -> (2rx, 2ry, 1 - 2r(z+1)) with r = 1/(x^2+y^2+(z+1)^2).
    Sends 0 to (0,0,-1), (0,0,-1) to infinity and infinity to (0,0,1);
    the 3D stand-in for w -> i(1-w)/(1+w).  Computed on Python floats, so
    a point too large to square tends to (0,0,1) without a warning.
    """
    if is_infinity(p):
        return np.array([0.0, 0.0, 1.0])
    x, y, z = _checked_vec3(p)[1]
    t = z + 1.0
    d = x * x + y * y + _square(t)
    if d == 0.0:
        return INFINITY
    r = 1.0 / d
    if r == math.inf:  # d subnormal, within about 1e-154 of the pole
        return np.array([2.0 * x / d, 2.0 * y / d, 1.0 - 2.0 * t / d])
    return np.array([2.0 * r * x, 2.0 * r * y, 1.0 - 2.0 * r * t])


def _square(t: float) -> float:
    """t^2 by libm's pow, as numpy's scalar power computes it (it is not
    always the rounded t*t), and inf where it overflows, as there."""
    try:
        return t ** 2
    except OverflowError:
        return math.inf


def _cayley_inverse_xyz(x: float, y: float, z: float):
    """cayley_inverse on three finite Python floats: [u, v, w], or None at infinity.

    The float-level core under cayley_inverse and the inverse branches.
    """
    t = 1.0 - z
    d = x * x + y * y + _square(t)
    if d == 0.0:
        return None
    s = 1.0 / d
    if s == math.inf:  # d subnormal, within about 1e-154 of (0, 0, 1)
        return [2.0 * x / d, 2.0 * y / d, -1.0 + 2.0 * t / d]
    return [2.0 * s * x, 2.0 * s * y, -1.0 + 2.0 * s * t]


def cayley_inverse(p):
    """Inverse of cayley: (u,v,w) -> (2su, 2sv, 2s(1-w) - 1), s = 1/(u^2+v^2+(1-w)^2)."""
    if is_infinity(p):
        return np.array([0.0, 0.0, -1.0])
    u = _cayley_inverse_xyz(*_checked_vec3(p)[1])
    if u is None:
        return INFINITY
    return np.array(u)


def _beam_formula(x: float, y: float, z: float):
    """Tangent map on the beam [-pi/4, pi/4]^2 x R, in overflow-free form.

    The textbook expression has cosh/sinh factors that overflow near
    |z| ~ 710; dividing through by cosh^2 z leaves
        third = tanh z / (cos^2 M sech^2 z + tanh^2 z)
    and a planar factor proportional to sech^2 z, which cleanly
    underflows to 0 for large |z| so the value tends to (0,0,+-1).

    On the plane z = 0 (either sign) tanh z = z and sech z = 1 exactly,
    so the same formula reduces to denom = cos^2 M and third = z with no
    bit changed; that branch skips tanh, exp and the sech algebra and
    keeps the sign of -0.0.
    """
    m = max(abs(x), abs(y))
    cm = math.cos(m)
    r = math.hypot(x, y)
    if z == 0.0:
        if r == 0.0:
            return 0.0, 0.0, z
        f = cm * math.sin(m) / (r * (cm * cm))
        return x * f, y * f, z
    th = math.tanh(z)
    e = math.exp(-abs(z))
    sech = 2.0 * e / (1.0 + e * e)
    s2 = sech * sech
    denom = cm * cm * s2 + th * th
    # denom vanishes nowhere on the beam: cos^2 M >= 1/2 there
    third = th / denom
    if r == 0.0:
        return 0.0, 0.0, third
    f = cm * math.sin(m) * s2 / (r * denom)
    return x * f, y * f, third


def _tangent3_xyz(x: float, y: float, z: float, lam):
    """tangent3 on three finite Python floats: [tx, ty, tz], or None at a pole.

    The float-level core under tangent3 (and so plane_map),
    classify_orbit, the inverse-branch scan and the symbolic layer's
    forward steps; it builds no array.
    """
    fx, px = fold_axis(x, QUARTER_PI)
    fy, py = fold_axis(y, QUARTER_PI)
    bx, by, bz = _beam_formula(fx, fy, z)
    if (px + py) % 2:
        n2 = bx * bx + by * by + bz * bz
        if n2 == 0.0:
            return None
        bx, by, bz = bx / n2, by / n2, bz / n2
    return [lam * bx, lam * by, lam * bz]


def tangent3(v, lam: float = 1.0):
    """The quasiregular tangent T, scaled by lam, at a finite point.

    Folds (x, y) into the beam, applies the stable beam formula, and for
    odd reflection parity post-composes with inversion in the unit
    sphere.  Returns INFINITY exactly on the pole lattice
    ((n+m)pi/2, (n-m+1)pi/2, 0).  Restricted to the (x,z)- or
    (y,z)-plane this is lam*tan of the corresponding complex variable.
    The arithmetic is ``_tangent3_xyz`` on Python floats; this wrapper
    only validates the point and packs the result into one array.
    """
    x, y, z = _checked_vec3(v)[1]
    t = _tangent3_xyz(x, y, z, lam)
    if t is None:
        return INFINITY
    return np.array(t)


def tangent3_composed(v, lam: float = 1.0):
    """lam * (cayley o zorich)(2v); the unfolded definition of the map.

    Raises OverflowError when e^{2 v_z} is out of range, which is why
    tangent3 uses the beam form.  The one-point case of
    ``_tangent3_composed_grid``, the independent cross-check of the
    folded evaluation.
    """
    t = np.concatenate(_tangent3_composed_grid(*as_vec3(v)[:, None], lam))
    return INFINITY if np.isinf(t[0]) else t


def iterate(v, lam: float, n: int):
    """First n iterates of tangent3 (start excluded), truncated at a pole hit.

    Returns a list whose entries are points or a final INFINITY; the
    orbit is simply not defined past a pole.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    out = []
    p = as_vec3(v)
    for _ in range(n):
        p = tangent3(p, lam)
        out.append(p)
        if is_infinity(p):
            break
    return out


# ---------------------------------------------------------------------------
# vectorized evaluation (the rendering/classification workhorse)

def fold_axis_grid(x, half_width):
    """Vectorized fold_axis; returns (folded, odd), ``odd`` a bool array."""
    width = 2.0 * half_width
    k = x + half_width
    k /= width
    np.floor(k, out=k)
    # parity on floats (k is odd iff k/2 is not an integer), so a tile index
    # beyond int64 (|x| above about 1.4e19, always even) neither overflows
    # nor warns
    half = k * 0.5
    odd = np.floor(half) < half
    k *= width
    np.subtract(x, k, out=k)
    # reflect odd tiles by the sign 1 - 2*odd: exact, and branch-free
    # unlike a select on random parities
    sign = np.multiply(odd, -2.0, out=half)
    sign += 1.0
    k *= sign
    return k, odd


def _tangent3_composed_grid(x, y, z, lam):
    """tangent3_composed on parallel coordinate arrays: (tx, ty, tz), with
    a pole as infinite coordinates, as ``chordal_grid`` reads them.

    The unfolded route at 2v, step by step as ``zorich`` and ``cayley``
    take it: the fold at pi/2, the hemisphere chart, e^{2z}, the flip
    through z = 0 on odd parity, then Cayley.  It shares no code with the
    beam formula, so it stays an independent oracle for ``tangent3_grid``.
    Raises OverflowError when any e^{2z} overflows.
    """
    x, y, z = (2.0 * np.asarray(c, dtype=float) for c in (x, y, z))
    with np.errstate(over="ignore"):
        scale = np.exp(z)
    if np.isinf(scale).any():
        raise OverflowError(_EXP_OVERFLOW)
    fx, ox = fold_axis_grid(x, HALF_PI)
    fy, oy = fold_axis_grid(y, HALF_PI)
    r = np.hypot(fx, fy)
    # the chart sends the centre to the north pole (0, 0, 1), zeros unsigned
    centre = r == 0.0
    r[centre] = 1.0
    fx[centre] = fy[centre] = 0.0
    m = np.maximum(np.abs(fx), np.abs(fy))
    s = np.sin(m) / r
    px, py, pz = scale * (fx * s), scale * (fy * s), scale * np.cos(m)
    np.negative(pz, out=pz, where=ox ^ oy)
    t = pz + 1.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        d = px * px + py * py + t * t
        rr = 2.0 / d
        w = (lam * (rr * px), lam * (rr * py), lam * (1.0 - rr * t))
    pole = ~np.isfinite(rr)
    for c in w:
        c[pole] = np.inf
    return w


# 1/n2 overflows exactly for 0 < n2 <= 2^-1024 (a subnormal |b|^2)
_RECIP_FLOOR = math.ldexp(1.0, -1024)


def tangent3_grid(x, y, z, lam: float = 1.0):
    """tangent3 on parallel coordinate arrays.

    Returns (tx, ty, tz, finite) where ``finite`` is False at pole hits
    (there the value arrays hold +inf placeholders).  Identical formula
    to the scalar path; last-ulp differences from libm vs numpy
    transcendentals are possible.

    ``z`` may be the scalar 0.0 for points of the plane z = 0.  Then
    tanh z = 0 and sech z = 1 are folded in, which changes no bit of the
    result, and ``tz`` is 0.0 (inf at poles).  On odd tiles the value is
    b times the reciprocal of |b|^2; within about 1e-155 of a pole, where
    that reciprocal overflows, it is b/|b|^2 as the scalar path computes
    it.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    plane = isinstance(z, float) and z == 0.0
    coords = (x, y) if plane else (x, y, np.asarray(z, dtype=float))
    shape = x.shape
    if not shape or any(c.shape != shape for c in coords):
        # the arithmetic below runs in place on flat arrays of one shape
        shape = np.broadcast_shapes(*(c.shape for c in coords))
        coords = [np.broadcast_to(c, shape).ravel() for c in coords]
    fx, ox = fold_axis_grid(coords[0], QUARTER_PI)
    fy, oy = fold_axis_grid(coords[1], QUARTER_PI)
    odd = ox ^ oy
    r = np.abs(fx)
    lo = np.abs(fy)
    m = np.maximum(r, lo)
    np.minimum(r, lo, out=lo)
    # libm's hypot takes fabs and orders its arguments: same bits, no swap
    np.hypot(m, lo, out=r)
    cm = np.cos(m)
    f = np.sin(m, out=m)
    f *= cm
    denom = np.multiply(cm, cm, out=cm)
    if not plane:
        th = np.tanh(coords[2])
        e = np.abs(coords[2])
        np.negative(e, out=e)
        np.exp(e, out=e)
        sech = np.multiply(e, e)
        sech += 1.0
        e *= 2.0
        s2 = np.divide(e, sech, out=sech)
        s2 *= s2
        denom *= s2
        denom += np.multiply(th, th, out=e)
        bz = np.divide(th, denom, out=th)
        f *= s2
    # where r = 0, f = cos(0) sin(0) = 0 already, and r = 1 keeps it 0
    r[r == 0.0] = 1.0
    r *= denom
    f /= r
    bx = np.multiply(fx, f, out=fx)
    by = np.multiply(fy, f, out=fy)
    b = (bx, by) if plane else (bx, by, bz)
    n2 = np.multiply(bx, bx, out=r)
    for c in b[1:]:
        n2 += np.multiply(c, c, out=f)
    # on odd tiles n2 = 0 is a pole hit, and next to it 1/n2 overflows
    low = odd & (n2 <= _RECIP_FLOOR)
    pole = None
    if low.any():
        pole = low & (n2 == 0.0)
        near = low ^ pole
        near_vals = [lam * (c[near] / n2[near]) for c in b]
    # the reciprocal only where it is used and finite, 1 elsewhere (n2*1 + 0
    # and n2*0 + 1 are exact)
    used = n2 > _RECIP_FLOOR
    used &= odd
    inv = np.multiply(n2, used)
    inv += ~used
    np.divide(1.0, inv, out=inv)
    for c in b:
        c *= lam
        c *= inv
    # tz and finite take the room of f and used, which are dead by now
    if plane:
        f.fill(lam * z)
    t = (bx, by, f if plane else bz)
    if pole is None:
        finite = used
        finite.fill(True)
    else:
        for c, v in zip(t, near_vals):
            c[near] = v
        for c in t:
            c[pole] = np.inf
        finite = np.logical_not(pole, out=used)
    return tuple(a.reshape(shape) for a in (*t, finite))

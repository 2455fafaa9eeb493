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
        raise ValueError("finite point required; use INFINITY for the point at infinity")
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


def chordal(p, q) -> float:
    """Chordal distance on R^3 u {inf}.

    d(p,q) = 2|p-q| / sqrt((1+|p|^2)(1+|q|^2)) for finite points and
    d(p,inf) = 2 / sqrt(1+|p|^2); the metric of the one-point
    compactification, bounded by 2, so comparisons near poles stay
    meaningful.
    """
    pinf, qinf = is_infinity(p), is_infinity(q)
    if pinf and qinf:
        return 0.0
    if pinf or qinf:
        f = np.asarray(q if pinf else p, dtype=float)
        return 2.0 / math.sqrt(1.0 + float(f @ f))
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    d = p - q
    dist = 2.0 * math.sqrt(float(d @ d)) / math.sqrt((1.0 + float(p @ p)) * (1.0 + float(q @ q)))
    if math.isfinite(dist):
        return dist
    # a squared norm overflowed (|p| or |q| beyond ~1e154, e.g. next to a pole):
    # the same distance from hypot, which scales instead of squaring
    scaled = math.hypot(*d.tolist()) / math.hypot(1.0, *p.tolist())
    return 2.0 * scaled / math.hypot(1.0, *q.tolist())


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


class FoldResult:
    """Beam representative of a plane coordinate pair plus parity.

    ``x`` and ``y`` lie in the closed square [-pi/4, pi/4]^2 and
    ``parity`` is the total number of reflections mod 2.  The third
    coordinate is untouched by folding.
    """

    __slots__ = ("x", "y", "parity")

    def __init__(self, x, y, parity):
        self.x = x
        self.y = y
        self.parity = parity

    def __repr__(self):
        return f"FoldResult(x={self.x!r}, y={self.y!r}, parity={self.parity})"


def fold_to_beam(x: float, y: float) -> FoldResult:
    """Fold (x, y) into the fundamental square [-pi/4, pi/4]^2."""
    fx, px = fold_axis(x, QUARTER_PI)
    fy, py = fold_axis(y, QUARTER_PI)
    return FoldResult(fx, fy, (px + py) % 2)


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
    n = vec_norm(u)
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"unit vector required, got norm {n}")
    ux, uy, uz = float(u[0]), float(u[1]), float(u[2])
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


def zorich(v) -> np.ndarray:
    """Zorich map: e^z times the hemisphere chart, unfolded by reflections.

    Defined on all of R^3 by folding (x, y) across the planes
    x = (k+1/2)pi and y = (l+1/2)pi; an odd number of reflections flips
    the image through z = 0.  Never vanishes; |Z(v)| = e^{v_z}.
    """
    v = as_vec3(v)
    scale = math.exp(v[2])
    if math.isinf(scale):
        raise OverflowError("e^z overflows; use the beam form of the tangent map instead")
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
    the 3D stand-in for w -> i(1-w)/(1+w).
    """
    if is_infinity(p):
        return np.array([0.0, 0.0, 1.0])
    p = as_vec3(p)
    d = p[0] * p[0] + p[1] * p[1] + (p[2] + 1.0) ** 2
    if d == 0.0:
        return INFINITY
    r = 1.0 / d
    return np.array([2.0 * r * p[0], 2.0 * r * p[1], 1.0 - 2.0 * r * (p[2] + 1.0)])


def cayley_inverse(p):
    """Inverse of cayley: (u,v,w) -> (2su, 2sv, 2s(1-w) - 1), s = 1/(u^2+v^2+(1-w)^2)."""
    if is_infinity(p):
        return np.array([0.0, 0.0, -1.0])
    p = as_vec3(p)
    d = p[0] * p[0] + p[1] * p[1] + (1.0 - p[2]) ** 2
    if d == 0.0:
        return INFINITY
    s = 1.0 / d
    return np.array([2.0 * s * p[0], 2.0 * s * p[1], -1.0 + 2.0 * s * (1.0 - p[2])])


def invert_sphere(v) -> np.ndarray:
    """Inversion in the unit sphere, v -> v/|v|^2."""
    v = as_vec3(v)
    n2 = float(v @ v)
    if n2 == 0.0:
        raise ValueError("inversion undefined at the origin")
    return v / n2


def _beam_formula(x: float, y: float, z: float):
    """Tangent map on the beam [-pi/4, pi/4]^2 x R, in overflow-free form.

    The textbook expression has cosh/sinh factors that overflow near
    |z| ~ 710; dividing through by cosh^2 z leaves
        third = tanh z / (cos^2 M sech^2 z + tanh^2 z)
    and a planar factor proportional to sech^2 z, which cleanly
    underflows to 0 for large |z| so the value tends to (0,0,+-1).
    """
    m = max(abs(x), abs(y))
    th = math.tanh(z)
    e = math.exp(-abs(z))
    sech = 2.0 * e / (1.0 + e * e)
    s2 = sech * sech
    cm = math.cos(m)
    denom = cm * cm * s2 + th * th
    # denom vanishes nowhere on the beam: cos^2 M >= 1/2 there
    third = th / denom
    r = math.hypot(x, y)
    if r == 0.0:
        return 0.0, 0.0, third
    f = cm * math.sin(m) * s2 / (r * denom)
    return x * f, y * f, third


def tangent3(v, lam: float = 1.0):
    """The quasiregular tangent T, scaled by lam, at a finite point.

    Folds (x, y) into the beam, applies the stable beam formula, and for
    odd reflection parity post-composes with inversion in the unit
    sphere.  Returns INFINITY exactly on the pole lattice
    ((n+m)pi/2, (n-m+1)pi/2, 0).  Restricted to the (x,z)- or
    (y,z)-plane this is lam*tan of the corresponding complex variable.
    """
    x, y, z = _checked_vec3(v)[1]
    fx, px = fold_axis(x, QUARTER_PI)
    fy, py = fold_axis(y, QUARTER_PI)
    bx, by, bz = _beam_formula(fx, fy, z)
    if (px + py) % 2:
        n2 = bx * bx + by * by + bz * bz
        if n2 == 0.0:
            return INFINITY
        bx, by, bz = bx / n2, by / n2, bz / n2
    return np.array([lam * bx, lam * by, lam * bz])


def tangent3_composed(v, lam: float = 1.0):
    """lam * (cayley o zorich)(2v); the unfolded definition of the map.

    Raises OverflowError when e^{2 v_z} is out of range, which is why
    tangent3 uses the beam form.  Kept as the independent cross-check of
    the folded evaluation.
    """
    v = as_vec3(v)
    w = cayley(zorich(2.0 * v))
    if is_infinity(w):
        return INFINITY
    return lam * w


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
    odd = (k.astype(np.int64) & 1).astype(bool)
    k *= width
    np.subtract(x, k, out=k)
    return np.where(odd, -k, k), odd


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
    m = np.abs(fx)
    np.maximum(m, np.abs(fy), out=m)
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
    r = np.hypot(fx, fy)
    nonzero = r > 0.0
    r *= denom
    # where r = 0, f = cos(0) sin(0) = 0 already
    np.divide(f, r, out=f, where=nonzero)
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
    # the reciprocal only where it is used and finite, 1 elsewhere
    inv = np.where(odd & (n2 > _RECIP_FLOOR), n2, 1.0)
    np.divide(1.0, inv, out=inv)
    for c in b:
        c *= lam
        c *= inv
    t = (bx, by, np.full(bx.shape, lam * z) if plane else bz)
    if pole is None:
        finite = np.ones(bx.shape, dtype=bool)
    else:
        for c, v in zip(t, near_vals):
            c[near] = v
        for c in t:
            c[pole] = np.inf
        finite = ~pole
    return tuple(a.reshape(shape) for a in (*t, finite))

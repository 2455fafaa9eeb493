"""Dynamics of the tangent map restricted to the invariant plane z = 0.

The plane map F has a square lattice of poles whose open L1 diamonds of
radius pi/2 tile the plane off the diagonal grid of lines y = +-x + k*pi.
Off a short closed diagonal segment through the origin, F admits one
single-valued inverse branch into each diamond; those branches are the
engine behind itineraries and periodic points.  This module evaluates F,
samples its derivative, constructs the inverse branches in closed form
(with a residual check so a wrong branch can never pass silently), and
calibrates the radii used by expansion-based arguments.  One enumerator
of the tangent map's preimages in a box serves both the inverse branches
(box around a diamond, then the diamond itself) and ``preimages_tangent3``.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    HALF_PI,
    INFINITY,
    QUARTER_PI,
    cayley_inverse,
    chordal,
    fold_axis,
    hemisphere_to_square,
    is_infinity,
    tangent3,
    tangent3_grid,
    vec_norm,
)

SQRT2 = math.sqrt(2.0)


class PoleIndex(NamedTuple):
    m: int
    n: int


def pole_location(idx) -> np.ndarray:
    """Plane coordinates ((n+m)pi/2, (n-m+1)pi/2) of pole (m, n)."""
    m, n = idx
    return np.array([(n + m) * HALF_PI, (n - m + 1) * HALF_PI])


def containing_diamond(p):
    """Index of the open diamond containing p, or None on the diagonal grid.

    In rotated coordinates u = x+y, v = y-x the diamonds are axis-aligned
    squares of side pi centred at (n*pi + pi/2, -m*pi + pi/2), so the
    index is found by rounding; membership is strict.
    """
    x, y = float(p[0]), float(p[1])
    u = x + y
    v = y - x
    n = round((u - HALF_PI) / math.pi)
    m = round((HALF_PI - v) / math.pi)
    loc = pole_location((m, n))
    if abs(x - loc[0]) + abs(y - loc[1]) < HALF_PI:
        return PoleIndex(int(m), int(n))
    return None


@dataclass(frozen=True)
class Diamond:
    """Open L1 ball of radius pi/2 about a pole; the set of plane points
    nearer to that pole than to any other."""

    index: PoleIndex

    @property
    def center(self) -> np.ndarray:
        return pole_location(self.index)

    def contains(self, p, margin: float = 0.0) -> bool:
        c = self.center
        return abs(float(p[0]) - c[0]) + abs(float(p[1]) - c[1]) < HALF_PI - margin


def plane_map(p, lam: float = 1.0):
    """F(p) = tangent3((p_x, p_y, 0)); stays in the plane or hits INFINITY."""
    t = tangent3([float(p[0]), float(p[1]), 0.0], lam)
    if is_infinity(t):
        return INFINITY
    return t[:2]


def plane_map_grid(x, y, lam: float = 1.0):
    """Vectorized plane map; returns (fx, fy, finite)."""
    tx, ty, _, finite = tangent3_grid(x, y, 0.0, lam)
    return tx, ty, finite


def plane_chordal(a, b) -> float:
    ainf, binf = is_infinity(a), is_infinity(b)
    pa = a if ainf else np.array([float(a[0]), float(a[1]), 0.0])
    pb = b if binf else np.array([float(b[0]), float(b[1]), 0.0])
    return chordal(pa, pb)


# ---------------------------------------------------------------------------
# derivative sampling

_FD_STEP = 1e-6
_FD_STEP_COARSE = 1e-4


@dataclass
class JacobianSample:
    """Finite-difference derivative of the plane map at one point."""

    point: np.ndarray
    matrix: np.ndarray
    min_singular_value: float
    max_singular_value: float
    eigenvalues: tuple | None  # pair of reals when the spectrum is real


def distance_to_nonsmooth(p) -> float:
    """Distance from p to the fold lines x,y = (2k+1)pi/4 and the diagonals of its tile.

    The plane map is smooth off these; derivative sampling must keep away
    from them.
    """
    x, y = float(p[0]), float(p[1])
    fx, _ = fold_axis(x, QUARTER_PI)
    fy, _ = fold_axis(y, QUARTER_PI)
    d_fold = min(QUARTER_PI - abs(fx), QUARTER_PI - abs(fy))
    d_diag = min(abs(abs(fx) - abs(fy)) / SQRT2, math.hypot(fx, fy))
    return min(d_fold, d_diag)


def _fd_matrix(p, lam, h):
    cols = []
    for i in range(2):
        pp = np.array([float(p[0]), float(p[1])])
        pm = pp.copy()
        pp[i] += h
        pm[i] -= h
        fp = plane_map(pp, lam)
        fm = plane_map(pm, lam)
        if is_infinity(fp) or is_infinity(fm):
            raise ArithmeticError("pole hit inside finite-difference stencil")
        cols.append((fp - fm) / (2.0 * h))
    return np.column_stack(cols)


def jacobian_plane_map(p, lam: float = 1.0, reject_margin: float = 1e-6) -> JacobianSample:
    """Sample DF at p by central differences with a coarse-step cross-check.

    Points within ``reject_margin`` of the fold lines or tile diagonals
    are rejected (the max in the formula is not differentiable there).
    If the 1e-6 and 1e-4 stencils disagree by more than 1e-3 relative,
    a Richardson-extrapolated coarse estimate is used instead.
    """
    if distance_to_nonsmooth(p) <= reject_margin:
        raise ValueError("point too close to the non-smooth set")
    j_fine = _fd_matrix(p, lam, _FD_STEP)
    j_coarse = _fd_matrix(p, lam, _FD_STEP_COARSE)
    scale = max(float(np.abs(j_coarse).max()), 1e-30)
    if float(np.abs(j_fine - j_coarse).max()) / scale > 1e-3:
        j_half = _fd_matrix(p, lam, _FD_STEP_COARSE / 2.0)
        j = (4.0 * j_half - j_coarse) / 3.0
    else:
        j = j_fine
    smin, smax = singular_values_2x2(j[0, 0], j[0, 1], j[1, 0], j[1, 1])
    tr = j[0, 0] + j[1, 1]
    det = j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]
    disc = tr * tr - 4.0 * det
    eig = None
    if disc >= 0.0:
        sq = math.sqrt(disc)
        eig = tuple(sorted(((tr - sq) / 2.0, (tr + sq) / 2.0)))
    return JacobianSample(np.array([float(p[0]), float(p[1])]), j,
                          float(smin), float(smax), eig)


def singular_values_2x2(a, b, c, d):
    """(s_min, s_max) of [[a, b], [c, d]], vectorization-friendly closed form."""
    f = a * a + b * b + c * c + d * d
    det = a * d - b * c
    root = np.sqrt(np.maximum(f * f - 4.0 * det * det, 0.0))
    smax = np.sqrt((f + root) / 2.0)
    smin = np.sqrt(np.maximum((f - root) / 2.0, 0.0))
    return smin, smax


def beam_sector_eigenvalues(p, lam: float = 1.0):
    """Closed-form eigenvalues of the beam-map derivative over the folded point.

    Valid when p folds into the open sector 0 < |y| < |x| < pi/4 of the
    fundamental square.  Even parity gives (tan a / r, a sec^2 a / r)
    and odd parity (cot a / r, -a csc^2 a / r), with a = folded |x| and
    r = hypot of the folded point, all scaled by lam.  Returns None
    outside the sector.
    """
    fx, px = fold_axis(float(p[0]), QUARTER_PI)
    fy, py = fold_axis(float(p[1]), QUARTER_PI)
    a, b = abs(fx), abs(fy)
    if not (0.0 < b < a < QUARTER_PI):
        return None
    r = math.hypot(a, b)
    if (px + py) % 2 == 0:
        mu1 = math.tan(a) / r
        mu2 = a * (1.0 + math.tan(a) ** 2) / r
        return (lam * mu1, lam * mu2)
    mu3 = (math.cos(a) / math.sin(a)) / r
    mu4 = -a / (math.sin(a) ** 2 * r)
    return (lam * mu3, lam * mu4)


def fold_orientation(p):
    """diag(+-1, +-1) giving the local derivative of the beam folding at p."""
    _, kx = fold_axis(float(p[0]), QUARTER_PI)
    _, ky = fold_axis(float(p[1]), QUARTER_PI)
    return np.diag([(-1.0) ** kx, (-1.0) ** ky])


# ---------------------------------------------------------------------------
# inverse branches

def diagonal_segment_distance(w, lam: float) -> float:
    """Distance from w to the closed segment {(x, +-x): |x| <= lam/sqrt(2)} removed
    from the branch domain."""
    x, y = float(w[0]), float(w[1])
    half = lam / SQRT2
    best = math.inf
    for s in (1.0, -1.0):
        # segment from -(half, s*half) to (half, s*half) along y = s*x
        t = (x + s * y) / 2.0
        t = max(-half, min(half, t))
        best = min(best, math.hypot(x - t, y - s * t))
    return best


class BranchDomainError(ValueError):
    """Target outside the domain of the inverse branches."""


class BranchResidualError(RuntimeError):
    """No branch candidate reproduced the target; indicates a bug or an
    invalid target, never a legitimate outcome."""


def inverse_branch(q, w, lam: float = 1.0, residual_tol: float = 1e-9) -> np.ndarray:
    """The inverse branch of the plane map taking values in diamond q.

    For finite w the candidate preimages are reconstructed in closed
    form: pull w/lam back through the Mobius map to a unit vector, read
    off the hemisphere chart point, and enumerate the finitely many
    reflection-group images near the diamond; the candidate is accepted
    only if its forward image reproduces w within ``residual_tol``
    (chordal).  w = INFINITY maps to the pole itself.
    """
    q = PoleIndex(*q)
    loc = pole_location(q)
    if is_infinity(w):
        return loc.copy()
    wx, wy = float(w[0]), float(w[1])
    if diagonal_segment_distance((wx, wy), lam) == 0.0:
        raise BranchDomainError("target lies on the removed diagonal segment")
    u = cayley_inverse(np.array([wx / lam, wy / lam, 0.0]))
    candidates = _branch_candidates(u, loc)
    # the pole itself certifies targets near infinity in the chordal metric
    candidates.append(loc.copy())
    best = None
    best_res = math.inf
    for cand in candidates:
        img = plane_map(cand, lam)
        res = plane_chordal(img, np.array([wx, wy]))
        if res < best_res:
            best_res = res
            best = cand
    if best is None or best_res > residual_tol:
        raise BranchResidualError(
            f"no preimage of {(wx, wy)} in diamond {tuple(q)} (best residual {best_res:.3e})")
    return best


def _branch_candidates(u, loc, slack: float = 1e-9):
    """Preimage candidates in the closed diamond around ``loc``.

    The enclosing box is wider than the L1 bound by one more ``slack``,
    so rounding in the box test can never drop a point the L1 test keeps.
    """
    lx, ly = float(loc[0]), float(loc[1])
    half = HALF_PI + 2.0 * slack
    return [np.array([x, y]) for x, y in _chart_preimages(u, lx, half, ly, half)
            if abs(x - lx) + abs(y - ly) <= HALF_PI + slack]


def _chart_preimages(u, cx, half_x, cy, half_y):
    """Points (x, y) with |x-cx| <= half_x, |y-cy| <= half_y whose Zorich
    direction is the unit vector ``u``.

    The chart point of each hemisphere generates two pi-periodic families
    per coordinate (direct and reflected), and the coordinate parities
    must add up to the hemisphere flip.
    """
    uz = float(u[2])
    charts = []
    if uz >= -1e-12:
        charts.append((hemisphere_to_square(u), 0))
    if uz <= 1e-12:
        charts.append((hemisphere_to_square(np.array([u[0], u[1], -uz])), 1))
    for (a, b), need in charts:
        ys = _family_members(b, cy, half_y)
        for x, parx in _family_members(a, cx, half_x):
            for y, pary in ys:
                if (parx + pary) % 2 == need:
                    yield x, y


def _family_members(a, center, half):
    """Points of {a/2 + k*pi} u {(pi-a)/2 + k*pi} within ``half`` of
    ``center``, tagged with their per-coordinate reflection parity."""
    out = []
    for off, par in ((a / 2.0, 0), ((math.pi - a) / 2.0, 1)):
        klo = math.floor((center - half - off) / math.pi)
        khi = math.ceil((center + half - off) / math.pi)
        for k in range(klo, khi + 1):
            x = off + k * math.pi
            if center - half <= x <= center + half:
                out.append((x, par))
    return out


def preimages_tangent3(target, lam: float, xy_box, z_tol: float = math.inf):
    """All solutions of tangent3(v, lam) = target with (v_x, v_y) in xy_box.

    ``target`` may be a finite 3-vector or INFINITY (whose preimages are
    the poles); ``xy_box`` is (x0, x1, y0, y1).  Returns verified
    preimages (forward chordal residual below 1e-9).  The z-coordinate
    of every preimage of a fixed target is the same number log|u|/2;
    pass z_tol to discard targets whose preimage plane is too far from
    z = 0.
    """
    u = cayley_inverse(target if is_infinity(target)
                       else np.asarray(target, dtype=float) / lam)
    if is_infinity(u):
        return []  # target = (0,0,lam), an omitted value
    norm = float(np.linalg.norm(u))
    if norm == 0.0:
        return []  # target = (0,0,-lam), the other omitted value
    zc = math.log(norm) / 2.0
    if abs(zc) > z_tol:
        return []
    x0, x1, y0, y1 = xy_box
    out = []
    for x, y in _chart_preimages(u / norm, (x0 + x1) / 2.0, (x1 - x0) / 2.0,
                                 (y0 + y1) / 2.0, (y1 - y0) / 2.0):
        cand = np.array([x, y, zc])
        if chordal(tangent3(cand, lam), target) < 1e-9:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# contraction / expansion certificates

def branch_contraction_ratio(q, p, pairs, lam: float = 1.0) -> float:
    """max over pairs in diamond p of |S_q(w1)-S_q(w2)| / |w1-w2|.

    Coincident pairs are skipped.  The derivative bound on the branches
    caps this at sqrt(2)/lam.
    """
    worst = 0.0
    for w1, w2 in pairs:
        d = math.hypot(float(w1[0]) - float(w2[0]), float(w1[1]) - float(w2[1]))
        if d == 0.0:
            continue
        a = inverse_branch(q, w1, lam)
        b = inverse_branch(q, w2, lam)
        worst = max(worst, vec_norm(a - b) / d)
    return worst


def pole_expansion_ratio(p, pairs, lam: float = 1.0) -> float:
    """min over pairs near pole p of |F(a)-F(b)| / |a-b|.

    A pair with an infinite image expands trivially (the other image is
    finite, so the chordal gap is positive while |a-b| is tiny) and is
    skipped rather than measured.  Pairs on opposite sides of the pole
    need no special handling: their images sit in the far field in
    roughly opposite directions, making the Euclidean gap huge.
    """
    best = math.inf
    for a, b in pairs:
        d = math.hypot(float(a[0]) - float(b[0]), float(a[1]) - float(b[1]))
        if d == 0.0:
            continue
        fa = plane_map(a, lam)
        fb = plane_map(b, lam)
        if is_infinity(fa) or is_infinity(fb):
            continue
        best = min(best, vec_norm(fa - fb) / d)
    return best


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


def _min_singular_on_ball(lam, radius, rng):
    """Sampled least singular value of DF_lam on a ball about the base pole,
    by vectorized central differences (non-smooth points dropped)."""
    c = pole_location(_BASE_POLE)
    pts = _ball_samples(rng, c, radius, _N_SAMPLES)
    keep = np.array([distance_to_nonsmooth(p) > 10.0 * _FD_STEP for p in pts])
    pts = pts[keep]
    if len(pts) == 0:
        return math.inf
    h = _FD_STEP
    x, y = pts[:, 0], pts[:, 1]
    fxp, fyp, okxp = plane_map_grid(x + h, y, lam)
    fxm, fym, okxm = plane_map_grid(x - h, y, lam)
    gxp, gyp, okyp = plane_map_grid(x, y + h, lam)
    gxm, gym, okym = plane_map_grid(x, y - h, lam)
    ok = okxp & okxm & okyp & okym
    a = (fxp - fxm) / (2 * h)
    c2 = (fyp - fym) / (2 * h)
    b = (gxp - gxm) / (2 * h)
    d = (gyp - gym) / (2 * h)
    smin, _ = singular_values_2x2(a[ok], b[ok], c2[ok], d[ok])
    return float(smin.min()) if smin.size else math.inf


def calibrate_expansion(lam: float) -> ExpansionCalibration:
    """Scan for the certificate radii at parameter lam (cached, seeded).

    delta is the largest radius on a dyadic grid keeping the sampled
    least singular value >= 2; r1 doubles until the circle |y| = r1
    pulls back within delta of the pole; eps is the largest grid radius
    keeping |F| > 2*r1, capped below pi/4.  Calibration failure raises,
    it never returns a bogus certificate.
    """
    if not lam > 0.0:
        raise ValueError("scaling parameter must be positive")
    key = float(lam)
    hit = _CALIBRATION_CACHE.get(key)
    if hit is not None:
        return hit
    rng = np.random.default_rng(_SEED)
    inscribed = HALF_PI / SQRT2  # largest ball inside a diamond
    radii = inscribed * 0.98 * (2.0 ** (-np.arange(_N_RADII) / 8.0))
    delta = None
    for r in radii:
        if _min_singular_on_ball(lam, float(r), rng) >= 2.0:
            delta = float(r)
            break
    if delta is None:
        raise RuntimeError(f"derivative never reaches 2 near poles at lam={lam}")

    c = pole_location(_BASE_POLE)
    r1 = max(1.5 * lam / SQRT2, 1.0)
    for _ in range(60):
        ang = rng.uniform(0.0, 2.0 * math.pi, 400)
        ok = True
        for t in ang:
            w = np.array([r1 * math.cos(t), r1 * math.sin(t)])
            if diagonal_segment_distance(w, lam) == 0.0:
                continue
            s = inverse_branch(_BASE_POLE, w, lam)
            if vec_norm(s - c) >= 0.98 * delta:
                ok = False
                break
        if ok:
            break
        r1 *= 1.5
    else:
        raise RuntimeError(f"far-field radius did not stabilize at lam={lam}")

    eps = None
    for r in radii:
        if r >= QUARTER_PI:
            continue
        pts = _ball_samples(rng, c, float(r), _N_SAMPLES)
        fx, fy, finite = plane_map_grid(pts[:, 0], pts[:, 1], lam)
        norms = np.where(finite, np.hypot(fx, fy), np.inf)
        if float(norms.min()) > 2.0 * r1:
            eps = float(r)
            break
    if eps is None:
        raise RuntimeError(f"image-norm radius collapsed at lam={lam}")

    # sup of |F| over the diamond minus the eps-ball (sampled, with margin)
    pts = _ball_samples(rng, c, HALF_PI, 4 * _N_SAMPLES)
    keep = [abs(p[0] - c[0]) + abs(p[1] - c[1]) < HALF_PI
            and math.hypot(p[0] - c[0], p[1] - c[1]) >= eps for p in pts]
    pts = pts[np.array(keep)]
    fx, fy, finite = plane_map_grid(pts[:, 0], pts[:, 1], lam)
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

"""Scalar reference versions of the array-evaluated verify checks.

Each function below is the one-point-at-a-time body that the check,
sampler or plane ratio of the same name ran before it moved onto
``tangent3_grid``, the batched branch engine, the float core or block
draws, kept
verbatim (names and imports aside) so the tests can require the array
versions to reach the same verdicts, consume the same random numbers
and, for ``classify_orbit``, return the same fates.  ``classify_orbit``
compares its diamond-centre norms as integers, as the library does.
The bisections are the full 200-step loops, without the early stop.
``petal_contains`` is the petal test as two fans of sectors, each
bounded by a bisected fixed point of ``mu*tan``, that the closed form
``lam*tan(m) < |q|`` replaced.  ``tangent3_composed`` is the unfolded
route through the scalar ``zorich`` and ``cayley``, and
``beam_sector_eigenvalues`` and ``fold_orientation`` are the scalar
closed forms the eigenvalue cross-check read before it moved onto
arrays.  ``itinerary_of``, ``shadow_check`` and ``newton_polish`` are the
symbolic layer's forward steps through ``plane_map``, one array per
step, before they moved onto the float core.
"""

import math

import numpy as np

from qrtan import analysis, plane
from qrtan.analysis import Fate, FateRecord
from qrtan.core import (
    HALF_PI,
    INFINITY,
    QUARTER_PI,
    as_vec3,
    cayley,
    chordal,
    is_infinity,
    tangent3,
    vec_norm,
    zorich,
)
from qrtan.itinerary import StopReason
from qrtan.plane import SQRT2, containing_diamond
from qrtan.verify import CheckResult, _petal_rate


def _sample_points(rng, n, span=10.0, z=None):
    pts = rng.uniform(-span, span, size=(n, 3))
    if z is not None:
        pts[:, 2] = z
    return pts


def check_tangent_embedding(lam, rng, n=10_000):
    """Restriction to the (x,z)- and (y,z)-planes equals lam*tan(a+ib)."""
    import cmath
    worst = 0.0
    a = rng.uniform(-10, 10, n)
    b = rng.uniform(-10, 10, n)
    for ai, bi in zip(a, b):
        w = lam * cmath.tan(complex(ai, bi))  # independent complex-arithmetic oracle
        for v, want in ((np.array([ai, 0.0, bi]), np.array([w.real, 0.0, w.imag])),
                        (np.array([0.0, ai, bi]), np.array([0.0, w.real, w.imag]))):
            got = tangent3(v, lam)
            worst = max(worst, chordal(got, want))
    return CheckResult("tangent-embedding",
                       worst < 1e-10, f"max chordal error {worst:.2e}")


def check_periodicity(lam, rng, n=10_000):
    """T(v + (pi,0,0)) = T(v) = T(v + (0,pi,0)) in the chordal metric."""
    worst = 0.0
    for v in _sample_points(rng, n):
        base = tangent3(v, lam)
        for shift in (np.array([math.pi, 0, 0]), np.array([0, math.pi, 0])):
            worst = max(worst, chordal(base, tangent3(v + shift, lam)))
    return CheckResult("periodicity", worst < 1e-10, f"max chordal error {worst:.2e}")


def check_reflection_equivariance(lam, rng, n=10_000):
    """T commutes with reflection in each coordinate plane."""
    worst = 0.0
    refl = [np.array([-1.0, 1.0, 1.0]), np.array([1.0, -1.0, 1.0]), np.array([1.0, 1.0, -1.0])]
    for v in _sample_points(rng, n // 3):
        for r in refl:
            lhs = tangent3(r * v, lam)
            rhs = tangent3(v, lam)
            if is_infinity(rhs):
                ok = is_infinity(lhs)
                worst = max(worst, 0.0 if ok else math.inf)
            else:
                worst = max(worst, chordal(lhs, r * rhs))
    return CheckResult("reflection-equivariance", worst < 1e-10,
                       f"max chordal error {worst:.2e}")


def check_omitted_values(lam, rng, n=2_000):
    """(0,0,+-lam) is never attained but is the limit for z -> +-inf."""
    up = np.array([0.0, 0.0, lam])
    down = -up
    min_gap = math.inf
    for v in _sample_points(rng, n):
        img = tangent3(v, lam)
        if is_infinity(img):
            continue
        min_gap = min(min_gap, float(np.linalg.norm(img - up)),
                      float(np.linalg.norm(img - down)))
    worst_limit = 0.0
    for v in _sample_points(rng, 200):
        hi = tangent3(np.array([v[0], v[1], 20.0]), lam)
        lo = tangent3(np.array([v[0], v[1], -20.0]), lam)
        worst_limit = max(worst_limit, float(np.linalg.norm(hi - up)),
                          float(np.linalg.norm(lo - down)))
    ok = min_gap > 0.0 and worst_limit < 1e-8
    return CheckResult("omitted-values", ok,
                       f"min gap {min_gap:.2e}, limit error {worst_limit:.2e}")


def check_half_space_invariance(lam, rng, n=5_000):
    """sign of the third component is preserved off the plane."""
    bad = 0
    for v in _sample_points(rng, n):
        if v[2] == 0.0:
            continue
        img = tangent3(v, lam)
        if is_infinity(img) or math.copysign(1.0, img[2]) != math.copysign(1.0, v[2]):
            bad += 1
    return CheckResult("half-space-invariance", bad == 0, f"{bad} violations")


def check_composed_consistency(lam, rng, n=10_000):
    """Beam evaluation agrees with the unfolded cayley(zorich(2v)) route."""
    worst = 0.0
    used = 0
    for v in _sample_points(rng, 2 * n, span=5.0):
        if used >= n:
            break
        fx, _ = _fold_gap(v[0])
        fy, _ = _fold_gap(v[1])
        if min(fx, fy) < 1e-6:
            continue
        used += 1
        a = tangent3(v, lam)
        b = tangent3_composed(v, lam)
        worst = max(worst, chordal(a, b))
    return CheckResult("composed-vs-beam-consistency", worst < 1e-9,
                       f"max chordal error {worst:.2e} over {used} samples")


def tangent3_composed(v, lam: float = 1.0):
    """lam * (cayley o zorich)(2v); the unfolded definition of the map."""
    v = as_vec3(v)
    w = cayley(zorich(2.0 * v))
    if is_infinity(w):
        return INFINITY
    return lam * w


def _fold_gap(x):
    from qrtan.core import fold_axis
    f, p = fold_axis(float(x), QUARTER_PI)
    return QUARTER_PI - abs(f), p


def check_axis_action(lam, rng, n=2_000):
    """T_lam(0,0,z) = (0,0, lam*tanh z)."""
    worst = 0.0
    for z in rng.uniform(-20, 20, n):
        img = tangent3(np.array([0.0, 0.0, z]), lam)
        worst = max(worst, float(np.linalg.norm(img - np.array([0, 0, lam * math.tanh(z)]))))
    return CheckResult("axis-action", worst < 1e-12, f"max error {worst:.2e}")


def check_basin_classification(lam, rng, n=200):
    """Orbits off the plane fall into the advertised attractor."""
    want = analysis.Fate.TO_UPPER_FIXED if lam > 1.0 else analysis.Fate.TO_ORIGIN
    bad = 0
    for _ in range(n):
        v = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10),
                      rng.uniform(0.01, 5.0)])
        rec = classify_orbit(v, lam, max_iter=500)
        if rec.fate is not want:
            bad += 1
    return CheckResult("basin-classification", bad == 0,
                       f"{bad}/{n} orbits missed {want.value}")


def check_derivative_lower_bound(lam, rng, n=10_000):
    """Sampled eigenvalues of DF stay above lam/sqrt(2) - 0.01 in modulus.

    The eigenvalue bound is what the derivative computation actually
    establishes.  The least *singular* value genuinely dips below
    lam/sqrt(2) on a cone about the diagonals (the matrix is non-normal
    there, with a double eigenvalue exactly lam/sqrt(2)), so it is
    reported but not gated on.
    """
    bound = lam / SQRT2 - 0.01
    worst_eig = math.inf
    worst_sv = math.inf
    used = 0
    while used < n:
        p = rng.uniform(-6, 6, 2)
        if plane.distance_to_nonsmooth(p) <= 1e-3:
            continue
        used += 1
        s = plane.jacobian_plane_map(p, lam)
        worst_sv = min(worst_sv, s.min_singular_value)
        if s.eigenvalues is not None:
            worst_eig = min(worst_eig, min(abs(e) for e in s.eigenvalues))
    return CheckResult("derivative-lower-bound", worst_eig >= bound,
                       f"min |eigenvalue| {worst_eig:.4f} vs bound {bound:.4f} "
                       f"(least singular value seen {worst_sv:.4f})")


def beam_sector_eigenvalues(p, lam: float = 1.0):
    """Closed-form eigenvalues of the beam-map derivative over the folded point.

    Valid when p folds into the open sector 0 < |y| < |x| < pi/4 of the
    fundamental square.  Even parity gives (tan a / r, a sec^2 a / r)
    and odd parity (cot a / r, -a csc^2 a / r), with a = folded |x| and
    r = hypot of the folded point, all scaled by lam.  Returns None
    outside the sector.
    """
    fx, px, fy, py = plane._fold_point(p)
    a, b = abs(fx), abs(fy)
    if not (0.0 < b < a < QUARTER_PI):
        return None
    r = math.hypot(a, b)
    if (px + py) % 2 == 0:
        return (lam * (math.tan(a) / r), lam * (a * (1.0 + math.tan(a) ** 2) / r))
    return (lam * (math.cos(a) / math.sin(a) / r), lam * (-a / (math.sin(a) ** 2 * r)))


def fold_orientation(p):
    """diag(+-1, +-1) giving the local derivative of the beam folding at p."""
    _, kx, _, ky = plane._fold_point(p)
    return np.diag([(-1.0) ** kx, (-1.0) ** ky])


def check_eigen_crosscheck(lam, rng, n=500):
    """The plane Jacobian reproduces the closed-form sector eigenvalues."""
    worst = 0.0
    used = 0
    while used < n:
        p = rng.uniform(-6, 6, 2)
        closed = beam_sector_eigenvalues(p, lam)
        if closed is None or plane.distance_to_nonsmooth(p) <= 1e-3:
            continue
        used += 1
        s = plane.jacobian_plane_map(p, lam)
        beam_j = s.matrix @ fold_orientation(p)
        tr = beam_j[0, 0] + beam_j[1, 1]
        det = float(np.linalg.det(beam_j))
        disc = tr * tr - 4 * det
        if disc < 0:
            worst = math.inf
            break
        got = sorted([(tr - math.sqrt(disc)) / 2, (tr + math.sqrt(disc)) / 2])
        want = sorted(closed)
        for g, w in zip(got, want):
            worst = max(worst, abs(g - w) / max(abs(w), 1e-12))
    return CheckResult("derivative-eigen-crosscheck", worst < 1e-8,
                       f"max relative eigenvalue error {worst:.2e}")


def petal_boundary_residual(lam: float, n_samples: int = 100):
    """Max |T_lam(p) - p| over petal-boundary points inside the open square."""
    if not (0.0 < lam < SQRT2):
        raise ValueError("need 0 < lam < sqrt(2)")
    lo = max(lam * lam - 1.0, 0.0)
    alphas_sq = np.linspace(lo, 1.0, n_samples + 1)[1:]
    worst = 0.0
    count = 0
    for a2 in alphas_sq:
        # a2 > lam^2 - 1 on every sample, so mu < 1
        bound = smallest_tan_fixed_point(lam / math.sqrt(1.0 + float(a2)))
        if bound >= QUARTER_PI:
            continue
        a = math.sqrt(float(a2))
        for sx in (1.0, -1.0):
            for sa in (1.0, -1.0):
                x = sx * bound
                for p in (np.array([x, sa * a * x, 0.0]),
                          np.array([sa * a * x, x, 0.0])):
                    img = tangent3(p, lam)
                    worst = max(worst, float(np.linalg.norm(img - p)))
                    count += 1
    return worst, count


def check_petal_boundary_fixed(lam, rng):
    """Petal boundary points inside the open square are fixed (pi/4 < lam < sqrt2)."""
    worst, count = petal_boundary_residual(lam, n_samples=100)
    if count == 0:
        return CheckResult("petal-boundary-fixed", True, "vacuous at this lam")
    return CheckResult("petal-boundary-fixed", worst < 1e-9,
                       f"max residual {worst:.2e} over {count} boundary points")


def check_diagonal_invariance(lam, rng, n=500):
    """The diagonal lines map into the bounded diagonal segment."""
    worst_off = 0.0
    worst_len = 0.0
    for x in rng.uniform(-30, 30, n):
        for s in (1.0, -1.0):
            img = plane.plane_map(np.array([x, s * x]), lam)
            if is_infinity(img):
                return CheckResult("diagonal-invariance", False,
                                   "diagonal point hit a pole")
            worst_off = max(worst_off, abs(abs(img[0]) - abs(img[1])))
            worst_len = max(worst_len, abs(img[0]))
    ok = worst_off < 1e-10 and worst_len <= lam / SQRT2 + 1e-10
    return CheckResult("diagonal-invariance", ok,
                       f"off-diagonal {worst_off:.1e}, max |x| {worst_len:.6f} "
                       f"vs {lam / SQRT2:.6f}")


def check_branch_roundtrip(lam, rng, n_targets=200):
    """F o S_q = id on sampled targets; S_q(inf) is the pole, exactly."""
    poles = [plane.PoleIndex(m, nn) for m in (-1, 0, 1) for nn in (-1, 0, 1)]
    worst = 0.0
    for q in poles:
        exact = plane.inverse_branch(q, INFINITY, lam)
        if not np.array_equal(exact, plane.pole_location(q)):
            return CheckResult("branch-roundtrip", False, "branch at infinity != pole")
        count = 0
        while count < n_targets:
            w = rng.uniform(-20, 20, 2)
            if plane.diagonal_segment_distance(w, lam) < 1e-6:
                continue
            count += 1
            x = plane.inverse_branch(q, w, lam)
            img = plane.plane_map(x, lam)
            worst = max(worst, chordal([*img, 0.0], [*w, 0.0]))
    return CheckResult("branch-roundtrip", worst < 1e-9,
                       f"max chordal residual {worst:.2e}")


def check_branch_contraction(lam, rng, n_pairs=1000):
    """Branch images of one diamond shrink pairwise by sqrt(2)/lam + 0.01."""
    bound = SQRT2 / lam + 0.01
    p = plane.PoleIndex(0, 3)
    q = plane.PoleIndex(0, 0)
    c = plane.pole_location(p)
    pairs = []
    while len(pairs) < n_pairs:
        a = _diamond_sample(rng, c)
        b = _diamond_sample(rng, c)
        pairs.append((a, b))
    ratio = branch_contraction_ratio(q, p, pairs, lam)
    return CheckResult("branch-contraction", ratio <= bound,
                       f"max ratio {ratio:.4f} vs bound {bound:.4f}")


def _diamond_sample(rng, center):
    while True:
        d = rng.uniform(-HALF_PI, HALF_PI, 2)
        if abs(d[0]) + abs(d[1]) < HALF_PI:
            return center + d


def check_pole_expansion(lam, rng, n_pairs=1000):
    """|F(a)-F(b)| >= (2 - 0.01)|a-b| on the calibrated pole ball."""
    cal = plane.calibrate_expansion(lam)
    c = plane.pole_location(plane.PoleIndex(0, 0))
    pairs = []
    while len(pairs) < n_pairs:
        ang = rng.uniform(0, 2 * math.pi, 2)
        rad = cal.eps * np.sqrt(rng.uniform(0, 1, 2))
        a = c + rad[0] * np.array([math.cos(ang[0]), math.sin(ang[0])])
        b = c + rad[1] * np.array([math.cos(ang[1]), math.sin(ang[1])])
        pairs.append((a, b))
    ratio = pole_expansion_ratio(plane.PoleIndex(0, 0), pairs, lam)
    ok = ratio >= 2.0 - 0.01
    return CheckResult("pole-expansion", ok,
                       f"min ratio {ratio:.4f} on eps={cal.eps:.4f} ball")


def check_petal_absorbed(lam, rng, n=300, draws=200_000):
    """Petal samples are classified as captured by the origin (lam < sqrt2);
    at most ``draws`` points are drawn."""
    bad = 0
    tried = 0
    for _ in range(draws):
        if tried == n:
            break
        p = rng.uniform(-QUARTER_PI, QUARTER_PI, 2)
        if not analysis.petal_contains(p, lam):
            continue
        # points right at the boundary converge arbitrarily slowly
        if not analysis.petal_contains(p * 1.05, lam):
            continue
        if _petal_rate(p, lam) > 0.99:
            continue
        tried += 1
        rec = analysis.classify_orbit(np.array([p[0], p[1], 0.0]), lam, max_iter=2500)
        if rec.fate is not analysis.Fate.TO_ORIGIN:
            bad += 1
    if tried == 0:
        return CheckResult("petal-absorbed", True, "vacuous at this lam")
    found = "" if tried == n else f"; {tried} of {n} found in {draws} draws"
    return CheckResult("petal-absorbed", bad == 0,
                       f"{bad}/{tried} petal orbits strayed (sectors with "
                       f"contraction factor <= 0.99){found}")


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
        a = plane.inverse_branch(q, w1, lam)
        b = plane.inverse_branch(q, w2, lam)
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
        fa = plane.plane_map(a, lam)
        fb = plane.plane_map(b, lam)
        if is_infinity(fa) or is_infinity(fb):
            continue
        best = min(best, vec_norm(fa - fb) / d)
    return best


# ---------------------------------------------------------------------------
# analysis

def axis_fixed_point(lam: float) -> float:
    """The positive solution of lam * tanh(xi) = xi (needs lam > 1).

    Bisection on [tiny, lam] followed by Newton polish; the residual of
    the returned value is below 1e-12.  For lam <= 1 the only solution
    is 0 and a ValueError is raised.
    """
    if not lam > 1.0:
        raise ValueError("the equation has a positive root only for lam > 1")
    def g(t):
        return lam * math.tanh(t) - t
    lo, hi = 1e-300, lam  # g > 0 near 0+ since the slope is lam > 1; g(lam) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(4):
        dg = lam / math.cosh(x) ** 2 - 1.0
        if dg == 0.0:
            break
        x -= g(x) / dg
    return x


def smallest_tan_fixed_point(mu: float) -> float:
    """The smallest positive solution of mu * tan(x) = x, for 0 < mu < 1.

    Lies in (0, pi/2); decreasing in mu.  Bisection plus Newton polish,
    residual below 1e-12.
    """
    if not (0.0 < mu < 1.0):
        raise ValueError("need 0 < mu < 1")
    def g(t):
        return mu * math.tan(t) - t
    lo, hi = 1e-12, HALF_PI * (1.0 - 1e-14)  # g < 0 just above 0, g -> +inf at pi/2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(4):
        dg = mu / math.cos(x) ** 2 - 1.0
        if dg == 0.0:
            break
        step = g(x) / dg
        if 0.0 < x - step < HALF_PI:
            x -= step
    return x


def petal_x_bound(lam: float, alpha_sq: float):
    """Half-length bound of the petal sector with slope^2 = alpha_sq, or None
    when the sector is empty (alpha_sq outside (lam^2 - 1, 1])."""
    if not (lam * lam - 1.0 < alpha_sq <= 1.0):
        return None
    mu = lam / math.sqrt(1.0 + alpha_sq)
    if mu >= 1.0:
        return None
    return min(QUARTER_PI, smallest_tan_fixed_point(mu))


def petal_contains(p, lam: float) -> bool:
    """Membership in the petal region Q (union of two diagonal sector fans).

    Defined for 0 < lam < sqrt(2).  A point (x, a*x) with a^2 in
    (lam^2 - 1, 1] belongs when |x| < min(pi/4, bound(a)); the second
    fan swaps the roles of the coordinates.  For lam <= pi/4 this
    reduces to the whole open square (-pi/4, pi/4)^2.
    """
    if not (0.0 < lam < SQRT2):
        raise ValueError("petal region defined for 0 < lam < sqrt(2)")
    x, y = float(p[0]), float(p[1])
    if x == 0.0 and y == 0.0:
        return True
    for base, other in ((x, y), (y, x)):
        if base == 0.0 or abs(other) > abs(base):
            continue
        alpha_sq = (other / base) ** 2
        bound = petal_x_bound(lam, alpha_sq)
        if bound is not None and abs(base) < bound:
            return True
    return False


def classify_orbit(v, lam: float, max_iter: int = 500, tol: float = 1e-6,
                   escape_run: int = 8, escape_norm: float = 50.0,
                   settle: int = 3) -> FateRecord:
    """Iterate the scaled tangent map and name the orbit's fate.

    Convergence fates require staying within ``tol`` of the target for
    ``settle`` consecutive steps.  The escape call is heuristic by
    nature (the escaping set is totally disconnected): the orbit must
    sit in pole diamonds whose centre norms strictly increased for
    ``escape_run`` consecutive steps while the orbit norm exceeds
    ``escape_norm``.  Anything else at the horizon is Undecided.
    """
    if max_iter < 1:
        raise ValueError("need max_iter >= 1")
    targets = [(Fate.TO_ORIGIN, np.zeros(3))]
    if lam > 1.0:
        xi = axis_fixed_point(lam)
        targets.append((Fate.TO_UPPER_FIXED, np.array([0.0, 0.0, xi])))
        targets.append((Fate.TO_LOWER_FIXED, np.array([0.0, 0.0, -xi])))
    runs = [0] * len(targets)
    p = as_vec3(v)
    grow_run = 0
    prev_center_norm = None
    for it in range(1, max_iter + 1):
        p = tangent3(p, lam)
        if is_infinity(p):
            return FateRecord(Fate.POLE_HIT, it, 0.0, INFINITY)
        for i, (fate, target) in enumerate(targets):
            d = vec_norm(p - target)
            runs[i] = runs[i] + 1 if d < tol else 0
            if runs[i] >= settle:
                return FateRecord(fate, it, d, p)
        # escape bookkeeping only makes sense on the invariant plane
        if p[2] == 0.0:
            idx = containing_diamond(p[:2])
            if idx is not None:
                # the centre is (n + m, n - m + 1) pi/2; its norm over pi/2,
                # squared, is an integer, compared exactly
                cn = (idx.n + idx.m) ** 2 + (idx.n - idx.m + 1) ** 2
                if prev_center_norm is not None and cn > prev_center_norm:
                    grow_run += 1
                else:
                    grow_run = 0
                prev_center_norm = cn
                if grow_run >= escape_run and vec_norm(p) > escape_norm:
                    return FateRecord(Fate.ESCAPING, it, 0.0, p)
            else:
                grow_run = 0
                prev_center_norm = None
        else:
            grow_run = 0
            prev_center_norm = None
    return FateRecord(Fate.UNDECIDED, max_iter, math.nan, p)


def parabolic_decrease_check(eps: float = 0.05, n_samples: int = 10_000,
                             seed: int = 0) -> bool:
    """Sampled check (lam = 1 only) that the third component obeys
    T_3(x,y,z) <= z - z^3/24 on the cusp region {max(|x|,|y|) < z/2 < eps}."""
    rng = np.random.default_rng(seed)
    count = 0
    while count < n_samples:
        z = rng.uniform(0.0, 2.0 * eps)
        if z <= 0.0:
            continue
        m = z / 2.0
        x = rng.uniform(-m, m)
        y = rng.uniform(-m, m)
        count += 1
        img = tangent3(np.array([x, y, z]), 1.0)
        if float(img[2]) > z - z ** 3 / 24.0:
            return False
    return True


def third_component_bound_violations(lam: float, n_samples: int = 10_000,
                                     seed: int = 0, z_max: float = 5.0,
                                     slack: float = 1e-12) -> int:
    """Count violations of T_3(x,y,z) >= lam*tanh(z) - slack over random
    samples with z > 0 (odd- and even-parity tiles both covered)."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-10.0, 10.0, n_samples)
    ys = rng.uniform(-10.0, 10.0, n_samples)
    zs = rng.uniform(1e-9, z_max, n_samples)
    bad = 0
    for x, y, z in zip(xs, ys, zs):
        img = tangent3(np.array([x, y, z]), lam)
        if float(img[2]) < lam * math.tanh(z) - slack:
            bad += 1
    return bad


def offaxis_monotonicity_violations(lam: float, n_samples: int = 10_000,
                                    seed: int = 0) -> int:
    """Count violations of ratio(T(v)) < ratio(v), ratio = max(|x|,|y|)/z,
    on random upper-half-space samples with max(|x|,|y|) bounded away
    from 0."""
    rng = np.random.default_rng(seed)
    bad = 0
    for _ in range(n_samples):
        v = np.array([rng.uniform(-10, 10), rng.uniform(-10, 10),
                      rng.uniform(1e-6, 10.0)])
        if max(abs(v[0]), abs(v[1])) < 1e-9:
            continue
        img = tangent3(v, lam)
        if is_infinity(img) or not img[2] > 0.0:
            bad += 1
            continue
        if not max(abs(img[0]), abs(img[1])) / img[2] < max(abs(v[0]), abs(v[1])) / v[2]:
            bad += 1
    return bad


def itinerary_of(p, lam: float, n_terms: int):
    """Read off the diamond indices visited by the forward orbit of p."""
    symbols = []
    cur = np.array([float(p[0]), float(p[1])])
    for _ in range(n_terms):
        idx = containing_diamond(cur)
        if idx is None:
            return symbols, StopReason.LEFT_DIAMONDS
        symbols.append(idx)
        nxt = plane.plane_map(cur, lam)
        if is_infinity(nxt):
            return symbols, StopReason.POLE_HIT
        cur = nxt
    return symbols, StopReason.COMPLETE


def shadow_check(waypoints, itin, lam: float, depth: int):
    """Verify, symbol by symbol, that the constructed orbit runs the itinerary."""
    worst = 0.0
    for j in range(depth):
        x = waypoints[j]
        idx = containing_diamond(x)
        if idx != itin.symbol(j):
            return False, math.inf
        img = plane.plane_map(x, lam)
        if is_infinity(img):
            return False, math.inf
        gap = vec_norm(img - waypoints[j + 1])
        worst = max(worst, gap)
        if gap > 1e-8:
            return False, worst
    return True, worst


def newton_polish(y, cycle, lam):
    """Up to six Newton steps on g(y) = F^k(y) - y, keeping only residual
    improvements; returns (point, orbit)."""
    def forward(p):
        pts = [np.array(p)]
        for _ in cycle:
            q = plane.plane_map(pts[-1], lam)
            if is_infinity(q):
                return None
            pts.append(q)
        return pts

    best = np.array(y)
    best_pts = forward(best)
    if best_pts is None:
        return best, None
    g = best_pts[-1] - best_pts[0]
    best_r = vec_norm(g)
    for _ in range(6):
        jac = np.eye(2)
        try:
            for p in best_pts[:-1]:
                jac = plane._plane_jacobian(p, lam) @ jac
            delta = np.linalg.solve(jac - np.eye(2), -g)
        except (ZeroDivisionError, np.linalg.LinAlgError):
            break  # an orbit point at a tile centre, or a singular step
        cand = best + delta
        if np.array_equal(cand, best):
            break  # the step is below the resolution of best
        pts = forward(cand)
        if pts is None:
            break
        g = pts[-1] - pts[0]
        r = vec_norm(g)
        if not r < best_r:
            break
        best, best_r, best_pts = cand, r, pts
    return best, best_pts

"""Symbolic dynamics of escaping orbits: itineraries, their inverses, and
periodic points.

An escaping plane orbit visits a sequence of pole diamonds whose centres
march off to infinity; that sequence is the orbit's itinerary, and it
determines the orbit.  Going the other way, composing inverse branches
along a prescribed diamond sequence nests compact sets whose diameters
collapse geometrically, pinning down the unique point with that
itinerary.  Replacing the final topological fixed-point step with a
monitored contraction iteration also yields periodic orbits shadowing
any escaping point.

Forward verification at depth is done waypoint by waypoint: each
backward-constructed orbit point is pushed one step forward and compared
to the next.  A single long double-precision forward run is useless
here; local expansion near the visited poles multiplies and wipes out
all digits after roughly ten symbols, while every one-step comparison is
good to ~1e-12.  Forward steps run on the float core ``_tangent3_xyz``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import _require_finite, _tangent3_xyz, vec_norm
from .plane import (
    PoleIndex,
    _plane_jacobian,
    _pole_xy,
    _require_positive_lam,
    containing_diamond,
    inverse_branch,
    pole_location,
    required_tail_radius,
)


@dataclass
class Itinerary:
    """A pole-diamond sequence: explicit prefix plus a tail rule.

    ``prefix`` lists the first symbols; ``tail`` (when present) maps
    j >= len(prefix) to further pole indices and must eventually produce
    norms above the calibrated tail radius, nondecreasing and unbounded.
    """

    prefix: list
    tail: object = None  # callable j -> PoleIndex

    def symbol(self, j: int) -> PoleIndex:
        if j < len(self.prefix):
            return PoleIndex(*self.prefix[j])
        if self.tail is None:
            raise IndexError("itinerary has no tail rule")
        return PoleIndex(*self.tail(j))

    def symbols(self, n: int):
        return [self.symbol(j) for j in range(n)]


class StopReason:
    POLE_HIT = "pole-hit"
    LEFT_DIAMONDS = "left-diamonds"
    COMPLETE = "complete"


def itinerary_of(p, lam: float, n_terms: int):
    """Read off the diamond indices visited by the forward orbit of p.

    Emits one index per iterate sitting in an open diamond and stops
    early with a reason when the orbit lands on the diagonal grid
    (escaping points never do) or hits a pole.  Plain forward iteration:
    reliable to a depth set by the accumulated local expansion, roughly
    ten to twenty symbols for moderate tails.
    """
    _require_positive_lam(lam)
    if n_terms < 0:
        raise ValueError(f"n_terms must be nonnegative, got {n_terms}")
    symbols = []
    x, y = float(p[0]), float(p[1])
    for _ in range(n_terms):
        idx = containing_diamond((x, y))
        if idx is None:
            return symbols, StopReason.LEFT_DIAMONDS
        symbols.append(idx)
        t = _tangent3_xyz(x, y, 0.0, lam)
        if t is None:
            return symbols, StopReason.POLE_HIT
        x, y = t[0], t[1]
    return symbols, StopReason.COMPLETE


def _check_tail(itin: Itinerary, lam: float, symbols):
    r = required_tail_radius(lam)
    start = len(itin.prefix)
    prev = 0.0
    for i, s in enumerate(symbols[start:], start):
        norm = math.hypot(*_pole_xy(*s))
        if norm < prev - 1e-12:
            raise ValueError("tail pole norms must be nondecreasing")
        if norm <= r:
            raise ValueError(f"tail pole {i} has norm {norm:.3f} <= calibrated radius {r:.3f}")
        prev = norm


def point_from_itinerary(itin: Itinerary, lam: float, n_compose: int = 30,
                         return_waypoints: bool = False):
    """The plane point whose orbit runs through the prescribed diamonds.

    Pulls the centre of diamond n_compose back through the composed
    inverse branches.  Successive truncations are Cauchy (geometric in
    n_compose); beyond ~30 compositions the increments sit below double
    resolution.  With ``return_waypoints`` the whole backward orbit
    x_j = S_{p_j} o ... o S_{p_{n-1}}(centre) comes along, x_0 being the
    answer.
    """
    if n_compose < 0:
        raise ValueError(f"n_compose must be nonnegative, got {n_compose}")
    if itin.tail is None and len(itin.prefix) <= n_compose:
        raise ValueError("need a tail rule (or a prefix longer than n_compose)")
    symbols = itin.symbols(n_compose + 1)
    _check_tail(itin, lam, symbols)
    waypoints = [pole_location(symbols[n_compose])]
    for idx in reversed(symbols[:n_compose]):
        waypoints.append(inverse_branch(idx, waypoints[-1], lam))
    waypoints.reverse()
    return (waypoints[0], waypoints) if return_waypoints else waypoints[0]


def shadow_check(waypoints, itin: Itinerary, lam: float, depth: int):
    """Verify, symbol by symbol, that the constructed orbit runs the itinerary.

    For j < depth checks that waypoint j lies in open diamond j and that
    one forward step lands within 1e-8 of waypoint j+1.  Each
    check is a single-step evaluation, so the certificate does not decay
    with depth.  Returns (ok, worst_gap).
    """
    if not 0 <= depth < len(waypoints):
        raise ValueError(f"depth must be in [0, {len(waypoints) - 1}], got {depth}")
    worst = 0.0
    for j in range(depth):
        x, y = float(waypoints[j][0]), float(waypoints[j][1])
        if containing_diamond((x, y)) != itin.symbol(j):
            return False, math.inf
        t = _tangent3_xyz(x, y, 0.0, lam)
        if t is None:
            return False, math.inf
        nxt = waypoints[j + 1]
        gap = math.hypot(t[0] - nxt[0], t[1] - nxt[1])
        worst = max(worst, gap)
        if gap > 1e-8:
            return False, worst
    return True, worst


# ---------------------------------------------------------------------------
# periodic points

class ContractionFailure(RuntimeError):
    """The composed branch map failed to contract; the cycle poles sit too
    close to the origin region for this parameter."""


@dataclass
class PeriodicCycleSpec:
    cycle: list  # nonempty list of PoleIndex

    def __post_init__(self):
        if len(self.cycle) == 0:
            raise ValueError("cycle must be nonempty")
        self.cycle = [PoleIndex(*c) for c in self.cycle]


@dataclass
class PeriodicPoint:
    point: np.ndarray
    period: int
    residual: float          # |F^k(y) - y|
    orbit: list              # the k cycle points


def periodic_point_from_cycle(spec: PeriodicCycleSpec, lam: float) -> PeriodicPoint:
    """Fixed point of the composed inverse branch along a pole cycle.

    The composition maps the first diamond into itself and contracts on
    far cycles, so plain iteration from the pole centre converges; the
    iteration aborts loudly if the step ratio fails to contract five
    times in a row.  The returned point is verified forward: F^k walks
    the prescribed diamonds and returns to the point within the quoted
    residual.  A Newton polish (on the true forward map, with a chained
    closed-form Jacobian) trims the last digits of the residual.
    """
    cycle = spec.cycle
    r = required_tail_radius(lam)
    for idx in cycle:
        norm = math.hypot(*_pole_xy(*idx))
        if norm <= r:
            raise ValueError(
                f"cycle pole {tuple(idx)} has norm {norm:.3f} <= calibrated radius {r:.3f}")
    return _solve_cycle(cycle, lam, 300)


def _solve_cycle(cycle, lam, max_iter):
    """Iterate the composed branch from the first pole, abort if the steps
    stop contracting, polish, and verify one period forward."""
    y = pole_location(cycle[0])
    prev_step = 0.0
    noncontract = 0
    for _ in range(max_iter):
        y_next = y
        for idx in reversed(cycle):
            y_next = inverse_branch(idx, y_next, lam)
        step = vec_norm(y_next - y)
        y = y_next
        noncontract = noncontract + 1 if 0.0 < prev_step <= step else 0
        if noncontract >= 5:
            raise ContractionFailure("composed branch map is not contracting on this cycle")
        prev_step = step
        if step < 1e-13:
            break
    y, orbit = _newton_polish(y, cycle, lam)
    if orbit is None or any(containing_diamond(p) != idx for p, idx in zip(orbit, cycle)):
        raise ContractionFailure("forward orbit left the prescribed diamonds")
    return PeriodicPoint(point=y, period=len(cycle), residual=vec_norm(orbit[0] - orbit[-1]),
                         orbit=orbit[:-1])


def _newton_polish(y, cycle, lam):
    """Up to six Newton steps on g(y) = F^k(y) - y, keeping only residual
    improvements; returns (point, orbit).

    ``orbit`` is the forward orbit [y, F y, ..., F^k y] of the returned
    point, or None when it hits a pole.  The Jacobian of F^k is the
    chain-rule product of the closed-form one-step Jacobians at the orbit
    points; each point's forward orbit is run once, on floats.
    """
    def forward(p):
        x, y = float(p[0]), float(p[1])
        _require_finite(x, y)
        pts = [(x, y)]
        for _ in cycle:
            t = _tangent3_xyz(x, y, 0.0, lam)
            if t is None:
                return None
            x, y = t[0], t[1]
            pts.append((x, y))
        return pts

    best = cand = np.array(y)
    best_pts, best_r = None, math.inf
    for _ in range(7):  # the start, then up to six Newton candidates
        pts = forward(cand)
        if pts is None:
            break
        g = np.subtract(pts[-1], pts[0])
        r = vec_norm(g)
        if not r < best_r:
            break
        best, best_r, best_pts = cand, r, pts
        jac = np.eye(2)
        try:
            for p in pts[:-1]:
                jac = _plane_jacobian(p, lam) @ jac
            delta = np.linalg.solve(jac - np.eye(2), -g)
        except (ZeroDivisionError, np.linalg.LinAlgError):
            break  # an orbit point at a tile centre, or a singular step
        cand = best + delta
        if np.array_equal(cand, best):
            break  # the step is below the resolution of best
    return best, best_pts and [np.array(p) for p in best_pts]


def periodic_near_escaping(v, eta: float, lam: float) -> PeriodicPoint:
    """A periodic point within eta of the escaping plane point v.

    Reads off 40 symbols of v's itinerary and closes its first ``period``
    symbols into a cycle; the composed-branch fixed point then traces the
    same diamonds as v for a whole period and so lands beside it.  The
    symbols from the first two consecutive ones beyond the calibrated
    radius up to the last must all clear that radius.  The period grows
    from two symbols past that start until the verified gap beats eta:
    the shortest admissible period also has the smallest
    forward-iteration noise, and smaller eta thereby needs and reports a
    larger period.
    """
    if eta <= 0.0:
        raise ValueError("need eta > 0")
    target = np.array([float(v[0]), float(v[1])])
    symbols, reason = itinerary_of(v, lam, 40)
    if len(symbols) < 3:
        raise ValueError(f"itinerary too short ({reason}); not an escaping candidate")
    r = required_tail_radius(lam)
    norms = [math.hypot(*_pole_xy(*s)) for s in symbols]
    last_err = "no admissible symbol block"
    start = next((j for j in range(len(symbols) - 2) if min(norms[j], norms[j + 1]) > r),
                 len(symbols))
    period = start + 2
    while period <= len(symbols) and norms[period - 1] > r:
        try:
            # no radius gate: the shadowed prefix legitimately visits near poles
            result = _solve_cycle(symbols[:period], lam, 400)
        except ContractionFailure as e:
            last_err = str(e)
        else:
            gap = vec_norm(result.point - target)
            if gap < eta:
                return result
            last_err = f"gap {gap:.3e} >= eta with period {period}"
        period += 1
    raise ValueError(f"could not reach eta={eta}: {last_err}")

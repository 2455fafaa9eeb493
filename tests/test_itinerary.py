"""Tests for the symbolic-dynamics layer: itineraries, nested-branch
construction, and periodic points."""

import hashlib
import math

import numpy as np
import pytest

import scalar_reference as ref
from qrtan import core, itinerary, plane
from qrtan.core import HALF_PI, is_infinity
from qrtan.itinerary import (
    Itinerary,
    PeriodicCycleSpec,
    StopReason,
    _solve_cycle,
    itinerary_of,
    periodic_near_escaping,
    periodic_point_from_cycle,
    point_from_itinerary,
    shadow_check,
)
from qrtan.plane import (
    PoleIndex,
    containing_diamond,
    plane_map,
    pole_location,
    required_tail_radius,
)

LAM = 2.0

# the eight valid poles of smallest norm at lam = 2 (all at ~3.51); cycling
# through them keeps forward iteration numerically honest for many symbols
LOW_POLES = [(1, 1), (-1, -1), (2, 0), (0, -2), (0, 1), (-1, 0), (2, -1), (1, -2)]


def growing_itinerary(offset=3):
    return Itinerary(prefix=[], tail=lambda j: (0, j + offset))


def mixed_itinerary(head_len=16, rot=0):
    head = [LOW_POLES[(rot + j) % len(LOW_POLES)] for j in range(head_len)]

    def tail(j):
        if j < len(head):
            return head[j]
        return (0, j - len(head) + 19)  # norms resume growing past the head

    return Itinerary(prefix=[], tail=tail)


# pole-index steps along which pole norms grow without bound
TAIL_DIRECTIONS = [(0, 1), (1, 1), (1, -1), (-1, -1), (-1, 0)]


def seeded_symbolic(lam, seed, n_itineraries=3, n_cycles=3):
    """Seeded itineraries and cycles over the poles of norm in (r, r + 2 pi],
    r the calibrated tail radius: six such poles then a straight outward
    tail, and period-1..4 cycles of them."""
    rng = np.random.default_rng(seed)
    r = required_tail_radius(lam)
    reach = int((r + 2.0 * math.pi) / HALF_PI) + 2
    pool = [(m, n) for m in range(-reach, reach + 1) for n in range(-reach, reach + 1)
            if r < float(np.linalg.norm(pole_location((m, n)))) <= r + 2.0 * math.pi]
    itineraries = []
    for _ in range(n_itineraries):
        prefix = [pool[i] for i in rng.integers(0, len(pool), 6)]
        dm, dn = TAIL_DIRECTIONS[int(rng.integers(len(TAIL_DIRECTIONS)))]
        # pole k * (dm, dn) has norm above k pi / 2, which clears r from k0 on
        k0 = int(r / HALF_PI) + int(rng.integers(0, 4))
        itineraries.append(Itinerary(prefix=prefix,
                                     tail=lambda j, dm=dm, dn=dn, k0=k0: ((j + k0) * dm,
                                                                          (j + k0) * dn)))
    cycles = [[PoleIndex(*pool[i]) for i in rng.integers(0, len(pool), int(rng.integers(1, 5)))]
              for _ in range(n_cycles)]
    return itineraries, cycles


def _hex(p):
    return " ".join(float(c).hex() for c in p)


def symbolic_record(lam, seed):
    """Every output of the seeded constructions as text, floats in hex:
    each itinerary point with its waypoints, shadow verdict and read-back,
    and each cycle's point, residual and orbit."""
    itineraries, cycles = seeded_symbolic(lam, seed)
    lines = []
    for itin in itineraries:
        x, wps = point_from_itinerary(itin, lam, n_compose=26, return_waypoints=True)
        ok, _ = shadow_check(wps, itin, lam, 20)
        symbols, reason = itinerary_of(x, lam, 20)
        lines += [_hex(x), *map(_hex, wps), str(ok), repr(symbols), reason]
    for cycle in cycles:
        res = periodic_point_from_cycle(PeriodicCycleSpec(cycle=cycle), lam)
        lines += [_hex(res.point), float(res.residual).hex(), *map(_hex, res.orbit)]
    return "\n".join(lines)


# SHA-256 of symbolic_record at lam 1 and 2, seed 0, as the symbolic layer
# produces it on the closed-form inverse branches; any change to the layer
# must keep these bytes.  Moving the branches off the Mobius/chart route
# changed 46 of the 210 lines, each float by at most 1 ulp of max(|v|, pi/2),
# and one read-back (``itinerary_of``) from its 14th symbol on, where forward
# iteration from a point 1 ulp away has lost every digit
SYMBOLIC_SHA256 = "0b1628030bb315e29f42b977409ea7b8bb7032823f73e6d5d32c0e5adea3a29f"


class TestItineraryOf:
    def test_point_on_diagonal_grid_stops(self):
        symbols, reason = itinerary_of((1.0, 1.0), LAM, 10)
        assert symbols == [] and reason == StopReason.LEFT_DIAMONDS

    def test_pole_emits_own_index_then_stops(self):
        symbols, reason = itinerary_of(pole_location((1, 1)), LAM, 10)
        assert symbols == [PoleIndex(1, 1)] and reason == StopReason.POLE_HIT

    def test_requested_length(self):
        symbols, reason = itinerary_of((0.2, 1.4), LAM, 5)
        assert reason in (StopReason.COMPLETE, StopReason.LEFT_DIAMONDS,
                          StopReason.POLE_HIT)
        assert len(symbols) <= 5


class TestPointFromItinerary:
    def test_forward_shadow_twenty_symbols(self):
        itin = growing_itinerary()
        x, wps = point_from_itinerary(itin, LAM, n_compose=26,
                                      return_waypoints=True)
        ok, worst = shadow_check(wps, itin, LAM, depth=20)
        assert ok
        assert worst < 1e-8

    def test_cauchy_increments(self):
        itin = growing_itinerary()
        pts = {n: point_from_itinerary(itin, LAM, n_compose=n)
               for n in range(6, 26)}
        prev = None
        for n in range(6, 25):
            inc = float(np.linalg.norm(pts[n + 1] - pts[n]))
            assert inc < 2.0 ** (1 - n) * math.pi
            if prev is not None and prev > 1e-14:
                assert inc / prev <= 0.6
            prev = inc

    @pytest.mark.parametrize("lam,settled", [(0.9, 8), (1.0, 8), (2.0, 10)])
    def test_truncations_settle_well_before_the_default(self, lam, settled):
        # point_from_itinerary's docstring: on the seeded itineraries every
        # truncation from `settled` compositions on is the default's point
        for seed in range(10):
            for itin in seeded_symbolic(lam, seed)[0]:
                assert (point_from_itinerary(itin, lam, n_compose=settled).tobytes()
                        == point_from_itinerary(itin, lam).tobytes())

    @pytest.mark.parametrize("lam", [0.9, 1.0, 2.0])
    @pytest.mark.parametrize("base", [2, 3, 10])
    def test_fast_tails_settle_at_the_default_depth(self, lam, base):
        # tails (0, base^j + 8) put the last symbols of the default depth at
        # pole norms up to about 1e30; every branch there is checked in the
        # tile frame, so the default's point is the 8-fold truncation's
        itin = Itinerary(prefix=[], tail=lambda j: (0, base ** j + 8))
        assert (point_from_itinerary(itin, lam).tobytes()
                == point_from_itinerary(itin, lam, n_compose=8).tobytes())

    def test_partial_constructions_are_preimages_of_infinity(self):
        # the j-fold truncation sends the j-th symbol's pole to itself, so one
        # more step lands at infinity; the limit point stays within the
        # shrinking-diameter budget of each truncation.  The orbit is verified
        # waypoint by waypoint (one forward step each), which keeps the
        # certificate meaningful at depths where a single long forward run
        # has no digits left.
        itin = growing_itinerary()
        x = point_from_itinerary(itin, LAM, n_compose=26)
        for j in range(4, 12):
            xj, wps = point_from_itinerary(itin, LAM, n_compose=j,
                                           return_waypoints=True)
            for i in range(j):
                step = plane_map(wps[i], LAM)
                assert not is_infinity(step)
                assert np.linalg.norm(step - wps[i + 1]) < 1e-9
            assert np.array_equal(wps[j], pole_location(itin.symbol(j)))
            assert is_infinity(plane_map(wps[j], LAM))
            assert np.linalg.norm(x - xj) < 2.0 ** (1 - j) * math.pi

    def test_distinct_tails_distinct_points(self):
        # differing from index 5 onward forces separated points whose forward
        # orbits land in disjoint diamonds at that index
        base = mixed_itinerary()
        assert base.symbol(5) != PoleIndex(*LOW_POLES[0])
        other = Itinerary(prefix=base.symbols(5) + [LOW_POLES[0]],
                          tail=lambda j: LOW_POLES[j % len(LOW_POLES)]
                          if j < 16 else (0, j + 3))
        a = point_from_itinerary(base, LAM, n_compose=24)
        b = point_from_itinerary(other, LAM, n_compose=24)
        assert np.linalg.norm(a - b) > 1e-12
        pa, pb = np.array(a), np.array(b)
        for _ in range(5):
            pa = plane_map(pa, LAM)
            pb = plane_map(pb, LAM)
        assert containing_diamond(pa) == base.symbol(5)
        assert containing_diamond(pb) == PoleIndex(*LOW_POLES[0])

    def test_symbol_readback(self):
        for rot in range(4):
            itin = mixed_itinerary(rot=rot)
            x = point_from_itinerary(itin, LAM, n_compose=28)
            got, reason = itinerary_of(x, LAM, 15)
            assert got == itin.symbols(15)

    def test_tail_radius_enforced(self):
        bad = Itinerary(prefix=[], tail=lambda j: (0, 0))  # norm pi/2 forever
        with pytest.raises(ValueError):
            point_from_itinerary(bad, LAM, n_compose=10)

    def test_tail_rule_required(self):
        with pytest.raises(ValueError):
            point_from_itinerary(Itinerary(prefix=[(0, 5)]), LAM, n_compose=10)


class TestPeriodicCycles:
    def test_single_far_pole(self):
        res = periodic_point_from_cycle(PeriodicCycleSpec(cycle=[(6, 6)]), LAM)
        assert res.period == 1
        assert res.residual < 1e-9
        assert containing_diamond(res.point) == PoleIndex(6, 6)

    def test_three_cycle_visits_in_order(self):
        cyc = [(1, 1), (-1, -1), (0, 1)]
        res = periodic_point_from_cycle(PeriodicCycleSpec(cycle=cyc), LAM)
        assert res.residual < 1e-9
        for want, got in zip(cyc, res.orbit):
            assert containing_diamond(got) == PoleIndex(*want)

    def test_seven_cycle(self):
        cyc = [LOW_POLES[j] for j in range(7)]
        res = periodic_point_from_cycle(PeriodicCycleSpec(cycle=cyc), LAM)
        assert res.residual < 1e-9

    def test_fixed_point_of_plane_map(self):
        res = periodic_point_from_cycle(PeriodicCycleSpec(cycle=[(1, 1)]), LAM)
        img = plane_map(res.point, LAM)
        assert np.linalg.norm(img - res.point) < 1e-9

    def test_near_pole_cycle_rejected(self):
        with pytest.raises(ValueError):
            periodic_point_from_cycle(PeriodicCycleSpec(cycle=[(0, 0)]), LAM)

    def test_empty_cycle_rejected(self):
        with pytest.raises(ValueError):
            PeriodicCycleSpec(cycle=[])

    def test_newton_polish_runs_each_forward_orbit_once(self, monkeypatch):
        # every orbit point the polish evaluates serves both a residual and
        # the next Jacobian, so no point is pushed forward twice
        seen = []

        def recording(x, y, z, lam):
            seen.append((x, y, z))
            return core._tangent3_xyz(x, y, z, lam)

        cycle = [PoleIndex(*c) for c in ((1, 1), (-1, -1), (0, 1))]
        y = pole_location(cycle[0])
        for _ in range(5):
            for idx in reversed(cycle):
                y = plane.inverse_branch(idx, y, LAM)
        monkeypatch.setattr(itinerary, "_tangent3_xyz", recording)
        itinerary._newton_polish(y, cycle, LAM)
        assert len(seen) >= 2 * len(cycle)  # the start and one Newton candidate
        assert len(set(seen)) == len(seen)

    def test_noncontracting_cycle_fails_loudly(self):
        # at lam=1 the admissible poles are far out; a cycle through a pole
        # that is too close violates the gate before any iteration runs
        with pytest.raises(ValueError):
            periodic_point_from_cycle(PeriodicCycleSpec(cycle=[(1, 1)]), 1.0)

    @pytest.mark.parametrize("cycle,lam", [([(1, -1)], 1.5), ([(0, 0)], 1.1107),
                                           ([(1, 0)], 3.0)])
    def test_orbit_at_a_tile_centre_ends_the_polish(self, cycle, lam):
        # the composed branch lands exactly on a folded tile centre, where DF
        # is undefined; the polish stops as at a singular step
        cycle = [PoleIndex(*c) for c in cycle]
        try:
            res = _solve_cycle(cycle, lam, 400)
        except itinerary.ContractionFailure:
            return
        assert [containing_diamond(p) for p in res.orbit] == cycle


class TestPeriodicNearEscaping:
    def test_shadows_constructed_point(self):
        itin = mixed_itinerary()
        v = point_from_itinerary(itin, LAM, n_compose=30)
        res = periodic_near_escaping(v, 1e-3, LAM)
        assert np.linalg.norm(res.point - v) < 1e-3
        assert res.residual < 1e-9

    def test_smaller_eta_needs_longer_period(self):
        itin = mixed_itinerary()
        v = point_from_itinerary(itin, LAM, n_compose=30)
        loose = periodic_near_escaping(v, 1e-2, LAM)
        tight = periodic_near_escaping(v, 1e-6, LAM)
        assert tight.period > loose.period
        assert np.linalg.norm(tight.point - v) < 1e-6

    def test_period_residual_contract(self):
        itin = mixed_itinerary(rot=3)
        v = point_from_itinerary(itin, LAM, n_compose=30)
        res = periodic_near_escaping(v, 1e-3, LAM)
        p = np.array(res.point)
        for _ in range(res.period):
            p = plane_map(p, LAM)
        assert np.linalg.norm(p - res.point) < 1e-9

    def test_rejects_non_escaping_start(self):
        with pytest.raises(ValueError):
            periodic_near_escaping(np.array([1.0, 1.0]), 1e-3, LAM)

    @pytest.mark.parametrize("eta", [0.0, math.nan, -1e-3, -math.inf])
    def test_rejects_bad_eta(self, monkeypatch, eta):
        # before any work: a NaN eta is not <= 0 either, and once ran
        # every period before failing
        def untouched(*args):
            raise AssertionError("itinerary read for a bad eta")

        monkeypatch.setattr(itinerary, "itinerary_of", untouched)
        with pytest.raises(ValueError, match=rf"^need eta > 0, got {eta}$"):
            periodic_near_escaping(np.array([0.2, 1.4]), eta, LAM)


class TestErrorMessages:
    """Errors of the symbolic layer name the poles, lam and the numbers
    that failed."""

    def test_tail_below_the_radius_names_pole_and_lam(self):
        bad = Itinerary(prefix=[], tail=lambda j: (0, 0))
        r = required_tail_radius(LAM)
        with pytest.raises(ValueError, match=rf"^tail pole 0 \(0, 0\) has norm 1\.571 <= "
                                             rf"calibrated radius {r:.3f} at lam=2\.0$"):
            point_from_itinerary(bad, LAM, n_compose=10)

    def test_shrinking_tail_names_both_norms(self):
        bad = Itinerary(prefix=[], tail=lambda j: (0, 9 - j))
        with pytest.raises(ValueError, match=r"^tail pole norms must be nondecreasing: "
                                             r"pole 1 \(0, 8\) has norm 18\.915 < 21\.133$"):
            point_from_itinerary(bad, LAM, n_compose=5)

    def test_cycle_below_the_radius_names_lam(self):
        with pytest.raises(ValueError, match=r"^cycle pole \(0, 0\) has norm 1\.571 <= "
                                             r"calibrated radius .* at lam=2\.0$"):
            periodic_point_from_cycle(PeriodicCycleSpec(cycle=[(0, 0)]), LAM)

    def test_noncontraction_names_cycle_lam_and_steps(self, monkeypatch):
        # a branch that doubles distances, so each step, through two poles,
        # is four times the last
        monkeypatch.setattr(itinerary, "inverse_branch", lambda idx, w, lam: 2.0 * w + 1.0)
        with pytest.raises(itinerary.ContractionFailure,
                           match=r"^cycle \[\(1, 1\), \(0, 1\)\] at lam=2\.0: composed branch "
                                 r"map is not contracting: the fifth step in a row that did not "
                                 r"shrink went from 3\.744e\+03 to 1\.497e\+04$"):
            _solve_cycle([PoleIndex(1, 1), PoleIndex(0, 1)], LAM, 400)

    def test_orbit_off_its_diamond_names_the_point(self):
        # the fixed point of the pole (0, 0)'s branch at lam 2 is the origin,
        # on the diagonal grid
        with pytest.raises(itinerary.ContractionFailure,
                           match=r"^cycle \[\(0, 0\)\] at lam=2\.0: the fixed point's orbit "
                                 r"leaves diamond \(0, 0\): point 0 \(0, 0\) lies on the "
                                 r"diagonal grid$"):
            _solve_cycle([PoleIndex(0, 0)], LAM, 400)

    def test_orbit_into_a_pole_says_so(self, monkeypatch):
        monkeypatch.setattr(itinerary, "_newton_polish", lambda y, cycle, lam: (y, None))
        with pytest.raises(itinerary.ContractionFailure,
                           match=r"^cycle \[\(6, 6\)\] at lam=2\.0: the fixed point's orbit "
                                 r"hits a pole within one period$"):
            _solve_cycle([PoleIndex(6, 6)], LAM, 400)

    def test_unreached_eta_names_lam_and_the_last_failure(self, monkeypatch):
        def failing(cycle, lam, max_iter):
            raise itinerary._cycle_failure(cycle, lam, "composed branch map is not contracting")

        monkeypatch.setattr(itinerary, "_solve_cycle", failing)
        v = point_from_itinerary(mixed_itinerary(), LAM, n_compose=30)
        with pytest.raises(ValueError, match=r"^could not reach eta=0\.001 at lam=2\.0: cycle "
                                             r"\[.*\] at lam=2\.0: composed branch map is not "
                                             r"contracting$"):
            periodic_near_escaping(v, 1e-3, LAM)


class TestSymbolicInputChecks:
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan])
    def test_itinerary_of_rejects_bad_lambda(self, lam):
        with pytest.raises(ValueError) as want:
            plane.calibrate_expansion(lam)
        with pytest.raises(ValueError) as got:
            itinerary_of((0.2, 1.4), lam, 5)
        assert str(got.value) == str(want.value)
        assert str(lam) in str(got.value) and "\n" not in str(got.value)

    def test_itinerary_of_rejects_negative_length(self):
        with pytest.raises(ValueError, match=r"^n_terms must be nonnegative, got -1$"):
            itinerary_of((0.2, 1.4), LAM, -1)

    def test_point_from_itinerary_rejects_negative_compositions(self):
        with pytest.raises(ValueError, match=r"^n_compose must be nonnegative, got -1$"):
            point_from_itinerary(growing_itinerary(), LAM, n_compose=-1)

    @pytest.mark.parametrize("depth", [-1, 27, 40])
    def test_shadow_check_rejects_depth_outside_the_waypoints(self, depth):
        itin = growing_itinerary()
        _, wps = point_from_itinerary(itin, LAM, n_compose=26, return_waypoints=True)
        with pytest.raises(ValueError, match=rf"^depth must be in \[0, 26\], got {depth}$"):
            shadow_check(wps, itin, LAM, depth)


class TestFloatPathMatchesPlaneMap:
    """The forward steps on the float core reproduce the plane_map versions
    they replaced (``scalar_reference``) bit for bit; a shadow gap, a norm
    taken by hypot instead of numpy's dot, may move by one ulp."""

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_shadow_check(self, lam):
        itineraries, _ = seeded_symbolic(lam, 1, n_itineraries=6, n_cycles=0)
        for itin, other in zip(itineraries, itineraries[1:] + itineraries[:1]):
            _, wps = point_from_itinerary(itin, lam, n_compose=26, return_waypoints=True)
            nudged = list(wps)
            nudged[3] = wps[3] + 1e-6  # one step misses by ~1e-6
            # the last depth ends at the pole of symbol 26
            for w, it, depth in [*((wps, itin, d) for d in (0, 1, 5, 20, 26)),
                                 (nudged, itin, 20), (wps, other, 20)]:
                ok, gap = shadow_check(w, it, lam, depth)
                want_ok, want_gap = ref.shadow_check(w, it, lam, depth)
                assert ok == want_ok
                assert gap == want_gap or abs(gap - want_gap) <= math.ulp(want_gap)

    @pytest.mark.parametrize("lam", [1.0, 2.0])
    def test_itinerary_of(self, lam):
        itineraries, _ = seeded_symbolic(lam, 2, n_itineraries=6, n_cycles=0)
        starts = [point_from_itinerary(itin, lam, n_compose=28) for itin in itineraries]
        starts += [*np.random.default_rng(3).uniform(-10.0, 10.0, (200, 2)),
                   pole_location((1, 1)), (1.0, 1.0), (0.0, 0.0)]
        for p in starts:
            for n in (0, 1, 25):
                assert itinerary_of(p, lam, n) == ref.itinerary_of(p, lam, n)

    @pytest.mark.parametrize("cycle,lam", [
        *((c, lam) for lam in (1.0, 2.0) for c in seeded_symbolic(lam, 4, 0, 8)[1]),
        (LOW_POLES[:7], 2.0), ([(1, -1)], 1.5), ([(0, 0)], 1.1107), ([(1, 0)], 3.0)])
    def test_newton_polish(self, cycle, lam):
        cycle = [PoleIndex(*c) for c in cycle]
        y = pole_location(cycle[0])
        for sweeps in range(40):
            if sweeps in (1, 3, 39):  # a rough start, a closer one, a converged one
                point, orbit = itinerary._newton_polish(y, cycle, lam)
                want_point, want_orbit = ref.newton_polish(y, cycle, lam)
                assert point.tobytes() == want_point.tobytes()
                assert (orbit is None) == (want_orbit is None)
                assert [p.tobytes() for p in orbit or []] == [
                    p.tobytes() for p in want_orbit or []]
            for idx in reversed(cycle):
                y = plane.inverse_branch(idx, y, lam)


class TestPinnedOutputs:
    def test_symbolic_outputs_keep_their_bytes(self):
        text = "\n".join(symbolic_record(lam, 0) for lam in (1.0, 2.0))
        assert hashlib.sha256(text.encode()).hexdigest() == SYMBOLIC_SHA256


class TestTailRadiusRegimes:
    def test_radius_values(self):
        assert required_tail_radius(2.0) < 2.0
        assert required_tail_radius(1.0) > 6.0

    def test_low_pole_cycle_valid_only_above_sqrt2(self):
        spec = PeriodicCycleSpec(cycle=[(1, 1), (-1, -1), (0, 1)])
        res = periodic_point_from_cycle(spec, 2.0)
        assert res.residual < 1e-9
        with pytest.raises(ValueError):
            periodic_point_from_cycle(spec, 1.2)


class TestBranchEngineLookup:
    """The symbolic layer reaches ``inverse_branch`` through its module's
    global name, the place a tracer or a patch swaps it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []
        engine = plane.inverse_branch

        def counting(q, w, lam, *args):
            log.append(PoleIndex(*q))
            return engine(q, w, lam, *args)

        monkeypatch.setattr(itinerary, "inverse_branch", counting)
        return log

    def test_point_from_itinerary_makes_one_call_per_composition(self, calls):
        itin = growing_itinerary()
        point_from_itinerary(itin, LAM, n_compose=12)
        assert calls == itin.symbols(12)[::-1]

    def test_solve_cycle_walks_the_cycle_backwards(self, calls):
        cycle = [PoleIndex(0, 4), PoleIndex(3, 1), PoleIndex(-2, 3)]
        _solve_cycle(cycle, LAM, 300)
        assert calls and calls == cycle[::-1] * (len(calls) // len(cycle))

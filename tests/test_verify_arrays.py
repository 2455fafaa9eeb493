"""The array-evaluated checks against their scalar references.

``scalar_reference`` keeps the one-point-at-a-time bodies the checks,
samplers, orbit classifier and bisections had before they moved onto
``tangent3_grid`` and the float core.  The verify suite shares one
random generator across its checks, so each check must reach the same
verdict *and* leave the generator in the same state.
"""

import math
import sys
import warnings

import numpy as np
import pytest

import scalar_reference as ref
from qrtan import analysis, core, plane, verify
from qrtan.core import _tangent3_composed_grid, chordal, is_infinity, tangent3_composed
from qrtan.itinerary import Itinerary, point_from_itinerary
from qrtan.plane import inverse_branch, pole_location

LAMS = (0.9, 1.0, 2.0)
SEEDS = (0, 5, 9706)

PORTED = [
    (verify.check_tangent_embedding, ref.check_tangent_embedding),
    (verify.check_periodicity, ref.check_periodicity),
    (verify.check_reflection_equivariance, ref.check_reflection_equivariance),
    (verify.check_omitted_values, ref.check_omitted_values),
    (verify.check_half_space_invariance, ref.check_half_space_invariance),
    (verify.check_composed_consistency, ref.check_composed_consistency),
    (verify.check_axis_action, ref.check_axis_action),
    (verify.check_basin_classification, ref.check_basin_classification),
    (verify.check_derivative_lower_bound, ref.check_derivative_lower_bound),
    (verify.check_diagonal_invariance, ref.check_diagonal_invariance),
    (verify.check_branch_roundtrip, ref.check_branch_roundtrip),
    (verify.check_branch_contraction, ref.check_branch_contraction),
    (verify.check_pole_expansion, ref.check_pole_expansion),
    (verify.check_eigen_crosscheck, ref.check_eigen_crosscheck),
    (verify.check_petal_boundary_fixed, ref.check_petal_boundary_fixed),
]

# checks that draw nothing, still loop point by point, or draw one seed for
# an analysis sampler compared below (petal-absorbed classifies its samples
# one by one, and its block draws are compared below too); a check moved
# onto arrays belongs in PORTED
SCALAR_LOOP = {
    verify.check_axis_fixed_point,
    verify.check_calibration, verify.check_offaxis_monotonicity,
    verify.check_third_component_bound, verify.check_parabolic_bound,
    verify.check_petal_membership,
    verify.check_petal_absorbed, verify.check_lines_absorbed, verify.check_blowup,
    verify.check_itinerary_shadow, verify.check_itinerary_cauchy,
    verify.check_itinerary_roundtrip, verify.check_periodic_cycles,
    verify.check_periodic_near_escaping,
}

# details made of counts, which rounding cannot move, or printed to a
# precision the last-bit differences of the grid kernel do not reach here
EXACT_DETAIL = {"half-space-invariance", "basin-classification",
                "derivative-lower-bound", "diagonal-invariance", "branch-contraction",
                "pole-expansion"}


@pytest.mark.parametrize("lam", LAMS)
@pytest.mark.parametrize("check,reference", PORTED, ids=lambda c: getattr(c, "__name__", ""))
def test_check_matches_scalar_reference(check, reference, lam):
    kw = verify._FAST_KW.get(check, {})
    for seed in SEEDS:
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        # start mid-stream, as a check does inside the suite
        rng.uniform(size=seed % 7)
        rng_ref.uniform(size=seed % 7)
        if check is verify.check_petal_boundary_fixed and not verify._applies(check, lam):
            # outside 0 < lam < sqrt(2) both refuse alike
            for c, r in ((check, rng), (reference, rng_ref)):
                with pytest.raises(ValueError, match="need 0 < lam < sqrt"):
                    c(lam, r, **kw)
            continue
        got = check(lam, rng, **kw)
        want = reference(lam, rng_ref, **kw)
        assert (got.name, got.passed) == (want.name, want.passed)
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        if got.name in EXACT_DETAIL:
            assert got.detail == want.detail


@pytest.mark.parametrize("lam", (0.7, 0.8, 0.9, 1.0, 1.2, 1.39, 1.41))
def test_petal_boundary_residual_matches_scalar_reference(lam):
    # the same boundary points, evaluated in one grid pass
    worst, count = analysis.petal_boundary_residual(lam)
    want_worst, want_count = ref.petal_boundary_residual(lam)
    assert count == want_count
    assert abs(worst - want_worst) <= 1e-15
    assert (count == 0) == (lam <= math.pi / 4)


def test_petal_boundary_residual_makes_one_grid_call(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return core.tangent3_grid(*args)

    monkeypatch.setattr(analysis, "tangent3_grid", counting)
    assert analysis.petal_boundary_residual(1.2)[1] == 800
    assert calls == [800]


def test_suite_makes_no_scalar_jacobian_or_composed_calls(monkeypatch):
    # every binding of the two scalar routes in a loaded qrtan module counts,
    # so a check that imports either one again is caught too
    calls = []
    for fn in (plane.jacobian_plane_map, core.tangent3_composed):
        def counting(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qrtan" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting)
    plane.jacobian_plane_map((0.5, 0.2), 1.0)
    core.tangent3_composed((0.5, 0.2, 0.1), 1.0)
    assert calls == ["jacobian_plane_map", "tangent3_composed"]
    calls.clear()
    for lam in LAMS:
        assert all(r.passed for r in verify.run_suite(lam, "all", fast=True))
    assert calls == []


def test_unfolded_route_matches_scalar_reference():
    # points on both tile parities of T (tiles pi/2 wide), across the e^{2z} range
    rng = np.random.default_rng(24)
    pts = rng.uniform(-6.0, 6.0, (4000, 3))
    pts[:1000, 2] = 0.0
    pts[1000:2000, 2] = rng.uniform(-350.0, 354.0, 1000)
    tiles = np.floor(pts[:, :2] / (math.pi / 2) + 0.5).astype(int)
    assert 0.3 < ((tiles[:, 0] + tiles[:, 1]) % 2).mean() < 0.7
    lam = 1.3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.column_stack(_tangent3_composed_grid(*pts.T, lam))
    worst = 0.0
    for v, g in zip(pts, got):
        # the scalar cayley squares huge points with numpy's overflow warning
        with np.errstate(over="ignore"):
            want = ref.tangent3_composed(v, lam)
        assert tangent3_composed(v, lam).tobytes() == g.tobytes()
        worst = max(worst, chordal(g, want))
    assert worst < 1e-14


def test_unfolded_route_at_and_next_to_poles():
    # poles are infinite coordinates on arrays and INFINITY at one point, as
    # in the scalar route; next to a pole the images agree chordally
    rng = np.random.default_rng(5)
    poles = np.array([plane.pole_location((m, n)) for m in range(-4, 5) for n in range(-4, 5)])
    zero = np.zeros(len(poles))
    tx, ty, tz = _tangent3_composed_grid(poles[:, 0], poles[:, 1], zero, 2.0)
    assert np.isinf(tx).all() and np.isinf(ty).all() and np.isinf(tz).all()
    for x, y in poles:
        assert is_infinity(tangent3_composed((x, y, 0.0), 2.0))
        assert is_infinity(ref.tangent3_composed((x, y, 0.0), 2.0))
    ang = rng.uniform(0.0, 2.0 * math.pi, len(poles))
    eps = 10.0 ** rng.uniform(-12.0, -3.0, len(poles))
    near = np.column_stack([poles[:, 0] + eps * np.cos(ang), poles[:, 1] + eps * np.sin(ang),
                            eps * rng.uniform(-1.0, 1.0, len(poles))])
    got = np.column_stack(_tangent3_composed_grid(*near.T, 2.0))
    assert np.isfinite(got).all()
    worst = max(chordal(g, ref.tangent3_composed(v, 2.0)) for v, g in zip(near, got))
    assert worst < 1e-14


def test_unfolded_route_overflows_without_a_warning():
    z = np.array([0.0, 1.0, 355.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="e\\^z overflows"):
            _tangent3_composed_grid(np.zeros(3), np.zeros(3), z, 1.0)
        with pytest.raises(OverflowError):
            tangent3_composed((0.0, 0.0, 400.0))
        # e^{2z} underflowing to 0 is the omitted value's limit, not an error
        tx, ty, tz = _tangent3_composed_grid(np.zeros(2), np.ones(2), np.array([-400.0, -1e5]),
                                             1.5)
        assert np.array_equal(np.column_stack([tx, ty, tz]), [[0.0, 0.0, -1.5]] * 2)
    with pytest.raises(OverflowError):
        ref.tangent3_composed((0.0, 0.0, 400.0))


def test_every_check_is_ported_or_named_scalar():
    # so no array port can skip the generator-state gate above
    ported = {check for check, _ in PORTED}
    assert not ported & SCALAR_LOOP
    assert ported | SCALAR_LOOP == set(verify.SUITES["all"])
    assert len(verify.SUITES["all"]) == len(ported) + len(SCALAR_LOOP)


@pytest.mark.parametrize("lam", LAMS)
def test_analysis_samplers_match_scalar_reference(lam):
    for seed in (1, 3, 304):
        assert analysis.offaxis_monotonicity_violations(lam, 2000, seed) == \
            ref.offaxis_monotonicity_violations(lam, 2000, seed)
        assert analysis.third_component_bound_violations(lam, 2000, seed) == \
            ref.third_component_bound_violations(lam, 2000, seed)
    # the cusp inequality fails for large eps; both must agree either way
    for eps, seed in ((0.05, 2), (0.05, 304), (2.0, 1)):
        assert analysis.parabolic_decrease_check(eps, 2000, seed) == \
            ref.parabolic_decrease_check(eps, 2000, seed)


@pytest.mark.parametrize("lam", (0.5, 0.9, 1.2, 1.39, 1.40))
def test_petal_absorbed_draws_match_scalar_reference(monkeypatch, lam):
    # the block draws take the same points and leave the same generator
    # state as one draw at a time, also where the draw cap cuts them short
    monkeypatch.setattr(verify, "_PETAL_DRAWS", 5_000)
    for seed in SEEDS:
        rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = verify.check_petal_absorbed(lam, rng, n=60)
        assert got == ref.check_petal_absorbed(lam, rng_ref, n=60, draws=5_000)
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize("lam", (0.5, 1.39, 1.40))
def test_petal_absorbed_draws_in_blocks(monkeypatch, lam):
    # the first block is the need and each later one the remaining need at
    # the acceptance seen so far, so even where almost every row is
    # rejected a few blocks spend the draw cap (plus at most one block
    # drawn again, up to the last row taken, after a rewind)
    monkeypatch.setattr(verify, "_PETAL_DRAWS", 5_000)
    blocks = []

    class Recording:
        def __init__(self, rng):
            self.rng = rng
            self.bit_generator = rng.bit_generator

        def uniform(self, *args):
            out = self.rng.uniform(*args)
            blocks.append(len(out))
            return out

    verify.check_petal_absorbed(lam, Recording(np.random.default_rng(0)), n=60)
    assert blocks[0] == 60
    assert len(blocks) <= 4
    assert sum(blocks) <= 2 * 5_000


def test_sampler_violation_counts_match_scalar_reference():
    # a negative slack makes tanh-bound violations occur, so those counts
    # are compared where they are not 0 (the off-axis ratio decreases at
    # every lam, so its count stays 0)
    counts = []
    for lam in (0.3, 5.0):
        for seed in (1, 2):
            counts.append(analysis.third_component_bound_violations(lam, 500, seed, slack=-1e-3))
            assert counts[-1] == ref.third_component_bound_violations(lam, 500, seed,
                                                                      slack=-1e-3)
            counts.append(analysis.offaxis_monotonicity_violations(lam, 500, seed))
            assert counts[-1] == ref.offaxis_monotonicity_violations(lam, 500, seed)
    assert all(counts[::2]) and not any(counts[1::2])


class _Stream:
    """A generator stand-in replaying fixed uniforms, one per value drawn,
    the way ``random`` and ``uniform`` consume them."""

    def __init__(self, values):
        self.values = list(values)
        self.state = 0
        self.bit_generator = self

    def _take(self, k):
        out = self.values[self.state:self.state + k]
        self.state += k
        return out

    def random(self, size):
        return np.array(self._take(int(np.prod(size)))).reshape(size)

    def uniform(self, low, high):
        return low + (high - low) * self._take(1)[0]


def test_parabolic_sampler_redraws_zero_z_alone(monkeypatch):
    # z = 0 is redrawn without drawing x and y: the scalar sampler reads z
    # at positions 0 (zero, redrawn), 1, 4, 7 and 10 (zero again)
    values = np.random.default_rng(8).uniform(0.05, 1.0, 100)
    values[[0, 10]] = 0.0
    streams = []

    def make(seed):
        streams.append(_Stream(values))
        return streams[-1]

    monkeypatch.setattr(np.random, "default_rng", make)
    assert analysis.parabolic_decrease_check(0.05, 20, seed=0)
    assert ref.parabolic_decrease_check(0.05, 20, seed=0)
    assert streams[0].state == streams[1].state == 62


def _orbit_starts(lam):
    rng = np.random.default_rng(int(lam * 10_000))
    starts = [rng.uniform([-10, -10, -5], [10, 10, 5]) for _ in range(12)]
    starts += [np.array([*rng.uniform(-3, 3, 2), 0.0]) for _ in range(12)]
    starts += [np.array([*pole_location((1, 2)), 0.0]),  # a pole
               np.array([*inverse_branch((0, 0), pole_location((0, 3)), lam), 0.0])]
    return starts


@pytest.mark.parametrize("lam", (0.5, 0.9, 1.0, 1.1107, 2.0))
def test_classify_orbit_matches_scalar_reference(fate_rule, lam):
    for v in _orbit_starts(lam):
        for max_iter, tol in ((400, 1e-6), (60, 1e-3)):
            fate_rule(CAPTURE_TOL=tol)
            got = analysis.classify_orbit(v, lam, max_iter)
            want = ref.classify_orbit(v, lam, max_iter, tol=tol)
            assert (got.fate, got.iterations) == (want.fate, want.iterations)
            assert is_infinity(got.witness) == is_infinity(want.witness)
            if not is_infinity(want.witness):
                assert got.witness.tobytes() == want.witness.tobytes()
            # the residual is summed on floats where the reference took
            # numpy's dot: it may move in the last bit
            assert got.residual == pytest.approx(want.residual, rel=1e-15, abs=0.0,
                                                 nan_ok=True)


@pytest.mark.parametrize("lam", (0.5, 0.9, 1.0, 1.1107, 2.0))
def test_classify_orbit_matches_scalar_reference_near_the_capture_bound(fate_rule, lam):
    # orbits on the coordinate axes of the plane, where p minus the origin
    # is (x, 0, 0) or (0, y, 0): the reference's dot and the float sum
    # agree bit for bit there, so the records must too; each tolerance
    # puts one iterate's x^2 + y^2 within a few ulps of CAPTURE_TOL^2,
    # where classify_orbit stops measuring distances.  Near 1e-160 the
    # squares are subnormal, the one range where the rounded square of a
    # tolerance can have a square root below it
    rng = np.random.default_rng(int(lam * 10_000) + 3)
    bounds = 0
    for axis, scale in ((0, 1.0), (1, 1.0), (0, 1e-160), (1, 1e-160)):
        v = np.zeros(3)
        v[axis] = rng.uniform(0.3, 1.2) * scale
        orbit = core.iterate(v, lam, 40)
        for k in range(0, len(orbit), 5):
            s = abs(float(orbit[k][axis]))
            for steps in range(-2, 3):
                tol = s
                for _ in range(abs(steps)):
                    tol = math.nextafter(tol, math.copysign(math.inf, steps))
                fate_rule(CAPTURE_TOL=tol)
                got = analysis.classify_orbit(v, lam, 60)
                want = ref.classify_orbit(v, lam, 60, tol=tol)
                assert (got.fate, got.iterations, got.residual.hex()) == (
                    want.fate, want.iterations, want.residual.hex())
                assert got.witness.tobytes() == want.witness.tobytes()
                bounds += abs(s * s - tol * tol) <= 8 * math.ulp(tol * tol)
    assert bounds >= 40


def test_classify_orbit_escape_matches_scalar_reference(fate_rule):
    lam = 2.0
    v = point_from_itinerary(Itinerary(prefix=[], tail=lambda j: (0, j + 3)), lam,
                             n_compose=28)
    fates = set()
    for run, norm in ((5, 18.0), (3, 10.0), (8, 50.0)):
        fate_rule(ESCAPE_RUN=run, ESCAPE_NORM=norm)
        got = analysis.classify_orbit(np.array([v[0], v[1], 0.0]), lam, max_iter=50)
        want = ref.classify_orbit(np.array([v[0], v[1], 0.0]), lam, max_iter=50,
                                  escape_run=run, escape_norm=norm)
        assert (got.fate, got.iterations) == (want.fate, want.iterations)
        assert got.witness.tobytes() == want.witness.tobytes()
        fates.add(got.fate)
    assert analysis.Fate.ESCAPING in fates


def test_bisections_stop_early_with_the_full_loops_bits():
    lams = np.concatenate([np.linspace(1.0 + 1e-9, 12.0, 1500),
                           1.0 + np.logspace(-14.0, 0.0, 300)])
    for lam in lams.tolist():
        assert analysis.axis_fixed_point(lam) == ref.axis_fixed_point(lam)
    mus = np.concatenate([np.linspace(1e-6, 1.0 - 1e-9, 1500),
                          1.0 - np.logspace(-14.0, -1e-3, 300)])
    for mu in mus.tolist():
        assert analysis.smallest_tan_fixed_point(mu) == ref.smallest_tan_fixed_point(mu)


def test_bisection_stops_once_the_bracket_stops_moving():
    steps = []

    def below(t):
        steps.append(t)
        return 2.0 * math.tanh(t) - t > 0.0

    core._bisect(below, 1e-300, 2.0)
    assert len(steps) < 70

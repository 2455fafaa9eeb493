"""The public surface: the names ``qrtan`` exports, the fields of
``RenderConfig`` and the parameters of ``classify_orbit``.  Adding or
removing an export, a render option or an orbit-fate option changes these
lists, so it shows up as a reviewed diff.  And the entry points that take
lam reject one that is not positive and finite, with one message, and
those that take a box, a ball centre or a radius reject a non-finite one."""

import dataclasses
import inspect
import math
import re
import types
import warnings

import pytest

import qrtan
from qrtan import analysis, cli, itinerary, plane, render, verify
from qrtan.render import RenderConfig

EXPORTS = [
    "Fate", "FateRecord", "INFINITY", "Itinerary", "PeriodicCycleSpec", "PoleIndex",
    "RenderConfig", "axis_fixed_point", "blowup_probe", "calibrate_expansion", "cayley",
    "cayley_inverse", "chordal", "classify_orbit", "containing_diamond",
    "hemisphere_to_square", "inverse_branch", "is_infinity", "iterate", "itinerary_of",
    "jacobian_plane_map", "periodic_near_escaping",
    "periodic_point_from_cycle", "petal_contains", "plane_map", "point_from_itinerary",
    "pole_location", "render_basin", "render_escape_depth", "required_tail_radius",
    "smallest_tan_fixed_point", "square_to_hemisphere", "tangent3", "tangent3_composed",
    "tangent3_grid", "write_ppm", "zorich",
]

RENDER_FIELDS = ["lam", "window", "width", "height", "max_iter", "depth_norm", "threads"]

# the fate rules are constants of analysis, not options
CLASSIFY_ORBIT_PARAMS = ["v", "lam", "max_iter"]

FATE_RULES = ["SETTLE", "CAPTURE_TOL", "ESCAPE_RUN", "ESCAPE_NORM"]


def test_exported_names():
    # submodules become package attributes once imported; they are not exports
    public = sorted(name for name, value in vars(qrtan).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == sorted(EXPORTS)


def test_render_config_fields():
    assert [f.name for f in dataclasses.fields(RenderConfig)] == RENDER_FIELDS


def test_classify_orbit_parameters():
    assert list(inspect.signature(analysis.classify_orbit).parameters) == CLASSIFY_ORBIT_PARAMS


def test_fate_rules_have_one_home():
    # the render module, its config and the CLI keep no copy of the rules
    assert all(isinstance(getattr(analysis, name), (int, float)) for name in FATE_RULES)
    assert not any(hasattr(render, name) or hasattr(cli, name) for name in FATE_RULES)
    cfg = RenderConfig(lam=1.0)
    assert not any(hasattr(cfg, knob) for knob in ("tol", "escape_run", "escape_norm"))
    args = cli.build_parser().parse_args(["render-basin", "--lambda", "1", "--out", "x.ppm"])
    assert not hasattr(args, "tol")


LAM_ENTRY_POINTS = {
    "inverse_branch": lambda lam: plane.inverse_branch((0, 1), (3.0, -1.0), lam),
    "preimages_tangent3":
        lambda lam: plane.preimages_tangent3((1.0, 2.0, 0.5), lam, (-1.0, 1.0, -1.0, 1.0)),
    "calibrate_expansion": plane.calibrate_expansion,
    "required_tail_radius": plane.required_tail_radius,
    "classify_orbit": lambda lam: analysis.classify_orbit((0.1, 0.2, 0.3), lam),
    "blowup_probe": lambda lam: analysis.blowup_probe(
        plane.pole_location((0, 0)), 0.1, lam, [(1.0, 2.0, 3.0)], max_iter=3, n_samples=5),
    "point_from_itinerary": lambda lam: itinerary.point_from_itinerary(
        itinerary.Itinerary(prefix=[], tail=lambda j: (0, j + 3)), lam),
    "periodic_point_from_cycle": lambda lam: itinerary.periodic_point_from_cycle(
        itinerary.PeriodicCycleSpec(cycle=[(0, 5)]), lam),
    "run_suite": lambda lam: verify.run_suite(lam, "core", fast=True),
    "RenderConfig": lambda lam: RenderConfig(lam=lam),
}


# entry points that take a box, a centre or a radius: each non-finite one
# raises a one-line ValueError that names it
NONFINITE_INPUTS = {
    "preimages_tangent3 box": (
        lambda v: plane.preimages_tangent3((1.0, 2.0, 0.5), 1.0, (-1.0, 1.0, v, 1.0)),
        "box entries must be finite, got (-1.0, 1.0, {}, 1.0)"),
    "blowup_probe center": (
        lambda v: analysis.blowup_probe((v, 0.0), 0.1, 1.0, [(1.0, 2.0, 3.0)]),
        "ball centre must be finite, got ({}, 0.0)"),
    "blowup_probe radius": (
        lambda v: analysis.blowup_probe((0.0, 0.0), v, 1.0, [(1.0, 2.0, 3.0)]),
        "need 0 < radius < inf, got {}"),
}


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("entry", sorted(NONFINITE_INPUTS))
def test_entry_points_reject_nonfinite_inputs(entry, value):
    call, message = NONFINITE_INPUTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(value))}$"):
        call(value)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(LAM_ENTRY_POINTS))
def test_entry_points_reject_lambda_not_positive_and_finite(entry, lam):
    want = f"^scaling parameter must be positive, got {re.escape(str(lam))}$"
    with pytest.raises(ValueError, match=want):
        LAM_ENTRY_POINTS[entry](lam)


def test_render_rejects_infinite_lambda_before_any_work():
    # the config raises the plane's one-line ValueError, so a library call
    # never reaches the kernel (where inf - inf once warned under -W error)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^scaling parameter must be positive, got inf$"):
            render.render_basin(RenderConfig(lam=math.inf, width=4, height=4, max_iter=5))

"""The public surface: the names ``qrtan`` exports, the fields of
``RenderConfig`` and the parameters of ``classify_orbit``.  Adding or
removing an export, a render option or an orbit-fate option changes these
lists, so it shows up as a reviewed diff."""

import dataclasses
import inspect
import types

import qrtan
from qrtan import analysis, cli, render
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

"""The public surface: the names ``qrtan`` exports and the fields of
``RenderConfig``.  Adding or removing an export or a render option changes
these lists, so it shows up as a reviewed diff."""

import dataclasses
import inspect
import types

import qrtan
from qrtan import analysis, cli
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

RENDER_FIELDS = ["lam", "window", "width", "height", "max_iter", "tol", "escape_run",
                 "escape_norm", "depth_norm", "threads"]


def test_exported_names():
    # submodules become package attributes once imported; they are not exports
    public = sorted(name for name, value in vars(qrtan).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert public == sorted(EXPORTS)


def test_render_config_fields():
    assert [f.name for f in dataclasses.fields(RenderConfig)] == RENDER_FIELDS


def test_fate_rules_have_one_home():
    cfg = RenderConfig(lam=1.0)
    assert (cfg.tol, cfg.escape_run, cfg.escape_norm) == (
        analysis.CAPTURE_TOL, analysis.ESCAPE_RUN, analysis.ESCAPE_NORM)
    defaults = inspect.signature(analysis.classify_orbit).parameters
    assert (defaults["tol"].default, defaults["escape_run"].default,
            defaults["escape_norm"].default) == (
        analysis.CAPTURE_TOL, analysis.ESCAPE_RUN, analysis.ESCAPE_NORM)
    args = cli.build_parser().parse_args(["render-basin", "--lambda", "1", "--out", "x.ppm"])
    assert args.tol == analysis.CAPTURE_TOL

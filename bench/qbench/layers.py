"""The qrtan functions a traced pass wraps, and the per-layer metrics.

Each wrapped function is named ``<layer>.<function>``, the layer being
its qrtan module.  Observers turn arguments and results into counters
while the spans are recorded:

* evaluated pixel-steps are the points passed to ``tangent3_grid`` from
  inside ``classify_plane_block`` (``render.pixel_steps``);
* live pixel-steps are the sum of ``when`` over the classified pixels,
  the steps for which a pixel's orbit was still undecided;
* needed pixel-steps (escape-depth renders only) are the sum of
  ``depth`` where ``depth > 0`` and of ``when`` elsewhere: the steps an
  escape-depth render needs before each pixel's first passage.
"""

import tracemalloc

import numpy as np

# fate codes of classify_plane_block; codes 2 and 3 (axis fixed points)
# cannot occur at z = 0
FATE_CODES = {0: "undecided", 1: "origin", 4: "escaping", 5: "pole"}

PERIODIC_RESIDUAL = 1e-9


def _lam_key(lam):
    return f"lam{float(lam):g}"


def _grid_points(tr, frame, args, kwargs, result):
    n = int(np.size(args[0]))
    tr.count("core.tangent3_grid.points", n)
    if frame.parent is not None:
        frame.parent.add("points", n)


def _classify_block(tr, frame, args, kwargs, result):
    fate, when, depth = result
    evaluated = frame.counts.get("points", 0) if frame.counts else 0
    tr.count("render.pixel_steps", evaluated)
    tr.count("render.live_pixel_steps", int(when.sum(dtype=np.int64)))
    for code, label in FATE_CODES.items():
        tr.count(f"render.fate.{label}", int(np.count_nonzero(fate == code)))
    if frame.parent is not None and frame.parent.name == "render.render_escape_depth":
        tr.count("render.escape_pixel_steps", evaluated)
        needed = np.where(depth > 0, depth, when)
        tr.count("render.needed_pixel_steps", int(needed.sum(dtype=np.int64)))


def _per_lam(prefix, lam_of):
    def observe(tr, frame, args, kwargs, result):
        tr.count(f"{prefix}.{_lam_key(lam_of(args, kwargs))}", frame.dt_ns / 1e9)
    return observe


def _classify_orbit(tr, frame, args, kwargs, result):
    if result.fate.value == "Undecided":
        tr.count("analysis.classify_orbit.undecided")


def _periodic(tr, frame, args, kwargs, result):
    if not result.residual <= PERIODIC_RESIDUAL:
        tr.count("itinerary.periodic_point_from_cycle.residual_gt_1e-9")


def _check(tr, frame, args, kwargs, result):
    if result is None:  # the check does not apply at this lam
        return
    tr.count(f"verify.check_s.{result.name}", frame.dt_ns / 1e9)
    tr.count("verify.checks_run")
    tr.count("verify.checks_passed", int(bool(result.passed)))


def wrappers(tracer):
    """{original function: traced wrapper} for every layer boundary."""
    from qrtan import analysis, cli, core, itinerary, plane, render, verify

    spec = [
        (core, "tangent3", None),
        (core, "tangent3_grid", _grid_points),
        (plane, "plane_map", None),
        (plane, "inverse_branch", None),
        (plane, "jacobian_plane_map", None),
        (plane, "calibrate_expansion", None),
        (analysis, "classify_orbit", _classify_orbit),
        (analysis, "blowup_probe", None),
        (itinerary, "point_from_itinerary", None),
        (itinerary, "shadow_check", None),
        (itinerary, "periodic_point_from_cycle", _periodic),
        (render, "render_basin", _per_lam("render.render_basin_s", lambda a, k: a[0].lam)),
        (render, "render_escape_depth",
         _per_lam("render.render_escape_depth_s", lambda a, k: a[0].lam)),
        (render, "classify_plane_block", _classify_block),
        (render, "colorize_fates", None),
        (render, "colorize_depth", None),
        (render, "encode_ppm", None),
        (verify, "run_suite", _per_lam("verify.run_suite_s", lambda a, k: a[0])),
        (cli, "main", None),
    ]
    spec += [(verify, name, _check) for name in vars(verify)
             if name.startswith("check_") and callable(getattr(verify, name))]
    out = {}
    for mod, attr, observe in spec:
        layer = mod.__name__.rsplit(".", 1)[-1]
        span = "render.colorize" if attr.startswith("colorize_") else f"{layer}.{attr}"
        fn = getattr(mod, attr)
        out[fn] = tracer.wrap(span, fn, observe)
    return out


def grid_temp_bytes_per_point(lam=2.0, width=512, rows=64):
    """Peak bytes allocated per point by one ``tangent3_grid`` call on a
    render block (64 rows of a 512-wide image), as tracemalloc counts
    them: temporaries plus the returned arrays, inputs excluded."""
    from qrtan import tangent3_grid
    from qrtan.render import RenderConfig, pixel_grid

    cfg = RenderConfig(lam=lam, width=width, height=rows)
    x, y = pixel_grid(cfg, 0, rows)
    z = np.zeros_like(x)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = tangent3_grid(x, y, z, lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    del out
    return (peak - base) / x.size


def per_layer_metrics(tr, setup_tr, untraced_wall, traced_wall, temp_bytes, fail_frac):
    """Every per-layer metric the traced run reports, by name.

    ``verify.check_s.*`` and the per-lambda render and suite times appear
    only for what ran; the caller fills the rest with 0.
    """
    c = tr.counters
    steps = c.get("render.pixel_steps", 0)
    esc_steps = c.get("render.escape_pixel_steps", 0)
    grid_points = c.get("core.tangent3_grid.points", 0)
    orbits = tr.calls("analysis.classify_orbit")
    m = {
        "core.tangent3_grid.calls": tr.calls("core.tangent3_grid"),
        "core.tangent3_grid.points": grid_points,
        "core.tangent3_grid.ns_per_point":
            tr.total_s("core.tangent3_grid") * 1e9 / grid_points if grid_points else 0.0,
        "core.tangent3_grid.self_s": tr.self_s("core.tangent3_grid"),
        "core.tangent3_grid.peak_temp_bytes_per_point": temp_bytes,
        "core.tangent3.calls": tr.calls("core.tangent3"),
        "core.tangent3.us_per_call": tr.per_call("core.tangent3", 1e6),
        "plane.plane_map.calls": tr.calls("plane.plane_map"),
        "plane.plane_map.us_per_call": tr.per_call("plane.plane_map", 1e6),
        "plane.inverse_branch.calls": tr.calls("plane.inverse_branch"),
        "plane.inverse_branch.us_per_call": tr.per_call("plane.inverse_branch", 1e6),
        "plane.inverse_branch.errors": tr.errors("plane.inverse_branch"),
        "plane.jacobian_plane_map.calls": tr.calls("plane.jacobian_plane_map"),
        "plane.jacobian_plane_map.us_per_call": tr.per_call("plane.jacobian_plane_map", 1e6),
        "plane.calibrate_expansion_s": setup_tr.total_s("plane.calibrate_expansion"),
        "analysis.classify_orbit.calls": orbits,
        "analysis.classify_orbit.us_per_call": tr.per_call("analysis.classify_orbit", 1e6),
        "analysis.classify_orbit.undecided_frac":
            c.get("analysis.classify_orbit.undecided", 0) / orbits if orbits else 0.0,
        "analysis.blowup_probe_s": tr.total_s("analysis.blowup_probe"),
        "itinerary.point_from_itinerary.calls": tr.calls("itinerary.point_from_itinerary"),
        "itinerary.point_from_itinerary.ms_per_call":
            tr.per_call("itinerary.point_from_itinerary", 1e3),
        "itinerary.shadow_check.ms_per_call": tr.per_call("itinerary.shadow_check", 1e3),
        "itinerary.periodic_point_from_cycle.calls":
            tr.calls("itinerary.periodic_point_from_cycle"),
        "itinerary.periodic_point_from_cycle.ms_per_call":
            tr.per_call("itinerary.periodic_point_from_cycle", 1e3),
        "itinerary.periodic_point_from_cycle.residual_gt_1e-9":
            c.get("itinerary.periodic_point_from_cycle.residual_gt_1e-9", 0),
        "render.classify_plane_block.self_s": tr.self_s("render.classify_plane_block"),
        "render.pixel_steps": steps,
        "render.live_pixel_steps": c.get("render.live_pixel_steps", 0),
        "render.live_share": c.get("render.live_pixel_steps", 0) / steps if steps else 0.0,
        "render.needed_share":
            c.get("render.needed_pixel_steps", 0) / esc_steps if esc_steps else 0.0,
        "render.colorize_s": tr.total_s("render.colorize"),
        "render.encode_ppm_s": tr.total_s("render.encode_ppm"),
        "verify.checks_run": c.get("verify.checks_run", 0),
        "verify.checks_passed": c.get("verify.checks_passed", 0),
        "cli.self_s": tr.self_s("cli.main"),
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        "fail_frac": fail_frac,
    }
    for label in FATE_CODES.values():
        m[f"render.fate.{label}"] = c.get(f"render.fate.{label}", 0)
    for key, value in c.items():
        if key.startswith(("render.render_", "verify.run_suite_s.", "verify.check_s.")):
            m[key] = value
    return m

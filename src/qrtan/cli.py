"""Command-line front end.

Subcommands: render-basin, render-escape, orbit, itinerary, periodic,
solve-xi0, verify.  Images go out as binary PPM (P6) with PNG available
behind --png; point-stream results are NDJSON, one object per orbit step
({"n": ..., "x": ..., "y": ..., "z": ...} or {"n": ..., "inf": true}),
preceded by one config record sufficient to re-run the command.  Exit
codes: 0 success, 1 verification failure, 2 usage error.
"""

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, itinerary as itin_mod, plane, verify
from .core import is_infinity, iterate
from .itinerary import ContractionFailure
from .plane import BranchDomainError, BranchResidualError
from .render import RenderConfig, render_basin, render_escape_depth, write_png, write_ppm

_WINDOW_HELP = ("window as x0,y0,x1,y1 (default -pi/4,-pi/4,3pi/4,3pi/4); pixels sample "
                "cell centres with y increasing upward, so row 0 is the top of the window")


def _parse_window(text):
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("window needs x0,y0,x1,y1")
    return tuple(parts)


def _parse_res(text):
    try:
        w, h = text.lower().split("x")
        return int(w), int(h)
    except ValueError as e:
        raise argparse.ArgumentTypeError("resolution needs WIDTHxHEIGHT") from e


def _parse_vec3(text):
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("start point needs x,y,z")
    return np.array(parts)


def _parse_vec2(text):
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("plane point needs x,y")
    return np.array(parts)


def _parse_cycle(text):
    out = []
    for item in text.split(";"):
        m, n = item.split(",")
        out.append((int(m), int(n)))
    return out


def build_parser():
    p = argparse.ArgumentParser(
        prog="qrtan",
        description="Dynamics of the three-dimensional quasiregular tangent family")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, render=False):
        sp.add_argument("--lambda", dest="lam", type=float, required=True,
                        help="positive scaling parameter of the family")
        if render:
            sp.add_argument("--window", type=_parse_window,
                            default=RenderConfig.__dataclass_fields__["window"].default,
                            help=_WINDOW_HELP)
            sp.add_argument("--res", type=_parse_res, default=(256, 256),
                            help="image resolution WIDTHxHEIGHT (default 256x256)")
            sp.add_argument("--max-iter", type=int, default=500)
            sp.add_argument("--tol", type=float, default=1e-6)
            sp.add_argument("--threads", type=int, default=1,
                            help="worker threads; output bytes do not depend on this")
            sp.add_argument("--out", required=True, help="output image path")
            sp.add_argument("--png", action="store_true",
                            help="write PNG instead of the default binary PPM")

    sp = sub.add_parser("render-basin", help="basin-of-attraction image")
    add_common(sp, render=True)

    sp = sub.add_parser("render-escape", help="escape-depth image")
    add_common(sp, render=True)
    sp.add_argument("--r-esc", type=float, default=None,
                    help="norm threshold defining escape depth (default 4*lambda)")

    sp = sub.add_parser("orbit", help="iterate a point, one NDJSON record per step")
    add_common(sp)
    sp.add_argument("--start", type=_parse_vec3, required=True, help="start point x,y,z")
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--out", help="output file (default stdout)")

    sp = sub.add_parser("itinerary", help="pole-diamond symbols of a plane orbit")
    add_common(sp)
    sp.add_argument("--start", type=_parse_vec2, required=True, help="plane point x,y")
    sp.add_argument("--n", type=int, default=20)
    sp.add_argument("--out", help="output file (default stdout)")

    sp = sub.add_parser("periodic", help="periodic point from a pole cycle")
    add_common(sp)
    sp.add_argument("--cycle", type=_parse_cycle, required=True,
                    help="pole indices m,n separated by ';', e.g. '1,1;-1,-1;0,1'")
    sp.add_argument("--out", help="output file (default stdout)")

    sp = sub.add_parser("solve-xi0", help="positive solution of lam*tanh(x) = x")
    add_common(sp)

    sp = sub.add_parser("verify", help="run the verification suite")
    add_common(sp)
    sp.add_argument("--suite", default="all", choices=sorted(verify.SUITES),
                    help="which suite to run (default all)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--fast", action="store_true",
                    help="reduced sample counts (smoke mode)")
    return p


def _open_out(path):
    if path:
        return open(path, "w")
    return sys.stdout


def _emit(fh, obj):
    fh.write(json.dumps(obj) + "\n")


def _config_record(args, command, **extra):
    rec = {"record": "config", "command": command, "lambda": args.lam}
    rec.update(extra)
    return rec


def _cmd_render(args, escape):
    w, h = args.res
    cfg = RenderConfig(lam=args.lam, window=tuple(args.window), width=w, height=h,
                       max_iter=args.max_iter, tol=args.tol, threads=args.threads,
                       depth_norm=getattr(args, "r_esc", None))
    img = render_escape_depth(cfg) if escape else render_basin(cfg)
    if args.png:
        write_png(img, args.out)
    else:
        write_ppm(img, args.out)
    print(f"wrote {args.out} ({w}x{h}, lambda={args.lam})")
    return 0


def _cmd_orbit(args):
    fh = _open_out(args.out)
    try:
        _emit(fh, _config_record(args, "orbit",
                                 start=list(map(float, args.start)), n=args.n))
        for i, p in enumerate(iterate(args.start, args.lam, args.n), start=1):
            if is_infinity(p):
                _emit(fh, {"n": i, "inf": True})
            else:
                _emit(fh, {"n": i, "x": float(p[0]), "y": float(p[1]), "z": float(p[2])})
    finally:
        if args.out:
            fh.close()
    return 0


def _cmd_itinerary(args):
    fh = _open_out(args.out)
    try:
        _emit(fh, _config_record(args, "itinerary",
                                 start=list(map(float, args.start)), n=args.n))
        symbols, reason = itin_mod.itinerary_of(args.start, args.lam, args.n)
        for i, idx in enumerate(symbols):
            loc = plane.pole_location(idx)
            _emit(fh, {"n": i, "m": idx.m, "pole_n": idx.n,
                       "x": float(loc[0]), "y": float(loc[1])})
        _emit(fh, {"record": "stop", "reason": reason, "symbols": len(symbols)})
    finally:
        if args.out:
            fh.close()
    return 0


def _cmd_periodic(args):
    # solve first: a failing solver must leave no partial stream or file
    res = itin_mod.periodic_point_from_cycle(
        itin_mod.PeriodicCycleSpec(cycle=args.cycle), args.lam)
    fh = _open_out(args.out)
    try:
        _emit(fh, _config_record(args, "periodic", cycle=[list(c) for c in args.cycle]))
        for i, p in enumerate(res.orbit):
            _emit(fh, {"n": i, "x": float(p[0]), "y": float(p[1]), "z": 0.0})
        _emit(fh, {"record": "summary", "period": res.period,
                   "residual": res.residual})
    finally:
        if args.out:
            fh.close()
    return 0


def _cmd_solve_xi0(args):
    xi = analysis.axis_fixed_point(args.lam)
    print(f"{xi:.12g}")
    return 0


def _cmd_verify(args):
    results = verify.run_suite(args.lam, suite=args.suite, seed=args.seed,
                               fast=args.fast)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed "
          f"(lambda={args.lam}, suite={args.suite})")
    return 0 if failed == 0 else 1


def _check_inputs(args):
    """Reject a bad parameter, start point, step count, window, threshold,
    tolerance or thread count before any output is written."""
    if not (math.isfinite(args.lam) and args.lam > 0.0):
        raise ValueError(f"--lambda must be positive and finite, got {args.lam:g}")
    start = getattr(args, "start", None)
    if start is not None and not np.all(np.isfinite(start)):
        raise ValueError("--start must be finite, got " + ",".join(f"{v:g}" for v in start))
    n = getattr(args, "n", None)
    if n is not None and n < 1:
        raise ValueError(f"--n must be at least 1, got {n}")
    window = getattr(args, "window", None)
    if window is not None and not all(math.isfinite(v) for v in window):
        raise ValueError("--window entries must be finite, got "
                         + ",".join(f"{v:g}" for v in window))
    r_esc = getattr(args, "r_esc", None)
    if r_esc is not None and not (math.isfinite(r_esc) and r_esc > 0.0):
        raise ValueError(f"--r-esc must be positive and finite, got {r_esc:g}")
    max_iter = getattr(args, "max_iter", None)
    if max_iter is not None and max_iter < 1:
        raise ValueError(f"--max-iter must be at least 1, got {max_iter}")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"--tol must be positive and finite, got {tol:g}")
    threads = getattr(args, "threads", None)
    if threads is not None and threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        _check_inputs(args)
        if args.command == "render-basin":
            return _cmd_render(args, escape=False)
        if args.command == "render-escape":
            return _cmd_render(args, escape=True)
        if args.command == "orbit":
            return _cmd_orbit(args)
        if args.command == "itinerary":
            return _cmd_itinerary(args)
        if args.command == "periodic":
            return _cmd_periodic(args)
        if args.command == "solve-xi0":
            return _cmd_solve_xi0(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except (ValueError, KeyError, BranchDomainError, BranchResidualError,
            ContractionFailure) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 2


def entrypoint():  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())

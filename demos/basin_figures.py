#!/usr/bin/env python3
"""Render the reference basin and escape-depth figures.

Produces three PPM images in the current directory:

  basin_0.9.ppm     basin of the origin at lam = 0.9; the petal region is
                    the dark blue area around the origin, bounded regions
                    of slow capture shade through yellow to red
  basin_1.1107.ppm  the same at lam ~ pi*sqrt(2)/4, where the petal tips
                    just reach the corners of the central square
  escape_2.0.ppm    first-passage depth to the far field at lam = 2.0,
                    where escape-prone points fill the window

Run:  python demos/basin_figures.py [--res 512]
"""

import argparse
import time

from qrtan.render import RenderConfig, render_basin, render_escape_depth, write_ppm


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--res", type=int, default=256, help="image side in pixels")
    ap.add_argument("--threads", type=int, default=1,
                    help="worker threads (default 1: at these sizes threads slow the render)")
    args = ap.parse_args()

    for lam in (0.9, 1.1107):
        cfg = RenderConfig(lam=lam, width=args.res, height=args.res,
                           max_iter=500, threads=args.threads)
        t0 = time.time()
        img = render_basin(cfg)
        out = f"basin_{lam}.ppm"
        write_ppm(img, out)
        print(f"{out}: {args.res}x{args.res}, {time.time() - t0:.1f}s")

    cfg = RenderConfig(lam=2.0, width=args.res, height=args.res,
                       max_iter=200, threads=args.threads)
    t0 = time.time()
    img = render_escape_depth(cfg)
    write_ppm(img, "escape_2.0.ppm")
    print(f"escape_2.0.ppm: {args.res}x{args.res}, {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()

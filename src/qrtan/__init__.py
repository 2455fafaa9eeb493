"""qrtan: dynamics of a three-dimensional quasiregular tangent family.

The map generalizes lam*tan(z) to R^3: a Zorich map composed with a
Mobius transformation, doubly periodic with a plane lattice of poles,
attracting axis fixed points for lam > 1, an escaping set coded by
pole-diamond itineraries, and periodic points shadowing every escaping
orbit.  See README.md for the tour; the API splits into

    core       evaluation of the map and its building blocks
    plane      restricted plane map, inverse branches, calibration
    analysis   fixed points, basins, petal region, orbit fates
    itinerary  symbolic dynamics and periodic points
    render     basin / escape-depth images
    verify     the runnable verification suite
    cli        the command-line front end
"""

from .core import (
    INFINITY,
    chordal,
    hemisphere_to_square,
    is_infinity,
    iterate,
    cayley,
    cayley_inverse,
    square_to_hemisphere,
    tangent3,
    tangent3_composed,
    tangent3_grid,
    zorich,
)
from .plane import (
    PoleIndex,
    calibrate_expansion,
    containing_diamond,
    inverse_branch,
    jacobian_plane_map,
    plane_map,
    pole_location,
    required_tail_radius,
)
from .analysis import (
    Fate,
    FateRecord,
    axis_fixed_point,
    blowup_probe,
    classify_orbit,
    petal_contains,
    smallest_tan_fixed_point,
)
from .itinerary import (
    Itinerary,
    PeriodicCycleSpec,
    itinerary_of,
    periodic_near_escaping,
    periodic_point_from_cycle,
    point_from_itinerary,
)
from .render import RenderConfig, render_basin, render_escape_depth, write_ppm

__version__ = "0.1.0"

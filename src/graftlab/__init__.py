"""graftlab: collar geometry, quasiconformal bounds, grafting dynamics."""

__version__ = "0.1.0"

from .config import Constants, DEFAULT_CONSTANTS
from .hypgeom import (
    annulus_angle,
    collar_angle,
    collar_quotient,
    collar_width,
    freehomotopy_distance,
    scan_small_length_thresholds,
)
from .annuli import (
    RoundAnnulus,
    cylinder_boundary_distance,
    extended_cylinder_modulus,
    from_log_coords,
    grafting_sector_angles,
    modulus,
    separation_factor,
    standard_collar_modulus,
    to_log_coords,
)
from .qcmaps import (
    GridMap,
    QCMap,
    compose_maps,
    scaling_map,
    shearing_map,
    twist_map,
)
from .beltrami import BeltramiEstimate, beltrami_estimate
from .dilatation import (
    ComparisonBudget,
    bilipschitz_F_bound,
    comparison_budget,
    twist_amount_bound,
    untwist_chain,
)
from .grafting import (
    LengthInterval,
    LengthState,
    WeightedMulticurve,
    bounding_annulus_moduli,
    bounding_radius,
    collar_containment_check,
    decay_factor,
    graft_factors,
    graft_length_bounds,
    single_curve_graft_bounds,
    weighted_sum,
    wolpert_ratio,
)
from .dynamics import (
    CauchyReport,
    GraftingTrajectory,
    LiftRadiusBound,
    collapse_distance_bound,
    counterexample_analysis,
    endpoint_cauchy_analysis,
    geometric_convergence_threshold,
    holonomy_tube_radius,
    iterate_grafting,
    iterated_lift_radius,
    ray_grafting,
    ray_reparametrization,
)
from .errors import (
    GeometryError,
    GraftLabError,
    GridError,
    NotSensePreservingError,
    ScenarioError,
    ShortnessError,
    UnderflowError,
)
from .scenario import MapSpec, Scenario, load_map_spec, load_scenario, resolve_constants

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
    GraftingCylinder,
    LogRect,
    RoundAnnulus,
    core_length,
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
    BoundaryDistortion,
    GridMap,
    QCMap,
    compose_maps,
    gridmap_from_csv,
    gridmap_to_csv,
    scaling_map,
    shearing_map,
    twist_map,
)
from .beltrami import BeltramiEstimate, beltrami_estimate
from .dilatation import (
    ComparisonBudget,
    DilatationBudget,
    bilipschitz_F_bound,
    boundary_lipschitz_bound,
    comparison_budget,
    twist_amount_bound,
    untwist_chain,
    untwist_dilatation_bound,
)
from .grafting import (
    GraftBoundsReport,
    LengthInterval,
    LengthState,
    Role,
    WeightedMulticurve,
    bounding_annulus_moduli,
    bounding_radius,
    collar_containment_check,
    graft_factors,
    graft_length_bounds,
    iteration_distance_bound,
    single_curve_graft_bounds,
    split_sum,
    weighted_sum,
    wolpert_ratio,
)
from .dynamics import (
    AccumulationReport,
    CauchyReport,
    CounterexampleReport,
    EndpointDescriptor,
    GraftingTrajectory,
    LiftRadiusBound,
    TrajectoryMode,
    TubeReport,
    accumulation_analysis,
    collapse_distance_bound,
    counterexample_ratio,
    decay_factor,
    endpoint_cauchy_analysis,
    endpoint_descriptor,
    geodesic_tube_radius,
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
)
from .scenario import Scenario, load_scenario, resolve_constants, scenario_schema

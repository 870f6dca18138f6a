"""Certified pullback/forward attractors of contractive difference equations.

Periodic integrodifference equations of Hammerstein type are discretized by
quadrature collocation; a per-period contraction certificate then drives a
pullback sweep with an explicit sup-norm error bound on the computed
attractor fibers.  A small companion toolkit covers finite-dimensional
semilinear difference equations and a generic iterate-contraction solver.
"""

from .exceptions import (
    BoundFormulaOutOfRangeError,
    BudgetExceededError,
    ConfigError,
    DivergentInputError,
    GridMismatchError,
    NoContractionError,
    TimeOrderError,
)
from .grid import (
    Grid,
    GridFunction,
    build_grid,
    hausdorff_semidistance,
    integrate,
    sup_distance,
    sup_norm,
    total_population,
)
from .models import (
    GROWTH_FAMILIES,
    KERNEL_FAMILIES,
    SEASON_PATTERNS,
    GrowthSpec,
    InhomogeneitySpec,
    KernelSpec,
    SeasonSchedule,
    growth_eval,
    growth_lipschitz,
    growth_spec,
    growth_sup_bound,
    half_contraction_amplitude,
    hammerstein_lipschitz,
    inhomogeneity_eval,
    kernel_bound,
    kernel_bound_numeric,
    kernel_eval,
    seasonal_scales,
)
from .dynamics import (
    HammersteinOperator,
    PointwiseOperator,
    TrajectorySegment,
    build_hammerstein,
    build_pointwise,
    general_solution,
    replay_matches,
    trajectory,
)
from .attractor import (
    AttractorFibers,
    ContractionCertificate,
    ErrorBudget,
    IterateContractionProblem,
    apriori_distance_bound,
    attraction_rate,
    certify_contraction,
    closed_form_fully_in_range,
    fixed_point_iterate,
    pullback_fibers,
    required_iterations,
    step_constants_closed_form,
    step_constants_numeric,
)
from .semilinear import (
    PullbackReport,
    SemilinearSystem,
    build_semilinear,
    contraction_product,
    gronwall_bound,
    pullback_limit,
    transition,
    variation_of_constants,
)
from .config import (
    ScenarioConfig,
    build_operator,
    build_scenario_grid,
    initial_condition,
    load_config,
    parse_config,
)

__version__ = "0.1.0"

"""Wake-aware wind farm layout optimization on a discrete candidate grid."""

from .geometry import Point, circle_overlap_area, rotate_frame
from .wake import (
    TurbineSpec,
    decay_factor,
    effective_speeds,
    wake_radius,
)
from .power import (
    EvaluationResult,
    FarmEvaluator,
    cost_curve,
    power_values,
)
from .optimizer import (
    ChaosStream,
    GAParams,
    GenerationTrace,
    Layout,
    chaos_position,
    initialize_population,
    mutate_twice,
    relocate,
    run_aga,
    run_conventional_ga,
)
from .scenario import (
    Grid,
    WindScenario,
    build_grid,
    case_scenario,
    single_bin,
    uniform_directions,
    uniform_layout,
    weibull_rose,
)
from .study import (
    PolyFit,
    ShrinkSweepPoint,
    convergence_comparison,
    fit_poly3,
    power_drop_at_budget,
    shrink_sweep,
)
from .oracle import exhaustive_best, mc_overlap, straight_line_eval

__version__ = "0.1.0"

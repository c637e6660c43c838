"""Rolling-ball optimization and landscape geometry toolkit."""
from .geometry import (GridSpec, OffsetSamples, UnreachabilityReport,
                       count_local_minima, distance_to_graph,
                       hausdorff_distance, is_unreachable,
                       normal_from_grad, offset_profile, offset_value,
                       sharpness, tangent_from_grad)
from .landscape import (Landscape, affine_plus_bump, catalogue_names,
                        eval_batch, make_landscape, quadratic, riemann,
                        sinusoid, value_and_grad)
from .neural import (Dataset, EpochStats, MlpSpec, as_landscape, evaluate,
                     find_mnist, init_params, load_idx, load_mnist,
                     loss_and_grad, param_count, train_mlp)
from .optimizer import (BallState, GraphPoint, ProjectionConfig,
                        ProjectionDivergence, StepRecord, Trajectory,
                        TrajectoryHeader, hyperparameters, lift,
                        project_footpoint, rbo_step, run, run_gd, run_rbo,
                        run_sam, run_sgd)
from .verify import (CheckReport, Observation, available_checks,
                     check_gd_limit, check_linear_ironing,
                     check_open_unreachables, check_sharp_minima,
                     check_smoothing, check_weak_ironing, run_check)

__version__ = "0.1.0"

__all__ = [
    "BallState", "CheckReport", "Dataset", "EpochStats", "GraphPoint",
    "GridSpec", "Landscape", "MlpSpec", "Observation", "OffsetSamples",
    "ProjectionConfig", "ProjectionDivergence", "StepRecord", "Trajectory",
    "TrajectoryHeader", "UnreachabilityReport",
    "affine_plus_bump", "as_landscape", "available_checks", "catalogue_names",
    "check_gd_limit", "check_linear_ironing", "check_open_unreachables",
    "check_sharp_minima", "check_smoothing", "check_weak_ironing",
    "count_local_minima", "distance_to_graph", "eval_batch", "evaluate",
    "find_mnist", "hausdorff_distance", "hyperparameters", "init_params",
    "is_unreachable", "lift", "load_idx", "load_mnist", "loss_and_grad",
    "make_landscape", "normal_from_grad", "offset_profile", "offset_value",
    "param_count", "project_footpoint", "quadratic", "rbo_step", "riemann",
    "run", "run_check", "run_gd", "run_rbo", "run_sam", "run_sgd", "sharpness",
    "sinusoid", "tangent_from_grad", "train_mlp",
    "value_and_grad",
]

"""Rolling-ball optimization and landscape geometry toolkit."""
from .geometry import (GridSpec, OffsetSamples, UnreachabilityReport,
                       count_local_minima, hausdorff_distance,
                       is_unreachable, memo_view, normal_from_grad,
                       offset_profile, offset_value, sharpness)
from .landscape import (Landscape, affine_plus_bump, catalogue_names,
                        eval_batch, make_landscape, quadratic, riemann,
                        sinusoid, value_and_grad)
from .neural import (Dataset, EpochStats, MlpSpec, as_landscape, evaluate,
                     find_mnist, init_params, load_idx, load_mnist,
                     loss_and_grad, param_count, train_mlp)
from .optimizer import (BallState, GraphPoint, ProjectionConfig,
                        ProjectionDivergence, StepRecord, Trajectory,
                        TrajectoryHeader, hyperparameters,
                        project_footpoint, run, run_gd, run_rbo, run_sam,
                        run_sgd)
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
    "affine_plus_bump", "as_landscape", "available_checks",
    "catalogue_names", "check_gd_limit", "check_linear_ironing",
    "check_open_unreachables", "check_sharp_minima", "check_smoothing",
    "check_weak_ironing", "count_local_minima", "eval_batch", "evaluate",
    "find_mnist", "hausdorff_distance", "hyperparameters", "init_params",
    "is_unreachable", "load_idx", "load_mnist", "loss_and_grad",
    "make_landscape", "memo_view", "normal_from_grad", "offset_profile",
    "offset_value", "param_count", "project_footpoint", "quadratic",
    "riemann", "run", "run_check", "run_gd", "run_rbo", "run_sam",
    "run_sgd", "sharpness", "sinusoid", "train_mlp", "value_and_grad",
]

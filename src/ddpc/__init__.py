"""Data-driven predictive control with causality-enforced predictors.

The package builds multistep predictors directly from recorded
input/output data via an LQ factorization of stacked Hankel matrices,
optionally restricts them to block-causal structure, and wraps them in
receding-horizon controllers solved by an in-house box-constrained ADMM
QP solver.  A benchmark harness reproduces the accompanying simulation
studies from plain config files.
"""

from .controllers import (
    VARIANTS,
    BoxConstraints,
    ControllerSpec,
    CostSpec,
    RolloutResult,
    StepResult,
    kf_predictor_matrices,
    kf_update,
    make_controller,
    run_receding_horizon,
)
from .errors import (
    ConfigError,
    DdpcError,
    DepthExceedsLength,
    DimensionMismatch,
    Diverged,
    MissingBaseline,
    RankDeficient,
    ZeroVariance,
)
from .lq import (
    CausalSplit,
    LqBlocks,
    causal_block_mask,
    causal_split,
    factorize,
    gamma1_of,
    load_lq_blocks,
    save_lq_blocks,
)
from .bench import (
    RECORD_FIELDS,
    ExperimentConfig,
    RunRecord,
    bundled_config_path,
    load_config,
    normalize_costs,
    run_single,
    run_sweep,
    select_best,
    tune,
    write_normalized,
    write_records,
    write_rollout_csv,
)
from .predictor import (
    Predictor,
    fit_causal,
    fit_causal_bruteforce,
    fit_residual,
    fit_spc,
    fit_spc_from_blocks,
    predict,
    write_predictor_csv,
)
from .qp import (
    BoxQpSolver,
    QpProblem,
    QpSettings,
    QpSolution,
    QpStatus,
    solve,
)
from .sim import (
    LinearFeedbackController,
    NonlinearWrapper,
    StateSpaceModel,
    collect_closed_loop,
    collect_open_loop,
    multisine,
    random_steps,
    rng_for,
    sine_reference,
    square_wave,
    step_lti,
    step_model,
    step_nonlinear,
)
from .trajectory import (
    ChannelScaling,
    HankelPartition,
    HorizonSpec,
    Trajectory,
    build_hankel,
    partition,
    persistency_order,
    read_trajectory_csv,
    stack_window,
    standardize,
    write_trajectory_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # trajectory
    "Trajectory", "HorizonSpec", "HankelPartition", "ChannelScaling",
    "build_hankel", "stack_window", "partition", "persistency_order",
    "standardize", "read_trajectory_csv", "write_trajectory_csv",
    # lq
    "LqBlocks", "CausalSplit", "factorize", "causal_block_mask",
    "causal_split", "gamma1_of", "save_lq_blocks", "load_lq_blocks",
    # predictor
    "Predictor", "fit_spc", "fit_spc_from_blocks", "fit_causal",
    "fit_causal_bruteforce", "predict", "fit_residual",
    "write_predictor_csv",
    # qp
    "QpProblem", "QpSettings", "QpSolution", "QpStatus", "BoxQpSolver",
    "solve",
    # sim
    "StateSpaceModel", "NonlinearWrapper", "LinearFeedbackController",
    "rng_for", "square_wave", "sine_reference", "random_steps", "multisine",
    "step_lti", "step_nonlinear", "step_model",
    "collect_open_loop", "collect_closed_loop",
    # controllers
    "VARIANTS", "CostSpec", "BoxConstraints", "ControllerSpec",
    "StepResult", "RolloutResult", "make_controller", "run_receding_horizon",
    "kf_update", "kf_predictor_matrices",
    # bench
    "ExperimentConfig", "RunRecord", "RECORD_FIELDS", "load_config",
    "bundled_config_path",
    "run_sweep", "run_single", "tune", "select_best", "normalize_costs",
    "write_records", "write_normalized", "write_rollout_csv",
    # errors
    "DdpcError", "DimensionMismatch", "DepthExceedsLength", "ZeroVariance",
    "RankDeficient", "Diverged", "MissingBaseline", "ConfigError",
]

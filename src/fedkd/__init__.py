"""Deterministic simulator and optimizer for distillation-driven
heterogeneous federated learning.

Submodules:
    model       domain types, channel/rate/delay physics, total objective
    allocator   KKT closed-form resource allocation
    qlearn      tabular agent over the joint offload/model action
    kd          toy-network distillation math with exact gradients
    accuracy    published test-accuracy lookups
    config      scenario JSON loading
    experiment  method runners, baselines, report emission
    cli         command-line entry points
"""

from .accuracy import DEFAULT_TABLE, AccuracyTable, acc_pair, lookup_acc
from .allocator import (
    AllocProblem,
    AllocResult,
    allocate,
    allocate_share,
    build_problem,
)
from .config import dump_scenario, load_scenario
from .experiment import ExperimentConfig, Report, emit_report, run_experiment
from .kd import (
    BlobSpec,
    DivergenceError,
    LossSpec,
    NetArch,
    NetParams,
    Projector,
    ToyDataset,
    distill_student,
    fedsgd_round,
    kd_loss,
    measure_accuracy,
    net_eval,
    simkd_loss,
    train_teacher,
)
from .model import (
    Allocation,
    ChannelSpec,
    Decision,
    DelayBreakdown,
    InfeasibleError,
    ModelSpec,
    ObjectiveWeights,
    Scenario,
    ServerSpec,
    TeacherSpec,
    UserSpec,
    channel_gain,
    default_scenario,
    delays,
    objective,
    tx_rate,
)
from .qlearn import QConfig, QTable, encode_state, exhaustive_optimum, train_loop

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

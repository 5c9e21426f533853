"""Imbalance-aware losses, solar-cycle embedding, forecast verification, and a
desk-scale trainer for 72-hour solar flare class prediction."""

from .core import (
    ClassWeights,
    ConfusionMatrix,
    FlareClass,
    SampleTable,
    ScoringMatrix,
    build_confusion,
    class_weights,
)
from .cycle import CycleConfig, cycle_phase
from .losses import LossBreakdown, flare_loss_arrays, softmax
from .metrics import (
    InfluenceEntry,
    MetricReport,
    bss_ge_m,
    build_report,
    gerrity_matrix,
    gmgs,
    gmgs_influence,
    harmonic_mean,
    tss_ge_m,
)
from .pipeline import (
    Fold,
    SplitSpec,
    apply_channel_policy,
    gen_synthetic,
    label_samples,
    split_timeseries,
)
from .trainer import Checkpoint, TrainConfig, TrainResult, adamw_step, forward, train

__version__ = "0.1.0"

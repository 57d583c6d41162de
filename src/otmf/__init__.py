"""Continual model merging with optimal-transport-trained task-vector masks."""

__version__ = "0.1.0"

from .baselines import BaselineConfig, baseline_fold
from .fusion import (
    FusionConfig,
    continual_merge,
    head_finetune,
    masked_fuse,
)
from .io import (
    load_batch,
    load_checkpoint,
    load_matrix,
    save_batch,
    save_checkpoint,
    save_features,
    save_matrix,
    save_report,
)
from .metrics import AccuracyMatrix, accuracy, bwt, l1_shift, sinkhorn_shift
from .models import Batch, ModelSpec, ToyModel, forward_features, forward_logits
from .sinkhorn import (
    SinkhornConfig,
    TransportPlan,
    pairwise_cost,
    sinkhorn_distance,
    sinkhorn_grad_features,
    sinkhorn_plan,
)
from .taskgen import TaskStreamSpec, generate_stream, subsample_labeled

"""Frozen query-transformer with per-modality low-rank adapters and gated fusion."""

from modfuse.bench import (
    BenchModality,
    BenchSpec,
    accuracy_by_template,
    gen_dataset,
    split_easy_hard,
    unimodal_bayes_accuracy,
)
from modfuse.config import RunConfig, build_model, load_config, parse_config
from modfuse.fusion import STRATEGIES, token_budget
from modfuse.model import FusionModel, ModelDims
from modfuse.tensor import (
    Adam,
    GradCheckReport,
    Tensor,
    adam_step,
    backward,
    broadcast_to,
    concat,
    cross_entropy,
    embedding,
    grad_check,
    layer_norm,
    matmul,
    no_grad,
    reshape,
    silu,
    softmax,
    tmean,
    transpose,
    tsum,
    zero_grads,
)
from modfuse.training import TrainConfig, evaluate, fit, predict_dataset

__version__ = "0.1.0"

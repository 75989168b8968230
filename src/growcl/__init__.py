"""growcl: a continual-learning engine with a grow-or-reuse prompt pool.

The engine trains small prompt tensors against a frozen encoder over a
class-incremental task stream, stores SVD bases of per-layer features in a
subspace memory, and decides per task whether to grow a new prompt set or
fold the task into an existing one based on hindrance angles between probe
gradients and stored subspaces.
"""

from growcl.decisions import (
    GrowDecision,
    HindranceRecord,
    apply_soft_constraint,
    compose_prompts,
    decide,
    select_transfer_sets,
)
from growcl.encoder import (
    EncoderConfig,
    FrozenBackbone,
    GradientVector,
    Head,
    PromptSet,
    forward_query,
)
from growcl.metrics import AccuracyMatrix, faa, ffm, pra, ssp
from growcl.pool import PromptPool
from growcl.stream import StreamSpec, generate
from growcl.subspace import (
    Basis,
    HfcValue,
    SubspaceError,
    extend_basis,
    hfc,
    k_rank_basis,
)
from growcl.trainer import Engine, SubspaceMemory, TrainConfig, run_stream

__all__ = [
    "AccuracyMatrix",
    "Basis",
    "EncoderConfig",
    "Engine",
    "FrozenBackbone",
    "GradientVector",
    "GrowDecision",
    "Head",
    "HfcValue",
    "HindranceRecord",
    "PromptPool",
    "PromptSet",
    "StreamSpec",
    "SubspaceError",
    "SubspaceMemory",
    "TrainConfig",
    "apply_soft_constraint",
    "compose_prompts",
    "decide",
    "extend_basis",
    "faa",
    "ffm",
    "forward_query",
    "generate",
    "hfc",
    "k_rank_basis",
    "pra",
    "run_stream",
    "select_transfer_sets",
    "ssp",
]

__version__ = "0.1.0"

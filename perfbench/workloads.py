"""The benchmark's workloads, each generated as growcl config text from a seed.

The settings are written out here rather than read from ``configs/`` so that
a later change to a shipped config cannot silently change what the benchmark
measures. ``paper-lw2g`` and ``reuse-train`` use the stream, encoder and
train settings of ``configs/comparison.cfg``; ``wide-grow`` keeps its encoder
and optimiser but widens the stream to twelve dissimilar tasks.
"""

from __future__ import annotations

_ENCODER = """\
[encoder]
d_model = 32
n_blocks = 2
n_heads = 4
prompt_len = 4
prompted_blocks = 0,1
input_dim = 48
n_feature_tokens = 4
"""

_TRAIN = """\
[train]
mode = {mode}
epochs = {epochs}
lr = 0.4
batch_size = 32
seed = {seed}
eps_task = 0.99
eps_pre = 0.99
phi = 0.5
n_fft = 1
pretrain_steps = 150
"""

_COMPARISON_STREAM = """\
[stream]
n_tasks = 6
classes_per_task = 3
dim = 48
samples_per_class = 60
seed = 2
similarity = 0,0,1,1,1,1
noise_scale = 0.2
mean_scale = 2.5
"""

_WIDE_STREAM = """\
[stream]
n_tasks = 12
classes_per_task = 2
dim = 48
samples_per_class = 100
seed = {stream_seed}
similarity = 0,0,0,0,0,0,0,0,0,0,0,0
noise_scale = 0.2
mean_scale = 2.5
"""

# Offset that keeps the wide stream's seed apart from the train seed, so the
# stream and the engine never draw from the same seed sequence.
_WIDE_STREAM_SEED_OFFSET = 10_000

# name -> the pool size every run must end with (None: the decisions set it).
# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {"paper-lw2g": None, "reuse-train": 1, "wide-grow": 12}


def config_text(workload: str, seed: int) -> str:
    """Config text for ``workload`` at benchmark seed ``seed``, which is the
    train seed; same seed, same text."""
    if workload == "paper-lw2g":
        return "\n".join([_COMPARISON_STREAM, _ENCODER, _TRAIN.format(mode="lw2g", epochs=6, seed=seed)])
    if workload == "reuse-train":
        return "\n".join([_COMPARISON_STREAM, _ENCODER, _TRAIN.format(mode="single_set", epochs=6, seed=seed)])
    if workload == "wide-grow":
        stream = _WIDE_STREAM.format(stream_seed=_WIDE_STREAM_SEED_OFFSET + seed)
        return "\n".join([stream, _ENCODER, _TRAIN.format(mode="grow_always", epochs=2, seed=seed)])
    raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")

#!/usr/bin/env python3
"""Demonstrate the no-forgetting guarantee under forced reuse.

Trains four tasks into a single prompt set with orthogonal-to-old-space
updates and prints, per task, the fraction of the parameter drift that
leaked into the stored span (should be ~1e-14) and the first task's
accuracy under ground-truth set selection (should not move).

Usage: python3 scripts/forced_reuse_drift.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from growcl.encoder import EncoderConfig
from growcl.stream import StreamSpec, generate
from growcl.trainer import TrainConfig, run_stream


def main():
    enc = EncoderConfig(d_model=48, n_blocks=2, n_heads=4, prompt_len=4,
                        prompted_blocks=(0, 1), input_dim=48, n_feature_tokens=4)
    cfg = TrainConfig(mode="single_set", epochs=5, lr=0.15, phi=1.0, n_fft=0,
                      seed=7, eps_task=0.999, eps_pre=0.999, pretrain_steps=300)
    spec = StreamSpec(n_tasks=4, classes_per_task=3, dim=48, samples_per_class=100,
                      seed=3, noise_scale=0.12, mean_scale=3.5)
    engine = run_stream(enc, cfg, generate(spec))
    for report in engine.reports:
        drift = {k: f"{v:.2e}" for k, v in report.drift_ratios.items()} or "(first task)"
        print(f"task {report.task}: {report.decision.describe():<9} drift into old span: {drift}")
    row = [f"{engine.matrix.a_oracle[0, t]:.4f}" for t in range(spec.n_tasks)]
    print(f"task 0 accuracy (oracle selection) after each task: {row}")
    ranks = {k: b.rank for k, b in engine.memory.old_spaces[0].items()}
    print(f"stored span ranks for the shared set: {ranks} (dim {enc.d_model})")


if __name__ == "__main__":
    main()

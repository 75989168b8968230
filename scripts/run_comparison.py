#!/usr/bin/env python3
"""Compare the grow-or-reuse engine against its two ablation modes.

Runs the comparison stream (six tasks, the last four similar to earlier
ones) under lw2g, grow_always and single_set for a few seeds and prints the
pool size, accuracy, retrieval and forgetting figures side by side.

Usage: python3 scripts/run_comparison.py [--seeds 1,3,5] [--config CFG]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from growcl.config import load_config
from growcl.metrics import faa, ffm, pra, ssp
from growcl.stream import generate
from growcl.trainer import run_stream
import dataclasses


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,3,5")
    ap.add_argument("--config", default=str(Path(__file__).resolve().parent.parent
                                            / "configs" / "comparison.cfg"))
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]

    _, (spec, enc_cfg, base_train) = load_config(args.config)
    data = generate(spec)
    print(f"stream: {spec.n_tasks} tasks x {spec.classes_per_task} classes, "
          f"similarity {list(spec.similarity_schedule)}")
    header = f"{'seed':>4} {'mode':<12} {'ssp':>3} {'faa':>7} {'pra':>7} {'ffm':>7} {'oracle':>7}"
    print(header)
    print("-" * len(header))
    t0 = time.time()
    for seed in seeds:
        for mode in ("lw2g", "grow_always", "single_set"):
            cfg = dataclasses.replace(base_train, mode=mode, seed=seed)
            engine = run_stream(enc_cfg, cfg, data)
            m = engine.matrix
            forgetting = f"{ffm(m):>7.3f}" if m.n_tasks > 1 else f"{'-':>7}"  # needs two tasks
            print(f"{seed:>4} {mode:<12} {ssp(engine.pool):>3} {faa(m):>7.3f} "
                  f"{pra(m):>7.3f} {forgetting} {faa(m, oracle=True):>7.3f}")
            if mode == "lw2g":
                decisions = ", ".join(r.decision.describe() for r in engine.reports)
                print(f"     decisions: {decisions}")
    print(f"total {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()

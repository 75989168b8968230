"""Run the benchmark over several seeds and workloads and summarise the spread.

    python3 perfbench/sweep.py                          # every workload, seeds 1-10
    python3 perfbench/sweep.py --workloads wide-grow --seeds 1-5
    python3 perfbench/sweep.py --trace-seed 1 --write perfbench/baseline.json

Each (workload, seed) is one ``run.py`` child process, started and waited
for one at a time, so no two runs share the machine. For every
end-to-end metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound in BENCHMARK.json; a spread at or above
a third of the bound is flagged. ``--trace-seed`` adds one traced run per
workload for the per-layer metrics. ``--write`` saves everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 900


def _seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_child(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark invocation; returns (env record, result object)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace-seed", type=int, help="also make one traced run at this seed")
    parser.add_argument("--write", type=Path, help="write the summary JSON here")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    summary = {"seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        if workload not in WORKLOADS:
            parser.error(f"unknown workload {workload!r}")
        results = []
        for seed in seeds:
            env, result = run_child(workload, seed, args.seconds, 0)
            summary.setdefault("env", {k: v for k, v in env.items()
                                       if k not in ("workload", "seed", "config_text")})
            results.append(result)
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"end_to_end": {}}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r in results])
            stats["unit"] = results[0]["metrics"][name]["unit"]
            stats["bound"] = bound
            entry["end_to_end"][name] = stats
            flag = ""
            if stats["spread"] >= bound / 3:
                flag = "  <-- spread >= bound/3"
                if name != "setup_s":  # setup_s is held to its median only
                    steady = False
            print(f"  {workload:12s} {name:12s} median={stats['median']:.6g} {stats['unit']} "
                  f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} spread={stats['spread']:.4f} "
                  f"bound={bound}{flag}", flush=True)
        if args.trace_seed is not None:
            _, traced = run_child(workload, args.trace_seed, args.seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_seed"] = args.trace_seed
        summary["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print("steady" if steady else "NOT steady: a spread is at or above a third of its bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

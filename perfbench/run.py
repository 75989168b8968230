"""growcl benchmark: one workload per invocation, a closed loop in one process.

    python3 perfbench/run.py --workload paper-lw2g --seed 1 --seconds 40 --trace 0

Each run is ``growcl.cli.main(["run", "--config", <workload cfg>, ...])``
itself: parse the generated config, generate the stream and build the
``Engine`` (set-up), then train and evaluate every task and write
report.json, trace.jsonl, metrics.csv, snapshot.bin and manifest.json (run).
The set-up ends when ``Engine.__init__`` returns; a hook on it notes that
moment and keeps the engine for the checks. Runs repeat one after another
until ``--seconds`` are used, at least ``MIN_RUNS`` of them; every run's
outputs are checked, and its report.json and trace.jsonl must equal the
first run's byte for byte.

``--trace 0`` prints the end-to-end metrics (medians over the runs).
``--trace 1`` alternates an untraced run with a run that has spans around
every layer's public functions, and prints the per-layer metrics of the
last traced run; ``trace.overhead_frac`` compares each traced run with the
untraced run just before it.
The last line of stdout is the JSON result; the line before it records the
environment and the config text, which ``growcl run --config`` replays.

Exit codes: 0 success; 1 a run raised or failed a check, or the engine
source under ``src/`` is missing; 2 usage error.
"""

from __future__ import annotations

import os

# BLAS threads are pinned in this process's own environment, before numpy
# loads its BLAS; no machine setting is changed.
THREAD_VARS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "growcl" / "__init__.py").is_file():
    sys.exit(f"perfbench: engine source not found at {SRC / 'growcl'}")
sys.dont_write_bytecode = True
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from growcl import cli  # noqa: E402
from growcl.trainer import Engine  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

# name -> (unit, better). The end-to-end set is printed with --trace 0, the
# per-layer set with --trace 1; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "encoder.pretrain_s": ("s", "lower"),
    "encoder.train_step_ms.p50": ("ms", "lower"),
    "encoder.train_step_ms.p90": ("ms", "lower"),
    "encoder.train_steps": ("count", "lower"),
    "encoder.encode_s": ("s", "lower"),
    "encoder.encode_calls": ("count", "lower"),
    "encoder.encode_rows": ("count", "lower"),
    "encoder.forward_query_s": ("s", "lower"),
    "encoder.forward_prompted_s": ("s", "lower"),
    "encoder.layers_s": ("s", "lower"),
    "encoder.query_unique_ratio": ("fraction", "higher"),
    "autodiff.backward_s": ("s", "lower"),
    "autodiff.backward_calls": ("count", "lower"),
    "autodiff.gelu_fwd_s": ("s", "lower"),
    "autodiff.gelu_calls": ("count", "lower"),
    "autodiff.softmax_fwd_s": ("s", "lower"),
    "autodiff.softmax_calls": ("count", "lower"),
    "autodiff.layer_norm_fwd_s": ("s", "lower"),
    "autodiff.layer_norm_calls": ("count", "lower"),
    "decisions.probe_s": ("s", "lower"),
    "decisions.probe_calls": ("count", "lower"),
    "decisions.probe_unique_ratio": ("fraction", "higher"),
    "decisions.project_gradient_s": ("s", "lower"),
    "decisions.project_gradient_calls": ("count", "lower"),
    "decisions.soft_constraint_s": ("s", "lower"),
    "decisions.select_transfer_s": ("s", "lower"),
    "subspace.basis_s": ("s", "lower"),
    "subspace.basis_calls": ("count", "lower"),
    "subspace.stored_rank": ("count", "lower"),
    "pool.retrieve_s": ("s", "lower"),
    "pool.retrieve_rows": ("count", "lower"),
    "pool.size": ("count", "lower"),
    "trainer.decide_s": ("s", "lower"),
    "trainer.transfer_s": ("s", "lower"),
    "trainer.train_s": ("s", "lower"),
    "trainer.finalize_s": ("s", "lower"),
    "trainer.evaluate_s": ("s", "lower"),
    "trainer.other_s": ("s", "lower"),
    "stream.generate_s": ("s", "lower"),
    "snapshot.save_s": ("s", "lower"),
    "snapshot.bytes": ("bytes", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in spans.LAYERS},
    "metrics.faa": ("fraction", "higher"),
    "metrics.pra": ("fraction", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

# Criterion 04's bound on the share of a reused set's drift inside its old span.
DRIFT_BOUND = 1e-5

# Fewest untraced runs per --trace 0 invocation, whatever --seconds says, so
# that every median is taken over at least three set-ups and runs.
MIN_RUNS = 3


class CheckFailed(Exception):
    pass


@dataclasses.dataclass
class Run:
    setup_s: float
    run_s: float
    engine: Engine
    report: dict
    outputs: bytes  # report.json followed by trace.jsonl, as written


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def engine_hook():
    """Note the time each ``Engine.__init__`` returns, with the engine."""
    built = []
    original = Engine.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append((perf_counter(), self))

    Engine.__init__ = init
    try:
        yield built
    finally:
        Engine.__init__ = original


def run_once(cfg_path: Path, out: Path) -> Run:
    """One ``growcl run`` of the config at ``cfg_path``, writing into ``out``."""
    with engine_hook() as built, contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        t2 = perf_counter()
    if code != 0:
        raise CheckFailed(f"growcl run exited with {code}")
    if len(built) != 1:
        raise CheckFailed(f"growcl run built {len(built)} engines, expected 1")
    t1, engine = built[0]
    report_bytes = (out / "report.json").read_bytes()
    return Run(t1 - t0, t2 - t1, engine, json.loads(report_bytes),
               report_bytes + (out / "trace.jsonl").read_bytes())


def check_run(workload: str, run: Run, out: Path):
    """Raise CheckFailed unless the run's outputs hold the workload's invariants."""
    problems = []
    decisions = run.report["decisions"]
    n_tasks = run.report["config"]["stream"]["n_tasks"]
    if len(decisions) != n_tasks:
        problems.append(f"{len(decisions)} decisions for {n_tasks} tasks")
    if not decisions or decisions[0] != "grow":
        problems.append(f"first decision is {decisions[:1]}, not grow")
    expected_ssp = WORKLOADS[workload]
    ssp = run.report["metrics"]["ssp"]
    if expected_ssp is not None and ssp != expected_ssp:
        problems.append(f"ssp {ssp}, expected {expected_ssp}")
    for task in run.engine.reports:
        if task.decision.is_grow:
            continue
        for segment, ratio in task.drift_ratios.items():
            if not ratio < DRIFT_BOUND:
                problems.append(f"task {task.task} {segment} drift ratio {ratio:.3g} >= {DRIFT_BOUND}")
    with open(out / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_tasks * (n_tasks + 1) // 2:
        problems.append(f"metrics.csv has {len(rows)} rows, expected every (task, after) pair")
    for column in ("acc", "acc_oracle"):
        if not all(0.0 <= float(row[column]) <= 1.0 for row in rows):
            problems.append(f"metrics.csv column {column} has entries outside [0, 1]")
    for key in ("faa", "pra"):
        if not 0.0 <= run.report["metrics"][key] <= 1.0:
            problems.append(f"{key} outside [0, 1]")
    if problems:
        raise CheckFailed("; ".join(problems))


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, text: str) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints instead of returning
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "config_text": text,
    }


def rounds(seconds: float, minimum: int):
    """Yield 0, 1, 2, ... until ``seconds`` are used, at least ``minimum`` times.

    No round starts once the median round so far would end past ``seconds``;
    so the whole loop, every run in it, counts against the budget.
    """
    start = perf_counter()
    walls = []
    while True:
        t = perf_counter()
        yield len(walls)
        walls.append(perf_counter() - t)
        if len(walls) >= minimum and perf_counter() - start + statistics.median(walls) > seconds:
            return


def bench(workload: str, text: str, seconds: float, trace: bool, out: Path):
    """Measure one workload on config ``text`` for ``seconds``.

    Returns the result object the last line prints, the (setup_s, run_s) of
    every untraced run, and the faa and pra of the first run's report.
    """
    attempted = failed = 0
    times = []
    metrics = {}
    quality = {}
    cfg_path = out / "workload.cfg"
    cfg_path.write_text(text)
    run_dir = out / "run"
    expected = None

    def checked(run):
        nonlocal expected
        check_run(workload, run, run_dir)
        if expected is None:
            expected = run.outputs
        elif run.outputs != expected:
            raise CheckFailed("report.json/trace.jsonl differ from the first run's")
        return run

    try:
        if not trace:
            for _ in rounds(seconds, MIN_RUNS):
                attempted += 1
                gc.collect()
                run = checked(run_once(cfg_path, run_dir))
                times.append((run.setup_s, run.run_s))
                if not quality:
                    quality = {key: run.report["metrics"][key] for key in ("faa", "pra")}
                run = None  # release the engine before the next run, for peak_rss_mb
            metrics = {
                "setup_s": statistics.median(t[0] for t in times),
                "run_s": statistics.median(t[1] for t in times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        else:
            overheads = []
            for _ in rounds(seconds, 1):
                attempted += 1
                gc.collect()
                plain = checked(run_once(cfg_path, run_dir))
                times.append((plain.setup_s, plain.run_s))
                plain = None
                attempted += 1
                gc.collect()
                tracer = spans.Tracer()
                tracer.install()
                try:
                    traced = run_once(cfg_path, run_dir)
                finally:
                    tracer.restore()
                checked(traced)
                wall_s = traced.setup_s + traced.run_s
                overheads.append(wall_s / sum(times[-1]) - 1.0)
                metrics = spans.layer_metrics(tracer, traced.engine, traced.run_s, wall_s,
                                              (run_dir / "snapshot.bin").stat().st_size)
                metrics.update({f"metrics.{key}": traced.report["metrics"][key]
                                for key in ("faa", "pra")})
                traced = None
            metrics["trace.overhead_frac"] = statistics.median(overheads)
    except Exception:  # noqa: BLE001 - any failure is counted and reported
        failed += 1
        traceback.print_exc()
    table = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]}
                    for name in table if name in metrics},
    }
    return result, times, quality


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")

    text = config_text(args.workload, args.seed)
    out = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result, times, quality = bench(args.workload, text, args.seconds, bool(args.trace), out)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    table = PER_LAYER if args.trace else END_TO_END
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"untraced_runs={len(times)} "
          f"failed_frac={result['failed'] / result['attempted']:.4g} "
          f"({result['failed']}/{result['attempted']})")
    print("  (setup_s, run_s) per untraced run: "
          + " ".join(f"({s:.3f}, {r:.3f})" for s, r in times))
    for name, entry in result["metrics"].items():
        print(f"  {name:32s} {entry['value']:>14.6g} {entry['unit']:9s} {table[name][1]} is better")
    if not args.trace:
        # Exact at a seed but spread widely across seeds, so not bounded metrics.
        for name, value in quality.items():
            print(f"  {name:32s} {value:>14.6g} fraction  higher is better (unbounded)")
    print(_json_line({"env": environment(args.workload, args.seed, text)}))
    print(_json_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

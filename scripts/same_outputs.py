#!/usr/bin/env python3
"""Check that the working tree writes the same bytes as an earlier commit.

    python scripts/same_outputs.py --parent REV

Exports commit REV of this repository with ``git archive`` into a temporary
directory, then makes the same 12 runs with each tree's ``src/``, each run a
fresh ``python -m growcl run`` process with BLAS pinned to one thread:

- ``configs/quick.cfg`` and ``configs/comparison.cfg``, each in the modes
  ``lw2g``, ``grow_always`` and ``single_set``;
- every benchmark workload at seeds 1 and 7, on the config text that
  ``perfbench/workloads.py`` generates.

Both trees read the working tree's config files and workload text, so only
the engine differs. The four deterministic files of every run
(report.json, trace.jsonl, metrics.csv, snapshot.bin; 48 in all) are
compared byte for byte. ``--parent HEAD`` on an unmodified checkout checks
that two processes write the same bytes.

Exit codes: 0 every file identical; 1 a file differs (each one is listed)
or a run failed; 2 usage error (REV names no commit).
"""

from __future__ import annotations

import argparse
import filecmp
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# import the workloads without writing bytecode next to them
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, config_text  # noqa: E402

OUTPUTS = ("report.json", "trace.jsonl", "metrics.csv", "snapshot.bin")
MODES = ("lw2g", "grow_always", "single_set")
SEEDS = (1, 7)
ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def runs(cfg_dir: Path) -> dict:
    """Run name -> the ``growcl run`` arguments before ``--out``."""
    out = {}
    for name in ("quick", "comparison"):
        for mode in MODES:
            out[f"{name}-{mode}"] = ["--config", str(ROOT / "configs" / f"{name}.cfg"), "--mode", mode]
    for workload in WORKLOADS:
        for seed in SEEDS:
            path = cfg_dir / f"{workload}-{seed}.cfg"
            path.write_text(config_text(workload, seed))
            out[f"{workload}-{seed}"] = ["--config", str(path)]
    return out


def export(rev: str, dest: Path):
    dest.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def run_tree(src: Path, plan: dict, out: Path) -> list:
    """Every run of ``plan`` under the engine in ``src``; returns the failed runs."""
    env = {**os.environ, **ENV, "PYTHONPATH": str(src)}
    failed = []
    for name, args in plan.items():
        proc = subprocess.run([sys.executable, "-m", "growcl", "run", *args, "--out", str(out / name)],
                              env=env, cwd=out, capture_output=True, text=True)
        if proc.returncode != 0:
            failed.append(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="commit to compare the working tree with")
    args = parser.parse_args(argv)
    rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                          f"{args.parent}^{{commit}}"], capture_output=True, text=True)
    if rev.returncode != 0:
        parser.error(f"{args.parent!r} names no commit")

    tmp = Path(tempfile.mkdtemp(prefix="same-outputs-"))
    try:
        export(rev.stdout.strip(), tmp / "parent")
        (tmp / "configs").mkdir()
        plan = runs(tmp / "configs")
        failed = []
        for tree, src in (("parent", tmp / "parent" / "src"), ("current", ROOT / "src")):
            (tmp / f"out-{tree}").mkdir()
            failed += [f"{tree} {line}" for line in run_tree(src, plan, tmp / f"out-{tree}")]
        if failed:
            print("\n".join(["runs failed:", *failed]))
            return 1
        differ = [f"{name}/{f}" for name in plan for f in OUTPUTS
                  if not filecmp.cmp(tmp / "out-parent" / name / f, tmp / "out-current" / name / f,
                                     shallow=False)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    total = len(plan) * len(OUTPUTS)
    if differ:
        print(f"{len(differ)} of {total} files differ from {args.parent}:")
        print("\n".join(f"  {path}" for path in differ))
        return 1
    print(f"all {total} files identical to {args.parent} ({len(plan)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

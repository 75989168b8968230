"""Evaluation bookkeeping: accuracy matrix, forgetting, retrieval accuracy.

``a[i][t]`` is the accuracy on task i's test set after training task t
(lower triangle, i <= t), under retrieval-selected prompts. An oracle grid
with ground-truth set selection is kept alongside as the upper bound.
Retrieval hit counters per (i, t) feed the retrieval-accuracy figure.

The caller guarantees the grids: ``Engine.evaluate_after`` is the only
writer, and records each cell once, with accuracies in [0, 1] and the task's
test size as the total; ``snapshot.restore_engine`` checks a restored
matrix against its stream the same way. The figures below read a finished
run, so every cell of the final column holds a value and a nonzero total;
``ffm`` needs at least two tasks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


@dataclass
class AccuracyMatrix:
    n_tasks: int
    a: np.ndarray = field(init=False)
    a_oracle: np.ndarray = field(init=False)
    retrieval_hits: np.ndarray = field(init=False)
    retrieval_totals: np.ndarray = field(init=False)

    def __post_init__(self):
        t = self.n_tasks
        self.a = np.full((t, t), np.nan)
        self.a_oracle = np.full((t, t), np.nan)
        self.retrieval_hits = np.zeros((t, t), dtype=int)
        self.retrieval_totals = np.zeros((t, t), dtype=int)

    def record(self, task_i: int, after_t: int, acc: float, oracle_acc: float,
               hits: int, total: int):
        self.a[task_i, after_t] = acc
        self.a_oracle[task_i, after_t] = oracle_acc
        self.retrieval_hits[task_i, after_t] = hits
        self.retrieval_totals[task_i, after_t] = total


def faa(m: AccuracyMatrix, oracle: bool = False) -> float:
    """Final average accuracy: mean of the last column of ``a`` (``a_oracle``
    with ``oracle``)."""
    return float((m.a_oracle if oracle else m.a)[:, m.n_tasks - 1].mean())


def ffm(m: AccuracyMatrix) -> float:
    """Final forgetting: mean over tasks of the worst drop to the final column."""
    t_final = m.n_tasks - 1
    last = m.a[:, t_final]
    return float(np.mean([np.max(m.a[i, i:t_final] - last[i]) for i in range(t_final)]))


def pra(m: AccuracyMatrix) -> float:
    """Mean per-task retrieval accuracy at the final column."""
    t_final = m.n_tasks - 1
    rates = m.retrieval_hits[:, t_final] / m.retrieval_totals[:, t_final]
    return float(rates.mean())


def ssp(pool) -> int:
    """Selectable sets of prompts: the pool size."""
    return len(pool.sets)


def per_task_summary(m: AccuracyMatrix) -> list:
    t_final = m.n_tasks - 1
    return [
        {
            "task": i,
            "final_acc": float(m.a[i, t_final]),
            "final_acc_oracle": float(m.a_oracle[i, t_final]),
            "retrieval_rate": m.retrieval_hits[i, t_final] / int(m.retrieval_totals[i, t_final]),
        }
        for i in range(m.n_tasks)
    ]


def write_csv(m: AccuracyMatrix, path):
    """Full grid as CSV: one row per evaluated (task, after) pair."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["task", "after_task", "acc", "acc_oracle", "retrieval_hits", "retrieval_totals"])
        for t in range(m.n_tasks):
            for i in range(t + 1):
                if np.isnan(m.a[i, t]):
                    continue
                w.writerow([
                    i, t, f"{m.a[i, t]:.10g}", f"{m.a_oracle[i, t]:.10g}",
                    int(m.retrieval_hits[i, t]), int(m.retrieval_totals[i, t]),
                ])

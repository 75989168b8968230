"""Evaluation bookkeeping: accuracy matrix, forgetting, retrieval accuracy.

``a[i][t]`` is the accuracy on task i's test set after training task t
(lower triangle, i <= t), under retrieval-selected prompts. An oracle grid
with ground-truth set selection is kept alongside as the upper bound.
Retrieval hit counters per (i, t) feed the retrieval-accuracy figure.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np


class MetricsError(ValueError):
    pass


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
        if task_i > after_t:
            raise MetricsError(f"cannot evaluate task {task_i} before training it (t={after_t})")
        if not 0.0 <= acc <= 1.0 or not 0.0 <= oracle_acc <= 1.0:
            raise MetricsError("accuracy outside [0, 1]")
        self.a[task_i, after_t] = acc
        self.a_oracle[task_i, after_t] = oracle_acc
        self.retrieval_hits[task_i, after_t] = hits
        self.retrieval_totals[task_i, after_t] = total


def faa(m: AccuracyMatrix, oracle: bool = False) -> float:
    """Final average accuracy: mean of the last column of ``a`` (``a_oracle``
    with ``oracle``)."""
    col = (m.a_oracle if oracle else m.a)[:, m.n_tasks - 1]
    if np.any(np.isnan(col)):
        raise MetricsError("accuracy matrix incomplete: final column has gaps")
    return float(col.mean())


def ffm(m: AccuracyMatrix) -> float:
    """Final forgetting: mean over tasks of the worst drop to the final column."""
    t_final = m.n_tasks - 1
    if m.n_tasks < 2:
        raise MetricsError("forgetting needs at least two tasks")
    last = m.a[:, t_final]
    if np.any(np.isnan(last)):
        raise MetricsError("accuracy matrix incomplete")
    drops = []
    for i in range(t_final):
        past = m.a[i, i:t_final]
        if np.any(np.isnan(past)):
            raise MetricsError(f"row {i} incomplete")
        drops.append(float(np.max(past - last[i])))
    return float(np.mean(drops))


def pra(m: AccuracyMatrix) -> float:
    """Mean per-task retrieval accuracy at the final column."""
    t_final = m.n_tasks - 1
    totals = m.retrieval_totals[:, t_final]
    if np.any(totals == 0):
        raise MetricsError("retrieval counters missing for the final column")
    rates = m.retrieval_hits[:, t_final] / totals
    return float(rates.mean())


def ssp(pool) -> int:
    """Selectable sets of prompts: the pool size."""
    return len(pool.sets)


def per_task_summary(m: AccuracyMatrix) -> list:
    t_final = m.n_tasks - 1
    out = []
    for i in range(m.n_tasks):
        totals = int(m.retrieval_totals[i, t_final])
        out.append(
            {
                "task": i,
                "final_acc": float(m.a[i, t_final]),
                "final_acc_oracle": float(m.a_oracle[i, t_final]),
                "retrieval_rate": (m.retrieval_hits[i, t_final] / totals) if totals else None,
            }
        )
    return out


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

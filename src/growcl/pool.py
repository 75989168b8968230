"""The prompt sets pool: storage, cosine retrieval, set-to-task registry.

The caller guarantees the registry: each task is assigned once, to a set in
the pool (``Engine.train_task`` assigns task ``tasks_done`` to the set it
has just added or probed, and ``snapshot.restore_engine`` checks that the
restored task lists hold each trained task once), so retrieval runs on a
pool with at least one set and ``set_for_task`` is asked only for an
assigned task.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from growcl.encoder import PromptSet


@dataclass
class PromptPool:
    sets: list = field(default_factory=list)  # ordered PromptSets, id == position
    assignments: dict = field(default_factory=dict)  # set id -> [task ids]

    def __len__(self) -> int:
        return len(self.sets)

    def set_for_task(self, task: int) -> int:
        return next(sid for sid, tasks in self.assignments.items() if task in tasks)

    def add_set(self, pset: PromptSet, task: int) -> int:
        """Grow the pool by one set and assign ``task`` to it."""
        sid = len(self.sets)
        pset.id = sid
        self.sets.append(pset)
        self.assignments[sid] = [task]
        return sid

    def assign_task(self, set_id: int, task: int):
        """Record that an existing set also serves ``task`` (a reuse)."""
        self.assignments[set_id].append(task)

    def retrieve_batch(self, queries: np.ndarray) -> np.ndarray:
        """Best-matching set id per query row by cosine(query, key); ties go
        to the lowest id, and a zero-norm query or key scores 0 everywhere."""
        q = _unit_rows(np.asarray(queries, dtype=np.float64))
        keys = _unit_rows(np.stack([pset.k for pset in self.sets]))
        return np.argmax(q @ keys.T, axis=1)


def _unit_rows(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    return np.divide(a, norms, out=np.zeros_like(a), where=norms > 0)

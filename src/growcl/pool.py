"""The prompt sets pool: storage, cosine retrieval, set-to-task registry."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from growcl.encoder import PromptSet


class PoolError(ValueError):
    pass


@dataclass
class PromptPool:
    sets: list = field(default_factory=list)  # ordered PromptSets, id == position
    assignments: dict = field(default_factory=dict)  # set id -> [task ids]

    def __len__(self) -> int:
        return len(self.sets)

    def assigned_tasks(self):
        return [t for tasks in self.assignments.values() for t in tasks]

    def set_for_task(self, task: int) -> int:
        for sid, tasks in self.assignments.items():
            if task in tasks:
                return sid
        raise PoolError(f"task {task} not assigned to any set")

    def add_set(self, pset: PromptSet, task: int) -> int:
        """Grow the pool by one set and assign ``task`` to it."""
        if task in self.assigned_tasks():
            raise PoolError(f"task {task} already assigned")
        sid = len(self.sets)
        pset.id = sid
        self.sets.append(pset)
        self.assignments[sid] = [task]
        return sid

    def assign_task(self, set_id: int, task: int):
        """Record that an existing set also serves ``task`` (a reuse)."""
        if set_id not in self.assignments:
            raise PoolError(f"unknown set id {set_id}")
        if task in self.assigned_tasks():
            raise PoolError(f"task {task} already assigned")
        self.assignments[set_id].append(task)

    def retrieve_batch(self, queries: np.ndarray) -> np.ndarray:
        """Best-matching set id per query row by cosine(query, key); ties go
        to the lowest id, and a zero-norm query or key scores 0 everywhere."""
        if not self.sets:
            raise PoolError("retrieve on empty pool")
        q = _unit_rows(np.asarray(queries, dtype=np.float64))
        keys = _unit_rows(np.stack([pset.k for pset in self.sets]))
        return np.argmax(q @ keys.T, axis=1)


def _unit_rows(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    return np.divide(a, norms, out=np.zeros_like(a), where=norms > 0)

"""Deterministic synthetic class-incremental task streams.

Each class is a Gaussian cluster around a unit-direction mean. A task's
"frame" is the orthonormal set of its class-mean directions; the similarity
schedule controls whether a task gets a fresh random frame (entry 0) or a
small perturbation of an earlier task's frame (entry 1), with intermediate
values blending the two. Class labels are globally disjoint and every split
is seeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Each class's samples split 80/20 into train and test rows.
TRAIN_FRACTION = 0.8
# A similar task's frame: its source frame turned by ROTATION_JITTER_DEG in a
# random plane, plus Gaussian noise of scale SHIFT_FRACTION on every entry.
ROTATION_JITTER_DEG = 10.0
SHIFT_FRACTION = 0.05


class StreamError(ValueError):
    pass


def n_train_per_class(samples_per_class: int) -> int:
    """Train rows per class under the 80/20 split; the rest are test rows."""
    return int(round(TRAIN_FRACTION * samples_per_class))


@dataclass(frozen=True)
class StreamSpec:
    n_tasks: int = 6
    classes_per_task: int = 4
    dim: int = 64
    similarity_schedule: tuple = ()
    samples_per_class: int = 100
    seed: int = 0
    noise_scale: float = 0.35
    mean_scale: float = 2.0

    def __post_init__(self):
        for name in ("n_tasks", "classes_per_task", "dim"):
            if getattr(self, name) < 1:
                raise StreamError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise StreamError(f"seed must be >= 0, got {self.seed}")
        n_train = n_train_per_class(self.samples_per_class)
        if not 0 < n_train < self.samples_per_class:
            raise StreamError(
                f"samples_per_class = {self.samples_per_class} splits into {n_train} train and "
                f"{self.samples_per_class - n_train} test rows per class; both need a row"
            )
        for name in ("noise_scale", "mean_scale"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise StreamError(f"{name} must be finite and >= 0, got {v}")
        sched = tuple(self.similarity_schedule) or tuple(0.0 for _ in range(self.n_tasks))
        if len(sched) != self.n_tasks:
            raise StreamError(f"schedule length {len(sched)} != n_tasks {self.n_tasks}")
        if any(not 0.0 <= s <= 1.0 for s in sched):
            raise StreamError("similarity entries must lie in [0, 1]")
        if self.classes_per_task > self.dim:
            raise StreamError("need dim >= classes_per_task for an orthonormal frame")
        object.__setattr__(self, "similarity_schedule", sched)

    def classes_of(self, task: int):
        lo = task * self.classes_per_task
        return list(range(lo, lo + self.classes_per_task))


@dataclass
class TaskDataset:
    task_id: int
    class_ids: list
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    frame: np.ndarray  # [dim, classes_per_task] class-mean directions


def _random_frame(rng, dim, k):
    q, _ = np.linalg.qr(rng.standard_normal((dim, k)))
    return q


def _rotate_in_random_plane(rng, frame, angle_rad):
    """Apply one Givens rotation in a random 2-d plane to every frame column."""
    dim = frame.shape[0]
    plane = _random_frame(rng, dim, 2)
    u, v = plane[:, 0], plane[:, 1]
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    rot = np.eye(dim) + (c - 1.0) * (np.outer(u, u) + np.outer(v, v)) + s * (
        np.outer(v, u) - np.outer(u, v)
    )
    return rot @ frame


def generate(spec: StreamSpec):
    """Materialize the full stream; same spec always yields identical bits."""
    root = np.random.SeedSequence(spec.seed)
    task_seeds = root.spawn(spec.n_tasks)
    frames = []
    datasets = []
    for t in range(spec.n_tasks):
        rng = np.random.default_rng(task_seeds[t])
        sim = spec.similarity_schedule[t] if t > 0 else 0.0
        fresh = _random_frame(rng, spec.dim, spec.classes_per_task)
        if sim > 0.0 and frames:
            source = frames[int(rng.integers(0, t))]
            jittered = _rotate_in_random_plane(rng, source, np.radians(ROTATION_JITTER_DEG))
            shift = SHIFT_FRACTION * rng.standard_normal(jittered.shape)
            derived = jittered + shift
            blended = sim * derived + (1.0 - sim) * fresh
            frame = blended / np.linalg.norm(blended, axis=0, keepdims=True)
        else:
            frame = fresh
        frames.append(frame)

        class_ids = spec.classes_of(t)
        xs, ys = [], []
        for j, cls in enumerate(class_ids):
            mean = spec.mean_scale * frame[:, j]
            pts = mean + spec.noise_scale * rng.standard_normal((spec.samples_per_class, spec.dim))
            xs.append(pts)
            ys.append(np.full(spec.samples_per_class, cls, dtype=int))
        x = np.vstack(xs)
        y = np.concatenate(ys)

        # 80/20 split per class, seeded
        train_idx, test_idx = [], []
        for j in range(spec.classes_per_task):
            idx = np.arange(j * spec.samples_per_class, (j + 1) * spec.samples_per_class)
            rng.shuffle(idx)
            cut = n_train_per_class(spec.samples_per_class)
            train_idx.append(idx[:cut])
            test_idx.append(idx[cut:])
        train_idx = np.concatenate(train_idx)
        test_idx = np.concatenate(test_idx)
        datasets.append(
            TaskDataset(
                task_id=t,
                class_ids=class_ids,
                x_train=x[train_idx],
                y_train=y[train_idx],
                x_test=x[test_idx],
                y_test=y[test_idx],
                frame=frame,
            )
        )
    return datasets


"""Per-task orchestration: probe, decide, train under constraints, store spaces.

One engine is one run: it owns its task stream and accuracy matrix, a
frozen backbone, the unified head, the prompt pool (each set with its frozen
transfer rows) and the stored spaces of the pool's sets; its constructor
takes exactly that state and makes the backbone read-only. ``Engine.fresh``
starts a run: it checks that no two tasks share a class, seeds the RNG,
draws the backbone, pretrains it on a ``PRETRAIN_CLASSES``-class synthetic
task at step size ``PRETRAIN_LR`` and draws the head over the stream's
classes. ``snapshot.restore_engine`` calls the same constructor with the
state read from a file and the regenerated stream. ``train_task`` trains
task ``tasks_done`` (``TrainerError`` once every task is trained), and
``evaluate_after`` fills that task's column of ``matrix``.

For each task the engine (1) probes every pool set's own prompts, without
its frozen transfer rows, once each, and only when the decision (``lw2g``)
or transfer ranking (``grow_always`` with ``n_fft > 0``) reads the gradients
(a non-finite loss or gradient, or a zero gradient, raises ``TrainerError``
naming the task and the set), (2) decides grow-or-reuse (the first task
always grows; ``grow_always`` and ``single_set`` bypass the decision), (3)
trains the chosen set with the soft pre-trained-knowledge constraint and,
when the set has a stored space, the orthogonal-to-old-space condition, with
frozen transfer prompts joined behind its own in each block's attention
prefix (chosen once, when the set grows: a reused set keeps the frozen rows
its earlier tasks were trained with), (4) builds the set's stored feature
space, or extends the one it has, and (5) commits. Steps 1-4 work on
copies of the RNG, the head and a reused set; the commit, the task's last
step, hands the engine those copies, the stored space and the pool entry,
so a ``train_task`` that raises leaves the whole engine as it was and a
retry trains the task exactly as an uninterrupted run does.
Every step reads the engine's own state: the step size from ``cfg``, a
set's stored space from ``memory`` and its frozen rows from the set itself.
The task's pre-trained space lives only while ``train_task`` runs: the
decision floor and the soft constraint read it, and nothing after.

Every per-segment quantity follows the encoder's segment map (``block{b}``
per prompted block, then ``key``): layer reps become stored spaces under
the same names, gradients are projected against them segment by segment,
and drift ratios are reported under them too.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from growcl.decisions import (
    GradientProbe,
    GrowDecision,
    HindranceRecord,
    apply_soft_constraint,
    compose_prompts,
    decide,
    hindrance,
    project_gradient,
    select_transfer_sets,
    trace_record,
)
from growcl.encoder import (
    EncoderConfig,
    FrozenBackbone,
    GradientVector,
    Head,
    NonFiniteError,
    PromptSet,
    class_mask_bias,
    forward_query,
    loss_and_grads,
    pretrain_backbone,
    prompted_features,
    prompted_with_layers,
    query_with_layers,
    segment_map,
)
from growcl.metrics import AccuracyMatrix
from growcl.pool import PromptPool
from growcl.stream import StreamSpec, generate
from growcl.subspace import extend_basis, k_rank_basis, project_rows

MODES = ("lw2g", "grow_always", "single_set")


class TrainerError(ValueError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    eps_task: float = 0.95
    eps_pre: float = 0.95
    phi: float = 0.5
    n_fft: int = 1
    epochs: int = 5
    batch_size: int = 32
    lr: float = 0.1
    seed: int = 0
    mode: str = "lw2g"
    probe_samples: int = 256
    space_samples: int = 512
    pretrain_steps: int = 120

    def __post_init__(self):
        for name in ("eps_task", "eps_pre"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise TrainerError(f"{name} must be in (0, 1], got {v}")
        if not 0.0 <= self.phi <= 1.0:
            raise TrainerError(f"phi must be in [0, 1], got {self.phi}")
        if self.mode not in MODES:
            raise TrainerError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n_fft < 0 or self.epochs < 1 or self.batch_size < 1:
            raise TrainerError("n_fft >= 0, epochs >= 1, batch_size >= 1 required")
        for name in ("probe_samples", "space_samples"):
            if getattr(self, name) < 1:
                raise TrainerError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("pretrain_steps", "seed"):
            if getattr(self, name) < 0:
                raise TrainerError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise TrainerError(f"lr must be finite and > 0, got {self.lr}")


@dataclass
class SubspaceMemory:
    """Stored per-segment bases of each pool set's old tasks."""

    old_spaces: dict = field(default_factory=dict)  # set id -> {segment: Basis}


@dataclass
class TaskReport:
    task: int
    set_id: int
    decision: GrowDecision
    trace: dict
    drift_ratios: dict  # segment -> ||proj_old(delta)|| / ||delta|| (reuse only)


def head_width(datasets) -> int:
    """The head's class count over the stream: one column per class up to
    the largest; raises when two tasks share a class."""
    classes = [c for ds in datasets for c in ds.class_ids]
    if len(set(classes)) != len(classes):
        raise TrainerError("two tasks of the stream share a class")
    return max(classes) + 1


# Backbone pretraining runs on a one-task synthetic stream of PRETRAIN_CLASSES
# classes, stepped at PRETRAIN_LR for ``TrainConfig.pretrain_steps`` steps.
PRETRAIN_CLASSES = 8
PRETRAIN_LR = 0.05


class Engine:
    """A single continual run over its ordered task stream ``datasets``."""

    def __init__(self, enc_cfg: EncoderConfig, cfg: TrainConfig, rng: np.random.Generator,
                 backbone: FrozenBackbone, head: Head, pool: PromptPool, memory: SubspaceMemory,
                 datasets: list, matrix: AccuracyMatrix, tasks_done: int):
        self.enc_cfg = enc_cfg
        self.cfg = cfg
        self.rng = rng
        self.backbone = backbone
        self.head = head
        self.pool = pool
        self.memory = memory
        self.datasets = datasets
        self.matrix = matrix
        self.tasks_done = tasks_done
        backbone.freeze()
        self.reports = []
        self.test_queries = {}  # task index -> its test set's promptless features
        # set id -> {task index -> (where, feats)}: test row r has not been
        # encoded under the set while where[r] < 0; then its features are
        # feats[where[r]]. A set's entry goes when a task that trains it commits.
        self.test_features = {}

    @classmethod
    def fresh(cls, enc_cfg: EncoderConfig, cfg: TrainConfig, datasets: list) -> "Engine":
        """A new run's engine over ``datasets``: check that no two tasks share
        a class, seed the RNG from ``cfg.seed``, draw and pretrain the
        backbone, then draw the head over every class of the stream. The
        constructor freezes the backbone."""
        n_classes = head_width(datasets)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
        backbone = FrozenBackbone.init(enc_cfg, rng)
        if cfg.pretrain_steps > 0:
            spec = StreamSpec(
                n_tasks=1,
                classes_per_task=PRETRAIN_CLASSES,
                dim=enc_cfg.input_dim,
                samples_per_class=40,
                seed=int(rng.integers(0, 2**31)),
            )
            pre = generate(spec)[0]
            try:
                pretrain_backbone(
                    backbone, pre.x_train, pre.y_train, steps=cfg.pretrain_steps,
                    lr=PRETRAIN_LR, batch_size=cfg.batch_size, rng=rng,
                )
            except NonFiniteError as exc:
                raise TrainerError(f"pretraining, {exc}") from exc
        head = Head.init(enc_cfg.d_model, n_classes, rng)
        return cls(enc_cfg, cfg, rng, backbone, head, PromptPool(), SubspaceMemory(),
                   datasets, AccuracyMatrix(len(datasets)), 0)

    @property
    def seen_classes(self) -> list:
        """The classes of the trained tasks, in task order."""
        return [c for ds in self.datasets[: self.tasks_done] for c in ds.class_ids]

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _spaces_from_reps(reps: dict, eps: float, old: dict | None = None):
        """Per-segment basis build (or extension of ``old``'s, when given)."""
        spaces = {}
        for name, rows in reps.items():
            if old is None:
                spaces[name] = k_rank_basis(rows, eps)
            else:
                spaces[name] = extend_basis(old[name], rows, eps)
        return spaces

    @staticmethod
    def _subset(rng: np.random.Generator, n: int, cap: int) -> np.ndarray:
        return rng.choice(n, size=min(cap, n), replace=False)

    # -- core per-task operations --------------------------------------------------

    def orthogonal_step(self, pset: PromptSet, grad: GradientVector):
        """Step ``cfg.lr`` along the component of the gradient orthogonal to
        the set's stored space (plain step when it has none yet)."""
        old_spaces = self.memory.old_spaces.get(pset.id)
        if old_spaces:
            grad = project_gradient(grad, old_spaces, complement=True)
        pset.p -= self.cfg.lr * grad.p
        pset.k -= self.cfg.lr * grad.k

    def finalize_task_space(self, pset: PromptSet, dataset, rng: np.random.Generator) -> dict:
        """The trained set's stored space, returned, not stored: built from,
        or (a set that has one) extended by, its reps of ``space_samples`` of
        the task's training rows, drawn from ``rng``."""
        idx = self._subset(rng, len(dataset.x_train), self.cfg.space_samples)
        _, reps = prompted_with_layers(self.backbone, pset, dataset.x_train[idx])
        old = self.memory.old_spaces.get(pset.id)
        return self._spaces_from_reps(reps, self.cfg.eps_task, old=old)

    def train_task(self) -> TaskReport:
        """Run the full per-task pipeline on the stream's next task and return
        its report. The task works on copies of the RNG, the head and a
        reused set, and the engine changes only in the commit block at the
        end, so a task that raises leaves the engine as it was and a retry
        trains the uninterrupted run's task."""
        cfg = self.cfg
        task_id = self.tasks_done
        if task_id == len(self.datasets):
            raise TrainerError(f"all {task_id} tasks of the stream are trained")
        dataset = self.datasets[task_id]
        classes = tuple(dataset.class_ids)
        rng = copy.deepcopy(self.rng)
        head = Head(self.head.w.copy(), self.head.b.copy())
        x, y = dataset.x_train, dataset.y_train
        probe_idx = self._subset(rng, len(x), cfg.probe_samples)

        # One promptless pass over the training rows gives the key-loss
        # queries and, at the probe subset, the reps of this task's
        # pre-trained space (reused by the decision floor and the soft
        # constraint).
        q_all, reps = query_with_layers(self.backbone, x)
        pre_reps = {name: rows[probe_idx] for name, rows in reps.items()}
        pre_space = self._spaces_from_reps(pre_reps, cfg.eps_pre)

        grads = self._probe(task_id, dataset, probe_idx)
        decision = self._decide(grads, pre_space)

        if decision.is_grow:
            before = None
            pset = PromptSet.init(self.enc_cfg, rng, set_id=len(self.pool))
            self._attach_transfer_prompts(pset, grads)
        else:
            before = self.pool.sets[decision.reuse_id]
            pset = PromptSet(before.p.copy(), before.k.copy(), before.id, before.extra, before.sources)
        sid = pset.id

        for epoch in range(cfg.epochs):
            order = rng.permutation(len(x))
            for lo in range(0, len(order), cfg.batch_size):
                batch = order[lo : lo + cfg.batch_size]
                q_bar = q_all[batch].mean(axis=0)
                try:
                    _, grad, gw, gb = loss_and_grads(
                        self.backbone, head, pset, x[batch], y[batch], classes, q_bar=q_bar
                    )
                except NonFiniteError as exc:
                    raise TrainerError(f"task {task_id}, epoch {epoch}, set {sid}: {exc}") from exc
                grad = apply_soft_constraint(grad, cfg.phi, pre_space)
                self.orthogonal_step(pset, grad)
                head.w -= cfg.lr * gw
                head.b -= cfg.lr * gb

        drift = self._drift_ratios(pset, before)
        space = self.finalize_task_space(pset, dataset, rng)

        # the commit: nothing above writes to the engine
        self.rng, self.head = rng, head
        self.memory.old_spaces[sid] = space
        if decision.is_grow:
            self.pool.add_set(pset, task_id)
        else:
            self.pool.sets[sid] = pset
            self.pool.assign_task(sid, task_id)
        # a reused set's cached test features are stale (a grown set has none)
        self.test_features.pop(sid, None)
        self.tasks_done += 1
        row = trace_record(task_id, decision, self.pool.assignments)
        report = TaskReport(task_id, sid, decision, row, drift)
        self.reports.append(report)
        return report

    # -- decision plumbing ---------------------------------------------------------

    def _probe(self, task_id: int, dataset, idx: np.ndarray) -> dict:
        """Every pool set's probe gradient by set id over the task's training
        rows ``idx``, cut into ``batch_size`` batches, or none when nothing
        reads them: the decision reads them in ``lw2g``, transfer in
        ``grow_always`` when ``n_fft > 0``. Every gradient returned is finite
        and nonzero; any other raises ``TrainerError`` naming the task and
        the set."""
        read = self.cfg.mode == "lw2g" or (self.cfg.mode == "grow_always" and self.cfg.n_fft > 0)
        if not read:
            return {}
        x, y, bs = dataset.x_train[idx], dataset.y_train[idx], self.cfg.batch_size
        probe = GradientProbe(self.backbone, self.head, tuple(dataset.class_ids),
                              [(x[i : i + bs], y[i : i + bs]) for i in range(0, len(x), bs)])
        grads = {}
        for pset in self.pool.sets:
            try:
                grad = probe.gradient(pset)
            except NonFiniteError as exc:
                failure = exc
            else:
                failure = None if grad.norm else "degenerate subset batch: zero probe gradient"
            if failure is not None:
                raise TrainerError(f"task {task_id}, set {pset.id}: {failure}")
            grads[pset.id] = grad
        return grads

    def _decide(self, grads: dict, pre_space: dict) -> GrowDecision:
        if self.tasks_done == 0 or self.cfg.mode == "grow_always":
            return GrowDecision(None, ())
        if self.cfg.mode == "single_set":
            return GrowDecision(0, ())
        records = [HindranceRecord(sid, hindrance(g, self.memory.old_spaces[sid]), hindrance(g, pre_space))
                   for sid, g in grads.items()]
        return decide(records)

    def _attach_transfer_prompts(self, pset: PromptSet, grads: dict):
        """Pick the sets whose stored spaces capture most of the task gradient
        and freeze copies of their prompts behind ``pset``'s own, ranking the
        probe gradients ``grads`` of the sets that existed before it. Runs
        once per set, when it grows: a reused set keeps the frozen rows its
        earlier tasks were trained with, which the orthogonal projection of
        its own prompts cannot guard."""
        chosen = select_transfer_sets(grads, self.memory.old_spaces, self.cfg.n_fft)
        pset.extra = compose_prompts(pset, [self.pool.sets[c] for c in chosen])
        pset.sources = chosen

    def _drift_ratios(self, pset: PromptSet, before: PromptSet | None) -> dict:
        """Per-segment fraction of the drift from ``before`` to ``pset`` that
        lies inside the set's stored space; near zero certifies the
        orthogonal condition held. None: the set has just grown, no ratios."""
        if before is None:
            return {}
        deltas = segment_map(self.enc_cfg, pset.p - before.p, (pset.k - before.k)[None])
        ratios = {}
        for name, basis in self.memory.old_spaces[pset.id].items():
            delta = deltas[name]
            total = float(np.linalg.norm(delta))
            if total < 1e-9:
                # below accumulated float roundoff: the segment did not move
                ratios[name] = 0.0
                continue
            ratios[name] = float(np.linalg.norm(project_rows(delta, basis)) / total)
        return ratios

    # -- evaluation ------------------------------------------------------------------

    def evaluate_after(self):
        """Fill the last trained task's column of ``matrix``.

        The main grid follows the class-incremental protocol: retrieval picks
        the set, logits range over every class seen so far. The oracle grid is
        the task-identity upper bound: ground-truth set and logits restricted
        to the task's own classes. A test row is encoded only under the sets
        that read it (the one retrieval picks, and the task's own set for the
        oracle), once per set until a task that trains that set commits.
        """
        seen = self.seen_classes
        for i, ds in enumerate(self.datasets[: self.tasks_done]):
            q = self.test_queries.get(i)
            if q is None:
                # the backbone is frozen, so a test set's queries never change
                q = self.test_queries[i] = forward_query(self.backbone, ds.x_test)
            retrieved = self.pool.retrieve_batch(q)
            true_sid = self.pool.set_for_task(i)
            hits = int(np.sum(retrieved == true_sid))
            # the oracle reads every row under the task's own set, so it goes
            # first: one encoder call covers the rows the main grid reads there
            oracle = self._accuracy(i, np.full(len(ds.y_test), true_sid), ds.class_ids)
            acc = self._accuracy(i, retrieved, seen)
            self.matrix.record(i, self.tasks_done - 1, acc, oracle, hits, len(ds.y_test))

    def _test_features(self, sid: int, task: int, rows: np.ndarray) -> np.ndarray:
        """Features of rows ``rows`` of task ``task``'s test set under set
        ``sid``. Only rows not encoded before are encoded, in one call; the
        cache keeps the features of every encoded row until a task that
        trains the set commits."""
        x_test = self.datasets[task].x_test
        cache = self.test_features.setdefault(sid, {})
        where, feats = cache.get(task, (np.full(len(x_test), -1), np.empty((0, self.enc_cfg.d_model))))
        missing = rows[where[rows] < 0]
        if len(missing):
            new = prompted_features(self.backbone, self.pool.sets[sid], x_test[missing])
            where[missing] = np.arange(len(feats), len(feats) + len(missing))
            feats = np.concatenate([feats, new])
        cache[task] = (where, feats)
        return feats[where[rows]]

    def _accuracy(self, task: int, set_ids: np.ndarray, seen_classes) -> float:
        ds = self.datasets[task]
        bias = class_mask_bias(self.head.n_classes, seen_classes)
        correct = 0
        # sorted(set(...)), not np.unique: np.unique imports numpy.ma (numpy
        # >= 2), which nothing else in a run loads
        for sid in sorted(set(set_ids.tolist())):
            rows = np.flatnonzero(set_ids == sid)
            feats = self._test_features(sid, task, rows)
            logits = feats @ self.head.w + self.head.b + bias
            correct += int(np.sum(logits.argmax(axis=1) == ds.y_test[rows]))
        return correct / len(ds.y_test)


def run_stream(enc_cfg: EncoderConfig, cfg: TrainConfig, datasets) -> Engine:
    """Train every task in order, evaluating all seen tasks after each one."""
    engine = Engine.fresh(enc_cfg, cfg, datasets)
    for _ in datasets:
        engine.train_task()
        engine.evaluate_after()
    return engine

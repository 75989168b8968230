"""Grow-or-reuse decision logic and the gradient surgery around it.

Before each task (after the first), every pool set is probed once: the
task's gradient on that set's own prompts, without its frozen transfer rows,
is measured against the orthogonal complement of the set's stored feature
space (the hindrance the orthogonal update rule would impose), and the same
gradient against the complement of the task's pre-trained space (the
hindrance floor an unencumbered set would face). The gap
z = hindrance_old - hindrance_floor drives the decision: grow a new set when
every gap is positive, otherwise fold the task into the set with the
smallest gap.

A set's probe gradient is the mean of its batches' ``loss_and_grads``
gradients (no update): the training step's cross-entropy gradient,
averaged. ``GradientProbe`` takes them from ``batch_grads``, which packs
consecutive batches into encoder passes of up to ``ROW_BLOCK`` rows and gives
each batch the bits of a pass of its own.
The engine probes each pool set once per task, accepts only a finite,
nonzero gradient, and hands the gradients to both readers: the decision and
transfer ranking.

Stored spaces are per segment, keyed by the encoder's segment names
(``block{b}`` per prompted block, then ``key``), and every projection here
walks a gradient's ``segments()``: each segment's rows are projected onto
(or off) the basis stored under the same name, which every space map holds.

Also here: the soft constraint that keeps updates consistent with the
pre-trained feature space, selection of frozen transfer prompts, and the
composition of active + frozen prompt tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from growcl.encoder import GradientVector, Head, PromptSet, batch_grads
from growcl.subspace import HfcValue, hfc, project_rows


@dataclass(frozen=True)
class HindranceRecord:
    """Per-set probe result; z is the hindrance gap in radians."""

    set_id: int
    hfc_old: HfcValue
    hfc_pre: HfcValue

    @property
    def z(self) -> float:
        return self.hfc_old.angle - self.hfc_pre.angle

    @property
    def z_degrees(self) -> float:
        return math.degrees(self.z)


@dataclass(frozen=True)
class GrowDecision:
    reuse_id: int | None  # None: grow a new set
    records: tuple

    @property
    def is_grow(self) -> bool:
        return self.reuse_id is None

    def describe(self) -> str:
        return "grow" if self.is_grow else f"reuse({self.reuse_id})"


def decide(records) -> GrowDecision:
    """Grow iff every hindrance gap is positive, else reuse the min-gap set.
    ``records`` holds at least one record: the first task grows without a
    decision."""
    records = tuple(records)
    best = min(records, key=lambda r: (r.z, r.set_id))
    if best.z > 0.0:
        return GrowDecision(None, records)
    return GrowDecision(best.set_id, records)


# -- lifting bases onto the flat prompt gradient ------------------------------


def project_gradient(grad: GradientVector, spaces: dict, complement: bool = False) -> GradientVector:
    """Apply per-segment span (or complement) projections to a gradient.

    ``spaces`` maps every segment name to a Basis in the feature dimension;
    each segment is projected row-wise (every row lives in feature space).
    """
    parts = []
    for name, rows in grad.segments().items():
        proj = project_rows(rows, spaces[name])
        parts.append(rows - proj if complement else proj)
    return GradientVector(np.concatenate(parts).ravel(), grad.cfg)


def hindrance(grad: GradientVector, spaces: dict) -> HfcValue:
    """Angle between a gradient and its projection onto the complement of
    the stored spaces (the part an orthogonal update would keep). ``grad``
    is nonzero: ``hfc`` rejects a zero gradient.

    The decision takes it twice per probed set: against the set's own stored
    space (every set that has finished a task has one, for every segment),
    and against the task's pre-trained feature space, the hindrance floor."""
    surviving = project_gradient(grad, spaces, complement=True)
    return hfc(grad.flat, surviving.flat)


@dataclass
class GradientProbe:
    """The mean ``loss_and_grads`` gradient over a fixed subset, no updates.

    Probing uses cross-entropy only (no ``q_bar``): the key segment of probe
    gradients is zero. A probe measures a set's own prompts without its
    frozen transfer rows. One probe serves one task, before any set trains.
    """

    backbone: object
    head: Head
    head_mask: tuple
    batches: list  # [(x, y), ...], at least one

    def gradient(self, pset: PromptSet) -> GradientVector:
        """``pset``'s probe gradient: the ``loss_and_grads`` gradients of its
        batches, summed in batch order and divided by the batch count. The
        batches run in ``batch_grads``' packs of rows. Raises
        ``NonFiniteError`` when a loss or gradient is not finite; the engine
        names the task and the set."""
        # probes measure bare sets: a method choice, open until runs record
        # each set's angles with its frozen rows as well (ROADMAP)
        bare = PromptSet(pset.p, pset.k, pset.id)
        grads = batch_grads(self.backbone, self.head, bare, self.batches, self.head_mask)
        acc = grads[0][1].flat
        for _, grad, _, _ in grads[1:]:
            acc = acc + grad.flat
        return GradientVector(acc / len(self.batches), self.backbone.config)


# the benchmark's tracer (perfbench/spans.py) wraps ``hindrance`` through
# these names, so they stay until the tracer names ``hindrance`` itself
hindrance_for_old_set = dynamic_threshold = hindrance


# -- soft pre-trained-knowledge constraint ------------------------------------


def apply_soft_constraint(grad: GradientVector, phi: float, pre_space: dict) -> GradientVector:
    """Remove a (1 - phi) fraction of the gradient's component inside the
    pre-trained feature space: g - (1 - phi) * Proj_pre(g) at every phi, which
    gives ``grad``'s values at ``phi = 1``. ``TrainConfig`` keeps phi in [0, 1]."""
    proj = project_gradient(grad, pre_space)
    return GradientVector(grad.flat - (1.0 - phi) * proj.flat, grad.cfg)


# -- frozen-prompt transfer selection ------------------------------------------


def transfer_score(grad: GradientVector, spaces: dict) -> float:
    """Fraction of the gradient's (nonzero) norm lying inside the stored space."""
    return project_gradient(grad, spaces).norm / grad.norm


def select_transfer_sets(grads: dict, spaces_by_set: dict, n: int):
    """The ``n`` set ids whose stored space captures the largest fraction of
    the task gradient, best first; ties go to the lower id. Every id in
    ``grads`` has a space in ``spaces_by_set``."""
    return sorted(grads, key=lambda sid: (-transfer_score(grads[sid], spaces_by_set[sid]), sid))[:n]


# -- prompt composition ----------------------------------------------------------


def compose_prompts(active: PromptSet, reused) -> np.ndarray:
    """Frozen copies of ``reused`` sets' tokens, joined per prompted block
    into [n_prompted, m, d] (zero rows when nothing is reused). They sit
    behind ``active``'s tokens in each prefix and never receive gradient."""
    blocks, _, d = active.p.shape
    return np.concatenate([np.zeros((blocks, 0, d)), *(r.p for r in reused)], axis=1)


# -- trace records -----------------------------------------------------------------


def trace_record(task: int, decision: GrowDecision, pool_after: dict) -> dict:
    """One decision as a JSON-ready dict (angles in degrees, like reports)."""
    return {
        "task": task,
        "records": [
            {
                "set": r.set_id,
                "hfc_old_deg": round(r.hfc_old.degrees, 6),
                "hfc_pre_deg": round(r.hfc_pre.degrees, 6),
                "z": round(r.z_degrees, 6),
            }
            for r in decision.records
        ],
        "decision": decision.describe(),
        "pool_after": {str(sid): list(tasks) for sid, tasks in sorted(pool_after.items())},
    }

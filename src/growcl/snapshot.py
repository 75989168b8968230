"""Flat binary container for run snapshots.

Layout (all little-endian):

    magic   4 bytes  b"LW2G"
    version u32      currently 1
    u32 fields: d_model, n_blocks, n_heads, prompt_len, input_dim,
                n_feature_tokens, mlp_ratio (always ``encoder.MLP_RATIO``),
                n_prompted, prompted_blocks[n_prompted], n_classes, n_tasks,
                tasks_done, n_arrays
    then n_arrays named float32 arrays in declaration order:
        name_len u16, name utf-8, ndim u32, shape u32[ndim], data f32[...]

Arrays hold the backbone (declaration order), the head, every prompt set
with its frozen transfer rows (``attached``, [n_prompted, m, d], zero rows
when none), their source set ids and the set's task list, each set's stored
bases (``old.<set>.<segment>``), the accuracy grids and the seen classes.
Pre-trained spaces live only while their task trains and are not stored;
``pre.<task>.<segment>`` arrays that older files hold are ignored. Weights
are quantized to float32 on save; resuming from a snapshot therefore
continues from the rounded state.

Every check raises ``SnapshotError``. ``load`` checks every length field
against the bytes left in the file before it reads, so a truncated or
corrupt container (bytes after the last array included) fails without a
large allocation; it rejects an array with more than ``MAX_NDIM`` axes,
one whose element count exceeds the bytes left, and one that holds a NaN or
an infinity (the grids store their gaps as -1). ``restore_engine`` checks
the header against the encoder config, ``tasks_done <= n_tasks``, and every
array it reads against the shape the engine expects, before it allocates
anything sized by a header count. It also checks the integer arrays'
values: each ``set<i>.attached_ids`` entry names another restored set, the
sets' ``tasks`` together hold each of ``0 .. tasks_done-1`` exactly once,
and ``seen_classes`` are distinct and below the head's ``n_classes``. In
the accuracy grids every ``matrix.a`` and ``matrix.a_oracle`` entry is -1
or in [0, 1], every ``matrix.hits`` and ``matrix.totals`` entry is an
integer in [0, ``MAX_COUNT``], and no hit count exceeds its total.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

from growcl.encoder import MLP_RATIO, FrozenBackbone, Head, PromptSet, segment_map
from growcl.metrics import AccuracyMatrix
from growcl.pool import PromptPool
from growcl.subspace import orthonormalized
from growcl.trainer import Engine, SubspaceMemory

MAGIC = b"LW2G"
VERSION = 1
# the encoder config's fields in header order, before mlp_ratio and n_prompted
ENCODER_FIELDS = ("d_model", "n_blocks", "n_heads", "prompt_len", "input_dim", "n_feature_tokens")
# no array the engine stores has more axes
MAX_NDIM = 3
# float32 holds every integer up to 2**24 exactly; a stored count above it
# cannot have been written exactly
MAX_COUNT = 2**24


class SnapshotError(ValueError):
    pass


def _write_array(fh, name: str, arr: np.ndarray):
    data = np.ascontiguousarray(arr, dtype="<f4")
    raw = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<I", data.ndim))
    fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
    fh.write(data.tobytes())


class _Reader:
    """A snapshot file read front to back. Every length is checked against the
    bytes left in the file before anything is read, so a corrupt length field
    fails as a truncated snapshot instead of requesting a huge read."""

    def __init__(self, fh):
        self.fh = fh
        self.left = fh.seek(0, io.SEEK_END)
        fh.seek(0)

    def read(self, n: int) -> bytes:
        if n > self.left:
            raise SnapshotError(f"truncated snapshot: needed {n} bytes, only {self.left} left")
        data = self.fh.read(n)
        if len(data) != n:
            raise SnapshotError(f"truncated snapshot: needed {n} bytes, file ended after {len(data)}")
        self.left -= n
        return data

    def u32s(self, count: int) -> tuple:
        return struct.unpack(f"<{count}I", self.read(4 * count))


def _read_array(reader: _Reader):
    (name_len,) = struct.unpack("<H", reader.read(2))
    try:
        name = reader.read(name_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"corrupt snapshot: array name is not UTF-8: {exc}") from exc
    (ndim,) = reader.u32s(1)
    shape = reader.u32s(ndim)
    if ndim > MAX_NDIM:
        raise SnapshotError(f"corrupt snapshot: array {name} has {ndim} axes, at most {MAX_NDIM} allowed")
    count = math.prod(shape)
    if 4 * count > reader.left:
        raise SnapshotError(f"truncated snapshot: array {name} of shape {shape} needs "
                            f"{4 * count} bytes, only {reader.left} left")
    data = np.frombuffer(reader.read(4 * count), dtype="<f4").reshape(shape)
    if not np.isfinite(data).all():
        raise SnapshotError(f"array {name} holds non-finite values")
    return name, data.astype(np.float64)


def collect_arrays(engine, matrix) -> list:
    """Every persistent array of a run, named, in declaration order."""
    out = []
    for name in engine.backbone.names():
        out.append((f"backbone.{name}", engine.backbone.weights[name]))
    out.append(("head.w", engine.head.w))
    out.append(("head.b", engine.head.b))
    for pset in engine.pool.sets:
        sid = pset.id
        out.append((f"set{sid}.p", pset.p))
        out.append((f"set{sid}.k", pset.k))
        out.append((f"set{sid}.attached", pset.extra))
        out.append((f"set{sid}.attached_ids", np.asarray(pset.sources, dtype=float)))
        out.append((f"set{sid}.tasks", np.asarray(engine.pool.assignments[sid], dtype=float)))
    for sid, spaces in sorted(engine.memory.old_spaces.items()):
        for seg, basis in spaces.items():
            out.append((f"old.{sid}.{seg}", basis.matrix))
    out.append(("matrix.a", np.nan_to_num(matrix.a, nan=-1.0)))
    out.append(("matrix.a_oracle", np.nan_to_num(matrix.a_oracle, nan=-1.0)))
    out.append(("matrix.hits", matrix.retrieval_hits.astype(float)))
    out.append(("matrix.totals", matrix.retrieval_totals.astype(float)))
    out.append(("seen_classes", np.asarray(engine.seen_classes, dtype=float)))
    return out


def save(path, engine, matrix):
    cfg = engine.enc_cfg
    arrays = collect_arrays(engine, matrix)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        header = [
            VERSION, *(getattr(cfg, name) for name in ENCODER_FIELDS), MLP_RATIO, cfg.n_prompted,
            *cfg.prompted_blocks, engine.head.n_classes, matrix.n_tasks,
            engine.tasks_done, len(arrays),
        ]
        fh.write(struct.pack(f"<{len(header)}I", *header))
        for name, arr in arrays:
            _write_array(fh, name, arr)


def load(path) -> dict:
    """Read a container back into {header fields, arrays by name}."""
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        if reader.read(4) != MAGIC:
            raise SnapshotError("bad magic: not a run snapshot")
        version, *encoder, mlp_ratio, n_prompted = reader.u32s(len(ENCODER_FIELDS) + 3)
        if version != VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}")
        prompted = reader.u32s(n_prompted)
        n_classes, n_tasks, tasks_done, n_arrays = reader.u32s(4)
        arrays = {}
        order = []
        for _ in range(n_arrays):
            name, arr = _read_array(reader)
            arrays[name] = arr
            order.append(name)
        if reader.left:
            raise SnapshotError(f"corrupt snapshot: {reader.left} bytes after the last array")
    return {
        "version": version,
        **dict(zip(ENCODER_FIELDS, encoder)),
        "mlp_ratio": mlp_ratio,
        "prompted_blocks": prompted,
        "n_classes": n_classes,
        "n_tasks": n_tasks,
        "tasks_done": tasks_done,
        "arrays": arrays,
        "array_order": order,
    }


def restore_engine(snap: dict, enc_cfg, train_cfg):
    """Rebuild an Engine and AccuracyMatrix from a loaded container.

    The encoder config must structurally match the snapshot header, every
    array read must have the shape the engine gives it, and the integer
    arrays must describe a pool some run could have built (see the module
    docstring).
    """
    for field_name in ENCODER_FIELDS:
        if getattr(enc_cfg, field_name) != snap[field_name]:
            raise SnapshotError(f"encoder config mismatch on {field_name}")
    if snap["mlp_ratio"] != MLP_RATIO:
        raise SnapshotError(f"mlp_ratio {snap['mlp_ratio']} differs from the encoder's {MLP_RATIO}")
    if tuple(enc_cfg.prompted_blocks) != tuple(snap["prompted_blocks"]):
        raise SnapshotError("encoder config mismatch on prompted_blocks")
    n_tasks, tasks_done = snap["n_tasks"], snap["tasks_done"]
    if tasks_done > n_tasks:
        raise SnapshotError(f"tasks_done {tasks_done} exceeds n_tasks {n_tasks}")

    arrays = snap["arrays"]

    def array(name: str, shape: tuple) -> np.ndarray:
        """Array ``name``, whose shape must match ``shape`` (None: any length)."""
        if name not in arrays:
            raise SnapshotError(f"missing array {name}")
        arr = arrays[name]
        if arr.ndim != len(shape) or any(n not in (None, got) for n, got in zip(shape, arr.shape)):
            raise SnapshotError(f"array {name} has shape {arr.shape}, expected {shape}")
        return arr

    def ids(name: str, below: int) -> list:
        """1-D array ``name`` as ints, each an integer in [0, below)."""
        arr = array(name, (None,))
        if np.any((arr != np.floor(arr)) | (arr < 0) | (arr >= below)):
            raise SnapshotError(f"array {name} holds values that are not integers in [0, {below})")
        return [int(v) for v in arr]

    # the grids are sized by the header's n_tasks: check them before the
    # AccuracyMatrix allocates its own
    grid = (n_tasks, n_tasks)
    a, oracle = array("matrix.a", grid), array("matrix.a_oracle", grid)
    hits, totals = array("matrix.hits", grid), array("matrix.totals", grid)
    for name, acc in (("matrix.a", a), ("matrix.a_oracle", oracle)):
        if np.any((acc != -1) & ((acc < 0) | (acc > 1))):
            raise SnapshotError(f"array {name} holds values that are neither -1 nor in [0, 1]")
    for name, counts in (("matrix.hits", hits), ("matrix.totals", totals)):
        if np.any((counts != np.floor(counts)) | (counts < 0) | (counts > MAX_COUNT)):
            raise SnapshotError(f"array {name} holds values that are not integers in [0, {MAX_COUNT}]")
    if np.any(hits > totals):
        raise SnapshotError("array matrix.hits exceeds matrix.totals")

    d, n_prompted = enc_cfg.d_model, enc_cfg.n_prompted
    # a drawn backbone gives every weight's shape
    backbone = FrozenBackbone.init(enc_cfg, np.random.default_rng(0))
    for name in backbone.names():
        backbone.weights[name] = array(f"backbone.{name}", backbone.weights[name].shape)
    head = Head(array("head.w", (d, snap["n_classes"])), array("head.b", (snap["n_classes"],)))
    n_sets = 0
    while any(name.startswith(f"set{n_sets}.") for name in arrays):
        n_sets += 1
    sets, assignments = [], {}
    for sid in range(n_sets):
        sources = ids(f"set{sid}.attached_ids", n_sets)
        if sid in sources:
            raise SnapshotError(f"set {sid} lists itself in set{sid}.attached_ids")
        sets.append(PromptSet(
            array(f"set{sid}.p", (n_prompted, enc_cfg.prompt_len, d)), array(f"set{sid}.k", (d,)), sid,
            extra=array(f"set{sid}.attached", (n_prompted, enc_cfg.prompt_len * len(sources), d)),
            sources=sources,
        ))
        assignments[sid] = ids(f"set{sid}.tasks", tasks_done)
    assigned = sorted(t for tasks in assignments.values() for t in tasks)
    if assigned != list(range(tasks_done)):
        raise SnapshotError(f"the sets' task lists hold {assigned}, expected each of "
                            f"0..{tasks_done - 1} exactly once")
    seen_classes = ids("seen_classes", snap["n_classes"])
    if len(set(seen_classes)) != len(seen_classes):
        raise SnapshotError("array seen_classes repeats a class")
    # every restored set has a stored space, one basis per segment
    memory = SubspaceMemory()
    segments = list(segment_map(enc_cfg, range(n_prompted), None))
    for sid in range(n_sets):
        spaces = memory.old_spaces[sid] = {}
        for seg in segments:
            name = f"old.{sid}.{seg}"
            # float32 storage drifts orthonormality past tolerance; clean it
            spaces[seg] = orthonormalized(array(name, (d, None)))
    engine = Engine(
        enc_cfg, train_cfg, np.random.default_rng(np.random.SeedSequence(train_cfg.seed)),
        backbone, head, PromptPool(sets, assignments), memory, seen_classes, tasks_done,
    )

    matrix = AccuracyMatrix(n_tasks)
    matrix.a = np.where(a < 0, np.nan, a)
    matrix.a_oracle = np.where(oracle < 0, np.nan, oracle)
    matrix.retrieval_hits = hits.astype(int)
    matrix.retrieval_totals = totals.astype(int)
    return engine, matrix

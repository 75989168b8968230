"""Flat binary container for run snapshots.

Layout (all little-endian):

    magic   4 bytes  b"LW2G"
    version u32      currently 1
    u32 fields: d_model, n_blocks, n_heads, prompt_len, input_dim,
                n_feature_tokens, mlp_ratio, n_prompted,
                prompted_blocks[n_prompted], n_classes, n_tasks,
                tasks_done, n_arrays
    then n_arrays named float32 arrays in declaration order:
        name_len u16, name utf-8, ndim u32, shape u32[ndim], data f32[...]

Arrays hold the backbone (declaration order), the head, every prompt set
with its frozen attachment and task list, all stored bases, and the
accuracy grids. Weights are quantized to float32 on save; resuming from a
snapshot therefore continues from the rounded state. ``load`` checks every
length field against the bytes left in the file before it reads, so a
truncated or corrupt container (bytes after the last array included) raises
``SnapshotError``.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

MAGIC = b"LW2G"
VERSION = 1


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
    data = np.frombuffer(reader.read(4 * math.prod(shape)), dtype="<f4").reshape(shape)
    return name, data.astype(np.float64)


def collect_arrays(engine, matrix) -> list:
    """Every persistent array of a run, named, in declaration order."""
    out = []
    for name in engine.backbone.names():
        out.append((f"backbone.{name}", engine.backbone.weights[name]))
    out.append(("head.w", engine.head.w))
    out.append(("head.b", engine.head.b))
    cfg = engine.enc_cfg
    for pset in engine.pool.sets:
        sid = pset.id
        out.append((f"set{sid}.p", pset.p))
        out.append((f"set{sid}.k", pset.k))
        frozen, sources = engine.attachments.get(sid, (None, []))
        if frozen is None:
            frozen = np.zeros((cfg.n_prompted, 0, cfg.d_model))
        out.append((f"set{sid}.attached", frozen))
        out.append((f"set{sid}.attached_ids", np.asarray(sources, dtype=float)))
        out.append((f"set{sid}.tasks", np.asarray(engine.pool.assignments[sid], dtype=float)))
    for sid, spaces in sorted(engine.memory.old_spaces.items()):
        for seg, basis in spaces.items():
            out.append((f"old.{sid}.{seg}", basis.matrix))
    for tid, spaces in sorted(engine.memory.pre_spaces.items()):
        for seg, basis in spaces.items():
            out.append((f"pre.{tid}.{seg}", basis.matrix))
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
            VERSION, cfg.d_model, cfg.n_blocks, cfg.n_heads, cfg.prompt_len,
            cfg.input_dim, cfg.n_feature_tokens, cfg.mlp_ratio, cfg.n_prompted,
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
        (version, d_model, n_blocks, n_heads, prompt_len,
         input_dim, n_feature_tokens, mlp_ratio, n_prompted) = reader.u32s(9)
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
        "d_model": d_model,
        "n_blocks": n_blocks,
        "n_heads": n_heads,
        "prompt_len": prompt_len,
        "input_dim": input_dim,
        "n_feature_tokens": n_feature_tokens,
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

    The encoder config must structurally match the snapshot header.
    """
    from growcl.encoder import FrozenBackbone, Head, PromptSet, segment_map
    from growcl.metrics import AccuracyMatrix
    from growcl.pool import PromptPool
    from growcl.subspace import orthonormalized
    from growcl.trainer import Engine, SubspaceMemory

    for field_name in ("d_model", "n_blocks", "n_heads", "prompt_len", "input_dim",
                       "n_feature_tokens", "mlp_ratio"):
        if getattr(enc_cfg, field_name) != snap[field_name]:
            raise SnapshotError(f"encoder config mismatch on {field_name}")
    if tuple(enc_cfg.prompted_blocks) != tuple(snap["prompted_blocks"]):
        raise SnapshotError("encoder config mismatch on prompted_blocks")

    arrays = snap["arrays"]

    def array(name: str) -> np.ndarray:
        if name not in arrays:
            raise SnapshotError(f"missing array {name}")
        return arrays[name]

    backbone = FrozenBackbone(enc_cfg)
    for name in backbone.names():
        backbone.weights[name] = array(f"backbone.{name}")
    sets, assignments, attachments = [], {}, {}
    sid = 0
    while any(name.startswith(f"set{sid}.") for name in arrays):
        sets.append(PromptSet(array(f"set{sid}.p"), array(f"set{sid}.k"), sid))
        assignments[sid] = [int(t) for t in array(f"set{sid}.tasks")]
        frozen = array(f"set{sid}.attached")
        sources = [int(v) for v in array(f"set{sid}.attached_ids")]
        attachments[sid] = (frozen if frozen.shape[1] else None, sources)
        sid += 1
    # every restored set has a stored space and every finished task a
    # pre-trained one, with one basis per segment of the encoder
    memory = SubspaceMemory()
    segments = list(segment_map(enc_cfg, range(enc_cfg.n_prompted), None))
    for kind, store, owners in (("old", memory.old_spaces, range(len(sets))),
                                ("pre", memory.pre_spaces, range(snap["tasks_done"]))):
        for owner in owners:
            spaces = store[owner] = {}
            for seg in segments:
                name = f"{kind}.{owner}.{seg}"
                # float32 storage drifts orthonormality past tolerance; clean it
                spaces[seg] = orthonormalized(array(name), label=name)
    engine = Engine(
        enc_cfg, train_cfg, np.random.default_rng(np.random.SeedSequence(train_cfg.seed)),
        backbone, Head(array("head.w"), array("head.b")), PromptPool(sets, assignments), memory,
        attachments, [int(c) for c in array("seen_classes")], snap["tasks_done"],
    )

    matrix = AccuracyMatrix(snap["n_tasks"])
    matrix.a = np.where(array("matrix.a") < 0, np.nan, array("matrix.a"))
    matrix.a_oracle = np.where(array("matrix.a_oracle") < 0, np.nan, array("matrix.a_oracle"))
    matrix.retrieval_hits = array("matrix.hits").astype(int)
    matrix.retrieval_totals = array("matrix.totals").astype(int)
    return engine, matrix

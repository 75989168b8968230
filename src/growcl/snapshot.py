"""Flat binary container for run snapshots.

Layout (all little-endian):

    magic   4 bytes  b"LW2G"
    version u32      currently 2
    u32 fields: d_model, n_blocks, n_heads, prompt_len, input_dim,
                n_feature_tokens, n_prompted, prompted_blocks[n_prompted],
                n_classes, n_tasks, tasks_done, n_arrays
    then n_arrays named arrays in declaration order:
        name_len u16, name utf-8, dtype code 1 byte, ndim u32,
        shape u32[ndim], data[...]

The dtype code is ``f`` (``<f8``: weights, keys, bases, accuracy grids),
``i`` (``<i8``: ``set<i>.attached_ids``, ``set<i>.tasks``, ``matrix.hits``,
``matrix.totals``, ``seen_classes``) or ``u`` (``<u8``: ``rng``). Arrays
hold the backbone (declaration order), the head, every prompt set with its
frozen transfer rows (``attached``, [n_prompted, m, d], zero rows when
none), their source set ids and the set's task list, each set's stored
bases (``old.<set>.<segment>``), the accuracy grids, the seen classes and
the RNG: six words, the PCG64 ``state`` and ``inc`` each split into its
high and low 64 bits, then ``has_uint32`` and ``uinteger``. The task stream
is not stored: ``restore_engine`` takes it, regenerated from the run's
config. Every value is stored exactly, so ``restore_engine`` gives back the
engine that was saved, and training on from it equals the run that was never
interrupted; saving the restored engine reproduces the file byte for byte.
Pre-trained spaces live only while their task trains and are not stored.

Every check raises ``SnapshotError``. ``save`` refuses an engine whose
last trained task is not evaluated. ``load`` checks every length field
against the bytes left in the file before it reads, so a truncated or
corrupt container (bytes after the last array included) fails without a
large allocation; it rejects an unknown dtype code, an array with more
than ``MAX_NDIM`` axes, one whose element count exceeds the bytes left, a
repeated array name, and a float array that holds a NaN or an infinity
(the grids store their gaps as -1). ``restore_engine`` checks the header
against the encoder config and the stream (``n_tasks`` tasks, and a head
of one more class than the stream's largest, as ``Engine.fresh`` draws it;
like ``Engine.fresh``, it raises ``TrainerError`` when two tasks share a
class), ``tasks_done <= n_tasks``, and every array it reads
against the dtype and shape the engine expects, before it allocates
anything sized by a header count. It also checks the integer arrays'
values: the entries of ``set<i>.attached_ids`` are distinct and each below
i (a set attaches only sets that existed when it grew), the sets' ``tasks``
together hold each of ``0 .. tasks_done-1`` exactly once, every set's
``tasks`` is non-empty and increasing and the sets' first tasks increase
with the set id (a set grows with its first task and appends later ones),
and ``seen_classes`` are the classes of the stream's first ``tasks_done``
tasks. It checks the grids against the stream: a snapshot is taken after
``evaluate_after``, so cell (i, t) holds a value exactly when
i <= t < ``tasks_done``. There ``matrix.a`` and ``matrix.a_oracle`` are in
[0, 1], ``matrix.totals`` is task i's test size and ``matrix.hits`` is in
[0, total]; every other cell holds -1 in the accuracy grids and 0 in the
counts. Every stored basis is a ``Basis`` (1 to ``d_model`` orthonormal
columns; its ``SubspaceError`` is raised as ``array NAME: ...``),
``has_uint32`` is 0 or 1, ``uinteger`` is below 2**32, and PCG64 must
accept the state. Last, the file must hold exactly the arrays ``save``
writes, in its order: any other raises ``unexpected array NAME``, so saving
the restored engine gives back the file.
"""

from __future__ import annotations

import io
import math
import struct

import numpy as np

from growcl.encoder import FrozenBackbone, Head, PromptSet, backbone_shapes, segment_map
from growcl.metrics import AccuracyMatrix
from growcl.pool import PromptPool
from growcl.subspace import Basis, SubspaceError
from growcl.trainer import Engine, SubspaceMemory, head_width

MAGIC = b"LW2G"
VERSION = 2
# the encoder config's fields in header order, before n_prompted
ENCODER_FIELDS = ("d_model", "n_blocks", "n_heads", "prompt_len", "input_dim", "n_feature_tokens")
# no array the engine stores has more axes
MAX_NDIM = 3
# dtype code (the numpy kind) -> stored dtype
DTYPES = {"f": np.dtype("<f8"), "i": np.dtype("<i8"), "u": np.dtype("<u8")}
_WORD = 2**64 - 1


class SnapshotError(ValueError):
    pass


def _write_array(fh, name: str, arr: np.ndarray):
    kind = arr.dtype.kind
    data = np.ascontiguousarray(arr, dtype=DTYPES[kind])
    raw = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    fh.write(kind.encode("ascii"))
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
    code = reader.read(1).decode("latin-1")
    dtype = DTYPES.get(code)
    if dtype is None:
        raise SnapshotError(f"corrupt snapshot: array {name} has unknown dtype code {code!r}")
    (ndim,) = reader.u32s(1)
    shape = reader.u32s(ndim)
    if ndim > MAX_NDIM:
        raise SnapshotError(f"corrupt snapshot: array {name} has {ndim} axes, at most {MAX_NDIM} allowed")
    size = dtype.itemsize * math.prod(shape)
    if size > reader.left:
        raise SnapshotError(f"truncated snapshot: array {name} of shape {shape} needs "
                            f"{size} bytes, only {reader.left} left")
    data = np.frombuffer(reader.read(size), dtype=dtype).reshape(shape).copy()
    if code == "f" and not np.isfinite(data).all():
        raise SnapshotError(f"array {name} holds non-finite values")
    return name, data


def _rng_words(rng: np.random.Generator) -> np.ndarray:
    """The PCG64 state of ``rng`` as six 64-bit words."""
    state = rng.bit_generator.state
    s, inc = state["state"]["state"], state["state"]["inc"]
    return np.array([s >> 64, s & _WORD, inc >> 64, inc & _WORD, state["has_uint32"], state["uinteger"]],
                    dtype=np.uint64)


def _rng_from_words(words: np.ndarray) -> np.random.Generator:
    """A Generator in the PCG64 state that ``_rng_words`` stored."""
    s_hi, s_lo, inc_hi, inc_lo, has_uint32, uinteger = (int(w) for w in words)
    if has_uint32 > 1 or uinteger >= 2**32:
        raise SnapshotError(f"array rng holds has_uint32 {has_uint32} and uinteger {uinteger}, "
                            "expected 0 or 1 and a value below 2**32")
    bit_generator = np.random.PCG64(0)
    state = {"state": s_hi << 64 | s_lo, "inc": inc_hi << 64 | inc_lo}
    try:
        bit_generator.state = {"bit_generator": "PCG64", "state": state,
                               "has_uint32": has_uint32, "uinteger": uinteger}
    except (ValueError, OverflowError) as exc:
        raise SnapshotError(f"array rng holds a state PCG64 refuses: {exc}") from exc
    return np.random.Generator(bit_generator)


def collect_arrays(engine) -> list:
    """Every persistent array of a run, named, in declaration order."""
    matrix = engine.matrix
    out = [(f"backbone.{name}", w) for name, w in engine.backbone.weights.items()]
    out.append(("head.w", engine.head.w))
    out.append(("head.b", engine.head.b))
    for pset in engine.pool.sets:
        sid = pset.id
        out.append((f"set{sid}.p", pset.p))
        out.append((f"set{sid}.k", pset.k))
        out.append((f"set{sid}.attached", pset.extra))
        out.append((f"set{sid}.attached_ids", np.asarray(pset.sources, dtype=np.int64)))
        out.append((f"set{sid}.tasks", np.asarray(engine.pool.assignments[sid], dtype=np.int64)))
    for sid, spaces in sorted(engine.memory.old_spaces.items()):
        for seg, basis in spaces.items():
            out.append((f"old.{sid}.{seg}", basis.matrix))
    out.append(("matrix.a", np.nan_to_num(matrix.a, nan=-1.0)))
    out.append(("matrix.a_oracle", np.nan_to_num(matrix.a_oracle, nan=-1.0)))
    out.append(("matrix.hits", matrix.retrieval_hits))
    out.append(("matrix.totals", matrix.retrieval_totals))
    out.append(("seen_classes", np.asarray(engine.seen_classes, dtype=np.int64)))
    out.append(("rng", _rng_words(engine.rng)))
    return out


def save(path, engine):
    """Write ``engine`` to ``path``. A snapshot is taken after
    ``evaluate_after``: an engine whose last trained task is not evaluated
    raises ``SnapshotError`` before the file is opened, since
    ``restore_engine`` would reject its grids."""
    last = engine.tasks_done - 1
    if last >= 0 and np.isnan(engine.matrix.a[last, last]):
        raise SnapshotError(f"task {last} is trained but not evaluated: save after evaluate_after")
    cfg = engine.enc_cfg
    arrays = collect_arrays(engine)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        header = [
            VERSION, *(getattr(cfg, name) for name in ENCODER_FIELDS), cfg.n_prompted,
            *cfg.prompted_blocks, engine.head.n_classes, engine.matrix.n_tasks,
            engine.tasks_done, len(arrays),
        ]
        fh.write(struct.pack(f"<{len(header)}I", *header))
        for name, arr in arrays:
            _write_array(fh, name, arr)


def load(path) -> dict:
    """Read a container back into {header fields, arrays by name in file order}."""
    with open(path, "rb") as fh:
        reader = _Reader(fh)
        if reader.read(4) != MAGIC:
            raise SnapshotError("bad magic: not a run snapshot")
        version, *encoder, n_prompted = reader.u32s(len(ENCODER_FIELDS) + 2)
        if version != VERSION:
            raise SnapshotError(f"unsupported snapshot version {version}")
        prompted = reader.u32s(n_prompted)
        n_classes, n_tasks, tasks_done, n_arrays = reader.u32s(4)
        arrays = {}
        for _ in range(n_arrays):
            name, arr = _read_array(reader)
            if name in arrays:
                raise SnapshotError(f"duplicate array {name}")
            arrays[name] = arr
        if reader.left:
            raise SnapshotError(f"corrupt snapshot: {reader.left} bytes after the last array")
    return {
        "version": version,
        **dict(zip(ENCODER_FIELDS, encoder)),
        "prompted_blocks": prompted,
        "n_classes": n_classes,
        "n_tasks": n_tasks,
        "tasks_done": tasks_done,
        "arrays": arrays,
    }


def restore_engine(snap: dict, enc_cfg, train_cfg, datasets) -> Engine:
    """Rebuild the Engine of a loaded container over its task stream ``datasets``.

    The encoder config and the stream must fit the snapshot header, every
    array read must have the dtype and shape the engine gives it, and the
    integer arrays must describe a pool some run could have built (see the
    module docstring). The engine owns copies of the arrays, and its
    constructor makes the backbone's read-only.
    """
    for field_name in ENCODER_FIELDS:
        if getattr(enc_cfg, field_name) != snap[field_name]:
            raise SnapshotError(f"encoder config mismatch on {field_name}")
    if tuple(enc_cfg.prompted_blocks) != tuple(snap["prompted_blocks"]):
        raise SnapshotError("encoder config mismatch on prompted_blocks")
    n_tasks, tasks_done = snap["n_tasks"], snap["tasks_done"]
    if tasks_done > n_tasks:
        raise SnapshotError(f"tasks_done {tasks_done} exceeds n_tasks {n_tasks}")
    if len(datasets) != n_tasks:
        raise SnapshotError(f"the stream has {len(datasets)} tasks, the snapshot n_tasks {n_tasks}")
    need = head_width(datasets)
    if snap["n_classes"] != need:
        raise SnapshotError(f"the head has {snap['n_classes']} classes, the stream needs {need}")

    arrays = snap["arrays"]

    def array(name: str, shape: tuple, kind: str = "f") -> np.ndarray:
        """A copy of array ``name`` of dtype kind ``kind``, whose shape must
        match ``shape`` (None: any length)."""
        if name not in arrays:
            raise SnapshotError(f"missing array {name}")
        arr = arrays[name]
        if arr.dtype.kind != kind:
            raise SnapshotError(f"array {name} holds {arr.dtype}, expected {DTYPES[kind].name}")
        if arr.ndim != len(shape) or any(n not in (None, got) for n, got in zip(shape, arr.shape)):
            raise SnapshotError(f"array {name} has shape {arr.shape}, expected {shape}")
        return arr.copy()

    def ids(name: str, below: int) -> list:
        """1-D integer array ``name`` as ints, each in [0, below)."""
        arr = array(name, (None,), "i")
        if np.any((arr < 0) | (arr >= below)):
            raise SnapshotError(f"array {name} holds values outside [0, {below})")
        return arr.tolist()

    # the grids are sized by the header's n_tasks: check them before the
    # AccuracyMatrix allocates its own
    grid = (n_tasks, n_tasks)
    a, oracle = array("matrix.a", grid), array("matrix.a_oracle", grid)
    hits, totals = array("matrix.hits", grid, "i"), array("matrix.totals", grid, "i")
    # a snapshot is taken after evaluate_after: cell (i, t) was evaluated
    # exactly when i <= t < tasks_done
    i, t = np.indices(grid)
    evaluated = (i <= t) & (t < tasks_done)
    test_sizes = np.array([len(ds.y_test) for ds in datasets])
    if not np.array_equal(totals, np.where(evaluated, test_sizes[:, None], 0)):
        raise SnapshotError("array matrix.totals does not hold each evaluated cell's test size and 0 elsewhere")
    if np.any((hits < 0) | (hits > totals)):
        raise SnapshotError("array matrix.hits holds negative counts or exceeds matrix.totals")
    for name, acc in (("matrix.a", a), ("matrix.a_oracle", oracle)):
        if not np.all(np.where(evaluated, (acc >= 0) & (acc <= 1), acc == -1)):
            raise SnapshotError(f"array {name} holds a value outside [0, 1] in an evaluated cell "
                                "or other than -1 elsewhere")
    rng = _rng_from_words(array("rng", (6,), "u"))

    d, n_prompted = enc_cfg.d_model, enc_cfg.n_prompted
    backbone = FrozenBackbone(enc_cfg, {name: array(f"backbone.{name}", shape)
                                        for name, shape in backbone_shapes(enc_cfg).items()})
    head = Head(array("head.w", (d, snap["n_classes"])), array("head.b", (snap["n_classes"],)))
    n_sets = 0
    while any(name.startswith(f"set{n_sets}.") for name in arrays):
        n_sets += 1
    sets, assignments = [], {}
    for sid in range(n_sets):
        sources = ids(f"set{sid}.attached_ids", n_sets)
        # a set attaches sets that existed when it grew, each once
        if any(source >= sid for source in sources):
            raise SnapshotError(f"set {sid} lists itself or a later set in set{sid}.attached_ids")
        if len(set(sources)) != len(sources):
            raise SnapshotError(f"set {sid} lists a set twice in set{sid}.attached_ids")
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
    # a set grows with its first task and appends later ones
    for sid, tasks in assignments.items():
        if not tasks or tasks != sorted(tasks):
            raise SnapshotError(f"array set{sid}.tasks holds {tasks}, expected a non-empty increasing list")
    firsts = [tasks[0] for tasks in assignments.values()]
    if firsts != sorted(firsts):
        raise SnapshotError(f"the sets' first tasks are {firsts}, expected them to increase with the set id")
    # every restored set has a stored space, one basis per segment
    memory = SubspaceMemory()
    segments = list(segment_map(enc_cfg, range(n_prompted), None))
    for sid in range(n_sets):
        spaces = memory.old_spaces[sid] = {}
        for seg in segments:
            name = f"old.{sid}.{seg}"
            try:
                spaces[seg] = Basis(array(name, (d, None)))
            except SubspaceError as exc:
                raise SnapshotError(f"array {name}: {exc}") from exc
    matrix = AccuracyMatrix(n_tasks)
    matrix.a = np.where(a < 0, np.nan, a)
    matrix.a_oracle = np.where(oracle < 0, np.nan, oracle)
    matrix.retrieval_hits = hits
    matrix.retrieval_totals = totals
    engine = Engine(enc_cfg, train_cfg, rng, backbone, head, PromptPool(sets, assignments), memory,
                    datasets, matrix, tasks_done)
    if array("seen_classes", (None,), "i").tolist() != engine.seen_classes:
        raise SnapshotError(f"array seen_classes is not the classes of the stream's first {tasks_done} tasks")
    # save writes exactly these arrays, in this order
    written = [name for name, _ in collect_arrays(engine)]
    for name in arrays:
        if name not in written:
            raise SnapshotError(f"unexpected array {name}")
    if list(arrays) != written:
        raise SnapshotError("arrays out of declaration order")
    return engine

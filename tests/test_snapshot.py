import copy
import dataclasses
import os
import re
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from growcl import snapshot
from growcl.config import load_config
from growcl.encoder import EncoderConfig, FrozenBackbone, Head
from growcl.stream import StreamSpec, generate
from growcl.trainer import MODES, Engine, TrainConfig, TrainerError, run_stream

ROOT = Path(__file__).resolve().parents[1]

ENC = EncoderConfig(d_model=16, n_blocks=2, n_heads=4, prompt_len=3, prompted_blocks=(0, 1),
                    input_dim=24, n_feature_tokens=3)
CFG = TrainConfig(epochs=2, lr=0.3, batch_size=16, seed=3, pretrain_steps=10,
                  probe_samples=32, space_samples=48, mode="lw2g")


@pytest.fixture(scope="module")
def finished():
    """A finished two-task run's engine."""
    data = generate(StreamSpec(n_tasks=2, classes_per_task=2, dim=24,
                               samples_per_class=30, seed=5))
    return run_stream(ENC, CFG, data)


def test_header_layout(finished, tmp_path):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    raw = path.read_bytes()
    assert raw[:4] == b"LW2G"
    version, d_model, n_blocks = struct.unpack("<3I", raw[4:16])
    assert (version, d_model, n_blocks) == (2, ENC.d_model, ENC.n_blocks)


def test_version_1_rejected(finished, tmp_path):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    with pytest.raises(snapshot.SnapshotError, match="^unsupported snapshot version 1$"):
        snapshot.load(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(snapshot.SnapshotError):
        snapshot.load(path)


def test_truncated_file_rejected(finished, tmp_path):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    raw = path.read_bytes()
    header = 4 + 4 * (8 + ENC.n_prompted + 4)
    (name_len,) = struct.unpack("<H", raw[header:header + 2])
    data_start = header + 2 + name_len + 1 + 4 + 4 * 2  # first array is 2-D embed_w
    cuts = (
        20,                               # inside the fixed header
        4 + 32 + 2,                       # inside the prompted block list
        header + 2 + name_len // 2,       # inside the first array name
        header + 2 + name_len + 7,        # inside the first array shape
        data_start + 10,                  # inside the first array data
        len(raw) - 1,                     # one byte short of the end
    )
    for cut in cuts:
        path.write_bytes(raw[:cut])
        with pytest.raises(snapshot.SnapshotError, match="truncated"):
            snapshot.load(path)


def test_roundtrip_restores_state(finished, tmp_path):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    engine = snapshot.restore_engine(snapshot.load(path), ENC, CFG, finished.datasets)

    assert engine.pool.assignments == finished.pool.assignments
    assert engine.tasks_done == finished.tasks_done
    assert engine.seen_classes == finished.seen_classes
    # every stored value, the grids and the RNG state included, comes back
    # exactly, in the dtype it was saved from
    for (name, arr), (_, want) in zip(snapshot.collect_arrays(engine),
                                      snapshot.collect_arrays(finished), strict=True):
        assert arr.dtype == want.dtype and np.array_equal(arr, want), name


# (config, mode) of the uninterrupted runs, and the task count k after which
# a resumed run restarts from the snapshot
RESUMES = [("quick", mode, k) for mode in MODES for k in (1, 2)] + [("comparison", "lw2g", 3)]


@dataclasses.dataclass
class Uninterrupted:
    spec: StreamSpec
    enc: EncoderConfig
    train: TrainConfig
    result: Engine
    snapshots: list  # the snapshot bytes after each task


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    """(config, mode) -> the run ``growcl run`` makes, with the snapshot it
    would write saved after every task too; each run is made once."""
    runs = {}
    path = tmp_path_factory.mktemp("uninterrupted") / "snap.bin"

    def get(config: str, mode: str) -> Uninterrupted:
        if (config, mode) not in runs:
            _, (spec, enc, train) = load_config(ROOT / "configs" / f"{config}.cfg")
            train = dataclasses.replace(train, mode=mode)
            snapshots = []
            evaluate_after = Engine.evaluate_after

            def evaluate_and_save(engine):
                evaluate_after(engine)
                snapshot.save(path, engine)
                snapshots.append(path.read_bytes())

            with mock.patch.object(Engine, "evaluate_after", evaluate_and_save):
                result = run_stream(enc, train, generate(spec))
            runs[config, mode] = Uninterrupted(spec, enc, train, result, snapshots)
        return runs[config, mode]

    return get


@pytest.mark.parametrize("config, mode, k", RESUMES)
def test_resumed_run_equals_uninterrupted(uninterrupted, tmp_path, config, mode, k):
    run = uninterrupted(config, mode)
    path = tmp_path / "snap.bin"
    path.write_bytes(run.snapshots[k - 1])
    # restore with the regenerated stream, then train on
    engine = snapshot.restore_engine(snapshot.load(path), run.enc, run.train, generate(run.spec))
    assert engine.tasks_done == k
    while engine.tasks_done < len(engine.datasets):
        engine.train_task()
        engine.evaluate_after()

    assert [r.trace for r in engine.reports] == [r.trace for r in run.result.reports[k:]]
    for name in ("a", "a_oracle", "retrieval_hits", "retrieval_totals"):
        np.testing.assert_array_equal(getattr(engine.matrix, name), getattr(run.result.matrix, name),
                                      err_msg=name)
    snapshot.save(path, engine)
    assert path.read_bytes() == run.snapshots[-1]


@pytest.mark.parametrize("config, mode", sorted({(config, mode) for config, mode, _ in RESUMES}))
def test_resaved_snapshot_is_byte_identical(uninterrupted, tmp_path, config, mode):
    run = uninterrupted(config, mode)
    path, again = tmp_path / "snap.bin", tmp_path / "again.bin"
    for raw in run.snapshots:
        path.write_bytes(raw)
        restored = snapshot.restore_engine(snapshot.load(path), run.enc, run.train, run.result.datasets)
        snapshot.save(again, restored)
        assert again.read_bytes() == raw


def test_restored_engines_share_no_array(uninterrupted, tmp_path):
    # two engines restored from one load result: training one and bumping
    # every array it stores (all but the read-only backbone) leaves the
    # other, and the loaded arrays, as saved
    run = uninterrupted("quick", "lw2g")
    path = tmp_path / "snap.bin"
    path.write_bytes(run.snapshots[0])
    snap = snapshot.load(path)

    def restore():
        return snapshot.restore_engine(snap, run.enc, run.train, run.result.datasets)

    first, second = restore(), restore()
    first.train_task()
    first.evaluate_after()
    for name, arr in snapshot.collect_arrays(first):
        if not name.startswith("backbone."):
            arr += 1
    for engine in (second, restore()):
        snapshot.save(path, engine)
        assert path.read_bytes() == run.snapshots[0]


def test_restore_draws_no_backbone(finished, tmp_path, monkeypatch):
    # the weights' shapes come from the encoder's declaration, not a draw
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)

    def no_draw(*args, **kwargs):
        raise AssertionError("FrozenBackbone.init called")

    monkeypatch.setattr(FrozenBackbone, "init", no_draw)
    engine = snapshot.restore_engine(snapshot.load(path), ENC, CFG, finished.datasets)
    assert list(engine.backbone.weights) == list(finished.backbone.weights)
    for name, weight in finished.backbone.weights.items():
        np.testing.assert_array_equal(engine.backbone.weights[name], weight, err_msg=name)


def test_restored_backbone_is_read_only(finished, tmp_path):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    engine = snapshot.restore_engine(snapshot.load(path), ENC, CFG, finished.datasets)
    for name, weight in engine.backbone.weights.items():
        with pytest.raises(ValueError, match="read-only"):
            weight += 1.0
        assert weight.base is None, name  # owned, not a view of the loaded bytes


# stream edits that no longer fit the two-task snapshot (classes 0-3)
STREAM_MISFITS = {
    "one-task-short": (lambda data: data[:1], snapshot.SnapshotError,
                       "^the stream has 1 tasks, the snapshot n_tasks 2$"),
    "class-beyond-head": (lambda data: [data[0], dataclasses.replace(data[1], class_ids=[2, 4])],
                          snapshot.SnapshotError, "^the head has 4 classes, the stream needs 5$"),
    "tasks-swapped": (lambda data: data[::-1], snapshot.SnapshotError,
                      "^array seen_classes is not the classes of the stream's first 2 tasks$"),
    # a stream no run could have: fresh would refuse it too
    "classes-shared": (lambda data: [data[0], dataclasses.replace(data[1], class_ids=[1, 2])],
                       TrainerError, "^two tasks of the stream share a class$"),
}


@pytest.mark.parametrize("edit, error, match", STREAM_MISFITS.values(), ids=STREAM_MISFITS)
def test_stream_that_does_not_fit_rejected(finished, tmp_path, edit, error, match):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    with pytest.raises(error, match=match):
        snapshot.restore_engine(snapshot.load(path), ENC, CFG, edit(finished.datasets))


def test_head_wider_than_the_stream_rejected(finished, tmp_path):
    # Engine.fresh draws one head column per class up to the stream's largest
    wide = copy.copy(finished)
    wide.head = Head(np.pad(finished.head.w, ((0, 0), (0, 2))), np.pad(finished.head.b, (0, 2)))
    path = tmp_path / "snap.bin"
    snapshot.save(path, wide)
    with pytest.raises(snapshot.SnapshotError, match="^the head has 6 classes, the stream needs 4$"):
        snapshot.restore_engine(snapshot.load(path), ENC, CFG, finished.datasets)


# (tasks_done, {grid: [(cell, value)]}, match): a snapshot taken after task
# tasks_done holds no value in a later column (tests/test_hostile_inputs.py
# edits the evaluated cells of a finished run)
AFTER_TASKS_DONE = {
    "accuracy": (1, {"matrix.a_oracle": [((0, 1), 0.5)]}, "^array matrix.a_oracle "),
    "counts": (2, {"matrix.totals": [((0, 2), 16)], "matrix.hits": [((0, 2), 16)]}, "^array matrix.totals "),
}


@pytest.mark.parametrize("tasks_done, edits, match", AFTER_TASKS_DONE.values(), ids=AFTER_TASKS_DONE)
def test_grid_values_after_tasks_done_rejected(uninterrupted, tmp_path, tasks_done, edits, match):
    run = uninterrupted("quick", "lw2g")
    path = tmp_path / "snap.bin"
    path.write_bytes(run.snapshots[tasks_done - 1])
    snap = snapshot.load(path)
    for name, cells in edits.items():
        for cell, value in cells:
            snap["arrays"][name][cell] = value
    with pytest.raises(snapshot.SnapshotError, match=match):
        snapshot.restore_engine(snap, run.enc, run.train, generate(run.spec))


def test_training_a_finished_engine_rejected(uninterrupted, tmp_path):
    run = uninterrupted("quick", "lw2g")
    path = tmp_path / "snap.bin"
    path.write_bytes(run.snapshots[-1])
    engine = snapshot.restore_engine(snapshot.load(path), run.enc, run.train, generate(run.spec))
    with pytest.raises(TrainerError, match="^all 3 tasks of the stream are trained$"):
        engine.train_task()


def test_unevaluated_task_refused_before_the_file_is_opened(tmp_path):
    # restore_engine would reject the grids of such a file
    _, (spec, enc, train) = load_config(ROOT / "configs" / "quick.cfg")
    engine = Engine.fresh(enc, train, generate(spec))
    engine.train_task()
    path = tmp_path / "snap.bin"
    with pytest.raises(snapshot.SnapshotError,
                       match="^task 0 is trained but not evaluated: save after evaluate_after$"):
        snapshot.save(path, engine)
    assert not path.exists()
    engine.evaluate_after()
    snapshot.save(path, engine)
    restored = snapshot.restore_engine(snapshot.load(path), enc, train, generate(spec))
    assert restored.tasks_done == 1


@pytest.mark.parametrize("name", ["backbone.embed_w", "set0.p", "set0.k", "seen_classes"])
def test_missing_array_rejected(finished, tmp_path, name):
    # renamed in place: the container still loads, the engine lacks the array
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    raw = path.read_bytes()
    old = name.encode()
    assert raw.count(old) == 1
    path.write_bytes(raw.replace(old, old[:-1] + b"x"))
    snap = snapshot.load(path)
    with pytest.raises(snapshot.SnapshotError, match=f"missing array {name}$"):
        snapshot.restore_engine(snap, ENC, CFG, finished.datasets)


@pytest.mark.parametrize("name, corrupt", [
    ("old.0.block0", "old.0.blockX"),  # no such segment
    ("old.0.block0", "old.x.block0"),  # owner not an integer
    ("old.0.key", "old.9.key"),        # no such set
    ("old.0.key", "olx.0.key"),        # not a stored basis at all
])
def test_misnamed_stored_basis_rejected(finished, tmp_path, name, corrupt):
    # renamed in place: the container still loads, but a restored set lacks
    # one of its segments' bases
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    raw = path.read_bytes()
    assert raw.count(name.encode()) == 1
    path.write_bytes(raw.replace(name.encode(), corrupt.encode()))
    snap = snapshot.load(path)
    with pytest.raises(snapshot.SnapshotError, match=f"missing array {name}$"):
        snapshot.restore_engine(snap, ENC, CFG, finished.datasets)


def save_with(path, engine, replace=None, insert_before=None, insert=()):
    """Save ``engine`` with ``replace`` ({name: array}) swapped in, and the
    named arrays ``insert`` placed before array ``insert_before``."""
    arrays = [(name, (replace or {}).get(name, arr))
              for name, arr in snapshot.collect_arrays(engine)]
    if insert:
        at = [name for name, _ in arrays].index(insert_before)
        arrays[at:at] = list(insert)
    original = snapshot.collect_arrays
    snapshot.collect_arrays = lambda engine: arrays
    try:
        snapshot.save(path, engine)
    finally:
        snapshot.collect_arrays = original


D, P, L = ENC.d_model, ENC.n_prompted, ENC.prompt_len


MISSHAPEN = [
    ("backbone.embed_w", (3 * D, 24)),  # transposed
    ("backbone.b1.mlp_b1", (1, 2 * D)),
    ("head.w", (4, D)),                 # transposed
    ("head.b", (5,)),                   # not the header's head size
    ("set0.p", (P, L + 1, D)),
    ("set0.k", (D + 1,)),
    ("set0.attached", (P, L, D)),       # frozen rows without a source set
    ("old.0.key", (D - 1, 2)),
    ("matrix.a", (3, 3)),
]


@pytest.mark.parametrize("name, shape", MISSHAPEN, ids=[name for name, _ in MISSHAPEN])
def test_misshapen_array_rejected(finished, tmp_path, name, shape):
    path = tmp_path / "snap.bin"
    save_with(path, finished, replace={name: np.zeros(shape)})
    snap = snapshot.load(path)
    with pytest.raises(snapshot.SnapshotError, match=re.escape(f"array {name} has shape {shape}, expected")):
        snapshot.restore_engine(snap, ENC, CFG, finished.datasets)


def test_stored_basis_without_columns_rejected(finished, tmp_path):
    # no run stores an empty space: k_rank_basis keeps at least one column
    path = tmp_path / "snap.bin"
    save_with(path, finished, replace={"old.0.key": np.zeros((D, 0))})
    snap = snapshot.load(path)
    with pytest.raises(snapshot.SnapshotError,
                       match=f"^array old.0.key: basis has 0 columns in dimension {D}, expected 1 to {D}$"):
        snapshot.restore_engine(snap, ENC, CFG, finished.datasets)


def test_repeated_array_name_rejected(finished, tmp_path):
    path = tmp_path / "snap.bin"
    save_with(path, finished, insert_before="matrix.a", insert=[("head.b", finished.head.b)])
    with pytest.raises(snapshot.SnapshotError, match="^duplicate array head.b$"):
        snapshot.load(path)


def test_unknown_dtype_code_rejected(finished, tmp_path):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    raw = bytearray(path.read_bytes())
    raw[_field_offsets(raw)["ndim"] - 1] = ord("d")
    path.write_bytes(bytes(raw))
    with pytest.raises(snapshot.SnapshotError, match="array backbone.embed_w has unknown dtype code 'd'"):
        snapshot.load(path)


def test_restored_engine_has_the_attributes_of_a_fresh_one(finished, tmp_path):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    engine = snapshot.restore_engine(snapshot.load(path), ENC, CFG, finished.datasets)
    fresh = Engine.fresh(ENC, CFG, finished.datasets)
    assert sorted(vars(engine)) == sorted(vars(fresh))


def test_config_mismatch_rejected(finished, tmp_path):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    snap = snapshot.load(path)
    other = EncoderConfig(d_model=32, n_blocks=2, n_heads=4, prompt_len=3,
                          prompted_blocks=(0, 1), input_dim=24, n_feature_tokens=3)
    with pytest.raises(snapshot.SnapshotError):
        snapshot.restore_engine(snap, other, CFG, finished.datasets)


def test_attachments_roundtrip(tmp_path):
    data = generate(StreamSpec(n_tasks=2, classes_per_task=2, dim=24,
                               samples_per_class=30, seed=7))
    cfg = TrainConfig(epochs=1, lr=0.3, batch_size=16, seed=3, pretrain_steps=0,
                      probe_samples=32, space_samples=48, mode="grow_always", n_fft=1)
    eng = run_stream(ENC, cfg, data)
    frozen, sources = eng.pool.sets[1].extra, eng.pool.sets[1].sources
    assert frozen.shape[1] and sources == [0]
    path = tmp_path / "snap.bin"
    snapshot.save(path, eng)
    engine = snapshot.restore_engine(snapshot.load(path), ENC, cfg, data)
    back_frozen, back_sources = engine.pool.sets[1].extra, engine.pool.sets[1].sources
    assert back_sources == [0]
    np.testing.assert_array_equal(back_frozen, frozen)
    assert engine.pool.sets[0].extra.shape[1] == 0


class BoundedFile:
    """A snapshot file opened for reading whose ``read(n)`` fails for any
    ``n`` larger than the whole file, so a read sized from a corrupt length
    field fails the test before anything is allocated."""

    def __init__(self, path, mode="rb"):
        self.size = os.path.getsize(path)
        self.fh = open(path, mode)

    def read(self, n=-1):
        if n > self.size:
            raise AssertionError(f"read({n}) from a {self.size}-byte file")
        return self.fh.read(n)

    def seek(self, *args):
        return self.fh.seek(*args)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _field_offsets(raw):
    """Byte offsets of the length fields: n_prompted, n_arrays, and the
    first array's name length, name, ndim and first shape entry."""
    n_prompted = 4 + 4 * 7
    (count,) = struct.unpack("<I", raw[n_prompted:n_prompted + 4])
    n_arrays = n_prompted + 4 * (1 + count + 3)
    name_len = n_arrays + 4
    (length,) = struct.unpack("<H", raw[name_len:name_len + 2])
    ndim = name_len + 2 + length + 1  # past the dtype code
    return {"n_prompted": n_prompted, "n_arrays": n_arrays, "name": name_len + 2,
            "ndim": ndim, "shape0": ndim + 4, "shape1": ndim + 8}


@pytest.mark.parametrize("edit", ["trailing_bytes", "fewer_arrays"])
def test_bytes_after_the_last_array_rejected(finished, tmp_path, edit):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    raw = bytearray(path.read_bytes())
    if edit == "trailing_bytes":
        raw += b"JUNKJUNK"
    else:
        at = _field_offsets(raw)["n_arrays"]
        (count,) = struct.unpack("<I", raw[at:at + 4])
        raw[at:at + 4] = struct.pack("<I", count - 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(snapshot.SnapshotError, match="after the last array"):
        snapshot.load(path)


def test_non_utf8_name_rejected(finished, tmp_path):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    raw = bytearray(path.read_bytes())
    raw[_field_offsets(raw)["name"]] = 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(snapshot.SnapshotError, match="UTF-8"):
        snapshot.load(path)


@pytest.mark.parametrize("field, value", [
    ("n_prompted", 2**32 - 1), ("n_prompted", 2**28), ("n_arrays", 2**32 - 1),
    ("ndim", 2**32 - 1), ("ndim", 2**30), ("shape0", 2**32 - 1), ("shape1", 2**31),
])
def test_corrupt_length_field_is_checked_before_reading(finished, tmp_path, monkeypatch, field, value):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    raw = bytearray(path.read_bytes())
    at = _field_offsets(raw)[field]
    raw[at:at + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(raw))
    monkeypatch.setattr(snapshot, "open", BoundedFile, raising=False)
    with pytest.raises(snapshot.SnapshotError, match="truncated"):
        snapshot.load(path)


def test_bounded_file_loads_an_intact_snapshot(finished, tmp_path, monkeypatch):
    path = tmp_path / "snap.bin"
    snapshot.save(path, finished)
    expected = snapshot.load(path)
    monkeypatch.setattr(snapshot, "open", BoundedFile, raising=False)
    loaded = snapshot.load(path)
    assert list(loaded["arrays"]) == list(expected["arrays"])
    for name, arr in expected["arrays"].items():
        assert np.array_equal(loaded["arrays"][name], arr)

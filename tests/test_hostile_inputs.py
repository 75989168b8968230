"""Hostile snapshots: every corrupted file either restores or raises
``SnapshotError``, and none makes the reader allocate more than a few MB.

The snapshot comes from ``configs/quick.cfg`` in ``grow_always`` mode (three
sets, set 1 and set 2 each with one frozen transfer source). Every single
bit of its header and of its first array's descriptor is flipped in turn;
hypothesis then draws bit flips and truncations anywhere in the file. The
named cases below pin the checks a sweep relies on: the value checks on the
integer arrays, the axis bound, and the non-finite payload check.
"""

import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcl import snapshot
from growcl.cli import main
from growcl.config import load_config

ROOT = Path(__file__).resolve().parents[1]
# quick.cfg's header: magic, version, 6 encoder fields, mlp_ratio,
# n_prompted, 2 prompted blocks, n_classes, n_tasks, tasks_done, n_arrays
HEADER_BYTES = 4 + 4 * 15
# no case may allocate more than this on top of what the test holds
PEAK_BOUND = 4 * 2**20


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """(snapshot bytes, encoder config, train config, scratch file path)."""
    out = tmp_path_factory.mktemp("quick")
    cfg_path = ROOT / "configs" / "quick.cfg"
    assert main(["run", "--config", str(cfg_path), "--mode", "grow_always", "--out", str(out)]) == 0
    _, (_, enc, train) = load_config(cfg_path)
    return (out / "snapshot.bin").read_bytes(), enc, train, out / "hostile.bin"


def _descriptor_end(raw: bytes) -> int:
    """Offset just past the first array's descriptor (name length, name,
    ndim and shape), where its data starts."""
    (name_len,) = struct.unpack("<H", raw[HEADER_BYTES:HEADER_BYTES + 2])
    at = HEADER_BYTES + 2 + name_len
    (ndim,) = struct.unpack("<I", raw[at:at + 4])
    return at + 4 + 4 * ndim


def _restore(raw: bytes, quick) -> None:
    """Load and restore ``raw``; only ``SnapshotError`` may escape, and the
    attempt's allocation peak must stay under ``PEAK_BOUND``."""
    _, enc, train, path = quick
    path.write_bytes(raw)
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        snapshot.restore_engine(snapshot.load(path), enc, train)
    except snapshot.SnapshotError:
        pass
    peak = tracemalloc.get_traced_memory()[1] - base
    assert peak < PEAK_BOUND, f"allocated {peak} bytes"


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def _flip(raw: bytes, bit: int) -> bytes:
    out = bytearray(raw)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def test_intact_snapshot_restores(quick, traced):
    raw, enc, train, path = quick
    path.write_bytes(raw)
    engine, matrix = snapshot.restore_engine(snapshot.load(path), enc, train)
    assert len(engine.pool) == 3 and engine.tasks_done == matrix.n_tasks == 3
    _restore(raw, quick)


def test_every_header_and_descriptor_bit_flip(quick, traced):
    raw = quick[0]
    assert _descriptor_end(raw) == HEADER_BYTES + 2 + len("backbone.embed_w") + 4 + 8
    for bit in range(8 * _descriptor_end(raw)):
        _restore(_flip(raw, bit), quick)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_random_flips_and_truncations(quick, data):
    raw = quick[0]
    flips = data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=3))
    for bit in flips:
        raw = _flip(raw, bit)
    if data.draw(st.booleans()):
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    tracemalloc.start()
    try:
        _restore(raw, quick)
    finally:
        tracemalloc.stop()


def test_first_array_ndim_flip_rejected(quick):
    raw, enc, train, path = quick
    at = _descriptor_end(raw) - 12  # ndim of the 2-D backbone.embed_w
    path.write_bytes(_flip(raw, 8 * at + 9))  # 2 -> 514 axes
    with pytest.raises(snapshot.SnapshotError, match="514 axes"):
        snapshot.load(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_payload_rejected(quick, value):
    raw, enc, train, path = quick
    out = bytearray(raw)
    at = _descriptor_end(raw)  # backbone.embed_w[0, 0]
    out[at:at + 4] = struct.pack("<f", value)
    path.write_bytes(bytes(out))
    with pytest.raises(snapshot.SnapshotError, match="^array backbone.embed_w holds non-finite values$"):
        snapshot.load(path)


def _loaded(quick) -> dict:
    raw, _, _, path = quick
    path.write_bytes(raw)
    return snapshot.load(path)


@pytest.mark.parametrize("edits, match", [
    # a pool no run could build: set 9 does not exist, task 0 is set 0's,
    # and the run has 3 tasks
    ({"set1.attached_ids": [9], "set2.tasks": [0, 7]}, "attached_ids"),
    ({"set1.attached_ids": [9]}, "set1.attached_ids"),
    ({"set1.attached_ids": [1]}, "lists itself"),
    ({"set1.attached_ids": [0.5]}, "set1.attached_ids"),
    ({"set2.tasks": [0, 7]}, "set2.tasks"),
    ({"set2.tasks": [0]}, "exactly once"),
    ({"set2.tasks": []}, "exactly once"),
    ({"seen_classes": [0, 1, 2, 3, 4, 4]}, "repeats"),
    ({"seen_classes": [0, 1, 2, 3, 4, 6]}, "seen_classes"),
    ({"seen_classes": [-1]}, "seen_classes"),
])
def test_integer_values_checked(quick, edits, match):
    _, enc, train, _ = quick
    snap = _loaded(quick)
    for name, values in edits.items():
        snap["arrays"][name] = np.asarray(values, dtype=float)
    with pytest.raises(snapshot.SnapshotError, match=match):
        snapshot.restore_engine(snap, enc, train)


@pytest.mark.parametrize("field, value, match", [
    ("tasks_done", 4, "exceeds n_tasks"),
    ("mlp_ratio", 3, "mlp_ratio"),
])
def test_header_values_checked(quick, field, value, match):
    _, enc, train, _ = quick
    snap = _loaded(quick)
    snap[field] = value
    with pytest.raises(snapshot.SnapshotError, match=match):
        snapshot.restore_engine(snap, enc, train)

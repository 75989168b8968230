"""Hostile inputs: corrupted snapshots, traces, reports and configs.

Every corrupted snapshot either restores or raises ``SnapshotError``, and
none makes the reader allocate more than a few MB. The snapshot comes from
``configs/quick.cfg`` in ``grow_always`` mode (three sets, set 1 and set 2
each with one frozen transfer source). Every single bit of its header and of
its first array's descriptor is flipped in turn; hypothesis then draws bit
flips and truncations anywhere in the file. The named cases pin the checks
a sweep relies on: the dtype checks, the value checks on the integer arrays
(transfer sources and task lists included), the accuracy grids and the RNG
words, the axis bound, the non-finite payload check, and the refusal of an
array that ``restore_engine`` never reads or of arrays out of ``save``'s
order.

Hypothesis also mutates trace rows (``replay`` must exit 0 or 2), reports
(``compare`` must exit 0 or 2) and config values (parsing must succeed or
exit 1, and no run starts); each ``@example`` pins a case that once ended in
a traceback.
"""

import contextlib
import io
import json
import struct
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from growcl import cli, snapshot
from growcl.cli import main
from growcl.config import load_config
from growcl.stream import generate
from trace_fixtures import TRACE_SIX_SETS

ROOT = Path(__file__).resolve().parents[1]
# quick.cfg's header: magic, version, 6 encoder fields, n_prompted,
# 2 prompted blocks, n_classes, n_tasks, tasks_done, n_arrays
HEADER_BYTES = 4 + 4 * 14
# no case may allocate more than this on top of what the test holds
PEAK_BOUND = 4 * 2**20


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """(snapshot bytes, encoder config, train config, task stream, scratch
    file path)."""
    out = tmp_path_factory.mktemp("quick")
    cfg_path = ROOT / "configs" / "quick.cfg"
    assert main(["run", "--config", str(cfg_path), "--mode", "grow_always", "--out", str(out)]) == 0
    _, (spec, enc, train) = load_config(cfg_path)
    return (out / "snapshot.bin").read_bytes(), enc, train, generate(spec), out / "hostile.bin"


def _descriptor_end(raw: bytes) -> int:
    """Offset just past the first array's descriptor (name length, name,
    dtype code, ndim and shape), where its data starts."""
    (name_len,) = struct.unpack("<H", raw[HEADER_BYTES:HEADER_BYTES + 2])
    at = HEADER_BYTES + 2 + name_len + 1
    (ndim,) = struct.unpack("<I", raw[at:at + 4])
    return at + 4 + 4 * ndim


def _restore(raw: bytes, quick) -> None:
    """Load and restore ``raw``; only ``SnapshotError`` may escape, and the
    attempt's allocation peak must stay under ``PEAK_BOUND``."""
    _, enc, train, datasets, path = quick
    path.write_bytes(raw)
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        snapshot.restore_engine(snapshot.load(path), enc, train, datasets)
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
    raw, enc, train, datasets, path = quick
    path.write_bytes(raw)
    engine = snapshot.restore_engine(snapshot.load(path), enc, train, datasets)
    assert len(engine.pool) == 3 and engine.tasks_done == engine.matrix.n_tasks == 3
    _restore(raw, quick)


def test_every_header_and_descriptor_bit_flip(quick, traced):
    raw = quick[0]
    assert _descriptor_end(raw) == HEADER_BYTES + 2 + len("backbone.embed_w") + 1 + 4 + 8
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
    raw, _, _, _, path = quick
    at = _descriptor_end(raw) - 12  # ndim of the 2-D backbone.embed_w
    path.write_bytes(_flip(raw, 8 * at + 9))  # 2 -> 514 axes
    with pytest.raises(snapshot.SnapshotError, match="514 axes"):
        snapshot.load(path)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_payload_rejected(quick, value):
    raw, _, _, _, path = quick
    out = bytearray(raw)
    at = _descriptor_end(raw)  # backbone.embed_w[0, 0]
    out[at:at + 8] = struct.pack("<d", value)
    path.write_bytes(bytes(out))
    with pytest.raises(snapshot.SnapshotError, match="^array backbone.embed_w holds non-finite values$"):
        snapshot.load(path)


def _loaded(quick) -> dict:
    raw, _, _, _, path = quick
    path.write_bytes(raw)
    return snapshot.load(path)


@pytest.mark.parametrize("edits, match", [
    # a pool no run could build: set 9 does not exist, task 0 is set 0's,
    # and the run has 3 tasks
    ({"set1.attached_ids": [9], "set2.tasks": [0, 7]}, "attached_ids"),
    ({"set1.attached_ids": [9]}, "set1.attached_ids"),
    ({"set1.attached_ids": [1]}, "lists itself"),
    ({"set1.attached_ids": [-1]}, "set1.attached_ids"),
    ({"set2.tasks": [0, 7]}, "set2.tasks"),
    ({"set2.tasks": [0]}, "exactly once"),
    ({"set2.tasks": []}, "exactly once"),
    ({"seen_classes": [0, 1, 2, 3, 4, 4]}, "seen_classes"),
    ({"seen_classes": [0, 1, 2, 3, 4, 6]}, "seen_classes"),
    ({"seen_classes": [-1]}, "seen_classes"),
    # set 1 grew before set 2 existed
    ({"set1.attached_ids": [2]}, "set 1 lists itself or a later set"),
    # task lists no run writes: every task held once, but a set with no
    # task, a set's tasks out of order, or sets out of first-task order
    ({"set1.tasks": [2, 1], "set2.tasks": []}, r"^array set1.tasks holds \[2, 1\], expected a non-empty"),
    ({"set0.tasks": [0, 2], "set2.tasks": []}, r"^array set2.tasks holds \[\], expected a non-empty"),
    ({"set0.tasks": [1], "set1.tasks": [0]}, r"^the sets' first tasks are \[1, 0, 2\]"),
    ({"set1.tasks": [2], "set2.tasks": [1]}, r"^the sets' first tasks are \[0, 2, 1\]"),
])
def test_integer_values_checked(quick, edits, match):
    _, enc, train, datasets, _ = quick
    snap = _loaded(quick)
    for name, values in edits.items():
        snap["arrays"][name] = np.asarray(values, dtype=np.int64)
    with pytest.raises(snapshot.SnapshotError, match=match):
        snapshot.restore_engine(snap, enc, train, datasets)


def test_repeated_transfer_source_rejected(quick):
    _, enc, train, datasets, _ = quick
    snap = _loaded(quick)
    arrays = snap["arrays"]
    arrays["set2.attached_ids"] = np.array([0, 0])
    arrays["set2.attached"] = np.concatenate([arrays["set2.attached"]] * 2, axis=1)
    with pytest.raises(snapshot.SnapshotError, match="^set 2 lists a set twice in set2.attached_ids$"):
        snapshot.restore_engine(snap, enc, train, datasets)


@pytest.mark.parametrize("name", ["junk", "old.7.key", "set5.p"])
def test_array_restore_never_reads_rejected(quick, name):
    # saving the restored engine would drop it: the bytes would differ
    _, enc, train, datasets, _ = quick
    snap = _loaded(quick)
    snap["arrays"][name] = np.zeros(3)
    with pytest.raises(snapshot.SnapshotError, match=f"^unexpected array {name}$"):
        snapshot.restore_engine(snap, enc, train, datasets)


def test_arrays_out_of_order_rejected(quick):
    _, enc, train, datasets, _ = quick
    snap = _loaded(quick)
    snap["arrays"] = dict(reversed(snap["arrays"].items()))
    with pytest.raises(snapshot.SnapshotError, match="^arrays out of declaration order$"):
        snapshot.restore_engine(snap, enc, train, datasets)


DTYPE_CASES = {
    # integer arrays written as floats, whole or not
    "attached_ids-0.5": ("set1.attached_ids", np.array([0.5]), "float64, expected int64"),
    "attached_ids-0.0": ("set1.attached_ids", np.array([0.0]), "float64, expected int64"),
    "hits-1e+30": ("matrix.hits", np.full((3, 3), 1e30), "float64, expected int64"),
    "totals-2.5": ("matrix.totals", np.full((3, 3), 2.5), "float64, expected int64"),
    "totals-1e+30": ("matrix.totals", np.full((3, 3), 1e30), "float64, expected int64"),
    "seen_classes-uint64": ("seen_classes", np.arange(6, dtype=np.uint64), "uint64, expected int64"),
    # float arrays written as integers
    "a-int64": ("matrix.a", np.zeros((3, 3), dtype=np.int64), "int64, expected float64"),
    "head.b-int64": ("head.b", np.zeros(6, dtype=np.int64), "int64, expected float64"),
    "rng-int64": ("rng", np.zeros(6, dtype=np.int64), "int64, expected uint64"),
}


@pytest.mark.parametrize("name, values, match", DTYPE_CASES.values(), ids=DTYPE_CASES)
def test_dtypes_checked(quick, name, values, match):
    _, enc, train, datasets, _ = quick
    snap = _loaded(quick)
    snap["arrays"][name] = values
    with pytest.raises(snapshot.SnapshotError, match=f"^array {name} holds {match}$"):
        snapshot.restore_engine(snap, enc, train, datasets)


# the rng words: state (high, low), inc (high, low), has_uint32, uinteger
RNG_CASES = {
    "has_uint32-2": ({4: 2}, "has_uint32 2"),
    # one flipped bit in a stored 1: the PCG64 setter would raise OverflowError
    "has_uint32-bit-40": ({4: 1 | 2**40}, "has_uint32 1099511627777"),
    "uinteger-2**32": ({5: 2**32}, "uinteger 4294967296"),
    "shape": ({}, "shape"),
}


@pytest.mark.parametrize("words, match", RNG_CASES.values(), ids=RNG_CASES)
def test_rng_words_checked(quick, words, match):
    _, enc, train, datasets, _ = quick
    snap = _loaded(quick)
    rng = snap["arrays"]["rng"].copy()
    for at, value in words.items():
        rng[at] = value
    snap["arrays"]["rng"] = rng if words else rng[:5]
    with pytest.raises(snapshot.SnapshotError, match=match):
        snapshot.restore_engine(snap, enc, train, datasets)


class _RefusingPCG64(np.random.PCG64):
    """A PCG64 whose state setter refuses every state."""

    @property
    def state(self):
        return super().state

    @state.setter
    def state(self, value):
        raise OverflowError("value too large to convert to uint32_t")


def test_rng_state_the_setter_refuses(quick, monkeypatch):
    # whatever the setter raises on a state the word checks let through is
    # a SnapshotError
    _, enc, train, datasets, _ = quick
    snap = _loaded(quick)
    monkeypatch.setattr(np.random, "PCG64", _RefusingPCG64)
    with pytest.raises(snapshot.SnapshotError, match="PCG64 refuses: value too large"):
        snapshot.restore_engine(snap, enc, train, datasets)


@pytest.mark.parametrize("field, value, match", [
    ("tasks_done", 4, "exceeds n_tasks"),
])
def test_header_values_checked(quick, field, value, match):
    _, enc, train, datasets, _ = quick
    snap = _loaded(quick)
    snap[field] = value
    with pytest.raises(snapshot.SnapshotError, match=match):
        snapshot.restore_engine(snap, enc, train, datasets)


@pytest.mark.parametrize("name, index, value, match", [
    ("matrix.hits", (0, 2), -1, "matrix.hits holds negative"),
    ("matrix.a", (0, 2), 7.5, "matrix.a "),
    ("matrix.a_oracle", (1, 1), -0.5, "matrix.a_oracle"),
    ("matrix.a_oracle", (0, 0), 1.5, "matrix.a_oracle"),
    ("matrix.totals", (0, 0), -1.0, "matrix.totals"),
    ("matrix.a", (1, 1), -2.0, "matrix.a "),
    ("matrix.hits", (0, 0), 1e6, "exceeds matrix.totals"),
    # every cell (i, t) with i <= t is evaluated in a finished run's grids:
    # it holds no gap, and its total is task i's test size (16 rows)
    ("matrix.a", (0, 2), -1.0, "matrix.a "),
    ("matrix.totals", (1, 2), 100, "matrix.totals"),
    # a cell with i > t is never evaluated
    ("matrix.a_oracle", (2, 0), 0.5, "matrix.a_oracle"),
])
def test_grid_values_checked(quick, name, index, value, match):
    _, enc, train, datasets, _ = quick
    snap = _loaded(quick)
    snap["arrays"][name] = snap["arrays"][name].copy()
    snap["arrays"][name][index] = value
    with pytest.raises(snapshot.SnapshotError, match=match):
        snapshot.restore_engine(snap, enc, train, datasets)


# -- traces, reports and configs ---------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# any JSON value, small
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400)
    | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)

TRACE_ROWS = [{"task": 1, "records": []}] + [
    {"task": task, "records": [{"set": s, "hfc_old_deg": old, "hfc_pre_deg": pre} for s, old, pre in records]}
    for task, records in TRACE_SIX_SETS
]


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("hostile_text")


def _main(argv) -> tuple:
    """(exit code, stderr) of one CLI call, its stdout discarded."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _one_error_line(err: str, prefix: str):
    assert err.startswith(prefix) and err.count("\n") == 1, err


@st.composite
def mutated_trace(draw):
    """Trace lines with one row, record or field replaced, removed or cut short."""
    rows = json.loads(json.dumps(TRACE_ROWS))
    row = draw(st.sampled_from(rows[1:]))
    record = draw(st.sampled_from(row["records"]))
    target, key = draw(st.sampled_from(
        [(row, "task"), (row, "records")] + [(record, k) for k in ("set", "hfc_old_deg", "hfc_pre_deg")]
    ))
    if draw(st.booleans()):
        target[key] = draw(json_values)
    else:
        del target[key]
    lines = [json.dumps(r) for r in rows]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = lines[at][: draw(st.integers(0, len(lines[at])))]
    return lines


@PROPERTY_SETTINGS
@given(mutated_trace())
@example([json.dumps(TRACE_ROWS[0]), '{"task": 2, "records": [{"set": 1e999, "hfc_old_deg": 9, "hfc_pre_deg": 8}]}'])
@example([json.dumps(TRACE_ROWS[0]), '{"task": ' + "1" * 5000 + ', "records": []}'])
@example(["[" * 100000 + "]" * 100000])
def test_mutated_trace_replays_or_exits_2(scratch, lines):
    path = scratch / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n")
    code, err = _main(["replay", "--replay", str(path)])
    assert code in (0, 2)
    if code == 2:
        _one_error_line(err, "runtime error: ")


REPORT = {"schema": 1, "metrics": {"faa": 0.4, "ffm": 0.1, "pra": 0.5, "ssp": 2, "faa_oracle": 0.9}}


@st.composite
def mutated_report(draw):
    """Report text with one compared metric, the metrics object or the whole
    report replaced, or the text cut short."""
    report = json.loads(json.dumps(REPORT))
    where = draw(st.sampled_from(["faa", "ffm", "pra", "ssp", "metrics", "report"]))
    value = draw(json_values)
    if where == "report":
        report = value
    elif where == "metrics":
        report["metrics"] = value
    else:
        report["metrics"][where] = value
    text = json.dumps(report)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@PROPERTY_SETTINGS
@given(mutated_report())
@example('{"metrics": {"faa": ' + "9" * 400 + '}}')
@example("[" * 100000 + "]" * 100000)
def test_mutated_report_compares_or_exits_2(scratch, text):
    (scratch / "a.json").write_text(json.dumps(REPORT))
    (scratch / "b.json").write_text(text)
    for pair in (("a.json", "b.json"), ("b.json", "a.json")):
        code, err = _main(["compare", *(str(scratch / name) for name in pair)])
        assert code in (0, 2)
        if code == 2:
            _one_error_line(err, "runtime error: ")


QUICK_LINES = (ROOT / "configs" / "quick.cfg").read_text().splitlines()
VALUE_LINES = [i for i, line in enumerate(QUICK_LINES) if " = " in line]


class _RunStarted(BaseException):
    """Raised in place of the run once the config has parsed."""


@PROPERTY_SETTINGS
@given(
    st.sampled_from(VALUE_LINES),
    st.text(alphabet="0123456789.,-+e %$(){}:;[]\nabinfINF", max_size=8)
    | st.sampled_from(["1e999", "-1e999", "nan", "inf", "1" * 5000, "%(dim)s", "${dim}"]),
)
@example(next(i for i in VALUE_LINES if QUICK_LINES[i].startswith("mode")), "lw2g%")
def test_mutated_config_value_parses_or_exits_1(scratch, line, value):
    lines = list(QUICK_LINES)
    lines[line] = lines[line].split(" = ")[0] + " = " + value
    path = scratch / "mutated.cfg"
    path.write_text("\n".join(lines) + "\n")
    with mock.patch.object(cli, "generate", side_effect=_RunStarted):
        try:
            code, err = _main(["run", "--config", str(path), "--out", str(scratch / "run")])
        except _RunStarted:
            return  # parsed: the run would start here
    assert code == 1
    _one_error_line(err, "config error: ")

"""scripts/same_outputs.py, the strict-form gate: its plan of runs and its
file comparison, checked without running the engine."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from growcl.config import load_config
from growcl.encoder import ROW_BLOCK
from growcl.stream import n_train_per_class

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def gate():
    """The script as a module, loaded without writing bytecode next to it;
    its import-time edits to ``sys.path`` and ``sys.dont_write_bytecode`` are
    undone."""
    path, bytecode = list(sys.path), sys.dont_write_bytecode
    try:
        sys.dont_write_bytecode = True
        spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path
        sys.dont_write_bytecode = bytecode
    return module


def test_plan_holds_the_one_row_edge_runs(gate, tmp_path):
    plan = gate.runs(tmp_path)
    assert len(plan) == 14
    # a config that no longer parses (say [train] is not comparison.cfg's
    # last section, so probe_samples lands in another one) raises here
    parsed = {name: load_config(args[args.index("--config") + 1])[1] for name, args in plan.items()}

    # each edge run is its shipped config with one key changed
    stream, encoder, train = load_config(ROOT / "configs" / "quick.cfg")[1]
    assert parsed["quick-b1"] == (stream, encoder, replace(train, batch_size=1))
    stream, encoder, train = load_config(ROOT / "configs" / "comparison.cfg")[1]
    assert parsed["probe-129"] == (stream, encoder, replace(train, probe_samples=129))
    # the probe takes 129 of a task's 144 train rows: passes of 64, 64 and 1
    assert n_train_per_class(stream.samples_per_class) * stream.classes_per_task == 144
    assert 129 % ROW_BLOCK == 1


def _outputs(root: Path, names):
    for name in names:
        (root / name).mkdir(parents=True)
        for f in ("report.json", "trace.jsonl", "metrics.csv", "snapshot.bin"):
            (root / name / f).write_bytes(f"{name}/{f}\n".encode())


def test_identical_outputs_differ_nowhere(gate, tmp_path):
    _outputs(tmp_path / "a", ["r1", "r2"])
    _outputs(tmp_path / "b", ["r1", "r2"])
    assert gate.differing(["r1", "r2"], tmp_path / "a", tmp_path / "b") == []


def test_a_flipped_byte_is_listed(gate, tmp_path):
    _outputs(tmp_path / "a", ["r1", "r2"])
    _outputs(tmp_path / "b", ["r1", "r2"])
    path = tmp_path / "b" / "r2" / "snapshot.bin"
    data = bytearray(path.read_bytes())
    data[0] ^= 1
    path.write_bytes(bytes(data))
    assert gate.differing(["r1", "r2"], tmp_path / "a", tmp_path / "b") == ["r2/snapshot.bin"]


@pytest.mark.parametrize("side", ["a", "b"])
def test_a_missing_file_is_listed_not_raised(gate, tmp_path, side):
    _outputs(tmp_path / "a", ["r1", "r2"])
    _outputs(tmp_path / "b", ["r1", "r2"])
    (tmp_path / side / "r1" / "trace.jsonl").unlink()
    assert gate.differing(["r1", "r2"], tmp_path / "a", tmp_path / "b") == ["r1/trace.jsonl"]

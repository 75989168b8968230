"""Golden decision traces: numerics of the shipped configs stay put.

``tests/golden/*.trace.jsonl`` are the ``trace.jsonl`` files that ``growcl
run`` wrote for ``configs/quick.cfg`` and ``configs/comparison.cfg`` (both in
``lw2g`` mode) before the encoder computed prompts as attention prefixes.
A rerun must make the same decisions and end with the same pool; every
recorded angle and gap may move by at most 1e-6 degrees, the precision the
trace is written with.
"""

import json
from pathlib import Path

import pytest

from growcl.cli import main

ROOT = Path(__file__).resolve().parents[1]
# One unit in the sixth decimal, plus slack for its binary representation.
ANGLE_TOL = 1e-6 + 1e-9


def _rows(path: Path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


@pytest.mark.parametrize("name", ["quick", "comparison"])
def test_rerun_matches_golden_trace(name, tmp_path):
    assert main(["run", "--config", str(ROOT / "configs" / f"{name}.cfg"),
                 "--mode", "lw2g", "--out", str(tmp_path)]) == 0
    golden = _rows(ROOT / "tests" / "golden" / f"{name}.trace.jsonl")
    rows = _rows(tmp_path / "trace.jsonl")
    assert len(rows) == len(golden)
    for got, want in zip(rows, golden):
        assert got["task"] == want["task"]
        assert got["decision"] == want["decision"]
        assert got["pool_after"] == want["pool_after"]
        assert [r["set"] for r in got["records"]] == [r["set"] for r in want["records"]]
        for r, w in zip(got["records"], want["records"]):
            for key in ("hfc_old_deg", "hfc_pre_deg", "z"):
                assert abs(r[key] - w[key]) <= ANGLE_TOL, (want["task"], r["set"], key, r[key], w[key])

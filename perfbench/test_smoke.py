"""Reduced-size self-test of the benchmark.

    python3 -m pytest perfbench

Runs every workload, shrunk to a few samples, one epoch and a few pretrain
steps, untraced (the fewest runs an invocation makes) and traced (one
untraced and one traced run), and checks that every metric named in
BENCHMARK.json is emitted with its unit and direction, that every wrapper is
removed after the traced run, and that the layers' self times sum to no more
than the traced wall time.
"""

from __future__ import annotations

import json
import math
import re
import sys

import pytest

import run
import spans
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TRACED_CLASSES = ("growcl.autodiff.Tensor", "growcl.decisions.GradientProbe",
                  "growcl.pool.PromptPool", "growcl.trainer.Engine")


def small(text: str) -> str:
    for key, value in (("samples_per_class", "10"), ("epochs", "1"), ("pretrain_steps", "3")):
        text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
    return text


def growcl_callables() -> dict:
    """Every function reachable by name in growcl's modules and traced classes."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "growcl" or name.startswith("growcl."):
            found.update({(name, attr): v for attr, v in vars(mod).items() if callable(v)})
    for path in TRACED_CLASSES:
        mod_name, cls_name = path.rsplit(".", 1)
        cls = getattr(sys.modules[mod_name], cls_name)
        found.update({(path, attr): v for attr, v in vars(cls).items() if callable(v)})
    return found


def test_metric_tables_match_benchmark_json():
    for section, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC[section]}
        assert declared == table, section


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_small_run_emits_every_metric(tmp_path, workload):
    text = small(workloads.config_text(workload, seed=3))
    before = growcl_callables()
    for trace, table, runs in ((False, run.END_TO_END, run.MIN_RUNS), (True, run.PER_LAYER, 1)):
        result, times, _ = run.bench(workload, text, 0, trace, tmp_path)
        assert len(times) == runs
        assert result["correct"] and result["failed"] == 0
        metrics = result["metrics"]
        assert set(metrics) == set(table)
        for name, entry in metrics.items():
            assert entry["unit"] == table[name][0], name
            assert math.isfinite(entry["value"]), name
    assert growcl_callables() == before, "a wrapper was left installed"
    self_total = sum(metrics[f"{layer}.self_s"]["value"] for layer in spans.LAYERS)
    assert 0.0 < self_total <= metrics["trace.wall_s"]["value"]
    assert metrics["pool.size"]["value"] >= 1


def test_failed_check_is_counted(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "reuse-train", 2)
    text = small(workloads.config_text("reuse-train", seed=3))
    result, _, _ = run.bench("reuse-train", text, 0, False, tmp_path)
    assert not result["correct"] and result["failed"] == 1

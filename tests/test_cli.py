import json
import os
import platform
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from growcl import cli, trainer
from growcl.cli import HEAP_SETTINGS, keep_heap, main, replay_rows
from growcl.config import _RENAMED_KEYS, _SECTIONS, ConfigError, parse_config
from trace_fixtures import (
    SIX_SETS_DECISIONS,
    SIX_SETS_FINAL_POOL,
    TRACE_SIX_SETS,
    TRACE_TWO_SETS,
    TWO_SETS_DECISIONS,
    TWO_SETS_FINAL_POOL,
)

CONFIG_TEXT = """\
[stream]
n_tasks = 2
classes_per_task = 2
dim = 24
samples_per_class = 30
seed = 5

[encoder]
d_model = 16
n_blocks = 2
n_heads = 4
prompt_len = 3
prompted_blocks = 0,1
input_dim = 24
n_feature_tokens = 3

[train]
mode = lw2g
epochs = 2
lr = 0.3
batch_size = 16
seed = 3
pretrain_steps = 10
probe_samples = 32
space_samples = 48
"""


def config_with(section, key, value):
    """CONFIG_TEXT with ``key = value`` set in ``[section]`` (replacing any
    line for ``key`` there)."""
    head, _, rest = CONFIG_TEXT.partition(f"[{section}]\n")
    body, sep, tail = rest.partition("\n[")
    body = re.sub(rf"^{key} = .*\n?", "", body, flags=re.M)
    return f"{head}[{section}]\n{key} = {value}\n{body}{sep}{tail}"


def trace_jsonl(trace, path):
    rows = [{"task": 1, "records": []}]
    for task, pairs in trace:
        rows.append({
            "task": task,
            "records": [{"set": s, "hfc_old_deg": o, "hfc_pre_deg": p} for s, o, p in pairs],
        })
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return rows


def decision_strings(decisions):
    return ["grow" if d == "grow" else f"reuse({d[1]})" for d in decisions]


class TestConfigParsing:
    def test_full_roundtrip(self):
        spec, enc, train = parse_config(CONFIG_TEXT)
        assert spec.n_tasks == 2
        assert enc.prompted_blocks == (0, 1)
        assert train.mode == "lw2g"

    def test_defaults_when_sections_missing(self):
        spec, enc, train = parse_config("[train]\nmode = grow_always\n")
        assert train.mode == "grow_always"
        assert enc.d_model == 32

    def test_unknown_key_rejected(self, tmp_path):
        # bogus keys, and the removed fft_literal_angle / space_from / key_loss / key_loss_weight /
        # mlp_ratio / encoder seed / pretrain_classes / pretrain_lr / rotation_jitter_deg /
        # shift_fraction
        for section, line in (("train", "bogus = 1"), ("train", "fft_literal_angle = 0"),
                              ("train", "space_from = prompted"), ("encoder", "key_loss = cosine"),
                              ("encoder", "key_loss_weight = 1.0"), ("encoder", "mlp_ratio = 2"),
                              ("encoder", "seed = 99"), ("train", "pretrain_classes = 8"),
                              ("train", "pretrain_lr = 0.05"), ("stream", "rotation_jitter_deg = 10"),
                              ("stream", "shift_fraction = 0.05")):
            with pytest.raises(ConfigError):
                parse_config(f"[{section}]\n{line}\n")
            path = tmp_path / "exp.cfg"
            path.write_text(CONFIG_TEXT.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_readme_lists_every_config_field(self):
        # each section's bullet under "## Config format" names its keys in
        # backticks; parenthesised notes (allowed values, limits) name none
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Config format", 1)[1].split("\n## ", 1)[0]
        for name, cls in _SECTIONS.items():
            bullet = re.search(rf"^- `\[{name}\]`:(.*?)(?=^- |^$)", section, re.M | re.S).group(1)
            listed = set(re.findall(r"`([a-z_]+)`", re.sub(r"\([^()]*\)", "", bullet)))
            key_of = {f: key for key, f in _RENAMED_KEYS.get(name, {}).items()}
            assert listed == {key_of.get(f.name, f.name) for f in fields(cls)}, name

    def test_input_dim_taken_from_stream_dim(self):
        _, enc, _ = parse_config(CONFIG_TEXT.replace("input_dim = 24\n", ""))
        assert enc.input_dim == 24
        _, enc, _ = parse_config("[stream]\ndim = 10\n")
        assert enc.input_dim == 10

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[general]\nx = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[train]\nepochs = many\n")

    def test_similarity_alias(self):
        spec, _, _ = parse_config("[stream]\nn_tasks = 2\nsimilarity = 0,1\n")
        assert spec.similarity_schedule == (0.0, 1.0)

    def test_similarity_schedule_is_not_a_key(self):
        # one spelling, so a section holding both is rejected, not read last-wins
        for text in ("similarity_schedule = 0,1\n", "similarity = 0,1\nsimilarity_schedule = 0,0\n"):
            with pytest.raises(ConfigError, match="unknown key 'similarity_schedule'"):
                parse_config("[stream]\nn_tasks = 2\n" + text)


class TestRun:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_TEXT)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        for name in ("report.json", "trace.jsonl", "metrics.csv", "snapshot.bin", "manifest.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert report["metrics"]["ssp"] <= 2
        assert len(report["decisions"]) == 2

    def test_mode_and_seed_overrides(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_TEXT)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--mode", "grow_always",
                   "--seed", "9", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metrics"]["ssp"] == 2  # grow_always: one set per task
        assert report["config"]["train"]["mode"] == "grow_always"
        assert report["config"]["train"]["seed"] == 9

    def test_run_does_not_load_numpy_ma(self, tmp_path):
        # numpy.ma adds about 0.6 MB of resident memory that no part of a run
        # needs; np.unique, for one, imports it lazily on numpy >= 2. A fresh
        # interpreter, since this one may have loaded it already.
        root = Path(__file__).resolve().parent.parent
        code = (
            "import sys; from growcl.cli import main; before = 'numpy.ma' in sys.modules; "
            "rc = main(['run', '--config', sys.argv[1], '--mode', 'grow_always', '--out', sys.argv[2]]); "
            "print(rc, before, 'numpy.ma' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run(
            [sys.executable, "-c", code, str(root / "configs" / "quick.cfg"), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300, check=True,
        )
        rc, before, after = done.stdout.split()[-3:]
        if before == "True":
            pytest.skip("numpy < 2 imports numpy.ma with numpy itself")
        assert (rc, after) == ("0", "False")

    def test_bad_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("[train]\nmode = nonsense\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1

    def test_rejected_seed_override_exits_1(self, tmp_path, capsys):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "quick.cfg"
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        (Path(__file__).resolve().parents[1] / "configs" / "quick.cfg").read_text() + "garbage line\n",
        "x = 1\n",
    ], ids=["stray-line", "no-section-header"])
    def test_unparsable_config_exits_1_with_one_line(self, tmp_path, capsys, text):
        # configparser's message puts the offending line on lines of its own
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: malformed config: ") and err.count("\n") == 1, err

    def test_missing_config_exits_1(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")]) == 1

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        # a Latin-1 comment: configs are read as UTF-8
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(b"; caf\xe9\n" + CONFIG_TEXT.encode())
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot read config {cfg}: ")

    def test_empty_prompted_blocks_exits_1(self, tmp_path, capsys):
        # no prompted block: no task gradient could reach a prompt set
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_TEXT.replace("prompted_blocks = 0,1", "prompted_blocks ="))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "prompted_blocks" in capsys.readouterr().err

    def test_non_finite_step_exits_2_naming_task_epoch_set(self, tmp_path, capsys):
        # A learning rate this large overflows the head within the first steps.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_TEXT.replace("lr = 0.3", "lr = 1e308"))
        with np.errstate(all="ignore"):
            rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "runtime error: task 0, epoch 0, set 0: non-finite" in err

    @pytest.mark.parametrize("mode", ["lw2g", "grow_always"])
    def test_non_finite_probe_exits_2_naming_task_and_set(self, tmp_path, capsys, monkeypatch, mode):
        # a NaN in set 0's prompt after task 0 reaches the probe of task 1
        evaluate_after = trainer.Engine.evaluate_after

        def poison(engine):
            evaluate_after(engine)
            engine.pool.sets[0].p[0, 0, 0] = np.nan

        monkeypatch.setattr(trainer.Engine, "evaluate_after", poison)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config_with("train", "mode", mode))
        with np.errstate(all="ignore"):
            rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "runtime error: task 1, set 0: non-finite loss\n"

    def test_non_finite_pretraining_exits_2_naming_the_step(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trainer, "PRETRAIN_LR", 1e6)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_TEXT)
        with np.errstate(all="ignore"):
            rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.search(r"runtime error: pretraining, step \d+: non-finite loss", err), err

    @pytest.mark.parametrize("key, value", [
        ("probe_samples", "0"), ("probe_samples", "-2"), ("space_samples", "0"),
        ("space_samples", "-2"), ("pretrain_steps", "-1"), ("lr", "-0.3"), ("lr", "0"),
        ("lr", "nan"), ("seed", "-3"), ("n_fft", "-1"), ("epochs", "0"), ("batch_size", "0"),
        ("eps_task", "0"), ("eps_pre", "1.5"), ("phi", "2"), ("mode", "bogus"),
    ])
    def test_invalid_train_option_exits_1(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config_with("train", key, value))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "config error: invalid [train] config: " in err and key in err, err

    @pytest.mark.parametrize("section, key, value", [
        # the 80/20 split leaves 0 test rows below 3 samples per class
        ("stream", "samples_per_class", "0"), ("stream", "samples_per_class", "1"),
        ("stream", "samples_per_class", "2"), ("stream", "n_tasks", "0"),
        ("stream", "classes_per_task", "0"), ("stream", "seed", "-5"), ("stream", "noise_scale", "nan"),
        ("stream", "noise_scale", "-0.1"), ("stream", "mean_scale", "inf"),
        # mlp_ratio is no longer a key (it is encoder.MLP_RATIO), so it exits 1 as unknown
        ("encoder", "mlp_ratio", "0"),
        ("encoder", "n_heads", "0"), ("encoder", "prompt_len", "0"), ("encoder", "n_blocks", "0"),
        # input_dim may only restate [stream] dim (24)
        ("encoder", "input_dim", "20"),
    ])
    def test_invalid_stream_or_encoder_option_exits_1(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config_with(section, key, value))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert f"config error: invalid [{section}] config: " in err and key in err, err

    def test_config_without_input_dim_runs(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_TEXT.replace("input_dim = 24\n", ""))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    def test_smallest_split_runs(self, tmp_path):
        # 3 samples per class: 2 train rows and 1 test row each
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config_with("stream", "samples_per_class", "3"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("mode", ["lw2g", "grow_always"])
    def test_zero_probe_gradient_exits_2_naming_task_and_set(self, tmp_path, capsys, mode):
        # Too large to overflow, this rate saturates the head during task 0,
        # so task 1's probe of set 0 has no gradient left; lw2g reads that
        # probe for its decision, grow_always for transfer.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(config_with("train", "mode", mode).replace("lr = 0.3", "lr = 1e305"))
        with np.errstate(all="ignore"):
            rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "runtime error: task 1, set 0: degenerate subset batch: zero probe gradient\n"

    def test_identical_runs_byte_identical(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_TEXT)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        assert (out_a / "trace.jsonl").read_bytes() == (out_b / "trace.jsonl").read_bytes()
        hashes = [json.loads((d / "manifest.json").read_text())["config_hash"]
                  for d in (out_a, out_b)]
        assert hashes[0] == hashes[1]


class TestKeepHeap:
    OUTPUTS = ("report.json", "trace.jsonl", "metrics.csv", "snapshot.bin")

    def run_quick(self, out):
        cfg = Path(__file__).resolve().parents[1] / "configs" / "quick.cfg"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        return {name: (out / name).read_bytes() for name in self.OUTPUTS}

    @pytest.mark.parametrize("libc", ["unloadable", "without_mallopt"])
    def test_run_without_mallopt_writes_the_same_files(self, tmp_path, monkeypatch, libc):
        want = self.run_quick(tmp_path / "want")
        lookups = []

        def lookup(name):
            lookups.append(name)
            if libc == "unloadable":
                raise OSError("no C library")
            return object()

        monkeypatch.setattr(cli.ctypes, "CDLL", lookup)
        assert keep_heap() is False
        assert self.run_quick(tmp_path / "got") == want
        assert lookups == [None, None]

    def test_stops_at_the_first_setting_refused(self, monkeypatch):
        calls = []

        class Libc:
            def mallopt(self, param, value):
                calls.append((param, value))
                return 0

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: Libc())
        assert keep_heap() is False
        assert calls == [HEAP_SETTINGS[0]]

    def test_glibc_takes_every_setting(self):
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("mallopt's parameters are glibc's")
        assert keep_heap() is True


class TestReplay:
    def test_six_set_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        trace_jsonl(TRACE_SIX_SETS, path)
        assert main(["replay", "--replay", str(path)]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        summary = json.loads(out[-1])
        assert summary["decisions"] == decision_strings(SIX_SETS_DECISIONS)
        assert summary["assignments"] == {str(k): v for k, v in SIX_SETS_FINAL_POOL.items()}
        assert summary["ssp"] == 6

    def test_two_set_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        trace_jsonl(TRACE_TWO_SETS, path)
        assert main(["replay", "--replay", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert summary["decisions"] == decision_strings(TWO_SETS_DECISIONS)
        assert summary["assignments"] == {str(k): v for k, v in TWO_SETS_FINAL_POOL.items()}
        assert summary["ssp"] == 2

    def test_empty_trace_ok(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        path.write_text("")
        assert main(["replay", "--replay", str(path)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert summary["decisions"] == []

    def test_malformed_row_exits_2(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("{not json\n")
        assert main(["replay", "--replay", str(path)]) == 2

    def test_unknown_reuse_exits_2(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        row = {"task": 1, "records": [{"set": 4, "hfc_old_deg": 1.0, "hfc_pre_deg": 9.0}]}
        path.write_text(json.dumps(row) + "\n")
        assert main(["replay", "--replay", str(path)]) == 2

    def test_non_object_rows_exit_2(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        nested = "[" * 100000 + "]" * 100000  # past the decoder's recursion limit
        for text in ("[1, 2]", "7", '{"task": 1, "records": ["x"]}', '{"task": 1, "records": 5}', nested):
            path.write_text(text + "\n")
            assert main(["replay", "--replay", str(path)]) == 2, text[:40]
            assert "runtime error: malformed trace" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["replay", "--replay", str(tmp_path / "none.jsonl")]) == 2

    def test_angle_outside_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        for angle in (120.0, -30.0, float("nan")):
            trace_jsonl([(2, [(1, angle, 9.0)])], path)
            assert main(["replay", "--replay", str(path)]) == 2, angle
            assert "outside [0, pi/2]" in capsys.readouterr().err

    @pytest.mark.parametrize("row", [
        {"task": 1, "records": [{"set": 0.7, "hfc_old_deg": "3", "hfc_pre_deg": True}]},
        {"task": 1, "records": [{"set": 0.7, "hfc_old_deg": 3, "hfc_pre_deg": 1}]},
        {"task": 1, "records": [{"set": True, "hfc_old_deg": 3, "hfc_pre_deg": 1}]},
        {"task": 1, "records": [{"set": "0", "hfc_old_deg": 3, "hfc_pre_deg": 1}]},
        {"task": 1, "records": [{"set": 0, "hfc_old_deg": "3", "hfc_pre_deg": 1}]},
        {"task": 1, "records": [{"set": 0, "hfc_old_deg": 3, "hfc_pre_deg": True}]},
        {"task": 1.5, "records": [{"set": 0, "hfc_old_deg": 3, "hfc_pre_deg": 1}]},
        {"task": "1", "records": []},
        {"task": False, "records": []},
        {"task": 1, "records": [{"set": 0, "hfc_old_deg": 3, "hfc_pre_deg": 1},
                                {"set": 0, "hfc_old_deg": 4, "hfc_pre_deg": 2}]},
        # JSON's 1e999 and Infinity both parse to inf
        {"task": 0, "records": [{"set": 1e999, "hfc_old_deg": 10, "hfc_pre_deg": 5}]},
    ])
    def test_coercible_fields_and_repeated_sets_exit_2(self, tmp_path, capsys, row):
        # integer task and set, numeric angles, each set once per row: a
        # string, a bool, a fraction or a repeat is refused, not coerced
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(row) + "\n")
        assert main(["replay", "--replay", str(path)]) == 2
        assert "runtime error: malformed trace: " in capsys.readouterr().err

    def test_tasks_that_do_not_increase_exit_2(self, tmp_path, capsys):
        # the third row would put task 0 in set 0 a second time
        path = tmp_path / "trace.jsonl"
        rows = [{"task": 0, "records": []},
                {"task": 0, "records": [{"set": 0, "hfc_old_deg": 9, "hfc_pre_deg": 1}]},
                {"task": 0, "records": [{"set": 0, "hfc_old_deg": 1, "hfc_pre_deg": 9}]}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main(["replay", "--replay", str(path)]) == 2
        assert capsys.readouterr().err == (
            "runtime error: malformed trace: task 0 follows task 0: task values must increase\n")

    def test_replay_rows_z_values(self):
        rows = [{"task": 1, "records": []},
                {"task": 2, "records": [{"set": 1, "hfc_old_deg": 8.81, "hfc_pre_deg": 7.17}]}]
        decisions, _ = replay_rows(rows)
        assert decisions[1]["z"][0] == pytest.approx(1.64, abs=1e-9)

    def test_engine_trace_replays_to_same_decisions(self, tmp_path, capsys):
        # a real run's trace (0-based set ids) must replay to the decisions
        # and assignments the run itself reported
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(CONFIG_TEXT.replace("n_tasks = 2", "n_tasks = 3"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert main(["replay", "--replay", str(out / "trace.jsonl")]) == 0
        summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert summary["decisions"] == report["decisions"]
        assert summary["assignments"] == report["assignments"]


class TestModuleEntryPoint:
    """``python -m growcl`` runs ``cli.main`` and exits with its code."""

    # an ASCII locale with Python's UTF-8 mode off: ``open`` defaults to ASCII
    ASCII_LOCALE = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}

    def run_module(self, *args, **env):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"), **env}
        return subprocess.run([sys.executable, "-m", "growcl", *map(str, args)], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_replay_exits_0(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        trace_jsonl(TRACE_TWO_SETS, path)
        done = self.run_module("replay", "--replay", path)
        assert done.returncode == 0, done.stderr
        summary = json.loads(done.stdout.strip().split("\n")[-1])
        assert summary["decisions"] == decision_strings(TWO_SETS_DECISIONS)

    def test_replay_reads_utf8_in_an_ascii_locale(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rows = trace_jsonl(TRACE_TWO_SETS, path)
        rows[0]["note"] = "café"
        path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n",
                        encoding="utf-8")
        done = self.run_module("replay", "--replay", path, **self.ASCII_LOCALE)
        assert done.returncode == 0, done.stderr
        summary = json.loads(done.stdout.strip().split("\n")[-1])
        assert summary["decisions"] == decision_strings(TWO_SETS_DECISIONS)

    def test_compare_reads_utf8_in_an_ascii_locale(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path, faa in ((a, 0.5), (b, 0.75)):
            report = {"schema": 1, "note": "café", "metrics": {"faa": faa, "ffm": 0.1, "pra": 0.6, "ssp": 3}}
            path.write_text(json.dumps(report, ensure_ascii=False), encoding="utf-8")
        done = self.run_module("compare", a, b, **self.ASCII_LOCALE)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout.strip().split("\n")[-1])["delta_faa"] == 0.25

    def test_compare_on_a_malformed_report_exits_2(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"schema": 1, "metrics": {"faa": 0.5, "ffm": 0.1, "pra": 0.6, "ssp": 3}}))
        b.write_text("[1]")
        done = self.run_module("compare", a, b)
        assert done.returncode == 2
        assert f"runtime error: bad report {b}: " in done.stderr


class TestCompare:
    def write_report(self, path, **metrics):
        base = {"schema": 1, "metrics": {"faa": 0.5, "ffm": 0.1, "pra": 0.6, "ssp": 3}}
        base["metrics"].update(metrics)
        path.write_text(json.dumps(base))

    def test_identical_reports_zero_delta(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.write_report(a)
        self.write_report(b)
        assert main(["compare", str(a), str(b)]) == 0
        diff = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert all(v == 0 for v in diff.values())

    def test_delta_direction(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.write_report(a, ssp=6, faa=0.30)
        self.write_report(b, ssp=2, faa=0.35)
        assert main(["compare", str(a), str(b)]) == 0
        diff = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert diff["delta_ssp"] == -4
        assert diff["delta_faa"] == pytest.approx(0.05)

    def test_missing_file_exits_2(self, tmp_path):
        a = tmp_path / "a.json"
        self.write_report(a)
        assert main(["compare", str(a), str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("text", [
        "[1]", "{}", '{"metrics": 3}', '{"metrics": {"faa": "high"}}', "not json",
        '{"metrics": {"faa": NaN}}', '{"metrics": {"pra": Infinity}}', '{"metrics": {"ssp": -Infinity}}',
        '{"metrics": {"faa": true}}', '{"metrics": {"pra": false}}',
        pytest.param("[" * 100000 + "]" * 100000, id="nested-100000"),
    ])
    def test_malformed_report_exits_2(self, tmp_path, capsys, text):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.write_report(a)
        b.write_text(text)
        assert main(["compare", str(a), str(b)]) == 2
        assert f"runtime error: bad report {b}: " in capsys.readouterr().err

    def test_delta_past_the_float_range_exits_2_and_prints_nothing(self, tmp_path, capsys):
        # each value is finite, their difference is not: no JSON number holds it
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.write_report(a, faa=1e308)
        self.write_report(b, faa=-1e308)
        assert main(["compare", str(a), str(b)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("runtime error: Out of range float values are not JSON compliant")
        assert err.count("\n") == 1

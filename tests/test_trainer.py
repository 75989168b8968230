import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from growcl import cli, snapshot, trainer
from growcl.config import load_config
from growcl.decisions import GradientProbe, hindrance
from growcl.encoder import (
    EncoderConfig,
    GradientVector,
    NonFiniteError,
    PromptSet,
    loss_and_grads,
    prompted_features,
    prompted_with_layers,
    query_with_layers,
)
from growcl.metrics import faa, pra, ssp
from growcl.stream import StreamSpec, generate
from growcl.subspace import Basis
from growcl.trainer import Engine, TrainConfig, TrainerError, run_stream

ROOT = Path(__file__).resolve().parents[1]

ENC = EncoderConfig(d_model=16, n_blocks=2, n_heads=4, prompt_len=3, prompted_blocks=(0, 1),
                    input_dim=24, n_feature_tokens=3)
GRAD_SIZE = (ENC.n_prompted * ENC.prompt_len + 1) * ENC.d_model  # concat(p.ravel(), k)


def small_stream(n_tasks=3, similarity=None, seed=5, spc=30):
    return generate(StreamSpec(
        n_tasks=n_tasks, classes_per_task=2, dim=24, samples_per_class=spc, seed=seed,
        similarity_schedule=similarity or tuple([0.0] * n_tasks),
    ))


def quick_cfg(**kw):
    base = dict(epochs=2, lr=0.3, batch_size=16, seed=3, pretrain_steps=20,
                probe_samples=48, space_samples=64)
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_eps_bounds(self):
        with pytest.raises(TrainerError):
            TrainConfig(eps_task=0.0)
        with pytest.raises(TrainerError):
            TrainConfig(eps_pre=1.5)

    def test_mode_validated(self):
        with pytest.raises(TrainerError):
            TrainConfig(mode="sometimes")

    def test_phi_validated(self):
        with pytest.raises(TrainerError):
            TrainConfig(phi=-0.1)


class TestModes:
    def test_grow_always_makes_one_set_per_task(self):
        data = small_stream(3)
        eng = run_stream(ENC, quick_cfg(mode="grow_always"), data)
        assert ssp(eng.pool) == 3
        assert all(r.decision.is_grow for r in eng.reports)

    def test_single_set_keeps_one(self):
        data = small_stream(3)
        eng = run_stream(ENC, quick_cfg(mode="single_set"), data)
        assert ssp(eng.pool) == 1
        assert eng.pool.assignments == {0: [0, 1, 2]}

    def test_mode_ordering(self):
        data = small_stream(4, similarity=(0, 0, 1, 1))
        sizes = {}
        for mode in ("single_set", "lw2g", "grow_always"):
            eng = run_stream(ENC, quick_cfg(mode=mode), data)
            sizes[mode] = ssp(eng.pool)
        assert sizes["single_set"] == 1 <= sizes["lw2g"] <= sizes["grow_always"] == 4

    def test_first_task_always_grows(self):
        data = small_stream(1)
        for mode in ("lw2g", "grow_always", "single_set"):
            eng = run_stream(ENC, quick_cfg(mode=mode), data)
            assert eng.reports[0].decision.is_grow


class TestTaskContracts:
    def test_class_overlap_rejected(self, monkeypatch):
        # checked once over the whole stream, before pretraining starts
        import growcl.trainer

        def no_pretraining(*args, **kwargs):
            raise AssertionError("pretraining started")

        monkeypatch.setattr(growcl.trainer, "pretrain_backbone", no_pretraining)
        data = small_stream(3)
        data[2] = dataclasses.replace(data[2], class_ids=[5, data[0].class_ids[1]])
        with pytest.raises(TrainerError, match="^two tasks of the stream share a class$"):
            Engine.fresh(ENC, quick_cfg(), data)

    def test_head_spans_every_class_of_the_stream(self):
        data = small_stream(3)
        eng = Engine.fresh(ENC, quick_cfg(pretrain_steps=0), data)
        assert eng.head.n_classes == 6
        assert eng.seen_classes == [] and eng.matrix.n_tasks == 3

    def test_old_space_exists_after_first_task(self):
        data = small_stream(1)
        eng = Engine.fresh(ENC, quick_cfg(), data)
        eng.train_task()
        assert 0 in eng.memory.old_spaces


class TestTwinTaskReuse:
    def test_twin_second_task_reuses(self):
        # A near-copy of task 0: the stored space blocks little of the new
        # gradient, while the pre-trained space of the twin data absorbs much
        # of it, so the gap must be negative. Verified directly, then via the
        # engine's own decision.
        data = small_stream(2, similarity=(0.0, 1.0), seed=11, spc=40)
        cfg = quick_cfg(mode="lw2g", eps_task=0.95, eps_pre=0.95)
        eng = Engine.fresh(ENC, cfg, data)
        eng.train_task()

        ds = data[1]
        classes = tuple(sorted(set(int(c) for c in ds.y_train)))
        batches = [(ds.x_train[:16], ds.y_train[:16]), (ds.x_train[16:32], ds.y_train[16:32])]
        probe = GradientProbe(eng.backbone, eng.head, classes, batches)
        from growcl.encoder import query_with_layers

        _, reps = query_with_layers(eng.backbone, ds.x_train[:48])
        pre_spaces = eng._spaces_from_reps(reps, cfg.eps_pre)
        g = probe.gradient(eng.pool.sets[0])
        old_val = hindrance(g, eng.memory.old_spaces[0])
        pre_val = hindrance(g, pre_spaces)
        assert old_val.angle - pre_val.angle < 0  # direct computation

        report = eng.train_task()
        assert not report.decision.is_grow
        assert report.decision.reuse_id == 0
        assert report.decision.records[0].z < 0


class TestProbeCount:
    """Probes are counted at ``GradientProbe.gradient``, one call per probed
    set, where every probe of an engine is made."""

    @staticmethod
    def counted_probes(monkeypatch) -> list:
        calls = []
        original = GradientProbe.gradient

        def counted(self, pset):
            calls.append(pset.id)
            return original(self, pset)

        monkeypatch.setattr(GradientProbe, "gradient", counted)
        return calls

    def test_each_decided_task_probes_each_set_once(self, monkeypatch):
        # The old-space hindrance and the pre-space floor share one probe
        # gradient, and transfer reuses it, so deciding a task costs one
        # probe per pool set.
        calls = self.counted_probes(monkeypatch)
        data = small_stream(3, similarity=(0, 0, 1))
        eng = Engine.fresh(ENC, quick_cfg(mode="lw2g"), data)
        for t in range(len(data)):
            pool_before = [p.id for p in eng.pool.sets]
            calls.clear()
            eng.train_task()
            assert calls == pool_before, t

    def test_grow_always_probes_each_earlier_set_once(self, monkeypatch):
        # no decision: transfer probes every earlier set once
        calls = self.counted_probes(monkeypatch)
        data = small_stream(4)
        eng = Engine.fresh(ENC, quick_cfg(mode="grow_always"), data)
        for t in range(len(data)):
            calls.clear()
            eng.train_task()
            assert calls == list(range(t)), t

    @pytest.mark.parametrize("mode, n_fft", [("grow_always", 0), ("single_set", 1)])
    def test_no_probe_when_nothing_reads_it(self, monkeypatch, mode, n_fft):
        calls = self.counted_probes(monkeypatch)
        data = small_stream(3)
        eng = Engine.fresh(ENC, quick_cfg(mode=mode, n_fft=n_fft), data)
        for _ in data:
            eng.train_task()
        assert calls == []


class TestProbeFailures:
    @pytest.mark.parametrize("mode", ["lw2g", "grow_always"])
    def test_non_finite_probe_names_task_and_set(self, mode):
        # lw2g meets the poisoned set in the decision, grow_always in transfer
        data = small_stream(2)
        eng = Engine.fresh(ENC, quick_cfg(mode=mode), data)
        eng.train_task()
        eng.evaluate_after()
        eng.pool.sets[0].p[0, 0, 0] = np.nan
        with np.errstate(all="ignore"), pytest.raises(TrainerError,
                                                      match="^task 1, set 0: non-finite loss$"):
            eng.train_task()

    @pytest.mark.parametrize("mode", ["lw2g", "grow_always"])
    def test_failed_probe_leaves_the_pool_as_it_was(self, mode, tmp_path):
        # the probe runs before the pool changes, so a failed task leaves a
        # snapshot that restores, and the task can be trained again
        data = small_stream(2)
        cfg = quick_cfg(mode=mode)
        eng = Engine.fresh(ENC, cfg, data)
        eng.train_task()
        eng.evaluate_after()
        held = eng.pool.sets[0].p[0, 0, 0]
        eng.pool.sets[0].p[0, 0, 0] = np.nan
        with np.errstate(all="ignore"), pytest.raises(TrainerError):
            eng.train_task()
        eng.pool.sets[0].p[0, 0, 0] = held
        assert len(eng.pool) == 1
        assert eng.pool.assignments == {0: [0]}
        assert eng.tasks_done == 1
        snapshot.save(tmp_path / "failed.bin", eng)
        restored = snapshot.restore_engine(snapshot.load(tmp_path / "failed.bin"), ENC, cfg, data)
        snapshot.save(tmp_path / "resaved.bin", restored)
        assert (tmp_path / "resaved.bin").read_bytes() == (tmp_path / "failed.bin").read_bytes()
        assert eng.train_task().task == 1
        assert eng.tasks_done == 2


class TestStepFailures:
    """A task that fails after its probe, in a training step or while its
    stored space is built, leaves the pool and ``tasks_done`` as they were:
    the pool changes only once the task has trained."""

    @staticmethod
    def fail(*args, **kwargs):
        raise NonFiniteError("non-finite loss")

    @pytest.mark.parametrize("where", ["loss_and_grads", "prompted_with_layers"])
    @pytest.mark.parametrize("mode", ["lw2g", "single_set", "grow_always"])
    def test_failed_task_leaves_the_pool_as_it_was(self, monkeypatch, tmp_path, mode, where):
        _, (spec, enc, train) = load_config(ROOT / "configs" / "quick.cfg")
        cfg = dataclasses.replace(train, mode=mode)
        data = generate(spec)
        eng = Engine.fresh(enc, cfg, data)
        eng.train_task()
        eng.evaluate_after()
        # a step's failure names the task, epoch and set; finalize's passes through
        expected = TrainerError if where == "loss_and_grads" else NonFiniteError
        with monkeypatch.context() as patch:
            patch.setattr(trainer, where, self.fail)
            with pytest.raises(expected, match="non-finite loss$"):
                eng.train_task()
        assert len(eng.pool) == 1
        assert eng.pool.assignments == {0: [0]}
        assert list(eng.memory.old_spaces) == [0]
        assert eng.tasks_done == 1

        failed, resaved = tmp_path / "failed.bin", tmp_path / "resaved.bin"
        snapshot.save(failed, eng)
        restored = snapshot.restore_engine(snapshot.load(failed), enc, cfg, data)
        snapshot.save(resaved, restored)
        assert resaved.read_bytes() == failed.read_bytes()
        report = restored.train_task()
        restored.evaluate_after()
        assert report.task == 1 and restored.tasks_done == 2
        assert sorted(t for tasks in restored.pool.assignments.values() for t in tasks) == [0, 1]
        snapshot.save(resaved, restored)
        snapshot.restore_engine(snapshot.load(resaved), enc, cfg, data)


class TestRetryAfterFailure:
    """A task that fails leaves the engine as it was: once its fault is
    undone, the engine saves the bytes it saved before the task (the
    snapshot holds the RNG, the head, every set's prompts and key, the
    pool, the stored spaces and ``tasks_done``), and the retried run writes
    the same files as an uninterrupted one."""

    @staticmethod
    def poison_set_0(engine):
        # lw2g meets the poisoned set in the decision, grow_always in transfer
        p = engine.pool.sets[0].p
        held = p[0, 0, 0]
        p[0, 0, 0] = np.nan

        def undo():
            p[0, 0, 0] = held

        return undo

    @staticmethod
    def fail_fourth_step(engine):
        # three steps move the set, the head and the RNG before the failure
        steps = []

        def step(*args, **kwargs):
            steps.append(None)
            if len(steps) == 4:
                raise NonFiniteError("non-finite loss")
            return loss_and_grads(*args, **kwargs)

        patch = pytest.MonkeyPatch()
        patch.setattr(trainer, "loss_and_grads", step)
        return patch.undo

    @staticmethod
    def fail_finalize(engine):
        # every step has run: the stored space is built from the trained set
        def reps(*args, **kwargs):
            raise NonFiniteError("non-finite loss")

        patch = pytest.MonkeyPatch()
        patch.setattr(trainer, "prompted_with_layers", reps)
        return patch.undo

    # fault -> the error task 1 raises: a probe's and a step's name the
    # task; finalize's passes through
    RAISES = {
        "poison_set_0": (TrainerError, "^task 1, set 0: non-finite loss$"),
        "fail_fourth_step": (TrainerError, r"^task 1, epoch 0, set \d+: non-finite loss$"),
        "fail_finalize": (NonFiniteError, "^non-finite loss$"),
    }

    @pytest.mark.parametrize("mode, fault", [
        ("lw2g", "poison_set_0"),
        ("grow_always", "poison_set_0"),
        ("lw2g", "fail_fourth_step"),
        ("grow_always", "fail_fourth_step"),
        ("single_set", "fail_fourth_step"),
        ("lw2g", "fail_finalize"),
        ("grow_always", "fail_finalize"),
        ("single_set", "fail_finalize"),
    ])
    def test_retried_task_writes_the_uninterrupted_runs_bytes(self, monkeypatch, tmp_path, mode,
                                                              fault):
        before, after = tmp_path / "before.bin", tmp_path / "after.bin"
        error, match = self.RAISES[fault]

        def interrupted_run(enc_cfg, cfg, datasets):
            engine = Engine.fresh(enc_cfg, cfg, datasets)
            engine.train_task()
            engine.evaluate_after()
            snapshot.save(before, engine)
            undo = getattr(self, fault)(engine)
            try:
                with np.errstate(all="ignore"), pytest.raises(error, match=match):
                    engine.train_task()
            finally:
                undo()
            snapshot.save(after, engine)
            while engine.tasks_done < len(datasets):
                engine.train_task()
                engine.evaluate_after()
            return engine

        args = ["run", "--config", str(ROOT / "configs" / "quick.cfg"), "--mode", mode]
        assert cli.main([*args, "--out", str(tmp_path / "plain")]) == 0
        monkeypatch.setattr(cli, "run_stream", interrupted_run)
        assert cli.main([*args, "--out", str(tmp_path / "retried")]) == 0
        assert after.read_bytes() == before.read_bytes()
        for name in ("report.json", "trace.jsonl", "metrics.csv", "snapshot.bin"):
            plain = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "retried" / name).read_bytes() == plain, name


class TestSegmentMap:
    """Encoder reps, gradient segments and stored spaces share one name list."""

    @pytest.mark.parametrize("blocks", [(0, 1), (1,), (1, 0)])
    def test_reps_gradient_and_spaces_list_the_same_names(self, blocks):
        enc = dataclasses.replace(ENC, prompted_blocks=blocks)
        data = small_stream(1)
        ds = data[0]
        eng = Engine.fresh(enc, quick_cfg(), data)
        sid = eng.train_task().set_id
        pset = eng.pool.sets[sid]
        x, y = ds.x_train[:8], ds.y_train[:8]
        _, query_reps = query_with_layers(eng.backbone, x)
        _, prompted_reps = prompted_with_layers(eng.backbone, pset, x)
        grad = loss_and_grads(eng.backbone, eng.head, pset, x, y, ds.class_ids)[1]
        names = [f"block{b}" for b in blocks] + ["key"]
        assert list(query_reps) == names
        assert list(prompted_reps) == names
        assert list(grad.segments()) == names
        assert list(eng.memory.old_spaces[sid]) == names
        assert list(eng._spaces_from_reps(query_reps, eng.cfg.eps_pre)) == names
        for j, b in enumerate(blocks):  # block{b} is prompt row block j
            assert np.shares_memory(grad.segments()[f"block{b}"], grad.p[j])
            np.testing.assert_array_equal(grad.segments()[f"block{b}"], grad.p[j])


class TestOrthogonalStep:
    def layout_gradient(self, fill):
        return GradientVector(np.full(GRAD_SIZE, float(fill)), ENC)

    def test_gradient_inside_span_no_update(self):
        eng = Engine.fresh(ENC, quick_cfg(pretrain_steps=0, lr=0.5), small_stream(1))
        pset = PromptSet.init(ENC, np.random.default_rng(0), 0)
        before_p, before_k = pset.p.copy(), pset.k.copy()
        spaces = {name: Basis(np.eye(ENC.d_model)) for name in ("block0", "block1", "key")}
        eng.memory.old_spaces[pset.id] = spaces
        eng.orthogonal_step(pset, self.layout_gradient(1.0))
        np.testing.assert_allclose(pset.p, before_p, atol=1e-12)
        np.testing.assert_allclose(pset.k, before_k, atol=1e-12)

    def test_no_space_is_plain_sgd(self):
        eng = Engine.fresh(ENC, quick_cfg(pretrain_steps=0, lr=0.5), small_stream(1))
        pset = PromptSet.init(ENC, np.random.default_rng(0), 0)
        before = pset.p.copy()
        eng.orthogonal_step(pset, self.layout_gradient(1.0))
        np.testing.assert_allclose(pset.p, before - 0.5, atol=1e-12)

    def test_accumulated_drift_stays_orthogonal(self):
        rng = np.random.default_rng(4)
        eng = Engine.fresh(ENC, quick_cfg(pretrain_steps=0, lr=0.1), small_stream(1))
        pset = PromptSet.init(ENC, rng, 0)
        q, _ = np.linalg.qr(rng.standard_normal((ENC.d_model, 5)))
        eng.memory.old_spaces[pset.id] = {name: Basis(q) for name in ("block0", "block1", "key")}
        start = pset.p.copy()
        for _ in range(50):
            g = GradientVector(rng.standard_normal(GRAD_SIZE), ENC)
            eng.orthogonal_step(pset, g)
        delta = (pset.p - start)[0]  # block0 rows
        proj = (delta @ q) @ q.T
        assert np.linalg.norm(proj) / np.linalg.norm(delta) < 1e-6


class TestFinalizeSpace:
    def test_eps_one_captures_full_rank(self):
        data = small_stream(1, spc=40)
        eng = Engine.fresh(ENC, quick_cfg(eps_task=1.0), data)
        eng.train_task()
        # the representation sample has many more generic rows than d, so
        # eps=1 requires every direction
        for seg, basis in eng.memory.old_spaces[0].items():
            assert basis.rank == ENC.d_model, seg

    def test_basis_columns_non_decreasing_over_reuses(self):
        data = small_stream(3)
        eng = Engine.fresh(ENC, quick_cfg(mode="single_set"), data)
        ranks = []
        for t in range(3):
            eng.train_task()
            ranks.append({k: b.rank for k, b in eng.memory.old_spaces[0].items()})
        for seg in ranks[0]:
            values = [r[seg] for r in ranks]
            assert values == sorted(values)

    def test_rows_inside_old_span_leave_basis_unchanged(self):
        # Feed the finalize path the same dataset twice; the second pass adds
        # directions only if new energy appeared. With identical data and an
        # eps met by the stored span the basis must not grow.
        data = small_stream(1, spc=40)
        eng = Engine.fresh(ENC, quick_cfg(eps_task=0.9), data)
        eng.train_task()
        before = {k: b.rank for k, b in eng.memory.old_spaces[0].items()}
        eng.cfg = quick_cfg(eps_task=0.5)  # easily satisfied by existing span
        eng.finalize_task_space(eng.pool.sets[0], data[0])
        after = {k: b.rank for k, b in eng.memory.old_spaces[0].items()}
        assert after == before


class TestNoForgetting:
    def test_drift_ratios_tiny_under_forced_reuse(self):
        data = small_stream(3)
        eng = run_stream(ENC, quick_cfg(mode="single_set", epochs=3), data)
        reuse_reports = [r for r in eng.reports if not r.decision.is_grow]
        assert reuse_reports
        for r in reuse_reports:
            assert r.drift_ratios
            for seg, ratio in r.drift_ratios.items():
                assert ratio < 1e-5, (r.task, seg, ratio)

    def test_hindrance_pressure_non_decreasing_on_fixed_gradient(self):
        # As one set's stored span only gains columns, a frozen reference
        # gradient's survival under the orthogonal condition can only shrink.
        data = small_stream(3)
        eng = Engine.fresh(ENC, quick_cfg(mode="single_set"), data)
        g_ref = GradientVector(np.random.default_rng(8).standard_normal(GRAD_SIZE), ENC)
        angles = []
        for t in range(3):
            eng.train_task()
            angles.append(hindrance(g_ref, eng.memory.old_spaces[0]).angle)
        assert all(b >= a - 1e-9 for a, b in zip(angles, angles[1:]))


class TestTransferPrompts:
    def test_attachment_recorded_and_frozen(self):
        data = small_stream(3)
        eng = run_stream(ENC, quick_cfg(mode="grow_always", n_fft=1), data)
        # task 1's set should have attached the only candidate (set 0)
        frozen, sources = eng.pool.sets[1].extra, eng.pool.sets[1].sources
        assert sources == [0]
        assert frozen.shape == (ENC.n_prompted, ENC.prompt_len, ENC.d_model)
        # frozen tokens are a snapshot: not aliased to the live set
        assert frozen.base is None or not np.shares_memory(frozen, eng.pool.sets[0].p)

    def test_n_fft_zero_attaches_nothing(self):
        data = small_stream(2)
        eng = run_stream(ENC, quick_cfg(mode="grow_always", n_fft=0), data)
        assert all(eng.pool.sets[sid].extra.shape[1] == 0 for sid in (0, 1))

    def test_single_set_mode_never_attaches(self):
        data = small_stream(2)
        eng = run_stream(ENC, quick_cfg(mode="single_set", n_fft=2), data)
        assert eng.pool.sets[0].extra.shape[1] == 0


@dataclasses.dataclass
class TrainedTask:
    set_id: int
    is_reuse: bool
    rows_before: tuple  # the set's (extra, sources) before train_task; None on a grow
    rows_after: tuple  # the same after train_task
    first_step: dict  # earlier task -> the set's features on its test rows at the first step
    end: dict  # task -> the set's features on its test rows after train_task


@pytest.fixture(scope="module")
def reuses_at_seed_8():
    """comparison.cfg in lw2g at train seed 8, whose reuses of set 0 once
    swapped its frozen rows for copies of set 1's trained prompt."""
    _, (spec, enc, train) = load_config(ROOT / "configs" / "comparison.cfg")
    engine = Engine.fresh(enc, dataclasses.replace(train, mode="lw2g", seed=8), generate(spec))
    first_step = {}

    def features(pset, tasks):
        return {i: prompted_features(engine.backbone, pset, engine.datasets[i].x_test) for i in tasks}

    def spy(backbone, head, pset, *args, **kwargs):
        # the trainer's own name: probes call loss_and_grads from decisions;
        # the task joins the set's list only after training
        if engine.tasks_done not in first_step:
            first_step[engine.tasks_done] = features(pset, engine.pool.assignments.get(pset.id, []))
        return loss_and_grads(backbone, head, pset, *args, **kwargs)

    tasks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "loss_and_grads", spy)
        while engine.tasks_done < len(engine.datasets):
            before = {p.id: (p.extra.copy(), list(p.sources)) for p in engine.pool.sets}
            report = engine.train_task()
            pset = engine.pool.sets[report.set_id]
            tasks.append(TrainedTask(
                report.set_id, not report.decision.is_grow, before.get(report.set_id),
                (pset.extra.copy(), list(pset.sources)), first_step[report.task],
                features(pset, engine.pool.assignments[report.set_id]),
            ))
    return tasks


class TestReuseKeepsFrozenRows:
    def test_a_reused_sets_frozen_rows_are_unchanged_by_train_task(self, reuses_at_seed_8):
        reused = [t for t in reuses_at_seed_8 if t.is_reuse]
        assert reused and any(t.rows_before[1] for t in reused)
        for t in reused:
            (extra, sources), (extra_after, sources_after) = t.rows_before, t.rows_after
            assert sources_after == sources
            assert np.array_equal(extra_after, extra)

    def test_a_reused_sets_features_are_unchanged_before_the_first_step(self, reuses_at_seed_8):
        last_end = {}  # set id -> its features after the last task it trained
        checked = 0
        for t in reuses_at_seed_8:
            if t.is_reuse:
                assert t.first_step.keys() == last_end[t.set_id].keys()
                for i, feats in t.first_step.items():
                    assert np.array_equal(feats, last_end[t.set_id][i]), (t.set_id, i)
                    checked += 1
            last_end[t.set_id] = t.end
        assert checked


class TestDeterminism:
    def test_identical_runs_bitwise(self):
        data = small_stream(3, similarity=(0, 0, 1))
        cfg = quick_cfg(mode="lw2g")
        a = run_stream(ENC, cfg, data)
        b = run_stream(ENC, cfg, data)
        assert json.dumps([r.trace for r in a.reports], sort_keys=True) == json.dumps(
            [r.trace for r in b.reports], sort_keys=True)
        assert a.pool.assignments == b.pool.assignments
        assert np.array_equal(a.matrix.a, b.matrix.a, equal_nan=True)
        for x, y in zip(a.pool.sets, b.pool.sets):
            assert np.array_equal(x.p, y.p)

    def test_seed_changes_outcome(self):
        data = small_stream(2)
        a = run_stream(ENC, quick_cfg(seed=1), data)
        b = run_stream(ENC, quick_cfg(seed=2), data)
        assert not np.array_equal(a.pool.sets[0].p, b.pool.sets[0].p)


class TestEvaluation:
    def test_matrix_filled_lower_triangle(self):
        data = small_stream(3)
        eng = run_stream(ENC, quick_cfg(), data)
        m = eng.matrix
        for t in range(3):
            for i in range(t + 1):
                assert not np.isnan(m.a[i, t])
                assert m.retrieval_totals[i, t] == len(data[i].y_test)
        assert np.isnan(m.a[2, 0])

    def test_single_set_retrieval_is_perfect(self):
        data = small_stream(3)
        eng = run_stream(ENC, quick_cfg(mode="single_set"), data)
        assert pra(eng.matrix) == 1.0

    def test_metrics_computable(self):
        data = small_stream(2)
        eng = run_stream(ENC, quick_cfg(), data)
        assert 0.0 <= faa(eng.matrix) <= 1.0
        assert 0.0 <= faa(eng.matrix, oracle=True) <= 1.0

    def test_hit_counters_match_pool_retrieval_rule(self):
        # a recorded hit is exactly: retrieve_batch() returned the set whose
        # assignment list contains the evaluated task
        from growcl.encoder import forward_query

        data = small_stream(3, similarity=(0, 0, 1))
        eng = run_stream(ENC, quick_cfg(mode="grow_always"), data)
        m = eng.matrix
        for i, ds in enumerate(data):
            q = forward_query(eng.backbone, ds.x_test)
            want = sum(
                i in eng.pool.assignments[sid] for sid in eng.pool.retrieve_batch(q).tolist()
            )
            assert m.retrieval_hits[i, 2] == want

    def test_each_test_set_is_query_encoded_once(self, monkeypatch):
        # The backbone is frozen, so evaluate_after encodes each test set's
        # queries once per run instead of once per later task.
        import growcl.trainer

        encoded = []
        original = growcl.trainer.forward_query

        def counted(backbone, batch):
            encoded.append(batch)
            return original(backbone, batch)

        monkeypatch.setattr(growcl.trainer, "forward_query", counted)
        data = small_stream(3)
        run_stream(ENC, quick_cfg(mode="grow_always"), data)
        for ds in data:
            assert sum(b is ds.x_test for b in encoded) == 1

    def test_one_promptless_pass_over_training_rows_per_task(self, monkeypatch):
        # The key-loss queries and the pre-trained space's reps come from the
        # same promptless pass; the probe subset's reps are rows of it.
        import growcl.encoder

        passes = []
        original = growcl.encoder.encode

        def counted(backbone, batch, prompts=None, *args, **kwargs):
            if not prompts:
                passes.append(len(batch))
            return original(backbone, batch, prompts, *args, **kwargs)

        data = small_stream(2)
        eng = Engine.fresh(ENC, quick_cfg(), data)  # pretraining passes are not counted
        monkeypatch.setattr(growcl.encoder, "encode", counted)
        for t, ds in enumerate(data):
            passes.clear()
            eng.train_task()
            assert passes == [len(ds.x_train)]

    @pytest.mark.parametrize("mode", ["grow_always", "single_set"])
    def test_test_rows_encoded_once_per_set_until_it_retrains(self, mode, monkeypatch):
        # evaluate_after encodes a test row under a set only when a grid reads
        # it there, and keeps its features until train_task trains that set
        # again
        import growcl.trainer

        data = small_stream(3)
        where = {row.tobytes(): (i, r) for i, ds in enumerate(data) for r, row in enumerate(ds.x_test)}
        encoded = []  # (set id, task, test row) per encoded row
        original = growcl.trainer.prompted_features

        def counted(backbone, pset, batch):
            encoded.extend((pset.id, *where[row.tobytes()]) for row in batch)
            return original(backbone, pset, batch)

        monkeypatch.setattr(growcl.trainer, "prompted_features", counted)
        eng = Engine.fresh(ENC, quick_cfg(mode=mode), data)
        per_eval = []
        for _ in data:
            eng.train_task()
            encoded.clear()
            eng.evaluate_after()
            per_eval.append(list(encoded))
        every_row = [(i, r) for i, ds in enumerate(data) for r in range(len(ds.x_test))]
        if mode == "grow_always":  # no set trains twice; set i is task i's own
            cells = [cell for cells in per_eval for cell in cells]
            assert len(cells) == len(set(cells))
            assert {(i, i, r) for i, r in every_row} <= set(cells)
            pairs = {(sid, i) for sid, i, _ in cells}
            assert len(cells) < sum(len(data[i].x_test) for _, i in pairs)
        else:  # set 0 trains on every task, so every seen test row is re-encoded
            for t, cells in enumerate(per_eval):
                assert sorted(cells) == [(0, i, r) for i, r in every_row if i <= t]

    @pytest.mark.parametrize("mode", ["grow_always", "lw2g"])
    def test_accuracy_cells_match_a_brute_force_evaluation(self, mode):
        # every cell of both grids, recomputed from full-test-set logits
        from growcl.encoder import forward_prompted, forward_query

        data = small_stream(3, similarity=(0, 0, 1))
        eng = Engine.fresh(ENC, quick_cfg(mode=mode), data)
        matrix = eng.matrix
        most_sets = 0  # the most sets one test set's rows were routed to
        for t in range(len(data)):
            eng.train_task()
            eng.evaluate_after()
            seen = [c for d in data[: t + 1] for c in d.class_ids]

            def predictions(sid, d, mask):
                pset = eng.pool.sets[sid]
                logits = forward_prompted(eng.backbone, eng.head, pset, d.x_test, mask)
                return logits.argmax(axis=1)

            for i, d in enumerate(data[: t + 1]):
                retrieved = eng.pool.retrieve_batch(forward_query(eng.backbone, d.x_test)).tolist()
                main = {sid: predictions(sid, d, seen) for sid in set(retrieved)}
                most_sets = max(most_sets, len(main))
                correct = sum(int(main[sid][r] == d.y_test[r]) for r, sid in enumerate(retrieved))
                oracle = predictions(eng.pool.set_for_task(i), d, d.class_ids)
                assert matrix.a[i, t] == correct / len(d.y_test)
                assert matrix.a_oracle[i, t] == int(np.sum(oracle == d.y_test)) / len(d.y_test)
        assert most_sets > 1

"""Acceptance suite: the binding exit criteria for this engine.

Each test is one criterion, checked at its stated tolerance; the conftest
terminal hook prints one PASS/FAIL line per criterion after the run.
"""

import copy
import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from growcl.cli import main, replay_rows
from growcl.config import load_config
from growcl.decisions import (
    GradientProbe,
    apply_soft_constraint,
    project_gradient,
)
from growcl.encoder import (
    EncoderConfig,
    FrozenBackbone,
    Head,
    PromptSet,
    loss_and_grads,
    query_with_layers,
)
from growcl.metrics import AccuracyMatrix, faa, ffm, pra, ssp
from growcl.stream import StreamSpec, generate
from growcl.subspace import Basis, extend_basis, hfc, k_rank_basis, project_rows
from growcl.trainer import Engine, TrainConfig, run_stream
from trace_fixtures import (
    SIX_SETS_DECISIONS,
    SIX_SETS_FINAL_POOL,
    SIX_SETS_MIN_Z,
    TRACE_SIX_SETS,
    TRACE_TWO_SETS,
    TWO_SETS_DECISIONS,
    TWO_SETS_FINAL_POOL,
    TWO_SETS_MIN_Z,
    expected_z,
)


def random_orthonormal(rng, d, k):
    q, _ = np.linalg.qr(rng.standard_normal((d, max(k, 1))))
    return q[:, :k]


def test_criterion_01_nested_span_hindrance_monotone():
    """1000 randomized nested-basis trials in dims 4-64, zero violations."""
    rng = np.random.default_rng(20240601)
    start = time.time()
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(4, 65))
        small = int(rng.integers(1, d - 1))
        extra = int(rng.integers(1, d - small))
        wide = random_orthonormal(rng, d, small + extra)
        b1, b2 = Basis(wide[:, :small]), Basis(wide)
        v = rng.standard_normal(d)
        p1 = project_rows(v[None], b1)[0]
        if np.linalg.norm(p1) < 1e-12:
            v += wide[:, 0]  # force a nonzero component in the smaller span
            p1 = project_rows(v[None], b1)[0]
        a1 = hfc(v, p1).angle
        a2 = hfc(v, project_rows(v[None], b2)[0]).angle
        if a1 < a2 - 1e-9:
            violations += 1
    elapsed = time.time() - start
    assert violations == 0
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"


def test_criterion_02_projection_identities():
    """Idempotence, decomposition, complement-orthogonality: 1000 trials at 1e-10."""
    rng = np.random.default_rng(7)
    for _ in range(1000):
        d = int(rng.integers(2, 33))
        k = int(rng.integers(1, d + 1))
        b = Basis(random_orthonormal(rng, d, k))
        v = rng.standard_normal((1, d))  # one row
        p = project_rows(v, b)
        c = v - p  # the complement projection
        assert np.all(np.abs(project_rows(p, b) - p) < 1e-10)
        assert np.all(np.abs(p + c - v) < 1e-10)
        assert np.all(np.abs(c @ b.matrix) < 1e-10)


def test_criterion_03_decision_trace_replication():
    """Published hindrance pairs reproduce every gap, decision and pool."""
    for trace, decisions, pool, min_z in (
        (TRACE_SIX_SETS, SIX_SETS_DECISIONS, SIX_SETS_FINAL_POOL, SIX_SETS_MIN_Z),
        (TRACE_TWO_SETS, TWO_SETS_DECISIONS, TWO_SETS_FINAL_POOL, TWO_SETS_MIN_Z),
    ):
        rows = [{"task": 1, "records": []}]
        rows += [
            {"task": task, "records": [
                {"set": s, "hfc_old_deg": o, "hfc_pre_deg": p} for s, o, p in pairs]}
            for task, pairs in trace
        ]
        got_decisions, got_assignments = replay_rows(rows)
        want = ["grow" if d == "grow" else f"reuse({d[1]})" for d in decisions]
        assert [d["decision"] for d in got_decisions] == want
        assert got_assignments == pool
        # every z to +-0.01 against the pair arithmetic, and the per-task
        # minimum against the frozen two-decimal values
        for row, zs in zip(got_decisions[1:], expected_z(trace)):
            assert row["z"] == pytest.approx(zs, abs=0.01)
        got_min = [min(row["z"]) for row in got_decisions[1:]]
        assert got_min == pytest.approx(min_z, abs=0.01)


NOFORGET_ENC = EncoderConfig(d_model=48, n_blocks=2, n_heads=4, prompt_len=4,
                             prompted_blocks=(0, 1), input_dim=48, n_feature_tokens=4)
NOFORGET_CFG = TrainConfig(mode="single_set", epochs=5, lr=0.15, phi=1.0, n_fft=0,
                           seed=7, eps_task=0.999, eps_pre=0.999, pretrain_steps=300)


def test_criterion_04_no_forgetting_drift():
    """Forced reuse of one set: drift ratio < 1e-5 per layer and first-task
    accuracy stable to < 0.5 percentage points under oracle selection."""
    spec = StreamSpec(n_tasks=4, classes_per_task=3, dim=48, samples_per_class=100,
                      seed=3, noise_scale=0.12, mean_scale=3.5)
    data = generate(spec)
    eng = Engine.fresh(NOFORGET_ENC, NOFORGET_CFG, data)
    matrix = eng.matrix
    for t in range(4):
        report = eng.train_task()
        eng.evaluate_after()
        if t > 0:
            assert not report.decision.is_grow
            assert report.drift_ratios, "reuse task must report drift"
            for seg, ratio in report.drift_ratios.items():
                assert ratio < 1e-5, (t, seg, ratio)
    base = matrix.a_oracle[0, 0]
    for t in range(1, 4):
        assert abs(matrix.a_oracle[0, t] - base) < 0.005, (t, matrix.a_oracle[0, :])


def test_criterion_05_soft_constraint_behavior():
    """phi=1 keeps the gradient's values; phi=0 kills the span component; norm monotone."""
    enc = EncoderConfig(d_model=16, n_blocks=2, n_heads=4, prompt_len=3,
                        prompted_blocks=(0, 1), input_dim=24, n_feature_tokens=3)
    cfg = TrainConfig(epochs=1, lr=0.3, seed=5, pretrain_steps=20,
                      probe_samples=32, space_samples=48)
    data = generate(StreamSpec(n_tasks=1, classes_per_task=3, dim=24,
                               samples_per_class=40, seed=9))
    eng = Engine.fresh(enc, cfg, data)
    ds = data[0]
    # task 0's pre-trained space as train_task builds it: promptless reps at
    # the probe subset, drawn from the RNG state the task starts from
    rng_at_start = copy.deepcopy(eng.rng)
    eng.train_task()
    probe_idx = Engine._subset(rng_at_start, len(ds.x_train), cfg.probe_samples)
    _, reps = query_with_layers(eng.backbone, ds.x_train)
    pre_reps = {name: rows[probe_idx] for name, rows in reps.items()}
    pre_spaces = eng._spaces_from_reps(pre_reps, cfg.eps_pre)

    probe = GradientProbe(eng.backbone, eng.head, tuple(ds.class_ids),
                          [(ds.x_train[:24], ds.y_train[:24])])
    g = probe.gradient(eng.pool.sets[0])

    out1 = apply_soft_constraint(g, 1.0, pre_spaces)
    assert np.array_equal(out1.flat, g.flat)

    out0 = apply_soft_constraint(g, 0.0, pre_spaces)
    assert project_gradient(out0, pre_spaces).norm < 1e-8

    norms = [apply_soft_constraint(g, phi, pre_spaces).norm
             for phi in (0.0, 0.25, 0.5, 0.75, 1.0)]
    for n in norms:
        assert n <= g.norm + 1e-12
    assert norms == sorted(norms)  # larger phi keeps more of the gradient


GRAD_ENC = EncoderConfig(d_model=16, n_blocks=2, n_heads=4, prompt_len=4,
                         prompted_blocks=(0, 1), input_dim=12, n_feature_tokens=3)


def _fd_check(backbone, head, pset, batch, labels, mask, extra, rng, per_block=20):
    pset = PromptSet(pset.p, pset.k, pset.id, extra=extra)

    def loss_value():
        return loss_and_grads(backbone, head, pset, batch, labels, mask)[0]

    grad = loss_and_grads(backbone, head, pset, batch, labels, mask)[1]
    h = 1e-4
    for j in range(GRAD_ENC.n_prompted):
        seg = grad.p[j]
        for _ in range(per_block):
            r = int(rng.integers(0, GRAD_ENC.prompt_len))
            c = int(rng.integers(0, GRAD_ENC.d_model))
            orig = pset.p[j, r, c]
            pset.p[j, r, c] = orig + h
            up = loss_value()
            pset.p[j, r, c] = orig - h
            down = loss_value()
            pset.p[j, r, c] = orig
            numeric = (up - down) / (2 * h)
            analytic = seg[r, c]
            assert analytic == pytest.approx(numeric, rel=1e-3, abs=1e-5), (j, r, c)


def test_criterion_06_gradient_correctness_and_frozen_transfer():
    """Central differences vs analytic on >=20 coordinates per prompted block,
    plain and with frozen transfer prompts; frozen tensors never move."""
    rng = np.random.default_rng(13)
    backbone = FrozenBackbone.init(GRAD_ENC, rng)
    head = Head.init(GRAD_ENC.d_model, 5, rng)
    pset = PromptSet.init(GRAD_ENC, rng, 0)
    batch = rng.standard_normal((8, GRAD_ENC.input_dim))
    labels = rng.integers(0, 5, size=8)
    mask = tuple(range(5))

    _fd_check(backbone, head, pset, batch, labels, mask, extra=None, rng=rng)
    extra = rng.standard_normal((GRAD_ENC.n_prompted, GRAD_ENC.prompt_len, GRAD_ENC.d_model))
    _fd_check(backbone, head, pset, batch, labels, mask, extra=extra, rng=rng)

    # optimizer steps with an attachment: the frozen tokens and their source
    # set stay bit-identical while the active set moves
    enc = GRAD_ENC
    cfg = TrainConfig(epochs=2, lr=0.3, seed=11, pretrain_steps=10, n_fft=1,
                      probe_samples=24, space_samples=32, mode="grow_always")
    data = generate(StreamSpec(n_tasks=2, classes_per_task=2, dim=12,
                               samples_per_class=30, seed=21))
    eng = Engine.fresh(enc, cfg, data)
    eng.train_task()
    source_before = eng.pool.sets[0].p.copy()
    eng.train_task()
    frozen, sources = eng.pool.sets[1].extra, eng.pool.sets[1].sources
    assert sources == [0]
    assert np.array_equal(eng.pool.sets[0].p, source_before)
    assert np.array_equal(frozen, source_before)
    assert not np.array_equal(eng.pool.sets[1].p, frozen)


def test_criterion_07_rank_selection_and_extension():
    """500 random matrices each: k minimality and joint orthonormality."""
    rng = np.random.default_rng(31)
    for _ in range(500):
        rows = rng.standard_normal((int(rng.integers(2, 14)), int(rng.integers(2, 10))))
        eps = float(rng.uniform(0.15, 0.999))
        basis = k_rank_basis(rows, eps)
        s = np.linalg.svd(rows, compute_uv=False)
        energy = np.cumsum(s * s)
        total = energy[-1]
        assert energy[basis.rank - 1] >= eps * total - 1e-9 * total
        if basis.rank > 1:
            assert energy[basis.rank - 2] < eps * total

    for _ in range(500):
        d = int(rng.integers(3, 10))
        old = Basis(random_orthonormal(rng, d, int(rng.integers(1, d))))
        rows = rng.standard_normal((int(rng.integers(2, 16)), d))
        eps = float(rng.uniform(0.15, 0.999))
        joint = extend_basis(old, rows, eps)
        gram = joint.matrix.T @ joint.matrix
        assert np.all(np.abs(gram - np.eye(joint.rank)) < 1e-8)
        assert np.array_equal(joint.matrix[:, : old.rank], old.matrix)
        kept = float(np.sum((rows @ joint.matrix) ** 2))
        total = float(np.sum(rows * rows))
        assert kept >= eps * total - 1e-9 * total


COMPARE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "comparison.cfg"
COMPARE_SEEDS = (1, 3, 5)


def test_criterion_08_comparative_run():
    """Six tasks, last four similar to earlier ones, three seeds: the
    grow-or-reuse engine keeps the pool small, retrieves at least as well as
    grow-always, and beats the single-set ablation on accuracy in >=2 of 3.
    The runs are configs/comparison.cfg with its mode and seed overridden."""
    start = time.time()
    _, (spec, enc_cfg, base_train) = load_config(COMPARE_CONFIG)
    data = generate(spec)
    faa_wins = 0
    for seed in COMPARE_SEEDS:
        results = {}
        for mode in ("lw2g", "grow_always", "single_set"):
            cfg = dataclasses.replace(base_train, mode=mode, seed=seed)
            results[mode] = run_stream(enc_cfg, cfg, data)
        ssp_lw2g = ssp(results["lw2g"].pool)
        assert ssp_lw2g < 6, f"seed {seed}: pool did not shrink (ssp={ssp_lw2g})"
        assert ssp(results["grow_always"].pool) == 6
        assert ssp(results["single_set"].pool) == 1
        pra_lw2g = pra(results["lw2g"].matrix)
        pra_grow = pra(results["grow_always"].matrix)
        assert pra_lw2g >= pra_grow, f"seed {seed}: retrieval {pra_lw2g:.3f} < {pra_grow:.3f}"
        if faa(results["lw2g"].matrix) >= faa(results["single_set"].matrix):
            faa_wins += 1
    assert faa_wins >= 2, f"accuracy beat the single-set ablation on only {faa_wins}/3 seeds"
    elapsed = time.time() - start
    assert elapsed < 300.0, f"comparative run took {elapsed:.0f}s (budget 300s)"


def test_criterion_09_metrics_match_brute_force():
    """faa/ffm/pra equal independent reference implementations to 1e-12."""
    rng = np.random.default_rng(41)
    for _ in range(1000):
        t = int(rng.integers(2, 9))
        grid = np.zeros((t, t))
        hits = np.zeros((t, t), dtype=int)
        totals = np.zeros((t, t), dtype=int)
        m = AccuracyMatrix(t)
        for after in range(t):
            for i in range(after + 1):
                grid[i, after] = rng.uniform(0, 1)
                totals[i, after] = int(rng.integers(1, 50))
                hits[i, after] = int(rng.integers(0, totals[i, after] + 1))
                m.record(i, after, grid[i, after], grid[i, after],
                         hits[i, after], totals[i, after])
        want_faa = sum(grid[i, t - 1] for i in range(t)) / t
        want_ffm = sum(
            max(grid[i][s] - grid[i][t - 1] for s in range(i, t - 1)) for i in range(t - 1)
        ) / (t - 1)
        want_pra = sum(hits[i, t - 1] / totals[i, t - 1] for i in range(t)) / t
        assert abs(faa(m) - want_faa) < 1e-12
        assert abs(ffm(m) - want_ffm) < 1e-12
        assert abs(pra(m) - want_pra) < 1e-12


DETERMINISM_CONFIG = """\
[stream]
n_tasks = 3
classes_per_task = 2
dim = 24
samples_per_class = 30
seed = 5
similarity = 0,0,1

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
pretrain_steps = 20
probe_samples = 32
space_samples = 48
"""


def test_criterion_10_run_determinism(tmp_path):
    """Identical config+seed produce byte-identical report and trace files."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(DETERMINISM_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    assert (out_a / "trace.jsonl").read_bytes() == (out_b / "trace.jsonl").read_bytes()

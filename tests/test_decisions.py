import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from growcl import encoder as encoder_module
from growcl.decisions import (
    GradientProbe,
    GrowDecision,
    HindranceRecord,
    apply_soft_constraint,
    compose_prompts,
    decide,
    hindrance,
    project_gradient,
    select_transfer_sets,
    trace_record,
    transfer_score,
)
from growcl.encoder import (
    EncoderConfig,
    FrozenBackbone,
    GradientVector,
    Head,
    NonFiniteError,
    PromptSet,
    loss_and_grads,
)
from growcl.subspace import Basis, HfcValue, SubspaceError, hfc
from trace_fixtures import (
    SIX_SETS_DECISIONS,
    SIX_SETS_MIN_Z,
    TRACE_SIX_SETS,
    TRACE_TWO_SETS,
    TWO_SETS_DECISIONS,
    TWO_SETS_MIN_Z,
    expected_z,
)

CFG = EncoderConfig(d_model=8, n_blocks=2, n_heads=2, prompt_len=2, prompted_blocks=(0, 1),
                    input_dim=6, n_feature_tokens=2)
SEGMENTS = ("block0", "block1", "key")
SIZE = (CFG.n_prompted * CFG.prompt_len + 1) * CFG.d_model  # concat(p.ravel(), k)


def record(set_id, old_deg, pre_deg):
    return HindranceRecord(set_id, HfcValue.from_degrees(old_deg), HfcValue.from_degrees(pre_deg))


def gradient_from_flat(flat):
    return GradientVector(np.asarray(flat, dtype=float), CFG)


def spaces_with(**bases):
    """A space map over every segment: ``bases`` by name, span{e1} for the
    rest (no stored span is empty)."""
    return {name: bases.get(name, Basis(np.eye(CFG.d_model, 1))) for name in SEGMENTS}


def replay_decisions(trace):
    """Run decide() over a probe-pair trace; returns 1-based decisions and z lists."""
    decisions = ["grow"]
    zs = []
    for _, rows in trace:
        records = [record(sid, old, pre) for sid, old, pre in rows]
        d = decide(records)
        decisions.append("grow" if d.is_grow else ("reuse", d.reuse_id))
        zs.append([round(r.z_degrees, 2) for r in records])
    return decisions, zs


class TestDecide:
    def test_single_positive_gap_grows(self):
        d = decide([record(1, 8.81, 7.17)])
        assert d.is_grow
        assert d.records[0].z_degrees == pytest.approx(1.64, abs=1e-9)

    def test_reuses_minimum_gap_set(self):
        d = decide([record(1, 7.34, 8.82), record(2, 9.26, 8.00), record(3, 9.15, 8.97)])
        assert not d.is_grow and d.reuse_id == 1
        assert [round(r.z_degrees, 2) for r in d.records] == [-1.48, 1.26, 0.18]

    def test_large_negative_gap_reuses(self):
        d = decide([record(1, 13.90, 40.23)])
        assert d.reuse_id == 1
        assert d.records[0].z_degrees == pytest.approx(-26.33, abs=1e-9)

    def test_zero_gap_reuses(self):
        # gap exactly zero falls on the reuse side of the rule
        d = decide([record(1, 5.0, 5.0)])
        assert not d.is_grow

    def test_tie_goes_to_lowest_set_id(self):
        d = decide([record(2, 6.0, 7.0), record(1, 6.0, 7.0)])
        assert d.reuse_id == 1

    def test_shift_invariance(self):
        base = [record(1, 9.0, 8.0), record(2, 7.0, 7.5)]
        shifted = [record(1, 19.0, 18.0), record(2, 17.0, 17.5)]
        assert decide(base).describe() == decide(shifted).describe()

    @settings(max_examples=300)
    @given(st.lists(st.tuples(st.floats(0.0, 89.0), st.floats(0.0, 89.0)),
                    min_size=1, max_size=8))
    def test_exactly_one_branch_and_min_gap_target(self, pairs):
        records = [record(i + 1, old, pre) for i, (old, pre) in enumerate(pairs)]
        d = decide(records)
        min_z = min(r.z for r in records)
        if d.is_grow:
            assert d.reuse_id is None
            assert min_z > 0
        else:
            assert min_z <= 0
            target = next(r for r in records if r.set_id == d.reuse_id)
            assert target.z == min_z

    def test_six_set_trace_replay(self):
        decisions, zs = replay_decisions(TRACE_SIX_SETS)
        assert decisions == SIX_SETS_DECISIONS
        assert zs == expected_z(TRACE_SIX_SETS)
        mins = [min(row) for row in zs]
        assert mins == pytest.approx(SIX_SETS_MIN_Z, abs=0.01)

    def test_two_set_trace_replay(self):
        decisions, zs = replay_decisions(TRACE_TWO_SETS)
        assert decisions == TWO_SETS_DECISIONS
        mins = [min(row) for row in zs]
        assert mins == pytest.approx(TWO_SETS_MIN_Z, abs=0.01)


class TestProjectGradient:
    def test_segment_wise_projection(self):
        rng = np.random.default_rng(0)
        g = gradient_from_flat(rng.standard_normal(SIZE))
        # each segment's span holds its own feature coordinates
        span_cols = {"block0": [0, 1], "block1": [2], "key": [5]}
        spaces = {name: Basis(np.eye(CFG.d_model)[:, cols]) for name, cols in span_cols.items()}
        for complement in (False, True):
            proj = project_gradient(g, spaces, complement=complement).segments()
            for name, rows in g.segments().items():
                in_span = np.isin(np.arange(CFG.d_model), span_cols[name])
                kept = in_span != complement  # the complement keeps the other coordinates
                np.testing.assert_allclose(proj[name][:, kept], rows[:, kept])
                np.testing.assert_allclose(proj[name][:, ~kept], 0.0)

    def test_matches_single_space_composition(self):
        # With one basis per segment the flat-vector hindrance equals hfc of
        # the concatenated complements r - B B^T r, row by row.
        rng = np.random.default_rng(2)
        g = gradient_from_flat(rng.standard_normal(SIZE))
        q, _ = np.linalg.qr(rng.standard_normal((CFG.d_model, 3)))
        spaces = {name: Basis(q) for name in SEGMENTS}
        got = hindrance(g, spaces)
        pieces = []
        for name, rows in g.segments().items():
            b = spaces[name].matrix
            pieces.append(np.stack([r - b @ (b.T @ r) for r in rows]).ravel())
        want = hfc(g.flat, np.concatenate(pieces))
        assert got.angle == pytest.approx(want.angle, abs=1e-12)


class TestHindrance:
    def test_gradient_orthogonal_to_space_angle_zero(self):
        g = np.zeros(SIZE)
        key = g[-CFG.d_model:]
        key[1] = 1.0  # e2 direction
        spaces = spaces_with(key=Basis(np.eye(CFG.d_model, 1)))  # span{e1}
        val = hindrance(gradient_from_flat(g), spaces)
        assert val.angle == pytest.approx(0.0, abs=1e-12)

    def test_gradient_inside_space_angle_right(self):
        g = np.zeros(SIZE)
        g[-CFG.d_model:][0] = 2.0
        spaces = {name: Basis(np.eye(CFG.d_model, 1)) for name in SEGMENTS}
        val = hindrance(gradient_from_flat(g), spaces)
        assert val.angle == pytest.approx(math.pi / 2)

    def test_zero_gradient_rejected(self):
        with pytest.raises(SubspaceError):
            hindrance(gradient_from_flat(np.zeros(SIZE)), spaces_with())


@pytest.fixture
def probe_setup():
    rng = np.random.default_rng(9)
    backbone = FrozenBackbone.init(CFG, rng)
    head = Head.init(CFG.d_model, 6, rng)
    batches = [
        (rng.standard_normal((4, CFG.input_dim)), rng.integers(0, 3, size=4)) for _ in range(2)
    ]
    probe = GradientProbe(backbone, head, tuple(range(6)), batches)
    pset = PromptSet.init(CFG, rng, 0)
    return probe, pset, rng


def six_set_probe(n_rows, batch_size, seed=21):
    """A probe over ``n_rows`` rows cut into batches the way the engine cuts
    them, and six sets whose prompts differ."""
    rng = np.random.default_rng(seed)
    backbone = FrozenBackbone.init(CFG, rng)
    head = Head.init(CFG.d_model, 6, rng)
    x = rng.standard_normal((n_rows, CFG.input_dim))
    y = rng.integers(0, 3, size=n_rows)
    batches = [(x[i : i + batch_size], y[i : i + batch_size]) for i in range(0, n_rows, batch_size)]
    sets = [PromptSet.init(CFG, rng, sid) for sid in range(6)]
    return GradientProbe(backbone, head, (0, 1, 2), batches), sets


class TestProbe:
    def test_probe_gradient_is_batch_average(self, probe_setup):
        probe, pset, _ = probe_setup
        g = probe.gradient(pset)
        singles = [GradientProbe(probe.backbone, probe.head, probe.head_mask, [b]).gradient(pset)
                   for b in probe.batches]
        np.testing.assert_allclose(g.flat, np.mean([s.flat for s in singles], axis=0), atol=1e-12)

    def test_probe_key_segment_zero(self, probe_setup):
        # probing ignores the key-pull loss entirely
        probe, pset, _ = probe_setup
        np.testing.assert_allclose(probe.gradient(pset).k, 0.0)

    def test_probe_measures_the_set_without_its_frozen_rows(self, probe_setup):
        probe, pset, rng = probe_setup
        bare = probe.gradient(pset)
        pset.extra = rng.standard_normal((CFG.n_prompted, CFG.prompt_len, CFG.d_model))
        assert np.array_equal(probe.gradient(pset).flat, bare.flat)

    def test_hindrance_deterministic_and_fresh(self, probe_setup):
        probe, pset, rng = probe_setup
        q, _ = np.linalg.qr(rng.standard_normal((CFG.d_model, 2)))
        pre = spaces_with(block0=Basis(q), block1=Basis(q))
        g = probe.gradient(pset)
        held = g.flat.copy()
        a = hindrance(g, pre)
        b = hindrance(g, pre)
        assert a.angle == b.angle
        assert np.array_equal(g.flat, held)  # the held gradient is never mutated

    def test_threshold_with_rank_one_spaces_closed_form(self, probe_setup):
        # A tiny energy fraction keeps only the top singular direction per
        # segment; the floor then equals the angle to the complement of those
        # single projections, computable by hand.
        probe, pset, rng = probe_setup
        from growcl.subspace import k_rank_basis

        reps = {name: rng.standard_normal((12, CFG.d_model)) for name in SEGMENTS}
        pre = {name: k_rank_basis(r, eps=1e-9) for name, r in reps.items()}
        assert all(b.rank == 1 for b in pre.values())
        g = probe.gradient(pset)
        thr = hindrance(g, pre)
        pieces = []
        for name, rows in g.segments().items():
            u = pre[name].matrix[:, 0]
            pieces.append((rows - np.outer(rows @ u, u)).ravel())
        want = hfc(g.flat, np.concatenate(pieces)).angle
        assert thr.angle == pytest.approx(want, abs=1e-12)

    # (rows, batch size) -> rows per encoder pass: consecutive batches join a
    # pass while it holds at most ROW_BLOCK (64) rows, and a larger batch runs
    # alone; a one-row batch packs like any other
    @pytest.mark.parametrize("n_rows, batch_size, passes", [
        (144, 32, [64, 64, 16]),
        (160, 32, [64, 64, 32]),
        (33, 32, [33]),
        (65, 32, [64, 1]),
        (49, 16, [49]),
        (1, 32, [1]),
        (100, 100, [100]),
        (7, 3, [7]),
        (3, 1, [3]),
    ])
    def test_one_pass_per_pack_of_rows(self, monkeypatch, n_rows, batch_size, passes):
        probe, sets = six_set_probe(n_rows, batch_size)
        seen = []
        encode = encoder_module.encode

        def spy(backbone, batch, *args, **kwargs):
            assert kwargs == {"return_backward": True}
            seen.append(len(batch))
            return encode(backbone, batch, *args, **kwargs)

        monkeypatch.setattr(encoder_module, "encode", spy)
        for pset in sets[:3]:
            probe.gradient(pset)
        assert seen == passes * 3

    @pytest.mark.parametrize("n_rows, batch_size", [
        (144, 32), (160, 32), (33, 32), (65, 32), (49, 16), (1, 32), (100, 100), (7, 3), (5, 1),
    ])
    def test_packed_gradient_equals_the_per_batch_sum_bit_for_bit(self, n_rows, batch_size):
        for seed in (21, 22, 23, 24):
            probe, sets = six_set_probe(n_rows, batch_size, seed)
            for pset in sets:
                acc = None
                for x, y in probe.batches:
                    flat = loss_and_grads(probe.backbone, probe.head, pset, x, y, probe.head_mask)[1].flat
                    acc = flat if acc is None else acc + flat
                want = acc / len(probe.batches)
                assert np.array_equal(probe.gradient(pset).flat, want), (seed, pset.id)

    @pytest.mark.parametrize("what", ["loss", "gradient"])
    def test_non_finite_raises_the_bare_error(self, monkeypatch, what):
        # the engine names the task and the set (tests/test_trainer.py)
        probe, sets = six_set_probe(64, 32)
        if what == "loss":
            sets[3].p[0, 0, 0] = np.nan
        else:
            monkeypatch.setattr(encoder_module, "cross_entropy_backward",
                                lambda logp, labels: np.full(logp.shape, np.inf))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match=f"^non-finite {what}$"):
            for pset in sets[:4]:
                probe.gradient(pset)


class TestSoftConstraint:
    def make_gradient(self):
        rng = np.random.default_rng(3)
        return gradient_from_flat(rng.standard_normal(SIZE))

    def full_spaces(self, k=2, seed=4):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((CFG.d_model, k)))
        return {name: Basis(q) for name in SEGMENTS}

    def test_phi_one_is_identity(self):
        g = self.make_gradient()
        out = apply_soft_constraint(g, 1.0, self.full_spaces())
        assert np.array_equal(out.flat, g.flat)

    def test_phi_zero_removes_span_component(self):
        g = self.make_gradient()
        spaces = self.full_spaces()
        out = apply_soft_constraint(g, 0.0, spaces)
        assert project_gradient(out, spaces).norm < 1e-8

    def test_interpolation_arithmetic(self):
        # key segment (1,1,...)-like toy: span{e1}, phi=0.5 halves the e1 part
        flat = np.zeros(SIZE)
        flat[-CFG.d_model:][:2] = [1.0, 1.0]
        g = gradient_from_flat(flat)
        spaces = spaces_with(key=Basis(np.eye(CFG.d_model, 1)))
        out = apply_soft_constraint(g, 0.5, spaces)
        assert out.k[0] == pytest.approx(0.5)
        assert out.k[1] == pytest.approx(1.0)

    def test_norm_never_increases(self):
        g = self.make_gradient()
        spaces = self.full_spaces(k=3, seed=5)
        for phi in (0.0, 0.25, 0.5, 0.75, 1.0):
            out = apply_soft_constraint(g, phi, spaces)
            assert out.norm <= g.norm + 1e-12


class TestTransferSelection:
    def build(self, seed=6):
        rng = np.random.default_rng(seed)
        grads, spaces = {}, {}
        for sid in range(4):
            grads[sid] = gradient_from_flat(rng.standard_normal(SIZE))
            q, _ = np.linalg.qr(rng.standard_normal((CFG.d_model, 2)))
            spaces[sid] = {name: Basis(q) for name in SEGMENTS}
        return grads, spaces

    def test_n_zero_empty(self):
        grads, spaces = self.build()
        assert select_transfer_sets(grads, spaces, 0) == []

    def test_parallel_beats_orthogonal(self):
        flat = np.zeros(SIZE)
        flat[-CFG.d_model:][0] = 1.0
        g = gradient_from_flat(flat)
        spaces = {
            0: spaces_with(key=Basis(np.eye(CFG.d_model, 1))),      # contains g
            1: spaces_with(key=Basis(np.eye(CFG.d_model)[:, 1:2])),  # orthogonal to g
        }
        assert select_transfer_sets({0: g, 1: g}, spaces, 1) == [0]

    def test_matches_brute_force_ranking(self):
        grads, spaces = self.build(seed=7)
        got = select_transfer_sets(grads, spaces, 3)
        scores = {sid: transfer_score(g, spaces[sid]) for sid, g in grads.items()}
        want = sorted(scores, key=lambda s: (-scores[s], s))[:3]
        assert got == want


class TestComposePrompts:
    def test_no_reuse_passthrough(self):
        rng = np.random.default_rng(10)
        active = PromptSet.init(CFG, rng, 0)
        assert compose_prompts(active, []).shape == (CFG.n_prompted, 0, CFG.d_model)

    def test_one_reused_doubles_tokens(self):
        rng = np.random.default_rng(11)
        active = PromptSet.init(CFG, rng, 0)
        other = PromptSet.init(CFG, rng, 1)
        frozen = compose_prompts(active, [other])
        assert active.p.shape[1] + frozen.shape[1] == 2 * CFG.prompt_len
        np.testing.assert_array_equal(frozen, other.p)

    def test_frozen_is_a_copy(self):
        rng = np.random.default_rng(12)
        active = PromptSet.init(CFG, rng, 0)
        other = PromptSet.init(CFG, rng, 1)
        frozen = compose_prompts(active, [other])
        other.p += 1.0
        assert not np.array_equal(frozen, other.p)


class TestTraceRecord:
    def test_schema(self):
        records = [record(0, 9.0, 8.0)]
        d = decide(records)
        row = trace_record(3, d, {0: [1, 3]})
        assert row["task"] == 3
        assert row["decision"] == "grow"
        assert row["records"][0]["hfc_old_deg"] == pytest.approx(9.0)
        assert row["records"][0]["z"] == pytest.approx(1.0)
        assert row["pool_after"] == {"0": [1, 3]}

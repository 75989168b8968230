import tracemalloc

import numpy as np
import pytest

from growcl import encoder as encoder_module
from growcl.autodiff import Tensor, concat, cross_entropy, layer_norm
from growcl.encoder import (
    _BLOCK_WEIGHTS,
    KEY_LOSS_WEIGHT,
    ROW_BLOCK,
    EncoderConfig,
    EncoderError,
    FrozenBackbone,
    GradientVector,
    Head,
    NonFiniteError,
    PromptSet,
    _attention_block,
    _block_weights,
    class_mask_bias,
    cross_entropy_pass,
    encode,
    forward_prompted,
    forward_query,
    loss_and_grads,
    prefixes,
    pretrain_backbone,
    prompted_with_layers,
    query_with_layers,
)
from tape_reference import (
    tape_attention_block,
    tape_embed,
    tape_encode,
    tape_key_loss,
    tape_loss_and_grads,
    tape_params,
    tape_pretrain,
    tape_prompt_tensors,
)

CFG = EncoderConfig(d_model=16, n_blocks=2, n_heads=4, prompt_len=3, prompted_blocks=(0, 1),
                    input_dim=10, n_feature_tokens=3)


@pytest.fixture
def setup():
    rng = np.random.default_rng(42)
    backbone = FrozenBackbone.init(CFG, rng)
    head = Head.init(CFG.d_model, 8, rng)
    pset = PromptSet.init(CFG, rng, set_id=0)
    batch = rng.standard_normal((6, CFG.input_dim))
    labels = rng.integers(0, 4, size=6)
    return backbone, head, pset, batch, labels


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(EncoderError):
            EncoderConfig(d_model=10, n_heads=4)

    def test_prompted_blocks_range(self):
        with pytest.raises(EncoderError):
            EncoderConfig(n_blocks=2, prompted_blocks=(0, 2))

    def test_prompted_blocks_distinct(self):
        with pytest.raises(EncoderError):
            EncoderConfig(n_blocks=2, prompted_blocks=(1, 1))

    def test_prompted_blocks_nonempty(self):
        with pytest.raises(EncoderError, match="prompted_blocks"):
            EncoderConfig(n_blocks=2, prompted_blocks=())


class TestForwardPrompted:
    def test_deterministic(self, setup):
        backbone, head, pset, batch, _ = setup
        a = forward_prompted(backbone, head, pset, batch, range(8))
        b = forward_prompted(backbone, head, pset, batch, range(8))
        assert np.array_equal(a, b)

    def test_mask_forces_argmax(self, setup):
        backbone, head, pset, batch, _ = setup
        logits = forward_prompted(backbone, head, pset, batch[:1], head_mask=[5])
        assert logits.shape == (1, 8)
        assert logits.argmax() == 5

    def test_mask_bias_values(self):
        bias = class_mask_bias(5, [1, 3])
        assert bias[1] == 0.0 and bias[3] == 0.0
        assert bias[0] < -1e29


class TestForwardQuery:
    def test_repeatable_and_dimension(self, setup):
        backbone, _, _, batch, _ = setup
        q1 = forward_query(backbone, batch)
        q2 = forward_query(backbone, batch)
        assert np.array_equal(q1, q2)
        assert q1.shape == (6, CFG.d_model)

    def test_independent_of_prompts(self, setup):
        backbone, _, pset, batch, _ = setup
        q1 = forward_query(backbone, batch)
        pset.p += 100.0  # mutate the pool; the query path must not notice
        q2 = forward_query(backbone, batch)
        assert np.array_equal(q1, q2)

    def test_layer_reps_shapes(self, setup):
        backbone, _, pset, batch, _ = setup
        q, reps = query_with_layers(backbone, batch)
        assert list(reps) == ["block0", "block1", "key"]
        assert reps["block0"].shape == (6, CFG.d_model)
        assert np.array_equal(reps["key"], q)
        _, preps = prompted_with_layers(backbone, pset, batch)
        assert list(preps) == ["block0", "block1", "key"]


class TestRowBlocks:
    """Forward-only passes run ``ROW_BLOCK`` rows at a time."""

    @pytest.mark.parametrize("prompted", [False, True])
    def test_blocked_pass_equals_one_shot_pass_bit_for_bit(self, monkeypatch, prompted):
        rng = np.random.default_rng(11)
        backbone = FrozenBackbone.init(CFG, rng)
        prompts = None
        if prompted:
            pset = PromptSet.init(CFG, rng)
            pset.extra = rng.normal(0, 0.5, (CFG.n_prompted, 2, CFG.d_model))
            prompts = prefixes(CFG, pset)
        batch = rng.standard_normal((200, CFG.input_dim))
        one_shot, one_shot_reps, _ = encode(backbone, batch, prompts, collect_layers=True,
                                            return_backward=True)

        rows_per_call = []
        encode_rows = encoder_module._encode_rows

        def spy(backbone, batch, *args, **kwargs):
            rows_per_call.append(len(batch))
            return encode_rows(backbone, batch, *args, **kwargs)
        monkeypatch.setattr(encoder_module, "_encode_rows", spy)
        feats, reps = encode(backbone, batch, prompts, collect_layers=True)

        assert rows_per_call == [ROW_BLOCK] * (200 // ROW_BLOCK) + [200 % ROW_BLOCK]
        assert feats.tobytes() == one_shot.tobytes()
        assert list(reps) == list(one_shot_reps) == ["block0", "block1", "key"]
        for name, rows in reps.items():
            assert rows.shape == (200, CFG.d_model)
            assert rows.tobytes() == one_shot_reps[name].tobytes(), name
        assert not np.shares_memory(reps["key"], feats)

    def test_a_row_encodes_to_the_same_bits_alone(self):
        # numpy computes a one-row product with gemv, which rounds differently
        # from the gemm of a many-row one; a lone row must not take that path,
        # whether it is a whole pass or the last row block of one
        rng = np.random.default_rng(13)
        backbone = FrozenBackbone.init(CFG, rng)
        prompts = prefixes(CFG, PromptSet.init(CFG, rng))
        batch = rng.standard_normal((ROW_BLOCK + 1, CFG.input_dim))
        one_shot, _, _ = encode(backbone, batch, prompts, return_backward=True)
        blocked, _ = encode(backbone, batch, prompts)
        alone, _ = encode(backbone, batch[-1:], prompts)
        assert blocked.tobytes() == one_shot.tobytes()
        assert alone.tobytes() == one_shot[-1:].tobytes()

    @pytest.mark.parametrize("pass_name", ["query_with_layers", "prompted_with_layers"])
    def test_peak_memory_does_not_grow_with_rows(self, pass_name):
        rng = np.random.default_rng(12)
        backbone = FrozenBackbone.init(CFG, rng)
        pset = PromptSet.init(CFG, rng)

        def run(x):
            if pass_name == "query_with_layers":
                return query_with_layers(backbone, x)
            return prompted_with_layers(backbone, pset, x)

        def peak_and_output(n):
            x = rng.standard_normal((n, CFG.input_dim))
            run(x)  # warm up
            tracemalloc.start()
            try:
                feats, reps = run(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, feats.nbytes + sum(rows.nbytes for rows in reps.values())

        one_block, _ = peak_and_output(ROW_BLOCK)
        many_blocks, out_bytes = peak_and_output(40 * ROW_BLOCK)
        assert many_blocks < 2 * one_block + out_bytes, (many_blocks, one_block, out_bytes)


class TestGroupedPass:
    """``cross_entropy_pass`` is the pass that training and the probe share."""

    def test_one_group_gradient_is_the_training_gradient(self, setup):
        backbone, head, pset, batch, labels = setup
        feats, loss, backward = cross_entropy_pass(backbone, head, pset, batch, labels, range(8))
        ref_loss, grad, _, _ = loss_and_grads(backbone, head, pset, batch, labels, range(8))
        assert feats.shape == (len(batch), CFG.d_model)
        assert float(loss) == ref_loss
        assert np.array_equal(backward()[1], grad.p)


def finite_difference_entry(build_loss, arr, idx, h=1e-4):
    orig = arr[idx]
    arr[idx] = orig + h
    up = build_loss()
    arr[idx] = orig - h
    down = build_loss()
    arr[idx] = orig
    return (up - down) / (2 * h)


class TestGradients:
    def test_prompt_grad_matches_finite_differences(self, setup):
        backbone, head, pset, batch, labels = setup
        mask = range(8)

        def loss_value():
            return loss_and_grads(backbone, head, pset, batch, labels, mask)[0]

        grad = loss_and_grads(backbone, head, pset, batch, labels, mask)[1]
        rng = np.random.default_rng(3)
        for _ in range(12):
            j = rng.integers(0, CFG.n_prompted)
            r = rng.integers(0, CFG.prompt_len)
            c = rng.integers(0, CFG.d_model)
            num = finite_difference_entry(loss_value, pset.p, (j, r, c))
            ana = grad.p[j, r, c]
            assert ana == pytest.approx(num, rel=1e-3, abs=1e-5)

    def test_key_grad_cosine_finite_differences(self, setup):
        backbone, head, pset, batch, labels = setup
        q_bar = np.random.default_rng(6).standard_normal(CFG.d_model)

        def loss_value():
            return loss_and_grads(backbone, head, pset, batch, labels, range(8), q_bar=q_bar)[0]

        grad = loss_and_grads(backbone, head, pset, batch, labels, range(8), q_bar=q_bar)[1]
        for c in (0, 3, 11):
            num = finite_difference_entry(loss_value, pset.k, (c,))
            assert grad.k[c] == pytest.approx(num, rel=1e-3, abs=1e-6)

    def test_saturated_loss_gives_small_grad(self, setup):
        backbone, head, pset, batch, _ = setup
        # One class allowed and boosted far above the rest: loss ~ 0.
        head = Head(head.w.copy(), head.b.copy())
        head.b[2] = 50.0
        labels = np.full(len(batch), 2)
        loss, grad, _, _ = loss_and_grads(backbone, head, pset, batch, labels, [2, 3])
        assert loss < 1e-6
        assert grad.norm < 1e-4

    def test_non_finite_gradient_rejected(self, setup, monkeypatch):
        # a finite loss whose gradient overflows: the one place a step's
        # gradient is made from data checks it
        backbone, head, pset, batch, labels = setup
        monkeypatch.setattr(encoder_module, "cross_entropy_backward",
                            lambda logp, labels: np.full(logp.shape, np.inf))
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="^non-finite gradient$"):
            loss_and_grads(backbone, head, pset, batch, labels, range(8))

    def test_head_grads_masked_to_current_rows(self, setup):
        backbone, head, pset, batch, labels = setup
        _, _, gw, gb = loss_and_grads(backbone, head, pset, batch, labels, [0, 1, 2, 3])
        assert np.all(gw[:, 4:] == 0) and np.all(gb[4:] == 0)
        assert np.any(gw[:, :4] != 0)


class TestFrozenExtras:
    def test_extra_changes_logits_but_gets_no_grad(self, setup):
        backbone, head, pset, batch, labels = setup
        extra = np.random.default_rng(7).standard_normal((CFG.n_prompted, 2 * CFG.prompt_len, CFG.d_model))
        base = forward_prompted(backbone, head, pset, batch, range(8))
        pset.extra = extra
        with_extra = forward_prompted(backbone, head, pset, batch, range(8))
        assert not np.allclose(base, with_extra)
        snapshot = extra.copy()
        loss_and_grads(backbone, head, pset, batch, labels, range(8))[1]
        assert np.array_equal(extra, snapshot)

    def test_finite_differences_with_extra(self, setup):
        backbone, head, pset, batch, labels = setup
        pset.extra = np.random.default_rng(8).standard_normal((CFG.n_prompted, CFG.prompt_len, CFG.d_model))

        def loss_value():
            return loss_and_grads(backbone, head, pset, batch, labels, range(8))[0]

        grad = loss_and_grads(backbone, head, pset, batch, labels, range(8))[1]
        num = finite_difference_entry(loss_value, pset.p, (0, 1, 2))
        assert grad.p[0, 1, 2] == pytest.approx(num, rel=1e-3, abs=1e-5)


def weight_copies(backbone):
    return {name: w.copy() for name, w in backbone.weights.items()}


def same_weights(backbone, copies):
    return all(np.array_equal(backbone.weights[name], arr) for name, arr in copies.items())


class TestBackbone:
    def test_hash_stable_under_training_steps(self, setup):
        backbone, head, pset, batch, labels = setup
        before = weight_copies(backbone)
        for _ in range(3):
            grad = loss_and_grads(backbone, head, pset, batch, labels, range(8))[1]
            pset.p -= 0.1 * grad.p  # prompt step only
        assert same_weights(backbone, before)

    def test_pretrain_changes_then_freezes(self):
        rng = np.random.default_rng(11)
        backbone = FrozenBackbone.init(CFG, rng)
        before = weight_copies(backbone)
        data = rng.standard_normal((40, CFG.input_dim))
        labels = rng.integers(0, 4, size=40)
        pretrain_backbone(backbone, data, labels, steps=5, lr=0.05, batch_size=16, rng=rng)
        assert not same_weights(backbone, before)


class TestGradientLayout:
    def test_segment_roundtrip(self):
        size = (CFG.n_prompted * CFG.prompt_len + 1) * CFG.d_model
        g = GradientVector(np.arange(size, dtype=float), CFG)
        assert np.array_equal(np.concatenate([g.p.ravel(), g.k]), g.flat)
        segs = g.segments()
        assert list(segs) == ["block0", "block1", "key"]
        assert sum(rows.size for rows in segs.values()) == size
        assert segs["key"].shape == (1, CFG.d_model)
        assert np.array_equal(segs["block1"], g.p[1])
        segs["key"][0, 0] = -1.0  # segments are views into flat
        assert g.flat[-CFG.d_model] == -1.0


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestFusedBlock:
    """The explicit block equals the tape-composed reference to round-off.
    Weight gradients are wanted only in pretraining, which runs without
    prompts, so no case asks for both."""

    @pytest.mark.parametrize("trainable, n_out, with_prompt", [
        (trainable, n_out, with_prompt)
        for trainable in (False, True) for n_out in (None, 1) for with_prompt in (False, True)
        if not (trainable and with_prompt)
    ])
    def test_output_and_grads_match_tape_reference(self, with_prompt, n_out, trainable):
        rng = np.random.default_rng(9)
        backbone = FrozenBackbone.init(CFG, rng)
        for name, w in backbone.weights.items():  # move LN and biases off 1 and 0
            backbone.weights[name] = w + rng.normal(0, 0.1, w.shape)
        x0 = rng.standard_normal((5, CFG.n_feature_tokens + 1, CFG.d_model))
        p0 = rng.standard_normal((2 * CFG.prompt_len, CFG.d_model)) if with_prompt else None
        keep = x0.shape[1] if n_out is None else n_out
        upstream = rng.standard_normal((5, keep, CFG.d_model))

        out, backward = _attention_block(x0, _block_weights(backbone.weights, 1), CFG.n_heads, p0, n_out,
                                         keep=True)
        gx, gp, weight_grads = backward(upstream, True, trainable)
        grads = {"x": gx, **{name: weight_grads.get(name) for name in _BLOCK_WEIGHTS}}
        if with_prompt:
            grads["prompt"] = gp
        else:
            assert gp is None

        params = tape_params(backbone, trainable)
        x = Tensor(x0, requires_grad=True)
        prompt = Tensor(p0, requires_grad=True) if with_prompt else None
        ref = tape_attention_block(x, params, 1, CFG.n_heads, prompt)[:, :keep]
        (ref * Tensor(upstream)).sum().backward()
        ref_grads = {"x": x.grad, **{name: params[f"b1.{name}"].grad for name in _BLOCK_WEIGHTS}}
        if with_prompt:
            ref_grads["prompt"] = prompt.grad

        assert out.shape == ref.shape == (5, keep, CFG.d_model)
        assert _rel_err(out, ref.data) <= 1e-12
        for name, ref_grad in ref_grads.items():
            if ref_grad is None:
                assert grads[name] is None, name
            else:
                assert _rel_err(grads[name], ref_grad) <= 1e-12, name
        assert (grads["mlp_w1"] is not None) == trainable

    def test_forward_only_keeps_no_backward(self):
        rng = np.random.default_rng(4)
        backbone = FrozenBackbone.init(CFG, rng)
        x0 = rng.standard_normal((3, CFG.n_feature_tokens + 1, CFG.d_model))
        out, backward = _attention_block(x0, _block_weights(backbone.weights, 0), CFG.n_heads)
        assert backward is None
        kept, _ = _attention_block(x0, _block_weights(backbone.weights, 0), CFG.n_heads, keep=True)
        assert np.array_equal(out, kept)


def appended_encode(backbone, batch, prompts):
    """Reference: each block's prompt rows are appended to every sample's
    sequence, the whole block runs over them, and their outputs are dropped."""
    cfg, n = backbone.config, len(batch)
    p = tape_params(backbone)
    tok = tape_embed(backbone, batch, p)
    keep = tok.shape[1]
    for i in range(cfg.n_blocks):
        if i in prompts:
            carrier = Tensor(np.zeros((n,) + prompts[i].shape)) + prompts[i].reshape(1, *prompts[i].shape)
            tok = tape_attention_block(concat([tok, carrier], axis=1), p, i, cfg.n_heads)[:, :keep]
        else:
            tok = tape_attention_block(tok, p, i, cfg.n_heads)
    return layer_norm(tok, p["ln_f_g"], p["ln_f_b"])[:, 0]


class TestPrefixEquivalence:
    """The prefix encoder equals the appended-token form to round-off."""

    @pytest.mark.parametrize("blocks", [(0, 1), (1,)])
    @pytest.mark.parametrize("with_extra", [False, True])
    def test_features_loss_and_grads_match_appended_form(self, blocks, with_extra):
        cfg = EncoderConfig(d_model=16, n_blocks=2, n_heads=4, prompt_len=3, prompted_blocks=blocks,
                            input_dim=10, n_feature_tokens=3)
        rng = np.random.default_rng(5)
        backbone = FrozenBackbone.init(cfg, rng)
        head = Head.init(cfg.d_model, 8, rng)
        pset = PromptSet.init(cfg, rng)
        batch = rng.standard_normal((6, cfg.input_dim))
        labels = rng.integers(0, 4, size=6)
        q_bar = rng.standard_normal(cfg.d_model)
        extra = rng.standard_normal((cfg.n_prompted, 2 * cfg.prompt_len, cfg.d_model)) if with_extra else None
        pset = PromptSet(pset.p, pset.k, extra=extra)

        feats = encode(backbone, batch, prefixes(cfg, pset))[0]
        ref = appended_encode(backbone, batch, tape_prompt_tensors(cfg, Tensor(pset.p), extra))
        assert _rel_err(feats, ref.data) <= 1e-12

        loss, grad, _, _ = loss_and_grads(backbone, head, pset, batch, labels, range(8), q_bar=q_bar)
        p_t = Tensor(pset.p, requires_grad=True)
        k_t = Tensor(pset.k, requires_grad=True)
        logits = appended_encode(backbone, batch, tape_prompt_tensors(cfg, p_t, extra)) @ Tensor(head.w)
        ref_loss = cross_entropy(logits + Tensor(head.b + class_mask_bias(8, range(8))), labels)
        ref_loss = ref_loss + KEY_LOSS_WEIGHT * tape_key_loss(k_t, q_bar)
        ref_loss.backward()
        assert loss == pytest.approx(float(ref_loss.data), rel=1e-12, abs=0)
        assert _rel_err(grad.p, p_t.grad) <= 1e-12
        assert _rel_err(grad.k, k_t.grad) <= 1e-12


def _perturbed_backbone(cfg, rng):
    backbone = FrozenBackbone.init(cfg, rng)
    for name, w in backbone.weights.items():  # move LN and biases off 1 and 0
        backbone.weights[name] = w + rng.normal(0, 0.1, w.shape)
    return backbone


class TestTapeReference:
    """The explicit forward/backward equals the tape-composed encoder."""

    @pytest.mark.parametrize("blocks", [(0, 1), (1,), (0,)])
    @pytest.mark.parametrize("with_extra", [False, True])
    def test_features_match(self, blocks, with_extra):
        cfg = EncoderConfig(d_model=16, n_blocks=2, n_heads=4, prompt_len=3, prompted_blocks=blocks,
                            input_dim=10, n_feature_tokens=3)
        rng = np.random.default_rng(21)
        backbone = _perturbed_backbone(cfg, rng)
        pset = PromptSet.init(cfg, rng)
        batch = rng.standard_normal((7, cfg.input_dim))
        extra = rng.standard_normal((cfg.n_prompted, 2, cfg.d_model)) if with_extra else None
        pset = PromptSet(pset.p, pset.k, extra=extra)

        feats = encode(backbone, batch, prefixes(cfg, pset))[0]
        ref = tape_encode(backbone, batch, tape_prompt_tensors(cfg, Tensor(pset.p), extra))
        assert _rel_err(feats, ref.data) <= 1e-12
        assert _rel_err(forward_query(backbone, batch), tape_encode(backbone, batch).data) <= 1e-12

    @pytest.mark.parametrize("blocks", [(0, 1), (1,)])
    @pytest.mark.parametrize("with_extra", [False, True])
    @pytest.mark.parametrize("with_q_bar", [False, True])
    def test_loss_and_grads_match(self, blocks, with_extra, with_q_bar):
        cfg = EncoderConfig(d_model=16, n_blocks=2, n_heads=4, prompt_len=3, prompted_blocks=blocks,
                            input_dim=10, n_feature_tokens=3)
        rng = np.random.default_rng(22)
        backbone = _perturbed_backbone(cfg, rng)
        head = Head(rng.standard_normal((cfg.d_model, 8)), rng.standard_normal(8))
        pset = PromptSet.init(cfg, rng)
        batch = rng.standard_normal((9, cfg.input_dim))
        labels = rng.integers(0, 5, size=9)
        mask = range(6)
        extra = rng.standard_normal((cfg.n_prompted, 2, cfg.d_model)) if with_extra else None
        q_bar = rng.standard_normal(cfg.d_model) if with_q_bar else None
        pset = PromptSet(pset.p, pset.k, extra=extra)

        loss, grad, gw, gb = loss_and_grads(backbone, head, pset, batch, labels, mask, q_bar=q_bar)
        ref_loss, ref_p, ref_k, ref_w, ref_b = tape_loss_and_grads(
            backbone, head, pset, batch, labels, mask, extra=extra, q_bar=q_bar, train_head=True
        )
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
        assert _rel_err(grad.p, ref_p) <= 1e-12
        if with_q_bar:
            assert _rel_err(grad.k, ref_k) <= 1e-12
        else:
            assert np.all(grad.k == 0) and np.all(ref_k == 0)
        assert _rel_err(gw[:, :6], ref_w[:, :6]) <= 1e-12
        assert _rel_err(gb[:6], ref_b[:6]) <= 1e-12
        assert np.all(gw[:, 6:] == 0) and np.all(gb[6:] == 0)

    def test_pretraining_steps_match(self):
        rng = np.random.default_rng(23)
        backbone = _perturbed_backbone(CFG, rng)
        ref = FrozenBackbone(CFG, {name: w.copy() for name, w in backbone.weights.items()})
        before = {name: w.copy() for name, w in backbone.weights.items()}
        data = rng.standard_normal((50, CFG.input_dim))
        labels = rng.integers(0, 4, size=50)
        pretrain_backbone(backbone, data, labels, steps=4, lr=0.05, batch_size=16,
                          rng=np.random.default_rng(5))
        tape_pretrain(ref, data, labels, steps=4, lr=0.05, batch_size=16, rng=np.random.default_rng(5))
        assert list(backbone.weights) == list(ref.weights)
        for name, w in backbone.weights.items():
            assert not np.array_equal(w, before[name]), name  # every weight trains
            assert _rel_err(w - before[name], ref.weights[name] - before[name]) <= 1e-12, name
            assert _rel_err(w, ref.weights[name]) <= 1e-12, name

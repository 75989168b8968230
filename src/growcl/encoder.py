"""A small frozen attention encoder conditioned by learnable prompt tokens.

Raw feature vectors are linearly embedded into a handful of tokens, a class
token is prepended, and each block runs pre-norm multi-head attention plus a
GELU MLP. A prompted block takes its prompt rows as an attention prefix, as in
Prefix-Tuning and DualPrompt: the rows' keys and values, computed once per
batch, join those of the data tokens, and nothing else is computed for them,
so prompts act purely through attention. The promptless pass ("query" mode)
yields the vanilla feature used for key matching and for pre-trained
subspaces.

Each block is a single autodiff node: LN1, the joined data+prefix attention,
``wo``, the residual, LN2 and the GELU MLP run on plain arrays, and a
hand-written backward fills gradients only for the parents that require them
(the prompt; the block weights only while the backbone is pretrained). The
LN, GELU and softmax derivatives are the ones the tape ops use. Only the
class token is read after the last block, so that block builds keys and
values from every token and the prompt but computes the query, attention
row, residual and MLP for the class token alone.

A prompt set has one segment per prompted block, named ``block{b}`` in
``prompted_blocks`` order, then the ``key``; every segment is a stack of
``d_model``-wide rows. ``segment_map`` is the only place these names are
made: ``encode``'s per-layer reps, the rows of a ``GradientVector`` and the
stored spaces built from reps all carry them, in that order.

Backbone weights are initialized once (optionally briefly fitted on a
held-out pre-task) and then frozen; only prompt tokens, retrieval keys and
the current task's classifier rows ever train.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from growcl.autodiff import (
    Tensor,
    accumulate_layer_norm_params,
    concat,
    cross_entropy,
    gelu_backward,
    gelu_forward,
    layer_norm,
    layer_norm_backward,
    layer_norm_forward,
    softmax_backward,
    softmax_forward,
)

MASK_BIAS = -1e30


class EncoderError(ValueError):
    """Shape or contract violation in the encoder."""


class NonFiniteError(EncoderError):
    """A loss or gradient came out NaN or infinite."""


@dataclass(frozen=True)
class EncoderConfig:
    d_model: int = 32
    n_blocks: int = 2
    n_heads: int = 4
    prompt_len: int = 4
    prompted_blocks: tuple = (0, 1)
    input_dim: int = 64
    n_feature_tokens: int = 4
    mlp_ratio: int = 2
    key_loss_weight: float = 1.0

    def __post_init__(self):
        if self.d_model % self.n_heads:
            raise EncoderError("d_model must be divisible by n_heads")
        if any(b < 0 or b >= self.n_blocks for b in self.prompted_blocks):
            raise EncoderError("prompted_blocks outside [0, n_blocks)")
        if len(set(self.prompted_blocks)) != len(self.prompted_blocks):
            raise EncoderError("prompted_blocks must be distinct")
        if not self.prompted_blocks:
            # without a prompted block no task gradient reaches a prompt set
            raise EncoderError("prompted_blocks must name at least one block")
        object.__setattr__(self, "prompted_blocks", tuple(self.prompted_blocks))

    @property
    def n_prompted(self) -> int:
        return len(self.prompted_blocks)


# Per-block weights, in declaration order; block i names them ``b{i}.<name>``.
_BLOCK_WEIGHTS = (
    "ln1_g", "ln1_b", "wq", "wk", "wv", "wo",
    "ln2_g", "ln2_b", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2",
)


def _backbone_names(cfg: EncoderConfig):
    names = ["embed_w", "embed_b", "cls"]
    for i in range(cfg.n_blocks):
        names += [f"b{i}.{name}" for name in _BLOCK_WEIGHTS]
    names += ["ln_f_g", "ln_f_b"]
    return names


@dataclass
class FrozenBackbone:
    """All non-trainable encoder weights, in a fixed declaration order."""

    config: EncoderConfig
    weights: dict = field(default_factory=dict)

    @classmethod
    def init(cls, cfg: EncoderConfig, rng: np.random.Generator) -> "FrozenBackbone":
        d, ld = cfg.d_model, cfg.n_feature_tokens * cfg.d_model
        hidden = cfg.mlp_ratio * d
        w = {
            "embed_w": rng.normal(0, 1.0 / np.sqrt(cfg.input_dim), (cfg.input_dim, ld)),
            "embed_b": np.zeros(ld),
            "cls": rng.normal(0, 0.5, d),
        }
        for i in range(cfg.n_blocks):
            s = 1.0 / np.sqrt(d)
            w[f"b{i}.ln1_g"] = np.ones(d)
            w[f"b{i}.ln1_b"] = np.zeros(d)
            w[f"b{i}.wq"] = rng.normal(0, s, (d, d))
            w[f"b{i}.wk"] = rng.normal(0, s, (d, d))
            w[f"b{i}.wv"] = rng.normal(0, s, (d, d))
            w[f"b{i}.wo"] = rng.normal(0, s, (d, d))
            w[f"b{i}.ln2_g"] = np.ones(d)
            w[f"b{i}.ln2_b"] = np.zeros(d)
            w[f"b{i}.mlp_w1"] = rng.normal(0, s, (d, hidden))
            w[f"b{i}.mlp_b1"] = np.zeros(hidden)
            w[f"b{i}.mlp_w2"] = rng.normal(0, 1.0 / np.sqrt(hidden), (hidden, d))
            w[f"b{i}.mlp_b2"] = np.zeros(d)
        w["ln_f_g"] = np.ones(d)
        w["ln_f_b"] = np.zeros(d)
        return cls(cfg, w)

    def names(self):
        return _backbone_names(self.config)

    def weights_hash(self) -> str:
        h = hashlib.sha256()
        for name in self.names():
            h.update(np.ascontiguousarray(self.weights[name]).tobytes())
        return h.hexdigest()


@dataclass
class PromptSet:
    """A learnable prompt tensor plus its retrieval key."""

    p: np.ndarray  # [n_prompted, prompt_len, d]
    k: np.ndarray  # [d]
    id: int = -1

    @classmethod
    def init(cls, cfg: EncoderConfig, rng: np.random.Generator, set_id: int = -1) -> "PromptSet":
        p = rng.normal(0, 0.5, (cfg.n_prompted, cfg.prompt_len, cfg.d_model))
        k = rng.normal(0, 0.5, cfg.d_model)
        return cls(p, k, set_id)


@dataclass
class Head:
    """Unified classifier head; rows outside the current task stay frozen."""

    w: np.ndarray  # [d, n_classes]
    b: np.ndarray  # [n_classes]

    @classmethod
    def init(cls, d: int, n_classes: int, rng: np.random.Generator) -> "Head":
        # Nonzero rows so probe gradients reach the prompts before the first
        # step on a task.
        return cls(rng.normal(0, 1.0 / np.sqrt(d), (d, n_classes)), np.zeros(n_classes))

    @property
    def n_classes(self) -> int:
        return self.b.shape[0]


def segment_map(cfg: EncoderConfig, per_block, key) -> dict:
    """Name a prompt set's segments: ``block{b}`` -> the j-th entry of
    ``per_block`` for ``b = prompted_blocks[j]``, then ``key`` -> ``key``."""
    names = [f"block{b}" for b in cfg.prompted_blocks]
    return {**dict(zip(names, per_block, strict=True)), "key": key}


@dataclass
class GradientVector:
    """A gradient over a prompt set's p and k, flat as ``concat(p.ravel(), k)``."""

    flat: np.ndarray
    cfg: EncoderConfig

    def __post_init__(self):
        size = (self.cfg.n_prompted * self.cfg.prompt_len + 1) * self.cfg.d_model
        if self.flat.shape != (size,):
            raise EncoderError(f"gradient length {self.flat.shape} != layout {size}")
        if not np.all(np.isfinite(self.flat)):
            raise NonFiniteError("non-finite gradient")

    @property
    def p(self) -> np.ndarray:
        """View [n_prompted, prompt_len, d] of the prompt part."""
        cfg = self.cfg
        return self.flat[: -cfg.d_model].reshape(cfg.n_prompted, cfg.prompt_len, cfg.d_model)

    @property
    def k(self) -> np.ndarray:
        """View [d] of the key part."""
        return self.flat[-self.cfg.d_model :]

    def segments(self) -> dict:
        """Segment name -> [rows, d] view into ``flat``."""
        return segment_map(self.cfg, self.p, self.k[None])

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.flat))

    def copy(self) -> "GradientVector":
        return GradientVector(self.flat.copy(), self.cfg)


def class_mask_bias(n_classes: int, allowed) -> np.ndarray:
    """Additive logit bias: 0 for allowed classes, a large negative elsewhere."""
    bias = np.full(n_classes, MASK_BIAS)
    bias[np.asarray(list(allowed), dtype=int)] = 0.0
    return bias


def _params(backbone: FrozenBackbone, trainable: bool = False) -> dict:
    return {k: Tensor(v, requires_grad=trainable) for k, v in backbone.weights.items()}


def _attention_block(
    x: Tensor, p: dict, i: int, n_heads: int, prompt: Tensor | None = None, n_out: int | None = None
) -> Tensor:
    """One pre-norm block over the data tokens ``x`` [n, t, d], as one tape node.

    A ``prompt`` [P, d] is a prefix: its LN1 keys and values, computed once
    for the whole batch, join the data tokens' keys and values, so every
    query also attends to the prompt rows. Nothing is computed at prompt
    positions beyond that. With ``n_out`` set, keys and values still come
    from every token, but the queries, attention, residual and MLP run for
    the first ``n_out`` tokens only, and the output is [n, n_out, d].

    The forward runs on plain arrays; the backward fills gradients only for
    the parents (``x``, ``prompt``, the block's weights) that require them.
    """
    w = {name: p[f"b{i}.{name}"] for name in _BLOCK_WEIGHTS}
    g1, c_ln1, wq, wk, wv, wo, g2, c_ln2, w1, c1, w2, c2 = (tensor.data for tensor in w.values())
    n, t, d = x.shape
    to = t if n_out is None else n_out
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    h, xhat1, inv1 = layer_norm_forward(x.data, g1, c_ln1)
    hq = h[:, :to]
    q = (hq @ wq).reshape(n, to, n_heads, dh).transpose((0, 2, 1, 3))  # [n, H, to, dh]
    k = (h @ wk).reshape(n, t, n_heads, dh).transpose((0, 2, 3, 1))  # [n, H, dh, t]
    v = (h @ wv).reshape(n, t, n_heads, dh).transpose((0, 2, 1, 3))  # [n, H, t, dh]
    scores = q @ k
    if prompt is not None:
        n_p = prompt.shape[0]
        hp, xhatp, invp = layer_norm_forward(prompt.data, g1, c_ln1)
        kp = (hp @ wk).reshape(n_p, n_heads, dh).transpose((1, 2, 0))  # [H, dh, P]
        vp = (hp @ wv).reshape(n_p, n_heads, dh).transpose((1, 0, 2))  # [H, P, dh]
        scores = np.concatenate([scores, q @ kp], axis=-1)
    attn = softmax_forward(scores * scale)
    if prompt is None:
        o = attn @ v
    else:
        o = attn[..., :t] @ v + attn[..., t:] @ vp
    o = o.transpose((0, 2, 1, 3)).reshape(n, to, d)
    x1 = x.data[:, :to] + o @ wo
    h2, xhat2, inv2 = layer_norm_forward(x1, g2, c_ln2)
    z = h2 @ w1 + c1
    a, z2, tz = gelu_forward(z)
    out = x1 + (a @ w2 + c2)

    def backward(g):
        def need(*names):
            return any(w[name].requires_grad for name in names)

        def rows(arr):
            return arr.reshape(-1, arr.shape[-1])

        def weight_grad(name, inputs, grad):
            # one [rows, a]^T @ [rows, b] product over every token row
            if w[name].requires_grad:
                w[name]._accumulate(rows(inputs).T @ rows(grad))

        def bias_grad(name, grad):
            if w[name].requires_grad:
                w[name]._accumulate(rows(grad).sum(axis=0))

        # MLP and its residual: out = x1 + gelu(LN2(x1) @ w1 + c1) @ w2 + c2
        weight_grad("mlp_w2", a, g)
        bias_grad("mlp_b2", g)
        gz = gelu_backward(g @ w2.T, z, z2, tz)
        weight_grad("mlp_w1", h2, gz)
        bias_grad("mlp_b1", gz)
        gh2 = gz @ w1.T
        accumulate_layer_norm_params(w["ln2_g"], w["ln2_b"], gh2, xhat2)
        gx1 = g + layer_norm_backward(gh2, xhat2, inv2, g2)
        weight_grad("wo", o, gx1)

        need_data = x.requires_grad or need("ln1_g", "ln1_b", "wq", "wk", "wv")
        need_prompt = prompt is not None and (prompt.requires_grad or need("ln1_g", "ln1_b", "wk", "wv"))
        if not (need_data or need_prompt):
            return
        go = (gx1 @ wo.T).reshape(n, to, n_heads, dh).transpose((0, 2, 1, 3))  # [n, H, to, dh]
        ga = go @ v.transpose((0, 1, 3, 2))
        if prompt is not None:
            ga = np.concatenate([ga, go @ vp.transpose((0, 2, 1))], axis=-1)
        gs = softmax_backward(ga, attn) * scale  # [n, H, to, t + P]

        if need_data:
            gq = gs[..., :t] @ k.transpose((0, 1, 3, 2))
            if prompt is not None:
                gq += gs[..., t:] @ kp.transpose((0, 2, 1))
            gq = gq.transpose((0, 2, 1, 3)).reshape(n, to, d)
            gk = (q.transpose((0, 1, 3, 2)) @ gs[..., :t]).transpose((0, 3, 1, 2)).reshape(n, t, d)
            gv = (attn[..., :t].transpose((0, 1, 3, 2)) @ go).transpose((0, 2, 1, 3)).reshape(n, t, d)
            weight_grad("wq", hq, gq)
            weight_grad("wk", h, gk)
            weight_grad("wv", h, gv)
            if x.requires_grad or need("ln1_g", "ln1_b"):
                gh = gk @ wk.T + gv @ wv.T
                gh[:, :to] += gq @ wq.T
                accumulate_layer_norm_params(w["ln1_g"], w["ln1_b"], gh, xhat1)
                if x.requires_grad:
                    gx = layer_norm_backward(gh, xhat1, inv1, g1)
                    gx[:, :to] += gx1
                    x._accumulate(gx)

        if need_prompt:
            # Prompt keys and values are shared by the batch: sum over every
            # (sample, query) row in one product per head.
            m = n * to
            q_rows = q.transpose((1, 3, 0, 2)).reshape(n_heads, dh, m)
            gs_p = gs[..., t:].transpose((1, 0, 2, 3)).reshape(n_heads, m, n_p)
            a_p = attn[..., t:].transpose((1, 3, 0, 2)).reshape(n_heads, n_p, m)
            go_rows = go.transpose((1, 0, 2, 3)).reshape(n_heads, m, dh)
            gkp = (q_rows @ gs_p).transpose((2, 0, 1)).reshape(n_p, d)
            gvp = (a_p @ go_rows).transpose((1, 0, 2)).reshape(n_p, d)
            weight_grad("wk", hp, gkp)
            weight_grad("wv", hp, gvp)
            ghp = gkp @ wk.T + gvp @ wv.T
            accumulate_layer_norm_params(w["ln1_g"], w["ln1_b"], ghp, xhatp)
            if prompt.requires_grad:
                prompt._accumulate(layer_norm_backward(ghp, xhatp, invp, g1))

    parents = [x] + ([prompt] if prompt is not None else []) + list(w.values())
    return Tensor._result(out, parents, backward)


def encode(
    backbone: FrozenBackbone,
    batch: np.ndarray,
    prompts: dict | None = None,
    params: dict | None = None,
    collect_layers: bool = False,
):
    """Run the encoder; returns (features Tensor [n, d], layer_reps dict).

    ``prompts`` maps prompted block index -> Tensor [P, d] of prefix rows that
    every sample's tokens attend to in that block (already composed with any
    frozen extras).
    ``layer_reps`` (empty unless ``collect_layers``) is a ``segment_map``: the
    class-token output of each prompted block, then the final feature under
    ``key`` (plain arrays, detached).
    """
    batch = np.asarray(batch, dtype=np.float64)
    cfg = backbone.config
    if batch.ndim != 2 or batch.shape[1] != cfg.input_dim:
        raise EncoderError(f"batch shape {batch.shape} incompatible with input_dim {cfg.input_dim}")
    n = batch.shape[0]
    if n == 0:
        raise EncoderError("empty batch")
    p = params if params is not None else _params(backbone)
    x = (Tensor(batch) @ p["embed_w"] + p["embed_b"]).reshape(n, cfg.n_feature_tokens, cfg.d_model)
    # [d] parameter -> [n, 1, d]; the zero carrier keeps its gradient exact.
    cls = Tensor(np.zeros((n, 1, cfg.d_model))) + p["cls"].reshape(1, 1, cfg.d_model)
    tok = concat([cls, x], axis=1)
    prompts = prompts or {}
    cls_out = {}
    for i in range(cfg.n_blocks):
        # Only the class token is read after the last block.
        n_out = 1 if i == cfg.n_blocks - 1 else None
        tok = _attention_block(tok, p, i, cfg.n_heads, prompts.get(i), n_out)
        if collect_layers and i in cfg.prompted_blocks:
            cls_out[i] = tok.data[:, 0].copy()
    feats = layer_norm(tok, p["ln_f_g"], p["ln_f_b"])[:, 0]
    if not collect_layers:
        return feats, {}
    return feats, segment_map(cfg, [cls_out[b] for b in cfg.prompted_blocks], feats.data.copy())


def _prompt_tensors(cfg: EncoderConfig, p_active: Tensor, extra: np.ndarray | None) -> dict:
    prompts = {}
    for j, b in enumerate(cfg.prompted_blocks):
        tok = p_active[j]
        if extra is not None and extra.shape[1]:
            tok = concat([tok, Tensor(extra[j])], axis=0)
        prompts[b] = tok
    return prompts


def prompted_features(
    backbone: FrozenBackbone, pset: PromptSet, batch: np.ndarray, extra: np.ndarray | None = None
) -> np.ndarray:
    """Features [n, d] of ``batch`` under ``pset`` (and frozen ``extra`` rows)."""
    feats, _ = encode(backbone, batch, _prompt_tensors(backbone.config, Tensor(pset.p), extra))
    return feats.data


def forward_prompted(
    backbone: FrozenBackbone,
    head: Head,
    pset: PromptSet,
    batch: np.ndarray,
    head_mask,
    extra: np.ndarray | None = None,
) -> np.ndarray:
    """Logits [n, n_classes] with classes outside ``head_mask`` pushed to -inf."""
    feats = prompted_features(backbone, pset, batch, extra)
    return feats @ head.w + head.b + class_mask_bias(head.n_classes, head_mask)


def forward_query(backbone: FrozenBackbone, batch: np.ndarray) -> np.ndarray:
    """Promptless features, one row per sample (the retrieval query)."""
    feats, _ = encode(backbone, batch)
    return feats.data


def query_with_layers(backbone: FrozenBackbone, batch: np.ndarray):
    """Promptless pass, returning (features, per-block class-token reps)."""
    feats, reps = encode(backbone, batch, collect_layers=True)
    return feats.data, reps


def prompted_with_layers(
    backbone: FrozenBackbone, pset: PromptSet, batch: np.ndarray, extra: np.ndarray | None = None
):
    prompts = _prompt_tensors(backbone.config, Tensor(pset.p), extra)
    feats, reps = encode(backbone, batch, prompts, collect_layers=True)
    return feats.data, reps


def _key_loss(k: Tensor, q_bar: np.ndarray):
    """Cosine pull of the retrieval key toward the batch's mean query."""
    qn = float(np.linalg.norm(q_bar))
    dot = (k * Tensor(q_bar)).sum()
    kn = (k * k).sum().sqrt()
    return 1.0 - dot / (kn * qn)


def loss_and_grads(
    backbone: FrozenBackbone,
    head: Head,
    pset: PromptSet,
    batch: np.ndarray,
    labels: np.ndarray,
    head_mask,
    extra: np.ndarray | None = None,
    q_bar: np.ndarray | None = None,
    train_head_classes=None,
):
    """One forward/backward: cross-entropy (+ key pull when ``q_bar`` given).

    Returns (loss value, GradientVector over the active set's p and k,
    head weight grad or None, head bias grad or None). ``extra`` tokens join
    the forward pass but receive no gradient; head gradients are restricted
    to ``train_head_classes`` rows.
    """
    cfg = backbone.config
    labels = np.asarray(labels, dtype=int)
    if len(labels) != len(batch):
        raise EncoderError("labels/batch length mismatch")
    allowed = set(int(c) for c in head_mask)
    if not set(labels.tolist()) <= allowed:
        raise EncoderError("labels outside head mask")

    p_t = Tensor(pset.p, requires_grad=True)
    k_t = Tensor(pset.k, requires_grad=True)
    train_head = train_head_classes is not None
    hw = Tensor(head.w, requires_grad=train_head)
    hb = Tensor(head.b, requires_grad=train_head)

    feats, _ = encode(backbone, batch, _prompt_tensors(cfg, p_t, extra))
    logits = feats @ hw + hb + Tensor(class_mask_bias(head.n_classes, head_mask))
    loss = cross_entropy(logits, labels)
    if q_bar is not None and cfg.key_loss_weight != 0.0:
        loss = loss + cfg.key_loss_weight * _key_loss(k_t, q_bar)
    if not np.isfinite(loss.data):
        raise NonFiniteError("non-finite loss")
    loss.backward()

    p_grad = p_t.grad if p_t.grad is not None else np.zeros_like(pset.p)
    k_grad = k_t.grad if k_t.grad is not None else np.zeros_like(pset.k)
    flat = np.concatenate([p_grad.ravel(), k_grad])

    gw = gb = None
    if train_head:
        rows = np.zeros(head.n_classes, dtype=bool)
        rows[np.asarray(list(train_head_classes), dtype=int)] = True
        gw = np.where(rows[None, :], hw.grad, 0.0)
        gb = np.where(rows, hb.grad, 0.0)
    return float(loss.data), GradientVector(flat, cfg), gw, gb


def grad_prompts(
    backbone: FrozenBackbone,
    head: Head,
    pset: PromptSet,
    batch: np.ndarray,
    labels: np.ndarray,
    head_mask,
    extra: np.ndarray | None = None,
    q_bar: np.ndarray | None = None,
) -> GradientVector:
    """Gradient of the task loss w.r.t. the active set's prompts and key only."""
    _, grad, _, _ = loss_and_grads(
        backbone, head, pset, batch, labels, head_mask, extra=extra, q_bar=q_bar
    )
    return grad


def pretrain_backbone(
    backbone: FrozenBackbone,
    data: np.ndarray,
    labels: np.ndarray,
    steps: int,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
):
    """Briefly fit the backbone (plus a throwaway head) before freezing it.

    Gives the promptless feature space genuine structure so pre-trained
    subspaces are more than random directions. Mutates ``backbone.weights``
    in place; the throwaway head is discarded.
    """
    labels = np.asarray(labels, dtype=int)
    n_classes = int(labels.max()) + 1
    params = _params(backbone, trainable=True)
    hw = Tensor(rng.normal(0, 0.1, (backbone.config.d_model, n_classes)), requires_grad=True)
    hb = Tensor(np.zeros(n_classes), requires_grad=True)
    trainables = list(params.values()) + [hw, hb]
    n = len(data)
    for _ in range(steps):
        idx = rng.integers(0, n, size=min(batch_size, n))
        feats, _ = encode(backbone, data[idx], params=params)
        loss = cross_entropy(feats @ hw + hb, labels[idx])
        for t in trainables:
            t.zero_grad()
        loss.backward()
        for t in trainables:
            if t.grad is not None:
                t.data -= lr * t.grad
    for name, t in params.items():
        backbone.weights[name] = t.data

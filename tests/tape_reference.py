"""Reference encoder composed from the autodiff tape.

The engine runs one explicit forward/backward on plain arrays. These
functions build the same model node by node from ``growcl.autodiff`` ops,
with the tape deriving every gradient, so the explicit pass can be checked
against an independent derivation: features, loss, prompt/key/head gradients
and pretraining steps.
"""

from __future__ import annotations

import numpy as np

from growcl.autodiff import Tensor, concat, cross_entropy, gelu, layer_norm, softmax
from growcl.encoder import KEY_LOSS_WEIGHT, class_mask_bias


def tape_attention_block(x, p, i, n_heads, prompt=None):
    """The attention block composed from tape ops, over all tokens."""
    n, t, d = x.shape
    dh = d // n_heads
    h = layer_norm(x, p[f"b{i}.ln1_g"], p[f"b{i}.ln1_b"])
    q = (h @ p[f"b{i}.wq"]).reshape(n, t, n_heads, dh).transpose((0, 2, 1, 3))
    k = (h @ p[f"b{i}.wk"]).reshape(n, t, n_heads, dh).transpose((0, 2, 3, 1))
    v = (h @ p[f"b{i}.wv"]).reshape(n, t, n_heads, dh).transpose((0, 2, 1, 3))
    scores = q @ k
    if prompt is not None:
        n_p = prompt.shape[0]
        hp = layer_norm(prompt, p[f"b{i}.ln1_g"], p[f"b{i}.ln1_b"])
        kp = (hp @ p[f"b{i}.wk"]).reshape(n_p, n_heads, dh).transpose((1, 2, 0))
        vp = (hp @ p[f"b{i}.wv"]).reshape(n_p, n_heads, dh).transpose((1, 0, 2))
        scores = concat([scores, q @ kp], axis=-1)
    attn = softmax(scores * (1.0 / np.sqrt(dh)))
    if prompt is None:
        out = attn @ v
    else:
        out = attn[..., :t] @ v + attn[..., t:] @ vp
    out = out.transpose((0, 2, 1, 3)).reshape(n, t, d) @ p[f"b{i}.wo"]
    x = x + out
    h2 = layer_norm(x, p[f"b{i}.ln2_g"], p[f"b{i}.ln2_b"])
    m = (gelu(h2 @ p[f"b{i}.mlp_w1"] + p[f"b{i}.mlp_b1"]) @ p[f"b{i}.mlp_w2"]) + p[f"b{i}.mlp_b2"]
    return x + m


def tape_params(backbone, trainable=False):
    return {k: Tensor(v, requires_grad=trainable) for k, v in backbone.weights.items()}


def tape_prompt_tensors(cfg, p_active, extra):
    """Per prompted block, the prompt rows (a slice of ``p_active``), then
    any frozen ``extra`` rows."""
    prompts = {}
    for j, b in enumerate(cfg.prompted_blocks):
        tok = p_active[j]
        if extra is not None and extra.shape[1]:
            tok = concat([tok, Tensor(extra[j])], axis=0)
        prompts[b] = tok
    return prompts


def tape_embed(backbone, batch, p):
    """Class token and embedded feature tokens, [n, 1 + n_feature_tokens, d]."""
    cfg, n = backbone.config, len(batch)
    x = (Tensor(batch) @ p["embed_w"] + p["embed_b"]).reshape(n, cfg.n_feature_tokens, cfg.d_model)
    # [d] parameter -> [n, 1, d]; the zero carrier keeps its gradient exact.
    cls = Tensor(np.zeros((n, 1, cfg.d_model))) + p["cls"].reshape(1, 1, cfg.d_model)
    return concat([cls, x], axis=1)


def tape_encode(backbone, batch, prompts=None, params=None):
    """Features Tensor [n, d]: every block over every token, prompts as prefixes."""
    cfg = backbone.config
    p = params if params is not None else tape_params(backbone)
    tok = tape_embed(backbone, np.asarray(batch, dtype=np.float64), p)
    prompts = prompts or {}
    for i in range(cfg.n_blocks):
        tok = tape_attention_block(tok, p, i, cfg.n_heads, prompts.get(i))
    return layer_norm(tok, p["ln_f_g"], p["ln_f_b"])[:, 0]


def tape_key_loss(k, q_bar):
    """Cosine pull of the retrieval key toward the batch's mean query."""
    qn = float(np.linalg.norm(q_bar))
    dot = (k * Tensor(q_bar)).sum()
    kn = (k * k).sum().sqrt()
    return 1.0 - dot / (kn * qn)


def tape_loss_and_grads(backbone, head, pset, batch, labels, head_mask, extra=None, q_bar=None,
                        train_head=False):
    """(loss, prompt grad, key grad, head weight grad, head bias grad); the
    head gradients are None unless ``train_head``."""
    cfg = backbone.config
    p_t = Tensor(pset.p, requires_grad=True)
    k_t = Tensor(pset.k, requires_grad=True)
    hw = Tensor(head.w, requires_grad=train_head)
    hb = Tensor(head.b, requires_grad=train_head)
    feats = tape_encode(backbone, batch, tape_prompt_tensors(cfg, p_t, extra))
    logits = feats @ hw + hb + Tensor(class_mask_bias(head.n_classes, head_mask))
    loss = cross_entropy(logits, labels)
    if q_bar is not None:
        loss = loss + KEY_LOSS_WEIGHT * tape_key_loss(k_t, q_bar)
    loss.backward()
    k_grad = k_t.grad if k_t.grad is not None else np.zeros_like(pset.k)
    return float(loss.data), p_t.grad, k_grad, hw.grad, hb.grad


def tape_pretrain(backbone, data, labels, steps, lr, batch_size, rng):
    """Plain gradient steps on every backbone weight and a throwaway head,
    drawing the head and the batches from ``rng`` as the engine does."""
    labels = np.asarray(labels, dtype=int)
    n_classes = int(labels.max()) + 1
    params = tape_params(backbone, trainable=True)
    hw = Tensor(rng.normal(0, 0.1, (backbone.config.d_model, n_classes)), requires_grad=True)
    hb = Tensor(np.zeros(n_classes), requires_grad=True)
    trainables = list(params.values()) + [hw, hb]
    n = len(data)
    for _ in range(steps):
        idx = rng.integers(0, n, size=min(batch_size, n))
        feats = tape_encode(backbone, data[idx], params=params)
        loss = cross_entropy(feats @ hw + hb, labels[idx])
        for t in trainables:
            t.zero_grad()
        loss.backward()
        for t in trainables:
            t.data -= lr * t.grad
    for name, t in params.items():
        backbone.weights[name] = t.data

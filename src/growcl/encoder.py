"""A small frozen attention encoder conditioned by learnable prompt tokens.

Raw feature vectors are linearly embedded into a handful of tokens, a class
token is prepended, and each block runs pre-norm multi-head attention plus a
GELU MLP. A prompted block takes its prompt rows as an attention prefix, as in
Prefix-Tuning and DualPrompt: the rows' keys and values, computed once per
batch, join those of the data tokens, and nothing else is computed for them,
so prompts act purely through attention. A set's prefix is its own prompt
rows followed by its frozen transfer rows (``PromptSet.extra``), and every
prompted pass reads both from the set it is given. The promptless pass
("query" mode) yields the vanilla feature used for key matching and for
pre-trained subspaces.

The encoder runs forward and backward on plain arrays. A block's forward
returns its output and, when a gradient is wanted, a backward over its cached
intermediates that returns the input, prompt and (while the backbone is
pretrained) weight gradients. The forward keeps only what that backward
reads and releases each temporary once it is used. ``encode`` chains the
blocks, and its backward walks ``ln_f``, the blocks in reverse (releasing
each one's intermediates once it has run) and, for pretraining, the
embedding and class token. ``loss_and_grads`` puts the masked head and
cross-entropy in front of one set's pass and adds the key's cosine pull in
closed form; the mask bias alone zeroes the head gradients outside the
task's classes. A training step is one ``loss_and_grads`` call. A probe
gradient (``probe_grad``) is the gradient of the mean of its batches' mean
cross-entropies: one loss over all their rows, each row weighted by its
batch, run in passes of ``ROW_BLOCK`` rows whose prompt gradients are
summed. A block's backward sums the prompt gradient over every row of its
pass, and a prompted pass keeps no backward below its lowest prompted
block. The LN, GELU, softmax and cross-entropy derivatives are the
``autodiff`` kernels; the ``autodiff`` tape is not used here, and the tests
compose the same model from it as an independent reference. Only the
class token is read after the last block, so that block builds keys and
values from every token and the prompt but computes the query, attention
row, residual and MLP for the class token alone.

``encode`` runs its rows in blocks and writes each block's features and
reps into preallocated outputs in row order. A forward-only pass (queries,
features for evaluation, the reps of stored and pre-trained spaces) takes
``ROW_BLOCK`` rows per block, so its peak memory is one block's
intermediates plus the outputs, whatever the number of rows. A pass that
keeps a backward is one block of all its rows, since the backward needs
every row's intermediates; it holds one training batch or at most
``ROW_BLOCK`` probe rows. Rows never interact, and a one-row block embeds
its row as two copies (numpy's one-row product rounds differently from its
many-row one), so a row's features are the same bits whatever rows share
its block.

A prompt set has one segment per prompted block, named ``block{b}`` in
``prompted_blocks`` order, then the ``key``; every segment is a stack of
``d_model``-wide rows. ``segment_map`` is the only place these names are
made: ``encode``'s per-layer reps, the rows of a ``GradientVector`` and the
stored spaces built from reps all carry them, in that order.

Backbone weights are initialized once (optionally briefly fitted on a
held-out pre-task) and then frozen: the engine built on them calls
``FrozenBackbone.freeze``, which makes their arrays read-only. Only prompt
tokens, retrieval keys and the current task's classifier rows ever train.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from growcl.autodiff import (
    cross_entropy_backward,
    cross_entropy_forward,
    gelu_derivative,
    gelu_forward,
    layer_norm_backward,
    layer_norm_forward,
    layer_norm_param_grads,
    softmax_backward,
    softmax_forward,
)

MASK_BIAS = -1e30

# Forward-only passes run this many rows at a time. At the benchmark's
# encoder shape 64 forward rows peak near 1.5 MB and a 32-row training step
# near 0.8 MB; the working set of a pass over a whole task then stops
# growing with its rows, and only the outputs do.
ROW_BLOCK = 64

# Weight of the retrieval key's cosine pull toward the batch's mean query,
# added to the training loss.
KEY_LOSS_WEIGHT = 1.0

# Width of each block's MLP hidden layer, in multiples of d_model.
MLP_RATIO = 2


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

    def __post_init__(self):
        for name in ("d_model", "n_blocks", "n_heads", "prompt_len", "input_dim", "n_feature_tokens"):
            if getattr(self, name) < 1:
                raise EncoderError(f"{name} must be >= 1, got {getattr(self, name)}")
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


# Per-block weights and their shapes, in declaration order; block i names
# them ``b{i}.<name>``. ``d`` is d_model, ``h`` the MLP's hidden width.
_BLOCK_WEIGHTS = {
    "ln1_g": ("d",), "ln1_b": ("d",),
    "wq": ("d", "d"), "wk": ("d", "d"), "wv": ("d", "d"), "wo": ("d", "d"),
    "ln2_g": ("d",), "ln2_b": ("d",),
    "mlp_w1": ("d", "h"), "mlp_b1": ("h",), "mlp_w2": ("h", "d"), "mlp_b2": ("d",),
}


def backbone_shapes(cfg: EncoderConfig) -> dict:
    """Every backbone weight's shape, by name in declaration order."""
    d, ld = cfg.d_model, cfg.n_feature_tokens * cfg.d_model
    dims = {"d": d, "h": MLP_RATIO * d}
    block = {name: tuple(dims[s] for s in symbols) for name, symbols in _BLOCK_WEIGHTS.items()}
    shapes = {"embed_w": (cfg.input_dim, ld), "embed_b": (ld,), "cls": (d,)}
    for i in range(cfg.n_blocks):
        shapes.update({f"b{i}.{name}": shape for name, shape in block.items()})
    shapes.update(ln_f_g=(d,), ln_f_b=(d,))
    return shapes


@dataclass
class FrozenBackbone:
    """All non-trainable encoder weights, in a fixed declaration order."""

    config: EncoderConfig
    weights: dict = field(default_factory=dict)

    @classmethod
    def init(cls, cfg: EncoderConfig, rng: np.random.Generator) -> "FrozenBackbone":
        """Draw the weights in declaration order: every matrix from a normal
        scaled by its fan-in, ``cls`` at scale 0.5, layer-norm gains at one
        and biases at zero."""
        w = {}
        for name, shape in backbone_shapes(cfg).items():
            if len(shape) == 2:
                w[name] = rng.normal(0, 1.0 / np.sqrt(shape[0]), shape)
            elif name == "cls":
                w[name] = rng.normal(0, 0.5, shape)
            else:
                w[name] = np.ones(shape) if name.endswith("_g") else np.zeros(shape)
        return cls(cfg, w)

    def freeze(self):
        """Make every weight array read-only: the caches of test features and
        queries, and every probe, read the backbone as fixed once pretrained.
        ``Engine`` calls it on the backbone it is built with."""
        for w in self.weights.values():
            w.flags.writeable = False


@dataclass
class PromptSet:
    """A learnable prompt tensor plus its retrieval key, and the frozen
    transfer rows that join its prompt in every prefix: copies of the
    prompts of sets ``sources``, concatenated per prompted block (zero rows
    until transfer attaches some)."""

    p: np.ndarray  # [n_prompted, prompt_len, d]
    k: np.ndarray  # [d]
    id: int = -1
    extra: np.ndarray | None = None  # [n_prompted, m, d], m >= 0
    sources: list = field(default_factory=list)  # set ids

    def __post_init__(self):
        if self.extra is None:
            self.extra = np.zeros((self.p.shape[0], 0, self.p.shape[2]))

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


def class_mask_bias(n_classes: int, allowed) -> np.ndarray:
    """Additive logit bias: 0 for allowed classes, a large negative elsewhere."""
    bias = np.full(n_classes, MASK_BIAS)
    bias[np.asarray(list(allowed), dtype=int)] = 0.0
    return bias


def _block_weights(weights: dict, i: int) -> tuple:
    """Block ``i``'s weights, in ``_BLOCK_WEIGHTS`` order."""
    return tuple(weights[f"b{i}.{name}"] for name in _BLOCK_WEIGHTS)


def _rows(arr: np.ndarray) -> np.ndarray:
    return arr.reshape(-1, arr.shape[-1])


def _attention_block(
    x: np.ndarray,
    w: tuple,
    n_heads: int,
    prompt: np.ndarray | None = None,
    n_out: int | None = None,
    keep: bool = False,
):
    """Forward of one pre-norm block over the data tokens ``x`` [n, t, d].

    ``w`` holds the block's weights in ``_BLOCK_WEIGHTS`` order. A ``prompt``
    [P, d] is a prefix: its LN1 keys and values, computed once for the whole
    batch, join the data tokens' keys and values, so every query also
    attends to the prompt rows. Nothing is computed at prompt positions
    beyond that. With ``n_out`` set, keys and values still come from every
    token, but the queries, attention, residual and MLP run for the first
    ``n_out`` tokens only, and the output is [n, n_out, d].

    Returns (out, backward); ``backward`` is None unless ``keep``.
    ``backward(g, need_x, need_weights)`` takes the output gradient and
    returns (input gradient, prompt gradient, {weight name: gradient}): the
    input gradient is None unless ``need_x`` or ``need_weights``, the prompt
    gradient None without a prompt and else [P, d], summed over every sample,
    and the dict empty unless ``need_weights``. Weight gradients are wanted
    only while the backbone is pretrained, which runs without prompts, so a
    prompted block gives none and keeps nothing only they read.
    """
    g1, c_ln1, wq, wk, wv, wo, g2, c_ln2, w1, c1, w2, c2 = w
    n, t, d = x.shape
    to = t if n_out is None else n_out
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)

    # Only weight gradients read h, o, h2 and a: any pass that cannot give
    # them drops each as soon as it is used. That is measured to pay on a
    # 2-CPU host: without the early release a 32-row step ran 5-10 % slower
    # (minimum 1.46-2.47 ms against 1.32-1.52 ms, 8 processes per side), and
    # without it and the in-place sums below, steps and forward passes ran
    # 6-19 % slower and the benchmark's peak_rss_mb rose 0.3 MB on every
    # workload.
    drop = not keep or prompt is not None

    h, xhat1, inv1 = layer_norm_forward(x, g1, c_ln1)
    hq = h[:, :to]
    q = (hq @ wq).reshape(n, to, n_heads, dh).transpose((0, 2, 1, 3))  # [n, H, to, dh]
    k = (h @ wk).reshape(n, t, n_heads, dh).transpose((0, 2, 3, 1))  # [n, H, dh, t]
    v = (h @ wv).reshape(n, t, n_heads, dh).transpose((0, 2, 1, 3))  # [n, H, t, dh]
    if drop:
        h = hq = None
    scores = q @ k
    if prompt is not None:
        n_p = prompt.shape[0]
        hp, xhatp, invp = layer_norm_forward(prompt, g1, c_ln1)
        kp = (hp @ wk).reshape(n_p, n_heads, dh).transpose((1, 2, 0))  # [H, dh, P]
        vp = (hp @ wv).reshape(n_p, n_heads, dh).transpose((1, 0, 2))  # [H, P, dh]
        scores = np.concatenate([scores, q @ kp], axis=-1)
    # the updates below run in place, in the order of the plain expressions
    scores *= scale
    attn = softmax_forward(scores, out=scores)
    if prompt is None:
        o = attn @ v
    else:
        o = attn[..., :t] @ v  # attn[..., :t] @ v + attn[..., t:] @ vp
        o += attn[..., t:] @ vp
    o = o.transpose((0, 2, 1, 3)).reshape(n, to, d)
    x1 = o @ wo  # x + o @ wo
    x1 += x[:, :to]
    if drop:
        o = None
    h2, xhat2, inv2 = layer_norm_forward(x1, g2, c_ln2)
    z = h2 @ w1  # h2 @ w1 + c1
    z += c1
    if drop:
        h2 = None
    a, z2, tz = gelu_forward(z)
    out = a @ w2  # x1 + (a @ w2 + c2)
    out += c2
    out += x1
    if not keep:
        return out, None
    del x1
    if drop:
        a = None
    dz = gelu_derivative(z, z2, tz)

    def backward(g, need_x, need_weights):
        grads = {}
        # MLP and its residual: out = x1 + gelu(LN2(x1) @ w1 + c1) @ w2 + c2
        gz = g @ w2.T
        gz *= dz
        gh2 = gz @ w1.T
        gx1 = layer_norm_backward(gh2, xhat2, inv2, g2)
        gx1 += g
        if need_weights:
            # one [rows, a]^T @ [rows, b] product over every token row
            grads["mlp_w2"] = _rows(a).T @ _rows(g)
            grads["mlp_b2"] = _rows(g).sum(axis=0)
            grads["mlp_w1"] = _rows(h2).T @ _rows(gz)
            grads["mlp_b1"] = _rows(gz).sum(axis=0)
            grads["ln2_g"], grads["ln2_b"] = layer_norm_param_grads(gh2, xhat2)
            grads["wo"] = _rows(o).T @ _rows(gx1)
        del gz, gh2

        go = (gx1 @ wo.T).reshape(n, to, n_heads, dh).transpose((0, 2, 1, 3))  # [n, H, to, dh]
        ga = go @ v.transpose((0, 1, 3, 2))
        if prompt is not None:
            ga = np.concatenate([ga, go @ vp.transpose((0, 2, 1))], axis=-1)
        gs = softmax_backward(ga, attn, out=ga)  # [n, H, to, t + P]
        gs *= scale

        gx = None
        if need_x or need_weights:
            gq = gs[..., :t] @ k.transpose((0, 1, 3, 2))
            if prompt is not None:
                gq += gs[..., t:] @ kp.transpose((0, 2, 1))
            gq = gq.transpose((0, 2, 1, 3)).reshape(n, to, d)
            gk = (q.transpose((0, 1, 3, 2)) @ gs[..., :t]).transpose((0, 3, 1, 2)).reshape(n, t, d)
            gv = (attn[..., :t].transpose((0, 1, 3, 2)) @ go).transpose((0, 2, 1, 3)).reshape(n, t, d)
            gh = gk @ wk.T  # gk @ wk.T + gv @ wv.T
            gh += gv @ wv.T
            gh[:, :to] += gq @ wq.T
            if need_weights:
                grads["wq"] = _rows(hq).T @ _rows(gq)
                grads["wk"] = _rows(h).T @ _rows(gk)
                grads["wv"] = _rows(h).T @ _rows(gv)
                grads["ln1_g"], grads["ln1_b"] = layer_norm_param_grads(gh, xhat1)
            del gq, gk, gv
            gx = layer_norm_backward(gh, xhat1, inv1, g1)
            del gh
            gx[:, :to] += gx1
        del gx1

        gp = None
        if prompt is not None:
            # Prompt keys and values are shared by every sample: sum over all
            # (sample, query) rows in one product per head. ``go_rows`` stays
            # a strided view: a contiguous copy puts BLAS on another path and
            # changes the bits of every training step.
            m = n * to
            q_rows = q.transpose((1, 3, 0, 2)).reshape(n_heads, dh, m)
            gs_p = gs[..., t:].transpose((1, 0, 2, 3)).reshape(n_heads, m, n_p)
            a_p = attn[..., t:].transpose((1, 3, 0, 2)).reshape(n_heads, n_p, m)
            go_rows = go.transpose((1, 0, 2, 3)).reshape(n_heads, m, dh)
            gkp = (q_rows @ gs_p).transpose((2, 0, 1)).reshape(n_p, d)
            gvp = (a_p @ go_rows).transpose((1, 0, 2)).reshape(n_p, d)
            gp = layer_norm_backward(gkp @ wk.T + gvp @ wv.T, xhatp, invp, g1)
        return gx, gp, grads

    return out, backward


def _encode_rows(
    backbone: FrozenBackbone, batch: np.ndarray, prompts: dict, cls_out: dict, keep: bool
):
    """One pass over every row of ``batch``: returns (features [n, d],
    backward or None); block ``b``'s class-token output is written into
    ``cls_out[b]`` for each block it names. ``backward`` is built only when
    ``keep``; see ``encode``."""
    cfg = backbone.config
    n, d = batch.shape[0], cfg.d_model
    w = backbone.weights
    tok = np.empty((n, cfg.n_feature_tokens + 1, d))
    tok[:, 0] = w["cls"]
    # numpy computes a one-row product with gemv, which rounds differently
    # from gemm: a lone row is embedded as two copies, so a row's features
    # never depend on the rows that share its pass
    rows = batch if n > 1 else np.repeat(batch, 2, axis=0)
    tok[:, 1:] = ((rows @ w["embed_w"])[:n] + w["embed_b"]).reshape(n, cfg.n_feature_tokens, d)
    # No prompt gradient flows below the lowest prompted block, so a
    # prompted pass keeps no backward there; a promptless one (pretraining,
    # whose weights train) keeps every block.
    lowest = min(prompts, default=0)
    blocks = []
    for i in range(cfg.n_blocks):
        # Only the class token is read after the last block.
        n_out = 1 if i == cfg.n_blocks - 1 else None
        tok, block_backward = _attention_block(
            tok, _block_weights(w, i), cfg.n_heads, prompts.get(i), n_out, keep=keep and i >= lowest
        )
        blocks.append(block_backward)
        if i in cls_out:
            cls_out[i][...] = tok[:, 0]
    out, xhat, inv = layer_norm_forward(tok, w["ln_f_g"], w["ln_f_b"])
    feats = out[:, 0]
    if not keep:
        return feats, None

    def backward(g_feats, weight_grads=False):
        grads = {}
        g = g_feats[:, None]
        if weight_grads:
            grads["ln_f_g"], grads["ln_f_b"] = layer_norm_param_grads(g, xhat)
        g = layer_norm_backward(g, xhat, inv, w["ln_f_g"])
        prompt_grads = {}
        for i in range(cfg.n_blocks - 1, lowest - 1, -1):
            # each block's intermediates are released once it has run
            g, gp, block_grads = blocks.pop()(g, i > lowest, weight_grads)
            if gp is not None:
                prompt_grads[i] = gp
            grads.update((f"b{i}.{name}", grad) for name, grad in block_grads.items())
        if weight_grads:
            grads["cls"] = g[:, 0].sum(axis=0)
            g_embed = g[:, 1:].reshape(n, -1)
            grads["embed_w"] = batch.T @ g_embed
            grads["embed_b"] = g_embed.sum(axis=0)
        return prompt_grads, grads

    return feats, backward


def encode(
    backbone: FrozenBackbone,
    batch: np.ndarray,
    prompts: dict | None = None,
    collect_layers: bool = False,
    return_backward: bool = False,
):
    """Run the encoder over ``batch`` [n, input_dim], n >= 1 (the config
    takes ``input_dim`` from the stream's ``dim``); returns (features [n, d],
    layer_reps), and a third item, ``backward``, when ``return_backward``.

    ``prompts`` maps prompted block index -> [P, d] prefix rows that every
    sample's tokens attend to in that block (a set's prompt, then its frozen
    rows; see ``prefixes``).
    ``layer_reps`` (empty unless ``collect_layers``) is a ``segment_map``: the
    class-token output of each prompted block, then the final feature under
    ``key`` (copies), each [n, d].
    ``backward(g_feats, weight_grads=False)`` takes the features' gradient
    and returns ({block: prompt gradient [P, d] summed over every row},
    {weight name: gradient}); the weight gradients (pretraining, without
    prompts) are filled only when ``weight_grads``.

    The rows run in blocks into preallocated outputs: ``ROW_BLOCK`` at a
    time, or all ``n`` at once when ``return_backward``. Every row's
    arithmetic is the same in any block.
    """
    batch = np.asarray(batch, dtype=np.float64)
    cfg = backbone.config
    n, d = batch.shape[0], cfg.d_model
    prompts = prompts or {}
    cls_out = {b: np.empty((n, d)) for b in cfg.prompted_blocks} if collect_layers else {}
    feats = np.empty((n, d))
    step = n if return_backward else ROW_BLOCK
    for lo in range(0, n, step):
        rows = slice(lo, lo + step)
        block_out = {b: out[rows] for b, out in cls_out.items()}
        feats[rows], backward = _encode_rows(backbone, batch[rows], prompts, block_out, keep=return_backward)
    reps = {}
    if collect_layers:
        reps = segment_map(cfg, [cls_out[b] for b in cfg.prompted_blocks], feats.copy())
    if return_backward:
        return feats, reps, backward
    return feats, reps


def prefixes(cfg: EncoderConfig, pset: PromptSet) -> dict:
    """Prefix rows per prompted block: the set's prompt, then its frozen rows."""
    return {b: np.concatenate([pset.p[j], pset.extra[j]]) if pset.extra.shape[1] else pset.p[j]
            for j, b in enumerate(cfg.prompted_blocks)}


def prompted_features(backbone: FrozenBackbone, pset: PromptSet, batch: np.ndarray) -> np.ndarray:
    """Features [n, d] of ``batch`` under ``pset``'s prompt and frozen rows."""
    feats, _ = encode(backbone, batch, prefixes(backbone.config, pset))
    return feats


def forward_prompted(
    backbone: FrozenBackbone, head: Head, pset: PromptSet, batch: np.ndarray, head_mask
) -> np.ndarray:
    """Logits [n, n_classes] with classes outside ``head_mask`` pushed to -inf."""
    feats = prompted_features(backbone, pset, batch)
    return feats @ head.w + head.b + class_mask_bias(head.n_classes, head_mask)


def forward_query(backbone: FrozenBackbone, batch: np.ndarray) -> np.ndarray:
    """Promptless features, one row per sample (the retrieval query)."""
    feats, _ = encode(backbone, batch)
    return feats


def query_with_layers(backbone: FrozenBackbone, batch: np.ndarray):
    """Promptless pass, returning (features, per-block class-token reps)."""
    return encode(backbone, batch, collect_layers=True)


def prompted_with_layers(backbone: FrozenBackbone, pset: PromptSet, batch: np.ndarray):
    """Pass under ``pset``, returning (features, per-block class-token reps)."""
    return encode(backbone, batch, prefixes(backbone.config, pset), collect_layers=True)


def _key_loss(k: np.ndarray, q_bar: np.ndarray, weight: float):
    """The cosine pull of the retrieval key toward the batch's mean query,
    ``weight * (1 - cos(k, q_bar))``, and its gradient in ``k``:
    ``-weight * (q_bar / (|k| |q|) - (k . q_bar) k / (|k|^3 |q|))``.

    The terms are formed in the order of the composed form
    ``1 - (k . q) / (sqrt(k . k) |q|)`` differentiated node by node, with
    ufunc powers, so both agree bit for bit.
    """
    qn = float(np.linalg.norm(q_bar))
    dot = (k * q_bar).sum()
    sq = (k * k).sum()
    kq = np.sqrt(sq) * qn
    r = 1.0 / kq
    loss = (1.0 - dot * r) * weight
    g_sq = weight * dot * np.power(kq, -2.0) * qn * 0.5 * np.power(sq, -0.5)
    grad = (-weight * r) * q_bar
    grad += g_sq * k
    grad += g_sq * k
    return loss, grad


def _prompt_gradient(cfg: EncoderConfig, prompt_grads: dict, k_grad: np.ndarray) -> GradientVector:
    """The set's own prompt rows of each block's prefix gradient, then
    ``k_grad``; raises ``NonFiniteError`` unless every entry is finite."""
    own = [prompt_grads[b][: cfg.prompt_len].ravel() for b in cfg.prompted_blocks]
    flat = np.concatenate([*own, k_grad])
    if not np.all(np.isfinite(flat)):
        raise NonFiniteError("non-finite gradient")
    return GradientVector(flat, cfg)


def loss_and_grads(
    backbone: FrozenBackbone,
    head: Head,
    pset: PromptSet,
    batch: np.ndarray,
    labels: np.ndarray,
    head_mask,
    q_bar: np.ndarray | None = None,
):
    """One forward/backward: cross-entropy (+ key pull when ``q_bar`` given).

    Returns (loss value, GradientVector over the set's p and k, head weight
    grad, head bias grad). The set's frozen rows join the forward pass but
    receive no gradient. Without ``q_bar`` the key segment is zero. The mask
    bias gives the classes outside ``head_mask`` exactly zero probability,
    so their head gradients are zero. ``labels`` holds one class of
    ``head_mask`` per row of ``batch``. Raises ``NonFiniteError`` when the
    loss or the gradient is not finite.
    """
    cfg = backbone.config
    labels = np.asarray(labels, dtype=int)
    feats, _, backward = encode(backbone, batch, prefixes(cfg, pset), return_backward=True)
    bias = class_mask_bias(head.n_classes, head_mask)
    loss, logp = cross_entropy_forward(feats @ head.w + head.b + bias, labels)
    k_grad = np.zeros_like(pset.k)
    if q_bar is not None:
        key_loss, k_grad = _key_loss(pset.k, q_bar, KEY_LOSS_WEIGHT)
        loss = loss + key_loss
    if not np.isfinite(loss):
        raise NonFiniteError("non-finite loss")
    g = cross_entropy_backward(logp, labels)
    prompt_grads, _ = backward(g @ head.w.T)
    # under MASK_BIAS a class outside head_mask has probability exactly 0,
    # so its logit gradient is 0 and its head-gradient column +-0
    return float(loss), _prompt_gradient(cfg, prompt_grads, k_grad), feats.T @ g, g.sum(axis=0)


def probe_grad(
    backbone: FrozenBackbone, head: Head, pset: PromptSet, batches: list, head_mask
) -> GradientVector:
    """The cross-entropy gradient over the set's p and k of the mean over
    ``batches`` [(x, labels), ...] of each batch's mean loss; the key
    segment is zero. That is one loss over all their rows, each row's
    cross-entropy divided by B x (its batch's rows) for B batches, so a
    short last batch's rows weigh more. Its gradient is summed over passes
    of ``ROW_BLOCK`` rows, each one cross-entropy and one backward. Raises
    ``NonFiniteError`` when a pass's loss or the gradient is not finite.
    """
    cfg = backbone.config
    x = np.concatenate([xb for xb, _ in batches])
    labels = np.concatenate([np.asarray(y, dtype=int) for _, y in batches])
    denom = np.concatenate([np.full(len(y), float(len(batches) * len(y))) for _, y in batches])
    bias = class_mask_bias(head.n_classes, head_mask)
    summed = None
    for lo in range(0, len(x), ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        feats, _, backward = encode(backbone, x[rows], prefixes(cfg, pset), return_backward=True)
        loss, logp = cross_entropy_forward(feats @ head.w + head.b + bias, labels[rows])
        if not np.isfinite(loss):
            raise NonFiniteError("non-finite loss")
        g = cross_entropy_backward(logp, labels[rows], denom[rows])
        prompt_grads, _ = backward(g @ head.w.T)
        summed = prompt_grads if summed is None else {b: summed[b] + gp for b, gp in prompt_grads.items()}
    return _prompt_gradient(cfg, summed, np.zeros_like(pset.k))


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
    subspaces are more than random directions. Updates ``backbone.weights``
    in place by plain gradient steps; the throwaway head is discarded.
    Raises ``NonFiniteError`` naming the step whose loss is not finite.
    """
    labels = np.asarray(labels, dtype=int)
    n_classes = int(labels.max()) + 1
    weights = backbone.weights
    hw = rng.normal(0, 0.1, (backbone.config.d_model, n_classes))
    hb = np.zeros(n_classes)
    n = len(data)
    for step in range(steps):
        idx = rng.integers(0, n, size=min(batch_size, n))
        feats, _, backward = encode(backbone, data[idx], return_backward=True)
        loss, logp = cross_entropy_forward(feats @ hw + hb, labels[idx])
        if not np.isfinite(loss):
            raise NonFiniteError(f"step {step}: non-finite loss")
        g_logits = cross_entropy_backward(logp, labels[idx])
        _, grads = backward(g_logits @ hw.T, weight_grads=True)
        for name, grad in grads.items():
            weights[name] -= lr * grad
        hw -= lr * (feats.T @ g_logits)
        hb -= lr * g_logits.sum(axis=0)

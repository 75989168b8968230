"""Experiment configuration: flat key=value sections parsed into dataclasses.

Three sections, all optional keys falling back to dataclass defaults:

    [stream]   task stream shape (n_tasks, classes_per_task, dim,
               similarity, samples_per_class, seed, noise_scale, mean_scale)
    [encoder]  frozen encoder shape (d_model, n_blocks, n_heads, prompt_len,
               prompted_blocks, n_feature_tokens); its input_dim is the
               stream's dim, and an input_dim key may only restate it; its
               weights draw from the [train] seed
    [train]    eps_task, eps_pre, phi, n_fft, epochs, batch_size, lr, seed,
               mode, probe_samples, space_samples, pretrain_steps

Unknown keys or sections are rejected so typos fail loudly. The
``similarity`` key fills the ``similarity_schedule`` field, and only that
spelling is a key. Config files are read as UTF-8.
"""

from __future__ import annotations

import configparser
from dataclasses import fields

from growcl.encoder import EncoderConfig
from growcl.stream import StreamSpec
from growcl.trainer import TrainConfig


class ConfigError(ValueError):
    pass


_SECTIONS = {"stream": StreamSpec, "encoder": EncoderConfig, "train": TrainConfig}
_TUPLE_KEYS = {"similarity_schedule", "prompted_blocks"}
_RENAMED_KEYS = {"stream": {"similarity": "similarity_schedule"}}  # config key -> field


def _coerce(value: str, target_type, key: str):
    if key in _TUPLE_KEYS:
        parts = [p.strip() for p in value.split(",") if p.strip()]
        caster = int if key == "prompted_blocks" else float
        return tuple(caster(p) for p in parts)
    if target_type is int:
        return int(value)
    if target_type is float:
        return float(value)
    return value.strip()


def parse_config(text: str):
    """Parse config text into (StreamSpec, EncoderConfig, TrainConfig)."""
    # no interpolation: a '%' in a value is just a character
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    unknown = set(parser.sections()) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    built = {}
    for section, cls in _SECTIONS.items():
        kwargs = {}
        by_key = {f.name: f for f in fields(cls)}
        for key, name in _RENAMED_KEYS.get(section, {}).items():
            by_key[key] = by_key.pop(name)
        if parser.has_section(section):
            for key, value in parser.items(section):
                if key not in by_key:
                    raise ConfigError(f"invalid [{section}] config: unknown key {key!r}")
                field = by_key[key]
                try:
                    kwargs[field.name] = _coerce(value, type(field.default), field.name)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
        if section == "encoder":
            dim = built["stream"].dim
            if kwargs.setdefault("input_dim", dim) != dim:
                raise ConfigError(f"invalid [encoder] config: input_dim {kwargs['input_dim']} "
                                  f"differs from [stream] dim {dim}")
        try:
            built[section] = cls(**kwargs)
        except ValueError as exc:
            raise ConfigError(f"invalid [{section}] config: {exc}") from exc
    return built["stream"], built["encoder"], built["train"]


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return text, parse_config(text)

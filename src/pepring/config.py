"""Flat key-value run configuration.

Grammar, one setting per line::

    key = value        # trailing comments allowed
    # full-line comment

Keys are lower_snake_case from the schema below; values are integers,
floats or bare strings depending on the key. Blank lines are skipped.
Unknown keys are errors: silently ignored settings hide typos. The same
schema backs the command line's ``--set key=value`` overrides, and every
run echoes its fully resolved configuration, so an output directory
always records exactly what produced it.

Most keys are fields of the settings dataclasses (`DenoiserConfig`,
`TrainConfig`, `LinkLengths`, `GuidanceConfig`), and each such key's
type and default are its field's.
"""

from __future__ import annotations

from dataclasses import fields

from .constraints import LinkLengths
from .denoiser import DenoiserConfig
from .diffusion import DiffusionSchedule, GuidanceConfig, TrainConfig

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Unknown key, unparsable value, or malformed config line."""


# A field's key is its name but for these.
_RENAMED = {
    (GuidanceConfig, "mode"): "guidance_mode",
    (GuidanceConfig, "weight"): "guidance_weight",
    **{(LinkLengths, f.name): f"link_{f.name}" for f in fields(LinkLengths)},
}
# key -> (settings dataclass, field)
_FIELDS = {
    _RENAMED.get((cls, f.name), f.name): (cls, f)
    for cls in (DenoiserConfig, TrainConfig, LinkLengths, GuidanceConfig)
    for f in fields(cls)
}

# The keys that no field holds in the same form. embed_scale 0 means
# sqrt(latent_dim), which DenoiserConfig and checkpoints spell None. The
# linear beta ramp is the classic 1e-4..0.02 one stretched 5x: that one
# belongs to a 1000-step process, and at 200 steps it leaves
# alpha_bar(T) ~ 0.13, so sampling from a unit Gaussian would start
# visibly off the forward marginal; this one leaves alpha_bar(T) ~ 4e-5.
_UNFIELDED: dict[str, tuple[type, object]] = {
    "embed_scale": (float, 0.0),
    "beta_start": (float, 5e-4),
    "beta_end": (float, 0.1),
    "tolerance": (float, 0.5),
}

_TYPES = {"int": int, "float": float, "str": str}

# key -> (type, default)
SCHEMA: dict[str, tuple[type, object]] = {
    key: (_TYPES[f.type], f.default)
    for key, (_, f) in _FIELDS.items()
    if key not in _UNFIELDED
} | _UNFIELDED


def _parsed(text: str, where: str) -> tuple[str, object]:
    """Key and typed value of one ``key = value`` setting; `where`
    starts each error message."""
    if "=" not in text:
        raise ConfigError(f"{where}expected key = value, got {text!r}")
    key, raw = (part.strip() for part in text.split("=", 1))
    if key not in SCHEMA:
        raise ConfigError(f"{where}unknown config key {key!r}")
    kind, _ = SCHEMA[key]
    try:
        return key, kind(raw)
    except ValueError:
        raise ConfigError(f"{where}value {raw!r} for {key} is not a valid {kind.__name__}") from None


def parse_config_text(text: str) -> dict[str, object]:
    """Typed settings from config-file text; only keys present appear."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = _parsed(line, f"line {lineno}: ")
            out[key] = value
    return out


def parse_overrides(pairs) -> dict[str, object]:
    """Typed settings from command-line key=value strings."""
    return dict(_parsed(item, "--set: ") for item in pairs or ())


def resolve(*layers: dict[str, object]) -> dict[str, object]:
    """Defaults overlaid with each layer in order; later layers win.

    Every value must have its key's type, since a layer can come from a
    checkpoint file. A bool is not a number; an int can stand for a float.
    """
    merged = {key: default for key, (_, default) in SCHEMA.items()}
    for layer in layers:
        for key, value in layer.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
            kind, _ = SCHEMA[key]
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ConfigError(f"config value {value!r} for {key} is not a {kind.__name__}")
            merged[key] = value
    return merged


def format_config(cfg: dict[str, object]) -> str:
    """Canonical echo: sorted keys, one per line."""
    lines = []
    for key in sorted(cfg):
        value = cfg[key]
        if isinstance(value, float):
            lines.append(f"{key} = {value!r}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _built(make, **kwargs):
    """`make(**kwargs)`, its ValueError re-raised as a ConfigError."""
    try:
        return make(**kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def _settings(cls, cfg: dict[str, object], **given):
    """The `cls` whose fields hold their keys' values in `cfg`, but for `given`."""
    values = {f.name: cfg[key] for key, (owner, f) in _FIELDS.items() if owner is cls}
    return _built(cls, **values | given)


def denoiser_config(cfg: dict[str, object]) -> DenoiserConfig:
    return _settings(DenoiserConfig, cfg, embed_scale=cfg["embed_scale"] or None)


def train_config(cfg: dict[str, object]) -> TrainConfig:
    return _settings(TrainConfig, cfg)


def schedule(cfg: dict[str, object]) -> DiffusionSchedule:
    return _built(DiffusionSchedule.linear, t_steps=cfg["t_steps"],
                  beta_start=cfg["beta_start"], beta_end=cfg["beta_end"])


def link_lengths(cfg: dict[str, object]) -> LinkLengths:
    return _settings(LinkLengths, cfg)


def guidance_config(cfg: dict[str, object], mode=None, weight=None) -> GuidanceConfig:
    return _settings(GuidanceConfig, cfg,
                     mode=cfg["guidance_mode"] if mode is None else mode,
                     weight=cfg["guidance_weight"] if weight is None else weight)

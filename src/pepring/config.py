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
"""

from __future__ import annotations

from .constraints import LinkLengths
from .denoiser import DenoiserConfig
from .diffusion import DiffusionSchedule, GuidanceConfig, TrainConfig

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Unknown key, unparsable value, or malformed config line."""


# key -> (type, default). embed_scale 0 means sqrt(latent_dim).
SCHEMA: dict[str, tuple[type, object]] = {
    # diffusion schedule
    "t_steps": (int, 200),
    "beta_start": (float, 5e-4),
    "beta_end": (float, 0.1),
    # training
    "p_drop_type": (float, 0.2),
    "p_drop_dist": (float, 0.2),
    "learning_rate": (float, 1e-4),
    "weight_decay": (float, 0.0),
    "batch_size": (int, 16),
    "epochs": (int, 30),
    "seed": (int, 0),
    # denoiser
    "hidden": (int, 32),
    "layers": (int, 3),
    "latent_dim": (int, 8),
    "t_embed_dim": (int, 16),
    "rbf_channels": (int, 32),
    "rbf_d_min": (float, 0.0),
    "rbf_d_max": (float, 20.0),
    "coord_scale": (float, 0.1),
    "embed_scale": (float, 0.0),
    # ring-closure target lengths, Angstrom
    "link_lys_asp": (float, 5.0),
    "link_lys_glu": (float, 5.5),
    "link_head_tail": (float, 3.8),
    "link_disulfide": (float, 5.5),
    "link_bicycle_side": (float, 6.0),
    # guidance and checking
    "guidance_mode": (str, "cfg"),
    "guidance_weight": (float, 0.0),
    "energy_scale": (float, 30.0),
    "energy_grad_clip": (float, 1.0),
    "tolerance": (float, 0.5),
}


def _convert(key: str, raw: str):
    kind, _ = SCHEMA[key]
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"value {raw!r} for {key} is not a valid {kind.__name__}") from None


def parse_config_text(text: str) -> dict[str, object]:
    """Typed settings from config-file text; only keys present appear."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        out[key] = _convert(key, value)
    return out


def parse_overrides(pairs) -> dict[str, object]:
    """Typed settings from command-line key=value strings."""
    out: dict[str, object] = {}
    for item in pairs or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        out[key] = _convert(key, value)
    return out


def resolve(*layers: dict[str, object]) -> dict[str, object]:
    """Defaults overlaid with each layer in order; later layers win."""
    merged = {key: default for key, (_, default) in SCHEMA.items()}
    for layer in layers:
        for key, value in layer.items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown config key {key!r}")
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


def _built(make, *args, **kwargs):
    """`make(*args, **kwargs)`, its ValueError re-raised as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(str(err)) from None


def denoiser_config(cfg: dict[str, object]) -> DenoiserConfig:
    return _built(
        DenoiserConfig,
        latent_dim=cfg["latent_dim"],
        hidden=cfg["hidden"],
        layers=cfg["layers"],
        t_embed_dim=cfg["t_embed_dim"],
        t_steps=cfg["t_steps"],
        rbf_channels=cfg["rbf_channels"],
        rbf_d_min=cfg["rbf_d_min"],
        rbf_d_max=cfg["rbf_d_max"],
        coord_scale=cfg["coord_scale"],
        embed_scale=cfg["embed_scale"] or None,
    )


def train_config(cfg: dict[str, object]) -> TrainConfig:
    return _built(
        TrainConfig,
        p_drop_type=cfg["p_drop_type"],
        p_drop_dist=cfg["p_drop_dist"],
        learning_rate=cfg["learning_rate"],
        weight_decay=cfg["weight_decay"],
        batch_size=cfg["batch_size"],
        epochs=cfg["epochs"],
        seed=cfg["seed"],
    )


def schedule(cfg: dict[str, object]) -> DiffusionSchedule:
    return _built(DiffusionSchedule.linear, cfg["t_steps"], cfg["beta_start"], cfg["beta_end"])


def link_lengths(cfg: dict[str, object]) -> LinkLengths:
    return LinkLengths(
        lys_asp=cfg["link_lys_asp"],
        lys_glu=cfg["link_lys_glu"],
        head_tail=cfg["link_head_tail"],
        disulfide=cfg["link_disulfide"],
        bicycle_side=cfg["link_bicycle_side"],
    )


def guidance_config(cfg: dict[str, object], mode=None, weight=None) -> GuidanceConfig:
    return _built(
        GuidanceConfig,
        mode=mode if mode is not None else cfg["guidance_mode"],
        weight=weight if weight is not None else cfg["guidance_weight"],
        energy_scale=cfg["energy_scale"],
        energy_grad_clip=cfg["energy_grad_clip"],
    )

import dataclasses
import inspect

from pepring import config as CF
from pepring import constraints as C
from pepring import denoiser as D
from pepring import diffusion as DF


def _field_defaults(cls):
    return {f.name: f.default for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def test_python_defaults_equal_schema():
    """Every default written in Python repeats its SCHEMA entry; only the
    distance tolerance has no Python default."""
    defaults = _field_defaults(D.DenoiserConfig)
    if defaults["embed_scale"] is None:  # SCHEMA spells "sqrt(latent_dim)" as 0
        defaults["embed_scale"] = 0.0
    defaults.update(_field_defaults(DF.TrainConfig))
    defaults.update(
        (f"guidance_{k}" if k in ("mode", "weight") else k, v)
        for k, v in _field_defaults(DF.GuidanceConfig).items()
    )
    defaults.update((f"link_{k}", v) for k, v in _field_defaults(C.LinkLengths).items())
    linear = inspect.signature(DF.DiffusionSchedule.linear).parameters.values()
    defaults.update((p.name, p.default) for p in linear)
    schema = {key: default for key, (_, default) in CF.SCHEMA.items()}
    assert set(schema) - set(defaults) == {"tolerance"}
    assert {k: v for k, v in defaults.items() if schema[k] != v} == {}

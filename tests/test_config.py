import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepring import config as CF
from pepring import denoiser as D
from pepring import diffusion as DF

# Keys whose valid values are narrower than their type; networks stay small.
_VALUES = {
    "latent_dim": st.integers(2, 3),
    "hidden": st.integers(1, 4),
    "layers": st.integers(1, 2),
    "t_embed_dim": st.sampled_from([2, 4]),
    "t_steps": st.integers(1, 6),
    "rbf_channels": st.integers(2, 4),
    "rbf_d_min": st.floats(0.0, 5.0),
    "rbf_d_max": st.floats(6.0, 30.0),
    "embed_scale": st.one_of(st.just(0.0), st.floats(0.1, 10.0)),
    "p_drop_type": st.floats(0.0, 1.0),
    "p_drop_dist": st.floats(0.0, 1.0),
    "weight_decay": st.floats(0.0, 1.0),
    "seed": st.integers(0, 2**64 - 1),
    "beta_start": st.floats(1e-5, 0.05),
    "beta_end": st.floats(0.06, 0.5),
    "guidance_mode": st.sampled_from(DF.GUIDANCE_MODES),
    "guidance_weight": st.floats(0.0, 10.0),
    "energy_grad_clip": st.floats(0.0, 10.0),
    "tolerance": st.floats(0.0, 2.0),
}
_BY_TYPE = {int: st.integers(1, 10**6), float: st.floats(1e-6, 100.0)}

run_configs = st.fixed_dictionaries(
    {key: _VALUES.get(key, _BY_TYPE.get(kind)) for key, (kind, _) in CF.SCHEMA.items()}
)


@settings(max_examples=25, deadline=None)
@given(cfg=run_configs, seed=st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip(cfg, seed):
    """A saved checkpoint loads back to the same network and settings,
    saves again to the same bytes, and its settings pass `resolve`."""
    params = D.init_params(CF.denoiser_config(cfg), seed)
    with tempfile.TemporaryDirectory() as d:
        first, second = Path(d) / "a.json", Path(d) / "b.json"
        D.save_checkpoint(params, first, run_config=cfg)
        loaded = D.load_checkpoint(first)
        run_config = CF.resolve(D.load_run_config(first))
        D.save_checkpoint(loaded, second, run_config=run_config)
        assert first.read_bytes() == second.read_bytes()
    assert run_config == cfg
    assert loaded.config == CF.denoiser_config(run_config)
    assert loaded.arrays.keys() == params.arrays.keys()
    for name, arr in params.arrays.items():
        assert loaded.arrays[name].tobytes() == arr.tobytes()
    # every builder takes what the checkpoint gave back, and so does the
    # config-file parser once it is echoed
    for build in (CF.train_config, CF.schedule, CF.guidance_config, CF.link_lengths):
        build(run_config)
    assert CF.resolve(CF.parse_config_text(CF.format_config(run_config))) == cfg


@pytest.mark.parametrize("key, value", [("epochs", True), ("energy_scale", False),
                                        ("epochs", 2.0), ("guidance_mode", 1),
                                        ("link_head_tail", None), ("t_steps", "5")])
def test_resolve_rejects_a_value_of_another_type(key, value):
    with pytest.raises(CF.ConfigError, match=key):
        CF.resolve({key: value})


def test_resolve_takes_an_int_for_a_float():
    assert CF.resolve({"energy_scale": 30})["energy_scale"] == 30

import numpy as np
import pytest

from helpers import count_params, fd_gradient, max_rel_err, random_rotation
from pepring import constraints as C
from pepring import denoiser as D
from pepring import encoding as E
from pepring import graph as G
from pepring import tensor as T

SMALL = D.DenoiserConfig(
    latent_dim=4, hidden=8, layers=2, t_embed_dim=4, t_steps=10,
    rbf_channels=8, rbf_d_max=16.0,
)


def make_input(cfg, seed, n=8, with_context=False, with_edges=True):
    rng = np.random.default_rng(seed)
    g = G.generate_chain(n, seed=seed)
    params = D.init_params(cfg, seed=seed + 1000)
    if with_context:
        ctx_types = rng.integers(0, G.N_TYPES, size=3)
        ctx_coords = g.peptide_coords.mean(axis=0) + rng.normal(0, 6.0, size=(3, 3))
        g = G.GeometricGraph.from_parts(g.peptide_types, g.peptide_coords, ctx_types, ctx_coords)
    z = G.encode_latent(g, params.codec)
    noisy = z.replace(
        inv=z.inv + rng.normal(0, 1, z.inv.shape),
        eqv=z.eqv + rng.normal(0, 1, z.eqv.shape),
    )
    pair = C.ConstraintPair(
        C.sample_type_constraint(g, rng),
        C.sample_distance_constraint(g, rng) if with_edges else C.DistanceConstraint(),
    )
    signals = E.encode_pair(pair, n, cfg.rbf_spec())
    t = int(rng.integers(1, cfg.t_steps + 1))
    inp = D.DenoiserInput(
        latent=noisy, signals=signals, t=t,
        context_types=g.context_types if with_context else None,
        context_coords=g.context_coords if with_context else None,
    )
    return params, inp


class TestEquivariance:
    @pytest.mark.parametrize("with_context", [False, True])
    def test_rotation_reflection_translation(self, with_context):
        rng = np.random.default_rng(0)
        for trial in range(5):
            params, inp = make_input(SMALL, seed=trial, with_context=with_context)
            inv0, eqv0 = D.predict_noise(params, inp)
            for _ in range(4):
                rot = random_rotation(rng)
                # latent-frame translations only shift the centered frame
                shift = rng.uniform(-3, 3, size=3)
                z = inp.latent
                moved = G.LatentGraph(inv=z.inv, eqv=z.eqv @ rot.T + shift, center=z.center)
                ctx_coords = inp.context_coords
                if ctx_coords is not None:
                    latent_ctx = (ctx_coords - z.center) * params.config.coord_scale
                    latent_ctx = latent_ctx @ rot.T + shift
                    ctx_coords = latent_ctx / params.config.coord_scale + z.center
                inp2 = D.DenoiserInput(moved, inp.signals, inp.t, inp.context_types, ctx_coords)
                inv1, eqv1 = D.predict_noise(params, inp2)
                assert np.max(np.abs(inv1 - inv0)) < 1e-6
                assert np.max(np.abs(eqv1 - eqv0 @ rot.T)) < 1e-6


def test_permutation_equivariance():
    cfg = SMALL
    params, inp = make_input(cfg, seed=3, n=7)
    perm = np.random.default_rng(4).permutation(7)
    inv0, eqv0 = D.predict_noise(params, inp)

    z = inp.latent
    permuted_latent = G.LatentGraph(inv=z.inv[perm], eqv=z.eqv[perm], center=z.center)
    where = np.argsort(perm)  # old index -> new index
    old = inp.signals
    signals = E.ControlSignals(
        old.node_signal[perm], np.sort(where[old.edges], axis=1), old.edge_dist, old.edge_rbf,
        old.any_clamped,
    )
    inv1, eqv1 = D.predict_noise(params, D.DenoiserInput(permuted_latent, signals, inp.t))
    assert np.allclose(inv1, inv0[perm], atol=1e-9)
    assert np.allclose(eqv1, eqv0[perm], atol=1e-9)


def test_empty_constrained_subgraph_matches_unadapted_network():
    params, inp = make_input(SMALL, seed=5, with_edges=True)
    assert len(inp.signals.edges)  # the draw above must actually constrain something
    no_edges = E.ControlSignals(inp.signals.node_signal)
    zeroed = D.DenoiserParams(
        config=params.config,
        arrays={
            name: (np.zeros_like(arr) if ".adapter." in name else arr)
            for name, arr in params.arrays.items()
        },
        trainable=params.trainable,
    )
    ref_inv, ref_eqv = D.predict_noise(params, D.DenoiserInput(inp.latent, no_edges, inp.t))
    got_inv, got_eqv = D.predict_noise(zeroed, inp)
    assert np.array_equal(got_inv, ref_inv)
    assert np.array_equal(got_eqv, ref_eqv)


def test_conditioning_is_live():
    params, inp = make_input(SMALL, seed=6)
    silenced = D.DenoiserInput(inp.latent, E.unconditional(inp.latent.n_nodes), inp.t)
    inv0, eqv0 = D.predict_noise(params, inp)
    inv1, eqv1 = D.predict_noise(params, silenced)
    assert np.max(np.abs(inv1 - inv0)) > 0 or np.max(np.abs(eqv1 - eqv0)) > 0


def test_node_signal_row_changes_output():
    params, inp = make_input(SMALL, seed=7, with_edges=False)
    sig = inp.signals.node_signal.copy()
    sig[0] = 0.0
    sig[0, G.CYS] = 1.0 - inp.signals.node_signal[0, G.CYS]
    other = D.DenoiserInput(inp.latent, E.ControlSignals(sig), inp.t)
    inv0, _ = D.predict_noise(params, inp)
    inv1, _ = D.predict_noise(params, other)
    assert np.max(np.abs(inv1 - inv0)) > 0


@pytest.mark.parametrize("strategies", [
    [C.StrategySpec(C.HEAD_TO_TAIL)],
    [C.StrategySpec(C.DISULFIDE, (2, 8)), C.StrategySpec(C.HEAD_TO_TAIL)],
], ids=["one-edge", "two-edges"])
def test_distance_conditioned_prediction_on_12mer(strategies):
    cfg = D.DenoiserConfig()
    params = D.init_params(cfg, seed=0)
    g = G.generate_chain(12, seed=1)
    z = G.encode_latent(g, params.codec)
    pair = C.compose([C.decompose(s, 12) for s in strategies])
    signals = E.encode_pair(pair, 12, cfg.rbf_spec())
    assert len(signals.edges) == len(strategies)
    inp = D.DenoiserInput(latent=z, signals=signals, t=50)
    inv, eqv = D.predict_noise(params, inp)
    assert inv.shape == (12, cfg.latent_dim) and eqv.shape == (12, 3)
    assert np.all(np.isfinite(inv)) and np.all(np.isfinite(eqv))
    inv2, eqv2 = D.predict_noise(params, inp)
    assert np.array_equal(inv, inv2) and np.array_equal(eqv, eqv2)


class TestCountParams:
    def test_toy_config_hand_sum(self):
        cfg = D.DenoiserConfig(
            latent_dim=2, hidden=2, layers=1, t_embed_dim=2, t_steps=8, rbf_channels=2
        )
        params = D.init_params(cfg, seed=0)
        expected = sum(int(np.prod(s)) for _, s in D.parameter_shapes(cfg))
        assert count_params(params) == expected
        assert expected <= 500

    def test_wider_network_has_more_params(self):
        a = D.init_params(D.DenoiserConfig(hidden=8, layers=1, t_steps=4), seed=0)
        b = D.init_params(D.DenoiserConfig(hidden=16, layers=1, t_steps=4), seed=0)
        assert count_params(b) > count_params(a)

    def test_zero_layers_counts_only_tables(self):
        cfg = D.DenoiserConfig(latent_dim=8, hidden=32, layers=0, t_embed_dim=4, t_steps=6)
        params = D.init_params(cfg, seed=0)
        assert count_params(params) == G.N_TYPES * 8 + 6 * 4


def test_zero_layer_network_predicts_zero():
    cfg = D.DenoiserConfig(latent_dim=4, hidden=8, layers=0, t_embed_dim=4, t_steps=6)
    params, inp = make_input(cfg, seed=8)
    inv, eqv = D.predict_noise(params, inp)
    assert not inv.any() and not eqv.any()


def test_input_validation():
    params, inp = make_input(SMALL, seed=9)
    with pytest.raises(ValueError):
        D.predict_noise(params, D.DenoiserInput(inp.latent, inp.signals, t=0))
    bad = E.unconditional(inp.latent.n_nodes + 1)
    with pytest.raises(T.ShapeError):
        D.predict_noise(params, D.DenoiserInput(inp.latent, bad, inp.t))


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params, _ = make_input(SMALL, seed=10)
    path = tmp_path / "model.json"
    D.save_checkpoint(params, path)
    loaded = D.load_checkpoint(path)
    assert loaded.config == params.config
    assert loaded.trainable == params.trainable
    assert set(loaded.arrays) == set(params.arrays)
    for name in params.arrays:
        assert np.array_equal(loaded.arrays[name], params.arrays[name])
    path2 = tmp_path / "again.json"
    D.save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(D.CheckpointError):
        D.load_checkpoint(path)


def test_parameter_gradient_matches_finite_differences():
    cfg = D.DenoiserConfig(
        latent_dim=2, hidden=2, layers=1, t_embed_dim=2, t_steps=5, rbf_channels=2,
        rbf_d_max=16.0,
    )
    params, inp = make_input(cfg, seed=11, n=5)
    rng = np.random.default_rng(12)
    target_inv = rng.normal(size=inp.latent.inv.shape)
    target_eqv = rng.normal(size=inp.latent.eqv.shape)

    def loss_given(arrays):
        tape = T.Tape()
        vars_ = {name: tape.leaf(arr) for name, arr in arrays.items()}
        inv = tape.constant(inp.latent.inv)
        eqv = tape.constant(inp.latent.eqv)
        out_inv, out_eqv = D.trace_noise_prediction(
            tape, vars_.__getitem__, cfg, inv, eqv, inp
        )
        di = T.sub(out_inv, tape.constant(target_inv))
        de = T.sub(out_eqv, tape.constant(target_eqv))
        loss = T.add(T.reduce_sum(T.mul(di, di)), T.reduce_sum(T.mul(de, de)))
        return tape, vars_, loss

    tape, vars_, loss = loss_given(params.arrays)
    adjoints = T.backward(tape, loss)
    for name in ["input.w", "layers.0.adapter.msg.w0", "layers.0.main.coord.gain", "out_inv.b"]:
        analytic = T.gradient(adjoints, vars_[name])

        def f(x, name=name):
            arrays = dict(params.arrays)
            arrays[name] = x
            _, _, value = loss_given(arrays)
            return float(value.value)

        numeric = fd_gradient(f, params.arrays[name].copy())
        assert max_rel_err(analytic, numeric) < 1e-4


@pytest.mark.parametrize("cfg", [SMALL, D.DenoiserConfig()], ids=["small", "default"])
def test_union_matches_each_graph_alone(cfg):
    params, constrained = make_input(cfg, seed=21, n=12)
    _, free = make_input(cfg, seed=22, n=8, with_edges=False)
    _, with_ctx = make_input(cfg, seed=23, n=10, with_context=True)
    assert len(constrained.signals.edges) and not len(free.signals.edges)
    assert with_ctx.n_context == 3
    inputs = [constrained, free, with_ctx]
    batch = D.DenoiserBatch(inputs)
    assert len(batch.signals.edges) == len(constrained.signals.edges) + len(with_ctx.signals.edges)
    union_inv, union_eqv = D.predict_noise(params, batch)
    for inp, lo, hi in zip(inputs, batch.offsets, batch.offsets[1:]):
        alone_inv, alone_eqv = D.predict_noise(params, inp)
        assert np.abs(union_inv[lo:hi] - alone_inv).max() < 1e-12
        assert np.abs(union_eqv[lo:hi] - alone_eqv).max() < 1e-12

import numpy as np
import pytest

from helpers import energy_of, fd_gradient, max_rel_err, random_rotation
from pepring import config as CF
from pepring import constraints as C
from pepring import denoiser as D
from pepring import diffusion as DF
from pepring import graph as G
from pepring import tensor as T

TOY_NET = D.DenoiserConfig(
    latent_dim=4, hidden=8, layers=2, t_embed_dim=4, t_steps=20,
    rbf_channels=8, rbf_d_max=16.0,
)


def toy_schedule():
    return DF.DiffusionSchedule.linear(t_steps=20, beta_start=1e-3, beta_end=0.05)


class TestSchedule:
    def test_linear_defaults(self):
        s = CF.schedule(CF.resolve())
        assert s.t_steps == 200
        assert s.beta(1) == pytest.approx(5e-4)
        assert s.beta(200) == pytest.approx(0.1)
        assert np.all(np.diff(s.betas) > 0)
        assert np.all(np.diff(s.alpha_bars) < 0)
        assert 0 < s.alpha_bar(200) < s.alpha_bar(1) < 1
        assert s.alpha_bar(0) == 1.0
        # terminal signal must be negligible or the prior draw is biased
        assert s.alpha_bar(200) < 1e-3

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            DF.DiffusionSchedule(np.array([0.02, 0.01]))
        with pytest.raises(ValueError):
            DF.DiffusionSchedule(np.array([0.0, 0.1]))
        with pytest.raises(ValueError):
            DF.DiffusionSchedule(np.array([]))


class TestForwardNoise:
    def setup_method(self):
        self.codec = G.CodecParams(G.init_embedding_table(4), coord_scale=0.1)
        self.z0 = G.encode_latent(G.generate_chain(10, seed=1), self.codec)

    def test_small_t_stays_near_data(self):
        schedule = toy_schedule()
        rng = np.random.default_rng(0)
        z1, _ = DF.forward_noise(self.z0, 1, schedule, rng)
        spread = np.sqrt(1.0 - schedule.alpha_bar(1))
        assert np.max(np.abs(z1.inv - self.z0.inv)) < 4.0 * spread

    def test_noise_recombines_exactly(self):
        schedule = toy_schedule()
        for t in (1, 7, 20):
            z_t, (ei, ee) = DF.forward_noise(self.z0, t, schedule, np.random.default_rng(t))
            a = schedule.alpha_bar(t)
            assert np.allclose(z_t.inv, np.sqrt(a) * self.z0.inv + np.sqrt(1 - a) * ei, atol=0)
            assert np.allclose(z_t.eqv, np.sqrt(a) * self.z0.eqv + np.sqrt(1 - a) * ee, atol=0)

    def test_perfect_denoising_recovers_data(self):
        schedule = toy_schedule()
        for t in (3, 12, 20):
            z_t, (ei, ee) = DF.forward_noise(self.z0, t, schedule, np.random.default_rng(t))
            a = schedule.alpha_bar(t)
            rec_inv = (z_t.inv - np.sqrt(1 - a) * ei) / np.sqrt(a)
            rec_eqv = (z_t.eqv - np.sqrt(1 - a) * ee) / np.sqrt(a)
            assert np.max(np.abs(rec_inv - self.z0.inv)) < 1e-9
            assert np.max(np.abs(rec_eqv - self.z0.eqv)) < 1e-9

    def test_monte_carlo_variance(self):
        schedule = toy_schedule()
        rng = np.random.default_rng(5)
        t = 12
        a = schedule.alpha_bar(t)
        sigma0 = 0.7
        n = 10
        draws_inv, draws_eqv = [], []
        for _ in range(10_000):
            inv0 = sigma0 * rng.standard_normal((n, 4))
            eqv0 = sigma0 * rng.standard_normal((n, 3))
            eqv0 -= eqv0.mean(axis=0)
            z_t, _ = DF.forward_noise(G.LatentGraph(inv0, eqv0), t, schedule, rng)
            draws_inv.append(z_t.inv)
            draws_eqv.append(z_t.eqv)
        var_inv = float(np.var(np.stack(draws_inv)))
        expected_inv = (1 - a) + a * sigma0 ** 2
        assert abs(var_inv - expected_inv) / expected_inv < 0.05
        # both the data and the noise are centered over the n nodes
        var_eqv = float(np.var(np.stack(draws_eqv)))
        expected_eqv = ((1 - a) + a * sigma0 ** 2) * (1 - 1 / n)
        assert abs(var_eqv - expected_eqv) / expected_eqv < 0.05

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            DF.forward_noise(self.z0, 0, toy_schedule(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            DF.forward_noise(self.z0, 21, toy_schedule(), np.random.default_rng(0))


class TestCfgCombine:
    def test_w_zero_is_conditional(self):
        rng = np.random.default_rng(2)
        c, u = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        assert np.array_equal(DF.cfg_combine(c, u, 0.0), c)

    def test_equal_inputs_cancel(self):
        c = np.random.default_rng(3).normal(size=(4, 2))
        for w in (0.0, 1.0, 5.0, 10.0):
            assert np.allclose(DF.cfg_combine(c, c, w), c, atol=1e-12)

    def test_unit_example(self):
        out = DF.cfg_combine(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0)
        assert np.array_equal(out, np.array([2.0, -1.0]))

    def test_matches_independent_recompute(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = rng.normal(size=7), rng.normal(size=7)
            w = float(rng.uniform(0, 10))
            direct = np.array([(w + 1.0) * x - w * y for x, y in zip(a, b)])
            assert np.max(np.abs(DF.cfg_combine(a, b, w) - direct)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(Exception, match="cfg_combine"):
            DF.cfg_combine(np.zeros(3), np.zeros(4), 1.0)


class TestEnergy:
    def disulfide_graph(self, gap=0.0):
        types = [0, G.CYS, 0, 0, G.CYS, 0]
        coords = np.array(
            [[-3, 0, 0], [0, 0, 0], [2, 3, 0], [4, 3, 0], [5.5 + gap, 0, 0], [8, -1, 0]],
            dtype=float,
        )
        g = G.GeometricGraph.from_parts(types, coords)
        pair = C.decompose(C.StrategySpec(C.DISULFIDE, (1, 4)), 6)
        return g, pair

    def test_satisfied_graph_has_zero_energy(self):
        g, pair = self.disulfide_graph()
        assert energy_of(pair, g) == 0.0

    def test_distance_violation_is_quadratic(self):
        g, pair = self.disulfide_graph(gap=0.3)
        assert energy_of(pair, g) == pytest.approx(0.3 ** 2, rel=1e-12)
        # the traced energy the sampler differentiates carries the distance term
        tape = T.Tape()
        traced = DF.trace_distance_energy(tape, tape.constant(g.peptide_coords), pair)
        assert float(traced.value) == pytest.approx(0.3 ** 2, rel=1e-9)

    def test_type_violation_counts_one(self):
        g, pair = self.disulfide_graph()
        types = g.peptide_types.copy()
        types[1] = G.LYS
        mutated = G.GeometricGraph.from_parts(types, g.peptide_coords)
        assert energy_of(pair, mutated) == pytest.approx(1.0, abs=1e-12)

    def test_coordinate_gradient_matches_finite_differences(self):
        g, pair = self.disulfide_graph(gap=0.4)
        pair = C.compose([pair, C.decompose(C.StrategySpec(C.HEAD_TO_TAIL), 6)])
        tape = T.Tape()
        coords = tape.leaf(g.peptide_coords)
        adjoints = T.backward(tape, DF.trace_distance_energy(tape, coords, pair))
        analytic = T.gradient(adjoints, coords)

        def f(x):
            return energy_of(pair, G.GeometricGraph.from_parts(g.peptide_types, x))

        numeric = fd_gradient(f, g.peptide_coords.copy())
        assert max_rel_err(analytic, numeric) < 1e-4

    def test_energy_invariant_under_rigid_motion(self):
        g, pair = self.disulfide_graph(gap=0.7)
        rng = np.random.default_rng(6)
        base = energy_of(pair, g)
        for _ in range(10):
            rot = random_rotation(rng)
            moved = G.GeometricGraph.from_parts(
                g.peptide_types, g.peptide_coords @ rot.T + rng.uniform(-9, 9, 3)
            )
            assert energy_of(pair, moved) == pytest.approx(base, rel=1e-9)

    def test_latent_energy_gradient_matches_finite_differences(self):
        params = D.init_params(TOY_NET, seed=0)
        rng = np.random.default_rng(7)
        z = G.LatentGraph(rng.normal(size=(6, 4)), rng.normal(size=(6, 3)))
        pair = C.decompose(C.StrategySpec(C.DISULFIDE, (1, 4)), 6)
        _, g_inv, g_eqv = DF.latent_energy_gradient(pair, z, params)

        def f_inv(x):
            return DF.latent_energy_gradient(pair, G.LatentGraph(x, z.eqv), params)[0]

        def f_eqv(x):
            return DF.latent_energy_gradient(pair, G.LatentGraph(z.inv, x), params)[0]

        assert max_rel_err(g_inv, fd_gradient(f_inv, z.inv.copy())) < 1e-4
        assert max_rel_err(g_eqv, fd_gradient(f_eqv, z.eqv.copy())) < 1e-4


def tiny_dataset(n_graphs=3, length=8):
    return [G.generate_chain(length, seed=s) for s in range(n_graphs)]


class TestTrain:
    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            DF.train([], DF.TrainConfig(), toy_schedule(), TOY_NET)

    def test_overfit_single_graph_loss_decreases(self):
        losses = []
        cfg = DF.TrainConfig(
            learning_rate=3e-3, batch_size=1, epochs=200, seed=5,
            p_drop_type=0.2, p_drop_dist=0.2,
        )
        DF.train(
            tiny_dataset(1), cfg, toy_schedule(), TOY_NET,
            observer=lambda info: losses.append(info["loss"]),
        )
        assert len(losses) == 200
        assert np.mean(losses[-50:]) < np.mean(losses[:50])

    def test_full_dropout_means_unconditional_every_step(self):
        seen = []
        cfg = DF.TrainConfig(p_drop_type=1.0, p_drop_dist=1.0, epochs=2, batch_size=2, seed=1)
        DF.train(
            tiny_dataset(4), cfg, toy_schedule(), TOY_NET,
            observer=lambda info: seen.append(
                (info["n_type_entries"], info["n_dist_entries"])
            ),
        )
        assert seen and all(entry == (0, 0) for entry in seen)

    def test_training_is_deterministic(self):
        cfg = DF.TrainConfig(epochs=2, batch_size=2, seed=9)
        p1, l1 = DF.train(tiny_dataset(4), cfg, toy_schedule(), TOY_NET)
        p2, l2 = DF.train(tiny_dataset(4), cfg, toy_schedule(), TOY_NET)
        assert l1 == l2
        for name in p1.arrays:
            assert np.array_equal(p1.arrays[name], p2.arrays[name])

    def test_epoch_losses_reported(self):
        cfg = DF.TrainConfig(epochs=3, batch_size=4, seed=2)
        _, losses = DF.train(tiny_dataset(4), cfg, toy_schedule(), TOY_NET)
        assert len(losses) == 3 and all(np.isfinite(v) for v in losses)


def mixed_minibatch():
    """Chains of 8..16 residues, one with 3 context nodes: more dense edge
    rows than one tape takes."""
    data = [G.generate_chain(n, seed=40 + n) for n in (16, 9, 15, 12, 8, 14, 16)]
    g = G.generate_chain(10, seed=3)
    rng = np.random.default_rng(3)
    data.append(G.GeometricGraph.from_parts(
        g.peptide_types, g.peptide_coords, rng.integers(0, G.N_TYPES, size=3),
        g.peptide_coords.mean(axis=0) + rng.normal(0, 6.0, size=(3, 3)),
    ))
    assert sum(c.n_total * (c.n_total - 1) for c in data) > DF.TAPE_EDGE_ROWS
    return data


def one_training_step(monkeypatch, data, seed=4):
    """(gradient handed to AdamW, observer records) of one train step
    over all of `data`, and each example's (loss, gradient) on a tape
    of its own, drawn as train draws them."""
    cfg = DF.TrainConfig(batch_size=len(data), epochs=1, seed=seed)
    stepped, records = [], []
    monkeypatch.setattr(DF.AdamW, "step", lambda self, grads: stepped.append(grads))
    DF.train(data, cfg, toy_schedule(), TOY_NET, observer=records.append)
    rng = np.random.default_rng(cfg.seed)
    params = D.init_params(TOY_NET, seed=cfg.seed)
    alone = []
    for idx in rng.permutation(len(data)):
        _, inp, eps_inv, eps_eqv = DF._training_example(
            data[idx], params, toy_schedule(), cfg, TOY_NET.rbf_spec(), rng
        )
        tape = T.Tape()
        pvars = {n: (tape.leaf(a) if n in params.trainable else tape.constant(a))
                 for n, a in params.arrays.items()}
        loss = DF.noise_loss(tape, pvars, params, inp, eps_inv, eps_eqv)
        adjoints = T.backward(tape, loss)
        alone.append((float(loss.value),
                      {n: T.gradient(adjoints, pvars[n]) for n in params.trainable}))
    (grads,) = stepped
    return grads, records, alone


class TestMinibatchTapes:
    def test_gradient_is_mean_of_per_example_gradients(self, monkeypatch):
        grads, _, alone = one_training_step(monkeypatch, mixed_minibatch())
        for name, got in grads.items():
            want = np.mean([g[name] for _, g in alone], axis=0)
            assert np.abs(got - want).max() <= 1e-12 * max(np.abs(want).max(), 1e-300), name

    def test_observer_gets_each_example_loss(self, monkeypatch):
        data = mixed_minibatch()
        _, records, alone = one_training_step(monkeypatch, data)
        assert [r["step"] for r in records] == list(range(len(data)))
        for record, (loss, _) in zip(records, alone):
            assert abs(record["loss"] - loss) <= 1e-12 * loss


class TestSample:
    def trained(self):
        cfg = DF.TrainConfig(learning_rate=1e-3, batch_size=4, epochs=3, seed=3)
        params, _ = DF.train(tiny_dataset(4), cfg, toy_schedule(), TOY_NET)
        return params

    def test_deterministic_given_seed(self):
        params = self.trained()
        target = C.decompose(C.StrategySpec(C.HEAD_TO_TAIL), 8)
        out = [
            DF.sample(
                params, target, 8, DF.GuidanceConfig("cfg", weight=2.0),
                toy_schedule(), np.random.default_rng(11),
            )
            for _ in range(2)
        ]
        assert np.array_equal(out[0].coords, out[1].coords)
        assert np.array_equal(out[0].types, out[1].types)

    def test_w_zero_equals_mode_none_on_empty_target(self):
        params = self.trained()
        a = DF.sample(
            params, C.EMPTY_PAIR, 8, DF.GuidanceConfig("cfg", weight=0.0),
            toy_schedule(), np.random.default_rng(13),
        )
        b = DF.sample(
            params, C.EMPTY_PAIR, 8, DF.GuidanceConfig("none"),
            toy_schedule(), np.random.default_rng(13),
        )
        assert np.array_equal(a.coords, b.coords)
        assert np.array_equal(a.types, b.types)

    def test_w_zero_equals_single_conditional_pass(self):
        params = self.trained()
        target = C.decompose(C.StrategySpec(C.DISULFIDE, (1, 5)), 8)
        a = DF.sample(
            params, target, 8, DF.GuidanceConfig("cfg", weight=0.0),
            toy_schedule(), np.random.default_rng(14),
        )
        b = DF.sample(
            params, target, 8, DF.GuidanceConfig("none"),
            toy_schedule(), np.random.default_rng(14),
        )
        assert np.array_equal(a.coords, b.coords)

    def test_bounds_validation(self):
        params = self.trained()
        with pytest.raises(ValueError):
            DF.sample(params, C.EMPTY_PAIR, 3, DF.GuidanceConfig("none"),
                      toy_schedule(), np.random.default_rng(0))
        bad = C.decompose(C.StrategySpec(C.DISULFIDE, (1, 9)), 12)
        with pytest.raises(ValueError):
            DF.sample(params, bad, 8, DF.GuidanceConfig("none"),
                      toy_schedule(), np.random.default_rng(0))

    def test_context_rotation_rotates_output(self):
        params = self.trained()
        rng = np.random.default_rng(15)
        ctx = G.GeometricGraph.from_parts(
            [2, 5, 7], np.array([[12.0, 0, 0], [15.5, 1, 0], [13.0, 3.5, 1.0]])
        )
        target = C.decompose(C.StrategySpec(C.HEAD_TO_TAIL), 8)

        draws = []

        def recording(shape):
            d = rng.standard_normal(shape)
            draws.append(d)
            return d

        out1 = DF.sample(
            params, target, 8, DF.GuidanceConfig("cfg", weight=1.0),
            toy_schedule(), np.random.default_rng(0), context=ctx, noise=recording,
        )
        rot = random_rotation(np.random.default_rng(16))
        shift = np.array([4.0, -2.0, 9.0])
        moved_ctx = G.GeometricGraph.from_parts(ctx.types, ctx.coords @ rot.T + shift)
        replay = iter(draws)

        def rotated(shape):
            d = next(replay)
            assert d.shape == shape
            return d @ rot.T if shape[1] == 3 else d

        out2 = DF.sample(
            params, target, 8, DF.GuidanceConfig("cfg", weight=1.0),
            toy_schedule(), np.random.default_rng(0), context=moved_ctx, noise=rotated,
        )
        expected = out1.peptide_coords @ rot.T + shift
        assert np.max(np.abs(out2.peptide_coords - expected)) < 1e-6
        assert np.array_equal(out1.peptide_types, out2.peptide_types)

    def test_energy_mode_runs_and_differs_from_unguided(self):
        params = self.trained()
        target = C.decompose(C.StrategySpec(C.HEAD_TO_TAIL), 8)
        guided = DF.sample(
            params, target, 8, DF.GuidanceConfig("energy", energy_scale=30.0),
            toy_schedule(), np.random.default_rng(17),
        )
        plain = DF.sample(
            params, C.EMPTY_PAIR, 8, DF.GuidanceConfig("none"),
            toy_schedule(), np.random.default_rng(17),
        )
        assert guided.n_peptide == 8
        assert not np.array_equal(guided.coords, plain.coords)

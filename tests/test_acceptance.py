"""Acceptance gate: one test per criterion, at the stated tolerances.

The desk-scale experiment (criteria 5 and 6) trains a model on 2,000
synthetic chains inside a session fixture; expect the full module to
take about 10 to 15 minutes on one CPU core (10 min 14 s and 14 min 56 s
in two runs on a 2-core machine). Run with ``-s`` to see the
per-criterion pass lines.
"""

import json
import time

import numpy as np
import pytest

from helpers import fd_gradient, linf_distance, max_rel_err, random_rotation
from pepring import cli
from pepring import config as CF
from pepring import constraints as C
from pepring import denoiser as D
from pepring import diffusion as DF
from pepring import encoding as E
from pepring import graph as G
from pepring import metrics as M
from pepring import tensor as T

RBF = E.RbfSpec()
EXPERIMENT_LENGTH = 12
SAMPLES_PER_CONDITION = 50
TOLERANCE = 0.5


def report(criterion: int, detail: str):
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


def _quantized_design_pair(g, rng, quantum=0.01):
    types = C.sample_type_constraint(g, rng)
    dists = C.sample_distance_constraint(g, rng)
    snapped = tuple(
        (i, j, max(quantum, round(d / quantum) * quantum)) for i, j, d in dists.entries
    )
    return C.ConstraintPair(types, C.DistanceConstraint(snapped))


def test_criterion_1_injectivity():
    rng = np.random.default_rng(101)
    # one shared node count so every draw is encodable and comparable
    n = 12
    graphs = [G.generate_chain(n, seed=s) for s in range(16)]
    t0 = time.perf_counter()
    n_pairs = 0
    min_gap = np.inf
    prev_pair, prev_sig = None, None
    while n_pairs < 10_000:
        g = graphs[int(rng.integers(len(graphs)))]
        pair = _quantized_design_pair(g, rng)
        sig = E.encode_pair(pair, n, RBF)
        if prev_pair is not None and pair != prev_pair:
            gap = linf_distance(sig, prev_sig)
            min_gap = min(min_gap, gap)
            assert gap > 1e-9, f"collision between {pair} and {prev_pair}"
            n_pairs += 1
        prev_pair, prev_sig = pair, sig
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"injectivity sweep took {elapsed:.1f}s"
    report(1, f"10,000 distinct constraint pairs, min signal gap {min_gap:.3e}, {elapsed:.1f}s")


def test_criterion_2_equivariance():
    cfg = D.DenoiserConfig(t_steps=50)
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_inv = worst_eqv = 0.0
    for trial in range(100):
        params = D.init_params(cfg, seed=trial)
        n = int(rng.integers(6, 13))
        g = G.generate_chain(n, seed=trial)
        z = G.encode_latent(g, params.codec)
        z = z.replace(
            inv=z.inv + rng.standard_normal(z.inv.shape),
            eqv=z.eqv + rng.standard_normal(z.eqv.shape),
        )
        pair = C.ConstraintPair(
            C.sample_type_constraint(g, rng), C.sample_distance_constraint(g, rng)
        )
        signals = E.encode_pair(pair, n, cfg.rbf_spec())
        t = int(rng.integers(1, cfg.t_steps + 1))
        inv0, eqv0 = D.predict_noise(params, D.DenoiserInput(z, signals, t))
        for _ in range(20):
            rot = random_rotation(rng)
            shift = rng.uniform(-5, 5, 3)
            moved = G.LatentGraph(z.inv, z.eqv @ rot.T + shift, z.center)
            inv1, eqv1 = D.predict_noise(params, D.DenoiserInput(moved, signals, t))
            worst_inv = max(worst_inv, float(np.max(np.abs(inv1 - inv0))))
            worst_eqv = max(worst_eqv, float(np.max(np.abs(eqv1 - eqv0 @ rot.T))))
    elapsed = time.perf_counter() - t0
    assert worst_inv < 1e-6, f"invariant output drifted by {worst_inv:.2e}"
    assert worst_eqv < 1e-6, f"equivariant output off by {worst_eqv:.2e}"
    assert elapsed < 60.0, f"equivariance sweep took {elapsed:.1f}s"
    report(2, f"100 graphs x 20 E(3) elements, max drift inv {worst_inv:.2e} / eqv {worst_eqv:.2e}, {elapsed:.1f}s")


def test_criterion_3_gradient_correctness():
    cfg = D.DenoiserConfig(
        latent_dim=2, hidden=2, layers=1, t_embed_dim=2, t_steps=5, rbf_channels=2,
        rbf_d_max=16.0,
    )
    params = D.init_params(cfg, seed=303)
    assert D.count_params(params) <= 500
    g = G.generate_chain(5, seed=303)
    rng = np.random.default_rng(304)
    pair = C.ConstraintPair(
        C.sample_type_constraint(g, rng), C.sample_distance_constraint(g, rng)
    )
    signals = E.encode_pair(pair, g.n_peptide, cfg.rbf_spec())
    schedule = DF.DiffusionSchedule.linear(cfg.t_steps, 1e-3, 0.05)
    z0 = G.encode_latent(g, params.codec)
    z_t, (eps_inv, eps_eqv) = DF.forward_noise(z0, 3, schedule, rng)
    inp = D.DenoiserInput(z_t, signals, 3)

    def loss_value(arrays):
        tape = T.Tape()
        pvars = {n: tape.leaf(a) for n, a in arrays.items()}
        return tape, pvars, DF.noise_loss(tape, pvars, params, inp, eps_inv, eps_eqv)

    tape, pvars, loss = loss_value(params.arrays)
    adjoints = T.backward(tape, loss)
    worst = 0.0
    n_checked = 0
    for name in params.trainable:
        analytic = T.gradient(adjoints, pvars[name])

        def f(x, name=name):
            arrays = dict(params.arrays)
            arrays[name] = x
            return float(loss_value(arrays)[2].value)

        numeric = fd_gradient(f, params.arrays[name].copy(), h=1e-5)
        worst = max(worst, max_rel_err(analytic, numeric))
        n_checked += analytic.size
    assert worst < 1e-4, f"gradient mismatch {worst:.2e}"
    report(3, f"{n_checked} trainable parameters of {D.count_params(params)} total, max rel err {worst:.2e}")


def test_criterion_4_cfg_algebra():
    rng = np.random.default_rng(404)
    cond = rng.normal(size=(6, 3))
    uncond = rng.normal(size=(6, 3))
    out = DF.cfg_combine(cond, uncond, 0.0)
    assert np.max(np.abs(out - cond)) < 1e-12
    assert np.array_equal(
        DF.cfg_combine(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0),
        np.array([2.0, -1.0]),
    )
    same = DF.cfg_combine(cond, cond, 7.5)
    assert np.max(np.abs(same - cond)) < 1e-12
    for w in (0.5, 1.0, 5.0):
        direct = (w + 1.0) * cond - w * uncond
        assert np.max(np.abs(DF.cfg_combine(cond, uncond, w) - direct)) < 1e-12
    report(4, "w=0 identity exact; unit examples and random recombinations within 1e-12")


@pytest.fixture(scope="module")
def desk_model():
    """The desk-scale experiment model: 2,000 chains, default configuration."""
    master = np.random.default_rng(2024)
    data = [
        G.generate_chain(int(master.integers(8, 17)), seed=int(master.integers(2**63)))
        for _ in range(2000)
    ]
    cfg = CF.resolve()
    t0 = time.perf_counter()
    params, losses = DF.train(
        data, CF.train_config(cfg), CF.schedule(cfg), CF.denoiser_config(cfg)
    )
    print(f"\n[desk model] trained {cfg['epochs']} epochs in {time.perf_counter() - t0:.0f}s, "
          f"loss {losses[0]:.4f} -> {losses[-1]:.4f}")
    return params, CF.schedule(cfg)


def _sample_many(params, schedule, target, guidance, count, seed0):
    return [
        DF.sample(params, target, EXPERIMENT_LENGTH, guidance, schedule,
                  np.random.default_rng([seed0, i]))
        for i in range(count)
    ]


def _success(graphs, target):
    return sum(
        C.check_satisfaction(g, target, tol=TOLERANCE).passed for g in graphs
    ) / len(graphs)


@pytest.mark.slow
def test_criterion_5_zero_shot_experiment(desk_model):
    params, schedule = desk_model
    head_tail = C.decompose(C.StrategySpec(C.HEAD_TO_TAIL), EXPERIMENT_LENGTH)
    disulfide = C.decompose(C.StrategySpec(C.DISULFIDE, (2, 8)), EXPERIMENT_LENGTH)

    # mode "none" with the target signals equals cfg at w=0 exactly
    # (verified in test_diffusion); one pass per step instead of two.
    w0 = DF.GuidanceConfig("none")
    w5 = DF.GuidanceConfig("cfg", weight=5.0)

    ht_w0 = _success(_sample_many(params, schedule, head_tail, w0, SAMPLES_PER_CONDITION, 50), head_tail)
    ht_w5 = _success(_sample_many(params, schedule, head_tail, w5, SAMPLES_PER_CONDITION, 51), head_tail)
    ss_w0 = _success(_sample_many(params, schedule, disulfide, w0, SAMPLES_PER_CONDITION, 52), disulfide)
    ss_w5 = _success(_sample_many(params, schedule, disulfide, w5, SAMPLES_PER_CONDITION, 53), disulfide)

    detail = (
        f"head-to-tail {ht_w0:.0%} -> {ht_w5:.0%}, disulfide {ss_w0:.0%} -> {ss_w5:.0%} "
        f"(w=0 vs w=5, {SAMPLES_PER_CONDITION} samples each, tol {TOLERANCE} A)"
    )
    assert ht_w5 >= 0.40, detail
    assert ht_w5 >= 3.0 * ht_w0, detail
    assert ss_w5 > ss_w0, detail
    report(5, detail)


@pytest.mark.slow
def test_criterion_6_energy_guidance_baseline(desk_model):
    params, schedule = desk_model
    head_tail = C.decompose(C.StrategySpec(C.HEAD_TO_TAIL), EXPERIMENT_LENGTH)
    d_target = head_tail.dists.entries[0][2]

    def mean_violation(graphs):
        gaps = [
            abs(float(np.linalg.norm(g.peptide_coords[0] - g.peptide_coords[-1])) - d_target)
            for g in graphs
        ]
        return float(np.mean(gaps))

    unguided = _sample_many(
        params, schedule, C.EMPTY_PAIR, DF.GuidanceConfig("none"),
        SAMPLES_PER_CONDITION, 60,
    )
    base = mean_violation(unguided)
    # bond-length sanity of the unconditional model, over 100 draws
    unguided_more = unguided + _sample_many(
        params, schedule, C.EMPTY_PAIR, DF.GuidanceConfig("none"),
        SAMPLES_PER_CONDITION, 62,
    )

    best_scale, best = None, np.inf
    for scale in DF.ENERGY_SCALE_SWEEP:
        guided = _sample_many(
            params, schedule, head_tail, DF.GuidanceConfig("energy", energy_scale=scale),
            SAMPLES_PER_CONDITION, 61,
        )
        violation = mean_violation(guided)
        if violation < best:
            best_scale, best = scale, violation

    bonds = np.concatenate([
        np.linalg.norm(np.diff(g.peptide_coords, axis=0), axis=1) for g in unguided_more
    ])
    detail = (
        f"mean end-gap violation {base:.2f} A unguided -> {best:.2f} A at scale {best_scale:g} "
        f"({best / base:.0%}); unguided mean bond {bonds.mean():.2f} A"
    )
    assert best <= 0.5 * base, detail
    assert 3.5 <= bonds.mean() <= 4.1, detail
    report(6, detail)


def test_criterion_7_design_space_conformance():
    rng = np.random.default_rng(707)
    graphs = [G.generate_chain(int(rng.integers(8, 17)), seed=700 + s) for s in range(16)]
    sizes_t, sizes_d = set(), set()
    for k in range(10_000):
        g = graphs[k % len(graphs)]
        tc = C.sample_type_constraint(g, rng)
        dc = C.sample_distance_constraint(g, rng)
        assert len(tc.entries) <= 4
        assert len(dc.entries) <= 6
        for node, want in tc.entries:
            assert want == g.peptide_types[node]
        x = g.peptide_coords
        for i, j, d in dc.entries:
            assert j - i in (3, 4, 6)
            assert abs(d - float(np.linalg.norm(x[i] - x[j]))) <= 1e-9
        sizes_t.add(len(tc.entries))
        sizes_d.add(len(dc.entries))
    assert sizes_t == {0, 1, 2, 3, 4}
    assert sizes_d == {0, 1, 2, 3, 4, 5, 6}
    report(7, "10,000 draws: sizes within bounds, separations in {3,4,6}, ground-truth consistent at 1e-9")


def test_criterion_8_decomposition_oracle():
    L = C.LinkLengths()
    cases = {
        "stapled-d": (
            C.decompose(C.StrategySpec(C.STAPLED_D, (2,)), 8),
            (((2, G.LYS), (5, G.ASP)), ((2, 5, L.lys_asp),)),
        ),
        "stapled-e": (
            C.decompose(C.StrategySpec(C.STAPLED_E, (1,)), 8),
            (((1, G.LYS), (5, G.GLU)), ((1, 5, L.lys_glu),)),
        ),
        "head-to-tail": (
            C.decompose(C.StrategySpec(C.HEAD_TO_TAIL), 5),
            ((), ((0, 4, L.head_tail),)),
        ),
        "disulfide": (
            C.decompose(C.StrategySpec(C.DISULFIDE, (1, 4)), 6),
            (((1, G.CYS), (4, G.CYS)), ((1, 4, L.disulfide),)),
        ),
        "bicycle": (
            C.decompose(C.StrategySpec(C.BICYCLE, (0, 3, 7)), 9),
            (
                ((0, G.CYS), (3, G.CYS), (7, G.CYS)),
                ((0, 3, L.bicycle_side), (0, 7, L.bicycle_side), (3, 7, L.bicycle_side)),
            ),
        ),
    }
    for name, (pair, (types, dists)) in cases.items():
        assert pair.types.entries == types, name
        assert pair.dists.entries == dists, name

    double_stapled = C.compose([
        C.decompose(C.StrategySpec(C.STAPLED_D, (0,)), 10),
        C.decompose(C.StrategySpec(C.STAPLED_D, (5,)), 10),
    ])
    assert double_stapled.types.entries == ((0, G.LYS), (3, G.ASP), (5, G.LYS), (8, G.ASP))
    assert double_stapled.dists.entries == ((0, 3, L.lys_asp), (5, 8, L.lys_asp))

    ss_ht = C.compose([
        C.decompose(C.StrategySpec(C.DISULFIDE, (1, 4)), 10),
        C.decompose(C.StrategySpec(C.HEAD_TO_TAIL), 10),
    ])
    assert ss_ht.types.entries == ((1, G.CYS), (4, G.CYS))
    assert ss_ht.dists.entries == ((0, 9, L.head_tail), (1, 4, L.disulfide))

    double_ss = C.compose([
        C.decompose(C.StrategySpec(C.DISULFIDE, (0, 5)), 10),
        C.decompose(C.StrategySpec(C.DISULFIDE, (2, 8)), 10),
    ])
    assert double_ss.types.entries == ((0, G.CYS), (2, G.CYS), (5, G.CYS), (8, G.CYS))
    assert double_ss.dists.entries == ((0, 5, L.disulfide), (2, 8, L.disulfide))

    triple_ss = C.compose([
        C.decompose(C.StrategySpec(C.DISULFIDE, (0, 5)), 12),
        C.decompose(C.StrategySpec(C.DISULFIDE, (2, 8)), 12),
        C.decompose(C.StrategySpec(C.DISULFIDE, (4, 10)), 12),
    ])
    assert len(triple_ss.types.entries) == 6
    assert len(triple_ss.dists.entries) == 3

    with pytest.raises(C.ConstraintConflictError):
        C.compose([
            C.decompose(C.StrategySpec(C.DISULFIDE, (1, 4)), 6),
            C.decompose(C.StrategySpec(C.DISULFIDE, (1, 4), C.LinkLengths(disulfide=4.0)), 6),
        ])
    with pytest.raises(C.ConstraintConflictError):
        C.compose([
            C.decompose(C.StrategySpec(C.STAPLED_D, (0,)), 8),
            C.decompose(C.StrategySpec(C.DISULFIDE, (0, 5)), 8),
        ])
    report(8, "five strategies and four high-order compositions match hand-written sets; conflicts detected")


def test_criterion_9_metric_correctness():
    rng = np.random.default_rng(909)
    worst = 0.0
    for bins in (20, 36):
        for _ in range(25):
            ref = rng.integers(0, 60, size=bins).astype(float)
            gen = rng.integers(0, 60, size=bins).astype(float)
            s = 1e-6
            p = (ref + s) / (ref + s).sum()
            q = (gen + s) / (gen + s).sum()
            brute = float(sum(pi * np.log(pi / qi) for pi, qi in zip(p, q)))
            worst = max(worst, abs(M.kl_divergence(ref, gen) - brute))
            same = M.kl_divergence(ref, ref)
            assert same <= 1e-12
    assert worst <= 1e-12

    graphs = [G.generate_chain(10, seed=s) for s in range(6)]
    assert M.aa_kl(graphs, graphs) <= 1e-12
    assert M.pseudo_dihedral_kl(graphs, graphs) <= 1e-12

    trans = M.pseudo_dihedral([0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 1, 0])
    cis = M.pseudo_dihedral([0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0])
    assert abs(abs(trans) - np.pi) <= 1e-12
    assert abs(cis) <= 1e-12
    report(9, f"KL matches brute force within {worst:.1e}; planar windows give 0 and +/-pi")


def test_criterion_10_manifest_determinism(tmp_path):
    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0

    def rerun_and_compare(out_dir, replay_dir, files):
        run("rerun", "--manifest", out_dir / "manifest.json", "--out", replay_dir)
        for name in files:
            assert (out_dir / name).read_bytes() == (replay_dir / name).read_bytes(), name

    data_dir = tmp_path / "data"
    run("gen-data", "--count", 8, "--len-min", 6, "--len-max", 9, "--seed", 7,
        "--out", data_dir)
    rerun_and_compare(data_dir, tmp_path / "data2", ["chains.jsonl"])

    tiny = ["--set", "epochs=1", "--set", "batch_size=4", "--set", "hidden=4",
            "--set", "layers=1", "--set", "t_steps=6", "--set", "t_embed_dim=4",
            "--set", "latent_dim=4", "--set", "rbf_channels=4", "--set", "rbf_d_max=16.0"]
    model_dir = tmp_path / "model"
    run("train", "--data", data_dir / "chains.jsonl", "--out", model_dir, *tiny)
    rerun_and_compare(model_dir, tmp_path / "model2",
                      ["checkpoint.json", "loss.txt", "config.txt"])

    sample_dir = tmp_path / "samples"
    run("sample", "--checkpoint", model_dir / "checkpoint.json",
        "--strategy", "head-to-tail", "--length", 6, "--num", 2, "--seed", 3,
        "--out", sample_dir)
    rerun_and_compare(sample_dir, tmp_path / "samples2", ["samples.jsonl"])

    eval_dir = tmp_path / "metrics"
    run("eval", "--samples", sample_dir / "samples.jsonl",
        "--reference", data_dir / "chains.jsonl", "--strategy", "head-to-tail",
        "--per-target", 2, "--out", eval_dir)
    rerun_and_compare(eval_dir, tmp_path / "metrics2", ["metrics.txt", "metrics.json"])
    report(10, "gen-data, train, sample and eval rerun from manifests byte-for-byte")

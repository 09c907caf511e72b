"""Forward noising, training with constraint dropout, guided reverse sampling.

Training teaches a single network both the conditional and the
unconditional score by sometimes blanking the sampled constraints. At
inference the two estimates are recombined, amplified by a guidance
weight, which is what lets constraint combinations never seen together
during training still steer generation. An energy-descent baseline that
pushes the latent down the gradient of a constraint-violation penalty is
included for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .constraints import (
    ConstraintPair,
    EMPTY_PAIR,
    sample_distance_constraint,
    sample_type_constraint,
)
from .denoiser import (
    DenoiserBatch,
    DenoiserConfig,
    DenoiserInput,
    DenoiserParams,
    as_batch,
    init_params,
    predict_noise,
    trace_noise_prediction,
)
from .encoding import encode_pair, unconditional
from .graph import GeometricGraph, LatentGraph, decode_latent, encode_latent

GUIDANCE_MODES = ("cfg", "energy", "none")

# Reverse-step latent magnitude cap. The prior is unit Gaussian, so any
# healthy trajectory stays far below this; it only arrests the runaway
# that a strongly amplified guidance kick can start at the large-beta
# steps, where a saturated network would otherwise never recover.
LATENT_CLIP = 8.0


@dataclass(frozen=True)
class DiffusionSchedule:
    """Variance schedule; betas[t-1] belongs to step t in [1, T]."""

    betas: np.ndarray
    alpha_bars: np.ndarray = field(init=False)

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise ValueError("betas must be a non-empty vector")
        if not np.all((0 < betas) & (betas < 1)):
            raise ValueError("betas must lie strictly inside (0, 1)")
        if np.any(np.diff(betas) <= 0) and betas.size > 1:
            raise ValueError("betas must be strictly increasing")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", np.cumprod(1.0 - betas))

    @classmethod
    def linear(cls, t_steps: int, beta_start: float, beta_end: float):
        """`t_steps` betas evenly spaced from `beta_start` to `beta_end`."""
        return cls(np.linspace(beta_start, beta_end, t_steps))

    @property
    def t_steps(self) -> int:
        return self.betas.size

    def beta(self, t: int) -> float:
        return float(self.betas[t - 1])

    def alpha_bar(self, t: int) -> float:
        return 1.0 if t == 0 else float(self.alpha_bars[t - 1])


@dataclass(frozen=True)
class TrainConfig:
    p_drop_type: float = 0.2
    p_drop_dist: float = 0.2
    learning_rate: float = 1e-4
    weight_decay: float = 0.0
    batch_size: int = 16
    epochs: int = 30
    seed: int = 0

    def __post_init__(self):
        for name in ("p_drop_type", "p_drop_dist"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if not 0 < self.learning_rate < math.inf or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("learning_rate must be finite; it, batch_size and epochs positive")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")


@dataclass(frozen=True)
class GuidanceConfig:
    mode: str = "cfg"
    weight: float = 0.0
    energy_scale: float = 30.0
    # Cap on the violation-gradient norm before scaling. A quadratic
    # energy has unbounded gradients far from satisfaction, which at high
    # step scales destabilizes the early reverse steps; near satisfaction
    # the cap is inactive. 0 disables it.
    energy_grad_clip: float = 1.0

    def __post_init__(self):
        if self.mode not in GUIDANCE_MODES:
            raise ValueError(f"guidance mode must be one of {GUIDANCE_MODES}")
        for name in ("weight", "energy_scale", "energy_grad_clip"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"guidance {name} must be finite and >= 0, got {value}")


def _centered(draw: np.ndarray) -> np.ndarray:
    return draw - draw.mean(axis=0)


def forward_noise(
    z0: LatentGraph, t: int, schedule: DiffusionSchedule, rng: np.random.Generator
) -> tuple[LatentGraph, tuple[np.ndarray, np.ndarray]]:
    """Jump straight to step t; returns the noised latent and the drawn noise.

    Coordinate noise is drawn in the centered frame so diffusion never
    moves the peptide's latent center of mass.
    """
    if not 1 <= t <= schedule.t_steps:
        raise ValueError(f"step {t} outside [1, {schedule.t_steps}]")
    a = schedule.alpha_bar(t)
    eps_inv = rng.standard_normal(z0.inv.shape)
    eps_eqv = _centered(rng.standard_normal(z0.eqv.shape))
    z_t = z0.replace(
        inv=math.sqrt(a) * z0.inv + math.sqrt(1.0 - a) * eps_inv,
        eqv=math.sqrt(a) * z0.eqv + math.sqrt(1.0 - a) * eps_eqv,
    )
    return z_t, (eps_inv, eps_eqv)


class AdamW:
    """Decoupled-weight-decay adaptive moments over named arrays."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, arrays: dict[str, np.ndarray], names, lr: float, weight_decay: float):
        self.arrays = arrays
        self.names = tuple(names)
        self.lr, self.weight_decay = lr, weight_decay
        self.step_count = 0
        self.m = {n: np.zeros_like(arrays[n]) for n in self.names}
        self.v = {n: np.zeros_like(arrays[n]) for n in self.names}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        b1c = 1.0 - self.BETA1 ** self.step_count
        b2c = 1.0 - self.BETA2 ** self.step_count
        for n in self.names:
            g = grads[n]
            self.m[n] = self.BETA1 * self.m[n] + (1.0 - self.BETA1) * g
            self.v[n] = self.BETA2 * self.v[n] + (1.0 - self.BETA2) * g * g
            update = (self.m[n] / b1c) / (np.sqrt(self.v[n] / b2c) + self.EPS)
            self.arrays[n] = self.arrays[n] * (1.0 - self.lr * self.weight_decay) - self.lr * update


def noise_loss(tape, pvars, params, inp, eps_inv, eps_eqv, example_losses=None):
    """Normalized squared error between drawn and predicted noise.

    `inp` is one `DenoiserInput` or a `DenoiserBatch`, whose graphs' noise
    is stacked in `eps_inv`/`eps_eqv` as their latents are; a batch's loss
    is the sum of its graphs' normalized losses. A list passed as
    `example_losses` gets each graph's loss.
    """
    batch = as_batch(inp)
    out_inv, out_eqv = trace_noise_prediction(
        tape, pvars.__getitem__, params.config, tape.constant(batch.inv),
        tape.constant(batch.eqv), batch
    )
    di = T.sub(out_inv, tape.constant(eps_inv))
    de = T.sub(out_eqv, tape.constant(eps_eqv))
    rows = np.diff(batch.offsets)
    weight = 1.0 / (rows * (eps_inv.shape[1] + 3))  # per graph: 1 / its noise entries
    squares = T.add(T.reduce_sum(T.mul(di, di), axis=1, keepdims=True),
                    T.reduce_sum(T.mul(de, de), axis=1, keepdims=True))
    per_graph = T.segment_sum(squares, rows, weight[:, None])
    if example_losses is not None:
        example_losses.extend(per_graph.value[:, 0].tolist())
    return T.reduce_sum(per_graph)


# Whole training examples share one tape until the next would take its
# dense-pass edge rows past this; a larger example gets a tape of its own.
# More rows per tape run faster but keep more of the tape in memory.
TAPE_EDGE_ROWS = 1024


def _tape_groups(examples):
    """Consecutive runs of training examples, one run per tape; an example
    is (graph index, constraint pair, input, eps_inv, eps_eqv)."""
    group, rows = [], 0
    for ex in examples:
        inp = ex[2]
        size = inp.latent.n_nodes + inp.n_context
        need = size * (size - 1)  # dense-pass edge rows
        if group and rows + need > TAPE_EDGE_ROWS:
            yield group
            group, rows = [], 0
        group.append(ex)
        rows += need
    if group:
        yield group


def _training_example(g, params, schedule, cfg, rbf, rng):
    pair = ConstraintPair(
        sample_type_constraint(g, rng), sample_distance_constraint(g, rng)
    )
    dropped = ConstraintPair(
        pair.types if rng.random() >= cfg.p_drop_type else EMPTY_PAIR.types,
        pair.dists if rng.random() >= cfg.p_drop_dist else EMPTY_PAIR.dists,
    )
    signals = encode_pair(dropped, g.n_peptide, rbf)
    z0 = encode_latent(g, params.codec)
    t = int(rng.integers(1, schedule.t_steps + 1))
    z_t, (eps_inv, eps_eqv) = forward_noise(z0, t, schedule, rng)
    inp = DenoiserInput(
        latent=z_t, signals=signals, t=t,
        context_types=g.context_types if g.n_context else None,
        context_coords=g.context_coords if g.n_context else None,
    )
    return dropped, inp, eps_inv, eps_eqv


def train(
    data: list[GeometricGraph],
    cfg: TrainConfig,
    schedule: DiffusionSchedule,
    net: DenoiserConfig,
    observer=None,
) -> tuple[DenoiserParams, list[float]]:
    """Noise-prediction training with constraint dropout.

    Every step samples a constraint pair from the graph's own design
    space, independently blanks each side with the dropout probability,
    and regresses the drawn noise. Returns the trained parameters and
    the per-epoch mean loss.
    """
    if not data:
        raise ValueError("training data is empty")
    if net.t_steps != schedule.t_steps:
        raise ValueError(
            f"network expects {net.t_steps} steps, schedule has {schedule.t_steps}"
        )
    rbf = net.rbf_spec()
    rng = np.random.default_rng(cfg.seed)
    params = init_params(net, seed=cfg.seed)
    trainable = params.trainable
    opt = AdamW(params.arrays, trainable, cfg.learning_rate, cfg.weight_decay)
    epoch_losses: list[float] = []
    step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(data))
        losses: list[float] = []
        for start in range(0, len(order), cfg.batch_size):
            batch = [int(idx) for idx in order[start:start + cfg.batch_size]]
            # the whole minibatch is drawn first: the same random stream as
            # drawing each example just before tracing it
            examples = [
                (idx, *_training_example(data[idx], params, schedule, cfg, rbf, rng))
                for idx in batch
            ]
            grads = {n: np.zeros_like(params.arrays[n]) for n in trainable}
            for group in _tape_groups(examples):
                graphs, pairs, inputs, eps_inv, eps_eqv = zip(*group)
                tape = T.Tape()
                pvars = {
                    n: (tape.leaf(a) if n in trainable else tape.constant(a))
                    for n, a in params.arrays.items()
                }
                group_losses: list[float] = []
                try:
                    loss = noise_loss(
                        tape, pvars, params, DenoiserBatch(inputs), np.concatenate(eps_inv),
                        np.concatenate(eps_eqv), example_losses=group_losses,
                    )
                except FloatingPointError as err:
                    at = ", ".join(f"{g} at t={inp.t}" for g, inp in zip(graphs, inputs))
                    raise RuntimeError(
                        f"non-finite loss at epoch {epoch} step {step} (graphs {at}): {err}"
                    ) from None
                # each tape's share of the minibatch mean
                adjoints = T.backward(tape, T.scale(loss, 1.0 / len(batch)))
                for n in trainable:
                    grads[n] += T.gradient(adjoints, pvars[n])
                for pair, inp, value in zip(pairs, inputs, group_losses):
                    losses.append(value)
                    if observer is not None:
                        observer({
                            "epoch": epoch, "step": step, "t": inp.t, "loss": value,
                            "n_type_entries": len(pair.types.entries),
                            "n_dist_entries": len(pair.dists.entries),
                        })
                    step += 1
            opt.step(grads)
        epoch_losses.append(float(np.mean(losses)))
    return params, epoch_losses


def cfg_combine(eps_cond: np.ndarray, eps_uncond: np.ndarray, w: float) -> np.ndarray:
    """Amplified score: (w+1) * conditional - w * unconditional."""
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    if eps_cond.shape != eps_uncond.shape:
        raise T.ShapeError(
            f"cfg_combine: operand shapes {eps_cond.shape} and {eps_uncond.shape} differ"
        )
    return (w + 1.0) * eps_cond - w * eps_uncond


def trace_distance_energy(tape, coords: T.Var, pair: ConstraintPair) -> T.Var:
    """Sum of squared distance violations, traced for differentiation."""
    total = tape.constant(0.0)
    for i, j, d in pair.dists.entries:
        diff = T.sub(T.gather(coords, [i]), T.gather(coords, [j]))
        delta = T.sub(T.norm(diff), tape.constant(np.full(1, d)))
        total = T.add(total, T.reduce_sum(T.mul(delta, delta)))
    return total


def latent_energy_gradient(pair, z, params):
    """Violation energy of a latent graph, with its gradient.

    Distances are measured on the decoded coordinates; the type term is
    relaxed to the softmax over embedding-row logits so it stays
    differentiable. Returns (value, d/d_inv, d/d_eqv).
    """
    cfg = params.config
    tape = T.Tape()
    inv = tape.leaf(z.inv)
    eqv = tape.leaf(z.eqv)
    coords = T.scale(eqv, 1.0 / cfg.coord_scale)
    total = trace_distance_energy(tape, coords, pair)
    table_t = tape.constant(params.arrays["codec.table"].T)
    for node, want in pair.types.entries:
        logits = T.matmul(T.gather(inv, [node]), table_t)  # [1, K]
        shift = tape.constant(float(logits.value.max()))
        e = T.exp(T.sub(logits, shift))
        p = T.div(T.gather(T.reshape(e, (e.value.size,)), [want]), T.reduce_sum(e))
        miss = T.sub(tape.constant(np.ones(1)), p)
        total = T.add(total, T.reduce_sum(T.mul(miss, miss)))
    adjoints = T.backward(tape, total)
    return float(total.value), T.gradient(adjoints, inv), T.gradient(adjoints, eqv)


def _guided_noise(params, target, z, t, guidance, signals_cond, signals_uncond, ctx, schedule):
    ctx_types, ctx_coords = ctx
    cond = DenoiserInput(z, signals_cond, t, ctx_types, ctx_coords)
    if guidance.mode == "none":
        return predict_noise(params, cond)
    uncond = DenoiserInput(z, signals_uncond, t, ctx_types, ctx_coords)
    if guidance.mode == "cfg":
        # both branches in one forward pass, as a batch of two
        both_inv, both_eqv = predict_noise(params, DenoiserBatch([cond, uncond]))
        n = z.n_nodes
        return (
            cfg_combine(both_inv[:n], both_inv[n:], guidance.weight),
            cfg_combine(both_eqv[:n], both_eqv[n:], guidance.weight),
        )
    # energy mode: unconditional score pushed down the violation gradient
    eps_u = predict_noise(params, uncond)
    _, g_inv, g_eqv = latent_energy_gradient(target, z, params)
    if guidance.energy_grad_clip > 0:
        gnorm = math.sqrt(float((g_inv * g_inv).sum() + (g_eqv * g_eqv).sum()))
        if gnorm > guidance.energy_grad_clip:
            shrink = guidance.energy_grad_clip / gnorm
            g_inv, g_eqv = g_inv * shrink, g_eqv * shrink
    k = guidance.energy_scale * math.sqrt(1.0 - schedule.alpha_bar(t))
    return eps_u[0] + k * g_inv, eps_u[1] + k * g_eqv


def sample(
    params: DenoiserParams,
    target: ConstraintPair,
    n_residues: int,
    guidance: GuidanceConfig,
    schedule: DiffusionSchedule,
    rng: np.random.Generator,
    context: GeometricGraph | None = None,
    noise=None,
) -> GeometricGraph:
    """Reverse diffusion toward a constraint target.

    `noise` may override the Gaussian source (a callable shape -> array);
    the default draws from `rng`. All nodes of `context`, when given, are
    treated as fixed conditioning nodes. Each reverse step is bounded by
    `LATENT_CLIP`, which is inactive on healthy trajectories.
    """
    cfg = params.config
    if not 4 <= n_residues <= 25:
        raise ValueError(f"n_residues must be in [4, 25], got {n_residues}")
    if target.max_node() >= n_residues:
        raise ValueError(
            f"constraint references node {target.max_node()}, chain has {n_residues}"
        )
    if cfg.t_steps != schedule.t_steps:
        raise ValueError(
            f"network expects {cfg.t_steps} steps, schedule has {schedule.t_steps}"
        )
    if noise is None:
        noise = rng.standard_normal
    signals_cond = encode_pair(target, n_residues, cfg.rbf_spec())
    signals_uncond = unconditional(n_residues)
    if context is not None and context.n_total:
        ctx = (context.types, context.coords)
        center = context.coords.mean(axis=0)
    else:
        ctx = (None, None)
        center = np.zeros(3)

    z = LatentGraph(
        inv=noise((n_residues, cfg.latent_dim)),
        eqv=_centered(noise((n_residues, 3))),
        center=center,
    )
    for t in range(schedule.t_steps, 0, -1):
        eps_inv, eps_eqv = _guided_noise(
            params, target, z, t, guidance, signals_cond, signals_uncond, ctx, schedule
        )
        beta = schedule.beta(t)
        a_bar, a_bar_prev = schedule.alpha_bar(t), schedule.alpha_bar(t - 1)
        scale_eps = beta / math.sqrt(1.0 - a_bar)
        inv_mean = (z.inv - scale_eps * eps_inv) / math.sqrt(1.0 - beta)
        eqv_mean = (z.eqv - scale_eps * eps_eqv) / math.sqrt(1.0 - beta)
        if t > 1:
            sigma = math.sqrt((1.0 - a_bar_prev) / (1.0 - a_bar) * beta)
            inv_mean = inv_mean + sigma * noise(z.inv.shape)
            eqv_mean = eqv_mean + sigma * _centered(noise(z.eqv.shape))
        if not (np.all(np.isfinite(inv_mean)) and np.all(np.isfinite(eqv_mean))):
            raise RuntimeError(f"non-finite latent at reverse step {t}")
        inv_mean = np.clip(inv_mean, -LATENT_CLIP, LATENT_CLIP)
        if np.max(np.abs(eqv_mean)) > LATENT_CLIP:
            eqv_mean = _centered(np.clip(eqv_mean, -LATENT_CLIP, LATENT_CLIP))
        z = z.replace(inv=inv_mean, eqv=eqv_mean)

    decoded = decode_latent(z, params.codec)
    if context is not None and context.n_total:
        return GeometricGraph.from_parts(
            decoded.peptide_types, decoded.peptide_coords,
            context.types, context.coords,
        )
    return decoded

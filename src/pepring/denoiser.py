"""Equivariant noise-prediction network over latent peptide graphs.

Message-passing layers act on invariant node features and one coordinate
channel per node. Geometry only ever enters through squared distances
and difference vectors, and the coordinate output is the accumulated
displacement, so predictions rotate and reflect with the input and
ignore translations entirely.

Each layer runs two passes: an adapter pass restricted to the
distance-constrained edges, fed their radial-basis features (a no-op
when nothing is constrained), then a dense pass over every node pair
with no edge features. Node-level control signals and the timestep
embedding are concatenated into the input features.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .encoding import ControlSignals, RbfSpec
from .graph import N_TYPES, CodecParams, LatentGraph, init_embedding_table

CHECKPOINT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DenoiserConfig:
    latent_dim: int = 8
    hidden: int = 32
    layers: int = 3
    t_embed_dim: int = 16
    t_steps: int = 200
    rbf_channels: int = 32
    rbf_d_min: float = 0.0
    rbf_d_max: float = 20.0
    coord_scale: float = 0.1
    embed_scale: float | None = None

    def __post_init__(self):
        if self.latent_dim < 1 or self.hidden < 1 or self.layers < 0:
            raise ValueError("latent_dim and hidden must be >= 1, layers >= 0")
        if self.t_embed_dim % 2:
            raise ValueError("t_embed_dim must be even")
        if self.t_steps < 1:
            raise ValueError("t_steps must be >= 1")

    def rbf_spec(self) -> RbfSpec:
        return RbfSpec(self.rbf_channels, self.rbf_d_min, self.rbf_d_max)

    @property
    def input_width(self) -> int:
        # invariant latent, node control signal, timestep embedding, context flag
        return self.latent_dim + N_TYPES + self.t_embed_dim + 1


@dataclass
class DenoiserParams:
    config: DenoiserConfig
    arrays: dict[str, np.ndarray]
    trainable: tuple[str, ...]

    @property
    def codec(self) -> CodecParams:
        return CodecParams(self.arrays["codec.table"], self.config.coord_scale)


@dataclass(frozen=True)
class DenoiserInput:
    latent: LatentGraph
    signals: ControlSignals
    t: int
    context_types: np.ndarray | None = None
    context_coords: np.ndarray | None = None

    @property
    def n_context(self) -> int:
        return 0 if self.context_types is None else len(self.context_types)


def sinusoidal_table(t_steps: int, dim: int) -> np.ndarray:
    half = dim // 2
    exponents = np.arange(half) / max(half - 1, 1)
    freqs = np.exp(-np.log(10000.0) * exponents)
    args = np.arange(1, t_steps + 1)[:, None] * freqs[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


def _mlp_shapes(prefix: str, in_width: int, hidden: int, out_width: int):
    return [
        (f"{prefix}.w0", (in_width, hidden)),
        (f"{prefix}.b0", (hidden,)),
        (f"{prefix}.w1", (hidden, out_width)),
        (f"{prefix}.b1", (out_width,)),
    ]


def parameter_shapes(cfg: DenoiserConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Declared array layout; everything else derives from this list."""
    shapes = [
        ("codec.table", (N_TYPES, cfg.latent_dim)),
        ("time.table", (cfg.t_steps, cfg.t_embed_dim)),
    ]
    if cfg.layers == 0:
        return shapes
    h = cfg.hidden
    shapes += [("input.w", (cfg.input_width, h)), ("input.b", (h,))]
    for layer in range(cfg.layers):
        for pass_name in ("adapter", "main"):
            base = f"layers.{layer}.{pass_name}"
            # adapter messages also see the current-vs-target distance
            # gap, the target RBF vector, and the current distance
            # lifted through the same basis
            msg_in = 2 * h + 1 + (2 * cfg.rbf_channels + 1 if pass_name == "adapter" else 0)
            shapes += _mlp_shapes(f"{base}.msg", msg_in, h, h)
            shapes += _mlp_shapes(f"{base}.coord", h, h, 1)
            shapes += [(f"{base}.coord.gain", (1,))]
            shapes += _mlp_shapes(f"{base}.node", 2 * h, h, h)
    shapes += [("out_inv.w", (h, cfg.latent_dim)), ("out_inv.b", (cfg.latent_dim,))]
    return shapes


FIXED_ARRAYS = ("codec.table", "time.table")


def init_params(cfg: DenoiserConfig, seed: int) -> DenoiserParams:
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in parameter_shapes(cfg):
        if name == "codec.table":
            arrays[name] = init_embedding_table(cfg.latent_dim, cfg.embed_scale)
        elif name == "time.table":
            arrays[name] = sinusoidal_table(cfg.t_steps, cfg.t_embed_dim)
        elif name.endswith(".gain"):
            arrays[name] = np.full(shape, 0.5 if ".adapter." in name else 0.1)
        elif name.endswith("b0") or name.endswith("b1") or name == "input.b":
            arrays[name] = np.zeros(shape)
        else:
            fan_in = shape[0]
            arrays[name] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
    trainable = tuple(n for n, _ in parameter_shapes(cfg) if n not in FIXED_ARRAYS)
    return DenoiserParams(config=cfg, arrays=arrays, trainable=trainable)


def count_params(params: DenoiserParams) -> int:
    return sum(arr.size for arr in params.arrays.values())


def _dense_edges(n_total: int) -> tuple[np.ndarray, np.ndarray]:
    recv, send = np.meshgrid(np.arange(n_total), np.arange(n_total), indexing="ij")
    mask = recv != send
    return recv[mask], send[mask]


def _aggregation(n_total, recv, weights, zero_rows=None) -> np.ndarray:
    agg = np.zeros((n_total, len(recv)))
    agg[recv, np.arange(len(recv))] = weights
    if zero_rows is not None:
        agg[zero_rows] = 0.0
    return agg


def _mlp(tape, getp, prefix, x, final_tanh=True):
    y = T.add(T.matmul(x, getp(f"{prefix}.w0")), getp(f"{prefix}.b0"))
    y = T.tanh(y)
    y = T.add(T.matmul(y, getp(f"{prefix}.w1")), getp(f"{prefix}.b1"))
    return T.tanh(y) if final_tanh else y


_ONES_ROW3 = np.ones((1, 3))


def _traced_rbf(tape, dist_col, centers, gamma):
    """Lift a traced [E,1] distance column through the Gaussian basis."""
    tiled = T.matmul(dist_col, tape.constant(np.ones((1, centers.size))))
    delta = T.sub(tiled, tape.constant(centers))
    return T.exp(T.scale(T.mul(delta, delta), -gamma))


def _message_pass(tape, getp, prefix, h, x, recv, send, node_agg, coord_agg,
                  edge_feat=None, node_mask=None, rbf=None, coord_scale=1.0):
    """One equivariant message-passing pass; returns updated (h, x).

    Messages see the endpoint features and the current pair distance;
    constrained-subgraph passes additionally see the target's RBF vector
    and the current distance lifted through the same basis, so the
    too-close/too-far comparison is a linear feature rather than
    something the MLP has to reinvent. `edge_feat` is then the pair
    (target distance [E,1] in Angstrom, target RBF rows [E,C]).
    """
    hi, hj = T.gather(h, recv), T.gather(h, send)
    xi, xj = T.gather(x, recv), T.gather(x, send)
    diff = T.sub(xi, xj)
    dist = T.reshape(T.norm(diff), (len(recv), 1))
    feats = [hi, hj, dist]
    if edge_feat is not None:
        target_d, target_vec = edge_feat
        # how far the pair currently is from its required distance, in
        # latent units: the steering direction as a linear feature
        gap = T.sub(T.scale(dist, 1.0 / coord_scale), tape.constant(target_d))
        feats.append(T.scale(gap, coord_scale))
        feats.append(tape.constant(target_vec))
        current = _traced_rbf(
            tape, T.scale(dist, 1.0 / coord_scale), rbf.centers, rbf.gamma
        )
        feats.append(current)
    msg = _mlp(tape, getp, f"{prefix}.msg", T.concat(feats, axis=1))

    step = _mlp(tape, getp, f"{prefix}.coord", msg)  # [E, 1], tanh-bounded
    step = T.mul(step, getp(f"{prefix}.coord.gain"))
    step3 = T.matmul(step, tape.constant(_ONES_ROW3))
    x = T.add(x, T.matmul(tape.constant(coord_agg), T.mul(diff, step3)))

    agg = T.matmul(tape.constant(node_agg), msg)
    upd = _mlp(tape, getp, f"{prefix}.node", T.concat([h, agg], axis=1), final_tanh=False)
    if node_mask is not None:
        upd = T.mul(upd, tape.constant(node_mask))
    h = T.add(h, upd)
    return h, x


def trace_noise_prediction(tape: T.Tape, getp, cfg: DenoiserConfig,
                           inv: T.Var, eqv: T.Var, inp: DenoiserInput):
    """Traced forward pass. `inv`/`eqv` are the peptide latents as Vars;
    `getp` resolves parameter names to Vars on the same tape."""
    n = inp.latent.n_nodes
    m = inp.n_context
    total = n + m
    if inp.signals.n_nodes != n:
        raise T.ShapeError(
            f"control signal covers {inp.signals.n_nodes} nodes, latent has {n}"
        )
    if not 1 <= inp.t <= cfg.t_steps:
        raise ValueError(f"diffusion step {inp.t} outside [1, {cfg.t_steps}]")
    if cfg.layers == 0:
        zero_inv = tape.constant(np.zeros((n, cfg.latent_dim)))
        zero_eqv = tape.constant(np.zeros((n, 3)))
        return zero_inv, zero_eqv

    codec_table = getp("codec.table")
    if m:
        ctx_inv = T.gather(codec_table, np.asarray(inp.context_types, dtype=np.int64))
        ctx_eqv = tape.constant(
            (np.asarray(inp.context_coords, dtype=np.float64) - inp.latent.center)
            * cfg.coord_scale
        )
        inv_all = T.concat([inv, ctx_inv], axis=0)
        x = T.concat([eqv, ctx_eqv], axis=0)
    else:
        inv_all = inv
        x = eqv

    signal = np.zeros((total, N_TYPES))
    signal[:n] = inp.signals.node_signal
    t_emb = np.broadcast_to(
        getp("time.table").value[inp.t - 1], (total, cfg.t_embed_dim)
    ).copy()
    ctx_flag = np.zeros((total, 1))
    ctx_flag[n:] = 1.0
    extras = tape.constant(np.concatenate([signal, t_emb, ctx_flag], axis=1))
    h = T.tanh(T.add(T.matmul(T.concat([inv_all, extras], axis=1), getp("input.w")),
                     getp("input.b")))

    recv_full, send_full = _dense_edges(total)
    context_rows = np.arange(n, total)
    node_agg_full = _aggregation(total, recv_full, 1.0 / (total - 1))
    coord_agg_full = _aggregation(total, recv_full, 1.0 / (total - 1), zero_rows=context_rows)

    rbf = cfg.rbf_spec()
    adapter_edges = inp.signals.edges
    if adapter_edges:
        recv_a = np.array([e.i for e in adapter_edges] + [e.j for e in adapter_edges])
        send_a = np.array([e.j for e in adapter_edges] + [e.i for e in adapter_edges])
        vec_a = np.concatenate([np.stack([e.vec for e in adapter_edges])] * 2, axis=0)
        # each edge's target distance, read back from its RBF vector
        feat_a = (rbf.invert(vec_a)[:, None], vec_a)
        node_agg_a = _aggregation(total, recv_a, 1.0)
        coord_agg_a = _aggregation(total, recv_a, 1.0, zero_rows=context_rows)
        incident = np.zeros((total, 1))
        incident[np.unique(np.concatenate([recv_a, send_a]))] = 1.0
        mask_a = np.repeat(incident, cfg.hidden, axis=1)

    x_in = x
    for layer in range(cfg.layers):
        if adapter_edges:
            h, x = _message_pass(
                tape, getp, f"layers.{layer}.adapter", h, x, recv_a, send_a,
                node_agg_a, coord_agg_a, edge_feat=feat_a, node_mask=mask_a,
                rbf=rbf, coord_scale=cfg.coord_scale,
            )
        h, x = _message_pass(
            tape, getp, f"layers.{layer}.main", h, x, recv_full, send_full,
            node_agg_full, coord_agg_full,
        )

    pep = np.arange(n)
    inv_noise = T.add(T.matmul(T.gather(h, pep), getp("out_inv.w")), getp("out_inv.b"))
    eqv_noise = T.sub(T.gather(x, pep), T.gather(x_in, pep))
    return inv_noise, eqv_noise


def predict_noise(params: DenoiserParams, inp: DenoiserInput) -> tuple[np.ndarray, np.ndarray]:
    """Noise estimate for one noisy latent graph under the given conditioning."""
    tape = T.Tape()
    consts = {name: tape.constant(arr) for name, arr in params.arrays.items()}
    inv = tape.constant(inp.latent.inv)
    eqv = tape.constant(inp.latent.eqv)
    out_inv, out_eqv = trace_noise_prediction(
        tape, consts.__getitem__, params.config, inv, eqv, inp
    )
    return out_inv.value, out_eqv.value


def save_checkpoint(params: DenoiserParams, path, run_config: dict | None = None) -> None:
    """Self-describing JSON container; float64 payloads are bit-exact.

    `run_config` may carry the resolved flat configuration of the
    producing run so downstream commands can rebuild the matching noise
    schedule without guessing.
    """
    doc = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "config": asdict(params.config),
        "run_config": dict(run_config or {}),
        "trainable": list(params.trainable),
        "arrays": {
            name: {
                "shape": list(arr.shape),
                "dtype": "<f8",
                "data": base64.b64encode(
                    np.ascontiguousarray(arr, dtype="<f8").tobytes()
                ).decode("ascii"),
            }
            for name, arr in sorted(params.arrays.items())
        },
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


class CheckpointError(ValueError):
    """Unreadable or inconsistent checkpoint file."""


def _read_checkpoint_doc(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise CheckpointError(f"not a checkpoint file: {err.msg}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"not a checkpoint file: top level is a {type(doc).__name__}")
    if doc.get("schema_version") != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(f"unsupported schema version {doc.get('schema_version')}")
    return doc


def load_run_config(path) -> dict:
    run_config = _read_checkpoint_doc(path).get("run_config", {})
    if not isinstance(run_config, dict):
        raise CheckpointError("checkpoint run_config is not an object")
    return dict(run_config)


def load_checkpoint(path) -> DenoiserParams:
    doc = _read_checkpoint_doc(path)
    try:
        cfg = DenoiserConfig(**doc["config"])
        arrays = {}
        for name, spec in doc["arrays"].items():
            raw = base64.b64decode(spec["data"])
            arr = np.frombuffer(raw, dtype=spec["dtype"]).reshape(spec["shape"]).copy()
            arrays[name] = arr
        trainable = tuple(doc["trainable"])
    except KeyError as err:
        raise CheckpointError(f"checkpoint lacks field {err}") from None
    except (TypeError, ValueError, AttributeError) as err:
        raise CheckpointError(f"malformed checkpoint: {err}") from None
    expected = dict(parameter_shapes(cfg))
    if set(arrays) != set(expected):
        raise CheckpointError("checkpoint arrays do not match the declared layout")
    for name, shape in expected.items():
        if arrays[name].shape != shape:
            raise CheckpointError(
                f"array {name} has shape {arrays[name].shape}, expected {shape}"
            )
    return DenoiserParams(config=cfg, arrays=arrays, trainable=trainable)

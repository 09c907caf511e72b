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

Several inputs can be traced together as one disjoint-union graph
(`DenoiserBatch`): every graph's peptide rows, then every graph's context
rows, and every aggregation is a segment sum over receiver-sorted edges
between rows of one graph, so no graph sees another.
"""

from __future__ import annotations

import base64
import functools
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

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
        if self.latent_dim < 1 or self.hidden < 1 or self.layers < 1:
            raise ValueError("latent_dim, hidden and layers must be >= 1")
        if self.t_embed_dim % 2:
            raise ValueError("t_embed_dim must be even")
        if self.t_steps < 1:
            raise ValueError("t_steps must be >= 1")
        if not 0 < self.coord_scale < math.inf:
            raise ValueError(f"coord_scale must be finite and > 0, got {self.coord_scale}")
        if self.embed_scale is not None and not math.isfinite(self.embed_scale):
            raise ValueError(f"embed_scale must be finite, got {self.embed_scale}")
        self.rbf_spec()  # raises on a degenerate basis

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

    @property
    def trainable(self) -> tuple[str, ...]:
        """Every array but FIXED_ARRAYS, in layout order."""
        return tuple(n for n, _ in parameter_shapes(self.config) if n not in FIXED_ARRAYS)

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
    return DenoiserParams(config=cfg, arrays=arrays)


class DenoiserBatch:
    """Several inputs traced as one disjoint-union graph.

    Their peptide rows are stacked in input order in `inv` and `eqv`, and
    `signals` is the union's control signal: node rows stacked the same
    way, constrained edges offset into the stacked rows.
    """

    def __init__(self, inputs: Sequence[DenoiserInput]):
        self.inputs = tuple(inputs)
        for inp in self.inputs:
            if inp.signals.n_nodes != inp.latent.n_nodes:
                raise T.ShapeError(
                    f"control signal covers {inp.signals.n_nodes} nodes, "
                    f"latent has {inp.latent.n_nodes}"
                )
        self.offsets = np.cumsum([0] + [inp.latent.n_nodes for inp in self.inputs])
        self.inv = np.concatenate([inp.latent.inv for inp in self.inputs])
        self.eqv = np.concatenate([inp.latent.eqv for inp in self.inputs])
        sigs = [inp.signals for inp in self.inputs]
        self.signals = ControlSignals(
            node_signal=np.concatenate([s.node_signal for s in sigs]),
            edges=np.concatenate([s.edges + o for s, o in zip(sigs, self.offsets)]),
            edge_dist=np.concatenate([s.edge_dist for s in sigs]),
            # an edgeless signal's RBF rows have shape [0, 0]
            edge_rbf=np.concatenate(
                [s.edge_rbf for s in sigs if len(s.edges)] or [np.zeros((0, 0))]
            ),
            any_clamped=any(s.any_clamped for s in sigs),
        )


def as_batch(inp: DenoiserInput | DenoiserBatch) -> DenoiserBatch:
    """A `DenoiserInput` as a batch of one; a batch as it is."""
    return inp if isinstance(inp, DenoiserBatch) else DenoiserBatch([inp])


@dataclass(frozen=True)
class _Layout:
    """Index arrays of a disjoint union of graphs.

    The union's rows are every graph's peptide nodes, then every graph's
    context nodes, each part in graph order. Dense edges join every
    ordered pair of distinct nodes of one graph, receiver-major with the
    senders in ascending row order, so each receiver's rows are one run.
    """

    block: np.ndarray  # [N] graph of each union row
    recv: np.ndarray  # [R] dense edges
    send: np.ndarray
    fan_in: np.ndarray  # [N] dense edges per receiver, s_b - 1
    mean_w: np.ndarray  # [N, 1] 1 / (s_b - 1)
    coord_w: np.ndarray  # [N, 1] mean_w, zero on context rows


@functools.lru_cache(maxsize=16)
def _layout(blocks: tuple[tuple[int, int], ...]) -> _Layout:
    """Layout for graphs of (peptide, context) node counts; sampling reuses
    one layout for every reverse step, hence the cache."""
    graphs = np.arange(len(blocks))
    pep, ctx = np.array(blocks).T
    block = np.concatenate([np.repeat(graphs, pep), np.repeat(graphs, ctx)])
    mates = block[:, None] == block
    np.fill_diagonal(mates, False)
    recv, send = np.nonzero(mates)
    fan_in = mates.sum(axis=1)
    mean_w = (1.0 / fan_in)[:, None]
    coord_w = mean_w.copy()
    coord_w[pep.sum():] = 0.0
    layout = _Layout(block=block, recv=recv, send=send, fan_in=fan_in,
                     mean_w=mean_w, coord_w=coord_w)
    for arr in vars(layout).values():
        arr.setflags(write=False)  # shared by every forward pass with this layout
    return layout


def _rows(x, w, lo, hi):
    """x @ w[lo:hi], the rows of a traced weight selected by gather."""
    return T.matmul(x, T.gather(w, np.arange(lo, hi)))


def _mlp_tail(getp, prefix, pre0, final_tanh=True):
    """An MLP given its first layer's product, before the bias."""
    y = T.tanh(T.add(pre0, getp(f"{prefix}.b0")))
    y = T.add(T.matmul(y, getp(f"{prefix}.w1")), getp(f"{prefix}.b1"))
    return T.tanh(y) if final_tanh else y


def _mlp(getp, prefix, x, final_tanh=True):
    return _mlp_tail(getp, prefix, T.matmul(x, getp(f"{prefix}.w0")), final_tanh)


def _traced_rbf(tape, dist_col, centers, gamma):
    """Lift a traced [E,1] distance column through the Gaussian basis."""
    delta = T.sub(dist_col, tape.constant(centers))
    return T.exp(T.scale(T.mul(delta, delta), -gamma))


def _message_pass(tape, getp, prefix, h, x, recv, send, fan_in, node_w, coord_w,
                  edge_feat=None, node_mask=None, rbf=None, coord_scale=1.0):
    """One equivariant message-passing pass; returns updated (h, x).

    Edges are receiver-sorted and receiver k has `fan_in[k]` of them.
    Each node sums its incoming messages and coordinate steps, scaled
    per node by `node_w` and `coord_w` ([N,1], None for a plain sum).

    Messages see the endpoint features and the current pair distance;
    constrained-subgraph passes additionally see the target's RBF vector
    and the current distance lifted through the same basis, so the
    too-close/too-far comparison is a linear feature rather than
    something the MLP has to reinvent. `edge_feat` is then the pair
    (target distance [E,1] in Angstrom, target RBF rows [E,C]).
    """
    width = h.value.shape[1]
    xi, xj = T.gather(x, recv), T.gather(x, send)
    diff = T.sub(xi, xj)
    dist = T.norm(diff)
    feats = [dist]
    if edge_feat is not None:
        target_d, target_vec = edge_feat
        # how far the pair currently is from its required distance, in
        # latent units: the steering direction as a linear feature
        dist_a = T.scale(dist, 1.0 / coord_scale)  # in Angstrom
        gap = T.sub(dist_a, tape.constant(target_d))
        feats.append(T.scale(gap, coord_scale))
        feats.append(tape.constant(target_vec))
        feats.append(_traced_rbf(tape, dist_a, rbf.centers, rbf.gamma))
    # the first message layer is linear in [h_recv | h_send | edge
    # features], so the node parts are multiplied per node, then gathered
    w0 = getp(f"{prefix}.msg.w0")
    edge_in = feats[0] if len(feats) == 1 else T.concat(feats, axis=1)
    pre0 = T.add(
        T.add(T.gather(_rows(h, w0, 0, width), recv),
              T.gather(_rows(h, w0, width, 2 * width), send)),
        _rows(edge_in, w0, 2 * width, w0.value.shape[0]),
    )
    msg = _mlp_tail(getp, f"{prefix}.msg", pre0)

    step = _mlp(getp, f"{prefix}.coord", msg)  # [E, 1], tanh-bounded
    step = T.mul(step, getp(f"{prefix}.coord.gain"))
    x = T.add(x, T.segment_sum(T.mul(diff, step), fan_in, coord_w))

    agg = T.segment_sum(msg, fan_in, node_w)
    upd = _mlp(getp, f"{prefix}.node", T.concat([h, agg], axis=1), final_tanh=False)
    if node_mask is not None:
        upd = T.mul(upd, tape.constant(node_mask))
    h = T.add(h, upd)
    return h, x


def trace_noise_prediction(tape: T.Tape, getp, cfg: DenoiserConfig,
                           inv: T.Var, eqv: T.Var, inp: DenoiserInput | DenoiserBatch):
    """Traced forward pass over one `DenoiserInput` or a `DenoiserBatch`.

    `inv`/`eqv` are the peptide latents as Vars, a batch's stacked as in
    `DenoiserBatch.inv`; the outputs stack the same way. `getp` resolves
    parameter names to Vars on the same tape."""
    batch = as_batch(inp)
    for one in batch.inputs:
        if not 1 <= one.t <= cfg.t_steps:
            raise ValueError(f"diffusion step {one.t} outside [1, {cfg.t_steps}]")
    n = int(batch.offsets[-1])
    lay = _layout(tuple((one.latent.n_nodes, one.n_context) for one in batch.inputs))
    total = len(lay.block)
    inv_all, x = inv, eqv
    if total > n:
        with_ctx = [one for one in batch.inputs if one.n_context]
        ctx_types = np.concatenate([one.context_types for one in with_ctx]).astype(np.int64)
        ctx_eqv = np.concatenate([
            (np.asarray(one.context_coords, dtype=np.float64) - one.latent.center)
            * cfg.coord_scale
            for one in with_ctx
        ])
        inv_all = T.concat([inv, T.gather(getp("codec.table"), ctx_types)], axis=0)
        x = T.concat([eqv, tape.constant(ctx_eqv)], axis=0)

    signal = np.zeros((total, N_TYPES))
    signal[:n] = batch.signals.node_signal
    steps = np.array([one.t - 1 for one in batch.inputs])
    t_emb = getp("time.table").value[steps[lay.block]]
    ctx_flag = np.ones((total, 1))
    ctx_flag[:n] = 0.0
    extras = tape.constant(np.concatenate([signal, t_emb, ctx_flag], axis=1))
    h = T.tanh(T.add(T.matmul(T.concat([inv_all, extras], axis=1), getp("input.w")),
                     getp("input.b")))

    rbf = cfg.rbf_spec()
    sig = batch.signals
    constrained = len(sig.edges) > 0
    if constrained:
        # both directions of each constrained edge, sorted by receiver
        pairs = np.concatenate([sig.edges, sig.edges[:, ::-1]])
        by_recv = np.argsort(pairs[:, 0], kind="stable")
        recv_a, send_a = pairs[by_recv].T
        feat_a = (np.tile(sig.edge_dist, 2)[by_recv, None],
                  np.tile(sig.edge_rbf, (2, 1))[by_recv])
        fan_in_a = np.bincount(recv_a, minlength=total)
        mask_a = (fan_in_a > 0).astype(np.float64)[:, None]

    for layer in range(cfg.layers):
        if constrained:
            # a sum over constrained edges; context nodes have none, so
            # their rows stay put
            h, x = _message_pass(
                tape, getp, f"layers.{layer}.adapter", h, x, recv_a, send_a,
                fan_in_a, None, None, edge_feat=feat_a, node_mask=mask_a,
                rbf=rbf, coord_scale=cfg.coord_scale,
            )
        h, x = _message_pass(
            tape, getp, f"layers.{layer}.main", h, x, lay.recv, lay.send,
            lay.fan_in, lay.mean_w, lay.coord_w,
        )

    if total > n:
        peptide = np.arange(n)
        h, x = T.gather(h, peptide), T.gather(x, peptide)
    inv_noise = T.add(T.matmul(h, getp("out_inv.w")), getp("out_inv.b"))
    eqv_noise = T.sub(x, eqv)
    return inv_noise, eqv_noise


def predict_noise(params: DenoiserParams,
                  inp: DenoiserInput | DenoiserBatch) -> tuple[np.ndarray, np.ndarray]:
    """Noise estimate for one noisy latent graph, or a batch's stacked
    estimates, under the given conditioning."""
    batch = as_batch(inp)
    tape = T.Tape()

    def getp(name):
        # an array enters the tape only if this pass reads it
        return tape.constant(params.arrays[name])

    out_inv, out_eqv = trace_noise_prediction(
        tape, getp, params.config, tape.constant(batch.inv), tape.constant(batch.eqv), batch
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
        # derived from the layout: written for readers, never read back
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
        # a field left out would take its default, which need not be the
        # value the arrays were trained with
        missing = sorted({f.name for f in fields(DenoiserConfig)} - set(doc["config"]))
        if missing:
            raise ValueError(f"config lacks fields {missing}")
        cfg = DenoiserConfig(**doc["config"])
        arrays = {}
        for name, spec in doc["arrays"].items():
            if spec["dtype"] != "<f8":
                raise ValueError(f"array {name} has dtype {spec['dtype']!r}, not '<f8'")
            raw = base64.b64decode(spec["data"])
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(spec["shape"]).copy()
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
        if not np.all(np.isfinite(arrays[name])):
            raise CheckpointError(f"array {name} holds non-finite values")
    return DenoiserParams(config=cfg, arrays=arrays)

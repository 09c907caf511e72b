"""Span tracing for the pepring benchmark, installed from outside the package.

`Tracer.install()` wraps the public function at each module boundary of
`pepring` and rebinds the wrapper under every name that refers to the
original, so `pepring.diffusion.predict_noise` is traced as well as
`pepring.denoiser.predict_noise`. `Tracer.uninstall()` puts the originals
back. Nothing under `src/` is edited.

A span records its name, start, end, parent span and operation id (the
index of the CLI command it ran under). Spans live in flat in-memory
columns and are written out once, by `Tracer.save`, when the run ends.
Pool workers forked by `pepring sample --workers N` inherit the wrappers;
each worker spools its spans to a file at the end of every task, and the
parent merges them back under the pool span of the same command.

Self time is a span's duration minus the part of it that its child spans
cover. Children in one process nest and never overlap, so their durations
add up; pool tasks run side by side, so under the pool span the covered
time is the union of their intervals.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Tape primitives: every traced op of the denoiser, the loss and the
# energy gradient goes through one of these.
PRIMITIVES = ("add", "sub", "mul", "div", "scale", "matmul", "reduce_sum", "broadcast",
              "exp", "tanh", "norm", "concat", "gather", "reshape")

NO_PARENT = -1
POOL_SPAN = "cli.pool"


def _matmul_cost(tracer, args):
    # Computed from operand shapes; this CPU has no hardware counter to read.
    a, b = args[0].value, args[1].value
    m, k = a.shape
    n = b.shape[1] if b.ndim == 2 else 1
    tracer.counters["matmul_flop"] += 2.0 * m * k * n
    tracer.counters["matmul_bytes"] += 8.0 * (m * k + k * n + m * n)


def _adapter_edges(tracer, args):
    tracer.counters["adapter_edges"] += len(args[5].signals.edges)


def _file_size(position, counter):
    def hook(tracer, args):
        tracer.counters[counter] += os.path.getsize(args[position])
    return hook


def _targets():
    """(owner, attribute, span name, pre-call hook, post-call hook) to wrap."""
    import multiprocessing.pool

    from pepring import cli, constraints, denoiser, diffusion, encoding, graph, metrics, tensor

    checkpoint_size = _file_size(0, "checkpoint_bytes")
    targets = [(tensor, p, f"tensor.{p}", None, None) for p in PRIMITIVES]
    targets[PRIMITIVES.index("matmul")] = (tensor, "matmul", "tensor.matmul", _matmul_cost, None)
    return targets + [
        (tensor.Tape, "leaf", "tensor.leaf", None, None),
        (tensor.Tape, "constant", "tensor.constant", None, None),
        (tensor, "backward", "tensor.backward", None, None),
        (denoiser, "predict_noise", "denoiser.predict_noise", None, None),
        (denoiser, "trace_noise_prediction", "denoiser.forward", _adapter_edges, None),
        (denoiser, "load_checkpoint", "denoiser.checkpoint_load", None, checkpoint_size),
        (denoiser, "load_run_config", "denoiser.checkpoint_load", None, checkpoint_size),
        (denoiser, "save_checkpoint", "denoiser.checkpoint_save", None,
         _file_size(1, "checkpoint_bytes")),
        (diffusion, "sample", "diffusion.sample", None, None),
        # private, but a reverse step has no public boundary
        (diffusion, "_guided_noise", "diffusion.reverse_step", None, None),
        (diffusion, "latent_energy_gradient", "diffusion.energy_grad", None, None),
        (diffusion, "noise_loss", "diffusion.noise_loss", None, None),
        (diffusion, "train", "diffusion.train", None, None),
        (diffusion.AdamW, "step", "diffusion.adamw_step", None, None),
        (encoding, "encode_pair", "encoding.encode_pair", None, None),
        (constraints, "sample_type_constraint", "constraints.design_sample", None, None),
        (constraints, "sample_distance_constraint", "constraints.design_sample", None, None),
        (constraints, "check_satisfaction", "constraints.check", None, None),
        (graph, "read_structures", "graph.read", None, _file_size(0, "graph_bytes_read")),
        (graph, "write_structures", "graph.write", None, _file_size(0, "graph_bytes_written")),
        (graph, "generate_chain", "graph.generate_chain", None, None),
        (metrics, "evaluate", "metrics.evaluate", None, None),
        (metrics, "pseudo_dihedral_kl", "metrics.dihedral_kl", None, None),
        (cli, "main", "cli.main", None, None),
        # the pool's task function: the root span inside each worker
        (cli, "_sample_one", "cli.sample_one", None, None),
        (multiprocessing.pool.Pool, "starmap", POOL_SPAN, None, None),
    ]


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.counters: dict[str, float] = defaultdict(float)
        self.op_id = 0
        self.active = False
        self.stack = [NO_PARENT]
        self.in_child = False
        self._fork_depth = 0
        self._flushes = 0
        self._patches: list[tuple[object, str, object]] = []
        self.worker_spans: list[int] = []
        self._reset_columns()
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ---------------------------------------------------------

    def _reset_columns(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.op = array("i")

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def _counter_arrays(self) -> dict[str, np.ndarray]:
        return {
            "counter_keys": np.array(list(self.counters), dtype=str),
            "counter_values": np.array(list(self.counters.values()), dtype=float),
        }

    def _after_fork(self):
        if not self.active:
            return
        # Spans recorded so far belong to the parent. A worker stores a
        # link to a parent-process span as -2 - id.
        self.in_child = True
        self.stack = [-2 - p if p >= 0 else p for p in self.stack]
        self._fork_depth = len(self.stack)
        self._reset_columns()
        self.counters = defaultdict(float)

    def _flush_worker(self):
        path = self.spool_dir / f"spans-{os.getpid()}-{self._flushes}.npz"
        self._flushes += 1
        np.savez(path, **self.columns(), **self._counter_arrays())
        self._reset_columns()
        self.counters = defaultdict(float)

    def wrap(self, fn, name: str, pre=None, post=None):
        """`fn` recording one span per call; hooks update `counters`."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        perf = time.perf_counter
        t = self

        def traced(*args, **kwargs):
            i = len(t.start)
            t.start.append(0.0)
            t.end.append(0.0)
            t.name.append(nid)
            t.parent.append(t.stack[-1])
            t.op.append(t.op_id)
            t.stack.append(i)
            if pre is not None:
                pre(t, args)
            t.start[i] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t.end[i] = perf()
                t.stack.pop()
                if t.in_child and len(t.stack) == t._fork_depth:
                    t._flush_worker()  # a pool task ended, even by raising
            if post is not None:
                post(t, args)
            return out

        return functools.update_wrapper(traced, fn)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target and rebind it in each pepring module that holds it."""
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        modules = [m for n, m in sys.modules.items() if n == "pepring" or n.startswith("pepring.")]
        for owner, attr, name, pre, post in _targets():
            original = getattr(owner, attr)
            traced = self.wrap(original, name, pre, post)
            if isinstance(owner, type):
                self._patch(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, traced)
        self.active = True

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False
        self._merge_spool()

    def _merge_spool(self):
        """Append worker spans, re-parenting each task root to its pool span."""
        paths = sorted(self.spool_dir.glob("spans-*.npz"))
        if not paths:
            return
        cols = self.columns()
        pools = np.flatnonzero(cols["name"] == self._name_ids[POOL_SPAN])
        pool_of_op = dict(zip(cols["op"][pools].tolist(), pools.tolist()))
        for path in paths:
            with np.load(path) as part:
                offset = len(self.start)
                raw = part["parent"]
                parent = np.where(raw >= 0, raw + offset, -2 - raw)
                parent[raw == NO_PARENT] = NO_PARENT
                for i in np.flatnonzero(raw < NO_PARENT):
                    parent[i] = pool_of_op.get(int(part["op"][i]), parent[i])
                self.start.extend(part["start"].tolist())
                self.end.extend(part["end"].tolist())
                self.name.extend(part["name"].tolist())
                self.parent.extend(parent.tolist())
                self.op.extend(part["op"].tolist())
                self.worker_spans.extend(range(offset, len(self.start)))
                for key, value in zip(part["counter_keys"].tolist(),
                                      part["counter_values"].tolist()):
                    self.counters[key] += value
            path.unlink()

    def save(self, path: Path, self_time: np.ndarray) -> None:
        np.savez(path, **self.columns(), **self._counter_arrays(), self_time=self_time,
                 names=np.array(self.names, dtype=str),
                 worker_spans=np.array(self.worker_spans, dtype=np.int64))


class SpanTable:
    """Read-only view of recorded spans, with self times."""

    def __init__(self, tracer: Tracer):
        cols = tracer.columns()
        self.names = tracer.names
        self.counters = dict(tracer.counters)
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.op = cols["op"]
        self.start = cols["start"]
        self.duration = cols["end"] - cols["start"]
        self.self_time = self.duration - self._covered(np.array(tracer.worker_spans, dtype=np.int64))

    def _covered(self, workers: np.ndarray) -> np.ndarray:
        covered = np.zeros_like(self.duration)
        in_worker = np.zeros(len(self.duration), dtype=bool)
        in_worker[workers] = True
        # task roots: worker spans hanging under a parent-process span
        roots = in_worker & (self.parent >= 0)
        roots[roots] = ~in_worker[self.parent[roots]]
        nested = (self.parent >= 0) & ~roots
        np.add.at(covered, self.parent[nested], self.duration[nested])
        intervals: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for i in np.flatnonzero(roots).tolist():
            intervals[int(self.parent[i])].append((self.start[i], self.start[i] + self.duration[i]))
        for p, spans in intervals.items():
            spans.sort()
            total, (lo, hi) = 0.0, spans[0]
            for s, e in spans[1:]:
                if s > hi:
                    total += hi - lo
                    lo, hi = s, e
                else:
                    hi = max(hi, e)
            covered[p] += total + hi - lo
        return covered

    def mask(self, *names: str, setup: bool = False) -> np.ndarray:
        """Spans with one of `names`, from the workload's commands or,
        with `setup`, from the traced set-up (operation id -1)."""
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids) & ((self.op < 0) if setup else (self.op >= 0))

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total_ms(self, *names: str, setup: bool = False) -> float:
        return 1e3 * float(self.duration[self.mask(*names, setup=setup)].sum())

    def self_ms(self, *names: str) -> float:
        return 1e3 * float(self.self_time[self.mask(*names)].sum())

    def percentile_ms(self, name: str, q: float) -> float:
        d = self.duration[self.mask(name)]
        return 1e3 * float(np.percentile(d, q)) if d.size else 0.0

    def children_of(self, parent_name: str, child_name: str) -> int:
        parents = np.flatnonzero(self.mask(parent_name))
        children = self.mask(child_name) & np.isin(self.parent, parents)
        return int(children.sum())

"""Dense float64 values with a reverse-mode differentiation tape.

Every traced value is a numpy float64 array wrapped in a :class:`Var`.
Applying a primitive appends one record to the owning :class:`Tape`; the
records are already in topological order (an input must exist before the
op that consumes it runs), so :func:`backward` is a single reverse sweep
that visits each record exactly once.

The primitive surface is intentionally small: exactly what the denoiser,
the training loss and the constraint-energy gradient need. `add`, `sub`,
`mul` and `div` broadcast their operands as numpy does.

Traced values are treated as immutable. `leaf` and `constant` alias the
arrays they are given, so callers must not mutate those buffers while
the tape is still in use.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

# Smoothing inside the traced euclidean norm. Keeps value and gradient
# consistent and finite at coincident points; raw norms for constraint
# checking live outside the tape.
NORM_EPS = 1e-10


def _assert_finite(name: str, arr: np.ndarray) -> None:
    # A non-finite element always contaminates the sum, so one reduction
    # guards the whole array; the exact check only re-runs on the rare
    # non-finite sum (which can also be a huge-but-finite overflow).
    if not math.isfinite(float(arr.sum())) and not np.all(np.isfinite(arr)):
        raise FloatingPointError(f"{name}: produced non-finite values")


class ShapeError(ValueError):
    """Operand shapes incompatible with a primitive."""


class Var:
    """A float64 array recorded on a tape."""

    __slots__ = ("tape", "vid", "value")

    def __init__(self, tape: "Tape", vid: int, value: np.ndarray):
        self.tape = tape
        self.vid = vid
        self.value = value

    def __repr__(self):
        return f"Var(vid={self.vid}, shape={self.value.shape})"


class Tape:
    """Ordered record of primitive applications plus the values they made.

    One tape per differentiation task; a tape must stay on the thread
    that built it. Records are (output id, input ids, vjp) where ``vjp``
    maps the output adjoint to one adjoint array per input.
    """

    def __init__(self):
        self._records: list[tuple[int, tuple[int, ...], Callable]] = []
        self._next_id = 0

    def _make(self, value: np.ndarray) -> Var:
        vid = self._next_id
        self._next_id += 1
        return Var(self, vid, value)

    def leaf(self, value) -> Var:
        """Register a differentiable input."""
        arr = np.asarray(value, dtype=np.float64)
        _assert_finite("leaf", arr)
        return self._make(arr)

    def constant(self, value) -> Var:
        """Register a value that never receives a gradient."""
        arr = np.asarray(value, dtype=np.float64)
        _assert_finite("constant", arr)
        return self._make(arr)

    def _record(self, name: str, out_value: np.ndarray, inputs: Sequence[Var], vjp: Callable) -> Var:
        _assert_finite(name, out_value)
        out = self._make(out_value)
        self._records.append((out.vid, tuple(v.vid for v in inputs), vjp))
        return out


def backward(tape: Tape, output: Var, seed: float = 1.0) -> dict[int, np.ndarray]:
    """Accumulate adjoints of a scalar output back to the tape's inputs.

    Each record's adjoint is dropped once the sweep has passed it, so the
    returned map holds leaves and constants only. Those the output does
    not depend on are absent; read them through :func:`gradient`, which
    fills zeros.
    """
    if output.value.shape != ():
        raise ShapeError(
            f"backward: output must be a scalar, got shape {output.value.shape}"
        )
    adjoints: dict[int, np.ndarray] = {output.vid: np.asarray(float(seed))}
    for out_id, in_ids, vjp in reversed(tape._records):
        g = adjoints.pop(out_id, None)
        if g is None:
            continue
        for vid, contrib in zip(in_ids, vjp(g)):
            if contrib is None:
                continue
            acc = adjoints.get(vid)
            adjoints[vid] = contrib if acc is None else acc + contrib
    return adjoints


def gradient(adjoints: dict[int, np.ndarray], var: Var) -> np.ndarray:
    """Adjoint of one value; zeros when the output never touched it."""
    g = adjoints.get(var.vid)
    return np.zeros_like(var.value) if g is None else np.asarray(g, dtype=np.float64)


def _same_tape(name: str, *vars_: Var) -> Tape:
    tape = vars_[0].tape
    for v in vars_[1:]:
        if v.tape is not tape:
            raise ValueError(f"{name}: operands recorded on different tapes")
    return tape


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an adjoint back to an operand's shape: over the leading axes the
    operand lacks and over each axis where it has size 1."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    ones = tuple(lead + k for k, d in enumerate(shape) if d == 1)
    return g.sum(axis=tuple(range(lead)) + ones, keepdims=True).reshape(shape)


def _elementwise(name: str, op, x: Var, y: Var) -> np.ndarray:
    try:
        return op(x.value, y.value)
    except ValueError:
        raise ShapeError(
            f"{name}: operand shapes {x.value.shape} and {y.value.shape} are incompatible"
        ) from None


def add(x: Var, y: Var) -> Var:
    tape = _same_tape("add", x, y)
    out = _elementwise("add", np.add, x, y)
    # capture shapes, not the Vars: a Var points back at its tape, and a
    # vjp that held one would keep every tape alive as cyclic garbage
    sx, sy = x.value.shape, y.value.shape

    def vjp(g):
        return (_unbroadcast(g, sx), _unbroadcast(g, sy))

    return tape._record("add", out, (x, y), vjp)


def sub(x: Var, y: Var) -> Var:
    tape = _same_tape("sub", x, y)
    out = _elementwise("sub", np.subtract, x, y)
    sx, sy = x.value.shape, y.value.shape

    def vjp(g):
        return (_unbroadcast(g, sx), -_unbroadcast(g, sy))

    return tape._record("sub", out, (x, y), vjp)


def mul(x: Var, y: Var) -> Var:
    tape = _same_tape("mul", x, y)
    out = _elementwise("mul", np.multiply, x, y)
    xv, yv = x.value, y.value

    def vjp(g):
        return (_unbroadcast(g * yv, xv.shape), _unbroadcast(g * xv, yv.shape))

    return tape._record("mul", out, (x, y), vjp)


def div(x: Var, y: Var) -> Var:
    tape = _same_tape("div", x, y)
    out = _elementwise("div", np.divide, x, y)
    xv, yv = x.value, y.value

    def vjp(g):
        return (
            _unbroadcast(g / yv, xv.shape),
            _unbroadcast(-g * xv / (yv * yv), yv.shape),
        )

    return tape._record("div", out, (x, y), vjp)


def scale(x: Var, factor: float) -> Var:
    def vjp(g):
        return (g * factor,)

    return x.tape._record("scale", x.value * factor, (x,), vjp)


def matmul(a: Var, b: Var) -> Var:
    tape = _same_tape("matmul", a, b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeError(
            f"matmul: operand shapes {av.shape} and {bv.shape} are incompatible"
        )

    def vjp(g):
        return (g @ bv.T, av.T @ g)

    return tape._record("matmul", av @ bv, (a, b), vjp)


def reduce_sum(x: Var, axis=None, keepdims: bool = False) -> Var:
    shape = x.value.shape
    out = x.value.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

    return x.tape._record("sum", np.asarray(out), (x,), vjp)


def broadcast(x: Var, leading: tuple[int, ...]) -> Var:
    """Tile a value across new leading axes.

    The model does not use it; the benchmark's tracer (perfbench/spans.py)
    wraps it by name.
    """
    leading = tuple(int(d) for d in leading)
    out_shape = leading + x.value.shape

    def vjp(g):
        return (g.sum(axis=tuple(range(len(leading)))),)

    return x.tape._record(
        "broadcast", np.broadcast_to(x.value, out_shape).copy(), (x,), vjp
    )


def exp(x: Var) -> Var:
    out = np.exp(x.value)

    def vjp(g):
        return (g * out,)

    return x.tape._record("exp", out, (x,), vjp)


def tanh(x: Var) -> Var:
    out = np.tanh(x.value)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return x.tape._record("tanh", out, (x,), vjp)


def norm(x: Var) -> Var:
    """Euclidean norm along the last axis, kept as an axis of size 1,
    smoothed near zero.

    Computes sqrt(|x|^2 + NORM_EPS); the smoothing is part of the traced
    function, so analytic and finite-difference gradients agree and the
    gradient at the origin is exactly zero rather than NaN.
    """
    xv = x.value
    if xv.ndim < 1:
        raise ShapeError("norm: input must have at least one axis")
    out = np.sqrt((xv * xv).sum(axis=-1, keepdims=True) + NORM_EPS)

    def vjp(g):
        return ((g / out) * xv,)

    return x.tape._record("norm", out, (x,), vjp)


def concat(parts: Sequence[Var], axis: int = -1) -> Var:
    if not parts:
        raise ShapeError("concat: needs at least one operand")
    tape = _same_tape("concat", *parts)
    values = [p.value for p in parts]
    ref = values[0].shape
    for v in values[1:]:
        if v.ndim != len(ref):
            raise ShapeError(
                f"concat: operand shapes {ref} and {v.shape} are incompatible"
            )
    out = np.concatenate(values, axis=axis)
    ax = axis if axis >= 0 else out.ndim + axis
    sizes = [v.shape[ax] for v in values]
    offsets = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, offsets, axis=ax))

    return tape._record("concat", out, tuple(parts), vjp)


def gather(x: Var, index) -> Var:
    """Select rows (axis 0) by an integer index array."""
    idx = np.asarray(index, dtype=np.int64)
    xv = x.value
    if idx.ndim != 1:
        raise ShapeError("gather: index must be one-dimensional")
    if xv.ndim < 1:
        raise ShapeError("gather: input must have at least one axis")
    if idx.size and (idx.min() < 0 or idx.max() >= xv.shape[0]):
        raise ShapeError(
            f"gather: index range [{idx.min()}, {idx.max()}] outside axis of length {xv.shape[0]}"
        )
    shape, width = xv.shape, math.prod(xv.shape[1:])

    def vjp(g):
        # scatter-add as one bincount over flat (row, column) bins; like
        # np.add.at it adds each bin's terms in input order
        flat = (idx[:, None] * width + np.arange(width)).ravel()
        z = np.bincount(flat, weights=g.ravel(), minlength=shape[0] * width)
        return (z.reshape(shape),)

    return x.tape._record("gather", xv[idx], (x,), vjp)


def segment_sum(x: Var, counts, weights=None) -> Var:
    """Sum consecutive runs of rows: run k is the next counts[k] rows.

    An empty run gives a zero row. The runs must cover every row of x.
    With `weights` ([K, 1] constants), run k's sum is scaled by weights[k].
    """
    counts = np.asarray(counts, dtype=np.int64)
    xv = x.value
    ends = counts.cumsum()
    if counts.ndim != 1 or not len(counts) or ends[-1] != len(xv) or counts.min() < 0:
        raise ShapeError(f"segment_sum: runs of {counts.sum()} rows in all, input has {len(xv)}")
    full = counts > 0
    if full.all():
        out = np.add.reduceat(xv, ends - counts, axis=0)
    else:
        out = np.zeros((len(counts),) + xv.shape[1:])
        if full.any():
            out[full] = np.add.reduceat(xv, (ends - counts)[full], axis=0)
    if weights is not None:
        out = out * weights

    def vjp(g):
        return (np.repeat(g if weights is None else g * weights, counts, axis=0),)

    return x.tape._record("segment_sum", out, (x,), vjp)


def reshape(x: Var, shape) -> Var:
    shape = tuple(int(d) for d in shape)
    in_shape = x.value.shape

    def vjp(g):
        return (g.reshape(in_shape),)

    return x.tape._record("reshape", x.value.reshape(shape), (x,), vjp)

"""Lifting constraints to the control signals consumed by the denoiser.

Type constraints become one-hot rows on the constrained nodes (zero rows
elsewhere); distance constraints become radial-basis vectors attached to
exactly the constrained edges. Unconstrained edges are represented by
absence, not by a sentinel vector. Both encodings read indices, types
and scalar distances only, so they are invariant to any rigid motion of
the graph by construction, and distinct constraints map to distinct
signals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constraints import ConstraintPair, TypeConstraint
from .graph import N_TYPES


@dataclass(frozen=True)
class RbfSpec:
    """Evenly spaced Gaussian bumps over a distance range.

    Each bump's width matches the center spacing: gamma = 1 / (2 spacing^2).
    """

    channels: int
    d_min: float
    d_max: float

    def __post_init__(self):
        if self.channels < 2:
            raise ValueError("need at least 2 RBF channels")
        if not (math.isfinite(self.d_min) and math.isfinite(self.d_max)):
            raise ValueError(f"RBF range must be finite, got [{self.d_min}, {self.d_max}]")
        if not self.d_max > self.d_min:
            raise ValueError("d_max must exceed d_min")
        spacing = (self.d_max - self.d_min) / (self.channels - 1)
        object.__setattr__(self, "gamma", 1.0 / (2.0 * spacing * spacing))
        centers = np.linspace(self.d_min, self.d_max, self.channels)
        centers.setflags(write=False)
        object.__setattr__(self, "_centers", centers)

    @property
    def centers(self) -> np.ndarray:
        return self._centers

    def lift(self, distance) -> tuple[np.ndarray, bool]:
        """RBF rows for distances, [...] -> [..., channels].

        Out-of-range distances are clamped into [d_min, d_max]; the flag
        says whether any was.
        """
        d = np.asarray(distance, dtype=np.float64)
        clamped = bool(np.any((d < self.d_min) | (d > self.d_max)))
        delta = np.clip(d, self.d_min, self.d_max)[..., None] - self.centers
        return np.exp(-self.gamma * (delta * delta)), clamped


@dataclass(frozen=True)
class ControlSignals:
    """Denoiser-ready form of one constraint pair, as plain arrays.

    Row k of `edges`, `edge_dist` and `edge_rbf` is the k-th constrained
    node pair (i < j), its target distance clamped into the basis range,
    and the RBF row of that distance.
    """

    node_signal: np.ndarray  # [n, N_TYPES]
    edges: np.ndarray = field(default_factory=lambda: np.zeros((0, 2), dtype=np.int64))  # [E, 2]
    edge_dist: np.ndarray = field(default_factory=lambda: np.zeros(0))  # [E]
    edge_rbf: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))  # [E, C]
    any_clamped: bool = False

    @property
    def n_nodes(self) -> int:
        return self.node_signal.shape[0]


def encode_type(c: TypeConstraint, n_nodes: int) -> np.ndarray:
    """One-hot row per constrained node, exact zero rows elsewhere."""
    signal = np.zeros((n_nodes, N_TYPES))
    for node, t in c.entries:
        if node >= n_nodes:
            raise ValueError(f"type constraint node {node} outside graph of {n_nodes}")
        signal[node, t] = 1.0
    return signal


def encode_pair(pair: ConstraintPair, n_nodes: int, spec: RbfSpec) -> ControlSignals:
    """Joint signal; an empty side contributes its unconditional form."""
    for i, j in pair.dists.pairs():
        if j >= n_nodes:
            raise ValueError(f"distance constraint pair ({i},{j}) outside graph of {n_nodes}")
    dist = np.array([d for _, _, d in pair.dists.entries], dtype=np.float64)
    edge_rbf, any_clamped = spec.lift(dist)
    return ControlSignals(
        node_signal=encode_type(pair.types, n_nodes),
        edges=np.array(pair.dists.pairs(), dtype=np.int64).reshape(-1, 2),
        edge_dist=np.clip(dist, spec.d_min, spec.d_max),
        edge_rbf=edge_rbf,
        any_clamped=any_clamped,
    )


def unconditional(n_nodes: int) -> ControlSignals:
    """The signal fed to the no-constraint branch: zero rows, no edges."""
    return ControlSignals(node_signal=np.zeros((n_nodes, N_TYPES)))

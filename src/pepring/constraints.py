"""Unit geometric constraints, ring-closure strategies, samplers, checking.

Two constraint kinds exist: a node must carry a given residue type, or a
node pair must sit at a given C-alpha distance. Every supported
cyclization strategy reduces to a small set of these units, and strategy
combinations are plain set unions, so arbitrary multi-ring targets
compose from the same vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .graph import AA_INDEX, AA_LETTERS, CYS, ASP, GLU, LYS, N_TYPES, GeometricGraph

MAX_TYPE_ENTRIES = 4
MAX_DISTANCE_ENTRIES = 6
SAMPLED_SEPARATIONS = (3, 4, 6)

STAPLED_D = "stapled-d"
STAPLED_E = "stapled-e"
HEAD_TO_TAIL = "head-to-tail"
DISULFIDE = "disulfide"
BICYCLE = "bicycle"
STRATEGY_KINDS = (STAPLED_D, STAPLED_E, HEAD_TO_TAIL, DISULFIDE, BICYCLE)


class ConstraintError(ValueError):
    """Invalid constraint construction or application."""


class ConstraintConflictError(ConstraintError):
    """Two unit constraints demand incompatible things."""


@dataclass(frozen=True)
class TypeConstraint:
    entries: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        seen: dict[int, int] = {}
        for node, t in self.entries:
            node, t = int(node), int(t)
            if node < 0:
                raise ConstraintError(f"negative node index {node}")
            if not 0 <= t < N_TYPES:
                raise ConstraintError(f"type index {t} outside [0, {N_TYPES})")
            if node in seen and seen[node] != t:
                raise ConstraintConflictError(
                    f"node {node} required to be both "
                    f"{AA_LETTERS[seen[node]]} and {AA_LETTERS[t]}"
                )
            seen[node] = t
        object.__setattr__(self, "entries", tuple(sorted(seen.items())))

    def nodes(self) -> tuple[int, ...]:
        return tuple(n for n, _ in self.entries)

    def required_types(self) -> set[int]:
        return {t for _, t in self.entries}


@dataclass(frozen=True)
class DistanceConstraint:
    entries: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        seen: dict[tuple[int, int], float] = {}
        for i, j, d in self.entries:
            i, j, d = int(i), int(j), float(d)
            if i == j:
                raise ConstraintError(f"distance entry needs two distinct nodes, got ({i}, {j})")
            if i < 0 or j < 0:
                raise ConstraintError(f"negative node index in pair ({i}, {j})")
            if not np.isfinite(d) or d <= 0:
                raise ConstraintError(f"distance for pair ({i}, {j}) must be positive, got {d}")
            key = (min(i, j), max(i, j))
            if key in seen and seen[key] != d:
                raise ConstraintConflictError(
                    f"pair {key} required at both {seen[key]:.3f} and {d:.3f} Angstrom"
                )
            seen[key] = d
        object.__setattr__(
            self, "entries", tuple((i, j, d) for (i, j), d in sorted(seen.items()))
        )

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, j, _ in self.entries)


@dataclass(frozen=True)
class ConstraintPair:
    """One conditioning target: a type set and a distance set, either may be empty."""

    types: TypeConstraint = field(default_factory=TypeConstraint)
    dists: DistanceConstraint = field(default_factory=DistanceConstraint)

    def max_node(self) -> int:
        nodes = list(self.types.nodes()) + [j for _, j, _ in self.dists.entries]
        return max(nodes) if nodes else -1


EMPTY_PAIR = ConstraintPair()


@dataclass(frozen=True)
class LinkLengths:
    """Target C-alpha spans for each linkage chemistry, in Angstrom."""

    lys_asp: float = 5.0
    lys_glu: float = 5.5
    head_tail: float = 3.8
    disulfide: float = 5.5
    bicycle_side: float = 6.0


@dataclass(frozen=True)
class StrategySpec:
    kind: str
    anchors: tuple[int, ...] = ()
    lengths: LinkLengths = field(default_factory=LinkLengths)

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ConstraintError(f"unknown strategy kind {self.kind!r}")
        object.__setattr__(self, "anchors", tuple(int(a) for a in self.anchors))


ANCHOR_COUNTS = {STAPLED_D: 1, STAPLED_E: 1, HEAD_TO_TAIL: 0, DISULFIDE: 2, BICYCLE: 3}


def decompose(spec: StrategySpec, n_residues: int) -> ConstraintPair:
    """Unit constraints realizing one ring-closure strategy on an n-residue chain."""
    n = int(n_residues)
    k, anchors, L = spec.kind, spec.anchors, spec.lengths
    expected = ANCHOR_COUNTS[k]
    if len(anchors) != expected:
        raise ConstraintError(f"{k} takes {expected} anchor(s), got {len(anchors)}")
    if any(a < 0 or a >= n for a in anchors):
        raise ConstraintError(f"{k} anchors {anchors} outside chain of length {n}")

    if k == STAPLED_D:
        (i,) = anchors
        if i + 3 >= n:
            raise ConstraintError(f"stapled-d anchor {i} needs partner {i + 3} < {n}")
        return ConstraintPair(
            TypeConstraint(((i, LYS), (i + 3, ASP))),
            DistanceConstraint(((i, i + 3, L.lys_asp),)),
        )
    if k == STAPLED_E:
        (i,) = anchors
        if i + 4 >= n:
            raise ConstraintError(f"stapled-e anchor {i} needs partner {i + 4} < {n}")
        return ConstraintPair(
            TypeConstraint(((i, LYS), (i + 4, GLU))),
            DistanceConstraint(((i, i + 4, L.lys_glu),)),
        )
    if k == HEAD_TO_TAIL:
        if n < 2:
            raise ConstraintError("head-to-tail needs at least two residues")
        return ConstraintPair(
            TypeConstraint(), DistanceConstraint(((0, n - 1, L.head_tail),))
        )
    if k == DISULFIDE:
        i, j = anchors
        if abs(i - j) < 2:
            raise ConstraintError(f"disulfide anchors {i}, {j} must be non-adjacent in sequence")
        return ConstraintPair(
            TypeConstraint(((i, CYS), (j, CYS))),
            DistanceConstraint(((i, j, L.disulfide),)),
        )
    # bicycle
    i, j, m = anchors
    for a, b in ((i, j), (i, m), (j, m)):
        if abs(a - b) < 2:
            raise ConstraintError(f"bicycle anchors {a}, {b} must be non-adjacent in sequence")
    return ConstraintPair(
        TypeConstraint(((i, CYS), (j, CYS), (m, CYS))),
        DistanceConstraint(
            ((i, j, L.bicycle_side), (i, m, L.bicycle_side), (j, m, L.bicycle_side))
        ),
    )


def compose(pairs: Sequence[ConstraintPair]) -> ConstraintPair:
    """Set union of unit constraints; incompatible demands raise."""
    type_entries: list[tuple[int, int]] = []
    dist_entries: list[tuple[int, int, float]] = []
    for p in pairs:
        type_entries.extend(p.types.entries)
        dist_entries.extend(p.dists.entries)
    return ConstraintPair(TypeConstraint(tuple(type_entries)), DistanceConstraint(tuple(dist_entries)))


def sample_type_constraint(g: GeometricGraph, rng: np.random.Generator) -> TypeConstraint:
    """Uniform draw from the training design space of type constraints.

    Size is uniform over 0..4 (capped by the peptide length); required
    types are the graph's own ground-truth types.
    """
    n = g.n_peptide
    if n < 1:
        raise ConstraintError("graph has no peptide nodes")
    size = int(rng.integers(0, min(MAX_TYPE_ENTRIES, n) + 1))
    nodes = rng.choice(n, size=size, replace=False)
    return TypeConstraint(tuple((int(i), int(g.peptide_types[i])) for i in nodes))


@lru_cache(maxsize=64)
def candidate_separated_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(
        (i, i + s)
        for s in SAMPLED_SEPARATIONS
        for i in range(n - s)
    )


def sample_distance_constraint(g: GeometricGraph, rng: np.random.Generator) -> DistanceConstraint:
    """Uniform draw from the training design space of distance constraints.

    Pairs are restricted to sequence separations 3, 4 or 6; distances are
    the graph's true C-alpha distances; at most 6 entries.
    """
    n = g.n_peptide
    if n < 4:
        raise ConstraintError(f"distance sampling needs at least 4 residues, got {n}")
    pool = candidate_separated_pairs(n)
    size = int(rng.integers(0, min(MAX_DISTANCE_ENTRIES, len(pool)) + 1))
    chosen = rng.choice(len(pool), size=size, replace=False)
    x = g.peptide_coords
    entries = []
    for idx in chosen:
        i, j = pool[int(idx)]
        entries.append((i, j, float(np.linalg.norm(x[i] - x[j]))))
    return DistanceConstraint(tuple(entries))


@dataclass(frozen=True)
class CheckEntry:
    kind: str  # "type" or "distance"
    nodes: tuple[int, ...]
    expected: float
    actual: float
    passed: bool

    def describe(self) -> str:
        if self.kind == "type":
            return (
                f"type node {self.nodes[0]}: want {AA_LETTERS[int(self.expected)]}, "
                f"got {AA_LETTERS[int(self.actual)]}: {'ok' if self.passed else 'FAIL'}"
            )
        i, j = self.nodes
        return (
            f"distance ({i},{j}): want {self.expected:.3f}, got {self.actual:.3f}: "
            f"{'ok' if self.passed else 'FAIL'}"
        )


@dataclass(frozen=True)
class SatisfactionReport:
    entries: tuple[CheckEntry, ...]
    passed: bool


def check_satisfaction(g: GeometricGraph, pair: ConstraintPair, tol: float) -> SatisfactionReport:
    """Per-entry pass/fail: exact type match, distances within the closed
    tolerance `tol` (Angstrom)."""
    n = g.n_peptide
    if pair.max_node() >= n:
        raise ConstraintError(
            f"constraint references node {pair.max_node()} but peptide has {n} residues"
        )
    rows = []
    for node, want in pair.types.entries:
        got = int(g.peptide_types[node])
        rows.append(CheckEntry("type", (node,), float(want), float(got), got == want))
    x = g.peptide_coords
    for i, j, want in pair.dists.entries:
        got = float(np.linalg.norm(x[i] - x[j]))
        rows.append(CheckEntry("distance", (i, j), want, got, abs(got - want) <= tol))
    return SatisfactionReport(tuple(rows), all(r.passed for r in rows))


def canonical_text(pair: ConstraintPair) -> str:
    """Stable plain-text form: sorted entries, 3-decimal distances."""
    lines = [f"type {node} {AA_LETTERS[t]}" for node, t in pair.types.entries]
    lines += [f"dist {i} {j} {d:.3f}" for i, j, d in pair.dists.entries]
    return "\n".join(lines) + ("\n" if lines else "")


def parse_constraint_text(text: str) -> ConstraintPair:
    """Inverse of canonical_text; blank lines and # comments allowed."""
    type_entries: list[tuple[int, int]] = []
    dist_entries: list[tuple[int, int, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "type" and len(fields) == 3:
                type_entries.append((int(fields[1]), AA_INDEX[fields[2].upper()]))
                continue
            if fields[0] == "dist" and len(fields) == 4:
                dist_entries.append((int(fields[1]), int(fields[2]), float(fields[3])))
                continue
        except (KeyError, ValueError):
            pass
        raise ConstraintError(f"line {lineno}: cannot parse constraint entry {raw!r}")
    return ConstraintPair(TypeConstraint(tuple(type_entries)), DistanceConstraint(tuple(dist_entries)))

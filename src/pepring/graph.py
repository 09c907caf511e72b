"""Peptides as geometric graphs: data model, synthetic chains, codec, file I/O.

A graph is a list of residues, each carrying an amino-acid type index and
a C-alpha coordinate in Angstrom. Peptide nodes are the generated part;
optional context nodes (a binding-site stand-in) are fixed and listed
after the peptide block.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

AA_LETTERS = "ACDEFGHIKLMNPQRSTVWY"
N_TYPES = len(AA_LETTERS)
AA_INDEX = {c: i for i, c in enumerate(AA_LETTERS)}

CYS = AA_INDEX["C"]
ASP = AA_INDEX["D"]
GLU = AA_INDEX["E"]
LYS = AA_INDEX["K"]

BOND_LENGTH_MEAN = 3.8
BOND_LENGTH_STD = 0.05
BOND_ANGLE_RANGE = (80.0, 160.0)  # degrees, at the chain vertex
MIN_NONCONSECUTIVE_DIST = 3.0
CHAIN_LENGTH_RANGE = (4, 25)

STRUCTURE_SCHEMA_VERSION = 1


class StructureError(ValueError):
    """Malformed structure record or file."""


class ChainGenerationError(RuntimeError):
    """Self-avoiding placement failed after the retry budget."""


@dataclass(frozen=True)
class GeometricGraph:
    """Typed point cloud of residues; peptide block first, then context."""

    types: np.ndarray  # int64 [n_total]
    coords: np.ndarray  # float64 [n_total, 3]
    is_context: np.ndarray  # bool [n_total]

    def __post_init__(self):
        types = np.ascontiguousarray(self.types, dtype=np.int64)
        coords = np.ascontiguousarray(self.coords, dtype=np.float64)
        is_context = np.ascontiguousarray(self.is_context, dtype=bool)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise StructureError(f"coords must be [n, 3], got {coords.shape}")
        n = coords.shape[0]
        if types.shape != (n,) or is_context.shape != (n,):
            raise StructureError("types / is_context length mismatch with coords")
        if not np.all(np.isfinite(coords)):
            raise StructureError("coordinates contain non-finite values")
        if n and (types.min() < 0 or types.max() >= N_TYPES):
            raise StructureError(f"type index outside [0, {N_TYPES})")
        n_ctx = int(is_context.sum())
        if n_ctx and not np.all(is_context[n - n_ctx:]):
            raise StructureError("context nodes must come after all peptide nodes")
        for name, arr in (("types", types), ("coords", coords), ("is_context", is_context)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_n_context", n_ctx)

    @classmethod
    def from_parts(cls, types, coords, context_types=None, context_coords=None) -> "GeometricGraph":
        types = np.asarray(types, dtype=np.int64)
        coords = np.asarray(coords, dtype=np.float64)
        n_pep = len(types)
        if context_types is None:
            context_types = np.zeros(0, dtype=np.int64)
            context_coords = np.zeros((0, 3), dtype=np.float64)
        context_types = np.asarray(context_types, dtype=np.int64)
        context_coords = np.asarray(context_coords, dtype=np.float64).reshape(-1, 3)
        return cls(
            types=np.concatenate([types, context_types]),
            coords=np.concatenate([coords.reshape(-1, 3), context_coords]),
            is_context=np.concatenate(
                [np.zeros(n_pep, dtype=bool), np.ones(len(context_types), dtype=bool)]
            ),
        )

    @property
    def n_total(self) -> int:
        return self.coords.shape[0]

    @property
    def n_context(self) -> int:
        return self._n_context

    @property
    def n_peptide(self) -> int:
        return self.coords.shape[0] - self._n_context

    @property
    def peptide_types(self) -> np.ndarray:
        return self.types[: self.n_peptide]

    @property
    def peptide_coords(self) -> np.ndarray:
        return self.coords[: self.n_peptide]

    @property
    def context_types(self) -> np.ndarray:
        return self.types[self.n_peptide:]

    @property
    def context_coords(self) -> np.ndarray:
        return self.coords[self.n_peptide:]

    def sequence(self) -> str:
        return "".join(AA_LETTERS[t] for t in self.peptide_types)


@dataclass(frozen=True)
class LatentGraph:
    """Per-peptide-node latents plus the coordinate frame used to build them.

    `inv` rows are rigid-motion invariant; `eqv` rows rotate with the
    input coordinates. `center` records the centering offset so decoding
    is an exact inverse.
    """

    inv: np.ndarray  # float64 [n, F]
    eqv: np.ndarray  # float64 [n, 3]
    center: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "inv", np.asarray(self.inv, dtype=np.float64))
        object.__setattr__(self, "eqv", np.asarray(self.eqv, dtype=np.float64))
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))

    @property
    def n_nodes(self) -> int:
        return self.inv.shape[0]

    def replace(self, inv=None, eqv=None) -> "LatentGraph":
        return LatentGraph(
            inv=self.inv if inv is None else inv,
            eqv=self.eqv if eqv is None else eqv,
            center=self.center,
        )


@dataclass(frozen=True)
class CodecParams:
    """Type-embedding table and coordinate normalization of the latent codec."""

    table: np.ndarray  # [N_TYPES, latent_dim]
    coord_scale: float = 0.1  # 1/Angstrom

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        if table.ndim != 2 or table.shape[0] != N_TYPES:
            raise ValueError(f"embedding table must be [{N_TYPES}, F], got {table.shape}")
        if self.coord_scale <= 0:
            raise ValueError("coord_scale must be positive")
        object.__setattr__(self, "table", table)


# Fixed projection seed for the embedding init; frozen so that decoding
# margins verified once stay verified.
_EMBED_PROJECTION_SEED = 20240713


def init_embedding_table(latent_dim: int = 8, scale: float | None = None) -> np.ndarray:
    """Well-separated type embeddings: simplex vertices projected down.

    The N_TYPES simplex vertices in R^N_TYPES are projected onto a fixed
    orthonormal basis of R^latent_dim, row-normalized, then spread apart
    by a deterministic repulsion on the sphere (the raw projection can
    leave rows nearly collinear in low dimensions). Equal row norms make
    argmax-of-dot decoding equivalent to nearest-row decoding; the final
    pairwise margin is asserted so a bad table can never ship silently.
    """
    if scale is None:
        scale = math.sqrt(latent_dim)
    vertices = np.eye(N_TYPES) - 1.0 / N_TYPES
    rng = np.random.default_rng(_EMBED_PROJECTION_SEED)
    basis, _ = np.linalg.qr(rng.standard_normal((N_TYPES, latent_dim)))
    rows = vertices @ basis
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    sharpness, step = 12.0, 0.05
    for _ in range(400):
        gram = rows @ rows.T
        np.fill_diagonal(gram, -np.inf)
        weights = np.exp(sharpness * (gram - gram.max()))
        np.fill_diagonal(weights, 0.0)
        rows -= step * (weights @ rows) / (weights.sum(axis=1, keepdims=True) + 1e-9)
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows *= scale
    gram = rows @ rows.T
    cross = gram - np.diag(np.diag(gram))
    margin = float(np.min(np.diag(gram)) - np.max(cross))
    if margin < 0.04 * scale * scale:
        raise RuntimeError(f"embedding rows insufficiently separated (margin {margin:.4f})")
    return rows


def centering_point(g: GeometricGraph) -> np.ndarray:
    """Context centroid when context exists, else peptide centroid."""
    if g.n_context:
        return g.context_coords.mean(axis=0)
    return g.peptide_coords.mean(axis=0)


def encode_latent(g: GeometricGraph, codec: CodecParams) -> LatentGraph:
    center = centering_point(g)
    return LatentGraph(
        inv=codec.table[g.peptide_types],
        eqv=(g.peptide_coords - center) * codec.coord_scale,
        center=center,
    )


def decode_types(inv: np.ndarray, codec: CodecParams) -> np.ndarray:
    # np.argmax takes the lowest index on ties.
    return np.argmax(inv @ codec.table.T, axis=1).astype(np.int64)


def decode_latent(z: LatentGraph, codec: CodecParams) -> GeometricGraph:
    return GeometricGraph.from_parts(
        types=decode_types(z.inv, codec),
        coords=z.eqv / codec.coord_scale + z.center,
    )


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _perpendicular_frame(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    axis = np.zeros(3)
    axis[np.argmin(np.abs(u))] = 1.0
    p = _unit(np.cross(u, axis))
    return p, np.cross(u, p)


def generate_chain(length: int, seed: int, type_distribution=None) -> GeometricGraph:
    """Self-avoiding random C-alpha chain with realistic local geometry.

    Bond lengths are N(3.8, 0.05) Angstrom, vertex angles uniform in
    (80, 160) degrees, and every non-consecutive pair stays further than
    3.0 Angstrom apart. A clashing draw retries the whole chain; failure
    after 1000 attempts raises with the seed echoed.
    """
    lo, hi = CHAIN_LENGTH_RANGE
    if not lo <= length <= hi:
        raise ValueError(f"chain length must be in [{lo}, {hi}], got {length}")
    if type_distribution is None:
        type_distribution = np.full(N_TYPES, 1.0 / N_TYPES)
    type_distribution = np.asarray(type_distribution, dtype=np.float64)
    if type_distribution.shape != (N_TYPES,) or np.any(type_distribution < 0):
        raise ValueError("type distribution must be 20 non-negative weights")
    if not math.isclose(type_distribution.sum(), 1.0, rel_tol=0, abs_tol=1e-9):
        raise ValueError("type distribution must sum to 1")

    rng = np.random.default_rng(seed)
    types = rng.choice(N_TYPES, size=length, p=type_distribution).astype(np.int64)
    ang_lo, ang_hi = (math.radians(a) for a in BOND_ANGLE_RANGE)

    for _ in range(1000):
        coords = np.zeros((length, 3))
        direction = _unit(rng.standard_normal(3))
        coords[1] = coords[0] + rng.normal(BOND_LENGTH_MEAN, BOND_LENGTH_STD) * direction
        ok = True
        for i in range(2, length):
            theta = rng.uniform(ang_lo, ang_hi)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            u = _unit(coords[i - 1] - coords[i - 2])
            p, q = _perpendicular_frame(u)
            # vertex angle theta between the two bonds meeting at i-1
            cos_a = -math.cos(theta)
            sin_a = math.sin(theta)
            direction = cos_a * u + sin_a * (math.cos(phi) * p + math.sin(phi) * q)
            coords[i] = coords[i - 1] + rng.normal(BOND_LENGTH_MEAN, BOND_LENGTH_STD) * direction
            gaps = np.linalg.norm(coords[: i - 1] - coords[i], axis=1)
            if gaps.size and gaps.min() <= MIN_NONCONSECUTIVE_DIST:
                ok = False
                break
        if ok:
            return GeometricGraph.from_parts(types=types, coords=coords)
    raise ChainGenerationError(
        f"could not place a self-avoiding chain of length {length} (seed {seed})"
    )


def _format_coords(coords: np.ndarray) -> str:
    return "[" + ",".join(
        "[%.6f,%.6f,%.6f]" % (row[0], row[1], row[2]) for row in coords
    ) + "]"


def format_structure(g: GeometricGraph) -> str:
    """Canonical one-line record: fixed field order, 6-decimal coordinates."""
    parts = [
        '"types":[%s]' % ",".join(str(int(t)) for t in g.peptide_types),
        '"coords":%s' % _format_coords(g.peptide_coords),
    ]
    if g.n_context:
        parts.append('"context_types":[%s]' % ",".join(str(int(t)) for t in g.context_types))
        parts.append('"context_coords":%s' % _format_coords(g.context_coords))
    return "{" + ",".join(parts) + "}"


def _parse_coords(raw, lineno: int, key: str) -> np.ndarray:
    if not isinstance(raw, list):
        raise StructureError(f"line {lineno}: {key} must be a list")
    for entry in raw:
        if not isinstance(entry, list) or len(entry) != 3 or not all(
            isinstance(v, (int, float)) for v in entry
        ):
            raise StructureError(f"line {lineno}: {key} entries must be [x, y, z]")
    return np.asarray(raw, dtype=np.float64).reshape(-1, 3)


def _parse_types(raw, lineno: int, key: str) -> np.ndarray:
    if not isinstance(raw, list) or not all(isinstance(t, int) for t in raw):
        raise StructureError(f"line {lineno}: {key} must be a list of integers")
    arr = np.asarray(raw, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= N_TYPES):
        raise StructureError(f"line {lineno}: {key} index outside [0, {N_TYPES})")
    return arr


def parse_structure(line: str, lineno: int = 1) -> GeometricGraph:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise StructureError(f"line {lineno}: invalid record ({err.msg})") from None
    if not isinstance(obj, dict):
        raise StructureError(f"line {lineno}: record must be an object")
    unknown = set(obj) - {"types", "coords", "context_types", "context_coords"}
    if unknown:
        raise StructureError(f"line {lineno}: unknown fields {sorted(unknown)}")
    if "types" not in obj or "coords" not in obj:
        raise StructureError(f"line {lineno}: missing types or coords")
    types = _parse_types(obj["types"], lineno, "types")
    coords = _parse_coords(obj["coords"], lineno, "coords")
    if len(types) != len(coords):
        raise StructureError(f"line {lineno}: types and coords lengths differ")
    if ("context_types" in obj) != ("context_coords" in obj):
        raise StructureError(f"line {lineno}: context fields must appear together")
    ctx_types = ctx_coords = None
    if "context_types" in obj:
        ctx_types = _parse_types(obj["context_types"], lineno, "context_types")
        ctx_coords = _parse_coords(obj["context_coords"], lineno, "context_coords")
        if len(ctx_types) != len(ctx_coords):
            raise StructureError(f"line {lineno}: context lengths differ")
    try:
        return GeometricGraph.from_parts(types, coords, ctx_types, ctx_coords)
    except StructureError as err:
        raise StructureError(f"line {lineno}: {err}") from None


def read_structures(path) -> list[GeometricGraph]:
    graphs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            graphs.append(parse_structure(line, lineno))
    return graphs


def write_structures(path, graphs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for g in graphs:
            fh.write(format_structure(g))
            fh.write("\n")

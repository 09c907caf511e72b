"""Shared test oracles: finite differences, rigid motions, and numpy
references for what the package computes another way."""

import numpy as np

from pepring.graph import MIN_NONCONSECUTIVE_DIST


def fd_gradient(f, x, h=1e-5):
    """Central finite differences of a scalar function at x, one entry at a time."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def count_params(params) -> int:
    """Scalars in every array of a `DenoiserParams`, fixed tables included."""
    return sum(arr.size for arr in params.arrays.values())


def max_rel_err(analytic, numeric, floor=1e-6):
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float(np.max(np.abs(a - n) / denom)) if a.size else 0.0


def random_rotation(rng, allow_reflection=True):
    """Random orthogonal 3x3 matrix; half the draws are reflections when allowed."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if allow_reflection:
        if rng.random() < 0.5:
            q[:, 0] = -q[:, 0]
    elif np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def linf_distance(a, b) -> float:
    """Largest elementwise gap between two control signals.

    Edges are matched by node pair; an edge present in only one signal
    is compared against a zero RBF row.
    """
    if a.node_signal.shape != b.node_signal.shape:
        raise ValueError("signals cover different node counts")
    gap = float(np.max(np.abs(a.node_signal - b.node_signal))) if a.node_signal.size else 0.0
    rows_a = dict(zip(map(tuple, a.edges.tolist()), a.edge_rbf))
    rows_b = dict(zip(map(tuple, b.edges.tolist()), b.edge_rbf))
    for key in rows_a.keys() | rows_b.keys():
        gap = max(gap, float(np.max(np.abs(rows_a.get(key, 0.0) - rows_b.get(key, 0.0)))))
    return gap


def energy_of(pair, g) -> float:
    """Constraint-violation energy: zero exactly when the graph satisfies it.

    Distance entries contribute their squared deviation; type entries
    contribute the 0/1 mismatch indicator.
    """
    n = g.n_peptide
    if pair.max_node() >= n:
        raise ValueError(f"constraint references node {pair.max_node()}, graph has {n}")
    x = g.peptide_coords
    total = 0.0
    for i, j, d in pair.dists.entries:
        total += (float(np.linalg.norm(x[i] - x[j])) - d) ** 2
    for node, want in pair.types.entries:
        total += 0.0 if int(g.peptide_types[node]) == want else 1.0
    return total


def chain_geometry_ok(g) -> bool:
    """Training-data geometry: bond lengths in (2, 6) and no clashes."""
    x = g.peptide_coords
    bonds = np.linalg.norm(np.diff(x, axis=0), axis=1)
    if np.any(bonds <= 2.0) or np.any(bonds >= 6.0):
        return False
    n = len(x)
    for i in range(n):
        for j in range(i + 2, n):
            if np.linalg.norm(x[i] - x[j]) <= MIN_NONCONSECUTIVE_DIST:
                return False
    return True

"""Evaluation metrics at C-alpha scale.

Success rate follows the at-least-one-of-k convention: a target counts
as solved when any of its candidate peptides passes the constraint
check. Distribution fidelity is measured as KL divergences over amino
acid composition and over pseudo-dihedral angles (the torsion of four
consecutive C-alpha positions). Signed dihedrals flip sign under
reflection, so reflected generations shift the angle histogram; that
covariance is intentional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .constraints import ConstraintPair, check_satisfaction
from .graph import N_TYPES, GeometricGraph

HISTOGRAM_SMOOTHING = 1e-6
DIHEDRAL_BINS = 36


def kl_divergence(ref_counts, gen_counts, smoothing: float = HISTOGRAM_SMOOTHING) -> float:
    """KL(ref || gen) between two count histograms after additive smoothing."""
    p = np.asarray(ref_counts, dtype=np.float64) + smoothing
    q = np.asarray(gen_counts, dtype=np.float64) + smoothing
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("histograms must be equal-length vectors")
    p = p / p.sum()
    q = q / q.sum()
    return float(np.sum(p * np.log(p / q)))


def type_histogram(graphs: Sequence[GeometricGraph], excluded: frozenset[int] = frozenset()):
    keep = [t for t in range(N_TYPES) if t not in excluded]
    counts = np.zeros(N_TYPES)
    for g in graphs:
        counts += np.bincount(g.peptide_types, minlength=N_TYPES)
    return counts[keep]


def aa_kl(
    reference: Sequence[GeometricGraph],
    generated: Sequence[GeometricGraph],
    excluded_types=frozenset(),
) -> float:
    """Amino-acid composition divergence, skipping constrained types.

    Types forced by the evaluated constraint are removed from both
    histograms before renormalizing, since successful designs must
    deviate from the reference on exactly those types.
    """
    if not reference or not generated:
        raise ValueError("need non-empty reference and generated sets")
    excluded = frozenset(int(t) for t in excluded_types)
    if len(excluded) >= N_TYPES:
        raise ValueError("cannot exclude every type")
    return kl_divergence(
        type_histogram(reference, excluded), type_histogram(generated, excluded)
    )


def pseudo_dihedral(p1, p2, p3, p4) -> float:
    """Signed torsion angle of four points, in (-pi, pi].

    A window without a torsion reads 0: collinear points get it from
    atan2(0, 0), and a zero-length middle bond (p2 == p3), whose axis is
    undefined, gets it explicitly.
    """
    b1 = np.asarray(p2, dtype=np.float64) - p1
    b2 = np.asarray(p3, dtype=np.float64) - p2
    b3 = np.asarray(p4, dtype=np.float64) - p3
    axis_len = np.linalg.norm(b2)
    if not axis_len > 0.0:
        return 0.0
    n1 = np.cross(b1, b2)
    n2 = np.cross(b2, b3)
    y = float(np.cross(n1, n2) @ (b2 / axis_len))
    x = float(n1 @ n2)
    angle = math.atan2(y, x)
    return math.pi if angle == -math.pi else angle


def dihedral_angles(g: GeometricGraph) -> np.ndarray:
    x = g.peptide_coords
    if g.n_peptide < 4:
        raise ValueError(f"need at least 4 residues for a dihedral, got {g.n_peptide}")
    return np.array([
        pseudo_dihedral(x[i], x[i + 1], x[i + 2], x[i + 3])
        for i in range(g.n_peptide - 3)
    ])


def dihedral_histogram(graphs: Sequence[GeometricGraph], bins: int = DIHEDRAL_BINS):
    """Counts over (-pi, pi] bins that are open on the left, closed on the right."""
    width = 2.0 * math.pi / bins
    counts = np.zeros(bins)
    for g in graphs:
        for angle in dihedral_angles(g):
            idx = min(max(math.ceil((angle + math.pi) / width) - 1, 0), bins - 1)
            counts[idx] += 1
    return counts


def pseudo_dihedral_kl(
    reference: Sequence[GeometricGraph],
    generated: Sequence[GeometricGraph],
    bins: int = DIHEDRAL_BINS,
) -> float:
    if not reference or not generated:
        raise ValueError("need non-empty reference and generated sets")
    return kl_divergence(
        dihedral_histogram(reference, bins), dihedral_histogram(generated, bins)
    )


@dataclass(frozen=True)
class TargetResult:
    target_id: str
    n_samples: int
    n_passed: int

    @property
    def solved(self) -> bool:
        return self.n_passed > 0


@dataclass(frozen=True)
class MetricReport:
    success_rate: float
    aa_kl: float
    dihedral_kl: float
    targets: tuple[TargetResult, ...]
    excluded_types: tuple[int, ...]
    tolerance: float

    def lines(self) -> list[str]:
        out = [
            f"success_rate {self.success_rate:.6f}",
            f"aa_kl {self.aa_kl:.6f}",
            f"dihedral_kl {self.dihedral_kl:.6f}",
        ]
        for t in self.targets:
            out.append(
                f"target {t.target_id}: {t.n_passed}/{t.n_samples} pass "
                f"-> {'solved' if t.solved else 'unsolved'}"
            )
        return out


def success_rate(
    samples: Mapping[str, Sequence[GeometricGraph]],
    constraints: Mapping[str, ConstraintPair],
    tol: float,
) -> tuple[float, tuple[TargetResult, ...]]:
    """Fraction of targets with at least one satisfying candidate, and
    each target's pass count."""
    if not samples:
        raise ValueError("no targets to evaluate")
    results = []
    for target_id in samples:
        if target_id not in constraints:
            raise KeyError(f"no constraint recorded for target {target_id!r}")
        group = samples[target_id]
        if not group:
            raise ValueError(f"target {target_id!r} has no samples")
        passed = sum(
            1 for g in group if check_satisfaction(g, constraints[target_id], tol).passed
        )
        results.append(TargetResult(str(target_id), len(group), passed))
    rate = sum(r.solved for r in results) / len(results)
    return rate, tuple(results)


def evaluate(
    samples: Mapping[str, Sequence[GeometricGraph]],
    constraints: Mapping[str, ConstraintPair],
    reference: Sequence[GeometricGraph],
    tol: float,
    bins: int = DIHEDRAL_BINS,
) -> MetricReport:
    """Full metric suite over per-target sample groups.

    Types constrained by any target are excluded from the composition
    histogramming; side-chain statistics do not exist at C-alpha scale
    and are deliberately absent from the report.
    """
    rate, targets = success_rate(samples, constraints, tol)
    excluded = frozenset(
        t for pair in constraints.values() for t in pair.types.required_types()
    )
    pooled = [g for group in samples.values() for g in group]
    return MetricReport(
        success_rate=rate,
        aa_kl=aa_kl(reference, pooled, excluded),
        dihedral_kl=pseudo_dihedral_kl(reference, pooled, bins),
        targets=targets,
        excluded_types=tuple(sorted(excluded)),
        tolerance=tol,
    )

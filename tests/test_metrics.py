import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_rotation
from pepring import constraints as C
from pepring import graph as G
from pepring import metrics as M


def brute_force_kl(ref, gen, smoothing=1e-6):
    p = [r + smoothing for r in ref]
    q = [g + smoothing for g in gen]
    ps, qs = sum(p), sum(q)
    return sum((pi / ps) * math.log((pi / ps) / (qi / qs)) for pi, qi in zip(p, q))


class TestKl:
    def test_identical_histograms_zero(self):
        h = np.arange(1.0, 21.0)
        assert M.kl_divergence(h, h) <= 1e-12

    def test_matches_brute_force_20_bins(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ref = rng.integers(0, 50, size=20).astype(float)
            gen = rng.integers(0, 50, size=20).astype(float)
            assert M.kl_divergence(ref, gen) == pytest.approx(
                brute_force_kl(ref, gen), abs=1e-12
            )

    def test_matches_brute_force_36_bins(self):
        rng = np.random.default_rng(1)
        ref = rng.integers(0, 100, size=36).astype(float)
        gen = rng.integers(0, 100, size=36).astype(float)
        assert M.kl_divergence(ref, gen) == pytest.approx(
            brute_force_kl(ref, gen), abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 100), min_size=8, max_size=8),
        st.lists(st.integers(0, 100), min_size=8, max_size=8),
    )
    def test_non_negative_and_zero_iff_equal(self, ref, gen):
        value = M.kl_divergence(ref, gen)
        assert value >= 0.0
        if ref == gen:
            assert value <= 1e-12
        rp = np.array(ref, float) / max(sum(ref), 1)
        gp = np.array(gen, float) / max(sum(gen), 1)
        if np.max(np.abs(rp - gp)) > 1e-3 and sum(ref) and sum(gen):
            assert value > 0.0


class TestAaKl:
    def test_self_is_zero(self):
        graphs = [G.generate_chain(10, seed=s) for s in range(5)]
        assert M.aa_kl(graphs, graphs) <= 1e-12

    def test_exclusion_removes_constrained_types(self):
        cys_only = np.zeros(G.N_TYPES)
        cys_only[G.CYS] = 1.0
        ref = [G.generate_chain(10, seed=1)]
        all_cys = [G.generate_chain(10, seed=2, type_distribution=cys_only)]
        with_cys = M.aa_kl(ref, all_cys)
        without = M.aa_kl(ref, all_cys, excluded_types={G.CYS})
        assert with_cys > without
        hist = M.type_histogram(all_cys, frozenset({G.CYS}))
        assert hist.sum() == 0.0 and hist.size == G.N_TYPES - 1

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            M.aa_kl([], [G.generate_chain(5, seed=0)])


class TestPseudoDihedral:
    def test_planar_trans_is_pi(self):
        angle = M.pseudo_dihedral([0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 1, 0])
        assert abs(angle) == pytest.approx(math.pi, abs=1e-12)

    def test_planar_cis_is_zero(self):
        angle = M.pseudo_dihedral([0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0])
        assert angle == pytest.approx(0.0, abs=1e-12)

    def test_right_handed_quarter_turn(self):
        angle = M.pseudo_dihedral([0, 0, -1], [0, 0, 0], [1, 0, 0], [1, 1, 0])
        assert angle == pytest.approx(math.pi / 2, abs=1e-12)

    def test_rigid_motion_invariant_reflection_flips_sign(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(4, 3)) * 3.0
        base = M.pseudo_dihedral(*pts)
        for _ in range(10):
            rot = random_rotation(rng, allow_reflection=False)
            shift = rng.uniform(-5, 5, 3)
            moved = pts @ rot.T + shift
            assert M.pseudo_dihedral(*moved) == pytest.approx(base, abs=1e-9)
        mirrored = pts * np.array([1.0, 1.0, -1.0])
        assert M.pseudo_dihedral(*mirrored) == pytest.approx(-base, abs=1e-9)

    def test_kl_self_zero(self):
        graphs = [G.generate_chain(12, seed=s) for s in range(4)]
        assert M.pseudo_dihedral_kl(graphs, graphs) <= 1e-12

    def test_histogram_boundaries(self):
        width = 2 * math.pi / 36
        trans = G.GeometricGraph.from_parts(
            [0, 0, 0, 0], [[0, 0, 0], [1, 0, 0], [1, 1, 0], [2, 1, 0]]
        )
        counts = M.dihedral_histogram([trans])
        assert counts[35] == 1.0  # +pi closes the last bin
        cis = G.GeometricGraph.from_parts(
            [0, 0, 0, 0], [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
        )
        counts = M.dihedral_histogram([cis])
        assert counts[17] == 1.0  # angle 0 is the right edge of bin 17
        assert math.isclose((-math.pi + 18 * width), 0.0, abs_tol=1e-12)

    def test_zero_length_middle_bond_is_zero(self):
        p, q, r = [0.0, 0.0, 0.0], [1.0, 2.0, 0.5], [2.0, 0.0, 3.0]
        assert M.pseudo_dihedral(p, q, q, r) == 0.0


def _passing_graph():
    types = [0, G.CYS, 0, 0, G.CYS, 0]
    coords = [[-3, 0, 0], [0, 0, 0], [2, 3, 0], [4, 3, 0], [5.5, 0, 0], [8, -1, 0]]
    return G.GeometricGraph.from_parts(types, coords)


def _failing_graph():
    g = _passing_graph()
    coords = g.peptide_coords.copy()
    coords[4] = [20.0, 0.0, 0.0]
    return G.GeometricGraph.from_parts(g.peptide_types, coords)


class TestSuccessRate:
    def pair(self):
        return C.decompose(C.StrategySpec(C.DISULFIDE, (1, 4)), 6)

    def test_all_pass(self):
        samples = {"a": [_passing_graph()], "b": [_passing_graph()]}
        constraints = {k: self.pair() for k in samples}
        assert M.success_rate(samples, constraints, tol=0.5)[0] == 1.0

    def test_one_pass_among_five_counts(self):
        samples = {"a": [_failing_graph()] * 4 + [_passing_graph()]}
        assert M.success_rate(samples, {"a": self.pair()}, tol=0.5)[0] == 1.0

    def test_fraction_over_targets(self):
        samples = {}
        constraints = {}
        for k in range(10):
            key = f"t{k}"
            samples[key] = [_passing_graph() if k < 3 else _failing_graph()]
            constraints[key] = self.pair()
        assert M.success_rate(samples, constraints, tol=0.5)[0] == pytest.approx(0.3)

    def test_missing_constraint_errors(self):
        with pytest.raises(KeyError):
            M.success_rate({"a": [_passing_graph()]}, {}, tol=0.5)

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(4)
        samples = {}
        constraints = {}
        for k in range(12):
            g = G.generate_chain(8, seed=k)
            i, j = 1, 6
            d = float(np.linalg.norm(g.peptide_coords[i] - g.peptide_coords[j]))
            off = float(rng.uniform(-1.5, 1.5))
            constraints[f"t{k}"] = C.ConstraintPair(
                dists=C.DistanceConstraint(((i, j, max(0.5, d + off)),))
            )
            samples[f"t{k}"] = [g]
        rates = [
            M.success_rate(samples, constraints, tol)[0]
            for tol in (0.1, 0.3, 0.5, 1.0, 2.0)
        ]
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        assert rates[-1] == 1.0


class TestEvaluate:
    def test_report_fields(self):
        samples = {"a": [_passing_graph()] * 2, "b": [_failing_graph()]}
        constraints = {
            "a": C.decompose(C.StrategySpec(C.DISULFIDE, (1, 4)), 6),
            "b": C.decompose(C.StrategySpec(C.DISULFIDE, (1, 4)), 6),
        }
        reference = [G.generate_chain(8, seed=s) for s in range(4)]
        report = M.evaluate(samples, constraints, reference, tol=0.5)
        assert report.success_rate == pytest.approx(0.5)
        assert report.excluded_types == (G.CYS,)
        assert report.aa_kl >= 0 and report.dihedral_kl >= 0
        assert {t.target_id for t in report.targets} == {"a", "b"}
        assert any("success_rate" in line for line in report.lines())

    def test_coincident_residues_give_finite_dihedral_kl(self):
        chain = G.generate_chain(8, seed=2)
        coords = chain.peptide_coords.copy()
        coords[4] = coords[3]  # two consecutive residues on one point
        stacked = G.GeometricGraph.from_parts(chain.peptide_types, coords)
        samples = {"a": [stacked, G.generate_chain(8, seed=3)]}
        constraints = {"a": C.decompose(C.StrategySpec(C.HEAD_TO_TAIL, ()), 8)}
        reference = [G.generate_chain(8, seed=s) for s in range(4)]
        report = M.evaluate(samples, constraints, reference, tol=0.5)
        assert math.isfinite(report.dihedral_kl)

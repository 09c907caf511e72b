import numpy as np
import pytest

from helpers import linf_distance, random_rotation
from pepring import constraints as C
from pepring import encoding as E
from pepring import graph as G


@pytest.fixture
def rbf():
    return E.RbfSpec(channels=32, d_min=0.0, d_max=20.0)


def test_empty_type_constraint_all_zero():
    assert not E.encode_type(C.TypeConstraint(), 5).any()


def test_single_entry_one_hot():
    sig = E.encode_type(C.TypeConstraint(((2, G.CYS),)), 5)
    expected = np.zeros((5, 20))
    expected[2, G.CYS] = 1.0
    assert np.array_equal(sig, expected)


def test_rows_are_one_hot_or_zero():
    rng = np.random.default_rng(0)
    g = G.generate_chain(12, seed=1)
    for _ in range(100):
        sig = E.encode_type(C.sample_type_constraint(g, rng), 12)
        sums = sig.sum(axis=1)
        assert set(np.unique(sums)) <= {0.0, 1.0}
        assert set(np.unique(sig)) <= {0.0, 1.0}


def test_rbf_center_hit_is_one(rbf):
    vec = rbf.lift(float(rbf.centers[5]))
    assert vec[5] == pytest.approx(1.0, abs=0)


def test_rbf_matches_direct_formula(rbf):
    d = 5.0
    vec = rbf.lift(d)
    direct = np.array([np.exp(-rbf.gamma * (d - mu) ** 2) for mu in rbf.centers])
    assert np.allclose(vec, direct, atol=0, rtol=1e-14)
    assert vec.shape == (32,)


def test_rbf_nearby_distances_distinguished(rbf):
    v1 = rbf.lift(4.0)
    v2 = rbf.lift(4.01)
    assert np.max(np.abs(v1 - v2)) > 0


def test_rbf_clamps_out_of_range(rbf):
    edge = rbf.lift(rbf.d_max)
    assert np.array_equal(rbf.lift(25.0), edge)
    assert np.array_equal(rbf.lift(-1.0), rbf.lift(rbf.d_min))
    pair = C.ConstraintPair(dists=C.DistanceConstraint(((0, 2, 25.0),)))
    assert np.array_equal(E.encode_pair(pair, 4, rbf).edge_rbf, [edge])


def test_rbf_spec_validation():
    with pytest.raises(ValueError):
        E.RbfSpec(channels=1, d_min=0.0, d_max=20.0)
    with pytest.raises(ValueError):
        E.RbfSpec(channels=32, d_min=5.0, d_max=5.0)
    # the bump width follows the center spacing (1 A here)
    assert E.RbfSpec(channels=3, d_min=0.0, d_max=2.0).gamma == 0.5


def test_encode_pair_disulfide(rbf):
    pair = C.decompose(C.StrategySpec(C.DISULFIDE, (1, 4)), 6)
    sig = E.encode_pair(pair, 6, rbf)
    assert sig.node_signal.sum() == 2.0
    assert sig.edges.dtype == np.int64
    assert sig.edges.tolist() == [[1, 4]]


def test_encode_pair_edge_arrays_are_exact(rbf):
    pair = C.ConstraintPair(dists=C.DistanceConstraint(
        ((0, 5, 3.8), (2, 8, 5.5), (1, 9, 25.0), (3, 6, 4.123456789))
    ))
    sig = E.encode_pair(pair, 10, rbf)
    assert sig.edges.dtype == np.int64
    assert sig.edges.tolist() == [[0, 5], [1, 9], [2, 8], [3, 6]]
    assert sig.edge_dist.tolist() == [3.8, 20.0, 5.5, 4.123456789]
    assert sig.edge_rbf.shape == (4, rbf.channels)
    for row, (_, _, d) in zip(sig.edge_rbf, pair.dists.entries):
        assert np.array_equal(row, rbf.lift(d))


def test_empty_pair_is_unconditional(rbf):
    sig = E.encode_pair(C.EMPTY_PAIR, 7, rbf)
    assert sig.node_signal.shape == (7, G.N_TYPES) and not sig.node_signal.any()
    assert sig.edges.shape == (0, 2) and sig.edges.dtype == np.int64
    assert sig.edge_dist.shape == (0,)
    assert sig.edge_rbf.shape == (0, rbf.channels)


def test_encoding_ignores_coordinates(rbf):
    rng = np.random.default_rng(5)
    g = G.generate_chain(10, seed=2)
    pair = C.ConstraintPair(
        C.sample_type_constraint(g, rng), C.sample_distance_constraint(g, rng)
    )
    before = E.encode_pair(pair, 10, rbf)
    rot = random_rotation(rng)
    moved = G.GeometricGraph.from_parts(g.peptide_types, g.peptide_coords @ rot.T + 3.0)
    assert moved is not g
    after = E.encode_pair(pair, 10, rbf)
    assert np.array_equal(before.node_signal, after.node_signal)
    assert np.array_equal(before.edges, after.edges)
    assert np.array_equal(before.edge_dist, after.edge_dist)
    assert np.array_equal(before.edge_rbf, after.edge_rbf)


def _sample_pair(g, rng, quantum=0.01):
    types = C.sample_type_constraint(g, rng)
    dists = C.sample_distance_constraint(g, rng)
    snapped = tuple(
        (i, j, max(quantum, round(d / quantum) * quantum)) for i, j, d in dists.entries
    )
    return C.ConstraintPair(types, C.DistanceConstraint(snapped))


def test_injectivity_over_sampled_design_space(rbf):
    rng = np.random.default_rng(11)
    graphs = [G.generate_chain(12, seed=s) for s in range(8)]
    for _ in range(1000):
        g1, g2 = graphs[rng.integers(8)], graphs[rng.integers(8)]
        p1, p2 = _sample_pair(g1, rng), _sample_pair(g2, rng)
        if p1 == p2:
            continue
        s1 = E.encode_pair(p1, 12, rbf)
        s2 = E.encode_pair(p2, 12, rbf)
        assert linf_distance(s1, s2) > 1e-9


def test_linf_distance_detects_each_side(rbf):
    a = E.encode_pair(C.decompose(C.StrategySpec(C.DISULFIDE, (1, 4)), 6), 6, rbf)
    b = E.encode_pair(C.decompose(C.StrategySpec(C.DISULFIDE, (1, 5)), 6), 6, rbf)
    assert linf_distance(a, b) > 0.5
    assert linf_distance(a, a) == 0.0

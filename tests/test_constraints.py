import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pepring import constraints as C
from pepring import graph as G


def spec(kind, *anchors, **lengths):
    return C.StrategySpec(kind, anchors, C.LinkLengths(**lengths))


class TestDecompose:
    def test_head_to_tail(self):
        pair = C.decompose(spec(C.HEAD_TO_TAIL), 5)
        assert pair.types.entries == ()
        assert pair.dists.entries == ((0, 4, 3.8),)

    def test_disulfide(self):
        pair = C.decompose(spec(C.DISULFIDE, 1, 4), 6)
        assert pair.types.entries == ((1, G.CYS), (4, G.CYS))
        assert pair.dists.entries == ((1, 4, 5.5),)

    def test_stapled_d(self):
        pair = C.decompose(spec(C.STAPLED_D, 2), 8)
        assert pair.types.entries == ((2, G.LYS), (5, G.ASP))
        assert pair.dists.entries == ((2, 5, 5.0),)

    def test_stapled_e(self):
        pair = C.decompose(spec(C.STAPLED_E, 1), 8)
        assert pair.types.entries == ((1, G.LYS), (5, G.GLU))
        assert pair.dists.entries == ((1, 5, 5.5),)

    def test_bicycle(self):
        pair = C.decompose(spec(C.BICYCLE, 0, 3, 7), 9)
        assert pair.types.entries == ((0, G.CYS), (3, G.CYS), (7, G.CYS))
        assert pair.dists.entries == ((0, 3, 6.0), (0, 7, 6.0), (3, 7, 6.0))

    def test_custom_lengths(self):
        pair = C.decompose(spec(C.HEAD_TO_TAIL, head_tail=4.2), 10)
        assert pair.dists.entries == ((0, 9, 4.2),)

    def test_anchor_out_of_range(self):
        with pytest.raises(C.ConstraintError):
            C.decompose(spec(C.DISULFIDE, 1, 9), 8)

    def test_stapled_needs_room_for_partner(self):
        with pytest.raises(C.ConstraintError):
            C.decompose(spec(C.STAPLED_D, 5), 8)
        with pytest.raises(C.ConstraintError):
            C.decompose(spec(C.STAPLED_E, 4), 8)

    def test_bicycle_adjacent_anchors_rejected(self):
        with pytest.raises(C.ConstraintError):
            C.decompose(spec(C.BICYCLE, 0, 1, 5), 9)

    def test_disulfide_adjacent_rejected(self):
        with pytest.raises(C.ConstraintError):
            C.decompose(spec(C.DISULFIDE, 3, 4), 9)


class TestCompose:
    def test_union_with_empty(self):
        a = C.decompose(spec(C.DISULFIDE, 1, 4), 6)
        assert C.compose([a, C.EMPTY_PAIR]) == a

    def test_double_disulfide(self):
        a = C.decompose(spec(C.DISULFIDE, 0, 5), 10)
        b = C.decompose(spec(C.DISULFIDE, 2, 8), 10)
        merged = C.compose([a, b])
        assert len(merged.types.entries) == 4
        assert len(merged.dists.entries) == 2
        assert merged.types.entries == (
            (0, G.CYS), (2, G.CYS), (5, G.CYS), (8, G.CYS)
        )

    def test_double_stapled(self):
        merged = C.compose([
            C.decompose(spec(C.STAPLED_D, 0), 10),
            C.decompose(spec(C.STAPLED_D, 5), 10),
        ])
        assert merged.types.entries == (
            (0, G.LYS), (3, G.ASP), (5, G.LYS), (8, G.ASP)
        )
        assert merged.dists.entries == ((0, 3, 5.0), (5, 8, 5.0))

    def test_disulfide_plus_head_to_tail(self):
        merged = C.compose([
            C.decompose(spec(C.DISULFIDE, 1, 4), 10),
            C.decompose(spec(C.HEAD_TO_TAIL), 10),
        ])
        assert merged.types.entries == ((1, G.CYS), (4, G.CYS))
        assert merged.dists.entries == ((0, 9, 3.8), (1, 4, 5.5))

    def test_triple_disulfide(self):
        merged = C.compose([
            C.decompose(spec(C.DISULFIDE, 0, 5), 12),
            C.decompose(spec(C.DISULFIDE, 2, 8), 12),
            C.decompose(spec(C.DISULFIDE, 4, 10), 12),
        ])
        assert len(merged.types.entries) == 6
        assert len(merged.dists.entries) == 3

    def test_conflicting_distances(self):
        a = C.decompose(spec(C.DISULFIDE, 1, 4), 6)
        b = C.decompose(spec(C.DISULFIDE, 1, 4, disulfide=4.0), 6)
        with pytest.raises(C.ConstraintConflictError, match=r"\(1, 4\)"):
            C.compose([a, b])

    def test_conflicting_types_name_the_node(self):
        a = C.decompose(spec(C.STAPLED_D, 0), 8)
        b = C.decompose(spec(C.DISULFIDE, 0, 5), 8)
        with pytest.raises(C.ConstraintConflictError, match="node 0"):
            C.compose([a, b])

    def test_identical_entries_dedup(self):
        a = C.decompose(spec(C.DISULFIDE, 1, 4), 6)
        assert C.compose([a, a]) == a


def _type_entry(i):
    return (i, (i * 7) % G.N_TYPES)


def _dist_entry(i, j):
    i, j = min(i, j), max(i, j)
    return (i, j, 3.0 + ((i * 31 + j) % 50) / 10.0)


consistent_pairs = st.builds(
    lambda nodes, pairs: C.ConstraintPair(
        C.TypeConstraint(tuple(_type_entry(i) for i in nodes)),
        C.DistanceConstraint(tuple(_dist_entry(i, j) for i, j in pairs if i != j)),
    ),
    st.sets(st.integers(0, 12), max_size=4),
    st.sets(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=5),
)


@settings(max_examples=100, deadline=None)
@given(consistent_pairs, consistent_pairs, consistent_pairs)
def test_compose_associative_commutative(a, b, c):
    assert C.compose([a, b]) == C.compose([b, a])
    assert C.compose([C.compose([a, b]), c]) == C.compose([a, C.compose([b, c])])


def test_conflict_detection_order_independent():
    a = C.ConstraintPair(C.TypeConstraint(((2, G.CYS),)))
    b = C.ConstraintPair(C.TypeConstraint(((2, G.LYS),)))
    for order in ([a, b], [b, a]):
        with pytest.raises(C.ConstraintConflictError):
            C.compose(order)


class TestSamplers:
    def test_type_constraint_conformance(self):
        g = G.generate_chain(12, seed=0)
        rng = np.random.default_rng(1)
        sizes = set()
        for _ in range(2000):
            c = C.sample_type_constraint(g, rng)
            assert len(c.entries) <= 4
            for node, t in c.entries:
                assert t == g.peptide_types[node]
            sizes.add(len(c.entries))
        assert sizes == {0, 1, 2, 3, 4}

    def test_type_constraint_capped_by_length(self):
        g = G.GeometricGraph.from_parts([0, 1], [[0, 0, 0], [3.8, 0, 0]])
        rng = np.random.default_rng(2)
        assert all(len(C.sample_type_constraint(g, rng).entries) <= 2 for _ in range(200))

    def test_distance_constraint_conformance(self):
        g = G.generate_chain(14, seed=3)
        rng = np.random.default_rng(4)
        x = g.peptide_coords
        for _ in range(2000):
            c = C.sample_distance_constraint(g, rng)
            assert len(c.entries) <= 6
            for i, j, d in c.entries:
                assert j - i in (3, 4, 6)
                assert abs(d - np.linalg.norm(x[i] - x[j])) < 1e-12

    def test_distance_short_chain_separations(self):
        g = G.generate_chain(5, seed=5)
        rng = np.random.default_rng(6)
        seps = set()
        for _ in range(500):
            for i, j, _ in C.sample_distance_constraint(g, rng).entries:
                seps.add(j - i)
        assert seps == {3, 4}

    def test_distance_needs_four_residues(self):
        g = G.GeometricGraph.from_parts([0, 1, 2], np.diag([3.8, 3.8, 3.8]))
        with pytest.raises(C.ConstraintError):
            C.sample_distance_constraint(g, np.random.default_rng(0))

    def test_sampled_constraints_satisfied_by_source(self):
        rng = np.random.default_rng(7)
        for seed in range(10):
            g = G.generate_chain(10, seed=seed)
            pair = C.ConstraintPair(
                C.sample_type_constraint(g, rng), C.sample_distance_constraint(g, rng)
            )
            assert C.check_satisfaction(g, pair, tol=1e-9).passed


def _graph_with(coords, types=None):
    coords = np.asarray(coords, dtype=float)
    if types is None:
        types = np.zeros(len(coords), dtype=int)
    return G.GeometricGraph.from_parts(types, coords)


class TestDesignSpaceCoverage:
    """Strategies whose anchor separations sit in {3,4,6} decompose into
    constraints the training design space could itself have produced."""

    @pytest.mark.parametrize(
        "kind,anchors",
        [
            (C.STAPLED_D, (1,)),      # separation 3
            (C.STAPLED_E, (0,)),      # separation 4
            (C.DISULFIDE, (1, 7)),    # separation 6
            (C.BICYCLE, (0, 3, 6)),   # separations 3, 6, 3
        ],
    )
    def test_decomposition_within_design_space(self, kind, anchors):
        n = 9
        pair = C.decompose(spec(kind, *anchors), n)
        assert len(pair.types.entries) <= C.MAX_TYPE_ENTRIES
        assert len(pair.dists.entries) <= C.MAX_DISTANCE_ENTRIES
        pool = set(C.candidate_separated_pairs(n))
        for i, j, d in pair.dists.entries:
            assert (i, j) in pool
            assert j - i in C.SAMPLED_SEPARATIONS
        # on a geometry realizing the targets, the distance side uses the
        # graph's own distances, i.e. the pair lies in the sampled space
        rng = np.random.default_rng(0)
        for seed in range(50):
            g = G.generate_chain(n, seed=seed)
            if all(
                abs(np.linalg.norm(g.peptide_coords[i] - g.peptide_coords[j]) - d) < 0.25
                for i, j, d in pair.dists.entries
            ):
                snapped = C.DistanceConstraint(tuple(
                    (i, j, float(np.linalg.norm(g.peptide_coords[i] - g.peptide_coords[j])))
                    for i, j, _ in pair.dists.entries
                ))
                assert C.check_satisfaction(
                    g, C.ConstraintPair(dists=snapped), tol=1e-9
                ).passed
                break


class TestCheckSatisfaction:
    def conforming_geometry(self, kind):
        if kind == C.STAPLED_D:
            types = [G.LYS, 0, 0, G.ASP]
            coords = [[0, 0, 0], [3, 2, 0], [6, 2, 0], [5, 0, 0]]
            return _graph_with(coords, types), spec(C.STAPLED_D, 0)
        if kind == C.STAPLED_E:
            types = [0, G.LYS, 0, 0, 0, G.GLU]
            coords = [[-4, 0, 0], [0, 0, 0], [2, 3, 0], [4, 4, 0], [6, 3, 0], [5.5, 0, 0]]
            return _graph_with(coords, types), spec(C.STAPLED_E, 1)
        if kind == C.HEAD_TO_TAIL:
            coords = [[0, 0, 0], [3, 2, 0], [6, 1, 0], [4, -2, 0], [3.8, 0, 0]]
            return _graph_with(coords), spec(C.HEAD_TO_TAIL)
        if kind == C.DISULFIDE:
            types = [0, G.CYS, 0, 0, G.CYS, 0]
            coords = [[-3, 0, 0], [0, 0, 0], [2, 3, 0], [4, 3, 0], [5.5, 0, 0], [8, -1, 0]]
            return _graph_with(coords, types), spec(C.DISULFIDE, 1, 4)
        types = [G.CYS, 0, 0, G.CYS, 0, 0, 0, G.CYS, 0]
        h = 3 * np.sqrt(3)
        coords = [[0, 0, 0], [1, 4, 1], [3, 5, 1], [6, 0, 0], [7, 2, 2],
                  [6, 5, 2], [4, 7, 1], [3, h, 0], [1, 8, 2]]
        return _graph_with(coords, types), spec(C.BICYCLE, 0, 3, 7)

    @pytest.mark.parametrize("kind", C.STRATEGY_KINDS)
    def test_conforming_geometry_passes(self, kind):
        g, s = self.conforming_geometry(kind)
        pair = C.decompose(s, g.n_peptide)
        assert C.check_satisfaction(g, pair, tol=0.5).passed

    def test_type_mutation_fails_naming_node(self):
        g, s = self.conforming_geometry(C.DISULFIDE)
        types = g.peptide_types.copy()
        types[4] = G.ASP
        mutated = G.GeometricGraph.from_parts(types, g.peptide_coords)
        report = C.check_satisfaction(mutated, C.decompose(s, 6), tol=0.5)
        assert not report.passed
        assert [e.nodes for e in report.entries if not e.passed] == [(4,)]

    def test_distance_at_exact_tolerance_passes(self):
        g = _graph_with([[0, 0, 0], [3, 0, 0], [6, 0, 0], [4.3, 0, 0]])
        pair = C.ConstraintPair(dists=C.DistanceConstraint(((0, 3, 3.8),)))
        assert C.check_satisfaction(g, pair, tol=0.5).passed
        assert not C.check_satisfaction(g, pair, tol=0.49999).passed

    def test_out_of_range_index_rejected(self):
        g = _graph_with([[0, 0, 0], [3.8, 0, 0], [7.6, 0, 0], [11.4, 0, 0]])
        pair = C.ConstraintPair(dists=C.DistanceConstraint(((0, 6, 3.8),)))
        with pytest.raises(C.ConstraintError):
            C.check_satisfaction(g, pair)


class TestCanonicalText:
    def test_round_trip(self):
        pair = C.compose([
            C.decompose(spec(C.DISULFIDE, 1, 4), 10),
            C.decompose(spec(C.HEAD_TO_TAIL), 10),
        ])
        text = C.canonical_text(pair)
        assert text == "type 1 C\ntype 4 C\ndist 0 9 3.800\ndist 1 4 5.500\n"
        assert C.parse_constraint_text(text) == pair

    def test_empty(self):
        assert C.canonical_text(C.EMPTY_PAIR) == ""
        assert C.parse_constraint_text("# nothing\n\n") == C.EMPTY_PAIR

    def test_bad_line_reports_number(self):
        with pytest.raises(C.ConstraintError, match="line 2"):
            C.parse_constraint_text("type 0 C\ndist 1 2\n")

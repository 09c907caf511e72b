import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chain_geometry_ok, random_rotation
from pepring import graph as G


@pytest.fixture
def codec():
    return G.CodecParams(table=G.init_embedding_table(8), coord_scale=0.1)


def test_chain_length_4_seed_7_bond_lengths():
    g = G.generate_chain(4, seed=7)
    bonds = np.linalg.norm(np.diff(g.peptide_coords, axis=0), axis=1)
    assert g.n_peptide == 4 and g.n_context == 0
    assert np.all(bonds >= 3.65) and np.all(bonds <= 3.95)


def test_chain_below_minimum_length():
    with pytest.raises(ValueError):
        G.generate_chain(3, seed=0)


def test_chain_self_avoidance_brute_force():
    for seed in range(5):
        g = G.generate_chain(25, seed=seed)
        x = g.peptide_coords
        for i in range(25):
            for j in range(i + 2, 25):
                assert np.linalg.norm(x[i] - x[j]) > 3.0
        assert chain_geometry_ok(g)


def test_chain_vertex_angles_in_range():
    g = G.generate_chain(20, seed=3)
    x = g.peptide_coords
    for i in range(1, 19):
        a = x[i - 1] - x[i]
        b = x[i + 1] - x[i]
        cosang = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        ang = np.degrees(np.arccos(np.clip(cosang, -1, 1)))
        assert 80.0 < ang < 160.0


def test_chain_deterministic_per_seed():
    a = G.generate_chain(12, seed=42)
    b = G.generate_chain(12, seed=42)
    assert np.array_equal(a.types, b.types)
    assert np.array_equal(a.coords, b.coords)
    c = G.generate_chain(12, seed=43)
    assert not np.array_equal(a.coords, c.coords)


def test_chain_type_distribution_respected():
    dist = np.zeros(G.N_TYPES)
    dist[G.CYS] = 1.0
    g = G.generate_chain(10, seed=1, type_distribution=dist)
    assert np.all(g.peptide_types == G.CYS)


def test_embedding_table_margin(codec):
    gram = codec.table @ codec.table.T
    self_dots = np.diag(gram)
    cross = gram - np.diag(self_dots)
    assert self_dots.min() - cross.max() > 0.05 * self_dots.min()


def test_encode_same_type_same_row(codec):
    types = np.full(6, G.AA_INDEX["A"])
    g = G.GeometricGraph.from_parts(types, G.generate_chain(6, seed=2).peptide_coords)
    z = G.encode_latent(g, codec)
    assert np.all(z.inv == z.inv[0])


def test_encode_translation_invariant_eqv(codec):
    g = G.generate_chain(8, seed=5)
    shifted = G.GeometricGraph.from_parts(g.peptide_types, g.peptide_coords + np.array([10.0, -4.0, 2.5]))
    assert np.allclose(G.encode_latent(g, codec).eqv, G.encode_latent(shifted, codec).eqv, atol=1e-9)


def test_encode_equivariant_under_rigid_motion(codec):
    rng = np.random.default_rng(8)
    g = G.generate_chain(10, seed=9)
    for _ in range(20):
        rot = random_rotation(rng)
        t = rng.uniform(-50, 50, size=3)
        moved = G.GeometricGraph.from_parts(g.peptide_types, g.peptide_coords @ rot.T + t)
        assert np.allclose(
            G.encode_latent(moved, codec).eqv,
            G.encode_latent(g, codec).eqv @ rot.T,
            atol=1e-9,
        )


def test_codec_round_trip(codec):
    for seed in range(5):
        g = G.generate_chain(11, seed=seed)
        back = G.decode_latent(G.encode_latent(g, codec), codec)
        assert np.array_equal(back.peptide_types, g.peptide_types)
        assert np.allclose(back.peptide_coords, g.peptide_coords, atol=1e-12)


def test_decode_exact_rows(codec):
    z = G.LatentGraph(inv=codec.table.copy(), eqv=np.zeros((G.N_TYPES, 3)))
    assert np.array_equal(G.decode_types(z.inv, codec), np.arange(G.N_TYPES))


def test_decode_survives_small_perturbation(codec):
    rng = np.random.default_rng(17)
    for _ in range(50):
        types = rng.integers(0, G.N_TYPES, size=12)
        inv = codec.table[types] + rng.normal(0.0, 0.01, size=(12, codec.table.shape[1]))
        assert np.array_equal(G.decode_types(inv, codec), types)


def test_centering_uses_context_when_present(codec):
    g = G.generate_chain(6, seed=4)
    ctx_coords = np.array([[30.0, 0.0, 0.0], [34.0, 0.0, 0.0]])
    with_ctx = G.GeometricGraph.from_parts(
        g.peptide_types, g.peptide_coords, [0, 1], ctx_coords
    )
    z = G.encode_latent(with_ctx, codec)
    assert np.allclose(z.center, ctx_coords.mean(axis=0))
    back = G.decode_latent(z, codec)
    assert np.allclose(back.peptide_coords, g.peptide_coords, atol=1e-12)


def test_structure_round_trip(tmp_path):
    path = tmp_path / "chains.jsonl"
    graphs = [G.generate_chain(n, seed=n) for n in (4, 9, 14)]
    ctx = G.GeometricGraph.from_parts(
        graphs[0].peptide_types, graphs[0].peptide_coords, [2, 5], [[9.0, 0, 0], [12.0, 0, 0]]
    )
    graphs.append(ctx)
    G.write_structures(path, graphs)
    back = G.read_structures(path)
    assert len(back) == 4
    for a, b in zip(graphs, back):
        assert np.array_equal(a.types, b.types)
        assert a.n_context == b.n_context
        assert np.allclose(a.coords, b.coords, atol=1e-6)


def test_structure_round_trip_byte_stable(tmp_path):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    G.write_structures(p1, [G.generate_chain(7, seed=1)])
    G.write_structures(p2, G.read_structures(p1))
    assert p1.read_bytes() == p2.read_bytes()


coordinates = st.floats(-999.0, 999.0, allow_nan=False)
residues = st.lists(
    st.tuples(st.integers(0, G.N_TYPES - 1), st.tuples(coordinates, coordinates, coordinates)),
    max_size=6,
)
structures = st.builds(
    lambda pep, ctx: G.GeometricGraph.from_parts(
        [t for t, _ in pep], [x for _, x in pep], [t for t, _ in ctx], [x for _, x in ctx]
    ),
    residues, residues,
)


@settings(max_examples=50, deadline=None)
@given(st.lists(structures, min_size=1, max_size=4))
def test_structure_file_text_is_a_fixed_point(graphs):
    text = "".join(G.format_structure(g) + "\n" for g in graphs)
    parsed = [G.parse_structure(line, k) for k, line in enumerate(text.splitlines(), start=1)]
    assert [g.n_context for g in parsed] == [g.n_context for g in graphs]
    assert "".join(G.format_structure(g) + "\n" for g in parsed) == text


def test_structure_two_component_coordinate_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"types":[0],"coords":[[1.0,2.0,3.0]]}\n{"types":[0],"coords":[[1.0,2.0]]}\n')
    with pytest.raises(G.StructureError, match="line 2"):
        G.read_structures(path)


def test_structure_type_out_of_range_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"types":[20],"coords":[[1.0,2.0,3.0]]}\n')
    with pytest.raises(G.StructureError, match="line 1"):
        G.read_structures(path)


def test_structure_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert G.read_structures(path) == []


def test_structure_not_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("types 0 coords 1\n")
    with pytest.raises(G.StructureError, match="line 1"):
        G.read_structures(path)

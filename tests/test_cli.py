import base64
import importlib
import json
import multiprocessing.pool

import numpy as np
import pytest

from pepring import cli
from pepring import config as CF
from pepring import constraints as C
from pepring import denoiser as D
from pepring import graph as G

TINY_TRAIN = [
    "--set", "epochs=2", "--set", "batch_size=4", "--set", "hidden=6",
    "--set", "layers=1", "--set", "t_steps=8", "--set", "t_embed_dim=4",
    "--set", "latent_dim=4", "--set", "rbf_channels=6", "--set", "rbf_d_max=16.0",
]


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "data"
    assert run("gen-data", "--count", 10, "--len-min", 6, "--len-max", 9,
               "--seed", 3, "--out", out) == 0
    return out / "chains.jsonl"


@pytest.fixture
def checkpoint(tmp_path, dataset):
    out = tmp_path / "model"
    assert run("train", "--data", dataset, "--out", out, *TINY_TRAIN) == 0
    return out / "checkpoint.json"


@pytest.fixture
def wide_checkpoint(tmp_path):
    """Default widths (hidden 32, 32 RBF channels) on a 10-step schedule."""
    cfg = CF.resolve(CF.parse_overrides(["t_steps=10"]))
    path = tmp_path / "wide.json"
    D.save_checkpoint(D.init_params(CF.denoiser_config(cfg), 4), path, run_config=cfg)
    return path


class TestGenData:
    def test_writes_readable_records(self, dataset):
        graphs = G.read_structures(dataset)
        assert len(graphs) == 10
        assert all(6 <= g.n_peptide <= 9 for g in graphs)

    def test_len_min_below_4_rejected(self, tmp_path):
        assert run("gen-data", "--count", 2, "--len-min", 3, "--len-max", 9,
                   "--out", tmp_path / "x") == 2

    def test_same_seed_identical_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("gen-data", "--count", 5, "--len-min", 5, "--len-max", 7,
                       "--seed", 11, "--out", out) == 0
        assert (a / "chains.jsonl").read_bytes() == (b / "chains.jsonl").read_bytes()


class TestTrain:
    def test_toy_run_finishes_quickly_and_loss_trends_down(self, tmp_path):
        import time

        data_dir = tmp_path / "smoke-data"
        assert run("gen-data", "--count", 100, "--len-min", 8, "--len-max", 16,
                   "--seed", 1, "--out", data_dir) == 0
        out = tmp_path / "smoke-model"
        t0 = time.perf_counter()
        assert run("train", "--data", data_dir / "chains.jsonl", "--out", out,
                   "--set", "epochs=5") == 0
        assert time.perf_counter() - t0 < 300.0
        losses = [float(line.split()[1]) for line in (out / "loss.txt").read_text().splitlines()]
        assert len(losses) == 5
        assert losses[-1] < losses[0]

    def test_outputs_exist(self, tmp_path, dataset, checkpoint):
        out = checkpoint.parent
        assert checkpoint.exists()
        assert (out / "loss.txt").exists()
        assert (out / "config.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["epochs"] == 2
        losses = (out / "loss.txt").read_text().splitlines()
        assert len(losses) == 2

    def test_bad_config_key_is_usage_error(self, tmp_path, dataset):
        assert run("train", "--data", dataset, "--out", tmp_path / "m",
                   "--set", "not_a_key=3") == 2

    def test_missing_data_file(self, tmp_path):
        assert run("train", "--data", tmp_path / "absent.jsonl",
                   "--out", tmp_path / "m") == 2


class TestDecompose:
    def test_canonical_output(self, capsys):
        assert run("decompose", "--strategy", "disulfide", "--anchors", "1,4",
                   "--length", 6) == 0
        assert capsys.readouterr().out == "type 1 C\ntype 4 C\ndist 1 4 5.500\n"

    def test_head_to_tail_uses_length(self, capsys):
        assert run("decompose", "--strategy", "head-to-tail", "--length", 10) == 0
        assert capsys.readouterr().out == "dist 0 9 3.800\n"

    def test_paper_style_composites(self, capsys):
        # dash-leading strategy names need the --flag=value spelling
        assert run("decompose", "--strategy=-S-S-+H-T", "--anchors", "1,4",
                   "--length", 10) == 0
        out = capsys.readouterr().out
        assert out == "type 1 C\ntype 4 C\ndist 0 9 3.800\ndist 1 4 5.500\n"
        assert run("decompose", "--strategy", "2*-S-S-", "--anchors", "0,5",
                   "--anchors", "2,8", "--length", 10) == 0
        assert len(capsys.readouterr().out.splitlines()) == 6

    def test_link_override(self, capsys):
        assert run("decompose", "--strategy", "head-to-tail", "--length", 5,
                   "--set", "link_head_tail=4.25") == 0
        assert capsys.readouterr().out == "dist 0 4 4.250\n"

    def test_bad_anchor_count(self):
        assert run("decompose", "--strategy", "disulfide", "--length", 6) == 2

    def test_unknown_strategy(self):
        assert run("decompose", "--strategy", "lasso", "--length", 6) == 2


class TestSample:
    def test_samples_written_with_manifest_echo(self, tmp_path, checkpoint):
        out = tmp_path / "samples"
        assert run("sample", "--checkpoint", checkpoint, "--strategy", "head-to-tail",
                   "--length", 6, "--num", 2, "--seed", 5, "--mode", "cfg",
                   "--w", 2, "--out", out) == 0
        graphs = G.read_structures(out / "samples.jsonl")
        assert len(graphs) == 2 and all(g.n_peptide == 6 for g in graphs)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["target_constraint"] == ["dist 0 5 3.800"]

    def test_custom_constraint_file(self, tmp_path, checkpoint):
        cfile = tmp_path / "target.txt"
        cfile.write_text("type 0 K\ndist 0 3 6.000\n")
        out = tmp_path / "s2"
        assert run("sample", "--checkpoint", checkpoint, "--constraint-file", cfile,
                   "--length", 6, "--num", 1, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["target_constraint"] == ["type 0 K", "dist 0 3 6.000"]

    def test_invalid_anchors_surface_as_usage_error(self, tmp_path, checkpoint):
        assert run("sample", "--checkpoint", checkpoint, "--strategy", "disulfide",
                   "--anchors", "1,9", "--length", 6, "--out", tmp_path / "s3") == 2

    def test_worker_pool_matches_serial(self, tmp_path, checkpoint):
        a, b = tmp_path / "w1", tmp_path / "w2"
        common = ["sample", "--checkpoint", checkpoint, "--strategy", "head-to-tail",
                  "--length", 6, "--num", 4, "--seed", 9]
        assert run(*common, "--workers", 1, "--out", a) == 0
        assert run(*common, "--workers", 2, "--out", b) == 0
        assert (a / "samples.jsonl").read_bytes() == (b / "samples.jsonl").read_bytes()

    def test_worker_pool_matches_serial_where_blas_threads(self, tmp_path, wide_checkpoint):
        # At n=25 and default widths the GEMMs are large enough for OpenBLAS
        # to thread in the serial run, while each pool worker uses one thread.
        a, b = tmp_path / "w1", tmp_path / "w2"
        common = ["sample", "--checkpoint", wide_checkpoint, "--strategy", "head-to-tail",
                  "--mode", "energy", "--length", 25, "--num", 2, "--seed", 9]
        assert run(*common, "--workers", 1, "--out", a) == 0
        assert run(*common, "--workers", 2, "--out", b) == 0
        assert (a / "samples.jsonl").read_bytes() == (b / "samples.jsonl").read_bytes()

    def test_cfg_pair_batch_matches_across_workers(self, tmp_path, wide_checkpoint):
        # cfg traces the conditional and unconditional 14-mers as one union
        # graph; 14 * 13 = 182 dense rows, so the second graph's rows start
        # at an offset that is not a multiple of 4
        a, b = tmp_path / "w1", tmp_path / "w3"
        common = ["sample", "--checkpoint", wide_checkpoint, "--strategy", "head-to-tail",
                  "--mode", "cfg", "--w", 5, "--length", 14, "--num", 3, "--seed", 2]
        assert run(*common, "--workers", 1, "--out", a) == 0
        assert run(*common, "--workers", 3, "--out", b) == 0
        assert (a / "samples.jsonl").read_bytes() == (b / "samples.jsonl").read_bytes()

    def test_pool_workers_use_one_blas_thread(self, tmp_path, checkpoint, monkeypatch):
        get_threads = cli._openblas_function("get")
        if get_threads is None:
            pytest.skip("numpy is not linked against OpenBLAS")
        parent_threads = get_threads()
        if parent_threads == 1:
            pytest.skip("OpenBLAS already runs one thread here, so the worker's count "
                        "cannot show what the initializer did")
        real_sample = cli.DF.sample

        def sample_checking_threads(*args, **kwargs):
            # runs inside the forked worker, which inherits this patch
            assert get_threads() == 1
            return real_sample(*args, **kwargs)

        monkeypatch.setattr(cli.DF, "sample", sample_checking_threads)
        assert run("sample", "--checkpoint", checkpoint, "--strategy", "head-to-tail",
                   "--length", 6, "--num", 2, "--workers", 2, "--out", tmp_path / "s") == 0
        assert get_threads() == parent_threads

    @pytest.mark.parametrize("stub", ["_multiarray_umath.py", "not_a_library.so"])
    def test_blas_initializer_without_a_library_does_nothing(self, tmp_path, monkeypatch, stub):
        # numpy 1.26's numpy._core holds .py stubs; a file that is no library
        # makes ctypes raise OSError. Either way there is no setter to call.
        (tmp_path / stub).write_text("not a shared library\n")
        for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
            try:
                module = importlib.import_module(name)
            except ImportError:
                continue
            monkeypatch.setattr(module, "__file__", str(tmp_path / stub))
        assert cli._openblas_function("set") is None
        assert cli._one_blas_thread() is None

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, tmp_path, checkpoint, capsys, workers):
        assert run("sample", "--checkpoint", checkpoint, "--strategy", "head-to-tail",
                   "--length", 6, "--workers", workers, "--out", tmp_path / "s") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --workers") and err.count("\n") == 1

    def test_pool_no_larger_than_num(self, tmp_path, checkpoint, monkeypatch):
        sizes = []
        real_init = multiprocessing.pool.Pool.__init__

        def recording_init(pool, processes=None, *args, **kwargs):
            sizes.append(processes)
            real_init(pool, processes, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", recording_init)
        assert run("sample", "--checkpoint", checkpoint, "--strategy", "head-to-tail",
                   "--length", 6, "--num", 2, "--workers", 8, "--out", tmp_path / "s") == 0
        assert sizes == [2]


def _corrupt_checkpoint(doc, case):
    if case == "no-config":
        del doc["config"]
    elif case == "unknown-config-field":
        doc["config"]["depth"] = 3
    elif case == "corrupt-array":
        name = next(iter(doc["arrays"]))
        doc["arrays"][name]["data"] = base64.b64encode(b"\x00" * 7).decode("ascii")
    elif case == "run-config-list":
        doc["run_config"] = list(doc["run_config"])
    elif case == "top-level-list":
        doc = [doc]
    return doc


@pytest.mark.parametrize("case", ["no-config", "unknown-config-field", "corrupt-array",
                                  "run-config-list", "top-level-list"])
def test_malformed_checkpoint_is_usage_error(tmp_path, checkpoint, capsys, case):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_corrupt_checkpoint(json.loads(checkpoint.read_text()), case)))
    assert run("sample", "--checkpoint", bad, "--strategy", "head-to-tail",
               "--length", 6, "--out", tmp_path / "s") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestCheck:
    def write_structures(self, tmp_path, graphs):
        path = tmp_path / "structs.jsonl"
        G.write_structures(path, graphs)
        return path

    def passing_graph(self):
        types = [0, G.CYS, 0, 0, G.CYS, 0]
        coords = [[-3, 0, 0], [0, 0, 0], [2, 3, 0], [4, 3, 0], [5.5, 0, 0], [8, -1, 0]]
        return G.GeometricGraph.from_parts(types, coords)

    def test_pass_exit_zero(self, tmp_path, capsys):
        path = self.write_structures(tmp_path, [self.passing_graph()])
        assert run("check", "--structures", path, "--strategy", "disulfide",
                   "--anchors", "1,4") == 0
        assert "pass" in capsys.readouterr().out

    def test_fail_exit_one_names_entry(self, tmp_path, capsys):
        g = self.passing_graph()
        types = g.peptide_types.copy()
        types[1] = G.ASP
        bad = G.GeometricGraph.from_parts(types, g.peptide_coords)
        path = self.write_structures(tmp_path, [bad])
        assert run("check", "--structures", path, "--strategy", "disulfide",
                   "--anchors", "1,4") == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "node 1" in out

    def test_malformed_file_exit_two(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"types":[0],"coords":[[1,2]]}\n')
        assert run("check", "--structures", path, "--strategy", "head-to-tail") == 2


class TestEval:
    def test_self_vs_self_zero_kl(self, tmp_path, capsys):
        graphs = [G.generate_chain(8, seed=s) for s in range(4)]
        ref = tmp_path / "ref.jsonl"
        G.write_structures(ref, graphs)
        out = tmp_path / "metrics"
        assert run("eval", "--samples", ref, "--reference", ref,
                   "--strategy", "head-to-tail", "--per-target", 2,
                   "--tol", 100.0, "--out", out) == 0
        record = json.loads((out / "metrics.json").read_text())
        assert float(record["aa_kl"]) <= 1e-6
        assert float(record["dihedral_kl"]) <= 1e-6
        assert float(record["success_rate"]) == 1.0
        assert (out / "metrics.txt").exists()

    def test_missing_reference_is_usage_error(self, tmp_path):
        graphs = [G.generate_chain(8, seed=1)]
        samples = tmp_path / "s.jsonl"
        G.write_structures(samples, graphs)
        assert run("eval", "--samples", samples, "--reference", tmp_path / "none.jsonl",
                   "--strategy", "head-to-tail", "--per-target", 1,
                   "--out", tmp_path / "m") == 2

    def test_uneven_grouping_rejected(self, tmp_path):
        graphs = [G.generate_chain(8, seed=s) for s in range(3)]
        samples = tmp_path / "s.jsonl"
        G.write_structures(samples, graphs)
        assert run("eval", "--samples", samples, "--reference", samples,
                   "--strategy", "head-to-tail", "--per-target", 2,
                   "--out", tmp_path / "m") == 2


class TestRerun:
    def test_gen_data_rerun_byte_identical(self, tmp_path, dataset):
        manifest = dataset.parent / "manifest.json"
        out2 = tmp_path / "replay"
        assert run("rerun", "--manifest", manifest, "--out", out2) == 0
        assert (out2 / "chains.jsonl").read_bytes() == dataset.read_bytes()

    def test_train_rerun_byte_identical(self, tmp_path, dataset, checkpoint):
        out2 = tmp_path / "replay-train"
        assert run("rerun", "--manifest", checkpoint.parent / "manifest.json",
                   "--out", out2) == 0
        assert (out2 / "checkpoint.json").read_bytes() == checkpoint.read_bytes()
        assert (out2 / "loss.txt").read_bytes() == (checkpoint.parent / "loss.txt").read_bytes()

    def test_sample_rerun_byte_identical(self, tmp_path, checkpoint):
        out = tmp_path / "s"
        assert run("sample", "--checkpoint", checkpoint, "--strategy", "head-to-tail",
                   "--length", 6, "--num", 2, "--seed", 1, "--out", out) == 0
        out2 = tmp_path / "s-replay"
        assert run("rerun", "--manifest", out / "manifest.json", "--out", out2) == 0
        assert (out / "samples.jsonl").read_bytes() == (out2 / "samples.jsonl").read_bytes()

    # a stored value of a type its option never produces
    WRONG_TYPES = {"count": "3", "type_weights": 5, "seed": 1.5, "w": "5", "anchors": 5}

    @pytest.mark.parametrize("case, named", [
        ("missing-arg", "seed"), ("schema-mismatch", "99"), ("top-level-list", "list"),
        ("wrong-type", "count"), ("wrong-type", "type_weights"), ("wrong-type", "seed"),
        ("wrong-type", "w"), ("wrong-type", "anchors")])
    def test_malformed_manifest_is_usage_error(self, tmp_path, dataset, checkpoint, capsys,
                                               case, named):
        out = tmp_path / "s"
        assert run("sample", "--checkpoint", checkpoint, "--strategy", "head-to-tail",
                   "--length", 6, "--num", 1, "--out", out) == 0
        doc = json.loads((out / "manifest.json").read_text())
        if case == "missing-arg":
            del doc["args"]["seed"]
        elif case == "wrong-type":
            if named not in doc["args"]:  # a gen-data option
                doc = json.loads((dataset.parent / "manifest.json").read_text())
            doc["args"][named] = self.WRONG_TYPES[named]
        elif case == "schema-mismatch":
            doc["schema_versions"]["manifest"] = 99
        else:
            doc = [doc]
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("rerun", "--manifest", bad, "--out", tmp_path / "replay") == 2
        err = capsys.readouterr().err
        assert named in err and err.count("\n") == 1
        assert not (tmp_path / "replay").exists()

    def test_unknown_manifest_command(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"command": "nope", "args": {}}))
        assert run("rerun", "--manifest", bad) == 2


NOT_UTF8 = b"\xff\xfe not utf-8\n"

BAD_INPUTS = {
    "train-epochs-0": ["train", "--data", "{data}", "--set", "epochs=0"],
    "train-hidden-0": ["train", "--data", "{data}", "--set", "hidden=0"],
    "train-odd-t-embed": ["train", "--data", "{data}", "--set", "t_embed_dim=3"],
    "train-one-rbf-channel": ["train", "--data", "{data}", "--set", "rbf_channels=1"],
    "train-beta-end-2": ["train", "--data", "{data}", "--set", "beta_end=2"],
    "train-p-drop-2": ["train", "--data", "{data}", "--set", "p_drop_type=2"],
    "train-empty-data": ["train", "--data", "{empty}"],
    "train-config-not-utf8": ["train", "--data", "{data}", "--config", "{not_utf8}"],
    "train-data-not-utf8": ["train", "--data", "{not_utf8}"],
    "sample-bogus-mode": ["sample", "--checkpoint", "{ckpt}", "--strategy", "head-to-tail",
                          "--length", "8", "--set", "guidance_mode=bogus"],
    "sample-negative-w": ["sample", "--checkpoint", "{ckpt}", "--strategy", "head-to-tail",
                          "--length", "8", "--w", "-1"],
    "sample-length-30": ["sample", "--checkpoint", "{ckpt}", "--strategy", "head-to-tail",
                         "--length", "30"],
    "sample-t-steps-mismatch": ["sample", "--checkpoint", "{ckpt}", "--strategy",
                                "head-to-tail", "--length", "8", "--set", "t_steps=50"],
    "sample-hidden-override": ["sample", "--checkpoint", "{ckpt}", "--strategy",
                               "head-to-tail", "--length", "8", "--set", "hidden=64",
                               "--set", "rbf_channels=8"],
    "sample-constraint-file-not-utf8": ["sample", "--checkpoint", "{ckpt}",
                                        "--constraint-file", "{not_utf8}", "--length", "8"],
    "sample-checkpoint-not-utf8": ["sample", "--checkpoint", "{not_utf8}", "--strategy",
                                   "head-to-tail", "--length", "8"],
    "gen-data-weights-not-numbers": ["gen-data", "--count", "2", "--type-weights", "a,b"],
    "gen-data-weights-all-zero": ["gen-data", "--count", "2",
                                  "--type-weights", ",".join(["0"] * G.N_TYPES)],
    "rerun-manifest-not-utf8": ["rerun", "--manifest", "{not_utf8}"],
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_value_or_file_encoding_is_usage_error(tmp_path, capsys, case):
    cfg = CF.resolve()  # a 200-step network
    files = {
        "ckpt": tmp_path / "ckpt.json",
        "data": tmp_path / "data.jsonl",
        "empty": tmp_path / "empty.jsonl",
        "not_utf8": tmp_path / "not-utf8.txt",
    }
    D.save_checkpoint(D.init_params(CF.denoiser_config(cfg), 0), files["ckpt"], run_config=cfg)
    G.write_structures(files["data"], [G.generate_chain(6, seed=0)])
    files["empty"].write_text("")
    files["not_utf8"].write_bytes(NOT_UTF8)
    argv = [a.format(**files) for a in BAD_INPUTS[case]]
    if argv[0] != "rerun":
        argv += ["--out", str(tmp_path / "out")]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


NON_FINITE_OR_OUT_OF_RANGE = {
    "train-learning-rate-nan": ["train", "--data", "{data}", "--set", "learning_rate=nan"],
    "train-weight-decay-negative": ["train", "--data", "{data}", "--set", "weight_decay=-5"],
    "sample-w-nan": ["sample", "--w", "nan"],
    "sample-w-inf": ["sample", "--w", "inf"],
    "sample-energy-scale-nan": ["sample", "--mode", "energy", "--set", "energy_scale=nan"],
    "sample-energy-scale-negative": ["sample", "--mode", "energy",
                                     "--set", "energy_scale=-30"],
    "sample-grad-clip-nan": ["sample", "--mode", "energy", "--set", "energy_grad_clip=nan"],
    "check-tol-negative": ["check", "--tol", "-1"],
    "check-tol-nan": ["check", "--tol", "nan"],
    "check-tolerance-negative": ["check", "--set", "tolerance=-1"],
    "eval-tol-inf": ["eval", "--tol", "inf"],
    "train-coord-scale-0": ["train", "--data", "{data}", "--set", "coord_scale=0"],
    "train-coord-scale-negative": ["train", "--data", "{data}", "--set", "coord_scale=-1"],
    "train-coord-scale-nan": ["train", "--data", "{data}", "--set", "coord_scale=nan"],
    "train-embed-scale-nan": ["train", "--data", "{data}", "--set", "embed_scale=nan"],
    "train-beta-end-nan": ["train", "--data", "{data}", "--set", "beta_end=nan"],
    "train-rbf-d-max-inf": ["train", "--data", "{data}", "--set", "rbf_d_max=inf"],
}


@pytest.mark.parametrize("case", list(NON_FINITE_OR_OUT_OF_RANGE))
def test_non_finite_or_out_of_range_value_is_usage_error(tmp_path, capsys, case):
    cfg = CF.resolve()
    data, ckpt = tmp_path / "data.jsonl", tmp_path / "ckpt.json"
    G.write_structures(data, [G.generate_chain(6, seed=0)])
    D.save_checkpoint(D.init_params(CF.denoiser_config(cfg), 0), ckpt, run_config=cfg)
    command, *rest = [a.format(data=data) for a in NON_FINITE_OR_OUT_OF_RANGE[case]]
    argv = {
        "train": [command, *rest, "--out", tmp_path / "out"],
        "sample": [command, "--checkpoint", ckpt, "--strategy", "head-to-tail",
                   "--length", 8, *rest, "--out", tmp_path / "out"],
        "check": [command, "--structures", data, "--strategy", "head-to-tail", *rest],
        "eval": [command, "--samples", data, "--reference", data, "--per-target", 1,
                 "--strategy", "head-to-tail", *rest, "--out", tmp_path / "out"],
    }[command]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()

"""pepring benchmark: the real `pepring` CLI, driven in-process on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload zero-shot --seed 1 --seconds 20 --trace 0

Each run builds its inputs from --seed, repeats one pass of the workload's
commands through `pepring.cli.main(argv)` until --seconds have elapsed
(and at least the workload's minimum number of passes ran), checks every
output outside the timed region, requires each repeated call to write the
same bytes as its first run, and prints the metrics. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import POOL_SPAN, PRIMITIVES, SpanTable, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

K = 2  # candidates per `sample` call; one per worker on long-energy
SETUP_REPEATS = 5
REFERENCE_CHAINS = 200  # zero-shot eval reference set, 12-mers
TRAIN_CHAINS = 16  # train workload data, 8..16 residues
WORKLOADS = ("zero-shot", "long-energy", "train")


@dataclass
class Command:
    kind: str  # "sample", "eval" or "train": selects the output check
    argv: list[str]
    out: Path
    units: int = 0  # candidates or examples that a success delivers
    length: int = 0  # residues per sampled candidate
    key: int = 0  # commands with one key must write identical bytes


@dataclass
class Op:
    command: Command
    seconds: float
    reason: str | None  # one-line failure reason, None on success
    cpu_s: float  # own CPU (all threads) plus waited-for children
    children_cpu_s: float

    @property
    def ok(self) -> bool:
        return self.reason is None

    @property
    def good_units(self) -> int:
        return self.command.units if self.ok else 0


@dataclass
class Plan:
    commands: list[Command]  # one pass of the workload
    primary: str  # the command kind whose units the throughput counts
    min_passes: int = 2  # every pass after the first reruns each call
    extra: tuple[Command, ...] = ()  # run once, untimed, after the passes


# -- the program under test ---------------------------------------------------


def import_pepring():
    if not (SRC / "pepring" / "cli.py").is_file():
        print(f"error: no pepring sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pepring.cli  # noqa: F401


def invoke(argv: list[str]) -> str | None:
    """Run one CLI command; None on success, else a one-line reason."""
    from pepring import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code
        except Exception as exc:  # escaped the CLI as a traceback
            return one_line(f"{type(exc).__name__}: {exc}")
    if rc != 0:
        lines = err.getvalue().strip().splitlines()
        return one_line(f"exit {rc}: {lines[-1] if lines else 'no message'}")
    return None


def one_line(text: str) -> str:
    return text.strip().splitlines()[0][:200] if text.strip() else "no message"


def cpu_now() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


# -- output checks (never inside the timed region) -----------------------------


OUTPUTS = {"sample": ("samples.jsonl",), "eval": ("metrics.json",),
           "train": ("checkpoint.json", "loss.txt")}


class Checks:
    """Output checks bound to the unwrapped pepring functions.

    Besides checking each output's content, every successful call's
    output bytes must equal those of the first successful call with the
    same key: the same command rerun with the same seed, or a variant
    that must not change the bytes (such as another --workers count).
    """

    def __init__(self):
        from pepring import config, denoiser, graph

        self.read_structures = graph.read_structures
        self.load_checkpoint = denoiser.load_checkpoint
        self.epochs = config.resolve()["epochs"]
        self.first: dict[int, list[bytes]] = {}
        self.wrong = 0  # outputs that a check rejected

    def output(self, cmd: Command) -> str | None:
        try:
            reason = getattr(self, "_" + cmd.kind)(cmd)
            if reason is None:
                blobs = [(cmd.out / name).read_bytes() for name in OUTPUTS[cmd.kind]]
                if self.first.setdefault(cmd.key, blobs) != blobs:
                    reason = "output bytes differ from an earlier call with the same seed"
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            self.wrong += 1
            return one_line("check: " + reason)
        return None

    def _sample(self, cmd):
        graphs = self.read_structures(cmd.out / "samples.jsonl")
        if len(graphs) != K:
            return f"samples.jsonl holds {len(graphs)} records, expected {K}"
        for g in graphs:
            if g.n_peptide != cmd.length or not all(map(math.isfinite, g.coords.ravel())):
                return f"a record has {g.n_peptide} residues or non-finite coordinates"
        return None

    def _eval(self, cmd):
        with open(cmd.out / "metrics.json", encoding="utf-8") as fh:
            rate = float(json.load(fh)["success_rate"])
        return None if 0.0 <= rate <= 1.0 else f"success_rate {rate} outside [0, 1]"

    def _train(self, cmd):
        self.load_checkpoint(cmd.out / "checkpoint.json")
        losses = [float(line.split()[1]) for line in
                  (cmd.out / "loss.txt").read_text(encoding="utf-8").splitlines()]
        if len(losses) != self.epochs or not all(map(math.isfinite, losses)):
            return f"loss.txt holds {len(losses)} values or a non-finite one"
        return None


def run_command(cmd: Command, checks: Checks) -> Op:
    shutil.rmtree(cmd.out, ignore_errors=True)
    cpu0, kids0 = cpu_now()
    t0 = time.perf_counter()
    reason = invoke(cmd.argv)
    seconds = time.perf_counter() - t0
    cpu1, kids1 = cpu_now()
    if reason is None:
        reason = checks.output(cmd)
    # A CLI process exits after one command; here the next command would
    # otherwise inherit this one's cyclic garbage (tapes, tracebacks).
    gc.collect()
    return Op(cmd, seconds, reason, (cpu1 - cpu0) + (kids1 - kids0), kids1 - kids0)


# -- workloads ----------------------------------------------------------------


def derived_seeds(seed: int, n: int) -> list[int]:
    import numpy as np

    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=n)]


def write_checkpoint(path: Path, seed: int) -> None:
    """`denoiser.init_params(seed)` saved with the resolved default config."""
    from pepring import config, denoiser

    cfg = config.resolve()
    denoiser.save_checkpoint(denoiser.init_params(config.denoiser_config(cfg), seed), path,
                             run_config=cfg)


def gen_data(out: Path, count: int, len_min: int, len_max: int, seed: int) -> None:
    reason = invoke(["gen-data", "--count", str(count), "--len-min", str(len_min),
                     "--len-max", str(len_max), "--seed", str(seed), "--out", str(out)])
    if reason is not None:
        raise RuntimeError(f"setup: gen-data failed: {reason}")


def setup_inputs(workload: str, seed: int, d: Path) -> None:
    data_seed, ckpt_seed = derived_seeds(seed, 2)
    if workload == "zero-shot":
        gen_data(d / "reference", REFERENCE_CHAINS, 12, 12, data_seed)
        write_checkpoint(d / "checkpoint.json", ckpt_seed)
    elif workload == "long-energy":
        write_checkpoint(d / "checkpoint.json", ckpt_seed)
        (d / "empty.txt").write_text("", encoding="utf-8")
    else:
        gen_data(d / "data", TRAIN_CHAINS, 8, 16, data_seed)


def sample_argv(d: Path, out: Path, length: int, seed: int, workers: int, target, mode) -> list[str]:
    return (["sample", "--checkpoint", str(d / "checkpoint.json"), "--length", str(length),
             "--num", str(K), "--seed", str(seed), "--workers", str(workers), "--out", str(out)]
            + target + mode)


def plan_for(workload: str, seed: int, d: Path) -> Plan:
    runs = d / "runs"
    seeds = iter(derived_seeds(seed + 1, 4))
    plan = _plan(workload, runs, seeds, d)
    for key, cmd in enumerate(plan.commands):
        cmd.key = key
    return plan


def _plan(workload: str, runs: Path, seeds, d: Path) -> Plan:
    if workload == "zero-shot":
        commands = []
        for tname, target in (("ht", ["--strategy", "head-to-tail"]),
                              ("ss", ["--strategy", "disulfide", "--anchors", "2,8"])):
            for mname, mode in (("none", ["--mode", "none"]),
                                ("cfg", ["--mode", "cfg", "--w", "5"])):
                out = runs / f"{tname}-{mname}"
                commands.append(Command(
                    "sample", sample_argv(d, out, 12, next(seeds), 1, target, mode),
                    out, units=K, length=12))
                commands.append(Command("eval", [
                    "eval", "--samples", str(out / "samples.jsonl"),
                    "--reference", str(d / "reference" / "chains.jsonl"), *target,
                    "--per-target", str(K), "--out", str(out) + "-eval"], Path(str(out) + "-eval")))
        return Plan(commands, "sample")
    if workload == "long-energy":
        commands = [Command("sample", sample_argv(
            d, runs / "none", 25, next(seeds), 2,
            ["--constraint-file", str(d / "empty.txt")], ["--mode", "none"]),
            runs / "none", units=K, length=25)]
        for scale in (10, 30, 50):
            out = runs / f"energy-{scale}"
            commands.append(Command("sample", sample_argv(
                d, out, 25, next(seeds), 2, ["--strategy", "head-to-tail"],
                ["--mode", "energy", "--set", f"energy_scale={scale}"]), out, units=K, length=25))
        # the energy_scale 30 call once more at --workers 1: same bytes
        argv = list(commands[2].argv)
        argv[argv.index("--workers") + 1] = "1"
        argv[argv.index("--out") + 1] = str(runs / "workers-1")
        serial = Command("sample", argv, runs / "workers-1", units=K, length=25, key=2)
        # A pool call's time depends on where its workers and their BLAS
        # threads land on the cores, drawn anew per call; 12 calls a run
        # steady the run's mean.
        return Plan(commands, "sample", min_passes=3, extra=(serial,))
    from pepring import config

    out = runs / "train"
    return Plan([Command("train", ["train", "--data", str(d / "data" / "chains.jsonl"),
                                   "--out", str(out)],
                          out, units=TRAIN_CHAINS * config.resolve()["epochs"])], "train")


# -- measuring ----------------------------------------------------------------


# Run in a fresh interpreter: numpy is loaded first, so the figure is
# pepring's own import, which is what a change to the package can move.
IMPORT_PROBE = ("import time, numpy; t = time.perf_counter(); import pepring.cli; "
                "print(time.perf_counter() - t)")


def setup(workload: str, seed: int, d: Path, tracer=None) -> float:
    """Median seconds of SETUP_REPEATS set-ups: import, data, checkpoint.

    With a tracer, the last repetition runs traced.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for i in range(SETUP_REPEATS):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        traced = tracer is not None and i == SETUP_REPEATS - 1
        if traced:
            tracer.op_id = -1
            tracer.install()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                               capture_output=True, text=True, timeout=120)
        t0 = time.perf_counter()
        setup_inputs(workload, seed, d)
        times.append(float(probe.stdout) + time.perf_counter() - t0)
        if traced:
            tracer.uninstall()
            tracer.counters.clear()  # counters cover the workload's commands only
    return statistics.median(times)


def measure(plan: Plan, seconds: float, min_passes: int, checks: Checks, tracer=None,
            first_op: int = 0):
    """Whole passes until `seconds` have elapsed and at least `min_passes`
    ran; returns (passes, window_s)."""
    passes: list[list[Op]] = []
    op_id = first_op
    t0 = time.perf_counter()
    while True:
        ops = []
        for cmd in plan.commands:
            if tracer is not None:
                tracer.op_id = op_id
            op_id += 1
            ops.append(run_command(cmd, checks))
        passes.append(ops)
        if len(passes) >= min_passes and time.perf_counter() - t0 >= seconds:
            return passes, time.perf_counter() - t0


def pass_seconds(ops: list[Op]) -> float:
    return sum(op.seconds for op in ops)


def end_to_end(plan: Plan, passes, window: float, setup_s: float) -> dict:
    """Gated metrics. A quantity with no successful work reads as the whole
    window: a finite lower bound on a cost that never ended."""
    primary = [op for ops in passes for op in ops if op.command.kind == plan.primary]
    good = sum(op.good_units for op in primary)
    busy = sum(op.seconds for op in primary)
    experiment = [pass_seconds(ops) if all(op.ok for op in ops) else window for ops in passes]
    # The largest resident set of any one process of the run. A child's
    # figure includes the parent pages it maps after fork, so a sum of the
    # two would count the parent twice.
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "unit_ms": (1e3 * (busy / good if good else window), "ms"),
        # a mean, not a median: long-energy's pool calls vary widely with
        # where their threads land, and a mean over passes steadies that
        "experiment_s": (statistics.fmean(experiment), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def named_figures(plan: Plan, passes, all_ops: list[Op]) -> dict:
    """The named end-to-end figures, with failures as missing (None)."""
    def rate(kind):
        ops = [op for ops in passes for op in ops if op.command.kind == kind]
        if not ops:
            return "n/a"
        busy = sum(op.seconds for op in ops)
        return sum(op.good_units for op in ops) / busy

    calls = sorted(op.seconds if op.ok else math.inf
                   for ops in passes for op in ops if op.command.kind == "sample")
    p50 = statistics.median(calls) if calls else "n/a"
    experiment = [pass_seconds(ops) if all(op.ok for op in ops) else math.inf for ops in passes]
    return {
        "sample_cand_per_s": rate("sample"),
        "sample_call_s_p50": None if p50 == math.inf else p50,
        "train_ex_per_s": rate("train"),
        "experiment_s_p50": None if statistics.median(experiment) == math.inf
        else statistics.median(experiment),
        "failed_share": sum(not op.ok for op in all_ops) / len(all_ops),
    }


def per_layer(plan: Plan, table, traced, untraced) -> dict:
    """Per-layer figures from the traced passes, normalised per unit of work:
    per candidate on sampling workloads, per example on train."""
    sampling = plan.primary == "sample"
    units = table.count("diffusion.sample" if sampling else "diffusion.noise_loss")
    per = 1.0 / max(units, 1)
    c = table.counters
    prims = [f"tensor.{p}" for p in PRIMITIVES]
    steps = table.count("diffusion.reverse_step")
    primary = [op for ops in traced for op in ops if op.command.kind == plan.primary]
    cpu = sum(op.cpu_s for op in primary)
    overhead = (statistics.fmean(map(pass_seconds, traced))
                / statistics.fmean(map(pass_seconds, untraced)) - 1.0)
    return {
        "tensor.prim_calls": (table.count(*prims) * per, "count/unit"),
        "tensor.prim_self_ms": (table.self_ms(*prims) * per, "ms/unit"),
        "tensor.leaf_const_calls": (table.count("tensor.leaf", "tensor.constant") * per, "count/unit"),
        "tensor.leaf_const_ms": (table.total_ms("tensor.leaf", "tensor.constant") * per, "ms/unit"),
        "tensor.matmul_ms": (table.total_ms("tensor.matmul") * per, "ms/unit"),
        "tensor.matmul_gflop": (c.get("matmul_flop", 0.0) * 1e-9 * per, "GFLOP/unit"),
        "tensor.matmul_gbyte": (c.get("matmul_bytes", 0.0) * 1e-9 * per, "GB/unit"),
        "tensor.backward_calls": (table.count("tensor.backward") * per, "count/unit"),
        "tensor.backward_ms": (table.total_ms("tensor.backward") * per, "ms/unit"),
        "denoiser.forward_ms_p50": (table.percentile_ms("denoiser.forward", 50), "ms"),
        "denoiser.forward_ms_p90": (table.percentile_ms("denoiser.forward", 90), "ms"),
        "denoiser.forward_self_ms": (table.self_ms("denoiser.forward") * per, "ms/unit"),
        "denoiser.adapter_edges": (c.get("adapter_edges", 0.0) * per, "count/unit"),
        "denoiser.checkpoint_load_ms": (table.total_ms("denoiser.checkpoint_load") * per, "ms/unit"),
        "denoiser.checkpoint_save_ms": (table.total_ms("denoiser.checkpoint_save") * per, "ms/unit"),
        "denoiser.checkpoint_bytes": (c.get("checkpoint_bytes", 0.0) * per, "byte/unit"),
        "diffusion.sample_ms_p50": (table.percentile_ms("diffusion.sample", 50), "ms"),
        "diffusion.sample_ms_p90": (table.percentile_ms("diffusion.sample", 90), "ms"),
        "diffusion.reverse_step_ms": (table.total_ms("diffusion.sample") / max(steps, 1), "ms"),
        "diffusion.forward_passes_per_step": (
            table.children_of("diffusion.reverse_step", "denoiser.predict_noise") / max(steps, 1), "count"),
        "diffusion.energy_grad_ms": (table.total_ms("diffusion.energy_grad") * per, "ms/unit"),
        "diffusion.noise_loss_ms": (table.total_ms("diffusion.noise_loss") * per, "ms/unit"),
        "diffusion.train_self_ms": (table.self_ms("diffusion.train") * per, "ms/unit"),
        "diffusion.adamw_step_ms": (table.total_ms("diffusion.adamw_step") * per, "ms/unit"),
        "diffusion.adamw_steps": (table.count("diffusion.adamw_step") * per, "count/unit"),
        "encoding.encode_pair_calls": (table.count("encoding.encode_pair") * per, "count/unit"),
        "encoding.encode_pair_ms": (table.total_ms("encoding.encode_pair") * per, "ms/unit"),
        "constraints.design_sample_ms": (table.total_ms("constraints.design_sample") * per, "ms/unit"),
        "constraints.check_ms": (table.total_ms("constraints.check") * per, "ms/unit"),
        "graph.read_ms": (table.total_ms("graph.read") * per, "ms/unit"),
        "graph.write_ms": (table.total_ms("graph.write") * per, "ms/unit"),
        "graph.bytes_read": (c.get("graph_bytes_read", 0.0) * per, "byte/unit"),
        "graph.bytes_written": (c.get("graph_bytes_written", 0.0) * per, "byte/unit"),
        "graph.generate_chain_ms": (table.total_ms("graph.generate_chain", setup=True), "ms/setup"),
        "metrics.evaluate_ms": (table.total_ms("metrics.evaluate") * per, "ms/unit"),
        "metrics.dihedral_kl_ms": (table.total_ms("metrics.dihedral_kl") * per, "ms/unit"),
        "cli.command_self_ms": (table.self_ms("cli.main") * per, "ms/unit"),
        "cli.pool_wall_ms": (table.total_ms(POOL_SPAN) * per, "ms/unit"),
        "cli.children_cpu_s": (sum(op.children_cpu_s for ops in traced for op in ops) * per, "s/unit"),
        "cli.cand_per_cpu_s": (sum(op.good_units for op in primary) / cpu if cpu else 0.0, "1/cpu-s"),
        "trace.overhead_pct": (100.0 * overhead, "%"),
    }


# -- recording ----------------------------------------------------------------


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, read through ctypes."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    import numpy as np

    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((SRC / "pepring").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads_env": {v: os.environ.get(v, "unset") for v in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads": blas_threads(),
    }


def failure_summary(ops: list[Op], run_dir: Path) -> dict[str, int]:
    counts: dict[str, int] = {}
    for op in ops:
        if not op.ok:
            key = f"{op.command.argv[0]}: {op.reason}".replace(str(run_dir), "<run>")
            counts[key] = counts.get(key, 0) + 1
    return counts


def fmt(value) -> str:
    if value is None:
        return "missing"
    return value if isinstance(value, str) else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_pepring()
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer(run_dir / "spool") if args.trace else None
    checks = Checks()
    setup_s = setup(args.workload, args.seed, run_dir / "inputs", tracer)
    plan = plan_for(args.workload, args.seed, run_dir / "inputs")

    if tracer is None:
        passes, window = measure(plan, args.seconds, plan.min_passes, checks)
        timed_ops = [op for ops in passes for op in ops]
    else:
        # first half untraced, second half traced: the gap is the overhead
        half = (args.seconds / 2, math.ceil(plan.min_passes / 2))
        untraced, _ = measure(plan, *half, checks)
        tracer.install()
        passes, window = measure(plan, *half, checks, tracer, first_op=sum(map(len, untraced)))
        tracer.uninstall()
        timed_ops = [op for ops in untraced + passes for op in ops]
    all_ops = timed_ops + [run_command(cmd, checks) for cmd in plan.extra]

    if tracer is None:
        metrics = end_to_end(plan, passes, window, setup_s)
    else:
        table = SpanTable(tracer)
        metrics = per_layer(plan, table, passes, untraced)
        tracer.save(WORK / f"trace-{args.workload}.npz", table.self_time)  # latest run only
    named = named_figures(plan, passes if tracer is None else untraced, all_ops)
    failures = failure_summary(all_ops, run_dir)
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "K": K, "passes": len(passes), "window_s": window,
        "environment": env, "named": named, "failures": failures,
        "calls_s": [[op.command.key, op.seconds, op.ok] for op in timed_ops],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / "results" / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  K={K}  passes {len(passes)}  "
          f"window {window:.3f} s  trace {'on' if args.trace else 'off'}")
    for key, value in named.items():
        print(f"  {key:24s} {fmt(value)}")
    for key, (value, unit) in metrics.items():
        note = "  (computed from operand shapes)" if key.startswith("tensor.matmul_g") else ""
        print(f"  {key:32s} {value:14.6g} {unit}{note}")
    for reason, count in sorted(failures.items(), key=lambda kv: -kv[1]):
        print(f"  failed x{count}: {reason}")
    print("  env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": checks.wrong == 0,
        "attempted": len(all_ops),
        "failed": sum(not op.ok for op in all_ops),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

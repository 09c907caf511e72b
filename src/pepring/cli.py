"""Command line entry point.

Subcommands cover the whole workflow: gen-data makes synthetic training
chains, train fits the denoiser, sample generates peptides toward a
ring-closure target, check verifies constraint satisfaction, decompose
prints a strategy's unit constraints, eval computes the metric suite,
and rerun replays any previous run from its manifest.

Every command writes a manifest.json into its output directory before
doing real work; re-running from that manifest reproduces the output
files byte for byte. Exit codes: 0 success, 1 domain failure (an
unsatisfied constraint, diverged training), 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import config as CF
from . import constraints as C
from . import denoiser as D
from . import diffusion as DF
from . import graph as G
from . import metrics as M
from .graph import STRUCTURE_SCHEMA_VERSION

MANIFEST_SCHEMA_VERSION = 1
SCHEMA_VERSIONS = {
    "manifest": MANIFEST_SCHEMA_VERSION,
    "structure_file": STRUCTURE_SCHEMA_VERSION,
    "checkpoint": D.CHECKPOINT_SCHEMA_VERSION,
    "config": CF.CONFIG_SCHEMA_VERSION,
}

STRATEGY_ALIASES = {
    "stapled-d": C.STAPLED_D,
    "stapled-e": C.STAPLED_E,
    "stapled": C.STAPLED_D,
    "head-to-tail": C.HEAD_TO_TAIL,
    "h-t": C.HEAD_TO_TAIL,
    "ht": C.HEAD_TO_TAIL,
    "disulfide": C.DISULFIDE,
    "-s-s-": C.DISULFIDE,
    "s-s": C.DISULFIDE,
    "bicycle": C.BICYCLE,
}


class UsageError(ValueError):
    """Bad flag combination or unparsable argument."""


def parse_strategy_kinds(text: str) -> list[str]:
    """Expand a strategy expression like ``2*-S-S-+h-t`` into kinds.

    ``+`` separates parts, ``k*`` repeats one part k times, and names are
    matched case-insensitively against the alias table.
    """
    kinds: list[str] = []
    for part in text.split("+"):
        part = part.strip().lower()
        repeat = 1
        if "*" in part:
            count, _, rest = part.partition("*")
            try:
                repeat = int(count)
            except ValueError:
                raise UsageError(f"bad repeat count in strategy part {part!r}") from None
            part = rest.strip()
        if part not in STRATEGY_ALIASES:
            raise UsageError(
                f"unknown strategy {part!r}; choose from {sorted(set(STRATEGY_ALIASES))}"
            )
        if repeat < 1:
            raise UsageError(f"repeat count must be >= 1 in {text!r}")
        kinds.extend([STRATEGY_ALIASES[part]] * repeat)
    return kinds


def _parse_anchor_groups(groups) -> list[tuple[int, ...]]:
    parsed = []
    for group in groups or ():
        try:
            parsed.append(tuple(int(tok) for tok in group.split(",") if tok.strip()))
        except ValueError:
            raise UsageError(f"anchors must be comma-separated integers, got {group!r}") from None
    return parsed


def build_target(strategy: str, anchor_groups, length: int, links: C.LinkLengths) -> C.ConstraintPair:
    """Constraint pair for a strategy expression on a chain of `length`.

    Anchor groups are consumed left to right by the parts that need
    anchors; head-to-tail needs none. Example: ``2*disulfide`` with
    ``--anchors 1,5 --anchors 3,9``.
    """
    kinds = parse_strategy_kinds(strategy)
    groups = _parse_anchor_groups(anchor_groups)
    needs = [k for k in kinds if C.ANCHOR_COUNTS[k] > 0]
    if len(groups) != len(needs):
        raise UsageError(
            f"strategy {strategy!r} needs {len(needs)} anchor group(s), got {len(groups)}"
        )
    it = iter(groups)
    pairs = []
    for kind in kinds:
        anchors = next(it) if C.ANCHOR_COUNTS[kind] > 0 else ()
        pairs.append(C.decompose(C.StrategySpec(kind, anchors, links), length))
    return C.compose(pairs)


def _target_from_args(args, length: int, cfg) -> C.ConstraintPair:
    if getattr(args, "constraint_file", None):
        if getattr(args, "strategy", None):
            raise UsageError("give either --strategy or --constraint-file, not both")
        return C.parse_constraint_text(Path(args.constraint_file).read_text(encoding="utf-8"))
    if not getattr(args, "strategy", None):
        raise UsageError("a target needs --strategy or --constraint-file")
    return build_target(args.strategy, args.anchors, length, CF.link_lengths(cfg))


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _manifest_args(args) -> dict:
    skip = {"func", "command"}
    out = {}
    for key, value in vars(args).items():
        if key in skip:
            continue
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def write_manifest(out_dir: Path, command: str, args, *, outputs, started, cfg=None,
                   extra=None, elapsed=None) -> Path:
    doc = {
        "schema_versions": SCHEMA_VERSIONS,
        "command": command,
        "args": _manifest_args(args),
        "config": cfg,
        "outputs": list(outputs),
        "started_utc": started,
        "elapsed_s": elapsed,
    }
    if extra:
        doc.update(extra)
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _resolved_config(args) -> dict:
    layers = []
    if getattr(args, "config", None):
        layers.append(CF.parse_config_text(Path(args.config).read_text(encoding="utf-8")))
    layers.append(CF.parse_overrides(getattr(args, "set", None)))
    return CF.resolve(*layers)


def _prepare_out(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(args) -> int:
    if not 4 <= args.len_min <= args.len_max <= 25:
        raise UsageError("lengths must satisfy 4 <= len-min <= len-max <= 25")
    if args.count < 1:
        raise UsageError("count must be positive")
    weights = None
    if args.type_weights:
        try:
            weights = np.array([float(w) for w in args.type_weights.split(",")])
        except ValueError:
            raise UsageError(f"--type-weights must be numbers, got {args.type_weights!r}") from None
        if weights.size != G.N_TYPES:
            raise UsageError(f"--type-weights needs {G.N_TYPES} comma-separated values")
        if not (np.all(np.isfinite(weights)) and np.all(weights >= 0) and weights.sum() > 0):
            raise UsageError("--type-weights must be finite, non-negative and not all zero")
        weights = weights / weights.sum()
    out = _prepare_out(args)
    started = _utc_now()
    write_manifest(out, "gen-data", args, outputs=["chains.jsonl"], started=started)
    t0 = time.perf_counter()
    master = np.random.default_rng(args.seed)
    graphs = []
    for _ in range(args.count):
        length = int(master.integers(args.len_min, args.len_max + 1))
        graphs.append(G.generate_chain(length, seed=int(master.integers(2**63)), type_distribution=weights))
    G.write_structures(out / "chains.jsonl", graphs)
    write_manifest(out, "gen-data", args, outputs=["chains.jsonl"],
                   started=started, elapsed=round(time.perf_counter() - t0, 3))
    print(f"wrote {len(graphs)} chains to {out / 'chains.jsonl'}")
    return 0


def cmd_train(args) -> int:
    cfg = _resolved_config(args)
    train_cfg, schedule, net = CF.train_config(cfg), CF.schedule(cfg), CF.denoiser_config(cfg)
    data = G.read_structures(args.data)
    if not data:
        raise UsageError(f"no structures in {args.data}")
    out = _prepare_out(args)
    started = _utc_now()
    outputs = ["checkpoint.json", "loss.txt", "config.txt"]
    write_manifest(out, "train", args, cfg=cfg, outputs=outputs, started=started)
    (out / "config.txt").write_text(CF.format_config(cfg), encoding="utf-8")
    t0 = time.perf_counter()
    params, losses = DF.train(data, train_cfg, schedule, net)
    D.save_checkpoint(params, out / "checkpoint.json", run_config=cfg)
    with open(out / "loss.txt", "w", encoding="utf-8", newline="\n") as fh:
        for epoch, loss in enumerate(losses):
            fh.write(f"{epoch} {loss:.6f}\n")
    write_manifest(out, "train", args, cfg=cfg, outputs=outputs,
                   started=started, elapsed=round(time.perf_counter() - t0, 3))
    print(f"trained {len(losses)} epochs; final mean loss {losses[-1]:.6f}")
    return 0


def _sample_one(params, target, length, guidance, schedule, seed_key):
    rng = np.random.default_rng(seed_key)
    return DF.sample(params, target, length, guidance, schedule, rng)


def _openblas_function(verb: str):
    """OpenBLAS's `<verb>_num_threads` as numpy loaded it, or None.

    numpy >= 2 wheels bundle OpenBLAS with the `scipy_` prefix and the
    `64_` suffix of its ILP64 build; other builds export the plain names.
    A handle on numpy's core extension also resolves its dependencies'
    symbols, so this finds whichever BLAS numpy linked against. numpy 1.26
    ships `numpy._core` as pure-Python stubs, so the extension is the
    first of the two core modules whose file is a shared library. Any
    failure to open it gives None: this runs in pool initializers, where
    an exception would kill each worker as it starts.
    """
    import ctypes
    import importlib
    from importlib.machinery import EXTENSION_SUFFIXES

    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            path = getattr(importlib.import_module(name), "__file__", None)
        except ImportError:
            continue
        if path and path.endswith(tuple(EXTENSION_SUFFIXES)):
            break
    else:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{verb}_num_threads{suffix}", None)
            if fn is not None:
                return fn
    return None


def _one_blas_thread() -> None:
    """Pool initializer: the workers are the parallelism, so BLAS gets one thread.

    With OpenBLAS's default of one thread per core, N workers would run
    N sets of busy-waiting BLAS threads on the same cores. One thread does
    not change results: OpenBLAS splits a product across threads by blocks
    of the output, not along the summed axis, so every output element is
    summed in the same order as in the serial run.
    """
    setter = _openblas_function("set")
    if setter is not None:
        setter(1)


def cmd_sample(args) -> int:
    if args.num < 1:
        raise UsageError("--num must be positive")
    if args.workers < 1:
        raise UsageError("--workers must be positive")
    if not 4 <= args.length <= 25:
        raise UsageError(f"--length must be in [4, 25], got {args.length}")
    params = D.load_checkpoint(args.checkpoint)
    cfg = CF.resolve(
        D.load_run_config(args.checkpoint),
        CF.parse_overrides(getattr(args, "set", None)),
    )
    target = _target_from_args(args, args.length, cfg)
    guidance = CF.guidance_config(cfg, mode=args.mode, weight=args.w)
    schedule = CF.schedule(cfg)
    net = CF.denoiser_config(cfg)
    if net != params.config:
        differ = [k for k, v in asdict(net).items() if v != getattr(params.config, k)]
        raise UsageError(f"config keys {differ} differ from the checkpoint's network")
    out = _prepare_out(args)
    started = _utc_now()
    extra = {"target_constraint": C.canonical_text(target).splitlines()}
    outputs = ["samples.jsonl", "config.txt"]
    write_manifest(out, "sample", args, cfg=cfg, outputs=outputs,
                   extra=extra, started=started)
    (out / "config.txt").write_text(CF.format_config(cfg), encoding="utf-8")
    t0 = time.perf_counter()
    seed_keys = [[args.seed, i] for i in range(args.num)]
    workers = min(args.workers, args.num)
    if workers > 1:
        import multiprocessing as mp

        with mp.get_context("fork").Pool(workers, initializer=_one_blas_thread) as pool:
            graphs = pool.starmap(
                _sample_one,
                [(params, target, args.length, guidance, schedule, k) for k in seed_keys],
            )
    else:
        graphs = [
            _sample_one(params, target, args.length, guidance, schedule, k)
            for k in seed_keys
        ]
    G.write_structures(out / "samples.jsonl", graphs)
    write_manifest(out, "sample", args, cfg=cfg, outputs=outputs,
                   extra=extra, started=started, elapsed=round(time.perf_counter() - t0, 3))
    print(f"wrote {len(graphs)} samples to {out / 'samples.jsonl'}")
    return 0


def _tolerance(args, cfg) -> float:
    """The distance tolerance: --tol, else the config's `tolerance`."""
    tol = args.tol if args.tol is not None else cfg["tolerance"]
    if not 0 <= tol < math.inf:
        raise UsageError(f"distance tolerance must be finite and >= 0, got {tol}")
    return tol


def cmd_check(args) -> int:
    cfg = CF.resolve(CF.parse_overrides(getattr(args, "set", None)))
    tol = _tolerance(args, cfg)
    graphs = G.read_structures(args.structures)
    if not graphs:
        raise UsageError(f"no structures in {args.structures}")
    all_ok = True
    for idx, g in enumerate(graphs):
        target = _target_from_args(args, g.n_peptide, cfg)
        report = C.check_satisfaction(g, target, tol=tol)
        status = "pass" if report.passed else "FAIL"
        print(f"structure {idx}: {status}")
        for entry in report.entries:
            print(f"  {entry.describe()}")
        all_ok = all_ok and report.passed
    return 0 if all_ok else 1


def cmd_decompose(args) -> int:
    cfg = CF.resolve(CF.parse_overrides(getattr(args, "set", None)))
    target = build_target(args.strategy, args.anchors, args.length, CF.link_lengths(cfg))
    sys.stdout.write(C.canonical_text(target))
    return 0


def cmd_eval(args) -> int:
    cfg = CF.resolve(CF.parse_overrides(getattr(args, "set", None)))
    tol = _tolerance(args, cfg)
    generated = G.read_structures(args.samples)
    reference = G.read_structures(args.reference)
    if not generated:
        raise UsageError(f"no samples in {args.samples}")
    if not reference:
        raise UsageError(f"no reference structures in {args.reference}")
    for path, graphs in ((args.samples, generated), (args.reference, reference)):
        for idx, g in enumerate(graphs):
            if g.n_peptide < 4:
                raise UsageError(
                    f"structure {idx} in {path} has {g.n_peptide} residues; "
                    "a pseudo-dihedral needs at least 4"
                )
    k = args.per_target
    if k < 1 or len(generated) % k:
        raise UsageError(
            f"--per-target {k} does not evenly divide {len(generated)} samples"
        )
    samples: dict[str, list[G.GeometricGraph]] = {}
    constraints: dict[str, C.ConstraintPair] = {}
    for start in range(0, len(generated), k):
        group = generated[start:start + k]
        lengths = {g.n_peptide for g in group}
        if len(lengths) > 1:
            raise UsageError(
                f"samples {start}..{start + k - 1} mix lengths {sorted(lengths)}"
            )
        key = f"t{start // k:03d}"
        samples[key] = group
        constraints[key] = _target_from_args(args, group[0].n_peptide, cfg)
    out = _prepare_out(args)
    started = _utc_now()
    outputs = ["metrics.txt", "metrics.json", "config.txt"]
    write_manifest(out, "eval", args, cfg=cfg, outputs=outputs, started=started)
    (out / "config.txt").write_text(CF.format_config(cfg), encoding="utf-8")
    t0 = time.perf_counter()
    report = M.evaluate(samples, constraints, reference, tol=tol)
    text = "\n".join(report.lines()) + "\n"
    (out / "metrics.txt").write_text(text, encoding="utf-8")
    record = {
        "success_rate": f"{report.success_rate:.6f}",
        "aa_kl": f"{report.aa_kl:.6f}",
        "dihedral_kl": f"{report.dihedral_kl:.6f}",
        "tolerance": f"{report.tolerance:.6f}",
        "excluded_types": [G.AA_LETTERS[t] for t in report.excluded_types],
        "targets": [
            {"id": t.target_id, "n_samples": t.n_samples, "n_passed": t.n_passed}
            for t in report.targets
        ],
    }
    with open(out / "metrics.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    write_manifest(out, "eval", args, cfg=cfg, outputs=outputs, started=started,
                   elapsed=round(time.perf_counter() - t0, 3))
    sys.stdout.write(text)
    return 0


def _command_actions(command: str) -> dict[str, argparse.Action]:
    """The sub-parser of `command`'s actions, by argument name."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions if a.dest != "help"}


def _check_stored_arg(key: str, value, action: argparse.Action) -> None:
    """A manifest arg must be a value its parser action could have produced."""
    if isinstance(action, argparse._AppendAction):
        expected = "a list of strings"
        ok = isinstance(value, list) and all(isinstance(v, str) for v in value)
    else:
        kind = action.type or str
        expected = {int: "an integer", float: "a number", str: "a string"}[kind]
        # any JSON number can stand for a float; bool is an int subclass
        ok = isinstance(value, (int, float) if kind is float else kind) and not isinstance(value, bool)
        ok = ok or (value is None and action.default is None and not action.required)
    if not ok:
        raise UsageError(f"manifest arg {key!r} is {value!r}, expected {expected}")


def cmd_rerun(args) -> int:
    with open(args.manifest, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise UsageError(f"{args.manifest} is not a manifest: top level is a {type(doc).__name__}")
    command = doc.get("command")
    if command not in COMMANDS:
        raise UsageError(f"manifest names unknown command {command!r}")
    if doc.get("schema_versions") != SCHEMA_VERSIONS:
        raise UsageError(
            f"manifest schema versions {doc.get('schema_versions')} differ from "
            f"this program's {SCHEMA_VERSIONS}"
        )
    stored = doc.get("args")
    if not isinstance(stored, dict):
        raise UsageError("manifest args are not an object")
    actions = _command_actions(command)
    missing = sorted(set(actions) - set(stored))
    if missing:
        raise UsageError(f"manifest args for {command!r} lack {missing}")
    if args.out:
        if "out" not in stored:
            raise UsageError(f"command {command!r} takes no --out to override")
        stored["out"] = args.out
    for key, action in actions.items():
        _check_stored_arg(key, stored[key], action)
    replay = argparse.Namespace(**stored)
    return COMMANDS[command](replay)


def _add_config_flags(p):
    p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                   help="override one config key (repeatable)")


def _add_target_flags(p):
    p.add_argument("--strategy",
                   help="ring-closure strategy expression, e.g. disulfide, 2*stapled, "
                        "-S-S-+H-T (spell dash-leading names as --strategy=-S-S-)")
    p.add_argument("--anchors", action="append", default=[], metavar="I[,J[,K]]",
                   help="anchor indices for one strategy part (repeatable, consumed in order)")
    p.add_argument("--constraint-file", help="constraint text file instead of a named strategy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pepring",
        description="Guided diffusion over peptide C-alpha chains with composable ring-closure constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate synthetic training chains")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--len-min", type=int, default=8)
    p.add_argument("--len-max", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--type-weights", help="20 comma-separated residue weights (default uniform)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the denoiser on a structure file")
    p.add_argument("--data", required=True, help="training structure file")
    p.add_argument("--config", help="config file (key = value lines)")
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="generate peptides toward a constraint target")
    p.add_argument("--checkpoint", required=True)
    _add_target_flags(p)
    p.add_argument("--length", type=int, required=True, help="residues per sample")
    p.add_argument("--num", type=int, default=1)
    p.add_argument("--w", type=float, default=None, help="guidance weight")
    p.add_argument("--mode", choices=DF.GUIDANCE_MODES, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("check", help="verify structures against a constraint target")
    p.add_argument("--structures", required=True)
    _add_target_flags(p)
    p.add_argument("--tol", type=float, default=None, help="distance tolerance in Angstrom")
    _add_config_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="print a strategy's unit constraints")
    p.add_argument("--strategy", required=True)
    p.add_argument("--anchors", action="append", default=[], metavar="I[,J[,K]]")
    p.add_argument("--length", type=int, required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("eval", help="metric suite over generated samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--reference", required=True)
    _add_target_flags(p)
    p.add_argument("--per-target", type=int, default=5)
    p.add_argument("--tol", type=float, default=None)
    _add_config_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rerun", help="replay a previous run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="override the output directory")
    p.set_defaults(func=cmd_rerun)

    return parser


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "sample": cmd_sample,
    "check": cmd_check,
    "decompose": cmd_decompose,
    "eval": cmd_eval,
}

_USAGE_ERRORS = (
    UsageError,
    CF.ConfigError,
    C.ConstraintError,
    G.StructureError,
    D.CheckpointError,
    OSError,
    json.JSONDecodeError,
    UnicodeError,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (RuntimeError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

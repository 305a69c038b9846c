"""Operator command line: validate, run, resume, status, topo, iobench, scaling.

Exit codes: 0 success/completed, 1 failed (including corrupt checkpoints and
damaged stores), 2 stalled with a persisted checkpoint, 64 invalid
configuration or usage, 128 + the signal number when stopped by SIGINT or
SIGTERM.  Every flag can also come from the environment as BEE_<FLAG>.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from contextlib import closing
from dataclasses import dataclass, replace
from pathlib import Path

from bee.model import (
    AppSpec,
    DataVolume,
    HardwareConfig,
    NetworkSolution,
    ParseError,
    ResourcePool,
    StorageSolution,
    canonical_json,
    from_json,
    load_json_file,
    to_json,
    validate,
)
from bee.storage import (DEFAULT_NFS_CAP, CheckpointStore, StorageError, VolumeStore,
                         iobench_table, read_status, run_id_problem, sha256_hex)
from bee.workload import make_input_bytes
from bee.netvirt.topology import build_topology, cost_of_trace, route
from bee.orchestrator import Outcome, RunResult, derive_run_id, run_workflow
from bee.backends import BACKEND_KINDS, SIM_HPC, SimConfig, make_backend
from bee.backends.scaling import replay_scaling

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_STALLED = 2
EXIT_CONFIG = 64

DEFAULT_INPUT_BYTES = 65536


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto the config exit code, each
    reported on one line."""

    def error(self, message):  # noqa: A003 - argparse API
        print(f"{self.prog}: error: {message} (see --help)", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _env(name: str, default=None):
    return os.environ.get(f"BEE_{name}", default)


def _env_flag(name: str) -> bool:
    return str(_env(name, "")).lower() in ("1", "true", "yes", "on")


def _number(cast, ok, expected: str):
    """An argparse type: a `cast` number for which `ok` holds."""
    def parse(text: str):
        try:
            if ok(value := cast(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_size = _number(int, lambda n: n >= 0, "a non-negative integer")
_positive = _number(int, lambda n: n >= 1, "a positive integer")
_rate = _number(float, lambda x: 0 < x < float("inf"), "a positive finite number")


def _one_of(choices) -> dict:
    """argparse `type` and `metavar` for one of `choices`; unlike `choices=`,
    the type also checks a default taken from the environment."""
    def parse(text: str) -> str:
        if text in choices:
            return text
        raise argparse.ArgumentTypeError(f"expected one of {', '.join(choices)}, got {text!r}")
    return {"type": parse, "metavar": "{" + ",".join(choices) + "}"}


def _counts(text: str) -> list[int]:
    """A comma-separated list of positive integers (an argparse type)."""
    counts = [_positive(c) for c in text.split(",") if c.strip()]
    if not counts:
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return counts


def build_parser() -> argparse.ArgumentParser:
    # defaults from the environment stay strings: argparse checks them with the flag's type
    parser = _Parser(prog="bee", description="containerized-app run orchestration")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p, need_files=True):
        p.add_argument("--pool", default=_env("POOL"), required=need_files and not _env("POOL"),
                       help="pool JSON file (priority-ordered systems)")
        p.add_argument("--app", default=_env("APP"), required=need_files and not _env("APP"),
                       help="application JSON file")
        p.add_argument("--uconf", default=_env("UCONF"), required=need_files and not _env("UCONF"),
                       help="hardware configuration JSON file")

    def add_run_flags(p):
        p.add_argument("--store", default=_env("STORE", "bee-store"),
                       help="state/volume/checkpoint store directory")
        p.add_argument("--seed", type=int, default=_env("SEED", "0"))
        p.add_argument("--json", action="store_true", default=_env_flag("JSON"),
                       help="machine-readable output")
        p.add_argument("--backend", default=_env("BACKEND", SIM_HPC), **_one_of(BACKEND_KINDS))
        p.add_argument("--loop-pool", action="store_true", default=_env_flag("LOOP_POOL"),
                       help="re-enqueue systems after use instead of single-pass")
        p.add_argument("--input-size", type=_size, default=DEFAULT_INPUT_BYTES,
                       help="bytes of seeded input data synthesized for the run")
        p.add_argument("--sim-config", default=_env("SIM_CONFIG"),
                       help="backend calibration JSON (backend/seed flags override it)")

    p = sub.add_parser("validate", help="check config files against the schemas")
    add_config_flags(p)
    p.add_argument("--json", action="store_true", default=_env_flag("JSON"))

    p = sub.add_parser("run", help="run the app across the pool")
    add_config_flags(p)
    add_run_flags(p)

    p = sub.add_parser("resume", help="resume a stalled run from a checkpoint")
    add_config_flags(p)
    add_run_flags(p)
    p.add_argument("--checkpoint",
                   help="checkpoint <store>/<run-id>/<seq> as `bee run` prints it, read "
                   "from the run directory's log (no such directory need exist); by "
                   "default the latest of the run `bee run` starts from these flags")

    p = sub.add_parser("status", help="show the persisted state of a run")
    p.add_argument("run_id")
    p.add_argument("--store", default=_env("STORE", "bee-store"))
    p.add_argument("--json", action="store_true", default=_env_flag("JSON"))

    p = sub.add_parser("topo", help="cost report for a topology and trace")
    p.add_argument("kind", choices=[k.value for k in NetworkSolution])
    p.add_argument("n", type=int)
    p.add_argument("trace", help="trace JSON file: list of {src, dst, bytes}")
    p.add_argument("--json", action="store_true", default=_env_flag("JSON"))

    p = sub.add_parser("iobench", help="modeled shared-storage throughput table")
    p.add_argument("--solution", default=StorageSolution.DATA_IMAGE_NFS.value,
                   choices=[s.value for s in StorageSolution])
    p.add_argument("--max-nodes", type=_positive, default=32)
    p.add_argument("--native-read", type=_rate, default=500.0)
    p.add_argument("--native-write", type=_rate, default=500.0)
    p.add_argument("--nfs-cap", type=_rate, default=DEFAULT_NFS_CAP)
    p.add_argument("--json", action="store_true", default=_env_flag("JSON"))

    p = sub.add_parser("scaling", help="trace-replay scaling study")
    p.add_argument("--app", default=_env("APP"), required=not _env("APP"))
    p.add_argument("--backend", default=_env("BACKEND", SIM_HPC), **_one_of(BACKEND_KINDS))
    p.add_argument("--topology", default=NetworkSolution.P2P_TREE.value,
                   choices=[k.value for k in NetworkSolution] + ["flat"])
    p.add_argument("--process-counts", type=_counts, default="1,2,4,8,16,32,64")
    p.add_argument("--seed", type=int, default=_env("SEED", "0"))
    p.add_argument("--json", action="store_true", default=_env_flag("JSON"))
    return parser


def _load_configs(args):
    return (from_json(ResourcePool, load_json_file(args.pool), "pool"),
            from_json(AppSpec, load_json_file(args.app), "app"),
            from_json(HardwareConfig, load_json_file(args.uconf), "uconf"))


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(canonical_json(doc))
    else:
        for line in text_lines:
            print(line)


def _render_violations(args, violations) -> None:
    doc = {"violations": [{"field": v.field, "rule": v.rule, "message": v.message}
                          for v in violations]}
    lines = [f"{v.field}: {v.rule}: {v.message}" for v in violations] or ["ok"]
    _emit(args, doc, lines)


def cmd_validate(args) -> int:
    pool, app, hardware = _load_configs(args)
    violations = validate(pool, app, hardware)
    _render_violations(args, violations)
    return EXIT_CONFIG if violations else EXIT_OK


def _load_sim_config(args) -> SimConfig:
    cfg = SimConfig()
    if args.sim_config:
        cfg = from_json(SimConfig, load_json_file(args.sim_config), "sim_config")
        problems = cfg.violations()
        if problems:
            raise ParseError(f"sim_config.{problems[0]}")
    return replace(cfg, backend=args.backend, seed=args.seed)


def _run_and_render(args, pool, app, hardware, resume_from=None, resume_content=None) -> int:
    cfg = _load_sim_config(args)
    run_id = resume_from.run_id if resume_from is not None else derive_run_id(app, args.seed)
    volume_id = f"{run_id}-data"
    if resume_from is not None:
        # run_workflow checks the checkpoint's bytes before the volume takes them
        content, digest = resume_content, resume_from.digest
    else:
        # describe the input, not the volume: a completed run appended its output
        content = make_input_bytes(args.seed, app.name, args.input_size)
        digest = sha256_hex(content)
        vstore = VolumeStore(args.store)
        if not vstore.exists(volume_id):
            vstore.create(volume_id, content, digest=digest)
    volume = DataVolume(id=volume_id, byte_size=len(content), content_digest=digest)

    result = run_workflow(pool, app, volume, hardware,
                          lambda system: make_backend(system, cfg), args.store,
                          cfg=cfg, run_id=run_id, loop_pool=args.loop_pool,
                          resume_from=resume_from, resume_content=resume_content)

    ckpt_path = None
    if result.outcome is Outcome.STALLED_WITH_CHECKPOINT:
        latest = CheckpointStore(args.store).latest(run_id)
        ckpt_path = str(latest) if latest else None

    doc = {"run_id": run_id, "checkpoint_path": ckpt_path} | to_json(result)
    lines = [f"run {run_id}: {result.outcome.value}"]
    for rec in result.history:
        lines.append(f"  {rec.system_id}: {rec.ended_by.value} "
                     f"(used {rec.slot_duration_used:.3f}s, +{rec.progress_delta:g} work)")
    if result.output_volume is not None:
        lines.append(f"  output digest {result.output_volume.content_digest}")
    if ckpt_path:
        lines.append(f"  checkpoint: {ckpt_path}")
    _emit(args, doc, lines)

    if result.outcome is Outcome.COMPLETED:
        return EXIT_OK
    if result.outcome is Outcome.STALLED_WITH_CHECKPOINT:
        return EXIT_STALLED
    return EXIT_FAILED


def cmd_run(args) -> int:
    pool, app, hardware = _load_configs(args)
    violations = validate(pool, app, hardware)
    if violations:
        _render_violations(args, violations)
        return EXIT_CONFIG
    return _run_and_render(args, pool, app, hardware)


def cmd_resume(args) -> int:
    pool, app, hardware = _load_configs(args)
    violations = validate(pool, app, hardware)
    if violations:
        _render_violations(args, violations)
        return EXIT_CONFIG

    if args.checkpoint is None:
        run_id = derive_run_id(app, args.seed)
        ckpt_path = CheckpointStore(args.store).latest(run_id)
        if ckpt_path is None:
            print(f"no checkpoint of run {run_id} in {args.store}: start it with `bee run`",
                  file=sys.stderr)
            return EXIT_CONFIG
    else:
        ckpt_path = Path(args.checkpoint)
    ckpt, content = CheckpointStore(ckpt_path.parent.parent).load(ckpt_path)
    return _run_and_render(args, pool, app, hardware, resume_from=ckpt,
                           resume_content=content)


def cmd_status(args) -> int:
    problem = run_id_problem(args.run_id)
    if problem:
        print(f"run_id: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    state, result = read_status(args.store, args.run_id, RunResult)
    if state is None:
        print(f"no such run: {args.run_id}", file=sys.stderr)
        return EXIT_CONFIG
    doc = {"run_id": args.run_id, "state": to_json(state)}
    lines = [f"run {args.run_id}: phase {state.phase.value}, "
             f"progress {state.progress:g}, slots {state.slots_consumed}"]
    if result is not None:
        doc["result"] = {"run_id": args.run_id} | to_json(result)
        lines.append(f"  result: {result.outcome.value}")
    _emit(args, doc, lines)
    return EXIT_OK


@dataclass(frozen=True)
class _Send:
    """One trace entry: {src, dst, bytes} or [src, dst, bytes]."""

    src: int
    dst: int
    bytes: int = 0


def _load_trace(path: str, n: int) -> list[tuple[int, int, int]]:
    if n < 1:
        raise ParseError(f"n: node count must be positive, got {n}")
    doc = load_json_file(path)
    if type(doc) is not list:
        raise ParseError("trace: expected a JSON list")
    trace = []
    for i, item in enumerate(doc):
        if type(item) is list and len(item) in (2, 3):
            item = dict(zip(("src", "dst", "bytes"), item))
        send = from_json(_Send, item, f"trace[{i}]")
        if not (0 <= send.src < n and 0 <= send.dst < n):
            raise ParseError(f"trace[{i}]: endpoint out of range for n={n}")
        trace.append((send.src, send.dst, send.bytes))
    return trace


def cmd_topo(args) -> int:
    trace = _load_trace(args.trace, args.n)
    topo = build_topology(NetworkSolution(args.kind), args.n)
    cost = cost_of_trace(topo, trace)
    histogram: dict[int, int] = {}
    for src, dst, _b in trace:
        hops = len(route(topo, src, dst)) - 1
        histogram[hops] = histogram.get(hops, 0) + 1
    doc = {
        "kind": args.kind,
        "n": args.n,
        "sends": len(trace),
        "messages_on_wire": cost.messages_on_wire,
        "total_hops": cost.total_hops,
        "hop_histogram": {str(k): v for k, v in sorted(histogram.items())},
        "relay_load": {str(k): v for k, v in sorted(cost.per_node_relay_load.items())},
    }
    lines = [f"{args.kind} n={args.n}: {len(trace)} sends, "
             f"{cost.messages_on_wire} wire messages, {cost.total_hops} hops"]
    for node, load in sorted(cost.per_node_relay_load.items()):
        if load:
            lines.append(f"  relay load node {node}: {load}")
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_iobench(args) -> int:
    rows = iobench_table(StorageSolution(args.solution), args.max_nodes,
                         native_read=args.native_read, native_write=args.native_write,
                         nfs_cap=args.nfs_cap)
    doc = {"solution": args.solution, "rows": rows}
    lines = [f"{'n':>3} {'read master':>12} {'read workers':>13} "
             f"{'write master':>13} {'write workers':>14}"]
    for row in rows:
        lines.append(f"{row['n_nodes']:>3} {row['read_master_mbps']:>12.1f} "
                     f"{row['read_worker_aggregate_mbps']:>13.1f} "
                     f"{row['write_master_mbps']:>13.1f} "
                     f"{row['write_worker_aggregate_mbps']:>14.1f}")
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_scaling(args) -> int:
    app = from_json(AppSpec, load_json_file(args.app), "app")
    counts = args.process_counts
    from bee.model import ComputeSystem, DiskBandwidth, Host, SystemKind

    kind = SystemKind.CLOUD_AWS_LIKE if "cloud" in args.backend else SystemKind.HPC
    system = ComputeSystem(
        id="study", kind=kind,
        hosts=tuple(Host(f"h{i}") for i in range(max(counts))),
        time_slot=3600.0, kvm_available=True, host_file_sharing=True,
        net_bandwidth_native=100.0, disk_bandwidth_native=DiskBandwidth(500.0, 500.0),
        cpu_rate_native=1.0)
    cfg = SimConfig(backend=args.backend, seed=args.seed)
    topology = None if args.topology == "flat" else NetworkSolution(args.topology)
    with closing(make_backend(system, cfg)) as backend:
        rows = replay_scaling(app, backend, topology, counts)
    doc = {"backend": args.backend, "topology": args.topology,
           "rows": to_json(rows)}
    lines = [f"{'procs':>6} {'topology':>10} {'runtime_s':>10} {'speedup':>8}"]
    for row in rows:
        lines.append(f"{row.processes:>6} {row.topology:>10} "
                     f"{row.runtime_s:>10.2f} {row.speedup:>8.2f}")
    _emit(args, doc, lines)
    return EXIT_OK


COMMANDS = {
    "validate": cmd_validate,
    "run": cmd_run,
    "resume": cmd_resume,
    "status": cmd_status,
    "topo": cmd_topo,
    "iobench": cmd_iobench,
    "scaling": cmd_scaling,
}


def _interrupt(signum, frame):
    raise KeyboardInterrupt(signum)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # SIGTERM, which batch schedulers send when a job's time is up, unwinds
    # like ^C, so every backend is closed and its temp dir removed
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        return COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StorageError as exc:  # a corrupt checkpoint, a damaged store
        print(exc, file=sys.stderr)
        return EXIT_FAILED
    except KeyboardInterrupt as exc:
        signum = exc.args[0] if exc.args else signal.SIGINT
        print(f"interrupted by {signal.Signals(signum).name}", file=sys.stderr)
        return 128 + signum
    finally:
        signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())

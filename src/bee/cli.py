"""Operator command line: validate, run, resume, status, topo, iobench, scaling.

Exit codes: 0 success/completed, 1 failed (including corrupt checkpoints),
2 stalled with a persisted checkpoint, 64 invalid configuration or usage.
Every flag can also come from the environment as BEE_<FLAG>.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from bee.model import (
    NetworkSolution,
    ParseError,
    StorageSolution,
    app_from_dict,
    canonical_json,
    hardware_from_dict,
    load_json_file,
    pool_from_dict,
    run_state_from_dict,
    validate,
)
from bee.storage import DEFAULT_NFS_CAP, VolumeStore, iobench_table, sha256_hex
from bee.workload import make_input_bytes
from bee.netvirt.topology import build_topology, cost_of_trace, route
from bee.orchestrator import (
    CheckpointStore,
    Outcome,
    checkpoint_from_manifest,
    derive_run_id,
    run_result_to_dict,
    run_workflow,
)
from bee.backends import BACKEND_KINDS, SIM_HPC, SimConfig, make_backend
from bee.backends.scaling import replay_scaling, scaling_row_to_dict

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_STALLED = 2
EXIT_CONFIG = 64

DEFAULT_INPUT_BYTES = 65536


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped onto the config exit code."""

    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _env(name: str, default=None):
    return os.environ.get(f"BEE_{name}", default)


def _env_flag(name: str) -> bool:
    return str(_env(name, "")).lower() in ("1", "true", "yes", "on")


def build_parser() -> argparse.ArgumentParser:
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
        p.add_argument("--seed", type=int, default=int(_env("SEED", "0")))
        p.add_argument("--json", action="store_true", default=_env_flag("JSON"),
                       help="machine-readable output")
        p.add_argument("--backend", default=_env("BACKEND", SIM_HPC), choices=BACKEND_KINDS)
        p.add_argument("--loop-pool", action="store_true", default=_env_flag("LOOP_POOL"),
                       help="re-enqueue systems after use instead of single-pass")
        p.add_argument("--input-size", type=int, default=DEFAULT_INPUT_BYTES,
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
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint directory (contains manifest.json)")

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
    p.add_argument("--max-nodes", type=int, default=32)
    p.add_argument("--native-read", type=float, default=500.0)
    p.add_argument("--native-write", type=float, default=500.0)
    p.add_argument("--nfs-cap", type=float, default=DEFAULT_NFS_CAP)
    p.add_argument("--json", action="store_true", default=_env_flag("JSON"))

    p = sub.add_parser("scaling", help="trace-replay scaling study")
    p.add_argument("--app", default=_env("APP"), required=not _env("APP"))
    p.add_argument("--backend", default=_env("BACKEND", SIM_HPC), choices=BACKEND_KINDS)
    p.add_argument("--topology", default=NetworkSolution.P2P_TREE.value,
                   choices=[k.value for k in NetworkSolution] + ["flat"])
    p.add_argument("--process-counts", default="1,2,4,8,16,32,64")
    p.add_argument("--seed", type=int, default=int(_env("SEED", "0")))
    p.add_argument("--json", action="store_true", default=_env_flag("JSON"))
    return parser


def _load_configs(args):
    pool = pool_from_dict(load_json_file(args.pool))
    app = app_from_dict(load_json_file(args.app))
    hardware = hardware_from_dict(load_json_file(args.uconf))
    return pool, app, hardware


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
    try:
        pool, app, hardware = _load_configs(args)
    except (ParseError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    violations = validate(pool, app, hardware)
    _render_violations(args, violations)
    return EXIT_CONFIG if violations else EXIT_OK


def _load_sim_config(args) -> SimConfig:
    if getattr(args, "sim_config", None):
        doc = load_json_file(args.sim_config)
        if not isinstance(doc, dict):
            raise ParseError(f"{args.sim_config}: expected a JSON object")
        try:
            cfg = SimConfig.from_dict(doc)
        except ValueError as exc:
            raise ParseError(f"{args.sim_config}: {exc}") from None
        return SimConfig(**{**cfg.to_dict(), "backend": args.backend, "seed": args.seed})
    return SimConfig(backend=args.backend, seed=args.seed)


def _run_and_render(args, pool, app, hardware, resume_from=None, resume_content=None) -> int:
    try:
        cfg = _load_sim_config(args)
    except (ParseError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    run_id = resume_from.run_id if resume_from is not None else derive_run_id(app, args.seed)
    store = Path(args.store)
    vstore = VolumeStore(store)
    volume_id = f"{app.name}-data"
    if resume_from is not None:
        if not vstore.exists(volume_id):
            vstore.create(volume_id, resume_content)
    elif not vstore.exists(volume_id):
        vstore.create(volume_id, make_input_bytes(args.seed, app.name, args.input_size))
    volume = vstore.volume(volume_id)

    result = run_workflow(pool, app, volume, hardware,
                          lambda system: make_backend(system, cfg), store,
                          cfg=cfg, run_id=run_id, loop_pool=args.loop_pool,
                          resume_from=resume_from, resume_content=resume_content)

    ckpt_path = None
    if result.outcome is Outcome.STALLED_WITH_CHECKPOINT:
        latest = CheckpointStore(store).latest(run_id)
        ckpt_path = str(latest) if latest else None

    doc = {"run_id": run_id, "checkpoint_path": ckpt_path} | run_result_to_dict(result)
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
    try:
        pool, app, hardware = _load_configs(args)
    except (ParseError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    violations = validate(pool, app, hardware)
    if violations:
        _render_violations(args, violations)
        return EXIT_CONFIG
    return _run_and_render(args, pool, app, hardware)


def cmd_resume(args) -> int:
    try:
        pool, app, hardware = _load_configs(args)
    except (ParseError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    violations = validate(pool, app, hardware)
    if violations:
        _render_violations(args, violations)
        return EXIT_CONFIG

    ckpt_dir = Path(args.checkpoint)
    try:
        manifest = json.loads((ckpt_dir / "manifest.json").read_text(encoding="utf-8"))
        ckpt = checkpoint_from_manifest(manifest)
        content = (ckpt_dir / "volume.bin").read_bytes()
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: cannot read checkpoint: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if sha256_hex(content) != ckpt.digest:
        print("checkpoint corrupt: volume does not match manifest digest", file=sys.stderr)
        return EXIT_FAILED
    return _run_and_render(args, pool, app, hardware, resume_from=ckpt,
                           resume_content=content)


def _load_run_file(path: Path, parse) -> tuple[dict, object]:
    """A JSON file a run writes into the store, as written and as parsed.

    Torn or malformed content, as a reader can see mid-write, raises
    ParseError naming the file.
    """
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        return doc, parse(doc)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def cmd_status(args) -> int:
    run_dir = Path(args.store) / args.run_id
    state_path = run_dir / "state.json"
    if not state_path.exists():
        print(f"no such run: {args.run_id}", file=sys.stderr)
        return EXIT_CONFIG
    result_path = run_dir / "result.json"
    try:
        written, state = _load_run_file(state_path, run_state_from_dict)
        doc = {"run_id": args.run_id, "state": written}
        lines = [f"run {args.run_id}: phase {state.phase.value}, "
                 f"progress {state.progress:g}, slots {state.slots_consumed}"]
        if result_path.exists():
            doc["result"], outcome = _load_run_file(result_path, lambda d: d["outcome"])
            lines.append(f"  result: {outcome}")
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _emit(args, doc, lines)
    return EXIT_OK


def _load_trace(path: str) -> list[tuple[int, int, int]]:
    doc = load_json_file(path)
    if not isinstance(doc, list):
        raise ParseError("trace must be a JSON list")
    trace = []
    for i, item in enumerate(doc):
        try:
            if isinstance(item, dict):
                trace.append((int(item["src"]), int(item["dst"]), int(item.get("bytes", 0))))
            else:
                src, dst, *rest = item
                trace.append((int(src), int(dst), int(rest[0]) if rest else 0))
        except (KeyError, TypeError, ValueError):
            raise ParseError(f"trace[{i}]: expected {{src, dst, bytes}}") from None
    return trace


def cmd_topo(args) -> int:
    try:
        topo = build_topology(NetworkSolution(args.kind), args.n)
        trace = _load_trace(args.trace)
        for i, (src, dst, _b) in enumerate(trace):
            if not (0 <= src < args.n and 0 <= dst < args.n):
                raise ParseError(f"trace[{i}]: endpoint out of range for n={args.n}")
    except (ParseError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
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
    try:
        app = app_from_dict(load_json_file(args.app))
        counts = [int(c) for c in str(args.process_counts).split(",") if c.strip()]
    except (ParseError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    from bee.model import ComputeSystem, DiskBandwidth, Host, SystemKind

    kind = SystemKind.CLOUD_AWS_LIKE if "cloud" in args.backend else SystemKind.HPC
    system = ComputeSystem(
        id="study", kind=kind,
        hosts=tuple(Host(f"h{i}") for i in range(max(counts))),
        time_slot=3600.0, kvm_available=True, host_file_sharing=True,
        net_bandwidth_native=100.0, disk_bandwidth_native=DiskBandwidth(500.0, 500.0),
        cpu_rate_native=1.0)
    cfg = SimConfig(backend=args.backend, seed=args.seed)
    backend = make_backend(system, cfg)
    topology = None if args.topology == "flat" else NetworkSolution(args.topology)
    rows = replay_scaling(app, backend, topology, counts)
    doc = {"backend": args.backend, "topology": args.topology,
           "rows": [scaling_row_to_dict(r) for r in rows]}
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

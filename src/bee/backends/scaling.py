"""Trace-replay scaling study: compute model plus overlay communication cost.

Communication time combines the bottleneck transmitter (bytes serialized
through the busiest node or hub) with a per-hop latency charge spread across
concurrent senders.  Backends without an overlay (provider-managed subnets)
deliver every message directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from bee.model import MB, AppSpec, CommKind, CommPattern, NetworkSolution
from bee.netvirt.topology import Send, Topology, build_topology, cost_of_trace, per_node_tx_bytes
from bee.backends.base import Backend, sim_compute


def generate_trace(pattern: CommPattern, n: int, seed: int,
                   messages_per_process: int, bytes_per_message: int,
                   expand_broadcast: bool) -> list[Send]:
    """Synthetic message trace for n processes under a communication pattern.

    Broadcasts stay single sends on a multicast fabric (expand_broadcast=False)
    and become n-1 unicasts on point-to-point fabrics.
    """
    rng = random.Random((seed, pattern.kind.value, n).__repr__())
    trace: list[Send] = []
    if n < 2:
        return trace

    def one_to_one() -> None:
        src = rng.randrange(n)
        dst = rng.randrange(n - 1)
        if dst >= src:
            dst += 1
        trace.append((src, dst, bytes_per_message))

    def broadcast(src: int) -> None:
        if expand_broadcast:
            for dst in range(n):
                if dst != src:
                    trace.append((src, dst, bytes_per_message))
        else:
            trace.append((src, (src + 1) % n, bytes_per_message))

    total = messages_per_process * n
    if pattern.kind is CommKind.ONE_TO_ONE_HEAVY:
        for _ in range(total):
            one_to_one()
    elif pattern.kind is CommKind.ALL_TO_ALL:
        for _round in range(messages_per_process):
            for src in range(n):
                broadcast(src)
    else:
        ratio = pattern.ratio if pattern.ratio is not None else 0.5
        for _ in range(total):
            if rng.random() < ratio:
                one_to_one()
            else:
                broadcast(rng.randrange(n))
    return trace


def comm_seconds(topo: Topology | None, trace: list[Send], net_bandwidth_mbps: float,
                 hop_latency_s: float, processes: int) -> float:
    """Modeled wall time for a trace: bottleneck serialization plus latency."""
    if not trace:
        return 0.0
    tx = per_node_tx_bytes(topo, trace)
    bottleneck = max(tx.values(), default=0) / (net_bandwidth_mbps * MB)
    if topo is None:
        total_hops = len(trace)
    else:
        total_hops = cost_of_trace(topo, trace).total_hops
    latency = total_hops * hop_latency_s / max(1, processes)
    return bottleneck + latency


@dataclass(frozen=True)
class ScalingRow:
    processes: int
    topology: str
    compute_s: float
    comm_s: float
    runtime_s: float
    speedup: float


def replay_scaling(app: AppSpec, backend: Backend,
                   topology_kind: NetworkSolution | None,
                   process_counts: list[int]) -> list[ScalingRow]:
    """Simulated runtime and speedup per process count for one network wiring.

    topology_kind is ignored on backends whose fabric is provider-managed
    (no overlay choices); pass None to model a flat network explicitly.
    """
    cfg = backend.cfg
    cap = backend.capability()
    overlay = topology_kind if cap.topology_choices else None
    system = backend.system
    rows: list[ScalingRow] = []
    baseline = sim_compute(app.work_total, 1, system.cpu_rate_native,
                           cap.cpu_overhead_fraction)
    for p in process_counts:
        if p < 1:
            raise ValueError(f"process count must be positive, got {p}")
        compute = sim_compute(app.work_total, p, system.cpu_rate_native,
                              cap.cpu_overhead_fraction)
        topo = build_topology(overlay, p) if overlay is not None else None
        trace = generate_trace(app.comm_pattern, p, cfg.seed,
                               cfg.messages_per_process, cfg.message_bytes,
                               expand_broadcast=overlay is not NetworkSolution.MULTICAST)
        comm = comm_seconds(topo, trace, system.net_bandwidth_native,
                            cfg.hop_latency_ms / 1000.0, p)
        runtime = compute + comm
        rows.append(ScalingRow(
            processes=p,
            topology=overlay.value if overlay is not None else "flat",
            compute_s=compute,
            comm_s=comm,
            runtime_s=runtime,
            speedup=baseline / runtime,
        ))
    return rows


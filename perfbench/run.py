"""Benchmark of bee, run from the root of a source checkout.

    python3 perfbench/run.py --workload sim-long --seed 1 --seconds 20 --trace 0

It imports bee from ``src/`` of the same checkout, repeats the workload's
iteration (set-up, timed operations, output checks, teardown) until
``--seconds`` have passed, and prints a report followed, on the last line, by
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, each the median over
iterations.  With ``--trace 1`` the first half of the time runs untraced and
the second half with spans around bee's public functions (see tracing.py);
the metrics are then the per-layer ones, per traced iteration, plus the
tracing overhead (traced over untraced run_s).  The spans are written to
``.perfbench/traces/``.  Scratch stores live under ``.perfbench/`` and are
removed as each iteration ends.  Any failed output check makes the exit code 1.

Workloads, metrics and the layer each metric is expected to move are listed in
BENCHMARK.json.  ``python3 perfbench/selftest.py`` tests the checks themselves.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def import_bee() -> bool:
    """Import bee from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import bee
    except ImportError as exc:
        print(f"perfbench: cannot import bee from {SRC}: {exc}", file=sys.stderr)
        return False
    if Path(bee.__file__).resolve().parent.parent != SRC.resolve():
        print(f"perfbench: bee was imported from {bee.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def environment(path: Path) -> dict:
    cpu_model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    fs_type, best = "unknown", ""
    target = str(path.resolve())
    with open("/proc/mounts", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1]
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                fs_type, best = fields[2], mount
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "python": platform.python_version(), "store_fs": fs_type}


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def measure(workload, seconds: float, root: Path, tracer=None) -> list:
    """Iterations until `seconds` have passed (at least one)."""
    samples = []
    end = time.perf_counter() + seconds
    while not samples or time.perf_counter() < end:
        own = _cpu(resource.getrusage(resource.RUSAGE_SELF))
        children = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
        sample = workload.iteration(root, tracer)
        sample.children_cpu_s = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN)) - children
        sample.cpu_s = _cpu(resource.getrusage(resource.RUSAGE_SELF)) - own + \
            sample.children_cpu_s
        samples.append(sample)
    return samples


def end_to_end(samples) -> dict:
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": (statistics.median(s.run_s for s in samples), "s"),
        "setup_s": (statistics.median(s.setup_s for s in samples), "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }


def overlay_metrics(samples) -> dict:
    """Send latencies and relay figures; zero for workloads that send nothing."""
    hop_us: dict[int, list[float]] = {}
    dead_ms, first_ms, repeat_ms = [], [], []
    frames = delivered = 0
    for s in samples:
        for hops, values in s.extra.get("hop_us", {}).items():
            hop_us.setdefault(hops, []).extend(values)
            delivered += len(values)
        frames += s.extra.get("frames", 0)
        dead = s.extra.get("dead_ms", [])
        dead_ms += dead
        first_ms += dead[:1]
        repeat_ms += dead[1:]
    every = [v for values in hop_us.values() for v in values]
    out = {
        "send_p50_us": (statistics.median(every) if every else 0.0, "us"),
        "send_p90_us": (statistics.quantiles(every, n=10)[8] if len(every) > 1 else 0.0, "us"),
        "dead_send_ms": (statistics.median(dead_ms) if dead_ms else 0.0, "ms"),
    }
    p50 = {h: statistics.median(hop_us[h]) for h in sorted(hop_us)}
    for h in range(1, 7):
        out[f"netvirt.send.hop{h}_p50_us"] = (p50.get(h, 0.0), "us")
    slope = statistics.linear_regression(list(p50), list(p50.values())).slope \
        if len(p50) > 1 else 0.0
    out["netvirt.relay.per_hop_us"] = (slope, "us")
    out["netvirt.frames.per_send"] = (frames / delivered if delivered else 0.0, "count")
    out["netvirt.dead_relay.first_ms"] = (statistics.median(first_ms) if first_ms else 0.0, "ms")
    out["netvirt.dead_relay.repeat_ms"] = (statistics.median(repeat_ms) if repeat_ms else 0.0,
                                           "ms")
    out["netvirt.agents.cpu_s"] = (statistics.median(s.children_cpu_s for s in samples), "s")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-long", "sim-migrate", "local-migrate", "overlay-tree"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not import_bee():
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    WORK.mkdir(exist_ok=True)
    root = WORK / f"run-{os.getpid()}"
    root.mkdir()
    env = environment(root)
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"# nproc {env['nproc']}  cpu {env['cpu_model']}  python {env['python']}  "
          f"store fs {env['store_fs']}")
    if args.workload == "overlay-tree":
        print(f"# note: 15 agent processes share {env['nproc']} cores, so send latencies "
              "include scheduler effects")

    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        if args.trace == 0:
            samples = measure(workload, args.seconds, root)
            report = end_to_end(samples) | overlay_metrics(samples)
        else:
            plain = measure(workload, args.seconds / 2, root)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(workload, args.seconds / 2, root, tracer)
            finally:
                tracer.uninstall()
            tracer.dump(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")
            samples = plain + traced
            bench = tracer.stats["bench.run"]
            report = tracer.metrics(len(traced)) | overlay_metrics(plain)
            report["trace.overhead"] = (
                statistics.median(s.run_s for s in traced) /
                statistics.median(s.run_s for s in plain), "ratio")
            report["trace.coverage"] = (1.0 - bench[2] / bench[1], "ratio")
    finally:
        shutil.rmtree(root, ignore_errors=True)

    attempted = sum(s.attempted for s in samples)
    failures = [f for s in samples for f in s.failures]
    report["error_rate"] = (len(failures) / attempted, "ratio")
    report["iterations"] = (len(samples), "count")
    for failure in failures[:20]:
        print(f"# FAILED: {failure}")
    for name, (value, unit) in report.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        value, unit = report[m["name"]]
        if unit != m["unit"]:
            raise ValueError(f"{m['name']} is measured in {unit}, BENCHMARK.json says {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Outside-in span tracing of bee's public functions and methods.

Wrappers are installed from the benchmark's own code, so the program under test
is unchanged.  A module-level function is re-bound in every ``bee.*`` module
that imported it, because callers look it up in their own namespace.  Each call
records name, start, end and parent span id; hot per-poll functions only add to
a call counter and a summed time.  A span's self time is its duration minus the
time covered by the wrapped calls it made.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from pathlib import Path

LAYERS = ("orchestrator", "cluster", "backends", "workload", "storage", "netvirt", "model")

_BACKEND_CLASSES = ("bee.backends.base:Backend", "bee.backends.simhpc:SimHpcBackend",
                    "bee.backends.local:LocalProcessBackend")
_BACKEND_METHODS = ("begin_cluster", "provision", "start_all", "exec", "progress", "wait",
                    "pause", "resume", "stop", "put_volume", "fetch_volume", "stage_volume",
                    "charge", "take_fault", "parallel_map", "abort_cluster", "close")


def _nbytes_arg(index):
    return lambda args, result, parent: len(args[index])


def _count_under(span):
    return lambda args, result, parent: 1 if parent == span else 0


# (owner, attribute, span name, hot, counter name, counter function)
# A counter function gets (args, result, parent span name) and returns the
# amount to add; it runs only when the call returns normally.
WRAPS = [
    ("bee.orchestrator", "run_workflow", "orchestrator.run", False,
     "orchestrator.slots", lambda a, r, p: len(r.history)),
    ("bee.orchestrator", "monitor", "orchestrator.monitor", False, None, None),
    ("bee.orchestrator", "checkpoint_now", "orchestrator.checkpoint", False,
     "orchestrator.checkpoint.bytes", lambda a, r, p: len(r[1])),
    ("bee.orchestrator", "transfer_and_restore", "orchestrator.transfer", False,
     "orchestrator.transfer.bytes", _nbytes_arg(1)),
    ("bee.orchestrator:CheckpointStore", "save", "orchestrator.ckpt_store.save", False,
     None, None),
    ("bee.orchestrator:CheckpointStore", "load", "orchestrator.ckpt_store.load", False,
     None, None),
    ("bee.orchestrator:CheckpointStore", "latest", "orchestrator.ckpt_store.latest", False,
     None, None),
    ("bee.model", "run_state_to_dict", "orchestrator.status", True, None, None),
    ("bee.model", "validate", "model.validate", False, None, None),
    ("bee.cluster", "deploy_cluster", "cluster.deploy", False, None, None),
    ("bee.cluster", "build_image", "cluster.build_image", False, None, None),
    ("bee.cluster:Cluster", "progress", "cluster.progress", True,
     "orchestrator.monitor.polls", _count_under("orchestrator.monitor")),
    ("bee.cluster:Cluster", "pause", "cluster.pause", False, None, None),
    ("bee.cluster:Cluster", "resume", "cluster.resume", False, None, None),
    ("bee.cluster:Cluster", "stop", "cluster.stop", False, None, None),
    ("bee.workload", "append_output", "workload.append_output", True,
     "workload.append_output.blocks",
     lambda a, r, p: (len(r) - len(a[1])) // 32),
    ("bee.workload", "make_input_bytes", "workload.make_input", False, None, None),
    ("bee.storage", "sha256_hex", "storage.sha256", False, None, None),
    ("bee.storage:VolumeStore", "create", "storage.volume.create", False,
     "storage.volume.write_bytes", _nbytes_arg(2)),
    ("bee.storage:VolumeStore", "write", "storage.volume.write", False,
     "storage.volume.write_bytes", _nbytes_arg(2)),
    ("bee.storage:VolumeStore", "content", "storage.volume.content", False,
     "storage.volume.read_bytes", lambda a, r, p: len(r)),
    ("bee.storage:VolumeStore", "volume", "storage.volume.meta", False, None, None),
    ("bee.storage:VolumeStore", "exists", "storage.volume.meta", False, None, None),
    ("bee.storage:VolumeStore", "attach", "storage.volume.meta", False, None, None),
    ("bee.storage:VolumeStore", "detach", "storage.volume.meta", False, None, None),
    ("bee.netvirt.topology", "build_topology", "netvirt.topology", False, None, None),
    ("bee.netvirt.fleet:AgentFleet", "start", "netvirt.fleet.start", False, None, None),
    ("bee.netvirt.fleet:AgentFleet", "spawn_node", "netvirt.fleet.spawn", False, None, None),
    ("bee.netvirt.fleet:AgentFleet", "spawn_hub", "netvirt.fleet.spawn", False, None, None),
    ("bee.netvirt.fleet:AgentFleet", "wire", "netvirt.fleet.wire", False, None, None),
    ("bee.netvirt.fleet:AgentFleet", "stop", "netvirt.fleet.stop", False, None, None),
    ("bee.netvirt.fleet:AgentFleet", "kill", "netvirt.fleet.kill", False, None, None),
    ("bee.netvirt.fleet:AgentFleet", "send", "netvirt.fleet.send", False, None, None),
    ("bee.netvirt.fleet:AgentFleet", "counts", "netvirt.fleet.counts", False, None, None),
    ("bee.netvirt.agent:AgentClient", "send", "netvirt.client.send", False, None, None),
    ("bee.netvirt.agent:AgentClient", "call", "netvirt.control", False, None, None),
]
for _cls in _BACKEND_CLASSES:
    for _method in _BACKEND_METHODS:
        if _method == "fetch_volume":
            WRAPS.append((_cls, _method, "backends.fetch_volume", False,
                          "backends.fetch_volume.bytes", lambda a, r, p: len(r)))
        elif _method == "take_fault":
            WRAPS.append((_cls, _method, "backends.take_fault", True,
                          "orchestrator.transfer.retries",
                          lambda a, r, p: int(r is not None and a[1] == "transfer")))
        else:
            WRAPS.append((_cls, _method, f"backends.{_method}", _method in ("progress", "wait"),
                          None, None))


# Per-layer metrics read from the spans: (name, unit, what, span or counter names).
# "what" is calls, s (summed duration), self_s, errors (calls that raised),
# counter, or layer_self (self time of every span in the layer).
SPAN_METRICS = [
    ("orchestrator.monitor.calls", "count", "calls", ("orchestrator.monitor",)),
    ("orchestrator.monitor.s", "s", "s", ("orchestrator.monitor",)),
    ("orchestrator.monitor.self_s", "s", "self_s", ("orchestrator.monitor",)),
    ("orchestrator.monitor.polls", "count", "counter", ("orchestrator.monitor.polls",)),
    ("orchestrator.checkpoint.calls", "count", "calls", ("orchestrator.checkpoint",)),
    ("orchestrator.checkpoint.s", "s", "s", ("orchestrator.checkpoint",)),
    ("orchestrator.checkpoint.bytes", "bytes", "counter", ("orchestrator.checkpoint.bytes",)),
    ("orchestrator.transfer.calls", "count", "calls", ("orchestrator.transfer",)),
    ("orchestrator.transfer.s", "s", "s", ("orchestrator.transfer",)),
    ("orchestrator.transfer.bytes", "bytes", "counter", ("orchestrator.transfer.bytes",)),
    ("orchestrator.transfer.retries", "count", "counter", ("orchestrator.transfer.retries",)),
    ("orchestrator.ckpt_store.saves", "count", "calls", ("orchestrator.ckpt_store.save",)),
    ("orchestrator.ckpt_store.save_s", "s", "s", ("orchestrator.ckpt_store.save",)),
    ("orchestrator.ckpt_store.load_s", "s", "s", ("orchestrator.ckpt_store.load",)),
    ("orchestrator.ckpt_store.latest_s", "s", "s", ("orchestrator.ckpt_store.latest",)),
    ("orchestrator.status.writes", "count", "calls", ("orchestrator.status",)),
    ("orchestrator.slots", "count", "counter", ("orchestrator.slots",)),
    ("orchestrator.run.self_s", "s", "self_s", ("orchestrator.run",)),
    ("cluster.deploy.calls", "count", "calls", ("cluster.deploy",)),
    ("cluster.deploy.s", "s", "s", ("cluster.deploy",)),
    ("cluster.deploy.failures", "count", "errors", ("cluster.deploy",)),
    ("cluster.build_image.s", "s", "s", ("cluster.build_image",)),
    ("cluster.stop.s", "s", "s", ("cluster.stop",)),
    ("backends.provision.s", "s", "s", ("backends.provision",)),
    ("backends.start_all.s", "s", "s", ("backends.start_all",)),
    ("backends.exec.s", "s", "s", ("backends.exec",)),
    ("backends.progress.calls", "count", "calls", ("backends.progress",)),
    ("backends.progress.s", "s", "s", ("backends.progress",)),
    ("backends.wait.s", "s", "s", ("backends.wait",)),
    ("backends.fetch_volume.s", "s", "s", ("backends.fetch_volume",)),
    ("backends.fetch_volume.bytes", "bytes", "counter", ("backends.fetch_volume.bytes",)),
    ("workload.append_output.s", "s", "s", ("workload.append_output",)),
    ("workload.append_output.blocks", "count", "counter", ("workload.append_output.blocks",)),
    ("workload.make_input.s", "s", "s", ("workload.make_input",)),
    ("storage.volume.writes", "count", "calls", ("storage.volume.create", "storage.volume.write")),
    ("storage.volume.write_s", "s", "s", ("storage.volume.create", "storage.volume.write")),
    ("storage.volume.write_bytes", "bytes", "counter", ("storage.volume.write_bytes",)),
    ("storage.volume.reads", "count", "calls", ("storage.volume.content",)),
    ("storage.volume.read_s", "s", "s", ("storage.volume.content",)),
    ("storage.volume.read_bytes", "bytes", "counter", ("storage.volume.read_bytes",)),
    ("storage.volume.meta_ops", "count", "calls", ("storage.volume.meta",)),
    ("storage.sha256.calls", "count", "calls", ("storage.sha256",)),
    ("storage.sha256.s", "s", "s", ("storage.sha256",)),
    ("netvirt.fleet.spawn_s", "s", "s", ("netvirt.fleet.spawn",)),
    ("netvirt.fleet.wire_s", "s", "s", ("netvirt.fleet.wire",)),
    ("netvirt.fleet.stop_s", "s", "s", ("netvirt.fleet.stop",)),
    ("netvirt.control.calls", "count", "calls", ("netvirt.control",)),
    ("netvirt.control.s", "s", "s", ("netvirt.control",)),
    ("model.validate.calls", "count", "calls", ("model.validate",)),
    ("model.validate.s", "s", "s", ("model.validate",)),
] + [(f"{layer}.self_s", "s", "layer_self", (layer,)) for layer in LAYERS]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Installs the wrappers, keeps spans in memory, and aggregates them."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s, errors]
        self.counters: dict[str, float] = {}
        self._stack: list[list] = []  # [name, child seconds, span id]
        self._next_id = 1
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str, hot: bool, counter: str | None, count):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        counters = self.counters
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot:
                span_id = parent[2] if parent else 0
            else:
                span_id = self._next_id
                self._next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if not hot:
                    spans.append((span_id, parent[2] if parent else 0, name, start, end))
                if not ok:
                    stat[3] += 1
            if counter is not None:
                counters[counter] = counters.get(counter, 0) + \
                    count(args, result, parent[0] if parent else None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner_name, attr, name, hot, counter, count in WRAPS:
            owner = _resolve(owner_name)
            if inspect.isclass(owner):
                if attr not in owner.__dict__:
                    continue
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hot, counter, count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hot, counter, count)
            for mod_name, module in list(sys.modules.items()):
                if (mod_name == "bee" or mod_name.startswith("bee.")) and \
                        getattr(module, attr, None) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- reading ----------------------------------------------------------------

    def call(self, name: str, fn, *args):
        """Call fn(*args) inside one span opened by the benchmark itself."""
        return self._wrap(fn, name, False, None, None)(*args)

    def metrics(self, iterations: int) -> dict[str, tuple[float, str]]:
        """SPAN_METRICS per traced iteration."""
        out = {}
        for metric, unit, what, keys in SPAN_METRICS:
            if what == "counter":
                value = sum(self.counters.get(k, 0) for k in keys)
            elif what == "layer_self":
                value = sum(st[2] for name, st in self.stats.items()
                            if name.split(".")[0] == keys[0])
            else:
                index = {"calls": 0, "s": 1, "self_s": 2, "errors": 3}[what]
                value = sum(self.stats[k][index] for k in keys if k in self.stats)
            out[metric] = (value / iterations, unit)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"spans": [{"id": i, "parent": p, "name": n, "start": s, "end": e}
                         for i, p, n, s, e in self.spans],
               "stats": {name: {"calls": st[0], "s": st[1], "self_s": st[2], "errors": st[3]}
                         for name, st in sorted(self.stats.items())},
               "counters": dict(sorted(self.counters.items()))}
        path.write_text(json.dumps(doc), encoding="utf-8")

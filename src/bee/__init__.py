"""Run containerized HPC applications across a prioritized pool of systems.

The engine deploys a virtualized cluster (VM layer plus container layer) on
whichever system currently holds the allocation, wires the nodes with an
overlay network, shares data through a modeled storage plan, and migrates the
application between systems via integrity-checked checkpoints.

The names below are imported from their submodules on first use (PEP 562), so
a process that needs only part of the package, such as a relay agent, does not
pay for importing the orchestrator, cluster, storage and backend code.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "AppSpec": "bee.model",
    "CommKind": "bee.model",
    "CommPattern": "bee.model",
    "ComputeSystem": "bee.model",
    "ContainerSource": "bee.model",
    "DataVolume": "bee.model",
    "DiskBandwidth": "bee.model",
    "HardwareConfig": "bee.model",
    "Host": "bee.model",
    "IoProfile": "bee.model",
    "NetworkSolution": "bee.model",
    "ResourcePool": "bee.model",
    "RunState": "bee.model",
    "StorageSolution": "bee.model",
    "SystemKind": "bee.model",
    "validate": "bee.model",
    "Outcome": "bee.orchestrator",
    "RunResult": "bee.orchestrator",
    "SlotRecord": "bee.orchestrator",
    "run_workflow": "bee.orchestrator",
    "SimConfig": "bee.backends",
    "make_backend": "bee.backends",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    # looked up on every access, never cached here, so a name re-bound in its
    # submodule (for example by a tracer) is seen through the package as well
    import importlib

    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

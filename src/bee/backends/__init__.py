"""Backend registry: the simulated kinds (HPC and two clouds) and the local-process runtime."""

from __future__ import annotations

from bee.model import ComputeSystem
from bee.backends.base import (
    BACKEND_KINDS,
    LOCAL,
    SIM_CLOUD_AWS,
    SIM_CLOUD_BAREMETAL,
    SIM_HPC,
    Backend,
    BackendCapability,
    SimConfig,
    sim_compute,
)
from bee.backends.simhpc import SimHpcBackend


def make_backend(system: ComputeSystem, cfg: SimConfig) -> Backend:
    kind = cfg.backend
    if kind == LOCAL:
        from bee.backends.local import LocalProcessBackend

        return LocalProcessBackend(system, cfg)
    if kind in BACKEND_KINDS:
        return SimHpcBackend(system, cfg)
    raise ValueError(f"unknown backend {kind!r}; expected one of {BACKEND_KINDS}")


__all__ = [
    "BACKEND_KINDS",
    "Backend",
    "BackendCapability",
    "LOCAL",
    "SIM_CLOUD_AWS",
    "SIM_CLOUD_BAREMETAL",
    "SIM_HPC",
    "SimConfig",
    "SimHpcBackend",
    "make_backend",
    "sim_compute",
]

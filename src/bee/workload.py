"""Deterministic toy application model.

The simulated app appends one 32-byte output block per completed work unit, so
volume content is a pure function of (app name, initial bytes, progress).
That is what makes a resumed run byte-identical to an uninterrupted one.
"""

from __future__ import annotations

import hashlib

from bee.model import AppSpec, ComputeSystem, HardwareConfig, quantize_work

BLOCK_BYTES = 32


def _output_blocks(app_name: str, start: int, end: int):
    """sha256(f"{app_name}:{i}") for i = start..end.

    Each block resumes a copy of the hash state that has already absorbed the
    prefix.  A generator, so join() frees the block list before the caller
    concatenates its result.
    """
    prefix = hashlib.sha256(f"{app_name}:".encode())
    for i in range(start, end + 1):
        h = prefix.copy()
        h.update(b"%d" % i)
        yield h.digest()


def completed_units(progress: float) -> int:
    # progress is a non-negative multiple of WORK_QUANTUM, so int() floors exactly
    return int(progress)


def append_output(app_name: str, base_bytes: bytes, base_progress: float,
                  progress: float) -> bytes:
    """Volume content once the app has advanced from base_progress to progress."""
    start = completed_units(base_progress) + 1
    end = completed_units(progress)
    return base_bytes + b"".join(_output_blocks(app_name, start, end))


def volume_content(app_name: str, initial: bytes, progress: float) -> bytes:
    return append_output(app_name, initial, 0.0, progress)


def max_output_bytes(work_total: float, progress: float = 0.0) -> int:
    """Upper bound on bytes the app can still append from `progress` onward."""
    remaining = max(0.0, work_total - progress)
    return BLOCK_BYTES * int(remaining + 1)


def progress_at(rate: float, active_seconds: float, work_total: float) -> float:
    """Progress after `active_seconds` of compute at `rate` units/s, quantized."""
    if active_seconds <= 0 or rate <= 0:
        return 0.0
    total = quantize_work(work_total)
    return min(total, quantize_work(rate * active_seconds))


def compute_rate(app: AppSpec, hardware: HardwareConfig, system: ComputeSystem,
                 overhead_fraction: float) -> float:
    """Cluster-wide work rate: one process per node, vcpus cores per process."""
    return app.process_count * hardware.vcpus * system.cpu_rate_native * (1.0 - overhead_fraction)


def make_input_bytes(seed: int, name: str, size: int = 65536) -> bytes:
    """Seeded pseudo-random input data: a hash stream, stable across runs."""
    out = bytearray()
    counter = 0
    while len(out) < size:
        out.extend(hashlib.sha256(f"{seed}:{name}:{counter}".encode()).digest())
        counter += 1
    return bytes(out[:size])

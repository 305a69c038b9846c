"""Deterministic toy application model.

The simulated app appends one 32-byte output block per completed work unit, so
volume content is a pure function of (app name, initial bytes, progress).
That is what makes a resumed run byte-identical to an uninterrupted one.

Relay agents run this model, so it imports nothing but the standard library,
and `hashlib` only when it first hashes, so an agent starts without it.
"""

from __future__ import annotations

from itertools import islice

BLOCK_BYTES = 32
# append_output joins this many blocks at a time, so the block objects alive
# at once stay bounded however many units a slot completes
JOIN_BLOCKS = 4096

# Progress/work arithmetic is quantized to this step so that slot-by-slot
# progress deltas sum back to the total without floating-point residue.
WORK_QUANTUM = 2.0 ** -20
# The largest work count whose lattice points are all exact in a float
# (2**53 quanta); validate() bounds work totals and per-core rates by it.
MAX_WORK = 2.0 ** 33


def quantize_work(value: float) -> float:
    """Snap work-units to the nearest lattice point (exact in binary floats).

    Keeping all progress values on one dyadic lattice makes slot deltas and
    their sums exact, and nearest-rounding absorbs clock round-off so a job
    finishing at an integer second is not pushed into the next poll.
    """
    if value <= 0:
        return 0.0
    return round(value / WORK_QUANTUM) * WORK_QUANTUM


def _hash_blocks(label: str, start: int, end: int):
    """sha256(f"{label}:{i}") for i = start..end.

    Each block resumes a copy of the hash state that has already absorbed the
    prefix.  A generator, so callers can consume the blocks a bounded number
    at a time.
    """
    import hashlib

    prefix = hashlib.sha256(f"{label}:".encode())
    for i in range(start, end + 1):
        h = prefix.copy()
        h.update(b"%d" % i)
        yield h.digest()


def completed_units(progress: float) -> int:
    # progress is a non-negative multiple of WORK_QUANTUM, so int() floors exactly
    return int(progress)


def append_output(app_name: str, base_bytes, base_progress: float, progress: float):
    """Volume content once the app has advanced from base_progress to progress.

    The new blocks are joined in slices of JOIN_BLOCKS.  A `bytes` base and
    the slices are then joined once, which copies the base once.  Any other
    base, such as bee.storage.Chain, which shares its parts instead of
    copying them, gets each slice appended with `+` as soon as it is made,
    so the slices are never joined and the output is never held twice.
    """
    start = completed_units(base_progress) + 1
    end = completed_units(progress)
    blocks = _hash_blocks(app_name, start, end)
    slices = (b"".join(islice(blocks, JOIN_BLOCKS))
              for _ in range(start, end + 1, JOIN_BLOCKS))
    if isinstance(base_bytes, bytes):
        return b"".join([base_bytes, *slices])
    for part in slices:
        base_bytes = base_bytes + part
    return base_bytes


def first_output_block(app_name: str, work_total: float) -> bytes:
    """The block the app appends first, or b"" if it completes no unit."""
    return b"".join(_hash_blocks(app_name, 1, min(1, completed_units(work_total))))


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


class AppRun:
    """The app's progress clock, on whatever clock the caller reads.

    Work accrues at `rate` units/s from `started_at` (None: not started), on
    top of `base`, except while paused and during the first `io_seconds` of
    unpaused time.  It stops at quantize_work(work_total).
    """

    __slots__ = ("rate", "work_total", "base", "io_seconds", "started_at", "paused_at",
                 "paused_total")

    def __init__(self, rate: float = 0.0, work_total: float = 0.0, base: float = 0.0,
                 io_seconds: float = 0.0, started_at: float | None = None):
        self.rate = rate
        self.work_total = work_total
        self.base = base
        self.io_seconds = io_seconds
        self.started_at = started_at
        self.paused_at: float | None = None
        self.paused_total = 0.0

    def pause(self, now: float) -> bool:
        """Freeze progress at `now`; False if not started or already paused."""
        if self.started_at is None or self.paused_at is not None:
            return False
        self.paused_at = now
        return True

    def resume(self, now: float) -> bool:
        """Let progress accrue again from `now`; False if not paused."""
        if self.paused_at is None:
            return False
        self.paused_total += now - self.paused_at
        self.paused_at = None
        return True

    def progress(self, now: float) -> float:
        if self.started_at is None:
            return self.base
        end = now if self.paused_at is None else self.paused_at
        active = end - self.started_at - self.paused_total - self.io_seconds
        return self.base + progress_at(self.rate, active, max(0.0, self.work_total - self.base))


def make_input_bytes(seed: int, name: str, size: int = 65536) -> bytes:
    """Seeded pseudo-random input data, stable across runs.

    The first `size` bytes of sha256(f"{seed}:{name}:{counter}") for
    counter = 0, 1, 2, ...
    """
    out = bytearray()
    for block in _hash_blocks(f"{seed}:{name}", 0, -(-size // BLOCK_BYTES) - 1):
        out += block  # unlike join(), never holds every block object at once
    del out[size:]
    return bytes(out)

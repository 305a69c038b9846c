"""Deterministic toy application model.

The simulated app appends one 32-byte output block per completed work unit, so
volume content is a pure function of (app name, initial bytes, progress).
That is what makes a resumed run byte-identical to an uninterrupted one.

Each block is an independent hash, so a long range of output blocks is
hashed on every CPU at once (see `_slices`): a range of at least
2 * PARALLEL_MIN_BLOCKS blocks, in a process that has one thread, on a
platform with `fork` and `memfd_create`.  Forking with other threads alive
could copy a lock that one of them holds, so a process with threads hashes
serially, as does every short range.  The bytes are the same
either way.  Input bytes are always hashed serially: after a fork, the parent
takes a write fault on each page it touches, and splitting an 8 MiB input
raised a whole migrating run's CPU time by about a fifth on 2 CPUs.

Relay agents run its progress clock (`AppRun`), so it imports nothing but the
standard library, and `hashlib` only when it first hashes, which an agent
never does.
"""

from __future__ import annotations

import os
import signal
import threading
from itertools import islice

BLOCK_BYTES = 32
# append_output joins this many blocks at a time, so the block objects alive
# at once stay bounded however many units a slot completes
JOIN_BLOCKS = 4096
# a range is split across processes only into shares of at least this many
# blocks: about 20 ms of hashing, against 1-2 ms to fork and reap a child
PARALLEL_MIN_BLOCKS = 1 << 15

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


def _serial_slices(label: str, start: int, end: int):
    blocks = _hash_blocks(label, start, end)
    for _ in range(start, end + 1, JOIN_BLOCKS):
        yield b"".join(islice(blocks, JOIN_BLOCKS))


def _processes(blocks: int) -> int:
    """How many processes hash a range of `blocks` blocks (see the module)."""
    if (blocks < 2 * PARALLEL_MIN_BLOCKS or not hasattr(os, "fork")
            or not hasattr(os, "memfd_create") or threading.active_count() != 1):
        return 1
    return min(len(os.sched_getaffinity(0)), blocks // PARALLEL_MIN_BLOCKS,
               -(-blocks // JOIN_BLOCKS))


def _hash_into(fd: int, label: str, start: int, end: int, mask) -> None:
    """A forked child's whole life: write blocks start..end to `fd`, then exit
    with 0, or with 1 on any exception, ^C and SIGTERM included."""
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        # the collector could finalize objects the parent still owns
        import gc
        gc.disable()
        with open(fd, "wb", closefd=False) as out:
            for part in _serial_slices(label, start, end):
                out.write(part)
        code = 0
    finally:
        os._exit(code)


def _slices(label: str, start: int, end: int):
    """The blocks of start..end (see _hash_blocks), joined into slices of at
    most JOIN_BLOCKS blocks, the same slices whether or not the range is split.

    A split range is cut into contiguous shares of whole slices, one per
    process (see _processes).  A forked child hashes each share but the first
    into a memfd of its own; a pipe would block a child once it filled.  This
    process hashes the first share and yields it, then reaps each child in
    order, checks its exit status and byte count, and yields its bytes read
    back a slice at a time, so the output is held once.  Every child that has
    not been reaped is killed and reaped, and every memfd closed, however the
    generator ends: exhausted, closed early, or by an exception.
    """
    blocks = max(0, end - start + 1)
    procs = _processes(blocks)
    if procs == 1:
        yield from _serial_slices(label, start, end)
        return
    nslices = -(-blocks // JOIN_BLOCKS)
    cuts = [start + k * nslices // procs * JOIN_BLOCKS for k in range(procs)] + [end + 1]
    parent = os.getpid()
    children = []  # [pid or None once reaped, memfd, first block, last block]
    try:
        for first, stop in zip(cuts[1:], cuts[2:]):
            children.append([None, os.memfd_create(f"bee-blocks-{first}"), first, stop - 1])
            # with SIGINT and SIGTERM blocked, no KeyboardInterrupt can come
            # between the fork and the pid's record, nor reach a child before
            # _hash_into's try
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
            try:
                pid = os.fork()
                if pid == 0:
                    _hash_into(children[-1][1], label, first, stop - 1, mask)
                children[-1][0] = pid
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        yield from _serial_slices(label, start, cuts[1] - 1)
        for child in children:
            pid, fd, first, last = child
            _, status = os.waitpid(pid, 0)
            child[0] = None
            size = (last - first + 1) * BLOCK_BYTES
            if status != 0 or os.fstat(fd).st_size != size:
                raise RuntimeError(f"hashing blocks {first}..{last} of {label!r} failed: "
                                   f"child {pid} ended with wait status {status}")
            for offset in range(0, size, JOIN_BLOCKS * BLOCK_BYTES):
                yield os.pread(fd, min(JOIN_BLOCKS * BLOCK_BYTES, size - offset), offset)
    finally:
        if os.getpid() != parent:  # a child never unwinds into its parent's frames
            os._exit(1)
        for pid, fd, _, _ in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(fd)


def completed_units(progress: float) -> int:
    # progress is a non-negative multiple of WORK_QUANTUM, so int() floors exactly
    return int(progress)


def append_output(app_name: str, base_bytes, base_progress: float, progress: float):
    """Volume content once the app has advanced from base_progress to progress.

    The new blocks come in slices of at most JOIN_BLOCKS (see _slices).  A
    `bytes` base and the slices are then joined once, which copies the base
    once.  Any other base, such as bee.storage.Chain, which shares its parts
    instead of copying them, gets each slice appended with `+` as soon as it
    is made, so the slices are never joined and the output is never held twice.
    """
    slices = _slices(app_name, completed_units(base_progress) + 1, completed_units(progress))
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
    counter = 0, 1, 2, ...  Never split (see the module).
    """
    return b"".join(_serial_slices(f"{seed}:{name}", 0, -(-size // BLOCK_BYTES) - 1))[:size]

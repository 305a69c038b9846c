"""Output checks computed from first principles, without bee's own helpers.

Each check raises CheckError on a mismatch.  The reference values are derived
only from the workload definition: the app appends one SHA-256 block of
``f"{app}:{i}"`` per completed work unit i, and the tree overlay is the heap
tree where node i's parent is ``(i - 1) // 2``.
"""

from __future__ import annotations

import hashlib
import math


class CheckError(AssertionError):
    pass


def reference_digest(input_bytes: bytes, app_name: str, work_total: int) -> str:
    """SHA-256 hex of the input followed by the output blocks 1..work_total."""
    h = hashlib.sha256(input_bytes)
    for i in range(1, work_total + 1):
        h.update(hashlib.sha256(f"{app_name}:{i}".encode()).digest())
    return h.hexdigest()


def check_digest(content: bytes, expected: str, what: str) -> None:
    got = hashlib.sha256(content).hexdigest()
    if got != expected:
        raise CheckError(f"{what}: digest {got[:16]} != reference {expected[:16]}")


def check_history(history, work_total: float, time_slots: dict[str, float]) -> None:
    """Progress deltas sum exactly to the work; no slot overran its budget."""
    total = math.fsum(rec.progress_delta for rec in history)
    if total != work_total:
        raise CheckError(f"progress deltas sum to {total!r}, expected {work_total!r}")
    for rec in history:
        if rec.slot_duration_used > time_slots[rec.system_id]:
            raise CheckError(f"slot on {rec.system_id} used {rec.slot_duration_used} s "
                             f"of a {time_slots[rec.system_id]} s slot")


def check_equal(got, expected, what: str) -> None:
    if got != expected:
        raise CheckError(f"{what}: got {got!r}, expected {expected!r}")


def heap_ancestors(node: int) -> list[int]:
    path = [node]
    while path[-1] != 0:
        path.append((path[-1] - 1) // 2)
    return path


def heap_path(src: int, dst: int) -> list[int]:
    """Nodes on the heap-tree path from src to dst, both ends included."""
    up = heap_ancestors(src)
    down = heap_ancestors(dst)
    common = set(up) & set(down)
    lca = next(n for n in up if n in common)
    return up[: up.index(lca) + 1] + down[: down.index(lca)][::-1]


def heap_distance(src: int, dst: int) -> int:
    return len(heap_path(src, dst)) - 1


def check_healthy_send(src: int, dst: int, hops: int | None) -> None:
    """hops is the reported arrival hop count, or None if the send failed."""
    if hops is None:
        raise CheckError(f"healthy send {src}->{dst} failed")
    check_equal(hops, heap_distance(src, dst), f"hop count {src}->{dst}")


def check_dead_relay_send(src: int, dst: int, dead: int, hops: int | None,
                          failed_relay: int | None) -> None:
    """After `dead` is killed, exactly the sends routed through it fail, naming it."""
    if dead in heap_path(src, dst):
        if failed_relay is None:
            raise CheckError(f"send {src}->{dst} through dead relay {dead} succeeded")
        check_equal(failed_relay, dead, f"failed relay for {src}->{dst}")
    else:
        if failed_relay is not None:
            raise CheckError(f"send {src}->{dst} avoids relay {dead} but failed "
                             f"at {failed_relay}")
        check_healthy_send(src, dst, hops)

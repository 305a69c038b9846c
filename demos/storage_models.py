"""Model the two shared-storage designs and the volume lifecycle.

The data-image design mounts the image on the master only and re-exports it to
workers, so aggregate worker throughput is pinned to the export cap no matter
how many nodes join.  Directory passthrough rides the hypervisor instead:
native reads, writes at 90% of native.
"""

import tempfile

from bee.model import StorageSolution
from bee.storage import VolumeStore, iobench_table, model_io, sha256_hex, StoragePlan

print("write-then-cross-read benchmark, modeled MB/s (native disk 500 MB/s)")
print(f"{'nodes':>6} | {'data image + export':>22} | {'passthrough':>22}")
print(f"{'':>6} | {'master':>10} {'workers':>11} | {'master':>10} {'workers':>11}")
nfs_rows = iobench_table(StorageSolution.DATA_IMAGE_NFS, max_nodes=32)
vio_rows = iobench_table(StorageSolution.VIRTIO_PASSTHROUGH, max_nodes=32)
for n in (2, 4, 8, 16, 32):
    nfs = nfs_rows[n - 1]
    vio = vio_rows[n - 1]
    print(f"{n:>6} | {nfs['read_master_mbps']:>10.0f} "
          f"{nfs['read_worker_aggregate_mbps']:>11.0f} | "
          f"{vio['read_master_mbps']:>10.0f} "
          f"{vio['read_worker_aggregate_mbps']:>11.0f}")
print("worker aggregate stays flat at the export cap for the data image,")
print("while passthrough scales with node count")

print()
plan = StoragePlan(StorageSolution.VIRTIO_PASSTHROUGH, master_node=0,
                   mount_path="/mnt/shared", native_read=500.0, native_write=500.0)
gib = 1 << 30
print(f"passthrough, 1 GiB: read {model_io(plan, 1, 'read', gib):.3f}s, "
      f"write {model_io(plan, 1, 'write', gib):.3f}s (the 10% write penalty)")

print()
print("volume lifecycle: a volume only grows, and a reopened store reads it intact")
with tempfile.TemporaryDirectory(prefix="bee-volumes-") as root:
    store = VolumeStore(root)
    output = b"simulation output " * 1000
    vol = store.create("results", output)
    print(f"  created  {vol.id}: {vol.byte_size} bytes, digest {vol.content_digest[:12]}...")
    vol = store.write("results", output + b"a later slot appends to the volume")
    print(f"  grown to {vol.byte_size} bytes, digest {vol.content_digest[:12]}...")
    reopened = VolumeStore(root)
    print(f"  reopened store: digest preserved: "
          f"{sha256_hex(reopened.content('results')) == vol.content_digest}")

"""Checkpoint/resume manifest for partitioned extraction output.

The reference has no persistence at all (SURVEY §4.1); this layer is the
engine's north-rule requirement: output is written as one parquet directory
per hash partition of ``doc_id`` plus a manifest of completed partition ids
and per-partition metrics, so a restarted job reprocesses only the missing
partitions (broadcast anti-join against the tiny manifest — never a data
shuffle).
"""

from __future__ import annotations

import json
import os
import shutil
import zlib

import pyarrow as pa
import pyarrow.compute as pc

MANIFEST_NAME = "_manifest.json"


def add_partition_column(batch: pa.Table, num_partitions: int) -> pa.Table:
    ids = batch.column("doc_id").to_pylist()
    parts = pa.array(
        [zlib.crc32(d.encode("utf-8")) % num_partitions for d in ids], pa.int32()
    )
    return batch.append_column("partition_id", parts)


class Manifest:
    """JSON sidecar: {num_partitions, completed: {pid: metrics}}."""

    def __init__(self, out_dir: str, num_partitions: int):
        self.out_dir = out_dir
        self.path = os.path.join(out_dir, MANIFEST_NAME)
        self.num_partitions = num_partitions
        self.completed: dict[int, dict] = {}

    @classmethod
    def load_or_create(cls, out_dir: str, num_partitions: int) -> "Manifest":
        m = cls(out_dir, num_partitions)
        if os.path.exists(m.path):
            data = json.load(open(m.path))
            if data.get("num_partitions") != num_partitions:
                raise ValueError(
                    "manifest partition count mismatch: "
                    f"{data.get('num_partitions')} != {num_partitions}"
                )
            m.completed = {int(k): v for k, v in data.get("completed", {}).items()}
        return m

    def pending(self) -> list[int]:
        return [p for p in range(self.num_partitions) if p not in self.completed]

    def mark_completed(self, pid: int, metrics: dict | None = None) -> None:
        self.completed[pid] = metrics or {}

    def save(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(
                {
                    "num_partitions": self.num_partitions,
                    "completed": {str(k): v for k, v in self.completed.items()},
                },
                f,
            )
        os.replace(tmp, self.path)  # atomic publish

    def partition_dir(self, pid: int) -> str:
        return os.path.join(self.out_dir, f"partition_id={pid}")

    def clean_incomplete(self) -> None:
        """Drop partition dirs from a killed run that never reached the
        manifest — they will be rewritten."""
        if not os.path.isdir(self.out_dir):
            return
        for name in os.listdir(self.out_dir):
            if not name.startswith("partition_id="):
                continue
            pid = int(name.split("=", 1)[1])
            if pid not in self.completed:
                shutil.rmtree(os.path.join(self.out_dir, name))


def run_partitioned_extract(
    spans_path: str,
    out_dir: str,
    num_partitions: int = 16,
    checkpoint_groups: int = 4,
) -> Manifest:
    """Resumable extraction job: read → filter to pending partitions →
    extract → write one parquet dir per partition → publish manifest.

    Checkpointing is INCREMENTAL: pending partitions are split into
    ``checkpoint_groups`` commit groups; each group runs as its own
    read→extract→write pipeline and the manifest is marked+saved as soon
    as the group's write lands, so a job killed mid-run loses only the
    in-flight group, not everything.  The trade is one input scan per
    group (the partition key is a doc_id hash, not a storage predicate,
    so the filter can't push into the read) — extraction itself, the
    dominant cost, runs exactly once per document because groups are
    disjoint.  At cluster scale a group is the restartable unit of a
    ``ray job`` submission.

    The pending-partition filter is a broadcast semi-join against the
    manifest (a set in the task closure — tiny), applied batch-wise before
    extraction so completed work is never recomputed.  Output rows carry
    ``partition_id`` so the write is ``partition_cols``-partitioned and a
    failed run can be restarted with the same arguments.
    """
    from ..pipelines.article import extract_dataset, read_spans

    manifest = Manifest.load_or_create(out_dir, num_partitions)
    manifest.clean_incomplete()
    all_pending = sorted(manifest.pending())
    if not all_pending:
        return manifest

    nparts = num_partitions
    os.makedirs(out_dir, exist_ok=True)

    n_groups = max(1, min(checkpoint_groups, len(all_pending)))
    groups = [
        all_pending[i::n_groups] for i in range(n_groups)
    ]  # round-robin split keeps group sizes balanced

    import pyarrow.dataset as pads

    for group in groups:
        pending = set(group)

        def tag_and_filter(batch: pa.Table) -> pa.Table:
            batch = add_partition_column(batch, nparts)
            mask = pc.is_in(
                batch.column("partition_id"),
                value_set=pa.array(sorted(pending), pa.int32()),
            )
            return batch.filter(mask)

        ds = read_spans(spans_path).map_batches(
            tag_and_filter, batch_format="pyarrow", zero_copy_batch=True
        )
        # Extraction drops unknown columns, so re-tag after (cheap).
        out = extract_dataset(ds)
        out = out.map_batches(
            lambda b: add_partition_column(b, nparts),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        out.write_parquet(out_dir, partition_cols=["partition_id"])

        # Commit the group: roll up per-partition metrics (small reads of
        # metric columns only) and publish the manifest atomically.
        for pid in sorted(pending):
            pdir = manifest.partition_dir(pid)
            metrics = {"n_docs": 0, "n_blocks_kept": 0, "words_kept": 0, "n_errors": 0}
            if os.path.isdir(pdir):
                t = pads.dataset(pdir).to_table(
                    columns=["n_blocks_kept", "words_kept", "error"]
                )
                metrics["n_docs"] = t.num_rows
                metrics["n_blocks_kept"] = int(
                    pc.sum(t.column("n_blocks_kept")).as_py() or 0
                )
                metrics["words_kept"] = int(pc.sum(t.column("words_kept")).as_py() or 0)
                metrics["n_errors"] = int(
                    pc.sum(pc.not_equal(t.column("error"), "")).as_py() or 0
                )
            manifest.mark_completed(pid, metrics)
        manifest.save()
    return manifest

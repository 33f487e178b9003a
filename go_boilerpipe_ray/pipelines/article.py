"""End-to-end extraction pipelines, Ray-Data-first.

One extraction stage, ``ExtractDocuments``, runs in stateless Ray tasks
on either path: whole-document rows go through one task ``map_batches``
(``extract_dataset``, no shuffle); fragment rows are co-located by the
engine's one keyed exchange (``functions._util.partitioned_by_key``, a
fixed-range sort on a doc_id hash) and extracted once per output block
(``reassemble_and_extract``).  Design notes for 100 TB
scale are inline.
"""

from __future__ import annotations

import time

import pyarrow as pa

import ray.data

from ..stages.extract import ExtractDocuments

# Defaults sized so that batch_size × avg doc size stays in the tens of MB
# per task (256 × ~50 KB ≈ 13 MB of HTML per call); a batch holding a
# giant document costs that document's extraction time, since the kernel
# is per-document either way.  256 measured faster than 128 in four of
# four interleaved fresh-process draws on the bench corpus (8-45%: fewer
# per-call Arrow assembly/slice overheads per doc); 512 was a wash — keep
# 256 for the smaller memory envelope.
DEFAULT_BATCH_SIZE = 256


def read_spans(path: str, parallelism: int | None = None) -> "ray.data.Dataset":
    """Read a spans table.  Lance is the production format per the north
    rule; this sandbox has no lance package, so parquet is the tested
    reader and read_lance is attempted first behind a capability check."""
    if path.endswith(".lance"):
        if lance_available():
            return ray.data.read_lance(path)
        raise RuntimeError(
            "lance input requested but the lance package is not installed"
        )
    kwargs = {}
    if parallelism:
        kwargs["override_num_blocks"] = parallelism
    if path.endswith((".jsonl", ".json")) or _is_jsonl_dir(path):
        # Crawl dumps commonly arrive as JSONL before any columnar
        # conversion; normalize to the spans schema at the read edge so
        # every downstream stage sees identical Arrow batches.
        ds = ray.data.read_json(path, **kwargs)
        return ds.map_batches(
            _normalize_spans_batch, batch_format="pyarrow", zero_copy_batch=True
        )
    return ray.data.read_parquet(path, **kwargs)


def lance_available() -> bool:
    """True when the lance package AND the Ray bindings are importable —
    the capability gate for the north rule's production format."""
    if not hasattr(ray.data, "read_lance"):
        return False
    try:
        import lance  # noqa: F401

        return True
    except ImportError:
        return False


def write_spans(ds: "ray.data.Dataset", path: str) -> None:
    """Symmetric sink for ``read_spans``: lance when the path asks for it
    and the package exists (production format per the north rule), else
    partitioned parquet.  A ``.lance`` path without the package fails
    loudly up front instead of mid-stream inside a write task."""
    if path.endswith(".lance"):
        if not lance_available():
            raise RuntimeError(
                "lance output requested but the lance package is not "
                "installed; write parquet or install lance"
            )
        ds.write_lance(path)
        return
    ds.write_parquet(path)


def _is_jsonl_dir(path: str) -> bool:
    import glob
    import os

    return os.path.isdir(path) and bool(
        glob.glob(os.path.join(path, "*.jsonl"))
    ) and not glob.glob(os.path.join(path, "*.parquet"))


def _normalize_spans_batch(batch: pa.Table) -> pa.Table:
    """Cast a JSON-read batch to the canonical spans schema (JSON
    integers arrive as int64; the schema wants int32 offsets)."""
    from ..sources.fixtures import SPANS_SCHEMA

    return batch.select(["doc_id", "spans"]).cast(SPANS_SCHEMA)


def _default_concurrency() -> int:
    """Cap on concurrent extraction tasks: the cluster's CPUs minus IO
    headroom, so read and write tasks always find a free CPU beside the
    extraction.

    Headroom is min(4 per node, max(1, cpus // 4)), measured when the stage
    ran on a fixed actor pool of this size: 4 spare CPUs beat 8 at 32 cores
    (28: 14.6s vs 24: 17.1s) while 2 spare collapsed (30: 38s, write
    stalls); at 8 cores the 25% rule (6) beat 7 (49s vs 57s).  The per-node
    cap keeps the headroom proportional on multi-node clusters, where every
    node runs its own share of read/write tasks.  The value also sizes
    actor pools over the same stage, which must leave a CPU free: a pool
    over ALL cpus starves the upstream read and deadlocks the pipeline."""
    import ray

    try:
        if ray.is_initialized():
            cpus = int(ray.cluster_resources().get("CPU", 4))
            nodes = max(1, sum(1 for n in ray.nodes() if n.get("Alive", False)))
        else:
            cpus, nodes = 4, 1
    except Exception:
        cpus, nodes = 4, 1
    return max(1, cpus - min(4 * nodes, max(1, cpus // 4)))


# The Ray job whose task workers _ready_workers has started.
_READY_JOB: str | None = None
# Seconds each readying task holds its worker: longer than a new worker
# takes to start (about 0.5 s on a 4-CPU host), so that a round rarely
# runs again.
_READY_HOLD_S = 0.5


def _worker_id(until: float) -> str:
    """Hold this task worker until ``until`` (wall clock), then return its
    id.  To run this, the worker imports this module, and with it Ray
    Data, pyarrow and the engine."""
    time.sleep(max(0.0, until - time.time()))
    return ray.get_runtime_context().get_worker_id()


def _ready_workers(n: int) -> set[str]:
    """Have ``n`` task workers import Ray Data and the engine, once per Ray
    job.  Returns their worker ids; empty when this job already has them
    or Ray is not running.

    Ray starts another task worker the first time a job runs tasks side
    by side, and that worker imports Ray Data and the engine before its
    first batch: about a second, paid in the middle of whichever job first
    overlaps a read or write task with extraction, and by no job after it.
    Paying it here, before the first job is built, gives every job of a
    session the same cost.  The tasks of a round hold their workers until
    the same moment, so that no worker runs two of them; a round in which
    a new worker was not up by then is run again, at most three times."""
    global _READY_JOB
    if not ray.is_initialized():
        return set()
    job = ray.get_runtime_context().get_job_id()
    if job == _READY_JOB:
        return set()
    _READY_JOB = job
    n = min(n, int(ray.cluster_resources().get("CPU", 1)))
    task = ray.remote(num_cpus=1)(_worker_id)
    ids: set[str] = set()
    for _ in range(3):
        until = time.time() + _READY_HOLD_S
        ids = set(ray.get([task.remote(until) for _ in range(n)]))
        if len(ids) >= n:
            break
    return ids


def extract_dataset(
    ds: "ray.data.Dataset",
    *,
    concurrency: int | None = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> "ray.data.Dataset":
    """The narrow hot path: task map_batches over zero-copy Arrow.

    The stage holds no state, so it runs as an instance (a task UDF) on
    Ray's long-lived workers rather than on an actor pool that every job
    would start again; at most ``concurrency`` tasks run at once.  The
    first call in a Ray job readies ``concurrency`` + 1 workers (the
    extraction tasks and a read or write task beside them), so that no
    job starts one midway (``_ready_workers``)."""
    if concurrency is None:
        concurrency = _default_concurrency()
    _ready_workers(concurrency + 1)
    return ds.map_batches(
        ExtractDocuments(),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
        concurrency=concurrency,
    )


def _reassemble_part(part: pa.Table) -> pa.Table:
    """Concatenate each doc_id's span fragments and extract — for EVERY
    document in the partition with one extractor call (a multi-row
    batch), not one Python call + one-row Arrow table per document.
    Fragment rows may arrive in any order; spans are globally ordered by
    their ``offset`` field, so a plain concat + in-kernel sort
    reassembles the document (the "groupby doc_id, sort by offset" path
    of the north rule).

    The regroup is pure Arrow: dictionary-encode doc_id (one int code
    per doc), integer-argsort the codes into contiguous runs, gather the
    fragment lists once, then rebuild the per-doc list column from the
    flattened span values + reduceat'd run lengths — no per-fragment
    Python objects on this path (the former ``to_pylist`` + extend loop
    built one dict per span)."""
    import numpy as np
    import pyarrow.compute as pc

    ids = part.column("doc_id").combine_chunks()
    spans = part.column("spans").combine_chunks()
    codes = pc.dictionary_encode(ids).indices.to_numpy(zero_copy_only=False)
    order = np.argsort(codes, kind="stable")
    take = pa.array(order, pa.int64())
    ids = ids.take(take)
    spans = spans.take(take)
    codes = codes[order]
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    frag_lens = pc.list_value_length(spans).to_numpy(zero_copy_only=False)
    doc_lens = np.add.reduceat(frag_lens.astype(np.int64), starts)
    offsets = np.concatenate([[0], np.cumsum(doc_lens)])
    # int64 offsets: a partition may hold more than 2^31 spans in all.
    regrouped = pa.LargeListArray.from_arrays(
        pa.array(offsets, pa.int64()), pc.list_flatten(spans)
    )
    batch = pa.table(
        {"doc_id": ids.take(pa.array(starts, pa.int64())), "spans": regrouped}
    )
    return ExtractDocuments()(batch)


def reassemble_and_extract(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Sharded-ingest path: input rows carry *fragments* of a document's
    span list (same doc_id on multiple rows).  One keyed exchange on
    blake2(doc_id) % P (``partitioned_by_key``) co-locates fragments at
    fixed pk ranges; extraction then runs once per output block over a
    multi-document batch, so every document lands in the same block on
    every run and the per-block kernel work repeats (doc_id is a string
    — the int-keyed exchange also avoids sorting strings)."""
    from ..functions._util import partitioned_by_key

    return partitioned_by_key(ds, "doc_id", _reassemble_part)

"""Interchange-format sources/sinks exercised end-to-end: parquet →
JSONL / CSV sink → Ray source → downstream compute, oracled against the
original parquet views.  This is the "a user could swap their ingest
format" contract: the sink and source are Ray Data's own distributed
writers/readers (one file per block, no driver funnel), and the
roundtrip is proven by recomputing content-derived values AFTER the
format hop and hash-comparing them against the parquet truth.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..functions._util import keyed_aggregate, money_cents


def _sink_dir(kind: str, sf_dir: str, out_dir: str | None) -> str:
    """Resolve the sink location.  On a real multi-node cluster this MUST
    be shared storage (an s3://... / HDFS URI passed as ``out_dir``) —
    Ray's distributed writers emit one shard per block from whichever
    node runs the task, so a node-local path only works single-node.
    The default is a deterministic local path keyed by a hash of the
    FULL normalized input path (basename alone would collide across
    datasets), wiped before each run so stale shards from a previous
    run can never double-count.  Single-writer contract: two concurrent
    roundtrips over the same input would wipe each other mid-flight —
    pass distinct ``out_dir``s to parallelize.  Remote URIs cannot be
    wiped from here; the CALLER must hand over an empty prefix (stale
    remote shards double-count silently)."""
    import hashlib

    if out_dir is None:
        key = hashlib.md5(
            os.path.realpath(sf_dir).encode()
        ).hexdigest()[:12]
        out_dir = f"/tmp/gbr_formats/{kind}_{key}"
    if "://" not in out_dir:  # local filesystem path: enforce hygiene
        out_dir = os.path.abspath(out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir, exist_ok=True)
    return out_dir


def jsonl_roundtrip(sf_dir: str, out_dir: str | None = None) -> "ray.data.Dataset":
    """documents.parquet → JSONL (write_json, one shard per block) →
    read_json → recompute per-doc codepoint length from the
    roundtripped text.  Matching the oracle's length(text) over the
    ORIGINAL parquet proves the JSON escaping/decoding path preserved
    every document byte-for-byte (unicode escapes included)."""
    out = _sink_dir("jsonl", sf_dir, out_dir)
    ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    ).write_json(out)

    def measure(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "lang": batch.column("lang"),
                "n_chars_rt": pc.cast(
                    pc.utf8_length(batch.column("text")), pa.int64()
                ),
            }
        )

    return ray.data.read_json(out).map_batches(
        measure, batch_format="pyarrow", zero_copy_batch=True
    )


JSONL_ROUNDTRIP_SQL = """
SELECT doc_id, lang, CAST(length(text) AS BIGINT) AS n_chars_rt
FROM documents
"""


def csv_roundtrip(sf_dir: str, out_dir: str | None = None) -> "ray.data.Dataset":
    """part.parquet → CSV (write_csv) → read_csv → per-brand rollup of
    the roundtripped integer columns.  Integer/string columns only: CSV
    is not a lossless float carrier, and the oracle comparison would
    inherit the text-float ambiguity (documented limitation of the
    format, not of the pipeline)."""
    out = _sink_dir("csv", sf_dir, out_dir)
    ray.data.read_parquet(
        f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"]
    ).write_csv(out)

    return keyed_aggregate(
        ray.data.read_csv(out),
        "p_brand",
        {"n_parts": ("p_partkey", "count"), "sum_size": ("p_size", "sum")},
    )


CSV_ROUNDTRIP_SQL = """
SELECT p_brand,
       CAST(count(*) AS BIGINT) AS n_parts,
       CAST(sum(p_size) AS BIGINT) AS sum_size
FROM part GROUP BY p_brand
"""


def ipc_roundtrip(sf_dir: str, out_dir: str | None = None) -> "ray.data.Dataset":
    """orders.parquet → Arrow IPC (feather v2) shards → distributed
    decode → per-status rollup of the roundtripped columns.  Ray Data
    has no native IPC writer, so the sink is a map_batches stage that
    streams each block through pa.ipc.new_file into one shard (shard
    name = content hash → deterministic, collision-free, resumable) and
    the source is read_binary_files + a vectorized in-task decode —
    both sides stay distributed, no driver funnel.  IPC preserves Arrow
    types exactly (unlike CSV), so the rollup includes the timestamp
    column the CSV roundtrip must avoid."""
    import hashlib as _hl

    out = _sink_dir("ipc", sf_dir, out_dir)

    def write_shard(batch: pa.Table) -> pa.Table:
        sink = pa.BufferOutputStream()
        with pa.ipc.new_file(sink, batch.schema) as w:
            w.write_table(batch)
        buf = sink.getvalue()
        name = _hl.md5(buf.to_pybytes()).hexdigest()
        path = os.path.join(out, f"{name}.arrow")
        with open(path, "wb") as f:
            f.write(buf.to_pybytes())
        return pa.table({"path": pa.array([path], pa.string())})

    # sink: one IPC shard per block (write, then drain the manifest)
    ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice", "o_orderdate"],
    ).map_batches(
        write_shard, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    if not os.listdir(out):  # empty input wrote no shards
        return ray.data.from_arrow(
            pa.table(
                {
                    "o_orderstatus": pa.array([], pa.string()),
                    "n_orders": pa.array([], pa.int64()),
                    "total_cents": pa.array([], pa.int64()),
                    "last_orderdate": pa.array([], pa.timestamp("us")),
                }
            )
        )

    def decode(batch: pa.Table) -> pa.Table:
        tables = []
        for raw in batch.column("bytes").to_pylist():
            with pa.ipc.open_file(pa.BufferReader(raw)) as r:
                tables.append(r.read_all())
        t = pa.concat_tables(tables)
        cents = money_cents(t.column("o_totalprice").to_numpy(zero_copy_only=False))
        day_us = pc.cast(
            pc.floor_temporal(t.column("o_orderdate"), unit="day"), pa.int64()
        )
        return pa.table(
            {
                "o_orderstatus": t.column("o_orderstatus"),
                "cents": pa.array(cents, pa.int64()),
                "day": pc.cast(day_us, pa.timestamp("us")),
            }
        )

    return keyed_aggregate(
        ray.data.read_binary_files(out).map_batches(
            decode, batch_format="pyarrow", zero_copy_batch=True
        ),
        "o_orderstatus",
        {
            "n_orders": ("cents", "count"),
            "total_cents": ("cents", "sum"),
            "last_orderdate": ("day", "max"),
        },
    )


IPC_ROUNDTRIP_SQL = """
SELECT o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS total_cents,
       CAST(date_trunc('day', max(o_orderdate)) AS TIMESTAMP) AS last_orderdate
FROM orders GROUP BY 1
"""


def orc_roundtrip(sf_dir: str, out_dir: str | None = None) -> "ray.data.Dataset":
    """supplier.parquet → ORC shards → distributed decode → per-nation
    rollup.  Ray Data has no ORC reader/writer, so both sides are the
    same custom map_batches sink / read_binary_files + in-task decode
    composition ipc_roundtrip establishes (content-hash shard names:
    deterministic, collision-free, resumable) — proving the pattern
    generalizes to any pyarrow-supported columnar format."""
    import hashlib as _hl

    import pyarrow.orc as orc

    out = _sink_dir("orc", sf_dir, out_dir)

    def write_shard(batch: pa.Table) -> pa.Table:
        sink = pa.BufferOutputStream()
        orc.write_table(batch, sink)
        buf = sink.getvalue()
        name = _hl.md5(buf.to_pybytes()).hexdigest()
        path = os.path.join(out, f"{name}.orc")
        with open(path, "wb") as f:
            f.write(buf.to_pybytes())
        return pa.table({"path": pa.array([path], pa.string())})

    ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_nationkey", "s_acctbal"],
    ).map_batches(
        write_shard, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    if not os.listdir(out):  # empty input wrote no shards
        return ray.data.from_arrow(
            pa.table(
                {
                    "s_nationkey": pa.array([], pa.int64()),
                    "n_suppliers": pa.array([], pa.int64()),
                    "acctbal_cents": pa.array([], pa.int64()),
                }
            )
        )

    def decode(batch: pa.Table) -> pa.Table:
        tables = []
        for raw in batch.column("bytes").to_pylist():
            tables.append(orc.ORCFile(pa.BufferReader(raw)).read())
        t = pa.concat_tables(tables)
        cents = money_cents(t.column("s_acctbal").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "s_nationkey": pc.cast(t.column("s_nationkey"), pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    return keyed_aggregate(
        ray.data.read_binary_files(out).map_batches(
            decode, batch_format="pyarrow", zero_copy_batch=True
        ),
        "s_nationkey",
        {"n_suppliers": ("cents", "count"), "acctbal_cents": ("cents", "sum")},
    )


ORC_ROUNDTRIP_SQL = """
SELECT CAST(s_nationkey AS BIGINT) AS s_nationkey,
       CAST(count(*) AS BIGINT) AS n_suppliers,
       CAST(sum(CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS acctbal_cents
FROM supplier GROUP BY 1
"""


def hive_roundtrip(
    sf_dir: str,
    out_dir: str | None = None,
    keep: tuple[str, ...] = ("click", "purchase"),
) -> "ray.data.Dataset":
    """events.parquet → hive-partitioned parquet
    (``write_parquet(partition_cols=['event_type'])``, Ray's distributed
    writer: one ``event_type=<v>/`` directory, shards written from
    whichever node runs each block) → partition-PRUNED read-back: only
    the ``keep`` partition directories are opened, so rows of every
    other event_type never leave storage — pruning by construction, the
    layout a resumable 100 TB sink needs (finished partitions are
    skippable by path).  pyarrow's hive inference restores the
    partition column from the directory name; the rollup then proves
    the values survived the hop bit-exact.

    Scale shape: distributed write (no driver funnel), per-partition
    directory read fan-out, one keyed aggregate → 5-group rollup."""
    out = _sink_dir("hive", sf_dir, out_dir)
    ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    ).write_parquet(out, partition_cols=["event_type"])

    # Local sinks: detect the no-kept-partition case up front (read_parquet
    # on an empty dir raises).  Remote URIs can't be probed with os.path —
    # there the PathPartitionFilter below is the only pruning layer and an
    # entirely-empty prefix surfaces as a loud read error, never a silent
    # empty result.
    if "://" not in out:
        have = [
            v
            for v in keep
            if os.path.isdir(os.path.join(out, f"event_type={v}"))
        ]
    else:
        have = list(keep)
    if not have:  # empty input (or no kept partition) wrote no dirs
        return ray.data.from_arrow(
            pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "n_events": pa.array([], pa.int64()),
                    "total_cents": pa.array([], pa.int64()),
                    "max_event_id": pa.array([], pa.int64()),
                }
            )
        )

    def cents_rows(batch: pa.Table) -> pa.Table:
        cents = money_cents(batch.column("value").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "event_type": pc.cast(batch.column("event_type"), pa.string()),
                "cents": pa.array(cents, pa.int64()),
                "eid": pc.cast(batch.column("event_id"), pa.int64()),
            }
        )

    from ray.data.datasource.partitioning import (
        Partitioning,
        PathPartitionFilter,
        PathPartitionParser,
    )

    part = Partitioning("hive")
    keep_set = set(keep)
    pruned = ray.data.read_parquet(
        out,
        partitioning=part,
        # Path-level pruning: files under non-kept event_type= directories
        # are never opened (Ray binds pyarrow ``filter`` expressions to the
        # file schema, which lacks hive columns — partition_filter is the
        # supported partition-pruning surface).
        partition_filter=PathPartitionFilter(
            PathPartitionParser(part),
            lambda kv: kv.get("event_type") in keep_set,
        ),
    )
    return keyed_aggregate(
        pruned.map_batches(cents_rows, batch_format="pyarrow", zero_copy_batch=True),
        "event_type",
        {
            "n_events": ("cents", "count"),
            "total_cents": ("cents", "sum"),
            "max_event_id": ("eid", "max"),
        },
    )


HIVE_ROUNDTRIP_SQL = """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS total_cents,
       CAST(max(event_id) AS BIGINT) AS max_event_id
FROM events
WHERE event_type IN ('click', 'purchase')
GROUP BY 1
"""


def compact_roundtrip(
    sf_dir: str,
    out_dir: str | None = None,
    small_files: int = 48,
    target_files: int = 4,
) -> "ray.data.Dataset":
    """Small-file compaction — the sink-maintenance primitive every
    long-running ingest needs: a directory of many tiny parquet shards
    (here deliberately produced by a ``small_files``-way repartition of
    orders) is re-read and rewritten as ``target_files`` right-sized
    files, then the COMPACTED copy is read back and rolled up to prove
    no row was lost or duplicated in the rewrite.

    Scale shape: read → repartition(target) → write is fully
    distributed (Ray's writer emits one file per block from whichever
    node holds it; no driver funnel).  At 100 TB the target count comes
    from bytes (total/512 MB), not a constant — the constant here keeps
    the test corpus deterministic.  A pytest asserts the file count
    actually shrinks."""
    out = _sink_dir("compact", sf_dir, out_dir)
    small = out.rstrip("/") + "/small"
    compact = out.rstrip("/") + "/compacted"
    is_local = "://" not in out
    if is_local:
        os.makedirs(small, exist_ok=True)
        os.makedirs(compact, exist_ok=True)

    ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderstatus", "o_totalprice"],
    ).repartition(small_files).write_parquet(small)

    # Empty-input probe is local-only; a remote empty prefix surfaces as
    # a loud read error below, never a silent empty result.
    if is_local and not os.listdir(small):  # empty input wrote no shards
        return ray.data.from_arrow(
            pa.table(
                {
                    "o_orderstatus": pa.array([], pa.string()),
                    "n_orders": pa.array([], pa.int64()),
                    "total_cents": pa.array([], pa.int64()),
                }
            )
        )

    ray.data.read_parquet(small).repartition(target_files).write_parquet(
        compact
    )

    def cents_rows(batch: pa.Table) -> pa.Table:
        cents = money_cents(batch.column("o_totalprice").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "o_orderstatus": pc.cast(batch.column("o_orderstatus"), pa.string()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    return keyed_aggregate(
        ray.data.read_parquet(compact).map_batches(
            cents_rows, batch_format="pyarrow", zero_copy_batch=True
        ),
        "o_orderstatus",
        {"n_orders": ("cents", "count"), "total_cents": ("cents", "sum")},
    )


COMPACT_ROUNDTRIP_SQL = """
SELECT o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS total_cents
FROM orders GROUP BY 1
"""


_BUCKET_B = 8
_BUCKET_BUILD_CACHE: dict = {}


def bucketed_join_roundtrip(
    sf_dir: str, out_dir: str | None = None, n_buckets: int = _BUCKET_B
) -> "ray.data.Dataset":
    """Bucketed-storage join: write BOTH join sides hash-bucketed by the
    join key (``bucket = custkey % B`` as a partition directory), then
    join bucket-to-bucket with NO shuffle — every orders task reads its
    aligned customer bucket straight from storage (cached per worker
    process, so each worker reads each build bucket at most once).
    This is the layout trick that turns a repeated 100 TB fact-dim join
    from an all-to-all exchange into an embarrassingly parallel map:
    co-location is established once at write time and every later join
    reuses it.  The rollup per market segment proves the joined values
    arrived bit-exact.

    Scale shape: two distributed bucketed writes, then B independent
    pruned reads (bucket directories) → map_batches probe with a
    per-worker build-side cache → one keyed aggregate per market
    segment.  The bucket column is derived, carried only in the path."""
    import numpy as np

    cust_out = _sink_dir("bucket_cust", sf_dir, out_dir and out_dir + "/c")
    ord_out = _sink_dir("bucket_ord", sf_dir, out_dir and out_dir + "/o")

    def add_bucket(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            k = pc.cast(batch.column(col), pa.int64()).to_numpy(
                zero_copy_only=False
            )
            return batch.append_column(
                "bucket", pa.array((k % n_buckets).astype(np.int64), pa.int64())
            )

        return fn

    ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).map_batches(
        add_bucket("c_custkey"), batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(cust_out, partition_cols=["bucket"])
    ray.data.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"]
    ).map_batches(
        add_bucket("o_custkey"), batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(ord_out, partition_cols=["bucket"])

    # Per-call run token: the sink path is deterministic and gets
    # rewritten every call, but worker processes outlive calls — a cache
    # keyed on path alone would serve the PREVIOUS run's dimension table
    # after the input changed.  The token makes reuse within-call only.
    import uuid

    run_token = uuid.uuid4().hex

    def probe_for(bucket: int):
        build_dir = os.path.join(cust_out, f"bucket={bucket}")
        cache_key = (build_dir, run_token)

        def probe(batch: pa.Table) -> pa.Table:
            seg_by_key = _BUCKET_BUILD_CACHE.get(cache_key)
            if seg_by_key is None:
                import pyarrow.parquet as pq

                bt = pq.read_table(build_dir)
                seg_by_key = dict(
                    zip(
                        bt.column("c_custkey").to_pylist(),
                        bt.column("c_mktsegment").to_pylist(),
                    )
                )
                if len(_BUCKET_BUILD_CACHE) > 64:
                    _BUCKET_BUILD_CACHE.clear()
                _BUCKET_BUILD_CACHE[cache_key] = seg_by_key
            keys = batch.column("o_custkey").to_pylist()
            segs = [seg_by_key.get(k) for k in keys]
            cents = money_cents(
                batch.column("o_totalprice").to_numpy(zero_copy_only=False)
            )
            # inner-join semantics: drop orders without a customer row
            hit = [i for i, s in enumerate(segs) if s is not None]
            return pa.table(
                {
                    "c_mktsegment": pa.array(
                        [segs[i] for i in hit], pa.string()
                    ),
                    "cents": pa.array(cents[hit], pa.int64()),
                }
            )

        return probe

    parts = []
    for b in range(n_buckets):
        odir = os.path.join(ord_out, f"bucket={b}")
        if not os.path.isdir(odir):
            continue  # empty bucket wrote no directory
        parts.append(
            ray.data.read_parquet(odir).map_batches(
                probe_for(b), batch_format="pyarrow", zero_copy_batch=True
            )
        )
    if not parts:
        return ray.data.from_arrow(
            pa.table(
                {
                    "c_mktsegment": pa.array([], pa.string()),
                    "n_orders": pa.array([], pa.int64()),
                    "total_cents": pa.array([], pa.int64()),
                }
            )
        )
    ds = parts[0]
    for p in parts[1:]:
        ds = ds.union(p)
    return keyed_aggregate(
        ds,
        "c_mktsegment",
        {"n_orders": ("cents", "count"), "total_cents": ("cents", "sum")},
    )


BUCKETED_JOIN_ROUNDTRIP_SQL = """
SELECT c.c_mktsegment,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS total_cents
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY 1
"""


def _align_to(batch: pa.Table, names: list, types: dict) -> pa.Table:
    """Project a shard batch onto the unified schema: missing columns
    materialize as typed nulls, order is canonical."""
    cols = {}
    for n in names:
        if n in batch.column_names:
            cols[n] = pc.cast(batch.column(n), types[n])
        else:
            cols[n] = pa.nulls(batch.num_rows, types[n])
    return pa.table(cols)


def schema_evolution_roundtrip(
    sf_dir: str, out_dir: str | None = None
) -> "ray.data.Dataset":
    """Schema-evolution read: a corpus whose early shards were written
    BEFORE a column existed (here: events split into a v1 shard without
    ``event_type`` and a v2 shard with it) must still read as one
    dataset.  The engine pattern: read each shard generation with its
    own schema, project every batch onto the UNIFIED schema (missing
    columns become typed nulls — ``_align_to``), then union; never
    rely on the reader guessing across heterogeneous files (pyarrow
    binds the first fragment's schema, silently dropping or erroring
    on stragglers).  The rollup groups nulls under a sentinel to prove
    row-level survival.

    Scale shape: two distributed writes, two streaming reads, a
    zero-copy per-batch projection, one keyed aggregate — the union is
    a metadata concat, not a shuffle."""
    out = _sink_dir("schemaevo", sf_dir, out_dir)

    def v1_filter(batch: pa.Table) -> pa.Table:
        eid = pc.cast(batch.column("event_id"), pa.int64())
        keep = pc.equal(pc.bit_wise_and(eid, 1), 0)
        return batch.filter(keep).select(["event_id", "value"])

    def v2_filter(batch: pa.Table) -> pa.Table:
        eid = pc.cast(batch.column("event_id"), pa.int64())
        keep = pc.equal(pc.bit_wise_and(eid, 1), 1)
        return batch.filter(keep).select(["event_id", "value", "event_type"])

    src = f"{sf_dir}/events.parquet"
    cols = ["event_id", "value", "event_type"]
    ray.data.read_parquet(src, columns=cols).map_batches(
        v1_filter, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(os.path.join(out, "v1"))
    ray.data.read_parquet(src, columns=cols).map_batches(
        v2_filter, batch_format="pyarrow", zero_copy_batch=True
    ).write_parquet(os.path.join(out, "v2"))

    names = ["event_id", "value", "event_type"]
    types = {
        "event_id": pa.int64(),
        "value": pa.float64(),
        "event_type": pa.string(),
    }

    def read_aligned(sub: str) -> "ray.data.Dataset":
        d = os.path.join(out, sub)
        if not os.path.isdir(d):
            return ray.data.from_arrow(
                pa.table({n: pa.array([], types[n]) for n in names})
            )
        return ray.data.read_parquet(d).map_batches(
            lambda b: _align_to(b, names, types),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    unified = read_aligned("v1").union(read_aligned("v2"))

    def cents_rows(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        cents = money_cents(
            batch.column("value").to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "event_type": pc.fill_null(pc.cast(et, pa.string()), "<missing>"),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    return keyed_aggregate(
        unified.map_batches(cents_rows, batch_format="pyarrow", zero_copy_batch=True),
        "event_type",
        {"n_events": ("cents", "count"), "total_cents": ("cents", "sum")},
    )


SCHEMA_EVOLUTION_ROUNDTRIP_SQL = """
SELECT CASE WHEN event_id % 2 = 0 THEN '<missing>' ELSE event_type END
         AS event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS total_cents
FROM events GROUP BY 1
"""


def wap_publish(sf_dir: str, out_dir: str | None = None) -> "ray.data.Dataset":
    """Write-Audit-Publish: the data-lake release idiom — the rollup is
    written to a STAGING prefix, an audit recomputes (row count,
    order-independent content checksum) from the staged files and
    compares against the same fingerprint computed from the source
    scan, and only on exact match does the staging prefix move to the
    published location readers see.  A failed audit raises loudly and
    leaves the previous published data untouched.  On shared storage
    the final move is a manifest swap; locally it is an atomic rename.

    Scale shape: one distributed write, two streaming audit scans
    folding to scalar (count, checksum) pairs, a metadata publish, and
    a published read-back."""
    base = _sink_dir("wap", sf_dir, out_dir)
    staging = os.path.join(base, "staging")
    published = os.path.join(base, "published")

    def cents_rows(batch: pa.Table) -> pa.Table:
        cents = money_cents(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "o_orderpriority": pc.cast(
                    batch.column("o_orderpriority"), pa.string()
                ),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    rollup = keyed_aggregate(
        ray.data.read_parquet(
            f"{sf_dir}/orders.parquet",
            columns=["o_orderpriority", "o_totalprice"],
        ).map_batches(cents_rows, batch_format="pyarrow", zero_copy_batch=True),
        "o_orderpriority",
        {"n_orders": ("cents", "count"), "total_cents": ("cents", "sum")},
    )
    rollup.write_parquet(staging)

    def fingerprint(ds: "ray.data.Dataset") -> tuple[int, int]:
        """(rows, order-independent checksum) of a rollup dataset."""
        import hashlib

        P = 2147483647

        def fold(batch: pa.Table) -> pa.Table:
            s = 0
            for pr, n, c in zip(
                batch.column("o_orderpriority").to_pylist(),
                batch.column("n_orders").to_pylist(),
                batch.column("total_cents").to_pylist(),
            ):
                hv = int.from_bytes(
                    hashlib.md5(f"{pr}|{n}|{c}".encode()).digest()[8:],
                    "little",
                )
                s += (hv & ((1 << 50) - 1)) % P
            return pa.table(
                {
                    "n": pa.array([batch.num_rows], pa.int64()),
                    "s": pa.array([s % P], pa.int64()),
                }
            )

        agg = ds.map_batches(
            fold, batch_format="pyarrow", zero_copy_batch=True
        ).aggregate(
            ray.data.aggregate.Sum("n", alias_name="n"),
            ray.data.aggregate.Sum("s", alias_name="s"),
        )
        return int(agg.get("n") or 0), int(agg.get("s") or 0) % P

    # audit: staged files vs a fresh source-derived rollup
    expected = fingerprint(rollup)
    staged = fingerprint(ray.data.read_parquet(staging))
    if staged != expected:
        raise RuntimeError(
            f"WAP audit failed: staged {staged} != expected {expected}; "
            "publish aborted, previous published data untouched"
        )
    shutil.rmtree(published, ignore_errors=True)
    os.replace(staging, published)
    return ray.data.read_parquet(published)


WAP_PUBLISH_SQL = """
SELECT o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS total_cents
FROM orders GROUP BY 1
"""


def codec_roundtrip(sf_dir: str, out_dir: str | None = None) -> "ray.data.Dataset":
    """Compression-codec A/B for the storage layer: the same supplier
    shard set is written twice — zstd and snappy parquet — read back
    independently, and BOTH rollups are emitted side by side tagged by
    codec.  The two codec rows must be identical except for the tag
    (codecs must not change content); the oracle recomputes the rollup
    once per tag.  The on-disk byte sizes differ, of course — that
    comparison lives in the shard files this op leaves behind, while
    the RESULT stays deterministic so the driver can hash it.

    Scale shape: one streaming pass per write (content-hash shard
    names), one read_parquet + rollup per codec — all existing
    machinery; nothing gathers."""
    out_z = _sink_dir("codec_zstd", sf_dir, out_dir and out_dir + "_z")
    out_s = _sink_dir("codec_snappy", sf_dir, out_dir and out_dir + "_s")

    src = ray.data.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_nationkey", "s_acctbal"],
    )
    src.write_parquet(out_z, compression="zstd")
    src.write_parquet(out_s, compression="snappy")

    if not os.listdir(out_z):  # empty input wrote no shards
        return ray.data.from_arrow(
            pa.table(
                {
                    "codec": pa.array([], pa.string()),
                    "s_nationkey": pa.array([], pa.int64()),
                    "n_suppliers": pa.array([], pa.int64()),
                    "acctbal_cents": pa.array([], pa.int64()),
                }
            )
        )

    def cents_rows(batch: pa.Table) -> pa.Table:
        cents = money_cents(
            batch.column("s_acctbal").to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "s_nationkey": pc.cast(batch.column("s_nationkey"), pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    outs = []
    for codec, path in (("snappy", out_s), ("zstd", out_z)):
        rolled = (
            keyed_aggregate(
                ray.data.read_parquet(path).map_batches(
                    cents_rows, batch_format="pyarrow", zero_copy_batch=True
                ),
                "s_nationkey",
                {"n_suppliers": ("cents", "count"), "acctbal_cents": ("cents", "sum")},
            )
            .map_batches(
                lambda b, _c=codec: b.append_column(
                    "codec", pa.array([_c] * b.num_rows, pa.string())
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        )
        outs.append(rolled)
    return outs[0].union(outs[1])


CODEC_ROUNDTRIP_SQL = """
SELECT * FROM (
  SELECT 'snappy' AS codec,
         CAST(s_nationkey AS BIGINT) AS s_nationkey,
         CAST(count(*) AS BIGINT) AS n_suppliers,
         CAST(sum(CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS acctbal_cents
  FROM supplier GROUP BY 2
  UNION ALL
  SELECT 'zstd',
         CAST(s_nationkey AS BIGINT),
         CAST(count(*) AS BIGINT),
         CAST(sum(CAST(floor(s_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT)
  FROM supplier GROUP BY 2
)
ORDER BY codec, s_nationkey
"""


def quarantine_split(sf_dir: str, out_dir: str | None = None) -> "ray.data.Dataset":
    """Dead-letter routing: ONE streaming pass over events writes every
    batch's rows to two sinks — clean (value present and non-negative)
    vs quarantine (the rest) — then reads both sides back and emits a
    (side, n_rows, value_cents) audit row per sink.  The
    router-with-multi-sink shape every ingestion pipeline needs: no
    second scan to separate failures, and the read-back proves the
    split tiles the input (pinned by pytest; the oracle recomputes both
    sides from the source).

    Scale shape: the split happens inside map_batches (two content-hash
    shard writes per batch, the established custom-sink idiom); the
    audit rollups stream per side."""
    import hashlib as _hl

    import pyarrow.parquet as pq

    out = _sink_dir("quarantine", sf_dir, out_dir)
    clean_dir = os.path.join(out, "clean")
    quar_dir = os.path.join(out, "quarantine")
    os.makedirs(clean_dir, exist_ok=True)
    os.makedirs(quar_dir, exist_ok=True)

    def route(batch: pa.Table) -> pa.Table:
        val = batch.column("value")
        ok = pc.and_kleene(
            pc.is_valid(val), pc.greater_equal(val, pa.scalar(0.0))
        )
        ok = pc.fill_null(ok, False)
        mask = ok.to_numpy(zero_copy_only=False)
        written = []
        for side_dir, side_mask in ((clean_dir, mask), (quar_dir, ~mask)):
            part = batch.filter(pa.array(side_mask))
            if part.num_rows == 0:
                continue
            sink = pa.BufferOutputStream()
            pq.write_table(part, sink)
            buf = sink.getvalue().to_pybytes()
            name = _hl.md5(buf).hexdigest()
            with open(os.path.join(side_dir, f"{name}.parquet"), "wb") as f:
                f.write(buf)
            written.append(part.num_rows)
        return pa.table(
            {"n": pa.array([int(sum(written))], pa.int64())}
        )

    ray.data.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    ).map_batches(route, batch_format="pyarrow", zero_copy_batch=True).materialize()

    sides = []
    for side, path in (("clean", clean_dir), ("quarantine", quar_dir)):
        if not os.listdir(path):
            continue

        def partial(batch: pa.Table) -> pa.Table:
            cents = money_cents(
                pc.fill_null(batch.column("value"), 0.0).to_numpy(
                    zero_copy_only=False
                )
            )
            return pa.table(
                {
                    "n_rows": pa.array([batch.num_rows], pa.int64()),
                    "value_cents": pa.array([int(cents.sum())], pa.int64()),
                }
            )

        import ray.data.aggregate as agg

        rolled = (
            ray.data.read_parquet(path)
            .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
            .aggregate(
                agg.Sum("n_rows", alias_name="n_rows"),
                agg.Sum("value_cents", alias_name="value_cents"),
            )
        )
        sides.append(
            (
                side,
                int(rolled.get("n_rows") or 0),
                int(rolled.get("value_cents") or 0),
            )
        )
    return ray.data.from_arrow(
        pa.table(
            {
                "side": pa.array([s[0] for s in sides], pa.string()),
                "n_rows": pa.array([s[1] for s in sides], pa.int64()),
                "value_cents": pa.array([s[2] for s in sides], pa.int64()),
            }
        )
    )


QUARANTINE_SPLIT_SQL = """
SELECT * FROM (
  SELECT 'clean' AS side,
         CAST(count(*) AS BIGINT) AS n_rows,
         CAST(COALESCE(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)), 0)
              AS BIGINT) AS value_cents
  FROM events WHERE value IS NOT NULL AND value >= 0
  UNION ALL
  SELECT 'quarantine',
         CAST(count(*) AS BIGINT),
         CAST(COALESCE(sum(CAST(floor(COALESCE(value, 0) * 100 + 0.5)
                                AS BIGINT)), 0) AS BIGINT)
  FROM events WHERE value IS NULL OR value < 0
)
WHERE n_rows > 0
ORDER BY side
"""

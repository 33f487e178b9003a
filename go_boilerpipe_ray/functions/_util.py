"""Shared helpers for the functions package."""

from __future__ import annotations


_EMPTY_SCHEMA_FILTER_INSTALLED = False


def install_empty_block_schema_filter() -> None:
    """Drop Ray's "RefBundle with a different schema ... new schema: ."
    warning for SCHEMALESS EMPTY bundles only.  Still needed: an
    ``exchange`` task whose fixed pk range holds no row yields zero
    batches (its UDF skips an empty block, as map_groups' group wrapper
    does — ray/data/grouped_data.py:_apply_udf_to_groups), so Ray emits
    an empty RefBundle with no schema and the executor warns on the
    mismatch.  Downstream operators skip empty bundles, so the message
    is benign noise at small sf (empty pk ranges); a REAL schema
    divergence between two non-empty bundles prints a non-empty new
    schema and still warns.  Known trade-offs, accepted: (a) a
    hypothetical non-empty ZERO-COLUMN bundle renders the same empty
    schema string and would be silenced too (no operator here emits
    one); (b) the match is pinned to Ray 2.49's message wording — if a
    Ray upgrade rewords it, the filter becomes a no-op and the benign
    noise returns (fail-open, never hides new warnings).  Idempotent;
    called by bench.py and tools/selfcheck.py."""
    global _EMPTY_SCHEMA_FILTER_INSTALLED
    if _EMPTY_SCHEMA_FILTER_INSTALLED:
        return
    import logging

    class _EmptyNewSchemaFilter(logging.Filter):
        def filter(self, record: logging.LogRecord) -> bool:
            msg = record.getMessage()
            return not (
                "RefBundle with a different schema" in msg
                and "new schema: . This may" in msg
            )

    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptyNewSchemaFilter())
    _EMPTY_SCHEMA_FILTER_INSTALLED = True


def read_parquet_clean(path: str, **kwargs):
    """``ray.data.read_parquet`` that drops writer schema metadata.

    Parquet written by pandas embeds a ``b'pandas'`` metadata blob;
    pyarrow schemas carrying it are UNHASHABLE, which defeats Ray's
    block-schema dedup (``unify_schemas`` logs "Failed to hash the
    schemas ... unhashable type: 'dict'" once per read task and keeps
    every schema copy).  The read is handed the file's schema without
    its metadata (one footer read on the driver), so neither the read
    tasks' schemas nor their blocks carry it."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data

    schema = pads.dataset(path, format="parquet").schema.remove_metadata()
    if kwargs.get("columns") is not None:
        schema = pa.schema([schema.field(c) for c in kwargs["columns"]])
    return ray.data.read_parquet(path, schema=schema, **kwargs)


def cut_lineage(ds):
    """Rebuild a materialized dataset from its block refs, dropping the
    logical-plan history.

    An iterative pipeline that references its round-N output more than
    once in round N+1 doubles its logical-plan tree every round —
    ``materialize()`` pins the blocks but keeps the plan for lineage, so
    planning/serialization time grows exponentially even though rows and
    block counts stay constant (measured on a 14-round loop: 0.6 s →
    76 s per round).  Rebuilding from ``to_arrow_refs`` leaves the
    blocks in the object store (the driver only handles refs) and makes
    each round's plan O(1).  Trade-off: truncated lineage can't be
    replayed on block loss, same as any consumed materialization."""
    import ray.data

    return ray.data.from_arrow_refs(ds.to_arrow_refs())


def wide_partitions(floor: int = 64) -> int:
    """Partition count for hash-partitioned wide stages: scales with the
    cluster (2× CPUs) so a 256-node cluster isn't capped at a constant,
    with a floor that keeps per-partition group counts bounded on small
    clusters.  Result is deterministic for a given cluster size."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        cpus = 0
    return max(floor, 2 * cpus)


# Canonical alnum token pattern shared by text analysis, dedup shingling
# and the sketches (and interpolated into their SQL oracles) — one
# definition so cross-operator token semantics can never diverge.
TOKEN_PATTERN = r"[a-z0-9]+"


def md5_u64(vals) -> "np.ndarray":
    """Low 8 bytes of md5(str(int(v))), little-endian, as uint64 — the
    exact value DuckDB's ``md5_number_lower(v::VARCHAR)`` computes, used
    by every hash-keyed operator (splits, strata, shards, HLL) so the
    SQL oracles stay bit-exact.  One definition; do not re-implement."""
    import hashlib

    import numpy as np

    out = np.empty(len(vals), dtype=np.uint64)
    for i, v in enumerate(vals):
        out[i] = int.from_bytes(
            hashlib.md5(str(int(v)).encode("ascii")).digest()[8:], "little"
        )
    return out


# Rows per call of partitioned_by_key's tagging map.  Ray bundles input
# blocks smaller than this into one task (a small input is read into many
# ~1 MB blocks, and each block would otherwise be a map task of the sort
# that follows), and slices larger blocks into calls of this many rows.
TAG_BATCH_ROWS = 4096


def exchange(ds, pk_col: str, P: int, kernel):
    """THE keyed exchange: every hash shuffle of the engine runs here.

    ``pk_col`` is an int partition column in [0, P).  Rows are sorted on
    it at fixed, equal pk ranges into R = min(P, 2 × cluster CPUs) blocks
    (boundaries ``P*i//R``), and ``kernel(block)`` runs once per
    non-empty block, so each call holds every row of about P/R partition
    values and the kernel must group by its own key, never by pk.  pk is
    a uniform hash, so equal ranges are what a sampled sort would
    estimate, without its sampling tasks; every pk lands in the same
    block on every run, so the per-block work repeats.  This is
    ``groupby(pk).map_groups`` (a sort, then ``map_batches(batch_size=
    None)``) with the sampling pass and the per-pk calls dropped.  An
    empty block yields no output, as map_groups calls no UDF on one."""
    R = min(P, wide_partitions(floor=1))
    # An empty list would make Ray sample boundaries; [P] puts every row
    # in the first of two blocks.
    bounds = [P * i // R for i in range(1, R)] or [P]

    def run(block):
        if block.num_rows:
            yield kernel(block)

    # Ray names the operator after the UDF.
    run.__name__ = kernel.__name__
    return ds.sort(pk_col, boundaries=bounds).map_batches(
        run, batch_format="pyarrow", batch_size=None
    )


def _key_partition(batch, keys, P: int):
    """pk of each row of ``batch``: ``key % P`` for one int key,
    ``blake2_u63(key) % P`` for one string key.  Several key columns fold
    into one 64-bit value (base-``GRAM_BASE`` polynomial over the
    per-column values) first.  A null key hashes as 0 or ""."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    h = None
    for k in keys:
        col = batch.column(k)
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            v = blake2_u63(col.fill_null("").to_pylist())
        else:
            v = pc.cast(col, pa.int64()).fill_null(0).to_numpy(zero_copy_only=False)
        h = v if h is None else h.astype(np.uint64) * np.uint64(GRAM_BASE) + (
            v.astype(np.uint64)
        )
    return pa.array((h % P).astype("int32"), pa.int32())


def partitioned_by_key(ds, key_col: str, kernel, P: int | None = None):
    """Partition-vectorized per-key execution: the scalable replacement
    for ``groupby(key).map_groups(per_key_fn)`` when the key has
    unbounded cardinality (e.g. user_id at 10⁹ users = 10⁹ Python
    invocations and 10⁹ tiny Arrow tables).

    Appends ``pk = key % P`` for an integer key, ``blake2_u63(key) % P``
    for a string key (P = wide_partitions(), scales with the cluster),
    in calls of TAG_BATCH_ROWS rows, then runs ``exchange``: ONE
    ``kernel(block)`` call per fixed pk range — every key's rows are
    co-located, so the kernel computes all per-key results at once with
    a numpy lexsort + run-boundary sweep (see ``run_bounds``).  UDF
    calls are bounded by the cluster size instead of key cardinality.
    The kernel receives (and should ignore/drop) the ``pk`` column."""
    if P is None:
        P = wide_partitions()

    def add_pk(batch):
        return batch.append_column("pk", _key_partition(batch, [key_col], P))

    tagged = ds.map_batches(
        add_pk,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=TAG_BATCH_ROWS,
    )
    return exchange(tagged, "pk", P, kernel)


# How keyed_aggregate merges one partial aggregate into the final one.
_MERGE_OP = {"sum": "sum", "count": "sum", "min": "min", "max": "max"}


def keyed_aggregate(ds, keys, aggs: dict):
    """Grouped aggregate through the keyed exchange: the replacement for
    ``Dataset.groupby(keys).<agg>``, which runs a second, sampled sort.

    ``keys`` is a column name or a list of them; ``aggs`` maps each
    output column to ``(column, op)`` with op one of sum, count (rows of
    the group), min or max; an int64 sum wraps on overflow, as Arrow's
    grouped sum does.  Each call of TAG_BATCH_ROWS rows
    pre-combines with one Arrow ``group_by`` and tags pk as
    ``partitioned_by_key`` does (several key columns hash as one value);
    ``exchange`` then merges the partials with one Arrow ``group_by`` per
    block.  Output columns are ``keys`` then the ``aggs`` names, in no
    particular row order.  An empty input gives a dataset with no
    blocks, so its ``to_pandas()`` has no columns (see
    ``ensure_columns``)."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    names = list(aggs)
    P = wide_partitions()

    def combine(batch, specs):
        out = batch.group_by(keys, use_threads=False).aggregate(specs)
        return out.rename_columns(keys + names)

    partial_specs = [
        ([], "count_all") if op == "count" else (col, op)
        for col, op in aggs.values()
    ]
    final_specs = [(n, _MERGE_OP[op]) for n, (_, op) in zip(names, aggs.values())]

    def pre_combine(batch):
        part = combine(batch, partial_specs)
        return part.append_column("pk", _key_partition(part, keys, P))

    def merge_partials(block):
        return combine(block, final_specs)

    tagged = ds.map_batches(
        pre_combine,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=TAG_BATCH_ROWS,
    )
    return exchange(tagged, "pk", P, merge_partials)


def batch_distinct_int64(column: str):
    """Per-batch distinct int64 values of ``column`` — the standard
    build-side pre-dedup before a keyed shuffle (shrinks wire volume
    roughly rows/distinct× per block).  Used by customers_without_events'
    shuffle anti arm."""
    import numpy as np
    import pyarrow as pa

    def fn(batch: "pa.Table") -> "pa.Table":
        u = np.unique(batch.column(column).to_numpy(zero_copy_only=False))
        return pa.table({column: pa.array(u, pa.int64())})

    return fn


def blake2_u63(strs) -> "np.ndarray":
    """blake2b-8 (>>1, non-negative int64) of each UTF-8 string — the
    stable cross-process hash for partitioning STRING keys (Python's
    builtin ``hash`` is per-process salted and cannot key a shuffle;
    this matches the convention dedup's shingle hashing uses).  Python
    loop by necessity, but it runs in a narrow pre-shuffle stage over
    the key column only."""
    import hashlib

    import numpy as np

    out = np.empty(len(strs), dtype=np.int64)
    for i, s in enumerate(strs):
        out[i] = (
            int.from_bytes(
                hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(),
                "big",
            )
            >> 1
        )
    return out


def run_bounds(sorted_key) -> "np.ndarray":
    """Boundaries of equal-key runs in an already-sorted array: returns
    indices b with len = #runs+1 so run i spans [b[i], b[i+1]).  The
    companion sweep primitive for partitioned_by_key kernels."""
    import numpy as np

    if len(sorted_key) == 0:
        return np.zeros(1, dtype=np.int64)
    return np.flatnonzero(
        np.r_[True, sorted_key[1:] != sorted_key[:-1], True]
    ).astype(np.int64)


def _ranges(first, lens) -> "np.ndarray":
    """Concatenated ``first[r] + arange(lens[r])`` for every r, no loop."""
    import numpy as np

    offsets = np.cumsum(lens) - lens
    return np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(
        first - offsets, lens
    )


def run_pairs(starts, ends) -> "tuple[np.ndarray, np.ndarray]":
    """Global row indices (i, j) of every pair i < j inside each run
    [starts[r], ends[r]) — the within-run pair expansion every
    candidate-pair and graph kernel shares.  Pairs come run by run in
    ``np.triu_indices(ends[r] - starts[r], 1)`` order, built with
    repeat/cumsum instead of a Python loop over runs.  Runs of fewer
    than two rows emit nothing; a caller that skips runs passes
    masked ``starts``/``ends``."""
    import numpy as np

    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    heads = np.maximum(ends - starts - 1, 0)  # rows with a later partner
    i_rows = _ranges(starts, heads)
    fan = np.repeat(ends, heads) - i_rows - 1
    return np.repeat(i_rows, fan), _ranges(i_rows + 1, fan)


def money_cents(values) -> "np.ndarray":
    """floor(x*100 + 0.5) as int64 — THE fixed-point money/value rule every
    pricing operator and its DuckDB oracle share (floor+0.5 agrees across
    numpy and DuckDB where round() half-modes differ).  One definition; do
    not re-implement inline."""
    import numpy as np

    return np.floor(np.asarray(values, dtype=np.float64) * 100 + 0.5).astype(
        np.int64
    )


def quantile_disc_pick(values, cum_counts, permille: int) -> int:
    """THE discrete-quantile pick every exact-percentile operator and its
    DuckDB oracle share: quantile_disc's 1-based ceil(q*n) rule over a
    sorted (value, cumulative count) run-length table.  One definition;
    do not re-implement inline (drifted guards change which element a
    query pins and silently break oracle parity)."""
    import numpy as np

    n = int(cum_counts[-1]) if len(cum_counts) else 0
    if n == 0:
        raise ValueError("quantile over an empty distribution")
    idx = int(np.ceil((permille / 1000.0) * n))
    pos = int(np.searchsorted(cum_counts, max(idx, 1)))
    return int(values[min(pos, len(values) - 1)])


GRAM_BASE = 1099511628211  # FNV-1a 64-bit prime (uint64 wraparound base)

import re as _re

_TOKEN_RE_C = _re.compile(TOKEN_PATTERN)


def batch_window_hashes(batch, k: int):
    """Vectorized K-token-window gram hashing for a whole Arrow batch of
    (doc_id, text) rows — the shared emitter behind the exact-substring
    dup family, n-gram shingling and contamination probes.

    Tokens hash ONCE per distinct token (blake2_u63, process-stable);
    window grams are a base-B polynomial over the token hashes computed
    with one sliding-window multiply-add over the batch's concatenated
    token stream (uint64 wraparound; >>1 keeps grams in the
    non-negative int64 domain, disjoint from negative per-doc
    sentinels).  Windows straddling a doc boundary are masked by index
    arithmetic.  Python work is O(docs + tokens) — tokenize + token-id
    lookup — never O(windows).  Hash values are grouping-only: any
    consistent ~injective 63-bit function works wherever this is used
    (the SQL oracles group/join on STRING grams; collision odds stay
    ~n²/2⁶³).

    Returns (doc_ids, n_tokens_per_doc, gram, doc_index, pos) where the
    last three are per-valid-window arrays and doc_index indexes into
    doc_ids/n_tokens_per_doc."""
    import numpy as np

    tok_re = _TOKEN_RE_C
    texts = batch.column("text").to_pylist()
    doc_ids = np.asarray(batch.column("doc_id").to_pylist(), dtype=np.int64)
    tok_lists = [tok_re.findall(t.lower()) for t in texts]
    lens = np.fromiter((len(ts) for ts in tok_lists), np.int64, len(tok_lists))
    flat_toks = [t for ts in tok_lists for t in ts]
    if flat_toks:
        uniq = list(dict.fromkeys(flat_toks))
        hmap = dict(zip(uniq, blake2_u63(uniq).astype(np.uint64)))
        flat = np.fromiter(
            (hmap[t] for t in flat_toks), np.uint64, len(flat_toks)
        )
    else:
        flat = np.empty(0, np.uint64)
    n = flat.size
    if n < k:
        e = np.empty(0, np.int64)
        return doc_ids, lens, e, e, e
    with np.errstate(over="ignore"):  # uint64 wraparound is the hash
        pows = np.ones(k, np.uint64)
        for j in range(1, k):
            pows[j] = pows[j - 1] * np.uint64(GRAM_BASE)
        wins = np.lib.stride_tricks.sliding_window_view(flat, k)
        H = (wins * pows).sum(axis=1, dtype=np.uint64) >> np.uint64(1)
    starts = np.concatenate(([0], np.cumsum(lens)))
    gidx = np.arange(n - k + 1)
    doc_of = np.searchsorted(starts, gidx, side="right") - 1
    valid = gidx + k <= starts[doc_of + 1]
    gdoc = doc_of[valid]
    gpos = (gidx[valid] - starts[gdoc]).astype(np.int64)
    gram = H[valid].astype(np.int64)
    return doc_ids, lens, gram, gdoc.astype(np.int64), gpos


def batch_distinct_window_hashes(batch, k: int):
    """batch_window_hashes reduced to per-doc DISTINCT gram sets:
    returns (doc_ids, n_tokens_per_doc, sh_doc_index, sh_gram) with one
    row per distinct (doc, gram) pair — one lexsort + run-boundary
    sweep, no per-doc Python."""
    import numpy as np

    doc_ids, lens, gram, gdoc, _ = batch_window_hashes(batch, k)
    if not gram.size:
        e = np.empty(0, np.int64)
        return doc_ids, lens, e, e
    order = np.lexsort((gram, gdoc))
    g2, d2 = gram[order], gdoc[order]
    first = np.concatenate(
        ([True], (np.diff(d2) != 0) | (np.diff(g2) != 0))
    )
    return doc_ids, lens, d2[first], g2[first]


def ensure_columns(df, columns):
    """Post-aggregation safety for the columnless empty frame: an
    ``exchange`` over EMPTY input yields no blocks, so the
    ``to_pandas()`` of a ``keyed_aggregate`` or ``partitioned_by_key``
    result has no columns at all and any column access raises KeyError.
    Returns ``df`` untouched when the columns exist, else an empty frame
    with exactly ``columns``.  One definition — every bounded to_pandas
    rollup that then selects columns should go through this."""
    import pandas as pd

    if all(c in df.columns for c in columns):
        return df
    return pd.DataFrame({c: pd.Series(dtype=object) for c in columns})

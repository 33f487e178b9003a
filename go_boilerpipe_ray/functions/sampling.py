"""Deterministic sampling / split assignment for training corpora.

The selector is a pure function of the row key (md5 of the decimal doc id,
matching DuckDB's ``md5_number_lower``), so splits are reproducible across
runs, machines and cluster sizes, and need no shuffle, no global count and
no stored split table: at 100 TB every worker decides membership locally
from the key alone.  This is the standard "salted hash split" used to hold
out eval data from a training corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ._util import (
    ensure_columns,
    keyed_aggregate,
    md5_u64,
    partitioned_by_key,
    read_parquet_clean,
    run_bounds,
)

# (name, permille upper bound): train = [0, 980), valid = [980, 990),
# test = [990, 1000).  Mirrored exactly by SAMPLE_SPLIT_SQL.
_SPLIT_BOUNDS = (("train", 980), ("valid", 990), ("test", 1000))


def _key_permille(ids: np.ndarray) -> np.ndarray:
    return (md5_u64(ids) % 1000).astype(np.int64)


def _split_names(keys: np.ndarray) -> np.ndarray:
    """Map key values to split names via the shared permille bounds —
    THE split rule (one definition; _split_batch and cluster_aware_split
    both use it so the bounds can never drift apart)."""
    pm = _key_permille(keys)
    names = np.empty(len(keys), dtype=object)
    lo = 0
    for name, hi in _SPLIT_BOUNDS:
        names[(pm >= lo) & (pm < hi)] = name
        lo = hi
    return names


def _rank_within(key: np.ndarray, *by: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row order that sorts by (key, *by), and each sorted row's
    0-based rank among the rows of its key."""
    order = np.lexsort((*reversed(by), key))
    b = run_bounds(key[order])
    return order, np.arange(len(order)) - np.repeat(b[:-1], np.diff(b))


def _keep_smallest_hash(tbl: pa.Table, n: "int | dict[str, int]") -> pa.Table:
    """Keep the n rows of each lang with the smallest (key-hash, doc_id)
    — the shared deterministic per-stratum truncation used by
    stratified_sample, rebalance_mix and group_sample_k (one tie-break
    rule, one hash dtype treatment).  ``n`` is one count for every lang
    or a count per lang (a lang it lacks keeps none).  It is its own
    combiner: truncating truncated chunks equals truncating the whole,
    so it runs per batch before the keyed exchange and per block
    after it."""
    lang = np.asarray(tbl.column("lang").to_pylist())
    h = tbl.column("h").to_numpy(zero_copy_only=False).astype(np.uint64)
    ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    order, pos = _rank_within(lang, h, ids)
    if isinstance(n, dict):
        langs, inv = np.unique(lang[order], return_inverse=True)
        n = np.array([n.get(x, 0) for x in langs], np.int64)[inv]
    return tbl.take(pa.array(order[pos < n], pa.int64()))


def _split_batch(batch: pa.Table) -> pa.Table:
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    names = _split_names(ids)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "split": pa.array(list(names), pa.string()),
        }
    )


def sample_split(sf_dir: str) -> "ray.data.Dataset":
    """Assign every document a deterministic train/valid/test split."""
    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return ds.map_batches(
        _split_batch, batch_format="pyarrow", zero_copy_batch=True
    )


SAMPLE_SPLIT_SQL = """
SELECT doc_id,
       CASE WHEN md5_number_lower(doc_id::VARCHAR) % 1000 < 980 THEN 'train'
            WHEN md5_number_lower(doc_id::VARCHAR) % 1000 < 990 THEN 'valid'
            ELSE 'test' END AS split
FROM documents
"""


STRATIFIED_K = 20


def stratified_sample(sf_dir: str, k: int = STRATIFIED_K) -> "ray.data.Dataset":
    """Exactly-k-per-stratum sample: within each language, keep the k
    documents with the smallest key hash (deterministic — no RNG state,
    reproducible on any cluster size).  Each batch keeps its own k
    smallest per stratum, then one keyed exchange on the stratum key
    runs the same cut once per block, so the shuffle moves ≤ k rows per
    stratum per batch however large a stratum grows."""
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def add_hash(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        h = md5_u64(ids)
        return _keep_smallest_hash(
            batch.append_column("h", pa.array(h.astype(np.int64), pa.int64())), k
        )

    def topk(part: pa.Table) -> pa.Table:
        return _keep_smallest_hash(part, k).select(["doc_id", "lang"])

    return partitioned_by_key(
        ds.map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True),
        "lang",
        topk,
    )


STRATIFIED_SAMPLE_SQL = f"""
SELECT doc_id, lang FROM documents
QUALIFY row_number() OVER (
    PARTITION BY lang ORDER BY md5_number_lower(doc_id::VARCHAR), doc_id
) <= {STRATIFIED_K}
"""


DOMAIN_CAP_N = 10


def lowest_n_per_source(tbl: pa.Table, n: int) -> pa.Table:
    """Keep the n lowest doc_ids per source — domain_cap's combiner AND
    finisher (it is a homomorphism: capping capped chunks equals capping
    the whole, pinned by a hypothesis law test)."""
    ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    src = np.asarray(tbl.column("source").to_pylist())
    order, pos = _rank_within(src, ids)
    return tbl.take(pa.array(np.sort(order[pos < n]), pa.int64()))


def domain_cap(sf_dir: str, n: int = DOMAIN_CAP_N) -> "ray.data.Dataset":
    """Per-domain document cap: keep at most ``n`` documents (lowest
    doc_id) per source — the Common-Crawl-style curation rule that stops
    one hot domain from dominating a training corpus.

    Combiner discipline: each batch is pre-truncated to its own lowest-n
    per source BEFORE the shuffle, so the wide step moves at most
    n x (#sources touched per batch) rows even when one domain holds a
    billion pages; the per-group finisher re-applies the same rule.  A
    hot domain therefore never concentrates more than n rows per input
    block on one reducer."""
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source"]
    )

    def cap(tbl: pa.Table) -> pa.Table:
        return lowest_n_per_source(tbl, n)

    def cap_part(part: pa.Table) -> pa.Table:
        # lowest_n_per_source already caps every source in its input
        # independently, so the per-block finisher IS the batch
        # combiner — one call per exchange block instead of one Python
        # call per domain.
        return cap(part.select(["doc_id", "source"]))

    return partitioned_by_key(
        ds.map_batches(cap, batch_format="pyarrow", zero_copy_batch=True),
        "source",
        cap_part,
    )


DOMAIN_CAP_SQL = f"""
SELECT doc_id, source FROM documents
QUALIFY row_number() OVER (PARTITION BY source ORDER BY doc_id) <= {DOMAIN_CAP_N}
"""


N_SHARDS = 8


def shard_shuffle(sf_dir: str, n_shards: int = N_SHARDS) -> "ray.data.Dataset":
    """Deterministic training-data shuffle: every document goes to shard
    ``md5(doc_id) % n_shards`` at position ``rank by (hash, doc_id)``
    within the shard — the standard "write shuffled shard files" step
    before training.  Reproducible on any cluster size (pure function of
    the key, no RNG state); one shuffle on the shard key, the in-shard
    ordering is a local lexsort.  At 100 TB pick n_shards >> cluster
    cores and write one file per shard (the manifest sink pattern)."""
    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def add_shard(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        h = md5_u64(ids)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "shard": pa.array((h % n_shards).astype(np.int64), pa.int64()),
                "h": pa.array(h.astype(np.int64), pa.int64()),
            }
        )

    def rank_within(part: pa.Table) -> pa.Table:
        order, pos = _rank_within(
            part.column("shard").to_numpy(zero_copy_only=False),
            part.column("h").to_numpy(zero_copy_only=False).astype(np.uint64),
            part.column("doc_id").to_numpy(zero_copy_only=False),
        )
        return part.take(pa.array(order, pa.int64())).select(
            ["doc_id", "shard"]
        ).append_column("shard_pos", pa.array(pos, pa.int64()))

    return partitioned_by_key(
        ds.map_batches(add_shard, batch_format="pyarrow", zero_copy_batch=True),
        "shard",
        rank_within,
    )


SHARD_SHUFFLE_SQL = f"""
WITH h AS (SELECT doc_id, md5_number_lower(doc_id::VARCHAR) AS h FROM documents)
SELECT doc_id,
       CAST(h % {N_SHARDS} AS BIGINT) AS shard,
       row_number() OVER (PARTITION BY h % {N_SHARDS} ORDER BY h, doc_id) - 1
           AS shard_pos
FROM h
"""


def weighted_sample(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic weighted Bernoulli sampling: keep a document with
    probability proportional to its length (capped at 1) by comparing
    the key hash's permille against the weight — the "upsample long /
    high-quality documents" curation step, reproducible on any cluster
    because membership is a pure function of (doc_id, n_chars).

    Shuffle-free narrow stage (like sample_split); the weight law
    p_permille = min(1000, n_chars * 1000 / 200) admits docs >= 200
    chars always and shorter ones proportionally."""
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def pick(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n_chars = batch.column("n_chars").to_numpy(zero_copy_only=False)
        pm = (md5_u64(ids) % 1000).astype(np.int64)
        p = np.minimum(1000, n_chars * 1000 // 200)
        return batch.filter(pa.array(pm < p))

    return ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)


WEIGHTED_SAMPLE_SQL = """
SELECT doc_id, n_chars FROM documents
WHERE md5_number_lower(doc_id::VARCHAR) % 1000
      < least(1000, n_chars * 1000 // 200)
"""


def cluster_aware_split(sf_dir: str) -> "ray.data.Dataset":
    """Leakage-safe train/valid/test assignment over the dup corpus:
    near-duplicate CLUSTER members always land in the same split (the
    classic failure this prevents: a test document whose near-copy sits
    in train).  Composition of two existing distributed pieces — the
    simhash connected components give each doc its cluster label, a
    repartition LEFT join attaches labels to the full corpus (singleton
    docs keep their own id as the label; the join is shuffle-based, so
    a high-dup corpus where the cluster table rivals the corpus never
    lands in one heap) — then the split is the standard salted-hash
    rule applied to the CLUSTER label instead of the doc id."""
    from .dedup import dedup_components, dup_corpus_ids
    from .relational import repartition_join

    corpus_ids = dup_corpus_ids(sf_dir)  # never touches the text column
    comp = dedup_components(sf_dir)

    joined = repartition_join(
        corpus_ids,
        comp,
        "doc_id",
        "doc_id",
        [("doc_id", pa.int64())],
        [("component", pa.int64())],
        how="left",
    )

    def assign(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        # Unmatched left rows (singleton docs) carry a NULL component —
        # fill with the doc's own id BEFORE leaving Arrow, so the numpy
        # view never goes through the NaN/float64 null representation.
        comp_arr = batch.column("component")
        null_mask = pc.is_null(comp_arr).to_numpy(zero_copy_only=False)
        comp_filled = comp_arr.fill_null(0).to_numpy(zero_copy_only=False).copy()
        comp_filled[null_mask] = ids[null_mask]
        names = _split_names(comp_filled)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "component": pa.array(comp_filled, pa.int64()),
                "split": pa.array(list(names), pa.string()),
            }
        )

    return joined.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)


def _cluster_split_sql() -> str:
    from .dedup import DEDUP_COMPONENTS_SQL, DUP_CORPUS_IDS_SQL

    case = (
        "CASE WHEN md5_number_lower(COALESCE(k.component, c.doc_id)::VARCHAR)"
        " % 1000 < 980 THEN 'train' "
        "WHEN md5_number_lower(COALESCE(k.component, c.doc_id)::VARCHAR)"
        " % 1000 < 990 THEN 'valid' ELSE 'test' END"
    )
    return f"""
WITH corpus AS ({DUP_CORPUS_IDS_SQL}),
comp AS ({DEDUP_COMPONENTS_SQL})
SELECT c.doc_id,
       CAST(COALESCE(k.component, c.doc_id) AS BIGINT) AS component,
       {case} AS split
FROM corpus c LEFT JOIN comp k ON k.doc_id = c.doc_id
"""


CLUSTER_SPLIT_SQL = _cluster_split_sql()


# Uniform target mix over the five corpus languages, in permille.
REBALANCE_TARGETS = (("de", 200), ("en", 200), ("es", 200), ("fr", 200), ("zh", 200))


def rebalance_mix(sf_dir: str) -> "ray.data.Dataset":
    """Resample the corpus to a TARGET language distribution — the
    data-mixing step that turns an organic crawl mix into the
    curriculum a training run wants.  Exact and deterministic: a tiny
    per-language count pass fixes the largest achievable corpus that
    honors the target proportions (base = min over langs of
    count·1000 // target_pm, all integer), each language keeps its
    base·target_pm // 1000 documents with the SMALLEST key hash (the
    same salted-hash ranking every sampler here uses — reproducible on
    any cluster size), and the per-group truncation runs where the
    groups live.  Languages absent from the target table are dropped,
    like the oracle's inner join."""
    targets = dict(REBALANCE_TARGETS)

    counts = keyed_aggregate(
        read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["lang"]),
        "lang",
        {"n": ("lang", "count")},
    ).to_pandas()  # O(#languages)
    present = dict(zip(counts["lang"], counts["n"]))
    # A target language absent from the corpus caps the achievable size
    # at ZERO — emitting the other languages anyway would silently ship
    # a different mix than the declared target (mirrored in the SQL's
    # LEFT JOIN + COALESCE 0).
    base = min(
        (int(present.get(lang, 0)) * 1000) // pm for lang, pm in targets.items()
    )
    keep_n = {lang: (base * pm) // 1000 for lang, pm in targets.items()}

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def add_hash(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch.column("lang"),
            value_set=pa.array(list(targets), pa.string()),
        )
        batch = batch.filter(keep)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return _keep_smallest_hash(
            batch.append_column(
                "h", pa.array(md5_u64(ids).astype(np.int64), pa.int64())
            ),
            keep_n,
        )

    def truncate(part: pa.Table) -> pa.Table:
        return _keep_smallest_hash(part, keep_n).select(["doc_id", "lang"])

    return partitioned_by_key(
        ds.map_batches(add_hash, batch_format="pyarrow", zero_copy_batch=True),
        "lang",
        truncate,
    )


def _rebalance_sql() -> str:
    values = ", ".join(f"('{lang}', {pm})" for lang, pm in REBALANCE_TARGETS)
    return f"""
WITH c AS (SELECT lang, CAST(count(*) AS BIGINT) AS cnt FROM documents GROUP BY 1),
t(lang, pm) AS (VALUES {values}),
base AS (SELECT CAST(min(COALESCE(c.cnt, 0) * 1000 // t.pm) AS BIGINT) AS b
         FROM t LEFT JOIN c USING (lang)),
keepn AS (SELECT t.lang, CAST(base.b * t.pm // 1000 AS BIGINT) AS n
          FROM t CROSS JOIN base)
SELECT d.doc_id, d.lang
FROM documents d JOIN keepn k USING (lang)
QUALIFY row_number() OVER (
    PARTITION BY d.lang
    ORDER BY md5_number_lower(d.doc_id::VARCHAR), d.doc_id
) <= k.n
"""


REBALANCE_MIX_SQL = _rebalance_sql()


# -- deterministic k-per-group sample ---------------------------------------------


def group_sample_k(sf_dir: str, k: int = 3) -> "pa.Table":
    """Deterministic k-per-group exemplar sample: for every language,
    the k documents with the smallest md5(doc_id) — the "show me k
    examples per stratum" debugging/eval pick that is stable across
    runs, shards and cluster sizes (pure key hash, no RNG state).

    Scale shape: per-batch local k-min per group (_keep_smallest_hash),
    then the same cut per block of the keyed exchange — candidate
    volume is ≤ groups × blocks × k, never the corpus."""
    _MASK = (1 << 50) - 1
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"]
    )

    def local_kmin(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        hv = (md5_u64(ids.tolist()) & np.uint64(_MASK)).astype(np.int64)
        return _keep_smallest_hash(batch.append_column("h", pa.array(hv)), k)

    def merge(part: pa.Table) -> pa.Table:
        return _keep_smallest_hash(part, k).select(["lang", "doc_id"])

    df = ensure_columns(
        partitioned_by_key(
            ds.map_batches(local_kmin, batch_format="pyarrow", zero_copy_batch=True),
            "lang",
            merge,
        ).to_pandas(),  # bounded: k rows per lang
        ["lang", "doc_id"],
    )
    return pa.Table.from_pandas(
        df.sort_values(["lang", "doc_id"]).reset_index(drop=True),
        preserve_index=False,
    )


GROUP_SAMPLE_K_SQL = """
SELECT lang, doc_id FROM (
  SELECT lang, doc_id,
         row_number() OVER (
           PARTITION BY lang
           ORDER BY md5_number_lower(doc_id::VARCHAR) & 1125899906842623,
                    doc_id
         ) AS rn
  FROM documents
) WHERE rn <= 3 ORDER BY lang, doc_id
"""


PRIORITY_K = 400


def priority_sample_k(sf_dir: str, k: int = PRIORITY_K) -> pa.Table:
    """Fixed-size weighted sample WITHOUT replacement (priority / bottom-k
    sampling): each document gets an integer priority hash(id) // weight
    (weight = n_chars, so longer docs get smaller priorities and higher
    inclusion odds) and the global k smallest priorities win.  The
    fixed-size complement of weighted_sample's Bernoulli design —
    deterministic on any cluster, mergeable (bottom-k of bottom-k's is
    the global bottom-k), the primitive behind distributed weighted
    reservoirs.  (True A-ES priorities are u^(1/w); the integer-division
    law keeps the oracle bit-exact while preserving the monotone
    weight→inclusion property.)

    Scale shape: per-block partial select_k inside map_batches, so the
    driver merge sees k × #blocks fixed-width rows, never the corpus;
    no shuffle at all."""
    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        w = np.maximum(
            batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64), 1
        )
        prio = (md5_u64(ids) >> np.uint64(1)).astype(np.int64) // w
        t = pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars": pc.cast(batch.column("n_chars"), pa.int64()),
                "prio": pa.array(prio, pa.int64()),
            }
        )
        if t.num_rows <= k:
            return t
        idx = pc.select_k_unstable(
            t, k, sort_keys=[("prio", "ascending"), ("doc_id", "ascending")]
        )
        return t.take(idx)

    merged = ds.map_batches(
        partial,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,  # per BLOCK, not per 1024-row batch — otherwise
        # the driver merge receives ~k/1024 of the corpus, not k×#blocks
    ).to_pandas()  # bounded: k rows per input block
    if merged.empty:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_chars": pa.array([], pa.int64()),
                "prio": pa.array([], pa.int64()),
            }
        )
    merged = merged.sort_values(["prio", "doc_id"]).head(k)
    return pa.table(
        {
            "doc_id": pa.array(merged["doc_id"].to_numpy(), pa.int64()),
            "n_chars": pa.array(merged["n_chars"].to_numpy(), pa.int64()),
            "prio": pa.array(merged["prio"].to_numpy(), pa.int64()),
        }
    )


PRIORITY_SAMPLE_K_SQL = f"""
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(n_chars AS BIGINT) AS n_chars,
       CAST(CAST(md5_number_lower(doc_id::VARCHAR) >> 1 AS BIGINT)
            // greatest(n_chars, 1) AS BIGINT) AS prio
FROM documents
ORDER BY prio, doc_id
LIMIT {PRIORITY_K}
"""

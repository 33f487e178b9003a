"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Scale design notes:
- Exact dedup never shuffles full text: a content hash is computed in a
  narrow map_batches, then a ``keyed_aggregate`` min(doc_id) per hash
  runs on (hash, doc_id) pairs only.
- N-gram Jaccard uses the inverted-index pattern, partition-vectorized:
  distinct (doc, shingle-hash, n_sh) int rows → hash-partitioned pair
  emission → hash-partitioned pair counting + threshold filter.  The
  Jaccard denominators travel in the rows themselves — no size broadcast
  or driver materialization at any corpus size.  At 100 TB you would
  additionally cap shingle document-frequency (drop stop-shingles) and
  salt hot shingles; the cap is exposed as ``max_df`` (None = exact,
  used for the oracle-checked query).
- MinHash/LSH buckets by band signature: only same-bucket candidates are
  verified (sub-quadratic), and the verify step is a distributed
  repartition join of candidate pairs against the signature dataset —
  the signature table never collapses onto the driver.

The dedup *inputs* are synthesized from the driver's documents table by a
deterministic, SQL-expressible expansion (originals ∪ exact copies ∪
suffix-perturbed copies) so the operators are exercised on corpora that
actually contain duplicates.
"""

from __future__ import annotations

import functools
import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ._util import (
    cut_lineage,
    exchange,
    keyed_aggregate,
    partitioned_by_key,
    run_bounds,
    run_pairs,
    wide_partitions,
)

from ._util import TOKEN_PATTERN

_TOKEN_RE = re.compile(TOKEN_PATTERN)

_MD5_U64_CACHE: dict[str, int] = {}


def _md5_u64(token: str) -> int:
    """64-bit token hash matching DuckDB's ``md5_number_lower`` (the low
    half of the md5 HUGEINT = bytes [8:16] little-endian) — the MinHash,
    SimHash and rolling-fingerprint oracles recompute it in SQL.
    Memoized: natural-language vocabularies are small relative to token
    counts."""
    v = _MD5_U64_CACHE.get(token)
    if v is None:
        if len(_MD5_U64_CACHE) > 1 << 17:
            _MD5_U64_CACHE.clear()
        _MD5_U64_CACHE[token] = v = int.from_bytes(
            hashlib.md5(token.encode("utf-8")).digest()[8:], "little"
        )
    return v


COPY_OFFSET = 1_000_000
PERTURB_OFFSET = 2_000_000
PERTURB_SUFFIX = " extra token tail"


def dup_corpus(sf_dir: str) -> "ray.data.Dataset":
    """documents ∪ exact copies (id+1e6) ∪ perturbed copies (id+2e6).

    Deterministic and mirrored exactly by DUP_CORPUS_SQL, so dedup
    operators run against a corpus with known duplicate structure.
    """
    from ._util import read_parquet_clean

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def expand(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        texts = batch.column("text")
        out_ids = pa.concat_arrays(
            [
                ids.combine_chunks(),
                pc.add(ids, COPY_OFFSET).combine_chunks(),
                pc.add(ids, PERTURB_OFFSET).combine_chunks(),
            ]
        )
        perturbed = pc.binary_join_element_wise(
            texts, pa.array([PERTURB_SUFFIX] * len(texts)), ""
        )
        out_texts = pa.concat_arrays(
            [
                texts.combine_chunks(),
                texts.combine_chunks(),
                perturbed.combine_chunks(),
            ]
        )
        return pa.table({"doc_id": out_ids, "text": out_texts})

    return ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True)


DUP_CORPUS_SQL = f"""
SELECT doc_id, text FROM documents
UNION ALL SELECT doc_id + {COPY_OFFSET}, text FROM documents
UNION ALL SELECT doc_id + {PERTURB_OFFSET}, text || '{PERTURB_SUFFIX}' FROM documents
"""


def dup_corpus_ids(sf_dir: str) -> "ray.data.Dataset":
    """The dup corpus's doc_id column alone — ids are documents ids plus
    the two copy offsets, derivable WITHOUT reading text (consumers that
    only key on ids, like cluster_aware_split, skip the whole text-column
    construction cost of dup_corpus)."""
    from ._util import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def expand_ids(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        return pa.table(
            {
                "doc_id": pa.concat_arrays(
                    [
                        ids.combine_chunks(),
                        pc.add(ids, COPY_OFFSET).combine_chunks(),
                        pc.add(ids, PERTURB_OFFSET).combine_chunks(),
                    ]
                )
            }
        )

    return ds.map_batches(expand_ids, batch_format="pyarrow", zero_copy_batch=True)


DUP_CORPUS_IDS_SQL = f"""
SELECT doc_id FROM documents
UNION ALL SELECT doc_id + {COPY_OFFSET} FROM documents
UNION ALL SELECT doc_id + {PERTURB_OFFSET} FROM documents
"""


# -- exact dedup ------------------------------------------------------------


def _hash_batch(batch: pa.Table) -> pa.Table:
    hashes = [
        hashlib.sha1(t.encode("utf-8")).hexdigest()
        for t in batch.column("text").to_pylist()
    ]
    return pa.table(
        {"text_hash": pa.array(hashes, pa.string()), "doc_id": batch.column("doc_id")}
    )


def exact_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Keep the lowest doc_id per identical text: hash in a narrow stage,
    shuffle only (hash, id) pairs."""
    ds = dup_corpus(sf_dir).map_batches(
        _hash_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    kept = keyed_aggregate(ds, "text_hash", {"doc_id": ("doc_id", "min")})
    return kept.select_columns(["doc_id"])


EXACT_DEDUP_SQL = f"""
WITH corpus AS ({DUP_CORPUS_SQL})
SELECT min(doc_id) AS doc_id FROM corpus GROUP BY text
"""


# -- n-gram Jaccard (exact, inverted-index pattern) --------------------------


def _shingle_batch(batch: pa.Table, k: int) -> pa.Table:
    """Distinct (doc_id, shingle-hash, n_sh) rows.  Shingles are hashed to
    int64 so the shuffle moves 8-byte keys, never strings; the SQL oracle
    joins on the string shingle — identical pairs absent 64-bit
    collisions.  Each row also carries the document's distinct-shingle
    count ``n_sh`` so the Jaccard denominator travels WITH the data —
    downstream stages never need a size lookup table (no broadcast, no
    join, no driver materialization at any corpus size)."""
    from ._util import batch_distinct_window_hashes

    doc_ids, _, sh_doc, sh = batch_distinct_window_hashes(batch, k)
    n_per_doc = np.bincount(sh_doc, minlength=doc_ids.size).astype(np.int64)
    return pa.table(
        {
            "doc_id": pa.array(doc_ids[sh_doc], pa.int64()),
            "shingle": pa.array(sh, pa.int64()),
            "n_sh": pa.array(n_per_doc[sh_doc], pa.int64()),
        }
    )


def ngram_jaccard_pairs(
    sf_dir: str, k: int = 3, threshold: float = 0.8, max_df: int | None = None
) -> "ray.data.Dataset":
    """All pairs with shingle-set Jaccard >= threshold (exact when
    max_df=None).

    Inverted-index pattern, partition-vectorized: instead of one
    ``map_groups`` call per shingle (tens of thousands of tiny Python
    invocations) and a row-level groupby over the candidate pairs, both
    wide steps shuffle on a *hash partition* key (a bounded number of
    groups) and run vectorized numpy kernels inside each partition:

      shingles → exchange on shingle % P   → per-block pair emission
      pairs    → exchange on pair-hash % P → per-block count + filter

    The Jaccard denominators (per-doc distinct-shingle counts) are
    computed at shingling time and CARRIED in the data rows, so the
    threshold filter needs no size lookup — no broadcast table, no join,
    nothing driver-side, at any corpus size.  Two int-keyed shuffles,
    at most 2 × min(P, 2 × CPUs) UDF calls, all inner loops numpy; P
    scales with cluster CPUs (wide_partitions)."""
    shingled = dup_corpus(sf_dir).map_batches(
        lambda b: _shingle_batch(b, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    P = wide_partitions()

    def partition_pairs(group: pa.Table) -> pa.Table:
        """Emit candidate pairs for every shingle in this hash partition —
        sort by shingle, then run_pairs over the shingle runs (runs past
        max_df masked out).  Each pair carries both documents'
        shingle-set sizes."""
        sh = group.column("shingle").to_numpy(zero_copy_only=False)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        ns = group.column("n_sh").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, sh))
        sh, ids, ns = sh[order], ids[order], ns[order]
        b = run_bounds(sh)
        starts, ends = b[:-1], b[1:]
        if max_df is not None:
            small = ends - starts <= max_df
            starts, ends = starts[small], ends[small]
        i, j = run_pairs(starts, ends)
        return pa.table(
            {
                "id_a": pa.array(ids[i], pa.int64()),
                "id_b": pa.array(ids[j], pa.int64()),
                "n_a": pa.array(ns[i], pa.int64()),
                "n_b": pa.array(ns[j], pa.int64()),
            }
        )

    pairs = partitioned_by_key(shingled, "shingle", partition_pairs, P)

    def add_pair_pk(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").to_numpy(zero_copy_only=False)
        b = batch.column("id_b").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "pk", pa.array((a * 1_000_003 + b) % P, pa.int32())
        )

    def count_and_filter(group: pa.Table) -> pa.Table:
        counted = (
            group.select(["id_a", "id_b", "n_a", "n_b"])
            .group_by(["id_a", "id_b"])
            .aggregate([("id_a", "count"), ("n_a", "min"), ("n_b", "min")])
        )
        c = counted.column("id_a_count").to_numpy(zero_copy_only=False)
        na = counted.column("n_a_min").to_numpy(zero_copy_only=False)
        nb = counted.column("n_b_min").to_numpy(zero_copy_only=False)
        union = na + nb - c
        keep = (union > 0) & (c / np.maximum(union, 1) >= threshold)
        kept = counted.filter(pa.array(keep))
        return pa.table(
            {"id_a": kept.column("id_a"), "id_b": kept.column("id_b")}
        )

    return exchange(
        pairs.map_batches(add_pair_pk, batch_format="pyarrow", zero_copy_batch=True),
        "pk",
        P,
        count_and_filter,
    )


NGRAM_JACCARD_SQL = f"""
WITH corpus AS ({DUP_CORPUS_SQL}),
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts FROM corpus
),
sh AS (
  SELECT DISTINCT doc_id, ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] AS shingle
  FROM toks, UNNEST(range(1, len(ts) - 1)) AS r(i)
  WHERE len(ts) >= 3
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT id_a, id_b
FROM inter
JOIN sizes sa ON sa.doc_id = id_a
JOIN sizes sb ON sb.doc_id = id_b
WHERE c * 1.0 / (sa.n + sb.n - c) >= 0.8
"""


# -- MinHash + LSH -----------------------------------------------------------

# Shared token-CRC memo for MinHash signatures (bounded, per process).
class MinHasher:
    """Stateful stage: the permutation coefficients are built once per
    actor (seeded, deterministic)."""

    # Universal-hash modulus: Mersenne prime 2^31-1.  a*x stays < 2^62
    # (exact in uint64) and a*x+b genuinely wraps p, so each (a, b) is an
    # independent pseudo-permutation.  (With a modulus larger than a*x+b
    # the map is monotone and every "permutation" picks the same minimum —
    # the estimator degenerates to 0/1.)
    _P31 = np.uint64((1 << 31) - 1)

    def __init__(self, num_hashes: int = 64, k: int = 3, seed: int = 42):
        rng = np.random.RandomState(seed)
        p = int(self._P31)
        self.a = rng.randint(1, p, size=num_hashes).astype(np.uint64)
        self.b = rng.randint(0, p, size=num_hashes).astype(np.uint64)
        self.num_hashes = num_hashes
        self.k = k

    def signature(self, text: str) -> np.ndarray | None:
        toks = _TOKEN_RE.findall(text.lower())
        if len(toks) < self.k:
            return None
        # Shingle hashes as a polynomial over token hashes (uint64
        # wraparound) — no per-shingle string building; distinct-set
        # semantics via np.unique; token hashes truncated to 32 bits so
        # a*x+b stays exact in uint64.  The token hash is the memoized
        # md5-derived value MINHASH_LSH_SQL recomputes.
        c = np.empty(len(toks), dtype=np.uint64)
        for i, t in enumerate(toks):
            c[i] = _md5_u64(t) & 0xFFFFFFFF
        n_sh = len(c) - self.k + 1
        mult = np.uint64(1_000_003)
        sh = c[:n_sh].copy()
        for j in range(1, self.k):
            sh = sh * mult + c[j : n_sh + j]
        base = np.unique((sh ^ (sh >> np.uint64(33))) % self._P31)
        # (a*x + b) mod p, min over shingles — fully vectorized.
        vals = (self.a[:, None] * base[None, :] + self.b[:, None]) % self._P31
        return vals.min(axis=1).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids: list[int] = []
        sigs: list[np.ndarray] = []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            sig = self.signature(t)
            if sig is None:
                continue
            ids.append(doc_id)
            sigs.append(sig)
        # Flat-values + offsets assembly: no per-document Python lists.
        values = (
            np.concatenate(sigs) if sigs else np.empty(0, dtype=np.int64)
        )
        offsets = pa.array(
            (np.arange(len(ids) + 1) * self.num_hashes).astype(np.int32)
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "sig": pa.ListArray.from_arrays(
                    offsets, pa.array(values, pa.int64())
                ),
            }
        )


@functools.lru_cache(maxsize=8)
def _cached_minhasher(num_hashes: int, k: int) -> "MinHasher":
    return MinHasher(num_hashes=num_hashes, k=k)


def _signature_batch(batch: pa.Table, num_hashes: int, k: int) -> pa.Table:
    """Task-form signature stage: MinHasher state (seeded permutation
    coefficients) is microseconds to build, so an elastic task pool with a
    per-worker lru_cache beats spinning up a fixed actor pool for short
    jobs — the actor-pool shape is reserved for stages with genuinely
    expensive state (the extraction kernel)."""
    return _cached_minhasher(num_hashes, k)(batch)


# Below this estimated carry-shuffle volume (bands × signature bytes ×
# docs) the "carry" verify strategy wins: two keyed shuffles instead of
# three, at bands× signature duplication in the band shuffle.  Above it,
# the duplicated-signature bytes dominate and the distributed
# repartition-join verify (constant per-doc shuffle bytes) is the right
# plan — the classic broadcast-vs-shuffle cost crossover, decided from
# dataset metadata, never driver-side data.
_CARRY_VERIFY_MAX_BYTES = 2 << 30


def _minhash_verify_carry(
    banded: "ray.data.Dataset", num_hashes: int, threshold: float, P: int
) -> "ray.data.Dataset":
    """Small-corpus verify plan: band rows carry their signature, so each
    bucket partition estimates and thresholds its pairs in place; one
    final pair-keyed shuffle dedupes cross-band duplicates (which carry
    identical estimates, so keep-first is exact)."""

    def _empty_pairs() -> pa.Table:
        return pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "est_jaccard": pa.array([], pa.float64()),
                "pp": pa.array([], pa.int32()),
            }
        )

    def verify_in_bucket(group: pa.Table) -> pa.Table:
        bk = group.column("bucket").to_numpy(zero_copy_only=False)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        mat = np.asarray(
            group.column("sig").combine_chunks().flatten()
        ).reshape(-1, num_hashes)
        order = np.lexsort((ids, bk))
        bk, ids, mat = bk[order], ids[order], mat[order]
        bounds = run_bounds(bk)
        ia_, ib_ = run_pairs(bounds[:-1], bounds[1:])
        a, b = ids[ia_], ids[ib_]
        keep = a != b
        if not keep.any():
            return _empty_pairs()
        ia_, ib_, a, b = ia_[keep], ib_[keep], a[keep], b[keep]
        # Dedup within the partition BEFORE the matrix compare (a pair
        # colliding in several buckets of this partition is verified
        # once).
        uniq, first = np.unique(
            np.stack([a, b], axis=1), axis=0, return_index=True
        )
        est = (mat[ia_[first]] == mat[ib_[first]]).mean(axis=1)
        thr = est >= threshold
        if not thr.any():
            return _empty_pairs()
        a, b, est = uniq[thr, 0], uniq[thr, 1], est[thr]
        return pa.table(
            {
                "id_a": pa.array(a, pa.int64()),
                "id_b": pa.array(b, pa.int64()),
                "est_jaccard": pa.array(est, pa.float64()),
                "pp": pa.array(
                    ((a * 1_000_003 + b) % P).astype(np.int32), pa.int32()
                ),
            }
        )

    pairs = exchange(banded, "pk", P, verify_in_bucket)

    def dedup_pairs(group: pa.Table) -> pa.Table:
        a = group.column("id_a").to_numpy(zero_copy_only=False)
        b = group.column("id_b").to_numpy(zero_copy_only=False)
        est = group.column("est_jaccard").to_numpy(zero_copy_only=False)
        uniq, first = np.unique(
            np.stack([a, b], axis=1), axis=0, return_index=True
        )
        return pa.table(
            {
                "id_a": pa.array(uniq[:, 0], pa.int64()),
                "id_b": pa.array(uniq[:, 1], pa.int64()),
                "est_jaccard": pa.array(est[first], pa.float64()),
            }
        )

    return exchange(pairs, "pp", P, dedup_pairs)


def minhash_lsh_pairs(
    sf_dir: str,
    num_hashes: int = 64,
    bands: int = 16,
    k: int = 3,
    threshold: float = 0.8,
    verify: str = "auto",
) -> "ray.data.Dataset":
    """Candidate pairs via LSH banding, verified by MinHash-estimated
    Jaccard >= threshold.

    Shuffle discipline, ``verify="join"`` (the at-scale plan): the band
    shuffle moves only (band-bucket hash, doc_id) int pairs; the verify
    step is a DISTRIBUTED repartition join of the deduplicated candidate
    pairs against the signature dataset, keyed on doc id — each pair
    splits into two half-rows (one per side), the halves meet their
    signature inside a doc-hash partition, then reunite in a pair-hash
    partition where the estimate is computed vectorized.  The signature
    table never collapses onto the driver (at 10^12 documents a
    512-byte/doc broadcast is petabytes; here each signature is shuffled
    a bounded number of times).  The join is expressed as union + the
    engine's keyed exchange (``_util.exchange``) rather than Dataset.join
    because Ray's hash-join spins up an aggregator actor pool per join
    (num_partitions actors) whose spin-up dominates at small scale and
    whose partition count is resource-capped; the exchange's fixed-range
    sort expresses the same partitioned hash join with plain tasks and
    the module's one partitioning discipline (pk = key % P).  All wide
    steps stay partition-vectorized (one kernel call per pk range, numpy
    inner loops), like ngram_jaccard_pairs.

    ``verify="carry"`` (the small-corpus plan): each band row carries its
    document's full signature, so the bucket partition verifies pairs
    in place and only a final pair-keyed dedup shuffle remains — two
    shuffles total, at the cost of bands× signature duplication in the
    band shuffle.  ``"auto"`` picks by estimated carry volume
    (_CARRY_VERIFY_MAX_BYTES); both plans produce identical rows."""
    rows_per_band = num_hashes // bands
    sigs_ds = dup_corpus(sf_dir).map_batches(
        _signature_batch,
        fn_kwargs={"num_hashes": num_hashes, "k": k},
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()

    P = wide_partitions()

    if verify == "auto":
        carry_bytes = sigs_ds.count() * bands * (num_hashes * 8 + 16)
        verify = "carry" if carry_bytes <= _CARRY_VERIFY_MAX_BYTES else "join"

    def band_keys(batch: pa.Table, carry: bool = False) -> pa.Table:
        ids_in = batch.column("doc_id").to_numpy(zero_copy_only=False)
        if len(ids_in) == 0:
            cols = {
                "doc_id": pa.array([], pa.int64()),
                "bucket": pa.array([], pa.int64()),
                "pk": pa.array([], pa.int32()),
            }
            if carry:
                cols["sig"] = pa.ListArray.from_arrays(
                    pa.array([0], pa.int32()), pa.array([], pa.int64())
                )
            return pa.table(cols)
        # (n, num_hashes): signature values lie in [0, 2^31 - 1), so the
        # int64 -> uint64 view of the flat values is exact.
        n = len(ids_in)
        mat = (
            pc.list_flatten(batch.column("sig"))
            .to_numpy()
            .astype(np.uint64)
            .reshape(n, num_hashes)
        )
        buckets = np.empty((n, bands), dtype=np.uint64)
        mult = np.uint64(1_000_003)
        for band in range(bands):
            chunk = mat[:, band * rows_per_band : (band + 1) * rows_per_band]
            h = np.full(n, np.uint64(band + 1))
            for col in range(chunk.shape[1]):
                h = h * mult + chunk[:, col]
            buckets[:, band] = h
        out_ids = np.repeat(ids_in, bands)
        out_buckets = (buckets.reshape(-1) >> np.uint64(1)).astype(np.int64)
        cols = {
            "doc_id": pa.array(out_ids, pa.int64()),
            "bucket": pa.array(out_buckets, pa.int64()),
            "pk": pa.array((out_buckets % P).astype(np.int32), pa.int32()),
        }
        if carry:
            # Row-major repeat keeps each doc's bands adjacent to its ids.
            rep = np.repeat(mat.astype(np.int64), bands, axis=0)
            cols["sig"] = pa.ListArray.from_arrays(
                pa.array(
                    (np.arange(n * bands + 1) * num_hashes).astype(np.int32)
                ),
                pa.array(rep.reshape(-1), pa.int64()),
            )
        return pa.table(cols)

    banded = sigs_ds.map_batches(
        band_keys,
        fn_kwargs={"carry": verify == "carry"},
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    if verify == "carry":
        return _minhash_verify_carry(banded, num_hashes, threshold, P)

    def partition_pairs(group: pa.Table) -> pa.Table:
        bk = group.column("bucket").to_numpy(zero_copy_only=False)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, bk))
        bk, ids = bk[order], ids[order]
        bounds = run_bounds(bk)
        i, j = run_pairs(bounds[:-1], bounds[1:])
        a, b = ids[i], ids[j]
        keep = a != b
        # Dedupe within this bucket partition (two docs can collide in
        # several buckets of the same partition); cross-partition
        # duplicates — the same pair via different bands — survive until
        # the verify partition dedupes them, which saves a whole keyed
        # shuffle over a dedicated dedup stage.
        uniq = np.unique(np.stack([a[keep], b[keep]], axis=1), axis=0)
        return pa.table(
            {
                "id_a": pa.array(uniq[:, 0], pa.int64()),
                "id_b": pa.array(uniq[:, 1], pa.int64()),
            }
        )

    candidates = exchange(banded, "pk", P, partition_pairs)

    # -- distributed verify: repartition join on doc id -----------------
    def _empty_sigs(n: int) -> pa.ListArray:
        return pa.ListArray.from_arrays(
            pa.array(np.zeros(n + 1, dtype=np.int32)), pa.array([], pa.int64())
        )

    def pair_halves(batch: pa.Table) -> pa.Table:
        """Each candidate pair becomes two half-rows, keyed by one side's
        doc id, so the halves can pick up their signature in the doc-hash
        partition they shuffle to."""
        a = batch.column("id_a").combine_chunks()
        b = batch.column("id_b").combine_chunks()
        n = batch.num_rows
        key = pa.concat_arrays([a, b])
        side = np.zeros(2 * n, dtype=np.int8)
        side[n:] = 1
        return pa.table(
            {
                "key": key,
                "id_a": pa.concat_arrays([a, a]),
                "id_b": pa.concat_arrays([b, b]),
                "side": pa.array(side),
                "sig": _empty_sigs(2 * n),
                "is_sig": pa.array(np.zeros(2 * n, dtype=bool)),
                "kp": pa.array(
                    (key.to_numpy(zero_copy_only=False) % P).astype(np.int32)
                ),
            }
        )

    def sig_role(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = batch.num_rows
        return pa.table(
            {
                "key": batch.column("doc_id"),
                "id_a": pa.array(np.zeros(n, dtype=np.int64)),
                "id_b": pa.array(np.zeros(n, dtype=np.int64)),
                "side": pa.array(np.zeros(n, dtype=np.int8)),
                "sig": batch.column("sig"),
                "is_sig": pa.array(np.ones(n, dtype=bool)),
                "kp": pa.array((ids % P).astype(np.int32)),
            }
        )

    halves = candidates.map_batches(
        pair_halves, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        sigs_ds.map_batches(sig_role, batch_format="pyarrow", zero_copy_batch=True)
    )

    def attach_sig(group: pa.Table) -> pa.Table:
        """Inside a doc-hash partition: give every pair half-row its
        key's signature via a sorted-key binary search (vectorized)."""
        is_sig = group.column("is_sig").to_numpy(zero_copy_only=False)
        keys = group.column("key").to_numpy(zero_copy_only=False)
        # flatten() respects offsets; non-sig rows hold empty lists, so
        # the value buffer is exactly the sig rows' matrix in row order.
        vals = np.asarray(group.column("sig").combine_chunks().flatten())
        mat = vals.reshape(-1, num_hashes)
        sig_keys = keys[is_sig]
        order = np.argsort(sig_keys)
        skeys, smat = sig_keys[order], mat[order]
        sel = ~is_sig
        pkeys = keys[sel]
        pos = np.clip(np.searchsorted(skeys, pkeys), 0, max(len(skeys) - 1, 0))
        valid = len(skeys) > 0 and (skeys[pos] == pkeys)
        if isinstance(valid, bool):  # empty sig side
            valid = np.zeros(len(pkeys), dtype=bool)
        looked = smat[pos[valid]] if valid.any() else np.empty(
            (0, num_hashes), dtype=smat.dtype if len(smat) else np.int64
        )
        id_a = group.column("id_a").to_numpy(zero_copy_only=False)[sel][valid]
        id_b = group.column("id_b").to_numpy(zero_copy_only=False)[sel][valid]
        side = group.column("side").to_numpy(zero_copy_only=False)[sel][valid]
        offs = pa.array((np.arange(len(id_a) + 1) * num_hashes).astype(np.int32))
        return pa.table(
            {
                "id_a": pa.array(id_a, pa.int64()),
                "id_b": pa.array(id_b, pa.int64()),
                "side": pa.array(side),
                "sig": pa.ListArray.from_arrays(
                    offs, pa.array(looked.reshape(-1), pa.int64())
                ),
                "pp": pa.array(
                    ((id_a * 1_000_003 + id_b) % P).astype(np.int32)
                ),
            }
        )

    attached = exchange(halves, "kp", P, attach_sig)

    def combine_and_estimate(group: pa.Table) -> pa.Table:
        """Inside a pair-hash partition: drop cross-band duplicate halves
        (first occurrence per (id_a, id_b, side) — a duplicate half
        carries the identical signature), then the two halves of each
        pair are adjacent after the sort; the estimate is the mean
        signature agreement — symmetric, so half order is irrelevant."""
        a = group.column("id_a").to_numpy(zero_copy_only=False)
        b = group.column("id_b").to_numpy(zero_copy_only=False)
        sd = group.column("side").to_numpy(zero_copy_only=False)
        mat = np.asarray(group.column("sig").combine_chunks().flatten()).reshape(
            -1, num_hashes
        )
        order = np.lexsort((sd, b, a))
        a, b, sd, mat = a[order], b[order], sd[order], mat[order]
        first = np.r_[
            True, (a[1:] != a[:-1]) | (b[1:] != b[:-1]) | (sd[1:] != sd[:-1])
        ]
        a, b, mat = a[first], b[first], mat[first]
        if len(a) % 2 or not (
            np.array_equal(a[0::2], a[1::2]) and np.array_equal(b[0::2], b[1::2])
        ):
            raise ValueError("pair halves misaligned in verify partition")
        est = (mat[0::2] == mat[1::2]).mean(axis=1)
        keep = est >= threshold
        return pa.table(
            {
                "id_a": pa.array(a[0::2][keep], pa.int64()),
                "id_b": pa.array(b[0::2][keep], pa.int64()),
                "est_jaccard": pa.array(est[keep], pa.float64()),
            }
        )

    return exchange(attached, "pp", P, combine_and_estimate)


def _minhash_lsh_sql(
    num_hashes: int = 64,
    bands: int = 16,
    k: int = 3,
    threshold: float = 0.8,
    seed: int = 42,
) -> str:
    """Full SQL mirror of minhash_lsh_pairs: the seeded permutation
    coefficients are baked in as literals (64 min-aggregates over the
    distinct shingle rows), the uint64-wraparound shingle/band-bucket
    polynomials are reproduced with explicit ``% 2^64`` HUGEINT
    arithmetic, candidates are the union of one equijoin per band bucket
    (collisions and all), and the estimate is a 64-way signature-equality
    sum — bit-exact against the Ray path, hash function included."""
    rows_per_band = num_hashes // bands
    p31 = (1 << 31) - 1
    w64 = 1 << 64
    mult = 1_000_003
    rng = np.random.RandomState(seed)
    a = rng.randint(1, p31, size=num_hashes)
    b = rng.randint(0, p31, size=num_hashes)
    mins = ", ".join(
        f"CAST(min(({int(a[j])}::UBIGINT * x + {int(b[j])}) % {p31}) AS BIGINT)"
        f" AS s{j}"
        for j in range(num_hashes)
    )
    shingle_poly = "v[i]"
    for off in range(1, k):
        shingle_poly = f"({shingle_poly}*{mult} % {w64} + v[i+{off}])"

    def band_fold(band: int) -> str:
        expr = f"{band + 1}::HUGEINT"
        for col in range(band * rows_per_band, (band + 1) * rows_per_band):
            expr = f"((({expr}) * {mult}) % {w64} + s{col})"
        return f"CAST((({expr}) % {w64}) // 2 AS BIGINT) AS bk{band}"

    bks = ", ".join(band_fold(x) for x in range(bands))
    eqsum = " + ".join(
        f"(CASE WHEN a.s{j} = b.s{j} THEN 1 ELSE 0 END)" for j in range(num_hashes)
    )
    band_joins = "\nUNION\n".join(
        f"SELECT a.doc_id AS id_a, b.doc_id AS id_b FROM sigb a JOIN sigb b "
        f"ON a.bk{x} = b.bk{x} AND a.doc_id < b.doc_id"
        for x in range(bands)
    )
    return f"""
WITH corpus AS ({DUP_CORPUS_SQL}),
toks AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(lower(text), '[a-z0-9]+'),
                        w -> (md5_number_lower(w) & 4294967295)::HUGEINT) AS v
  FROM corpus
  WHERE len(regexp_extract_all(lower(text), '[a-z0-9]+')) >= {k}
),
shingle_rows AS (
  SELECT DISTINCT doc_id,
    CAST(xor(CAST({shingle_poly} % {w64} AS UBIGINT),
             CAST({shingle_poly} % {w64} AS UBIGINT) >> 33)
         % {p31} AS UBIGINT) AS x
  FROM (SELECT doc_id, v, unnest(range(1, len(v) - {k - 2})) AS i FROM toks)
),
sig AS (SELECT doc_id, {mins} FROM shingle_rows GROUP BY doc_id),
sigb AS (SELECT *, {bks} FROM sig),
cand AS ({band_joins})
SELECT c.id_a, c.id_b, ({eqsum}) / {num_hashes}.0 AS est_jaccard
FROM cand c JOIN sigb a ON a.doc_id = c.id_a JOIN sigb b ON b.doc_id = c.id_b
WHERE ({eqsum}) / {num_hashes}.0 >= {threshold}
"""


MINHASH_LSH_SQL = _minhash_lsh_sql()


# -- SimHash ----------------------------------------------------------------


class SimHasher:
    def __init__(self, bits: int = 64):
        self.bits = bits

    def simhash(self, text: str) -> int:
        toks = _TOKEN_RE.findall(text.lower())
        if not toks:
            return 0
        hs = np.fromiter(
            (_md5_u64(t) for t in toks), dtype=np.uint64, count=len(toks)
        )
        shifts = np.arange(self.bits, dtype=np.uint64)
        bits = ((hs[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int32)
        acc = (bits * 2 - 1).sum(axis=0)
        out = int(((acc > 0).astype(np.uint64) << shifts).sum(dtype=np.uint64))
        return out & 0x7FFFFFFFFFFFFFFF  # low 63 bits → int64-safe

    def __call__(self, batch: pa.Table) -> pa.Table:
        hashes = [self.simhash(t) for t in batch.column("text").to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "simhash": pa.array(hashes, pa.int64()),
            }
        )


@functools.lru_cache(maxsize=2)
def _cached_simhasher(bits: int) -> "SimHasher":
    return SimHasher(bits=bits)


def _simhash_batch(batch: pa.Table) -> pa.Table:
    return _cached_simhasher(64)(batch)


def simhash_signatures(sf_dir: str) -> "ray.data.Dataset":
    # Task pool, not actor pool: SimHasher holds no expensive state.
    return dup_corpus(sf_dir).map_batches(
        _simhash_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _simhash_sql() -> str:
    """SimHash mirrored in SQL: unnest tokens, per-bit majority vote as 63
    vectorized sums (bit 63 is masked off on the Python side so the value
    stays int64-safe), strict ``acc > 0`` tie rule → ``2*c > n``."""
    sums = ", ".join(
        f"sum(((h >> {j}) & 1)::BIGINT) AS c{j}" for j in range(63)
    )
    terms = " + ".join(
        f"(CASE WHEN 2*c{j} > n THEN (1::BIGINT << {j}) ELSE 0 END)"
        for j in range(63)
    )
    return f"""
WITH corpus AS ({DUP_CORPUS_SQL}),
tok AS (
  SELECT doc_id, md5_number_lower(t) AS h
  FROM (SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
        FROM corpus)
),
agg AS (
  SELECT doc_id, count(*) AS n, {sums} FROM tok GROUP BY doc_id
)
SELECT d.doc_id, COALESCE({terms}, 0) AS simhash
FROM (SELECT doc_id FROM corpus) d LEFT JOIN agg USING (doc_id)
"""


SIMHASH_SQL = _simhash_sql()

# Exact hamming-ball pairs: the banded/pigeonhole Ray path is guaranteed
# lossless for max_hamming < bands, so the all-pairs SQL join IS its oracle.
SIMHASH_PAIRS_SQL = f"""
WITH sigs AS ({SIMHASH_SQL})
SELECT a.doc_id AS id_a, b.doc_id AS id_b,
       bit_count(xor(a.simhash, b.simhash))::BIGINT AS hamming
FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
"""


def simhash_pairs(
    sf_dir: str, max_hamming: int = 3, bands: int = 4, bits: int = 64
) -> "ray.data.Dataset":
    """All pairs of documents whose 64-bit SimHashes differ in at most
    ``max_hamming`` bits — the classic web-dedup formulation.

    Bit-sampling LSH with a pigeonhole guarantee: the hash splits into
    ``bands`` equal chunks; a pair within hamming distance bands-1 must
    agree on at least one whole chunk, so bucketing by (band, chunk
    value) finds every qualifying pair EXACTLY (no recall loss) while
    only same-bucket candidates are compared.  Requires
    max_hamming < bands.  Distributed shape mirrors minhash: band rows
    carry (bucket key, doc_id, simhash); pairs are generated and
    hamming-verified vectorized inside each bucket partition and
    deduplicated by ``keyed_aggregate`` — nothing driver-side."""
    if max_hamming >= bands:
        raise ValueError("pigeonhole guarantee needs max_hamming < bands")
    chunk_bits = bits // bands
    mask = (1 << chunk_bits) - 1
    P = wide_partitions()

    def band_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sh = batch.column("simhash").to_numpy(zero_copy_only=False).astype(
            np.uint64
        )
        n = len(ids)
        keys = np.empty(n * bands, dtype=np.int64)
        for b in range(bands):
            chunk = (sh >> np.uint64(b * chunk_bits)) & np.uint64(mask)
            # band id mixed into the key so chunks from different bands
            # never share a bucket.
            keys[b * n : (b + 1) * n] = (
                (chunk.astype(np.int64) << np.int64(3)) | np.int64(b)
            )
        return pa.table(
            {
                "doc_id": pa.array(np.tile(ids, bands), pa.int64()),
                "simhash": pa.array(
                    np.tile(sh, bands).astype(np.int64), pa.int64()
                ),
                "bucket": pa.array(keys, pa.int64()),
                "pk": pa.array((keys % P).astype(np.int32), pa.int32()),
            }
        )

    banded = simhash_signatures(sf_dir).map_batches(
        band_rows, batch_format="pyarrow", zero_copy_batch=True
    )

    def bucket_pairs(group: pa.Table) -> pa.Table:
        bk = group.column("bucket").to_numpy(zero_copy_only=False)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        sh = group.column("simhash").to_numpy(zero_copy_only=False).astype(
            np.uint64
        )
        order = np.lexsort((ids, bk))
        bk, ids, sh = bk[order], ids[order], sh[order]
        bounds = run_bounds(bk)
        i, j = run_pairs(bounds[:-1], bounds[1:])
        # vectorized popcount on uint64 via byte view
        dist = (
            np.unpackbits((sh[i] ^ sh[j]).view(np.uint8).reshape(-1, 8), axis=1)
            .sum(axis=1)
            .astype(np.int64)
        )
        keep = (dist <= max_hamming) & (ids[i] != ids[j])
        a, b, d = ids[i][keep], ids[j][keep], dist[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table(
            {
                "id_a": pa.array(lo, pa.int64()),
                "id_b": pa.array(hi, pa.int64()),
                "hamming": pa.array(d, pa.int64()),
            }
        )

    pairs = exchange(banded, "pk", P, bucket_pairs)
    # The same pair surfaces from every agreeing band — keyed dedup.
    return keyed_aggregate(pairs, ["id_a", "id_b"], {"hamming": ("hamming", "min")})


# -- duplicate-cluster connected components ----------------------------------


def _cc_fold_kernel(batch: pa.Table) -> pa.Table:
    """In-memory min-label fixpoint over ONE gathered edge table: the
    small-graph arm of connected_components' volume router.  Hash-to-min
    across edges + full pointer compression (``lab = lab[lab]`` to
    fixpoint — chain-halving, O(log n) gathers) per round, all numpy
    gathers/scatters; node ids are mapped to a dense sorted index space,
    so min-INDEX equals min-ID and the final labels decode by one take."""
    a = batch.column("id_a").to_numpy(zero_copy_only=False).astype(np.int64)
    b = batch.column("id_b").to_numpy(zero_copy_only=False).astype(np.int64)
    if len(a) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "component": pa.array([], pa.int64()),
            }
        )
    ids = np.unique(np.concatenate([a, b]))
    ai = np.searchsorted(ids, a)
    bi = np.searchsorted(ids, b)
    lab = np.arange(len(ids), dtype=np.int64)
    while True:
        new = lab.copy()
        np.minimum.at(new, bi, lab[ai])
        np.minimum.at(new, ai, lab[bi])
        while True:  # pointer-compress to a rooted-star forest
            nxt = new[new]
            if np.array_equal(nxt, new):
                break
            new = nxt
        if np.array_equal(new, lab):  # no edge changed anything: done
            break
        lab = new
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "component": pa.array(ids[lab], pa.int64()),
        }
    )


def connected_components(
    edges: "ray.data.Dataset",
    max_iters: int = 16,
    small_edge_limit: int = 2_000_000,
) -> "ray.data.Dataset":
    """Connected components over an (id_a, id_b) pair dataset by iterative
    min-label propagation — the step that turns pairwise near-dup hits
    into duplicate CLUSTERS (keep one doc per component).

    VOLUME ROUTER (same pattern as extract's size router): a banded
    near-dup pair graph is usually orders of magnitude smaller than the
    corpus that produced it, and the distributed loop pays two
    all-to-all shuffles per round — ~4 s/round of pure scheduling on a
    30k-edge graph.  When the edge count is at most ``small_edge_limit``
    (default 2M rows = 32 MB of int64 pairs, far under a worker heap),
    the whole graph is gathered into ONE task (repartition(1), never the
    driver) and folded by the in-memory kernel in milliseconds; larger
    graphs take the iterative keyed-shuffle loop below.  Tests pin both
    arms (small_edge_limit=0 forces the loop).

    Each round is one keyed shuffle: labels, directed edges AND
    pointer-jump probes meet in a doc-hash partition (the same
    repartition-join used by the minhash verify).  Every edge forwards
    its source's current label to its target (hash-to-min) and every
    node also looks up its label's label (pointer doubling), so the new
    label is min(label(v), min_{u~v} label(u), label(label(v))) — the
    doubling term makes convergence O(log diameter) rounds instead of
    O(diameter), which matters on real near-dup graphs (sf0.1 produces
    a 4.9k-node component of eccentricity 12).  ``keyed_aggregate``
    min(label) per node folds the proposals; labels only decrease, so
    ``sum(labels)`` is a monotone convergence witness — the loop stops
    when it is unchanged.  Driver state is one scalar per round.

    The partition count adapts to the EDGE data size (bounded above by
    the cluster-wide partition count): the loop pays two all-to-all
    shuffles per round, and at small inputs a fixed 64-way shuffle is
    pure scheduling overhead — a 120-node test graph spends seconds per
    round on empty partitions.  Edge pair tables are two int64 columns,
    so materializing them to learn the block count is cheap relative to
    the rounds that follow (they are re-read every round anyway)."""
    edges = edges.materialize()
    if int(edges.count()) <= small_edge_limit:
        return edges.repartition(1).map_batches(
            _cc_fold_kernel,
            batch_format="pyarrow",
            batch_size=None,  # the whole (single) block in one call
            zero_copy_batch=True,
        )
    # Partition count proportional to edge VOLUME (≈250k 16-byte rows
    # ≈ 4 MB per partition), capped by the cluster-wide count: the loop
    # pays two all-to-alls per round, and every extra partition is pure
    # per-round scheduling overhead when its share of the pair table is
    # tiny (block COUNT was the old proxy and overshoots badly — a
    # 50k-pair graph in 200 small blocks ran 64-way shuffles each
    # round).  count() on a materialized dataset is metadata-only.
    P = min(wide_partitions(), max(4, int(edges.count()) // 250_000 + 1))

    def directed(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").combine_chunks()
        b = batch.column("id_b").combine_chunks()
        src = pa.concat_arrays([a, b])
        dst = pa.concat_arrays([b, a])
        return pa.table(
            {
                "key": src,
                "dst": dst,
                "lab": pa.array(np.zeros(len(src), dtype=np.int64)),
                "is_lab": pa.array(np.zeros(len(src), dtype=bool)),
                "kp": pa.array(
                    (src.to_numpy(zero_copy_only=False) % P).astype(np.int32)
                ),
            }
        )

    dir_edges = edges.map_batches(
        directed, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # reused every round; pairs table, not the corpus

    def init_labels(batch: pa.Table) -> pa.Table:
        # label0 = min(self, min neighbor): the first propagation round is
        # folded into the init aggregate — one less full round for the
        # shallow clusters dedup produces.
        nodes = batch.column("key")
        return pa.table(
            {
                "node": nodes,
                "label": pc.min_element_wise(nodes, batch.column("label")),
            }
        )

    # Block-count discipline: every round unions the edge blocks with two
    # label-derived datasets, and a sort-shuffle emits as many blocks as
    # it consumes — without a repartition the labels block count grows
    # geometrically round over round (B' ≈ E + 2B) and the per-round sort
    # cost grows with it (measured 1 s → 59 s by round 7 on a 120-node
    # graph).  Pinning labels to the wide-partition count keeps every
    # round the same size.
    n_label_blocks = P

    labels = (
        keyed_aggregate(dir_edges, "key", {"label": ("dst", "min")})
        .map_batches(init_labels, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(n_label_blocks)
        .materialize()
    )
    labels = cut_lineage(labels)

    def label_role(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": batch.column("node"),
                "dst": pa.array(np.zeros(n, dtype=np.int64)),
                "lab": batch.column("label"),
                "is_lab": pa.array(np.ones(n, dtype=bool)),
                "kp": pa.array(
                    (
                        batch.column("node").to_numpy(zero_copy_only=False) % P
                    ).astype(np.int32)
                ),
            }
        )

    def pointer_role(batch: pa.Table) -> pa.Table:
        """Pointer-jump probes: ask the partition holding label(v)'s own
        label row for label(label(v)), to be proposed back to v.  Label
        values are always live node ids (they start as node ids and only
        ever take other labels' values), so the lookup always hits."""
        n = batch.num_rows
        return pa.table(
            {
                "key": batch.column("label"),
                "dst": batch.column("node"),
                "lab": pa.array(np.zeros(n, dtype=np.int64)),
                "is_lab": pa.array(np.zeros(n, dtype=bool)),
                "kp": pa.array(
                    (
                        batch.column("label").to_numpy(zero_copy_only=False) % P
                    ).astype(np.int32)
                ),
            }
        )

    def propose(group: pa.Table) -> pa.Table:
        """Within one doc-hash partition: every edge row looks up its
        source's label (sorted-key binary search) and proposes it to the
        edge's target (pointer-jump probes do the same with key=label,
        dst=node); label rows re-propose to their own node."""
        is_lab = group.column("is_lab").to_numpy(zero_copy_only=False)
        keys = group.column("key").to_numpy(zero_copy_only=False)
        labs = group.column("lab").to_numpy(zero_copy_only=False)
        dsts = group.column("dst").to_numpy(zero_copy_only=False)
        lkeys, llabs = keys[is_lab], labs[is_lab]
        order = np.argsort(lkeys)
        lkeys, llabs = lkeys[order], llabs[order]
        ekeys, edsts = keys[~is_lab], dsts[~is_lab]
        pos = np.searchsorted(lkeys, ekeys)
        out_node = np.concatenate([edsts, lkeys])
        out_lab = np.concatenate([llabs[pos], llabs])
        # combiner: local per-node min before the keyed min shuffle —
        # proposals per partition collapse from O(edges) to O(distinct
        # nodes) rows (min is associative, result unchanged)
        order2 = np.lexsort((out_lab, out_node))
        out_node, out_lab = out_node[order2], out_lab[order2]
        first = np.r_[True, out_node[1:] != out_node[:-1]]
        return pa.table(
            {
                "node": pa.array(out_node[first], pa.int64()),
                "label": pa.array(out_lab[first], pa.int64()),
            }
        )

    import os as _os
    import time as _time

    _dbg = bool(_os.environ.get("GBR_CC_DEBUG"))
    prev_sum: int | None = None
    for _round in range(max_iters):
        _t0 = _time.time()
        rows = dir_edges.union(
            labels.map_batches(
                label_role, batch_format="pyarrow", zero_copy_batch=True
            ),
            labels.map_batches(
                pointer_role, batch_format="pyarrow", zero_copy_batch=True
            ),
        )
        labels = (
            keyed_aggregate(
                exchange(rows, "kp", P, propose), "node", {"label": ("label", "min")}
            )
            .repartition(n_label_blocks)
            .materialize()
        )
        # labels feeds THREE consumers next round (label_role,
        # pointer_role, the convergence sum) — cut the plan history so
        # the round-over-round plan tree stays O(1).
        labels = cut_lineage(labels)
        cur_sum = labels.sum("label")
        if _dbg:
            print(
                f"[cc] round {_round}: {_time.time() - _t0:.2f}s "
                f"sum={cur_sum} P={P}",
                flush=True,
            )
        if cur_sum == prev_sum:
            break
        prev_sum = cur_sum
    return labels.rename_columns({"node": "doc_id", "label": "component"})


def dedup_components(sf_dir: str) -> "ray.data.Dataset":
    """Duplicate clusters of the dup corpus: simhash hamming-ball pairs →
    connected components; output (doc_id, component=min doc id)."""
    return connected_components(simhash_pairs(sf_dir))


# Recursive min-label closure mirrors the propagation fixpoint exactly.
DEDUP_COMPONENTS_SQL = f"""
WITH RECURSIVE pairs AS ({SIMHASH_PAIRS_SQL}),
edges AS (
  SELECT id_a AS u, id_b AS v FROM pairs
  UNION ALL SELECT id_b, id_a FROM pairs
),
nodes AS (SELECT DISTINCT u AS node FROM edges),
reach(node, label) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT e.v AS node, r.label
  FROM reach r JOIN edges e ON e.u = r.node
  WHERE r.label < e.v
)
SELECT node AS doc_id, min(label) AS component FROM reach GROUP BY node
"""


# -- density-guarded dup clustering (DBSCAN over the hamming graph) ----------

DBSCAN_MINPTS = 2  # core = at least this many hamming-<=3 neighbors


def _dbscan_fold_kernel(batch: pa.Table) -> pa.Table:
    """In-memory DBSCAN over ONE gathered pair table — the small-graph
    arm of dedup_dbscan_clusters' volume router.  Fully vectorized:
    degrees by bincount over dense node indices, core-core components
    via _cc_fold_kernel, isolated cores patched to self-labels with one
    searchsorted, border attach as a lexsort + run-head sweep (first
    row per border node IS its min cluster)."""
    a = batch.column("id_a").to_numpy(zero_copy_only=False).astype(np.int64)
    b = batch.column("id_b").to_numpy(zero_copy_only=False).astype(np.int64)
    if len(a) == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "cluster": pa.array([], pa.int64()),
                "role": pa.array([], pa.string()),
            }
        )
    ids = np.unique(np.concatenate([a, b]))
    ai = np.searchsorted(ids, a)
    bi = np.searchsorted(ids, b)
    deg = np.bincount(np.concatenate([ai, bi]), minlength=len(ids))
    is_core = deg >= DBSCAN_MINPTS
    cc = is_core[ai] & is_core[bi]
    comp = _cc_fold_kernel(
        pa.table(
            {"id_a": pa.array(a[cc], pa.int64()), "id_b": pa.array(b[cc], pa.int64())}
        )
    )
    cn = comp.column("doc_id").to_numpy(zero_copy_only=False)  # sorted
    cl = comp.column("component").to_numpy(zero_copy_only=False)
    core_ids = ids[is_core]
    cluster = core_ids.copy()  # isolated cores default to self-label
    if len(cn):
        pos = np.searchsorted(cn, core_ids)
        safe = np.minimum(pos, len(cn) - 1)
        hit = cn[safe] == core_ids
        cluster[hit] = cl[safe[hit]]
    # border candidates: directed (non-core node idx, core neighbour id)
    m_ab = ~is_core[ai] & is_core[bi]
    m_ba = ~is_core[bi] & is_core[ai]
    bu = np.concatenate([ai[m_ab], bi[m_ba]])
    bv = np.concatenate([b[m_ab], a[m_ba]])
    bcl = cluster[np.searchsorted(core_ids, bv)]
    order = np.lexsort((bcl, bu))
    bu, bcl = bu[order], bcl[order]
    head = np.r_[True, bu[1:] != bu[:-1]] if len(bu) else np.zeros(0, bool)
    return pa.table(
        {
            "doc_id": pa.array(
                np.concatenate([core_ids, ids[bu[head]]]), pa.int64()
            ),
            "cluster": pa.array(
                np.concatenate([cluster, bcl[head]]), pa.int64()
            ),
            "role": pa.array(
                ["core"] * len(core_ids) + ["border"] * int(head.sum()),
                pa.string(),
            ),
        }
    )


def dedup_dbscan_clusters(
    sf_dir: str,
    small_pair_limit: int = 2_000_000,
) -> "ray.data.Dataset":
    """Density-guarded duplicate clusters: DBSCAN semantics over the
    EXACT simhash hamming-ball neighbor graph (eps = the pigeonhole
    pair radius, neighbour counts exclude self).

    Why it exists next to ``dedup_components``: plain connected
    components over-merge through TRANSITIVE CHAINS — a, b, c where
    a~b and b~c but a is far from c still collapse into one cluster,
    and on web corpora one promiscuous near-boilerplate page chains
    thousands of unrelated docs together.  The density guard breaks
    those bridges: only CORE docs (>= ``DBSCAN_MINPTS`` neighbors)
    propagate cluster membership; degree-1 chain links become border
    points that attach to exactly one cluster and connect nothing.

    Semantics (deterministic DBSCAN variant): core iff
    |N(v)| >= DBSCAN_MINPTS, a constant rather than a parameter because
    the SQL oracle bakes it in when this module loads; clusters =
    connected components of the core-core edge subgraph, labelled by
    min core doc_id; border = non-core doc with >= 1 core neighbor,
    assigned min cluster label among its core neighbors (textbook
    DBSCAN is first-come order-dependent here — min-label is the
    order-free choice, and the oracle mirrors it); everything else is
    noise and is omitted.
    Output: (doc_id, cluster, role in {core, border}).

    Scale shape — VOLUME ROUTER, same precedent as
    connected_components: the pair graph is orders of magnitude
    smaller than the corpus that produced it, and the distributed arm
    pays three keyed shuffles (two core-flag repartition joins + the
    border attach) that are pure scheduling overhead on a small graph
    (measured 9.7 s -> 6.7 s at sf0.1, 7.3 s -> 3.5 s at sf0.01 —
    what remains is the simhash + pair generation).  At or below
    ``small_pair_limit`` rows (default 2M = 32 MB of int64 pairs) the
    gathered single-task kernel (_dbscan_fold_kernel — never the
    driver) computes everything vectorized; above it the distributed
    arm runs: degrees are one keyed count, core-flag taggings are
    repartition joins (left, null right = non-core), components run
    the volume-routed min-label/pointer-doubling loop, and the border
    attach is one more repartition join plus a keyed min.  Both arms
    pinned equal by pytest (small_pair_limit=0 forces the shuffles).
    Nothing touches the driver but scalars."""
    from .relational import repartition_join  # type: ignore

    pairs = (
        simhash_pairs(sf_dir)
        .select_columns(["id_a", "id_b"])
        .materialize()  # reused 4x below; pairs table, not the corpus
    )
    if int(pairs.count()) <= small_pair_limit:
        return pairs.repartition(1).map_batches(
            _dbscan_fold_kernel,
            batch_format="pyarrow",
            batch_size=None,  # the whole (single) block in one call
            zero_copy_batch=True,
        )

    def directed(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").combine_chunks()
        b = batch.column("id_b").combine_chunks()
        return pa.table({"node": pa.concat_arrays([a, b])})

    def core_mark(batch: pa.Table) -> pa.Table:
        cnt = batch.column("n").to_numpy(zero_copy_only=False)
        nodes = pc.cast(batch.column("node"), pa.int64()).to_numpy(
            zero_copy_only=False
        )[cnt >= DBSCAN_MINPTS]
        return pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "is_core": pa.array(np.ones(len(nodes), np.int64), pa.int64()),
            }
        )

    core = (
        keyed_aggregate(
            pairs.map_batches(directed, batch_format="pyarrow", zero_copy_batch=True),
            "node",
            {"n": ("node", "count")},
        )
        .map_batches(core_mark, batch_format="pyarrow", zero_copy_batch=True)
        .materialize()  # joined against twice
    )

    tagged_a = repartition_join(
        pairs,
        core,
        "id_a",
        "node",
        [("id_a", pa.int64()), ("id_b", pa.int64())],
        [("is_core", pa.int64())],
        how="left",
    ).map_batches(
        lambda b: pa.table(
            {
                "id_a": b.column("id_a"),
                "id_b": b.column("id_b"),
                "a_core": pc.coalesce(b.column("is_core"), pa.scalar(0, pa.int64())),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    tagged = repartition_join(
        tagged_a,
        core,
        "id_b",
        "node",
        [("id_a", pa.int64()), ("id_b", pa.int64()), ("a_core", pa.int64())],
        [("is_core", pa.int64())],
        how="left",
    ).map_batches(
        lambda b: pa.table(
            {
                "id_a": b.column("id_a"),
                "id_b": b.column("id_b"),
                "a_core": b.column("a_core"),
                "b_core": pc.coalesce(b.column("is_core"), pa.scalar(0, pa.int64())),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()  # feeds both the core-core and the border branches

    def both_core(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(batch.column("a_core"), 1), pc.equal(batch.column("b_core"), 1)
        )
        return batch.filter(keep).select(["id_a", "id_b"])

    core_edges = tagged.map_batches(
        both_core, batch_format="pyarrow", zero_copy_batch=True
    )
    comp = connected_components(core_edges).materialize()  # (doc_id, component)

    # Isolated cores (no core neighbor) are their own single-doc cluster:
    # they never enter core_edges, so add them back as self-components.
    def self_comp(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("node"), pa.int64()),
                "component": pc.cast(batch.column("node"), pa.int64()),
            }
        )

    iso = repartition_join(
        core,
        comp,
        "node",
        "doc_id",
        [("node", pa.int64())],
        [],
        how="anti",
    ).map_batches(self_comp, batch_format="pyarrow", zero_copy_batch=True)
    comp_all = comp.union(iso).materialize()  # every core: (doc_id, component)

    # Border attach: (non-core endpoint, core endpoint) directed rows,
    # join the core side to its cluster, keep min cluster per border doc.
    def border_rows(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").to_numpy(zero_copy_only=False)
        b = batch.column("id_b").to_numpy(zero_copy_only=False)
        ac = batch.column("a_core").to_numpy(zero_copy_only=False)
        bc = batch.column("b_core").to_numpy(zero_copy_only=False)
        a_border = (ac == 0) & (bc == 1)  # a attaches to b's cluster
        b_border = (bc == 0) & (ac == 1)
        return pa.table(
            {
                "border_id": pa.array(
                    np.concatenate([a[a_border], b[b_border]]), pa.int64()
                ),
                "core_id": pa.array(
                    np.concatenate([b[a_border], a[b_border]]), pa.int64()
                ),
            }
        )

    border = keyed_aggregate(
        repartition_join(
            tagged.map_batches(
                border_rows, batch_format="pyarrow", zero_copy_batch=True
            ),
            comp_all,
            "core_id",
            "doc_id",
            [("border_id", pa.int64())],
            [("component", pa.int64())],
            how="inner",
        ),
        "border_id",
        {"component": ("component", "min")},
    )

    def finish_border(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("border_id"), pa.int64()),
                "cluster": pc.cast(batch.column("component"), pa.int64()),
                "role": pa.array(["border"] * batch.num_rows, pa.string()),
            }
        )

    def finish_core(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch.column("doc_id"), pa.int64()),
                "cluster": pc.cast(batch.column("component"), pa.int64()),
                "role": pa.array(["core"] * batch.num_rows, pa.string()),
            }
        )

    return comp_all.map_batches(
        finish_core, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        border.map_batches(
            finish_border, batch_format="pyarrow", zero_copy_batch=True
        )
    )


# Oracle: same deterministic DBSCAN variant in SQL — degree-filtered
# cores, min-label closure over CORE-CORE edges only, min-cluster
# border attach; noise omitted.
DEDUP_DBSCAN_SQL = f"""
WITH RECURSIVE pairs AS ({SIMHASH_PAIRS_SQL}),
edges AS (
  SELECT id_a AS u, id_b AS v FROM pairs
  UNION ALL SELECT id_b, id_a FROM pairs
),
deg AS (SELECT u AS node, count(*) AS d FROM edges GROUP BY u),
core AS (SELECT node FROM deg WHERE d >= {DBSCAN_MINPTS}),
cedges AS (
  SELECT e.u, e.v FROM edges e
  JOIN core a ON a.node = e.u
  JOIN core b ON b.node = e.v
),
reach(node, label) AS (
  SELECT node, node FROM core
  UNION
  SELECT e.v AS node, r.label
  FROM reach r JOIN cedges e ON e.u = r.node
  WHERE r.label < e.v
),
comp AS (SELECT node, min(label) AS cluster FROM reach GROUP BY node),
border AS (
  SELECT e.u AS node, min(c.cluster) AS cluster
  FROM edges e
  JOIN comp c ON c.node = e.v
  LEFT JOIN core cu ON cu.node = e.u
  WHERE cu.node IS NULL
  GROUP BY e.u
)
SELECT node AS doc_id, cluster, 'core' AS role FROM comp
UNION ALL
SELECT node AS doc_id, cluster, 'border' AS role FROM border
"""


# -- incremental dedup (new ingest vs a prior corpus) ------------------------


class TextBloom:
    """Broadcast Bloom filter over text hashes: the prior corpus's
    membership sketch rides in the object store (one ray.put), new ingest
    batches test against it locally — no join against the prior corpus.
    False positives are possible (tunable via n_bits); false negatives are
    not, so "new" verdicts are definitive and "maybe_dup" rows go to an
    exact confirmation stage if required."""

    def __init__(self, n_bits: int = 1 << 24, n_hashes: int = 4):
        self.n_bits = n_bits
        self.n_hashes = n_hashes
        self.bits = np.zeros(n_bits // 64 + 1, dtype=np.uint64)

    @staticmethod
    def _hash64(texts: list[str]) -> np.ndarray:
        return np.fromiter(
            (
                int.from_bytes(
                    hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest(), "big"
                )
                for t in texts
            ),
            dtype=np.uint64,
            count=len(texts),
        )

    def _positions(self, h: np.ndarray) -> np.ndarray:
        # double hashing: pos_i = h1 + i*h2 mod n_bits
        h1 = h % np.uint64(self.n_bits)
        h2 = (h >> np.uint64(33)) | np.uint64(1)
        idx = np.arange(self.n_hashes, dtype=np.uint64)
        return (h1[:, None] + idx[None, :] * h2[:, None]) % np.uint64(self.n_bits)

    def add_texts(self, texts: list[str]) -> None:
        if not texts:
            return
        pos = self._positions(self._hash64(texts)).reshape(-1)
        np.bitwise_or.at(
            self.bits, pos // 64, np.uint64(1) << (pos % np.uint64(64))
        )

    def contains_texts(self, texts: list[str]) -> np.ndarray:
        if not texts:
            return np.zeros(0, dtype=bool)
        pos = self._positions(self._hash64(texts))
        got = (self.bits[pos // 64] >> (pos % np.uint64(64))) & np.uint64(1)
        return got.all(axis=1)


def build_text_bloom(ds: "ray.data.Dataset", n_bits: int = 1 << 24) -> TextBloom:
    """Aggregate a Bloom sketch over a corpus as a Ray Data aggregate:
    per-block partial sketches are OR-merged in the engine's distributed
    combine tree (not a driver loop), so the driver only ever receives
    the one final ~2 MB sketch regardless of corpus size."""
    from ray.data.aggregate import AggregateFn

    words = n_bits // 64 + 1

    def _accumulate(state: np.ndarray, block) -> np.ndarray:
        b = TextBloom(n_bits=n_bits)
        b.bits = state  # OR-add in place; state is this accumulator's own
        b.add_texts(block.column("text").to_pylist())
        return b.bits

    agg = AggregateFn(
        init=lambda _k: np.zeros(words, dtype=np.uint64),
        accumulate_block=_accumulate,
        merge=lambda a, b: a | b,
        name="bloom_bits",
    )
    out = ds.aggregate(agg)
    bloom = TextBloom(n_bits=n_bits)
    bloom.bits = np.asarray(out["bloom_bits"], dtype=np.uint64)
    return bloom


def incremental_dedup(
    new_ds: "ray.data.Dataset", bloom: TextBloom
) -> "ray.data.Dataset":
    """Classify a new ingest against a prior corpus sketch:
    status = 'new' (definitely unseen) | 'maybe_dup' (Bloom hit)."""
    bloom_ref = ray.put(bloom)

    def classify(batch: pa.Table) -> pa.Table:
        bl = ray.get(bloom_ref)
        texts = batch.column("text").to_pylist()
        hits = bl.contains_texts(texts)
        status = pa.array(
            ["maybe_dup" if h else "new" for h in hits], pa.string()
        )
        return pa.table({"doc_id": batch.column("doc_id"), "status": status})

    return new_ds.map_batches(
        classify, batch_format="pyarrow", zero_copy_batch=True
    )


def incremental_dedup_query(sf_dir: str) -> "ray.data.Dataset":
    """Driver-surface wrapper for the incremental path: sketch the prior
    corpus (the documents table) into a Bloom filter, then classify a
    "new ingest" (originals ∪ exact copies ∪ perturbed copies) against
    it.  Originals and exact copies are guaranteed ``maybe_dup`` (the
    sketch has no false negatives); perturbed copies read ``new`` up to
    the sketch's false-positive rate.  Rows-only check: FP positions are
    hash-layout-dependent, not SQL-expressible — the no-false-negative
    property is pinned by pytest instead."""
    from ._util import read_parquet_clean

    prior = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    bloom = build_text_bloom(prior)
    return incremental_dedup(dup_corpus(sf_dir), bloom)



def incremental_dedup_confirmed(
    new_ds: "ray.data.Dataset",
    prior_ds: "ray.data.Dataset",
    bloom: TextBloom,
) -> "ray.data.Dataset":
    """Bloom prefilter + exact confirmation: the full incremental-ingest
    pattern with a DETERMINISTIC verdict (status = 'dup' | 'new').

    Stage 1 classifies every ingest row against the broadcast sketch;
    'new' verdicts are definitive (no false negatives) and bypass the
    join entirely.  Stage 2 confirms only the ``maybe_dup`` survivors —
    a repartition join on the 64-bit content hash against the prior
    corpus, clearing Bloom false positives.  At scale the shuffle moves
    (hash, id) ints for the Bloom-hit subset plus one int64 per prior
    doc — when ingest is mostly novel (the common case) the join input
    is a small fraction of the corpus.  Hash equality stands in for text
    equality absent 64-bit blake2b collisions, same contract as the
    shingle and exact-dedup stages."""
    P = wide_partitions()
    bloom_ref = ray.put(bloom)

    def classify(batch: pa.Table) -> pa.Table:
        bl = ray.get(bloom_ref)
        texts = batch.column("text").to_pylist()
        hits = bl.contains_texts(texts)
        h = TextBloom._hash64(texts).view(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "status": pa.array(
                    ["maybe_dup" if x else "new" for x in hits], pa.string()
                ),
                "h": pa.array(h, pa.int64()),
            }
        )

    # Narrow (id, status, hash) rows only — safe to pin for the two-way
    # split at any corpus size.
    classified = new_ds.map_batches(
        classify, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def only(value: str):
        def f(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.equal(batch.column("status"), value))

        return f

    definite_new = classified.map_batches(
        only("new"), batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["doc_id", "status"])

    def maybe_half(batch: pa.Table) -> pa.Table:
        sub = batch.filter(pc.equal(batch.column("status"), "maybe_dup"))
        h = sub.column("h").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "h": sub.column("h"),
                "doc_id": sub.column("doc_id"),
                "is_prior": pa.array(np.zeros(len(h), dtype=bool)),
                "pk": pa.array((h % P).astype(np.int32), pa.int32()),
            }
        )

    def prior_half(batch: pa.Table) -> pa.Table:
        h = TextBloom._hash64(batch.column("text").to_pylist()).view(np.int64)
        return pa.table(
            {
                "h": pa.array(h, pa.int64()),
                "doc_id": pa.array(np.zeros(len(h), dtype=np.int64)),
                "is_prior": pa.array(np.ones(len(h), dtype=bool)),
                "pk": pa.array((h % P).astype(np.int32), pa.int32()),
            }
        )

    halves = classified.map_batches(
        maybe_half, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        prior_ds.map_batches(
            prior_half, batch_format="pyarrow", zero_copy_batch=True
        )
    )

    def confirm(group: pa.Table) -> pa.Table:
        is_prior = group.column("is_prior").to_numpy(zero_copy_only=False)
        h = group.column("h").to_numpy(zero_copy_only=False)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        ph = np.unique(h[is_prior])
        qh, qid = h[~is_prior], ids[~is_prior]
        if len(ph):
            pos = np.clip(np.searchsorted(ph, qh), 0, len(ph) - 1)
            dup = ph[pos] == qh
        else:
            dup = np.zeros(len(qh), dtype=bool)
        return pa.table(
            {
                "doc_id": pa.array(qid, pa.int64()),
                "status": pa.array(
                    np.where(dup, "dup", "new").tolist(), pa.string()
                ),
            }
        )

    confirmed = exchange(halves, "pk", P, confirm)
    return definite_new.union(confirmed)


def incremental_dedup_confirmed_query(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic incremental dedup: prior corpus = documents table,
    ingest = dup corpus.  Originals and exact copies confirm as 'dup';
    perturbed copies always resolve to 'new' (Bloom FPs are cleared by
    the exact stage), so the output is SQL-expressible."""
    from ._util import read_parquet_clean

    prior = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    bloom = build_text_bloom(prior)
    return incremental_dedup_confirmed(dup_corpus(sf_dir), prior, bloom)


INCREMENTAL_CONFIRMED_SQL = f"""
WITH corpus AS ({DUP_CORPUS_SQL})
SELECT c.doc_id,
       CASE WHEN EXISTS (SELECT 1 FROM documents d WHERE d.text = c.text)
            THEN 'dup' ELSE 'new' END AS status
FROM corpus c
"""


# -- canonical selection (keep-best per duplicate cluster) -------------------


def dedup_keep_best(sf_dir: str) -> "ray.data.Dataset":
    """Canonical-document selection: after clustering, keep ONE document
    per duplicate cluster — the longest text, ties to the lowest doc_id
    (real pipelines keep the best-quality member, not an arbitrary one;
    length is the integer-exact stand-in the oracle can mirror).

    Two keyed shuffles, both on hash partitions with vectorized kernels:

      1. repartition join (union + the keyed exchange) attaching each
         corpus doc's component label on doc_id hash; docs absent from
         the pair graph are singletons (component = own id) via the
         miss branch of the sorted-key lookup — the LEFT JOIN semantics.
      2. per-partition argmax on component hash: lexsort by (component,
         -len, doc_id) and take each component's first row.  Cluster
         membership counts ride along from the same sort.

    Nothing driver-side; both shuffles move (int64, int64, int64) rows."""
    P = wide_partitions()
    comp = connected_components(simhash_pairs(sf_dir))
    corpus = dup_corpus(sf_dir)

    def comp_half(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "key": batch.column("doc_id"),
                "component": batch.column("component"),
                "length": pa.array(np.zeros(len(ids), dtype=np.int64)),
                "is_comp": pa.array(np.ones(len(ids), dtype=bool)),
                "pk": pa.array((ids % P).astype(np.int32), pa.int32()),
            }
        )

    def corp_half(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        lens = pc.cast(pc.utf8_length(batch.column("text")), pa.int64())
        return pa.table(
            {
                "key": batch.column("doc_id"),
                "component": pa.array(np.zeros(len(ids), dtype=np.int64)),
                "length": lens,
                "is_comp": pa.array(np.zeros(len(ids), dtype=bool)),
                "pk": pa.array((ids % P).astype(np.int32), pa.int32()),
            }
        )

    halves = comp.map_batches(
        comp_half, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        corpus.map_batches(corp_half, batch_format="pyarrow", zero_copy_batch=True)
    )

    def attach(group: pa.Table) -> pa.Table:
        is_comp = group.column("is_comp").to_numpy(zero_copy_only=False)
        keys = group.column("key").to_numpy(zero_copy_only=False)
        comps = group.column("component").to_numpy(zero_copy_only=False)
        lens = group.column("length").to_numpy(zero_copy_only=False)
        ck, cc = keys[is_comp], comps[is_comp]
        order = np.argsort(ck)
        ck, cc = ck[order], cc[order]
        qk, ql = keys[~is_comp], lens[~is_comp]
        if len(ck):
            pos = np.clip(np.searchsorted(ck, qk), 0, len(ck) - 1)
            hit = ck[pos] == qk
            comp_out = np.where(hit, cc[pos], qk)
        else:
            comp_out = qk
        return pa.table(
            {
                "component": pa.array(comp_out, pa.int64()),
                "doc_id": pa.array(qk, pa.int64()),
                "length": pa.array(ql, pa.int64()),
                "ck": pa.array((comp_out % P).astype(np.int32), pa.int32()),
            }
        )

    labeled = exchange(halves, "pk", P, attach)

    def select_best(group: pa.Table) -> pa.Table:
        comps = group.column("component").to_numpy(zero_copy_only=False)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        lens = group.column("length").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -lens, comps))
        comps_s, ids_s = comps[order], ids[order]
        first = np.ones(len(comps_s), dtype=bool)
        first[1:] = comps_s[1:] != comps_s[:-1]
        _, counts = np.unique(comps_s, return_counts=True)
        return pa.table(
            {
                "component": pa.array(comps_s[first], pa.int64()),
                "keep_id": pa.array(ids_s[first], pa.int64()),
                "n_members": pa.array(counts, pa.int64()),
            }
        )

    return exchange(labeled, "ck", P, select_best).select_columns(
        ["component", "keep_id", "n_members"]
    )


DEDUP_KEEP_BEST_SQL = f"""
WITH RECURSIVE pairs AS ({SIMHASH_PAIRS_SQL}),
edges AS (
  SELECT id_a AS u, id_b AS v FROM pairs
  UNION ALL SELECT id_b, id_a FROM pairs
),
nodes AS (SELECT DISTINCT u AS node FROM edges),
reach(node, label) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT e.v AS node, r.label
  FROM reach r JOIN edges e ON e.u = r.node
  WHERE r.label < e.v
),
comp AS (SELECT node AS doc_id, min(label) AS component FROM reach GROUP BY node),
corpus AS ({DUP_CORPUS_SQL}),
labeled AS (
  SELECT COALESCE(k.component, c.doc_id) AS component,
         c.doc_id,
         length(c.text) AS len
  FROM corpus c LEFT JOIN comp k ON k.doc_id = c.doc_id
),
ranked AS (
  SELECT component, doc_id,
         row_number() OVER (
           PARTITION BY component ORDER BY len DESC, doc_id ASC
         ) AS rn,
         count(*) OVER (PARTITION BY component) AS n_members
  FROM labeled
)
SELECT component, doc_id AS keep_id, n_members FROM ranked WHERE rn = 1
"""


# -- snapshot diff (CDC between table versions) ------------------------------

_DIFF_ADD_OFFSET = 2_000_000


def _snapshot_b(batch: pa.Table) -> pa.Table:
    """Derive snapshot B from A deterministically (mirrored in SQL):
    doc_id % 11 == 0 deleted; % 7 == 0 text-modified; % 13 == 0 also
    re-inserted under doc_id + offset (added)."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    if len(ids) and int(ids.max()) >= _DIFF_ADD_OFFSET:
        raise ValueError(
            "doc_id >= _DIFF_ADD_OFFSET would collide with synthesized "
            "added keys — raise the offset"
        )
    texts = batch.column("text").to_pylist()
    out_ids: list[int] = []
    out_txt: list[str] = []
    for i, t in zip(ids, texts):
        i = int(i)
        if i % 11 != 0:
            out_ids.append(i)
            out_txt.append(t + " v2" if i % 7 == 0 else t)
        if i % 13 == 0:
            out_ids.append(i + _DIFF_ADD_OFFSET)
            out_txt.append(t)
    return pa.table(
        {
            "doc_id": pa.array(out_ids, pa.int64()),
            "text": pa.array(out_txt, pa.string()),
        }
    )


def snapshot_diff(sf_dir: str) -> "ray.data.Dataset":
    """Snapshot diff / CDC between two table versions: every key is
    classified unchanged / changed / added / deleted by comparing
    content hashes — the incremental-ingest primitive (what changed
    since the last crawl?).

    Scale shape: each side is reduced to fixed-width (key, md5) rows in
    a narrow stage — the text never shuffles; the comparison is ONE
    repartition join (left-outer A→B for unchanged/changed/deleted,
    anti B→A for added) over the once-materialized hash tables.  Snapshot
    B is synthesized deterministically from A here (no second snapshot
    exists in the fixtures); with a real second table, pass it as the
    right side unchanged."""
    import hashlib

    from ._util import read_parquet_clean
    from .relational import repartition_join  # type: ignore

    a = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def hashed(batch: pa.Table) -> pa.Table:
        hs = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in batch.column("text").to_pylist()
        ]
        return pa.table(
            {"doc_id": batch.column("doc_id"), "h": pa.array(hs, pa.string())}
        )

    def rename_h(name: str):
        def fn(batch: pa.Table) -> pa.Table:
            return batch.rename_columns(["doc_id", name])

        return fn

    # Both hash tables feed TWO joins each; materialize the fixed-width
    # (key, md5) rows once so the read + hashing lineage doesn't
    # re-execute per consumer (the repo's convention for reused
    # datasets — these are orders of magnitude smaller than the text).
    a_h = (
        a.map_batches(hashed, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(rename_h("h_a"), batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )
    b_h = (
        a.map_batches(_snapshot_b, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(hashed, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(rename_h("h_b"), batch_format="pyarrow", zero_copy_batch=True)
        .materialize()
    )

    left = repartition_join(
        a_h,
        b_h,
        "doc_id",
        "doc_id",
        [("doc_id", pa.int64()), ("h_a", pa.string())],
        [("h_b", pa.string())],
        how="left",
    )

    def classify(batch: pa.Table) -> pa.Table:
        h_a = batch.column("h_a")
        h_b = batch.column("h_b")
        status = pc.if_else(
            pc.is_null(h_b),
            pa.scalar("deleted"),
            pc.if_else(
                pc.equal(h_a, h_b), pa.scalar("unchanged"), pa.scalar("changed")
            ),
        )
        return pa.table({"doc_id": batch.column("doc_id"), "status": status})

    classified = left.map_batches(
        classify, batch_format="pyarrow", zero_copy_batch=True
    )

    added = repartition_join(
        b_h,
        a_h,
        "doc_id",
        "doc_id",
        [("doc_id", pa.int64()), ("h_b", pa.string())],
        [("h_a", pa.string())],
        how="anti",
    ).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "status": pa.array(["added"] * b.num_rows, pa.string()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    return classified.union(added)


SNAPSHOT_DIFF_SQL = f"""
WITH a AS (SELECT doc_id, md5(text) AS h FROM documents),
b AS (
  SELECT doc_id,
         md5(text || CASE WHEN doc_id % 7 = 0 THEN ' v2' ELSE '' END) AS h
  FROM documents WHERE doc_id % 11 <> 0
  UNION ALL
  SELECT doc_id + {_DIFF_ADD_OFFSET} AS doc_id, md5(text) AS h
  FROM documents WHERE doc_id % 13 = 0
)
SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
       CASE WHEN b.doc_id IS NULL THEN 'deleted'
            WHEN a.doc_id IS NULL THEN 'added'
            WHEN a.h <> b.h THEN 'changed'
            ELSE 'unchanged' END AS status
FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
"""


# -- edit-distance near-dup (symmetric-delete / FastSS neighborhood) ----------


def _deletion_variants(s: str) -> list[str]:
    """The symmetric-delete candidate keys for edit distance <= 1: the
    string itself plus every single-character deletion.  Two strings
    within Levenshtein distance 1 ALWAYS share at least one key
    (substitution at i -> both share del_i; insertion -> the shorter
    string IS a deletion of the longer), so blocking on these keys has
    perfect recall; shared keys do NOT imply distance <= 1 (e.g. 'abcd'
    vs 'bacd' share 'acd' at distance 2), hence the verify step."""
    return [s] + [s[:i] + s[i + 1 :] for i in range(len(s))]


def _ed_le1(s: str, t: str) -> bool:
    """Exact Levenshtein(s, t) <= 1 in O(len) — the verifier for
    symmetric-delete candidates."""
    if s == t:
        return True
    ls, lt = len(s), len(t)
    if ls == lt:
        return sum(1 for a, b in zip(s, t) if a != b) <= 1
    if abs(ls - lt) != 1:
        return False
    if ls > lt:
        s, t, ls = t, s, lt
    i = 0
    while i < ls and s[i] == t[i]:
        i += 1
    return s[i:] == t[i + 1 :]


def fuzzy_name_pairs(sf_dir: str) -> "ray.data.Dataset":
    """All unordered customer pairs whose names are within Levenshtein
    distance 1 — typo-level entity resolution, the edit-distance member
    of the dedup family (exact n-gram Jaccard / MinHash / SimHash cover
    token-level similarity; this covers character-level).

    Scale shape: symmetric-delete (FastSS / SymSpell) blocking — each
    name emits len+1 deletion-variant keys (a length-proportional,
    data-local fan-out, no all-pairs anywhere), candidates co-locate by
    variant hash in ONE keyed shuffle, each partition verifies its
    candidates with an O(len) distance check, and verified pairs dedup
    across buckets in a second keyed shuffle of (a<<32|b) int64 pair
    keys.  Shuffle volume: sum(len+1) fixed-width rows + one int64 per
    verified pair — never the corpus text, never a quadratic blow-up
    (identical hot names are the only quadratic term, and that is
    output-bound)."""
    from ._util import blake2_u63, read_parquet_clean, run_bounds

    ds = read_parquet_clean(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    )

    def emit_variants(batch: pa.Table) -> pa.Table:
        keys = batch.column("c_custkey").to_numpy(zero_copy_only=False)
        names = batch.column("c_name").to_pylist()
        # Python loop by necessity (per-row string slicing), but this is
        # a narrow pre-shuffle stage over two small columns — the same
        # dispensation blake2_u63 gets.
        out_k, out_n, out_v = [], [], []
        for k, name in zip(keys, names):
            for v in set(_deletion_variants(name)):
                out_k.append(int(k))
                out_n.append(name)
                out_v.append(v)
        return pa.table(
            {
                "vh": pa.array(blake2_u63(out_v), pa.int64()),
                "custkey": pa.array(np.asarray(out_k, np.int64), pa.int64()),
                "name": pa.array(out_n, pa.string()),
            }
        )

    def verify_kernel(part: pa.Table) -> pa.Table:
        empty = pa.table({"pair": pa.array([], pa.int64())})
        vh = part.column("vh").to_numpy(zero_copy_only=False)
        keys = part.column("custkey").to_numpy(zero_copy_only=False)
        if int(keys.max(initial=0)) >= (1 << 31):
            raise OverflowError("fuzzy_name_pairs: custkey >= 2^31 breaks pair packing")
        names = np.asarray(part.column("name").to_pylist(), dtype=object)
        order = np.lexsort((keys, vh))
        vh, keys, names = vh[order], keys[order], names[order]
        b = run_bounds(vh)
        m = np.diff(b)
        local = np.arange(len(vh), dtype=np.int64) - np.repeat(b[:-1], m)
        total = int(local.sum())
        if total == 0:
            return empty
        seg_start = np.cumsum(local) - local
        ar = np.arange(total, dtype=np.int64) - np.repeat(seg_start, local)
        i_idx = np.repeat(np.repeat(b[:-1], m), local) + ar
        j_idx = np.repeat(np.arange(len(vh), dtype=np.int64), local)
        # verification loop runs once per CANDIDATE — proportional to
        # (near-)output size, not corpus size
        pairs = set()
        for i, j in zip(i_idx, j_idx):
            a, c = int(keys[i]), int(keys[j])
            if a == c:
                continue
            if a > c:
                a, c = c, a
            p = (a << 32) | c
            if p in pairs:
                continue
            if _ed_le1(names[i], names[j]):
                pairs.add(p)
        if not pairs:
            return empty
        return pa.table(
            {"pair": pa.array(np.fromiter(pairs, np.int64, len(pairs)), pa.int64())}
        )

    def dedup_kernel(part: pa.Table) -> pa.Table:
        p = np.unique(part.column("pair").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "custkey_a": pa.array(p >> 32, pa.int64()),
                "custkey_b": pa.array(p & np.int64(0xFFFFFFFF), pa.int64()),
            }
        )

    variants = ds.map_batches(
        emit_variants, batch_format="pyarrow", zero_copy_batch=True
    )
    candidates = partitioned_by_key(variants, "vh", verify_kernel)
    return partitioned_by_key(candidates, "pair", dedup_kernel)


FUZZY_NAME_PAIRS_SQL = """
SELECT CAST(a.c_custkey AS BIGINT) AS custkey_a,
       CAST(b.c_custkey AS BIGINT) AS custkey_b
FROM customer a
JOIN customer b
  ON a.c_custkey < b.c_custkey
 AND abs(length(a.c_name) - length(b.c_name)) <= 1
 AND levenshtein(a.c_name, b.c_name) <= 1
ORDER BY 1, 2
"""


# -- duplicate-cluster size distribution ---------------------------------------


def dup_cluster_size_hist(sf_dir: str) -> "ray.data.Dataset":
    """Distribution of duplicate-cluster sizes (how many clusters have
    2 docs, 3 docs, ...) — the dedup-health diagnostic run after any
    clustering pass: a fat tail means a boilerplate template is gluing
    unrelated docs together.

    Scale shape: downstream of connected_components (keyed-shuffle
    min-label rounds, no driver state): a component-keyed count, then a
    size-keyed count over ≤ max-cluster-size keys, both through
    ``keyed_aggregate``.  Singleton docs (never paired) are absent from
    the pair graph by construction, so sizes start at 2."""
    sizes = keyed_aggregate(
        dedup_components(sf_dir),
        "component",
        {"cluster_size": ("component", "count")},
    )
    return keyed_aggregate(
        sizes, "cluster_size", {"n_clusters": ("cluster_size", "count")}
    )


DUP_CLUSTER_SIZE_HIST_SQL = f"""
WITH comp AS ({DEDUP_COMPONENTS_SQL}),
sizes AS (SELECT component, count(*) AS sz FROM comp GROUP BY 1)
SELECT CAST(sz AS BIGINT) AS cluster_size,
       CAST(count(*) AS BIGINT) AS n_clusters
FROM sizes GROUP BY 1 ORDER BY 1
"""


# -- train/test leakage audit ---------------------------------------------------


def split_leakage_audit(sf_dir: str) -> "ray.data.Dataset":
    """Near-duplicate pairs that straddle the NAIVE per-document hash
    split — the leakage diagnostic that motivates cluster_aware_split:
    a train/test pair of near-dups inflates eval scores, and a pure
    doc-id hash split (sample_split's rule) produces them in proportion
    to the dup rate.  Output: (split_a, split_b, n_pairs) with the pair
    normalized lexically.

    Scale shape: downstream of simhash_pairs (banded, sub-quadratic);
    the split label derives locally from each id via the shared md5
    permille rule (sampling._split_names — no join against a split
    table), and ``keyed_aggregate`` counts the pairs per (split, split)
    key: each call pre-combines to ≤9 rows, and the final rollup is
    O(9)."""
    from .sampling import _split_names

    def splits(batch: pa.Table) -> pa.Table:
        # _split_names hashes raw ids itself
        sa = _split_names(batch.column("id_a").to_numpy(zero_copy_only=False))
        sb = _split_names(batch.column("id_b").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "split_a": pa.array(np.minimum(sa, sb), pa.string()),
                "split_b": pa.array(np.maximum(sa, sb), pa.string()),
            }
        )

    return keyed_aggregate(
        simhash_pairs(sf_dir).map_batches(
            splits, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["split_a", "split_b"],
        {"n_pairs": ("split_a", "count")},
    )


_SPLIT_CASE = """CASE WHEN md5_number_lower({col}::VARCHAR) % 1000 < 980 THEN 'train'
         WHEN md5_number_lower({col}::VARCHAR) % 1000 < 990 THEN 'valid'
         ELSE 'test' END"""

SPLIT_LEAKAGE_AUDIT_SQL = f"""
WITH pairs AS ({SIMHASH_PAIRS_SQL}),
s AS (
  SELECT {_SPLIT_CASE.format(col="id_a")} AS sa,
         {_SPLIT_CASE.format(col="id_b")} AS sb
  FROM pairs
)
SELECT least(sa, sb) AS split_a,
       greatest(sa, sb) AS split_b,
       CAST(count(*) AS BIGINT) AS n_pairs
FROM s GROUP BY 1, 2 ORDER BY 1, 2
"""


# -- sorted-neighborhood method (SNM) candidate pairs -------------------------


def snm_dup_pairs(sf_dir: str, w: int = 4, prefix: int = 32) -> "ray.data.Dataset":
    """Sorted-Neighborhood Method (Hernandez & Stolfo 1995) duplicate
    blocking: order the corpus by a cheap sort key (whitespace token
    count, then doc_id), slide a window of `w` over the GLOBAL sorted
    order, and emit candidate pairs whose first `prefix` characters
    match — the classic entity-resolution alternative to hash blocking
    (near-dups have near-equal lengths, so they land in the same
    window even when no shingle hash collides).

    Scale shape: exact global ranks WITHOUT a global sort — the sort
    key has a bounded domain (token counts), so stage 1 builds a
    driver-bounded histogram whose exclusive prefix sums are exact rank
    offsets (the percent_rank machinery); stage 2 is one token-count-
    keyed shuffle assigning ranks vectorized.  The window self-join is
    then ONE more keyed shuffle on bucket = rank // w, each row ghosted
    to bucket-1, so every (r, r+d<=w) pair is co-located exactly once;
    the kernel finds partners by pure position offset (consecutive
    ranks), never a per-row scan.  Nothing materializes beyond the
    histogram."""
    from .text import read_documents

    TOKEN_RE = r"\S+"

    def features(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n": pc.cast(
                    pc.count_substring_regex(text, pattern=TOKEN_RE), pa.int64()
                ),
                "p": pc.utf8_slice_codeunits(text, 0, prefix),
            }
        )

    feats = read_documents(sf_dir).map_batches(
        features, batch_format="pyarrow", zero_copy_batch=True
    )
    return _snm_window_pairs(feats, w)


def _snm_window_pairs(feats: "ray.data.Dataset", w: int) -> "ray.data.Dataset":
    """Window-pair engine shared by the SNM passes: exact global ranks
    for the (n, doc_id) order via the bounded-histogram trick, then
    bucket-ghost co-location with position-offset partners.  ``feats``
    must carry (doc_id, n, p); a pair qualifies when p is equal."""
    from ._util import run_bounds

    import ray

    from ._util import ensure_columns

    # stage 1: bounded histogram of the sort key -> exact rank offsets
    hist = ensure_columns(
        keyed_aggregate(
            feats.select_columns(["n"]), "n", {"c": ("n", "count")}
        ).to_pandas(),  # bounded: token-count domain, not corpus size
        ["n", "c"],
    ).sort_values("n")
    nvals = hist["n"].to_numpy(dtype=np.int64)
    counts = hist["c"].to_numpy(dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]) if len(counts) else counts
    off_ref = ray.put((nvals, offsets))

    def _doc_ids(part: pa.Table):
        # doc_id may be integer or string; the within-key tiebreak order
        # (and the output dtype) must follow the NATIVE type, matching
        # the oracle's ORDER BY collation.
        col = part.schema.field("doc_id").type
        if pa.types.is_integer(col):
            return (
                part.column("doc_id")
                .cast(pa.int64())
                .to_numpy(zero_copy_only=False),
                pa.int64(),
            )
        return np.asarray(part.column("doc_id").to_pylist(), dtype=str), pa.string()

    # stage 2: one keyed shuffle assigns exact global ranks + window buckets
    def rank_kernel(part: pa.Table) -> pa.Table:
        nv, off = ray.get(off_ref)
        doc, idt = _doc_ids(part)
        n = part.column("n").to_numpy(zero_copy_only=False)
        p = np.asarray(part.column("p").to_pylist(), dtype=object)
        order = np.lexsort((doc, n))
        doc, n, p = doc[order], n[order], p[order]
        bounds = run_bounds(n)
        pos = np.arange(len(n), dtype=np.int64)
        pos -= np.repeat(bounds[:-1], np.diff(bounds))  # within-run position
        rank = off[np.searchsorted(nv, n)] + pos
        b = rank // w
        ghost = b >= 1
        return pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate([doc, doc[ghost]]).tolist(), idt
                ),
                "p": pa.array(
                    np.concatenate([p, p[ghost]]).tolist(), pa.string()
                ),
                "rank": pa.array(np.concatenate([rank, rank[ghost]]), pa.int64()),
                "b": pa.array(np.concatenate([b, b[ghost] - 1]), pa.int64()),
            }
        )

    ranked = partitioned_by_key(feats, "n", rank_kernel)

    # stage 3: window pairs by position offset inside complete rank runs
    def pair_kernel(part: pa.Table) -> pa.Table:
        idt = (
            pa.int64()
            if pa.types.is_integer(part.schema.field("doc_id").type)
            else pa.string()
        )
        empty = pa.table(
            {
                "doc_a": pa.array([], idt),
                "doc_b": pa.array([], idt),
                "gap": pa.array([], pa.int64()),
            }
        )
        doc, idt = _doc_ids(part)
        p = np.asarray(part.column("p").to_pylist(), dtype=object)
        rank = part.column("rank").to_numpy(zero_copy_only=False)
        b = part.column("b").to_numpy(zero_copy_only=False)
        order = np.lexsort((rank, b))
        doc, p, rank, b = doc[order], p[order], rank[order], b[order]
        out_a, out_b, gaps = [], [], []
        for d in range(1, w + 1):
            if len(rank) <= d:
                break
            i = np.arange(len(rank) - d)
            ok = (
                (b[i] == b[i + d])
                & (rank[i + d] - rank[i] == d)
                & (rank[i] // w == b[i])  # anchor only in its own bucket
                & (p[i] == p[i + d])
            )
            out_a.append(doc[i][ok])
            out_b.append(doc[i + d][ok])
            gaps.append(np.full(int(ok.sum()), d, dtype=np.int64))
        if not out_a:
            return empty
        return pa.table(
            {
                "doc_a": pa.array(np.concatenate(out_a).tolist(), idt),
                "doc_b": pa.array(np.concatenate(out_b).tolist(), idt),
                "gap": pa.array(np.concatenate(gaps), pa.int64()),
            }
        )

    return partitioned_by_key(ranked, "b", pair_kernel)


SNM_DUP_PAIRS_SQL = r"""
WITH t AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '\S+')) AS n,
         substr(text, 1, 32) AS p,
         row_number() OVER (
           ORDER BY len(regexp_extract_all(text, '\S+')), doc_id
         ) AS rn
  FROM documents
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(b.rn - a.rn AS BIGINT) AS gap
FROM t a JOIN t b ON b.rn > a.rn AND b.rn <= a.rn + 4 AND a.p = b.p
"""


def snm_multipass_pairs(
    sf_dir: str, w: int = 4, prefix: int = 32
) -> "ray.data.Dataset":
    """Multi-pass SNM — Hernandez & Stolfo's production variant: a
    single sort key misses duplicates that disagree on that key, so run
    the window under TWO independent orders (pass 1: whitespace token
    count; pass 2: character count) and union the candidate pairs.
    Pairs normalize to (min id, max id) and dedupe distributed.

    Scale shape: each pass is the shared _snm_window_pairs engine (two
    bounded-histogram keyed shuffles of narrow rows); the union is a
    stream concat and the distinct is ONE ``keyed_aggregate`` on the pair —
    multi-pass costs exactly pass-count × single-pass, the published
    trade."""
    from .text import read_documents

    def features(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "nt": pc.cast(
                    pc.count_substring_regex(text, pattern=r"\S+"), pa.int64()
                ),
                "nc": pc.cast(pc.utf8_length(text), pa.int64()),
                "p": pc.utf8_slice_codeunits(text, 0, prefix),
            }
        )

    feats = read_documents(sf_dir).map_batches(
        features, batch_format="pyarrow", zero_copy_batch=True
    )
    p1 = _snm_window_pairs(
        feats.select_columns(["doc_id", "nt", "p"]).rename_columns({"nt": "n"}),
        w,
    )
    p2 = _snm_window_pairs(
        feats.select_columns(["doc_id", "nc", "p"]).rename_columns({"nc": "n"}),
        w,
    )

    def normalize(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a")
        b = batch.column("doc_b")
        return pa.table(
            {
                "doc_a": pc.min_element_wise(a, b),
                "doc_b": pc.max_element_wise(a, b),
            }
        )

    return keyed_aggregate(
        p1.union(p2).map_batches(
            normalize, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["doc_a", "doc_b"],
        {"n": ("doc_a", "count")},
    ).select_columns(["doc_a", "doc_b"])


SNM_MULTIPASS_PAIRS_SQL = r"""
WITH t1 AS (
  SELECT doc_id, substr(text, 1, 32) AS p,
         row_number() OVER (
           ORDER BY len(regexp_extract_all(text, '\S+')), doc_id
         ) AS rn
  FROM documents
),
t2 AS (
  SELECT doc_id, substr(text, 1, 32) AS p,
         row_number() OVER (ORDER BY length(text), doc_id) AS rn
  FROM documents
),
u AS (
  SELECT least(a.doc_id, b.doc_id) AS da, greatest(a.doc_id, b.doc_id) AS db
  FROM t1 a JOIN t1 b ON b.rn > a.rn AND b.rn <= a.rn + 4 AND a.p = b.p
  UNION
  SELECT least(a.doc_id, b.doc_id), greatest(a.doc_id, b.doc_id)
  FROM t2 a JOIN t2 b ON b.rn > a.rn AND b.rn <= a.rn + 4 AND a.p = b.p
)
SELECT da AS doc_a, db AS doc_b FROM u
"""


# -- gram novelty (corpus redundancy growth) -----------------------------------


def gram_novelty(sf_dir: str, k: int = 3) -> pa.Table:
    """Per-document novelty: the fraction of a doc's distinct word
    k-grams whose FIRST corpus occurrence (minimum doc_id) is this doc —
    the redundancy-growth curve a crawl scheduler / corpus mixer reads
    to decide when more data stops adding information (docs with fewer
    than k tokens have no grams and are absent, both sides).

    Scale shape: two partition-keyed shuffles of fixed-width rows, both
    with vectorized kernels — (1) shingle-hash partitions compute each
    gram's min doc_id with one lexsort + run-head sweep and emit
    per-(partition, doc) partial novel counts; (2) doc_id partitions
    fold the partials with reduceat.  The Jaccard-denominator trick
    travels here too: each row carries its doc's distinct-gram count
    n_sh, so no size table is ever broadcast or joined.  Grams shuffle
    as 8-byte hashes, never strings (same collision caveat as
    ngram_jaccard_pairs: exact absent 64-bit collisions)."""
    from ._util import read_parquet_clean, run_bounds

    ds = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    shingles = ds.map_batches(
        lambda b: _shingle_batch(b, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def firsts_kernel(part: pa.Table) -> pa.Table:
        sh = part.column("shingle").to_numpy(zero_copy_only=False)
        doc = part.column("doc_id").to_numpy(zero_copy_only=False)
        nsh = part.column("n_sh").to_numpy(zero_copy_only=False)
        order = np.lexsort((doc, sh))
        sh, doc, nsh = sh[order], doc[order], nsh[order]
        b = run_bounds(sh)
        novel = np.zeros(len(sh), dtype=np.int64)
        novel[b[:-1]] = 1  # run head = min doc_id of the gram
        # fold to one (doc, novel_cnt, n_sh) partial per doc in partition
        o2 = np.argsort(doc, kind="stable")
        doc, novel, nsh = doc[o2], novel[o2], nsh[o2]
        d = run_bounds(doc)
        return pa.table(
            {
                "doc_id": pa.array(doc[d[:-1]], pa.int64()),
                "novel_part": pa.array(
                    np.add.reduceat(novel, d[:-1]), pa.int64()
                ),
                "n_sh": pa.array(nsh[d[:-1]], pa.int64()),
            }
        )

    partials = partitioned_by_key(shingles, "shingle", firsts_kernel)

    def fold_kernel(part: pa.Table) -> pa.Table:
        doc = part.column("doc_id").to_numpy(zero_copy_only=False)
        nov = part.column("novel_part").to_numpy(zero_copy_only=False)
        nsh = part.column("n_sh").to_numpy(zero_copy_only=False)
        order = np.argsort(doc, kind="stable")
        doc, nov, nsh = doc[order], nov[order], nsh[order]
        b = run_bounds(doc)
        d_ids = doc[b[:-1]]
        novel = np.add.reduceat(nov, b[:-1])
        n_grams = nsh[b[:-1]]
        return pa.table(
            {
                "doc_id": pa.array(d_ids, pa.int64()),
                "n_grams": pa.array(n_grams, pa.int64()),
                "novel": pa.array(novel, pa.int64()),
                "novelty_permille": pa.array(
                    1000 * novel // n_grams, pa.int64()
                ),
            }
        )

    from ._util import ensure_columns

    df = ensure_columns(
        partitioned_by_key(partials, "doc_id", fold_kernel).to_pandas(),
        ["doc_id", "n_grams", "novel", "novelty_permille"],
    )
    return pa.Table.from_pandas(
        df.sort_values("doc_id").reset_index(drop=True), preserve_index=False
    )


GRAM_NOVELTY_SQL = """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
  FROM documents
),
sh AS (
  SELECT DISTINCT doc_id, ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] AS shingle
  FROM toks, UNNEST(range(1, len(ts) - 1)) AS r(i)
),
firsts AS (SELECT shingle, min(doc_id) AS first_doc FROM sh GROUP BY shingle),
per AS (
  SELECT s.doc_id,
         count(*) AS n_grams,
         sum(CASE WHEN f.first_doc = s.doc_id THEN 1 ELSE 0 END) AS novel
  FROM sh s JOIN firsts f USING (shingle)
  GROUP BY s.doc_id
)
SELECT doc_id,
       CAST(n_grams AS BIGINT) AS n_grams,
       CAST(novel AS BIGINT) AS novel,
       CAST(1000 * novel // n_grams AS BIGINT) AS novelty_permille
FROM per ORDER BY doc_id
"""


# -- directed containment pairs (doc-in-doc detection) --------------------------


def containment_pairs(
    sf_dir: str, k: int = 3, permille: int = 900
) -> "ray.data.Dataset":
    """Directed near-duplicate detection by shingle CONTAINMENT
    C(src→dst) = |S_src ∩ S_dst| / |S_src| ≥ permille/1000 — the
    asymmetric complement of Jaccard that catches a document EMBEDDED
    in a larger one (quote farms, boilerplate wrappers, scraped
    articles inside aggregator pages), where Jaccard stays low because
    the union is dominated by the host document.  Runs over dup_corpus
    (known duplicate structure), emits (src_id, dst_id) directed edges.

    Scale shape: identical to ngram_jaccard_pairs — two int-keyed
    shuffles (shingle % P, pair-hash % P), vectorized kernels, both
    docs' shingle-set sizes carried in the pair rows, and the
    threshold test is INTEGER (1000·c ≥ permille·n) so the SQL oracle
    is float-free."""
    shingled = dup_corpus(sf_dir).map_batches(
        lambda b: _shingle_batch(b, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    P = wide_partitions()

    def partition_pairs(group: pa.Table) -> pa.Table:
        sh = group.column("shingle").to_numpy(zero_copy_only=False)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        ns = group.column("n_sh").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, sh))
        sh, ids, ns = sh[order], ids[order], ns[order]
        b = run_bounds(sh)
        i, j = run_pairs(b[:-1], b[1:])
        return pa.table(
            {
                "id_a": pa.array(ids[i], pa.int64()),
                "id_b": pa.array(ids[j], pa.int64()),
                "n_a": pa.array(ns[i], pa.int64()),
                "n_b": pa.array(ns[j], pa.int64()),
            }
        )

    pairs = partitioned_by_key(shingled, "shingle", partition_pairs, P)

    def add_pair_pk(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").to_numpy(zero_copy_only=False)
        b = batch.column("id_b").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "pk", pa.array((a * 1_000_003 + b) % P, pa.int32())
        )

    def count_and_emit(group: pa.Table) -> pa.Table:
        counted = (
            group.select(["id_a", "id_b", "n_a", "n_b"])
            .group_by(["id_a", "id_b"])
            .aggregate([("id_a", "count"), ("n_a", "min"), ("n_b", "min")])
        )
        c = counted.column("id_a_count").to_numpy(zero_copy_only=False)
        a = counted.column("id_a").to_numpy(zero_copy_only=False)
        b = counted.column("id_b").to_numpy(zero_copy_only=False)
        na = counted.column("n_a_min").to_numpy(zero_copy_only=False)
        nb = counted.column("n_b_min").to_numpy(zero_copy_only=False)
        fwd = 1000 * c >= permille * na  # a contained in b
        rev = 1000 * c >= permille * nb  # b contained in a
        return pa.table(
            {
                "src_id": pa.array(
                    np.concatenate([a[fwd], b[rev]]), pa.int64()
                ),
                "dst_id": pa.array(
                    np.concatenate([b[fwd], a[rev]]), pa.int64()
                ),
            }
        )

    return exchange(
        pairs.map_batches(add_pair_pk, batch_format="pyarrow", zero_copy_batch=True),
        "pk",
        P,
        count_and_emit,
    )


CONTAINMENT_PAIRS_SQL = f"""
WITH corpus AS ({DUP_CORPUS_SQL}),
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts FROM corpus
),
sh AS (
  SELECT DISTINCT doc_id, ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] AS shingle
  FROM toks, UNNEST(range(1, len(ts) - 1)) AS r(i)
  WHERE len(ts) >= 3
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, count(*) AS c
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
),
directed AS (
  SELECT id_a AS src_id, id_b AS dst_id
  FROM inter JOIN sizes sa ON sa.doc_id = id_a
  WHERE 1000 * c >= 900 * sa.n
  UNION ALL
  SELECT id_b AS src_id, id_a AS dst_id
  FROM inter JOIN sizes sb ON sb.doc_id = id_b
  WHERE 1000 * c >= 900 * sb.n
)
SELECT src_id, dst_id FROM directed
"""


# -- entity resolution: fuzzy pairs → entity clusters ----------------------------


def entity_clusters(sf_dir: str) -> pa.Table:
    """End-to-end entity resolution on the customer table: the
    symmetric-delete edit-distance≤1 blocking of fuzzy_name_pairs
    produces the match edges, connected_components folds them into
    entity clusters (entity id = min custkey) — the full
    record-linkage pipeline (block → match → cluster) that billing /
    identity systems run, composed from two already-verified stages.
    Customers with no fuzzy match are singleton entities and appear
    with entity = custkey (both sides).

    Scale shape: inherits its stages' shapes — blocking is two keyed
    shuffles of deletion-variant hashes; clustering is the volume-
    routed CC (one-task fold for small edge graphs, O(log diameter)
    keyed-shuffle rounds above the limit); the singleton fill is a
    broadcast anti-join (component map is bounded by matched nodes).

    Oracle note: the recursive-CTE closure enumerates O(m²) (node,
    label) pairs on an m-node chain component — synthetic names at
    sf0.1 form one giant near-chain, so the ORACLE (not the Ray side,
    which volume-routes) is certified at sf0.001/sf0.01, the driver's
    gate scale."""
    from ._util import ensure_columns, read_parquet_clean

    edges = fuzzy_name_pairs(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "id_a": b.column("custkey_a"),
                "id_b": b.column("custkey_b"),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    comp = ensure_columns(
        connected_components(edges).to_pandas(),  # bounded by matched nodes
        ["doc_id", "component"],
    )
    comp_map = dict(
        zip(comp["doc_id"].astype("int64"), comp["component"].astype("int64"))
    )
    comp_ref = ray.put(comp_map)

    def assign(batch: pa.Table) -> pa.Table:
        m = ray.get(comp_ref)
        ck = batch.column("c_custkey").to_numpy(zero_copy_only=False)
        ent = np.fromiter((m.get(int(k), int(k)) for k in ck), np.int64, len(ck))
        return pa.table(
            {
                "custkey": pa.array(ck.astype(np.int64), pa.int64()),
                "entity": pa.array(ent, pa.int64()),
            }
        )

    df = ensure_columns(
        read_parquet_clean(f"{sf_dir}/customer.parquet", columns=["c_custkey"])
        .map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas(),
        ["custkey", "entity"],
    )
    return pa.Table.from_pandas(
        df.sort_values("custkey").reset_index(drop=True), preserve_index=False
    )


ENTITY_CLUSTERS_SQL = f"""
WITH RECURSIVE pairs AS ({FUZZY_NAME_PAIRS_SQL.replace("ORDER BY 1, 2", "")}),
edges AS (
  SELECT custkey_a AS u, custkey_b AS v FROM pairs
  UNION ALL SELECT custkey_b, custkey_a FROM pairs
),
nodes AS (SELECT DISTINCT u AS node FROM edges),
reach(node, label) AS (
  SELECT node, node FROM nodes
  UNION
  SELECT e.v AS node, r.label
  FROM reach r JOIN edges e ON e.u = r.node
  WHERE r.label < e.v
)
SELECT CAST(c.c_custkey AS BIGINT) AS custkey,
       CAST(COALESCE(m.component, c.c_custkey) AS BIGINT) AS entity
FROM customer c
LEFT JOIN (
  SELECT node, min(label) AS component FROM reach GROUP BY node
) m ON m.node = c.c_custkey
ORDER BY 1
"""


# -- blocking-quality evaluation -----------------------------------------------


def blocking_recall_report(sf_dir: str) -> pa.Table:
    """Entity-resolution blocking evaluated against ground truth: treat
    the simhash hamming-ball pairs as the true near-duplicate set and
    score the Sorted-Neighborhood candidate pairs against it — the
    candidate-count vs recall trade-off every blocking strategy must
    report before it replaces an all-pairs comparison.  Emits one row:
    (n_true, n_candidates, n_hits, recall_permille).  On the synthetic
    corpus the measured recall is 0 — SNM's token-count ordering and
    32-char prefix test see a different similarity notion than the
    simhash ball; that mismatch is the finding, not a defect (the
    non-empty intersection path is pinned by pytest).

    Scale shape: both pair sets stay distributed; pairs pack into one
    int64 key (doc ids < 2^31 guarded upstream), union + one keyed
    rollup ORs the two membership flags, and per-batch folds reduce to
    three scalars — the pair sets never gather."""
    from ray.data.aggregate import Sum

    def tag(cols: tuple[str, str], is_true: int):
        a_col, b_col = cols

        def fn(batch: pa.Table) -> pa.Table:
            a = batch.column(a_col).to_numpy(zero_copy_only=False).astype(np.int64)
            b = batch.column(b_col).to_numpy(zero_copy_only=False).astype(np.int64)
            if len(a) and (a.max() >= 1 << 31 or b.max() >= 1 << 31):
                raise OverflowError("pair key exceeds packed int64 range")
            # normalize orientation: SNM orders pairs by sort-key rank,
            # simhash by doc id — (min, max) makes the keys comparable
            a, b = np.minimum(a, b), np.maximum(a, b)
            return pa.table(
                {
                    "k": pa.array((a << 32) | b, pa.int64()),
                    "is_true": pa.array(
                        np.full(len(a), is_true, np.int64), pa.int64()
                    ),
                    "is_cand": pa.array(
                        np.full(len(a), 1 - is_true, np.int64), pa.int64()
                    ),
                }
            )

        return fn

    t = simhash_pairs(sf_dir).map_batches(
        tag(("id_a", "id_b"), 1), batch_format="pyarrow", zero_copy_batch=True
    )
    c = snm_dup_pairs(sf_dir).map_batches(
        tag(("doc_a", "doc_b"), 0), batch_format="pyarrow", zero_copy_batch=True
    )

    def fold(batch: pa.Table) -> pa.Table:
        it = batch.column("is_true").to_numpy(zero_copy_only=False)
        ic = batch.column("is_cand").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n_true": pa.array([int((it > 0).sum())], pa.int64()),
                "n_candidates": pa.array([int((ic > 0).sum())], pa.int64()),
                "n_hits": pa.array(
                    [int(((it > 0) & (ic > 0)).sum())], pa.int64()
                ),
            }
        )

    agg = (
        keyed_aggregate(
            t.union(c),
            "k",
            {"is_true": ("is_true", "sum"), "is_cand": ("is_cand", "sum")},
        )
        .map_batches(fold, batch_format="pyarrow", zero_copy_batch=True)
        .aggregate(
            Sum("n_true", alias_name="n_true"),
            Sum("n_candidates", alias_name="n_candidates"),
            Sum("n_hits", alias_name="n_hits"),
        )
    )
    n_true = int(agg.get("n_true") or 0)
    n_cand = int(agg.get("n_candidates") or 0)
    n_hits = int(agg.get("n_hits") or 0)
    return pa.table(
        {
            "n_true": pa.array([n_true], pa.int64()),
            "n_candidates": pa.array([n_cand], pa.int64()),
            "n_hits": pa.array([n_hits], pa.int64()),
            "recall_permille": pa.array(
                [1000 * n_hits // n_true if n_true else 0], pa.int64()
            ),
        }
    )


BLOCKING_RECALL_REPORT_SQL = f"""
WITH t AS ({SIMHASH_PAIRS_SQL}),
c AS ({SNM_DUP_PAIRS_SQL}),
j AS (
  SELECT count(*) AS n_hits
  FROM t JOIN c ON least(t.id_a, t.id_b) = least(c.doc_a, c.doc_b)
             AND greatest(t.id_a, t.id_b) = greatest(c.doc_a, c.doc_b)
)
SELECT CAST((SELECT count(*) FROM t) AS BIGINT) AS n_true,
       CAST((SELECT count(*) FROM c) AS BIGINT) AS n_candidates,
       CAST(n_hits AS BIGINT) AS n_hits,
       CAST(CASE WHEN (SELECT count(*) FROM t) > 0
                 THEN 1000 * n_hits // (SELECT count(*) FROM t)
                 ELSE 0 END AS BIGINT) AS recall_permille
FROM j
"""


# -- survivorship merge (golden records) ----------------------------------------


def survivorship_merge(sf_dir: str) -> pa.Table:
    """MDM golden-record construction on top of entity resolution:
    every entity cluster from entity_clusters collapses to ONE
    surviving record under field-level rules — name = longest (ties:
    lexicographically smallest), acctbal = max in exact cents,
    representative key = min custkey — the deterministic survivorship
    step billing systems run after record linkage.

    Scale shape: the (custkey, entity) map re-enters the engine as a
    Dataset and joins customer attributes in ONE custkey-keyed union
    kernel (no broadcast of the map); survivorship itself is a second
    entity-keyed partition kernel — both stages stay distributed even
    when the entity map outgrows driver memory.  Oracle composes the
    recursive-CTE clusters with window-ranked field picks (same sf
    certification note as entity_clusters)."""
    import ray

    from ._util import read_parquet_clean, run_bounds

    ent = ray.data.from_arrow(entity_clusters(sf_dir))

    cust = read_parquet_clean(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_acctbal"]
    )

    def cust_rows(batch: pa.Table) -> pa.Table:
        from ._util import money_cents

        return pa.table(
            {
                "custkey": pc.cast(batch.column("c_custkey"), pa.int64()),
                "entity": pa.array(
                    np.full(batch.num_rows, -1, np.int64), pa.int64()
                ),
                "name": batch.column("c_name"),
                "acctbal_cents": pa.array(
                    money_cents(
                        batch.column("c_acctbal").to_numpy(zero_copy_only=False)
                    ),
                    pa.int64(),
                ),
            }
        )

    def ent_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "custkey": batch.column("custkey"),
                "entity": batch.column("entity"),
                "name": pa.array([""] * n, pa.string()),
                "acctbal_cents": pa.array(np.zeros(n, np.int64), pa.int64()),
            }
        )

    def attach_kernel(part: pa.Table) -> pa.Table:
        ck = part.column("custkey").to_numpy(zero_copy_only=False)
        en = part.column("entity").to_numpy(zero_copy_only=False)
        names = np.asarray(part.column("name").to_pylist(), dtype=object)
        bal = part.column("acctbal_cents").to_numpy(zero_copy_only=False)
        order = np.argsort(ck, kind="stable")
        ck, en, names, bal = ck[order], en[order], names[order], bal[order]
        b = run_bounds(ck)
        lo, hi = b[:-1], b[1:]
        # per-run entity from the map row, repeated over the run; keep
        # only attribute rows (en < 0) whose run has a map row — fully
        # vectorized (no per-row Python loop; review finding)
        ent_full = np.repeat(np.maximum.reduceat(en, lo), hi - lo)
        keep = (en < 0) & (ent_full >= 0)
        return pa.table(
            {
                "custkey": pa.array(ck[keep].astype(np.int64), pa.int64()),
                "entity": pa.array(ent_full[keep].astype(np.int64), pa.int64()),
                "name": pa.array(names[keep].tolist(), pa.string()),
                "acctbal_cents": pa.array(bal[keep].astype(np.int64), pa.int64()),
            }
        )

    tagged = partitioned_by_key(
        cust.map_batches(
            cust_rows, batch_format="pyarrow", zero_copy_batch=True
        ).union(
            ent.map_batches(ent_rows, batch_format="pyarrow", zero_copy_batch=True)
        ),
        "custkey",
        attach_kernel,
    )

    def survive_kernel(part: pa.Table) -> pa.Table:
        en = part.column("entity").to_numpy(zero_copy_only=False)
        ck = part.column("custkey").to_numpy(zero_copy_only=False)
        names = np.asarray(part.column("name").to_pylist(), dtype=object)
        bal = part.column("acctbal_cents").to_numpy(zero_copy_only=False)
        # sort (entity, -name_len, name): the first row of each entity
        # run is then the survivorship pick — one lexsort, no Python
        # per-entity loop (review finding)
        name_len = np.fromiter(
            (len(s) for s in names), dtype=np.int64, count=len(names)
        )
        order = np.lexsort((names, -name_len, en))
        en, ck, names, bal = en[order], ck[order], names[order], bal[order]
        b = run_bounds(en)
        lo, hi = b[:-1], b[1:]
        return pa.table(
            {
                "entity": pa.array(en[lo].astype(np.int64), pa.int64()),
                "n_members": pa.array((hi - lo).astype(np.int64), pa.int64()),
                "rep_custkey": pa.array(
                    np.minimum.reduceat(ck, lo).astype(np.int64), pa.int64()
                ),
                "golden_name": pa.array(names[lo].tolist(), pa.string()),
                "max_acctbal_cents": pa.array(
                    np.maximum.reduceat(bal, lo).astype(np.int64), pa.int64()
                ),
            }
        )

    out = partitioned_by_key(tagged, "entity", survive_kernel).to_pandas()
    from ._util import ensure_columns

    out = ensure_columns(
        out,
        ["entity", "n_members", "rep_custkey", "golden_name",
         "max_acctbal_cents"],
    ).sort_values("entity")
    return pa.table(
        {
            "entity": pa.array(out["entity"].to_numpy().astype(np.int64), pa.int64()),
            "n_members": pa.array(
                out["n_members"].to_numpy().astype(np.int64), pa.int64()
            ),
            "rep_custkey": pa.array(
                out["rep_custkey"].to_numpy().astype(np.int64), pa.int64()
            ),
            "golden_name": pa.array(out["golden_name"], pa.string()),
            "max_acctbal_cents": pa.array(
                out["max_acctbal_cents"].to_numpy().astype(np.int64),
                pa.int64(),
            ),
        }
    )


_EC_BODY = ENTITY_CLUSTERS_SQL

SURVIVORSHIP_MERGE_SQL = f"""
WITH clusters AS ({_EC_BODY}),
j AS (
  SELECT cl.entity, c.c_custkey, c.c_name,
         CAST(floor(c.c_acctbal * 100 + 0.5) AS BIGINT) AS cents
  FROM customer c JOIN clusters cl ON c.c_custkey = cl.custkey
),
pick AS (
  SELECT entity, c_name,
         row_number() OVER (PARTITION BY entity
                            ORDER BY length(c_name) DESC, c_name) AS rn
  FROM j
)
SELECT j.entity,
       CAST(count(*) AS BIGINT) AS n_members,
       CAST(min(j.c_custkey) AS BIGINT) AS rep_custkey,
       any_value(p.c_name) AS golden_name,
       CAST(max(j.cents) AS BIGINT) AS max_acctbal_cents
FROM j JOIN (SELECT entity, c_name FROM pick WHERE rn = 1) p
  USING (entity)
GROUP BY j.entity
ORDER BY j.entity
"""


# -- AllPairs prefix-filtering similarity join (Bayardo et al., WWW'07) ------


def allpairs_jaccard(sf_dir: str, threshold_pct: int = 70, k: int = 3) -> "ray.data.Dataset":
    """Exact Jaccard similarity join by PREFIX FILTERING: every pair of
    documents with shingle-set Jaccard >= threshold, found WITHOUT
    indexing every shingle.  Tokens are totally ordered by ascending
    global document frequency (ties by shingle hash); a document of n
    distinct shingles indexes only its first n - ceil(tau*n) + 1 tokens
    in that order (its "prefix").  The prefix-filtering lemma guarantees
    any pair at or above tau collides on some token BOTH docs hold in
    their prefixes, so candidates come only from prefix collisions —
    on real corpora that skips the high-df tail (stopword shingles)
    that makes a full inverted index quadratic.  Candidates are then
    verified EXACTLY against the full shingle sets.

    Distinct from ngram_jaccard_pairs (full inverted index, same
    semantics): this is the at-scale algorithm when the df distribution
    is heavy-tailed; both return identical pairs at equal thresholds.

    Scale shape — four keyed shuffles, all partition-vectorized:
      (1) shingle-keyed: df attached per run inside the partition
          (co-location makes the count exact; no broadcast df table);
      (2) doc-keyed: per-doc (df, shingle) sort picks the prefix;
      (3) prefix-shingle-keyed: unique candidate pairs per partition
          (_util.run_pairs over the shingle runs);
      (4) the verify is minhash_lsh_pairs' verify="join" plan with
          variable-length set payloads: each candidate splits into two
          half-rows that pick up their doc's FULL sorted shingle set in
          a doc-hash partition (varlen gather, no Python per row), then
          reunite in a pair-hash partition where intersections for ALL
          pairs are counted by one label+value lexsort (each set is
          distinct-valued, so adjacent equal (pair, value) rows count
          the intersection) — no per-pair Python loop.
    Threshold is integer-exact: keep iff 100*inter >= pct*(na+nb-inter).
    """
    from ._util import run_bounds

    P = wide_partitions()
    shingled = dup_corpus(sf_dir).map_batches(
        lambda b: _shingle_batch(b, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()  # feeds stages 1 AND 4: fixed-width (id, hash) rows

    # -- stage 1: attach global df inside shingle-hash partitions -------
    def attach_df(part: pa.Table) -> pa.Table:
        sh = part.column("shingle").to_numpy(zero_copy_only=False)
        ids = part.column("doc_id").to_numpy(zero_copy_only=False)
        ns = part.column("n_sh").to_numpy(zero_copy_only=False)
        order = np.argsort(sh, kind="stable")
        sh, ids, ns = sh[order], ids[order], ns[order]
        b = run_bounds(sh)
        df = np.repeat(np.diff(b), np.diff(b)).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "shingle": pa.array(sh, pa.int64()),
                "n_sh": pa.array(ns, pa.int64()),
                "df": pa.array(df, pa.int64()),
            }
        )

    with_df = partitioned_by_key(shingled, "shingle", attach_df, P=P)

    # -- stage 2: per-doc prefix selection (df asc, shingle asc) --------
    def pick_prefix(part: pa.Table) -> pa.Table:
        ids = part.column("doc_id").to_numpy(zero_copy_only=False)
        sh = part.column("shingle").to_numpy(zero_copy_only=False)
        ns = part.column("n_sh").to_numpy(zero_copy_only=False)
        df = part.column("df").to_numpy(zero_copy_only=False)
        order = np.lexsort((sh, df, ids))
        ids, sh, ns = ids[order], sh[order], ns[order]
        b = run_bounds(ids)
        starts = np.repeat(b[:-1], np.diff(b))
        pos = np.arange(len(ids), dtype=np.int64) - starts
        # ceil(tau*n) with tau = pct/100, all-integer
        lim = ns - (threshold_pct * ns + 99) // 100 + 1
        keep = pos < lim
        return pa.table(
            {
                "shingle": pa.array(sh[keep], pa.int64()),
                "doc_id": pa.array(ids[keep], pa.int64()),
            }
        )

    prefixes = partitioned_by_key(with_df, "doc_id", pick_prefix, P=P)

    # -- stage 3: candidate pairs from prefix collisions ----------------
    def prefix_pairs(part: pa.Table) -> pa.Table:
        sh = part.column("shingle").to_numpy(zero_copy_only=False)
        ids = part.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, sh))
        sh, ids = sh[order], ids[order]
        b = run_bounds(sh)
        i, j = run_pairs(b[:-1], b[1:])
        uniq = np.unique(np.stack([ids[i], ids[j]], axis=1), axis=0)
        return pa.table(
            {
                "id_a": pa.array(uniq[:, 0], pa.int64()),
                "id_b": pa.array(uniq[:, 1], pa.int64()),
            }
        )

    candidates = partitioned_by_key(prefixes, "shingle", prefix_pairs, P=P)

    # -- stage 4: exact verify via set-carry repartition join ------------
    def _empty_list(n: int) -> pa.ListArray:
        return pa.ListArray.from_arrays(
            pa.array(np.zeros(n + 1, dtype=np.int32)), pa.array([], pa.int64())
        )

    def doc_sets(part: pa.Table) -> pa.Table:
        """Per-doc sorted distinct shingle arrays as ONE list column."""
        ids = part.column("doc_id").to_numpy(zero_copy_only=False)
        sh = part.column("shingle").to_numpy(zero_copy_only=False)
        order = np.lexsort((sh, ids))
        ids, sh = ids[order], sh[order]
        b = run_bounds(ids)
        return pa.table(
            {
                "doc_id": pa.array(ids[b[:-1]], pa.int64()),
                "set": pa.ListArray.from_arrays(
                    pa.array(b.astype(np.int32)), pa.array(sh, pa.int64())
                ),
            }
        )

    sets_ds = partitioned_by_key(shingled, "doc_id", doc_sets, P=P)

    def pair_halves(batch: pa.Table) -> pa.Table:
        a = batch.column("id_a").combine_chunks()
        bb = batch.column("id_b").combine_chunks()
        n = batch.num_rows
        key = pa.concat_arrays([a, bb])
        side = np.zeros(2 * n, dtype=np.int8)
        side[n:] = 1
        return pa.table(
            {
                "key": key,
                "id_a": pa.concat_arrays([a, a]),
                "id_b": pa.concat_arrays([bb, bb]),
                "side": pa.array(side),
                "set": _empty_list(2 * n),
                "is_set": pa.array(np.zeros(2 * n, dtype=bool)),
                "kp": pa.array(
                    (key.to_numpy(zero_copy_only=False) % P).astype(np.int32)
                ),
            }
        )

    def set_role(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = batch.num_rows
        return pa.table(
            {
                "key": batch.column("doc_id"),
                "id_a": pa.array(np.zeros(n, dtype=np.int64)),
                "id_b": pa.array(np.zeros(n, dtype=np.int64)),
                "side": pa.array(np.zeros(n, dtype=np.int8)),
                "set": batch.column("set"),
                "is_set": pa.array(np.ones(n, dtype=bool)),
                "kp": pa.array((ids % P).astype(np.int32)),
            }
        )

    halves = candidates.map_batches(
        pair_halves, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        sets_ds.map_batches(set_role, batch_format="pyarrow", zero_copy_batch=True)
    )

    def attach_set(group: pa.Table) -> pa.Table:
        """Varlen gather: every half-row picks up its key's full sorted
        set via binary search + vectorized segment copy."""
        is_set = group.column("is_set").to_numpy(zero_copy_only=False)
        keys = group.column("key").to_numpy(zero_copy_only=False)
        lst = group.column("set").combine_chunks()
        offs = np.asarray(lst.offsets)
        vals = np.asarray(lst.values) if len(lst.values) else np.array([], np.int64)
        # set rows: (key, [start, end) into vals)
        set_rows = np.flatnonzero(is_set)
        skeys = keys[set_rows]
        sstart, send = offs[set_rows], offs[set_rows + 1]
        order = np.argsort(skeys)
        skeys, sstart, send = skeys[order], sstart[order], send[order]
        sel = np.flatnonzero(~is_set)
        pkeys = keys[sel]
        pos = np.clip(np.searchsorted(skeys, pkeys), 0, max(len(skeys) - 1, 0))
        valid = (
            (skeys[pos] == pkeys)
            if len(skeys)
            else np.zeros(len(pkeys), dtype=bool)
        )
        sel = sel[valid]
        pos = pos[valid]
        lens = (send[pos] - sstart[pos]).astype(np.int64)
        total = int(lens.sum())
        out_off = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=out_off[1:])
        gather = (
            np.arange(total, dtype=np.int64)
            + np.repeat(sstart[pos].astype(np.int64) - out_off[:-1], lens)
            if total
            else np.array([], np.int64)
        )
        id_a = group.column("id_a").to_numpy(zero_copy_only=False)[sel]
        id_b = group.column("id_b").to_numpy(zero_copy_only=False)[sel]
        side = group.column("side").to_numpy(zero_copy_only=False)[sel]
        return pa.table(
            {
                "id_a": pa.array(id_a, pa.int64()),
                "id_b": pa.array(id_b, pa.int64()),
                "side": pa.array(side),
                "set": pa.ListArray.from_arrays(
                    pa.array(out_off.astype(np.int32)),
                    pa.array(vals[gather], pa.int64()),
                ),
                "pp": pa.array(((id_a * 1_000_003 + id_b) % P).astype(np.int32)),
            }
        )

    attached = exchange(halves, "kp", P, attach_set)

    def combine_and_verify(group: pa.Table) -> pa.Table:
        """Dedup duplicate halves (same pair via several prefix tokens),
        align the two halves of each pair, then count ALL intersections
        with one (pair-label, value) lexsort — adjacent equal values
        under the same label are exactly the common shingles."""
        a = group.column("id_a").to_numpy(zero_copy_only=False)
        b = group.column("id_b").to_numpy(zero_copy_only=False)
        sd = group.column("side").to_numpy(zero_copy_only=False)
        lst = group.column("set").combine_chunks()
        offs = np.asarray(lst.offsets)
        vals = np.asarray(lst.values) if len(lst.values) else np.array([], np.int64)
        order = np.lexsort((sd, b, a))
        first = np.ones(len(order), dtype=bool)
        ao, bo, so = a[order], b[order], sd[order]
        first[1:] = (ao[1:] != ao[:-1]) | (bo[1:] != bo[:-1]) | (so[1:] != so[:-1])
        rows = order[first]
        ao, bo = ao[first], bo[first]
        if len(rows) % 2 or not (
            np.array_equal(ao[0::2], ao[1::2]) and np.array_equal(bo[0::2], bo[1::2])
        ):
            raise ValueError("pair halves misaligned in verify partition")
        n_pairs = len(rows) // 2
        if n_pairs == 0:
            z = pa.array([], pa.int64())
            return pa.table({"id_a": z, "id_b": z, "inter": z, "uni": z})
        lens = (offs[rows + 1] - offs[rows]).astype(np.int64)
        total = int(lens.sum())
        out_off = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=out_off[1:])
        gather = np.arange(total, dtype=np.int64) + np.repeat(
            offs[rows].astype(np.int64) - out_off[:-1], lens
        )
        flat = vals[gather]
        # label = pair index (row i belongs to pair i//2)
        label = np.repeat(np.arange(len(rows), dtype=np.int64) // 2, lens)
        o2 = np.lexsort((flat, label))
        flat, label = flat[o2], label[o2]
        eq = (label[1:] == label[:-1]) & (flat[1:] == flat[:-1])
        inter = np.bincount(label[1:][eq], minlength=n_pairs).astype(np.int64)
        na = lens[0::2]
        nb = lens[1::2]
        uni = na + nb - inter
        keep = 100 * inter >= threshold_pct * uni
        return pa.table(
            {
                "id_a": pa.array(ao[0::2][keep], pa.int64()),
                "id_b": pa.array(bo[0::2][keep], pa.int64()),
                "inter": pa.array(inter[keep], pa.int64()),
                "uni": pa.array(uni[keep], pa.int64()),
            }
        )

    return exchange(attached, "pp", P, combine_and_verify)


ALLPAIRS_JACCARD_SQL = f"""
WITH corpus AS ({DUP_CORPUS_SQL}),
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts FROM corpus
),
sh AS (
  SELECT DISTINCT doc_id, ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] AS shingle
  FROM toks, UNNEST(range(1, len(ts) - 1)) AS r(i)
  WHERE len(ts) >= 3
),
sizes AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (
  SELECT a.doc_id AS id_a, b.doc_id AS id_b, CAST(count(*) AS BIGINT) AS c
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY 1, 2
)
SELECT id_a, id_b, c AS inter,
       CAST(sa.n + sb.n - c AS BIGINT) AS uni
FROM inter
JOIN sizes sa ON sa.doc_id = id_a
JOIN sizes sb ON sb.doc_id = id_b
WHERE 100 * c >= 70 * (sa.n + sb.n - c)
"""

"""Similarity search over the embeddings table.

- ``knn_brute``: exact cosine top-k.  The query matrix is broadcast once
  (``ray.put``) and read inside every batch task; each batch computes a
  tie-aware local top-k, then candidates reduce DISTRIBUTED through the
  keyed exchange on query_id (``partitioned_by_key``) under the same
  total order (-sim, id) — the driver only ever sees the
  O(n_queries × k) final rows.
- ``knn_lsh`` / ``knn_ivf``: the scale paths — random-hyperplane LSH
  buckets / spherical-kmeans IVF cells partition the vectors; scoring
  runs DISTRIBUTED on the keyed exchange by bucket or cell, one sort
  and run cut per block, and only bounded candidate rows reach the
  merge.
- Every grouped rollup (kmeans registers, norm bins, dim stats, Gram
  partials) merges through ``keyed_aggregate``.
- ``near_dup_embeddings``: embedding-cosine near-duplicate pairs via
  multiprobe-LSH bucketing + exact per-bucket cosine verify, over a
  corpus with synthesized duplicates (scaled copies — cosine exactly 1
  with the original, SQL-mirrored by NEAR_DUP_SQL).
"""

from __future__ import annotations

import heapq
import logging

import numpy as np
import pyarrow as pa

import ray

from ._util import ensure_columns, keyed_aggregate, read_parquet_clean

_logger = logging.getLogger(__name__)

NEAR_DUP_COPY_OFFSET = 1_000_000


def _load_queries(sf_dir: str, n_queries: int) -> tuple[np.ndarray, np.ndarray]:
    import pyarrow.parquet as pq
    import pyarrow.compute as pc

    # Row-group predicate pushdown: the driver materializes only the
    # query rows, never the corpus (matters when the table is 100 TB).
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n_queries)],
    )
    t = t.filter(pc.less(t.column("vec_id"), n_queries))
    qids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    if len(qids) == 0:  # no query vectors (empty corpus or offset ids)
        return qids, np.zeros((0, 0), dtype=np.float64)
    qm = _embedding_matrix(t.column("embedding"))
    qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    return qids, qm


def _empty_knn_result() -> pa.Table:
    """Typed empty (query_id, neighbor_id, rank) result: the early
    return every knn entry point takes when _load_queries finds no
    query vectors (its (0,0) matrix must never reach a matmul)."""
    return pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "neighbor_id": pa.array([], pa.int64()),
            "rank": pa.array([], pa.int64()),
        }
    )


def _embedding_matrix(col) -> np.ndarray:
    """The rows of a fixed-width embedding list column as a float64
    (rows, dim) matrix, from the flat values (float32 widens exactly, so
    the matrix equals the one built from Python lists).  No rows give
    shape (0,), as ``np.asarray([])`` does."""
    import pyarrow.compute as pc

    flat = pc.list_flatten(col).to_numpy().astype(np.float64)
    return flat.reshape(len(col), -1) if len(col) else flat


def _batch_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
    m = _embedding_matrix(batch.column("embedding"))
    return ids, m


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def _rank_merge(cand_rows: list[dict], k: int) -> pa.Table:
    """Driver-side merge of BOUNDED per-partition top-k candidates into
    final (query_id, neighbor_id, rank) rows, under the total order
    (-sim, neighbor_id) — the same order every partition used for its
    local truncation, so the merge can never need a dropped row."""
    by_query: dict[int, list[tuple[float, int]]] = {}
    for row in cand_rows:
        by_query.setdefault(row["query_id"], []).append(
            (-row["sim"], row["neighbor_id"])
        )
    rows_q: list[int] = []
    rows_n: list[int] = []
    rows_r: list[int] = []
    for qid in sorted(by_query):
        best = heapq.nsmallest(k, by_query[qid])
        for rank, (_, nid) in enumerate(best, start=1):
            rows_q.append(qid)
            rows_n.append(nid)
            rows_r.append(rank)
    return pa.table(
        {
            "query_id": pa.array(rows_q, pa.int64()),
            "neighbor_id": pa.array(rows_n, pa.int64()),
            "rank": pa.array(rows_r, pa.int64()),
        }
    )


def _distributed_rank_reduce(cand: "ray.data.Dataset", k: int) -> pa.Table:
    """Reduce (query_id, neighbor_id, sim) candidates to final ranked
    top-k DISTRIBUTED: the keyed exchange on query_id co-locates each
    query's candidates, and one sort per block ranks every query in it
    under the same total order (-sim, neighbor_id) every producer used
    for its local truncation.  Only the O(n_queries × k) result reaches
    the driver — candidate volume (which grows with corpus size for
    brute force) never does."""
    from ._util import ensure_columns, partitioned_by_key
    from .sampling import _rank_within

    def block_topk(block: pa.Table) -> pa.Table:
        qid = block.column("query_id").to_numpy(zero_copy_only=False)
        nid = block.column("neighbor_id").to_numpy(zero_copy_only=False)
        sim = block.column("sim").to_numpy(zero_copy_only=False)
        order, pos = _rank_within(qid, -sim, nid)
        top = pos < k
        return pa.table(
            {
                "query_id": pa.array(qid[order[top]], pa.int64()),
                "neighbor_id": pa.array(nid[order[top]], pa.int64()),
                "rank": pa.array(pos[top] + 1, pa.int64()),
            }
        )

    reduced = partitioned_by_key(cand, "query_id", block_topk)
    cols = ["query_id", "neighbor_id", "rank"]
    df = ensure_columns(reduced.to_pandas(), cols)  # bounded: n_queries × k rows
    df = df.sort_values(["query_id", "rank"]).reset_index(drop=True)
    return pa.table({c: pa.array(df[c], pa.int64()) for c in cols})


def knn_brute(sf_dir: str, k: int = 10, n_queries: int = 8) -> pa.Table:
    """Exact top-k neighbors by cosine for the first ``n_queries`` vectors.
    Ties broken by vec_id ascending (matches the SQL oracle)."""
    qids, qm = _load_queries(sf_dir, n_queries)
    if len(qids) == 0:
        return _empty_knn_result()
    q_ref = ray.put((qids, qm))

    def local_topk(batch: pa.Table) -> pa.Table:
        q_ids, q_mat = ray.get(q_ref)
        ids, m = _batch_matrix(batch)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = (m / norms) @ q_mat.T  # (batch, nq)
        out_q: list[int] = []
        out_n: list[int] = []
        out_s: list[float] = []
        top = min(k, len(ids))
        for j, qid in enumerate(q_ids):
            col = sims[:, j]
            # Partial top-k per batch under the SAME total order as the
            # final merge, (-sim, vec_id): a plain argpartition picks
            # arbitrarily among candidates tied at the k-th score
            # boundary and can drop a tied neighbor with lower vec_id
            # that the merge then can't recover.
            idx = np.lexsort((ids, -col))[:top]
            for i in idx:
                out_q.append(int(qid))
                out_n.append(int(ids[i]))
                out_s.append(float(col[i]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    candidates = ds.map_batches(
        local_topk, batch_format="pyarrow", zero_copy_batch=True, batch_size=2048
    )
    # Candidate volume is batches × n_queries × k — linear in corpus size,
    # so the reduce must stay distributed (no driver take_all here).
    return _distributed_rank_reduce(candidates, k)


KNN_SQL = """
WITH q AS (
  SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 8
),
scored AS (
  SELECT q.qid,
         e.vec_id,
         row_number() OVER (
           PARTITION BY q.qid
           ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id
         ) AS r
  FROM embeddings e CROSS JOIN q
)
SELECT qid AS query_id, vec_id AS neighbor_id, r AS rank
FROM scored WHERE r <= 10
"""


def knn_filtered(sf_dir: str, k: int = 10, n_queries: int = 8) -> pa.Table:
    """Filtered vector search: exact top-k cosine neighbors RESTRICTED
    to corpus vectors sharing the query's ``label`` (the tenant/shard/
    metadata predicate production ANN services support).  The predicate
    is per-query, so no single read filter applies; it is a vectorized
    label mask on each batch before local truncation (a GLOBAL
    predicate would instead be pushed into read_parquet filters, as
    _load_queries does for the query rows).  Candidate volume stays
    batches × n_queries × k and the final top-k reduce is the same
    distributed query_id exchange as knn_brute — nothing unbounded
    reaches the driver.  Ties broken by vec_id, self-match included."""
    import pyarrow.parquet as pq

    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "<", n_queries)],
    )
    qids = np.asarray(qt.column("vec_id").to_pylist(), dtype=np.int64)
    if len(qids) == 0:
        return _empty_knn_result()
    qlabs = np.asarray(qt.column("label").to_pylist(), dtype=np.int64)
    qm = _embedding_matrix(qt.column("embedding"))
    qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    q_ref = ray.put((qids, qlabs, qm))

    def local_topk(batch: pa.Table) -> pa.Table:
        q_ids, q_labs, q_mat = ray.get(q_ref)
        ids, m = _batch_matrix(batch)
        labs = np.asarray(batch.column("label").to_pylist(), dtype=np.int64)
        sims = _normalize(m) @ q_mat.T
        out_q: list[int] = []
        out_n: list[int] = []
        out_s: list[float] = []
        for j, (qid, qlab) in enumerate(zip(q_ids, q_labs)):
            valid = np.flatnonzero(labs == qlab)
            if valid.size == 0:
                continue
            col = sims[valid, j]
            # Same total order as the final merge, (-sim, vec_id).
            pick = valid[np.lexsort((ids[valid], -col))[: min(k, valid.size)]]
            for i in pick:
                out_q.append(int(qid))
                out_n.append(int(ids[i]))
                out_s.append(float(sims[i, j]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    candidates = ds.map_batches(
        local_topk, batch_format="pyarrow", zero_copy_batch=True, batch_size=2048
    )
    return _distributed_rank_reduce(candidates, k)


KNN_FILTERED_SQL = """
WITH q AS (
  SELECT vec_id AS qid, embedding AS qe, label AS ql
  FROM embeddings WHERE vec_id < 8
),
scored AS (
  SELECT q.qid,
         e.vec_id,
         row_number() OVER (
           PARTITION BY q.qid
           ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id
         ) AS r
  FROM embeddings e JOIN q ON e.label = q.ql
)
SELECT qid AS query_id, vec_id AS neighbor_id, r AS rank
FROM scored WHERE r <= 10
"""


class LshIndexStage:
    """Random-hyperplane LSH bucketer — hyperplanes built once per actor."""

    def __init__(self, n_planes: int = 12, seed: int = 7, dim: int = 64):
        rng = np.random.RandomState(seed)
        self.planes = rng.normal(size=(n_planes, dim))

    def bucket_of(self, m: np.ndarray) -> np.ndarray:
        bits = (m @ self.planes.T) > 0
        return (bits * (1 << np.arange(bits.shape[1]))).sum(axis=1).astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, m = _batch_matrix(batch)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "bucket": pa.array(self.bucket_of(m), pa.int64()),
                "embedding": batch.column("embedding"),
            }
        )


def knn_lsh(sf_dir: str, k: int = 10, n_queries: int = 8, n_planes: int = 8) -> pa.Table:
    """Approximate top-k: search only the query's LSH bucket.

    Distributed scoring: the keyed exchange on bucket co-locates each
    bucket's candidate vectors (the IVF-style scale path) and each
    bucket computes its queries' local top-k vectorized, tie-aware under
    (-sim, vec_id).  Only the bounded (query, neighbor, sim) candidate
    rows — ≤ buckets × queries × k — reach the driver merge; the raw
    vectors never do."""
    qids, qm = _load_queries(sf_dir, n_queries)
    if len(qids) == 0:
        return _empty_knn_result()
    stage = LshIndexStage(n_planes=n_planes, dim=qm.shape[1])
    q_buckets = stage.bucket_of(qm)
    q_ref = ray.put((qids, qm, q_buckets))

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    bucketed = ds.map_batches(
        LshIndexStage,
        fn_constructor_kwargs={"n_planes": n_planes, "dim": qm.shape[1]},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 8),
    )
    wanted = pa.array(sorted({int(b) for b in q_buckets}), pa.int64())

    def bucket_filter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.is_in(batch.column("bucket"), value_set=wanted))

    in_buckets = bucketed.map_batches(
        bucket_filter, batch_format="pyarrow", zero_copy_batch=True
    )

    def score_buckets(block: pa.Table) -> pa.Table:
        from ._util import run_bounds

        q_ids, q_mat, q_b = ray.get(q_ref)
        bkt = block.column("bucket").to_numpy(zero_copy_only=False)
        order = np.argsort(bkt, kind="stable")
        t = block.take(pa.array(order))
        b = run_bounds(bkt[order])
        out_q: list[int] = []
        out_n: list[int] = []
        out_s: list[float] = []
        for s, e in zip(b[:-1], b[1:]):
            sel = np.flatnonzero(q_b == bkt[order[s]])
            ids, m = _batch_matrix(t.slice(s, e - s))
            sims = _normalize(m) @ q_mat[sel].T  # (bucket rows, |sel|)
            top = min(k, len(ids))
            for j, qi in enumerate(sel):
                col = sims[:, j]
                idx = np.lexsort((ids, -col))[:top]
                for i in idx:
                    out_q.append(int(q_ids[qi]))
                    out_n.append(int(ids[i]))
                    out_s.append(float(col[i]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    from ._util import partitioned_by_key

    cand = partitioned_by_key(in_buckets, "bucket", score_buckets).take_all()
    return _rank_merge(cand, k)


def near_dup_corpus(sf_dir: str) -> "ray.data.Dataset":
    """embeddings ∪ scaled copies (vec_id + 1e6, embedding × 2): each copy
    is an exact-cosine duplicate of its original."""
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def expand(batch: pa.Table) -> pa.Table:
        ids, m = _batch_matrix(batch)
        out_ids = np.concatenate([ids, ids + NEAR_DUP_COPY_OFFSET])
        out_m = np.concatenate([m, m * 2.0]).astype(np.float32)
        return pa.table(
            {
                "vec_id": pa.array(out_ids, pa.int64()),
                "embedding": pa.array(out_m.tolist(), pa.list_(pa.float32())),
            }
        )

    return ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True)


class MultiprobeLshStage(LshIndexStage):
    """Random-hyperplane LSH with 1-bit multiprobe: each vector is
    emitted into its own bucket plus every one-bit-flip bucket, so two
    vectors whose sign patterns differ in at most one hyperplane still
    co-locate in at least one bucket.  Candidate generation therefore
    tolerates a near-dup pair straddling a single hyperplane; pairs are
    still cosine-VERIFIED exactly inside the bucket group."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, m = _batch_matrix(batch)
        b = self.bucket_of(m)
        n = len(ids)
        n_pl = self.planes.shape[0]
        buckets = np.concatenate([b] + [b ^ (1 << p) for p in range(n_pl)])
        take_idx = pa.array(np.tile(np.arange(n), n_pl + 1))
        return pa.table(
            {
                "vec_id": pa.array(np.tile(ids, n_pl + 1), pa.int64()),
                "bucket": pa.array(buckets, pa.int64()),
                "embedding": batch.column("embedding").take(take_idx),
            }
        )


def near_dup_embeddings(
    sf_dir: str, threshold: float = 0.999, limit_ids: int = 1000, n_planes: int = 8
) -> "ray.data.Dataset":
    """All pairs (id_a < id_b) with cosine >= threshold among vec_id <
    limit_ids (and their copies).

    LSH-bucketed pair generation — the 100 TB path: vectors shuffle to
    their (multiprobe) buckets, pairs are generated AND cosine-verified
    vectorized inside each bucket, then deduplicated with a keyed
    aggregate.  No all-pairs matmul, no corpus materialization on the
    driver.  The synthesized duplicates are exact-direction copies, so
    they always share a bucket; organic pairs at the threshold are
    caught unless they straddle 2+ hyperplanes (the verify step never
    false-positives)."""
    _logger.info(
        "near_dup_embeddings: coverage capped at vec_id < %d "
        "(mirrors NEAR_DUP_SQL; raise limit_ids to widen)",
        limit_ids,
    )
    full = near_dup_corpus(sf_dir).filter(
        expr=f"vec_id < {limit_ids} or "
        f"(vec_id >= {NEAR_DUP_COPY_OFFSET} and vec_id < {NEAR_DUP_COPY_OFFSET + limit_ids})"
    )

    import pyarrow.parquet as pq

    dim = len(
        pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
        .read_row_group(0, columns=["embedding"])
        .column("embedding")[0]
    )
    bucketed = full.map_batches(
        MultiprobeLshStage,
        fn_constructor_kwargs={"n_planes": n_planes, "dim": dim},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 8),
    )

    def bucket_pairs_part(part: pa.Table) -> pa.Table:
        """All LSH buckets of a bucket % P partition in one kernel call:
        rows sort by bucket once, then each run gets its own similarity
        matmul — the all-pairs work is per BUCKET (the algorithm's
        semantic unit), while Python/Arrow dispatch is per partition
        (bucket count scales with the corpus; P does not)."""
        from ._util import run_bounds

        bkt = part.column("bucket").to_numpy(zero_copy_only=False)
        order = np.argsort(bkt, kind="stable")
        t = part.take(pa.array(order))
        b = run_bounds(bkt[order])
        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        for s, e in zip(b[:-1], b[1:]):
            if e - s < 2:
                continue
            ids, m = _batch_matrix(t.slice(s, e - s))
            mn = _normalize(m)
            sims = mn @ mn.T
            ii, jj = np.nonzero(sims >= threshold)
            keep = ids[ii] < ids[jj]
            out_a.append(ids[ii][keep])
            out_b.append(ids[jj][keep])
        if not out_a:
            return pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "id_a": pa.array(np.concatenate(out_a), pa.int64()),
                "id_b": pa.array(np.concatenate(out_b), pa.int64()),
            }
        )

    from ._util import keyed_aggregate, partitioned_by_key

    pairs = partitioned_by_key(bucketed, "bucket", bucket_pairs_part)
    # A pair is rediscovered in up to 1 + n_planes shared buckets —
    # dedupe with a keyed aggregate (distributed, not a driver set).
    return keyed_aggregate(pairs, ["id_a", "id_b"], {})


NEAR_DUP_SQL = f"""
WITH corpus AS (
  SELECT vec_id, embedding FROM embeddings WHERE vec_id < 1000
  UNION ALL
  SELECT vec_id + {NEAR_DUP_COPY_OFFSET},
         list_transform(embedding, x -> x * 2)
  FROM embeddings WHERE vec_id < 1000
)
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM corpus a JOIN corpus b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.999
"""


# -- IVF (k-means coarse quantizer) -----------------------------------------


class IvfIndexStage:
    """IVF cell assignment: centroids are broadcast once (``ray.put``) and
    loaded per actor in __init__ — the canonical stateful-stage shape.
    At cluster scale the cell id is the partition key for the vector
    table; queries touch only ``n_probe`` cells."""

    def __init__(self, centroids_ref):
        import ray as _ray

        self.centroids = _ray.get(centroids_ref)  # (n_cells, dim), unit-norm

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, m = _batch_matrix(batch)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        cells = np.argmax((m / norms) @ self.centroids.T, axis=1)
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cell": pa.array(cells.astype(np.int64), pa.int64()),
                "embedding": batch.column("embedding"),
            }
        )


def _train_centroids(
    sample: np.ndarray, n_cells: int, n_iter: int = 10, seed: int = 11
) -> np.ndarray:
    """Seeded spherical k-means on a driver-side sample (the sample is
    small; training is not distributed — assignment is)."""
    rng = np.random.RandomState(seed)
    sample = sample / np.maximum(np.linalg.norm(sample, axis=1, keepdims=True), 1e-30)
    centroids = sample[rng.choice(len(sample), size=n_cells, replace=False)]
    for _ in range(n_iter):
        assign = np.argmax(sample @ centroids.T, axis=1)
        for c in range(n_cells):
            members = sample[assign == c]
            if len(members):
                v = members.sum(axis=0)
                centroids[c] = v / max(np.linalg.norm(v), 1e-30)
    return centroids


def knn_ivf(
    sf_dir: str,
    k: int = 10,
    n_queries: int = 8,
    n_cells: int = 16,
    n_probe: int = 4,
    sample_size: int = 2048,
) -> pa.Table:
    """Approximate top-k: spherical-kmeans IVF; search only the n_probe
    cells nearest each query.  Returns (query_id, neighbor_id, rank)."""
    import ray as _ray

    qids, qm = _load_queries(sf_dir, n_queries)
    if len(qids) == 0:
        return _empty_knn_result()

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    # A fixed sample (the lowest vec_ids, in vec_id order) keeps the
    # cells, and so the result, the same on every run.
    import pyarrow.parquet as pq

    sample = _embedding_matrix(
        pq.read_table(
            f"{sf_dir}/embeddings.parquet",
            columns=["vec_id", "embedding"],
            filters=[("vec_id", "<", sample_size)],
        )
        .sort_by("vec_id")
        .column("embedding")
    )
    centroids = _train_centroids(sample, min(n_cells, len(sample)))
    cref = _ray.put(centroids)

    bucketed = ds.map_batches(
        IvfIndexStage,
        fn_constructor_kwargs={"centroids_ref": cref},
        batch_format="pyarrow",
        zero_copy_batch=True,
        concurrency=(1, 8),
    )

    q_cells = np.argsort(-(qm @ centroids.T), axis=1)[:, :n_probe]
    wanted = pa.array(sorted({int(c) for row in q_cells for c in row}), pa.int64())
    q_ref = _ray.put((qids, qm, q_cells))

    def cell_filter(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return batch.filter(_pc.is_in(batch.column("cell"), value_set=wanted))

    filtered = bucketed.map_batches(
        cell_filter, batch_format="pyarrow", zero_copy_batch=True
    )

    def score_cells(block: pa.Table) -> pa.Table:
        """Distributed per-cell scoring: local tie-aware top-k for every
        query probing each cell of the block; the per-cell truncation
        uses the same total order (-sim, vec_id) as the final merge, so
        merging the n_probe cells' candidates reproduces the exact
        probed-set ranking."""
        from ._util import run_bounds

        q_ids, q_mat, q_c = ray.get(q_ref)
        cells = block.column("cell").to_numpy(zero_copy_only=False)
        order = np.argsort(cells, kind="stable")
        t = block.take(pa.array(order))
        b = run_bounds(cells[order])
        out_q: list[int] = []
        out_n: list[int] = []
        out_s: list[float] = []
        for s, e in zip(b[:-1], b[1:]):
            sel = np.flatnonzero((q_c == cells[order[s]]).any(axis=1))
            ids, m = _batch_matrix(t.slice(s, e - s))
            sims = _normalize(m) @ q_mat[sel].T
            top = min(k, len(ids))
            for j, qi in enumerate(sel):
                col = sims[:, j]
                idx = np.lexsort((ids, -col))[:top]
                for i in idx:
                    out_q.append(int(q_ids[qi]))
                    out_n.append(int(ids[i]))
                    out_s.append(float(col[i]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    from ._util import partitioned_by_key

    cand = partitioned_by_key(filtered, "cell", score_cells).take_all()
    return _rank_merge(cand, k)


def quantize_embeddings(sf_dir: str) -> "ray.data.Dataset":
    """Symmetric int8 quantization of the embedding column (per-vector
    max-abs scale) — the storage-reduction preprocessing step of an
    embedding pipeline.  Purely row-local (no shuffle); emitted in long
    form (vec_id, dim, code, scale) so the SQL oracle compares scalar
    columns.  The rounding is floor(x*127/scale + 0.5) computed in IEEE
    double on both sides, so codes are bit-identical to the oracle."""

    def qbatch(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        lists = batch.column("embedding").combine_chunks()
        flat = np.asarray(lists.flatten(), dtype=np.float64)
        offs = np.asarray(lists.offsets)
        dims = np.diff(offs)
        m = flat.reshape(len(ids), -1) if len(set(dims)) == 1 else None
        if m is None:  # ragged guard; testdata is fixed-dim
            raise ValueError("ragged embedding column")
        scale = np.abs(m).max(axis=1)
        scale[scale == 0] = 1.0
        codes = np.floor(m * (127.0 / scale)[:, None] + 0.5).astype(np.int64)
        d = m.shape[1]
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, d), pa.int64()),
                "dim": pa.array(np.tile(np.arange(1, d + 1), len(ids)), pa.int64()),
                "code": pa.array(codes.reshape(-1), pa.int64()),
                "scale": pa.array(np.repeat(scale, d), pa.float64()),
            }
        )

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return ds.map_batches(qbatch, batch_format="pyarrow", zero_copy_batch=True)


QUANTIZE_SQL = """
WITH s AS (
  SELECT vec_id, embedding,
         greatest(list_max(list_transform(embedding, x -> abs(x))), 0) AS mx
  FROM embeddings
),
sc AS (
  SELECT vec_id, embedding,
         CASE WHEN mx = 0 THEN 1.0 ELSE mx END AS scale
  FROM s
)
SELECT vec_id,
       unnest(range(1, len(embedding) + 1)) AS dim,
       unnest(list_transform(embedding,
              x -> CAST(floor(x * (127.0 / scale) + 0.5) AS BIGINT))) AS code,
       scale
FROM sc
"""


def knn_ivf_exhaustive(sf_dir: str) -> pa.Table:
    """IVF with n_probe == n_cells: every cell is probed, so the probed
    set is the whole corpus and the result is provably the exact top-k —
    the same distributed IVF machinery (centroid training, cell
    assignment, per-cell scoring, bounded merge) run at a setting where
    the brute-force SQL oracle applies exactly."""
    return knn_ivf(sf_dir, n_cells=16, n_probe=16)


def _knn_lsh_sql(n_planes: int = 8, dim: int = 64, k: int = 10, n_queries: int = 8) -> str:
    """Full SQL mirror of knn_lsh, with the seeded hyperplanes baked as
    float64 literals (same trick as MINHASH_LSH_SQL's permutation
    literals).  Buckets are sign bits of float64 dot products — verified
    bit-identical between numpy and DuckDB on the testdata (both engines
    promote the stored float32 vectors to double exactly); the ranking
    clause is the same tie-aware (sim DESC, vec_id ASC) as KNN_SQL.
    ``dim`` is the testdata's fixed embedding width (the Ray path reads
    it from the query matrix at runtime)."""
    rng = np.random.RandomState(7)  # LshIndexStage's seed
    planes = rng.normal(size=(n_planes, dim))

    def lit(vec: np.ndarray) -> str:
        return "[" + ",".join(repr(float(x)) for x in vec) + "]"

    bucket_expr = " + ".join(
        f"{1 << i}*(CASE WHEN list_dot_product(CAST(embedding AS DOUBLE[]), "
        f"{lit(planes[i])}) > 0 THEN 1 ELSE 0 END)"
        for i in range(n_planes)
    )
    return f"""
WITH b AS (
  SELECT vec_id, embedding, {bucket_expr} AS bucket FROM embeddings
),
q AS (
  SELECT vec_id AS qid, embedding AS qe, bucket AS qb
  FROM b WHERE vec_id < {n_queries}
),
scored AS (
  SELECT q.qid,
         e.vec_id,
         row_number() OVER (
           PARTITION BY q.qid
           ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id
         ) AS r
  FROM b e JOIN q ON e.bucket = q.qb
)
SELECT qid AS query_id, vec_id AS neighbor_id, r AS rank
FROM scored WHERE r <= {k}
"""


KNN_LSH_SQL = _knn_lsh_sql()


# -- distributed k-means (one Lloyd iteration, bit-exact oracle) -------------

KMEANS_K = 8
_QUANT = 1_000_000


def _quantize(m: np.ndarray) -> np.ndarray:
    """float32 -> int64 fixed-point (floor(x*1e6 + 0.5): round-half-up,
    identical in numpy doubles and DuckDB doubles — ties-to-even or
    float summation order never enter, so int sums are hash-stable)."""
    return np.floor(m.astype(np.float64) * _QUANT + 0.5).astype(np.int64)


def _load_centroids(sf_dir: str, k: int) -> np.ndarray:
    """Seed centroids = the first k RAW vectors (deterministic, mirrored
    by the oracle's ``WHERE vec_id < k`` subquery), quantized.  Not
    ``_load_queries`` — that normalizes, and the oracle uses raw values."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", k)],
    )
    t = t.filter(pc.less(t.column("vec_id"), k))
    order = np.argsort(np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64))
    cm = _embedding_matrix(t.column("embedding"))[order]
    return _quantize(cm)  # (k, d) int64


def _assign_cells(q: "np.ndarray", c: "np.ndarray") -> "np.ndarray":
    """Nearest centroid per quantized row, exact int64: argmin of
    |c|^2 - 2 q.c (|q|^2 is constant per row); np.argmin's first-min
    breaks ties toward the lower centroid id, matching the oracle's
    ORDER BY dist2, cid.  Shared by assign and update so their
    assignment math can never diverge."""
    cross = q @ c.T  # (n, k) int64
    c2 = np.einsum("kd,kd->k", c, c)
    return np.argmin(c2[None, :] - 2 * cross, axis=1)


def _make_assign_stage(cq_ref, keep_embedding: bool = False):
    """Batch fn attaching the nearest-centroid cell (shared by
    kmeans_assign and semdedup_pairs — ONE copy of the assignment
    closure, so the math can never diverge between operators)."""

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cq_ref)
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        q = _quantize(np.asarray(batch.column("embedding").to_pylist()))
        cell = _assign_cells(q, c).astype(np.int64)
        cols = {
            "vec_id": pa.array(ids, pa.int64()),
            "cell": pa.array(cell, pa.int64()),
        }
        if keep_embedding:
            cols["embedding"] = batch.column("embedding")
        return pa.table(cols)

    return assign


def kmeans_assign(sf_dir: str, k: int = KMEANS_K) -> "ray.data.Dataset":
    """Assignment step of distributed Lloyd k-means: every vector goes to
    its nearest centroid (squared L2 in exact int64 fixed-point; ties
    broken by lower centroid id — np.argmin's first-min matches the
    oracle's ORDER BY dist2, cid).

    Scale shape: centroids are broadcast ONCE via ray.put and read inside
    every task; the per-batch work is one (n x d) @ (d x k) integer
    matmul; no shuffle at all — assignment is embarrassingly parallel."""
    cq_ref = ray.put(_load_centroids(sf_dir, k))
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return ds.map_batches(
        _make_assign_stage(cq_ref), batch_format="pyarrow", zero_copy_batch=True
    )



def _assign_cte(base: str = "embeddings") -> str:
    """The quantize→centroid→argmin assignment CTE chain (q/c/d/a),
    shared by the three kmeans-family oracles — ONE SQL definition of
    the assignment math, mirroring _make_assign_stage on the Ray side."""
    return f"""q AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
         CAST(floor(unnest(embedding)::DOUBLE * {_QUANT} + 0.5) AS BIGINT) AS qv
  FROM {base}
),
c AS (SELECT vec_id AS cid, dim, qv AS qc FROM q WHERE vec_id < {KMEANS_K}),
d AS (
  SELECT q.vec_id, c.cid, sum((q.qv - c.qc) * (q.qv - c.qc)) AS dist2
  FROM q JOIN c USING (dim) GROUP BY 1, 2
),
a AS (
  SELECT vec_id, cid AS cell FROM d
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY dist2, cid) = 1
)"""

KMEANS_ASSIGN_SQL = f"""
WITH {_assign_cte()}
SELECT vec_id, cell FROM a
"""


def kmeans_update(sf_dir: str, k: int = KMEANS_K) -> pa.Table:
    """Centroid-update step: per (cell, dim) the exact int64 component
    sum and member count — the mergeable "centroid registers" whose
    ratio s/n is the new centroid.  Per-batch partial registers (<= k*d
    rows per block regardless of row count) then one keyed aggregate:
    the same combiner shape as the HLL/CMS sketches, so a full Lloyd
    iteration at 100 TB is one narrow pass + a constant-size rollup.

    Assignment is re-derived inside the same narrow stage rather than
    joining the kmeans_assign output back on vec_id: it is pure per-row
    compute, so recomputing beats a shuffle join."""
    cq_ref = ray.put(_load_centroids(sf_dir, k))

    def partial_registers(batch: pa.Table) -> pa.Table:
        c = ray.get(cq_ref)
        k_, d = c.shape
        q = _quantize(np.asarray(batch.column("embedding").to_pylist()))
        cell = _assign_cells(q, c)
        sums = np.zeros((k_, d), dtype=np.int64)
        np.add.at(sums, cell, q)
        counts = np.bincount(cell, minlength=k_)
        touched = np.flatnonzero(counts)
        cells = np.repeat(touched, d)
        dims = np.tile(np.arange(1, d + 1, dtype=np.int64), len(touched))
        return pa.table(
            {
                "cell": pa.array(cells, pa.int64()),
                "dim": pa.array(dims, pa.int64()),
                "s": pa.array(sums[touched].ravel(), pa.int64()),
                "n": pa.array(np.repeat(counts[touched], d), pa.int64()),
            }
        )

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = ensure_columns(
        keyed_aggregate(
            ds.map_batches(
                partial_registers, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["cell", "dim"],
            {"s": ("s", "sum"), "n": ("n", "sum")},
        ).to_pandas(),
        ["cell", "dim", "s", "n"],
    ).sort_values(["cell", "dim"])
    return pa.table({c: pa.array(out[c], pa.int64()) for c in out.columns})


KMEANS_UPDATE_SQL = f"""
WITH {_assign_cte()}
SELECT a.cell, q.dim, CAST(sum(q.qv) AS BIGINT) AS s, count(*) AS n
FROM a JOIN q USING (vec_id)
GROUP BY 1, 2
"""


NORM_HIST_BIN = 1 << 19  # fine bins: resolves deviation from unit norm


def embedding_norm_hist(sf_dir: str) -> pa.Table:
    """Histogram of embedding norms — the corpus-profile stat that
    catches un-normalized or degenerate vectors before they poison a
    similarity index.  Computed on the EXACT int64 quantized norm²
    (sum of fixed-point squares — no float summation order anywhere),
    binned by a power-of-two width; per-batch (bin, cnt) partials then
    one keyed aggregate, the sketch combiner shape."""

    def partial(batch: pa.Table) -> pa.Table:
        q = _quantize(np.asarray(batch.column("embedding").to_pylist()))
        # Guard the int64 square-sum: numpy wraps silently where the
        # oracle's BIGINT sum promotes to HUGEINT — fail loudly on the
        # pathological magnitudes this stat exists to detect.
        max_abs = int(np.abs(q).max()) if q.size else 0
        if max_abs and max_abs * max_abs > (2**63 - 1) // q.shape[1]:
            raise OverflowError(
                f"embedding component magnitude {max_abs / _QUANT:.1f} "
                "overflows the int64 norm accumulator — clip or rescale "
                "the vectors first"
            )
        norm2 = np.einsum("nd,nd->n", q, q)
        bins = norm2 // NORM_HIST_BIN
        uniq, cnt = np.unique(bins, return_counts=True)
        return pa.table(
            {
                "bin": pa.array(uniq, pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    out = ensure_columns(
        keyed_aggregate(
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "bin",
            {"cnt": ("cnt", "sum")},
        ).to_pandas(),
        ["bin", "cnt"],
    ).sort_values("bin")
    return pa.table({c: pa.array(out[c], pa.int64()) for c in out.columns})


EMBEDDING_NORM_HIST_SQL = f"""
WITH q AS (
  SELECT vec_id,
         CAST(floor(unnest(embedding)::DOUBLE * {_QUANT} + 0.5) AS BIGINT) AS qv
  FROM embeddings
),
n2 AS (SELECT vec_id, sum(qv * qv) AS norm2 FROM q GROUP BY 1)
SELECT CAST(norm2 // {NORM_HIST_BIN} AS BIGINT) AS bin, count(*) AS cnt
FROM n2 GROUP BY 1
"""


# -- SemDeDup (cluster-then-dedup within cells) ------------------------------

SEMDEDUP_COPY_OFFSET = 3_000_000
SEMDEDUP_COS2_BP = 9801  # cos >= 0.99  <=>  cos² >= 9801 basis points


def semdedup_pairs(sf_dir: str, k: int = KMEANS_K) -> "ray.data.Dataset":
    """SemDeDup (Abbas et al. 2023): semantic near-duplicate pairs found
    by clustering embeddings (k-means cells) and comparing ONLY within
    each cell — the sub-quadratic semantic-dedup pass for web-scale
    corpora.

    Scale shape: assignment is the broadcast-centroid int matmul (no
    shuffle); the keyed exchange on cell moves each vector to its cell;
    pair verification runs inside each cell.  The cosine test is EXACT
    integer arithmetic on the quantized vectors (``ab > 0 and
    ab²·10⁴ ≥ 9801·|a|²·|b|²``  ⇔  cos ≥ 0.99), evaluated in Python
    bigints per candidate pair so no float-precision boundary can
    disagree with the HUGEINT oracle.  At production scale score in
    float with a margin and exact-confirm only the boundary band.

    Synthesized duplicates (identical copies of every 10th vector under
    ``vec_id + SEMDEDUP_COPY_OFFSET``) guarantee known positives — an
    identical pair is cosine exactly 1 and always shares a cell."""
    cq_ref = ray.put(_load_centroids(sf_dir, k))
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def expand(batch: pa.Table) -> pa.Table:
        ids, m = _batch_matrix(batch)
        sel = ids % 10 == 0
        out_ids = np.concatenate([ids, ids[sel] + SEMDEDUP_COPY_OFFSET])
        out_m = np.concatenate([m, m[sel]]).astype(np.float32)
        return pa.table(
            {
                "vec_id": pa.array(out_ids, pa.int64()),
                "embedding": pa.array(out_m.tolist(), pa.list_(pa.float32())),
            }
        )

    assign = _make_assign_stage(cq_ref, keep_embedding=True)

    def cell_pairs(block: pa.Table) -> pa.Table:
        from ._util import run_bounds

        cells = block.column("cell").to_numpy(zero_copy_only=False)
        ids = block.column("vec_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, cells))
        cells, ids = cells[order], ids[order]
        q = _quantize(np.asarray(block.column("embedding").to_pylist()))[order]
        ql = q.tolist()  # Python bigints: the pair test can never overflow
        n2 = [sum(x * x for x in row) for row in ql]
        out_a: list[int] = []
        out_b: list[int] = []
        b = run_bounds(cells)
        for s, e in zip(b[:-1], b[1:]):
            for i in range(s, e):
                qi = ql[i]
                for j in range(i + 1, e):
                    qj = ql[j]
                    ab = sum(x * y for x, y in zip(qi, qj))
                    if ab > 0 and ab * ab * 10000 >= SEMDEDUP_COS2_BP * n2[i] * n2[j]:
                        out_a.append(int(ids[i]))
                        out_b.append(int(ids[j]))
        return pa.table(
            {
                "id_a": pa.array(out_a, pa.int64()),
                "id_b": pa.array(out_b, pa.int64()),
            }
        )

    from ._util import partitioned_by_key

    return partitioned_by_key(
        ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True).map_batches(
            assign, batch_format="pyarrow", zero_copy_batch=True
        ),
        "cell",
        cell_pairs,
    )


SEMDEDUP_SQL = f"""
WITH base AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + {SEMDEDUP_COPY_OFFSET} AS vec_id, embedding
  FROM embeddings WHERE vec_id % 10 = 0
),
{_assign_cte("base")},
n2 AS (SELECT vec_id, sum(qv * qv) AS n2 FROM q GROUP BY 1),
ab AS (
  SELECT x.vec_id AS id_a, y.vec_id AS id_b, sum(qx.qv * qy.qv) AS ab
  FROM a x JOIN a y ON x.cell = y.cell AND x.vec_id < y.vec_id
  JOIN q qx ON qx.vec_id = x.vec_id
  JOIN q qy ON qy.vec_id = y.vec_id AND qy.dim = qx.dim
  GROUP BY 1, 2
)
SELECT id_a, id_b FROM ab
JOIN n2 na ON na.vec_id = ab.id_a
JOIN n2 nb ON nb.vec_id = ab.id_b
WHERE ab > 0
  AND ab::HUGEINT * ab * 10000 >= {SEMDEDUP_COS2_BP}::HUGEINT * na.n2 * nb.n2
"""


def kmeans_inertia(sf_dir: str, k: int = KMEANS_K) -> pa.Table:
    """Per-cell inertia (sum of squared distances to the assigned
    centroid, exact int64) and member count — the convergence metric a
    driver-side Lloyd loop watches between iterations.  Same shape as
    kmeans_update: per-batch partials of ≤ k rows, one keyed aggregate."""
    cq_ref = ray.put(_load_centroids(sf_dir, k))

    def partial(batch: pa.Table) -> pa.Table:
        c = ray.get(cq_ref)
        q = _quantize(np.asarray(batch.column("embedding").to_pylist()))
        cross = q @ c.T
        c2 = np.einsum("kd,kd->k", c, c)
        q2 = np.einsum("nd,nd->n", q, q)
        scores = c2[None, :] - 2 * cross
        cell = np.argmin(scores, axis=1)
        dist2 = q2 + scores[np.arange(len(cell)), cell]
        sums = np.zeros(len(c), dtype=np.int64)
        np.add.at(sums, cell, dist2)
        counts = np.bincount(cell, minlength=len(c))
        touched = np.flatnonzero(counts)
        return pa.table(
            {
                "cell": pa.array(touched.astype(np.int64), pa.int64()),
                "d2": pa.array(sums[touched], pa.int64()),
                "n": pa.array(counts[touched].astype(np.int64), pa.int64()),
            }
        )

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = ensure_columns(
        keyed_aggregate(
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "cell",
            {"inertia": ("d2", "sum"), "n": ("n", "sum")},
        ).to_pandas(),
        ["cell", "inertia", "n"],
    ).sort_values("cell")
    return pa.table({c: pa.array(out[c], pa.int64()) for c in out.columns})


KMEANS_INERTIA_SQL = f"""
WITH {_assign_cte()}
SELECT a.cell, CAST(sum(d.dist2) AS BIGINT) AS inertia, count(*) AS n
FROM a JOIN d ON d.vec_id = a.vec_id AND d.cid = a.cell
GROUP BY 1
"""


# -- embedding outlier detection ----------------------------------------------

# Exact int64 fixed-point squared-distance threshold: vectors farther than
# this from their assigned centroid are flagged.  Calibrated on the
# synthetic embeddings (unit-ish norms, d=64, quant=1e6): measured dist2
# quantiles are ~1.66e12 median / ~1.83e12 p90 / ~1.88e12 p95 at both
# sf0.001 and sf0.01 (the generator is sf-invariant in distribution), so
# this flags roughly the top decile at any sf.
OUTLIER_DIST2_T = 1_850_000_000_000


def embedding_outliers(sf_dir: str, k: int = KMEANS_K) -> "ray.data.Dataset":
    """Embedding QC: rows whose exact int64 squared distance to their
    nearest centroid exceeds OUTLIER_DIST2_T — the corpus-hygiene pass
    that catches degenerate / off-manifold vectors before indexing.

    Scale shape: centroids broadcast once (ray.put); the stage is one
    integer matmul per batch with a vectorized filter — embarrassingly
    parallel, no shuffle, output is only the flagged minority."""
    cq_ref = ray.put(_load_centroids(sf_dir, k))

    def flag(batch: pa.Table) -> pa.Table:
        c = ray.get(cq_ref)
        ids = np.asarray(batch.column("vec_id").to_pylist(), dtype=np.int64)
        q = _quantize(np.asarray(batch.column("embedding").to_pylist()))
        cross = q @ c.T
        c2 = np.einsum("kd,kd->k", c, c)
        q2 = np.einsum("nd,nd->n", q, q)
        scores = c2[None, :] - 2 * cross
        cell = np.argmin(scores, axis=1)
        dist2 = q2 + scores[np.arange(len(cell)), cell]
        keep = dist2 > OUTLIER_DIST2_T
        return pa.table(
            {
                "vec_id": pa.array(ids[keep], pa.int64()),
                "cell": pa.array(cell[keep].astype(np.int64), pa.int64()),
                "dist2": pa.array(dist2[keep], pa.int64()),
            }
        )

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


EMBEDDING_OUTLIERS_SQL = f"""
WITH {_assign_cte()}
SELECT a.vec_id, a.cell, CAST(d.dist2 AS BIGINT) AS dist2
FROM a JOIN d ON d.vec_id = a.vec_id AND d.cid = a.cell
WHERE d.dist2 > {OUTLIER_DIST2_T}
"""


# -- per-dimension embedding profile ------------------------------------------


def embedding_dim_stats(sf_dir: str) -> pa.Table:
    """Per-dimension profile of the embedding matrix: count, exact int64
    fixed-point component sum, min and max — the feature-scaling /
    dead-dimension QC table.  Per-batch partials are ≤ d rows per block
    (sum/min/max are all mergeable), one keyed aggregate.

    int64 bound: |q| ≤ ~2e6 for unit-ish vectors, so the global component
    sum stays in int64 up to ~4.6e12 rows; the guard below fails loudly
    if a batch's magnitudes could break that en route."""

    def partial(batch: pa.Table) -> pa.Table:
        q = _quantize(np.asarray(batch.column("embedding").to_pylist()))
        n, d = q.shape
        max_abs = int(np.abs(q).max()) if q.size else 0
        if max_abs and max_abs > (2**63 - 1) // max(n, 1) // (1 << 20):
            raise OverflowError(
                "embedding magnitudes too large for exact int64 dim sums"
            )
        return pa.table(
            {
                "dim": pa.array(np.arange(1, d + 1, dtype=np.int64), pa.int64()),
                "p_n": pa.array(np.full(d, n, dtype=np.int64), pa.int64()),
                "p_sum": pa.array(q.sum(axis=0), pa.int64()),
                "p_min": pa.array(q.min(axis=0), pa.int64()),
                "p_max": pa.array(q.max(axis=0), pa.int64()),
            }
        )

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    out = ensure_columns(
        keyed_aggregate(
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "dim",
            {
                "n": ("p_n", "sum"),
                "sum_q": ("p_sum", "sum"),
                "min_q": ("p_min", "min"),
                "max_q": ("p_max", "max"),
            },
        ).to_pandas(),  # bounded: d rows
        ["dim", "n", "sum_q", "min_q", "max_q"],
    ).sort_values("dim")
    return pa.table({c: pa.array(out[c], pa.int64()) for c in out.columns})


EMBEDDING_DIM_STATS_SQL = f"""
WITH q AS (
  SELECT generate_subscripts(embedding, 1) AS dim,
         CAST(floor(unnest(embedding)::DOUBLE * {_QUANT} + 0.5) AS BIGINT) AS qv
  FROM embeddings
)
SELECT dim, count(*) AS n,
       CAST(sum(qv) AS BIGINT) AS sum_q,
       CAST(min(qv) AS BIGINT) AS min_q,
       CAST(max(qv) AS BIGINT) AS max_q
FROM q GROUP BY dim
"""


# -- full Lloyd training loop (iterative, evolving broadcast state) -----------

KMEANS_ITERS = 3


def kmeans_train(
    sf_dir: str, k: int = KMEANS_K, iters: int = KMEANS_ITERS
) -> pa.Table:
    """T full Lloyd iterations — the iterative-training shape: each round
    is one narrow distributed pass (assignment + partial centroid
    registers, <= k*d rows per block) + a keyed aggregate, then the
    driver derives the next centroids (s // n in exact int64 fixed-point,
    floor division on both engines) and re-broadcasts them via ray.put.
    The corpus dataset is materialized ONCE and re-consumed per round —
    never re-read from storage.  Empty clusters drop out of the live set
    (the oracle's join drops them identically); ties keep breaking toward
    the lowest live centroid id.  Output: the final (cell, dim, qc)
    centroid table."""
    c = _load_centroids(sf_dir, k)
    cids = np.arange(k, dtype=np.int64)
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()  # consumed `iters` times

    def make_partial(ref):
        def partial(batch: pa.Table) -> pa.Table:
            cc, live = ray.get(ref)
            k_, d = cc.shape
            q = _quantize(np.asarray(batch.column("embedding").to_pylist()))
            cell = _assign_cells(q, cc)
            sums = np.zeros((k_, d), dtype=np.int64)
            np.add.at(sums, cell, q)
            counts = np.bincount(cell, minlength=k_)
            touched = np.flatnonzero(counts)
            cells = np.repeat(live[touched], d)
            dims = np.tile(np.arange(1, d + 1, dtype=np.int64), len(touched))
            return pa.table(
                {
                    "cell": pa.array(cells, pa.int64()),
                    "dim": pa.array(dims, pa.int64()),
                    "s": pa.array(sums[touched].ravel(), pa.int64()),
                    "n": pa.array(np.repeat(counts[touched], d), pa.int64()),
                }
            )

        return partial

    for _ in range(iters):
        ref = ray.put((c, cids))
        rolled = (
            keyed_aggregate(
                ds.map_batches(
                    make_partial(ref), batch_format="pyarrow", zero_copy_batch=True
                ),
                ["cell", "dim"],
                {"s": ("s", "sum"), "n": ("n", "sum")},
            )
            .to_pandas()  # bounded: k x d rows
            .sort_values(["cell", "dim"])
        )
        live = np.sort(rolled["cell"].unique()).astype(np.int64)
        d = int(rolled["dim"].max())
        s = rolled["s"].to_numpy().astype(np.int64).reshape(len(live), d)
        n = rolled["n"].to_numpy().astype(np.int64).reshape(len(live), d)
        c = s // n  # exact floor division, identical in DuckDB
        cids = live

    d = c.shape[1]
    return pa.table(
        {
            "cell": pa.array(np.repeat(cids, d), pa.int64()),
            "dim": pa.array(
                np.tile(np.arange(1, d + 1, dtype=np.int64), len(cids)),
                pa.int64(),
            ),
            "qc": pa.array(c.ravel(), pa.int64()),
        }
    )


def _kmeans_train_sql(iters: int = KMEANS_ITERS) -> str:
    parts = [
        f"""q AS (
  SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
         CAST(floor(unnest(embedding)::DOUBLE * {_QUANT} + 0.5) AS BIGINT) AS qv
  FROM embeddings
)""",
        f"c0 AS (SELECT vec_id AS cid, dim, qv AS qc FROM q WHERE vec_id < {KMEANS_K})",
    ]
    for t in range(1, iters + 1):
        parts.append(
            f"""d{t} AS (
  SELECT q.vec_id, c.cid, sum((q.qv - c.qc) * (q.qv - c.qc)) AS dist2
  FROM q JOIN c{t - 1} c USING (dim) GROUP BY 1, 2
)"""
        )
        parts.append(
            f"""a{t} AS (
  SELECT vec_id, cid AS cell FROM d{t}
  QUALIFY row_number() OVER (PARTITION BY vec_id ORDER BY dist2, cid) = 1
)"""
        )
        parts.append(
            f"""u{t} AS (
  SELECT a.cell, q.dim, CAST(sum(q.qv) AS BIGINT) AS s, count(*) AS n
  FROM a{t} a JOIN q USING (vec_id) GROUP BY 1, 2
)"""
        )
        # numpy's int // is FLOOR division; DuckDB's // truncates toward
        # zero — mimic floor exactly with the positive-mod identity
        # (n > 0 always: a cell exists only with members).
        parts.append(
            f"c{t} AS (SELECT cell AS cid, dim, "
            f"CAST((s - (((s % n) + n) % n)) // n AS BIGINT) AS qc FROM u{t})"
        )
    return (
        "WITH "
        + ",\n".join(parts)
        + f"\nSELECT cid AS cell, dim, CAST(qc AS BIGINT) AS qc FROM c{iters}"
    )


KMEANS_TRAIN_SQL = _kmeans_train_sql()


# -- per-label centroid (vector-valued grouped mean) ---------------------------


def label_centroids(sf_dir: str) -> "ray.data.Dataset":
    """Mean embedding per label in exact fixed-point — the class-prototype
    computation behind semantic dedup seeds, nearest-class-mean
    classifiers and drift monitors.  The vector-valued mean decomposes
    into long-form (label, dim) scalar partials: each batch scatter-adds
    its quantized matrix into an O(labels×d) accumulator (np.add.at, no
    Python loop), one keyed aggregate rolls the partials up, and the floor
    division matches the oracle's positive-mod identity (numpy //
    floors, DuckDB // truncates)."""

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # empty block: np.asarray would be 1-D
            return pa.table(
                {
                    "label": pa.array([], pa.int64()),
                    "dim": pa.array([], pa.int64()),
                    "s": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        labels = batch.column("label").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        q = _quantize(np.asarray(batch.column("embedding").to_pylist()))
        d = q.shape[1]
        uniq, codes = np.unique(labels, return_inverse=True)
        acc = np.zeros((len(uniq), d), np.int64)
        np.add.at(acc, codes, q)
        cnt = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "label": pa.array(np.repeat(uniq, d), pa.int64()),
                "dim": pa.array(np.tile(np.arange(1, d + 1), len(uniq)), pa.int64()),
                "s": pa.array(acc.reshape(-1), pa.int64()),
                "n": pa.array(np.repeat(cnt, d), pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        s = batch.column("s").to_numpy(zero_copy_only=False)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "label": batch.column("label"),
                "dim": batch.column("dim"),
                "centroid_q": pa.array(s // n, pa.int64()),  # floor, see SQL
                "n": pa.array(n, pa.int64()),
            }
        )

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["label", "embedding"]
    )
    return keyed_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["label", "dim"],
        {"s": ("s", "sum"), "n": ("n", "sum")},
    ).map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


LABEL_CENTROIDS_SQL = f"""
WITH q AS (
  SELECT CAST(label AS BIGINT) AS label,
         unnest(range(1, len(embedding) + 1)) AS dim,
         CAST(floor(unnest(embedding)::DOUBLE * {_QUANT} + 0.5) AS BIGINT) AS qv
  FROM embeddings
),
u AS (
  SELECT label, CAST(dim AS BIGINT) AS dim,
         CAST(sum(qv) AS BIGINT) AS s, CAST(count(*) AS BIGINT) AS n
  FROM q GROUP BY 1, 2
)
SELECT label, dim,
       CAST((s - (((s % n) + n) % n)) // n AS BIGINT) AS centroid_q, n
FROM u
"""


# -- distributed Gram matrix ---------------------------------------------------


def gram_matrix(sf_dir: str) -> pa.Table:
    """Exact Gram matrix (upper triangle) of the embedding table — the
    X^T X building block of distributed PCA / covariance / linear
    probes.  Each batch contributes ONE d×d integer matmul partial
    (Q^T Q over the fixed-point codes), flattened to (i, j, partial)
    rows; the keyed aggregate moves d(d+1)/2 rows per block regardless of
    corpus size, so the reduction is O(d²) — never O(rows).

    Exactness: codes are floor(x·1e6 + 0.5) (same rule as _quantize and
    the oracle), so partials are integers and the merge is
    order-insensitive.  int64 bound: |q| ≤ ~2e6 for unit-ish vectors ⇒
    q_i·q_j ≤ 4e12, safe to ~2e6 rows per PARTIAL and ~4.6e5 blocks;
    the per-batch guard below fails loudly before a silent wrap (the
    100 TB path promotes the merge to 128-bit, as dim_stats notes)."""

    def partial(batch: pa.Table) -> pa.Table:
        q = _quantize(np.asarray(batch.column("embedding").to_pylist()))
        n, d = q.shape
        max_abs = int(np.abs(q).max()) if q.size else 0
        if max_abs and n and max_abs * max_abs > (2**63 - 1) // n:
            raise OverflowError(
                "embedding magnitudes too large for exact int64 Gram partials"
            )
        g = q.T @ q  # d×d exact int64
        iu, ju = np.triu_indices(d)
        return pa.table(
            {
                "i": pa.array((iu + 1).astype(np.int64), pa.int64()),
                "j": pa.array((ju + 1).astype(np.int64), pa.int64()),
                "p_gram": pa.array(g[iu, ju], pa.int64()),
            }
        )

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    out = ensure_columns(
        keyed_aggregate(
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            ["i", "j"],
            {"gram": ("p_gram", "sum")},
        ).to_pandas(),
        ["i", "j", "gram"],
    ).sort_values(["i", "j"])
    return pa.table({c: pa.array(out[c], pa.int64()) for c in out.columns})


GRAM_MATRIX_SQL = """
WITH e AS (
  SELECT vec_id,
         unnest(range(1, len(embedding) + 1)) AS i,
         unnest(list_transform(embedding,
                x -> CAST(floor(CAST(x AS DOUBLE) * 1000000 + 0.5) AS BIGINT)))
           AS q
  FROM embeddings
)
SELECT a.i AS i, b.i AS j, CAST(sum(a.q * b.q) AS BIGINT) AS gram
FROM e a
JOIN e b ON a.vec_id = b.vec_id AND a.i <= b.i
GROUP BY 1, 2
ORDER BY 1, 2
"""


# -- distributed PCA -----------------------------------------------------------


def pca_project(sf_dir: str, k: int = 4) -> "ray.data.Dataset":
    """Distributed PCA projection: fit from ONE pass of exact integer
    partials (the Gram matrix + per-dim sums, both O(d²) reductions —
    see gram_matrix / embedding_dim_stats), eigendecompose the d×d
    covariance on the driver (d is bounded; the corpus is not),
    broadcast the k components once, then stream the projection as a
    second map_batches pass.  No stage ever materializes the corpus.

    Determinism: the covariance is assembled from exact int64 sums, and
    each eigenvector's sign is fixed by making its largest-|coord|
    entry positive; projections are emitted in fixed point (1e-6) so
    the output hash is stable.  Non-SQL-expressible (eigensolve) —
    registered rows-only; the pytest cross-checks against numpy's PCA
    of the same quantized matrix."""
    gram = gram_matrix(sf_dir).to_pandas()  # O(d²) rows, exact ints
    d = int(gram["i"].max())
    G = np.zeros((d, d), dtype=np.float64)
    ii = gram["i"].to_numpy() - 1
    jj = gram["j"].to_numpy() - 1
    G[ii, jj] = gram["gram"].to_numpy().astype(np.float64)
    G[jj, ii] = G[ii, jj]

    def sums_partial(batch: pa.Table) -> pa.Table:
        q = _quantize(np.asarray(batch.column("embedding").to_pylist()))
        n, dd = q.shape
        return pa.table(
            {
                "dim": pa.array(np.arange(dd, dtype=np.int64), pa.int64()),
                "p_n": pa.array(np.full(dd, n, dtype=np.int64), pa.int64()),
                "p_sum": pa.array(q.sum(axis=0), pa.int64()),
            }
        )

    ds = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["embedding"])
    sums = (
        keyed_aggregate(
            ds.map_batches(sums_partial, batch_format="pyarrow", zero_copy_batch=True),
            "dim",
            {"n": ("p_n", "sum"), "s": ("p_sum", "sum")},
        )
        .to_pandas()
        .sort_values("dim")
    )
    n = int(sums["n"].iloc[0])
    s = sums["s"].to_numpy().astype(np.float64)
    mean = s / n
    cov = (G - np.outer(mean, s)) / n  # E[xx^T] - mean·mean^T, scaled by QUANT²
    w, v = np.linalg.eigh(cov)
    comp = v[:, ::-1][:, :k]  # top-k by eigenvalue, descending
    # sign convention: the largest-|coord| entry of each component is positive
    flip = np.sign(comp[np.abs(comp).argmax(axis=0), np.arange(comp.shape[1])])
    comp = comp * np.where(flip == 0, 1.0, flip)
    ref = ray.put((mean, comp))

    def project(batch: pa.Table) -> pa.Table:
        m, wq = ray.get(ref)
        q = _quantize(np.asarray(batch.column("embedding").to_pylist()))
        p = (q.astype(np.float64) - m) @ wq / _QUANT
        cols = {"vec_id": batch.column("vec_id")}
        for c in range(p.shape[1]):
            cols[f"pc{c + 1}"] = pa.array(
                np.floor(p[:, c] * _QUANT + 0.5).astype(np.int64), pa.int64()
            )
        return pa.table(cols)

    full = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    return full.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


# -- SQ8 two-stage retrieval (quantized coarse scan + exact rescore) ----------


def knn_quantized(
    sf_dir: str,
    k: int = 10,
    n_queries: int = 8,
    coarse_mult: int = 8,
) -> pa.Table:
    """Two-stage ANN, the FAISS/Lucene SQ8 production pattern: a cheap
    int8 coarse scan over symmetrically-quantized vectors (the
    quantize_embeddings codes, 4× smaller than float32, integer
    arithmetic) keeps ``coarse_mult × k`` candidates per query per
    batch, then ONLY those are rescored with exact float cosine and
    reduced through the same distributed query_id top-k exchange as
    knn_brute.  Approximate by design (the int8 margin can demote a
    true neighbor past the coarse cut) — registered rows-only; recall
    vs knn_brute is pinned by pytest, and coarse_mult is the recall/
    compute knob.

    Scale shape: identical to knn_brute (broadcast queries, per-batch
    partials, distributed rank reduce) — the coarse stage changes the
    per-batch constant, not the shuffle volume; at 10⁹ vectors the int8
    scan is the memory-bandwidth win."""
    qids, qm = _load_queries(sf_dir, n_queries)
    if len(qids) == 0:
        return _empty_knn_result()
    q_ref = ray.put((qids, qm))
    m_keep = coarse_mult * k

    def two_stage(batch: pa.Table) -> pa.Table:
        q_ids, q_mat = ray.get(q_ref)
        ids, m = _batch_matrix(batch)
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = m / norms
        # stage 1: symmetric int8 codes (per-vector max-abs scale), int32
        # accumulation — the same rounding quantize_embeddings pins
        scale = np.abs(unit).max(axis=1)
        scale[scale == 0] = 1.0
        codes = np.floor(unit * (127.0 / scale)[:, None] + 0.5).astype(
            np.int8
        )
        qcodes = np.floor(q_mat * 127.0 + 0.5).astype(np.int8)
        coarse = (
            codes.astype(np.int32) @ qcodes.astype(np.int32).T
        ) * scale[:, None]
        keep = min(m_keep, len(ids))
        out_q: list[int] = []
        out_n: list[int] = []
        out_s: list[float] = []
        top = min(k, len(ids))
        for j, qid in enumerate(q_ids):
            cand = np.lexsort((ids, -coarse[:, j]))[:keep]
            # stage 2: exact float cosine on the survivors only
            exact = unit[cand] @ q_mat[j]
            idx = cand[np.lexsort((ids[cand], -exact))[:top]]
            sims = unit[idx] @ q_mat[j]
            for i, sim in zip(idx, sims):
                out_q.append(int(qid))
                out_n.append(int(ids[i]))
                out_s.append(float(sim))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    candidates = ds.map_batches(
        two_stage, batch_format="pyarrow", zero_copy_batch=True, batch_size=2048
    )
    return _distributed_rank_reduce(candidates, k)


# -- product quantization (PQ-ADC) ANN ---------------------------------------


def _train_pq_codebooks(
    sample: np.ndarray, n_sub: int, n_codes: int, iters: int = 10
) -> np.ndarray:
    """Deterministic per-subspace Lloyd kmeans: init = the first
    n_codes sample rows (input order is the dataset's deterministic
    read order), fixed iteration count, empty clusters keep their old
    centroid.  Returns (n_sub, n_codes, sub_dim) codebooks."""
    n, d = sample.shape
    sub = d // n_sub
    kk = min(n_codes, n)
    books = np.zeros((n_sub, kk, sub), dtype=np.float64)
    for m in range(n_sub):
        x = sample[:, m * sub : (m + 1) * sub]
        c = x[:kk].copy()
        for _ in range(iters):
            d2 = (
                (x * x).sum(axis=1, keepdims=True)
                - 2.0 * (x @ c.T)
                + (c * c).sum(axis=1)
            )
            assign = np.argmin(d2, axis=1)
            for j in range(kk):
                sel = assign == j
                if sel.any():
                    c[j] = x[sel].mean(axis=0)
        books[m] = c
    return books


def knn_pq(
    sf_dir: str,
    k: int = 10,
    n_queries: int = 8,
    n_sub: int = 8,
    n_codes: int = 16,
    coarse_mult: int = 8,
    sample_size: int = 2048,
    exhaustive: bool = False,
) -> pa.Table:
    """Product-quantization ANN (Jégou et al. 2011), the memory-bound
    scale path past SQ8: vectors compress to n_sub 4-bit-ish codes
    (here one uint8 per subspace), and each query scores the WHOLE
    batch through an (n_sub × n_codes) lookup table built once per
    query — asymmetric distance computation (ADC).  The ADC scan keeps
    ``coarse_mult × k`` survivors per query per batch; only those are
    rescored with exact float cosine, then reduced through the same
    distributed query_id top-k exchange as knn_brute.  Approximate by
    design → registered rows-only; recall vs knn_brute and the
    exhaustive==brute identity are pinned by pytest.

    Scale shape: codebooks train on a bounded deterministic sample
    (like knn_ivf) and broadcast once; per-batch work is one encode
    matmul + an O(n · n_sub) table gather — at 10⁹ vectors the 64-byte
    code replaces the 256-byte float32 row in the bandwidth-bound
    inner loop, and shuffle volume stays the bounded candidate
    stream."""
    qids, qm = _load_queries(sf_dir, n_queries)
    if len(qids) == 0:
        return _empty_knn_result()

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    sample_rows = ds.limit(sample_size).take_all()
    sample = _normalize(
        np.asarray([r["embedding"] for r in sample_rows], dtype=np.float64)
    )
    books = _train_pq_codebooks(sample, n_sub, n_codes)
    state_ref = ray.put((qids, qm, books))
    m_keep = coarse_mult * k

    def adc_scan(batch: pa.Table) -> pa.Table:
        q_ids, q_mat, cb = ray.get(state_ref)
        ids, m = _batch_matrix(batch)
        unit = _normalize(m)
        n_s, kk, sub = cb.shape
        # encode: per subspace argmin ||x_sub - c||^2
        codes = np.empty((len(ids), n_s), dtype=np.int64)
        for s in range(n_s):
            x = unit[:, s * sub : (s + 1) * sub]
            c = cb[s]
            d2 = -2.0 * (x @ c.T) + (c * c).sum(axis=1)
            codes[:, s] = np.argmin(d2, axis=1)
        keep = len(ids) if exhaustive else min(m_keep, len(ids))
        top = min(k, len(ids))
        out_q: list[int] = []
        out_n: list[int] = []
        out_s: list[float] = []
        for j, qid in enumerate(q_ids):
            # ADC lookup table: dot(q_sub, centroid) per subspace
            lut = np.stack(
                [
                    cb[s] @ q_mat[j, s * sub : (s + 1) * sub]
                    for s in range(n_s)
                ]
            )  # (n_sub, n_codes)
            score = lut[np.arange(n_s)[None, :], codes].sum(axis=1)
            cand = np.lexsort((ids, -score))[:keep]
            exact = unit[cand] @ q_mat[j]
            idx = cand[np.lexsort((ids[cand], -exact))[:top]]
            sims = unit[idx] @ q_mat[j]
            for i, sim in zip(idx, sims):
                out_q.append(int(qid))
                out_n.append(int(ids[i]))
                out_s.append(float(sim))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    candidates = ds.map_batches(
        adc_scan, batch_format="pyarrow", zero_copy_batch=True, batch_size=2048
    )
    return _distributed_rank_reduce(candidates, k)


# -- greedy k-center coreset selection -----------------------------------------


def greedy_kcenter(sf_dir: str, k: int = 8) -> pa.Table:
    """Greedy k-center (farthest-point / Gonzalez 1985) coreset
    selection over the embeddings table: start from the smallest
    vec_id, then repeatedly add the point with the LARGEST distance to
    its nearest already-selected center (ties → smallest vec_id) — the
    classic diversity-maximizing data-selection primitive for training
    corpora (2-approximation of the optimal k-center cover).

    Scale shape: k sequential rounds, each ONE streaming map_batches
    pass — the ≤ k selected centers are a tiny closure broadcast to
    every task, each batch emits a single local champion row CARRYING
    ITS EMBEDDING (so no second scan ever refetches chosen vectors),
    and the global champion is a bounded (one-row-per-block) reduce on
    the driver.  No shuffle at all; cost is exactly k scans, the
    canonical price of the greedy algorithm.  Selection compares
    SQUARED L2 distances (monotonic in L2), so the output is pure
    integers and the DuckDB oracle — a chained MATERIALIZED-CTE argmax
    per round — matches exactly unless two min-distances tie to the
    last float bit."""
    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    def first_candidate(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "emb": pa.array([], pa.list_(pa.float64())),
                }
            )
        j = int(np.argmin(ids))
        return pa.table(
            {
                "vec_id": pa.array([int(ids[j])], pa.int64()),
                "emb": pa.array(
                    [
                        np.asarray(
                            batch.column("embedding")[j].as_py(),
                            dtype=np.float64,
                        ).tolist()
                    ],
                    pa.list_(pa.float64()),
                ),
            }
        )

    firsts = ds.map_batches(
        first_candidate, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()
    if not firsts:
        return pa.table(
            {"rank": pa.array([], pa.int64()), "vec_id": pa.array([], pa.int64())}
        )
    seed = min(firsts, key=lambda r: r["vec_id"])
    chosen = [seed["vec_id"]]
    centers = [np.asarray(seed["emb"], dtype=np.float64)]

    for rank in range(1, k):
        C = np.stack(centers)  # ≤ k × d, broadcast via task closure
        chosen_set = frozenset(chosen)

        def champion(batch: pa.Table, C=C, chosen_set=chosen_set) -> pa.Table:
            empty = pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "md": pa.array([], pa.float64()),
                    "emb": pa.array([], pa.list_(pa.float64())),
                }
            )
            ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
            keep = ~np.isin(ids, list(chosen_set))
            if not keep.any():
                return empty
            ids = ids[keep]
            X = np.asarray(
                batch.column("embedding").to_pylist(), dtype=np.float64
            )[keep]
            # min squared L2 to any center, computed per center to keep
            # the float op order identical across batch sizes
            md = np.full(len(ids), np.inf)
            for c in C:
                d = ((X - c) ** 2).sum(axis=1)
                md = np.minimum(md, d)
            j = np.lexsort((ids, -md))[0]
            return pa.table(
                {
                    "vec_id": pa.array([int(ids[j])], pa.int64()),
                    "md": pa.array([float(md[j])], pa.float64()),
                    "emb": pa.array([X[j].tolist()], pa.list_(pa.float64())),
                }
            )

        cands = ds.map_batches(
            champion, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()
        if not cands:
            break
        best = min(cands, key=lambda r: (-r["md"], r["vec_id"]))
        chosen.append(best["vec_id"])
        centers.append(np.asarray(best["emb"], dtype=np.float64))

    return pa.table(
        {
            "rank": pa.array(range(len(chosen)), pa.int64()),
            "vec_id": pa.array(chosen, pa.int64()),
        }
    )


def _greedy_kcenter_sql(k: int = 8) -> str:
    """Chained-argmax oracle: acc{i} is the selected set after i+1
    rounds.  Every CTE is MATERIALIZED — DuckDB inlines plain CTEs per
    reference, and acc{i-1} is referenced three times per round, which
    would re-evaluate the whole chain exponentially."""
    parts = [
        "WITH acc0 AS MATERIALIZED (\n"
        "  SELECT CAST(0 AS BIGINT) AS rank, vec_id\n"
        "  FROM embeddings ORDER BY vec_id LIMIT 1\n)"
    ]
    for i in range(1, k):
        parts.append(
            f"s{i} AS MATERIALIZED (\n"
            f"  SELECT e.vec_id,\n"
            f"         min(list_distance(e.embedding::DOUBLE[],"
            f" ec.embedding::DOUBLE[]) ** 2) AS md\n"
            f"  FROM embeddings e\n"
            f"  CROSS JOIN acc{i - 1} a\n"
            f"  JOIN embeddings ec ON ec.vec_id = a.vec_id\n"
            f"  WHERE e.vec_id NOT IN (SELECT vec_id FROM acc{i - 1})\n"
            f"  GROUP BY e.vec_id\n)"
        )
        parts.append(
            f"p{i} AS MATERIALIZED (\n"
            f"  SELECT CAST({i} AS BIGINT) AS rank, vec_id\n"
            f"  FROM s{i} ORDER BY md DESC, vec_id LIMIT 1\n)"
        )
        parts.append(
            f"acc{i} AS MATERIALIZED (\n"
            f"  SELECT * FROM acc{i - 1} UNION ALL SELECT * FROM p{i}\n)"
        )
    return (
        ",\n".join(parts)
        + f"\nSELECT rank, vec_id FROM acc{k - 1} ORDER BY rank"
    )


GREEDY_KCENTER_SQL = _greedy_kcenter_sql()


# -- hard-negative mining (contrastive training pairs) --------------------------


def hard_negatives(sf_dir: str, k: int = 5, n_queries: int = 8) -> pa.Table:
    """Contrastive-pair mining: for each query vector, the top-k most
    cosine-similar corpus vectors with a DIFFERENT label — the "hard
    negatives" a contrastive/embedding trainer pairs against the
    anchor.  The exact inverse predicate of knn_filtered, same scale
    shape: queries broadcast once via ray.put, per-batch vectorized
    mask + local top-k, candidates bounded at batches × queries × k,
    then the distributed rank reduce.  Output is integer ranks, so the
    oracle comparison is float-free."""
    import pyarrow.parquet as pq

    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "<", n_queries)],
    )
    qids = np.asarray(qt.column("vec_id").to_pylist(), dtype=np.int64)
    if len(qids) == 0:
        return _empty_knn_result()
    qlabs = np.asarray(qt.column("label").to_pylist(), dtype=np.int64)
    qm = _embedding_matrix(qt.column("embedding"))
    qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    q_ref = ray.put((qids, qlabs, qm))

    def local_topk(batch: pa.Table) -> pa.Table:
        q_ids, q_labs, q_mat = ray.get(q_ref)
        ids, m = _batch_matrix(batch)
        labs = np.asarray(batch.column("label").to_pylist(), dtype=np.int64)
        sims = _normalize(m) @ q_mat.T
        out_q: list[int] = []
        out_n: list[int] = []
        out_s: list[float] = []
        for j, (qid, qlab) in enumerate(zip(q_ids, q_labs)):
            valid = np.flatnonzero(labs != qlab)
            if valid.size == 0:
                continue
            col = sims[valid, j]
            pick = valid[np.lexsort((ids[valid], -col))[: min(k, valid.size)]]
            for i in pick:
                out_q.append(int(qid))
                out_n.append(int(ids[i]))
                out_s.append(float(sims[i, j]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding", "label"],
    )
    candidates = ds.map_batches(
        local_topk, batch_format="pyarrow", zero_copy_batch=True, batch_size=2048
    )
    return _distributed_rank_reduce(candidates, k)


HARD_NEGATIVES_SQL = """
WITH q AS (
  SELECT vec_id AS qid, embedding AS qe, label AS ql
  FROM embeddings WHERE vec_id < 8
),
scored AS (
  SELECT q.qid,
         e.vec_id,
         row_number() OVER (
           PARTITION BY q.qid
           ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id
         ) AS r
  FROM embeddings e JOIN q ON e.label <> q.ql
)
SELECT qid AS query_id, vec_id AS neighbor_id, r AS rank
FROM scored WHERE r <= 5
"""


# -- reciprocal rank fusion (hybrid lexical + dense retrieval) ------------------


def rrf_fusion(sf_dir: str, k: int = 10, depth: int = 20) -> pa.Table:
    """Hybrid retrieval: fuse the BM25 lexical top-``depth`` (fixed
    query terms, text.bm25_topk) with the dense cosine top-``depth``
    (query vector = vec_id 0, knn_brute) by Reciprocal Rank Fusion
    (Cormack, Clarke & Buettcher 2009): each list contributes
    ``1000000 // (60 + rank)`` — integer RRF with the standard
    rrf_k = 60 — and the fused top-k is ordered by (score desc, id).

    Scale shape: all heavy work happens inside the two retrievers
    (each already distributed and individually oracle-checked); the
    fusion itself touches only 2 × depth bounded driver rows.  That IS
    the production shape — RRF is a reranker over candidate lists, not
    a corpus scan."""
    from .text import bm25_topk

    sparse = bm25_topk(sf_dir, k=depth)  # (doc_id, score) best-first
    dense = knn_brute(sf_dir, k=depth, n_queries=1)  # ranks start at 1
    score: dict[int, int] = {}
    for i, did in enumerate(sparse.column("doc_id").to_pylist()):
        score[did] = score.get(did, 0) + 1_000_000 // (60 + i + 1)
    for nid, r in zip(
        dense.column("neighbor_id").to_pylist(),
        dense.column("rank").to_pylist(),
    ):
        score[nid] = score.get(nid, 0) + 1_000_000 // (60 + r)
    top = sorted(score.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    return pa.table(
        {
            "doc_id": pa.array([t[0] for t in top], pa.int64()),
            "rrf_score": pa.array([t[1] for t in top], pa.int64()),
        }
    )


RRF_FUSION_SQL = r"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
  FROM documents
),
dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY 1),
stats AS (SELECT sum(dl) AS a, count(*) AS n FROM dl),
hits AS (
  SELECT doc_id, tok, count(*) AS tf FROM toks
  WHERE tok IN ('scan', 'join', 'window', 'spark') GROUP BY 1, 2
),
df AS (SELECT tok, count(*) AS df FROM hits GROUP BY 1),
scored AS (
  SELECT h.doc_id,
         (1000 * n // df.df) *
         (22000 * tf * 1000 //
          (10000 * tf + 3000 + 9 * (1000 * dl.dl // greatest(a // n, 1))))
           AS s
  FROM hits h
  JOIN df USING (tok)
  JOIN dl USING (doc_id)
  CROSS JOIN stats
),
sparse AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY sum(s) DESC, doc_id) AS r
  FROM scored GROUP BY doc_id
),
q AS (SELECT embedding AS qe FROM embeddings WHERE vec_id = 0),
dense AS (
  SELECT e.vec_id AS doc_id,
         row_number() OVER (
           ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id
         ) AS r
  FROM embeddings e CROSS JOIN q
),
u AS (
  SELECT doc_id, r FROM sparse WHERE r <= 20
  UNION ALL
  SELECT doc_id, r FROM dense WHERE r <= 20
)
SELECT doc_id, CAST(sum(1000000 // (60 + r)) AS BIGINT) AS rrf_score
FROM u GROUP BY doc_id
ORDER BY rrf_score DESC, doc_id LIMIT 10
"""


# -- matryoshka truncation evaluation -------------------------------------------


def matryoshka_recall(
    sf_dir: str, k: int = 10, n_queries: int = 8, trunc_dim: int = 16
) -> pa.Table:
    """Matryoshka-embedding evaluation (Kusupati et al. 2022): how much
    of the full-dimension top-k survives when search uses only the
    first ``trunc_dim`` coordinates — the measurement that decides
    whether a cheap truncated index is good enough before you build
    it.  Output per query: |top-k(full) ∩ top-k(truncated)|.

    Scale shape: two knn_brute-shaped passes (broadcast query matrix,
    per-batch local top-k, distributed rank reduce) — the truncated
    pass normalizes on the SLICE, exactly like a truncated index would;
    the set intersection runs on 2 × queries × k bounded driver rows."""
    import pyarrow.parquet as pq

    full = knn_brute(sf_dir, k=k, n_queries=n_queries)

    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n_queries)],
    )
    qids = np.asarray(qt.column("vec_id").to_pylist(), dtype=np.int64)
    if len(qids) == 0:
        return pa.table(
            {
                "query_id": pa.array([], pa.int64()),
                "n_overlap": pa.array([], pa.int64()),
            }
        )
    qm = _embedding_matrix(qt.column("embedding"))[:, :trunc_dim]
    qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    q_ref = ray.put((qids, qm))

    def local_topk(batch: pa.Table) -> pa.Table:
        q_ids, q_mat = ray.get(q_ref)
        ids, m = _batch_matrix(batch)
        sims = _normalize(m[:, :trunc_dim]) @ q_mat.T
        out_q: list[int] = []
        out_n: list[int] = []
        out_s: list[float] = []
        for j, qid in enumerate(q_ids):
            col = sims[:, j]
            pick = np.lexsort((ids, -col))[: min(k, len(ids))]
            for i in pick:
                out_q.append(int(qid))
                out_n.append(int(ids[i]))
                out_s.append(float(col[i]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "neighbor_id": pa.array(out_n, pa.int64()),
                "sim": pa.array(out_s, pa.float64()),
            }
        )

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    trunc = _distributed_rank_reduce(
        ds.map_batches(
            local_topk,
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=2048,
        ),
        k,
    )

    by_q: dict[int, set[int]] = {}
    for r in full.to_pylist():
        by_q.setdefault(r["query_id"], set()).add(r["neighbor_id"])
    out_q, out_o = [], []
    tr: dict[int, set[int]] = {}
    for r in trunc.to_pylist():
        tr.setdefault(r["query_id"], set()).add(r["neighbor_id"])
    for qid in sorted(by_q):
        out_q.append(qid)
        out_o.append(len(by_q[qid] & tr.get(qid, set())))
    return pa.table(
        {
            "query_id": pa.array(out_q, pa.int64()),
            "n_overlap": pa.array(out_o, pa.int64()),
        }
    )


MATRYOSHKA_RECALL_SQL = """
WITH q AS (
  SELECT vec_id AS qid, embedding AS qe FROM embeddings WHERE vec_id < 8
),
full_r AS (
  SELECT q.qid, e.vec_id,
         row_number() OVER (
           PARTITION BY q.qid
           ORDER BY list_cosine_similarity(e.embedding, q.qe) DESC, e.vec_id
         ) AS r
  FROM embeddings e CROSS JOIN q
),
trunc_r AS (
  SELECT q.qid, e.vec_id,
         row_number() OVER (
           PARTITION BY q.qid
           ORDER BY list_cosine_similarity(
             e.embedding[1:16], q.qe[1:16]
           ) DESC, e.vec_id
         ) AS r
  FROM embeddings e CROSS JOIN q
)
SELECT f.qid AS query_id,
       CAST(count(t.vec_id) AS BIGINT) AS n_overlap
FROM full_r f
LEFT JOIN trunc_r t
  ON t.qid = f.qid AND t.vec_id = f.vec_id AND t.r <= 10
WHERE f.r <= 10
GROUP BY f.qid ORDER BY f.qid
"""


# -- maximal marginal relevance selection ----------------------------------------


def mmr_select(sf_dir: str, k: int = 8) -> pa.Table:
    """Maximal Marginal Relevance (Carbonell & Goldstein 1998) with
    λ = 0.5: select k corpus vectors for query vec_id 0, each round
    maximizing ``relevance − max-similarity-to-already-selected`` (the
    λ=0.5 selection key, ties → smallest vec_id; the query vector
    itself is excluded) — the relevance-AND-diversity selection step
    of RAG context assembly and eval-set construction.

    Scale shape: identical to greedy_kcenter — k streaming scans, the
    ≤ k selected vectors broadcast in the task closure, one champion
    row per block CARRYING ITS EMBEDDING (no refetch scan), bounded
    driver reduce, no shuffle.  The oracle is the same chained
    MATERIALIZED-CTE argmax chain (plain CTEs would re-evaluate the
    prefix exponentially)."""
    import pyarrow.parquet as pq

    qt = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "=", 0)],
    )
    if qt.num_rows == 0:
        return pa.table(
            {"rank": pa.array([], pa.int64()), "vec_id": pa.array([], pa.int64())}
        )
    q = _embedding_matrix(qt.column("embedding"))[0]
    q = q / np.linalg.norm(q)

    ds = read_parquet_clean(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )

    chosen: list[int] = []
    sel_unit: list[np.ndarray] = []  # normalized selected vectors
    for _ in range(k):
        S = np.stack(sel_unit) if sel_unit else None
        chosen_set = frozenset(chosen)

        def champion(
            batch: pa.Table, S=S, chosen_set=chosen_set
        ) -> pa.Table:
            empty = pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "sc": pa.array([], pa.float64()),
                    "emb": pa.array([], pa.list_(pa.float64())),
                }
            )
            ids, m = _batch_matrix(batch)
            keep = (ids != 0) & ~np.isin(ids, list(chosen_set))
            if not keep.any():
                return empty
            ids = ids[keep]
            u = _normalize(m[keep])
            sc = u @ q
            if S is not None:
                sc = sc - (u @ S.T).max(axis=1)
            j = np.lexsort((ids, -sc))[0]
            return pa.table(
                {
                    "vec_id": pa.array([int(ids[j])], pa.int64()),
                    "sc": pa.array([float(sc[j])], pa.float64()),
                    "emb": pa.array([u[j].tolist()], pa.list_(pa.float64())),
                }
            )

        cands = ds.map_batches(
            champion, batch_format="pyarrow", zero_copy_batch=True
        ).take_all()
        if not cands:
            break
        best = min(cands, key=lambda r: (-r["sc"], r["vec_id"]))
        chosen.append(best["vec_id"])
        sel_unit.append(np.asarray(best["emb"], dtype=np.float64))

    return pa.table(
        {
            "rank": pa.array(range(len(chosen)), pa.int64()),
            "vec_id": pa.array(chosen, pa.int64()),
        }
    )


def _mmr_select_sql(k: int = 8) -> str:
    parts = [
        "WITH q AS MATERIALIZED (\n"
        "  SELECT embedding::DOUBLE[] AS qe FROM embeddings WHERE vec_id = 0\n)",
        "acc0 AS MATERIALIZED (\n"
        "  SELECT CAST(0 AS BIGINT) AS rank, e.vec_id\n"
        "  FROM embeddings e CROSS JOIN q\n"
        "  WHERE e.vec_id <> 0\n"
        "  ORDER BY list_cosine_similarity(e.embedding::DOUBLE[], q.qe)"
        " DESC, e.vec_id LIMIT 1\n)",
    ]
    for i in range(1, k):
        parts.append(
            f"s{i} AS MATERIALIZED (\n"
            f"  SELECT e.vec_id,\n"
            f"         max(list_cosine_similarity(e.embedding::DOUBLE[],"
            f" q.qe))\n"
            f"         - max(list_cosine_similarity(e.embedding::DOUBLE[],"
            f" ec.embedding::DOUBLE[])) AS sc\n"
            f"  FROM embeddings e CROSS JOIN q\n"
            f"  CROSS JOIN acc{i - 1} a\n"
            f"  JOIN embeddings ec ON ec.vec_id = a.vec_id\n"
            f"  WHERE e.vec_id <> 0\n"
            f"    AND e.vec_id NOT IN (SELECT vec_id FROM acc{i - 1})\n"
            f"  GROUP BY e.vec_id\n)"
        )
        parts.append(
            f"p{i} AS MATERIALIZED (\n"
            f"  SELECT CAST({i} AS BIGINT) AS rank, vec_id\n"
            f"  FROM s{i} ORDER BY sc DESC, vec_id LIMIT 1\n)"
        )
        parts.append(
            f"acc{i} AS MATERIALIZED (\n"
            f"  SELECT * FROM acc{i - 1} UNION ALL SELECT * FROM p{i}\n)"
        )
    return (
        ",\n".join(parts)
        + f"\nSELECT rank, vec_id FROM acc{k - 1} ORDER BY rank"
    )


MMR_SELECT_SQL = _mmr_select_sql()

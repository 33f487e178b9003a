"""Text analysis operators over the documents table.

All hot-path work is vectorized (pyarrow.compute RE2 kernels) or batched;
every operator is a narrow map_batches — no shuffles.  SQL-checkable
operators keep bit-identical semantics with their DuckDB oracles
(integer counts, not floats, for hash-stable comparison).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

STOPWORDS = ("the", "a", "of", "and", "to", "in", "is", "it")

# Order defines the deterministic tie-break (first wins on equal scores).
_LANG_PROFILES = [
    ("en", {"the", "and", "of", "to", "a", "in", "is", "that", "it", "for"}),
    ("de", {"der", "die", "das", "und", "ist", "nicht", "ein", "mit", "zu"}),
    ("fr", {"le", "la", "les", "et", "est", "un", "une", "dans", "pour"}),
    ("es", {"el", "la", "los", "las", "es", "un", "una", "en", "por"}),
]

from ._util import TOKEN_PATTERN, quantile_disc_pick

_TOKEN_RE = re.compile(TOKEN_PATTERN)
_BPE_ISH = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


def read_documents(sf_dir: str, columns=None) -> "ray.data.Dataset":
    # Column pruning at the read: only what the operator needs leaves storage.
    from ._util import read_parquet_clean

    return read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=columns or ["doc_id", "text"]
    )


def _token_stats_batch(batch: pa.Table) -> pa.Table:
    text = batch.column("text")
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pc.cast(pc.utf8_length(text), pa.int64()),
            "n_tokens": pc.cast(pc.count_substring_regex(text, r"\S+"), pa.int64()),
            "n_bpe_tokens": pc.cast(
                pc.count_substring_regex(text, _BPE_ISH), pa.int64()
            ),
            "n_alpha": pc.cast(
                pc.count_substring_regex(text, "[A-Za-z]"), pa.int64()
            ),
            "n_digit": pc.cast(pc.count_substring_regex(text, "[0-9]"), pa.int64()),
            "n_punct": pc.cast(
                pc.count_substring_regex(text, r"[^A-Za-z0-9\s]"), pa.int64()
            ),
        }
    )


def token_stats(sf_dir: str) -> "ray.data.Dataset":
    """Character/token counting — fully vectorized RE2 kernels."""
    return read_documents(sf_dir).map_batches(
        _token_stats_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _quality_batch(batch: pa.Table) -> pa.Table:
    texts = batch.column("text").to_pylist()
    n_stop: list[int] = []
    n_tok: list[int] = []
    for t in texts:
        toks = _TOKEN_RE.findall(t.lower())
        n_tok.append(len(toks))
        n_stop.append(sum(1 for w in toks if w in STOPWORDS))
    n_stop_a = pa.array(n_stop, pa.int64())
    n_tok_a = pa.array(n_tok, pa.int64())
    # Integer quality score in [0, 1000]: stopword density (floor division
    # keeps the oracle hash-stable).
    score = pc.if_else(
        pc.greater(n_tok_a, 0),
        pc.divide(pc.multiply(n_stop_a, 1000), pc.max_element_wise(n_tok_a, 1)),
        pa.scalar(0, pa.int64()),
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_tokens_alnum": n_tok_a,
            "n_stopwords": n_stop_a,
            "quality_score": pc.cast(score, pa.int64()),
        }
    )


def quality_score(sf_dir: str) -> "ray.data.Dataset":
    return read_documents(sf_dir).map_batches(
        _quality_batch, batch_format="pyarrow", zero_copy_batch=True
    )


class LangId:
    """Stopword-profile + CJK-ratio language heuristic; the profile
    tables are module state shared by every task."""

    def __init__(self):
        self.profiles = _LANG_PROFILES
        self.token_re = _TOKEN_RE

    def __call__(self, batch: pa.Table) -> pa.Table:
        langs: list[str] = []
        confs: list[int] = []
        for t in batch.column("text").to_pylist():
            n = len(t)
            if n == 0:
                langs.append("und")
                confs.append(0)
                continue
            cjk = sum(1 for ch in t if "一" <= ch <= "鿿")
            if cjk * 4 >= n:
                langs.append("zh")
                confs.append(cjk * 1000 // n)
                continue
            toks = self.token_re.findall(t.lower())
            if not toks:
                langs.append("und")
                confs.append(0)
                continue
            # Integer scoring: profiles share the denominator (len(toks)),
            # so the argmax compares raw stopword counts; the confidence is
            # a floor-divided permille — hash-stable vs the SQL oracle.
            best_lang, best = "und", -1
            for lang, stops in self.profiles:
                score = sum(1 for w in toks if w in stops)
                if score > best:
                    best_lang, best = lang, score
            langs.append(best_lang if best > 0 else "und")
            confs.append(max(best, 0) * 1000 // len(toks))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": pa.array(langs, pa.string()),
                "conf_x1000": pa.array(confs, pa.int64()),
            }
        )


_LANG_ID_STAGE = LangId()


def _lang_id_batch(batch: pa.Table) -> pa.Table:
    return _LANG_ID_STAGE(batch)


def lang_id(sf_dir: str) -> "ray.data.Dataset":
    # Task pool, not actor pool: the profile table is tiny module state.
    return read_documents(sf_dir).map_batches(
        _lang_id_batch, batch_format="pyarrow", zero_copy_batch=True
    )


# Boilerplate phrases stripped by normalize_text (case-insensitive), the
# same alternation the SQL oracle uses.
_BOILERPLATE_PHRASES = (
    "all rights reserved",
    "terms of service",
    "privacy policy",
    "post a comment",
    "click here to subscribe",
)
_BOILERPLATE_RE = re.compile("(?i)(" + "|".join(_BOILERPLATE_PHRASES) + ")")
# ASCII whitespace class spelled out so Python re and DuckDB RE2 agree
# (Python's \s is Unicode-wide on str; RE2's is ASCII).
_ASCII_WS_RE = re.compile("[ \t\n\r\f\v]+")


def _normalize_batch(batch: pa.Table) -> pa.Table:
    import unicodedata

    out_text: list[str] = []
    for t in batch.column("text").to_pylist():
        t = unicodedata.normalize("NFC", t)
        t = _BOILERPLATE_RE.sub("", t)
        t = _ASCII_WS_RE.sub(" ", t).strip(" ")
        out_text.append(t)
    texts = pa.array(out_text, pa.string())
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "norm_len": pc.cast(pc.utf8_length(texts), pa.int64()),
            "norm_hash": pa.array(
                [hashlib.md5(t.encode("utf-8")).hexdigest() for t in out_text],
                pa.string(),
            ),
        }
    )


def normalize_text(sf_dir: str) -> "ray.data.Dataset":
    """Text normalization for training corpora: NFC, boilerplate-phrase
    stripping, ASCII-whitespace collapse; emits (len, md5) of the
    normalized text so the oracle compares content bit-exactly without
    shipping the strings twice."""
    return read_documents(sf_dir).map_batches(
        _normalize_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _fingerprint_batch(batch: pa.Table) -> pa.Table:
    fps = [
        hashlib.md5(t.encode("utf-8")).hexdigest()
        for t in batch.column("text").to_pylist()
    ]
    return pa.table(
        {"doc_id": batch.column("doc_id"), "fp": pa.array(fps, pa.string())}
    )


def fingerprint(sf_dir: str) -> "ray.data.Dataset":
    """Document fingerprint = md5(text) (matches DuckDB md5())."""
    return read_documents(sf_dir).map_batches(
        _fingerprint_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def rolling_fingerprint(sf_dir: str, window: int = 4) -> "ray.data.Dataset":
    """Karp-Rabin rolling hash over word windows; fingerprint = min hash
    (a one-permutation sketch).  Token values are the low 32 bits of the
    DuckDB-matchable md5 hash so ROLLING_FP_SQL can recompute every window
    hash directly (the rolling recurrence mod 2^61-1 equals the plain
    window polynomial mod 2^61-1)."""
    from .dedup import _md5_u64

    def batch_fn(batch: pa.Table) -> pa.Table:
        out: list[int] = []
        for t in batch.column("text").to_pylist():
            toks = _TOKEN_RE.findall(t.lower())
            if len(toks) < window:
                out.append(0)
                continue
            base, mod = 1_000_003, (1 << 61) - 1
            h = 0
            power = pow(base, window - 1, mod)
            vals = [_md5_u64(w) & 0xFFFFFFFF for w in toks]
            for v in vals[:window]:
                h = (h * base + v) % mod
            best = h
            for i in range(window, len(vals)):
                h = ((h - vals[i - window] * power) * base + vals[i]) % mod
                best = min(best, h)
            out.append(best)
        return pa.table(
            {"doc_id": batch.column("doc_id"), "rolling_fp": pa.array(out, pa.int64())}
        )

    return read_documents(sf_dir).map_batches(
        batch_fn, batch_format="pyarrow", zero_copy_batch=True
    )


PACK_BUDGET_TOKENS = 512
_PACK_BUCKET_WIDTH = 256


def pack_sequences(sf_dir: str) -> "ray.data.Dataset":
    """Sequence packing for training: documents in doc_id order are packed
    contiguously into sequences of up to PACK_BUDGET_TOKENS whitespace
    tokens; seq_id = exclusive-prefix-token-count // budget.

    Same two-pass distributed scan as running_total: doc_id-range buckets
    → per-bucket token totals (one row per bucket; the broadcast offsets
    table is O(id_range / bucket_width), so width scales with corpus
    size) → in-bucket cumsum + offset.  No global sort, no O(rows) driver
    state."""

    def with_counts(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = pc.cast(
            pc.count_substring_regex(batch.column("text"), r"\S+"), pa.int64()
        )
        return pa.table(
            {
                "bucket": pa.array(ids // _PACK_BUCKET_WIDTH, pa.int64()),
                "doc_id": batch.column("doc_id"),
                "n_tokens": n,
            }
        )

    from ._util import ensure_columns, keyed_aggregate, partitioned_by_key, run_bounds

    counted = read_documents(sf_dir).map_batches(
        with_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    totals = ensure_columns(
        keyed_aggregate(counted, "bucket", {"n": ("n_tokens", "sum")}).to_pandas(),
        ["bucket", "n"],
    ).sort_values("bucket")
    offsets = dict(
        zip(
            totals["bucket"].tolist(),
            np.concatenate([[0], np.cumsum(totals["n"].to_numpy())[:-1]])
            .astype(int)
            .tolist(),
        )
    )
    import ray as _ray

    offsets_ref = _ray.put(offsets)

    def scan(block: pa.Table) -> pa.Table:
        off = _ray.get(offsets_ref)
        bkt = block.column("bucket").to_numpy(zero_copy_only=False)
        ids = block.column("doc_id").to_numpy(zero_copy_only=False)
        n = block.column("n_tokens").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, bkt))
        bkt, ids, n = bkt[order], ids[order], n[order]
        b = run_bounds(bkt)
        excl = np.cumsum(n) - n
        # Restart the prefix sum at each bucket, from the bucket's offset.
        base = np.array([off[int(x)] for x in bkt[b[:-1]]], np.int64) - excl[b[:-1]]
        excl = excl + np.repeat(base, np.diff(b))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(n, pa.int64()),
                "seq_id": pa.array(excl // PACK_BUDGET_TOKENS, pa.int64()),
            }
        )

    return partitioned_by_key(counted, "bucket", scan)


PACK_SEQUENCES_SQL = rf"""
SELECT doc_id,
       len(regexp_extract_all(text, '\S+'))::BIGINT AS n_tokens,
       CAST((SUM(len(regexp_extract_all(text, '\S+'))::BIGINT)
          OVER (ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
        - len(regexp_extract_all(text, '\S+'))::BIGINT)
       // {PACK_BUDGET_TOKENS} AS BIGINT) AS seq_id
FROM documents
"""


# -- DuckDB oracles ---------------------------------------------------------

TOKEN_STATS_SQL = r"""
SELECT doc_id,
       length(text) AS n_chars,
       len(regexp_extract_all(text, '\S+')) AS n_tokens,
       len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]')) AS n_bpe_tokens,
       len(regexp_extract_all(text, '[A-Za-z]')) AS n_alpha,
       len(regexp_extract_all(text, '[0-9]')) AS n_digit,
       len(regexp_extract_all(text, '[^A-Za-z0-9\s]')) AS n_punct
FROM documents
"""

QUALITY_SQL = """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts FROM documents
)
SELECT doc_id,
       len(ts) AS n_tokens_alnum,
       len(list_filter(ts, t -> t IN ('the','a','of','and','to','in','is','it')))
           AS n_stopwords,
       CASE WHEN len(ts) > 0
            THEN (len(list_filter(ts, t -> t IN ('the','a','of','and','to','in','is','it'))) * 1000)
                 // greatest(len(ts), 1)
            ELSE 0 END AS quality_score
FROM toks
"""

FINGERPRINT_SQL = "SELECT doc_id, md5(text) AS fp FROM documents"

# Rolling Karp-Rabin min-hash (window=4): each window hash computed as the
# direct polynomial mod 2^61-1 (identical to the Python rolling recurrence);
# token value = low 32 bits of md5_number_lower.  HUGEINT keeps the 4-term
# polynomial exact (< 2^94).
ROLLING_FP_SQL = r"""
WITH t AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(lower(text), '[a-z0-9]+'),
                        w -> (md5_number_lower(w) & 4294967295)::BIGINT) AS v
  FROM documents
)
SELECT doc_id,
  CASE WHEN len(v) < 4 THEN 0
  ELSE list_min(list_transform(range(1, len(v) - 2), i ->
      ((v[i]::HUGEINT * 1000003 * 1000003 * 1000003
      + v[i+1]::HUGEINT * 1000003 * 1000003
      + v[i+2]::HUGEINT * 1000003
      + v[i+3]::HUGEINT) % 2305843009213693951)::BIGINT))
  END AS rolling_fp
FROM t
"""

NORMALIZE_SQL = r"""
WITH n AS (
  SELECT doc_id,
         trim(regexp_replace(
           regexp_replace(
             nfc_normalize(text),
             '(?i)(all rights reserved|terms of service|privacy policy|post a comment|click here to subscribe)',
             '', 'g'),
           '[ \t\n\r\f\v]+', ' ', 'g'), ' ') AS t
  FROM documents
)
SELECT doc_id, length(t) AS norm_len, md5(t) AS norm_hash FROM n
"""

# Mirrors LangId exactly for ASCII corpora (the CJK branch never fires:
# cjk_count = 0 < n/4).  All four profiles share the token-count
# denominator, so the Python argmax over ratios equals an argmax over raw
# counts with first-profile-wins ties — the CASE chain below.
LANG_ID_SQL = """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts FROM documents
),
c AS (
  SELECT doc_id, len(ts) AS n,
    len(list_filter(ts, t -> t IN ('the','and','of','to','a','in','is','that','it','for'))) AS c_en,
    len(list_filter(ts, t -> t IN ('der','die','das','und','ist','nicht','ein','mit','zu'))) AS c_de,
    len(list_filter(ts, t -> t IN ('le','la','les','et','est','un','une','dans','pour'))) AS c_fr,
    len(list_filter(ts, t -> t IN ('el','la','los','las','es','un','una','en','por'))) AS c_es
  FROM toks
)
SELECT doc_id,
  CASE
    WHEN n = 0 OR greatest(c_en, c_de, c_fr, c_es) = 0 THEN 'und'
    WHEN c_en >= c_de AND c_en >= c_fr AND c_en >= c_es THEN 'en'
    WHEN c_de >= c_fr AND c_de >= c_es THEN 'de'
    WHEN c_fr >= c_es THEN 'fr'
    ELSE 'es'
  END AS lang,
  CASE WHEN n = 0 THEN 0
       ELSE greatest(c_en, c_de, c_fr, c_es) * 1000 // n END AS conf_x1000
FROM c
"""


# -- test-set contamination check -------------------------------------------

# Deterministic held-out "benchmark" slice of the documents table: the
# modulus is coprime to the generator's id strides so the slice is spread
# across partitions, and ~1% of docs keeps the broadcast side small at
# any corpus scale (the same size discipline as a real eval set).
_BENCH_MOD, _BENCH_RESIDUE = 97, 13


def contamination_check(sf_dir: str, k: int = 3) -> "ray.data.Dataset":
    """Decontamination: score every training document by its k-gram
    overlap with a held-out benchmark slice (doc_id % 97 == 13).

    The benchmark shingle set is the SMALL side, so this is a broadcast
    membership probe, not a join: benchmark docs are shingled in a
    distributed stage, their distinct hashes concatenated into one sorted
    int64 array on the driver (O(benchmark) only — an eval set stays
    small by construction even at 100 TB of training data), ``ray.put``
    once, and every training batch runs a vectorized ``np.searchsorted``
    membership test.  The training corpus itself never shuffles and never
    materializes.  Output is integer-exact for the oracle: distinct
    shingle count, hit count, and overlap in permille (0 when a doc is
    too short to have shingles)."""
    docs = read_documents(sf_dir)

    def bench_shingles(batch: pa.Table) -> pa.Table:
        from ._util import batch_distinct_window_hashes

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % _BENCH_MOD == _BENCH_RESIDUE
        sub = batch.filter(pa.array(keep))
        _, _, _, sh = batch_distinct_window_hashes(sub, k)
        return pa.table({"shingle": pa.array(np.unique(sh), pa.int64())})

    bench_ds = docs.map_batches(
        bench_shingles, batch_format="pyarrow", zero_copy_batch=True
    )
    # Bounded driver merge of the small side (one int64 column).
    bench_tbl = pa.concat_tables(
        [pa.table({"shingle": b.column("shingle")}) for b in
         bench_ds.iter_batches(batch_format="pyarrow")]
    )
    bench_sorted = np.unique(bench_tbl.column("shingle").to_numpy(zero_copy_only=False))
    bench_ref = ray.put(bench_sorted)

    def score(batch: pa.Table) -> pa.Table:
        from ._util import batch_distinct_window_hashes

        bench = ray.get(bench_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep = ids % _BENCH_MOD != _BENCH_RESIDUE
        sub = batch.filter(pa.array(keep))
        doc_ids, _, sh_doc, sh = batch_distinct_window_hashes(sub, k)
        # One vectorized pass for the whole batch: distinct-shingle and
        # benchmark-hit counts scatter back per doc via bincount.
        n_sh_a = np.bincount(sh_doc, minlength=doc_ids.size).astype(np.int64)
        if sh.size and bench.size:
            pos = np.clip(np.searchsorted(bench, sh), 0, len(bench) - 1)
            hit = bench[pos] == sh
            n_hit_a = np.bincount(
                sh_doc[hit], minlength=doc_ids.size
            ).astype(np.int64)
        else:
            n_hit_a = np.zeros(doc_ids.size, np.int64)
        permille = np.where(n_sh_a > 0, (n_hit_a * 1000) // np.maximum(n_sh_a, 1), 0)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_sh": pa.array(n_sh_a, pa.int64()),
                "n_hit": pa.array(n_hit_a, pa.int64()),
                "overlap_permille": pa.array(permille, pa.int64()),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


CONTAMINATION_SQL = f"""
WITH bench AS (
  SELECT text FROM documents WHERE doc_id % {_BENCH_MOD} = {_BENCH_RESIDUE}
),
btoks AS (
  SELECT regexp_extract_all(lower(text), '[a-z0-9]+') AS ts FROM bench
),
bsh AS (
  SELECT DISTINCT ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] AS shingle
  FROM btoks, UNNEST(range(1, len(ts) - 1)) AS r(i)
  WHERE len(ts) >= 3
),
train AS (
  SELECT doc_id, text FROM documents WHERE doc_id % {_BENCH_MOD} <> {_BENCH_RESIDUE}
),
ttoks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts FROM train
),
tsh AS (
  SELECT DISTINCT doc_id, ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2] AS shingle
  FROM ttoks, UNNEST(range(1, len(ts) - 1)) AS r(i)
  WHERE len(ts) >= 3
),
stats AS (
  SELECT t.doc_id,
         count(*) AS n_sh,
         count(b.shingle) AS n_hit
  FROM tsh t LEFT JOIN bsh b USING (shingle)
  GROUP BY t.doc_id
)
SELECT d.doc_id,
       COALESCE(s.n_sh, 0) AS n_sh,
       COALESCE(s.n_hit, 0) AS n_hit,
       CASE WHEN COALESCE(s.n_sh, 0) > 0
            THEN (s.n_hit * 1000) // s.n_sh ELSE 0 END AS overlap_permille
FROM train d LEFT JOIN stats s ON s.doc_id = d.doc_id
"""


# -- document frequency (global top-k vocabulary) ---------------------------


def doc_frequency(sf_dir: str, k: int = 100) -> pa.Table:
    """Top-k tokens by document frequency — the global-vocabulary stat a
    tokenizer/stop-list builder needs.

    Combiner discipline for the hot keys: a token like "the" appears in
    every document, so shuffling raw (token, doc) rows would funnel the
    whole corpus through one reducer.  Instead each batch pre-aggregates
    to one (token, partial df) row per distinct token per batch (numpy
    unique over per-doc distinct tokens), the keyed aggregate shuffles
    only those bounded partials, and the final top-k uses the same per-block
    select_k + bounded driver merge as top_events — no global sort."""

    def partial_df(batch: pa.Table) -> pa.Table:
        counts: dict = {}
        for t in batch.column("text").to_pylist():
            for tok in set(_TOKEN_RE.findall(t.lower())):
                counts[tok] = counts.get(tok, 0) + 1
        return pa.table(
            {
                "token": pa.array(list(counts.keys()), pa.string()),
                "df_part": pa.array(list(counts.values()), pa.int64()),
            }
        )

    from ._util import ensure_columns, keyed_aggregate

    rolled = keyed_aggregate(
        read_documents(sf_dir, columns=["text"]).map_batches(
            partial_df, batch_format="pyarrow", zero_copy_batch=True
        ),
        "token",
        {"df": ("df_part", "sum")},
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            batch,
            k=min(k, batch.num_rows),
            sort_keys=[("df", "descending"), ("token", "ascending")],
        )
        return batch.take(idx)

    cand = ensure_columns(
        rolled.map_batches(
            local_topk, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas(),
        ["token", "df"],
    )
    cand = cand.sort_values(["df", "token"], ascending=[False, True]).head(k)
    return pa.table(
        {
            "token": pa.array(cand["token"], pa.string()),
            "df": pa.array(cand["df"].astype("int64"), pa.int64()),
        }
    )


DOC_FREQUENCY_SQL = """
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts FROM documents
),
tok AS (SELECT DISTINCT doc_id, unnest(ts) AS token FROM toks)
SELECT token, count(*) AS df
FROM tok GROUP BY token
ORDER BY df DESC, token ASC
LIMIT 100
"""


# -- TF-IDF keyword extraction ----------------------------------------------

TFIDF_K = 3


def tfidf_topk(sf_dir: str, k: int = TFIDF_K) -> "ray.data.Dataset":
    """Per-document top-k terms by TF-IDF — the keyword/feature-selection
    step of a corpus profiler.

    Two keyed shuffles of fixed-width rows, no broadcast table, and
    both wide steps are PARTITION-vectorized (at most min(P, 2 × CPUs)
    kernel calls each, not one Python call per token or per doc):
    (1) per-batch term counting emits (doc_id, token, tf) rows;
    (2) a blake2(token) % P shuffle co-locates each token; df per
        distinct token is a bincount over np.unique codes (one row per
        doc per token, so ``df == rows per token``) and the rows
        re-emit with df attached — no separate vocabulary table exists
        anywhere, which matters when web-crawl vocabularies run to
        billions of junk tokens;
    (3) a doc_id % P shuffle scores and keeps each doc's top-k via one
        lexsort + run-position cut per partition.

    The score is integer (``tf * 1000 * N // df`` — monotone in
    tf x N/df) so the DuckDB oracle comparison is hash-stable; a float
    log-idf would rank identically for fixed tf."""
    import pyarrow.parquet as pq

    ds = read_documents(sf_dir)
    # Row count from the parquet footer alone — no scan, no Ray job
    # (Dataset.count() would launch a read of doc_id through the
    # metadata-strip stage).
    n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows

    def term_counts(batch: pa.Table) -> pa.Table:
        import collections

        d_ids: list[int] = []
        d_tok: list[str] = []
        d_tf: list[int] = []
        ids = batch.column("doc_id").to_pylist()
        for did, t in zip(ids, batch.column("text").to_pylist()):
            for tok, cnt in collections.Counter(
                _TOKEN_RE.findall(t.lower())
            ).items():
                d_ids.append(did)
                d_tok.append(tok)
                d_tf.append(cnt)
        return pa.table(
            {
                "doc_id": pa.array(d_ids, pa.int64()),
                "token": pa.array(d_tok, pa.string()),
                "tf": pa.array(d_tf, pa.int64()),
            }
        )

    def attach_df_part(part: pa.Table) -> pa.Table:
        """All tokens of a blake2(token) % P partition at once: df per
        distinct token is one bincount over np.unique codes (df == rows
        per token because stage 1 emits one row per (doc, token))."""
        toks = np.asarray(part.column("token").to_pylist(), dtype=object)
        uniq, inv = np.unique(toks, return_inverse=True)
        df = np.bincount(inv, minlength=len(uniq))[inv]
        return pa.table(
            {
                "doc_id": part.column("doc_id"),
                "token": part.column("token"),
                "tf": part.column("tf"),
                "df": pa.array(df.astype(np.int64), pa.int64()),
            }
        )

    def topk_part(part: pa.Table) -> pa.Table:
        """All docs of a doc_id % P partition at once: lexsort by
        (doc, -score, token), positions within each doc run give both
        the top-k cut and the rank."""
        from ._util import run_bounds

        doc = part.column("doc_id").to_numpy(zero_copy_only=False)
        tf = part.column("tf").to_numpy(zero_copy_only=False)
        df = part.column("df").to_numpy(zero_copy_only=False)
        toks = np.asarray(part.column("token").to_pylist(), dtype=object)
        # Guard the int64 product: numpy wraps silently where the BIGINT
        # oracle would error.  At corpus scales where tf*1000*N no longer
        # fits (N ~ 1e10 with tf ~ 1e6), switch the score to log-idf.
        if tf.size and int(tf.max()) * 1000 * n_docs > 2**63 - 1:
            raise OverflowError(
                "tfidf_milli exceeds int64 at this corpus scale — "
                "use a log-idf score"
            )
        score = tf * 1000 * n_docs // df
        order = np.lexsort((toks, -score, doc))
        doc_s = doc[order]
        b = run_bounds(doc_s)
        pos = np.arange(len(doc_s), dtype=np.int64) - np.repeat(
            b[:-1], np.diff(b)
        )
        keep = pos < k
        sel = order[keep]
        return pa.table(
            {
                "doc_id": pa.array(doc[sel], pa.int64()),
                "token": pa.array(toks[sel], pa.string()),
                "tf": pa.array(tf[sel], pa.int64()),
                "df": pa.array(df[sel], pa.int64()),
                "tfidf_milli": pa.array(score[sel], pa.int64()),
                "rank": pa.array(pos[keep] + 1, pa.int64()),
            }
        )

    from ._util import partitioned_by_key

    with_df = partitioned_by_key(
        ds.map_batches(term_counts, batch_format="pyarrow", zero_copy_batch=True),
        "token",
        attach_df_part,
    )
    return partitioned_by_key(with_df, "doc_id", topk_part)


TFIDF_TOPK_SQL = f"""
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '{TOKEN_PATTERN}')) AS token
  FROM documents
),
tf AS (SELECT doc_id, token, count(*) AS tf FROM tok GROUP BY 1, 2),
df AS (SELECT token, count(*) AS df FROM tf GROUP BY 1),
n AS (SELECT count(*) AS n FROM documents),
scored AS (
  SELECT tf.doc_id, tf.token, tf.tf, df.df,
         tf.tf * 1000 * n.n // df.df AS tfidf_milli
  FROM tf JOIN df ON tf.token = df.token CROSS JOIN n
)
SELECT doc_id, token, tf, df, tfidf_milli,
       row_number() OVER (
           PARTITION BY doc_id ORDER BY tfidf_milli DESC, token
       ) AS rank
FROM scored
QUALIFY rank <= {TFIDF_K}
"""


# -- PII scrubbing -----------------------------------------------------------

# RE2-class patterns (no backtracking) shared verbatim by the pyarrow
# kernels and the DuckDB oracle (both engines are RE2-semantics).
# Replacement order matters (an email must not first lose its digits to
# the phone pattern): email → ipv4 → phone, mirrored in the SQL.
_PII_EMAIL = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
_PII_IPV4 = r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b"
_PII_PHONE = r"\+?[0-9][0-9\- ]{7,}[0-9]"


def scrub_pii(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Redact emails / IPv4 addresses / phone-shaped digit runs from the
    text column — the standard pre-training scrub pass.

    Fully vectorized: three ``pc.count_substring_regex`` +
    ``pc.replace_substring_regex`` RE2 kernels per batch, no Python per
    row, no shuffle.  Output keeps integer counts and an md5 of the
    scrubbed text so the oracle comparison is hash-stable."""

    def scrub(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        n_email = pc.count_substring_regex(text, _PII_EMAIL)
        clean = pc.replace_substring_regex(text, _PII_EMAIL, "<EMAIL>")
        n_ip = pc.count_substring_regex(clean, _PII_IPV4)
        clean = pc.replace_substring_regex(clean, _PII_IPV4, "<IP>")
        n_phone = pc.count_substring_regex(clean, _PII_PHONE)
        clean = pc.replace_substring_regex(clean, _PII_PHONE, "<PHONE>")
        hashes = [
            hashlib.md5(t.encode("utf-8")).hexdigest() for t in clean.to_pylist()
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_email": pc.cast(n_email, pa.int64()),
                "n_ip": pc.cast(n_ip, pa.int64()),
                "n_phone": pc.cast(n_phone, pa.int64()),
                "clean_len": pc.cast(pc.utf8_length(clean), pa.int64()),
                "clean_hash": pa.array(hashes, pa.string()),
            }
        )

    return ds.map_batches(scrub, batch_format="pyarrow", zero_copy_batch=True)


def pii_scrub(sf_dir: str) -> "ray.data.Dataset":
    return scrub_pii(read_documents(sf_dir))


PII_SCRUB_SQL = rf"""
WITH s1 AS (
  SELECT doc_id, text,
         length(regexp_extract_all(text, '{_PII_EMAIL}')) AS n_email,
         regexp_replace(text, '{_PII_EMAIL}', '<EMAIL>', 'g') AS t1
  FROM documents
),
s2 AS (
  SELECT doc_id, n_email,
         length(regexp_extract_all(t1, '{_PII_IPV4}')) AS n_ip,
         regexp_replace(t1, '{_PII_IPV4}', '<IP>', 'g') AS t2
  FROM s1
),
s3 AS (
  SELECT doc_id, n_email, n_ip,
         length(regexp_extract_all(t2, '{_PII_PHONE}')) AS n_phone,
         regexp_replace(t2, '{_PII_PHONE}', '<PHONE>', 'g') AS t3
  FROM s2
)
SELECT doc_id, n_email, n_ip, n_phone,
       length(t3) AS clean_len, md5(t3) AS clean_hash
FROM s3
"""


# -- repetition stats (Gopher/C4-style quality signals) ----------------------


def repetition_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-document repetition signals used by C4/Gopher-style quality
    filters: the fraction of lines that are duplicates of another line
    in the same document, and the share of the most common word bigram
    among all bigram occurrences.  Integer permille for hash-stable
    oracle comparison; narrow map_batches, no shuffle.  Bigram counting
    is the batch-wide vectorized window-hash sweep (k = 2, one lexsort
    per batch); the line pass stays per-doc Python — lines per doc are
    few and the work is dict counting, not windowing."""

    def stats(batch: pa.Table) -> pa.Table:
        from ._util import batch_window_hashes

        dup_line_pm: list[int] = []
        for t in batch.column("text").to_pylist():
            lines = t.split("\n")
            if lines:
                seen: dict = {}
                for ln in lines:
                    seen[ln] = seen.get(ln, 0) + 1
                dups = sum(c for c in seen.values() if c > 1)
                dup_line_pm.append(dups * 1000 // len(lines))
            else:
                dup_line_pm.append(0)
        doc_ids, lens, gram, gdoc, _ = batch_window_hashes(batch, 2)
        top = np.zeros(doc_ids.size, np.int64)
        if gram.size:
            order = np.lexsort((gram, gdoc))
            g2, d2 = gram[order], gdoc[order]
            nb = np.concatenate(
                (
                    [0],
                    np.flatnonzero((np.diff(d2) != 0) | (np.diff(g2) != 0))
                    + 1,
                    [d2.size],
                )
            )
            np.maximum.at(top, d2[nb[:-1]], np.diff(nb))
        top_bigram_pm = np.where(lens >= 2, top * 1000 // np.maximum(lens - 1, 1), 0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "dup_line_permille": pa.array(dup_line_pm, pa.int64()),
                "top_bigram_permille": pa.array(
                    top_bigram_pm.astype(np.int64), pa.int64()
                ),
            }
        )

    return read_documents(sf_dir).map_batches(
        stats, batch_format="pyarrow", zero_copy_batch=True
    )


REPETITION_SQL = """
WITH lines AS (
  SELECT doc_id, unnest(string_split(text, chr(10))) AS ln FROM documents
),
lc AS (SELECT doc_id, ln, count(*) AS c FROM lines GROUP BY doc_id, ln),
la AS (
  SELECT doc_id,
         CAST(sum(CASE WHEN c > 1 THEN c ELSE 0 END) * 1000 // sum(c) AS BIGINT)
           AS dup_line_permille
  FROM lc GROUP BY doc_id
),
toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts FROM documents
),
bg AS (
  SELECT doc_id, ts[i] || ' ' || ts[i+1] AS g
  FROM toks, UNNEST(range(1, len(ts))) AS r(i)
  WHERE len(ts) >= 2
),
bc AS (SELECT doc_id, g, count(*) AS c FROM bg GROUP BY doc_id, g),
ba AS (
  SELECT doc_id, CAST(max(c) * 1000 // sum(c) AS BIGINT) AS top_bigram_permille
  FROM bc GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(la.dup_line_permille, 0) AS dup_line_permille,
       COALESCE(ba.top_bigram_permille, 0) AS top_bigram_permille
FROM documents d
LEFT JOIN la ON la.doc_id = d.doc_id
LEFT JOIN ba ON ba.doc_id = d.doc_id
"""


# -- Gopher-style quality rules ---------------------------------------------

# Integer thresholds (Rae et al. 2021 "Scaling Language Models" quality
# heuristics, adapted to integer arithmetic for a hash-stable oracle).
GOPHER_MIN_WORDS = 40
GOPHER_MAX_WORDS = 100_000
GOPHER_MIN_MWL_CENTI = 250   # mean word length in 1/100 chars
GOPHER_MAX_MWL_CENTI = 1_000
GOPHER_MAX_SYMBOL_PERMILLE = 100  # '#' / '…' per word
GOPHER_MIN_STOPWORD_HITS = 2

# Derived from STOPWORDS so the gopher gate and the quality-score
# operators can never disagree on the stopword list.
_GOPHER_STOPWORD_RE = r"\b(" + "|".join(STOPWORDS) + r")\b"


def _gopher_signals(text: "pa.ChunkedArray | pa.Array"):
    """The five integer quality signals (shared by gopher_rules and
    curate_corpus so the gates can never drift)."""
    n_words = pc.cast(pc.count_substring_regex(text, r"\S+"), pa.int64())
    n_nonws = pc.cast(pc.count_substring_regex(text, r"\S"), pa.int64())
    n_sym = pc.cast(pc.count_substring_regex(text, r"[#…]"), pa.int64())
    n_stop = pc.cast(
        pc.count_substring_regex(text, _GOPHER_STOPWORD_RE), pa.int64()
    )
    denom = pc.max_element_wise(n_words, 1)
    mwl = pc.divide(pc.multiply(n_nonws, 100), denom)
    sym = pc.divide(pc.multiply(n_sym, 1000), denom)
    return n_words, mwl, sym, n_stop


def _gopher_ok(n_words, mwl, sym, n_stop):
    """The gopher verdict conjunction (single definition)."""
    return pc.and_(
        pc.and_(
            pc.and_(
                pc.greater_equal(n_words, GOPHER_MIN_WORDS),
                pc.less_equal(n_words, GOPHER_MAX_WORDS),
            ),
            pc.and_(
                pc.greater_equal(mwl, GOPHER_MIN_MWL_CENTI),
                pc.less_equal(mwl, GOPHER_MAX_MWL_CENTI),
            ),
        ),
        pc.and_(
            pc.less_equal(sym, GOPHER_MAX_SYMBOL_PERMILLE),
            pc.greater_equal(n_stop, GOPHER_MIN_STOPWORD_HITS),
        ),
    )


# SQL condition fragment shared verbatim by GOPHER_RULES_SQL's CASE and
# CURATE_SQL's WHERE (signals named n_words / n_nonws / n_sym / n_stop).
GOPHER_COND_SQL = f"""n_words BETWEEN {GOPHER_MIN_WORDS} AND {GOPHER_MAX_WORDS}
             AND n_nonws * 100 // greatest(n_words, 1)
                 BETWEEN {GOPHER_MIN_MWL_CENTI} AND {GOPHER_MAX_MWL_CENTI}
             AND n_sym * 1000 // greatest(n_words, 1)
                 <= {GOPHER_MAX_SYMBOL_PERMILLE}
             AND n_stop >= {GOPHER_MIN_STOPWORD_HITS}"""


def gopher_rules(sf_dir: str) -> "ray.data.Dataset":
    """Gopher-rule document filter: word-count bounds, mean-word-length
    band, symbol-to-word ratio, minimum stopword hits — the standard
    pre-training quality gate, emitted as integer signals plus a 0/1
    verdict so the corpus can be filtered or audited.

    Narrow stage, fully vectorized RE2 kernels (count_substring_regex),
    no shuffle; the same regexes run verbatim in the DuckDB oracle (both
    engines are RE2-class)."""

    def rules(batch: pa.Table) -> pa.Table:
        n_words, mwl_centi, sym_permille, n_stop = _gopher_signals(
            batch.column("text")
        )
        ok = _gopher_ok(n_words, mwl_centi, sym_permille, n_stop)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": n_words,
                "mwl_centi": pc.cast(mwl_centi, pa.int64()),
                "sym_permille": pc.cast(sym_permille, pa.int64()),
                "n_stopword_hits": n_stop,
                # Null text leaves the signals null (as the SQL does) but
                # the verdict must be 0, matching CASE WHEN NULL ... ELSE 0.
                "passes_gopher": pc.coalesce(
                    pc.cast(ok, pa.int64()), pa.scalar(0, pa.int64())
                ),
            }
        )

    return read_documents(sf_dir).map_batches(
        rules, batch_format="pyarrow", zero_copy_batch=True
    )


GOPHER_RULES_SQL = f"""
WITH sig AS (
  SELECT doc_id,
         len(regexp_extract_all(text, '\\S+')) AS n_words,
         len(regexp_extract_all(text, '\\S'))  AS n_nonws,
         len(regexp_extract_all(text, '[#…]')) AS n_sym,
         len(regexp_extract_all(text, '{_GOPHER_STOPWORD_RE}')) AS n_stop
  FROM documents
)
SELECT doc_id, n_words,
       n_nonws * 100 // greatest(n_words, 1) AS mwl_centi,
       n_sym * 1000 // greatest(n_words, 1) AS sym_permille,
       n_stop AS n_stopword_hits,
       CAST(CASE WHEN {GOPHER_COND_SQL}
            THEN 1 ELSE 0 END AS BIGINT) AS passes_gopher
FROM sig
"""


# -- C4-style filter signals -------------------------------------------------

_C4_BAD_RE = r"(lorem ipsum|javascript must be enabled|\{)"


def c4_rules(sf_dir: str) -> "ray.data.Dataset":
    """C4-style cleanup signals (Raffel et al. 2020): terminal-punctuation
    density, curly-brace / boilerplate-phrase markers, all-caps token
    count — emitted as integer signals plus a 0/1 verdict (passes iff no
    code-like braces or boilerplate bad-phrases appear).  Narrow
    vectorized RE2 stage; regexes shared verbatim with the oracle."""

    def rules(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        lower = pc.utf8_lower(text)
        n_term = pc.cast(pc.count_substring_regex(text, r"[.!?]"), pa.int64())
        n_bad = pc.cast(pc.count_substring_regex(lower, _C4_BAD_RE), pa.int64())
        n_caps = pc.cast(
            pc.count_substring_regex(text, r"\b[A-Z]{2,}\b"), pa.int64()
        )
        ok = pc.equal(n_bad, 0)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_terminal_punct": n_term,
                "n_bad_markers": n_bad,
                "n_allcaps_tokens": n_caps,
                "passes_c4": pc.coalesce(
                    pc.cast(ok, pa.int64()), pa.scalar(0, pa.int64())
                ),
            }
        )

    return read_documents(sf_dir).map_batches(
        rules, batch_format="pyarrow", zero_copy_batch=True
    )


C4_RULES_SQL = f"""
SELECT doc_id,
       len(regexp_extract_all(text, '[.!?]')) AS n_terminal_punct,
       len(regexp_extract_all(lower(text), '{_C4_BAD_RE}')) AS n_bad_markers,
       len(regexp_extract_all(text, '\\b[A-Z]{{2,}}\\b')) AS n_allcaps_tokens,
       CAST(CASE WHEN len(regexp_extract_all(lower(text), '{_C4_BAD_RE}')) = 0
            THEN 1 ELSE 0 END AS BIGINT) AS passes_c4
FROM documents
"""


# -- per-language token fertility --------------------------------------------


def lang_fertility(sf_dir: str) -> pa.Table:
    """Tokens-per-1000-chars by language — the tokenizer-fertility stat
    that drives per-language sampling weights.  Per-row token and char
    counts, one keyed aggregate per language, integer ratio."""
    from ._util import ensure_columns, keyed_aggregate

    def counts(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "lang": batch.column("lang"),
                "toks": pc.cast(
                    pc.count_substring_regex(batch.column("text"), r"\S+"),
                    pa.int64(),
                ),
                "chars": pc.cast(pc.utf8_length(batch.column("text")), pa.int64()),
            }
        )

    ds = read_documents(sf_dir, columns=["lang", "text"])
    out = ensure_columns(
        keyed_aggregate(
            ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True),
            "lang",
            {"n_tokens": ("toks", "sum"), "n_chars": ("chars", "sum")},
        ).to_pandas(),
        ["lang", "n_tokens", "n_chars"],
    ).sort_values("lang")
    n_tok = out["n_tokens"].to_numpy().astype(np.int64)
    n_chars = out["n_chars"].to_numpy().astype(np.int64)
    return pa.table(
        {
            "lang": pa.array(out["lang"], pa.string()),
            "n_tokens": pa.array(n_tok, pa.int64()),
            "n_chars": pa.array(n_chars, pa.int64()),
            "tokens_per_kchar": pa.array(
                n_tok * 1000 // np.maximum(n_chars, 1), pa.int64()
            ),
        }
    )


LANG_FERTILITY_SQL = """
SELECT lang,
       CAST(sum(len(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS n_tokens,
       CAST(sum(len(text)) AS BIGINT) AS n_chars,
       CAST(sum(len(regexp_extract_all(text, '\\S+'))) * 1000
           // greatest(sum(len(text)), 1) AS BIGINT) AS tokens_per_kchar
FROM documents GROUP BY lang
"""


# -- end-to-end curation composition -----------------------------------------


def curate_corpus(sf_dir: str) -> "ray.data.Dataset":
    """The composed curation pass a real pre-training pipeline runs:
    language filter (en) → Gopher thresholds → C4 markers → exact
    dedup (keep lowest doc_id per content hash), in that order
    (clean-then-dedup, the C4 ordering).  Output: the kept doc_ids.

    One narrow stage evaluates every signal and the content hash per
    batch (same RE2 kernels as the individual operators, same module
    constants so the gates can never drift); the only shuffle is the
    dedup keyed aggregate over (hash, id) survivors — at 100 TB the filters run
    where the data is and only fixed-width rows of the CLEAN subset
    shuffle."""
    import hashlib

    def gate(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        n_words, mwl, sym, n_stop = _gopher_signals(text)
        n_bad = pc.cast(
            pc.count_substring_regex(pc.utf8_lower(text), _C4_BAD_RE), pa.int64()
        )
        ok = pc.and_(
            pc.and_(
                pc.equal(batch.column("lang"), "en"),
                _gopher_ok(n_words, mwl, sym, n_stop),
            ),
            pc.equal(n_bad, 0),
        )
        kept = batch.filter(pc.coalesce(ok, pa.scalar(False)))
        hs = [
            hashlib.md5(t.encode("utf-8")).hexdigest()
            for t in kept.column("text").to_pylist()
        ]
        return pa.table(
            {
                "doc_id": kept.column("doc_id"),
                "h": pa.array(hs, pa.string()),
            }
        )

    from ._util import keyed_aggregate

    ds = read_documents(sf_dir, columns=["doc_id", "text", "lang"])
    return keyed_aggregate(
        ds.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True),
        "h",
        {"doc_id": ("doc_id", "min")},
    ).select_columns(["doc_id"])


CURATE_SQL = f"""
WITH sig AS (
  SELECT doc_id, text, lang,
         len(regexp_extract_all(text, '\\S+')) AS n_words,
         len(regexp_extract_all(text, '\\S')) AS n_nonws,
         len(regexp_extract_all(text, '[#…]')) AS n_sym,
         len(regexp_extract_all(text, '{_GOPHER_STOPWORD_RE}')) AS n_stop,
         len(regexp_extract_all(lower(text), '{_C4_BAD_RE}')) AS n_bad
  FROM documents
),
ok AS (
  SELECT doc_id, md5(text) AS h FROM sig
  WHERE lang = 'en'
    AND {GOPHER_COND_SQL}
    AND n_bad = 0
)
SELECT min(doc_id) AS doc_id FROM ok GROUP BY h
"""


# -- exact-substring (n-gram) duplication profile ----------------------------

# K-token grams, the unit of the Lee et al. 2021 ("Deduplicating Training
# Data Makes Language Models Better") exact-substring accounting, shrunk
# to token granularity for a SQL-mirrorable integer oracle.
DUP_NGRAM_K = 8


def dup_ngram_profile(sf_dir: str) -> "ray.data.Dataset":
    """Per-document duplicated-n-gram profile: how many of a doc's K-token
    gram occurrences also appear in any LOWER-doc_id document (the
    "first writer wins" attribution every exact-substring dedup uses).

    Scale shape: grams are hashed to int64 before the shuffle (8-byte
    keys, never strings — same trick as n-gram Jaccard); stage 1 emits
    per-(doc, gram) count rows, a gram % P shuffle attributes duplicates
    against each gram run's min doc_id (one vectorized kernel per
    partition), and a keyed aggregate on doc_id rolls the partials up.
    Two keyed exchanges of narrow fixed-width rows; no driver
    materialization.  A doc too short for any gram emits one per-doc
    sentinel key (unique, so no hot group) to keep LEFT-JOIN semantics
    with the oracle."""
    k = DUP_NGRAM_K

    def gram_rows(batch: pa.Table) -> pa.Table:
        """Per-(doc, gram) partial counts, fully vectorized: window
        hashes from _batch_window_hashes, then one lexsort +
        run-boundary sweep collapses repeats.  Docs too short for any
        gram emit one unique negative sentinel key (group of one)."""
        doc_ids, lens, gram, gdoc, _ = _batch_window_hashes(batch, k)
        short = lens < k
        if gram.size:
            order = np.lexsort((gram, gdoc))
            g2, d2 = gram[order], gdoc[order]
            nb = np.concatenate(
                (
                    [0],
                    np.flatnonzero(
                        (np.diff(d2) != 0) | (np.diff(g2) != 0)
                    )
                    + 1,
                    [d2.size],
                )
            )
            out_g = g2[nb[:-1]]
            out_d = doc_ids[d2[nb[:-1]]]
            out_c = np.diff(nb).astype(np.int64)
        else:
            out_g = out_d = out_c = np.empty(0, np.int64)
        return pa.table(
            {
                "gram": pa.array(
                    np.concatenate((-doc_ids[short] - 1, out_g)), pa.int64()
                ),
                "doc_id": pa.array(
                    np.concatenate((doc_ids[short], out_d)), pa.int64()
                ),
                "cnt": pa.array(
                    np.concatenate(
                        (np.zeros(int(short.sum()), np.int64), out_c)
                    ),
                    pa.int64(),
                ),
            }
        )

    def per_gram_part(part: pa.Table) -> pa.Table:
        """All grams of a gram % P partition at once: sort by (gram,
        doc), each run's first doc is its min, dup = counts of every
        later doc — one kernel per exchange block, not per gram."""
        from ._util import run_bounds

        gram = part.column("gram").to_numpy(zero_copy_only=False)
        docs = part.column("doc_id").to_numpy(zero_copy_only=False)
        cnts = part.column("cnt").to_numpy(zero_copy_only=False)
        order = np.lexsort((docs, gram))
        gram, docs, cnts = gram[order], docs[order], cnts[order]
        b = run_bounds(gram)
        first = np.repeat(docs[b[:-1]], np.diff(b))
        dup = np.where(docs > first, cnts, 0).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(docs, pa.int64()),
                "p_grams": pa.array(cnts, pa.int64()),
                "p_dup": pa.array(dup, pa.int64()),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        n_grams = batch.column("n_grams")
        n_dup = batch.column("n_dup")
        permille = pc.if_else(
            pc.greater(n_grams, 0),
            pc.divide(pc.multiply(n_dup, 1000), pc.max_element_wise(n_grams, 1)),
            pa.scalar(0, pa.int64()),
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_grams": n_grams,
                "n_dup": n_dup,
                "dup_permille": pc.cast(permille, pa.int64()),
            }
        )

    from ._util import keyed_aggregate, partitioned_by_key

    ds = read_documents(sf_dir)
    return keyed_aggregate(
        partitioned_by_key(
            ds.map_batches(gram_rows, batch_format="pyarrow", zero_copy_batch=True),
            "gram",
            per_gram_part,
        ),
        "doc_id",
        {"n_grams": ("p_grams", "sum"), "n_dup": ("p_dup", "sum")},
    ).map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


def _dup_ngram_sql(k: int = DUP_NGRAM_K) -> str:
    gram_expr = " || ' ' || ".join(f"ts[i+{j}]" for j in range(k)).replace(
        "ts[i+0]", "ts[i]"
    )
    return f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS ts
  FROM documents
),
grams AS (
  SELECT doc_id, {gram_expr} AS g
  FROM toks, UNNEST(range(1, len(ts) - {k - 2})) AS r(i)
  WHERE len(ts) >= {k}
),
firsts AS (SELECT g, min(doc_id) AS first_doc FROM grams GROUP BY g),
per_doc AS (
  SELECT gr.doc_id,
         count(*) AS n_grams,
         CAST(sum(CASE WHEN f.first_doc < gr.doc_id THEN 1 ELSE 0 END)
              AS BIGINT) AS n_dup
  FROM grams gr JOIN firsts f USING (g)
  GROUP BY gr.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(p.n_grams, 0) AS BIGINT) AS n_grams,
       CAST(COALESCE(p.n_dup, 0) AS BIGINT) AS n_dup,
       CAST(COALESCE(p.n_dup, 0) * 1000
            // greatest(COALESCE(p.n_grams, 0), 1) AS BIGINT) AS dup_permille
FROM documents d LEFT JOIN per_doc p USING (doc_id)
"""


DUP_NGRAM_SQL = _dup_ngram_sql()


# -- duplicated-substring SPANS (exact-substring dedup, Lee et al. 2022) -----


def dup_span_stats(sf_dir: str, k: int = DUP_NGRAM_K) -> "ray.data.Dataset":
    """Exact-substring duplicate SPANS (the span-level view of
    "Deduplicating Training Data Makes Language Models Better", Lee et
    al. 2022): a K-token window is duplicated when its gram first
    appeared in a lower-doc_id document (first-writer-wins, the same
    attribution dup_ngram_profile uses); overlapping/contiguous
    duplicated windows merge into MAXIMAL spans.  Per doc: token count,
    tokens covered by duplicated spans (union, not window sum), and the
    number of maximal spans — the stats a span-cutting dedup pass needs.

    Scale shape: the shuffle moves (gram_hash, doc_id, pos, n_tok)
    fixed-width int64 rows — one per token window, linear in corpus
    token count, never text.  gram % P co-locates each gram's
    occurrences (vectorized min-doc attribution per exchange block,
    at most min(P, 2 × CPUs) calls); surviving dup windows re-shuffle
    on doc_id % P and one numpy interval sweep per block merges them
    into spans for ALL docs of the block at once.  One sentinel row
    per doc (unique negative gram, pos = -1) rides both shuffles so
    short/clean docs keep LEFT-JOIN output semantics without a third
    scan.  64-bit gram hashes: collisions are ~n²/2⁶⁴ at any
    realistic shard size and only over-mark duplication."""
    from ._util import partitioned_by_key, run_bounds

    rows = read_documents(sf_dir).map_batches(
        lambda b: _dup_window_rows(b, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    attributed = partitioned_by_key(rows, "gram", _dup_attr_part)

    def per_doc_part(part: pa.Table) -> pa.Table:
        """Merge each doc's duplicated windows into maximal spans: one
        sorted sweep over the whole partition.  Window at pos p covers
        tokens [p, p+K); window q extends the current span iff
        q <= prev + K (coverage contiguous or overlapping), so span
        coverage = last - first + K."""
        docs = part.column("doc_id").to_numpy(zero_copy_only=False)
        pos = part.column("pos").to_numpy(zero_copy_only=False)
        ntok = part.column("n_tok").to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, docs))
        docs, pos, ntok = docs[order], pos[order], ntok[order]
        # Per-doc token counts from the sentinels (pos = -1 sorts first
        # within each doc; exactly one per doc by construction).
        sent = pos < 0
        all_docs = docs[sent]
        all_ntok = ntok[sent]
        dd, pp = docs[~sent], pos[~sent]
        if dd.size:
            prev_d = np.concatenate(([dd[0] - 1], dd[:-1]))
            prev_p = np.concatenate(([-(2 * k)], pp[:-1]))
            start = (dd != prev_d) | (pp > prev_p + k)
            span_id = np.cumsum(start) - 1
            sb = run_bounds(span_id)
            first_p = pp[sb[:-1]]
            last_p = pp[sb[1:] - 1]
            cov = last_p - first_p + k
            span_doc = dd[sb[:-1]]
            db = run_bounds(span_doc)
            d_tokens = np.add.reduceat(cov, db[:-1])
            d_spans = np.diff(db)
            span_docs = span_doc[db[:-1]]
        else:
            d_tokens = d_spans = span_docs = np.empty(0, np.int64)
        dup_tokens = np.zeros(all_docs.size, np.int64)
        dup_spans = np.zeros(all_docs.size, np.int64)
        idx = np.searchsorted(all_docs, span_docs)
        dup_tokens[idx] = d_tokens
        dup_spans[idx] = d_spans
        return pa.table(
            {
                "doc_id": pa.array(all_docs, pa.int64()),
                "n_tokens": pa.array(all_ntok, pa.int64()),
                "dup_tokens": pa.array(dup_tokens, pa.int64()),
                "dup_spans": pa.array(dup_spans, pa.int64()),
            }
        )

    return partitioned_by_key(attributed, "doc_id", per_doc_part)


def _batch_window_hashes(batch: pa.Table, k: int):
    """Shared vectorized window hashing — see _util.batch_window_hashes."""
    from ._util import batch_window_hashes

    return batch_window_hashes(batch, k)


def _dup_window_rows(batch: pa.Table, k: int = DUP_NGRAM_K) -> pa.Table:
    """(gram_hash, doc_id, pos, n_tok) row per K-token window, plus one
    unique-gram sentinel per doc (pos = -1) that survives attribution.
    Fully vectorized via _batch_window_hashes — no Python per window."""
    doc_ids, lens, gram, gdoc, gpos = _batch_window_hashes(batch, k)
    return pa.table(
        {
            "gram": pa.array(
                np.concatenate((-doc_ids - 1, gram)), pa.int64()
            ),
            "doc_id": pa.array(
                np.concatenate((doc_ids, doc_ids[gdoc])), pa.int64()
            ),
            "pos": pa.array(
                np.concatenate((np.full(doc_ids.size, -1, np.int64), gpos)),
                pa.int64(),
            ),
            "n_tok": pa.array(
                np.concatenate((lens, lens[gdoc])), pa.int64()
            ),
        }
    )


def _dup_attr_part(part: pa.Table) -> pa.Table:
    """Keep every sentinel; keep window rows whose gram's min doc_id
    (within its run) is lower — one lexsort per partition."""
    from ._util import run_bounds

    gram = part.column("gram").to_numpy(zero_copy_only=False)
    docs = part.column("doc_id").to_numpy(zero_copy_only=False)
    pos = part.column("pos").to_numpy(zero_copy_only=False)
    ntok = part.column("n_tok").to_numpy(zero_copy_only=False)
    order = np.lexsort((docs, gram))
    gram, docs, pos, ntok = gram[order], docs[order], pos[order], ntok[order]
    b = run_bounds(gram)
    first = np.repeat(docs[b[:-1]], np.diff(b))
    keep = (pos < 0) | (docs > first)
    return pa.table(
        {
            "doc_id": pa.array(docs[keep], pa.int64()),
            "pos": pa.array(pos[keep], pa.int64()),
            "n_tok": pa.array(ntok[keep], pa.int64()),
        }
    )


def dup_span_removal(sf_dir: str, k: int = DUP_NGRAM_K) -> "ray.data.Dataset":
    """Span-CUTTING exact-substring dedup (the rewrite step of Lee et
    al. 2022): every token covered by a duplicated K-window (first seen
    in a lower doc_id) is removed; output is the kept tokens re-joined
    with single spaces (the canonical lowercased token stream the
    attribution ran on) plus the removed-token count.

    Scale shape: attribution is the same fixed-width (hash, doc, pos)
    exchange as dup_span_stats — text never rides the gram shuffle.
    The rewrite co-partitions the surviving dup positions WITH the
    document text on doc_id % P (schema-aligned union, one keyed
    exchange of the corpus — the unavoidable minimum for a text
    rewrite) and rebuilds every doc of a block in one kernel call; UDF
    invocations stay at most min(P, 2 × CPUs)."""
    from ._util import partitioned_by_key, run_bounds

    rows = read_documents(sf_dir).map_batches(
        lambda b: _dup_window_rows(b, k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    dup_pos = partitioned_by_key(rows, "gram", _dup_attr_part).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "pos": b.column("pos"),
                "text": pa.array([""] * b.num_rows, pa.string()),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    text_rows = read_documents(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "doc_id": b.column("doc_id"),
                "pos": pa.array(np.full(b.num_rows, -2, np.int64), pa.int64()),
                "text": b.column("text"),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def rebuild_part(part: pa.Table) -> pa.Table:
        docs = part.column("doc_id").to_numpy(zero_copy_only=False)
        pos = part.column("pos").to_numpy(zero_copy_only=False)
        texts = part.column("text").to_pylist()
        order = np.lexsort((pos, docs))
        docs, pos = docs[order], pos[order]
        texts = [texts[i] for i in order]
        b = run_bounds(docs)
        out_d: list[int] = []
        out_t: list[str] = []
        out_r: list[int] = []
        for s, e in zip(b[:-1], b[1:]):
            # pos = -2 (text row) sorts first in each doc run; exactly
            # one per doc.  pos = -1 sentinels are attribution
            # pass-throughs; pos >= 0 are duplicated window starts.
            assert pos[s] == -2, "text row missing for doc"
            toks = _TOKEN_RE.findall(texts[s].lower())
            covered = np.zeros(len(toks), bool)
            for p in pos[s:e]:
                if p >= 0:
                    covered[p : p + k] = True
            kept = [t for t, c in zip(toks, covered) if not c]
            out_d.append(int(docs[s]))
            out_t.append(" ".join(kept))
            out_r.append(int(covered.sum()))
        return pa.table(
            {
                "doc_id": pa.array(out_d, pa.int64()),
                "clean_text": pa.array(out_t, pa.string()),
                "removed_tokens": pa.array(out_r, pa.int64()),
            }
        )

    return partitioned_by_key(
        text_rows.union(dup_pos), "doc_id", rebuild_part
    )


def _dup_span_removal_sql(k: int = DUP_NGRAM_K) -> str:
    gram_expr = " || ' ' || ".join(f"ts[i+{j}]" for j in range(k)).replace(
        "ts[i+0]", "ts[i]"
    )
    return f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS ts
  FROM documents
),
grams AS (
  SELECT doc_id, i, {gram_expr} AS g
  FROM toks, UNNEST(range(1, len(ts) - {k - 2})) AS r(i)
  WHERE len(ts) >= {k}
),
firsts AS (SELECT g, min(doc_id) AS first_doc FROM grams GROUP BY g),
dupwin AS (
  SELECT gr.doc_id, gr.i FROM grams gr JOIN firsts f USING (g)
  WHERE f.first_doc < gr.doc_id
),
cov AS (
  SELECT DISTINCT doc_id, i + j AS t
  FROM dupwin, UNNEST(range(0, {k})) AS u(j)
),
pos AS (
  SELECT doc_id, i, ts[i] AS tok
  FROM toks, UNNEST(range(1, len(ts) + 1)) AS r(i)
),
kept AS (
  SELECT p.doc_id,
         string_agg(p.tok, ' ' ORDER BY p.i) AS txt,
         count(*) AS n_kept
  FROM pos p LEFT JOIN cov c ON c.doc_id = p.doc_id AND c.t = p.i
  WHERE c.t IS NULL
  GROUP BY p.doc_id
)
SELECT tk.doc_id,
       COALESCE(k.txt, '') AS clean_text,
       CAST(len(tk.ts) - COALESCE(k.n_kept, 0) AS BIGINT) AS removed_tokens
FROM toks tk LEFT JOIN kept k USING (doc_id)
"""


DUP_SPAN_REMOVAL_SQL = _dup_span_removal_sql()


def _dup_span_sql(k: int = DUP_NGRAM_K) -> str:
    gram_expr = " || ' ' || ".join(f"ts[i+{j}]" for j in range(k)).replace(
        "ts[i+0]", "ts[i]"
    )
    return f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS ts
  FROM documents
),
grams AS (
  SELECT doc_id, i, {gram_expr} AS g
  FROM toks, UNNEST(range(1, len(ts) - {k - 2})) AS r(i)
  WHERE len(ts) >= {k}
),
firsts AS (SELECT g, min(doc_id) AS first_doc FROM grams GROUP BY g),
dupwin AS (
  SELECT gr.doc_id, gr.i FROM grams gr JOIN firsts f USING (g)
  WHERE f.first_doc < gr.doc_id
),
cov AS (
  SELECT DISTINCT doc_id, i + j AS t
  FROM dupwin, UNNEST(range(0, {k})) AS u(j)
),
isl AS (
  SELECT doc_id, t,
         t - row_number() OVER (PARTITION BY doc_id ORDER BY t) AS grp
  FROM cov
),
agg AS (
  SELECT doc_id, count(*) AS dup_tokens, count(DISTINCT grp) AS dup_spans
  FROM isl GROUP BY doc_id
)
SELECT tk.doc_id,
       CAST(len(tk.ts) AS BIGINT) AS n_tokens,
       CAST(COALESCE(a.dup_tokens, 0) AS BIGINT) AS dup_tokens,
       CAST(COALESCE(a.dup_spans, 0) AS BIGINT) AS dup_spans
FROM toks tk LEFT JOIN agg a USING (doc_id)
"""


DUP_SPAN_SQL = _dup_span_sql()


# -- BPE-style adjacent-pair counting (tokenizer induction, step 1) ----------

BPE_TOPK = 20


def bpe_pair_counts(sf_dir: str, k: int = BPE_TOPK) -> pa.Table:
    """Corpus-wide adjacent token-pair counts, top-k — the inner statistic
    of a BPE tokenizer-induction merge step.  Per-batch Counter partials
    (combiner: the shuffle moves (pair, count) rows, never tokens), one
    keyed aggregate, then per-block select_k + bounded driver merge under
    the total order (count DESC, pair ASC) — same top-k shape as
    top_customers, no global sort."""
    from ._util import ensure_columns, keyed_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            toks = _TOKEN_RE.findall(t.lower())
            c.update(
                f"{a} {b}" for a, b in zip(toks, toks[1:])
            )
        return pa.table(
            {
                "pair": pa.array(list(c.keys()), pa.string()),
                "p_cnt": pa.array(list(c.values()), pa.int64()),
            }
        )

    agg = keyed_aggregate(
        read_documents(sf_dir).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        "pair",
        {"n": ("p_cnt", "sum")},
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            batch,
            k=min(k, batch.num_rows),
            sort_keys=[("n", "descending"), ("pair", "ascending")],
        )
        return batch.take(idx)

    cand = ensure_columns(
        agg.map_batches(
            local_topk, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas(),  # bounded: blocks × k
        ["pair", "n"],
    )
    cand = cand.sort_values(["n", "pair"], ascending=[False, True]).head(k)
    return pa.table(
        {
            "pair": pa.array(cand["pair"], pa.string()),
            "n": pa.array(cand["n"].astype("int64"), pa.int64()),
        }
    )


BPE_PAIRS_SQL = f"""
WITH toks AS (
  SELECT regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS ts FROM documents
),
bg AS (
  SELECT ts[i] || ' ' || ts[i+1] AS pair
  FROM toks, UNNEST(range(1, len(ts))) AS r(i)
  WHERE len(ts) >= 2
)
SELECT pair, count(*) AS n FROM bg GROUP BY pair
ORDER BY n DESC, pair LIMIT {BPE_TOPK}
"""


# -- data-mixture report ------------------------------------------------------


def corpus_mix_report(sf_dir: str) -> pa.Table:
    """Training-mixture report: docs, whitespace tokens and permille share
    of the global token budget per (source, lang) — the table a data team
    reads before setting sampling weights.  Per-row token counts, one
    keyed aggregate (group count is bounded by #sources × #langs), share
    computed on the bounded rollup."""

    def token_counts(batch: pa.Table) -> pa.Table:
        n_tok = pc.cast(
            pc.count_substring_regex(batch.column("text"), r"\S+"), pa.int64()
        )
        return pa.table(
            {
                "source": batch.column("source"),
                "lang": batch.column("lang"),
                "n_tok": n_tok,
            }
        )

    from ._util import ensure_columns, keyed_aggregate, read_parquet_clean

    rollup = ensure_columns(
        keyed_aggregate(
            read_parquet_clean(
                f"{sf_dir}/documents.parquet", columns=["source", "lang", "text"]
            ).map_batches(token_counts, batch_format="pyarrow", zero_copy_batch=True),
            ["source", "lang"],
            {"n_tokens": ("n_tok", "sum"), "n_docs": ("n_tok", "count")},
        ).to_pandas(),  # bounded: #sources × #langs rows
        ["source", "lang", "n_tokens", "n_docs"],
    )
    total = max(int(rollup["n_tokens"].sum()), 1)
    share = (rollup["n_tokens"].astype("int64") * 1000) // total
    return pa.table(
        {
            "source": pa.array(rollup["source"], pa.string()),
            "lang": pa.array(rollup["lang"], pa.string()),
            "n_docs": pa.array(rollup["n_docs"].astype("int64"), pa.int64()),
            "n_tokens": pa.array(rollup["n_tokens"].astype("int64"), pa.int64()),
            "share_permille": pa.array(share.astype("int64"), pa.int64()),
        }
    )


CORPUS_MIX_SQL = r"""
WITH g AS (
  SELECT source, lang, count(*) AS n_docs,
         CAST(sum(len(regexp_extract_all(text, '\S+'))) AS BIGINT) AS n_tokens
  FROM documents GROUP BY 1, 2
)
SELECT source, lang, CAST(n_docs AS BIGINT) AS n_docs, n_tokens,
       CAST(n_tokens * 1000
            // greatest(CAST(sum(n_tokens) OVER () AS BIGINT), 1)
            AS BIGINT) AS share_permille
FROM g
"""


# -- per-source token-budget selection ----------------------------------------

# Greedy per-source budget: docs are admitted in doc_id order until their
# source's running token count reaches the budget — how a mixture spec
# ("at most N tokens from each domain") is materialized into a doc list.
BUDGET_TOKENS_PER_SOURCE = 700
_BUDGET_BUCKET_WIDTH = 64


def token_budget_select(sf_dir: str) -> "ray.data.Dataset":
    """Per-source greedy token-budget selection.  selected=1 iff the doc's
    EXCLUSIVE prefix token sum within its source (doc_id order) is still
    under the budget — the first doc crossing the line is admitted, the
    rest are cut, matching SQL's windowed prefix semantics.

    Scale shape: same two-pass scan as pack_sequences but keyed by
    (source, id-bucket): per-(source, bucket) totals roll up to a
    broadcast offsets table of O(sources × id_range / bucket_width)
    rows — never O(docs) — then the keyed exchange on bucket co-locates
    each (source, bucket) group, and one sort per block cumsums every
    group in it.  No global sort."""
    import ray as _ray

    def with_counts(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = pc.cast(
            pc.count_substring_regex(batch.column("text"), r"\S+"), pa.int64()
        )
        return pa.table(
            {
                "source": batch.column("source"),
                "bucket": pa.array(ids // _BUDGET_BUCKET_WIDTH, pa.int64()),
                "doc_id": batch.column("doc_id"),
                "n_tokens": n,
            }
        )

    from ._util import (
        ensure_columns,
        keyed_aggregate,
        partitioned_by_key,
        read_parquet_clean,
        run_bounds,
    )

    counted = read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"]
    ).map_batches(with_counts, batch_format="pyarrow", zero_copy_batch=True)

    totals = ensure_columns(
        keyed_aggregate(
            counted, ["source", "bucket"], {"n": ("n_tokens", "sum")}
        ).to_pandas(),  # bounded: sources × buckets rows
        ["source", "bucket", "n"],
    ).sort_values(["source", "bucket"])
    excl = totals.groupby("source")["n"].cumsum() - totals["n"]
    offsets = {
        (s, int(b)): int(e)
        for s, b, e in zip(totals["source"], totals["bucket"], excl)
    }
    offsets_ref = _ray.put(offsets)

    def scan(block: pa.Table) -> pa.Table:
        off = _ray.get(offsets_ref)
        t = block.take(
            pc.sort_indices(
                block,
                sort_keys=[
                    ("source", "ascending"),
                    ("bucket", "ascending"),
                    ("doc_id", "ascending"),
                ],
            )
        )
        src = np.asarray(t.column("source").to_pylist(), dtype=object)
        bkt = t.column("bucket").to_numpy(zero_copy_only=False)
        n = t.column("n_tokens").to_numpy(zero_copy_only=False)
        b = run_bounds(
            np.cumsum(np.r_[True, (src[1:] != src[:-1]) | (bkt[1:] != bkt[:-1])])
        )
        # Restart the prefix sum at each (source, bucket) run, from its offset.
        prefix_excl = np.cumsum(n) - n
        base = [off[(src[i], int(bkt[i]))] - prefix_excl[i] for i in b[:-1]]
        prefix_excl = prefix_excl + np.repeat(np.array(base, np.int64), np.diff(b))
        sel = (prefix_excl < BUDGET_TOKENS_PER_SOURCE).astype(np.int64)
        return pa.table(
            {
                "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
                "source": pc.cast(t.column("source"), pa.string()),
                "n_tokens": pa.array(n, pa.int64()),
                "selected": pa.array(sel, pa.int64()),
            }
        )

    return partitioned_by_key(counted, "bucket", scan)


TOKEN_BUDGET_SQL = rf"""
WITH c AS (
  SELECT doc_id, source,
         len(regexp_extract_all(text, '\S+'))::BIGINT AS n_tokens
  FROM documents
),
s AS (
  SELECT doc_id, source, n_tokens,
         SUM(n_tokens) OVER (PARTITION BY source ORDER BY doc_id
                             ROWS UNBOUNDED PRECEDING) - n_tokens AS excl
  FROM c
)
SELECT doc_id, source, n_tokens,
       CAST(CASE WHEN excl < {BUDGET_TOKENS_PER_SOURCE} THEN 1 ELSE 0 END
            AS BIGINT) AS selected
FROM s
"""


# -- RAG-style token-window chunking ------------------------------------------

CHUNK_WINDOW = 32
CHUNK_STRIDE = 24


def chunk_documents(
    sf_dir: str, window: int = CHUNK_WINDOW, stride: int = CHUNK_STRIDE
) -> "ray.data.Dataset":
    """Split each document into overlapping token windows — the chunking
    pass of a RAG / embedding-index build (window tokens per chunk,
    ``window - stride`` token overlap).

    Embarrassingly parallel narrow ``map_batches``: each doc's chunks are
    computed locally from its own token list, no shuffle.  Output rows are
    (doc_id, chunk_id, start_tok, n_tokens, chunk_text); chunk_id is the
    0-based window index within the doc, so downstream stages can
    repartition on (doc_id) or (doc_id, chunk_id) without re-reading the
    corpus.  Docs with zero tokens emit no rows (mirrored in the oracle's
    ``len(ts) > 0`` guard).  At 100 TB the output is ~window/stride x the
    input text volume — it streams straight to the sink, never
    materialized."""

    def chunk(batch: pa.Table) -> pa.Table:
        d_id: list[int] = []
        d_chunk: list[int] = []
        d_start: list[int] = []
        d_len: list[int] = []
        d_text: list[str] = []
        ids = batch.column("doc_id").to_pylist()
        for did, t in zip(ids, batch.column("text").to_pylist()):
            toks = _TOKEN_RE.findall(t.lower())
            for ci, start in enumerate(range(0, len(toks), stride)):
                win = toks[start : start + window]
                d_id.append(did)
                d_chunk.append(ci)
                d_start.append(start)
                d_len.append(len(win))
                d_text.append(" ".join(win))
        return pa.table(
            {
                "doc_id": pa.array(d_id, pa.int64()),
                "chunk_id": pa.array(d_chunk, pa.int64()),
                "start_tok": pa.array(d_start, pa.int64()),
                "n_tokens": pa.array(d_len, pa.int64()),
                "chunk_text": pa.array(d_text, pa.string()),
            }
        )

    return read_documents(sf_dir).map_batches(
        chunk, batch_format="pyarrow", zero_copy_batch=True
    )


CHUNK_DOCUMENTS_SQL = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS ts
  FROM documents
),
starts AS (
  SELECT doc_id, ts,
         unnest(range(0, len(ts), {CHUNK_STRIDE})) AS start_tok
  FROM toks WHERE len(ts) > 0
)
SELECT doc_id,
       CAST(start_tok // {CHUNK_STRIDE} AS BIGINT) AS chunk_id,
       CAST(start_tok AS BIGINT) AS start_tok,
       CAST(least({CHUNK_WINDOW}, len(ts) - start_tok) AS BIGINT) AS n_tokens,
       array_to_string(ts[start_tok + 1 : start_tok + {CHUNK_WINDOW}], ' ')
           AS chunk_text
FROM starts
"""


# -- vocabulary build (contiguous id assignment) ------------------------------

VOCAB_MIN_DF = 2


def _vocab_df(sf_dir: str, min_df: int) -> "ray.data.Dataset":
    """(token, df) rows with df >= min_df — one keyed shuffle of per-batch
    partial document frequencies (same combiner discipline as
    ``doc_frequency``: hot tokens like "the" ship one bounded partial row
    per batch, never one row per occurrence)."""

    def partial_df(batch: pa.Table) -> pa.Table:
        counts: dict = {}
        for t in batch.column("text").to_pylist():
            for tok in set(_TOKEN_RE.findall(t.lower())):
                counts[tok] = counts.get(tok, 0) + 1
        return pa.table(
            {
                "token": pa.array(list(counts.keys()), pa.string()),
                "df_part": pa.array(list(counts.values()), pa.int64()),
            }
        )

    from ._util import keyed_aggregate

    return keyed_aggregate(
        read_documents(sf_dir, columns=["text"]).map_batches(
            partial_df, batch_format="pyarrow", zero_copy_batch=True
        ),
        "token",
        {"df": ("df_part", "sum")},
    ).filter(expr=f"df >= {min_df}")


def vocab_build(sf_dir: str, min_df: int = VOCAB_MIN_DF) -> "ray.data.Dataset":
    """Tokenizer vocabulary: document frequency per token, pruned at
    ``min_df``, with contiguous 1-based ids in (df DESC, token ASC) order
    — the id-assignment step before corpus encoding (id 0 is reserved for
    OOV by convention, see :func:`encode_tokens`).

    Contiguous global ids need a total order, but NOT a driver-side
    materialize: ids come from the same two-pass prefix-offset scan as
    ``running_total``, keyed on value buckets that are contiguous in the
    (df DESC, token ASC) total order — bucket = (df, first token char).
    Pass 1 is a keyed aggregate counting rows per bucket; the driver
    turns those O(#distinct df x alphabet) counts into exclusive offsets
    and broadcasts them; pass 2 runs on the keyed exchange by first char
    (df=min_df junk makes df itself a hot key), sorts each block by
    (df, ch, token) once and adds each bucket's offset.  Web-crawl
    vocabularies (1e9+ junk tokens pre-prune) never collapse onto the
    driver.  If one char is still hot at scale, extend the prefix to 2
    chars — same math."""
    import ray

    from ._util import keyed_aggregate, partitioned_by_key, run_bounds

    def with_bucket(batch: pa.Table) -> pa.Table:
        first = pc.utf8_slice_codeunits(batch.column("token"), 0, 1)
        return batch.append_column("ch", first)

    bucketed = _vocab_df(sf_dir, min_df).map_batches(
        with_bucket, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # consumed twice (pass-1 counts + pass-2 ids)

    # Pass 1: per-bucket row counts -> exclusive prefix offsets in the
    # (df DESC, ch ASC) bucket order.  O(#buckets) driver state.
    counts = keyed_aggregate(
        bucketed, ["df", "ch"], {"n": ("token", "count")}
    ).to_pandas()
    counts = counts.sort_values(["df", "ch"], ascending=[False, True])
    cum = np.concatenate([[0], np.cumsum(counts["n"].to_numpy())[:-1]])
    offsets = {
        (int(d), c): int(o)
        for d, c, o in zip(counts["df"], counts["ch"], cum)
    }
    offsets_ref = ray.put(offsets)

    def assign(block: pa.Table) -> pa.Table:
        off = ray.get(offsets_ref)
        t = block.take(
            pc.sort_indices(
                block,
                sort_keys=[
                    ("df", "ascending"),
                    ("ch", "ascending"),
                    ("token", "ascending"),
                ],
            )
        )
        df = t.column("df").to_numpy(zero_copy_only=False)
        ch = np.asarray(t.column("ch").to_pylist(), dtype=object)
        b = run_bounds(
            np.cumsum(np.r_[True, (df[1:] != df[:-1]) | (ch[1:] != ch[:-1])])
        )
        # Rank within the (df, ch) run, from the run's offset.
        base = [off[(int(df[i]), ch[i])] + 1 - i for i in b[:-1]]
        ids = np.arange(t.num_rows) + np.repeat(np.array(base, np.int64), np.diff(b))
        return pa.table(
            {
                "token": pc.cast(t.column("token"), pa.string()),
                "df": t.column("df"),
                "token_id": pa.array(ids, pa.int64()),
            }
        )

    return partitioned_by_key(bucketed, "ch", assign)


VOCAB_BUILD_SQL = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS ts
  FROM documents
),
tok AS (SELECT DISTINCT doc_id, unnest(ts) AS token FROM toks),
df AS (
  SELECT token, CAST(count(*) AS BIGINT) AS df
  FROM tok GROUP BY token HAVING count(*) >= {VOCAB_MIN_DF}
)
SELECT token, df,
       CAST(row_number() OVER (ORDER BY df DESC, token ASC) AS BIGINT)
           AS token_id
FROM df
"""


# -- corpus encoding against the vocabulary -----------------------------------


def encode_tokens(sf_dir: str, min_df: int = VOCAB_MIN_DF) -> "ray.data.Dataset":
    """Encode every document as (doc_id, pos, token_id) rows using the
    :func:`vocab_build` vocabulary; out-of-vocabulary tokens get id 0 —
    the corpus-numericalization step before sequence packing.

    The vocab is the SMALL side (bounded by the prune), so it broadcasts
    once via ``ray.put`` and every encode task reads it from the object
    store — no shuffle of the corpus and no per-batch re-ship.  Long
    format (one row per token) keeps the driver compare hash-stable and
    lets downstream ``pack_sequences`` repartition on doc_id; at 100 TB
    the output streams to the sink."""
    import ray

    vocab_tbl = vocab_build(sf_dir, min_df).to_pandas()
    mapping = dict(
        zip(vocab_tbl["token"].tolist(), vocab_tbl["token_id"].astype(int))
    )
    map_ref = ray.put(mapping)

    def encode(batch: pa.Table) -> pa.Table:
        m = ray.get(map_ref)
        d_id: list[int] = []
        d_pos: list[int] = []
        d_tid: list[int] = []
        ids = batch.column("doc_id").to_pylist()
        for did, t in zip(ids, batch.column("text").to_pylist()):
            for pos, tok in enumerate(_TOKEN_RE.findall(t.lower())):
                d_id.append(did)
                d_pos.append(pos)
                d_tid.append(m.get(tok, 0))
        return pa.table(
            {
                "doc_id": pa.array(d_id, pa.int64()),
                "pos": pa.array(d_pos, pa.int64()),
                "token_id": pa.array(d_tid, pa.int64()),
            }
        )

    return read_documents(sf_dir).map_batches(
        encode, batch_format="pyarrow", zero_copy_batch=True
    )


ENCODE_TOKENS_SQL = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS ts
  FROM documents
),
pos AS (
  SELECT doc_id, ts, unnest(generate_series(1, len(ts))) AS p
  FROM toks WHERE len(ts) > 0
),
tok AS (SELECT doc_id, CAST(p - 1 AS BIGINT) AS pos, ts[p] AS token FROM pos),
dtok AS (
  SELECT doc_id AS vdoc, unnest(ts) AS token FROM toks
),
df AS (
  SELECT token, count(DISTINCT vdoc) AS df
  FROM dtok GROUP BY token HAVING count(DISTINCT vdoc) >= {VOCAB_MIN_DF}
),
vocab AS (
  SELECT token,
         CAST(row_number() OVER (ORDER BY df DESC, token ASC) AS BIGINT)
             AS token_id
  FROM df
)
SELECT t.doc_id, t.pos, CAST(COALESCE(v.token_id, 0) AS BIGINT) AS token_id
FROM tok t LEFT JOIN vocab v USING (token)
"""


# -- skip-gram co-occurrence counts --------------------------------------------

SKIPGRAM_WINDOW = 2
SKIPGRAM_MIN_COUNT = 2


def skipgram_counts(
    sf_dir: str,
    window: int = SKIPGRAM_WINDOW,
    min_count: int = SKIPGRAM_MIN_COUNT,
) -> "ray.data.Dataset":
    """Directional token co-occurrence counts within a +-window context —
    the (center, context) pair statistics a word2vec/SGNS or PMI pipeline
    trains on.

    Combiner discipline: each batch counts its own pairs into a dict and
    emits one (w1, w2, partial n) row per distinct pair per batch, so the
    single keyed shuffle moves bounded partials, not one row per token
    position (a hot pair like "of the" would otherwise funnel the corpus
    through one reducer).  The ``min_count`` prune runs AFTER the rollup,
    distributed, as a narrow filter."""

    def partial_pairs(batch: pa.Table) -> pa.Table:
        counts: dict = {}
        for t in batch.column("text").to_pylist():
            toks = _TOKEN_RE.findall(t.lower())
            n = len(toks)
            for i, w1 in enumerate(toks):
                for j in range(max(0, i - window), min(n, i + window + 1)):
                    if j != i:
                        key = (w1, toks[j])
                        counts[key] = counts.get(key, 0) + 1
        w1s = [k[0] for k in counts]
        w2s = [k[1] for k in counts]
        return pa.table(
            {
                "w1": pa.array(w1s, pa.string()),
                "w2": pa.array(w2s, pa.string()),
                "n_part": pa.array(list(counts.values()), pa.int64()),
            }
        )

    from ._util import keyed_aggregate

    return keyed_aggregate(
        read_documents(sf_dir, columns=["text"]).map_batches(
            partial_pairs, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["w1", "w2"],
        {"n": ("n_part", "sum")},
    ).filter(expr=f"n >= {min_count}")


SKIPGRAM_SQL = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS ts
  FROM documents
),
pos AS (
  SELECT doc_id, ts, unnest(generate_series(1, len(ts))) AS p
  FROM toks WHERE len(ts) > 0
),
tok AS (SELECT doc_id, p, ts[p] AS token FROM pos),
pairs AS (
  SELECT a.token AS w1, b.token AS w2
  FROM tok a JOIN tok b
    ON a.doc_id = b.doc_id
   AND b.p BETWEEN a.p - {SKIPGRAM_WINDOW} AND a.p + {SKIPGRAM_WINDOW}
   AND b.p <> a.p
)
SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
FROM pairs GROUP BY w1, w2 HAVING count(*) >= {SKIPGRAM_MIN_COUNT}
"""


# -- PMI-style association scores over co-occurrence pairs ---------------------

PMI_SCALE = 1000


def pmi_scores(sf_dir: str) -> "ray.data.Dataset":
    """Association (lift) score for each skip-gram pair: how much more
    often (w1, w2) co-occurs than independence predicts — the collocation
    / phrase-mining statistic (integer lift = floor(n_pair * n_total *
    SCALE / (n_w1 * n_w2)), monotone in PMI for fixed totals, exact on
    both engines; a float log would rank identically).

    Composition without re-tokenizing: pairs come from
    :func:`skipgram_counts`; marginals are the same pair table re-rolled
    by w1 (each token's context-slot count), so the corpus is tokenized
    ONCE and the marginal table is vocab-bounded.  Marginals broadcast
    via ``ray.put`` and attach in a narrow map_batches — no join shuffle
    of the pair table.  At web scale swap the broadcast for the
    repartition equi-join in ``relational.py`` once marginals outgrow a
    worker heap (documented assumption: pruned vocab fits in one)."""
    import ray

    from ._util import ensure_columns, keyed_aggregate

    pairs = skipgram_counts(sf_dir).materialize()  # consumed 3x below

    # Marginals from the pair table itself: n_w1 = total context slots
    # token appears in as center; n_total = all pair occurrences.
    marg = keyed_aggregate(pairs, "w1", {"n_w": ("n", "sum")})
    marg_pd = ensure_columns(marg.to_pandas(), ["w1", "n_w"])  # vocab-bounded small side
    n_total = int(marg_pd["n_w"].sum())
    marg_ref = ray.put(dict(zip(marg_pd["w1"], marg_pd["n_w"].astype(int))))

    def score(batch: pa.Table) -> pa.Table:
        m = ray.get(marg_ref)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        w1 = batch.column("w1").to_pylist()
        w2 = batch.column("w2").to_pylist()
        n1 = np.array([m[w] for w in w1], dtype=np.int64)
        # w2 marginal: context tokens are the same vocabulary (every pair
        # (a,b) has its mirror (b,a) in the directional count), so the
        # w1-marginal serves both slots.
        n2 = np.array([m[w] for w in w2], dtype=np.int64)
        # int64 guard: n * n_total * SCALE must not wrap (numpy is silent
        # where BIGINT errors).  n <= n_total, so bound via the max pair.
        if n.size and int(n.max()) * n_total * PMI_SCALE > 2**63 - 1:
            raise OverflowError(
                "lift_milli exceeds int64 at this corpus scale — "
                "rescale or switch to log-PMI"
            )
        lift = n * n_total * PMI_SCALE // (n1 * n2)
        return pa.table(
            {
                "w1": batch.column("w1"),
                "w2": batch.column("w2"),
                "n": batch.column("n"),
                "lift_milli": pa.array(lift, pa.int64()),
            }
        )

    return pairs.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


PMI_SCORES_SQL = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS ts
  FROM documents
),
pos AS (
  SELECT doc_id, ts, unnest(generate_series(1, len(ts))) AS p
  FROM toks WHERE len(ts) > 0
),
tok AS (SELECT doc_id, p, ts[p] AS token FROM pos),
allpairs AS (
  SELECT a.token AS w1, b.token AS w2
  FROM tok a JOIN tok b
    ON a.doc_id = b.doc_id
   AND b.p BETWEEN a.p - {SKIPGRAM_WINDOW} AND a.p + {SKIPGRAM_WINDOW}
   AND b.p <> a.p
),
pairs AS (
  SELECT w1, w2, CAST(count(*) AS BIGINT) AS n
  FROM allpairs GROUP BY w1, w2 HAVING count(*) >= {SKIPGRAM_MIN_COUNT}
),
marg AS (SELECT w1, CAST(sum(n) AS BIGINT) AS n_w FROM pairs GROUP BY w1),
tot AS (SELECT CAST(sum(n) AS BIGINT) AS n_total FROM pairs)
SELECT p.w1, p.w2, p.n,
       CAST(p.n * t.n_total * {PMI_SCALE} // (m1.n_w * m2.n_w) AS BIGINT)
           AS lift_milli
FROM pairs p
JOIN marg m1 ON m1.w1 = p.w1
JOIN marg m2 ON m2.w1 = p.w2
CROSS JOIN tot t
"""


# -- CCNet-style common-segment removal ---------------------------------------

SEGMENT_LEN = 16  # tokens per segment (the corpus has no newlines to split on)
SEGMENT_DUP_MIN = 2  # corpus occurrences at which a segment is boilerplate


def segment_dedup(sf_dir: str) -> "ray.data.Dataset":
    """CCNet-style duplicated-segment removal accounting: cut each document
    into non-overlapping SEGMENT_LEN-token segments (the corpus analogue of
    CCNet's per-line dedup — this corpus has no newlines), drop every
    occurrence of any segment that appears >= SEGMENT_DUP_MIN times in the
    whole corpus, and report per document how many segments existed, how
    many were removed, and how many tokens survive.

    Differs from dup_ngram_profile (first-writer-wins attribution over
    OVERLAPPING grams): here ALL copies of a common segment are removed,
    the boilerplate-stripping semantics of CCNet Sec. 3.1.

    Scale shape: segments hash to int64 before the shuffle (8-byte keys);
    stage 1 emits one narrow row per segment, the keyed exchange on seg
    marks duplicate groups against the group's occurrence count, and a
    keyed aggregate on doc_id rolls partials up — two keyed exchanges,
    no driver materialization.  Token-less docs emit a unique per-doc
    sentinel so the final rollup covers every doc_id (LEFT-JOIN parity
    with the oracle)."""

    def seg_rows(batch: pa.Table) -> pa.Table:
        out_g: list[int] = []
        out_d: list[int] = []
        out_t: list[int] = []
        out_o: list[int] = []
        for doc_id, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = _TOKEN_RE.findall(t.lower())
            if not toks:
                # Unique NEGATIVE sentinel group (real segment hashes are
                # 63-bit non-negative); masking keeps it negative even for
                # negative doc_ids.
                out_g.append(-1 - (int(doc_id) & ((1 << 62) - 1)))
                out_d.append(doc_id)
                out_t.append(0)
                out_o.append(0)
                continue
            for i in range(0, len(toks), SEGMENT_LEN):
                seg = toks[i : i + SEGMENT_LEN]
                h = (
                    int.from_bytes(
                        hashlib.blake2b(
                            " ".join(seg).encode(), digest_size=8
                        ).digest(),
                        "big",
                    )
                    >> 1
                )
                out_g.append(h)
                out_d.append(doc_id)
                out_t.append(len(seg))
                out_o.append(1)
        return pa.table(
            {
                "seg": pa.array(out_g, pa.int64()),
                "doc_id": pa.array(out_d, pa.int64()),
                "n_toks": pa.array(out_t, pa.int64()),
                "is_seg": pa.array(out_o, pa.int64()),
            }
        )

    def per_seg_part(part: pa.Table) -> pa.Table:
        """All segments of a seg % P partition at once: per-run is_seg
        sums via a scatter over run indices decide duplication, the
        verdict broadcasts back with repeat — one kernel per exchange block,
        not one Python call per distinct segment."""
        from ._util import run_bounds

        seg = part.column("seg").to_numpy(zero_copy_only=False)
        order = np.argsort(seg, kind="stable")
        seg = seg[order]
        is_seg = part.column("is_seg").to_numpy(zero_copy_only=False)[order]
        n_toks = part.column("n_toks").to_numpy(zero_copy_only=False)[order]
        docs = part.column("doc_id").to_numpy(zero_copy_only=False)[order]
        b = run_bounds(seg)
        lens = np.diff(b)
        ridx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        seg_occurrences = np.zeros(len(lens), np.int64)
        np.add.at(seg_occurrences, ridx, is_seg)
        dup = (seg_occurrences >= SEGMENT_DUP_MIN)[ridx]
        removed = np.where(dup, is_seg, 0).astype(np.int64)
        kept = np.where(dup, 0, n_toks).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(docs, pa.int64()),
                "p_segs": pa.array(is_seg, pa.int64()),
                "p_removed": pa.array(removed, pa.int64()),
                "p_kept": pa.array(kept, pa.int64()),
            }
        )

    from ._util import keyed_aggregate, partitioned_by_key

    return keyed_aggregate(
        partitioned_by_key(
            read_documents(sf_dir).map_batches(
                seg_rows, batch_format="pyarrow", zero_copy_batch=True
            ),
            "seg",
            per_seg_part,
        ),
        "doc_id",
        {
            "n_segments": ("p_segs", "sum"),
            "n_removed": ("p_removed", "sum"),
            "kept_tokens": ("p_kept", "sum"),
        },
    )


SEGMENT_DEDUP_SQL = f"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS ts
  FROM documents
),
pos AS (
  SELECT doc_id, ts, unnest(generate_series(1, len(ts))) AS p
  FROM toks WHERE len(ts) > 0
),
segs AS (
  SELECT doc_id, (p - 1) // {SEGMENT_LEN} AS seg_no,
         string_agg(ts[p], ' ' ORDER BY p) AS seg,
         count(*) AS n_toks
  FROM pos GROUP BY doc_id, (p - 1) // {SEGMENT_LEN}
),
freq AS (SELECT seg, count(*) AS f FROM segs GROUP BY seg),
perdoc AS (
  SELECT s.doc_id,
         count(*) AS n_segments,
         sum(CASE WHEN fr.f >= {SEGMENT_DUP_MIN} THEN 1 ELSE 0 END)
             AS n_removed,
         sum(CASE WHEN fr.f >= {SEGMENT_DUP_MIN} THEN 0 ELSE s.n_toks END)
             AS kept_tokens
  FROM segs s JOIN freq fr USING (seg) GROUP BY s.doc_id
)
SELECT d.doc_id,
       CAST(COALESCE(p.n_segments, 0) AS BIGINT) AS n_segments,
       CAST(COALESCE(p.n_removed, 0) AS BIGINT) AS n_removed,
       CAST(COALESCE(p.kept_tokens, 0) AS BIGINT) AS kept_tokens
FROM documents d LEFT JOIN perdoc p USING (doc_id)
"""


# -- per-source lexical diversity (type/token ratio) --------------------------


def lexical_diversity(sf_dir: str) -> "ray.data.Dataset":
    """Type/token ratio per source — the vocabulary-richness signal corpus
    curation uses to spot template-generated or low-diversity sources.

    Combiner discipline for the hot keys (a token like "the" appears in
    every batch of every source): each batch pre-aggregates to one
    (source, token, partial count) row per distinct pair, a keyed
    aggregate on (source, token) shuffles only those bounded partials,
    and a second keyed aggregate on source counts the pair rows
    (distinct tokens) and sums their counts (total tokens).  The
    distinct count never round-trips raw token occurrences."""
    from ._util import keyed_aggregate

    def pair_counts(batch: pa.Table) -> pa.Table:
        counts: dict = {}
        for src, t in zip(
            batch.column("source").to_pylist(), batch.column("text").to_pylist()
        ):
            for tok in _TOKEN_RE.findall(t.lower()):
                k = (src, tok)
                counts[k] = counts.get(k, 0) + 1
        return pa.table(
            {
                "source": pa.array([k[0] for k in counts], pa.string()),
                "token": pa.array([k[1] for k in counts], pa.string()),
                "n_part": pa.array(list(counts.values()), pa.int64()),
            }
        )

    def finish(batch: pa.Table) -> pa.Table:
        d = batch.column("n_distinct")
        t = batch.column("n_tokens")
        return pa.table(
            {
                "source": batch.column("source"),
                "n_tokens": t,
                "n_distinct": d,
                "distinct_permille": pc.cast(
                    pc.divide(pc.multiply(d, 1000), pc.max_element_wise(t, 1)),
                    pa.int64(),
                ),
            }
        )

    pairs = keyed_aggregate(
        read_documents(sf_dir, columns=["source", "text"]).map_batches(
            pair_counts, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["source", "token"],
        {"n": ("n_part", "sum")},
    )
    return keyed_aggregate(
        pairs, "source", {"n_distinct": ("token", "count"), "n_tokens": ("n", "sum")}
    ).map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


LEXICAL_DIVERSITY_SQL = f"""
WITH tok AS (
  SELECT source, unnest(regexp_extract_all(lower(text), '{TOKEN_PATTERN}'))
         AS token
  FROM documents
)
SELECT source,
       CAST(count(*) AS BIGINT) AS n_tokens,
       CAST(count(DISTINCT token) AS BIGINT) AS n_distinct,
       CAST(count(DISTINCT token) * 1000 // greatest(count(*), 1) AS BIGINT)
           AS distinct_permille
FROM tok GROUP BY source
"""


# -- multi-level rollup (GROUP BY ROLLUP) -------------------------------------


def docs_rollup(sf_dir: str) -> pa.Table:
    """GROUP BY ROLLUP(lang, source) over the documents table: leaf
    (lang, source) rows plus per-lang subtotals plus the grand total,
    NULL-marked exactly like SQL ROLLUP.  One pass: one keyed aggregate
    to the leaf grain over #langs × #sources rows, and the upper levels
    derive from the bounded leaf table on the driver — the corpus is
    never re-scanned per level."""
    from ._util import ensure_columns, keyed_aggregate

    def mark_nulls(batch: pa.Table) -> pa.Table:
        # Data NULLs in the group keys ride through the shuffle as a
        # reserved marker (decoded back to NULL at output) so they form
        # their own group exactly like SQL GROUP BY and are never
        # confused with a missing group downstream.
        return pa.table(
            {
                "lang": batch.column("lang").fill_null("\x00"),
                "source": batch.column("source").fill_null("\x00"),
                "n_chars": batch.column("n_chars"),
            }
        )

    leaf = ensure_columns(
        keyed_aggregate(
            read_documents(sf_dir, columns=["lang", "source", "n_chars"]).map_batches(
                mark_nulls, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["lang", "source"],
            {"n_docs": ("n_chars", "count"), "sum_chars": ("n_chars", "sum")},
        ).to_pandas(),  # bounded: #langs × #sources rows
        ["lang", "source", "n_docs", "sum_chars"],
    )
    per_lang = (
        leaf.groupby("lang", as_index=False)[["n_docs", "sum_chars"]]
        .sum()
        .assign(source=None)
    )
    total = pa.table(
        {
            "lang": pa.array([None], pa.string()),
            "source": pa.array([None], pa.string()),
            "n_docs": pa.array([int(leaf["n_docs"].sum())], pa.int64()),
            "sum_chars": pa.array([int(leaf["sum_chars"].sum())], pa.int64()),
        }
    )
    cols = ["lang", "source", "n_docs", "sum_chars"]

    def to_arrow(df) -> pa.Table:
        dec = lambda vals: [  # noqa: E731 - marker -> SQL NULL
            None if v == "\x00" else v for v in vals
        ]
        return pa.table(
            {
                "lang": pa.array(dec(df["lang"]), pa.string()),
                "source": pa.array(dec(df["source"]), pa.string()),
                "n_docs": pa.array(df["n_docs"].astype("int64"), pa.int64()),
                "sum_chars": pa.array(
                    df["sum_chars"].astype("int64"), pa.int64()
                ),
            }
        )

    return pa.concat_tables([to_arrow(leaf[cols]), to_arrow(per_lang[cols]), total])


DOCS_ROLLUP_SQL = """
SELECT lang, source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents
GROUP BY ROLLUP(lang, source)
"""


# -- one-pass column profiler -------------------------------------------------

_PROFILE_COLS = [
    ("doc_id", "int"),
    ("text", "str"),
    ("lang", "str"),
    ("source", "str"),
    ("n_chars", "int"),
]


def table_profile(sf_dir: str) -> pa.Table:
    """Column profile of the documents table — rows / nulls / exact
    distinct per column, the first report any ingestion pipeline runs.

    One scan for all columns: each batch emits (col, value-hash) rows
    deduplicated within the batch (ints hash as themselves, strings as
    blake2b-64 — only equality matters for distinct counting) plus one
    null-count and one row-count partial per column; a keyed aggregate
    on (col, kind, h) collapses duplicates corpus-wide, a second one on
    (col, kind) reduces each column to three numbers, and the driver
    pivots the bounded #cols × 3 table."""
    from ._util import ensure_columns, keyed_aggregate

    def partials(batch: pa.Table) -> pa.Table:
        out_c: list[str] = []
        out_k: list[int] = []
        out_h: list[int] = []
        out_n: list[int] = []
        n = batch.num_rows
        for col, typ in _PROFILE_COLS:
            arr = batch.column(col)
            nulls = arr.null_count
            valid = arr.drop_null()
            if typ == "int":
                hs = np.unique(valid.to_numpy(zero_copy_only=False))
                hs = hs.astype(np.int64)
            else:
                seen = {
                    int.from_bytes(
                        hashlib.blake2b(v.encode(), digest_size=8).digest(),
                        "big",
                    )
                    >> 1
                    for v in set(valid.to_pylist())
                }
                hs = np.fromiter(seen, np.int64, len(seen))
            out_c.extend([col] * len(hs))
            out_k.extend([0] * len(hs))
            out_h.extend(hs.tolist())
            out_n.extend([1] * len(hs))
            out_c.extend([col, col])
            out_k.extend([1, 2])
            out_h.extend([0, 0])
            out_n.extend([nulls, n])
        return pa.table(
            {
                "col": pa.array(out_c, pa.string()),
                "kind": pa.array(out_k, pa.int64()),
                "h": pa.array(out_h, pa.int64()),
                "n_part": pa.array(out_n, pa.int64()),
            }
        )

    def contributions(batch: pa.Table) -> pa.Table:
        # A distinct value (kind 0) counts once; null and row counts sum.
        kind = batch.column("kind").to_numpy(zero_copy_only=False)
        nsum = batch.column("n").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "col": batch.column("col"),
                "kind": batch.column("kind"),
                "c": pa.array(np.where(kind == 0, 1, nsum), pa.int64()),
            }
        )

    per_value = keyed_aggregate(
        read_documents(sf_dir, columns=[c for c, _ in _PROFILE_COLS]).map_batches(
            partials, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["col", "kind", "h"],
        {"n": ("n_part", "sum")},
    )
    stats = ensure_columns(
        keyed_aggregate(
            per_value.map_batches(
                contributions, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["col", "kind"],
            {"v": ("c", "sum")},
        ).to_pandas(),  # bounded: #cols × 3 rows
        ["col", "kind", "v"],
    )
    piv = stats.pivot(index="col", columns="kind", values="v")
    # An all-null column never emits kind-0 (distinct) rows: reindex the
    # pivot so the column exists and reads 0 instead of raising.
    piv = (
        piv.reindex([c for c, _ in _PROFILE_COLS])
        .reindex(columns=[0, 1, 2])
        .fillna(0)
    )
    return pa.table(
        {
            "col_name": pa.array(piv.index, pa.string()),
            "n_rows": pa.array(piv[2].astype("int64"), pa.int64()),
            "n_nulls": pa.array(piv[1].astype("int64"), pa.int64()),
            "n_distinct": pa.array(piv[0].astype("int64"), pa.int64()),
        }
    )


TABLE_PROFILE_SQL = """
SELECT * FROM (
  SELECT 'doc_id' AS col_name, CAST(count(*) AS BIGINT) AS n_rows,
         CAST(count(*) - count(doc_id) AS BIGINT) AS n_nulls,
         CAST(count(DISTINCT doc_id) AS BIGINT) AS n_distinct
  FROM documents
  UNION ALL
  SELECT 'text', CAST(count(*) AS BIGINT),
         CAST(count(*) - count(text) AS BIGINT),
         CAST(count(DISTINCT text) AS BIGINT) FROM documents
  UNION ALL
  SELECT 'lang', CAST(count(*) AS BIGINT),
         CAST(count(*) - count(lang) AS BIGINT),
         CAST(count(DISTINCT lang) AS BIGINT) FROM documents
  UNION ALL
  SELECT 'source', CAST(count(*) AS BIGINT),
         CAST(count(*) - count(source) AS BIGINT),
         CAST(count(DISTINCT source) AS BIGINT) FROM documents
  UNION ALL
  SELECT 'n_chars', CAST(count(*) AS BIGINT),
         CAST(count(*) - count(n_chars) AS BIGINT),
         CAST(count(DISTINCT n_chars) AS BIGINT) FROM documents
)
"""


# -- declared-vs-predicted language confusion matrix ---------------------------


def lang_confusion(sf_dir: str) -> "ray.data.Dataset":
    """Confusion matrix between the table's declared lang column and the
    heuristic language-ID prediction — the QA report a curation team
    reads before trusting either signal.  Composes the existing LangId
    stage (one scan: prediction and declared label ride the same batch);
    one keyed aggregate to the O(#langs²) (declared, predicted) grain."""
    from ._util import keyed_aggregate

    def predict(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "declared": batch.column("lang"),
                "predicted": _LANG_ID_STAGE(batch).column("lang"),
            }
        )

    return keyed_aggregate(
        read_documents(sf_dir, columns=["doc_id", "lang", "text"]).map_batches(
            predict, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["declared", "predicted"],
        {"n_docs": ("declared", "count")},
    )


LANG_CONFUSION_SQL = f"""
WITH pred AS ({LANG_ID_SQL})
SELECT d.lang AS declared, p.lang AS predicted,
       CAST(count(*) AS BIGINT) AS n_docs
FROM documents d JOIN pred p USING (doc_id)
GROUP BY d.lang, p.lang
"""


# -- exact heavy hitters per source --------------------------------------------

HEAVY_HITTERS_K = 3


def heavy_hitters_by_source(sf_dir: str) -> "ray.data.Dataset":
    """Exact top-K tokens per source by occurrence count (ties broken
    lexicographically) — the per-group heavy-hitter report (the exact
    counterpart of the Count-Min sketch path in sketches.py).  Hot
    tokens ship as per-batch (source, token, partial count) rows, one
    keyed shuffle sums them, and a per-source group argsort picks the
    winners — group size is bounded by the source's distinct-token
    vocabulary, never its token volume."""

    def pair_counts(batch: pa.Table) -> pa.Table:
        counts: dict = {}
        for src, t in zip(
            batch.column("source").to_pylist(), batch.column("text").to_pylist()
        ):
            for tok in _TOKEN_RE.findall(t.lower()):
                k = (src, tok)
                counts[k] = counts.get(k, 0) + 1
        return pa.table(
            {
                "source": pa.array([k[0] for k in counts], pa.string()),
                "token": pa.array([k[1] for k in counts], pa.string()),
                "n_part": pa.array(list(counts.values()), pa.int64()),
            }
        )

    def topk_part(part: pa.Table) -> pa.Table:
        """Top-k for every source in a blake2(source) % P partition at
        once: lexsort by (source, -n, token), run positions give the
        cut — one kernel per exchange block, not one Python call per
        source/domain."""
        from ._util import run_bounds

        src = np.asarray(part.column("source").to_pylist(), dtype=object)
        toks = np.asarray(part.column("token").to_pylist(), dtype=object)
        n = part.column("n").to_numpy(zero_copy_only=False)
        order = np.lexsort((toks, -n, src))
        src_s = src[order]
        b = run_bounds(src_s)
        pos = np.arange(len(src_s), dtype=np.int64) - np.repeat(
            b[:-1], np.diff(b)
        )
        sel = order[pos < HEAVY_HITTERS_K]
        return pa.table(
            {
                "source": pa.array(src[sel], pa.string()),
                "token": pa.array(toks[sel], pa.string()),
                "n": pa.array(n[sel], pa.int64()),
            }
        )

    from ._util import keyed_aggregate, partitioned_by_key

    counted = keyed_aggregate(
        read_documents(sf_dir, columns=["source", "text"]).map_batches(
            pair_counts, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["source", "token"],
        {"n": ("n_part", "sum")},
    )
    return partitioned_by_key(counted, "source", topk_part)


HEAVY_HITTERS_SQL = f"""
WITH tok AS (
  SELECT source, unnest(regexp_extract_all(lower(text), '{TOKEN_PATTERN}'))
         AS token
  FROM documents
),
c AS (SELECT source, token, count(*) AS n FROM tok GROUP BY source, token),
r AS (
  SELECT source, token, n,
         row_number() OVER (
           PARTITION BY source ORDER BY n DESC, token
         ) AS rn
  FROM c
)
SELECT source, token, CAST(n AS BIGINT) AS n
FROM r WHERE rn <= {HEAVY_HITTERS_K}
"""


# -- unigram language-model likelihood (corpus-relative fluency proxy) --------


def unigram_likelihood(sf_dir: str) -> "ray.data.Dataset":
    """Per-document mean corpus-unigram probability in parts-per-billion —
    the quality signal a unigram LM gives (documents made of globally
    common tokens score high, junk strings score low), kept in exact
    integer arithmetic so the oracle hashes bit-identically (a log-prob
    variant ranks similarly but is float).

    The tfidf-style vocabulary-free shape, tokenized ONCE: the
    (doc_id, token, tf, n_tok) long-form rows are materialized and
    re-used for both the corpus-total scalar (a cheap sum over the tiny
    rows — no second regex pass over the text) and the scoring pipeline;
    ONE keyed shuffle on blake2(token) % P co-locates each token's rows
    so a partition-vectorized kernel (sort + ``run_bounds`` sweep, not
    one Python call per distinct token — junk vocabularies reach 10⁸⁺
    distinct tokens at web scale) computes corpus frequencies and
    converts them to ppb probabilities with Python-int exactness
    (tf·1e9 would overflow int64 at web scale), then a keyed aggregate
    on doc_id reduces to the per-doc mean.  No broadcast vocab table anywhere, so
    billion-token junk vocabularies never land in one heap.  Honest skew
    note: a stopword's token group holds one row per containing document
    (the same bound tfidf_topk carries); at web scale salt the hot
    tokens or join the per-token ppb back by hashed key instead."""
    import collections

    from ._util import blake2_u63, keyed_aggregate, partitioned_by_key, run_bounds

    ds = read_documents(sf_dir, columns=["doc_id", "text"])

    def term_counts(batch: pa.Table) -> pa.Table:
        d_ids: list[int] = []
        d_tok: list[str] = []
        d_tf: list[int] = []
        d_n: list[int] = []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = _TOKEN_RE.findall(t.lower())
            for tok, cnt in collections.Counter(toks).items():
                d_ids.append(did)
                d_tok.append(tok)
                d_tf.append(cnt)
                d_n.append(len(toks))
        return pa.table(
            {
                "doc_id": pa.array(d_ids, pa.int64()),
                "token": pa.array(d_tok, pa.string()),
                "tf": pa.array(d_tf, pa.int64()),
                "n_tok": pa.array(d_n, pa.int64()),
                "hk": pa.array(blake2_u63(d_tok), pa.int64()),
            }
        )

    def attach_ppb(part: pa.Table) -> pa.Table:
        tok = np.asarray(part.column("token").to_pylist(), dtype=object)
        tf = part.column("tf").to_numpy(zero_copy_only=False)
        did = part.column("doc_id").to_numpy(zero_copy_only=False)
        ntk = part.column("n_tok").to_numpy(zero_copy_only=False)
        order = np.argsort(tok, kind="stable")
        tok, tf, did, ntk = tok[order], tf[order], did[order], ntk[order]
        tb = run_bounds(tok)
        ctf = np.add.reduceat(tf, tb[:-1])
        # Python-int product per UNIQUE token: exact at any corpus size
        # (int64 would wrap once a token's corpus frequency exceeds ~9.2e9).
        ppb_g = np.fromiter(
            ((int(c) * 1_000_000_000) // max(total, 1) for c in ctf),
            dtype=np.int64,
            count=len(ctf),
        )
        ppb = np.repeat(ppb_g, np.diff(tb))
        return pa.table(
            {
                "doc_id": pa.array(did, pa.int64()),
                "contrib": pa.array(tf * ppb, pa.int64()),
                "n_tok": pa.array(ntk, pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        c = batch.column("contrib").to_numpy(zero_copy_only=False)
        n = batch.column("n_tok").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tok": pa.array(n, pa.int64()),
                "mean_ppb": pa.array(c // np.maximum(n, 1), pa.int64()),
            }
        )

    term_rows = ds.map_batches(
        term_counts, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # consumed twice: total scalar + scoring pipeline
    total = int(term_rows.sum("tf") or 0)

    return keyed_aggregate(
        partitioned_by_key(term_rows, "hk", attach_ppb),
        "doc_id",
        {"contrib": ("contrib", "sum"), "n_tok": ("n_tok", "max")},
    ).map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


UNIGRAM_LIKELIHOOD_SQL = f"""
WITH tok AS (
  SELECT doc_id,
         unnest(regexp_extract_all(lower(text), '{TOKEN_PATTERN}')) AS token
  FROM documents
),
tf AS (SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf FROM tok GROUP BY 1, 2),
nd AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tok FROM tok GROUP BY 1),
ctf AS (SELECT token, CAST(sum(tf) AS BIGINT) AS ctf FROM tf GROUP BY 1),
tot AS (SELECT CAST(sum(ctf) AS BIGINT) AS total FROM ctf)
SELECT tf.doc_id,
       CAST(max(nd.n_tok) AS BIGINT) AS n_tok,
       CAST(sum(tf.tf * ((ctf.ctf * 1000000000) // tot.total))
            // greatest(max(nd.n_tok), 1) AS BIGINT) AS mean_ppb
FROM tf
JOIN ctf ON tf.token = ctf.token
JOIN nd ON tf.doc_id = nd.doc_id
CROSS JOIN tot
GROUP BY tf.doc_id
"""


# -- bigram language-model scoring (CCNet-style quality signal) ---------------


def lm_bigram_score(sf_dir: str) -> "ray.data.Dataset":
    """Per-document mean bigram conditional probability in parts-per-
    billion — the CCNet/kenlm-style LM quality signal one order up from
    ``unigram_likelihood``: P(cur|prev) = count(prev,cur)/count(prev,*),
    averaged over the document's bigram positions.  Exact integer
    arithmetic end to end so the oracle hashes bit-identically.

    Scale shape: documents are tokenized ONCE into (doc_id, prev, cur,
    tf, n_big) long-form rows.  A single keyed shuffle on
    blake2(prev) % P co-locates every row of a conditioning token, so
    one vectorized kernel per exchange block computes BOTH totals —
    count(prev,*) and count(prev,cur) — with a lexsort + two
    ``run_bounds`` sweeps (no vocab² join, no broadcast LM table; the
    model never materializes anywhere).  The ppb division runs in
    Python ints at the bigram-group level (count·1e9 wraps int64 once a
    conditioning token exceeds ~9.2e9 corpus occurrences), then a keyed
    aggregate on doc_id reduces to the per-doc mean.  Hot-prev skew
    (stopwords) carries the same bound tfidf_topk documents: salt the
    top conditioning tokens at web scale."""
    import collections

    from ._util import blake2_u63, keyed_aggregate, partitioned_by_key, run_bounds

    ds = read_documents(sf_dir, columns=["doc_id", "text"])

    def bigram_counts(batch: pa.Table) -> pa.Table:
        d_ids: list[int] = []
        d_prev: list[str] = []
        d_cur: list[str] = []
        d_tf: list[int] = []
        d_n: list[int] = []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = _TOKEN_RE.findall(t.lower())
            if len(toks) < 2:
                continue  # no bigrams: doc absent from output (SQL matches)
            n_big = len(toks) - 1
            for (p, c), cnt in collections.Counter(
                zip(toks, toks[1:])
            ).items():
                d_ids.append(did)
                d_prev.append(p)
                d_cur.append(c)
                d_tf.append(cnt)
                d_n.append(n_big)
        return pa.table(
            {
                "doc_id": pa.array(d_ids, pa.int64()),
                "prev": pa.array(d_prev, pa.string()),
                "cur": pa.array(d_cur, pa.string()),
                "tf": pa.array(d_tf, pa.int64()),
                "n_big": pa.array(d_n, pa.int64()),
                "hk": pa.array(blake2_u63(d_prev), pa.int64()),
            }
        )

    def score_partition(part: pa.Table) -> pa.Table:
        prev = np.asarray(part.column("prev").to_pylist(), dtype=object)
        cur = np.asarray(part.column("cur").to_pylist(), dtype=object)
        tf = part.column("tf").to_numpy(zero_copy_only=False)
        did = part.column("doc_id").to_numpy(zero_copy_only=False)
        nbg = part.column("n_big").to_numpy(zero_copy_only=False)
        order = np.lexsort((cur, prev))
        prev, cur, tf = prev[order], cur[order], tf[order]
        did, nbg = did[order], nbg[order]
        pb = run_bounds(prev)
        prev_tot = np.add.reduceat(tf, pb[:-1])
        prev_tot_row = np.repeat(prev_tot, np.diff(pb))
        bigram_change = np.r_[
            True, (prev[1:] != prev[:-1]) | (cur[1:] != cur[:-1]), True
        ]
        bb = np.flatnonzero(bigram_change).astype(np.int64)
        big_tot = np.add.reduceat(tf, bb[:-1])
        # Python-int ppb per UNIQUE bigram (bounded by the partition's
        # distinct-bigram count, not its row count): exact at any scale.
        ppb_g = np.fromiter(
            (
                (int(b) * 1_000_000_000) // int(p)
                for b, p in zip(big_tot, prev_tot_row[bb[:-1]])
            ),
            dtype=np.int64,
            count=len(big_tot),
        )
        ppb = np.repeat(ppb_g, np.diff(bb))
        # tf·ppb ≤ n_big·1e9: int64-safe for any document under ~9e9 tokens.
        return pa.table(
            {
                "doc_id": pa.array(did, pa.int64()),
                "contrib": pa.array(tf * ppb, pa.int64()),
                "n_big": pa.array(nbg, pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        c = batch.column("contrib").to_numpy(zero_copy_only=False)
        n = batch.column("n_big").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_big": pa.array(n, pa.int64()),
                "lm_ppb": pa.array(c // np.maximum(n, 1), pa.int64()),
            }
        )

    long_rows = ds.map_batches(
        bigram_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    return keyed_aggregate(
        partitioned_by_key(long_rows, "hk", score_partition),
        "doc_id",
        {"contrib": ("contrib", "sum"), "n_big": ("n_big", "max")},
    ).map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


LM_BIGRAM_SQL = f"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(lower(text), '{TOKEN_PATTERN}') AS toks
  FROM documents
),
tok AS (
  SELECT doc_id, unnest(toks) AS tok, generate_subscripts(toks, 1) AS ord
  FROM t WHERE len(toks) >= 2
),
bg AS (
  SELECT a.doc_id, a.tok AS prev, b.tok AS cur
  FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
),
nd AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_big FROM bg GROUP BY 1),
bgc AS (SELECT prev, cur, CAST(count(*) AS BIGINT) AS big_n FROM bg GROUP BY 1, 2),
pv AS (SELECT prev, CAST(sum(big_n) AS BIGINT) AS prev_n FROM bgc GROUP BY 1),
prob AS (
  SELECT bgc.prev, bgc.cur, (bgc.big_n * 1000000000) // pv.prev_n AS ppb
  FROM bgc JOIN pv ON bgc.prev = pv.prev
),
dbg AS (
  SELECT doc_id, prev, cur, CAST(count(*) AS BIGINT) AS tf
  FROM bg GROUP BY 1, 2, 3
)
SELECT dbg.doc_id,
       CAST(max(nd.n_big) AS BIGINT) AS n_big,
       CAST(sum(dbg.tf * prob.ppb) // greatest(max(nd.n_big), 1) AS BIGINT)
         AS lm_ppb
FROM dbg
JOIN prob ON dbg.prev = prob.prev AND dbg.cur = prob.cur
JOIN nd ON dbg.doc_id = nd.doc_id
GROUP BY dbg.doc_id
"""


# -- k-anonymity audit over quasi-identifiers ---------------------------------

K_ANONYMITY_K = 5


def _with_len_bucket(batch: pa.Table) -> pa.Table:
    """The (lang, source, len_bucket = n_chars // 100) quasi-identifier
    columns both privacy audits group on."""
    return pa.table(
        {
            "lang": batch.column("lang"),
            "source": batch.column("source"),
            "len_bucket": pc.cast(
                pc.divide(batch.column("n_chars"), pa.scalar(100, pa.int64())),
                pa.int64(),
            ),
        }
    )


def k_anonymity(sf_dir: str, k: int = K_ANONYMITY_K) -> "ray.data.Dataset":
    """Privacy-governance audit: quasi-identifier combinations
    (lang, source, length-bucket) whose group is smaller than k — rows a
    release policy would need to suppress or generalize.  One keyed
    aggregate counts the combo key; the under-k filter runs where the
    groups live, so only violating combos (a tiny result at any corpus
    size) ever reach the driver."""
    from ._util import keyed_aggregate

    return keyed_aggregate(
        read_documents(sf_dir, columns=["lang", "source", "n_chars"]).map_batches(
            _with_len_bucket, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["lang", "source", "len_bucket"],
        {"n_docs": ("len_bucket", "count")},
    ).filter(expr=f"n_docs < {k}")


K_ANONYMITY_SQL = f"""
SELECT lang, source,
       CAST(n_chars // 100 AS BIGINT) AS len_bucket,
       CAST(count(*) AS BIGINT) AS n_docs
FROM documents
GROUP BY 1, 2, 3
HAVING count(*) < {K_ANONYMITY_K}
"""


L_DIVERSITY_L = 3


def l_diversity(sf_dir: str, l: int = L_DIVERSITY_L) -> "ray.data.Dataset":
    """Privacy-governance audit, the step after k_anonymity: a
    quasi-identifier group can be large (k-anonymous) yet still leak if
    everyone in it shares one sensitive value.  Here the sensitive
    attribute is lang: report (source, len_bucket) groups with fewer
    than l DISTINCT languages.  Scale shape: the first keyed aggregate
    counts (source, len_bucket, lang) cells (globally unique triples),
    the second rolls triples up to pairs, counting distinct langs as
    plain rows — distinct-count without any set materialization.  Only
    violating groups reach the caller."""
    from ._util import keyed_aggregate

    cells = keyed_aggregate(
        read_documents(sf_dir, columns=["lang", "source", "n_chars"]).map_batches(
            _with_len_bucket, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["source", "len_bucket", "lang"],
        {"n": ("lang", "count")},
    )
    return keyed_aggregate(
        cells, ["source", "len_bucket"], {"n_docs": ("n", "sum"), "n_langs": ("n", "count")}
    ).filter(expr=f"n_langs < {l}")


L_DIVERSITY_SQL = f"""
WITH c AS (
  SELECT source, n_chars // 100 AS len_bucket, lang, count(*) AS cnt
  FROM documents GROUP BY 1, 2, 3
)
SELECT source,
       CAST(len_bucket AS BIGINT) AS len_bucket,
       CAST(sum(cnt) AS BIGINT) AS n_docs,
       CAST(count(*) AS BIGINT) AS n_langs
FROM c GROUP BY 1, 2
HAVING count(*) < {L_DIVERSITY_L}
"""


# -- decile profile (global quantile bounds broadcast + bucket rollup) --------

DECILE_PERMILLE = tuple(range(100, 1000, 100))


def decile_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-decile document-length profile: exact global decile bounds via
    the distinct-value-count reduction (driver state = one row per
    DISTINCT length, not per document — see percentiles_doclen), bounds
    broadcast into a vectorized searchsorted bucketing pass, then an
    O(10)-group keyed aggregate.  The two-phase compute-stat-then-broadcast
    shape is the standard scale pattern for any 'bucket by global
    quantile' step (winsorizing, curriculum binning, outlier capping)."""
    from ._util import keyed_aggregate

    counts = (
        keyed_aggregate(
            read_documents(sf_dir, columns=["n_chars"]),
            "n_chars",
            {"cnt": ("n_chars", "count")},
        )
        .to_pandas()
        .sort_values("n_chars")
    )
    vals = counts["n_chars"].to_numpy()
    cum = np.cumsum(counts["cnt"].to_numpy())
    bounds = [quantile_disc_pick(vals, cum, pm) for pm in DECILE_PERMILLE]
    bounds_arr = np.asarray(bounds, dtype=np.int64)

    def bucketize(batch: pa.Table) -> pa.Table:
        x = batch.column("n_chars").to_numpy(zero_copy_only=False)
        # bucket = count of bounds strictly below x (0..9); ties fall in
        # the lower bucket, the same rule the oracle's CASE-sum applies.
        b = np.searchsorted(bounds_arr, x, side="left").astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(b, pa.int64()),
                "x": pa.array(x.astype(np.int64), pa.int64()),
            }
        )

    return keyed_aggregate(
        read_documents(sf_dir, columns=["n_chars"]).map_batches(
            bucketize, batch_format="pyarrow", zero_copy_batch=True
        ),
        "bucket",
        {
            "n_docs": ("x", "count"),
            "sum_chars": ("x", "sum"),
            "min_chars": ("x", "min"),
            "max_chars": ("x", "max"),
        },
    )


_DECILE_BOUNDS_SQL = ", ".join(
    f"quantile_disc(n_chars, {pm / 1000.0}) AS b{pm}" for pm in DECILE_PERMILLE
)
_DECILE_CASE_SQL = " + ".join(
    f"CASE WHEN d.n_chars > b.b{pm} THEN 1 ELSE 0 END" for pm in DECILE_PERMILLE
)
DECILE_STATS_SQL = f"""
WITH b AS (SELECT {_DECILE_BOUNDS_SQL} FROM documents)
SELECT CAST({_DECILE_CASE_SQL} AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(d.n_chars) AS BIGINT) AS sum_chars,
       CAST(min(d.n_chars) AS BIGINT) AS min_chars,
       CAST(max(d.n_chars) AS BIGINT) AS max_chars
FROM documents d CROSS JOIN b
GROUP BY 1
"""


# -- per-source language diversity (exact Gini impurity) -----------------------


def source_diversity(sf_dir: str) -> "ray.data.Dataset":
    """Gini impurity of each source's language mix, in exact permille —
    the mixture-health stat a corpus curator watches (0 = monolingual,
    →1000·(1−1/k) = uniform over k languages).  One keyed aggregate
    counts (source, lang) cells, the keyed exchange on source co-locates
    each source's cells, and the impurity is computed per source run in
    arbitrary-precision Python ints (1000·Σc² overflows int64 once a
    source passes ~3e6 docs), so the result is bit-exact against the
    oracle's HUGEINT arithmetic at any scale."""
    from ._util import keyed_aggregate, partitioned_by_key, run_bounds

    def impurity(block: pa.Table) -> pa.Table:
        src = np.asarray(block.column("source").to_pylist(), dtype=object)
        order = np.argsort(src, kind="stable")
        src = src[order]
        c = [int(x) for x in block.column("c").take(pa.array(order)).to_pylist()]
        b = run_bounds(src)
        n = [sum(c[s:e]) for s, e in zip(b[:-1], b[1:])]
        sq = [sum(x * x for x in c[s:e]) for s, e in zip(b[:-1], b[1:])]
        return pa.table(
            {
                "source": pa.array(src[b[:-1]], pa.string()),
                "n_docs": pa.array(n, pa.int64()),
                "n_langs": pa.array(np.diff(b), pa.int64()),
                "gini_permille": pa.array(
                    [1000 - (1000 * q) // (m * m) for q, m in zip(sq, n)], pa.int64()
                ),
            }
        )

    cells = keyed_aggregate(
        read_documents(sf_dir, columns=["source", "lang"]),
        ["source", "lang"],
        {"c": ("lang", "count")},
    )
    return partitioned_by_key(cells, "source", impurity)


SOURCE_DIVERSITY_SQL = """
WITH cl AS (
  SELECT source, lang, CAST(count(*) AS BIGINT) AS c
  FROM documents GROUP BY 1, 2
)
SELECT source,
       CAST(sum(c) AS BIGINT) AS n_docs,
       CAST(count(*) AS BIGINT) AS n_langs,
       CAST(1000 - (1000 * sum(c * c)) // (sum(c) * sum(c)) AS BIGINT)
           AS gini_permille
FROM cl GROUP BY source
"""


# -- BPE merge-rule training (iterative, driver-coordinated) -------------------

BPE_TRAIN_MERGES = 8


def _bpe_apply_merges(
    symbols: tuple[str, ...], merges: list[tuple[str, str]]
) -> tuple[str, ...]:
    """Apply merge rules IN TRAINING ORDER, each rule left-to-right —
    the canonical greedy BPE segmentation both the distributed trainer
    and the pytest reference share (one definition on purpose: a drift
    in application order silently changes every later round's counts)."""
    for left, right in merges:
        out: list[str] = []
        i = 0
        while i < len(symbols):
            if (
                i + 1 < len(symbols)
                and symbols[i] == left
                and symbols[i + 1] == right
            ):
                out.append(left + right)
                i += 2
            else:
                out.append(symbols[i])
                i += 1
        symbols = tuple(out)
    return symbols


def bpe_train(sf_dir: str, n_merges: int = BPE_TRAIN_MERGES) -> pa.Table:
    """Train BPE merge rules over the corpus — the tokenizer-training
    loop of an LLM data pipeline, done with the iterative-algorithm
    scale shape (kmeans_train's): bounded driver state (the merge list),
    per-round distributed work, state re-broadcast each round.

    Round structure: the corpus first collapses to a WORD-FREQUENCY
    table (one keyed aggregate; all later rounds run over unique words ×
    freq, never raw tokens — the classic BPE trick that makes round
    cost vocabulary-bounded).  Each round maps the current merge list
    over the word table (ray.put once per round), counts adjacent
    symbol pairs weighted by word frequency into per-batch partials,
    rolls them up with one keyed aggregate, and the driver picks the argmax
    pair (count desc, then lexicographic — deterministic) as the next
    rule.  Not SQL-expressible (the segmentation is inherently
    iterative), so the driver records a rows-only check; the exact
    merge sequence is pinned by a sequential pure-Python reference in
    pytest."""

    from ._util import keyed_aggregate

    def word_freq_partial(batch: pa.Table) -> pa.Table:
        import collections

        counts: collections.Counter = collections.Counter()
        for t in batch.column("text").to_pylist():
            counts.update(_TOKEN_RE.findall(t.lower()))
        return pa.table(
            {
                "word": pa.array(list(counts.keys()), pa.string()),
                "freq": pa.array(list(counts.values()), pa.int64()),
            }
        )

    words = keyed_aggregate(
        read_documents(sf_dir, columns=["text"]).map_batches(
            word_freq_partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        "word",
        {"freq": ("freq", "sum")},
    ).materialize()  # re-streamed every round; vocabulary-bounded

    merges: list[tuple[str, str]] = []
    out_step: list[int] = []
    out_left: list[str] = []
    out_right: list[str] = []
    out_count: list[int] = []
    for step in range(1, n_merges + 1):
        merges_ref = ray.put(list(merges))

        def pair_partial(batch: pa.Table) -> pa.Table:
            import collections

            rules = ray.get(merges_ref)
            pc_counts: collections.Counter = collections.Counter()
            freqs = batch.column("freq").to_numpy(zero_copy_only=False)
            for w, f in zip(batch.column("word").to_pylist(), freqs):
                syms = _bpe_apply_merges(tuple(w), rules)
                for i in range(len(syms) - 1):
                    pc_counts[(syms[i], syms[i + 1])] += int(f)
            if not pc_counts:
                return pa.table(
                    {
                        "left": pa.array([], pa.string()),
                        "right": pa.array([], pa.string()),
                        "cnt": pa.array([], pa.int64()),
                    }
                )
            ls, rs = zip(*pc_counts.keys())
            return pa.table(
                {
                    "left": pa.array(list(ls), pa.string()),
                    "right": pa.array(list(rs), pa.string()),
                    "cnt": pa.array(list(pc_counts.values()), pa.int64()),
                }
            )

        rolled = keyed_aggregate(
            words.map_batches(
                pair_partial, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["left", "right"],
            {"cnt": ("cnt", "sum")},
        ).to_pandas()  # bounded by live symbol-pair vocabulary
        if not len(rolled):
            break
        rolled = rolled.sort_values(
            ["cnt", "left", "right"], ascending=[False, True, True]
        )
        top = rolled.iloc[0]
        merges.append((str(top["left"]), str(top["right"])))
        out_step.append(step)
        out_left.append(str(top["left"]))
        out_right.append(str(top["right"]))
        out_count.append(int(top["cnt"]))
    return pa.table(
        {
            "step": pa.array(out_step, pa.int64()),
            "left": pa.array(out_left, pa.string()),
            "right": pa.array(out_right, pa.string()),
            "pair_count": pa.array(out_count, pa.int64()),
        }
    )


# -- feature hashing (hashing-trick bag-of-words) -----------------------------

_HASHED_FEATURES_DIM = 64
_bucket_memo: dict = {}


def _token_bucket(tok: str) -> int:
    """md5 lower-64-little-endian % dim — chosen because DuckDB's
    md5_number_lower() computes the identical integer, so the oracle
    mirrors the hash bit-for-bit (blake2, the repo's shuffle-key hash,
    has no SQL twin).  Memoized per process: vocabulary is Zipf-bounded,
    so the dict stays far smaller than the corpus."""
    b = _bucket_memo.get(tok)
    if b is None:
        b = int.from_bytes(
            hashlib.md5(tok.encode("utf-8")).digest()[8:], "little"
        ) % _HASHED_FEATURES_DIM
        _bucket_memo[tok] = b
    return b


def hashed_features(sf_dir: str) -> "ray.data.Dataset":
    """Hashing-trick featurization: each document's token counts fold
    into a fixed 64-bucket histogram (the sparse input to linear
    probes / quality classifiers that cannot afford a vocabulary).
    Output: one (doc_id, bucket, n) row per non-empty bucket.

    Scale shape: embarrassingly parallel — documents are rows, so the
    whole featurization is ONE narrow map_batches with no shuffle at
    all; output rows are bounded by docs × 64."""
    from collections import Counter

    def featurize(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        out_d, out_b, out_n = [], [], []
        for did, t in zip(ids, batch.column("text").to_pylist()):
            c: Counter = Counter(
                _token_bucket(tok) for tok in _TOKEN_RE.findall(t.lower())
            )
            out_d.extend([int(did)] * len(c))
            out_b.extend(c.keys())
            out_n.extend(c.values())
        return pa.table(
            {
                "doc_id": pa.array(out_d, pa.int64()),
                "bucket": pa.array(out_b, pa.int64()),
                "n": pa.array(out_n, pa.int64()),
            }
        )

    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        featurize, batch_format="pyarrow", zero_copy_batch=True
    )


HASHED_FEATURES_SQL = f"""
WITH toks AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '{TOKEN_PATTERN}')) AS tok
  FROM documents
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(md5_number_lower(tok) % {_HASHED_FEATURES_DIM} AS BIGINT) AS bucket,
       CAST(COUNT(*) AS BIGINT) AS n
FROM toks GROUP BY 1, 2
"""


# -- sentence segmentation profile --------------------------------------------

_SENT_SPLIT_RE = re.compile(r"[.!?]+")


def sentence_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-document sentence profile (count / longest / total chars over
    '[.!?]+'-delimited segments) — the length-shape signal quality
    filters and curriculum buckets read.

    Scale shape: embarrassingly parallel narrow map_batches, zero
    shuffle; the split regex is module-compiled once per process and its
    semantics are pinned against DuckDB's regexp_split_to_array by the
    oracle (verified identical on the corpus)."""

    def profile(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = np.empty(len(ids), np.int64)
        mx = np.zeros(len(ids), np.int64)
        tot = np.zeros(len(ids), np.int64)
        for i, t in enumerate(batch.column("text").to_pylist()):
            lens = [len(s) for s in _SENT_SPLIT_RE.split(t) if s]
            n[i] = len(lens)
            if lens:
                mx[i] = max(lens)
                tot[i] = sum(lens)
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                "n_sentences": pa.array(n, pa.int64()),
                "max_sentence_chars": pa.array(mx, pa.int64()),
                "sum_sentence_chars": pa.array(tot, pa.int64()),
            }
        )

    return read_documents(sf_dir, columns=["doc_id", "text"]).map_batches(
        profile, batch_format="pyarrow", zero_copy_batch=True
    )


SENTENCE_STATS_SQL = """
WITH s AS (
  SELECT doc_id,
         list_filter(regexp_split_to_array(text, '[.!?]+'),
                     x -> length(x) > 0) AS segs
  FROM documents
)
SELECT CAST(doc_id AS BIGINT) AS doc_id,
       CAST(len(segs) AS BIGINT) AS n_sentences,
       CAST(COALESCE(list_max(list_transform(segs, x -> length(x))), 0)
            AS BIGINT) AS max_sentence_chars,
       CAST(COALESCE(list_sum(list_transform(segs, x -> length(x))), 0)
            AS BIGINT) AS sum_sentence_chars
FROM s
"""


# -- DSIR-style importance weights (target vs source unigram LM) --------------


def dsir_weights(sf_dir: str) -> "ray.data.Dataset":
    """Data-Selection-with-Importance-Resampling weights (Xie et al.
    2023, arXiv:2302.03169 — unigram proxy): per document, the mean
    smoothed target-LM token probability minus the mean smoothed
    source-LM probability, in exact integer ppb.  Target = 'en'
    documents, source = the rest; a positive weight marks documents
    that look more like the target distribution — THE importance signal
    for domain-matched pretraining selection.

    Exactness contract: ppb_c(tok) = ((tf_c + 1)·10⁹) // (T_c + V)
    (add-one smoothing over the joint vocabulary), per-doc means are
    floored separately per class BEFORE subtracting, so every //
    operand is non-negative and DuckDB's truncate-toward-zero agrees
    with Python floor.

    Scale shape: tokenized ONCE into (doc_id, token, tf, n_tok, is_t)
    long rows (materialized, reused 3×); class token totals are plain
    sums; the vocabulary size V is one extra token-keyed shuffle with a
    per-partition unique count (no distinct-token table ever
    materializes); scoring is the unigram_likelihood kernel with two
    class frequencies per token run, Python-int products (int64 wraps
    past ~9.2e9 corpus occurrences of a token).  Hot-token skew bound
    as in tfidf_topk."""
    import collections

    from ._util import blake2_u63, keyed_aggregate, partitioned_by_key, run_bounds

    ds = read_documents(sf_dir, columns=["doc_id", "lang", "text"])

    def term_counts(batch: pa.Table) -> pa.Table:
        d_ids: list[int] = []
        d_tok: list[str] = []
        d_tf: list[int] = []
        d_n: list[int] = []
        d_t: list[bool] = []
        for did, lang, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("lang").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            toks = _TOKEN_RE.findall(t.lower())
            is_t = lang == "en"
            for tok, cnt in collections.Counter(toks).items():
                d_ids.append(did)
                d_tok.append(tok)
                d_tf.append(cnt)
                d_n.append(len(toks))
                d_t.append(is_t)
        return pa.table(
            {
                "doc_id": pa.array(d_ids, pa.int64()),
                "token": pa.array(d_tok, pa.string()),
                "tf": pa.array(d_tf, pa.int64()),
                "n_tok": pa.array(d_n, pa.int64()),
                "is_t": pa.array(d_t, pa.bool_()),
                "hk": pa.array(blake2_u63(d_tok), pa.int64()),
            }
        )

    term_rows = ds.map_batches(
        term_counts, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # reused: class totals + vocab size + scoring

    def class_totals(batch: pa.Table) -> pa.Table:
        tf = batch.column("tf").to_numpy(zero_copy_only=False)
        is_t = batch.column("is_t").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "tt": pa.array([int(tf[is_t].sum())], pa.int64()),
                "ts": pa.array([int(tf[~is_t].sum())], pa.int64()),
            }
        )

    totals = term_rows.map_batches(
        class_totals, batch_format="pyarrow", zero_copy_batch=True
    )
    T_t = int(totals.sum("tt") or 0)
    T_s = int(totals.sum("ts") or 0)

    def vocab_part(part: pa.Table) -> pa.Table:
        tok = np.asarray(part.column("token").to_pylist(), dtype=object)
        return pa.table(
            {"n_unique": pa.array([len(np.unique(tok)) if len(tok) else 0],
                                  pa.int64())}
        )

    V = int(
        partitioned_by_key(term_rows, "hk", vocab_part).sum("n_unique") or 0
    )

    def attach(part: pa.Table) -> pa.Table:
        tok = np.asarray(part.column("token").to_pylist(), dtype=object)
        tf = part.column("tf").to_numpy(zero_copy_only=False)
        is_t = part.column("is_t").to_numpy(zero_copy_only=False)
        did = part.column("doc_id").to_numpy(zero_copy_only=False)
        ntk = part.column("n_tok").to_numpy(zero_copy_only=False)
        order = np.argsort(tok, kind="stable")
        tok, tf, is_t, did, ntk = (
            tok[order], tf[order], is_t[order], did[order], ntk[order]
        )
        tb = run_bounds(tok)
        tft = np.add.reduceat(np.where(is_t, tf, 0), tb[:-1])
        tfs = np.add.reduceat(np.where(is_t, 0, tf), tb[:-1])
        # Python-int per unique token: exact at any corpus size
        ppb_t = np.fromiter(
            (((int(c) + 1) * 1_000_000_000) // max(T_t + V, 1) for c in tft),
            dtype=np.int64, count=len(tft),
        )
        ppb_s = np.fromiter(
            (((int(c) + 1) * 1_000_000_000) // max(T_s + V, 1) for c in tfs),
            dtype=np.int64, count=len(tfs),
        )
        reps = np.diff(tb)
        return pa.table(
            {
                "doc_id": pa.array(did, pa.int64()),
                "c_t": pa.array(tf * np.repeat(ppb_t, reps), pa.int64()),
                "c_s": pa.array(tf * np.repeat(ppb_s, reps), pa.int64()),
                "n_tok": pa.array(ntk, pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        ct = batch.column("c_t").to_numpy(zero_copy_only=False)
        cs = batch.column("c_s").to_numpy(zero_copy_only=False)
        n_tok = batch.column("n_tok").to_numpy(zero_copy_only=False)
        n = np.maximum(n_tok, 1)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tok": pa.array(n_tok, pa.int64()),
                "dsir_ppb": pa.array(ct // n - cs // n, pa.int64()),
            }
        )

    return keyed_aggregate(
        partitioned_by_key(term_rows, "hk", attach),
        "doc_id",
        {"c_t": ("c_t", "sum"), "c_s": ("c_s", "sum"), "n_tok": ("n_tok", "max")},
    ).map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


DSIR_WEIGHTS_SQL = f"""
WITH tok AS (
  SELECT d.doc_id, (d.lang = 'en') AS is_t,
         unnest(regexp_extract_all(lower(d.text), '{TOKEN_PATTERN}')) AS token
  FROM documents d
),
tf AS (
  SELECT doc_id, is_t, token, CAST(count(*) AS BIGINT) AS tf
  FROM tok GROUP BY 1, 2, 3
),
nd AS (SELECT doc_id, CAST(count(*) AS BIGINT) AS n_tok FROM tok GROUP BY 1),
ctf AS (
  SELECT token,
         CAST(sum(CASE WHEN is_t THEN tf ELSE 0 END) AS BIGINT) AS tft,
         CAST(sum(CASE WHEN is_t THEN 0 ELSE tf END) AS BIGINT) AS tfs
  FROM tf GROUP BY 1
),
tot AS (
  SELECT CAST(sum(tft) AS BIGINT) AS tt,
         CAST(sum(tfs) AS BIGINT) AS ts,
         CAST(count(*) AS BIGINT) AS v
  FROM ctf
)
SELECT tf.doc_id,
       CAST(max(nd.n_tok) AS BIGINT) AS n_tok,
       CAST(sum(tf.tf * (((ctf.tft + 1) * 1000000000) // (tot.tt + tot.v)))
              // greatest(max(nd.n_tok), 1)
          - sum(tf.tf * (((ctf.tfs + 1) * 1000000000) // (tot.ts + tot.v)))
              // greatest(max(nd.n_tok), 1) AS BIGINT) AS dsir_ppb
FROM tf
JOIN ctf ON tf.token = ctf.token
JOIN nd ON tf.doc_id = nd.doc_id
CROSS JOIN tot
GROUP BY tf.doc_id
"""


# -- linear classifier scoring over hashed features ----------------------------

_CLS_WEIGHT_MULT = 2654435761  # Knuth multiplicative constant


def classifier_logits(sf_dir: str) -> "ray.data.Dataset":
    """Per-document linear-classifier logit over the 64-bucket hashed
    bag-of-words — the scoring plumbing of a fastText/logistic quality
    filter (phi-style "educational value" gates run exactly this shape:
    featurize → broadcast weight vector → per-batch dot product →
    threshold).  The weight vector here is a fixed deterministic
    function of the bucket id (w_b = (b·2654435761) mod 1000 − 500) so
    the oracle can mirror the score bit-for-bit; swapping in trained
    weights is a one-line change that keeps every distributed property.

    Scale shape: zero shuffle beyond hashed_features' narrow map — the
    dot product folds into the same pass (weights are a 64-int table,
    not even worth a ray.put), then one doc-keyed keyed aggregate."""
    from ._util import keyed_aggregate

    feats = hashed_features(sf_dir)
    w = ((np.arange(_HASHED_FEATURES_DIM, dtype=np.int64) * _CLS_WEIGHT_MULT)
         % 1000) - 500

    def score(batch: pa.Table) -> pa.Table:
        b = batch.column("bucket").to_numpy(zero_copy_only=False)
        n = batch.column("n").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "part": pa.array(n * w[b], pa.int64()),
            }
        )

    return keyed_aggregate(
        feats.map_batches(score, batch_format="pyarrow", zero_copy_batch=True),
        "doc_id",
        {"logit": ("part", "sum")},
    )


CLASSIFIER_LOGITS_SQL = f"""
WITH feats AS ({HASHED_FEATURES_SQL})
SELECT doc_id,
       CAST(sum(n * ((bucket * {_CLS_WEIGHT_MULT}) % 1000 - 500)) AS BIGINT)
         AS logit
FROM feats GROUP BY 1
"""


# -- cross-source vocabulary containment --------------------------------------


def source_vocab_containment(sf_dir: str) -> pa.Table:
    """Vocabulary containment between every ordered source pair:
    |V_a ∩ V_b| / |V_a| in integer permille — the corpus-curation
    signal for "source b already covers source a's vocabulary" (mix
    planning, dedup-across-dumps triage).

    Scale shape: the source catalog is bounded (broadcast as a code
    table); each batch emits batch-distinct (token-hash, source-code)
    rows; ONE token-keyed shuffle co-locates each token's sources and
    the kernel collapses every token run to a SOURCE BITMASK with one
    bitwise_or.reduceat sweep — per-pair counting then iterates over
    DISTINCT masks only (≤ observed co-occurrence patterns, not
    tokens), accumulating a K×K matrix whose diagonal is |V_s|.  Only
    P bounded matrices reach the driver; token volume never does."""
    import re as _re

    from ._util import (
        TOKEN_PATTERN,
        blake2_u63,
        keyed_aggregate,
        partitioned_by_key,
        run_bounds,
    )

    docs = read_documents(sf_dir, columns=["text", "source"])

    sources = sorted(
        r["source"] for r in keyed_aggregate(docs, "source", {}).take_all()
    )  # bounded: the source catalog
    scode = {s: i for i, s in enumerate(sources)}
    K = len(sources)
    if K == 0:
        return pa.table(
            {
                "src_a": pa.array([], pa.string()),
                "src_b": pa.array([], pa.string()),
                "n_common": pa.array([], pa.int64()),
                "n_a": pa.array([], pa.int64()),
                "containment_permille": pa.array([], pa.int64()),
            }
        )
    if K > 63:
        raise ValueError(
            f"source_vocab_containment packs sources into an int64 bitmask; "
            f"{K} sources exceed 63 — shard the catalog or widen the mask"
        )
    scode_ref = ray.put(scode)
    tok_re = _re.compile(TOKEN_PATTERN)

    def vocab_rows(batch: pa.Table) -> pa.Table:
        codes = ray.get(scode_ref)
        texts = batch.column("text").to_pylist()
        srcs = batch.column("source").to_pylist()
        toks: list[str] = []
        out_src: list[int] = []
        for t, s in zip(texts, srcs):
            c = codes[s]
            for tok in set(tok_re.findall(t.lower())):
                toks.append(tok)
                out_src.append(c)
        th = blake2_u63(toks)
        # batch-level distinct: the mask OR downstream is idempotent,
        # but dropping repeats here shrinks the shuffle
        pair = np.stack([th, np.asarray(out_src, dtype=np.int64)])
        _, keep = np.unique(pair, axis=1, return_index=True)
        return pa.table(
            {
                "th": pa.array(th[keep], pa.int64()),
                "sc": pa.array(np.asarray(out_src, np.int64)[keep], pa.int64()),
            }
        )

    def mask_kernel(part: pa.Table) -> pa.Table:
        th = part.column("th").to_numpy(zero_copy_only=False)
        sc = part.column("sc").to_numpy(zero_copy_only=False)
        order = np.lexsort((sc, th))
        th, sc = th[order], sc[order]
        b = run_bounds(th)
        masks = np.bitwise_or.reduceat(
            np.left_shift(np.int64(1), sc), b[:-1]
        )
        uniq, counts = np.unique(masks, return_counts=True)
        mat = np.zeros((K, K), dtype=np.int64)
        for mask, cnt in zip(uniq, counts):
            idx = np.flatnonzero((mask >> np.arange(K)) & 1)
            mat[np.ix_(idx, idx)] += cnt
        a, bb = np.nonzero(mat)
        return pa.table(
            {
                "a": pa.array(a.astype(np.int64), pa.int64()),
                "b": pa.array(bb.astype(np.int64), pa.int64()),
                "n": pa.array(mat[a, bb], pa.int64()),
            }
        )

    rows = keyed_aggregate(
        partitioned_by_key(
            docs.map_batches(
                vocab_rows, batch_format="pyarrow", zero_copy_batch=True
            ),
            "th",
            mask_kernel,
        ),
        ["a", "b"],
        {"n": ("n", "sum")},
    ).to_pandas()  # bounded: K x K

    mat = np.zeros((K, K), dtype=np.int64)
    for _, r in rows.iterrows():
        mat[int(r["a"]), int(r["b"])] = int(r["n"])
    out_a, out_b, out_c, out_na, out_p = [], [], [], [], []
    for i in range(K):
        for j in range(K):
            if i == j or mat[i, j] == 0:
                continue
            out_a.append(sources[i])
            out_b.append(sources[j])
            out_c.append(int(mat[i, j]))
            out_na.append(int(mat[i, i]))
            out_p.append(int(mat[i, j]) * 1000 // max(int(mat[i, i]), 1))
    return pa.table(
        {
            "src_a": pa.array(out_a, pa.string()),
            "src_b": pa.array(out_b, pa.string()),
            "n_common": pa.array(out_c, pa.int64()),
            "n_a": pa.array(out_na, pa.int64()),
            "containment_permille": pa.array(out_p, pa.int64()),
        }
    )


SOURCE_VOCAB_CONTAINMENT_SQL = r"""
WITH v AS (
  SELECT DISTINCT source,
         unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS tok
  FROM documents
),
sz AS (SELECT source, count(*) AS n FROM v GROUP BY 1),
inter AS (
  SELECT a.source AS src_a, b.source AS src_b, count(*) AS n_common
  FROM v a JOIN v b ON a.tok = b.tok AND a.source != b.source
  GROUP BY 1, 2
)
SELECT src_a, src_b, CAST(n_common AS BIGINT) AS n_common,
       CAST(sz.n AS BIGINT) AS n_a,
       CAST(n_common * 1000 // greatest(sz.n, 1) AS BIGINT)
         AS containment_permille
FROM inter JOIN sz ON src_a = sz.source
ORDER BY 1, 2
"""


# -- BM25 retrieval (integer-exact) --------------------------------------------


BM25_QUERY_TERMS = ["scan", "join", "window", "spark"]


def bm25_topk(sf_dir: str, k: int = 10) -> pa.Table:
    """BM25 document retrieval for a fixed query — THE lexical-search
    baseline (k1 = 1.2, b = 0.75), computed in exact integer
    arithmetic so the oracle is hash-stable: with avg_int = A // N and
    dl_ratio = 1000·dl // avg_int, each (doc, term) contributes
    idf_int · part where idf_int = 1000·N // df and
    part = 22000·tf·1000 // (10000·tf + 3000 + 9·dl_ratio)
    — the same floor-composition on both sides, monotone in the float
    BM25 for fixed collection stats, and every intermediate stays far
    below 2^63 at any corpus size (ratios are pre-bounded, never
    A·N products).

    Scale shape: ONE corpus scan emits per-(doc, query-term) hit rows
    plus one batch-summary row (Σdl, #docs) — collection stats and the
    ≤|Q| document frequencies reduce to driver scalars; scoring is a
    vectorized map over hit rows with the broadcast stats; the final
    top-k is per-block select_k + a blocks×k driver merge.  No
    vocabulary table, no shuffle wider than the hit stream."""
    import collections

    terms = list(BM25_QUERY_TERMS)
    tcode = {t: i for i, t in enumerate(terms)}

    def scan(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        d_doc: list[int] = []
        d_term: list[int] = []
        d_tf: list[int] = []
        d_dl: list[int] = []
        dl_sum = 0
        n_docs = 0
        for did, t in zip(ids, batch.column("text").to_pylist()):
            toks = _TOKEN_RE.findall(t.lower())
            if not toks:
                continue
            n_docs += 1
            dl_sum += len(toks)
            cnt = collections.Counter(toks)
            for term, code in tcode.items():
                if cnt[term]:
                    d_doc.append(did)
                    d_term.append(code)
                    d_tf.append(cnt[term])
                    d_dl.append(len(toks))
        # sentinel summary row per batch: term = -1, tf = #docs, dl = Σdl
        d_doc.append(-1)
        d_term.append(-1)
        d_tf.append(n_docs)
        d_dl.append(dl_sum)
        return pa.table(
            {
                "doc_id": pa.array(d_doc, pa.int64()),
                "term": pa.array(d_term, pa.int64()),
                "tf": pa.array(d_tf, pa.int64()),
                "dl": pa.array(d_dl, pa.int64()),
            }
        )

    from ._util import cut_lineage, ensure_columns, keyed_aggregate

    rows = cut_lineage(
        read_documents(sf_dir).map_batches(
            scan, batch_format="pyarrow", zero_copy_batch=True
        )
    )  # reused three ways below; cut so the scan runs once per consumer chain

    summaries = rows.filter(expr="term == -1")
    stats = summaries.aggregate(
        ray.data.aggregate.Sum("tf", alias_name="n"),
        ray.data.aggregate.Sum("dl", alias_name="a"),
    )
    n_total, a_total = int(stats["n"] or 0), int(stats["a"] or 0)
    if n_total == 0:
        return pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "score": pa.array([], pa.int64()),
            }
        )
    avg_int = max(a_total // n_total, 1)

    hits = rows.filter(expr="term >= 0")
    df_rows = keyed_aggregate(hits, "term", {"df": ("term", "count")}).take_all()
    idf = {int(r["term"]): 1000 * n_total // int(r["df"]) for r in df_rows}  # <= |Q|

    def score(batch: pa.Table) -> pa.Table:
        term = batch.column("term").to_numpy(zero_copy_only=False)
        tf = batch.column("tf").to_numpy(zero_copy_only=False)
        dl = batch.column("dl").to_numpy(zero_copy_only=False)
        dl_ratio = 1000 * dl // avg_int
        part = 22000 * tf * 1000 // (10000 * tf + 3000 + 9 * dl_ratio)
        idf_v = np.array([idf[int(c)] for c in term], dtype=np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "s": pa.array(idf_v * part, pa.int64()),
            }
        )

    per_doc = keyed_aggregate(
        hits.map_batches(score, batch_format="pyarrow", zero_copy_batch=True),
        "doc_id",
        {"score": ("s", "sum")},
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            batch,
            k=min(k, batch.num_rows),
            sort_keys=[("score", "descending"), ("doc_id", "ascending")],
        )
        return batch.take(idx)

    agg = ensure_columns(
        per_doc.map_batches(
            local_topk, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas(),  # bounded: blocks x k
        ["doc_id", "score"],
    ).sort_values(["score", "doc_id"], ascending=[False, True]).head(k)
    return pa.table(
        {
            "doc_id": pa.array(agg["doc_id"].astype("int64"), pa.int64()),
            "score": pa.array(agg["score"].astype("int64"), pa.int64()),
        }
    )


BM25_TOPK_SQL = r"""
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
)
SELECT doc_id, CAST(sum(s) AS BIGINT) AS score
FROM scored GROUP BY 1
ORDER BY score DESC, doc_id LIMIT 10
"""


# -- winnowing fingerprints (Schleimer et al. 2003, the MOSS selector) ---------


def winnowing_fingerprints(sf_dir: str, w: int = 4) -> "ray.data.Dataset":
    """Winnowing fingerprint selection (Schleimer, Wilkerson & Aiken
    2003 — the MOSS algorithm): slide a window of `w` over each
    document's k-gram hash sequence and keep the MINIMUM hash of every
    window (rightmost on ties), deduplicated by selected position.
    Guarantees a match of length w+k-1 between two documents shares a
    fingerprint — the density-bounded alternative to keeping every
    k-gram.  Documents too short for one complete window emit nothing
    (spec choice, mirrored by the oracle).

    Scale shape: embarrassingly parallel — one narrow map over
    documents, no shuffle; the fingerprint stream is ~1/w of the
    k-gram stream and flows straight to the consumer.  K-gram hashes
    reuse rolling_fingerprint's DuckDB-matchable md5 window polynomial
    mod 2^61-1, so the oracle recomputes every window hash AND the
    winnowing selection exactly."""
    from .dedup import _md5_u64

    K = 4  # k-gram width (tokens); window w slides over the hash sequence

    def batch_fn(batch: pa.Table) -> pa.Table:
        base, mod = 1_000_003, (1 << 61) - 1
        out_doc: list[int] = []
        out_pos: list[int] = []
        out_fp: list[int] = []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = _TOKEN_RE.findall(t.lower())
            if len(toks) < K:
                continue
            vals = [_md5_u64(x) & 0xFFFFFFFF for x in toks]
            hs: list[int] = []
            h = 0
            power = pow(base, K - 1, mod)
            for v in vals[:K]:
                h = (h * base + v) % mod
            hs.append(h)
            for i in range(K, len(vals)):
                h = ((h - vals[i - K] * power) * base + vals[i]) % mod
                hs.append(h)
            if len(hs) < w:
                continue
            sel: set[tuple[int, int]] = set()
            for j in range(w - 1, len(hs)):
                window = hs[j - w + 1 : j + 1]
                mn = min(window)
                pos = (
                    j - w + 1
                    + max(i for i, v in enumerate(window) if v == mn)
                )
                sel.add((pos + 1, mn))  # 1-based to match the SQL mirror
            for pos, fp in sorted(sel):
                out_doc.append(did)
                out_pos.append(pos)
                out_fp.append(fp)
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "pos": pa.array(out_pos, pa.int64()),
                "fp": pa.array(out_fp, pa.int64()),
            }
        )

    return read_documents(sf_dir).map_batches(
        batch_fn, batch_format="pyarrow", zero_copy_batch=True
    )


WINNOWING_FINGERPRINTS_SQL = r"""
WITH t AS (
  SELECT doc_id,
         list_transform(regexp_extract_all(lower(text), '[a-z0-9]+'),
                        x -> (md5_number_lower(x) & 4294967295)::BIGINT) AS v
  FROM documents
),
hs AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(v) - 2), i ->
           {'idx': i,
            'h': ((v[i]::HUGEINT * 1000003 * 1000003 * 1000003
                 + v[i+1]::HUGEINT * 1000003 * 1000003
                 + v[i+2]::HUGEINT * 1000003
                 + v[i+3]::HUGEINT) % 2305843009213693951)::BIGINT})) AS u
  FROM t WHERE len(v) >= 4
),
flat AS (SELECT doc_id, u.idx AS idx, u.h AS h FROM hs),
win AS (
  SELECT doc_id, idx AS we,
         min(h) OVER (PARTITION BY doc_id ORDER BY idx
                      ROWS BETWEEN 3 PRECEDING AND CURRENT ROW) AS mn
  FROM flat
),
sel AS (
  SELECT w.doc_id, max(f.idx) AS pos, w.mn AS fp
  FROM win w JOIN flat f
    ON f.doc_id = w.doc_id AND f.idx BETWEEN w.we - 3 AND w.we AND f.h = w.mn
  WHERE w.we >= 4
  GROUP BY w.doc_id, w.we, w.mn
)
SELECT DISTINCT doc_id, pos, fp FROM sel
"""


# -- T5-style span corruption (training-example construction) ------------------


def span_corruption(sf_dir: str, noise_permille: int = 150) -> "ray.data.Dataset":
    """Span-corruption training pairs (Raffel et al. 2020, T5): replace
    ~15% of each document's tokens, grouped into short spans, with
    numbered sentinels; the target is the sentinel-delimited sequence
    of removed spans.  Fully DETERMINISTIC — span starts come from the
    shared md5 rule on (doc_id, position), so the same corpus always
    yields the same pairs (resumable, shard-order-independent).
    Non-SQL-expressible (greedy span merge over positions) → registered
    rows-only; the LOSSLESS invariant — de-corrupting (input, target)
    reproduces the original token stream — is pinned by pytest.

    Scale shape: embarrassingly parallel narrow map, no shuffle; output
    rows stream.  Span starts fire at ~noise/1000 ÷ mean-span-len of
    positions, so masked fraction tracks noise_permille."""
    import hashlib

    SPAN_MEAN = 3  # spans of 2-4 tokens
    fire_per_mille = noise_permille // SPAN_MEAN  # start-probability rule

    def _pos_hashes(did: int, n: int) -> np.ndarray:
        # (doc, position) hash — unique keys, so no memo (unlike tokens)
        out = np.empty(n, dtype=np.uint64)
        for i in range(n):
            out[i] = int.from_bytes(
                hashlib.md5(f"{did}:{i}".encode("ascii")).digest()[8:],
                "little",
            )
        return out

    def batch_fn(batch: pa.Table) -> pa.Table:
        out_doc: list[int] = []
        out_in: list[str] = []
        out_tgt: list[str] = []
        out_spans: list[int] = []
        out_masked: list[int] = []
        for did, t in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            toks = _TOKEN_RE.findall(t.lower())
            n = len(toks)
            if n == 0:
                continue
            hv = _pos_hashes(did, n)
            fire = (hv % np.uint64(1000)) < fire_per_mille
            length = 2 + (hv >> np.uint64(10)) % np.uint64(3)  # 2..4
            masked = np.zeros(n, dtype=bool)
            for i in np.flatnonzero(fire):
                masked[i : i + int(length[i])] = True
            inp: list[str] = []
            tgt: list[str] = []
            sid = 0
            i = 0
            n_spans = 0
            while i < n:
                if masked[i]:
                    sent = f"<extra_id_{sid}>"
                    inp.append(sent)
                    tgt.append(sent)
                    while i < n and masked[i]:
                        tgt.append(toks[i])
                        i += 1
                    sid += 1
                    n_spans += 1
                else:
                    inp.append(toks[i])
                    i += 1
            out_doc.append(did)
            out_in.append(" ".join(inp))
            out_tgt.append(" ".join(tgt))
            out_spans.append(n_spans)
            out_masked.append(int(masked.sum()))
        return pa.table(
            {
                "doc_id": pa.array(out_doc, pa.int64()),
                "input_text": pa.array(out_in, pa.string()),
                "target_text": pa.array(out_tgt, pa.string()),
                "n_spans": pa.array(out_spans, pa.int64()),
                "n_masked": pa.array(out_masked, pa.int64()),
            }
        )

    return read_documents(sf_dir).map_batches(
        batch_fn, batch_format="pyarrow", zero_copy_batch=True
    )


# -- vocabulary coverage curve (tokenizer sizing) -------------------------------


VOCAB_COVERAGE_TARGETS = [500, 900, 950, 990]  # permille of occurrences


def vocab_coverage_curve(sf_dir: str) -> pa.Table:
    """Vocabulary coverage curve — the tokenizer-sizing question: how
    many distinct tokens (taken by descending frequency) cover 50 / 90
    / 95 / 99% of all token occurrences?  Exact integer semantics:
    need = ceil(total·t/1000); whole frequency classes are taken while
    they fit and the marginal class contributes ceil(remaining/f)
    interchangeable tokens.

    Scale shape: the per-token totals reduce in ONE token-keyed shuffle
    (doc_frequency's discipline — no vocabulary ever materializes in
    one place); token identity is then DROPPED and only the
    frequency-of-frequencies table survives — its size is bounded by
    the number of distinct frequency VALUES (O(√total-occurrences)),
    so the descending walk is driver-bounded no matter the corpus."""
    import re as _re

    from ._util import (
        TOKEN_PATTERN,
        blake2_u63,
        ensure_columns,
        keyed_aggregate,
        partitioned_by_key,
        run_bounds,
    )

    tok_re = _re.compile(TOKEN_PATTERN)

    def counts(batch: pa.Table) -> pa.Table:
        import collections

        c: collections.Counter = collections.Counter()
        for t in batch.column("text").to_pylist():
            c.update(tok_re.findall(t.lower()))
        toks = list(c.keys())
        return pa.table(
            {
                "th": pa.array(blake2_u63(toks), pa.int64()),
                "c": pa.array([c[t] for t in toks], pa.int64()),
            }
        )

    def freq_kernel(part: pa.Table) -> pa.Table:
        """Total per token (reduceat over the co-located partials), then
        collapse immediately to this partition's (freq, n_tokens) rows —
        token identity dies here."""
        th = part.column("th").to_numpy(zero_copy_only=False)
        c = part.column("c").to_numpy(zero_copy_only=False)
        order = np.argsort(th, kind="stable")
        th, c = th[order], c[order]
        b = run_bounds(th)
        totals = np.add.reduceat(c, b[:-1])
        f, n = np.unique(totals, return_counts=True)
        return pa.table(
            {
                "f": pa.array(f, pa.int64()),
                "n": pa.array(n.astype(np.int64), pa.int64()),
            }
        )

    ff = ensure_columns(
        keyed_aggregate(
            partitioned_by_key(
                read_documents(sf_dir).map_batches(
                    counts, batch_format="pyarrow", zero_copy_batch=True
                ),
                "th",
                freq_kernel,
            ),
            "f",
            {"n": ("n", "sum")},
        ).to_pandas(),  # bounded: distinct frequency values, O(sqrt(occurrences))
        ["f", "n"],
    ).sort_values("f", ascending=False)

    f = ff["f"].to_numpy(dtype=np.int64)
    n = ff["n"].to_numpy(dtype=np.int64)
    occ = f * n
    total = int(occ.sum())
    cum_occ = np.cumsum(occ)
    cum_tok = np.cumsum(n)
    out_p: list[int] = []
    out_tok: list[int] = []
    out_need: list[int] = []
    for p in VOCAB_COVERAGE_TARGETS:
        need = (total * p + 999) // 1000
        if total == 0:
            out_p.append(p)
            out_tok.append(0)
            out_need.append(0)
            continue
        i = int(np.searchsorted(cum_occ, need))
        prev_occ = int(cum_occ[i - 1]) if i else 0
        prev_tok = int(cum_tok[i - 1]) if i else 0
        k = (need - prev_occ + int(f[i]) - 1) // int(f[i])
        out_p.append(p)
        out_tok.append(prev_tok + k)
        out_need.append(need)
    return pa.table(
        {
            "permille": pa.array(out_p, pa.int64()),
            "tokens_needed": pa.array(out_tok, pa.int64()),
            "occ_needed": pa.array(out_need, pa.int64()),
            "total_occ": pa.array([total] * len(out_p), pa.int64()),
        }
    )


VOCAB_COVERAGE_CURVE_SQL = r"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS t
  FROM documents
),
tf AS (SELECT t, count(*) AS f FROM tok GROUP BY 1),
ff AS (SELECT f, count(*) AS n FROM tf GROUP BY 1),
w AS (
  SELECT f, n,
         sum(f * n) OVER (ORDER BY f DESC) AS cum_occ,
         sum(n) OVER (ORDER BY f DESC) AS cum_tok,
         sum(f * n) OVER () AS total
  FROM ff
),
targets(p) AS (VALUES (500), (900), (950), (990)),
marg AS (
  SELECT p, f, n, cum_occ, cum_tok, total,
         (total * p + 999) // 1000 AS need,
         row_number() OVER (
           PARTITION BY p ORDER BY cum_occ ASC
         ) AS rn
  FROM w CROSS JOIN targets
  WHERE cum_occ >= (total * p + 999) // 1000
)
SELECT CAST(p AS BIGINT) AS permille,
       CAST(cum_tok - n + (need - (cum_occ - f * n) + f - 1) // f AS BIGINT)
         AS tokens_needed,
       CAST(need AS BIGINT) AS occ_needed,
       CAST(total AS BIGINT) AS total_occ
FROM marg WHERE rn = 1 ORDER BY 1
"""


# -- shard manifest (token-budget shard assignment) ------------------------------

_SHARD_BUDGET = 4096
_SHARD_BUCKET = 1 << 16  # doc ids per prefix-sum bucket


def shard_manifest(
    sf_dir: str, budget: int = _SHARD_BUDGET, bucket_size: int = _SHARD_BUCKET
) -> pa.Table:
    """Training-shard manifest: documents in doc_id order are packed
    greedily into shards by whitespace-token budget — a doc belongs to
    the shard its RUNNING-TOKEN START offset falls in
    (``start // budget``), the deterministic assignment a resumable
    shard writer needs (adding docs never reshuffles earlier shards).
    Output per shard: doc count, token count, doc-id range.

    Scale shape — a distributed prefix SUM (the additive sibling of
    watermark_hourly's prefix max): (1) one pass rolls token counts up
    per contiguous doc_id bucket; (2) the driver exclusive-prefix-sums
    the bounded bucket totals and broadcasts the offsets; (3) one
    partitioned_by_key(bucket) pass recovers every doc's exact global
    start offset with a local cumsum + bucket offset, and a keyed
    aggregate on shard_id finishes.  One row per output shard — the
    manifest itself is the product."""
    from ._util import (
        cut_lineage,
        ensure_columns,
        keyed_aggregate,
        partitioned_by_key,
        run_bounds,
    )

    ds = read_documents(sf_dir, columns=["doc_id", "text"])

    def tok_counts(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        toks = pc.cast(
            pc.count_substring_regex(batch.column("text"), r"\S+"), pa.int64()
        )
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                "tok": toks,
                "bucket": pa.array(ids // bucket_size, pa.int64()),
            }
        )

    counted = ds.map_batches(
        tok_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    counted = cut_lineage(counted)  # consumed twice: bucket sums + assignment

    bsum = ensure_columns(
        keyed_aggregate(counted, "bucket", {"tok": ("tok", "sum")}).to_pandas(),
        ["bucket", "tok"],
    ).sort_values("bucket")
    if len(bsum) == 0:
        return pa.table(
            {
                "shard_id": pa.array([], pa.int64()),
                "n_docs": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "first_doc": pa.array([], pa.int64()),
                "last_doc": pa.array([], pa.int64()),
            }
        )
    buckets = bsum["bucket"].to_numpy()
    sums = bsum["tok"].to_numpy()
    prefix = np.r_[0, np.cumsum(sums)[:-1]]
    offsets = dict(zip(buckets.tolist(), prefix.tolist()))
    offsets_ref = ray.put(offsets)

    def kernel(part: pa.Table) -> pa.Table:
        offs = ray.get(offsets_ref)
        ids = part.column("doc_id").to_numpy(zero_copy_only=False)
        tok = part.column("tok").to_numpy(zero_copy_only=False)
        bk = part.column("bucket").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, bk))
        ids, tok, bk = ids[order], tok[order], bk[order]
        start = np.empty(len(ids), dtype=np.int64)
        rb = run_bounds(bk)
        for s, e in zip(rb[:-1], rb[1:]):
            local = tok[s:e]
            start[s:e] = (
                np.r_[0, np.cumsum(local)[:-1]] + offs[int(bk[s])]
            )
        return pa.table(
            {
                "shard_id": pa.array(start // budget, pa.int64()),
                "tok": pa.array(tok, pa.int64()),
                "doc_id": pa.array(ids, pa.int64()),
            }
        )

    rolled = ensure_columns(
        keyed_aggregate(
            partitioned_by_key(counted, "bucket", kernel),
            "shard_id",
            {
                "n_docs": ("doc_id", "count"),
                "n_tokens": ("tok", "sum"),
                "first_doc": ("doc_id", "min"),
                "last_doc": ("doc_id", "max"),
            },
        ).to_pandas(),  # one row per output shard
        ["shard_id", "n_docs", "n_tokens", "first_doc", "last_doc"],
    ).sort_values("shard_id")
    return pa.table(
        {
            "shard_id": pa.array(rolled["shard_id"].astype("int64"), pa.int64()),
            "n_docs": pa.array(rolled["n_docs"].astype("int64"), pa.int64()),
            "n_tokens": pa.array(
                rolled["n_tokens"].astype("int64"), pa.int64()
            ),
            "first_doc": pa.array(
                rolled["first_doc"].astype("int64"), pa.int64()
            ),
            "last_doc": pa.array(
                rolled["last_doc"].astype("int64"), pa.int64()
            ),
        }
    )


SHARD_MANIFEST_SQL = r"""
WITH t AS (
  SELECT doc_id, len(regexp_extract_all(text, '\S+')) AS tok
  FROM documents
),
s AS (
  SELECT doc_id, tok,
         COALESCE(sum(tok) OVER (
           ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ), 0) AS start
  FROM t
)
SELECT CAST(start // 4096 AS BIGINT) AS shard_id,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(tok) AS BIGINT) AS n_tokens,
       CAST(min(doc_id) AS BIGINT) AS first_doc,
       CAST(max(doc_id) AS BIGINT) AS last_doc
FROM s GROUP BY 1 ORDER BY 1
"""


# -- t-closeness (third of the privacy triad) ---------------------------------

T_CLOSENESS_PERMILLE = 300  # violating groups: EMD to global > 0.3


def t_closeness(sf_dir: str, t_permille: int = T_CLOSENESS_PERMILLE) -> pa.Table:
    """Privacy-governance audit, the step after k_anonymity and
    l_diversity: a group can be large AND diverse yet still leak if its
    sensitive-value DISTRIBUTION differs sharply from the table's (the
    classic salary-skew example).  Sensitive attribute = lang,
    quasi-identifier = (source, len_bucket) — the same scheme as the
    other two audits.  For categorical values under uniform ground
    distance, Earth Mover's Distance = L1/2, so the violation test is
    fully integer: EMD(g) > t/1000  ⇔
    1000 · Σ_v |c_gv·n − c_v·n_g|  >  2t · n · n_g
    (both sides are the EMD cross-multiplied by 2·n·n_g).

    Scale shape: ONE keyed aggregate counts (source, len_bucket, lang)
    cells.  The audit arithmetic runs on
    the merged CELL table — bounded by #groups × #langs, never by rows
    — with an explicit int64 guard (c_gv·n is the largest term; at
    n > ~3e9 switch the bounded driver fold to Python ints, cf.
    sum128_total).  Output: violating groups only."""
    from ._util import ensure_columns, keyed_aggregate

    cells = keyed_aggregate(
        read_documents(sf_dir, columns=["source", "n_chars", "lang"]).map_batches(
            _with_len_bucket, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["source", "len_bucket", "lang"],
        {"c": ("lang", "count")},
    ).to_pandas()  # bounded: #quasi-id groups × #langs cells
    cells = ensure_columns(cells, ["source", "len_bucket", "lang", "c"])

    empty = pa.table(
        {
            "source": pa.array([], pa.string()),
            "len_bucket": pa.array([], pa.int64()),
            "n_docs": pa.array([], pa.int64()),
            "emd_permille": pa.array([], pa.int64()),
        }
    )
    if cells.empty:
        return empty

    src = cells["source"].to_numpy()
    lb = cells["len_bucket"].to_numpy().astype(np.int64)
    lang = cells["lang"].to_numpy()
    c = cells["c"].to_numpy().astype(np.int64)
    gkey, ginv = np.unique(
        np.char.add(np.char.add(src.astype(str), "\x00"), lb.astype(str)),
        return_inverse=True,
    )
    lkey, linv = np.unique(lang.astype(str), return_inverse=True)
    mat = np.zeros((len(gkey), len(lkey)), np.int64)
    mat[ginv, linv] = c
    n = int(c.sum())
    # largest intermediate is 1000·dscaled ≤ 2000·n·n_g ≤ 2000·n²;
    # n up to ~6e7 keeps it inside int64 (beyond that switch the
    # bounded driver fold to Python ints, cf. sum128_total)
    if n > 60_000_000:
        raise OverflowError(
            "t_closeness: corpus size would overflow the int64 fold — "
            "switch the bounded driver arithmetic to Python ints"
        )
    ng = mat.sum(axis=1)
    cv = mat.sum(axis=0)
    dscaled = np.abs(mat * n - cv[None, :] * ng[:, None]).sum(axis=1)
    keep = 1000 * dscaled > 2 * t_permille * n * ng
    if not keep.any():
        return empty
    # decode group keys back to (source, len_bucket)
    first_row = np.zeros(len(gkey), np.int64)
    first_row[ginv] = np.arange(len(ginv))  # any representative row per group
    sel = np.flatnonzero(keep)
    out_src = src[first_row[sel]]
    out_lb = lb[first_row[sel]]
    emd_pm = (1000 * dscaled[sel]) // (2 * n * ng[sel])
    order = np.lexsort((out_lb, out_src))
    return pa.table(
        {
            "source": pa.array(out_src[order].astype(str), pa.string()),
            "len_bucket": pa.array(out_lb[order], pa.int64()),
            "n_docs": pa.array(ng[sel][order], pa.int64()),
            "emd_permille": pa.array(emd_pm[order].astype(np.int64), pa.int64()),
        }
    )


T_CLOSENESS_SQL = f"""
WITH cells AS (
  SELECT source, n_chars // 100 AS len_bucket, lang,
         CAST(count(*) AS BIGINT) AS c
  FROM documents GROUP BY 1, 2, 3
),
tot AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM cells),
gdist AS (SELECT lang, CAST(sum(c) AS BIGINT) AS cv FROM cells GROUP BY 1),
grp AS (
  SELECT source, len_bucket, CAST(sum(c) AS BIGINT) AS ng
  FROM cells GROUP BY 1, 2
),
pairs AS (
  SELECT g.source, g.len_bucket, g.ng, gl.lang, gl.cv,
         COALESCE(c.c, 0) AS cgv, t.n
  FROM grp g CROSS JOIN gdist gl CROSS JOIN tot t
  LEFT JOIN cells c ON c.source = g.source
    AND c.len_bucket = g.len_bucket AND c.lang = gl.lang
),
d AS (
  SELECT source, len_bucket, ng, n,
         sum(abs(CAST(cgv AS HUGEINT) * n - CAST(cv AS HUGEINT) * ng))
           AS dscaled
  FROM pairs GROUP BY 1, 2, 3, 4
)
SELECT source,
       CAST(len_bucket AS BIGINT) AS len_bucket,
       CAST(ng AS BIGINT) AS n_docs,
       CAST((1000 * dscaled) // (2 * CAST(n AS HUGEINT) * ng) AS BIGINT)
         AS emd_permille
FROM d
WHERE 1000 * dscaled > 2 * {T_CLOSENESS_PERMILLE} * CAST(n AS HUGEINT) * ng
ORDER BY 1, 2
"""

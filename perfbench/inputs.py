"""Seeded input generation for the benchmark workloads.

Every input is a pure function of the seed and ``GENERATOR_VERSION``:

- sf0.1-shaped tables (documents, customer, orders, events) with the
  schemas and value ranges of the engine's sf test tables;
- ``small_pages``: whole-document span rows built by the engine's own
  ``sources.fixtures`` article generator over the documents table;
- ``long_pages``: the same generator with the body repeated over a fixed
  size ladder, each document split into fragment rows that are written in
  seeded shuffled order.

The engine receives only the parquet files written here.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GENERATOR_VERSION = "perfbench-gen-2"

# Vocabulary and ranges of the engine's sf0.1 documents test table.
VOCAB = (
    "a agg batch big column customer data dup fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()
LANGS = ("en", "en", "en", "de", "es", "fr", "zh")
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
EVENT_TYPES = ("click", "error", "purchase", "signup", "view")

# long_pages size ladder: target HTML bytes per rung, and how many
# documents of each rung one pass holds.  A page's kernel cost depends on
# its paragraph structure, which follows from the source text's word
# count, so long pages repeat bodies of one fixed length.
LONG_BODY_WORDS = 60
LONG_RUNGS = (("b8k", 8 << 10, 24), ("b64k", 64 << 10, 8), ("b1m", 1 << 20, 5))
LONG_FRAGMENTS = 4


def _rng(seed: int, stream: str) -> np.random.Generator:
    """Independent, reproducible random stream per (seed, purpose)."""
    digest = hashlib.sha256(f"{GENERATOR_VERSION}:{seed}:{stream}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def documents_table(seed: int, n: int, words: tuple[int, int] = (10, 100)) -> pa.Table:
    """``n`` documents of ``words[0]``..``words[1]`` random vocabulary
    words each."""
    rng = _rng(seed, "documents")
    n_words = rng.integers(words[0], words[1] + 1, size=n)
    words = rng.integers(0, len(VOCAB), size=int(n_words.sum()))
    texts, pos = [], 0
    for k in n_words:
        texts.append(" ".join(VOCAB[w] for w in words[pos : pos + k]))
        pos += k
    langs = rng.integers(0, len(LANGS), size=n)
    return pa.table(
        {
            "doc_id": pa.array(np.arange(n), pa.int64()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array([LANGS[i] for i in langs], pa.string()),
            "source": pa.array([f"src{i % 20}" for i in range(n)], pa.string()),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )


def query_tables(seed: int, scale: float) -> dict[str, pa.Table]:
    """customer / orders / events at ``scale`` × sf0.1 rows."""
    n_cust = int(15000 * scale)
    n_orders = int(150000 * scale)
    n_events = int(100000 * scale)
    n_users = int(1500 * scale) or 1
    rng = _rng(seed, "query_tables")
    cust = pa.table(
        {
            "c_custkey": pa.array(np.arange(n_cust), pa.int64()),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_cust)]),
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust), pa.int32()),
            "c_acctbal": pa.array(
                rng.integers(-99999, 1000000, n_cust) / 100.0, pa.float64()
            ),
            "c_mktsegment": pa.array(
                [SEGMENTS[i] for i in rng.integers(0, len(SEGMENTS), n_cust)]
            ),
        }
    )
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n_orders), pa.int64()),
            "o_custkey": pa.array(rng.integers(0, n_cust, n_orders), pa.int64()),
            "o_totalprice": pa.array(
                rng.integers(100000, 50000000, n_orders) / 100.0, pa.float64()
            ),
        }
    )
    start = dt.datetime(2024, 1, 1)
    span_us = 30 * 24 * 3600 * 10**6
    ts_us = np.sort(rng.integers(0, span_us, n_events))
    events = pa.table(
        {
            "event_id": pa.array(np.arange(n_events), pa.int64()),
            "ts": pa.array(
                [start + dt.timedelta(microseconds=int(u)) for u in ts_us],
                pa.timestamp("us"),
            ),
            "user_id": pa.array(rng.integers(0, n_users, n_events), pa.int64()),
            "event_type": pa.array(
                [EVENT_TYPES[i] for i in rng.integers(0, len(EVENT_TYPES), n_events)]
            ),
            "value": pa.array(rng.integers(0, 50000, n_events) / 100.0, pa.float64()),
            "props": pa.array(
                ['{"k": %d}' % k for k in rng.integers(0, 100, n_events)]
            ),
        }
    )
    return {
        "customer": cust,
        "orders": orders,
        "events": events,
    }


def small_pages_rows(docs: pa.Table) -> list[tuple[str, list[dict]]]:
    """Whole-document span rows: 1-3 text chunks, media on every 5th doc,
    ld+json on every 7th (the fixtures generator's rules)."""
    from go_boilerpipe_ray.sources.fixtures import synthetic_spans_for_document

    ids = docs.column("doc_id").to_pylist()
    texts = docs.column("text").to_pylist()
    return [
        (f"syn-{i:06d}", synthetic_spans_for_document(i, t)) for i, t in zip(ids, texts)
    ]


def long_pages_docs(docs: pa.Table) -> list[tuple[int, str, str]]:
    """(doc_id, bucket, html) over the size ladder: each rung's documents
    repeat their body until the page reaches the rung's size.  Equal sizes
    within a rung keep the 1 MB pages' work evenly split over the workers
    whatever order their tasks run in (with sizes spread ±25% the pass
    time's spread within one run doubled).  The ladder and the document ids
    are the same for every seed, so every seed puts the same page sizes in
    the same reassembly partitions; the seed picks the text."""
    from go_boilerpipe_ray.sources.fixtures import html_for_document

    ids = docs.column("doc_id").to_pylist()
    texts = docs.column("text").to_pylist()
    out, j = [], 0
    for bucket, size, count in LONG_RUNGS:
        for _ in range(count):
            doc_id, text = ids[j], texts[j]
            j += 1
            one = len(html_for_document(doc_id, text, 1).encode())
            two = len(html_for_document(doc_id, text, 2).encode())
            repeat = max(1, round((size - one) / (two - one)) + 1)
            out.append((doc_id, bucket, html_for_document(doc_id, text, repeat)))
    return out


def long_pages_fragments(
    seed: int, pages: list[tuple[int, str, str]]
) -> list[tuple[str, list[dict]]]:
    """Split each page into LONG_FRAGMENTS fragment rows of two text spans
    each (plus one media span per fragment on every 5th doc), written in
    seeded shuffled order across docs."""
    from go_boilerpipe_ray.sources.fixtures import media_span, split_chunks, text_span

    rows: list[tuple[str, list[dict]]] = []
    for doc_id, _bucket, html in pages:
        chunks = split_chunks(html, LONG_FRAGMENTS * 2)
        off = 0
        for f in range(LONG_FRAGMENTS):
            spans = []
            for c in chunks[2 * f : 2 * f + 2]:
                spans.append(text_span(c, off))
                off += 1
            if doc_id % 5 == 0:
                spans.append(media_span("image", f"media://long-{doc_id}/{f}", off))
                off += 1
            rows.append((f"long-{doc_id:06d}", spans))
    order = _rng(seed, "fragments").permutation(len(rows))
    return [rows[i] for i in order]


def write_spans_parquet(rows, path: str, row_group_size: int = 256) -> None:
    from go_boilerpipe_ray.sources.fixtures import spans_table

    pq.write_table(spans_table(rows), path, row_group_size=row_group_size)


def corpus_id(paths: list[str]) -> str:
    """Hash of the generated input files plus the generator version."""
    h = hashlib.sha256(GENERATOR_VERSION.encode())
    for p in sorted(paths):
        h.update(os.path.basename(p).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return f"{GENERATOR_VERSION}:{h.hexdigest()[:16]}"

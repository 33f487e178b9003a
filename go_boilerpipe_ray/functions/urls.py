"""URL scalar functions as a Ray Data batch stage (SURVEY §2.E).

The reference's normurl package is side-metadata tooling; here it is a
narrow vectorized-per-batch stage usable on any dataset with a ``url``
column: normalization, host/root split, and date-from-URL extraction.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from ..kernel.normurl import URL, date_from_url


def _normalize_batch(batch: pa.Table) -> pa.Table:
    norm: list[str] = []
    hosts: list[str] = []
    roots: list[str] = []
    dates: list[object] = []
    for raw in batch.column("url").to_pylist():
        try:
            u = URL(raw)
            s = str(u)
            norm.append(s)
            hosts.append(u.hostname())
            roots.append(u.root())
            dates.append(date_from_url(s))
        except Exception:
            norm.append("")
            hosts.append("")
            roots.append("")
            dates.append(None)
    return batch.append_column(
        "url_norm", pa.array(norm, pa.string())
    ).append_column("url_host", pa.array(hosts, pa.string())).append_column(
        "url_root", pa.array(roots, pa.string())
    ).append_column(
        "url_date", pa.array(dates, pa.timestamp("us", tz="UTC"))
    )


def normalize_urls(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Append url_norm / url_host / url_root / url_date columns."""
    return ds.map_batches(
        _normalize_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def url_metadata(sf_dir: str) -> "ray.data.Dataset":
    """Oracle-checked E-stage query: deterministic raw URLs derived from
    doc_id (mixed schemeless/http, a dot-dot path segment, utm query
    noise on every 3rd), run through the normurl stage.  The SQL oracle
    mirrors both the construction and the expected normalization —
    implied scheme, path.Clean, query drop, whole-URL lowercasing, root
    split and date-from-URL — value-exactly."""
    from ._util import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def build(batch: pa.Table) -> pa.Table:
        urls: list[str] = []
        for d in batch.column("doc_id").to_pylist():
            y, mo, dy = 2001 + d % 20, d % 12 + 1, d % 28 + 1
            raw = (
                ("http://" if d % 2 == 0 else "")
                + f"www.news{d % 5}.com/Sec/../{y}-{mo:02d}-{dy:02d}/story-{d}"
                + ("?utm_source=feed&x=1" if d % 3 == 0 else "")
            )
            urls.append(raw)
        return pa.table(
            {"doc_id": batch.column("doc_id"), "url": pa.array(urls, pa.string())}
        )

    built = ds.map_batches(build, batch_format="pyarrow", zero_copy_batch=True)

    def drop_tz(batch: pa.Table) -> pa.Table:
        # The DuckDB oracle's make_timestamp() is naive; the stage itself
        # stays tz-aware (Go time.Time is UTC) — strip tz only for compare.
        i = batch.schema.get_field_index("url_date")
        return batch.set_column(
            i, "url_date", pc.cast(batch.column("url_date"), pa.timestamp("us"))
        )

    return (
        normalize_urls(built)
        .select_columns(["doc_id", "url_norm", "url_host", "url_root", "url_date"])
        .map_batches(drop_tz, batch_format="pyarrow", zero_copy_batch=True)
    )


URL_METADATA_SQL = """
WITH d AS (
  SELECT doc_id,
         2001 + doc_id % 20 AS y,
         doc_id % 12 + 1 AS mo,
         doc_id % 28 + 1 AS dy
  FROM documents
)
SELECT doc_id,
       'http://www.news' || (doc_id % 5) || '.com/' || y || '-' ||
           lpad(CAST(mo AS VARCHAR), 2, '0') || '-' ||
           lpad(CAST(dy AS VARCHAR), 2, '0') || '/story-' || doc_id AS url_norm,
       'www.news' || (doc_id % 5) || '.com' AS url_host,
       'news' || (doc_id % 5) || '.com' AS url_root,
       CAST(make_timestamp(y, mo, dy, 0, 0, 0) AS TIMESTAMP) AS url_date
FROM d
"""


# -- canonical-URL dedup ------------------------------------------------------

# Collision modulus: raw URLs are derived from doc_id % URL_DEDUP_MOD, so
# distinct docs share a canonical URL once normalization strips the
# scheme/query/path noise — the crawl-dedup scenario normurl exists for.
URL_DEDUP_MOD = 300


def url_dedup(sf_dir: str) -> "ray.data.Dataset":
    """Canonical-URL dedup: build deterministic raw URLs (scheme and
    tracking-query variants of the same logical page), normalize through
    the normurl stage (the reference's Parse/Normalize semantics), and
    keep the lowest doc_id per canonical url_norm.

    Scale shape: normalization is a narrow vectorized stage; the only
    shuffle is the keyed exchange on blake2(url_norm) % P over
    (url_norm, doc_id) rows, with one vectorized min-scatter kernel per
    exchange block (at most min(P, 2 × CPUs) Python calls, not one per
    distinct URL, and the exchange sorts 8-byte ints instead of URL
    strings)."""
    from ._util import read_parquet_clean

    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id"])

    def build(batch: pa.Table) -> pa.Table:
        urls: list[str] = []
        for d in batch.column("doc_id").to_pylist():
            m = d % URL_DEDUP_MOD
            raw = (
                ("https://" if d % 2 == 0 else "")
                + f"WWW.site{m % 7}.org/a/../news/item-{m}"
                + ("?utm_campaign=x" if d % 3 == 0 else "")
            )
            urls.append(raw)
        return pa.table(
            {"doc_id": batch.column("doc_id"), "url": pa.array(urls, pa.string())}
        )

    normed = normalize_urls(
        ds.map_batches(build, batch_format="pyarrow", zero_copy_batch=True)
    ).select_columns(["doc_id", "url_norm"])

    from ._util import partitioned_by_key

    def keep_min_part(part: pa.Table) -> pa.Table:
        import numpy as np

        urls = np.asarray(part.column("url_norm").to_pylist(), dtype=object)
        ids = part.column("doc_id").to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(urls, return_inverse=True)
        mins = np.full(len(uniq), np.iinfo(np.int64).max, np.int64)
        np.minimum.at(mins, inv, ids)
        return pa.table(
            {
                "doc_id": pa.array(mins, pa.int64()),
                "url_norm": pa.array(uniq, pa.string()),
            }
        )

    return partitioned_by_key(normed, "url_norm", keep_min_part)


# Scheme in the canonical form: explicit https on even doc_ids survives
# normalization, schemeless odd doc_ids get the implied http.  Parity of
# doc_id equals parity of (doc_id % URL_DEDUP_MOD) because the modulus is
# even, so the scheme is a pure function of m and the group keys are
# exactly the URL_DEDUP_MOD logical pages.
URL_DEDUP_SQL = f"""
WITH raw AS (
  SELECT doc_id,
         CASE WHEN doc_id % 2 = 0 THEN 'https://' ELSE 'http://' END ||
         'www.site' || ((doc_id % {URL_DEDUP_MOD}) % 7) ||
         '.org/news/item-' || (doc_id % {URL_DEDUP_MOD}) AS url_norm
  FROM documents
)
SELECT min(doc_id) AS doc_id, url_norm FROM raw GROUP BY url_norm
"""

"""Mimic the driver's correctness gate locally: run every queries() entry
and compare row-count + sorted-values against its oracle_sql() in DuckDB.

Usage: python tools/selfcheck.py [sf_dir] [query ...]
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import duckdb
import pandas as pd
import pyarrow as pa


def to_pandas(res) -> pd.DataFrame:
    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    df = res.to_pandas()  # ray Dataset
    if len(df) == 0 and len(df.columns) == 0:
        # Ray's to_pandas drops the schema when every block is empty;
        # rebuild the typed empty frame from the Dataset schema so a
        # legitimately-empty result still column/dtype-matches its oracle.
        schema = res.schema()
        if schema is not None:
            empty = pa.table(
                {n: pa.array([], t) for n, t in zip(schema.names, schema.types)}
            )
            return empty.to_pandas()
    return df


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    if len(df):
        df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


def dtype_diffs(a: pd.DataFrame, b: pd.DataFrame) -> list[str]:
    """Driver-style representation check: the driver hashes typed values,
    so DECIMAL-vs-int64 or tz-aware-vs-naive differ even when every cell
    is equal.  Flag any column whose pandas dtype differs."""
    out = []
    for c in a.columns:
        da, db = str(a[c].dtype), str(b[c].dtype)
        if da != db:
            out.append(f"{c}: ray={da} oracle={db}")
    return out


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])
    # One line per query as it finishes, also when redirected to a file.
    sys.stdout.reconfigure(line_buffering=True)

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False)

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from go_boilerpipe_ray.functions._util import install_empty_block_schema_filter

    install_empty_block_schema_filter()
    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events "
        "documents embeddings"
    ).split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            res = to_pandas(fn(sf_dir))
        except Exception as exc:
            print(f"FAIL  {name}: query raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        dt = time.perf_counter() - t0
        if name not in oracles:
            print(f"ok    {name}: rows={len(res)} cols={list(res.columns)} [{dt:.1f}s] (rows-only)")
            if len(res) == 0 and name != "dedup_minhash_lsh":
                print(f"WARN  {name}: zero rows")
            continue
        try:
            exp = con.execute(oracles[name]).fetchdf()
        except Exception as exc:
            print(f"FAIL  {name}: oracle raised {exc}")
            failures += 1
            continue
        a, b = canon(res), canon(exp)
        if len(a) != len(b):
            print(f"FAIL  {name}: row count {len(a)} != {len(b)} [{dt:.1f}s]")
            failures += 1
            continue
        if sorted(a.columns) != sorted(b.columns):
            print(f"FAIL  {name}: columns {list(a.columns)} != {list(b.columns)}")
            failures += 1
            continue
        b = b[a.columns]
        tdiffs = dtype_diffs(a, b)
        try:
            pd.testing.assert_frame_equal(
                a, b, check_dtype=False, check_exact=False, rtol=1e-9, atol=1e-9
            )
            if tdiffs:
                print(f"TYPE  {name}: values equal but dtypes differ "
                      f"(driver would hash-mismatch): {tdiffs} [{dt:.1f}s]")
                failures += 1
            else:
                print(f"PASS  {name}: rows={len(a)} [{dt:.1f}s]")
        except AssertionError as exc:
            print(f"FAIL  {name}: values differ [{dt:.1f}s]\n{str(exc)[:500]}")
            diff = a.compare(b) if a.shape == b.shape else None
            if diff is not None and len(diff):
                print(diff.head(5))
            failures += 1
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

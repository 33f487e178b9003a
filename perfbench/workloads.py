"""The three benchmark workloads: inputs, one timed pass, and the
correctness gate applied to every pass.

A workload object is created per run.  ``prepare`` generates and verifies
its inputs from the seed, ``warm_up`` runs the job once untimed,
``run_pass`` is the timed region (its output is fully produced and
written, or fully fetched, before it returns), and ``check`` compares that
output against independent expectations outside the timed region.

The warm-up must leave the first timed pass as fast as later ones, so
that every pass of a run is measured in the same state, and should cost
as little set-up time as that allows.  Measured on a 4-vCPU VM: a small
slice of the input is enough for small_pages; long_pages needs one whole
pass (after a 4-document warm-up the first timed pass ran 40-65% slow
and the second up to 45%); query_suite needs every query once, which
small tables give.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

import inputs

N_SMALL_DOCS = 2000
SMALL_WARMUP_DOCS = 256
LONG_SOURCE_DOCS = sum(count for _, _, count in inputs.LONG_RUNGS)
QUERY_SCALE = 0.1
QUERY_WARMUP_SCALE = 0.02
QUERY_WARMUP_DOCS = 100
# The dedup queries' oracles (recursive SQL) take tens of seconds, so their
# documents table is one fixed corpus whose oracle results are cached per
# checkout; every other table is generated from the run's seed.
DEDUP_CORPUS_SEED = 0
DEDUP_CORPUS_DOCS = 500
# One query per exchange shape: keyed partition (sessionize), hash
# aggregate (dedup_exact), repartition join (left_join_orders), the
# cost-switched anti-join (customers_without_events) and the dbscan volume
# router (dedup_dbscan).  At these sizes only one arm of each switch runs:
# the anti-join stays on its broadcast arm (events are far below its 4M-key
# budget) and dedup_dbscan on its gathered arm (candidate pairs are far
# below its 2M-pair limit).  The repartition anti-join and the distributed
# dbscan arm are not measured.
QUERIES = (
    "sessionize",
    "dedup_exact",
    "left_join_orders",
    "customers_without_events",
    "dedup_dbscan",
)
DEDUP_QUERIES = ("dedup_exact", "dedup_dbscan")
SAMPLE_ROWS_PER_PASS = {"small_pages": 24, "long_pages": 1}


@dataclass
class PassResult:
    datasets: list = field(default_factory=list)  # executed Ray datasets
    out_dir: Path | None = None
    tables: dict = field(default_factory=dict)  # query name -> fetched output
    query_s: dict = field(default_factory=dict)  # query name -> wall seconds


@dataclass
class CheckResult:
    attempted: int
    failed: int
    failures: dict  # failure class -> count
    notes: list


def _expected_author(doc_id: int) -> str:
    return f"Author {doc_id % 50}" if doc_id % 7 == 0 else ""


def _html_bytes(spans: list[dict]) -> int:
    return sum(len(s["text"].encode()) for s in spans if s["kind"] == "text")


def _same_output(row: dict, spans: list[dict]) -> bool:
    """One output row equals in-process extraction, field by field."""
    from go_boilerpipe_ray.kernel.spans import extract_from_spans

    res = extract_from_spans(spans)
    got_spans = [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in row["spans"]]
    return (
        row["title"] == res.title
        and row["author"] == res.author
        and row["date"] == res.date
        and got_spans == res.spans
        and row["error"] == res.error
    )


def _error_class(error: str) -> str:
    return error.split(":", 1)[0].strip() or "Error"


class _Extraction:
    """Shared pass/check logic of the two extraction workloads."""

    name = ""
    unit = "doc"
    warmup_docs: int | None = None  # None: the warm-up is one whole pass

    def __init__(self, work: Path, seed: int):
        self.work = work / self.name
        self.seed = seed
        self.spans_by_id: dict[str, list[dict]] = {}
        self.expected: dict[str, tuple[str, str]] = {}
        self.html_bytes = 0
        self.input_path = self.work / "input.parquet"
        self.warmup_path = self.work / "warmup.parquet"

    @property
    def n_docs(self) -> int:
        return len(self.expected)

    def docs_seconds(self, result: "PassResult", job_s: float) -> float:
        """Seconds in which the pass processed its documents: all of it."""
        return job_s

    def _verify_input(self, n_rows: int) -> None:
        meta = pq.ParquetFile(self.input_path).metadata
        if meta.num_rows != n_rows:
            raise RuntimeError(
                f"generated input {self.input_path} has {meta.num_rows} rows, "
                f"expected {n_rows}"
            )

    def _out_dir(self) -> Path:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def warm_up(self, pool: int) -> None:
        path = self.warmup_path if self.warmup_docs else self.input_path
        self._job(path, self._out_dir(), pool)

    def run_pass(self, pool: int) -> PassResult:
        out = self._out_dir()
        return PassResult(datasets=[self._job(self.input_path, out, pool)], out_dir=out)

    def check(self, result: PassResult, pass_no: int) -> CheckResult:
        table = pq.read_table(result.out_dir)
        rows = table.select(["doc_id", "title", "author", "error"]).to_pylist()
        failures: dict[str, int] = {}
        failed_ids: set[str] = set()
        notes: list[str] = []

        def fail(kind: str, doc_id: str, detail: str) -> None:
            failures[kind] = failures.get(kind, 0) + 1
            failed_ids.add(doc_id)
            if len(notes) < 5:
                notes.append(f"{kind} {doc_id}: {detail}")

        seen: dict[str, int] = {}
        for i, r in enumerate(rows):
            d = r["doc_id"]
            if d in seen:
                fail("duplicate", d, "doc_id appears more than once")
                continue
            seen[d] = i
            if d not in self.expected:
                fail("unexpected", d, "doc_id not in the input")
            elif r["error"]:
                fail(_error_class(r["error"]), d, r["error"][:120])
            elif (r["title"], r["author"]) != self.expected[d]:
                fail("mismatch", d, f"title/author {r['title']!r}/{r['author']!r}")
        for d in self.expected:
            if d not in seen:
                fail("missing", d, "no output row")

        # A seeded sample must equal in-process extraction byte for byte.
        rng = random.Random(f"{self.seed}:{self.name}:{pass_no}")
        present = sorted(d for d in self.expected if d in seen)
        for d in rng.sample(present, min(SAMPLE_ROWS_PER_PASS[self.name], len(present))):
            row = table.slice(seen[d], 1).to_pylist()[0]
            if not _same_output(row, self.spans_by_id[d]):
                fail("mismatch", d, "differs from in-process extract_from_spans")
        # Units are the input documents plus any output row for a doc_id
        # that was never input.
        attempted = len(self.expected) + len(set(seen) - set(self.expected))
        return CheckResult(attempted, len(failed_ids), failures, notes)


class SmallPages(_Extraction):
    """~0.9 KB article pages, whole documents per row: Ray per-batch cost,
    Arrow conversion, read and write carry more than half of the job."""

    name = "small_pages"
    warmup_docs = SMALL_WARMUP_DOCS

    def prepare(self) -> list[Path]:
        from go_boilerpipe_ray.sources.fixtures import title_for

        self.work.mkdir(parents=True, exist_ok=True)
        docs = inputs.documents_table(self.seed, N_SMALL_DOCS)
        rows = inputs.small_pages_rows(docs)
        inputs.write_spans_parquet(rows, str(self.input_path))
        inputs.write_spans_parquet(rows[:SMALL_WARMUP_DOCS], str(self.warmup_path))
        self.spans_by_id = dict(rows)
        texts = docs.column("text").to_pylist()
        self.expected = {
            f"syn-{i:06d}": (title_for(i, t), _expected_author(i))
            for i, t in enumerate(texts)
        }
        self.html_bytes = sum(_html_bytes(s) for _, s in rows)
        self._verify_input(len(rows))
        return [self.input_path]

    def _job(self, path: Path, out: Path, pool: int):
        from go_boilerpipe_ray.pipelines.article import (
            DEFAULT_BATCH_SIZE,
            extract_dataset,
            read_spans,
            write_spans,
        )

        ds = extract_dataset(
            read_spans(str(path)), concurrency=pool, batch_size=DEFAULT_BATCH_SIZE
        )
        write_spans(ds, str(out))
        return ds


class LongPages(_Extraction):
    """8 KB to 1 MB pages split into shuffled fragment rows: kernel-bound,
    and the only workload on the sharded-ingest reassembly path."""

    name = "long_pages"

    def prepare(self) -> list[Path]:
        from go_boilerpipe_ray.sources.fixtures import text_span, title_for

        self.work.mkdir(parents=True, exist_ok=True)
        body = inputs.LONG_BODY_WORDS
        docs = inputs.documents_table(self.seed, LONG_SOURCE_DOCS, (body, body))
        texts = dict(zip(docs.column("doc_id").to_pylist(), docs.column("text").to_pylist()))
        pages = inputs.long_pages_docs(docs)
        frags = inputs.long_pages_fragments(self.seed, pages)
        inputs.write_spans_parquet(frags, str(self.input_path), row_group_size=16)
        self.spans_by_id = {}
        for doc_id, spans in frags:
            self.spans_by_id.setdefault(doc_id, []).extend(spans)
        self.expected = {
            f"long-{d:06d}": (title_for(d, texts[d]), _expected_author(d))
            for d, _, _ in pages
        }
        self.buckets = {f"long-{d:06d}": b for d, b, _ in pages}
        self.html_bytes = sum(len(h.encode()) for _, _, h in pages)
        # Whole-document rows of the same pages, for the reassembly probe.
        self.joined_path = self.work / "joined.parquet"
        inputs.write_spans_parquet(
            [
                (f"long-{d:06d}", [text_span(h, 0)])
                for d, _, h in pages
            ],
            str(self.joined_path),
            row_group_size=16,
        )
        self._verify_input(len(frags))
        return [self.input_path]

    def _job(self, path: Path, out: Path, pool: int):
        from go_boilerpipe_ray.pipelines.article import (
            read_spans,
            reassemble_and_extract,
            write_spans,
        )

        ds = reassemble_and_extract(read_spans(str(path)))
        write_spans(ds, str(out))
        return ds


def _fetch(result) -> tuple[pa.Table, object]:
    """Fully consume a query result: a Ray dataset is executed and every
    batch is streamed to this process (never a metadata-only count)."""
    if isinstance(result, pa.Table):
        return result, None
    batches = [b for b in result.iter_batches(batch_format="pyarrow", batch_size=None) if b.num_rows]
    if batches:
        return pa.concat_tables(batches), result
    schema = result.schema()
    empty = {n: pa.array([], t) for n, t in zip(schema.names, schema.types)} if schema else {}
    return pa.table(empty), result


class QuerySuite:
    """Keyed exchanges only, no extraction kernel: sessionize, exact
    dedup, repartition join, cost-switched anti-join and the dbscan volume
    router, back to back in each pass."""

    name = "query_suite"
    unit = "query"

    def __init__(self, work: Path, seed: int):
        self.work = work / self.name
        self.seed = seed
        self.data_dir = self.work / "data"
        self.warmup_dir = self.work / "warmup"
        self.cache_dir = work / "oracle_cache"
        self.oracles: dict[str, object] = {}
        self.n_docs = 0
        self.html_bytes = 0

    def _write_tables(self, directory: Path, scale: float, n_dedup_docs: int) -> list[Path]:
        directory.mkdir(parents=True, exist_ok=True)
        tables = inputs.query_tables(self.seed, scale)
        tables["documents"] = inputs.documents_table(DEDUP_CORPUS_SEED, n_dedup_docs)
        paths = []
        for name, table in tables.items():
            paths.append(directory / f"{name}.parquet")
            pq.write_table(table, paths[-1])
        return paths

    def prepare(self) -> list[Path]:
        import duckdb

        paths = self._write_tables(self.data_dir, QUERY_SCALE, DEDUP_CORPUS_DOCS)
        self._write_tables(self.warmup_dir, QUERY_WARMUP_SCALE, QUERY_WARMUP_DOCS)
        oracle_sql = _entry().oracle_sql()
        con = duckdb.connect()
        try:
            for p in paths:
                con.execute(
                    f"CREATE VIEW {p.stem} AS SELECT * FROM read_parquet('{p}')"
                )
            docs_digest = hashlib.sha256(
                (self.data_dir / "documents.parquet").read_bytes()
            ).hexdigest()
            for q in QUERIES:
                sql = oracle_sql[q]
                if q in DEDUP_QUERIES:
                    self.oracles[q] = self._cached_oracle(con, sql, docs_digest)
                else:
                    self.oracles[q] = con.execute(sql).fetchdf()
        finally:
            con.close()
        docs = pq.read_table(self.data_dir / "documents.parquet", columns=["text"])
        # The suite extracts no document.  Its docs_per_s and
        # html_mb_per_s are dedup throughput: each dedup query reads the
        # documents table expanded to exact and perturbed copies (3 rows
        # per document), divided by the dedup queries' own wall time.
        n_dedup = len(DEDUP_QUERIES)
        self.n_docs = 3 * docs.num_rows * n_dedup
        self.html_bytes = 3 * sum(len(t.encode()) for t in docs.column("text").to_pylist()) * n_dedup
        return paths

    def docs_seconds(self, result: PassResult, job_s: float) -> float:
        """Seconds the pass spent in the dedup queries."""
        return sum(result.query_s[q] for q in DEDUP_QUERIES)

    def _cached_oracle(self, con, sql: str, docs_digest: str):
        import pandas as pd

        key = hashlib.sha256(f"{docs_digest}:{sql}".encode()).hexdigest()[:20]
        path = self.cache_dir / f"{key}.parquet"
        if path.exists():
            return pd.read_parquet(path)
        df = con.execute(sql).fetchdf()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        df.to_parquet(tmp)
        os.replace(tmp, path)
        return df

    def warm_up(self, pool: int) -> None:
        qs = _entry().queries()
        for q in QUERIES:
            _fetch(qs[q](str(self.warmup_dir)))

    def run_pass(self, pool: int, on_query=None) -> PassResult:
        import time

        qs = _entry().queries()
        res = PassResult()
        for q in QUERIES:
            t0 = time.perf_counter()
            if on_query is None:
                table, ds = _fetch(qs[q](str(self.data_dir)))
            else:
                with on_query(q):
                    table, ds = _fetch(qs[q](str(self.data_dir)))
            res.query_s[q] = time.perf_counter() - t0
            res.tables[q] = table
            # Executed datasets are kept only for a traced pass's operator
            # stats; an untraced pass holds no Ray references once it ends.
            if ds is not None and on_query is not None:
                res.datasets.append(ds)
            del ds
        return res

    def check(self, result: PassResult, pass_no: int) -> CheckResult:
        selfcheck = _selfcheck()
        failures: dict[str, int] = {}
        notes: list[str] = []
        for q in QUERIES:
            got = result.tables[q].to_pandas()
            problem = _compare(selfcheck, got, self.oracles[q])
            if problem:
                failures["oracle_mismatch"] = failures.get("oracle_mismatch", 0) + 1
                notes.append(f"{q}: {problem}")
        return CheckResult(len(QUERIES), sum(failures.values()), failures, notes)


def _compare(selfcheck, got, expected) -> str:
    """The oracle comparison of tools/selfcheck.py: canonical
    column and row order, equal row counts, columns, dtypes and values."""
    import pandas as pd

    a, b = selfcheck.canon(got), selfcheck.canon(expected)
    if len(a) != len(b):
        return f"row count {len(a)} != {len(b)}"
    if sorted(a.columns) != sorted(b.columns):
        return f"columns {list(a.columns)} != {list(b.columns)}"
    b = b[a.columns]
    diffs = selfcheck.dtype_diffs(a, b)
    if diffs:
        return f"dtypes differ: {diffs}"
    try:
        pd.testing.assert_frame_equal(
            a, b, check_dtype=False, check_exact=False, rtol=1e-9, atol=1e-9
        )
    except AssertionError as exc:
        return "values differ: " + " ".join(str(exc).split())[:200]
    return ""


def _entry():
    import __ray_entry__

    return __ray_entry__


def _selfcheck():
    import importlib.util

    root = Path(_entry().__file__).resolve().parent
    spec = importlib.util.spec_from_file_location(
        "perfbench_selfcheck", root / "tools" / "selfcheck.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


WORKLOADS = {w.name: w for w in (SmallPages, LongPages, QuerySuite)}

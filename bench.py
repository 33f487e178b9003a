"""Benchmark harness (driver contract: one JSON line on stdout).

Headline pipeline: spans-corpus extraction (read parquet → task
map_batches extraction → write parquet), measured in docs/s, plus a set of
representative queries timed at $GRAFT_SF_DIR (default /root/testdata/sf0.1).

--scaling runs the headline extraction twice in fresh subprocesses
(num_cpus=8 and num_cpus=32) on the same input and reports both
throughputs and the N→4N efficiency (sandbox proxy for two cluster sizes);
the result is also appended to BASELINE.md's measured-numbers section.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
# Corpus sizing: target document counts (replicas adapt to the sf dir's
# documents-table size).  Scaling runs use 4x so fixed per-run costs (Ray
# worker start-up, read/write ramp) don't bias the ratio against the larger
# "cluster".
TARGET_DOCS = int(os.environ.get("GBR_BENCH_DOCS", "120000"))


def _replicas(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    n_source = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    return max(1, TARGET_DOCS // n_source)


def ensure_bench_corpus(sf_dir: str, replicas: int) -> tuple[str, int]:
    """Replicated synthetic spans corpus (deterministic; built in parallel
    with Ray; cached)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    import ray.data

    documents = os.path.join(sf_dir, "documents.parquet")
    key = hashlib.sha1(
        f"{documents}:{os.path.getmtime(documents)}:{replicas}:bench-v4".encode()
    ).hexdigest()[:12]
    out_dir = f"/tmp/gbr_cache/bench_corpus_{key}"
    marker = os.path.join(out_dir, "_done")
    n_docs_path = os.path.join(out_dir, "_ndocs")
    if os.path.exists(marker):
        return out_dir, int(open(n_docs_path).read())  # (bytes in _nbytes)

    from go_boilerpipe_ray.sources.fixtures import (
        SPANS_SCHEMA,
        golden_rows,
        split_chunks,
        html_for_document,
        media_span,
        text_span,
    )

    # ~10% of docs are the reference's real 14-82 KB article pages so the
    # corpus isn't all-tiny synthetic HTML; MB/s is reported alongside
    # docs/s.
    goldens = [h for _, h in golden_rows()]

    def expand(batch: pa.Table) -> pa.Table:
        base: list[tuple[int, list[dict]]] = []
        for doc_id, text in zip(
            batch.column("doc_id").to_pylist(), batch.column("text").to_pylist()
        ):
            if doc_id % 10 == 7:
                html = goldens[doc_id % len(goldens)]
            else:
                html = html_for_document(int(doc_id), text)
            k = 1 + doc_id % 3
            chunks = split_chunks(html, k)
            base_spans: list[dict] = []
            off = 0
            for i, c in enumerate(chunks):
                base_spans.append(text_span(c, off))
                off += 1
                if doc_id % 5 == 0:
                    base_spans.append(
                        media_span("image", f"media://syn-{doc_id}/{i}", off)
                    )
                    off += 1
            base.append((doc_id, base_spans))
        # Replica-major order: replicas of heavy (real-page) docs interleave
        # with tiny docs instead of forming contiguous all-heavy runs — a
        # sorted-by-size corpus turns block-granular tasks into stragglers
        # and wrecks scaling.
        doc_ids = []
        spans_col = []
        for rep in range(replicas):
            for doc_id, base_spans in base:
                doc_ids.append(f"syn-{doc_id:06d}-r{rep:03d}")
                spans_col.append(base_spans)
        return pa.Table.from_pydict(
            {"doc_id": doc_ids, "spans": spans_col}, schema=SPANS_SCHEMA
        )

    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    ds = ray.data.read_parquet(documents, columns=["doc_id", "text"])
    n_source = ds.count()
    ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True).write_parquet(
        out_dir
    )
    n_docs = n_source * replicas
    import pyarrow.dataset as pads
    import pyarrow.compute as pc_

    total_bytes = 0
    for rb in pads.dataset(out_dir).to_batches(columns=["spans"]):
        total_bytes += int(
            pc_.sum(
                pc_.binary_length(
                    pc_.struct_field(pc_.list_flatten(rb.column("spans")), "text")
                )
            ).as_py()
            or 0
        )
    with open(os.path.join(out_dir, "_nbytes"), "w") as f:
        f.write(str(total_bytes))
    with open(n_docs_path, "w") as f:
        f.write(str(n_docs))
    with open(marker, "w") as f:
        f.write("ok")
    del pq
    return out_dir, n_docs


def run_extract(corpus_dir: str) -> float:
    """Headline pipeline wall time: read → extract → write."""
    from go_boilerpipe_ray.pipelines.article import extract_dataset, read_spans

    out = "/tmp/gbr_bench_out"
    if os.path.isdir(out):
        shutil.rmtree(out)
    t0 = time.perf_counter()
    # Fine read granularity (many small blocks) so per-task work variance
    # from mixed doc sizes load-balances across the extraction tasks.
    extract_dataset(read_spans(corpus_dir, parallelism=512)).write_parquet(out)
    return time.perf_counter() - t0


def run_queries(sf_dir: str) -> dict[str, float]:
    sys.path.insert(0, REPO)
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    picks = [
        "token_stats",
        "quality_score",
        "dedup_exact",
        "dedup_minhash_lsh",
        "knn_brute",
        "agg_lineitem",
        "top_customers",
        "hourly_events",
        "sessionize",
    ]
    timings: dict[str, float] = {}
    for name in picks:
        t0 = time.perf_counter()
        res = qs[name](sf_dir)
        # Consume lazily-built results fully.
        if hasattr(res, "count"):
            res.count()
        timings[name] = round(time.perf_counter() - t0, 3)
    return timings


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default=os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1"))
    ap.add_argument("--cpus", type=int, default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--extract-only", action="store_true", help="internal: one timed extraction run")
    args = ap.parse_args()

    if args.scaling:
        run_scaling(args)
        return

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.cpus, include_dashboard=False)
    from go_boilerpipe_ray.functions._util import install_empty_block_schema_filter

    install_empty_block_schema_filter()

    corpus_dir, n_docs = ensure_bench_corpus(args.sf_dir, _replicas(args.sf_dir))

    if args.extract_only:
        # Timed COLD (single pass, fresh process): an in-process warm-up
        # pass was tried and measurably HURTS on this box — the warm run
        # leaves the object store full and the timed run pays eviction
        # (second same-process runs degrade 10-25%).  Ray worker start-up
        # therefore stays inside the measurement; it lands
        # asymmetrically on the scaling ratio (more workers start at
        # 32 cpus than at 8) and is a per-job cost a real cluster job
        # amortizes — noted in BASELINE.md rather than excluded.
        wall = run_extract(corpus_dir)
        print(json.dumps({"wall": wall, "docs": n_docs, "num_cpus": args.cpus}))
        ray.shutdown()
        return

    # warm-up pass excluded from timing (BASELINE.md protocol)
    run_extract(corpus_dir)
    extract_wall = run_extract(corpus_dir)
    docs_per_sec = n_docs / extract_wall

    queries = {"extract": round(extract_wall, 3)}
    queries.update(run_queries(args.sf_dir))
    total = round(sum(queries.values()), 3)

    print(
        json.dumps(
            {
                "metric": "headline extraction + query suite wall time",
                "value": total,
                "unit": "sec",
                "queries": queries,
                "sf": args.sf_dir,
                "num_cpus": args.cpus,
                "extract_docs": n_docs,
                "extract_docs_per_sec": round(docs_per_sec, 1),
                "extract_mb_per_sec": round(
                    int(open(os.path.join(corpus_dir, "_nbytes")).read())
                    / extract_wall
                    / 1e6,
                    1,
                ),
            }
        )
    )
    ray.shutdown()


def run_scaling(args) -> None:
    lo_cpus, hi_cpus = 8, 32
    results = {}

    def one_run(cpus: int, timed: bool) -> None:
        env = dict(os.environ)
        env["RAY_GRAFT_CPUS"] = str(cpus)
        # Larger corpus for scaling runs: fixed per-run costs (Ray worker
        # start-up, read/write task ramp) must be amortized or they bias the
        # ratio against the larger "cluster".
        env.setdefault("GBR_BENCH_DOCS", str(TARGET_DOCS * 4))
        proc = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--extract-only",
                "--sf-dir",
                args.sf_dir,
                "--cpus",
                str(cpus),
            ],
            env=env,
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            raise SystemExit(1)
        if timed:
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            prev = results.get(cpus)
            if prev is None or res["wall"] < prev["wall"]:
                results[cpus] = res

    # Timed runs INTERLEAVED lo/hi — this shared VM drifts ±15-20% over
    # minutes, and back-to-back per-level blocks let the drift land
    # entirely on one side of the ratio; alternating levels exposes both
    # sides to the same machine state.  Each run is a fresh process/Ray
    # instance that warms up in-process (corpus build and worker start-up
    # excluded from timing per the BASELINE.md protocol); best wall per
    # level is recorded (best-of-N measures the machine, not the
    # neighbor noise).
    for cpus in (lo_cpus, hi_cpus, lo_cpus, hi_cpus):
        one_run(cpus, timed=True)

    lo = results[lo_cpus]
    hi = results[hi_cpus]
    tput_lo = lo["docs"] / lo["wall"]
    tput_hi = hi["docs"] / hi["wall"]
    eff = tput_hi / (tput_lo * (hi_cpus / lo_cpus))
    out = {
        "metric": "N->4N scaling efficiency (8 vs 32 cpus, fresh processes)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "queries": {
            f"extract@{lo_cpus}cpus": round(lo["wall"], 3),
            f"extract@{hi_cpus}cpus": round(hi["wall"], 3),
        },
        "sf": args.sf_dir,
        "num_cpus": hi_cpus,
        "docs": lo["docs"],
        "docs_per_sec_lo": round(tput_lo, 1),
        "docs_per_sec_hi": round(tput_hi, 1),
    }
    _add_mp_ceiling(out)
    print(json.dumps(out))
    _record_scaling(out)


def _add_mp_ceiling(out: dict) -> None:
    """Measure the BOX's own raw-multiprocessing 8→32 ceiling for the
    bare kernel (no Ray) over the scaling corpus, in the same machine
    state as the Ray runs — the number a scaling draw must be read
    against (the Ray ratio can never exceed it; when the 32-cpu Ray
    throughput equals the raw-mp one, the engine adds zero overhead at
    width and the ratio measures memory bandwidth, not the pipeline)."""
    try:
        # Recompute the EXACT corpus dir the scaling children used (same
        # cache-key derivation as ensure_bench_corpus with the child's
        # GBR_BENCH_DOCS) — globbing for the newest cache dir would pick
        # whatever corpus was built last, not the one just measured.
        import pyarrow.parquet as pq

        docs = os.path.join(out["sf"], "documents.parquet")
        child_target = int(os.environ.get("GBR_BENCH_DOCS", str(TARGET_DOCS * 4)))
        n_source = pq.read_metadata(docs).num_rows
        replicas = max(1, child_target // n_source)
        key = hashlib.sha1(
            f"{docs}:{os.path.getmtime(docs)}:{replicas}:bench-v4".encode()
        ).hexdigest()[:12]
        corpus_dir = f"/tmp/gbr_cache/bench_corpus_{key}"
        proc = subprocess.run(
            [
                sys.executable,
                os.path.join(REPO, "tools", "calibrate_mp.py"),
                os.path.join(corpus_dir, "*.parquet"),
                "--json",
                "--rounds=1",
            ],
            capture_output=True,
            text=True,
            cwd=REPO,
            timeout=600,
        )
        cal = json.loads(proc.stdout.strip().splitlines()[-1])
        out["mp_ceiling_docs_per_sec_lo"] = cal["lo"]
        out["mp_ceiling_docs_per_sec_hi"] = cal["hi"]
        out["mp_ceiling_efficiency"] = cal["efficiency"]
    except Exception as exc:  # the ceiling is context, never a failure
        out["mp_ceiling_error"] = f"{type(exc).__name__}: {exc}"


def _record_scaling(out: dict) -> None:
    path = os.path.join(REPO, "BASELINE.md")
    marker = "\n## Measured scaling (bench.py --scaling)\n"
    line = (
        f"- {time.strftime('%Y-%m-%d %H:%M:%S')} sf={out['sf']}: "
        f"{out['docs']} docs; {out['docs_per_sec_lo']} docs/s @8 cpus, "
        f"{out['docs_per_sec_hi']} docs/s @32 cpus; "
        f"efficiency = {out['value']}"
        + (
            f" (raw-mp ceiling {out['mp_ceiling_efficiency']} at "
            f"{out['mp_ceiling_docs_per_sec_lo']}→"
            f"{out['mp_ceiling_docs_per_sec_hi']} docs/s)"
            if "mp_ceiling_efficiency" in out
            else ""
        )
        + "\n"
    )
    text = open(path).read()
    if marker not in text:
        text += marker + "\n"
    open(path, "w").write(text + line)


if __name__ == "__main__":
    main()

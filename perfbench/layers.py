"""Traced run: per-layer timings taken from outside the engine.

Spans are recorded by the benchmark around its own calls into
``kernel.*``, ``stages.extract``, ``pipelines.article`` and
``functions.*``; nothing inside the engine is instrumented.  Spans are
kept in memory and written to ``perfbench/.work/trace/`` when the run
ends.  A layer's self time is its span's duration minus the part covered
by its child spans.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from workloads import QUERIES

# Layer accounting on the extraction workloads: the framework floor
# (identity job), the reassembly shuffle and the in-process stage cost
# must add up to the measured job time within this share of it.
ACCOUNTING_TOLERANCE = 0.25
KERNEL_SAMPLE_DOCS = 512
BUCKETS = ("b8k", "b64k", "b1m")
OP_CLASSES = ("read", "extract", "map", "shuffle", "write")

# Every per-layer metric, reported on every workload; a layer that is not
# on a workload's path reads 0.
PER_LAYER = (
    [
        ("kernel.htmltok.ms_per_doc", "ms"),
        ("kernel.handler.ms_per_doc", "ms"),
        ("kernel.filters.ms_per_doc", "ms"),
        ("kernel.spans.ms_per_doc", "ms"),
        ("kernel.extract.ms_per_doc", "ms"),
        ("kernel.extract.ms_per_kb", "ms/KB"),
    ]
    + [(f"kernel.extract.ms_per_doc.{b}", "ms") for b in BUCKETS]
    + [(f"kernel.extract.ms_per_kb.{b}", "ms/KB") for b in BUCKETS]
    + [
        ("kernel.blocks_in_per_doc", "count"),
        ("kernel.words_kept_ratio", "ratio"),
        ("kernel.docs_per_pass", "count"),
        ("kernel.share_of_job", "ratio"),
        ("stages.extract.call.ms_per_doc", "ms"),
        ("stages.extract.arrow_in.ms_per_doc", "ms"),
        ("stages.extract.arrow_out.ms_per_doc", "ms"),
        ("pipelines.read.s", "s"),
        ("pipelines.write.s", "s"),
        ("pipelines.identity.s", "s"),
        ("pipelines.job_floor.s", "s"),
        ("pipelines.in_ray_gap.s", "s"),
        ("pipelines.reassemble.s", "s"),
        ("pipelines.settle.s", "s"),
        ("pipelines.accounting.rel_error", "ratio"),
    ]
    + [(f"ray.op.{c}.{k}", "s") for c in OP_CLASSES for k in ("wall_s", "cpu_s")]
    + [(f"functions.{q}.{k}", u) for q in QUERIES for k, u in (("s", "s"), ("rows", "count"))]
    + [
        ("functions.shuffle.s", "s"),
        ("docs_failed.total", "count"),
        ("trace.job_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """In-memory spans: name, start, end, parent span and pass id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.pass_id: int | None = None

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


class Identity:
    """Actor-pool UDF that returns its batch: the framework floor."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        return batch


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


def _median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def _op_class(name: str) -> str:
    if "ExtractDocuments" in name or "_reassemble_part" in name:
        return "extract"
    if any(k in name for k in ("Sort", "Aggregate", "Repartition", "Shuffle", "Join", "Zip")):
        return "shuffle"
    if "Write" in name:
        return "write"
    if "Read" in name:
        return "read"
    return "map"


def ray_ops(ds) -> list[dict]:
    """Per-operator wall and CPU seconds from a dataset's execution stats.
    All-to-all operators report through their sub-operators.  A written
    dataset keeps its execution stats on the internal write dataset."""
    out = []

    def walk(summary) -> None:
        for parent in summary.parents:
            walk(parent)
        for op in summary.operators_stats:
            out.append({
                "operator": op.operator_name,
                "sub": op.is_sub_operator,
                "wall_s": (op.wall_time or {}).get("sum", 0.0),
                "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
            })

    walk((getattr(ds, "_write_ds", None) or ds)._get_stats_summary())
    return out


def _op_totals(ops: list[dict]) -> dict[str, float]:
    totals = {f"{c}.{k}": 0.0 for c in OP_CLASSES for k in ("wall_s", "cpu_s")}
    for op in ops:
        # Sub-operators are the map and reduce stages of an all-to-all
        # exchange.
        cls = "shuffle" if op["sub"] else _op_class(op["operator"])
        totals[f"{cls}.wall_s"] += op["wall_s"]
        totals[f"{cls}.cpu_s"] += op["cpu_s"]
    return totals


def _html_of(spans: list[dict]) -> str:
    text = sorted((s for s in spans if s["kind"] == "text"), key=lambda s: s["offset"])
    return "".join(s["text"] for s in text)


def _reset_kernel_memo() -> None:
    """Empty the kernel's module-level memo tables (``*_CACHE`` dicts), so
    each probe pass starts as a freshly started extraction actor does, and
    collect the previous pass's garbage."""
    gc.collect()
    for name, mod in list(sys.modules.items()):
        if name.startswith("go_boilerpipe_ray.kernel"):
            for attr, val in vars(mod).items():
                if attr.endswith("_CACHE") and isinstance(val, dict):
                    val.clear()


def kernel_probe(tracer: Tracer, workload, doc_ids: list[str]) -> dict:
    """Per-document kernel layers, called in-process on the given docs.
    Each layer gets its own pass over the docs in the same order, from
    empty memo tables, so that every layer sees the cache state the job's
    actor sees."""
    from go_boilerpipe_ray.kernel.document import parse_document
    from go_boilerpipe_ray.kernel.filters import article_pipeline
    from go_boilerpipe_ray.kernel.htmltok import Tokenizer
    from go_boilerpipe_ray.kernel.spans import extract_from_spans

    pipeline = article_pipeline()
    html = {d: _html_of(workload.spans_by_id[d]) for d in doc_ids}
    dur: dict[str, dict[str, float]] = {k: {} for k in ("tok", "parse", "filters", "extract")}
    results = {}

    def timed(layer: str, span: str, d: str, fn):
        with tracer.span(span, doc=d) as s:
            out = fn()
        dur[layer][d] = s["end"] - s["start"]
        return out

    _reset_kernel_memo()
    for d in doc_ids:
        timed("tok", "kernel.htmltok", d, lambda: [None for _ in Tokenizer(html[d])])
    _reset_kernel_memo()
    for d in doc_ids:
        timed("parse", "kernel.parse_document", d, lambda: parse_document(html[d]))
    _reset_kernel_memo()
    for d in doc_ids:
        doc = parse_document(html[d])
        timed("filters", "kernel.filters", d, lambda: pipeline.process(doc))
    _reset_kernel_memo()
    for d in doc_ids:
        results[d] = timed(
            "extract", "kernel.extract", d, lambda: extract_from_spans(workload.spans_by_id[d])
        )
    rows = [
        (d, len(html[d].encode()), {k: dur[k][d] for k in dur}, results[d]) for d in doc_ids
    ]
    return _kernel_metrics(workload, rows)


def _kernel_metrics(workload, rows) -> dict:
    ms = 1000.0
    m = {
        "kernel.htmltok.ms_per_doc": _mean(r[2]["tok"] for r in rows) * ms,
        "kernel.handler.ms_per_doc": _mean(r[2]["parse"] - r[2]["tok"] for r in rows) * ms,
        "kernel.filters.ms_per_doc": _mean(r[2]["filters"] for r in rows) * ms,
        "kernel.spans.ms_per_doc": _mean(
            r[2]["extract"] - r[2]["parse"] - r[2]["filters"] for r in rows
        ) * ms,
        "kernel.extract.ms_per_doc": _mean(r[2]["extract"] for r in rows) * ms,
        "kernel.extract.ms_per_kb": sum(r[2]["extract"] for r in rows) * ms
        / (sum(r[1] for r in rows) / 1024.0),
        "kernel.blocks_in_per_doc": _mean(r[3].n_blocks_in for r in rows),
        "kernel.words_kept_ratio": sum(r[3].words_kept for r in rows)
        / max(1, sum(r[3].words_in for r in rows)),
    }
    buckets = getattr(workload, "buckets", {})
    for b in BUCKETS:
        sel = [r for r in rows if buckets.get(r[0]) == b]
        m[f"kernel.extract.ms_per_doc.{b}"] = _mean(r[2]["extract"] for r in sel) * ms
        m[f"kernel.extract.ms_per_kb.{b}"] = (
            sum(r[2]["extract"] for r in sel) * ms / (sum(r[1] for r in sel) / 1024.0)
            if sel else 0.0
        )
    return m


def stage_probe(tracer: Tracer, workload, doc_ids: list[str], kernel_ms: float) -> dict:
    """``ExtractDocuments()(batch)`` in-process on DEFAULT_BATCH_SIZE
    batches; arrow_out is what the call costs beyond Arrow-to-Python
    conversion and the kernel."""
    from go_boilerpipe_ray.pipelines.article import DEFAULT_BATCH_SIZE
    from go_boilerpipe_ray.sources.fixtures import spans_table
    from go_boilerpipe_ray.stages.extract import ExtractDocuments

    extractor = ExtractDocuments()
    _reset_kernel_memo()
    call = arrow_in = 0.0
    for i in range(0, len(doc_ids), DEFAULT_BATCH_SIZE):
        ids = doc_ids[i : i + DEFAULT_BATCH_SIZE]
        batch = spans_table([(d, workload.spans_by_id[d]) for d in ids])
        with tracer.span("stages.extract.arrow_in") as s:
            batch.column("spans").to_pylist()
        arrow_in += s["end"] - s["start"]
        with tracer.span("stages.extract.call") as s:
            extractor(batch)
        call += s["end"] - s["start"]
    n = len(doc_ids)
    call_ms = call * 1000.0 / n
    in_ms = arrow_in * 1000.0 / n
    return {
        "stages.extract.call.ms_per_doc": call_ms,
        "stages.extract.arrow_in.ms_per_doc": in_ms,
        "stages.extract.arrow_out.ms_per_doc": call_ms - in_ms - kernel_ms,
    }


def _timed(tracer: Tracer, host, name: str, fn) -> float:
    host.settle()
    with tracer.span(name) as s:
        fn()
    return s["end"] - s["start"]


def pipeline_probe(tracer: Tracer, host, workload, pool: int, last_out: Path) -> dict:
    """Read, write, identity job and per-job floor in the Ray session,
    with the job's pool and batch size."""
    import ray
    from ray import cloudpickle

    from go_boilerpipe_ray.pipelines.article import (
        DEFAULT_BATCH_SIZE,
        extract_dataset,
        read_spans,
        reassemble_and_extract,
        write_spans,
    )

    cloudpickle.register_pickle_by_value(sys.modules[__name__])
    scratch = workload.work / "probe"

    def out(name: str) -> str:
        import shutil

        shutil.rmtree(scratch / name, ignore_errors=True)
        return str(scratch / name)

    def identity(ds):
        return ds.map_batches(
            Identity, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=DEFAULT_BATCH_SIZE, concurrency=pool,
        )

    src = str(workload.input_path)
    output = pq.read_table(last_out)
    n_blocks = max(1, len(list(last_out.glob("*.parquet"))))
    step = -(-output.num_rows // n_blocks)
    blocks = [output.slice(i, step) for i in range(0, output.num_rows, step)]
    m = {
        "pipelines.read.s": _timed(
            tracer, host, "pipelines.read", lambda: read_spans(src).materialize()
        ),
        "pipelines.write.s": _timed(
            tracer, host, "pipelines.write",
            lambda: write_spans(ray.data.from_arrow(blocks), out("write")),
        ),
        "pipelines.identity.s": _timed(
            tracer, host, "pipelines.identity",
            lambda: write_spans(identity(read_spans(src)), out("identity")),
        ),
        "pipelines.job_floor.s": _timed(
            tracer, host, "pipelines.job_floor",
            lambda: write_spans(identity(ray.data.from_arrow(output.slice(0, 1))), out("floor")),
        ),
        "pipelines.reassemble.s": 0.0,
    }
    if workload.name == "long_pages":
        joined = str(workload.joined_path)
        m["pipelines.reassemble.s"] = _timed(
            tracer, host, "pipelines.reassemble_and_extract",
            lambda: reassemble_and_extract(read_spans(src)).materialize(),
        ) - _timed(
            tracer, host, "pipelines.extract_dataset",
            lambda: extract_dataset(read_spans(joined), concurrency=pool).materialize(),
        )
    return m


def traced_run(args, host, workload, pool: int, run_passes):
    """Alternating traced and untraced passes, then the layer probes.
    ``run_passes(on_pass)`` runs the timed loop with ``on_pass(n)`` as the
    pass body."""
    tracer = Tracer()
    is_query = workload.name == "query_suite"
    job_span = "pipelines.article.job"

    def on_pass(i: int):
        tracer.pass_id = i
        if i % 2:
            return workload.run_pass(pool)
        with tracer.span("pass"):
            if is_query:
                return workload.run_pass(pool, on_query=lambda q: tracer.span(f"functions.{q}"))
            with tracer.span(job_span):
                return workload.run_pass(pool)

    passes = run_passes(on_pass)
    tracer.pass_id = None  # probe spans belong to no pass
    traced = [p for i, p in enumerate(passes) if i % 2 == 0]
    untraced = [p for i, p in enumerate(passes) if i % 2 == 1]
    job = _median(p["job_s"] for p in traced)

    m = {name: 0.0 for name, _ in PER_LAYER}
    op_rows = [[op for ds in p["result"].datasets for op in ray_ops(ds)] for p in traced]
    op_totals = [_op_totals(ops) for ops in op_rows]
    for key in op_totals[0]:
        m[f"ray.op.{key}"] = _median(t[key] for t in op_totals)
    extract_ops = sum(
        1 for ops in op_rows for op in ops if _op_class(op["operator"]) == "extract"
    )
    m["pipelines.settle.s"] = _median(p["settle_s"] for p in passes)
    m["docs_failed.total"] = float(sum(p["check"].failed for p in passes))
    m["trace.job_s"] = job
    m["trace.overhead_s"] = job - _median(p["job_s"] for p in untraced)
    notes = []

    if is_query:
        for q in QUERIES:
            m[f"functions.{q}.s"] = _median(
                p["result"].query_s[q] for p in traced
            )
            m[f"functions.{q}.rows"] = float(
                _median(p["result"].tables[q].num_rows for p in traced)
            )
        m["functions.shuffle.s"] = m["ray.op.shuffle.wall_s"]
        notes.append(f"extraction operators in the suite's plans: {extract_ops} (expect 0)")
    else:
        rng = random.Random(f"{args.seed}:kernel-sample")
        ids = sorted(workload.expected)
        sample = ids if len(ids) <= KERNEL_SAMPLE_DOCS else sorted(rng.sample(ids, KERNEL_SAMPLE_DOCS))
        m.update(kernel_probe(tracer, workload, sample))
        m.update(stage_probe(tracer, workload, sample, m["kernel.extract.ms_per_doc"]))
        m.update(pipeline_probe(tracer, host, workload, pool, passes[-1]["result"].out_dir))
        n = workload.n_docs
        m["kernel.docs_per_pass"] = float(n)
        kernel_s = n * m["kernel.extract.ms_per_doc"] / 1000.0
        stage_s = n * m["stages.extract.call.ms_per_doc"] / 1000.0
        m["kernel.share_of_job"] = kernel_s / job
        m["pipelines.in_ray_gap.s"] = job - stage_s
        # Layer sum: the framework floor (identity job) plus the extraction
        # and exchange operators' task time inside the job, divided by the
        # slots they run on (the actor pool, or every CPU for tasks).
        slots = pool if workload.name == "small_pages" else host.RAY_NUM_CPUS
        in_job = (m["ray.op.extract.wall_s"] + m["ray.op.shuffle.wall_s"]) / slots
        predicted = m["pipelines.identity.s"] + in_job
        m["pipelines.accounting.rel_error"] = predicted / job - 1.0
        within = abs(m["pipelines.accounting.rel_error"]) <= ACCOUNTING_TOLERANCE
        notes.append(
            f"layer sum identity {m['pipelines.identity.s']:.3f} s + (extract + "
            f"shuffle tasks) / {slots} slot(s) {in_job:.3f} s = {predicted:.3f} s vs "
            f"job_s {job:.3f} s: rel_error {m['pipelines.accounting.rel_error']:+.3f}, "
            f"tolerance {ACCOUNTING_TOLERANCE} -> {'within' if within else 'OUTSIDE'}"
        )
        notes.append(
            f"in-Ray gap {m['pipelines.in_ray_gap.s']:.3f} s = job_s - n*stage.call "
            f"({stage_s:.3f} s); framework floor (identity job) "
            f"{m['pipelines.identity.s']:.3f} s; extraction in workers "
            f"{m['ray.op.extract.wall_s'] / slots - stage_s:+.3f} s vs in-process"
        )
        want = "≥ 0.7" if workload.name == "long_pages" else "≤ 0.5"
        notes.append(f"kernel share of job_s {m['kernel.share_of_job']:.3f} (expect {want})")

    trace_dir = workload.work.parent / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{workload.name}-seed{args.seed}.json").write_text(json.dumps({
        "spans": tracer.spans,
        "self_time_s": tracer.self_times(),
        "ray_ops": op_rows,
        "metrics": m,
        "notes": notes,
    }, default=str))
    units = dict(PER_LAYER)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in m.items()}
    return metrics, {"passes": passes, "notes": notes}


"""Ray Data extraction stage: the per-batch transform over the kernel.

``ExtractDocuments`` takes no arguments and holds no state: the article
filter chain is built once per process in ``kernel.spans``, and the
kernel's text-keyed flush memo is emptied at the start of every batch, so
no batch runs faster for documents its worker extracted before
(``kernel.handler.clear_flush_memo``).  It runs as a
task UDF, ``ds.map_batches(ExtractDocuments(), batch_format="pyarrow",
zero_copy_batch=True, concurrency=N, batch_size=B)``, in
``pipelines.article.extract_dataset``, and is called directly as
``ExtractDocuments()(batch)`` inside the reassembly tasks.
"""

from __future__ import annotations

import pyarrow as pa

from ..kernel.handler import clear_flush_memo
from ..kernel.spans import extract_from_spans
from ..sources.fixtures import OUTPUT_SPAN_STRUCT

_DATE_TYPE = pa.timestamp("us", tz="UTC")


class ExtractDocuments:
    """Per-document extraction over Arrow batches of (doc_id, spans) rows."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        clear_flush_memo()
        spans_col = batch.column("spans").to_pylist()

        titles: list[str] = []
        authors: list[str] = []
        dates: list[object] = []
        n_in: list[int] = []
        n_kept: list[int] = []
        w_in: list[int] = []
        w_kept: list[int] = []
        errors: list[str] = []

        # Flattened output-span columns + list offsets: the list<struct>
        # column is assembled from flat arrays, no per-span dict objects.
        span_list_offsets: list[int] = [0]
        f_kind: list[str] = []
        f_text: list[str] = []
        f_ref: list[str] = []
        f_order: list[int] = []

        for spans in spans_col:
            res = extract_from_spans(spans)
            titles.append(res.title)
            authors.append(res.author)
            dates.append(res.date)
            for k, t, m, o in res.spans:
                f_kind.append(k)
                f_text.append(t)
                f_ref.append(m)
                f_order.append(o)
            span_list_offsets.append(len(f_kind))
            n_in.append(res.n_blocks_in)
            n_kept.append(res.n_blocks_kept)
            w_in.append(res.words_in)
            w_kept.append(res.words_kept)
            errors.append(res.error)

        spans_struct = pa.StructArray.from_arrays(
            [
                pa.array(f_kind, pa.string()),
                pa.array(f_text, pa.string()),
                pa.array(f_ref, pa.string()),
                pa.array(f_order, pa.int32()),
            ],
            fields=list(OUTPUT_SPAN_STRUCT),
        )
        spans_arr = pa.ListArray.from_arrays(
            pa.array(span_list_offsets, pa.int32()), spans_struct
        )

        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "title": pa.array(titles, pa.string()),
                "author": pa.array(authors, pa.string()),
                "date": pa.array(dates, _DATE_TYPE),
                "spans": spans_arr,
                "n_blocks_in": pa.array(n_in, pa.int32()),
                "n_blocks_kept": pa.array(n_kept, pa.int32()),
                "words_in": pa.array(w_in, pa.int32()),
                "words_kept": pa.array(w_kept, pa.int32()),
                "error": pa.array(errors, pa.string()),
            }
        )

"""Span-sequence semantics: input reassembly and output span construction.

Input rows carry interleaved text + media spans (BASELINE.json input_hint):
``spans: list<struct<kind, text, media_ref, offset>>``.  The HTML document
is the concatenation of the ``kind=="text"`` span texts in ascending
``offset`` (chunk boundaries carry no meaning).  Output spans are the
document's content TextBlocks in document order (text escaped so that
joining with '\\n' reproduces ``doc.Content()`` exactly), with media spans
carried through untouched and interleaved deterministically: a media span
is placed after the last emitted text span whose last contributing source
span has ``offset <= `` the media span's offset (SURVEY §7.2).
"""

from __future__ import annotations

import bisect
import datetime as _dt
from dataclasses import dataclass, field

from .document import escape_string, parse_document
from .filters import article_pipeline

# The article filter chain is configuration-only after construction (no
# per-document state), so the default pipeline is built once per process
# instead of once per document — at ~1 KB/doc corpora the construction of
# 15 filter objects per document is measurable overhead.
_DEFAULT_PIPELINE = article_pipeline()


@dataclass
class ExtractResult:
    title: str = ""
    author: str = ""
    date: _dt.datetime | None = None
    # Output spans as (kind, text, media_ref, order) tuples.
    spans: list[tuple[str, str, str, int]] = field(default_factory=list)
    n_blocks_in: int = 0
    n_blocks_kept: int = 0
    words_in: int = 0
    words_kept: int = 0
    error: str = ""


def extract_from_spans(spans: list[dict]) -> ExtractResult:
    """Extract one document from its (possibly unsorted) span list."""
    res = ExtractResult()
    try:
        text_spans = sorted(
            (s for s in spans if s["kind"] == "text"), key=lambda s: s["offset"]
        )
        media_spans = sorted(
            (s for s in spans if s["kind"] != "text"), key=lambda s: s["offset"]
        )
        html_parts = [s["text"] for s in text_spans]
        html = "".join(html_parts)
    except Exception as exc:
        res.error = f"{type(exc).__name__}: {exc}"
        return res

    # Char-position boundary -> source span offset, for media interleave.
    cum_ends: list[int] = []
    total = 0
    for part in html_parts:
        total += len(part)
        cum_ends.append(total)

    def src_offset_of(char_end: int) -> int:
        if not text_spans:
            return 0
        if char_end <= 0:
            return text_spans[0]["offset"]
        i = bisect.bisect_left(cum_ends, char_end)
        i = min(i, len(text_spans) - 1)
        return text_spans[i]["offset"]

    try:
        doc = parse_document(html)
        res.n_blocks_in = len(doc.text_blocks)
        res.words_in = sum(tb.num_words for tb in doc.text_blocks)
        _DEFAULT_PIPELINE.process(doc)
        res.title = doc.title
        res.author = doc.author
        res.date = doc.date

        if doc.linked_data.body != "":
            # articleBody short-circuit (boilerpipe.go:77-79): one text span
            # attributed to the whole document.
            texts = [doc.linked_data.body]
            last_off = text_spans[-1]["offset"] if text_spans else 0
            text_srcs = [last_off]
            res.n_blocks_kept = sum(1 for tb in doc.text_blocks if tb.is_content)
            res.words_kept = sum(
                tb.num_words for tb in doc.text_blocks if tb.is_content
            )
        else:
            content_blocks = [tb for tb in doc.text_blocks if tb.is_content]
            texts = [escape_string(tb.text) for tb in content_blocks]
            text_srcs = [src_offset_of(tb.src_end) for tb in content_blocks]
            res.n_blocks_kept = len(content_blocks)
            res.words_kept = sum(tb.num_words for tb in content_blocks)
    except Exception as exc:  # malformed input must not fail the batch
        res.error = f"{type(exc).__name__}: {exc}"
        texts = []
        text_srcs = []

    out: list[tuple[str, str, str, int]] = []
    ti = 0
    for m in media_spans:
        while ti < len(texts) and text_srcs[ti] <= m["offset"]:
            out.append(("text", texts[ti], "", len(out)))
            ti += 1
        out.append((m["kind"], "", m["media_ref"], len(out)))
    while ti < len(texts):
        out.append(("text", texts[ti], "", len(out)))
        ti += 1

    res.spans = out
    return res


def content_from_result(res: ExtractResult) -> str:
    """Join the result's text spans with '\\n' — equals doc.Content().
    The engine's output columns carry the spans themselves; this is the
    content assembly the golden and span tests compare against the
    reference's Content() strings, so it stays as their one definition."""
    return "\n".join(t for k, t, _, _ in res.spans if k == "text")

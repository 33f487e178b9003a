"""Deterministic spans-table fixtures (FIXTURES.md families F1-F5).

All builders are pure functions of their inputs (seeded where randomness is
needed) and produce Arrow tables with the authoritative input schema:

    doc_id: string
    spans:  list<struct<kind: string, text: string,
                        media_ref: string, offset: int32>>
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.parquet as pq

SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)
SPANS_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", pa.list_(SPAN_STRUCT))])

OUTPUT_SPAN_STRUCT = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("order", pa.int32()),
    ]
)


def spans_table(rows: list[tuple[str, list[dict]]]) -> pa.Table:
    return pa.Table.from_pydict(
        {
            "doc_id": [doc_id for doc_id, _ in rows],
            "spans": [spans for _, spans in rows],
        },
        schema=SPANS_SCHEMA,
    )


def text_span(text: str, offset: int) -> dict:
    return {"kind": "text", "text": text, "media_ref": "", "offset": offset}


def media_span(kind: str, ref: str, offset: int) -> dict:
    return {"kind": kind, "text": "", "media_ref": ref, "offset": offset}


def split_chunks(text: str, k: int) -> list[str]:
    """Deterministic equal-size (in code points) split into k chunks —
    always codepoint-safe; may split inside tags/entities (allowed)."""
    if k <= 1 or not text:
        return [text]
    n = len(text)
    bounds = [round(i * n / k) for i in range(k + 1)]
    return [text[bounds[i] : bounds[i + 1]] for i in range(k)]


# -- F1/F2/F3: golden corpus and its offline stand-in -----------------------


def golden_rows(reference_dir: str = "/root/reference") -> list[tuple[str, str]]:
    """The reference's 7 golden pages as (doc_id, html) rows."""
    testdata = os.path.join(reference_dir, "testdata")
    if not os.path.isdir(testdata):
        raise FileNotFoundError(f"reference corpus absent at {reference_dir}")
    rows = []
    for i in range(7):
        path = os.path.join(testdata, f"{i}.html")
        rows.append((f"golden-{i}", open(path, encoding="utf-8").read()))
    return rows


_CJK_ZH = (
    "数据 处理 引擎 从 网页 中 提取 正文 内容 ， 并 去除 导航 、 广告 和 页脚 。 "
    "每 个 文本 块 都 有 词数 与 链接 密度 两 个 特征 ， 过滤 器 据此 判断 "
    "它 是否 属于 文章 主体 。 "
) * 12
_CJK_JA = (
    "この エンジン は ウェブ ページ から 本文 を 抽出 し 、 ナビゲーション "
    "や 広告 や フッター を 取り除き ます 。 各 テキスト ブロック の 単語 数 "
    "と リンク 密度 を 使って 判定 し ます 。 "
) * 12
_LATIN = (
    "spark merge filter window batch stream value column partition shuffle "
    "actor task block schema arrow table reader writer kernel extract "
)


def synthetic7_rows() -> list[tuple[str, str]]:
    """Seven generated article pages standing in for the golden corpus
    when the reference checkout is absent: pages 2 and 5 have CJK body
    text, page 4 repeats its body 50 times, and page 0 carries ld+json
    metadata (``html_for_document`` adds it to every 7th doc id)."""
    texts = [
        _LATIN * 8,
        (_LATIN[::-1] + " ") * 5,
        _CJK_ZH,
        " ".join(reversed(_LATIN.split())) * 10,
        _LATIN * 3,
        _CJK_JA,
        "short page with only a handful of words in its body",
    ]
    return [
        (f"synthetic-{i}", html_for_document(i, text, repeat=50 if i == 4 else 1))
        for i, text in enumerate(texts)
    ]


def golden7_table(rows: list[tuple[str, str]] | None = None) -> pa.Table:
    """One text span per page; ``rows`` defaults to ``golden_rows()``."""
    return spans_table([(d, [text_span(h, 0)]) for d, h in rows or golden_rows()])


def golden7_chunked_table(
    k: int, reverse: bool = False, rows: list[tuple[str, str]] | None = None
) -> pa.Table:
    out = []
    for doc_id, html in rows or golden_rows():
        chunks = split_chunks(html, k)
        spans = [text_span(c, i) for i, c in enumerate(chunks)]
        if reverse:
            spans = spans[::-1]
        out.append((doc_id, spans))
    return spans_table(out)


def golden7_interleaved_table(
    k: int = 3, rows: list[tuple[str, str]] | None = None
) -> pa.Table:
    """Chunked pages with media spans inserted between text chunks,
    offsets re-densified."""
    out = []
    for doc_id, html in rows or golden_rows():
        chunks = split_chunks(html, k)
        spans: list[dict] = []
        off = 0
        for i, c in enumerate(chunks):
            spans.append(text_span(c, off))
            off += 1
            kind = "image" if i % 2 == 0 else "video"
            spans.append(media_span(kind, f"media://{doc_id}/{i}", off))
            off += 1
        out.append((doc_id, spans))
    return spans_table(out)


# -- F5: synthetic corpus from the driver's documents table ------------------

_NAV_LINKS = (
    '<div class="nav"><a href="/">Home</a> <a href="/news">News</a> '
    '<a href="/sports">Sports</a> <a href="/about">About us</a> '
    '<a href="/contact">Contact</a></div>'
)
_FOOTER = (
    '<div class="footer"><a href="/terms">Terms of service</a> '
    '<a href="/privacy">Privacy policy</a> '
    "<p>Copyright 2026 Example News Network all rights reserved</p></div>"
)
_COMMENTS = "<div><p>Post a comment</p><p>Please rate this article</p></div>"


def first_n_tokens(text: str, n: int) -> str:
    return " ".join(text.split()[:n])


def title_for(doc_id: int, text: str) -> str:
    """The deterministic <title> used by the generator; the SQL oracle for
    the extract_titles query predicts exactly this string."""
    return f"Doc {doc_id}: {first_n_tokens(text, 5)}"


def html_for_document(doc_id: int, text: str, repeat: int = 1) -> str:
    """Deterministic article HTML wrapping a documents-table text row.

    ``repeat`` multiplies the body paragraphs (used to synthesize giant,
    skewed docs)."""
    title = title_for(doc_id, text)
    words = text.split()
    paras = []
    for _ in range(repeat):
        for i in range(0, len(words), 40):
            paras.append("<p>" + " ".join(words[i : i + 40]) + "</p>")
    body = "\n".join(paras)
    ld = ""
    if doc_id % 7 == 0:
        # schema.org Article with a headline equal to the <title> so the
        # title-resolution chain stays predictable.
        import json

        ld = (
            '<script type="application/ld+json">'
            + json.dumps(
                {
                    "@type": "Article",
                    "headline": title,
                    "datePublished": "2026-01-%02dT12:00:00Z" % (doc_id % 28 + 1),
                    "author": {"@type": "Person", "name": f"Author {doc_id % 50}"},
                }
            )
            + "</script>"
        )
    return (
        "<!DOCTYPE html><html><head><title>"
        + title
        + "</title>"
        + ld
        + "</head><body>"
        + _NAV_LINKS
        + "<h1>"
        + title
        + "</h1>\n"
        + body
        + _COMMENTS
        + _FOOTER
        + "</body></html>"
    )


def synthetic_spans_for_document(doc_id: int, text: str, giant_every: int = 0) -> list[dict]:
    """Spans for one document: deterministic chunking (k = 1 + doc_id % 3),
    media spans for every 5th doc, giant (repeated-body) docs every
    ``giant_every`` docs when set."""
    repeat = 1
    if giant_every and doc_id % giant_every == giant_every - 1:
        repeat = 50
    html = html_for_document(doc_id, text, repeat=repeat)
    k = 1 + doc_id % 3
    chunks = split_chunks(html, k)
    spans: list[dict] = []
    off = 0
    for i, c in enumerate(chunks):
        spans.append(text_span(c, off))
        off += 1
        if doc_id % 5 == 0:
            spans.append(media_span("image", f"media://syn-{doc_id}/{i}", off))
            off += 1
    return spans


def build_synthetic_corpus(
    documents_parquet: str,
    out_path: str,
    giant_every: int = 0,
    row_group_size: int = 512,
) -> str:
    """Materialize the synthetic spans table derived from a driver
    documents.parquet; cached by content key."""
    docs = pq.read_table(documents_parquet, columns=["doc_id", "text"])
    rows = []
    for doc_id, text in zip(
        docs.column("doc_id").to_pylist(), docs.column("text").to_pylist()
    ):
        rows.append(
            (
                f"syn-{doc_id:06d}",
                synthetic_spans_for_document(int(doc_id), text, giant_every),
            )
        )
    table = spans_table(rows)
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    pq.write_table(table, out_path, row_group_size=row_group_size)
    return out_path


def cached_synthetic_corpus(sf_dir: str, giant_every: int = 0) -> str:
    """Build (once) and return the synthetic spans parquet for an sf dir."""
    documents = os.path.join(sf_dir, "documents.parquet")
    key = hashlib.sha1(
        f"{documents}:{os.path.getmtime(documents)}:{giant_every}:v1".encode()
    ).hexdigest()[:12]
    out = os.path.join("/tmp/gbr_cache", f"spans_{key}.parquet")
    if not os.path.exists(out):
        build_synthetic_corpus(documents, out, giant_every)
    return out

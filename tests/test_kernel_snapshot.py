"""Offline kernel snapshot: one sha256 per document of the kernel's whole
output, over a generated corpus that needs no reference checkout.

The corpus is the seven ``synthetic7_rows()`` pages, an
``html_for_document`` ladder at about 8 KB, 64 KB and 1 MB, 600
``synthetic_spans_for_document`` pages with a 50x page every 50th (media
spans on every 5th), and seeded tag soups with CJK, astral characters,
entities and the five characters ``escape_string`` rewrites.  Only hashes
are stored (``kernel_snapshot.json``), so no page text is copied into the
repository.

Any change to kernel output fails this test.  After an intended output
change, rewrite the snapshot with ``python tests/test_kernel_snapshot.py``
from the repository root and say in the change why the output moved.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

SNAPSHOT = Path(__file__).with_name("kernel_snapshot.json")

_VOCAB = (
    "spark merge filter window batch stream value column partition shuffle "
    "actor task block schema arrow table reader writer kernel extract "
    "数据 处理 引擎 网页 正文 内容 导航 广告 この エンジン 本文 抽出 "
    "AT&amp;T &lt;tag&gt; &quot;quoted&quot; it&#39;s a&b x<y y>z \"q\" 'a' "
    "😀 𠀀 &#x1F600; &#20013;"
).split()

_SOUP = [
    *"abc <>/=\"'&;!-?\n\t好⁣😀𠀀",
    "<p>", "</p>", "<a href='x'>", "</a>", "<script>", "</script>",
    "<title>", "</title>", "<body>", "</body>", "<div>", "</div>", "<h1>",
    "</h1>", "<li>", "<ul>", "<br>", "<!--", "-->", "&amp;", "&lt;", "&gt;",
    "&quot;", "&#39;", "&#x41;", "&#x4e2d;", "&nbsp;", "&notanentity",
    "<time datetime='2020-01-02T03:04:05Z'>",
    "数据 处理 引擎 从 网页 中 提取 正文 内容 ， ",
    "plain words in a row of text for the classifier ",
    '<script type="application/ld+json">{"@type": "Article", '
    '"articleBody": "body & <b> \\"q\\" \'s"}</script>',
]


def _words(rng: random.Random, n: int) -> str:
    return " ".join(rng.choice(_VOCAB) for _ in range(n))


def snapshot_corpus() -> list[tuple[str, list[dict]]]:
    """(key, spans) rows, generated the same way on every run."""
    from go_boilerpipe_ray.sources.fixtures import (
        html_for_document,
        synthetic7_rows,
        synthetic_spans_for_document,
        text_span,
    )

    rows = [(doc_id, [text_span(html, 0)]) for doc_id, html in synthetic7_rows()]

    rng = random.Random(8)
    body = _words(rng, 400)
    unit = len(html_for_document(0, body, repeat=2)) - len(
        html_for_document(0, body, repeat=1)
    )
    for kb in (8, 64, 1024):
        repeat = max(1, (kb << 10) // unit)
        rows.append((f"ladder-{kb}k", [text_span(html_for_document(kb, body, repeat), 0)]))

    for i in range(600):
        rows.append(
            (f"page-{i:03d}", synthetic_spans_for_document(i, _words(rng, 120), giant_every=50))
        )

    for i in range(1000):
        soup = "".join(rng.choice(_SOUP) for _ in range(rng.randrange(1, 300)))
        rows.append((f"soup-{i:04d}", [text_span(soup, 0)]))
    return rows


def _digest(payload) -> str:
    blob = json.dumps(payload, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def take_snapshot() -> dict:
    from go_boilerpipe_ray.kernel.spans import extract_from_spans

    corpus = snapshot_corpus()
    docs = {}
    for key, spans in corpus:
        res = extract_from_spans(spans)
        docs[key] = _digest(
            [
                res.title,
                res.author,
                res.date.isoformat() if res.date else None,
                [list(s) for s in res.spans],
                res.n_blocks_in,
                res.n_blocks_kept,
                res.words_in,
                res.words_kept,
                res.error,
            ]
        )
    return {"corpus_sha256": _digest(corpus), "docs": docs}


def test_kernel_output_matches_snapshot():
    want = json.loads(SNAPSHOT.read_text())
    got = take_snapshot()
    assert got["corpus_sha256"] == want["corpus_sha256"], (
        "the snapshot corpus changed (a fixture generator moved); rewrite the "
        "snapshot at a commit whose kernel output is known good"
    )
    moved = sorted(k for k in want["docs"] if got["docs"].get(k) != want["docs"][k])
    assert not moved and got["docs"].keys() == want["docs"].keys(), (
        f"kernel output changed on {len(moved)} documents, first: {moved[:5]}"
    )


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    SNAPSHOT.write_text(json.dumps(take_snapshot(), indent=0, sort_keys=True) + "\n")
    print(f"wrote {SNAPSHOT}")

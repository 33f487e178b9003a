"""Parse the reference's golden expectations out of its Example test.

The conformance oracle lives as Go Example output in
/root/reference/filter_test.go:78+ : for each of the 7 testdata HTML pages,
the expected title, an optional formatted date, the normalized URL, and the
base64 of doc.Content().  We read the (public, read-only) file at test time
rather than copying the strings into this repo.
"""

from __future__ import annotations

import base64
import os
import re
from dataclasses import dataclass

REFERENCE_DIR = os.environ.get("BOILERPIPE_REFERENCE", "/root/reference")


@dataclass
class Golden:
    index: int
    url: str
    title: str
    date: str | None  # "January 2, 2006" format, or None
    norm_url: str
    content: str
    html: str


_URL_RE = re.compile(r'^\s*"(https?://[^"]+)",\s*$', re.M)


def load_goldens() -> list[Golden]:
    if not os.path.isdir(REFERENCE_DIR):
        raise FileNotFoundError(f"reference corpus absent at {REFERENCE_DIR}")
    src = open(os.path.join(REFERENCE_DIR, "filter_test.go"), encoding="utf-8").read()
    urls = _URL_RE.findall(src)
    assert len(urls) == 7, urls

    out_start = src.index("// Output:")
    lines = []
    for line in src[out_start:].splitlines()[1:]:
        line = line.strip()
        if not line.startswith("//"):
            break
        lines.append(line[2:].lstrip(" "))

    # Records are separated by blank comment lines; each record is
    # [title, date?, norm_url, base64_content].
    records: list[list[str]] = [[]]
    for line in lines:
        if line == "":
            records.append([])
        else:
            records[-1].append(line)
    records = [r for r in records if r]
    assert len(records) == 7, len(records)

    goldens = []
    for i, rec in enumerate(records):
        title = rec[0]
        if len(rec) == 4:
            date, norm_url, b64 = rec[1], rec[2], rec[3]
        else:
            date, norm_url, b64 = None, rec[1], rec[2]
        html = open(
            os.path.join(REFERENCE_DIR, "testdata", f"{i}.html"), encoding="utf-8"
        ).read()
        goldens.append(
            Golden(
                index=i,
                url=urls[i],
                title=title,
                date=date,
                norm_url=norm_url,
                content=base64.b64decode(b64).decode("utf-8"),
                html=html,
            )
        )
    return goldens

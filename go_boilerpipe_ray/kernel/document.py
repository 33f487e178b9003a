"""Document model, ParseDocument entry point and output projections.

Semantics cloned from /root/reference/boilerpipe.go: the tokenizer loop with
malformed-void-start-tag skipping and ld+json capture, Go encoding/json
partial-unmarshal behavior for the schema.org Article candidates, the
metadata resolution chain, and the exact 5-entity HTML escape of Text().
"""

from __future__ import annotations

import datetime as _dt
import json

from .atoms import atom_of
from .handler import SHOULD_BE_SELF_CLOSING, ContentHandler, parse_rfc3339
from .htmltok import END_TAG, START_TAG, TEXT, Tokenizer
from .textblock import TextBlock


class LinkedDataAuthor:
    __slots__ = ("type", "name")

    def __init__(self):
        self.type = ""
        self.name = ""


class LinkedDataArticle:
    __slots__ = ("type", "headline", "date_published", "author", "body")

    def __init__(self):
        self.type = ""
        self.headline = ""
        self.date_published: _dt.datetime | None = None
        self.author = LinkedDataAuthor()
        self.body = ""


def _assign_str(obj, attr, val) -> bool:
    """Go json string-field semantics: null = no-op ok; non-string = type
    error (field untouched, decode continues)."""
    if val is None:
        return True
    if isinstance(val, str):
        setattr(obj, attr, val)
        return True
    return False


def _unmarshal_linked_data(s: str, art: LinkedDataArticle) -> bool:
    """Mimic ``json.Unmarshal(s, &art)``: syntax errors touch nothing;
    type errors leave the offending field but keep decoding the rest
    (partial mutation), returning ok=False.  Keys match tags
    case-insensitively, last occurrence wins."""
    try:
        data = json.loads(s)
    except ValueError:
        return False
    if not isinstance(data, dict):
        return False

    ok = True
    for key, val in data.items():
        lk = key.lower()
        if lk == "@type":
            ok = _assign_str(art, "type", val) and ok
        elif lk == "headline":
            ok = _assign_str(art, "headline", val) and ok
        elif lk == "articlebody":
            ok = _assign_str(art, "body", val) and ok
        elif lk == "datepublished":
            if val is None:
                continue  # time.Time.UnmarshalJSON("null") is a no-op
            # time.Time implements json.Unmarshaler; an error returned by
            # UnmarshalJSON (non-string input or bad RFC3339) propagates up
            # and ABORTS the whole object decode — keys after the bad date
            # are never processed — unlike plain type errors which are
            # saved via d.saveError and decoding continues.
            if not isinstance(val, str):
                return False
            t = parse_rfc3339(val)
            if t is None:
                return False
            art.date_published = t
        elif lk == "author":
            if val is None:
                continue
            if not isinstance(val, dict):
                ok = False
                continue
            for akey, aval in val.items():
                alk = akey.lower()
                if alk == "@type":
                    ok = _assign_str(art.author, "type", aval) and ok
                elif alk == "name":
                    ok = _assign_str(art.author, "name", aval) and ok
    return ok


def escape_string(s: str) -> str:
    """Go html.EscapeString: exactly these 5 entities.  ``&`` goes first so
    that no entity written by a later replace is escaped again.  Chained
    ``str.replace`` rather than ``str.translate``: a translate table with
    multi-character values always takes CPython's slow path."""
    return (
        s.replace("&", "&amp;")
        .replace("'", "&#39;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&#34;")
    )


def _go_trim_space_newline(s: str) -> str:
    return s.strip(" \n")


def string_to_html(s: str) -> str:
    """Debug HTML view of extracted text (cmd/boilerpipe/serve.go:150-170):
    each newline closes a paragraph, the next character lazily opens one.
    Faithful quirks: the text is NOT HTML-escaped, and a final segment not
    terminated by a newline is left as an unclosed ``<p>``."""
    parts = s.split("\n")
    out = "".join(f"<p>{seg}</p>" for seg in parts[:-1])
    if parts[-1]:
        out += f"<p>{parts[-1]}"
    return out


class Document:
    def __init__(self):
        self.title = ""
        self.author = ""
        self.date: _dt.datetime | None = None
        self.text_blocks: list[TextBlock] = []
        self.linked_data = LinkedDataArticle()

    def text(self, include_content: bool, include_non_content: bool) -> str:
        parts: list[str] = []
        for tb in self.text_blocks:
            if tb.is_content:
                if not include_content:
                    continue
            else:
                if not include_non_content:
                    continue
            parts.append(tb.text)
            parts.append("\n")
        return escape_string(_go_trim_space_newline("".join(parts)))

    def content(self) -> str:
        if self.linked_data.body != "":
            return self.linked_data.body
        return self.text(True, False)

    def has_title(self) -> bool:
        # Faithful to the reference bug: checks the DATE, not the title
        # (boilerpipe.go:84-86).
        return self.date is not None

    def content_block_texts(self) -> list[str]:
        """Escaped text of each content block, in document order; joining
        with '\\n' reproduces ``text(True, False)`` exactly (block text is
        never empty and never starts/ends with ' ' or '\\n' at creation —
        merged blocks only contain internal newlines)."""
        return [escape_string(tb.text) for tb in self.text_blocks if tb.is_content]


def parse_document(html: str) -> Document:
    """ParseDocument (boilerpipe.go:34-74): run the tokenizer loop through
    the content handler, then resolve ld+json metadata."""
    h = ContentHandler()
    in_ldjson = False
    ldjson: list[str] = []

    for tt, data, attrs, _raw_start, raw_end in Tokenizer(html):
        if tt == TEXT:
            if in_ldjson:
                ldjson.append(data)
            h.text_token(data, raw_end)
        elif tt == START_TAG:
            a = atom_of(data)
            if a in SHOULD_BE_SELF_CLOSING:
                # Malformed start tag of a void element: skip.
                continue
            if a == "script":
                for key, val in attrs:
                    if key == "type" and val == "application/ld+json":
                        in_ldjson = True
            h.start_element(data, attrs, a)
        elif tt == END_TAG:
            if in_ldjson:
                in_ldjson = False
            h.end_element(data)
        # SELF_CLOSING / COMMENT / DOCTYPE: ignored.

    h.flush_block()

    doc = Document()
    for s in ldjson:
        if not _unmarshal_linked_data(s, doc.linked_data):
            continue  # try the next if multiple
        if doc.linked_data.type == "Article":
            break

    if doc.linked_data.headline != "":
        doc.title = doc.linked_data.headline
    else:
        doc.title = h.title

    doc.author = doc.linked_data.author.name

    if doc.linked_data.date_published is not None:
        doc.date = doc.linked_data.date_published
    else:
        doc.date = h.time

    doc.text_blocks = h.text_blocks
    return doc

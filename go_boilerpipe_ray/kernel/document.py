"""Document model, ParseDocument entry point and output projections.

Semantics cloned from /root/reference/boilerpipe.go: the tokenizer loop with
malformed-void-start-tag skipping and ld+json capture, Go encoding/json
partial-unmarshal behavior for the schema.org Article candidates, the
metadata resolution chain, and the exact 5-entity HTML escape of Text().

``parse_document`` is one pass over the HTML string: it scans the
tokenizer's data state and applies the content handler's events in the
same loop, as the reference drives its handler straight off the tokenizer.
tests/test_parse_document.py keeps the two-layer form (a loop over
``Tokenizer`` tokens calling handler event methods) as its oracle.
"""

from __future__ import annotations

import datetime as _dt
import json

from .atoms import ATOMS, UNKNOWN
from .handler import (
    SHOULD_BE_SELF_CLOSING,
    TAG_ACTION_MAP,
    ContentHandler,
    TagAction,
    parse_rfc3339,
    space_remove,
)
from .htmltok import (
    _FAST_TAG_RE,
    MARKUP_OPENERS,
    NEED_ATTRS,
    RAW_TAGS,
    SELF_CLOSING,
    Tokenizer,
    _ascii_lower,
    _convert_newlines,
    unescape,
)
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


# One lookup per tag name gives everything the parse loop needs: the
# atom, the tag action (None: an unknown tag, which changes the tag level
# and asks for a flush), whether a start tag is skipped as a malformed void
# element, the raw-text state it opens ('' for none), and whether its
# attributes are read (script: ld+json type; time: datetime).  Keys are the
# lowercase atoms only, so a name with an upper-case letter misses and is
# looked up again lowercased.
_TAGS: dict[str, tuple[str, TagAction | None, bool, str, bool]] = {
    a: (
        a,
        TAG_ACTION_MAP.get(a),
        a in SHOULD_BE_SELF_CLOSING,
        a if a in RAW_TAGS else "",
        a in NEED_ATTRS,
    )
    for a in ATOMS
    if a == a.lower()
}
_UNKNOWN_TAG = (UNKNOWN, None, False, "", False)


def _tag_entry(name: str) -> tuple[str, TagAction | None, bool, str, bool]:
    return _TAGS.get(name) or _TAGS.get(_ascii_lower(name), _UNKNOWN_TAG)


# A tag written as just '<' + a lowercase atom + '>' (or '</' ... '>') is
# recognised by finding its '>' at most this far from the '<' and looking
# the name up, without a regex match: that is what _FAST_TAG_RE would make
# of it, since atoms hold no whitespace, '/', '=' or '>'.
_SIMPLE_TAG_SPAN = 16


def parse_document(html: str) -> Document:
    """ParseDocument (boilerpipe.go:34-74): one pass over the HTML that
    scans the tokenizer's data state and applies the content handler's
    text, start-tag and end-tag events as it goes, then resolves ld+json
    metadata.

    The loop finds each '<' with ``str.find`` and matches tags with the
    tokenizer's ``_FAST_TAG_RE``; the rare tokenizer states (raw text,
    RCDATA, script data, comments and doctype, attribute-reading tags) are
    the ``Tokenizer`` methods, called at the current position.  The
    handler state that tag actions and ``flush_block`` touch lives on the
    ``ContentHandler``; what only this loop touches (flush flag, tag
    depth, atom stack) is local."""
    h = ContentHandler()
    tok = Tokenizer(html)
    s, n = html, len(html)
    token_buffer = h.token_buffer
    text_buffer = h.text_buffer
    label_pop = h.label_stack.pop
    tags_get = _TAGS.get
    fast_tag = _FAST_TAG_RE.match
    atom_stack: list[str] = []
    depth_tag = 0
    flush = False
    in_ldjson = False
    ldjson: list[str] = []

    pos = 0
    while pos < n:
        # -- the next text token, if any, and the '<' of the next markup ----
        if tok.raw_tag:
            tok.pos = pos
            text, _, text_end = tok.read_raw_text()
            pos = tok.pos
            lt = -1
        else:
            lt = s.find("<", pos)
            while 0 <= lt < n - 1 and s[lt + 1] not in MARKUP_OPENERS:
                lt = s.find("<", lt + 1)  # '<' is part of text
            if lt < 0 or lt >= n - 1:
                lt = -1
                text_end = n
            else:
                text_end = lt
            text = s[pos:text_end]
            if "\r" in text:
                text = _convert_newlines(text)
            if "&" in text:
                text = unescape(text, False)
            pos = text_end

        # -- text event (a text token is never empty: '' means none) ---------
        if text:
            if in_ldjson:
                ldjson.append(text)
            if flush:
                # An empty buffer flushes to nothing (and has
                # buffer_src_end == -1 already), so the call is skipped.
                if token_buffer:
                    h.flush_block()
                flush = False
            if h.depth_ignoreable == 0:
                mapped, was_first, was_last = space_remove(text)
                ch = mapped.strip(" ")  # mapped whitespace is all ' ' already
                if not ch:
                    # was_first and was_last: mapped is one space.
                    if not h.last_was_whitespace:
                        text_buffer.append(" ")
                        token_buffer.append(" ")
                        h.last_was_whitespace = True
                else:
                    if was_first and not h.last_was_whitespace:
                        text_buffer.append(" ")
                        token_buffer.append(" ")
                    if h.depth_block_tag == -1:
                        h.depth_block_tag = depth_tag
                    text_buffer.append(ch)
                    token_buffer.append(ch)
                    if was_last:
                        text_buffer.append(" ")
                        token_buffer.append(" ")
                    h.last_was_whitespace = was_last
                    h.buffer_src_end = text_end
        if lt < 0:
            continue

        # -- markup at lt ----------------------------------------------------
        c = s[lt + 1]
        if c == "/":
            if lt + 2 >= n:
                break  # '</' at EOF: no token
            c = s[lt + 2]
            if not (("a" <= c <= "z") or ("A" <= c <= "Z")):
                tok.pos = lt + 2
                tok.read_nameless_end_tag()
                pos = tok.pos
                continue
            gt = s.find(">", lt + 3, lt + _SIMPLE_TAG_SPAN)
            entry = tags_get(s[lt + 2 : gt]) if gt > 0 else None
            if entry is None:
                m = fast_tag(s, lt + 2)
                if not m.group(2):
                    break  # tag truncated at EOF: no token
                gt = m.end() - 1
                entry = _tag_entry(m.group(1))
            pos = gt + 1
            # -- end-tag event -------------------------------------------
            in_ldjson = False
            atom, action = entry[0], entry[1]
            if (atom_stack.pop() if atom_stack else "") != atom:
                continue  # malformed HTML, missing closing tag
            if action is None:
                flush = True
                depth_tag -= 1
            else:
                if action.end(h):
                    flush = True
                if action.changes_tag_level:
                    depth_tag -= 1
            # The flush flag is NOT cleared here: only a text token clears
            # it (content_handler.go:145-147).
            if flush and token_buffer:
                h.flush_block()
            label_pop()
            continue

        if c == "!" or c == "?":
            tok.pos = lt + 1
            tok.read_markup()
            pos = tok.pos
            continue

        gt = s.find(">", lt + 2, lt + _SIMPLE_TAG_SPAN)
        entry = tags_get(s[lt + 1 : gt]) if gt > 0 else None
        if entry is not None:
            end = gt + 1
        else:
            m = fast_tag(s, lt + 1)
            entry = _tag_entry(m.group(1))
            end = m.end() if m.group(2) else -1
        atom, action, skip, raw, need_attrs = entry
        if need_attrs:
            t = tok.read_start_tag(lt)  # sets tok.raw_tag for <script>
            if t is None:
                break
            pos = t[4]
            if t[0] == SELF_CLOSING:
                continue
            if atom == "script":
                for key, val in t[2]:
                    if key == "type" and val == "application/ld+json":
                        in_ldjson = True
            else:  # <time>
                for key, val in t[2]:
                    if key == "datetime":
                        dt = parse_rfc3339(val)
                        if dt is not None:
                            h.time = dt
                        break
        else:
            if end < 0:
                break  # tag truncated at EOF: no token
            pos = end
            if raw:
                tok.raw_tag = raw
            if s[pos - 2] == "/" or skip:
                # Self-closing tags are ignored; so are start tags of void
                # elements, which should have been self-closing.
                continue
        # -- start-tag event -------------------------------------------------
        atom_stack.append(atom)
        if action is None:
            depth_tag += 1
            flush = True
        else:
            if action.changes_tag_level:
                depth_tag += 1
            if action.start(h):
                flush = True
        h.last_start_tag = atom

    if token_buffer:
        h.flush_block()
    return document_from(h, ldjson)


def document_from(h: ContentHandler, ldjson: list[str]) -> Document:
    """The Document of a finished parse: ld+json metadata (the candidates'
    text, in document order) over what the handler found."""
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

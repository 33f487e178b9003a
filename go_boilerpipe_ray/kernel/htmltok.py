"""HTML tokenizer with the behavior of golang.org/x/net/html's Tokenizer.

The reference drives its whole parse off that tokenizer (a WHATWG HTML5
*tokenizer without tree construction*, /root/reference/boilerpipe.go:111).
Python's stdlib ``html.parser`` diverges on raw-text elements (it only
treats script/style as CDATA; the Go tokenizer also treats iframe, noembed,
noframes, noscript, plaintext, textarea, title and xmp as raw/RCDATA), on
entity decoding contexts and on malformed-markup recovery — so we implement
the tokenizer ourselves, following the public x/net/html state machine.

Tokens are lightweight tuples; tag names and attribute keys are ASCII
lowercased; attribute values are newline-converted and entity-unescaped in
attribute context; text tokens are unescaped unless raw (script/style/...;
title and textarea RCDATA *are* unescaped).

The extraction parse does not iterate tokens: ``document.parse_document``
scans the data state itself (the '<' search and ``_FAST_TAG_RE``, as
``__iter__`` does) and calls the methods here for the rare states — raw
text, RCDATA, script data and plaintext (``read_raw_text``), comments,
doctype and bogus comments (``read_markup``, ``read_nameless_end_tag``)
and attribute-reading start tags (``read_start_tag``).  ``__iter__`` is
built on the same methods and serves the tokenizer tests and probes.
"""

from __future__ import annotations

import re as _re
from html.entities import html5 as _HTML5_ENTITIES

TEXT = 0
START_TAG = 1
END_TAG = 2
SELF_CLOSING = 3
COMMENT = 4
DOCTYPE = 5

_WS = " \n\r\t\f"

# Tags that switch the tokenizer into raw-text mode (x/net/html readStartTag).
RAW_TAGS = frozenset(
    [
        "iframe",
        "noembed",
        "noframes",
        "noscript",
        "plaintext",
        "script",
        "style",
        "textarea",
        "title",
        "xmp",
    ]
)
# RCDATA subset of the raw tags: their text is entity-unescaped.
_RCDATA_TAGS = frozenset(["textarea", "title"])

# Characters after '<' that begin markup (a tag, an end tag, a comment or
# doctype, a bogus comment); after any other character the '<' is text.
MARKUP_OPENERS = frozenset(
    "/!?abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)


_ASCII_LOWER_CACHE: dict[str, str] = {}


def _ascii_lower(s: str) -> str:
    # Go lowercases tag names / attr keys byte-wise for 'A'..'Z' only.
    # Tag names and attribute keys come from a tiny vocabulary, so a
    # bounded memo beats re-running translate per token.
    hit = _ASCII_LOWER_CACHE.get(s)
    if hit is not None:
        return hit
    out = s.translate(_ASCII_LOWER_TABLE)
    if len(s) <= 32:
        if len(_ASCII_LOWER_CACHE) > 16384:
            _ASCII_LOWER_CACHE.clear()
        _ASCII_LOWER_CACHE[s] = out
    return out


_ASCII_LOWER_TABLE = {c: c + 32 for c in range(ord("A"), ord("Z") + 1)}


def _convert_newlines(s: str) -> str:
    if "\r" not in s:
        return s
    return s.replace("\r\n", "\n").replace("\r", "\n")


# ---------------------------------------------------------------------------
# Entity unescaping (x/net/html escape.go semantics)
# ---------------------------------------------------------------------------

# html.entities.html5 maps names both with and without trailing ';' to their
# expansions — the same data as Go's entity/entity2 tables.
_LONGEST_ENTITY_WITHOUT_SEMICOLON = max(
    len(k) for k in _HTML5_ENTITIES if not k.endswith(";")
)

# Numeric reference replacements for 0x80..0x9F (WHATWG / Go replacementTable).
_REPLACEMENT_TABLE = [
    "€", "", "‚", "ƒ", "„", "…", "†",
    "‡", "ˆ", "‰", "Š", "‹", "Œ", "",
    "Ž", "", "", "‘", "’", "“", "”",
    "•", "–", "—", "˜", "™", "š", "›",
    "œ", "", "ž", "Ÿ",
]


def _unescape_entity(s: str, i: int, in_attribute: bool) -> tuple[str, int]:
    """Decode one entity at s[i] == '&'. Returns (text, next_index).

    Mirrors x/net/html unescapeEntity: numeric refs with WHATWG
    replacements; named refs by exact match, with non-attribute
    longest-prefix fallback for legacy no-semicolon entities.
    """
    n = len(s)
    # i points at '&'
    if i + 1 < n and s[i + 1] == "#":
        j = i + 2
        hexadecimal = False
        if j < n and s[j] in "xX":
            hexadecimal = True
            j += 1
        start = j
        x = 0
        while j < n:
            c = s[j]
            if hexadecimal and c in "0123456789abcdefABCDEF":
                x = x * 16 + int(c, 16)
            elif not hexadecimal and c.isdigit() and c.isascii():
                x = x * 10 + int(c)
            else:
                break
            j += 1
        if j == start:
            # No digits: emit "&#"/"&#x" literally.
            return s[i:j], j
        if j < n and s[j] == ";":
            j += 1
        if x == 0 or 0xD800 <= x <= 0xDFFF or x > 0x10FFFF:
            return "�", j
        if 0x80 <= x <= 0x9F:
            return _REPLACEMENT_TABLE[x - 0x80], j
        return chr(x), j

    # Named entity: consume the maximal alphanumeric run (+ optional ';').
    j = i + 1
    while j < n:
        c = s[j]
        if ("a" <= c <= "z") or ("A" <= c <= "Z") or ("0" <= c <= "9"):
            j += 1
            continue
        if c == ";":
            j += 1
        break
    name = s[i + 1 : j]
    if not name:
        return "&", i + 1
    if in_attribute and not name.endswith(";") and j < n and s[j] == "=":
        return "&", i + 1
    expansion = _HTML5_ENTITIES.get(name)
    if expansion is not None:
        return expansion, j
    if not in_attribute:
        base = name[:-1] if name.endswith(";") else name
        max_len = min(len(name) - 1, _LONGEST_ENTITY_WITHOUT_SEMICOLON)
        del base
        for k in range(max_len, 1, -1):
            expansion = _HTML5_ENTITIES.get(name[:k])
            if expansion is not None:
                return expansion, i + 1 + k
    return "&", i + 1


def unescape(s: str, in_attribute: bool = False) -> str:
    if "&" not in s:
        return s
    out: list[str] = []
    i = 0
    n = len(s)
    while True:
        a = s.find("&", i)
        if a < 0:
            out.append(s[i:])
            break
        out.append(s[i:a])
        text, i = _unescape_entity(s, a, in_attribute)
        out.append(text)
    return "".join(out)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------


# Tokens are plain 5-tuples (tt, data, attrs, raw_start, raw_end):
#   data  — tag name (ASCII-lower) or text payload
#   attrs — list[(key, val)] (keys lowered, vals unescaped) or None
#   raw_* — source offsets of the raw token bytes


# One-regex scan of a whole tag (name + attribute soup), encoding exactly
# the x/net/html readTag character rules: attribute keys end at
# ws / '/' / '=' / '>' (a leading '=' belongs to the key), quotes only
# quote in value position after '=', unquoted values end at ws / '>',
# a quoted value may cross '>'.  Used on the hot path for tags whose
# attributes nobody reads; script/time fall back to the char parser which
# also materializes attrs.  Every loop alternative consumes ≥1 char, so
# the scan cannot stall.
_WS_CLS = r"[\t\n\r\f ]"
_FAST_TAG_RE = _re.compile(
    r"([a-zA-Z][^\t\n\r\f />]*)"  # 1: tag name
    r"(?:" + _WS_CLS + r"*"
    # attr key: empty (terminated by '/'), leading-'=' (WHATWG 13.2.5.32:
    # '=' before the name is part of the name), or a normal key.
    r"(?:/"
    r"|=[^\t\n\r\f /=>]*"
    r"|[^\t\n\r\f /=>]+"
    r")"
    # _read_attr_val runs after EVERY key (even an empty '/'-terminated
    # one): optional ws* '=' ws* then a quote-aware value — a quote right
    # after '=' starts a quoted value that may swallow '>' and run to EOF.
    r"(?:" + _WS_CLS + r"*=" + _WS_CLS + r"*"
    r"(?:\"[^\"]*\"?|'[^']*'?|[^\t\n\r\f >]*)"
    r")?"
    r")*"
    + _WS_CLS + r"*(>?)"  # 2: present iff the tag closed before EOF
)

# Tags whose attributes are actually consumed downstream (script: ld+json
# type check; time: datetime; both in parse_document) — routed to the
# attribute-materializing char parser.
NEED_ATTRS = frozenset(["script", "time"])


class Tokenizer:
    """Pull tokenizer over a str; ``__iter__`` yields Tokens until EOF.

    Fast path note: attribute lists are materialized only for tags in
    ``NEED_ATTRS`` (plus anything parsed via the slow path); other tags
    carry ``attrs == []``.  Pass ``fast=False`` to force the reference
    char-by-char parser for every tag (used by differential tests)."""

    def __init__(self, src: str, fast: bool = True):
        self.src = src
        self.n = len(src)
        self.pos = 0
        self.raw_tag = ""  # pending raw-text element name
        self.fast = fast

    # -- raw-text ----------------------------------------------------------

    def _read_raw_end_tag(self, pos: int) -> int:
        """If src[pos:] starts with '</' + raw_tag + delimiter, return the
        index of '<' (the caller rewinds there); else -1.  pos points at the
        character after '</'."""
        tag = self.raw_tag
        end = pos + len(tag)
        if _ascii_lower(self.src[pos:end]) != tag:
            return -1
        if end >= self.n:
            return -1
        c = self.src[end]
        if c in _WS or c in "/>":
            return pos - 2
        return -1

    def _read_raw_or_rcdata(self) -> tuple[int, int]:
        """Consume raw text up to (not including) the matching end tag.
        Returns (start, end) of the text span; self.pos is left at the '<'
        of the end tag (or EOF)."""
        s, n = self.src, self.n
        start = self.pos
        i = self.pos
        while True:
            lt = s.find("</", i)
            if lt < 0:
                i = n
                break
            back = self._read_raw_end_tag(lt + 2)
            if back >= 0:
                i = back
                break
            i = lt + 2
        self.pos = i
        self.raw_tag = ""
        return start, i

    def read_raw_text(self) -> tuple[str, int, int]:
        """The raw-text states (raw text, RCDATA, script data, plaintext) of
        the element named by ``raw_tag``: consume its text up to the
        matching end tag (to EOF for plaintext, which never leaves raw
        mode).  Returns (text, start, end); text is '' when the element is
        empty, in which case no token is produced."""
        tag = self.raw_tag
        if tag == "plaintext":
            start = self.pos
            end = self.pos = self.n
        elif tag == "script":
            start, end = self._read_script()
        else:
            start, end = self._read_raw_or_rcdata()
        if end <= start:
            return "", start, end
        text = _convert_newlines(self.src[start:end]).replace("\x00", "\ufffd")
        if tag in _RCDATA_TAGS:
            text = unescape(text, False)
        return text, start, end

    def _read_script(self) -> tuple[int, int]:
        """Script data state machine (x/net/html readScript): handles
        <!-- ... --> escaped and double-escaped script content so that
        '</script>' inside them does not end the element."""
        s, n = self.src, self.n
        start = self.pos

        # Fast path: if no '<!--' occurs before the first well-formed
        # '</script' delimiter, the escape states can never engage — jump
        # straight to the end tag.
        i = self.pos
        while True:
            lt = s.find("</", i)
            if lt < 0:
                if s.find("<!--", self.pos) < 0:
                    self.pos = n
                    self.raw_tag = ""
                    return start, n
                break
            back = self._read_raw_end_tag(lt + 2)
            if back >= 0:
                bang = s.find("<!--", self.pos, back)
                if bang < 0:
                    self.pos = back
                    self.raw_tag = ""
                    return start, back
                break
            i = lt + 2

        i = self.pos

        def read():
            nonlocal i
            if i >= n:
                return None
            c = s[i]
            i += 1
            return c

        state = "data"
        while True:
            if state == "data":
                c = read()
                if c is None:
                    break
                if c == "<":
                    state = "lt"
            elif state == "lt":
                c = read()
                if c is None:
                    break
                if c == "/":
                    back = self._read_raw_end_tag(i)
                    if back >= 0:
                        i = back
                        break
                    state = "data"
                elif c == "!":
                    state = "escape_start"
                else:
                    i -= 1
                    state = "data"
            elif state == "escape_start":
                c = read()
                if c is None:
                    break
                if c == "-":
                    state = "escape_start_dash"
                else:
                    i -= 1
                    state = "data"
            elif state == "escape_start_dash":
                c = read()
                if c is None:
                    break
                if c == "-":
                    state = "escaped_dash_dash"
                else:
                    i -= 1
                    state = "data"
            elif state == "escaped":
                c = read()
                if c is None:
                    break
                if c == "-":
                    state = "escaped_dash"
                elif c == "<":
                    state = "escaped_lt"
            elif state == "escaped_dash":
                c = read()
                if c is None:
                    break
                if c == "-":
                    state = "escaped_dash_dash"
                elif c == "<":
                    state = "escaped_lt"
                else:
                    state = "escaped"
            elif state == "escaped_dash_dash":
                c = read()
                if c is None:
                    break
                if c == "-":
                    pass
                elif c == "<":
                    state = "escaped_lt"
                elif c == ">":
                    state = "data"
                else:
                    state = "escaped"
            elif state == "escaped_lt":
                c = read()
                if c is None:
                    break
                if c == "/":
                    back = self._read_raw_end_tag(i)
                    if back >= 0:
                        i = back
                        break
                    state = "escaped"
                elif c is not None and (("a" <= c <= "z") or ("A" <= c <= "Z")):
                    i -= 1
                    state = "double_escape_start"
                else:
                    i -= 1
                    state = "escaped"
            elif state == "double_escape_start":
                matched = True
                for ch in "script":
                    c = read()
                    if c is None:
                        matched = False
                        break
                    if c != ch and c != ch.upper():
                        i -= 1
                        matched = False
                        break
                if c is None and not matched:
                    break
                if not matched:
                    state = "escaped"
                    continue
                c = read()
                if c is None:
                    break
                if c in _WS or c in "/>":
                    state = "double_escaped"
                else:
                    i -= 1
                    state = "escaped"
            elif state == "double_escaped":
                c = read()
                if c is None:
                    break
                if c == "-":
                    state = "double_escaped_dash"
                elif c == "<":
                    state = "double_escaped_lt"
            elif state == "double_escaped_dash":
                c = read()
                if c is None:
                    break
                if c == "-":
                    state = "double_escaped_dash_dash"
                elif c == "<":
                    state = "double_escaped_lt"
                else:
                    state = "double_escaped"
            elif state == "double_escaped_dash_dash":
                c = read()
                if c is None:
                    break
                if c == "-":
                    pass
                elif c == "<":
                    state = "double_escaped_lt"
                elif c == ">":
                    state = "data"
                else:
                    state = "double_escaped"
            elif state == "double_escaped_lt":
                c = read()
                if c is None:
                    break
                if c == "/":
                    back = self._read_raw_end_tag(i)
                    if back >= 0:
                        # Consume '</script>' as script data, back to data
                        # state (x/net/html readScript scriptDataDoubleEscapeEnd).
                        i = back + len("</script>")
                        state = "data"
                    else:
                        state = "double_escaped"
                else:
                    i -= 1
                    state = "double_escaped"

        if i > n:
            i = n
        self.pos = i
        self.raw_tag = ""
        return start, i

    # -- tags --------------------------------------------------------------

    def _skip_ws(self):
        s, n = self.src, self.n
        i = self.pos
        while i < n and s[i] in _WS:
            i += 1
        self.pos = i

    def _read_tag_name(self) -> str:
        # self.pos is one past the first name character.
        s, n = self.src, self.n
        start = self.pos - 1
        i = self.pos
        while i < n:
            c = s[i]
            if c in _WS:
                name = s[start:i]
                i += 1
                self.pos = i
                return name
            if c in "/>":
                self.pos = i
                return s[start:i]
            i += 1
        self.pos = i
        return s[start:i]

    def _read_attr_key(self) -> str:
        s, n = self.src, self.n
        start = self.pos
        i = self.pos
        while i < n:
            c = s[i]
            if c in _WS or c == "/":
                self.pos = i + 1
                return s[start:i]
            if c == "=" and i == start:
                # WHATWG 13.2.5.32: '=' before the attribute name is part
                # of the name.
                i += 1
                continue
            if c in "=>":
                self.pos = i
                return s[start:i]
            i += 1
        self.pos = i
        return s[start:i]

    def _read_attr_val(self) -> str:
        s, n = self.src, self.n
        self._skip_ws()
        if self.pos >= n:
            return ""
        c = s[self.pos]
        if c != "=":
            return ""
        self.pos += 1
        self._skip_ws()
        if self.pos >= n:
            return ""
        quote = s[self.pos]
        self.pos += 1
        if quote == ">":
            self.pos -= 1
            return ""
        if quote in "'\"":
            start = self.pos
            i = self.pos
            while i < n and s[i] != quote:
                i += 1
            val = s[start:i]
            self.pos = min(i + 1, n)
            return val
        # Unquoted value (starts at the char just read).
        start = self.pos - 1
        i = self.pos
        while i < n:
            c = s[i]
            if c in _WS:
                val = s[start:i]
                self.pos = i + 1
                return val
            if c == ">":
                self.pos = i
                return s[start:i]
            i += 1
        self.pos = i
        return s[start:i]

    def _read_tag(self, save_attr: bool) -> list[tuple[str, str]]:
        attrs: list[tuple[str, str]] = []
        name = self._read_tag_name()
        self._skip_ws()
        s, n = self.src, self.n
        self._eof_in_tag = True
        while self.pos < n:
            c = s[self.pos]
            self.pos += 1
            if c == ">":
                self._eof_in_tag = False
                break
            self.pos -= 1
            key = self._read_attr_key()
            val = self._read_attr_val()
            if save_attr and key:
                attrs.append(
                    (_ascii_lower(key), unescape(_convert_newlines(val), True))
                )
            self._skip_ws()
        self._name = name
        return attrs

    def read_start_tag(self, lt: int):
        """Start tag at ``src[lt] == '<'`` with its attributes materialized
        (the char-by-char parser).  Returns the START_TAG or SELF_CLOSING
        token, or None for a tag truncated at EOF."""
        self.pos = lt + 2  # one past the first name character
        attrs = self._read_tag(True)
        if self._eof_in_tag:
            # Go returns ErrorToken for a tag truncated at EOF: no token.
            return None
        name = self._name
        lname = _ascii_lower(name)
        if lname in RAW_TAGS:
            self.raw_tag = lname
        tt = START_TAG
        raw_end = self.pos
        # Self-closing: the byte before the final '>' is '/'.
        if raw_end >= 2 and self.src[raw_end - 2 : raw_end] == "/>":
            tt = SELF_CLOSING
        return (tt, lname, attrs, lt, raw_end)

    # -- comments / declarations -------------------------------------------

    def _read_until_close_angle(self):
        i = self.src.find(">", self.pos)
        self.pos = self.n if i < 0 else i + 1

    def _read_comment(self):
        # self.pos is just past '<!--'; dashCount starts at 2 so '<!-->'
        # closes immediately (x/net/html readComment).
        s, n = self.src, self.n
        i = self.pos
        dash_count = 2
        while i < n:
            c = s[i]
            i += 1
            if c == "-":
                dash_count += 1
                continue
            if c == ">" and dash_count >= 2:
                break
            if c == "!" and dash_count >= 2:
                if i < n and s[i] == ">":
                    i += 1
                    break
            dash_count = 0
        self.pos = i

    def read_markup(self) -> int:
        """'<!' or '<?' markup; self.pos is at the '!' or '?'.  Reads a
        comment, a doctype or a bogus comment (which includes <![CDATA[ in
        tokenizer-only mode, and every '<?') and returns COMMENT or
        DOCTYPE."""
        s, n = self.src, self.n
        if s[self.pos] == "?":
            self._read_until_close_angle()  # the '?' is part of the comment
            return COMMENT
        self.pos += 1
        if self.pos + 2 <= n and s[self.pos : self.pos + 2] == "--":
            self.pos += 2
            self._read_comment()
            return COMMENT
        if _ascii_lower(s[self.pos : self.pos + 7]) == "doctype":
            self.pos += 7
            self._read_until_close_angle()
            return DOCTYPE
        self._read_until_close_angle()
        return COMMENT

    def read_nameless_end_tag(self) -> bool:
        """'</' followed by neither a letter nor EOF; self.pos is just past
        the '/'.  '</>' produces no token; anything else is a bogus comment
        up to the next '>'.  Returns whether a comment was read."""
        if self.src[self.pos] == ">":
            self.pos += 1
            return False
        self._read_until_close_angle()
        return True

    # -- main loop ---------------------------------------------------------

    def __iter__(self):
        s, n = self.src, self.n
        while True:
            if self.pos >= n:
                return
            if self.raw_tag:
                text, start, end = self.read_raw_text()
                if text:
                    yield (TEXT, text, None, start, end)
                continue

            # Scan for '<' that begins markup; preceding run is text.
            text_start = self.pos
            lt = s.find("<", text_start)
            while 0 <= lt < n - 1 and s[lt + 1] not in MARKUP_OPENERS:
                lt = s.find("<", lt + 1)  # '<' is part of text
            if lt < 0 or lt >= n - 1:
                # EOF: trailing text
                self.pos = n
                yield (
                    TEXT,
                    unescape(_convert_newlines(s[text_start:n]), False),
                    None,
                    text_start,
                    n,
                )
                return
            if lt > text_start:
                self.pos = lt
                yield (
                    TEXT,
                    unescape(_convert_newlines(s[text_start:lt]), False),
                    None,
                    text_start,
                    lt,
                )
                continue

            c2 = s[lt + 1]
            if c2 == "/":
                self.pos = lt + 2  # just past '/'
                if self.pos >= n:
                    return
                c3 = s[self.pos]
                if not (("a" <= c3 <= "z") or ("A" <= c3 <= "Z")):
                    if self.read_nameless_end_tag():
                        yield (COMMENT, "", None, lt, self.pos)
                    continue
                if self.fast:
                    m = _FAST_TAG_RE.match(s, self.pos)
                    if not m.group(2):
                        return
                    self.pos = m.end()
                    yield (END_TAG, _ascii_lower(m.group(1)), [], lt, self.pos)
                    continue
                self.pos += 1
                self._read_tag(False)
                if self._eof_in_tag:
                    return
                yield (END_TAG, _ascii_lower(self._name), [], lt, self.pos)
                continue

            if c2 == "!" or c2 == "?":
                self.pos = lt + 1
                tt = self.read_markup()
                yield (tt, "", None, lt, self.pos)
                continue

            # START_TAG
            if self.fast:
                m = _FAST_TAG_RE.match(s, lt + 1)
                g1, g2 = m.group(1, 2)
                lname = _ascii_lower(g1)
                if lname not in NEED_ATTRS:
                    if not g2:
                        return  # tag truncated at EOF: no token
                    end = m.end()
                    self.pos = end
                    if lname in RAW_TAGS:
                        self.raw_tag = lname
                    tt2 = SELF_CLOSING if s[end - 2] == "/" else START_TAG
                    yield (tt2, lname, [], lt, end)
                    continue
            tok = self.read_start_tag(lt)
            if tok is None:
                return
            yield tok

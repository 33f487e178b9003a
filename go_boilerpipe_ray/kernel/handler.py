"""Content handler state, tag actions, word tokenizer and block flushing.

Clones the state machine of /root/reference/content_handler.go bit-exactly:
the asymmetric label push/pop, the flush flag that is only cleared by text
tokens, byte-length buffer checks, the 80-column line-wrap simulation in
runes, and Go's Unicode-White_Space trimming (which differs from Python's
``str.strip``).  The handler's text, start-tag and end-tag events are
applied inline by the parse loop in ``document.parse_document``; this
module holds the state they act on, the tag actions and ``flush_block``.
"""

from __future__ import annotations

import datetime as _dt
import re

import regex as _regex

from .textblock import Label, LabelStack, TextBlock

# Go unicode.IsSpace == Unicode White_Space property. Python str.isspace()
# also accepts U+001C..001F (and not all of these), so we use an explicit set.
GO_WHITESPACE = frozenset(
    "\t\n\v\f\r \x85\xa0 "
    "           "
    "    　"
)


_GO_WS_STR = "".join(sorted(GO_WHITESPACE))


def go_trim_space(s: str) -> str:
    return s.strip(_GO_WS_STR)


# Anchor sentinel tokens injected into the token buffer around <a> runs
# (content_handler.go:38-41).
ANCHOR_TEXT_START = "$<"
ANCHOR_TEXT_END = ">$"

# Word tokenizer (content_handler.go:237-255; boilerpipe-Java
# UnicodeTokenizer).  Go's \d is ASCII-only, hence the explicit 0-9.
#
# The reference implements this as three regex passes: wrap every word
# run [\p{L}0-9_]+ in U+2063 invisible separators, delete separator
# runs adjacent to the punctuation set, then split on separator/space
# runs.  ``tokenize`` below is a single-split equivalent: token
# boundaries are exactly (a) space/U+2063 runs and (b) word-run edges
# whose adjacent non-word character is NOT in the punctuation set.  The
# glue scanner walks the split-with-capture parts applying (b) directly
# — one regex pass, no per-match template expansion.  The literal
# 3-pass transcription survives as _tokenize_reference below and is
# differentially tested against this on random inputs.
_RE_WORD_BOUNDARY = _regex.compile(r"[\p{L}0-9_]+")
_RE_WORD_SPLIT = _regex.compile(r"([\p{L}0-9_]+)")
_RE_NOT_WORD_BOUNDARY = re.compile(
    "[⁣]*([\"'\\.,\\!\\@\\-\\:\\;\\$\\?\\(\\)/])[⁣]*"
)
_PUNCT_GLUE = frozenset("\"'.,!@-:;$?()/")
# Input-text U+2063 runs adjacent to glue punctuation vanish exactly as
# the inserted separators do (rule (b) applied to literal input).
_RE_SEP_NEAR_PUNCT = re.compile(
    "[⁣]+(?=[\"'.,!@\\-:;$?()/])|(?<=[\"'.,!@\\-:;$?()/])[⁣]+"
)
_RE_SEP_OR_SPACE = re.compile("[⁣ ]+")
_RE_VALID_WORD_CHARACTER = _regex.compile(r"[\p{L}\p{Nd}\p{Nl}\p{No}]")


def _tokenize_reference(text: str) -> list[str]:
    """Literal transcription of the reference's 3-pass tokenizer —
    retained as the differential-test oracle for ``tokenize``."""
    text = _RE_WORD_BOUNDARY.sub("⁣\\g<0>⁣", go_trim_space(text))
    text = _RE_NOT_WORD_BOUNDARY.sub(r"\1", text)
    return _RE_SEP_OR_SPACE.split(text.strip("⁣ "))


# Text made only of ASCII word characters, spaces, glue punctuation and
# the anchor sentinels splits into tokens exactly at its space runs: with
# no other non-word character, no word-run edge is a boundary of kind (b).
# '<' and '>' qualify only inside a sentinel standing alone between spaces,
# which tokenize checks by counting.
_RE_NOT_PLAIN = re.compile("[^0-9A-Za-z_ \"'.,!@\\-:;$?()/<>]")


def tokenize(text: str) -> list[str]:
    text = go_trim_space(text)
    if _RE_NOT_PLAIN.search(text) is None:
        tokens = text.split()
        if tokens and (
            ("<" not in text and ">" not in text)
            or (
                text.count("<") == tokens.count(ANCHOR_TEXT_START)
                and text.count(">") == tokens.count(ANCHOR_TEXT_END)
            )
        ):
            return tokens
    parts = _RE_WORD_SPLIT.split(text)
    tokens: list[str] = []
    cur = ""
    for i, part in enumerate(parts):
        if not part:
            continue
        if i & 1:  # word run
            if cur and cur[-1] in _PUNCT_GLUE:
                cur += part
            else:
                if cur:
                    tokens.append(cur)
                cur = part
            continue
        # Non-word segment: space (and literal U+2063) runs split; a
        # chunk glues to the neighboring word run iff its edge char is
        # glue punctuation.
        if "⁣" in part:
            part = _RE_SEP_NEAR_PUNCT.sub("", part)
            chunks = _RE_SEP_OR_SPACE.split(part)
        elif " " in part:
            chunks = part.split(" ")
        else:
            if cur and part[0] in _PUNCT_GLUE:
                cur += part
            else:
                if cur:
                    tokens.append(cur)
                cur = part
            continue
        for j, c in enumerate(chunks):
            if j and cur:
                tokens.append(cur)
                cur = ""
            if not c:
                continue
            if cur and c[0] in _PUNCT_GLUE:
                cur += c
            else:
                if cur:
                    tokens.append(cur)
                cur = c
    if cur:
        tokens.append(cur)
    # The reference split returns [''] for input that trims to nothing —
    # flush_block counts that artifact as one (non-word) token.
    return tokens if tokens else [""]


_IS_WORD_CACHE: dict[str, bool] = {}


def is_word(tok: str) -> bool:
    # Natural text reuses tokens heavily; memoize the Unicode-class regex
    # probe (bounded: cleared if it ever grows past 64k entries).
    r = _IS_WORD_CACHE.get(tok)
    if r is None:
        if len(_IS_WORD_CACHE) > 65536:
            _IS_WORD_CACHE.clear()
        r = _RE_VALID_WORD_CHARACTER.search(tok) is not None
        _IS_WORD_CACHE[tok] = r
    return r


# Fast-path detector: any non-space whitespace char, or (tested apart,
# since an alternation defeats the regex's character-class scan) a double
# space — if neither, the space-collapse mapping is the identity.
_NON_SPACE_WS_RE = re.compile("[" + _GO_WS_STR.replace(" ", "") + "]")


_WS_TO_SPACE = {ord(c): " " for c in GO_WHITESPACE}
_RE_MULTISPACE = re.compile(" {2,}")


_SPACE_REMOVE_CACHE: dict[str, tuple[str, bool, bool]] = {}

# flush_block's tokenize-and-count walk, memoized on (buffer string,
# anchor state on entry) → the full 6-tuple including anchor state out.
# Emptied at every batch of the extraction stage (clear_flush_memo).
_FLUSH_COUNT_CACHE: dict[tuple[str, bool], tuple[int, int, int, int, int, bool]] = {}


def clear_flush_memo() -> None:
    """Forget every buffer flush_block has memoized.

    The memo is keyed on text, so its hits come from text met before.
    Within a batch that is boilerplate shared by pages of one site.  Carried
    from batch to batch on a Ray worker that lives for a whole session, it
    would also hit on documents the worker extracted earlier, in this job or
    in another, and a batch's cost would depend on what its worker ran
    before it.  The extraction stage calls this at the start of every batch.
    """
    _FLUSH_COUNT_CACHE.clear()


def space_remove(s: str) -> tuple[str, bool, bool]:
    """Collapse runs of Unicode whitespace to single spaces
    (content_handler.go:154-179). Returns (text, was_first_ws, was_last_ws).

    Vectorized equivalent of the reference's per-rune loop: map every
    whitespace rune to ' ' (C-speed translate), then collapse runs with
    one regex sub — the flags fall out of the ends of the mapped string.
    Short inputs (inter-tag newline+indent runs dominate real HTML) are
    memoized; the cache is bounded."""
    if len(s) <= 16:
        hit = _SPACE_REMOVE_CACHE.get(s)
        if hit is not None:
            return hit
        if len(_SPACE_REMOVE_CACHE) > 65536:
            _SPACE_REMOVE_CACHE.clear()
        _SPACE_REMOVE_CACHE[s] = out = _space_remove_impl(s)
        return out
    return _space_remove_impl(s)


def _space_remove_impl(s: str) -> tuple[str, bool, bool]:
    if "  " not in s and _NON_SPACE_WS_RE.search(s) is None:
        return s, s.startswith(" "), s.endswith(" ")
    t = s.translate(_WS_TO_SPACE)
    if "  " in t:
        t = _RE_MULTISPACE.sub(" ", t)
    return t, t.startswith(" "), t.endswith(" ")


# RFC3339 (Go time.RFC3339 layout "2006-01-02T15:04:05Z07:00"; fractional
# seconds optional, offset 'Z' or ±hh:mm, uppercase only).
_RFC3339_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(\.\d+)?"
    r"(Z|[+-]\d{2}:\d{2})$"
)


def parse_rfc3339(s: str) -> _dt.datetime | None:
    m = _RFC3339_RE.match(s)
    if m is None:
        return None
    year, month, day, hour, minute, sec = (int(m.group(i)) for i in range(1, 7))
    frac = m.group(7)
    micro = 0
    if frac:
        micro = int(round(float(frac) * 1e6))
        if micro >= 1_000_000:
            micro = 999_999
    off = m.group(8)
    if off == "Z":
        tz = _dt.timezone.utc
    else:
        sign = 1 if off[0] == "+" else -1
        oh, om = int(off[1:3]), int(off[4:6])
        if oh > 23 or om > 59:
            return None
        tz = _dt.timezone(sign * _dt.timedelta(hours=oh, minutes=om))
    try:
        return _dt.datetime(year, month, day, hour, minute, sec, micro, tz)
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Tag actions (content_handler.go:391-553)
# ---------------------------------------------------------------------------


class TagAction:
    changes_tag_level = True

    def start(self, h: "ContentHandler") -> bool:
        return False

    def end(self, h: "ContentHandler") -> bool:
        return False


class TAIgnorable(TagAction):
    def start(self, h):
        h.depth_ignoreable += 1
        return True

    def end(self, h):
        h.depth_ignoreable -= 1
        return True


class TAAnchor(TagAction):
    def start(self, h):
        h.depth_anchor += 1
        if h.depth_ignoreable == 0:
            h.add_whitespace_if_necessary()
            h.token_buffer.append(ANCHOR_TEXT_START)
            h.token_buffer.append(" ")
            h.last_was_whitespace = True
        return False

    def end(self, h):
        h.depth_anchor -= 1
        if h.depth_anchor == 0 and h.depth_ignoreable == 0:
            h.add_whitespace_if_necessary()
            h.token_buffer.append(ANCHOR_TEXT_END)
            h.token_buffer.append(" ")
            h.last_was_whitespace = True
        return False


class TABody(TagAction):
    def start(self, h):
        h.flush_block()
        h.depth_body += 1
        return False

    def end(self, h):
        h.flush_block()
        h.depth_body -= 1
        return False


class TAInlineWhitespace(TagAction):
    changes_tag_level = False

    def start(self, h):
        h.add_whitespace_if_necessary()
        return False

    def end(self, h):
        h.add_whitespace_if_necessary()
        return False


class TAInlineNoWhitespace(TagAction):
    changes_tag_level = False


class TABlockTagLabel(TagAction):
    def __init__(self, labels):
        self.labels = labels

    def start(self, h):
        h.label_stack.push(*self.labels)
        return True

    def end(self, h):
        return True


class TAIgnoreableVoid(TagAction):
    changes_tag_level = False


class TATime(TagAction):
    def start(self, h):
        return True

    def end(self, h):
        return True


_IGNORABLE = TAIgnorable()
_VOID = TAIgnoreableVoid()
_INLINE_NO_WS = TAInlineNoWhitespace()

TAG_ACTION_MAP: dict[str, TagAction] = {
    "applet": _IGNORABLE,
    "figcaption": _IGNORABLE,
    "figure": _IGNORABLE,
    "noscript": _IGNORABLE,
    "object": _IGNORABLE,
    "option": _IGNORABLE,
    "script": _IGNORABLE,
    "style": _IGNORABLE,
    "a": TAAnchor(),
    "body": TABody(),
    "abbr": TAInlineWhitespace(),
    "b": _INLINE_NO_WS,
    "code": _INLINE_NO_WS,
    "em": _INLINE_NO_WS,
    "font": _INLINE_NO_WS,
    "i": _INLINE_NO_WS,
    "span": _INLINE_NO_WS,
    "strike": _INLINE_NO_WS,
    "strong": _INLINE_NO_WS,
    "sub": _INLINE_NO_WS,
    "sup": _INLINE_NO_WS,
    "tt": _INLINE_NO_WS,
    "u": _INLINE_NO_WS,
    "var": _INLINE_NO_WS,
    "li": TABlockTagLabel([Label.LIST]),
    "h1": TABlockTagLabel([Label.HEADING, Label.HEADING1]),
    "h2": TABlockTagLabel([Label.HEADING, Label.HEADING2]),
    "h3": TABlockTagLabel([Label.HEADING, Label.HEADING3]),
    "area": _VOID,
    "base": _VOID,
    "br": _VOID,
    "col": _VOID,
    "embed": _VOID,
    "hr": _VOID,
    "img": _VOID,
    "input": _VOID,
    "link": _VOID,
    "menuitem": _VOID,
    "meta": _VOID,
    "param": _VOID,
    "source": _VOID,
    "track": _VOID,
    "wbr": _VOID,
    "time": TATime(),
}

# Malformed start tags of void elements are skipped entirely by the parse
# loop (boilerpipe.go:129-134, content_handler.go:556-574).  Note iframe is
# in this set but not in the tag-action map.
SHOULD_BE_SELF_CLOSING = frozenset(
    [
        "area",
        "base",
        "br",
        "embed",
        "hr",
        "iframe",
        "img",
        "input",
        "link",
        "meta",
        "param",
        "source",
        "track",
    ]
)

_MAX_LINE_LENGTH = 80


def _token_counts_from_tokens(
    tokens: list[str], in_anchor: bool
) -> tuple[int, int, int, int, int, bool]:
    """Reference counting loop over materialized tokens (the literal
    FlushBlock walk, content_handler.go:288-340): returns (num_words,
    num_linked_words, num_tokens, num_wrapped_lines,
    num_words_current_line, in_anchor_after)."""
    num_words = 0
    num_linked_words = 0
    num_wrapped_lines = 0
    num_tokens = 0
    num_words_current_line = 0
    current_line_length = -1  # don't count the first space
    for tok in tokens:
        if tok == ANCHOR_TEXT_START:
            in_anchor = True
        elif tok == ANCHOR_TEXT_END:
            in_anchor = False
        elif is_word(tok):
            num_tokens += 1
            num_words += 1
            num_words_current_line += 1
            if in_anchor:
                num_linked_words += 1
            tok_length = len(tok)  # rune count
            current_line_length += tok_length + 1
            if current_line_length > _MAX_LINE_LENGTH:
                num_wrapped_lines += 1
                current_line_length = tok_length
                num_words_current_line = 1
        else:
            num_tokens += 1
    return (
        num_words,
        num_linked_words,
        num_tokens,
        num_wrapped_lines,
        num_words_current_line,
        in_anchor,
    )


class ContentHandler:
    """The handler's state, and the block flush.

    Its text, start-tag and end-tag events are applied inline by the parse
    loop in ``document.parse_document``; the tag actions above and
    ``flush_block`` act on this object.  The token and text buffers are
    emptied in place, so the loop may hold them in locals."""

    __slots__ = (
        "title",
        "time",
        "token_buffer",
        "text_buffer",
        "depth_body",
        "depth_anchor",
        "depth_ignoreable",
        "depth_block_tag",
        "last_was_whitespace",
        "text_blocks",
        "last_start_tag",
        "offset_blocks",
        "in_anchor_text",
        "label_stack",
        "buffer_src_end",
    )

    def __init__(self):
        self.title = ""
        self.time: _dt.datetime | None = None

        self.token_buffer: list[str] = []
        self.text_buffer: list[str] = []

        self.depth_body = 0
        self.depth_anchor = 0
        self.depth_ignoreable = 0
        self.depth_block_tag = -1

        self.last_was_whitespace = False
        self.text_blocks: list[TextBlock] = []

        # Atom of the last start tag: flush_block only asks whether it was
        # <title>, and unknown tags ("") never are.
        self.last_start_tag = ""

        self.offset_blocks = 0
        self.in_anchor_text = False

        self.label_stack = LabelStack()

        # Source offset where the last text token put into the buffer
        # ended; -1 whenever the token buffer is empty.
        self.buffer_src_end = -1

    def add_whitespace_if_necessary(self) -> None:
        if not self.last_was_whitespace:
            self.token_buffer.append(" ")
            self.text_buffer.append(" ")
            self.last_was_whitespace = True

    # -- flushing ----------------------------------------------------------

    def flush_block(self) -> None:
        if not self.token_buffer:
            # Empty buffer: every path below is a no-op (the title is only
            # set from a non-empty trimmed buffer; resets reset nothing).
            if self.depth_body == 0:
                self.buffer_src_end = -1
            return
        tok_str = "".join(self.token_buffer)

        if self.depth_body == 0:
            if self.last_start_tag == "title":
                title = go_trim_space(tok_str)
                if title:
                    self.title = title
            self.text_buffer.clear()
            self.token_buffer.clear()
            self.buffer_src_end = -1
            return

        # Go switches on the buffer's BYTE length: 0 → bail (no reset);
        # 1 byte (i.e. one ASCII char) + trailing-whitespace flag → reset.
        if tok_str == "":
            return
        if len(tok_str) == 1 and ord(tok_str) < 128 and self.last_was_whitespace:
            self.text_buffer.clear()
            self.token_buffer.clear()
            self.buffer_src_end = -1
            return

        # Boilerplate is repeated by definition (nav/footer/header blocks
        # recur across every page of a site), so the tokenize + counting
        # walk over a given buffer string is recomputed constantly at
        # corpus scale.  The walk is a pure function of (buffer string,
        # anchor state on entry) — memoize it, bounded like the
        # space_remove cache and emptied at every batch.  Unique article
        # text just pays one dict probe.
        cache_key = (tok_str, self.in_anchor_text)
        counts = _FLUSH_COUNT_CACHE.get(cache_key)
        if counts is None:
            if len(_FLUSH_COUNT_CACHE) > 32768:
                _FLUSH_COUNT_CACHE.clear()
            counts = _token_counts_from_tokens(
                tokenize(tok_str), self.in_anchor_text
            )
            _FLUSH_COUNT_CACHE[cache_key] = counts
        (
            num_words,
            num_linked_words,
            num_tokens,
            num_wrapped_lines,
            num_words_current_line,
            self.in_anchor_text,
        ) = counts

        if num_tokens == 0:
            return

        if num_wrapped_lines == 0:
            num_words_in_wrapped_lines = num_words
            num_wrapped_lines = 1
        else:
            num_words_in_wrapped_lines = num_words - num_words_current_line

        text = go_trim_space("".join(self.text_buffer))
        if len(text) > 0:
            tb = TextBlock()
            tb.text = text
            tb.num_words = num_words
            tb.num_linked_words = num_linked_words
            tb.num_words_in_wrapped_lines = num_words_in_wrapped_lines
            tb.num_wrapped_lines = num_wrapped_lines
            tb.offset_blocks_start = self.offset_blocks
            tb.offset_blocks_end = self.offset_blocks
            tb.tag_level = self.depth_block_tag
            if num_words_in_wrapped_lines == 0:
                tb.num_words_in_wrapped_lines = num_words
                tb.num_wrapped_lines = 1
            tb.add_labels(*self.label_stack.pop_all())
            tb.src_end = self.buffer_src_end
            self.text_blocks.append(tb)
            self.offset_blocks += 1

        self.text_buffer.clear()
        self.token_buffer.clear()
        self.buffer_src_end = -1
        self.depth_block_tag = -1

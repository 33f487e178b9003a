"""parse_document's one-pass loop against the two-layer parse it replaced.

The oracle below is that parse, kept literally: a loop over
``Tokenizer``'s tokens feeding a content handler through its three event
methods (``text_token``, ``start_element``, ``end_element``).  The engine's
loop scans the HTML and applies the same events inline, so every
difference in the Document the two produce is a fault of the new loop.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from go_boilerpipe_ray.kernel.atoms import ATOMS, UNKNOWN
from go_boilerpipe_ray.kernel.document import _TAGS, document_from, parse_document
from go_boilerpipe_ray.kernel.handler import (
    SHOULD_BE_SELF_CLOSING,
    TAG_ACTION_MAP,
    TATime,
    ContentHandler,
    parse_rfc3339,
    space_remove,
)
from go_boilerpipe_ray.kernel.htmltok import (
    END_TAG,
    NEED_ATTRS,
    RAW_TAGS,
    START_TAG,
    TEXT,
    Tokenizer,
)


def atom_of(name: str) -> str:
    return name if name in ATOMS else UNKNOWN


class OracleHandler(ContentHandler):
    """ContentHandler with the event methods the parse loop now inlines."""

    def __init__(self):
        super().__init__()
        self.depth_tag = 0
        self.flush = False
        self.atom_stack: list[str] = []
        self.text_element_index = 0
        self.last_end_tag = ""

    def start_element(self, name: str, attrs, atom: str | None = None) -> None:
        a = atom_of(name) if atom is None else atom
        self.atom_stack.append(a)

        ta = TAG_ACTION_MAP.get(a) if a else None
        if ta is not None:
            if isinstance(ta, TATime):
                for key, val in attrs:
                    if key == "datetime":
                        t = parse_rfc3339(val)
                        if t is not None:
                            self.time = t
                        break
            if ta.changes_tag_level:
                self.depth_tag += 1
            self.flush = ta.start(self) or self.flush
        else:
            self.depth_tag += 1
            self.flush = True

        self.last_start_tag = name

    def end_element(self, name: str) -> None:
        pa = self.atom_stack.pop() if self.atom_stack else ""
        a = atom_of(name)
        if pa != a:
            return  # malformed HTML, missing closing tag

        ta = TAG_ACTION_MAP.get(a) if a else None
        if ta is not None:
            self.flush = ta.end(self) or self.flush
        else:
            self.flush = True

        if ta is None or ta.changes_tag_level:
            self.depth_tag -= 1

        if self.flush:
            self.flush_block()
        # NB: the flush flag is intentionally NOT cleared here (only
        # TextToken clears it) — content_handler.go:145-147.

        self.last_end_tag = name
        self.label_stack.pop()

    def text_token(self, data: str, src_end: int = -1) -> None:
        self.text_element_index += 1

        if self.flush:
            self.flush_block()
            self.flush = False

        if self.depth_ignoreable != 0:
            return
        if len(data) == 0:
            return

        mapped, was_first, was_last = space_remove(data)
        ch = mapped.strip(" ")  # mapped whitespace is all ' ' already

        if len(ch) == 0:
            if was_first or was_last:
                if not self.last_was_whitespace:
                    self.text_buffer.append(" ")
                    self.token_buffer.append(" ")
                self.last_was_whitespace = True
            else:
                self.last_was_whitespace = False
            return

        if was_first and not self.last_was_whitespace:
            self.text_buffer.append(" ")
            self.token_buffer.append(" ")

        if self.depth_block_tag == -1:
            self.depth_block_tag = self.depth_tag

        self.text_buffer.append(ch)
        self.token_buffer.append(ch)
        if was_last:
            self.text_buffer.append(" ")
            self.token_buffer.append(" ")

        self.last_was_whitespace = was_last
        self.buffer_src_end = src_end


def oracle_parse_document(html: str):
    """The tokenizer-driven parse loop as it was before the one-pass loop."""
    h = OracleHandler()
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
    return document_from(h, ldjson)


_BLOCK_SLOTS = (
    "text",
    "offset_blocks_start",
    "offset_blocks_end",
    "num_words",
    "num_linked_words",
    "num_words_in_wrapped_lines",
    "num_wrapped_lines",
    "tag_level",
    "is_content",
    "src_end",
)


def _view(doc) -> tuple:
    ld = doc.linked_data
    return (
        doc.title,
        doc.author,
        doc.date,
        (ld.type, ld.headline, ld.date_published, ld.author.type, ld.author.name, ld.body),
        [
            tuple(getattr(tb, slot) for slot in _BLOCK_SLOTS) + (list(tb.label_map.items()),)
            for tb in doc.text_blocks
        ],
    )


def assert_same_parse(html: str) -> None:
    assert _view(parse_document(html)) == _view(oracle_parse_document(html))


_LD_JSON = (
    '{"@type": "Article", "headline": "Head &amp; line", '
    '"datePublished": "2020-01-02T03:04:05Z", '
    '"author": {"@type": "Person", "name": "A. N. Author"}, "articleBody": "Body"}'
)

_soup = st.lists(
    st.one_of(
        st.sampled_from(
            [
                # block, inline, labelled, anchor, body and ignorable tags
                "<p>", "</p>", "<div class='c'>", "</div>", "<DIV>", "</Div>",
                "<span>", "</span>", "<b>", "</b>", "<abbr>", "</abbr>",
                "<li>", "</li>", "<h1>", "</h1>", "<h2 id=x>", "</h2>", "<h3>", "</h3>",
                "<a href='/x'>", "<a>", "</a>", "</A>", "<body>", "</body>", "<BODY>",
                "<figure>", "</figure>", "<option>", "</option>", "<custom>", "</custom>",
                "<foreignObject>", "</foreignobject>", "<x-y>", "</x-y>",
                # raw text, RCDATA and plaintext
                "<script>", "</script>", "<style>", "</style>", "<title>", "</title>",
                "<textarea>", "</textarea>", "<xmp>", "</xmp>", "<noscript>", "</noscript>",
                "<noembed>", "<noframes>", "<plaintext>", "<script><!--", "--></script>",
                # attribute-reading tags
                '<script type="application/ld+json">' + _LD_JSON + "</script>",
                "<script type='application/ld+json'>",
                "<time datetime='2021-05-06T07:08:09Z'>", "<time datetime=bad>", "</time>",
                "<TIME DATETIME='2022-01-01T00:00:00+01:00'>",
                '<script type="application/ld+json">{"@type": "WebPage"}</script>',
                '{"headline": "Later", "@type": "Article"}',
                # self-closing tags, which the handler never sees
                "<div/>", "<p />", "<a href=x/>", "<h1/>", "<li/>", "<body/>",
                "<script/>", "<title/>", "<x-y/>",
                # void elements, well formed or not
                "<br>", "<br/>", "<img src=x>", "<img/>", "<iframe>", "</iframe>",
                "<hr>", "<meta charset=utf-8>", "<input value='a>b'>", "<wbr>",
                # comments, doctype, bogus comments, '</>'
                "<!--", "-->", "<!-- c -->", "<!doctype html>", "<!x>", "<?php ?>",
                "</>", "</ x>", "</1>", "<![CDATA[", "]]>",
                # unterminated at EOF once the list ends here
                "<div class='open", "<a href=\"", "<p", "</p", "<", "</",
                # text: entities, CR/LF, CJK, astral, whitespace, sentinels
                "&amp;", "&lt;", "&#x41;", "&#128512;", "&notanentity", "&copy",
                "\r\n", "\r", "\n", "\t", "  ", "\xa0", "漢字テキスト", "\U0001f600",
                "$<", ">$", "a, b. c!", "word ", " word",
            ]
        ),
        st.text(alphabet="ab c.,<>/&;=\"'\n好", max_size=12),
    ),
    max_size=60,
).map("".join)


@settings(max_examples=1500, deadline=None)
@given(_soup)
@example("<html><head><title>T</title></head><body><p>x</p></body></html>")
@example('<script type="application/ld+json">' + _LD_JSON + "</script><p>text</p>")
@example("<time datetime='2021-05-06T07:08:09Z'>then</time><p>a</p>")
@example("<body><p>one</p><br><p>two</p><iframe>in frame</iframe>three")
@example("<body><span>in</span>line<b>bold</b> text</body>")
@example("<body><a href=x>link</a> text <p>para")
@example("<plaintext><p>all text</p>")
@example("<body><p>x</p><!-- unterminated")
@example("<body><p>x</p><script>unterminated")
@example("<body><P>UPPER</P><Foo>x</FOO></body>")
@example(
    '<script type="application/ld+json">{"@type": "WebPage"}</script>'
    '<p>{"headline": "Not metadata", "@type": "Article"}</p>'
)
@example("<body><div/>a<p/>b<h1/>c</body>")
def test_parse_document_matches_tokenizer_loop(html):
    assert_same_parse(html)


def test_tag_table_covers_the_tokenizer_and_handler_sets():
    # The loop's one lookup per tag must agree with every set it replaced.
    for name in RAW_TAGS | NEED_ATTRS | SHOULD_BE_SELF_CLOSING | set(TAG_ACTION_MAP):
        atom, action, skip, raw, need_attrs = _TAGS[name]
        assert atom == name
        assert action is TAG_ACTION_MAP.get(name)
        assert skip == (name in SHOULD_BE_SELF_CLOSING)
        assert raw == (name if name in RAW_TAGS else "")
        assert need_attrs == (name in NEED_ATTRS)
    assert all(key == key.lower() for key in _TAGS)


def test_parse_document_matches_on_fixture_pages():
    from go_boilerpipe_ray.sources.fixtures import html_for_document, synthetic7_rows

    for _, html in synthetic7_rows():
        assert_same_parse(html)
    for doc_id in range(14):
        assert_same_parse(html_for_document(doc_id, "alpha beta, gamma: delta " * 12, 3))

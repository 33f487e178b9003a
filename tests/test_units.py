"""Ported reference unit tests + quirk-preservation tests (Tier-2, no Ray).

The [Q] tests pin behaviors that LOOK like bugs but are golden-verified
live semantics (SURVEY.md §2) — if one of these fails after a "fix", the
fix is wrong."""

from __future__ import annotations

import datetime as dt

import pytest

from go_boilerpipe_ray.kernel import normurl
from go_boilerpipe_ray.kernel.document import parse_document
from go_boilerpipe_ray.kernel.filters import (
    BoilerplateBlock,
    DocumentTitleMatchClassifier,
    ExpandTitleToContent,
    NumWordsRulesClassifier,
    TerminatingBlocks,
    TrailingHeadlineToBoilerplate,
    _starts_with_number,
    article_pipeline,
    block_proximity_fusion_max_distance_one,
)
from go_boilerpipe_ray.kernel.handler import parse_rfc3339, tokenize
from go_boilerpipe_ray.kernel.textblock import Label, LabelStack, TextBlock
from go_boilerpipe_ray.kernel.document import Document


# -- textblock_test.go ------------------------------------------------------


def test_label_stack():
    st = LabelStack()
    st.push(Label.HEADING, Label.HEADING1, Label.HEADING2)
    assert len(st) == 3
    assert st.pop() == Label.HEADING2
    labels = st.pop_all()
    assert labels == [Label.HEADING1, Label.HEADING]
    assert len(st) == 0


# -- filter_test.go TestStartsWithNumber ------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("123 comments", True),
        ("456 users responded in", True),
        ("abc comments", False),
        ("def users responded in", False),
    ],
)
def test_starts_with_number(text, expected):
    assert _starts_with_number(text, " comments", " users responded in") == expected


# -- normurl tests ----------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        (
            "http://powerbrokerconfidential.com/marcus-millichap-close-5430-west-sahara-sandyplace-llc/?utm_source=CALV+News+April+13%2C+2017&utm_campaign=CALV+September+26%2C+2016&utm_medium=email",
            "http://powerbrokerconfidential.com/marcus-millichap-close-5430-west-sahara-sandyplace-llc",
        ),
        ("http://www.google.com/path/", "http://www.google.com/path"),
        ("https://www.google.com/path/", "https://www.google.com/path"),
        ("www.google.com/path/", "http://www.google.com/path"),
        ("www.google.com/", "http://www.google.com/"),
    ],
)
def test_normurl_parse(raw, expected):
    assert str(normurl.parse(raw)) == expected


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("scheme://host/path/2016/nov/16?query#fragment", dt.datetime(2016, 11, 16, tzinfo=dt.timezone.utc)),
        ("scheme://host/path/2017-01?query#fragment", dt.datetime(2017, 1, 1, tzinfo=dt.timezone.utc)),
        ("scheme://host/path/2016-12-15-title?query#fragment", dt.datetime(2016, 12, 15, tzinfo=dt.timezone.utc)),
        # Go time.Date normalizes out-of-range components (normurl.go:289)
        ("scheme://host/path/2016-13-40", dt.datetime(2017, 2, 9, tzinfo=dt.timezone.utc)),
        ("scheme://host/path/2016/feb/31", dt.datetime(2016, 3, 2, tzinfo=dt.timezone.utc)),
        ("scheme://host/path/2016-05-00", dt.datetime(2016, 4, 30, tzinfo=dt.timezone.utc)),
        ("scheme://host/path/2016-00-15", dt.datetime(2015, 12, 15, tzinfo=dt.timezone.utc)),
    ],
)
def test_normurl_date(raw, expected):
    assert normurl.parse(raw).date() == expected


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("https://vegasinc.lasvegassun.com/business/real-estate/?page=1", "lasvegassun.com"),
        ("https://lasvegassun.com/business/real-estate/?page=1", "lasvegassun.com"),
        ("https://.lasvegassun.com/business/real-estate/?page=1", "lasvegassun.com"),
        (".lasvegassun.com/business/real-estate/?page=1", "lasvegassun.com"),
    ],
)
def test_normurl_root(raw, expected):
    assert normurl.parse(raw).root() == expected


# -- RFC3339 ----------------------------------------------------------------


@pytest.mark.parametrize(
    "s,ok",
    [
        ("2017-04-20T12:30:15Z", True),
        ("2017-04-20T12:30:15.5-07:00", True),
        ("2017-04-20 12:30:15Z", False),  # missing 'T'
        ("2017-04-20T12:30Z", False),  # missing seconds
        ("2017-13-20T12:30:15Z", False),  # bad month
        ("2017-02-30T12:30:15Z", False),  # bad day
        ("2017-04-20", False),  # date only
    ],
)
def test_parse_rfc3339(s, ok):
    assert (parse_rfc3339(s) is not None) == ok


# -- tokenizer behaviors ----------------------------------------------------


def _titles_and_blocks(html):
    doc = parse_document(html)
    return doc, [tb.text for tb in doc.text_blocks]


def test_rcdata_title_entities_decoded():
    doc, _ = _titles_and_blocks(
        "<html><head><title>A &amp; B &ndash; C</title></head><body><p>x y z</p></body></html>"
    )
    assert doc.title == "A & B – C"


def test_script_content_ignored_and_raw():
    doc, blocks = _titles_and_blocks(
        "<html><body><p>before</p><script>if (a < b) { document.write('<div>no</div>'); }</script><p>after</p></body></html>"
    )
    assert blocks == ["before", "after"]


def test_script_escaped_comment_state():
    # '</script>' inside <!-- --> double-escape must not end the element.
    doc, blocks = _titles_and_blocks(
        "<html><body><p>a</p><script><!-- <script>var x = '</script>'; </script>-->"
        "</script><p>b</p></body></html>"
    )
    assert "a" in blocks and "b" in blocks


def test_noscript_is_raw_and_ignorable():
    _, blocks = _titles_and_blocks(
        "<html><body><p>keep</p><noscript><p>drop me</p></noscript></body></html>"
    )
    assert blocks == ["keep"]


def test_malformed_void_start_tag_skipped():
    # <br> and <img> written as start tags are skipped wholesale; an
    # <iframe> start tag is skipped but its content is still raw text.
    # The skipped <br> start tag contributes nothing — not even whitespace
    # — so the two text tokens concatenate ("onetwo"), exactly as in Go.
    _, blocks = _titles_and_blocks(
        "<html><body><p>one<br>two</p><img src='x'><p>three</p></body></html>"
    )
    assert blocks == ["onetwo", "three"]


def test_mismatched_end_tag_ignored():
    _, blocks = _titles_and_blocks(
        "<html><body><div><p>text here</div></p><p>more text</p></body></html>"
    )
    # </div> mismatches <p> on the stack: early return, no crash.
    assert any("text here" in b for b in blocks)


def test_anchor_link_density():
    doc, _ = _titles_and_blocks(
        "<html><body><p>plain words here <a href='#'>linked words</a></p></body></html>"
    )
    tb = doc.text_blocks[0]
    assert tb.num_words == 5
    assert tb.num_linked_words == 2
    assert tb.link_density() == 2 / 5


def test_heading_and_list_labels():
    doc, _ = _titles_and_blocks(
        "<html><body><h1>Big Heading</h1><ul><li>item one</li></ul></body></html>"
    )
    assert doc.text_blocks[0].has_label(Label.HEADING)
    assert doc.text_blocks[0].has_label(Label.HEADING1)
    assert doc.text_blocks[1].has_label(Label.LIST)


def test_time_datetime_attr():
    doc, _ = _titles_and_blocks(
        "<html><body><time datetime='2017-04-20T10:00:00Z'>April 20</time>"
        "<p>body text</p></body></html>"
    )
    assert doc.date == dt.datetime(2017, 4, 20, 10, 0, 0, tzinfo=dt.timezone.utc)


def test_ldjson_article_resolution():
    html = (
        '<html><head><title>Fallback</title>'
        '<script type="application/ld+json">{"@type":"WebSite","name":"x"}</script>'
        '<script type="application/ld+json">{"@type":"Article","headline":"LD Head",'
        '"datePublished":"2020-05-06T07:08:09Z","author":{"@type":"Person","name":"Ann"}}'
        "</script></head><body><p>text</p></body></html>"
    )
    doc = parse_document(html)
    assert doc.title == "LD Head"
    assert doc.author == "Ann"
    assert doc.date == dt.datetime(2020, 5, 6, 7, 8, 9, tzinfo=dt.timezone.utc)


def test_ldjson_article_body_short_circuit():
    html = (
        '<html><head><script type="application/ld+json">'
        '{"@type":"Article","articleBody":"THE BODY"}</script></head>'
        "<body><p>other text</p></body></html>"
    )
    doc = parse_document(html)
    article_pipeline().process(doc)
    assert doc.content() == "THE BODY"


def test_text_escaping_five_entities():
    doc = Document()
    tb = TextBlock()
    tb.text = "a & b < c > d ' e \" f"
    tb.is_content = True
    doc.text_blocks = [tb]
    assert doc.text(True, False) == "a &amp; b &lt; c &gt; d &#39; e &#34; f"


def test_tokenize_unicode_words():
    toks = tokenize("Hello, world! it's 42 好的")
    assert "Hello," in toks and "world!" in toks
    assert "好的" in toks


# -- filter quirks [Q] ------------------------------------------------------


def _block(words=10, text="some text", linked=0, level=1, labels=(), content=False, offset=0):
    tb = TextBlock()
    tb.text = text
    tb.num_words = words
    tb.num_linked_words = linked
    tb.num_words_in_wrapped_lines = words
    tb.num_wrapped_lines = 1
    tb.tag_level = level
    tb.is_content = content
    tb.offset_blocks_start = offset
    tb.offset_blocks_end = offset
    for lab in labels:
        tb.add_labels(lab)
    return tb


def _doc(*blocks):
    d = Document()
    d.text_blocks = list(blocks)
    return d


def test_q_terminating_comment_branch_no_changed_flag():
    # len<8 + link_density 1.0 + text == "Comment": label added but the
    # changed flag stays False (filter.go:97-101).
    tb = _block(words=1, text="Comment", linked=1)
    doc = _doc(tb)
    assert TerminatingBlocks().process(doc) is False
    assert tb.has_label(Label.INDICATES_END_OF_TEXT)


def test_q_classifier_single_block_uses_start_sentinel():
    # One-block doc: next = empty START sentinel; the trailing window never
    # runs (filter.go:695-718).  A 30-word block with prev=empty(0 words)
    # and next=empty: curr>16 → content.
    tb = _block(words=30)
    doc = _doc(tb)
    NumWordsRulesClassifier().process(doc)
    assert tb.is_content is True
    tb2 = _block(words=10)
    doc2 = _doc(tb2)
    NumWordsRulesClassifier().process(doc2)
    # curr<=16, next<=15, prev<=4 → not content
    assert tb2.is_content is False


def test_q_fusion_distance_always_passes():
    # Non-adjacent content blocks (offset gap 5) still merge because the
    # distance uses the SAME block's offsets (filter.go:362).
    a = _block(words=20, text="aaa", content=True, offset=0)
    b = _block(words=20, text="bbb", content=True, offset=5)
    doc = _doc(a, b)
    assert block_proximity_fusion_max_distance_one().process(doc) is True
    assert len(doc.text_blocks) == 1
    assert doc.text_blocks[0].text == "aaa\nbbb"
    assert doc.text_blocks[0].num_words == 40


def test_q_trailing_headline_walks_past_non_content():
    h = _block(words=5, text="Headline", content=True, labels=[Label.HEADING])
    junk = _block(words=2, text="junk", content=False)
    doc = _doc(_block(words=50, content=True), h, junk)
    assert TrailingHeadlineToBoilerplate().process(doc) is True
    assert h.is_content is False  # demoted through the trailing non-content


def test_q_expand_title_iterates_wrong_range():
    # title at index 2, content starts at 4 → visits indices 0..1, NOT 2..3
    # (filter.go:598-605).
    b0 = _block(words=5, text="b0", labels=[Label.MIGHT_BE_CONTENT])
    b1 = _block(words=5, text="b1", labels=[Label.MIGHT_BE_CONTENT])
    title = _block(words=5, text="t", labels=[Label.TITLE])
    b3 = _block(words=5, text="b3", labels=[Label.MIGHT_BE_CONTENT])
    b4 = _block(words=50, text="content", content=True)
    doc = _doc(b0, b1, title, b3, b4)
    assert ExpandTitleToContent().process(doc) is True
    assert b0.is_content and b1.is_content
    assert not b3.is_content  # in the title→content gap, but NOT visited


def test_q_title_longest_part_or_comparison():
    # "aa bb cc | x" → parts ["aa bb cc", "x"]: the first has more words;
    # a longer-in-bytes part with fewer words can still win via the OR.
    doc = Document()
    doc.title = "Short Words | Supercalifragilistic"
    tb = _block(text="Supercalifragilistic", words=1)
    doc.text_blocks = [tb]
    DocumentTitleMatchClassifier().process(doc)
    assert tb.has_label(Label.TITLE)


def test_boilerplate_block_keeps_title():
    t = _block(text="t", content=False, labels=[Label.TITLE])
    junk = _block(text="j", content=False)
    keep = _block(text="k", content=True)
    doc = _doc(t, junk, keep)
    assert BoilerplateBlock().process(doc) is True
    assert doc.text_blocks == [t, keep]


# -- ld+json Go encoding/json semantics -------------------------------------


def _parse_ld(*scripts, body="<p>text</p>"):
    html = (
        "<html><head>"
        + "".join(
            f'<script type="application/ld+json">{s}</script>' for s in scripts
        )
        + f"</head><body>{body}</body></html>"
    )
    return parse_document(html)


def test_ldjson_syntax_error_touches_nothing():
    doc = _parse_ld('{"@type": "Article", "headline": "A"', '{"@type":"WebSite"}')
    # First candidate is invalid JSON → skipped entirely; second decodes.
    assert doc.linked_data.type == "WebSite"
    assert doc.linked_data.headline == ""


def test_ldjson_type_error_keeps_partial_mutation():
    # headline has the wrong type (number): the field is skipped but the
    # other fields ARE decoded (Go json.Unmarshal keeps going), and the
    # candidate is treated as failed — later candidates still scanned.
    doc = _parse_ld(
        '{"@type": "Article", "headline": 42, "articleBody": "PARTIAL"}',
        '{"@type": "WebSite"}',
    )
    # Partial mutation from the failed candidate persists...
    assert doc.linked_data.body == "PARTIAL"
    # ...and the successful non-Article candidate overwrote @type.
    assert doc.linked_data.type == "WebSite"


def test_ldjson_bad_date_fails_candidate_but_mutates():
    doc = _parse_ld(
        '{"@type": "Article", "headline": "H1", "datePublished": "not-a-date"}'
    )
    assert doc.linked_data.headline == "H1"  # partial mutation kept
    assert doc.date is None  # date never set


def test_ldjson_bad_date_aborts_remaining_keys():
    # time.Time.UnmarshalJSON failure propagates and stops the object
    # decode — keys AFTER the bad date are never processed (unlike plain
    # type errors, which Go saves and keeps decoding past).
    doc = _parse_ld(
        '{"@type": "Article", "datePublished": "not-a-date",'
        ' "headline": "AFTER", "articleBody": "BODY-AFTER"}'
    )
    assert doc.linked_data.headline == ""  # never reached
    assert doc.linked_data.body == ""  # never reached
    assert doc.date is None


def test_ldjson_nonstring_date_aborts_remaining_keys():
    # A numeric datePublished also goes through time.Time.UnmarshalJSON
    # ("input must be a JSON string") — same abort semantics.
    doc = _parse_ld(
        '{"@type": "Article", "datePublished": 123, "headline": "AFTER"}'
    )
    assert doc.linked_data.headline == ""
    assert doc.date is None


def test_ldjson_non_article_success_overwrites_and_keeps_scanning():
    doc = _parse_ld(
        '{"@type": "WebSite", "headline": "SITE"}',
        '{"@type": "Article", "headline": "ART"}',
    )
    assert doc.title == "ART"


def test_ldjson_case_insensitive_keys_last_wins():
    doc = _parse_ld('{"@TYPE": "Article", "HeadLine": "CI", "headline": "CI2"}')
    assert doc.linked_data.type == "Article"
    assert doc.title == "CI2"


def test_ldjson_null_fields_are_noops():
    doc = _parse_ld(
        '{"@type": "Article", "headline": null, "author": null, "datePublished": null}'
    )
    assert doc.linked_data.type == "Article"
    assert doc.title == ""  # falls back to <title> (absent here)


def test_has_title_checks_date_bug():
    # Faithful reference bug: HasTitle() returns whether the DATE is set
    # (boilerpipe.go:84-86).
    doc = _parse_ld('{"@type": "Article", "headline": "H"}')
    assert doc.has_title() is False
    doc2 = _parse_ld(
        '{"@type": "Article", "datePublished": "2020-01-01T00:00:00Z"}'
    )
    assert doc2.has_title() is True


def test_merge_next_label_counts():
    a = TextBlock()
    a.text = "a"
    a.add_labels(Label.LIST, Label.LIST)
    b = TextBlock()
    b.text = "b"
    b.add_labels(Label.LIST, Label.HEADING)
    b.tag_level = 5
    a.tag_level = 7
    a.merge_next(b)
    assert a.label_map[Label.LIST] == 3  # counts merge, not just presence
    assert a.label_map[Label.HEADING] == 1
    assert a.tag_level == 5
    assert a.text == "a\nb"


def test_filter_chain_is_linear_in_block_count():
    # A 20,000-paragraph (~4.7 MB) article fuses into one content run.
    # Joining the run once and rebuilding the list once keeps the whole
    # chain near 0.06 s; one merge_next + ``del blocks[i]`` per merged
    # block re-copied the growing text and list every time and took over
    # 7 s.  Only the filters are timed, not the parse.
    import time

    from go_boilerpipe_ray.sources.fixtures import html_for_document

    words = " ".join(["alpha beta gamma delta epsilon zeta eta theta iota kappa"] * 4)
    doc = parse_document(html_for_document(1, words, repeat=20_000))
    assert len(doc.text_blocks) > 20_000
    t0 = time.process_time()
    article_pipeline().process(doc)
    elapsed = time.process_time() - t0
    content = "\n".join(tb.text for tb in doc.text_blocks if tb.is_content)
    assert content.count(words) == 20_000
    assert elapsed < 1.0, f"filter chain took {elapsed:.2f} s on 20k paragraphs"


def test_custom_filter_pipeline():
    from go_boilerpipe_ray.kernel.filters import (
        BoilerplateBlock,
        Filter,
        NumWordsRulesClassifier,
        Pipeline,
        TerminatingBlocks,
    )

    pipe = Pipeline(
        "Custom", [TerminatingBlocks(), NumWordsRulesClassifier(), BoilerplateBlock()]
    )
    assert [f.name for f in pipe.filters] == [
        "TerminatingBlocks",
        "NumWordsRulesClassifier",
        "BoilerplateBlock",
    ]

    class DropEverything(Filter):
        name = "DropEverything"

        def process(self, doc):
            changed = any(tb.is_content for tb in doc.text_blocks)
            for tb in doc.text_blocks:
                tb.is_content = False
            return changed

    doc = parse_document(
        "<html><body><p>" + "words " * 50 + "</p></body></html>"
    )
    custom = Pipeline("Custom", [*pipe.filters, DropEverything()])
    custom.process(doc)
    assert doc.content() == ""


# -- F4 branch coverage: classifier thresholds, wraps, expansions -----------


def test_line_wrap_80_cols_and_text_density():
    # 30 words x 7 chars (+space) = 8 cols/word → wraps at 10 words/line.
    words = " ".join(["abcdefg"] * 30)
    doc = parse_document(f"<html><body><p>{words}</p></body></html>")
    tb = doc.text_blocks[0]
    assert tb.num_words == 30
    assert tb.num_wrapped_lines == 2  # 2 full 80-col lines + partial last
    assert tb.num_words_in_wrapped_lines == 20  # words on full lines only
    assert tb.text_density() == 10.0


def test_line_wrap_counts_runes_not_bytes():
    # CJK chars are 3 UTF-8 bytes but 1 rune: wrap math must use runes.
    words = " ".join(["好好好好好好好"] * 30)  # 7 runes per word
    doc = parse_document(f"<html><body><p>{words}</p></body></html>")
    tb = doc.text_blocks[0]
    assert tb.num_wrapped_lines == 2
    assert tb.num_words_in_wrapped_lines == 20


def test_ignore_blocks_after_content_threshold():
    from go_boilerpipe_ray.kernel.filters import IgnoreBlocksAfterContent

    # Terminator seen but running full-text word sum < 60 → nothing cut.
    small = _block(words=30, content=True)
    small.num_words_in_wrapped_lines = 30
    small.num_wrapped_lines = 3  # density 10 ≥ 9 → counts fully
    term = _block(words=3, text="comments!", labels=[Label.INDICATES_END_OF_TEXT])
    tail = _block(words=20, content=True)
    doc = _doc(small, term, tail)
    assert IgnoreBlocksAfterContent().process(doc) is False
    assert tail.is_content

    # Sum ≥ 60 → terminator block and everything after go non-content.
    big = _block(words=80, content=True)
    big.num_words_in_wrapped_lines = 80
    big.num_wrapped_lines = 8
    term2 = _block(words=3, text="comments!", labels=[Label.INDICATES_END_OF_TEXT])
    tail2 = _block(words=20, content=True)
    doc2 = _doc(big, term2, tail2)
    assert IgnoreBlocksAfterContent().process(doc2) is True
    assert not tail2.is_content and big.is_content


def test_low_density_blocks_do_not_count_toward_cut():
    from go_boilerpipe_ray.kernel.filters import IgnoreBlocksAfterContent

    # density < 9 → getNumFullTextWords is 0 even with many words.
    sparse = _block(words=100, content=True)
    sparse.num_words_in_wrapped_lines = 40
    sparse.num_wrapped_lines = 10  # density 4
    term = _block(words=3, text="comments!", labels=[Label.INDICATES_END_OF_TEXT])
    doc = _doc(sparse, term)
    assert IgnoreBlocksAfterContent().process(doc) is False


def test_keep_largest_blocks_percent_tiers():
    from go_boilerpipe_ray.kernel.filters import KeepLargestBlocks

    # max ≥ 1000 → keep content blocks with ≥ 0.25·max words.
    a = _block(words=1200, content=True, level=2)
    b = _block(words=400, content=True, level=2)   # ≥ 300 → kept
    c = _block(words=200, content=True, level=2)   # < 300 → dropped
    doc = _doc(a, b, c)
    KeepLargestBlocks(expand_to_same_level_text=False).process(doc)
    assert a.is_content and b.is_content and not c.is_content
    assert a.has_label(Label.VERY_LIKELY_CONTENT)
    assert b.has_label(Label.MIGHT_BE_CONTENT)


def test_keep_largest_blocks_tag_level_expansion():
    from go_boilerpipe_ray.kernel.filters import KeepLargestBlocks

    # Blocks at the same tag level with ≥150 words become content; the
    # scans run from the document START forward and END backward, each
    # stopping at the first lower-level block — so only a block fenced by
    # lower-level barriers on BOTH sides stays untouched.
    big = _block(words=300, content=True, level=3)
    same_level = _block(words=200, content=False, level=3)
    b1 = _block(words=10, content=False, level=2)
    beyond = _block(words=200, content=False, level=3)
    b2 = _block(words=10, content=False, level=2)
    doc = _doc(b1, beyond, b2, big, same_level)
    KeepLargestBlocks().process(doc)
    assert same_level.is_content       # same level, ≥150 words (backward scan)
    assert not beyond.is_content       # fenced by lower-level barriers


def test_list_at_end():
    from go_boilerpipe_ray.kernel.filters import ListAtEnd

    main = _block(words=300, content=True, level=2, labels=[Label.VERY_LIKELY_CONTENT])
    li1 = _block(words=5, level=3, labels=[Label.MIGHT_BE_CONTENT, Label.LIST])
    li2 = _block(words=5, level=3, labels=[Label.MIGHT_BE_CONTENT, Label.LIST])
    linky = _block(words=5, linked=5, level=3, labels=[Label.MIGHT_BE_CONTENT, Label.LIST])
    doc = _doc(main, li1, li2, linky)
    assert ListAtEnd().process(doc) is True
    assert li1.is_content and li2.is_content
    assert not linky.is_content  # link density 1.0 disqualifies


def test_large_block_same_tag_level_to_content():
    from go_boilerpipe_ray.kernel.filters import (
        KeepLargestBlocks,
        LargeBlockSameTagLevelToContent,
    )

    big = _block(words=300, content=True, level=2)
    other = _block(words=150, content=False, level=2)
    small = _block(words=50, content=False, level=2)
    off_level = _block(words=150, content=False, level=4)
    doc = _doc(big, other, small, off_level)
    KeepLargestBlocks(expand_to_same_level_text=False).process(doc)
    assert LargeBlockSameTagLevelToContent().process(doc) is True
    assert other.is_content
    assert not small.is_content and not off_level.is_content


def test_classifier_link_density_thresholds():
    # curr link density > 1/3 → never content, regardless of words.
    linky = _block(words=60, linked=30)
    doc = _doc(linky)
    NumWordsRulesClassifier().process(doc)
    assert not linky.is_content

    # prev linky (> 0.555): curr needs > 40 words or next > 17.
    prev = _block(words=10, linked=9)
    curr = _block(words=41)
    nxt = _block(words=5)
    doc2 = _doc(prev, curr, nxt)
    NumWordsRulesClassifier().process(doc2)
    assert curr.is_content


def test_string_to_html_quirks():
    # serve.go:150-170: '\n' closes a <p>, next char lazily opens one;
    # no HTML escaping; trailing unterminated segment stays unclosed.
    from go_boilerpipe_ray.kernel.document import string_to_html

    assert string_to_html("") == ""
    assert string_to_html("a") == "<p>a"
    assert string_to_html("a\n") == "<p>a</p>"
    assert string_to_html("a\n\nb") == "<p>a</p><p></p><p>b"
    assert string_to_html("x<&y\nz") == "<p>x<&y</p><p>z"


def test_flush_count_cache_keys_on_anchor_state():
    """The flush-count memo must key on (buffer string, anchor-state-in):
    the same block text flushed inside vs outside an anchor that spans a
    block boundary has different linked-word counts; and a warm cache
    must reproduce cold results exactly."""
    from go_boilerpipe_ray.kernel import handler as H
    from go_boilerpipe_ray.kernel.document import parse_document

    html = (
        "<html><body><a href='#'>x <p>same words here</p></a>"
        "<p>same words here</p></body></html>"
    )
    H._FLUSH_COUNT_CACHE.clear()
    cold = [
        (tb.text, tb.num_words, tb.num_linked_words)
        for tb in parse_document(html).text_blocks
    ]
    assert cold == [("x", 1, 1), ("same words here", 3, 3), ("same words here", 3, 0)]
    # Both anchor states of an identical buffer string were cached (the
    # buffer is the lone end-sentinel token; build the key from the
    # constant — it embeds an invisible U+E00A).
    end_buf = f" {H.ANCHOR_TEXT_END} "
    flags = {k[1] for k in H._FLUSH_COUNT_CACHE if k[0] == end_buf}
    assert flags == {True, False}
    warm = [
        (tb.text, tb.num_words, tb.num_linked_words)
        for tb in parse_document(html).text_blocks
    ]
    assert warm == cold


def test_extract_documents_empties_flush_memo_per_batch():
    """A batch must not run faster for documents its long-lived worker
    extracted before: the stage empties the text-keyed flush memo at the
    start of every batch, and the memo then holds that batch's buffers
    only."""
    from go_boilerpipe_ray.kernel import handler as H
    from go_boilerpipe_ray.sources.fixtures import spans_table, text_span
    from go_boilerpipe_ray.stages.extract import ExtractDocuments

    def batch(words: str):
        html = f"<html><body><p>{words}</p></body></html>"
        return spans_table([("d", [text_span(html, 0)])])

    ExtractDocuments()(batch("first batch words"))
    first = set(H._FLUSH_COUNT_CACHE)
    assert any("first batch words" in k[0] for k in first)
    ExtractDocuments()(batch("second batch words"))
    second = set(H._FLUSH_COUNT_CACHE)
    assert not any("first batch words" in k[0] for k in second)
    assert any("second batch words" in k[0] for k in second)


def test_extraction_accepts_large_list_spans():
    """The reassembly regroups spans into a large_list column (int64
    offsets) and hands it to the extractor uncast: both the extractor and
    the reassembly give the same rows for large_list input as for list."""
    import pyarrow as pa

    from go_boilerpipe_ray.pipelines.article import _reassemble_part
    from go_boilerpipe_ray.sources.fixtures import (
        html_for_document,
        media_span,
        spans_table,
        split_chunks,
        text_span,
    )
    from go_boilerpipe_ray.stages.extract import ExtractDocuments

    rows = []
    for d in range(4):
        chunks = split_chunks(html_for_document(d, "alpha beta, gamma delta " * 8, 2), 4)
        spans = [text_span(c, i) for i, c in enumerate(chunks)]
        spans.insert(2, media_span("image", f"media://{d}", 2))
        for i, c in enumerate(spans):
            c["offset"] = i
        # Two fragment rows per document, the second written first.
        rows += [(f"d{d}", spans[3:]), (f"d{d}", spans[:3])]
    table = spans_table(rows)
    list_type = table.schema.field("spans").type
    large = table.set_column(
        1, "spans", table.column("spans").cast(pa.large_list(list_type.value_type))
    )
    assert pa.types.is_large_list(large.schema.field("spans").type)

    assert ExtractDocuments()(large).equals(ExtractDocuments()(table))
    out = _reassemble_part(large)
    assert out.equals(_reassemble_part(table))
    assert out.num_rows == 4
    assert all(n > 0 for n in out.column("n_blocks_kept").to_pylist())

"""The filter chain: 15 block-list transforms + pipeline composition.

Cloned from /root/reference/filter.go, including behaviors that look like
bugs but are golden-verified live semantics (marked [Q] below and in
SURVEY.md §2) — do NOT "fix" them:

- TerminatingBlocks: the short-text LinkDensity==1.0 "Comment" branch does
  not set the changed flag (filter.go:97-101).
- getLongestPart compares ``numWords > best OR len(part) > len(bestPart)``
  so a longer-but-fewer-words part wins (filter.go:256).
- addPotentialTitles splits on single spaces then counts words per fragment
  with a backspace-or-space class — effectively a no-op (filter.go:223-239).
- NumWordsRulesClassifier pads a <2-block document with the *start* sentinel
  on both sides and skips the trailing window (filter.go:695-718).
- BlockProximityFusion computes the distance from the SAME block's
  start/end offsets, so the distance check always passes (filter.go:362).
- TrailingHeadlineToBoilerplate only breaks inside the is-content branch,
  so trailing non-content blocks do not stop the walk (filter.go:278-289).
- ExpandTitleToContent iterates indices 0..gap-1 instead of the
  title..contentStart range (filter.go:598-605).

String length comparisons are BYTE lengths (Go strings), hence _blen().
"""

from __future__ import annotations

import re

from .document import Document
from .textblock import (
    Label,
    MAX_INT32,
    TextBlock,
    empty_end_block,
    empty_start_block,
)

_EMPTY_START = empty_start_block()
_EMPTY_END = empty_end_block()


def _blen(s: str) -> int:
    """Byte length of a string (Go len())."""
    if s.isascii():
        return len(s)
    return len(s.encode("utf-8"))


class Filter:
    """User-extension surface: the reference's Filter interface
    (filter.go:50-56).  Subclasses implement process(doc) -> has_changed."""

    name = "Filter"

    def process(self, doc: Document) -> bool:  # pragma: no cover - interface
        raise NotImplementedError


class Pipeline(Filter):
    """A Filter composed of filters; ORs has_changed (filter.go:11-28)."""

    def __init__(self, name: str, filters: list[Filter]):
        self.name = name
        self.filters = filters

    def process(self, doc: Document) -> bool:
        has_changed = False
        for f in self.filters:
            has_changed = f.process(doc) or has_changed
        return has_changed


class LoggingPipeline(Filter):
    """Snapshot wrapper mirroring cmd/boilerpipe/serve.go:172-204: records
    (filter name, has_changed, n_blocks) after each filter — the CLI's
    ``extract --lineage`` log.  With ``snapshot_blocks=True`` it also keeps
    each filter's post-state block texts (serve.go's extract template
    renders these in the per-filter accordion, one card per TextBlock);
    off by default — the full snapshots are strictly a debug-UI payload."""

    def __init__(self, pipeline: Pipeline, snapshot_blocks: bool = False):
        self.name = "Logging" + pipeline.name
        self.pipeline = pipeline
        self.snapshot_blocks = snapshot_blocks
        self.log: list[tuple[str, bool, int]] = []
        self.block_snapshots: list[list[str]] = []

    def process(self, doc: Document) -> bool:
        self.log = []
        self.block_snapshots = []
        has_changed = False
        for f in self.pipeline.filters:
            changed = f.process(doc)
            self.log.append((f.name, changed, len(doc.text_blocks)))
            if self.snapshot_blocks:
                self.block_snapshots.append(
                    [tb.text for tb in doc.text_blocks]
                )
            has_changed = changed or has_changed
        return has_changed


# ---------------------------------------------------------------------------


class TerminatingBlocks(Filter):
    name = "TerminatingBlocks"

    _PREFIXES = ("comments", "© reuters", "please rate this", "post a comment")
    _CONTAINS = (
        "what you think...",
        "add your comment",
        "add comment",
        "reader views",
        "have your say",
        "reader comments",
        "rätta artikeln",
    )

    def process(self, doc: Document) -> bool:
        has_changed = False
        for tb in doc.text_blocks:
            if tb.num_words >= 15:
                continue
            text = _go_trim_space(tb.text)
            if _blen(text) >= 8:
                text_lc = text.lower()
                if (
                    text_lc.startswith(self._PREFIXES)
                    or _starts_with_number(text_lc, " comments", " users responded in")
                    or any(sub in text_lc for sub in self._CONTAINS)
                    or text_lc == "thanks for your comments - this feedback is now closed"
                ):
                    tb.add_labels(Label.INDICATES_END_OF_TEXT)
                    has_changed = True
            elif tb.link_density() == 1.0:
                if text == "Comment":
                    # [Q] changed flag intentionally NOT set here.
                    tb.add_labels(Label.INDICATES_END_OF_TEXT)
        return has_changed


def _starts_with_number(text: str, *prefixes: str) -> bool:
    """True if text starts with digits followed by one of the prefixes
    (filter.go:110-124; byte-wise ASCII digits)."""
    i = 0
    n = len(text)
    while i < n and "0" <= text[i] <= "9":
        i += 1
    if i == 0:
        return False
    rest = text[i:]
    return any(rest.startswith(p) for p in prefixes)


from .handler import go_trim_space as _go_trim_space  # noqa: E402


# ---------------------------------------------------------------------------


_LONGEST_PART_PATTERNS = [
    re.compile(p)
    for p in (
        "[ ]*[\\|»|-][ ]*",
        "[ ]*[\\|»|:][ ]*",
        "[ ]*[\\|»|:\\(\\)][ ]*",
        "[ ]*[\\|»|:\\(\\)\\-][ ]*",
        "[ ]*[\\|»|,|:\\(\\)\\-][ ]*",
        "[ ]*[\\|»|,|:\\(\\)\\- ][ ]*",
    )
]
_WORD_SPLIT = re.compile("[\b ]+")  # [Q] backspace-or-space class, as in Go
_TITLE_STRIP = re.compile("[\\?\\!\\.\\-\\:]+")
_REMOVE_TAIL = re.compile(" - [^\\-]+$")
_REMOVE_HEAD = re.compile("^[^\\-]+ - ")


def _remove_first(s: str, pattern: re.Pattern) -> str:
    m = pattern.search(s)
    if m is None or m.group(0) == "":
        return s
    return s.replace(m.group(0), "", 1)


def _get_longest_part(title: str, pattern: re.Pattern) -> str:
    parts = pattern.split(title)
    if len(parts) == 1:
        return ""
    longest_num_words = 0
    longest_part = ""
    for p in parts:
        if ".com" in p:
            continue
        num_words = len(_WORD_SPLIT.split(p))
        # [Q] OR comparison: longer-in-bytes part wins even with fewer words.
        if num_words > longest_num_words or _blen(p) > _blen(longest_part):
            longest_num_words = num_words
            longest_part = p
    if longest_part == "":
        return ""
    return _go_trim_space(longest_part)


def _add_potential_titles(
    potential: set[str], title: str, pattern: str, min_words: int
) -> None:
    # [Q] faithful no-op: splits on single spaces; each fragment then counts
    # as one word via the backspace-or-space class, so min_words=4 never
    # matches (filter.go:223-239).
    parts = title.split(" ")
    if len(parts) == 1:
        return
    for p in parts:
        if ".com" in p:
            continue
        num_words = len(_WORD_SPLIT.split(p))
        if num_words >= min_words:
            potential.add(p)


class DocumentTitleMatchClassifier(Filter):
    name = "DocumentTitleMatchClassifier"

    def process(self, doc: Document) -> bool:
        if len(doc.title) == 0:
            return False

        title = doc.title.replace(" ", " ").replace("'", "")
        title = _go_trim_space(title).lower()
        if len(title) == 0:
            return False

        potential = {title}
        for pat in _LONGEST_PART_PATTERNS:
            pot = _get_longest_part(title, pat)
            if pot:
                potential.add(pot)

        _add_potential_titles(potential, title, "[ ]+[\\|][ ]+", 4)
        _add_potential_titles(potential, title, "[ ]+[\\-][ ]+", 4)

        potential.add(_remove_first(title, _REMOVE_TAIL))
        potential.add(_remove_first(title, _REMOVE_HEAD))

        for tb in doc.text_blocks:
            text = tb.text.replace(" ", " ").replace("'", "")
            text = _go_trim_space(text).lower()
            if text in potential:
                tb.add_labels(Label.TITLE)
                return True
            text = _go_trim_space(_TITLE_STRIP.sub("", text))
            if text in potential:
                tb.add_labels(Label.TITLE)
                return True
        return False


# ---------------------------------------------------------------------------


class NumWordsRulesClassifier(Filter):
    name = "NumWordsRulesClassifier"

    def process(self, doc: Document) -> bool:
        blocks = doc.text_blocks
        if len(blocks) == 0:
            return False

        has_changed = False
        prev = _EMPTY_START
        curr = blocks[0]
        # [Q] a 1-block document uses the start sentinel as the next block
        # and the trailing window never runs.
        nxt = blocks[1] if len(blocks) >= 2 else _EMPTY_START

        has_changed = _classify(prev, curr, nxt) or has_changed

        if nxt is not _EMPTY_START:
            for i in range(2, len(blocks)):
                prev, curr, nxt = curr, nxt, blocks[i]
                has_changed = _classify(prev, curr, nxt) or has_changed
            prev, curr, nxt = curr, nxt, _EMPTY_END
            has_changed = _classify(prev, curr, nxt) or has_changed

        return has_changed


def _classify(prev: TextBlock, curr: TextBlock, nxt: TextBlock) -> bool:
    # Hard-coded decision tree (filter.go:723-758).
    if curr.link_density() <= 0.333333:
        if prev.link_density() <= 0.555556:
            if curr.num_words <= 16:
                if nxt.num_words <= 15:
                    is_content = prev.num_words > 4
                else:
                    is_content = True
            else:
                is_content = True
        else:
            if curr.num_words <= 40:
                is_content = nxt.num_words > 17
            else:
                is_content = True
    else:
        is_content = False
    curr.is_content = is_content
    return is_content


# ---------------------------------------------------------------------------


_DEFAULT_MIN_NUM_WORDS = 60


def _get_num_full_text_words(tb: TextBlock) -> int:
    if tb.text_density() >= 9.0:
        return tb.num_words
    return 0


class IgnoreBlocksAfterContent(Filter):
    name = "IgnoreBlocksAfterContent"

    def __init__(self, min_num_words: int = _DEFAULT_MIN_NUM_WORDS):
        self.min_num_words = min_num_words

    def process(self, doc: Document) -> bool:
        has_changed = False
        num_words = 0
        found_end_of_text = False
        for tb in doc.text_blocks:
            eot = tb.has_label(Label.INDICATES_END_OF_TEXT)
            if tb.is_content:
                num_words += _get_num_full_text_words(tb)
            if eot and num_words >= self.min_num_words:
                found_end_of_text = True
            if found_end_of_text:
                has_changed = True
                tb.is_content = False
        return has_changed


class TrailingHeadlineToBoilerplate(Filter):
    name = "TrailingHeadlineToBoilerplate"

    def process(self, doc: Document) -> bool:
        has_changed = False
        for tb in reversed(doc.text_blocks):
            if tb.is_content:
                if tb.has_label(Label.HEADING):
                    tb.is_content = False
                    has_changed = True
                else:
                    break
            # [Q] non-content trailing blocks do NOT stop the walk.
        return has_changed


# ---------------------------------------------------------------------------


class BlockProximityFusion(Filter):
    def __init__(self, suffix: str, max_blocks_distance: int, content_only: bool, same_tag_level_only: bool):
        self.name = "BlockProximityFusionMaxDistance" + suffix
        self.max_blocks_distance = max_blocks_distance
        self.content_only = content_only
        self.same_tag_level_only = same_tag_level_only

    def process(self, doc: Document) -> bool:
        # One forward pass: each maximal run of blocks that would merge
        # into prev_block is collected and folded with one merge_run, and
        # the survivors are written back in place (callers hold the list).
        # Deferring the fold is exact: a merge never changes the
        # prev_block fields the merge test reads (content_only merges only
        # into content blocks; same_tag_level_only only at equal levels).
        blocks = doc.text_blocks
        if len(blocks) < 2:
            return False

        start_block = 1
        if self.content_only:
            for start_block, tb in enumerate(blocks, 1):
                if tb.is_content:
                    break
            else:
                return False

        out = blocks[:start_block]
        prev_block = out[-1]
        run: list[TextBlock] = []
        for tb in blocks[start_block:]:
            # [Q] distance computed from the same block's own offsets —
            # always -1, so the check always passes (filter.go:362).
            if (
                tb.is_content
                and tb.offset_blocks_start - tb.offset_blocks_end - 1 <= self.max_blocks_distance
                and (prev_block.is_content or not self.content_only)
                and (prev_block.tag_level == tb.tag_level or not self.same_tag_level_only)
            ):
                run.append(tb)
                continue
            if run:
                prev_block.merge_run(run)
                run = []
            out.append(tb)
            prev_block = tb
        if run:
            prev_block.merge_run(run)
        if len(out) == len(blocks):
            return False
        blocks[:] = out
        return True


def block_proximity_fusion_max_distance_one() -> Filter:
    return BlockProximityFusion("One", 1, False, False)


def block_proximity_fusion_max_distance_one_content_only_same_tag_level() -> Filter:
    return BlockProximityFusion("OneContentOnlySameTagLevel", 1, True, True)


class BoilerplateBlock(Filter):
    name = "BoilerplateBlock"

    def process(self, doc: Document) -> bool:
        blocks = doc.text_blocks
        kept = [tb for tb in blocks if tb.is_content or tb.has_label(Label.TITLE)]
        if len(kept) == len(blocks):
            return False
        blocks[:] = kept
        return True


# ---------------------------------------------------------------------------


_EXPAND_TO_SAME_TAG_LEVEL_MIN_WORDS = 150


def _is_largest_block(max_num_words: int, tb: TextBlock) -> bool:
    if max_num_words >= 1000:
        min_word_percent = 0.25
    elif max_num_words >= 500:
        min_word_percent = 0.6
    else:
        return tb.is_content and tb.num_words == max_num_words
    return tb.is_content and tb.num_words >= int(min_word_percent * max_num_words)


class KeepLargestBlocks(Filter):
    name = "KeepLargestBlocks"

    def __init__(self, expand_to_same_level_text: bool = True, min_words: int = _EXPAND_TO_SAME_TAG_LEVEL_MIN_WORDS):
        self.expand_to_same_level_text = expand_to_same_level_text
        self.min_words = min_words

    def process(self, doc: Document) -> bool:
        blocks = doc.text_blocks
        if len(blocks) < 2:
            return False

        max_num_words = -1
        largest_block: TextBlock | None = None
        level = -1
        n = -1

        for j, tb in enumerate(blocks):
            if tb.is_content and tb.num_words > max_num_words:
                largest_block = tb
                max_num_words = tb.num_words
                n = j
                if self.expand_to_same_level_text:
                    level = tb.tag_level

        for tb in blocks:
            if tb is largest_block:
                tb.is_content = True
                tb.add_labels(Label.VERY_LIKELY_CONTENT)
            else:
                tb.is_content = _is_largest_block(max_num_words, tb)
                tb.add_labels(Label.MIGHT_BE_CONTENT)

        if self.expand_to_same_level_text and n != -1:
            # Expand to blocks below the largest (scan from the end).
            for tb in reversed(blocks):
                tl = tb.tag_level
                if tl < level:
                    break
                if tl == level and tb.num_words >= self.min_words:
                    tb.is_content = True
            # Expand to blocks above the largest (scan from the start).
            for tb in blocks:
                tl = tb.tag_level
                if tl < level:
                    break
                if tl == level and tb.num_words >= self.min_words:
                    tb.is_content = True

        return True


class ExpandTitleToContent(Filter):
    name = "ExpandTitleToContent"

    def process(self, doc: Document) -> bool:
        blocks = doc.text_blocks
        title = -1
        content_start = -1
        for j, tb in enumerate(blocks):
            if content_start == -1 and tb.has_label(Label.TITLE):
                title = j
            if content_start == -1 and tb.is_content:
                content_start = j
        if content_start <= title or title == -1:
            return False

        has_changed = False
        # [Q] iterates indices 0..(content_start - title - 1), NOT the
        # title..content_start slice (filter.go:598-605).
        for i in range(content_start - title):
            tb = blocks[i]
            if tb.has_label(Label.MIGHT_BE_CONTENT):
                has_changed = (not tb.is_content) or has_changed
                tb.is_content = True
        return has_changed


class LargeBlockSameTagLevelToContent(Filter):
    name = "LargeBlockSameTagLevelToContent"

    def process(self, doc: Document) -> bool:
        has_changed = False
        tag_level = -1
        for tb in doc.text_blocks:
            if tb.is_content and tb.has_label(Label.VERY_LIKELY_CONTENT):
                tag_level = tb.tag_level
                break
        if tag_level == -1:
            return False
        for tb in doc.text_blocks:
            if not tb.is_content and tb.num_words >= 100 and tb.tag_level == tag_level:
                tb.is_content = True
                has_changed = True
        return has_changed


class ListAtEnd(Filter):
    name = "ListAtEnd"

    def process(self, doc: Document) -> bool:
        has_changed = False
        tag_level = MAX_INT32
        for tb in doc.text_blocks:
            if tb.is_content and tb.has_label(Label.VERY_LIKELY_CONTENT):
                tag_level = tb.tag_level
            else:
                if (
                    tb.tag_level > tag_level
                    and tb.has_label(Label.MIGHT_BE_CONTENT)
                    and tb.has_label(Label.LIST)
                    and tb.link_density() == 0.0
                ):
                    tb.is_content = True
                    has_changed = True
                else:
                    tag_level = MAX_INT32
        return has_changed


# ---------------------------------------------------------------------------
# Pipelines
# ---------------------------------------------------------------------------


def article_pipeline() -> Pipeline:
    """The fixed 12-filter chain (filter.go:30-46); order is load-bearing."""
    return Pipeline(
        "Article",
        [
            TerminatingBlocks(),
            DocumentTitleMatchClassifier(),
            NumWordsRulesClassifier(),
            IgnoreBlocksAfterContent(),
            TrailingHeadlineToBoilerplate(),
            block_proximity_fusion_max_distance_one(),
            BoilerplateBlock(),
            block_proximity_fusion_max_distance_one_content_only_same_tag_level(),
            KeepLargestBlocks(),
            ExpandTitleToContent(),
            LargeBlockSameTagLevelToContent(),
            ListAtEnd(),
        ],
    )


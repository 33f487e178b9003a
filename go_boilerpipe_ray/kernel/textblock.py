"""TextBlock record, Label enum and label stack.

Semantics cloned from the reference /root/reference/textblock.go: labels are
a multiset (counts merge on MergeNext), the classifier window is padded with
MinInt32/MaxInt32 sentinel blocks, LinkDensity guards div-by-zero while
TextDensity does not (NumWrappedLines >= 1 by construction).
"""

from __future__ import annotations

from enum import IntEnum

MIN_INT32 = -(2**31)
MAX_INT32 = 2**31 - 1


class Label(IntEnum):
    # Ordinals match /root/reference/textblock.go:11-21.
    INDICATES_END_OF_TEXT = 0
    MIGHT_BE_CONTENT = 1
    VERY_LIKELY_CONTENT = 2
    TITLE = 3
    LIST = 4
    HEADING = 5
    HEADING1 = 6
    HEADING2 = 7
    HEADING3 = 8


class LabelStack:
    """LIFO of pending labels (textblock.go:23-64). PopAll drains in
    reverse (top-first) order."""

    __slots__ = ("_labels",)

    def __init__(self):
        self._labels: list[Label] = []

    def __len__(self) -> int:
        return len(self._labels)

    def push(self, *labels: Label) -> None:
        self._labels.extend(labels)

    def pop(self) -> Label | None:
        if not self._labels:
            return None
        return self._labels.pop()

    def pop_all(self) -> list[Label]:
        out = self._labels[::-1]
        self._labels = []
        return out


class TextBlock:
    __slots__ = (
        "text",
        "offset_blocks_start",
        "offset_blocks_end",
        "num_words",
        "num_linked_words",
        "num_words_in_wrapped_lines",
        "num_wrapped_lines",
        "tag_level",
        "is_content",
        "label_map",
        "src_end",
    )

    def __init__(self):
        self.text = ""
        self.offset_blocks_start = 0
        self.offset_blocks_end = 0
        self.num_words = 0
        self.num_linked_words = 0
        self.num_words_in_wrapped_lines = 0
        self.num_wrapped_lines = 0
        self.tag_level = 0
        self.is_content = False
        self.label_map: dict[Label, int] = {}
        # Engine extension (not in the reference): source char offset where
        # the last text token contributing to this block ended — used only
        # for deterministic media-span interleaving (SURVEY §7.2).
        self.src_end = -1

    def add_labels(self, *labels: Label) -> "TextBlock":
        for label in labels:
            self.label_map[label] = self.label_map.get(label, 0) + 1
        return self

    def has_label(self, label: Label) -> bool:
        return label in self.label_map

    def labels(self) -> list[Label]:
        return list(self.label_map)

    def merge_next(self, nxt: "TextBlock") -> None:
        self.merge_run((nxt,))

    def merge_run(self, run: "list[TextBlock] | tuple[TextBlock, ...]") -> None:
        # textblock.go:131-166 applied to each block of the run in order —
        # '\n' join, min/max offsets, summed counts, OR'd is_content,
        # count-merged labels, min tag level.  The texts are joined once,
        # so a run costs O(total text), not O(len(run) * text).
        texts = [self.text]
        for nxt in run:
            texts.append(nxt.text)
            self.offset_blocks_start = min(
                self.offset_blocks_start, nxt.offset_blocks_start
            )
            self.offset_blocks_end = max(self.offset_blocks_end, nxt.offset_blocks_end)
            self.num_words += nxt.num_words
            self.num_linked_words += nxt.num_linked_words
            self.num_words_in_wrapped_lines += nxt.num_words_in_wrapped_lines
            self.num_wrapped_lines += nxt.num_wrapped_lines
            self.is_content = self.is_content or nxt.is_content
            for label, count in nxt.label_map.items():
                self.label_map[label] = self.label_map.get(label, 0) + count
            self.tag_level = min(self.tag_level, nxt.tag_level)
            self.src_end = max(self.src_end, nxt.src_end)
        self.text = "\n".join(texts)

    def link_density(self) -> float:
        if self.num_words == 0:
            return 0.0
        return self.num_linked_words / self.num_words

    def text_density(self) -> float:
        return self.num_words_in_wrapped_lines / self.num_wrapped_lines

    def __repr__(self):  # pragma: no cover - debug aid
        return (
            f"TextBlock(words={self.num_words}, linked={self.num_linked_words},"
            f" level={self.tag_level}, content={self.is_content},"
            f" labels={dict(self.label_map)}, text={self.text[:40]!r})"
        )


def empty_start_block() -> TextBlock:
    tb = TextBlock()
    tb.offset_blocks_start = MIN_INT32
    tb.offset_blocks_end = MIN_INT32
    return tb


def empty_end_block() -> TextBlock:
    tb = TextBlock()
    tb.offset_blocks_start = MAX_INT32
    tb.offset_blocks_end = MAX_INT32
    return tb

"""Property-based robustness: the kernel must never raise on arbitrary
input, and span chunking must never change the result (the reference
swallows all HTML malformations — content_handler.go:129-131)."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from go_boilerpipe_ray.kernel import filters
from go_boilerpipe_ray.kernel.document import parse_document
from go_boilerpipe_ray.kernel.filters import article_pipeline
from go_boilerpipe_ray.kernel.spans import content_from_result, extract_from_spans
from go_boilerpipe_ray.sources.fixtures import split_chunks, text_span

_tag_soup = st.lists(
    st.sampled_from(
        list("abc <>/=\"'&;!-?\n\t好⁣")
        + [
            "<p>",
            "</p>",
            "<a href='x'>",
            "</a>",
            "<script>",
            "</script>",
            "<title>",
            "</title>",
            "<body>",
            "</body>",
            "&amp;",
            "&#x41;",
            "&notanentity",
            "<br>",
            "<!--",
            "-->",
            "<time datetime='2020-01-02T03:04:05Z'>",
        ]
    ),
    max_size=120,
).map("".join)


@settings(max_examples=200, deadline=None)
@given(_tag_soup)
def test_kernel_never_raises(html):
    doc = parse_document(html)
    article_pipeline().process(doc)
    doc.content()


@settings(max_examples=100, deadline=None)
@given(_tag_soup, st.integers(min_value=1, max_value=7))
def test_chunking_invariance(html, k):
    whole = extract_from_spans([text_span(html, 0)])
    chunked = extract_from_spans(
        [text_span(c, i) for i, c in enumerate(split_chunks(html, k))]
    )
    assert content_from_result(whole) == content_from_result(chunked)
    assert whole.title == chunked.title


_attr_soup = st.lists(
    st.sampled_from(
        list("ab =/\"'<>&\t\n")
        + ["<div", "<a href=", "'v'", '"w"', "</div", ">", "/>", "<span a", "=x", "<p/q r=s>"]
    ),
    max_size=60,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_attr_soup)
# Round-3 Hypothesis counterexample: a quote right after '=' in a
# malformed end tag starts a quoted value that swallows '>' and runs to
# EOF — the fast regex used to emit END_TAG div [0,17) here.
@example(html='</div/="<p/q r=s>')
def test_fast_tag_scan_matches_char_parser(html):
    from go_boilerpipe_ray.kernel.htmltok import Tokenizer

    fast = [(t[0], t[1], t[3], t[4]) for t in Tokenizer(html, fast=True)]
    slow = [(t[0], t[1], t[3], t[4]) for t in Tokenizer(html, fast=False)]
    assert fast == slow


# Alphabet exercising every tokenize() path: word chars (incl. Unicode
# letters), glue punctuation, other symbols, spaces, and the literal
# U+2063 invisible separator the reference's 3-pass tokenizer inserts.
_tok_text = st.text(
    alphabet=list("abcXYZ019_ .,-!@:;$?()/'\"%€~<>$⁣\t 　é漢"),
    max_size=60,
)


@given(_tok_text)
@settings(max_examples=400, deadline=None)
def test_tokenize_matches_reference_3pass(text):
    from go_boilerpipe_ray.kernel.handler import _tokenize_reference, tokenize

    assert tokenize(text) == _tokenize_reference(text)


# Plain text: ASCII word characters, spaces, glue punctuation and the
# anchor sentinels, alone or glued to words, which is where tokenize
# splits at spaces without its regex.  The counts flush_block takes from
# the tokens must agree too.
_plain_text = st.lists(
    st.sampled_from(
        list("abZ09_ .,-!@:;$?()/'\"<>") + ["$<", ">$", " $< ", " >$ ", "word", "  ", "\xa0"]
    ),
    max_size=40,
).map("".join)


@given(_plain_text, st.booleans())
@settings(max_examples=600, deadline=None)
def test_tokenize_plain_text_matches_reference_3pass(text, in_anchor):
    from go_boilerpipe_ray.kernel.handler import (
        _token_counts_from_tokens,
        _tokenize_reference,
        tokenize,
    )

    tokens = tokenize(text)
    assert tokens == _tokenize_reference(text)
    assert _token_counts_from_tokens(tokens, in_anchor) == _token_counts_from_tokens(
        _tokenize_reference(text), in_anchor
    )


# -- combiner laws for the wide-operator partials (pure pyarrow, no Ray) ----
#
# Every "pre-aggregate in the batch, roll up in the groupby" operator is
# only correct if its partial is a homomorphism: combining per-chunk
# partials must equal the partial of the whole.  These pin that law on
# random inputs for the newest combiners.

_cap_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=10_000),
              st.sampled_from(["a", "b", "c", "d"])),
    min_size=0, max_size=60, unique_by=lambda t: t[0],
)


@given(_cap_rows, st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_domain_cap_combiner_law(rows, n, k):
    import pyarrow as pa

    from go_boilerpipe_ray.functions.sampling import lowest_n_per_source as cap

    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], pa.int64()),
            "source": pa.array([r[1] for r in rows], pa.string()),
        }
    )
    # Split into k chunks, cap each, concat, cap again == cap whole.
    chunks = [tbl.slice(i * (len(rows) // k + 1), len(rows) // k + 1) for i in range(k)]
    partial = pa.concat_tables([cap(c, n) for c in chunks])
    got = cap(partial, n).to_pylist()
    want = cap(tbl, n).to_pylist()
    key = lambda r: (r["source"], r["doc_id"])
    assert sorted(got, key=key) == sorted(want, key=key)


@given(st.lists(st.floats(min_value=0, max_value=500, allow_nan=False),
                min_size=0, max_size=80),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_histogram_partial_additive(vals, k):
    import collections

    import numpy as np
    import pyarrow as pa

    from go_boilerpipe_ray.functions.sketches import _hist_partial

    def to_tbl(vs):
        return pa.table({"value": pa.array(vs, pa.float64())})

    whole = _hist_partial(to_tbl(vals)).to_pylist() if vals else []
    merged: collections.Counter = collections.Counter()
    step = len(vals) // k + 1
    for i in range(k):
        part = vals[i * step:(i + 1) * step]
        if part:
            for r in _hist_partial(to_tbl(part)).to_pylist():
                merged[r["bin"]] += r["cnt"]
    assert merged == collections.Counter(
        {r["bin"]: r["cnt"] for r in whole}
    )


@given(
    st.lists(
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False, width=32),
            min_size=8, max_size=8,
        ),
        min_size=2, max_size=6,
    )
)
@settings(max_examples=80, deadline=None)
def test_semdedup_integer_cosine_matches_float_off_boundary(vectors):
    """The exact-integer cosine test agrees with float cosine whenever
    the pair is clearly off the 0.99 boundary (the integer test is the
    tie-free ground truth; float only disagrees within quantization
    noise of the threshold)."""
    import math

    import numpy as np

    from go_boilerpipe_ray.functions.similarity import (
        SEMDEDUP_COS2_BP,
        _quantize,
    )

    m = np.asarray(vectors, dtype=np.float64)
    if np.any(np.linalg.norm(m, axis=1) < 1e-3):
        return  # near-zero vectors: cosine undefined / quantizes to 0
    q = _quantize(m).tolist()
    n2 = [sum(x * x for x in row) for row in q]
    for i in range(len(q)):
        for j in range(i + 1, len(q)):
            if n2[i] == 0 or n2[j] == 0:
                continue
            ab = sum(x * y for x, y in zip(q[i], q[j]))
            int_verdict = ab > 0 and ab * ab * 10000 >= SEMDEDUP_COS2_BP * n2[i] * n2[j]
            cos = float(
                m[i] @ m[j] / (np.linalg.norm(m[i]) * np.linalg.norm(m[j]))
            )
            if abs(cos - math.sqrt(SEMDEDUP_COS2_BP / 10000.0)) > 1e-4:
                assert int_verdict == (cos >= 0.99), (i, j, cos, int_verdict)


# Round-4 hardening (the round-3 harness found a real fast-path
# divergence): a nastier alphabet aimed at the remaining fast paths —
# raw-text `</script ` tails, CR/NUL inside attributes, `<!` bogus
# comments, CDATA-ish and processing-instruction openers.
_nasty_soup = st.lists(
    st.sampled_from(
        list("ab<>/='\"\r\n\x00 \t-!?")
        + [
            "<script>", "</script", "</script ", "</script/>", "</script\t",
            "<script a='", "<!--", "-->", "--!>", "<!-", "<!doctype h",
            "<?php", "</ ", "<style>", "</style", "<textarea>",
            "</textarea >", "<title>", "</title\t>", "<![CDATA[", "]]>",
            "<!>", "<a b\x00c=d>", "=\r", "=\x00", "<a a=\"", "<a a='",
        ]
    ),
    max_size=80,
).map("".join)


@settings(max_examples=400, deadline=None)
@given(_nasty_soup)
def test_fast_tag_scan_matches_char_parser_nasty(html):
    from go_boilerpipe_ray.kernel.htmltok import Tokenizer

    fast = [(t[0], t[1], t[3], t[4]) for t in Tokenizer(html, fast=True)]
    slow = [(t[0], t[1], t[3], t[4]) for t in Tokenizer(html, fast=False)]
    assert fast == slow


@settings(max_examples=200, deadline=None)
@given(_nasty_soup)
def test_kernel_never_raises_nasty(html):
    doc = parse_document(html)
    article_pipeline().process(doc)
    doc.content()


# The one-pass translate form escape_string had before it became chained
# str.replace calls: the oracle for the rewrite.
_ESCAPE_TABLE_REFERENCE = {
    ord("&"): "&amp;",
    ord("'"): "&#39;",
    ord("<"): "&lt;",
    ord(">"): "&gt;",
    ord('"'): "&#34;",
}

_escape_text = st.lists(
    st.one_of(
        st.sampled_from(list("&'<>\"") + ["&amp;", "&#39;", "&lt;", "&#34;", ";", "#"]),
        st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF),
        st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
        st.characters(exclude_categories=("Cs",)),
    ),
    max_size=60,
).map("".join)


@settings(max_examples=600, deadline=None)
@given(_escape_text)
def test_escape_string_matches_translate(s):
    from go_boilerpipe_ray.kernel.document import escape_string

    assert escape_string(s) == s.translate(_ESCAPE_TABLE_REFERENCE)


# -- repartition_join differential vs a pandas reference ----------------------

_join_case = st.tuples(
    st.lists(st.integers(min_value=0, max_value=8), min_size=0, max_size=30),
    st.lists(st.integers(min_value=0, max_value=8), min_size=0, max_size=15),
    st.sampled_from(["inner", "left", "semi", "anti"]),
    st.integers(min_value=1, max_value=3),
    st.booleans(),  # bloom_prefilter
)


@settings(max_examples=25, deadline=None)
@given(_join_case)
def test_repartition_join_matches_pandas(case):
    """Differential: every join type × probe_salt against a pandas
    reference on a tiny keyspace (forces 1:N fan-out, misses on both
    sides, empty sides)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from go_boilerpipe_ray.functions.relational import repartition_join

    lkeys, rkeys, how, salt, bloom = case
    lv = np.arange(len(lkeys), dtype=np.int64)
    rv = np.arange(len(rkeys), dtype=np.int64) + 1000
    left = ray.data.from_arrow(
        pa.table({"lk": pa.array(lkeys, pa.int64()), "lv": pa.array(lv)})
    )
    right = ray.data.from_arrow(
        pa.table({"rk": pa.array(rkeys, pa.int64()), "rv": pa.array(rv)})
    )
    out = repartition_join(
        left,
        right,
        "lk",
        "rk",
        [("lv", pa.int64())],
        [] if how in ("semi", "anti") else [("rv", pa.int64())],
        how=how,
        probe_salt=salt,
        bloom_prefilter=bloom,
    ).to_pandas()

    ldf = pd.DataFrame({"lk": lkeys, "lv": lv})
    rdf = pd.DataFrame({"rk": rkeys, "rv": rv})
    if how in ("inner", "left"):
        ref = ldf.merge(
            rdf, left_on="lk", right_on="rk",
            how=how if how == "inner" else "left",
        )[["lv", "rv"]]
        got = out.reindex(columns=["lv", "rv"])
        ref = ref.astype("float64").sort_values(["lv", "rv"]).reset_index(drop=True)
        got = got.astype("float64").sort_values(["lv", "rv"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, ref)
    else:
        rset = set(rkeys)
        keep = [k in rset if how == "semi" else k not in rset for k in lkeys]
        ref = sorted(lv[np.asarray(keep, bool)].tolist())
        got = sorted(out["lv"].tolist()) if len(out) else []
        assert got == ref


# -- session-6 kernel differentials vs in-test references ---------------------

_events_case = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),      # user
        st.integers(min_value=0, max_value=2000),   # ts offset, seconds
        st.integers(min_value=-500, max_value=500), # value, cents
    ),
    min_size=0,
    max_size=25,
)


def _write_events(tmpdir, rows):
    import pyarrow as pa
    import pyarrow.parquet as pq

    base = 1_700_000_000_000_000  # µs epoch
    t = pa.table(
        {
            "event_id": pa.array(range(len(rows)), pa.int64()),
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                [base + r[1] * 1_000_000 for r in rows], pa.timestamp("us")
            ),
            "value": pa.array([r[2] / 100.0 for r in rows], pa.float64()),
        }
    )
    pq.write_table(t, f"{tmpdir}/events.parquet")
    return tmpdir


@settings(max_examples=20, deadline=None)
@given(_events_case)
def test_interval_coverage_property(rows):
    """Differential vs a sequential interval-merge reference on random
    (user, ts) sets — duplicate timestamps, touching pads, single-event
    users, empty input."""
    import tempfile

    from go_boilerpipe_ray.functions.relational import interval_coverage

    PAD = 300_000_000
    with tempfile.TemporaryDirectory() as d:
        _write_events(d, rows)
        got = {
            r["user_id"]: (r["n_islands"], r["covered_us"])
            for r in interval_coverage(d).take_all()
        }
    want = {}
    by_user: dict[int, list[int]] = {}
    base = 1_700_000_000_000_000
    for u, s, _ in rows:
        by_user.setdefault(u, []).append(base + s * 1_000_000)
    for u, ts in by_user.items():
        ts.sort()
        islands, cov, start, end = 0, 0, ts[0], ts[0] + PAD
        for t in ts[1:]:
            if t > end:
                islands, cov = islands + 1, cov + (end - start)
                start, end = t, t + PAD
            else:
                end = t + PAD
        want[u] = (islands + 1, cov + (end - start))
    assert got == want


@settings(max_examples=20, deadline=None)
@given(_events_case)
def test_moving_median_3_property(rows):
    """Differential vs a per-window sorted pick, including negative
    cents and duplicate timestamps (event_id breaks ties)."""
    import tempfile

    from go_boilerpipe_ray.functions.relational import moving_median_3

    with tempfile.TemporaryDirectory() as d:
        _write_events(d, rows)
        got = {
            r["event_id"]: r["med_cents"]
            for r in moving_median_3(d).take_all()
        }
    ordered: dict[int, list[tuple]] = {}
    base = 1_700_000_000_000_000
    for eid, (u, s, c) in enumerate(rows):
        ordered.setdefault(u, []).append((base + s * 1_000_000, eid, c))
    want = {}
    for u, seq in ordered.items():
        seq.sort()
        for i in range(1, len(seq) - 1):
            cents = sorted(x[2] for x in seq[i - 1 : i + 2])
            want[seq[i][1]] = cents[1]
    assert got == want


_snm_case = st.tuples(
    st.lists(
        st.text(alphabet="ab ", min_size=0, max_size=12),
        min_size=1,
        max_size=20,
    ),
    st.integers(min_value=1, max_value=5),  # window w
    st.integers(min_value=1, max_value=4),  # prefix length
)


@settings(max_examples=20, deadline=None)
@given(_snm_case)
def test_snm_dup_pairs_property(case):
    """Differential vs an O(n·w) reference over random tiny documents:
    duplicate texts, empty strings, all-equal token counts (one giant
    rank run), w larger than the corpus."""
    import re
    import tempfile

    import pyarrow as pa
    import pyarrow.parquet as pq

    from go_boilerpipe_ray.functions.dedup import snm_dup_pairs

    texts, w, prefix = case
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(range(len(texts)), pa.int64()),
                    "text": pa.array(texts, pa.string()),
                }
            ),
            f"{d}/documents.parquet",
        )
        got = {
            (r["doc_a"], r["doc_b"], r["gap"])
            for r in snm_dup_pairs(d, w=w, prefix=prefix).take_all()
        }
    feats = sorted(
        (len(re.findall(r"\S+", t)), i, t[:prefix]) for i, t in enumerate(texts)
    )
    want = set()
    for i in range(len(feats)):
        for dd in range(1, w + 1):
            if i + dd < len(feats) and feats[i][2] == feats[i + dd][2]:
                want.add((feats[i][1], feats[i + dd][1], dd))
    assert got == want


# -- AllPairs prefix-filtering differential (end-to-end, few examples:
#    each case runs real Ray pipelines) ---------------------------------------

_ap_words = st.lists(
    st.lists(
        st.sampled_from(
            ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
        ),
        min_size=3,
        max_size=10,
    ).map(" ".join),
    min_size=2,
    max_size=5,
)


@settings(max_examples=5, deadline=None)
@given(texts=_ap_words)
def test_allpairs_jaccard_matches_bruteforce_random(tmp_path_factory, texts):
    """Prefix-filtering completeness on RANDOM corpora: the operator's
    pair set must equal brute-force Jaccard over the same shingle sets
    (dup_corpus-expanded) for arbitrary short word documents — guards
    the df-order prefix lemma, the candidate dedup and the set-carry
    verify against corpus shapes the fixed test can't anticipate."""
    import itertools
    import re

    import pyarrow as pa
    import pyarrow.parquet as pq

    from go_boilerpipe_ray.functions.dedup import allpairs_jaccard, dup_corpus

    d = tmp_path_factory.mktemp("ap")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(len(texts)), pa.int64()),
                "text": pa.array(list(texts), pa.string()),
            }
        ),
        f"{d}/documents.parquet",
    )
    rows = dup_corpus(str(d)).take_all()
    sets = {}
    for r in rows:
        toks = re.findall(r"[a-z0-9]+", r["text"].lower())
        sets[r["doc_id"]] = {
            " ".join(toks[i : i + 3]) for i in range(len(toks) - 2)
        }
    want = set()
    for a, b in itertools.combinations(sorted(sets), 2):
        sa, sb = sets[a], sets[b]
        if not sa or not sb:
            continue
        inter = len(sa & sb)
        uni = len(sa | sb)
        if 100 * inter >= 70 * uni:
            want.add((a, b, inter, uni))
    got = {
        (r["id_a"], r["id_b"], r["inter"], r["uni"])
        for r in allpairs_jaccard(str(d)).take_all()
    }
    assert got == want


# -- combiner laws for the session-9 partials ---------------------------------

_hs_rows = st.lists(
    st.tuples(st.integers(min_value=0, max_value=100_000),
              st.integers(min_value=0, max_value=5_000)),
    min_size=0, max_size=80, unique_by=lambda t: t[0],
)


@given(_hs_rows, st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_halfsample_partial_combiner_law(rows, k):
    """The per-batch (replicate, n, s) fold is a homomorphism: summing
    chunk partials must equal the partial of the whole table — the law
    the groupby-Sum rollup silently assumes."""
    import numpy as np
    import pyarrow as pa

    from go_boilerpipe_ray.functions._util import md5_u64

    def partial(ids, nc):
        h = md5_u64(ids)
        reps = np.arange(32, dtype=np.int64)
        mem = (
            (h[:, None] >> reps[None, :].astype(np.uint64)) & np.uint64(1)
        ).astype(np.int64)
        return mem.sum(axis=0), (mem * nc[:, None]).sum(axis=0)

    ids = np.array([r[0] for r in rows], np.int64)
    nc = np.array([r[1] for r in rows], np.int64)
    want_n, want_s = partial(ids, nc)
    got_n = np.zeros(32, np.int64)
    got_s = np.zeros(32, np.int64)
    step = len(rows) // k + 1
    for i in range(k):
        n_i, s_i = partial(ids[i * step : (i + 1) * step], nc[i * step : (i + 1) * step])
        got_n += n_i
        got_s += s_i
    assert np.array_equal(got_n, want_n) and np.array_equal(got_s, want_s)


_hh_rows = st.lists(
    st.integers(min_value=0, max_value=50), min_size=0, max_size=120
)


@given(_hh_rows, st.integers(min_value=1, max_value=5),
       st.integers(min_value=2, max_value=8))
@settings(max_examples=60, deadline=None)
def test_heavy_hitters_candidate_completeness_law(users, k_chunks, k):
    """The documented completeness bound, exercised directly on the
    summary math: for ANY split into blocks and any key with true count
    above total//(k+1) + slack cut, the per-block top-k summaries plus
    the slack must nominate it.  (The operator enforces
    permille*(k+1) > 1000; this pins the underlying inequality the
    guard relies on.)"""
    import numpy as np

    u = np.array(users, np.int64)
    total = len(u)
    if total == 0:
        return
    step = total // k_chunks + 1
    est = {}
    for i in range(k_chunks):
        chunk = u[i * step : (i + 1) * step]
        if not len(chunk):
            continue
        ids, cnt = np.unique(chunk, return_counts=True)
        if len(ids) > k:
            keep = np.argpartition(cnt, len(cnt) - k)[-k:]
            ids, cnt = ids[keep], cnt[keep]
        for x, c in zip(ids, cnt):
            est[int(x)] = est.get(int(x), 0) + int(c)
    slack = total // (k + 1) + 1
    true_counts = {int(x): int(c) for x, c in zip(*np.unique(u, return_counts=True))}
    for x, f in true_counts.items():
        if f > total // (k + 1):  # the provable-nomination regime
            assert est.get(x, 0) + slack > f - 1  # x is present & nominated
            assert x in est  # never evicted from every block


# -- single-pass block fusion / drop vs the original per-block walk ------
#
# BlockProximityFusion and BoilerplateBlock fold each merge run with one
# join and rebuild the list in one pass.  These are literal copies of the
# original walks (one merge_next plus one ``del blocks[i]`` per merge);
# the rewrite must leave every block slot, the changed flag and the list
# object itself exactly as they did.


def _merge_next_reference(self, nxt):
    self.text = self.text + "\n" + nxt.text
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


def _fusion_reference(f, doc):
    blocks = doc.text_blocks
    if len(blocks) < 2:
        return False

    has_changed = False
    prev_block = None
    start_block = 0

    if f.content_only:
        for tb in blocks:
            start_block += 1
            if tb.is_content:
                prev_block = tb
                break
        if prev_block is None:
            return False
    else:
        prev_block = blocks[0]
        start_block = 1

    i = start_block
    while i < len(blocks):
        tb = blocks[i]
        if not tb.is_content:
            prev_block = tb
            i += 1
            continue

        diff_blocks = tb.offset_blocks_start - tb.offset_blocks_end - 1
        if diff_blocks <= f.max_blocks_distance:
            merge = True
            if f.content_only and (not prev_block.is_content or not tb.is_content):
                merge = False
            if merge and f.same_tag_level_only and prev_block.tag_level != tb.tag_level:
                merge = False
            if merge:
                _merge_next_reference(prev_block, tb)
                del blocks[i]
                has_changed = True
                continue
            prev_block = tb
        else:
            prev_block = tb
        i += 1

    return has_changed


def _boilerplate_reference(doc):
    from go_boilerpipe_ray.kernel.textblock import Label

    blocks = doc.text_blocks
    has_changed = False
    i = 0
    while i < len(blocks):
        tb = blocks[i]
        if not tb.is_content and not tb.has_label(Label.TITLE):
            del blocks[i]
            has_changed = True
        else:
            i += 1
    return has_changed


def _block_fields():
    from go_boilerpipe_ray.kernel.textblock import Label

    small = st.integers(min_value=-3, max_value=3)
    count = st.integers(min_value=0, max_value=40)
    return st.fixed_dictionaries(
        {
            "text": st.text(alphabet=list("ab \n<>&é漢⁣😀"), max_size=6),
            "offset_blocks_start": small,
            "offset_blocks_end": small,
            "num_words": count,
            "num_linked_words": count,
            "num_words_in_wrapped_lines": count,
            "num_wrapped_lines": st.integers(min_value=1, max_value=5),
            "tag_level": st.integers(min_value=0, max_value=2),
            "is_content": st.booleans(),
            "label_map": st.dictionaries(
                st.sampled_from(list(Label)), st.integers(min_value=1, max_value=3), max_size=3
            ),
            "src_end": st.integers(min_value=-1, max_value=50),
        }
    )


def _doc_from(rows):
    from go_boilerpipe_ray.kernel.document import Document
    from go_boilerpipe_ray.kernel.textblock import TextBlock

    doc = Document()
    for row in rows:
        tb = TextBlock()
        for name, value in row.items():
            setattr(tb, name, dict(value) if name == "label_map" else value)
        doc.text_blocks.append(tb)
    return doc


def _block_state(doc):
    from go_boilerpipe_ray.kernel.textblock import TextBlock

    return [
        tuple(
            list(tb.label_map.items()) if s == "label_map" else getattr(tb, s)
            for s in TextBlock.__slots__
        )
        for tb in doc.text_blocks
    ]


_FUSION_AND_DROP = {
    "BlockProximityFusionMaxDistanceOne": filters.block_proximity_fusion_max_distance_one,
    "BlockProximityFusionMaxDistanceOneContentOnlySameTagLevel": filters.block_proximity_fusion_max_distance_one_content_only_same_tag_level,
    "BoilerplateBlock": filters.BoilerplateBlock,
}


@given(st.lists(_block_fields(), max_size=12), st.sampled_from(sorted(_FUSION_AND_DROP)))
@settings(max_examples=600, deadline=None)
def test_fusion_and_drop_match_per_block_walk(rows, name):
    f = _FUSION_AND_DROP[name]()
    assert f.name == name
    want_doc, got_doc = _doc_from(rows), _doc_from(rows)
    want_pos = {id(tb): i for i, tb in enumerate(want_doc.text_blocks)}
    got_pos = {id(tb): i for i, tb in enumerate(got_doc.text_blocks)}
    if name == "BoilerplateBlock":
        want_changed = _boilerplate_reference(want_doc)
    else:
        want_changed = _fusion_reference(f, want_doc)
    held = got_doc.text_blocks
    got_changed = f.process(got_doc)
    assert got_changed is want_changed
    assert got_doc.text_blocks is held
    assert [got_pos[id(tb)] for tb in got_doc.text_blocks] == [
        want_pos[id(tb)] for tb in want_doc.text_blocks
    ]
    assert _block_state(got_doc) == _block_state(want_doc)


@given(st.lists(_block_fields(), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_merge_next_matches_original(rows):
    want_doc, got_doc = _doc_from(rows), _doc_from(rows)
    want, *want_rest = want_doc.text_blocks
    got, *got_rest = got_doc.text_blocks
    for nxt in want_rest:
        _merge_next_reference(want, nxt)
    for nxt in got_rest:
        got.merge_next(nxt)
    assert _block_state(got_doc) == _block_state(want_doc)


def _triu_loop_pairs(starts, ends):
    """The per-run loop run_pairs replaces: np.triu_indices per run."""
    import numpy as np

    ia, ib = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        ii, jj = np.triu_indices(e - s, 1)
        ia.append(s + ii)
        ib.append(s + jj)
    return np.concatenate(ia).astype(np.int64), np.concatenate(ib).astype(np.int64)


# (run size, kept) per run; a dropped run is masked out of starts/ends,
# as ngram_jaccard_pairs drops shingles past max_df
_runs = st.lists(st.tuples(st.integers(0, 12), st.booleans()), max_size=40)


@given(_runs)
@settings(max_examples=300, deadline=None)
@example(runs=[])
@example(runs=[(1, True)] * 20)
@example(runs=[(300, True)])
@example(runs=[(0, True), (1, True), (2, True), (7, True), (1, True), (40, True)])
@example(runs=[(5, False), (3, True), (9, False), (1, True), (4, True)])
def test_run_pairs_matches_per_run_triu_loop(runs):
    import numpy as np

    from go_boilerpipe_ray.functions._util import run_pairs

    sizes = np.array([n for n, _ in runs], np.int64)
    kept = np.array([k for _, k in runs], bool)
    bounds = np.r_[0, np.cumsum(sizes)].astype(np.int64)
    starts, ends = bounds[:-1][kept], bounds[1:][kept]
    got_i, got_j = run_pairs(starts, ends)
    want_i, want_j = _triu_loop_pairs(starts, ends)
    assert got_i.dtype == got_j.dtype == np.int64
    np.testing.assert_array_equal(got_i, want_i)
    np.testing.assert_array_equal(got_j, want_j)

"""Distributed sketches (HyperLogLog, Count-Min) as Ray Data combiners.

The register update is the canonical "partial state merged by max/sum"
shape: ``keyed_aggregate`` folds each call's rows into one partial
register table before its keyed exchange, so the only shuffle moves at
most ``m`` rows per call — at 100 TB the wide step moves a few KB per
call regardless of row count, and the final sketch is ``m`` rows.

The hash layout is chosen so a SQL oracle can recompute the registers
bit-exactly in DuckDB (md5_number_lower == low 8 bytes of md5,
little-endian):  register = low ``p`` bits of h;  the rank is computed
over a 32-bit window ``(h >> p) & 0xFFFFFFFF`` — 32 bits keep DuckDB's
``floor(log2(x))`` float-exact (boundary-checked for k <= 32), while 2^32
is far beyond any observable rank at testable scales.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ._util import (
    TOKEN_PATTERN,
    ensure_columns,
    keyed_aggregate,
    md5_u64,
    partitioned_by_key,
    read_parquet_clean,
    run_bounds,
)

HLL_P = 9  # 512 registers: ~4.6% standard error
_M = 1 << HLL_P
_WINDOW_BITS = 32


_md5_u64_str = md5_u64  # canonical helper; see _util.md5_u64


def _rho(suffix: np.ndarray) -> np.ndarray:
    """1 + leading zeros of the 32-bit window = 33 - bit_length(suffix);
    bit_length via frexp's exponent (exact: u32 fits float64)."""
    _, exp = np.frexp(suffix.astype(np.float64))
    rho = (_WINDOW_BITS + 1) - exp
    rho[suffix == 0] = _WINDOW_BITS + 1
    return rho.astype(np.int64)


def _register_rho(batch: pa.Table, **other) -> pa.Table:
    """(register, rho) of every row's md5(user_id), next to ``other``
    columns of the same length."""
    h = _md5_u64_str(batch.column("user_id").to_numpy(zero_copy_only=False))
    suffix = ((h >> np.uint64(HLL_P)) & np.uint64(0xFFFFFFFF)).astype(np.uint64)
    return pa.table(
        {
            **other,
            "register": pa.array((h & np.uint64(_M - 1)).astype(np.int64)),
            "rho": pa.array(_rho(suffix), pa.int64()),
        }
    )


def _max_rho(rows: "ray.data.Dataset", keys: list[str]) -> "pd.DataFrame":
    """max(rho) per ``keys`` (which end in "register"), gathered sorted
    by ``keys``: bounded by groups × m rows."""
    out = keyed_aggregate(rows, keys, {"max_rho": ("rho", "max")}).to_pandas()
    return ensure_columns(out, keys + ["max_rho"]).sort_values(keys)


def hll_registers(sf_dir: str) -> pa.Table:
    """HLL register table for distinct events.user_id (one row per
    touched register; untouched registers are implicit zeros)."""
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["user_id"])
    out = _max_rho(
        ds.map_batches(_register_rho, batch_format="pyarrow", zero_copy_batch=True),
        ["register"],
    )
    return pa.table(
        {
            "register": pa.array(out["register"].to_numpy(), pa.int64()),
            "max_rho": pa.array(out["max_rho"].to_numpy(), pa.int64()),
        }
    )


HLL_REGISTERS_SQL = f"""
WITH h AS (SELECT md5_number_lower(user_id::VARCHAR) AS h FROM events)
SELECT CAST(h & {_M - 1} AS BIGINT) AS register,
       MAX(CASE WHEN ((h >> {HLL_P}) & 4294967295) = 0 THEN {_WINDOW_BITS + 1}
                ELSE {_WINDOW_BITS} - CAST(floor(log2(((h >> {HLL_P}) & 4294967295))) AS BIGINT)
           END) AS max_rho
FROM h GROUP BY 1
"""


# -- Count-Min sketch --------------------------------------------------------

CMS_DEPTH = 4
CMS_WIDTH = 256

_TOKEN_RE = TOKEN_PATTERN


def _cms_partial(batch: pa.Table) -> pa.Table:
    """Fold a batch of documents into one (slot, cnt) partial table:
    token-occurrence counts hashed into DEPTH independent rows of WIDTH
    counters.  Counters are additive, so partials merge by plain sum —
    no token ever needs to be shuffled, only the <= DEPTH*WIDTH touched
    slots per block."""
    import collections
    import hashlib
    import re

    counts: collections.Counter = collections.Counter()
    tok_re = re.compile(_TOKEN_RE)
    for t in batch.column("text").to_pylist():
        counts.update(tok_re.findall(t.lower()))
    regs = np.zeros(CMS_DEPTH * CMS_WIDTH, dtype=np.int64)
    for tok, cnt in counts.items():
        for j in range(CMS_DEPTH):
            h = int.from_bytes(
                hashlib.md5(f"{j}:{tok}".encode("utf-8")).digest()[8:], "little"
            )
            regs[j * CMS_WIDTH + h % CMS_WIDTH] += cnt
    touched = np.flatnonzero(regs)
    return pa.table(
        {
            "slot": pa.array(touched, pa.int64()),
            "cnt": pa.array(regs[touched], pa.int64()),
        }
    )


def cms_registers(sf_dir: str) -> pa.Table:
    """Count-Min sketch of token-occurrence frequencies over
    documents.text: DEPTH hash rows x WIDTH counters.  Point estimates
    (``cms_estimate``) are min over rows — always >= the true count.
    Same scale shape as the HLL: per-batch partial registers, one tiny
    keyed rollup, constant-size result."""
    ds = read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["text"])
    out = (
        keyed_aggregate(
            ds.map_batches(_cms_partial, batch_format="pyarrow", zero_copy_batch=True),
            "slot",
            {"cnt": ("cnt", "sum")},
        )
        .to_pandas()
        .sort_values("slot")
    )
    slot = out["slot"].to_numpy()
    return pa.table(
        {
            "j": pa.array(slot // CMS_WIDTH, pa.int64()),
            "reg": pa.array(slot % CMS_WIDTH, pa.int64()),
            "cnt": pa.array(out["cnt"].to_numpy(), pa.int64()),
        }
    )


CMS_REGISTERS_SQL = f"""
WITH tok AS (
  SELECT unnest(regexp_extract_all(lower(text), '{_TOKEN_RE}')) AS token
  FROM documents
)
SELECT CAST(j.range AS BIGINT) AS j,
       CAST(md5_number_lower(j.range::VARCHAR || ':' || tok.token)
            % {CMS_WIDTH} AS BIGINT) AS reg,
       count(*) AS cnt
FROM tok CROSS JOIN range({CMS_DEPTH}) j
GROUP BY 1, 2
"""


def cms_estimate(registers: pa.Table, token: str) -> int:
    """Point-frequency estimate for one token (min over depth rows)."""
    import hashlib

    regs = np.zeros(CMS_DEPTH * CMS_WIDTH, dtype=np.int64)
    slots = (
        registers.column("j").to_numpy(zero_copy_only=False) * CMS_WIDTH
        + registers.column("reg").to_numpy(zero_copy_only=False)
    )
    regs[slots] = registers.column("cnt").to_numpy(zero_copy_only=False)
    est = None
    for j in range(CMS_DEPTH):
        h = int.from_bytes(
            hashlib.md5(f"{j}:{token}".encode("utf-8")).digest()[8:], "little"
        )
        v = int(regs[j * CMS_WIDTH + h % CMS_WIDTH])
        est = v if est is None else min(est, v)
    return int(est or 0)


def hll_estimate(registers: pa.Table) -> float:
    """Cardinality estimate from a register table (implicit zeros for
    absent registers), with the standard small-range linear-counting
    correction."""
    rho = np.zeros(_M, dtype=np.int64)
    rho[registers.column("register").to_numpy(zero_copy_only=False)] = (
        registers.column("max_rho").to_numpy(zero_copy_only=False)
    )
    alpha = 0.7213 / (1 + 1.079 / _M)
    raw = alpha * _M * _M / np.sum(np.power(2.0, -rho.astype(np.float64)))
    zeros = int(np.sum(rho == 0))
    if raw <= 2.5 * _M and zeros:
        return _M * float(np.log(_M / zeros))
    return float(raw)


# -- fixed-bin histogram (continuous-value quantile sketch) ------------------

HIST_BIN_CENTS = 100  # bin = floor(value * 100): one cent per bin


def _hist_partial(batch: pa.Table) -> pa.Table:
    v = batch.column("value").to_numpy(zero_copy_only=False)
    bins = np.floor(v * HIST_BIN_CENTS).astype(np.int64)
    uniq, cnt = np.unique(bins, return_counts=True)
    return pa.table(
        {
            "bin": pa.array(uniq, pa.int64()),
            "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
        }
    )


def value_histogram(sf_dir: str) -> pa.Table:
    """Fixed-width histogram of events.value — the mergeable quantile
    sketch for CONTINUOUS values (the exact-percentiles operator needs
    bounded distinct values; a fixed-bin histogram bounds the rollup at
    the bin count instead, with quantiles exact to one bin width).
    Same combiner shape as HLL/CMS: per-batch (bin, cnt) partials, one
    keyed sum.  floor(value*100) is computed in float64 on both
    engines, so the oracle is bit-stable."""
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["value"])
    out = ensure_columns(
        keyed_aggregate(
            ds.map_batches(_hist_partial, batch_format="pyarrow", zero_copy_batch=True),
            "bin",
            {"cnt": ("cnt", "sum")},
        ).to_pandas(),
        ["bin", "cnt"],
    ).sort_values("bin")
    return pa.table(
        {
            "bin": pa.array(out["bin"].to_numpy().astype(np.int64), pa.int64()),
            "cnt": pa.array(out["cnt"].to_numpy().astype(np.int64), pa.int64()),
        }
    )


VALUE_HISTOGRAM_SQL = f"""
SELECT CAST(floor(value * {HIST_BIN_CENTS}) AS BIGINT) AS bin, count(*) AS cnt
FROM events GROUP BY 1
"""


def hll_by_group(sf_dir: str) -> pa.Table:
    """Per-group HLL: distinct-user registers PER event type — the
    sketch-per-group shape (approximate COUNT(DISTINCT x) GROUP BY g at
    100 TB).  ``keyed_aggregate`` folds each call to ≤ groups·m
    (group, register, max rho) partial rows before the keyed max."""
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        return _register_rho(batch, event_type=batch.column("event_type"))

    out = _max_rho(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "register"],
    )
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "register": pa.array(out["register"].to_numpy(), pa.int64()),
            "max_rho": pa.array(
                out["max_rho"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


HLL_BY_GROUP_SQL = f"""
WITH h AS (
  SELECT event_type, md5_number_lower(user_id::VARCHAR) AS h FROM events
)
SELECT event_type,
       CAST(h & {_M - 1} AS BIGINT) AS register,
       MAX(CASE WHEN ((h >> {HLL_P}) & 4294967295) = 0 THEN {_WINDOW_BITS + 1}
                ELSE {_WINDOW_BITS} - CAST(floor(log2(((h >> {HLL_P}) & 4294967295))) AS BIGINT)
           END) AS max_rho
FROM h GROUP BY 1, 2
"""


# -- approximate percentiles from the histogram sketch ------------------------

APPROX_PCTS = (50, 90, 99)


def approx_percentiles(sf_dir: str) -> pa.Table:
    """Quantiles from the mergeable fixed-bin histogram — the
    fixed-memory scale path next to the exact percentiles operator
    (which shuffles per distinct value).  The distributed part is the
    same (bin, cnt) partial rollup as value_histogram; the quantile
    walk happens on the bounded bin table.  Integer target rule
    target = (pct*total + 99) // 100 (ceil) on BOTH engines, so the
    answer is the exact left-edge bin, hash-stable."""
    hist = value_histogram(sf_dir)
    bins = hist.column("bin").to_numpy(zero_copy_only=False)
    cnt = hist.column("cnt").to_numpy(zero_copy_only=False)
    order = np.argsort(bins)
    bins, cnt = bins[order], cnt[order]
    cum = np.cumsum(cnt)
    total = int(cum[-1]) if len(cum) else 0
    if total == 0:
        # Empty events table: the oracle's CROSS JOIN over an empty
        # histogram yields no rows; mirror that instead of indexing
        # bins[-1] of an empty array.
        return pa.table(
            {"pct": pa.array([], pa.int64()), "bin": pa.array([], pa.int64())}
        )
    out_p: list[int] = []
    out_b: list[int] = []
    for pct in APPROX_PCTS:
        target = max((pct * total + 99) // 100, 1)
        pos = int(np.searchsorted(cum, target))
        out_p.append(pct)
        out_b.append(int(bins[min(pos, len(bins) - 1)]))
    return pa.table(
        {
            "pct": pa.array(out_p, pa.int64()),
            "bin": pa.array(out_b, pa.int64()),
        }
    )


APPROX_PERCENTILES_SQL = f"""
WITH h AS (
  SELECT CAST(floor(value * {HIST_BIN_CENTS}) AS BIGINT) AS bin,
         count(*) AS cnt
  FROM events GROUP BY 1
),
c AS (
  SELECT bin, sum(cnt) OVER (ORDER BY bin) AS cum, sum(cnt) OVER () AS total
  FROM h
)
SELECT CAST(p.pct AS BIGINT) AS pct, CAST(min(c.bin) AS BIGINT) AS bin
FROM (VALUES (50), (90), (99)) AS p(pct), c
WHERE c.cum >= greatest((p.pct * c.total + 99) // 100, 1)
GROUP BY p.pct
"""


def grouped_approx_percentiles(sf_dir: str) -> pa.Table:
    """Per-event-type quantiles from the mergeable fixed-bin histogram —
    the grouped variant of approx_percentiles, and the fixed-memory
    alternative to grouped exact percentiles when value cardinality is
    unbounded.  Distributed work is one (event_type, bin, cnt) partial
    rollup (bounded by types × bins at any corpus size); the per-group
    quantile walk runs on that bounded table with the same integer ceil
    target rule as the global sketch."""

    def bins(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "bin": pa.array(
                    np.floor(v * HIST_BIN_CENTS).astype(np.int64), pa.int64()
                ),
            }
        )

    hist = (
        keyed_aggregate(
            read_parquet_clean(
                f"{sf_dir}/events.parquet", columns=["event_type", "value"]
            ).map_batches(bins, batch_format="pyarrow", zero_copy_batch=True),
            ["event_type", "bin"],
            {"cnt": ("bin", "count")},
        )
        .to_pandas()
        .sort_values(["event_type", "bin"])
    )
    out_t: list[str] = []
    out_p: list[int] = []
    out_b: list[int] = []
    for etype, grp in hist.groupby("event_type"):
        bins = grp["bin"].to_numpy()
        cum = np.cumsum(grp["cnt"].to_numpy())
        total = int(cum[-1])
        for pct in APPROX_PCTS:
            target = max((pct * total + 99) // 100, 1)
            pos = int(np.searchsorted(cum, target))
            out_t.append(str(etype))
            out_p.append(pct)
            out_b.append(int(bins[min(pos, len(bins) - 1)]))
    return pa.table(
        {
            "event_type": pa.array(out_t, pa.string()),
            "pct": pa.array(out_p, pa.int64()),
            "bin": pa.array(out_b, pa.int64()),
        }
    )


GROUPED_APPROX_PERCENTILES_SQL = f"""
WITH h AS (
  SELECT event_type,
         CAST(floor(value * {HIST_BIN_CENTS}) AS BIGINT) AS bin,
         count(*) AS cnt
  FROM events GROUP BY 1, 2
),
c AS (
  SELECT event_type, bin,
         sum(cnt) OVER (PARTITION BY event_type ORDER BY bin) AS cum,
         sum(cnt) OVER (PARTITION BY event_type) AS total
  FROM h
)
SELECT c.event_type, CAST(p.pct AS BIGINT) AS pct, CAST(min(c.bin) AS BIGINT) AS bin
FROM (VALUES (50), (90), (99)) AS p(pct), c
WHERE c.cum >= greatest((p.pct * c.total + 99) // 100, 1)
GROUP BY c.event_type, p.pct
"""


# -- KMV (k-minimum-values) distinct sketch ------------------------------------

_KMV_K = 16
_KMV_MASK = (1 << 50) - 1  # bounded hash space keeps (k-1)*2^50 in int64


def _kmv_per_group(tbl: pa.Table, group: str) -> pa.Table:
    """The ``_KMV_K`` smallest distinct ``hv`` of every ``group`` value
    in ``tbl``, as (group, hv) rows: one KMV sketch per group.  The
    sketch of a union is this over the union of the sketches, so the
    same call is the per-batch partial and the per-block merge."""
    t = (
        tbl.group_by([group, "hv"], use_threads=False)
        .aggregate([])
        .sort_by([(group, "ascending"), ("hv", "ascending")])
    )
    b = run_bounds(t.column(group).to_numpy(zero_copy_only=False))
    pos = np.arange(t.num_rows) - np.repeat(b[:-1], np.diff(b))
    return t.filter(pa.array(pos < _KMV_K))


def _kmv_sketches(ds: "ray.data.Dataset", group: str) -> "pd.DataFrame":
    """KMV sketches of md5(user_id) per ``group`` value of ``ds``,
    merged on the keyed exchange and gathered as (group, hv) rows
    (bounded: ≤ groups × k rows)."""

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_pylist()
        hv = (md5_u64(uid) & np.uint64(_KMV_MASK)).astype(np.int64)
        return _kmv_per_group(
            pa.table({group: batch.column(group), "hv": pa.array(hv)}), group
        )

    def merge(part: pa.Table) -> pa.Table:
        return _kmv_per_group(part, group)

    return ensure_columns(
        partitioned_by_key(
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            group,
            merge,
        ).to_pandas(),
        [group, "hv"],
    )


def _kmv_estimate(hs: np.ndarray) -> tuple[int, int]:
    """(kth hash, distinct estimate) of one sorted KMV sketch; the exact
    count when the sketch holds fewer than k hashes."""
    if len(hs) >= _KMV_K:
        kth = int(hs[_KMV_K - 1])
        return kth, (_KMV_K - 1) * (_KMV_MASK + 1) // kth
    return 0, len(hs)


def kmv_distinct(sf_dir: str) -> pa.Table:
    """K-minimum-values distinct-count sketch (Bar-Yossef et al. 2002)
    per event type: keep the k smallest md5 hash values of the key;
    estimate = (k-1) · 2^50 // h_k (exact-count fallback when fewer
    than k distinct hashes exist).  Unlike HLL's register arrays the
    ENTIRE sketch state is SQL-reconstructible, so the oracle verifies
    the kth hash AND the estimate bit-for-bit — the mergeable-sketch
    contract demonstrated end-to-end.

    Scale shape: KMV is a bounded mergeable summary — each batch
    reduces to ≤ k hashes per type (the merge of k-min sets is the
    k-min of the union), so the keyed exchange moves ≤ types × blocks
    × k fixed-width rows, and its per-block merge runs the same
    reduction over every type the block holds."""
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    est = {
        str(t): _kmv_estimate(np.sort(g["hv"].to_numpy(np.int64)))
        for t, g in _kmv_sketches(ds, "event_type").groupby("event_type")
    }
    return pa.table(
        {
            "event_type": pa.array(list(est), pa.string()),
            "kth_hash": pa.array([e[0] for e in est.values()], pa.int64()),
            "est_distinct": pa.array([e[1] for e in est.values()], pa.int64()),
        }
    )


KMV_DISTINCT_SQL = """
WITH h AS (
  SELECT DISTINCT event_type,
         CAST(md5_number_lower(user_id::VARCHAR) & 1125899906842623 AS BIGINT)
           AS hv
  FROM events
),
r AS (
  SELECT event_type, hv,
         row_number() OVER (PARTITION BY event_type ORDER BY hv) AS rn,
         count(*) OVER (PARTITION BY event_type) AS m
  FROM h
)
SELECT event_type,
       CAST(COALESCE(max(CASE WHEN rn = 16 THEN hv END), 0) AS BIGINT)
         AS kth_hash,
       CAST(CASE WHEN max(m) >= 16
            THEN 15 * 1125899906842624 // max(CASE WHEN rn = 16 THEN hv END)
            ELSE max(m) END AS BIGINT) AS est_distinct
FROM r WHERE rn <= 16 GROUP BY 1 ORDER BY 1
"""


# -- KMV Jaccard (sketch-based set similarity between key sets) ----------------


def kmv_jaccard(sf_dir: str) -> pa.Table:
    """KMV-sketch Jaccard estimate between the USER SETS of every pair
    of event types (Beyer et al. 2007 "On synopses for distinct-value
    estimation"): per type keep the k smallest md5 hashes of user_id;
    for a pair (a, b) take the ku = min(k, |union|) smallest hashes of
    the sketch union and count how many are in BOTH sketches —
    jaccard_permille = 1000 * |S ∩ A ∩ B| // ku.  Entirely integer, so
    the DuckDB oracle reconstructs every sketch AND every pair estimate
    bit-for-bit — same mergeable-sketch contract as kmv_distinct.

    Scale shape: the distributed phase is the kmv_distinct partial
    (each batch reduces to ≤ k hashes per type; merging k-min sets is
    the k-min of the union), so the shuffle moves ≤ types × blocks × k
    fixed-width rows.  The pair combination runs on the merged bounded
    table (types × k rows, independent of corpus size) — same
    bounded-rollup-to-driver shape as brand_affinity_lift."""
    sk = _kmv_sketches(
        read_parquet_clean(
            f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
        ),
        "event_type",
    )
    sketches = {
        str(t): set(g["hv"].astype("int64").tolist())
        for t, g in sk.groupby("event_type")
    }
    types = sorted(sketches)
    out_a, out_b, out_ku, out_ov, out_j = [], [], [], [], []
    for i, ta in enumerate(types):
        for tb in types[i + 1 :]:
            a, b = sketches[ta], sketches[tb]
            union = sorted(a | b)
            ku = min(_KMV_K, len(union))
            s = union[:ku]
            ov = sum(1 for h in s if h in a and h in b)
            out_a.append(ta)
            out_b.append(tb)
            out_ku.append(ku)
            out_ov.append(ov)
            out_j.append(1000 * ov // ku if ku else 0)
    return pa.table(
        {
            "type_a": pa.array(out_a, pa.string()),
            "type_b": pa.array(out_b, pa.string()),
            "ku": pa.array(out_ku, pa.int64()),
            "overlap_k": pa.array(out_ov, pa.int64()),
            "jaccard_permille": pa.array(out_j, pa.int64()),
        }
    )


KMV_JACCARD_SQL = """
WITH h AS (
  SELECT DISTINCT event_type,
         CAST(md5_number_lower(user_id::VARCHAR) & 1125899906842623 AS BIGINT)
           AS hv
  FROM events
),
s AS (
  SELECT event_type, hv FROM (
    SELECT event_type, hv,
           row_number() OVER (PARTITION BY event_type ORDER BY hv) AS rn
    FROM h
  ) WHERE rn <= 16
),
t AS (SELECT DISTINCT event_type FROM s),
pairs AS (
  SELECT a.event_type AS ta, b.event_type AS tb
  FROM t a, t b WHERE a.event_type < b.event_type
),
u AS (
  SELECT p.ta, p.tb, s.hv,
         max(CASE WHEN s.event_type = p.ta THEN 1 ELSE 0 END) AS in_a,
         max(CASE WHEN s.event_type = p.tb THEN 1 ELSE 0 END) AS in_b
  FROM pairs p JOIN s ON s.event_type IN (p.ta, p.tb)
  GROUP BY 1, 2, 3
),
ru AS (
  SELECT ta, tb, in_a, in_b,
         row_number() OVER (PARTITION BY ta, tb ORDER BY hv) AS rn
  FROM u
)
SELECT ta AS type_a, tb AS type_b,
       CAST(count(*) AS BIGINT) AS ku,
       CAST(sum(in_a * in_b) AS BIGINT) AS overlap_k,
       CAST(1000 * sum(in_a * in_b) // count(*) AS BIGINT) AS jaccard_permille
FROM ru WHERE rn <= 16
GROUP BY 1, 2 ORDER BY 1, 2
"""


# -- KMV mergeability check ------------------------------------------------------


def kmv_merge_check(sf_dir: str) -> pa.Table:
    """Sketch-mergeability demonstrated end-to-end: split events by
    event_id parity, build an independent KMV distinct-user sketch per
    half, MERGE the two sketches (k-min of the union of k-min sets),
    and emit the merged sketch next to the sketch built over the full
    corpus in one pass.  The two rows must be IDENTICAL — the algebraic
    property (k-min of a union = k-min of the k-mins) that makes KMV a
    valid distributed aggregate: partial sketches from any partitioning
    of a 100 TB corpus combine to the exact same state as a single
    scan, so re-sharding never changes the answer.  The oracle
    recomputes both rows independently in SQL.

    Scale shape: one streaming pass emits ≤ k hashes per (side, batch);
    the rollup and merge touch ≤ 3k fixed-width rows."""
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id"]
    )

    def by_side(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {"side": pa.array(eid % 2, pa.int64()), "user_id": batch.column("user_id")}
        )

    sk = _kmv_sketches(
        ds.map_batches(by_side, batch_format="pyarrow", zero_copy_batch=True), "side"
    )  # ≤ 2k rows
    merged_kth, merged_est = _kmv_estimate(np.unique(sk["hv"].to_numpy(np.int64)))
    # full-corpus single-pass sketch (no parity split)
    full = ensure_columns(
        ds.map_batches(
            lambda batch: pa.table(
                {
                    "hv": pa.array(
                        np.unique(
                            (
                                md5_u64(batch.column("user_id").to_pylist())
                                & np.uint64(_KMV_MASK)
                            ).astype(np.int64)
                        )[:_KMV_K],
                        pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).to_pandas(),
        ["hv"],
    )
    full_kth, full_est = _kmv_estimate(np.unique(full["hv"].to_numpy(np.int64)))
    return pa.table(
        {
            "scope": pa.array(["full", "merged"], pa.string()),
            "kth_hash": pa.array([full_kth, merged_kth], pa.int64()),
            "est_distinct": pa.array([full_est, merged_est], pa.int64()),
        }
    )


KMV_MERGE_CHECK_SQL = f"""
WITH h AS (
  SELECT DISTINCT event_id % 2 AS side,
         CAST(md5_number_lower(user_id::VARCHAR) & {_KMV_MASK} AS BIGINT)
           AS hv
  FROM events
),
side_k AS (
  SELECT side, hv FROM (
    SELECT side, hv,
           row_number() OVER (PARTITION BY side ORDER BY hv) AS rn
    FROM h
  ) WHERE rn <= {_KMV_K}
),
merged AS (
  SELECT hv FROM (
    SELECT DISTINCT hv FROM side_k
  ) ORDER BY hv LIMIT {_KMV_K}
),
full_h AS (
  SELECT hv FROM (SELECT DISTINCT hv FROM h) ORDER BY hv LIMIT {_KMV_K}
),
est AS (
  SELECT 'merged' AS scope,
         CASE WHEN count(*) >= {_KMV_K} THEN max(hv) ELSE 0 END AS kth,
         CASE WHEN count(*) >= {_KMV_K}
              THEN {_KMV_K - 1} * {_KMV_MASK + 1} // max(hv)
              ELSE count(*) END AS est
  FROM merged
  UNION ALL
  SELECT 'full',
         CASE WHEN count(*) >= {_KMV_K} THEN max(hv) ELSE 0 END,
         CASE WHEN count(*) >= {_KMV_K}
              THEN {_KMV_K - 1} * {_KMV_MASK + 1} // max(hv)
              ELSE count(*) END
  FROM full_h
)
SELECT scope, CAST(kth AS BIGINT) AS kth_hash,
       CAST(est AS BIGINT) AS est_distinct
FROM est ORDER BY scope
"""


# -- HLL mergeability check ---------------------------------------------------


def hll_merge_check(sf_dir: str) -> pa.Table:
    """HLL's distributed-aggregate contract demonstrated end-to-end
    (the register-table twin of kmv_merge_check): split events by
    event_id parity, build an independent register sketch per half,
    MERGE them (elementwise max), and emit the merged register table
    next to one built over the full corpus in a SEPARATE single-pass
    scan.  The two scopes must be row-identical — max is associative
    and commutative over any partitioning, so re-sharding a 100 TB
    corpus never changes the sketch.  The oracle recomputes both
    scopes independently in SQL.

    Scale shape: each pass folds its calls to <= m touched registers
    before the keyed exchange; the merge is a <= 2m-row rollup."""
    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        return _register_rho(batch, side=pa.array(eid % 2, pa.int64()))

    side_reg = _max_rho(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["side", "register"],
    )  # <= 2m rows
    merged = (
        side_reg.groupby("register")["max_rho"].max().sort_index()
    )  # elementwise max of the two half sketches
    full = hll_registers(sf_dir)  # independent full-corpus single pass
    scopes = ["full"] * full.num_rows + ["merged"] * len(merged)
    regs = full.column("register").to_pylist() + merged.index.tolist()
    rhos = full.column("max_rho").to_pylist() + [
        int(v) for v in merged.to_numpy()
    ]
    return pa.table(
        {
            "scope": pa.array(scopes, pa.string()),
            "register": pa.array(regs, pa.int64()),
            "max_rho": pa.array(rhos, pa.int64()),
        }
    )


HLL_MERGE_CHECK_SQL = f"""
WITH h AS (
  SELECT event_id % 2 AS side,
         md5_number_lower(user_id::VARCHAR) AS h
  FROM events
),
r AS (
  SELECT side,
         CAST(h & {_M - 1} AS BIGINT) AS register,
         CASE WHEN ((h >> {HLL_P}) & 4294967295) = 0 THEN {_WINDOW_BITS + 1}
              ELSE {_WINDOW_BITS} - CAST(floor(log2(((h >> {HLL_P}) & 4294967295))) AS BIGINT)
         END AS rho
  FROM h
),
side_reg AS (
  SELECT side, register, MAX(rho) AS max_rho FROM r GROUP BY 1, 2
),
merged AS (
  SELECT register, MAX(max_rho) AS max_rho FROM side_reg GROUP BY 1
),
full_reg AS (
  SELECT register, MAX(rho) AS max_rho FROM r GROUP BY 1
)
SELECT scope, register, CAST(max_rho AS BIGINT) AS max_rho FROM (
  SELECT 'full' AS scope, register, max_rho FROM full_reg
  UNION ALL
  SELECT 'merged', register, max_rho FROM merged
)
ORDER BY scope, register
"""


# -- estimator cross-validation report -------------------------------------------


def distinct_estimators_report(sf_dir: str) -> pa.Table:
    """Cardinality-estimator cross-validation: the exact distinct user
    count next to the HLL and KMV estimates computed from the SAME
    corpus — the accuracy report a platform team reads before picking
    a sketch for a 100 TB pipeline (where exact is unaffordable and
    the sketch's observed error at sample scale is the evidence).

    Scale shape: exact = one user-keyed ``keyed_aggregate`` count
    (the only part that wouldn't scale unbounded — which is the
    point); HLL = 512-register max-merge; KMV = k-min merge.  The
    oracle recomputes all three, HLL's float estimate included (both
    sides sum 512 double terms; rtol 1e-9 absorbs ordering ulps)."""
    ds = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["user_id"])
    exact = keyed_aggregate(ds, "user_id", {"n": ("user_id", "count")}).count()

    hll_est = hll_estimate(hll_registers(sf_dir))

    def kmv_partial(batch: pa.Table) -> pa.Table:
        hv = np.unique(
            (
                md5_u64(batch.column("user_id").to_pylist())
                & np.uint64(_KMV_MASK)
            ).astype(np.int64)
        )[:_KMV_K]
        return pa.table({"hv": pa.array(hv, pa.int64())})

    hs = np.unique(
        ensure_columns(
            ds.map_batches(
                kmv_partial, batch_format="pyarrow", zero_copy_batch=True
            ).to_pandas(),  # ≤ k × blocks rows
            ["hv"],
        )["hv"].to_numpy()
    )[:_KMV_K]
    if len(hs) >= _KMV_K:
        kmv_est = (_KMV_K - 1) * float(_KMV_MASK + 1) / float(hs[_KMV_K - 1])
    else:
        kmv_est = float(len(hs))

    return pa.table(
        {
            "estimator": pa.array(["exact", "hll", "kmv"], pa.string()),
            "estimate": pa.array(
                [float(exact), float(hll_est), float(kmv_est)], pa.float64()
            ),
        }
    )


DISTINCT_ESTIMATORS_REPORT_SQL = f"""
WITH h AS (SELECT md5_number_lower(user_id::VARCHAR) AS h FROM events),
regs AS (
  SELECT CAST(h & {_M - 1} AS BIGINT) AS register,
         MAX(CASE WHEN ((h >> {HLL_P}) & 4294967295) = 0
                  THEN {_WINDOW_BITS + 1}
                  ELSE {_WINDOW_BITS} -
                       CAST(floor(log2(((h >> {HLL_P}) & 4294967295)))
                            AS BIGINT)
             END) AS max_rho
  FROM h GROUP BY 1
),
hll_raw AS (
  SELECT (0.7213 / (1 + 1.079 / {_M})) * {_M} * {_M} /
           (sum(power(2.0, -max_rho)) + ({_M} - count(*))) AS raw,
         {_M} - count(*) AS zeros
  FROM regs
),
hll AS (
  SELECT CASE WHEN raw <= 2.5 * {_M} AND zeros > 0
              THEN {_M} * ln({_M} * 1.0 / zeros)
              ELSE raw END AS est
  FROM hll_raw
),
kh AS (
  SELECT hv FROM (
    SELECT DISTINCT CAST(h & {_KMV_MASK} AS BIGINT) AS hv FROM h
  ) ORDER BY hv LIMIT {_KMV_K}
),
kmv AS (
  SELECT CASE WHEN count(*) >= {_KMV_K}
              THEN {_KMV_K - 1} * {float(_KMV_MASK + 1)} / max(hv)
              ELSE count(*) * 1.0 END AS est
  FROM kh
)
SELECT 'exact' AS estimator,
       CAST(count(DISTINCT user_id) AS DOUBLE) AS estimate FROM events
UNION ALL SELECT 'hll', est FROM hll
UNION ALL SELECT 'kmv', est FROM kmv
ORDER BY estimator
"""


# -- shard skip index (zone map + deterministic bloom, both oracled) ----------

SKIP_SHARDS = 16
SKIP_BLOOM_M = 8192
SKIP_PROBES = 25


def shard_skip_report(sf_dir: str) -> pa.Table:
    """Data-skipping planner report: for a deterministic probe set of
    user ids, how many of the 16 time-bucketed event shards must be
    read under (a) exact membership, (b) a per-shard user_id zone map
    (min/max), (c) a per-shard 2-hash Bloom filter.  Neither index may
    false-negative (exact <= zone AND exact <= bloom); zone and bloom
    are NOT ordered against each other — a planner reads the
    intersection.  The Bloom is md5-derived (bit positions md5(u) % m and
    (md5(u) >> 20) % m), so even the Bloom verdict is bit-exact in the
    SQL mirror — rare for a sketch operator.

    Scale shape: shard key = epoch-day % 16 derived vectorized; ONE
    pass emits three kinds of bounded partials per batch — (shard,
    min_u, max_u) zone cells, distinct (shard, bloom-bit) pairs
    (<= 16·m rows total at ANY corpus size), and distinct
    (probe, shard) exact hits against the broadcast probe array — each
    rolled up by a small keyed shuffle.  Probes are md5-picked from
    [0, max_user], so some are absent (the case skipping exists for)."""
    import pyarrow.compute as pc

    DAY_US = 86_400 * 1_000_000
    S, M, NP = SKIP_SHARDS, SKIP_BLOOM_M, SKIP_PROBES

    ev = read_parquet_clean(f"{sf_dir}/events.parquet", columns=["ts", "user_id"])
    empty = pa.table(
        {
            "user_id": pa.array([], pa.int64()),
            "n_shards_exact": pa.array([], pa.int64()),
            "n_shards_zone": pa.array([], pa.int64()),
            "n_shards_bloom": pa.array([], pa.int64()),
        }
    )
    max_user_raw = ev.max("user_id")
    if max_user_raw is None:
        return empty
    max_user = int(max_user_raw)
    probes = np.unique(
        (md5_u64(np.arange(NP, dtype=np.int64)) % np.uint64(max_user + 1)).astype(
            np.int64
        )
    )
    probes_ref = ray.put(probes)

    def h1(u: "np.ndarray") -> "np.ndarray":
        return (md5_u64(u) % np.uint64(M)).astype(np.int64)

    def h2(u: "np.ndarray") -> "np.ndarray":
        return ((md5_u64(u) >> np.uint64(20)) % np.uint64(M)).astype(np.int64)

    def shard_of(batch: pa.Table) -> "np.ndarray":
        t = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64())
        return (t.to_numpy(zero_copy_only=False) // DAY_US) % S

    def zone_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "shard": pa.array(shard_of(batch), pa.int64()),
                "user_id": batch.column("user_id"),
            }
        )

    def bloom_partial(batch: pa.Table) -> pa.Table:
        s = shard_of(batch)
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        bits = np.concatenate([s * M + h1(u), s * M + h2(u)])
        return pa.table({"sb": pa.array(np.unique(bits), pa.int64())})

    def exact_partial(batch: pa.Table) -> pa.Table:
        ps = ray.get(probes_ref)
        s = shard_of(batch)
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(ps, u), 0, len(ps) - 1)
        hit = ps[pos] == u
        pairs = np.unique(pos[hit] * S + s[hit])
        return pa.table({"pshard": pa.array(pairs, pa.int64())})

    def distinct(partial, col: str) -> set[int]:
        rows = ev.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        keyed = keyed_aggregate(rows, col, {"n": (col, "count")})
        return set(int(r[col]) for r in keyed.iter_rows())

    zones = keyed_aggregate(
        ev.map_batches(zone_rows, batch_format="pyarrow", zero_copy_batch=True),
        "shard",
        {"lo": ("user_id", "min"), "hi": ("user_id", "max")},
    ).to_pandas()  # bounded: <= 16 rows
    # bounded: <= 16·M distinct set bits at ANY corpus size
    bloom_bits = distinct(bloom_partial, "sb")
    exact_pairs = distinct(exact_partial, "pshard")  # bounded: <= probes × shards

    lo_by = dict(zip(zones["shard"].astype(int), zones["lo"].astype(int)))
    hi_by = dict(zip(zones["shard"].astype(int), zones["hi"].astype(int)))
    shards = sorted(lo_by)
    p1, p2 = h1(probes), h2(probes)
    n_exact, n_zone, n_bloom = [], [], []
    for i, u in enumerate(probes):
        e = z = bl = 0
        for s_ in shards:
            if (i * S + s_) in exact_pairs:
                e += 1
            if lo_by[s_] <= int(u) <= hi_by[s_]:
                z += 1
            if (s_ * M + int(p1[i])) in bloom_bits and (
                s_ * M + int(p2[i])
            ) in bloom_bits:
                bl += 1
        n_exact.append(e)
        n_zone.append(z)
        n_bloom.append(bl)
    return pa.table(
        {
            "user_id": pa.array(probes, pa.int64()),
            "n_shards_exact": pa.array(np.asarray(n_exact, np.int64), pa.int64()),
            "n_shards_zone": pa.array(np.asarray(n_zone, np.int64), pa.int64()),
            "n_shards_bloom": pa.array(np.asarray(n_bloom, np.int64), pa.int64()),
        }
    )


SHARD_SKIP_REPORT_SQL = f"""
WITH e AS (
  SELECT user_id,
         (epoch_us(ts) // {86_400 * 1_000_000}) % {SKIP_SHARDS} AS shard
  FROM events
),
mx AS (SELECT max(user_id) AS mu FROM e),
probes AS (
  SELECT DISTINCT CAST(
    md5_number_lower(r.range::VARCHAR) % (mx.mu + 1) AS BIGINT
  ) AS user_id
  FROM range({SKIP_PROBES}) r, mx
),
zones AS (
  SELECT shard, min(user_id) AS lo, max(user_id) AS hi FROM e GROUP BY 1
),
bloom AS (
  SELECT DISTINCT shard,
         CAST(md5_number_lower(user_id::VARCHAR) % {SKIP_BLOOM_M} AS BIGINT)
           AS b1,
         CAST((md5_number_lower(user_id::VARCHAR) >> 20) % {SKIP_BLOOM_M}
              AS BIGINT) AS b2
  FROM e
),
bloombits AS (
  SELECT shard, b1 AS bit FROM bloom
  UNION SELECT shard, b2 AS bit FROM bloom
)
SELECT p.user_id,
       CAST(count(DISTINCT CASE WHEN ex.user_id IS NOT NULL
                            THEN z.shard END) AS BIGINT) AS n_shards_exact,
       CAST(count(DISTINCT CASE WHEN p.user_id BETWEEN z.lo AND z.hi
                            THEN z.shard END) AS BIGINT) AS n_shards_zone,
       CAST(count(DISTINCT CASE WHEN bb1.bit IS NOT NULL AND bb2.bit IS NOT NULL
                            THEN z.shard END) AS BIGINT) AS n_shards_bloom
FROM probes p
CROSS JOIN zones z
LEFT JOIN (SELECT DISTINCT user_id, shard FROM e) ex
  ON ex.user_id = p.user_id AND ex.shard = z.shard
LEFT JOIN bloombits bb1
  ON bb1.shard = z.shard
  AND bb1.bit = CAST(md5_number_lower(p.user_id::VARCHAR) % {SKIP_BLOOM_M} AS BIGINT)
LEFT JOIN bloombits bb2
  ON bb2.shard = z.shard
  AND bb2.bit = CAST((md5_number_lower(p.user_id::VARCHAR) >> 20) % {SKIP_BLOOM_M} AS BIGINT)
GROUP BY 1
ORDER BY 1
"""

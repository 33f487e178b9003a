"""Relational building blocks expressed Ray-Data-first, with DuckDB
oracles: aggregation with pre-combine, broadcast join, top-k, windowed
(tumbling) aggregation and sessionization.  Every grouped aggregate runs
through ``keyed_aggregate`` and every per-key kernel through
``partitioned_by_key`` (one sort-and-cut-runs call per exchange block),
both on the one keyed exchange in ``_util``.  These exercise the
engine's wide operators on the driver's TPC-H-ish tables.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ._util import (
    ensure_columns,
    exchange,
    keyed_aggregate,
    money_cents,
    partitioned_by_key,
    quantile_disc_pick,
    run_bounds,
    run_pairs,
)


def _read(sf_dir: str, table: str, columns: list[str]) -> "ray.data.Dataset":
    from ._util import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


# -- aggregation ------------------------------------------------------------


def agg_lineitem(sf_dir: str) -> pa.Table:
    """TPC-H Q1-shaped rollup through one keyed aggregate: each call
    pre-combines its rows (combiner), so the exchange only moves
    (group, partial) rows."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"],
    )
    final = ensure_columns(
        keyed_aggregate(
            ds,
            ["l_returnflag", "l_linestatus"],
            {
                "qty": ("l_quantity", "sum"),
                "price": ("l_extendedprice", "sum"),
                "n": ("l_quantity", "count"),
            },
        ).to_pandas(),
        ["l_returnflag", "l_linestatus", "qty", "price", "n"],
    )
    return pa.table(
        {
            "l_returnflag": pa.array(final["l_returnflag"], pa.string()),
            "l_linestatus": pa.array(final["l_linestatus"], pa.string()),
            "sum_qty_x100": pa.array(
                np.round(final["qty"] * 100).astype("int64"), pa.int64()
            ),
            "sum_price_x100": pa.array(
                np.round(final["price"] * 100).astype("int64"), pa.int64()
            ),
            "n_items": pa.array(final["n"].astype("int64"), pa.int64()),
        }
    )


AGG_LINEITEM_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(round(sum(l_quantity) * 100) AS BIGINT) AS sum_qty_x100,
       CAST(round(sum(l_extendedprice) * 100) AS BIGINT) AS sum_price_x100,
       count(*) AS n_items
FROM lineitem
GROUP BY l_returnflag, l_linestatus
"""


# -- broadcast join + top-k -------------------------------------------------


def top_customers(sf_dir: str, k: int = 10) -> pa.Table:
    """Revenue top-k over orders ⋈ customer: the join goes through the
    planner (auto_equi_join), whose footer gate broadcasts the customer
    names at every tested scale — no shuffle join.  A custkey with no
    customer row keeps an empty name (left join, then fill_null)."""
    joined = auto_equi_join(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
        f"{sf_dir}/customer.parquet",
        "o_custkey",
        "c_custkey",
        [("o_custkey", pa.int64()), ("o_totalprice", pa.float64())],
        [("c_name", pa.string())],
        how="left",
    )
    # keyed_aggregate pre-combines each call, so the exchange moves
    # (customer, partial) rows, not the raw order rows.
    per_customer = keyed_aggregate(
        joined,
        ["o_custkey", "c_name"],
        {"revenue": ("o_totalprice", "sum"), "n_orders": ("o_custkey", "count")},
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        # Per-block partial top-k (select_k) so the driver merge sees only
        # blocks × k candidate rows, never the full per-customer rollup —
        # at a 100 TB order table that rollup is itself huge.
        idx = pc.select_k_unstable(
            batch,
            k=min(k, batch.num_rows),
            sort_keys=[("revenue", "descending"), ("o_custkey", "ascending")],
        )
        return batch.take(idx)

    agg = ensure_columns(
        per_customer.map_batches(
            local_topk, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas(),  # bounded: blocks × k candidates
        ["o_custkey", "c_name", "revenue", "n_orders"],
    )
    agg = agg.sort_values(
        ["revenue", "o_custkey"], ascending=[False, True]
    ).head(k)
    return pa.table(
        {
            "c_custkey": pa.array(agg["o_custkey"].astype("int64"), pa.int64()),
            "c_name": pc.fill_null(pa.array(agg["c_name"], pa.string()), ""),
            "revenue_x100": pa.array(
                np.round(agg["revenue"] * 100).astype("int64"), pa.int64()
            ),
            "n_orders": pa.array(agg["n_orders"].astype("int64"), pa.int64()),
        }
    )


TOP_CUSTOMERS_SQL = """
SELECT c_custkey, c_name,
       CAST(round(sum(o_totalprice) * 100) AS BIGINT) AS revenue_x100,
       count(*) AS n_orders
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_custkey, c_name
ORDER BY sum(o_totalprice) DESC, c_custkey
LIMIT 10
"""


# -- tumbling-window aggregate ----------------------------------------------


def hourly_events(sf_dir: str) -> pa.Table:
    """Tumbling 1-hour windows per event type: window key derived
    vectorized in a narrow stage, then one keyed aggregate."""

    def add_window(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        return batch.append_column("window_start", hour)

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    out = ensure_columns(
        keyed_aggregate(
            ds.map_batches(add_window, batch_format="pyarrow", zero_copy_batch=True),
            ["event_type", "window_start"],
            {"n_events": ("value", "count"), "sum_value": ("value", "sum")},
        ).to_pandas(),
        ["event_type", "window_start", "n_events", "sum_value"],
    )
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "window_start": pa.array(out["window_start"], pa.timestamp("us")),
            "n_events": pa.array(out["n_events"].astype("int64"), pa.int64()),
            "sum_value_x100": pa.array(
                np.round(out["sum_value"] * 100).astype("int64"), pa.int64()
            ),
        }
    )


HOURLY_EVENTS_SQL = """
SELECT event_type,
       date_trunc('hour', ts) AS window_start,
       count(*) AS n_events,
       CAST(round(sum(value) * 100) AS BIGINT) AS sum_value_x100
FROM events
GROUP BY event_type, date_trunc('hour', ts)
"""


# -- sessionization (stateful per-key, order-dependent) ----------------------

SESSION_GAP_MINUTES = 30


def sessionize(sf_dir: str) -> "ray.data.Dataset":
    """Sessions per user: one keyed shuffle, count gaps > 30 min within
    each user's time-ordered stream.  Partition-vectorized: rows shuffle
    on user_id % P (P = wide_partitions()) and ONE numpy kernel per
    exchange block computes every user's counts via lexsort + run
    boundaries — at most min(P, 2 × CPUs) UDF calls instead of one per
    user (10⁹ users = 10⁹ Python
    invocations under the naive groupby(user_id).map_groups shape)."""
    from ._util import partitioned_by_key, run_bounds

    gap_us = SESSION_GAP_MINUTES * 60 * 1_000_000

    def sessions_part(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(part.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        b = run_bounds(uid)
        starts = b[:-1]
        n_events = np.diff(b)
        # A session break is a same-user gap > gap_us; count per user run.
        same_user = uid[1:] == uid[:-1]
        breaks = same_user & (np.diff(ts) > gap_us)
        uidx = np.cumsum(np.r_[False, ~same_user])  # run index per row
        n_sessions = 1 + np.bincount(
            uidx[1:][breaks], minlength=len(starts)
        ).astype(np.int64)
        return pa.table(
            {
                "user_id": pa.array(uid[starts], pa.int64()),
                "n_events": pa.array(n_events, pa.int64()),
                "n_sessions": pa.array(n_sessions, pa.int64()),
            }
        )

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    return partitioned_by_key(ds, "user_id", sessions_part)


SESSIONIZE_SQL = f"""
WITH ordered AS (
  SELECT user_id, ts,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev_ts
  FROM events
)
SELECT user_id,
       count(*) AS n_events,
       count(*) FILTER (
         WHERE prev_ts IS NULL
            OR ts - prev_ts > INTERVAL {SESSION_GAP_MINUTES} MINUTE
       ) AS n_sessions
FROM ordered
GROUP BY user_id
"""


# -- sort / limit / sample --------------------------------------------------


def top_events_by_value(sf_dir: str, k: int = 100) -> pa.Table:
    """Global top-k without a global sort: per-batch partial top-k, then a
    driver-side merge of the bounded candidate set."""

    def local_topk(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            batch, k=min(k, batch.num_rows), sort_keys=[("value", "descending"), ("event_id", "ascending")]
        )
        return batch.take(idx).select(["event_id", "value"])

    ds = _read(sf_dir, "events", ["event_id", "value"])
    cand = ds.map_batches(
        local_topk, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    cand = cand.sort_values(["value", "event_id"], ascending=[False, True]).head(k)
    return pa.table(
        {
            "event_id": pa.array(cand["event_id"].astype("int64"), pa.int64()),
            "value_micros": pa.array(
                np.round(cand["value"] * 1e6).astype("int64"), pa.int64()
            ),
        }
    )


TOP_EVENTS_SQL = """
SELECT event_id, CAST(round(value * 1e6) AS BIGINT) AS value_micros
FROM events
ORDER BY value DESC, event_id
LIMIT 100
"""


# -- sliding-window aggregate ------------------------------------------------

SLIDE_MINUTES = 15
WINDOW_MINUTES = 60


def sliding_events(sf_dir: str) -> pa.Table:
    """1-hour windows sliding every 15 minutes, per event type.  Each row
    lands in windows/slide = 4 windows: a vectorized flat-map replicates
    the row per window start, then a plain keyed aggregate — no
    order-dependent state, so the shuffle stays a bounded keyed exchange."""
    slide_us = SLIDE_MINUTES * 60 * 1_000_000
    per_row = WINDOW_MINUTES // SLIDE_MINUTES

    def assign_windows(batch: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()).to_numpy(zero_copy_only=False)
        etype = batch.column("event_type").to_numpy(zero_copy_only=False)
        value = batch.column("value").to_numpy(zero_copy_only=False)
        base = (ts // slide_us) * slide_us  # latest slide boundary ≤ ts
        offsets = (np.arange(per_row) * slide_us)[None, :]
        starts = (base[:, None] - offsets).reshape(-1)
        return pa.table(
            {
                "event_type": pa.array(np.repeat(etype, per_row)),
                "window_start": pa.array(starts, pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "value": pa.array(np.repeat(value, per_row), pa.float64()),
            }
        )

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    out = ensure_columns(
        keyed_aggregate(
            ds.map_batches(assign_windows, batch_format="pyarrow", zero_copy_batch=True),
            ["event_type", "window_start"],
            {"n_events": ("value", "count"), "sum_value": ("value", "sum")},
        ).to_pandas(),
        ["event_type", "window_start", "n_events", "sum_value"],
    )
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "window_start": pa.array(out["window_start"], pa.timestamp("us")),
            "n_events": pa.array(out["n_events"].astype("int64"), pa.int64()),
            "sum_value_x100": pa.array(
                np.round(out["sum_value"] * 100).astype("int64"), pa.int64()
            ),
        }
    )


SLIDING_EVENTS_SQL = f"""
WITH slides AS (SELECT unnest(range(0, {WINDOW_MINUTES // SLIDE_MINUTES})) AS i),
assigned AS (
  SELECT event_type,
         to_timestamp((epoch_us(ts) // ({SLIDE_MINUTES} * 60 * 1000000))
                      * ({SLIDE_MINUTES} * 60 * 1000000) / 1000000.0)
           - i * INTERVAL {SLIDE_MINUTES} MINUTE AS window_start,
         value
  FROM events CROSS JOIN slides
)
SELECT event_type,
       CAST(window_start AS TIMESTAMP) AS window_start,
       count(*) AS n_events,
       CAST(round(sum(value) * 100) AS BIGINT) AS sum_value_x100
FROM assigned
GROUP BY event_type, window_start
"""


# -- filter + project (predicate pushdown) -----------------------------------


def click_values(sf_dir: str) -> "ray.data.Dataset":
    """Filter + project with the predicate pushed to the parquet read:
    only matching row groups/columns leave storage."""
    import pyarrow.dataset as pads

    from ._util import read_parquet_clean

    ds = read_parquet_clean(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value"],
        filter=(pads.field("event_type") == "click"),
    )

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "value_x100": pc.cast(
                    pc.round(pc.multiply(batch.column("value"), 100)), pa.int64()
                ),
            }
        )

    return ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


CLICK_VALUES_SQL = """
SELECT event_id, CAST(round(value * 100) AS BIGINT) AS value_x100
FROM events WHERE event_type = 'click'
"""


def distinct_event_types(sf_dir: str) -> "ray.data.Dataset":
    """Set op: distinct keys via a keyed aggregate with no aggregates
    (the scalable distinct)."""
    return keyed_aggregate(_read(sf_dir, "events", ["event_type"]), "event_type", {})


DISTINCT_EVENT_TYPES_SQL = "SELECT DISTINCT event_type FROM events"


# -- per-group rank (windowed top-1) ------------------------------------------


def top_event_per_user(sf_dir: str) -> "ray.data.Dataset":
    """Each user's highest-value event (ties broken by event_id) — the
    row_number()-per-partition window, partition-vectorized: rows
    shuffle on user_id % P and one lexsort-per-partition kernel picks
    every user's winner at once (first row of each user run under the
    (user, -value, event_id) order) — at most min(P, 2 × CPUs) UDF
    calls, not one per user.

    A per-batch combiner could pre-reduce each block to one candidate
    per user before the shuffle (like pivot_event_counts); skipped here
    because winner rows are as wide as input rows — the shuffle saves
    nothing unless users repeat within a block."""
    def pick_part(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        vals = part.column("value").to_numpy(zero_copy_only=False)
        ids = part.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -vals, uid))
        uid, vals, ids = uid[order], vals[order], ids[order]
        first = run_bounds(uid)[:-1]
        return pa.table(
            {
                "user_id": pa.array(uid[first], pa.int64()),
                "event_id": pa.array(ids[first], pa.int64()),
                "value": pa.array(vals[first], pa.float64()),
            }
        )

    ds = _read(sf_dir, "events", ["user_id", "event_id", "value"])
    return partitioned_by_key(ds, "user_id", pick_part)


TOP_EVENT_PER_USER_SQL = """
SELECT user_id, event_id, value FROM (
  SELECT user_id, event_id, value,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY value DESC, event_id) AS rn
  FROM events
) WHERE rn = 1
"""


# -- broadcast anti-join -------------------------------------------------------


# Broadcast the distinct event-user set only while it fits comfortably
# on the driver / in every map task's heap: 4M int64 keys = 32 MB.
# Above that the plan switches to the shuffle anti-join — the same
# estimate-then-pick-a-plan discipline as minhash_lsh_pairs'
# carry-vs-join switch.  The gate reads ONE HLL pass over
# events.user_id (register rollup, tiny shuffle), never a full count.
_ANTI_BROADCAST_KEY_BUDGET = 4_000_000


def customers_without_events(
    sf_dir: str, broadcast_key_budget: int = _ANTI_BROADCAST_KEY_BUDGET
) -> "ray.data.Dataset":
    """Customers with no event activity — a cost-switched anti-join.

    Plan A (distinct users <= budget): the small side (distinct event
    user ids) is reduced first, shipped once via ray.put, and the big
    side filters against it locally — an anti-join with no shuffle of
    the probe table (the same broadcast discipline the resume manifest
    uses).

    Plan B (distinct users > budget): at a web-scale keyspace the
    "small side" is GBs on the driver, so the same semantics run as
    repartition_join(how="anti") — both sides hash-shuffle once on the
    key and each partition answers membership with a sorted probe;
    nothing materializes anywhere.  The build side pre-dedups per batch
    before shuffling (events >> distinct users).  The arm is picked by
    an HLL cardinality estimate (one register-rollup pass) — consulted
    ONLY when the near-free gate is inconclusive: parquet footer
    metadata gives the events ROW count without touching data, and
    rows <= budget proves distinct users <= budget, so the common
    small/medium case never pays the extra HLL scan.  Both arms are
    pinned equal by pytest.

    The budget is soft when the HLL decides: 512 registers give a
    standard error of about 5% (1.04 / sqrt(512) = 4.6%), so an
    estimate just under ``broadcast_key_budget`` can pick Plan A while
    the true distinct count is a few percent over it.  Plan A's
    ``take_all()``, which gathers the keys into the calling process, may
    therefore hold about 5% more keys than the budget (more in a
    multi-sigma draw); the footer row-count gate is exact and never
    overshoots."""
    import pyarrow.parquet as pq

    from ._util import batch_distinct_int64
    from .sketches import hll_estimate, hll_registers

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name"])
    n_event_rows = pq.ParquetFile(f"{sf_dir}/events.parquet").metadata.num_rows
    use_shuffle = n_event_rows > broadcast_key_budget and (
        hll_estimate(hll_registers(sf_dir)) > broadcast_key_budget
    )
    if use_shuffle:
        build = _read(sf_dir, "events", ["user_id"]).map_batches(
            batch_distinct_int64("user_id"),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        return repartition_join(
            cust,
            build,
            "c_custkey",
            "user_id",
            [("c_custkey", pa.int64()), ("c_name", pa.string())],
            [],
            how="anti",
        )

    # The keyed exchange leaves one row per distinct user, so the gather
    # is bounded by the budget gate above: distinct users, not events.
    user_ids = (
        keyed_aggregate(
            _read(sf_dir, "events", ["user_id"]), "user_id", {"n": ("user_id", "count")}
        )
        .select_columns(["user_id"])
        .take_all()
    )
    active = ray.put(np.sort(np.array([r["user_id"] for r in user_ids], np.int64)))

    def anti(batch: pa.Table) -> pa.Table:
        act = ray.get(active)
        if len(act) == 0:
            return batch
        keys = batch.column("c_custkey").to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(act, keys), 0, len(act) - 1)
        return batch.filter(pa.array(act[pos] != keys))

    return (
        cust.map_batches(anti, batch_format="pyarrow", zero_copy_batch=True)
    )


CUSTOMERS_WITHOUT_EVENTS_SQL = """
SELECT c_custkey, c_name FROM customer c
WHERE NOT EXISTS (SELECT 1 FROM events e WHERE e.user_id = c.c_custkey)
"""


# -- as-of join ---------------------------------------------------------------


def asof_join_events_orders(sf_dir: str) -> "ray.data.Dataset":
    """As-of join: each event picks the latest order of the same customer
    with o_orderdate <= event ts (ties on date broken by max o_orderkey).

    Ray Data has no asof join; the scalable composition is a single keyed
    shuffle: union both tables tagged with a side flag, co-locate each
    customer (key % P), and answer every probe with ONE vectorized
    searchsorted per partition — probes and builds of all keys share a
    composite (key_index · span + ts) axis so a probe can never match
    into a neighbouring key's run.  One shuffle of (key, ts, id)
    triples, at most min(P, 2 × CPUs) kernel calls — the inequality
    predicate never becomes an
    all-pairs join and no per-key Python call exists."""

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_orderkey"])
    events = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def order_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": batch.column("o_custkey"),
                "ts_us": pc.cast(batch.column("o_orderdate"), pa.int64()),
                "row_id": batch.column("o_orderkey"),
                "side": pa.array(np.zeros(n, dtype=np.int8)),
            }
        )

    def event_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": batch.column("user_id"),
                "ts_us": pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()),
                "row_id": batch.column("event_id"),
                "side": pa.array(np.ones(n, dtype=np.int8)),
            }
        )

    both = orders.map_batches(
        order_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        events.map_batches(event_rows, batch_format="pyarrow", zero_copy_batch=True)
    )

    def probe_part(part: pa.Table) -> pa.Table:
        side = part.column("side").to_numpy(zero_copy_only=False)
        key = part.column("key").to_numpy(zero_copy_only=False)
        ts = part.column("ts_us").to_numpy(zero_copy_only=False)
        rid = part.column("row_id").to_numpy(zero_copy_only=False)
        is_order = side == 0
        o_key, o_ts, o_id = key[is_order], ts[is_order], rid[is_order]
        e_key, e_ts, e_id = key[~is_order], ts[~is_order], rid[~is_order]
        empty = pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "ts": pa.array([], pa.timestamp("us")),
                "o_orderkey": pa.array([], pa.int64()),
                "o_orderdate": pa.array([], pa.timestamp("us")),
            }
        )
        if len(o_ts) == 0 or len(e_ts) == 0:
            return empty
        # Composite axis: key-index · span + (ts - t0) keeps every key's
        # build run disjoint, so one searchsorted answers all probes.
        uniq = np.unique(key)
        t0 = int(ts.min())
        span = int(ts.max()) - t0 + 2
        if len(uniq) * span >= 2**62:
            raise OverflowError(
                "asof_join: key-count x time-span exceeds the composite "
                "searchsorted key — shrink the partition (raise P)"
            )
        o_kidx = np.searchsorted(uniq, o_key)
        e_kidx = np.searchsorted(uniq, e_key)
        order = np.lexsort((o_id, o_ts, o_kidx))
        o_kidx, o_ts, o_id = o_kidx[order], o_ts[order], o_id[order]
        bcomp = o_kidx * span + (o_ts - t0)
        # rightmost order with ts <= event ts IN THE SAME KEY RUN: ties
        # on ts land on max id because builds sort by (key, ts, id).
        pos = np.searchsorted(bcomp, e_kidx * span + (e_ts - t0), side="right") - 1
        hit = (pos >= 0) & (o_kidx[np.maximum(pos, 0)] == e_kidx)
        if not hit.any():
            return empty
        ph = pos[hit]
        return pa.table(
            {
                "event_id": pa.array(e_id[hit], pa.int64()),
                "user_id": pa.array(e_key[hit], pa.int64()),
                "ts": pa.array(e_ts[hit], pa.int64()).cast(pa.timestamp("us")),
                "o_orderkey": pa.array(o_id[ph], pa.int64()),
                "o_orderdate": pa.array(o_ts[ph], pa.int64()).cast(
                    pa.timestamp("us")
                ),
            }
        )

    return partitioned_by_key(both, "key", probe_part)


ASOF_JOIN_SQL = """
SELECT event_id, user_id, ts, o_orderkey, o_orderdate FROM (
  SELECT e.event_id, e.user_id, e.ts, o.o_orderkey, o.o_orderdate,
         row_number() OVER (
           PARTITION BY e.event_id
           ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM events e
  JOIN orders o ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
) WHERE rn = 1
"""


# -- range join ----------------------------------------------------------------

RANGE_JOIN_HOURS = 24


def range_join_prior_events(sf_dir: str) -> "ray.data.Dataset":
    """Range join (self-join form): every pair of events of the same user
    where the earlier one falls strictly within the 24 h before the later
    one.  Same single-keyed-shuffle shape as the as-of join, but each
    probe emits a [lo, hi) slice of the time-sorted run (variable
    fan-out via repeat + flat slice indices) instead of one row — an
    interval join that never goes all-pairs.  Partition-vectorized on
    user_id % P: the searchsorted window bounds for ALL users come from
    one pass by offsetting each probe onto a per-user composite key
    (run_index · span) so a user's window can never cross into a
    neighbouring run — no per-user Python call, at most min(P, 2 × CPUs)
    kernel calls total."""
    win_us = RANGE_JOIN_HOURS * 3600 * 1_000_000

    def probe_part(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(part.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts, eid = uid[order], ts[order], eid[order]
        b = run_bounds(uid)
        ridx = np.repeat(
            np.arange(len(b) - 1, dtype=np.int64), np.diff(b)
        )  # run index per row
        t0 = int(ts.min()) if len(ts) else 0
        span = (int(ts.max()) - t0 if len(ts) else 0) + win_us + 2
        if (len(b) - 1) * span >= 2**62:  # composite key must fit int64
            raise OverflowError(
                "range_join: run-count x time-span exceeds the composite "
                "searchsorted key — shrink the partition (raise P)"
            )
        key = ridx * span + (ts - t0)
        lo = np.searchsorted(key, key - win_us, side="right")
        hi = np.searchsorted(key, key, side="left")
        counts = hi - lo
        keep = counts > 0
        if not keep.any():
            return pa.table(
                {
                    "event_id": pa.array([], pa.int64()),
                    "prior_event_id": pa.array([], pa.int64()),
                }
            )
        lo_k, counts_k = lo[keep], counts[keep]
        # flat indices of each probe's [lo, hi) build-side slice
        starts = np.repeat(lo_k, counts_k)
        within = np.arange(int(counts_k.sum())) - np.repeat(
            np.cumsum(counts_k) - counts_k, counts_k
        )
        return pa.table(
            {
                "event_id": pa.array(np.repeat(eid[keep], counts_k), pa.int64()),
                "prior_event_id": pa.array(eid[starts + within], pa.int64()),
            }
        )

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    return partitioned_by_key(ds, "user_id", probe_part)


RANGE_JOIN_SQL = f"""
SELECT a.event_id, b.event_id AS prior_event_id
FROM events a
JOIN events b ON b.user_id = a.user_id
  AND b.ts < a.ts
  AND b.ts > a.ts - INTERVAL {RANGE_JOIN_HOURS} HOUR
"""


# -- distributed prefix scan (running total) ----------------------------------


def running_total(sf_dir: str) -> "ray.data.Dataset":
    """Cumulative sum of order value in global (o_orderdate, o_orderkey)
    order — the classic two-pass distributed scan.  Pass 1 computes one
    partial sum per date-range bucket (a tiny keyed aggregate); the driver turns
    those into exclusive prefix offsets (O(#buckets), not O(rows)) and
    broadcasts them; pass 2 cumsums inside each bucket and adds the
    bucket's offset.  No global sort and no O(N) driver state.  Sums are
    integer cents so the result is associativity-exact against the SQL
    window oracle."""

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_totalprice"])

    def with_bucket(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        # Month-granularity range buckets: ordered, low-skew for
        # date-uniform data, and computable row-locally.
        month = ts // (30 * 24 * 3600 * 1_000_000)
        cents = np.rint(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(month, pa.int64()),
                "ts_us": pa.array(ts, pa.int64()),
                "o_orderkey": batch.column("o_orderkey"),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    bucketed = ds.map_batches(
        with_bucket, batch_format="pyarrow", zero_copy_batch=True
    )
    # Pass 1: per-bucket totals (small: one row per month).
    totals = keyed_aggregate(bucketed, "bucket", {"s": ("cents", "sum")})
    totals = totals.to_pandas().sort_values("bucket")
    offsets = dict(
        zip(
            totals["bucket"].tolist(),
            np.concatenate([[0], np.cumsum(totals["s"].to_numpy())[:-1]])
            .astype(int)
            .tolist(),
        )
    )
    offsets_ref = ray.put(offsets)

    def scan(block: pa.Table) -> pa.Table:
        off = ray.get(offsets_ref)
        bkt = block.column("bucket").to_numpy(zero_copy_only=False)
        ts = block.column("ts_us").to_numpy(zero_copy_only=False)
        keys = block.column("o_orderkey").to_numpy(zero_copy_only=False)
        cents = block.column("cents").to_numpy(zero_copy_only=False)
        order = np.lexsort((keys, ts, bkt))
        bkt, cents = bkt[order], cents[order]
        run = np.cumsum(cents)
        b = run_bounds(bkt)
        # Restart the cumsum at each bucket, from the bucket's offset.
        base = np.array([off[int(x)] for x in bkt[b[:-1]]], np.int64) - (
            run - cents
        )[b[:-1]]
        return pa.table(
            {
                "o_orderkey": pa.array(keys[order], pa.int64()),
                "running_cents": pa.array(run + np.repeat(base, np.diff(b)), pa.int64()),
            }
        )

    # Pass 2: in-bucket cumsum + broadcast offset.
    return partitioned_by_key(bucketed, "bucket", scan)


RUNNING_TOTAL_SQL = """
SELECT o_orderkey,
       CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT))
         OVER (ORDER BY o_orderdate, o_orderkey) AS BIGINT) AS running_cents
FROM orders
"""


# -- exact distributed percentiles -----------------------------------------

PERCENTILES_PERMILLE = (100, 250, 500, 750, 900, 990)


def percentiles_doclen(sf_dir: str) -> pa.Table:
    """Exact discrete quantiles of document length — the corpus-profile
    stat every training pipeline reports.  Pattern: per-batch value
    counting (keyed_aggregate's per-call combiner, then its exchange) →
    the driver sees only one row per DISTINCT length (bounded by the max
    document size, not the corpus size; integer-valued columns compress
    ~N→10^5 even at 100 TB), cumsums, and picks the 1-based index
    ``ceil(q*n)`` element — DuckDB ``quantile_disc``'s rule.  No global
    sort and no O(rows) driver state."""

    ds = _read(sf_dir, "documents", ["n_chars"])
    counts = (
        keyed_aggregate(ds, "n_chars", {"cnt": ("n_chars", "count")})
        .to_pandas()
        .sort_values("n_chars")
    )
    vals = counts["n_chars"].to_numpy()
    cum = np.cumsum(counts["cnt"].to_numpy())
    out_q: list[int] = []
    out_v: list[int] = []
    for pm in PERCENTILES_PERMILLE:
        out_q.append(pm)
        out_v.append(quantile_disc_pick(vals, cum, pm))
    return pa.table(
        {
            "q_permille": pa.array(out_q, pa.int64()),
            "value": pa.array(out_v, pa.int64()),
        }
    )


PERCENTILES_SQL = "\nUNION ALL\n".join(
    f"SELECT CAST({pm} AS BIGINT) AS q_permille, quantile_disc(n_chars, {pm / 1000.0}) AS value"
    " FROM documents"
    for pm in PERCENTILES_PERMILLE
)


# -- per-group sliding window (moving sum) ---------------------------------


def moving_sum_events(sf_dir: str) -> "ray.data.Dataset":
    """Per-user moving 3-row window over event value (integer cents so
    the float-sum order can't diverge from the oracle).  One shuffle on
    user_id % P; one kernel per exchange block computes every user's windows
    at once — a global cumsum differenced against a per-row window
    floor clamped to the user's run start, so no per-user Python call
    exists anywhere.  Skew note: a hot user concentrates in one
    partition — at crawl scale, salt the key with a coarse time bucket
    and stitch the two edge windows."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def window_part(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(part.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        cents = np.rint(
            part.column("value").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        order = np.lexsort((eid, ts, uid))
        uid, eid, cents = uid[order], eid[order], cents[order]
        b = run_bounds(uid)
        starts_rep = np.repeat(b[:-1], np.diff(b))
        csum0 = np.r_[0, np.cumsum(cents)]
        i = np.arange(len(uid), dtype=np.int64)
        lo = np.maximum(i + 1 - 3, starts_rep)  # window floor, run-clamped
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(uid, pa.int64()),
                "w3_cents": pa.array(csum0[i + 1] - csum0[lo], pa.int64()),
                "n_window": pa.array(i + 1 - lo, pa.int64()),
            }
        )

    return partitioned_by_key(ds, "user_id", window_part)


MOVING_SUM_SQL = """
SELECT event_id, user_id,
       CAST(SUM(CAST(round(value * 100) AS BIGINT))
         OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS BIGINT) AS w3_cents,
       COUNT(*)
         OVER (PARTITION BY user_id ORDER BY ts, event_id
               ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS n_window
FROM events
"""


# -- general repartition (shuffle hash) join --------------------------------


_JOIN_BLOOM_BITS = 1 << 23  # ~1 MB bitset; FP rate ~1e-3 at 1M keys


def _key_bloom_positions(keys: "np.ndarray", n_bits: int) -> "np.ndarray":
    """Bit positions (4 probes, double hashing over a splitmix64 scramble)
    for int64 join keys in an ``n_bits`` Bloom — ONE definition shared by
    the build aggregate and the membership probe so they can never drift."""
    h = keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    h ^= h >> np.uint64(29)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(32)
    h1 = h % np.uint64(n_bits)
    h2 = (h >> np.uint64(33)) | np.uint64(1)
    idx = np.arange(4, dtype=np.uint64)
    return (h1[:, None] + idx[None, :] * h2[:, None]) % np.uint64(n_bits)


def build_key_bloom(
    ds: "ray.data.Dataset", on: str, n_bits: int = 1 << 23
) -> "np.ndarray":
    """Bloom bitset over a dataset's int64 key column, built as a Ray
    Data aggregate (per-block partials OR-merged in the engine's combine
    tree — the driver receives one ~1 MB array regardless of rows; the
    build_text_bloom shape from dedup, for integer keys)."""
    from ray.data.aggregate import AggregateFn

    words = n_bits // 64 + 1

    def _acc(state: np.ndarray, block) -> np.ndarray:
        k = pc.cast(block.column(on), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if len(k):
            pos = _key_bloom_positions(k, n_bits).reshape(-1)
            np.bitwise_or.at(
                state, pos // np.uint64(64),
                np.uint64(1) << (pos % np.uint64(64)),
            )
        return state

    agg = AggregateFn(
        init=lambda _k: np.zeros(words, dtype=np.uint64),
        accumulate_block=_acc,
        merge=lambda a, b: a | b,
        name="key_bloom",
    )
    return np.asarray(ds.aggregate(agg)["key_bloom"], dtype=np.uint64)


def repartition_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_on: str,
    right_on: str,
    left_cols: list[tuple[str, pa.DataType]],
    right_cols: list[tuple[str, pa.DataType]],
    how: str = "inner",
    probe_salt: int = 1,
    bloom_prefilter: bool = False,
) -> "ray.data.Dataset":
    """General equi-join of two LARGE datasets as a repartition
    join: both sides are hashed on the key into the module's one
    partitioning discipline (pk = key % wide_partitions()), union'd, and
    joined inside each partition with a vectorized sorted-key probe that
    handles 1:N fan-out.  This is the large-large complement of
    top_customers' broadcast join: each row is shuffled exactly once and
    no side is materialized anywhere.  Expressed as union + the engine's
    keyed exchange (``_util.exchange`` over the ``pk`` column, P × S
    partitions) rather than ``Dataset.join`` because Ray's hash join
    spins a num_partitions aggregator-actor pool whose spin-up dominates
    at small scale (see dedup.minhash_lsh_pairs).

    ``left_cols`` / ``right_cols`` name the payload columns (with types)
    each side contributes; the join key arrives as ``left_on``.

    SKEW: ``probe_salt=S`` applies the standard salted-join treatment —
    a hot left key's rows would otherwise all land in one partition and
    serialize on one task, so each LEFT row gets a salt in [0, S) and
    shuffles to (key % P) * S + salt, while every RIGHT row is
    REPLICATED S times (once per salt bucket).  Each bucket then holds
    the full build set for its keys plus a 1/S slice of the probe rows,
    so per-row match logic (inner/left/semi/anti alike) is unchanged
    and the output is salt-invariant (pinned by test).  An exchange
    block holds several salt buckets of one key, so rows match on
    (key, salt = pk % S), never on the key alone.  Cost: S× the
    build-side shuffle volume — pick S ~ hot-key fan-out / mean, keep
    the smaller side on the right.

    ``bloom_prefilter=True`` applies Bloom-pushdown: a ~1 MB Bloom of
    the LEFT key set (built as a distributed OR-merge aggregate, one
    extra pass over left's plan) broadcasts once, and RIGHT rows whose
    key definitely has no left match are dropped BEFORE they shuffle.
    False positives only let extra rows through to the exact in-
    partition probe, so results are identical for every join type
    (pinned by test); use it when the right side is much larger than
    the left key set and left's upstream is cheap to re-execute or
    already materialized.

    ``how``: "inner" | "left" (unmatched left rows survive with null
    right payloads) | "semi" / "anti" (left payloads only, filtered by
    match existence — the shuffle complement of the broadcast anti-join
    in customers_without_events)."""
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unsupported join type: {how}")
    if probe_salt < 1:
        raise ValueError(f"probe_salt must be >= 1, got {probe_salt}")
    from ._util import wide_partitions

    P = wide_partitions()
    S = probe_salt
    bloom_ref = None
    if bloom_prefilter:
        bloom_ref = ray.put(
            build_key_bloom(left, left_on, _JOIN_BLOOM_BITS)
        )
    all_cols = [(c, t, 0) for c, t in left_cols] + [
        (c, t, 1) for c, t in right_cols
    ]

    def tag(side: int, on: str):
        def fn(batch: pa.Table) -> pa.Table:
            if side == 1 and bloom_ref is not None and batch.num_rows:
                bits = ray.get(bloom_ref)
                k = pc.cast(batch.column(on), pa.int64()).to_numpy(
                    zero_copy_only=False
                )
                pos = _key_bloom_positions(k, _JOIN_BLOOM_BITS)
                hit = (
                    (bits[pos // np.uint64(64)]
                     >> (pos % np.uint64(64))) & np.uint64(1)
                ).all(axis=1)
                batch = batch.take(pa.array(np.flatnonzero(hit), pa.int64()))
            if side == 1 and S > 1:
                # replicate the build side into every salt bucket
                batch = pa.concat_tables([batch] * S)
            keys = pc.cast(batch.column(on), pa.int64())
            n = batch.num_rows
            base = (keys.to_numpy(zero_copy_only=False) % P).astype(np.int64)
            if S > 1:
                if side == 0:
                    salt = np.arange(n, dtype=np.int64) % S
                else:
                    # concat order: copy i occupies rows [i*n/S, (i+1)*n/S)
                    salt = np.repeat(np.arange(S, dtype=np.int64), n // S)
                pk = (base * S + salt).astype(np.int32)
            else:
                pk = base.astype(np.int32)
            cols: dict[str, object] = {
                "k": keys,
                "side": pa.array(np.full(n, side, dtype=np.int8)),
                "pk": pa.array(pk),
            }
            for name, typ, s in all_cols:
                cols[name] = (
                    pc.cast(batch.column(name), typ)
                    if s == side
                    else pa.nulls(n, typ)
                )
            return pa.table(cols)

        return fn

    both = left.map_batches(
        tag(0, left_on), batch_format="pyarrow", zero_copy_batch=True
    ).union(
        right.map_batches(tag(1, right_on), batch_format="pyarrow", zero_copy_batch=True)
    )

    def join_group(group: pa.Table) -> pa.Table:
        side = group.column("side").to_numpy(zero_copy_only=False)
        keys = group.column("k").to_numpy(zero_copy_only=False)
        if S > 1:
            # Dense key codes with the salt in the low digit: each replica
            # of a build row meets only the probe rows of its own bucket.
            _, codes = np.unique(keys, return_inverse=True)
            salt = group.column("pk").to_numpy(zero_copy_only=False) % S
            keys = codes.astype(np.int64) * S + salt
        lsel = np.flatnonzero(side == 0)
        rsel = np.flatnonzero(side == 1)
        rkeys = keys[rsel]
        order = np.argsort(rkeys, kind="stable")
        rkeys = rkeys[order]
        rsel = rsel[order]
        lkeys = keys[lsel]
        lo = np.searchsorted(rkeys, lkeys, "left")
        hi = np.searchsorted(rkeys, lkeys, "right")
        cnt = hi - lo
        if how in ("semi", "anti"):
            pick = lsel[cnt > 0] if how == "semi" else lsel[cnt == 0]
            take = pa.array(pick, pa.int64())
            return pa.table(
                {
                    name: group.column(name).take(take)
                    for name, _typ, s in all_cols
                    if s == 0
                }
            )
        li = np.repeat(np.arange(len(lkeys)), cnt)
        offs = np.cumsum(cnt) - cnt
        ri = (
            np.arange(int(cnt.sum())) - np.repeat(offs, cnt) + np.repeat(lo, cnt)
        )
        l_take = pa.array(lsel[li], pa.int64())
        r_take = pa.array(rsel[ri], pa.int64())
        out: dict[str, object] = {}
        for name, _typ, s in all_cols:
            out[name] = group.column(name).take(l_take if s == 0 else r_take)
        matched = pa.table(out)
        if how == "inner":
            return matched
        # left outer: unmatched left rows keep payloads, null right side.
        miss = pa.array(lsel[cnt == 0], pa.int64())
        n_miss = len(miss)
        miss_cols = {
            name: (
                group.column(name).take(miss)
                if s == 0
                else pa.nulls(n_miss, typ)
            )
            for name, typ, s in all_cols
        }
        return pa.concat_tables([matched, pa.table(miss_cols)])

    return exchange(both, "pk", P * S, join_group)


def join_customer_orders(sf_dir: str) -> "ray.data.Dataset":
    """orders ⋈ customer on custkey via the cost-based planner
    (auto_equi_join): the customer footer picks broadcast at test
    scales and the repartition join at warehouse scale — both arms
    pinned equal by test; left_join_orders keeps exercising the
    shuffle arm directly."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        v = np.rint(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "o_custkey": batch.column("o_custkey"),
                "price_cents": pa.array(v, pa.int64()),
            }
        )

    left = orders.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
    return auto_equi_join(
        left,
        f"{sf_dir}/customer.parquet",
        "o_custkey",
        "c_custkey",
        [("o_orderkey", pa.int64()), ("price_cents", pa.int64())],
        [("c_mktsegment", pa.string())],
    )


JOIN_CUSTOMER_ORDERS_SQL = """
SELECT o_orderkey,
       CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents,
       c_mktsegment
FROM orders JOIN customer ON o_custkey = c_custkey
"""


def left_join_orders(sf_dir: str) -> "ray.data.Dataset":
    """orders LEFT JOIN high-balance customers: exercises the outer path
    of the general repartition join (unmatched orders survive with a
    null segment) WITH the Bloom pushdown live — customer rows whose
    custkey has no order drop before the shuffle.  The balance filter is
    pushed below the shuffle."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def cents(batch: pa.Table) -> pa.Table:
        v = np.rint(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "o_custkey": batch.column("o_custkey"),
                "price_cents": pa.array(v, pa.int64()),
            }
        )

    left = orders.map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
    right = _read(sf_dir, "customer", ["c_custkey", "c_acctbal", "c_mktsegment"]).filter(
        expr="c_acctbal > 5000.0"
    )
    return repartition_join(
        left,
        right,
        "o_custkey",
        "c_custkey",
        [("o_orderkey", pa.int64()), ("price_cents", pa.int64())],
        [("c_mktsegment", pa.string())],
        how="left",
        bloom_prefilter=True,
    )


LEFT_JOIN_ORDERS_SQL = """
SELECT o_orderkey,
       CAST(round(o_totalprice * 100) AS BIGINT) AS price_cents,
       c_mktsegment
FROM orders LEFT JOIN (SELECT * FROM customer WHERE c_acctbal > 5000.0) c
  ON o_custkey = c_custkey
"""


# -- funnel analysis ---------------------------------------------------------

_FUNNEL_STAGES = ("view", "click", "purchase")


def funnel_stages(sf_dir: str) -> "ray.data.Dataset":
    """Ordered-sequence funnel per user: stage 1 is reached at the first
    'view', stage 2 at the first 'click' STRICTLY after that view, stage
    3 at the first 'purchase' strictly after that click.  The product-
    analytics primitive Ray Data has no built-in for.

    One shuffle on user_id % P; inside each partition the per-user
    "first qualifying timestamp" of every stage is a masked
    ``np.minimum.at`` scatter over the user index — three vectorized
    reductions for ALL users in the partition, no sort and no per-user
    Python call anywhere.  Only (user_id, event_type, ts) rows move,
    pruned at the read."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    INF = np.iinfo(np.int64).max

    def stage_part(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(part.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        et = part.column("event_type")
        uniq, uidx = np.unique(uid, return_inverse=True)
        stage = np.zeros(len(uniq), dtype=np.int64)
        cutoff = np.full(len(uniq), np.iinfo(np.int64).min, dtype=np.int64)
        for name in _FUNNEL_STAGES:
            m = pc.fill_null(pc.equal(et, name), False).to_numpy(
                zero_copy_only=False
            )
            m &= ts > cutoff[uidx]  # strictly after the previous stage
            t = np.full(len(uniq), INF, dtype=np.int64)
            np.minimum.at(t, uidx[m], ts[m])
            reached = t < INF
            stage += reached
            cutoff = np.where(reached, t, INF)  # unreached: no next stage
        return pa.table(
            {
                "user_id": pa.array(uniq, pa.int64()),
                "funnel_stage": pa.array(stage, pa.int64()),
            }
        )

    return partitioned_by_key(ds, "user_id", stage_part)


FUNNEL_SQL = """
WITH v AS (SELECT user_id, min(ts) AS t1 FROM events
           WHERE event_type = 'view' GROUP BY 1),
c AS (SELECT e.user_id, min(e.ts) AS t2 FROM events e
      JOIN v ON e.user_id = v.user_id AND e.ts > v.t1
      WHERE e.event_type = 'click' GROUP BY 1),
p AS (SELECT e.user_id, min(e.ts) AS t3 FROM events e
      JOIN c ON e.user_id = c.user_id AND e.ts > c.t2
      WHERE e.event_type = 'purchase' GROUP BY 1)
SELECT u.user_id,
       CAST(CASE WHEN p.user_id IS NOT NULL THEN 3
            WHEN c.user_id IS NOT NULL THEN 2
            WHEN v.user_id IS NOT NULL THEN 1
            ELSE 0 END AS BIGINT) AS funnel_stage
FROM (SELECT DISTINCT user_id FROM events) u
LEFT JOIN v USING (user_id)
LEFT JOIN c USING (user_id)
LEFT JOIN p USING (user_id)
"""


# -- pivot (event-type counts to columns) ------------------------------------

_PIVOT_TYPES = ("view", "click", "purchase", "signup", "error")


def pivot_event_counts(sf_dir: str) -> "ray.data.Dataset":
    """Per-user event-type count pivot — long-to-wide reshape.

    Each row becomes 5 int64 indicator columns, and one keyed aggregate
    sums them per user: its per-call combiner pre-combines a hot user,
    so the exchange moves at most users x calls partial rows."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def indicators(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        cols = {"user_id": batch.column("user_id")}
        for name in _PIVOT_TYPES:
            cols[name] = pc.cast(pc.equal(et, name), pa.int64())
        return pa.table(cols)

    return keyed_aggregate(
        ds.map_batches(indicators, batch_format="pyarrow", zero_copy_batch=True),
        "user_id",
        {f"n_{name}": (name, "sum") for name in _PIVOT_TYPES},
    )


PIVOT_SQL = """
SELECT user_id,
       count(*) FILTER (event_type = 'view')     AS n_view,
       count(*) FILTER (event_type = 'click')    AS n_click,
       count(*) FILTER (event_type = 'purchase') AS n_purchase,
       count(*) FILTER (event_type = 'signup')   AS n_signup,
       count(*) FILTER (event_type = 'error')    AS n_error
FROM events GROUP BY user_id
"""


# -- ordered sequence operators ----------------------------------------------


def user_event_seq(sf_dir: str) -> "ray.data.Dataset":
    """Per-user time-ordered event-type sequence as one string — the
    "assemble a session/trajectory document" primitive for behavioral
    training data.  One shuffle on user_id % P; a lexsort by
    (user, ts, event_id) per PARTITION makes every user's concatenation
    deterministic (hash-stable against the string_agg ORDER BY oracle).
    The join itself is one str.join per user run over a pre-sorted
    object array — the only per-key step left, and it allocates no
    Arrow table and crosses no task boundary per key."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def concat_part(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(part.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid = uid[order]
        et = np.asarray(part.column("event_type").to_pylist(), dtype=object)[order]
        b = run_bounds(uid)
        seqs = [">".join(et[s:e]) for s, e in zip(b[:-1], b[1:])]
        return pa.table(
            {
                "user_id": pa.array(uid[b[:-1]], pa.int64()),
                "seq": pa.array(seqs, pa.string()),
            }
        )

    return partitioned_by_key(ds, "user_id", concat_part)


USER_EVENT_SEQ_SQL = """
SELECT user_id,
       string_agg(event_type, '>' ORDER BY ts, event_id) AS seq
FROM events GROUP BY user_id
"""


def event_transitions(sf_dir: str) -> pa.Table:
    """Global Markov transition counts over per-user ordered event
    streams: (from_type, to_type, cnt).

    The per-partition pass emits PARTIAL transition counts (≤ types²
    rows per user_id % P partition — one vectorized bincount over coded
    consecutive pairs, not a Python Counter per user), then one tiny
    keyed aggregate rolls them up — the hot pair ("view"→"view")
    pre-combines inside every partition, so the second shuffle moves
    bounded fixed-width rows no matter how long the streams are."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def partial_transitions(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(part.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        types = np.asarray(part.column("event_type").to_pylist(), dtype=object)
        uniq, code = np.unique(types, return_inverse=True)
        order = np.lexsort((eid, ts, uid))
        uid, code = uid[order], code[order]
        same = uid[1:] == uid[:-1]  # transitions stay within a user
        pair = code[:-1][same] * len(uniq) + code[1:][same]
        cnt = np.bincount(pair, minlength=len(uniq) * len(uniq))
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "from_type": pa.array(uniq[nz // len(uniq)], pa.string()),
                "to_type": pa.array(uniq[nz % len(uniq)], pa.string()),
                "cnt_part": pa.array(cnt[nz], pa.int64()),
            }
        )

    out = ensure_columns(
        keyed_aggregate(
            partitioned_by_key(ds, "user_id", partial_transitions),
            ["from_type", "to_type"],
            {"cnt": ("cnt_part", "sum")},
        ).to_pandas(),
        ["from_type", "to_type", "cnt"],
    ).sort_values(["from_type", "to_type"])
    return pa.table(
        {
            "from_type": pa.array(out["from_type"], pa.string()),
            "to_type": pa.array(out["to_type"], pa.string()),
            "cnt": pa.array(out["cnt"].to_numpy().astype(np.int64), pa.int64()),
        }
    )


EVENT_TRANSITIONS_SQL = """
WITH seq AS (
  SELECT user_id, event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id)
             AS prev
  FROM events
)
SELECT prev AS from_type, event_type AS to_type, count(*) AS cnt
FROM seq WHERE prev IS NOT NULL GROUP BY 1, 2
"""


# -- per-group percentiles ---------------------------------------------------


def grouped_percentiles(sf_dir: str) -> pa.Table:
    """Exact discrete quantiles of the value column PER event type (in
    cents) — percentiles_doclen generalized to grouped data.  Same
    distinct-value combiner: one keyed aggregate counts (type, cents),
    then one kernel per exchange block picks the ceil(q·n) element from
    each type's cumsum.  The driver never sees row data; each type's
    run is one row per DISTINCT cent value."""

    def with_cents(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "cents": pa.array(money_cents(v), pa.int64()),
            }
        )

    def pick(block: pa.Table) -> pa.Table:
        g = block.sort_by([("event_type", "ascending"), ("cents", "ascending")])
        et = np.asarray(g.column("event_type").to_pylist(), dtype=object)
        vals = g.column("cents").to_numpy(zero_copy_only=False)
        cnt = g.column("cnt").to_numpy(zero_copy_only=False)
        b = run_bounds(et)
        rows_t, rows_q, rows_v = [], [], []
        for s, e in zip(b[:-1], b[1:]):
            cum = np.cumsum(cnt[s:e])
            for pm in PERCENTILES_PERMILLE:
                rows_t.append(et[s])
                rows_q.append(pm)
                rows_v.append(quantile_disc_pick(vals[s:e], cum, pm))
        return pa.table(
            {
                "event_type": pa.array(rows_t, pa.string()),
                "q_permille": pa.array(rows_q, pa.int64()),
                "cents_value": pa.array(rows_v, pa.int64()),
            }
        )

    ds = _read(sf_dir, "events", ["event_type", "value"])
    counts = keyed_aggregate(
        ds.map_batches(with_cents, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "cents"],
        {"cnt": ("cents", "count")},
    )
    return (
        partitioned_by_key(counts, "event_type", pick)
        .to_pandas()
        .sort_values(["event_type", "q_permille"])
        .pipe(pa.Table.from_pandas, preserve_index=False)
    )


# floor(x*100 + 0.5), not round(): DuckDB rounds half AWAY FROM ZERO
# while the numpy side uses half-up — identical for positive cents but
# divergent on negative half-cent ties, so both engines use floor+0.5.
GROUPED_PERCENTILES_SQL = "\nUNION ALL\n".join(
    f"SELECT event_type, CAST({pm} AS BIGINT) AS q_permille,"
    f" quantile_disc(CAST(floor(value * 100 + 0.5) AS BIGINT), {pm / 1000.0})"
    " AS cents_value FROM events GROUP BY event_type"
    for pm in PERCENTILES_PERMILLE
)


# -- retention cohorts -------------------------------------------------------


def retention_cohorts(sf_dir: str) -> pa.Table:
    """Weekly retention matrix: users whose FIRST event falls in cohort
    week w and who are active k weeks later → (cohort_week, week_delta,
    n_users).  The product-analytics cohort table.

    One shuffle on user_id (per-user pass computes the cohort week and
    the distinct active-week deltas — bounded by weeks-per-user, not
    events), then a tiny rollup on (cohort, delta)."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def add_week(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "wk": pc.floor_temporal(batch.column("ts"), unit="week"),
            }
        )

    def user_deltas_part(part: pa.Table) -> pa.Table:
        """All users in the partition at once: distinct (user, week)
        rows via sort + change mask, cohort = each user run's first
        week, delta vectorized against the run-start broadcast."""
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        wk = pc.cast(part.column("wk"), pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((wk, uid))
        uid, wk = uid[order], wk[order]
        keep = np.r_[True, (uid[1:] != uid[:-1]) | (wk[1:] != wk[:-1])]
        uid, wk = uid[keep], wk[keep]
        b = run_bounds(uid)
        cohort = np.repeat(wk[b[:-1]], np.diff(b))
        week_us = 7 * 86_400_000_000
        return pa.table(
            {
                "user_id": pa.array(uid, pa.int64()),
                "cohort_week": pa.array(cohort, pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "week_delta": pa.array((wk - cohort) // week_us, pa.int64()),
            }
        )

    out = (
        keyed_aggregate(
            partitioned_by_key(
                ds.map_batches(add_week, batch_format="pyarrow", zero_copy_batch=True),
                "user_id",
                user_deltas_part,
            ),
            ["cohort_week", "week_delta"],
            {"n_users": ("user_id", "count")},
        )
        .to_pandas()
        .sort_values(["cohort_week", "week_delta"])
    )
    return pa.table(
        {
            "cohort_week": pa.Array.from_pandas(out["cohort_week"]).cast(
                pa.timestamp("us")
            ),
            "week_delta": pa.array(out["week_delta"].to_numpy(), pa.int64()),
            "n_users": pa.array(
                out["n_users"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


RETENTION_SQL = """
WITH w AS (SELECT user_id, date_trunc('week', ts) AS wk FROM events),
f AS (SELECT user_id, min(wk) AS cohort FROM w GROUP BY 1),
a AS (
  SELECT DISTINCT w.user_id, f.cohort,
         CAST(date_diff('day', f.cohort, w.wk) // 7 AS BIGINT) AS week_delta
  FROM w JOIN f USING (user_id)
)
SELECT cohort AS cohort_week, week_delta, count(*) AS n_users
FROM a GROUP BY 1, 2
"""


# -- star-schema multi-join (TPC-H Q5-shaped) --------------------------------


def revenue_by_nation(sf_dir: str) -> pa.Table:
    """Revenue per customer nation: lineitem ⋈ orders ⋈ customer ⋈
    nation — the star-schema join plan every warehouse query composes.

    Plan by side size: the fact-fact edge (lineitem ⋈ orders on
    orderkey) is large-large → ONE repartition-join shuffle, with
    lineitem pre-combined to (orderkey, partial revenue) inside each
    batch first so the shuffle moves at most one row per (orderkey,
    block); the dimension edges (customer, then nation) go through the
    join planner (auto_equi_join), which broadcasts them at tested
    scales; the final rollup moves ≤ 25 (nation, partial) rows per
    block.  Revenue is summed in integer cents (floor(x*100+0.5),
    identical double arithmetic in the oracle) so the comparison is
    hash-stable."""
    lineitem = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    )

    def rev_partial(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        cents = money_cents(price * (1 - disc))
        t = pa.table(
            {"l_orderkey": batch.column("l_orderkey"),
             "rev_cents": pa.array(cents, pa.int64())}
        )
        g = t.group_by("l_orderkey").aggregate([("rev_cents", "sum")])
        return pa.table(
            {
                "l_orderkey": g.column("l_orderkey"),
                "rev_cents": g.column("rev_cents_sum"),
            }
        )

    fact = lineitem.map_batches(
        rev_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    joined = repartition_join(
        fact,
        orders,
        "l_orderkey",
        "o_orderkey",
        [("rev_cents", pa.int64())],
        [("o_custkey", pa.int64())],
        how="inner",
    )

    with_nation = auto_equi_join(
        auto_equi_join(
            joined,
            f"{sf_dir}/customer.parquet",
            "o_custkey",
            "c_custkey",
            [("rev_cents", pa.int64())],
            [("c_nationkey", pa.int32())],
        ),
        f"{sf_dir}/nation.parquet",
        "c_nationkey",
        "n_nationkey",
        [("rev_cents", pa.int64())],
        [("n_name", pa.string())],
    )
    out = (
        keyed_aggregate(
            with_nation,
            "n_name",
            {"revenue_cents": ("rev_cents", "sum")},
        )
        .to_pandas()
        .sort_values("n_name")
    )
    return pa.table(
        {
            "n_name": pa.array(out["n_name"], pa.string()),
            "revenue_cents": pa.array(
                out["revenue_cents"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


REVENUE_BY_NATION_SQL = """
SELECT n.n_name,
       CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)
                AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem l
JOIN orders o ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
GROUP BY 1
"""


# -- per-group percent rank --------------------------------------------------


def percent_rank_events(sf_dir: str) -> "ray.data.Dataset":
    """Integer percent-rank of each event's value within its event type:
    ``(rank - 1) * 1000 // (n - 1)`` permille under the deterministic
    order (value, event_id).

    Exact GLOBAL ranks without a global sort and without one giant
    group per type (the naive groupby(event_type) puts 1/|types| of the
    whole corpus in a single task).  Two stages:

    1. A bounded (type, value-bucket) histogram — buckets are integer
       currency units, ``money_cents(v) // 100``, which is monotone in
       v and maps equal values to equal buckets, so exclusive prefix
       sums over buckets are exact global rank offsets.  Histogram size
       is types x value-range — independent of corpus size — so the
       driver-side rollup + broadcast is bounded.
    2. One keyed shuffle co-locating each (type, bucket); a vectorized
       per-partition kernel lexsorts, assigns within-bucket local ranks
       via run boundaries, and adds the broadcast offset.  UDF calls
       number at most min(P, 2 × CPUs); every group a task sees is at
       most one bucket's rows, not one type's."""
    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    # -- stage 1: bounded histogram -> offsets + totals, broadcast once
    def with_bucket(batch: pa.Table) -> pa.Table:
        bucket = money_cents(
            batch.column("value").to_numpy(zero_copy_only=False)
        ) // 100
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "bucket": pa.array(bucket, pa.int64()),
            }
        )

    hist = ensure_columns(
        keyed_aggregate(
            ds.map_batches(with_bucket, batch_format="pyarrow", zero_copy_batch=True),
            ["event_type", "bucket"],
            {"n_part": ("bucket", "count")},
        ).to_pandas(),  # bounded: types x value-range units, not rows
        ["event_type", "bucket", "n_part"],
    ).sort_values(["event_type", "bucket"])
    types = sorted(hist["event_type"].unique())
    tcode = {t: i for i, t in enumerate(types)}
    offsets: dict[tuple[int, int], int] = {}
    denom: dict[int, int] = {}
    for t, sub in hist.groupby("event_type", sort=True):
        counts = sub["n_part"].to_numpy()
        excl = np.r_[0, np.cumsum(counts)[:-1]]
        for bk, off in zip(sub["bucket"].to_numpy(), excl):
            offsets[(tcode[t], int(bk))] = int(off)
        denom[tcode[t]] = max(int(counts.sum()) - 1, 1)
    ref = ray.put((types, offsets, denom))

    # -- stage 2: co-locate (type, bucket), rank locally, add offset
    ntypes = max(len(types), 1)

    def add_key(batch: pa.Table) -> pa.Table:
        bucket = money_cents(
            batch.column("value").to_numpy(zero_copy_only=False)
        ) // 100
        enc = batch.column("event_type").combine_chunks().dictionary_encode()
        dmap = np.array(
            [tcode[t] for t in enc.dictionary.to_pylist()], np.int64
        )
        tc = dmap[enc.indices.to_numpy(zero_copy_only=False)]
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "value": batch.column("value"),
                "tc": pa.array(tc, pa.int64()),
                "bucket": pa.array(bucket, pa.int64()),
                "bkey": pa.array(bucket * ntypes + tc, pa.int64()),
            }
        )

    def rank_part(part: pa.Table) -> pa.Table:
        types_l, offs, den = ray.get(ref)
        tc = part.column("tc").to_numpy(zero_copy_only=False)
        bk = part.column("bucket").to_numpy(zero_copy_only=False)
        v = part.column("value").to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, v, bk, tc))
        tc, bk, eid = tc[order], bk[order], eid[order]
        v = v[order]
        change = (tc[1:] != tc[:-1]) | (bk[1:] != bk[:-1])
        b = np.flatnonzero(np.r_[True, change, True]).astype(np.int64)
        lens = np.diff(b)
        starts = b[:-1]
        # per-run offset/denominator lookups: one per (type, bucket)
        # run — bounded by the histogram size, not by rows.
        off = np.array(
            [offs[(int(tc[s]), int(bk[s]))] for s in starts], np.int64
        )
        dd = np.array([den[int(tc[s])] for s in starts], np.int64)
        local = np.arange(len(tc), dtype=np.int64) - np.repeat(starts, lens)
        rank = local + np.repeat(off, lens)
        pr = rank * 1000 // np.repeat(dd, lens)
        etypes = np.asarray(types_l, dtype=object)[tc]
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "event_type": pa.array(etypes, pa.string()),
                "pr_permille": pa.array(pr, pa.int64()),
            }
        )

    keyed = ds.map_batches(add_key, batch_format="pyarrow", zero_copy_batch=True)
    return partitioned_by_key(keyed, "bkey", rank_part)


PERCENT_RANK_SQL = """
SELECT event_id, event_type,
       (row_number() OVER (PARTITION BY event_type ORDER BY value, event_id)
        - 1) * 1000
       // greatest(count(*) OVER (PARTITION BY event_type) - 1, 1)
           AS pr_permille
FROM events
"""


# -- event throttling (windowed keep-first dedup) ------------------------------

THROTTLE_MINUTES = 10


def event_throttle(sf_dir: str) -> "ray.data.Dataset":
    """Windowed rate-limit dedup over the event stream: at most one event
    per (user, event_type) per fixed 10-minute bucket — the keeper is the
    earliest (ts, event_id).  The dedup flavor a feature-store ingest or
    notification pipeline runs.

    Scale shape: the bucket key is derived vectorized in a narrow
    stage; the only shuffle co-locates each user's rows (user_id % P,
    which contains every (user, type, bucket) group whole), and one
    lexsort kernel per exchange block keeps each group's first row — at
    most min(P, 2 × CPUs) UDF calls instead of one per (user, type,
    bucket) group."""
    win_us = THROTTLE_MINUTES * 60 * 1_000_000

    def add_bucket(batch: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64())
        bucket = pc.multiply(pc.divide(ts, win_us), win_us)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": batch.column("user_id"),
                "event_type": batch.column("event_type"),
                "ts": batch.column("ts"),
                "bucket": pc.cast(bucket, pa.int64()),
            }
        )

    def keep_first_part(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        bucket = part.column("bucket").to_numpy(zero_copy_only=False)
        ts = pc.cast(part.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        # Group on integer type codes (np.unique order is irrelevant —
        # codes only need to separate groups; the keeper order within a
        # group is (ts, event_id)).
        types = np.asarray(part.column("event_type").to_pylist(), dtype=object)
        _, tcode = np.unique(types, return_inverse=True)
        order = np.lexsort((eid, ts, bucket, tcode, uid))
        uid, bucket, tcode = uid[order], bucket[order], tcode[order]
        change = (
            (uid[1:] != uid[:-1])
            | (tcode[1:] != tcode[:-1])
            | (bucket[1:] != bucket[:-1])
        )
        first = order[np.flatnonzero(np.r_[True, change])]
        return pa.table(
            {
                "event_id": pa.array(eid[first], pa.int64()),
                "user_id": pa.array(
                    part.column("user_id").to_numpy(zero_copy_only=False)[first],
                    pa.int64(),
                ),
                "event_type": pa.array(types[first], pa.string()),
                "bucket_start": pa.array(
                    part.column("bucket").to_numpy(zero_copy_only=False)[first],
                    pa.int64(),
                ),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])
    bucketed = ds.map_batches(
        add_bucket, batch_format="pyarrow", zero_copy_batch=True
    )
    return partitioned_by_key(bucketed, "user_id", keep_first_part)


EVENT_THROTTLE_SQL = f"""
WITH b AS (
  SELECT event_id, user_id, event_type, ts,
         (epoch_us(ts) // {THROTTLE_MINUTES * 60 * 1_000_000})
           * {THROTTLE_MINUTES * 60 * 1_000_000} AS bucket_start
  FROM events
)
SELECT event_id, user_id, event_type, CAST(bucket_start AS BIGINT) AS bucket_start
FROM b
QUALIFY row_number() OVER (
  PARTITION BY user_id, event_type, bucket_start ORDER BY ts, event_id) = 1
"""


# -- skew-mitigated (salted) aggregation ---------------------------------------

SALT_BUCKETS = 16


def salted_event_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-event-type count + exact-integer value sum via an explicitly
    SALTED two-stage aggregate — the skew-mitigation pattern for hot keys
    (the north rule calls for explicit skew handling; a web corpus's
    "click" key can be 100x every other key).

    Stage 1 pre-combines per call, then shuffles on (event_type, salt)
    where salt = event_id % SALT_BUCKETS: a hot key's rows spread over
    SALT_BUCKETS reducers instead of one.  Stage 2 re-shuffles only the
    O(#keys x SALT_BUCKETS) stage-1 rows on event_type — a few hundred
    rows at any corpus size.  Values quantize to integer cents row-wise
    (floor(x*100+0.5), the cross-engine-exact convention) so the sum is
    associativity-exact against the SQL oracle."""

    def with_salt(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "salt": pa.array(
                    batch.column("event_id").to_numpy(zero_copy_only=False)
                    % SALT_BUCKETS,
                    pa.int64(),
                ),
                "cents": pa.array(
                    money_cents(batch.column("value").to_numpy(zero_copy_only=False)),
                    pa.int64(),
                ),
            }
        )

    # A NULL event_type is its own group (SQL GROUP BY keeps one), and
    # Arrow's group_by keeps it too.
    salted = keyed_aggregate(
        _read(sf_dir, "events", ["event_id", "event_type", "value"]).map_batches(
            with_salt, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["event_type", "salt"],
        {"n_s": ("cents", "count"), "sum_s": ("cents", "sum")},
    )
    return keyed_aggregate(
        salted,
        "event_type",
        {"n_events": ("n_s", "sum"), "sum_cents": ("sum_s", "sum")},
    )


SALTED_EVENT_STATS_SQL = """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_cents
FROM events GROUP BY event_type
"""


# -- per-user inter-arrival gap statistics -----------------------------------


def user_interarrival(sf_dir: str) -> "ray.data.Dataset":
    """Per-user event inter-arrival stats (gap count / sum / max in
    microseconds) — the burstiness profile rate-limiting and bot
    detection read.  Same shape as sessionize: one shuffle keyed on
    user_id % P, one numpy kernel per exchange block — every user's gap
    stats come from a single sort + masked diff + scatter-reduce, no
    per-user Python call."""
    def gaps_part(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(part.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        b = run_bounds(uid)
        nruns = len(b) - 1
        same = uid[1:] == uid[:-1]
        d = np.diff(ts)[same]  # within-user gaps only
        gidx = (np.cumsum(np.r_[False, ~same]))[1:][same]  # run per gap
        sums = np.zeros(nruns, np.int64)
        np.add.at(sums, gidx, d)
        maxs = np.zeros(nruns, np.int64)
        np.maximum.at(maxs, gidx, d)
        return pa.table(
            {
                "user_id": pa.array(uid[b[:-1]], pa.int64()),
                "n_events": pa.array(np.diff(b), pa.int64()),
                "n_gaps": pa.array(
                    np.bincount(gidx, minlength=nruns).astype(np.int64),
                    pa.int64(),
                ),
                "sum_gap_us": pa.array(sums, pa.int64()),
                "max_gap_us": pa.array(maxs, pa.int64()),
            }
        )

    return partitioned_by_key(
        _read(sf_dir, "events", ["user_id", "ts"]), "user_id", gaps_part
    )


USER_INTERARRIVAL_SQL = """
WITH ordered AS (
  SELECT user_id, ts,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev_ts
  FROM events
)
SELECT user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(count(prev_ts) AS BIGINT) AS n_gaps,
       CAST(COALESCE(sum(epoch_us(ts - prev_ts)), 0) AS BIGINT) AS sum_gap_us,
       CAST(COALESCE(max(epoch_us(ts - prev_ts)), 0) AS BIGINT) AS max_gap_us
FROM ordered GROUP BY user_id
"""


# -- per-group mode (dominant event type) ------------------------------------


def dominant_event_type(sf_dir: str) -> "ray.data.Dataset":
    """Mode per group: each user's most frequent event_type (ties broken
    lexicographically, NULL last as in the oracle).  Two-stage: a keyed
    aggregate counts (user, type) rows, and a partition-vectorized
    per-user argmax picks the winner (one sort kernel per exchange
    block, not one Python call per user) — the raw event stream crosses
    the wire only as pre-aggregated counts."""

    def argmax_part(part: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            part,
            sort_keys=[
                ("user_id", "ascending"),
                ("n", "descending"),
                ("event_type", "ascending"),
            ],
            null_placement="at_end",
        )
        part = part.take(order)
        first = run_bounds(part.column("user_id").to_numpy(zero_copy_only=False))[:-1]
        return pa.table(
            {
                "user_id": part.column("user_id").take(first),
                "event_type": part.column("event_type").take(first),
                "n_events": part.column("n").take(first),
            }
        )

    counts = keyed_aggregate(
        _read(sf_dir, "events", ["user_id", "event_type"]),
        ["user_id", "event_type"],
        {"n": ("user_id", "count")},
    )
    return partitioned_by_key(counts, "user_id", argmax_part)


DOMINANT_EVENT_TYPE_SQL = """
WITH c AS (
  SELECT user_id, event_type, count(*) AS n
  FROM events GROUP BY user_id, event_type
),
r AS (
  SELECT user_id, event_type, n,
         row_number() OVER (
           PARTITION BY user_id ORDER BY n DESC, event_type
         ) AS rn
  FROM c
)
SELECT user_id, event_type, CAST(n AS BIGINT) AS n_events
FROM r WHERE rn = 1
"""


# -- cross-table enrichment: documents x embeddings --------------------------


def label_text_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-label text statistics from joining the documents table to the
    embeddings table (doc_id = vec_id) — the enrichment join a
    curation pipeline runs to profile text volume per cluster/label.
    Large-large, so it goes through the general repartition join (one
    keyed shuffle per side), then a tiny keyed aggregate on label."""
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars"])
    emb = _read(sf_dir, "embeddings", ["vec_id", "label"])
    joined = repartition_join(
        docs,
        emb,
        "doc_id",
        "vec_id",
        [("n_chars", pa.int64())],
        [("label", pa.int64())],
        how="inner",
    )

    return keyed_aggregate(
        joined,
        "label",
        {"n_docs": ("label", "count"), "sum_chars": ("n_chars", "sum")},
    )


LABEL_TEXT_STATS_SQL = """
SELECT CAST(e.label AS BIGINT) AS label,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(d.n_chars) AS BIGINT) AS sum_chars
FROM documents d JOIN embeddings e ON d.doc_id = e.vec_id
GROUP BY e.label
"""


# -- TPC-H Q3-shaped: shipping priority (filter + star join + top-k) ----------

Q3_CUTOFF = "1998-06-01"
_Q3_CUT_US = 896_659_200_000_000  # 1998-06-01T00:00:00Z in epoch micros
Q3_TOPK = 10  # single source of truth for both the Ray default and the SQL


def shipping_priority(sf_dir: str, k: int = Q3_TOPK) -> pa.Table:
    """TPC-H Q3 shape: revenue of not-yet-shipped lineitems for
    BUILDING-segment orders placed before the cutoff, top-k orders by
    revenue.  Plan by side size: the lineitem date filter and the
    revenue pre-combine happen inside the scan batches (the shuffle
    moves one row per (orderkey, block)); orders meet customer through
    the join planner (auto_equi_join: a broadcast probe at tested
    scales) and the segment predicate filters the joined column; the
    fact-fact edge is ONE repartition join; top-k is per-block select_k
    + a bounded driver merge, never a global sort.  Revenue in exact
    integer cents (floor(x*100+0.5), same arithmetic in the oracle)."""
    lineitem = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def rev_partial(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        keep = np.flatnonzero(ship > _Q3_CUT_US)
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)[keep]
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)[keep]
        cents = money_cents(price * (1 - disc))
        t = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey").take(
                    pa.array(keep, pa.int64())
                ),
                "rev_cents": pa.array(cents, pa.int64()),
            }
        )
        g = t.group_by("l_orderkey").aggregate([("rev_cents", "sum")])
        return pa.table(
            {
                "l_orderkey": g.column("l_orderkey"),
                "rev_cents": g.column("rev_cents_sum"),
            }
        )

    fact = lineitem.map_batches(
        rev_partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def order_filter(batch: pa.Table) -> pa.Table:
        date = pc.cast(batch.column("o_orderdate"), pa.int64())
        in_seg = pc.equal(batch.column("c_mktsegment"), "BUILDING")
        mask = pc.and_(in_seg, pc.less(date, _Q3_CUT_US))
        kept = batch.filter(mask)
        return pa.table(
            {
                "o_orderkey": kept.column("o_orderkey"),
                "o_date_us": pc.cast(kept.column("o_orderdate"), pa.int64()),
            }
        )

    orders = auto_equi_join(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        f"{sf_dir}/customer.parquet",
        "o_custkey",
        "c_custkey",
        [("o_orderkey", pa.int64()), ("o_orderdate", pa.timestamp("us"))],
        [("c_mktsegment", pa.string())],
    ).map_batches(order_filter, batch_format="pyarrow", zero_copy_batch=True)

    joined = repartition_join(
        fact,
        orders,
        "l_orderkey",
        "o_orderkey",
        [("rev_cents", pa.int64())],
        [("o_orderkey", pa.int64()), ("o_date_us", pa.int64())],
        how="inner",
    )
    per_order = keyed_aggregate(
        joined,
        "o_orderkey",
        {"revenue_cents": ("rev_cents", "sum"), "date_us": ("o_date_us", "min")},
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            batch,
            k=min(k, batch.num_rows),
            sort_keys=[("revenue_cents", "descending"), ("o_orderkey", "ascending")],
        )
        return batch.take(idx)

    cand = per_order.map_batches(
        local_topk, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    cand = cand.sort_values(
        ["revenue_cents", "o_orderkey"], ascending=[False, True]
    ).head(k)
    return pa.table(
        {
            "o_orderkey": pa.array(cand["o_orderkey"].astype("int64"), pa.int64()),
            "o_orderdate": pa.array(
                cand["date_us"].astype("int64"), pa.timestamp("us")
            ),
            "revenue_cents": pa.array(
                cand["revenue_cents"].astype("int64"), pa.int64()
            ),
        }
    )


SHIPPING_PRIORITY_SQL = f"""
WITH rev AS (
  SELECT l_orderkey,
         CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS revenue_cents
  FROM lineitem
  WHERE l_shipdate > TIMESTAMP '{Q3_CUTOFF}'
  GROUP BY l_orderkey
)
SELECT o.o_orderkey, o.o_orderdate, r.revenue_cents
FROM rev r
JOIN orders o ON r.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
WHERE o.o_orderdate < TIMESTAMP '{Q3_CUTOFF}'
  AND c.c_mktsegment = 'BUILDING'
ORDER BY r.revenue_cents DESC, o.o_orderkey
LIMIT {Q3_TOPK}
"""


# -- TPC-H Q4-shaped: order priority counts via distributed semi join --------


def returned_order_priority(sf_dir: str) -> "ray.data.Dataset":
    """Orders with at least one returned lineitem, counted per order
    priority — the Q4 EXISTS shape.  The probe side collapses to
    distinct orderkeys within each batch before the shuffle; the semi
    mode of the general repartition join does the existence test
    without ever building the joined fan-out; the final count moves
    O(#priorities) partial rows per block."""

    def returned_keys(batch: pa.Table) -> pa.Table:
        keys = pc.filter(
            batch.column("l_orderkey"),
            pc.equal(batch.column("l_returnflag"), "R"),
        )
        return pa.table({"l_orderkey": pc.unique(keys)})

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"]).map_batches(
        returned_keys, batch_format="pyarrow", zero_copy_batch=True
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    semi = repartition_join(
        orders,
        li,
        "o_orderkey",
        "l_orderkey",
        [("o_orderpriority", pa.string())],
        [],
        how="semi",
    )

    return keyed_aggregate(
        semi, "o_orderpriority", {"n_orders": ("o_orderpriority", "count")}
    )


RETURNED_ORDER_PRIORITY_SQL = """
SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders
FROM orders o
WHERE EXISTS (
  SELECT 1 FROM lineitem l
  WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R'
)
GROUP BY o_orderpriority
"""


# -- fact x part dimension: revenue by brand ----------------------------------


def revenue_by_brand(sf_dir: str) -> "ray.data.Dataset":
    """Revenue and item count per part brand: lineitem ⋈ part on partkey
    through the join planner (auto_equi_join: an inner broadcast probe
    at tested scales, never a shuffle of lineitem by partkey); one keyed
    aggregate collapses to the brand grain, its per-call combiner
    keeping the exchange at O(#brands) rows a call.  Revenue in exact
    integer cents, same rule as every pricing operator
    (floor(x*100+0.5))."""

    def cents(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "l_partkey": batch.column("l_partkey"),
                "rev": pa.array(money_cents(price * (1 - disc)), pa.int64()),
            }
        )

    lines = _read(
        sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"]
    ).map_batches(cents, batch_format="pyarrow", zero_copy_batch=True)
    return keyed_aggregate(
        auto_equi_join(
            lines,
            f"{sf_dir}/part.parquet",
            "l_partkey",
            "p_partkey",
            [("rev", pa.int64())],
            [("p_brand", pa.string())],
        ),
        "p_brand",
        {"revenue_cents": ("rev", "sum"), "n_items": ("rev", "count")},
    )


REVENUE_BY_BRAND_SQL = """
SELECT p.p_brand,
       CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_items
FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
GROUP BY p.p_brand
"""


# -- supplier x nation x region dimension chain -------------------------------


def supplier_region_stats(sf_dir: str) -> "ray.data.Dataset":
    """Suppliers and total account balance per region: supplier streamed
    as the fact, the nation→region name chain resolved on the driver
    (50 rows) and broadcast once.  Balance in exact integer cents."""
    import pyarrow.parquet as pq

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    ridx = pc.index_in(
        nation.column("n_regionkey"),
        value_set=region.column("r_regionkey").combine_chunks(),
    )
    # A nation with no region row leaves the chain entirely (inner-join
    # parity): filter it out of the broadcast dim instead of carrying a
    # NULL region name.
    resolved = pc.is_valid(ridx)
    nation_region = pc.filter(
        pc.take(region.column("r_name").combine_chunks(), ridx), resolved
    ).combine_chunks()
    dim_ref = ray.put(
        (
            pc.filter(
                nation.column("n_nationkey").combine_chunks(), resolved
            ).combine_chunks(),
            nation_region,
        )
    )

    def to_region(batch: pa.Table) -> pa.Table:
        keys, names = ray.get(dim_ref)
        idx = pc.index_in(
            pc.cast(batch.column("s_nationkey"), pa.int32()), value_set=keys
        )
        # Inner-join semantics: unmatched nation keys drop, as in the oracle.
        valid = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        keep = np.flatnonzero(valid)
        idx = idx.take(pa.array(keep, pa.int64()))
        bal = batch.column("s_acctbal").to_numpy(zero_copy_only=False)[keep]
        cents = money_cents(bal)
        return pa.table(
            {
                "r_name": pc.take(names, idx),
                "bal": pa.array(cents, pa.int64()),
            }
        )

    return keyed_aggregate(
        _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"]).map_batches(
            to_region, batch_format="pyarrow", zero_copy_batch=True
        ),
        "r_name",
        {"n_suppliers": ("bal", "count"), "balance_cents": ("bal", "sum")},
    )


SUPPLIER_REGION_SQL = """
SELECT r.r_name,
       CAST(count(*) AS BIGINT) AS n_suppliers,
       CAST(sum(CAST(floor(s.s_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS balance_cents
FROM supplier s
JOIN nation n ON s.s_nationkey = n.n_nationkey
JOIN region r ON n.n_regionkey = r.r_regionkey
GROUP BY r.r_name
"""


# -- Z-order (Morton) layout keys ---------------------------------------------

_ZORDER_HOUR_US = 3_600_000_000


def _spread16(x: "np.ndarray") -> "np.ndarray":
    """Interleave zeros between the low 16 bits of x (uint64 in/out) —
    the classic Morton spread."""
    x = x.astype(np.uint64) & np.uint64(0xFFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x33333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x55555555)
    return x


def zorder_keys(sf_dir: str) -> "ray.data.Dataset":
    """Z-order (Morton) layout key per event, interleaving the low 16
    bits of user_id with the low 16 bits of the event's hour bucket —
    the data-layout trick that makes BOTH per-user scans and per-time
    scans read clustered row groups after a repartition/sort by zkey.
    At 100 TB this is the difference between touching every file for a
    (user, time-range) query and touching a handful; the key itself is
    a narrow vectorized map, and any downstream repartition(zkey) is
    one explicit keyed exchange.  Bit math is identical in the oracle
    (a generated sum of shift/mask terms)."""

    def keys(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        hour = (ts // _ZORDER_HOUR_US).astype(np.uint64)
        z = _spread16(u.astype(np.uint64)) | (_spread16(hour) << np.uint64(1))
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "zkey": pa.array(z.astype(np.int64), pa.int64()),
            }
        )

    return _read(sf_dir, "events", ["event_id", "user_id", "ts"]).map_batches(
        keys, batch_format="pyarrow", zero_copy_batch=True
    )


def _zorder_sql() -> str:
    u_terms = " + ".join(
        f"(((user_id >> {i}) & 1) << {2 * i})" for i in range(16)
    )
    h_terms = " + ".join(
        f"(((epoch_us(ts) // {_ZORDER_HOUR_US} >> {i}) & 1) << {2 * i + 1})"
        for i in range(16)
    )
    return f"""
SELECT event_id, CAST({u_terms} + {h_terms} AS BIGINT) AS zkey
FROM events
"""


ZORDER_KEYS_SQL = _zorder_sql()


# -- per-session rows (sessionize with durations) ------------------------------


def session_stats(sf_dir: str) -> "ray.data.Dataset":
    """Per-SESSION rows — sessionize's detailed sibling: each (user,
    session) with its event count and wall duration.  Same single
    shuffle keyed on user_id % P; one kernel per exchange block splits EVERY
    user's stream at once — a session starts at each user boundary or
    same-user gap > 30 min, so session ids are one global cumsum and
    per-session stats are bincount / boundary picks (no per-user
    Python call)."""
    gap_us = SESSION_GAP_MINUTES * 60 * 1_000_000

    def sessions_part(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(part.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        n = len(uid)
        new_user = np.r_[True, uid[1:] != uid[:-1]]
        new_s = new_user | np.r_[False, np.diff(ts) > gap_us]
        sid = np.cumsum(new_s) - 1  # global session index
        n_sessions = int(sid[-1]) + 1 if n else 0
        n_events = np.bincount(sid, minlength=n_sessions).astype(np.int64)
        s_start = np.flatnonzero(new_s)
        s_end = np.r_[s_start[1:] - 1, n - 1] if n else s_start
        # session_no within user: session index minus the user's first
        # session index, + 1.
        user_first_sid = sid[np.flatnonzero(new_user)]
        sess_per_user = np.diff(
            np.r_[user_first_sid, n_sessions]
        )  # sessions per user run (runs are contiguous in sid)
        session_no = (
            np.arange(n_sessions, dtype=np.int64)
            - np.repeat(user_first_sid, sess_per_user)
            + 1
        )
        return pa.table(
            {
                "user_id": pa.array(uid[s_start], pa.int64()),
                "session_no": pa.array(session_no, pa.int64()),
                "n_events": pa.array(n_events, pa.int64()),
                "duration_us": pa.array(ts[s_end] - ts[s_start], pa.int64()),
            }
        )

    return partitioned_by_key(
        _read(sf_dir, "events", ["user_id", "ts"]), "user_id", sessions_part
    )


SESSION_STATS_SQL = f"""
WITH o AS (
  SELECT user_id, ts,
         lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS prev
  FROM events
),
f AS (
  SELECT user_id, ts,
         CASE WHEN prev IS NULL
                OR ts - prev > INTERVAL {SESSION_GAP_MINUTES} MINUTE
              THEN 1 ELSE 0 END AS new_s
  FROM o
),
s AS (
  SELECT user_id, ts,
         sum(new_s) OVER (
           PARTITION BY user_id ORDER BY ts ROWS UNBOUNDED PRECEDING
         ) AS session_no
  FROM f
)
SELECT user_id, CAST(session_no AS BIGINT) AS session_no,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(epoch_us(max(ts) - min(ts)) AS BIGINT) AS duration_us
FROM s GROUP BY user_id, session_no
"""


# -- exact-integer 3-sigma anomaly flags --------------------------------------


def value_outliers(sf_dir: str) -> "ray.data.Dataset":
    """Events whose value is a >3-sigma outlier within its event_type —
    anomaly flagging in EXACT integer arithmetic: z² > 9 rewritten as
    (c·n − s)² > 9·(n·ssq − s²) with c in cents, so no float mean/std
    ever enters and the oracle comparison is hash-stable.

    Two passes: a tiny per-type (n, s, ssq) rollup (combiner shape),
    then the driver turns each type's bound into an integer threshold
    t = isqrt(9·(n·ssq − s²)) + 1 in arbitrary-precision Python ints
    (|x| ≥ t ⟺ x² > B exactly), broadcasts the O(#types) lookup, and a
    narrow second pass flags rows.  The corpus is scanned twice but
    never shuffled."""
    import math

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])

    def squares(batch: pa.Table) -> pa.Table:
        cents = money_cents(
            batch.column("value").to_numpy(zero_copy_only=False)
        )
        # Loud overflow guard: per-batch int64 square-sum must fit; at
        # corpus scale the per-type rollup below re-sums in pandas int64 —
        # switch s/ssq to object (Python int) columns past ~10^14 rows.
        assert (
            len(cents) == 0
            or abs(int(cents.max(initial=0))) < 3_000_000_000
        ), "cents too large for int64 square-sum"
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "c": pa.array(cents, pa.int64()),
                "c2": pa.array(cents * cents, pa.int64()),
            }
        )

    stats = keyed_aggregate(
        ds.map_batches(squares, batch_format="pyarrow", zero_copy_batch=True),
        "event_type",
        {"n": ("c", "count"), "s": ("c", "sum"), "ssq": ("c2", "sum")},
    ).to_pandas()  # bounded: one row per event_type
    lut = {}
    for r in stats.itertuples():
        n, s, ssq = int(r.n), int(r.s), int(r.ssq)
        b = 9 * (n * ssq - s * s)  # Python ints: no overflow
        lut[r.event_type] = (n, s, math.isqrt(b) + 1)
    lut_ref = ray.put(lut)

    def flag(batch: pa.Table) -> pa.Table:
        table = ray.get(lut_ref)
        cents = money_cents(
            batch.column("value").to_numpy(zero_copy_only=False)
        )
        et = batch.column("event_type").to_pylist()
        n = np.fromiter((table[e][0] for e in et), np.int64, len(et))
        s = np.fromiter((table[e][1] for e in et), np.int64, len(et))
        t = np.fromiter((table[e][2] for e in et), np.int64, len(et))
        keep = np.flatnonzero(np.abs(cents * n - s) >= t)
        take = pa.array(keep, pa.int64())
        return pa.table(
            {
                "event_id": batch.column("event_id").take(take),
                "event_type": batch.column("event_type").take(take),
                "cents": pa.array(cents[keep], pa.int64()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


VALUE_OUTLIERS_SQL = """
WITH c AS (
  SELECT event_id, event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
st AS (
  SELECT event_type, count(*) AS n, sum(cents) AS s,
         sum(cents * cents) AS ssq
  FROM c GROUP BY 1
)
SELECT c.event_id, c.event_type, c.cents
FROM c JOIN st USING (event_type)
WHERE (c.cents * st.n - st.s) * (c.cents * st.n - st.s)
      > 9 * (st.n * st.ssq - st.s * st.s)
"""


# -- TPC-H Q14-shaped: promo revenue share per ship month ---------------------


def promo_revenue(sf_dir: str) -> "ray.data.Dataset":
    """Share of revenue from PROMO-type parts per ship month (the Q14
    shape).  lineitem meets part through the join planner
    (auto_equi_join: an inner broadcast probe of p_type at tested
    scales) and the PROMO flag is read off the joined column; the keyed
    aggregate's per-call combiner collapses to the ~84-month grain, so
    the exchange moves a few rows per call no matter how large lineitem
    is.  Revenue in exact integer cents
    (floor(x*100+0.5), the module-wide money rule); the permille share is
    integer floor division so the oracle can mirror it bit-for-bit.
    At a 100-TB lineitem the 1000×total_cents product stays < 2^63 while
    total revenue per month < ~9.2e15 cents (~$92T) — guarded loudly."""

    def revenue_rows(batch: pa.Table) -> pa.Table:
        promo = pc.equal(batch.column("p_type"), "PROMO").to_numpy(
            zero_copy_only=False
        )
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        cents = money_cents(price * (1 - disc))
        ship = batch.column("l_shipdate")
        ym = pc.add(
            pc.multiply(pc.year(ship), pa.scalar(100, pa.int64())),
            pc.month(ship),
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "ym": pa.array(ym, pa.int64()),
                "p_rev": pa.array(np.where(promo, cents, 0), pa.int64()),
                "t_rev": pa.array(cents, pa.int64()),
            }
        )

    rolled = keyed_aggregate(
        auto_equi_join(
            _read(
                sf_dir,
                "lineitem",
                ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
            ),
            f"{sf_dir}/part.parquet",
            "l_partkey",
            "p_partkey",
            [
                ("l_extendedprice", pa.float64()),
                ("l_discount", pa.float64()),
                ("l_shipdate", pa.timestamp("us")),
            ],
            [("p_type", pa.string())],
        ).map_batches(revenue_rows, batch_format="pyarrow", zero_copy_batch=True),
        "ym",
        {"promo_cents": ("p_rev", "sum"), "total_cents": ("t_rev", "sum")},
    )

    def share(batch: pa.Table) -> pa.Table:
        p = batch.column("promo_cents").to_numpy(zero_copy_only=False)
        t = batch.column("total_cents").to_numpy(zero_copy_only=False)
        if t.size and int(t.max()) > (1 << 53):
            raise OverflowError(
                "promo_revenue: monthly revenue_cents too large for an exact "
                "1000x product — switch the share to a per-partial rational"
            )
        return batch.append_column(
            "promo_permille", pa.array((1000 * p) // np.maximum(t, 1), pa.int64())
        )

    return rolled.map_batches(share, batch_format="pyarrow", zero_copy_batch=True)


PROMO_REVENUE_SQL = """
WITH j AS (
  SELECT CAST(year(l.l_shipdate) * 100 + month(l.l_shipdate) AS BIGINT) AS ym,
         CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)
              AS BIGINT) AS cents,
         (p.p_type = 'PROMO') AS promo
  FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
)
SELECT ym,
       CAST(sum(CASE WHEN promo THEN cents ELSE 0 END) AS BIGINT) AS promo_cents,
       CAST(sum(cents) AS BIGINT) AS total_cents,
       CAST((1000 * sum(CASE WHEN promo THEN cents ELSE 0 END))
            // greatest(sum(cents), 1) AS BIGINT) AS promo_permille
FROM j GROUP BY ym
"""


# -- TPC-H Q12-shaped: late shipments by order priority per ship year ---------


def late_shipment_priority(sf_dir: str) -> "ray.data.Dataset":
    """Lines shipped more than 60 days after their order date, split into
    high-priority (1-URGENT / 2-HIGH) vs other order priorities per ship
    year — the Q12 shape over this schema's columns.  orders and
    lineitem are BOTH facts, so the edge is one repartition join on
    orderkey (each row shuffled exactly once); the late predicate needs
    the per-line shipdate against the per-order date so the lineitem
    side cannot pre-collapse, but the keyed aggregate's per-call
    combiner reduces the join output straight to the O(#years) grain."""
    lineitem = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])

    def line_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "ship_us": pc.cast(batch.column("l_shipdate"), pa.int64()),
            }
        )

    def order_prep(batch: pa.Table) -> pa.Table:
        prio = batch.column("o_orderpriority")
        high = pc.is_in(
            prio, value_set=pa.array(["1-URGENT", "2-HIGH"], pa.string())
        )
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "order_us": pc.cast(batch.column("o_orderdate"), pa.int64()),
                "high": pc.cast(high, pa.int8()),
            }
        )

    joined = repartition_join(
        lineitem.map_batches(line_prep, batch_format="pyarrow", zero_copy_batch=True),
        _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
        .map_batches(order_prep, batch_format="pyarrow", zero_copy_batch=True),
        "l_orderkey",
        "o_orderkey",
        [("ship_us", pa.int64())],
        [("order_us", pa.int64()), ("high", pa.int8())],
        how="inner",
    )

    _LATE_US = 60 * 86_400_000_000  # 60 days in microseconds

    def late_rows(batch: pa.Table) -> pa.Table:
        ship = batch.column("ship_us").to_numpy(zero_copy_only=False)
        order = batch.column("order_us").to_numpy(zero_copy_only=False)
        high = batch.column("high").to_numpy(zero_copy_only=False)
        late = np.flatnonzero(ship > order + _LATE_US)
        yr = (ship[late].astype("datetime64[us]").astype("datetime64[Y]")
              .astype(np.int64) + 1970)
        h = high[late].astype(np.int64)
        return pa.table(
            {
                "ship_year": pa.array(yr, pa.int64()),
                "h": pa.array(h, pa.int64()),
                "l": pa.array(1 - h, pa.int64()),
            }
        )

    return keyed_aggregate(
        joined.map_batches(late_rows, batch_format="pyarrow", zero_copy_batch=True),
        "ship_year",
        {"high_line_count": ("h", "sum"), "low_line_count": ("l", "sum")},
    )


LATE_SHIPMENT_SQL = """
SELECT CAST(year(l.l_shipdate) AS BIGINT) AS ship_year,
       CAST(sum(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
       CAST(sum(CASE WHEN o.o_orderpriority IN ('1-URGENT', '2-HIGH')
                     THEN 0 ELSE 1 END) AS BIGINT) AS low_line_count
FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
WHERE l.l_shipdate > o.o_orderdate + INTERVAL 60 DAY
GROUP BY 1
"""


# -- TPC-H Q6-shaped: filtered scalar revenue aggregate -----------------------


def discount_revenue(sf_dir: str) -> "ray.data.Dataset":
    """Potential revenue from mid-discount small-quantity 1997 shipments
    (the Q6 forecasting shape): a pure filter + scalar aggregate with
    every predicate pushed into the scan batches — no shuffle at all;
    the driver sees one partial row per block.  The discount band
    compares on floor(d*100+0.5) integer percent so the oracle's
    predicate is bit-identical (raw float BETWEEN is representation-
    dependent); revenue = sum(price * discount) in exact integer cents."""

    def partial(batch: pa.Table) -> pa.Table:
        yr = pc.year(batch.column("l_shipdate")).to_numpy(zero_copy_only=False)
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        pct = money_cents(disc)
        keep = (yr == 1997) & (qty < 24) & (pct >= 5) & (pct <= 7)
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)[keep]
        cents = money_cents(price * disc[keep])
        return pa.table(
            {
                "r": pa.array([int(cents.sum())], pa.int64()),
                "n": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "revenue_cents": pa.array(
                    [int(batch.column("r").to_numpy().sum())], pa.int64()
                ),
                "n_lines": pa.array(
                    [int(batch.column("n").to_numpy().sum())], pa.int64()
                ),
            }
        )

    partials = _read(
        sf_dir,
        "lineitem",
        ["l_shipdate", "l_quantity", "l_discount", "l_extendedprice"],
    ).map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    # O(#blocks) partial rows collapse on one node; at any scale this is
    # a few int64s per block, so repartition(1) moves kilobytes.
    return partials.repartition(1).map_batches(
        finalize, batch_format="pyarrow", zero_copy_batch=True
    )


DISCOUNT_REVENUE_SQL = """
SELECT CAST(sum(CAST(floor(l_extendedprice * l_discount * 100 + 0.5)
                     AS BIGINT)) AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_lines
FROM lineitem
WHERE year(l_shipdate) = 1997
  AND l_quantity < 24
  AND CAST(floor(l_discount * 100 + 0.5) AS BIGINT) BETWEEN 5 AND 7
"""


# -- TPC-H Q10-shaped: top customers by returned-item revenue -----------------


def returned_customers(sf_dir: str, k: int = 20) -> pa.Table:
    """Top-k customers by revenue on returned lineitems (the Q10 shape):
    the returnflag filter and a per-(orderkey, block) revenue combine
    happen inside the lineitem scan; the lineitem→orders edge is one
    repartition join (both facts); the per-customer rollup is a keyed
    aggregate; top-k is per-block select_k + an O(k·blocks) driver
    merge — never a global sort, never a full to_pandas; the k winners'
    customer and nation names come from a read of just those k customer
    rows (parquet filter pushdown)."""
    import pyarrow.parquet as pq

    def rev_partial(batch: pa.Table) -> pa.Table:
        flag = pc.equal(batch.column("l_returnflag"), "R")
        kept = batch.filter(flag)
        price = kept.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = kept.column("l_discount").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "l_orderkey": kept.column("l_orderkey"),
                "rev": pa.array(money_cents(price * (1 - disc)), pa.int64()),
            }
        )
        g = t.group_by("l_orderkey").aggregate([("rev", "sum")])
        return pa.table(
            {"l_orderkey": g.column("l_orderkey"), "rev": g.column("rev_sum")}
        )

    fact = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    ).map_batches(rev_partial, batch_format="pyarrow", zero_copy_batch=True)

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    per_cust = keyed_aggregate(
        repartition_join(
            fact,
            orders,
            "l_orderkey",
            "o_orderkey",
            [("rev", pa.int64())],
            [("o_custkey", pa.int64())],
            how="inner",
        ),
        "o_custkey",
        {"revenue_cents": ("rev", "sum")},
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            batch,
            k=min(k, batch.num_rows),
            sort_keys=[("revenue_cents", "descending"), ("o_custkey", "ascending")],
        )
        return batch.take(idx)

    cand = (
        per_cust.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
        .sort_values(["revenue_cents", "o_custkey"], ascending=[False, True])
        .head(k)
    )
    keys = pa.array(cand["o_custkey"].astype("int64"), pa.int64())
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
        filters=[("c_custkey", "in", keys.to_pylist())],
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    took = pc.index_in(keys, value_set=cust.column("c_custkey"))
    nidx = pc.index_in(
        pc.take(cust.column("c_nationkey"), took),
        value_set=nation.column("n_nationkey"),
    )
    return pa.table(
        {
            "c_custkey": keys,
            "c_name": pc.take(cust.column("c_name"), took),
            "n_name": pc.take(nation.column("n_name"), nidx),
            "revenue_cents": pa.array(
                cand["revenue_cents"].astype("int64"), pa.int64()
            ),
        }
    )


RETURNED_CUSTOMERS_SQL = """
WITH rev AS (
  SELECT o.o_custkey,
         CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS revenue_cents
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
  WHERE l.l_returnflag = 'R'
  GROUP BY o.o_custkey
)
SELECT c.c_custkey, c.c_name, n.n_name, r.revenue_cents
FROM rev r
JOIN customer c ON r.o_custkey = c.c_custkey
JOIN nation n ON c.c_nationkey = n.n_nationkey
ORDER BY r.revenue_cents DESC, c.c_custkey
LIMIT 20
"""


# -- daily active users (exact distinct per window) ---------------------------


def daily_active_users(sf_dir: str) -> "ray.data.Dataset":
    """Per-day activity rollup with EXACT distinct users: the classic DAU
    report.  Exact distinct at scale = two keyed aggregates: one on
    (day, user) deduplicates globally, then one on day reduces to the
    O(#days) result — user rows are never collected anywhere.  Each
    pre-combines per call, so duplicate (day, user) pairs collapse
    before the exchange."""

    def day_rows(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "day": pc.floor_temporal(batch.column("ts"), unit="day"),
                "user_id": batch.column("user_id"),
                "p": pc.cast(
                    pc.equal(batch.column("event_type"), "purchase"), pa.int64()
                ),
            }
        )

    per_user = keyed_aggregate(
        _read(sf_dir, "events", ["ts", "user_id", "event_type"]).map_batches(
            day_rows, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["day", "user_id"],
        {"n": ("p", "count"), "p": ("p", "sum")},
    )
    return keyed_aggregate(
        per_user,
        "day",
        {
            "n_users": ("n", "count"),
            "n_events": ("n", "sum"),
            "n_purchases": ("p", "sum"),
        },
    )


DAILY_ACTIVE_USERS_SQL = """
SELECT date_trunc('day', ts) AS day,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
            AS BIGINT) AS n_purchases
FROM events GROUP BY 1
"""


# -- referential-integrity audit (orphan foreign keys) -------------------------


def fk_violations(sf_dir: str) -> pa.Table:
    """Data-quality audit: count of foreign-key orphans on each edge of
    the schema (lineitems whose order is missing, orders whose customer
    is missing, events whose user has no customer row).  Each edge is
    one distributed anti join: the fact side pre-collapses to one
    (key, multiplicity) row per distinct key per block, the repartition
    anti join drops matched keys inside each hash partition, and only
    per-block partial sums reach the driver — at any corpus size the
    driver sees O(#blocks) int64s per edge."""

    def _orphans(left: "ray.data.Dataset", lkey: str, right: "ray.data.Dataset",
                 rkey: str) -> int:
        def collapse(batch: pa.Table) -> pa.Table:
            t = pa.table(
                {
                    "k": pc.cast(batch.column(lkey), pa.int64()),
                    "n": pa.array(np.ones(batch.num_rows, np.int64)),
                }
            )
            g = t.group_by("k").aggregate([("n", "sum")])
            return g.rename_columns(["k", "n"])

        anti = repartition_join(
            left.map_batches(collapse, batch_format="pyarrow", zero_copy_batch=True),
            right,
            "k",
            rkey,
            [("n", pa.int64())],
            [],
            how="anti",
        )
        return int(anti.sum("n") or 0)

    rows = [
        (
            "lineitem_orders",
            _orphans(
                _read(sf_dir, "lineitem", ["l_orderkey"]),
                "l_orderkey",
                _read(sf_dir, "orders", ["o_orderkey"]),
                "o_orderkey",
            ),
        ),
        (
            "orders_customer",
            _orphans(
                _read(sf_dir, "orders", ["o_custkey"]),
                "o_custkey",
                _read(sf_dir, "customer", ["c_custkey"]),
                "c_custkey",
            ),
        ),
        (
            "events_customer",
            _orphans(
                _read(sf_dir, "events", ["user_id"]),
                "user_id",
                _read(sf_dir, "customer", ["c_custkey"]),
                "c_custkey",
            ),
        ),
    ]
    return pa.table(
        {
            "relation": pa.array([r for r, _ in rows], pa.string()),
            "n_orphans": pa.array([n for _, n in rows], pa.int64()),
        }
    )


FK_VIOLATIONS_SQL = """
SELECT 'lineitem_orders' AS relation, CAST(count(*) AS BIGINT) AS n_orphans
FROM lineitem l
WHERE NOT EXISTS (SELECT 1 FROM orders o WHERE o.o_orderkey = l.l_orderkey)
UNION ALL
SELECT 'orders_customer', CAST(count(*) AS BIGINT)
FROM orders o
WHERE NOT EXISTS (SELECT 1 FROM customer c WHERE c.c_custkey = o.o_custkey)
UNION ALL
SELECT 'events_customer', CAST(count(*) AS BIGINT)
FROM events e
WHERE NOT EXISTS (SELECT 1 FROM customer c WHERE c.c_custkey = e.user_id)
"""


# -- order header vs line-total reconciliation --------------------------------


def order_reconciliation(sf_dir: str) -> "ray.data.Dataset":
    """Financial-reconciliation audit: compare each order header's
    o_totalprice against the sum of its lines' charges
    (price·(1−discount)·(1+tax)), in exact integer cents, and report the
    mismatch histogram — exact matches, within-1%, and beyond.  The line
    side pre-collapses to one (orderkey, sum) row per block, the
    header-line edge is one repartition join, and the verdict buckets
    reduce per batch to three counters, so the driver sees O(blocks)
    int64s regardless of order count."""

    def line_partial(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        tax = batch.column("l_tax").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "line_cents": pa.array(
                    money_cents(price * (1 - disc) * (1 + tax)), pa.int64()
                ),
            }
        )
        g = t.group_by("l_orderkey").aggregate([("line_cents", "sum")])
        return g.rename_columns(["l_orderkey", "line_cents"])

    lines = _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_extendedprice", "l_discount", "l_tax"],
    ).map_batches(line_partial, batch_format="pyarrow", zero_copy_batch=True)

    def order_prep(batch: pa.Table) -> pa.Table:
        total = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "total_cents": pa.array(money_cents(total), pa.int64()),
            }
        )

    joined = keyed_aggregate(
        repartition_join(
            lines,
            _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"]).map_batches(
                order_prep, batch_format="pyarrow", zero_copy_batch=True
            ),
            "l_orderkey",
            "o_orderkey",
            [("l_orderkey", pa.int64()), ("line_cents", pa.int64())],
            [("total_cents", pa.int64())],
            how="inner",
        ),
        "l_orderkey",
        {"line_cents": ("line_cents", "sum"), "total_cents": ("total_cents", "max")},
    )

    def verdict_partial(batch: pa.Table) -> pa.Table:
        line = batch.column("line_cents").to_numpy(zero_copy_only=False)
        total = batch.column("total_cents").to_numpy(zero_copy_only=False)
        delta = np.abs(line - total)
        exact = delta == 0
        # within 1% of the header total (integer comparison: 100·Δ ≤ total)
        close = (~exact) & (100 * delta <= total)
        return pa.table(
            {
                "n_orders": pa.array([len(line)], pa.int64()),
                "n_exact": pa.array([int(exact.sum())], pa.int64()),
                "n_within_1pct": pa.array([int(close.sum())], pa.int64()),
                "n_beyond": pa.array([int((~exact & ~close).sum())], pa.int64()),
                "sum_abs_delta_cents": pa.array([int(delta.sum())], pa.int64()),
            }
        )

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                name: pa.array(
                    [int(batch.column(name).to_numpy().sum())], pa.int64()
                )
                for name in batch.column_names
            }
        )

    return (
        joined.map_batches(
            verdict_partial, batch_format="pyarrow", zero_copy_batch=True
        )
        .repartition(1)
        .map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)
    )


ORDER_RECONCILIATION_SQL = """
WITH lines AS (
  SELECT l_orderkey,
         CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * (1 + l_tax)
                             * 100 + 0.5) AS BIGINT)) AS BIGINT) AS line_cents
  FROM lineitem GROUP BY 1
),
j AS (
  SELECT l.line_cents,
         CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT) AS total_cents,
         abs(l.line_cents - CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT))
             AS delta
  FROM lines l JOIN orders o ON l.l_orderkey = o.o_orderkey
)
SELECT CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CASE WHEN delta = 0 THEN 1 ELSE 0 END) AS BIGINT) AS n_exact,
       CAST(sum(CASE WHEN delta > 0 AND 100 * delta <= total_cents
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_within_1pct,
       CAST(sum(CASE WHEN delta > 0 AND 100 * delta > total_cents
                     THEN 1 ELSE 0 END) AS BIGINT) AS n_beyond,
       CAST(sum(delta) AS BIGINT) AS sum_abs_delta_cents
FROM j
"""


# -- TPC-H Q15-shaped: top supplier(s) by windowed revenue ---------------------

_Q15_LO = "1996-01-01"
_Q15_HI = "1996-04-01"


def top_suppliers(sf_dir: str) -> pa.Table:
    """Supplier(s) with the maximum revenue over a 3-month ship window —
    the Q15 global-stat-then-filter shape.  Per-supplier revenue is a
    keyed aggregate of the in-window lines (bounded by supplier count, a
    dimension); the global max is a scalar aggregate over that bounded
    table; the winners (ties kept, like Q15's view) take their names
    from a read of just those supplier rows (parquet filter pushdown)."""
    import pyarrow.parquet as pq

    lo = np.datetime64(_Q15_LO, "us").astype(np.int64)
    hi = np.datetime64(_Q15_HI, "us").astype(np.int64)

    def window_revenue(batch: pa.Table) -> pa.Table:
        ship = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        keep = np.flatnonzero((ship >= lo) & (ship < hi))
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)[keep]
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)[keep]
        return pa.table(
            {
                "s_suppkey": batch.column("l_suppkey").take(
                    pa.array(keep, pa.int64())
                ),
                "rev": pa.array(money_cents(price * (1 - disc)), pa.int64()),
            }
        )

    per_supp = keyed_aggregate(
        _read(
            sf_dir,
            "lineitem",
            ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        ).map_batches(window_revenue, batch_format="pyarrow", zero_copy_batch=True),
        "s_suppkey",
        {"revenue_cents": ("rev", "sum")},
    ).materialize()  # consumed twice: max scan + winner filter
    best = per_supp.max("revenue_cents")

    def winners_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("revenue_cents"), best))

    winners = per_supp.map_batches(
        winners_only, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()

    keys = pa.array(winners["s_suppkey"].astype("int64"), pa.int64())
    supp = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", keys.to_pylist())],
    )
    idx = pc.index_in(keys, value_set=supp.column("s_suppkey"))
    return pa.table(
        {
            "s_suppkey": keys,
            "s_name": pc.take(supp.column("s_name"), idx),
            "revenue_cents": pa.array(
                winners["revenue_cents"].astype("int64"), pa.int64()
            ),
        }
    )


TOP_SUPPLIERS_SQL = f"""
WITH rev AS (
  SELECT l_suppkey AS s_suppkey,
         CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS revenue_cents
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{_Q15_LO}'
    AND l_shipdate < TIMESTAMP '{_Q15_HI}'
  GROUP BY 1
)
SELECT s.s_suppkey, s.s_name, r.revenue_cents
FROM rev r JOIN supplier s ON r.s_suppkey = s.s_suppkey
WHERE r.revenue_cents = (SELECT max(revenue_cents) FROM rev)
"""


# -- TPC-H Q18-shaped: large-volume orders -------------------------------------

_Q18_QTY_X100 = 30000  # sum(l_quantity) > 300, in exact x100 fixed-point


def large_orders(sf_dir: str) -> "ray.data.Dataset":
    """Orders whose total line quantity exceeds 300 units, with customer
    and order detail — the Q18 groupby-HAVING-then-join-back shape.
    Quantity partials combine in-scan to (orderkey, block) grain; the
    HAVING filter runs inside the keyed rollup's groups so only
    qualifying orders (rare by construction) ever reach the joins; the
    order/customer detail attaches via one repartition join plus the
    join planner's customer join (auto_equi_join: a broadcast probe at
    tested scales)."""

    def qty_partial(batch: pa.Table) -> pa.Table:
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "q": pa.array(money_cents(qty), pa.int64()),
            }
        )
        g = t.group_by("l_orderkey").aggregate([("q", "sum")])
        return g.rename_columns(["l_orderkey", "q"])

    def having_kernel(part: pa.Table) -> pa.Table:
        """Per-block sum + HAVING: the per-orderkey rollup runs as one
        reduceat kernel per exchange block, at most min(P, 2 × CPUs)
        calls."""
        k = part.column("l_orderkey").to_numpy(zero_copy_only=False)
        q = part.column("q").to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, q = k[order], q[order]
        b = run_bounds(k)
        sums = np.add.reduceat(q, b[:-1])
        keys = k[b[:-1]]
        keep = sums > _Q18_QTY_X100
        return pa.table(
            {
                "l_orderkey": pa.array(keys[keep], pa.int64()),
                "sum_qty_x100": pa.array(sums[keep], pa.int64()),
            }
        )

    big = partitioned_by_key(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
            qty_partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        "l_orderkey",
        having_kernel,
    )

    def order_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey"),
                "o_custkey": batch.column("o_custkey"),
                "o_date_us": pc.cast(batch.column("o_orderdate"), pa.int64()),
                "total_cents": pa.array(
                    money_cents(
                        batch.column("o_totalprice").to_numpy(zero_copy_only=False)
                    ),
                    pa.int64(),
                ),
            }
        )

    left_cols = [("l_orderkey", pa.int64()), ("sum_qty_x100", pa.int64())]
    order_cols = [
        ("o_custkey", pa.int64()),
        ("o_date_us", pa.int64()),
        ("total_cents", pa.int64()),
    ]
    joined = repartition_join(
        big,
        _read(
            sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
        ).map_batches(order_prep, batch_format="pyarrow", zero_copy_batch=True),
        "l_orderkey",
        "o_orderkey",
        left_cols,
        order_cols,
        how="inner",
    )
    named = auto_equi_join(
        joined,
        f"{sf_dir}/customer.parquet",
        "o_custkey",
        "c_custkey",
        left_cols + order_cols,
        [("c_name", pa.string())],
    )

    def to_output(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": batch.column("l_orderkey"),
                "c_custkey": batch.column("o_custkey"),
                "c_name": batch.column("c_name"),
                "o_orderdate": pc.cast(
                    batch.column("o_date_us"), pa.timestamp("us")
                ),
                "o_totalprice_cents": batch.column("total_cents"),
                "sum_qty_x100": batch.column("sum_qty_x100"),
            }
        )

    return named.map_batches(to_output, batch_format="pyarrow", zero_copy_batch=True)


LARGE_ORDERS_SQL = f"""
WITH big AS (
  SELECT l_orderkey,
         CAST(sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) AS BIGINT)
             AS sum_qty_x100
  FROM lineitem GROUP BY 1
  HAVING sum(CAST(floor(l_quantity * 100 + 0.5) AS BIGINT)) > {_Q18_QTY_X100}
)
SELECT b.l_orderkey AS o_orderkey,
       c.c_custkey, c.c_name, o.o_orderdate,
       CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT) AS o_totalprice_cents,
       b.sum_qty_x100
FROM big b
JOIN orders o ON b.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
"""


# -- TPC-H Q22-shaped: above-average-balance customers with no orders ----------


def idle_rich_customers(sf_dir: str) -> "ray.data.Dataset":
    """Per-nation count and balance of customers whose account balance
    beats the positive-balance average but who show no activity (no
    events) — the Q22 shape: a global scalar (computed as an exact
    integer floor-mean over in-scan partials) broadcast into the
    filter, then a distributed anti join against the activity fact,
    then an O(#nations) rollup.  (The anti side is events rather than
    orders because this synthetic schema gives every customer an
    order — the orders variant is shape-identical.)"""

    def bal_partial(batch: pa.Table) -> pa.Table:
        cents = money_cents(
            batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        )
        pos = cents[cents > 0]
        return pa.table(
            {
                "s": pa.array([int(pos.sum())], pa.int64()),
                "n": pa.array([len(pos)], pa.int64()),
            }
        )

    parts = (
        _read(sf_dir, "customer", ["c_acctbal"])
        .map_batches(bal_partial, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    total, n = int(parts["s"].sum()), int(parts["n"].sum())
    avg_cents = total // max(n, 1)  # exact integer floor mean, mirrored in SQL

    def rich(batch: pa.Table) -> pa.Table:
        cents = money_cents(
            batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        )
        keep = np.flatnonzero(cents > avg_cents)
        take = pa.array(keep, pa.int64())
        return pa.table(
            {
                "c_custkey": batch.column("c_custkey").take(take),
                "nationkey": pc.cast(
                    batch.column("c_nationkey").take(take), pa.int64()
                ),
                "bal_cents": pa.array(cents[keep], pa.int64()),
            }
        )

    rich_ds = _read(
        sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"]
    ).map_batches(rich, batch_format="pyarrow", zero_copy_batch=True)

    def distinct_users(batch: pa.Table) -> pa.Table:
        # Match-existence only: collapse the activity fact to per-block
        # distinct keys so the anti join shuffles users, not events.
        return pa.table({"user_id": pc.unique(batch.column("user_id"))})

    idle = repartition_join(
        rich_ds,
        _read(sf_dir, "events", ["user_id"]).map_batches(
            distinct_users, batch_format="pyarrow", zero_copy_batch=True
        ),
        "c_custkey",
        "user_id",
        [("nationkey", pa.int64()), ("bal_cents", pa.int64())],
        [],
        how="anti",
    )

    return keyed_aggregate(
        idle,
        "nationkey",
        {"n_custs": ("bal_cents", "count"), "total_bal_cents": ("bal_cents", "sum")},
    )


IDLE_RICH_SQL = """
WITH c AS (
  SELECT c_custkey, CAST(c_nationkey AS BIGINT) AS nationkey,
         CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS bal_cents
  FROM customer
),
avgpos AS (
  SELECT CAST(sum(bal_cents) // count(*) AS BIGINT) AS avg_cents
  FROM c WHERE bal_cents > 0
)
SELECT c.nationkey,
       CAST(count(*) AS BIGINT) AS n_custs,
       CAST(sum(c.bal_cents) AS BIGINT) AS total_bal_cents
FROM c CROSS JOIN avgpos
WHERE c.bal_cents > avgpos.avg_cents
  AND NOT EXISTS (SELECT 1 FROM events e WHERE e.user_id = c.c_custkey)
GROUP BY c.nationkey
"""


# -- winsorized per-group statistics -------------------------------------------

_WINSOR_LO_PM = 50   # p05
_WINSOR_HI_PM = 950  # p95


def winsorized_stats(sf_dir: str) -> pa.Table:
    """Per-event-type winsorized value statistics: exact p05/p95 bounds
    per group via the distinct-value-count reduction (driver state = one
    row per distinct (type, cents), bounded by value cardinality), then
    the bounds broadcast into a clipping pass that one keyed aggregate
    collapses to the O(#types) grain.  The outlier-robust mean every
    metrics pipeline wants, in exact integer arithmetic end to end."""

    def with_cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "cents": pa.array(
                    money_cents(
                        batch.column("value").to_numpy(zero_copy_only=False)
                    ),
                    pa.int64(),
                ),
            }
        )

    counts = (
        keyed_aggregate(
            _read(sf_dir, "events", ["event_type", "value"]).map_batches(
                with_cents, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["event_type", "cents"],
            {"cnt": ("cents", "count")},
        )
        .to_pandas()
        .sort_values(["event_type", "cents"])
    )
    bounds: dict[str, tuple[int, int]] = {}
    for etype, grp in counts.groupby("event_type"):
        vals = grp["cents"].to_numpy()
        cum = np.cumsum(grp["cnt"].to_numpy())
        bounds[str(etype)] = (
            quantile_disc_pick(vals, cum, _WINSOR_LO_PM),
            quantile_disc_pick(vals, cum, _WINSOR_HI_PM),
        )
    bounds_ref = ray.put(bounds)

    def clipped_rows(batch: pa.Table) -> pa.Table:
        b = ray.get(bounds_ref)
        etypes = batch.column("event_type")
        cents = money_cents(batch.column("value").to_numpy(zero_copy_only=False))
        uniq = pc.unique(etypes)
        lo = np.empty(len(cents), np.int64)
        hi = np.empty(len(cents), np.int64)
        codes = pc.index_in(etypes, value_set=uniq).to_numpy(zero_copy_only=False)
        lo_by = np.array([b[str(u)][0] for u in uniq.to_pylist()], np.int64)
        hi_by = np.array([b[str(u)][1] for u in uniq.to_pylist()], np.int64)
        lo = lo_by[codes]
        hi = hi_by[codes]
        clipped = np.clip(cents, lo, hi)
        return pa.table({"event_type": etypes, "s": pa.array(clipped, pa.int64())})

    rolled = keyed_aggregate(
        _read(sf_dir, "events", ["event_type", "value"]).map_batches(
            clipped_rows, batch_format="pyarrow", zero_copy_batch=True
        ),
        "event_type",
        {"s": ("s", "sum"), "n": ("s", "count")},
    ).to_pandas()
    etypes = rolled["event_type"].tolist()
    return pa.table(
        {
            "event_type": pa.array(etypes, pa.string()),
            "lo_cents": pa.array([bounds[e][0] for e in etypes], pa.int64()),
            "hi_cents": pa.array([bounds[e][1] for e in etypes], pa.int64()),
            "n_events": pa.array(rolled["n"].astype("int64"), pa.int64()),
            "winsorized_mean_cents": pa.array(
                (
                    rolled["s"].astype("int64")
                    // rolled["n"].astype("int64").clip(lower=1)
                ),
                pa.int64(),
            ),
        }
    )


WINSORIZED_STATS_SQL = f"""
WITH c AS (
  SELECT event_type, CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
b AS (
  SELECT event_type,
         quantile_disc(cents, {_WINSOR_LO_PM / 1000.0}) AS lo_cents,
         quantile_disc(cents, {_WINSOR_HI_PM / 1000.0}) AS hi_cents
  FROM c GROUP BY 1
)
SELECT c.event_type, b.lo_cents, b.hi_cents,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(least(greatest(c.cents, b.lo_cents), b.hi_cents))
            // count(*) AS BIGINT) AS winsorized_mean_cents
FROM c JOIN b USING (event_type)
GROUP BY c.event_type, b.lo_cents, b.hi_cents
"""


# -- robust (MAD) outlier flags ------------------------------------------------


def mad_outliers(sf_dir: str) -> "ray.data.Dataset":
    """Robust per-type outlier flags: |x − median| > 3·MAD, the
    median-absolute-deviation rule that survives the heavy tails a
    3-sigma z-score drowns in (compare value_outliers).  Three passes,
    all bounded: per-type medians via the distinct-value-count reduction
    (driver state = distinct cents per type, value-cardinality bounded),
    a second identical reduction over |x − median|, then a vectorized
    broadcast-threshold scan.  quantile_disc's lower-median rule keeps
    every quantity an exact integer — the oracle mirrors it with
    quantile_disc(0.5)."""

    def _grouped_median(vc: "pd.DataFrame", val_col: str) -> dict[str, int]:
        meds: dict[str, int] = {}
        for etype, grp in vc.groupby("event_type"):
            grp = grp.sort_values(val_col)
            cum = np.cumsum(grp["cnt"].to_numpy())
            meds[str(etype)] = quantile_disc_pick(
                grp[val_col].to_numpy(), cum, 500
            )
        return meds

    def with_cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "cents": pa.array(
                    money_cents(
                        batch.column("value").to_numpy(zero_copy_only=False)
                    ),
                    pa.int64(),
                ),
            }
        )

    ds = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    vc1 = keyed_aggregate(
        _read(sf_dir, "events", ["event_type", "value"]).map_batches(
            with_cents, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["event_type", "cents"],
        {"cnt": ("cents", "count")},
    ).to_pandas()
    med = _grouped_median(vc1, "cents")
    med_ref = ray.put(med)

    def with_dev(batch: pa.Table) -> pa.Table:
        m = ray.get(med_ref)
        etypes = batch.column("event_type")
        cents = money_cents(batch.column("value").to_numpy(zero_copy_only=False))
        uniq = pc.unique(etypes)
        codes = pc.index_in(etypes, value_set=uniq).to_numpy(zero_copy_only=False)
        med_by = np.array([m[str(u)] for u in uniq.to_pylist()], np.int64)
        dev = np.abs(cents - med_by[codes])
        return pa.table({"event_type": etypes, "cents": pa.array(dev, pa.int64())})

    vc2 = keyed_aggregate(
        _read(sf_dir, "events", ["event_type", "value"]).map_batches(
            with_dev, batch_format="pyarrow", zero_copy_batch=True
        ),
        ["event_type", "cents"],
        {"cnt": ("cents", "count")},
    ).to_pandas()
    mad = _grouped_median(vc2, "cents")
    thr_ref = ray.put({k: (med[k], 3 * mad[k]) for k in med})

    def flag(batch: pa.Table) -> pa.Table:
        thr = ray.get(thr_ref)
        etypes = batch.column("event_type")
        cents = money_cents(batch.column("value").to_numpy(zero_copy_only=False))
        uniq = pc.unique(etypes)
        codes = pc.index_in(etypes, value_set=uniq).to_numpy(zero_copy_only=False)
        med_by = np.array([thr[str(u)][0] for u in uniq.to_pylist()], np.int64)
        lim_by = np.array([thr[str(u)][1] for u in uniq.to_pylist()], np.int64)
        keep = np.flatnonzero(np.abs(cents - med_by[codes]) > lim_by[codes])
        take = pa.array(keep, pa.int64())
        return pa.table(
            {
                "event_id": batch.column("event_id").take(take),
                "event_type": etypes.take(take),
                "cents": pa.array(cents[keep], pa.int64()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


MAD_OUTLIERS_SQL = """
WITH c AS (
  SELECT event_id, event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents
  FROM events
),
med AS (
  SELECT event_type, quantile_disc(cents, 0.5) AS m FROM c GROUP BY 1
),
mad AS (
  SELECT c.event_type, quantile_disc(abs(c.cents - med.m), 0.5) AS mad
  FROM c JOIN med USING (event_type) GROUP BY 1
)
SELECT c.event_id, c.event_type, c.cents
FROM c JOIN med USING (event_type) JOIN mad USING (event_type)
WHERE abs(c.cents - med.m) > 3 * mad.mad
"""


# -- semi-structured JSON property extraction ----------------------------------


def props_extract(sf_dir: str) -> "ray.data.Dataset":
    """Per-event-type rollup of a field parsed out of the JSON `props`
    column — the semi-structured-payload step every event pipeline has.
    Extraction is a VECTORIZED RE2 pass (pyarrow extract_regex), never
    json.loads in a Python row loop; unparseable rows drop like the
    oracle's NULLIF-CAST; one keyed aggregate collapses to the
    O(#types) grain."""

    _PAT = r'"k":\s*(?P<k>\d+)'

    def parsed(batch: pa.Table) -> pa.Table:
        hit = pc.extract_regex(batch.column("props"), pattern=_PAT)
        valid = pc.is_valid(hit)
        k = pc.cast(pc.struct_field(hit, "k"), pa.int64())
        return pa.table(
            {"event_type": batch.column("event_type").filter(valid), "k": k.filter(valid)}
        )

    def finalize(batch: pa.Table) -> pa.Table:
        s = batch.column("sum_k").to_numpy(zero_copy_only=False)
        n = batch.column("n_parsed").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "mean_k", pa.array(s // np.maximum(n, 1), pa.int64())
        )

    return keyed_aggregate(
        _read(sf_dir, "events", ["event_type", "props"]).map_batches(
            parsed, batch_format="pyarrow", zero_copy_batch=True
        ),
        "event_type",
        {"sum_k": ("k", "sum"), "n_parsed": ("k", "count")},
    ).map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


PROPS_EXTRACT_SQL = r"""
WITH e AS (
  SELECT event_type,
         CAST(NULLIF(regexp_extract(props, '"k":\s*(\d+)', 1), '') AS BIGINT)
             AS k
  FROM events
)
SELECT event_type,
       CAST(sum(k) AS BIGINT) AS sum_k,
       CAST(count(k) AS BIGINT) AS n_parsed,
       CAST(sum(k) // count(k) AS BIGINT) AS mean_k
FROM e WHERE k IS NOT NULL GROUP BY event_type
"""


# -- per-user time-weighted average value --------------------------------------


def time_weighted_average(sf_dir: str) -> "ray.data.Dataset":
    """Per-user time-weighted average event value (left-constant step
    interpolation): each value holds until the user's next event, the
    weight is the interval length.  ONE shuffle keyed on user_id % P; a
    per-partition kernel builds every user's intervals with one sort +
    masked diff and accumulates num/den per run with scatter-adds — no
    per-user Python call.  Exact integer arithmetic: cents × Δms
    products are guarded against int64 overflow on |cents| (a
    large-magnitude NEGATIVE cent value must trip the guard too); at
    ~5e4 cents and multi-year gaps that's around 2e9 intervals per user
    — switch to Python-int accumulation there.  Tie order (same
    timestamp) is pinned by event_id on BOTH sides — with ties the
    interval pairing depends on it."""
    def twa_part(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        us = pc.cast(part.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        cents = money_cents(part.column("value").to_numpy(zero_copy_only=False))
        order = np.lexsort((eid, us, uid))
        uid, us, cents = uid[order], us[order], cents[order]
        b = run_bounds(uid)
        lens = np.diff(b)
        nruns = len(lens)
        same = uid[1:] == uid[:-1]
        dt_ms = np.diff(us)[same] // 1000
        if dt_ms.size and int(np.abs(cents).max()) * max(
            int(dt_ms.max()), 1
        ) > (2**63 - 1) // max(int(lens.max()), 1):
            raise OverflowError(
                "time_weighted_average: cents x interval sum exceeds int64 — "
                "accumulate in Python ints for this partition"
            )
        gidx = (np.cumsum(np.r_[False, ~same]))[1:][same]  # run per interval
        num = np.zeros(nruns, np.int64)
        np.add.at(num, gidx, cents[:-1][same] * dt_ms)
        den = np.zeros(nruns, np.int64)
        np.add.at(den, gidx, dt_ms)
        keep = lens >= 2  # single-event users emit nothing (oracle parity)
        return pa.table(
            {
                "user_id": pa.array(uid[b[:-1]][keep], pa.int64()),
                "n_events": pa.array(lens[keep], pa.int64()),
                "twa_cents": pa.array(
                    num[keep] // np.maximum(den[keep], 1), pa.int64()
                ),
            }
        )

    return partitioned_by_key(
        _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"]),
        "user_id",
        twa_part,
    )


TIME_WEIGHTED_AVG_SQL = """
WITH w AS (
  SELECT user_id,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
         epoch_us(ts) AS us,
         lead(epoch_us(ts)) OVER (
             PARTITION BY user_id ORDER BY ts, event_id) AS nxt
  FROM events
),
iv AS (
  SELECT user_id, cents, (nxt - us) // 1000 AS dt_ms
  FROM w WHERE nxt IS NOT NULL
)
SELECT user_id,
       CAST(count(*) + 1 AS BIGINT) AS n_events,
       CAST(sum(cents * dt_ms) // greatest(sum(dt_ms), 1) AS BIGINT)
           AS twa_cents
FROM iv GROUP BY user_id
"""


# -- recency-decayed value sum (integer half-life) ------------------------------

_DECAY_HALF_LIFE_US = 30 * 86_400_000_000  # 30-day half-life
_DECAY_MAX_SHIFT = 50  # 2^-50 ~ 1e-15: beyond this the term is 0 anyway


def decayed_value_sum(sf_dir: str) -> "ray.data.Dataset":
    """Per-user recency-weighted value: each event contributes
    value · 2^-(age // half_life), the exponential-decay scoring a
    recommendation / engagement pipeline applies — kept EXACT by using
    the integer shift form (cents >> k is cents // 2^k for the
    non-negative cents here; DuckDB mirrors with an exact power-of-two
    BIGINT divisor, exact in IEEE doubles up to 2^53 ≫ the capped 2^50).
    'Now' is the corpus max timestamp — a scalar pre-pass whose partials
    are one int64 per block; the scoring scan is zero-shuffle until the
    O(#users) keyed rollup."""
    now_ts = _read(sf_dir, "events", ["ts"]).max("ts")
    now_us = int(pa.scalar(now_ts, pa.timestamp("us")).cast(pa.int64()).as_py())

    def decayed(batch: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()).to_numpy(zero_copy_only=False)
        cents = money_cents(batch.column("value").to_numpy(zero_copy_only=False))
        if cents.size and int(cents.min()) < 0:
            # The shift form floors (-5 >> 1 == -3) while the oracle's
            # DuckDB '//' truncates toward zero (-5 // 2 == -2): the two
            # diverge on negative cents, so fail loudly instead of
            # returning silently-wrong sums.
            raise ValueError(
                "decayed_value_sum: negative value cents — the >> decay "
                "(floor) diverges from the SQL '//' (truncate) on "
                "negatives; extend both sides before lifting this guard"
            )
        shift = np.minimum((now_us - us) // _DECAY_HALF_LIFE_US, _DECAY_MAX_SHIFT)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "d": pa.array(cents >> shift, pa.int64()),
            }
        )

    return keyed_aggregate(
        _read(sf_dir, "events", ["user_id", "ts", "value"]).map_batches(
            decayed, batch_format="pyarrow", zero_copy_batch=True
        ),
        "user_id",
        {"decayed_cents": ("d", "sum"), "n_events": ("d", "count")},
    )


DECAYED_VALUE_SQL = f"""
WITH mx AS (SELECT max(epoch_us(ts)) AS now_us FROM events),
e AS (
  SELECT user_id,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
         least((mx.now_us - epoch_us(ts)) // {_DECAY_HALF_LIFE_US},
               {_DECAY_MAX_SHIFT}) AS shift
  FROM events CROSS JOIN mx
)
SELECT user_id,
       CAST(sum(cents // CAST(power(2, shift) AS BIGINT)) AS BIGINT)
           AS decayed_cents,
       CAST(count(*) AS BIGINT) AS n_events
FROM e GROUP BY user_id
"""


# -- heterogeneous-source union (orders ∪ events activity) ---------------------


def activity_union(sf_dir: str) -> "ray.data.Dataset":
    """Unified per-user activity ledger across two heterogeneous facts:
    orders and events normalize to one (user_id, kind, us, cents) shape
    inside their own scan batches, ``Dataset.union`` concatenates the
    streams WITHOUT a shuffle (union of block lists), and one keyed
    aggregate yields per-user totals and the last-activity timestamp.
    The union-then-aggregate shape is how a lakehouse pipeline folds
    N activity sources into one profile without N−1 joins."""

    def from_orders(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("o_custkey"),
                "is_order": pa.array(np.ones(batch.num_rows, np.int64)),
                "is_event": pa.array(np.zeros(batch.num_rows, np.int64)),
                "us": pc.cast(batch.column("o_orderdate"), pa.int64()),
                "cents": pa.array(
                    money_cents(
                        batch.column("o_totalprice").to_numpy(zero_copy_only=False)
                    ),
                    pa.int64(),
                ),
            }
        )

    def from_events(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "is_order": pa.array(np.zeros(batch.num_rows, np.int64)),
                "is_event": pa.array(np.ones(batch.num_rows, np.int64)),
                "us": pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()),
                "cents": pa.array(
                    money_cents(
                        batch.column("value").to_numpy(zero_copy_only=False)
                    ),
                    pa.int64(),
                ),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"]
    ).map_batches(from_orders, batch_format="pyarrow", zero_copy_batch=True)
    events = _read(
        sf_dir, "events", ["user_id", "ts", "value"]
    ).map_batches(from_events, batch_format="pyarrow", zero_copy_batch=True)

    def finalize(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "n_orders": batch.column("n_orders"),
                "n_events": batch.column("n_events"),
                "total_cents": batch.column("total_cents"),
                "last_activity": pc.cast(
                    batch.column("last_us"), pa.timestamp("us")
                ),
            }
        )

    return keyed_aggregate(
        orders.union(events),
        "user_id",
        {
            "n_orders": ("is_order", "sum"),
            "n_events": ("is_event", "sum"),
            "total_cents": ("cents", "sum"),
            "last_us": ("us", "max"),
        },
    ).map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)


ACTIVITY_UNION_SQL = """
WITH u AS (
  SELECT o_custkey AS user_id, 1 AS is_order,
         epoch_us(o_orderdate) AS us,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders
  UNION ALL
  SELECT user_id, 0, epoch_us(ts),
         CAST(floor(value * 100 + 0.5) AS BIGINT)
  FROM events
)
SELECT user_id,
       CAST(sum(is_order) AS BIGINT) AS n_orders,
       CAST(sum(1 - is_order) AS BIGINT) AS n_events,
       CAST(sum(cents) AS BIGINT) AS total_cents,
       make_timestamp(max(us)) AS last_activity
FROM u GROUP BY user_id
"""


# -- global sort + limit -------------------------------------------------------


EARLIEST_EVENTS_N = 100


def earliest_events(sf_dir: str, n: int = EARLIEST_EVENTS_N) -> "ray.data.Dataset":
    """First n events in global time order — the one query in this repo
    that exercises Ray Data's range-partitioned ``Dataset.sort`` +
    ``limit`` directly (every other ordering need here is served by the
    cheaper per-block select_k / in-group sort patterns; a true global
    sort IS the right tool when the consumer needs a totally ordered
    stream, e.g. replaying events into a simulator).  Tie order is
    pinned with event_id as the secondary key — a bare sort("ts") is
    nondeterministic across equal timestamps.  ``limit`` truncates the
    ordered block stream; the narrow projection happens at the read."""
    return (
        _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])
        .sort(["ts", "event_id"])
        .limit(n)
    )


EARLIEST_EVENTS_SQL = f"""
SELECT event_id, ts, user_id, event_type
FROM events ORDER BY ts, event_id LIMIT {EARLIEST_EVENTS_N}
"""


# -- PageRank over the supplier co-supply graph --------------------------------

_PAGERANK_ROUNDS = 3
_PAGERANK_SCALE = 1_000_000_000  # rank mass in parts-per-billion


def supplier_pagerank(sf_dir: str) -> pa.Table:
    """PageRank (3 power-iteration rounds, d=0.85) over the supplier
    co-supply graph: suppliers are linked when they supply the same
    part.  The iterative-graph shape done scale-honestly: edge DISCOVERY
    is distributed — distinct (part, supplier) rows reduce in-scan, the
    per-part pair fan-out is one partition-vectorized kernel, and pair
    dedup is a PACKED-int64 keyed unique (sweep profiling showed Ray's
    sort groupby over ~1M (src, dst) groups costs 160 s at sf0.1 — the
    per-GROUP overhead disease again; a pk-keyed np.unique kernel is
    at most min(P, 2 × CPUs) calls total); the ITERATION then runs on the driver over the
    bounded node/edge tables (nodes ≤ supplier dimension, edges ≤
    nodes² — the same bounded-state pattern as kmeans' centroids).
    All arithmetic is integer ppb with floor division, mirrored exactly
    by the unrolled-CTE oracle; every quantity is non-negative so
    DuckDB's truncating // and numpy's flooring // agree."""
    def packed_ps(batch: pa.Table) -> pa.Table:
        p = pc.cast(batch.column("l_partkey"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        s = pc.cast(batch.column("l_suppkey"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        if len(p) and (p.max() >= 1 << 31 or s.max() >= 1 << 31):
            raise ValueError(
                "supplier_pagerank packs (part, supplier) into int64; "
                "keys >= 2^31 need a wider packing"
            )
        return pa.table(
            {"ps": pa.array(np.unique((p << 31) | s), pa.int64())}
        )

    def unique_ps(part: pa.Table) -> pa.Table:
        ps_arr = part.column("ps").to_numpy(zero_copy_only=False)
        u = np.unique(ps_arr)
        return pa.table(
            {
                "p": pa.array(u >> 31, pa.int64()),
                "s": pa.array(u & ((1 << 31) - 1), pa.int64()),
            }
        )

    # Distinct (part, supplier) via pk-keyed np.unique — one kernel call
    # per exchange block, never one reducer invocation per distinct pair.
    ps = partitioned_by_key(
        _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"]).map_batches(
            packed_ps, batch_format="pyarrow", zero_copy_batch=True
        ),
        "ps",
        unique_ps,
    )

    def pairs_kernel(part: pa.Table) -> pa.Table:
        """All parts of a hash partition in ONE call: sort by part, then
        build every run's k×k pair fan-out with pure repeat/modulo index
        arithmetic — no per-run loop.  Emits PACKED (src<<31 | dst)
        edges, uniqued within the partition, so the downstream global
        dedup shuffles one int64 column."""
        empty = pa.table({"e": pa.array([], pa.int64())})
        p = part.column("p").to_numpy(zero_copy_only=False)
        s = part.column("s").to_numpy(zero_copy_only=False)
        order = np.lexsort((s, p))
        p, s = p[order], s[order]
        b = run_bounds(p)
        lens = np.diff(b)
        seg = lens * lens  # k² raw pairs per part (self-pairs dropped below)
        if seg.sum() == 0:
            return empty
        src = np.repeat(s, np.repeat(lens, lens))
        starts_rep = np.repeat(b[:-1], seg)
        k_rep = np.repeat(lens, seg)
        local = np.arange(int(seg.sum()), dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(seg)[:-1]]), seg
        )
        dst = s[starts_rep + local % k_rep]
        keep = src != dst
        return pa.table(
            {"e": pa.array(np.unique((src[keep] << 31) | dst[keep]), pa.int64())}
        )

    def unique_edges(part: pa.Table) -> pa.Table:
        e = part.column("e").to_numpy(zero_copy_only=False)
        return pa.table({"e": pa.array(np.unique(e), pa.int64())})

    edges_pd = partitioned_by_key(
        partitioned_by_key(ps, "p", pairs_kernel), "e", unique_edges
    ).to_pandas()  # bounded: ≤ supplier_dimension² rows
    packed = edges_pd["e"].to_numpy(dtype=np.int64) if len(edges_pd) else np.array(
        [], dtype=np.int64
    )
    src = packed >> 31
    dst = packed & ((1 << 31) - 1)
    nodes = np.unique(np.concatenate([src, dst])) if len(src) else np.array(
        [], dtype=np.int64
    )
    n = len(nodes)
    if n == 0:
        return pa.table(
            {
                "s_suppkey": pa.array([], pa.int64()),
                "rank_ppb": pa.array([], pa.int64()),
                "out_degree": pa.array([], pa.int64()),
            }
        )
    # nodes comes from np.unique (sorted) — searchsorted is an exact,
    # vectorized index map (edges can reach dimension² rows; a Python
    # loop over them would dominate the driver step).
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    deg = np.bincount(si, minlength=n).astype(np.int64)
    base = _PAGERANK_SCALE // n
    r = np.full(n, base, np.int64)
    for _ in range(_PAGERANK_ROUNDS):
        share = r // np.maximum(deg, 1)  # deg > 0 for every edge source
        inflow = np.zeros(n, np.int64)
        np.add.at(inflow, di, share[si])
        r = (15 * base + 85 * inflow) // 100
    return pa.table(
        {
            "s_suppkey": pa.array(nodes, pa.int64()),
            "rank_ppb": pa.array(r, pa.int64()),
            "out_degree": pa.array(deg, pa.int64()),
        }
    )


def _pagerank_sql() -> str:
    parts = [
        # MATERIALIZED: DuckDB inlines plain CTEs per reference, and `e`
        # is referenced by deg + every round — at sf0.1 the re-evaluated
        # distinct self-joins spilled temp storage to disk exhaustion.
        """ps AS MATERIALIZED (
  SELECT DISTINCT l_partkey AS p, l_suppkey AS s FROM lineitem)""",
        """e AS MATERIALIZED (
  SELECT DISTINCT a.s AS src, b.s AS dst
  FROM ps a JOIN ps b ON a.p = b.p AND a.s <> b.s
)""",
        """nodes AS (SELECT DISTINCT src AS node FROM e
           UNION SELECT DISTINCT dst FROM e)""",
        """deg AS (SELECT src, CAST(count(*) AS BIGINT) AS d FROM e GROUP BY 1)""",
        f"""nn AS (SELECT CAST(count(*) AS BIGINT) AS n FROM nodes)""",
        f"""r0 AS (SELECT node, CAST({_PAGERANK_SCALE} // nn.n AS BIGINT) AS r
      FROM nodes CROSS JOIN nn)""",
    ]
    for t in range(1, _PAGERANK_ROUNDS + 1):
        parts.append(
            f"""f{t} AS (
  SELECT e.dst AS node, CAST(sum(r{t-1}.r // deg.d) AS BIGINT) AS inflow
  FROM e JOIN r{t-1} ON e.src = r{t-1}.node JOIN deg ON deg.src = e.src
  GROUP BY e.dst
)"""
        )
        parts.append(
            f"""r{t} AS (
  SELECT n0.node,
         CAST((15 * ({_PAGERANK_SCALE} // nn.n) + 85 * COALESCE(f{t}.inflow, 0))
              // 100 AS BIGINT) AS r
  FROM nodes n0 CROSS JOIN nn LEFT JOIN f{t} ON f{t}.node = n0.node
)"""
        )
    last = f"r{_PAGERANK_ROUNDS}"
    return (
        "WITH "
        + ",\n".join(parts)
        + f"""
SELECT n0.node AS s_suppkey, {last}.r AS rank_ppb,
       CAST(COALESCE(deg.d, 0) AS BIGINT) AS out_degree
FROM nodes n0
JOIN {last} ON {last}.node = n0.node
LEFT JOIN deg ON deg.src = n0.node"""
    )


SUPPLIER_PAGERANK_SQL = _pagerank_sql()


# -- signup → purchase conversion delay ---------------------------------------


def conversion_delay_stats(sf_dir: str) -> pa.Table:
    """Time-to-convert profile: for each user, the delay from FIRST
    signup to the first purchase AFTER it; output is the converted-user
    count plus exact min / median / max delay in milliseconds.  One
    shuffle keyed on user_id % P; every user's two firsts come from two
    masked ``np.minimum.at`` scatter passes per partition (the
    funnel_stages shape — no sort, no per-user Python call); the median
    uses the shared quantile_disc rule over a delay value-count
    reduction whose driver state is bounded by converted-user count."""
    INF = np.iinfo(np.int64).max

    def firsts_part(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        us = pc.cast(part.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        et = part.column("event_type")
        uniq, uidx = np.unique(uid, return_inverse=True)
        s0 = np.full(len(uniq), INF, dtype=np.int64)
        m = pc.fill_null(pc.equal(et, "signup"), False).to_numpy(
            zero_copy_only=False
        )
        np.minimum.at(s0, uidx[m], us[m])
        p0 = np.full(len(uniq), INF, dtype=np.int64)
        m = pc.fill_null(pc.equal(et, "purchase"), False).to_numpy(
            zero_copy_only=False
        )
        m &= (s0[uidx] < INF) & (us >= s0[uidx])
        np.minimum.at(p0, uidx[m], us[m])
        conv = p0 < INF
        return pa.table(
            {"delay_ms": pa.array((p0[conv] - s0[conv]) // 1000, pa.int64())}
        )

    delays = keyed_aggregate(
        partitioned_by_key(
            _read(sf_dir, "events", ["user_id", "ts", "event_type"]),
            "user_id",
            firsts_part,
        ),
        "delay_ms",
        {"cnt": ("delay_ms", "count")},
    ).to_pandas()
    # An all-empty group stream loses its schema entirely — guard BEFORE
    # touching columns (sort_values on the schema-less frame raises).
    if not len(delays) or "delay_ms" not in delays.columns:
        # Zero conversions: NULL stats, exactly like the oracle's empty
        # aggregate (0 would conflate 'no cohort' with instant conversion).
        return pa.table(
            {
                "n_converted": pa.array([0], pa.int64()),
                "min_delay_ms": pa.array([None], pa.int64()),
                "median_delay_ms": pa.array([None], pa.int64()),
                "max_delay_ms": pa.array([None], pa.int64()),
            }
        )
    delays = delays.sort_values("delay_ms")
    vals = delays["delay_ms"].to_numpy()
    cum = np.cumsum(delays["cnt"].to_numpy())
    return pa.table(
        {
            "n_converted": pa.array([int(cum[-1])], pa.int64()),
            "min_delay_ms": pa.array([int(vals[0])], pa.int64()),
            "median_delay_ms": pa.array(
                [quantile_disc_pick(vals, cum, 500)], pa.int64()
            ),
            "max_delay_ms": pa.array([int(vals[-1])], pa.int64()),
        }
    )


CONVERSION_DELAY_SQL = """
WITH s AS (
  SELECT user_id, min(epoch_us(ts)) AS s0
  FROM events WHERE event_type = 'signup' GROUP BY 1
),
p AS (
  SELECT e.user_id, (min(epoch_us(e.ts)) - min(s.s0)) // 1000 AS delay_ms
  FROM events e JOIN s ON e.user_id = s.user_id
  WHERE e.event_type = 'purchase' AND epoch_us(e.ts) >= s.s0
  GROUP BY e.user_id
)
SELECT CAST(count(*) AS BIGINT) AS n_converted,
       CAST(min(delay_ms) AS BIGINT) AS min_delay_ms,
       CAST(quantile_disc(delay_ms, 0.5) AS BIGINT) AS median_delay_ms,
       CAST(max(delay_ms) AS BIGINT) AS max_delay_ms
FROM p
"""


# -- incremental view maintenance (snapshot + delta merge) ---------------------

# Mid-range and deliberately NOT hour-aligned: the boundary hour has
# events on BOTH sides, so the merge really combines two partials of
# the same (type, window) key — an aligned cutoff would never overlap
# keys and a merge bug could hide behind disjoint key sets.
_IVM_CUTOFF = "2024-01-15 12:30:00"


def incremental_hourly_merge(sf_dir: str) -> pa.Table:
    """Incremental view maintenance for the hourly-events rollup: a
    PRIOR aggregate snapshot (events before the cutoff) merges with the
    DELTA aggregate (events at/after it) by re-aggregating the union of
    the two partial tables — the streaming-ingest pattern where
    yesterday's materialized rollup absorbs today's batch without
    rescanning history.  Because count/sum are commutative monoids the
    merged view must equal the from-scratch aggregate, which is exactly
    what the oracle computes (INCREMENTAL_HOURLY_SQL: the from-scratch
    aggregate over the whole table, in per-event integer cents — note
    this is a different value rule than HOURLY_EVENTS_SQL's
    round-of-sum) — the equality IS the IVM correctness proof.  Each
    side is one keyed aggregate; the merge is one more over two
    already-tiny aggregate tables."""
    cutoff = int(np.datetime64(_IVM_CUTOFF, "us").astype(np.int64))

    def agg_side(keep_before: bool) -> "ray.data.Dataset":
        def side_rows(batch: pa.Table) -> pa.Table:
            us = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()).to_numpy(
                zero_copy_only=False
            )
            mask = us < cutoff if keep_before else us >= cutoff
            kept = batch.filter(pa.array(mask))
            cents = money_cents(
                kept.column("value").to_numpy(zero_copy_only=False)
            )
            return pa.table(
                {
                    "event_type": kept.column("event_type"),
                    "window_start": pc.floor_temporal(kept.column("ts"), unit="hour"),
                    "s": pa.array(cents, pa.int64()),
                }
            )

        return keyed_aggregate(
            _read(sf_dir, "events", ["ts", "event_type", "value"]).map_batches(
                side_rows, batch_format="pyarrow", zero_copy_batch=True
            ),
            ["event_type", "window_start"],
            {"n": ("s", "count"), "s": ("s", "sum")},
        )

    prior = agg_side(True)   # the materialized snapshot
    delta = agg_side(False)  # the new ingest batch

    merged = keyed_aggregate(
        prior.union(delta),
        ["event_type", "window_start"],
        {"n_events": ("n", "sum"), "sum_cents": ("s", "sum")},
    ).to_pandas()  # bounded: one row per (type, hour)
    return pa.table(
        {
            "event_type": pa.array(merged["event_type"], pa.string()),
            "window_start": pa.array(merged["window_start"], pa.timestamp("us")),
            "n_events": pa.array(merged["n_events"].astype("int64"), pa.int64()),
            "sum_cents": pa.array(merged["sum_cents"].astype("int64"), pa.int64()),
        }
    )


INCREMENTAL_HOURLY_SQL = """
SELECT event_type,
       date_trunc('hour', ts) AS window_start,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS sum_cents
FROM events
GROUP BY 1, 2
"""


# -- ratio-to-parent: nation share of region revenue ---------------------------


def nation_revenue_share(sf_dir: str) -> pa.Table:
    """Each nation's permille share of its REGION's revenue — the
    ratio-to-parent report shape (window share over a grouped rollup).
    The heavy lifting is exactly revenue_by_nation's star-join plan; the
    share computation runs on its bounded O(#nations) result with the
    nation→region chain resolved from the two tiny dimension tables,
    all in Python-int arithmetic (no float shares, no overflow)."""
    import pyarrow.parquet as pq

    rev = revenue_by_nation(sf_dir)
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_name", "n_regionkey"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    ridx = pc.index_in(
        nation.column("n_regionkey"),
        value_set=region.column("r_regionkey").combine_chunks(),
    )
    chain = dict(
        zip(
            nation.column("n_name").to_pylist(),
            pc.take(region.column("r_name").combine_chunks(), ridx).to_pylist(),
        )
    )
    names = rev.column("n_name").to_pylist()
    cents = [int(x) for x in rev.column("revenue_cents").to_pylist()]
    rnames = [chain[n] for n in names]
    region_total: dict[str, int] = {}
    for r, c in zip(rnames, cents):
        region_total[r] = region_total.get(r, 0) + c
    share = [
        (1000 * c) // max(region_total[r], 1) for r, c in zip(rnames, cents)
    ]
    return pa.table(
        {
            "r_name": pa.array(rnames, pa.string()),
            "n_name": pa.array(names, pa.string()),
            "revenue_cents": pa.array(cents, pa.int64()),
            "share_permille": pa.array(share, pa.int64()),
        }
    )


NATION_REVENUE_SHARE_SQL = f"""
WITH rv AS ({REVENUE_BY_NATION_SQL}),
chain AS (
  SELECT n.n_name, r.r_name
  FROM nation n JOIN region r ON n.n_regionkey = r.r_regionkey
)
SELECT c.r_name, rv.n_name, rv.revenue_cents,
       CAST((1000 * rv.revenue_cents)
            // greatest(sum(rv.revenue_cents) OVER (PARTITION BY c.r_name), 1)
            AS BIGINT) AS share_permille
FROM rv JOIN chain c ON rv.n_name = c.n_name
"""


# -- CUBE / GROUPING SETS multi-dimensional aggregate -------------------------


def orders_cube(sf_dir: str) -> pa.Table:
    """GROUP BY CUBE (o_orderstatus, o_orderpriority) over orders — all
    four grouping sets (both dims, each dim alone, grand total) with a
    ``grouping_id`` disambiguator (GROUPING(status)*2 +
    GROUPING(priority)), n_orders and revenue in exact integer cents.

    Scale shape: ONE distributed pass — one keyed aggregate rolls raw
    orders to (status, priority, n, cents) at the FINEST grain, its
    per-call combiner collapsing them first — and every coarser
    set is derived from that finest table, never from the raw rows.
    The finest table is bounded by |status| × |priority| (dim-
    cardinality product, independent of row count), so the driver-side
    derivation is a bounded post-aggregation step, the same contract
    retention_cohorts and the other tiny-rollup operators document.
    Rolled-up dimensions surface as NULL; grouping_id tells a rolled-up
    NULL apart from a (hypothetical) data NULL, mirroring SQL GROUPING()."""

    def with_cents(batch: pa.Table) -> pa.Table:
        cents = money_cents(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "s": batch.column("o_orderstatus"),
                "p": batch.column("o_orderpriority"),
                "c": pa.array(cents, pa.int64()),
            }
        )

    finest = keyed_aggregate(
        _read(
            sf_dir,
            "orders",
            ["o_orderstatus", "o_orderpriority", "o_totalprice"],
        ).map_batches(with_cents, batch_format="pyarrow", zero_copy_batch=True),
        ["s", "p"],
        {"n": ("c", "count"), "c": ("c", "sum")},
    ).to_pandas()  # bounded: |status| x |priority| rows, post-aggregation

    def rollup(df, keys: list[str], gid: int):
        if keys:
            g = df.groupby(keys, as_index=False)[["n", "c"]].sum()
        else:
            g = df[["n", "c"]].sum().to_frame().T
        for col in ("s", "p"):
            if col not in keys:
                g[col] = None
        g["grouping_id"] = gid
        return g[["s", "p", "grouping_id", "n", "c"]]

    import pandas as pd

    out = pd.concat(
        [
            rollup(finest, ["s", "p"], 0),
            rollup(finest, ["s"], 1),
            rollup(finest, ["p"], 2),
            rollup(finest, [], 3),
        ],
        ignore_index=True,
    )
    return pa.table(
        {
            "o_orderstatus": pa.array(out["s"].tolist(), pa.string()),
            "o_orderpriority": pa.array(out["p"].tolist(), pa.string()),
            "grouping_id": pa.array(
                out["grouping_id"].to_numpy(np.int64), pa.int64()
            ),
            "n_orders": pa.array(out["n"].to_numpy(np.int64), pa.int64()),
            "revenue_cents": pa.array(out["c"].to_numpy(np.int64), pa.int64()),
        }
    )


ORDERS_CUBE_SQL = """
SELECT o_orderstatus, o_orderpriority,
       CAST(GROUPING(o_orderstatus) * 2 + GROUPING(o_orderpriority)
            AS BIGINT) AS grouping_id,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS revenue_cents
FROM orders
GROUP BY CUBE (o_orderstatus, o_orderpriority)
"""


# -- dense time-series resample (gap fill) ------------------------------------


def hourly_dense(sf_dir: str) -> pa.Table:
    """Hourly event counts on a DENSE time axis: every hour between the
    corpus min and max appears, gap hours filled with zeros — the
    resample-and-fill step monitoring/training-curve pipelines need
    before windowed models (a missing hour must read 0, not vanish).

    Scale shape: the distributed work is one hour-floor map and one
    keyed aggregate on hour — identical to hourly_events.  The dense
    fill happens AFTER the rollup on the bounded hourly table (rows =
    hours in the time span, independent of event count: a decade is
    <90k rows), the documented bounded post-aggregation contract."""
    import pandas as pd

    def hour_rows(batch: pa.Table) -> pa.Table:
        cents = money_cents(
            batch.column("value").to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "hour": pc.floor_temporal(batch.column("ts"), unit="hour"),
                "c": pa.array(cents, pa.int64()),
            }
        )

    hourly = keyed_aggregate(
        _read(sf_dir, "events", ["ts", "value"]).map_batches(
            hour_rows, batch_format="pyarrow", zero_copy_batch=True
        ),
        "hour",
        {"n": ("c", "count"), "c": ("c", "sum")},
    ).to_pandas()  # bounded: one row per hour in the span
    if not len(hourly):
        return pa.table(
            {
                "hour": pa.array([], pa.timestamp("us")),
                "n_events": pa.array([], pa.int64()),
                "value_cents": pa.array([], pa.int64()),
            }
        )
    dense = pd.date_range(hourly["hour"].min(), hourly["hour"].max(), freq="h")
    df = (
        hourly.set_index("hour")
        .reindex(dense, fill_value=0)
        .reset_index(names="hour")
    )
    return pa.table(
        {
            "hour": pa.array(df["hour"], pa.timestamp("us")),
            "n_events": pa.array(df["n"].astype("int64"), pa.int64()),
            "value_cents": pa.array(df["c"].astype("int64"), pa.int64()),
        }
    )


HOURLY_DENSE_SQL = """
WITH h AS (
  SELECT date_trunc('hour', ts) AS hour,
         CAST(count(*) AS BIGINT) AS n_events,
         CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
           AS value_cents
  FROM events GROUP BY 1
),
bounds AS (SELECT min(hour) AS lo, max(hour) AS hi FROM h),
dense AS (
  SELECT unnest(generate_series(lo, hi, INTERVAL 1 HOUR)) AS hour FROM bounds
)
SELECT d.hour,
       COALESCE(h.n_events, CAST(0 AS BIGINT)) AS n_events,
       COALESCE(h.value_cents, CAST(0 AS BIGINT)) AS value_cents
FROM dense d LEFT JOIN h ON d.hour = h.hour
"""


# -- TPC-H Q7-shaped: cross-nation shipping volume ---------------------------

_Q7_NATIONS = ("NATION_1", "NATION_2")
_Q7_LO = "1996-01-01"
_Q7_HI = "1997-12-31"


def volume_shipping(sf_dir: str) -> pa.Table:
    """TPC-H Q7 shape: revenue shipped between two nations per year,
    keyed by (supplier nation, customer nation) in both directions.

    Plan by side size: lineitem meets supplier and orders meet customer
    through the join planner (auto_equi_join: broadcast probes at
    tested scales — supplier is 10k·SF rows and customer 150k·SF rows,
    both dwarfed by lineitem), and the 25-row nation table names the
    joined nation keys.  Lineitem batches filter to the two supplier
    nations and the ship-date window before the shuffle, pre-combine to
    (orderkey, supp_nation, year, cents), and meet orders (filtered to
    the two customer nations the same way) in ONE repartition join on
    orderkey.  The final rollup is ≤ 2·2·years rows.  Revenue in exact
    integer cents."""
    import pandas as pd
    import pyarrow.parquet as pq

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nkeys = nation.column("n_nationkey").combine_chunks()
    nnames = nation.column("n_name").combine_chunks()
    pair = pa.array(list(_Q7_NATIONS), pa.string())
    lo = int(pd.Timestamp(_Q7_LO).value // 1000)
    hi = int(pd.Timestamp(_Q7_HI + " 23:59:59.999999").value // 1000)

    lineitem = auto_equi_join(
        _read(
            sf_dir,
            "lineitem",
            ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        ),
        f"{sf_dir}/supplier.parquet",
        "l_suppkey",
        "s_suppkey",
        [
            ("l_orderkey", pa.int64()),
            ("l_extendedprice", pa.float64()),
            ("l_discount", pa.float64()),
            ("l_shipdate", pa.timestamp("us")),
        ],
        [("s_nationkey", pa.int32())],
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        sn = pc.take(nnames, pc.index_in(batch.column("s_nationkey"), value_set=nkeys))
        ship = pc.cast(batch.column("l_shipdate"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        mask = pc.and_(
            pc.is_in(sn, value_set=pair),
            pa.array((ship >= lo) & (ship <= hi)),
        )
        keep = np.flatnonzero(
            pc.fill_null(mask, False).to_numpy(zero_copy_only=False)
        )
        ki = pa.array(keep, pa.int64())
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)[keep]
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)[keep]
        year = pc.year(batch.column("l_shipdate").take(ki))
        t = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey").take(ki),
                "supp_nation": sn.take(ki),
                "l_year": pc.cast(year, pa.int64()),
                "cents": pa.array(money_cents(price * (1 - disc)), pa.int64()),
            }
        )
        g = t.group_by(["l_orderkey", "supp_nation", "l_year"]).aggregate(
            [("cents", "sum")]
        )
        return pa.table(
            {
                "l_orderkey": g.column("l_orderkey"),
                "supp_nation": g.column("supp_nation"),
                "l_year": g.column("l_year"),
                "cents": g.column("cents_sum"),
            }
        )

    fact = lineitem.map_batches(
        li_partial, batch_format="pyarrow", zero_copy_batch=True
    )

    def ord_side(batch: pa.Table) -> pa.Table:
        cn = pc.take(nnames, pc.index_in(batch.column("c_nationkey"), value_set=nkeys))
        keep = pc.fill_null(pc.is_in(cn, value_set=pair), False)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey").filter(keep),
                "cust_nation": cn.filter(keep),
            }
        )

    orders_f = auto_equi_join(
        _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]),
        f"{sf_dir}/customer.parquet",
        "o_custkey",
        "c_custkey",
        [("o_orderkey", pa.int64())],
        [("c_nationkey", pa.int32())],
    ).map_batches(ord_side, batch_format="pyarrow", zero_copy_batch=True)

    joined = repartition_join(
        fact,
        orders_f,
        "l_orderkey",
        "o_orderkey",
        [
            ("supp_nation", pa.string()),
            ("l_year", pa.int64()),
            ("cents", pa.int64()),
        ],
        [("cust_nation", pa.string())],
        how="inner",
    )

    def cross_only(batch: pa.Table) -> pa.Table:
        # Keep only the two cross directions (drop same-nation pairs).
        keep = pc.invert(
            pc.equal(batch.column("supp_nation"), batch.column("cust_nation"))
        )
        return batch.filter(pc.fill_null(keep, False))

    keys = ["supp_nation", "cust_nation", "l_year"]
    out = ensure_columns(
        keyed_aggregate(
            joined.map_batches(cross_only, batch_format="pyarrow", zero_copy_batch=True),
            keys,
            {"revenue_cents": ("cents", "sum")},
        ).to_pandas(),
        keys + ["revenue_cents"],
    ).sort_values(keys)
    return pa.table(
        {
            "supp_nation": pa.array(out["supp_nation"], pa.string()),
            "cust_nation": pa.array(out["cust_nation"], pa.string()),
            "l_year": pa.array(out["l_year"].to_numpy().astype(np.int64), pa.int64()),
            "revenue_cents": pa.array(
                out["revenue_cents"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


VOLUME_SHIPPING_SQL = f"""
SELECT n1.n_name AS supp_nation,
       n2.n_name AS cust_nation,
       CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS l_year,
       CAST(sum(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)
                AS BIGINT)) AS BIGINT) AS revenue_cents
FROM lineitem l
JOIN orders o   ON l.l_orderkey = o.o_orderkey
JOIN customer c ON o.o_custkey = c.c_custkey
JOIN supplier s ON l.l_suppkey = s.s_suppkey
JOIN nation n1  ON s.s_nationkey = n1.n_nationkey
JOIN nation n2  ON c.c_nationkey = n2.n_nationkey
WHERE ((n1.n_name = '{_Q7_NATIONS[0]}' AND n2.n_name = '{_Q7_NATIONS[1]}')
    OR (n1.n_name = '{_Q7_NATIONS[1]}' AND n2.n_name = '{_Q7_NATIONS[0]}'))
  AND l.l_shipdate BETWEEN TIMESTAMP '{_Q7_LO}'
                       AND TIMESTAMP '{_Q7_HI} 23:59:59.999999'
GROUP BY 1, 2, 3
ORDER BY 1, 2, 3
"""


# -- TPC-H Q8-shaped: nation market share -------------------------------------

_Q8_NATION = "NATION_3"
_Q8_TYPE = "ECONOMY"
_Q8_LO = "1996-01-01"
_Q8_HI = "1997-12-31"


def market_share(sf_dir: str) -> pa.Table:
    """TPC-H Q8 shape: the target nation's share of revenue for one part
    type, per order year — the two-level share aggregate (conditional
    numerator over an unconditional denominator).

    Plan by side size: lineitem meets part, then supplier, through the
    join planner (auto_equi_join: broadcast probes at tested scales);
    rows die right after the part join unless their part has the type,
    and the 25-row nation table gives the target nation's keys.  Then
    lineitem pre-combines to (orderkey, cents, nat_cents) so the ONE
    repartition join against year-filtered orders moves at most one row
    per (orderkey, block).  The share is emitted as EXACT integers —
    (nation_cents, total_cents, permille = nation*1000 // total) — so
    the oracle hash-compares without float drift."""
    import pandas as pd
    import pyarrow.parquet as pq

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    target = pc.filter(
        nation.column("n_nationkey"), pc.equal(nation.column("n_name"), _Q8_NATION)
    )
    lo = int(pd.Timestamp(_Q8_LO).value // 1000)
    hi = int(pd.Timestamp(_Q8_HI + " 23:59:59.999999").value // 1000)

    def type_only(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("p_type"), _Q8_TYPE))

    line_cols = [
        ("l_orderkey", pa.int64()),
        ("l_extendedprice", pa.float64()),
        ("l_discount", pa.float64()),
    ]
    typed = auto_equi_join(
        _read(
            sf_dir,
            "lineitem",
            ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
        ),
        f"{sf_dir}/part.parquet",
        "l_partkey",
        "p_partkey",
        line_cols + [("l_suppkey", pa.int64())],
        [("p_type", pa.string())],
    ).map_batches(type_only, batch_format="pyarrow", zero_copy_batch=True)
    lineitem = auto_equi_join(
        typed,
        f"{sf_dir}/supplier.parquet",
        "l_suppkey",
        "s_suppkey",
        line_cols,
        [("s_nationkey", pa.int32())],
    )

    def li_partial(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        cents = money_cents(price * (1 - disc))
        tgt = pc.is_in(batch.column("s_nationkey"), value_set=target).to_numpy(
            zero_copy_only=False
        )
        t = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "cents": pa.array(cents, pa.int64()),
                "nat_cents": pa.array(np.where(tgt, cents, 0), pa.int64()),
            }
        )
        g = t.group_by("l_orderkey").aggregate(
            [("cents", "sum"), ("nat_cents", "sum")]
        )
        return pa.table(
            {
                "l_orderkey": g.column("l_orderkey"),
                "cents": g.column("cents_sum"),
                "nat_cents": g.column("nat_cents_sum"),
            }
        )

    fact = lineitem.map_batches(
        li_partial, batch_format="pyarrow", zero_copy_batch=True
    )

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def ord_side(batch: pa.Table) -> pa.Table:
        date = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        keep = pa.array(np.flatnonzero((date >= lo) & (date <= hi)), pa.int64())
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey").take(keep),
                "o_year": pc.cast(
                    pc.year(batch.column("o_orderdate").take(keep)), pa.int64()
                ),
            }
        )

    orders_f = orders.map_batches(
        ord_side, batch_format="pyarrow", zero_copy_batch=True
    )

    joined = repartition_join(
        fact,
        orders_f,
        "l_orderkey",
        "o_orderkey",
        [("cents", pa.int64()), ("nat_cents", pa.int64())],
        [("o_year", pa.int64())],
        how="inner",
    )

    out = keyed_aggregate(
        joined,
        "o_year",
        {"nation_cents": ("nat_cents", "sum"), "total_cents": ("cents", "sum")},
    ).to_pandas()
    if out.empty:
        return pa.table(
            {
                "o_year": pa.array([], pa.int64()),
                "nation_cents": pa.array([], pa.int64()),
                "total_cents": pa.array([], pa.int64()),
                "mkt_share_pm": pa.array([], pa.int64()),
            }
        )
    out = out.sort_values("o_year")
    nat = out["nation_cents"].to_numpy().astype(np.int64)
    tot = out["total_cents"].to_numpy().astype(np.int64)
    # Exact permille in Python ints (nat*1000 can exceed int64 at 100 TB
    # scale only past ~9e15 cents/year; object ints sidestep that).
    pm = np.array(
        [int(n) * 1000 // int(t) if t else 0 for n, t in zip(nat, tot)],
        dtype=np.int64,
    )
    return pa.table(
        {
            "o_year": pa.array(out["o_year"].to_numpy().astype(np.int64), pa.int64()),
            "nation_cents": pa.array(nat, pa.int64()),
            "total_cents": pa.array(tot, pa.int64()),
            "mkt_share_pm": pa.array(pm, pa.int64()),
        }
    )


MARKET_SHARE_SQL = f"""
WITH f AS (
  SELECT o.o_orderdate, s.s_nationkey,
         CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5)
              AS BIGINT) AS cents
  FROM lineitem l
  JOIN part p     ON l.l_partkey = p.p_partkey
  JOIN orders o   ON l.l_orderkey = o.o_orderkey
  JOIN supplier s ON l.l_suppkey = s.s_suppkey
  WHERE p.p_type = '{_Q8_TYPE}'
    AND o.o_orderdate BETWEEN TIMESTAMP '{_Q8_LO}'
                          AND TIMESTAMP '{_Q8_HI} 23:59:59.999999'
)
SELECT CAST(EXTRACT(year FROM f.o_orderdate) AS BIGINT) AS o_year,
       CAST(sum(CASE WHEN n.n_name = '{_Q8_NATION}' THEN f.cents
                     ELSE 0 END) AS BIGINT) AS nation_cents,
       CAST(sum(f.cents) AS BIGINT) AS total_cents,
       CAST(sum(CASE WHEN n.n_name = '{_Q8_NATION}' THEN f.cents
                     ELSE 0 END) * 1000 // sum(f.cents) AS BIGINT)
         AS mkt_share_pm
FROM f JOIN nation n ON f.s_nationkey = n.n_nationkey
GROUP BY 1
ORDER BY 1
"""


# -- last-touch attribution ---------------------------------------------------


def attribution_last_touch(sf_dir: str) -> pa.Table:
    """Last-touch attribution: each purchase is credited to the SAME
    user's most recent preceding non-purchase event type ("(none)" when
    the purchase is the user's first touch), rolled up to attribution
    counts per source type.

    The conditional carry-forward (LAST_VALUE ... IGNORE NULLS) is a
    per-user scan, so it runs as ONE keyed shuffle via
    partitioned_by_key(user_id) with a wholly vectorized kernel: lexsort
    by (user, ts, event_id), a global maximum.accumulate over source
    positions, and a run-start clamp that resets the carry at each user
    boundary without any per-user loop.  Each partition emits partial
    (src_type, n) counts; the final rollup is ≤ #event_types rows."""
    events = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def kernel(part: pa.Table) -> pa.Table:
        u = part.column("user_id").to_numpy(zero_copy_only=False)
        t = pc.cast(part.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        et = np.asarray(part.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((eid, t, u))
        u, et = u[order], et[order]
        idx = np.arange(len(u), dtype=np.int64)
        is_src = et != "purchase"
        last_src = np.maximum.accumulate(np.where(is_src, idx, -1))
        # Reset at user boundaries: a carried position from the previous
        # user is always < this row's run start, so clamp invalidates it.
        b = run_bounds(u)
        run_start = np.repeat(b[:-1], np.diff(b))
        valid = last_src >= run_start
        purch = np.flatnonzero(~is_src)
        src = np.where(
            valid[purch], et[np.maximum(last_src[purch], 0)], "(none)"
        )
        kinds, counts = np.unique(src.astype(str), return_counts=True)
        return pa.table(
            {
                "src_type": pa.array(kinds, pa.string()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    out = keyed_aggregate(
        partitioned_by_key(events, "user_id", kernel),
        "src_type",
        {"n_purchases": ("n", "sum")},
    ).to_pandas()
    if out.empty:
        return pa.table(
            {
                "src_type": pa.array([], pa.string()),
                "n_purchases": pa.array([], pa.int64()),
            }
        )
    out = out.sort_values("src_type")
    return pa.table(
        {
            "src_type": pa.array(out["src_type"], pa.string()),
            "n_purchases": pa.array(
                out["n_purchases"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


ATTRIBUTION_LAST_TOUCH_SQL = """
WITH w AS (
  SELECT event_type,
         LAST_VALUE(CASE WHEN event_type <> 'purchase' THEN event_type END
                    IGNORE NULLS)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS src
  FROM events
)
SELECT COALESCE(src, '(none)') AS src_type,
       CAST(count(*) AS BIGINT) AS n_purchases
FROM w
WHERE event_type = 'purchase'
GROUP BY 1
ORDER BY 1
"""


# -- distributed correlation via exact sufficient statistics ------------------


def corr_stats_by_type(sf_dir: str) -> pa.Table:
    """Per-event-type sufficient statistics for Pearson correlation
    between value (cents) and hour-of-day — the moment-sketch pattern:
    each batch contributes exact integer partial sums (n, Σx, Σy, Σxy,
    Σx², Σy²), the keyed aggregate merges them associatively, and r itself is a
    driver-side O(#types) computation downstream (pytest derives it with
    integer isqrt; the table stays float-free so the oracle hash is
    exact).  Σx² bounds: cents ≤ ~10⁵ per event keeps n·x² within int64
    to ~10⁸ rows/type/partial; the 100 TB path promotes the merge to a
    128-bit accumulator (DuckDB's HUGEINT does the same upstream)."""
    events = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def moments(batch: pa.Table) -> pa.Table:
        x = money_cents(batch.column("value").to_numpy(zero_copy_only=False))
        y = (
            pc.cast(pc.hour(batch.column("ts")), pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "x": pa.array(x, pa.int64()),
                "y": pa.array(y, pa.int64()),
                "xy": pa.array(x * y, pa.int64()),
                "x2": pa.array(x * x, pa.int64()),
                "y2": pa.array(y * y, pa.int64()),
            }
        )

    out = keyed_aggregate(
        events.map_batches(moments, batch_format="pyarrow", zero_copy_batch=True),
        "event_type",
        {"n": ("x", "count")}
        | {f"sum_{c}": (c, "sum") for c in ("x", "y", "xy", "x2", "y2")},
    ).to_pandas()
    if out.empty:
        cols = {"event_type": pa.array([], pa.string())}
        for c in ("n", "sum_x", "sum_y", "sum_xy", "sum_x2", "sum_y2"):
            cols[c] = pa.array([], pa.int64())
        return pa.table(cols)
    out = out.sort_values("event_type")
    cols = {"event_type": pa.array(out["event_type"], pa.string())}
    for c in ("n", "sum_x", "sum_y", "sum_xy", "sum_x2", "sum_y2"):
        cols[c] = pa.array(out[c].to_numpy().astype(np.int64), pa.int64())
    return pa.table(cols)


CORR_STATS_BY_TYPE_SQL = """
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(cents) AS BIGINT) AS sum_x,
       CAST(sum(h) AS BIGINT) AS sum_y,
       CAST(sum(cents * h) AS BIGINT) AS sum_xy,
       CAST(sum(cents * cents) AS BIGINT) AS sum_x2,
       CAST(sum(h * h) AS BIGINT) AS sum_y2
FROM (
  SELECT event_type,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
         CAST(EXTRACT(hour FROM ts) AS BIGINT) AS h
  FROM events
)
GROUP BY 1
ORDER BY 1
"""


# -- dense-grid LOCF (forward fill) -------------------------------------------


def _ts_month_bounds(path: str, col: str = "ts") -> tuple[int, int]:
    """Global (lo, hi) month ordinals (months since 1970) for a parquet
    timestamp column, read from ROW-GROUP FOOTER STATISTICS — no data
    scan, so deriving a global grid stays O(row groups) at 100 TB.
    Falls back to a column-pruned scan when stats are absent."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    idx = pf.schema_arrow.get_field_index(col)
    lo = hi = None
    for rg in range(pf.metadata.num_row_groups):
        st = pf.metadata.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            lo = hi = None
            break
        lo = st.min if lo is None else min(lo, st.min)
        hi = st.max if hi is None else max(hi, st.max)
    if lo is None:
        t = pq.read_table(path, columns=[col]).column(col)
        lo, hi = pc.min(t).as_py(), pc.max(t).as_py()
    mo = np.array([lo, hi], dtype="datetime64[us]").astype("datetime64[M]")
    o = mo.astype(np.int64)
    return int(o[0]), int(o[1])


def monthly_value_locf(sf_dir: str) -> pa.Table:
    """Per-user monthly feature grid with last-observation-carried-
    forward fill: for every month from the user's first event to the
    corpus's last month, the value (cents) of the user's most recent
    event at or before that month boundary — the dense forward-fill
    shape feature-engineering pipelines build before training.

    One keyed shuffle (partitioned_by_key on user_id); the kernel is a
    pure ragged-arange expansion: lexsort, last event per (user, month)
    via run boundaries, then np.repeat over segment lengths — no
    per-user loop, no grid join.  The global month range comes from
    parquet FOOTER statistics (no extra scan).  Ties inside a month
    break on (ts, event_id) like the oracle's ROW_NUMBER."""
    _, hi_mo = _ts_month_bounds(f"{sf_dir}/events.parquet")
    events = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def kernel(part: pa.Table) -> pa.Table:
        u = part.column("user_id").to_numpy(zero_copy_only=False)
        # Normalize to µs BEFORE the int cast: the month math below
        # converts absolute epoch values, so the unit matters (pandas-
        # written fixtures are ns, the driver corpus is µs).
        t = pc.cast(
            pc.cast(part.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        cents = money_cents(part.column("value").to_numpy(zero_copy_only=False))
        order = np.lexsort((eid, t, u))
        u, t, cents = u[order], t[order], cents[order]
        mo = t.astype("datetime64[us]").astype("datetime64[M]").astype(np.int64)
        # last event per (user, month) run
        last = np.flatnonzero(
            np.r_[(u[1:] != u[:-1]) | (mo[1:] != mo[:-1]), True]
        )
        lu, lmo, lc = u[last], mo[last], cents[last]
        # each (user, month) value persists until the user's next
        # observed month, or the global hi month for the user's last one
        b = run_bounds(lu)
        seg_end = np.empty(len(lu), dtype=np.int64)
        seg_end[:-1] = lmo[1:]
        seg_end[b[1:] - 1] = hi_mo + 1
        counts = seg_end - lmo
        total = int(counts.sum())
        starts = np.repeat(np.cumsum(counts) - counts, counts)
        out_mo = np.repeat(lmo, counts) + (np.arange(total, dtype=np.int64) - starts)
        return pa.table(
            {
                "user_id": pa.array(np.repeat(lu, counts), pa.int64()),
                "month": pa.array(
                    out_mo.astype("datetime64[M]").astype("datetime64[us]")
                ),
                "value_cents": pa.array(np.repeat(lc, counts), pa.int64()),
            }
        )

    return partitioned_by_key(events, "user_id", kernel)


MONTHLY_VALUE_LOCF_SQL = """
WITH ev AS (
  SELECT user_id, date_trunc('month', ts) AS m,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
         ROW_NUMBER() OVER (PARTITION BY user_id, date_trunc('month', ts)
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events
),
lastv AS (SELECT user_id, m, cents FROM ev WHERE rn = 1),
bounds AS (
  SELECT date_trunc('month', min(ts)) AS lo,
         date_trunc('month', max(ts)) AS hi
  FROM events
),
months AS (
  SELECT unnest(generate_series(lo, hi, INTERVAL 1 MONTH)) AS m FROM bounds
),
grid AS (
  SELECT u.user_id, mo.m
  FROM (SELECT DISTINCT user_id FROM events) u CROSS JOIN months mo
),
filled AS (
  SELECT g.user_id, g.m,
         LAST_VALUE(l.cents IGNORE NULLS)
           OVER (PARTITION BY g.user_id ORDER BY g.m
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           AS value_cents
  FROM grid g
  LEFT JOIN lastv l ON g.user_id = l.user_id AND g.m = l.m
)
SELECT user_id, m AS month, value_cents
FROM filled
WHERE value_cents IS NOT NULL
"""


# -- skyline (Pareto frontier) -------------------------------------------------


def _skyline_2d(price: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Indices of the 2D Pareto frontier (minimize price, maximize
    size): dominated iff another point has price ≤ AND size ≥ with one
    strict.  Vectorized: sort by (price asc, size desc); within an
    equal-price run only the max-size rows survive, and a run survives
    iff its max size strictly beats every strictly-cheaper run's
    (running prefix max).  Equal (price, size) duplicates all survive,
    matching the SQL NOT EXISTS semantics."""
    n = len(price)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((-size, price))
    p_s, s_s = price[order], size[order]
    b = run_bounds(p_s)
    run_id = np.repeat(np.arange(len(b) - 1), np.diff(b))
    run_max = s_s[b[:-1]]  # sorted size-desc within run -> first is max
    prev_best = np.r_[np.int64(np.iinfo(np.int64).min), np.maximum.accumulate(run_max)[:-1]]
    run_alive = run_max > prev_best
    alive = run_alive[run_id] & (s_s == run_max[run_id])
    return np.sort(order[alive])


def parts_skyline(sf_dir: str) -> pa.Table:
    """Pareto frontier of the part table (cheapest price vs largest
    size) — the skyline operator.  Skyline-of-union == union-of-local-
    skylines pruned once more, so the plan is: per-block local skyline
    inside map_batches (each block emits only its frontier — the bulk
    of a 100 TB table dies in place), then ONE bounded final prune over
    the surviving candidates.  The frontier of a 2-D anticorrelated
    worst case can be large; the final prune therefore streams through
    a single-partition kernel rather than a driver list.  Prices in
    exact cents (shared money rule)."""
    part = _read(sf_dir, "part", ["p_partkey", "p_retailprice", "p_size"])

    def local(batch: pa.Table) -> pa.Table:
        cents = money_cents(
            batch.column("p_retailprice").to_numpy(zero_copy_only=False)
        )
        size = (
            pc.cast(batch.column("p_size"), pa.int64())
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        keep = _skyline_2d(cents, size)
        ki = pa.array(keep, pa.int64())
        return pa.table(
            {
                "p_partkey": pc.cast(batch.column("p_partkey").take(ki), pa.int64()),
                "price_cents": pa.array(cents[keep], pa.int64()),
                "p_size": pa.array(size[keep], pa.int64()),
            }
        )

    def final(batch: pa.Table) -> pa.Table:
        cents = batch.column("price_cents").to_numpy(zero_copy_only=False)
        size = batch.column("p_size").to_numpy(zero_copy_only=False)
        keep = pa.array(_skyline_2d(cents, size), pa.int64())
        t = batch.take(keep)
        idx = pc.sort_indices(
            t, sort_keys=[("price_cents", "ascending"), ("p_partkey", "ascending")]
        )
        return t.take(idx)

    ds = (
        part.map_batches(local, batch_format="pyarrow", zero_copy_batch=True)
        .repartition(1)
        .map_batches(
            final, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
        )
    )
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tables:
        return pa.table(
            {
                "p_partkey": pa.array([], pa.int64()),
                "price_cents": pa.array([], pa.int64()),
                "p_size": pa.array([], pa.int64()),
            }
        )
    return pa.concat_tables(tables)


PARTS_SKYLINE_SQL = """
WITH p AS (
  SELECT p_partkey,
         CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT) AS price_cents,
         CAST(p_size AS BIGINT) AS p_size
  FROM part
)
SELECT p_partkey, price_cents, p_size
FROM p p1
WHERE NOT EXISTS (
  SELECT 1 FROM p p2
  WHERE p2.price_cents <= p1.price_cents AND p2.p_size >= p1.p_size
    AND (p2.price_cents < p1.price_cents OR p2.p_size > p1.p_size)
)
ORDER BY price_cents, p_partkey
"""


# -- distributed triangle counting --------------------------------------------

_TRI_SHIFT = 32  # composite edge key u<<32|v: partkeys must stay < 2^31
_TRI_MASK = (1 << _TRI_SHIFT) - 1


def _edge_ends(k: "np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
    """(u, v) endpoints of packed u<<32|v edge keys."""
    return k >> _TRI_SHIFT, k & _TRI_MASK


def _copurchase_edges(sf_dir: str, P: int) -> "ray.data.Dataset":
    """THE co-purchase edge set, the graph's only pair build: one row
    per distinct edge — packed key k = u<<32|v with u < v, and
    n_orders, the number of orders that hold both parts — shared by
    every part-graph operator (triangles, clustering, degree histogram,
    k-core, BFS, item similarity).  One order-keyed shuffle expands
    each order's distinct parts with run_pairs and pre-counts the pairs
    per block; one edge-keyed shuffle sums the counts.  Materialized —
    the edge set is the graph's sparse core, far smaller than
    lineitem, and every caller reads it at least twice."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def order_pk(batch: pa.Table) -> pa.Table:
        o = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        p = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        if p.size and int(p.max()) >= (1 << (_TRI_SHIFT - 1)):
            raise OverflowError("partkey exceeds composite-key bound (2^31)")
        u = np.unique(np.stack([o, p], axis=1), axis=0)
        return pa.table(
            {
                "o": pa.array(u[:, 0], pa.int64()),
                "p": pa.array(u[:, 1], pa.int64()),
                "pk": pa.array((u[:, 0] % P).astype(np.int32), pa.int32()),
            }
        )

    def order_pairs(group: pa.Table) -> pa.Table:
        o = group.column("o").to_numpy(zero_copy_only=False)
        p = group.column("p").to_numpy(zero_copy_only=False)
        order = np.lexsort((p, o))
        o, p = o[order], p[order]
        keep = np.r_[True, (o[1:] != o[:-1]) | (p[1:] != p[:-1])]
        o, p = o[keep], p[keep]
        b = run_bounds(o)
        i, j = run_pairs(b[:-1], b[1:])
        k, n = np.unique((p[i] << _TRI_SHIFT) | p[j], return_counts=True)
        return pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "n_orders": pa.array(n.astype(np.int64), pa.int64()),
                "epk": pa.array((k % P).astype(np.int32), pa.int32()),
            }
        )

    def sum_edges(group: pa.Table) -> pa.Table:
        k = group.column("k").to_numpy(zero_copy_only=False)
        n = group.column("n_orders").to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, n = k[order], n[order]
        b = run_bounds(k)
        return pa.table(
            {
                "k": pa.array(k[b[:-1]], pa.int64()),
                "n_orders": pa.array(np.add.reduceat(n, b[:-1]), pa.int64()),
            }
        )

    by_order = exchange(
        li.map_batches(order_pk, batch_format="pyarrow", zero_copy_batch=True),
        "pk",
        P,
        order_pairs,
    )
    return exchange(by_order, "epk", P, sum_edges).materialize()


def _endpoint_counts(batch: pa.Table) -> pa.Table:
    """Per-batch (node, degree) partials of an edge batch."""
    u, v = _edge_ends(batch.column("k").to_numpy(zero_copy_only=False))
    node, c = np.unique(np.concatenate([u, v]), return_counts=True)
    return pa.table(
        {
            "node": pa.array(node, pa.int64()),
            "degree": pa.array(c.astype(np.int64), pa.int64()),
        }
    )


def _copurchase_degrees(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """(node, degree) of every part with an edge: per-batch np.unique
    partials merged by one node-keyed aggregate."""
    return keyed_aggregate(
        edges.map_batches(
            _endpoint_counts, batch_format="pyarrow", zero_copy_batch=True
        ),
        "node",
        {"degree": ("degree", "sum")},
    )


def copurchase_triangles(sf_dir: str) -> pa.Table:
    """Triangles in the part co-purchase graph (parts sharing an order
    are adjacent) — the distributed triangle count, the canonical
    "joins explode unless you orient" graph exercise.

    Plan: (1) _copurchase_edges builds the distinct edge set (an
    order-keyed run_pairs expansion, then an edge-keyed shuffle);
    (2) degrees are a bounded per-node rollup (_copurchase_degrees);
    (3) _count_triangles orients the edges and matches wedges against
    them.  Output: one exact row."""
    from ._util import wide_partitions

    P = wide_partitions()
    edges = _copurchase_edges(sf_dir, P)
    deg = ensure_columns(_copurchase_degrees(edges).to_pandas(), ["node", "degree"])
    n = _count_triangles(edges, deg, P)
    return pa.table({"n_triangles": pa.array([n], pa.int64())})


def _count_triangles(edges, deg, P: int) -> int:
    """Exact triangle count of a distinct edge set given its degrees.
    ``deg`` is the (node, degree) frame of _copurchase_degrees, one row
    per part.  Edges are ORIENTED low-degree→high-degree (the degrees
    are broadcast once), which bounds every out-neighborhood by
    O(√m) so wedge generation cannot explode on hot parts; one
    source-keyed shuffle emits each source's out-neighbor pairs with
    run_pairs, and one final keyed shuffle co-locates wedges with
    candidate edges by composite key and counts matches with np.isin —
    each triangle is found exactly once (its lowest-degree vertex
    generates the wedge)."""
    deg_keys = pa.array(deg["node"].to_numpy().astype(np.int64), pa.int64())
    deg_vals = deg["degree"].to_numpy().astype(np.int64)
    deg_ref = ray.put((deg_keys, deg_vals))

    def orient(batch: pa.Table) -> pa.Table:
        keys, vals = ray.get(deg_ref)
        u, v = _edge_ends(batch.column("k").to_numpy(zero_copy_only=False))
        du = vals[pc.index_in(pa.array(u, pa.int64()), value_set=keys).to_numpy(
            zero_copy_only=False)]
        dv = vals[pc.index_in(pa.array(v, pa.int64()), value_set=keys).to_numpy(
            zero_copy_only=False)]
        # low-degree endpoint sources the edge; ties break to smaller id
        swap = (dv < du) | ((dv == du) & (v < u))
        src = np.where(swap, v, u)
        dst = np.where(swap, u, v)
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "spk": pa.array((src % P).astype(np.int32), pa.int32()),
            }
        )

    def wedge_kernel(group: pa.Table) -> pa.Table:
        s = group.column("src").to_numpy(zero_copy_only=False)
        d = group.column("dst").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, s))
        s, d = s[order], d[order]  # d sorted and distinct within each run
        b = run_bounds(s)
        i, j = run_pairs(b[:-1], b[1:])
        k = (d[i] << _TRI_SHIFT) | d[j]
        return pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "side": pa.array(np.zeros(len(k), np.int8), pa.int8()),
                "mpk": pa.array((k % P).astype(np.int32), pa.int32()),
            }
        )

    wedges = exchange(
        edges.map_batches(orient, batch_format="pyarrow", zero_copy_batch=True),
        "spk",
        P,
        wedge_kernel,
    )

    def edge_side(batch: pa.Table) -> pa.Table:
        k = batch.column("k").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "side": pa.array(np.ones(len(k), np.int8), pa.int8()),
                "mpk": pa.array((k % P).astype(np.int32), pa.int32()),
            }
        )

    def match_count(group: pa.Table) -> pa.Table:
        k = group.column("k").to_numpy(zero_copy_only=False)
        side = group.column("side").to_numpy(zero_copy_only=False)
        hits = np.isin(k[side == 0], k[side == 1])
        return pa.table({"n": pa.array([int(hits.sum())], pa.int64())})

    both = wedges.union(
        edges.map_batches(edge_side, batch_format="pyarrow", zero_copy_batch=True)
    )
    parts = exchange(both, "mpk", P, match_count).to_pandas()
    return int(parts["n"].sum()) if len(parts) else 0


COPURCHASE_TRIANGLES_SQL = """
WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
pairs AS (
  SELECT a.l_partkey AS u, b.l_partkey AS v
  FROM op a
  JOIN op b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
),
edges AS (SELECT DISTINCT u, v FROM pairs)
SELECT CAST(count(*) AS BIGINT) AS n_triangles
FROM edges e1
JOIN edges e2 ON e2.u = e1.u AND e2.v > e1.v
JOIN edges e3 ON e3.u = e1.v AND e3.v = e2.v
"""


# -- weekday activity profile --------------------------------------------------


def weekday_profile(sf_dir: str) -> pa.Table:
    """Event count and value by (event_type, ISO weekday 1=Mon..7=Sun):
    the calendar-profile rollup.  keyed_aggregate's per-call combiner
    bounds the exchange at 7×#types rows per call; pyarrow's
    day_of_week(count_from_zero=False, week_start=1) is pinned equal to
    DuckDB's isodow."""
    events = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def weekday_rows(batch: pa.Table) -> pa.Table:
        dow = pc.cast(
            pc.day_of_week(batch.column("ts"), count_from_zero=False, week_start=1),
            pa.int64(),
        )
        cents = money_cents(batch.column("value").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "isodow": dow,
                "cents": pa.array(cents, pa.int64()),
            }
        )

    out = keyed_aggregate(
        events.map_batches(weekday_rows, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "isodow"],
        {"n_events": ("cents", "count"), "value_cents": ("cents", "sum")},
    ).to_pandas()
    if out.empty:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "isodow": pa.array([], pa.int64()),
                "n_events": pa.array([], pa.int64()),
                "value_cents": pa.array([], pa.int64()),
            }
        )
    out = out.sort_values(["event_type", "isodow"])
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "isodow": pa.array(out["isodow"].to_numpy().astype(np.int64), pa.int64()),
            "n_events": pa.array(out["n_events"].to_numpy().astype(np.int64), pa.int64()),
            "value_cents": pa.array(
                out["value_cents"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


WEEKDAY_PROFILE_SQL = """
SELECT event_type,
       CAST(isodow(ts) AS BIGINT) AS isodow,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS value_cents
FROM events
GROUP BY 1, 2
ORDER BY 1, 2
"""


# -- clamped running balance (reflected prefix scan) ---------------------------


def clamped_balance(sf_dir: str) -> "ray.data.Dataset":
    """Per-user running balance that cannot go below zero: purchases
    credit value cents, every other event type debits it, and the
    balance clamps at 0 (the inventory / wallet semantics).  The
    recursion b_i = max(0, b_{i-1} + x_i) looks inherently sequential,
    but has the Skorokhod-reflection closed form
    b_i = prefix_i − min(0, running_min(prefix_i)), so the kernel is
    cumsum + minimum.accumulate per user run — fully vectorized inside
    ONE partitioned_by_key(user_id) shuffle, with per-run resets done
    by subtracting the run-start offsets (no per-user loop)."""
    events = _read(
        sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"]
    )

    def kernel(part: pa.Table) -> pa.Table:
        u = part.column("user_id").to_numpy(zero_copy_only=False)
        t = pc.cast(
            pc.cast(part.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        cents = money_cents(part.column("value").to_numpy(zero_copy_only=False))
        et = part.column("event_type").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, t, u))
        u, eid, cents, et = u[order], eid[order], cents[order], et[order]
        signed = np.where(et == "purchase", cents, -cents)
        prefix = np.cumsum(signed)
        b = run_bounds(u)
        starts = np.repeat(b[:-1], np.diff(b))
        prefix = prefix - np.r_[np.int64(0), prefix][starts]  # reset per user
        # reflected running min must also reset per user: offset each
        # run's prefix by a strictly DECREASING plateau so minimum.accumulate
        # never carries an earlier run's (larger, by ≥ big−2·max|prefix|)
        # values into a later run, then remove the offset.  The plateau step
        # is data-derived (2·max|prefix|+1) with a loud int64 guard instead
        # of a fixed shift.
        run_id = np.repeat(np.arange(len(b) - 1, dtype=np.int64), np.diff(b))
        big = 2 * int(np.abs(prefix).max(initial=0)) + 1
        if big and int(run_id[-1]) > (2**63 - 1) // big:
            raise OverflowError("clamped_balance: lift plateau exceeds int64")
        lift = -run_id * np.int64(big)
        rmin = np.minimum.accumulate(prefix + lift) - lift
        bal = prefix - np.minimum(rmin, 0)
        return pa.table(
            {
                "event_id": pa.array(eid, pa.int64()),
                "user_id": pa.array(u, pa.int64()),
                "balance_cents": pa.array(bal, pa.int64()),
            }
        )

    return partitioned_by_key(events, "user_id", kernel)


CLAMPED_BALANCE_SQL = """
WITH s AS (
  SELECT event_id, user_id, ts,
         CAST(sum(CASE WHEN event_type = 'purchase'
                  THEN CAST(floor(value * 100 + 0.5) AS BIGINT)
                  ELSE -CAST(floor(value * 100 + 0.5) AS BIGINT) END)
           OVER (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
           AS BIGINT) AS prefix
  FROM events
)
SELECT event_id, user_id,
       CAST(prefix - LEAST(
         min(prefix) OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW),
         0) AS BIGINT) AS balance_cents
FROM s
"""


# -- rolling z-score anomaly detection -----------------------------------------


def anomaly_events(sf_dir: str) -> "ray.data.Dataset":
    """Events whose value deviates more than 3 sigma from the SAME user's
    trailing window (previous 8 events, current excluded, needs >= 4
    priors) — the streaming anomaly-detector shape.  The z-test is done
    in exact integer arithmetic on cents so Ray and the SQL oracle agree
    bit-for-bit: z^2 > 9 is equivalent to (n*x - s)^2 > 9*(n*q - s^2)
    with s/q the window's sum / sum-of-squares.  One keyed shuffle
    (partitioned_by_key on user_id); per-partition kernel is prefix sums
    + a searchsorted-free window via max(run_start, i-8)."""
    events = _read(
        sf_dir, "events", ["event_id", "ts", "user_id", "value"]
    )

    def kernel(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "value_cents": pa.array([], pa.int64()),
            }
        )
        u = part.column("user_id").to_numpy(zero_copy_only=False)
        t = pc.cast(
            pc.cast(part.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        cents = money_cents(part.column("value").to_numpy(zero_copy_only=False))
        if int(np.abs(cents).max(initial=0)) > 10**8:
            raise OverflowError(
                "anomaly_events: |cents| > 1e8 breaks the exact int64 z-test"
            )
        order = np.lexsort((eid, t, u))
        u, eid, cents = u[order], eid[order], cents[order]
        b = run_bounds(u)
        starts = np.repeat(b[:-1], np.diff(b))
        idx = np.arange(len(u), dtype=np.int64)
        lo = np.maximum(starts, idx - 8)
        ps = np.r_[np.int64(0), np.cumsum(cents)]
        qs = np.r_[np.int64(0), np.cumsum(cents * cents)]
        n = idx - lo
        s = ps[idx] - ps[lo]
        q = qs[idx] - qs[lo]
        d = n * cents - s
        flag = (n >= 4) & (d * d > 9 * (n * q - s * s))
        keep = np.flatnonzero(flag)
        if len(keep) == 0:
            return empty
        return pa.table(
            {
                "event_id": pa.array(eid[keep], pa.int64()),
                "user_id": pa.array(u[keep], pa.int64()),
                "value_cents": pa.array(cents[keep], pa.int64()),
            }
        )

    return partitioned_by_key(events, "user_id", kernel)


ANOMALY_EVENTS_SQL = """
WITH w AS (
  SELECT event_id, user_id,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS x,
         count(*) OVER win AS n,
         sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER win AS s,
         sum(CAST(floor(value * 100 + 0.5) AS BIGINT)
             * CAST(floor(value * 100 + 0.5) AS BIGINT)) OVER win AS q
  FROM events
  WINDOW win AS (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN 8 PRECEDING AND 1 PRECEDING)
)
SELECT CAST(event_id AS BIGINT) AS event_id,
       CAST(user_id AS BIGINT) AS user_id,
       CAST(x AS BIGINT) AS value_cents
FROM w
WHERE n >= 4 AND (n * x - s) * (n * x - s) > 9 * (n * q - s * s)
"""


# -- TPC-H Q4 shape: EXISTS semi-join via aggregate pushdown --------------------


def order_priority_exists(sf_dir: str) -> pa.Table:
    """Orders per priority class having AT LEAST ONE line shipped more
    than 30 days after the order date — TPC-H Q4's EXISTS semi-join.
    The EXISTS collapses to an aggregate pushdown: max(l_shipdate) per
    order decides the predicate, so lineitem pre-reduces to one
    (orderkey, max) row per batch BEFORE the shuffle, both sides meet in
    one keyed co-partition (union + exchange on pk), and each block
    emits O(#priorities) partial counts.  No order row fans out."""
    from ._util import wide_partitions

    P = wide_partitions()
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    lineitem = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    DAY_US = 86_400_000_000

    def order_prep(batch: pa.Table) -> pa.Table:
        k = pc.cast(batch.column("o_orderkey"), pa.int64())
        return pa.table(
            {
                "k": k,
                "days_us": pc.cast(
                    pc.cast(batch.column("o_orderdate"), pa.timestamp("us")),
                    pa.int64(),
                ),
                "prio": batch.column("o_orderpriority"),
                "side": pa.array(
                    np.zeros(batch.num_rows, np.int8), pa.int8()
                ),
                "pk": pa.array(
                    (k.to_numpy(zero_copy_only=False) % P).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    def line_prep(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "k": pc.cast(batch.column("l_orderkey"), pa.int64()),
                "ship_us": pc.cast(
                    pc.cast(batch.column("l_shipdate"), pa.timestamp("us")),
                    pa.int64(),
                ),
            }
        )
        g = t.group_by("k").aggregate([("ship_us", "max")])
        k = g.column("k")
        return pa.table(
            {
                "k": k,
                "days_us": g.column("ship_us_max"),
                "prio": pa.nulls(g.num_rows, pa.string()),
                "side": pa.array(np.ones(g.num_rows, np.int8), pa.int8()),
                "pk": pa.array(
                    (k.to_numpy(zero_copy_only=False) % P).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    both = orders.map_batches(
        order_prep, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        lineitem.map_batches(line_prep, batch_format="pyarrow", zero_copy_batch=True)
    )

    def kernel(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "o_orderpriority": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        side = group.column("side").to_numpy(zero_copy_only=False)
        k = group.column("k").to_numpy(zero_copy_only=False)
        days = group.column("days_us").to_numpy(zero_copy_only=False)
        lsel = np.flatnonzero(side == 1)
        osel = np.flatnonzero(side == 0)
        if len(osel) == 0 or len(lsel) == 0:
            return empty
        # collapse the line partials to one max per orderkey
        lk, lship = k[lsel], days[lsel]
        lorder = np.lexsort((lship, lk))
        lk, lship = lk[lorder], lship[lorder]
        b = run_bounds(lk)
        uk, umax = lk[b[:-1]], lship[b[1:] - 1]  # sorted by ship within key
        # probe: each order looks up its (unique) line max
        ok, odate = k[osel], days[osel]
        pos = np.searchsorted(uk, ok)
        pos_c = np.minimum(pos, len(uk) - 1)
        hit = (uk[pos_c] == ok) & (umax[pos_c] > odate + 30 * DAY_US)
        qual = np.flatnonzero(hit)
        if len(qual) == 0:
            return empty
        prio = group.column("prio").take(pa.array(osel[qual])).to_pylist()
        vals, counts = np.unique(np.asarray(prio, dtype=object), return_counts=True)
        return pa.table(
            {
                "o_orderpriority": pa.array([str(v) for v in vals], pa.string()),
                "n": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    out = keyed_aggregate(
        exchange(both, "pk", P, kernel), "o_orderpriority", {"n_orders": ("n", "sum")}
    ).to_pandas()
    if out.empty:
        return pa.table(
            {
                "o_orderpriority": pa.array([], pa.string()),
                "n_orders": pa.array([], pa.int64()),
            }
        )
    out = out.sort_values("o_orderpriority")
    return pa.table(
        {
            "o_orderpriority": pa.array(out["o_orderpriority"], pa.string()),
            "n_orders": pa.array(
                out["n_orders"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


ORDER_PRIORITY_EXISTS_SQL = """
SELECT o_orderpriority,
       CAST(count(*) AS BIGINT) AS n_orders
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey
                AND l.l_shipdate > o.o_orderdate + INTERVAL 30 DAY)
GROUP BY 1
ORDER BY 1
"""


# -- TPC-H Q13 shape: order-count distribution ----------------------------------


def customer_order_distribution(sf_dir: str) -> pa.Table:
    """How many customers placed exactly k orders (including k = 0) —
    TPC-H Q13's two-level aggregation.  The orders fact pre-collapses to
    per-batch (custkey, n) partials, meets the customer key list in one
    keyed co-partition, and each partition emits its LOCAL histogram
    (c_count, custdist) — so the global rollup is O(P x #distinct
    counts) regardless of customer cardinality.  Orphan orders (custkey
    not in customer) are excluded, zero-order customers counted, exactly
    LEFT JOIN semantics."""
    from ._util import wide_partitions

    P = wide_partitions()
    customers = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def cust_prep(batch: pa.Table) -> pa.Table:
        k = pc.cast(batch.column("c_custkey"), pa.int64())
        return pa.table(
            {
                "k": k,
                "n": pa.array(np.zeros(batch.num_rows, np.int64), pa.int64()),
                "side": pa.array(np.zeros(batch.num_rows, np.int8), pa.int8()),
                "pk": pa.array(
                    (k.to_numpy(zero_copy_only=False) % P).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    def order_prep(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "k": pc.cast(batch.column("o_custkey"), pa.int64()),
                "one": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
            }
        )
        g = t.group_by("k").aggregate([("one", "sum")])
        k = g.column("k")
        return pa.table(
            {
                "k": k,
                "n": g.column("one_sum"),
                "side": pa.array(np.ones(g.num_rows, np.int8), pa.int8()),
                "pk": pa.array(
                    (k.to_numpy(zero_copy_only=False) % P).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    both = customers.map_batches(
        cust_prep, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        orders.map_batches(order_prep, batch_format="pyarrow", zero_copy_batch=True)
    )

    def kernel(group: pa.Table) -> pa.Table:
        k = group.column("k").to_numpy(zero_copy_only=False)
        n = group.column("n").to_numpy(zero_copy_only=False)
        side = group.column("side").to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, n, side = k[order], n[order], side[order]
        b = run_bounds(k)
        run_n = np.add.reduceat(n, b[:-1])
        run_cust = np.add.reduceat((side == 0).astype(np.int64), b[:-1])
        counts = run_n[run_cust > 0]  # keys with a customer row only
        vals, freq = np.unique(counts, return_counts=True)
        return pa.table(
            {
                "c_count": pa.array(vals.astype(np.int64), pa.int64()),
                "custdist": pa.array(freq.astype(np.int64), pa.int64()),
            }
        )

    out = keyed_aggregate(
        exchange(both, "pk", P, kernel), "c_count", {"custdist": ("custdist", "sum")}
    ).to_pandas()
    if out.empty:
        return pa.table(
            {
                "c_count": pa.array([], pa.int64()),
                "custdist": pa.array([], pa.int64()),
            }
        )
    out = out.sort_values(["custdist", "c_count"], ascending=[False, False])
    return pa.table(
        {
            "c_count": pa.array(out["c_count"].to_numpy().astype(np.int64), pa.int64()),
            "custdist": pa.array(
                out["custdist"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


CUSTOMER_ORDER_DISTRIBUTION_SQL = """
SELECT CAST(c_count AS BIGINT) AS c_count,
       CAST(count(*) AS BIGINT) AS custdist
FROM (
  SELECT c.c_custkey, count(o.o_orderkey) AS c_count
  FROM customer c
  LEFT JOIN orders o ON c.c_custkey = o.o_custkey
  GROUP BY 1
)
GROUP BY 1
ORDER BY 2 DESC, 1 DESC
"""


# -- event-type co-occurrence matrix --------------------------------------------


def event_type_overlap(sf_dir: str) -> pa.Table:
    """For every unordered pair of event types, how many distinct users
    performed BOTH — the audience-overlap / co-occurrence matrix.  The
    (user, type) pairs pre-dedup inside each batch, co-locate per user in
    one keyed shuffle, and each partition expands its per-user distinct
    type sets into pairs with a fully vectorized grouped-arange (no
    Python loop over users) before pre-counting locally — the shuffle
    out of the kernel is O(#type-pairs) per partition."""
    events = _read(sf_dir, "events", ["user_id", "event_type"])

    def distinct_partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["user_id", "event_type"]).aggregate([])
        return g

    def kernel(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "t1": pa.array([], pa.string()),
                "t2": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        u = part.column("user_id").to_numpy(zero_copy_only=False)
        # dictionary-encode types once per partition
        enc = pc.dictionary_encode(pc.cast(part.column("event_type"), pa.string()))
        if isinstance(enc, pa.ChunkedArray):
            enc = enc.combine_chunks()
            if isinstance(enc, pa.ChunkedArray):
                enc = enc.chunk(0)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        vocab = enc.dictionary.to_pylist()
        # canonical code order must be LEXICOGRAPHIC so t1 < t2 holds
        rank = np.empty(len(vocab), np.int64)
        rank[np.argsort(np.asarray(vocab, dtype=object))] = np.arange(len(vocab))
        codes = rank[codes]
        vocab_sorted = sorted(vocab)
        # global distinct (user, type) within the partition
        order = np.lexsort((codes, u))
        u, codes = u[order], codes[order]
        keep = np.r_[True, (u[1:] != u[:-1]) | (codes[1:] != codes[:-1])]
        u, codes = u[keep], codes[keep]
        b = run_bounds(u)
        m = np.diff(b)
        local = np.arange(len(u), dtype=np.int64) - np.repeat(b[:-1], m)
        total = int(local.sum())
        if total == 0:
            return empty
        seg_start = np.cumsum(local) - local
        ar = np.arange(total, dtype=np.int64) - np.repeat(seg_start, local)
        i_idx = np.repeat(np.repeat(b[:-1], m), local) + ar
        j_idx = np.repeat(np.arange(len(u), dtype=np.int64), local)
        key = codes[i_idx] * np.int64(len(vocab_sorted)) + codes[j_idx]
        vals, cnt = np.unique(key, return_counts=True)
        t1 = [vocab_sorted[int(v) // len(vocab_sorted)] for v in vals]
        t2 = [vocab_sorted[int(v) % len(vocab_sorted)] for v in vals]
        return pa.table(
            {
                "t1": pa.array(t1, pa.string()),
                "t2": pa.array(t2, pa.string()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    deduped = events.map_batches(
        distinct_partial, batch_format="pyarrow", zero_copy_batch=True
    )
    out = keyed_aggregate(
        partitioned_by_key(deduped, "user_id", kernel),
        ["t1", "t2"],
        {"n_users": ("n", "sum")},
    ).to_pandas()
    if out.empty:
        return pa.table(
            {
                "t1": pa.array([], pa.string()),
                "t2": pa.array([], pa.string()),
                "n_users": pa.array([], pa.int64()),
            }
        )
    out = out.sort_values(["t1", "t2"])
    return pa.table(
        {
            "t1": pa.array(out["t1"], pa.string()),
            "t2": pa.array(out["t2"], pa.string()),
            "n_users": pa.array(out["n_users"].to_numpy().astype(np.int64), pa.int64()),
        }
    )


EVENT_TYPE_OVERLAP_SQL = """
SELECT t1, t2, CAST(count(*) AS BIGINT) AS n_users
FROM (
  SELECT DISTINCT a.user_id, a.event_type AS t1, b.event_type AS t2
  FROM events a
  JOIN events b ON a.user_id = b.user_id AND a.event_type < b.event_type
)
GROUP BY 1, 2
ORDER BY 1, 2
"""


# -- TPC-H Q17-shaped: revenue from unusually-small-quantity line items --------


def small_qty_revenue(sf_dir: str) -> "ray.data.Dataset":
    """Total revenue (exact cents) and row count of line items whose
    quantity is below 20% of their part's average order quantity — the
    Q17 "small-quantity order" shape, adapted to an integer-exact
    predicate so the oracle mirrors bit-for-bit.

    Scale shape: ONE keyed shuffle of narrow (partkey, qty, cents) rows
    via partitioned_by_key(l_partkey); each partition computes every
    part's (count, sum_qty) with a lexsort + run-boundary sweep and
    applies the predicate ``5 * qty * cnt < sum_qty`` (⇔ qty < 0.2 ×
    avg, exact in int64: qty ≤ 50, cnt and sum_qty per part are corpus
    row counts, so the product stays < 2^63 until ~7e16 rows per part).
    No avg-table broadcast, no join — the Q17 correlated subquery
    collapses into the partition kernel.  Output: one exact row."""
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_quantity", "l_extendedprice"])

    def narrow(batch: pa.Table) -> pa.Table:
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "k": batch.column("l_partkey"),
                "q": pa.array(qty.astype(np.int64), pa.int64()),
                "cents": pa.array(
                    money_cents(
                        batch.column("l_extendedprice").to_numpy(
                            zero_copy_only=False
                        )
                    ),
                    pa.int64(),
                ),
            }
        )

    def kernel(part: pa.Table) -> pa.Table:
        k = part.column("k").to_numpy(zero_copy_only=False)
        q = part.column("q").to_numpy(zero_copy_only=False)
        c = part.column("cents").to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, q, c = k[order], q[order], c[order]
        b = run_bounds(k)
        m = np.diff(b)
        cnt = np.repeat(m, m)
        sq = np.repeat(np.add.reduceat(q, b[:-1]), m)
        sel = 5 * q * cnt < sq
        return pa.table(
            {
                "small_qty_cents": pa.array([int(c[sel].sum())], pa.int64()),
                "small_qty_rows": pa.array([int(sel.sum())], pa.int64()),
            }
        )

    narrowed = li.map_batches(narrow, batch_format="pyarrow", zero_copy_batch=True)
    partials = partitioned_by_key(narrowed, "k", kernel)

    def rollup(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "small_qty_cents": pa.array(
                    [int(pc.sum(t.column("small_qty_cents")).as_py() or 0)],
                    pa.int64(),
                ),
                "small_qty_rows": pa.array(
                    [int(pc.sum(t.column("small_qty_rows")).as_py() or 0)],
                    pa.int64(),
                ),
            }
        )

    # One-row partials, one per exchange block → a single-row rollup.
    # A zero seed row keeps the scalar contract on EMPTY input: the SQL
    # aggregate always yields one row, and map_batches is never invoked
    # over zero batches.
    seed = ray.data.from_arrow(
        pa.table(
            {
                "small_qty_cents": pa.array([0], pa.int64()),
                "small_qty_rows": pa.array([0], pa.int64()),
            }
        )
    )
    return partials.union(seed).repartition(1).map_batches(
        rollup, batch_format="pyarrow", batch_size=None
    )


SMALL_QTY_REVENUE_SQL = """
WITH s AS (
  SELECT l_partkey,
         COUNT(*) AS cnt,
         SUM(CAST(l_quantity AS BIGINT)) AS sq
  FROM lineitem GROUP BY 1
)
SELECT CAST(COALESCE(SUM(CASE WHEN 5 * CAST(l.l_quantity AS BIGINT) * s.cnt < s.sq
                     THEN CAST(floor(l.l_extendedprice * 100 + 0.5) AS BIGINT)
                     ELSE 0 END), 0) AS BIGINT) AS small_qty_cents,
       CAST(COALESCE(SUM(CASE WHEN 5 * CAST(l.l_quantity AS BIGINT) * s.cnt < s.sq
                     THEN 1 ELSE 0 END), 0) AS BIGINT) AS small_qty_rows
FROM lineitem l JOIN s ON l.l_partkey = s.l_partkey
"""


# -- gaps-and-islands over an integer keyspace ---------------------------------


_GAP_BUCKET = 1 << 16  # keys per bucket in the gap detector's level-1 pass


def orderkey_gaps(sf_dir: str) -> "ray.data.Dataset":
    """Maximal runs of order keys that appear in ``orders`` but have NO
    line items — the gaps-and-islands detector over an integer keyspace
    (data-quality / completeness auditing: "which key ranges are
    missing?").

    Scale shape: distinct keys bucket by ``key // 2^16`` and co-locate
    with ONE keyed shuffle (partitioned_by_key); each bucket finds its
    internal gaps with a vectorized sorted-diff.  Cross-bucket gaps come
    from the bucket summary (bucket, min, max) — a table 2^16× smaller
    than the keyspace that collapses to one partition for the boundary
    sweep (at a 2^48 keyspace the summary is ~4e9 rows: insert a second
    bucketing level of the same kernel before the collapse — same code
    shape, documented bound).  Gap edges against the GLOBAL key range
    [min, max] are closed by the summary pass, so output is exactly the
    lead/lag SQL's."""
    li = _read(sf_dir, "lineitem", ["l_orderkey"])

    def bucketed(batch: pa.Table) -> pa.Table:
        k = np.unique(batch.column("l_orderkey").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "b": pa.array(k // _GAP_BUCKET, pa.int64()),
                "k": pa.array(k, pa.int64()),
            }
        )

    def bucket_kernel(part: pa.Table) -> pa.Table:
        b = part.column("b").to_numpy(zero_copy_only=False)
        k = part.column("k").to_numpy(zero_copy_only=False)
        order = np.lexsort((k, b))
        b, k = b[order], k[order]
        keep = np.r_[True, (b[1:] != b[:-1]) | (k[1:] != k[:-1])]
        b, k = b[keep], k[keep]
        gs_list, ge_list = [], []
        same = np.flatnonzero(b[1:] == b[:-1])
        gap = same[k[same + 1] > k[same] + 1]
        gs_list.append(k[gap] + 1)
        ge_list.append(k[gap + 1] - 1)
        # bucket summary rows ride along tagged with gap_start = -1
        first = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        last = np.r_[first[1:] - 1, len(b) - 1] if len(b) else np.array([], np.int64)
        return pa.table(
            {
                "gap_start": pa.array(
                    np.concatenate([gs_list[0], np.full(len(first), -1, np.int64)]),
                    pa.int64(),
                ),
                "gap_end": pa.array(
                    np.concatenate([ge_list[0], b[first] if len(b) else b]),
                    pa.int64(),
                ),
                "lo": pa.array(
                    np.concatenate([np.zeros(len(gap), np.int64), k[first]]),
                    pa.int64(),
                ),
                "hi": pa.array(
                    np.concatenate([np.zeros(len(gap), np.int64), k[last]]),
                    pa.int64(),
                ),
            }
        )

    level1 = partitioned_by_key(
        li.map_batches(bucketed, batch_format="pyarrow", zero_copy_batch=True),
        "b",
        bucket_kernel,
    ).materialize()

    gaps_inner = level1.filter(
        expr="gap_start >= 0"
    ).select_columns(["gap_start", "gap_end"])

    def boundary_kernel(t: pa.Table) -> pa.Table:
        lo = t.column("lo").to_numpy(zero_copy_only=False)
        hi = t.column("hi").to_numpy(zero_copy_only=False)
        bb = t.column("gap_end").to_numpy(zero_copy_only=False)  # bucket id
        order = np.argsort(bb, kind="stable")
        lo, hi = lo[order], hi[order]
        gs = hi[:-1] + 1
        ge = lo[1:] - 1
        sel = ge >= gs
        return pa.table(
            {
                "gap_start": pa.array(gs[sel], pa.int64()),
                "gap_end": pa.array(ge[sel], pa.int64()),
            }
        )

    boundary = (
        level1.filter(expr="gap_start < 0")
        .repartition(1)
        .map_batches(boundary_kernel, batch_format="pyarrow", batch_size=None)
    )
    return gaps_inner.union(boundary)


ORDERKEY_GAPS_SQL = """
WITH k AS (SELECT DISTINCT l_orderkey AS k FROM lineitem),
     l AS (SELECT k, lead(k) OVER (ORDER BY k) AS nk FROM k)
SELECT CAST(k + 1 AS BIGINT) AS gap_start,
       CAST(nk - 1 AS BIGINT) AS gap_end
FROM l WHERE nk > k + 1
ORDER BY 1
"""


# -- degree distribution of the co-purchase graph ------------------------------


def copurchase_degree_hist(sf_dir: str) -> "ray.data.Dataset":
    """Degree histogram of the part co-purchase graph (parts adjacent
    when they share an order): how many parts have degree d, for each d.
    The graph-profile companion to copurchase_triangles.

    Scale shape: the shared edge build (_copurchase_edges), the shared
    (node, degree) rollup (_copurchase_degrees), then the histogram is a
    second bounded rollup over ≤ max-degree rows.  Nothing materializes
    beyond the edge set, which is the graph's sparse core."""
    from ._util import wide_partitions

    edges = _copurchase_edges(sf_dir, wide_partitions())
    return keyed_aggregate(
        _copurchase_degrees(edges), "degree", {"n_parts": ("degree", "count")}
    )


COPURCHASE_DEGREE_HIST_SQL = """
WITH e AS (
  SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
  FROM lineitem a
  JOIN lineitem b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
),
d AS (
  SELECT k, COUNT(*) AS deg
  FROM (SELECT pa AS k FROM e UNION ALL SELECT pb AS k FROM e)
  GROUP BY k
)
SELECT CAST(deg AS BIGINT) AS degree, CAST(COUNT(*) AS BIGINT) AS n_parts
FROM d GROUP BY deg ORDER BY 1
"""


# -- interval boundary sweep: peak concurrency per event type ------------------


def max_concurrent_events(sf_dir: str) -> "ray.data.Dataset":
    """Peak number of simultaneously-active events per event type, where
    an event is active on the half-open interval
    [ts, ts + floor(value) seconds) — the classic interval boundary
    sweep (room-scheduling / peak-load), order-dependent state that a
    plain aggregate cannot express.

    Scale shape: each event emits two fixed-width boundary rows
    (type-hash, t_us, ±1); ONE keyed shuffle co-locates each type's
    boundaries; the partition kernel sorts (key, t, d) — ends before
    starts at equal t, matching the half-open semantics — and takes each
    run's max prefix sum via one global cumsum + np.maximum.reduceat.
    No per-event Python, state bounded by the partition."""
    from ._util import blake2_u63

    ev = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def boundaries(batch: pa.Table) -> pa.Table:
        t = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()).to_numpy(zero_copy_only=False)
        dur = np.floor(
            batch.column("value").to_numpy(zero_copy_only=False)
        ).astype(np.int64) * 1_000_000
        et = batch.column("event_type").to_pylist()
        kh = blake2_u63(et)
        return pa.table(
            {
                "kh": pa.array(np.concatenate([kh, kh]), pa.int64()),
                "event_type": pa.array(et + et, pa.string()),
                "t": pa.array(np.concatenate([t, t + dur]), pa.int64()),
                "d": pa.array(
                    np.concatenate(
                        [np.ones(len(t), np.int64), -np.ones(len(t), np.int64)]
                    ),
                    pa.int64(),
                ),
            }
        )

    def sweep(part: pa.Table) -> pa.Table:
        kh = part.column("kh").to_numpy(zero_copy_only=False)
        t = part.column("t").to_numpy(zero_copy_only=False)
        d = part.column("d").to_numpy(zero_copy_only=False)
        et = np.asarray(part.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((d, t, kh))
        kh, t, d, et = kh[order], t[order], d[order], et[order]
        b = run_bounds(kh)
        cs = np.cumsum(d)
        peak = np.maximum.reduceat(cs, b[:-1])
        base = np.r_[0, cs[b[1:-1] - 1]]
        return pa.table(
            {
                "event_type": pa.array(et[b[:-1]], pa.string()),
                "max_concurrent": pa.array(peak - base, pa.int64()),
            }
        )

    return partitioned_by_key(
        ev.map_batches(boundaries, batch_format="pyarrow", zero_copy_batch=True),
        "kh",
        sweep,
    )


MAX_CONCURRENT_EVENTS_SQL = """
WITH b AS (
  SELECT event_type, CAST(epoch_us(ts) AS BIGINT) AS t, 1 AS d FROM events
  UNION ALL
  SELECT event_type,
         CAST(epoch_us(ts) AS BIGINT)
           + CAST(floor(value) AS BIGINT) * 1000000,
         -1
  FROM events
),
c AS (
  SELECT event_type,
         SUM(d) OVER (PARTITION BY event_type ORDER BY t, d
                      ROWS UNBOUNDED PRECEDING) AS cur
  FROM b
)
SELECT event_type, CAST(MAX(cur) AS BIGINT) AS max_concurrent
FROM c GROUP BY 1 ORDER BY 1
"""


# -- sliding-window exact distinct count ---------------------------------------

_SLIDING_DISTINCT_HOURS = 3


def sliding_distinct_users(sf_dir: str) -> "ray.data.Dataset":
    """Distinct users in the trailing 3-hour window anchored at each
    event hour — exact sliding-window COUNT DISTINCT, which no windowed
    SUM can fake (the same user in two of the three hours must count
    once).

    Scale shape: a distinct keyed aggregate dedups (hour, user), each
    distinct pair fans out to ≤3 window anchors gated by the broadcast
    set of hours that actually exist (the dimension side: bounded by
    the time span, ~9k/year), then a user-keyed dedup of (anchor, user)
    collapses cross-hour repeats into per-partition (anchor,
    partial-count) rows for a bounded keyed sum.  Keyed exchanges of
    int64 pairs only; the corpus text/value columns never move."""
    HOUR_US = 3_600 * 1_000_000
    ev = _read(sf_dir, "events", ["ts", "user_id"])

    def hour_user(batch: pa.Table) -> pa.Table:
        t = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "h": pa.array((t // HOUR_US) * HOUR_US, pa.int64()),
                "u": batch.column("user_id"),
            }
        )

    pairs = keyed_aggregate(
        ev.map_batches(hour_user, batch_format="pyarrow", zero_copy_batch=True),
        ["h", "u"],
        {},
    ).materialize()  # reused: anchor-hour dimension + fan-out source

    # dimension side: the set of hours that actually occur (bounded by
    # the corpus time span, not its size) — broadcast once
    hours_df = ensure_columns(keyed_aggregate(pairs, "h", {}).to_pandas(), ["h"])
    hours_ref = ray.put(np.unique(hours_df["h"].to_numpy().astype(np.int64)))

    def fan_out(batch: pa.Table) -> pa.Table:
        valid = ray.get(hours_ref)
        h = batch.column("h").to_numpy(zero_copy_only=False)
        u = batch.column("u").to_numpy(zero_copy_only=False)
        w = np.arange(_SLIDING_DISTINCT_HOURS, dtype=np.int64) * HOUR_US
        anchor = (h[:, None] + w[None, :]).ravel()
        uu = np.repeat(u, _SLIDING_DISTINCT_HOURS)
        keep = np.isin(anchor, valid)
        return pa.table(
            {
                "anchor": pa.array(anchor[keep], pa.int64()),
                "u": pa.array(uu[keep], pa.int64()),
            }
        )

    def count_partial(part: pa.Table) -> pa.Table:
        au = np.unique(
            np.stack(
                [
                    part.column("anchor").to_numpy(zero_copy_only=False),
                    part.column("u").to_numpy(zero_copy_only=False),
                ],
                axis=1,
            ),
            axis=0,
        )
        a, c = np.unique(au[:, 0], return_counts=True)
        return pa.table(
            {
                "anchor": pa.array(a, pa.int64()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    counted = keyed_aggregate(
        partitioned_by_key(
            pairs.map_batches(fan_out, batch_format="pyarrow", zero_copy_batch=True),
            "u",
            count_partial,
        ),
        "anchor",
        {"n_users": ("c", "sum")},
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "hour": pc.cast(t.column("anchor"), pa.timestamp("us")),
                "n_users": pc.cast(t.column("n_users"), pa.int64()),
            }
        )

    return counted.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


SLIDING_DISTINCT_USERS_SQL = """
WITH hu AS (SELECT DISTINCT date_trunc('hour', ts) AS h, user_id FROM events),
     hours AS (SELECT DISTINCT h FROM hu)
SELECT o.h AS hour, CAST(COUNT(DISTINCT u.user_id) AS BIGINT) AS n_users
FROM hours o
JOIN hu u ON u.h >= o.h - INTERVAL 2 HOUR AND u.h <= o.h
GROUP BY 1 ORDER BY 1
"""


# -- running distinct: cumulative unique users by day --------------------------


def cumulative_unique_users(sf_dir: str) -> "ray.data.Dataset":
    """Running total of distinct users ever seen, by day — the growth
    curve every corpus/product report wants, and a window COUNT(DISTINCT)
    no plain aggregate expresses.

    Scale shape: distinct-accumulation collapses to first-seen-day per
    user (ONE user-keyed min), then a per-day count (bounded by the time
    span) and a prefix sum over that bounded day table on the driver."""
    ev = _read(sf_dir, "events", ["ts", "user_id"])
    DAY_US = 86_400 * 1_000_000

    def user_day(batch: pa.Table) -> pa.Table:
        t = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "u": batch.column("user_id"),
                "d": pa.array((t // DAY_US) * DAY_US, pa.int64()),
            }
        )

    firsts = keyed_aggregate(
        ev.map_batches(user_day, batch_format="pyarrow", zero_copy_batch=True),
        "u",
        {"d": ("d", "min")},
    )
    days = ensure_columns(
        keyed_aggregate(firsts, "d", {"n": ("d", "count")}).to_pandas(),
        ["d", "n"],
    ).sort_values("d")  # bounded: one row per calendar day in the corpus
    return ray.data.from_arrow(
        pa.table(
            {
                "day": pa.array(days["d"].to_numpy(), pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "cum_users": pa.array(
                    np.cumsum(days["n"].to_numpy()).astype(np.int64), pa.int64()
                ),
            }
        )
    )


CUMULATIVE_UNIQUE_USERS_SQL = """
WITH f AS (
  SELECT user_id, min(date_trunc('day', ts)) AS d FROM events GROUP BY 1
),
c AS (SELECT d, count(*) AS n FROM f GROUP BY 1)
SELECT CAST(d AS TIMESTAMP) AS day,
       CAST(SUM(n) OVER (ORDER BY d ROWS UNBOUNDED PRECEDING) AS BIGINT)
         AS cum_users
FROM c ORDER BY 1
"""


# -- per-user longest consecutive-day activity streak --------------------------


def user_activity_streak(sf_dir: str) -> "ray.data.Dataset":
    """Longest run of consecutive active days per user — per-key
    gaps-and-islands, the engagement metric that needs order within key.

    Scale shape: per-batch distinct (user, day) pairs shrink the
    exchange, ONE user-keyed shuffle co-locates each user's days, and
    the partition kernel finds every user's longest streak in one
    vectorized sweep (lexsort → dedup → consecutive-day run boundaries →
    maximum.reduceat over run lengths)."""
    ev = _read(sf_dir, "events", ["ts", "user_id"])
    DAY_US = 86_400 * 1_000_000

    def narrow(batch: pa.Table) -> pa.Table:
        t = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()).to_numpy(zero_copy_only=False)
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        ud = np.unique(np.stack([u, (t // DAY_US)], axis=1), axis=0)
        return pa.table(
            {"u": pa.array(ud[:, 0], pa.int64()), "d": pa.array(ud[:, 1], pa.int64())}
        )

    def kernel(part: pa.Table) -> pa.Table:
        u = part.column("u").to_numpy(zero_copy_only=False)
        d = part.column("d").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, u))
        u, d = u[order], d[order]
        keep = np.r_[True, (u[1:] != u[:-1]) | (d[1:] != d[:-1])]
        u, d = u[keep], d[keep]
        # streak boundary: new user OR non-consecutive day
        new_run = np.r_[True, (u[1:] != u[:-1]) | (d[1:] != d[:-1] + 1)]
        rb = np.flatnonzero(np.r_[new_run, True]).astype(np.int64)
        run_len = np.diff(rb)
        run_user = u[rb[:-1]]
        ub = run_bounds(run_user)
        return pa.table(
            {
                "user_id": pa.array(run_user[ub[:-1]], pa.int64()),
                "max_streak": pa.array(
                    np.maximum.reduceat(run_len, ub[:-1]), pa.int64()
                ),
            }
        )

    return partitioned_by_key(
        ev.map_batches(narrow, batch_format="pyarrow", zero_copy_batch=True),
        "u",
        kernel,
    )


USER_ACTIVITY_STREAK_SQL = """
WITH ud AS (SELECT DISTINCT user_id, date_trunc('day', ts) AS d FROM events),
g AS (
  SELECT user_id,
         d - to_days(CAST(dense_rank() OVER
             (PARTITION BY user_id ORDER BY d) AS INTEGER)) AS grp
  FROM ud
),
s AS (SELECT user_id, count(*) AS streak FROM g GROUP BY user_id, grp)
SELECT user_id, CAST(max(streak) AS BIGINT) AS max_streak
FROM s GROUP BY 1 ORDER BY 1
"""


# -- exact weighted median over a bounded value domain -------------------------


def weighted_median_discount(sf_dir: str) -> "ray.data.Dataset":
    """Quantity-weighted median discount per return flag — the exact
    weighted quantile (the unweighted percentile machinery cannot answer
    "the discount at which half the SHIPPED UNITS sit below").

    Scale shape: the discount domain is bounded (integer percent after
    the module money rule), so one keyed (flag, disc_pct) → Σqty
    aggregate collapses the corpus into a ≤ flags × 101-row weight
    histogram; it and the cumulative crossing pick are O(domain), driver
    state bounded and corpus-size-independent.  Pick rule: smallest
    disc with 2·cumweight ≥ totalweight (the SQL mirror states it
    identically)."""
    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_discount", "l_quantity"])

    def weights(batch: pa.Table) -> pa.Table:
        disc = money_cents(
            batch.column("l_discount").to_numpy(zero_copy_only=False)
        )  # discount in integer percent-of-hundred units (0.05 -> 5)
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "f": batch.column("l_returnflag"),
                "d": pa.array(disc, pa.int64()),
                "w": pa.array(qty, pa.int64()),
            }
        )

    hist = ensure_columns(
        keyed_aggregate(
            li.map_batches(weights, batch_format="pyarrow", zero_copy_batch=True),
            ["f", "d"],
            {"w": ("w", "sum")},
        ).to_pandas(),  # bounded: flags x discount domain (<= 3 x 101 rows)
        ["f", "d", "w"],
    ).sort_values(["f", "d"])
    flags, medians = [], []
    for f, sub in hist.groupby("f", sort=True):
        w = sub["w"].to_numpy()
        cw = np.cumsum(w)
        i = int(np.flatnonzero(2 * cw >= cw[-1])[0])
        flags.append(f)
        medians.append(int(sub["d"].to_numpy()[i]))
    return ray.data.from_arrow(
        pa.table(
            {
                "l_returnflag": pa.array(flags, pa.string()),
                "weighted_median_disc": pa.array(medians, pa.int64()),
            }
        )
    )


WEIGHTED_MEDIAN_DISCOUNT_SQL = """
WITH g AS (
  SELECT l_returnflag AS f,
         CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS d,
         SUM(CAST(l_quantity AS BIGINT)) AS w
  FROM lineitem GROUP BY 1, 2
),
c AS (
  SELECT f, d,
         SUM(w) OVER (PARTITION BY f ORDER BY d ROWS UNBOUNDED PRECEDING) AS cw,
         SUM(w) OVER (PARTITION BY f) AS tw
  FROM g
)
SELECT f AS l_returnflag,
       CAST(MIN(d) AS BIGINT) AS weighted_median_disc
FROM c WHERE 2 * cw >= tw GROUP BY 1 ORDER BY 1
"""


# -- brand co-purchase affinity (lift) -----------------------------------------


def brand_affinity_lift(sf_dir: str) -> "ray.data.Dataset":
    """Market-basket lift between brands co-occurring in an order,
    as exact integer permille: lift = N·c(a,b) / (c(a)·c(b)) where
    counts are ORDERS containing the brand (pair counts ordered a<b).

    Scale shape: lineitem meets part through the join planner
    (auto_equi_join: a broadcast probe at tested scales); each brand's
    code is its rank among the distinct brands, a brand-grain keyed
    aggregate over part, so one code holds for the whole run; per-order
    distinct brand sets collapse under ONE order-keyed shuffle (≤25
    brands per order → the run_pairs expansion is bounded per order); pair
    and marginal counts are bounded rollups (≤ brands² rows); the lift
    arithmetic is a driver-side O(brands²) pass with an explicit int64
    overflow guard (1000·N·c_ab must stay < 2^63 — trips loudly at
    ~9e15 order-pairs)."""
    distinct = keyed_aggregate(_read(sf_dir, "part", ["p_brand"]), "p_brand", {})
    # bounded: one row per brand
    names = ensure_columns(distinct.to_pandas(), ["p_brand"])["p_brand"]
    brands = pa.array(sorted(names), pa.string())
    li = auto_equi_join(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"]),
        f"{sf_dir}/part.parquet",
        "l_partkey",
        "p_partkey",
        [("l_orderkey", pa.int64())],
        [("p_brand", pa.string())],
    )

    def narrow(batch: pa.Table) -> pa.Table:
        b = pc.index_in(batch.column("p_brand"), value_set=brands).to_numpy(
            zero_copy_only=False
        )
        o = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        u = np.unique(np.stack([o, b], axis=1), axis=0)
        return pa.table(
            {"o": pa.array(u[:, 0], pa.int64()), "b": pa.array(u[:, 1], pa.int64())}
        )

    def order_kernel(partn: pa.Table) -> pa.Table:
        o = partn.column("o").to_numpy(zero_copy_only=False)
        b = partn.column("b").to_numpy(zero_copy_only=False)
        order = np.lexsort((b, o))
        o, b = o[order], b[order]
        keep = np.r_[True, (o[1:] != o[:-1]) | (b[1:] != b[:-1])]
        o, b = o[keep], b[keep]
        bounds = run_bounds(o)
        n_orders = len(bounds) - 1
        i, j = run_pairs(bounds[:-1], bounds[1:])
        up, cp = np.unique(b[i] * 1000 + b[j], return_counts=True)
        us, cs = np.unique(b, return_counts=True)
        # three row kinds ride one schema: kind 0 = order count, 1 =
        # single-brand marginal, 2 = pair count
        return pa.table(
            {
                "kind": pa.array(
                    np.r_[
                        np.zeros(1, np.int64),
                        np.ones(len(us), np.int64),
                        np.full(len(up), 2, np.int64),
                    ],
                    pa.int64(),
                ),
                "key": pa.array(np.r_[np.zeros(1, np.int64), us, up], pa.int64()),
                "n": pa.array(
                    np.r_[np.array([n_orders], np.int64), cs, cp], pa.int64()
                ),
            }
        )

    counts = keyed_aggregate(
        partitioned_by_key(
            li.map_batches(narrow, batch_format="pyarrow", zero_copy_batch=True),
            "o",
            order_kernel,
        ),
        ["kind", "key"],
        {"n": ("n", "sum")},
    ).to_pandas()  # bounded: 1 + brands + brands^2 rows
    empty_out = pa.table(
        {
            "brand_a": pa.array([], pa.string()),
            "brand_b": pa.array([], pa.string()),
            "n_orders": pa.array([], pa.int64()),
            "lift_permille": pa.array([], pa.int64()),
        }
    )
    if "kind" not in counts.columns:  # empty corpus: columnless frame
        return ray.data.from_arrow(empty_out)
    N = int(counts.loc[counts["kind"] == 0, "n"].sum())
    marg = dict(
        zip(
            counts.loc[counts["kind"] == 1, "key"].astype(int),
            counts.loc[counts["kind"] == 1, "n"].astype(int),
        )
    )
    blist = brands.to_pylist()
    out_a, out_b, out_n, out_l = [], [], [], []
    pairs_df = counts.loc[counts["kind"] == 2]
    for key, c_ab in zip(pairs_df["key"].astype(int), pairs_df["n"].astype(int)):
        a, b = key // 1000, key % 1000
        if 1000 * N * c_ab >= (1 << 63) // 2:
            raise OverflowError("brand_affinity_lift: permille product overflows")
        out_a.append(blist[a])
        out_b.append(blist[b])
        out_n.append(c_ab)
        out_l.append((1000 * N * c_ab) // (marg[a] * marg[b]))
    return ray.data.from_arrow(
        pa.table(
            {
                "brand_a": pa.array(out_a, pa.string()),
                "brand_b": pa.array(out_b, pa.string()),
                "n_orders": pa.array(out_n, pa.int64()),
                "lift_permille": pa.array(out_l, pa.int64()),
            }
        )
    )


BRAND_AFFINITY_LIFT_SQL = """
WITH ob AS (
  SELECT DISTINCT l.l_orderkey AS o, p.p_brand AS b
  FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
),
n AS (SELECT count(DISTINCT o) AS n_total FROM ob),
m AS (SELECT b, count(*) AS c FROM ob GROUP BY 1),
pr AS (
  SELECT a.b AS ba, bb.b AS bb, count(*) AS c_ab
  FROM ob a JOIN ob bb ON a.o = bb.o AND a.b < bb.b
  GROUP BY 1, 2
)
SELECT pr.ba AS brand_a, pr.bb AS brand_b,
       CAST(pr.c_ab AS BIGINT) AS n_orders,
       CAST((1000 * n.n_total * pr.c_ab) // (ma.c * mb.c) AS BIGINT)
         AS lift_permille
FROM pr CROSS JOIN n
JOIN m ma ON ma.b = pr.ba
JOIN m mb ON mb.b = pr.bb
ORDER BY 1, 2
"""


# -- as-of join, FORWARD direction ----------------------------------------------


def asof_join_forward(sf_dir: str) -> "ray.data.Dataset":
    """Forward as-of join: each ORDER picks the customer's EARLIEST
    event with ts >= o_orderdate (ties broken by min event_id) — "the
    next signal after the action", the direction the backward join
    cannot answer.  (Orders probe events here because the synthetic
    clock puts all events after all orders; the composition is
    direction-symmetric.)

    Same single-keyed-shuffle composition as asof_join_events_orders:
    both sides union under one customer-keyed shuffle and every probe
    resolves with ONE searchsorted on the composite (key-run · span +
    ts) axis — side="left" instead of "right"-1, and the ascending
    (key, ts, id) build order makes equal-ts ties land on min id."""

    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_orderkey"])
    events = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def order_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": batch.column("o_custkey"),
                "ts_us": pc.cast(batch.column("o_orderdate"), pa.int64()),
                "row_id": batch.column("o_orderkey"),
                "side": pa.array(np.ones(n, dtype=np.int8)),  # probe side
            }
        )

    def event_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "key": batch.column("user_id"),
                "ts_us": pc.cast(
                    pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()
                ),
                "row_id": batch.column("event_id"),
                "side": pa.array(np.zeros(n, dtype=np.int8)),  # build side
            }
        )

    both = orders.map_batches(
        order_rows, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        events.map_batches(event_rows, batch_format="pyarrow", zero_copy_batch=True)
    )

    def probe_part(part: pa.Table) -> pa.Table:
        side = part.column("side").to_numpy(zero_copy_only=False)
        key = part.column("key").to_numpy(zero_copy_only=False)
        ts = part.column("ts_us").to_numpy(zero_copy_only=False)
        rid = part.column("row_id").to_numpy(zero_copy_only=False)
        is_build = side == 0
        b_key, b_ts, b_id = key[is_build], ts[is_build], rid[is_build]
        p_key, p_ts, p_id = key[~is_build], ts[~is_build], rid[~is_build]
        empty = pa.table(
            {
                "o_orderkey": pa.array([], pa.int64()),
                "o_custkey": pa.array([], pa.int64()),
                "o_orderdate": pa.array([], pa.timestamp("us")),
                "event_id": pa.array([], pa.int64()),
                "ts": pa.array([], pa.timestamp("us")),
            }
        )
        if len(b_ts) == 0 or len(p_ts) == 0:
            return empty
        uniq = np.unique(key)
        t0 = int(ts.min())
        span = int(ts.max()) - t0 + 2
        if len(uniq) * span >= 2**62:
            raise OverflowError(
                "asof_join_forward: key-count x time-span exceeds the "
                "composite searchsorted key — shrink the partition (raise P)"
            )
        b_kidx = np.searchsorted(uniq, b_key)
        p_kidx = np.searchsorted(uniq, p_key)
        order = np.lexsort((b_id, b_ts, b_kidx))
        b_kidx, b_ts, b_id = b_kidx[order], b_ts[order], b_id[order]
        bcomp = b_kidx * span + (b_ts - t0)
        # leftmost event with ts >= order date IN THE SAME KEY RUN:
        # equal-ts groups sort by id ascending, so side="left" = min id.
        pos = np.searchsorted(bcomp, p_kidx * span + (p_ts - t0), side="left")
        hit = (pos < len(bcomp)) & (
            b_kidx[np.minimum(pos, len(bcomp) - 1)] == p_kidx
        )
        if not hit.any():
            return empty
        ph = pos[hit]
        return pa.table(
            {
                "o_orderkey": pa.array(p_id[hit], pa.int64()),
                "o_custkey": pa.array(p_key[hit], pa.int64()),
                "o_orderdate": pa.array(p_ts[hit], pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "event_id": pa.array(b_id[ph], pa.int64()),
                "ts": pa.array(b_ts[ph], pa.int64()).cast(pa.timestamp("us")),
            }
        )

    return partitioned_by_key(both, "key", probe_part)


ASOF_JOIN_FORWARD_SQL = """
SELECT o_orderkey, o_custkey, o_orderdate, event_id, ts FROM (
  SELECT o.o_orderkey, o.o_custkey, o.o_orderdate, e.event_id, e.ts,
         row_number() OVER (
           PARTITION BY o.o_orderkey
           ORDER BY e.ts ASC, e.event_id ASC) AS rn
  FROM orders o
  JOIN events e ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
) WHERE rn = 1
"""


# -- daily churn (active today, absent tomorrow) --------------------------------


def daily_churn(sf_dir: str) -> "ray.data.Dataset":
    """Per day: active users and how many of them churn (are absent the
    next day) — the retention complement of cumulative_unique_users.
    The final observed day cannot witness churn and is excluded from
    the churned count (n_churned = 0 there by definition).

    Scale shape: distinct (user, day) pairs under ONE user-keyed
    shuffle; because each user's days arrive sorted and unique, "is
    day+1 present" is a single vectorized shift comparison (the sorted-
    successor trick — no membership hash, no self-join); per-partition
    (day, active, churned) partials roll up in a bounded day-keyed
    aggregate.  The global max day is a one-column pre-aggregate."""
    DAY_US = 86_400 * 1_000_000
    ev = _read(sf_dir, "events", ["ts", "user_id"])

    def day_col(batch: pa.Table) -> pa.Table:
        t = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64())
        return pa.table(
            {"d": pc.multiply(pc.divide(t, DAY_US), DAY_US)}
        )

    max_day_raw = ev.map_batches(
        day_col, batch_format="pyarrow", zero_copy_batch=True
    ).max("d")
    max_day = int(max_day_raw) if max_day_raw is not None else 0  # empty corpus

    def narrow(batch: pa.Table) -> pa.Table:
        t = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64())
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        d = (t.to_numpy(zero_copy_only=False) // DAY_US) * DAY_US
        ud = np.unique(np.stack([u, d], axis=1), axis=0)
        return pa.table(
            {"u": pa.array(ud[:, 0], pa.int64()), "d": pa.array(ud[:, 1], pa.int64())}
        )

    def kernel(part: pa.Table) -> pa.Table:
        u = part.column("u").to_numpy(zero_copy_only=False)
        d = part.column("d").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, u))
        u, d = u[order], d[order]
        keep = np.r_[True, (u[1:] != u[:-1]) | (d[1:] != d[:-1])]
        u, d = u[keep], d[keep]
        # sorted-successor: day+1 present iff the NEXT row is (u, d+1)
        nxt_same = np.r_[(u[1:] == u[:-1]) & (d[1:] == d[:-1] + DAY_US), False]
        churned = (~nxt_same) & (d < max_day)
        days, a = np.unique(d, return_counts=True)
        c = np.zeros(len(days), np.int64)
        np.add.at(c, np.searchsorted(days, d[churned]), 1)
        return pa.table(
            {
                "day": pa.array(days, pa.int64()),
                "a": pa.array(a.astype(np.int64), pa.int64()),
                "c": pa.array(c, pa.int64()),
            }
        )

    rolled = keyed_aggregate(
        partitioned_by_key(
            ev.map_batches(narrow, batch_format="pyarrow", zero_copy_batch=True),
            "u",
            kernel,
        ),
        "day",
        {"n_active": ("a", "sum"), "n_churned": ("c", "sum")},
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "day": pc.cast(t.column("day"), pa.timestamp("us")),
                "n_active": pc.cast(t.column("n_active"), pa.int64()),
                "n_churned": pc.cast(t.column("n_churned"), pa.int64()),
            }
        )

    return rolled.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


DAILY_CHURN_SQL = """
WITH ud AS (SELECT DISTINCT user_id, date_trunc('day', ts) AS d FROM events),
mx AS (SELECT max(d) AS m FROM ud)
SELECT u.d AS day,
       CAST(count(*) AS BIGINT) AS n_active,
       CAST(sum(CASE WHEN n.user_id IS NULL AND u.d < mx.m
                THEN 1 ELSE 0 END) AS BIGINT) AS n_churned
FROM ud u
LEFT JOIN ud n ON n.user_id = u.user_id AND n.d = u.d + INTERVAL 1 DAY
CROSS JOIN mx
GROUP BY 1 ORDER BY 1
"""


# -- grouped top-k (top parts per brand) -------------------------------------


def top_parts_per_brand(sf_dir: str, k: int = 3) -> pa.Table:
    """Top-k parts by revenue WITHIN each brand (row_number semantics:
    revenue desc, partkey asc) — the grouped top-k shape, distinct from
    the global top-k (top_customers) and the per-key argmax
    (top_event_per_user).

    Scale shape: one keyed aggregate folds lineitem to ONE (partkey,
    cents) row per partkey; that rollup meets part through the join
    planner (auto_equi_join: a broadcast probe at tested scales,
    revenue_by_brand's shape); then a per-block numpy kernel
    emits at most k rows PER BRAND PER BLOCK, so the driver-side merge
    sees blocks × |brands| × k candidate rows — bounded by the brand
    cardinality, never by |part|."""

    def line_cents(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "p_partkey": pc.cast(batch.column("l_partkey"), pa.int64()),
                "cents": pa.array(money_cents(price * (1 - disc)), pa.int64()),
            }
        )

    per_part = keyed_aggregate(
        _read(
            sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"]
        ).map_batches(line_cents, batch_format="pyarrow", zero_copy_batch=True),
        "p_partkey",
        {"cents": ("cents", "sum")},
    )

    def brand_topk(batch: pa.Table) -> pa.Table:
        pk = batch.column("p_partkey").to_numpy(zero_copy_only=False)
        cents = batch.column("cents").to_numpy(zero_copy_only=False)
        bcodes, binv = np.unique(
            np.asarray(batch.column("p_brand").to_pylist(), dtype=object),
            return_inverse=True,
        )
        # per-brand top-k within the block: lexsort puts each brand run in
        # (cents desc, partkey asc) order; rank-in-run <= k survives
        order = np.lexsort((pk, -cents, binv))
        b2, p2, c2 = binv[order], pk[order], cents[order]
        starts = np.r_[True, b2[1:] != b2[:-1]]
        rank = np.arange(len(b2)) - np.maximum.accumulate(
            np.where(starts, np.arange(len(b2)), -1)
        )
        sel = rank < k
        return pa.table(
            {
                "p_brand": pa.array(bcodes[b2[sel]], pa.string()),
                "p_partkey": pa.array(p2[sel], pa.int64()),
                "cents": pa.array(c2[sel], pa.int64()),
            }
        )

    cand = ensure_columns(
        auto_equi_join(
            per_part,
            f"{sf_dir}/part.parquet",
            "p_partkey",
            "p_partkey",
            [("p_partkey", pa.int64()), ("cents", pa.int64())],
            [("p_brand", pa.string())],
        ).map_batches(
            brand_topk, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas(),  # bounded: blocks x |brands| x k
        ["p_brand", "p_partkey", "cents"],
    )
    cand = cand.sort_values(
        ["p_brand", "cents", "p_partkey"], ascending=[True, False, True]
    )
    rank = cand.groupby("p_brand", sort=False).cumcount() + 1
    cand = cand[rank <= k]
    rank = rank[rank <= k]
    return pa.table(
        {
            "p_brand": pa.array(cand["p_brand"], pa.string()),
            "rank": pa.array(rank.to_numpy().astype("int64"), pa.int64()),
            "p_partkey": pa.array(
                cand["p_partkey"].to_numpy().astype("int64"), pa.int64()
            ),
            "revenue_cents": pa.array(
                cand["cents"].to_numpy().astype("int64"), pa.int64()
            ),
        }
    )


TOP_PARTS_PER_BRAND_SQL = """
WITH pr AS (
  SELECT l_partkey AS p_partkey,
         CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                       AS BIGINT)) AS BIGINT) AS cents
  FROM lineitem GROUP BY 1
),
r AS (
  SELECT p.p_brand, pr.p_partkey, pr.cents,
         row_number() OVER (PARTITION BY p.p_brand
                            ORDER BY pr.cents DESC, pr.p_partkey) AS rnk
  FROM pr JOIN part p USING (p_partkey)
)
SELECT p_brand, CAST(rnk AS BIGINT) AS rank,
       CAST(p_partkey AS BIGINT) AS p_partkey, cents AS revenue_cents
FROM r WHERE rnk <= 3
"""


# -- out-of-order arrival audit ----------------------------------------------


def late_event_audit(sf_dir: str) -> "ray.data.Dataset":
    """Out-of-order arrival diagnostic: per user, how many events arrived
    (arrival order = event_id) with a timestamp EARLIER than some prior
    event's — the measurement behind choosing a streaming watermark /
    allowed-lateness budget.  An event is "late" iff
    ts < max(ts of all prior events of that user by event_id).

    Scale shape: narrow (user, event_id, ts-µs) projection, ONE
    user-keyed shuffle (partitioned_by_key), per-partition kernel:
    lexsort by (user, event_id), running max via maximum.accumulate
    reset at run starts, one add.reduceat per user run."""
    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id"])

    def narrow(batch: pa.Table) -> pa.Table:
        # ns-vs-µs rule: always through timestamp("us") before int64
        t = pc.cast(
            pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()
        )
        return pa.table(
            {
                "u": pc.cast(batch.column("user_id"), pa.int64()),
                "eid": pc.cast(batch.column("event_id"), pa.int64()),
                "t": t,
            }
        )

    def kernel(part: pa.Table) -> pa.Table:
        u = part.column("u").to_numpy(zero_copy_only=False)
        eid = part.column("eid").to_numpy(zero_copy_only=False)
        t = part.column("t").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, u))
        u, t = u[order], t[order]
        starts = np.r_[True, u[1:] != u[:-1]]
        # Segmented running-max without a per-user loop: dense-rank the
        # timestamps (order-isomorphic, bounded by partition rows) and
        # offset each user segment into its own disjoint rank range —
        # a single global maximum.accumulate then never lets an earlier
        # segment's value win inside a later one.
        sv = np.unique(t)
        r = np.searchsorted(sv, t).astype(np.int64) + 1  # dense rank, 1..m
        seg = np.cumsum(starts) - 1
        base = np.int64(len(sv) + 2)
        cummax = np.maximum.accumulate(seg * base + r)
        prior = np.r_[np.int64(-1), cummax[:-1]]
        late = (~starts) & (prior // base == seg) & (r < prior % base)
        bounds = run_bounds(u)
        return pa.table(
            {
                "user_id": pa.array(u[bounds[:-1]], pa.int64()),
                "n_events": pa.array(np.diff(bounds), pa.int64()),
                "n_late": pa.array(
                    np.add.reduceat(late.astype(np.int64), bounds[:-1]),
                    pa.int64(),
                ),
            }
        )

    return partitioned_by_key(
        ev.map_batches(narrow, batch_format="pyarrow", zero_copy_batch=True),
        "u",
        kernel,
    )


LATE_EVENT_AUDIT_SQL = """
WITH w AS (
  SELECT user_id, ts,
         max(ts) OVER (PARTITION BY user_id ORDER BY event_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
           AS prior_max
  FROM events
)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) AS BIGINT) AS n_events,
       CAST(sum(CASE WHEN ts < prior_max THEN 1 ELSE 0 END) AS BIGINT)
         AS n_late
FROM w GROUP BY 1
"""


# -- cost-based join planner --------------------------------------------------

# Largest build side auto_equi_join broadcasts, in uncompressed bytes of
# the broadcast columns: 64 MiB stays well inside a worker heap.
_BROADCAST_BUDGET_BYTES = 64 << 20


def auto_equi_join(
    left: "ray.data.Dataset",
    right_path: str,
    left_on: str,
    right_on: str,
    left_cols: list[tuple[str, pa.DataType]],
    right_cols: list[tuple[str, pa.DataType]],
    how: str = "inner",
) -> "ray.data.Dataset":
    """Cost-based equi-join planner: picks the physical join from the
    build side's parquet FOOTER (no data read).  Every join with the
    customer, part or supplier dimension goes through it.

    The measure is the uncompressed size of the column chunks it would
    broadcast (``right_on`` and the ``right_cols`` payload), summed over
    the row groups.  Up to ``_BROADCAST_BUDGET_BYTES`` (read at call
    time): load those columns once, ``ray.put`` the key + payload
    arrays, and probe per batch with vectorized ``pc.index_in`` — zero
    shuffle.  Larger build sides: fall through to ``repartition_join``
    (each row shuffled exactly once; ``probe_salt`` available there for
    skew), so no dimension is gathered on the driver past the budget.
    Both paths return identical rows — pinned by test across every
    ``how`` and on routed operators."""
    import pyarrow.parquet as pq

    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"unsupported join type: {how}")
    right_names = [c for c, _ in right_cols]
    md = pq.ParquetFile(right_path).metadata
    wanted = {right_on, *right_names}
    build_bytes = sum(
        rg.column(j).total_uncompressed_size
        for rg in map(md.row_group, range(md.num_row_groups))
        for j in range(rg.num_columns)
        if rg.column(j).path_in_schema in wanted
    )
    if build_bytes > _BROADCAST_BUDGET_BYTES:
        right = _read_path(right_path, [right_on] + right_names)
        return repartition_join(
            left, right, left_on, right_on, left_cols, right_cols, how=how
        )

    rt = pq.read_table(right_path, columns=[right_on] + right_names)
    lookup_ref = ray.put(
        (
            pc.cast(rt.column(right_on), pa.int64()).combine_chunks(),
            {c: rt.column(c).combine_chunks() for c in right_names},
        )
    )

    def probe(batch: pa.Table) -> pa.Table:
        keys, payload = ray.get(lookup_ref)
        lk = pc.cast(batch.column(left_on), pa.int64())
        idx = pc.index_in(lk, value_set=keys)
        matched = pc.is_valid(idx).to_numpy(zero_copy_only=False)
        if how in ("semi", "anti"):
            sel = pa.array(
                np.flatnonzero(matched if how == "semi" else ~matched),
                pa.int64(),
            )
            return pa.table(
                {c: batch.column(c).take(sel) for c, _t in left_cols}
            )
        # index_in returns the FIRST match; 1:N broadcast fan-out needs a
        # per-key expansion — the dimension contract here is unique keys
        # (enforced loudly, matching every broadcast-dim op in this repo).
        if how == "inner":
            sel = pa.array(np.flatnonzero(matched), pa.int64())
            out = {c: batch.column(c).take(sel) for c, _t in left_cols}
            ridx = idx.take(sel)
            for c, typ in right_cols:
                out[c] = pc.cast(pc.take(payload[c], ridx), typ)
            return pa.table(out)
        # left outer: keep all rows, null right payloads on misses
        out = {c: batch.column(c) for c, _t in left_cols}
        for c, typ in right_cols:
            out[c] = pc.cast(pc.take(payload[c], idx), typ)
        return pa.table(out)

    n_keys = len(rt)
    n_distinct = pc.count_distinct(rt.column(right_on)).as_py()
    if n_distinct != n_keys:
        raise ValueError(
            f"broadcast build side must have unique join keys: "
            f"{n_keys - n_distinct} duplicate(s) in {right_path}:{right_on} "
            f"(use repartition_join for 1:N build sides)"
        )
    return left.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def _read_path(path: str, columns: list[str]) -> "ray.data.Dataset":
    from ._util import read_parquet_clean

    return read_parquet_clean(path, columns=columns)


# -- CDC apply (upsert + tombstone merge) ------------------------------------


def cdc_upsert(sf_dir: str) -> "ray.data.Dataset":
    """Change-data-capture apply — the lakehouse MERGE INTO primitive: a
    base snapshot plus a change stream of UPserts and DELETE tombstones
    resolve to the post-merge table, here rolled up per order status so
    the oracle can verify every surviving row's value.  The change
    stream is synthesized deterministically from the base (orderkey%5
    rows get cents+1000 upserts, orderkey%17 rows get tombstones) — the
    APPLY kernel is the product; a real feed drops in as a second
    dataset with the same (key, op, payload) rows.

    Scale shape: base and changes are unioned as (key, op-priority,
    payload) rows and resolved in ONE orderkey-keyed shuffle — the
    partition kernel sorts (key, priority desc) and keeps each key's
    highest-precedence row (delete > upsert > base), dropping
    tombstoned keys; the status rollup is a second bounded keyed
    aggregate.
    No side materializes; precedence is a per-key constant-time pick."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_orderstatus", "o_totalprice"])

    _STATUS = ["F", "O", "P"]  # bounded domain, encoded for the int kernel

    def explode_cdc(batch: pa.Table) -> pa.Table:
        key = pc.cast(batch.column("o_orderkey"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        cents = money_cents(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        )
        st = batch.column("o_orderstatus").to_pylist()
        scode = np.array([_STATUS.index(x) for x in st], dtype=np.int64)
        upd = key % 5 == 0
        dele = key % 17 == 0
        # op precedence: 0 = base, 1 = upsert, 2 = delete tombstone
        k = np.concatenate([key, key[upd], key[dele]])
        op = np.concatenate(
            [
                np.zeros(len(key), np.int64),
                np.ones(int(upd.sum()), np.int64),
                np.full(int(dele.sum()), 2, np.int64),
            ]
        )
        c = np.concatenate(
            [cents, cents[upd] + 1000, np.zeros(int(dele.sum()), np.int64)]
        )
        sc = np.concatenate([scode, scode[upd], np.zeros(int(dele.sum()), np.int64)])
        return pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "op": pa.array(op, pa.int64()),
                "cents": pa.array(c, pa.int64()),
                "scode": pa.array(sc, pa.int64()),
            }
        )

    def kernel(part: pa.Table) -> pa.Table:
        k = part.column("k").to_numpy(zero_copy_only=False)
        op = part.column("op").to_numpy(zero_copy_only=False)
        cents = part.column("cents").to_numpy(zero_copy_only=False)
        sc = part.column("scode").to_numpy(zero_copy_only=False)
        order = np.lexsort((-op, k))  # per key: highest precedence first
        k, op, cents, sc = k[order], op[order], cents[order], sc[order]
        first = run_bounds(k)[:-1]
        win_op, win_c, win_s = op[first], cents[first], sc[first]
        live = win_op != 2  # tombstoned keys drop out entirely
        # bounded partial: per-status count + cents sum for this partition
        n = np.bincount(win_s[live], minlength=len(_STATUS))
        tot = np.bincount(
            win_s[live], weights=win_c[live].astype(np.float64),
            minlength=len(_STATUS),
        ).astype(np.int64)
        nz = np.flatnonzero(n)
        return pa.table(
            {
                "scode": pa.array(nz.astype(np.int64), pa.int64()),
                "n_part": pa.array(n[nz].astype(np.int64), pa.int64()),
                "cents_part": pa.array(tot[nz], pa.int64()),
            }
        )

    rolled = keyed_aggregate(
        partitioned_by_key(
            ds.map_batches(explode_cdc, batch_format="pyarrow", zero_copy_batch=True),
            "k",
            kernel,
        ),
        "scode",
        {"n_orders": ("n_part", "sum"), "total_cents": ("cents_part", "sum")},
    )

    def finish(t: pa.Table) -> pa.Table:
        codes = t.column("scode").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "o_orderstatus": pa.array(
                    [_STATUS[int(c)] for c in codes], pa.string()
                ),
                "n_orders": pc.cast(t.column("n_orders"), pa.int64()),
                "total_cents": pc.cast(t.column("total_cents"), pa.int64()),
            }
        )

    return rolled.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


CDC_UPSERT_SQL = """
WITH base AS (
  SELECT o_orderkey AS k, o_orderstatus AS s,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders
),
merged AS (
  SELECT k, s, CASE WHEN k % 5 = 0 THEN cents + 1000 ELSE cents END AS cents
  FROM base WHERE k % 17 != 0
)
SELECT s AS o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(cents) AS BIGINT) AS total_cents
FROM merged GROUP BY 1
"""


# -- Q21-shaped sole-late-supplier (semi + anti exists on one table) ---------


def suppliers_kept_waiting(sf_dir: str, k: int = 20) -> pa.Table:
    """TPC-H Q21-shaped "suppliers who kept orders waiting" (adapted: the
    synthetic lineitem has no commit/receipt dates, so "late" is
    order-relative — a supplier is late when its last shipment leaves
    more than 30 days after the order's earliest shipment).  The shape
    is the point: EXISTS (another supplier in the order) + NOT EXISTS
    (another LATE supplier) on the same table — the classic correlated
    semi/anti-join pair — resolved with NO self-join.

    Scale shape: per-batch partial collapse to (orderkey, suppkey,
    min/max ship) rows, then ONE orderkey-keyed shuffle whose partition
    kernel answers both existential tests for every order at once with
    reduceat sweeps over run boundaries; the supplier rollup takes its
    names through the join planner (auto_equi_join, left join: a
    broadcast probe at tested scales) and a select_k merge, so nothing
    after the one shuffle scales with lineitem."""
    LATE_US = 30 * 86400 * 1_000_000  # 30 days, in timestamp[us] units

    def partial(batch: pa.Table) -> pa.Table:
        # ns-vs-us rule: always normalise to timestamp[us] BEFORE int64.
        ship = pc.cast(
            pc.cast(batch.column("l_shipdate"), pa.timestamp("us")), pa.int64()
        )
        t = pa.table(
            {
                "k": pc.cast(batch.column("l_orderkey"), pa.int64()),
                "s": pc.cast(batch.column("l_suppkey"), pa.int64()),
                "ship": ship,
            }
        ).group_by(["k", "s"]).aggregate([("ship", "min"), ("ship", "max")])
        return t.rename_columns(["k", "s", "mn", "mx"])

    def kernel(part: pa.Table) -> pa.Table:
        kk = part.column("k").to_numpy(zero_copy_only=False)
        ss = part.column("s").to_numpy(zero_copy_only=False)
        mn = part.column("mn").to_numpy(zero_copy_only=False)
        mx = part.column("mx").to_numpy(zero_copy_only=False)
        order = np.lexsort((ss, kk))
        kk, ss, mn, mx = kk[order], ss[order], mn[order], mx[order]
        # merge cross-batch partials to unique (order, supplier) rows
        new = np.r_[True, (kk[1:] != kk[:-1]) | (ss[1:] != ss[:-1])]
        starts = np.flatnonzero(new)
        umn = np.minimum.reduceat(mn, starts)
        umx = np.maximum.reduceat(mx, starts)
        uk, us = kk[starts], ss[starts]
        # per-order sweep: both EXISTS tests in one pass
        b = run_bounds(uk)
        ostarts, nsupp = b[:-1], np.diff(b)
        omn = np.minimum.reduceat(umn, ostarts)
        late = umx > np.repeat(omn, nsupp) + LATE_US
        nlate = np.add.reduceat(late.astype(np.int64), ostarts)
        credit = late & np.repeat((nsupp >= 2) & (nlate == 1), nsupp)
        return pa.table({"s_suppkey": pa.array(us[credit], pa.int64())})

    credited = partitioned_by_key(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey", "l_shipdate"])
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "k",
        kernel,
    )

    counts = auto_equi_join(
        keyed_aggregate(credited, "s_suppkey", {"numwait": ("s_suppkey", "count")}),
        f"{sf_dir}/supplier.parquet",
        "s_suppkey",
        "s_suppkey",
        [("numwait", pa.int64())],
        [("s_name", pa.string())],
        how="left",
    )

    def add_name_topk(batch: pa.Table) -> pa.Table:
        batch = pa.table(
            {
                "s_name": pc.fill_null(batch.column("s_name"), ""),
                "numwait": batch.column("numwait"),
            }
        )
        sel = pc.select_k_unstable(
            batch,
            k=min(k, batch.num_rows),
            sort_keys=[("numwait", "descending"), ("s_name", "ascending")],
        )
        return batch.take(sel)

    agg = ensure_columns(
        counts.map_batches(
            add_name_topk, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas(),  # bounded: blocks x k candidate rows
        ["s_name", "numwait"],
    )
    agg = agg.sort_values(
        ["numwait", "s_name"], ascending=[False, True]
    ).head(k)
    return pa.table(
        {
            "s_name": pa.array(agg["s_name"], pa.string()),
            "numwait": pa.array(agg["numwait"].astype("int64"), pa.int64()),
        }
    )


SUPPLIERS_KEPT_WAITING_SQL = """
WITH per_supp AS (
  SELECT l_orderkey AS k, l_suppkey AS s,
         min(l_shipdate) AS mn, max(l_shipdate) AS mx
  FROM lineitem GROUP BY 1, 2
),
flagged AS (
  SELECT k, s,
         CASE WHEN mx > min(mn) OVER (PARTITION BY k) + INTERVAL 30 DAY
              THEN 1 ELSE 0 END AS late,
         count(*) OVER (PARTITION BY k) AS nsupp
  FROM per_supp
),
cred AS (
  SELECT k, s FROM (
    SELECT k, s, late, nsupp,
           sum(late) OVER (PARTITION BY k) AS nlate
    FROM flagged
  ) WHERE nsupp >= 2 AND late = 1 AND nlate = 1
)
SELECT s_name, CAST(count(*) AS BIGINT) AS numwait
FROM cred JOIN supplier ON s = s_suppkey
GROUP BY 1 ORDER BY numwait DESC, s_name ASC LIMIT 20
"""


# -- Q22-shaped anti-join + broadcast scalar subquery ------------------------


def sales_opportunity(sf_dir: str) -> pa.Table:
    """TPC-H Q22-shaped "global sales opportunity": customers whose
    account balance beats the average positive balance AND who never
    placed an URGENT-priority order, rolled up per nation (the synthetic
    orders table covers every customer, so the anti-join side is the
    selective urgent subset — same shape, non-vacuous result).  Two
    reference idioms in one query: a scalar aggregate subquery (the
    average) and a NOT EXISTS anti-join against a fact table.

    Scale shape: the average arrives as two driver scalars from a
    partial-sum pass (never a row set); the predicate is evaluated in
    exact integer math (cents * n > total_cents — no float-boundary
    divergence vs the oracle); the anti-join broadcasts the DISTINCT
    order custkeys once (bounded by the customer dimension) and filters
    customer batches locally — no shuffle of either table.  The nation
    rollup is bounded (25 rows)."""
    import pyarrow.parquet as pq

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    # -- scalar subquery: sum/count of positive balances (integer cents)
    def bal_partial(batch: pa.Table) -> pa.Table:
        cents = money_cents(
            batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        )
        pos = cents[cents > 0]
        return pa.table(
            {
                "total": pa.array([int(pos.sum())], pa.int64()),
                "n": pa.array([len(pos)], pa.int64()),
            }
        )

    parts = cust.map_batches(
        bal_partial, batch_format="pyarrow", zero_copy_batch=True
    ).take_all()  # bounded: one row per block
    total_cents = sum(r["total"] for r in parts)
    n_pos = sum(r["n"] for r in parts)

    # -- anti-join side: distinct URGENT-order custkeys, broadcast once
    def urgent_keys(batch: pa.Table) -> pa.Table:
        keep = pc.equal(batch.column("o_orderpriority"), "1-URGENT")
        return batch.filter(keep).select(["o_custkey"])

    buyers = keyed_aggregate(
        _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"]).map_batches(
            urgent_keys, batch_format="pyarrow", zero_copy_batch=True
        ),
        "o_custkey",
        {},
    ).take_all()  # bounded: distinct buyers <= customer dim
    buyers_ref = ray.put(
        np.sort(np.array([r["o_custkey"] for r in buyers], np.int64))
    )

    def pick(batch: pa.Table) -> pa.Table:
        act = ray.get(buyers_ref)
        cents = money_cents(
            batch.column("c_acctbal").to_numpy(zero_copy_only=False)
        )
        keys = batch.column("c_custkey").to_numpy(zero_copy_only=False)
        rich = cents * n_pos > total_cents
        if len(act):
            pos = np.clip(np.searchsorted(act, keys), 0, len(act) - 1)
            rich &= act[pos] != keys
        keep = batch.filter(pa.array(rich))
        return pa.table(
            {
                "c_nationkey": pc.cast(keep.column("c_nationkey"), pa.int64()),
                "cents": pa.array(
                    money_cents(
                        keep.column("c_acctbal").to_numpy(zero_copy_only=False)
                    ),
                    pa.int64(),
                ),
            }
        )

    rolled = keyed_aggregate(
        cust.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True),
        "c_nationkey",
        {"numcust": ("cents", "count"), "totacctbal_cents": ("cents", "sum")},
    )

    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nmap = dict(
        zip(nat.column("n_nationkey").to_pylist(), nat.column("n_name").to_pylist())
    )

    agg = ensure_columns(
        rolled.to_pandas(),  # bounded: one row per nation
        ["c_nationkey", "numcust", "totacctbal_cents"],
    )
    agg["n_name"] = agg["c_nationkey"].map(nmap)
    agg = agg.sort_values("n_name")
    return pa.table(
        {
            "n_name": pa.array(agg["n_name"], pa.string()),
            "numcust": pa.array(agg["numcust"].astype("int64"), pa.int64()),
            "totacctbal_cents": pa.array(
                agg["totacctbal_cents"].astype("int64"), pa.int64()
            ),
        }
    )


SALES_OPPORTUNITY_SQL = """
WITH avgbal AS (
  SELECT sum(CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)) AS total_cents,
         count(*) AS n
  FROM customer WHERE CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) > 0
)
SELECT n_name,
       CAST(count(*) AS BIGINT) AS numcust,
       CAST(sum(CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS totacctbal_cents
FROM customer
CROSS JOIN avgbal
JOIN nation ON c_nationkey = n_nationkey
WHERE CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) * n > total_cents
  AND NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderpriority = '1-URGENT')
GROUP BY 1 ORDER BY 1
"""


# -- ordered string aggregation (event path per user) ------------------------


def user_event_path(sf_dir: str, cap: int = 20) -> "ray.data.Dataset":
    """Ordered string aggregation — string_agg(event_type ORDER BY ts)
    capped at the first `cap` events per user: the session-path feature
    LLM behavioural pipelines feed to tokenizers.

    Scale shape: ONE user-keyed shuffle via partitioned_by_key; the
    kernel lexsorts (user, ts, event_id), finds user runs, truncates
    each run to `cap` with pure index arithmetic, and joins the path
    strings per run (the join itself is per-user by nature — strings
    have no reduceat — but it touches at most `cap` short tokens per
    user and runs inside the bounded-P partition kernel, never as a
    per-group UDF)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "event_type"])

    def kernel(part: pa.Table) -> pa.Table:
        u = part.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(
            pc.cast(part.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        et = np.asarray(part.column("event_type").to_pylist(), dtype=object)
        order = np.lexsort((eid, ts, u))
        u, et = u[order], et[order]
        b = run_bounds(u)
        users, paths, counts = [], [], []
        for i in range(len(b) - 1):
            lo = b[i]
            hi = min(b[i + 1], lo + cap)
            users.append(int(u[lo]))
            paths.append(">".join(et[lo:hi]))
            counts.append(int(hi - lo))
        return pa.table(
            {
                "user_id": pa.array(users, pa.int64()),
                "path": pa.array(paths, pa.string()),
                "n_events": pa.array(counts, pa.int64()),
            }
        )

    return partitioned_by_key(ds, "user_id", kernel)


USER_EVENT_PATH_SQL = """
WITH e AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
)
SELECT user_id,
       string_agg(event_type, '>' ORDER BY rn) AS path,
       CAST(count(*) AS BIGINT) AS n_events
FROM e WHERE rn <= 20 GROUP BY 1
"""


# -- unpivot / melt -----------------------------------------------------------


def lineitem_unpivot(sf_dir: str) -> "ray.data.Dataset":
    """Wide-to-long UNPIVOT: melt lineitem's four numeric measures into
    (orderkey, linenumber, measure, value_x100) rows — the reshape every
    feature-store export needs.  Deterministically subset to orderkey %
    97 == 0 so the full melted output stays verifiable row-for-row.

    Scale shape: embarrassingly parallel — the melt is a per-batch
    vertical stack of four column slices (zero-copy takes + a constant
    measure label), no shuffle at all; output rows = 4x the filtered
    input and stream straight to the consumer."""
    MEASURES = ["discount", "extendedprice", "quantity", "tax"]

    def melt(batch: pa.Table) -> pa.Table:
        key = pc.cast(batch.column("l_orderkey"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        sub = batch.filter(pa.array(key % 97 == 0))
        k = pc.cast(sub.column("l_orderkey"), pa.int64())
        ln = pc.cast(sub.column("l_linenumber"), pa.int64())
        parts = []
        for m in MEASURES:
            cents = money_cents(
                sub.column(f"l_{m}").to_numpy(zero_copy_only=False)
            )
            parts.append(
                pa.table(
                    {
                        "l_orderkey": k,
                        "l_linenumber": ln,
                        "measure": pa.array([m] * sub.num_rows, pa.string()),
                        "value_x100": pa.array(cents, pa.int64()),
                    }
                )
            )
        return pa.concat_tables(parts)

    return _read(
        sf_dir,
        "lineitem",
        ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice",
         "l_discount", "l_tax"],
    ).map_batches(melt, batch_format="pyarrow", zero_copy_batch=True)


LINEITEM_UNPIVOT_SQL = """
WITH sub AS (
  SELECT l_orderkey, CAST(l_linenumber AS BIGINT) AS l_linenumber,
         l_quantity, l_extendedprice, l_discount, l_tax
  FROM lineitem WHERE l_orderkey % 97 = 0
)
SELECT l_orderkey, l_linenumber, 'discount' AS measure,
       CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS value_x100 FROM sub
UNION ALL
SELECT l_orderkey, l_linenumber, 'extendedprice',
       CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT) FROM sub
UNION ALL
SELECT l_orderkey, l_linenumber, 'quantity',
       CAST(floor(l_quantity * 100 + 0.5) AS BIGINT) FROM sub
UNION ALL
SELECT l_orderkey, l_linenumber, 'tax',
       CAST(floor(l_tax * 100 + 0.5) AS BIGINT) FROM sub
"""


# -- centered rolling median (order-statistic window) -------------------------


def moving_median_3(sf_dir: str) -> "ray.data.Dataset":
    """Centered 3-event rolling MEDIAN of each user's event values — the
    order-statistic window that mean-based moving_sum can't express
    (medians need a rank pick, not a running sum).  Endpoints of each
    user's sequence are excluded (no complete window).

    Scale shape: ONE user-keyed shuffle; the kernel lexsorts (user, ts,
    event_id) and computes median-of-3 closed-form (a+b+c-min-max) over
    three shifted slices — pure numpy, no per-window loop, and exact in
    integer cents (the median of three ints IS one of them)."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])

    def kernel(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "event_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "med_cents": pa.array([], pa.int64()),
            }
        )
        if part.num_rows < 3:
            return empty
        u = part.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(
            pc.cast(part.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        cents = money_cents(part.column("value").to_numpy(zero_copy_only=False))
        order = np.lexsort((eid, ts, u))
        u, eid, cents = u[order], eid[order], cents[order]
        # complete centered window: neighbours exist and share the user
        mid = np.arange(1, len(u) - 1)
        ok = (u[mid - 1] == u[mid]) & (u[mid] == u[mid + 1])
        mid = mid[ok]
        a, b, c = cents[mid - 1], cents[mid], cents[mid + 1]
        med = a + b + c - np.maximum(np.maximum(a, b), c) - np.minimum(
            np.minimum(a, b), c
        )
        return pa.table(
            {
                "event_id": pa.array(eid[mid], pa.int64()),
                "user_id": pa.array(u[mid], pa.int64()),
                "med_cents": pa.array(med, pa.int64()),
            }
        )

    return partitioned_by_key(ds, "user_id", kernel)


MOVING_MEDIAN_3_SQL = """
WITH e AS (
  SELECT event_id, user_id,
         CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
         row_number() OVER w AS rn,
         count(*) OVER (PARTITION BY user_id) AS n,
         median(CAST(floor(value * 100 + 0.5) AS BIGINT))
           OVER (w ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS med
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT event_id, user_id, CAST(med AS BIGINT) AS med_cents
FROM e WHERE rn > 1 AND rn < n
"""


# -- key-skew diagnostic ------------------------------------------------------


def skew_profile(sf_dir: str, topn: int = 10) -> pa.Table:
    """Shuffle-key skew diagnostic: how concentrated is events.user_id?
    Reports total rows, distinct keys, the hottest key's count, and the
    top-10 keys' share of all rows (permille) — the number that decides
    whether a keyed shuffle needs salting.  This is engine
    introspection-as-an-operator: run it BEFORE a groupby at 100 TB.

    Scale shape: one keyed aggregate collapses the fact table to
    (key, count) rows; totals come from a
    distributed aggregate over that rollup and the top-N from per-block
    select_k — the driver only ever sees blocks x N candidate rows,
    never the key set."""
    counts = keyed_aggregate(
        _read(sf_dir, "events", ["user_id"]), "user_id", {"n": ("user_id", "count")}
    )

    totals = counts.aggregate(
        ray.data.aggregate.Sum("n", alias_name="total_rows"),
        ray.data.aggregate.Count(alias_name="distinct_keys"),
    )

    def local_topk(batch: pa.Table) -> pa.Table:
        idx = pc.select_k_unstable(
            batch,
            k=min(topn, batch.num_rows),
            sort_keys=[("n", "descending"), ("user_id", "ascending")],
        )
        return batch.take(idx)

    cand = ensure_columns(
        counts.map_batches(
            local_topk, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas(),  # bounded: blocks x topn candidates
        ["user_id", "n"],
    ).sort_values(["n", "user_id"], ascending=[False, True]).head(topn)

    total = int(totals["total_rows"] or 0)
    nkeys = int(totals["distinct_keys"] or 0)
    top = cand["n"].to_numpy(dtype=np.int64)
    return pa.table(
        {
            "total_rows": pa.array([total], pa.int64()),
            "distinct_keys": pa.array([nkeys], pa.int64()),
            "max_key_count": pa.array([int(top[0]) if len(top) else 0], pa.int64()),
            "top10_permille": pa.array(
                [int(top.sum()) * 1000 // max(total, 1)], pa.int64()
            ),
        }
    )


SKEW_PROFILE_SQL = """
WITH c AS (
  SELECT user_id, count(*) AS c FROM events GROUP BY 1
),
top AS (
  SELECT c FROM c ORDER BY c DESC, user_id ASC LIMIT 10
)
SELECT (SELECT CAST(sum(c) AS BIGINT) FROM c) AS total_rows,
       (SELECT CAST(count(*) AS BIGINT) FROM c) AS distinct_keys,
       (SELECT CAST(max(c) AS BIGINT) FROM c) AS max_key_count,
       CAST((SELECT sum(c) FROM top) * 1000
            // greatest((SELECT sum(c) FROM c), 1) AS BIGINT)
         AS top10_permille
"""


# -- join cardinality without executing the join ------------------------------


def join_size_by_key(sf_dir: str) -> pa.Table:
    """EXACT output cardinality of orders ⋈ events (custkey = user_id)
    computed WITHOUT materializing a single joined row: |A ⋈ B| =
    Σ_k cnt_A(k) · cnt_B(k).  A join-size estimate exposed as a
    first-class operator (auto_equi_join decides from the build side's
    footer size instead) — at 100 TB you run this before committing to
    a join whose output might be 100× its inputs.

    Scale shape: each side collapses to (key, count) partials (two
    bounded keyed rollups); the union is resolved in ONE key-keyed
    shuffle whose kernel multiplies per-key pairs via run boundaries;
    the final sum/count/max is a scalar aggregate — no join rows ever
    exist."""
    def count_side(table: str, key: str, side: int):
        def partial(batch: pa.Table) -> pa.Table:
            g = batch.select([key]).group_by(key).aggregate([([], "count_all")])
            return pa.table(
                {
                    "k": pc.cast(g.column(key), pa.int64()),
                    "c": pc.cast(g.column("count_all"), pa.int64()),
                    "side": pa.array([side] * g.num_rows, pa.int8()),
                }
            )

        return _read(sf_dir, table, [key]).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True
        )

    both = count_side("orders", "o_custkey", 0).union(
        count_side("events", "user_id", 1)
    )

    def kernel(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "contrib": pa.array([], pa.int64()),
                "n_keys": pa.array([], pa.int64()),
                "max_contrib": pa.array([], pa.int64()),
            }
        )
        k = part.column("k").to_numpy(zero_copy_only=False)
        c = part.column("c").to_numpy(zero_copy_only=False)
        s = part.column("side").to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((s, k))
        k, c, s = k[order], c[order], s[order]
        b = run_bounds(k)
        starts = b[:-1]
        # per-key per-side totals (batch partials may repeat a side)
        ca = np.add.reduceat(np.where(s == 0, c, 0), starts)
        cb = np.add.reduceat(np.where(s == 1, c, 0), starts)
        contrib = ca * cb
        contrib = contrib[contrib > 0]  # keys present on both sides
        if len(contrib) == 0:
            return empty
        return pa.table(
            {
                "contrib": pa.array([int(contrib.sum())], pa.int64()),
                "n_keys": pa.array([len(contrib)], pa.int64()),
                "max_contrib": pa.array([int(contrib.max())], pa.int64()),
            }
        )

    parts = partitioned_by_key(both, "k", kernel).take_all()  # bounded: P rows
    return pa.table(
        {
            "join_rows": pa.array(
                [sum(r["contrib"] for r in parts)], pa.int64()
            ),
            "matching_keys": pa.array(
                [sum(r["n_keys"] for r in parts)], pa.int64()
            ),
            "max_key_contribution": pa.array(
                [max((r["max_contrib"] for r in parts), default=0)], pa.int64()
            ),
        }
    )


JOIN_SIZE_BY_KEY_SQL = """
WITH a AS (SELECT o_custkey AS k, count(*) AS c FROM orders GROUP BY 1),
b AS (SELECT user_id AS k, count(*) AS c FROM events GROUP BY 1),
j AS (SELECT a.k, a.c * b.c AS contrib FROM a JOIN b ON a.k = b.k)
SELECT CAST(sum(contrib) AS BIGINT) AS join_rows,
       CAST(count(*) AS BIGINT) AS matching_keys,
       CAST(max(contrib) AS BIGINT) AS max_key_contribution
FROM j
"""


# -- TPC-H Q5: local supplier volume ------------------------------------------


def local_supplier_volume(sf_dir: str) -> pa.Table:
    """TPC-H Q5 "local supplier volume": revenue from lineitems whose
    SUPPLIER and CUSTOMER share a nation, restricted to the ASIA region
    and a 3-year order window — the 6-table star join with a cross-dim
    equality (c_nationkey = s_nationkey) that a naive planner turns
    into three shuffles.

    Plan by side size: lineitem meets supplier and the joined orders
    meet customer through the join planner (auto_equi_join: broadcast
    probes at tested scales), and the 25-row nation and 5-row region
    tables name the ASIA nations; lineitem pre-combines to (orderkey,
    supp_nation, partial cents) inside each batch; the ONLY shuffle is
    the fact-fact repartition join with the date-filtered orders slice
    (which also prunes the fan-out before it moves); the same-nation
    test is a vectorized equality after the customer join, and the
    nation rollup is bounded at 25 rows."""
    import pyarrow.parquet as pq

    LO = np.datetime64("1996-01-01", "us").astype("int64")
    HI = np.datetime64("1999-01-01", "us").astype("int64")

    def fact_partial(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        t = pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "s_nationkey": pc.cast(batch.column("s_nationkey"), pa.int64()),
                "cents": pa.array(money_cents(price * (1 - disc)), pa.int64()),
            }
        )
        g = t.group_by(["l_orderkey", "s_nationkey"]).aggregate([("cents", "sum")])
        return g.rename_columns(["l_orderkey", "s_nationkey", "cents"])

    fact = auto_equi_join(
        _read(
            sf_dir,
            "lineitem",
            ["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
        ),
        f"{sf_dir}/supplier.parquet",
        "l_suppkey",
        "s_suppkey",
        [
            ("l_orderkey", pa.int64()),
            ("l_extendedprice", pa.float64()),
            ("l_discount", pa.float64()),
        ],
        [("s_nationkey", pa.int32())],
    ).map_batches(fact_partial, batch_format="pyarrow", zero_copy_batch=True)

    def order_window(batch: pa.Table) -> pa.Table:
        od = pc.cast(
            pc.cast(batch.column("o_orderdate"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        keep = (od >= LO) & (od < HI)
        sub = batch.filter(pa.array(keep))
        return sub.select(["o_orderkey", "o_custkey"])

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"]
    ).map_batches(order_window, batch_format="pyarrow", zero_copy_batch=True)

    joined = repartition_join(
        fact,
        orders,
        "l_orderkey",
        "o_orderkey",
        [("s_nationkey", pa.int64()), ("cents", pa.int64())],
        [("o_custkey", pa.int64())],
        how="inner",
    )

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet",
        columns=["n_nationkey", "n_name", "n_regionkey"],
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    asia = nation.filter(
        pc.is_in(
            nation.column("n_regionkey"),
            value_set=region.filter(pc.equal(region.column("r_name"), "ASIA"))
            .column("r_regionkey"),
        )
    )
    asia_keys = pc.cast(asia.column("n_nationkey"), pa.int64())

    def same_nation(batch: pa.Table) -> pa.Table:
        same = pc.equal(
            pc.cast(batch.column("c_nationkey"), pa.int64()),
            batch.column("s_nationkey"),
        )
        nidx = pc.index_in(batch.column("s_nationkey"), value_set=asia_keys)
        keep = pc.and_(same, pc.is_valid(nidx))
        return pa.table(
            {
                "n_name": pc.take(asia.column("n_name"), nidx),
                "cents": batch.column("cents"),
            }
        ).filter(pc.fill_null(keep, False))

    out = ensure_columns(
        keyed_aggregate(
            auto_equi_join(
                joined,
                f"{sf_dir}/customer.parquet",
                "o_custkey",
                "c_custkey",
                [("s_nationkey", pa.int64()), ("cents", pa.int64())],
                [("c_nationkey", pa.int32())],
            ).map_batches(same_nation, batch_format="pyarrow", zero_copy_batch=True),
            "n_name",
            {"revenue_cents": ("cents", "sum")},
        ).to_pandas(),  # bounded: <= 25 nations
        ["n_name", "revenue_cents"],
    ).sort_values("n_name")
    return pa.table(
        {
            "n_name": pa.array(out["n_name"], pa.string()),
            "revenue_cents": pa.array(
                out["revenue_cents"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


LOCAL_SUPPLIER_VOLUME_SQL = """
SELECT n_name,
       CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                AS BIGINT)) AS BIGINT) AS revenue_cents
FROM customer, orders, lineitem, supplier, nation, region
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= DATE '1996-01-01' AND o_orderdate < DATE '1999-01-01'
GROUP BY 1 ORDER BY 1
"""


# -- interval-union coverage (gaps-and-islands over padded events) ------------


def interval_coverage(sf_dir: str, pad_us: int = 300_000_000) -> "ray.data.Dataset":
    """Active-time coverage per user: each event opens a 5-minute
    activity interval [ts, ts+pad); overlapping intervals merge, and
    the operator reports each user's island count and total covered
    microseconds — the interval-UNION aggregate (distinct from
    max_concurrent_events' boundary sweep and user_activity_streak's
    day islands).

    Scale shape: ONE user-keyed shuffle; equal-length intervals make
    the union linear — after a (user, ts) lexsort an island starts
    exactly where the gap exceeds the pad, so islands fall out of one
    vectorized boundary mask + two reduceat sweeps (per-island span,
    then per-user rollup).  No per-user loop, no quadratic overlap
    test."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def kernel(part: pa.Table) -> pa.Table:
        u = part.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(
            pc.cast(part.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        order = np.lexsort((ts, u))
        u, ts = u[order], ts[order]
        new_island = np.r_[True, (u[1:] != u[:-1]) | (ts[1:] > ts[:-1] + pad_us)]
        starts = np.flatnonzero(np.r_[new_island, True])
        # island i spans rows [starts[i], starts[i+1])
        cov = ts[starts[1:] - 1] + pad_us - ts[starts[:-1]]
        iu = u[starts[:-1]]
        b = run_bounds(iu)
        return pa.table(
            {
                "user_id": pa.array(iu[b[:-1]], pa.int64()),
                "n_islands": pa.array(np.diff(b), pa.int64()),
                "covered_us": pa.array(
                    np.add.reduceat(cov, b[:-1]), pa.int64()
                ),
            }
        )

    return partitioned_by_key(ds, "user_id", kernel)


INTERVAL_COVERAGE_SQL = """
WITH e AS (
  SELECT user_id, epoch_us(ts) AS t,
         CASE WHEN lag(epoch_us(ts)) OVER w IS NULL
                   OR epoch_us(ts) > lag(epoch_us(ts)) OVER w + 300000000
              THEN 1 ELSE 0 END AS new_island
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
g AS (
  SELECT user_id, t,
         sum(new_island) OVER (
           PARTITION BY user_id ORDER BY t ROWS UNBOUNDED PRECEDING
         ) AS isl
  FROM e
),
i AS (
  SELECT user_id, isl, max(t) + 300000000 - min(t) AS cov
  FROM g GROUP BY 1, 2
)
SELECT user_id, CAST(count(*) AS BIGINT) AS n_islands,
       CAST(sum(cov) AS BIGINT) AS covered_us
FROM i GROUP BY 1
"""


# -- market concentration (HHI) per nation ------------------------------------


def supplier_hhi(sf_dir: str) -> pa.Table:
    """Supplier market concentration per nation: Herfindahl-Hirschman
    index over revenue shares (integer permille, so the oracle is
    hash-exact) — the skew/diversity rollup a curation pipeline runs on
    source mix as much as a warehouse runs on suppliers.

    Scale shape: lineitem collapses to (nation, supplier, cents) rows
    (supplier→nation through the join planner, auto_equi_join: a
    broadcast probe at tested scales) in one bounded keyed aggregate; nation totals are a 25-row broadcast; the share² sum is
    another bounded keyed aggregate.  Shares use floor
    division on non-negative cents only (DuckDB // truncates toward
    zero — keep operands non-negative, the dsir_weights rule)."""
    import pyarrow.parquet as pq

    def supplier_rows(batch: pa.Table) -> pa.Table:
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "nk": pc.cast(batch.column("s_nationkey"), pa.int64()),
                "s": batch.column("l_suppkey"),
                "cents": pa.array(money_cents(price * (1 - disc)), pa.int64()),
            }
        )

    per_supp = keyed_aggregate(
        auto_equi_join(
            _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"]),
            f"{sf_dir}/supplier.parquet",
            "l_suppkey",
            "s_suppkey",
            [
                ("l_suppkey", pa.int64()),
                ("l_extendedprice", pa.float64()),
                ("l_discount", pa.float64()),
            ],
            [("s_nationkey", pa.int32())],
        ).map_batches(supplier_rows, batch_format="pyarrow", zero_copy_batch=True),
        ["nk", "s"],
        {"cents": ("cents", "sum")},
    ).materialize()  # consumed twice: nation totals + share squares

    # nation totals: bounded (25 rows) -> broadcast
    totals = {
        r["nk"]: (r["total"], r["n"])
        for r in keyed_aggregate(
            per_supp, "nk", {"total": ("cents", "sum"), "n": ("cents", "count")}
        ).take_all()
    }
    tot_ref = ray.put(totals)

    def share_squares(batch: pa.Table) -> pa.Table:
        tot = ray.get(tot_ref)
        nk = batch.column("nk").to_numpy(zero_copy_only=False)
        cents = batch.column("cents").to_numpy(zero_copy_only=False)
        denom = np.array([tot[k][0] for k in nk], dtype=np.int64)
        share = cents * 1000 // np.maximum(denom, 1)
        return pa.table(
            {"nk": pa.array(nk, pa.int64()), "sq": pa.array(share * share, pa.int64())}
        )

    rolled = ensure_columns(
        keyed_aggregate(
            per_supp.map_batches(
                share_squares, batch_format="pyarrow", zero_copy_batch=True
            ),
            "nk",
            {"hhi": ("sq", "sum"), "n_suppliers": ("sq", "count")},
        ).to_pandas(),  # bounded: <= 25 nations
        ["nk", "hhi", "n_suppliers"],
    )

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nmap = dict(
        zip(
            pc.cast(nation.column("n_nationkey"), pa.int64()).to_pylist(),
            nation.column("n_name").to_pylist(),
        )
    )
    rolled["n_name"] = rolled["nk"].map(nmap)
    rolled["total_cents"] = rolled["nk"].map(lambda k: totals[k][0])
    rolled = rolled.sort_values("n_name")
    return pa.table(
        {
            "n_name": pa.array(rolled["n_name"], pa.string()),
            "n_suppliers": pa.array(
                rolled["n_suppliers"].astype("int64"), pa.int64()
            ),
            "total_cents": pa.array(
                rolled["total_cents"].astype("int64"), pa.int64()
            ),
            "hhi": pa.array(rolled["hhi"].astype("int64"), pa.int64()),
        }
    )


SUPPLIER_HHI_SQL = """
WITH per AS (
  SELECT s_nationkey AS nk, l_suppkey AS s,
         sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
             AS BIGINT)) AS cents
  FROM lineitem JOIN supplier ON l_suppkey = s_suppkey
  GROUP BY 1, 2
),
tot AS (SELECT nk, sum(cents) AS total, count(*) AS n FROM per GROUP BY 1)
SELECT n_name,
       CAST(tot.n AS BIGINT) AS n_suppliers,
       CAST(tot.total AS BIGINT) AS total_cents,
       CAST(sum((per.cents * 1000 // greatest(tot.total, 1))
                * (per.cents * 1000 // greatest(tot.total, 1))) AS BIGINT)
         AS hhi
FROM per
JOIN tot USING (nk)
JOIN nation ON nk = n_nationkey
GROUP BY 1, 2, 3 ORDER BY 1
"""


# -- TPC-H Q19: disjunctive dimension-predicate revenue -----------------------


def brand_discount_revenue(sf_dir: str) -> pa.Table:
    """TPC-H Q19-shaped "discounted revenue" under a DISJUNCTION of
    cross-table predicates — three (brand, part-size range, quantity
    range) arms OR'd together (the synthetic part table has no
    container attribute; size stands in).  The shape that defeats
    simple predicate pushdown: each arm constrains BOTH the dimension
    (part) and the fact (lineitem).

    Scale shape: lineitem meets part's (brand, size) through the join
    planner (auto_equi_join: a broadcast probe at tested scales, so the
    fact table is read once and never shuffled); all three arms
    evaluate as vectorized boolean algebra over the joined columns; the
    result is a scalar partial sum."""
    ARMS = [  # (brand, size_lo, size_hi, qty_lo, qty_hi)
        ("Brand#1", 1, 15, 1, 15),
        ("Brand#2", 16, 30, 10, 25),
        ("Brand#3", 31, 50, 20, 40),
    ]

    def partial(batch: pa.Table) -> pa.Table:
        b = np.asarray(batch.column("p_brand").to_pylist(), dtype=object)
        s = pc.cast(batch.column("p_size"), pa.int64()).to_numpy(zero_copy_only=False)
        qty = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        keep = np.zeros(len(qty), dtype=bool)
        for br, slo, shi, qlo, qhi in ARMS:
            keep |= (b == br) & (s >= slo) & (s <= shi) & (qty >= qlo) & (qty <= qhi)
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        cents = money_cents((price * (1 - disc))[keep])
        return pa.table(
            {
                "rev": pa.array([int(cents.sum())], pa.int64()),
                "n": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    parts = (
        auto_equi_join(
            _read(
                sf_dir,
                "lineitem",
                ["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
            ),
            f"{sf_dir}/part.parquet",
            "l_partkey",
            "p_partkey",
            [
                ("l_quantity", pa.float64()),
                ("l_extendedprice", pa.float64()),
                ("l_discount", pa.float64()),
            ],
            [("p_brand", pa.string()), ("p_size", pa.int32())],
        )
        .map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )  # bounded: one row per block
    return pa.table(
        {
            "revenue_cents": pa.array(
                [sum(r["rev"] for r in parts)], pa.int64()
            ),
            "n_lineitems": pa.array([sum(r["n"] for r in parts)], pa.int64()),
        }
    )


BRAND_DISCOUNT_REVENUE_SQL = """
SELECT CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                AS BIGINT)) AS BIGINT) AS revenue_cents,
       CAST(count(*) AS BIGINT) AS n_lineitems
FROM lineitem JOIN part ON l_partkey = p_partkey
WHERE (p_brand = 'Brand#1' AND p_size BETWEEN 1 AND 15
       AND l_quantity BETWEEN 1 AND 15)
   OR (p_brand = 'Brand#2' AND p_size BETWEEN 16 AND 30
       AND l_quantity BETWEEN 10 AND 25)
   OR (p_brand = 'Brand#3' AND p_size BETWEEN 31 AND 50
       AND l_quantity BETWEEN 20 AND 40)
"""


# -- TPC-H Q15: top supplier by windowed revenue ------------------------------


def top_supplier_q15(sf_dir: str) -> pa.Table:
    """TPC-H Q15 "top supplier": revenue per supplier over one quarter,
    then the supplier(s) whose revenue EQUALS the global maximum — the
    aggregate → scalar → filter-by-equality shape (a correlated scalar
    subquery over an aggregate view), distinct from top-k: ties all
    surface, nothing is ranked.

    Scale shape: lineitem date-prunes to (suppkey, cents) rows in one
    narrow pass; the supplier keyed aggregate is bounded
    by the supplier dim; the max is ONE driver scalar from a
    distributed aggregate (never a sorted row set); the equality filter
    re-streams the bounded rollup.  Names come from a read of just the
    winners' supplier rows (parquet filter pushdown); output sorted by
    suppkey (ties deterministic)."""
    import pyarrow.parquet as pq

    LO = np.datetime64("1996-01-01", "us").astype("int64")
    HI = np.datetime64("1996-04-01", "us").astype("int64")

    def window_cents(batch: pa.Table) -> pa.Table:
        ship = pc.cast(
            pc.cast(batch.column("l_shipdate"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        keep = (ship >= LO) & (ship < HI)
        sub = batch.filter(pa.array(keep))
        price = sub.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = sub.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "s": pc.cast(sub.column("l_suppkey"), pa.int64()),
                "cents": pa.array(money_cents(price * (1 - disc)), pa.int64()),
            }
        )

    per_supp = keyed_aggregate(
        _read(
            sf_dir,
            "lineitem",
            ["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        ).map_batches(window_cents, batch_format="pyarrow", zero_copy_batch=True),
        "s",
        {"total_cents": ("cents", "sum")},
    )

    best = per_supp.aggregate(
        ray.data.aggregate.Max("total_cents", alias_name="mx")
    )["mx"]
    if best is None:  # empty window: no revenue rows at all
        return pa.table(
            {
                "s_suppkey": pa.array([], pa.int64()),
                "s_name": pa.array([], pa.string()),
                "total_cents": pa.array([], pa.int64()),
            }
        )

    def pick(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("total_cents"), best))

    winners = ensure_columns(
        per_supp.map_batches(
            pick, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas(),  # bounded: the tied maxima
        ["s", "total_cents"],
    )

    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name"],
        filters=[("s_suppkey", "in", winners["s"].astype("int64").tolist())],
    )
    nmap = dict(
        zip(sup.column("s_suppkey").to_pylist(), sup.column("s_name").to_pylist())
    )
    winners["s_name"] = winners["s"].map(nmap)
    winners = winners.sort_values("s")
    return pa.table(
        {
            "s_suppkey": pa.array(winners["s"].astype("int64"), pa.int64()),
            "s_name": pa.array(winners["s_name"], pa.string()),
            "total_cents": pa.array(
                winners["total_cents"].astype("int64"), pa.int64()
            ),
        }
    )


TOP_SUPPLIER_Q15_SQL = """
WITH revenue AS (
  SELECT l_suppkey AS s,
         sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
             AS BIGINT)) AS total_cents
  FROM lineitem
  WHERE l_shipdate >= DATE '1996-01-01' AND l_shipdate < DATE '1996-04-01'
  GROUP BY 1
)
SELECT s AS s_suppkey, s_name, CAST(total_cents AS BIGINT) AS total_cents
FROM revenue JOIN supplier ON s = s_suppkey
WHERE total_cents = (SELECT max(total_cents) FROM revenue)
ORDER BY s
"""


# -- Benford first-digit profile (data-forensics) ------------------------------


def benford_profile(sf_dir: str) -> pa.Table:
    """First-significant-digit distribution of order totals — the
    Benford's-law forensic check auditors (and data-quality gates) run
    on any money column; synthetic or truncated data betrays itself by
    a flat profile.

    Scale shape: the digit extraction is a vectorized string head
    (astype('U1') on integer cents — no log10 float edge at powers of
    ten); one keyed aggregate rolls the digits up to ≤9 rows; the
    permille normalization happens on that bounded table."""

    def first_digit(batch: pa.Table) -> pa.Table:
        cents = money_cents(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        )
        digit = cents.astype("U1").astype(np.int64)
        return pa.table({"digit": pa.array(digit, pa.int64())})

    rolled = ensure_columns(
        keyed_aggregate(
            _read(sf_dir, "orders", ["o_totalprice"]).map_batches(
                first_digit, batch_format="pyarrow", zero_copy_batch=True
            ),
            "digit",
            {"n": ("digit", "count")},
        ).to_pandas(),  # bounded: <= 9 digits
        ["digit", "n"],
    ).sort_values("digit")
    total = int(rolled["n"].sum())
    n = rolled["n"].to_numpy(dtype=np.int64)
    return pa.table(
        {
            "digit": pa.array(rolled["digit"].astype("int64"), pa.int64()),
            "n_orders": pa.array(n, pa.int64()),
            "permille": pa.array(n * 1000 // max(total, 1), pa.int64()),
        }
    )


BENFORD_PROFILE_SQL = """
WITH c AS (
  SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents FROM orders
),
d AS (
  SELECT CAST(substr(CAST(cents AS VARCHAR), 1, 1) AS BIGINT) AS digit,
         count(*) AS n
  FROM c GROUP BY 1
)
SELECT digit, CAST(n AS BIGINT) AS n_orders,
       CAST(n * 1000 // greatest((SELECT sum(n) FROM d), 1) AS BIGINT)
         AS permille
FROM d ORDER BY 1
"""


# -- table checksum (order-independent content fingerprint) -------------------

_CK_MASK = (1 << 50) - 1
_CK_PRIME = 2147483647  # Mersenne 2^31-1: residues sum safely in int64


def table_checksum(sf_dir: str) -> pa.Table:
    """Order-independent content fingerprint of the orders table: each
    row is canonicalized to ``key|custkey|status|priority``, hashed with
    the shared md5 low-8-byte scheme, masked to 50 bits, and the
    residues mod 2^31-1 are summed mod the same prime.  The (row_count,
    checksum) pair validates a migration / rewrite / compaction without
    comparing data: any dropped, duplicated or mutated row moves the
    sum.  Commutative + associative, so block order, partitioning and
    execution plan can't affect it — exactly what a 100 TB rewrite
    audit needs (per-batch partials are 2 ints; the only "shuffle" is a
    scalar aggregate).

    The DuckDB oracle recomputes the identical fingerprint from the
    same canonical string via md5_number_lower."""
    import hashlib

    ds = _read(
        sf_dir,
        "orders",
        ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        ok = batch.column("o_orderkey").to_pylist()
        ck = batch.column("o_custkey").to_pylist()
        st = batch.column("o_orderstatus").to_pylist()
        pr = batch.column("o_orderpriority").to_pylist()
        s = 0
        for a, b, c, d in zip(ok, ck, st, pr):
            hv = (
                int.from_bytes(
                    hashlib.md5(f"{a}|{b}|{c}|{d}".encode()).digest()[8:],
                    "little",
                )
                & _CK_MASK
            )
            s += hv % _CK_PRIME
        return pa.table(
            {
                "n": pa.array([len(ok)], pa.int64()),
                "s": pa.array([s % _CK_PRIME], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    agg = ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))
    n = int(agg.get("n") or 0)
    s = int(agg.get("s") or 0) % _CK_PRIME
    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "checksum": pa.array([s], pa.int64()),
        }
    )


TABLE_CHECKSUM_SQL = f"""
SELECT CAST(count(*) AS BIGINT) AS n_rows,
       CAST(COALESCE(sum(
         (md5_number_lower(
            o_orderkey::VARCHAR || '|' || o_custkey::VARCHAR || '|' ||
            o_orderstatus || '|' || o_orderpriority
          ) & {_CK_MASK}) % {_CK_PRIME}
       ), 0) % {_CK_PRIME} AS BIGINT) AS checksum
FROM orders
"""


# -- SCD-2 history build (validity intervals from an event stream) ------------


def scd2_history(sf_dir: str) -> pa.Table:
    """Slowly-changing-dimension type-2 build: collapse each user's
    event stream into validity intervals — one row per run of
    consecutive equal event_type, with valid_from = run start and
    valid_to = next run's start (NULL for the open current state).
    The warehouse-dimension shape every CDC/state pipeline needs.

    Scale shape: partitioned_by_key(user_id) — ONE keyed shuffle, one
    vectorized kernel per exchange block (lexsort + run-boundary sweep),
    never a per-user map_groups.  Ordering is made total with
    (ts, event_id) so ties are deterministic on both sides."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def kernel(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(
            pc.cast(part.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        et = np.asarray(part.column("event_type").to_pylist(), dtype=object)
        types, code = np.unique(et.astype(str), return_inverse=True)
        order = np.lexsort((eid, ts, uid))
        uid, ts, code = uid[order], ts[order], code[order]
        start = np.r_[True, (uid[1:] != uid[:-1]) | (code[1:] != code[:-1])]
        si = np.flatnonzero(start)
        s_uid, s_ts, s_code = uid[si], ts[si], code[si]
        nxt = np.empty(len(si), dtype=np.int64)
        nxt[:-1] = s_ts[1:]
        nxt[-1] = 0
        open_run = np.r_[s_uid[1:] != s_uid[:-1], True]
        valid_to = pc.if_else(
            pa.array(open_run),
            pa.scalar(None, pa.timestamp("us")),
            pa.array(nxt, pa.int64()).cast(pa.timestamp("us")),
        )
        return pa.table(
            {
                "user_id": pa.array(s_uid, pa.int64()),
                "event_type": pa.array(types[s_code].tolist(), pa.string()),
                "valid_from": pa.array(s_ts, pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "valid_to": valid_to,
            }
        )

    df = ensure_columns(
        partitioned_by_key(ds, "user_id", kernel).to_pandas(),
        ["user_id", "event_type", "valid_from", "valid_to"],
    )
    return pa.Table.from_pandas(
        df.sort_values(["user_id", "valid_from"]).reset_index(drop=True),
        preserve_index=False,
    )


SCD2_HISTORY_SQL = """
WITH e AS (
  SELECT user_id, event_type, ts, event_id,
         lag(event_type) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS prev_type
  FROM events
),
runs AS (
  SELECT user_id, event_type, ts AS valid_from, event_id
  FROM e WHERE prev_type IS NULL OR prev_type <> event_type
)
SELECT user_id, event_type, valid_from,
       lead(valid_from) OVER (
         PARTITION BY user_id ORDER BY valid_from, event_id
       ) AS valid_to
FROM runs ORDER BY user_id, valid_from
"""


# -- watermark + allowed-lateness hourly aggregation ---------------------------

_WM_BUCKET = 1 << 18  # arrival-order ids per bucket; driver holds one max each
_HOUR_US = 3_600_000_000  # output window width: always 1 hour
_WM_LATE_US = 3_600_000_000  # allowed lateness (independent knob, 1 h today)


def watermark_hourly(sf_dir: str, bucket_size: int = _WM_BUCKET) -> pa.Table:
    """Streaming-semantics tumbling aggregation: events arrive in
    event_id order, the watermark after each event is the running max
    event-time seen so far, and an event is LATE (dropped from its
    hourly window) when its event-time is more than 1 h behind the
    watermark at arrival — the allowed-lateness contract of every
    streaming engine, reproduced deterministically on a batch table.
    Output: per event-time hour, on-time and late counts.

    Scale shape — a distributed prefix scan, no global sort:
    (1) one streaming pass rolls up the MAX event-time per contiguous
        arrival bucket (event_id // 2^18; max is order-free, so this
        is a plain bounded keyed aggregate);
    (2) the driver computes the exclusive prefix-max over the bucket
        maxima (one row per bucket) and broadcasts the offsets;
    (3) one partitioned_by_key(bucket) pass sorts each bucket by
        event_id, takes the local exclusive cummax, combines it with
        the bucket's prefix offset to recover the EXACT global
        watermark at every row and flags lateness — finished by a tiny
        keyed (hour, on-time, late) aggregate."""
    ds = _read(sf_dir, "events", ["event_id", "ts"])

    def bucket_ts(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(
            pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "bucket": pa.array(eid // bucket_size, pa.int64()),
                "ts": pa.array(ts, pa.int64()),
            }
        )

    bmax = ensure_columns(
        keyed_aggregate(
            ds.map_batches(bucket_ts, batch_format="pyarrow", zero_copy_batch=True),
            "bucket",
            {"mx": ("ts", "max")},
        ).to_pandas(),  # bounded: one row per 2^18 arrival ids
        ["bucket", "mx"],
    ).sort_values("bucket")
    if len(bmax) == 0:
        return pa.table(
            {
                "hour": pa.array([], pa.timestamp("us")),
                "n_ontime": pa.array([], pa.int64()),
                "n_late": pa.array([], pa.int64()),
            }
        )
    buckets = bmax["bucket"].to_numpy()
    maxes = bmax["mx"].to_numpy()
    # exclusive prefix max: watermark entering each bucket
    prefix = np.r_[np.iinfo(np.int64).min, np.maximum.accumulate(maxes)[:-1]]
    offsets = dict(zip(buckets.tolist(), prefix.tolist()))
    offsets_ref = ray.put(offsets)

    def add_bucket(batch: pa.Table) -> pa.Table:
        eid = pc.cast(batch.column("event_id"), pa.int64())
        return pa.table(
            {
                "event_id": eid,
                "ts": pc.cast(batch.column("ts"), pa.timestamp("us")),
                "bucket": pc.divide(eid, bucket_size),
            }
        )

    def kernel(part: pa.Table) -> pa.Table:
        offs = ray.get(offsets_ref)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(part.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        bk = part.column("bucket").to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, bk))
        eid, ts, bk = eid[order], ts[order], bk[order]
        wm = np.empty(len(ts), dtype=np.int64)
        rb = run_bounds(bk)
        for s, e in zip(rb[:-1], rb[1:]):
            local = ts[s:e]
            excl = np.r_[
                np.iinfo(np.int64).min, np.maximum.accumulate(local)[:-1]
            ]
            wm[s:e] = np.maximum(excl, offs[int(bk[s])])
        late = (wm > np.iinfo(np.int64).min) & (ts < wm - _WM_LATE_US)
        return pa.table(
            {
                "hour": pa.array(ts // _HOUR_US * _HOUR_US, pa.int64()),
                "ontime": pa.array((~late).astype(np.int64), pa.int64()),
                "late": pa.array(late.astype(np.int64), pa.int64()),
            }
        )

    rolled = ensure_columns(
        keyed_aggregate(
            partitioned_by_key(
                ds.map_batches(
                    add_bucket, batch_format="pyarrow", zero_copy_batch=True
                ),
                "bucket",
                kernel,
            ),
            "hour",
            {"n_ontime": ("ontime", "sum"), "n_late": ("late", "sum")},
        ).to_pandas(),  # bounded: one row per active hour
        ["hour", "n_ontime", "n_late"],
    ).sort_values("hour")
    return pa.table(
        {
            "hour": pa.array(
                rolled["hour"].astype("int64"), pa.int64()
            ).cast(pa.timestamp("us")),
            "n_ontime": pa.array(rolled["n_ontime"].astype("int64"), pa.int64()),
            "n_late": pa.array(rolled["n_late"].astype("int64"), pa.int64()),
        }
    )


WATERMARK_HOURLY_SQL = """
WITH w AS (
  SELECT ts,
         max(ts) OVER (
           ORDER BY event_id
           ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
         ) AS wm
  FROM events
),
flagged AS (
  SELECT date_trunc('hour', ts) AS hour,
         (wm IS NOT NULL AND ts < wm - INTERVAL 1 HOUR) AS late
  FROM w
)
SELECT hour,
       CAST(count(*) FILTER (WHERE NOT late) AS BIGINT) AS n_ontime,
       CAST(count(*) FILTER (WHERE late) AS BIGINT) AS n_late
FROM flagged GROUP BY hour ORDER BY hour
"""


# -- top paths (behavioural sequence mining) ------------------------------------


def top_paths(sf_dir: str, cap: int = 5, k: int = 10) -> pa.Table:
    """The k most common user journeys: each user's first ``cap``
    event types joined in order, counted across users, top-k by
    (count desc, path asc) — the sequence-frequency report behind
    funnel design and behavioural tokenization.

    Scale shape: user_event_path's single user-keyed shuffle builds the
    per-user path strings; counting paths re-keys on a path HASH
    partition (strings shuffle once, bounded by users, not events),
    folds with a per-partition group count, and the final top-k is a
    per-block select_k + bounded driver merge — no global sort."""
    paths = user_event_path(sf_dir, cap=cap)

    def count_kernel(group: pa.Table) -> pa.Table:
        t = (
            group.select(["path"])
            .append_column(
                "n", pa.array(np.ones(group.num_rows, np.int64), pa.int64())
            )
            .group_by("path")
            .aggregate([("n", "sum")])
            .rename_columns(["path", "n"])
        )
        idx = pc.select_k_unstable(
            t,
            k=min(k, t.num_rows),
            sort_keys=[("n", "descending"), ("path", "ascending")],
        )
        return t.take(idx)

    cand = ensure_columns(
        partitioned_by_key(
            paths.select_columns(["path"]), "path", count_kernel, P=64
        ).to_pandas(),  # bounded: ≤ 2 × CPUs × k candidate rows
        ["path", "n"],
    )
    cand = cand.sort_values(["n", "path"], ascending=[False, True]).head(k)
    return pa.table(
        {
            "path": pa.array(cand["path"], pa.string()),
            "n_users": pa.array(cand["n"].astype("int64"), pa.int64()),
        }
    )


TOP_PATHS_SQL = """
WITH e AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
),
p AS (
  SELECT user_id, string_agg(event_type, '>' ORDER BY rn) AS path
  FROM e WHERE rn <= 5 GROUP BY user_id
)
SELECT path, CAST(count(*) AS BIGINT) AS n_users
FROM p GROUP BY path
ORDER BY n_users DESC, path LIMIT 10
"""


# -- RFM customer segmentation ---------------------------------------------------


def rfm_scores(sf_dir: str) -> pa.Table:
    """RFM segmentation: per customer Recency (days from last order to
    the corpus max order date), Frequency (order count) and Monetary
    (total spend, cents), each scored into quintiles 1-5 by the exact
    rank rule ``score = 1 + 5·(rank−1) // n`` with RANK() semantics
    (ties share the count-of-strictly-smaller rank) — the classic
    marketing / user-value segmentation, fully integer.

    Scale shape: one custkey-keyed shuffle folds orders to (R, F, M)
    per customer (partitioned_by_key kernel, never per-group Python);
    each metric's rank function comes from a (value, count) histogram
    rollup — bounded by DISTINCT observed metric values, not rows —
    cumsum'd on the driver and broadcast once; scoring is then a pure
    map.  For metrics with unbounded value domains at extreme scale,
    swap the histogram for percent_rank's two-stage bucketed ranks;
    with money bounded (price caps) the dict stays small."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderdate"])

    def fold(part: pa.Table) -> pa.Table:
        ck = part.column("o_custkey").to_numpy(zero_copy_only=False)
        dt = pc.cast(
            pc.cast(part.column("o_orderdate"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        cents = money_cents(
            part.column("o_totalprice").to_numpy(zero_copy_only=False)
        )
        order = np.argsort(ck, kind="stable")
        ck, dt, cents = ck[order], dt[order], cents[order]
        b = run_bounds(ck)
        return pa.table(
            {
                "custkey": pa.array(ck[b[:-1]], pa.int64()),
                "last_us": pa.array(
                    np.maximum.reduceat(dt, b[:-1]), pa.int64()
                ),
                "f": pa.array(np.diff(b), pa.int64()),
                "m": pa.array(np.add.reduceat(cents, b[:-1]), pa.int64()),
            }
        )

    from ._util import cut_lineage

    per_cust = cut_lineage(
        partitioned_by_key(ds, "o_custkey", fold)
    )  # reused for the global max, three histograms, and scoring

    max_us = int(per_cust.max("last_us") or 0)
    n_total = per_cust.count()
    if n_total == 0:
        return pa.table(
            {
                "custkey": pa.array([], pa.int64()),
                "r_score": pa.array([], pa.int64()),
                "f_score": pa.array([], pa.int64()),
                "m_score": pa.array([], pa.int64()),
            }
        )

    _DAY_US = 86_400_000_000

    def metrics(batch: pa.Table) -> pa.Table:
        last = batch.column("last_us").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "custkey": batch.column("custkey"),
                "r": pa.array((max_us - last) // _DAY_US, pa.int64()),
                "f": batch.column("f"),
                "m": batch.column("m"),
            }
        )

    scored_input = per_cust.map_batches(
        metrics, batch_format="pyarrow", zero_copy_batch=True
    )

    def hist_of(col: str) -> dict:
        h = (
            keyed_aggregate(scored_input, col, {"c": (col, "count")})
            .to_pandas()  # bounded: one row per distinct metric value
            .sort_values(col)
        )
        vals = h[col].to_numpy()
        cnts = h["c"].to_numpy()
        smaller = np.r_[0, np.cumsum(cnts)[:-1]]  # RANK() − 1
        return dict(zip(vals.tolist(), smaller.tolist()))

    ranks = {c: ray.put(hist_of(c)) for c in ("r", "f", "m")}

    def score(batch: pa.Table) -> pa.Table:
        out = {"custkey": batch.column("custkey")}
        for c in ("r", "f", "m"):
            rk = ray.get(ranks[c])
            v = batch.column(c).to_numpy(zero_copy_only=False)
            sm = np.fromiter((rk[int(x)] for x in v), np.int64, len(v))
            out[f"{c}_score"] = pa.array(1 + 5 * sm // n_total, pa.int64())
        return pa.table(out)

    df = ensure_columns(
        scored_input.map_batches(
            score, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas(),
        ["custkey", "r_score", "f_score", "m_score"],
    )
    return pa.Table.from_pandas(
        df.sort_values("custkey").reset_index(drop=True), preserve_index=False
    )


RFM_SCORES_SQL = """
WITH rfm AS (
  SELECT o_custkey AS custkey,
         date_diff('day', max(o_orderdate),
                   (SELECT max(o_orderdate) FROM orders)) AS r,
         count(*) AS f,
         sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS m
  FROM orders GROUP BY 1
),
ranked AS (
  SELECT custkey,
         rank() OVER (ORDER BY r) AS rr,
         rank() OVER (ORDER BY f) AS fr,
         rank() OVER (ORDER BY m) AS mr,
         count(*) OVER () AS n
  FROM rfm
)
SELECT custkey,
       CAST(1 + 5 * (rr - 1) // n AS BIGINT) AS r_score,
       CAST(1 + 5 * (fr - 1) // n AS BIGINT) AS f_score,
       CAST(1 + 5 * (mr - 1) // n AS BIGINT) AS m_score
FROM ranked ORDER BY custkey
"""


# -- pushdown-pruned read --------------------------------------------------------


def pruned_read_revenue(sf_dir: str) -> pa.Table:
    """Predicate + projection pushdown at the READ: urgent-order
    revenue per order-status, with the row filter bound into
    ``read_parquet`` (pyarrow dataset filter → row-group statistics
    pruning: row groups whose min/max exclude '1-URGENT' are never
    decoded) and only the 3 needed columns projected.  At 100 TB the
    difference between filtering in the engine and filtering at the
    read is the whole scan: bytes that never leave storage cost
    nothing downstream.

    Scale shape: pruned scan → one keyed aggregate per order status."""
    import pyarrow.dataset as pads

    ds = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_totalprice", "o_orderpriority"],
        filter=pads.field("o_orderpriority") == "1-URGENT",
    )

    def status_cents(batch: pa.Table) -> pa.Table:
        cents = money_cents(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "o_orderstatus": pc.cast(batch.column("o_orderstatus"), pa.string()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    df = ensure_columns(
        keyed_aggregate(
            ds.map_batches(status_cents, batch_format="pyarrow", zero_copy_batch=True),
            "o_orderstatus",
            {"n_orders": ("cents", "count"), "total_cents": ("cents", "sum")},
        ).to_pandas(),  # bounded: one row per order status
        ["o_orderstatus", "n_orders", "total_cents"],
    ).sort_values("o_orderstatus")
    return pa.table(
        {
            "o_orderstatus": pa.array(df["o_orderstatus"], pa.string()),
            "n_orders": pa.array(df["n_orders"].astype("int64"), pa.int64()),
            "total_cents": pa.array(df["total_cents"].astype("int64"), pa.int64()),
        }
    )


PRUNED_READ_REVENUE_SQL = """
SELECT o_orderstatus,
       CAST(count(*) AS BIGINT) AS n_orders,
       CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT)
         AS total_cents
FROM orders WHERE o_orderpriority = '1-URGENT'
GROUP BY 1 ORDER BY 1
"""


# -- event trigram counts ---------------------------------------------------------


def event_trigram_counts(sf_dir: str, k: int = 25) -> pa.Table:
    """Top-k event TRIGRAMS across per-user ordered streams — the
    order-3 extension of event_transitions that behavioural sequence
    models (and funnel designers) read before committing to a context
    length.  Output: (t1, t2, t3, cnt), top-k by (cnt desc, types asc).

    Scale shape: same as event_transitions — one user-keyed shuffle,
    per-partition coded-trigram bincount (≤ types³ partial rows per
    partition regardless of stream length), tiny rollup, then top-k by
    per-block select_k + bounded driver merge."""
    ds = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def partial(part: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "t1": pa.array([], pa.string()),
                "t2": pa.array([], pa.string()),
                "t3": pa.array([], pa.string()),
                "cnt_part": pa.array([], pa.int64()),
            }
        )
        if part.num_rows < 3:
            return empty
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(
            pc.cast(part.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        types = np.asarray(part.column("event_type").to_pylist(), dtype=object)
        uniq, code = np.unique(types, return_inverse=True)
        order = np.lexsort((eid, ts, uid))
        uid, code = uid[order], code[order]
        T = len(uniq)
        same = (uid[2:] == uid[:-2]) & (uid[1:-1] == uid[:-2])
        tri = (code[:-2][same] * T + code[1:-1][same]) * T + code[2:][same]
        if len(tri) == 0:
            return empty
        # sparse count: a dense bincount would allocate T^3 cells, which
        # explodes on high-cardinality type domains
        nz, cnt = np.unique(tri, return_counts=True)
        return pa.table(
            {
                "t1": pa.array(uniq[nz // (T * T)], pa.string()),
                "t2": pa.array(uniq[(nz // T) % T], pa.string()),
                "t3": pa.array(uniq[nz % T], pa.string()),
                "cnt_part": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    rolled = ensure_columns(
        keyed_aggregate(
            partitioned_by_key(ds, "user_id", partial),
            ["t1", "t2", "t3"],
            {"cnt": ("cnt_part", "sum")},
        ).to_pandas(),  # bounded: ≤ types³ rows
        ["t1", "t2", "t3", "cnt"],
    )
    rolled = rolled.sort_values(
        ["cnt", "t1", "t2", "t3"], ascending=[False, True, True, True]
    ).head(k)
    return pa.table(
        {
            "t1": pa.array(rolled["t1"], pa.string()),
            "t2": pa.array(rolled["t2"], pa.string()),
            "t3": pa.array(rolled["t3"], pa.string()),
            "cnt": pa.array(rolled["cnt"].astype("int64"), pa.int64()),
        }
    )


EVENT_TRIGRAM_COUNTS_SQL = """
WITH seq AS (
  SELECT user_id, event_type AS t3,
         lag(event_type, 1) OVER w AS t2,
         lag(event_type, 2) OVER w AS t1
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
)
SELECT t1, t2, t3, CAST(count(*) AS BIGINT) AS cnt
FROM seq WHERE t1 IS NOT NULL
GROUP BY 1, 2, 3
ORDER BY cnt DESC, t1, t2, t3 LIMIT 25
"""


# -- range partition planner (pre-sort boundary computation) ----------------------


def range_partition_plan(sf_dir: str, n_buckets: int = 8) -> pa.Table:
    """Range-partition planner: the step a scalable distributed sort or
    range-bucketed write runs FIRST — compute ``n_buckets`` balanced
    key ranges for orders.o_totalprice (cents) from an exact value
    histogram, so downstream range exchanges are skew-free.  Output per
    bucket: inclusive lo/hi cent bounds and the exact row count that
    will land there.  Bucket b covers ranks [b·n/B, (b+1)·n/B) under
    (cents, rank) order — sizes differ by at most 1 even through value
    ties, because ties are split by rank, exactly how a range
    exchange with a tie-break column behaves.

    Scale shape: one streaming pass folds to a (cents, count)
    histogram — bounded by DISTINCT price values (prices are domain-
    bounded), one keyed aggregate; the boundary walk runs on the
    bounded histogram on the driver."""
    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def to_cents(batch: pa.Table) -> pa.Table:
        cents = money_cents(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        )
        return pa.table({"cents": pa.array(cents, pa.int64())})

    hist = ensure_columns(
        keyed_aggregate(
            ds.map_batches(to_cents, batch_format="pyarrow", zero_copy_batch=True),
            "cents",
            {"c": ("cents", "count")},
        ).to_pandas(),  # bounded: one row per distinct price
        ["cents", "c"],
    ).sort_values("cents")
    if len(hist) == 0:
        return pa.table(
            {
                "bucket": pa.array([], pa.int64()),
                "lo_cents": pa.array([], pa.int64()),
                "hi_cents": pa.array([], pa.int64()),
                "n_rows": pa.array([], pa.int64()),
            }
        )
    vals = hist["cents"].to_numpy()
    cnts = hist["c"].to_numpy()
    cum = np.cumsum(cnts)
    n = int(cum[-1])
    out_b, out_lo, out_hi, out_n = [], [], [], []
    for b in range(n_buckets):
        # rank rk belongs to bucket rk·B // n, so bucket b covers ranks
        # [ceil(b·n/B), ceil((b+1)·n/B))
        r_lo = (b * n + n_buckets - 1) // n_buckets
        r_hi = ((b + 1) * n + n_buckets - 1) // n_buckets
        if r_hi <= r_lo:
            continue
        i_lo = int(np.searchsorted(cum, r_lo + 1))
        i_hi = int(np.searchsorted(cum, r_hi))
        out_b.append(b)
        out_lo.append(int(vals[i_lo]))
        out_hi.append(int(vals[i_hi]))
        out_n.append(r_hi - r_lo)
    return pa.table(
        {
            "bucket": pa.array(out_b, pa.int64()),
            "lo_cents": pa.array(out_lo, pa.int64()),
            "hi_cents": pa.array(out_hi, pa.int64()),
            "n_rows": pa.array(out_n, pa.int64()),
        }
    )


RANGE_PARTITION_PLAN_SQL = """
WITH r AS (
  SELECT CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents,
         row_number() OVER (
           ORDER BY CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
         ) - 1 AS rk,
         count(*) OVER () AS n
  FROM orders
)
SELECT CAST(rk * 8 // n AS BIGINT) AS bucket,
       CAST(min(cents) AS BIGINT) AS lo_cents,
       CAST(max(cents) AS BIGINT) AS hi_cents,
       CAST(count(*) AS BIGINT) AS n_rows
FROM r GROUP BY 1 ORDER BY 1
"""


# -- set operations over behaviour cohorts ----------------------------------------


def user_set_ops(sf_dir: str) -> pa.Table:
    """EXCEPT / INTERSECT set semantics over activity cells: each
    (user, day) cell is classified click-only (clicked EXCEPT
    purchased), purchase-only, or both (INTERSECT) — the cohort
    set-algebra report, computed WITHOUT materializing the two
    distinct sets and shuffling them through set operators: each row
    carries membership flags (OR merges as Max over 0/1), one keyed
    aggregate per cell classifies every cell.

    Scale shape: one (user, day)-keyed aggregate, then one on the class
    for a 3-row result."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    _DAY_US2 = 86_400_000_000

    def flags(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch.column("event_type").to_pylist(), dtype=object)
        ts = pc.cast(
            pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        is_c = (et == "click").astype(np.int64)
        is_p = (et == "purchase").astype(np.int64)
        keep = np.flatnonzero((is_c | is_p) > 0)
        return pa.table(
            {
                "user_id": batch.column("user_id").take(keep),
                "day": pa.array(ts[keep] // _DAY_US2, pa.int64()),
                "c": pa.array(is_c[keep], pa.int64()),
                "p": pa.array(is_p[keep], pa.int64()),
            }
        )

    def classify(b: pa.Table) -> pa.Table:
        c = b.column("c").to_numpy(zero_copy_only=False)
        p = b.column("p").to_numpy(zero_copy_only=False)
        op = np.select(
            [(c == 1) & (p == 0), (c == 0) & (p == 1)],
            ["click_only", "purchase_only"],
            default="both",
        )
        return pa.table({"op": pa.array(op, pa.string())})

    cells = keyed_aggregate(
        ds.map_batches(flags, batch_format="pyarrow", zero_copy_batch=True),
        ["user_id", "day"],
        {"c": ("c", "max"), "p": ("p", "max")},
    )
    rolled = ensure_columns(
        keyed_aggregate(
            cells.map_batches(classify, batch_format="pyarrow", zero_copy_batch=True),
            "op",
            {"n_cells": ("op", "count")},
        ).to_pandas(),  # 3 rows
        ["op", "n_cells"],
    ).sort_values("op")
    return pa.table(
        {
            "op": pa.array(rolled["op"], pa.string()),
            "n_cells": pa.array(rolled["n_cells"].astype("int64"), pa.int64()),
        }
    )


USER_SET_OPS_SQL = """
WITH m AS (
  SELECT user_id, date_trunc('day', ts) AS day,
         max(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS c,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS p
  FROM events
  WHERE event_type IN ('click', 'purchase')
  GROUP BY 1, 2
)
SELECT CASE WHEN c = 1 AND p = 0 THEN 'click_only'
            WHEN c = 0 AND p = 1 THEN 'purchase_only'
            ELSE 'both' END AS op,
       CAST(count(*) AS BIGINT) AS n_cells
FROM m GROUP BY 1 ORDER BY 1
"""


# -- revenue concentration (top-p% share) -----------------------------------------


def revenue_concentration(sf_dir: str) -> pa.Table:
    """Revenue concentration: the permille share of total revenue held
    by the top 1 / 5 / 10 / 25 % of customers by spend (k = max(1,
    n·p // 100) customers) — the whale-dependence metric.  Exact even
    through spend ties: tied customers have identical spend, so which
    of them fill the last cutoff slots cannot change the sum.

    Scale shape: one custkey-keyed fold to per-customer cents, then a
    (spend → customer count) histogram rollup — bounded by distinct
    spend values — walked top-down on the driver."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def fold(part: pa.Table) -> pa.Table:
        ck = part.column("o_custkey").to_numpy(zero_copy_only=False)
        cents = money_cents(
            part.column("o_totalprice").to_numpy(zero_copy_only=False)
        )
        order = np.argsort(ck, kind="stable")
        ck, cents = ck[order], cents[order]
        b = run_bounds(ck)
        return pa.table(
            {
                "custkey": pa.array(ck[b[:-1]], pa.int64()),
                "m": pa.array(np.add.reduceat(cents, b[:-1]), pa.int64()),
            }
        )

    h = ensure_columns(
        keyed_aggregate(
            partitioned_by_key(ds, "o_custkey", fold), "m", {"c": ("m", "count")}
        ).to_pandas(),  # bounded: one row per distinct spend value
        ["m", "c"],
    ).sort_values("m", ascending=False)
    if len(h) == 0:
        return pa.table(
            {
                "pct": pa.array([], pa.int64()),
                "n_top": pa.array([], pa.int64()),
                "share_permille": pa.array([], pa.int64()),
            }
        )
    vals = h["m"].to_numpy()
    cnts = h["c"].to_numpy()
    cum_n = np.cumsum(cnts)
    cum_s = np.cumsum(vals * cnts)
    n = int(cum_n[-1])
    total = int(cum_s[-1])
    out_p, out_k, out_s = [], [], []
    for p in (1, 5, 10, 25):
        k = max(n * p // 100, 1)
        i = int(np.searchsorted(cum_n, k))  # first idx with cum_n >= k
        # sum of top-k spends: full groups above + partial tied group
        full = int(cum_s[i - 1]) if i > 0 else 0
        prev_n = int(cum_n[i - 1]) if i > 0 else 0
        top = full + (k - prev_n) * int(vals[i])
        out_p.append(p)
        out_k.append(k)
        out_s.append(1000 * top // total if total else 0)
    return pa.table(
        {
            "pct": pa.array(out_p, pa.int64()),
            "n_top": pa.array(out_k, pa.int64()),
            "share_permille": pa.array(out_s, pa.int64()),
        }
    )


REVENUE_CONCENTRATION_SQL = """
WITH spend AS (
  SELECT o_custkey,
         sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS m
  FROM orders GROUP BY 1
),
r AS (
  SELECT m,
         row_number() OVER (ORDER BY m DESC, o_custkey) AS rn,
         count(*) OVER () AS n,
         sum(m) OVER () AS total
  FROM spend
)
SELECT CAST(p.pct AS BIGINT) AS pct,
       CAST(greatest(max(n) * p.pct // 100, 1) AS BIGINT) AS n_top,
       CAST(1000 * sum(CASE WHEN rn <= greatest(n * p.pct // 100, 1)
                            THEN m ELSE 0 END) // max(total) AS BIGINT)
         AS share_permille
FROM (VALUES (1), (5), (10), (25)) AS p(pct), r
GROUP BY p.pct ORDER BY p.pct
"""


# -- distribution drift between cohorts --------------------------------------------


def value_drift(sf_dir: str) -> pa.Table:
    """Distribution-drift report between the 'click' and 'purchase'
    value distributions: per 10-unit value bin, both cohorts' permille
    frequencies and the per-bin absolute difference, plus the summary
    total-variation row (bin = -1, drift = Σ|p−q| // 2) — the data-
    quality gate a production pipeline runs between ingest generations
    before mixing them.  All arithmetic is integer permille (floored),
    mirrored exactly by the oracle.

    Scale shape: one keyed aggregate folds to a (type, bin, count)
    histogram — bounded by types × bins — and the drift math runs on
    the bounded rollup."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def binned(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch.column("event_type").to_pylist(), dtype=object)
        v = batch.column("value").to_numpy(zero_copy_only=False)
        keep = np.flatnonzero((et == "click") | (et == "purchase"))
        return pa.table(
            {
                "event_type": batch.column("event_type").take(keep),
                "bin": pa.array(np.floor(v[keep] / 10).astype(np.int64), pa.int64()),
            }
        )

    h = ensure_columns(
        keyed_aggregate(
            ds.map_batches(binned, batch_format="pyarrow", zero_copy_batch=True),
            ["event_type", "bin"],
            {"c": ("bin", "count")},
        ).to_pandas(),  # bounded: 2 × bins rows
        ["event_type", "bin", "c"],
    )

    piv = (
        h.pivot_table(
            index="bin", columns="event_type", values="c", fill_value=0
        )
        .reindex(columns=["click", "purchase"], fill_value=0)
        .sort_index()
    )
    if len(piv) == 0:
        return pa.table(
            {
                "bin": pa.array([], pa.int64()),
                "click_permille": pa.array([], pa.int64()),
                "purchase_permille": pa.array([], pa.int64()),
                "abs_diff": pa.array([], pa.int64()),
            }
        )
    c = piv["click"].to_numpy().astype(np.int64)
    p = piv["purchase"].to_numpy().astype(np.int64)
    nc, npu = max(int(c.sum()), 1), max(int(p.sum()), 1)
    cp = 1000 * c // nc
    pp = 1000 * p // npu
    d = np.abs(cp - pp)
    bins = piv.index.to_numpy().astype(np.int64)
    return pa.table(
        {
            "bin": pa.array(np.r_[bins, [-1]], pa.int64()),
            "click_permille": pa.array(np.r_[cp, [int(cp.sum())]], pa.int64()),
            "purchase_permille": pa.array(
                np.r_[pp, [int(pp.sum())]], pa.int64()
            ),
            "abs_diff": pa.array(np.r_[d, [int(d.sum()) // 2]], pa.int64()),
        }
    )


VALUE_DRIFT_SQL = """
WITH h AS (
  SELECT event_type, CAST(floor(value / 10) AS BIGINT) AS bin, count(*) AS c
  FROM events WHERE event_type IN ('click', 'purchase')
  GROUP BY 1, 2
),
bins AS (SELECT DISTINCT bin FROM h),
w AS (
  SELECT b.bin,
         COALESCE(max(CASE WHEN event_type = 'click' THEN c END), 0) AS cc,
         COALESCE(max(CASE WHEN event_type = 'purchase' THEN c END), 0) AS pc
  FROM bins b LEFT JOIN h ON h.bin = b.bin
  GROUP BY 1
),
t AS (SELECT greatest(sum(cc), 1) AS nc, greatest(sum(pc), 1) AS np FROM w),
f AS (
  SELECT w.bin,
         1000 * w.cc // t.nc AS cp,
         1000 * w.pc // t.np AS pp
  FROM w CROSS JOIN t
)
SELECT CAST(bin AS BIGINT) AS bin,
       CAST(cp AS BIGINT) AS click_permille,
       CAST(pp AS BIGINT) AS purchase_permille,
       CAST(abs(cp - pp) AS BIGINT) AS abs_diff
FROM f
UNION ALL
SELECT -1, CAST(sum(cp) AS BIGINT), CAST(sum(pp) AS BIGINT),
       CAST(sum(abs(cp - pp)) // 2 AS BIGINT)
FROM f HAVING count(*) > 0
ORDER BY bin
"""


# -- weekday × hour activity heatmap ------------------------------------------------


def weekday_hour_heatmap(sf_dir: str) -> pa.Table:
    """Activity heatmap: event counts per (day-of-week, hour-of-day)
    cell — the seasonality fingerprint capacity planners and anomaly
    baselines read.  dow follows DuckDB's dayofweek (Sunday = 0),
    derived in pure integer math from the µs timestamp
    ((days_since_epoch + 4) % 7 — 1970-01-01 was a Thursday).

    Scale shape: one keyed aggregate to ≤ 168 cells."""
    ds = _read(sf_dir, "events", ["ts"])
    _DAY = 86_400_000_000
    _HR = 3_600_000_000

    def cell(batch: pa.Table) -> pa.Table:
        ts = pc.cast(
            pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "dow": pa.array((ts // _DAY + 4) % 7, pa.int64()),
                "hour": pa.array((ts % _DAY) // _HR, pa.int64()),
            }
        )

    df = ensure_columns(
        keyed_aggregate(
            ds.map_batches(cell, batch_format="pyarrow", zero_copy_batch=True),
            ["dow", "hour"],
            {"n": ("dow", "count")},
        ).to_pandas(),  # ≤ 168 rows
        ["dow", "hour", "n"],
    ).sort_values(["dow", "hour"])
    return pa.table(
        {
            "dow": pa.array(df["dow"].astype("int64"), pa.int64()),
            "hour": pa.array(df["hour"].astype("int64"), pa.int64()),
            "n_events": pa.array(df["n"].astype("int64"), pa.int64()),
        }
    )


WEEKDAY_HOUR_HEATMAP_SQL = """
SELECT CAST(dayofweek(ts) AS BIGINT) AS dow,
       CAST(hour(ts) AS BIGINT) AS hour,
       CAST(count(*) AS BIGINT) AS n_events
FROM events GROUP BY 1, 2 ORDER BY 1, 2
"""


# -- temporal train/test split --------------------------------------------------


def temporal_split(sf_dir: str, train_permille: int = 800) -> pa.Table:
    """Leakage-free temporal holdout: each user's events are split
    chronologically — the FIRST ceil(80%) by (ts, event_id) order are
    'train', the rest 'test' — the split an event-sequence model must
    use (random splits leak future behaviour into training).  Output:
    per (user, split) row counts plus each side's time range, so the
    no-overlap property is auditable per user.

    Scale shape: one user-keyed shuffle, vectorized rank-within-run
    kernel (lexsort + run boundaries + position arithmetic), bounded
    2-rows-per-user output."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def kernel(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(
            pc.cast(part.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ts = uid[order], ts[order]
        b = run_bounds(uid)
        sizes = np.diff(b)
        # train size = ceil(n * permille / 1000), mirrored by the oracle
        train_n = -(-sizes * train_permille // 1000)
        pos = np.arange(len(uid)) - np.repeat(b[:-1], sizes)
        is_train = pos < np.repeat(train_n, sizes)
        key = uid * 2 + (~is_train).astype(np.int64)
        o2 = np.argsort(key, kind="stable")
        key, ts2 = key[o2], ts[o2]
        kb = run_bounds(key)
        return pa.table(
            {
                "user_id": pa.array(key[kb[:-1]] // 2, pa.int64()),
                "split": pa.array(
                    np.where(key[kb[:-1]] % 2 == 0, "train", "test").tolist(),
                    pa.string(),
                ),
                "n_events": pa.array(np.diff(kb), pa.int64()),
                "min_ts": pa.array(
                    np.minimum.reduceat(ts2, kb[:-1]), pa.int64()
                ).cast(pa.timestamp("us")),
                "max_ts": pa.array(
                    np.maximum.reduceat(ts2, kb[:-1]), pa.int64()
                ).cast(pa.timestamp("us")),
            }
        )

    df = ensure_columns(
        partitioned_by_key(ds, "user_id", kernel).to_pandas(),
        ["user_id", "split", "n_events", "min_ts", "max_ts"],
    )
    return pa.Table.from_pandas(
        df.sort_values(["user_id", "split"]).reset_index(drop=True),
        preserve_index=False,
    )


TEMPORAL_SPLIT_SQL = """
WITH r AS (
  SELECT user_id, ts,
         row_number() OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS rn,
         count(*) OVER (PARTITION BY user_id) AS n
  FROM events
),
s AS (
  SELECT user_id, ts,
         CASE WHEN rn <= (n * 800 + 999) // 1000 THEN 'train'
              ELSE 'test' END AS split
  FROM r
)
SELECT user_id, split,
       CAST(count(*) AS BIGINT) AS n_events,
       min(ts) AS min_ts, max(ts) AS max_ts
FROM s GROUP BY 1, 2 ORDER BY 1, 2
"""


# -- state dwell times -------------------------------------------------------------


def state_dwell_times(sf_dir: str) -> pa.Table:
    """Time-in-state analytics over the SCD-2 interval stream: for each
    event_type state, the total dwell time (µs) users spent in it and
    the closed-interval count — the state-machine report behind
    engagement and ops dashboards.  Open (current) intervals have no
    end and are excluded, both sides.

    Scale shape: scd2_history's single user-keyed shuffle and run
    sweep, with the interval rows folded to a ≤-types rollup inside
    the same kernel — durations never leave the partition as rows."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def kernel(part: pa.Table) -> pa.Table:
        uid = part.column("user_id").to_numpy(zero_copy_only=False)
        eid = part.column("event_id").to_numpy(zero_copy_only=False)
        ts = pc.cast(
            pc.cast(part.column("ts"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        et = np.asarray(part.column("event_type").to_pylist(), dtype=object)
        types, code = np.unique(et.astype(str), return_inverse=True)
        order = np.lexsort((eid, ts, uid))
        uid, ts, code = uid[order], ts[order], code[order]
        start = np.r_[True, (uid[1:] != uid[:-1]) | (code[1:] != code[:-1])]
        si = np.flatnonzero(start)
        s_uid, s_ts, s_code = uid[si], ts[si], code[si]
        closed = np.r_[s_uid[1:] == s_uid[:-1], False]
        dur = np.zeros(len(si), dtype=np.int64)
        dur[:-1] = s_ts[1:] - s_ts[:-1]
        c = s_code[closed]
        d = dur[closed]
        dwell = np.zeros(len(types), dtype=np.int64)
        cnt = np.zeros(len(types), dtype=np.int64)
        np.add.at(dwell, c, d)
        np.add.at(cnt, c, 1)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "event_type": pa.array(types[nz].tolist(), pa.string()),
                "dwell_us": pa.array(dwell[nz], pa.int64()),
                "n_intervals": pa.array(cnt[nz], pa.int64()),
            }
        )

    df = ensure_columns(
        keyed_aggregate(
            partitioned_by_key(ds, "user_id", kernel),
            "event_type",
            {"dwell_us": ("dwell_us", "sum"), "n_intervals": ("n_intervals", "sum")},
        ).to_pandas(),  # ≤ types rows
        ["event_type", "dwell_us", "n_intervals"],
    ).sort_values("event_type")
    return pa.table(
        {
            "event_type": pa.array(df["event_type"], pa.string()),
            "dwell_us": pa.array(df["dwell_us"].astype("int64"), pa.int64()),
            "n_intervals": pa.array(df["n_intervals"].astype("int64"), pa.int64()),
        }
    )


STATE_DWELL_TIMES_SQL = """
WITH e AS (
  SELECT user_id, event_type, ts, event_id,
         lag(event_type) OVER w AS prev_type
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
runs AS (
  SELECT user_id, event_type, ts AS valid_from,
         lead(ts) OVER (
           PARTITION BY user_id ORDER BY ts, event_id
         ) AS valid_to
  FROM e WHERE prev_type IS NULL OR prev_type <> event_type
)
SELECT event_type,
       CAST(sum(epoch_us(valid_to) - epoch_us(valid_from)) AS BIGINT)
         AS dwell_us,
       CAST(count(*) AS BIGINT) AS n_intervals
FROM runs WHERE valid_to IS NOT NULL
GROUP BY 1 ORDER BY 1
"""


# -- primary-key uniqueness audit ----------------------------------------------------


def pk_audit(sf_dir: str) -> pa.Table:
    """Primary-key audit across the fact tables: per (table, key), the
    row count, distinct-key count and number of duplicated key values —
    the ingest-contract check every pipeline runs before trusting a
    MERGE/upsert key.  A healthy corpus reports zero duplicates; the
    op exists so a broken ingest is caught by a 3-row report, not a
    corrupted join downstream.

    Scale shape: per table, one keyed count per key → ≤-1-row fold
    (rows, distinct, dups are all sums over the bounded per-key count table — which itself
    never reaches the driver; the fold is a second tiny aggregate)."""

    specs = [
        ("orders", "o_orderkey"),
        ("events", "event_id"),
        ("customer", "c_custkey"),
    ]
    names, rows_l, dist_l, dup_l = [], [], [], []
    for table, key in specs:
        ds = _read(sf_dir, table, [key])

        def fold(batch: pa.Table) -> pa.Table:
            c = batch.column("c").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "rows": pa.array([int(c.sum())], pa.int64()),
                    "dist": pa.array([len(c)], pa.int64()),
                    "dups": pa.array([int((c > 1).sum())], pa.int64()),
                }
            )

        agg = (
            keyed_aggregate(ds, key, {"c": (key, "count")})
            .map_batches(fold, batch_format="pyarrow", zero_copy_batch=True)
            .aggregate(
                ray.data.aggregate.Sum("rows", alias_name="rows"),
                ray.data.aggregate.Sum("dist", alias_name="dist"),
                ray.data.aggregate.Sum("dups", alias_name="dups"),
            )
        )
        names.append(f"{table}.{key}")
        rows_l.append(int(agg.get("rows") or 0))
        dist_l.append(int(agg.get("dist") or 0))
        dup_l.append(int(agg.get("dups") or 0))
    return pa.table(
        {
            "key": pa.array(names, pa.string()),
            "n_rows": pa.array(rows_l, pa.int64()),
            "n_distinct": pa.array(dist_l, pa.int64()),
            "n_dup_keys": pa.array(dup_l, pa.int64()),
        }
    )


PK_AUDIT_SQL = """
SELECT 'customer.c_custkey' AS key,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(count(DISTINCT c_custkey) AS BIGINT) AS n_distinct,
       CAST((SELECT count(*) FROM (
          SELECT c_custkey FROM customer GROUP BY 1 HAVING count(*) > 1
       )) AS BIGINT) AS n_dup_keys
FROM customer
UNION ALL
SELECT 'events.event_id', CAST(count(*) AS BIGINT),
       CAST(count(DISTINCT event_id) AS BIGINT),
       CAST((SELECT count(*) FROM (
          SELECT event_id FROM events GROUP BY 1 HAVING count(*) > 1
       )) AS BIGINT)
FROM events
UNION ALL
SELECT 'orders.o_orderkey', CAST(count(*) AS BIGINT),
       CAST(count(DISTINCT o_orderkey) AS BIGINT),
       CAST((SELECT count(*) FROM (
          SELECT o_orderkey FROM orders GROUP BY 1 HAVING count(*) > 1
       )) AS BIGINT)
FROM orders
ORDER BY key
"""


# -- Spearman rank correlation via bounded joint histogram ---------------------


def spearman_rank_stats(sf_dir: str) -> pa.Table:
    """Exact Spearman sufficient statistics between l_quantity and
    l_discount, the bounded-domain rank trick: both columns have tiny
    value domains (50 x 11), so instead of globally sorting 100 TB of
    rows to assign ranks, one keyed aggregate counts the (qty, disc)
    joint histogram (<= 550 cells, pre-combined per call), and the
    driver derives tie-averaged ranks from the marginal counts — a
    frequency-of-frequencies computation over the cell table, never the
    rows.  Ranks are DOUBLED so tie-averages stay integral
    (2*avg_rank = 2*min_rank + tie_count - 1), making the whole output
    int64 and the oracle hash exact; rho itself is a trivial downstream
    divide (pinned in pytest).  int64 bound: sum(rx*ry*cnt) <= 4*n^3,
    safe to n ~= 1.3e6 per partial — the 100 TB path promotes the final
    six-word merge to 128-bit (DuckDB's HUGEINT sum does the same
    upstream before our CAST).  Scale shape: shuffle moves only
    histogram cells; rank derivation is O(domain), not O(rows)."""
    li = _read(sf_dir, "lineitem", ["l_quantity", "l_discount"])

    def cells(batch: pa.Table) -> pa.Table:
        q = (
            batch.column("l_quantity")
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        d = money_cents(batch.column("l_discount").to_numpy(zero_copy_only=False))
        return pa.table({"q": pa.array(q, pa.int64()), "d": pa.array(d, pa.int64())})

    joint = keyed_aggregate(
        li.map_batches(cells, batch_format="pyarrow", zero_copy_batch=True),
        ["q", "d"],
        {"cnt": ("q", "count")},
    ).to_pandas()
    names = ["n", "sum_rx", "sum_ry", "sum_rxy", "sum_rx2", "sum_ry2"]
    if joint.empty:
        return pa.table({c: pa.array([0], pa.int64()) for c in names})
    qv = joint["q"].to_numpy().astype(np.int64)
    dv = joint["d"].to_numpy().astype(np.int64)
    cv = joint["cnt"].to_numpy().astype(np.int64)

    def _dr(marginal: dict[int, int]) -> dict[int, int]:
        # 2*avg_rank per distinct value: 2*(1 + #smaller) + ties - 1.
        out: dict[int, int] = {}
        below = 0
        for v in sorted(marginal):
            c = marginal[v]
            out[v] = 2 * (below + 1) + c - 1
            below += c
        return out

    mq: dict[int, int] = {}
    md: dict[int, int] = {}
    for qi, di, ci in zip(qv.tolist(), dv.tolist(), cv.tolist()):
        mq[qi] = mq.get(qi, 0) + ci
        md[di] = md.get(di, 0) + ci
    rq, rd = _dr(mq), _dr(md)
    n = sum_rx = sum_ry = sum_rxy = sum_rx2 = sum_ry2 = 0
    for qi, di, ci in zip(qv.tolist(), dv.tolist(), cv.tolist()):
        rx, ry = rq[qi], rd[di]
        n += ci
        sum_rx += rx * ci
        sum_ry += ry * ci
        sum_rxy += rx * ry * ci
        sum_rx2 += rx * rx * ci
        sum_ry2 += ry * ry * ci
    vals = [n, sum_rx, sum_ry, sum_rxy, sum_rx2, sum_ry2]
    if max(vals) >= 2**63:  # loud, not silent wrap (ADVICE r3 pattern)
        raise OverflowError("spearman_rank_stats: int64 sufficient stats overflow")
    return pa.table({c: pa.array([v], pa.int64()) for c, v in zip(names, vals)})


SPEARMAN_RANK_STATS_SQL = """
WITH r AS (
  SELECT
    2 * RANK() OVER (ORDER BY l_quantity)
      + COUNT(*) OVER (PARTITION BY l_quantity) - 1 AS rx,
    2 * RANK() OVER (ORDER BY l_discount)
      + COUNT(*) OVER (PARTITION BY l_discount) - 1 AS ry
  FROM lineitem
)
SELECT CAST(count(*) AS BIGINT)                 AS n,
       CAST(COALESCE(sum(rx), 0) AS BIGINT)     AS sum_rx,
       CAST(COALESCE(sum(ry), 0) AS BIGINT)     AS sum_ry,
       CAST(COALESCE(sum(rx * ry), 0) AS BIGINT) AS sum_rxy,
       CAST(COALESCE(sum(rx * rx), 0) AS BIGINT) AS sum_rx2,
       CAST(COALESCE(sum(ry * ry), 0) AS BIGINT) AS sum_ry2
FROM r
"""


# -- per-group Gini impurity (integer permille) --------------------------------


def source_lang_gini(sf_dir: str) -> pa.Table:
    """Language-mix Gini impurity per document source — the corpus-
    balance diagnostic an LLM-data pipeline runs before fixing sampling
    weights.  gini_permille = 1000 - floor(1000 * sum(c^2) / n^2), exact
    integer arithmetic end-to-end (operands non-negative, so DuckDB's
    truncating // and Python's floor // agree).  Scale shape: one keyed
    aggregate counts the (source, lang) cell table (|sources| x |langs|,
    tiny, pre-combined per call), and the quadratic sum is a
    second cell-level rollup — rows never shuffle."""
    docs = _read(sf_dir, "documents", ["source", "lang"])

    cells = keyed_aggregate(
        docs, ["source", "lang"], {"cnt": ("source", "count")}
    ).to_pandas()
    if cells.empty:
        return pa.table(
            {
                "source": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "n_langs": pa.array([], pa.int64()),
                "gini_permille": pa.array([], pa.int64()),
            }
        )
    rows = []
    for src, grp in cells.groupby("source", sort=True):
        c = grp["cnt"].to_numpy().astype(np.int64)
        n = int(c.sum())
        s2 = int((c.astype(object) ** 2).sum())  # python ints: no wrap
        rows.append((src, n, len(c), 1000 - (1000 * s2) // (n * n)))
    return pa.table(
        {
            "source": pa.array([r[0] for r in rows], pa.string()),
            "n": pa.array([r[1] for r in rows], pa.int64()),
            "n_langs": pa.array([r[2] for r in rows], pa.int64()),
            "gini_permille": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


SOURCE_LANG_GINI_SQL = """
WITH c AS (
  SELECT source, lang, count(*) AS cnt
  FROM documents GROUP BY 1, 2
), t AS (
  SELECT source, sum(cnt) AS n, count(*) AS n_langs,
         sum(cnt * cnt) AS s2
  FROM c GROUP BY 1
)
SELECT source,
       CAST(n AS BIGINT) AS n,
       CAST(n_langs AS BIGINT) AS n_langs,
       CAST(1000 - (1000 * s2) // (n * n) AS BIGINT) AS gini_permille
FROM t
ORDER BY source
"""


# -- merkle-style per-shard checksums ------------------------------------------


def merkle_shards(sf_dir: str, buckets: int = 64) -> pa.Table:
    """Per-shard content fingerprints (the merkle layer above
    table_checksum): orders rows are assigned to orderkey-mod buckets
    and each bucket gets its own order-independent (n_rows, checksum)
    pair.  Two replicas diff their 64-row manifests and re-sync ONLY
    the buckets whose residues differ — the anti-entropy pattern that
    turns a 100 TB table comparison into a KB-sized exchange.  Same
    md5 low-8-byte / mod-Mersenne-prime scheme as table_checksum, so
    the DuckDB oracle reconstructs every bucket bit-exactly.

    Scale shape: per-batch fold to <= buckets rows; one tiny keyed
    rollup; commutative+associative, so partitioning can't move it."""
    import hashlib

    ds = _read(
        sf_dir,
        "orders",
        ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority"],
    )

    def partial(batch: pa.Table) -> pa.Table:
        ok = batch.column("o_orderkey").to_pylist()
        ck = batch.column("o_custkey").to_pylist()
        st = batch.column("o_orderstatus").to_pylist()
        pr = batch.column("o_orderpriority").to_pylist()
        res = np.fromiter(
            (
                (
                    int.from_bytes(
                        hashlib.md5(f"{a}|{b}|{c}|{d}".encode()).digest()[8:],
                        "little",
                    )
                    & _CK_MASK
                )
                % _CK_PRIME
                for a, b, c, d in zip(ok, ck, st, pr)
            ),
            dtype=np.int64,
            count=len(ok),
        )
        bkt = np.asarray(ok, dtype=np.int64) % buckets
        n = np.bincount(bkt, minlength=buckets)
        s = np.bincount(bkt, weights=res.astype(np.float64), minlength=buckets)
        # float64 sums are exact: residues < 2^31, batch rows < 2^21.
        touched = np.flatnonzero(n)
        return pa.table(
            {
                "bucket": pa.array(touched, pa.int64()),
                "n": pa.array(n[touched].astype(np.int64), pa.int64()),
                "s": pa.array(
                    (s[touched].astype(np.int64) % _CK_PRIME), pa.int64()
                ),
            }
        )

    out = keyed_aggregate(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "bucket",
        {"n_rows": ("n", "sum"), "s": ("s", "sum")},
    ).to_pandas()

    out = ensure_columns(out, ["bucket", "n_rows", "s"]).sort_values("bucket")
    return pa.table(
        {
            "bucket": pa.array(out["bucket"].to_numpy(), pa.int64()),
            "n_rows": pa.array(out["n_rows"].to_numpy(), pa.int64()),
            "checksum": pa.array(
                out["s"].to_numpy().astype(np.int64) % _CK_PRIME, pa.int64()
            ),
        }
    )


MERKLE_SHARDS_SQL = f"""
SELECT CAST(o_orderkey % 64 AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n_rows,
       CAST(sum(
         (md5_number_lower(
            o_orderkey::VARCHAR || '|' || o_custkey::VARCHAR || '|' ||
            o_orderstatus || '|' || o_orderpriority
          ) & {_CK_MASK}) % {_CK_PRIME}
       ) % {_CK_PRIME} AS BIGINT) AS checksum
FROM orders
GROUP BY 1
ORDER BY 1
"""


# -- expectation-suite data validation -----------------------------------------


def expectations_report(sf_dir: str) -> pa.Table:
    """Great-Expectations-style validation suite: five declarative
    rules over four tables, each reported as (rule, n_rows, n_pass,
    n_fail).  Every rule is a vectorized boolean folded to two ints
    per batch, the four scans stream independently and union into one
    O(#rules) rollup — a contract gate that costs one column-pruned
    pass per table at any corpus size.  Float-domain rules compare in
    integer units (cents / permille) so the oracle is hash-exact."""

    def fold(rule: str, ok: np.ndarray) -> pa.Table:
        return pa.table(
            {
                "rule": pa.array([rule], pa.string()),
                "n_rows": pa.array([len(ok)], pa.int64()),
                "n_pass": pa.array([int(np.count_nonzero(ok))], pa.int64()),
            }
        )

    def li_rules(batch: pa.Table) -> pa.Table:
        q = batch.column("l_quantity").to_numpy(zero_copy_only=False)
        d = money_cents(batch.column("l_discount").to_numpy(zero_copy_only=False))
        return pa.concat_tables(
            [
                fold("lineitem_qty_in_1_50", (q >= 1) & (q <= 50)),
                fold("lineitem_discount_in_0_10pct", (d >= 0) & (d <= 10)),
            ]
        )

    def ord_rules(batch: pa.Table) -> pa.Table:
        p = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        return fold("orders_totalprice_positive", p > 0)

    def ev_rules(batch: pa.Table) -> pa.Table:
        ok = pc.is_valid(batch.column("value")).to_numpy(zero_copy_only=False)
        return fold("events_value_nonnull", ok)

    def doc_rules(batch: pa.Table) -> pa.Table:
        ln = pc.cast(pc.utf8_length(batch.column("text")), pa.int64())
        ok = pc.equal(ln, pc.cast(batch.column("n_chars"), pa.int64()))
        return fold(
            "documents_nchars_matches_text",
            pc.fill_null(ok, False).to_numpy(zero_copy_only=False),
        )

    parts = [
        _read(sf_dir, "lineitem", ["l_quantity", "l_discount"]).map_batches(
            li_rules, batch_format="pyarrow", zero_copy_batch=True
        ),
        _read(sf_dir, "orders", ["o_totalprice"]).map_batches(
            ord_rules, batch_format="pyarrow", zero_copy_batch=True
        ),
        _read(sf_dir, "events", ["value"]).map_batches(
            ev_rules, batch_format="pyarrow", zero_copy_batch=True
        ),
        _read(sf_dir, "documents", ["text", "n_chars"]).map_batches(
            doc_rules, batch_format="pyarrow", zero_copy_batch=True
        ),
    ]
    out = keyed_aggregate(
        parts[0].union(*parts[1:]),
        "rule",
        {"n_rows": ("n_rows", "sum"), "n_pass": ("n_pass", "sum")},
    ).to_pandas()
    out = ensure_columns(out, ["rule", "n_rows", "n_pass"]).sort_values("rule")
    nr = out["n_rows"].to_numpy().astype(np.int64)
    npass = out["n_pass"].to_numpy().astype(np.int64)
    return pa.table(
        {
            "rule": pa.array(out["rule"], pa.string()),
            "n_rows": pa.array(nr, pa.int64()),
            "n_pass": pa.array(npass, pa.int64()),
            "n_fail": pa.array(nr - npass, pa.int64()),
        }
    )


EXPECTATIONS_REPORT_SQL = """
SELECT * FROM (
  SELECT 'documents_nchars_matches_text' AS rule,
         CAST(count(*) AS BIGINT) AS n_rows,
         CAST(COALESCE(sum(CASE WHEN length(text) = n_chars THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_pass,
         CAST(count(*) - COALESCE(sum(CASE WHEN length(text) = n_chars THEN 1 ELSE 0 END), 0) AS BIGINT) AS n_fail
  FROM documents
  UNION ALL
  SELECT 'events_value_nonnull',
         CAST(count(*) AS BIGINT),
         CAST(COALESCE(sum(CASE WHEN value IS NOT NULL THEN 1 ELSE 0 END), 0) AS BIGINT),
         CAST(count(*) - COALESCE(sum(CASE WHEN value IS NOT NULL THEN 1 ELSE 0 END), 0) AS BIGINT)
  FROM events
  UNION ALL
  SELECT 'lineitem_discount_in_0_10pct',
         CAST(count(*) AS BIGINT),
         CAST(COALESCE(sum(CASE WHEN CAST(floor(l_discount * 100 + 0.5) AS BIGINT) BETWEEN 0 AND 10 THEN 1 ELSE 0 END), 0) AS BIGINT),
         CAST(count(*) - COALESCE(sum(CASE WHEN CAST(floor(l_discount * 100 + 0.5) AS BIGINT) BETWEEN 0 AND 10 THEN 1 ELSE 0 END), 0) AS BIGINT)
  FROM lineitem
  UNION ALL
  SELECT 'lineitem_qty_in_1_50',
         CAST(count(*) AS BIGINT),
         CAST(COALESCE(sum(CASE WHEN l_quantity BETWEEN 1 AND 50 THEN 1 ELSE 0 END), 0) AS BIGINT),
         CAST(count(*) - COALESCE(sum(CASE WHEN l_quantity BETWEEN 1 AND 50 THEN 1 ELSE 0 END), 0) AS BIGINT)
  FROM lineitem
  UNION ALL
  SELECT 'orders_totalprice_positive',
         CAST(count(*) AS BIGINT),
         CAST(COALESCE(sum(CASE WHEN o_totalprice > 0 THEN 1 ELSE 0 END), 0) AS BIGINT),
         CAST(count(*) - COALESCE(sum(CASE WHEN o_totalprice > 0 THEN 1 ELSE 0 END), 0) AS BIGINT)
  FROM orders
)
ORDER BY rule
"""


# -- seasonal-naive forecast backtest ------------------------------------------

_DAY_US = 86_400_000_000


def seasonal_naive_mae(sf_dir: str) -> pa.Table:
    """Forecast-backtest report: per event type, the absolute error of
    the seasonal-naive model (predict today = same weekday last week)
    over daily value totals, in exact integer cents.  The shape every
    pipeline-health dashboard needs before trusting a volume forecast.

    Scale shape: ONE keyed aggregate folds rows to a (type, day, cents)
    cell table, and the lag-7 alignment runs on
    the merged cell table (|types| x |days| — bounded by the calendar,
    not the corpus, so driver-side alignment holds at any scale).
    Missing days are skipped (join semantics), not zero-filled —
    mirrored by the SQL self-join on day = day + 7."""
    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def day_cents(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.timestamp("us"))
        day = (
            pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False)
            // _DAY_US
        )
        cents = money_cents(batch.column("value").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "day": pa.array(day, pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    cells = keyed_aggregate(
        ev.map_batches(day_cents, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "day"],
        {"cents": ("cents", "sum")},
    ).to_pandas()
    names = ["event_type", "n_days", "abs_err_sum"]
    if cells.empty:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "n_days": pa.array([], pa.int64()),
                "abs_err_sum": pa.array([], pa.int64()),
            }
        )
    rows = []
    for et, grp in cells.groupby("event_type", sort=True):
        day = grp["day"].to_numpy().astype(np.int64)
        val = grp["cents"].to_numpy().astype(np.int64)
        order = np.argsort(day)
        day, val = day[order], val[order]
        # align day d with day d-7 (both present)
        pos = np.searchsorted(day, day - 7)
        pos_c = np.clip(pos, 0, len(day) - 1)
        hit = day[pos_c] == day - 7
        if not hit.any():
            continue
        err = np.abs(val[hit] - val[pos_c[hit]])
        rows.append((et, int(hit.sum()), int(err.sum())))
    if not rows:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "n_days": pa.array([], pa.int64()),
                "abs_err_sum": pa.array([], pa.int64()),
            }
        )
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "n_days": pa.array([r[1] for r in rows], pa.int64()),
            "abs_err_sum": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


SEASONAL_NAIVE_MAE_SQL = """
WITH d AS (
  SELECT event_type,
         epoch_us(CAST(ts AS TIMESTAMP)) // 86400000000 AS day,
         sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS cents
  FROM events GROUP BY 1, 2
)
SELECT a.event_type,
       CAST(count(*) AS BIGINT) AS n_days,
       CAST(sum(abs(a.cents - b.cents)) AS BIGINT) AS abs_err_sum
FROM d a
JOIN d b ON a.event_type = b.event_type AND a.day = b.day + 7
GROUP BY 1
ORDER BY 1
"""


# -- GDPR cascade-delete audit ---------------------------------------------------

_FORGET_MOD = 97  # deterministic "right-to-be-forgotten" cohort rule


def cascade_delete_audit(sf_dir: str) -> pa.Table:
    """Right-to-be-forgotten impact report: given a deletion cohort
    (custkey % 97 == 0 — deterministic so the oracle can mirror it),
    count the rows each table would lose, INCLUDING the two-hop
    lineitem cascade through orders.  The blast-radius audit a privacy
    pipeline runs before executing a purge.

    Scale shape: direct tables are column-pruned scans folded to one
    count per batch.  The cascade does NOT broadcast the affected
    orderkey set (1/97 of orders is ~15M keys at 100 TB): lineitem
    folds to per-orderkey counts per batch, orders emits affected
    orderkeys, and ONE hash-partitioned kernel sums lineitem counts
    where an affected key is present — shuffle volume is two ints per
    distinct orderkey."""
    from ray.data.aggregate import Sum

    def count_where(ds, col: str, fn) -> int:
        def fold(batch: pa.Table) -> pa.Table:
            v = batch.column(col).to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table({"n": pa.array([int(fn(v).sum())], pa.int64())})

        agg = ds.map_batches(
            fold, batch_format="pyarrow", zero_copy_batch=True
        ).aggregate(Sum("n", alias_name="n"))
        return int(agg.get("n") or 0)

    in_cohort = lambda v: (v % _FORGET_MOD) == 0  # noqa: E731

    n_customer = count_where(
        _read(sf_dir, "customer", ["c_custkey"]), "c_custkey", in_cohort
    )
    n_orders = count_where(
        _read(sf_dir, "orders", ["o_custkey"]), "o_custkey", in_cohort
    )
    n_events = count_where(
        _read(sf_dir, "events", ["user_id"]), "user_id", in_cohort
    )

    # two-hop cascade: lineitem rows of affected orders, via one keyed
    # shuffle (no orderkey-set broadcast)
    def li_fold(batch: pa.Table) -> pa.Table:
        ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        keys, cnt = np.unique(ok, return_counts=True)
        return pa.table(
            {
                "orderkey": pa.array(keys.astype(np.int64), pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64), pa.int64()),
                "affected": pa.array(np.zeros(len(keys), np.int64), pa.int64()),
            }
        )

    def ord_fold(batch: pa.Table) -> pa.Table:
        ok = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        ck = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        hit = ok[(ck % _FORGET_MOD) == 0].astype(np.int64)
        return pa.table(
            {
                "orderkey": pa.array(hit, pa.int64()),
                "cnt": pa.array(np.zeros(len(hit), np.int64), pa.int64()),
                "affected": pa.array(np.ones(len(hit), np.int64), pa.int64()),
            }
        )

    li = _read(sf_dir, "lineitem", ["l_orderkey"]).map_batches(
        li_fold, batch_format="pyarrow", zero_copy_batch=True
    )
    od = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"]).map_batches(
        ord_fold, batch_format="pyarrow", zero_copy_batch=True
    )

    def kernel(part: pa.Table) -> pa.Table:
        k = part.column("orderkey").to_numpy(zero_copy_only=False)
        c = part.column("cnt").to_numpy(zero_copy_only=False)
        a = part.column("affected").to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, c, a = k[order], c[order], a[order]
        bounds = np.flatnonzero(np.r_[True, k[1:] != k[:-1], True])
        csum = np.r_[0, np.cumsum(c)]
        asum = np.r_[0, np.cumsum(a)]
        lo, hi = bounds[:-1], bounds[1:]
        per_key_cnt = csum[hi] - csum[lo]
        per_key_aff = asum[hi] - asum[lo]
        n = int(per_key_cnt[per_key_aff > 0].sum())
        return pa.table({"n": pa.array([n], pa.int64())})

    agg = partitioned_by_key(li.union(od), "orderkey", kernel).aggregate(
        Sum("n", alias_name="n")
    )
    n_lineitem = int(agg.get("n") or 0)

    names = ["customer", "events", "lineitem", "orders"]
    vals = [n_customer, n_events, n_lineitem, n_orders]
    return pa.table(
        {
            "table_name": pa.array(names, pa.string()),
            "n_rows_deleted": pa.array(vals, pa.int64()),
        }
    )


CASCADE_DELETE_AUDIT_SQL = f"""
SELECT * FROM (
  SELECT 'customer' AS table_name, CAST(count(*) AS BIGINT) AS n_rows_deleted
  FROM customer WHERE c_custkey % {_FORGET_MOD} = 0
  UNION ALL
  SELECT 'events', CAST(count(*) AS BIGINT)
  FROM events WHERE user_id % {_FORGET_MOD} = 0
  UNION ALL
  SELECT 'lineitem', CAST(count(*) AS BIGINT)
  FROM lineitem WHERE l_orderkey IN (
    SELECT o_orderkey FROM orders WHERE o_custkey % {_FORGET_MOD} = 0
  )
  UNION ALL
  SELECT 'orders', CAST(count(*) AS BIGINT)
  FROM orders WHERE o_custkey % {_FORGET_MOD} = 0
)
ORDER BY table_name
"""


# -- A/B experiment readout ------------------------------------------------------


def ab_test_report(sf_dir: str) -> pa.Table:
    """Experiment readout over the event stream: users are assigned to
    arms A/B by md5 parity (the deterministic hash-assignment every
    online experiment uses — and the same md5_number_lower scheme the
    split/shard ops share, so the oracle is bit-exact), conversion is
    "has >= 1 purchase event", and the report emits per arm: users,
    converted users, conversion permille and purchase revenue in exact
    integer cents.  Significance math is a trivial downstream divide —
    the table carries the exact sufficient counts.

    Scale shape: one user-keyed aggregate folds events to (user, conv,
    cents) cells (Max/Sum — both associative), the arm rollup is a
    2-group keyed aggregate.  User assignment hashes per user row — no
    assignment table is joined or broadcast."""
    from ._util import md5_u64

    ev = _read(sf_dir, "events", ["user_id", "event_type", "value"])

    def purchases(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("event_type"), "purchase").to_numpy(
            zero_copy_only=False
        )
        cents = money_cents(batch.column("value").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "conv": pa.array(mask.astype(np.int64), pa.int64()),
                "cents": pa.array(np.where(mask, cents, 0), pa.int64()),
            }
        )

    users = keyed_aggregate(
        ev.map_batches(purchases, batch_format="pyarrow", zero_copy_batch=True),
        "user_id",
        {"conv": ("conv", "max"), "cents": ("cents", "sum")},
    )

    def with_arm(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        arm = np.where(md5_u64(uid) % 2 == 0, "A", "B")
        return batch.append_column("arm", pa.array(arm, pa.string()))

    out = keyed_aggregate(
        users.map_batches(with_arm, batch_format="pyarrow", zero_copy_batch=True),
        "arm",
        {
            "n_users": ("conv", "count"),
            "n_converted": ("conv", "sum"),
            "sum_purchase_cents": ("cents", "sum"),
        },
    ).to_pandas()
    out = ensure_columns(
        out, ["arm", "n_users", "n_converted", "sum_purchase_cents"]
    ).sort_values("arm")
    nu = out["n_users"].to_numpy().astype(np.int64)
    nc = out["n_converted"].to_numpy().astype(np.int64)
    return pa.table(
        {
            "arm": pa.array(out["arm"], pa.string()),
            "n_users": pa.array(nu, pa.int64()),
            "n_converted": pa.array(nc, pa.int64()),
            "conv_permille": pa.array(
                np.where(nu > 0, 1000 * nc // np.maximum(nu, 1), 0).astype(
                    np.int64
                ),
                pa.int64(),
            ),
            "sum_purchase_cents": pa.array(
                out["sum_purchase_cents"].to_numpy().astype(np.int64),
                pa.int64(),
            ),
        }
    )


AB_TEST_REPORT_SQL = """
WITH u AS (
  SELECT user_id,
         max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS conv,
         sum(CASE WHEN event_type = 'purchase'
                  THEN CAST(floor(value * 100 + 0.5) AS BIGINT)
                  ELSE 0 END) AS cents
  FROM events GROUP BY 1
)
SELECT CASE WHEN md5_number_lower(user_id::VARCHAR) % 2 = 0
            THEN 'A' ELSE 'B' END AS arm,
       CAST(count(*) AS BIGINT) AS n_users,
       CAST(sum(conv) AS BIGINT) AS n_converted,
       CAST(1000 * sum(conv) // count(*) AS BIGINT) AS conv_permille,
       CAST(sum(cents) AS BIGINT) AS sum_purchase_cents
FROM u GROUP BY 1
ORDER BY 1
"""


# -- data-freshness report -------------------------------------------------------


def freshness_report(sf_dir: str) -> pa.Table:
    """Ops-dashboard freshness: per event type, row count, newest
    timestamp, and staleness (whole hours behind the freshest type) —
    the first thing an ingestion SLO monitor computes.  One tiny keyed
    aggregate folds rows to (type, max_us, n); the global max is
    derived from the <= |types| result rows, never a second scan."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def micros(batch: pa.Table) -> pa.Table:
        us = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64())
        return pa.table({"event_type": batch.column("event_type"), "us": us})

    out = keyed_aggregate(
        ev.map_batches(micros, batch_format="pyarrow", zero_copy_batch=True),
        "event_type",
        {"mx": ("us", "max"), "n": ("us", "count")},
    ).to_pandas()
    out = ensure_columns(out, ["event_type", "mx", "n"]).sort_values(
        "event_type"
    )
    if out.empty:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "n_rows": pa.array([], pa.int64()),
                "max_ts_us": pa.array([], pa.int64()),
                "lag_hours": pa.array([], pa.int64()),
            }
        )
    mx = out["mx"].to_numpy().astype(np.int64)
    gmax = int(mx.max())
    return pa.table(
        {
            "event_type": pa.array(out["event_type"], pa.string()),
            "n_rows": pa.array(out["n"].to_numpy().astype(np.int64), pa.int64()),
            "max_ts_us": pa.array(mx, pa.int64()),
            "lag_hours": pa.array((gmax - mx) // 3_600_000_000, pa.int64()),
        }
    )


FRESHNESS_REPORT_SQL = """
WITH m AS (
  SELECT event_type,
         max(epoch_us(CAST(ts AS TIMESTAMP))) AS mx,
         count(*) AS n
  FROM events GROUP BY 1
)
SELECT event_type,
       CAST(n AS BIGINT) AS n_rows,
       CAST(mx AS BIGINT) AS max_ts_us,
       CAST(((SELECT max(mx) FROM m) - mx) // 3600000000 AS BIGINT)
         AS lag_hours
FROM m ORDER BY 1
"""


# -- schema / catalog audit ------------------------------------------------------

_ARROW_TO_SQL_TYPE = {
    "double": "DOUBLE",
    "int32": "INTEGER",
    "int64": "BIGINT",
    "list<element: float>": "FLOAT[]",
    "string": "VARCHAR",
    "timestamp[us]": "TIMESTAMP",
}

_AUDIT_TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def schema_audit(sf_dir: str) -> pa.Table:
    """Catalog contract check: the full (table, column, ordinal, type)
    inventory of every table, read from PARQUET FOOTERS ONLY — zero
    data scan, so the audit costs O(files) at 100 TB and runs before
    any pipeline to fail fast on schema drift.  Types are normalized
    to SQL names through an explicit arrow→SQL map (unknown arrow
    types raise loudly rather than guessing); the oracle reads the
    same inventory from information_schema."""
    import pyarrow.parquet as pq

    tns, cns, ords, dts = [], [], [], []
    for t in _AUDIT_TABLES:
        sch = pq.read_schema(f"{sf_dir}/{t}.parquet")
        for i, f in enumerate(sch):
            key = str(f.type)
            if key not in _ARROW_TO_SQL_TYPE:
                raise TypeError(
                    f"schema_audit: unmapped arrow type {key!r} in {t}.{f.name}"
                )
            tns.append(t)
            cns.append(f.name)
            ords.append(i + 1)
            dts.append(_ARROW_TO_SQL_TYPE[key])
    return pa.table(
        {
            "table_name": pa.array(tns, pa.string()),
            "column_name": pa.array(cns, pa.string()),
            "ordinal": pa.array(ords, pa.int64()),
            "data_type": pa.array(dts, pa.string()),
        }
    )


SCHEMA_AUDIT_SQL = """
SELECT table_name, column_name,
       CAST(ordinal_position AS BIGINT) AS ordinal,
       data_type
FROM information_schema.columns
WHERE table_name IN ('region','nation','customer','supplier','part',
                     'orders','lineitem','events','documents','embeddings')
ORDER BY table_name, ordinal
"""


# -- top-k rank stability between periods ----------------------------------------

_TOPK_SPLIT_US = 883_612_800_000_000  # 1998-01-01 00:00:00 UTC in µs


def topk_stability(sf_dir: str, k: int = 20) -> pa.Table:
    """Leaderboard-drift monitor: the top-k parts by revenue are
    computed independently for the early (< 1998) and late (>= 1998)
    shipping periods and compared as sets — (n_overlap,
    jaccard_permille) is the one-row report a ranking pipeline checks
    before trusting 'top sellers' features across a time boundary.
    Total order (revenue DESC, partkey ASC) makes ties deterministic
    on both sides.

    Scale shape: one keyed aggregate folds rows to (half, partkey,
    cents) cells; each output block keeps only its local top-k
    per half (select-k, no global sort), so the driver merge sees
    <= 2k rows per block and the final exact top-k is a tiny lexsort."""
    li = _read(
        sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )

    def half_rev(batch: pa.Table) -> pa.Table:
        us = pc.cast(
            pc.cast(batch.column("l_shipdate"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        half = (us >= _TOPK_SPLIT_US).astype(np.int64)
        price = batch.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = batch.column("l_discount").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "half": pa.array(half, pa.int64()),
                "l_partkey": batch.column("l_partkey"),
                "rev": pa.array(money_cents(price * (1 - disc)), pa.int64()),
            }
        )

    def block_topk(batch: pa.Table) -> pa.Table:
        h = batch.column("half").to_numpy(zero_copy_only=False)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False)
        rv = batch.column("rev").to_numpy(zero_copy_only=False)
        keep = []
        for s in (0, 1):
            idx = np.flatnonzero(h == s)
            if len(idx):
                order = np.lexsort((pk[idx], -rv[idx]))[:k]
                keep.extend(idx[order].tolist())
        return batch.take(pa.array(keep, pa.int64()))

    cells = (
        keyed_aggregate(
            li.map_batches(half_rev, batch_format="pyarrow", zero_copy_batch=True),
            ["half", "l_partkey"],
            {"rev": ("rev", "sum")},
        )
        .map_batches(block_topk, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    )
    tops: dict[int, set[int]] = {0: set(), 1: set()}
    if not cells.empty:
        for s in (0, 1):
            grp = cells[cells["half"] == s]
            pk = grp["l_partkey"].to_numpy().astype(np.int64)
            rv = grp["rev"].to_numpy().astype(np.int64)
            order = np.lexsort((pk, -rv))[:k]
            tops[s] = set(pk[order].tolist())
    a, b = tops[0], tops[1]
    inter, union = len(a & b), len(a | b)
    return pa.table(
        {
            "k": pa.array([k], pa.int64()),
            "n_early": pa.array([len(a)], pa.int64()),
            "n_late": pa.array([len(b)], pa.int64()),
            "n_overlap": pa.array([inter], pa.int64()),
            "jaccard_permille": pa.array(
                [1000 * inter // union if union else 0], pa.int64()
            ),
        }
    )


TOPK_STABILITY_SQL = """
WITH r AS (
  SELECT CASE WHEN l_shipdate < TIMESTAMP '1998-01-01' THEN 0 ELSE 1 END AS half,
         l_partkey,
         sum(CAST(floor(l_extendedprice * (1 - l_discount) * 100 + 0.5)
                  AS BIGINT)) AS rev
  FROM lineitem GROUP BY 1, 2
),
rk AS (
  SELECT half, l_partkey,
         row_number() OVER (PARTITION BY half ORDER BY rev DESC, l_partkey)
           AS rn
  FROM r
),
a AS (SELECT l_partkey FROM rk WHERE half = 0 AND rn <= 20),
b AS (SELECT l_partkey FROM rk WHERE half = 1 AND rn <= 20),
s AS (
  SELECT (SELECT count(*) FROM a) AS na,
         (SELECT count(*) FROM b) AS nb,
         (SELECT count(*) FROM a JOIN b USING (l_partkey)) AS ni
)
SELECT CAST(20 AS BIGINT) AS k,
       CAST(na AS BIGINT) AS n_early,
       CAST(nb AS BIGINT) AS n_late,
       CAST(ni AS BIGINT) AS n_overlap,
       CAST(CASE WHEN na + nb - ni > 0
                 THEN 1000 * ni // (na + nb - ni)
                 ELSE 0 END AS BIGINT) AS jaccard_permille
FROM s
"""


# -- spend inequality (Gini coefficient) -----------------------------------------


def spend_gini(sf_dir: str) -> pa.Table:
    """Exact Gini COEFFICIENT (inequality, not impurity) of per-user
    event spend, in integer permille: G = (2*S1 - (n+1)*S0) / (n*S0)
    with S0 = sum(x), S1 = sum(rank*x) over spends sorted ascending —
    rank-weighted sums are invariant to tie order because tied values
    are equal, so the statistic is deterministic without a tie rule.
    The whale-dominance diagnostic for any usage/billing corpus.

    Scale shape: one user-keyed aggregate rolls events to per-user
    cents; a spend-keyed count reduces users to a (spend, count) histogram
    (driver state = distinct spend VALUES, not users — the percentiles
    reduction); the rank-weighted sum is then exact arithmetic over the
    sorted histogram with Python ints, guarded to int64 on output."""
    ev = _read(sf_dir, "events", ["user_id", "value"])

    def user_cents(batch: pa.Table) -> pa.Table:
        cents = money_cents(batch.column("value").to_numpy(zero_copy_only=False))
        return pa.table(
            {"user_id": batch.column("user_id"), "cents": pa.array(cents, pa.int64())}
        )

    per_user = keyed_aggregate(
        ev.map_batches(user_cents, batch_format="pyarrow", zero_copy_batch=True),
        "user_id",
        {"spend": ("cents", "sum")},
    )
    hist = ensure_columns(
        keyed_aggregate(per_user, "spend", {"cnt": ("spend", "count")}).to_pandas(),
        ["spend", "cnt"],
    ).sort_values("spend")
    if hist.empty:
        return pa.table(
            {
                "n_users": pa.array([0], pa.int64()),
                "total_cents": pa.array([0], pa.int64()),
                "gini_permille": pa.array([0], pa.int64()),
            }
        )
    spend = hist["spend"].to_numpy().astype(np.int64)
    cnt = hist["cnt"].to_numpy().astype(np.int64)
    n = int(cnt.sum())
    s0 = 0
    s1 = 0
    rank_base = 0  # users with strictly smaller spend
    for v, c in zip(spend.tolist(), cnt.tolist()):
        # ranks rank_base+1 .. rank_base+c all hold value v:
        # sum(rank)*v = (c*rank_base + c*(c+1)/2) * v
        s1 += (c * rank_base + c * (c + 1) // 2) * v
        s0 += c * v
        rank_base += c
    # mirror the oracle's CASE exactly: gini only for n > 0 AND s0 > 0
    # (numerator >= 0 by Chebyshev when sorted ascending, so Python's
    # floor // and DuckDB's truncating // agree on the kept branch)
    gini = (2000 * s1 - 1000 * (n + 1) * s0) // (n * s0) if n and s0 > 0 else 0
    for val in (n, s0, gini):
        if abs(val) >= 2**63:
            raise OverflowError("spend_gini: int64 overflow")
    return pa.table(
        {
            "n_users": pa.array([n], pa.int64()),
            "total_cents": pa.array([s0], pa.int64()),
            "gini_permille": pa.array([gini], pa.int64()),
        }
    )


SPEND_GINI_SQL = """
WITH u AS (
  SELECT user_id,
         sum(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS cents
  FROM events GROUP BY 1
),
r AS (
  SELECT cents,
         row_number() OVER (ORDER BY cents, user_id) AS rk
  FROM u
),
s AS (
  SELECT count(*) AS n, sum(cents) AS s0, sum(rk * cents) AS s1 FROM r
)
SELECT CAST(n AS BIGINT) AS n_users,
       CAST(COALESCE(s0, 0) AS BIGINT) AS total_cents,
       CAST(CASE WHEN n > 0 AND s0 > 0
                 THEN (2000 * s1 - 1000 * (n + 1) * s0) // (n * s0)
                 ELSE 0 END AS BIGINT) AS gini_permille
FROM s
"""


# -- new-vs-returning cohort revenue ---------------------------------------------


def cohort_revenue(sf_dir: str) -> pa.Table:
    """Growth-accounting rollup: per order year, order count and exact
    integer revenue split into NEW customers (orders inside the
    customer's first year) vs RETURNING ones — the acquisition-vs-
    retention decomposition behind every growth dashboard.

    Scale shape: ONE custkey-keyed shuffle (partitioned_by_key), one
    vectorized kernel per exchange block: lexsort + run bounds find
    each customer's first year (minimum.reduceat), tags broadcast by
    np.repeat, and the partition folds straight to (year, 4 sums)
    partials — per-customer state never leaves the kernel, and the
    final rollup is O(#years)."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate", "o_totalprice"])

    def prep(batch: pa.Table) -> pa.Table:
        us = pc.cast(
            pc.cast(batch.column("o_orderdate"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        yr = (
            us.astype("datetime64[us]").astype("datetime64[Y]").astype(np.int64)
            + 1970
        )
        cents = money_cents(
            batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "yr": pa.array(yr, pa.int64()),
                "cents": pa.array(cents, pa.int64()),
            }
        )

    def kernel(part: pa.Table) -> pa.Table:
        ck = part.column("o_custkey").to_numpy(zero_copy_only=False)
        yr = part.column("yr").to_numpy(zero_copy_only=False)
        cents = part.column("cents").to_numpy(zero_copy_only=False)
        order = np.argsort(ck, kind="stable")
        ck, yr, cents = ck[order], yr[order], cents[order]
        b = run_bounds(ck)
        lo, hi = b[:-1], b[1:]
        fy = np.repeat(np.minimum.reduceat(yr, lo), hi - lo)
        is_new = yr == fy
        # float64 bincount sums are exact only below 2^53 per partition —
        # raise loudly instead of drifting (codebase convention)
        if len(cents) and max(
            abs(int(cents.min())), abs(int(cents.max()))
        ) * len(cents) >= 1 << 53:
            raise OverflowError("cohort_revenue: partition sum exceeds 2^53")
        years, inv = np.unique(yr, return_inverse=True)
        k = len(years)
        out = {
            "year": years,
            "n_orders_new": np.bincount(inv, weights=is_new, minlength=k),
            "rev_new_cents": np.bincount(
                inv, weights=np.where(is_new, cents, 0), minlength=k
            ),
            "n_orders_returning": np.bincount(
                inv, weights=~is_new, minlength=k
            ),
            "rev_returning_cents": np.bincount(
                inv, weights=np.where(is_new, 0, cents), minlength=k
            ),
        }
        # float64 bincount sums are exact below 2^53 per partition.
        return pa.table(
            {c: pa.array(v.astype(np.int64), pa.int64()) for c, v in out.items()}
        )

    cols = [
        "n_orders_new",
        "rev_new_cents",
        "n_orders_returning",
        "rev_returning_cents",
    ]
    out = keyed_aggregate(
        partitioned_by_key(
            ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True),
            "o_custkey",
            kernel,
        ),
        "year",
        {c: (c, "sum") for c in cols},
    ).to_pandas()
    out = ensure_columns(out, ["year"] + cols).sort_values("year")
    return pa.table(
        {"year": pa.array(out["year"].to_numpy().astype(np.int64), pa.int64())}
        | {
            c: pa.array(out[c].to_numpy().astype(np.int64), pa.int64())
            for c in cols
        }
    )


COHORT_REVENUE_SQL = """
WITH o AS (
  SELECT o_custkey,
         CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS yr,
         CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
  FROM orders
),
f AS (SELECT o_custkey, min(yr) AS fy FROM o GROUP BY 1)
SELECT yr AS year,
       CAST(sum(CASE WHEN yr = fy THEN 1 ELSE 0 END) AS BIGINT)
         AS n_orders_new,
       CAST(sum(CASE WHEN yr = fy THEN cents ELSE 0 END) AS BIGINT)
         AS rev_new_cents,
       CAST(sum(CASE WHEN yr > fy THEN 1 ELSE 0 END) AS BIGINT)
         AS n_orders_returning,
       CAST(sum(CASE WHEN yr > fy THEN cents ELSE 0 END) AS BIGINT)
         AS rev_returning_cents
FROM o JOIN f USING (o_custkey)
GROUP BY 1 ORDER BY 1
"""


# -- order-to-ship latency histogram ---------------------------------------------


def order_ship_delay_hist(sf_dir: str) -> pa.Table:
    """Fulfilment-latency distribution: whole days between each order's
    placement and its FIRST lineitem shipment, rolled up to a (days,
    n_orders) histogram — the fact-fact temporal derivation behind
    shipping SLO dashboards.

    Scale shape: lineitem folds to per-orderkey min shipdate per batch
    (combiner), orders emit (orderkey, orderdate); ONE orderkey-keyed
    union shuffle aligns the two sides and each partition kernel folds
    straight to <= |days| histogram cells — neither fact table is ever
    joined row-for-row, and the rollup is O(distinct latencies)."""
    def li_fold(batch: pa.Table) -> pa.Table:
        ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False)
        us = pc.cast(
            pc.cast(batch.column("l_shipdate"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        order = np.argsort(ok, kind="stable")
        ok, us = ok[order], us[order]
        b = run_bounds(ok)
        lo = b[:-1]
        return pa.table(
            {
                "orderkey": pa.array(ok[lo].astype(np.int64), pa.int64()),
                "ship_us": pa.array(
                    np.minimum.reduceat(us, lo).astype(np.int64), pa.int64()
                ),
                "order_us": pa.array(
                    np.full(len(lo), -1, np.int64), pa.int64()
                ),
            }
        )

    def ord_fold(batch: pa.Table) -> pa.Table:
        ok = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        us = pc.cast(
            pc.cast(batch.column("o_orderdate"), pa.timestamp("us")), pa.int64()
        ).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "orderkey": pa.array(ok.astype(np.int64), pa.int64()),
                "ship_us": pa.array(np.full(len(ok), -1, np.int64), pa.int64()),
                "order_us": pa.array(us.astype(np.int64), pa.int64()),
            }
        )

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"]).map_batches(
        li_fold, batch_format="pyarrow", zero_copy_batch=True
    )
    od = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"]).map_batches(
        ord_fold, batch_format="pyarrow", zero_copy_batch=True
    )

    def kernel(part: pa.Table) -> pa.Table:
        ok = part.column("orderkey").to_numpy(zero_copy_only=False)
        sh = part.column("ship_us").to_numpy(zero_copy_only=False)
        od_us = part.column("order_us").to_numpy(zero_copy_only=False)
        order = np.argsort(ok, kind="stable")
        ok, sh, od_us = ok[order], sh[order], od_us[order]
        b = run_bounds(ok)
        lo, hi = b[:-1], b[1:]
        # per key: min ship over partials (-1 rows ignored via where),
        # and the single order date (max over -1 sentinel picks it).
        big = np.int64(1 << 62)
        min_ship = np.minimum.reduceat(np.where(sh < 0, big, sh), lo)
        ord_date = np.maximum.reduceat(od_us, lo)
        ok_mask = (min_ship < big) & (ord_date >= 0)
        delta = min_ship[ok_mask] - ord_date[ok_mask]
        # The synthetic generator draws order and ship dates independently,
        # so negative latencies exist; DuckDB's // TRUNCATES toward zero
        # while numpy floors — mirror truncation explicitly.
        days = np.sign(delta) * (np.abs(delta) // _DAY_US)
        vals, cnt = np.unique(days, return_counts=True)
        return pa.table(
            {
                "days": pa.array(vals.astype(np.int64), pa.int64()),
                "n_orders": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    out = keyed_aggregate(
        partitioned_by_key(li.union(od), "orderkey", kernel),
        "days",
        {"n_orders": ("n_orders", "sum")},
    ).to_pandas()
    out = ensure_columns(out, ["days", "n_orders"]).sort_values("days")
    return pa.table(
        {
            "days": pa.array(out["days"].to_numpy().astype(np.int64), pa.int64()),
            "n_orders": pa.array(
                out["n_orders"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


ORDER_SHIP_DELAY_HIST_SQL = """
WITH f AS (
  SELECT l_orderkey, min(l_shipdate) AS first_ship FROM lineitem GROUP BY 1
)
SELECT CAST((epoch_us(CAST(first_ship AS TIMESTAMP))
             - epoch_us(CAST(o_orderdate AS TIMESTAMP))) // 86400000000
            AS BIGINT) AS days,
       CAST(count(*) AS BIGINT) AS n_orders
FROM orders JOIN f ON o_orderkey = l_orderkey
GROUP BY 1 ORDER BY 1
"""


# -- k-core decomposition ----------------------------------------------------------


# Deduped co-purchase edges up to which kcore_decompose and
# copurchase_bfs_depth gather the graph into one kernel (read at call
# time); past it both run their keyed-round loop arm.
_GRAPH_GATHER_EDGES = 2_000_000


def kcore_decompose(sf_dir: str) -> pa.Table:
    """Core-number decomposition of the part co-purchase graph — the
    iterative-peeling member of the graph family (components = label
    spreading, pagerank = fixed-point iteration, this = monotone
    subgraph refinement).  Output: (core_k, n_nodes) — how many parts
    survive at each peeling depth, the density profile recommender
    pipelines read before mining cliques.  Oracle-checked:
    KCORE_DECOMPOSE_SQL runs the h-index fixpoint characterization of
    coreness (Lu et al. 2016) as a recursive CTE — one edges-x-labels
    join + window rank per round, monotone convergence, DuckDB-native
    termination; a hand-graph pytest additionally pins the peeling
    against a sequential reference.

    Scale shape: the edge build is fully distributed (the shared
    _copurchase_edges: order-keyed run_pairs expansion, edge-keyed sum).
    Peeling then follows the connected-components VOLUME ROUTER
    precedent: the deduped edge set (the graph's sparse core, ~1.5% of
    lineitem rows here) gathers to ONE vectorized kernel up to
    ``_GRAPH_GATHER_EDGES``; beyond it the same monotone peel runs as
    keyed rounds (degree rollup -> under-k broadcast filter), each round
    strictly shrinking the edge set."""
    from ._util import wide_partitions

    P = wide_partitions()
    edges_ds = _copurchase_edges(sf_dir, P)
    n_edges = edges_ds.count()
    if n_edges > _GRAPH_GATHER_EDGES:  # loop arm: keyed peel rounds
        return _kcore_loop(edges_ds)
    if n_edges:
        ek = np.sort(
            np.concatenate(
                [
                    b.column("k").to_numpy(zero_copy_only=False)
                    for b in edges_ds.iter_batches(
                        batch_format="pyarrow", batch_size=None
                    )
                ]
            )
        )
    else:
        ek = np.array([], np.int64)
    cores = _kcore_peel(*_edge_ends(ek))
    if not cores:
        return pa.table(
            {
                "core_k": pa.array([], pa.int64()),
                "n_nodes": pa.array([], pa.int64()),
            }
        )
    ks, counts = np.unique(
        np.fromiter(cores.values(), dtype=np.int64, count=len(cores)),
        return_counts=True,
    )
    return pa.table(
        {
            "core_k": pa.array(ks, pa.int64()),
            "n_nodes": pa.array(counts.astype(np.int64), pa.int64()),
        }
    )


def _kcore_peel(u: "np.ndarray", v: "np.ndarray") -> dict[int, int]:
    """Vectorized monotone peeling: for k = 1, 2, ... repeatedly drop
    nodes with degree < k; nodes removed while peeling at level k have
    core number k.  Returns {node: core_number} exactly."""
    nodes, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    m = len(u)
    eu, ev = inv[:m], inv[m:]
    alive_edge = np.ones(m, dtype=bool)
    alive_node = np.ones(len(nodes), dtype=bool)
    core = np.zeros(len(nodes), dtype=np.int64)
    k = 1
    while alive_node.any():
        while True:
            deg = np.bincount(
                np.concatenate([eu[alive_edge], ev[alive_edge]]),
                minlength=len(nodes),
            )
            drop = alive_node & (deg < k)
            if not drop.any():
                break
            core[drop] = k - 1
            alive_node[drop] = False
            alive_edge &= alive_node[eu] & alive_node[ev]
        k += 1
        if not alive_edge.any():
            # remaining isolated-at-this-level nodes all peel next round
            core[alive_node] = k - 1
            break
    return {int(nodes[i]): int(core[i]) for i in range(len(nodes))}


# The oracle uses the H-INDEX FIXPOINT characterization of coreness
# (Lu, Zhou, Zhang, Stanley 2016, "The H-index of a network node and
# its relation to degree and coreness"): c_0(v) = degree(v);
# c_{t+1}(v) = H-index of {c_t(u) : u ~ v} (the largest h such that at
# least h neighbors have value >= h) converges monotonically DOWN to
# the exact core number.  One recursive-CTE round = one edges-x-labels
# join + a per-node descending window rank; the working table re-emits
# the full label state each round and goes empty at the fixpoint (the
# EXISTS guard), so termination is DuckDB's own.  This replaces a
# per-level peel simulation whose working set was Theta(sum_v d_v^2)
# per round — on the dense sf0.1 co-purchase graph (20k nodes, 2.4M
# directed edges, avg degree 120) that formulation exhausted 78 GB of
# spill; this one runs in ~9 s.  Numbering matches _kcore_peel exactly
# (pinned by test_kcore_oracle_hindex_matches_peel_on_random_graphs +
# selfcheck at all three testdata scales).
KCORE_DECOMPOSE_SQL = """
WITH RECURSIVE
op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
edges AS (
  SELECT DISTINCT a.p AS u, b.p AS v
  FROM op a JOIN op b ON a.o = b.o AND a.p <> b.p
),
deg AS (SELECT u AS node, count(*) AS d FROM edges GROUP BY u),
hidx(round, node, val) AS (
  SELECT 0, node, d FROM deg
  UNION ALL
  SELECT round + 1, node, val FROM (
    WITH cur AS (SELECT round, node, val FROM hidx),
    ranked AS (
      SELECT e.u AS node, c.val,
             row_number() OVER (PARTITION BY e.u ORDER BY c.val DESC) AS rn
      FROM edges e JOIN cur c ON c.node = e.v
    ),
    nxt AS (
      SELECT node,
             CAST(max(CASE WHEN val >= rn THEN rn ELSE 0 END) AS BIGINT) AS val
      FROM ranked GROUP BY node
    ),
    merged AS (
      SELECT c.round, n.node, n.val, c.val AS old
      FROM nxt n JOIN cur c ON c.node = n.node
    )
    SELECT m.round, m.node, m.val FROM merged m
    WHERE EXISTS (SELECT 1 FROM merged x WHERE x.val <> x.old)
  )
)
SELECT CAST(val AS BIGINT) AS core_k, CAST(count(*) AS BIGINT) AS n_nodes
FROM (SELECT node, min(val) AS val FROM hidx GROUP BY node)
GROUP BY val ORDER BY core_k
"""


# -- bigram next-event predictor evaluation ----------------------------------------


def event_next_type_accuracy(sf_dir: str) -> pa.Table:
    """Baseline-model scorecard: the argmax bigram predictor ("after X,
    predict the most frequent successor") evaluated over every
    transition, per source type — the sanity baseline any sequence
    model must beat, with the evaluation-harness shape (train stats ->
    frozen predictions -> hit counting) done right.

    Scale shape: the ONLY distributed pass is event_transitions' keyed
    partial-count shuffle; the transition table is <= types² rows, so
    argmax selection AND hit counting are driver-side arithmetic over
    that bounded table — evaluating the predictor needs NO second scan
    of the corpus, because the transition counts are sufficient
    statistics for both steps.  Ties break (cnt DESC, to_type ASC),
    mirrored by the oracle's row_number."""
    t = event_transitions(sf_dir).to_pandas()
    if t.empty:
        return pa.table(
            {
                "from_type": pa.array([], pa.string()),
                "pred_type": pa.array([], pa.string()),
                "n_total": pa.array([], pa.int64()),
                "n_hits": pa.array([], pa.int64()),
                "acc_permille": pa.array([], pa.int64()),
            }
        )
    rows = []
    for ft, grp in t.groupby("from_type", sort=True):
        grp = grp.sort_values(
            ["cnt", "to_type"], ascending=[False, True], kind="stable"
        )
        pred = grp.iloc[0]["to_type"]
        total = int(grp["cnt"].sum())
        hits = int(grp.loc[grp["to_type"] == pred, "cnt"].sum())
        rows.append((ft, pred, total, hits, 1000 * hits // total))
    return pa.table(
        {
            "from_type": pa.array([r[0] for r in rows], pa.string()),
            "pred_type": pa.array([r[1] for r in rows], pa.string()),
            "n_total": pa.array([r[2] for r in rows], pa.int64()),
            "n_hits": pa.array([r[3] for r in rows], pa.int64()),
            "acc_permille": pa.array([r[4] for r in rows], pa.int64()),
        }
    )


EVENT_NEXT_TYPE_ACCURACY_SQL = f"""
WITH t AS ({EVENT_TRANSITIONS_SQL}),
p AS (
  SELECT from_type, to_type AS pred_type FROM (
    SELECT from_type, to_type,
           row_number() OVER (PARTITION BY from_type
                              ORDER BY cnt DESC, to_type) AS rn
    FROM t
  ) WHERE rn = 1
)
SELECT t.from_type,
       p.pred_type,
       CAST(sum(t.cnt) AS BIGINT) AS n_total,
       CAST(sum(CASE WHEN t.to_type = p.pred_type THEN t.cnt ELSE 0 END)
            AS BIGINT) AS n_hits,
       CAST(1000 * sum(CASE WHEN t.to_type = p.pred_type THEN t.cnt
                            ELSE 0 END) // sum(t.cnt) AS BIGINT)
         AS acc_permille
FROM t JOIN p USING (from_type)
GROUP BY 1, 2
ORDER BY 1
"""


# -- 128-bit distributed sum (custom AggregateFnV2) --------------------------------

_LIMB = 1 << 62


class _Sum128(ray.data.aggregate.AggregateFnV2):
    """Custom distributed aggregate with arbitrary-precision state: the
    accumulator is a PYTHON int (so partial sums can exceed int64), the
    block step folds each Arrow block to one exact partial, and combine
    is plain big-int addition — the carry-safe merge every docstring's
    "the 100 TB path promotes the merge to 128-bit" remark refers to,
    implemented for real through Ray Data's user-aggregate surface."""

    def __init__(self, on: str = "cents"):
        super().__init__(
            name="sum128", zero_factory=lambda: 0, on=on, ignore_nulls=True
        )

    def aggregate_block(self, block) -> int:
        col = block.column(self._target_col_name).to_numpy(
            zero_copy_only=False
        )
        if not len(col):
            return 0
        # Chunk so |max| * chunk_len < 2^62: each numpy partial is then
        # provably wrap-free, and the Python-int accumulation across
        # chunks is arbitrary-precision — exact for ANY block content
        # (a plain int64 col.sum() silently wraps on huge values).
        # python-int abs: np.abs(INT64_MIN) wraps negative on int64
        mx = max(abs(int(col.min())), abs(int(col.max())))
        step = max(1, (1 << 62) // max(1, mx))
        s = 0
        for i in range(0, len(col), step):
            s += int(col[i : i + step].sum())
        return s

    def combine(self, current: int, new: int) -> int:
        return current + new  # python ints: no wrap, ever

    def finalize(self, accumulator: int) -> int:
        return accumulator


def sum128_total(sf_dir: str) -> pa.Table:
    """Grand total of event value in cents, accumulated through the
    custom 128-bit-safe aggregate above and emitted as two int64 limbs
    (hi = s >> 62, lo = s mod 2^62) so the oracle hash stays exact even
    when the true total exceeds int64 — the overflow-canary pattern for
    corpus-scale money sums.  One streaming pass, one scalar state."""
    ds = _read(sf_dir, "events", ["value"])

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cents": pa.array(
                    money_cents(
                        batch.column("value").to_numpy(zero_copy_only=False)
                    ),
                    pa.int64(),
                ),
                "one": pa.array(np.ones(batch.num_rows, np.int64), pa.int64()),
            }
        )

    agg = ds.map_batches(
        to_cents, batch_format="pyarrow", zero_copy_batch=True
    ).aggregate(_Sum128(on="cents"), ray.data.aggregate.Sum("one", alias_name="n"))
    s = int(agg.get("sum128") or 0)
    n = int(agg.get("n") or 0)
    if s < 0:
        raise ValueError("sum128_total: negative total; limb split assumes >= 0")
    return pa.table(
        {
            "n_rows": pa.array([n], pa.int64()),
            "hi": pa.array([s >> 62], pa.int64()),
            "lo": pa.array([s % _LIMB], pa.int64()),
        }
    )


SUM128_TOTAL_SQL = f"""
WITH s AS (
  SELECT count(*) AS n,
         COALESCE(sum(CAST(floor(value * 100 + 0.5) AS BIGINT)), 0) AS t
  FROM events
)
SELECT CAST(n AS BIGINT) AS n_rows,
       CAST(t // {_LIMB} AS BIGINT) AS hi,
       CAST(t % {_LIMB} AS BIGINT) AS lo
FROM s
"""


_KCORE_DROP_BCAST = 1_000_000  # drop-set broadcast threshold (test-pinned)


def _kcore_loop(edges_ds) -> pa.Table:
    """Distributed peel arm for graphs whose edge set exceeds the
    gather threshold: the same monotone k-level peeling as _kcore_peel,
    but every step is a keyed shuffle — per level k, each inner round
    (1) rolls edge endpoints + the alive-node set into one
    partitioned kernel that marks nodes with degree < k, (2) counts
    the drops into the histogram, and (3) filters edges by surviving
    endpoints in two endpoint-keyed passes.  The edge set shrinks
    monotonically, so round cost strictly decreases; peel depth is
    bounded by the graph's degeneracy plus per-level cascade length
    (small on co-purchase-shaped graphs — documented assumption)."""
    def endpoints(batch: pa.Table) -> pa.Table:
        part = _endpoint_counts(batch)
        return part.append_column(
            "is_node", pa.array(np.zeros(part.num_rows, np.int64), pa.int64())
        )

    def as_alive_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "node": batch.column("node"),
                "degree": pa.array(np.zeros(n, np.int64), pa.int64()),
                "is_node": pa.array(np.ones(n, np.int64), pa.int64()),
            }
        )

    edges = edges_ds.materialize()
    alive = _copurchase_degrees(edges).materialize()
    hist: dict[int, int] = {}
    k = 1
    while alive.count() > 0:
        while True:

            def peel_kernel(part: pa.Table, _k: int = k) -> pa.Table:
                node = part.column("node").to_numpy(zero_copy_only=False)
                cnt = part.column("degree").to_numpy(zero_copy_only=False)
                isn = part.column("is_node").to_numpy(zero_copy_only=False)
                order = np.argsort(node, kind="stable")
                node, cnt, isn = node[order], cnt[order], isn[order]
                b = run_bounds(node)
                lo = b[:-1]
                deg = np.add.reduceat(cnt, lo)
                is_alive = np.add.reduceat(isn, lo) > 0
                keep_node = node[lo][is_alive]
                dropped = (deg < _k)[is_alive]
                return pa.table(
                    {
                        "node": pa.array(keep_node.astype(np.int64), pa.int64()),
                        "dropped": pa.array(
                            dropped.astype(np.int64), pa.int64()
                        ),
                    }
                )

            marks = partitioned_by_key(
                edges.map_batches(
                    endpoints, batch_format="pyarrow", zero_copy_batch=True
                ).union(
                    alive.map_batches(
                        as_alive_rows,
                        batch_format="pyarrow",
                        zero_copy_batch=True,
                    )
                ),
                "node",
                peel_kernel,
            ).materialize()

            def only(flag: int):
                def fn(batch: pa.Table) -> pa.Table:
                    return batch.filter(
                        pc.equal(batch.column("dropped"), pa.scalar(flag))
                    ).select(["node"])

                return fn

            n_drop = marks.map_batches(
                only(1), batch_format="pyarrow", zero_copy_batch=True
            ).count()
            if n_drop == 0:
                break
            hist[k - 1] = hist.get(k - 1, 0) + n_drop
            alive = marks.map_batches(
                only(0), batch_format="pyarrow", zero_copy_batch=True
            ).materialize()
            dropped_ds = marks.map_batches(
                only(1), batch_format="pyarrow", zero_copy_batch=True
            )
            if n_drop <= _KCORE_DROP_BCAST:
                # drop sets shrink fast after the first cascade: broadcast
                # the ids once and filter edges in a single shuffle-free
                # pass (the small-side-broadcast rule); the keyed two-pass
                # below remains for giant first-round cascades.
                drop_ids = np.sort(
                    np.concatenate(
                        [
                            b.column("node").to_numpy(zero_copy_only=False)
                            for b in dropped_ds.iter_batches(
                                batch_format="pyarrow", batch_size=None
                            )
                        ]
                        or [np.array([], np.int64)]
                    )
                )
                drop_ref = ray.put(drop_ids)

                def bfilter(batch: pa.Table) -> pa.Table:
                    ids = ray.get(drop_ref)
                    ek = batch.column("k").to_numpy(zero_copy_only=False)
                    u, v = _edge_ends(ek)
                    pos_u = np.searchsorted(ids, u)
                    pos_v = np.searchsorted(ids, v)
                    bad_u = (pos_u < len(ids)) & (
                        ids[np.minimum(pos_u, len(ids) - 1)] == u
                    )
                    bad_v = (pos_v < len(ids)) & (
                        ids[np.minimum(pos_v, len(ids) - 1)] == v
                    )
                    return pa.table(
                        {"k": pa.array(ek[~bad_u & ~bad_v], pa.int64())}
                    )

                edges = edges.map_batches(
                    bfilter, batch_format="pyarrow", zero_copy_batch=True
                ).materialize()
                continue
            for side in (0, 1):

                def edge_rows(batch: pa.Table, _s: int = side) -> pa.Table:
                    ek = batch.column("k").to_numpy(zero_copy_only=False)
                    node = _edge_ends(ek)[_s]
                    return pa.table(
                        {
                            "node": pa.array(node.astype(np.int64), pa.int64()),
                            "k": pa.array(ek, pa.int64()),
                            "is_marker": pa.array(
                                np.zeros(len(ek), np.int64), pa.int64()
                            ),
                        }
                    )

                def marker_rows(batch: pa.Table) -> pa.Table:
                    n = batch.num_rows
                    return pa.table(
                        {
                            "node": batch.column("node"),
                            "k": pa.array(np.zeros(n, np.int64), pa.int64()),
                            "is_marker": pa.array(
                                np.ones(n, np.int64), pa.int64()
                            ),
                        }
                    )

                def filt_kernel(part: pa.Table) -> pa.Table:
                    node = part.column("node").to_numpy(zero_copy_only=False)
                    ek = part.column("k").to_numpy(zero_copy_only=False)
                    mark = part.column("is_marker").to_numpy(
                        zero_copy_only=False
                    )
                    marked = set(node[mark == 1].tolist())
                    if not marked:
                        keep = mark == 0
                    else:
                        keep = (mark == 0) & ~np.isin(
                            node, np.fromiter(marked, np.int64, len(marked))
                        )
                    return pa.table({"k": pa.array(ek[keep], pa.int64())})

                edges = partitioned_by_key(
                    edges.map_batches(
                        edge_rows, batch_format="pyarrow", zero_copy_batch=True
                    ).union(
                        dropped_ds.map_batches(
                            marker_rows,
                            batch_format="pyarrow",
                            zero_copy_batch=True,
                        )
                    ),
                    "node",
                    filt_kernel,
                ).materialize()
        k += 1
    if not hist:
        return pa.table(
            {"core_k": pa.array([], pa.int64()), "n_nodes": pa.array([], pa.int64())}
        )
    ks = sorted(hist)
    return pa.table(
        {
            "core_k": pa.array(ks, pa.int64()),
            "n_nodes": pa.array([hist[x] for x in ks], pa.int64()),
        }
    )


# -- change-point detection (integer CUSUM argmax) ---------------------------------


def change_point_detect(sf_dir: str) -> pa.Table:
    """Single change-point detector over the daily event-count series,
    per event type: the split day t maximizing the cross-multiplied
    mean-shift score |S_t * n - S_n * t| (the CUSUM statistic with the
    division cleared, so the argmax is EXACT integer arithmetic — no
    float epsilon can flip the winner).  Ties break on the earlier
    day.  The volume-regime-shift alarm every ingestion monitor wants.

    Scale shape: one keyed aggregate folds rows to the (type, day, n)
    cell table (bounded by types x calendar, not corpus size); the
    prefix-sum scan over each type's day series is
    driver-side arithmetic on that bounded table.  Score overflow is
    guarded: S_n * t <= total_rows * days < 2^63 at any tested scale,
    and the guard raises loudly rather than wrapping."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def type_day(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch.column("ts"), pa.timestamp("us"))
        day = (
            pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False) // _DAY_US
        )
        return pa.table(
            {"event_type": batch.column("event_type"), "day": pa.array(day, pa.int64())}
        )

    cells = ensure_columns(
        keyed_aggregate(
            ev.map_batches(type_day, batch_format="pyarrow", zero_copy_batch=True),
            ["event_type", "day"],
            {"n": ("day", "count")},
        ).to_pandas(),
        ["event_type", "day", "n"],
    )
    rows = []
    for et, grp in cells.groupby("event_type", sort=True):
        day = grp["day"].to_numpy().astype(np.int64)
        n = grp["n"].to_numpy().astype(np.int64)
        order = np.argsort(day)
        day, n = day[order], n[order]
        if len(day) < 2:
            continue
        # t = position index 1..len-1 (split AFTER position t-1)
        s = np.cumsum(n)
        total, m = int(s[-1]), len(day)
        if total * m >= 2**63:
            raise OverflowError("change_point_detect: score overflow")
        t_idx = np.arange(1, m)
        score = np.abs(s[:-1] * m - total * t_idx)
        best = int(np.argmax(score))  # first max = earliest day tie-break
        rows.append((et, int(day[t_idx[best]]), int(score[best]), m))
    if not rows:
        return pa.table(
            {
                "event_type": pa.array([], pa.string()),
                "change_day": pa.array([], pa.int64()),
                "score": pa.array([], pa.int64()),
                "n_days": pa.array([], pa.int64()),
            }
        )
    return pa.table(
        {
            "event_type": pa.array([r[0] for r in rows], pa.string()),
            "change_day": pa.array([r[1] for r in rows], pa.int64()),
            "score": pa.array([r[2] for r in rows], pa.int64()),
            "n_days": pa.array([r[3] for r in rows], pa.int64()),
        }
    )


CHANGE_POINT_DETECT_SQL = """
WITH d AS (
  SELECT event_type,
         epoch_us(CAST(ts AS TIMESTAMP)) // 86400000000 AS day,
         count(*) AS n
  FROM events GROUP BY 1, 2
),
p AS (
  SELECT event_type, day, n,
         sum(n) OVER (PARTITION BY event_type ORDER BY day) AS s,
         row_number() OVER (PARTITION BY event_type ORDER BY day) AS t,
         sum(n) OVER (PARTITION BY event_type) AS total,
         count(*) OVER (PARTITION BY event_type) AS m,
         lead(day) OVER (PARTITION BY event_type ORDER BY day) AS next_day
  FROM d
),
sc AS (
  SELECT event_type, next_day AS change_day,
         abs(s * m - total * t) AS score, m,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY abs(s * m - total * t) DESC, day)
           AS rn
  FROM p WHERE next_day IS NOT NULL AND m >= 2
)
SELECT event_type,
       CAST(change_day AS BIGINT) AS change_day,
       CAST(score AS BIGINT) AS score,
       CAST(m AS BIGINT) AS n_days
FROM sc WHERE rn = 1
ORDER BY event_type
"""


# -- smoothed target encoding -------------------------------------------------------


_TE_SMOOTH_M = 100  # pseudo-observations blended toward the global prior


def target_encode_brands(sf_dir: str) -> pa.Table:
    """Feature-engineering staple: smoothed target encoding of part
    brand by return rate — encode(b) = (returns_b + m * prior) /
    (n_b + m) with the global prior, all in exact integer permille
    (prior itself is the floored global permille, so the whole oracle
    is integer-reproducible).  Rare brands shrink toward the prior,
    hot brands keep their own rate — the classic leakage-safe
    categorical encoder.

    Scale shape: the brand is the dimension attribute, so lineitem
    meets part through the join planner (auto_equi_join: a broadcast
    probe at tested scales, revenue_by_brand's plan) and one tiny keyed
    aggregate folds rows straight to <= |brands| cells, then driver
    arithmetic over the bounded brand table."""

    def returned(batch: pa.Table) -> pa.Table:
        ret = pc.equal(batch.column("l_returnflag"), pa.scalar("R"))
        return pa.table(
            {"l_partkey": batch.column("l_partkey"), "r": pc.cast(ret, pa.int64())}
        )

    lines = _read(sf_dir, "lineitem", ["l_partkey", "l_returnflag"]).map_batches(
        returned, batch_format="pyarrow", zero_copy_batch=True
    )
    out = keyed_aggregate(
        auto_equi_join(
            lines,
            f"{sf_dir}/part.parquet",
            "l_partkey",
            "p_partkey",
            [("r", pa.int64())],
            [("p_brand", pa.string())],
        ),
        "p_brand",
        {"n": ("r", "count"), "r": ("r", "sum")},
    ).to_pandas()
    out = ensure_columns(out, ["p_brand", "n", "r"]).sort_values("p_brand")
    if out.empty:
        return pa.table(
            {
                "p_brand": pa.array([], pa.string()),
                "n_items": pa.array([], pa.int64()),
                "n_returned": pa.array([], pa.int64()),
                "encoded_permille": pa.array([], pa.int64()),
            }
        )
    n = out["n"].to_numpy().astype(np.int64)
    r = out["r"].to_numpy().astype(np.int64)
    prior_pm = 1000 * int(r.sum()) // int(n.sum())  # floored global prior
    enc = (1000 * r + _TE_SMOOTH_M * prior_pm) // (n + _TE_SMOOTH_M)
    return pa.table(
        {
            "p_brand": pa.array(out["p_brand"], pa.string()),
            "n_items": pa.array(n, pa.int64()),
            "n_returned": pa.array(r, pa.int64()),
            "encoded_permille": pa.array(enc.astype(np.int64), pa.int64()),
        }
    )


TARGET_ENCODE_BRANDS_SQL = f"""
WITH b AS (
  SELECT p.p_brand,
         count(*) AS n,
         sum(CASE WHEN l.l_returnflag = 'R' THEN 1 ELSE 0 END) AS r
  FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
  GROUP BY 1
),
g AS (SELECT 1000 * sum(r) // sum(n) AS prior_pm FROM b)
SELECT p_brand,
       CAST(n AS BIGINT) AS n_items,
       CAST(r AS BIGINT) AS n_returned,
       CAST((1000 * r + {_TE_SMOOTH_M} * prior_pm) // (n + {_TE_SMOOTH_M})
            AS BIGINT) AS encoded_permille
FROM b, g
ORDER BY p_brand
"""


# -- leave-one-out source ablation ---------------------------------------------------


def source_ablation_report(sf_dir: str) -> pa.Table:
    """Corpus-ablation diagnostic: for every source, the mean document
    length the corpus would have WITHOUT that source — mean_excl =
    (S - S_s) // (n - n_s) in floored integer chars.  The cheap
    leave-one-out table that shows which source drags the quality
    metric, computed from per-source sufficient statistics: one cell
    rollup, then O(|sources|) driver arithmetic — no per-ablation
    rescan of anything."""
    from .text import read_documents

    out = keyed_aggregate(
        read_documents(sf_dir, columns=["source", "n_chars"]),
        "source",
        {"n": ("n_chars", "count"), "s": ("n_chars", "sum")},
    ).to_pandas()
    out = ensure_columns(out, ["source", "n", "s"]).sort_values("source")
    if out.empty:
        return pa.table(
            {
                "source": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
                "mean_nchars_excl": pa.array([], pa.int64()),
            }
        )
    n = out["n"].to_numpy().astype(np.int64)
    s = out["s"].to_numpy().astype(np.int64)
    tot_n, tot_s = int(n.sum()), int(s.sum())
    rest_n = tot_n - n
    excl = np.where(rest_n > 0, (tot_s - s) // np.maximum(rest_n, 1), 0)
    return pa.table(
        {
            "source": pa.array(out["source"], pa.string()),
            "n_docs": pa.array(n, pa.int64()),
            "mean_nchars_excl": pa.array(excl.astype(np.int64), pa.int64()),
        }
    )


SOURCE_ABLATION_REPORT_SQL = """
WITH b AS (
  SELECT source, count(*) AS n, sum(n_chars) AS s
  FROM documents GROUP BY 1
),
g AS (SELECT sum(n) AS tn, sum(s) AS ts FROM b)
SELECT source,
       CAST(n AS BIGINT) AS n_docs,
       CAST(CASE WHEN tn - n > 0 THEN (ts - s) // (tn - n) ELSE 0 END
            AS BIGINT) AS mean_nchars_excl
FROM b, g
ORDER BY source
"""


# -- gap fill (date-spine densification + LOCF) ------------------------------


def gap_fill(sf_dir: str) -> pa.Table:
    """Time-series densification: per event_type, the full daily spine
    from that type's first to last active day, with missing days
    zero-filled (cnt) and last-observation-carried-forward (locf_cnt =
    the most recent day's count that actually had events).  The gap-fill
    idiom every downstream forecaster needs before it can difference or
    window a series.

    Scale shape: ONE bounded keyed aggregate collapses the raw stream
    to (event_type, day, count) — its per-call combiner keeps exchange
    volume at #types × #days rows a call, not #events.  The spine
    expansion runs on the rolled-up frame, which is bounded by design
    (event-type vocabulary is small and the calendar range is fixed:
    even 10 years × 10k types is 36M rows, and it only grows with the
    CALENDAR, never with event volume).  LOCF per type is one
    maximum.accumulate over the presence mask — no per-day Python."""
    DAY_US = 86_400 * 1_000_000
    ev = _read(sf_dir, "events", ["ts", "event_type"])

    def type_day(batch: pa.Table) -> pa.Table:
        t = pc.cast(pc.cast(batch.column("ts"), pa.timestamp("us")), pa.int64())
        d = (t.to_numpy(zero_copy_only=False) // DAY_US) * DAY_US
        return pa.table(
            {"event_type": batch.column("event_type"), "d": pa.array(d, pa.int64())}
        )

    rolled = keyed_aggregate(
        ev.map_batches(type_day, batch_format="pyarrow", zero_copy_batch=True),
        ["event_type", "d"],
        {"n": ("d", "count")},
    ).to_pandas()  # bounded: #types × #days (calendar-bounded, see above)
    rolled = ensure_columns(rolled, ["event_type", "d", "n"])

    empty = pa.table(
        {
            "event_type": pa.array([], pa.string()),
            "day": pa.array([], pa.timestamp("us")),
            "cnt": pa.array([], pa.int64()),
            "locf_cnt": pa.array([], pa.int64()),
        }
    )
    if rolled.empty:
        return empty

    rolled = rolled.sort_values(["event_type", "d"])
    types_out, days_out, cnt_out, locf_out = [], [], [], []
    # Bounded loop: one iteration per event TYPE (vocabulary-sized),
    # each body fully vectorized over that type's calendar.
    for etype, grp in rolled.groupby("event_type", sort=True):
        d = grp["d"].to_numpy().astype(np.int64)
        n = grp["n"].to_numpy().astype(np.int64)
        spine = np.arange(d[0], d[-1] + DAY_US, DAY_US, dtype=np.int64)
        cnt = np.zeros(len(spine), np.int64)
        pos = ((d - d[0]) // DAY_US).astype(np.int64)
        cnt[pos] = n
        present = np.zeros(len(spine), bool)
        present[pos] = True
        # LOCF: index of the most recent present day (day 0 is present
        # by construction, so the accumulate never reads a gap).
        last = np.maximum.accumulate(np.where(present, np.arange(len(spine)), 0))
        types_out.append(np.full(len(spine), etype, dtype=object))
        days_out.append(spine)
        cnt_out.append(cnt)
        locf_out.append(cnt[last])
    return pa.table(
        {
            "event_type": pa.array(np.concatenate(types_out), pa.string()),
            "day": pc.cast(
                pa.array(np.concatenate(days_out), pa.int64()), pa.timestamp("us")
            ),
            "cnt": pa.array(np.concatenate(cnt_out), pa.int64()),
            "locf_cnt": pa.array(np.concatenate(locf_out), pa.int64()),
        }
    )


GAP_FILL_SQL = """
WITH RECURSIVE daily AS (
  SELECT event_type, date_trunc('day', ts) AS day, CAST(count(*) AS BIGINT) AS c
  FROM events GROUP BY 1, 2
),
bounds AS (SELECT event_type, min(day) AS lo, max(day) AS hi FROM daily GROUP BY 1),
-- this DuckDB build rejects lateral/subquery args to generate_series,
-- so the per-type day spine is a recursive CTE (depth = calendar days)
spine AS (
  SELECT event_type, lo AS day, hi FROM bounds
  UNION ALL
  SELECT event_type, day + INTERVAL 1 DAY, hi FROM spine WHERE day < hi
)
SELECT s.event_type, s.day,
       COALESCE(d.c, 0) AS cnt,
       LAST_VALUE(d.c IGNORE NULLS) OVER (
         PARTITION BY s.event_type ORDER BY s.day
         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS locf_cnt
FROM spine s
LEFT JOIN daily d ON d.event_type = s.event_type AND d.day = s.day
ORDER BY 1, 2
"""


# -- item-item similarity (co-purchase top-k neighbors) -----------------------


def item_similarity_topk(sf_dir: str) -> "ray.data.Dataset":
    """Item-item collaborative filtering: for every part, its top-3
    co-purchased neighbor parts by shared-order count (ties broken by
    smaller neighbor id).  The "users who bought X also bought Y"
    primitive, kept integer-exact (raw intersection counts, no float
    similarity) so the oracle hashes bit-for-bit.

    Scale shape: the shared edge build (_copurchase_edges) already
    carries each a<b pair's exact shared-order count; each edge is
    mirrored into both directions, and one src-keyed shuffle runs one
    lexsort kernel per exchange block that ranks every part's neighbor
    list at once (partitioned_by_key — UDF calls bounded by
    min(P, 2 × CPUs), not by #parts).  Giant orders are the skew risk:
    a k-item order emits k(k-1)/2 pairs, bounded here by the order
    schema (orders cap out at tens of lines); a marketplace-basket
    variant would cap or sample per-order part lists first."""
    from ._util import wide_partitions

    P = wide_partitions()
    edges = _copurchase_edges(sf_dir, P)

    def unpack(batch: pa.Table) -> pa.Table:
        """Mirror each canonical a<b edge into both directions."""
        a, b = _edge_ends(batch.column("k").to_numpy(zero_copy_only=False))
        s = batch.column("n_orders").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), pa.int64()),
                "shared": pa.array(np.concatenate([s, s]), pa.int64()),
            }
        )

    def topk(part: pa.Table) -> pa.Table:
        s = part.column("src").to_numpy(zero_copy_only=False)
        d = part.column("dst").to_numpy(zero_copy_only=False)
        c = part.column("shared").to_numpy(zero_copy_only=False)
        order = np.lexsort((d, -c, s))
        s, d, c = s[order], d[order], c[order]
        b = run_bounds(s)
        starts = np.repeat(b[:-1], np.diff(b))
        rank = np.arange(len(s), dtype=np.int64) - starts + 1
        keep = rank <= 3
        return pa.table(
            {
                "part_id": pa.array(s[keep], pa.int64()),
                "neighbor_id": pa.array(d[keep], pa.int64()),
                "shared_orders": pa.array(c[keep].astype(np.int64), pa.int64()),
                "rank": pa.array(rank[keep], pa.int64()),
            }
        )

    return partitioned_by_key(
        edges.map_batches(unpack, batch_format="pyarrow", zero_copy_batch=True),
        "src",
        topk,
        P=P,
    )


ITEM_SIMILARITY_TOPK_SQL = """
WITH op AS (SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem),
pairs AS (
  SELECT a.p AS src, b.p AS dst, count(*) AS shared
  FROM op a JOIN op b ON a.o = b.o AND a.p <> b.p
  GROUP BY 1, 2
),
ranked AS (
  SELECT src, dst, shared,
         row_number() OVER (PARTITION BY src ORDER BY shared DESC, dst) AS rk
  FROM pairs
)
SELECT CAST(src AS BIGINT) AS part_id,
       CAST(dst AS BIGINT) AS neighbor_id,
       CAST(shared AS BIGINT) AS shared_orders,
       CAST(rk AS BIGINT) AS rank
FROM ranked WHERE rk <= 3
ORDER BY 1, 4
"""


# -- BFS depth profile over the co-purchase graph -----------------------------

_BFS_MAX_DEPTH = 4


def copurchase_bfs_depth(sf_dir: str, max_depth: int = _BFS_MAX_DEPTH) -> pa.Table:
    """Breadth-first reach profile: how many parts sit at hop distance
    0..max_depth from the seed part (global min partkey) in the
    co-purchase graph, plus a -1 row for parts unreachable within the
    horizon — the frontier-expansion member of the graph family
    (components = label spreading, kcore = monotone peel, this =
    level-synchronous BFS).

    Scale shape: the edge build is the shared _copurchase_edges (order-
    keyed run_pairs expansion, edge-keyed sum).  Then the VOLUME ROUTER
    precedent (connected components / kcore): up to
    ``_GRAPH_GATHER_EDGES`` edges the sparse deduped edge set gathers
    to ONE vectorized CSR-BFS kernel; above it the same
    level-synchronous sweep runs distributed —
    per round, the frontier meets the directed edge list in a keyed
    repartition join, neighbor candidates dedup under a node-keyed
    shuffle, and an anti-join against the visited set admits only new
    nodes (bounded rounds = max_depth, each round materialized with a
    lineage cut).  The visited set lives as a DATASET end-to-end — never
    a driver-side structure — so the loop arm holds at any node count."""
    from ._util import cut_lineage, wide_partitions

    P = wide_partitions()
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    edges_ds = _copurchase_edges(sf_dir, P)
    seed_raw = li.min("l_partkey")

    def hist_table(reach: "np.ndarray", n_nodes_total: int) -> pa.Table:
        """Depth histogram from the reached-depth values directly — no
        per-node Python dict (the gather arm can hold ~10^6 nodes)."""
        ds_, cnt = np.unique(reach.astype(np.int64), return_counts=True)
        unreached = n_nodes_total - len(reach)
        if unreached > 0:
            ds_ = np.r_[np.int64(-1), ds_]
            cnt = np.r_[np.int64(unreached), cnt]
        return pa.table(
            {
                "depth": pa.array(ds_.astype(np.int64), pa.int64()),
                "n_nodes": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    if seed_raw is None:
        return pa.table(
            {"depth": pa.array([], pa.int64()), "n_nodes": pa.array([], pa.int64())}
        )
    seed = int(seed_raw)
    n_edges = edges_ds.count()

    if n_edges <= _GRAPH_GATHER_EDGES:
        # gather arm: CSR BFS in one vectorized kernel
        if n_edges:
            ek = np.concatenate(
                [
                    b.column("k").to_numpy(zero_copy_only=False)
                    for b in edges_ds.iter_batches(
                        batch_format="pyarrow", batch_size=None
                    )
                ]
            )
            u, v = _edge_ends(ek)
        else:
            u = v = np.array([], np.int64)
        nodes = np.unique(np.concatenate([u, v, [seed]]))
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        si = np.searchsorted(nodes, src)
        di = np.searchsorted(nodes, dst)
        order = np.argsort(si, kind="stable")
        si, di = si[order], di[order]
        indptr = np.searchsorted(si, np.arange(len(nodes) + 1))
        dist = np.full(len(nodes), -1, np.int64)
        dist[np.searchsorted(nodes, seed)] = 0
        frontier = np.array([np.searchsorted(nodes, seed)], np.int64)
        for depth in range(1, max_depth + 1):
            if not len(frontier):
                break
            # gather all neighbors of the frontier (varlen segment copy)
            lens = indptr[frontier + 1] - indptr[frontier]
            total = int(lens.sum())
            if not total:
                break
            out_off = np.zeros(len(lens) + 1, np.int64)
            np.cumsum(lens, out=out_off[1:])
            gather = np.arange(total, dtype=np.int64) + np.repeat(
                indptr[frontier] - out_off[:-1], lens
            )
            nbrs = np.unique(di[gather])
            new = nbrs[dist[nbrs] < 0]
            dist[new] = depth
            frontier = new
        return hist_table(dist[dist >= 0], len(nodes))

    # loop arm: level-synchronous distributed BFS
    def both_dirs(batch: pa.Table) -> pa.Table:
        u, v = _edge_ends(batch.column("k").to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "src": pa.array(np.concatenate([u, v]), pa.int64()),
                "dst": pa.array(np.concatenate([v, u]), pa.int64()),
            }
        )

    directed = edges_ds.map_batches(
        both_dirs, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    visited = ray.data.from_arrow(
        pa.table(
            {
                "node": pa.array([seed], pa.int64()),
                "depth": pa.array([0], pa.int64()),
            }
        )
    ).materialize()
    frontier_ds = visited

    def uniq_nodes(part: pa.Table) -> pa.Table:
        n = np.unique(part.column("node").to_numpy(zero_copy_only=False))
        return pa.table({"node": pa.array(n, pa.int64())})

    for depth in range(1, max_depth + 1):
        nbrs = repartition_join(
            frontier_ds,
            directed,
            "node",
            "src",
            [("node", pa.int64())],
            [("dst", pa.int64())],
        ).map_batches(
            lambda b: pa.table({"node": b.column("dst")}),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        nbrs = partitioned_by_key(nbrs, "node", uniq_nodes, P=P)
        new = repartition_join(
            nbrs,
            visited,
            "node",
            "node",
            [("node", pa.int64())],
            [],
            how="anti",
        ).map_batches(
            lambda b, d=depth: pa.table(
                {
                    "node": b.column("node"),
                    "depth": pa.array(
                        np.full(b.num_rows, d, np.int64), pa.int64()
                    ),
                }
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).materialize()
        if new.count() == 0:
            break
        frontier_ds = cut_lineage(new)
        visited = cut_lineage(visited.union(new).materialize())

    # bounded rollup: ≤ max_depth+2 distinct depths
    counts = keyed_aggregate(
        visited, "depth", {"n_nodes": ("depth", "count")}
    ).to_pandas()
    # every part with an edge, plus the seed when it has none
    degrees = _copurchase_degrees(edges_ds).materialize()
    seed_has_edge = degrees.filter(expr=f"node == {seed}").count() > 0
    n_nodes_total = degrees.count() + (0 if seed_has_edge else 1)
    reached_total = int(counts["n_nodes"].sum())
    depths = counts["depth"].to_numpy().astype(np.int64)
    ns = counts["n_nodes"].to_numpy().astype(np.int64)
    if n_nodes_total - reached_total > 0:
        depths = np.r_[np.int64(-1), depths]
        ns = np.r_[np.int64(n_nodes_total - reached_total), ns]
    order = np.argsort(depths)
    return pa.table(
        {
            "depth": pa.array(depths[order], pa.int64()),
            "n_nodes": pa.array(ns[order], pa.int64()),
        }
    )


COPURCHASE_BFS_DEPTH_SQL = f"""
WITH RECURSIVE op AS (
  SELECT DISTINCT l_orderkey AS o, l_partkey AS p FROM lineitem
),
edges AS (
  SELECT DISTINCT a.p AS u, b.p AS v
  FROM op a JOIN op b ON a.o = b.o AND a.p <> b.p
),
seed AS (SELECT min(p) AS s FROM op),
bfs AS (
  SELECT s AS node, 0 AS depth FROM seed
  UNION
  SELECT e.v, bfs.depth + 1
  FROM bfs JOIN edges e ON e.u = bfs.node
  WHERE bfs.depth < {_BFS_MAX_DEPTH}
),
d AS (SELECT node, CAST(min(depth) AS BIGINT) AS depth FROM bfs GROUP BY node),
-- universe = every node with an edge PLUS the seed (covers an isolated
-- seed part that never co-occurs with another part)
-- NOTE: inside a WITH RECURSIVE list a bare "a UNION b" CTE is parsed
-- as a recursive definition (and does NOT dedup across the branches);
-- the DISTINCT-over-UNION-ALL subquery form keeps it a plain union.
allnodes AS (
  SELECT DISTINCT node FROM (
    SELECT u AS node FROM edges
    UNION ALL
    SELECT s AS node FROM seed WHERE s IS NOT NULL
  )
),
labeled AS (
  SELECT COALESCE(d.depth, -1) AS depth
  FROM allnodes a LEFT JOIN d ON d.node = a.node
)
SELECT depth, CAST(count(*) AS BIGINT) AS n_nodes
FROM labeled GROUP BY depth ORDER BY depth
"""


# -- exact heavy hitters via sketch-then-confirm ------------------------------

_HEAVY_PERMILLE = 7  # heavy = more than 7 per mille of all events
_HEAVY_K = 4096  # per-block summary size (candidate-completeness knob)


def heavy_users_exact(sf_dir: str, permille: int = _HEAVY_PERMILLE, k: int = _HEAVY_K) -> pa.Table:
    """EXACT heavy hitters at sketch cost: users holding more than
    ``permille``/1000 of all events, computed WITHOUT a full
    user-keyed groupby — the two-pass space-saving pattern
    (pass 1: bounded per-block summaries nominate candidates;
    pass 2: exact counts for the candidate set only).

    Completeness is provable, not heuristic: a per-block summary keeps
    the block's top-k exact counts, so any dropped key has block count
    <= n_b/(k+1) (k+1 keys at least that large would exceed the block);
    summing summaries therefore under-counts any key by at most
    n/(k+1) total, and every key with true count > permille*n/1000 has
    summary estimate >= threshold - n/(k+1) — the candidate cut keeps
    all of them.  Pass 2 broadcasts the candidate id array once
    (ray.put) and computes exact counts only for members; the final
    filter uses the true counts, so the output is EXACT (the same
    sketch-nominate / exact-confirm shape as
    dedup_incremental_confirmed's Bloom pass).

    Scale shape: TWO scans total — pass 1 is shuffle-free (per-BLOCK
    summaries, driver merge sees <= (k+1) x #blocks fixed-width rows;
    each summary carries a -1-sentinel row with the block's
    pre-truncation total, so n needs no separate count scan); pass 2's
    shuffle carries only candidate rows' partial counts — at 10^9
    users and k=4096 the full user-keyed groupby never happens."""
    # Completeness PRECONDITION: the threshold must exceed the worst-
    # case total undercount n/(k+1), i.e. permille·(k+1) > 1000 — below
    # that, a heavy key can be evicted from EVERY block summary (each
    # block count <= n_b/(k+1)) and no slack can nominate an absent key.
    if permille * (k + 1) <= 1000:
        raise ValueError(
            "heavy_users_exact: permille*(k+1) must exceed 1000 for the "
            "candidate set to be provably complete"
        )
    ev = _read(sf_dir, "events", ["user_id"])

    def block_summary(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        if u.size and int(u.min()) < 0:
            raise ValueError("heavy_users_exact: user_id must be >= 0 "
                             "(-1 is the block-total sentinel)")
        ids, cnt = np.unique(u, return_counts=True)
        if len(ids) > k:
            keep = np.argpartition(cnt, len(cnt) - k)[-k:]
            ids, cnt = ids[keep], cnt[keep]
        # sentinel row: the block's PRE-truncation total, so the driver
        # learns n from the summaries themselves — no separate count scan
        return pa.table(
            {
                "user_id": pa.array(np.r_[ids, np.int64(-1)], pa.int64()),
                "c": pa.array(
                    np.r_[cnt.astype(np.int64), np.int64(u.size)], pa.int64()
                ),
            }
        )

    summaries = ev.map_batches(
        block_summary,
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,  # per BLOCK — the summary bound is per block
    ).to_pandas()  # bounded: <= k+1 rows per block
    if summaries.empty:
        return pa.table(
            {"user_id": pa.array([], pa.int64()), "n_events": pa.array([], pa.int64())}
        )
    est = summaries.groupby("user_id")["c"].sum()
    total = int(est.pop(-1)) if -1 in est.index else 0
    if total == 0:
        return pa.table(
            {"user_id": pa.array([], pa.int64()), "n_events": pa.array([], pa.int64())}
        )
    # keep x iff est(x) + n/(k+1) could still clear the threshold
    slack = total // (k + 1) + 1
    cand = est.index.to_numpy()[
        1000 * (est.to_numpy() + slack) > permille * total
    ].astype(np.int64)
    if len(cand) == 0:
        return pa.table(
            {"user_id": pa.array([], pa.int64()), "n_events": pa.array([], pa.int64())}
        )
    cand_ref = ray.put(np.sort(cand))

    def candidates_only(batch: pa.Table) -> pa.Table:
        cands = ray.get(cand_ref)
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(cands, u)
        pos_c = np.clip(pos, 0, len(cands) - 1)
        return pa.table({"user_id": pa.array(u[cands[pos_c] == u], pa.int64())})

    rolled = keyed_aggregate(
        ev.map_batches(candidates_only, batch_format="pyarrow", zero_copy_batch=True),
        "user_id",
        {"n_events": ("user_id", "count")},
    ).to_pandas()  # bounded: one row per CANDIDATE
    keep = 1000 * rolled["n_events"].to_numpy() > permille * total
    out = rolled[keep].sort_values("user_id")
    return pa.table(
        {
            "user_id": pa.array(out["user_id"].to_numpy().astype(np.int64), pa.int64()),
            "n_events": pa.array(
                out["n_events"].to_numpy().astype(np.int64), pa.int64()
            ),
        }
    )


HEAVY_USERS_EXACT_SQL = f"""
WITH t AS (SELECT count(*) AS n FROM events)
SELECT CAST(user_id AS BIGINT) AS user_id,
       CAST(count(*) AS BIGINT) AS n_events
FROM events, t
GROUP BY user_id, t.n
HAVING 1000 * count(*) > {_HEAVY_PERMILLE} * t.n
ORDER BY user_id
"""


# -- deterministic half-sample stability (resampling family) ------------------

_HALFSAMPLE_B = 32


def halfsample_stability(sf_dir: str) -> pa.Table:
    """Uncertainty estimation at corpus scale: 32 DETERMINISTIC half-
    samples of the documents table (replicate b keeps doc_id iff bit b
    of md5(doc_id) is set), each reporting its member count and mean
    n_chars — the spread across replicates is the subsampling-stability
    readout a curation pipeline checks before trusting a corpus-level
    statistic.  Hash-bit membership makes every replicate reproducible
    on any cluster and the whole family costs ONE pass: one md5 per
    row yields all 32 memberships (bit unpack), so per-batch partials
    are a (32, 2) fold — not 32 scans, not 32 shuffles.

    Output: (replicate, n_docs, mean_nchars_micro) with the mean in
    integer micro-units (sum*1e6 // n), bit-exact against the SQL
    mirror.  Scale shape: shuffle volume is 32 partial cells per batch;
    the rollup is bounded by B=32 at any corpus size."""
    from ._util import md5_u64

    B = _HALFSAMPLE_B
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        nc = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.int64)
        h = md5_u64(ids)
        reps = np.arange(B, dtype=np.int64)
        # membership matrix (n, B): bit b of each row's hash
        mem = ((h[:, None] >> reps[None, :].astype(np.uint64)) & np.uint64(1)).astype(
            np.int64
        )
        n = mem.sum(axis=0)
        s = (mem * nc[:, None]).sum(axis=0)
        return pa.table(
            {
                "replicate": pa.array(reps, pa.int64()),
                "n": pa.array(n, pa.int64()),
                "s": pa.array(s, pa.int64()),
            }
        )

    rolled = (
        keyed_aggregate(
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "replicate",
            {"n": ("n", "sum"), "s": ("s", "sum")},
        )
        .to_pandas()  # bounded: exactly B rows
    )
    if rolled.empty:
        return pa.table(
            {
                "replicate": pa.array([], pa.int64()),
                "n_docs": pa.array([], pa.int64()),
                "mean_nchars_micro": pa.array([], pa.int64()),
            }
        )
    # SQL's JOIN emits no row for a memberless replicate; match it.
    rolled = rolled[rolled["n"] > 0].sort_values("replicate")
    n = rolled["n"].to_numpy().astype(np.int64)
    s = rolled["s"].to_numpy().astype(np.int64)
    # s*1e6 must stay inside int64 (numpy wraps silently; the DuckDB
    # mirror errors loudly) — the 32-row rollup switches to Python ints
    # beyond ~9.2e12 total chars per replicate
    if len(s) and int(s.max()) > (2**63 - 1) // 1_000_000:
        mean_micro = np.array(
            [int(si) * 1_000_000 // int(ni) for si, ni in zip(s, n)], np.int64
        )
    else:
        mean_micro = (s * 1_000_000) // n
    return pa.table(
        {
            "replicate": pa.array(rolled["replicate"].to_numpy().astype(np.int64), pa.int64()),
            "n_docs": pa.array(n, pa.int64()),
            "mean_nchars_micro": pa.array(mean_micro.astype(np.int64), pa.int64()),
        }
    )


HALFSAMPLE_STABILITY_SQL = f"""
WITH reps AS (SELECT CAST(r.range AS BIGINT) AS replicate FROM range({_HALFSAMPLE_B}) r),
m AS (
  SELECT reps.replicate,
         CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(d.n_chars) AS BIGINT) AS s
  FROM documents d
  JOIN reps ON (md5_number_lower(d.doc_id::VARCHAR) >> reps.replicate) & 1 = 1
  GROUP BY 1
)
SELECT replicate, n_docs,
       CAST(CASE WHEN n_docs > 0
                 THEN (CAST(s AS HUGEINT) * 1000000) // n_docs
                 ELSE 0 END
            AS BIGINT) AS mean_nchars_micro
FROM m ORDER BY replicate
"""


# -- global clustering coefficient --------------------------------------------


def copurchase_clustering_coeff(sf_dir: str) -> pa.Table:
    """Global clustering coefficient of the part co-purchase graph:
    C = 3·triangles / wedges, reported as exact integer ppm — the
    one-number density diagnostic read next to the triangle count and
    the k-core profile.  One edge build and one degree rollup feed both
    counts: triangles through _count_triangles (the copurchase_triangles
    plan) and wedges as Σ deg·(deg−1)/2 over the degree rows, so the
    whole query runs five keyed shuffles.  Integer exact: ppm =
    3_000_000·t // w (0 when the graph has no wedges)."""
    from ._util import wide_partitions

    P = wide_partitions()
    edges = _copurchase_edges(sf_dir, P)
    # bounded: one row per part
    deg = ensure_columns(_copurchase_degrees(edges).to_pandas(), ["node", "degree"])
    tri = _count_triangles(edges, deg, P)
    d = deg["degree"].to_numpy().astype(np.int64)
    wedges = int((d * (d - 1) // 2).sum())
    ppm = 3_000_000 * tri // wedges if wedges else 0
    return pa.table(
        {
            "n_triangles": pa.array([tri], pa.int64()),
            "n_wedges": pa.array([wedges], pa.int64()),
            "clustering_ppm": pa.array([ppm], pa.int64()),
        }
    )


COPURCHASE_CLUSTERING_COEFF_SQL = """
WITH op AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
pairs AS (
  SELECT a.l_partkey AS u, b.l_partkey AS v
  FROM op a
  JOIN op b ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
),
edges AS (SELECT DISTINCT u, v FROM pairs),
tri AS (
  SELECT CAST(count(*) AS BIGINT) AS t
  FROM edges e1
  JOIN edges e2 ON e2.u = e1.u AND e2.v > e1.v
  JOIN edges e3 ON e3.u = e1.v AND e3.v = e2.v
),
deg AS (
  SELECT node, CAST(count(*) AS BIGINT) AS d
  FROM (SELECT u AS node FROM edges UNION ALL SELECT v AS node FROM edges)
  GROUP BY node
),
w AS (SELECT CAST(sum(d * (d - 1) // 2) AS BIGINT) AS wedges FROM deg)
SELECT tri.t AS n_triangles,
       COALESCE(w.wedges, 0) AS n_wedges,
       CAST(CASE WHEN COALESCE(w.wedges, 0) > 0
                 THEN (3000000 * CAST(tri.t AS HUGEINT)) // w.wedges
                 ELSE 0 END AS BIGINT) AS clustering_ppm
FROM tri, w
"""

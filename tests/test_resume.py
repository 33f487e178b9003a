"""Tier-4: resumable partitioned output — a job interrupted after k
partitions resumes without recomputing them and the union output equals a
single clean run.  Each test over the reference's golden pages has an
``_offline`` twin over ``synthetic7_rows()``."""

from __future__ import annotations

import os

import pyarrow.dataset as pads
import pyarrow.parquet as pq

from go_boilerpipe_ray.state.manifest import Manifest, run_partitioned_extract
from go_boilerpipe_ray.sources.fixtures import golden7_chunked_table, synthetic7_rows


def read_output(out_dir: str):
    """A run's hive-partitioned output, read back as one Arrow table."""
    return pads.dataset(out_dir, partitioning="hive").to_table()


def _canon(table):
    rows = {}
    t = table.select(["doc_id", "title", "spans", "n_blocks_kept"])
    for row in t.to_pylist():
        rows[row["doc_id"]] = (
            row["title"],
            [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in row["spans"]],
            row["n_blocks_kept"],
        )
    return rows


def _spans_path(tmp_path, rows):
    spans_path = os.path.join(tmp_path, "spans.parquet")
    pq.write_table(golden7_chunked_table(2, rows=rows), spans_path)
    return spans_path


def _check_resume_produces_identical_union(spans_path, tmp_path):

    # Clean full run.
    full_dir = os.path.join(tmp_path, "out_full")
    run_partitioned_extract(spans_path, full_dir, num_partitions=4)
    full = _canon(read_output(full_dir))
    assert len(full) == 7

    # Interrupted run: simulate a kill after 2 partitions by pre-marking
    # the OTHER two as the only completed ones... instead: run fully, then
    # delete two partitions + their manifest entries, leaving a half-done
    # state; resume must redo exactly the missing ones.
    part_dir = os.path.join(tmp_path, "out_resume")
    run_partitioned_extract(spans_path, part_dir, num_partitions=4)
    m = Manifest.load_or_create(part_dir, 4)
    import shutil

    removed = [0, 2]
    for pid in removed:
        d = m.partition_dir(pid)
        if os.path.isdir(d):
            shutil.rmtree(d)
        m.completed.pop(pid, None)
    m.save()

    m2 = run_partitioned_extract(spans_path, part_dir, num_partitions=4)
    assert m2.pending() == []
    resumed = _canon(read_output(part_dir))
    assert resumed == full

    # Second resume is a no-op (everything completed).
    m3 = run_partitioned_extract(spans_path, part_dir, num_partitions=4)
    assert m3.pending() == []


def test_resume_produces_identical_union(ray_session, tmp_path):
    _check_resume_produces_identical_union(_spans_path(tmp_path, None), tmp_path)


def test_resume_produces_identical_union_offline(ray_session, tmp_path):
    _check_resume_produces_identical_union(
        _spans_path(tmp_path, synthetic7_rows()), tmp_path
    )


def _check_crash_mid_run_persists_completed_groups(spans_path, tmp_path, monkeypatch):
    """A job killed between commit groups keeps the finished groups'
    partitions in the manifest (incremental save), and a plain re-run
    completes only the rest — no hand-editing of the manifest."""
    import go_boilerpipe_ray.pipelines.article as article_mod


    full_dir = os.path.join(tmp_path, "out_full")
    run_partitioned_extract(spans_path, full_dir, num_partitions=4)
    full = _canon(read_output(full_dir))

    crash_dir = os.path.join(tmp_path, "out_crash")
    real_extract = article_mod.extract_dataset
    calls = {"n": 0}

    def extract_then_die(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:  # second commit group = the "kill"
            raise RuntimeError("simulated mid-run kill")
        return real_extract(*args, **kwargs)

    monkeypatch.setattr(article_mod, "extract_dataset", extract_then_die)
    try:
        run_partitioned_extract(
            spans_path, crash_dir, num_partitions=4, checkpoint_groups=2
        )
    except RuntimeError:
        pass

    # The first group's partitions survived the crash in the manifest.
    m = Manifest.load_or_create(crash_dir, 4)
    assert 0 < len(m.completed) < 4

    monkeypatch.setattr(article_mod, "extract_dataset", real_extract)
    m2 = run_partitioned_extract(
        spans_path, crash_dir, num_partitions=4, checkpoint_groups=2
    )
    assert m2.pending() == []
    assert _canon(read_output(crash_dir)) == full


def test_crash_mid_run_persists_completed_groups(ray_session, tmp_path, monkeypatch):
    _check_crash_mid_run_persists_completed_groups(
        _spans_path(tmp_path, None), tmp_path, monkeypatch
    )


def test_crash_mid_run_persists_completed_groups_offline(
    ray_session, tmp_path, monkeypatch
):
    _check_crash_mid_run_persists_completed_groups(
        _spans_path(tmp_path, synthetic7_rows()), tmp_path, monkeypatch
    )


def _check_metrics_rollup(spans_path, tmp_path):
    out_dir = os.path.join(tmp_path, "out")
    m = run_partitioned_extract(spans_path, out_dir, num_partitions=4)
    total_docs = sum(v["n_docs"] for v in m.completed.values())
    assert total_docs == 7
    assert sum(v["words_kept"] for v in m.completed.values()) > 0
    assert sum(v["n_errors"] for v in m.completed.values()) == 0


def test_metrics_rollup(ray_session, tmp_path):
    _check_metrics_rollup(_spans_path(tmp_path, None), tmp_path)


def test_metrics_rollup_offline(ray_session, tmp_path):
    _check_metrics_rollup(_spans_path(tmp_path, synthetic7_rows()), tmp_path)

"""Driver-contract invariants that need no Ray execution: the dict
shapes the driver consumes, and the no-ray.init-on-import rule (the
driver initializes Ray BEFORE importing __ray_entry__)."""

from __future__ import annotations

import ast
import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]


def _entry_module():
    sys.path.insert(0, str(REPO))
    import __ray_entry__

    return __ray_entry__


def test_every_oracle_key_has_a_query():
    m = _entry_module()
    q = m.queries()
    o = m.oracle_sql()
    missing = set(o) - set(q)
    assert not missing, f"oracle_sql keys without queries(): {sorted(missing)}"
    for name, fn in q.items():
        assert callable(fn), name
    for name, sql in o.items():
        assert isinstance(sql, str) and "SELECT" in sql.upper(), name


def test_checked_window_rotates_by_last_check():
    """Each round's oracle check runs the first 50 queries() entries: the
    four extract_* names, then the oracle-bearing names checked least
    recently in the committed CORRECTNESS_r{N}.json files (never checked
    counts as round 0).
    extract_golden is the one name seated without an oracle_sql() entry:
    each round records it as rows-only."""
    import json
    import re

    m = _entry_module()
    names = list(m.queries())
    oracle = m.oracle_sql()
    window = names[:50]
    assert len(set(window)) == 50
    assert set(window) - set(oracle) <= {"extract_golden"}
    assert window[:4] == [n for n in names if n.startswith("extract_")]
    assert len(window[:4]) == 4

    last: dict[str, int] = {}
    for path in REPO.glob("CORRECTNESS_r*.json"):
        rnd = int(re.fullmatch(r"CORRECTNESS_r(\d+)\.json", path.name).group(1))
        for name in json.loads(path.read_text()):
            last[name] = max(last.get(name, 0), rnd)
    latest_inside = max(last.get(n, 0) for n in window[4:])
    outside = [n for n in names[50:] if n in oracle]
    earlier = [n for n in outside if last.get(n, 0) < latest_inside]
    assert not earlier, earlier


def test_no_ray_init_calls_in_library_or_entry():
    """Only bench.py, CLI entry points and the test fixture may own a Ray
    session.  The library package and __ray_entry__ must never call
    ray.init()/ray.shutdown() (the driver owns the session)."""
    offenders = []
    # __main__.py is a CLI entry point — it owns a session (guarded by
    # ray.is_initialized) like bench.py does.
    files = [
        REPO / "__ray_entry__.py",
        *(
            p
            for p in sorted((REPO / "go_boilerpipe_ray").rglob("*.py"))
            if p.name != "__main__.py"
        ),
    ]
    for path in files:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("init", "shutdown") and isinstance(
                    node.func.value, ast.Name
                ) and node.func.value.id == "ray":
                    offenders.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert not offenders, offenders


def test_every_oracle_sql_plans_in_duckdb():
    """EXPLAIN every oracle_sql() entry against the real sf0.001 views —
    catches SQL syntax/column drift instantly, without executing any
    pipeline (the full value comparison lives in tools/selfcheck.py and
    the driver's gate)."""
    import duckdb

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    sf = "/root/testdata/sf0.001"
    for t in (
        "region nation customer supplier part orders lineitem events "
        "documents embeddings"
    ).split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    for name, sql in entrymod.oracle_sql().items():
        try:
            con.execute(f"EXPLAIN {sql}")
        except Exception as exc:  # pragma: no cover - failure detail
            raise AssertionError(f"oracle SQL for {name!r} fails to plan: {exc}")

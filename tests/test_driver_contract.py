"""Driver-contract invariants that need no Ray execution: the dict
shapes the driver consumes, and the no-ray.init-on-import rule (the
driver initializes Ray BEFORE importing __ray_entry__)."""

from __future__ import annotations

import ast
import pathlib
import re
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


def _mod_partition_count(node) -> bool:
    """True when the expression takes something ``% P`` (any name that
    starts with P: P, P_local, ...)."""
    return any(
        isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.Mod)
        and isinstance(n.right, ast.Name)
        and n.right.id.startswith("P")
        for n in ast.walk(node)
    )


# Ray's GroupedData methods: ``<x>.groupby(...).<one of these>(...)`` is a
# Dataset.groupby chain (pandas chains index a column or iterate first).
_RAY_GROUPED = {"aggregate", "count", "sum", "min", "max", "mean", "std", "map_groups"}

def _ray_groupby_sites(trees) -> set[tuple[str, str]]:
    """(module, top-level function) of every Dataset.groupby chain."""
    sites = set()
    for path, tree in trees.items():
        module = str(path.relative_to("go_boilerpipe_ray"))
        for top in tree.body:
            for node in ast.walk(top):
                grouped = (
                    node.func.value
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _RAY_GROUPED
                    else None
                )
                if (
                    isinstance(grouped, ast.Call)
                    and isinstance(grouped.func, ast.Attribute)
                    and grouped.func.attr == "groupby"
                ):
                    sites.add((module, getattr(top, "name", "<module>")))
    return sites


def test_one_keyed_exchange():
    """Every hash shuffle runs through functions/_util.py:exchange.  Fails
    when the package again holds a ``.groupby("<col>").map_groups(`` over
    a ``% P`` partition column, passes ``boundaries=`` to ``sort``
    anywhere but in ``exchange``, or runs any Dataset.groupby chain
    (route it through keyed_aggregate or partitioned_by_key).  Global
    aggregates such as ``ds.sum(col)`` are not groupby chains."""
    trees = {
        p.relative_to(REPO): ast.parse(p.read_text())
        for p in sorted((REPO / "go_boilerpipe_ray").rglob("*.py"))
    }
    pk_cols = {"pk", "pp", "kp", "ck", "epk", "spk", "mpk"}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                pk_cols.update(
                    k.value
                    for k, v in zip(node.keys, node.values)
                    if isinstance(k, ast.Constant) and _mod_partition_count(v)
                )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append_column"
                and len(node.args) == 2
                and isinstance(node.args[0], ast.Constant)
                and _mod_partition_count(node.args[1])
            ):
                pk_cols.add(node.args[0].value)
    offenders = []
    for path, tree in trees.items():
        exchange = next(
            (
                n
                for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "exchange"
            ),
            None,
        )
        allowed = (
            {id(n) for n in ast.walk(exchange)}
            if exchange and str(path).endswith("functions/_util.py")
            else set()
        )
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr == "sort" and id(node) not in allowed and any(
                kw.arg == "boundaries" for kw in node.keywords
            ):
                offenders.append(f"{path}:{node.lineno} sort(boundaries=...)")
            grouped = node.func.value
            if (
                node.func.attr == "map_groups"
                and isinstance(grouped, ast.Call)
                and isinstance(grouped.func, ast.Attribute)
                and grouped.func.attr == "groupby"
                and grouped.args
                and isinstance(grouped.args[0], ast.Constant)
                and grouped.args[0].value in pk_cols
            ):
                offenders.append(
                    f"{path}:{node.lineno} groupby({grouped.args[0].value!r}).map_groups"
                )
    offenders += [
        f"Dataset.groupby in {m}:{f}" for m, f in sorted(_ray_groupby_sites(trees))
    ]
    assert not offenders, offenders


_TRIU_ALLOWED = {
    ("functions/_util.py", "run_pairs"),
    ("functions/similarity.py", "gram_matrix"),
}


def test_one_within_run_pair_expansion():
    """Pairs i < j inside sorted runs come from _util.run_pairs, the one
    vectorized expansion.  Fails on any ``triu_indices`` call under
    go_boilerpipe_ray/ outside run_pairs and similarity.gram_matrix
    (whose d×d upper triangle is not a per-run expansion)."""
    pkg = REPO / "go_boilerpipe_ray"
    offenders = []
    for path in sorted(pkg.rglob("*.py")):
        module = str(path.relative_to(pkg))
        for top in ast.parse(path.read_text()).body:
            name = getattr(top, "name", "<module>")
            offenders += [
                f"{module}:{node.lineno} {name}"
                for node in ast.walk(top)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "triu_indices"
                and (module, name) not in _TRIU_ALLOWED
            ]
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


def test_no_unused_function_local_imports():
    """Every import inside a function under go_boilerpipe_ray/ binds a
    name that the function (nested functions included) reads.  No linter
    is installed, so this AST scan stands in for one.  Imports inside a
    ``try`` are availability probes and stay legal."""
    offenders = []
    for path in sorted((REPO / "go_boilerpipe_ray").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            reads = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
            stack = list(fn.body)
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Try)):
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    offenders += [
                        f"{path.relative_to(REPO)}:{node.lineno} {fn.name}: {a.name}"
                        for a in node.names
                        if (a.asname or a.name.split(".")[0]) not in reads
                    ]
                stack.extend(ast.iter_child_nodes(node))
    assert not offenders, offenders


_SCALING_DIMENSION = re.compile(r"\b(customer|part|supplier)\.parquet")


def test_no_whole_table_reads_of_scaling_dimensions():
    """customer, part and supplier grow with the scale factor, so no
    operator under functions/ reads one whole onto the driver: a join
    goes through auto_equi_join (whose footer gate falls back to the
    repartition join past its budget), and a read that names a few rows
    passes ``filters=``.  Fails on any ``pq.read_table`` whose path
    names one of the three tables and that passes no ``filters=``.
    nation and region are fixed-size and stay readable whole."""
    offenders = []
    for path in sorted((REPO / "go_boilerpipe_ray" / "functions").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "read_table"
                and node.args
            ):
                continue
            literal = "".join(
                n.value
                for n in ast.walk(node.args[0])
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            )
            if _SCALING_DIMENSION.search(literal) and not any(
                k.arg == "filters" for k in node.keywords
            ):
                offenders.append(f"{path.relative_to(REPO)}:{node.lineno}")
    assert not offenders, offenders

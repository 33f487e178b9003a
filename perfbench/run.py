"""Offline benchmark of the extraction engine and its query operators.

Usage (from any directory):

    python3 perfbench/run.py --workload small_pages --seed 1 --seconds 6 --trace 0

Workloads: ``small_pages``, ``long_pages`` and ``query_suite`` (see
BENCHMARK.json for why each exists).  All inputs are generated from
``--seed``; nothing outside the checkout is read.  Load model: a closed
loop with one client, i.e. one process submits one whole pass of the
workload and waits for it before starting the next, on a local Ray
cluster with two logical CPUs.

An untraced run (``--trace 0``) has ROUNDS rounds, one after another,
each in its own process: this one, then fresh ones started with
``--round``.  A round sets up from a cold start (Ray started, inputs
generated and verified, warm-up run; timed from the start of the process
as one ``setup_s`` sample), then runs timed passes for its share of
``--seconds`` and at least MIN_PASSES_PER_ROUND passes, each checked for
correctness outside the timed region, and shuts Ray down.  A shared
host's speed can drift by tens of percent within a minute, so passes
spread over the whole run give steadier medians than one block of them.
A traced run (``--trace 1``) sets up once, alternates traced and
untraced passes and then times each layer from outside (see layers.py).

Human-readable lines come first; the last line of standard output is one
JSON object.  Scratch files, results and trace spans go to
``perfbench/.work/``, Ray's session files to ``/tmp/perfbench-<hash>``
(removed at exit).  Exit status: 0 when every
output is correct, 1 when a correctness check failed, 2 when the engine
is missing, 3 on any other error.
"""

from __future__ import annotations

import time

_T_PROCESS = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
ROUNDS = 3
MIN_PASSES_PER_ROUND = 1
MIN_TRACED_PASSES = 3
MAX_PASSES = 200
ROUND_TIMEOUT_S = 120


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("small_pages", "long_pages", "query_suite"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Run one more round of an untraced run and print it as JSON.
    p.add_argument("--round", type=int, default=0, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _fail(code: int, message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    for needed in (
        ROOT / "go_boilerpipe_ray" / "__init__.py",
        ROOT / "__ray_entry__.py",
        ROOT / "tools" / "selfcheck.py",
    ):
        if not needed.exists():
            return _fail(2, f"engine input missing: {needed}")
    sys.path.insert(0, str(ROOT))
    # No usage reporting from this offline benchmark.
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"

    loadavg_before = list(os.getloadavg())
    import host
    from workloads import WORKLOADS

    session = host.RaySession(ROOT)
    code = 3
    try:
        if args.round:
            _, _, result = _round(args, host, session, WORKLOADS[args.workload])
            print(json.dumps(result))
            code = 0
        else:
            code = _run(args, host, WORKLOADS[args.workload], session, loadavg_before)
        return code
    except Exception as exc:  # one line with the cause, not a traceback
        detail = str(exc).splitlines()[0] if str(exc) else ""
        return _fail(3, f"{type(exc).__name__}: {detail}")
    finally:
        session.stop()
        session.remove_temp_dir()


def _set_up(args, session, workload_cls):
    """Ray up, inputs generated and verified, warm-up run.  Timed
    from this process's start, so the interpreter and every import (Ray,
    Ray Data, the engine) are part of the sample."""
    import ray  # noqa: F401

    import inputs
    from go_boilerpipe_ray.functions._util import install_empty_block_schema_filter
    from go_boilerpipe_ray.pipelines.article import _default_concurrency

    session.start()
    install_empty_block_schema_filter()
    workload = workload_cls(WORK, args.seed)
    corpus = inputs.corpus_id([str(p) for p in workload.prepare()])
    pool = _default_concurrency()
    workload.warm_up(pool)
    setup_s = time.perf_counter() - _T_PROCESS
    # Inputs, expectations and oracles live for the whole run: keep them
    # out of the collector's scans during the timed passes.
    gc.collect()
    gc.freeze()
    return workload, pool, setup_s, corpus


def _round(args, host, session, workload_cls):
    """One round of an untraced run: cold set-up, timed passes, Ray shut
    down.  Returns the workload, its pool size and the round's record."""
    workload, pool, setup_s, corpus = _set_up(args, session, workload_cls)
    passes = timed_passes(
        host, workload, pool, args.seconds / ROUNDS, MIN_PASSES_PER_ROUND,
        first_pass=1000 * args.round,
    )
    gc.unfreeze()
    session.stop()
    for p in passes:
        p["check"] = dataclasses.asdict(p["check"])
    return workload, pool, {"setup_s": setup_s, "corpus": corpus, "passes": passes}


def _child_round(args, k: int) -> dict:
    """Round ``k`` in a fresh process."""
    import subprocess

    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--round", str(k),
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # ray.init makes the round's process a process-group leader; kill
        # the group so that Ray's processes go with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            proc.kill()
        proc.communicate()
        raise RuntimeError(f"round {k} did not finish within {ROUND_TIMEOUT_S} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (err.strip().splitlines() or ["no output"])[-1]
        raise RuntimeError(f"round {k} exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def timed_passes(host, workload, pool, seconds, min_passes, on_pass=None, first_pass=0):
    """Closed loop: settle, one timed pass, check; until ``seconds`` of
    wall time have gone and at least ``min_passes`` passes have run.  A
    pass's result holds Ray object references, so it is kept only when the
    caller passes ``on_pass`` and reads it in the same Ray session."""
    passes = []
    t_start = time.perf_counter()
    while len(passes) < MAX_PASSES and (
        len(passes) < min_passes or time.perf_counter() - t_start < seconds
    ):
        n = first_pass + len(passes)
        settle_s = host.settle()
        with host.RssSampler() as rss:
            t0 = time.perf_counter()
            result = on_pass(n) if on_pass else workload.run_pass(pool)
            job_s = time.perf_counter() - t0
        check = workload.check(result, n)
        passes.append({
            "job_s": job_s,
            "docs_s": workload.docs_seconds(result, job_s),
            "settle_s": settle_s,
            "peak_rss_mb": rss.peak_mb,
            "check": check,
        })
        if on_pass:
            passes[-1]["result"] = result
        del result
    return passes


def _run(args, host, workload_cls, session, loadavg_before) -> int:
    from workloads import CheckResult

    extra: dict = {}
    if args.trace:
        import layers

        workload, pool, setup_s, corpus = _set_up(args, session, workload_cls)
        metrics, extra = layers.traced_run(
            args, host, workload, pool,
            lambda on_pass: timed_passes(
                host, workload, pool, args.seconds, MIN_TRACED_PASSES, on_pass
            ),
        )
        passes = extra.pop("passes")
        setup_times = [setup_s]
    else:
        workload, pool, first = _round(args, host, session, workload_cls)
        corpus = first["corpus"]
        rounds = [first] + [_child_round(args, k) for k in range(1, ROUNDS)]
        for r in rounds:
            if r["corpus"] != corpus:
                raise RuntimeError(f"inputs differ between rounds: {corpus} != {r['corpus']}")
        passes = [p for r in rounds for p in r["passes"]]
        for p in passes:
            p["check"] = CheckResult(**p["check"])
        setup_times = [r["setup_s"] for r in rounds]
        metrics = _end_to_end(workload, passes, setup_times)
    record = host.host_record(ROOT, args.seed)
    record["loadavg_before"] = loadavg_before

    attempted = sum(p["check"].attempted for p in passes)
    failed = sum(p["check"].failed for p in passes)
    failures: dict[str, int] = {}
    for p in passes:
        for kind, count in p["check"].failures.items():
            failures[kind] = failures.get(kind, 0) + count
    record.update(
        corpus=corpus,
        workload=workload.name,
        pool=pool,
        seconds=args.seconds,
        setup_s=setup_times,
        loadavg_after=list(os.getloadavg()),
        passes=[{k: v for k, v in p.items() if k not in ("check", "result")} for p in passes],
        failed_frac=failed / attempted,
        failures=failures,
        metrics=metrics,
        **extra,
    )
    _write_record(args, record)
    _print_report(args, workload, record, attempted, metrics)
    for p in passes:
        for note in p["check"].notes:
            print(f"  check: {note}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _end_to_end(workload, passes, setup_times) -> dict:
    jobs = [p["job_s"] for p in passes]
    # docs_per_s and html_mb_per_s divide by the seconds the documents
    # were processed in: the whole pass on the extraction workloads, the
    # two dedup queries on query_suite (see QuerySuite.docs_seconds).
    docs = [p["docs_s"] for p in passes]

    def metric(values, unit):
        return {"value": statistics.median(values), "unit": unit, "samples": len(values)}

    return {
        "setup_s": metric(setup_times, "s"),
        "job_s": metric(jobs, "s"),
        "docs_per_s": metric([workload.n_docs / d for d in docs], "1/s"),
        "html_mb_per_s": metric([workload.html_bytes / 1e6 / d for d in docs], "MB/s"),
        "peak_rss_mb": metric([p["peak_rss_mb"] for p in passes], "MB"),
    }


def _write_record(args, record: dict) -> None:
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))


def _print_report(args, workload, record, attempted, metrics) -> None:
    print(f"workload {workload.name}  seed {args.seed}  corpus {record['corpus']}")
    print(
        f"host nproc={record['nproc']} ray_num_cpus={record['ray_num_cpus']} "
        f"pool={record['pool']} load {record['loadavg_before'][0]:.2f}->"
        f"{record['loadavg_after'][0]:.2f} ray {record['ray_version']} "
        f"pyarrow {record['pyarrow_version']} git {record['git_sha'] or '-'} "
        f"src {record['engine_src_sha']}"
    )
    print(f"failed_frac {record['failed_frac']:.6f} ({workload.unit}s attempted: {attempted})")
    for kind, count in sorted(record["failures"].items()):
        print(f"docs_failed.{kind} {count}" if workload.unit == "doc" else f"failed.{kind} {count}")
    for name, m in metrics.items():
        samples = m.get("samples")
        tail = f" (n={samples})" if samples is not None else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{tail}")
    for note in record.get("notes", []):
        print(f"  layers: {note}")


if __name__ == "__main__":
    sys.exit(main())

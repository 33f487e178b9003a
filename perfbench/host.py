"""Host record, Ray session lifetime and resident-memory sampling.

Everything here reads ``/proc`` directly (psutil is not a dependency).
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import shutil
import signal
import threading
import time
from pathlib import Path

SETTLE_TIMEOUT_S = 60.0


# Ray's logical CPU count, fixed so that the load model is the same on
# every host: with one logical CPU the engine's default actor pool takes
# every CPU and its read and write tasks starve; two give a one-actor pool
# plus one read/write slot.
RAY_NUM_CPUS = 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None in
    an exported tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_sha(package: Path) -> str:
    """Content hash of the engine package's Python sources, so results
    stay attributable in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for p in sorted(package.rglob("*.py")):
        h.update(str(p.relative_to(package)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_record(root: Path, seed: int) -> dict:
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "ray_num_cpus": RAY_NUM_CPUS,
        "loadavg_before": list(os.getloadavg()),
        "git_sha": git_sha(root),
        "engine_src_sha": source_sha(root / "go_boilerpipe_ray"),
        "ray_version": ray.__version__,
        "pyarrow_version": pyarrow.__version__,
        "python_version": platform.python_version(),
        "seed": seed,
    }


def _descendants() -> set[int]:
    """Live descendant pids of this process."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as f:
                stat = f.read()
        except OSError:
            continue
        # The command name may contain spaces; fields resume after ')'.
        fields = stat[stat.rfind(b")") + 2 :].split()
        if fields[0] != b"Z":
            parent_of[int(entry)] = int(fields[1])
    out: set[int] = set()
    frontier = [os.getpid()]
    while frontier:
        pid = frontier.pop()
        for child, parent in parent_of.items():
            if parent == pid and child not in out:
                out.add(child)
                frontier.append(child)
    return out


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            cmd = f.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as f:
            for line in f:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class RssSampler:
    """Peak of the summed resident memory of this process and its Ray
    worker processes, sampled every ``interval`` seconds while active."""

    def __init__(self, interval: float = 0.1):
        self._interval = interval
        self._peak_kb = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._workers: set[int] = set()

    def _sample(self) -> None:
        total = _rss_kb(os.getpid()) + sum(_rss_kb(p) for p in self._workers)
        self._peak_kb = max(self._peak_kb, total)

    def _loop(self) -> None:
        rescan = 0
        while not self._stop.wait(self._interval):
            if rescan == 0:
                # Workers come and go with each actor pool; rescanning the
                # process table every 5 samples bounds the sampler's cost.
                self._workers = {p for p in _descendants() if _is_ray_worker(p)}
            rescan = (rescan + 1) % 5
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._workers = {p for p in _descendants() if _is_ray_worker(p)}
        self._sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def peak_mb(self) -> float:
        return self._peak_kb / 1024.0


class RaySession:
    """One local Ray cluster with the benchmark's fixed CPU count, its
    session files under ``/tmp/perfbench-<hash of the checkout path>``
    (Ray's Unix sockets live there, and a socket path may not exceed 107
    bytes, which a checkout path cannot promise), and the checkout on
    every worker's PYTHONPATH: workers do not inherit this process's
    ``sys.path``, so a run started outside the checkout would fail every
    task with ``ModuleNotFoundError``.  The path is set in the environment
    Ray's processes inherit; a job-level ``runtime_env`` does the same but
    bypasses the prestarted workers, which added 2-3 s to every set-up."""

    def __init__(self, root: Path):
        self.root = root
        key = hashlib.sha1(str(root).encode()).hexdigest()[:10]
        self.temp_dir = Path("/tmp") / f"perfbench-{key}"
        self._pids: set[int] = set()

    def start(self) -> None:
        import logging

        import ray

        self.temp_dir.mkdir(parents=True, exist_ok=True)
        paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if paths[0] != str(self.root):
            os.environ["PYTHONPATH"] = os.pathsep.join([str(self.root)] + [p for p in paths if p])
        ray.init(
            num_cpus=RAY_NUM_CPUS,
            include_dashboard=False,
            log_to_driver=False,
            logging_level=logging.WARNING,
            object_store_memory=512 << 20,
            _temp_dir=str(self.temp_dir),
        )
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)

    def stop(self, timeout: float = 5.0) -> None:
        """Shut Ray down and wait until every process it started has
        exited; stragglers are killed after ``timeout`` seconds."""
        import ray

        self._pids |= _descendants()
        if ray.is_initialized():
            # Release every object reference of this session while it is
            # alive; a reference freed after a restart reaches the next
            # session's reference counter.
            gc.collect()
            ray.shutdown()
        deadline = time.monotonic() + timeout
        while True:
            alive = {p for p in self._pids if _alive(p)}
            if not alive:
                break
            if time.monotonic() > deadline:
                for p in alive:
                    try:
                        os.kill(p, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline = time.monotonic() + 5.0
            _reap()
            time.sleep(0.05)
        self._pids.clear()

    def remove_temp_dir(self) -> None:
        shutil.rmtree(self.temp_dir, ignore_errors=True)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return False
    return stat[stat.rfind(b")") + 2 :].split()[0] != b"Z"


def _reap() -> None:
    """Collect exited children so they do not linger as zombies."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def settle() -> float:
    """Wait until the previous job's actors have released every CPU.

    Without this wait a new job can start while the last job's actor is
    still alive, and Ray then reports that the cluster has no available
    CPUs and the job stalls for seconds."""
    import ray

    gc.collect()
    t0 = time.perf_counter()
    total = ray.cluster_resources().get("CPU", 0)
    while True:
        free = ray.available_resources().get("CPU", 0)
        if free >= total:
            return time.perf_counter() - t0
        if time.perf_counter() - t0 > SETTLE_TIMEOUT_S:
            raise RuntimeError(
                f"Ray CPUs not released within {SETTLE_TIMEOUT_S:.0f} s "
                f"after the previous pass ({free} of {total} free)"
            )
        time.sleep(0.01)

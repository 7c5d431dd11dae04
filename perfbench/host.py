"""Host facts, the weather canary and the peak-RSS sampler."""

from __future__ import annotations

import hashlib
import os
import threading
import time

import numpy as np


def nproc() -> int:
    """Processing units available, as coreutils ``nproc`` counts them:
    ``OMP_NUM_THREADS`` when set, else the CPU affinity mask."""
    cpus = len(os.sched_getaffinity(0))
    try:
        return max(1, min(cpus, int(os.environ["OMP_NUM_THREADS"])))
    except (KeyError, ValueError):
        return cpus


def host_facts() -> dict:
    with open("/proc/meminfo") as f:
        kb = int(next(ln for ln in f if ln.startswith("MemTotal:")).split()[1])
    return {"nproc": nproc(), "cpus_online": len(os.sched_getaffinity(0)),
            "ram_gb": round(kb / 2**20, 1)}


def canary_ms() -> float:
    """A fixed in-process kernel (sha256 over 8 MiB, a 500k-float sort),
    best of three — a diagnostic of how fast the host runs right now,
    timed before and after every run."""
    data = np.random.default_rng(7).random(500_000)
    blob = data.tobytes() * 2
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        hashlib.sha256(blob).hexdigest()
        np.sort(data, kind="quicksort")
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def _procs() -> dict[int, tuple[int, str]]:
    """pid → (parent pid, command line) of every visible process."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
            with open(f"/proc/{d}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        out[int(d)] = (ppid, cmd)
    return out


def _rss_bytes(pid: int) -> int:
    """Resident memory of one process without its shared-memory pages
    (``RssAnon + RssFile``): Ray's object store is shared memory mapped
    into every process that reads an object, so plain RSS would count
    the same object once per reader."""
    try:
        with open(f"/proc/{pid}/status") as f:
            kb = sum(int(ln.split()[1]) for ln in f
                     if ln.startswith(("RssAnon:", "RssFile:")))
        return kb * 1024
    except OSError:
        return 0


class RssSampler:
    """Samples the summed resident memory (:func:`_rss_bytes`) of this
    process plus its Ray worker processes (descendants running Ray's
    ``default_worker.py``) in a background thread; ``peak_mb`` is the largest sum since the last
    :meth:`reset`."""

    def __init__(self, interval_s: float = 0.25):
        self._interval = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="rss-sampler")
        self.peak_mb = 0.0

    def _sample(self) -> float:
        me = os.getpid()
        procs = _procs()
        kids: dict[int, list[int]] = {}
        for pid, (ppid, _) in procs.items():
            kids.setdefault(ppid, []).append(pid)
        total, todo = _rss_bytes(me), list(kids.get(me, []))
        while todo:
            pid = todo.pop()
            todo += kids.get(pid, [])
            if "default_worker.py" in procs[pid][1]:
                total += _rss_bytes(pid)
        return total / 2**20

    def reset(self) -> None:
        self.peak_mb = self._sample()

    def _loop(self) -> None:
        while not self._stop.is_set():
            self.peak_mb = max(self.peak_mb, self._sample())
            self._stop.wait(self._interval)

    def __enter__(self) -> "RssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self.peak_mb = max(self.peak_mb, self._sample())

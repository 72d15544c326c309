"""Statistics, host record, probe loop and process accounting.

Everything here is pure bookkeeping with no dependency on ``repro``, so
the benchmark's own tests exercise it without building a cluster.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import os
import platform
import queue
import resource
import subprocess
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond its rank (so p95 needs >= 200 samples, p50 >= 20).
MIN_BEYOND = 10

#: Probe wall time a normalised metric is scaled to: a normalised time
#: reads "milliseconds on a host whose probe takes PROBE_REF_MS".
PROBE_REF_MS = 5.0


# -- percentiles --------------------------------------------------------------

def min_samples(p: float) -> int:
    """Smallest sample count holding MIN_BEYOND samples beyond the
    ``p``-th percentile (p in percent)."""
    return math.ceil(MIN_BEYOND / (1.0 - p / 100.0) - 1e-9)


def percentile(values: Sequence[float], p: float) -> Optional[float]:
    """Nearest-rank percentile, or None when the sample is too small
    for MIN_BEYOND samples to lie beyond it."""
    n = len(values)
    if n < min_samples(p):
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of an empty sample")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


# -- probe normalisation ------------------------------------------------------

def probe_scale(probe_before_ms: float, probe_after_ms: float) -> float:
    """Factor that rescales a time measured between two probes to a host
    whose probe takes PROBE_REF_MS (a rate is divided by it)."""
    return PROBE_REF_MS / (0.5 * (probe_before_ms + probe_after_ms))


def probe_loop() -> int:
    """Fixed work, the benchmark's yardstick for host speed: an
    interpreter-bound loop and a numpy pass over a 256 KiB vector, about
    the mix a serving request runs.

    It touches no ``repro`` code, so a change to the program cannot
    change what it measures; only the host (and any CPU the program
    burns while idle) can.
    """
    acc = 0
    for i in range(30_000):
        acc = (acc * 31 + i) & 0xFFFF
    v = np.arange(65_536, dtype=np.float32)
    for _ in range(60):
        v = v * np.float32(1.0001) + np.float32(0.5)
    return acc + int(v[0])


def handoff_ms(round_trips: int = 300) -> float:
    """Wall time of ``round_trips`` hand-offs between two threads over
    queues: the host's thread wake-up cost, which the serving path pays
    on every request and :func:`probe_loop` cannot see (see
    ``wakeup-regime`` in README.md)."""
    ping, pong = queue.SimpleQueue(), queue.SimpleQueue()

    def echo():
        for _ in range(round_trips):
            pong.put(ping.get())

    peer = threading.Thread(target=echo)
    peer.start()
    t0 = time.perf_counter()
    for i in range(round_trips):
        ping.put(i)
        pong.get()
    elapsed = time.perf_counter() - t0
    peer.join()
    return elapsed * 1e3


class Probe:
    """Runs :func:`probe_loop` between blocks and keeps the timings.

    ``thread_ms`` (the probe thread's own CPU time) is the normaliser:
    a slower host stretches it, but a program that keeps other threads
    busy while idle does not, so such a program gains nothing from
    normalisation.  It shows instead in ``cpu_util``, the CPU the whole
    process tree used during the probe windows per second of probe wall
    time: the probe alone uses ~1.0.  ``handoff`` records
    :func:`handoff_ms` once per gap, outside that window, as a diagnostic.
    """

    def __init__(self, children=None) -> None:
        self.handoff: List[float] = []
        self.wall_ms: List[float] = []
        self.thread_ms: List[float] = []
        #: median thread ms of each :meth:`run` (one per idle gap).
        self.gaps: List[float] = []
        self._cpu_s = 0.0
        self._wall_s = 0.0
        self._children = children or (lambda: [])

    def run(self, times: int = 3) -> float:
        """Probe ``times`` times; returns this gap's median thread ms."""
        pids = self._children()
        cpu0 = tree_cpu_s(pids)
        t0 = time.perf_counter()
        for _ in range(times):
            t, c = time.perf_counter(), time.thread_time()
            probe_loop()
            self.wall_ms.append((time.perf_counter() - t) * 1e3)
            self.thread_ms.append((time.thread_time() - c) * 1e3)
        self._wall_s += time.perf_counter() - t0
        self._cpu_s += tree_cpu_s(pids) - cpu0
        self.gaps.append(median(self.thread_ms[-times:]))
        self.handoff.append(handoff_ms())
        return self.gaps[-1]

    @property
    def median_ms(self) -> float:
        return median(self.thread_ms)

    @property
    def cpu_util(self) -> float:
        return self._cpu_s / self._wall_s if self._wall_s else 0.0


# -- process accounting -------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def process_cpu_s() -> float:
    """User + system CPU of this process (all threads), ns resolution."""
    return time.process_time()


def live_children() -> List[int]:
    """PIDs of this process's live multiprocessing children."""
    return [p.pid for p in multiprocessing.active_children()
            if p.pid is not None]


def _proc_file(pid: int, name: str) -> Optional[str]:
    try:
        with open(f"/proc/{pid}/{name}") as fh:
            return fh.read()
    except OSError:  # the child exited between listing and reading
        return None


def parse_stat_cpu_ticks(stat: str) -> int:
    """utime + stime from a ``/proc/<pid>/stat`` line.  The command name
    (field 2) may hold spaces, so fields are counted after its ')'."""
    fields = stat[stat.rindex(")") + 2:].split()
    # fields[0] is field 3 (state); utime/stime are fields 14 and 15.
    return int(fields[11]) + int(fields[12])


def parse_status_hwm_kb(status: str) -> int:
    """Peak resident set (VmHWM) in KiB from ``/proc/<pid>/status``."""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def children_cpu_s(pids: Iterable[int]) -> float:
    """CPU used so far by live child processes."""
    ticks = 0
    for pid in pids:
        stat = _proc_file(pid, "stat")
        if stat is not None:
            ticks += parse_stat_cpu_ticks(stat)
    return ticks / _CLK_TCK


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Peak resident memory of this process plus its live children."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        status = _proc_file(pid, "status")
        if status is not None:
            kb += parse_status_hwm_kb(status)
    return kb / 1024.0


def tree_cpu_s(pids: Iterable[int]) -> float:
    """CPU used so far by this process plus the given live children."""
    return process_cpu_s() + children_cpu_s(pids)


# -- determinism signatures ---------------------------------------------------

def signature(workload: str, params: Dict, kernel_sim_us: float,
              dram_bytes: int) -> tuple:
    """What must repeat bit for bit for the same request."""
    return (workload, tuple(sorted(params.items())), kernel_sim_us,
            dram_bytes)


def signature_mismatches(a: Dict[int, tuple], b: Dict[int, tuple]) -> List[int]:
    """Request indices present in both maps whose signatures differ."""
    return sorted(i for i in a.keys() & b.keys() if a[i] != b[i])


# -- host record --------------------------------------------------------------

def source_digest(src_dir: str) -> str:
    """Content hash of every Python file under ``src_dir``."""
    h = hashlib.sha256()
    for base, dirs, files in os.walk(src_dir):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def host_record(root: str, src_digest: str) -> Dict[str, str]:
    import numpy
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(root),
        "src_digest": src_digest,
    }

"""The four workloads: seeded request streams and the loops that drive them.

Every workload talks to the public serving API only (``ServeCluster`` /
``ShardedCluster`` ``submit`` and the returned ``Request``), from one
client thread, in a closed loop.  Clusters run in their shipped
defaults; only sizes and device counts are set here.

A stream is cut into *blocks* that hold each menu entry exactly
``weight`` times in a seeded order, so every run serves the menu in
exact proportion.  Request ``i`` is fully determined by ``(seed, i)``:
its kernel, its shape and the seed of its input data.
"""

from __future__ import annotations

import collections
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: How long the client waits on one request before calling it hung.
WAIT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Entry:
    """One menu item: a registered serve workload at a fixed shape."""

    workload: str
    params: Tuple[Tuple[str, int], ...]
    weight: int = 1


@dataclass(frozen=True)
class Spec:
    """A benchmark workload."""

    name: str
    why: str
    menu: Tuple[Entry, ...]
    #: "warm": one long-lived cluster, K requests outstanding.
    #: "cold": a fresh cluster per round, one bring-up at a time.
    kind: str
    #: an operation slower than this counts as a miss in goodput_rps.
    limit_ms: float
    #: stream blocks per measured segment (cold: one round per segment).
    segment_blocks: int
    #: requests whose mean kernel_sim_us is sim_us_per_req.
    sim_prefix: int
    devices: int = 2
    outstanding: int = 1
    shards: int = 0

    @property
    def block_size(self) -> int:
        return sum(e.weight for e in self.menu)

    @property
    def segment_size(self) -> int:
        """Requests per segment (cold: operations per round)."""
        return self.segment_blocks * self.block_size


def _e(workload: str, weight: int = 1, **params: int) -> Entry:
    return Entry(workload, tuple(sorted(params.items())), weight)


# Weights keep p50 and p95 off every boundary between request classes:
# no subset of a menu's weights sums to within 4% (in rank) of half the
# block, and none to within 4% of 95% of it.
SMALL_MENU = (
    _e("saxpy", 3, n=256),
    _e("scale", 2, n=512),
    _e("blur", 2, blocks_x=2, blocks_y=2),
    _e("sgemm", 2, m=16, n=16, k=8),
)

SPECS: Dict[str, Spec] = {s.name: s for s in (
    Spec("small",
         "small kernels on 2 warm devices, 8 outstanding: queue, batcher, "
         "worker threads and bind/finish dominate",
         SMALL_MENU, kind="warm", limit_ms=50.0, segment_blocks=40,
         sim_prefix=1000, devices=2, outstanding=8),
    Spec("heavy",
         "large kernels on 2 warm devices, 4 outstanding: the JIT and wide "
         "execution tiers dominate",
         (_e("sgemm", 3, m=64, n=64, k=16),
          _e("blur", 2, blocks_x=16, blocks_y=16),
          _e("saxpy", 2, n=16384),
          _e("bitonic_cf", 2, n=512),
          _e("kmeans_cf", 2, n=256)),
         kind="warm", limit_ms=500.0, segment_blocks=4, sim_prefix=221,
         devices=2, outstanding=4),
    Spec("cold",
         "fresh 1-device cluster per round, each kernel brought up once: "
         "compiler, sanitized first launch and JIT build dominate",
         (_e("saxpy", n=2048),
          _e("scale", n=2048),
          _e("blur", blocks_x=8, blocks_y=8),
          _e("sgemm", m=32, n=32, k=8),
          _e("sgemm", m=16, n=16, k=16),
          _e("kmeans_cf", n=64),
          _e("bitonic_cf", n=64)),
         kind="cold", limit_ms=500.0, segment_blocks=1, sim_prefix=99,
         devices=1),
    Spec("sharded",
         "the small stream on 2 forked shards of 1 device: the only "
         "workload that crosses the shard IPC layer",
         SMALL_MENU, kind="warm", limit_ms=50.0, segment_blocks=40,
         sim_prefix=1000, devices=1, outstanding=8, shards=2),
)}


# -- streams ------------------------------------------------------------------

def block_order(spec: Spec, seed: int, block: int) -> List[int]:
    """Menu indices of one block: each entry ``weight`` times, shuffled
    by ``(seed, block)`` (string seeding is stable across processes)."""
    order = [i for i, e in enumerate(spec.menu) for _ in range(e.weight)]
    random.Random(f"{seed}/{block}").shuffle(order)
    return order


def data_seed(seed: int, index: int) -> int:
    """Input-data seed of request ``index`` (non-negative, as numpy
    generators require, also for the negative warm-up indices)."""
    return (seed * 1_000_003 + index) % 2**31


class Stream:
    """The seeded request stream of one workload."""

    def __init__(self, spec: Spec, seed: int) -> None:
        self.spec = spec
        self.seed = seed
        self._blocks: Dict[int, List[int]] = {}

    def entry(self, index: int) -> Entry:
        block, pos = divmod(index, self.spec.block_size)
        order = self._blocks.get(block)
        if order is None:
            order = self._blocks[block] = block_order(self.spec, self.seed,
                                                      block)
        return self.spec.menu[order[pos]]

    def request(self, index: int) -> Tuple[str, Dict[str, int]]:
        entry = self.entry(index)
        params = dict(entry.params)
        params["seed"] = data_seed(self.seed, index)
        return entry.workload, params


# -- what a run records -------------------------------------------------------

@dataclass
class Sent:
    """One request as the client saw it."""

    index: int
    workload: str
    params: Dict[str, int]
    #: when a closed-loop client would have sent it (perf_counter s).
    due: float
    t_submit0: float
    t_submit1: float
    request: Any = None        # repro.serve.Request; None when refused
    refused: bool = False

    @property
    def ok(self) -> bool:
        return (self.request is not None
                and self.request.status.value == "done")

    @property
    def error(self) -> Optional[str]:
        return "refused" if self.refused else self.request.error


@dataclass
class Op:
    """One measured operation: a request (warm) or a bring-up (cold)."""

    sent: List[Sent]

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sent)

    @property
    def refused(self) -> bool:
        return any(s.refused for s in self.sent)

    @property
    def latency_s(self) -> float:
        return self.sent[-1].request.t_done_wall - self.sent[0].due


@dataclass
class Segment:
    ops: List[Op] = field(default_factory=list)
    wall_s: float = 0.0


def _submit(cluster, backpressure, index: int, workload: str,
            params: Dict[str, int], due: float) -> Sent:
    t0 = time.perf_counter()
    try:
        req = cluster.submit(workload, params)
    except backpressure:
        t1 = time.perf_counter()
        return Sent(index, workload, params, due, t0, t1, refused=True)
    return Sent(index, workload, params, due, t0, time.perf_counter(), req)


def _await(sent: Sent) -> None:
    if sent.request is not None and not sent.request.wait(WAIT_TIMEOUT_S):
        raise RuntimeError(f"request {sent.index} ({sent.workload}) hung "
                           f"for {WAIT_TIMEOUT_S:.0f} s")


def _is_first_time_work(req) -> bool:
    """Did this request pay a compile, sanitize or JIT build?"""
    return bool(req.cache_misses or req.sanitized_launches
                or (req.trace is not None and req.trace.find("jit:compile")))


# -- harnesses ----------------------------------------------------------------

class WarmHarness:
    """One long-lived cluster, driven closed-loop with K outstanding."""

    def __init__(self, spec: Spec, stream: Stream) -> None:
        from repro.serve import Backpressure, ServeCluster, ShardedCluster
        self.spec = spec
        self.stream = stream
        self._backpressure = Backpressure
        if spec.shards:
            self.cluster = ShardedCluster(shards=spec.shards,
                                          devices_per_shard=spec.devices)
        else:
            self.cluster = ServeCluster(num_devices=spec.devices)
        self.cluster.start()

    @property
    def total_devices(self) -> int:
        return self.spec.devices * max(1, self.spec.shards)

    def warm(self, max_passes: int = 6) -> None:
        """Serve every menu entry until a whole pass, enough requests
        to visit every device twice, pays no first-time work."""
        j = 0
        for _ in range(max_passes):
            clean = True
            for entry in self.spec.menu:
                for _ in range(2 * self.total_devices):
                    params = dict(entry.params, seed=10**9 + j)
                    j += 1
                    sent = _submit(self.cluster, self._backpressure, -j,
                                   entry.workload, params,
                                   time.perf_counter())
                    _await(sent)
                    if not sent.ok:
                        raise RuntimeError(f"warm-up {entry.workload} "
                                           f"failed: {sent.error}")
                    clean = clean and not _is_first_time_work(sent.request)
            if clean:
                return
        raise RuntimeError(f"{self.spec.name}: kernels still paid "
                           f"first-time work after {max_passes} passes")

    def children(self) -> List[int]:
        from measure import live_children
        return live_children() if self.spec.shards else []

    def segment(self, k: int, on_cluster: Optional[Callable] = None
                ) -> Segment:
        """Serve segment ``k`` (its ``segment_size`` stream requests)
        with K outstanding; returns once every one of them finished, so
        the cluster is idle between segments.  ``on_cluster`` is called
        with the cluster first, unless its devices live in shard
        processes."""
        cluster, bp = self.cluster, self._backpressure
        if on_cluster is not None and not self.spec.shards:
            on_cluster(cluster)
        seg = Segment()
        count = self.spec.segment_size
        nxt = k * count
        end = nxt + count
        pending: collections.deque = collections.deque()
        freed: List[float] = []
        t0 = time.perf_counter()

        def send(due: float) -> None:
            nonlocal nxt
            workload, params = self.stream.request(nxt)
            sent = _submit(cluster, bp, nxt, workload, params, due)
            nxt += 1
            if sent.refused:
                seg.ops.append(Op([sent]))
                freed.append(sent.t_submit1)
            else:
                pending.append(sent)

        for _ in range(min(self.spec.outstanding, count)):
            send(t0)
        while pending or freed:
            while freed and nxt < end:
                send(freed.pop(0))
            freed.clear()
            if not pending:
                continue
            _await(pending[0])
            still = collections.deque()
            done = []
            for sent in pending:
                (done if sent.request.done_event.is_set()
                 else still).append(sent)
            pending = still
            for sent in sorted(done, key=lambda s: s.request.t_done_wall):
                seg.ops.append(Op([sent]))
                freed.append(sent.request.t_done_wall)
        seg.wall_s = time.perf_counter() - t0
        return seg

    def close(self) -> None:
        self.cluster.shutdown()


class ColdHarness:
    """Rounds of bring-ups, each round on a fresh 1-device cluster."""

    def __init__(self, spec: Spec, stream: Stream) -> None:
        from repro.serve import Backpressure, ServeCluster
        self.spec = spec
        self.stream = stream
        self._backpressure = Backpressure
        self._cluster_cls = ServeCluster

    def warm(self) -> None:
        """One unmeasured round, so lazy imports and memoised kernel
        bodies are paid in set-up, not by the first measured round."""
        seg = self.segment(-1)
        for op in seg.ops:
            for sent in op.sent:
                if not sent.ok:
                    raise RuntimeError(f"cold warm-up {sent.workload} "
                                       f"failed: {sent.error}")

    def children(self) -> List[int]:
        return []

    def segment(self, k: int, on_cluster: Optional[Callable] = None
                ) -> Segment:
        """Round ``k``: bring up every menu kernel once on a fresh
        cluster (passed to ``on_cluster`` first), sending it twice back
        to back.  A negative round uses stream indices that no measured
        round shares."""
        seg = Segment()
        n = self.spec.block_size
        t0 = time.perf_counter()
        cluster = self._cluster_cls(num_devices=self.spec.devices).start()
        if on_cluster is not None:
            on_cluster(cluster)
        try:
            due = time.perf_counter()
            for j in range(n):
                op_index = k * n + j
                workload, params = self.stream.request(op_index)
                sent = []
                for half in (0, 1):
                    idx = 2 * op_index + half
                    p = dict(params, seed=data_seed(self.stream.seed, idx))
                    s = _submit(cluster, self._backpressure, idx, workload,
                                p, due)
                    sent.append(s)
                    if s.refused:
                        break
                    _await(s)
                    due = s.request.t_done_wall
                seg.ops.append(Op(sent))
        finally:
            cluster.shutdown()
        seg.wall_s = time.perf_counter() - t0
        return seg

    def close(self) -> None:
        pass


def make_harness(spec: Spec, stream: Stream):
    return (ColdHarness if spec.kind == "cold" else WarmHarness)(spec, stream)

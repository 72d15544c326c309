"""Multi-process sharded serving: N worker processes, one front door.

:class:`ServeCluster` runs all of its devices on one serving thread —
compiled-kernel serving is Python-bound, so a single process uses one
core however many simulated devices it holds.  The
:class:`ShardedCluster` spreads the work across cores::

    submit() -> PriorityLaneQueue -> router thread -> shard 0..N-1
                 (lanes + EDF +        (affinity        (one process,
                  backpressure)         routing)         own ServeCluster)

- Each **shard** is a real OS process running its own inner
  :class:`~repro.serve.cluster.ServeCluster` — its own Device set,
  kernel/verdict caches, dynamic batcher, and sanitizer state.  Shards
  never share a GIL, so throughput scales with shard count.
- The **control plane** is pickle-cheap: :class:`SubmitMsg` /
  :class:`CompleteMsg` dataclasses over per-shard
  ``multiprocessing.Queue`` pairs (a dedicated outbox per shard, so a
  shard dying mid-write can never wedge a queue another shard shares).
- The **data plane** is out of band: request payload arrays ride a
  :class:`~repro.serve.pool.SurfacePool` shared-memory slab, mapped
  zero-copy into numpy on both sides; only a few-dozen-byte
  :class:`~repro.serve.pool.PayloadRef` crosses the pipe.
- **Priority lanes**: the front door is a
  :class:`~repro.serve.lanes.PriorityLaneQueue` (interactive drains
  strictly before batch, EDF within a lane), and each inner cluster
  runs one too, so lane ordering holds end to end.  Deadlines default
  from the parent's SLO targets.
- **Cache-affinity routing**: requests hash to shards by kernel
  identity (workload + shape parameters, data seed excluded), so a
  repeated kernel always lands where its compile cache is warm.
- **Autoscaling**: a monitor thread samples backlog and SLO burn rate
  into an :class:`~repro.serve.autoscale.Autoscaler`; scale-up forks a
  new shard, scale-down *drains* one (stop routing, wait for its
  in-flight work, then stop it) — no request is dropped by scaling.
- **Death recovery**: the monitor detects a dead shard process and
  requeues its in-flight requests to survivors.  A completed-ID set
  makes completion idempotent, so a request whose completion raced the
  death is never double-completed, and ``Request.requeues`` bounds
  retries.

Observability crosses the boundary: workers mint trace IDs under a
per-shard scope (:func:`~repro.obs.request.set_trace_scope`), ship
their span trees in each completion, and the parent grafts them under
a ``shard`` span in its own trace (:meth:`~repro.obs.request.
RequestTrace.graft`) — so the flight recorder, SLO tracker, and
``report()`` keep working as if the cluster were one process.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing as mp
import os
import queue as _stdqueue
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs import get_observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import DumpReason, FlightRecorder
from repro.obs.request import RequestTrace, mint_trace_id, set_trace_scope
from repro.obs.slo import SLOTracker
from repro.obs.tracing import get_tracer
from repro.sim.machine import GEN11_ICL, MachineConfig

from repro.serve.autoscale import AutoscalePolicy, Autoscaler
from repro.serve.cluster import ServeCluster
from repro.serve.lanes import PriorityLaneQueue, normalize_lane
from repro.serve.pool import PayloadRef, SurfacePool
from repro.serve.request import Request, RequestStatus, percentiles

#: Control-plane sentinels (strings survive pickling; object identity
#: would not).
_STOP = "__stop__"
_SNAPSHOT = "__snapshot__"
_BYE = "__bye__"

#: Start method: fork is cheap and keeps MachineConfig / registry state
#: without re-import; spawn is the portable fallback.
_CTX = mp.get_context(
    "fork" if "fork" in mp.get_all_start_methods() else "spawn")


@dataclass(frozen=True)
class ShardConfig:
    """What every shard worker process builds its inner cluster from."""

    devices_per_shard: int = 2
    policy: str = "cache-affinity"
    batching: bool = True
    max_batch: int = 8
    queue_capacity: int = 512
    validate: str = "first"
    #: inner clusters order their own queues by lane + deadline too.
    lanes: bool = True
    #: serialize each request's span tree into its completion message
    #: (cheap to turn off for raw-throughput runs).
    ship_traces: bool = True
    machine: MachineConfig = GEN11_ICL
    #: tuned-variant registry (TunedRegistry) handed to the inner
    #: cluster, so each shard serves its own machine's tuned winners.
    tuned: Any = None


@dataclass
class SubmitMsg:
    """Parent -> shard: one request, payload carried by reference."""

    origin_id: int
    workload: str
    params: Dict[str, Any]
    lane: str = "interactive"
    #: deadline as *remaining* milliseconds at route time (absolute
    #: wall stamps do not survive a process boundary).
    deadline_ms: Optional[float] = None
    arrival_sim_us: Optional[float] = None
    payload_ref: Optional[PayloadRef] = None
    #: pickle fallback when the pool had no slot for the payload.
    payload_arrays: Optional[Dict[str, Any]] = None


@dataclass
class CompleteMsg:
    """Shard -> parent: one finished request, traces included."""

    shard: int
    origin_id: int
    status: str
    error: Optional[str] = None
    result: Any = None
    kernel_sim_us: float = 0.0
    overhead_sim_us: float = 0.0
    dram_bytes: int = 0
    launches: int = 0
    tier: Optional[str] = None
    #: tuned-variant label the serving device resolved (tuned requests).
    variant: Optional[str] = None
    cache_hits: int = 0
    cache_misses: int = 0
    device_index: Optional[int] = None
    batch_id: Optional[int] = None
    batch_size: int = 1
    #: worker-side queue wait, in the worker's own wall clock.
    wait_wall_s: float = 0.0
    sanitized_launches: int = 0
    sanitize_findings: List[str] = field(default_factory=list)
    #: the worker's RequestTrace.to_dict() form, when shipped.
    trace: Optional[Dict[str, Any]] = None
    #: pickle-fallback output arrays (shared-memory payloads return
    #: through the pool pages instead).
    payload_out: Optional[Dict[str, Any]] = None
    #: (kernel name, RaceVerdict) pairs this shard's sanitized launches
    #: produced since the last completion; the parent rebroadcasts them
    #: so a kernel sanitized once is wide-admitted on every shard.
    race_verdicts: List[Tuple[str, Any]] = field(default_factory=list)


@dataclass
class VerdictMsg:
    """Parent -> shard: adopt race verdicts sanitized elsewhere."""

    verdicts: List[Tuple[str, Any]] = field(default_factory=list)


@dataclass
class SnapshotMsg:
    """Shard -> parent: periodic inner-cluster report + identity."""

    shard: int
    pid: int
    report: Dict[str, Any]


def _shard_main(shard_index: int, cfg: ShardConfig, inbox, outbox,
                pool_name: Optional[str], pool_slots: int,
                pool_slot_bytes: int) -> None:
    """Worker-process entry: run one inner cluster off the inbox."""
    set_trace_scope(f"s{shard_index}")
    pool = SurfacePool.attach(pool_name, pool_slots, pool_slot_bytes) \
        if pool_name else None
    cluster = ServeCluster(
        num_devices=cfg.devices_per_shard, machine=cfg.machine,
        tuned=cfg.tuned,
        policy=cfg.policy, batching=cfg.batching, max_batch=cfg.max_batch,
        queue_capacity=cfg.queue_capacity, validate=cfg.validate,
        lanes=cfg.lanes, slo=None, recorder=cfg.ship_traces)

    def ship(req: Request) -> None:
        trace_dict = None
        if cfg.ship_traces and req.trace is not None:
            trace_dict = req.trace.to_dict()
        payload_out = None
        if req.params.get("_payload_pickled"):
            payload = req.params.get("_payload")
            if payload:
                payload_out = {k: np.asarray(v) for k, v in payload.items()}
        outbox.put(CompleteMsg(
            shard=shard_index,
            origin_id=req.params.get("_origin_id", req.id),
            status=req.status.value, error=req.error, result=req.result,
            kernel_sim_us=req.kernel_sim_us,
            overhead_sim_us=req.overhead_sim_us,
            dram_bytes=req.dram_bytes, launches=req.launches,
            tier=req.tier, variant=req.variant, cache_hits=req.cache_hits,
            cache_misses=req.cache_misses, device_index=req.device_index,
            batch_id=req.batch_id, batch_size=req.batch_size,
            wait_wall_s=req.wait_wall_s,
            sanitized_launches=req.sanitized_launches,
            sanitize_findings=list(req.sanitize_findings),
            trace=trace_dict, payload_out=payload_out,
            race_verdicts=cluster.drain_race_verdicts()))

    cluster.on_complete = ship
    cluster.start()
    try:
        while True:
            item = inbox.get()
            if item == _STOP:
                break
            if item == _SNAPSHOT:
                outbox.put(SnapshotMsg(shard_index, os.getpid(),
                                       cluster.report()))
                continue
            if isinstance(item, VerdictMsg):
                cluster.adopt_race_verdicts(item.verdicts)
                continue
            for sub in item:
                params = dict(sub.params)
                params["_origin_id"] = sub.origin_id
                if sub.payload_ref is not None and pool is not None:
                    params["_payload"] = pool.map(sub.payload_ref)
                elif sub.payload_arrays is not None:
                    params["_payload"] = sub.payload_arrays
                    params["_payload_pickled"] = True
                try:
                    cluster.submit(sub.workload, params, lane=sub.lane,
                                   deadline_ms=sub.deadline_ms,
                                   arrival_sim_us=sub.arrival_sim_us,
                                   block=True)
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    outbox.put(CompleteMsg(
                        shard=shard_index, origin_id=sub.origin_id,
                        status=RequestStatus.FAILED.value,
                        error=f"{type(exc).__name__}: {exc}"))
        cluster.drain(timeout=60.0)
    finally:
        cluster.shutdown()
        try:
            outbox.put(SnapshotMsg(shard_index, os.getpid(),
                                   cluster.report()))
            outbox.put(_BYE)
        except Exception:  # noqa: BLE001 - parent may already be gone
            pass
        if pool is not None:
            pool.close()


class _Shard:
    """Parent-side handle for one worker process."""

    def __init__(self, index: int, proc, inbox, outbox) -> None:
        self.index = index
        self.proc = proc
        self.inbox = inbox
        self.outbox = outbox
        self.pump: Optional[threading.Thread] = None
        #: no longer routed to (scale-down or death).
        self.draining = False
        #: got the worker's _BYE (clean exit).
        self.bye = False
        #: terminally gone (dead or cleanly stopped).
        self.stopped = False
        self.stop_sent = False
        self.requests_done = 0
        self.routed = 0
        self.last_snapshot: Optional[SnapshotMsg] = None
        #: name of the MachineConfig this shard's devices simulate.
        self.machine_name: Optional[str] = None

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    def state(self) -> str:
        if self.stopped:
            return "dead" if not self.bye else "stopped"
        if self.draining:
            return "draining"
        return "active"


class ShardedCluster:
    """N shard processes behind one lane-aware, autoscaled front door."""

    def __init__(self, shards: int = 2,
                 devices_per_shard: int = 2,
                 machine=GEN11_ICL,
                 tuned=None,
                 policy: str = "cache-affinity",
                 routing: str = "affinity",
                 batching: bool = True,
                 max_batch: int = 8,
                 queue_capacity: int = 1024,
                 high_watermark: Optional[int] = None,
                 shard_queue_capacity: int = 512,
                 validate: str = "first",
                 ship_traces: bool = True,
                 slo=None,
                 recorder=True,
                 recorder_capacity: int = 512,
                 dump_dir: Optional[str] = None,
                 autoscale: Optional[AutoscalePolicy] = None,
                 pool_slots: int = 64,
                 pool_slot_bytes: int = 1 << 16,
                 max_requeues: int = 2,
                 route_window: int = 64,
                 shard_inflight: Optional[int] = None) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if routing not in ("affinity", "round-robin"):
            raise ValueError("routing must be 'affinity' or 'round-robin'")
        self.routing = routing
        self.max_requeues = max_requeues
        self.route_window = route_window
        #: per-shard forwarded-but-incomplete cap.  Once a shard has
        #: this much in flight the router stops draining the front
        #: door, so under overload the backlog waits in the parent's
        #: PriorityLaneQueue — where interactive preempts batch and EDF
        #: acts — instead of in a FIFO process pipe where nothing can
        #: reorder it.  Large enough to keep every device busy through
        #: a full dispatch window.
        self.shard_inflight = shard_inflight if shard_inflight is not None \
            else max(16, 2 * devices_per_shard * max_batch)
        self.initial_shards = shards
        #: a sequence of MachineConfigs stripes generations across
        #: shards (shard i gets machines[i % len]) — a heterogeneous
        #: fleet behind one front door.
        self.machines: List[MachineConfig] = list(machine) \
            if isinstance(machine, (list, tuple)) else [machine]
        if not self.machines:
            raise ValueError("machine sequence must be non-empty")
        if isinstance(tuned, str):
            from repro.tune.registry import TunedRegistry
            tuned = TunedRegistry.load(tuned)
        self.tuned = tuned
        self.cfg = ShardConfig(
            devices_per_shard=devices_per_shard, policy=policy,
            batching=batching, max_batch=max_batch,
            queue_capacity=shard_queue_capacity, validate=validate,
            ship_traces=ship_traces, machine=self.machines[0],
            tuned=tuned)
        self.obs = get_observability()
        self.registry: MetricsRegistry = (
            self.obs.registry if self.obs.enabled else MetricsRegistry())
        self.queue = PriorityLaneQueue(capacity=queue_capacity,
                                       high_watermark=high_watermark,
                                       registry=self.registry)
        if isinstance(slo, SLOTracker):
            self.slo: Optional[SLOTracker] = slo
        elif slo:
            self.slo = SLOTracker(slo, registry=self.registry)
        else:
            self.slo = None
        if isinstance(recorder, FlightRecorder):
            self.recorder: Optional[FlightRecorder] = recorder
        elif recorder:
            self.recorder = FlightRecorder(capacity=recorder_capacity,
                                           dump_dir=dump_dir,
                                           registry=self.registry)
        else:
            self.recorder = None
        self.pool = SurfacePool(slots=pool_slots, slot_bytes=pool_slot_bytes)
        self.autoscaler = Autoscaler(autoscale) if autoscale else None

        self._shards: Dict[int, _Shard] = {}
        self._shards_lock = threading.RLock()
        self._shard_ids = itertools.count()
        self._rr = itertools.count()
        #: origin_id -> (request, its SubmitMsg, shard it was routed to).
        self._inflight: Dict[int, Tuple[Request, SubmitMsg, int]] = {}
        self._completed_ids: set = set()
        self._state_lock = threading.Lock()
        self.completed: List[Request] = []
        self._completed_lock = threading.Lock()
        self._outstanding = 0
        self._done_cv = threading.Condition()
        #: kernel name -> RaceVerdict: every verdict any shard has
        #: produced (first one sticks — the sanitize is deterministic).
        #: Rebroadcast to live shards on arrival; new shards get the
        #: full set at spawn, so scale-up never re-sanitizes a kernel.
        self._verdicts: Dict[str, Any] = {}
        self._verdicts_lock = threading.Lock()
        #: control-plane accounting (report "control" section).
        self.duplicates_dropped = 0
        self.requeued = 0
        self.shard_deaths = 0
        self.verdicts_broadcast = 0

        self._router = threading.Thread(target=self._route_loop,
                                        name="shard-router", daemon=True)
        self._monitor = threading.Thread(target=self._monitor_loop,
                                         name="shard-monitor", daemon=True)
        self._stop_event = threading.Event()
        self._started = False
        self._stopped = False
        self._t_start = time.perf_counter()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardedCluster":
        if self._started:
            return self
        self._started = True
        self._t_start = time.perf_counter()
        for _ in range(self.initial_shards):
            self._spawn_shard()
        self._router.start()
        self._monitor.start()
        return self

    def __enter__(self) -> "ShardedCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _spawn_shard(self) -> _Shard:
        index = next(self._shard_ids)
        inbox = _CTX.Queue()
        outbox = _CTX.Queue()
        machine = self.machines[index % len(self.machines)]
        cfg = self.cfg if machine is self.cfg.machine \
            else dataclasses.replace(self.cfg, machine=machine)
        proc = _CTX.Process(
            target=_shard_main,
            args=(index, cfg, inbox, outbox, self.pool.name,
                  self.pool.slots, self.pool.slot_bytes),
            name=f"serve-shard{index}", daemon=True)
        proc.start()
        shard = _Shard(index, proc, inbox, outbox)
        shard.machine_name = machine.name
        shard.pump = threading.Thread(target=self._pump_loop, args=(shard,),
                                      name=f"shard-pump{index}", daemon=True)
        with self._verdicts_lock:
            seed = list(self._verdicts.items())
        if seed:
            try:
                inbox.put(VerdictMsg(seed))
            except Exception:  # noqa: BLE001 - monitor will notice a death
                pass
        with self._shards_lock:
            self._shards[index] = shard
        shard.pump.start()
        return shard

    def _active_shards(self) -> List[_Shard]:
        with self._shards_lock:
            return [s for s in self._shards.values()
                    if not s.draining and not s.stopped and s.alive]

    @property
    def num_shards(self) -> int:
        return len(self._active_shards())

    def shutdown(self, wait: bool = True, drain_timeout: float = 60.0) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.queue.close()
        self._stop_event.set()
        if self._started and wait:
            self._router.join(timeout=10.0)
            self.drain(timeout=drain_timeout)
            self._monitor.join(timeout=10.0)
            with self._shards_lock:
                shards = list(self._shards.values())
            for shard in shards:
                if shard.alive and not shard.stop_sent:
                    shard.stop_sent = True
                    try:
                        shard.inbox.put(_STOP)
                    except Exception:  # noqa: BLE001 - already torn down
                        pass
            for shard in shards:
                shard.proc.join(timeout=10.0)
                if shard.alive:
                    shard.proc.terminate()
                    shard.proc.join(timeout=5.0)
                shard.stopped = True
            for shard in shards:
                if shard.pump is not None:
                    shard.pump.join(timeout=5.0)
                for q in (shard.inbox, shard.outbox):
                    try:
                        q.cancel_join_thread()
                        q.close()
                    except Exception:  # noqa: BLE001 - teardown races
                        pass
        self.pool.close()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every admitted request finished; True on success."""
        with self._done_cv:
            return self._done_cv.wait_for(
                lambda: self._outstanding == 0, timeout)

    # -- submission --------------------------------------------------------

    def submit(self, workload: str, params: Optional[Dict[str, Any]] = None,
               arrival_sim_us: Optional[float] = None,
               lane: str = "interactive",
               deadline_ms: Optional[float] = None,
               payload: Optional[Dict[str, Any]] = None,
               block: bool = False,
               timeout: Optional[float] = None) -> Request:
        """Admit one request into the sharded front door.

        ``payload`` maps names to numpy arrays carried out of band in
        the shared-memory pool (falling back to pickling when no slot
        fits); outputs come back on ``Request.result_payload``.
        """
        if not self._started:
            self.start()
        req = Request(workload=workload, params=dict(params or {}),
                      arrival_sim_us=arrival_sim_us)
        req.lane = normalize_lane(lane)
        if deadline_ms is None and self.slo is not None:
            objective = self.slo.objective_for(workload)
            if objective is not None:
                deadline_ms = objective.target_wall_ms
        if deadline_ms is not None:
            req.deadline_wall_s = time.perf_counter() + deadline_ms / 1e3
        payload_ref = payload_arrays = None
        if payload:
            arrays = {k: np.asarray(v) for k, v in payload.items()}
            payload_ref = self.pool.put(arrays)
            if payload_ref is None:
                payload_arrays = arrays
        req._payload_ref = payload_ref  # noqa: SLF001 - parent-side stash
        req._payload_arrays = payload_arrays  # noqa: SLF001
        if self.recorder is not None:
            req.trace_id = mint_trace_id()
            req.trace = RequestTrace(req.trace_id, workload=req.workload,
                                     request_id=req.id)
        try:
            self.queue.submit(req, block=block, timeout=timeout)
        except Exception:
            if payload_ref is not None:
                self.pool.release(payload_ref)
            raise
        with self._done_cv:
            self._outstanding += 1
        return req

    # -- routing -----------------------------------------------------------

    @staticmethod
    def route_key(workload: str, params: Dict[str, Any]) -> tuple:
        """Kernel identity for affinity routing: workload plus shape
        parameters; the data ``seed`` and internal keys are excluded so
        repeats of the same kernel stay on one shard's warm caches."""
        shape = tuple(sorted(
            (k, repr(v)) for k, v in params.items()
            if k != "seed" and not k.startswith("_")))
        return (workload,) + shape

    def _route(self, req: Request, active: List[_Shard]) -> _Shard:
        if self.routing == "affinity":
            digest = zlib.crc32(repr(
                self.route_key(req.workload, req.params)).encode())
            return active[digest % len(active)]
        return active[next(self._rr) % len(active)]

    def _to_msg(self, req: Request) -> SubmitMsg:
        deadline_ms = None
        if req.deadline_wall_s is not None:
            deadline_ms = max(
                0.0, (req.deadline_wall_s - time.perf_counter()) * 1e3)
        return SubmitMsg(
            origin_id=req.id, workload=req.workload, params=dict(req.params),
            lane=req.lane, deadline_ms=deadline_ms,
            arrival_sim_us=req.arrival_sim_us,
            payload_ref=getattr(req, "_payload_ref", None),
            payload_arrays=getattr(req, "_payload_arrays", None))

    def _route_loop(self) -> None:
        while True:
            with self._state_lock:
                inflight = len(self._inflight)
            budget = self.shard_inflight * max(1, self.num_shards) - inflight
            if budget <= 0:
                if self.queue.closed and not len(self.queue):
                    return
                with self._done_cv:
                    self._done_cv.wait(0.01)
                continue
            items = self.queue.take(
                max_items=min(self.route_window, budget), timeout=0.1)
            if not items:
                if self.queue.closed and not len(self.queue):
                    return
                continue
            active = self._active_shards()
            while not active and not self._stop_event.is_set():
                # Between a death and its recovery there may be nobody
                # to route to; the monitor restores the floor.
                time.sleep(0.01)
                active = self._active_shards()
            tracer = get_tracer()
            t_route = tracer.now_us()
            batches: Dict[int, List[SubmitMsg]] = {}
            for req in items:
                if not active:
                    self._finish_unroutable(req)
                    continue
                shard = self._route(req, active)
                msg = self._to_msg(req)
                req.shard_index = shard.index
                if req.trace is not None and req.t_submit_wall is not None:
                    req.trace.record("queue_wait",
                                     tracer.to_us(req.t_submit_wall),
                                     t_route, depth=req.queue_depth_at_admit,
                                     lane=req.lane)
                    req.trace.record("route", t_route, tracer.now_us(),
                                     shard=shard.index,
                                     routing=self.routing)
                with self._state_lock:
                    self._inflight[req.id] = (req, msg, shard.index)
                shard.routed += 1
                batches.setdefault(shard.index, []).append(msg)
            with self._shards_lock:
                live = dict(self._shards)
            for index, msgs in batches.items():
                shard = live.get(index)
                if shard is None:
                    continue
                try:
                    shard.inbox.put(msgs)
                except Exception:  # noqa: BLE001 - death recovery requeues
                    pass

    def _finish_unroutable(self, req: Request) -> None:
        req.finish(RequestStatus.FAILED, "no shard available")
        self._account_completion(req, release_payload=True)

    # -- completion (pump threads) -----------------------------------------

    def _pump_loop(self, shard: _Shard) -> None:
        while True:
            try:
                msg = shard.outbox.get(timeout=0.25)
            except _stdqueue.Empty:
                if shard.bye or not shard.alive:
                    return
                continue
            except (EOFError, OSError):
                return
            if msg == _BYE:
                shard.bye = True
                shard.stopped = True
                shard.proc.join(timeout=5.0)
                return
            if isinstance(msg, SnapshotMsg):
                shard.last_snapshot = msg
                continue
            self._complete(msg)

    def _adopt_verdicts(self, pairs, from_shard: int) -> None:
        """Record shard-produced race verdicts and rebroadcast the new
        ones so every shard (including the origin's peer devices) admits
        the kernel wide without its own sanitized launch."""
        fresh = []
        with self._verdicts_lock:
            for kname, verdict in pairs:
                if kname in self._verdicts:
                    continue
                self._verdicts[kname] = verdict
                fresh.append((kname, verdict))
        if not fresh:
            return
        self.verdicts_broadcast += len(fresh)
        with self._shards_lock:
            shards = [s for s in self._shards.values()
                      if s.alive and not s.stopped and not s.stop_sent]
        for shard in shards:
            try:
                shard.inbox.put(VerdictMsg(fresh))
            except Exception:  # noqa: BLE001 - spawn-seeding covers respawns
                pass

    def _complete(self, msg: CompleteMsg) -> None:
        if msg.race_verdicts:
            # adopt before the duplicate check: a verdict that rode a
            # duplicated completion is still news.
            self._adopt_verdicts(msg.race_verdicts, msg.shard)
        with self._state_lock:
            if msg.origin_id in self._completed_ids:
                self.duplicates_dropped += 1
                return
            entry = self._inflight.pop(msg.origin_id, None)
            if entry is None:
                self.duplicates_dropped += 1
                return
            self._completed_ids.add(msg.origin_id)
        req, sub, _ = entry
        req.shard_index = msg.shard
        req.device_index = msg.device_index
        req.batch_id = msg.batch_id
        req.batch_size = msg.batch_size
        req.kernel_sim_us = msg.kernel_sim_us
        req.overhead_sim_us = msg.overhead_sim_us
        req.dram_bytes = msg.dram_bytes
        req.launches = msg.launches
        req.tier = msg.tier
        req.variant = msg.variant
        req.cache_hits = msg.cache_hits
        req.cache_misses = msg.cache_misses
        req.result = msg.result
        req.sanitized_launches = msg.sanitized_launches
        req.sanitize_findings = list(msg.sanitize_findings)
        now = time.perf_counter()
        req.t_done_wall = now
        if req.t_submit_wall is not None:
            req.t_dispatch_wall = min(
                now, req.t_submit_wall + msg.wait_wall_s)
        if sub.payload_ref is not None:
            views = self.pool.map(sub.payload_ref)
            req.result_payload = {k: np.array(v) for k, v in views.items()}
            self.pool.release(sub.payload_ref)
        elif msg.payload_out is not None:
            req.result_payload = msg.payload_out
        req.status = RequestStatus(msg.status)
        req.error = msg.error
        if msg.trace is not None and req.trace is not None:
            req.trace.graft(msg.trace, name="shard", shard=msg.shard)
        with self._shards_lock:
            owner = self._shards.get(msg.shard)
        if owner is not None:
            owner.requests_done += 1
        req.finish(req.status, msg.error)
        self._account_completion(req)

    def _account_completion(self, req: Request,
                            release_payload: bool = False) -> None:
        """SLO, flight recorder, completed list, drain bookkeeping."""
        if release_payload:
            ref = getattr(req, "_payload_ref", None)
            if ref is not None:
                self.pool.release(ref)
        if self.slo is not None:
            req.slo_breached = self.slo.observe_request(req)
        tr = req.trace
        if tr is not None and self.recorder is not None:
            tr.finish(status=req.status.value, tier=req.tier,
                      latency_wall_ms=req.latency_wall_s * 1e3,
                      latency_sim_us=req.latency_sim_us,
                      error=req.error, slo_breached=req.slo_breached,
                      shard=req.shard_index)
            self.recorder.record(tr)
            if req.status is RequestStatus.FAILED:
                self.recorder.dump(tr, DumpReason.ERROR,
                                   detail=req.error or "")
            elif req.slo_breached:
                self.recorder.dump(
                    tr, DumpReason.SLO_BREACH,
                    detail=f"latency {req.latency_wall_s * 1e3:.3f} ms")
            if req.sanitize_findings:
                self.recorder.dump(tr, DumpReason.SANITIZER,
                                   detail="; ".join(req.sanitize_findings))
        with self._completed_lock:
            self.completed.append(req)
        with self._done_cv:
            self._outstanding -= 1
            self._done_cv.notify_all()

    # -- monitor: liveness, drain completion, autoscale --------------------

    def _monitor_loop(self) -> None:
        interval = (self.autoscaler.policy.interval_s
                    if self.autoscaler else 0.05)
        while not self._stop_event.wait(interval):
            with self._shards_lock:
                shards = list(self._shards.values())
            for shard in shards:
                if not shard.stopped and not shard.bye and not shard.alive:
                    self._on_shard_death(shard)
            for shard in shards:
                if shard.draining and not shard.stopped \
                        and not shard.stop_sent \
                        and self._inflight_count(shard.index) == 0:
                    shard.stop_sent = True
                    try:
                        shard.inbox.put(_STOP)
                    except Exception:  # noqa: BLE001
                        pass
            if self.autoscaler is not None:
                self._autoscale_tick()
            elif not self._active_shards() and not self._stop_event.is_set():
                # No autoscaler: still restore the single-shard floor
                # after a death so requeued work has somewhere to go.
                self._spawn_shard()

    def _inflight_count(self, shard_index: int) -> int:
        with self._state_lock:
            return sum(1 for _, _, idx in self._inflight.values()
                       if idx == shard_index)

    def _autoscale_tick(self) -> None:
        scaler = self.autoscaler
        now = time.perf_counter() - self._t_start
        active = self._active_shards()
        with self._state_lock:
            inflight = len(self._inflight)
        backlog = len(self.queue) + inflight
        burn = 0.0
        if self.slo is not None:
            burn = self.slo.snapshot()["overall"]["max_burn_rate"]
        decision = scaler.decide(now, len(active), backlog, burn)
        if decision == 0:
            return
        reason = scaler.reason_for(decision, len(active), backlog, burn)
        if decision > 0:
            self._spawn_shard()
            scaler.note(now, "up", len(active), len(active) + 1, reason)
        else:
            victim = min(active,
                         key=lambda s: (self._inflight_count(s.index),
                                        -s.index))
            victim.draining = True
            scaler.note(now, "down", len(active), len(active) - 1, reason)

    def _on_shard_death(self, shard: _Shard) -> None:
        """Requeue a dead shard's in-flight requests to survivors."""
        shard.stopped = True
        shard.draining = True
        self.shard_deaths += 1
        shard.proc.join(timeout=1.0)
        with self._state_lock:
            victims = [(oid, req, sub)
                       for oid, (req, sub, idx) in self._inflight.items()
                       if idx == shard.index]
        if not victims:
            return
        active = self._active_shards()
        if not active:
            active = [self._spawn_shard()]
        for oid, req, sub in victims:
            with self._state_lock:
                if oid in self._completed_ids:
                    continue  # its completion raced the death: keep it
            req.requeues += 1
            if req.requeues > self.max_requeues:
                with self._state_lock:
                    if oid in self._completed_ids:
                        continue
                    self._inflight.pop(oid, None)
                    self._completed_ids.add(oid)
                req.finish(RequestStatus.FAILED,
                           f"shard {shard.index} died; requeue budget "
                           f"({self.max_requeues}) exhausted")
                self._account_completion(req, release_payload=True)
                continue
            target = self._route(req, active)
            with self._state_lock:
                if oid in self._completed_ids:
                    continue
                self._inflight[oid] = (req, sub, target.index)
            req.shard_index = target.index
            if req.trace is not None:
                t = get_tracer().now_us()
                req.trace.record("requeue", t, t, dead_shard=shard.index,
                                 shard=target.index, attempt=req.requeues)
            self.requeued += 1
            target.routed += 1
            try:
                target.inbox.put([sub])
            except Exception:  # noqa: BLE001 - next death sweep retries
                pass

    # -- reporting ---------------------------------------------------------

    def request_snapshots(self, wait_s: float = 1.0) -> None:
        """Ask every live shard for a fresh inner report; pumps store
        the replies on each shard handle (best effort within ``wait_s``)."""
        with self._shards_lock:
            shards = [s for s in self._shards.values()
                      if s.alive and not s.stop_sent]
        before = {s.index: s.last_snapshot for s in shards}
        for shard in shards:
            try:
                shard.inbox.put(_SNAPSHOT)
            except Exception:  # noqa: BLE001
                pass
        deadline = time.monotonic() + wait_s
        while time.monotonic() < deadline:
            if all(s.last_snapshot is not before[s.index] for s in shards):
                return
            time.sleep(0.01)

    def export_traces(self, path_or_file) -> None:
        if self.recorder is None:
            raise ValueError("flight recorder is disabled on this cluster")
        self.recorder.export_chrome(path_or_file)

    def report(self, refresh_snapshots: bool = False) -> Dict[str, Any]:
        """Cluster-wide aggregation plus per-shard / lane / autoscale /
        control-plane sections."""
        if refresh_snapshots:
            self.request_snapshots()
        with self._completed_lock:
            reqs = list(self.completed)
        done = [r for r in reqs if r.status is RequestStatus.DONE]
        wall_s = time.perf_counter() - self._t_start
        by_status = {s.value: sum(1 for r in reqs if r.status is s)
                     for s in RequestStatus}
        cache_hits = sum(r.cache_hits for r in reqs)
        cache_misses = sum(r.cache_misses for r in reqs)
        lookups = cache_hits + cache_misses
        tiers: Dict[str, int] = {}
        for r in done:
            if r.tier:
                tiers[r.tier] = tiers.get(r.tier, 0) + 1
        lanes: Dict[str, Any] = {}
        for lane in ("interactive", "batch"):
            sub = [r for r in reqs if r.lane == lane]
            sub_done = [r for r in sub if r.status is RequestStatus.DONE]
            breached = sum(1 for r in sub if r.slo_breached)
            lanes[lane] = {
                "requests": len(sub),
                "done": len(sub_done),
                "slo_breaches": breached,
                "slo_attainment": (1.0 - breached / len(sub)) if sub else 1.0,
                "latency_wall_ms": percentiles(
                    [r.latency_wall_s * 1e3 for r in sub_done]),
            }
        with self._shards_lock:
            shards = sorted(self._shards.values(), key=lambda s: s.index)
        per_shard = []
        for s in shards:
            entry: Dict[str, Any] = {
                "index": s.index,
                "machine": s.machine_name,
                "state": s.state(),
                "alive": s.alive,
                "routed": s.routed,
                "requests_done": s.requests_done,
                "inflight": self._inflight_count(s.index),
            }
            if s.last_snapshot is not None:
                inner = s.last_snapshot.report
                entry["pid"] = s.last_snapshot.pid
                entry["inner"] = {
                    "requests": inner.get("requests"),
                    "throughput_rps": inner.get("throughput_rps"),
                    "kernel_cache": inner.get("kernel_cache"),
                    "tiers": inner.get("tiers"),
                    "sim": inner.get("sim"),
                    "per_device": inner.get("per_device"),
                }
            per_shard.append(entry)
        # Shards run independent simulated timelines; the cluster-wide
        # makespan is the slowest shard's horizon (needs snapshots).
        horizon = max(
            (s.last_snapshot.report.get("sim", {}).get("horizon_us", 0.0)
             for s in shards if s.last_snapshot is not None), default=0.0)
        # Which tuned variant served each request, split by the machine
        # of the shard that ran it — the heterogeneity evidence.
        machine_of = {s.index: s.machine_name for s in shards}
        variants_by_machine: Dict[str, Dict[str, int]] = {}
        for r in done:
            if r.variant is None:
                continue
            mname = machine_of.get(r.shard_index) or "?"
            per = variants_by_machine.setdefault(mname, {})
            key = f"{r.workload}:{r.variant}"
            per[key] = per.get(key, 0) + 1
        extra: Dict[str, Any] = {}
        if self.slo is not None:
            extra["slo"] = self.slo.snapshot()
        if self.recorder is not None:
            extra["recorder"] = self.recorder.stats()
        if self.autoscaler is not None:
            extra["autoscale"] = self.autoscaler.snapshot()
        return extra | {
            "shards": len(shards),
            "active_shards": len(self._active_shards()),
            "devices_per_shard": self.cfg.devices_per_shard,
            "machines": sorted({m.name for m in self.machines}),
            "tuned": {
                "enabled": self.tuned is not None,
                "entries": len(self.tuned) if self.tuned is not None else 0,
                "variants_by_machine": variants_by_machine,
            },
            "policy": self.cfg.policy,
            "routing": self.routing,
            "requests": by_status | {"total": len(reqs)},
            "wall_elapsed_s": wall_s,
            "throughput_rps": len(done) / wall_s if wall_s > 0 else 0.0,
            "latency_wall_ms": percentiles(
                [r.latency_wall_s * 1e3 for r in done]),
            "latency_sim_us": percentiles(
                [r.latency_sim_us for r in done]),
            "sim": {
                "kernel_us": sum(r.kernel_sim_us for r in done),
                "launch_overhead_us": sum(r.overhead_sim_us for r in done),
                "dram_bytes": sum(r.dram_bytes for r in done),
                "horizon_us": horizon,
            },
            "kernel_cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_rate": cache_hits / lookups if lookups else 0.0,
            },
            "tiers": tiers,
            "lanes": lanes | {"queue_depths": self.queue.lane_depths()},
            "per_shard": per_shard,
            "pool": self.pool.stats(),
            "control": {
                "duplicates_dropped": self.duplicates_dropped,
                "requeued": self.requeued,
                "shard_deaths": self.shard_deaths,
                "requeue_budget": self.max_requeues,
                "verdicts_known": len(self._verdicts),
                "verdicts_broadcast": self.verdicts_broadcast,
            },
        }

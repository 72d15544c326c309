"""The virtual serving cluster: N devices, one serving thread, one front door.

Pipeline::

    submit() -> SubmissionQueue -> serving thread, one window per pass:
                 (admission /        take -> resolve -> batch -> pick a
                  backpressure)      device -> run inline -> complete

- One **serving thread** per cluster blocks on the bounded submission
  queue and takes one window of what is queued (at most ``max_batch`` x
  devices, never waiting for more).  It resolves each request against
  the workload registry, lets the
  :class:`~repro.serve.batcher.DynamicBatcher` coalesce compatible
  compiled requests, routes every batch to a device via the configured
  :class:`~repro.serve.scheduler.Policy`, and runs the batch on that
  device before taking the next window.
- Backlog beyond the window stays in the queue, so lane/EDF order
  (:class:`~repro.serve.lanes.PriorityLaneQueue`) and watermark
  backpressure act on all of it.
- Each :class:`DeviceWorker` is plain per-device state: one simulated
  :class:`Device`, its device-free point on the simulated timeline and
  its counters.  Only the serving thread runs batches, so nothing is
  locked.  Devices are in-order queues on the simulated clock anyway;
  wall-clock parallelism comes from shard processes
  (:mod:`repro.serve.shard`), not from threads sharing one GIL.
- Two clocks are kept per request: wall time and the
  simulated-microsecond timeline, where each device is a serial resource
  — a batch head pays the full launch overhead, coalesced followers pay
  only the pipelined gap (see :mod:`repro.serve.batcher`).

Everything is observable: ``serve_*`` counters/gauges/histograms land in
the cluster registry (the installed :mod:`repro.obs` registry when
enabled), and batch execution opens ``serve:batch`` / ``serve:request``
spans in the trace sinks.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

import repro.sanitize as sanitize_mod
from repro.obs import get_observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import DumpReason, FlightRecorder
from repro.obs.request import RequestTrace, mint_trace_id
from repro.obs.slo import SLOTracker
from repro.obs.tracing import get_tracer, trace_span
from repro.isa.jit import JitTracingExecutor
from repro.sim.device import Device
from repro.sim.machine import GEN11_ICL, MachineConfig

from repro.serve.batcher import Batch, DynamicBatcher, WorkItem
from repro.serve.lanes import PriorityLaneQueue, normalize_lane
from repro.serve.queue import Backpressure, ShutDown, SubmissionQueue
from repro.serve.request import Request, RequestStatus, percentiles
from repro.serve.scheduler import Policy, make_policy
from repro.serve.workloads import get_workload

#: Wall-latency histogram buckets in milliseconds (the default metric
#: buckets are microsecond-scaled for simulated time).
_MS_BUCKETS = (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
               float("inf"))


class DeviceWorker:
    """One simulated device and its place on the simulated timeline."""

    def __init__(self, index: int, device: Device) -> None:
        self.index = index
        self.device = device
        #: tuned-variant accounting: "family:label" -> requests served.
        self.variants_served: Dict[str, int] = {}
        #: device-free point on the simulated timeline.
        self.sim_clock_us = 0.0
        #: committed simulated busy time (overhead + kernel).
        self.busy_sim_us = 0.0
        self.requests_done = 0
        self.batches_done = 0

    def load_sim_us(self) -> float:
        """The least-loaded metric: committed simulated busy time."""
        return self.busy_sim_us


class ServeCluster:
    """A pool of simulated devices behind a scheduling front end."""

    def __init__(self, num_devices: int = 2,
                 machine: Union[MachineConfig,
                                Sequence[MachineConfig]] = GEN11_ICL,
                 tuned=None,
                 policy="round-robin",
                 batching: bool = True,
                 max_batch: int = 8,
                 queue_capacity: int = 512,
                 high_watermark: Optional[int] = None,
                 lanes: bool = False,
                 obs=None,
                 validate: str = "first",
                 slo=None,
                 recorder=True,
                 recorder_capacity: int = 256,
                 dump_dir: Optional[str] = None) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if validate not in sanitize_mod.VALIDATE_MODES:
            raise ValueError(
                f"validate must be one of {sanitize_mod.VALIDATE_MODES}, "
                f"got {validate!r}")
        #: dispatch-gating mode for compiled launches: "first" sanitizes
        #: each kernel's first launch per device (certifying or refusing
        #: the wide path), "always" sanitizes every launch, "off" trusts
        #: the kernel and always allows wide selection.
        self.validate = validate
        self.obs = obs if obs is not None else get_observability()
        self.registry: MetricsRegistry = (
            self.obs.registry if self.obs.enabled else MetricsRegistry())
        self.policy: Policy = make_policy(policy)
        self.batcher = DynamicBatcher(max_batch=max_batch, enabled=batching)
        queue_cls = PriorityLaneQueue if lanes else SubmissionQueue
        self.queue = queue_cls(capacity=queue_capacity,
                               high_watermark=high_watermark,
                               registry=self.registry)
        #: optional SLO tracker: pass a {workload: target_wall_ms |
        #: SLObjective} mapping or a prebuilt SLOTracker.
        if isinstance(slo, SLOTracker):
            self.slo: Optional[SLOTracker] = slo
        elif slo:
            self.slo = SLOTracker(slo, registry=self.registry)
        else:
            self.slo = None
        #: always-on flight recorder (True builds one; pass an instance
        #: to share a ring across clusters; False/None disables).
        if isinstance(recorder, FlightRecorder):
            self.recorder: Optional[FlightRecorder] = recorder
        elif recorder:
            self.recorder = FlightRecorder(capacity=recorder_capacity,
                                           dump_dir=dump_dir,
                                           registry=self.registry)
        else:
            self.recorder = None
        #: a single MachineConfig builds a homogeneous pool; a sequence
        #: is striped round-robin across workers (device i gets
        #: machines[i % len]) for mixed-generation clusters.
        machines = list(machine) \
            if isinstance(machine, (list, tuple)) else [machine]
        if not machines:
            raise ValueError("machine sequence must be non-empty")
        self.machines: List[MachineConfig] = machines
        #: tuned-variant registry (repro.tune.registry.TunedRegistry) or
        #: a path to its JSON dump; consulted per device machine when
        #: serving "tuned.*" workloads, pre-seeded into each device's
        #: kernel cache at start().
        if isinstance(tuned, str):
            from repro.tune.registry import TunedRegistry
            tuned = TunedRegistry.load(tuned)
        self.tuned = tuned
        self.workers = [
            DeviceWorker(i, Device(machines[i % len(machines)], obs=self.obs))
            for i in range(num_devices)]
        #: requests the serving thread takes per pass: enough for a full
        #: batch on every device; the rest waits in the queue, in lane
        #: order and under backpressure.
        self.window = self.batcher.max_batch * num_devices
        self._thread = threading.Thread(
            target=self._serve_loop, name="serve", daemon=True)
        #: admitted requests not yet completed (counted before enqueue).
        self._outstanding = 0
        self._done_cv = threading.Condition()
        self._started = False
        self._stopped = False
        self._t_start = time.perf_counter()
        #: finished requests, appended by the serving thread only.
        self.completed: List[Request] = []
        #: optional completion callback (finished Request -> None), run
        #: on the serving thread before the request is counted drained —
        #: the shard worker ships completions through it.
        self.on_complete = None

        self._m_requests = {
            status: self.registry.counter("serve_requests",
                                          status=status.value)
            for status in RequestStatus
        }
        self._m_batches = self.registry.counter(
            "serve_batches", "batches dispatched")
        self._m_coalesced = self.registry.counter(
            "serve_coalesced_requests",
            "requests that rode a batch as non-head members")
        self._m_overhead = self.registry.counter(
            "serve_launch_overhead_sim_us",
            "simulated launch overhead charged across all requests")
        self._m_kernel = self.registry.counter(
            "serve_kernel_sim_us", "simulated kernel time served")

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ServeCluster":
        if self._started:
            return self
        self._started = True
        self._t_start = time.perf_counter()
        if self.tuned is not None:
            # Warm every device's kernel cache with its own machine's
            # tuned winners before the first request arrives.
            for w in self.workers:
                self.tuned.preseed(w.device)
        self._thread.start()
        return self

    def __enter__(self) -> "ServeCluster":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        if self._stopped:
            return
        self._stopped = True
        self.queue.close()
        if self._started and wait:
            self._thread.join()

    @property
    def num_devices(self) -> int:
        return len(self.workers)

    @property
    def devices(self) -> List[Device]:
        return [w.device for w in self.workers]

    # -- submission --------------------------------------------------------

    def submit(self, workload: str, params: Optional[Dict[str, Any]] = None,
               arrival_sim_us: Optional[float] = None,
               lane: str = "interactive",
               deadline_ms: Optional[float] = None,
               block: bool = False,
               timeout: Optional[float] = None) -> Request:
        """Admit one request; raises :class:`Backpressure` when full.

        ``lane`` and ``deadline_ms`` only affect drain order on a
        cluster built with ``lanes=True``; a deadline left ``None``
        inherits the workload's SLO wall target when one is configured.
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
        self._mint_trace(req)
        # Count the request before it can reach the serving thread, so
        # its completion can never be settled before it was counted.
        with self._done_cv:
            self._outstanding += 1
        try:
            self.queue.submit(req, block=block, timeout=timeout)
        except (Backpressure, ShutDown):
            self._settle()
            raise
        return req

    def _mint_trace(self, req: Request) -> Request:
        """Stamp a trace ID + empty span tree (recorder enabled only)."""
        if self.recorder is not None:
            req.trace_id = mint_trace_id()
            req.trace = RequestTrace(req.trace_id, workload=req.workload,
                                     request_id=req.id)
        return req

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until every admitted request finished; True on success."""
        with self._done_cv:
            return self._done_cv.wait_for(
                lambda: self._outstanding == 0, timeout)

    def _settle(self) -> None:
        with self._done_cv:
            self._outstanding -= 1
            self._done_cv.notify_all()

    # -- race-verdict sharing ----------------------------------------------

    def drain_race_verdicts(self) -> list:
        """(kernel name, RaceVerdict) pairs newly produced by this
        cluster's devices since the last drain.

        Lock-free (each device's drain is atomic pops), so it is safe
        from the completion callback and from any other thread.
        """
        fresh = []
        for w in self.workers:
            fresh.extend(w.device.drain_race_verdicts())
        return fresh

    def adopt_race_verdicts(self, pairs) -> None:
        """Adopt (kernel name, RaceVerdict) pairs onto every device, so
        a kernel another cluster already sanitized is wide-admitted here
        without a redundant sanitized first launch.

        Safe while the serving thread runs: adoption is a single dict
        store per kernel, and a launch reads the verdict with one get.
        """
        for w in self.workers:
            for kname, verdict in pairs:
                w.device.adopt_race_verdict(kname, verdict)

    # -- serving thread ----------------------------------------------------

    def _serve_loop(self) -> None:
        while True:
            reqs = self.queue.take(max_items=self.window)
            if not reqs:  # closed and drained
                return
            self._serve_window(reqs)

    def _serve_window(self, reqs: List[Request]) -> List[Batch]:
        """Serve one window taken off the queue: stamp its queue wait,
        resolve and batch it, then place, run and complete every batch."""
        tracer = get_tracer()
        t_take = tracer.now_us()
        for req in reqs:
            if req.trace is not None and req.t_submit_wall is not None:
                req.trace.record("queue_wait",
                                 tracer.to_us(req.t_submit_wall), t_take,
                                 depth=req.queue_depth_at_admit)
        work = [item for item in map(self._resolve, reqs)
                if item is not None]
        t_form0 = tracer.now_us()
        batches = self.batcher.form(work)
        t_form1 = tracer.now_us()
        for batch in batches:
            t_sched0 = tracer.now_us()
            worker = self.workers[self.policy.select(batch, self.workers)]
            t_sched1 = tracer.now_us()
            for pos, it in enumerate(batch.items):
                tr = it.request.trace
                if tr is None:
                    continue
                tr.record("batch_assemble", t_form0, t_form1,
                          batch=batch.id, batch_size=batch.size,
                          position=pos)
                tr.record("schedule", t_sched0, t_sched1,
                          policy=self.policy.name, device=worker.index)
            self._run_batch(batch, worker)
        return batches

    def _resolve(self, req: Request) -> Optional[WorkItem]:
        try:
            wl = get_workload(req.workload)
            made = wl.make(req.params)
        except Exception as exc:  # noqa: BLE001 - bad request, not a crash
            req.finish(RequestStatus.FAILED, f"{type(exc).__name__}: {exc}")
            self._request_finished(req)
            return None
        if wl.kind == "compiled":
            return WorkItem(request=req, kind="compiled", launch=made)
        if wl.kind == "tuned":
            return WorkItem(request=req, kind="tuned", task=made)
        return WorkItem(request=req, kind="eager", runner=made)

    # -- batch execution ---------------------------------------------------

    def _run_batch(self, batch: Batch, worker: DeviceWorker) -> None:
        machine = worker.device.machine
        with trace_span("serve:batch", device=worker.index,
                        kernel=batch.kernel_name, size=batch.size):
            batch_busy_us = 0.0
            # Pooled JIT-capable wide executor: coalesced compiled
            # batches reuse one grid-vectorized executor across the
            # whole batch, and run_compiled binds the kernel's cached
            # megakernel into it so every request after the first skips
            # both plan construction and JIT compilation; run_compiled
            # falls back to a fresh scalar path for programs the wide
            # path cannot vectorize.
            pooled = JitTracingExecutor() if (
                batch.size > 1 and batch.items[0].kind == "compiled") \
                else None
            for pos, item in enumerate(batch.items):
                req = item.request
                req.status = RequestStatus.RUNNING
                req.t_dispatch_wall = time.perf_counter()
                req.device_index = worker.index
                req.batch_id = batch.id
                req.batch_size = batch.size
                overhead_us = machine.launch_overhead_us if pos == 0 \
                    else machine.pipelined_launch_us
                start = worker.sim_clock_us
                if req.arrival_sim_us is not None:
                    start = max(start, req.arrival_sim_us)
                req.start_sim_us = start
                error: Optional[str] = None
                # Route every span the device opens (sanitize_gate,
                # dispatch:*, chunk, fold, jit:compile) into this
                # request's tree, whatever sink is installed.
                active = req.trace.active() if req.trace is not None \
                    else nullcontext()
                try:
                    with active, trace_span(
                            "serve:request", request=req.id,
                            workload=req.workload, device=worker.index,
                            batch=batch.id, position=pos):
                        self._run_item(item, worker, pooled)
                except Exception as exc:  # noqa: BLE001 - isolate requests
                    error = f"{type(exc).__name__}: {exc}"
                # Failed requests occupied their queue slot but are
                # charged no simulated service.
                if error is None:
                    req.overhead_sim_us = overhead_us if req.launches else 0.0
                    served = req.service_sim_us
                    worker.sim_clock_us = start + served
                    batch_busy_us += served
                req.t_done_wall = time.perf_counter()
                if error is None:
                    req.finish(RequestStatus.DONE)
                else:
                    req.finish(RequestStatus.FAILED, error)
                worker.requests_done += 1
                self._request_finished(req)
            worker.batches_done += 1
            worker.busy_sim_us += batch_busy_us
            self._m_batches.inc()
            if batch.size > 1:
                self._m_coalesced.inc(batch.size - 1)
            self.registry.counter("serve_device_busy_sim_us",
                                  device=worker.index).inc(batch_busy_us)
            self.registry.counter("serve_device_requests",
                                  device=worker.index).inc(batch.size)

    def _run_item(self, item: WorkItem, worker: DeviceWorker,
                  pooled) -> None:
        req = item.request
        device = worker.device
        n_surfaces = len(device.surfaces)
        hits0 = device.profile.compile_cache_hits
        misses0 = device.profile.compile_cache_misses
        n_san0 = len(device.sanitizer_results)
        try:
            if item.kind == "compiled":
                launch = item.launch
                surfaces, scalars = launch.bind(device)
                kernel = device.compile(launch.body, launch.name,
                                        launch.sig, launch.scalar_params)
                run = device.run_compiled(kernel, launch.grid, surfaces,
                                          scalars=scalars, name=launch.name,
                                          executor=pooled,
                                          validate=self.validate)
                req.kernel_sim_us = run.timing.time_us
                req.dram_bytes = int(run.timing.dram_bytes)
                req.launches = 1
                req.tier = run.path
                if launch.finish is not None:
                    req.result = launch.finish(surfaces)
            elif item.kind == "tuned":
                self._run_tuned(item, worker)
            else:
                wrun = item.runner(device)
                req.kernel_sim_us = wrun.kernel_time_us
                # Eager workloads may enqueue many kernels; their own
                # pipelined overhead beyond the first launch is theirs.
                req.kernel_sim_us += max(
                    0.0, wrun.launch_overhead_us -
                    device.machine.launch_overhead_us)
                req.dram_bytes = int(sum(
                    r.timing.dram_bytes
                    for r in device.runs[-wrun.launches:])) \
                    if wrun.launches else 0
                req.launches = wrun.launches
                req.result = wrun.name
                req.tier = "eager"
        finally:
            req.cache_hits = device.profile.compile_cache_hits - hits0
            req.cache_misses = device.profile.compile_cache_misses - misses0
            new_results = device.sanitizer_results[n_san0:]
            req.sanitized_launches = len(new_results)
            req.sanitize_findings = [r.summary() for r in new_results
                                     if not r.clean]
            # Release this request's surfaces so a long-lived pooled
            # device doesn't accumulate (and re-scan) dead bindings.
            del device.surfaces[n_surfaces:]

    def _run_tuned(self, item: WorkItem, worker: DeviceWorker) -> None:
        """Serve a tuned request: resolve the family against the
        worker's machine in the cluster's tuned registry (falling back
        to the family's hand-tuned default point) and run that variant.
        """
        from repro.tune.workloads import get_tunable
        req = item.request
        device = worker.device
        task = item.task
        wl = get_tunable(task.family)
        entry = None
        if self.tuned is not None:
            entry = self.tuned.lookup(task.family, task.problem,
                                      device.machine.name)
        point = dict(entry.point) if entry is not None \
            else wl.space_for(task.problem).default_point()
        variant = wl.variant(task.problem, point)
        runs0 = len(device.runs)
        t0 = device.kernel_time_us
        with trace_span("tuned_variant", family=task.family,
                        variant=variant.label, kernel=variant.kernel_name,
                        machine=device.machine.name,
                        tuned=entry is not None):
            out = variant.run(device, task.inputs)
        if task.check:
            expect = wl.reference(task.problem, task.inputs)
            if not np.array_equal(out, expect):
                raise AssertionError(
                    f"tuned {task.family} variant {variant.label} output "
                    f"does not match the reference oracle")
        req.kernel_sim_us = device.kernel_time_us - t0
        req.launches = len(device.runs) - runs0
        req.dram_bytes = int(sum(r.timing.dram_bytes
                                 for r in device.runs[runs0:]))
        req.tier = "tuned"
        req.variant = variant.label
        req.result = f"{task.family}:{variant.label}"
        vkey = f"{task.family}:{variant.label}"
        worker.variants_served[vkey] = \
            worker.variants_served.get(vkey, 0) + 1

    # -- completion --------------------------------------------------------

    def _request_finished(self, req: Request) -> None:
        self._m_requests[req.status].inc()
        if self.slo is not None:
            req.slo_breached = self.slo.observe_request(req)
        self._retire_trace(req)
        if req.status is RequestStatus.DONE:
            self._m_kernel.inc(req.kernel_sim_us)
            self._m_overhead.inc(req.overhead_sim_us)
            pname = self.policy.name
            self.registry.histogram(
                "serve_wait_wall_ms", buckets=_MS_BUCKETS,
                policy=pname).observe(req.wait_wall_s * 1e3)
            self.registry.histogram(
                "serve_latency_wall_ms", buckets=_MS_BUCKETS,
                policy=pname).observe(req.latency_wall_s * 1e3)
            self.registry.histogram(
                "serve_service_sim_us",
                policy=pname).observe(req.service_sim_us)
            self.registry.histogram(
                "serve_latency_sim_us",
                policy=pname).observe(req.latency_sim_us)
        self.completed.append(req)
        if self.on_complete is not None:
            try:
                self.on_complete(req)
            except Exception:  # noqa: BLE001 - shipping must not wedge drain
                pass
        self._settle()

    def _retire_trace(self, req: Request) -> None:
        """Seal the request's span tree into the flight recorder, auto-
        dumping the traces a postmortem will want (failure, SLO breach,
        sanitizer findings)."""
        tr = req.trace
        if tr is None or self.recorder is None:
            return
        tr.finish(status=req.status.value, tier=req.tier,
                  latency_wall_ms=req.latency_wall_s * 1e3,
                  latency_sim_us=req.latency_sim_us,
                  error=req.error, slo_breached=req.slo_breached)
        self.recorder.record(tr)
        if req.status is RequestStatus.FAILED:
            self.recorder.dump(tr, DumpReason.ERROR, detail=req.error or "")
        elif req.slo_breached:
            self.recorder.dump(
                tr, DumpReason.SLO_BREACH,
                detail=f"latency {req.latency_wall_s * 1e3:.3f} ms "
                       f"(sim {req.latency_sim_us:.1f} us)")
        if req.sanitize_findings:
            self.recorder.dump(tr, DumpReason.SANITIZER,
                               detail="; ".join(req.sanitize_findings))

    # -- reporting ---------------------------------------------------------

    def export_traces(self, path_or_file) -> None:
        """Write every retained request tree as one Chrome-trace file."""
        if self.recorder is None:
            raise ValueError("flight recorder is disabled on this cluster")
        self.recorder.export_chrome(path_or_file)

    def report(self) -> Dict[str, Any]:
        """Aggregate serving statistics over everything completed so far."""
        reqs = list(self.completed)  # one atomic copy under the GIL
        done = [r for r in reqs if r.status is RequestStatus.DONE]
        wall_s = time.perf_counter() - self._t_start
        by_status = {s.value: sum(1 for r in reqs if r.status is s)
                     for s in RequestStatus}
        total_busy = sum(w.busy_sim_us for w in self.workers)
        horizon = max((w.sim_clock_us for w in self.workers), default=0.0)
        cache_hits = sum(r.cache_hits for r in reqs)
        cache_misses = sum(r.cache_misses for r in reqs)
        lookups = cache_hits + cache_misses
        batches = sum(w.batches_done for w in self.workers)
        tiers: Dict[str, int] = {}
        gate: Dict[str, int] = {}
        for w in self.workers:
            for tier, n in w.device.profile.tier_launches.items():
                tiers[tier] = tiers.get(tier, 0) + n
            for outcome, n in w.device.profile.gate_outcomes.items():
                gate[outcome] = gate.get(outcome, 0) + n
        variants: Dict[str, int] = {}
        for w in self.workers:
            for vkey, n in w.variants_served.items():
                variants[vkey] = variants.get(vkey, 0) + n
        extra: Dict[str, Any] = {}
        if self.slo is not None:
            extra["slo"] = self.slo.snapshot()
        if self.recorder is not None:
            extra["recorder"] = self.recorder.stats()
        return extra | {
            "policy": self.policy.name,
            "devices": self.num_devices,
            "machines": sorted({m.name for m in self.machines}),
            "tuned": {
                "enabled": self.tuned is not None,
                "entries": len(self.tuned) if self.tuned is not None else 0,
                "variants_served": variants,
            },
            "batching": self.batcher.enabled,
            "requests": by_status | {"total": len(reqs)},
            "wall_elapsed_s": wall_s,
            "throughput_rps": len(done) / wall_s if wall_s > 0 else 0.0,
            "latency_wall_ms": percentiles(
                [r.latency_wall_s * 1e3 for r in done]),
            "wait_wall_ms": percentiles(
                [r.wait_wall_s * 1e3 for r in done]),
            "latency_sim_us": percentiles(
                [r.latency_sim_us for r in done]),
            "service_sim_us": percentiles(
                [r.service_sim_us for r in done]),
            "sim": {
                "kernel_us": sum(r.kernel_sim_us for r in done),
                "launch_overhead_us": sum(r.overhead_sim_us for r in done),
                "busy_us": total_busy,
                "horizon_us": horizon,
                "batches": batches,
                "avg_batch": (len(done) / batches) if batches else 0.0,
                "dram_bytes": sum(r.dram_bytes for r in done),
            },
            "kernel_cache": {
                "hits": cache_hits,
                "misses": cache_misses,
                "hit_rate": cache_hits / lookups if lookups else 0.0,
            },
            "tiers": tiers,
            "sanitize_gate": gate,
            "per_device": [
                {
                    "index": w.index,
                    "machine": w.device.machine.name,
                    "variants": dict(w.variants_served),
                    "requests": w.requests_done,
                    "batches": w.batches_done,
                    "busy_sim_us": w.busy_sim_us,
                    "utilization_sim": (w.busy_sim_us / horizon)
                    if horizon > 0 else 0.0,
                    "share_of_busy": (w.busy_sim_us / total_busy)
                    if total_busy > 0 else 0.0,
                }
                for w in self.workers
            ],
        }

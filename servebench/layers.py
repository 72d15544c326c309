"""The traced run: a per-request, per-layer wall-time ledger.

Spans are recorded from the benchmark's side of the public entry
points, never inside the program:

- ``ServeCluster.submit`` is timed by the client loop itself;
- ``DynamicBatcher.form``, ``Device.compile`` and ``Device.run_compiled``
  are wrapped on the cluster's own instances (:meth:`LayerTrace.attach`);
- a ``KernelLaunch``'s make/bind/finish are wrapped through the workload
  registry entry's ``make`` (:meth:`LayerTrace.install`).

Calls made on a device worker are linked to their request through
``repro.obs.tracing.active_request()``; ``make`` runs on the dispatcher
before any request is active, so it is linked by the identity of the
request's params dict, which the cluster hands to ``make`` unchanged.
The JIT build and, for shard workers, every in-shard stage come from the
request's own span tree (the always-on flight recorder).

Each request's stages are exclusive and close its latency exactly: what
the named stages do not cover is ``serve.unattributed``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

#: Exclusive stages, in the order a request meets them.  Values are
#: seconds per request; their sum is the request's latency.
STAGES = (
    "client.late",          # due -> submit call (client loop lateness)
    "serve.submit",         # ServeCluster.submit call
    "shard.ipc",            # sharded: parent latency minus shard-side
    "serve.queue_wait",     # admitted -> device worker picks it up
    "workloads.make",       # KernelLaunch make (dispatcher)
    "serve.batch_form",     # this request's share of DynamicBatcher.form
    "workloads.bind",
    "compiler.compile",     # Device.compile (hit or miss)
    "sanitize.launch",      # run_compiled calls that ran sanitized
    "isa.jit.build",        # jit:compile spans
    "isa.jit.launch",       # run_compiled minus JIT build, by tier
    "isa.wide.launch",
    "isa.sequential.launch",
    "workloads.finish",
    "serve.unattributed",   # service time no named stage covers
)

_TIMED_TIERS = ("jit", "wide", "sequential")

#: Every per-layer metric of a traced run, with its unit.
PER_LAYER_UNITS = {
    "client.late_ms": "ms",
    "serve.latency_ms": "ms",
    "serve.submit_us": "us",
    "serve.queue_wait_ms": "ms",
    "serve.service_ms": "ms",
    "serve.batch_size": "count",
    "serve.batch_form_us": "us",
    "serve.refused": "count",
    "serve.unattributed_ms": "ms",
    "compiler.compiles": "count",
    "compiler.compile_ms": "ms",
    "compiler.cache_hit_ratio": "ratio",
    "sanitize.launches": "count",
    "sanitize.launch_ms": "ms",
    "isa.jit.builds": "count",
    "isa.jit.build_ms": "ms",
    "isa.jit.launch_ms": "ms",
    "isa.wide.launch_ms": "ms",
    "isa.sequential.launch_ms": "ms",
    "isa.launch_share.jit": "ratio",
    "isa.launch_share.wide": "ratio",
    "isa.launch_share.sequential": "ratio",
    "sim.overhead_sim_us": "sim_us",
    "workloads.make_ms": "ms",
    "workloads.bind_ms": "ms",
    "workloads.finish_ms": "ms",
    "shard.ipc_ms": "ms",
    "shard.requeues": "count",
    "pool.fallbacks": "count",
    "obs.trace_overhead_frac": "ratio",
    "host.probe_ms": "ms",
    "host.cpu_util": "ratio",
    "host.handoff_ms": "ms",
}


def _span_s(trace, name: str) -> float:
    """Total seconds of the spans named exactly ``name`` in ``trace``."""
    return sum(n.dur_us for n in trace.find(name) if n.name == name) / 1e6


def _active_request_id() -> Optional[int]:
    """The id of the request whose span tree is active on this thread."""
    from repro.obs.tracing import active_request
    tr = active_request()
    return None if tr is None else tr.request_id


def _root(trace, name: str):
    for node in trace.roots:
        if node.name == name:
            return node
    return None


class LayerTrace:
    """Collects raw call timings while installed, then folds finished
    requests into per-stage totals."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: id(request params) -> stage -> seconds (make/bind/finish).
        self._by_params: Dict[int, Dict[str, float]] = {}
        #: request id -> stage -> seconds (form/compile/run_compiled).
        self._by_req: Dict[int, Dict[str, float]] = {}
        self._saved_makes: list = []
        self._attached: list = []
        #: (seconds, items) per DynamicBatcher.form call.
        self.form_calls: List[tuple] = []
        # folded totals
        self.stage_s: Dict[str, float] = dict.fromkeys(STAGES, 0.0)
        self.requests = 0
        self.latency_s = 0.0
        self.service_s = 0.0
        self.counts: Dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def _add(self, table: dict, key: int, stage: str, dt: float) -> None:
        with self._lock:
            row = table.setdefault(key, {})
            row[stage] = row.get(stage, 0.0) + dt

    def _wrap_make(self, make):
        def traced_make(params):
            t0 = time.perf_counter()
            launch = make(params)
            key = id(params)
            self._add(self._by_params, key, "workloads.make",
                      time.perf_counter() - t0)
            if hasattr(launch, "bind") and hasattr(launch, "finish"):
                launch.bind = self._wrap_stage(launch.bind, key,
                                               "workloads.bind")
                if launch.finish is not None:
                    launch.finish = self._wrap_stage(launch.finish, key,
                                                     "workloads.finish")
            return launch
        return traced_make

    def _wrap_stage(self, fn, key: int, stage: str):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(self._by_params, key, stage,
                          time.perf_counter() - t0)
        return timed

    def install(self, workloads) -> "LayerTrace":
        """Wrap ``make`` of the named registry entries (undo: uninstall)."""
        from repro.serve.workloads import get_workload
        for key in sorted(set(workloads)):
            wl = get_workload(key)
            self._saved_makes.append((wl, wl.make))
            wl.make = self._wrap_make(wl.make)
        return self

    def uninstall(self) -> None:
        for wl, make in reversed(self._saved_makes):
            wl.make = make
        self._saved_makes.clear()

    def attach(self, cluster) -> None:
        """Wrap an in-process cluster's batcher and devices."""
        batcher = cluster.batcher
        form = batcher.form

        def traced_form(items):
            t0 = time.perf_counter()
            batches = form(items)
            dt = time.perf_counter() - t0
            if items:
                share = dt / len(items)
                for item in items:
                    self._add(self._by_req, item.request.id,
                              "serve.batch_form", share)
            with self._lock:
                self.form_calls.append((dt, len(items)))
            return batches

        batcher.form = traced_form
        self._attached.append(batcher)
        for worker in cluster.workers:
            device = worker.device

            def traced_compile(*args, _orig=device.compile, **kwargs):
                t0 = time.perf_counter()
                try:
                    return _orig(*args, **kwargs)
                finally:
                    rid = _active_request_id()
                    if rid is not None:
                        self._add(self._by_req, rid, "compiler.compile",
                                  time.perf_counter() - t0)

            def traced_run(*args, _orig=device.run_compiled, _dev=device,
                           **kwargs):
                n_san = len(_dev.sanitizer_results)
                t0 = time.perf_counter()
                try:
                    return _orig(*args, **kwargs)
                finally:
                    rid = _active_request_id()
                    if rid is not None:
                        stage = "sanitize.launch" \
                            if len(_dev.sanitizer_results) > n_san \
                            else "run_compiled"
                        self._add(self._by_req, rid, stage,
                                  time.perf_counter() - t0)

            device.compile = traced_compile
            device.run_compiled = traced_run
            self._attached.append(device)

    def detach(self) -> None:
        """Drop every instance wrapper added by :meth:`attach`."""
        for obj in self._attached:
            for name in ("form", "compile", "run_compiled"):
                obj.__dict__.pop(name, None)
        self._attached.clear()

    # -- folding -------------------------------------------------------------

    def _count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def fold(self, sent) -> None:
        """Fold one finished, successful request into the totals."""
        req = sent.request
        by_params = self._by_params.pop(id(req.params), {})
        by_req = self._by_req.pop(req.id, {})
        st = dict.fromkeys(STAGES, 0.0)
        st["client.late"] = sent.t_submit0 - sent.due
        st["serve.submit"] = sent.t_submit1 - sent.t_submit0
        trace = req.trace
        build_s = _span_s(trace, "jit:compile")
        self._count("isa.jit.builds", sum(
            1 for n in trace.find("jit:compile")
            if n.attrs.get("eligible")))
        graft = _root(trace, "shard")
        if graft is not None:
            # Shard worker: only its shipped span tree is visible here.
            shard_side = graft.dur_us / 1e6
            service_node = next((n for n in graft.children
                                 if n.name == "serve:request"), None)
            service = service_node.dur_us / 1e6 if service_node else 0.0
            st["shard.ipc"] = req.t_done_wall - sent.t_submit1 - shard_side
            st["serve.queue_wait"] = shard_side - service
            st["compiler.compile"] = _span_s(trace, "compile")
            tier_s = _span_s(trace, f"dispatch:{req.tier}")
            self._count("serve.batch_assemble_s",
                        _span_s(trace, "batch_assemble"))
        else:
            service = req.t_done_wall - req.t_dispatch_wall
            for stage in ("workloads.make", "workloads.bind",
                          "workloads.finish"):
                st[stage] = by_params.get(stage, 0.0)
            for stage in ("serve.batch_form", "compiler.compile",
                          "sanitize.launch"):
                st[stage] = by_req.get(stage, 0.0)
            st["serve.queue_wait"] = (req.t_dispatch_wall - sent.t_submit1
                                      - st["workloads.make"]
                                      - st["serve.batch_form"])
            tier_s = by_req.get("run_compiled", 0.0)
        if req.sanitized_launches:
            self._count("sanitize.launches", req.sanitized_launches)
            if graft is not None:
                st["sanitize.launch"] = tier_s
                tier_s = 0.0
        elif req.tier in _TIMED_TIERS:
            self._count(f"launches.{req.tier}")
        st["isa.jit.build"] = build_s
        if req.tier in _TIMED_TIERS:
            # in-process, run_compiled's time includes the JIT build; a
            # shard's dispatch span does not
            st[f"isa.{req.tier}.launch"] = tier_s - build_s \
                if graft is None else tier_s
        inner = sum(st[s] for s in (
            "workloads.bind", "compiler.compile", "sanitize.launch",
            "isa.jit.build", "isa.jit.launch", "isa.wide.launch",
            "isa.sequential.launch", "workloads.finish"))
        st["serve.unattributed"] = service - inner
        latency = req.t_done_wall - sent.due
        for stage, v in st.items():
            self.stage_s[stage] += v
        self.requests += 1
        self.latency_s += latency
        self.service_s += service
        self._count("compile.hits", req.cache_hits)
        self._count("compile.misses", req.cache_misses)
        self._count("batch_size_sum", req.batch_size)
        self._count("overhead_sim_us_sum", req.overhead_sim_us)
        self._count("requeues", req.requeues)

    # -- report ----------------------------------------------------------------

    def per_request_ms(self, stage: str) -> float:
        return self.stage_s[stage] * 1e3 / self.requests \
            if self.requests else 0.0

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics this trace can give (see BENCHMARK.json)."""
        n = max(1, self.requests)
        c = self.counts.get
        lookups = c("compile.hits", 0) + c("compile.misses", 0)
        launches = {t: c(f"launches.{t}", 0) for t in _TIMED_TIERS}
        total_launches = sum(launches.values())
        if self.form_calls:
            form_us = 1e6 * sum(dt for dt, _ in self.form_calls) \
                / len(self.form_calls)
        else:  # shard workers: mean batch_assemble span per request
            form_us = 1e6 * c("serve.batch_assemble_s", 0.0) / n
        out = {
            "client.late_ms": self.per_request_ms("client.late"),
            "serve.latency_ms": 1e3 * self.latency_s / n,
            "serve.submit_us": 1e3 * self.per_request_ms("serve.submit"),
            "serve.queue_wait_ms": self.per_request_ms("serve.queue_wait"),
            "serve.service_ms": 1e3 * self.service_s / n,
            "serve.batch_size": c("batch_size_sum", 0) / n,
            "serve.batch_form_us": form_us,
            "serve.unattributed_ms":
                self.per_request_ms("serve.unattributed"),
            "compiler.compiles": c("compile.misses", 0),
            "compiler.compile_ms": self.per_request_ms("compiler.compile"),
            "compiler.cache_hit_ratio":
                c("compile.hits", 0) / lookups if lookups else 0.0,
            "sanitize.launches": c("sanitize.launches", 0),
            "sanitize.launch_ms": self.per_request_ms("sanitize.launch"),
            "isa.jit.builds": c("isa.jit.builds", 0),
            "isa.jit.build_ms": self.per_request_ms("isa.jit.build"),
            "isa.jit.launch_ms": self.per_request_ms("isa.jit.launch"),
            "isa.wide.launch_ms": self.per_request_ms("isa.wide.launch"),
            "isa.sequential.launch_ms":
                self.per_request_ms("isa.sequential.launch"),
            "sim.overhead_sim_us": c("overhead_sim_us_sum", 0.0) / n,
            "workloads.make_ms": self.per_request_ms("workloads.make"),
            "workloads.bind_ms": self.per_request_ms("workloads.bind"),
            "workloads.finish_ms": self.per_request_ms("workloads.finish"),
            "shard.ipc_ms": self.per_request_ms("shard.ipc"),
            "shard.requeues": c("requeues", 0),
        }
        for tier in _TIMED_TIERS:
            out[f"isa.launch_share.{tier}"] = \
                launches[tier] / total_launches if total_launches else 0.0
        return out

    def table(self) -> str:
        """The per-stage self-time table, closing the mean latency."""
        lines = [f"{'stage':24s} {'ms/request':>11s} {'share':>7s}"]
        total = self.latency_s * 1e3 / max(1, self.requests)
        for stage in STAGES:
            ms = self.per_request_ms(stage)
            share = ms / total if total else 0.0
            lines.append(f"{stage:24s} {ms:11.4f} {share:7.1%}")
        lines.append(f"{'= latency (mean)':24s} {total:11.4f} "
                     f"({self.requests} requests)")
        return "\n".join(lines)


def ledger_closes(trace: LayerTrace, tol_ms: float = 1e-6) -> Optional[str]:
    """None when the stages sum to the mean latency, else a message."""
    if not trace.requests:
        return "no traced requests"
    total = sum(trace.per_request_ms(s) for s in STAGES)
    mean = trace.latency_s * 1e3 / trace.requests
    if abs(total - mean) > tol_ms:
        return f"stages sum to {total:.6f} ms, latency is {mean:.6f} ms"
    return None

"""The simulated GPU device and its runtime queue.

Host code creates a :class:`Device`, wraps numpy arrays in surfaces, and
enqueues kernels.  Each enqueue runs every hardware thread functionally,
folds the per-thread traces into a timing breakdown as the threads
retire, and records a :class:`KernelRun`.  Total time accumulates launch
overhead per enqueue — this is the effect that penalizes the OpenCL
bitonic sort's hundreds of kernel launches in Figure 5.

Two dispatch paths exist:

- :meth:`Device.run_cm` runs an *eager* CM kernel (a Python callable
  using :mod:`repro.cm`) one hardware thread at a time, streaming each
  retired trace into a :class:`~repro.sim.timing.TimingAccumulator` so
  memory stays O(1) in the grid size.
- :meth:`Device.run_compiled` runs a
  :class:`~repro.compiler.driver.CompiledKernel` over a grid on one of
  three tiers (``sequential``, ``wide``, ``jit``) through executors the
  device owns and reuses for every launch, so operand plans are shared
  by every thread (a compiled program is identical across threads) and
  across launches.  Combined with :meth:`Device.compile`'s kernel cache
  this is the fast path for repeated launches.

Both paths are instrumented through :mod:`repro.obs`: dispatches open
trace spans, per-kernel :class:`~repro.obs.breakdown.TimeBreakdown`
attribution is folded as threads retire (when enabled), and the
:class:`DeviceProfile` counters are backed by a
:class:`~repro.obs.metrics.MetricsRegistry`.  With the default disabled
observability the extra cost is a couple of branch checks per chunk.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

import repro.sanitize as sanitize_mod
from repro.isa.instructions import Opcode
from repro.memory.surfaces import BufferSurface, Image2DSurface, Surface
from repro.obs import get_observability
from repro.obs.breakdown import BreakdownAccumulator, TimeBreakdown
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracing import trace_span
from repro.sim import context as ctx_mod
from repro.sim.batch import TracingExecutor
from repro.sim.context import ThreadContext
from repro.sim.machine import GEN11_ICL, MachineConfig
from repro.sim.timing import KernelTiming, TimingAccumulator, time_kernel
from repro.sim.trace import ThreadTrace

#: Threads whose traces the sequential tier retires per chunk.
CHUNK_THREADS = 64
#: Threads (stacked GRFs + traces) live at once on the wide and JIT tiers.
MAX_LIVE_THREADS = 1024
#: The compiled dispatch tiers ``run_compiled(tier=...)`` can force; the
#: same strings :attr:`KernelRun.path` reports.
TIERS = ("sequential", "wide", "jit")


@dataclass
class KernelRun:
    """One completed kernel enqueue."""

    name: str
    timing: KernelTiming
    launch_overhead_us: float
    #: per-bucket time attribution; present when observability breakdowns
    #: were enabled for the launch.
    breakdown: Optional[TimeBreakdown] = None
    #: dispatch tier that executed the launch: ``cm`` (eager),
    #: ``sequential``, ``wide``, ``jit``, or ``external`` (submitted
    #: traces).  Simulated timing is tier-invariant; the tier only
    #: matters for wall-clock and observability.
    path: str = "sequential"

    @property
    def kernel_time_us(self) -> float:
        return self.timing.time_us

    @property
    def total_time_us(self) -> float:
        return self.timing.time_us + self.launch_overhead_us


class DeviceProfile:
    """Counters describing how the device dispatched work.

    The values live in a :class:`MetricsRegistry` (one private registry
    per profile unless one is injected), so ``device.profile.registry``
    can be scraped or merged into reports while the attribute API
    (``profile.threads_run`` etc.) keeps working.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._threads_run = self.registry.counter(
            "device_threads_run", "hardware threads executed")
        self._chunks_dispatched = self.registry.counter(
            "device_chunks_dispatched", "trace chunks retired")
        self._peak_live_traces = self.registry.gauge(
            "device_peak_live_traces", "high-water mark of live traces")
        self._compile_cache_hits = self.registry.counter(
            "compile_cache_hits", "kernel cache hits via Device.compile")
        self._compile_cache_misses = self.registry.counter(
            "compile_cache_misses", "kernel cache misses via Device.compile")
        self._jit_compiles = self.registry.counter(
            "jit_compiles", "megakernel JIT compilations")
        self._jit_cache_hits = self.registry.counter(
            "jit_cache_hits", "launches reusing a cached megakernel")
        self._jit_declines = self.registry.counter(
            "jit_declines", "kernels the JIT refused (ran wide instead)")
        #: per-tier launch counters (cm / sequential / wide / jit /
        #: external) — which dispatch tier actually ran each enqueue.
        self._tier_launches: Dict[str, Counter] = {}
        #: wide-admission gate outcomes per launch (sanitized / admitted
        #: / refused / trusted / bypassed / ineligible / forced_scalar).
        self._gate_outcomes: Dict[str, Counter] = {}

    def count_launch(self, tier: str) -> None:
        """Tally one launch on its dispatch tier."""
        c = self._tier_launches.get(tier)
        if c is None:
            c = self._tier_launches[tier] = self.registry.counter(
                "device_tier_launches", tier=tier)
        c.inc()

    def count_gate(self, outcome: str) -> None:
        """Tally one wide-admission gate decision."""
        c = self._gate_outcomes.get(outcome)
        if c is None:
            c = self._gate_outcomes[outcome] = self.registry.counter(
                "device_wide_gate", outcome=outcome)
        c.inc()

    @property
    def tier_launches(self) -> Dict[str, int]:
        return {tier: int(c.value)
                for tier, c in sorted(self._tier_launches.items())}

    @property
    def gate_outcomes(self) -> Dict[str, int]:
        return {outcome: int(c.value)
                for outcome, c in sorted(self._gate_outcomes.items())}

    # Attribute-compatible accessors over the registry instruments.

    @property
    def threads_run(self) -> int:
        return int(self._threads_run.value)

    @threads_run.setter
    def threads_run(self, value: int) -> None:
        self._threads_run.inc(value - self._threads_run.value)

    @property
    def chunks_dispatched(self) -> int:
        return int(self._chunks_dispatched.value)

    @chunks_dispatched.setter
    def chunks_dispatched(self, value: int) -> None:
        self._chunks_dispatched.inc(value - self._chunks_dispatched.value)

    @property
    def peak_live_traces(self) -> int:
        return int(self._peak_live_traces.value)

    @peak_live_traces.setter
    def peak_live_traces(self, value: int) -> None:
        self._peak_live_traces.set(value)

    @property
    def compile_cache_hits(self) -> int:
        return int(self._compile_cache_hits.value)

    @compile_cache_hits.setter
    def compile_cache_hits(self, value: int) -> None:
        self._compile_cache_hits.inc(value - self._compile_cache_hits.value)

    @property
    def compile_cache_misses(self) -> int:
        return int(self._compile_cache_misses.value)

    @compile_cache_misses.setter
    def compile_cache_misses(self, value: int) -> None:
        self._compile_cache_misses.inc(
            value - self._compile_cache_misses.value)

    @property
    def jit_compiles(self) -> int:
        return int(self._jit_compiles.value)

    @jit_compiles.setter
    def jit_compiles(self, value: int) -> None:
        self._jit_compiles.inc(value - self._jit_compiles.value)

    @property
    def jit_cache_hits(self) -> int:
        return int(self._jit_cache_hits.value)

    @jit_cache_hits.setter
    def jit_cache_hits(self, value: int) -> None:
        self._jit_cache_hits.inc(value - self._jit_cache_hits.value)

    @property
    def jit_declines(self) -> int:
        return int(self._jit_declines.value)

    @jit_declines.setter
    def jit_declines(self, value: int) -> None:
        self._jit_declines.inc(value - self._jit_declines.value)

    def note_live_traces(self, count: int) -> None:
        """Record an observed number of concurrently live traces."""
        self._peak_live_traces.set_max(count)

    def __repr__(self) -> str:
        return (f"DeviceProfile(threads_run={self.threads_run}, "
                f"chunks_dispatched={self.chunks_dispatched}, "
                f"peak_live_traces={self.peak_live_traces}, "
                f"compile_cache_hits={self.compile_cache_hits}, "
                f"compile_cache_misses={self.compile_cache_misses}, "
                f"jit_compiles={self.jit_compiles}, "
                f"jit_cache_hits={self.jit_cache_hits}, "
                f"jit_declines={self.jit_declines})")


class Device:
    """A simulated Gen GPU plus its in-order execution queue."""

    def __init__(self, machine: MachineConfig = GEN11_ICL,
                 obs=None) -> None:
        self.machine = machine
        self.runs: list[KernelRun] = []
        self.surfaces: list = []
        #: observability bundle; defaults to the process-wide one (a
        #: disabled no-op unless ``repro.obs.enable()`` was called).
        self.obs = obs if obs is not None else get_observability()
        self.profile = DeviceProfile()
        #: lazily-created KernelCache (avoids importing the compiler
        #: package unless the device actually compiles something).
        self.kernel_cache = None
        #: kernel identity -> (kernel, RaceVerdict) from sanitized
        #: launches; consulted by ``run_compiled(tier=None)`` before
        #: taking the wide path.  Lifecycle matches the kernel cache
        #: (``reset(clear_cache=True)`` drops it).
        self._race_verdicts: dict = {}
        #: kernel *name* -> RaceVerdict adopted from elsewhere (a peer
        #: shard that sanitized the same kernel first); consulted when
        #: no identity-keyed verdict exists, so an adopted ``race_free``
        #: admits the wide path without a local sanitized launch.
        self._adopted_verdicts: Dict[str, object] = {}
        #: (kernel name, RaceVerdict) pairs produced by this device's
        #: own sanitized launches, not yet drained for broadcast.
        self._fresh_verdicts: list = []
        #: KernelSanitizeResult per sanitized launch on this device.
        self.sanitizer_results: list = []
        #: per-surface-label OOB clipped-lane totals observed by this
        #: device's launches (counting mode; see repro.sanitize.oob).
        self.oob_lanes: Dict[str, int] = {}
        #: the executors ``run_compiled`` reuses for every launch, built
        #: on first use: a sequential TracingExecutor and a
        #: JitTracingExecutor (the wide interpreter when no megakernel
        #: is bound).  A device runs one launch at a time.
        self._seq_ex = None
        self._wide_ex = None

    # -- memory management -------------------------------------------------

    def buffer(self, data_or_size) -> BufferSurface:
        """Create a linear buffer surface from an array or a byte size."""
        if isinstance(data_or_size, (int, np.integer)):
            surf = BufferSurface.allocate(int(data_or_size))
        else:
            surf = BufferSurface.from_array(np.asarray(data_or_size))
        surf.obs_label = f"buf{len(self.surfaces)}"
        self.surfaces.append(surf)
        return surf

    def image2d(self, data: np.ndarray, bytes_per_pixel: int = 1) -> Image2DSurface:
        surf = Image2DSurface(np.asarray(data), bytes_per_pixel)
        surf.obs_label = f"img{len(self.surfaces)}"
        self.surfaces.append(surf)
        return surf

    def begin_enqueue(self) -> None:
        """Start a new kernel: caches are cold again for line tracking."""
        for surf in self.surfaces:
            surf.reset_line_tracking()

    # -- compilation --------------------------------------------------------

    def compile(self, body: Callable, name: str,
                surfaces: Sequence[Tuple[str, bool]],
                scalar_params: Sequence[str] = (),
                optimize: bool = True):
        """Compile ``body`` through the device's kernel cache.

        Repeated compiles of the same (body, signature) return the cached
        :class:`CompiledKernel`; hits and misses are tallied both in the
        cache's own stats and in :attr:`profile` (and, when observability
        is enabled, in the shared metrics registry).
        """
        if self.kernel_cache is None:
            from repro.compiler.cache import KernelCache
            self.kernel_cache = KernelCache(
                registry=self.obs.registry if self.obs.enabled else None)
        kernel, hit = self.kernel_cache.lookup(
            body, name, surfaces, scalar_params=scalar_params,
            optimize=optimize)
        if hit:
            self.profile.compile_cache_hits += 1
        else:
            self.profile.compile_cache_misses += 1
        return kernel

    # -- kernel execution ---------------------------------------------------

    def _grid_ids(self, grid: Sequence[int]):
        dims = [range(g) for g in grid]
        for tid in itertools.product(*reversed(dims)):
            yield tuple(reversed(tid))

    def run_cm(self, kernel: Callable, grid: Sequence[int],
               args: Tuple = (), name: Optional[str] = None) -> KernelRun:
        """Launch a CM kernel over a 1D/2D/3D grid of hardware threads.

        The kernel body reads its coordinates via ``repro.cm.thread_x()``
        etc.; one invocation = one hardware thread (the CM model).  Each
        thread's trace is folded into the timing totals as it retires, so
        only one trace is live at a time regardless of grid size.
        """
        kname = name or getattr(kernel, "__name__", "cm")
        self.begin_enqueue()
        # Under an active sanitizer session every eager launch runs with
        # a per-kernel race detector attached to the bound surfaces (the
        # eager path is already sequential, so sanitizing adds only the
        # recording cost).
        sess = sanitize_mod.current_session()
        if sess is not None:
            sess.begin_kernel(kname, self.surfaces)
        acc = TimingAccumulator(self.machine)
        bacc = (BreakdownAccumulator(self.machine)
                if self.obs.breakdowns else None)
        thread_ctx: Optional[ThreadContext] = None
        n_threads = 0
        with trace_span("dispatch", kernel=kname, path="cm",
                        grid=tuple(grid)):
            with trace_span("dispatch:cm", kernel=kname, grid=tuple(grid),
                            chunk=0) as tier_span:
                for thread_id in self._grid_ids(grid):
                    if sess is not None:
                        sess.race.begin_thread(thread_id)
                    trace = ThreadTrace(self.machine)
                    if thread_ctx is None:
                        thread_ctx = ThreadContext(trace,
                                                   thread_id=thread_id)
                    else:
                        thread_ctx.reuse(trace, thread_id=thread_id)
                    ctx_mod.activate(thread_ctx)
                    try:
                        kernel(*args)
                    finally:
                        ctx_mod.deactivate()
                    acc.add(trace)
                    if bacc is not None:
                        bacc.add(trace)
                    n_threads += 1
                tier_span.set(threads=n_threads)
        self.profile.threads_run += n_threads
        self.profile.count_launch("cm")
        if n_threads:
            # The eager path streams: exactly one trace is ever live.
            self.profile.note_live_traces(1)
        if sess is not None:
            sess.finish_kernel()
        self._collect_oob(self.surfaces)
        return self._record(acc.finalize(), kname, bacc, path="cm")

    def run_compiled(self, kernel, grid: Sequence[int],
                     surfaces: Sequence[Surface],
                     scalars: Union[Dict[str, int],
                                    Callable[[Tuple[int, ...]],
                                             Dict[str, int]], None] = None,
                     name: Optional[str] = None,
                     tier: Optional[str] = None,
                     validate: Optional[str] = None) -> KernelRun:
        """Launch a :class:`CompiledKernel` over a grid of hardware threads.

        ``surfaces`` bind positionally to the kernel's surface params.
        ``scalars`` supplies the symbolic integer parameters: either one
        dict shared by every thread, or a callable mapping a thread id
        tuple to that thread's dict (how per-thread coordinates are fed).

        ``tier`` selects the dispatch tier; it takes the same strings
        :attr:`KernelRun.path` reports.  ``None`` (the default) is the
        auto policy: sanitize gate, then the JIT tier if the program
        compiles to a megakernel (:mod:`repro.isa.jit`), else the wide
        interpreter (:mod:`repro.isa.wide`), else sequential.  Because
        a compiled program's *static* instruction sequence is identical
        for every thread (divergence is execution masks, not skipped
        instructions), the wide and JIT tiers stack all thread register
        files and execute each instruction once for the whole grid,
        chunked so at most :data:`MAX_LIVE_THREADS` threads (GRFs +
        traces) are live at a time.  Per-thread traces are
        reconstructed from the wide execution, so results and timing
        are bit-identical on every tier.  The sequential tier runs one
        thread at a time, retiring traces every :data:`CHUNK_THREADS`.

        A forced ``tier="sequential"``, ``"wide"`` or ``"jit"`` pins
        that tier and raises :class:`ValueError` if the program cannot
        run on it.  ``"wide"`` keeps the interpreter even for
        JIT-eligible programs.

        The wide and JIT tiers are only bit-identical for *race-free*
        programs, so the auto policy is gated by the sanitizer
        (``validate``, default from
        :func:`repro.sanitize.default_validate` / ``REPRO_SANITIZE``):

        - ``"first"`` — a kernel's first auto launch runs sanitized,
          with the race detector and uninitialized-GRF tracker
          attached; the cached :class:`~repro.sanitize.race.RaceVerdict`
          then admits (``race_free``) or permanently refuses (conflicts
          found) the vector tiers for subsequent launches.  Simulated
          timing is identical either way — only wall-clock differs.
        - ``"always"`` — every launch runs sanitized.
        - ``"off"`` — trust the caller; eligible programs go wide
          unchecked (the pre-sanitizer behaviour).

        A sanitized auto launch runs the checkers on the wide
        interpreter (:meth:`_run_sanitized_wide`) and reruns
        sanitized-sequential only if they find a race or an
        uninitialized read, or the pass raises; programs with BARRIER,
        programs the wide interpreter cannot run and a pinned
        ``tier="sequential"`` go sanitized-sequential directly.
        :attr:`KernelRun.path` names the tier the launch really ran on.
        A forced ``"wide"`` or ``"jit"`` bypasses validation (the
        caller asserts race freedom); ``"sequential"`` under
        ``"first"`` stays an unsanitized scalar launch so tests pinning
        scalar-path internals see no hooks.

        The device owns one sequential and one wide/JIT executor and
        reuses them for every launch (their operand caches survive
        between launches).  Each launch rebinds them to its surface
        table and unbinds everything it bound when it ends, normally or
        by an exception, so no executor pins a launch's surfaces,
        plans, megakernel, sanitizer hooks or stacked register file.
        """
        from repro.compiler.finalizer import SCRATCH_BTI
        from repro.isa.wide import ineligible_reason

        if tier is not None and tier not in TIERS:
            raise ValueError(f"tier must be None or one of {TIERS}, "
                             f"got {tier!r}")
        kname = name or kernel.name
        self.begin_enqueue()
        table = {i: s for i, s in enumerate(surfaces)}

        # Pre-resolve scalar parameter GRF bases once for the whole grid.
        scalar_bases = []
        for pname, vreg in kernel.visa.params.items():
            base = kernel.allocation.grf_offset.get(vreg.id)
            if base is not None:  # params optimized away have no slot
                scalar_bases.append((pname, base))

        per_thread = callable(scalars)
        fixed = {} if scalars is None or per_thread else dict(scalars)

        ineligible = ineligible_reason(kernel.program)
        eligible = ineligible is None
        if validate is not None:
            mode = validate
        elif sanitize_mod.current_session() is not None:
            mode = "always"  # inside sanitize.session(): check everything
        else:
            mode = sanitize_mod.default_validate()
        if mode not in sanitize_mod.VALIDATE_MODES:
            raise ValueError(
                f"validate must be one of {sanitize_mod.VALIDATE_MODES}, "
                f"got {mode!r}")
        cached = self._race_verdicts.get(id(kernel))
        verdict = cached[1] if (cached is not None and cached[0] is kernel) \
            else None
        adopted = False
        if verdict is None:
            # fall back to a verdict adopted by kernel name (broadcast
            # from a peer shard that already sanitized this kernel).
            verdict = self._adopted_verdicts.get(kname)
            adopted = verdict is not None
        #: may the wide path be taken without a sanitized launch first?
        certified = mode == "off" or (verdict is not None
                                      and verdict.race_free)
        #: forced vector tiers bypass validation: the caller asserts
        #: race freedom.
        forced = tier == "wide" or tier == "jit"
        sanitize_now = not forced and (
            mode == "always"
            or (mode == "first" and tier is None and eligible
                and verdict is None))

        # The gate decision, tallied per launch and emitted as an
        # (instant) ``sanitize_gate`` span so a request's trace shows
        # *why* its launch took the tier it did.
        if forced:
            gate = "bypassed"          # caller asserted race freedom
        elif sanitize_now:
            gate = "sanitized"         # this launch runs under checkers
        elif tier == "sequential":
            gate = "forced_scalar"     # caller pinned the scalar path
        elif not eligible:
            gate = "ineligible"        # program cannot vectorize
        elif mode == "off":
            gate = "trusted"           # validation disabled
        elif certified:
            gate = "admitted"          # race-free verdict on file
        elif verdict is not None:
            gate = "refused"           # racy verdict: wide denied
        else:
            gate = "unverified"
        self.profile.count_gate(gate)
        gate_attrs = {"kernel": kname, "mode": mode, "outcome": gate}
        if gate == "ineligible":
            # distinguish *why* the program cannot vectorize: an
            # unsupported message kind vs. malformed control flow
            # (well-formed simd_if/simd_while programs are eligible).
            gate_attrs["reason"] = ineligible
        if verdict is not None:
            gate_attrs["race_free"] = verdict.race_free
        if adopted:
            gate_attrs["adopted"] = True
        with trace_span("sanitize_gate", **gate_attrs):
            pass

        if forced or (tier is None and not sanitize_now and eligible
                      and certified):
            if not eligible:
                raise ValueError(
                    f"{kname}: program is not wide-eligible "
                    f"(tier={tier!r} was requested)")
            return self._run_compiled_wide(
                kernel, grid, table, scalar_bases, scalars, per_thread,
                fixed, kname, tier)
        if sanitize_now and tier is None and eligible and not any(
                inst.opcode is Opcode.BARRIER for inst in kernel.program):
            run = self._run_sanitized_wide(
                kernel, grid, table, scalar_bases, scalars, per_thread,
                fixed, kname)
            if run is not None:
                return run

        san = oob_base = None
        if sanitize_now:
            race = sanitize_mod.RaceDetector()
            race.attach(table.values())
            san = sanitize_mod.ExecSanitizer(
                race=race, uninit=sanitize_mod.UninitTracker())
            oob_base = [(s, s.oob_clipped_lanes) for s in table.values()]

        scratch = None
        if kernel.allocation.scratch_bytes:
            scratch = BufferSurface.allocate(kernel.allocation.scratch_bytes)
            scratch.obs_label = "scratch"
            table[SCRATCH_BTI] = scratch

        ex = self._seq_ex
        if ex is None:
            ex = self._seq_ex = TracingExecutor()
        ex.rebind(table)
        ex.san = san
        acc = TimingAccumulator(self.machine)
        bacc = (BreakdownAccumulator(self.machine)
                if self.obs.breakdowns else None)
        live: list[ThreadTrace] = []
        live_peak = 0
        n_threads = n_chunks = 0
        try:
            with trace_span("dispatch", kernel=kname, path="compiled",
                            grid=tuple(grid)), \
                    trace_span("dispatch:sequential", kernel=kname,
                               grid=tuple(grid), chunk=0) as tier_span:
                for thread_id in self._grid_ids(grid):
                    ex.reset()
                    if san is not None:
                        san.begin_thread(thread_id)
                    if scratch is not None:
                        scratch.bytes.fill(0)
                    trace = ThreadTrace(self.machine)
                    ex.begin_thread(trace)
                    values = scalars(thread_id) if per_thread else fixed
                    for pname, base in scalar_bases:
                        value = values.get(pname)
                        if value is not None:
                            ex.grf.write_bytes(
                                base, np.asarray([value], dtype=np.int32))
                            if san is not None:
                                san.mark_grf_valid(base, 4)
                    ex.run(kernel.program)
                    n_threads += 1
                    trace.note_grf(kernel.allocation.max_grf_bytes)
                    live.append(trace)
                    if len(live) > live_peak:
                        live_peak = len(live)
                    if len(live) >= CHUNK_THREADS:
                        self._retire_chunk(acc, live, bacc, kernel=kname)
                        n_chunks += 1
                if live:
                    self._retire_chunk(acc, live, bacc, kernel=kname)
                    n_chunks += 1
                tier_span.set(threads=n_threads)
        finally:
            ex.release()
        self.profile.threads_run += n_threads
        self.profile.chunks_dispatched += n_chunks
        self.profile.note_live_traces(live_peak)
        self.profile.count_launch("sequential")

        if san is not None:
            self._finish_sanitized(kernel, kname, san, san.race.finish(),
                                   oob_base)
        self._collect_oob(table.values())
        return self._record(acc.finalize(), kname, bacc, path="sequential")

    def _run_sanitized_wide(self, kernel, grid, table, scalar_bases,
                            scalars, per_thread, fixed,
                            kname: str) -> Optional[KernelRun]:
        """The vector pass of a sanitized launch, on the wide interpreter.

        Runs the launch with the race detector and uninitialized-GRF
        tracker attached to the device's wide executor.  A clean pass is
        the launch (its results, timing and verdict are exactly the
        sequential ones, see :mod:`repro.sanitize.race`).  When the
        checkers find something, or the pass raises, the bound surfaces
        get back their bytes, line tracking and OOB counters and this
        returns ``None``: the caller then reruns the launch
        sanitized-sequential, which produces the reported findings
        exactly as before, and the discarded pass leaves no
        :class:`KernelRun`, profile counters or OOB totals behind.
        """
        surfs = list(table.values())
        saved = []
        for surf in surfs:
            data = np.empty_like(surf.bytes)
            surf.snapshot_into(data)
            saved.append((surf, data, surf._touched.copy(),
                          surf.oob_clipped_lanes, len(surf.oob_events)))
        race = sanitize_mod.RaceDetector()
        race.attach(surfs)
        san = sanitize_mod.ExecSanitizer(
            race=race, uninit=sanitize_mod.UninitTracker())
        try:
            run = self._run_compiled_wide(
                kernel, grid, dict(table), scalar_bases, scalars,
                per_thread, fixed, kname, "wide", san=san)
        except Exception:
            run = None
        finally:
            race.detach()
        if run is None:
            for surf, data, touched, lanes, events in saved:
                surf.restore_from(data)
                surf._touched[:] = touched
                surf.oob_clipped_lanes = lanes
                del surf.oob_events[events:]
        return run

    def _finish_sanitized(self, kernel, kname: str, san, verdict,
                          oob_base) -> None:
        """Fold a sanitized launch into verdicts and reports."""
        self._race_verdicts[id(kernel)] = (kernel, verdict)
        self._fresh_verdicts.append((kname, verdict))
        oob: Dict[str, int] = {}
        for surf, base in oob_base:
            delta = int(surf.oob_clipped_lanes) - base
            if delta:
                label = getattr(surf, "obs_label", "surface")
                oob[label] = oob.get(label, 0) + delta
        result = sanitize_mod.KernelSanitizeResult(
            kernel=kname, verdict=verdict,
            uninit=list(san.uninit.findings),
            uninit_total=san.uninit.total, oob_lanes=oob)
        self.sanitizer_results.append(result)
        if self.obs.enabled:
            reg = self.obs.registry
            if not verdict.race_free:
                reg.counter("sanitize_race_conflicts", kernel=kname).inc(
                    len(verdict.conflicts))
            if result.uninit_total:
                reg.counter("sanitize_uninit_reads", kernel=kname).inc(
                    result.uninit_total)
        sess = sanitize_mod.current_session()
        if sess is not None:
            sess.report.add(result)

    def adopt_race_verdict(self, kname: str, verdict) -> None:
        """Adopt a :class:`~repro.sanitize.race.RaceVerdict` by name.

        Verdicts travel between devices by kernel name (a shard cluster
        broadcasts each worker's fresh verdicts so a kernel sanitized
        once is wide-admitted everywhere).  A locally produced verdict
        (identity-keyed) always wins over an adopted one; among adopted
        verdicts a racy one is never overwritten by a race-free one —
        refusal is sticky.
        """
        prior = self._adopted_verdicts.get(kname)
        if prior is not None and not prior.race_free:
            return
        self._adopted_verdicts[kname] = verdict

    def drain_race_verdicts(self) -> list:
        """Return and clear (name, verdict) pairs from local sanitized
        launches since the last drain, for broadcast to peer devices.

        Pop-based so another thread can drain concurrently with the
        launching thread appending (list.pop(0)/append are atomic).
        """
        fresh = []
        while self._fresh_verdicts:
            try:
                fresh.append(self._fresh_verdicts.pop(0))
            except IndexError:  # pragma: no cover - concurrent drain
                break
        return fresh

    def _collect_oob(self, surfs) -> None:
        """Fold per-surface OOB clip deltas into device totals + metrics."""
        for surf in surfs:
            total = int(getattr(surf, "oob_clipped_lanes", 0))
            seen = getattr(surf, "_oob_reported", 0)
            delta = total - seen
            if delta <= 0:
                continue
            surf._oob_reported = total
            label = getattr(surf, "obs_label", "surface")
            self.oob_lanes[label] = self.oob_lanes.get(label, 0) + delta
            if self.obs.enabled:
                self.obs.registry.counter(
                    "sanitize_oob_lanes", surface=label).inc(delta)

    def _jit_for(self, kernel, kname: str):
        """Resolve the kernel's cached JIT megakernel (compiling once).

        Returns ``None`` when the program is not JIT-eligible; updates
        the device profile / metrics with compile-vs-hit accounting and
        counts a decline once per kernel, when the JIT first refuses it.
        """
        from repro.isa.jit import get_jit, jit_decline_reason

        t0 = time.perf_counter()
        jitk, cached = get_jit(kernel)
        if jitk is None:
            if not cached:
                self.profile.jit_declines += 1
                if self.obs.enabled:
                    self.obs.registry.counter(
                        "jit_declines", kernel=kname,
                        reason=jit_decline_reason(kernel.program)).inc()
            return None
        if cached:
            self.profile.jit_cache_hits += 1
            if self.obs.enabled:
                self.obs.registry.counter(
                    "jit_cache_hits", kernel=kname).inc()
        else:
            dt = time.perf_counter() - t0
            self.profile.jit_compiles += 1
            if self.obs.enabled:
                reg = self.obs.registry
                reg.counter("jit_compiles", kernel=kname).inc()
                reg.counter("jit_compile_seconds", kernel=kname).inc(dt)
        return jitk

    def _run_compiled_wide(self, kernel, grid, table, scalar_bases,
                           scalars, per_thread, fixed, kname: str,
                           tier: Optional[str],
                           san=None) -> Optional[KernelRun]:
        """Grid-vectorized dispatch: each instruction runs once for a
        whole chunk of threads (see :mod:`repro.isa.wide`), through the
        kernel's megakernel unless ``tier="wide"`` pins the
        interpreter.

        With an :class:`~repro.sanitize.hooks.ExecSanitizer` ``san`` (on
        the interpreter only) the launch is checked as it runs; if the
        checkers find a race or an uninitialized read this returns
        ``None`` without recording anything (see
        :meth:`_run_sanitized_wide`)."""
        from repro.compiler.finalizer import SCRATCH_BTI
        from repro.isa.jit import JitTracingExecutor
        from repro.isa.wide import WideScratch

        thread_ids = list(self._grid_ids(grid))
        total = len(thread_ids)

        # Scalar parameters become per-thread int32 columns, seeded into
        # the stacked GRF in one strided write per parameter per chunk.
        cols: Dict[str, np.ndarray] = {}
        #: which threads were given each parameter (the uninit tracker's
        #: view of the seeded GRF bytes)
        seeded: Dict[str, np.ndarray] = {}
        if scalar_bases:
            if per_thread:
                values = [scalars(tid) for tid in thread_ids]
                for pname, _base in scalar_bases:
                    cols[pname] = np.asarray(
                        [0 if v.get(pname) is None else v.get(pname)
                         for v in values], dtype=np.int32)
                    if san is not None:
                        seeded[pname] = np.asarray(
                            [v.get(pname) is not None for v in values])
            else:
                for pname, _base in scalar_bases:
                    v = fixed.get(pname)
                    cols[pname] = np.full(
                        total, 0 if v is None else int(v), dtype=np.int32)
                    if san is not None:
                        seeded[pname] = np.full(total, v is not None)

        oob_base = None if san is None else \
            [(surf, surf.oob_clipped_lanes) for surf in table.values()]
        scratch = None
        if kernel.allocation.scratch_bytes:
            scratch = WideScratch(0, kernel.allocation.scratch_bytes)
            table[SCRATCH_BTI] = scratch

        jitk = None if tier == "wide" else self._jit_for(kernel, kname)
        if tier == "jit" and jitk is None:
            raise ValueError(
                f"{kname}: program is not JIT-eligible "
                f"(tier='jit' was requested)")
        # One executor serves both tiers: without a bound megakernel it
        # is the wide interpreter.
        ex = self._wide_ex
        if ex is None:
            ex = self._wide_ex = JitTracingExecutor()
        ex.rebind(table)
        ex.bind_jit(jitk)
        ex.bind_plans(kernel.plan_table())
        ex.san = san
        path = "jit" if jitk is not None else "wide"
        acc = TimingAccumulator(self.machine)
        bacc = (BreakdownAccumulator(self.machine)
                if self.obs.breakdowns else None)
        live_peak = n_chunks = 0
        try:
            with trace_span("dispatch", kernel=kname, path=path,
                            grid=tuple(grid), threads=total) as span:
                for chunk_idx, start in enumerate(
                        range(0, total, MAX_LIVE_THREADS)):
                    count = min(MAX_LIVE_THREADS, total - start)
                    ex.reset(count)
                    if scratch is not None:
                        scratch.resize(count)
                    ex.begin_launch(self.machine)
                    if san is not None:
                        san.begin_threads(thread_ids[start:start + count])
                    for pname, base in scalar_bases:
                        ex.seed_scalar(base, cols[pname][start:start + count])
                        if san is not None:
                            san.mark_grf_valid(
                                base, 4,
                                seeded[pname][start:start + count, None])
                    with trace_span(f"dispatch:{path}", kernel=kname,
                                    grid=tuple(grid), chunk=chunk_idx,
                                    threads=count):
                        ex.run(kernel.program)
                    if count > live_peak:
                        live_peak = count
                    n_chunks += 1
                    if jitk is not None and bacc is None:
                        # JIT chunks fold timing without fanning the
                        # template out into per-thread traces (the
                        # breakdown profiler still needs real traces).
                        with trace_span("chunk", kernel=kname,
                                        threads=count):
                            ex.fold_chunk(
                                acc, kernel.allocation.max_grf_bytes)
                    else:
                        traces = ex.drain_traces()
                        for tr in traces:
                            tr.note_grf(kernel.allocation.max_grf_bytes)
                        self._retire_chunk(acc, traces, bacc,
                                           kernel=kname)
                if san is not None:
                    verdict = san.race.finish()
                    if not verdict.race_free or san.uninit.total:
                        span.set(discarded=True)
                        return None
        finally:
            ex.release()
        self.profile.threads_run += total
        self.profile.chunks_dispatched += n_chunks
        if live_peak:
            self.profile.note_live_traces(live_peak)
        self.profile.count_launch(path)
        if san is not None:
            self._finish_sanitized(kernel, kname, san, verdict, oob_base)
        self._collect_oob(table.values())
        return self._record(acc.finalize(), kname, bacc, path=path)

    def _retire_chunk(self, acc: TimingAccumulator,
                      live: list, bacc=None,
                      kernel: Optional[str] = None) -> None:
        with trace_span("chunk", kernel=kernel, threads=len(live)):
            acc.extend(live)
            if bacc is not None:
                bacc.extend(live)
            live.clear()

    def submit(self, traces: Sequence[ThreadTrace], name: str) -> KernelRun:
        """Record a completed enqueue built from externally-run traces."""
        bacc = None
        if self.obs.breakdowns:
            bacc = BreakdownAccumulator(self.machine)
            bacc.extend(traces)
        self.profile.count_launch("external")
        return self._record(time_kernel(traces, self.machine), name, bacc,
                            path="external")

    def _record(self, timing: KernelTiming, name: str,
                bacc: Optional[BreakdownAccumulator] = None,
                path: str = "sequential") -> KernelRun:
        overhead = self.machine.launch_overhead_us
        with trace_span("fold", kernel=name, path=path):
            breakdown = None
            if bacc is not None:
                breakdown = bacc.finalize(name, timing,
                                          launch_overhead_us=overhead)
            run = KernelRun(name=name, timing=timing,
                            launch_overhead_us=overhead,
                            breakdown=breakdown, path=path)
        self.runs.append(run)
        if self.obs.enabled:
            reg = self.obs.registry
            reg.counter("kernel_launches", kernel=name).inc()
            reg.counter("kernel_time_us", kernel=name).inc(timing.time_us)
            reg.counter("kernel_threads",
                        kernel=name).inc(timing.num_threads)
            reg.counter("kernel_dram_bytes",
                        kernel=name).inc(timing.dram_bytes)
            reg.counter("kernel_barriers", kernel=name).inc(timing.barriers)
        return run

    def new_trace(self) -> ThreadTrace:
        return ThreadTrace(self.machine)

    # -- statistics -------------------------------------------------------

    @property
    def total_time_us(self) -> float:
        """Total queue time: kernels plus launch overhead.

        The first enqueue pays the full driver overhead; subsequent
        back-to-back enqueues pipeline behind GPU execution and pay only
        the dispatch gap.
        """
        if not self.runs:
            return 0.0
        overhead = self.machine.launch_overhead_us + \
            (len(self.runs) - 1) * self.machine.pipelined_launch_us
        return self.kernel_time_us + overhead

    @property
    def kernel_time_us(self) -> float:
        return sum(r.kernel_time_us for r in self.runs)

    @property
    def launches(self) -> int:
        return len(self.runs)

    def reset(self, clear_cache: bool = False) -> None:
        """Return the device to a just-constructed state for reuse.

        Clears the recorded runs (the timing accumulator behind
        :attr:`total_time_us`), releases the bound surfaces and the
        device's executors, and zeroes every :class:`DeviceProfile`
        counter, so pooled devices can be
        reused across load-generator runs without leaking state.  The
        kernel cache survives by default — recompiling is exactly what a
        pooled device wants to avoid — and its hit/miss stats are reset;
        ``clear_cache=True`` also drops the cached programs.
        """
        self.runs.clear()
        self.surfaces.clear()
        self.profile = DeviceProfile()
        self.sanitizer_results.clear()
        self.oob_lanes.clear()
        self._seq_ex = self._wide_ex = None
        if self.kernel_cache is not None:
            if clear_cache:
                self.kernel_cache.clear()
            self.kernel_cache.stats = type(self.kernel_cache.stats)()
        if clear_cache:
            # sanitizer verdicts are keyed by kernel identity, exactly
            # like cached programs: drop them together (adopted,
            # name-keyed verdicts go too — a fresh program under an old
            # name must not inherit a stale admission).
            self._race_verdicts.clear()
            self._adopted_verdicts.clear()
            self._fresh_verdicts.clear()

    def report(self) -> str:
        """Human-readable per-run breakdown (for examples and debugging)."""
        lines = [f"device: {self.machine.name}"]
        for r in self.runs:
            tm = r.timing
            lines.append(
                f"  {r.name}: {r.total_time_us:9.1f} us "
                f"(kernel {tm.time_us:9.1f}, bound by {tm.bound_by}, "
                f"{tm.num_threads} threads, {tm.total_instructions} inst, "
                f"{tm.dram_bytes} dram bytes)")
        lines.append(f"  total: {self.total_time_us:.1f} us over "
                     f"{self.launches} launches")
        p = self.profile
        if p.threads_run:
            lines.append(
                f"  dispatch: {p.threads_run} threads, "
                f"{p.chunks_dispatched} chunks, "
                f"peak {p.peak_live_traces} live traces")
        if p.tier_launches:
            tiers = ", ".join(f"{tier}={n}"
                              for tier, n in p.tier_launches.items())
            lines.append(f"  tiers: {tiers}")
        if p.gate_outcomes:
            gates = ", ".join(f"{outcome}={n}"
                              for outcome, n in p.gate_outcomes.items())
            lines.append(f"  wide gate: {gates}")
        if self.kernel_cache is not None:
            st = self.kernel_cache.stats
            lines.append(
                f"  kernel cache: {st.hits} hits, {st.misses} misses "
                f"({st.hit_rate:.0%} hit rate), {st.evictions} evictions, "
                f"{len(self.kernel_cache)} entries")
        if self.oob_lanes:
            oob = ", ".join(f"{k}={v}"
                            for k, v in sorted(self.oob_lanes.items()))
            lines.append(f"  oob clipped lanes: {oob}")
        if self.sanitizer_results:
            clean = sum(1 for r in self.sanitizer_results if r.clean)
            lines.append(
                f"  sanitizer: {len(self.sanitizer_results)} sanitized "
                f"launch(es), {clean} clean")
            for r in self.sanitizer_results:
                if not r.clean:
                    lines.append(f"    {r.summary()}")
        return "\n".join(lines)

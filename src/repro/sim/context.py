"""Current-thread execution context for the eager path.

While a kernel runs, the launcher installs a :class:`ThreadContext` that
CM/OpenCL operations use to (a) record trace events and (b) consult the
SIMD control-flow mask stack.  Outside a kernel (host code, unit tests)
there is no context and operations simply compute without recording.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np

from repro.isa.dtypes import DType
from repro.sim.trace import MemEvent, MemKind, ThreadTrace

# The active context is *Python-thread*-local: two serving clusters in
# one process each run eager kernels on their own serving thread, and a
# host thread may run one directly meanwhile — a process-global slot
# would let one thread's deactivate() tear down another's mid-kernel.
_tls = threading.local()


class ThreadContext:
    """Execution state of one simulated hardware thread."""

    def __init__(self, trace: ThreadTrace,
                 thread_id: Tuple[int, ...] = (0,),
                 group_id: Tuple[int, ...] = (0,),
                 local_id: Tuple[int, ...] = (0,)) -> None:
        self.trace = trace
        self.thread_id = thread_id
        self.group_id = group_id
        self.local_id = local_id
        self._mask_stack: list[np.ndarray] = []

    def reuse(self, trace: ThreadTrace,
              thread_id: Tuple[int, ...] = (0,),
              group_id: Tuple[int, ...] = (0,),
              local_id: Tuple[int, ...] = (0,)) -> "ThreadContext":
        """Re-point this context at a fresh thread (pooled dispatch).

        ``Device.run_cm`` reuses one context object across every thread
        of a launch instead of allocating one per thread.
        """
        self.trace = trace
        self.thread_id = thread_id
        self.group_id = group_id
        self.local_id = local_id
        self._mask_stack.clear()
        return self

    # -- SIMD control-flow mask stack ------------------------------------

    def push_mask(self, mask: np.ndarray) -> None:
        if self._mask_stack:
            top = self._mask_stack[-1]
            if len(top) != len(mask):
                raise ValueError(
                    f"nested SIMD control flow mask width {len(mask)} != "
                    f"enclosing width {len(top)}")
            mask = mask & top
        self._mask_stack.append(np.asarray(mask, dtype=bool))

    def pop_mask(self) -> np.ndarray:
        return self._mask_stack.pop()

    @property
    def mask(self) -> Optional[np.ndarray]:
        """Current SIMD execution mask, or None when not in SIMD CF."""
        return self._mask_stack[-1] if self._mask_stack else None


def activate(ctx: ThreadContext) -> None:
    _tls.ctx = ctx


def deactivate() -> None:
    _tls.ctx = None


def current() -> Optional[ThreadContext]:
    return getattr(_tls, "ctx", None)


def require() -> ThreadContext:
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        raise RuntimeError("no kernel thread context is active")
    return ctx


# -- recording helpers (no-ops outside a kernel) -----------------------------


def emit_alu(n: int, dtype: DType, is_math: bool = False,
             inst_factor: int = 1) -> None:
    ctx = getattr(_tls, "ctx", None)
    if ctx is not None:
        ctx.trace.alu(n, dtype, is_math=is_math, inst_factor=inst_factor)


def emit_scalar(count: int = 1) -> None:
    ctx = getattr(_tls, "ctx", None)
    if ctx is not None:
        ctx.trace.scalar_op(count)


def emit_memory(kind: MemKind, **kw) -> Optional[MemEvent]:
    ctx = getattr(_tls, "ctx", None)
    if ctx is not None:
        return ctx.trace.memory(kind, **kw)
    return None


def consume(event: Optional[MemEvent]) -> None:
    ctx = getattr(_tls, "ctx", None)
    if ctx is not None and event is not None:
        ctx.trace.consume(event)


def current_mask() -> Optional[np.ndarray]:
    ctx = getattr(_tls, "ctx", None)
    return ctx.mask if ctx is not None else None

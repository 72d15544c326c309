"""Grid-vectorized ("wide") execution of Gen programs.

The paper's thesis is that explicit SIMD wins by issuing whole-vector
operations in one step instead of emulating lanes.  The sequential
dispatch path in :mod:`repro.sim.device` ironically does the SIMT
thing one level up: it re-interprets the same program once per
hardware thread, paying ``grid_size x program_length`` Python dispatch
steps.  For straight-line programs every thread executes the identical
instruction sequence, so the thread loop can be hoisted *inside* each
NumPy op.

:class:`WideExecutor` stacks T per-thread register files into one
``(T, 4096)`` uint8 array and executes each :class:`Instruction` once
for all T threads:

- region plans stay the per-program column-index arrays the scalar
  executor memoizes; fetches become ``grf2d[:, idx]`` (T, n) views;
- ALU ops, conversions, and saturation run on ``(T, exec_size)``
  arrays; flags become ``(T, 32)`` bools;
- block SEND messages batch into strided copies across threads, and
  gather/scatter/atomic flatten into ``(T*n)`` offset vectors with a
  per-thread lane mask.  Atomics apply in thread order (integer
  add/sub/inc/dec through a grouped prefix-sum reduction; everything
  else through the sequential lane loop on the flattened vector), so
  results stay bit-identical to per-thread execution.

**Structured SIMD control flow** (:data:`~repro.isa.instructions.
CF_OPCODES`) keeps the same property with one twist.  The mask ops
(IF/ELSE/ENDIF/BREAK) are executed by every thread, so they never
split a group; only WHILE's back-edge makes per-thread PCs diverge.
The wide interpreter therefore runs a *group scheduler*: per-thread
PCs start together, the scheduler repeatedly picks the minimum live PC
and issues that instruction once for the whole group of threads parked
there, and the per-program reconvergence schedule (immediate
post-dominators, :meth:`~repro.isa.plans.PlanTable.cf_plan`) guarantees
groups re-merge at ENDIF/loop exits.  Divergence state is vectorized
exactly like the register file: ``(T, 32)`` active masks and
``(T, depth, 32)`` restore/else frame stacks whose depth is a *static*
function of the PC.  A chunk of T threads with data-divergent loop trip
counts still issues one NumPy op per executed instruction.

:class:`WideTracingExecutor` additionally produces per-thread
:class:`~repro.sim.trace.ThreadTrace` streams.  For straight-line
programs every issue-timeline quantity (instruction counts, issue
cycles, event issue/consume positions) is *thread-invariant*, so the
wide path drives a single template trace and fans it out per thread
with the per-thread line counts recorded by the vectorized surface
marking.  Under control flow those quantities become per-thread — each
thread's dynamic instruction stream depends on its data — so the
tracer switches to ``(T,)`` issue/instruction accumulators and per-row
memory-event records, replaying for every thread exactly the
accounting the sequential :class:`~repro.sim.batch.TracingExecutor`
performs in that thread's own dynamic order.  Either way,
:class:`~repro.sim.timing.TimingAccumulator` and the time-breakdown
profiler see exactly the traces the sequential path would have
produced.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

import numpy as np

from repro.isa.cfg import CFError, analyze_cf
from repro.isa.dtypes import UD, convert
from repro.isa.executor import (
    CF_STEP_LIMIT, ExecutionError, FunctionalExecutor, _alu_compute,
    _contiguous_region, _emask_off,
)
from repro.isa.grf import GRF_SIZE_BYTES, RegOperand
from repro.isa.instructions import (
    CF_OPCODES, Immediate, Instruction, MsgKind, Opcode,
)
from repro.isa.msg_geometry import (
    media_block_messages, oword_block_messages, scatter_messages,
)
from repro.memory.surfaces import Surface
from repro.sim.batch import CF_COSTS, TracingExecutor, _alu_cost
from repro.sim.trace import MemEvent, MemKind, ThreadTrace

#: Message kinds the wide path knows how to vectorize (currently all of
#: them; the check guards against future kinds silently mis-executing).
_WIDE_MSG_KINDS = frozenset({
    MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE,
    MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE,
    MsgKind.GATHER, MsgKind.SCATTER, MsgKind.ATOMIC,
})


def ineligible_reason(program: Iterable[Instruction]) -> Optional[str]:
    """Why a compiled program cannot run on the wide path (or ``None``).

    Two distinct refusals, surfaced separately in the device gate
    taxonomy:

    - ``"unsupported-message"`` — a SEND uses a message kind the
      vectorized handlers do not cover;
    - ``"malformed-control-flow"`` — the program contains structured-CF
      opcodes whose nesting does not validate (the group scheduler
      depends on the per-program reconvergence plan, so a program that
      has no plan has no wide schedule either).

    Structured control flow itself is *not* disqualifying: divergent
    programs run wide via per-thread PCs and mask stacks.
    """
    program = tuple(program)
    has_cf = False
    for inst in program:
        if inst.opcode is Opcode.SEND:
            msg = inst.msg
            if msg is None or msg.kind not in _WIDE_MSG_KINDS:
                return "unsupported-message"
        elif inst.opcode in CF_OPCODES:
            has_cf = True
    if has_cf:
        try:
            analyze_cf(program)
        except CFError:
            return "malformed-control-flow"
    return None


def wide_eligible(program: Iterable[Instruction]) -> bool:
    """Whether a compiled program can run on the wide path.

    Straight-line *and* structured-control-flow programs both qualify;
    see :func:`ineligible_reason` for what disqualifies one.
    """
    return ineligible_reason(program) is None


class WideScratch(Surface):
    """Per-thread scratch (spill) storage for a wide chunk.

    The sequential path binds one shared scratch surface and zeroes it
    before each thread; threads running *simultaneously* need private
    rows instead, so actual storage is a ``(T, scratch_bytes)`` array.
    Cache-line tracking stays shared across threads (and across chunks,
    via :meth:`resize`): the first thread to spill a line pays DRAM,
    later threads hit L3 — exactly what the sequential shared surface
    models.
    """

    def __init__(self, num_threads: int, nbytes: int) -> None:
        super().__init__(np.zeros(nbytes, dtype=np.uint8))
        self.bytes2d = np.zeros((num_threads, nbytes), dtype=np.uint8)
        self.obs_label = "scratch"

    def resize(self, num_threads: int) -> None:
        """Fresh zeroed rows for the next chunk; line tracking persists."""
        self.bytes2d = np.zeros((num_threads, self.bytes.size),
                                dtype=np.uint8)

    def read_linear_many(self, byte_offsets, nbytes: int,
                         rows=None) -> np.ndarray:
        """Per-thread reads; ``rows`` restricts to a subset of threads
        (one offset per listed row) for divergent partial groups."""
        offs = np.asarray(byte_offsets, dtype=np.int64)
        if offs.size:
            self._check(int(offs.min()), 0)
            self._check(int(offs.max()), nbytes)
        idx = offs[:, None] + np.arange(nbytes)
        src = self.bytes2d if rows is None else self.bytes2d[rows]
        return np.take_along_axis(src, idx, axis=1)

    def write_linear_many(self, byte_offsets, data: np.ndarray,
                          rows=None) -> None:
        offs = np.asarray(byte_offsets, dtype=np.int64)
        raw = np.ascontiguousarray(data).view(np.uint8)
        raw = raw.reshape(offs.shape[0], -1)
        if offs.size:
            self._check(int(offs.min()), 0)
            self._check(int(offs.max()), raw.shape[1])
        idx = offs[:, None] + np.arange(raw.shape[1])
        if rows is None:
            np.put_along_axis(self.bytes2d, idx, raw, axis=1)
        else:
            self.bytes2d[np.asarray(rows)[:, None], idx] = raw


class WideExecutor(FunctionalExecutor):
    """Execute one straight-line program for T threads at once.

    The inherited :class:`FunctionalExecutor` machinery is reused for
    everything thread-invariant — operand region plans, immediate
    caches, per-instruction ALU/CMP plans (``self.grf`` serves purely
    as the plan builder and bounds checker).  Architectural state lives
    in :attr:`grf2d` (``(T, num_regs*32)`` uint8) and ``(T, 32)`` flag
    arrays; every override swaps a per-lane op for the same op on a
    ``(T, ...)`` array.
    """

    def __init__(self, surfaces: Mapping[int, object] | None = None,
                 num_regs: int = 128, num_threads: int = 0) -> None:
        super().__init__(surfaces, num_regs)
        self.num_threads = num_threads
        self.grf2d = np.zeros((num_threads, self.grf.bytes.size),
                              dtype=np.uint8)
        # Divergence state, live only while _run_cf() is scheduling:
        # (T, 32) active masks, the current group's rows / (T, 1) row
        # mask, and whether the group covers every thread.
        self._wact: Optional[np.ndarray] = None
        self._rows: Optional[np.ndarray] = None
        self._rowm: Optional[np.ndarray] = None
        self._row_all = True

    def run(self, program) -> None:
        # Sanitizer hooks assume one thread's register file and lane
        # masks; sanitized launches are always sequential (the race
        # verdict is what *admits* a program to the wide path).
        if self.san is not None:
            raise ExecutionError(
                "sanitizer hooks cannot run on the wide executor; "
                "use sequential dispatch for sanitized launches")
        super().run(program)

    def reset(self, num_threads: Optional[int] = None) -> None:
        """Zero architectural state, optionally resizing to a new T."""
        if num_threads is not None and num_threads != self.num_threads:
            self.num_threads = num_threads
            self.grf2d = np.zeros((num_threads, self.grf.bytes.size),
                                  dtype=np.uint8)
        else:
            self.grf2d.fill(0)
        self.flags.clear()
        self.instructions_executed = 0
        self._wact = None
        self._rows = None
        self._rowm = None
        self._row_all = True

    def release(self) -> None:
        super().release()
        # an idle executor holds no register rows; reset() reallocates
        self.reset(0)

    def seed_scalar(self, byte_offset: int, values: np.ndarray) -> None:
        """Seed a 4-byte scalar parameter column (one int32 per thread)."""
        vals = np.ascontiguousarray(np.asarray(values, dtype=np.int32))
        self.grf2d[:, byte_offset:byte_offset + 4] = \
            vals.view(np.uint8).reshape(self.num_threads, 4)

    # -- operand access (wide) --------------------------------------------

    def _fetch(self, src, exec_size: int) -> np.ndarray:
        if isinstance(src, RegOperand):
            # np.take (not grf2d[:, idx]): mixed basic/advanced indexing
            # can return an F-ordered copy, which .view() rejects.
            idx = self._src_plan(src, exec_size)
            return np.take(self.grf2d, idx.reshape(-1),
                           axis=1).view(src.dtype.np_dtype)
        return super()._fetch(src, exec_size)  # immediates broadcast (n,)

    def _write_dst(self, operand: RegOperand, values: np.ndarray,
                   mask: np.ndarray | None = None,
                   idx: np.ndarray | None = None) -> None:
        dtype = operand.dtype.np_dtype
        T = self.num_threads
        values = np.asarray(values)
        n = values.shape[-1]
        if idx is None:
            idx = self._dst_plan(operand, n)
        if values.shape != (T, n) or values.dtype != dtype or \
                not values.flags["C_CONTIGUOUS"]:
            values = np.ascontiguousarray(
                np.broadcast_to(values, (T, n)), dtype=dtype)
        raw = values.view(np.uint8).reshape(T, n, operand.dtype.size)
        if mask is None:
            self.grf2d[:, idx] = raw
        else:
            keep = np.asarray(mask, dtype=bool)
            if keep.ndim == 1:
                keep = np.broadcast_to(keep, (T, n))
            cur = self.grf2d[:, idx]  # (T, n, size) read-modify-write
            np.copyto(cur, raw, where=keep[:, :, None])
            self.grf2d[:, idx] = cur

    def _flag_lanes(self, index: int) -> np.ndarray:
        f = self.flags.get(index)
        if f is None:
            f = np.zeros((self.num_threads, 32), dtype=bool)
            self.flags[index] = f
        return f

    def _pred_mask(self, inst: Instruction) -> np.ndarray | None:
        if inst.pred is None:
            return None
        lanes = self._flag_lanes(inst.pred.flag.index)[:, : inst.exec_size]
        return ~lanes if inst.pred.invert else lanes.copy()

    def _cf_active_lanes(self, inst: Instruction) -> np.ndarray | None:
        """Wide SIMD-CF write-enable: active-lane window AND group rows.

        ``None`` outside control flow, or when every thread is in the
        group with every covered lane active.  Unlike the sequential
        version, a scalar (exec_size 1) instruction still needs masking
        when the current group is partial — threads parked at other PCs
        must not observe its write — so the row mask applies even then.
        """
        act = self._wact
        if act is None:
            return None
        n = inst.exec_size
        m = None
        if n > 1:
            off = _emask_off(inst)
            if off + n > 32:
                raise ExecutionError(
                    f"operation covers lanes {off}..{off + n - 1} inside "
                    f"SIMD control flow (only 32 execution-mask channels "
                    f"exist)")
            m = act[:, off:off + n]
        if not self._row_all:
            rowm = self._rowm
            m = rowm if m is None else (m & rowm)
        elif m is not None and m.all():
            m = None
        return m

    # -- ALU (wide) --------------------------------------------------------

    def _execute_alu(self, inst: Instruction) -> None:
        dst = inst.dst
        if dst is None:
            raise ExecutionError(f"ALU instruction without destination: {inst}")
        _, fetchers, exec_dtype, dst_idx, nopred = self._alu_plan(inst)
        grf2d = self.grf2d
        srcs = [payload if idx is None else
                np.take(grf2d, idx.reshape(-1), axis=1).view(payload)
                for idx, payload in fetchers]

        if inst.opcode is Opcode.MOV:
            result = srcs[0]
        elif inst.opcode is Opcode.SEL:
            mask = self._pred_mask(inst)
            if mask is None:
                raise ExecutionError("sel requires a predicate")
            result = np.where(mask, srcs[0], srcs[1])
            inst = nopred
        else:
            ops = [s if s.dtype == exec_dtype.np_dtype else
                   convert(s, exec_dtype) for s in srcs]
            result = _alu_compute(inst, exec_dtype, ops)

        if inst.sat or result.dtype != dst.dtype.np_dtype:
            result = convert(result, dst.dtype, saturate=inst.sat)
        self._write_dst(dst, result, mask=self._exec_mask(inst), idx=dst_idx)

    def _execute_cmp(self, inst: Instruction) -> None:
        _, fetchers, exec_dtype, cmp_fn, dst_idx = self._cmp_plan(inst)
        grf2d = self.grf2d
        a, b = [payload if idx is None else
                np.take(grf2d, idx.reshape(-1), axis=1).view(payload)
                for idx, payload in fetchers]
        result = np.broadcast_to(
            cmp_fn(convert(a, exec_dtype), convert(b, exec_dtype)),
            (self.num_threads, inst.exec_size))
        lanes = self._cf_active_lanes(inst)
        flag = self._flag_lanes(inst.flag.index if inst.flag else 0)
        if lanes is None:
            flag[:, : inst.exec_size] = result
        else:
            np.copyto(flag[:, : inst.exec_size], result, where=lanes)
        if inst.dst is not None:
            self._write_dst(inst.dst, result.astype(inst.dst.dtype.np_dtype),
                            mask=lanes, idx=dst_idx)

    # -- SIMD control flow (wide group scheduler) -------------------------

    def _run_cf(self, program) -> None:
        """Group-scheduled dispatch for programs with SIMD control flow.

        Per-thread PCs start at 0; the scheduler repeatedly selects the
        minimum live PC, gathers the group of threads parked there, and
        issues that instruction once for the whole group.  Because the
        mask ops are executed by every thread and only WHILE jumps,
        groups split exclusively at loop back-edges and — by the
        per-program reconvergence plan — re-merge at the loop exit, so
        a chunk still pays one NumPy op per executed instruction.
        Frame state is ``(T, depth, 32)``: ``depth_at`` is static per
        PC, so all threads in a group share frame structure.
        """
        plan = self.plans.cf_plan()
        T = self.num_threads
        n = len(program)
        depth = max(plan.max_depth, 1)
        pcs = np.zeros(T, dtype=np.int64)
        act = np.ones((T, 32), dtype=bool)
        restore = np.zeros((T, depth, 32), dtype=bool)
        pending = np.zeros((T, depth, 32), dtype=bool)
        self._wact = act
        steps = 0
        try:
            while True:
                live = pcs < n
                if not live.any():
                    break
                pc = int(pcs[live].min())
                group = pcs == pc
                rows = np.flatnonzero(group)
                steps += 1
                if steps > CF_STEP_LIMIT:
                    raise ExecutionError(
                        f"SIMD control flow executed more than "
                        f"{CF_STEP_LIMIT} instructions (runaway loop?)")
                inst = program[pc]
                self._rows = rows
                self._rowm = group[:, None]
                self._row_all = rows.size == T
                if inst.opcode in CF_OPCODES:
                    self.instructions_executed += 1
                    self._exec_cf_wide(inst, pc, rows, act, restore,
                                       pending, pcs, plan)
                    self._account_cf(inst, rows)
                else:
                    self.execute(inst)
                    pcs[rows] = pc + 1
        finally:
            self._wact = None
            self._rows = None
            self._rowm = None
            self._row_all = True

    def _cf_cond_wide(self, inst: Instruction, rows: np.ndarray,
                      act: np.ndarray) -> np.ndarray:
        """The (R, 32) lane sets an IF/WHILE/BREAK acts on, per group
        row: predicate flag lanes (all lanes when unpredicated) ANDed
        with each thread's current active mask."""
        cur = act[rows]
        if inst.pred is None:
            return cur
        lanes = self._flag_lanes(inst.pred.flag.index)[rows, : inst.exec_size]
        if inst.pred.invert:
            lanes = ~lanes
        cond = np.zeros((rows.size, 32), dtype=bool)
        cond[:, : inst.exec_size] = lanes
        cond &= cur
        return cond

    def _exec_cf_wide(self, inst, pc, rows, act, restore, pending, pcs,
                      plan) -> None:
        """Vectorized mask-frame semantics (mirrors the sequential
        ``_execute_cf`` exactly, for a whole group of threads)."""
        op = inst.opcode
        d = plan.depth_at[pc]
        if op is Opcode.SIMD_IF:
            cond = self._cf_cond_wide(inst, rows, act)
            cur = act[rows]
            restore[rows, d] = cur
            pending[rows, d] = cur & ~cond
            act[rows] = cond
        elif op is Opcode.SIMD_ELSE:
            act[rows] = pending[rows, d - 1]
        elif op is Opcode.SIMD_ENDIF:
            act[rows] = restore[rows, d - 1]
        elif op is Opcode.SIMD_DO:
            restore[rows, d] = act[rows]
        elif op is Opcode.SIMD_WHILE:
            cond = self._cf_cond_wide(inst, rows, act)
            again = cond.any(axis=1)
            loop_rows = rows[again]
            exit_rows = rows[~again]
            if loop_rows.size:
                act[loop_rows] = cond[again]
                pcs[loop_rows] = plan.body_of[pc]
            if exit_rows.size:
                act[exit_rows] = restore[exit_rows, d - 1]
                pcs[exit_rows] = pc + 1
            return
        else:  # SIMD_BREAK
            cond = self._cf_cond_wide(inst, rows, act)
            act[rows] = act[rows] & ~cond
            # Broken lanes leave every IF frame up to the innermost
            # loop too (see the sequential executor).
            for lvl in plan.break_clear[pc]:
                restore[rows, lvl] = restore[rows, lvl] & ~cond
                pending[rows, lvl] = pending[rows, lvl] & ~cond
        pcs[rows] = pc + 1

    def _account_cf(self, inst: Instruction, rows: np.ndarray) -> None:
        """Timing hook for CF opcodes (no-op without tracing)."""

    # -- memory (wide) ----------------------------------------------------

    def _scalar_vec(self, src) -> np.ndarray:
        """A per-message scalar address operand as a (T,) int64 column."""
        if isinstance(src, Immediate):
            return np.full(self.num_threads, int(src.value), dtype=np.int64)
        idx = self._src_plan(src, 1)
        return np.take(self.grf2d, idx.reshape(-1), axis=1) \
            .view(src.dtype.np_dtype).reshape(-1).astype(np.int64)

    def _load_payload(self, base: int, nbytes: int) -> np.ndarray:
        self._check_payload(base, nbytes)
        return self.grf2d[:, base:base + nbytes]

    def _store_payload(self, base: int, data: np.ndarray) -> None:
        self._check_payload(base, data.shape[1])
        self.grf2d[:, base:base + data.shape[1]] = data

    def _check_payload(self, base: int, nbytes: int) -> None:
        if base < 0 or base + nbytes > self.grf2d.shape[1]:
            raise IndexError(
                f"GRF payload of {nbytes} bytes at offset {base} overruns "
                f"the {self.grf2d.shape[1]}-byte register file")

    def _load_payload_rows(self, base: int, nbytes: int,
                           rows: np.ndarray) -> np.ndarray:
        self._check_payload(base, nbytes)
        return self.grf2d[rows, base:base + nbytes]

    def _store_payload_rows(self, base: int, data: np.ndarray,
                            rows: np.ndarray) -> None:
        nbytes = data.shape[1]
        self._check_payload(base, nbytes)
        self.grf2d[rows[:, None], np.arange(base, base + nbytes)] = data

    def _execute_send(self, inst: Instruction) -> None:
        msg = inst.msg
        if msg is None:
            raise ExecutionError("send without message descriptor")
        surf = self._surface(msg.surface)
        if self._wact is not None and not self._row_all:
            # Divergent partial group: only the threads parked at this
            # PC may touch memory or their payload registers.
            self._execute_send_rows(inst, surf, self._rows)
            return
        kind = msg.kind
        base = msg.payload_reg * GRF_SIZE_BYTES
        T = self.num_threads

        if kind is MsgKind.MEDIA_BLOCK_READ:
            x = self._scalar_vec(msg.addr0)
            y = self._scalar_vec(msg.addr1)
            w, h = msg.block_width, msg.block_height
            block = surf.read_block_many(x, y, w, h)  # (T, h, w)
            self._store_payload(base, block.reshape(T, -1))
        elif kind is MsgKind.MEDIA_BLOCK_WRITE:
            x = self._scalar_vec(msg.addr0)
            y = self._scalar_vec(msg.addr1)
            w, h = msg.block_width, msg.block_height
            data = np.ascontiguousarray(self._load_payload(base, w * h))
            surf.write_block_many(x, y, w, h, data.reshape(T, h, w))
        elif kind is MsgKind.OWORD_BLOCK_READ:
            offset = self._scalar_vec(msg.addr0)
            self._store_payload(
                base, surf.read_linear_many(offset, msg.payload_bytes))
        elif kind is MsgKind.OWORD_BLOCK_WRITE:
            offset = self._scalar_vec(msg.addr0)
            surf.write_linear_many(
                offset, self._load_payload(base, msg.payload_bytes))
        elif kind in (MsgKind.GATHER, MsgKind.SCATTER, MsgKind.ATOMIC):
            self._execute_scattered(inst, surf)
        else:
            raise ExecutionError(f"unhandled message kind {kind}")

    def _execute_send_rows(self, inst: Instruction, surf,
                           rows: np.ndarray) -> None:
        """Partial-group SEND: subset every per-thread vector to the
        group's rows so other threads' registers and line tracking stay
        untouched."""
        msg = inst.msg
        kind = msg.kind
        base = msg.payload_reg * GRF_SIZE_BYTES
        nrows = rows.size
        if kind is MsgKind.MEDIA_BLOCK_READ:
            x = self._scalar_vec(msg.addr0)[rows]
            y = self._scalar_vec(msg.addr1)[rows]
            w, h = msg.block_width, msg.block_height
            block = surf.read_block_many(x, y, w, h)  # (R, h, w)
            self._store_payload_rows(base, block.reshape(nrows, -1), rows)
        elif kind is MsgKind.MEDIA_BLOCK_WRITE:
            x = self._scalar_vec(msg.addr0)[rows]
            y = self._scalar_vec(msg.addr1)[rows]
            w, h = msg.block_width, msg.block_height
            data = np.ascontiguousarray(
                self._load_payload_rows(base, w * h, rows))
            surf.write_block_many(x, y, w, h, data.reshape(nrows, h, w))
        elif kind is MsgKind.OWORD_BLOCK_READ:
            offset = self._scalar_vec(msg.addr0)[rows]
            if isinstance(surf, WideScratch):
                data = surf.read_linear_many(offset, msg.payload_bytes,
                                             rows=rows)
            else:
                data = surf.read_linear_many(offset, msg.payload_bytes)
            self._store_payload_rows(base, data, rows)
        elif kind is MsgKind.OWORD_BLOCK_WRITE:
            offset = self._scalar_vec(msg.addr0)[rows]
            data = self._load_payload_rows(base, msg.payload_bytes, rows)
            if isinstance(surf, WideScratch):
                surf.write_linear_many(offset, data, rows=rows)
            else:
                surf.write_linear_many(offset, data)
        elif kind in (MsgKind.GATHER, MsgKind.SCATTER, MsgKind.ATOMIC):
            self._execute_scattered(inst, surf, rows=rows)
        else:
            raise ExecutionError(f"unhandled message kind {kind}")

    def _execute_scattered(self, inst: Instruction, surf,
                           rows: Optional[np.ndarray] = None) -> None:
        msg = inst.msg
        n = inst.exec_size
        T = self.num_threads
        addr_op = RegOperand(msg.addr_reg, 0, UD,
                             region=_contiguous_region(n))
        offsets = self._fetch(addr_op, n).astype(np.int64)  # (T, n)
        if msg.addr0 is not None:
            offsets = offsets + self._scalar_vec(msg.addr0)[:, None]
        elem = msg.elem_dtype
        offsets = offsets * elem.size
        base = msg.payload_reg * GRF_SIZE_BYTES
        mask = self._exec_mask(inst)
        if rows is not None:
            return self._execute_scattered_rows(inst, surf, rows, offsets,
                                                mask)
        # Flatten thread-major: lane order within a thread, threads in
        # ascending id — the exact order the sequential dispatch loop
        # performs these accesses, so overlap/atomic semantics match.
        flat = offsets.reshape(-1)
        fmask = None if mask is None else mask.reshape(-1)

        if msg.kind is MsgKind.GATHER:
            data = surf.gather(flat, elem, mask=fmask)
            self._store_payload(base, data.reshape(T, n).view(np.uint8))
        elif msg.kind is MsgKind.SCATTER:
            raw = np.ascontiguousarray(
                self._load_payload(base, n * elem.size)).view(elem.np_dtype)
            surf.scatter(flat, raw.reshape(-1), mask=fmask)
        else:  # ATOMIC
            operands = None
            if msg.payload_bytes:
                operands = np.ascontiguousarray(
                    self._load_payload(base, n * elem.size)) \
                    .view(elem.np_dtype).reshape(-1)
            old = _wide_atomic(surf, msg.atomic_op, flat, operands, elem,
                               fmask)
            if inst.dst is not None:
                self._write_dst(inst.dst, old.reshape(T, n), mask=mask)

    def _execute_scattered_rows(self, inst: Instruction, surf,
                                rows: np.ndarray, offsets: np.ndarray,
                                mask: Optional[np.ndarray]) -> None:
        """Partial-group gather/scatter/atomic: flatten only the group's
        rows (still thread-major within the group)."""
        msg = inst.msg
        n = inst.exec_size
        elem = msg.elem_dtype
        base = msg.payload_reg * GRF_SIZE_BYTES
        nrows = rows.size
        sub = None if mask is None else \
            np.broadcast_to(mask[rows], (nrows, n))
        flat = offsets[rows].reshape(-1)
        fmask = None if sub is None else sub.reshape(-1)

        if msg.kind is MsgKind.GATHER:
            data = surf.gather(flat, elem, mask=fmask)
            self._store_payload_rows(
                base, data.reshape(nrows, n).view(np.uint8), rows)
        elif msg.kind is MsgKind.SCATTER:
            raw = np.ascontiguousarray(
                self._load_payload_rows(base, n * elem.size, rows)) \
                .view(elem.np_dtype)
            surf.scatter(flat, raw.reshape(-1), mask=fmask)
        else:  # ATOMIC
            operands = None
            if msg.payload_bytes:
                operands = np.ascontiguousarray(
                    self._load_payload_rows(base, n * elem.size, rows)) \
                    .view(elem.np_dtype).reshape(-1)
            old = _wide_atomic(surf, msg.atomic_op, flat, operands, elem,
                               fmask)
            if inst.dst is not None:
                vals = np.zeros((self.num_threads, n), dtype=elem.np_dtype)
                vals[rows] = old.reshape(nrows, n)
                self._write_dst(inst.dst, vals,
                                mask=self._rowm if mask is None else mask)


_FAST_ATOMIC_OPS = frozenset({"add", "sub", "inc", "dec"})


def _wide_atomic(surf, op: str, offsets: np.ndarray,
                 operands: Optional[np.ndarray], elem,
                 mask: Optional[np.ndarray]) -> np.ndarray:
    """Apply a flattened (T*n)-lane atomic in thread order.

    Integer add/sub/inc/dec commute up to ordering of the *returned* old
    values, which a stable sort by address plus a grouped exclusive
    prefix sum reconstructs exactly (modular integer addition is
    order-independent); everything else (min/max/bitwise/xchg, float
    adds) falls back to the sequential lane loop on the flattened
    vector, which is the same order the per-thread path applies.
    """
    old = _fast_int_atomic(surf, op, offsets, operands, elem, mask)
    if old is None:
        old = surf.atomic(op, offsets, operands, elem, mask=mask)
    return old


def _fast_int_atomic(surf, op, offsets, operands, elem, mask):
    if op not in _FAST_ATOMIC_OPS or elem.is_float:
        return None
    n = len(offsets)
    old = np.zeros(n, dtype=elem.np_dtype)
    act = np.arange(n) if mask is None else \
        np.flatnonzero(np.asarray(mask, dtype=bool))
    if act.size == 0:
        return old
    offs = offsets[act]
    if np.any(offs % elem.size):
        return None  # misaligned: the lane loop raises the right error
    idx = offs // elem.size
    if op in ("add", "sub"):
        delta = operands[act].astype(elem.np_dtype, copy=True)
    else:  # inc / dec
        delta = np.ones(act.size, dtype=elem.np_dtype)
    if op in ("sub", "dec"):
        delta = np.negative(delta)  # modular: wraps like cur - src

    order = np.argsort(idx, kind="stable")  # stable: keeps thread order
    sidx = idx[order]
    sdelta = delta[order]
    csum = np.cumsum(sdelta, dtype=elem.np_dtype)  # wraps like hardware
    head = np.ones(sidx.size, dtype=bool)
    head[1:] = sidx[1:] != sidx[:-1]
    excl = csum - sdelta
    group_base = excl[head]
    seg_id = np.cumsum(head) - 1
    view = surf.bytes.view(elem.np_dtype)
    init = view[sidx[head]]  # value before this message, per address
    old_sorted = init[seg_id] + (excl - group_base[seg_id])
    last = np.flatnonzero(np.concatenate([head[1:], [True]]))
    view[sidx[head]] = init + (csum[last] - group_base)
    old_act = np.empty(act.size, dtype=elem.np_dtype)
    old_act[order] = old_sorted
    old[act] = old_act
    return old


class _WideEvent:
    """Per-thread data for one template memory event."""

    __slots__ = ("ev", "lines", "dram", "l3_from_lines", "words", "wmask",
                 "surface_id")

    def __init__(self, ev: MemEvent, lines: np.ndarray, dram: np.ndarray,
                 l3_from_lines: bool, words=None, wmask=None,
                 surface_id: int = 0) -> None:
        self.ev = ev
        self.lines = lines
        self.dram = dram
        self.l3_from_lines = l3_from_lines
        self.words = words
        self.wmask = wmask
        self.surface_id = surface_id


class _CFSendEvent:
    """One SEND issued by a (possibly partial) group under control flow.

    Unlike the straight-line template events, *everything* here is
    per-row: the rows that issued the message, their line footprints,
    and their own issue/consume positions on their own issue timelines.
    """

    __slots__ = ("kind", "nbytes", "l3_bytes", "l3_from_lines", "msgs",
                 "is_read", "surface", "rows", "lines", "dram", "issue_at",
                 "consumed_at", "words", "wmask", "surface_id", "index")

    def __init__(self, kind, nbytes, l3_bytes, l3_from_lines, msgs,
                 is_read, surface, rows, lines, dram, issue_at) -> None:
        self.kind = kind
        self.nbytes = nbytes
        self.l3_bytes = l3_bytes
        self.l3_from_lines = l3_from_lines
        self.msgs = msgs
        self.is_read = is_read
        self.surface = surface
        self.rows = rows                    # (R,) ascending thread ids
        self.lines = lines                  # (R,) L3 lines per row
        self.dram = dram                    # (R,) first-touch lines
        self.issue_at = issue_at            # (R,) per-row issue position
        self.consumed_at = np.full(rows.size, -1.0)  # (R,) or -1 = never
        self.words = None                   # atomics: (R, n) word addrs
        self.wmask = None
        self.surface_id = 0
        self.index = -1                     # position in _cf_events


class WideTracingExecutor(WideExecutor, TracingExecutor):
    """A :class:`WideExecutor` that reconstructs per-thread traces.

    Execution drives a single *template* :class:`ThreadTrace`: for a
    straight-line program, instruction counts, issue cycles, message
    issue positions, and load-use consumption distances are identical
    for every thread (no per-thread cost in the model depends on data
    values).  The only per-thread quantities — cache-line footprints
    and atomic target addresses — are recorded as (T,) vectors by the
    vectorized surface marking.  :meth:`drain_traces` fans the template
    out into T real traces, which feed the accumulators in thread
    order, bit-identical to sequential dispatch.

    Inherits the dependency/ALU accounting of
    :class:`~repro.sim.batch.TracingExecutor` unchanged (those are
    thread-invariant) and overrides only the SEND accounting.
    """

    def __init__(self, surfaces: Mapping[int, object] | None = None,
                 num_regs: int = 128, num_threads: int = 0) -> None:
        super().__init__(surfaces, num_regs, num_threads)
        self._wide_events: list[_WideEvent] = []
        # Control-flow tracing mode (per-thread accounting, see
        # _run_cf): off for straight-line programs.
        self._cf_trace = False
        self._cf_events: list[_CFSendEvent] = []
        self._pending_vec: dict = {}   # GRF reg -> (T,) event index or -1
        self._inst_vec: Optional[np.ndarray] = None
        self._issue_vec: Optional[np.ndarray] = None
        self._barrier_vec: Optional[np.ndarray] = None
        self._icpi = 0.0

    def begin_launch(self, machine) -> None:
        """Attach a fresh template trace for the next chunk."""
        self.begin_thread(ThreadTrace(machine))
        self._wide_events = []
        self._cf_trace = False
        self._cf_events = []
        self._pending_vec = {}

    def release(self) -> None:
        super().release()
        self._wide_events = []
        self._cf_events = []
        self._pending_vec = {}
        self._inst_vec = self._issue_vec = self._barrier_vec = None

    # -- control-flow tracing mode ----------------------------------------

    def _run_cf(self, program) -> None:
        # Under divergence the issue timeline is per-thread (each
        # thread's dynamic instruction stream depends on its data), so
        # the template trace cannot be shared.  Switch to (T,) vectors
        # that replay the sequential TracingExecutor's accounting for
        # every thread in its own dynamic order.
        if self.trace is not None:
            T = self.num_threads
            self._cf_trace = True
            self._icpi = self.trace.machine.issue_cycles_per_inst
            self._inst_vec = np.zeros(T, dtype=np.int64)
            self._issue_vec = np.zeros(T, dtype=np.float64)
            self._barrier_vec = np.zeros(T, dtype=np.int64)
            self._cf_events = []
            self._pending_vec = {}
        super()._run_cf(program)

    def execute(self, inst: Instruction) -> None:
        if not self._cf_trace:
            super().execute(inst)
            return
        op = inst.opcode
        rows = self._rows
        if op is Opcode.BARRIER:
            self._barrier_vec[rows] += 1
            FunctionalExecutor.execute(self, inst)
            return
        if op is Opcode.NOP:
            FunctionalExecutor.execute(self, inst)
            return
        if op is Opcode.SEND:
            FunctionalExecutor.execute(self, inst)
            self._account_send_cf(inst, rows)
            return
        self._note_consumption_cf(inst, rows)
        FunctionalExecutor.execute(self, inst)
        self._account_alu_cf(inst, rows)

    def _account_cf(self, inst: Instruction, rows: np.ndarray) -> None:
        if not self._cf_trace:
            return
        cost = CF_COSTS[inst.opcode]
        self._inst_vec[rows] += cost
        self._issue_vec[rows] += cost * self._icpi

    def _scalar_cf(self, rows: np.ndarray, count: int) -> None:
        self._inst_vec[rows] += count
        self._issue_vec[rows] += count * self._icpi

    def _account_alu_cf(self, inst: Instruction, rows: np.ndarray) -> None:
        cost = None
        slots = None
        table = self.plans
        if table is not None:
            slot = table.slot(inst)
            if slot is not None:
                slots = table.cost_slots(self.trace.machine)
                cost = slots[slot]
        if cost is None:
            cost = _alu_cost(inst, self.trace.machine)
            if slots is not None:
                slots[slot] = cost
        self._inst_vec[rows] += cost[0]
        self._issue_vec[rows] += cost[1]

    def _note_consumption_cf(self, inst: Instruction,
                             rows: np.ndarray) -> None:
        """Per-row load-use tracking (mirrors _note_src_consumption)."""
        pend = self._pending_vec
        if not pend:
            return
        regs = None
        table = self.plans
        if table is not None:
            slot = table.slot(inst)
            if slot is not None:
                regs = table.src_regs[slot]
                if regs is None:
                    regs = table.src_regs[slot] = self._merged_src_regs(inst)
        if regs is None:
            regs = self._merged_src_regs(inst)
        for reg in regs:
            vec = pend.get(reg)
            if vec is None:
                continue
            evi = vec[rows]
            for e in np.unique(evi[evi >= 0]):
                ev = self._cf_events[e]
                erows = rows[evi == e]
                pos = np.searchsorted(ev.rows, erows)
                fresh = ev.consumed_at[pos] < 0
                if fresh.any():
                    ev.consumed_at[pos[fresh]] = self._issue_vec[erows[fresh]]
                # One consume retires the whole message's payload.
                for v2 in pend.values():
                    cur = v2[erows]
                    v2[erows] = np.where(cur == e, -1, cur)

    def _register_load_cf(self, first_reg: int, nbytes: int,
                          ev: _CFSendEvent, rows: np.ndarray) -> None:
        for reg in range(first_reg,
                         first_reg + -(-nbytes // GRF_SIZE_BYTES)):
            vec = self._pending_vec.get(reg)
            if vec is None:
                vec = self._pending_vec[reg] = \
                    np.full(self.num_threads, -1, dtype=np.int64)
            vec[rows] = ev.index

    def _memory_cf(self, rows, kind, nbytes, lines, dram, l3_bytes,
                   l3_from_lines, msgs, is_read, surface) -> _CFSendEvent:
        # Same front-end charge as ThreadTrace.memory(): one
        # instruction, two issue slots, issue_at captured *after*.
        self._inst_vec[rows] += 1
        self._issue_vec[rows] += 2 * self._icpi
        ev = _CFSendEvent(kind, nbytes, l3_bytes, l3_from_lines, msgs,
                          is_read, surface, rows.copy(),
                          np.asarray(lines), np.asarray(dram),
                          self._issue_vec[rows].astype(np.float64))
        ev.index = len(self._cf_events)
        self._cf_events.append(ev)
        return ev

    def _account_send_cf(self, inst: Instruction, rows: np.ndarray) -> None:
        """Per-group SEND accounting (mirrors the sequential
        TracingExecutor._account_send for exactly the group's rows)."""
        msg = inst.msg
        surf = self._surface(msg.surface)
        kind = msg.kind
        label = getattr(surf, "obs_label", None) or f"bti{msg.surface}"

        if kind in (MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE):
            x = self._scalar_vec(msg.addr0)[rows]
            y = self._scalar_vec(msg.addr1)[rows]
            w, h = msg.block_width, msg.block_height
            nbytes = w * h
            lines, new = surf.mark_lines_block2d_many(x, y, w, h, surf.pitch)
            messages = media_block_messages(w, h)
            if messages > 1:
                self._scalar_cf(rows, 2 * (messages - 1))
            is_read = kind is MsgKind.MEDIA_BLOCK_READ
            ev = self._memory_cf(
                rows,
                MemKind.BLOCK2D_READ if is_read else MemKind.BLOCK2D_WRITE,
                nbytes, lines, new, nbytes, False, messages, is_read, label)
            if is_read:
                self._register_load_cf(msg.payload_reg, nbytes, ev, rows)
        elif kind in (MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE):
            offset = self._scalar_vec(msg.addr0)[rows]
            nbytes = msg.payload_bytes
            lines, new = surf.mark_lines_range_many(offset, nbytes)
            messages = oword_block_messages(nbytes)
            if messages > 1:
                self._scalar_cf(rows, 2 * (messages - 1))
            is_read = kind is MsgKind.OWORD_BLOCK_READ
            ev = self._memory_cf(
                rows, MemKind.OWORD_READ if is_read else MemKind.OWORD_WRITE,
                nbytes, lines, new, nbytes, False, messages, is_read, label)
            if is_read:
                self._register_load_cf(msg.payload_reg, nbytes, ev, rows)
        else:  # GATHER / SCATTER / ATOMIC
            n = inst.exec_size
            elem = msg.elem_dtype
            byte_offs = self._scattered_offsets(inst)[rows]
            mask = self._exec_mask(inst)
            sub = None if mask is None else \
                np.broadcast_to(mask[rows], (rows.size, n))
            lines, new = surf.mark_lines_offsets_many(byte_offs, elem.size,
                                                      mask=sub)
            messages = scatter_messages(n)
            nbytes = n * elem.size
            if kind is MsgKind.GATHER:
                if messages > 1:
                    self._scalar_cf(rows, 2 * (messages - 1))
                ev = self._memory_cf(rows, MemKind.GATHER, nbytes, lines,
                                     new, None, True, messages, True, label)
                self._register_load_cf(msg.payload_reg, nbytes, ev, rows)
            elif kind is MsgKind.SCATTER:
                if messages > 1:
                    self._scalar_cf(rows, 2 * (messages - 1))
                self._memory_cf(rows, MemKind.SCATTER, nbytes, lines, new,
                                None, True, messages, False, label)
            else:  # ATOMIC
                ev = self._memory_cf(rows, MemKind.ATOMIC, nbytes, lines,
                                     new, None, True, messages, True, label)
                ev.words = byte_offs // 4
                ev.wmask = sub
                ev.surface_id = id(surf)
                if inst.dst is not None:
                    self._register_load_cf(
                        inst.dst.byte_offset // GRF_SIZE_BYTES, nbytes, ev,
                        rows)

    # -- memory accounting (wide) -----------------------------------------

    def _account_send(self, inst: Instruction) -> None:
        msg = inst.msg
        surf = self._surface(msg.surface)
        trace = self.trace
        kind = msg.kind
        label = getattr(surf, "obs_label", None) or f"bti{msg.surface}"

        if kind in (MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE):
            x = self._scalar_vec(msg.addr0)
            y = self._scalar_vec(msg.addr1)
            w, h = msg.block_width, msg.block_height
            nbytes = w * h
            lines, new = surf.mark_lines_block2d_many(x, y, w, h, surf.pitch)
            messages = media_block_messages(w, h)
            self._extra_messages(messages)
            is_read = kind is MsgKind.MEDIA_BLOCK_READ
            ev = trace.memory(
                MemKind.BLOCK2D_READ if is_read else MemKind.BLOCK2D_WRITE,
                nbytes=nbytes, lines=0, dram_lines=0, l3_bytes=nbytes,
                msgs=messages, is_read=is_read, surface=label)
            self._wide_events.append(_WideEvent(ev, lines, new, False))
            if is_read:
                self._register_load(msg.payload_reg, nbytes, ev)
        elif kind in (MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE):
            offset = self._scalar_vec(msg.addr0)
            nbytes = msg.payload_bytes
            lines, new = surf.mark_lines_range_many(offset, nbytes)
            messages = oword_block_messages(nbytes)
            self._extra_messages(messages)
            is_read = kind is MsgKind.OWORD_BLOCK_READ
            ev = trace.memory(
                MemKind.OWORD_READ if is_read else MemKind.OWORD_WRITE,
                nbytes=nbytes, lines=0, dram_lines=0, l3_bytes=nbytes,
                msgs=messages, is_read=is_read, surface=label)
            self._wide_events.append(_WideEvent(ev, lines, new, False))
            if is_read:
                self._register_load(msg.payload_reg, nbytes, ev)
        else:  # GATHER / SCATTER / ATOMIC
            n = inst.exec_size
            elem = msg.elem_dtype
            byte_offs = self._scattered_offsets(inst)  # (T, n)
            mask = self._pred_mask(inst)
            lines, new = surf.mark_lines_offsets_many(byte_offs, elem.size,
                                                      mask=mask)
            messages = scatter_messages(n)
            nbytes = n * elem.size
            if kind is MsgKind.GATHER:
                self._extra_messages(messages)
                ev = trace.memory(MemKind.GATHER, nbytes=nbytes, lines=0,
                                  dram_lines=0, l3_bytes=0, msgs=messages,
                                  surface=label)
                self._wide_events.append(_WideEvent(ev, lines, new, True))
                self._register_load(msg.payload_reg, nbytes, ev)
            elif kind is MsgKind.SCATTER:
                self._extra_messages(messages)
                ev = trace.memory(MemKind.SCATTER, nbytes=nbytes, lines=0,
                                  dram_lines=0, l3_bytes=0, msgs=messages,
                                  is_read=False, surface=label)
                self._wide_events.append(_WideEvent(ev, lines, new, True))
            else:  # ATOMIC
                ev = trace.memory(MemKind.ATOMIC, nbytes=nbytes, lines=0,
                                  dram_lines=0, l3_bytes=0, msgs=messages,
                                  surface=label)
                self._wide_events.append(_WideEvent(
                    ev, lines, new, True, words=byte_offs // 4,
                    wmask=None if mask is None else mask,
                    surface_id=id(surf)))
                if inst.dst is not None:
                    self._register_load(
                        inst.dst.byte_offset // GRF_SIZE_BYTES, nbytes, ev)

    def _scattered_offsets(self, inst: Instruction) -> np.ndarray:
        """(T, n) per-lane byte offsets (same math as execution)."""
        msg = inst.msg
        n = inst.exec_size
        addr_op = RegOperand(msg.addr_reg, 0, UD,
                             region=_contiguous_region(n))
        offsets = self._fetch(addr_op, n).astype(np.int64)
        if msg.addr0 is not None:
            offsets = offsets + self._scalar_vec(msg.addr0)[:, None]
        return offsets * msg.elem_dtype.size

    # -- trace fan-out -----------------------------------------------------

    def drain_traces(self) -> list[ThreadTrace]:
        """Fan the template trace out into T per-thread traces.

        In control-flow mode there is no template: each thread's trace
        is materialized from the (T,) accumulators and the per-row
        event records, in the thread's own dynamic issue order.
        """
        if self._cf_trace:
            return self._drain_traces_cf()
        tmpl = self.trace
        events = self._wide_events
        out = []
        for t in range(self.num_threads):
            tr = ThreadTrace(tmpl.machine)
            tr.issue_cycles = tmpl.issue_cycles
            tr.inst_count = tmpl.inst_count
            tr.barriers = tmpl.barriers
            for we in events:
                e = we.ev
                lines = int(we.lines[t])
                tr.events.append(MemEvent(
                    kind=e.kind, nbytes=e.nbytes, lines=lines,
                    dram_lines=int(we.dram[t]),
                    l3_bytes=lines * 64 if we.l3_from_lines else e.l3_bytes,
                    msgs=e.msgs, texels=e.texels, slm_cycles=e.slm_cycles,
                    issue_at=e.issue_at, consumed_at=e.consumed_at,
                    is_read=e.is_read, surface=e.surface))
                if we.words is not None:
                    words = we.words[t] if we.wmask is None else \
                        we.words[t][we.wmask[t]]
                    tr.atomic_addrs.update(
                        (we.surface_id, int(w)) for w in words)
            out.append(tr)
        self._wide_events = []
        return out

    def _drain_traces_cf(self) -> list[ThreadTrace]:
        machine = self.trace.machine
        T = self.num_threads
        per_thread: list[list] = [[] for _ in range(T)]
        for ev in self._cf_events:
            for i, t in enumerate(ev.rows):
                per_thread[t].append((ev, i))
        out = []
        for t in range(T):
            tr = ThreadTrace(machine)
            tr.issue_cycles = float(self._issue_vec[t])
            tr.inst_count = int(self._inst_vec[t])
            tr.barriers = int(self._barrier_vec[t])
            for ev, i in per_thread[t]:
                lines = int(ev.lines[i])
                consumed = ev.consumed_at[i]
                tr.events.append(MemEvent(
                    kind=ev.kind, nbytes=ev.nbytes, lines=lines,
                    dram_lines=int(ev.dram[i]),
                    l3_bytes=lines * 64 if ev.l3_from_lines else ev.l3_bytes,
                    msgs=ev.msgs, issue_at=float(ev.issue_at[i]),
                    consumed_at=None if consumed < 0 else float(consumed),
                    is_read=ev.is_read, surface=ev.surface))
                if ev.words is not None:
                    words = ev.words[i] if ev.wmask is None else \
                        ev.words[i][ev.wmask[i]]
                    tr.atomic_addrs.update(
                        (ev.surface_id, int(w)) for w in words)
            out.append(tr)
        self._cf_events = []
        self._pending_vec = {}
        self._cf_trace = False
        return out

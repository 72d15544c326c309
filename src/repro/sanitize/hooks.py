"""Executor-side sanitizer hooks.

:class:`ExecSanitizer` is the object a
:class:`~repro.isa.executor.FunctionalExecutor` (sequential) or a
:class:`~repro.isa.wide.WideExecutor` (T threads at once) carries in
its ``san`` slot.  The executor calls ``before_inst`` / ``after_inst``
around every instruction; the hooks

- keep the attached :class:`~repro.sanitize.race.RaceDetector`'s
  current instruction index fresh and forward BARRIER opcodes as
  happens-before edges, and
- drive the :class:`~repro.sanitize.uninit.UninitTracker` by checking
  the exact byte-index plans the executor itself uses for operand
  access (``_src_plan`` / ``_dst_plan``), so validity tracking follows
  regioning, strides, and execution masks bit-for-bit.

The same hook code serves both executors: the masks it reads
(``_exec_mask``, ``_pred_mask``, ``_cf_active_lanes``) are ``(lanes,)``
sequentially and ``(T, lanes)`` / ``(T, 1)`` on the wide executor, and
the tracker's ``(T, 4096)`` bitmap broadcasts against either.  Under
divergent control flow the wide executor issues an instruction for the
group of threads parked at its PC, yet the unmasked checks and marks
(scalar message addresses, block payloads) cover every row.  That is
harmless: the group scheduler always issues the lowest PC and only
WHILE jumps back, so every other thread is further along and has
already run this instruction, and validity bits only ever turn on.  The wide executor has no global
barrier epochs, so ``Device.run_compiled`` keeps programs containing
BARRIER on sanitized-sequential dispatch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.isa.executor import _contiguous_region
from repro.isa.grf import GRF_SIZE_BYTES, RegOperand
from repro.isa.instructions import Immediate, MsgKind, Opcode
from repro.isa.dtypes import UD
from repro.sanitize.race import RaceDetector
from repro.sanitize.uninit import UninitTracker


class ExecSanitizer:
    """Per-launch bundle of executor-driven checkers."""

    def __init__(self, race: Optional[RaceDetector] = None,
                 uninit: Optional[UninitTracker] = None) -> None:
        self.race = race
        self.uninit = uninit
        #: (base, nbytes) -> byte plan of a block-write payload
        self._payload_plans: dict = {}

    def begin_thread(self, key) -> None:
        if self.race is not None:
            self.race.begin_thread(key)
        if self.uninit is not None:
            self.uninit.begin_thread(key)

    def begin_threads(self, keys) -> None:
        """Start a chunk of threads the wide executor runs at once."""
        if self.race is not None:
            self.race.begin_threads(keys)
        if self.uninit is not None:
            self.uninit.begin_threads(keys)

    def mark_grf_valid(self, start: int, nbytes: int,
                       mask: Optional[np.ndarray] = None) -> None:
        """Host-seeded GRF bytes (scalar kernel parameters) are defined
        (in the threads a ``(T, 1)`` ``mask`` selects, if given)."""
        if self.uninit is not None:
            self.uninit.mark_range(start, nbytes, mask)

    # -- executor hooks ----------------------------------------------------

    def before_inst(self, ex, inst) -> None:
        # instructions_executed was already incremented for this inst
        inst_ix = ex.instructions_executed - 1
        if self.race is not None:
            self.race.cur_inst = inst_ix
            if inst.opcode is Opcode.BARRIER:
                self.race.barrier()
        if self.uninit is not None:
            self._check_sources(ex, inst, inst_ix)

    def after_inst(self, ex, inst) -> None:
        if self.uninit is not None:
            self._mark_dest(ex, inst)

    # -- uninit: source checks --------------------------------------------

    def _check_sources(self, ex, inst, inst_ix: int) -> None:
        op = inst.opcode
        if op is Opcode.NOP or op is Opcode.BARRIER:
            return
        if op is Opcode.SEND:
            self._check_send_sources(ex, inst, inst_ix)
            return
        n = inst.exec_size
        srcs = [(src, ex._src_plan(src, n)) for src in inst.srcs
                if isinstance(src, RegOperand)]
        pred = ex._pred_mask(inst) if op is Opcode.SEL else None
        if pred is None:
            self._check_plans(srcs, inst, inst_ix,
                              lambda: ex._exec_mask(inst))
            return
        # each lane of a predicated SEL reads exactly one source: src0
        # where the predicate is set, src1 where it is not; inside
        # divergent control flow only the CF-active lanes read at all.
        act = ex._cf_active_lanes(inst)
        for src, lane_mask in ((inst.srcs[0], pred), (inst.srcs[1], ~pred)):
            if isinstance(src, RegOperand):
                if act is not None:
                    lane_mask = lane_mask & act
                self._check_plans([(src, ex._src_plan(src, n))], inst,
                                  inst_ix, lambda: lane_mask)

    def _check_plans(self, plans, inst, inst_ix: int, mask_of=None) -> None:
        """Check ``(operand, plan)`` pairs, under the lane mask
        ``mask_of()`` if given — worked out only when some plan is not
        yet known to be defined in every lane of every thread."""
        un = self.uninit
        if all(un.known_valid(idx) for _, idx in plans):
            return
        mask = None if mask_of is None else mask_of()
        opname = inst.opcode.name.lower()
        for operand, idx in plans:
            un.check_plan(idx, mask, inst_ix, opname, operand)

    def _check_send_sources(self, ex, inst, inst_ix: int) -> None:
        msg = inst.msg
        if msg is None:
            return
        kind = msg.kind
        self._check_plans([(addr, ex._src_plan(addr, 1))
                           for addr in (msg.addr0, msg.addr1)
                           if isinstance(addr, RegOperand)],
                          inst, inst_ix)
        if kind is MsgKind.MEDIA_BLOCK_WRITE:
            self._check_payload(inst, inst_ix,
                                msg.block_width * msg.block_height)
        elif kind is MsgKind.OWORD_BLOCK_WRITE:
            self._check_payload(inst, inst_ix, msg.payload_bytes)
        elif kind in (MsgKind.GATHER, MsgKind.SCATTER, MsgKind.ATOMIC):
            n = inst.exec_size
            operands = [RegOperand(msg.addr_reg, 0, UD,
                                   region=_contiguous_region(n))]
            if kind is MsgKind.SCATTER or (
                    kind is MsgKind.ATOMIC and msg.payload_bytes):
                operands.append(RegOperand(msg.payload_reg, 0,
                                           msg.elem_dtype,
                                           region=_contiguous_region(n)))
            self._check_plans([(o, ex._src_plan(o, n)) for o in operands],
                              inst, inst_ix, lambda: ex._exec_mask(inst))

    def _check_payload(self, inst, inst_ix: int, nbytes: int) -> None:
        # block-write payloads are not lane-maskable: check every byte
        # as one lane.
        reg = inst.msg.payload_reg
        base = reg * GRF_SIZE_BYTES
        idx = self._payload_plans.get((base, nbytes))
        if idx is None:
            idx = self._payload_plans[(base, nbytes)] = \
                np.arange(base, base + nbytes)[None, :]
        self._check_plans([(RegOperand(reg, 0, UD), idx)], inst, inst_ix)

    # -- uninit: destination marking --------------------------------------

    def _mark_dest(self, ex, inst) -> None:
        op = inst.opcode
        un = self.uninit
        if op is Opcode.SEND:
            msg = inst.msg
            if msg is None:
                return
            base = msg.payload_reg * GRF_SIZE_BYTES
            kind = msg.kind
            if kind is MsgKind.MEDIA_BLOCK_READ:
                un.mark_range(base, msg.block_width * msg.block_height)
            elif kind is MsgKind.OWORD_BLOCK_READ:
                un.mark_range(base, msg.payload_bytes)
            elif kind is MsgKind.GATHER:
                # inactive lanes receive zeros from the surface gather,
                # so the whole landing pad is defined.
                un.mark_range(base, inst.exec_size * msg.elem_dtype.size)
            elif kind is MsgKind.ATOMIC and inst.dst is not None:
                # the old-value payload lands only in active lanes;
                # disabled lanes keep their previous (possibly
                # undefined) contents.
                idx = ex._dst_plan(inst.dst, inst.exec_size)
                if not un.known_valid(idx):
                    un.mark_plan(idx, ex._exec_mask(inst))
            return
        dst = inst.dst
        if dst is None or isinstance(dst, Immediate):
            return
        idx = ex._dst_plan(dst, inst.exec_size)
        if un.known_valid(idx):
            return
        if op is Opcode.CMP or op is Opcode.SEL:
            # CMP's bool-vector dst and SEL both write every CF-active
            # lane (SEL's predicate only chooses the source; outside
            # divergent control flow that is every lane).
            un.mark_plan(idx, ex._cf_active_lanes(inst))
            return
        un.mark_plan(idx, ex._exec_mask(inst))

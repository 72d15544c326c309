"""Uninitialized-GRF-read tracking for compiled-kernel execution.

The functional executor zeroes the register file between threads, so a
kernel that reads a register it never wrote silently computes with
zeros — plausible-looking results that mask a codegen or register
allocation bug.  :class:`UninitTracker` shadows the 4 KB register file
with a per-byte validity bitmap: destination writes mark bytes valid,
source fetches check them, and execution masks are honoured so
predicated-off lanes never false-positive (a lane the predicate
disables neither reads its sources nor taints its destination).

The tracker is driven by the executor's sanitizer hooks (see
:class:`repro.sanitize.hooks.ExecSanitizer`): ``before_inst`` checks the
source operands an instruction is about to fetch, ``after_inst`` marks
the bytes it defined.  Reported bytes are marked valid immediately so a
single missing initialization produces one finding, not a cascade
through every dependent instruction.

The bitmap is ``(T, 4096)``: one row per thread the executor runs at
once — a single row under sequential dispatch, one per stacked register
file under the wide executor.  Masks broadcast against ``(T, lanes)``,
so the sequential ``(lanes,)`` masks and the wide ``(T, lanes)`` /
``(T, 1)`` ones go through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.isa.grf import GRF_SIZE_BYTES, RegOperand

#: cap on retained findings; the total count keeps incrementing past it.
_MAX_FINDINGS = 32


@dataclass(frozen=True)
class UninitRead:
    """One read of never-written GRF bytes by an active lane."""

    thread: object
    inst: int
    opcode: str
    reg: int
    subreg: int
    lanes: tuple

    def to_dict(self) -> dict:
        return {
            "thread": list(self.thread) if isinstance(self.thread, tuple)
            else self.thread,
            "inst": self.inst, "opcode": self.opcode,
            "reg": self.reg, "subreg": self.subreg,
            "lanes": list(self.lanes),
        }

    def __str__(self) -> str:
        return (f"uninitialized read of r{self.reg}.{self.subreg} lanes "
                f"{list(self.lanes)} by {self.opcode} (inst {self.inst}, "
                f"thread {self.thread})")


class UninitTracker:
    """Shadow validity bitmap over the register files of T threads."""

    def __init__(self, num_regs: int = 128) -> None:
        self.valid = np.zeros((1, num_regs * GRF_SIZE_BYTES), dtype=bool)
        self.findings: List[UninitRead] = []
        self.total = 0
        #: thread key of each bitmap row
        self.threads: list = [-1]
        #: id -> plan array whose bytes are valid in every row: checks
        #: and marks of it are no-ops until the rows are reset (bits only
        #: ever turn valid).  Holding the array keeps its id unique.
        self._all_valid: dict = {}

    def begin_thread(self, key) -> None:
        self.begin_threads([key])

    def begin_threads(self, keys) -> None:
        """Fresh (all-undefined) rows for the threads ``keys``."""
        self.threads = list(keys)
        self._all_valid.clear()
        if self.valid.shape[0] == len(self.threads):
            self.valid.fill(False)
        else:
            self.valid = np.zeros((len(self.threads), self.valid.shape[1]),
                                  dtype=bool)

    def known_valid(self, idx: np.ndarray) -> bool:
        """Whether every byte of plan ``idx`` is already known to be
        defined in every row (then checking or marking it is a no-op)."""
        return id(idx) in self._all_valid

    # -- marking ----------------------------------------------------------

    def mark_range(self, start: int, nbytes: int,
                   mask: Optional[np.ndarray] = None) -> None:
        """Mark bytes ``[start, start + nbytes)`` valid in every row, or
        in the rows a ``(T, 1)`` ``mask`` selects."""
        if mask is None:
            self.valid[:, start:start + nbytes] = True
        else:
            self.valid[:, start:start + nbytes] |= np.asarray(mask,
                                                              dtype=bool)

    def mark_plan(self, idx: np.ndarray,
                  mask: Optional[np.ndarray] = None) -> None:
        """Mark a planned ``(lanes, elem_size)`` byte-index array valid."""
        if self.known_valid(idx):
            return
        if mask is None:
            self.valid[:, idx] = True
            self._all_valid[id(idx)] = idx
        else:
            self._mark_lanes(idx, np.broadcast_to(
                np.asarray(mask, dtype=bool),
                (self.valid.shape[0], idx.shape[0])))

    # -- checking ---------------------------------------------------------

    def check_plan(self, idx: np.ndarray, mask: Optional[np.ndarray],
                   inst_ix: int, opcode: str, operand: RegOperand) -> None:
        """Check a planned byte-index array; report lanes whose bytes were
        never written, then mark them to suppress cascaded findings."""
        if self.known_valid(idx):
            return
        plan = idx.reshape(idx.shape[0], -1)
        ok = self.valid[:, plan].all(axis=2)           # (T, lanes)
        if ok.all():
            self._all_valid[id(idx)] = idx
            return
        bad = ~ok
        if mask is not None:
            bad &= np.asarray(mask, dtype=bool)
        if not bad.any():
            return
        self.total += int(bad.sum())
        for row in np.flatnonzero(bad.any(axis=1)):
            if len(self.findings) >= _MAX_FINDINGS:
                break
            lanes = tuple(int(i) for i in np.flatnonzero(bad[row])[:8])
            self.findings.append(UninitRead(
                thread=self.threads[row], inst=inst_ix, opcode=opcode,
                reg=operand.reg, subreg=operand.subreg, lanes=lanes))
        self._mark_lanes(plan, bad)

    def _mark_lanes(self, idx: np.ndarray, lanes: np.ndarray) -> None:
        """Mark the bytes of each (row, lane) pair set in ``lanes``."""
        rr, ll = np.nonzero(lanes)
        self.valid[rr[:, None], idx[ll]] = True

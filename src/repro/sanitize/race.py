"""Cross-thread data-race detection over surface accesses.

The simulator dispatches hardware threads *sequentially*, so any
cross-thread memory dependency is silently resolved by dispatch order —
the exact class of bug that makes the grid-vectorized wide path
(:mod:`repro.isa.wide`) produce different results from sequential
dispatch, and that is undefined behaviour on real hardware.  The
:class:`RaceDetector` records per-thread read/write/atomic shadow sets
for every attached surface (buffers, images, SLM) while a kernel runs
sequentially, applies barrier-based happens-before (a barrier ends the
current *epoch*: accesses in different epochs are ordered, accesses in
the same epoch by different threads are concurrent), and emits a
:class:`RaceVerdict` naming the conflicting threads, instruction
indices, and byte ranges.

Attachment is cooperative: ``Surface`` access methods forward every
access to their ``_san_rec`` recorder when one is set, so the eager CM
intrinsics, the compiled :class:`~repro.isa.executor.FunctionalExecutor`
SEND paths, and the OpenCL SLM builtins are all covered by the same
notification hooks without knowing about the detector.

Threads are interned in first-seen order.  Per surface and access
category the detector keeps *first-owner* and *last-owner* byte maps
holding the lowest and highest thread id that touched each byte — a
byte was touched by two or more distinct threads exactly when the two
differ.  That turns conflict checking into a handful of vectorized
comparisons per epoch instead of per-access set algebra.  Under
sequential dispatch the lowest id is also the first to arrive, so the
maps update with plain stores.

The wide executor (:mod:`repro.isa.wide`) runs a chunk of threads at
once: :meth:`RaceDetector.begin_threads` interns the chunk, and the
surfaces' wide access paths report every access together with the
stacked thread *row* that made it (the ``note_*_many`` hooks and the
``rows`` argument of :meth:`RaceDetector.note_offsets`).  The same
min/max maps then accumulate over all chunks of a launch, and the same
conflict rules judge them.  A wide run that touches no byte from two
threads in conflicting categories behaves exactly like the sequential
run (each thread reads only its own writes and the initial memory), so
the two verdicts agree on race freedom.  For a racy program the wide
run's results differ from sequential dispatch's and its conflicts carry
coarser instruction indices, so ``Device.run_compiled`` reruns a racy
launch sequentially and reports that run.

Known limit: epochs are global across the detector, so a barrier in one
work-group also appears to order *other* work-groups' accesses to shared
global surfaces.  Work-groups run sequentially in this simulator, so a
cross-group conflict split across another group's barrier can be missed;
conflicts within any single dispatch phase are always caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

#: access-category codes used throughout this module
READ, WRITE, ATOMIC = "r", "w", "a"

#: cap on reported conflicts per (surface, category-pair, epoch); a racy
#: kernel usually conflicts on huge byte ranges, so a few runs suffice.
_MAX_RUNS = 4


@dataclass(frozen=True)
class Conflict:
    """One conflicting pair of cross-thread accesses."""

    surface: str
    kind: str  # "write-write" | "read-write" | "atomic-write" | "atomic-read"
    thread_a: object
    thread_b: object
    inst_a: int
    inst_b: int
    byte_range: Tuple[int, int]
    epoch: int

    def to_dict(self) -> dict:
        return {
            "surface": self.surface, "kind": self.kind,
            "thread_a": _jsonable(self.thread_a),
            "thread_b": _jsonable(self.thread_b),
            "inst_a": self.inst_a, "inst_b": self.inst_b,
            "byte_range": list(self.byte_range), "epoch": self.epoch,
        }

    def __str__(self) -> str:
        lo, hi = self.byte_range
        return (f"{self.kind} race on {self.surface}"
                f"[{lo}:{hi}] between thread {self.thread_a} "
                f"(inst {self.inst_a}) and thread {self.thread_b} "
                f"(inst {self.inst_b}) in epoch {self.epoch}")


@dataclass
class RaceVerdict:
    """Per-kernel outcome of a sanitized run."""

    race_free: bool
    conflicts: List[Conflict] = field(default_factory=list)
    threads: int = 0
    epochs: int = 1
    events: int = 0
    surfaces: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "race_free": self.race_free,
            "conflicts": [c.to_dict() for c in self.conflicts],
            "threads": self.threads, "epochs": self.epochs,
            "events": self.events, "surfaces": self.surfaces,
        }

    def __str__(self) -> str:
        if self.race_free:
            return (f"race_free ({self.threads} threads, "
                    f"{self.events} accesses, {self.epochs} epoch(s))")
        return "; ".join(str(c) for c in self.conflicts)


class _CatShadow:
    """First/last owner maps for one access category on one surface."""

    __slots__ = ("first_t", "last_t", "first_i", "last_i", "lo", "hi")

    def __init__(self, nbytes: int) -> None:
        self.first_t = np.full(nbytes, -1, dtype=np.int32)
        self.last_t = np.full(nbytes, -1, dtype=np.int32)
        self.first_i = np.zeros(nbytes, dtype=np.int32)
        self.last_i = np.zeros(nbytes, dtype=np.int32)
        self.lo = nbytes
        self.hi = 0

    @property
    def touched(self) -> bool:
        return self.hi > self.lo

    def note_slice(self, s: int, e: int, tid: int, inst: int) -> None:
        ft = self.first_t[s:e]
        fresh = ft < 0
        if fresh.any():
            ft[fresh] = tid
            self.first_i[s:e][fresh] = inst
        self.last_t[s:e] = tid
        self.last_i[s:e] = inst
        if s < self.lo:
            self.lo = s
        if e > self.hi:
            self.hi = e

    def note_bytes(self, idx: np.ndarray, tid: int, inst: int) -> None:
        if idx.size == 0:
            return
        fresh = self.first_t[idx] < 0
        if fresh.any():
            nb = idx[fresh]
            self.first_t[nb] = tid
            self.first_i[nb] = inst
        self.last_t[idx] = tid
        self.last_i[idx] = inst
        lo, hi = int(idx.min()), int(idx.max()) + 1
        if lo < self.lo:
            self.lo = lo
        if hi > self.hi:
            self.hi = hi

    def note_many(self, idx: np.ndarray, tids: np.ndarray,
                  inst: int) -> None:
        """Bytes ``idx`` touched by threads ``tids`` (one per byte, in
        any order): fold the lowest and highest id into the maps."""
        if idx.size == 0:
            return
        tids = tids.astype(np.int32, copy=False)
        cur = self.first_t[idx]
        lower = (cur < 0) | (tids < cur)
        if lower.any():
            sel = idx[lower]
            self.first_t[sel] = np.iinfo(np.int32).max
            np.minimum.at(self.first_t, sel, tids[lower])
            self.first_i[sel] = inst
        higher = tids > self.last_t[idx]
        if higher.any():
            sel = idx[higher]
            np.maximum.at(self.last_t, sel, tids[higher])
            self.last_i[sel] = inst
        lo, hi = int(idx.min()), int(idx.max()) + 1
        if lo < self.lo:
            self.lo = lo
        if hi > self.hi:
            self.hi = hi

    def reset_epoch(self) -> None:
        if self.touched:
            self.first_t[self.lo:self.hi] = -1
            self.last_t[self.lo:self.hi] = -1
        self.lo = self.first_t.size
        self.hi = 0


class _SurfShadow:
    """Per-surface shadow state: one :class:`_CatShadow` per category."""

    __slots__ = ("label", "nbytes", "cats")

    def __init__(self, label: str, nbytes: int) -> None:
        self.label = label
        self.nbytes = nbytes
        self.cats: Dict[str, _CatShadow] = {}

    def cat(self, kind: str) -> _CatShadow:
        sh = self.cats.get(kind)
        if sh is None:
            sh = self.cats[kind] = _CatShadow(self.nbytes)
        return sh


class RaceDetector:
    """Records per-thread shadow sets and judges race freedom.

    Usage: :meth:`attach` the surfaces a kernel binds, call
    :meth:`begin_thread` before each hardware thread runs (thread keys
    may be any hashable — linear indices, grid tuples, OpenCL subgroup
    ids) or :meth:`begin_threads` before each chunk of threads the wide
    executor runs at once, :meth:`barrier` at every happens-before edge
    (sequential dispatch only), and :meth:`finish` after the grid
    completes to obtain the verdict (this also detaches the recorder).
    """

    #: surfaces whose obs label marks them thread-private (the compiled
    #: path's spill scratch is zeroed per thread; accesses can never
    #: conflict across threads).
    SKIP_LABELS = ("scratch",)

    def __init__(self) -> None:
        self._shadows: Dict[int, _SurfShadow] = {}
        self._attached: list = []
        self._thread_ids: Dict[object, int] = {}
        self._thread_keys: List[object] = []
        self.cur_thread = -1
        #: thread id of stacked row 0 of the current wide chunk.
        self._row_base = 0
        #: current instruction index; executor hooks keep it fresh, the
        #: eager paths leave it at -1 and the per-access event ordinal is
        #: reported instead.
        self.cur_inst = -1
        self.epoch = 0
        self.events = 0
        self.conflicts: List[Conflict] = []

    # -- wiring ----------------------------------------------------------

    def attach(self, surfaces: Iterable) -> "RaceDetector":
        for surf in surfaces:
            self.attach_surface(surf)
        return self

    def attach_surface(self, surf) -> None:
        if surf is None or getattr(surf, "obs_label", "") in self.SKIP_LABELS:
            return
        if surf._san_rec is self:
            return
        surf._san_rec = self
        self._attached.append(surf)
        self._shadows[id(surf)] = _SurfShadow(
            getattr(surf, "obs_label", "surface"), surf.bytes.size)

    def detach(self) -> None:
        for surf in self._attached:
            if surf._san_rec is self:
                surf._san_rec = None
        self._attached.clear()

    # -- thread / epoch structure ----------------------------------------

    def begin_thread(self, key) -> None:
        tid = self._thread_ids.get(key)
        if tid is None:
            tid = len(self._thread_keys)
            self._thread_ids[key] = tid
            self._thread_keys.append(key)
        self.cur_thread = tid
        self.cur_inst = -1

    def begin_threads(self, keys) -> None:
        """Start a chunk of threads that run at once: ``keys`` are new
        thread keys in launch order, and row ``r`` of the chunk's wide
        accesses is ``keys[r]``."""
        self._row_base = len(self._thread_keys)
        for key in keys:
            self._thread_ids[key] = len(self._thread_keys)
            self._thread_keys.append(key)
        self.cur_inst = -1

    def barrier(self) -> None:
        """End the current epoch: accesses before and after are ordered."""
        self._finalize_epoch()
        self.epoch += 1

    # -- access notifications (called from Surface methods) ---------------

    def note_range(self, surf, kind: str, start: int, nbytes: int) -> None:
        if nbytes <= 0:
            return
        self.events += 1
        sh = self._shadows[id(surf)]
        s = max(int(start), 0)
        e = min(int(start) + int(nbytes), sh.nbytes)
        if e > s:
            sh.cat(kind).note_slice(s, e, self.cur_thread, self._inst())

    def note_offsets(self, surf, kind: str, byte_offsets, elem_size: int,
                     mask=None, rows=None) -> None:
        """Scattered ``elem_size``-byte accesses; ``rows`` (one per
        offset) names the stacked thread of each lane of a wide access,
        ``None`` means the current thread made them all."""
        offs = np.asarray(byte_offsets, dtype=np.int64).ravel()
        if mask is not None:
            keep = np.asarray(mask, dtype=bool).ravel()
            offs = offs[keep]
            if rows is not None:
                rows = np.asarray(rows).ravel()[keep]
        if offs.size == 0:
            return
        idx = (offs[:, None] + np.arange(elem_size)).ravel()
        if rows is None:
            self.events += 1
            sh = self._shadows[id(surf)]
            idx = idx[(idx >= 0) & (idx < sh.nbytes)]
            sh.cat(kind).note_bytes(idx, self.cur_thread, self._inst())
            return
        rows = np.asarray(rows)
        self.events += np.unique(rows).size
        self._note_many(surf, kind, idx, np.repeat(rows, elem_size))

    def note_ranges_many(self, surf, kind: str, starts, nbytes: int,
                         rows=None) -> None:
        """One contiguous ``nbytes`` access per stacked thread: row
        ``rows[i]`` (default ``i``) starts at ``starts[i]``."""
        starts = np.asarray(starts, dtype=np.int64)
        if nbytes <= 0 or starts.size == 0:
            return
        rows = np.arange(starts.size) if rows is None else np.asarray(rows)
        self.events += starts.size
        self._note_many(surf, kind,
                        (starts[:, None] + np.arange(nbytes)).ravel(),
                        np.repeat(rows, nbytes))

    def note_rects_many(self, surf, kind: str, x0, x1, y0, y1, pitch: int,
                        rows=None) -> None:
        """One clamped 2D block per stacked thread: rows ``[y0, y1)``,
        byte columns ``[x0, x1)`` (arrays, one entry per thread)."""
        x0, x1, y0, y1 = (np.asarray(a, dtype=np.int64)
                          for a in (x0, x1, y0, y1))
        rows = np.arange(x0.size) if rows is None else np.asarray(rows)
        w, h = x1 - x0, y1 - y0
        live = (w > 0) & (h > 0)
        if not live.any():
            return
        x0, y0, w, h, rows = x0[live], y0[live], w[live], h[live], rows[live]
        self.events += rows.size
        ry = np.arange(int(h.max()))
        cx = np.arange(int(w.max()))
        idx = ((y0[:, None, None] + ry[:, None]) * pitch
               + x0[:, None, None] + cx)
        inside = (ry[:, None] < h[:, None, None]) & \
            (cx < w[:, None, None])
        self._note_many(surf, kind, idx[inside],
                        np.broadcast_to(rows[:, None, None], idx.shape)[inside])

    def _note_many(self, surf, kind: str, idx: np.ndarray,
                   rows: np.ndarray) -> None:
        sh = self._shadows[id(surf)]
        keep = (idx >= 0) & (idx < sh.nbytes)
        sh.cat(kind).note_many(idx[keep], self._row_base + rows[keep],
                               self._inst())

    def note_rect(self, surf, kind: str, x0: int, x1: int, y0: int, y1: int,
                  pitch: int) -> None:
        """A clamped 2D block access: rows ``[y0, y1)``, byte columns
        ``[x0, x1)`` of a surface with row ``pitch``."""
        if x1 <= x0 or y1 <= y0:
            return
        self.events += 1
        sh = self._shadows[id(surf)]
        cat = sh.cat(kind)
        tid, inst = self.cur_thread, self._inst()
        for row in range(y0, y1):
            cat.note_slice(row * pitch + x0, row * pitch + x1, tid, inst)

    def _inst(self) -> int:
        return self.cur_inst if self.cur_inst >= 0 else self.events

    # -- verdict ----------------------------------------------------------

    def finish(self) -> RaceVerdict:
        self._finalize_epoch()
        self.detach()
        return RaceVerdict(
            race_free=not self.conflicts,
            conflicts=list(self.conflicts),
            threads=len(self._thread_keys),
            epochs=self.epoch + 1,
            events=self.events,
            surfaces=[sh.label for sh in self._shadows.values()])

    def _finalize_epoch(self) -> None:
        for sh in self._shadows.values():
            self._check_surface(sh)
            for cat in sh.cats.values():
                cat.reset_epoch()

    def _check_surface(self, sh: _SurfShadow) -> None:
        r = sh.cats.get(READ)
        w = sh.cats.get(WRITE)
        a = sh.cats.get(ATOMIC)
        if w is not None and w.touched:
            # write-write: first and last writer differ
            self._report(sh, "write-write", w, w,
                         self._span_mask(w, w, lambda wf, wl, _f, _l:
                                         wf != wl))
        for kind, ca, cb in (("read-write", r, w),
                             ("atomic-write", a, w),
                             ("atomic-read", a, r)):
            if ca is None or cb is None or not ca.touched or not cb.touched:
                continue
            self._report(sh, kind, ca, cb, self._span_mask(
                ca, cb, lambda af, al, bf, bl:
                (af >= 0) & (bf >= 0) &
                ~((af == al) & (bf == bl) & (af == bf))))

    @staticmethod
    def _span_mask(ca: _CatShadow, cb: _CatShadow, rule):
        lo = min(ca.lo, cb.lo)
        hi = max(ca.hi, cb.hi)
        if hi <= lo:
            return lo, np.zeros(0, dtype=bool)
        return lo, rule(ca.first_t[lo:hi], ca.last_t[lo:hi],
                        cb.first_t[lo:hi], cb.last_t[lo:hi])

    def _report(self, sh: _SurfShadow, kind: str, ca: _CatShadow,
                cb: _CatShadow, span_mask) -> None:
        lo, mask = span_mask
        bad = np.flatnonzero(mask)
        if bad.size == 0:
            return
        # group conflicting bytes into contiguous runs and report a pair
        # of accesses per run (capped; racy kernels conflict over huge
        # ranges and one representative pair per run is enough to debug).
        breaks = np.flatnonzero(np.diff(bad) > 1)
        starts = np.concatenate(([bad[0]], bad[breaks + 1]))
        ends = np.concatenate((bad[breaks], [bad[-1]])) + 1
        for s, e in list(zip(starts, ends))[:_MAX_RUNS]:
            b0 = int(lo + s)
            ta, ia = int(ca.first_t[b0]), int(ca.first_i[b0])
            tb, ib = int(cb.last_t[b0]), int(cb.last_i[b0])
            if ta == tb:  # same endpoint thread: take the other end
                ta, ia = int(ca.last_t[b0]), int(ca.last_i[b0])
            self.conflicts.append(Conflict(
                surface=sh.label, kind=kind,
                thread_a=self._key(ta), thread_b=self._key(tb),
                inst_a=ia, inst_b=ib,
                byte_range=(int(lo + s), int(lo + e)), epoch=self.epoch))

    def _key(self, tid: int):
        if 0 <= tid < len(self._thread_keys):
            return self._thread_keys[tid]
        return tid


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def certify(run_fn, surfaces: Iterable,
            detector: Optional[RaceDetector] = None) -> RaceVerdict:
    """Run ``run_fn(detector)`` with ``surfaces`` attached and return the
    verdict — convenience wrapper for tests and ad-hoc certification."""
    det = detector if detector is not None else RaceDetector()
    det.attach(surfaces)
    try:
        run_fn(det)
    finally:
        verdict = det.finish()
    return verdict

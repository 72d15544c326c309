"""Bounded submission queue with admission control and backpressure.

The cluster front door.  Admission follows a watermark contract:

- depth < ``high_watermark``: the request is admitted immediately.
- depth >= ``high_watermark`` (or the queue is at ``capacity``): the
  submit is **rejected** with :class:`Backpressure`, carrying a
  ``retry_after_s`` hint derived from the consumer's observed drain
  rate — the serving-layer equivalent of HTTP 429 + ``Retry-After``.
  ``submit(block=True)`` instead parks the caller until space frees
  (the closed-loop load-generator mode).

Depth is exported as a gauge and admissions/rejections as counters on
the registry the cluster provides, so a loadgen report can show how hard
the front door was hit.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from typing import List, Optional

from repro.obs.metrics import MetricsRegistry

from repro.serve.request import Request, RequestStatus


class Backpressure(RuntimeError):
    """Submission refused; retry after ``retry_after_s`` seconds."""

    def __init__(self, depth: int, capacity: int,
                 retry_after_s: float) -> None:
        super().__init__(
            f"submission queue full ({depth}/{capacity}); "
            f"retry after {retry_after_s * 1e3:.1f} ms")
        self.depth = depth
        self.capacity = capacity
        self.retry_after_s = retry_after_s


class ShutDown(RuntimeError):
    """Submitted to a closed queue."""


#: Per-request retry hint used while the drain rate is unmeasured (no
#: ``take()`` has completed yet — first requests after start or reset).
#: Without it the hint collapses to the 1 ms floor and rejected clients
#: hot-loop against a consumer that has not even woken up.
DEFAULT_RETRY_S = 0.02

#: Bounds every retry hint, measured or not.
MIN_RETRY_S = 1e-3
MAX_RETRY_S = 1.0


class SubmissionQueue:
    """FIFO request queue with watermark admission control."""

    def __init__(self, capacity: int = 512,
                 high_watermark: Optional[int] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.high_watermark = high_watermark if high_watermark is not None \
            else capacity
        if not 1 <= self.high_watermark <= capacity:
            raise ValueError("high_watermark must be in [1, capacity]")
        self._items: deque = deque()
        self._cv = threading.Condition()
        self._closed = False
        #: EMA of seconds between dequeues; seeds the retry-after hint.
        self._drain_interval_s = 1e-3
        self._last_take: Optional[float] = None
        self.registry = registry if registry is not None else MetricsRegistry()
        self._depth = self.registry.gauge(
            "serve_queue_depth", "requests waiting for dispatch")
        self._admitted = self.registry.counter(
            "serve_queue_admitted", "requests admitted")
        self._rejected = self.registry.counter(
            "serve_queue_rejected", "submissions rejected by backpressure")

    def __len__(self) -> int:
        with self._cv:
            return self._size()

    # -- storage hooks (subclasses reorder without touching admission) -----

    def _push(self, request: Request) -> None:
        self._items.append(request)

    def _pop(self) -> Request:
        return self._items.popleft()

    def _size(self) -> int:
        return len(self._items)

    # -- producer side ----------------------------------------------------

    def retry_after_s(self, overflow: int) -> float:
        """Backpressure hint: time for the consumer to drain ``overflow``.

        While the drain rate is unmeasured (nothing taken yet) or the
        EMA has degenerated (zero / non-finite interval), the hint is a
        bounded default rather than the raw seed — a freshly started or
        reset queue should tell clients "come back in a beat", not
        "hammer me every millisecond".
        """
        interval = self._drain_interval_s
        if self._last_take is None or not math.isfinite(interval) \
                or interval <= 0.0:
            interval = DEFAULT_RETRY_S
        return min(MAX_RETRY_S, max(MIN_RETRY_S, overflow * interval))

    def submit(self, request: Request, block: bool = False,
               timeout: Optional[float] = None) -> Request:
        """Admit ``request`` or raise :class:`Backpressure`.

        ``block=True`` waits for space below the watermark instead of
        rejecting (closed-loop callers); ``timeout`` bounds the wait.
        """
        with self._cv:
            if block:
                ok = self._cv.wait_for(
                    lambda: self._closed
                    or self._size() < self.high_watermark,
                    timeout)
                if not ok:
                    raise Backpressure(self._size(), self.capacity,
                                       self.retry_after_s(1))
            if self._closed:
                raise ShutDown("submission queue is closed")
            depth = self._size()
            if depth >= self.high_watermark or depth >= self.capacity:
                self._rejected.inc()
                raise Backpressure(
                    depth, self.capacity,
                    self.retry_after_s(depth - self.high_watermark + 1))
            request.status = RequestStatus.QUEUED
            request.t_submit_wall = time.perf_counter()
            request.queue_depth_at_admit = depth
            self._push(request)
            self._admitted.inc()
            self._depth.set(self._size())
            self._cv.notify_all()
            return request

    # -- consumer side ----------------------------------------------------

    def take(self, max_items: int = 1,
             timeout: Optional[float] = None) -> List[Request]:
        """Block for at least one request, then drain up to ``max_items``.

        Returns an empty list only when the queue is closed and empty
        (consumer shutdown) or the timeout expired.
        """
        with self._cv:
            ok = self._cv.wait_for(
                lambda: self._size() or self._closed, timeout)
            if not ok or not self._size():
                return []
            out = []
            while self._size() and len(out) < max_items:
                out.append(self._pop())
            now = time.perf_counter()
            if self._last_take is not None:
                # Per-request drain interval, smoothed (non-negative by
                # construction; the monotonic clock never runs backward).
                sample = (now - self._last_take) / max(len(out), 1)
                self._drain_interval_s += 0.2 * (sample -
                                                 self._drain_interval_s)
            self._last_take = now
            self._depth.set(self._size())
            self._cv.notify_all()
            return out

    def close(self) -> None:
        with self._cv:
            self._closed = True
            self._cv.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

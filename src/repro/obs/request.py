"""Per-request causal span trees, keyed by trace ID.

The compiler/dispatch spans of :mod:`repro.obs.tracing` answer "where
did *this process* spend its time"; they cannot answer "where did
*request 4182* spend its time" once the serving layer interleaves many
requests across the queue, the batcher, and N devices.  This
module adds the request axis:

- :func:`mint_trace_id` issues a process-unique trace ID (stamped on a
  :class:`~repro.serve.request.Request` at ``ServeCluster.submit``),
- :class:`RequestTrace` accumulates one **span tree** per request —
  explicit cross-thread stage spans (``queue_wait``, ``schedule``,
  ``batch_assemble``) recorded by the cluster, plus every
  :func:`~repro.obs.tracing.trace_span` opened while the trace is
  :meth:`~RequestTrace.active` (the device's ``sanitize_gate``,
  ``dispatch:{sequential|wide|jit}``, ``chunk`` and ``fold`` spans land
  here with correct parent linkage, regardless of which thread runs
  them),
- :func:`traces_to_chrome` renders many trees into one Chrome-trace
  document, one timeline row per request.

The bridge is deliberately one-way: activation costs one contextvar
write per request, and a ``trace_span`` call checks one contextvar
before its usual sink check, so the always-on flight recorder stays
inside its <5% serve-path overhead budget
(``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional

from repro.obs import tracing as _tracing

_trace_ids = itertools.count()

#: Scope prefix baked into minted trace IDs.  Empty in a plain process;
#: shard workers set it (``set_trace_scope("s3")``) so IDs minted on
#: both sides of a process boundary can never collide when the parent
#: stitches worker trees into its flight recorder.
_trace_scope = ""

#: Hard per-trace span cap: an eager workload that enqueues hundreds of
#: kernels would otherwise grow its tree without bound.  Exceeding the
#: cap sets ``RequestTrace.truncated`` (never silently).
MAX_SPANS = 1024


def set_trace_scope(scope: str) -> None:
    """Namespace minted trace IDs (e.g. ``"s3"`` inside shard worker 3)."""
    global _trace_scope
    _trace_scope = f"{scope}-" if scope else ""


def mint_trace_id() -> str:
    """A process-unique trace ID (``t-000000`` style, monotonic),
    carrying the process's scope prefix when one is set."""
    return f"t-{_trace_scope}{next(_trace_ids):06x}"


class SpanNode:
    """One node of a request's span tree."""

    __slots__ = ("name", "t0_us", "dur_us", "attrs", "children")

    def __init__(self, name: str, t0_us: float,
                 attrs: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.t0_us = t0_us
        self.dur_us = 0.0
        self.attrs = attrs if attrs is not None else {}
        self.children: List["SpanNode"] = []

    @property
    def t1_us(self) -> float:
        return self.t0_us + self.dur_us

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = {"name": self.name,
                             "t0_us": round(self.t0_us, 3),
                             "dur_us": round(self.dur_us, 3)}
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SpanNode":
        """Rebuild a span subtree from its :meth:`to_dict` form."""
        node = cls(d["name"], float(d.get("t0_us", 0.0)),
                   dict(d.get("attrs", {})))
        node.dur_us = float(d.get("dur_us", 0.0))
        node.children = [cls.from_dict(c) for c in d.get("children", ())]
        return node

    def __repr__(self) -> str:
        return (f"SpanNode({self.name!r}, dur={self.dur_us:.1f}us, "
                f"children={len(self.children)})")


class RequestTrace:
    """The causal span tree of one serving request.

    Stage spans recorded by different threads (the serving thread; in a
    sharded cluster also the router and pump threads) attach at the root
    in recording order; spans opened via :func:`trace_span` while the
    trace is :meth:`active` nest under whatever span is open in that
    context.  A lock guards mutation —
    stages are causally ordered, but the recording threads differ.
    """

    def __init__(self, trace_id: str, workload: str = "",
                 request_id: Optional[int] = None) -> None:
        self.trace_id = trace_id
        self.workload = workload
        self.request_id = request_id
        #: request-level outcome metadata, filled by :meth:`finish`.
        self.meta: Dict[str, Any] = {}
        self.roots: List[SpanNode] = []
        self.truncated = False
        self._stack: List[SpanNode] = []
        self._n = 0
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def push(self, name: str, attrs: Dict[str, Any],
             t0_us: float) -> Optional[SpanNode]:
        """Open a nested span (called by the ``trace_span`` bridge)."""
        with self._lock:
            if self._n >= MAX_SPANS:
                self.truncated = True
                return None
            node = SpanNode(name, t0_us, attrs)
            parent = self._stack[-1] if self._stack else None
            (parent.children if parent is not None
             else self.roots).append(node)
            self._stack.append(node)
            self._n += 1
            return node

    def pop(self, node: SpanNode, t1_us: float) -> None:
        """Close a span previously opened with :meth:`push`."""
        with self._lock:
            node.dur_us = t1_us - node.t0_us
            # LIFO in the overwhelming case; scan defensively otherwise.
            if self._stack and self._stack[-1] is node:
                self._stack.pop()
            elif node in self._stack:
                self._stack.remove(node)

    def record(self, name: str, t0_us: float, t1_us: float,
               **attrs) -> Optional[SpanNode]:
        """Record a completed root-level stage span (cross-thread safe)."""
        with self._lock:
            if self._n >= MAX_SPANS:
                self.truncated = True
                return None
            node = SpanNode(name, t0_us, attrs)
            node.dur_us = max(0.0, t1_us - t0_us)
            self.roots.append(node)
            self._n += 1
            return node

    @contextmanager
    def active(self):
        """Route every ``trace_span`` in this context into the tree."""
        token = _tracing.activate_request(self)
        try:
            yield self
        finally:
            _tracing.deactivate_request(token)

    def finish(self, **meta) -> "RequestTrace":
        """Stamp request-level outcome metadata (status, tier, latency)."""
        self.meta.update(meta)
        if self.truncated:
            self.meta["truncated_at_spans"] = MAX_SPANS
        return self

    def graft(self, other, name: str = "shard",
              **attrs) -> Optional[SpanNode]:
        """Adopt another trace's whole span tree as one nested root span.

        This is the cross-process stitch: a shard worker serializes its
        tree (:meth:`to_dict`), ships it over the completion queue, and
        the parent grafts it here so the worker's ``serve:request`` /
        ``dispatch:*`` spans land in the parent's flight recorder with
        explicit parent linkage.  ``other`` may be a
        :class:`RequestTrace` or its dict form.  Timestamps under the
        graft stay on the child process's clock; the graft span carries
        the child's own trace ID in its attrs.
        """
        if isinstance(other, dict):
            other = RequestTrace.from_dict(other)
        t0 = min((r.t0_us for r in other.roots), default=0.0)
        t1 = max((r.t1_us for r in other.roots), default=t0)
        with self._lock:
            n_new = 1 + other.num_spans
            if self._n + n_new > MAX_SPANS:
                self.truncated = True
                return None
            node = SpanNode(name, t0,
                            {"trace_id": other.trace_id, **attrs})
            node.dur_us = t1 - t0
            node.children = list(other.roots)
            self.roots.append(node)
            self._n += n_new
            return node

    # -- queries -----------------------------------------------------------

    @property
    def num_spans(self) -> int:
        return self._n

    def _walk(self) -> Iterable[SpanNode]:
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def find(self, name: str) -> List[SpanNode]:
        """All spans named ``name`` (prefix match on ``name:*`` allowed)."""
        return [n for n in self._walk()
                if n.name == name or n.name.startswith(name + ":")]

    def span_names(self) -> List[str]:
        return [n.name for n in self._walk()]

    @property
    def tier(self) -> Optional[str]:
        """The dispatch tier this request's kernel took, if recorded."""
        for n in self._walk():
            if n.name.startswith("dispatch:"):
                return n.name.split(":", 1)[1]
        return self.meta.get("tier")

    # -- export ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "workload": self.workload,
            "request_id": self.request_id,
            "meta": dict(self.meta),
            "spans": [r.to_dict() for r in self.roots],
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "RequestTrace":
        """Rebuild a trace from its :meth:`to_dict` form (the shape that
        crosses the shard process boundary)."""
        trace = cls(d["trace_id"], workload=d.get("workload", ""),
                    request_id=d.get("request_id"))
        trace.meta = dict(d.get("meta", {}))
        trace.roots = [SpanNode.from_dict(s) for s in d.get("spans", ())]
        trace._n = sum(1 for _ in trace._walk())
        trace.truncated = "truncated_at_spans" in trace.meta
        return trace

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def to_chrome_events(self, tid: Optional[int] = None) -> List[dict]:
        """Chrome trace-event rows; one ``tid`` per request by default."""
        row = tid if tid is not None else (
            self.request_id if self.request_id is not None else 0)
        events = []
        stack = [(n, None) for n in reversed(self.roots)]
        while stack:
            node, _parent = stack.pop()
            args = dict(node.attrs)
            args["trace_id"] = self.trace_id
            events.append({"name": node.name, "ph": "X", "cat": "request",
                           "ts": node.t0_us, "dur": node.dur_us,
                           "pid": 0, "tid": row, "args": args})
            stack.extend((c, node) for c in reversed(node.children))
        return events

    def __repr__(self) -> str:
        return (f"RequestTrace({self.trace_id!r}, workload="
                f"{self.workload!r}, spans={self._n})")


def traces_to_chrome(traces: Iterable[RequestTrace]) -> dict:
    """Merge request trees into one Chrome-trace document.

    Each request gets its own ``tid`` row named after its trace ID, so
    Perfetto shows one waterfall per request instead of one interleaved
    soup per thread.
    """
    events: List[dict] = [{"name": "process_name", "ph": "M", "pid": 0,
                           "tid": 0, "args": {"name": "repro.serve"}}]
    for trace in traces:
        row = trace.request_id if trace.request_id is not None else 0
        events.append({"name": "thread_name", "ph": "M", "pid": 0,
                       "tid": row,
                       "args": {"name": f"{trace.trace_id} "
                                        f"{trace.workload}"}})
        events.extend(trace.to_chrome_events(tid=row))
    return {"traceEvents": events, "displayTimeUnit": "ms"}

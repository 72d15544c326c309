"""End-to-end request tracing, SLO tracking, and the flight recorder.

Covers the ISSUE 7 checklist: trace IDs minted at submit propagate
through the queue, batcher, scheduler, and every dispatch tier into one
causally-linked span tree per request; the SLO tracker's attainment /
burn-rate math; the bounded ring recorder with auto-dump on SLO breach,
sanitizer findings, and errors; and the Chrome-trace / waterfall
exports.
"""

import json

import numpy as np
import pytest

from repro.obs.recorder import DumpReason, FlightRecorder
from repro.obs.request import (
    MAX_SPANS, RequestTrace, mint_trace_id, traces_to_chrome,
)
from repro.obs.slo import SLObjective, SLOTracker
from repro.obs.tracing import trace_span
from repro.report import flight
from repro.serve import Request, RequestStatus, ServeCluster
from repro.serve.loadgen import run_loadgen
from repro.serve.workloads import KernelLaunch, ServeWorkload, register
from repro.sim.device import Device

_VEC = 16


def _racy_body(cmx, out, tid):
    # every thread reads and rewrites the same 64 bytes at offset 0
    v = cmx.vector(np.float32, _VEC)
    cmx.read(out, 0, v)
    w = cmx.vector(np.float32, _VEC)
    w.assign(v * np.float32(2.0))
    cmx.write(out, 0, w)


def _make_racy(params):
    def bind(device: Device):
        buf = device.buffer(np.ones(_VEC, dtype=np.float32))
        return [buf], (lambda tid: {"tid": tid[0]})

    return KernelLaunch(_racy_body, "serve_racy", [("out", False)],
                        ["tid"], (8,), bind, None)


register(ServeWorkload("test.racy", "compiled", _make_racy,
                       "deliberately racy kernel (tests only)"))


def _submit_direct(cluster, workload, params=None):
    req = Request(workload=workload, params=dict(params or {}))
    cluster._mint_trace(req)
    cluster.queue.submit(req)
    # take it right back out: the serving thread isn't running
    assert cluster.queue.take(max_items=1) == [req]
    return req


class TestRequestTrace:
    def test_trace_ids_are_unique_and_stamped_at_submit(self):
        cluster = ServeCluster(num_devices=1)
        reqs = [_submit_direct(cluster, "saxpy", {"n": 64})
                for _ in range(4)]
        ids = [r.trace_id for r in reqs]
        assert all(ids) and len(set(ids)) == 4
        assert all(isinstance(r.trace, RequestTrace) for r in reqs)
        assert [r.trace.request_id for r in reqs] == [r.id for r in reqs]

    def test_recorder_off_means_no_trace(self):
        cluster = ServeCluster(num_devices=1, recorder=False)
        req = Request(workload="saxpy", params={"n": 64})
        cluster._mint_trace(req)
        assert req.trace_id is None and req.trace is None

    def test_tree_spans_all_tiers_through_a_coalesced_batch(self):
        """One batch, three same-kernel requests: the sanitized head
        runs on the wide interpreter, the certified followers take the
        jit tier —
        and each request still gets its own complete causal tree."""
        cluster = ServeCluster(num_devices=1, batching=True, max_batch=8,
                               validate="first")
        reqs = [_submit_direct(cluster, "saxpy", {"n": 64, "seed": 9})
                for _ in range(3)]
        batches = cluster._serve_window(reqs)
        assert len(batches) == 1 and batches[0].size == 3

        assert [r.tier for r in reqs] == ["wide", "jit", "jit"]
        for pos, req in enumerate(reqs):
            tree = cluster.recorder.get(req.trace_id)
            assert tree is req.trace
            names = tree.span_names()
            assert "serve:request" in names
            assert "sanitize_gate" in names and "fold" in names
            assert tree.tier == req.tier
            (sreq,) = tree.find("serve:request")
            assert sreq.attrs["position"] == pos
            assert sreq.attrs["batch"] == batches[0].id
        # gate outcomes: head sanitized, followers admitted via cert
        gate = cluster.workers[0].device.profile.gate_outcomes
        assert gate.get("sanitized") == 1 and gate.get("admitted") == 2

    def test_stage_spans_recorded_through_running_cluster(self):
        with ServeCluster(num_devices=1, slo={"*": 60_000.0}) as cluster:
            req = cluster.submit("saxpy", {"n": 64})
            assert req.wait(30)
            cluster.drain(30)
        tree = cluster.recorder.get(req.trace_id)
        names = tree.span_names()
        for stage in ("queue_wait", "schedule", "batch_assemble",
                      "serve:request", "sanitize_gate", "fold"):
            assert stage in names, f"missing {stage} in {names}"
        assert any(n.startswith("dispatch:") for n in names), names
        # stage spans are causally ordered on one timeline
        t0 = {n.name: n.t0_us for n in tree.roots}
        assert t0["queue_wait"] <= t0["batch_assemble"] <= t0["schedule"]
        assert tree.meta["status"] == "done"
        assert tree.meta["tier"] == req.tier
        assert tree.meta["slo_breached"] is False

    def test_chunk_spans_stay_out_of_request_trees(self):
        """Per-chunk retire accounting is sink-only: it scales with the
        grid, not the request, so the always-on bridge skips it."""
        tr = RequestTrace(mint_trace_id(), workload="w")
        with tr.active():
            with trace_span("dispatch", kernel="k"):
                with trace_span("chunk", kernel="k", threads=4):
                    pass
        assert tr.span_names() == ["dispatch"]

    def test_max_spans_truncation_is_flagged(self):
        tr = RequestTrace("t-cap", workload="w")
        for i in range(MAX_SPANS + 10):
            tr.record("stage", float(i), float(i + 1))
        assert tr.num_spans == MAX_SPANS
        assert tr.truncated
        assert tr.finish().meta["truncated_at_spans"] == MAX_SPANS

    def test_chrome_export_one_row_per_request(self):
        a = RequestTrace("t-a", workload="wa", request_id=1)
        a.record("queue_wait", 0.0, 5.0)
        b = RequestTrace("t-b", workload="wb", request_id=2)
        b.record("queue_wait", 1.0, 2.0)
        doc = traces_to_chrome([a, b])
        rows = {e["args"]["name"] for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "thread_name"}
        assert rows == {"t-a wa", "t-b wb"}
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["args"]["trace_id"] for e in spans} == {"t-a", "t-b"}
        assert {e["tid"] for e in spans} == {1, 2}


class TestSLO:
    def test_burn_rate_math(self):
        obj = SLObjective(target_wall_ms=10.0, objective=0.9, window=10)
        tracker = SLOTracker({"*": obj})
        # 8 good + 2 breaches in a 10-wide window: attainment 0.8,
        # error rate 0.2 against a 0.1 budget -> burn rate 2.0
        for _ in range(8):
            assert tracker.observe("w", 5.0, 0.0) is False
        for _ in range(2):
            assert tracker.observe("w", 50.0, 0.0) is True
        snap = tracker.snapshot()["workloads"]["w"]
        assert snap["attainment"] == pytest.approx(0.8)
        assert snap["burn_rate"] == pytest.approx(2.0)
        assert snap["requests"] == 10 and snap["breaches"] == 2

    def test_window_slides(self):
        tracker = SLOTracker(
            {"*": SLObjective(target_wall_ms=10.0, window=4)})
        for _ in range(4):
            tracker.observe("w", 99.0, 0.0)  # all breach
        for _ in range(4):
            tracker.observe("w", 1.0, 0.0)  # window now all good
        snap = tracker.snapshot()["workloads"]["w"]
        assert snap["attainment"] == 1.0 and snap["burn_rate"] == 0.0
        assert snap["breaches"] == 4  # lifetime totals keep history

    def test_failed_requests_always_breach(self):
        tracker = SLOTracker({"*": SLObjective(target_wall_ms=1e9)})
        assert tracker.observe("w", 0.0, 0.0, failed=True) is True

    def test_bare_float_is_wall_ms_target(self):
        tracker = SLOTracker({"saxpy": 10.0})
        obj = tracker.objective_for("saxpy")
        assert obj.target_wall_ms == 10.0 and obj.objective == 0.99
        assert tracker.objective_for("unknown") is None

    def test_sim_us_objective(self):
        obj = SLObjective(target_sim_us=100.0)
        assert obj.met_by(1e9, 50.0) is True  # wall unbounded
        assert obj.met_by(0.0, 200.0) is False

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SLObjective(target_wall_ms=1.0, objective=0.0)
        with pytest.raises(ValueError):
            SLObjective()  # no target at all


class TestFlightRecorder:
    def _trace(self, i):
        tr = RequestTrace(f"t-{i:06x}", workload="w", request_id=i)
        tr.record("queue_wait", 0.0, 1.0)
        return tr

    def test_ring_eviction_is_bounded_and_counted(self):
        rec = FlightRecorder(capacity=4)
        traces = [self._trace(i) for i in range(10)]
        for tr in traces:
            rec.record(tr)
        assert len(rec) == 4
        assert rec.evicted == 6 and rec.recorded == 10
        assert rec.get(traces[0].trace_id) is None  # evicted
        assert rec.get(traces[9].trace_id) is traces[9]
        assert [t.trace_id for t in rec.traces()] == \
            [t.trace_id for t in traces[6:]]

    def test_dump_survives_eviction(self):
        rec = FlightRecorder(capacity=2)
        victim = self._trace(0)
        rec.record(victim)
        dump = rec.dump(victim.trace_id, DumpReason.MANUAL, detail="pin")
        for i in range(1, 5):
            rec.record(self._trace(i))
        assert rec.get(victim.trace_id) is None
        assert dump.trace["trace_id"] == victim.trace_id
        assert dump.trace["spans"][0]["name"] == "queue_wait"

    def test_dump_writes_json_file(self, tmp_path):
        rec = FlightRecorder(capacity=4, dump_dir=str(tmp_path))
        tr = self._trace(1)
        rec.record(tr)
        dump = rec.dump(tr, DumpReason.ERROR, detail="boom")
        with open(dump.path) as fh:
            doc = json.load(fh)
        assert doc["reason"] == "error" and doc["detail"] == "boom"
        assert doc["trace"]["trace_id"] == tr.trace_id

    def test_unknown_reason_and_evicted_id(self):
        rec = FlightRecorder(capacity=2)
        with pytest.raises(ValueError):
            rec.dump(self._trace(0), "vibes")
        assert rec.dump("t-nope", DumpReason.MANUAL) is None

    def test_dumps_dropped_never_silent(self):
        rec = FlightRecorder(capacity=8, max_dumps=2)
        for i in range(5):
            tr = self._trace(i)
            rec.record(tr)
            rec.dump(tr, DumpReason.MANUAL)
        assert len(rec.dumps) == 2 and rec.dumps_dropped == 3
        assert rec.stats()["dumps_dropped"] == 3


class TestClusterAutoDump:
    def test_slo_breach_auto_dumps_the_trace(self):
        cluster = ServeCluster(
            num_devices=1,
            slo={"*": SLObjective(target_sim_us=1e-9)})  # always breach
        req = _submit_direct(cluster, "saxpy", {"n": 64})
        cluster._serve_window([req])
        assert req.status is RequestStatus.DONE
        assert req.slo_breached is True
        (dump,) = cluster.recorder.dumps
        assert dump.reason == DumpReason.SLO_BREACH
        assert dump.trace_id == req.trace_id
        assert cluster.recorder.get(req.trace_id).meta["slo_breached"]
        snap = cluster.report()["slo"]
        assert snap["overall"]["breaches"] == 1

    def test_sanitizer_findings_auto_dump(self):
        cluster = ServeCluster(num_devices=1, validate="always")
        req = _submit_direct(cluster, "test.racy")
        cluster._serve_window([req])
        assert req.status is RequestStatus.DONE
        assert req.sanitized_launches == 1
        assert req.sanitize_findings, "racy kernel produced no findings"
        (dump,) = cluster.recorder.dumps
        assert dump.reason == DumpReason.SANITIZER
        assert "RACY" in dump.detail
        # the racy kernel was forced onto the scalar tier
        assert req.tier == "sequential"
        gate = cluster.report()["sanitize_gate"]
        assert gate.get("forced_scalar", 0) + gate.get("sanitized", 0) >= 1

    def test_failed_request_auto_dumps(self):
        cluster = ServeCluster(num_devices=1)
        req = _submit_direct(cluster, "saxpy", {"n": 7})  # n % 16 != 0
        work = cluster._resolve(req)
        assert work is None  # resolve fails the request
        assert req.status is RequestStatus.FAILED
        (dump,) = cluster.recorder.dumps
        assert dump.reason == DumpReason.ERROR
        assert "n must divide" in dump.detail

    def test_report_tiers_and_gate_sections(self):
        cluster = ServeCluster(num_devices=1, validate="first")
        reqs = [_submit_direct(cluster, "saxpy", {"n": 64, "seed": 3})
                for _ in range(3)]
        cluster._serve_window(reqs)
        report = cluster.report()
        assert report["tiers"].get("wide") == 1
        assert report["tiers"].get("jit") == 2
        assert report["recorder"]["recorded"] == 3


class TestLoadgenAndViewer:
    def test_loadgen_trace_out_and_slo_sections(self, tmp_path):
        out = tmp_path / "trace.json"
        report = run_loadgen(devices=1, requests=12, seed=1,
                             rate_rps=1e6, trace_out=str(out),
                             slo_target_ms=60_000.0)
        assert report["loadgen"]["failed"] == 0
        assert report["loadgen"]["trace_out"] == str(out)
        assert report["slo"]["overall"]["requests"] == 12
        assert report["recorder"]["recorded"] == 12
        doc = json.loads(out.read_text())
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len({e["args"]["trace_id"] for e in spans}) == 12

    def test_flight_viewer_renders_waterfalls(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        run_loadgen(devices=1, requests=6, seed=2, rate_rps=1e6,
                    trace_out=str(out), slo_target_ms=None)
        assert flight.main([str(out), "--slowest", "2"]) == 0
        text = capsys.readouterr().out
        assert "2 of 6 requests shown" in text
        assert "queue_wait" in text and "serve:request" in text

    def test_flight_viewer_reads_flight_dumps(self, tmp_path, capsys):
        cluster = ServeCluster(num_devices=1,
                               dump_dir=str(tmp_path),
                               slo={"*": SLObjective(target_sim_us=1e-9)})
        req = _submit_direct(cluster, "saxpy", {"n": 64})
        cluster._serve_window([req])
        (dump,) = cluster.recorder.dumps
        assert flight.main([dump.path]) == 0
        text = capsys.readouterr().out
        assert req.trace_id in text and "sanitize_gate" in text

    def test_flight_viewer_unknown_trace_id(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        run_loadgen(devices=1, requests=2, seed=3, rate_rps=1e6,
                    trace_out=str(out), slo_target_ms=None)
        assert flight.main([str(out), "--trace-id", "t-zzzzzz"]) == 1

"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest -q servebench
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import sys
import time
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import measure  # noqa: E402
from loads import SPECS, Stream, block_order, data_seed  # noqa: E402


# -- streams ------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_every_block_holds_the_menu_in_exact_proportion(name, seed):
    spec = SPECS[name]
    stream = Stream(spec, seed)
    want = {e: e.weight for e in spec.menu}
    for block in range(12):
        start = block * spec.block_size
        got = {}
        for i in range(start, start + spec.block_size):
            e = stream.entry(i)
            got[e] = got.get(e, 0) + 1
        assert got == want


def test_stream_is_a_function_of_seed_and_index():
    spec = SPECS["small"]
    a, b = Stream(spec, 3), Stream(spec, 3)
    reqs = [a.request(i) for i in range(200)]
    assert reqs == [b.request(i) for i in reversed(range(200))][::-1]
    assert reqs != [Stream(spec, 4).request(i) for i in range(200)]
    assert block_order(spec, 3, 0) != block_order(spec, 3, 1) or \
        block_order(spec, 3, 2) != block_order(spec, 3, 3)


def test_data_seeds_are_valid_numpy_seeds():
    for seed in (0, 5, 2**40):
        for index in (-14, -1, 0, 10**6):
            assert 0 <= data_seed(seed, index) < 2**31


@pytest.mark.parametrize("name", sorted(SPECS))
def test_weights_keep_p50_and_p95_off_class_boundaries(name):
    """No subset of request classes fills a share of the block within
    4% (in rank) of 50% or 95%, whatever order the classes sort in."""
    weights = [e.weight for e in SPECS[name].menu]
    total = sum(weights)
    for r in range(len(weights) + 1):
        for subset in itertools.combinations(weights, r):
            share = sum(subset) / total
            assert abs(share - 0.50) >= 0.04, subset
            assert abs(share - 0.95) >= 0.04, subset


# -- percentiles --------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert measure.min_samples(50) == 20
    assert measure.min_samples(95) == 200
    assert measure.min_samples(99) == 1000
    assert measure.percentile(list(range(199)), 95) is None
    assert measure.percentile(list(range(19)), 50) is None
    values = list(range(1, 201))
    p95 = measure.percentile(values, 95)
    assert p95 == 190
    assert sum(v > p95 for v in values) == 10
    assert measure.percentile(values, 50) == 100


def test_median():
    assert measure.median([3, 1, 2]) == 2
    assert measure.median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        measure.median([])


# -- probe normalisation ------------------------------------------------------

def test_normalisation_rescales_to_the_reference_probe():
    ref = measure.PROBE_REF_MS
    assert measure.probe_scale(ref, ref) == 1.0
    # a host twice as slow doubles times and halves rates: undone
    f = measure.probe_scale(2 * ref, 2 * ref)
    assert 24.0 * f == pytest.approx(12.0)
    assert 150.0 / f == pytest.approx(300.0)
    # the segment between two probes is scaled by their mean
    assert measure.probe_scale(0.5 * ref, 1.5 * ref) == 1.0


def test_probe_records_thread_cpu_and_utilisation():
    probe = measure.Probe()
    probe.run(times=2)
    probe.run(times=2)
    assert len(probe.wall_ms) == len(probe.thread_ms) == 4
    assert len(probe.gaps) == len(probe.handoff) == 2
    assert all(ms > 0 for ms in probe.handoff)
    assert probe.median_ms > 0
    # the host decides how far above zero (descheduling, native threads)
    assert probe.cpu_util > 0


# -- signatures ---------------------------------------------------------------

def test_signature_mismatches_compare_shared_indices_only():
    sig = measure.signature
    a = {0: sig("saxpy", {"n": 256, "seed": 1}, 1.5, 2048),
         1: sig("blur", {"seed": 2}, 2.0, 512),
         2: sig("scale", {"seed": 3}, 0.5, 64)}
    b = {0: sig("saxpy", {"seed": 1, "n": 256}, 1.5, 2048),  # order-free
         1: sig("blur", {"seed": 2}, 2.0000001, 512),
         3: sig("scale", {"seed": 9}, 9.0, 64)}
    assert measure.signature_mismatches(a, b) == [1]
    assert measure.signature_mismatches(a, a) == []


# -- process accounting -------------------------------------------------------

def test_parse_proc_stat_with_a_hostile_command_name():
    fields = ["S"] + [str(i) for i in range(4, 14)] + ["250", "50"] + \
        ["0"] * 30
    stat = "4242 (evil) name (x)) " + " ".join(fields)
    assert measure.parse_stat_cpu_ticks(stat) == 300


def test_parse_status_peak_rss():
    status = "Name:\tpython\nVmPeak:\t  9000 kB\nVmHWM:\t  4321 kB\n"
    assert measure.parse_status_hwm_kb(status) == 4321
    assert measure.parse_status_hwm_kb("Name:\tx\n") == 0


def _burn(seconds, ready):
    block = bytearray(64 << 20)  # touch 64 MiB so the child's RSS shows
    for i in range(0, len(block), 4096):
        block[i] = 1
    ready.set()
    t_end = time.process_time() + seconds
    while time.process_time() < t_end:
        pass
    time.sleep(30)


def test_children_cpu_and_rss_are_counted():
    ctx = multiprocessing.get_context("fork")
    ready = ctx.Event()
    child = ctx.Process(target=_burn, args=(0.3, ready), daemon=True)
    child.start()
    try:
        assert ready.wait(30)
        assert child.pid in measure.live_children()
        parent_only = measure.peak_rss_mb([])
        cpu0 = measure.children_cpu_s([child.pid])
        deadline = time.monotonic() + 30
        while measure.children_cpu_s([child.pid]) - cpu0 < 0.2:
            assert time.monotonic() < deadline, "child CPU never showed"
            time.sleep(0.05)
        assert measure.peak_rss_mb([child.pid]) >= parent_only + 60
        both = measure.tree_cpu_s([child.pid])
        assert both >= measure.process_cpu_s() + 0.2
    finally:
        child.terminate()
        child.join(10)
    assert not child.is_alive()
    assert measure.children_cpu_s([child.pid]) == 0.0  # reaped: gone


# -- the layer ledger ---------------------------------------------------------

def _request(t_submit, t_dispatch, t_done):
    from repro.obs.request import RequestTrace
    trace = RequestTrace("t-test", request_id=77)
    return SimpleNamespace(
        id=77, params={"seed": 1}, trace=trace, tier="jit",
        sanitized_launches=0, cache_hits=1, cache_misses=0, batch_size=2,
        overhead_sim_us=1.5, requeues=0, t_submit_wall=t_submit,
        t_dispatch_wall=t_dispatch, t_done_wall=t_done)


def test_ledger_closes_the_latency_exactly():
    lt = layers.LayerTrace()
    req = _request(10.0002, 10.004, 10.009)
    key = id(req.params)
    lt._add(lt._by_params, key, "workloads.make", 0.0005)
    lt._add(lt._by_params, key, "workloads.bind", 0.0003)
    lt._add(lt._by_params, key, "workloads.finish", 0.0002)
    lt._add(lt._by_req, req.id, "serve.batch_form", 0.00001)
    lt._add(lt._by_req, req.id, "compiler.compile", 0.0001)
    lt._add(lt._by_req, req.id, "run_compiled", 0.003)
    sent = SimpleNamespace(request=req, due=10.0, t_submit0=10.0001,
                           t_submit1=10.0003)
    lt.fold(sent)
    assert layers.ledger_closes(lt) is None
    ms = lt.per_request_ms
    assert ms("client.late") == pytest.approx(0.1)
    assert ms("serve.queue_wait") == pytest.approx(3.7 - 0.5 - 0.01)
    assert ms("isa.jit.launch") == pytest.approx(3.0)
    assert ms("serve.unattributed") == pytest.approx(5.0 - 3.6)
    m = lt.metrics()
    assert m["serve.latency_ms"] == pytest.approx(9.0)
    assert m["isa.launch_share.jit"] == 1.0
    assert set(m) | {"serve.refused", "pool.fallbacks",
                     "obs.trace_overhead_frac", "host.probe_ms",
                     "host.cpu_util", "host.handoff_ms"} == \
        set(layers.PER_LAYER_UNITS)


def test_ledger_splits_a_shard_request_at_the_graft():
    lt = layers.LayerTrace()
    req = _request(1.0, None, 1.010)
    child = {"trace_id": "t-s0-1", "spans": [
        {"name": "queue_wait", "t0_us": 0.0, "dur_us": 2000.0},
        {"name": "serve:request", "t0_us": 2000.0, "dur_us": 5000.0,
         "children": [{"name": "dispatch:jit", "t0_us": 2100.0,
                       "dur_us": 4000.0}]}]}
    req.trace.graft(child, shard=0)
    sent = SimpleNamespace(request=req, due=0.999, t_submit0=0.999,
                           t_submit1=1.0)
    lt.fold(sent)
    assert layers.ledger_closes(lt) is None
    ms = lt.per_request_ms
    assert ms("shard.ipc") == pytest.approx(10.0 - 7.0)
    assert ms("serve.queue_wait") == pytest.approx(2.0)
    assert ms("isa.jit.launch") == pytest.approx(4.0)
    assert ms("serve.unattributed") == pytest.approx(1.0)


# -- the contract -------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    from run import UNITS
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(SPECS)
    for w in bench["workloads"]:
        assert w["why"] == SPECS[w["name"]].why
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        layers.PER_LAYER_UNITS
    assert bench["paths"] == ["servebench"]

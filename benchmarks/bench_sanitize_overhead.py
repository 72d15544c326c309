"""Sanitizers must be (nearly) free when disabled: host-overhead bench.

The sanitizer subsystem (``repro.sanitize``) threads per-instruction
hooks through the functional executor and a gating check through
``Device.run_compiled``.  Its contract mirrors the observability
layer's: with ``validate="off"`` the executor's ``san`` slot stays
``None``, every hook collapses to a single attribute test, and the
dispatch gate is one dict probe — so the sequential dispatch loop must
stay within ``MAX_OVERHEAD`` of the frozen pre-instrumentation loop
from ``bench_obs_overhead``.

For context the benchmark also reports the cost of a fully sanitized
sequential launch (``validate="always"``: race shadow sets + uninit
bitmap + OOB accounting); that price is informational, not asserted.

The price a kernel really pays once under the default
``validate="first"`` policy is its sanitized first launch, which runs
the checkers on the wide interpreter and falls back to
sanitized-sequential only when they find something.
``test_vector_sanitize_speedup`` times that first launch of the
compiled SGEMM (``cm_sgemm_jit``, 64x64, K=16) both ways on fresh
devices in one process and requires the vector path to be at least
``MIN_VECTOR_SPEEDUP`` times faster, with identical outputs, timing
and verdicts.  Run directly, the benchmark also reports 256x256 and
the vector path's ratio to a warm JIT launch.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_batch_engine import (  # noqa: E402
    _SIG, _bind, _gemm_body, BM, BN, K, M, N,
)
from bench_obs_overhead import _frozen_pr1_dispatch  # noqa: E402

import numpy as np  # noqa: E402

from repro.sim import Device  # noqa: E402
from repro.sim.machine import GEN11_ICL  # noqa: E402
from repro.workloads import gemm  # noqa: E402

#: Disabled sanitizers may cost at most this fraction over the frozen
#: pre-sanitizer dispatch loop (the acceptance criterion is < 15%).
MAX_OVERHEAD = 0.15
#: A sanitized first launch on the wide interpreter must beat the
#: sanitized-sequential one by at least this factor.
MIN_VECTOR_SPEEDUP = 5.0
LAUNCHES = 3
TRIALS = 3

#: sanitized first-launch paths: today's sequential one and the vector
#: pass the default auto tier takes.
_SANITIZED = {"sequential": {"tier": "sequential", "validate": "always"},
              "vector": {"validate": "always"}}


def _measure():
    a, b, c = gemm.make_inputs(M, N, K, seed=3)
    grid = (N // BN, M // BM)
    scalars = lambda tid: {"tx": tid[0], "ty": tid[1]}  # noqa: E731

    dev = Device()
    kern = dev.compile(_gemm_body, "gemm_batch", _SIG, ["tx", "ty"])
    assert not dev.obs.enabled, "benchmark requires disabled observability"

    def run_frozen():
        abuf, bbuf, cbuf = _bind(dev, a, b, c)
        t0 = time.perf_counter()
        for _ in range(LAUNCHES):
            timing = _frozen_pr1_dispatch(
                kern, grid, [abuf, bbuf, cbuf], scalars, GEN11_ICL)
        return time.perf_counter() - t0, timing

    def _run_validated(mode):
        abuf, bbuf, cbuf = _bind(dev, a, b, c)
        t0 = time.perf_counter()
        for _ in range(LAUNCHES):
            run = dev.run_compiled(kern, grid, [abuf, bbuf, cbuf],
                                   scalars=scalars, tier="sequential",
                                   validate=mode)
        return time.perf_counter() - t0, run.timing

    def run_off():
        return _run_validated("off")

    def run_always():
        return _run_validated("always")

    # One untimed warm-up of each path, then best-of-TRIALS with the
    # measurement order alternated per trial — host turbo/allocator
    # drift would otherwise bias whichever path always ran first.
    run_frozen()
    run_off()
    run_always()
    best = {run_frozen: float("inf"), run_off: float("inf"),
            run_always: float("inf")}
    timings = {}
    for trial in range(TRIALS):
        order = (run_frozen, run_off, run_always) if trial % 2 == 0 else \
            (run_always, run_off, run_frozen)
        for fn in order:
            t, timing = fn()
            best[fn] = min(best[fn], t)
            timings[fn] = timing

    # All three paths must model the identical kernel time: sanitizing
    # changes what the host checks, never what the device simulates.
    assert abs(timings[run_frozen].time_us
               - timings[run_off].time_us) < 1e-9
    assert abs(timings[run_frozen].time_us
               - timings[run_always].time_us) < 1e-9
    return best[run_frozen], best[run_off], best[run_always]


def test_disabled_sanitizer_overhead(benchmark, capsys):
    results = {}

    def once():
        results["t"] = _measure()

    benchmark.pedantic(once, rounds=1, iterations=1)
    frozen_t, off_t, always_t = results["t"]
    overhead = off_t / frozen_t - 1.0
    sanitized_x = always_t / frozen_t
    benchmark.extra_info.update({
        "workload": f"sgemm {M}x{N}x{K} grid, {LAUNCHES} launches",
        "frozen_ms": round(frozen_t * 1e3, 1),
        "validate_off_ms": round(off_t * 1e3, 1),
        "validate_always_ms": round(always_t * 1e3, 1),
        "disabled_overhead_pct": round(overhead * 100, 1),
        "sanitized_slowdown_x": round(sanitized_x, 2),
    })
    with capsys.disabled():
        print(f"\n  [sanitize overhead] frozen={frozen_t * 1e3:7.1f}ms "
              f"off={off_t * 1e3:7.1f}ms ({overhead * 100:+5.1f}%) "
              f"always={always_t * 1e3:7.1f}ms ({sanitized_x:4.2f}x)")
    assert overhead < MAX_OVERHEAD, (
        f"disabled sanitizers cost {overhead:.1%} over the frozen "
        f"pre-sanitizer dispatch loop (allowed {MAX_OVERHEAD:.0%})")


def _sgemm_first_launch(mn, path, warm_launches=0):
    """Wall time of a fresh device's sanitized first launch of
    ``cm_sgemm_jit`` on ``path``, plus (after ``warm_launches`` more
    auto launches) the last one's wall time, the output and the run."""
    rng = np.random.default_rng(0)
    a = (rng.random((mn, 16), dtype=np.float32) - 0.5).astype(np.float32)
    b = (rng.random((16, mn), dtype=np.float32) - 0.5).astype(np.float32)
    dev = Device()
    kern = dev.compile(gemm._jit_gemm_body(16), "cm_sgemm_jit",
                       gemm._JIT_SIG, ["tx", "ty"])
    grid = (mn // gemm.JIT_BN, mn // gemm.JIT_BM)

    def launch(**kw):
        cbuf = dev.image2d(np.zeros((mn, mn), np.float32),
                           bytes_per_pixel=4)
        surfaces = [dev.image2d(a.copy(), bytes_per_pixel=4),
                    dev.image2d(b.copy(), bytes_per_pixel=4), cbuf]
        t0 = time.perf_counter()
        run = dev.run_compiled(kern, grid, surfaces,
                               scalars=lambda t: {"tx": t[0], "ty": t[1]},
                               name="cm_sgemm_jit", **kw)
        return time.perf_counter() - t0, run, cbuf.to_numpy().copy()

    first_t, run, out = launch(**_SANITIZED[path])
    assert len(dev.sanitizer_results) == 1
    verdict = dev.sanitizer_results[0].verdict
    warm_t = None
    for _ in range(warm_launches):
        warm_t, _, _ = launch(validate="first")
    return first_t, warm_t, out, run, verdict


def _measure_first_launch(mn, trials, warm_launches=0):
    """Best-of-``trials`` sanitized first launch per path (order
    alternated per trial) + identity checks."""
    best = {path: float("inf") for path in _SANITIZED}
    got = {}
    for trial in range(trials):
        order = list(_SANITIZED) if trial % 2 == 0 else \
            list(reversed(_SANITIZED))
        for path in order:
            first_t, warm_t, out, run, verdict = _sgemm_first_launch(
                mn, path, warm_launches)
            best[path] = min(best[path], first_t)
            got[path] = (out, run, verdict, warm_t)
    (seq_out, seq_run, seq_v, _), (vec_out, vec_run, vec_v, warm_t) = \
        got["sequential"], got["vector"]
    assert seq_run.path == "sequential" and vec_run.path == "wide"
    assert np.array_equal(seq_out, vec_out), "outputs diverged"
    assert seq_run.timing == vec_run.timing, "simulated timing diverged"
    assert seq_v == vec_v and vec_v.race_free, (seq_v, vec_v)
    return best["sequential"], best["vector"], warm_t


def test_vector_sanitize_speedup(benchmark, capsys):
    results = {}

    def once():
        results["t"] = _measure_first_launch(64, TRIALS)

    benchmark.pedantic(once, rounds=1, iterations=1)
    seq_t, vec_t, _ = results["t"]
    speedup = seq_t / vec_t
    benchmark.extra_info.update({
        "workload": "cm_sgemm_jit 64x64 K=16, sanitized first launch",
        "sequential_ms": round(seq_t * 1e3, 1),
        "vector_ms": round(vec_t * 1e3, 1),
        "speedup_x": round(speedup, 2),
    })
    with capsys.disabled():
        print(f"\n  [sanitized first launch] sequential={seq_t * 1e3:7.1f}ms "
              f"vector={vec_t * 1e3:7.1f}ms ({speedup:4.1f}x)")
    assert speedup >= MIN_VECTOR_SPEEDUP, (
        f"sanitized first launch on the wide interpreter only "
        f"{speedup:.1f}x faster than sanitized-sequential "
        f"(required {MIN_VECTOR_SPEEDUP}x)")


if __name__ == "__main__":
    frozen_t, off_t, always_t = _measure()
    print(f"frozen loop:       {frozen_t * 1e3:8.1f} ms")
    print(f"validate='off':    {off_t * 1e3:8.1f} ms "
          f"({(off_t / frozen_t - 1) * 100:+.1f}%)")
    print(f"validate='always': {always_t * 1e3:8.1f} ms "
          f"({always_t / frozen_t:.2f}x)")
    print("sanitized first launch of cm_sgemm_jit, K=16:")
    for mn, trials in ((64, TRIALS), (256, 1)):
        seq_t, vec_t, warm_t = _measure_first_launch(mn, trials,
                                                     warm_launches=2)
        print(f"  {mn}x{mn}: sequential {seq_t * 1e3:8.1f} ms, "
              f"vector {vec_t * 1e3:7.1f} ms ({seq_t / vec_t:5.1f}x), "
              f"warm JIT {warm_t * 1e3:6.1f} ms "
              f"(vector / warm = {vec_t / warm_t:4.1f}x)")

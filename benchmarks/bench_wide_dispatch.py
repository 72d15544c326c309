"""Grid-vectorized wide dispatch: wall-clock speedup over scalar dispatch.

Like bench_batch_engine.py this measures *host* wall time — the cost of
the simulator itself — not simulated microseconds.  Two Figure-5-class
compiled workloads (the JIT SGEMM and the media-block linear filter /
blur kernel) run the same launch through both dispatch paths of
``Device.run_compiled``:

- **scalar**: the sequential tier (``tier="sequential"``) — one
  ``TracingExecutor`` re-interprets the program once per hardware
  thread.
- **wide**: the grid-vectorized interpreter (``tier="wide"``) — one
  executor stacks all thread GRFs and runs each instruction once for
  the whole grid.  This is also the tier sanitized first launches run
  on; ``bench_jit.py`` measures the megakernel tier above it.

Each tier gets one untimed launch on the same device first (plan
tables, executor buffers), then the best of ``TRIALS`` timed launches
on freshly bound surfaces.  Outputs must be byte-identical and every
simulated-timing field of the resulting ``KernelTiming`` must match
exactly: the wide path is a pure wall-clock optimization, never a model
change.  A saxpy scaling sweep records how the speedup grows with grid
size.  Results land in ``BENCH_wide.json`` with the host they ran on.

Run directly (``python benchmarks/bench_wide_dispatch.py [--smoke]``)
or via pytest (smoke sizes).
"""

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.sim.device import Device
from repro.workloads import gemm

SMOKE_MIN_SPEEDUP = 2.0
FULL_MIN_SPEEDUP = 5.0
TRIALS = 2

_VEC = 16
_BLUR_W, _BLUR_H = 32, 4


def _saxpy_body(cmx, xbuf, ybuf, tid):
    off = tid * (_VEC * 4)
    x = cmx.vector(np.float32, _VEC)
    cmx.read(xbuf, off, x)
    y = cmx.vector(np.float32, _VEC)
    cmx.read(ybuf, off, y)
    out = cmx.vector(np.float32, _VEC)
    out.assign(x * np.float32(2.0) + y)
    cmx.write(ybuf, off, out)


def _blur_body(cmx, img, tx, ty):
    x0 = tx * _BLUR_W
    y0 = ty * _BLUR_H
    m = cmx.matrix(np.uint8, _BLUR_H, _BLUR_W)
    cmx.read(img, x0, y0, m)
    f = cmx.matrix(np.float32, _BLUR_H, _BLUR_W)
    f.assign(m)
    out = cmx.matrix(np.uint8, _BLUR_H, _BLUR_W)
    out.assign(f * np.float32(0.5))
    cmx.write(img, x0, y0, out)


def _sgemm_case(mn, k):
    """One device + compiled kernel; fresh surfaces per launch."""
    rng = np.random.default_rng(0)
    a = (rng.random((mn, k), dtype=np.float32) - 0.5).astype(np.float32)
    b = (rng.random((k, mn), dtype=np.float32) - 0.5).astype(np.float32)
    dev = Device()
    kern = dev.compile(gemm._jit_gemm_body(k), "cm_sgemm_jit",
                       gemm._JIT_SIG, ["tx", "ty"])
    grid = (mn // gemm.JIT_BN, mn // gemm.JIT_BM)

    def run(tier):
        abuf = dev.image2d(a.copy(), bytes_per_pixel=4)
        bbuf = dev.image2d(b.copy(), bytes_per_pixel=4)
        cbuf = dev.image2d(np.zeros((mn, mn), np.float32),
                           bytes_per_pixel=4)
        t0 = time.perf_counter()
        r = dev.run_compiled(kern, grid, [abuf, bbuf, cbuf],
                             scalars=lambda t: {"tx": t[0], "ty": t[1]},
                             name="cm_sgemm_jit", tier=tier)
        dt = time.perf_counter() - t0
        return dt, cbuf.to_numpy().copy(), r.timing

    return run, grid[0] * grid[1]


def _blur_case(bx, by):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 200, size=(by * _BLUR_H, bx * _BLUR_W),
                       dtype=np.uint8)
    dev = Device()
    kern = dev.compile(_blur_body, "wide_blur", [("img", True)],
                       ["tx", "ty"])

    def run(tier):
        buf = dev.image2d(img.copy(), bytes_per_pixel=1)
        t0 = time.perf_counter()
        r = dev.run_compiled(kern, (bx, by), [buf],
                             scalars=lambda t: {"tx": t[0], "ty": t[1]},
                             name="wide_blur", tier=tier)
        dt = time.perf_counter() - t0
        return dt, buf.to_numpy().copy(), r.timing

    return run, bx * by


def _saxpy_case(n_threads):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    y = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    dev = Device()
    kern = dev.compile(_saxpy_body, "wide_saxpy",
                       [("xbuf", False), ("ybuf", False)], ["tid"])

    def run(tier):
        xbuf, ybuf = dev.buffer(x.copy()), dev.buffer(y.copy())
        t0 = time.perf_counter()
        r = dev.run_compiled(kern, (n_threads,), [xbuf, ybuf],
                             scalars=lambda t: {"tid": t[0]},
                             name="wide_saxpy", tier=tier)
        dt = time.perf_counter() - t0
        return dt, ybuf.to_numpy().copy(), r.timing

    return run, n_threads


def _compare(case, *args):
    """Best-of-TRIALS wall clock for both tiers + identity checks."""
    run, threads = case(*args)
    best, outs, tms = {}, {}, {}
    for tier in ("wide", "sequential"):
        run(tier)  # untimed: plan tables, executor buffers
        t = float("inf")
        for _ in range(TRIALS):
            dt, outs[tier], tms[tier] = run(tier)
            t = min(t, dt)
        best[tier] = t
    assert np.array_equal(outs["wide"], outs["sequential"]), \
        "outputs diverged"
    wide_tm, scalar_tm = tms["wide"], tms["sequential"]
    for f in dataclasses.fields(scalar_tm):
        w, s = getattr(wide_tm, f.name), getattr(scalar_tm, f.name)
        assert w == s, f"simulated timing field {f.name}: {w} != {s}"
    wide_t, scalar_t = best["wide"], best["sequential"]
    return {
        "grid_threads": threads,
        "wide_ms": round(wide_t * 1e3, 2),
        "scalar_ms": round(scalar_t * 1e3, 2),
        "speedup": round(scalar_t / wide_t, 2),
        "sim_time_us": round(scalar_tm.time_us, 3),
        "timing_identical": True,
    }


def _host():
    return {"nproc": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__}


def run_benchmark(smoke=False, out_path="BENCH_wide.json"):
    if smoke:
        workloads = [("sgemm", _sgemm_case, (64, 16)),
                     ("linear_blur", _blur_case, (8, 8))]
        sweep_sizes = [64, 256]
        min_speedup = SMOKE_MIN_SPEEDUP
    else:
        workloads = [("sgemm", _sgemm_case, (256, 16)),
                     ("linear_blur", _blur_case, (32, 16))]
        sweep_sizes = [64, 256, 1024, 4096]
        min_speedup = FULL_MIN_SPEEDUP

    results = []
    for name, case, args in workloads:
        r = _compare(case, *args)
        r["workload"] = name
        results.append(r)
        print(f"  [{name:12s}] threads={r['grid_threads']:5d} "
              f"wide={r['wide_ms']:8.1f}ms scalar={r['scalar_ms']:8.1f}ms "
              f"speedup={r['speedup']:5.1f}x")

    scaling = []
    for n in sweep_sizes:
        r = _compare(_saxpy_case, n)
        scaling.append({"threads": n, "wide_ms": r["wide_ms"],
                        "scalar_ms": r["scalar_ms"],
                        "speedup": r["speedup"]})
        print(f"  [saxpy sweep ] threads={n:5d} "
              f"wide={r['wide_ms']:8.1f}ms scalar={r['scalar_ms']:8.1f}ms "
              f"speedup={r['speedup']:5.1f}x")

    doc = {
        "benchmark": "wide_dispatch",
        "mode": "smoke" if smoke else "full",
        "host": _host(),
        "min_speedup": min_speedup,
        "workloads": results,
        "scaling": scaling,
    }
    Path(out_path).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"  wrote {out_path}")

    worst = min(r["speedup"] for r in results)
    if worst < min_speedup:
        raise SystemExit(
            f"wide dispatch only {worst:.2f}x faster than scalar "
            f"(required {min_speedup}x)")
    return doc


def test_wide_dispatch_speedup(tmp_path, capsys):
    with capsys.disabled():
        print()
        doc = run_benchmark(smoke=True,
                            out_path=str(tmp_path / "BENCH_wide.json"))
    assert all(r["timing_identical"] for r in doc["workloads"])
    assert min(r["speedup"] for r in doc["workloads"]) >= SMOKE_MIN_SPEEDUP


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="small grids + 2x threshold (CI)")
    ap.add_argument("--out", default="BENCH_wide.json",
                    help="trajectory JSON path")
    ns = ap.parse_args()
    sys.path.insert(0, "src")
    run_benchmark(smoke=ns.smoke, out_path=ns.out)

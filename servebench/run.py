"""Repository benchmark: serve one workload for a fixed time, print metrics.

Usage (from the root of a checkout)::

    python3 servebench/run.py --workload small --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (untraced and traced segments alternate over the
same requests).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the host record and human-readable tables.  The exit code is 0 only
when every operation succeeded and every determinism check held.  See
``servebench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Clusters built (and warmed) per run; setup_s is the median.
SETUP_REPS = 3
#: A run stretches past its seconds, by at most this factor, until it
#: holds enough operations to report p95.
MAX_STRETCH = 3.0
#: sim_us_per_req of every (workload, seed, source digest) seen in this
#: checkout; a later run that disagrees is a determinism break.
STATE_FILE = os.path.join(ROOT, ".servebench", "sim_us_per_req.json")


def parse_args(argv):
    from loads import SPECS
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def check_sim_state(key: str, value: float):
    """Record ``value`` under ``key``; return the earlier value when it
    differs (None when it matches or is new)."""
    state = {}
    if os.path.exists(STATE_FILE):
        with open(STATE_FILE) as fh:
            state = json.load(fh)
    seen = state.get(key)
    if seen is not None:
        return None if seen == value else seen
    state[key] = value
    os.makedirs(os.path.dirname(STATE_FILE), exist_ok=True)
    tmp = STATE_FILE + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
    os.replace(tmp, STATE_FILE)
    return None


class Run:
    """One benchmark invocation: set-up, measurement and verdict."""

    def __init__(self, args, spec, import_s: float, src_digest: str) -> None:
        from measure import median
        from loads import Stream, make_harness
        self.args, self.spec, self.src_digest = args, spec, src_digest
        self.errors = []
        reps = []
        harness = None
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            h = make_harness(spec, Stream(spec, args.seed))
            try:
                h.warm()
            except BaseException:
                h.close()
                raise
            reps.append(time.perf_counter() - t0)
            if rep + 1 < SETUP_REPS:
                h.close()
                gc.collect()  # so the next set-up does not stack on it
            else:
                harness = h
        self.harness = harness
        self.setup_s = import_s + median(reps)

    # -- measurement -------------------------------------------------------

    def _loop(self, body, min_ops: int = 0):
        """Call ``body(k)`` for segments k = 0, 1, ... with a probe (after
        a garbage collection, the cluster idle) before the first and
        after each, until the run's seconds are spent and at least
        ``min_ops`` operations were measured (for at most MAX_STRETCH
        times the seconds)."""
        gc.collect()
        self.probe.run()
        t0 = time.perf_counter()
        k = 0
        while True:
            body(k)
            gc.collect()
            self.probe.run()
            k += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= self.args.seconds and (
                    len(self.ops) >= min_ops
                    or elapsed >= MAX_STRETCH * self.args.seconds):
                return

    def measure(self) -> dict:
        from measure import Probe, min_samples, peak_rss_mb, tree_cpu_s
        h = self.harness
        self.probe = Probe(h.children)
        self.ops, self.wall_s = [], 0.0
        if self.args.trace:
            return self._measure_traced()
        #: (segment, its CPU seconds) in order; segment k ran between
        #: probe gaps k and k+1.
        self.segments = []

        def body(k):
            cpu0 = tree_cpu_s(h.children())
            seg = h.segment(k)
            self.segments.append((seg, tree_cpu_s(h.children()) - cpu0))
            self.ops += seg.ops
            self.wall_s += seg.wall_s

        self._loop(body, min_ops=min_samples(95))
        return self._end_to_end(peak_rss_mb(h.children()))

    def _measure_traced(self) -> dict:
        from layers import LayerTrace, ledger_closes
        from measure import median, signature, signature_mismatches
        h, spec = self.harness, self.spec
        lt = LayerTrace()
        walls = {False: 0.0, True: 0.0}
        good = {False: 0, True: 0}
        sigs = {False: {}, True: {}}
        limit = spec.limit_ms / 1e3

        def run(k, traced):
            if traced:
                lt.install({e.workload for e in spec.menu})
            try:
                seg = h.segment(k, on_cluster=lt.attach if traced else None)
            finally:
                lt.detach()
                lt.uninstall()
            walls[traced] += seg.wall_s
            self.ops += seg.ops
            for op in seg.ops:
                good[traced] += op.ok and op.latency_s <= limit
                for s in op.sent:
                    if not s.ok:
                        continue
                    r = s.request
                    sigs[traced][s.index] = signature(
                        s.workload, s.params, r.kernel_sim_us, r.dram_bytes)
                    if traced:
                        lt.fold(s)

        def body(k):
            # alternate which half goes first, so drift hits both alike
            first = k % 2 == 1
            run(k, first)
            self.probe.run()
            run(k, not first)

        self._loop(body)
        bad = signature_mismatches(sigs[False], sigs[True])
        if bad:
            self.errors.append(f"{len(bad)} requests differ between the "
                               f"traced and untraced runs (first: index "
                               f"{bad[0]})")
        why = ledger_closes(lt)
        if why:
            self.errors.append(f"layer ledger does not close: {why}")
        self.wall_s = walls[False] + walls[True]
        untraced = good[False] / walls[False]
        traced = good[True] / walls[True]
        m = lt.metrics()
        m["serve.refused"] = sum(op.refused for op in self.ops)
        m["pool.fallbacks"] = self._pool_fallbacks()
        m["obs.trace_overhead_frac"] = (untraced - traced) / untraced \
            if untraced else 0.0
        m["host.probe_ms"] = self.probe.median_ms
        m["host.cpu_util"] = self.probe.cpu_util
        m["host.handoff_ms"] = median(self.probe.handoff)
        print(lt.table())
        return m

    def _pool_fallbacks(self) -> int:
        if not self.spec.shards:
            return 0
        return int(self.harness.cluster.report()["pool"]["fallbacks"])

    # -- end-to-end metrics ------------------------------------------------

    def _check_sim_prefix(self) -> Optional[float]:
        """Mean kernel_sim_us over the first ``sim_prefix`` requests, and
        the check that it repeats exactly for this seed, program source
        and benchmark source."""
        from measure import source_digest
        prefix = {}
        for op in self.ops:
            for s in op.sent:
                if 0 <= s.index < self.spec.sim_prefix and s.ok:
                    prefix[s.index] = s.request.kernel_sim_us
        if len(prefix) < self.spec.sim_prefix:
            self.errors.append(f"only {len(prefix)} of the first "
                               f"{self.spec.sim_prefix} requests succeeded")
            return None
        value = sum(prefix[i] for i in range(self.spec.sim_prefix)) \
            / self.spec.sim_prefix
        key = (f"{self.spec.name}/seed={self.args.seed}/"
               f"src={self.src_digest}/bench={source_digest(HERE)}")
        seen = check_sim_state(key, value)
        if seen is not None:
            self.errors.append(f"sim_us_per_req {value!r} differs from "
                               f"{seen!r}, measured earlier in this checkout")
        return value

    def _end_to_end(self, rss_mb: float) -> dict:
        """End-to-end metrics, raw and normalised.  Each segment's times
        are normalised by the mean of the probes on either side of it."""
        from measure import percentile, probe_scale
        spec, gaps = self.spec, self.probe.gaps
        sim = self._check_sim_prefix()
        n_ok = sum(op.ok for op in self.ops)
        values = {}
        for normalised in (False, True):
            wall_s = cpu_s = 0.0
            lat_ms = []
            for k, (seg, seg_cpu_s) in enumerate(self.segments):
                f = probe_scale(gaps[k], gaps[k + 1]) if normalised else 1.0
                wall_s += seg.wall_s * f
                cpu_s += seg_cpu_s * f
                lat_ms += [op.latency_s * 1e3 * f for op in seg.ops if op.ok]
            values[normalised] = {
                "goodput_rps":
                    sum(v <= spec.limit_ms for v in lat_ms) / wall_s,
                "p50_ms": percentile(lat_ms, 50),
                "p95_ms": percentile(lat_ms, 95),
                "cpu_ms_per_req": cpu_s * 1e3 / max(1, n_ok),
                "peak_rss_mb": rss_mb,
                "setup_s": self.setup_s,
                "sim_us_per_req": sim,
            }
        raw, out = values[False], values[True]
        for name in ("p50_ms", "p95_ms"):
            if raw[name] is None:
                self.errors.append(f"{name}: {n_ok} operations are too few "
                                   f"for 10 beyond the percentile")
        print(f"{'metric':16s} {'reported':>12s} {'raw':>12s}")
        for name, v in out.items():
            print(f"{name:16s} {_fmt(v):>12s} {_fmt(raw[name]):>12s}")
        return out


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource tracker, the process the
    sharded cluster's shared-memory pool starts, so that no process this
    run started outlives it.  (No public API does this.)"""
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.4f}"


UNITS = {"goodput_rps": "1/s", "p50_ms": "ms", "p95_ms": "ms",
         "cpu_ms_per_req": "ms", "peak_rss_mb": "MB", "setup_s": "s",
         "sim_us_per_req": "sim_us"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"servebench: {SRC}/repro not found; run from the root of a "
              f"repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import repro.serve  # noqa: F401
    import_s = time.perf_counter() - t0
    if not os.path.abspath(repro.serve.__file__).startswith(SRC + os.sep):
        print(f"servebench: imported repro from {repro.serve.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    from layers import PER_LAYER_UNITS
    from loads import SPECS
    from measure import host_record, median, source_digest
    spec = SPECS[args.workload]
    digest = source_digest(os.path.join(SRC, "repro"))
    print("host " + json.dumps(host_record(ROOT, digest), sort_keys=True))
    run = Run(args, spec, import_s, digest)
    try:
        values = run.measure()
    finally:
        run.harness.close()
        stop_resource_tracker()

    ops = run.ops
    failed = [op for op in ops if not op.ok]
    sent = sum(len(op.sent) for op in ops)
    refused = sum(op.refused for op in ops)
    print(f"{spec.name}: ops={len(ops)} sent={sent} "
          f"ok={len(ops) - len(failed)} failed={len(failed) - refused} "
          f"refused={refused} measured_s={run.wall_s:.3f} "
          f"probe_ms={run.probe.median_ms:.4f} "
          f"probe_wall_ms={median(run.probe.wall_ms):.4f} "
          f"handoff_ms={median(run.probe.handoff):.4f} "
          f"cpu_util={run.probe.cpu_util:.3f}")
    for op in failed[:5]:
        s = next(x for x in op.sent if not x.ok)
        print(f"  failed op at index {s.index} ({s.workload}): {s.error}")
    for err in run.errors:
        print(f"ERROR: {err}")
    units = PER_LAYER_UNITS if args.trace else UNITS
    correct = not failed and not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

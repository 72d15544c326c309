"""The device's reused executors: reuse must never change a launch.

``Device.run_compiled`` keeps one sequential and one wide/JIT executor
per device and rebinds them every launch.  These tests pin that reuse
is invisible: an interleaved sequence of launches on every tier matches
the same launches on fresh devices field for field, and a launch that
raises mid-grid leaves nothing bound (surfaces, plans, megakernel,
sanitizer hooks) that could leak into the next one.  They also cover
the JIT decline counters.
"""

import dataclasses

import numpy as np
import pytest

from repro.isa.jit import jit_decline_reason
from repro.obs import Observability
from repro.serve.workloads import get_workload
from repro.sim import device as device_mod
from repro.sim.device import Device


class _Boom(RuntimeError):
    pass


def _launch(dev, workload, tier=None, validate="off", scalars=None,
            fault=None):
    """Run one serve workload launch; returns (run, surface bytes)."""
    launch = get_workload(workload).make({})
    surfaces, default_scalars = launch.bind(dev)
    if fault is not None:
        fault(surfaces)
    kern = dev.compile(launch.body, launch.name, launch.sig,
                       launch.scalar_params)
    run = dev.run_compiled(kern, launch.grid, surfaces,
                           scalars=scalars or default_scalars,
                           name=launch.name, tier=tier, validate=validate)
    launch.finish(surfaces)
    return run, [s.to_numpy().copy() for s in surfaces]


def _assert_same(got, want):
    (run_a, out_a), (run_b, out_b) = got, want
    assert run_a.path == run_b.path
    for f in dataclasses.fields(run_a.timing):
        assert getattr(run_a.timing, f.name) == \
            getattr(run_b.timing, f.name), f"timing field {f.name}"
    for a, b in zip(out_a, out_b):
        assert np.array_equal(a, b)


def _assert_unbound(dev):
    for ex in (dev._seq_ex, dev._wide_ex):
        if ex is None:
            continue
        assert ex.surfaces == {} and ex.plans is None and ex.san is None
        assert getattr(ex, "_jit", None) is None
    if dev._wide_ex is not None:
        assert dev._wide_ex.grf2d.size == 0 and not dev._wide_ex.flags


def _raise_at(thread, workload):
    """A per-thread scalars callable that raises at one thread id."""
    base = get_workload(workload).make({}).bind(Device())[1]

    def scalars(tid):
        if tid[0] == thread:
            raise _Boom(f"thread {thread}")
        return base(tid)
    return scalars


def _fail_second_chunk(surfaces):
    """Make the first surface's vector read raise on the second chunk."""
    surf = surfaces[0]
    orig = surf.read_linear_many
    calls = []

    def read(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise _Boom("second chunk")
        return orig(*args, **kwargs)
    surf.read_linear_many = read


def _spy_san(dev):
    """Record each executor's ``san`` whenever the device runs it."""
    seen = []
    for ex in (dev._seq_ex, dev._wide_ex):
        if ex is None:
            continue

        def run(program, _ex=ex, _orig=ex.run):
            seen.append(_ex.san)
            _orig(program)
        ex.run = run
    return seen


_SEQUENCE = [
    ("saxpy", None, "jit"),
    ("bitonic_cf", None, "wide"),
    ("saxpy", "sequential", "sequential"),
    ("blur", None, "jit"),
    ("bitonic_cf", "sequential", "sequential"),
    ("saxpy", "wide", "wide"),
    ("bitonic_cf", None, "wide"),
    ("saxpy", None, "jit"),
]


class TestInterleavedReuse:
    def test_interleaved_tiers_match_fresh_devices(self):
        dev = Device()
        executors = None
        for workload, tier, path in _SEQUENCE:
            got = _launch(dev, workload, tier)
            assert got[0].path == path
            _assert_same(got, _launch(Device(), workload, tier))
            _assert_unbound(dev)
            if executors is None and dev._seq_ex and dev._wide_ex:
                executors = (dev._seq_ex, dev._wide_ex)
        # one executor per kind, built once and reused throughout
        assert executors == (dev._seq_ex, dev._wide_ex)

    def test_sanitized_first_launches_interleave(self):
        # validate="first": each kernel's first auto launch runs
        # sanitized on the shared sequential executor, later ones go
        # vector; hooks never leak into a launch that is not sanitized.
        dev = Device()
        for workload in ("saxpy", "bitonic_cf", "saxpy", "bitonic_cf"):
            got = _launch(dev, workload, validate="first")
            want = _launch(Device(), workload, tier=got[0].path)
            _assert_same(got, want)
            _assert_unbound(dev)
        assert len(dev.sanitizer_results) == 2
        assert [r.path for r in dev.runs] == \
            ["sequential", "sequential", "jit", "wide"]

    def test_reset_drops_both_executors(self):
        dev = Device()
        _launch(dev, "saxpy", "sequential")
        _launch(dev, "saxpy", "jit")
        assert dev._seq_ex is not None and dev._wide_ex is not None
        dev.reset()
        assert dev._seq_ex is None and dev._wide_ex is None


class TestFailedLaunchLeavesNothingBound:
    @pytest.mark.parametrize("tier,workload", [
        ("sequential", "saxpy"),
        ("sequential", "bitonic_cf"),
        ("wide", "saxpy"),
        ("jit", "saxpy"),
    ])
    def test_next_launch_matches_fresh_device(self, tier, workload,
                                              monkeypatch):
        # 16 threads in chunks of 4: the vector tiers fail on chunk 2
        monkeypatch.setattr(device_mod, "MAX_LIVE_THREADS", 4)
        dev = Device()
        _launch(dev, workload, tier)  # warm: executors exist and are bound
        with pytest.raises(_Boom):
            if tier == "sequential":
                _launch(dev, workload, tier,
                        scalars=_raise_at(5, workload))
            else:
                _launch(dev, workload, tier, fault=_fail_second_chunk)
        _assert_unbound(dev)
        seen = _spy_san(dev)
        got = _launch(dev, workload, tier)
        assert seen and all(san is None for san in seen)
        _assert_same(got, _launch(Device(), workload, tier))

    @pytest.mark.parametrize("workload", ["saxpy", "bitonic_cf"])
    def test_failed_sanitized_first_launch(self, workload):
        dev = Device()
        with pytest.raises(_Boom):
            _launch(dev, workload, validate="first",
                    scalars=_raise_at(5, workload))
        assert dev.sanitizer_results == [] and not dev._race_verdicts
        _assert_unbound(dev)
        # an unsanitized scalar launch must not inherit the hooks …
        seen = _spy_san(dev)
        got = _launch(dev, workload, "sequential", validate="first")
        assert seen and all(san is None for san in seen)
        _assert_same(got, _launch(Device(), workload, "sequential",
                                  validate="first"))
        # … and the retried first launch sanitizes from scratch
        got = _launch(dev, workload, validate="first")
        _assert_same(got, _launch(Device(), workload, validate="first"))
        assert len(dev.sanitizer_results) == 1
        assert dev.sanitizer_results[0].clean
        _assert_unbound(dev)


class TestJitDeclines:
    def test_control_flow_kernel_declines_once(self):
        obs = Observability()
        dev = Device(obs=obs)
        for _ in range(3):
            run, _ = _launch(dev, "bitonic_cf")
            assert run.path == "wide"
        assert dev.profile.jit_declines == 1
        assert dev.profile.jit_compiles == 0
        counter = obs.registry.get("jit_declines", kernel="cf_bitonic_local",
                                   reason="control-flow")
        assert counter is not None and counter.value == 1

    def test_straight_line_kernel_never_declines(self):
        obs = Observability()
        dev = Device(obs=obs)
        for _ in range(3):
            run, _ = _launch(dev, "saxpy")
            assert run.path == "jit"
        assert dev.profile.jit_declines == 0
        assert obs.registry.get("jit_declines", kernel="saxpy",
                                reason="codegen") is None

    def test_decline_reasons(self):
        dev = Device()
        for workload, reason in (("bitonic_cf", "control-flow"),
                                 ("saxpy", "codegen")):
            launch = get_workload(workload).make({})
            kern = dev.compile(launch.body, launch.name, launch.sig,
                               launch.scalar_params)
            assert jit_decline_reason(kern.program) == reason

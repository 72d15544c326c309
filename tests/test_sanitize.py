"""The repro.sanitize subsystem: race/OOB/uninit checkers and gating.

Unit tests for each checker plus the load-bearing integration: the
race verdict from a kernel's first (sanitized, sequential) launch
decides whether ``Device.run_compiled(tier=None)`` may take the
grid-vectorized wide path, and ``ServeCluster``/OCL enqueues fold
their findings into sessions and reports.
"""

import dataclasses
import json

import numpy as np
import pytest

import repro.sanitize as sanitize
from repro import cm, ocl
from repro.isa.dtypes import UD
from repro.isa.grf import RegOperand
from repro.memory.surfaces import BufferSurface, Image2DSurface, OOBError
from repro.obs import Observability
from repro.sanitize import (
    ExecSanitizer, RaceDetector, SanitizerReport, UninitTracker,
)
from repro.sim.device import Device

_VEC = 16


# -- shared kernel bodies -----------------------------------------------------

def _saxpy_body(cmx, xbuf, ybuf, tid):
    off = tid * (_VEC * 4)
    x = cmx.vector(np.float32, _VEC)
    cmx.read(xbuf, off, x)
    y = cmx.vector(np.float32, _VEC)
    cmx.read(ybuf, off, y)
    out = cmx.vector(np.float32, _VEC)
    out.assign(x * np.float32(2.0) + y)
    cmx.write(ybuf, off, out)


_SAXPY_SIG = [("xbuf", False), ("ybuf", False)]


def _racy_body(cmx, out, tid):
    # every thread reads and rewrites the same 64 bytes at offset 0
    v = cmx.vector(np.float32, _VEC)
    cmx.read(out, 0, v)
    w = cmx.vector(np.float32, _VEC)
    w.assign(v * np.float32(2.0))
    cmx.write(out, 0, w)


_RACY_SIG = [("out", False)]


def _compile_saxpy(dev):
    return dev.compile(_saxpy_body, "saxpy", _SAXPY_SIG, ["tid"])


def _saxpy_surfaces(dev, n_threads=16, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    y = rng.standard_normal(n_threads * _VEC).astype(np.float32)
    return dev.buffer(x.copy()), dev.buffer(y.copy()), x, y


def _launch(dev, kern, surfaces, n_threads=16, **kw):
    return dev.run_compiled(kern, grid=(n_threads,), surfaces=surfaces,
                            scalars=lambda t: {"tid": t[0]}, **kw)


def _trace(fn):
    """Run ``fn`` under a ChromeTraceSink; return (events, fn's result)."""
    from repro import obs as obs_mod
    from repro.obs.tracing import ChromeTraceSink

    sink = ChromeTraceSink()
    with obs_mod.observed(sink=sink, span_metrics=False):
        result = fn()
    return sink.events, result


def _dispatch_paths(events):
    return [e["args"]["path"] for e in events if e["name"] == "dispatch"]


def _timing_equal(a, b):
    return all(getattr(a, f.name) == getattr(b, f.name)
               for f in dataclasses.fields(a))


# -- race detector unit tests -------------------------------------------------

class TestRaceDetector:
    def _surf(self, nbytes=256):
        return BufferSurface(np.zeros(nbytes, dtype=np.uint8))

    def test_disjoint_writes_are_race_free(self):
        s = self._surf()
        det = RaceDetector()
        det.attach([s])
        for t in range(4):
            det.begin_thread(t)
            s.write_linear(t * 64, np.full(64, t, dtype=np.uint8))
        assert det.finish().race_free

    def test_overlapping_writes_conflict(self):
        s = self._surf()
        det = RaceDetector()
        det.attach([s])
        for t in range(2):
            det.begin_thread(t)
            s.write_linear(32, np.full(16, t, dtype=np.uint8))
        verdict = det.finish()
        assert not verdict.race_free
        (c,) = verdict.conflicts
        assert c.kind == "write-write"
        assert c.byte_range == (32, 48)
        assert {c.thread_a, c.thread_b} == {0, 1}

    def test_read_of_other_threads_write_conflicts(self):
        s = self._surf()
        det = RaceDetector()
        det.attach([s])
        det.begin_thread("w")
        s.write_linear(0, np.arange(16, dtype=np.uint8))
        det.begin_thread("r")
        s.read_linear(8, 16)
        verdict = det.finish()
        assert not verdict.race_free
        assert verdict.conflicts[0].kind == "read-write"
        assert verdict.conflicts[0].byte_range == (8, 16)

    def test_own_read_after_write_is_fine(self):
        s = self._surf()
        det = RaceDetector()
        det.attach([s])
        det.begin_thread(0)
        s.write_linear(0, np.arange(64, dtype=np.uint8))
        s.read_linear(0, 64)
        det.begin_thread(1)
        s.read_linear(128, 32)
        assert det.finish().race_free

    def test_atomics_do_not_conflict_with_atomics(self):
        s = self._surf()
        det = RaceDetector()
        det.attach([s])
        for t in range(4):
            det.begin_thread(t)
            s.atomic("add", np.zeros(8, dtype=np.int64),
                     np.ones(8, dtype=np.uint32), UD)
        assert det.finish().race_free

    def test_atomic_mixed_with_plain_write_conflicts(self):
        s = self._surf()
        det = RaceDetector()
        det.attach([s])
        det.begin_thread(0)
        s.atomic("add", np.zeros(4, dtype=np.int64),
                 np.ones(4, dtype=np.uint32), UD)
        det.begin_thread(1)
        s.write_linear(0, np.zeros(4, dtype=np.uint8))
        verdict = det.finish()
        assert not verdict.race_free
        assert verdict.conflicts[0].kind == "atomic-write"

    def test_barrier_separates_epochs(self):
        # write -> barrier -> other thread reads: happens-before, clean
        s = self._surf()
        det = RaceDetector()
        det.attach([s])
        det.begin_thread(0)
        s.write_linear(0, np.arange(16, dtype=np.uint8))
        det.barrier()
        det.begin_thread(1)
        s.read_linear(0, 16)
        verdict = det.finish()
        assert verdict.race_free
        assert verdict.epochs == 2

    def test_conflict_without_barrier_same_shape(self):
        s = self._surf()
        det = RaceDetector()
        det.attach([s])
        det.begin_thread(0)
        s.write_linear(0, np.arange(16, dtype=np.uint8))
        det.begin_thread(1)
        s.read_linear(0, 16)
        assert not det.finish().race_free

    def test_scratch_surfaces_are_skipped(self):
        s = self._surf()
        s.obs_label = "scratch"
        det = RaceDetector()
        det.attach([s])
        for t in range(2):
            det.begin_thread(t)
            s.write_linear(0, np.full(8, t, dtype=np.uint8))
        assert det.finish().race_free

    def test_finish_detaches_recorder(self):
        s = self._surf()
        det = RaceDetector()
        det.attach([s])
        det.begin_thread(0)
        det.finish()
        assert s._san_rec is None


# -- uninit tracker unit tests ------------------------------------------------

_R2 = RegOperand(2, 0, UD)  # r2.0:ud — byte 64 of the register file


class TestUninitTracker:
    def test_read_before_write_is_flagged(self):
        un = UninitTracker()
        un.begin_thread(0)
        idx = np.arange(64, 96).reshape(8, 4)
        un.check_plan(idx, None, 3, "add", _R2)
        assert un.total == 8
        f = un.findings[0]
        assert f.reg == 2 and f.inst == 3 and f.opcode == "add"

    def test_write_then_read_is_clean(self):
        un = UninitTracker()
        un.begin_thread(0)
        un.mark_range(64, 32)
        un.check_plan(np.arange(64, 96).reshape(8, 4), None, 0, "add", _R2)
        assert un.total == 0

    def test_masked_lanes_are_not_checked(self):
        un = UninitTracker()
        un.begin_thread(0)
        idx = np.arange(64, 96).reshape(8, 4)  # 8 dword lanes
        mask = np.zeros(8, dtype=bool)
        un.check_plan(idx, mask, 0, "add", _R2)
        assert un.total == 0
        mask[2] = True
        un.check_plan(idx, mask, 1, "add", _R2)
        assert un.total == 1
        assert un.findings[0].lanes == (2,)

    def test_report_once_then_marked_valid(self):
        # a single bad register read reports once, not per use
        un = UninitTracker()
        un.begin_thread(0)
        idx = np.arange(64, 96).reshape(8, 4)
        un.check_plan(idx, None, 0, "add", _R2)
        un.check_plan(idx, None, 1, "mul", _R2)
        assert un.total == 8

    def test_begin_thread_resets_validity(self):
        un = UninitTracker()
        un.begin_thread(0)
        un.mark_range(64, 32)
        un.begin_thread(1)
        un.check_plan(np.arange(64, 96).reshape(8, 4), None, 0, "add", _R2)
        assert un.total == 8
        assert un.findings[0].thread == 1


# -- OOB sanitizer ------------------------------------------------------------

class TestOOB:
    def _img(self):
        return Image2DSurface(np.zeros((8, 16), dtype=np.uint8))

    def test_block_read_clip_is_counted(self):
        img = self._img()
        img.read_block(12, 4, 8, 8)
        assert img.oob_clipped_lanes == 48
        assert img.oob_events[0][0] == "read_block"

    def test_in_bounds_access_counts_nothing(self):
        img = self._img()
        img.read_block(0, 0, 16, 8)
        img.write_block(8, 4, 8, 4, np.zeros(32, dtype=np.uint8))
        assert img.oob_clipped_lanes == 0

    def test_strict_mode_raises_with_diagnostic(self):
        img = self._img()
        img.obs_label = "acts"
        with sanitize.strict():
            with pytest.raises(OOBError, match="acts"):
                img.read_block(12, 4, 8, 8)
        # strict flag restored on exit: the same access clamps again
        img.read_block(12, 4, 8, 8)

    def test_pixel_reads_count_clipped_lanes(self):
        img = self._img()
        xs = np.array([0, 5, 20, -1])
        ys = np.array([0, 2, 1, 9])
        img.read_pixels(xs, ys)
        assert img.oob_clipped_lanes == 2

    def test_collect_reports_per_label(self):
        img = self._img()
        img.obs_label = "imgX"
        img.read_block(12, 4, 8, 8)
        assert sanitize.collect_oob([img]) == {"imgX": 48}
        sanitize.oob.reset([img])
        assert img.oob_clipped_lanes == 0 and img.oob_events == []


# -- dispatch gating: the load-bearing verdict --------------------------------

class TestWideGating:
    def test_first_launch_sanitized_wide_then_jit(self):
        def go():
            dev = Device()
            xb, yb, _, _ = _saxpy_surfaces(dev)
            kern = _compile_saxpy(dev)
            _launch(dev, kern, [xb, yb], validate="first")
            _launch(dev, kern, [xb, yb], validate="first")
            return dev
        events, dev = _trace(go)
        # the sanitized first launch runs on the wide interpreter; the
        # second takes the top auto tier (JIT) once certified
        assert _dispatch_paths(events) == ["wide", "jit"]
        assert len(dev.sanitizer_results) == 1
        assert dev.sanitizer_results[0].verdict.race_free
        assert dev.sanitizer_results[0].clean

    def test_racy_kernel_never_takes_wide(self):
        def go():
            dev = Device()
            out = dev.buffer(np.zeros(_VEC, dtype=np.float32))
            kern = dev.compile(_racy_body, "racy", _RACY_SIG, ["tid"])
            for _ in range(3):
                _launch(dev, kern, [out], n_threads=8, validate="first")
            return dev
        events, dev = _trace(go)
        # the first launch's vector pass finds the race and is discarded;
        # the launch reruns sanitized-sequential, and so do the others
        dispatches = [e["args"] for e in events if e["name"] == "dispatch"]
        assert [(d["path"], d.get("discarded", False))
                for d in dispatches] == \
            [("wide", True)] + [("compiled", False)] * 3
        assert [r.path for r in dev.runs] == ["sequential"] * 3
        assert len(dev.sanitizer_results) == 1
        v = dev.sanitizer_results[0].verdict
        assert not v.race_free
        kinds = {c.kind for c in v.conflicts}
        assert kinds & {"write-write", "read-write"}

    def test_certified_wide_launch_has_timing_parity(self):
        dev = Device()
        xb, yb, _, _ = _saxpy_surfaces(dev)
        kern = _compile_saxpy(dev)
        run_sanitized = _launch(dev, kern, [xb, yb], validate="first")
        run_wide = _launch(dev, kern, [xb, yb], validate="first")
        assert _timing_equal(run_sanitized.timing, run_wide.timing)

    def test_validate_always_sanitizes_every_launch(self):
        dev = Device()
        xb, yb, _, _ = _saxpy_surfaces(dev)
        kern = _compile_saxpy(dev)
        _launch(dev, kern, [xb, yb], validate="always")
        _launch(dev, kern, [xb, yb], validate="always")
        assert len(dev.sanitizer_results) == 2
        assert all(r.clean for r in dev.sanitizer_results)

    def test_validate_off_goes_straight_wide(self):
        def go():
            dev = Device()
            xb, yb, _, _ = _saxpy_surfaces(dev)
            kern = _compile_saxpy(dev)
            _launch(dev, kern, [xb, yb], validate="off")
            return dev
        events, dev = _trace(go)
        assert _dispatch_paths(events) == ["jit"]
        assert dev.sanitizer_results == []

    def test_wide_true_bypasses_validation(self):
        dev = Device()
        xb, yb, _, _ = _saxpy_surfaces(dev)
        kern = _compile_saxpy(dev)
        _launch(dev, kern, [xb, yb], tier="jit", validate="first")
        assert dev.sanitizer_results == []

    def test_sanitized_launch_preserves_results(self):
        dev = Device()
        xb, yb, x, y = _saxpy_surfaces(dev)
        kern = _compile_saxpy(dev)
        _launch(dev, kern, [xb, yb], validate="always")
        assert np.allclose(yb.to_numpy().view(np.float32),
                           2.0 * x + y, atol=1e-6)

    def test_invalid_validate_mode_rejected(self):
        dev = Device()
        xb, yb, _, _ = _saxpy_surfaces(dev)
        kern = _compile_saxpy(dev)
        with pytest.raises(ValueError, match="validate"):
            _launch(dev, kern, [xb, yb], validate="sometimes")

    def test_wide_executor_runs_sanitizer_hooks(self):
        from repro.isa.instructions import Instruction, Opcode
        from repro.isa.wide import WideExecutor

        # r3 = r2 + r2 with r2 seeded for thread t1 only: the bitmap has
        # one row per thread and reports t0 alone
        ex = WideExecutor({}, num_threads=2)
        san = ex.san = ExecSanitizer(uninit=UninitTracker())
        san.begin_threads(["t0", "t1"])
        san.mark_grf_valid(64, 4, np.array([[False], [True]]))
        ex.run([Instruction(Opcode.ADD, 1, RegOperand(3, 0, UD),
                            [RegOperand(2, 0, UD), RegOperand(2, 0, UD)])])
        assert san.uninit.valid.shape == (2, 4096)
        assert san.uninit.total == 1
        assert san.uninit.findings[0].thread == "t0"

    def test_reset_clears_results_and_clear_cache_drops_verdicts(self):
        dev = Device()
        xb, yb, _, _ = _saxpy_surfaces(dev)
        kern = _compile_saxpy(dev)
        _launch(dev, kern, [xb, yb], validate="first")
        assert dev.sanitizer_results and dev._race_verdicts
        dev.reset()
        assert dev.sanitizer_results == [] and dev.oob_lanes == {}
        assert dev._race_verdicts  # verdicts survive like the kernel cache
        dev.reset(clear_cache=True)
        assert not dev._race_verdicts


# -- the vector pass: sanitized launches on the wide interpreter -------------

def _read_write_body(cmx, out, tid):
    # every thread reads block 0 and writes its own block: thread 0's
    # write races with the other threads' reads (read-write only)
    v = cmx.vector(np.float32, _VEC)
    cmx.read(out, 0, v)
    w = cmx.vector(np.float32, _VEC)
    w.assign(v + np.float32(1.0))
    cmx.write(out, tid * (_VEC * 4), w)


def _write_write_body(cmx, src, dst, tid):
    # every thread copies its own block of src over block 0 of dst
    v = cmx.vector(np.float32, _VEC)
    cmx.read(src, tid * (_VEC * 4), v)
    cmx.write(dst, 0, v)


def _patched(kern, extra, at_end=False):
    """``kern`` with instructions spliced into its program."""
    program = list(kern.program) + extra if at_end else \
        extra + list(kern.program)
    return dataclasses.replace(kern, program=program, _plan_table=None,
                               _jit=None)


def _uninit_read(kern):
    """``kern`` preceded by a read of registers nothing writes."""
    from repro.isa.dtypes import D
    from repro.isa.instructions import Instruction, Opcode
    from repro.isa.regions import Region

    top = kern.allocation.max_grf_bytes // 32
    src = RegOperand(top + 2, 0, D, Region.contiguous(8))
    dst = RegOperand(top + 1, 0, D)
    return _patched(kern, [Instruction(Opcode.ADD, 8, dst, [src, src])])


def _seeded_bug_launch(bug, **kw):
    """A device, its first launch of a kernel with a planted ``bug``,
    and the bound surfaces' bytes afterwards."""
    dev = Device()
    if bug == "read-write":
        surfaces = [dev.buffer(np.arange(8 * _VEC, dtype=np.float32))]
        kern = dev.compile(_read_write_body, "rw", _RACY_SIG, ["tid"])
    elif bug == "write-write":
        surfaces = [dev.buffer(np.arange(8 * _VEC, dtype=np.float32)),
                    dev.buffer(np.zeros(_VEC, dtype=np.float32))]
        kern = dev.compile(_write_write_body, "ww",
                           [("src", False), ("dst", False)], ["tid"])
    elif bug == "uninit":
        surfaces = list(_saxpy_surfaces(dev, n_threads=8)[:2])
        kern = _uninit_read(_compile_saxpy(dev))
    else:  # an OOB block read
        surfaces = [dev.image2d(np.arange(32 * 16, dtype=np.uint8)
                                .reshape(32, 16))]
        kern = dev.compile(_clipped_read_body, "clipread",
                           [("img", True)], ["tid"])
    run = _launch(dev, kern, surfaces, n_threads=8, **kw)
    return dev, run, [surf.bytes.copy() for surf in surfaces]


def _assert_same_launch(got, want, same_path=True):
    """Field-for-field equality of two single sanitized launches."""
    (dev_a, run_a, bytes_a), (dev_b, run_b, bytes_b) = got, want
    assert len(dev_a.runs) == len(dev_b.runs) == 1
    assert len(dev_a.sanitizer_results) == len(dev_b.sanitizer_results) == 1
    assert dev_a.profile.threads_run == dev_b.profile.threads_run
    if same_path:
        assert run_a.path == run_b.path
        for counter in ("tier_launches", "chunks_dispatched",
                        "peak_live_traces"):
            assert getattr(dev_a.profile, counter) == \
                getattr(dev_b.profile, counter), counter
    assert _timing_equal(run_a.timing, run_b.timing)
    assert all(np.array_equal(a, b) for a, b in zip(bytes_a, bytes_b))
    res_a, res_b = dev_a.sanitizer_results[0], dev_b.sanitizer_results[0]
    assert res_a.verdict == res_b.verdict
    assert res_a.uninit == res_b.uninit
    assert res_a.uninit_total == res_b.uninit_total
    assert res_a.oob_lanes == res_b.oob_lanes
    assert dev_a.oob_lanes == dev_b.oob_lanes


class TestVectorPass:
    @pytest.mark.parametrize("bug", ["read-write", "write-write", "uninit"])
    def test_buggy_first_launch_matches_sanitized_sequential(self, bug):
        # the vector pass finds the bug and is discarded: the launch is
        # today's sanitized-sequential one, bit for bit
        got = _seeded_bug_launch(bug, validate="first")
        want = _seeded_bug_launch(bug, tier="sequential", validate="always")
        assert got[1].path == "sequential"
        _assert_same_launch(got, want)

    def test_seeded_bugs_are_all_caught_through_run_compiled(self):
        for bug in ("read-write", "write-write"):
            dev, _, _ = _seeded_bug_launch(bug, validate="first")
            (result,) = dev.sanitizer_results
            assert bug in {c.kind for c in result.verdict.conflicts}, bug
        dev, _, _ = _seeded_bug_launch("uninit", validate="first")
        (result,) = dev.sanitizer_results
        assert result.uninit_total == 8 * 8  # every lane of every thread
        dev, run, _ = _seeded_bug_launch("oob", validate="first")
        (result,) = dev.sanitizer_results
        # clips are counted (the media block unit clamps by design)
        assert run.path == "wide"
        assert result.oob_lanes == {"img0": 8 * 4 * 4}

    def test_clean_first_launch_runs_wide_with_the_sequential_verdict(self):
        got = _seeded_bug_launch("oob", validate="first")
        want = _seeded_bug_launch("oob", tier="sequential",
                                  validate="always")
        assert got[1].path == "wide" and want[1].path == "sequential"
        _assert_same_launch(got, want, same_path=False)
        assert got[0].profile.gate_outcomes == {"sanitized": 1}

    def test_barrier_programs_stay_sanitized_sequential(self):
        from repro.isa.instructions import Instruction, Opcode

        dev = Device()
        xb, yb, _, _ = _saxpy_surfaces(dev)
        kern = _patched(_compile_saxpy(dev),
                        [Instruction(Opcode.BARRIER, 1, None, [])],
                        at_end=True)
        run = _launch(dev, kern, [xb, yb], validate="first")
        assert run.path == "sequential"
        # one barrier per thread, each a global epoch boundary
        assert dev.sanitizer_results[0].verdict.epochs == 1 + 16

    def test_vector_pass_exception_reruns_sequentially(self):
        # strict OOB raises inside the vector pass; the surfaces come
        # back and the sequential rerun raises exactly as before
        dev = Device()
        img = dev.image2d(np.arange(32 * 16, dtype=np.uint8).reshape(32, 16))
        before = img.bytes.copy()
        kern = dev.compile(_clipped_read_body, "clipread",
                           [("img", True)], ["tid"])
        with sanitize.strict(), pytest.raises(OOBError, match="read_block"):
            _launch(dev, kern, [img], n_threads=8, validate="first")
        assert np.array_equal(img.bytes, before)
        assert dev.runs == [] and dev.sanitizer_results == []
        assert img.oob_events[-1][0] == "read_block"


# -- OOB metrics through the device -------------------------------------------

def _clipped_read_body(cmx, img, tid):
    # x=12 with an 8-byte-wide block on a 16-byte-wide surface: the
    # right 4 columns of every row are edge-clamped.
    m = cmx.matrix(np.uint8, 4, 8)
    cmx.read(img, 12, tid * 4, m)
    cmx.write(img, 0, tid * 4, m)


class TestDeviceOOBMetrics:
    def _setup(self, obs=None):
        dev = Device(obs=obs) if obs is not None else Device()
        img = dev.image2d(np.zeros((8, 16), dtype=np.uint8))
        kern = dev.compile(_clipped_read_body, "clipread",
                           [("img", True)], ["tid"])
        return dev, img, kern

    def test_oob_lanes_land_in_device_and_registry(self):
        obs = Observability(enabled=True)
        dev, img, kern = self._setup(obs)
        _launch(dev, kern, [img], n_threads=2, validate="off")
        label = img.obs_label
        assert dev.oob_lanes.get(label, 0) > 0
        metric = obs.registry.get("sanitize_oob_lanes", surface=label)
        assert metric.value == dev.oob_lanes[label]
        assert "oob clipped lanes" in dev.report()

    def test_collection_is_delta_based_not_double_counted(self):
        dev, img, kern = self._setup()
        _launch(dev, kern, [img], n_threads=2, validate="off")
        first = dict(dev.oob_lanes)
        assert first[img.obs_label] > 0
        _launch(dev, kern, [img], n_threads=2, validate="off")
        assert dev.oob_lanes[img.obs_label] == 2 * first[img.obs_label]

    def test_sanitized_launch_reports_oob_in_result(self):
        dev, img, kern = self._setup()
        _launch(dev, kern, [img], n_threads=2, validate="always")
        (result,) = dev.sanitizer_results
        assert result.oob_lanes.get(img.obs_label, 0) > 0


# -- sessions: eager CM and OCL paths -----------------------------------------

class TestSession:
    def test_ocl_slm_race_without_barrier_is_caught(self):
        dev = Device()
        src = dev.buffer(np.arange(32, dtype=np.uint32))
        dst = dev.buffer(np.zeros(32, dtype=np.uint32))

        def kernel(a, b, slm):
            gid = ocl.get_global_id(0)
            lid = ocl.get_local_id(0)
            v = ocl.load(a, gid, dtype=np.uint32)
            ocl.slm_store(slm, lid, v)
            n = ocl.get_local_size(0)
            r = ocl.slm_load(slm, (n - 1) - lid, dtype=np.uint32)
            ocl.store(b, gid, r)

        with sanitize.session() as sess:
            ocl.enqueue(dev, kernel, 32, 32, args=(src, dst), slm_bytes=128)
        (result,) = sess.report.results
        assert not result.verdict.race_free
        assert any(c.surface == "slm" for c in result.verdict.conflicts)

    def test_ocl_slm_exchange_with_barrier_is_clean(self):
        dev = Device()
        src = dev.buffer(np.arange(32, dtype=np.uint32))
        dst = dev.buffer(np.zeros(32, dtype=np.uint32))

        def kernel(a, b, slm):
            gid = ocl.get_global_id(0)
            lid = ocl.get_local_id(0)
            v = ocl.load(a, gid, dtype=np.uint32)
            ocl.slm_store(slm, lid, v)
            yield ocl.barrier()
            n = ocl.get_local_size(0)
            r = ocl.slm_load(slm, (n - 1) - lid, dtype=np.uint32)
            ocl.store(b, gid, r)

        with sanitize.session() as sess:
            ocl.enqueue(dev, kernel, 32, 32, args=(src, dst), slm_bytes=128)
        (result,) = sess.report.results
        assert result.verdict.race_free
        assert dst.to_numpy().tolist() == list(range(31, -1, -1))

    def test_eager_cm_launch_is_recorded(self):
        dev = Device()
        buf = dev.buffer(np.zeros(8 * _VEC, dtype=np.float32))

        @cm.cm_kernel
        def kern():
            tid = cm.thread_x()
            v = cm.vector(cm.float32, _VEC)
            cm.read(buf, tid * _VEC * 4, v)
            cm.write(buf, tid * _VEC * 4, v)

        with sanitize.session() as sess:
            dev.run_cm(kern, grid=(8,))
        (result,) = sess.report.results
        assert result.verdict.race_free
        assert result.verdict.threads == 8

    def test_eager_cm_race_is_caught(self):
        dev = Device()
        buf = dev.buffer(np.zeros(_VEC, dtype=np.float32))

        @cm.cm_kernel
        def kern():
            v = cm.vector(cm.float32, _VEC, 1.0)
            cm.write(buf, 0, v)  # all threads write the same block

        with sanitize.session() as sess:
            dev.run_cm(kern, grid=(4,))
        (result,) = sess.report.results
        assert not result.verdict.race_free

    def test_compiled_launch_under_session_is_sanitized(self):
        dev = Device()
        xb, yb, _, _ = _saxpy_surfaces(dev)
        kern = _compile_saxpy(dev)
        with sanitize.session() as sess:
            _launch(dev, kern, [xb, yb])  # validate=None -> "always"
        assert len(sess.report.results) == 1
        assert sess.report.clean

    def test_session_restores_previous(self):
        assert sanitize.current_session() is None
        with sanitize.session():
            assert sanitize.current_session() is not None
        assert sanitize.current_session() is None


# -- report aggregation and publication ---------------------------------------

def _racy_device():
    dev = Device()
    out = dev.buffer(np.zeros(_VEC, dtype=np.float32))
    kern = dev.compile(_racy_body, "racy", _RACY_SIG, ["tid"])
    _launch(dev, kern, [out], n_threads=4, validate="always")
    return dev


class TestReport:
    def test_json_roundtrip(self):
        dev = _racy_device()
        report = SanitizerReport(results=list(dev.sanitizer_results))
        blob = json.loads(report.to_json())
        assert blob["kernels"] == 1 and blob["racy"] == 1
        assert not blob["clean"]
        assert blob["results"][0]["race"]["conflicts"]

    def test_publish_increments_metrics(self):
        from repro.obs.metrics import MetricsRegistry

        dev = _racy_device()
        reg = MetricsRegistry()
        SanitizerReport(results=list(dev.sanitizer_results)).publish(reg)
        assert reg.get("sanitize_race_conflicts", kernel="racy").value >= 1

    def test_device_report_mentions_unclean_launches(self):
        dev = _racy_device()
        assert "RACY" in dev.report()

    def test_sanitized_launch_publishes_conflict_metric(self):
        obs = Observability(enabled=True)
        dev = Device(obs=obs)
        out = dev.buffer(np.zeros(_VEC, dtype=np.float32))
        kern = dev.compile(_racy_body, "racy", _RACY_SIG, ["tid"])
        _launch(dev, kern, [out], n_threads=4, validate="always")
        metric = obs.registry.get("sanitize_race_conflicts", kernel="racy")
        assert metric.value >= 1


# -- serving layer ------------------------------------------------------------

class TestServeValidate:
    def test_cluster_validate_mode_is_checked(self):
        from repro.serve.cluster import ServeCluster

        with pytest.raises(ValueError, match="validate"):
            ServeCluster(num_devices=1, validate="nope")

    def test_cluster_first_mode_certifies_then_reuses(self):
        from repro.serve.cluster import ServeCluster

        with ServeCluster(num_devices=1, batching=False,
                          validate="first") as cluster:
            for _ in range(3):
                cluster.submit("saxpy", {"n": 256, "seed": 3})
            assert cluster.drain(timeout=60.0)
        dev = cluster.workers[0].device
        assert len(dev.sanitizer_results) == 1
        assert dev.sanitizer_results[0].verdict.race_free
        assert all(r.status.value == "done" for r in cluster.completed)

    def test_loadgen_sanitize_flag_adds_section(self):
        from repro.serve.loadgen import run_loadgen

        report = run_loadgen(devices=1, requests=8, mix="compiled",
                             mode="closed", concurrency=2, sanitize=True)
        assert report["sanitize"]["sanitized_launches"] >= 1
        assert report["sanitize"]["clean"]
        assert report["sanitize"]["racy_kernels"] == []


# -- CLI ----------------------------------------------------------------------

class TestCLI:
    def test_cli_runs_subset_and_writes_json(self, tmp_path):
        from repro.sanitize.__main__ import main

        out = tmp_path / "report.json"
        rc = main(["--workloads", "serve.saxpy,table1.stencil2d.cm",
                   "--json", str(out), "--quiet"])
        assert rc == 0
        blob = json.loads(out.read_text())
        assert blob["clean"] and blob["kernels"] == 2

    def test_cli_list(self, capsys):
        from repro.sanitize.__main__ import main

        assert main(["--list"]) == 0
        names = capsys.readouterr().out.split()
        assert "table1.systolic.cm" in names
        assert "serve.sgemm" in names

    def test_cli_rejects_unknown_workload(self):
        from repro.sanitize.__main__ import main

        with pytest.raises(KeyError, match="unknown workload"):
            main(["--workloads", "no.such.kernel", "--quiet"])

    def test_default_validate_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "always")
        assert sanitize.default_validate() == "always"
        monkeypatch.setenv("REPRO_SANITIZE", "bogus")
        assert sanitize.default_validate() == "first"
        monkeypatch.delenv("REPRO_SANITIZE")
        assert sanitize.default_validate() == "first"

"""Divergent control flow through the compile-and-dispatch ladder.

End-to-end coverage for the masked-CF pipeline: the trace-mode
``simd_if`` / ``simd_while`` frontend, the structured-CF opcodes in the
compiled program, sequential-vs-wide bit-identity (results *and* every
simulated-timing field), the sanitizer's first-launch pass over a
divergent kernel, cross-device race-verdict adoption, and the compiled
bitonic / k-means workloads built on all of the above.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler import compile_kernel
from repro.compiler.frontend import TraceError, trace_kernel
from repro.isa.instructions import CF_OPCODES
from repro.isa.jit import jit_eligible
from repro.isa.wide import wide_eligible
from repro.memory.surfaces import BufferSurface
from repro.sim.device import Device
from repro.workloads import bitonic, kmeans

W = 16
NT = 8
SIG = [("buf", False), ("out", False)]


def _divergent_body(cmx, buf, out, t):
    """A data-dependent loop plus an if/else — both divergence forms."""
    lane = cmx.vector(np.int32, W, np.arange(W, dtype=np.int32))
    idx = cmx.vector(np.int32, W)
    idx.assign(lane + t * W)
    x = cmx.vector(np.int32, W)
    cmx.read_scattered(buf, 0, idx, x)
    acc = cmx.vector(np.int32, W, 0)
    k = cmx.vector(np.int32, W)
    k.assign(x & 7)

    def loop():
        acc.assign(acc + k)
        k.assign(k - 1)
        return k > 0

    cmx.simd_while(loop)

    with cmx.simd_if(x < 40) as br:
        acc.assign(acc + 100)
    with br.orelse():
        acc.assign(acc + 200)
    cmx.write_scattered(out, 0, idx, acc)


def _oracle(data):
    x = data.astype(np.int64)
    k = (x & 7).copy()
    acc = np.zeros_like(k)
    active = np.ones(x.shape, bool)
    while active.any():                       # do-while per lane
        acc[active] += k[active]
        k[active] -= 1
        active &= k > 0
    acc += np.where(x < 40, 100, 200)
    return acc.astype(np.int32)


def _input(seed=42):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 80, NT * W).astype(np.int32)


class TestTraceCF:
    def test_trace_emits_structured_markers(self):
        fn = trace_kernel(_divergent_body, "cf_trace", SIG, ["t"])
        ops = [i.op for i in fn.instrs]
        for marker in ("simd.do", "simd.while", "simd.if", "simd.else",
                       "simd.endif"):
            assert marker in ops, f"missing {marker} marker"
        # the else-rewrite must leave regions balanced: every if has
        # exactly one endif, and do/while pair up
        assert ops.count("simd.if") == ops.count("simd.endif")
        assert ops.count("simd.do") == ops.count("simd.while")

    def test_return_inside_divergent_region_rejected(self):
        def body(cmx, buf):
            v = cmx.vector(np.int32, W, 0)
            cmx.simd_if(v < 1).__enter__()   # never exited

        with pytest.raises(TraceError):
            trace_kernel(body, "cf_unbalanced", [("buf", False)])


class TestCompiledDivergentKernel:
    def test_cf_opcodes_present_wide_admits_jit_declines(self):
        kern = compile_kernel(_divergent_body, "cf_elig", SIG, ["t"])
        assert any(i.opcode in CF_OPCODES for i in kern.program)
        assert wide_eligible(kern.program)
        # the JIT tier has no CF support: it must decline statically,
        # leaving dispatch to fall back to the wide interpreter.
        assert not jit_eligible(kern.program)

    def test_functional_matches_oracle(self):
        kern = compile_kernel(_divergent_body, "cf_func", SIG, ["t"])
        data = _input()
        src = BufferSurface(data.copy().view(np.uint8))
        dst = BufferSurface(np.zeros(NT * W, np.int32).view(np.uint8))
        for t in range(NT):
            kern.run([src, dst], {"t": t})
        got = dst.to_numpy().view(np.int32)
        assert np.array_equal(got, _oracle(data))

    def test_wide_matches_sequential_bit_identical(self):
        data = _input()
        expect = _oracle(data)
        runs = {}
        for tier in ("sequential", "wide"):
            dev = Device()
            b_in = dev.buffer(data.copy())
            b_out = dev.buffer(np.zeros(NT * W, np.int32))
            kern = dev.compile(_divergent_body, "cf_dev", SIG, ["t"])
            run = dev.run_compiled(kern, grid=(NT,),
                                   surfaces=[b_in, b_out],
                                   scalars=lambda tid: {"t": tid[0]},
                                   name="cf_dev", tier=tier,
                                   validate="off")
            assert np.array_equal(b_out.to_numpy().view(np.int32), expect)
            runs[tier] = run
        assert runs["wide"].path == "wide"
        seq_t, wide_t = runs["sequential"].timing, runs["wide"].timing
        for f in dataclasses.fields(seq_t):
            assert getattr(seq_t, f.name) == getattr(wide_t, f.name), \
                f"timing field {f.name} diverged on the wide path"


class TestSanitizedCF:
    def _launch(self, dev, kern, data):
        b_in = dev.buffer(data.copy())
        b_out = dev.buffer(np.zeros(NT * W, np.int32))
        run = dev.run_compiled(kern, grid=(NT,), surfaces=[b_in, b_out],
                               scalars=lambda tid: {"t": tid[0]},
                               name="cf_san", validate="first")
        return run, b_out.to_numpy().view(np.int32)

    def test_first_launch_sanitized_then_wide(self):
        dev = Device()
        data = _input(seed=1)
        kern = dev.compile(_divergent_body, "cf_san", SIG, ["t"])
        r1, out1 = self._launch(dev, kern, data)
        r2, out2 = self._launch(dev, kern, data)
        res = dev.sanitizer_results[0]
        assert res.verdict.race_free
        assert res.uninit_total == 0
        # the sanitized first launch rides the wide interpreter too
        assert r1.path == r2.path == "wide"
        assert np.array_equal(out1, _oracle(data))
        assert np.array_equal(out2, out1)
        # sanitizing is an observability mode, never a timing change
        for f in dataclasses.fields(r1.timing):
            assert getattr(r1.timing, f.name) == getattr(r2.timing, f.name)

    def test_verdict_adoption_skips_sanitize(self):
        dev = Device()
        data = _input(seed=1)
        kern = dev.compile(_divergent_body, "cf_san", SIG, ["t"])
        self._launch(dev, kern, data)
        fresh = dev.drain_race_verdicts()
        assert fresh and fresh[0][0] == "cf_san"
        assert dev.drain_race_verdicts() == []   # drained exactly once

        dev2 = Device()
        kern2 = dev2.compile(_divergent_body, "cf_san", SIG, ["t"])
        dev2.adopt_race_verdict("cf_san", fresh[0][1])
        run, out = self._launch(dev2, kern2, data)
        assert not dev2.sanitizer_results, \
            "adopted verdict must skip the sanitized first launch"
        assert run.path == "wide"
        assert np.array_equal(out, _oracle(data))


class TestCompiledDivergentWorkloads:
    def test_bitonic_compiled_sorts_and_matches_across_tiers(self):
        keys = bitonic.make_input(6, seed=3)       # n = 64
        expect = np.sort(keys)
        outs = {}
        for tier in ("sequential", "wide"):
            dev = Device()
            outs[tier] = bitonic.run_cm_bitonic_compiled(
                dev, keys, tier=tier)
            assert {r.path for r in dev.runs} == {tier}
        assert np.array_equal(outs["sequential"], expect)
        assert np.array_equal(outs["wide"], expect)

    def test_bitonic_eager_matches_compiled(self):
        keys = bitonic.make_input(6, seed=9)
        got = bitonic.run_cm_bitonic_eager(Device(), keys)
        assert np.array_equal(got, np.sort(keys))

    def test_kmeans_compiled_matches_reference(self):
        pts, _ = kmeans.make_points(128, k=4, seed=2)
        rng = np.random.default_rng(0)
        c0 = pts[rng.choice(128, 4, replace=False)].copy()
        ref = kmeans.reference(pts, c0, iterations=2)
        for tier in ("sequential", "wide"):
            got = kmeans.run_cm_kmeans_compiled(
                Device(), pts, c0, iterations=2, tier=tier)
            assert np.allclose(got, ref, atol=0.5)

    def test_kmeans_eager_matches_reference(self):
        pts, _ = kmeans.make_points(128, k=4, seed=2)
        rng = np.random.default_rng(0)
        c0 = pts[rng.choice(128, 4, replace=False)].copy()
        ref = kmeans.reference(pts, c0, iterations=1)
        got = kmeans.run_cm_kmeans_eager_divergent(
            Device(), pts, c0, iterations=1)
        assert np.allclose(got, ref, atol=0.5)

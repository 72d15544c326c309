"""Fuzzing the compiler: random region programs, compiled vs numpy.

Random sequences of strided reads, writes, and arithmetic over one
vector are executed three ways — a plain numpy oracle, the eager CM
machine, and the fully compiled Gen binary — and must agree bit-exactly.
This family of tests is what caught the legalization src/dst aliasing
hazard (an op split into chunks must not read registers an earlier
chunk wrote).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import cm
from repro.compiler import compile_kernel
from repro.memory.surfaces import BufferSurface

N = 32


def _legal_select(draw):
    size = draw(st.sampled_from([2, 4, 8, 16]))
    stride = draw(st.integers(1, 3))
    offset = draw(st.integers(0, N - 1 - (size - 1) * stride))
    return size, stride, offset


_STEP = st.builds(
    lambda kind, a, b, c: (kind, a, b, c),
    st.sampled_from(["self_assign", "add_const", "mul_const",
                     "region_add"]),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(-9, 9))


def _apply_numpy(steps, data):
    v = data.astype(np.int64)
    for kind, a, b, c in steps:
        size, stride, offset = _select_params(a, b)
        idx = offset + np.arange(size) * stride
        if kind == "self_assign":
            size2, stride2, offset2 = _select_params(b, a)
            if size == size2:
                idx2 = offset2 + np.arange(size2) * stride2
                v[idx] = v[idx2].copy()
        elif kind == "add_const":
            v[idx] += c
        elif kind == "mul_const":
            v[idx] *= c
        elif kind == "region_add":
            size2, stride2, offset2 = _select_params(b, a)
            if size == size2:
                idx2 = offset2 + np.arange(size2) * stride2
                v[idx] += v[idx2].copy()
    return (v & 0xFFFFFFFF).astype(np.uint32).astype(np.int32)


def _select_params(seed_a, seed_b):
    size = [2, 4, 8, 16][seed_a % 4]
    stride = 1 + (seed_b % 3)
    while (size - 1) * stride >= N:
        size //= 2
    max_off = N - 1 - (size - 1) * stride
    offset = (seed_a // 4) % (max_off + 1)
    return size, stride, offset


def _apply_cm_ops(cmx_or_cm, v, steps):
    for kind, a, b, c in steps:
        size, stride, offset = _select_params(a, b)
        ref = v.select(size, stride, offset)
        if kind == "self_assign":
            size2, stride2, offset2 = _select_params(b, a)
            if size == size2:
                ref.assign(v.select(size2, stride2, offset2))
        elif kind == "add_const":
            ref += c
        elif kind == "mul_const":
            ref *= c
        elif kind == "region_add":
            size2, stride2, offset2 = _select_params(b, a)
            if size == size2:
                ref += v.select(size2, stride2, offset2)


@settings(max_examples=40, deadline=None)
@given(st.lists(_STEP, min_size=1, max_size=6), st.integers(0, 2**31 - 1))
def test_compiled_matches_numpy_oracle(steps, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(-100, 100, N).astype(np.int32)
    expect = _apply_numpy(steps, data)

    def body(cmx, buf):
        v = cmx.vector(np.int32, N)
        cmx.read(buf, 0, v)
        _apply_cm_ops(cmx, v, steps)
        cmx.write(buf, 0, v)

    k = compile_kernel(body, "fuzz", [("buf", False)])
    buf = BufferSurface(data.copy())
    k.run([buf])
    assert buf.to_numpy().tolist() == expect.tolist()


@settings(max_examples=40, deadline=None)
@given(st.lists(_STEP, min_size=1, max_size=6), st.integers(0, 2**31 - 1))
def test_eager_matches_numpy_oracle(steps, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(-100, 100, N).astype(np.int32)
    expect = _apply_numpy(steps, data)
    v = cm.vector(cm.int32, N, data)
    _apply_cm_ops(cm, v, steps)
    assert v.to_numpy().tolist() == expect.tolist()


# -- wide executor vs per-thread sequential execution -------------------------
#
# The grid-vectorized WideExecutor claims bit-identical architectural
# state to running the same straight-line program once per thread on the
# sequential FunctionalExecutor (GRF bytes, flag registers, and shared
# surface contents — including atomics, whose same-address collisions
# must resolve in thread order).  Random programs are hand-built at the
# Instruction level because the frontend never emits atomics directly.
#
# Both runs also carry the sanitizer (race detector + uninitialized-GRF
# tracker): the wide executor's checkers must give the sequential
# oracle's answers — race freedom, thread and access counts, and the
# number of uninitialized lane reads — on every generated program.

from repro.compiler.finalizer import VectorImmediate  # noqa: E402
from repro.isa.dtypes import D, F, UB, UD, UW  # noqa: E402
from repro.isa.executor import FunctionalExecutor  # noqa: E402
from repro.isa.grf import RegOperand  # noqa: E402
from repro.isa.instructions import (  # noqa: E402
    CondMod, FlagOperand, Immediate, Instruction, MathFn, MessageDesc,
    MsgKind, Opcode, Predicate,
)
from repro.isa.regions import Region  # noqa: E402
from repro.isa.wide import WideExecutor  # noqa: E402
from repro.sanitize import (  # noqa: E402
    ExecSanitizer, RaceDetector, UninitTracker,
)

_TIDS = [0, 1, 2, 3, 7]          # includes a gap so addresses collide unevenly
_TID_BASE = 32                   # r1.0:d
_SURF_WORDS = 64                 # 256-byte buffer, dword-addressed
_ADDR_MASK = _SURF_WORDS - 1

_DATA = (2, 3, 4, 5)             # :d working registers
_FREG = 6                        # :f working register
_AREG = 8                        # :ud element-offset register
_PREG = 9                        # payload register
_OREG = 10                       # atomic old-value register
_SREG = 11                       # thread-private scatter offsets
_TREG = 12                       # scratch for tid*8

_ALU_OPS = [Opcode.ADD, Opcode.MUL, Opcode.AND, Opcode.XOR,
            Opcode.MIN, Opcode.MAX]
_CONDS = [CondMod.EQ, CondMod.NE, CondMod.LT, CondMod.LE, CondMod.GT,
          CondMod.GE]
_ATOMIC_OPS = ["add", "sub", "inc", "dec", "min", "max", "xchg", "and",
               "or", "xor"]


def _src(reg, dt, n=8, sub=0):
    return RegOperand(reg, sub, dt, Region.contiguous(min(n, 8)))


def _bcast(reg, dt, sub=0):
    return RegOperand(reg, sub, dt, Region.scalar())


def _dst(reg, dt, sub=0):
    return RegOperand(reg, sub, dt)


def _prologue():
    """Seed registers with lane- and thread-varying values from r1 (tid)."""
    out = []
    for i, r in enumerate(_DATA):
        lanes = tuple((i * 37 + j * 11 + 5) % 251 - 100 for j in range(8))
        out.append(Instruction(Opcode.MOV, 8, _dst(r, D),
                               [VectorImmediate(lanes, D)]))
        out.append(Instruction(Opcode.ADD, 8, _dst(r, D),
                               [_src(r, D), _bcast(1, D)]))
    out.append(Instruction(Opcode.MOV, 8, _dst(_FREG, F), [_src(2, D)]))
    out.append(Instruction(Opcode.MOV, 8, _dst(_AREG, UD),
                           [VectorImmediate(tuple(range(0, 24, 3)), UD)]))
    out.append(Instruction(Opcode.ADD, 8, _dst(_AREG, UD),
                           [_src(_AREG, UD), _bcast(1, D)]))
    out.append(Instruction(Opcode.AND, 8, _dst(_AREG, UD),
                           [_src(_AREG, UD), Immediate(_ADDR_MASK, UD)]))
    # Scatter offsets fold into a private 8-word window per thread
    # (tid*8 + lane offset): non-atomic cross-thread writes to the same
    # bytes are a data race, so the generator keeps them disjoint and
    # the race detector certifies that it succeeded (see
    # _run_sequential).  Gathers and atomics keep the shared _AREG
    # pattern — reads of a read-only surface and colliding atomics are
    # race-free and exactly the ordered cases worth fuzzing.
    out.append(Instruction(Opcode.AND, 8, _dst(_SREG, UD),
                           [_src(_AREG, UD), Immediate(7, UD)]))
    out.append(Instruction(Opcode.SHL, 8, _dst(_TREG, UD),
                           [_bcast(1, UD), Immediate(3, UD)]))
    out.append(Instruction(Opcode.ADD, 8, _dst(_SREG, UD),
                           [_src(_SREG, UD), _bcast(_TREG, UD)]))
    out.append(Instruction(Opcode.MOV, 8, _dst(_PREG, D), [_src(3, D)]))
    return out


_MAX_STEPS = 10


def _build_step(kind, a, b, c, idx=0):
    """One deterministic instruction (or a few) from drawn integers."""
    pred = None
    if c % 3 == 1:
        pred = Predicate(FlagOperand(0), invert=bool(c % 2))
    if kind == "alu":
        op = _ALU_OPS[a % len(_ALU_OPS)]
        dt = D if b % 2 else UD
        dr, s0, s1 = (_DATA[a % 4], _DATA[b % 4], _DATA[(a + b) % 4])
        return [Instruction(op, 8, _dst(dr, dt),
                            [_src(s0, dt), _src(s1, dt)], pred=pred,
                            sat=bool(a % 5 == 0))]
    if kind == "w_alu":
        op = _ALU_OPS[b % len(_ALU_OPS)]
        return [Instruction(op, 16, _dst(_DATA[a % 4], UW),
                            [RegOperand(_DATA[b % 4], 0, UW,
                                        Region.contiguous(8)),
                             Immediate(c % 97, UW)], sat=bool(b % 2))]
    if kind == "b_alu":
        return [Instruction(Opcode.ADD, 16, _dst(_DATA[a % 4], UB),
                            [RegOperand(_DATA[b % 4], 0, UB,
                                        Region.contiguous(8)),
                             Immediate(c % 200, UW)], sat=True)]
    if kind == "shift":
        op = [Opcode.SHL, Opcode.SHR, Opcode.ASR][a % 3]
        return [Instruction(op, 8, _dst(_DATA[a % 4], UD),
                            [_src(_DATA[b % 4], UD),
                             Immediate(c % 31, UD)])]
    if kind == "mad":
        return [Instruction(Opcode.MAD, 8, _dst(_FREG, F),
                            [_src(_FREG, F), _src(2, D),
                             Immediate(float(c) / 7.0, F)], pred=pred)]
    if kind == "math":
        fn = [MathFn.INV, MathFn.SQRT, MathFn.EXP][a % 3]
        return [Instruction(Opcode.MATH, 8, _dst(_FREG, F),
                            [_src(_FREG, F)], math_fn=fn)]
    if kind == "cmp":
        cond = _CONDS[a % len(_CONDS)]
        dst = _dst(_DATA[c % 4], D) if c % 4 == 0 else None
        return [Instruction(Opcode.CMP, 8, dst,
                            [_src(_DATA[a % 4], D), _src(_DATA[b % 4], D)],
                            cond_mod=cond, flag=FlagOperand(0))]
    if kind == "sel":
        return [Instruction(Opcode.SEL, 8, _dst(_DATA[c % 4], D),
                            [_src(_DATA[a % 4], D), _src(_DATA[b % 4], D)],
                            pred=Predicate(FlagOperand(0),
                                           invert=bool(a % 2)))]
    if kind == "pred_mov":
        return [Instruction(Opcode.MOV, 8, _dst(_DATA[b % 4], D),
                            [_src(_DATA[a % 4], D)],
                            pred=Predicate(FlagOperand(0),
                                           invert=bool(c % 2)))]
    # Memory steps keep the program *race-free across threads*: gathers
    # read surface 0 (never written), scatters hit thread-private
    # windows of surface 1 (_SREG), and each atomic step gets a private
    # window of surface 2 (addr0).  A read that observes another
    # thread's write is a data race — undefined on hardware, and the
    # one thing the lockstep model legitimately reorders relative to
    # sequential per-thread dispatch.  This discipline is not taken on
    # faith: _run_sequential runs the repro.sanitize race detector over
    # every generated program and asserts the race-free verdict.
    if kind == "gather":
        msg = MessageDesc(MsgKind.GATHER, surface=0, addr_reg=_AREG,
                          payload_reg=_PREG, payload_bytes=32,
                          elem_dtype=D)
        return [Instruction(Opcode.SEND, 8, None, [], msg=msg, pred=pred)]
    if kind == "scatter":
        msg = MessageDesc(MsgKind.SCATTER, surface=1, addr_reg=_SREG,
                          payload_reg=_PREG, payload_bytes=32,
                          elem_dtype=D)
        return [Instruction(Opcode.SEND, 8, None, [], msg=msg, pred=pred)]
    if kind == "atomic":
        op = _ATOMIC_OPS[a % len(_ATOMIC_OPS)]
        needs_src = op not in ("inc", "dec")
        msg = MessageDesc(MsgKind.ATOMIC, surface=2,
                          addr0=Immediate(idx * _SURF_WORDS, UD),
                          addr_reg=_AREG,
                          payload_reg=_PREG if needs_src else -1,
                          payload_bytes=32 if needs_src else 0,
                          atomic_op=op, elem_dtype=UD if b % 2 else D)
        dst = _dst(_OREG, msg.elem_dtype) if b % 3 else None
        return [Instruction(Opcode.SEND, 8, dst, [], msg=msg, pred=pred)]
    raise AssertionError(kind)


_WIDE_STEP = st.builds(
    lambda kind, a, b, c: (kind, a, b, c),
    st.sampled_from(["alu", "w_alu", "b_alu", "shift", "mad", "math",
                     "cmp", "sel", "pred_mov", "gather", "scatter",
                     "atomic"]),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))


def _build_program(steps):
    prog = list(_prologue())
    for idx, step in enumerate(steps):
        prog.extend(_build_step(*step, idx=idx))
    return prog


def _make_surfaces(seed):
    rng = np.random.default_rng(seed)

    def buf(words):
        data = rng.integers(0, 2**31, words, dtype=np.int64)
        return BufferSurface(data.astype(np.int32).view(np.uint8).copy())

    return {0: buf(_SURF_WORDS),                    # gather source
            1: buf(_SURF_WORDS),                    # scatter target
            2: buf(_SURF_WORDS * (_MAX_STEPS + 1))}  # atomic windows


def _surface_bytes(table):
    return {k: s.bytes.copy() for k, s in table.items()}


def _attach_checkers(table):
    detector = RaceDetector()
    detector.attach(table.values())
    return ExecSanitizer(race=detector, uninit=UninitTracker())


def _assert_same_answers(seq_checks, wide_checks):
    """The checkers' decisions — race freedom, thread and access counts,
    uninitialized lane reads — must match the sequential oracle's."""
    answers = [(verdict.race_free, verdict.threads, verdict.events,
                san.uninit.total) for san, verdict in (seq_checks,
                                                       wide_checks)]
    assert answers[1] == answers[0], \
        "vector checkers diverged from the oracle"


def _run_sequential(program, seed, certify=True):
    """Per-thread run under the sanitizer; returns (GRFs, flags,
    surfaces, (sanitizer, race verdict))."""
    table = _make_surfaces(seed)
    san = _attach_checkers(table)
    ex = FunctionalExecutor(table)
    ex.san = san
    grfs, flags = [], []
    for tid in _TIDS:
        ex.reset()
        san.begin_thread(tid)
        ex.grf.write_bytes(_TID_BASE, np.asarray([tid], dtype=np.int32))
        san.mark_grf_valid(_TID_BASE, 4)
        ex.run(program)
        grfs.append(ex.grf.bytes.copy())
        flags.append({k: v.copy() for k, v in ex.flags.items()})
    verdict = san.race.finish()
    if certify:
        # The wide-vs-sequential equivalence claim only holds for
        # race-free programs; certify the generator's discipline.
        assert verdict.race_free, \
            "generator produced a racy program: " + \
            "; ".join(str(c) for c in verdict.conflicts)
    return np.stack(grfs), flags, _surface_bytes(table), (san, verdict)


def _run_wide(program, seed, sanitize=False):
    """All threads at once; with ``sanitize`` the checkers ride along
    and (sanitizer, race verdict) comes back as the fourth element."""
    table = _make_surfaces(seed)
    ex = WideExecutor(table, num_threads=len(_TIDS))
    san = None
    if sanitize:
        san = ex.san = _attach_checkers(table)
        san.begin_threads(_TIDS)
        san.mark_grf_valid(_TID_BASE, 4)
    ex.seed_scalar(_TID_BASE, np.asarray(_TIDS, dtype=np.int32))
    ex.run(program)
    checks = None if san is None else (san, san.race.finish())
    return ex.grf2d.copy(), ex.flags, _surface_bytes(table), checks


@settings(max_examples=30, deadline=None)
@given(st.lists(_WIDE_STEP, min_size=1, max_size=10),
       st.integers(0, 2**31 - 1))
def test_wide_matches_sequential_bit_exact(steps, seed):
    program = _build_program(steps)
    with np.errstate(all="ignore"):
        seq_grf, seq_flags, seq_surf, seq_checks = _run_sequential(
            program, seed)
        wide_grf, wide_flags, wide_surf, wide_checks = _run_wide(
            program, seed, sanitize=True)

    _assert_same_answers(seq_checks, wide_checks)
    for bti in seq_surf:
        assert np.array_equal(wide_surf[bti], seq_surf[bti]), \
            f"surface {bti} state diverged"
    assert np.array_equal(wide_grf, seq_grf), "GRF state diverged"
    indices = set(wide_flags)
    for t, per_thread in enumerate(seq_flags):
        indices |= set(per_thread)
        for idx in indices:
            seq_f = per_thread.get(idx, np.zeros(32, dtype=bool))
            wide_f = wide_flags[idx][t] if idx in wide_flags else \
                np.zeros(32, dtype=bool)
            assert np.array_equal(wide_f, seq_f), f"flag f{idx} diverged"


def _collision_atomic_program(op_idx, invert, with_dst):
    """Atomics under a data-dependent predicate, colliding across threads."""
    op = _ATOMIC_OPS[op_idx]
    needs_src = op not in ("inc", "dec")
    prog = list(_prologue())
    # flag = (r2 < r3): thread- and lane-dependent predicate
    prog.append(Instruction(Opcode.CMP, 8, None,
                            [_src(2, D), _src(3, D)],
                            cond_mod=CondMod.LT, flag=FlagOperand(0)))
    # force heavy collisions: addresses only span 4 words
    prog.append(Instruction(Opcode.AND, 8, _dst(_AREG, UD),
                            [_src(_AREG, UD), Immediate(3, UD)]))
    msg = MessageDesc(MsgKind.ATOMIC, surface=0, addr_reg=_AREG,
                      payload_reg=_PREG if needs_src else -1,
                      payload_bytes=32 if needs_src else 0,
                      atomic_op=op, elem_dtype=D)
    prog.append(Instruction(
        Opcode.SEND, 8, _dst(_OREG, D) if with_dst else None, [], msg=msg,
        pred=Predicate(FlagOperand(0), invert=invert)))
    return prog


@settings(max_examples=15, deadline=None)
@given(st.integers(0, len(_ATOMIC_OPS) - 1), st.booleans(), st.booleans(),
       st.integers(0, 2**31 - 1))
def test_wide_predicated_atomics_thread_order(op_idx, invert, with_dst,
                                              seed):
    prog = _collision_atomic_program(op_idx, invert, with_dst)
    seq_grf, _, seq_surf, seq_checks = _run_sequential(prog, seed)
    wide_grf, _, wide_surf, wide_checks = _run_wide(prog, seed, sanitize=True)
    _assert_same_answers(seq_checks, wide_checks)
    for bti in seq_surf:
        assert np.array_equal(wide_surf[bti], seq_surf[bti])
    assert np.array_equal(wide_grf, seq_grf)


# -- divergent structured control flow ----------------------------------------
#
# Random *divergent* programs: nested SIMD_IF/ELSE/ENDIF regions and
# DO/WHILE loops with data-dependent (thread- and lane-varying) trip
# counts, optional data-dependent BREAKs, and straight-line work in the
# bodies.  The wide executor must keep bit-identical GRF/flag/surface
# state to sequential per-thread dispatch, because empty-mask regions
# still *step through* their instructions — no thread ever takes a
# different instruction path, only different masks.  The JIT tier has no
# CF support yet and must decline such programs statically rather than
# miscompile them.

from repro.isa.instructions import CF_OPCODES  # noqa: E402
from repro.isa.jit import jit_eligible as _jit_ok  # noqa: E402
from repro.isa.wide import wide_eligible  # noqa: E402

_CF_CREG_BASE = 13               # per-loop-depth trip counters


def _emit_cf_node(node, out, depth):
    """Append the instructions of one CF-tree node to ``out``."""
    tag = node[0]
    if tag == "leaf":
        _, kind, a, b, c = node
        out.extend(_build_step(kind, a, b, c))
        return
    if tag == "if":
        _, a, b, has_else, body, orelse = node
        # lane- and thread-varying condition from the data registers
        out.append(Instruction(Opcode.CMP, 8, None,
                               [_src(_DATA[a % 4], D), _src(_DATA[b % 4], D)],
                               cond_mod=_CONDS[a % len(_CONDS)],
                               flag=FlagOperand(0)))
        out.append(Instruction(Opcode.SIMD_IF, 8, None, [],
                               pred=Predicate(FlagOperand(0),
                                              invert=bool(b % 2))))
        for child in body:
            _emit_cf_node(child, out, depth)
        if has_else:
            out.append(Instruction(Opcode.SIMD_ELSE, 8, None, []))
            for child in orelse:
                _emit_cf_node(child, out, depth)
        out.append(Instruction(Opcode.SIMD_ENDIF, 8, None, []))
        return
    if tag == "loop":
        _, a, use_break, body = node
        creg = _CF_CREG_BASE + depth
        # trip counter: 1..3 per lane plus (tid & 1) — divergent both
        # across lanes and across threads, and strictly decreasing for
        # every lane still in the loop, so termination is structural.
        lanes = tuple(1 + (a + j) % 3 for j in range(8))
        out.append(Instruction(Opcode.AND, 8, _dst(creg, UD),
                               [_bcast(1, UD), Immediate(1, UD)]))
        out.append(Instruction(Opcode.ADD, 8, _dst(creg, D),
                               [_src(creg, D), VectorImmediate(lanes, D)]))
        out.append(Instruction(Opcode.SIMD_DO, 8, None, []))
        for child in body:
            _emit_cf_node(child, out, depth + 1)
        if use_break:
            out.append(Instruction(Opcode.CMP, 8, None,
                                   [_src(_DATA[a % 4], D),
                                    _src(_DATA[(a + 1) % 4], D)],
                                   cond_mod=CondMod.GT, flag=FlagOperand(1)))
            out.append(Instruction(Opcode.SIMD_BREAK, 8, None, [],
                                   pred=Predicate(FlagOperand(1))))
        out.append(Instruction(Opcode.ADD, 8, _dst(creg, D),
                               [_src(creg, D), Immediate(-1, D)]))
        out.append(Instruction(Opcode.CMP, 8, None,
                               [_src(creg, D), Immediate(0, D)],
                               cond_mod=CondMod.GT, flag=FlagOperand(1)))
        out.append(Instruction(Opcode.SIMD_WHILE, 8, None, [],
                               pred=Predicate(FlagOperand(1))))
        return
    raise AssertionError(tag)


# Body work inside divergent regions: no atomics — the race-free
# discipline (private scatter windows, read-only gathers) carries over,
# and colliding atomics already have their own ordered differential
# above.
_CF_LEAF = st.builds(
    lambda kind, a, b, c: ("leaf", kind, a, b, c),
    st.sampled_from(["alu", "shift", "cmp", "sel", "pred_mov",
                     "gather", "scatter"]),
    st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))


def _if_node(children):
    return st.builds(
        lambda a, b, has_else, body, orelse:
            ("if", a, b, has_else, body, orelse),
        st.integers(0, 10**6), st.integers(0, 10**6), st.booleans(),
        st.lists(children, min_size=1, max_size=3),
        st.lists(children, min_size=0, max_size=2))


def _loop_node(children):
    return st.builds(
        lambda a, use_break, body: ("loop", a, use_break, body),
        st.integers(0, 10**6), st.booleans(),
        st.lists(children, min_size=1, max_size=3))


_CF_CHILD = st.recursive(
    _CF_LEAF, lambda ch: st.one_of(_if_node(ch), _loop_node(ch)),
    max_leaves=8)
# every top-level node is a CF construct, so every generated program
# exercises divergence
_CF_TOP = st.one_of(_if_node(_CF_CHILD), _loop_node(_CF_CHILD))


def _build_cf_program(nodes):
    prog = list(_prologue())
    for node in nodes:
        _emit_cf_node(node, prog, 0)
    return prog


def _assert_cf_bit_identical(program, seed):
    assert any(i.opcode in CF_OPCODES for i in program)
    assert wide_eligible(program), "CF program must be wide-admitted"
    assert not _jit_ok(program), "JIT must decline CF programs"
    with np.errstate(all="ignore"):
        seq_grf, seq_flags, seq_surf, seq_checks = _run_sequential(
            program, seed)
        wide_grf, wide_flags, wide_surf, wide_checks = _run_wide(
            program, seed, sanitize=True)
    _assert_same_answers(seq_checks, wide_checks)
    for bti in seq_surf:
        assert np.array_equal(wide_surf[bti], seq_surf[bti]), \
            f"surface {bti} state diverged"
    assert np.array_equal(wide_grf, seq_grf), "GRF state diverged"
    indices = set(wide_flags)
    for t, per_thread in enumerate(seq_flags):
        indices |= set(per_thread)
        for idx in indices:
            seq_f = per_thread.get(idx, np.zeros(32, dtype=bool))
            wide_f = wide_flags[idx][t] if idx in wide_flags else \
                np.zeros(32, dtype=bool)
            assert np.array_equal(wide_f, seq_f), f"flag f{idx} diverged"


@settings(max_examples=120, deadline=None)
@given(st.lists(_CF_TOP, min_size=1, max_size=3),
       st.integers(0, 2**31 - 1))
def test_wide_divergent_cf_matches_sequential(nodes, seed):
    _assert_cf_bit_identical(_build_cf_program(nodes), seed)


@settings(max_examples=80, deadline=None)
@given(_loop_node(st.one_of(_CF_LEAF, _if_node(_CF_CHILD),
                            _loop_node(_CF_LEAF))),
       st.booleans(), st.integers(0, 2**31 - 1))
def test_wide_nested_loop_break_matches_sequential(loop, force_break, seed):
    # break-heavy variant: the outer loop always carries a
    # data-dependent BREAK, with nested IFs / inner loops in the body.
    tag, a, use_break, body = loop
    _assert_cf_bit_identical(
        _build_cf_program([(tag, a, use_break or force_break, body)]), seed)


@settings(max_examples=60, deadline=None)
@given(st.lists(_CF_TOP, min_size=1, max_size=2), st.integers(0, 10**6),
       st.integers(0, 3), st.integers(0, 2**31 - 1))
def test_wide_uninit_answers_match_sequential(nodes, at, pred, seed):
    # The divergent programs above with one read of a never-written
    # register (r20) spliced in at a drawn point, optionally predicated:
    # inside IF/ELSE arms and loop bodies only the active, flag-enabled
    # lanes read it, and later loop iterations find only the lanes not
    # already reported.
    prog = _build_cf_program(nodes)
    head = len(_prologue())
    prog.insert(head + at % (len(prog) - head + 1), Instruction(
        Opcode.ADD, 8, _dst(_DATA[0], D), [_src(20, D), _src(_DATA[1], D)],
        pred=None if pred < 2 else Predicate(FlagOperand(pred - 2))))
    with np.errstate(all="ignore"):
        *_, seq_checks = _run_sequential(prog, seed)
        *_, wide_checks = _run_wide(prog, seed, sanitize=True)
    _assert_same_answers(seq_checks, wide_checks)


# -- JIT megakernel vs wide vs sequential -------------------------------------
#
# The JIT tier (repro.isa.jit) compiles the whole program to one
# generated Python function; it claims the same architectural
# bit-identity as the wide interpreter.  The three-way differential
# holds all three back ends to one oracle over the same random corpus.

from repro.isa.jit import (  # noqa: E402
    JitKernel, JitTracingExecutor, jit_eligible,
)
from repro.sim.machine import GEN11_ICL  # noqa: E402


def _run_jit(program, seed):
    table = _make_surfaces(seed)
    ex = JitTracingExecutor(table, num_threads=len(_TIDS))
    ex.bind_jit(JitKernel(program))
    ex.begin_launch(GEN11_ICL)
    ex.seed_scalar(_TID_BASE, np.asarray(_TIDS, dtype=np.int32))
    ex.run(program)
    return ex.grf2d.copy(), ex.flags, _surface_bytes(table)


@settings(max_examples=30, deadline=None)
@given(st.lists(_WIDE_STEP, min_size=1, max_size=10),
       st.integers(0, 2**31 - 1))
def test_jit_matches_wide_and_sequential_bit_exact(steps, seed):
    program = _build_program(steps)
    # every construct the generator can emit must compile, not fall back
    assert jit_eligible(program)
    with np.errstate(all="ignore"):
        seq_grf, seq_flags, seq_surf, _ = _run_sequential(program, seed)
        wide_grf, _, wide_surf, _ = _run_wide(program, seed)
        jit_grf, jit_flags, jit_surf = _run_jit(program, seed)

    for bti in seq_surf:
        assert np.array_equal(jit_surf[bti], seq_surf[bti]), \
            f"surface {bti}: jit diverged from sequential"
        assert np.array_equal(jit_surf[bti], wide_surf[bti]), \
            f"surface {bti}: jit diverged from wide"
    assert np.array_equal(jit_grf, seq_grf), "GRF: jit vs sequential"
    assert np.array_equal(jit_grf, wide_grf), "GRF: jit vs wide"
    indices = set(jit_flags)
    for t, per_thread in enumerate(seq_flags):
        indices |= set(per_thread)
        for idx in indices:
            seq_f = per_thread.get(idx, np.zeros(32, dtype=bool))
            jit_f = jit_flags[idx][t] if idx in jit_flags else \
                np.zeros(32, dtype=bool)
            assert np.array_equal(jit_f, seq_f), f"flag f{idx} diverged"


@settings(max_examples=15, deadline=None)
@given(st.integers(0, len(_ATOMIC_OPS) - 1), st.booleans(), st.booleans(),
       st.integers(0, 2**31 - 1))
def test_jit_predicated_atomics_thread_order(op_idx, invert, with_dst,
                                             seed):
    prog = _collision_atomic_program(op_idx, invert, with_dst)
    seq_grf, _, seq_surf, _ = _run_sequential(prog, seed)
    jit_grf, _, jit_surf = _run_jit(prog, seed)
    for bti in seq_surf:
        assert np.array_equal(jit_surf[bti], seq_surf[bti])
    assert np.array_equal(jit_grf, seq_grf)


# -- seeded-bug corpus --------------------------------------------------------
#
# The detector certification in _run_sequential is only meaningful if
# the checkers actually fire on the bug classes they claim to catch:
# plant one of each (cross-thread race, out-of-bounds clip, read of an
# uninitialized register) and require a 100% catch rate.

import pytest  # noqa: E402

from repro.memory.surfaces import Image2DSurface  # noqa: E402
from repro.sanitize import OOBError, strict  # noqa: E402


def _verdict_for(program, seed=5):
    table = _make_surfaces(seed)
    detector = RaceDetector()
    detector.attach(table.values())
    ex = FunctionalExecutor(table)
    for tid in _TIDS:
        ex.reset()
        detector.begin_thread(tid)
        ex.grf.write_bytes(_TID_BASE, np.asarray([tid], dtype=np.int32))
        ex.run(program)
    return detector.finish()


def _write_write_race():
    # scatter through the *shared* offset register: threads with
    # overlapping _AREG windows write the same bytes of surface 1.
    prog = list(_prologue())
    msg = MessageDesc(MsgKind.SCATTER, surface=1, addr_reg=_AREG,
                      payload_reg=_PREG, payload_bytes=32, elem_dtype=D)
    prog.append(Instruction(Opcode.SEND, 8, None, [], msg=msg))
    return prog


def _read_write_race():
    # private-window scatters plus a shared-window gather of the *same*
    # surface: later threads read bytes earlier threads wrote.
    prog = list(_prologue())
    prog.append(Instruction(Opcode.SEND, 8, None, [], msg=MessageDesc(
        MsgKind.SCATTER, surface=1, addr_reg=_SREG,
        payload_reg=_PREG, payload_bytes=32, elem_dtype=D)))
    prog.append(Instruction(Opcode.SEND, 8, None, [], msg=MessageDesc(
        MsgKind.GATHER, surface=1, addr_reg=_AREG,
        payload_reg=_PREG, payload_bytes=32, elem_dtype=D)))
    return prog


def _uninit_read():
    prog = list(_prologue())
    prog.append(Instruction(Opcode.ADD, 8, _dst(_DATA[0], D),
                            [_src(20, D), _src(_DATA[1], D)]))
    return prog


def _oob_block_read():
    # 8x8 block at (12, 4) on a 16x8 image: only 4x4 is in bounds.
    msg = MessageDesc(MsgKind.MEDIA_BLOCK_READ, surface=0,
                      addr0=Immediate(12, UD), addr1=Immediate(4, UD),
                      payload_reg=_PREG, block_width=8, block_height=8)
    return [Instruction(Opcode.SEND, 8, None, [], msg=msg)]


class TestSeededBugs:
    def test_planted_write_write_race_is_caught(self):
        prog = _write_write_race()
        verdict = _verdict_for(prog)
        assert not verdict.race_free
        assert any(c.kind == "write-write" for c in verdict.conflicts)
        # and the certified path refuses such a program outright
        with pytest.raises(AssertionError, match="racy"):
            _run_sequential(prog, seed=5)

    def test_planted_read_write_race_is_caught(self):
        verdict = _verdict_for(_read_write_race())
        assert not verdict.race_free
        assert any(c.kind == "read-write" for c in verdict.conflicts)

    def test_planted_races_are_caught_on_the_wide_executor(self):
        for prog, kind in ((_write_write_race(), "write-write"),
                           (_read_write_race(), "read-write")):
            *_, (san, verdict) = _run_wide(prog, 5, sanitize=True)
            assert not verdict.race_free
            assert any(c.kind == kind for c in verdict.conflicts)
            assert verdict.threads == len(_TIDS)

    def test_race_free_program_is_certified(self):
        # the same shape with disciplined addressing passes cleanly.
        prog = list(_prologue())
        prog.append(Instruction(Opcode.SEND, 8, None, [], msg=MessageDesc(
            MsgKind.SCATTER, surface=1, addr_reg=_SREG,
            payload_reg=_PREG, payload_bytes=32, elem_dtype=D)))
        prog.append(Instruction(Opcode.SEND, 8, None, [], msg=MessageDesc(
            MsgKind.GATHER, surface=0, addr_reg=_AREG,
            payload_reg=_PREG, payload_bytes=32, elem_dtype=D)))
        assert _verdict_for(prog).race_free

    def test_planted_uninit_read_is_caught(self):
        prog = _uninit_read()
        table = _make_surfaces(3)
        ex = FunctionalExecutor(table)
        san = ExecSanitizer(uninit=UninitTracker())
        ex.san = san
        ex.reset()
        san.begin_thread(0)
        ex.grf.write_bytes(_TID_BASE, np.asarray([0], dtype=np.int32))
        san.mark_grf_valid(_TID_BASE, 4)
        ex.run(prog)
        assert san.uninit.total > 0
        assert any(f.reg == 20 for f in san.uninit.findings)

    def test_planted_uninit_read_is_caught_on_the_wide_executor(self):
        *_, (san, verdict) = _run_wide(_uninit_read(), 3, sanitize=True)
        assert verdict.race_free
        # every lane of every thread, reported once per thread
        assert san.uninit.total == 8 * len(_TIDS)
        assert {f.reg for f in san.uninit.findings} == {20}
        assert [f.thread for f in san.uninit.findings] == _TIDS

    def test_clean_program_has_no_uninit_findings(self):
        prog = _build_program([("alu", 1, 2, 3), ("gather", 0, 0, 0),
                               ("scatter", 0, 0, 0)])
        table = _make_surfaces(3)
        ex = FunctionalExecutor(table)
        san = ExecSanitizer(uninit=UninitTracker())
        ex.san = san
        ex.reset()
        san.begin_thread(0)
        ex.grf.write_bytes(_TID_BASE, np.asarray([0], dtype=np.int32))
        san.mark_grf_valid(_TID_BASE, 4)
        ex.run(prog)
        assert san.uninit.total == 0, san.uninit.findings

    def test_planted_oob_block_read_is_caught(self):
        img = Image2DSurface(np.zeros((8, 16), dtype=np.uint8))
        prog = _oob_block_read()
        ex = FunctionalExecutor({0: img})
        ex.reset()
        ex.run(prog)
        # 8x8 block at (12, 4) on a 16x8 image: only 4x4 is in bounds.
        assert img.oob_clipped_lanes == 48
        with strict():
            ex2 = FunctionalExecutor({0: img})
            ex2.reset()
            with pytest.raises(OOBError):
                ex2.run(prog)

    def test_planted_oob_block_read_is_caught_on_the_wide_executor(self):
        img = Image2DSurface(np.zeros((8, 16), dtype=np.uint8))
        ex = WideExecutor({0: img}, num_threads=3)
        ex.run(_oob_block_read())
        assert img.oob_clipped_lanes == 48 * 3
        with strict():
            with pytest.raises(OOBError):
                WideExecutor({0: img}, num_threads=3).run(_oob_block_read())

"""Kernel JIT: megakernel compilation of straight-line Gen programs.

The dispatch ladder so far is *sequential* (one Python interpreter step
per instruction per thread) and *wide* (one step per instruction for all
T threads at once, :mod:`repro.isa.wide`).  The wide path removes the
thread loop but still pays an interpreter round trip per instruction:
``execute()`` dispatch, plan lookup, fetcher iteration, predicate
plumbing.  For the small, hot programs the paper's Figure 5 kernels
compile to, that fixed per-instruction Python cost dominates.

This module removes it.  Given a compiled program, :class:`JitKernel`
*generates Python source* for one function — the **megakernel** — that
executes the whole program with zero interpreter dispatch:

- every region operand is pre-resolved to a baked slice (contiguous /
  scalar regions become zero-copy ``grf2d[:, a:b].view(dtype)`` views of
  the stacked ``(T, 4096)`` register file; strided regions become
  ``np.take`` with a baked index array);
- immediates are baked broadcast arrays; execution dtypes, conversion
  and saturation decisions are resolved at compile time;
- predication compiles to masked ``np.copyto`` writes against baked
  flag views;
- SEND instructions call pre-bound closures over the wide executor's
  vectorized message handlers.

The generated function's ``_send{k}`` closures execute each message
and then mark its cache lines and append the per-thread
:class:`~repro.isa.wide._WideEvent` records.  Timing does not run any
per-instruction accounting at execution time: a static **template
trace** is built once per (program, machine) by replaying the exact
accounting sequence of :class:`~repro.sim.batch.TracingExecutor`
(instruction costs, message issue positions, load-use consumption
distances are all thread-invariant for a straight-line program), and
:meth:`JitTracingExecutor.run` installs the precomputed totals and event
prototypes before calling the megakernel — so fanned-out per-thread
traces are bit-identical to both the wide and the sequential path.

Plan state is shared through the program-scoped
:class:`~repro.isa.plans.PlanTable` and the compiled function caches on
:class:`~repro.compiler.driver.CompiledKernel` (see :func:`get_jit`), so
JIT artifacts live exactly as long as their program does in the
:class:`~repro.compiler.cache.KernelCache`.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.isa.dtypes import DType, convert, promote, signed, unsigned
from repro.isa.executor import ExecutionError, FunctionalExecutor
from repro.isa.grf import GRF_SIZE_BYTES, RegOperand
from repro.isa.instructions import (
    CF_OPCODES, CondMod, Instruction, MathFn, MsgKind, Opcode,
)
from repro.isa.msg_geometry import (
    media_block_messages, oword_block_messages, scatter_messages,
)
from repro.isa.plans import PlanTable
from repro.isa.wide import (
    _WIDE_MSG_KINDS, _WideEvent, WideTracingExecutor, wide_eligible,
)
from repro.obs.tracing import trace_span
from repro.sim.batch import _alu_cost
from repro.sim.trace import MemKind, ThreadTrace

__all__ = [
    "JitError", "JitKernel", "JitTracingExecutor", "jit_eligible",
    "jit_decline_reason", "get_jit",
]


class JitError(ExecutionError):
    """Raised when a program cannot be compiled to a megakernel.

    Callers treat this as "not JIT-eligible" and fall back to the wide
    interpreter; it never indicates an invalid program (those raise the
    ordinary execution errors at compile time, exactly as the
    interpreters would at run time).
    """


#: Opcodes the code generator can inline.  SEND is handled through the
#: wide executor's vectorized message handlers and is constrained by
#: :data:`~repro.isa.wide._WIDE_MSG_KINDS` like the wide path.
_JIT_OPCODES = frozenset({
    Opcode.MOV, Opcode.SEL, Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.MAD,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.NOT, Opcode.SHL, Opcode.SHR,
    Opcode.ASR, Opcode.MIN, Opcode.MAX, Opcode.AVG, Opcode.CMP, Opcode.MATH,
    Opcode.SEND, Opcode.BARRIER, Opcode.NOP,
})


def jit_eligible(program: Iterable[Instruction]) -> bool:
    """Static pre-check: can this program compile to a megakernel?

    A ``True`` answer can still fail compilation on operand corner
    cases (:class:`JitError`); the device layer treats compile failure
    the same as ineligibility and falls back to the wide interpreter.
    """
    if not wide_eligible(program):
        return False
    return all(inst.opcode in _JIT_OPCODES for inst in program)


def jit_decline_reason(program: Iterable[Instruction]) -> str:
    """Why the JIT refused a program: ``"control-flow"`` when it has
    structured SIMD control flow (the code generator emits straight-line
    code only), else ``"codegen"`` (an operand or opcode corner case)."""
    if any(inst.opcode in CF_OPCODES for inst in program):
        return "control-flow"
    return "codegen"


# ---------------------------------------------------------------------------
# code generation
# ---------------------------------------------------------------------------


def _bind(env: dict, prefix: str, value) -> str:
    """Intern ``value`` into the codegen environment; returns its name.

    Identical objects share one name (dtype singletons, interned
    ``np.dtype`` instances), which keeps the generated source readable.
    """
    for k, v in env.items():
        if v is value and k.startswith(prefix):
            return k
    name = f"{prefix}{len(env)}"
    env[name] = value
    return name


def _is_packed(idx: np.ndarray) -> bool:
    """True when a (n, size) byte-index plan is one contiguous run."""
    flat = idx.reshape(-1)
    return bool((flat == flat[0] + np.arange(flat.size)).all())


def _src_expr(env: dict, pb: FunctionalExecutor, s, n: int):
    """(expression, operand np dtype, byte-index plan or None).

    Contiguous regions compile to zero-copy views of the stacked GRF;
    scalar regions to ``(T, 1)`` views that broadcast; anything else to
    ``np.take`` with a baked flat index.  Immediates (including packed
    vector immediates) bake to shared read-only ``(n,)`` arrays.
    """
    if isinstance(s, RegOperand):
        idx = pb._src_plan(s, n)  # validates bounds against the GRF
        sz = s.dtype.size
        offs = idx[:, 0]
        o0 = int(offs[0])
        dtn = _bind(env, "_dt", np.dtype(s.dtype.np_dtype))
        if bool((offs == o0).all()):
            expr = f"g[:, {o0}:{o0 + sz}].view({dtn})"
        elif bool((offs == o0 + np.arange(n) * sz).all()):
            expr = f"g[:, {o0}:{o0 + n * sz}].view({dtn})"
        else:
            ixn = _bind(env, "_ix", np.ascontiguousarray(idx.reshape(-1)))
            expr = f"np.take(g, {ixn}, axis=1).view({dtn})"
        return expr, np.dtype(s.dtype.np_dtype), idx
    arr = np.asarray(pb._fetch(s, n))  # read-only broadcast payload
    return _bind(env, "_c", arr), arr.dtype, None


def _mask_expr(inst: Instruction) -> Optional[str]:
    p = inst.pred
    if p is None:
        return None
    base = f"f{p.flag.index}[:, :{inst.exec_size}]"
    return f"(~{base})" if p.invert else base


def _math_expr(env: dict, inst: Instruction, exec_dt: DType,
               ops: list) -> str:
    fn = inst.math_fn
    if fn is MathFn.INV:
        return f"(1.0 / {ops[0]})"
    if fn is MathFn.SQRT:
        return f"np.sqrt({ops[0]})"
    if fn is MathFn.RSQRT:
        return f"(1.0 / np.sqrt({ops[0]}))"
    if fn is MathFn.LOG:
        return f"np.log2({ops[0]})"
    if fn is MathFn.EXP:
        return f"np.exp2({ops[0]})"
    if fn is MathFn.POW:
        return f"np.power({ops[0]}, {ops[1]})"
    if fn is MathFn.FDIV:
        return f"({ops[0]} / {ops[1]})"
    if fn is MathFn.IDIV:
        dtn = _bind(env, "_dt", np.dtype(exec_dt.np_dtype))
        return f"(({ops[0]} // {ops[1]}).astype({dtn}))"
    if fn is MathFn.SIN:
        return f"np.sin({ops[0]})"
    if fn is MathFn.COS:
        return f"np.cos({ops[0]})"
    raise JitError(f"unhandled math fn {fn}")


def _alu_expr(env: dict, inst: Instruction, exec_dt: DType,
              ops: list) -> str:
    """The expression computing one ALU instruction (mirrors
    :func:`repro.isa.executor._alu_compute` case by case)."""
    op = inst.opcode
    if op is Opcode.ADD:
        return f"({ops[0]} + {ops[1]})"
    if op is Opcode.SUB:
        return f"({ops[0]} - {ops[1]})"
    if op is Opcode.MUL:
        return f"({ops[0]} * {ops[1]})"
    if op is Opcode.MAD:
        return f"({ops[0]} + {ops[1]} * {ops[2]})"
    if op is Opcode.AND:
        return f"({ops[0]} & {ops[1]})"
    if op is Opcode.OR:
        return f"({ops[0]} | {ops[1]})"
    if op is Opcode.XOR:
        return f"({ops[0]} ^ {ops[1]})"
    if op is Opcode.NOT:
        return f"(~{ops[0]})"
    if op is Opcode.SHL:
        return f"({ops[0]} << {ops[1]})"
    if op in (Opcode.SHR, Opcode.ASR):
        if exec_dt.is_float:
            raise JitError(f"{op.value} on float operands")
        # shr: logical (view as unsigned); asr: arithmetic (view signed).
        want = unsigned(exec_dt) if op is Opcode.SHR else signed(exec_dt)
        if want is not exec_dt:
            vtn = _bind(env, "_dt", np.dtype(want.np_dtype))
            return f"(({ops[0]}).view({vtn}) >> ({ops[1]}).view({vtn}))"
        return f"({ops[0]} >> {ops[1]})"
    if op is Opcode.MIN:
        return f"np.minimum({ops[0]}, {ops[1]})"
    if op is Opcode.MAX:
        return f"np.maximum({ops[0]}, {ops[1]})"
    if op is Opcode.AVG:
        return f"(({ops[0]} + {ops[1]} + 1) >> 1)"
    if op is Opcode.MATH:
        return _math_expr(env, inst, exec_dt, ops)
    raise JitError(f"unhandled opcode {op}")


def _emit_write(lines: list, env: dict, inst: Instruction, i: int,
                mask: Optional[str], didx: np.ndarray) -> None:
    """Store ``r{i}`` to the instruction's destination region."""
    dst = inst.dst
    n = inst.exec_size
    sz = dst.dtype.size
    offs = didx[:, 0]
    o0 = int(offs[0])
    if bool((offs == o0 + np.arange(n) * sz).all()):
        dtn = _bind(env, "_dt", np.dtype(dst.dtype.np_dtype))
        dv = f"g[:, {o0}:{o0 + n * sz}].view({dtn})"
        if mask is None:
            lines.append(f"    {dv}[...] = r{i}")
        else:
            lines.append(f"    np.copyto({dv}, r{i}, where={mask})")
    else:  # strided destination: the wide RMW fancy-index path
        opn = _bind(env, "_wo", dst)
        ixn = _bind(env, "_wx", didx)
        lines.append(
            f"    ex._write_dst({opn}, r{i}, {mask or 'None'}, {ixn})")


def _emit_alu(lines: list, env: dict, pb: FunctionalExecutor,
              inst: Instruction, i: int) -> None:
    op = inst.opcode
    dst = inst.dst
    if dst is None:
        raise JitError(f"ALU instruction without destination: {inst.asm()}")
    n = inst.exec_size
    didx = pb._dst_plan(dst, n)
    npd = np.dtype(dst.dtype.np_dtype)
    mask = _mask_expr(inst)
    fetched = [_src_expr(env, pb, s, n) for s in inst.srcs]

    if op is Opcode.MOV:
        expr, sdt, sidx = fetched[0]
        stays_view = sidx is not None and sdt == npd and not inst.sat
        if stays_view and mask is None and _is_packed(sidx) \
                and _is_packed(didx):
            # whole-region move: one byte-range copy, no views at all
            so, do = int(sidx[0, 0]), int(didx[0, 0])
            nb = didx.size
            if so != do:
                lines.append(f"    g[:, {do}:{do + nb}] = "
                             f"g[:, {so}:{so + nb}]")
            return
        if stays_view and np.intersect1d(sidx.reshape(-1),
                                         didx.reshape(-1)).size:
            # the result would be a live view of bytes the write below
            # overwrites; materialize it first (the interpreters fetch
            # copies, so this is what keeps overlap semantics identical)
            expr = f"({expr}).copy()"
        lines.append(f"    r{i} = {expr}")
    elif op is Opcode.SEL:
        if mask is None:
            raise JitError("sel requires a predicate")
        lines.append(f"    r{i} = np.where({mask}, {fetched[0][0]}, "
                     f"{fetched[1][0]})")
        mask = None  # sel writes all lanes; the predicate picked the source
    else:
        exec_dt = inst.srcs[0].dtype
        for s in inst.srcs[1:]:
            exec_dt = promote(exec_dt, s.dtype)
        if not dst.dtype.is_float and exec_dt.is_float and \
                op in (Opcode.AND, Opcode.OR, Opcode.XOR):
            raise JitError("bitwise ops on float operands")
        ops = []
        for (expr, sdt, _sidx), s in zip(fetched, inst.srcs):
            if sdt != np.dtype(exec_dt.np_dtype):
                expr = f"_cv({expr}, {_bind(env, '_ET', exec_dt)})"
            ops.append(expr)
        lines.append(f"    r{i} = {_alu_expr(env, inst, exec_dt, ops)}")

    dtc = _bind(env, "_ET", dst.dtype)
    if inst.sat:
        lines.append(f"    r{i} = _cv(r{i}, {dtc}, True)")
    else:
        dtn = _bind(env, "_dt", npd)
        lines.append(f"    if r{i}.dtype != {dtn}:")
        lines.append(f"        r{i} = _cv(r{i}, {dtc})")
    _emit_write(lines, env, inst, i, mask, didx)


_CMP_FNS = {
    CondMod.EQ: "np.equal", CondMod.NE: "np.not_equal",
    CondMod.LT: "np.less", CondMod.LE: "np.less_equal",
    CondMod.GT: "np.greater", CondMod.GE: "np.greater_equal",
}


def _emit_cmp(lines: list, env: dict, pb: FunctionalExecutor,
              inst: Instruction, i: int) -> None:
    n = inst.exec_size
    fn = _CMP_FNS.get(inst.cond_mod)
    if fn is None:
        raise JitError(f"cmp without conditional modifier: {inst.asm()}")
    exec_dt = promote(inst.srcs[0].dtype, inst.srcs[1].dtype)
    ops = []
    for s in inst.srcs:
        expr, sdt, _sidx = _src_expr(env, pb, s, n)
        if sdt != np.dtype(exec_dt.np_dtype):
            expr = f"_cv({expr}, {_bind(env, '_ET', exec_dt)})"
        ops.append(expr)
    fi = inst.flag.index if inst.flag else 0
    lines.append(f"    r{i} = np.broadcast_to({fn}({ops[0]}, {ops[1]}), "
                 f"(_T, {n}))")
    lines.append(f"    f{fi}[:, :{n}] = r{i}")
    if inst.dst is not None:
        didx = pb._dst_plan(inst.dst, n)
        dtn = _bind(env, "_dt", np.dtype(inst.dst.dtype.np_dtype))
        lines.append(f"    r{i} = r{i}.astype({dtn})")
        _emit_write(lines, env, inst, i, None, didx)


def _codegen(program, pb: FunctionalExecutor, env: dict):
    """Generate megakernel source; returns (source, send count)."""
    lines = ["def _mega(ex):",
             "    g = ex.grf2d",
             "    _T = g.shape[0]"]
    flag_idxs = set()
    for inst in program:
        if inst.pred is not None:
            flag_idxs.add(inst.pred.flag.index)
        if inst.opcode is Opcode.CMP:
            flag_idxs.add(inst.flag.index if inst.flag else 0)
    for fi in sorted(flag_idxs):
        lines.append(f"    f{fi} = ex._flag_lanes({fi})")
    n_sends = 0
    for i, inst in enumerate(program):
        op = inst.opcode
        if op not in _JIT_OPCODES:
            raise JitError(f"unhandled opcode {op}")
        lines.append(f"    # [{i:>3}] {inst.asm()}")
        if op is Opcode.NOP or op is Opcode.BARRIER:
            continue
        if op is Opcode.SEND:
            msg = inst.msg
            if msg is None or msg.kind not in _WIDE_MSG_KINDS:
                raise JitError(f"send not vectorizable: {inst.asm()}")
            lines.append(f"    _send{n_sends}(ex)")
            n_sends += 1
            continue
        if op is Opcode.CMP:
            _emit_cmp(lines, env, pb, inst, i)
        else:
            _emit_alu(lines, env, pb, inst, i)
    return "\n".join(lines) + "\n", n_sends


# ---------------------------------------------------------------------------
# SEND closures
# ---------------------------------------------------------------------------


def _traced_send(inst: Instruction, k: int):
    def _send(ex, _inst=inst, _k=k):
        ex._execute_send(_inst)
        _account_send_jit(ex, _inst, _k)
    return _send


def _account_send_jit(ex, inst: Instruction, k: int) -> None:
    """Runtime half of traced SEND accounting.

    The issue-timeline half (instruction counts, issue positions,
    consumption distances) is precomputed in the template trace; only
    the data-dependent half runs here: cache-line marking and the
    per-thread :class:`_WideEvent` record that
    :meth:`~repro.isa.wide.WideTracingExecutor.drain_traces` fans out.
    Mirrors :meth:`WideTracingExecutor._account_send` minus the
    ``trace.memory`` / ``_register_load`` / ``_extra_messages`` calls.
    """
    msg = inst.msg
    surf = ex._surface(msg.surface)
    kind = msg.kind
    ev = ex._launch_events[k]
    if kind in (MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE):
        x = ex._scalar_vec(msg.addr0)
        y = ex._scalar_vec(msg.addr1)
        lines, new = surf.mark_lines_block2d_many(
            x, y, msg.block_width, msg.block_height, surf.pitch)
        ex._wide_events.append(_WideEvent(ev, lines, new, False))
    elif kind in (MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE):
        offset = ex._scalar_vec(msg.addr0)
        lines, new = surf.mark_lines_range_many(offset, msg.payload_bytes)
        ex._wide_events.append(_WideEvent(ev, lines, new, False))
    else:  # GATHER / SCATTER / ATOMIC
        byte_offs = ex._scattered_offsets(inst)
        mask = ex._pred_mask(inst)
        lines, new = surf.mark_lines_offsets_many(
            byte_offs, msg.elem_dtype.size, mask=mask)
        if kind is MsgKind.ATOMIC:
            ex._wide_events.append(_WideEvent(
                ev, lines, new, True, words=byte_offs // 4, wmask=mask,
                surface_id=id(surf)))
        else:
            ex._wide_events.append(_WideEvent(ev, lines, new, True))


# ---------------------------------------------------------------------------
# static template trace
# ---------------------------------------------------------------------------


class JitTemplate:
    """Thread-invariant timing for one (program, machine) pair."""

    __slots__ = ("inst_count", "issue_cycles", "barriers", "events", "btis")

    def __init__(self, inst_count, issue_cycles, barriers, events, btis):
        self.inst_count = inst_count
        self.issue_cycles = issue_cycles
        self.barriers = barriers
        #: MemEvent prototypes (surface=None) in send order, with final
        #: issue_at/consumed_at; never mutated — launches stamp surface
        #: labels onto ``dataclasses.replace`` copies.
        self.events = events
        #: binding-table index per event, for the per-launch label.
        self.btis = btis


def _register_load(pending: dict, first_reg: int, nbytes: int, ev) -> None:
    for reg in range(first_reg, first_reg + -(-nbytes // GRF_SIZE_BYTES)):
        pending[reg] = ev


def _merged_regs(pb: FunctionalExecutor, inst: Instruction) -> tuple:
    merged: list = []
    for s in inst.srcs:
        if isinstance(s, RegOperand):
            idx = pb._src_plan(s, inst.exec_size)
            merged.extend(np.unique(idx // GRF_SIZE_BYTES).tolist())
    return tuple(dict.fromkeys(merged))


def _build_template(program, machine, pb: FunctionalExecutor,
                    table: PlanTable) -> JitTemplate:
    """Statically replay :class:`~repro.sim.batch.TracingExecutor`'s
    accounting for one thread (which is every thread: straight-line
    programs have thread-invariant issue timelines)."""
    trace = ThreadTrace(machine)
    pending: dict = {}
    btis: list = []

    def extra(count: int) -> None:
        if count > 1:
            trace.scalar_op(2 * (count - 1))

    for i, inst in enumerate(program):
        op = inst.opcode
        if op is Opcode.BARRIER:
            trace.barrier()
            continue
        if op is Opcode.NOP:
            continue
        if op is Opcode.SEND:
            msg = inst.msg
            kind = msg.kind
            btis.append(msg.surface)
            if kind in (MsgKind.MEDIA_BLOCK_READ, MsgKind.MEDIA_BLOCK_WRITE):
                w, h = msg.block_width, msg.block_height
                nbytes = w * h
                messages = media_block_messages(w, h)
                extra(messages)
                is_read = kind is MsgKind.MEDIA_BLOCK_READ
                ev = trace.memory(
                    MemKind.BLOCK2D_READ if is_read else MemKind.BLOCK2D_WRITE,
                    nbytes=nbytes, lines=0, dram_lines=0, l3_bytes=nbytes,
                    msgs=messages, is_read=is_read)
                if is_read:
                    _register_load(pending, msg.payload_reg, nbytes, ev)
            elif kind in (MsgKind.OWORD_BLOCK_READ, MsgKind.OWORD_BLOCK_WRITE):
                nbytes = msg.payload_bytes
                messages = oword_block_messages(nbytes)
                extra(messages)
                is_read = kind is MsgKind.OWORD_BLOCK_READ
                ev = trace.memory(
                    MemKind.OWORD_READ if is_read else MemKind.OWORD_WRITE,
                    nbytes=nbytes, lines=0, dram_lines=0, l3_bytes=nbytes,
                    msgs=messages, is_read=is_read)
                if is_read:
                    _register_load(pending, msg.payload_reg, nbytes, ev)
            else:  # GATHER / SCATTER / ATOMIC
                n = inst.exec_size
                messages = scatter_messages(n)
                nbytes = n * msg.elem_dtype.size
                if kind is MsgKind.GATHER:
                    extra(messages)
                    ev = trace.memory(MemKind.GATHER, nbytes=nbytes, lines=0,
                                      dram_lines=0, l3_bytes=0, msgs=messages)
                    _register_load(pending, msg.payload_reg, nbytes, ev)
                elif kind is MsgKind.SCATTER:
                    extra(messages)
                    trace.memory(MemKind.SCATTER, nbytes=nbytes, lines=0,
                                 dram_lines=0, l3_bytes=0, msgs=messages,
                                 is_read=False)
                else:  # ATOMIC
                    ev = trace.memory(MemKind.ATOMIC, nbytes=nbytes, lines=0,
                                      dram_lines=0, l3_bytes=0, msgs=messages)
                    if inst.dst is not None:
                        _register_load(
                            pending, inst.dst.byte_offset // GRF_SIZE_BYTES,
                            nbytes, ev)
            continue
        # ALU / CMP: consume pending loads, then charge issue cost.
        if pending:
            regs = table.src_regs[i]
            if regs is None:
                regs = table.src_regs[i] = _merged_regs(pb, inst)
            for reg in regs:
                ev = pending.get(reg)
                if ev is not None:
                    trace.consume(ev)
                    for r in [r for r, e in pending.items() if e is ev]:
                        del pending[r]
        cost = _alu_cost(inst, machine)
        slots = table.cost_slots(machine)
        if slots[i] is None:
            slots[i] = cost
        trace.inst_count += cost[0]
        trace.issue_cycles += cost[1]
    return JitTemplate(trace.inst_count, trace.issue_cycles, trace.barriers,
                       tuple(trace.events), tuple(btis))


# ---------------------------------------------------------------------------
# compiled kernel object + executors
# ---------------------------------------------------------------------------


class JitKernel:
    """A compiled megakernel for one program binding.

    Holds the generated source (``.source``, for inspection/tests), the
    compiled function ``fn``, the shared :class:`PlanTable`, and a
    per-machine cache of template traces.
    Like a plan table, a :class:`JitKernel` is valid for exactly the
    program *object* it was compiled from.
    """

    def __init__(self, program, plans: Optional[PlanTable] = None) -> None:
        self.program = program
        if plans is not None and plans.matches(program):
            self.plans = plans
        else:
            self.plans = PlanTable(program)
        # Plan-building executor: bounds checks and region resolution
        # only; kept for template building (shares its region plans).
        self._pb = FunctionalExecutor()
        env = {"np": np, "_cv": convert}
        self.source, self.n_sends = _codegen(program, self._pb, env)
        sends = [inst for inst in program if inst.opcode is Opcode.SEND]
        for k, inst in enumerate(sends):
            env[f"_send{k}"] = _traced_send(inst, k)
        exec(compile(self.source, "<jit-megakernel>", "exec"), env)
        self.fn = env["_mega"]
        self._templates: dict = {}

    def matches(self, program) -> bool:
        return program is self.program

    def template(self, machine) -> JitTemplate:
        tmpl = self._templates.get(machine)
        if tmpl is None:
            tmpl = self._templates[machine] = _build_template(
                self.program, machine, self._pb, self.plans)
        return tmpl


class JitTracingExecutor(WideTracingExecutor):
    """A :class:`WideTracingExecutor` that runs a bound megakernel.

    Before calling the traced megakernel, ``run()`` installs the
    (program, machine) template: the launch trace's issue totals and the
    per-launch event prototypes (template events stamped with this
    launch's surface labels).  The megakernel's ``_send{k}`` closures
    append the per-thread line counts, and the inherited
    :meth:`~repro.isa.wide.WideTracingExecutor.drain_traces` fan-out
    produces traces bit-identical to the wide interpreter's.

    ``run()`` dispatches to the megakernel only when the program is the
    one the bound :class:`JitKernel` was compiled from, and runs the
    wide interpreter otherwise — binding can never change results, only
    speed.  With no megakernel bound this *is* the wide interpreter.
    """

    def __init__(self, surfaces: Mapping[int, object] | None = None,
                 num_regs: int = 128, num_threads: int = 0) -> None:
        super().__init__(surfaces, num_regs, num_threads)
        self._jit: Optional[JitKernel] = None
        self._launch_events: list = []

    def bind_jit(self, jitk: Optional[JitKernel]) -> None:
        self._jit = jitk

    def release(self) -> None:
        super().release()
        self._jit = None
        self._launch_events = []

    def run(self, program) -> None:
        jitk = self._jit
        if jitk is None or not jitk.matches(program):
            super().run(program)
            return
        if self.san is not None:
            raise ExecutionError(
                "sanitizer hooks cannot run on the JIT executor; "
                "use sequential dispatch for sanitized launches")
        trace = self.trace
        if trace is None:
            raise ExecutionError(
                "begin_launch must be called before a traced JIT run")
        self.plans = jitk.plans
        tmpl = jitk.template(trace.machine)
        trace.inst_count = tmpl.inst_count
        trace.issue_cycles = tmpl.issue_cycles
        trace.barriers = tmpl.barriers
        surfs = self.surfaces
        self._launch_events = [
            dataclasses.replace(
                ev, surface=(getattr(surfs.get(bti), "obs_label", None)
                             or f"bti{bti}"))
            for ev, bti in zip(tmpl.events, tmpl.btis)]
        jitk.fn(self)
        self.instructions_executed += len(program)

    def fold_chunk(self, acc, grf_bytes: int = 0) -> None:
        """Fold this chunk's timing straight into a
        :class:`~repro.sim.timing.TimingAccumulator`.

        Bit-identical to ``acc.extend(self.drain_traces())`` (with
        ``note_grf(grf_bytes)`` applied to each fanned-out trace) but
        without materializing T :class:`ThreadTrace` objects — on short
        programs the per-thread fan-out dominates the whole launch.
        Integer totals vectorize exactly; the float running sums (issue
        cycles, thread completion time) repeat the same per-thread
        addition sequence the scalar fold performs, so ``finalize()``
        produces the same :class:`KernelTiming` to the last bit.  The
        per-thread stall is thread-invariant under the JIT: every event's
        issue/consume positions come from the template, so
        ``exec_cycles()`` is one number for the whole chunk.
        """
        from repro.sim.timing import LINE_BYTES, SCATTER_CLASS

        tmpl = self.trace
        count = self.num_threads
        events = self._wide_events
        m = tmpl.machine
        issue = tmpl.issue_cycles
        stall = 0.0
        for we in events:
            e = we.ev
            if e.is_read and e.consumed_at is not None:
                covered = e.consumed_at - e.issue_at
                stall += max(0.0, e.latency(m) - covered)
        thread_time = issue + stall + tmpl.barriers * m.barrier_cycles

        acc.num_threads += count
        for _ in range(count):
            acc._total_issue += issue
            acc._total_thread_time += thread_time
        if count and thread_time > acc._max_thread_time:
            acc._max_thread_time = thread_time
        acc.total_instructions += tmpl.inst_count * count
        acc.barriers += tmpl.barriers * count
        acc.messages += len(events) * count
        if count and grf_bytes > acc.max_grf_bytes:
            acc.max_grf_bytes = grf_bytes

        for we in events:
            e = we.ev
            lines_sum = int(np.sum(we.lines, dtype=np.int64))
            dram_sum = int(np.sum(we.dram, dtype=np.int64))
            acc._dram_lines += dram_sum
            acc._l3_bytes += lines_sum * 64 if we.l3_from_lines \
                else e.l3_bytes * count
            acc.dram_bytes += dram_sum * LINE_BYTES
            if e.is_read:
                acc.global_read_bytes += e.nbytes * count
            else:
                acc.global_write_bytes += e.nbytes * count
            if e.kind is MemKind.SAMPLER:
                acc._texels += e.texels * count
            elif e.kind in SCATTER_CLASS:
                acc._dataport_bytes += e.nbytes * count
                acc._scatter_msgs += e.msgs * count
            else:
                acc._dataport_bytes += e.nbytes * count
                acc._block_msgs += e.msgs * count
            if we.words is not None:
                words = we.words.reshape(-1) if we.wmask is None \
                    else we.words[we.wmask]
                uniq, counts = np.unique(words, return_counts=True)
                sid = we.surface_id
                addrs = acc._atomic_addrs
                for w, c in zip(uniq.tolist(), counts.tolist()):
                    addrs[(sid, int(w))] += int(c)
        self._wide_events = []


# ---------------------------------------------------------------------------
# kernel-cache attachment
# ---------------------------------------------------------------------------

#: Sentinel stored on ``CompiledKernel._jit`` after a failed compile, so
#: ineligible kernels pay the compile attempt exactly once.
_INELIGIBLE = object()


def get_jit(kernel):
    """(megakernel or None, was_cached) for a CompiledKernel.

    The compiled :class:`JitKernel` is cached on the kernel object
    itself — right next to the program in the
    :class:`~repro.compiler.cache.KernelCache` — and released with it
    (:meth:`CompiledKernel.release_derived`).  Compile failures cache an
    ineligibility sentinel, so callers fall back to wide dispatch at
    zero recurring cost.
    """
    cur = kernel._jit
    if cur is not None:
        return (None if cur is _INELIGIBLE else cur), True
    with trace_span("jit:compile",
                    kernel=getattr(kernel, "name", "?")) as span:
        try:
            jitk = JitKernel(kernel.program, plans=kernel.plan_table())
        except JitError as exc:
            kernel._jit = _INELIGIBLE
            span.set(eligible=False, reason=str(exc))
            return None, False
        span.set(eligible=True, instructions=len(kernel.program))
    kernel._jit = jitk
    return jitk, False

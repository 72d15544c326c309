"""Search driver: score candidate variants through the simulator.

One evaluation = build the variant for a point, run one launch on a
fresh :class:`Device` of the target machine, gate the output bit-exactly
against the family's reference oracle, and take the device's simulated
kernel time as the objective.  Points can fail three ways — declared
constraint (never evaluated), ``CompileError``/``ValueError`` from the
variant itself (the register allocator pricing GRF overflow), or a
wrong result — and all three leave the point inadmissible.

Compiles dominate evaluation wall time, and a compiled program is
machine-independent (machine specifics enter at trace/JIT time, cached
per-machine inside the kernel object), so every evaluation device in
the process shares one module-level :class:`KernelCache`: tuning the
same family on four machines compiles each variant once, not four
times.

Two strategies:

- ``"grid"`` — exhaustive over :meth:`TuneSpace.points`, in declared
  grid order.
- ``"hill"`` — greedy hill climb from the hand-tuned default point over
  :meth:`TuneSpace.neighbors`, stopping at a local optimum.

Both are deterministic: the simulator is analytic (same trace, same
microseconds), enumeration order is fixed, and ties break on
``(sim_us, label)`` — so the same (family, machine, problem) always
yields the same winner, which is what makes the persisted registry
(:mod:`repro.tune.registry`) meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.compiler.cache import KernelCache
from repro.compiler.visa import CompileError
from repro.obs import get_observability
from repro.obs.tracing import trace_span
from repro.sim.device import Device
from repro.sim.machine import MachineConfig
from repro.tune.space import canonical_point, point_label
from repro.tune.workloads import (Inputs, Point, Problem, TunableWorkload,
                                  get_tunable)

STRATEGIES = ("grid", "hill")

#: Shared across all evaluation devices (compiled programs are
#: machine-independent; per-machine JIT state caches inside the kernel).
_EVAL_CACHE = KernelCache()


@dataclass
class Evaluation:
    """Outcome of scoring one point."""

    point: Point
    label: str
    #: "ok" | "compile_error" | "wrong_result" | "run_error"
    status: str
    sim_us: Optional[float] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class TuneResult:
    """The winner of one (family, problem, machine) search."""

    family: str
    problem: Problem
    machine_name: str
    strategy: str
    best_point: Point
    best_label: str
    best_sim_us: float
    #: the hand-tuned default point and its time (the ablation baseline).
    baseline_point: Point
    baseline_sim_us: Optional[float]
    evaluations: List[Evaluation] = field(default_factory=list)

    @property
    def speedup(self) -> Optional[float]:
        """Hand-tuned / autotuned simulated time (>= 1.0 is a win)."""
        if self.baseline_sim_us is None or self.best_sim_us <= 0:
            return None
        return self.baseline_sim_us / self.best_sim_us

    @property
    def n_evaluated(self) -> int:
        return len(self.evaluations)

    @property
    def n_admissible(self) -> int:
        return sum(1 for e in self.evaluations if e.ok)


class _Evaluator:
    """Memoizing point scorer for one (workload, problem, machine)."""

    def __init__(self, workload: TunableWorkload, problem: Problem,
                 machine: MachineConfig, inputs: Inputs,
                 reference: np.ndarray, budget: Optional[int],
                 obs) -> None:
        self.workload = workload
        self.problem = problem
        self.machine = machine
        self.inputs = inputs
        self.reference = reference
        self.budget = budget
        self.evaluations: List[Evaluation] = []
        self._seen: Dict[tuple, Evaluation] = {}
        self._m_evals = obs.registry.counter(
            "tune_evaluations", "autotuner points scored",
            family=workload.family, machine=machine.name) \
            if obs.enabled else None

    @property
    def exhausted(self) -> bool:
        return self.budget is not None \
            and len(self.evaluations) >= self.budget

    def evaluate(self, point: Point) -> Evaluation:
        key = canonical_point(point)
        hit = self._seen.get(key)
        if hit is not None:
            return hit
        ev = self._evaluate(point)
        self._seen[key] = ev
        self.evaluations.append(ev)
        if self._m_evals is not None:
            self._m_evals.inc()
        return ev

    def _evaluate(self, point: Point) -> Evaluation:
        label = point_label(point)
        with trace_span("tune:eval", family=self.workload.family,
                        machine=self.machine.name, point=label):
            device = Device(self.machine)
            device.kernel_cache = _EVAL_CACHE
            try:
                variant = self.workload.variant(self.problem, point)
                out = variant.run(device, self.inputs)
            except CompileError as exc:
                return Evaluation(dict(point), label, "compile_error",
                                  error=str(exc))
            except (ValueError, AssertionError) as exc:
                return Evaluation(dict(point), label, "run_error",
                                  error=f"{type(exc).__name__}: {exc}")
            if not np.array_equal(out, self.reference):
                return Evaluation(dict(point), label, "wrong_result",
                                  error="output does not match reference")
            return Evaluation(dict(point), label, "ok",
                              sim_us=device.kernel_time_us)


def tune(family: Union[str, TunableWorkload], machine: MachineConfig,
         problem: Optional[Problem] = None, strategy: str = "grid",
         budget: Optional[int] = None, seed: int = 0,
         obs=None) -> TuneResult:
    """Search one family's space on one machine; return the winner.

    ``budget`` caps the number of *evaluated* points (declared-invalid
    points cost nothing and don't count).  The hand-tuned default point
    is always evaluated first so every result carries its ablation
    baseline, budget notwithstanding.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, "
                         f"got {strategy!r}")
    if budget is not None and budget < 1:
        raise ValueError("budget must be >= 1")
    workload = get_tunable(family) if isinstance(family, str) else family
    problem = dict(problem if problem is not None
                   else workload.default_problem)
    obs = obs if obs is not None else get_observability()
    space = workload.space_for(problem)
    inputs = workload.make_inputs(problem, seed=seed)
    reference = workload.reference(problem, inputs)
    ev = _Evaluator(workload, problem, machine, inputs, reference,
                    budget, obs)

    with trace_span("tune:search", family=workload.family,
                    machine=machine.name, strategy=strategy):
        default = space.default_point()
        baseline = ev.evaluate(default)
        if strategy == "grid":
            for point in space.points():
                if ev.exhausted:
                    break
                ev.evaluate(point)
        else:
            current = baseline
            # A default that doesn't even compile still seeds the climb:
            # inadmissible scores as +inf, so any admissible neighbor
            # is an improvement.
            while not ev.exhausted:
                best_step = None
                for cand in space.neighbors(current.point):
                    if ev.exhausted:
                        break
                    res = ev.evaluate(cand)
                    if not res.ok:
                        continue
                    if best_step is None or _order(res) < _order(best_step):
                        best_step = res
                if best_step is None or not _improves(best_step, current):
                    break
                current = best_step

    admissible = [e for e in ev.evaluations if e.ok]
    if not admissible:
        raise RuntimeError(
            f"no admissible point found for {workload.family!r} on "
            f"{machine.name!r} (evaluated {len(ev.evaluations)})")
    winner = min(admissible, key=_order)
    result = TuneResult(
        family=workload.family, problem=problem,
        machine_name=machine.name, strategy=strategy,
        best_point=dict(winner.point), best_label=winner.label,
        best_sim_us=winner.sim_us,
        baseline_point=dict(default),
        baseline_sim_us=baseline.sim_us if baseline.ok else None,
        evaluations=ev.evaluations)
    if obs.enabled:
        obs.registry.gauge(
            "tune_best_sim_us", "simulated time of the tuned winner",
            family=workload.family,
            machine=machine.name).set(winner.sim_us)
    return result


def _order(ev: Evaluation) -> tuple:
    """Deterministic objective order: time, then label as tie-break."""
    return (ev.sim_us, ev.label)


def _improves(cand: Evaluation, current: Evaluation) -> bool:
    if not current.ok:
        return True
    return cand.sim_us < current.sim_us

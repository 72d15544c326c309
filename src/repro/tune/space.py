"""Parameterized-kernel API: knobs, spaces, and points.

A workload that wants tuning declares a :class:`TuneSpace` — an ordered
set of :class:`Knob`\\ s (tile sizes, SIMD widths, K-band depths, SLM
vs. direct load) plus a validity constraint — and exposes a
``variant(problem, point)`` factory that builds a runnable kernel for
one concrete point (see :mod:`repro.tune.workloads`).

Everything here is deterministic: :meth:`TuneSpace.points` enumerates
the grid in knob-declaration order, :meth:`TuneSpace.neighbors` yields
one-knob steps in a fixed order, and :func:`param_digest` hashes a
canonicalized dict — so the same space on the same machine always
produces the same search trajectory and the same winner.

Not every syntactically-valid point is *admissible*: a variant may also
fail to compile (the register allocator running out of GRF raises
``CompileError``) or produce wrong output — the search driver
(:mod:`repro.tune.search`) treats both exactly like a constraint
violation, so the effective search space is "declared grid minus
whatever the compiler and the correctness gate reject".
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class Knob:
    """One tunable axis: a name and its ordered choice list."""

    name: str
    choices: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if not self.choices:
            raise ValueError(f"knob {self.name!r} needs at least one choice")
        object.__setattr__(self, "choices", tuple(self.choices))


def canonical_point(point: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Order-independent identity of a point (or a problem dict)."""
    return tuple(sorted(point.items()))


def param_digest(params: Dict[str, Any]) -> str:
    """Stable 12-hex digest of a params/problem dict (registry keying)."""
    blob = repr(canonical_point(params)).encode()
    return hashlib.sha1(blob).hexdigest()[:12]


def point_label(point: Dict[str, Any]) -> str:
    """Human-readable variant label: ``bm=8,bn=16,ktile=8``."""
    return ",".join(f"{k}={v}" for k, v in sorted(point.items()))


@dataclass
class TuneSpace:
    """The declared optimization space of one kernel family."""

    knobs: List[Knob]
    #: point -> bool; False marks the point invalid before any compile.
    constraint: Optional[Callable[[Dict[str, Any]], bool]] = None
    #: the hand-tuned baseline point (clipped to the grid if needed).
    default: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [k.name for k in self.knobs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate knob names in {names}")

    @property
    def knob_names(self) -> List[str]:
        return [k.name for k in self.knobs]

    def is_valid(self, point: Dict[str, Any]) -> bool:
        """Point on the grid and passing the declared constraint?"""
        for knob in self.knobs:
            if point.get(knob.name) not in knob.choices:
                return False
        if self.constraint is not None and not self.constraint(dict(point)):
            return False
        return True

    def size(self) -> int:
        """Grid size before constraint filtering."""
        n = 1
        for knob in self.knobs:
            n *= len(knob.choices)
        return n

    def points(self) -> Iterator[Dict[str, Any]]:
        """All valid points, in deterministic lexicographic grid order."""
        def rec(i: int, acc: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
            if i == len(self.knobs):
                if self.constraint is None or self.constraint(dict(acc)):
                    yield dict(acc)
                return
            knob = self.knobs[i]
            for choice in knob.choices:
                acc[knob.name] = choice
                yield from rec(i + 1, acc)
            del acc[knob.name]
        yield from rec(0, {})

    def default_point(self) -> Dict[str, Any]:
        """The hand-tuned baseline: the declared default (each knob value
        clipped to its nearest declared choice), constraint permitting —
        otherwise the first valid grid point."""
        point: Dict[str, Any] = {}
        for knob in self.knobs:
            want = self.default.get(knob.name, knob.choices[0])
            if want in knob.choices:
                point[knob.name] = want
            else:
                point[knob.name] = min(
                    knob.choices,
                    key=lambda c: (abs(self._rank(c) - self._rank(want)),
                                   str(c)))
            # non-numeric fallbacks land on the first choice via _rank
        if self.is_valid(point):
            return point
        first = next(self.points(), None)
        if first is None:
            raise ValueError("TuneSpace has no valid points")
        return first

    @staticmethod
    def _rank(value: Any) -> float:
        try:
            return float(value)
        except (TypeError, ValueError):
            return 0.0

    def neighbors(self, point: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
        """Valid one-knob steps (choice index +/- 1), in knob order."""
        for knob in self.knobs:
            try:
                idx = knob.choices.index(point[knob.name])
            except (KeyError, ValueError):
                continue
            for step in (-1, 1):
                j = idx + step
                if 0 <= j < len(knob.choices):
                    cand = dict(point)
                    cand[knob.name] = knob.choices[j]
                    if self.is_valid(cand):
                        yield cand

"""repro.sanitize — kernel sanitizer subsystem.

Three checkers over the simulated GPU stack, running under sequential
dispatch and on the grid-vectorized wide interpreter alike:

- :class:`~repro.sanitize.race.RaceDetector` — cross-thread data races
  on surfaces/SLM with barrier-based happens-before; its
  :class:`~repro.sanitize.race.RaceVerdict` gates
  ``Device.run_compiled(tier=None)``'s vector-tier auto-selection.
- OOB/clip sanitizer (:mod:`repro.sanitize.oob`) — counts
  silently-clamped out-of-bounds lanes per surface; strict mode raises
  :class:`~repro.memory.surfaces.OOBError`.
- :class:`~repro.sanitize.uninit.UninitTracker` — uninitialized-GRF
  reads via a shadow validity bitmap, honouring execution masks.

A compiled kernel's sanitized launch runs these checkers on the wide
interpreter first and reruns sanitized-sequential — the oracle that
produces every reported finding — only when they find something (see
``Device.run_compiled``).

``python -m repro.sanitize`` runs any registered workload under all
checkers and emits a :class:`~repro.sanitize.report.SanitizerReport`
(JSON-able; the CI sanitizer job uploads it as an artifact).

The dispatch-gating default comes from :func:`default_validate`
(overridable with the ``REPRO_SANITIZE`` environment variable:
``first`` | ``always`` | ``off``).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Optional

from repro.sanitize.hooks import ExecSanitizer
from repro.sanitize.oob import (  # noqa: F401  (re-exported API)
    OOBError, collect as collect_oob, set_strict, strict, strict_enabled,
)
from repro.sanitize.race import Conflict, RaceDetector, RaceVerdict
from repro.sanitize.report import KernelSanitizeResult, SanitizerReport
from repro.sanitize.uninit import UninitRead, UninitTracker

__all__ = [
    "Conflict", "ExecSanitizer", "KernelSanitizeResult", "OOBError",
    "RaceDetector", "RaceVerdict", "SanitizerReport", "UninitRead",
    "UninitTracker", "collect_oob", "current_session", "default_validate",
    "session", "set_strict", "strict", "strict_enabled",
]

#: valid Device/ServeCluster validate modes
VALIDATE_MODES = ("first", "always", "off")


def default_validate() -> str:
    """The dispatch-gating mode used when none is passed explicitly."""
    mode = os.environ.get("REPRO_SANITIZE", "first").lower()
    return mode if mode in VALIDATE_MODES else "first"


class SanitizerSession:
    """Process-wide sanitizing scope for eager (CM / OpenCL) launches.

    While a session is current, ``Device.run_cm`` and the OpenCL
    runtime attach a fresh :class:`RaceDetector` per kernel enqueue,
    feed barrier edges from the work-group scheduler, and fold each
    kernel's verdict plus per-surface OOB clip deltas into
    :attr:`report`.  Sanitized compiled launches (``validate`` gating
    in ``Device.run_compiled``) also append their results here when a
    session is current.
    """

    def __init__(self, strict_oob: bool = False) -> None:
        self.report = SanitizerReport()
        self.strict_oob = strict_oob
        self.race: Optional[RaceDetector] = None
        self._kernel: Optional[str] = None
        self._oob_base: Dict[int, tuple] = {}

    # -- per-kernel scope (driven by the dispatch paths) -------------------

    def begin_kernel(self, name: str, surfaces) -> RaceDetector:
        if self.race is not None:  # unfinished kernel: fold it first
            self.finish_kernel()
        self.race = RaceDetector()
        self._kernel = name
        self._oob_base = {}
        for surf in surfaces:
            self.attach_surface(surf)
        return self.race

    def attach_surface(self, surf) -> None:
        if self.race is None or surf is None:
            return
        self.race.attach_surface(surf)
        self._oob_base.setdefault(
            id(surf), (surf, int(getattr(surf, "oob_clipped_lanes", 0))))

    def finish_kernel(self) -> Optional[KernelSanitizeResult]:
        if self.race is None:
            return None
        verdict = self.race.finish()
        oob: Dict[str, int] = {}
        for surf, base in self._oob_base.values():
            delta = int(getattr(surf, "oob_clipped_lanes", 0)) - base
            if delta:
                label = getattr(surf, "obs_label", "surface")
                oob[label] = oob.get(label, 0) + delta
        result = self.report.add(KernelSanitizeResult(
            kernel=self._kernel or "kernel", verdict=verdict,
            oob_lanes=oob))
        self.race = None
        self._kernel = None
        self._oob_base = {}
        return result


_CURRENT: Optional[SanitizerSession] = None


def current_session() -> Optional[SanitizerSession]:
    return _CURRENT


@contextmanager
def session(strict_oob: bool = False):
    """Install a :class:`SanitizerSession` for the enclosed block."""
    global _CURRENT
    prev, prev_strict = _CURRENT, strict_enabled()
    sess = SanitizerSession(strict_oob=strict_oob)
    _CURRENT = sess
    if strict_oob:
        set_strict(True)
    try:
        yield sess
    finally:
        sess.finish_kernel()
        _CURRENT = prev
        set_strict(prev_strict)

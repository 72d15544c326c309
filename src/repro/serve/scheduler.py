"""Scheduling policies: which device serves the next batch.

A policy sees the list of per-device states (their committed simulated
busy time and kernel cache) and picks an index for each
:class:`~repro.serve.batcher.Batch` the serving thread formed.  All
policies preserve FIFO dispatch order — they choose *where*, never
*when*.

- :class:`RoundRobinPolicy` (``"round-robin"``, alias ``"fifo"``):
  rotate through devices in submission order.
- :class:`LeastLoadedPolicy` (``"least-loaded"``): pick the device with
  the smallest committed simulated busy time; ties go to the lowest
  index.  Every earlier batch has already run when a policy is asked,
  so the busy times are exact and placement follows from the request
  order alone.
- :class:`CacheAffinityPolicy` (``"cache-affinity"``): steer a compiled
  kernel to the device whose :class:`KernelCache` already holds the
  program (first placement decided by least-loaded), so repeat kernels
  hit a warm cache instead of recompiling on every device.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


class Policy:
    """Base scheduling policy."""

    name = "base"

    def select(self, batch, workers: Sequence) -> int:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget learned placement state (new loadgen run)."""


class RoundRobinPolicy(Policy):
    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def select(self, batch, workers: Sequence) -> int:
        idx = self._next % len(workers)
        self._next += 1
        return idx

    def reset(self) -> None:
        self._next = 0


class LeastLoadedPolicy(Policy):
    name = "least-loaded"

    def select(self, batch, workers: Sequence) -> int:
        return min(range(len(workers)),
                   key=lambda i: (workers[i].load_sim_us(), i))


class CacheAffinityPolicy(Policy):
    name = "cache-affinity"

    def __init__(self, fallback: Optional[Policy] = None) -> None:
        self.fallback = fallback if fallback is not None \
            else LeastLoadedPolicy()
        #: kernel cache key -> home device index.
        self._home: Dict[tuple, int] = {}

    def select(self, batch, workers: Sequence) -> int:
        key = batch.affinity_key
        if key is None:  # eager workloads have no compiled program
            return self.fallback.select(batch, workers)
        idx = self._home.get(key)
        if idx is not None:
            return idx
        idx = self.fallback.select(batch, workers)
        self._home[key] = idx
        return idx

    def reset(self) -> None:
        self._home.clear()
        self.fallback.reset()


_POLICIES = {
    "fifo": RoundRobinPolicy,
    "round-robin": RoundRobinPolicy,
    "least-loaded": LeastLoadedPolicy,
    "cache-affinity": CacheAffinityPolicy,
}


def policy_names() -> List[str]:
    return sorted(_POLICIES)


def make_policy(policy) -> Policy:
    """Resolve a policy instance from a name or pass one through."""
    if isinstance(policy, Policy):
        return policy
    cls = _POLICIES.get(str(policy))
    if cls is None:
        raise KeyError(f"unknown scheduling policy {policy!r}; "
                       f"choose from {policy_names()}")
    return cls()

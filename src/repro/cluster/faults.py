"""Fault-tolerance primitives: retry policy, health, fault injection.

Three small, transport-independent pieces the cluster layer composes:

:class:`RetryPolicy`
    Bounded retries with jittered exponential backoff under a per-call
    deadline.  :class:`~repro.cluster.backends.RemoteShard` consults one
    for every read RPC (writes never retry — a retried write could
    double-apply on a worker that applied the first attempt before the
    connection died).

:class:`HealthTracker`
    The ``up -> suspect -> down`` state machine the coordinator keeps
    per backend.  Consecutive RPC failures demote; one success (an RPC
    or a health probe) restores ``up``.  ``down`` primaries are skipped
    on the read path — their replica answers directly — until a probe
    or a supervisor rebuild revives them.

:class:`FaultyBackend`
    A deterministic chaos proxy wrapping any
    :class:`~repro.cluster.backends.ShardBackend`: injects delays,
    dropped calls, connection resets, result reordering, and
    crash-on-Nth-call, all decided by a seeded RNG so a failing chaos
    test replays bit-identically.  Used by ``tests/cluster/test_failover.py``
    and ``make test-chaos``.

:class:`ShardUnavailableError` is the terminal verdict: a backend call
failed every permitted attempt.  It subclasses :class:`ConnectionError`
so transport-level handlers (``except OSError``) keep working.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.cluster.backends import ShardBackend
from repro.query.spec import Query

__all__ = [
    "RetryPolicy",
    "HealthTracker",
    "FaultSpec",
    "FaultyBackend",
    "ShardUnavailableError",
    "HEALTH_UP",
    "HEALTH_SUSPECT",
    "HEALTH_DOWN",
]

#: Health states a backend can be in (see :class:`HealthTracker`).
HEALTH_UP = "up"
HEALTH_SUSPECT = "suspect"
HEALTH_DOWN = "down"


class ShardUnavailableError(ConnectionError):
    """Every permitted attempt against one shard backend failed.

    Raised by :class:`~repro.cluster.backends.RemoteShard` once its
    :class:`RetryPolicy` is exhausted (or immediately for writes, which
    get exactly one attempt).  The coordinator treats it — like any
    :class:`OSError` — as "this backend is unreachable": reads fail over
    to the replica or degrade, writes surface it to the caller un-acked.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, jittered-exponential retry budget for one RPC.

    ``attempts`` caps total tries (1 = no retry).  Backoff before the
    ``n``-th retry is ``base_backoff_s * 2**(n-1)`` clamped to
    ``max_backoff_s``, scaled by a jitter factor in ``[0.5, 1.0]`` drawn
    from a policy-owned seeded RNG — deterministic under a fixed seed,
    decorrelated across shards in production (seed per shard).  The
    whole call — attempts plus backoffs — must finish within
    ``deadline_s``; when the next backoff would cross the deadline the
    policy gives up early instead of sleeping into it.
    """

    #: total tries, including the first (1 disables retrying)
    attempts: int = 3
    #: backoff before the first retry, seconds
    base_backoff_s: float = 0.05
    #: backoff clamp, seconds
    max_backoff_s: float = 1.0
    #: wall-clock budget for the whole call, seconds
    deadline_s: float = 10.0
    #: jitter RNG seed (``None`` = nondeterministic)
    jitter_seed: Optional[int] = None
    _rng: random.Random = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        object.__setattr__(self, "_rng", random.Random(self.jitter_seed))

    def backoff_s(self, retry_index: int) -> float:
        """Jittered sleep before the ``retry_index``-th retry (0-based)."""
        raw = min(
            self.base_backoff_s * (2.0**retry_index), self.max_backoff_s
        )
        return raw * (0.5 + 0.5 * self._rng.random())


class HealthTracker:
    """Per-backend ``up``/``suspect``/``down`` from consecutive failures.

    One RPC or probe failure marks the backend ``suspect``;
    ``down_after`` consecutive failures mark it ``down``.  Any success
    resets to ``up``.  Thread-safe: RPC threads and the health-probe
    loop mark concurrently.
    """

    def __init__(self, *, down_after: int = 2) -> None:
        if down_after < 1:
            raise ValueError(f"down_after must be >= 1, got {down_after}")
        #: consecutive failures that demote ``suspect`` to ``down``
        self.down_after = down_after
        self._failures = 0
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        """The current health state string."""
        failures = self._failures
        if failures == 0:
            return HEALTH_UP
        if failures < self.down_after:
            return HEALTH_SUSPECT
        return HEALTH_DOWN

    @property
    def is_down(self) -> bool:
        """Whether the backend is currently marked ``down``."""
        return self._failures >= self.down_after

    def mark_success(self) -> None:
        """Record one successful call/probe (restores ``up``)."""
        with self._lock:
            self._failures = 0

    def mark_failure(self) -> str:
        """Record one failed call/probe; returns the new state."""
        with self._lock:
            self._failures += 1
        return self.state

    def reset(self) -> None:
        """Forget all history (a rebuilt backend starts ``up``)."""
        self.mark_success()


@dataclass(frozen=True)
class FaultSpec:
    """What a :class:`FaultyBackend` injects, decided by ``seed``.

    Rates are per-call probabilities drawn from one seeded RNG in a
    fixed order, so a given ``(seed, call sequence)`` replays exactly.
    """

    #: RNG seed for every probabilistic decision
    seed: int = 0
    #: fixed pre-call delay, seconds
    delay_s: float = 0.0
    #: probability a call is dropped *before* reaching the backend
    #: (raises :class:`ConnectionError`; the operation never applies)
    drop_rate: float = 0.0
    #: probability the connection "resets" *after* the backend applied
    #: the operation (raises :class:`ConnectionResetError`; the caller
    #: cannot know whether the op landed — the ambiguous failure)
    reset_rate: float = 0.0
    #: 1-based call number at which the backend "crashes": that call
    #: and every later one raise :class:`ConnectionRefusedError`
    #: (``None`` = never)
    crash_on_call: Optional[int] = None
    #: shuffle eager ``query_ids`` results (wrong-order delivery; the
    #: coordinator must re-sort, never trust shard order)
    scramble_order: bool = False


class FaultyBackend(ShardBackend):
    """A chaos proxy injecting :class:`FaultSpec` faults into a backend.

    Wrap any :class:`~repro.cluster.backends.ShardBackend` (the inner
    backend sees only the calls that survive injection).  ``calls``
    counts every intercepted operation and ``injected`` every fault
    fired, so tests can assert the harness actually exercised the
    failure paths.
    """

    def __init__(self, inner: ShardBackend, fault: FaultSpec) -> None:
        #: the wrapped real backend
        self.inner = inner
        #: the injection plan
        self.fault = fault
        #: operations intercepted so far
        self.calls = 0
        #: faults fired so far
        self.injected = 0
        #: ``(call_number, fault_kind)`` log of every injection
        self.log: List[Tuple[int, str]] = []
        self._rng = random.Random(fault.seed)
        self._lock = threading.Lock()

    def _inject(self, kind: str) -> None:
        self.injected += 1
        self.log.append((self.calls, kind))

    def _gate(self) -> None:
        """Run the pre-call injection decisions for one operation."""
        fault = self.fault
        with self._lock:
            self.calls += 1
            crashed = (
                fault.crash_on_call is not None
                and self.calls >= fault.crash_on_call
            )
            if crashed:
                self._inject("crash")
            else:
                dropped = (
                    fault.drop_rate > 0.0
                    and self._rng.random() < fault.drop_rate
                )
                if dropped:
                    self._inject("drop")
        if crashed:
            raise ConnectionRefusedError(
                f"injected crash (call {self.calls} >= "
                f"{fault.crash_on_call})"
            )
        if fault.delay_s > 0.0:
            time.sleep(fault.delay_s)
        if dropped:
            raise ConnectionError(
                f"injected drop (call {self.calls})"
            )

    def _post(self) -> None:
        """Run the post-call injection decisions (ambiguous resets)."""
        fault = self.fault
        with self._lock:
            reset = (
                fault.reset_rate > 0.0
                and self._rng.random() < fault.reset_rate
            )
            if reset:
                self._inject("reset")
        if reset:
            raise ConnectionResetError(
                f"injected reset after apply (call {self.calls})"
            )

    def query_ids(self, spec: Query) -> List[int]:
        """Proxy one eager query, possibly scrambling result order."""
        self._gate()
        ids = self.inner.query_ids(spec)
        self._post()
        if self.fault.scramble_order and len(ids) > 1:
            ids = list(ids)
            with self._lock:
                self._rng.shuffle(ids)
                self._inject("scramble")
        return ids

    def stream_ids(
        self, spec: Query, *, chunk_size: int = 256
    ) -> Iterator[int]:
        """Proxy one stream open (faults fire at open time)."""
        self._gate()
        return self.inner.stream_ids(spec, chunk_size=chunk_size)

    def extend(self, points: Sequence[Tuple[float, float]]) -> List[int]:
        """Proxy one batch insert (a reset fires *after* the apply)."""
        self._gate()
        local_ids = self.inner.extend(points)
        self._post()
        return local_ids

    def delete(self, local_id: int) -> None:
        """Proxy one delete."""
        self._gate()
        self.inner.delete(local_id)
        self._post()

    def ping(self) -> bool:
        """Probe the inner backend through the injection gate."""
        try:
            self._gate()
        except OSError:
            return False
        return self.inner.ping()

    def stats_frame(self):
        """Proxy the stats frame (not fault-gated: observability stays)."""
        return self.inner.stats_frame()

    def close(self) -> None:
        """Close the wrapped backend."""
        self.inner.close()

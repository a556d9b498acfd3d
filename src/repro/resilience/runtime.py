"""Ambient resilience session, mirroring ``repro.telemetry.runtime``.

Hot paths never hold an injector reference; they ask this module.  The
disabled path is a single function call returning ``None`` — when no
fault plan is active, :func:`arm` costs one list check and
:func:`with_retries` degenerates to calling the operation once, so the
subsystem is free for every ordinary run.

Sessions stack (LIFO) so a test can nest a plan inside an instrumented
harness without clobbering it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, TypeVar

from repro.errors import InjectedFault, RecoveryExhausted
from repro.resilience.injector import FaultInjector
from repro.resilience.plan import FaultPlan, FaultSpec
from repro.simtime import VirtualClock
from repro.telemetry.runtime import maybe_span

T = TypeVar("T")

_STACK: List[FaultInjector] = []


def active() -> Optional[FaultInjector]:
    """The innermost active injector, or None when injection is off."""
    return _STACK[-1] if _STACK else None


def enabled() -> bool:
    return bool(_STACK)


def push_injector(injector: FaultInjector) -> FaultInjector:
    """Activate ``injector`` (prefer the :func:`session` context manager)."""
    _STACK.append(injector)
    return injector


def pop_injector(injector: FaultInjector) -> None:
    """Deactivate ``injector`` (and anything stacked above it)."""
    while _STACK:
        if _STACK.pop() is injector:
            return
    raise RuntimeError("pop_injector: injector was not active")


@contextmanager
def session(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Activate a fresh injector for ``plan`` for the duration of the block."""
    injector = FaultInjector(plan)
    push_injector(injector)
    try:
        yield injector
    finally:
        pop_injector(injector)


def arm(site: str) -> Optional[FaultSpec]:
    """Arm ``site`` on the active injector; None when injection is off."""
    if not _STACK:
        return None
    return _STACK[-1].arm(site)


def survive_worker_crashes(site: str, cost: float,
                           charge: Callable[[int, float, float], None]) -> bool:
    """Run a worker pool's crash-survival loop at ``site``.

    Arms once per respawn attempt.  Each crash wastes ``severity`` of
    ``cost`` and pays the policy's backoff as respawn latency; the caller
    decides where that time lands via ``charge(attempt, wasted, delay)``,
    called once per crash.  Past ``max_retries`` crashes the pool is torn
    down: returns True (degrade to inline work) when the policy allows
    it, else raises :class:`RecoveryExhausted`.  Returns False when the
    pool survives (or injection is off).
    """
    injector = _STACK[-1] if _STACK else None
    if injector is None:
        return False
    policy = injector.policy(site)
    crashes = 0
    while True:
        fault = injector.arm(site)
        if fault is None or fault.kind != "crash":
            return False
        crashes += 1
        injector.record_injected(site, "crash")
        charge(crashes, cost * fault.severity,
               injector.backoff_delay(site, crashes))
        if crashes > policy.max_retries:
            if policy.degrade:
                injector.record_degraded(site)
                injector.record_recovered(site, action="degrade")
                return True
            raise RecoveryExhausted(site, crashes)
        # Each crash is cleared by one respawn; a pool that keeps
        # crashing re-arms fresh occurrences until it degrades.
        injector.record_retry(site)
        injector.record_recovered(site, action="respawn")


def with_retries(site: str, clock: VirtualClock,
                 attempt: Callable[[], T]) -> T:
    """Run ``attempt`` under the site's bounded-retry policy.

    Each :class:`InjectedFault` raised by ``attempt`` consumes one retry:
    the exponential-backoff delay is charged against the *virtual* clock
    inside a ``recover.retry`` span, then the operation re-runs (arming a
    fresh occurrence, so ``count``-limited faults eventually clear).
    Past ``max_retries`` failures the last fault escapes wrapped in
    :class:`RecoveryExhausted`.  Real (non-injected) exceptions are never
    retried.
    """
    injector = _STACK[-1] if _STACK else None
    if injector is None:
        return attempt()
    policy = injector.policy(site)
    failures = 0
    while True:
        try:
            return attempt()
        except InjectedFault as fault:
            failures += 1
            if failures > policy.max_retries:
                # This fault stays unrecovered: recovered < injected in
                # the telemetry marks the run as genuinely failed.
                raise RecoveryExhausted(site, failures) from fault
            delay = injector.backoff_delay(site, failures)
            with maybe_span("recover.retry", category="resilience",
                            site=site, attempt=failures):
                if delay > 0:
                    clock.advance(delay)
            # Each injected fault is cleared by exactly one retry (a
            # repeated fault arms a fresh occurrence with its own
            # retry), keeping recovered == injected for healthy runs.
            injector.record_retry(site)
            injector.record_recovered(site, action="retry")

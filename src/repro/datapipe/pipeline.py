"""The bounded-prefetch pipeline executor.

``run_epoch`` pulls items from a source iterator and pushes each through
a chain of :class:`Stage`\\ s.  Real work executes item-sequentially
inside ``clock.deferred()`` (numerics and RNG order identical to the
serial schedule); the measured cost of every stage execution is then
placed on the stage's resource lane by a :class:`~repro.simtime.LaneScheduler`.
Bounded-queue backpressure is the scheduling constraint that item ``i``'s
first stage cannot start before item ``i - depth``'s last stage finished
— so ``depth-1`` reproduces the serial schedule exactly, and deeper
queues hide sampling and H2D behind GPU compute.

This is the repo's one lane-scheduling loop: mini-batch training,
layer-wise inference and the online serving engine all run on it.  An
item may carry a release time (``not_before``: an open-loop arrival
cannot start before it arrives), and a stage fn may end its item early
by returning :class:`EndItem` — the item's later stages are skipped and
its last executed job is its terminal for the depth gate.

The ``sampler.worker`` fault seam is honoured mid-pipeline: a crashed
worker wastes ``severity`` of the stage's cost and pays the respawn
backoff inside the affected job; past the policy's retry budget the
pipeline degrades to depth-1 on a single worker lane (the pipelined
analogue of falling back to inline sampling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.hardware.machine import Machine
from repro.resilience import runtime as resilience
from repro.simtime import DeferredRecord, LaneJob, LaneScheduler
from repro.telemetry import runtime as telemetry
from repro.telemetry.runtime import maybe_span

#: Exclusive phase attribution priority: when jobs overlap on the
#: timeline, the visible phase is the paper's foreground activity.
_PHASE_PRIORITY = ("training", "data_movement", "sampling", "data_loading")


@dataclass
class Stage:
    """One datapipe stage: a callable plus its lane/phase declaration.

    ``fn(index, payload) -> payload`` runs the real work; its clock cost
    is measured, scaled by ``scale`` (sublinear worker efficiency), and
    scheduled on ``lanes[index % len(lanes)]``.  ``phase`` names the
    four-phase bucket the stage's timeline share reports under;
    ``fault_site`` arms a resilience seam per execution.
    """

    name: str
    phase: str
    fn: Callable[[int, Any], Any]
    lanes: Tuple[str, ...]
    scale: float = 1.0
    fault_site: str = ""

    def lane_for(self, index: int) -> str:
        return self.lanes[index % len(self.lanes)]


@dataclass(frozen=True)
class EndItem:
    """Returned by a stage fn to end its item after that stage.

    ``value`` becomes the item's output; no later stage runs or is
    scheduled for the item.
    """

    value: Any = None


@dataclass
class EpochReport:
    """Outcome of one pipelined epoch."""

    outputs: List[Any]
    phases: Dict[str, float]
    elapsed: float
    executed: int
    extrapolated: int
    max_in_flight: int = 1
    degraded: bool = False
    jobs: List[LaneJob] = field(default_factory=list)
    lane_busy: Dict[str, float] = field(default_factory=dict)
    #: Completion time of every item (its last scheduled job's end).
    done_at: List[float] = field(default_factory=list)
    #: Charged seconds per stage, summed over every scheduled job.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def overlap_seconds(self) -> float:
        """Scheduled lane busy time in excess of elapsed wall time."""
        return max(0.0, sum(self.lane_busy.values()) - self.elapsed)


def run_epoch(
    machine: Machine,
    stages: Sequence[Stage],
    source: Iterable[Any],
    depth: int,
    *,
    limit: Optional[int] = None,
    extrapolate_to: int = 0,
    not_before: Sequence[float] = (),
    label: str = "",
) -> EpochReport:
    """Stream ``source`` through ``stages`` with ``depth`` items in flight.

    At most ``limit`` items execute for real (the representative batches);
    when ``extrapolate_to`` exceeds the executed count, the remaining
    items are replayed symbolically through the same scheduler at the
    measured mean per-stage cost (through every stage), so extrapolated
    epochs respect the same lane contention and backpressure as executed
    ones.  ``not_before[i]``, when given, is item ``i``'s absolute release
    time: its first job starts no earlier.
    """
    if depth < 1:
        raise ValueError("pipeline depth must be >= 1")
    clock = machine.clock
    sched = LaneScheduler(clock)
    state = _EpochState(machine=machine, sched=sched, depth=depth)
    outputs: List[Any] = []

    for index, payload in enumerate(source):
        if limit is not None and index >= limit:
            break
        release = not_before[index] if index < len(not_before) else 0.0
        prev: Optional[LaneJob] = None
        first: Optional[LaneJob] = None
        for stage in stages:
            with clock.deferred() as rec:
                payload = stage.fn(index, payload)
            prev = state.schedule(stage, index, rec, prev, release=release)
            first = first or prev
            if isinstance(payload, EndItem):
                payload = payload.value
                break
        state.finish_item(first, prev)
        outputs.append(payload)

    executed = len(outputs)
    extrapolated = max(0, extrapolate_to - executed)
    if extrapolated and executed:
        state.extrapolate(stages, executed, extrapolate_to)

    lane_busy = sched.lane_busy()
    elapsed = sched.drain()
    phases = _attribute_phases(state.phase_jobs, sched.origin, sched.finish)
    state.record_metrics(label)
    return EpochReport(
        outputs=outputs,
        phases=phases,
        elapsed=elapsed,
        executed=executed,
        extrapolated=extrapolated,
        max_in_flight=state.max_in_flight,
        degraded=state.degraded,
        jobs=list(sched.jobs),
        lane_busy=lane_busy,
        done_at=[job.end for job in state.terminal],
        stage_seconds=state.stage_seconds,
    )


class _EpochState:
    """Scheduling state threaded through one ``run_epoch`` call."""

    def __init__(self, machine: Machine, sched: LaneScheduler, depth: int) -> None:
        self.machine = machine
        self.sched = sched
        self.depth = depth
        self.degraded = False
        self.max_in_flight = 1
        self.terminal: List[LaneJob] = []
        self.phase_jobs: List[Tuple[float, float, str]] = []
        #: Clean (pre-fault, post-scale) per-stage sums for extrapolation.
        self.stage_totals: Dict[str, float] = {}
        self.stage_seconds: Dict[str, float] = {}
        self.stage_busy: Dict[str, Dict[str, float]] = {}
        self.stage_waits: Dict[str, List[float]] = {}

    # ------------------------------------------------------------------
    def schedule(self, stage: Stage, index: int, rec: DeferredRecord,
                 prev: Optional[LaneJob], symbolic: bool = False,
                 release: float = 0.0) -> LaneJob:
        scale = 1.0 if self.degraded else stage.scale
        clean = DeferredRecord(
            total=rec.total * scale,
            busy={d: s * scale for d, s in rec.busy.items() if s > 0},
        )
        if not symbolic:
            totals = self.stage_totals
            totals[stage.name] = totals.get(stage.name, 0.0) + clean.total
            busy_bucket = self.stage_busy.setdefault(stage.name, {})
            for device, seconds in clean.busy.items():
                busy_bucket[device] = busy_bucket.get(device, 0.0) + seconds
        record = clean
        # A degraded pipe no longer has a worker pool to crash: the site
        # is never armed again (mirrors the serial teardown semantics).
        if stage.fault_site and not symbolic and not self.degraded:
            record = self._survive_faults(stage, clean)
        deps = (prev,) if prev is not None else ()
        not_before = 0.0
        eff_depth = 1 if self.degraded else self.depth
        if prev is None:
            not_before = release
            if index >= eff_depth and self.terminal:
                gate = min(index - eff_depth, len(self.terminal) - 1)
                not_before = max(not_before, self.terminal[gate].end)
        lane = stage.lanes[0] if self.degraded else stage.lane_for(index)
        job = self.sched.submit(lane, record, deps=deps, not_before=not_before,
                                tag=f"datapipe:{stage.name}")
        seconds = self.stage_seconds
        seconds[stage.name] = seconds.get(stage.name, 0.0) + job.total
        self.phase_jobs.append((job.start, job.end, stage.phase))
        self.stage_waits.setdefault(stage.name, []).append(job.wait)
        if not symbolic:
            with maybe_span(f"datapipe.{stage.name}", category="datapipe",
                            index=index, lane=lane,
                            scheduled_start=job.start, scheduled_end=job.end,
                            queue_wait=job.wait):
                pass
        return job

    def finish_item(self, first: Optional[LaneJob],
                    last: Optional[LaneJob]) -> None:
        if last is None:
            return
        # Queue depth when this item entered the pipe: itself plus every
        # earlier item still in flight at its first job's start time.
        in_flight = 1 + sum(1 for job in self.terminal
                            if job.end > first.start + 1e-12)
        self.terminal.append(last)
        self.max_in_flight = max(self.max_in_flight,
                                 min(in_flight, self.depth))

    # ------------------------------------------------------------------
    def _survive_faults(self, stage: Stage,
                        clean: DeferredRecord) -> DeferredRecord:
        """Apply the stage's fault seam to one execution's charged cost.

        Every crash's wasted CPU time and respawn backoff land inside the
        affected job, delaying the item on its own lane.
        """
        lost: List[Tuple[float, float]] = []
        if resilience.survive_worker_crashes(
                stage.fault_site, clean.total,
                lambda attempt, wasted, delay: lost.append((wasted, delay))):
            self.degraded = True
        wasted = sum(w for w, _ in lost)
        delay = sum(d for _, d in lost)
        if wasted <= 0 and delay <= 0:
            return clean
        busy = dict(clean.busy)
        if wasted > 0:
            cpu_name = self.machine.cpu.name
            busy[cpu_name] = busy.get(cpu_name, 0.0) + wasted
        return DeferredRecord(total=clean.total + wasted + delay, busy=busy)

    # ------------------------------------------------------------------
    def extrapolate(self, stages: Sequence[Stage], executed: int,
                    target: int) -> None:
        """Replay the remaining items symbolically at measured mean cost."""
        means: Dict[str, DeferredRecord] = {}
        for stage in stages:
            total = self.stage_totals.get(stage.name, 0.0) / executed
            busy = {d: s / executed
                    for d, s in self.stage_busy.get(stage.name, {}).items()}
            # schedule() re-applies the stage scale; the sums above are
            # post-scale, so feed it pre-scale means.
            scale = 1.0 if self.degraded else stage.scale
            if scale > 0:
                means[stage.name] = DeferredRecord(
                    total=total / scale,
                    busy={d: s / scale for d, s in busy.items()},
                )
            else:
                means[stage.name] = DeferredRecord(total=0.0, busy={})
        for index in range(executed, target):
            prev: Optional[LaneJob] = None
            for stage in stages:
                prev = self.schedule(stage, index, means[stage.name], prev,
                                     symbolic=True)
            self.terminal.append(prev)

    # ------------------------------------------------------------------
    def record_metrics(self, label: str) -> None:
        registry = telemetry.metrics()
        if registry is None:
            return
        labels = {"label": label} if label else {}
        registry.gauge("datapipe.queue_depth", **labels).set(self.max_in_flight)
        registry.gauge("datapipe.depth_limit", **labels).set(self.depth)
        for name, waits in self.stage_waits.items():
            hist = registry.histogram("datapipe.stage_wait_seconds",
                                      stage=name, **labels)
            for wait in waits:
                hist.observe(wait)


def _attribute_phases(jobs: List[Tuple[float, float, str]], origin: float,
                      finish: float) -> Dict[str, float]:
    """Exclusive four-phase split of the epoch window.

    Sweeps the job intervals chronologically; each elementary segment is
    attributed to the highest-priority phase active over it (training >
    movement > sampling), matching the paper's foreground accounting.
    Window time no job covers (only the backpressure seams between
    items) falls to "sampling", so the phases always sum to the elapsed
    epoch time.
    """
    phases: Dict[str, float] = {}
    if finish <= origin:
        return phases
    events: List[Tuple[float, int, str]] = []
    for start, end, phase in jobs:
        if end > start:
            events.append((start, 1, phase))
            events.append((end, -1, phase))
    events.sort(key=lambda e: (e[0], e[1]))
    rank = {phase: i for i, phase in enumerate(_PHASE_PRIORITY)}
    active: Dict[str, int] = {}
    prev_t = origin
    covered = 0.0
    for t, delta, phase in events:
        t = min(max(t, origin), finish)
        if t > prev_t and active:
            current = min((p for p, n in active.items() if n > 0),
                          key=lambda p: rank.get(p, len(rank)), default=None)
            if current is not None:
                phases[current] = phases.get(current, 0.0) + (t - prev_t)
                covered += t - prev_t
        if t > prev_t:
            prev_t = t
        active[phase] = active.get(phase, 0) + delta
        if active[phase] <= 0:
            del active[phase]
    residual = (finish - origin) - covered
    if residual > 1e-12:
        phases["sampling"] = phases.get("sampling", 0.0) + residual
    return phases

"""The mini-batch training driver with four-phase accounting.

Executes real training batches (sampling, movement, forward/backward/step)
against the virtual clock.  Because the paper-scale epoch can have hundreds
of batches, each epoch runs ``representative_batches`` batches for real and
extrapolates the rest: remaining batches are charged the measured per-batch
device busy time per phase, preserving the breakdown, the power timeline,
and the totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.datapipe.config import parse_pipeline, validate_pipeline_placement
from repro.errors import BenchmarkError
from repro.frameworks.base import Framework, FrameworkBatch, FrameworkGraph
from repro.hardware.machine import Machine
from repro.kernels.transfer import adj_to_device, to_device
from repro.models.base import make_loss
from repro.profiling.profiler import PhaseProfiler
from repro.resilience import runtime as resilience
from repro.telemetry import runtime as telemetry
from repro.telemetry.runtime import maybe_span
from repro.tensor.module import Module
from repro.tensor.optim import Adam

PLACEMENTS = ("cpu", "cpugpu", "gpu", "uvagpu")


def _physical_cores(machine: Machine) -> int:
    spec = machine.cpu.spec
    return getattr(spec, "cores_per_socket", 10) * getattr(spec, "sockets", 1)


def sampler_speedup(machine: Machine, workers: int) -> float:
    """Effective sampling parallelism of ``workers`` sampler workers.

    Sublinear (85% scaling per doubling), capped at the physical cores so
    oversubscription cannot fabricate speedup.
    """
    if workers <= 1:
        return 1.0
    return min(float(_physical_cores(machine)), workers ** 0.85)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters and execution placement for one training run."""

    epochs: int = 10
    lr: float = 1e-3
    dropout: float = 0.5
    placement: str = "cpu"
    preload: bool = False  # pre-load graph + features to GPU (case study 1)
    prefetch: bool = False  # overlap movement with training (DGL only)
    # Parallel sampling workers (DGL/PyG dataloader num_workers).  0 =
    # inline sampling as the paper measures; w >= 1 divides sampling time
    # by a sublinear speedup and pipelines it behind GPU training.
    num_workers: int = 0
    # Streaming datapipe: "off" runs the legacy serial schedule;
    # "depth-N" allows N mini-batches in flight on per-resource lanes
    # (sampler workers, PCIe, GPU) — depth-1 equals the serial schedule.
    pipeline: str = "off"
    representative_batches: int = 4
    seed: int = 0
    # Crash–resume: save a checkpoint every K completed epochs (0 = off),
    # resume from a previous checkpoint, and/or halt after E epochs to
    # simulate a mid-run kill (the run reports ``completed=False``).
    checkpoint_every: int = 0
    checkpoint_path: Optional[str] = None
    resume_from: Optional[str] = None
    halt_after_epochs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise BenchmarkError(f"unknown placement {self.placement!r}")
        if self.epochs < 1 or self.representative_batches < 1:
            raise BenchmarkError("epochs and representative_batches must be >= 1")
        if self.seed < 0:
            raise BenchmarkError("seed must be >= 0")
        if self.preload and self.placement == "cpu":
            raise BenchmarkError("preload needs a GPU placement, not 'cpu'")
        if self.num_workers < 0:
            raise BenchmarkError("num_workers must be >= 0")
        if self.num_workers and self.placement in ("gpu", "uvagpu"):
            raise BenchmarkError(
                "sampling workers apply to CPU-side samplers only"
            )
        # Shared with ``ServeConfig``: parses the spec and rejects
        # depth-N under the on-device sampling placements.
        depth = validate_pipeline_placement(self.pipeline, self.placement).depth
        if depth > 0 and self.prefetch:
            raise BenchmarkError(
                "pipeline subsumes prefetch; use one or the other"
            )
        if self.checkpoint_every < 0:
            raise BenchmarkError("checkpoint_every must be >= 0")
        if self.checkpoint_every and not self.checkpoint_path:
            raise BenchmarkError("checkpoint_every needs a checkpoint_path")
        if self.halt_after_epochs is not None and self.halt_after_epochs < 1:
            raise BenchmarkError("halt_after_epochs must be >= 1")

    @property
    def pipeline_depth(self) -> int:
        """Parsed depth of the ``pipeline`` knob (0 = serial schedule)."""
        return parse_pipeline(self.pipeline).depth

    @property
    def trains_on_gpu(self) -> bool:
        return self.placement != "cpu"

    @property
    def samples_on_gpu(self) -> bool:
        return self.placement in ("gpu", "uvagpu")


@dataclass
class RunResult:
    """Outcome of one training run."""

    label: str
    phases: Dict[str, float]
    epochs: int
    batches_per_epoch: int
    executed_batches: int
    losses: List[float] = field(default_factory=list)
    # False when halt_after_epochs cut the run short (simulated crash);
    # start_epoch > 0 marks a run resumed from a checkpoint.
    completed: bool = True
    start_epoch: int = 0

    @property
    def total_time(self) -> float:
        return sum(self.phases.values())

    def phase_fraction(self, name: str) -> float:
        total = self.total_time
        return self.phases.get(name, 0.0) / total if total > 0 else 0.0


class _UsageMeter:
    """Per-device busy-second deltas used for epoch extrapolation."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine

    def snapshot(self) -> Dict[str, float]:
        snap = {
            "cpu": self.machine.cpu.counters.busy_seconds,
            "pcie": self.machine.pcie.counters.seconds,
        }
        if self.machine.gpu is not None:
            snap["gpu"] = self.machine.gpu.counters.busy_seconds
        return snap

    @staticmethod
    def delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
        return {key: after[key] - before.get(key, 0.0) for key in after}


class MiniBatchTrainer:
    """Drives one (framework, dataset, sampler, model, placement) run."""

    def __init__(
        self,
        framework: Framework,
        fgraph: FrameworkGraph,
        sampler,
        model: Module,
        config: TrainConfig,
        profiler: Optional[PhaseProfiler] = None,
        label: str = "",
        feature_cache=None,
    ) -> None:
        if feature_cache is not None and config.prefetch:
            raise BenchmarkError(
                "feature caching and pre-fetching cannot be combined"
            )
        self.framework = framework
        self.fgraph = fgraph
        self.sampler = sampler
        self.model = model
        self.config = config
        self.machine = fgraph.machine
        self.profiler = profiler or PhaseProfiler(self.machine.clock)
        self.label = label or f"{framework.name}-{config.placement}"
        self.loss_fn = make_loss(fgraph.stats.multilabel)
        self.feature_cache = feature_cache
        self._usage = _UsageMeter(self.machine)
        # Set when the worker pool burned through its respawn budget and
        # sampling fell back to inline (no speedup, no pipelining).
        self._workers_degraded = False

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """One-time costs: pre-loading, partitioning, initial model copy."""
        config = self.config
        if config.preload or config.placement == "gpu":
            with self.profiler.phase("data_movement"):
                if not self.fgraph.preloaded_gpu:
                    self.fgraph.preload_to_gpu()
        if hasattr(self.sampler, "ensure_partitioned"):
            with self.profiler.phase("sampling"):
                self.sampler.ensure_partitioned()
        if config.trains_on_gpu:
            with self.profiler.phase("data_movement"), self.framework.activate():
                self.model.to(self.machine.gpu, link=self.machine.pcie)
        self.optimizer = Adam(self.model.parameters(), lr=config.lr)

    # ------------------------------------------------------------------
    def _move_batch(self, batch: FrameworkBatch) -> FrameworkBatch:
        """Charge the per-batch CPU->GPU movement (subgraph + features + labels)."""
        gpu = self.machine.gpu
        link = self.machine.pcie
        with self.framework.activate():
            moved_x = batch.x.device is not gpu
            batch.adjs = [
                adj_to_device(adj, gpu, link, tag="batch-graph") for adj in batch.adjs
            ]
            if (moved_x and self.feature_cache is not None
                    and batch.input_nodes is not None):
                self._move_features_cached(batch, gpu, link)
            else:
                batch.x = to_device(batch.x, gpu, link, tag="batch-features")
            if moved_x and batch.y_logical_nbytes > 0:
                link.h2d(batch.y_logical_nbytes, tag="batch-labels")
        return batch

    def _move_features_cached(self, batch: FrameworkBatch, gpu, link) -> None:
        """Move only cache-miss feature rows; gather hits on the GPU."""
        from repro.hardware.device import KernelCost

        mask = self.feature_cache.record(batch.input_nodes)
        hit_fraction = float(mask.mean()) if mask.size else 0.0
        miss_bytes = batch.x.logical_nbytes * (1.0 - hit_fraction)
        hit_bytes = batch.x.logical_nbytes * hit_fraction
        if miss_bytes > 0:
            link.h2d(miss_bytes, tag="batch-features-miss")
        if hit_bytes > 0:
            # On-device gather of the cached rows into the batch tensor.
            gpu.execute(KernelCost(name="feature-cache.gather",
                                   bytes_moved=2.0 * hit_bytes,
                                   compute_eff=0.6, memory_eff=0.6))
        batch.x = to_device(batch.x, gpu, None)  # bytes already charged

    def worker_speedup(self) -> float:
        """Effective sampling parallelism from ``num_workers``."""
        return sampler_speedup(self.machine, self.config.num_workers)

    def _sample_with_workers(self, batch_iter, prev_train_dt: float,
                             phase_usage, phase_wall):
        """Sample via the worker pool: parallel, pipelined behind training.

        The batch is built physically inside a deferred clock region; its
        measured cost is divided by the worker speedup, and (when training
        runs on the GPU) the portion covered by the previous batch's
        training step is hidden — the CPU busy time for that portion is
        backfilled into the elapsed training window.
        """
        clock = self.machine.clock
        with clock.deferred() as record:
            batch = next(batch_iter, None)
        if batch is None:
            return None
        if self._workers_degraded:
            # Respawn budget exhausted earlier in the run: inline
            # sampling, full cost, no overlap with training.
            speedup = 1.0
        else:
            speedup = self.worker_speedup()
        effective = record.total / speedup
        if not self._workers_degraded:
            effective = self._survive_worker_crashes(effective, record.total)
        can_pipeline = self.config.trains_on_gpu and not self._workers_degraded
        hidden = min(prev_train_dt, effective) if can_pipeline else 0.0
        residual = effective - hidden

        before = self._usage.snapshot()
        start = clock.now
        total = max(record.total, 1e-12)
        with self.profiler.phase("sampling"):
            for device, busy in record.busy.items():
                visible = (busy / total) * residual
                if visible > 0:
                    clock.occupy(device, visible, tag="sampling-workers")
            if hidden > 0:
                hidden_busy = {
                    device: (busy / total) * hidden
                    for device, busy in record.busy.items()
                }
                try:
                    clock.occupy_parallel(hidden_busy, tag="sampling-pipelined",
                                          backfill=True)
                except ValueError:
                    # The backfill window was not idle (e.g. CPU-side work
                    # during training); charge serially instead.
                    for device, busy in hidden_busy.items():
                        clock.occupy(device, busy, tag="sampling-workers")
        elapsed = clock.now - start
        phase_wall["sampling"] = phase_wall.get("sampling", 0.0) + elapsed
        delta = self._usage.delta(before, self._usage.snapshot())
        bucket = phase_usage.setdefault("sampling", {})
        for key, value in delta.items():
            bucket[key] = bucket.get(key, 0.0) + value
        return batch

    def _survive_worker_crashes(self, effective: float,
                                inline_total: float) -> float:
        """The ``sampler.worker`` fault site: crashed sampling workers.

        Runs the shared crash-survival loop
        (:func:`repro.resilience.runtime.survive_worker_crashes`) over the
        parallel sampling cost.  Each crash's wasted CPU time and respawn
        backoff are charged here, in the "sampling" phase but outside the
        per-batch usage window, so extrapolated batches are not billed for
        them.  Returns the sampling cost the caller should charge: the
        inline cost once the pool has been torn down.
        """
        clock = self.machine.clock
        cpu_name = self.machine.cpu.name

        def charge(attempt: int, wasted: float, delay: float) -> None:
            with self.profiler.phase("sampling"), \
                    maybe_span("recover.respawn", category="resilience",
                               attempt=attempt, wasted_seconds=wasted):
                if wasted > 0:
                    clock.occupy(cpu_name, wasted, tag="sampling-worker-crash")
                if delay > 0:
                    clock.advance(delay)  # worker respawn latency

        if resilience.survive_worker_crashes("sampler.worker", effective,
                                             charge):
            self._workers_degraded = True
            return inline_total
        return effective

    def _movement_seconds(self, batch: FrameworkBatch) -> float:
        """PCIe seconds the batch copy would take (prefetch accounting)."""
        gpu = self.machine.gpu
        link = self.machine.pcie
        seconds = 0.0
        for adj in batch.adjs:
            if adj.device is not gpu:
                seconds += link.transfer_time(adj.structure_nbytes())
        if batch.x.device is not gpu:
            seconds += link.transfer_time(batch.x.logical_nbytes)
            if batch.y_logical_nbytes > 0:
                seconds += link.transfer_time(batch.y_logical_nbytes)
        return seconds

    def _relocate_silently(self, batch: FrameworkBatch) -> None:
        """Re-place batch tensors on GPU without charging (already copied)."""
        gpu = self.machine.gpu
        batch.adjs = [adj_to_device(adj, gpu, None) for adj in batch.adjs]
        batch.x = to_device(batch.x, gpu, None)

    def _train_step(self, batch: FrameworkBatch) -> float:
        """One forward/backward/update on a mini-batch."""
        self.model.train()
        self.optimizer.zero_grad()
        with self.framework.activate():
            if batch.kind == "blocks":
                logits = self.model(batch.adjs, batch.x)
                y = batch.y
            else:
                logits = self.model(batch.adjs[0], batch.x)
                rows = batch.train_rows
                if rows is not None and rows.size > 0:
                    logits = logits[rows.astype(np.int64)]
                    y = batch.y[rows]
                else:
                    y = batch.y
            loss = self.loss_fn(logits, y)
            loss.backward()
            self.optimizer.step()
        return loss.item()

    # ------------------------------------------------------------------
    # streaming datapipe (pipeline=depth-N)
    # ------------------------------------------------------------------
    def pipeline_workers(self) -> int:
        """Sampler-worker lanes for the pipelined schedule.

        One worker per in-flight slot by default (DataLoader-style
        ``prefetch_factor`` semantics); an explicit ``num_workers``
        bounds the pool.  Capped at the physical cores so a deep queue
        cannot fabricate parallelism the testbed does not have.
        """
        config = self.config
        depth = config.pipeline_depth
        workers = config.num_workers if config.num_workers > 0 else depth
        return max(1, min(workers, depth, _physical_cores(self.machine)))

    def _pipeline_inflation(self, workers: int) -> float:
        """Per-job cost inflation preserving the sublinear worker model.

        ``workers`` lanes run concurrently, but aggregate throughput must
        match the serial path's ``worker_speedup`` (85% scaling per
        doubling): each job is stretched by ``workers / speedup`` so the
        pool's effective rate stays sublinear.
        """
        return workers / sampler_speedup(self.machine, workers)

    def _batch_staging_bytes(self, batch: FrameworkBatch) -> float:
        """Logical bytes one in-flight batch pins (structure + x + y)."""
        structure = sum(adj.structure_nbytes() for adj in batch.adjs)
        return structure + batch.x.logical_nbytes + batch.y_logical_nbytes

    def _run_pipelined_epoch(self, reps: int, num_batches: int,
                             losses: List[float]) -> int:
        """One epoch on the datapipe; returns executed batch count."""
        from repro.datapipe.pipeline import Stage, run_epoch
        from repro.datapipe.staging import StagingPool

        config = self.config
        workers = 1 if self._workers_degraded else self.pipeline_workers()
        depth = 1 if self._workers_degraded else config.pipeline_depth
        needs_move = config.trains_on_gpu and not config.samples_on_gpu
        pool = StagingPool(self.machine, depth)

        def fetch(index: int, sample) -> FrameworkBatch:
            batch = self.sampler.assemble_features(sample)
            pool.stage_host(index, self._batch_staging_bytes(batch))
            return batch

        def copy(index: int, batch: FrameworkBatch) -> FrameworkBatch:
            pool.stage_gpu(index, self._batch_staging_bytes(batch))
            return self._move_batch(batch)

        def train(index: int, batch: FrameworkBatch) -> float:
            return self._train_step(batch)

        stages = [
            Stage("sample", "sampling",
                  fn=lambda i, req: self.sampler.sample_structure(req),
                  lanes=tuple(f"worker/{w}" for w in range(workers)),
                  scale=self._pipeline_inflation(workers),
                  fault_site="sampler.worker"),
            Stage("fetch", "sampling", fn=fetch, lanes=("fetch",)),
        ]
        if needs_move:
            stages.append(Stage("copy", "data_movement", fn=copy,
                                lanes=("copy",)))
        stages.append(Stage("train", "training", fn=train, lanes=("train",)))

        try:
            report = run_epoch(
                self.machine, stages, self.sampler.epoch_requests(), depth,
                limit=reps, extrapolate_to=num_batches, label=self.label,
            )
        finally:
            pool.close()
        if report.degraded:
            # The worker pool burned its respawn budget: the rest of the
            # run degrades to a single-lane depth-1 pipe (inline analogue).
            self._workers_degraded = True
        losses.extend(report.outputs)
        for phase, seconds in sorted(report.phases.items()):
            self.profiler.add(phase, seconds)
        return report.executed

    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        """Run the configured number of epochs; return the breakdown."""
        config = self.config
        self.setup()
        num_batches = self.sampler.num_batches()
        reps = min(config.representative_batches, num_batches)
        losses: List[float] = []
        executed = 0
        start_epoch = 0
        completed = True
        if config.resume_from:
            start_epoch, losses, executed = self._resume(config.resume_from)

        prev_train_dt = 0.0
        for epoch in range(start_epoch, config.epochs):
            if config.pipeline_depth > 0:
                with maybe_span("train.epoch", epoch=epoch, label=self.label,
                                pipeline=config.pipeline):
                    ran = self._run_pipelined_epoch(reps, num_batches, losses)
                executed += ran
                done = epoch + 1
                if (config.checkpoint_every
                        and done % config.checkpoint_every == 0):
                    self._save_checkpoint(done, losses, executed)
                if (config.halt_after_epochs is not None
                        and done >= start_epoch + config.halt_after_epochs
                        and done < config.epochs):
                    completed = False
                    break
                continue
            batch_iter = iter(self.sampler.epoch())
            phase_usage: Dict[str, Dict[str, float]] = {}
            phase_wall: Dict[str, float] = {}
            ran = 0
            with maybe_span("train.epoch", epoch=epoch, label=self.label):
                for _ in range(reps):
                    with maybe_span("train.batch", index=ran):
                        if config.num_workers > 0:
                            batch = self._sample_with_workers(
                                batch_iter, prev_train_dt if ran > 0 else 0.0,
                                phase_usage, phase_wall,
                            )
                        else:
                            batch = self._timed_phase("sampling",
                                                      lambda: next(batch_iter, None),
                                                      phase_usage, phase_wall)
                        if batch is None:
                            break
                        needs_move = config.trains_on_gpu and not config.samples_on_gpu
                        prefetching = (
                            needs_move
                            and config.prefetch
                            and self.framework.profile.supports_prefetch
                            and ran > 0  # the first batch of an epoch cannot overlap
                        )
                        if needs_move and not prefetching:
                            self._timed_phase(
                                "data_movement", lambda: self._move_batch(batch),
                                phase_usage, phase_wall,
                            )
                        elif prefetching:
                            # Asynchronous pre-fetching: this batch's copy ran
                            # behind the previous batch's compute.  Only the part
                            # of the copy that exceeds one training step remains
                            # visible as data movement.
                            pending_move = self._movement_seconds(batch)
                            self._relocate_silently(batch)
                        train_start = self.machine.clock.now
                        loss = self._timed_phase("training",
                                                 lambda: self._train_step(batch),
                                                 phase_usage, phase_wall)
                        prev_train_dt = self.machine.clock.now - train_start
                        if prefetching:
                            train_dt = self.machine.clock.now - train_start
                            residual = max(0.0, pending_move - train_dt)
                            if residual > 0:
                                self._timed_phase(
                                    "data_movement",
                                    lambda: self.machine.clock.occupy(
                                        "pcie", residual, tag="prefetch-residual"),
                                    phase_usage, phase_wall,
                                )
                        losses.append(loss)
                        ran += 1
            executed += ran

            remaining = num_batches - ran
            if remaining > 0 and ran > 0:
                self._extrapolate(phase_usage, phase_wall, ran, remaining)

            done = epoch + 1
            if (config.checkpoint_every
                    and done % config.checkpoint_every == 0):
                self._save_checkpoint(done, losses, executed)
            if (config.halt_after_epochs is not None
                    and done >= start_epoch + config.halt_after_epochs
                    and done < config.epochs):
                completed = False  # simulated crash: stop mid-run
                break

        registry = telemetry.metrics()
        if registry is not None:
            labels = {"label": self.label}
            registry.counter("trainer.epochs", **labels).inc(config.epochs)
            registry.counter("trainer.batches_executed", **labels).inc(executed)
            registry.counter("trainer.batches_extrapolated", **labels).inc(
                config.epochs * num_batches - executed
            )

        return RunResult(
            label=self.label,
            phases=self.profiler.snapshot(),
            epochs=config.epochs,
            batches_per_epoch=num_batches,
            executed_batches=executed,
            losses=losses,
            completed=completed,
            start_epoch=start_epoch,
        )

    # ------------------------------------------------------------------
    def _save_checkpoint(self, next_epoch: int, losses: List[float],
                         executed: int) -> None:
        """Persist everything a resumed process needs for bit-identical
        continuation: model + optimizer state, loss history, phase
        totals, and every RNG the loop consumes.  The write itself is
        off the virtual clock's critical path (asynchronous checkpoint
        I/O), so checkpointing never perturbs the reported breakdown.
        """
        from repro.models.checkpoint import save_checkpoint
        from repro.resilience.checkpointing import capture_rng_states

        with maybe_span("checkpoint.save", category="resilience",
                        epoch=next_epoch):
            save_checkpoint(
                self.config.checkpoint_path, self.model, self.optimizer,
                metadata={
                    "kind": "train-resume",
                    "label": self.label,
                    "epoch": next_epoch,
                    "executed_batches": executed,
                    "losses": [float(v) for v in losses],
                    "phases": self.profiler.snapshot(),
                    "rng": capture_rng_states(self.model, self.sampler),
                },
            )
        registry = telemetry.metrics()
        if registry is not None:
            registry.counter("checkpoint.saves", label=self.label).inc()

    def _resume(self, path: str):
        """Restore a ``train-resume`` checkpoint written by this driver."""
        from repro.models.checkpoint import CheckpointError, load_checkpoint
        from repro.resilience.checkpointing import restore_rng_states

        with maybe_span("recover.resume", category="resilience",
                        path=str(path)):
            meta = load_checkpoint(path, self.model, self.optimizer)
            if meta.get("kind") != "train-resume":
                raise CheckpointError(
                    f"{path} is not a training checkpoint (kind="
                    f"{meta.get('kind')!r}); save with checkpoint_every"
                )
            restore_rng_states(self.model, self.sampler, meta.get("rng", {}))
            # The checkpointed phase totals cover everything up to the
            # kill point; this process has re-charged loading/setup on a
            # fresh clock, so credit only the difference.  The prefix is
            # identical by determinism, hence the delta is exactly the
            # killed run's training progress.
            current = self.profiler.snapshot()
            for phase, seconds in meta.get("phases", {}).items():
                delta = seconds - current.get(phase, 0.0)
                if delta < -1e-9:
                    raise CheckpointError(
                        f"resume accounting mismatch for {phase!r}: this "
                        f"run already charged {current.get(phase, 0.0):.6f}s "
                        f"but the checkpoint recorded {seconds:.6f}s"
                    )
                if delta > 0:
                    self.profiler.add(phase, delta)
            start_epoch = int(meta["epoch"])
            losses = [float(v) for v in meta.get("losses", [])]
            executed = int(meta.get("executed_batches", 0))
        registry = telemetry.metrics()
        if registry is not None:
            registry.counter("checkpoint.resumes", label=self.label).inc()
        return start_epoch, losses, executed

    # ------------------------------------------------------------------
    def _timed_phase(self, name: str, fn, usage: Dict[str, Dict[str, float]],
                     wall: Dict[str, float]):
        before = self._usage.snapshot()
        start = self.machine.clock.now
        with self.profiler.phase(name):
            result = fn()
        elapsed = self.machine.clock.now - start
        wall[name] = wall.get(name, 0.0) + elapsed
        delta = self._usage.delta(before, self._usage.snapshot())
        bucket = usage.setdefault(name, {})
        for key, value in delta.items():
            bucket[key] = bucket.get(key, 0.0) + value
        return result

    def _extrapolate(self, usage: Dict[str, Dict[str, float]],
                     wall: Dict[str, float], ran: int, remaining: int) -> None:
        """Charge the non-executed batches at measured per-batch rates."""
        clock = self.machine.clock
        device_names = {
            "cpu": self.machine.cpu.name,
            "pcie": "pcie",
        }
        if self.machine.gpu is not None:
            device_names["gpu"] = self.machine.gpu.name
        for phase in ("sampling", "data_movement", "training"):
            if phase not in wall:
                continue
            scale = remaining / ran
            busy_total = 0.0
            for key, seconds in usage.get(phase, {}).items():
                extra = seconds * scale
                if extra > 0:
                    clock.occupy(device_names[key], extra, tag=f"extrapolate:{phase}")
                    busy_total += extra
            idle = wall[phase] * scale - busy_total
            if idle > 0:
                clock.advance(idle)
            self.profiler.add(phase, wall[phase] * scale)

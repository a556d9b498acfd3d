"""The benchmark's workloads: one public harness call each, plus its checks.

A workload call runs one harness entry point for one framework and seed
and returns an :class:`Outcome`: the host seconds of the harness call, the
simulated work items it completed, its exact simulated statistics, and
every problem the correctness check found.  The simulated (virtual-clock)
statistics are the paper's numbers; the benchmark does not gate them as
performance, it requires them to repeat exactly within a run and reports
them, with a digest, so two builds can be compared value for value.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager, Dict, List, Optional, Tuple

from layers import host_clock
from repro.bench.harness import (run_fullbatch_experiment,
                                 run_training_experiment)
from repro.datasets.base import clear_cache
from repro.frameworks import get_framework
from repro.hardware.machine import paper_testbed
from repro.serving.engine import (ServeConfig, ServeResult,
                                  run_serving_experiment)
from repro.serving.latency import LatencyAccountant
from repro.telemetry.manifest import validate_run_dir

FRAMEWORKS = ("dglite", "pyglite")
SIM_PHASES = ("data_loading", "sampling", "data_movement", "training")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its dataset and its harness call."""

    name: str
    dataset: str
    scale: float
    # (framework, seed, telemetry dir or None) -> harness result
    run: Callable[[str, int, Optional[Path]], object]
    telemetry: bool = False


@dataclass
class Outcome:
    """What one harness call produced, as the benchmark sees it."""

    seconds: float
    items: int
    stats: Dict[str, object]
    problems: List[str] = field(default_factory=list)
    bundle_bytes: int = 0
    trace: object = None  # what ``root`` yielded around the harness call


def _train_reddit(framework: str, seed: int, _: Optional[Path]):
    return run_training_experiment(
        framework, "reddit", "graphsage", placement="cpugpu",
        pipeline="depth-4", epochs=1, representative_batches=60,
        dataset_scale=4.0, seed=seed)


def _serve_products(framework: str, seed: int, _: Optional[Path]):
    return run_serving_experiment(ServeConfig(
        framework=framework, dataset="ogbn-products", dataset_scale=4.0,
        trace="poisson", rate=50.0, num_requests=1024,
        cache_fraction=0.2, seed=seed))


def _fullbatch_reddit(framework: str, seed: int, _: Optional[Path]):
    return run_fullbatch_experiment(framework, "reddit", device="gpu",
                                    epochs=3, dataset_scale=4.0, seed=seed)


def _train_flickr_telemetry(framework: str, seed: int,
                            bundle: Optional[Path]):
    return run_training_experiment(
        framework, "flickr", "graphsage", placement="cpugpu",
        pipeline="off", epochs=1, representative_batches=60,
        telemetry_dir=str(bundle), seed=seed)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("train-sage-reddit", "reddit", 4.0, _train_reddit),
        Workload("serve-products", "ogbn-products", 4.0, _serve_products),
        Workload("fullbatch-reddit", "reddit", 4.0, _fullbatch_reddit),
        Workload("train-flickr-telemetry", "flickr", 1.0,
                 _train_flickr_telemetry, telemetry=True),
    )
}


def cold_setup(workload: Workload, framework: str,
               root: Callable[[], ContextManager] = nullcontext
               ) -> Tuple[float, object]:
    """Host seconds of a cold dataset synthesis plus the first ``load``.

    Datasets are cached only in-process, so this is what every CLI
    invocation pays before its first experiment.  The previous graph is
    collected first, so each build starts from the same heap; ``root`` is
    entered around the timed part alone, and what it yields is returned
    with the seconds, as in :func:`call`.
    """
    clear_cache()
    gc.collect()
    with root() as trace:
        start = host_clock()
        get_framework(framework).load(workload.dataset, paper_testbed(),
                                      scale=workload.scale)
        seconds = host_clock() - start
    return seconds, trace


def call(workload: Workload, framework: str, seed: int, scratch: Path,
         root: Callable[[], ContextManager] = nullcontext) -> Outcome:
    """Run one harness call, time it, and check what it returned.

    ``root`` is entered around the harness call alone (the tracer's root
    frame in a traced run), so the checks below are never timed.
    """
    bundle = scratch / "bundle" if workload.telemetry else None
    if bundle is not None and bundle.exists():
        shutil.rmtree(bundle)
    with root() as trace:
        start = host_clock()
        result = workload.run(framework, seed, bundle)
        seconds = host_clock() - start
    outcome = Outcome(seconds=seconds, items=_items(result),
                      stats=sim_stats(result), trace=trace)
    outcome.problems = _check(result)
    if bundle is not None:
        outcome.problems += [f"telemetry bundle: {p}"
                             for p in validate_run_dir(bundle)]
        outcome.bundle_bytes = sum(p.stat().st_size
                                   for p in bundle.iterdir() if p.is_file())
        shutil.rmtree(bundle)
    return outcome


def _items(result) -> int:
    """Simulated work items: executed batches/epochs, or completed requests."""
    if isinstance(result, ServeResult):
        return result.completed
    return len(result.losses)


def _check(result) -> List[str]:
    if isinstance(result, ServeResult):
        problems = []
        if result.completed != result.config.num_requests:
            problems.append(f"completed {result.completed} of "
                            f"{result.config.num_requests} requests")
        for name in ("shed", "stale", "budget_violations"):
            if getattr(result, name):
                problems.append(f"{name} = {getattr(result, name)}")
        return problems
    problems = []
    if result.oom:
        problems.append(f"out of memory: {result.error}")
    if not result.completed:
        problems.append("run did not complete")
    if not result.losses:
        problems.append("no losses recorded")
    elif not all(math.isfinite(v) for v in result.losses):
        problems.append("non-finite loss")
    return problems


def sim_stats(result) -> Dict[str, object]:
    """Every simulated statistic of a result, as exact JSON-able values."""
    stats: Dict[str, object] = {
        "phases": {k: float(v) for k, v in sorted(result.phases.items())},
        "energy_j": float(result.total_energy),
        "kernel_families": {k: float(v) for k, v
                            in sorted(result.kernel_families.items())},
    }
    if isinstance(result, ServeResult):
        stats.update(
            makespan_s=float(result.makespan),
            latencies=[float(v) for v in result.latencies],
            batch_sizes=[int(v) for v in result.batch_sizes],
            batch_closes={k: int(v) for k, v
                          in sorted(result.batch_closes.items())},
            **{name: int(getattr(result, name)) for name in (
                "completed", "shed", "stale", "budget_violations",
                "cache_hits", "cache_misses")},
        )
    else:
        stats.update(
            losses=[float(v) for v in result.losses],
            batches_per_epoch=int(result.batches_per_epoch),
            completed=bool(result.completed), oom=bool(result.oom),
        )
    return stats


def digest(stats: Dict[str, object]) -> str:
    """SHA-256 of the canonical JSON of one call's simulated statistics."""
    text = json.dumps(stats, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sim_metrics(stats: Dict[str, object]) -> Dict[str, float]:
    """The ``sim.*`` figures of one call's statistics (0.0 where n/a)."""
    phases = stats["phases"]
    metrics = {f"phase.{p}_s": phases.get(p, 0.0) for p in SIM_PHASES}
    metrics["energy_j"] = stats["energy_j"]
    serve = dict.fromkeys(("p50_ms", "p99_ms", "throughput_rps",
                           "batch_size_mean", "cache_hit_ratio",
                           "deadline_close_ratio"), 0.0)
    if "latencies" in stats:
        accountant = LatencyAccountant()
        accountant.latencies = list(stats["latencies"])
        summary = accountant.summary()
        sizes = stats["batch_sizes"]
        lookups = stats["cache_hits"] + stats["cache_misses"]
        metrics["virtual_s"] = stats["makespan_s"]
        metrics["loss_final"] = 0.0
        serve.update(
            p50_ms=1e3 * float(summary["p50"]),
            p99_ms=1e3 * float(summary["p99"]),
            throughput_rps=stats["completed"] / stats["makespan_s"],
            batch_size_mean=sum(sizes) / len(sizes),
            cache_hit_ratio=stats["cache_hits"] / lookups if lookups else 0.0,
            deadline_close_ratio=stats["batch_closes"].get("deadline", 0)
            / len(sizes),
        )
    else:
        metrics["virtual_s"] = sum(phases.values())
        losses = stats["losses"]
        metrics["loss_final"] = losses[-1] if losses else 0.0
    metrics.update({f"serve.{k}": v for k, v in serve.items()})
    return metrics

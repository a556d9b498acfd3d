"""Host-clock benchmark of the Python simulator.

Run from the repository root::

    python3 hostbench/run.py --workload train-sage-reddit --seed 0 \\
        --seconds 20 --trace 0

One process runs one workload on one BLAS thread, and every host timing
is CPU seconds of that process (``layers.host_clock``).  It times a cold
dataset synthesis plus first ``Framework.load`` several times
(``setup_s``), makes one warm-up harness call per framework, then
alternates ``dglite``/``pyglite`` harness calls until ``--seconds`` of
wall time have passed.  Every call is checked: the
workload's own correctness rules, and simulated statistics identical to
the run's first call on the same framework.

``--trace 0`` reports the end-to-end metrics: ``items_per_s`` (work
items of passing calls per host second summed over the timed harness
calls; the benchmark's own checks between calls are not timed),
``call_s.p50``, ``peak_rss_mb`` and ``setup_s``.

``--trace 1`` spends half of ``--seconds`` untraced and half with the
layer wrappers of ``layers.py`` installed.  Each ``<layer>_s`` is the
layer's self time per traced harness call and ``<layer>.calls`` its calls
per harness call; ``setup.*`` splits one traced cold set-up the same way.
It also reports the tracing overhead and the simulated (``sim.*``)
figures of each framework's first call, with a digest of all of its
simulated statistics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from layers import ALL_WORKLOADS, LAYERS, Tracer, installed_wrappers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".hostbench"
# A single cold build moves by about ±10% between processes; the median
# of several is steady.
SETUP_REPEATS = 5


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _cap_blas_threads() -> None:
    """One process generates all load, on one BLAS thread.

    With a BLAS thread per core the threads wait on each other, so steal
    on any core stalls a call: on a 2-vCPU host the spread of
    ``call_s.p50`` across seeds was about three times that of one thread,
    and only full-batch training ran faster (by about 15%).
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


class Run:
    """One workload in one process: calls, their outcomes and failures."""

    def __init__(self, wl, workload, seed: int, scratch: Path) -> None:
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.reference: Dict[str, Dict[str, object]] = {}

    def setup_seconds(self) -> float:
        """Median host seconds of ``SETUP_REPEATS`` cold set-ups."""
        frameworks = self.wl.FRAMEWORKS
        return statistics.median(
            self.wl.cold_setup(self.workload,
                               frameworks[i % len(frameworks)])[0]
            for i in range(SETUP_REPEATS))

    def call(self, framework: str, tracer: Tracer = None):
        """One checked harness call; ``None`` if it raised."""
        self.attempted += 1
        root = nullcontext if tracer is None else tracer.root
        try:
            outcome = self.wl.call(self.workload, framework, self.seed,
                                   self.scratch, root=root)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            # A harness call leaves its simulated machine in reference
            # cycles.  Collect them here, untimed, so that each call starts
            # from the same heap, as a fresh CLI process does.
            gc.collect()
        reference = self.reference.setdefault(framework, outcome.stats)
        if outcome.stats != reference:
            outcome.problems.append(
                "simulated statistics differ from the run's first call")
        if outcome.problems:
            self.failed += 1
            for problem in outcome.problems:
                print(f"FAILED {framework}: {problem}", file=sys.stderr)
        return outcome

    def warm_up(self) -> None:
        """One untraced call per framework; fixes the reference statistics."""
        _require_untraced()
        for framework in self.wl.FRAMEWORKS:
            self.call(framework)

    def phase(self, seconds: float, tracer: Tracer = None) -> list:
        """Alternate frameworks call by call for ``seconds`` (whole pairs)."""
        frameworks = self.wl.FRAMEWORKS
        outcomes = []
        deadline = perf_counter() + seconds
        while len(outcomes) % len(frameworks) or perf_counter() < deadline:
            framework = frameworks[len(outcomes) % len(frameworks)]
            outcomes.append(self.call(framework, tracer))
        return [o for o in outcomes if o is not None]


def _throughput(outcomes: list) -> float:
    """Items of passing calls per host second of all timed calls."""
    seconds = sum(o.seconds for o in outcomes)
    items = sum(o.items for o in outcomes if not o.problems)
    return items / seconds if seconds > 0 else 0.0


def _end_to_end(run: Run, seconds: float) -> Dict[str, object]:
    setup_s = run.setup_seconds()
    run.warm_up()
    outcomes = run.phase(seconds)
    call_s = [o.seconds for o in outcomes]
    return {
        "items_per_s": _metric(_throughput(outcomes), "items/s"),
        "call_s.p50": _metric(statistics.median(call_s) if call_s else 0.0,
                              "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
        "setup_s": _metric(setup_s, "s"),
    }


def _per_layer(run: Run, seconds: float) -> Dict[str, object]:
    run.warm_up()
    untraced = _throughput(run.phase(seconds / 2))
    with Tracer() as tracer:
        _, setup = run.wl.cold_setup(run.workload, run.wl.FRAMEWORKS[0],
                                     tracer.root)
        outcomes = run.phase(seconds / 2, tracer)
        traced = _throughput(outcomes)
    _require_untraced()

    records = [o.trace for o in outcomes]
    n = max(1, len(records))
    metrics: Dict[str, object] = {}
    for layer in LAYERS:
        metrics[f"{layer.name}_s"] = _metric(
            sum(r.self_s[layer.name] for r in records) / n, "s")
        metrics[f"{layer.name}.calls"] = _metric(
            sum(r.calls[layer.name] for r in records) / n, "count")
    metrics.update({
        "host.call_s": _metric(sum(r.total_s for r in records) / n, "s"),
        "host.other_s": _metric(sum(r.other_s for r in records) / n, "s"),
        "trace.overhead_ratio": _metric(
            traced / untraced if untraced > 0 else 0.0, "ratio"),
        "kernels.sim_launches": _metric(
            sum(r.kernel_launches for r in records) / n, "count"),
        "kernels.sim_flops": _metric(
            sum(r.kernel_flops for r in records) / n, "flop"),
        "kernels.sim_bytes": _metric(
            sum(r.kernel_bytes for r in records) / n, "B"),
        "telemetry.bundle_bytes": _metric(
            sum(o.bundle_bytes for o in outcomes) / n, "B"),
    })
    build = setup.self_s["datasets.build"]
    load = setup.self_s["frameworks.load"]
    metrics.update({
        "setup.datasets.build_s": _metric(build, "s"),
        "setup.frameworks.load_s": _metric(load, "s"),
        "setup.other_s": _metric(setup.total_s - build - load, "s"),
    })
    for framework, stats in sorted(run.reference.items()):
        for name, value in run.wl.sim_metrics(stats).items():
            metrics[f"sim.{framework}.{name}"] = _metric(
                value, _sim_unit(name))
        metrics[f"sim.{framework}.digest"] = _metric(
            int(run.wl.digest(stats)[:12], 16), "sha256-48")
    return metrics


def _sim_unit(name: str) -> str:
    """Units of the virtual clock are kept apart from host seconds."""
    if name.endswith("_ms"):
        return "virtual_ms"
    if name.endswith("_s"):
        return "virtual_s"
    return {"energy_j": "J", "loss_final": "loss",
            "serve.throughput_rps": "req/virtual_s",
            "serve.batch_size_mean": "requests"}.get(name, "ratio")


def _require_untraced() -> None:
    survivors = installed_wrappers()
    if survivors:
        raise RuntimeError(f"tracing wrappers survive: {survivors}")


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    _cap_blas_threads()  # before numpy is first imported
    sys.path.insert(0, str(SRC))
    import workloads as wl

    scratch = SCRATCH / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(wl, wl.WORKLOADS[args.workload], args.seed, scratch)
        if args.trace:
            metrics = _per_layer(run, args.seconds)
        else:
            metrics = _end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    for framework, stats in sorted(run.reference.items()):
        print(f"sim digest {args.workload} {framework} seed={args.seed}: "
              f"{wl.digest(stats)}")
    print(json.dumps({"correct": run.failed == 0 and run.attempted > 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

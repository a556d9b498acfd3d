"""Loading one telemetry output directory into analyzable form.

A :class:`RunBundle` is the parsed, virtual-clock view of the four run
artifacts (``run.json``, ``events.jsonl``, ``trace.json``,
``metrics.prom``).  Wall-clock fields are deliberately dropped: every
analysis downstream is a deterministic function of the simulation, and
keeping wall time out is what makes the emitted ``repro.profile/1``
artifacts byte-identical across same-seed runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import BenchmarkError

#: Per-kernel counter -> field of a :meth:`RunBundle.kernel_counters` entry.
KERNEL_COUNTERS = {
    "kernel.busy_seconds": "seconds",
    "kernel.flops": "flops",
    "kernel.bytes_moved": "bytes",
    "kernel.invocations": "launches",
}


@dataclass(frozen=True)
class LaneInterval:
    """One device busy interval [start, end) on the virtual clock."""

    lane: str  # device / link / storage lane name
    name: str  # kernel or transfer tag
    start: float  # virtual seconds
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RunBundle:
    """Everything the analyses need from one telemetry directory."""

    manifest: dict
    span_records: List[dict] = field(default_factory=list)
    intervals: List[LaneInterval] = field(default_factory=list)

    @property
    def label(self) -> str:
        return str(self.manifest.get("label", "?"))

    @property
    def total_seconds(self) -> float:
        return float(self.manifest.get("total_seconds", 0.0))

    @property
    def metric_records(self) -> List[dict]:
        return list(self.manifest.get("metrics", []))

    @property
    def hardware(self) -> dict:
        return dict(self.manifest.get("hardware", {}))

    def lanes(self) -> List[str]:
        return sorted({iv.lane for iv in self.intervals})

    def counter_series(self, name: str) -> Dict[tuple, float]:
        """All series of one counter, keyed by sorted label items."""
        series: Dict[tuple, float] = {}
        for record in self.metric_records:
            if record.get("name") != name or record.get("kind") != "counter":
                continue
            key = tuple(sorted(record.get("labels", {}).items()))
            series[key] = series.get(key, 0.0) + float(record.get("value", 0.0))
        return series

    def counter_by_label(self, name: str, label: str) -> Dict[str, float]:
        """One counter summed per value of ``label`` (``"?"`` if absent)."""
        totals: Dict[str, float] = {}
        for labels, value in self.counter_series(name).items():
            key = str(dict(labels).get(label, "?"))
            totals[key] = totals.get(key, 0.0) + value
        return totals

    def kernel_counters(self) -> Dict[Tuple[str, str], Dict[str, float]]:
        """(device, kernel) -> {seconds, flops, bytes, launches}.

        The one join of the per-kernel counters; the roofline, the diff
        and the report all read kernels through it.
        """
        kernels: Dict[Tuple[str, str], Dict[str, float]] = {}
        for metric, field_name in KERNEL_COUNTERS.items():
            for labels, value in self.counter_series(metric).items():
                labeled = dict(labels)
                key = (str(labeled.get("device", "?")),
                       str(labeled.get("kernel", "?")))
                entry = kernels.setdefault(
                    key, dict.fromkeys(KERNEL_COUNTERS.values(), 0.0))
                entry[field_name] += value
        return kernels


def _trace_intervals(payload: dict, time_unit: float = 1e6) -> List[LaneInterval]:
    """Device lanes (pid 0) of a merged Chrome trace, back in seconds."""
    from repro.telemetry.exporters import DEVICE_PID

    events = payload.get("traceEvents", [])
    intervals = []
    for event in events:
        if not isinstance(event, dict) or event.get("ph") != "X":
            continue
        if event.get("pid") != DEVICE_PID:
            continue
        start = float(event["ts"]) / time_unit
        duration = float(event["dur"]) / time_unit
        intervals.append(LaneInterval(
            lane=str(event.get("cat", "?")),
            name=str(event.get("name", "busy")),
            start=start,
            end=start + duration,
        ))
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.lane, iv.name))
    return intervals


def load_run_bundle(out_dir: Union[str, Path]) -> RunBundle:
    """Parse one telemetry directory.

    All four artifacts must pass :func:`~repro.telemetry.manifest.validate_run_dir`
    first; otherwise a :class:`BenchmarkError` names each failing file
    and its first problem.
    """
    from repro.telemetry.exporters import read_events_jsonl
    from repro.telemetry.manifest import load_run_manifest, validate_run_dir

    out = Path(out_dir)
    by_file: Dict[str, List[str]] = {}
    for problem in validate_run_dir(out):
        name, _, detail = problem.partition(": ")
        by_file.setdefault(name, []).append(detail)
    if by_file:
        named = "; ".join(
            f"{name}: {details[0]}"
            + (f" (+{len(details) - 1} more)" if len(details) > 1 else "")
            for name, details in by_file.items())
        raise BenchmarkError(
            f"not a telemetry directory: {out} ({named}); produce one with "
            "`repro train --telemetry DIR`")
    spans = [r for r in read_events_jsonl(out / "events.jsonl")
             if r.get("type") == "span"]
    trace = json.loads((out / "trace.json").read_text())
    return RunBundle(manifest=load_run_manifest(out / "run.json"),
                     span_records=spans,
                     intervals=_trace_intervals(trace))


def device_peaks(bundle: RunBundle) -> Dict[str, dict]:
    """Device name -> spec dict from the manifest's hardware section."""
    devices = bundle.hardware.get("devices")
    return dict(devices) if isinstance(devices, dict) else {}


def link_spec(bundle: RunBundle) -> Optional[dict]:
    link = bundle.hardware.get("link")
    return dict(link) if isinstance(link, dict) else None

"""The run manifest (``run.json``) and schema validation for all artifacts.

``run.json`` is the machine-readable summary of one instrumented run:
what was executed (command, config, dataset, seed), where the time went
(the four-phase rollup derived from the span tree, kernel families),
what moved (the metrics snapshot), and what it cost (energy totals plus
p50/p95/peak power — the paper reports peak power explicitly).

Everything in the manifest is derived from the *virtual* clock and the
seeded simulation, so two runs with the same config and seed emit
byte-identical manifests — asserted by ``tests/test_telemetry.py``.
Wall-clock timings live only in ``events.jsonl``.

The ``validate_*`` functions are the schema gate used by the tests and
by ``repro profile analyze`` (which refuses a bundle that fails it): each
returns a list of human-readable problems, empty when the artifact
conforms.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.profiling.profiler import PHASES
from repro.telemetry.runtime import TelemetrySession

RUN_SCHEMA = "repro.telemetry.run/1"

_REQUIRED_KEYS = {
    "schema": str,
    "command": str,
    "label": str,
    "dataset": str,
    "seed": int,
    "config": dict,
    "phases": dict,
    "phase_fractions": dict,
    "total_seconds": (int, float),
    "kernel_families": dict,
    "spans": dict,
    "metrics": list,
    "hardware": dict,
}

_POWER_STAT_KEYS = ("avg", "p50", "p95", "peak")


def build_provenance() -> dict:
    """Environment fingerprint embedded in run manifests and bench artifacts.

    Perf baselines (``BENCH_*.json``) outlive the environment that
    produced them; recording the interpreter/library versions and the
    active kernel schedule makes a drifted comparison diagnosable.
    Everything here is deterministic within one environment, so manifest
    byte-determinism across same-seed runs is preserved.
    """
    import platform

    import numpy
    import scipy

    from repro.kernels.config import kernel_mode

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.system().lower(),
        "kernel_mode": kernel_mode(),
    }


def build_run_manifest(
    *,
    command: str,
    label: str,
    dataset: str,
    seed: int,
    config: Dict[str, object],
    phases: Dict[str, float],
    kernel_families: Dict[str, float],
    session: TelemetrySession,
    energy=None,
    hardware: Optional[Dict[str, object]] = None,
    extra: Optional[Dict[str, object]] = None,
) -> dict:
    """Assemble the deterministic run summary.

    ``energy`` is an :class:`~repro.power.monitor.EnergyReport` (duck
    typed to avoid the import cycle); None when the run was unmonitored.
    """
    total = sum(phases.values())
    manifest: dict = {
        "schema": RUN_SCHEMA,
        "command": command,
        "label": label,
        "dataset": dataset,
        "seed": int(seed),
        "config": dict(config),
        "phases": {name: float(secs) for name, secs in sorted(phases.items())},
        "phase_fractions": {
            name: (secs / total if total > 0 else 0.0)
            for name, secs in sorted(phases.items())
        },
        "total_seconds": total,
        "kernel_families": {k: float(v) for k, v in sorted(kernel_families.items())},
        "spans": {
            "count": len(session.tracer.spans()),
            "max_depth": session.tracer.max_depth(),
            "phase_spans": len(session.tracer.spans(category="phase")),
        },
        "metrics": session.metrics.snapshot(),
        "hardware": dict(hardware or {}),
        "provenance": build_provenance(),
    }
    if energy is not None:
        manifest["energy"] = {
            "duration_s": energy.duration,
            "samples": energy.samples,
            "cpu_joules": energy.cpu_energy,
            "gpu_joules": energy.gpu_energy,
            "total_joules": energy.total_energy,
            "avg_power_w": energy.avg_power,
            "peak_power_w": energy.peak_power,
            "cpu_power_w": energy.cpu_power_stats(),
            "gpu_power_w": energy.gpu_power_stats(),
        }
    else:
        manifest["energy"] = None
    if extra:
        manifest["extra"] = dict(extra)
    return manifest


def write_run_manifest(path: Union[str, Path], manifest: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_run_manifest(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# validators
# ----------------------------------------------------------------------
def validate_run_manifest(manifest: object) -> List[str]:
    problems: List[str] = []
    if not isinstance(manifest, dict):
        return ["manifest is not a JSON object"]
    for key, types in _REQUIRED_KEYS.items():
        if key not in manifest:
            problems.append(f"missing key {key!r}")
        elif not isinstance(manifest[key], types):
            problems.append(f"key {key!r} has wrong type {type(manifest[key]).__name__}")
    if problems:
        return problems
    if manifest["schema"] != RUN_SCHEMA:
        problems.append(f"unknown schema {manifest['schema']!r} (expected {RUN_SCHEMA})")
    for name, secs in manifest["phases"].items():
        if not isinstance(secs, (int, float)) or secs < 0:
            problems.append(f"phase {name!r} has invalid seconds {secs!r}")
    unknown = set(manifest["phases"]) - set(PHASES)
    if unknown:
        problems.append(f"unknown phase name(s) {sorted(unknown)}")
    fraction_sum = sum(manifest["phase_fractions"].values())
    if manifest["phase_fractions"] and not (0.999 <= fraction_sum <= 1.001):
        problems.append(f"phase fractions sum to {fraction_sum}, expected 1")
    spans = manifest["spans"]
    for key in ("count", "max_depth", "phase_spans"):
        if not isinstance(spans.get(key), int) or spans.get(key, -1) < 0:
            problems.append(f"spans.{key} must be a non-negative integer")
    for record in manifest["metrics"]:
        problems.extend(_validate_metric_record(record))
    problems.extend(_validate_hardware(manifest["hardware"]))
    energy = manifest.get("energy")
    if energy is not None:
        problems.extend(_validate_energy(energy))
    return problems


def _validate_metric_record(record: object) -> List[str]:
    if not isinstance(record, dict):
        return ["metric record is not an object"]
    problems = []
    kind = record.get("kind")
    if kind not in ("counter", "gauge", "histogram"):
        problems.append(f"metric {record.get('name')!r}: unknown kind {kind!r}")
    if not isinstance(record.get("name"), str):
        problems.append("metric record missing name")
    if not isinstance(record.get("labels"), dict):
        problems.append(f"metric {record.get('name')!r}: labels must be an object")
    if kind == "histogram":
        if not isinstance(record.get("buckets"), list):
            problems.append(f"histogram {record.get('name')!r} missing buckets")
        if not isinstance(record.get("count"), int):
            problems.append(f"histogram {record.get('name')!r} missing count")
    elif kind in ("counter", "gauge"):
        if not isinstance(record.get("value"), (int, float)):
            problems.append(f"metric {record.get('name')!r} missing value")
    return problems


def _validate_hardware(hardware: object) -> List[str]:
    """Shape-check the machine description (empty = legacy producer)."""
    if not isinstance(hardware, dict):
        return ["hardware is not an object"]
    if not hardware:
        return []
    problems = []
    devices = hardware.get("devices")
    if not isinstance(devices, dict):
        return ["hardware.devices missing or not an object"]
    for name, spec in devices.items():
        if not isinstance(spec, dict):
            problems.append(f"hardware.devices[{name!r}] is not an object")
            continue
        if spec.get("kind") not in ("cpu", "gpu"):
            problems.append(f"hardware.devices[{name!r}].kind must be cpu/gpu")
        for key in ("peak_flops", "mem_bandwidth"):
            value = spec.get(key)
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(
                    f"hardware.devices[{name!r}].{key} must be positive")
    for section, rate_key in (("link", "bandwidth"),
                              ("storage", "read_bandwidth")):
        payload = hardware.get(section)
        if payload is None:
            continue
        if not isinstance(payload, dict):
            problems.append(f"hardware.{section} is not an object")
        elif not isinstance(payload.get(rate_key), (int, float)):
            problems.append(f"hardware.{section}.{rate_key} missing or "
                            "non-numeric")
    return problems


def _validate_energy(energy: object) -> List[str]:
    if not isinstance(energy, dict):
        return ["energy is not an object"]
    problems = []
    for key in ("duration_s", "samples", "cpu_joules", "gpu_joules",
                "total_joules", "avg_power_w", "peak_power_w"):
        if not isinstance(energy.get(key), (int, float)):
            problems.append(f"energy.{key} missing or non-numeric")
    for rail in ("cpu_power_w", "gpu_power_w"):
        stats = energy.get(rail)
        if not isinstance(stats, dict):
            problems.append(f"energy.{rail} missing")
            continue
        for key in _POWER_STAT_KEYS:
            if not isinstance(stats.get(key), (int, float)):
                problems.append(f"energy.{rail}.{key} missing or non-numeric")
    return problems


def validate_events_records(records: Sequence[object]) -> List[str]:
    problems: List[str] = []
    if not records:
        return ["events stream is empty"]
    header = records[0]
    if not isinstance(header, dict) or header.get("type") != "header":
        problems.append("first record must be the schema header")
    elif header.get("schema") != "repro.telemetry.events/1":
        problems.append(f"unknown events schema {header.get('schema')!r}")
    seen_ids = set()
    for record in records[1:]:
        if not isinstance(record, dict):
            problems.append("record is not an object")
            continue
        rtype = record.get("type")
        if rtype == "span":
            for key in ("id", "name", "ts", "dur", "depth"):
                if key not in record:
                    problems.append(f"span record missing {key!r}")
            span_id = record.get("id")
            if span_id in seen_ids:
                problems.append(f"duplicate span id {span_id}")
            seen_ids.add(span_id)
            parent = record.get("parent")
            if parent is not None and parent not in seen_ids:
                problems.append(f"span {span_id} has unknown parent {parent}")
        elif rtype == "metric":
            problems.extend(_validate_metric_record(record))
        else:
            problems.append(f"unknown record type {rtype!r}")
    return problems


def validate_chrome_trace(payload: object) -> List[str]:
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["trace is not a JSON object"]
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        return ["traceEvents missing or empty"]
    pids = set()
    for event in events:
        if not isinstance(event, dict):
            problems.append("trace event is not an object")
            continue
        if event.get("ph") not in ("X", "M"):
            problems.append(f"unexpected event phase {event.get('ph')!r}")
        if "pid" not in event or "name" not in event:
            problems.append("trace event missing pid/name")
        if event.get("ph") == "X":
            pids.add(event.get("pid"))
            if not isinstance(event.get("ts"), (int, float)) \
                    or not isinstance(event.get("dur"), (int, float)):
                problems.append(f"complete event {event.get('name')!r} missing ts/dur")
    named_lanes = {
        (e.get("pid"), e.get("tid"))
        for e in events
        if isinstance(e, dict) and e.get("ph") == "M"
        and e.get("name") == "thread_name"
    }
    for event in events:
        if isinstance(event, dict) and event.get("ph") == "X":
            if (event.get("pid"), event.get("tid")) not in named_lanes:
                problems.append(
                    f"lane pid={event.get('pid')} tid={event.get('tid')} has "
                    "no thread_name metadata"
                )
                break
    return problems


def validate_prometheus_text(text: str) -> List[str]:
    problems: List[str] = []
    typed = set()
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                problems.append(f"line {line_no}: malformed TYPE comment")
            else:
                typed.add(parts[2])
            continue
        if line.startswith("#"):
            continue
        body = line.rsplit(" ", 1)
        if len(body) != 2:
            problems.append(f"line {line_no}: expected 'name value'")
            continue
        name, value = body
        try:
            float(value)
        except ValueError:
            problems.append(f"line {line_no}: non-numeric value {value!r}")
        base = name.split("{", 1)[0]
        for suffix in ("_bucket", "_sum", "_count"):
            if base.endswith(suffix) and base[: -len(suffix)] in typed:
                base = base[: -len(suffix)]
                break
        if base not in typed:
            problems.append(f"line {line_no}: sample {base!r} has no TYPE comment")
    return problems


def validate_run_dir(out_dir: Union[str, Path]) -> List[str]:
    """Validate all four artifacts of one telemetry output directory."""
    from repro.telemetry.exporters import read_events_jsonl

    out = Path(out_dir)
    problems: List[str] = []
    expected = {
        "run.json": lambda p: validate_run_manifest(json.loads(p.read_text())),
        "events.jsonl": lambda p: validate_events_records(read_events_jsonl(p)),
        "trace.json": lambda p: validate_chrome_trace(json.loads(p.read_text())),
        "metrics.prom": lambda p: validate_prometheus_text(p.read_text()),
    }
    for name, check in expected.items():
        path = out / name
        if not path.exists():
            problems.append(f"{name}: missing")
            continue
        try:
            problems.extend(f"{name}: {p}" for p in check(path))
        except (ValueError, json.JSONDecodeError) as exc:
            problems.append(f"{name}: unparseable ({exc})")
    return problems

"""The versioned ``repro.profile/1`` artifact schema.

Both analysis outputs ship under one schema id with a ``kind``
discriminator:

* ``kind: "analysis"`` — ``profile.json`` from ``repro profile analyze``
  (run summary — phase split, energy, fast-path and per-site fault
  counts — plus critical path, roofline and flamegraph summary for one
  run).
* ``kind: "diff"`` — ``diff.json`` from ``repro profile diff`` (delta
  attribution between two runs).

Writers are atomic and validate before writing, mirroring the
``BENCH_*.json`` conventions in :mod:`repro.bench.artifacts`: a crash
mid-write never leaves a truncated-but-parseable artifact, and an
invalid payload is refused rather than persisted.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Union

PROFILE_SCHEMA = "repro.profile/1"
PROFILE_KINDS = ("analysis", "diff")

_DELTA_AXES = ("spans", "phases", "kernel_families", "kernels", "fastpath")
_DELTA_BUCKETS = ("grown", "shrunk", "appeared", "vanished")


def build_profile_payload(*, run: dict, critical_path: dict, roofline: dict,
                          flame: dict) -> dict:
    """Frame one run's analyses as a ``repro.profile/1`` artifact."""
    return {
        "schema": PROFILE_SCHEMA,
        "kind": "analysis",
        "run": dict(run),
        "critical_path": dict(critical_path),
        "roofline": dict(roofline),
        "flame": dict(flame),
    }


def build_diff_payload(diff: dict) -> dict:
    """Frame a :func:`~repro.profiling.analysis.diff.diff_bundles` result."""
    payload = {"schema": PROFILE_SCHEMA, "kind": "diff"}
    payload.update(diff)
    return payload


def write_profile_json(path: Union[str, Path], payload: dict) -> Path:
    """Validate then atomically write one profile artifact."""
    from repro.bench.artifacts import atomic_write_text

    problems = validate_profile_payload(payload)
    if problems:
        raise ValueError(
            f"refusing to write invalid profile artifact: {problems[0]}"
            + (f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""))
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_profile_json(path: Union[str, Path]) -> dict:
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# validators
# ----------------------------------------------------------------------
def validate_profile_payload(payload: object) -> List[str]:
    """Schema-gate either profile kind; returns human-readable problems."""
    if not isinstance(payload, dict):
        return ["profile payload is not a JSON object"]
    problems: List[str] = []
    if payload.get("schema") != PROFILE_SCHEMA:
        problems.append(f"unknown schema {payload.get('schema')!r} "
                        f"(expected {PROFILE_SCHEMA})")
    kind = payload.get("kind")
    if kind not in PROFILE_KINDS:
        problems.append(f"unknown kind {kind!r} (expected one of "
                        f"{PROFILE_KINDS})")
        return problems
    if kind == "analysis":
        problems.extend(_validate_analysis(payload))
    else:
        problems.extend(_validate_diff(payload))
    return problems


def _validate_analysis(payload: dict) -> List[str]:
    problems: List[str] = []
    for key in ("run", "critical_path", "roofline", "flame"):
        if not isinstance(payload.get(key), dict):
            problems.append(f"missing section {key!r}")
    if problems:
        return problems
    for key in ("phases", "phase_fractions", "fastpath", "faults"):
        if not isinstance(payload["run"].get(key), dict):
            problems.append(f"run.{key} must be an object")
    critical = payload["critical_path"]
    for key in ("makespan", "critical_seconds", "idle_seconds",
                "overlap_seconds", "coverage"):
        if not isinstance(critical.get(key), (int, float)):
            problems.append(f"critical_path.{key} missing or non-numeric")
    if not isinstance(critical.get("segments"), list):
        problems.append("critical_path.segments must be a list")
    if not isinstance(critical.get("by_lane"), dict):
        problems.append("critical_path.by_lane must be an object")
    roofline = payload["roofline"]
    kernels = roofline.get("kernels")
    if not isinstance(kernels, list):
        problems.append("roofline.kernels must be a list")
    else:
        for entry in kernels:
            problems.extend(_validate_roofline_entry(entry))
    if not isinstance(roofline.get("seconds_by_bound"), dict):
        problems.append("roofline.seconds_by_bound must be an object")
    flame = payload["flame"]
    if not isinstance(flame.get("stacks"), int) or flame.get("stacks", -1) < 0:
        problems.append("flame.stacks must be a non-negative integer")
    if not isinstance(flame.get("total_micros"), int):
        problems.append("flame.total_micros must be an integer")
    return problems


def _validate_roofline_entry(entry: object) -> List[str]:
    if not isinstance(entry, dict):
        return ["roofline kernel entry is not an object"]
    problems = []
    name = entry.get("kernel")
    if not isinstance(name, str):
        problems.append("roofline kernel entry missing kernel name")
    if entry.get("bound") not in ("compute", "memory", "transfer",
                                  "overhead", "unknown"):
        problems.append(f"kernel {name!r}: unknown bound "
                        f"{entry.get('bound')!r}")
    for key in ("seconds", "flops", "bytes", "pct_peak_compute",
                "pct_peak_memory"):
        if not isinstance(entry.get(key), (int, float)):
            problems.append(f"kernel {name!r}: {key} missing or non-numeric")
    for key in ("pct_peak_compute", "pct_peak_memory"):
        value = entry.get(key)
        if isinstance(value, (int, float)) and value < 0:
            problems.append(f"kernel {name!r}: {key} is negative")
    return problems


def _validate_diff(payload: dict) -> List[str]:
    problems: List[str] = []
    for key in ("base", "current"):
        if not isinstance(payload.get(key), dict):
            problems.append(f"missing run summary {key!r}")
    if not isinstance(payload.get("delta_total_seconds"), (int, float)):
        problems.append("delta_total_seconds missing or non-numeric")
    if not isinstance(payload.get("identical"), bool):
        problems.append("identical flag missing")
    for axis in _DELTA_AXES:
        axes = payload.get(axis)
        if not isinstance(axes, dict):
            problems.append(f"missing delta axis {axis!r}")
            continue
        for bucket in _DELTA_BUCKETS:
            entries = axes.get(bucket)
            if not isinstance(entries, list):
                problems.append(f"{axis}.{bucket} must be a list")
                continue
            for entry in entries:
                if not isinstance(entry, dict) \
                        or not isinstance(entry.get("key"), str) \
                        or not isinstance(entry.get("delta"), (int, float)):
                    problems.append(f"{axis}.{bucket} entry malformed")
                    break
    return problems

"""Declarative experiment suites.

A suite is a JSON-serializable list of experiment specs.  Each spec's
``kind`` (``train`` / ``fullbatch`` / ``loader`` / ``sampler`` / ``conv``)
picks a harness function and its other keys are that function's keyword
arguments, except that a conv spec names its layer ``conv``.  Every
spec's kind and keys are checked before the first spec runs, so an
unknown key is rejected, never dropped.  :func:`run_suite` executes the
specs in order on fresh machines and returns uniform records;
:func:`save_results` writes them (byte-identical across runs).

Example::

    suite = [
        {"kind": "train", "framework": "dglite", "dataset": "ppi",
         "model": "graphsage", "placement": "cpu", "epochs": 2},
        {"kind": "conv", "framework": "pyglite", "dataset": "reddit",
         "conv": "gat", "device": "gpu"},
    ]
    records = run_suite(suite)
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.bench.harness import (
    measure_conv_forward,
    measure_data_loader,
    measure_sampler_epoch,
    run_fullbatch_experiment,
    run_training_experiment,
)
from repro.errors import BenchmarkError

RUNNERS = {
    "train": run_training_experiment,
    "fullbatch": run_fullbatch_experiment,
    "loader": measure_data_loader,
    "sampler": measure_sampler_epoch,
    "conv": measure_conv_forward,
}
#: Spec defaults that differ from the harness functions' own.
DEFAULTS = {
    "train": {"representative_batches": 2},
    "sampler": {"sampler": "neighbor"},
    "conv": {"conv": "gcn"},
}


def _harness_kwargs(index: int, spec) -> Tuple[str, Dict]:
    """A spec's kind and the keyword arguments of its harness function."""
    if not isinstance(spec, dict):
        raise BenchmarkError(f"spec #{index} is not an object")
    kind = spec.get("kind")
    if kind not in RUNNERS:
        raise BenchmarkError(
            f"spec #{index}: unknown experiment kind {kind!r}; expected one "
            f"of {tuple(RUNNERS)}")
    kwargs = {**DEFAULTS.get(kind, {}), **spec}
    del kwargs["kind"]
    if kind == "conv":
        kwargs["kind"] = kwargs.pop("conv")
    try:
        inspect.signature(RUNNERS[kind]).bind(**kwargs)
    except TypeError as exc:
        raise BenchmarkError(f"spec #{index} ({kind}): {exc}") from None
    return kind, kwargs


def _record(kind: str, result, kwargs: Dict) -> Dict:
    """One finished spec's result fields (the saved record layout)."""
    if kind in ("loader", "sampler"):
        fields = result if kind == "sampler" else {"seconds": result}
        return {"label": f"{kind}/{kwargs['framework']}", **fields}
    if kind == "conv":
        return {"label": result.label, "seconds": result.phases.get("forward"),
                "oom": result.oom}
    if kind == "train":
        fields = {"total_time": result.total_time, "phases": result.phases}
    else:
        fields = {"epoch_time": result.phases.get("training", 0.0)}
    return {"label": result.label, **fields, "avg_power": result.avg_power,
            "energy": result.total_energy, "oom": result.oom}


def run_suite(specs: Sequence[Dict]) -> List[Dict]:
    """Run every spec; each record echoes its spec plus the results."""
    calls = [_harness_kwargs(index, spec) for index, spec in enumerate(specs)]
    records = []
    for spec, (kind, kwargs) in zip(specs, calls):
        result = RUNNERS[kind](**kwargs)
        records.append({"spec": dict(spec), **_record(kind, result, kwargs)})
    return records


def run_suite_file(path: Union[str, Path]) -> List[Dict]:
    """Load a JSON suite file and run it."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read suite file {path}: {exc}") from None
    if not isinstance(payload, list):
        raise BenchmarkError("suite file must contain a JSON list of specs")
    return run_suite(payload)


def save_results(records: List[Dict], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, indent=2))
    return path

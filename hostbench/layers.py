"""Per-layer host tracing: the layer table, patch-site wrappers and self time.

Each :class:`Layer` names the public callables that make up one layer of
the simulator and the patch sites they are called through.  A
:class:`Tracer` swaps those attributes for timing wrappers while it is
installed and puts the originals back on exit.  Inside a traced root (one
harness call) every wrapped call opens a frame; a frame's *self* time is
its duration minus the durations of the wrapped calls nested in it, and
whatever the root spends outside any wrapped call is ``other_s``.  The
self times therefore sum to the root's duration by construction.

The table also records, per layer, the workloads whose end-to-end metrics
it should move and the workloads predicted to make no call into it at
all.  ``tests/test_hostbench_workloads.py`` holds both predictions to a
traced call of each workload.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import process_time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Attribute set on every wrapper, so a surviving patch can be detected.
MARKER = "_hostbench_layer"

#: The clock of every host timing in the benchmark: CPU seconds of this
#: (single-threaded) process.  On a shared virtual machine the hypervisor
#: steals seconds of wall time at random from a run; CPU time leaves
#: them out, so the simulator's own cost is what gets measured.
host_clock = process_time

TRAIN_REDDIT = "train-sage-reddit"
SERVE_PRODUCTS = "serve-products"
FULLBATCH_REDDIT = "fullbatch-reddit"
TRAIN_FLICKR = "train-flickr-telemetry"
TRAINING = (TRAIN_REDDIT, FULLBATCH_REDDIT, TRAIN_FLICKR)
ALL_WORKLOADS = (TRAIN_REDDIT, SERVE_PRODUCTS, FULLBATCH_REDDIT, TRAIN_FLICKR)


@dataclass(frozen=True)
class Layer:
    """One traced layer: metric stem, patch sites, and its predictions.

    ``targets`` are ``"module:attr.path"`` strings naming the attribute
    the caller looks the callable up through.  ``moves`` lists workloads
    whose ``items_per_s``/``call_s.p50`` a speed-up here should move;
    ``zero_calls`` lists workloads predicted never to call the layer.
    """

    name: str
    targets: Tuple[str, ...]
    moves: Tuple[str, ...]
    zero_calls: Tuple[str, ...] = ()
    count_args: Optional[Callable[["CallRecord", tuple, dict], None]] = None


@dataclass
class CallRecord:
    """Host-time account of one traced root (one harness call)."""

    self_s: Dict[str, float] = field(
        default_factory=lambda: defaultdict(float))
    calls: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    kernel_launches: int = 0
    kernel_flops: float = 0.0
    kernel_bytes: float = 0.0
    total_s: float = 0.0
    other_s: float = 0.0


def _count_kernel(record: CallRecord, args: tuple, kwargs: dict) -> None:
    cost = args[1] if len(args) > 1 else kwargs["cost"]
    record.kernel_launches += cost.launches
    record.kernel_flops += cost.flops
    record.kernel_bytes += cost.bytes_moved


_FW = "repro.frameworks.base"
_ADJ = "repro.kernels.adj:SparseAdj"
_SERVE = "repro.serving.engine"

LAYERS: Tuple[Layer, ...] = (
    Layer("sampling.sample",
          (f"{_FW}:_BlockSamplerWrapper.sample_structure",
           f"{_FW}:_BlockSamplerWrapper.sample",
           f"{_FW}:_BlockSamplerWrapper.epoch"),
          moves=(TRAIN_REDDIT, TRAIN_FLICKR),
          zero_calls=(SERVE_PRODUCTS, FULLBATCH_REDDIT)),
    Layer("frameworks.assemble",
          (f"{_FW}:_BlockSamplerWrapper.assemble_features",),
          moves=(TRAIN_REDDIT,),
          # The serial engine assembles inside ``sample``, not here.
          zero_calls=(SERVE_PRODUCTS, FULLBATCH_REDDIT, TRAIN_FLICKR)),
    Layer("tensor.backward", ("repro.tensor.tensor:Tensor.backward",),
          moves=TRAINING, zero_calls=(SERVE_PRODUCTS,)),
    Layer("tensor.optim_step", ("repro.tensor.optim:Adam.step",),
          moves=TRAINING, zero_calls=(SERVE_PRODUCTS,)),
    Layer("kernels.spmm", (f"{_ADJ}.matmul_data", f"{_ADJ}.rmatmul"),
          moves=(FULLBATCH_REDDIT, SERVE_PRODUCTS)),
    # Only the SDDMM / edge-softmax (GAT) paths reduce over edges; the
    # GraphSAGE workloads here aggregate through ``matmul_data``.
    Layer("kernels.segment", (f"{_ADJ}.sum_edges",),
          moves=(), zero_calls=ALL_WORKLOADS),
    Layer("models.batch_blocks", (f"{_SERVE}:batch_blocks",),
          moves=(SERVE_PRODUCTS,), zero_calls=TRAINING),
    Layer("frameworks.cache_record",
          ("repro.frameworks.feature_cache:GpuFeatureCache.record",),
          moves=(SERVE_PRODUCTS,), zero_calls=TRAINING),
    Layer("serving.form_batches", (f"{_SERVE}:form_batches",),
          moves=(SERVE_PRODUCTS,), zero_calls=TRAINING),
    Layer("hardware.execute", ("repro.hardware.device:Device.execute",),
          moves=(TRAIN_FLICKR, SERVE_PRODUCTS), count_args=_count_kernel),
    # The lane scheduler runs under the datapipe and the serving loop;
    # the serial trainer and full-batch training never submit to it.
    Layer("simtime.submit", ("repro.simtime:LaneScheduler.submit",),
          moves=(TRAIN_REDDIT, SERVE_PRODUCTS),
          zero_calls=(FULLBATCH_REDDIT, TRAIN_FLICKR)),
    Layer("simtime.drain", ("repro.simtime:LaneScheduler.drain",),
          moves=(TRAIN_REDDIT, SERVE_PRODUCTS),
          zero_calls=(FULLBATCH_REDDIT, TRAIN_FLICKR)),
    Layer("telemetry.metric_lookup",
          ("repro.telemetry.metrics:MetricsRegistry._get_or_create",),
          moves=(TRAIN_FLICKR,),
          zero_calls=(TRAIN_REDDIT, SERVE_PRODUCTS, FULLBATCH_REDDIT)),
    # ``PhaseProfiler`` keeps its own span tracer, so the training
    # harnesses open a few phase spans even with telemetry off.
    Layer("telemetry.span",
          ("repro.telemetry.spans:SpanTracer.start_span",
           "repro.telemetry.spans:SpanTracer.end_span"),
          moves=(TRAIN_FLICKR,), zero_calls=(SERVE_PRODUCTS,)),
    Layer("telemetry.export",
          ("repro.telemetry.exporters:write_run_artifacts",),
          moves=(TRAIN_FLICKR,),
          zero_calls=(TRAIN_REDDIT, SERVE_PRODUCTS, FULLBATCH_REDDIT)),
    Layer("frameworks.load", (f"{_FW}:Framework.load",), moves=ALL_WORKLOADS),
    Layer("power.monitor",
          ("repro.power.monitor:EnergyMonitor.start",
           "repro.power.monitor:EnergyMonitor.stop",
           "repro.power.monitor:EnergyMonitor._on_advance"),
          moves=ALL_WORKLOADS),
    # The harness and the serving engine both call ``gc.collect`` through
    # the ``gc`` module, so that is the patch site.
    Layer("harness.gc", ("gc:collect",), moves=ALL_WORKLOADS),
    # Cached in-process: a harness call pays a lookup, a cold set-up pays
    # the synthesis (reported separately as ``setup.datasets.build_s``).
    Layer("datasets.build", (f"{_FW}:build_dataset",), moves=ALL_WORKLOADS),
)


def _resolve(target: str) -> Tuple[object, str]:
    """``"pkg.mod:Cls.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _own_attribute(owner: object, attr: str) -> object:
    """The attribute as stored on ``owner`` itself (not inherited)."""
    if inspect.isclass(owner):
        if attr not in vars(owner):
            raise AttributeError(f"{owner.__name__} does not define {attr!r}")
        return vars(owner)[attr]
    return getattr(owner, attr)


def installed_wrappers() -> List[str]:
    """Targets of ``LAYERS`` that currently resolve to a tracing wrapper."""
    found = []
    for layer in LAYERS:
        for target in layer.targets:
            owner, attr = _resolve(target)
            if hasattr(_own_attribute(owner, attr), MARKER):
                found.append(target)
    return found


class Tracer:
    """Installs the layer wrappers and accounts self time per traced root.

    Use as a context manager to install and restore the wrappers; inside,
    each ``with tracer.root() as record:`` block is one traced call.
    Wrapped callables invoked outside a root run untimed.
    """

    def __init__(self, layers: Tuple[Layer, ...] = LAYERS) -> None:
        self._layers = layers
        self._patches: List[Tuple[object, str, object]] = []
        self._record: Optional[CallRecord] = None
        self._stack: List[List[float]] = []  # [start, child seconds]

    def __enter__(self) -> "Tracer":
        try:
            for layer in self._layers:
                for target in layer.targets:
                    owner, attr = _resolve(target)
                    original = _own_attribute(owner, attr)
                    setattr(owner, attr, self._wrap(layer, original))
                    self._patches.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def root(self) -> Iterator[CallRecord]:
        """Trace one root call; the record is complete when the block exits."""
        if self._record is not None:
            raise RuntimeError("traced roots do not nest")
        record = CallRecord()
        self._record = record
        self._stack = [[host_clock(), 0.0]]
        try:
            yield record
        finally:
            end = host_clock()
            start, child = self._stack.pop()
            record.total_s = end - start
            record.other_s = record.total_s - child
            self._record = None

    def _enter(self) -> bool:
        if self._record is None:
            return False
        self._stack.append([host_clock(), 0.0])
        return True

    def _exit(self, layer: str, count: bool) -> None:
        end = host_clock()
        start, child = self._stack.pop()
        duration = end - start
        self._stack[-1][1] += duration
        self._record.self_s[layer] += duration - child
        if count:
            self._record.calls[layer] += 1

    def _wrap(self, layer: Layer, original: Callable) -> Callable:
        name = layer.name
        count_args = layer.count_args

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self._enter():
                return original(*args, **kwargs)
            try:
                if count_args is not None:
                    count_args(self._record, args, kwargs)
                result = original(*args, **kwargs)
            finally:
                self._exit(name, count=True)
            if inspect.isgenerator(result):
                return self._resumes(name, result)
            return result

        setattr(wrapper, MARKER, name)
        return wrapper

    def _resumes(self, name: str, generator: Iterator) -> Iterator:
        """Time each resume of a wrapped generator as more self time."""
        while True:
            if not self._enter():
                yield from generator
                return
            try:
                item = next(generator)
            except StopIteration:
                return
            finally:
                self._exit(name, count=False)
            yield item

"""The tracer's self-time identity and wrapper lifetime."""

import math
import sys
import types

import pytest

from layers import (LAYERS, Layer, Tracer, _own_attribute, _resolve,
                    host_clock, installed_wrappers)


def _burn(seconds):
    """Spend ``seconds`` of the clock the tracer reads."""
    end = host_clock() + seconds
    while host_clock() < end:
        pass


@pytest.fixture
def toy(monkeypatch):
    """A module with nested calls, a generator and a kernel-like method."""
    module = types.ModuleType("hostbench_toy")

    def leaf():
        _burn(0.002)

    def middle():
        _burn(0.001)
        module.leaf()
        module.leaf()

    def outer():
        module.middle()
        _burn(0.001)

    def stream(n):
        for i in range(n):
            module.leaf()
            yield i

    module.leaf, module.middle, module.outer = leaf, middle, outer
    module.stream = stream
    monkeypatch.setitem(sys.modules, "hostbench_toy", module)
    return module


TOY_LAYERS = (
    Layer("toy.leaf", ("hostbench_toy:leaf",), moves=()),
    Layer("toy.middle", ("hostbench_toy:middle",), moves=()),
    Layer("toy.outer", ("hostbench_toy:outer", "hostbench_toy:stream"),
          moves=()),
)


def _assert_identity(record):
    covered = sum(record.self_s.values()) + record.other_s
    assert math.isclose(covered, record.total_s, rel_tol=1e-9, abs_tol=1e-12)


def test_self_times_and_other_sum_to_the_traced_call(toy):
    with Tracer(TOY_LAYERS) as tracer:
        with tracer.root() as record:
            toy.outer()
            assert list(toy.stream(3)) == [0, 1, 2]
            _burn(0.001)
    _assert_identity(record)
    assert record.calls == {"toy.outer": 2, "toy.middle": 1, "toy.leaf": 5}
    # Five 2 ms leaves are leaf self time, never charged to their callers.
    assert record.self_s["toy.leaf"] >= 0.010
    assert record.self_s["toy.middle"] < record.self_s["toy.leaf"]
    assert record.other_s >= 0.001


def test_wrapped_calls_outside_a_root_run_untimed(toy):
    with Tracer(TOY_LAYERS) as tracer:
        toy.outer()
        with tracer.root() as record:
            toy.leaf()
    assert record.calls == {"toy.leaf": 1}
    _assert_identity(record)


def test_no_wrapper_survives_the_tracer():
    originals = {}
    for layer in LAYERS:
        for target in layer.targets:
            originals[target] = _own_attribute(*_resolve(target))
    assert installed_wrappers() == []
    with pytest.raises(KeyError):
        with Tracer():
            assert sorted(installed_wrappers()) == sorted(originals)
            raise KeyError("body fails")
    assert installed_wrappers() == []
    for target, original in originals.items():
        assert _own_attribute(*_resolve(target)) is original


def test_real_call_identity_and_unmoved_simulation(tmp_path):
    import workloads as wl

    workload = wl.WORKLOADS["train-flickr-telemetry"]
    untraced = wl.call(workload, "dglite", 0, tmp_path)
    with Tracer() as tracer:
        traced = wl.call(workload, "dglite", 0, tmp_path, root=tracer.root)
    assert installed_wrappers() == []
    _assert_identity(traced.trace)
    assert traced.trace.calls["telemetry.export"] == 1
    assert traced.problems == untraced.problems == []
    assert traced.stats == untraced.stats

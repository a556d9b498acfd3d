"""Tests for the declarative experiment suite runner."""

import functools
import json

import pytest

from repro.bench import suite
from repro.bench.suite import run_suite, run_suite_file, save_results
from repro.cli import main
from repro.errors import BenchmarkError
from repro.frameworks import Framework

SMALL_SUITE = [
    {"kind": "loader", "framework": "dglite", "dataset": "ppi"},
    {"kind": "sampler", "framework": "dglite", "dataset": "ppi",
     "sampler": "saint_rw"},
    {"kind": "conv", "framework": "pyglite", "dataset": "ppi", "conv": "sage"},
    {"kind": "train", "framework": "dglite", "dataset": "ppi",
     "model": "graphsage", "epochs": 1, "representative_batches": 1},
    {"kind": "fullbatch", "framework": "pyglite", "dataset": "ppi",
     "epochs": 1},
]


class TestRunSuite:
    def test_runs_every_spec(self):
        records = run_suite(SMALL_SUITE)
        assert len(records) == len(SMALL_SUITE)
        for record, spec in zip(records, SMALL_SUITE):
            assert record["spec"] == spec
            assert "label" in record

    def test_train_record_fields(self):
        record = run_suite(SMALL_SUITE[3:4])[0]
        assert record["total_time"] > 0
        assert record["energy"] > 0
        assert not record["oom"]

    def test_conv_oom_surfaces_in_record(self):
        record = run_suite([{"kind": "conv", "framework": "pyglite",
                             "dataset": "reddit", "conv": "gat",
                             "device": "gpu"}])[0]
        assert record["oom"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(BenchmarkError):
            run_suite([{"kind": "quantum"}])

    def test_non_dict_spec_rejected(self):
        with pytest.raises(BenchmarkError):
            run_suite(["train"])

    def test_deterministic_across_runs(self):
        a = run_suite(SMALL_SUITE[:2])
        b = run_suite(SMALL_SUITE[:2])
        assert a == b

    def test_unknown_key_rejected_before_any_spec_runs(self, monkeypatch,
                                                        tmp_path, capsys):
        calls = []
        run = suite.RUNNERS["loader"]

        @functools.wraps(run)
        def spy(*args, **kwargs):
            calls.append(kwargs)
            return run(*args, **kwargs)

        monkeypatch.setitem(suite.RUNNERS, "loader", spy)
        path = tmp_path / "suite.json"
        path.write_text(json.dumps([SMALL_SUITE[0],
                                    {**SMALL_SUITE[0], "bogus": 1}]))
        with pytest.raises(SystemExit) as excinfo:
            main(["suite", str(path)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro suite: spec #1")
        assert "bogus" in captured.err
        assert calls == []

    def test_missing_required_key_rejected(self):
        with pytest.raises(BenchmarkError, match="framework"):
            run_suite([{"kind": "loader", "dataset": "ppi"}])

    def test_pipeline_key_is_honoured(self):
        serial = {"kind": "train", "framework": "dglite", "dataset": "ppi",
                  "model": "graphsage", "placement": "cpugpu", "epochs": 1}
        piped = {**serial, "pipeline": "depth-4"}
        a, b = run_suite([serial, piped])
        assert a["label"] == "DGL-CPUGPU"
        assert b["label"].endswith("+pipe4")
        assert b["total_time"] != a["total_time"]


@pytest.mark.parametrize("spec, message", [
    ({"kind": "loader", "framework": "tf", "dataset": "ppi"},
     "unknown framework 'tf'"),
    ({"kind": "conv", "framework": "dglite", "dataset": "ppi",
      "conv": "bogus"},
     "unknown conv kind 'bogus'"),
])
def test_bad_value_exits_2_before_loading(spec, message, monkeypatch,
                                          tmp_path, capsys):
    loads = []
    monkeypatch.setattr(Framework, "load",
                        lambda self, *args, **kwargs: loads.append(args))
    path = tmp_path / "suite.json"
    path.write_text(json.dumps([spec]))
    with pytest.raises(SystemExit) as excinfo:
        main(["suite", str(path)])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("repro suite: ")
    assert captured.err.count("\n") == 1
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert loads == []


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        records = run_suite(SMALL_SUITE[:2])
        path = save_results(records, tmp_path / "out" / "results.json")
        assert json.loads(path.read_text()) == json.loads(json.dumps(records))

    def test_run_suite_file(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(SMALL_SUITE[:1]))
        records = run_suite_file(path)
        assert len(records) == 1

    def test_suite_file_must_be_list(self, tmp_path):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"kind": "loader"}))
        with pytest.raises(BenchmarkError):
            run_suite_file(path)

"""Tests for the command-line interface."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["loader", "--dataset", "cora"])

    def test_dataset_all_expands(self):
        args = build_parser().parse_args(["loader", "--dataset", "all"])
        assert len(args.dataset) == 6

    def test_train_defaults(self):
        args = build_parser().parse_args(["train"])
        assert args.model == "graphsage"
        assert args.placement == "cpu"
        assert args.epochs == 10


class TestCommands:
    def test_datasets_prints_table1(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "reddit" in out
        assert "114,615,892" in out

    def test_loader(self, capsys):
        assert main(["loader", "--dataset", "ppi"]) == 0
        out = capsys.readouterr().out
        assert "ppi" in out and "s" in out

    def test_samplers(self, capsys):
        assert main(["samplers", "--dataset", "ppi", "--sampler", "saint_rw"]) == 0
        out = capsys.readouterr().out
        assert "saint_rw" in out and "x" in out

    def test_conv(self, capsys):
        assert main(["conv", "--dataset", "ppi", "--kind", "sage"]) == 0
        out = capsys.readouterr().out
        assert "sage" in out and "ms" in out

    def test_conv_reports_oom(self, capsys):
        assert main(["conv", "--dataset", "reddit", "--kind", "gat",
                     "--device", "gpu"]) == 0
        out = capsys.readouterr().out
        assert "OOM" in out

    def test_train(self, capsys):
        assert main(["train", "--dataset", "ppi", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "sampling" in out and "avg power" in out

    def test_train_with_cache(self, capsys):
        assert main(["train", "--dataset", "ppi", "--epochs", "1",
                     "--placement", "cpugpu", "--cache-fraction", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "cache50" in out

    def test_fullbatch(self, capsys):
        assert main(["fullbatch", "--dataset", "ppi", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "ms/epoch" in out


class TestSuiteCommand:
    def _suite_file(self, tmp_path):
        import json
        path = tmp_path / "suite.json"
        path.write_text(json.dumps([
            {"kind": "loader", "framework": "dglite", "dataset": "ppi"},
        ]))
        return path

    def test_runs_and_prints_records(self, tmp_path, capsys):
        assert main(["suite", str(self._suite_file(tmp_path))]) == 0
        out = capsys.readouterr().out
        assert "loader/dglite" in out

    def test_writes_results(self, tmp_path, capsys):
        out_file = tmp_path / "results.json"
        assert main(["suite", str(self._suite_file(tmp_path)),
                     "--out", str(out_file)]) == 0
        assert out_file.exists()



class TestReportCommand:
    def test_aggregates_result_tables(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "fig99_demo.txt").write_text("Figure 99: demo\ncells")
        assert main(["report", "--results-dir", str(results)]) == 0
        out = capsys.readouterr().out
        assert "fig99_demo" in out and "Figure 99" in out

    def test_writes_to_file(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "a.txt").write_text("table A")
        out_file = tmp_path / "report.txt"
        assert main(["report", "--results-dir", str(results),
                     "--out", str(out_file)]) == 0
        assert "table A" in out_file.read_text()

    def test_empty_results_dir_errors(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["report", "--results-dir", str(empty)]) == 1


class TestResilienceCli:
    PLAN = {
        "seed": 0,
        "faults": [
            {"site": "storage.read", "kind": "error"},
            {"site": "transfer.h2d", "kind": "stall", "stall_seconds": 0.01},
        ],
    }

    def _write_plan(self, tmp_path):
        import json
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.PLAN))
        return path

    def test_train_with_fault_plan(self, tmp_path, capsys):
        plan = self._write_plan(tmp_path)
        assert main(["train", "--dataset", "ppi", "--epochs", "1",
                     "--placement", "cpugpu", "--faults", str(plan)]) == 0
        out = capsys.readouterr().out
        assert "faults: 2 injected, 2 recovered" in out

    def test_profile_analyze_shows_fault_line_per_site(self, tmp_path,
                                                       capsys):
        plan = self._write_plan(tmp_path)
        out_dir = tmp_path / "telemetry"
        assert main(["train", "--dataset", "ppi", "--epochs", "1",
                     "--placement", "cpugpu", "--faults", str(plan),
                     "--telemetry", str(out_dir)]) == 0
        capsys.readouterr()
        assert main(["profile", "analyze", str(out_dir)]) == 0
        fault_lines = [line for line in capsys.readouterr().out.splitlines()
                       if line.startswith("faults ")]
        assert fault_lines == [
            "faults storage.read: 1 injected, 1 recovered, 1 retries, "
            "0 degraded",
            "faults transfer.h2d: 1 injected, 1 recovered, 0 retries, "
            "0 degraded",
        ]

    def test_checkpoint_halt_and_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.npz"
        assert main(["train", "--dataset", "ppi", "--epochs", "3",
                     "--checkpoint-every", "1", "--checkpoint", str(ckpt),
                     "--halt-after", "2"]) == 0
        out = capsys.readouterr().out
        assert "halted after" in out
        assert ckpt.exists()
        assert main(["train", "--dataset", "ppi", "--epochs", "3",
                     "--resume-from", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "avg power" in out

    def test_missing_plan_file_fails_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--dataset", "ppi", "--epochs", "1",
                  "--faults", "/nonexistent/plan.json"])


# Every argv here is bad input: each must exit 2 before any work, with
# one `repro <command>: ` line on stderr and nothing on stdout.
REJECTED = [
    "train --preload",
    "train --seed -1",
    "serve --seed -1",
    "fullbatch --seed -1",
    "samplers --seed -1",
    "bench sweep --seeds -1",
    "train --placement cpugpu --cache-fraction -0.1",
    "train --placement cpugpu --cache-fraction 1.5",
    "fullbatch --epochs 0",
    "serve --scale 0",
    "serve --nodes-per-request 0",
    "bench gate --k -1",
    "bench gate --rel-slack -5",
    "train --epochs 0",
    "train --workers -1",
    "train --checkpoint-every -1",
    "train --halt-after 0",
    "train --model clustergcn --placement gpu",
    "train --faults /nonexistent",
    "serve --faults /nonexistent",
    "train --resume-from /nonexistent.npz",
    "serve --requests 0",
    "serve --budget-ms -1",
    "serve --max-batch 0",
    "serve --cache-fraction 1.5",
    "serve --rates 100,abc",
    "suite /nonexistent.json",
]


@pytest.mark.parametrize("argv", REJECTED)
def test_bad_input_exits_2_with_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # nothing a rejected run writes may land
    args = argv.split()
    if args[0] in ("train", "fullbatch", "samplers"):
        args += ["--dataset", "ppi"]
    if args[0] in ("train", "fullbatch") and "--epochs" not in args:
        args += ["--epochs", "1"]
    with pytest.raises(SystemExit) as excinfo:
        main(args)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    command = args[0]
    assert captured.err.startswith(f"repro {command}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert "Traceback" not in captured.err
    assert captured.out == ""


# Bounded CLI fuzz: argv built from boundary values must either run
# (exit 0) or be rejected (exit 2); no other exception may escape.
BOUNDARY = ("-1", "0", "1", "1.5", "abc")
FUZZ_COMMANDS = {
    # command: (flags always drawn, flags maybe drawn, choice flags)
    "train": (("--epochs",),
              ("--workers", "--cache-fraction", "--seed", "--halt-after"),
              {"--placement": ("cpu", "cpugpu", "gpu", "uvagpu"),
               "--model": ("graphsage", "clustergcn", "graphsaint"),
               "--pipeline": ("off", "depth-2", "depth-0", "bogus"),
               "--preload": None, "--prefetch": None}),
    "serve": (("--requests",),
              ("--rates", "--nodes-per-request", "--budget-ms",
               "--max-batch", "--cache-fraction", "--seed", "--scale"),
              {"--framework": ("dglite", "pyglite", "both"),
               "--placement": ("cpu", "cpugpu"),
               "--pipeline": ("off", "depth-2", "bogus"),
               "--trace": ("poisson", "bursty", "diurnal"),
               "--degraded": ("shed", "stale")}),
    "fullbatch": (("--epochs",), ("--seed",),
                  {"--device": ("cpu", "gpu"),
                   "--framework": ("dglite", "pyglite")}),
    "samplers": ((), ("--seed",),
                 {"--sampler": ("neighbor", "cluster", "saint_rw")}),
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    always, maybe, choices = FUZZ_COMMANDS[command]
    argv = [command, "--dataset", "ppi"]
    for flag in always:
        argv += [flag, draw(st.sampled_from(BOUNDARY))]
    for flag in maybe:
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(BOUNDARY))]
    for flag, values in choices.items():
        if draw(st.booleans()):
            argv += [flag] if values is None else [
                flag, draw(st.sampled_from(values))]
    return argv


@settings(max_examples=25, deadline=None, derandomize=True)
@given(argv=fuzz_argv())
def test_fuzzed_argv_runs_or_exits_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()

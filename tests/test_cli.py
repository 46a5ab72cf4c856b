import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dcsp
import dcsp.cli
from dcsp.cli import build_parser, main, parse_values
from dcsp.linalg import RankDeficientError

README = Path(__file__).resolve().parent.parent / "README.md"


class TestParseValues:
    def test_range(self):
        assert parse_values("22:50:2") == tuple(range(22, 51, 2))

    def test_range_default_step(self):
        assert parse_values("3:6") == (3, 4, 5, 6)

    def test_comma_list(self):
        assert parse_values("26,30") == (26, 30)

    def test_single(self):
        assert parse_values("26") == (26,)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            parse_values("10:5")

    @pytest.mark.parametrize("command, flag, text", [
        ("fig1", "--M", ""), ("fig1", "--M", "22:x"), ("fig1", "--M", "22,,26"),
        ("fig1", "--M", "1:2:3:4"), ("fig2", "--L", "5:x:5"), ("fig1", "--M", "0:0:0"),
        ("trial", "--g", "2.5"), ("trial", "--algorithm", "somp"),
    ])
    def test_bad_values_name_the_flag_and_text(self, capsys, no_draw, command, flag, text):
        code = main([command, flag, text])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err
        assert repr(text) in captured.err


class TestCostCommand:
    def test_all_rows(self, capsys):
        code = main(["cost", "--N", "200", "--K", "10", "--L", "6", "--g", "3", "--T", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "jsp_jomp: 300\nsomp: 60000\ndcomp: 7290\nssp: 25890\ndcsp: 11610\n"
        assert main(["cost", "--T", "3"]) == 0  # the defaults are those values
        assert capsys.readouterr().out == out

    def test_single_row(self, capsys):
        code = main(["cost", "--algorithm", "ssp", "--N", "200", "--K", "10",
                     "--L", "6", "--T", "1"])
        assert code == 0
        assert "ssp: 12630" in capsys.readouterr().out

    @pytest.mark.parametrize("flags, message", [
        (["--g", "1"], "need g >= 2, got g=1"),
        (["--K", "300"], "need K <= N, got K=300 and N=200"),
        (["--g", "9", "--L", "6"], "need g <= L, got g=9 and L=6"),
    ])
    def test_out_of_bounds_rejected(self, capsys, flags, message):
        code = main(["cost", "--T", "3"] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_g_free_row_ignores_the_g_default(self, capsys):
        # ssp never reads g, so L=2 must not trip the g=3 default of the g rows
        code = main(["cost", "--algorithm", "ssp", "--L", "2", "--T", "3"])
        assert code == 0
        assert capsys.readouterr().out == "ssp: 1726\n"
        code = main(["cost", "--algorithm", "dcsp", "--L", "2", "--T", "3"])
        assert code == 2
        assert "need g <= L, got g=3 and L=2" in capsys.readouterr().err

    def test_missing_T_fails_cleanly(self, capsys):
        code = main(["cost", "--algorithm", "ssp"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTrialCommand:
    ARGS = ["trial", "--N", "40", "--M", "20", "--K", "3", "--L", "4", "--seed", "5"]

    def test_transcript_and_exit_code(self, capsys):
        code = main(self.ARGS + ["--algorithm", "ssp"])
        out = capsys.readouterr().out
        assert code == 0
        assert "true support:" in out
        assert "t=0:" in out
        assert "wire total:" in out

    def test_deterministic_output(self, capsys):
        main(self.ARGS)
        first = capsys.readouterr().out
        main(self.ARGS)
        second = capsys.readouterr().out
        assert first == second

    def test_expect_success_flag(self, capsys):
        code = main(self.ARGS + ["--algorithm", "ssp", "--expect-success"])
        assert code == 0

    def test_ssp_matches_dcsp_at_full_collaboration(self, capsys):
        args = ["--N", "30", "--M", "16", "--K", "3", "--L", "4", "--seed", "77"]
        supports = []
        for algorithm in ("ssp", "dcsp"):  # dcsp's g defaults to L
            assert main(["trial", "--algorithm", algorithm] + args) == 0
            out = capsys.readouterr().out
            assert "L=4 g=4" in out
            supports.append(out.split("recovered support: ")[1])
        assert supports[0] == supports[1]

    def test_explicit_topology_flag(self, capsys):
        code = main(self.ARGS + ["--topology", "1,3,4;2,4;3,1;4,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "topology=explicit" in out
        # ssp collaborates fully whatever the listing: it prints, header
        # included, what it prints with none
        code = main(self.ARGS + ["--algorithm", "ssp", "--topology", "1,3,4;2,4;3,1;4,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "trial: algorithm=ssp N=40 M=20 K=3 L=4 g=4 seed=5"
        assert main(self.ARGS + ["--algorithm", "ssp"]) == 0
        assert capsys.readouterr().out == out

    def test_readme_trial_sends_what_cost_counts(self, capsys):
        # the README's trial stops after two iterations, and its wire total is
        # the cost model's at T=2; unlike its pinned transcript, no BLAS
        # kernel moves this
        assert main(["cost", "--algorithm", "dcsp", "--N", "200", "--K", "10", "--L", "6",
                     "--g", "3", "--T", "2"]) == 0
        cost = capsys.readouterr().out.removeprefix("dcsp: ").strip()
        assert main(["trial", "--algorithm", "dcsp", "--N", "200", "--M", "50", "--K", "10",
                     "--L", "6", "--g", "3", "--seed", "7", "--expect-success"]) == 0
        assert f"\nwire total: {cost} (" in capsys.readouterr().out

    def test_bad_topology_token_named(self, capsys, no_draw):
        code = main(self.ARGS + ["--topology", "1,x;2;3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "bad node id 'x' in listing '1,x;2;3'" in captured.err

    def test_m_below_2k_rejected(self, capsys, no_draw):
        code = main(["trial", "--N", "50", "--M", "15", "--K", "10", "--L", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: need M >= 2K, got M=15 and K=10" in captured.err

    def test_negative_seed_rejected(self, capsys, no_draw):
        code = main(["trial", "--seed", "-5", "--N", "40", "--M", "20", "--K", "4", "--L", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "need 0 <= seed < 2**64, got seed=-5" in captured.err

    def test_seed_past_64_bits_rejected_before_any_draw(self, capsys, no_draw):
        code = main(["fig1", "--M", "20", "--N", "40", "--K", "4", "--L", "3",
                     "--trials", "1", "--seed", str(2**64 + 1)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"need 0 <= seed < 2**64, got seed={2**64 + 1}" in captured.err

    def test_topology_size_mismatch_rejected_before_any_draw(self, capsys, no_draw):
        # ssp, which reads only the topology's L, checks it all the same
        for algorithm in ("ssp", "dcsp"):
            code = main(["trial", "--algorithm", algorithm, "--topology", "1,2;2,3;3,1"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "topology has 3 nodes, problem has L=6" in captured.err

    def test_max_iters_below_1_rejected_before_any_draw(self, capsys, no_draw):
        for algorithm in ("ssp", "dcsp"):
            code = main(self.ARGS + ["--algorithm", algorithm, "--max-iters", "0"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "need max_iters >= 1, got max_iters=0" in captured.err


class TestFigureCommands:
    def test_exhausted_redraws_exit_2_naming_the_trial(self, capsys, monkeypatch):
        def always_deficient(algorithms, instances, *args, **kwargs):
            raise RankDeficientError("forced")

        monkeypatch.setattr(dcsp.experiments, "run_batch", always_deficient)
        code = main(["fig1", "--M", "20", "--N", "40", "--K", "4", "--L", "3", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: M=20 trial 0: all 6 draws were rank deficient" in captured.err

    def test_fig1_tiny(self, capsys, tmp_path):
        out = tmp_path / "f1"
        code = main([
            "fig1", "--M", "16,20", "--N", "40", "--K", "3", "--L", "4",
            "--trials", "3", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        assert (tmp_path / "f1.csv").exists()
        assert (tmp_path / "f1.dat").exists()
        assert "M=16" in capsys.readouterr().out

    def test_fig2_tiny(self, capsys, tmp_path):
        out = tmp_path / "f2"
        code = main([
            "fig2", "--L", "2,4", "--N", "40", "--K", "3", "--M", "20",
            "--trials", "2", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        text = (tmp_path / "f2.csv").read_text()
        assert "somp_analytic_messages" in text

    def test_sweep_below_2k_rejected(self, capsys, no_draw):
        code = main([
            "fig1", "--M", "15", "--N", "50", "--K", "10", "--L", "4", "--trials", "1",
        ])
        assert code == 2
        assert "M=15: need M >= 2K" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--g", "1"], "need g >= 2, got g=1"),
        (["--L", "1,5"], "L=1: need L >= 2, got L=1"),
        (["--algorithms", "ssp,ssp"], "algorithms=('ssp', 'ssp') names one twice"),
        (["--algorithms", ""], "got algorithms=()"),
        (["--K", "0"], "need K >= 1, got K=0"),
        (["--N", "8", "--K", "10"], "need K <= N, got K=10 and N=8"),
    ])
    def test_bad_sweep_rejected(self, capsys, no_draw, flags, message):
        code = main(["fig2", "--L", "5", "--N", "40", "--K", "3", "--M", "20",
                     "--trials", "1"] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_repeated_sweep_value_rejected(self, capsys, no_draw):
        code = main(["fig1", "--M", "20,20", "--N", "40", "--K", "4", "--L", "3",
                     "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "values=(20, 20) names 20 twice" in captured.err

    def test_missing_out_directory_rejected_before_any_draw(self, capsys, tmp_path, no_draw):
        missing = tmp_path / "missing" / "x"
        code = main(["fig1", "--M", "20:24:2", "--N", "40", "--K", "4", "--L", "3",
                     "--trials", "30", "--out", str(missing)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"directory {tmp_path / 'missing'} does not exist" in captured.err


# Every option of every subcommand, set to a value that no default takes,
# with the value the library call must receive.  `trial --expect-success`
# sets the exit code and reaches no library call.
EVERY_OPTION = {
    "fig1": {"--M": ("22,26", (22, 26)), "--L": ("7", 7), "--N": ("201", 201),
             "--K": ("11", 11), "--g": ("4", 4), "--seed": ("5", 5),
             "--trials": ("3", 3), "--jobs": ("2", 2), "--out": ("stem", "stem"),
             "--algorithms": ("ssp", ("ssp",))},
    "fig2": {"--L": ("5:9:2", (5, 7, 9)), "--M": ("51", 51), "--N": ("201", 201),
             "--K": ("11", 11), "--g": ("4", 4), "--seed": ("5", 5),
             "--trials": ("3", 3), "--jobs": ("2", 2), "--out": ("stem", "stem"),
             "--algorithms": ("dcsp", ("dcsp",))},
    "trial": {"--algorithm": ("ssp", "ssp"), "--N": ("201", 201), "--M": ("51", 51),
              "--K": ("11", 11), "--L": ("7", 7), "--g": ("4", 4), "--seed": ("5", 5),
              "--max-iters": ("9", 9), "--topology": ("1,2;2,1", "1,2;2,1")},
    "cost": {"--algorithm": ("ssp", "ssp"), "--N": ("201", 201), "--K": ("11", 11),
             "--L": ("7", 7), "--g": ("4", 4), "--T": ("9", 9)},
}


def _subparsers():
    parser = build_parser()
    (choices,) = [a.choices for a in parser._actions if isinstance(a.choices, dict)]
    return choices


@pytest.mark.parametrize("command", sorted(EVERY_OPTION))
def test_every_option_reaches_the_library(monkeypatch, command):
    received = []
    instance = dcsp.generate(dcsp.ProblemConfig(N=12, M=8, K=2, L=3, seed=0))
    run = dcsp.dcsp_run(instance, None)

    def record(*args, **kwargs):
        received.extend((*args, *kwargs.values()))
        return types.SimpleNamespace(sweep="M", out=None, L=7)  # trial's L for its ring

    def record_draw(*args):
        record(*args)
        return instance  # a real draw and run, for the transcript

    def record_run(algorithms, *args):
        record(*algorithms, *args)  # the algorithm names one by one
        return {algorithm: [run] for algorithm in algorithms}

    for name in ("ExperimentConfig", "ProblemConfig", "CostParams", "cost_table1",
                 "topology_from_listing", "ring_topology", "_run_limits"):
        monkeypatch.setattr(dcsp.cli, name, record)
    monkeypatch.setattr(dcsp.cli, "generate", record_draw)
    monkeypatch.setattr(dcsp.cli, "run_batch", record_run)
    monkeypatch.setattr(dcsp.experiments, "run_sweep", lambda config: [])
    options = EVERY_OPTION[command]
    flags = {
        flag for action in _subparsers()[command]._actions for flag in action.option_strings
    } - {"-h", "--help"}
    if command == "trial":
        flags.remove("--expect-success")
    assert flags == set(options)

    def argv(*left_out):
        return [command] + [token for flag, (text, _) in options.items()
                            if flag not in left_out for token in (flag, text)]

    if command == "trial":  # --g and --topology exclude each other
        assert main(argv("--g")) == main(argv("--topology")) == 0
    else:
        assert main(argv()) == 0
    for flag, (_, value) in options.items():
        assert any(type(v) is type(value) and v == value for v in received), flag


@pytest.mark.parametrize("argv, message", [
    (["trial", "--g", "1"], "need g >= 2, got g=1"),
    (["cost", "--g", "1", "--T", "1"], "need g >= 2, got g=1"),
    (["fig1", "--M", "22", "--trials", "1", "--g", "1"], "need g >= 2, got g=1"),
    (["fig2", "--L", "5", "--trials", "1", "--g", "1"], "need g >= 2, got g=1"),
    (["trial", "--g", "9"], "need g <= L, got g=9 and L=6"),
    (["cost", "--g", "9", "--T", "1"], "need g <= L, got g=9 and L=6"),
    (["fig1", "--M", "22", "--trials", "1", "--g", "9"], "need g <= L, got g=9 and L=6"),
    # ssp runs on full collaboration, but its g obeys the bound, as on `cost`
    (["trial", "--algorithm", "ssp", "--g", "9", "--L", "3"], "need g <= L, got g=9 and L=3"),
    # argparse refuses --g beside --topology, the two being one exclusive group
    (["trial", "--g", "2", "--topology", "1,2;2,1", "--L", "2"],
     "argument --topology: not allowed with argument --g"),
])
def test_g_bound_has_one_message_per_violation(capsys, no_draw, argv, message):
    # 2 <= g <= L is checked in one place, before any draw
    assert main(argv) == 2
    out, err = capsys.readouterr()
    # argparse's own refusal follows the usage line and names the subcommand
    usage = "" if err.startswith("error: ") else (
        _subparsers()[argv[0]].format_usage() + f"dcsp {argv[0]}: ")
    assert (out, err) == ("", f"{usage}error: {message}\n")


@pytest.mark.parametrize("argv, sweep", [
    (["fig1", "--M", "16", "--N", "40", "--K", "3", "--L", "4", "--trials", "1"], "M"),
    (["fig2", "--L", "2", "--N", "40", "--K", "3", "--M", "20", "--trials", "1"], "L"),
])
def test_figures_run_through_the_module_run_sweep(monkeypatch, capsys, argv, sweep):
    # perfbench reads each sweep's rows by patching dcsp.experiments.run_sweep
    configs = []

    def run_sweep(config):
        configs.append(config)
        return []

    monkeypatch.setattr(dcsp.experiments, "run_sweep", run_sweep)
    assert main(argv) == 0
    assert [config.sweep for config in configs] == [sweep]


@pytest.mark.parametrize("sweep", list(dcsp.FIGURES))
def test_figure_commands_follow_their_row(capsys, tmp_path, sweep):
    row = dcsp.FIGURES[sweep]
    args = build_parser().parse_args([row.name])
    # fig1 leaves trials unset, so that ExperimentConfig's 500 applies
    assert (args.values, args.trials) == (row.grid, {"fig1": None, "fig2": 100}[row.name])
    tiny = {"M": 16, "L": 4}
    out = tmp_path / row.name
    assert main([row.name, f"--{sweep}", str(tiny[sweep]), f"--{row.fixed}", str(tiny[row.fixed]),
                 "--N", "40", "--K", "3", "--trials", "1", "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].startswith(f"{sweep}={tiny[sweep]}  ")
    assert printed[-1] == f"wrote {out}.csv and {out}.dat"
    dat, lines = ((tmp_path / f"{row.name}{suffix}").read_text().splitlines()
                  for suffix in (".dat", ".csv"))
    assert f"# figure: {row.name}" in lines and f"# figure: {row.name}" in dat
    (fixed,) = [line.split() for line in lines if line.startswith("# fixed: ")]
    assert f"{row.fixed}={tiny[row.fixed]}" in fixed
    columns = next(line for line in lines if not line.startswith("#")).split(",")
    analytic = [c.removesuffix("_analytic_messages") for c in columns
                if c.endswith("_analytic_messages")]
    assert analytic == [*dcsp.pursuit.SIMULATED_ALGORITHMS, *row.references]


def test_readme_commands_parse():
    # every `dcsp ...` line in the README's fenced blocks must be accepted
    lines, fenced = [], False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("dcsp "):
            lines.append(line)
    parser = build_parser()
    commands = set()
    for line in lines:
        try:
            commands.add(parser.parse_args(line.split()[1:]).command)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
    assert commands == {"fig1", "fig2", "trial", "cost"}


def _run_python(code):
    """``python -c code`` in a fresh interpreter that imports this
    checkout's dcsp; its completed process, checked."""
    src = str(Path(dcsp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )


def test_import_does_not_load_scipy():
    # keeps package import, and with it sweep start-up, free of scipy, of
    # the process pool, which only a jobs > 1 sweep loads, and of
    # numpy.random (about 25 ms), which the first draw loads; a serial
    # sweep then loads no process pool either
    code = (
        "import sys, dcsp, dcsp.cli; "
        "loaded = lambda names: sorted(m for m in sys.modules if m in names "
        "or m.split('.')[0] in names); "
        "print(loaded(('scipy', 'concurrent.futures', 'multiprocessing', 'numpy.random'))); "
        "dcsp.run_sweep(dcsp.ExperimentConfig(sweep='L', values=(2,), N=20, M=8, K=2, "
        "g=2, trials=1, jobs=1)); "
        "print(loaded(('concurrent.futures', 'multiprocessing')))"
    )
    assert _run_python(code).stdout.split() == ["[]", "[]"]


def test_pooled_sweep_under_forkserver_matches_serial():
    # forkserver, Python 3.14's default on Linux, starts each worker from a
    # fresh import rather than a copy of this process; nine batches make two
    # chunks of the pool's map, so both workers start
    _run_python(
        "import multiprocessing, dcsp; multiprocessing.set_start_method('forkserver'); "
        "config = dict(sweep='L', values=range(2, 11), N=40, K=3, M=20, g=3, trials=2, "
        "seed=7); "
        "serial, pooled = (dcsp.run_sweep(dcsp.ExperimentConfig(jobs=jobs, **config)) "
        "for jobs in (1, 2)); "
        "assert multiprocessing.get_start_method() == 'forkserver'; "
        "assert pooled == serial, (pooled, serial)"
    )


def test_runs_never_load_numpy_ma(tmp_path):
    # numpy 2's np.unique imports numpy.ma on its first call (about 1.6 MB
    # resident and 13 ms): no trial or sweep may reach it
    small = ["--N", "40", "--M", "20", "--K", "4"]
    calls = [
        ["trial"],
        ["trial", "--topology", "1,2;2,3;3,1", "--L", "3", *small],
        ["fig2", "--L", "3:4", *small, "--trials", "2", "--jobs", "2", "--out", str(tmp_path / "t")],
    ]
    report = tmp_path / "report.json"
    code = (
        "import json, sys, numpy; loaded = ['numpy.ma' in sys.modules]; "
        "from dcsp.cli import main; "
        f"codes = [main(argv) for argv in {calls!r}]; "
        "loaded.append('numpy.ma' in sys.modules); "
        f"json.dump([codes, loaded], open({str(report)!r}, 'w'))"
    )
    _run_python(code)
    codes, loaded = json.loads(report.read_text())
    if loaded[0]:
        pytest.skip("this numpy imports numpy.ma with numpy")  # numpy 1.x does
    assert codes == [0, 0, 0]
    assert not loaded[1]

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcsp
from dcsp.cli import build_parser, main, parse_values, read_config_file

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


def test_read_config_file(tmp_path):
    path = tmp_path / "opts.cfg"
    path.write_text("# comment\ntrials = 3\nseed=9  # inline\n\nalgorithms=ssp\n")
    assert read_config_file(path) == {"trials": "3", "seed": "9", "algorithms": "ssp"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ValueError):
        read_config_file(bad)


class TestCostCommand:
    def test_all_rows(self, capsys):
        code = main(["cost", "--N", "200", "--K", "10", "--L", "6", "--g", "3", "--T", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "jsp_jomp: 300" in out
        assert "somp: 60000" in out
        assert "ssp: 25890" in out
        assert "dcsp: 11610" in out

    def test_single_row(self, capsys):
        code = main(["cost", "--algorithm", "ssp", "--N", "200", "--K", "10",
                     "--L", "6", "--T", "1"])
        assert code == 0
        assert "ssp: 12630" in capsys.readouterr().out

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

    def test_explicit_topology_flag(self, capsys):
        code = main(self.ARGS + ["--topology", "1,3,4;2,4;3,1;4,2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "topology=explicit" in out

    def test_m_below_2k_rejected(self, capsys):
        code = main(["trial", "--N", "50", "--M", "15", "--K", "10", "--L", "4"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "trial: need M >= 2K, got M=15 and K=10" in captured.err

    def test_negative_seed_rejected(self, capsys):
        code = main(["trial", "--seed", "-5", "--N", "40", "--M", "20", "--K", "4", "--L", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "need seed >= 0, got seed=-5" in captured.err

    def test_topology_size_mismatch_rejected_before_any_draw(self, capsys, monkeypatch):
        def no_draw(config):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(dcsp.experiments, "generate", no_draw)
        code = main(["trial", "--topology", "1,2;2,3;3,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "topology has 3 nodes, config has L=6" in captured.err

    def test_topology_via_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "topo.cfg"
        cfg.write_text("N=40\nM=20\nK=3\nL=4\nseed=5\ntopology=1,2;2,3;3,4;4,1\n")
        code = main(["trial", "--config", str(cfg)])
        assert code == 0
        assert "topology=explicit" in capsys.readouterr().out


class TestFigureCommands:
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

    def test_config_file_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("N=40\nK=3\nL=4\ntrials=5\nseed=2\nM=16\n")
        out_file = tmp_path / "flagged"
        code = main([
            "fig1", "--config", str(cfg), "--trials", "2", "--out", str(out_file),
        ])
        assert code == 0
        rows = [
            line
            for line in (tmp_path / "flagged.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        header, data = rows[0].split(","), rows[1].split(",")
        record = dict(zip(header, data))
        assert record["M"] == "16"  # from file
        assert record["trials"] == "2"  # flag wins over file

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus=1\n")
        code = main(["fig1", "--config", str(cfg), "--M", "16", "--trials", "1"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_validation_error_exit_code(self, capsys):
        code = main(["fig1", "--M", "0:0:0", "--trials", "1"])
        assert code == 2

    def test_sweep_below_2k_rejected(self, capsys):
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
    def test_bad_sweep_rejected(self, capsys, flags, message):
        code = main(["fig2", "--L", "5", "--N", "40", "--K", "3", "--M", "20",
                     "--trials", "1"] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    def test_repeated_sweep_value_rejected(self, capsys, monkeypatch):
        def no_draw(config):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(dcsp.experiments, "generate", no_draw)
        code = main(["fig1", "--M", "20,20", "--N", "40", "--K", "4", "--L", "3",
                     "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "values=(20, 20) names 20 twice" in captured.err

    def test_missing_out_directory_rejected_before_any_draw(self, capsys, tmp_path, monkeypatch):
        def no_draw(config):
            raise AssertionError("drew an instance")

        monkeypatch.setattr(dcsp.experiments, "generate", no_draw)
        missing = tmp_path / "missing" / "x"
        code = main(["fig1", "--M", "20:24:2", "--N", "40", "--K", "4", "--L", "3",
                     "--trials", "30", "--out", str(missing)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"directory {tmp_path / 'missing'} does not exist" in captured.err


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


def test_import_does_not_load_scipy():
    # keeps package import, and with it sweep start-up, free of scipy, of
    # the process pool, which only a jobs > 1 sweep loads, and of
    # numpy.random (about 25 ms), which the first draw loads
    src = str(Path(dcsp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys, dcsp, dcsp.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
        "or m in ('concurrent.futures', 'multiprocessing', 'numpy.random')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"

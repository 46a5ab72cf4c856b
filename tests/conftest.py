import os
import subprocess
import sys
from pathlib import Path

import pytest

import dcsp.cli
import dcsp.experiments

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def no_draw(monkeypatch):
    """Fail the test if anything draws a problem instance: ``dcsp trial``'s
    one draw or a sweep's batches.  For checks that must reject their input
    before the first draw."""

    def drew(*args, **kwargs):
        raise AssertionError("drew an instance")

    monkeypatch.setattr(dcsp.cli, "generate", drew)
    monkeypatch.setattr(dcsp.experiments, "generate_batch", drew)


@pytest.fixture
def rejected(capsys):
    """``rejected(argv)`` runs ``dcsp argv``, requires the CLI's rejection
    (exit 2, nothing on stdout, one error line on stderr) and returns the
    error's message.  The library's errors read ``error: <message>``;
    argparse's own follow the subcommand's usage line and read
    ``dcsp <command>: error: <message>``."""

    def rejected(argv):
        code = dcsp.cli.main(argv)
        out, err = capsys.readouterr()
        lead = "error: "
        if not err.startswith(lead):
            (commands,) = [action.choices for action in dcsp.cli.build_parser()._actions
                           if isinstance(action.choices, dict)]
            lead = f"{commands[argv[0]].format_usage()}dcsp {argv[0]}: error: "
        message = err.removeprefix(lead).removesuffix("\n")
        assert (code, out, err) == (2, "", f"{lead}{message}\n") and "\n" not in message
        return message

    return rejected


@pytest.fixture
def run_python(tmp_path):
    """``run_python(args)`` runs ``python *args`` in a fresh interpreter
    that imports this checkout's dcsp from ``src/``, in the test's
    ``tmp_path``, and returns the completed process.  A non-zero exit
    fails the test with the process's stderr; a run past 300 s fails it
    too."""

    def run_python(args):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        ))
        out = subprocess.run(
            [sys.executable, *args], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr
        return out

    return run_python

"""Tests for the package namespace, for what each CLI command imports, and for
the CLI's process entry."""

import gc
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import micromacro
from micromacro import cli

SRC = os.path.dirname(os.path.dirname(os.path.abspath(micromacro.__file__)))
ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("channel", "gaussian", "fock", "protocol", "sweep", "cli")


def test_every_exported_name_is_the_object_its_module_defines():
    assert micromacro.__all__ == sorted(micromacro._EXPORTS)
    for name in micromacro.__all__:
        defining = importlib.import_module(f"micromacro.{micromacro._EXPORTS[name]}")
        value = getattr(micromacro, name)
        assert value is getattr(defining, name), name
        assert getattr(value, "__module__", defining.__name__) == defining.__name__, name
    assert micromacro.channel_coefficients is micromacro.gaussian.channel_coefficients


def test_dir_lists_all_and_unknown_names_raise():
    assert set(micromacro.__all__) <= set(dir(micromacro))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        micromacro.no_such_name
    with pytest.raises(ImportError):
        from micromacro import no_such_name  # an ImportError, as for any package


def _env(**extra):
    """The environment of a fresh interpreter that imports micromacro from SRC."""
    path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path, **extra)


def _fresh(code):
    """stdout of `code` in a fresh interpreter that imports micromacro from SRC."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=_env()
    ).stdout


def test_submodules_resolve_after_a_bare_import():
    out = _fresh(
        "import micromacro\n"
        f"for name in {SUBMODULES!r}:\n"
        "    print(getattr(micromacro, name).__name__)\n"
    )
    assert out.split() == [f"micromacro.{name}" for name in SUBMODULES]


def test_import_loads_no_numpy():
    out = _fresh(
        "import sys, micromacro\n"
        "print('numpy' in sys.modules)\n"
        "import micromacro.cli\n"
        "print('numpy' in sys.modules)\n"
        "micromacro.ProtocolConfig, micromacro.channel_coefficients(0.01, 0.1)\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out.split() == ["False", "False", "False"]


@pytest.mark.parametrize(
    "argv, numpy, fock",
    [
        (["feasibility", "--preset", "nanobeam"], False, False),
        (["sweep", "--preset", "fig2"], True, False),
        (["threshold", "--preset", "fig5", "--param", "eta1", "--lo", "0", "--hi", "1"],
         True, False),
        (["sweep", "--preset", "figA1"], True, True),
    ],
    ids=["feasibility", "sweep-fig2", "threshold-fig5", "sweep-figA1"],
)
def test_cli_command_loads_only_its_engine(argv, numpy, fock):
    out = _fresh(
        "import contextlib, io, sys\n"
        "from micromacro import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code, 'numpy' in sys.modules, 'micromacro.fock' in sys.modules)\n"
    )
    assert out.split() == ["0", str(numpy), str(fock)]


def test_run_freezes_the_collector_on_every_way_out():
    # run() is the process entry: it returns main's exit code and freezes the
    # collector also when main raises, as argparse's SystemExit does
    out = _fresh(
        "import contextlib, gc, io\n"
        "from micromacro import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.run(['feasibility', '--preset', 'nanobeam'])\n"
        "print(code, gc.get_freeze_count() > 0)\n"
        "gc.unfreeze()\n"
        "try:\n"
        "    with contextlib.redirect_stderr(io.StringIO()):\n"
        "        cli.run(['bogus-command'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, gc.get_freeze_count() > 0)\n"
    )
    assert out.split() == ["0", "True", "2", "True"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (["sweep", "--preset", "fig2"], 0),
        (["threshold", "--preset", "fig5", "--param", "eta1", "--lo", "0", "--hi", "1"], 0),
        (["feasibility", "--preset", "nanobeam"], 0),
        (["sweep", "--preset", "fig2", "--set", "r=25"], 1),
        (["sweep", "--preset", "fig2", "--parallel", "0"], 2),
    ],
    ids=["sweep", "threshold", "feasibility", "domain-error", "usage-error"],
)
def test_main_leaves_the_collector_alone(argv, code, capsys):
    before = gc.get_freeze_count()
    try:
        assert cli.main(argv) == code
    except SystemExit as exc:
        assert exc.code == code
    assert gc.get_freeze_count() == before


def _module_process(*argv):
    """The exit code, stdout and stderr bytes of `python -m micromacro.cli argv`,
    with warnings raised as errors."""
    proc = subprocess.run(
        [sys.executable, "-m", "micromacro.cli", *argv],
        capture_output=True, env=_env(PYTHONWARNINGS="error"),
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("name", ["fig2", "figA1"])
def test_module_entry_writes_the_pinned_csv(name):
    code, out, err = _module_process("sweep", "--preset", name)
    assert (code, err) == (0, b"")
    assert out == (ROOT / "tests" / "data" / f"{name}.csv").read_bytes()


def test_module_entry_exit_codes():
    code, out, err = _module_process("sweep", "--preset", "fig2", "--set", "r=25")
    assert (code, out) == (1, b"")
    assert len(err.splitlines()) == 1 and err.startswith(b"error: ")
    code, out, err = _module_process("sweep", "--preset", "fig2", "--parallel", "0")
    assert (code, out) == (2, b"")
    assert b"argument --parallel" in err


def test_installed_command_is_the_process_entry():
    # read as text: Python 3.10 has no tomllib
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert 'micromacro = "micromacro.cli:run"' in lines

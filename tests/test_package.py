"""Tests for the package namespace and for what each CLI command imports."""

import importlib
import os
import subprocess
import sys

import pytest

import micromacro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(micromacro.__file__)))
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


def _fresh(code):
    """stdout of `code` in a fresh interpreter that imports micromacro from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
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

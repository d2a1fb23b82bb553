"""The numpy oracle loads only when something simulates.

Each load check runs in a fresh interpreter, because the rest of the
suite already holds numpy in this one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cnq
import cnq.oracle

from conftest import fixture_path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs ``cnq.cli.main`` on argv with stdout captured and prints
# ``<exit code> <whether numpy is loaded>``.
_CLI = """\
import contextlib, io, sys
from cnq.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(rc, "numpy" in sys.modules)
"""


def fresh(code: str, *argv: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("module", ["cnq", "cnq.cli"])
def test_import_leaves_numpy_out(module):
    assert fresh(f"import sys, {module}; print('numpy' in sys.modules)") == "False"


def test_first_oracle_name_loads_the_oracle():
    code = "import sys, cnq; print(cnq.cross_check is cnq.oracle.cross_check, 'numpy' in sys.modules)"
    assert fresh(code) == "True True"


FIG2, FIG3 = str(fixture_path("fig2")), str(fixture_path("fig3"))


@pytest.mark.parametrize("argv, expected", [
    pytest.param(["eval", FIG2], "0 False", id="eval"),
    pytest.param(["verify", FIG2], "0 False", id="verify"),
    pytest.param(["optimize", FIG2], "0 False", id="optimize"),
    pytest.param(["equiv", FIG2, FIG3], "0 False", id="equiv"),
    # refused by the calculus before the oracle is needed
    pytest.param(["check", str(fixture_path("interaction"))], "3 False", id="check-rejected"),
    pytest.param(["check", FIG2], "0 True", id="check"),
    pytest.param(["simulate", FIG2], "0 True", id="simulate"),
    pytest.param(["fuzz", "--count", "1"], "0 True", id="fuzz"),
])
def test_only_simulating_commands_load_numpy(argv, expected):
    assert fresh(_CLI, *argv) == expected


def test_lazy_names_resolve_to_the_oracle():
    for name in cnq.__all__:
        assert getattr(cnq, name) is not None
    assert cnq.cross_check is cnq.oracle.cross_check
    assert cnq.simulate is cnq.oracle.simulate
    assert cnq.DEFAULT_SIM_GUARD is cnq.oracle.DEFAULT_SIM_GUARD == 12


def test_star_import_and_dir():
    names: dict = {}
    exec("from cnq import *", names)
    assert set(cnq.__all__) <= names.keys()
    assert names["TargetState"] is cnq.symbolic.TargetState
    assert names["EpisodeTerm"] is cnq.symbolic.EpisodeTerm
    assert "cross_check" in dir(cnq)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        cnq.nope  # noqa: B018

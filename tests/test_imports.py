"""What ``import passive_decoy`` and each command load, each measured in a
fresh interpreter.

A command imports only the modules it runs: ``--help`` and usage errors
load no numpy, and the analytic commands no sampler, record I/O or
optimizer.  The package exports its names lazily, each from the module that
defines it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from passive_decoy.records import CSV_HEADER

from test_cli import REPO_CONFIG, REPO_STATS

SRC = str(Path(__file__).resolve().parents[1] / "src")
SUBCOMMANDS = ("distribution", "keyrate", "simulate", "ingest", "optimize", "scan")

# Runs the command in argv, then prints its exit code and the modules loaded.
CLI_PROBE = """
import contextlib, io, json, sys
from passive_decoy import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def run_fresh(code, *args):
    """The JSON value that ``code`` prints last, run by a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def command_loads(*argv):
    """The exit code of ``passive-decoy ARGV``, the package modules it
    loaded (``cli`` for ``passive_decoy.cli``), and whether it loaded numpy."""
    code, modules = run_fresh(CLI_PROBE, *argv)
    package = {m.split(".", 1)[1] for m in modules if m.startswith("passive_decoy.")}
    return code, package, "numpy" in modules


@pytest.mark.parametrize("argv, exit_code", [
    (["--help"], 0),
    *[([name, "--help"], 0) for name in SUBCOMMANDS],
    ([], 2),
    (["distribution"], 2),
    (["simulate", "--config", REPO_CONFIG, "--pulses", "many", "--out", "r.csv"], 2),
])
def test_help_and_usage_errors_load_no_engine(argv, exit_code):
    code, modules, numpy = command_loads(*argv)
    assert code == exit_code
    assert not numpy
    assert modules == {"cli", "errors"}


@pytest.mark.parametrize("argv", [
    ["distribution", "--config", REPO_CONFIG],
    ["keyrate", REPO_STATS, "--config", REPO_CONFIG],
])
def test_analytic_commands_load_no_records_or_optimizer(argv):
    code, modules, _ = command_loads(*argv, "--out", os.devnull)
    assert code == 0
    assert not modules & {"optimize", "records", "simulate"}


def test_ingest_loads_no_config_or_optimizer(tmp_path):
    records = tmp_path / "records.csv"
    records.write_text(f"{CSV_HEADER}\n0,1,0,1,0,1,1\n1,0,1,0,1,1,0\n")
    code, modules, _ = command_loads("ingest", str(records), "--out", os.devnull)
    assert code == 0
    assert "records" in modules
    assert not modules & {"config", "optimize"}


@pytest.mark.parametrize("statements", [
    "import passive_decoy.optimize\nfrom passive_decoy import optimize",
    "from passive_decoy import optimize\nimport passive_decoy.optimize",
])
def test_optimize_is_the_function_in_any_import_order(statements):
    probe = statements + """
import json, sys
print(json.dumps([type(optimize).__name__, type(passive_decoy.optimize).__name__,
                  type(sys.modules["passive_decoy.optimize"]).__name__]))
"""
    assert run_fresh(probe) == ["function", "function", "module"]


def test_star_import_binds_each_name_from_its_defining_module():
    probe = """
import json, sys
import passive_decoy
from passive_decoy import *
defined = {name: globals()[name].__module__ for name in passive_decoy.__all__}
moved = [name for name, module in defined.items()
         if not module.startswith("passive_decoy.")
         or getattr(sys.modules[module], name) is not globals()[name]]
try:
    passive_decoy.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([len(defined), moved, sorted({*passive_decoy.__all__, "__version__"}
                                               - set(dir(passive_decoy))), unknown]))
"""
    count, moved, undir, unknown = run_fresh(probe)
    assert count == 36
    assert moved == []
    assert undir == []
    assert unknown == "module 'passive_decoy' has no attribute 'no_such_name'"


def test_unknown_name_and_dir_in_this_process():
    # The fresh-interpreter probe above runs the same checks where no
    # statement tracer sees them.
    import passive_decoy
    with pytest.raises(AttributeError, match="^module 'passive_decoy' has no "
                       "attribute 'no_such_name'$"):
        passive_decoy.no_such_name
    assert len(passive_decoy.__all__) == 36
    assert {*passive_decoy.__all__, "__version__"} <= set(dir(passive_decoy))

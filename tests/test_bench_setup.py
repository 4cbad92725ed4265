"""The benchmark's setup snippets, `SETUP_GRAPH` and `SETUP_ARTIFACT` in
`perfbench/workloads.py`.

The benchmark times fresh processes that run these snippets: they import
the library, read the input and build what scoring needs.  They name
library modules and functions, so deleting one of those names breaks the
benchmark's setup.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netsig
from netsig import cli
from netsig.fixtures import fixture_path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in perfbench/
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_setup(code, *args):
    """Run a setup snippet as the benchmark does, in a fresh interpreter that
    imports this checkout's package; it prints the package's file."""
    package_root = str(Path(netsig.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert Path(result.stdout.strip()).resolve() == Path(netsig.__file__).resolve()


@pytest.mark.parametrize("fixture, mode", [("figure1", "exact"), ("eon_par_cop", "sampling")])
def test_graph_setup_runs(workloads, fixture, mode):
    run_setup(workloads.SETUP_GRAPH, str(fixture_path(fixture)), mode)


def test_artifact_setup_runs(workloads, tmp_path):
    artifact = tmp_path / "signature.json"
    assert cli.main(["exact", str(fixture_path("figure1")), "--out", str(artifact)]) == 0
    run_setup(workloads.SETUP_ARTIFACT, str(artifact))

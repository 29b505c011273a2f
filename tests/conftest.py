import os
import subprocess
import sys
from pathlib import Path

import pytest

import isodelaunay
from isodelaunay import origami


@pytest.fixture(scope="session")
def torus():
    return origami.Origami.from_spec("h=();v=()")


@pytest.fixture(scope="session")
def square_l():
    return origami.Origami.from_spec("h=(12);v=(13)")


@pytest.fixture(scope="session")
def prym():
    return origami.Origami.from_spec("h=(12)(3)(45);v=(1)(234)(5)")


@pytest.fixture(scope="session")
def staircase():
    return origami.Origami.from_spec("h=(12)(34)(56);v=(23)(45)(16)")


@pytest.fixture(scope="session")
def torus_graph(torus):
    return origami.build_origami_graph(torus)


@pytest.fixture(scope="session")
def square_l_graph(square_l):
    return origami.build_origami_graph(square_l)


@pytest.fixture(scope="session")
def prym_graph(prym):
    return origami.build_origami_graph(prym)


@pytest.fixture(scope="session")
def staircase_graph(staircase):
    return origami.build_origami_graph(staircase)


@pytest.fixture()
def run_optimized():
    """Run a script under ``python -O`` against this checkout's package.

    Returns the last line of its stderr; a script whose checks all pass
    prints nothing there.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(isodelaunay.__file__).resolve().parents[1]))

    def run(script: str) -> str:
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        return (proc.stderr.strip().splitlines() or [""])[-1]

    return run

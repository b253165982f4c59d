"""Every exported name resolves, so no deletion leaves a stale export; the
benchmark's tracer still finds every function it wraps."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = ("fracbound", "fracbound.bounds", "fracbound.cli", "fracbound.corpus",
           "fracbound.engine", "fracbound.quadrature")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_benchmark_tracer_finds_every_name_it_wraps():
    # perfbench/layers.py wraps named functions of the package from outside;
    # a rename or deletion there makes install() raise AttributeError.
    root = Path(__file__).resolve().parents[1]
    code = "import layers; layers.install()"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "perfbench"), str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_no_scipy():
    # scipy is a test dependency only: QUADPACK is the oracle's reference.
    code = ("import sys, fracbound.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

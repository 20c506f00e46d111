"""Package surface: every exported name exists, and what importing costs."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import slqt

MODULES = sorted(info.name for info in pkgutil.iter_modules(slqt.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"slqt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("demo", ["01_model_based_solution.py",
                                  "02_data_driven_learning.py",
                                  "03_shadow_learning.py",
                                  "04_tracking_and_cost.py"])
def test_model_based_demo_runs(demo):
    # demo 01 calls solve_tracking and spectral_abscissa the way a user
    # would, demo 02 reads the learner's iterate trace, demo 03 learns
    # through shadow_regressors, demo 04 runs both cost designs in one
    # call; each must run to the end in a fresh interpreter
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [sys.executable, os.path.join(root, "demos", demo)],
        env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def _env_with_src() -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(slqt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_loads_no_scipy_integrate_or_optimize():
    # the windowed moments are integrated in numpy; scipy.integrate (and
    # the scipy.optimize it pulls in) would add to every CLI start
    probe = ("import sys, slqt.cli; print(sorted(m for m in "
             "('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"

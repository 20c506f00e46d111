"""Package surface: every exported name exists."""

import importlib
import pkgutil

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
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(slqt.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, os.path.join(root, "demos", demo)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr

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


def test_cli_import_loads_no_scipy():
    # the package runs on numpy alone; any scipy module would add about
    # 0.2 s to every CLI start (scipy's array-API shim imports
    # numpy.testing and numpy.f2py)
    probe = ("import sys, slqt.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cost_study_runs_with_scipy_blocked(tmp_path):
    # the cost study exercises the model route, the noise-blind design and
    # the Monte Carlo cost pass; with scipy unimportable it must write the
    # same payload bytes as a run that could import it
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = os.path.join(root, "perfbench", "configs", "cost_study.json")
    texts = []
    for block in (False, True):
        out = tmp_path / ("blocked" if block else "plain")
        probe = ("import json, sys\n"
                 + ("sys.modules['scipy'] = None\n" if block else "")
                 + "from slqt.cli import canonical_json, main\n"
                 f"rc = main(['solve', '--config', {config!r}, '--out', {str(out)!r}])\n"
                 f"with open({str(out / 'report.json')!r}) as f:\n"
                 "    doc = json.load(f)\n"
                 "print(canonical_json(doc['payload']))\n"
                 "sys.exit(rc)\n")
        done = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        texts.append(done.stdout.splitlines()[-1])
    assert texts[0] == texts[1]

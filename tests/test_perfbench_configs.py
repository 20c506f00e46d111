"""The benchmark's config generator still reproduces the committed configs.

``perfbench/make_configs.py`` builds its workload inputs from the
package's bundles (plant, cost, reference, cases, sim layout, segments,
probing, shadow systems and tracking scenarios). If a bundle field it
reads moved or changed, the regenerated configs would no longer be the
ones the benchmark runs.
"""

import importlib.util
import json
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _generator():
    spec = importlib.util.spec_from_file_location(
        "make_configs", os.path.join(PERFBENCH, "make_configs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _committed(name: str):
    with open(os.path.join(PERFBENCH, "configs", name + ".json"),
              encoding="utf-8") as f:
        return json.load(f)


def _as_json(raw):
    return json.loads(json.dumps(raw))


def _assert_close(got, want, where="config", tol=1e-12):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for k in want:
            _assert_close(got[k], want[k], f"{where}.{k}", tol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for j, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{j}]", tol)
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert type(got) is type(want), where
        assert abs(got - want) <= tol, (where, got, want)
    else:
        assert got == want, where


@pytest.mark.parametrize("name", ["mc_learn", "cost_study", "shadow_learn"])
def test_bundle_configs_equal_the_committed_files(name):
    assert _as_json(getattr(_generator(), name)()) == _committed(name)


def test_model_sweep_configs_match_the_committed_files():
    # The random plants are shifted by a computed eigenvalue, so their
    # entries may move in the last bits (1.3e-15 seen at n = 32).
    sweep = _generator().model_sweep()
    assert len(sweep) == 5
    for key, raw in sweep.items():
        _assert_close(_as_json(raw), _committed(f"model_sweep_{key}"))

"""Random-plant differential tests: each data route against the model.

On exact moments the learners solve the same equations as the model
route, so on any well-posed plant the learned K and every learned
feedforward F must equal ``solve_tracking`` and ``feedforward_gains``.
"""

import copy

import numpy as np
import pytest

from slqt.benchmarks import EXAMPLES
from slqt.bpi import feedforward_gains, solve_tracking
from slqt.cli import run_experiment
from slqt.config import parse_experiment_config
from slqt.model import StochasticSystem, TrackingProblem, zero_gain_threshold

THRESHOLD = -0.05  # the open-loop zero-gain threshold of every plant; gamma = 1


def _stable_shift(M, abscissa):
    """M shifted by a multiple of I so its spectral abscissa is ``abscissa``."""
    return M - (np.linalg.eigvals(M).real.max() - abscissa) * np.eye(len(M))


def random_config(seed: int, n: int, q: int, route: str) -> dict:
    """A single-input plant with n states and q outputs, its zero-gain
    threshold pinned at THRESHOLD, on example 1's reference, sampling and
    probing, with three random output-map cases, learned from exact
    moments on ``route``.

    The data-driven plant has a nonzero D. The shadow plant has D = 0 and
    two unforced segments; its auxiliary pair is stable and excited an
    order of magnitude below the plant's states, which keeps its
    regression well conditioned.
    """
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    B = rng.normal(size=(n, 1))
    C = 0.25 * rng.normal(size=(n, n)) / np.sqrt(n)
    D = 0.2 * rng.normal(size=(n, 1)) if route == "data_driven" else np.zeros((n, 1))
    H = rng.normal(size=(q, n))
    # the operator abscissa moves by -2s when A moves by -sI
    A = A - 0.5 * (zero_gain_threshold(StochasticSystem(A, B, C, D, H)) - THRESHOLD) * np.eye(n)
    base = copy.deepcopy(EXAMPLES["one"][0])
    raw = {**base, "mode": route, "data_source": {"kind": "exact"},
           "plant": {k: M.tolist() for k, M in zip("ABCDH", (A, B, C, D, H))},
           "reference": {**base["reference"], "H_d": rng.normal(size=(q, 3)).tolist(),
                         "cases": [rng.normal(size=(q, 3)).tolist() for _ in range(3)]},
           "cost": {"Q": np.eye(q).tolist(), "R": [[1.0]]},
           "hyper": {**base["hyper"], "epsilon": 1e-9},
           "sim": {**base["sim"], "l": 1001, "n_paths": 1},
           "segments": [{"x0": (3.0 * rng.normal(size=n)).tolist(), "t_offset": 0.0}]}
    if route == "shadow":
        del raw["probing"]
        raw["segments"].append({"x0": (3.0 * rng.normal(size=n)).tolist(), "t_offset": 5.0})
        W = rng.normal(size=(3, 3))
        F_a = (W - W.T) * 2.0 / np.abs(np.linalg.eigvals(W - W.T)).max()
        raw["shadow"] = {"A_a": _stable_shift(rng.normal(size=(n, n)), -1.0).tolist(),
                         "x_a0": [0.0] * n, "F_a": F_a.tolist(),
                         "y_a0": rng.normal(size=3).tolist(), "h": 1e-5,
                         "probing": {"amplitude": 0.3, "count": 50,
                                     "freq_range": [-2.0, 2.0], "seed": 11}}
    return raw


PLANTS = [(seed, n, q) for seed, (n, q) in enumerate([(2, 1), (2, 2), (3, 1), (3, 2)])]

# random auxiliary maps of spectral abscissa 0.5 or less (the first one's
# is 0.46, unshifted), each under example 2's shadow probing: amplitude 5
# over +-100 rad/s, whose z z' reaches 200 rad/s
EXAMPLE2_SHADOW = [(509, 3, 1, np.random.default_rng(909).normal(size=(3, 3)))] + [
    (seed, n, q, _stable_shift(np.random.default_rng(seed + 400).normal(size=(n, n)), a))
    for seed, n, q, a in [(600, 2, 1, 0.5), (601, 2, 2, 0.0), (602, 3, 2, 0.5),
                          (605, 3, 2, 0.3)]]


def assert_learns_the_model_gains(raw: dict, route: str) -> None:
    config = parse_experiment_config(raw)
    payload = run_experiment(config).payload
    sol = solve_tracking(TrackingProblem(config.plant, config.reference, config.cost,
                                         config.hyper))
    np.testing.assert_allclose(payload[route]["K_hat"], sol.K, rtol=0, atol=1e-6)
    assert [row["case"] for row in payload["feedforward_cases"]] == [1, 2, 3]
    for row in payload["feedforward_cases"]:
        _, F = feedforward_gains(config.plant, config.cost,
                                 config.reference_for_case(row["case"]), sol.P, sol.K)
        np.testing.assert_allclose(row["F"], F, rtol=0, atol=1e-6)


@pytest.mark.parametrize("route", ["data_driven", "shadow"])
def test_exact_routes_learn_the_model_gains_on_random_plants(route):
    for seed, n, q in PLANTS:
        assert_learns_the_model_gains(random_config(100 + seed, n, q, route), route)


def test_shadow_route_learns_the_model_gains_under_example2_probing():
    probing = EXAMPLES["two"][0]["shadow"]["probing"]
    for seed, n, q, A_a in EXAMPLE2_SHADOW:
        raw = random_config(seed, n, q, "shadow")
        raw["shadow"] = {**raw["shadow"], "A_a": A_a.tolist(), "probing": copy.deepcopy(probing)}
        assert_learns_the_model_gains(raw, "shadow")

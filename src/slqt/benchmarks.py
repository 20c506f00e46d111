"""The two bundled benchmarks, as raw experiment configs.

Two plants: a damped two-state oscillator with noise on both state and
input channels, learned under sinusoidal probing; and an undamped pair
of coupled oscillators with pure state noise, learned with no plant
excitation at all through auxiliary shadow systems. Both track outputs
of the same marginally stable three-state reference generator.

``EXAMPLES`` holds each example as one base config plus the blocks each
of its runs adds (``slqt example1`` and ``slqt example2`` run them, one
report per run). ``damped_oscillator()`` and ``coupled_oscillators()``
return the base, parsed; ``gather_moments`` collects a config's data
segments into one moment table.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

from .config import ExperimentConfig, parse_experiment_config
from .regressors import MomentTable, accumulate_raw_moments
from .sim import propagate_moments_exact, run_ensemble

__all__ = ["EXAMPLES", "ExampleBundle", "damped_oscillator",
           "coupled_oscillators", "gather_moments"]


@dataclass(frozen=True)
class ExampleBundle(ExperimentConfig):
    """An example's parsed base config plus its tracking scenarios."""

    scenarios: dict


_SCENARIOS = {
    # (output-map case, segment duration) pairs; the reference state is
    # continuous across switches, only the output map changes.
    "scenario1": ((1, 5.0), (2, 5.0), (3, 5.0), (4, 10.0)),
    "scenario2": ((1, 5.0), (5, 5.0), (6, 5.0), (7, 5.0), (8, 5.0)),
}

_REFERENCE = {
    "A_d": [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -5.0, 0.0]],
    "H_d": [[1.0, 0.0, 0.0]],
    "x_d0": [math.sqrt(5.0), 0.5, 0.5],
    # the output map of each case; tracking schedules count them from 1
    "cases": [[[1.0, 0.0, 0.0]], [[2.0, 0.0, 0.0]], [[3.0, 0.0, 0.0]],
              [[3.0, 1.0, -1.0]], [[1.0, 1.0, 0.0]], [[1.0, 0.0, 1.0]],
              [[0.0, 1.0, 1.0]], [[0.0, 1.0, 0.0]]],
}
_HYPER = {"gamma": 1.0, "alpha0": 0.1, "eta": 0.95, "epsilon": 1e-5,
          "max_iter": 200}


def _tracking(scenario: str) -> dict:
    return {"schedule": [list(step) for step in _SCENARIOS[scenario]],
            "h": 1e-3, "n_paths": 200, "base_seed": 97}


EXAMPLES = {
    # Example one, the damped oscillator: Monte Carlo data-driven learning
    # checked against the model, the noise-aware versus noise-blind cost
    # study, and both tracking scenarios under the model gains.
    "one": ({
        "plant": {"A": [[0.0, 1.0], [-5.0, -0.5]], "B": [[0.0], [1.0]],
                  "C": [[0.1, 0.2], [0.2, 0.3]], "D": [[0.0], [0.1]],
                  "H": [[1.0, 0.0]]},
        "reference": _REFERENCE,
        "cost": {"Q": [[10.0]], "R": [[0.01]]},
        "hyper": _HYPER,
        "sim": {"h": 1e-4, "T_s": 1e-3, "T": 0.1, "t1": 0.0, "l": 5001,
                "n_paths": 2000, "base_seed": 0},
        "segments": [{"x0": [0.0, 0.0], "t_offset": 0.0, "base_seed": 0}],
        "probing": {"amplitude": 10.0, "count": 50,
                    "freq_range": [-100.0, 100.0], "seed": 7},
    }, {
        "learn": {"mode": "data_driven", "data_source": {"kind": "ensemble"},
                  "cost_comparison": {"case": 8, "horizon": 50.0,
                                      "n_paths": 2000, "h": 1e-3}},
        "scenario1": {"mode": "model_based", "tracking": _tracking("scenario1")},
        "scenario2": {"mode": "model_based", "tracking": _tracking("scenario2")},
    }),
    # Example two, the coupled oscillators: two unforced segments with
    # different initial states, their excitation rank restored by the
    # shadow systems instead of an input signal. Shadow learning on exact
    # moments with zero plant input, tracking scenario 2 under the learned
    # gains, and the model-based feedforward table.
    "two": ({
        "plant": {"A": [[0.0, 1.0, 0.0, 0.0], [-2.5, 0.0, 1.25, 0.0],
                        [0.0, 0.0, 0.0, 1.0], [1.25, 0.0, -1.25, 0.0]],
                  "B": [[0.0], [1.0], [0.0], [0.0]],
                  "C": [[0.01, 0.0, 0.0, 0.0], [0.0, 0.01, 0.0, 0.0],
                        [0.0, 0.0, 0.01, 0.0], [0.0, 0.0, 0.0, 0.01]],
                  "D": [[0.0], [0.0], [0.0], [0.0]],
                  "H": [[1.0, 0.0, 0.0, 0.0]]},
        "reference": _REFERENCE,
        "cost": {"Q": [[100.0]], "R": [[1.0]]},
        "hyper": _HYPER,
        "sim": {"h": 1e-4, "T_s": 1e-3, "T": 0.1, "t1": 0.0, "l": 4901,
                "n_paths": 2000, "base_seed": 0},
        "segments": [{"x0": [1.0, 0.5, -0.5, 1.0], "t_offset": 0.0, "base_seed": 0},
                     {"x0": [-0.5, 1.0, 1.0, -0.5], "t_offset": 5.0,
                      "base_seed": 10_000}],
        "shadow": {"A_a": [[0.8621, 0.5503, -0.1755, -0.3494],
                           [2904.0, -27.1262, -446.529, 3033.6],
                           [-2.7848, -0.5140, -0.2129, 0.0238],
                           [0.5827, -0.7117, 0.2438, 2.770]],
                   "F_a": [[0.0, -1.5604, 0.1161], [1.5604, 0.0, -0.2366],
                           [-0.1161, 0.2366, 0.0]],
                   "x_a0": [0.0, 0.0, 0.0, 0.0], "y_a0": [0.5, 0.85, 0.25],
                   "probing": {"amplitude": 5.0, "count": 100,
                               "freq_range": [-100.0, 100.0], "seed": 11},
                   "h": 5e-6},
    }, {
        "learn": {"mode": "shadow", "data_source": {"kind": "exact"},
                  "tracking": _tracking("scenario2")},
        "model": {"mode": "model_based"},
    }),
}


def _bundle(which: str) -> ExampleBundle:
    cfg = parse_experiment_config(copy.deepcopy(EXAMPLES[which][0]))
    return ExampleBundle(**vars(cfg), scenarios=dict(_SCENARIOS))


def damped_oscillator() -> ExampleBundle:
    """Two-state plant with multiplicative noise on state and input."""
    return _bundle("one")


def coupled_oscillators() -> ExampleBundle:
    """Four-state undamped plant with state noise only and no probing."""
    return _bundle("two")


def gather_moments(config: ExperimentConfig, mode: str = "ensemble") -> MomentTable:
    """Collect the config's data segments and reduce them to one table.

    mode='ensemble' runs seeded Monte Carlo; mode='exact' propagates
    the closed moment ODEs instead (the noise-free oracle route). Both
    routes discount by (gamma - alpha0)/2 the same way. The reference
    is on the experiment-wide clock: accumulate_raw_moments restarts it
    at each segment's time offset.
    """
    discount = config.hyper.alpha_tilde
    tables = []
    for x0, t_offset, seg_seed in config.segments:
        if mode == "ensemble":
            # each segment runs the sim layout under its own base seed
            sim = replace(config.sim, base_seed=int(seg_seed))
            traj = run_ensemble(config.plant, config.probing, x0, sim, discount=discount)
        elif mode == "exact":
            traj = propagate_moments_exact(config.plant, config.probing, x0, config.sim,
                                           discount=discount)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        tables.append(accumulate_raw_moments(traj, config.sim, config.plant.H,
                                             config.reference, t_offset))
    return MomentTable.concat(tables) if len(tables) > 1 else tables[0]

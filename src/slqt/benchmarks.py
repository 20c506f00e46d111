"""Benchmark problem definitions used by the CLI examples and the tests.

Two plants: a damped two-state oscillator with noise on both state and
input channels, learned under sinusoidal probing; and an undamped pair
of coupled oscillators with pure state noise, learned with no plant
excitation at all through auxiliary shadow systems. Both track outputs
of the same marginally stable three-state reference generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .learner import ShadowConfig
from .model import BpiHyperParams, CostWeights, ReferenceGenerator, StochasticSystem
from .regressors import MomentTable, accumulate_raw_moments
from .sim import (ProbingSignal, SimConfig, _reference_states, probing_signal,
                  propagate_moments_exact, run_ensemble)

__all__ = ["ExampleBundle", "damped_oscillator", "coupled_oscillators",
           "gather_moments"]


@dataclass(frozen=True)
class ExampleBundle:
    """One ready-to-run benchmark: plant, cost, reference, data layout."""

    plant: StochasticSystem
    cost: CostWeights
    reference: ReferenceGenerator
    h_d_cases: tuple
    hyper: BpiHyperParams
    sim: SimConfig
    probing: ProbingSignal | None
    segments: tuple
    shadow: ShadowConfig | None
    scenarios: dict

    def reference_for_case(self, case: int) -> ReferenceGenerator:
        return self.reference.with_output_map(self.h_d_cases[case - 1])


_REFERENCE_A = np.array([[0.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0],
                         [0.0, -5.0, 0.0]])
_REFERENCE_X0 = np.array([np.sqrt(5.0), 0.5, 0.5])

_H_D_CASES = (
    np.array([[1.0, 0.0, 0.0]]),
    np.array([[2.0, 0.0, 0.0]]),
    np.array([[3.0, 0.0, 0.0]]),
    np.array([[3.0, 1.0, -1.0]]),
    np.array([[1.0, 1.0, 0.0]]),
    np.array([[1.0, 0.0, 1.0]]),
    np.array([[0.0, 1.0, 1.0]]),
    np.array([[0.0, 1.0, 0.0]]),
)

_SCENARIOS = {
    # (output-map case, segment duration) pairs; the reference state is
    # continuous across switches, only the output map changes.
    "scenario1": ((1, 5.0), (2, 5.0), (3, 5.0), (4, 10.0)),
    "scenario2": ((1, 5.0), (5, 5.0), (6, 5.0), (7, 5.0), (8, 5.0)),
}


def damped_oscillator() -> ExampleBundle:
    """Two-state plant with multiplicative noise on state and input."""
    plant = StochasticSystem(
        A=np.array([[0.0, 1.0], [-5.0, -0.5]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[0.1, 0.2], [0.2, 0.3]]),
        D=np.array([[0.0], [0.1]]),
        H=np.array([[1.0, 0.0]]),
    )
    cost = CostWeights(Q=np.array([[10.0]]), R=np.array([[0.01]]))
    reference = ReferenceGenerator(_REFERENCE_A, _H_D_CASES[0], _REFERENCE_X0)
    hyper = BpiHyperParams()
    sim = SimConfig(h=1e-4, sample_period=1e-3, window=0.1, t1=0.0, l=5001,
                    n_paths=2000, base_seed=0)
    probing = probing_signal(10.0, 50, (-100.0, 100.0), seed=7)
    segments = ((np.zeros(2), 0.0, 0),)
    return ExampleBundle(
        plant=plant, cost=cost, reference=reference,
        h_d_cases=_H_D_CASES, hyper=hyper, sim=sim, probing=probing,
        segments=segments, shadow=None, scenarios=dict(_SCENARIOS))


def coupled_oscillators() -> ExampleBundle:
    """Four-state undamped plant with state noise only and no probing.

    Data comes from two unforced trajectory segments with different
    initial states; excitation rank is restored by the bundled shadow
    systems instead of an input signal.
    """
    plant = StochasticSystem(
        A=np.array([[0.0, 1.0, 0.0, 0.0],
                    [-2.5, 0.0, 1.25, 0.0],
                    [0.0, 0.0, 0.0, 1.0],
                    [1.25, 0.0, -1.25, 0.0]]),
        B=np.array([[0.0], [1.0], [0.0], [0.0]]),
        C=0.01 * np.eye(4),
        D=np.zeros((4, 1)),
        H=np.array([[1.0, 0.0, 0.0, 0.0]]),
    )
    cost = CostWeights(Q=np.array([[100.0]]), R=np.array([[1.0]]))
    reference = ReferenceGenerator(_REFERENCE_A, _H_D_CASES[0], _REFERENCE_X0)
    hyper = BpiHyperParams()
    sim = SimConfig(h=1e-4, sample_period=1e-3, window=0.1, t1=0.0, l=4901,
                    n_paths=2000, base_seed=0)
    segments = ((np.array([1.0, 0.5, -0.5, 1.0]), 0.0, 0),
                (np.array([-0.5, 1.0, 1.0, -0.5]), 5.0, 10_000))
    shadow = ShadowConfig(
        A_a=np.array([[0.8621, 0.5503, -0.1755, -0.3494],
                      [2904.0, -27.1262, -446.529, 3033.6],
                      [-2.7848, -0.5140, -0.2129, 0.0238],
                      [0.5827, -0.7117, 0.2438, 2.770]]),
        u_a=probing_signal(5.0, 100, (-100.0, 100.0), seed=11),
        x_a0=np.zeros(4),
        F_a=np.array([[0.0, -1.5604, 0.1161],
                      [1.5604, 0.0, -0.2366],
                      [-0.1161, 0.2366, 0.0]]),
        y_a0=np.array([0.5, 0.85, 0.25]),
    )
    return ExampleBundle(
        plant=plant, cost=cost, reference=reference,
        h_d_cases=_H_D_CASES, hyper=hyper, sim=sim, probing=None,
        segments=segments, shadow=shadow, scenarios=dict(_SCENARIOS))


def gather_moments(bundle: ExampleBundle, mode: str = "ensemble",
                   n_paths: int | None = None) -> MomentTable:
    """Collect the bundle's data segments and reduce them to one table.

    mode='ensemble' runs seeded Monte Carlo; mode='exact' propagates
    the closed moment ODEs instead (the noise-free oracle route). Both
    routes discount by (gamma - alpha0)/2 the same way. The reference
    is on the experiment-wide clock: each segment restarts it from its
    state at the segment's time offset.
    """
    hyper = bundle.hyper
    ref = bundle.reference
    tables = []
    for x0, t_offset, seg_seed in bundle.segments:
        reference = replace(ref, x_d0=_reference_states(ref.A_d, ref.x_d0, [t_offset])[0])
        if mode == "ensemble":
            # each segment runs the sim layout under its own base seed (and
            # path count, when overridden)
            sim = replace(bundle.sim, base_seed=int(seg_seed),
                          n_paths=bundle.sim.n_paths if n_paths is None else int(n_paths))
            traj = run_ensemble(bundle.plant, bundle.probing, x0, sim,
                                discount=hyper.alpha_tilde, reference=reference)
        elif mode == "exact":
            traj = propagate_moments_exact(bundle.plant, bundle.probing, x0, bundle.sim,
                                           discount=hyper.alpha_tilde, reference=reference)
        else:
            raise ValueError(f"unknown mode {mode!r}")
        tables.append(accumulate_raw_moments(
            traj, config=bundle.sim, hyper=hyper, output_map=bundle.plant.H,
            t_offset=t_offset))
    return MomentTable.concat(tables) if len(tables) > 1 else tables[0]

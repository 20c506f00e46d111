"""Off-policy learning from trajectory data on the damped oscillator.

Two data sources feed the same least-squares iteration, which never
sees the plant matrices; the demo, which holds them, certifies the
learned iterates with is_stabilizing. The exact route propagates the
closed moment equations, which strips out Monte Carlo noise and
reproduces the model-based iterates to quadrature accuracy. The
ensemble route runs seeded Euler-Maruyama paths the way an experiment
would; a few hundred paths already land the gain within a couple of
percent.
"""

import time
from dataclasses import replace

import numpy as np

from slqt import (TrackingProblem, damped_oscillator, gather_moments,
                  is_stabilizing, learn_feedback, learn_feedforward,
                  solve_tracking)

bundle = damped_oscillator()
model = solve_tracking(TrackingProblem(
    system=bundle.plant, reference=bundle.reference,
    cost=bundle.cost, hyper=bundle.hyper))
print(f"model-based optimum K* = {model.K.ravel()}")

# exact moments: the noise-free oracle route (the bundle's data_source
# is the ensemble, so the exact route is picked on a copy)
moments = gather_moments(replace(bundle, data_source="exact"))
learned = learn_feedback(moments, bundle.cost, bundle.hyper)
gamma = bundle.hyper.gamma
certified = all(is_stabilizing(bundle.plant, st.K, alpha=min(st.alpha, gamma),
                               gamma=gamma) for st in learned.trace)
states = list(model.history["phase1"]) + list(model.history["phase2"])
worst = max(float(np.abs(st.P - got.P).max())
            for st, got in zip(states, learned.trace))
print(f"\nexact route: {learned.total_iterations} iterations, "
      f"crossing {learned.crossing_iteration}, every iterate stabilizing "
      f"at its level: {certified}")
print(f"worst value-matrix gap to the model iterates: {worst:.2e}")

# seeded Monte Carlo with a reduced ensemble (the benchmark default
# of 2000 paths takes a little under a minute)
t0 = time.perf_counter()
mc = gather_moments(replace(bundle, sim=replace(bundle.sim, n_paths=300)))
learned_mc = learn_feedback(mc, bundle.cost, bundle.hyper)
rel = np.linalg.norm(learned_mc.K_star - model.K) / np.linalg.norm(model.K)
print(f"\nensemble route (300 paths, {time.perf_counter() - t0:.1f} s): "
      f"K = {learned_mc.K_star.ravel()}")
print(f"relative gain error {rel:.2%}")
rank = learned_mc.rank
print(f"excitation rank {rank.rank} of required {rank.required_rank}, "
      f"margin {rank.margin:.1e}")

fit, = learn_feedforward(mc, learned_mc.K_star, learned_mc.Lambda_star,
                         bundle.cost, bundle.hyper, bundle.h_d_cases[:1])
print(f"feedforward for case 1: F = {fit.F.ravel()} "
      f"(residual {fit.residual:.2e})")

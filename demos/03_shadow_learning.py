"""Learning without plant excitation on the coupled-oscillator benchmark.

The plant here has no input noise channel and receives no probing at
all; its data segments are unforced trajectories, so the plain
regressor matrix is structurally rank deficient. Two auxiliary systems
run on the side (a controllable "shadow" pair sharing only the input
matrix B and the cost weight R, its trajectories taken in closed form)
contribute rows that vanish at the true solution, restoring excitation
rank without ever touching the plant input.
"""

import numpy as np

from slqt import (RankDeficient, TrackingProblem, coupled_oscillators,
                  gather_moments, learn_feedback, learn_shadow,
                  shadow_regressors, solve_tracking, spectral_abscissa)

bundle = coupled_oscillators()
moments = gather_moments(bundle, mode="exact")

peak = max(float(np.abs(moments.W).max()), float(np.abs(moments.V).max()))
print(f"largest input-coupled moment in the data: {peak}")
assert peak == 0.0

try:
    learn_feedback(moments, bundle.cost, bundle.hyper)
except RankDeficient as err:
    print(f"plain pipeline: {err}")

omegas = shadow_regressors(bundle.shadow, bundle.plant.B, bundle.cost.R,
                           moments.t_global, moments.window)
learned = learn_shadow(moments, bundle.shadow, bundle.plant.B, bundle.cost,
                       bundle.hyper, omegas=omegas)

cross = learned.crossing_iteration
K_cross = learned.trace[cross - 1].K
print(f"\nshadow pipeline: crossing at iteration {cross}, "
      f"total {learned.total_iterations}")
print(f"gain at crossing {K_cross.ravel()} "
      f"(abscissa {spectral_abscissa(bundle.plant, K_cross):.3f})")
print(f"final K = {learned.K_star.ravel()}")

model = solve_tracking(TrackingProblem(
    system=bundle.plant, reference=bundle.reference,
    cost=bundle.cost, hyper=bundle.hyper))
print(f"model K* = {model.K.ravel()}")
print(f"max abs gap {np.abs(learned.K_star - model.K).max():.2e}")

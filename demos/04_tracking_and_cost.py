"""Closed-loop tracking through reference switches, and what the
multiplicative noise terms are worth.

First half: run the damped oscillator through a schedule of reference
output maps and report the settled mean tracking error inside each
segment. Second half: compare the average tracking cost of the
noise-aware design against gains computed as if the noise channels
were absent. The gap is the price of ignoring state- and
input-dependent noise in the design model.
"""

import numpy as np
from scipy.linalg import solve_continuous_are

from slqt import (StochasticSystem, TrackingProblem, damped_oscillator,
                  estimate_average_cost, feedforward_gains,
                  simulate_tracking, solve_tracking)

bundle = damped_oscillator()
plant, cost = bundle.plant, bundle.cost
sol = solve_tracking(TrackingProblem(
    system=plant, reference=bundle.reference, cost=cost, hyper=bundle.hyper))

schedule = bundle.scenarios["scenario1"]
sched = []
for case, dur in schedule:
    _, F = feedforward_gains(plant, cost, bundle.reference_for_case(case),
                             sol.P, sol.K)
    sched.append((bundle.h_d_cases[case - 1], F, float(dur)))

run = simulate_tracking(plant, bundle.reference.A_d, bundle.reference.x_d0,
                        sched, sol.K, np.zeros(plant.n), 1e-3, 200, 97)
bounds = [0.0, *run.switch_times, float(run.t[-1])]
print("segment-wise mean tracking error (200 paths)")
for j, (case, _) in enumerate(schedule):
    a, b = bounds[j], bounds[j + 1]
    span = (run.t >= a) & (run.t <= b)
    tail = (run.t >= b - 0.2 * (b - a)) & (run.t <= b)
    rms = np.sqrt(np.mean((run.y_mean[span] - run.y_d[span]) ** 2))
    settled = np.sqrt(np.mean((run.y_mean[tail] - run.y_d[tail]) ** 2))
    print(f"  case {case} on [{a:4.1f}, {b:4.1f}]: "
          f"rms {rms:.3f}, settled {settled:.3f}")

# cost of pretending the noise is additive-only
ref = bundle.reference_for_case(8)
_, F_opt = feedforward_gains(plant, cost, ref, sol.P, sol.K)
naive = StochasticSystem(plant.A, plant.B, np.zeros_like(plant.A),
                         np.zeros_like(plant.D), plant.H)
P_det = solve_continuous_are(plant.A, plant.B, plant.H.T @ cost.Q @ plant.H,
                             cost.R)
K_det = np.linalg.solve(cost.R, plant.B.T @ P_det)
_, F_det = feedforward_gains(naive, cost, ref, P_det, K_det)

# one call runs both designs on the same noise paths, so the designs are
# compared path by path
c_opt, c_det = estimate_average_cost(plant, ref, [(sol.K, F_opt), (K_det, F_det)],
                                     cost, 50.0, 500, 314159, h=1e-3)
d = c_det.per_path - c_opt.per_path
sep = d.mean() / (d.std() / np.sqrt(d.size - 1))
print("\naverage tracking cost over 50 time units (500 paths)")
print(f"  noise-aware design: {c_opt.mean:.4f} +- {c_opt.se:.4f}")
print(f"  noise-blind design: {c_det.mean:.4f} +- {c_det.se:.4f}")
print(f"  separation {sep:.1f} standard errors")

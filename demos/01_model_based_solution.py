"""Model-based solve of the damped-oscillator tracking benchmark.

Walks the two-phase bootstrap: phase I inflates the discount level
alpha from a conservative start until the zero-initialized gain chain
certifies stability at the target level gamma, phase II is plain
policy iteration from that stabilizing gain. The feedforward block is
then read off a Sylvester equation for each reference output map.
"""

import numpy as np

from slqt import (TrackingProblem, damped_oscillator, feedforward_gains,
                  sare_residual, solve_tracking, spectral_abscissa)

bundle = damped_oscillator()
problem = TrackingProblem(system=bundle.plant, reference=bundle.reference,
                          cost=bundle.cost, hyper=bundle.hyper)
sol = solve_tracking(problem)

print("phase I (discount inflation from the zero gain)")
for st in sol.history["phase1"]:
    print(f"  iter {st.index}: alpha -> {st.alpha:.6f}  K = {st.K.ravel()}")
print(f"crossing at iteration {len(sol.history['phase1'])}, "
      f"zero-gain threshold {sol.history['zero_gain_threshold']:.4f}")

print("\nphase II (policy iteration at gamma)")
for st in sol.history["phase2"]:
    print(f"  iter {st.index}: |P step| = {st.delta:.3e}")

print(f"\nK* = {sol.K.ravel()}")
print(f"P* =\n{sol.P}")
print(f"Riccati residual     {sare_residual(bundle.plant, bundle.cost, sol.P):.2e}")
print(f"closed-loop abscissa {spectral_abscissa(bundle.plant, sol.K):.4f}")

print("\nfeedforward gains by reference output map")
for k, row in enumerate(bundle.h_d_cases[:4], start=1):
    ref = bundle.reference.with_output_map(row)
    _, F = feedforward_gains(bundle.plant, bundle.cost, ref, sol.P, sol.K)
    print(f"  case {k}  H_d = {np.asarray(row).ravel()}  F* = {F.ravel()}")

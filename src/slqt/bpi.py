"""Bootstrap policy iteration.

Phase I walks alpha from alpha0 up to gamma while keeping the zero-gain
start admissible: each step solves a generalized Lyapunov equation with
forcing K'RK + theta on the shifted plant S(alpha), improves the gain,
then advances alpha by a certified increment. Once alpha crosses gamma
the iterate stabilizes the original plant and phase II refines it there
with the true cost forcing K'RK + H'QH until it reaches the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InitConditionViolated, MaxIterExceeded, NotStabilizing
from .model import StochasticSystem, TrackingProblem, zero_gain_threshold
from .solvers import (LyapunovSolution, TrackingSolution, alpha_update, ff_from_pi,
                      gain_update, solve_gen_lyap, solve_sylvester)

__all__ = ["IterateState", "run_phase1", "run_phase2", "solve_tracking",
           "feedforward_gains"]


@dataclass(frozen=True)
class IterateState:
    """One policy-iteration step: the value solved and the gain it yields.

    residual, condition and abscissa come from the model-based solve of
    the step (its LyapunovSolution); data-driven iterates leave them None.
    """

    phase: int
    index: int
    alpha: float
    P: np.ndarray
    K: np.ndarray
    delta: float | None = None
    residual: float | None = None
    condition: float | None = None
    abscissa: float | None = None


def _diagnostics(sol: LyapunovSolution) -> dict:
    return {"residual": sol.residual_norm, "condition": sol.condition,
            "abscissa": sol.certificate.abscissa}


def run_phase1(problem: TrackingProblem):
    """Drive alpha from alpha0 past gamma starting from the zero gain.

    Returns (K, count, trace) where K stabilizes the original plant and
    count is the crossing iteration. Raises InitConditionViolated when
    gamma is not large enough for the zero gain to be admissible at
    alpha0, and MaxIterExceeded if alpha fails to cross within budget.
    """
    return _run_phase1(problem, zero_gain_threshold(problem.system))


def _run_phase1(problem: TrackingProblem, sigma_bar: float):
    sys = problem.system
    hyper = problem.hyper
    R = problem.cost.R
    theta = problem.theta
    if hyper.gamma <= sigma_bar + hyper.alpha0:
        raise InitConditionViolated(
            f"need gamma > {sigma_bar + hyper.alpha0:.6g} "
            f"(zero-gain threshold {sigma_bar:.6g} plus alpha0), got {hyper.gamma}")
    K = np.zeros((sys.m, sys.n))
    alpha = hyper.alpha0
    trace: list[IterateState] = []
    for i in range(1, hyper.max_iter + 1):
        forcing = K.T @ R @ K + theta
        sol = solve_gen_lyap(sys, K, forcing, alpha=alpha, gamma=hyper.gamma)
        K = gain_update(sys, sol.P, R)
        alpha = alpha_update(alpha, sol.P, K, hyper.eta, theta, R)
        trace.append(IterateState(1, i, alpha, sol.P, K, **_diagnostics(sol)))
        if alpha >= hyper.gamma:
            return K, i, trace
    raise MaxIterExceeded(
        f"alpha reached {alpha:.6g} < gamma={hyper.gamma} after {hyper.max_iter} iterations",
        trace=trace)


def run_phase2(problem: TrackingProblem, K_init, start_index: int = 1):
    """Policy iteration on the original plant from a stabilizing gain.

    Stops when the gain step (stop_rule='gain') or the value step
    (stop_rule='value') drops to epsilon. Returns (P, K, trace).
    """
    sys = problem.system
    hyper = problem.hyper
    Q, R = problem.cost.Q, problem.cost.R
    HQH = sys.H.T @ Q @ sys.H
    K = np.asarray(K_init, dtype=float).reshape(sys.m, sys.n)
    P_prev = None
    trace: list[IterateState] = []
    for i in range(start_index, start_index + hyper.max_iter):
        forcing = K.T @ R @ K + HQH
        sol = solve_gen_lyap(sys, K, forcing, alpha=hyper.gamma, gamma=hyper.gamma)
        K_next = gain_update(sys, sol.P, R)
        if hyper.stop_rule == "gain":
            delta = float(np.linalg.norm(K_next - K, 2))
        else:
            delta = (float(np.linalg.norm(sol.P - P_prev, "fro"))
                     if P_prev is not None else np.inf)
        trace.append(IterateState(2, i, hyper.gamma, sol.P, K_next, delta,
                                  **_diagnostics(sol)))
        if delta <= hyper.epsilon:
            return sol.P, K_next, trace
        K = K_next
        P_prev = sol.P
    raise MaxIterExceeded(
        f"policy iteration did not converge within {hyper.max_iter} iterations",
        trace=trace)


def feedforward_gains(sys: StochasticSystem, cost, reference, P_star, K_star):
    """(Pi, F) for the reference feedforward given the solved feedback.

    Pi solves Pi A_d + (A - B K*)' Pi = H'Q H_d and F = (R + D'P*D)^{-1} B'Pi.
    """
    A_c = sys.A - sys.B @ np.asarray(K_star, dtype=float)
    RHS = sys.H.T @ cost.Q @ reference.H_d
    Pi = solve_sylvester(A_c, reference.A_d, RHS)
    F = ff_from_pi(sys, P_star, Pi, cost.R)
    return Pi, F


def solve_tracking(problem: TrackingProblem) -> TrackingSolution:
    """Full model-based solve: phase I, phase II, then the feedforward."""
    sys = problem.system
    sigma_bar = zero_gain_threshold(sys)
    K_I, count, trace1 = _run_phase1(problem, sigma_bar)
    P, K, trace2 = run_phase2(problem, K_I, start_index=count + 1)
    Lambda = sys.D.T @ P @ sys.D
    Pi, F = feedforward_gains(sys, problem.cost, problem.reference, P, K)
    if not np.isfinite(F).all():
        raise NotStabilizing("feedforward gain is not finite")
    history = {
        "phase1": trace1,
        "phase2": trace2,
        "crossing_iteration": count,
        "alpha_trace": [st.alpha for st in trace1],
        "zero_gain_threshold": sigma_bar,
    }
    return TrackingSolution(P=P, K=K, Pi=Pi, F=F, Lambda=Lambda, history=history)

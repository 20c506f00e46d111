"""Bootstrap policy iteration.

Phase I walks alpha from alpha0 up to gamma while keeping the zero-gain
start admissible: each step evaluates the gain on the shifted plant
S(alpha) with forcing K'RK + theta, improves the gain, then advances
alpha by a certified increment. Once alpha crosses gamma the iterate
stabilizes the original plant and phase II iterates on it there with the
true cost forcing K'RK + H'QH until it reaches the optimum.

One loop, ``_bootstrap``, runs both phases for the model-based solve
here and for the data-driven learners. It builds each step's forcing
and applies the one stop rule; the routes differ only in how they solve
for the value under that forcing (a generalized Lyapunov solve, or
least squares on moment data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DivergedAlpha, InitConditionViolated, MaxIterExceeded, NonFiniteIterate,
                     NotStabilizing)
from .model import BpiHyperParams, StochasticSystem, TrackingProblem, zero_gain_threshold
from .solvers import (TrackingSolution, alpha_update, ff_from_pi, gain_update,
                      solve_gen_lyap, solve_sylvester)

__all__ = ["IterateState", "solve_tracking", "feedforward_gains"]


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


def _refuse_non_finite(i: int, P, K, R, trace) -> None:
    """Raise NonFiniteIterate, with the trace so far, unless step i's P, K
    and K'RK (which the next step and the alpha update use) are finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = all(np.isfinite(M).all() for M in (P, K, K.T @ R @ K))
    if not finite:
        raise NonFiniteIterate(f"policy iteration {i} left a non-finite value P, "
                               f"gain K or gain cost K'RK", trace=trace)


def _bootstrap(hyper: BpiHyperParams, theta, HQH, R, evaluate):
    """Both phases of the iteration around a policy evaluation.

    ``evaluate(level, K, forcing)`` solves for the value P of the gain K
    at the shift level (alpha in phase I, gamma in phase II) under the
    forcing (K'RK + theta in phase I, K'RK + H'QH in phase II) and
    returns (P, K_next, diagnostics), the diagnostics being IterateState
    fields. Phase I starts from the zero gain and stops once alpha
    reaches gamma; phase II stops when the value step
    ||P_i - P_{i-1}||_F drops to epsilon. Each phase has max_iter steps.
    Returns (trace, crossing); MaxIterExceeded, DivergedAlpha (alpha
    failing to increase three times running) and NonFiniteIterate (H'QH,
    or a step's P, K or K'RK, not finite) carry the trace so far.
    """
    if not np.isfinite(HQH).all():
        raise NonFiniteIterate("the phase-II cost forcing H'QH is not finite", trace=[])
    gamma = hyper.gamma
    K = np.zeros((R.shape[0], theta.shape[0]))
    alpha = hyper.alpha0
    trace: list[IterateState] = []
    stalled = 0
    for i in range(1, hyper.max_iter + 1):
        P, K, diagnostics = evaluate(alpha, K, K.T @ R @ K + theta)
        _refuse_non_finite(i, P, K, R, trace)
        alpha_next = alpha_update(alpha, P, K, hyper.eta, theta, R)
        trace.append(IterateState(1, i, alpha_next, P, K, **diagnostics))
        stalled = stalled + 1 if alpha_next <= alpha else 0
        if stalled >= 3:
            raise DivergedAlpha(
                f"alpha failed to increase for {stalled} consecutive iterations",
                trace=trace)
        alpha = alpha_next
        if alpha >= gamma:
            break
    else:
        raise MaxIterExceeded(
            f"alpha reached {alpha:.6g} < gamma={gamma} after {hyper.max_iter} "
            f"iterations", trace=trace)
    crossing = len(trace)
    P_prev = None
    for i in range(crossing + 1, crossing + hyper.max_iter + 1):
        P, K, diagnostics = evaluate(gamma, K, K.T @ R @ K + HQH)
        _refuse_non_finite(i, P, K, R, trace)
        delta = float(np.linalg.norm(P - P_prev, "fro")) if P_prev is not None else np.inf
        trace.append(IterateState(2, i, gamma, P, K, delta, **diagnostics))
        if delta <= hyper.epsilon:
            return trace, crossing
        P_prev = P
    raise MaxIterExceeded(
        f"policy iteration did not converge within {hyper.max_iter} iterations "
        f"past the crossing", trace=trace)


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
    """Full model-based solve: phase I, phase II, then the feedforward.

    Each step solves a generalized Lyapunov equation for the value of
    the current gain. Raises InitConditionViolated when gamma is not
    large enough for the zero gain to be admissible at alpha0.
    """
    sys, hyper = problem.system, problem.hyper
    R, theta = problem.cost.R, problem.theta
    HQH = sys.H.T @ problem.cost.Q @ sys.H
    sigma_bar = zero_gain_threshold(sys)
    if hyper.gamma <= sigma_bar + hyper.alpha0:
        raise InitConditionViolated(
            f"need gamma > {sigma_bar + hyper.alpha0:.6g} "
            f"(zero-gain threshold {sigma_bar:.6g} plus alpha0), got {hyper.gamma}")

    def evaluate(level, K, forcing):
        sol = solve_gen_lyap(sys, K, forcing, alpha=level, gamma=hyper.gamma)
        return sol.P, gain_update(sys, sol.P, R), {
            "residual": sol.residual_norm, "condition": sol.condition,
            "abscissa": sol.certificate.abscissa}

    trace, crossing = _bootstrap(hyper, theta, HQH, R, evaluate)
    P, K = trace[-1].P, trace[-1].K
    Lambda = sys.D.T @ P @ sys.D
    Pi, F = feedforward_gains(sys, problem.cost, problem.reference, P, K)
    if not np.isfinite(F).all():
        raise NotStabilizing("feedforward gain is not finite")
    history = {
        "phase1": trace[:crossing],
        "phase2": trace[crossing:],
        "crossing_iteration": crossing,
        "alpha_trace": [st.alpha for st in trace[:crossing]],
        "zero_gain_threshold": sigma_bar,
    }
    return TrackingSolution(P=P, K=K, Pi=Pi, F=F, Lambda=Lambda, history=history)

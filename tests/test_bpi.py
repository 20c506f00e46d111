"""Two-phase policy iteration on the damped-oscillator benchmark.

Reference numbers were computed independently with direct dense
Lyapunov/Riccati solves at tight tolerances before this module was
wired up, and are frozen here.
"""

import dataclasses

import numpy as np
import pytest

from slqt.benchmarks import damped_oscillator
from slqt.bpi import _bootstrap, feedforward_gains, noise_blind_design, solve_tracking
from slqt.errors import InitConditionViolated, MaxIterExceeded, NonFiniteIterate
from slqt.model import (BpiHyperParams, CostWeights, ReferenceGenerator,
                        StochasticSystem, TrackingProblem, is_stabilizing,
                        spectral_abscissa)
from slqt.solvers import gain_update, solve_gen_lyap

ALPHA_TRACE = [0.523930577, 0.721031001, 1.704852975]
K_STAR = np.array([[26.04653, 7.592634]])
P_STAR = np.array([[2.555522, 0.275459], [0.275459, 0.073807]])
F_CASE1 = np.array([[-29.995822, 0.0, 0.0]])
F_CASE4 = np.array([[-89.987466, -61.576452, 16.622196]])


@pytest.fixture(scope="module")
def bundle():
    return damped_oscillator()


@pytest.fixture(scope="module")
def solution(bundle):
    prob = TrackingProblem(system=bundle.plant, reference=bundle.reference,
                           cost=bundle.cost, hyper=bundle.hyper)
    return solve_tracking(prob)


def test_phase1_alpha_trace(solution):
    got = [st.alpha for st in solution.history["phase1"]]
    np.testing.assert_allclose(got, ALPHA_TRACE, rtol=0, atol=1e-6)
    diffs = np.diff([0.1] + list(got))
    assert (diffs > 0).all(), "phase-I alpha must strictly increase"


def test_crossing_and_total_iterations(solution):
    assert len(solution.history["phase1"]) == 3
    total = len(solution.history["phase1"]) + len(solution.history["phase2"])
    assert total == 9


def test_converged_gain_and_value(solution):
    np.testing.assert_allclose(solution.K, K_STAR, rtol=0, atol=1e-5)
    np.testing.assert_allclose(solution.P, P_STAR, rtol=0, atol=1e-5)
    D = np.array([[0.0], [0.1]])
    np.testing.assert_allclose(solution.Lambda, D.T @ solution.P @ D,
                               rtol=0, atol=1e-12)


def test_every_iterate_is_stabilizing_at_its_level(bundle, solution):
    for st in solution.history["phase1"]:
        cert = is_stabilizing(bundle.plant, st.K, alpha=st.alpha, gamma=1.0)
        assert cert.stabilizing, f"phase-1 iterate {st.index} not in Z(alpha)"
    for st in solution.history["phase2"]:
        cert = is_stabilizing(bundle.plant, st.K)
        assert cert.stabilizing


def test_crossing_gain_stabilizes_original_system(bundle, solution):
    K_cross = solution.history["phase1"][-1].K
    assert spectral_abscissa(bundle.plant, K_cross) < 0


def test_phase2_value_matrices_decrease(solution):
    phase2 = solution.history["phase2"]
    for a, b in zip(phase2, phase2[1:]):
        assert np.linalg.eigvalsh(a.P - b.P).min() >= -1e-8


def test_feedforward_cases(bundle, solution):
    sys, cost = bundle.plant, bundle.cost
    ref1 = bundle.reference_for_case(1)
    _, F1 = feedforward_gains(sys, cost, ref1, solution.P, solution.K)
    np.testing.assert_allclose(F1, F_CASE1, rtol=0, atol=1e-5)
    # entries driven by the unobserved oscillator block vanish identically
    assert F1[0, 1] == 0.0 and F1[0, 2] == 0.0
    _, F4 = feedforward_gains(sys, cost, bundle.reference_for_case(4),
                              solution.P, solution.K)
    np.testing.assert_allclose(F4, F_CASE4, rtol=0, atol=1e-5)
    for case in (7, 8):
        _, F = feedforward_gains(sys, cost, bundle.reference_for_case(case),
                                 solution.P, solution.K)
        assert F[0, 0] == 0.0


def test_feedforward_linearity_in_output_map(bundle, solution):
    sys, cost = bundle.plant, bundle.cost
    _, F1 = feedforward_gains(sys, cost, bundle.reference_for_case(1),
                              solution.P, solution.K)
    _, F2 = feedforward_gains(sys, cost, bundle.reference_for_case(2),
                              solution.P, solution.K)
    _, F3 = feedforward_gains(sys, cost, bundle.reference_for_case(3),
                              solution.P, solution.K)
    np.testing.assert_array_equal(F2, 2.0 * F1)
    np.testing.assert_allclose(F3, 3.0 * F1, rtol=1e-13, atol=1e-13)


def test_init_condition_violated():
    sys = StochasticSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
                           H=[[1.0]])
    prob = TrackingProblem(
        system=sys,
        reference=ReferenceGenerator(A_d=[[0.0]], H_d=[[1.0]], x_d0=[0.0]),
        cost=CostWeights(Q=[[1.0]], R=[[1.0]]),
        hyper=BpiHyperParams(gamma=1.0, alpha0=0.1))
    with pytest.raises(InitConditionViolated):
        solve_tracking(prob)


def test_max_iter_exceeded_in_phase1(bundle):
    prob = TrackingProblem(system=bundle.plant, reference=bundle.reference,
                           cost=bundle.cost,
                           hyper=BpiHyperParams(max_iter=2))
    with pytest.raises(MaxIterExceeded) as exc:
        solve_tracking(prob)
    # alpha crosses at iteration 3, so the two steps allowed stay in phase I
    assert [(st.index, st.phase) for st in exc.value.trace] == [(1, 1), (2, 1)]


def test_max_iter_exceeded_in_phase2_carries_both_phases(bundle):
    # phase I crosses at iteration 3; phase II needs six steps, four allowed
    prob = TrackingProblem(system=bundle.plant, reference=bundle.reference,
                           cost=bundle.cost,
                           hyper=dataclasses.replace(bundle.hyper, max_iter=4))
    with pytest.raises(MaxIterExceeded) as exc:
        solve_tracking(prob)
    trace = exc.value.trace
    assert [st.index for st in trace] == [1, 2, 3, 4, 5, 6, 7]
    assert [st.phase for st in trace] == [1, 1, 1, 2, 2, 2, 2]
    np.testing.assert_allclose([st.alpha for st in trace[:3]], ALPHA_TRACE,
                               rtol=0, atol=1e-6)


def test_bootstrap_passes_each_phase_its_forcing(bundle, solution):
    # a stub evaluation records what the loop hands it and solves as the
    # model route does; phase I must get K'RK + Theta, phase II K'RK + H'QH
    plant, cost, hyper = bundle.plant, bundle.cost, bundle.hyper
    theta = hyper.theta_for(plant.n)
    HQH = plant.H.T @ cost.Q @ plant.H
    calls = []

    def evaluate(level, K, forcing):
        calls.append((level, K.copy(), forcing.copy()))
        sol = solve_gen_lyap(plant, K, forcing, alpha=level, gamma=hyper.gamma)
        return sol.P, gain_update(plant, sol.P, cost.R), {}

    trace, crossing = _bootstrap(hyper, theta, HQH, cost.R, evaluate)
    assert crossing == 3 and len(calls) == len(trace) == 9
    for j, (level, K, forcing) in enumerate(calls):
        phase_term = theta if j < crossing else HQH
        np.testing.assert_array_equal(forcing, K.T @ cost.R @ K + phase_term)
        assert (level == hyper.gamma) == (j >= crossing)
    np.testing.assert_array_equal(calls[0][1], np.zeros_like(solution.K))
    np.testing.assert_array_equal(trace[-1].K, solution.K)


@pytest.mark.parametrize("step, bad", [(2, "P"), (5, "K"), (5, "KRK")])
def test_a_non_finite_iterate_is_refused_with_the_trace_so_far(bundle, step, bad):
    # the stub evaluation solves as the model route does until step `step`
    # (phase I crosses at 3), where it spoils the value, the gain, or the
    # gain's size so that only K'RK overflows
    plant, cost, hyper = bundle.plant, bundle.cost, bundle.hyper
    calls = []

    def evaluate(level, K, forcing):
        calls.append(level)
        sol = solve_gen_lyap(plant, K, forcing, alpha=level, gamma=hyper.gamma)
        P, K_next = sol.P, gain_update(plant, sol.P, cost.R)
        if len(calls) == step:
            if bad == "P":
                P = np.where(P == P.max(), np.nan, P)
            else:
                K_next = K_next * (np.inf if bad == "K" else 1e300)
        return P, K_next, {}

    with pytest.raises(NonFiniteIterate, match=f"policy iteration {step} ") as exc:
        _bootstrap(hyper, hyper.theta_for(plant.n), plant.H.T @ cost.Q @ plant.H,
                   cost.R, evaluate)
    assert len(calls) == step
    assert [st.index for st in exc.value.trace] == list(range(1, step))
    assert all(np.isfinite(st.K).all() and np.isfinite(st.P).all()
               for st in exc.value.trace)


def test_closed_loop_abscissa_negative(bundle, solution):
    assert spectral_abscissa(bundle.plant, solution.K) < 0
    np.testing.assert_allclose(spectral_abscissa(bundle.plant, solution.K),
                               -7.062865, atol=1e-4)


def noise_blind_case(seed):
    """Example 1 (seed None), or a random plant with n = 2..5 states, one or
    two inputs and its zero-gain threshold at -0.05, with a rotating
    reference."""
    if seed is None:
        b = damped_oscillator()
        return b.plant, b.cost, b.reference_for_case(8), b.hyper
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 6)), int(rng.integers(1, 3))
    A = rng.normal(size=(n, n)) / np.sqrt(n)
    B, C = rng.normal(size=(n, m)), 0.25 * rng.normal(size=(n, n)) / np.sqrt(n)
    D, H = 0.2 * rng.normal(size=(n, m)), rng.normal(size=(2, n))
    beta = spectral_abscissa(StochasticSystem(A, B, C, D, H), np.zeros((m, n)))
    plant = StochasticSystem(A - 0.5 * (beta + 0.05) * np.eye(n), B, C, D, H)
    reference = ReferenceGenerator(A_d=[[0.0, 2.0], [-2.0, 0.0]],
                                   H_d=rng.normal(size=(2, 2)), x_d0=[1.0, 0.0])
    cost = CostWeights(Q=np.eye(2), R=np.eye(m))
    return plant, cost, reference, BpiHyperParams(epsilon=1e-9)


@pytest.mark.parametrize("seed", [None, 0, 1, 2, 3])
def test_noise_blind_design_matches_scipy_care(seed):
    from scipy.linalg import solve_continuous_are

    plant, cost, reference, hyper = noise_blind_case(seed)
    sol = noise_blind_design(TrackingProblem(plant, reference, cost, hyper))
    K, F = sol.K, sol.F
    naive = StochasticSystem(plant.A, plant.B, np.zeros_like(plant.A),
                             np.zeros_like(plant.D), plant.H)
    P_care = solve_continuous_are(plant.A, plant.B, plant.H.T @ cost.Q @ plant.H, cost.R)
    K_care = np.linalg.solve(cost.R, plant.B.T @ P_care)
    _, F_care = feedforward_gains(naive, cost, reference, P_care, K_care)
    assert np.linalg.norm(K - K_care) <= 1e-10 * np.linalg.norm(K_care)
    assert np.linalg.norm(F - F_care) <= 1e-10 * np.linalg.norm(F_care)

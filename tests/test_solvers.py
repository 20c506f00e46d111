"""Lyapunov, Riccati, and Sylvester building blocks against oracles."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from slqt.errors import NonInvertible, NotStabilizing, ResonantSpectra, SingularOperator
from slqt.model import (BpiHyperParams, CostWeights, ReferenceGenerator,
                        StochasticSystem, TrackingProblem)
from slqt.bpi import solve_tracking
from slqt.sim import SimConfig, run_ensemble
from slqt.solvers import (alpha_update, ff_from_pi, gain_update,
                          sare_residual, solve_gen_lyap, solve_sylvester)


def example_one_plant():
    return StochasticSystem(
        A=np.array([[0.0, 1.0], [-5.0, -0.5]]),
        B=np.array([[0.0], [1.0]]),
        C=np.array([[0.1, 0.2], [0.2, 0.3]]),
        D=np.array([[0.0], [0.1]]),
        H=np.array([[1.0, 0.0]]))


def trivial_reference():
    return ReferenceGenerator(A_d=[[0.0]], H_d=[[1.0]], x_d0=[0.0])


def test_scalar_closed_form_one_plus_sqrt3():
    """dx = 0.5 x dt + u dt + x dw, q=2, r=1 has P* = 1 + sqrt(3)."""
    sys = StochasticSystem(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
                           H=[[1.0]])
    cost = CostWeights(Q=[[2.0]], R=[[1.0]])
    hyper = BpiHyperParams(gamma=3.0, alpha0=0.1, epsilon=1e-12, max_iter=100)
    prob = TrackingProblem(system=sys, reference=trivial_reference(),
                           cost=cost, hyper=hyper)
    sol = solve_tracking(prob)
    np.testing.assert_allclose(sol.P, [[1.0 + np.sqrt(3.0)]], rtol=0,
                               atol=1e-10)
    np.testing.assert_allclose(sol.K, [[1.0 + np.sqrt(3.0)]], rtol=0,
                               atol=1e-10)


def test_noise_free_sare_matches_deterministic_are():
    sys = example_one_plant()
    quiet = StochasticSystem(sys.A, sys.B, np.zeros((2, 2)),
                             np.zeros((2, 1)), sys.H)
    cost = CostWeights(Q=[[10.0]], R=[[0.01]])
    prob = TrackingProblem(system=quiet, reference=trivial_reference(),
                           cost=cost,
                           hyper=BpiHyperParams(epsilon=1e-12, max_iter=100))
    sol = solve_tracking(prob)
    P_ref = scipy.linalg.solve_continuous_are(
        quiet.A, quiet.B, quiet.H.T @ cost.Q @ quiet.H, cost.R)
    np.testing.assert_allclose(sol.P, P_ref, rtol=0, atol=1e-8)
    np.testing.assert_allclose(sol.K, np.linalg.solve(cost.R, quiet.B.T @ P_ref),
                               rtol=0, atol=1e-7)


def test_example_one_sare_residual_and_printed_variant():
    sys = example_one_plant()
    cost = CostWeights(Q=[[10.0]], R=[[0.01]])
    prob = TrackingProblem(system=sys, reference=trivial_reference(),
                           cost=cost,
                           hyper=BpiHyperParams(epsilon=1e-12, max_iter=100))
    sol = solve_tracking(prob)
    assert sare_residual(sys, cost, sol.P) < 1e-11


def test_gain_update_formula():
    rng = np.random.default_rng(8)
    sys = example_one_plant()
    R = np.array([[0.01]])
    M = rng.standard_normal((2, 2))
    P = M @ M.T + 0.1 * np.eye(2)
    K = gain_update(sys, P, R)
    lhs = (R + sys.D.T @ P @ sys.D) @ K
    rhs = sys.B.T @ P + sys.D.T @ P @ sys.C
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("solve", [
    gain_update, lambda sys, P, R: ff_from_pi(sys, P, np.ones((2, 1)), R),
], ids=["gain_update", "ff_from_pi"])
def test_gain_solves_refuse_an_ill_conditioned_gain_matrix(solve):
    # with D = 0 the gain matrix R + D'PD is R = diag(1, 1e-13), whose
    # condition 1e13 is past the one limit of every gain solve; an LU
    # solve alone would return a gain
    sys = StochasticSystem(A=-np.eye(2), B=np.eye(2), C=0.1 * np.eye(2),
                           D=np.zeros((2, 2)), H=np.eye(2))
    with pytest.raises(NonInvertible, match="condition 1.000e"):
        solve(sys, np.eye(2), np.diag([1.0, 1e-13]))


def test_alpha_update_formula():
    K = np.array([[2.0, 1.0]])
    P = np.diag([4.0, 1.0])
    R = np.array([[0.5]])
    theta = np.eye(2)
    got = alpha_update(0.3, P, K, 0.95, theta, R)
    forcing = K.T @ R @ K + theta
    expect = 0.3 + 0.95 * np.linalg.eigvalsh(forcing).min() / 4.0
    np.testing.assert_allclose(got, expect, rtol=1e-12)
    assert got > 0.3


def test_solve_gen_lyap_refuses_unstable_gain():
    sys = StochasticSystem(A=[[1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
                           H=[[1.0]])
    with pytest.raises(NotStabilizing):
        solve_gen_lyap(sys, np.zeros((1, 1)), np.eye(1))


def test_solve_gen_lyap_monte_carlo_representation():
    """x'Px must equal E of the discounted quadratic integral.

    The value matrix of a stabilizing gain on the shifted system has
    the representation x'Px = E int exp(-(gamma-alpha)t) z'Qz dt along
    the unshifted closed loop. Batched ensembles give the standard
    error for the comparison.
    """
    sys = StochasticSystem(A=[[-0.2, 1.0], [-1.0, -0.4]],
                           B=[[0.0], [1.0]],
                           C=[[0.15, 0.0], [0.05, 0.1]],
                           D=[[0.0], [0.05]],
                           H=[[1.0, 0.0]])
    K = np.array([[0.4, 0.8]])
    alpha, gamma = 0.4, 1.0
    lam = gamma - alpha
    Qbar = np.array([[1.0, 0.2], [0.2, 0.8]])
    sol = solve_gen_lyap(sys, K, Qbar, alpha=alpha, gamma=gamma)
    x0 = np.array([1.0, -0.5])
    target = float(x0 @ sol.P @ x0)

    closed = StochasticSystem(sys.A - sys.B @ K, sys.B, sys.C - sys.D @ K,
                              sys.D, sys.H)
    horizon = 14.0
    cfg_kwargs = dict(h=1e-3, sample_period=0.01, window=0.01,
                      l=int(horizon / 0.01) + 1, t1=0.0)
    from slqt.symquad import h_form
    pair = h_form(Qbar)
    batches = []
    for b in range(4):
        cfg = SimConfig(n_paths=150, base_seed=1000 * b, **cfg_kwargs)
        ds = run_ensemble(closed, None, x0, cfg)
        t = ds.t
        integrand = np.exp(-lam * t) * (ds.mean_xx @ pair)
        batches.append(np.trapezoid(integrand, t))
    batches = np.asarray(batches)
    mean = batches.mean()
    se = batches.std(ddof=1) / np.sqrt(len(batches))
    assert abs(mean - target) <= 4.0 * se + 0.01 * target, \
        f"MC {mean:.5f} +- {se:.5f} vs P-form {target:.5f}"


def test_sylvester_against_scipy_and_resonance():
    rng = np.random.default_rng(21)
    A_c = np.array([[-2.0, 1.0], [0.0, -3.0]])
    A_d = np.array([[0.0, 1.0], [-4.0, 0.0]])
    RHS = rng.standard_normal((2, 2))
    Pi = solve_sylvester(A_c, A_d, RHS)
    np.testing.assert_allclose(A_c.T @ Pi + Pi @ A_d, RHS, rtol=0, atol=1e-12)
    Pi_ref = scipy.linalg.solve_sylvester(A_c.T, A_d, RHS)
    np.testing.assert_allclose(Pi, Pi_ref, rtol=0, atol=1e-12)
    with pytest.raises(ResonantSpectra):
        solve_sylvester(np.array([[-1.0]]), np.array([[1.0]]),
                        np.array([[1.0]]))


def test_sylvester_check_is_scaled_to_the_rhs():
    # an RHS near the overflow threshold is still checked: scaled by 1e300
    # it solves to 1e300 times the unit solution, and a Pi that overflows
    # is refused, not returned
    A_c = np.array([[-2.0, 1.0], [0.0, -3.0]])
    A_d = np.array([[0.0, 1.0], [-4.0, 0.0]])
    RHS = np.random.default_rng(21).standard_normal((2, 2))
    unit = solve_sylvester(A_c, A_d, RHS)
    np.testing.assert_allclose(solve_sylvester(A_c, A_d, 1e300 * RHS), 1e300 * unit,
                               rtol=1e-12, atol=0)
    # refused before its residual is formed, so with no numpy warning
    with warnings.catch_warnings(), pytest.raises(SingularOperator):
        warnings.simplefilter("error")
        solve_sylvester(np.array([[-0.5]]), np.array([[0.0]]), np.array([[1e308]]))


def test_ff_from_pi_formula():
    sys = example_one_plant()
    rng = np.random.default_rng(4)
    M = rng.standard_normal((2, 2))
    P = M @ M.T + np.eye(2)
    Pi = rng.standard_normal((2, 3))
    R = np.array([[0.01]])
    F = ff_from_pi(sys, P, Pi, R)
    lam = sys.D.T @ P @ sys.D
    np.testing.assert_allclose((R + lam) @ F, sys.B.T @ Pi, rtol=1e-12,
                               atol=1e-13)


def test_value_matrix_certificate_attached():
    sys = example_one_plant()
    K = np.array([[26.0, 7.6]])
    sol = solve_gen_lyap(sys, K, np.eye(2))
    assert sol.certificate.stabilizing
    assert sol.residual_norm < 1e-10
    assert np.linalg.eigvalsh(sol.P).min() > 0

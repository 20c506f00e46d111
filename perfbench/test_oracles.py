"""The benchmark's oracles against closed forms.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import numpy as np
from scipy.linalg import solve_continuous_are

import oracles as orc


def _scalar():
    # 2aP + c^2 P + q - b^2 P^2 / r = 0 with a = 1/2, b = c = r = 1, q = 2
    # gives P^2 - 2P - 2 = 0, whose positive root is 1 + sqrt(3)
    one = np.ones((1, 1))
    return 0.5 * one, one, one, 0.0 * one, one, 2.0 * one, one


def test_scalar_riccati_solution_is_one_plus_sqrt3():
    A, B, C, D, H, Q, R = _scalar()
    P, K = orc.stabilizing_riccati(A, B, C, D, H, Q, R)
    assert abs(P[0, 0] - (1.0 + np.sqrt(3.0))) < 1e-12
    assert abs(K[0, 0] - P[0, 0]) < 1e-12
    res, scale = orc.riccati_residual(A, B, C, D, H, Q, R, P)
    assert res <= 1e-14 * scale
    # closed loop 2(a - K) + c^2 = -2 sqrt(3)
    assert abs(orc.ms_abscissa(A, B, C, D, K) + 2.0 * np.sqrt(3.0)) < 1e-12
    assert orc.certifies(A, B, C, D, K)
    assert not orc.certifies(A, B, C, D, np.zeros((1, 1)))


def test_noise_free_riccati_matches_scipy_care():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3)) + 0.5 * np.eye(3)
    B = rng.normal(size=(3, 2))
    H, Q, R = np.eye(3), np.diag([1.0, 2.0, 3.0]), np.eye(2)
    P, K = orc.stabilizing_riccati(A, B, np.zeros((3, 3)), np.zeros((3, 2)), H, Q, R)
    P_care = solve_continuous_are(A, B, H.T @ Q @ H, R)
    assert np.abs(P - P_care).max() <= 1e-9 * np.abs(P_care).max()
    assert np.abs(K - np.linalg.solve(R, B.T @ P_care)).max() <= 1e-9 * np.abs(K).max()


def test_operator_is_the_lyapunov_map_on_vec():
    rng = np.random.default_rng(1)
    A, C, P = rng.normal(size=(3, 3, 3))
    lhs = orc.ms_operator(A, C) @ P.ravel(order="F")
    assert np.allclose(lhs, (A.T @ P + P @ A + C.T @ P @ C).ravel(order="F"))


def test_feedforward_solves_its_sylvester_equation():
    A, B, C, D, H, Q, R = _scalar()
    P, K = orc.stabilizing_riccati(A, B, C, D, H, Q, R)
    A_d = np.array([[0.0, 1.0], [-4.0, 0.0]])
    H_d = np.array([[1.0, 0.5]])
    F = orc.feedforward(A, B, D, H, Q, R, A_d, H_d, P, K)
    # scalar B = 1, D = 0, R = 1: F = Pi with Pi A_d + (a - K) Pi = q H_d
    assert np.allclose(F @ A_d + (A - B @ K) * F, Q @ H_d, atol=1e-12)


def test_one_em_step_by_hand():
    A = np.array([[0.0, 1.0], [-2.0, -0.3]])
    B = np.array([[0.0], [1.0]])
    C = np.array([[0.1, 0.0], [0.2, 0.3]])
    D = np.array([[0.0], [0.4]])
    x0 = np.array([1.0, -2.0])
    u = np.array([[0.7], [0.0]])
    h = 0.01
    mean, second = orc.em_moments(A, B, C, D, u, x0, h)
    a = x0 + h * (A @ x0 + B @ u[0])
    b = C @ x0 + D @ u[0]
    assert np.allclose(mean[1], a, rtol=0, atol=1e-15)
    assert np.allclose(second[1], np.outer(a, a) + h * np.outer(b, b), rtol=0, atol=1e-14)


def test_expected_cost_of_one_scalar_step():
    a, c, q, h = -0.5, 0.8, 3.0, 0.01
    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    cost = orc.em_expected_cost(a * one, one, c * one, zero, one, q * one, one,
                                zero, zero, np.zeros(1), zero, zero, h, h,
                                x0=np.ones(1))
    g1 = (1.0 + h * a) ** 2 + h * c * c
    assert abs(cost - 0.5 * q * (1.0 + g1)) < 1e-14


def test_phase1_alpha_increases_until_it_crosses():
    A, B, C, D, H, Q, R = _scalar()
    crossing, alphas = orc.phase1_crossing(A - 2.0 * np.eye(1), B, C, D, R,
                                           1.0, 0.1, 0.95, 10.0 * np.eye(1))
    assert len(alphas) == crossing
    assert all(y > x for x, y in zip(alphas, alphas[1:]))
    assert alphas[-1] >= 1.0 > alphas[-2] if crossing > 1 else alphas[-1] >= 1.0


def test_noise_free_tracking_mean_in_closed_form():
    # x+ = rho x - h f with rho = 1 + h(a - k), so x_j = -(f / (k - a)) (1 - rho^j);
    # the reference x_d = 1 is constant and y_d = 1
    a, k, f, h, dur = -0.5, 2.0, -4.0, 0.01, 2.0
    one, zero = np.ones((1, 1)), np.zeros((1, 1))
    t, y_d, y_mean, y_var, [window] = orc.em_tracking(
        a * one, one, zero, zero, one, k * one, zero, np.ones(1),
        [(one, f * one, dur)], h)
    j = np.arange(round(dur / h) + 1)
    x = -(f / (k - a)) * (1.0 - (1.0 + h * (a - k)) ** j)
    assert np.allclose(t, j * h, rtol=0, atol=1e-15)
    assert np.allclose(y_mean[:, 0], x, rtol=0, atol=1e-12)
    assert np.all(y_d == 1.0) and np.all(y_var < 1e-12)  # roundoff of E[yy] - E[y]^2
    assert np.array_equal(window, j * h >= 0.8 * dur - 1e-12)

"""Reference computations the benchmark checks slqt's outputs against.

Everything here is plain numpy/scipy and imports nothing from slqt, so
a fault in slqt's solvers or model code cannot also hide in its check.

* The generalized (stochastic) Riccati residual and the mean-square
  abscissa, from Kronecker products on column-major vec coordinates.
* The stabilizing Riccati solution by Newton (Kleinman) iteration with a
  drift-shift homotopy, certified by a positive definite Lyapunov
  solution.
* Phase I of the bootstrap iteration, re-derived from its definition.
* The feedforward gain from ``scipy.linalg.solve_sylvester``.
* The exact mean and second moment of the Euler-Maruyama scheme and,
  from them, the expected trapezoid cost and the settled tracking error
  of the ensemble-mean output (D. J. Higham, "An algorithmic
  introduction to numerical simulation of stochastic differential
  equations", SIAM Review 43, 2001). For x+ = a + sqrt(h) xi b with
  a = (I + hA)x + hBu, b = Cx + Du and xi ~ N(0, 1) independent of x,
  E[x+] = E[a] and E[x+ x+'] = E[a a'] + h E[b b'].
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm, solve_continuous_are, solve_sylvester


def ms_operator(A_cl, C_cl) -> np.ndarray:
    """Matrix of P -> A_cl'P + P A_cl + C_cl'P C_cl on column-major vec(P)."""
    n = A_cl.shape[0]
    eye = np.eye(n)
    return (np.kron(eye, A_cl.T) + np.kron(A_cl.T, eye)
            + np.kron(C_cl.T, C_cl.T))


def ms_abscissa(A, B, C, D, K) -> float:
    """Largest real part in the spectrum of the closed-loop operator.

    Negative iff u = -Kx makes dx = (Ax+Bu)dt + (Cx+Du)dw mean-square
    stable.
    """
    return float(np.linalg.eigvals(ms_operator(A - B @ K, C - D @ K)).real.max())


def lyapunov(A_cl, C_cl, W) -> np.ndarray:
    """P with A_cl'P + P A_cl + C_cl'P C_cl + W = 0."""
    n = A_cl.shape[0]
    p = np.linalg.solve(ms_operator(A_cl, C_cl), -np.asarray(W).ravel(order="F"))
    P = p.reshape((n, n), order="F")
    return 0.5 * (P + P.T)


def gain(B, C, D, R, P) -> np.ndarray:
    """K = (R + D'PD)^{-1} (B'P + D'PC)."""
    return np.linalg.solve(R + D.T @ P @ D, B.T @ P + D.T @ P @ C)


def riccati_terms(A, B, C, D, H, Q, R, P) -> list:
    """The terms of the generalized Riccati equation, which sum to zero
    at a solution: A'P, PA, C'PC, H'QH and -S G^{-1} S'."""
    S = P @ B + C.T @ P @ D
    G = R + D.T @ P @ D
    return [A.T @ P, P @ A, C.T @ P @ C, H.T @ Q @ H, -S @ np.linalg.solve(G, S.T)]


def riccati_residual(A, B, C, D, H, Q, R, P) -> tuple:
    """(Frobenius norm of the residual, sum of the terms' norms)."""
    terms = riccati_terms(A, B, C, D, H, Q, R, P)
    res = float(np.linalg.norm(sum(terms), "fro"))
    return res, float(sum(np.linalg.norm(t, "fro") for t in terms))


def _is_pd(P) -> bool:
    return bool(np.linalg.eigvalsh(0.5 * (P + P.T)).min() > 0.0)


def certifies(A, B, C, D, K) -> bool:
    """True iff u = -Kx is mean-square stabilizing.

    The closed-loop operator is Hurwitz iff its Lyapunov equation with
    forcing I has a positive definite solution.
    """
    try:
        return _is_pd(lyapunov(A - B @ K, C - D @ K, np.eye(A.shape[0])))
    except np.linalg.LinAlgError:  # an eigenvalue on the imaginary axis
        return False


def _newton(A, B, C, D, HQH, R, K, max_iter=100):
    """Kleinman iteration from a stabilizing gain, run to roundoff."""
    prev = np.inf
    for _ in range(max_iter):
        P = lyapunov(A - B @ K, C - D @ K, HQH + K.T @ R @ K)
        K_next = gain(B, C, D, R, P)
        step = float(np.linalg.norm(K_next - K)) / (1.0 + float(np.linalg.norm(K)))
        K = K_next
        if step <= 1e-13 or (step < 1e-8 and step > 0.5 * prev):
            return lyapunov(A - B @ K, C - D @ K, HQH + K.T @ R @ K), K
        prev = step
    raise RuntimeError("Newton iteration for the Riccati equation did not converge")


def stabilizing_riccati(A, B, C, D, H, Q, R):
    """Stabilizing solution (P, K) of the generalized Riccati equation.

    Newton's iteration needs a stabilizing start, so it runs on the
    drift A - sI, with s large enough that K = 0 is stabilizing there,
    and s is walked down to 0: each new shift is the smallest on the path
    towards the old one at which the current gain still certifies.
    """
    A, B, C, D, H, Q, R = (np.asarray(M, dtype=float) for M in (A, B, C, D, H, Q, R))
    n, m = B.shape
    eye = np.eye(n)
    HQH = H.T @ Q @ H
    K = np.zeros((m, n))
    s = 0.0
    while not certifies(A - s * eye, B, C, D, K):
        s = 2.0 * s + 1.0
    while True:
        P, K = _newton(A - s * eye, B, C, D, HQH, R, K)
        if s == 0.0:
            if not certifies(A, B, C, D, K):
                raise RuntimeError("Riccati solution is not stabilizing")
            return P, K
        t = 0.0
        while not certifies(A - t * eye, B, C, D, K):
            t = 0.5 * (t + s)
            if s - t < 1e-9 * (1.0 + s):
                raise RuntimeError("Riccati homotopy stalled")
        s = t


def phase1_crossing(A, B, C, D, R, gamma, alpha0, eta, theta, max_iter=200):
    """Phase I of the bootstrap iteration: (crossing index, alpha trace).

    From K = 0 at alpha = alpha0: solve the Lyapunov equation with
    forcing K'RK + theta on the drift A - (gamma - alpha)/2 I, update K,
    then alpha += eta * lambda_min(K'RK + theta) / lambda_max(P), until
    alpha reaches gamma.
    """
    n, m = B.shape
    K = np.zeros((m, n))
    alpha = alpha0
    alphas = []
    for i in range(1, max_iter + 1):
        A_s = A - 0.5 * (gamma - alpha) * np.eye(n)
        P = lyapunov(A_s - B @ K, C - D @ K, K.T @ R @ K + theta)
        K = gain(B, C, D, R, P)
        W = K.T @ R @ K + theta
        alpha = alpha + eta * np.linalg.eigvalsh(0.5 * (W + W.T)).min() \
            / np.linalg.eigvalsh(P).max()
        alphas.append(float(alpha))
        if alpha >= gamma:
            return i, alphas
    raise RuntimeError("phase I did not cross gamma")


def feedforward(A, B, D, H, Q, R, A_d, H_d, P, K) -> np.ndarray:
    """F = (R + D'PD)^{-1} B' Pi with Pi A_d + (A - BK)' Pi = H'Q H_d."""
    Pi = solve_sylvester((A - B @ K).T, A_d, H.T @ Q @ H_d)
    return np.linalg.solve(R + D.T @ P @ D, B.T @ Pi)


def deterministic_design(A, B, H, Q, R, A_d, H_d):
    """(K, F) of the design that ignores both noise channels."""
    P = solve_continuous_are(A, B, H.T @ Q @ H, R)
    K = np.linalg.solve(R, B.T @ P)
    return K, feedforward(A, B, np.zeros_like(B), H, Q, R, A_d, H_d, P, K)


def em_moments(A, B, C, D, u, x0, h):
    """Exact E[x_k] and E[x_k x_k'] of the Euler-Maruyama chain.

    u holds the input at the grid points, shape (N+1, m); the step from
    k to k+1 uses u[k]. Returns arrays of shape (N+1, n), (N+1, n, n).
    """
    n = A.shape[0]
    Phi = np.eye(n) + h * A
    N = u.shape[0] - 1
    mean = np.empty((N + 1, n))
    second = np.empty((N + 1, n, n))
    x0 = np.asarray(x0, dtype=float)
    mean[0] = x0
    second[0] = np.outer(x0, x0)
    Bu = u @ B.T
    Du = u @ D.T
    for k in range(N):
        m, G = mean[k], second[k]
        Pm = Phi @ m
        Cm = C @ m
        hb = h * Bu[k]
        a_cross = np.outer(Pm, hb)
        b_cross = np.outer(Cm, Du[k])
        mean[k + 1] = Pm + hb
        second[k + 1] = (Phi @ G @ Phi.T + a_cross + a_cross.T + np.outer(hb, hb)
                         + h * (C @ G @ C.T + b_cross + b_cross.T
                                + np.outer(Du[k], Du[k])))
    return mean, second


def em_expected_cost(A, B, C, D, H, Q, R, A_d, H_d, x_d0, K, F, horizon, h,
                     x0=None) -> float:
    """Expected (1/T) * trapezoid sum of |y - y_d|_Q^2 + |u|_R^2.

    The closed loop u = -Kx - F x_d runs jointly with the reference as
    z = [x; x_d] under the same Euler-Maruyama scheme, so the expected
    rate at step k is tr(M E[z_k z_k']).
    """
    n, n_d = A.shape[0], A_d.shape[0]
    nz = n + n_d
    A_z = np.zeros((nz, nz))
    A_z[:n, :n] = A - B @ K
    A_z[:n, n:] = -B @ F
    A_z[n:, n:] = A_d
    C_z = np.zeros((nz, nz))
    C_z[:n, :n] = C - D @ K
    C_z[:n, n:] = -D @ F
    E = np.hstack([H, -H_d])
    U = np.hstack([K, F])
    M = E.T @ Q @ E + U.T @ R @ U
    steps = int(round(horizon / h))
    z0 = np.zeros(nz)
    if x0 is not None:
        z0[:n] = x0
    z0[n:] = x_d0
    Phi = np.eye(nz) + h * A_z
    G = np.outer(z0, z0)
    rate = float(np.sum(M * G))
    total = 0.0
    for _ in range(steps):
        G = Phi @ G @ Phi.T + h * (C_z @ G @ C_z.T)
        rate_next = float(np.sum(M * G))
        total += 0.5 * h * (rate + rate_next)
        rate = rate_next
    return total / horizon


def em_tracking(A, B, C, D, H, K, A_d, x_d0, schedule, h):
    """Exact mean and variance of the output of a closed-loop tracking run.

    schedule is a list of (H_d, F, duration). The run starts at x = 0
    with u = -Kx - F x_d, the reference state moving exactly under A_d
    and the output map and F switching at the segment starts. The grid,
    the settled windows (the last 20% of each segment, ends included)
    and the switches follow ``slqt.sim.simulate_tracking``. Returns the
    grid t, the reference output y_d, E[y], Var[y] (each of shape
    (N+1, q)) and one boolean window over t per segment.
    """
    n, m = B.shape
    steps = [round(d / h) for _, _, d in schedule]
    N = sum(steps)
    t = np.arange(N + 1) * h
    Phi_d = expm(np.asarray(A_d) * h)
    x_d = np.empty((N + 1, len(x_d0)))
    x_d[0] = x_d0
    for k in range(N):
        x_d[k + 1] = Phi_d @ x_d[k]
    y_d = np.empty((N + 1, H.shape[0]))
    u = np.empty((N + 1, m))
    starts, k0 = [], 0
    for (H_d, F, _), ns in zip(schedule, steps):
        sl = slice(k0, k0 + ns + 1)
        y_d[sl] = x_d[sl] @ np.atleast_2d(H_d).T
        u[sl] = -x_d[sl] @ np.atleast_2d(F).T
        starts.append(k0 * h)
        k0 += ns
    mean, second = em_moments(A - B @ K, B, C - D @ K, D, u, np.zeros(n), h)
    cov = second - mean[:, :, None] * mean[:, None, :]
    y_var = np.maximum(np.einsum("ij,kjl,il->ki", H, cov, H), 0.0)  # roundoff
    bounds = [*starts, float(t[-1])]
    windows = [(t >= b - 0.2 * (b - a)) & (t <= b) for a, b in zip(bounds, bounds[1:])]
    return t, y_d, mean @ H.T, y_var, windows


def probing_input(amplitude, count, freq_range, seed, t) -> np.ndarray:
    """a * sum_j sin(omega_j t), frequencies uniform from a Philox stream."""
    rng = np.random.Generator(np.random.Philox(seed))
    omegas = rng.uniform(freq_range[0], freq_range[1], count)
    return amplitude * np.sin(np.asarray(t)[:, None] * omegas).sum(axis=1)

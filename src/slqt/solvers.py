"""Model-based building blocks: the generalized Lyapunov solve, the gain
and alpha updates of the bootstrap iteration, the Riccati residual, and
the Sylvester equation behind the feedforward gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonInvertible, NonPositiveP, NotStabilizing, ResonantSpectra, SingularOperator
from .model import (_COND_LIMIT, CostWeights, StabilityCertificate, StochasticSystem,
                    _certificate, _invert, lyap_matrix)
from .symquad import unvech, vech

__all__ = [
    "LyapunovSolution", "TrackingSolution", "solve_gen_lyap", "gain_update",
    "alpha_update", "sare_residual", "solve_sylvester", "ff_from_pi",
]


@dataclass(frozen=True)
class LyapunovSolution:
    """Solution of L_[K; S(alpha)](P) + forcing = 0.

    condition is sqrt(kappa_1 kappa_inf) of the operator matrix, an upper
    bound on its 2-norm condition number.
    """

    P: np.ndarray
    residual_norm: float
    condition: float
    certificate: StabilityCertificate


@dataclass(frozen=True)
class TrackingSolution:
    """Optimal tracking controller u = -K x - F x_d with its value data."""

    P: np.ndarray
    K: np.ndarray
    Pi: np.ndarray
    F: np.ndarray
    Lambda: np.ndarray
    history: dict = field(default_factory=dict)


def solve_gen_lyap(sys: StochasticSystem, K, Qmat, alpha: float | None = None,
                   gamma: float = 1.0) -> LyapunovSolution:
    """Solve A_cl' P + P A_cl + C_cl' P C_cl + Qmat = 0 on S(alpha).

    Refuses to solve when K is not mean-square stabilizing there, since
    the solution would not be the value matrix of any admissible policy.
    One inverse of the operator serves the certificate, the solve (one
    product and one refinement step) and the condition refusal.
    """
    L = lyap_matrix(sys, K, alpha, gamma)
    L_inv = _invert(L)
    cert = _certificate(L, alpha, inverse=L_inv)
    if not cert:
        raise NotStabilizing(
            f"gain is not mean-square stabilizing (abscissa {cert.abscissa:.6g})",
            abscissa=cert.abscissa)
    Qmat = np.asarray(Qmat, dtype=float)
    q = vech(Qmat)
    p = L_inv @ -q
    p -= L_inv @ (L @ p + q)
    cond = _cond_bound(L, L_inv)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise SingularOperator(f"Lyapunov operator condition number {cond:.3e}",
                               certificate=cert)
    residual = float(np.linalg.norm(L @ p + q))
    scale = 1.0 + float(np.linalg.norm(q)) + float(np.linalg.norm(L, "fro"))
    if not residual <= 1e-10 * scale:  # a NaN residual too
        raise SingularOperator(
            f"Lyapunov residual {residual:.3e} exceeds tolerance at scale {scale:.3e}",
            certificate=cert)
    P = unvech(p, sys.n)
    if np.linalg.eigvalsh(Qmat).min() > 0.0 and np.linalg.eigvalsh(P).min() < -1e-10:
        raise NotStabilizing(
            "positive definite forcing produced an indefinite value matrix",
            abscissa=cert.abscissa)
    return LyapunovSolution(P, residual, cond, cert)


def _cond_bound(L: np.ndarray, L_inv: np.ndarray) -> float:
    """sqrt(kappa_1 kappa_inf) of L from its inverse, an upper bound on kappa_2.

    ||M||_2 <= sqrt(||M||_1 ||M||_inf), applied to L and to its inverse.
    """
    if not np.isfinite(L_inv).all():
        return np.inf
    k1 = np.linalg.norm(L, 1) * np.linalg.norm(L_inv, 1)
    kinf = np.linalg.norm(L, np.inf) * np.linalg.norm(L_inv, np.inf)
    return float(np.sqrt(k1) * np.sqrt(kinf))


def _solve_gain(G: np.ndarray, rhs: np.ndarray, name: str) -> np.ndarray:
    """G^{-1} rhs, the one gain solve; NonInvertible unless cond(G) <= _COND_LIMIT."""
    cond = np.linalg.cond(G) if np.isfinite(G).all() else np.inf
    if not cond <= _COND_LIMIT:
        raise NonInvertible(f"{name} has condition {cond:.3e} > {_COND_LIMIT:.0e}")
    return np.linalg.solve(G, rhs)


def gain_update(sys: StochasticSystem, P, R) -> np.ndarray:
    """K(P) = (R + D'PD)^{-1} (B'P + D'PC)."""
    P = np.asarray(P, dtype=float)
    G = np.asarray(R, dtype=float) + sys.D.T @ P @ sys.D
    return _solve_gain(G, sys.B.T @ P + sys.D.T @ P @ sys.C, "R + D'PD")


def alpha_update(alpha: float, P, K, eta: float, Q_hat, R) -> float:
    """alpha + eta * lambda_min(K'RK + Q_hat) / lambda_max(P).

    Q_hat is the forcing the Lyapunov equation used alongside K'RK
    (theta during phase I, H'QH at the boundary).
    """
    P = np.asarray(P, dtype=float)
    lam_max = float(np.linalg.eigvalsh(0.5 * (P + P.T)).max())
    if lam_max <= 0.0:
        raise NonPositiveP(f"value matrix has lambda_max = {lam_max:.6g}")
    K = np.asarray(K, dtype=float)
    W = K.T @ np.asarray(R, dtype=float) @ K + np.asarray(Q_hat, dtype=float)
    lam_min = float(np.linalg.eigvalsh(0.5 * (W + W.T)).min())
    return alpha + eta * lam_min / lam_max


def sare_residual(sys: StochasticSystem, cost: CostWeights, P) -> float:
    """Frobenius norm of the stochastic algebraic Riccati equation at P."""
    P = np.asarray(P, dtype=float)
    A, B, C, D, H = sys.A, sys.B, sys.C, sys.D, sys.H
    G = cost.R + D.T @ P @ D
    S = P @ B + C.T @ P @ D
    core = A.T @ P + P @ A + H.T @ cost.Q @ H
    quad = S @ np.linalg.solve(G, S.T)
    res = core + C.T @ P @ C - quad
    return float(np.linalg.norm(res, "fro"))


def solve_sylvester(A_c, A_d, RHS) -> np.ndarray:
    """Solve Pi A_d + A_c' Pi = RHS by Kronecker vectorization.

    Solvable iff no eigenvalue of -A_c' coincides with one of A_d; a
    near-coincidence below 1e-10 is reported as resonance instead of
    returning a garbage solution. The residual test runs on Pi and RHS
    divided by max|RHS|, so that an RHS near the overflow threshold is
    checked too; a Pi that overflows is refused.
    """
    A_c = np.asarray(A_c, dtype=float)
    A_d = np.asarray(A_d, dtype=float)
    RHS = np.asarray(RHS, dtype=float)
    n, n_d = A_c.shape[0], A_d.shape[0]
    if RHS.shape != (n, n_d):
        raise ValueError(f"RHS must be {n}x{n_d}, got {RHS.shape}")
    ev_c = np.linalg.eigvals(A_c)
    ev_d = np.linalg.eigvals(A_d)
    gap = np.abs(ev_c[:, None] + ev_d[None, :]).min()
    if gap < 1e-10:
        raise ResonantSpectra(
            f"spectra of A_c' and -A_d nearly intersect (gap {gap:.3e})")
    M = np.kron(A_d.T, np.eye(n)) + np.kron(np.eye(n_d), A_c.T)
    vec_pi = np.linalg.solve(M, RHS.ravel(order="F"))
    Pi = vec_pi.reshape((n, n_d), order="F")
    if not np.isfinite(Pi).all():
        raise SingularOperator("Sylvester solution Pi is not finite")
    s = float(np.abs(RHS).max(initial=0.0)) or 1.0
    Pi_s, RHS_s = Pi / s, RHS / s
    residual = float(np.linalg.norm(Pi_s @ A_d + A_c.T @ Pi_s - RHS_s, "fro"))
    if not residual <= 1e-10 * (1.0 + float(np.linalg.norm(RHS_s, "fro"))):
        raise SingularOperator(f"Sylvester residual {residual:.3e} of Pi / {s:.3e} too large")
    return Pi


def ff_from_pi(sys: StochasticSystem, P_star, Pi, R) -> np.ndarray:
    """F* = (R + D'P*D)^{-1} B' Pi."""
    G = np.asarray(R, dtype=float) + sys.D.T @ np.asarray(P_star, dtype=float) @ sys.D
    return _solve_gain(G, sys.B.T @ np.asarray(Pi, dtype=float), "R + D'P*D")

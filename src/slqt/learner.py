"""Data-driven learning from moment tables.

learn_feedback runs the bootstrap policy iteration of the model-based
solve (the one loop ``bpi._bootstrap``) entirely on sampled moment
data: in place of a generalized Lyapunov solve, each policy evaluation
solves a least-squares system whose unknowns are
[vech(P); vec(M); vech(Lambda)] and recovers the gain
K = (R+Lambda)^{-1}M.

learn_shadow handles the no-probing case (u = 0, D = 0): two auxiliary
deterministic systems are simulated on the side and their regressor
rows, which vanish identically at the true iterates, are added to the
plant rows to restore full column rank. The plant itself is never
excited. Both routes get their feedforward from learn_feedforward, the
shadow route adding its auxiliary rows as omega_F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .bpi import _bootstrap
from .errors import ConfigError, NonInvertible, RankDeficient, ShadowUncontrollable
from .model import BpiHyperParams, CostWeights, is_stabilizing
from .regressors import (MomentTable, RankReport, assemble_psi,
                         assemble_xi, feedback_required_rank,
                         feedforward_required_rank, phi_rhs, psi_rhs,
                         rank_report, xi_rhs_for_output_map)
from .symquad import h_form_rows, unvech, vech_indices

__all__ = ["LearnedSolution", "ShadowConfig", "FeedforwardFit",
           "learn_feedback", "learn_feedforward", "shadow_regressors",
           "learn_shadow"]

_COND_LIMIT = 1e12
_ODE_RTOL, _ODE_ATOL = 1e-12, 1e-14  # DOP853 tolerances of the shadow systems


@dataclass(frozen=True)
class LearnedSolution:
    """Everything the data-driven iteration produced.

    trace holds one IterateState per iteration, residuals the
    least-squares residual of each, rank the excitation rank test of
    the feedback rows. Certificates are only present when a validation
    model was supplied, otherwise the solution is tagged uncertified
    (model-free).
    """

    trace: list
    residuals: list
    rank: RankReport
    P_star: np.ndarray
    K_star: np.ndarray
    Lambda_star: np.ndarray
    crossing_iteration: int
    total_iterations: int
    certification: str = "uncertified (model-free)"
    certificates: list | None = None


@dataclass(frozen=True)
class FeedforwardFit:
    Pi: np.ndarray
    F: np.ndarray
    residual: float
    rank: RankReport


@dataclass(frozen=True)
class ShadowConfig:
    """Auxiliary deterministic systems replacing plant excitation.

    x_a' = A_a x_a + B u_a supplies gain-equation rows; y_a' = F_a y_a
    supplies feedforward rows. F_a must have purely imaginary spectrum
    so the auxiliary reference stays bounded.
    """

    A_a: np.ndarray
    u_a: Callable
    x_a0: np.ndarray
    F_a: np.ndarray
    y_a0: np.ndarray
    h: float = 5e-6

    def __post_init__(self):
        A_a = np.asarray(self.A_a, dtype=float)
        F_a = np.asarray(self.F_a, dtype=float)
        object.__setattr__(self, "A_a", A_a)
        object.__setattr__(self, "F_a", F_a)
        object.__setattr__(self, "x_a0", np.asarray(self.x_a0, dtype=float).ravel())
        object.__setattr__(self, "y_a0", np.asarray(self.y_a0, dtype=float).ravel())
        if self.x_a0.size != A_a.shape[0]:
            raise ConfigError("x_a0 does not match A_a")
        if self.y_a0.size != F_a.shape[0]:
            raise ConfigError("y_a0 does not match F_a")
        re = np.abs(np.linalg.eigvals(F_a).real)
        if re.max(initial=0.0) > 1e-8:
            raise ConfigError(
                f"F_a eigenvalues must be imaginary within 1e-8, worst {re.max():.3e}")

    @property
    def n(self) -> int:
        return self.A_a.shape[0]

    @property
    def n_d(self) -> int:
        return self.F_a.shape[0]


def _lstsq(A: np.ndarray, b: np.ndarray):
    theta, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    return theta, float(np.linalg.norm(A @ theta - b))


def _gain_from(M: np.ndarray, Lambda: np.ndarray, R: np.ndarray) -> np.ndarray:
    G = R + Lambda
    if np.linalg.cond(G) > _COND_LIMIT:
        raise NonInvertible("R + Lambda estimate is numerically singular")
    return np.linalg.solve(G, M)


def _learn(moments: MomentTable, cost: CostWeights, hyper: BpiHyperParams,
           columns, split, report: RankReport, validate_with) -> LearnedSolution:
    """Bootstrap policy iteration with least squares as the evaluation.

    ``columns(psi)`` maps the assembled plant rows to the least-squares
    matrix; ``split(theta)`` unpacks the estimate into (P, M, Lambda).
    Phase II stops on the value step |P_i - P_{i-1}| <= epsilon.
    """
    R = cost.R
    theta_mat = hyper.theta_for(moments.n)
    residuals = []
    Lambda = None

    def evaluate(level, K, phase):
        nonlocal Lambda
        b = (psi_rhs(moments, K.T @ R @ K + theta_mat) if phase == 1
             else phi_rhs(moments, K, cost))
        theta, resid = _lstsq(columns(assemble_psi(moments, level, K)), b)
        if not np.isfinite(resid):
            raise ConfigError("least-squares residual is not finite")
        P, M, Lambda = split(theta)
        residuals.append(resid)
        return P, _gain_from(M, Lambda, R), {}

    trace, crossing = _bootstrap(hyper, theta_mat, R, evaluate, "value")
    certificates = None
    if validate_with is not None:
        certificates = [is_stabilizing(validate_with, st.K,
                                       alpha=min(st.alpha, hyper.gamma),
                                       gamma=hyper.gamma) for st in trace]
    return LearnedSolution(
        trace=trace, residuals=residuals, rank=report,
        P_star=trace[-1].P, K_star=trace[-1].K, Lambda_star=Lambda,
        crossing_iteration=crossing, total_iterations=len(trace),
        certification="uncertified (model-free)" if validate_with is None else "validated",
        certificates=certificates)


def learn_feedback(moments: MomentTable, cost: CostWeights,
                   hyper: BpiHyperParams, validate_with=None) -> LearnedSolution:
    """Bootstrap policy iteration by least squares on sampled moments.

    Stops the second phase on the value step |P_i - P_{i-1}| <= epsilon.
    Requires the excitation rank condition on the raw moment columns;
    failure raises RankDeficient with the singular spectrum attached.
    """
    n, m = moments.n, moments.m
    raw = np.hstack([h_form_rows(moments.S), moments.W.reshape(len(moments), n * m),
                     h_form_rows(moments.V)])
    report = rank_report(raw, feedback_required_rank(n, m))
    if not report.passed:
        raise RankDeficient(
            f"moment data spans rank {report.rank} < required "
            f"{report.required_rank}", report=report)
    nn2 = n * (n + 1) // 2

    def split(theta):
        P = unvech(theta[:nn2], n)
        P = 0.5 * (P + P.T)
        M = theta[nn2:nn2 + n * m].reshape((m, n), order="F")
        Lam = unvech(theta[nn2 + n * m:], m)
        return P, M, 0.5 * (Lam + Lam.T)

    return _learn(moments, cost, hyper, lambda psi: psi, split, report, validate_with)


def learn_feedforward(moments: MomentTable, K_star, Lambda_star,
                      cost: CostWeights, hyper: BpiHyperParams, h_d_cases,
                      omega_F: np.ndarray | None = None) -> list[FeedforwardFit]:
    """Least-squares (Pi, F) for each reference output map in h_d_cases.

    The feedforward rows and their rank test do not depend on the output
    map, so both are built once; each case then solves its own
    right-hand side. omega_F adds the shadow route's feedforward rows
    (from shadow_regressors), whose F block also enters the rank test.
    Returns one FeedforwardFit per case, in order.
    """
    n, m, n_d = moments.n, moments.m, moments.n_d
    if n_d is None:
        raise ConfigError("moment table has no reference moments")
    raw = np.hstack([moments.I_xdchi, moments.I_xdu])
    Xi = assemble_xi(moments, K_star, Lambda_star, cost, hyper.gamma, hyper.alpha0)
    if omega_F is not None:
        raw = raw + np.hstack([np.zeros((len(moments), n * n_d)),
                               omega_F[:, n * n_d:]])
        Xi = Xi + omega_F
    report = rank_report(raw, feedforward_required_rank(n, m, n_d))
    if not report.passed:
        raise RankDeficient(
            f"reference moment data spans rank {report.rank} < required "
            f"{report.required_rank}", report=report)
    fits = []
    for h_d in h_d_cases:
        theta, resid = _lstsq(Xi, xi_rhs_for_output_map(moments, h_d, cost))
        fits.append(FeedforwardFit(Pi=theta[:n * n_d].reshape((n, n_d), order="F"),
                                   F=theta[n * n_d:].reshape((m, n_d), order="F"),
                                   residual=resid, rank=report))
    return fits


# ---------------------------------------------------------------------------
# Shadow systems

def _shadow_series(shadow: ShadowConfig, B: np.ndarray, t_end: float,
                   t_global: np.ndarray, w_steps: int):
    """Integrate both auxiliary systems and stream windowed reductions.

    Returns pointwise endpoint values and windowed integrals of the
    quadratic series the omega rows need, on the global clock.
    """
    n, n_d = shadow.n, shadow.n_d
    m = B.shape[1]
    A_a, F_a = shadow.A_a, shadow.F_a

    def rhs(t, z):
        x, y = z[:n], z[n:]
        u = np.atleast_1d(np.asarray(shadow.u_a(t), dtype=float))
        return np.concatenate([A_a @ x + B @ u, F_a @ y])

    z0 = np.concatenate([shadow.x_a0, shadow.y_a0])
    sol = solve_ivp(rhs, (0.0, t_end), z0, method="DOP853",
                    rtol=_ODE_RTOL, atol=_ODE_ATOL, dense_output=True)
    if not sol.success:
        raise ConfigError(f"shadow integration failed: {sol.message}")
    h = shadow.h
    N = round(t_end / h)
    idx = np.round(t_global / h).astype(int)
    if np.abs(idx * h - t_global).max() > 1e-9:
        raise ConfigError("global sample times must lie on the shadow grid")
    r_idx, c_idx = vech_indices(n)
    wts = np.where(r_idx == c_idx, 1.0, 2.0)
    d_xx = r_idx.size
    widths = {"hxx": d_xx, "hax": d_xx, "xu": n * m, "yx": n_d * n, "yu": n_d * m}
    targets = np.unique(np.concatenate([idx, idx + w_steps]))
    point = {k: np.empty((targets.size, d)) for k, d in widths.items() if k in ("hxx", "yx")}
    integ = {k: np.empty((targets.size, d)) for k, d in widths.items()}
    tot = {k: np.zeros(d) for k, d in widths.items()}
    chunk = 200_000
    a = 0
    t_pos = 0
    while a < N:
        b = min(a + chunk, N)
        tt = np.arange(a, b + 1) * h
        Z = sol.sol(tt)
        X, Y = Z[:n].T, Z[n:].T
        U = np.atleast_2d(np.asarray(shadow.u_a(tt), dtype=float))
        if U.shape == (1, tt.size):
            U = U.T
        AX = X @ A_a.T
        series = {
            "hxx": wts * (X[:, r_idx] * X[:, c_idx]),
            "hax": wts * (AX[:, r_idx] * X[:, c_idx] + X[:, r_idx] * AX[:, c_idx]),
            "xu": (X[:, :, None] * U[:, None, :]).reshape(tt.size, n * m),
            "yx": (Y[:, :, None] * X[:, None, :]).reshape(tt.size, n_d * n),
            "yu": (Y[:, :, None] * U[:, None, :]).reshape(tt.size, n_d * m),
        }
        sel = slice(t_pos, t_pos + int(np.count_nonzero((targets >= a) & (targets < b))))
        local = targets[sel] - a
        for k, ser in series.items():
            cum = np.empty_like(ser)
            np.cumsum(0.5 * h * (ser[1:] + ser[:-1]), axis=0, out=cum[1:])
            cum[0] = 0.0
            if local.size:
                integ[k][sel] = tot[k] + cum[local]
                if k in point:
                    point[k][sel] = ser[local]
            tot[k] += cum[-1]
        t_pos = sel.stop
        a = b
    # the final grid point can itself be a target (last window end)
    if t_pos < targets.size:
        tt = np.array([N * h])
        Z = sol.sol(tt)
        X, Y = Z[:n].T, Z[n:].T
        U = np.atleast_2d(np.asarray(shadow.u_a(tt), dtype=float)).reshape(1, m)
        AX = X @ A_a.T
        point["hxx"][t_pos] = wts * (X[:, r_idx] * X[:, c_idx])
        point["yx"][t_pos] = (Y[:, :, None] * X[:, None, :]).reshape(1, n_d * n)
        for k in widths:
            integ[k][t_pos] = tot[k]
        t_pos += 1
    if t_pos != targets.size:
        raise ConfigError("shadow sampling did not cover all requested instants")
    pos = {g: j for j, g in enumerate(targets)}
    at = np.array([pos[g] for g in idx])
    atw = np.array([pos[g] for g in idx + w_steps])
    return point, integ, at, atw


def shadow_regressors(shadow: ShadowConfig, b_matrix, r_matrix,
                      t_global: np.ndarray, window: float):
    """Omega rows of the two auxiliary systems on the global clock.

    Omega_K pairs with [vech(P); vec(K)] and Omega_F with
    [vec(Pi); vec(F)]; both vanish at the true iterates, which is what
    makes adding them to the plant rows legitimate.
    """
    B = np.asarray(b_matrix, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    R = np.asarray(r_matrix, dtype=float)
    n, n_d, m = shadow.n, shadow.n_d, B.shape[1]
    t_global = np.asarray(t_global, dtype=float)
    w_steps = round(window / shadow.h)
    if abs(w_steps * shadow.h - window) > 1e-9:
        raise ConfigError("window must be a multiple of the shadow grid step")
    t_end = float(t_global.max()) + window
    point, integ, at, atw = _shadow_series(shadow, B, t_end, t_global, w_steps)
    d_xa = point["hxx"][atw] - point["hxx"][at]
    I_ax = integ["hax"][atw] - integ["hax"][at]
    I_xu = integ["xu"][atw] - integ["xu"][at]
    omega_K = np.hstack([d_xa - I_ax, -2.0 * I_xu @ np.kron(np.eye(n), R).T])
    d_yx = point["yx"][atw] - point["yx"][at]
    I_yx = integ["yx"][atw] - integ["yx"][at]
    I_yu = integ["yu"][atw] - integ["yu"][at]
    couple = np.kron(np.eye(n_d), shadow.A_a.T) + np.kron(shadow.F_a.T, np.eye(n))
    omega_F = np.hstack([d_yx - I_yx @ couple,
                         -I_yu @ np.kron(np.eye(n_d), R).T])
    return omega_K, omega_F


def learn_shadow(moments: MomentTable, shadow: ShadowConfig, b_matrix,
                 cost: CostWeights, hyper: BpiHyperParams, omegas,
                 validate_with=None) -> LearnedSolution:
    """Feedback learning with zero plant excitation.

    The plant data must come from unforced trajectories of a plant with
    no input noise channel (D = 0); the parameterization then drops the
    Lambda block and estimates [vech(P); vec(K)] directly. Rank is
    restored by adding the auxiliary-system rows to the plant rows at
    matching global sample times. ``omegas`` is the shadow_regressors
    pair (omega_K, omega_F); this uses omega_K, and omega_F goes to
    learn_feedforward for the feedforward fits.
    """
    B = np.asarray(b_matrix, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    n, m = moments.n, moments.m
    if shadow.n != n:
        raise ConfigError("shadow state dimension does not match the data")
    ctrb = np.hstack([np.linalg.matrix_power(shadow.A_a, k) @ B for k in range(n)])
    if np.linalg.matrix_rank(ctrb) < n:
        raise ShadowUncontrollable(
            "auxiliary pair (A_a, B) fails the controllability rank test")
    if np.abs(moments.W).max(initial=0.0) != 0.0 or np.abs(moments.V).max(initial=0.0) != 0.0:
        raise ConfigError("plant data carries nonzero input; the shadow route "
                          "requires an unforced plant")
    omega_K, _ = omegas
    nn2 = n * (n + 1) // 2
    # excitation rank on [windowed plant second moments | shadow input coupling]
    raw_aug = np.hstack([h_form_rows(moments.S), omega_K[:, nn2:]])
    report = rank_report(raw_aug, feedback_required_rank(n, m, with_lambda=False))
    if not report.passed:
        raise RankDeficient(
            f"augmented moment data spans rank {report.rank} < required "
            f"{report.required_rank}", report=report)
    lift = np.kron(np.eye(n), cost.R)

    def columns(psi):
        return np.hstack([psi[:, :nn2], psi[:, nn2:nn2 + n * m] @ lift]) + omega_K

    def split(theta):
        P = unvech(theta[:nn2], n)
        P = 0.5 * (P + P.T)
        K = theta[nn2:].reshape((m, n), order="F")
        return P, cost.R @ K, np.zeros((m, m))

    return _learn(moments, cost, hyper, columns, split, report, validate_with)

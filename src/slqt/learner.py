"""Data-driven learning from moment tables.

learn_feedback runs the two-phase policy iteration entirely on sampled
moment data: each step solves a least-squares system whose unknowns are
[vech(P); vec(M); vech(Lambda)], recovers the gain K = (R+Lambda)^{-1}M,
and advances alpha exactly as the model-based iteration would.

learn_shadow handles the no-probing case (u = 0, D = 0): two auxiliary
deterministic systems are simulated on the side and their regressor
rows, which vanish identically at the true iterates, are added to the
plant rows to restore full column rank. The plant itself is never
excited.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .bpi import IterateState
from .errors import (ConfigError, DivergedAlpha, MaxIterExceeded, NonInvertible,
                     RankDeficient, ShadowUncontrollable)
from .model import BpiHyperParams, CostWeights, StabilityCertificate, is_stabilizing
from .regressors import (MomentTable, RankReport, assemble_psi,
                         assemble_xi, feedback_required_rank,
                         feedforward_required_rank, phi_rhs, psi_rhs,
                         rank_report, xi_rhs_for_output_map)
from .solvers import alpha_update
from .symquad import h_form_rows, unvech, vech_indices

__all__ = ["LearnedSolution", "ShadowConfig", "FeedforwardFit",
           "learn_feedback", "learn_feedforward", "shadow_regressors",
           "learn_shadow"]

_COND_LIMIT = 1e12
_ODE_RTOL, _ODE_ATOL = 1e-12, 1e-14  # DOP853 tolerances of the shadow systems


@dataclass(frozen=True)
class LearnedSolution:
    """Everything the data-driven iteration produced.

    Traces are per-iteration lists; certificates are only present when
    a validation model was supplied, otherwise the solution is tagged
    uncertified (model-free).
    """

    P_trace: list
    K_trace: list
    Lambda_trace: list
    alpha_trace: list
    residuals: list
    rank_reports: dict
    P_star: np.ndarray
    K_star: np.ndarray
    Lambda_star: np.ndarray
    crossing_iteration: int
    total_iterations: int
    certification: str = "uncertified (model-free)"
    certificates: list | None = None
    Pi_star: np.ndarray | None = None
    F_star: np.ndarray | None = None
    ff_residual: float | None = None

    def with_feedforward(self, fit: "FeedforwardFit") -> "LearnedSolution":
        reports = dict(self.rank_reports)
        reports["feedforward"] = fit.rank
        return replace(self, Pi_star=fit.Pi, F_star=fit.F,
                       ff_residual=fit.residual, rank_reports=reports)


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


def _certify(validate_with, K, alpha, gamma) -> StabilityCertificate | None:
    if validate_with is None:
        return None
    return is_stabilizing(validate_with, K, alpha=min(alpha, gamma), gamma=gamma)


def _run_two_phase(moments: MomentTable, cost: CostWeights, hyper: BpiHyperParams,
                   build, split, validate_with):
    """Shared driver: phase I until alpha crosses gamma, then refine.

    ``build(stage_alpha, K_prev, phase)`` returns the (matrix, rhs)
    least-squares pair for one iteration; ``split(theta)`` unpacks the
    estimate into (P, M, Lambda).
    """
    n, m = moments.n, moments.m
    R = cost.R
    theta_mat = hyper.theta_for(n)
    K = np.zeros((m, n))
    alpha = hyper.alpha0
    P_trace, K_trace, L_trace, a_trace, residuals, certs = [], [], [], [], [], []

    def iterates():
        # the partial trace a MaxIterExceeded or DivergedAlpha carries
        return [IterateState(1 if crossing is None or j <= crossing else 2, j, a, P, K)
                for j, (P, K, a) in enumerate(zip(P_trace, K_trace, a_trace), start=1)]

    stalled = 0
    crossing = None
    P_prev = None
    total = 0
    for i in range(1, 2 * hyper.max_iter + 1):
        phase = 1 if crossing is None else 2
        stage_alpha = alpha if phase == 1 else hyper.gamma
        A_mat, b = build(stage_alpha, K, phase)
        theta, resid = _lstsq(A_mat, b)
        if not np.isfinite(resid):
            raise ConfigError("least-squares residual is not finite")
        P, M, Lam = split(theta)
        K_new = _gain_from(M, Lam, R)
        residuals.append(resid)
        P_trace.append(P)
        K_trace.append(K_new)
        L_trace.append(Lam)
        total = i
        if phase == 1:
            alpha_new = alpha_update(alpha, P, K_new, hyper.eta, theta_mat, R)
            a_trace.append(alpha_new)
            certs.append(_certify(validate_with, K_new, alpha_new, hyper.gamma))
            if alpha_new <= alpha:
                stalled += 1
                if stalled >= 3:
                    raise DivergedAlpha(
                        f"alpha failed to increase for {stalled} consecutive "
                        f"iterations (moment noise too large)", trace=iterates())
            else:
                stalled = 0
            alpha = alpha_new
            K = K_new
            if alpha >= hyper.gamma:
                crossing = i
            if i >= hyper.max_iter and crossing is None:
                raise MaxIterExceeded(
                    f"alpha reached {alpha:.6g} < gamma after {i} iterations",
                    trace=iterates())
        else:
            a_trace.append(hyper.gamma)
            certs.append(_certify(validate_with, K_new, hyper.gamma, hyper.gamma))
            delta = np.inf if P_prev is None else float(np.linalg.norm(P - P_prev, "fro"))
            P_prev = P
            K = K_new
            if delta <= hyper.epsilon:
                break
            if i - crossing >= hyper.max_iter:
                raise MaxIterExceeded(
                    f"value iteration did not settle within {hyper.max_iter} "
                    f"iterations past the crossing", trace=iterates())
    else:
        raise MaxIterExceeded("iteration budget exhausted", trace=iterates())
    return {
        "P_trace": P_trace, "K_trace": K_trace, "Lambda_trace": L_trace,
        "alpha_trace": a_trace, "residuals": residuals,
        "crossing_iteration": crossing, "total_iterations": total,
        "P_star": P_trace[-1], "K_star": K_trace[-1], "Lambda_star": L_trace[-1],
        "certificates": certs if validate_with is not None else None,
        "certification": "validated" if validate_with is not None
                         else "uncertified (model-free)",
    }


def learn_feedback(moments: MomentTable, cost: CostWeights,
                   hyper: BpiHyperParams, validate_with=None) -> LearnedSolution:
    """Two-phase least-squares policy iteration on sampled moments.

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
    theta_mat = hyper.theta_for(n)
    nn2 = n * (n + 1) // 2

    def build(stage_alpha, K_prev, phase):
        if phase == 1:
            A_mat = assemble_psi(moments, stage_alpha, K_prev)
            b = psi_rhs(moments, K_prev.T @ cost.R @ K_prev + theta_mat)
        else:
            A_mat = assemble_psi(moments, hyper.gamma, K_prev)
            b = phi_rhs(moments, K_prev, cost)
        return A_mat, b

    def split(theta):
        P = unvech(theta[:nn2], n)
        P = 0.5 * (P + P.T)
        M = theta[nn2:nn2 + n * m].reshape((m, n), order="F")
        Lam = unvech(theta[nn2 + n * m:], m)
        return P, M, 0.5 * (Lam + Lam.T)

    state = _run_two_phase(moments, cost, hyper, build, split, validate_with)
    state["rank_reports"] = {"feedback": report}
    return LearnedSolution(**state)


def learn_feedforward(moments: MomentTable, K_star, Lambda_star,
                      cost: CostWeights, hyper: BpiHyperParams,
                      h_d=None, extra_rows: np.ndarray | None = None,
                      extra_rank_matrix: np.ndarray | None = None) -> FeedforwardFit:
    """Least-squares solve of the feedforward rows for (Pi, F).

    h_d switches the right-hand side to an alternative reference output
    map reusing the same assembled matrix. extra_rows / extra_rank_matrix
    support shadow augmentation.
    """
    n, m, n_d = moments.n, moments.m, moments.n_d
    if n_d is None:
        raise ConfigError("moment table has no reference moments")
    raw = np.hstack([moments.I_xdchi, moments.I_xdu])
    if extra_rank_matrix is not None:
        raw = raw + extra_rank_matrix
    report = rank_report(raw, feedforward_required_rank(n, m, n_d))
    if not report.passed:
        raise RankDeficient(
            f"reference moment data spans rank {report.rank} < required "
            f"{report.required_rank}", report=report)
    Xi, rhs = assemble_xi(moments, K_star, Lambda_star, cost,
                          hyper.gamma, hyper.alpha0)
    if h_d is not None:
        rhs = xi_rhs_for_output_map(moments, h_d, cost)
    if extra_rows is not None:
        Xi = Xi + extra_rows
    theta, resid = _lstsq(Xi, rhs)
    Pi = theta[:n * n_d].reshape((n, n_d), order="F")
    F = theta[n * n_d:].reshape((m, n_d), order="F")
    return FeedforwardFit(Pi=Pi, F=F, residual=resid, rank=report)


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
                 cost: CostWeights, hyper: BpiHyperParams,
                 validate_with=None, omegas=None) -> LearnedSolution:
    """Feedback and feedforward learning with zero plant excitation.

    The plant data must come from unforced trajectories of a plant with
    no input noise channel (D = 0); the parameterization then drops the
    Lambda block and estimates [vech(P); vec(K)] directly. Rank is
    restored by adding the auxiliary-system rows to the plant rows at
    matching global sample times. ``omegas`` takes a precomputed
    shadow_regressors pair so callers reusing the rows for several
    reference output maps integrate the auxiliary systems only once.
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
    omega_K, omega_F = omegas if omegas is not None else shadow_regressors(
        shadow, B, cost.R, moments.t_global, moments.window)
    nn2 = n * (n + 1) // 2
    # excitation rank on [windowed plant second moments | shadow input coupling]
    raw_aug = np.hstack([h_form_rows(moments.S), omega_K[:, nn2:]])
    report = rank_report(raw_aug, feedback_required_rank(n, m, with_lambda=False))
    if not report.passed:
        raise RankDeficient(
            f"augmented moment data spans rank {report.rank} < required "
            f"{report.required_rank}", report=report)
    lift = np.kron(np.eye(n), cost.R)
    theta_mat = hyper.theta_for(n)

    def build(stage_alpha, K_prev, phase):
        if phase == 1:
            full = assemble_psi(moments, stage_alpha, K_prev)
            b = psi_rhs(moments, K_prev.T @ cost.R @ K_prev + theta_mat)
        else:
            full = assemble_psi(moments, hyper.gamma, K_prev)
            b = phi_rhs(moments, K_prev, cost)
        A_mat = np.hstack([full[:, :nn2], full[:, nn2:nn2 + n * m] @ lift])
        return A_mat + omega_K, b

    def split(theta):
        P = unvech(theta[:nn2], n)
        P = 0.5 * (P + P.T)
        K = theta[nn2:].reshape((m, n), order="F")
        return P, cost.R @ K, np.zeros((m, m))

    state = _run_two_phase(moments, cost, hyper, build, split, validate_with)
    state["rank_reports"] = {"feedback": report}
    sol = LearnedSolution(**state)
    if moments.I_xdchi is not None:
        n_d = moments.n_d
        aug_rank = np.hstack([np.zeros((len(moments), n * n_d)),
                              omega_F[:, n * n_d:]])
        fit = learn_feedforward(moments, sol.K_star, sol.Lambda_star, cost,
                                hyper, extra_rows=omega_F,
                                extra_rank_matrix=aug_rank)
        sol = sol.with_feedforward(fit)
    return sol

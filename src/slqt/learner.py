"""Data-driven learning from moment tables.

learn_feedback runs the bootstrap policy iteration of the model-based
solve (the one loop ``bpi._bootstrap``) entirely on sampled moment
data: in place of a generalized Lyapunov solve, each policy evaluation
solves a least-squares system whose unknowns are
[vech(P); vec(M); vech(Lambda)] and recovers the gain
K = (R+Lambda)^{-1}M through the model route's gain solve. Each step's
least-squares residual goes into its trace row, as the Lyapunov residual
does on the model route. No plant matrix enters but the shadow route's B;
certifying the iterates against a known plant is the caller's.

learn_shadow handles the no-probing case (u = 0, D = 0): two auxiliary
deterministic systems run on the side and their regressor rows, which
vanish identically at the true iterates, are added to the plant rows to
restore full column rank. shadow_regressors builds those rows in closed
form, with no ODE solver: the auxiliary trajectories are sums of complex
exponentials, and each window integral is the trapezoid rule of step
shadow.h. The plant itself is never excited. Both routes get their
feedforward from learn_feedforward, the shadow route adding its
auxiliary rows as omega_F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bpi import _bootstrap
from .errors import ConfigError, ShadowUncontrollable
from .model import _COND_LIMIT, BpiHyperParams, CostWeights, _check_eigenbasis
from .regressors import (MomentTable, RankReport, assemble_psi,
                         assemble_xi, feedback_required_rank,
                         feedforward_required_rank, psi_rhs, require_rank)
from .sim import ProbingSignal, _on_grid
from .solvers import _solve_gain
from .symquad import h_form_rows, unvech, vec

__all__ = ["LearnedSolution", "ShadowConfig", "FeedforwardFit",
           "learn_feedback", "learn_feedforward", "shadow_regressors",
           "learn_shadow"]

_SHADOW_BLOCK = 512  # grid rows per block of the closed-form shadow series


@dataclass(frozen=True)
class LearnedSolution:
    """Everything the data-driven iteration produced.

    trace holds one IterateState per iteration, with the least-squares
    residual of each, rank the excitation rank test of the feedback rows
    and Lambda_star the last Lambda estimate; the final (P, K), the
    crossing and the iteration count come from trace.
    """

    trace: list
    rank: RankReport
    Lambda_star: np.ndarray

    @property
    def P_star(self) -> np.ndarray:
        return self.trace[-1].P

    @property
    def K_star(self) -> np.ndarray:
        return self.trace[-1].K

    @property
    def crossing_iteration(self) -> int:
        return sum(st.phase == 1 for st in self.trace)

    @property
    def total_iterations(self) -> int:
        return len(self.trace)


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
    so the auxiliary reference stays bounded. Both trajectories are in
    closed form (no ODE solver), so u_a must be a ProbingSignal, no
    i omega_j an eigenvalue of A_a, and A_a and F_a diagonalizable. h is
    the step of the trapezoid rule over each window.
    """

    A_a: np.ndarray
    u_a: ProbingSignal
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
        if not isinstance(self.u_a, ProbingSignal):
            raise ConfigError("u_a must be a ProbingSignal, got "
                              f"{type(self.u_a).__name__}")
        if not self.h > 0.0:
            raise ConfigError(f"shadow h must be positive, got {self.h!r}")
        for name, M in (("A_a", A_a), ("F_a", F_a)):
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ConfigError(f"shadow {name} must be a square matrix, got shape {M.shape}")
            if not np.isfinite(M).all():
                raise ConfigError(f"shadow {name} has a non-finite entry")
        if self.x_a0.size != A_a.shape[0]:
            raise ConfigError("x_a0 does not match A_a")
        if self.y_a0.size != F_a.shape[0]:
            raise ConfigError("y_a0 does not match F_a")
        _check_eigenbasis(A_a, "A_a")
        _check_eigenbasis(F_a, "F_a", imaginary=True)
        w = self.u_a.omegas
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = np.linalg.cond(1j * w[:, None, None] * np.eye(len(A_a)) - A_a)
        bad = np.flatnonzero(~(cond <= _COND_LIMIT))
        if bad.size:
            raise ConfigError(
                f"probing frequency {bad[0]} (omega = {w[bad[0]]!r}) resonates with "
                f"A_a: i omega I - A_a has condition {cond[bad[0]]:.3e} > {_COND_LIMIT:.0e}")

    @property
    def n(self) -> int:
        return self.A_a.shape[0]

    @property
    def n_d(self) -> int:
        return self.F_a.shape[0]


def _lstsq(A: np.ndarray, b: np.ndarray):
    theta, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    return theta, float(np.linalg.norm(A @ theta - b))


def _check_discount(moments: MomentTable, hyper: BpiHyperParams) -> None:
    """ConfigError unless the table was discounted at (gamma - alpha0)/2."""
    if moments.discount is None or abs(moments.discount - hyper.alpha_tilde) > 1e-12:
        raise ConfigError(f"moment table discount {moments.discount} does not match "
                          f"(gamma - alpha0)/2 = {hyper.alpha_tilde}")


def _learn(moments: MomentTable, cost: CostWeights, hyper: BpiHyperParams,
           columns, split, report: RankReport) -> LearnedSolution:
    """Bootstrap policy iteration with least squares as the evaluation.

    ``columns(psi)`` maps the assembled plant rows to the least-squares
    matrix; ``split(theta)`` unpacks the estimate into (P, M, Lambda).
    Each step solves against psi_rhs of the forcing ``_bootstrap`` passes.
    """
    _check_discount(moments, hyper)
    R, H = cost.R, moments.H
    theta_mat = hyper.theta_for(moments.n)
    Lambda = None

    def evaluate(level, K, forcing):
        nonlocal Lambda
        theta, resid = _lstsq(columns(assemble_psi(moments, level - hyper.alpha0, K)),
                              psi_rhs(moments, forcing))
        if not np.isfinite(resid):
            raise ConfigError("least-squares residual is not finite")
        P, M, Lambda = split(theta)
        return P, _solve_gain(R + Lambda, M, "R + Lambda estimate"), {"residual": resid}

    trace, _ = _bootstrap(hyper, theta_mat, H.T @ cost.Q @ H, R, evaluate)
    return LearnedSolution(trace=trace, rank=report, Lambda_star=Lambda)


def learn_feedback(moments: MomentTable, cost: CostWeights,
                   hyper: BpiHyperParams) -> LearnedSolution:
    """Bootstrap policy iteration by least squares on sampled moments.

    Requires a table discounted at hyper's (gamma - alpha0)/2 (else
    ConfigError) and the excitation rank condition on the raw moment
    columns; RankDeficient carries the singular spectrum.
    """
    n, m = moments.n, moments.m
    raw = np.hstack([h_form_rows(moments.S), moments.W.reshape(len(moments), n * m),
                     h_form_rows(moments.V)])
    report = require_rank(raw, feedback_required_rank(n, m), "moment data")
    nn2 = n * (n + 1) // 2

    def split(theta):
        M = theta[nn2:nn2 + n * m].reshape((m, n), order="F")
        return unvech(theta[:nn2], n), M, unvech(theta[nn2 + n * m:], m)

    return _learn(moments, cost, hyper, lambda psi: psi, split, report)


def learn_feedforward(moments: MomentTable, K_star, Lambda_star,
                      cost: CostWeights, hyper: BpiHyperParams, h_d_cases,
                      omega_F: np.ndarray | None = None) -> list[FeedforwardFit]:
    """Least-squares (Pi, F) for each reference output map in h_d_cases.

    The feedforward rows and their rank test do not depend on the output
    map, so both are built once; each case then solves its own
    right-hand side I_xdchi vec(H'Q H_d), H'Q H_d being the forcing of
    the model-based Sylvester equation. omega_F adds the shadow route's
    feedforward rows (from shadow_regressors), whose F block also enters
    the rank test.
    Returns one FeedforwardFit per case, in order.
    """
    _check_discount(moments, hyper)
    n, m, n_d = moments.n, moments.m, moments.n_d
    raw = np.hstack([moments.I_xdchi, moments.I_xdu])
    Xi = assemble_xi(moments, K_star, Lambda_star, cost)
    if omega_F is not None:
        raw = raw + np.hstack([np.zeros((len(moments), n * n_d)),
                               omega_F[:, n * n_d:]])
        Xi = Xi + omega_F
    report = require_rank(raw, feedforward_required_rank(n, m, n_d),
                          "reference moment data")
    HQ = moments.H.T @ cost.Q
    fits = []
    for h_d in h_d_cases:
        theta, resid = _lstsq(Xi, moments.I_xdchi @ vec(HQ @ np.reshape(h_d, (-1, n_d))))
        fits.append(FeedforwardFit(Pi=theta[:n * n_d].reshape((n, n_d), order="F"),
                                   F=theta[n * n_d:].reshape((m, n_d), order="F"),
                                   residual=resid, rank=report))
    return fits


# ---------------------------------------------------------------------------
# Shadow systems

def _shadow_series(shadow: ShadowConfig, B: np.ndarray, targets: np.ndarray):
    """z = [x_a; u; y_a] at the target grid indices, and its running Gram sums.

    Nothing is integrated numerically: with the shadow input
    u(t) = a sum_j sin(omega_j t) = Im sum_j a e^{i omega_j t},
        x_a(t) = Im sum_j c_j e^{i omega_j t} + e^{A_a t}(x_a0 - x_p(0)),
        c_j = a (i omega_j I - A_a)^{-1} B,
    and y_a(t) = e^{F_a t} y_a0, the exponentials taken through the
    eigendecompositions that ShadowConfig checked. So z(t) is
    Re sum_s g_s e^{s t}. The grid t = k h, from the first target to the
    last, goes in blocks of _SHADOW_BLOCK rows: one table of e^{s r h}
    serves every block, each block rotates g_s by e^{s t_b}, and is then
    one real matrix product. Returns z at each sorted target and S_m,
    the sum of z_k z_k' over targets[0] <= k <= targets[m].
    """
    n, n_d, sig = shadow.n, shadow.n_d, shadow.u_a
    d, J = n + 1 + n_d, sig.omegas.size
    c = sig.amplitude * np.linalg.solve(
        1j * sig.omegas[:, None, None] * np.eye(n) - shadow.A_a,
        np.broadcast_to(B, (J, n, 1)))[..., 0]
    lam, V = np.linalg.eig(shadow.A_a)
    mu, W = np.linalg.eig(shadow.F_a)
    rates = np.concatenate([1j * sig.omegas, lam, mu])
    g = np.zeros((rates.size, d), dtype=complex)
    g[:J, :n] = -1j * c  # Im w = Re(-i w)
    g[:J, n] = -1j * sig.amplitude
    g[J:J + n, :n] = (V * np.linalg.solve(V, shadow.x_a0 - c.imag.sum(axis=0))).T
    g[J + n:, n + 1:] = (W * np.linalg.solve(W, shadow.y_a0)).T
    h, L = shadow.h, _SHADOW_BLOCK
    E = np.exp(np.outer(np.arange(L) * h, rates))
    table = np.hstack([E.real, -E.imag])
    seg = np.zeros((targets.size, d, d))  # Gram sum over (targets[m-1], targets[m]]
    z = np.empty((targets.size, d))
    m = 0
    for kb in range(targets[0], targets[-1] + 1, L):
        rows = min(L, targets[-1] + 1 - kb)
        rot = np.exp(rates * (kb * h))[:, None] * g
        Z = table[:rows] @ np.vstack([rot.real, rot.imag])
        p = 0
        while p < rows:
            q = min(rows, targets[m] - kb + 1)
            seg[m] += Z[p:q].T @ Z[p:q]
            if q == targets[m] - kb + 1:
                z[m] = Z[q - 1]
                m += 1
            p = q
    return z, np.cumsum(seg, axis=0)


def shadow_regressors(shadow: ShadowConfig, b_matrix, r_matrix,
                      t_global: np.ndarray, window: float):
    """Omega rows of the two auxiliary systems on the global clock.

    Omega_K pairs with [vech(P); vec(K)] and Omega_F with
    [vec(Pi); vec(F)]; both vanish at the true iterates, which is what
    makes adding them to the plant rows legitimate. The auxiliary
    trajectories are in closed form (_shadow_series) and each window
    integral is the trapezoid rule of step shadow.h.
    """
    n, n_d, h = shadow.n, shadow.n_d, shadow.h
    B = np.asarray(b_matrix, dtype=float).reshape(n, -1)
    if B.shape[1] != 1:
        raise ConfigError(f"the shadow input is scalar: B must have one column, "
                          f"got {B.shape[1]}")
    R = float(np.asarray(r_matrix, dtype=float).reshape(()))
    t_global = np.asarray(t_global, dtype=float)
    if not _on_grid(window, h):
        raise ConfigError("window must be a multiple of the shadow grid step")
    if not _on_grid(t_global, h):
        raise ConfigError("global sample times must lie on the shadow grid")
    w_steps = round(window / h)
    idx = np.round(t_global / h).astype(int)
    targets, pos = np.unique(np.concatenate([idx, idx + w_steps]), return_inverse=True)
    at, atw = pos[:idx.size], pos[idx.size:]
    z, S = _shadow_series(shadow, B, targets)
    zz = z[:, :, None] * z[:, None, :]
    dzz = zz[atw] - zz[at]
    G = h * (S[atw] - S[at] - 0.5 * dzz)  # trapezoid over each window
    A_a, x, y = shadow.A_a, slice(0, n), slice(n + 1, None)
    I_xx = G[:, x, x]
    omega_K = np.hstack([h_form_rows(dzz[:, x, x] - A_a @ I_xx - I_xx @ A_a.T),
                         -2.0 * R * G[:, x, n]])
    couple = np.kron(np.eye(n_d), A_a.T) + np.kron(shadow.F_a.T, np.eye(n))
    omega_F = np.hstack([dzz[:, y, x].reshape(-1, n_d * n)
                         - G[:, y, x].reshape(-1, n_d * n) @ couple,
                         -R * G[:, y, n]])
    return omega_K, omega_F


def learn_shadow(moments: MomentTable, shadow: ShadowConfig, b_matrix,
                 cost: CostWeights, hyper: BpiHyperParams, omegas) -> LearnedSolution:
    """Feedback learning with zero plant excitation.

    The plant data must come from unforced trajectories of a plant with
    no input noise channel (D = 0); the parameterization then drops the
    Lambda block and estimates [vech(P); vec(K)] directly. Rank is
    restored by adding the auxiliary-system rows to the plant rows at
    matching global sample times. ``omegas`` is the shadow_regressors
    pair (omega_K, omega_F); this uses omega_K, and omega_F goes to
    learn_feedforward for the feedforward fits.
    """
    n, m = moments.n, moments.m
    if shadow.n != n:
        raise ConfigError("shadow state dimension does not match the data")
    B = np.asarray(b_matrix, dtype=float).reshape(n, -1)
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
    report = require_rank(raw_aug, feedback_required_rank(n, m, with_lambda=False),
                          "augmented moment data")
    lift = np.kron(np.eye(n), cost.R)

    def columns(psi):
        return np.hstack([psi[:, :nn2], psi[:, nn2:nn2 + n * m] @ lift]) + omega_K

    def split(theta):
        K = theta[nn2:].reshape((m, n), order="F")
        return unvech(theta[:nn2], n), cost.R @ K, np.zeros((m, m))

    return _learn(moments, cost, hyper, columns, split, report)

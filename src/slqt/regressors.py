"""From trajectories to linear equations.

Takes grid-level ensemble means (or exact moments) and produces, per
sample time t_i, the windowed raw moments over [t_i, t_i + T], then
assembles them into the regressor rows whose least-squares solutions
recover the value matrix, the gain, and the feedforward pair. The
right-hand sides are those of the model-based equations: psi_rhs of a
policy-iteration forcing, and I_xdchi vec(H'Q H_d) for the feedforward,
so the feedforward rows do not depend on the reference output map.

Conventions: vech rows pair with h_form rows through
<vech(P), h_form(M)> = trace(P M); column-major vec pairs through
a' M b = (b kron a)' vec(M).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RankDeficient, WindowOutOfRange
from .sim import _on_grid, _reference_states
from .symquad import h_form_rows, unvech_rows, vech

__all__ = [
    "MomentTable", "RankReport", "accumulate_raw_moments", "assemble_psi",
    "assemble_xi", "psi_rhs", "rank_report", "require_rank",
    "feedback_required_rank", "feedforward_required_rank",
]

_RANK_TOL = 1e-8  # relative singular-value cutoff of rank_report


@dataclass(frozen=True)
class MomentTable:
    """Windowed raw moments per sample time.

    G0/GT are the endpoint second moments E[chi chi'] at t_i and
    t_i + T; S, W, V the windowed integrals of chi chi', chi u', u u'.
    The d_/I_ blocks are the deterministic reference-by-mean moments
    used by the feedforward solve, stored as flattened Kronecker
    columns. H is the plant output map, from which the learners form
    the cost forcing H'QH and every output map's right-hand side
    I_xdchi vec(H'Q H_d). discount is the rate of the trajectory the
    table came from (None if undiscounted); the learners refuse a table
    whose discount is not their (gamma - alpha0)/2. t_global locates
    each sample on the experiment-wide clock (segments of a multi-run
    dataset differ in offset), which is what shadow augmentation aligns on.
    """

    t: np.ndarray
    t_global: np.ndarray
    window: float
    G0: np.ndarray
    GT: np.ndarray
    S: np.ndarray
    W: np.ndarray
    V: np.ndarray
    d_xdchi: np.ndarray
    I_xdchi: np.ndarray
    I_xdu: np.ndarray
    H: np.ndarray
    discount: float | None

    def __len__(self) -> int:
        return self.t.size

    @property
    def n(self) -> int:
        return self.S.shape[1]

    @property
    def m(self) -> int:
        return self.V.shape[1]

    @property
    def n_d(self) -> int:
        return self.I_xdu.shape[1] // self.m

    @staticmethod
    def concat(tables) -> "MomentTable":
        """Stack the rows of several tables (multi-segment datasets)."""
        first = tables[0]
        for tb in tables[1:]:
            if (tb.window, tb.n, tb.m, tb.n_d) != (first.window, first.n, first.m, first.n_d):
                raise ConfigError("tables disagree on window or dimensions")
            if tb.discount != first.discount:
                raise ConfigError(f"tables disagree on discount: {first.discount} "
                                  f"and {tb.discount}")
            if not np.array_equal(tb.H, first.H):
                raise ConfigError(f"tables disagree on the output map H: "
                                  f"{first.H.tolist()} and {tb.H.tolist()}")

        def cat(name):
            return np.concatenate([getattr(tb, name) for tb in tables], axis=0)

        return MomentTable(
            t=cat("t"), t_global=cat("t_global"), window=first.window,
            G0=cat("G0"), GT=cat("GT"), S=cat("S"), W=cat("W"),
            V=cat("V"), d_xdchi=cat("d_xdchi"), I_xdchi=cat("I_xdchi"),
            I_xdu=cat("I_xdu"), H=first.H, discount=first.discount)


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of a regressor matrix, SVD based."""

    rank: int
    required_rank: int
    singular_values: np.ndarray
    margin: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.rank >= self.required_rank


def feedback_required_rank(n: int, m: int, with_lambda: bool = True) -> int:
    base = n * (n + 1) // 2 + n * m
    return base + m * (m + 1) // 2 if with_lambda else base


def feedforward_required_rank(n: int, m: int, n_d: int) -> int:
    return (n + m) * n_d


def _windowed_integrals(y: np.ndarray, idx: np.ndarray, w: int,
                        h: float) -> np.ndarray:
    # composite Simpson, each step integrated as the parabola through it
    # and the next sample (even steps) or the previous one (odd steps and
    # the last), the sums scipy's cumulative_simpson forms; windows of any
    # start and length integrate quadratics exactly
    if len(y) < 3:  # the trapezoid rule
        steps = h * (y[1:] + y[:-1]) / 2.0
    else:
        def parabola(near, mid, far):
            return h / 3.0 * (5.0 * near / 4.0 + 2.0 * mid - far / 4.0)

        steps = np.empty((len(y) - 1,) + y.shape[1:])
        a, b, c = y[:-2:2], y[1:-1:2], y[2::2]
        steps[0:2 * len(a):2] = parabola(a, b, c)
        steps[1:2 * len(a):2] = parabola(c, b, a)
        steps[-1] = parabola(y[-1], y[-2], y[-3])
    cum = np.zeros((len(y),) + y.shape[1:])
    np.cumsum(steps, axis=0, out=cum[1:])
    return cum[idx + w] - cum[idx]


def _check_psd(name: str, rows_of_mats: np.ndarray) -> None:
    evals = np.linalg.eigvalsh(0.5 * (rows_of_mats + np.swapaxes(rows_of_mats, 1, 2)))
    scale = np.abs(rows_of_mats).max(initial=0.0)
    if evals.min(initial=0.0) < -1e-10 * max(1.0, scale):
        raise ConfigError(f"{name} moments are not positive semidefinite "
                          f"(min eigenvalue {evals.min():.3e})")


def accumulate_raw_moments(source, config, output_map, reference,
                           t_offset: float = 0.0) -> MomentTable:
    """Windowed moments of a moment trajectory, by composite Simpson.

    ``source`` is a MomentTrajectory (grid arrays t, mean_x, mean_xx, u
    and the discount it carries) from either data route; the table
    records that discount. Each window integral is exact for moments
    quadratic in t, at any sample index and window length (a grid of
    two points falls back to the trapezoid rule), so with the exact
    route's RK4 moments the table is fourth-order accurate in h. The
    sampling layout (t1, sample_period, l, window) comes from the
    SimConfig ``config``. ``output_map`` is the H the learners need for
    their right-hand sides. The source runs from t_offset on the
    experiment clock, which the table stores as t_global; the
    ReferenceGenerator ``reference`` is restarted from its state at
    t_offset and evaluated on the source grid, exactly.
    """
    t = source.t
    h = float(t[1] - t[0])
    N = t.size - 1
    if not _on_grid(config.window, h):
        raise ConfigError("window must be a multiple of the source grid step")
    sample_t = config.sample_times()
    if not _on_grid(sample_t, h):
        raise ConfigError("sample times must lie on the source grid")
    w = round(config.window / h)
    idx = np.round(sample_t / h).astype(int)
    if idx.min() < 0 or idx.max() + w > N:
        raise WindowOutOfRange(
            f"samples span [{sample_t[0]}, {sample_t[-1]} + {config.window}] "
            f"but the source grid ends at {t[-1]}")
    x_d0 = _reference_states(reference.A_d, reference.x_d0, [t_offset])[0]
    x_d = _reference_states(reference.A_d, x_d0, t)

    mx, mxx, u = source.mean_x, source.mean_xx, source.u
    n, m = mx.shape[1], u.shape[1]
    l = idx.size
    G0 = unvech_rows(mxx[idx], n)
    GT = unvech_rows(mxx[idx + w], n)
    S = unvech_rows(_windowed_integrals(mxx, idx, w, h), n)
    xu = (mx[:, :, None] * u[:, None, :]).reshape(t.size, n * m)
    W = _windowed_integrals(xu, idx, w, h).reshape(l, n, m)
    riu, ciu = np.triu_indices(m)
    uu = u[:, riu] * u[:, ciu]
    Vw = _windowed_integrals(uu, idx, w, h)
    V = np.empty((l, m, m))
    V[:, riu, ciu] = Vw
    V[:, ciu, riu] = Vw
    _check_psd("S", S)
    _check_psd("V", V)

    n_d = x_d.shape[1]
    xdchi = np.einsum("td,tn->tdn", x_d, mx).reshape(t.size, n_d * n)
    I_xdchi = _windowed_integrals(xdchi, idx, w, h)
    xdu = np.einsum("td,tm->tdm", x_d, u).reshape(t.size, n_d * m)
    return MomentTable(t=sample_t, t_global=sample_t + t_offset,
                       window=config.window, G0=G0, GT=GT, S=S, W=W, V=V,
                       d_xdchi=xdchi[idx + w] - xdchi[idx], I_xdchi=I_xdchi,
                       I_xdu=_windowed_integrals(xdu, idx, w, h),
                       H=np.asarray(output_map, dtype=float).reshape(-1, n),
                       discount=source.discount)


def assemble_psi(moments: MomentTable, shift: float, K_prev) -> np.ndarray:
    """Regressor rows pairing with theta = [vech(P); vec(M); vech(Lambda)].

    Row t_i = [ dbar_chi + shift h(S);
                -2 (vec(K_prev S) + vec(W'));
                -h(V) + h(K_prev S K_prev') ],
    with shift = alpha - alpha0, the learner's level less its alpha0.
    """
    n, m = moments.n, moments.m
    K_prev = np.asarray(K_prev, dtype=float).reshape(m, n)
    l = len(moments)
    hS = h_form_rows(moments.S)
    blk_P = h_form_rows(moments.GT) - h_form_rows(moments.G0) + shift * hS
    KS = np.einsum("ak,lkn->lan", K_prev, moments.S)
    vec_KS = np.transpose(KS, (0, 2, 1)).reshape(l, m * n)
    vec_Wt = moments.W.reshape(l, n * m)
    blk_M = -2.0 * (vec_KS + vec_Wt)
    KSK = np.einsum("lan,bn->lab", KS, K_prev)
    blk_L = -h_form_rows(moments.V) + h_form_rows(KSK)
    return np.hstack([blk_P, blk_M, blk_L])


def psi_rhs(moments: MomentTable, forcing) -> np.ndarray:
    """-trace(forcing * S_i) per row, for the forcing of either phase
    (K'RK + theta or K'RK + H'QH)."""
    return -h_form_rows(moments.S) @ vech(np.asarray(forcing, dtype=float))


def assemble_xi(moments: MomentTable, K_star, Lambda_star, cost) -> np.ndarray:
    """Feedforward rows pairing with [vec(Pi); vec(F)].

    Row t_i = [ d_xdchi + discount * I_xdchi ;
                -I_xdchi' (I kron (R+Lambda)K) - I_xdu' (I kron (R+Lambda)) ],
    discount being the table's, (gamma - alpha0)/2 of the learner that
    checked it; the right-hand side of output map H_d is
    I_xdchi vec(H'Q H_d).
    """
    n, m, n_d = moments.n, moments.m, moments.n_d
    K_star = np.asarray(K_star, dtype=float).reshape(m, n)
    RL = cost.R + np.asarray(Lambda_star, dtype=float).reshape(m, m)
    blk_Pi = moments.d_xdchi + moments.discount * moments.I_xdchi
    eye_d = np.eye(n_d)
    blk_F = (-moments.I_xdchi @ np.kron(eye_d, RL @ K_star).T
             - moments.I_xdu @ np.kron(eye_d, RL).T)
    return np.hstack([blk_Pi, blk_F])


def rank_report(matrix, required_rank: int) -> RankReport:
    """SVD numerical rank: count of singular values above _RANK_TOL * largest."""
    sv = np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False)
    smax = sv[0] if sv.size else 0.0
    rank = int(np.count_nonzero(sv > _RANK_TOL * smax))  # 0 when every value is 0
    margin = -_RANK_TOL
    if smax != 0.0 and required_rank <= sv.size:
        margin += sv[required_rank - 1] / smax
    return RankReport(rank=rank, required_rank=required_rank,
                      singular_values=sv, margin=float(margin), tol=_RANK_TOL)


def require_rank(matrix, required_rank: int, data: str) -> RankReport:
    """rank_report of matrix; RankDeficient, with the report attached and
    ``data`` naming the rows in its message, when the rank falls short."""
    report = rank_report(matrix, required_rank)
    if not report.passed:
        raise RankDeficient(f"{data} spans rank {report.rank} < required "
                            f"{report.required_rank}", report=report)
    return report

"""Plant, reference, cost and hyperparameter types, plus the generalized
Lyapunov operator whose spectral abscissa is the mean-square stability
certificate used everywhere.

The plant is the Ito SDE

    dx = (A x + B u) dt + (C x + D u) dw,    y = H x,

with scalar Brownian motion w. The alpha-parameterized family shifts the
drift to A(alpha) = A - (gamma - alpha)/2 * I; at alpha = gamma it is the
original plant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SingularOperator
from .symquad import unvech, vech, vech_indices, vech_rows

__all__ = [
    "StochasticSystem", "ReferenceGenerator", "CostWeights", "BpiHyperParams",
    "TrackingProblem", "StabilityCertificate",
    "lyap_matrix", "spectral_abscissa", "is_stabilizing", "zero_gain_threshold",
]


def _as_matrix(x, name: str) -> np.ndarray:
    M = np.asarray(x, dtype=float)
    if M.ndim == 0:
        M = M.reshape(1, 1)
    elif M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise ConfigError(f"{name} must be a matrix, got ndim={M.ndim}")
    if not np.isfinite(M).all():
        raise ConfigError(f"{name} contains non-finite entries")
    return M


_COND_LIMIT = 1e12  # largest trusted condition of an eigenbasis, operator or gain matrix
_GUARD = 1e-9  # band below zero that absorbs eigensolver noise in a certificate


def _check_eigenbasis(M: np.ndarray, name: str, imaginary: bool = False) -> None:
    """ConfigError unless M has an eigenvector matrix of condition at most
    _COND_LIMIT, so that e^{Mt} is evaluated through its eigenbasis, and,
    when imaginary is set, every eigenvalue has |Re| at most 1e-8."""
    w, V = np.linalg.eig(M)
    worst = np.abs(w.real).max(initial=0.0)
    if imaginary and worst > 1e-8:
        raise ConfigError(f"{name} eigenvalues must be imaginary within 1e-8, worst {worst:.3e}")
    cond = np.linalg.cond(V) if V.size else 1.0  # a 0 x 0 M has nothing to check
    if not cond <= _COND_LIMIT:
        raise ConfigError(f"{name} is defective or nearly so: its eigenvector "
                          f"matrix has condition {cond:.3e} > {_COND_LIMIT:.0e}")


def _check_pd(M: np.ndarray, name: str) -> None:
    if np.abs(M - M.T).max(initial=0.0) > 1e-10 * max(1.0, np.abs(M).max()):
        raise ConfigError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(M).min() <= 0.0:
        raise ConfigError(f"{name} must be positive definite")


@dataclass(frozen=True)
class StochasticSystem:
    """Plant matrices (A, B, C, D, H) with dimensions (n, m, q)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        n = A.shape[0]
        if A.shape != (n, n):
            raise ConfigError(f"A must be square, got {A.shape}")
        B = _as_matrix(self.B, "B")
        if B.shape[0] != n:
            raise ConfigError(f"B must have {n} rows, got {B.shape}")
        C = _as_matrix(self.C, "C")
        if C.shape != (n, n):
            raise ConfigError(f"C must be {n}x{n}, got {C.shape}")
        D = _as_matrix(self.D, "D")
        if D.shape != B.shape:
            raise ConfigError(f"D must match B's shape {B.shape}, got {D.shape}")
        H = _as_matrix(self.H, "H")
        if H.shape[1] != n:
            raise ConfigError(f"H must have {n} columns, got {H.shape}")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D), ("H", H)):
            object.__setattr__(self, name, M)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def q(self) -> int:
        return self.H.shape[0]

    def closed_loop(self, K: np.ndarray, shift: float = 0.0):
        """(A - shift*I - B K, C - D K) for a given drift shift."""
        K = np.asarray(K, dtype=float).reshape(self.m, self.n)
        A_cl = self.A - shift * np.eye(self.n) - self.B @ K
        C_cl = self.C - self.D @ K
        return A_cl, C_cl


@dataclass(frozen=True)
class ReferenceGenerator:
    """Autonomous reference x_d' = A_d x_d, y_d = H_d x_d.

    A_d eigenvalues must sit on the imaginary axis (marginally stable
    oscillator bank), which keeps the reference bounded without decay,
    and A_d needs a well-conditioned eigenbasis, as the shadow's F_a does.
    """

    A_d: np.ndarray
    H_d: np.ndarray
    x_d0: np.ndarray

    def __post_init__(self):
        A_d = _as_matrix(self.A_d, "A_d")
        n_d = A_d.shape[0]
        if A_d.shape != (n_d, n_d):
            raise ConfigError(f"A_d must be square, got {A_d.shape}")
        H_d = _as_matrix(self.H_d, "H_d")
        if H_d.shape[1] != n_d:
            raise ConfigError(f"H_d must have {n_d} columns, got {H_d.shape}")
        x_d0 = np.asarray(self.x_d0, dtype=float).ravel()
        if x_d0.size != n_d:
            raise ConfigError(f"x_d0 must have length {n_d}, got {x_d0.size}")
        _check_eigenbasis(A_d, "A_d", imaginary=True)
        object.__setattr__(self, "A_d", A_d)
        object.__setattr__(self, "H_d", H_d)
        object.__setattr__(self, "x_d0", x_d0)

    @property
    def n_d(self) -> int:
        return self.A_d.shape[0]

    @property
    def q(self) -> int:
        return self.H_d.shape[0]

    def with_output_map(self, H_d) -> "ReferenceGenerator":
        """Same generator, different output row(s); used by the gain tables."""
        return ReferenceGenerator(self.A_d, H_d, self.x_d0)


@dataclass(frozen=True)
class CostWeights:
    """Tracking-error weight Q (q x q) and input weight R (m x m), both PD."""

    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        Q = _as_matrix(self.Q, "Q")
        R = _as_matrix(self.R, "R")
        _check_pd(Q, "Q")
        _check_pd(R, "R")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)


@dataclass(frozen=True)
class BpiHyperParams:
    """Bootstrap policy-iteration hyperparameters.

    theta=None resolves to 10 * I_n once the plant dimension is known.
    Phase II of every route, model-based or learned, stops on the value
    step ||P_i - P_{i-1}||_F <= epsilon; each phase has at most
    max_iter steps.
    """

    gamma: float = 1.0
    alpha0: float = 0.1
    eta: float = 0.95
    theta: np.ndarray | None = None
    epsilon: float = 1e-5
    max_iter: int = 200

    def __post_init__(self):
        if not (0.0 < self.alpha0 < self.gamma < np.inf):
            raise ConfigError(f"need 0 < alpha0 < gamma < inf, got alpha0={self.alpha0}, "
                              f"gamma={self.gamma}")
        if not (0.0 < self.eta < 1.0):
            raise ConfigError(f"need 0 < eta < 1, got {self.eta}")
        if not 0.0 < self.epsilon < np.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if self.theta is not None:
            th = _as_matrix(self.theta, "theta")
            _check_pd(th, "theta")
            object.__setattr__(self, "theta", th)

    def theta_for(self, n: int) -> np.ndarray:
        if self.theta is None:
            return 10.0 * np.eye(n)
        if self.theta.shape != (n, n):
            raise ConfigError(f"theta must be {n}x{n}, got {self.theta.shape}")
        return self.theta

    @property
    def alpha_tilde(self) -> float:
        """Discount rate of the transform chi = exp(-alpha_tilde t) x."""
        return 0.5 * (self.gamma - self.alpha0)


@dataclass(frozen=True)
class TrackingProblem:
    """Plant + reference + cost + hyperparameters: one solvable instance."""

    system: StochasticSystem
    reference: ReferenceGenerator
    cost: CostWeights
    hyper: BpiHyperParams = field(default_factory=BpiHyperParams)

    def __post_init__(self):
        sys, ref, cost = self.system, self.reference, self.cost
        if ref.q != sys.q:
            raise ConfigError(
                f"H and H_d disagree on output dimension: {sys.q} vs {ref.q}")
        if cost.Q.shape != (sys.q, sys.q):
            raise ConfigError(f"Q must be {sys.q}x{sys.q}, got {cost.Q.shape}")
        if cost.R.shape != (sys.m, sys.m):
            raise ConfigError(f"R must be {sys.m}x{sys.m}, got {cost.R.shape}")
        self.hyper.theta_for(sys.n)

    @property
    def theta(self) -> np.ndarray:
        return self.hyper.theta_for(self.system.n)


@dataclass(frozen=True)
class StabilityCertificate:
    """Result of a mean-square stability test; truthy iff stabilizing."""

    stabilizing: bool
    abscissa: float
    alpha: float | None

    def __bool__(self) -> bool:
        return self.stabilizing


# basis columns per step of the operator build: bounds its (k, n, n) stacks
_BUILD_CHUNK = 64
# smallest vech dimension at which shift-invert Arnoldi beats the dense
# eigensolve. Measured on seeded plants, one BLAS thread, medians of four:
# at n = 10, d = 55, eigvals takes 0.52 ms against 0.69 ms for Arnoldi
# (0.08 ms more for the inverse when no solve has formed it); at n = 11,
# d = 66, 0.79 ms against 0.48 ms (+0.10 ms); at n = 32, d = 528, 134 ms
# against 4 ms (+17 ms)
_ARNOLDI_MIN_DIM = 64
# Krylov vectors per Arnoldi cycle (ARPACK's ncv for one eigenvalue), and
# the cycles allowed before the dense eigensolve takes over
_ARNOLDI_VECTORS = 20
_ARNOLDI_RESTARTS = 100


def _lyap_operator(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Matrix of X -> A'X + XA + C'XC on vech coordinates.

    Column j is vech of the map applied to E_j = unvech(e_j), the
    symmetric basis that vech coordinates expand in; the columns are
    built _BUILD_CHUNK at a time. E_j is e_r e_c' + e_c e_r' (e_r e_r' on
    the diagonal), so M'E_j has row r of M as its column c and row c as
    its column r: these are added into zeros, which gives the bits of
    the products M'E_j (one nonzero term each) without forming them.
    """
    n = A.shape[0]
    r, c = vech_indices(n)
    d = r.size
    L = np.empty((d, d))
    for j0 in range(0, d, _BUILD_CHUNK):
        j1 = min(j0 + _BUILD_CHUNK, d)
        rj, cj = r[j0:j1], c[j0:j1]
        k = np.arange(j1 - j0)
        off = rj != cj
        AE = np.zeros((k.size, n, n))
        CE = np.zeros((k.size, n, n))
        for ME, M in ((AE, A), (CE, C)):
            ME[k, :, cj] += M[rj]
            ME[k[off], :, rj[off]] += M[cj[off]]
        L[:, j0:j1] = vech_rows(AE + AE.transpose(0, 2, 1) + CE @ C).T
    return L


def _invert(L: np.ndarray) -> np.ndarray:
    """L^-1; all NaN when L is exactly singular, which every use refuses."""
    try:
        return np.linalg.inv(L)
    except np.linalg.LinAlgError:
        return np.full_like(L, np.nan)


def _inverse_certificate(L_inv: np.ndarray) -> np.ndarray | None:
    """vech X with L(X) = -I when X is positive definite, else None.

    L is resolvent positive, so its abscissa is negative exactly when
    that X is positive definite (T. Damm, Rational Matrix Equations in
    Stochastic Control, 2004).
    """
    d = L_inv.shape[0]
    n = int(round((np.sqrt(8 * d + 1) - 1) / 2))
    x = L_inv @ -vech(np.eye(n))
    if not np.isfinite(x).all():
        return None
    try:
        np.linalg.cholesky(unvech(x, n))
    except np.linalg.LinAlgError:
        return None
    return x


def _arnoldi_abscissa(L_inv: np.ndarray) -> float | None:
    """Abscissa of L from shift-invert Arnoldi on its inverse.

    None unless the inverse certificate holds and Arnoldi converges.
    When the abscissa beta is negative it is a real eigenvalue and every
    other eigenvalue has modulus at least |beta|, so 1/beta is the
    eigenvalue of L^-1 of largest modulus. Each cycle builds an Arnoldi
    factorization of _ARNOLDI_VECTORS vectors and restarts from its
    Ritz vector of largest modulus until the Ritz estimate is below
    machine precision relative to the Ritz value, the test ARPACK
    applies (R. B. Lehoucq and D. C. Sorensen, SIAM J. Matrix Anal.
    Appl. 17, 1996). The first cycle starts from the certificate's X,
    which has a positive component along beta's positive semidefinite
    eigenvector, never from a random vector, so reruns are bit-identical.
    """
    x = _inverse_certificate(L_inv)
    if x is None:
        return None
    d = x.size
    m = min(_ARNOLDI_VECTORS, d)
    eps = np.finfo(float).eps
    V = np.empty((d, m))
    H = np.zeros((m + 1, m))
    v = x
    for _ in range(_ARNOLDI_RESTARTS):
        V[:, 0] = v / np.linalg.norm(v)
        H[:] = 0.0
        k, exact = m, False
        for j in range(m):
            w = L_inv @ V[:, j]
            scale = np.linalg.norm(w)
            for _ in range(2):  # Gram-Schmidt, then once more against cancellation
                h = V[:, :j + 1].T @ w
                w -= V[:, :j + 1] @ h
                H[:j + 1, j] += h
            H[j + 1, j] = np.linalg.norm(w)
            if j + 1 == d or H[j + 1, j] <= eps * scale:  # an invariant subspace
                k, exact = j + 1, True
                break
            if j + 1 < m:
                V[:, j + 1] = w / H[j + 1, j]
        theta, Y = np.linalg.eig(H[:k, :k])
        i = int(np.argmax(np.abs(theta)))
        if exact or abs(H[k, k - 1] * Y[-1, i]) <= eps * abs(theta[i]):
            return float((1.0 / theta[i]).real)
        v = (V[:, :k] @ Y[:, i]).real
    return None


def _abscissa(L: np.ndarray, inverse: np.ndarray | None = None) -> float:
    """Abscissa of L: Arnoldi on its inverse from _ARNOLDI_MIN_DIM up, else dense."""
    if not np.isfinite(L).all():  # an overflow, as from a plant entry of 1e300
        raise SingularOperator("the generalized Lyapunov operator has non-finite entries")
    if L.shape[0] >= _ARNOLDI_MIN_DIM:
        beta = _arnoldi_abscissa(inverse if inverse is not None else _invert(L))
        if beta is not None:
            return beta
    return float(np.linalg.eigvals(L).real.max())


def _certificate(L: np.ndarray, alpha: float | None,
                 inverse: np.ndarray | None = None) -> StabilityCertificate:
    a = _abscissa(L, inverse)
    return StabilityCertificate(a < -_GUARD, a, alpha)


def lyap_matrix(sys: StochasticSystem, K, alpha: float | None = None,
                gamma: float = 1.0) -> np.ndarray:
    """Matrix of X -> A_cl' X + X A_cl + C_cl' X C_cl on vech coordinates.

    A_cl = A(alpha) - B K and C_cl = C - D K. alpha=None means the
    unshifted plant (equivalently alpha = gamma).
    """
    shift = 0.0 if alpha is None else 0.5 * (gamma - alpha)
    return _lyap_operator(*sys.closed_loop(K, shift))


def spectral_abscissa(sys: StochasticSystem, K, alpha: float | None = None,
                      gamma: float = 1.0) -> float:
    """Maximum real part over the generalized Lyapunov operator's spectrum."""
    return _abscissa(lyap_matrix(sys, K, alpha, gamma))


def is_stabilizing(sys: StochasticSystem, K, alpha: float | None = None,
                   gamma: float = 1.0) -> StabilityCertificate:
    """Certificate that K is mean-square stabilizing for S(alpha).

    True iff the abscissa is below -_GUARD; the guard band, 1e-9,
    absorbs eigenvalue-solver noise around zero.
    """
    return _certificate(lyap_matrix(sys, K, alpha, gamma), alpha)


def zero_gain_threshold(sys: StochasticSystem) -> float:
    """Abscissa of the open-loop (K=0) operator on the unshifted plant.

    Any gamma above this value plus alpha0 makes K=0 admissible at
    S(alpha0), which is what phase I of the bootstrap needs to start.
    """
    return spectral_abscissa(sys, np.zeros((sys.m, sys.n)))

"""Half-vectorization of symmetric matrices and column-major vectorization.

Conventions (load-bearing for every downstream dimension count):

* ``vech`` walks the upper triangle row-major: (0,0), (0,1), ..., (0,n-1),
  (1,1), ..., (n-1,n-1). Length n(n+1)/2.
* ``vec`` stacks columns (column-major), so that a'Mb = (b (x) a)' vec(M)
  and vec(a b') = b (x) a.
* ``h_form(M) = vech(2M - diagmat(M))`` makes quadratic forms linear:
  <vech(P), h_form(M)> = trace(P M), in particular
  <vech(P), h_form(x x')> = x'Px.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "vech", "unvech", "h_form", "vec", "vech_indices", "h_form_rows",
    "vech_rows", "unvech_rows",
]

_SYM_TOL = 1e-10


def vech_indices(n: int):
    """Row and column index arrays of the row-major upper triangle."""
    return np.triu_indices(n)


def _check_symmetric(M: np.ndarray, tol: float = _SYM_TOL) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    if np.abs(M - M.T).max(initial=0.0) > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    return M


def vech(S) -> np.ndarray:
    """Half-vectorize a symmetric matrix (row-major upper triangle)."""
    S = _check_symmetric(S)
    r, c = vech_indices(S.shape[0])
    return S[r, c].copy()


def unvech(v, n: int | None = None) -> np.ndarray:
    """Inverse of vech. Infers n from the length when not given."""
    v = np.asarray(v, dtype=float).ravel()
    if n is None:
        n = int(round((np.sqrt(8 * v.size + 1) - 1) / 2))
    if v.size != n * (n + 1) // 2:
        raise ValueError(f"length {v.size} is not n(n+1)/2 for n={n}")
    S = np.zeros((n, n))
    r, c = vech_indices(n)
    S[r, c] = v
    S[c, r] = v
    return S


def h_form(M) -> np.ndarray:
    """vech(2M - diagmat(M)); pairs with vech(P) to give trace(P M)."""
    M = _check_symmetric(M)
    return vech(2.0 * M - np.diag(np.diag(M)))


def vec(M) -> np.ndarray:
    """Column-major vectorization; vec(a b') = b (x) a."""
    return np.asarray(M, dtype=float).ravel(order="F")


# Vectorized forms over stacks of symmetric matrices, used by the regressor
# assembly where per-sample Python loops would dominate the runtime.

def vech_rows(Ms: np.ndarray) -> np.ndarray:
    """vech applied along the first axis of an (l, n, n) stack."""
    Ms = np.asarray(Ms, dtype=float)
    r, c = vech_indices(Ms.shape[-1])
    return Ms[:, r, c]


def h_form_rows(Ms: np.ndarray) -> np.ndarray:
    """h_form applied along the first axis of an (l, n, n) stack."""
    Ms = np.asarray(Ms, dtype=float)
    r, c = vech_indices(Ms.shape[-1])
    w = np.where(r == c, 1.0, 2.0)
    return Ms[:, r, c] * w


def unvech_rows(V: np.ndarray, n: int) -> np.ndarray:
    """unvech applied along the first axis of an (l, n(n+1)/2) stack."""
    V = np.asarray(V, dtype=float)
    out = np.zeros((V.shape[0], n, n))
    r, c = vech_indices(n)
    out[:, r, c] = V
    out[:, c, r] = V
    return out

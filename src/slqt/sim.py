"""Trajectory generation and moment estimation.

Euler-Maruyama integration of the plant SDE (scalar Brownian motion),
seeded probing signals, streamed trajectory ensembles reduced to moments,
exact moment propagation (the oracle the data pipeline is tested
against), and Monte Carlo average-cost estimation.

Every simulated path, single or in an ensemble, comes from one
Euler-Maruyama kernel: path i draws its increments from Philox(seed_i)
alone, so any member of an ensemble can be reproduced by itself (a
one-path run_ensemble from its seed). The increments follow the
two-point law of the simplified weak Euler scheme (Kloeden & Platen,
Numerical Solution of SDEs, 1992, section 14.1): dW = +sqrt(h) or
-sqrt(h), each with probability 1/2, one random bit per step. The plant
is linear, so its mean and second-moment recursions use only E xi = 0,
E xi^2 = 1 and independent steps; they are those of Gaussian
Euler-Maruyama exactly, and so is every expected value the moment
oracles give. Only the sampling spread differs (E xi^4 = 1, not 3).
Ensemble reductions are centered on path 0 and run in a fixed order so
that repeated runs with the same configuration are bit-identical, and
so that a zero-diffusion ensemble reduces exactly to its single path.

Ensembles are split into fixed batches of _PATH_BATCH paths, the unit
of reduction. Each process runs one contiguous share of the batches as
one kernel pass: this process the first, a forked worker each of the
others, one process per usable CPU (os.sched_getaffinity), with no
setting for the count. A share that starts past path 0 carries path 0
as an extra leading column, left out of its sums, since run_ensemble
centres every batch on path 0. Each batch is reduced from its column
slice of the pass into shared memory, and the batches' sums are added
in batch order, so the bytes do not depend on the number of workers.
"""

from __future__ import annotations

import mmap
import os
import pickle
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .errors import Blowup, ConfigError
from .model import ReferenceGenerator, _lyap_operator, is_stabilizing
from .symquad import vech_indices

__all__ = [
    "SimConfig", "ProbingSignal", "MomentTrajectory",
    "TrackingRun", "run_ensemble", "propagate_moments_exact",
    "estimate_average_cost", "CostEstimate", "simulate_tracking",
]

_BLOWUP_NORM = 1e8
# steps of sign bits unpacked at a time; a multiple of 64, so that a path's
# increments do not depend on where the chunks fall
_CHUNK_STEPS = 1024
_DRAW_CHUNKS = 8  # chunks of sign words drawn per random_raw call of a path
_SIGNS = np.array([1.0, -1.0])  # the increment of a 0 bit and a 1 bit, in units of sqrt(h)
_BLOCK_STEPS = 32  # EM steps per block of states handed to an observer
_PROBE_ROWS = 4096  # time samples per block of the probing-signal sine matrix
_SCAN_BLOCK = 128  # RK4 steps per block of the exact route's affine scan
_PATH_BATCH = 1000  # paths per reduction unit of an ensemble; the last batch takes the rest


def _on_grid(x, h: float) -> bool:
    """Whether every x lies within min(1e-9 max(1, |x|), 1e-3 h) of a multiple of h."""
    x = np.asarray(x, dtype=float)
    tol = np.minimum(1e-9 * np.maximum(1.0, np.abs(x)), 1e-3 * h)
    return bool((np.abs(np.round(x / h) * h - x) <= tol).all())


def _step_count(duration: float, h: float, name: str) -> int:
    """The number of h-steps in duration, which must be a positive multiple of h."""
    k = round(duration / h)
    if k < 1 or not _on_grid(duration, h):
        raise ConfigError(f"{name} {duration} is not a positive multiple of h = {h}")
    return k


@dataclass(frozen=True)
class SimConfig:
    """Grid and sampling layout shared by simulation and learning.

    h is the integration step, sample_period the spacing T_s between the
    l sample instants t_i = t1 + i*T_s, and window the length T of the
    moment integrals taken from each t_i. Simulation always starts at
    t=0 and must extend to the last window end t_l + T.
    """

    h: float = 1e-4
    sample_period: float = 1e-3
    window: float = 0.1
    t1: float = 0.0
    l: int = 5001
    n_paths: int = 2000
    base_seed: int = 0

    def __post_init__(self):
        if self.h <= 0.0:
            raise ConfigError("h must be positive")
        if self.sample_period < self.h:
            raise ConfigError("sample_period must be at least h")
        for name, x in (("sample_period", self.sample_period),
                        ("window", self.window), ("t1", self.t1)):
            if x < 0.0 or not _on_grid(x, self.h):
                raise ConfigError(f"{name}={x} must be a nonnegative multiple of h={self.h}")
        if self.window <= 0.0:
            raise ConfigError("window must be positive")
        if self.l < 1:
            raise ConfigError("l must be at least 1")
        if self.n_paths < 1:
            raise ConfigError("n_paths must be at least 1")

    @property
    def duration(self) -> float:
        return self.t1 + (self.l - 1) * self.sample_period + self.window

    @property
    def n_steps(self) -> int:
        return round(self.duration / self.h)

    def grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.h

    def sample_times(self) -> np.ndarray:
        return self.t1 + np.arange(self.l) * self.sample_period


@dataclass(frozen=True)
class ProbingSignal:
    """u(t) = a * sum_j sin(omega_j t) with frequencies drawn once.

    Evaluation is a pure function of t; the same seed always reproduces
    the same frequencies and therefore the same signal. The amplitude
    must be finite; freq_range is kept as two floats.
    """

    amplitude: float
    count: int
    freq_range: tuple[float, float]
    seed: int
    omegas: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("count must be at least 1")
        lo, hi = map(float, self.freq_range)
        object.__setattr__(self, "freq_range", (lo, hi))
        if not np.isfinite(self.amplitude):
            raise ConfigError(f"probing amplitude must be finite, got {self.amplitude!r}")
        if hi < lo:
            raise ConfigError("frequency range must be ordered")
        rng = np.random.Generator(np.random.Philox(self.seed))
        object.__setattr__(self, "omegas", rng.uniform(lo, hi, self.count))

    def __call__(self, t):
        # the (samples x frequencies) sine matrix is built one block of
        # samples at a time so long grids stay small in memory; each
        # sample's sum is the same as in one piece
        t = np.asarray(t, dtype=float)
        flat = t.ravel()
        vals = np.empty(flat.size)
        for a in range(0, flat.size, _PROBE_ROWS):
            blk = flat[a:a + _PROBE_ROWS]
            vals[a:a + blk.size] = self.amplitude * np.sin(blk[:, None] * self.omegas).sum(axis=-1)
        return float(vals[0]) if t.ndim == 0 else vals.reshape(t.shape)


def _sample_input(fn, t: np.ndarray, m: int) -> np.ndarray:
    """Evaluate a vectorized time-function on the grid as an (N, m) array."""
    if fn is None:
        return np.zeros((t.size, m))
    v = np.asarray(fn(t), dtype=float)
    if v.shape == (t.size, m):
        return v
    if m == 1 and v.shape == t.shape:
        return v[:, None]
    expected = f"({t.size},) or ({t.size}, 1)" if m == 1 else f"({t.size}, {m})"
    raise ConfigError(f"input function returned shape {v.shape} on a grid of "
                      f"{t.size} times; expected {expected}")


def _check_block(S, k0, h, sys_name, paths):
    """Raise Blowup at the first state of S (steps k0, k0 + 1, ...) where
    a path's norm is over _BLOWUP_NORM or not finite, naming the
    lowest-index such path (paths[p] for column p) and the time in
    seconds."""
    lim = _BLOWUP_NORM / np.sqrt(S.shape[1])
    if S.max() <= lim and S.min() >= -lim:  # false on NaN too
        return
    norms = np.sqrt(np.einsum("kip,kip->kp", S, S))
    bad = ~(norms <= _BLOWUP_NORM)
    if bad.any():
        j, p = np.unravel_index(np.argmax(bad), bad.shape)
        t, p = (k0 + int(j)) * h, int(paths[p])
        raise Blowup(f"{sys_name} norm exceeded {_BLOWUP_NORM:.0e} on path {p} "
                     f"at t = {t:.6g}", path_index=p, time=t)


def _sign_words(bitgens, n_steps: int) -> np.ndarray:
    """The words holding the sign bits of the next n_steps increments of
    every path: row i holds ceil(n_steps / 64) words from one
    bitgens[i].random_raw call."""
    words = np.empty((len(bitgens), -(-n_steps // 64)), dtype="<u8")
    for i, bg in enumerate(bitgens):
        words[i] = bg.random_raw(words.shape[1])
    return words


def _unpack_signs(words) -> np.ndarray:
    """Row k of the (64 * words.shape[1], paths) uint8 result holds bit k
    of each path's words, little-endian within each 64-bit word: 0 for an
    increment of +sqrt(h), 1 for -sqrt(h) (_SIGNS)."""
    return np.unpackbits(words.view(np.uint8).T, axis=0, bitorder="little")


def _sign_bits(bitgens, n_steps: int) -> np.ndarray:
    """The sign bits of the next n_steps increments of every path,
    step-major, in one piece: the bits the kernel draws _DRAW_CHUNKS
    chunks at a time and unpacks one chunk at a time. Rows past n_steps
    are the unused bits of the last word.
    """
    return _unpack_signs(_sign_words(bitgens, n_steps))


def _em_paths(A, C, forcing, x0, seeds, n_steps: int, h: float, observe,
              sys_name: str = "state", paths=None) -> None:
    """Euler-Maruyama paths of dx = (Ax+Bu)dt + (Cx+Du)dw from a common x0.

    forcing is (B, D, u) with u the (n_steps+1, m) input on the grid.
    Column i draws its increments, +-sqrt(h), from the bits of
    Philox(seeds[i]), one random_raw call per _DRAW_CHUNKS chunks of
    _CHUNK_STEPS steps, unpacked a chunk at a time (see _sign_bits).
    paths[i] is the number a Blowup gives column i's path (by default i).
    The state is X of shape (n, len(seeds)), paths on the last axis; one
    step is X + (hAX + hBu) + dW (CX + Du), with both brackets from one
    stacked product [hA hBu; C Du] [X; 1]. States are buffered
    _BLOCK_STEPS at a time:
    observe(k0, S) receives the states at steps k0, k0 + 1, ... as S of
    shape (len(S), n, n_paths), first S = x0 alone with k0 = 0. S is a
    view of a reused buffer, so copy what you keep. Each block is
    checked for divergence before it is observed.
    """
    n, P = A.shape[0], len(seeds)
    paths = range(P) if paths is None else paths
    # a single path gets a noise-free second column, so that its product
    # runs through the same BLAS kernel as an ensemble's and stays
    # bit-identical to its ensemble member
    width = max(P, 2)
    G = np.zeros((_BLOCK_STEPS, 2 * n, n + 1))  # step j of a block uses G[j]
    G[:, :n, :n] = h * A
    G[:, n:, :n] = C
    B, D, u = forcing
    f = np.hstack([h * (u[:-1] @ B.T), u[:-1] @ D.T])  # column n of G, block by block
    bitgens = [np.random.Philox(seed) for seed in seeds]
    steps = np.sqrt(h) * _SIGNS  # the increment of a 0 bit and of a 1 bit
    signs = np.empty((P, _BLOCK_STEPS), dtype=np.uint8)  # one block of bits, compact
    dW = np.zeros((_BLOCK_STEPS, width))
    S = np.empty((_BLOCK_STEPS + 1, n + 1, width))  # row n holds the 1 of [X; 1]
    S[:, n] = 1.0
    S[0, :n] = np.asarray(x0, dtype=float).reshape(n, 1)
    Y = np.empty((2 * n, width))
    drift, diffusion = Y[:n], Y[n:]
    states = [s[:n] for s in S]  # views made once; the step loop is hot
    observe(0, S[:1, :n, :P])
    draw = _DRAW_CHUNKS * _CHUNK_STEPS
    for first in range(0, n_steps, draw):
        words = _sign_words(bitgens, min(draw, n_steps - first))
        for start in range(first, min(first + draw, n_steps), _CHUNK_STEPS):
            end = min(start + _CHUNK_STEPS, n_steps)
            w0 = (start - first) // 64
            bits = _unpack_signs(words[:, w0:w0 + _CHUNK_STEPS // 64])
            for k in range(start, end, _BLOCK_STEPS):
                b = min(_BLOCK_STEPS, end - k)
                # bits holds each path's steps contiguously; a compact copy
                # of the block keeps the transposed read within a few pages
                np.copyto(signs[:, :b], bits[k - start:k - start + b].T)
                np.take(steps, signs[:, :b].T, out=dW[:b, :P], mode="wrap")
                G[:b, :, n] = f[k:k + b]
                for j in range(b):
                    np.matmul(G[j], S[j], out=Y)
                    np.multiply(diffusion, dW[j], out=diffusion)
                    np.add(drift, diffusion, out=drift)
                    np.add(states[j], drift, out=states[j + 1])
                blk = S[1:b + 1, :n, :P]
                _check_block(blk, k + 1, h, sys_name, paths)
                observe(k + 1, blk)
                S[0] = S[b]


def _path_batches(n_paths: int) -> list:
    """(first, end) of each batch of _PATH_BATCH paths; the last takes the rest."""
    return [(lo, min(lo + _PATH_BATCH, n_paths)) for lo in range(0, n_paths, _PATH_BATCH)]


def _portable(err: BaseException) -> BaseException:
    """err if it survives pickling, else a RuntimeError that names it."""
    try:
        return pickle.loads(pickle.dumps(err))
    except Exception:
        return RuntimeError(f"{type(err).__name__}: {err}")


def _shared(*shape) -> np.ndarray:
    """A zeroed float64 array over an anonymous mapping, shared with the
    workers forked after it is made."""
    return np.frombuffer(mmap.mmap(-1, 8 * int(np.prod(shape))), dtype=float).reshape(shape)


def _batch_worker(run, share, r: int, w: int):
    """The body of a forked worker: close the pipe's read end r, run its
    share of the batches, send the outcome down w (None, a Blowup or the
    error that stopped it) and exit without returning."""
    code = 1
    try:
        os.close(r)
        try:
            run(share)
            outcome = None
        except BaseException as err:  # a Blowup pickles and stays one
            outcome = _portable(err)
        with os.fdopen(w, "wb") as f:
            pickle.dump(outcome, f)
        code = 0
    finally:
        os._exit(code)


def _run_batches(n_batches: int, run) -> None:
    """Run path batches 0 .. n_batches - 1 as contiguous shares, the
    shares past the first in forked workers.

    run(share) runs the batches of the range share as one kernel pass and
    leaves their results in arrays the caller made with _shared. This
    process runs the first share, each worker the next: at most the
    usable CPUs, never more than the batches. A Blowup does not stop the
    other shares; the one with the earliest time, then the lowest path,
    is raised, as from one pass over every path. Any other error reaches
    the caller with its type. Every worker is reaped on every route.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(cpus, n_batches)) if hasattr(os, "fork") else 1
    shares = [range(w * n_batches // workers, (w + 1) * n_batches // workers)
              for w in range(workers)]
    blowups, children = [], []
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                _batch_worker(run, share, r, w)
            children.append((pid, os.fdopen(r, "rb")))
            os.close(w)
        try:
            run(shares[0])
        except Blowup as err:
            blowups.append(err)
        for _, f in children:
            try:
                err = pickle.load(f)
            except EOFError:
                raise RuntimeError("an ensemble worker ended before sending its outcome") from None
            if isinstance(err, Blowup):
                blowups.append(err)
            elif err is not None:
                raise err
    finally:
        for pid, f in children:
            f.close()
            try:
                os.kill(pid, 9)  # SIGKILL; a worker that has finished is a zombie until reaped
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    if blowups:
        raise min(blowups, key=lambda err: (err.time, err.path_index))


def _centred_mean(S) -> np.ndarray:
    """Mean over the paths (last axis) of S, centred on path 0, so that
    identical paths give path 0 exactly."""
    ref = S[..., :1]
    return ref[..., 0] + (S - ref).mean(axis=-1)


def _reference_states(A_d, x_d0, t: np.ndarray) -> np.ndarray:
    lam, V = np.linalg.eig(A_d)
    c = np.linalg.solve(V, np.asarray(x_d0, dtype=complex).ravel())
    E = np.exp(np.outer(t, lam))
    return np.real(E * c[None, :] @ V.T)


@dataclass(frozen=True)
class MomentTrajectory:
    """Mean and second-moment trajectories on a uniform grid t.

    Both data routes return this: run_ensemble's Monte Carlo reductions
    and propagate_moments_exact's exact moments. mean_xx rows hold the
    upper triangle of E[x x'] row by row; se_xx, filled by run_ensemble
    whenever it runs more than one path, the per-entry standard errors
    of mean_xx. When ``discount`` is set the trajectories are the
    transformed ones, on both routes: x and u scaled by exp(-discount * t)
    and second moments by the square of that factor. The reference is
    not part of it: accumulate_raw_moments evaluates x_d on the grid.
    """

    t: np.ndarray
    mean_x: np.ndarray
    mean_xx: np.ndarray
    u: np.ndarray
    se_xx: np.ndarray | None = None
    discount: float | None = None


def _moment_trajectory(t, mean_x, mean_xx, u, discount, se_xx=None) -> MomentTrajectory:
    """The plant moments on the grid t as a MomentTrajectory; when discount
    is set, x and u are scaled by exp(-discount * t), the second moments
    and their standard errors by its square: all in place but u, which
    may be the input function's own array."""
    if discount is not None:
        scale = np.exp(-discount * t)[:, None]
        mean_x *= scale
        u, scale = u * scale, scale * scale
        mean_xx *= scale
        if se_xx is not None:
            se_xx *= scale
    return MomentTrajectory(t=t, mean_x=mean_x, mean_xx=mean_xx, u=u, se_xx=se_xx,
                            discount=discount)


def run_ensemble(plant, input, x0, config: SimConfig,
                 discount: float | None = None) -> MomentTrajectory:
    """Simulate config.n_paths Euler-Maruyama paths and stream reductions.

    Path p uses seed base_seed + p with an independent counter-based
    generator; all paths share the same deterministic input. Reductions
    are centered on path 0: each batch of paths sums d and dP, a state
    and its products less path 0's, and dP squared, and the batches'
    sums are added in batch order, so a diffusion-free plant reproduces
    its single path bit-exactly.
    """
    n = plant.n
    t = config.grid()
    N = config.n_steps
    u = _sample_input(input, t, plant.m)
    p = config.n_paths
    r_idx, c_idx = vech_indices(n)
    nn2 = r_idx.size
    # each batch's sums over its paths of d, dP and dP^2, in memory the
    # workers share, until they are added into batch 0's and become the
    # moments; ref holds path 0's states and products
    batches = _path_batches(p)
    sums = [[_shared(N + 1, k) for k in (n, nn2, nn2)] for _ in batches]
    ref = np.empty((N + 1, n + nn2))

    def run(share):
        lo, hi = batches[share[0]][0], batches[share[-1]][1]
        skip = int(lo > 0)  # a share past the first batch leads with path 0
        paths = [0] * skip + list(range(lo, hi))
        cols = [slice(skip + a - lo, skip + b - lo) for a, b in batches[share.start:share.stop]]
        prods = np.empty((_BLOCK_STEPS, nn2, len(paths)))

        def record(k0, S):
            blk = slice(k0, k0 + len(S))
            dP = prods[:len(S)]
            for q, (r, c) in enumerate(zip(r_idx, c_idx)):
                np.multiply(S[:, r], S[:, c], out=dP[:, q])
            p_ref = dP[..., 0].copy()
            if not skip:
                ref[blk, :n], ref[blk, n:] = S[..., 0], p_ref
            dP -= p_ref[..., None]
            for b, col in zip(share, cols):
                d = dP[..., col]
                parts = ((S[..., col] - S[..., :1]).sum(axis=-1), d.sum(axis=-1),
                         np.einsum("kip,kip->ki", d, d))
                for target, part in zip(sums[b], parts):
                    target[blk] = part

        _em_paths(plant.A, plant.C, (plant.B, plant.D, u), x0,
                  [config.base_seed + i for i in paths], N, config.h, record, paths=paths)

    _run_batches(len(batches), run)
    mean_x, mean_xx, se_xx = sums[0]
    for b in range(1, len(batches)):
        # in batch order; each batch's mappings are closed once added
        for k, total in enumerate(sums[0]):
            total += sums[b][k]
        sums[b] = None
    mean_x /= p
    mean_x += ref[:, :n]
    mean_xx /= p  # the mean of dP
    se_xx /= p
    se_xx -= mean_xx * mean_xx
    np.maximum(se_xx, 0.0, out=se_xx)
    se_xx /= p
    np.sqrt(se_xx, out=se_xx)
    mean_xx += ref[:, n:]
    return _moment_trajectory(t, mean_x, mean_xx, u, discount, se_xx if p > 1 else None)


def _xx_forcing(y, p, q, C, r_idx, c_idx):
    """Rows vech(B u y' + y u' B' + C y u' D' + D u y' C' + D u u' D') of
    the second-moment ODE, from rows y (mean), p = B u and q = D u."""
    c = y @ C.T
    return (p[:, r_idx] * y[:, c_idx] + y[:, r_idx] * p[:, c_idx]
            + c[:, r_idx] * q[:, c_idx] + q[:, r_idx] * c[:, c_idx]
            + q[:, r_idx] * q[:, c_idx])


def _rk4_step(Lt, h, y, fs):
    """One RK4 step of z' = L z + f(t) on every row of y.

    Lt is L transposed (rows act on the right) and fs the forcing rows at
    the four stages. Returns the four stage values and the stepped rows.
    """
    ys, ks = [], []
    for a, f in zip((0.0, 0.5 * h, 0.5 * h, h), fs):
        ys.append(y + a * ks[-1] if ks else y)
        ks.append(ys[-1] @ Lt + f)
    return ys, y + (h / 6.0) * (ks[0] + 2 * ks[1] + 2 * ks[2] + ks[3])


def _affine_recursion(z0, Lt, h, fs):
    """RK4 trajectory z_{k+1} = Phi z_k + w_k of z' = L z + f from z0.

    Phi (the RK4 polynomial in hL) and every w_k are built at once; fs
    holds the (N, d) stage forcings of the N steps. The recursion runs as
    a two-level blocked scan over blocks of b = _SCAN_BLOCK steps: every
    block is run from zero, all at once, to its end offset; the block
    starts are carried by z <- Phi^b z + offset; and every block is run
    again from its true start, writing the trajectory. Phi^b is built by
    b repeated products, which keep the roundoff of the step-by-step
    recursion where repeated squaring loses a digit.
    """
    phi_t = _rk4_step(Lt, h, np.eye(z0.size), (0.0,) * 4)[1]
    w = _rk4_step(Lt, h, np.zeros_like(fs[0]), fs)[1]
    n, b = w.shape[0], _SCAN_BLOCK
    blocks = -(-n // b)
    # Z holds w_k in row k + 1 (and zeros past the last step) until the
    # final sweep adds Phi z_k into it; V views its rows block by block
    Z = np.zeros((blocks * b + 1, z0.size))
    Z[0] = z0
    Z[1:n + 1] = w
    V = Z[1:].reshape(blocks, b, z0.size)
    offset = np.zeros((blocks, z0.size))
    for j in range(b):
        offset = offset @ phi_t + V[:, j]
    starts = np.empty_like(offset)
    starts[0] = z0
    if blocks > 1:
        phi_b = phi_t
        for _ in range(b - 1):
            phi_b = phi_b @ phi_t
        for i in range(1, blocks):
            starts[i] = starts[i - 1] @ phi_b + offset[i - 1]
    for j in range(b):
        V[:, j] += (starts if j == 0 else V[:, j - 1]) @ phi_t
    return Z[:n + 1]


def propagate_moments_exact(plant, input, x0, config: SimConfig,
                            discount: float | None = None,
                            method: str = "rk4") -> MomentTrajectory:
    """Integrate the closed mean/second-moment ODEs of the plant SDE.

    m' = A m + B u and
    G' = A G + G A' + B u m' + m u' B' + C G C' + C m u' D' + D u m' C' + D u u' D'
    with G = E[x x']. This is the oracle the sampled-data pipeline is
    validated against. Classical RK4 (method 'rk4', the only scheme)
    steps on the config grid at O(h^4), which the Simpson windows
    downstream keep. Blowup is raised at the first grid time where the
    norm of [m; vech G] exceeds 1e8 or is not finite. discount acts as
    in run_ensemble: the moments are scaled by exp(-discount * t) after
    the check.
    """
    if method != "rk4":
        raise ConfigError(f"unknown method {method!r}; the exact moments use 'rk4'")
    x0 = np.asarray(x0, dtype=float).ravel()
    r_idx, c_idx = vech_indices(plant.n)
    A, B, C, D = plant.A, plant.B, plant.C, plant.D
    # Both ODEs are linear once u is known, so one RK4 step is a fixed
    # map z -> Phi z + w_k; w_k for every step comes from the stage
    # forcings at once, and each recursion runs as a blocked scan.
    # The G flow is X -> A X + X A' + C X C', the operator at (A', C').
    LG = _lyap_operator(A.T, C.T)
    h, t = config.h, config.grid()
    u_half = _sample_input(input, np.arange(2 * config.n_steps + 1) * (h / 2.0), plant.m)
    us = (u_half[:-1:2], u_half[1::2], u_half[1::2], u_half[2::2])
    bs = [u @ B.T for u in us]
    with np.errstate(over="ignore", invalid="ignore"):
        mean_x = _affine_recursion(x0, A.T, h, bs)
        fs = [_xx_forcing(y, p, u @ D.T, C, r_idx, c_idx)
              for y, p, u in zip(_rk4_step(A.T, h, mean_x[:-1], bs)[0], bs, us)]
        mean_xx = _affine_recursion(np.outer(x0, x0)[r_idx, c_idx], LG.T, h, fs)
        norms = np.sqrt((mean_x * mean_x).sum(axis=1) + (mean_xx * mean_xx).sum(axis=1))
    bad = ~(norms <= _BLOWUP_NORM)
    if bad.any():
        raise Blowup(f"moment norm exceeded {_BLOWUP_NORM:.0e}", time=float(t[np.argmax(bad)]))
    return _moment_trajectory(t, mean_x, mean_xx, u_half[::2], discount)


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo estimate of the long-run average tracking cost.

    per_path holds each path's average cost; path i is drawn from
    Philox(seed + i), so estimates made with the same seed can be
    compared path by path (common random numbers).
    """

    mean: float
    se: float
    n_paths: int
    horizon: float
    per_path: np.ndarray | None = field(default=None, repr=False, compare=False)


def estimate_average_cost(plant, reference: ReferenceGenerator, designs, cost,
                          horizon: float, n_paths: int, seed: int,
                          h: float = 1e-3, x0=None) -> list:
    """Average of (1/T)*integral(|y - y_d|_Q^2 + |u|_R^2), one per design.

    designs is a sequence of pairs (K, F), each the law u = -K x - F x_d.
    Euler-Maruyama integrates the plant state only, forced by the exact
    reference -F x_d(t_k) as in simulate_tracking. The designs' closed
    loops are stacked block-diagonally in one kernel pass, so one dW,
    from Philox(seed + i) on path i, drives every design: common random
    numbers by construction, and each design's block equals its run
    alone. Per-path integrals use the trapezoid rule.
    """
    n, m, J = plant.n, plant.m, len(designs)
    gains = [(np.asarray(K, dtype=float).reshape(m, n),
              np.asarray(F, dtype=float).reshape(m, reference.n_d)) for K, F in designs]
    if not all(is_stabilizing(plant, K) for K, _ in gains):
        raise Blowup("feedback gain is not mean-square stabilizing")
    N = _step_count(horizon, h, "horizon")
    x_d = _reference_states(reference.A_d, reference.x_d0, np.arange(N + 1) * h)
    u_ff = [-x_d @ F.T for _, F in gains]
    # each design's rate |Hx - y_d|_Q^2 + |Kx + F x_d|_R^2 is |W x - w_k|^2,
    # W = [L_Q' H; L_R' K] and w_k = [L_Q' y_d; L_R' u_k] with Q = L_Q L_Q'
    LQ, LR = np.linalg.cholesky(cost.Q).T, np.linalg.cholesky(cost.R).T
    W = block_diag(*(np.vstack([LQ @ plant.H, LR @ K]) for K, _ in gains))
    w = np.hstack([np.hstack([x_d @ (LQ @ reference.H_d).T, u @ LR.T])
                   for u in u_ff])[:, :, None]
    acc = _shared(J, n_paths)
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).ravel()
    A_cl, C_cl = zip(*(plant.closed_loop(K) for K, _ in gains))
    forcing = (block_diag(*[plant.B] * J), block_diag(*[plant.D] * J), np.hstack(u_ff))
    batches = _path_batches(n_paths)

    def run(share):
        lo, hi = batches[share[0]][0], batches[share[-1]][1]
        last = None

        def integrate(k0, S):
            # the rates of the block, joined to the last rate of the one before
            nonlocal last
            e = np.matmul(W, S)
            e -= w[k0:k0 + len(S)]
            e *= e
            rates = e.reshape(len(S), J, -1, hi - lo).sum(axis=2)
            if last is not None:
                acc[:, lo:hi] += h * (0.5 * (last + rates[-1]) + rates[:-1].sum(axis=0))
            last = rates[-1]

        _em_paths(block_diag(*A_cl), block_diag(*C_cl), forcing, np.tile(x0, J),
                  [seed + i for i in range(lo, hi)], N, h, integrate, "closed-loop state",
                  paths=range(lo, hi))

    _run_batches(len(batches), run)
    estimates = []
    for per_path in acc / horizon:
        d = per_path - per_path[0]
        var = max(float((d * d).mean() - d.mean() ** 2), 0.0)
        se = float(np.sqrt(var / (n_paths - 1))) if n_paths > 1 else float("nan")
        estimates.append(CostEstimate(float(per_path[0] + d.mean()), se, n_paths,
                                      horizon, per_path))
    return estimates


@dataclass(frozen=True)
class TrackingRun:
    """Ensemble-mean closed-loop tracking trajectories."""

    t: np.ndarray
    y_mean: np.ndarray
    y_d: np.ndarray
    u_mean: np.ndarray
    x_mean: np.ndarray
    x_d: np.ndarray
    switch_times: tuple


def simulate_tracking(plant, A_d, x_d0, schedule, K, x0, h: float,
                      n_paths: int, base_seed: int) -> TrackingRun:
    """Closed-loop tracking with piecewise reference output maps.

    schedule is a list of (H_d, F, duration) segments, each duration a
    positive multiple of h; the reference state x_d evolves continuously
    under the shared A_d while the output map and the feedforward gain
    switch at segment boundaries.
    """
    A_d = np.asarray(A_d, dtype=float)
    n, m, n_d = plant.n, plant.m, A_d.shape[0]
    K = np.asarray(K, dtype=float).reshape(m, n)
    steps = [_step_count(seg[2], h, "tracking duration") for seg in schedule]
    N = sum(steps)
    t = np.arange(N + 1) * h
    # reference state, shared across paths, continuous at switches
    x_d = _reference_states(A_d, x_d0, t)
    y_d = np.empty((N + 1, np.asarray(schedule[0][0]).reshape(-1, n_d).shape[0]))
    u_ff = np.empty((N + 1, m))
    k0 = 0
    bounds = []
    for (H_seg, F_seg, _dur), ns in zip(schedule, steps):
        H_seg = np.asarray(H_seg, dtype=float).reshape(-1, n_d)
        F_seg = np.asarray(F_seg, dtype=float).reshape(m, n_d)
        sl = slice(k0, k0 + ns + 1)
        y_d[sl] = x_d[sl] @ H_seg.T
        u_ff[sl] = -x_d[sl] @ F_seg.T
        bounds.append(k0 * h)
        k0 += ns
    x_mean = np.empty((N + 1, n))

    def record(k0, S):
        x_mean[k0:k0 + len(S)] = _centred_mean(S)

    _em_paths(*plant.closed_loop(K), (plant.B, plant.D, u_ff),
              np.zeros(n) if x0 is None else x0,
              [base_seed + i for i in range(n_paths)], N, h, record, "tracking state")
    u_mean = u_ff - x_mean @ K.T
    y_mean = x_mean @ plant.H.T
    return TrackingRun(t, y_mean, y_d, u_mean, x_mean, x_d, tuple(bounds[1:]))

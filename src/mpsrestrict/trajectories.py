"""Measurement-trajectory simulation under the maximally mixed initial state.

A trajectory draws symbols one at a time with the exact conditional weights
P(y | x_1..x_k) = ||A_y W||_F^2 / ||W||_F^2 where W = A_{x_k}..A_{x_1}.  The
normalized running operator M = W^dag W / Tr(W^dag W) is a martingale in the
sense that its conditional next-step average equals its current value, and
the unconditional average at any step is 1/D.  Both identities are exposed
as exact enumeration checks, along with the purification statistic
E[sqrt(l1 l2)] * D: w(n) by the check route of ``w_series``, bit for bit,
read through ``purity._w_pair`` from the family's record of both w sums,
whose one owner is ``restriction._recorded`` (at D = 2, w's closed form).

``sample_trajectories`` samples many trajectories as one batch: each step
forms the continuations of every stream in one stacked product and weighs
them with the window tables' BLAS-free kernel (``_capped_norm2``).  Each
stream draws from its own generator, so a trajectory has the same bits
whether it is drawn alone (``sample_trajectory``) or in any batch, and the
``sample`` command, which draws blocks of 512 streams, writes the bytes of
a loop that draws one trajectory at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import KrausFamily
from .errors import ZeroProbabilityPath
from .linalg import _check_length
from .purity import _w_pair
from .restriction import (
    DEFAULT_GUARD,
    _adjoint,
    _capped_norm2,
    _products,
    _string_product,
    _string_sum,
)

__all__ = [
    "MartingaleTrace",
    "sample_trajectory",
    "sample_trajectories",
    "martingale_step_check",
    "mean_m_check",
    "purification_statistic",
]

_WEIGHT_CUTOFF = 1e-15  # conditional weights below this are treated as zero
_TRACE_TOL = 1e-10  # largest |Tr M - 1| a sampled operator may have


@dataclass(frozen=True)
class MartingaleTrace:
    """One sampled trajectory: outcomes, running normalized operators M_k,
    and the cumulative path probabilities Tr(W_k^dag W_k)/D."""

    outcomes: tuple[int, ...]
    m_ops: tuple[np.ndarray, ...]
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.outcomes) == len(self.m_ops) == len(self.probs)):
            raise ValueError("outcomes, m_ops and probs must have equal length")
        for k, M in enumerate(self.m_ops):
            if abs(np.trace(M).real - 1.0) > _TRACE_TOL:
                raise ValueError(f"M at step {k + 1} is not trace-normalized")

    @property
    def steps(self) -> int:
        return len(self.outcomes)


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent, reproducible stream per (seed, stream) pair.

    Streams are split off the root seed with SeedSequence spawn keys, so
    trajectory i of a run is identical no matter how many trajectories are
    drawn or in which order.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


def _draw(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The outcome of each row of a (T, d) weight table for its uniform u.

    Conditional weights under _WEIGHT_CUTOFF are dropped and the rest
    renormalized; the outcome is the number of cumulative weights <= u
    (a right-sided search), capped at the last outcome of positive weight
    against a last cumulative weight that rounds below 1.
    """
    cond = weights / weights.sum(axis=1, keepdims=True)
    cond[cond < _WEIGHT_CUTOFF] = 0.0
    cond = cond / cond.sum(axis=1, keepdims=True)
    below = np.cumsum(cond, axis=1) <= u[:, None]
    last = cond.shape[1] - 1 - np.argmax(cond[:, ::-1] > 0.0, axis=1)
    return np.minimum(below.sum(axis=1), last)


def sample_trajectories(
    K: KrausFamily,
    n: int,
    seed: int,
    streams: Sequence[int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw an n-step trajectory for each stream, all streams as one stack.

    Each step forms every continuation A_y W of every stream in one
    product with the stacked (d*D, D) operator, one BLAS call per stream,
    and draws the outcomes from their weights together.  Stream s draws its
    n uniforms from _rng_for(seed, s), so its trajectory does not depend on
    which other streams are drawn with it, and ``sample_trajectory(K, n,
    seed, s)`` is row s of this call.  After each step W is scaled by the
    power of two that brings Tr(W^dag W) into [1/2, 2), with the exponent
    carried, so W does not underflow as its path probability does; this
    changes no bit of a weight, a draw or an M while nothing is subnormal.

    Returns the (T, n) outcomes, the (T, n, D, D) normalized operators M_k
    and the (T, n) path probabilities Tr(W_k^dag W_k)/D of the T streams,
    which round to zero where they leave the floats.
    Raises OutOfRange (a ValueError) unless n is an integer >= 1 and the
    seed and every stream integers >= 0.
    """
    n = _check_length(n, "trajectory length")
    seed = _check_length(seed, "seed", least=0)
    streams = [_check_length(s, "stream", least=0) for s in streams]
    T, d, D = len(streams), K.d, K.D
    u = np.array([_rng_for(seed, s).random(n) for s in streams]).reshape(T, n)
    rows = np.arange(T)
    W = np.broadcast_to(np.eye(D, dtype=complex), (T, D, D))
    stacked = K.ops.reshape(d * D, D)  # A_y in row block y
    outcomes = np.empty((T, n), dtype=int)
    m_ops = np.empty((T, n, D, D), dtype=complex)
    probs = np.empty((T, n))
    shift = np.zeros(T, dtype=np.int64)  # W[t] is 2^-shift[t] times its path's product
    for k in range(n):
        V = np.matmul(stacked, W).reshape(T, d, D, D)  # V[t, y] = A_y W_t
        weights = _capped_norm2(None, V.reshape(T * d, D, D)).reshape(T, d)
        dead = weights.sum(axis=1) <= 0.0
        if np.any(dead):
            t = int(np.argmax(dead))
            raise ZeroProbabilityPath(
                f"all continuations of {tuple(outcomes[t, :k].tolist())} have zero weight"
            )
        y = _draw(weights, u[:, k])
        W = V[rows, y]
        tr = weights[rows, y]
        if np.any(tr <= 0.0):
            raise ZeroProbabilityPath(f"sampled a zero-weight branch {y[np.argmax(tr <= 0.0)]}")
        M = _adjoint(W) @ W / tr[:, None, None]
        outcomes[:, k] = y
        m_ops[:, k] = (M + _adjoint(M)) / 2.0
        probs[:, k] = np.ldexp(tr, 2 * shift) / D
        half = np.frexp(tr)[1] // 2
        W *= np.ldexp(1.0, -half)[:, None, None]
        shift += half
    off = np.abs(np.trace(m_ops, axis1=2, axis2=3).real - 1.0) > _TRACE_TOL
    if np.any(off):
        raise ValueError(f"M at step {int(np.nonzero(off)[1].min()) + 1} is not trace-normalized")
    return outcomes, m_ops, probs


def sample_trajectory(
    K: KrausFamily,
    n: int,
    seed: int,
    stream: int = 0,
) -> MartingaleTrace:
    """Draw an n-step trajectory with exact conditional weights: the
    one-stream call of sample_trajectories."""
    outcomes, m_ops, probs = sample_trajectories(K, n, seed, [stream])
    return MartingaleTrace(
        outcomes=tuple(outcomes[0].tolist()),
        m_ops=tuple(m_ops[0]),
        probs=tuple(probs[0].tolist()),
    )


def martingale_step_check(K: KrausFamily, x: Sequence[int]) -> float:
    """Spectral-norm residual of sum_y P(y|x) M(x, y) - M(x).

    Exact enumeration over the next symbol.  The prefix's product W comes
    from ``_string_product`` with its largest |entry| in [1/2, 1), which
    changes no bit of the residual, so only an exactly zero W raises
    ZeroProbabilityPath.
    """
    xs, W, _ = _string_product(K.ops, np.eye(K.D, dtype=complex), x)
    if not W.any():
        raise ZeroProbabilityPath(f"prefix {xs} has zero path probability")
    tr = float(_capped_norm2(None, W[None])[0])
    M = W.conj().T @ W / tr
    total = np.zeros_like(M)
    for y in range(K.d):
        V = K.ops[y] @ W
        total = total + V.conj().T @ V / tr
    return float(np.linalg.norm(total - M, 2))


def mean_m_check(K: KrausFamily, n: int, guard: int = DEFAULT_GUARD) -> float:
    """Spectral-norm residual of E[M_n] - 1/D, by exact enumeration.

    Zero-probability paths contribute nothing, so the sum collapses to
    sum_x W^dag W / D with no per-path normalization.
    """
    D = K.D
    tree = _products(K, np.eye(D, dtype=complex), n, guard)
    acc = _string_sum(tree, [tree.n], lambda _, W: _adjoint(W) @ W)[tree.n]
    return float(np.linalg.norm(acc / D - np.eye(D) / D, 2))


def purification_statistic(K: KrausFamily, n: int, guard: int = DEFAULT_GUARD) -> float:
    """E[sqrt(l1 l2 of M_n)] * D over trajectories, by exact enumeration.

    A path W has probability Tr(W^dag W) / D and M = W^dag W / Tr(W^dag W),
    so its term (Tr / D) sqrt(l1 l2 of M) D is exactly nu1 nu2 of W, and a
    zero-probability path adds 0.  The statistic is therefore w(n) by the
    check route of ``w_series``: that route's sum as the family records it
    (``restriction._recorded``), read and checked against the SVD route by
    ``purity._w_pair``.  At D = 2 that is the closed form s^n, s = sum_x
    |det A_x|, and no path is enumerated.
    """
    return _w_pair(K, n, guard)[1]

"""Measurement-trajectory simulation under the maximally mixed initial state.

A trajectory draws symbols one at a time with the exact conditional weights
P(y | x_1..x_k) = ||A_y W||_F^2 / ||W||_F^2 where W = A_{x_k}..A_{x_1}.  The
normalized running operator M = W^dag W / Tr(W^dag W) is a martingale in the
sense that its conditional next-step average equals its current value, and
the unconditional average at any step is 1/D.  Both identities are exposed
as exact enumeration checks, along with the purification statistic
E[sqrt(l1 l2)] * D, an independent route to the dressed decay series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import KrausFamily
from .errors import ZeroProbabilityPath
from .restriction import (
    DEFAULT_GUARD,
    _adjoint,
    _norm2,
    _products,
    _string_product,
    _string_sum,
    _validate_string,
)

__all__ = [
    "MartingaleTrace",
    "sample_trajectory",
    "martingale_step_check",
    "mean_m_check",
    "purification_statistic",
]

_WEIGHT_CUTOFF = 1e-15  # conditional weights below this are treated as zero


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
            if abs(np.trace(M).real - 1.0) > 1e-10:
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
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(stream),))
    return np.random.Generator(np.random.PCG64(ss))


def sample_trajectory(
    K: KrausFamily,
    n: int,
    seed: int,
    stream: int = 0,
) -> MartingaleTrace:
    """Draw an n-step trajectory with exact conditional weights."""
    if n < 1:
        raise ValueError(f"trajectory length must be >= 1, got {n}")
    rng = _rng_for(seed, stream)
    D = K.D
    W = np.eye(D, dtype=complex)
    outcomes: list[int] = []
    m_ops: list[np.ndarray] = []
    probs: list[float] = []
    for _ in range(n):
        weights = np.array(
            [float(np.linalg.norm(K.ops[y] @ W) ** 2) for y in range(K.d)]
        )
        total = weights.sum()
        if total <= 0.0:
            raise ZeroProbabilityPath(
                f"all continuations of {tuple(outcomes)} have zero weight"
            )
        cond = weights / total
        cond[cond < _WEIGHT_CUTOFF] = 0.0
        cond = cond / cond.sum()
        y = int(np.searchsorted(np.cumsum(cond), rng.random(), side="right"))
        y = min(y, K.d - 1)
        W = K.ops[y] @ W
        tr = float(np.linalg.norm(W) ** 2)
        if tr <= 0.0:
            raise ZeroProbabilityPath(f"sampled a zero-weight branch {y}")
        M = W.conj().T @ W / tr
        outcomes.append(y)
        m_ops.append((M + M.conj().T) / 2.0)
        probs.append(tr / D)
    return MartingaleTrace(
        outcomes=tuple(outcomes), m_ops=tuple(m_ops), probs=tuple(probs)
    )


def martingale_step_check(K: KrausFamily, x: Sequence[int]) -> float:
    """Spectral-norm residual of sum_y P(y|x) M(x, y) - M(x).

    Exact enumeration over the next symbol; requires the prefix x to have
    positive path probability.
    """
    xs = _validate_string(x, K.d)
    W = _string_product(K.ops, np.eye(K.D, dtype=complex), xs)
    tr = float(np.linalg.norm(W) ** 2)
    if tr / K.D < 1e-30:
        raise ZeroProbabilityPath(f"prefix {xs} has zero path probability")
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
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n}")
    D = K.D
    tree = _products(K.ops, np.eye(D, dtype=complex), n, guard)
    acc = _string_sum(tree, lambda W: _adjoint(W) @ W)
    return float(np.linalg.norm(acc / D - np.eye(D) / D, 2))


def purification_statistic(K: KrausFamily, n: int, guard: int = DEFAULT_GUARD) -> float:
    """E[sqrt(l1 l2 of M_n)] * D over trajectories, by exact enumeration.

    Uses the eigenvalues of the normalized M along each path — deliberately
    not the singular-value route used by the decay series — so the two can
    cross-validate each other.
    """
    if n < 1:
        raise ValueError(f"step count must be >= 1, got {n}")
    D = K.D
    tree = _products(K.ops, np.eye(D, dtype=complex), n, guard)
    if D < 2:
        return 0.0

    def leaf(W: np.ndarray) -> np.ndarray:
        tr = _norm2(W)
        out = np.zeros(len(W))
        live = tr > 0.0
        W, tr = W[live], tr[live]
        lam = np.linalg.eigvalsh(_adjoint(W) @ W / tr[:, None, None])
        l1 = np.maximum(lam[:, -1], 0.0)
        l2 = np.maximum(lam[:, -2], 0.0)
        out[live] = (tr / D) * np.sqrt(l1 * l2) * D
        return out

    return float(_string_sum(tree, leaf))

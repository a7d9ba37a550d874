"""Quasi-local Gibbs reconstruction from chain distributions.

Given a strictly positive distribution p over d^len strings, every
contiguous-window marginal defines a real energy table h_{j..k} = -ln p_{j..k}.
The truncated Hamiltonian

    h^ell = sum_{j=1}^{len-ell} h_{j..j+ell} - sum_{j=1}^{len-ell-1} h_{j+1..j+ell}

is (ell+1)-local, its Gibbs distribution has partition function exactly 1,
and the relative entropy S(p || p^ell) decomposes into a sum of conditional
mutual informations over sliding windows.

Site indexing is 1-based in this module's API (windows j..k inclusive);
storage is flat row-major with site 1 as the most significant digit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    EllOutOfRange,
    InvalidDistribution,
    NonPositiveMarginal,
    RangeError,
    ShapeMismatch,
)
from .linalg import _integral, shannon_entropy

__all__ = [
    "ChainDistribution",
    "LocalHamiltonian",
    "marginal",
    "local_hamiltonian",
    "partition_function",
    "gibbs_distribution",
    "relative_entropy",
    "cmi_decomposition_check",
    "tail_bound_check",
]


@dataclass(frozen=True)
class ChainDistribution:
    """Probability table over d^length strings on a finite chain.

    The flat table is indexed with site 1 as the most significant base-d
    digit, so ``table.reshape((d,)*length)`` puts site j on axis j-1.
    Entries may be zero (restrictions of MPS produce exact zeros); operations
    that need strict positivity raise NonPositiveMarginal and the explicit
    :meth:`smoothed` mode records its epsilon.  The raw table must sum to 1
    within 1e-9 and is renormalized exactly at construction.
    """

    length: int
    d: int
    table: np.ndarray
    smoothing_eps: float | None = None

    def __post_init__(self) -> None:
        # the public constructor copies, so no caller's array changes
        self._settle(np.asarray(self.table, dtype=float).ravel(), owned=False)

    @classmethod
    def _adopt(
        cls, length: int, d: int, table: np.ndarray, smoothing_eps: float | None = None
    ) -> "ChainDistribution":
        """The distribution of a fresh float table that no one else holds,
        checked as by the constructor, then clipped and normalized in place:
        the same bits as the constructor's copy, with no second table."""
        p = object.__new__(cls)
        object.__setattr__(p, "smoothing_eps", smoothing_eps)
        object.__setattr__(p, "length", length)
        object.__setattr__(p, "d", d)
        p._settle(np.asarray(table, dtype=float).ravel(), owned=True)
        return p

    def _settle(self, t: np.ndarray, owned: bool) -> None:
        """Check the flat table t and store it clipped at 0, normalized and
        read-only; t itself becomes the table if ``owned``, else a copy."""
        if not (_integral(self.length) and self.length >= 1):
            raise InvalidDistribution(f"length must be a positive integer, got {self.length!r}")
        if not (_integral(self.d) and self.d >= 2):
            raise InvalidDistribution(f"local dimension must be >= 2, got {self.d!r}")
        if t.size != self.d**self.length:
            raise InvalidDistribution(
                f"table size {t.size} != d^length = {self.d**self.length}"
            )
        if not np.all(np.isfinite(t)):
            raise InvalidDistribution("table contains NaN or Inf")
        if np.min(t) < -1e-12:
            raise InvalidDistribution(f"negative entry {np.min(t):.3e}")
        t = np.clip(t, 0.0, None, out=t if owned else None)
        s = float(t.sum())
        if abs(s - 1.0) > 1e-9:
            raise InvalidDistribution(f"table sums to {s!r}, not 1 (tol 1e-9)")
        t /= s
        t.setflags(write=False)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "length", int(self.length))
        object.__setattr__(self, "d", int(self.d))

    def as_array(self) -> np.ndarray:
        """Table reshaped to (d,)*length, site j on axis j-1."""
        return self.table.reshape((self.d,) * self.length)

    @property
    def min_entry(self) -> float:
        return float(self.table.min())

    def smoothed(self, eps: float = 1e-8) -> "ChainDistribution":
        """Mix with the uniform distribution at weight eps and record it.

        p' = (1-eps) p + eps u, strictly positive for eps > 0.  The recorded
        ``smoothing_eps`` travels into reports so repaired positivity is
        never silent.
        """
        if not (0.0 < eps < 1.0):
            raise InvalidDistribution(f"smoothing eps must be in (0, 1), got {eps!r}")
        u = 1.0 / self.table.size
        t = (1.0 - eps) * self.table
        t += eps * u
        return ChainDistribution._adopt(self.length, self.d, t, smoothing_eps=float(eps))


def _check_window(p: ChainDistribution, j: int, k: int) -> None:
    if not (_integral(j) and _integral(k) and 1 <= j <= k <= p.length):
        raise RangeError(f"window ({j}, {k}) violates 1 <= j <= k <= {p.length}")


def _check_ell(p: ChainDistribution, ell: int) -> int:
    if not (_integral(ell) and 1 <= ell <= p.length - 2):
        raise EllOutOfRange(f"ell = {ell!r} outside 1 <= ell <= {p.length - 2}")
    return int(ell)


def marginal(p: ChainDistribution, j: int, k: int) -> np.ndarray:
    """Marginal over sites j..k (1-based, inclusive) as a flat table."""
    _check_window(p, j, k)
    axes = tuple(a for a in range(p.length) if not (j - 1 <= a <= k - 1))
    m = p.as_array().sum(axis=axes) if axes else p.as_array()
    return m.reshape(-1)


@dataclass(frozen=True)
class LocalHamiltonian:
    """Window terms h_{j..j+ell} = -ln p_{j..j+ell} and the overlap corrections.

    ``window_terms[j-1]`` is the flat d^(ell+1) table for sites j..j+ell,
    j = 1..length-ell; ``overlap_terms[j-1]`` the flat d^ell table for sites
    j+1..j+ell, j = 1..length-ell-1.  The full Hamiltonian is the broadcast
    sum of window terms minus overlap terms, an (ell+1)-local object.
    """

    length: int
    d: int
    ell: int
    window_terms: tuple[np.ndarray, ...]
    overlap_terms: tuple[np.ndarray, ...]


def local_hamiltonian(p: ChainDistribution, ell: int) -> LocalHamiltonian:
    """Build h^ell from the distribution's own window marginals (log domain)."""
    ell = _check_ell(p, ell)
    windows = []
    for j in range(1, p.length - ell + 1):
        m = marginal(p, j, j + ell)
        if m.min() <= 0.0:
            raise NonPositiveMarginal(
                f"marginal over sites {j}..{j + ell} has a zero entry; "
                f"use ChainDistribution.smoothed() explicitly if appropriate"
            )
        windows.append(-np.log(m))
    # an overlap entry sums the non-negative entries behind positive window entries
    overlaps = [-np.log(marginal(p, j + 1, j + ell)) for j in range(1, p.length - ell)]
    return LocalHamiltonian(
        length=p.length,
        d=p.d,
        ell=ell,
        window_terms=tuple(windows),
        overlap_terms=tuple(overlaps),
    )


def _energies(h: LocalHamiltonian) -> np.ndarray:
    """h^ell evaluated on every string, shape (d,)*length, by broadcasting."""
    d, L, ell = h.d, h.length, h.ell
    E = np.zeros((d,) * L)

    def bshape(first: int, last: int) -> tuple[int, ...]:
        return tuple(d if first - 1 <= a <= last - 1 else 1 for a in range(L))

    for idx, t in enumerate(h.window_terms):
        j = idx + 1
        E += t.reshape(bshape(j, j + ell))
    for idx, t in enumerate(h.overlap_terms):
        j = idx + 1
        E -= t.reshape(bshape(j + 1, j + ell))
    return E


def partition_function(h: LocalHamiltonian) -> float:
    """Z(h^ell) = sum_x exp(-h^ell(x)); equals 1 exactly for constructed h."""
    return _gibbs(h)[0]


def gibbs_distribution(h: LocalHamiltonian) -> ChainDistribution:
    """p^ell(x) = exp(-h^ell(x)) / Z, computed in the log domain."""
    return _gibbs(h)[1]


def _gibbs(h: LocalHamiltonian) -> tuple[float, ChainDistribution]:
    """Z = e^m s and the Gibbs table exp(logp - (m + ln s)) from one pass over
    the log-weights logp = -h^ell: m = max logp, s = sum exp(logp - m).  The
    table is formed in the log-weights' own buffer."""
    logp = -_energies(h).ravel()
    m = float(logp.max())
    t = logp - m
    s = np.sum(np.exp(t, out=t))
    del t
    logp -= m + float(np.log(s))
    return float(np.exp(m) * s), ChainDistribution._adopt(h.length, h.d, np.exp(logp, out=logp))


def relative_entropy(p1: ChainDistribution, p2: ChainDistribution) -> float:
    """S(p1 || p2) = sum p1 ln(p1/p2); requires p2 strictly positive."""
    if (p1.length, p1.d) != (p2.length, p2.d):
        raise ShapeMismatch(
            f"shape mismatch: ({p1.length} sites, d={p1.d}) vs ({p2.length}, d={p2.d})"
        )
    if p2.min_entry <= 0.0:
        raise NonPositiveMarginal("reference distribution has a zero entry")
    a, b = p1.table, p2.table
    if p1.min_entry <= 0.0:
        mask = a > 0.0
        a, b = a[mask], b[mask]
    r = np.log(a)  # the log ratio, then its terms, in this one buffer
    r -= np.log(b)
    r *= a
    return float(np.sum(r))


def _window_entropy(p: ChainDistribution, j: int, k: int) -> float:
    return shannon_entropy(marginal(p, j, k))


def _window_cmi(p: ChainDistribution, b_first: int, b_last: int, last: int) -> float:
    """I(A:C|B) = H(AB) + H(BC) - H(B) - H(ABC) for the contiguous windows
    A = 1..b_first-1, B = b_first..b_last, C = b_last+1..last."""
    h_ab = _window_entropy(p, 1, b_last)
    h_bc = _window_entropy(p, b_first, last)
    h_b = _window_entropy(p, b_first, b_last)
    h_abc = _window_entropy(p, 1, last)
    return h_ab + h_bc - h_b - h_abc


def _fit(p: ChainDistribution, ell: int) -> tuple[float, float, list[float]]:
    """The range-ell fit of p, with h^ell and its energies built once: the
    partition function Z of h^ell, S(p || p^ell) and the sliding CMI terms
    I(1..k : k+ell+1 | k+1..k+ell), k = 1..length-ell-1."""
    h = local_hamiltonian(p, ell)
    terms = [_window_cmi(p, k + 1, k + h.ell, k + h.ell + 1) for k in range(1, p.length - h.ell)]
    z, q = _gibbs(h)
    return z, relative_entropy(p, q), terms


def cmi_decomposition_check(p: ChainDistribution, ell: int) -> tuple[float, float]:
    """Both sides of the exact identity S(p || p^ell) = sum of sliding CMIs.

    Returns (lhs, rhs): the direct relative entropy against the Gibbs
    distribution of h^ell, and the independent sum of conditional mutual
    informations I(1..k : k+ell+1 | k+1..k+ell) over k.  They agree to 1e-9
    for strictly positive p.
    """
    _, lhs, terms = _fit(p, ell)
    return lhs, float(sum(terms))


def tail_bound_check(
    p: ChainDistribution, ell: int, xi: Callable[[int], float]
) -> bool:
    """Check premise and conclusion of the CMI tail bound.

    Premise: every sliding CMI term at window width ell is <= xi(ell).
    Conclusion: S(p || p^ell) <= (length - ell - 1) * xi(ell).
    Returns True only when both hold (slack 1e-12).
    """
    _, lhs, terms = _fit(p, ell)
    bound = float(xi(ell))
    premise = all(t <= bound + 1e-12 for t in terms)
    conclusion = lhs <= (p.length - ell - 1) * bound + 1e-12
    return bool(premise and conclusion)

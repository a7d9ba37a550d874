"""Brute-force references for every quantity summed over the d^n strings.

Each function forms the string products one at a time with
``itertools.product`` and adds the per-string terms in lexicographic order,
exactly as the definitions read.  They are slow and only serve the tests.
``dfs_scan`` is the recursive depth-first walk ``restriction_scan`` used to
be, kept term for term: the engine must reproduce it bit for bit.
``max_scalar_subspace`` is the correctable-subspace search as it ran over a
list of all d^n products, before it streamed them from the engine.
``sample_trajectory`` is the one-trajectory, one-step-at-a-time sampler the
package had before it drew all streams as one stack; the batch must
reproduce it bit for bit.  ``sample_rows`` and ``sample_csv`` are the rows
``sample`` used to build as dicts from those trajectories, and their CSV.
"""

from __future__ import annotations

import itertools

import numpy as np

from mpsrestrict import trajectories
from mpsrestrict.errors import NumericalInconsistency, SearchBudgetExceeded, ZeroProbabilityPath
from mpsrestrict.purity import _eig_clusters
from mpsrestrict.restriction import RestrictionContext, RestrictionSummary


def strings(d: int, n: int):
    return itertools.product(range(d), repeat=n)


def product(ops: np.ndarray, root: np.ndarray, xs) -> np.ndarray:
    P = root
    for s in xs:
        P = ops[s] @ P
    return P


def _k2(ctx: RestrictionContext, n: int) -> float:
    X = ctx.sigma
    for _ in range(n):
        X = sum(A @ X @ A.conj().T for A in ctx.kraus.ops)
    return float(np.trace(ctx.f_op.conj().T @ ctx.f_op @ X).real)


def scan(ctx: RestrictionContext, n: int) -> dict[str, float]:
    """The RestrictionSummary fields, from per-string spectra and SVDs."""
    K, d = ctx.kraus, ctx.kraus.d
    k2 = _k2(ctx, n)
    root = ctx.sqrt_sigma
    out = dict(p_sum=0.0, avg_entropy=0.0, purity_sum=0.0, lam2_sum_over_k2=0.0, f_value=0.0)
    for xs in strings(d, n):
        T = ctx.f_op @ product(K.ops, root, xs)
        p = np.linalg.norm(T) ** 2 / k2
        out["p_sum"] += p
        if p < 1e-14 * d ** (-n):
            continue
        lam = np.clip(np.linalg.eigvalsh(T @ T.conj().T)[::-1] / (p * k2), 0.0, 1.0)
        pos = lam[lam > 0.0]
        out["avg_entropy"] += p * float(-np.sum(pos * np.log(pos)))
        out["purity_sum"] += p * lam[0]
        out["lam2_sum_over_k2"] += p * (lam[1] if lam.size > 1 else 0.0)
        nu = np.linalg.svd(T, compute_uv=False)
        out["f_value"] += nu[0] * nu[1] if nu.size > 1 else 0.0
    out["avg_purity_q"] = 1.0 - out.pop("purity_sum")
    return out


def window(ctx: RestrictionContext, m: int) -> np.ndarray:
    K, k2 = ctx.kraus, _k2(ctx, m)
    return np.array(
        [np.linalg.norm(ctx.f_op @ product(K.ops, ctx.sqrt_sigma, xs)) ** 2 / k2 for xs in strings(K.d, m)]
    )


def chain(K, boundaries, n: int) -> np.ndarray:
    amps = np.array(
        [boundaries.R.conj() @ product(K.ops, boundaries.L.astype(complex), xs) for xs in strings(K.d, n)]
    )
    weights = np.abs(amps) ** 2
    return weights / weights.sum()


def product_set(K, n: int) -> list[np.ndarray]:
    eye = np.eye(K.D, dtype=complex)
    return [W.conj().T @ W for W in (product(K.ops, eye, xs) for xs in strings(K.d, n))]


def span_ranks(K, n_max: int, tol: float = 1e-10) -> list[int]:
    """Ranks of the Gram matrices Tr(M_x^dag M_x') of the product sets."""
    ranks = []
    for n in range(1, n_max + 1):
        V = np.array([M.ravel() for M in product_set(K, n)])
        lam = np.linalg.eigvalsh(V.conj() @ V.T)
        ranks.append(int(np.count_nonzero(lam > tol * lam[-1])))
    return ranks


def _nu12_sum(ops: np.ndarray, root: np.ndarray, n: int, left: np.ndarray | None = None) -> float:
    total = 0.0
    for xs in strings(ops.shape[0], n):
        P = product(ops, root, xs)
        nu = np.linalg.svd(P if left is None else left @ P, compute_uv=False)
        total += nu[0] * nu[1] if nu.size > 1 else 0.0
    return total


def w_values(K, n_max: int) -> list[float]:
    eye = np.eye(K.D, dtype=complex)
    return [_nu12_sum(K.ops, eye, n) for n in range(1, n_max + 1)]


def f_values(K, sqrt_sigma: np.ndarray, F: np.ndarray, n_max: int) -> list[float]:
    return [_nu12_sum(K.ops, sqrt_sigma, n, left=F) for n in range(1, n_max + 1)]


def mean_m_residual(K, n: int) -> float:
    total = sum(product_set(K, n))
    return float(np.linalg.norm(total / K.D - np.eye(K.D) / K.D, 2))


def purification(K, n: int) -> float:
    """D * E[sqrt(l1 l2)] of the normalized running operator W^dag W / Tr."""
    total = 0.0
    for M in product_set(K, n):
        tr = np.trace(M).real
        if tr > 0.0:
            lam = np.clip(np.linalg.eigvalsh(M / tr), 0.0, None)
            total += tr * np.sqrt(lam[-1] * lam[-2])
    return total


def dfs_scan(ctx: RestrictionContext, n: int) -> RestrictionSummary:
    """The recursive depth-first walk, with the arithmetic of the package's
    former ``_scan_chunk`` kept operation for operation."""
    d = ctx.kraus.d
    k2 = ctx.k2_for(n)
    tr_floor = 1e-14 * d ** (-n) * k2
    eye = np.eye(ctx.kraus.D, dtype=complex)
    f_op = None if np.allclose(ctx.f_op, eye, atol=0.0, rtol=0.0) else ctx.f_op

    def walk(P: np.ndarray, depth_left: int) -> np.ndarray:
        acc = np.zeros(5)
        if depth_left == 0:
            T = P if f_op is None else f_op @ P
            lam = np.linalg.eigvalsh(T @ T.conj().T)
            tr = float(lam.sum())
            acc[0] = tr
            if tr >= tr_floor:
                lam1 = float(lam[-1])
                lam2 = float(lam[-2]) if lam.size > 1 else 0.0
                q = np.clip(lam / tr, 0.0, 1.0)
                q = q[q > 0.0]
                acc[1] = tr * float(-np.sum(q * np.log(q)))
                acc[2] = lam1
                acc[3] = max(lam2, 0.0)
                acc[4] = float(np.sqrt(max(lam1, 0.0) * max(lam2, 0.0)))
            return acc
        for s in range(d):
            acc += walk(ctx.kraus.ops[s] @ P, depth_left - 1)
        return acc

    acc = walk(ctx.sqrt_sigma, n)
    return RestrictionSummary(
        n=int(n),
        p_sum=float(acc[0] / k2),
        avg_entropy=float(acc[1] / k2),
        avg_purity_q=float(1.0 - acc[2] / k2),
        lam2_sum_over_k2=float(acc[3] / k2),
        f_value=float(acc[4]),
    )


def max_scalar_subspace(products, D: int, tol: float, budget: int):
    """Depth-first eigenspace refinement for the largest scalar subspace.

    Starts from the full space; whenever a compression B^dag M B fails the
    scalar test (residual > tol * ||M||), branches over its eigenvalue
    clusters intersected with the current subspace, pruning branches that
    cannot beat the best rank found.  Returns (rank, projector, residual).
    """
    scales = [max(float(np.linalg.norm(M, 2)), 1e-300) for M in products]
    best_rank = 0
    best_basis = None
    best_resid = 0.0
    nodes = 0

    def dfs(B: np.ndarray) -> None:
        nonlocal best_rank, best_basis, best_resid, nodes
        nodes += 1
        if nodes > budget:
            raise SearchBudgetExceeded(f"subspace search exceeded {budget} nodes")
        r = B.shape[1]
        if r <= best_rank:
            return
        worst = 0.0
        for M, scale in zip(products, scales):
            C = B.conj().T @ M @ B
            C = (C + C.conj().T) / 2.0
            lam, V = np.linalg.eigh(C)
            resid = float(np.max(np.abs(lam - lam.mean())))
            if resid > tol * scale:
                for sl in _eig_clusters(lam, 1e-8):
                    if sl.stop - sl.start > best_rank:
                        dfs(B @ V[:, sl])
                return
            worst = max(worst, resid / scale)
        best_rank = r
        best_basis = B
        best_resid = worst

    dfs(np.eye(D, dtype=complex))
    if best_basis is None:  # cannot happen: rank-1 subspaces are always scalar
        raise NumericalInconsistency("subspace search found nothing")
    P = best_basis @ best_basis.conj().T
    return best_rank, (P + P.conj().T) / 2.0, best_resid


def correctable(K, n_max: int, tol: float = 1e-8, budget: int = 200_000):
    """(ranks, projectors, residuals) of the staircase for n = 1..n_max."""
    steps = [max_scalar_subspace(product_set(K, n), K.D, tol, budget) for n in range(1, n_max + 1)]
    return tuple(zip(*steps))


def sample_trajectory(K, n: int, seed: int, stream: int = 0) -> trajectories.MartingaleTrace:
    """Draw an n-step trajectory with exact conditional weights, one scalar
    uniform and d separate norms per step.  The stream's generator is looked
    up on the module at call time, so a test can substitute its draws."""
    if n < 1:
        raise ValueError(f"trajectory length must be >= 1, got {n}")
    rng = trajectories._rng_for(seed, stream)
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
        cond[cond < trajectories._WEIGHT_CUTOFF] = 0.0
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
    return trajectories.MartingaleTrace(
        outcomes=tuple(outcomes), m_ops=tuple(m_ops), probs=tuple(probs)
    )


def sample_rows(K, n: int, seed: int, count: int) -> list[dict]:
    """The rows of trajectories 0..count-1 as dicts: one sample_trajectory
    each, and one eigvalsh per step (lambda2 is 0.0 when D = 1)."""
    rows = []
    for t in range(count):
        trace = sample_trajectory(K, n, seed, t)
        for step, (y, M, pr) in enumerate(zip(trace.outcomes, trace.m_ops, trace.probs), start=1):
            lam = np.linalg.eigvalsh(M)[::-1]
            rows.append(
                {
                    "trajectory": t,
                    "step": step,
                    "outcome": y,
                    "lambda1": float(lam[0]),
                    "lambda2": float(lam[1]) if K.D > 1 else 0.0,
                    "path_prob": pr,
                }
            )
    return rows


def sample_csv(rows: list[dict]) -> str:
    """The rows as CSV: the int columns as str, the float columns as repr."""
    lines = ["trajectory,step,outcome,lambda1,lambda2,path_prob"]
    for r in rows:
        lines.append(f"{r['trajectory']},{r['step']},{r['outcome']},{r['lambda1']!r},{r['lambda2']!r},{r['path_prob']!r}")
    return "\n".join(lines) + "\n"

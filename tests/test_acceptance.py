"""Acceptance gate: one test per shipped criterion, each printing a verdict.

Every test emits exactly one line

    ACCEPTANCE <nn> PASS|FAIL - <measured detail at the stated tolerance>

before asserting, so a verbose run doubles as the acceptance report.
"""

import itertools
import time

import numpy as np

from mpsrestrict.chain import BoundaryPair, ChainGeometry
from mpsrestrict.cli import main
from mpsrestrict.gibbs import (
    ChainDistribution,
    cmi_decomposition_check,
    local_hamiltonian,
    partition_function,
)
from mpsrestrict.linalg import exterior_square, g_func
from mpsrestrict.models import aklt, aklt_pauli, damping, jordan
from mpsrestrict.purity import (
    constructive_purity_family,
    correctable_subspace,
    estimate_rate,
    haar_kraus,
    span_purity_test,
    w_series,
)
from mpsrestrict.restriction import (
    RestrictionContext,
    cmi_report,
    restriction_scan,
)
from mpsrestrict.trajectories import (
    martingale_step_check,
    mean_m_check,
    purification_statistic,
    sample_trajectory,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_block_cmi_closed_form():
    """Quantum CMI of the valence-bond family is 2 ln2 * 3^-N (rel 1e-8),
    N = 1..8, in under five seconds."""
    start = time.perf_counter()
    ctx = RestrictionContext.stationary(aklt())
    worst = 0.0
    for n in range(1, 9):
        got = 2.0 * restriction_scan(ctx, n).avg_entropy
        want = 2.0 * np.log(2.0) * 3.0 ** (-n)
        worst = max(worst, abs(got - want) / want)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    _verdict(1, ok, f"max rel err {worst:.2e} (tol 1e-8), {elapsed:.2f}s (< 5s)")


def test_criterion_02_pauli_flat_entropy():
    """The Pauli family's average entropy is exactly ln 2 for N = 1..6."""
    ctx = RestrictionContext.stationary(aklt_pauli())
    worst = max(
        abs(restriction_scan(ctx, n).avg_entropy - np.log(2.0)) for n in range(1, 7)
    )
    _verdict(2, worst <= 1e-10, f"max |<S> - ln2| = {worst:.2e} (tol 1e-10)")


def test_criterion_03_w_series_rate():
    """w(N) = 3^-N within 1e-10 and estimated rate -ln 3 within 1e-4 for the
    valence-bond family; an independent brute-force SVD enumeration guards
    the implementation itself.

    The target follows from ranks: A_+ and A_- have rank 1, so every string
    containing either has nu2 = 0.  Only the all-A_0 string keeps rank 2, and
    A_0^N = (-1/sqrt(3))^N diag(1, -1)^N has nu1 = nu2 = 3^(-N/2), so
    nu1 * nu2 = 3^-N."""
    K = aklt()
    w = w_series(K, 8)

    def brute(n):
        tot = 0.0
        for xs in itertools.product(range(K.d), repeat=n):
            W = np.eye(K.D, dtype=complex)
            for s in xs:
                W = K.ops[s] @ W
            sv = np.linalg.svd(W, compute_uv=False)
            tot += float(sv[0] * sv[1])
        return tot

    oracle_gap = max(abs(w.value_at(n) - brute(n)) for n in range(1, 5))
    worst = max(abs(w.value_at(n) - 3.0 ** (-n)) for n in range(1, 9))
    rate_err = abs(w.fitted_rate - (-np.log(3.0)))
    ok = oracle_gap <= 1e-10 and worst <= 1e-10 and rate_err <= 1e-4
    _verdict(
        3,
        ok,
        f"max |w(N) - 3^-N| = {worst:.2e} (tol 1e-10), |rate + ln3| = "
        f"{rate_err:.2e} (tol 1e-4); brute-force oracle gap {oracle_gap:.2e} "
        f"[measured w(1) = {w.value_at(1):.12f}]",
    )


def test_criterion_04_gibbs_identity_random():
    """50 random strictly positive length-6 binary distributions: the
    relative-entropy/CMI decomposition holds to 1e-9 and Z = 1 to 1e-9 for
    ell = 1..4, all inside ten seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_z = 0.0
    for _ in range(50):
        t = rng.random(64) + 1e-3
        p = ChainDistribution(length=6, d=2, table=t / t.sum())
        for ell in (1, 2, 3, 4):
            lhs, rhs = cmi_decomposition_check(p, ell)
            worst_gap = max(worst_gap, abs(lhs - rhs))
            worst_z = max(worst_z, abs(partition_function(local_hamiltonian(p, ell)) - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-9 and worst_z <= 1e-9 and elapsed < 10.0
    _verdict(
        4,
        ok,
        f"max |lhs-rhs| = {worst_gap:.2e}, max |Z-1| = {worst_z:.2e} "
        f"(tol 1e-9 each), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_05_martingale_checks():
    """200 sampled prefixes satisfy the one-step martingale identity to
    1e-10, and E[M_n] = 1/D to 1e-10 for n <= 5 on three families."""
    families = [aklt(), haar_kraus(3, 5, 0), jordan(4)]
    worst_step = 0.0
    count = 0
    for fi, K in enumerate(families):
        streams = 67 if fi < 2 else 66
        for stream in range(streams):
            tr = sample_trajectory(K, 1 + (stream % 6), seed=123 + fi, stream=stream)
            worst_step = max(worst_step, martingale_step_check(K, tr.outcomes))
            count += 1
    worst_mean = max(
        mean_m_check(K, n) for K in families for n in range(1, 6)
    )
    ok = count == 200 and worst_step <= 1e-10 and worst_mean <= 1e-10
    _verdict(
        5,
        ok,
        f"{count} prefixes, max step residual {worst_step:.2e}, "
        f"max |E[M]-1/D| = {worst_mean:.2e} (tol 1e-10 each)",
    )


def test_criterion_06_staircase():
    """Correctable-subspace ranks of the shift-plus-corner family descend
    4, 3, 2, 1."""
    ranks = correctable_subspace(jordan(4), 4).max_ranks
    _verdict(6, ranks == (4, 3, 2, 1), f"ranks {ranks} (expected (4, 3, 2, 1))")


def test_criterion_07_span_certificates():
    """At least 99 of 100 Haar families (D=3, d=5) certify purity by length
    5, and the constructive family's witness products span at rank 9."""
    passed = 0
    for seed in range(100):
        K = haar_kraus(3, 5, seed)
        for n in range(1, 6):
            at, _ = span_purity_test(K, n)
            if at is not None:
                passed += 1
                break
    fam = constructive_purity_family(3)
    at, ranks = span_purity_test(fam, 5)
    constructive_ok = at is not None and max(ranks) == 9
    ok = passed >= 99 and constructive_ok
    _verdict(
        7,
        ok,
        f"{passed}/100 Haar seeds certified by n=5 (need >= 99); "
        f"constructive span ranks {ranks}",
    )


def test_criterion_08_purification_consistency():
    """E[sqrt(l1 l2)] * D equals w(n) to 1e-9 for n <= 5 on the valence-bond
    and a Haar family (independent spectral routes).  Each statistic walks
    before w_series records its length on the family."""
    worst = 0.0
    for K in (aklt(), haar_kraus(3, 5, 1)):
        stats = [purification_statistic(K, n) for n in range(1, 6)]
        w = w_series(K, 5)
        for n, got in enumerate(stats, start=1):
            worst = max(worst, abs(got - w.value_at(n)))
    _verdict(8, worst <= 1e-9, f"max |purification - w| = {worst:.2e} (tol 1e-9)")


def test_criterion_09_random_context_bounds():
    """25 random dressed contexts, n <= 4: the second-eigenvalue sandwich for
    Q, the entropy bound via g, f <= (2 sqrt(ln2))^-1 sqrt(<S>), f <= w, and
    classical <= quantum CMI, all with 1e-9 slack."""
    rng = np.random.default_rng(99)
    specs = [(2, 2), (2, 3), (3, 2), (3, 3), (3, 5)]
    worst = {"sandwich": 0.0, "entropy": 0.0, "fs": 0.0, "fw": 0.0, "cmi": 0.0}
    for i in range(25):
        D, d = specs[i % len(specs)]
        K = haar_kraus(D, d, 500 + i)
        L = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        R = rng.standard_normal(D) + 1j * rng.standard_normal(D)
        b = BoundaryPair(L=L / np.linalg.norm(L), R=R / np.linalg.norm(R))
        geom = ChainGeometry(len_a=i % 3, len_b=1, len_c=(i + 1) % 3)
        ctx = RestrictionContext.from_boundaries(K, b, geom)
        w = w_series(K, 4)
        for n in range(1, 5):
            s = restriction_scan(ctx, n)
            q = s.avg_purity_q
            lam2 = s.lam2_sum_over_k2
            worst["sandwich"] = max(
                worst["sandwich"], lam2 - q, q - (D - 1) * lam2
            )
            bound = g_func(min(max(q, 0.0), 1.0)) + q * np.log(max(D - 1, 1))
            worst["entropy"] = max(worst["entropy"], s.avg_entropy - bound)
            worst["fs"] = max(
                worst["fs"],
                s.f_value - np.sqrt(s.avg_entropy) / (2.0 * np.sqrt(np.log(2.0))),
            )
            worst["fw"] = max(worst["fw"], s.f_value - w.value_at(n))
            rep = cmi_report(ctx, n, window_a=1, window_c=1)
            worst["cmi"] = max(worst["cmi"], rep.classical_cmi - rep.quantum_cmi)
    ok = all(v <= 1e-9 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    _verdict(9, ok, f"max violations (tol 1e-9): {detail}")


def test_criterion_10_damped_entropy_decay():
    """Average entropy of the damped family between generic boundaries decays
    with fitted rate <= -0.3 over N = 1..8."""
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ctx = RestrictionContext.from_boundaries(
        damping(0.5),
        BoundaryPair(L=v, R=v),
        ChainGeometry(len_a=1, len_b=1, len_c=1),
    )
    pairs = [(n, restriction_scan(ctx, n).avg_entropy) for n in range(1, 9)]
    fitted, _ = estimate_rate(pairs)
    _verdict(10, fitted <= -0.3, f"fitted entropy rate {fitted:.4f} (need <= -0.3)")


def test_criterion_11_exterior_square_identities():
    """100 random matrices: ||wedge(O)|| = nu1 nu2 to 1e-10; 50 random pairs:
    wedge(AB) = wedge(A) wedge(B) to 1e-10."""
    rng = np.random.default_rng(7)
    worst_norm = 0.0
    for _ in range(100):
        D = int(rng.integers(2, 6))
        O = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        sv = np.linalg.svd(O, compute_uv=False)
        got = np.linalg.norm(exterior_square(O), 2)
        worst_norm = max(worst_norm, abs(got - sv[0] * sv[1]) / max(1.0, sv[0] * sv[1]))
    worst_mult = 0.0
    for _ in range(50):
        D = int(rng.integers(2, 6))
        A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        B = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        gap = np.linalg.norm(exterior_square(A @ B) - exterior_square(A) @ exterior_square(B))
        worst_mult = max(worst_mult, gap / max(1.0, np.linalg.norm(exterior_square(A @ B))))
    ok = worst_norm <= 1e-10 and worst_mult <= 1e-10
    _verdict(
        11,
        ok,
        f"norm identity err {worst_norm:.2e}, multiplicativity err "
        f"{worst_mult:.2e} (tol 1e-10, relative)",
    )


def test_criterion_12_thread_count_invariance(tmp_path):
    """The analyze report is byte-identical for 1, 2 and 4 worker threads."""
    outs = []
    for threads in (1, 2, 4):
        path = tmp_path / f"t{threads}.json"
        rc = main(
            [
                "analyze",
                "--builtin",
                "aklt",
                "--nmax",
                "4",
                "--threads",
                str(threads),
                "--out",
                str(path),
            ]
        )
        assert rc == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1] == outs[2]
    _verdict(12, ok, f"reports of {len(outs[0])} bytes identical across 1/2/4 threads")

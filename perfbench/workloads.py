"""The benchmark's workloads: seeded inputs, set-up, one execution, checks.

Each workload has

* ``setup``: what a fresh process does before the workload can start
  (model resolution and context construction, which runs ``fixed_point``);
* ``execute``: one timed execution, which writes its output to a file and
  returns one record per operation (a CLI invocation or a library call);
* ``summary``: the part of the output compared with the stored reference;
* ``identities``: the paper's identities, checked for every seed.

Functions of the package are looked up as module attributes at call time, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from mpsrestrict import BoundaryPair, ChainGeometry, haar_kraus, save_model
from mpsrestrict import chain, cli, modelio, models, purity, restriction, trajectories

# Numeric fields agree with the reference at the tests' 1e-10 tier.
TOL = 1e-10

FINITE_MODEL = "haar-D3-d5-boundaries.json"
HAAR_MODEL = "haar-D4-d3.json"
# Window sites folded into the environments of the finite context; the same
# as the CLI's default --geometry 2,2,2.
FINITE_WINDOWS = ChainGeometry(len_a=2, len_b=1, len_c=2)
DECAY_NMAX = 9


def make_inputs(seed: int, dest: Path) -> None:
    """Write the seed's model files; the program receives only these files."""
    dest.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 35])

    def unit(dim: int) -> np.ndarray:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    save_model(
        dest / FINITE_MODEL,
        haar_kraus(3, 5, seed),
        boundaries=BoundaryPair(L=unit(3), R=unit(3)),
        label=f"haar-D3-d5-seed{seed}",
    )
    save_model(dest / HAAR_MODEL, haar_kraus(4, 3, seed), label=f"haar-D4-d3-seed{seed}")


@dataclass
class State:
    kraus: Any
    ctx: Any
    model_path: Path | None
    seed: int


def _setup(model: str | None) -> Callable[[Path, int], State]:
    def setup(inputs: Path, seed: int) -> State:
        if model is None:
            K, boundaries, path = models.aklt(), None, None
        else:
            path = inputs / model
            mf = modelio.load_model(path)
            K, boundaries = mf.kraus, mf.boundaries
        chain.fixed_point(K)
        if boundaries is None:
            ctx = restriction.RestrictionContext.stationary(K)
        else:
            ctx = restriction.RestrictionContext.from_boundaries(K, boundaries, FINITE_WINDOWS)
        return State(kraus=K, ctx=ctx, model_path=path, seed=seed)

    return setup


def _cli(verb_args: Callable[[State], list[str]]) -> Callable[[State, Path], list[dict]]:
    def execute(state: State, out: Path) -> list[dict]:
        argv = verb_args(state) + ["--seed", str(state.seed), "--out", str(out)]
        try:
            code = cli.main(argv)
            error = None if code == 0 else f"exit code {code}"
        except Exception as exc:  # an operation that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        return [{"op": argv[0], "error": error}]

    return execute


def _decay_session(state: State, out: Path) -> list[dict]:
    """The decay-series study as a library session on one Haar family."""
    K, ctx, n = state.kraus, state.ctx, DECAY_NMAX
    calls: list[tuple[str, Callable[[], Any]]] = [
        (f"restriction_scan[{m}]", lambda m=m: dataclasses.asdict(restriction.restriction_scan(ctx, m)))
        for m in range(1, n + 1)
    ]
    calls += [
        ("w_series", lambda: purity.w_series(K, n).values),
        ("f_series", lambda: purity.f_series(K, ctx.sigma, ctx.f_op, n).values),
        ("purification_statistic", lambda: trajectories.purification_statistic(K, n)),
        ("mean_m_check", lambda: trajectories.mean_m_check(K, n)),
    ]
    ops, values = [], {}
    for name, call in calls:
        try:
            values[name] = call()
            ops.append({"op": name, "error": None})
        except Exception as exc:  # an operation that raises counts as failed
            ops.append({"op": name, "error": f"{type(exc).__name__}: {exc}"})
    out.write_text(json.dumps(values, sort_keys=True) + "\n", encoding="utf-8")
    return ops


# ------------------------------------------------------------------ checks


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


def compare(value: Any, ref: Any, path: str = "") -> list[str]:
    """Mismatches of an output against its reference.

    Floats agree at the 1e-10 tier; strings (statuses), integers (ranks,
    counts, sampled outcomes), booleans and nulls must be equal.
    """
    if isinstance(ref, dict):
        if not isinstance(value, dict) or set(value) != set(ref):
            return [f"{path}: keys differ"]
        return [m for k in sorted(ref) for m in compare(value[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(value, list) or len(value) != len(ref):
            return [f"{path}: length differs"]
        return [m for i, (v, r) in enumerate(zip(value, ref)) for m in compare(v, r, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        return [] if _close(float(value), ref) else [f"{path}: {value!r} != {ref!r}"]
    if type(value) is not type(ref) or value != ref:
        return [f"{path}: {value!r} != {ref!r}"]
    return []


def _analyze_summary(doc: dict) -> dict:
    # the source field names the model file's path, which varies by checkout
    return {"analyze": {k: v for k, v in doc.items() if k != "source"}}


def _analyze_identities(doc: dict, info: dict) -> dict[str, list[str]]:
    bad = []
    rows = doc["per_n"]
    if [r["n"] for r in rows] != list(range(1, info["nmax"] + 1)):
        bad.append("per_n rows do not cover n = 1..nmax")
    for r in rows:
        n = r["n"]
        if not _close(r["p_sum"], 1.0):
            bad.append(f"p_sum({n}) = {r['p_sum']!r} != 1")
        if r["classical_cmi"] > r["quantum_cmi"] + TOL:
            bad.append(f"classical CMI({n}) {r['classical_cmi']!r} > quantum {r['quantum_cmi']!r}")
        if r["f"] > r["w"] + TOL:
            bad.append(f"f({n}) {r['f']!r} > w({n}) {r['w']!r}")
    if doc["gibbs"]["identity_gap"] > TOL:
        bad.append(f"Gibbs relative-entropy/CMI identity gap {doc['gibbs']['identity_gap']!r}")
    return {"analyze": bad} if bad else {}


def _decay_identities(values: dict, info: dict) -> dict[str, list[str]]:
    """Failed identities, keyed by the operation they blame."""
    bad: dict[str, list[str]] = {}
    n = DECAY_NMAX
    for m in range(1, n + 1):
        scan = values.get(f"restriction_scan[{m}]")
        if scan is not None and not _close(scan["p_sum"], 1.0):
            bad.setdefault(f"restriction_scan[{m}]", []).append(f"p_sum = {scan['p_sum']!r}")
    w = dict((int(k), v) for k, v in values.get("w_series", []))
    f = dict((int(k), v) for k, v in values.get("f_series", []))
    for m in f:
        if m in w and f[m] > w[m] + TOL:
            bad.setdefault("f_series", []).append(f"f({m}) {f[m]!r} > w({m}) {w[m]!r}")
    stat = values.get("purification_statistic")
    if stat is not None and n in w and not _close(stat, w[n]):
        bad.setdefault("purification_statistic", []).append(f"{stat!r} != w({n}) {w[n]!r}")
    resid = values.get("mean_m_check")
    if resid is not None and not resid < TOL:
        bad.setdefault("mean_m_check", []).append(f"residual {resid!r} >= {TOL}")
    return bad


_SAMPLE_HEAD = 10  # trajectories whose rows are stored in full


def _sample_summary(doc: dict) -> dict:
    rows = doc["rows"]
    outcomes: dict[int, list[str]] = {}
    for r in rows:
        outcomes.setdefault(r["trajectory"], []).append(str(r["outcome"]))
    return {
        "sample": {
            "header": {k: v for k, v in doc.items() if k not in ("rows", "source")},
            "outcomes": ["".join(v) for _, v in sorted(outcomes.items())],
            "rows_head": [r for r in rows if r["trajectory"] < _SAMPLE_HEAD],
            "sums": {c: float(sum(r[c] for r in rows)) for c in ("lambda1", "lambda2", "path_prob")},
        }
    }


def _read_matrices(path: Path) -> np.ndarray:
    """Kraus matrices straight from the model file, without the package."""
    raw = np.asarray(json.loads(path.read_text(encoding="utf-8"))["matrices"], dtype=float)
    return raw[..., 0] + 1j * raw[..., 1]


def _sample_identities(doc: dict, info: dict) -> dict[str, list[str]]:
    """Recompute every row's eigenvalues and path probability from its outcomes."""
    bad = _sample_rows(doc, _read_matrices(info["inputs"] / HAAR_MODEL))
    return {"sample": bad} if bad else {}


def _sample_rows(doc: dict, A: np.ndarray) -> list[str]:
    d, D = A.shape[0], A.shape[1]
    steps, count = doc["steps"], doc["trajectories"]
    rows = doc["rows"]
    if len(rows) != steps * count:
        return [f"{len(rows)} rows, expected {steps * count}"]
    index = [(r["trajectory"], r["step"]) for r in rows]
    if index != [(t, s) for t in range(count) for s in range(1, steps + 1)]:
        return ["rows are not ordered by trajectory and step"]
    y = np.array([r["outcome"] for r in rows]).reshape(count, steps)
    if y.min() < 0 or y.max() >= d:
        return ["outcome outside the alphabet"]
    got = np.array([[r["lambda1"], r["lambda2"], r["path_prob"]] for r in rows]).reshape(count, steps, 3)
    W = np.broadcast_to(np.eye(D, dtype=complex), (count, D, D))
    bad = []
    for s in range(steps):
        W = A[y[:, s]] @ W
        tr = np.einsum("tij,tij->t", W.conj(), W).real
        M = np.conj(np.swapaxes(W, 1, 2)) @ W / tr[:, None, None]
        lam = np.linalg.eigvalsh((M + np.conj(np.swapaxes(M, 1, 2))) / 2)[:, ::-1]
        want = np.stack([lam[:, 0], lam[:, 1], tr / D], axis=1)
        err = np.abs(got[:, s, :] - want)
        if np.any(tr <= 0.0) or np.any(err > TOL * np.maximum(1.0, np.abs(want))):
            bad.append(f"step {s + 1}: max deviation {float(err.max()):.3e}")
    return bad


@dataclass(frozen=True)
class Workload:
    name: str
    ops: int
    setup: Callable[[Path, int], State]
    execute: Callable[[State, Path], list[dict]]
    summary: Callable[[Any], dict]
    identities: Callable[[Any, dict], Any]
    nmax: int


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze-aklt",
            1,
            _setup(None),
            _cli(lambda s: ["analyze", "--builtin", "aklt", "--nmax", "8"]),
            _analyze_summary,
            _analyze_identities,
            8,
        ),
        Workload(
            "analyze-finite",
            1,
            _setup(FINITE_MODEL),
            _cli(lambda s: ["analyze", "--model", str(s.model_path), "--nmax", "4"]),
            _analyze_summary,
            _analyze_identities,
            4,
        ),
        Workload(
            "decay-haar",
            DECAY_NMAX + 4,
            _setup(HAAR_MODEL),
            _decay_session,
            lambda values: values,
            _decay_identities,
            DECAY_NMAX,
        ),
        Workload(
            "sample-haar",
            1,
            _setup(HAAR_MODEL),
            _cli(
                lambda s: ["sample", "--model", str(s.model_path), "--nmax", "20", "--trajectories", "1000"]
            ),
            _sample_summary,
            _sample_identities,
            20,
        ),
    )
}


def check_output(
    wl: Workload, ops: list[dict], out: Path, inputs: Path, reference: dict | None
) -> dict[str, list[str]]:
    """Failed operations of one execution, with the reasons, keyed by op."""
    failed = {o["op"]: [o["error"]] for o in ops if o["error"] is not None}
    if not out.is_file():
        return failed or {o["op"]: ["no output written"] for o in ops}
    try:
        doc = json.loads(out.read_text(encoding="utf-8"))
        found = wl.identities(doc, {"nmax": wl.nmax, "inputs": inputs})
        summary = wl.summary(doc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return {o["op"]: [f"malformed output: {type(exc).__name__}: {exc}"] for o in ops}
    for op, reasons in found.items():
        failed.setdefault(op, []).extend(reasons)
    if reference is not None:
        for op, ref in reference.items():
            mismatches = compare(summary.get(op), ref, op)
            if mismatches:
                failed.setdefault(op, []).extend(mismatches[:5])
    return failed

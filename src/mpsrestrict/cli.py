"""Command-line interface.

Verbs:

* ``analyze``  — per-length restriction table (probability mass, average
  entropy, quantum and classical CMI, average purity, decay series w and f),
  rate estimates, a purity verdict and a local-Hamiltonian fit block.
* ``sample``   — measurement trajectories with exact conditional weights.
* ``generate`` — write a Haar-random or constructive model file.
* ``check``    — validate a model file and print a short summary.

Exit codes: 0 success, 2 enumeration guard tripped, 3 invalid model or
parameters (a bad length, tolerance or matrix raises a named
``MpsRestrictError``), 4 internal numerical inconsistency.

``analyze`` chooses its context once: the stationary context, or the bare
boundary context (sigma = |L><L|, F^dag F = |R><R|) when the model file
carries boundaries.  Every per-n row is ``restriction.cmi_report`` of that
context and the Gibbs block fits its ``window_distribution``, so the CLI and
the library compute the same numbers.

Reports embed the library version, the seed and every guard that shaped the
run.  All enumerations are deterministic and run in the calling thread.
``analyze`` checks the number of outcomes (d >= 2), the enumeration guard,
``--ell`` and ``--tol`` before it enumerates anything.  That one guard
bounds every enumeration, so the purity verdict covers n = 1..nmax like the
per-n rows.
``--threads`` is still accepted but selects nothing, so output bytes do not
depend on it (and it is not recorded).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import __version__
from .chain import ChainGeometry, _normalization_residual, fixed_point
from .errors import (
    CompletionFailed,
    DimensionTooSmall,
    EnumerationTooLarge,
    MpsRestrictError,
    NonConvergent,
    NumericalInconsistency,
    SearchBudgetExceeded,
)
from .gibbs import (
    cmi_decomposition_check,
    local_hamiltonian,
    partition_function,
)
from .linalg import _check_length, _check_tol
from .models import BUILTINS, clock, damping, jordan, markov
from .modelio import load_model, save_model
from .purity import (
    DecaySeries,
    constructive_purity_family,
    estimate_rate,
    haar_kraus,
    purity_verdict,
    w_series,
)
from .restriction import (
    _CHUNK_STRINGS,
    DEFAULT_GUARD,
    RestrictionContext,
    _check_guard,
    cmi_report,
    window_distribution,
)
from .trajectories import sample_trajectories

__all__ = ["main", "build_parser"]

_PER_N_COLUMNS = (
    "n",
    "p_sum",
    "avg_entropy",
    "quantum_cmi",
    "classical_cmi",
    "avg_purity_q",
    "w",
    "f",
)


def _finite_or_none(x: float | None) -> float | None:
    if x is None:
        return None
    x = float(x)
    return x if np.isfinite(x) else None


def _rates_obj(series: DecaySeries) -> dict[str, Any]:
    return {
        "fitted": _finite_or_none(series.fitted_rate),
        "fekete": _finite_or_none(series.fekete_rate),
        "all_zero": bool(series.all_zero),
    }


def _json_text(doc: dict[str, Any]) -> str:
    """The report as indented JSON with sorted keys.  numpy scalars that json
    does not take (np.float64 is a float, so it keeps its bytes) become the
    equal Python scalars."""

    def scalar(obj: Any) -> Any:
        if isinstance(obj, np.generic):
            return obj.item()
        raise TypeError(f"{type(obj).__name__} is not JSON serializable")

    return json.dumps(doc, indent=2, sort_keys=True, default=scalar) + "\n"


def _csv_text(rows: list[dict[str, Any]], columns: Sequence[str], ints: Sequence[str]) -> str:
    """Rows as CSV: the ``ints`` columns as str, the others as repr(float)."""
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for r in rows:
        buf.write(",".join(str(r[c]) if c in ints else repr(float(r[c])) for c in columns) + "\n")
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_geometry(raw: str) -> ChainGeometry:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError(f"--geometry expects 'a,b,c', got {raw!r}")
    try:
        a, b, c = (int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"--geometry entries must be integers, got {raw!r}") from exc
    return ChainGeometry(len_a=a, len_b=b, len_c=c)


def _parse_transition(raw: str) -> list[list[float]]:
    try:
        return [[float(x) for x in row.split(",")] for row in raw.split(";")]
    except ValueError as exc:
        raise ValueError(f"--p expects rows like '0.8,0.2;0.3,0.7', got {raw!r}") from exc


def _resolve_model(args: argparse.Namespace):
    """Returns (kraus, label, source, boundaries, file_geometry)."""
    if args.model:
        mf = load_model(args.model)
        label = mf.label or Path(args.model).stem
        return mf.kraus, label, str(args.model), mf.boundaries, mf.geometry
    name = args.builtin
    if name not in BUILTINS:
        raise ValueError(
            f"unknown builtin {name!r}; choices: {', '.join(sorted(BUILTINS))}"
        )
    if name == "jordan":
        K = jordan(args.dim if args.dim is not None else 4)
    elif name == "clock":
        K = clock(args.dim if args.dim is not None else 3)
    elif name == "damping":
        K = damping(args.gamma)
    elif name == "markov":
        K = markov(_parse_transition(args.p) if args.p else None)
    else:
        K = BUILTINS[name]()
    return K, name, f"builtin:{name}", None, None


def _gibbs_block(dist, ell: int) -> dict[str, Any]:
    if dist.min_entry <= 0.0:
        dist = dist.smoothed(1e-8)
    h = local_hamiltonian(dist, ell)
    z = partition_function(h)
    lhs, rhs = cmi_decomposition_check(dist, ell)
    return {
        "sites": dist.length,
        "ell": ell,
        "smoothing_eps": dist.smoothing_eps,
        "partition_function": z,
        "relative_entropy": lhs,
        "cmi_sum": rhs,
        "identity_gap": abs(lhs - rhs),
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    K, label, source, boundaries, file_geometry = _resolve_model(args)
    if K.d < 2:
        raise DimensionTooSmall(f"analyze needs d >= 2 outcomes, got d = {K.d}")
    flag_geometry = _parse_geometry(args.geometry)
    guard = int(args.guard)
    nmax = _check_length(args.nmax, "--nmax")

    # The one mode choice.  A finite chain's K^2 is checked here over the
    # chain of a one-site block, then over every chain a table covers.
    finite = boundaries is not None
    if finite:
        base = file_geometry if file_geometry is not None else flag_geometry
        ctx = RestrictionContext.from_boundaries(
            K, boundaries, ChainGeometry(len_a=0, len_b=base.len_a + 1 + base.len_c, len_c=0)
        )
    else:
        base = flag_geometry
        ctx = RestrictionContext.stationary(K)
    len_a, len_c = base.len_a, base.len_c

    fp = fixed_point(K)

    # Fail before enumerating: the largest tables are the last windowed block
    # and the Gibbs chain.  Guard errors come before the --ell check.
    gibbs_sites = len_a + max(flag_geometry.total - len_a - len_c, 1) + len_c
    _check_guard(K.d, max(len_a + nmax + len_c, gibbs_sites), guard)
    ell = int(args.ell)
    if not (1 <= ell <= gibbs_sites - 2):
        raise ValueError(
            f"--ell must satisfy 1 <= ell <= sites-2 = {gibbs_sites - 2}, got {ell}"
        )
    tol = float(args.tol)
    _check_tol(tol)

    reports = [cmi_report(ctx, n, len_a, len_c, guard=guard) for n in range(1, nmax + 1)]
    w = w_series(K, nmax, guard=guard)
    rows = [{**asdict(r), "w": w.value_at(r.n)} for r in reports]
    f_ser = DecaySeries.from_values((r["n"], r["f"]) for r in rows)
    s_ser_rates = estimate_rate((r["n"], r["avg_entropy"]) for r in rows)

    verdict = purity_verdict(K, nmax, tol=tol, guard=guard, w=w)
    gibbs = _gibbs_block(window_distribution(ctx, gibbs_sites, guard=guard), ell)

    report = {
        "schema_version": 1,
        "library_version": __version__,
        "label": label,
        "source": source,
        "seed": int(args.seed),
        "mode": "finite" if finite else "stationary",
        "guards": {
            "enumeration": guard,
            "nmax": nmax,
            "ell": ell,
            "geometry": [flag_geometry.len_a, flag_geometry.len_b, flag_geometry.len_c],
            "tol": tol,
        },
        "model": {
            "d": K.d,
            "D": K.D,
            "normalization_residual": _normalization_residual(K.ops),
        },
        "fixed_point": {
            "gap": fp.gap,
            "primitive": fp.primitive,
            "rho_min_eigenvalue": float(np.linalg.eigvalsh(fp.rho)[0]),
        },
        "per_n": rows,
        "rates": {
            "w": _rates_obj(w),
            "f": _rates_obj(f_ser),
            "avg_entropy": {
                "fitted": _finite_or_none(s_ser_rates[0]),
                "fekete": _finite_or_none(s_ser_rates[1]),
            },
        },
        "purity": {
            "status": verdict.status,
            "evidence": verdict.evidence,
            "n_max": verdict.n_max,
            "span_passed_at": verdict.span_passed_at,
            "span_ranks": list(verdict.span_ranks),
            "correctable_ranks": None
            if verdict.correctable_ranks is None
            else list(verdict.correctable_ranks),
            "w_fitted_rate": _finite_or_none(verdict.w_fitted_rate),
        },
        "gibbs": gibbs,
    }

    if args.format == "csv":
        text = _csv_text(rows, _PER_N_COLUMNS, ("n",))
    else:
        text = _json_text(report)
    _emit(text, args.out)
    return 0


_SAMPLE_COLUMNS = ("trajectory", "step", "outcome", "lambda1", "lambda2", "path_prob")
# One row of each format, fields in template order: the JSON row is what
# json.dumps(indent=2, sort_keys=True) writes for a row dict inside "rows",
# the CSV row follows the header.
_JSON_ROW_KEYS = tuple(sorted(_SAMPLE_COLUMNS))
_JSON_ROW = "    {\n" + ",\n".join(f'      "{c}": %s' for c in _JSON_ROW_KEYS) + "\n    }"
_CSV_ROW = ",".join(["%s"] * len(_SAMPLE_COLUMNS))
# json.dumps(allow_nan=True) spells the non-finite floats this way
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_EMPTY_ROWS_LINE = '\n  "rows": [],\n'


def _float_texts(values: np.ndarray, as_json: bool) -> list[str]:
    """repr of each float, as json and _csv_text write a finite float; JSON
    spells nan and +-inf as json does."""
    texts = list(map(float.__repr__, values.ravel().tolist()))
    if as_json and not np.all(np.isfinite(values)):
        texts = [_JSON_NONFINITE.get(s, s) for s in texts]
    return texts


def _sample_text(K, steps: int, seed: int, streams: range, as_json: bool) -> str:
    """The rows of a block of trajectories as text, sampled as one batch with
    one batched eigvalsh: JSON rows joined by ",\\n", or CSV lines.  The
    block's stacks are freed when it returns, so only the text outlives it."""
    outcomes, m_ops, probs = sample_trajectories(K, steps, seed, streams)
    lam = np.linalg.eigvalsh(m_ops)[..., ::-1]
    lam2 = lam[..., 1] if K.D > 1 else np.zeros_like(probs)
    cols = {
        "trajectory": [t for t in streams for _ in range(steps)],
        "step": list(range(1, steps + 1)) * len(streams),
        "outcome": outcomes.ravel().tolist(),
        "lambda1": _float_texts(lam[..., 0], as_json),
        "lambda2": _float_texts(lam2, as_json),
        "path_prob": _float_texts(probs, as_json),
    }
    if as_json:
        return ",\n".join([_JSON_ROW % r for r in zip(*(cols[c] for c in _JSON_ROW_KEYS))])
    return "".join([_CSV_ROW % r + "\n" for r in zip(*(cols[c] for c in _SAMPLE_COLUMNS))])


def cmd_sample(args: argparse.Namespace) -> int:
    K, label, source, _boundaries, _geometry = _resolve_model(args)
    steps = int(args.nmax)
    count = _check_length(args.trajectories, "--trajectories")
    as_json = args.format == "json"
    # blocks of _CHUNK_STRINGS streams bound the stack of M operators held at once
    blocks = [
        _sample_text(K, steps, int(args.seed), range(start, min(start + _CHUNK_STRINGS, count)), as_json)
        for start in range(0, count, _CHUNK_STRINGS)
    ]
    if as_json:
        doc = {
            "schema_version": 1,
            "library_version": __version__,
            "label": label,
            "source": source,
            "seed": int(args.seed),
            "steps": steps,
            "trajectories": count,
            "rows": [],
        }
        # json escapes every newline inside a string, so the key's line is unique
        head, _, tail = _json_text(doc).partition(_EMPTY_ROWS_LINE)
        text = "".join([head, '\n  "rows": [\n', ",\n".join(blocks), "\n  ],\n", tail])
    else:
        text = ",".join(_SAMPLE_COLUMNS) + "\n" + "".join(blocks)
    _emit(text, args.out)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "haar":
        K = haar_kraus(int(args.dim), int(args.phys), int(args.seed))
        label = f"haar-D{args.dim}-d{args.phys}-seed{args.seed}"
    else:
        K = constructive_purity_family(int(args.dim), int(args.phys))
        label = f"constructive-D{args.dim}-d{args.phys}"
    save_model(args.out, K, label=args.label or label)
    sys.stderr.write(f"wrote {args.out}: d={K.d}, D={K.D}, label={args.label or label}\n")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    mf = load_model(args.path)
    K = mf.kraus
    lines = [
        f"format: valid kraus-family model",
        f"label: {mf.label or '(none)'}",
        f"d: {K.d}",
        f"D: {K.D}",
        f"normalization residual: {_normalization_residual(K.ops):.3e}",
        f"boundaries: {'present' if mf.boundaries is not None else 'absent'}",
    ]
    if mf.geometry is not None:
        g = mf.geometry
        lines.append(f"geometry: ({g.len_a}, {g.len_b}, {g.len_c})")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--builtin", help=f"built-in family: {', '.join(sorted(BUILTINS))}")
    grp.add_argument("--model", help="path to a kraus-family model file (JSON)")
    p.add_argument("--dim", type=int, default=None, help="builtin parameter: jordan block size / clock dimension")
    p.add_argument("--gamma", type=float, default=0.5, help="builtin parameter: damping strength")
    p.add_argument("--p", default=None, help="builtin parameter: markov rows, e.g. '0.8,0.2;0.3,0.7'")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed recorded in the report")
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD, help="max d^n strings per enumeration")
    p.add_argument("--tol", type=float, default=1e-8, help="scalar-compression tolerance for the purity staircase")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpsrestrict",
        description="classical restrictions of matrix product states: "
        "entropies, conditional mutual information, local-Hamiltonian fits, "
        "purity certification and trajectory sampling",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="per-length restriction report")
    _add_model_flags(pa)
    _add_common_flags(pa)
    pa.add_argument("--nmax", type=int, default=6, help="largest block length in the per-n table")
    pa.add_argument("--ell", type=int, default=2, help="interaction range of the fitted local Hamiltonian")
    pa.add_argument(
        "--geometry",
        default="2,2,2",
        help="a,b,c window sites: a/c flank the block for classical CMI, a+b+c is the fit chain",
    )
    pa.add_argument("--threads", type=int, default=1, help="ignored (kept for compatibility): enumeration runs in one thread")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("sample", help="draw measurement trajectories")
    _add_model_flags(ps)
    _add_common_flags(ps)
    ps.add_argument("--nmax", type=int, default=8, help="steps per trajectory")
    ps.add_argument("--trajectories", type=int, default=100, help="number of trajectories")
    ps.set_defaults(func=cmd_sample)

    pg = sub.add_parser("generate", help="write a model file")
    pg.add_argument("kind", choices=("haar", "constructive"))
    pg.add_argument("--dim", type=int, default=3, help="bond dimension D")
    pg.add_argument("--phys", type=int, default=5, help="physical dimension d")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--label", default=None)
    pg.add_argument("--out", required=True, help="output model path")
    pg.set_defaults(func=cmd_generate)

    pc = sub.add_parser("check", help="validate a model file")
    pc.add_argument("path")
    pc.set_defaults(func=cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except EnumerationTooLarge as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NumericalInconsistency, NonConvergent, SearchBudgetExceeded, CompletionFailed) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 4
    except MpsRestrictError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    raise SystemExit(main())

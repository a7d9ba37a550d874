"""Command-line interface.

Verbs:

* ``analyze``  — per-length restriction table (probability mass, average
  entropy, quantum and classical CMI, average purity, decay series w and f),
  rate estimates, a purity verdict and a local-Hamiltonian fit block.
* ``sample``   — measurement trajectories with exact conditional weights.
* ``generate`` — write a Haar-random or constructive model file.
* ``check``    — validate a model file and print a short summary.

Exit codes: 0 success, 2 enumeration guard tripped, 3 invalid model or
parameters (argparse's usage error included), 4 internal numerical
inconsistency: ``main`` returns the ``exit_code`` of the error class it
catches, and 3 for a bare ValueError, KeyError or OSError.

``--dim``, ``--gamma`` and ``--p`` are passed, when given, as keywords to the
built-in family's constructor, whose signature decides which apply; a flag
it does not take, or any with ``--model``, exits 3 before any model work.

``analyze`` chooses its context once: the stationary context, or the bare
boundary context (sigma = |L><L|, F^dag F = |R><R|) when the model file
carries boundaries.  Then a model file's geometry sets the window sites a
and c alone, and the fit chain keeps ``--geometry``'s a+b+c sites; the
report records the a, fit block and c the run used.  One call of the private
``restriction._cmi_rows`` (``cmi_report`` is its one-row call) gives every
per-n row and the Gibbs chain's fit, from one walk per distinct window
context and one scan of the blocks, so the CLI and the library compute the
same numbers; how the rows read their windows is that module's choice.

``analyze``, ``sample`` and ``generate`` open their destination (``--out``,
else stdout) before any model work, so a bad path fails at once, and a file
is written whole or not at all.  ``sample`` writes its rows as it renders
them, so it holds one block of trajectories, not its whole output; on stdout
the rows already written stay written when a later block fails.

Reports embed the library version, the seed and every guard that shaped the
run.  All enumerations are deterministic and run in the calling thread.
``analyze`` checks d >= 2 outcomes and the enumeration guard before it forms
any environment, and ``--ell`` and ``--tol`` before any enumeration.  That one guard
bounds every enumeration, so the purity verdict covers n = 1..nmax like the
per-n rows.
``--threads`` is still accepted but selects nothing, so output bytes do not
depend on it (and it is not recorded).  ``--guard`` and ``--tol`` belong to
``analyze`` alone: ``sample`` enumerates nothing, and argparse rejects them
there (exit 3, its usage error).
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Any, Callable, Iterator, NoReturn, Sequence

import numpy as np

from . import __version__
from .chain import ChainGeometry, _normalization_residual
from .errors import DimensionTooSmall, MpsRestrictError
from .gibbs import _fit
from .linalg import _check_length, _check_tol
from .models import BUILTINS
from .modelio import _model_text, load_model
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
    _cmi_rows,
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
    """The report as indented JSON with sorted keys.  Every field is a Python
    scalar, list or dict (np.float64 is a float, so it keeps its bytes)."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_text(rows: list[dict[str, Any]], columns: Sequence[str], ints: Sequence[str]) -> str:
    """Rows as CSV: the ``ints`` columns as str, the others as repr(float)."""
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for r in rows:
        buf.write(",".join(str(r[c]) if c in ints else repr(float(r[c])) for c in columns) + "\n")
    return buf.getvalue()


@contextmanager
def _destination(out: str | None) -> Iterator[Callable[[str], object]]:
    """The write function of a verb's output: stdout's, or that of the file
    ``out``, opened here so that a bad path fails before any model work.

    A new or regular file is written whole or not at all: the text goes to a
    temporary sibling, which replaces ``out`` when the verb returns and is
    removed on any exception.  The sibling is created as open(out, "w")
    creates a file, so the umask applies, and takes the mode of the file it
    replaces.  Anything else at ``out`` (a FIFO, a device, a symlink such as
    /dev/stdout) is written in place, as open(out, "w") writes it.  Only a
    missing ``out`` means stdout: an empty one names no file.
    """
    if out is None:
        yield sys.stdout.write
        return
    if not out:
        raise ValueError("--out names no file: the path is empty")
    try:
        old = os.lstat(out)
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(out, "w", encoding="utf-8") as fh:
            yield fh.write
        return
    path = Path(out)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, out) from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            if old is not None:
                os.chmod(tmp, stat.S_IMODE(old.st_mode))
            yield fh.write
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    given = {f: v for f in ("dim", "gamma", "p") if (v := getattr(args, f)) is not None}
    if args.model:
        if given:
            raise ValueError(f"--{next(iter(given))} does not apply to --model")
        mf = load_model(args.model)
        label = mf.label or Path(args.model).stem
        return mf.kraus, label, str(args.model), mf.boundaries, mf.geometry
    name = args.builtin
    if name not in BUILTINS:
        raise ValueError(
            f"unknown builtin {name!r}; choices: {', '.join(sorted(BUILTINS))}"
        )
    family = BUILTINS[name]
    takes = inspect.signature(family).parameters
    for flag in given:
        if flag not in takes:
            raise ValueError(f"--{flag} does not apply to builtin {name!r}")
    if "p" in given:
        given["p"] = _parse_transition(given["p"])
    return family(**given), name, f"builtin:{name}", None, None


def _gibbs_block(dist, ell: int) -> dict[str, Any]:
    if dist.min_entry <= 0.0:
        dist = dist.smoothed(1e-8)
    z, lhs, terms = _fit(dist, ell)
    rhs = float(sum(terms))
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
    with _destination(args.out) as write:
        write(_analyze_text(args))
    return 0


def _analyze_text(args: argparse.Namespace) -> str:
    """The report of ``analyze`` as JSON, or its per-n rows as CSV."""
    K, label, source, boundaries, file_geometry = _resolve_model(args)
    if K.d < 2:
        raise DimensionTooSmall(f"analyze needs d >= 2 outcomes, got d = {K.d}")
    flag_geometry = _parse_geometry(args.geometry)
    guard = int(args.guard)
    nmax = _check_length(args.nmax, "--nmax")

    # Fail before forming any environment: the largest tables are the last
    # windowed block and the Gibbs chain.  Guard errors come before the --ell check.
    finite = boundaries is not None
    base = file_geometry if finite and file_geometry is not None else flag_geometry
    len_a, len_c = base.len_a, base.len_c
    gibbs_block = max(flag_geometry.total - len_a - len_c, 1)
    gibbs_sites = len_a + gibbs_block + len_c
    _check_guard(K.d, max(len_a + nmax + len_c, gibbs_sites), guard)

    # The one mode choice.  A finite chain's K^2 is checked here over the
    # chain of a one-site block, then over every chain a table covers.
    bare = ChainGeometry(0, len_a + 1 + len_c, 0)
    ctx = RestrictionContext.from_boundaries(K, boundaries, bare) if finite else RestrictionContext.stationary(K)
    fp = K._fixed_point  # computed once per family; the stationary sigma is its rho
    ell = int(args.ell)
    if gibbs_sites < 3:
        raise ValueError(
            f"--ell needs a Gibbs chain of at least 3 sites (1 <= ell <= sites-2), "
            f"but geometry {len_a},{gibbs_block},{len_c} gives {gibbs_sites}"
        )
    if not (1 <= ell <= gibbs_sites - 2):
        raise ValueError(
            f"--ell must satisfy 1 <= ell <= sites-2 = {gibbs_sites - 2}, got {ell}"
        )
    tol = float(args.tol)
    _check_tol(tol)

    # One call gives every row and the Gibbs chain's fit.
    blocks = [ChainGeometry(len_a, n, len_c) for n in range(1, nmax + 1)]
    reports, gibbs = _cmi_rows(ctx, blocks, guard, gibbs_sites, lambda p: _gibbs_block(p, ell))
    w = w_series(K, nmax, guard=guard)
    rows = [{**asdict(r), "w": w.value_at(r.n)} for r in reports]
    f_ser = DecaySeries.from_values((r["n"], r["f"]) for r in rows)
    s_ser_rates = estimate_rate((r["n"], r["avg_entropy"]) for r in rows)

    verdict = purity_verdict(K, nmax, tol=tol, guard=guard)

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
            "geometry": [len_a, gibbs_block, len_c],
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
        "purity": {**asdict(verdict), "w_fitted_rate": _finite_or_none(verdict.w_fitted_rate)},
        "gibbs": gibbs,
    }

    if args.format == "csv":
        return _csv_text(rows, _PER_N_COLUMNS, ("n",))
    return _json_text(report)


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


def _sample_text(K, steps: int, seed: int, streams: range, as_json: bool) -> Iterator[str]:
    """The rows of a block of trajectories as text, sampled as one batch with
    one batched eigvalsh and yielded in slices of at most _CHUNK_STRINGS rows
    (one trajectory when it is longer): JSON rows joined by ",\\n", or CSV
    lines.  The M stack is freed once its eigenvalues are taken, so the
    block's arrays and one slice's text are all it holds."""
    outcomes, m_ops, probs = sample_trajectories(K, steps, seed, streams)
    lam = np.linalg.eigvalsh(m_ops)[..., ::-1]
    del m_ops
    lam2 = lam[..., 1] if K.D > 1 else np.zeros_like(probs)
    per = max(1, _CHUNK_STRINGS // steps)  # trajectories a slice renders
    for i in range(0, len(streams), per):
        part = slice(i, i + per)
        cols = {
            "trajectory": [t for t in streams[part] for _ in range(steps)],
            "step": list(range(1, steps + 1)) * len(streams[part]),
            "outcome": outcomes[part].ravel().tolist(),
            "lambda1": _float_texts(lam[part, :, 0], as_json),
            "lambda2": _float_texts(lam2[part], as_json),
            "path_prob": _float_texts(probs[part], as_json),
        }
        if as_json:
            yield ",\n".join([_JSON_ROW % r for r in zip(*(cols[c] for c in _JSON_ROW_KEYS))])
        else:
            yield "".join([_CSV_ROW % r + "\n" for r in zip(*(cols[c] for c in _SAMPLE_COLUMNS))])


def cmd_sample(args: argparse.Namespace) -> int:
    steps = _check_length(args.nmax, "--nmax")
    count = _check_length(args.trajectories, "--trajectories")
    seed = _check_length(args.seed, "--seed", least=0)
    as_json = args.format == "json"
    with _destination(args.out) as write:
        K, label, source, _boundaries, _geometry = _resolve_model(args)
        if as_json:
            doc = {
                "schema_version": 1,
                "library_version": __version__,
                "label": label,
                "source": source,
                "seed": seed,
                "steps": steps,
                "trajectories": count,
                "rows": [],
            }
            # json escapes every newline inside a string, so the key's line is unique
            head, _, tail = _json_text(doc).partition(_EMPTY_ROWS_LINE)
            write(head + '\n  "rows": [\n')
        else:
            write(",".join(_SAMPLE_COLUMNS) + "\n")
        # blocks of _CHUNK_STRINGS streams bound the stack of M operators held
        # at once, and each slice is written as soon as it is rendered
        sep, joiner = "", ",\n" if as_json else ""
        for start in range(0, count, _CHUNK_STRINGS):
            for text in _sample_text(K, steps, seed, range(start, min(start + _CHUNK_STRINGS, count)), as_json):
                write(sep)
                write(text)
                sep = joiner
        if as_json:
            write("\n  ],\n" + tail)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    with _destination(args.out) as write:
        if args.kind == "haar":
            K = haar_kraus(int(args.dim), int(args.phys), int(args.seed))
            label = f"haar-D{args.dim}-d{args.phys}-seed{args.seed}"
        else:
            K = constructive_purity_family(int(args.dim), int(args.phys))
            label = f"constructive-D{args.dim}-d{args.phys}"
        write(_model_text(K, label=args.label or label))
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
    p.add_argument("--gamma", type=float, default=None, help="builtin parameter: damping strength")
    p.add_argument("--p", default=None, help="builtin parameter: markov rows, e.g. '0.8,0.2;0.3,0.7'")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed recorded in the report")
    p.add_argument("--out", default=None, help="write output here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage error exits 3, the code of bad input,
    where argparse's own exits 2, the guard's code.  Subparsers inherit the
    class; --help and --version still exit 0."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    pa.add_argument("--guard", type=int, default=DEFAULT_GUARD, help="max d^n strings per enumeration")
    pa.add_argument("--tol", type=float, default=1e-8, help="scalar-compression tolerance for the purity staircase")
    pa.add_argument("--ell", type=int, default=2, help="interaction range of the fitted local Hamiltonian")
    pa.add_argument(
        "--geometry",
        default="2,2,2",
        help="a,b,c window sites: a/c flank the block for classical CMI (a model file's geometry, "
        "with boundaries, sets them instead), a+b+c is the fit chain",
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
    except (MpsRestrictError, ValueError, KeyError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return getattr(exc, "exit_code", 3)


if __name__ == "__main__":
    raise SystemExit(main())

"""Outside-in span tracer for the benchmark's traced runs.

The tracer records spans from the benchmark's side of the program's public
functions: it wraps each traced function at every module attribute where a
consumer looks it up (``cli.window_distribution``, ``purity.w_series``,
``restriction.fixed_point``, ...), so calls made inside the package are seen
too.  Nothing in the package itself is edited.  Spans are kept in memory;
the caller writes them out when the run ends.

Layers are the package's modules.  A span is named ``<module>.<function>``
after the module that defines the function, whichever module the call went
through.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

PACKAGE = "mpsrestrict"
MODULES = ("cli", "restriction", "purity", "trajectories", "gibbs", "chain", "modelio")


def _d(args: inspect.BoundArguments) -> int:
    # the first argument is a RestrictionContext or a KrausFamily
    first = next(iter(args.arguments.values()))
    return int(first.kraus.d if hasattr(first, "kraus") else first.d)


def _length(value: Any) -> int:
    return int(value.total if hasattr(value, "total") else value)


def _at(length: str) -> Callable[[inspect.BoundArguments, Any], dict[str, int]]:
    """Counts for a call that enumerates the d^n strings of one length."""
    return lambda a, r: {"strings": _d(a) ** _length(a.arguments[length])}


def _upto(length: str) -> Callable[[inspect.BoundArguments, Any], dict[str, int]]:
    """Counts for a call that enumerates every length 1..n_max."""
    return lambda a, r: {
        "strings": sum(_d(a) ** k for k in range(1, _length(a.arguments[length]) + 1))
    }


def _table(length: str) -> Callable[[inspect.BoundArguments, Any], dict[str, int]]:
    """Counts for a call that returns a distribution table."""

    def count(a: inspect.BoundArguments, result: Any) -> dict[str, int]:
        table = np.asarray(result.table)
        return {
            "strings": _d(a) ** _length(a.arguments[length]),
            "nonzero": int(np.count_nonzero(table)),
            "entries": int(table.size),
        }

    return count


# Counters return the work a call requested, computed from its arguments
# (``strings``: Σ d^n over the enumerated lengths) and, for the two
# distribution tables, how many of the returned entries are nonzero.
_COUNTERS: dict[str, Callable[[inspect.BoundArguments, Any], dict[str, int]]] = {
    "restriction.window_distribution": _table("m"),
    "restriction.chain_distribution": _table("geometry"),
    "restriction.restriction_scan": _at("n"),
    "purity.span_purity_test": _upto("n_max"),
    "purity.correctable_subspace": _upto("n_max"),
    "purity.w_series": _upto("n_max"),
    "purity.f_series": _upto("n_max"),
    "trajectories.purification_statistic": _at("n"),
    "trajectories.mean_m_check": _at("n"),
}

# The functions whose layer metrics the benchmark reports, by defining module.
TRACED = (
    "restriction.window_distribution",
    "restriction.chain_distribution",
    "restriction.restriction_scan",
    "restriction.classical_cmi",
    "purity.purity_verdict",
    "purity.span_purity_test",
    "purity.correctable_subspace",
    "purity.w_series",
    "purity.f_series",
    "trajectories.sample_trajectory",
    "trajectories.purification_statistic",
    "trajectories.mean_m_check",
    "gibbs.local_hamiltonian",
    "gibbs.partition_function",
    "gibbs.cmi_decomposition_check",
    "chain.fixed_point",
    "modelio.load_model",
)
# The CLI verbs; time inside them that no traced call covers is ``cli.self_s``.
CLI_VERBS = ("cli.cmd_analyze", "cli.cmd_sample")
ENUMERATORS = tuple(name for name in TRACED if name in _COUNTERS)
TABLES = ("restriction.window_distribution", "restriction.chain_distribution")


@dataclass
class Span:
    name: str
    run_id: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Wraps the traced functions while installed; one tracer per execution."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
        ]
        for qualified in TRACED + CLI_VERBS:
            home, fn_name = qualified.split(".")
            original = getattr(importlib.import_module(f"{PACKAGE}.{home}"), fn_name)
            wrapper = self._wrap(qualified, original)
            for mod in modules:
                if getattr(mod, fn_name, None) is original:
                    setattr(mod, fn_name, wrapper)
                    self._patches.append((mod, fn_name, original))

    def remove(self) -> None:
        for mod, fn_name, original in reversed(self._patches):
            setattr(mod, fn_name, original)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = self._stack[-1] if self._stack else None
            span = Span(name=name, run_id=self.run_id, parent=parent, start=0.0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counter(bound, result)
            return result

        return wrapper


def layer_metrics(spans: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer metrics of one traced execution, from its spans.

    A span's self time is its duration minus the durations of its direct
    children; spans of one execution nest strictly (single thread).
    ``trace.covered_s`` sums all self times, which is the time the root
    spans cover.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    by_name: dict[str, list[tuple[float, float, dict[str, int]]]] = {}
    for s, children in zip(spans, child_time):
        duration = s["end"] - s["start"]
        by_name.setdefault(s["name"], []).append((duration, duration - children, s["counts"]))

    out: dict[str, float] = {}
    for name in TRACED:
        calls = by_name.get(name, [])
        out[f"{name}.calls"] = len(calls)
        out[f"{name}.busy_s"] = sum(c[0] for c in calls)
        out[f"{name}.self_s"] = sum(c[1] for c in calls)
        if name in ENUMERATORS:
            strings = [c[2]["strings"] for c in calls]
            out[f"{name}.strings"] = sum(strings)
        if name in TABLES:
            entries = sum(c[2]["entries"] for c in calls)
            out[f"{name}.nonzero_frac"] = (
                sum(c[2]["nonzero"] for c in calls) / entries if entries else 0.0
            )
            out[f"{name}.repeat_ratio"] = sum(strings) / max(strings) if strings else 0.0
    out["cli.self_s"] = sum(c[1] for name in CLI_VERBS for c in by_name.get(name, []))
    out["trace.covered_s"] = sum(c[1] for calls in by_name.values() for c in calls)
    return out

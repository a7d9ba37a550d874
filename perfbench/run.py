"""The mpsrestrict benchmark: one command, four workloads, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload analyze-aklt --seed 1 --seconds 15 --trace 0

Each execution of a workload runs in a fresh worker process (worker.py)
that imports the package from ``src/``, sets up, reports ``ready`` and then
executes once, single-threaded.  A run starts executions one after another
until ``--seconds`` have passed, then tops up set-up-only workers until it
has enough set-up samples, and reports medians:

* ``wall_s``: wall time of one execution, in-process, tracing off;
* ``setup_s``: time from spawning a worker to its ``ready`` (interpreter
  start, imports, model resolution, ``fixed_point``/context construction);
* ``peak_rss_mb``: peak resident memory of a worker that ran one execution.

Both times are reported at a reference machine speed, measured by the
worker's calibration kernel next to and during each execution
(``reference_time``); the raw times are printed and kept as well.

Every output is checked: against the stored reference at the default seed
(numbers at 1e-10, statuses, ranks and sampled outcomes exactly) and, at
every seed, against the paper's identities.  The error rate is failed over
attempted operations (a CLI invocation or a library call); it is printed
and carried by the result's ``attempted`` and ``failed`` fields.

With ``--trace 1`` the run alternates untraced and traced executions and
reports per-layer metrics from the traced ones (see tracer.py), the tracing
overhead, and whether traced outputs equal untraced outputs.

The last line of stdout is the result JSON.  Spans, samples and the
machine record are written to ``perfbench/work/results/`` when the run ends.
``--capture`` writes the reference for the given seed instead of measuring.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 1
SETUP_SAMPLES = 7
# Times are reported at the speed at which one iteration of the worker's
# calibration kernel takes this long, so that the machine's speed, which
# drifts with its other tenants' load, cancels out (see README.md).
REFERENCE_ITERATION_S = 12.5e-6
READY_TIMEOUT_S = 60.0
EXECUTION_TIMEOUT_S = 100.0
RUN_LIMIT_S = 150.0  # start no execution after this; the run must end within 180 s


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # Bytecode is cached, as after an install, but inside the work area.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


def run_worker(
    workload: str, seed: int, inputs: Path, out: Path, command: str, env: dict[str, str]
) -> tuple[float, dict[str, Any]]:
    """Start a worker, time its set-up, send one command; returns (setup_s, record)."""
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(inputs), str(out)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise WorkerFailed(f"worker did not become ready: {line.strip()!r}")
        stdout, stderr = proc.communicate(command + "\n", timeout=EXECUTION_TIMEOUT_S)
        if proc.returncode != 0:
            raise WorkerFailed(f"worker exited {proc.returncode}: {stderr.strip()[-400:]}")
        return setup_s, json.loads(stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out: {exc}") from exc
    except (IndexError, json.JSONDecodeError) as exc:
        raise WorkerFailed(f"worker printed no record: {stderr.strip()[-400:]}") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()


def machine_record(seed: int) -> dict[str, Any]:
    import numpy as np

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps[k].get("name") + " " + str(deps[k].get("version")) for k in ("blas", "lapack")}
    except (TypeError, KeyError, AttributeError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "commit": commit,
        "seed": seed,
    }


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_reference(workload: str, seed: int) -> dict[str, Any] | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    ref = json.loads(path.read_text(encoding="utf-8"))
    return ref["outputs"] if ref["seed"] == seed else None


def parse_args(argv: list[str] | None, names: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--capture", action="store_true", help="write the reference for this seed")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "mpsrestrict" / "__init__.py").is_file():
        sys.stderr.write(f"error: no package at {ROOT / 'src' / 'mpsrestrict'}; run from a checkout\n")
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import tracer
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload]
    inputs = WORK / "inputs" / f"seed{args.seed}"
    outputs = WORK / "out"
    results = WORK / "results"
    for d in (outputs, results):
        d.mkdir(parents=True, exist_ok=True)
    workloads.make_inputs(args.seed, inputs)
    env = worker_env()
    reference = None if args.capture else load_reference(args.workload, args.seed)

    setups: list[tuple[float, float]] = []  # (set-up time, calibration time)
    execs: list[dict[str, Any]] = []
    worker_errors: list[str] = []
    try:  # warm the bytecode and file caches; not a sample
        run_worker(args.workload, args.seed, inputs, outputs / "warm.json", "exit", env)
    except WorkerFailed as exc:
        worker_errors.append(str(exc))
    verdicts: dict[str, dict[str, list[str]]] = {}
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    i = 0
    while True:
        traced = args.trace == 1 and i % 2 == 1
        out = outputs / f"{args.workload}-{i}.json"
        command = f"trace {i}" if traced else "run"
        attempted += wl.ops
        try:
            setup_s, rec = run_worker(args.workload, args.seed, inputs, out, command, env)
        except WorkerFailed as exc:
            worker_errors.append(str(exc))
            failed += wl.ops
        else:
            setups.append((setup_s, rec["cal"][0]))
            rec["traced"] = traced
            if rec["digest"] not in verdicts:
                verdicts[rec["digest"]] = workloads.check_output(wl, rec["ops"], out, inputs, reference)
                if args.capture:
                    break
            bad = verdicts[rec["digest"]]
            failed += sum(1 for o in rec["ops"] if o["error"] is not None or o["op"] in bad)
            execs.append(rec)
        finally:
            if not args.capture:
                out.unlink(missing_ok=True)
        i += 1
        now = time.perf_counter()
        enough = now >= deadline and (args.trace == 0 or i >= 2)
        if enough or now - started > RUN_LIMIT_S or (worker_errors and not execs):
            break

    if args.capture:
        return capture(wl, args, out, verdicts, worker_errors)

    while len(setups) < SETUP_SAMPLES and time.perf_counter() - started < RUN_LIMIT_S:
        try:
            setup_s, rec = run_worker(args.workload, args.seed, inputs, outputs / "setup.json", "exit", env)
            setups.append((setup_s, rec["cal"][0]))
        except WorkerFailed as exc:
            worker_errors.append(str(exc))
            break

    plain = [e for e in execs if not e["traced"]]
    traced_execs = [e for e in execs if e["traced"]]
    traced_equal = len({e["digest"] for e in execs}) <= 1
    correct = bool(plain) and failed == 0 and not worker_errors and traced_equal
    if args.trace == 1:
        correct = correct and bool(traced_execs)

    samples = {
        "wall_s": [reference_time(e["wall_s"], speeds(e)) for e in plain],
        "setup_s": [reference_time(t, [cal]) for t, cal in setups],
        "peak_rss_mb": [e["peak_rss_kib"] / 1024.0 for e in plain],
        "wall_raw_s": [e["wall_s"] for e in plain],
        "setup_raw_s": [t for t, _ in setups],
        "kernel_iteration_s": [c for e in execs for c in speeds(e)] + [cal for _, cal in setups],
    }
    units = {"peak_rss_mb": "MiB"}
    if args.trace == 0:
        metrics = {
            k: {"value": median(samples[k]), "unit": units.get(k, "s")}
            for k in ("wall_s", "setup_s", "peak_rss_mb")
            if samples[k]
        }
    else:
        metrics = layer_report(tracer, traced_execs, plain)

    machine = machine_record(args.seed)
    failures = {d: v for d, v in verdicts.items() if v}
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "reference_iteration_s": REFERENCE_ITERATION_S,
        "machine": machine,
        "samples": samples,
        "metrics": metrics,
        "traced_outputs_equal_untraced": traced_equal,
        "failures": failures,
        "worker_errors": worker_errors,
        "executions": [{k: v for k, v in e.items() if k != "spans"} for e in execs],
        "spans": [s for e in traced_execs for s in e["spans"]],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("machine " + json.dumps(machine, sort_keys=True))
    for key, vals in samples.items():
        if vals:
            q1, q3 = quartiles(vals)
            print(
                f"{key} {median(vals):.6g} {units.get(key, 's')} "
                f"(median of {len(vals)}; quartiles {q1:.6g}..{q3:.6g})"
            )
    rate = failed / attempted if attempted else 0.0
    print(f"error_rate {rate:.6g} ratio ({failed} failed of {attempted} operations)")
    if args.trace == 1:
        print(f"traced outputs equal untraced: {traced_equal}")
        for key, m in metrics.items():
            print(f"{key} {m['value']:.6g} {m['unit']}")
    for reasons in failures.values():
        for op, why in reasons.items():
            print(f"FAILED {op}: {'; '.join(why)[:500]}")
    for err in worker_errors:
        print(f"FAILED worker: {err[:500]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def reference_time(seconds: float, speeds: list[float]) -> float:
    """A time at the reference speed, from the kernel times measured with it.

    The work done in an interval is its length over the kernel's time per
    iteration, so the mean of the inverse kernel times rescales the whole.
    """
    return seconds * REFERENCE_ITERATION_S * statistics.fmean(1.0 / s for s in speeds)


def speeds(e: dict[str, Any]) -> list[float]:
    return e["cal"] + e["probes"]


def layer_report(tracer: Any, traced: list[dict], plain: list[dict]) -> dict[str, dict[str, Any]]:
    """Medians over the traced executions of the per-layer metrics.

    Times are at the reference speed, each scaled by its own execution's
    kernel times, as ``wall_s`` is.
    """
    if not traced:
        return {}
    per_exec = []
    for e in traced:
        scale = reference_time(1.0, speeds(e))
        m = tracer.layer_metrics(e["spans"])
        m = {k: v * scale if k.endswith("_s") else v for k, v in m.items()}
        m["process.cpu_s"] = e["cpu_s"] * scale
        # share of the traced wall time that the spans' self times account for
        m["trace.coverage"] = m.pop("trace.covered_s") / (e["elapsed_s"] * scale)
        per_exec.append(m)
    values = {k: median([m[k] for m in per_exec]) for k in per_exec[0]}
    uses_cli = any(s["name"] in tracer.CLI_VERBS for s in traced[0]["spans"])
    values["cli.output_bytes"] = traced[0]["output_bytes"] if uses_cli else 0
    traced_wall = median([reference_time(e["wall_s"], speeds(e)) for e in traced])
    plain_wall = [reference_time(e["wall_s"], speeds(e)) for e in plain]
    values["trace.overhead_s"] = traced_wall - median(plain_wall) if plain else 0.0
    values["machine.kernel_iteration_s"] = median([c for e in traced + plain for c in speeds(e)])

    def unit(key: str) -> str:
        if key.endswith("_s"):
            return "s"
        if key.endswith((".nonzero_frac", ".repeat_ratio", ".coverage")):
            return "ratio"
        return "bytes" if key.endswith("_bytes") else "count"

    return {k: {"value": v, "unit": unit(k)} for k, v in values.items()}


def capture(wl: Any, args: argparse.Namespace, out: Path, verdicts: dict, errors: list[str]) -> int:
    bad = [r for v in verdicts.values() for r in v.values()]
    if errors or bad or not out.is_file():
        sys.stderr.write(f"error: not capturing a failing output: {errors or bad}\n")
        out.unlink(missing_ok=True)
        return 1
    summary = wl.summary(json.loads(out.read_text(encoding="utf-8")))
    out.unlink()
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{args.workload}.json"
    path.write_text(json.dumps({"seed": args.seed, "outputs": summary}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""One benchmark execution in a fresh process.

Usage (started by run.py, never by hand):

    python3 perfbench/worker.py <workload> <seed> <inputs dir> <output file>

The worker imports the package, runs the workload's set-up, prints ``ready``
and waits for one command on stdin:

* ``exit``: end without executing (a set-up-only sample);
* ``run``: one execution with tracing off;
* ``trace <run id>``: one execution with the outside-in tracer installed.

It times a calibration kernel right after set-up and, when it executes,
during the execution (SpeedProbe) and after it.  It then prints one JSON
line: the calibration times and, after an execution, the execution's wall
and CPU time without the probes, the process's peak resident memory,
per-operation errors, the output's digest and size, and the spans when
traced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

import numpy as np

# Bound before the package is imported, so nothing it does can change them.
_eigvalsh = np.linalg.eigvalsh
_CAL_OPS = np.array([[[0.6, 0.0], [0.0, -0.6]], [[0.0, 0.0], [0.8, 0.0]]], dtype=complex)


def _kernel(iterations: int) -> float:
    """Seconds per iteration of a fixed kernel shaped like the workloads.

    Tiny complex matmuls and eigvalsh calls driven from Python: the same mix
    of interpreter and numpy-dispatch work that dominates every workload, so
    it slows down by the same factor when the machine does.
    """
    t = time.perf_counter()
    P = np.eye(2, dtype=complex)
    for i in range(iterations):
        P = _CAL_OPS[i & 1] @ P + 0.1
        _eigvalsh(P @ P.conj().T)
    return (time.perf_counter() - t) / iterations


def calibrate(reps: int = 3) -> float:
    return sorted(_kernel(4000) for _ in range(reps))[reps // 2]


class SpeedProbe:
    """Runs a short kernel every PROBE_PERIOD_S while an execution runs.

    The machine's speed drifts within a single execution, so calibrating
    only before and after it is not enough.  The handler runs between
    bytecodes of the main thread; the time it takes is recorded so it can be
    taken out of the execution's wall time.
    """

    PERIOD_S = 0.2
    ITERATIONS = 200

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _on_alarm(self, signum: int, frame: object) -> None:
        t = time.perf_counter()
        self.samples.append(_kernel(self.ITERATIONS))
        self.busy_s += time.perf_counter() - t

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main(argv: list[str]) -> int:
    name, seed, inputs, out = argv[0], int(argv[1]), Path(argv[2]), Path(argv[3])

    import mpsrestrict
    import tracer
    import workloads

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(mpsrestrict.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"error: imported {mpsrestrict.__file__}, not the package under {src}\n")
        return 3
    wl = workloads.WORKLOADS[name]
    state = wl.setup(inputs, seed)
    print("ready", flush=True)

    command = sys.stdin.readline().split()
    cal_before = calibrate()
    if not command or command[0] == "exit":
        print(json.dumps({"cal": [cal_before]}), flush=True)
        return 0
    out.unlink(missing_ok=True)
    trace = tracer.Tracer(run_id=command[1]) if command[0] == "trace" else None
    if trace is not None:
        trace.install()
    cpu0, t0 = time.process_time(), time.perf_counter()
    with SpeedProbe() as probe:
        ops = wl.execute(state, out)
    t1, cpu1 = time.perf_counter(), time.process_time()
    if trace is not None:
        trace.remove()
    cal_after = calibrate()

    data = out.read_bytes() if out.is_file() else b""
    record = {
        "elapsed_s": t1 - t0,
        "wall_s": t1 - t0 - probe.busy_s,
        "cpu_s": cpu1 - cpu0 - probe.busy_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
        "digest": hashlib.sha256(data).hexdigest() if data else None,
        "output_bytes": len(data),
        "cal": [cal_before, cal_after],
        "probes": probe.samples,
        "spans": [dataclasses.asdict(s) for s in trace.spans] if trace is not None else None,
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

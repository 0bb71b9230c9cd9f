"""One benchmark process: generate inputs, set up, or set up and run timed ops.

Started by run.py, one process at a time; writes its result as JSON to --out.

    worker.py gen     --workload W --seed N --work DIR --out FILE
    worker.py setup   ... --t0 T
    worker.py measure ... --t0 T (--seconds S | --cycles N) [--trace SPANS_FILE]

`setup` imports coopaug, loads the workload's inputs and runs one untimed
warm-up op; setup_s is measured from --t0, the wall-clock time at which
run.py started this process. `measure` then runs ops in a closed loop with
one client: whole cycles of the schedule until S seconds of op time are
measured, or exactly N cycles.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import coopaug  # noqa: E402
import numpy  # noqa: E402

if Path(coopaug.__file__).resolve().parent != ROOT / "src" / "coopaug":
    sys.exit(f"coopaug imported from {coopaug.__file__}, not from this checkout")

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_REPORTED_FAILURES = 5


def environment(seed: int) -> dict:
    """The stamp printed with every result: versions, CPU and which kernel backend ran."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "numba_enabled": coopaug.NUMBA_ENABLED,
            "backend": "numba" if coopaug.NUMBA_ENABLED else "numpy", "seed": seed}


def attempt(wl, op, tracer=None):
    """Prepare, time, check and clean up one op; returns (seconds, points, digest, error)."""
    elapsed = 0.0
    try:
        wl.prepare(op)
        with tracer.op(op["k"]) if tracer else nullcontext():
            start = time.perf_counter()
            try:
                result = wl.run(op)
            finally:
                elapsed = time.perf_counter() - start
        points, data = wl.check(op, result)
        return elapsed, points, hashlib.sha256(data).hexdigest(), None
    except Exception:  # a failed op is counted, and the run goes on
        return elapsed, 0, "failed", traceback.format_exc()
    finally:
        wl.cleanup(op)


def setup(wl, t0):
    wl.setup()
    _, _, digest, error = attempt(wl, wl.op(-1))
    return {"setup_s": time.time() - t0, "warmup_digest": digest, "warmup_error": error}


def measure(wl, seconds, cycles, deadline, tracer):
    cycle = wl.cycle_length()
    result = {"latencies": [], "points": [], "digests": [], "failures": [],
              "truncated": False, "cycle": cycle}
    n_ops = None if cycles is None else cycles * cycle
    measured = 0.0
    k = 0
    while True:
        if n_ops is not None and k >= n_ops:
            break
        if n_ops is None and k > 0 and k % cycle == 0 and measured >= seconds:
            break
        if time.time() > deadline:
            result["truncated"] = True
            break
        elapsed, points, digest, error = attempt(wl, wl.op(k), tracer)
        measured += elapsed
        result["latencies"].append(elapsed)
        result["points"].append(points)
        result["digests"].append(digest)
        if error is not None:
            result["failures"].append(k)
            if len(result["failures"]) <= MAX_REPORTED_FAILURES:
                print(f"op {k} failed:\n{error}", file=sys.stderr)
        k += 1
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("gen", "setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--cycles", type=int, default=None)
    parser.add_argument("--deadline", type=float, default=float("inf"))
    parser.add_argument("--trace", default=None, help="write the spans to this file")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, Path(args.work), args.smoke)
    if args.mode == "gen":
        wl.generate()
        result = {}
    else:
        result = setup(wl, args.t0)
    if args.mode == "measure":
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        result.update(measure(wl, args.seconds, args.cycles, args.deadline, tracer))
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["env"] = environment(args.seed)
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            tracer.write(args.trace)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

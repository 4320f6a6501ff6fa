#!/usr/bin/env python3
"""Benchmark for proxigraph.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from ./src.
One process runs one workload: it sets up (imports, inputs from the seed,
shared spaces, warm-up) several times, then runs whole rounds of the same
operations until --seconds have passed, checking every output against an
independent oracle between operations, outside the timed intervals.  An
operation that raises is counted in `failed`; unless it is one of the
workload's named fault operations raising its known error, the run is not
`correct`.  The
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  `--workload all` runs every workload, each in its own fresh
process.

BLAS and OpenMP are pinned to one thread before numpy loads: with the
default thread pool, dense kernel solves on a 2-core machine range from 52
to 711 ms for the same call, against 71 to 81 ms with one thread.
"""
import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import ctypes  # noqa: E402

# Fix glibc's mmap threshold at 4 MiB and its trim threshold at 8 MiB.  Left
# dynamic, the mmap threshold rises to the size of the largest array freed so
# far (up to 32 MiB), so whether the pbvp kernels (up to 32 MiB each) come back
# from a fragmented heap depends on the order of operations, and peak RSS
# varied by 15% between seeds.  Arrays up to 4 MiB (n x n float64 up to
# n = 724, all graph work) stay on the heap as the dynamic policy would put
# them; a 128 KiB threshold instead doubled the set-up time of orbit_scale.
try:
    _libc = ctypes.CDLL(None)
    _libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    _libc.mallopt.restype = ctypes.c_int
    MALLOPT = bool(_libc.mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
                   and _libc.mallopt(-1, 8 << 20))  # M_TRIM_THRESHOLD
except (OSError, AttributeError):
    MALLOPT = False

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
MIN_OPS = 100  # the 90th percentile needs ten samples beyond it


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["battery", "verify_table", "orbit_scale", "pbvp", "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import proxigraph from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "proxigraph" / "__init__.py").is_file():
        sys.exit(f"error: no proxigraph sources under {src}")
    sys.path.insert(0, str(src))
    import proxigraph
    if Path(proxigraph.__file__).resolve().parent != (src / "proxigraph").resolve():
        sys.exit(f"error: proxigraph was imported from {proxigraph.__file__}")


def machine_info() -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (KeyError, TypeError):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": {v: os.environ[v] for v in THREAD_VARS},
            "mmap_threshold_fixed": MALLOPT}


IMPORT_PROBE = ("import time; t0 = time.perf_counter() - time.process_time(); import sys; "
                "sys.path[:0] = sys.argv[1:]; import tracing, workloads; "
                "print(time.perf_counter() - t0)")


def import_seconds() -> float:
    """Interpreter start to the benchmark's imports (numpy, proxigraph, the
    benchmark modules) done, in a fresh process."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


KNOWN_FAULT = "known fault"


def attempt(run, known_fault, op):
    """Runs one operation: (seconds, output, failure).  failure is None on
    success, KNOWN_FAULT when the operation raised the error it is known to
    raise, and otherwise the traceback of the exception."""
    t0 = time.perf_counter()
    try:
        out = run(op)
    except Exception as exc:  # a failed operation is counted, not fatal
        seconds = time.perf_counter() - t0
        return seconds, None, KNOWN_FAULT if known_fault(op, exc) else traceback.format_exc(limit=3)
    return time.perf_counter() - t0, out, None


def injected_failures_passed(ops, known_fault) -> list[str]:
    """Makes every operation of a round raise an exception none is known to
    raise; returns those where it was not counted as unexpected."""
    def fail(op):
        raise RuntimeError("injected failure")
    passed = []
    for op in ops:
        failure = attempt(fail, known_fault, op)[2]
        if failure in (None, KNOWN_FAULT):
            passed.append(f"an injected RuntimeError on {op} passed as {failure or 'a success'}")
    return passed


def run_all(args) -> int:
    """Every workload in a fresh process; prints each result, then a combined one."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("battery", "verify_table", "orbit_scale", "pbvp"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        print(name, json.dumps(result))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def run_workload(args) -> int:
    import_program()
    import numpy as np
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer(extra_modules=[workloads]) if args.trace else None
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    seed = args.seed % 2**32  # numpy seeds are non-negative
    try:
        # input files the benchmark writes with its own generator are not the
        # program's set-up, so they are written once, before set-up is timed
        getattr(workload, "prepare", lambda seed, workdir: None)(seed, str(workdir))
        if tracer:
            tracer.install()
        # the imports are timed in fresh interpreters, so that they too are a
        # median of several set-ups
        imports = [] if tracer else [import_seconds() for _ in range(SETUP_REPEATS)]
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup(seed, str(workdir))
            setup_times.append(time.perf_counter() - t0)

        round_size = len(workload.ops)
        # traced runs cycle through plain, span and count rounds
        kinds = ("plain", "spans", "counts") if tracer else ("plain",)
        min_rounds = max(math.ceil(MIN_OPS / round_size), len(kinds))
        known_fault = getattr(workload, "is_known_fault", lambda op, exc: False)
        op_times, errors, unexpected = [], [], []
        attempted = failed = 0
        rounds = []  # (kind, seconds spent in operations and loop)
        start = time.perf_counter()
        check_time = 0.0
        while True:
            kind = kinds[len(rounds) % len(kinds)]
            if tracer:
                tracer.uninstall()
                tracer.phase = kinds.index(kind)
                if kind != "plain":
                    tracer.install(counts=kind == "counts")
            r0 = time.perf_counter()
            r_check = 0.0
            for op in workload.ops:
                seconds, out, failure = attempt(workload.run, known_fault, op)
                attempted += 1
                if failure:
                    failed += 1
                    if failure != KNOWN_FAULT:
                        unexpected.append(f"{op}: {failure}")
                    continue
                op_times.append(seconds)
                t1 = time.perf_counter()
                errors += [f"{op}: {e}" for e in workload.check(op, out)]
                r_check += time.perf_counter() - t1
            rounds.append((kind, time.perf_counter() - r0 - r_check))
            check_time += r_check
            if len(rounds) >= min_rounds and time.perf_counter() - start >= args.seconds:
                break
        timed_wall = time.perf_counter() - start - check_time
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
        missed = workload.self_test() + injected_failures_passed(workload.ops, known_fault)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in (errors[:5] + unexpected[:5]):
        sys.stderr.write(f"{args.workload}: {msg}\n")
    for name in missed:
        sys.stderr.write(f"{args.workload}: self-test accepted a wrong output: {name}\n")
    # the only failures allowed are the workload's named fault operations,
    # each raising the error it is known to raise
    correct = not errors and not missed and not unexpected and bool(op_times)

    def mean_round(kind):
        return statistics.mean(t for k, t in rounds if k == kind)

    if tracer:
        metrics = tracer.layer_metrics(
            [SETUP_REPEATS] + [sum(k == kind for k, _ in rounds) for kind in kinds[1:]])
        metrics["trace.overhead_pct"] = 100.0 * (mean_round("spans") / mean_round("plain") - 1)
        units = tracing.PER_LAYER
    else:
        ms = np.array(op_times or [0.0]) * 1e3  # no completed operation: correct is false
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setup_times),
            "ops_per_s": (attempted - failed) / timed_wall,
            "op_ms_p50": float(np.percentile(ms, 50)),
            "op_ms_p90": float(np.percentile(ms, 90)),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                 "op_ms_p90": "ms", "peak_rss_mb": "MiB"}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "round_size": round_size,
            "round_s": {kind: [t for k, t in rounds if k == kind] for kind in kinds},
            "setup_repeats_s": setup_times, "import_repeats_s": imports,
            "oracle_errors": len(errors), "unexpected_failures": len(unexpected),
            "oracle_self_test_missed": missed, "machine": machine_info()}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        info["spans"] = tracer.save(str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"))
    with open(OUT_DIR / f"result-{stem}.json", "w") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

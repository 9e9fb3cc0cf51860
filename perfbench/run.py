"""crossimpact benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src``.
With ``--trace 0`` it reports the end-to-end metrics of untraced runs;
with ``--trace 1`` it runs each config once untraced and once
traced, and reports the per-layer metrics. The last line of standard
output is the result object; the lines before it are a readable table
and the run environment. Spans of a traced run are written to
``.bench_work/trace-<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import subprocess
import sys
import time
from statistics import fmean as mean, median

# BLAS and OpenMP pools pinned to one thread, before numpy is imported
THREAD_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
IMPORT_SAMPLES = 3
PREPARE_SAMPLES = 3
MODULES = ("cli", "hawkes", "observables", "polymat", "kernels",
           "arbitrage", "synthetic")
IO_GROUPS = ("factor", "k1", "k2", "observables", "top")
# Two fixed probes, timed just before and just after every operation,
# gauge the host's speed at that moment: a pure-Python loop for user-space
# CPU work and the creation of small files for kernel file-system work.
# The nominal times are their usual ones on the 2-vCPU Xeon VM the
# benchmark was tuned on.
CPU_PROBE_LOOP = 200_000
CPU_PROBE_NOMINAL_S = 0.016
FS_PROBE_FILES = 200
FS_PROBE_NOMINAL_S = 0.01


def fresh_import_seconds(src):
    """Seconds for ``import crossimpact`` in a new interpreter."""
    code = ("import time; t = time.perf_counter(); import crossimpact; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout.split()[-1])


def artifact_counts(out):
    """Files and bytes per top-level output subdirectory ("top" = loose)."""
    counts = {g: [0, 0] for g in IO_GROUPS}
    for path in out.rglob("*"):
        if path.is_file():
            rel = path.relative_to(out).parts
            group = rel[0] if len(rel) > 1 else "top"
            entry = counts.setdefault(group, [0, 0])
            entry[0] += 1
            entry[1] += path.stat().st_size
    return counts


def filesystem_type(path):
    try:
        done = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                              capture_output=True, text=True, timeout=30)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def probe_host(scratch):
    """Seconds of the CPU probe and of the file-system probe, right now."""
    start = time.perf_counter()
    total = 0
    for i in range(CPU_PROBE_LOOP):
        total += i * i
    cpu_s = time.perf_counter() - start
    scratch.mkdir(parents=True)
    start = time.perf_counter()
    for i in range(FS_PROBE_FILES):
        (scratch / f"p_{i}.csv").write_text("0.125,2.5\n-1.75,3\n")
    return cpu_s, time.perf_counter() - start


def normalized_seconds(elapsed, user, system, probes):
    """The operation's time at the probes' nominal speeds.

    The host's speed drifts by up to 2x for tens of seconds at a time, and
    its file-system speed by far more, independently of its CPU speed.
    User time is scaled by the CPU probe. System time and the time off the
    CPU (the kernel's file-system threads taking the CPU, I/O waits) are
    scaled by the file-system probe, whose own wall time holds both. No
    change to the program moves the probes.
    """
    cpu_s = mean(p[0] for p in probes)
    fs_s = mean(p[1] for p in probes)
    kernel = max(system, elapsed - user)
    return (user * CPU_PROBE_NOMINAL_S / cpu_s
            + kernel * FS_PROBE_NOMINAL_S / fs_s)


def run_one(wl, key, out, tracer=None):
    """Run one operation in a new output directory and check it."""
    probes = [probe_host(out.with_name(out.name + "-probe0"))]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    try:
        if tracer is None:
            results, error = wl.run_op(key, out), None
        else:
            with tracer:
                results, error = wl.run_op(key, out), None
    except Exception as exc:  # a crashing operation is a failed operation
        results, error = [], exc
    elapsed = time.perf_counter() - start
    used = resource.getrusage(resource.RUSAGE_SELF)
    probes.append(probe_host(out.with_name(out.name + "-probe1")))
    user = used.ru_utime - usage.ru_utime
    system = used.ru_stime - usage.ru_stime
    try:
        if error is not None:
            raise error
        failures, accuracy = wl.check_op(key, out, results)
        attempted = len(results)
    except Exception as exc:  # noqa: BLE001  (counted, not raised)
        failures, accuracy, attempted = [f"{type(exc).__name__}: {exc}"], \
            {}, 1
    for failure in failures:
        print(f"check failed ({wl.__class__.__name__} key {key}): {failure}",
              file=sys.stderr)
    return {"seconds": elapsed,
            "normalized": normalized_seconds(elapsed, user, system, probes),
            "user": user, "system": system, "probes": probes,
            "attempted": attempted,
            "failed": min(len(failures), attempted), "accuracy": accuracy,
            "io": artifact_counts(out) if out.exists() else {}}


def end_to_end(ops, setup_s):
    by_key = {}
    for key, op in ops:
        by_key.setdefault(key, []).append(op)
    # artifacts are deterministic per key: the first repeat stands for all
    files = mean(sum(v[0] for v in runs[0]["io"].values())
                 for runs in by_key.values())
    size = mean(sum(v[1] for v in runs[0]["io"].values())
                for runs in by_key.values())
    # Every config weighs the same, however many repeats fit in the run.
    wall = mean(median([op["seconds"] for op in runs])
                for runs in by_key.values())
    norm = mean(median([op["normalized"] for op in runs])
                for runs in by_key.values())
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "wall_norm_s": (norm, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "artifact_mb": (size / 1e6, "MB"),
        "artifact_files": (files, "count"),
    }


def per_layer(plain, traced, summary):
    n = len(traced)
    out = {f"{module}.{what}": 0.0 for module in MODULES
           for what in ("calls", "self_s")}
    out.update((name, value / n) for name, value in summary.items())
    sim_s = summary.get("hawkes.simulate.s", 0.0)
    out["hawkes.events_per_s"] = \
        summary.get("hawkes.events", 0.0) / sim_s if sim_s else 0.0
    for group in IO_GROUPS:
        out[f"io.{group}.files"] = mean(op["io"].get(group, [0, 0])[0]
                                        for op in traced)
        out[f"io.{group}.bytes"] = mean(op["io"].get(group, [0, 0])[1]
                                        for op in traced)
    for name in ("k1_tail_error", "k2_clip_distance"):
        out[f"accuracy.{name}"] = mean(op["accuracy"].get(name, 0.0)
                                       for op in traced)
    out["trace.overhead_s"] = (mean(op["seconds"] for op in traced)
                               - mean(op["seconds"] for op in plain))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("demo", "tape", "desk"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "crossimpact" / "__init__.py").is_file():
        print(f"error: no src/crossimpact under {root}; run from the "
              "repository root", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # Each run writes under its own directory and deletes it only after
    # the result is printed, so no deletion precedes a timing in the run.
    bench_work = root / ".bench_work"
    work = bench_work / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)    # left by an aborted run
    os.environ.update(THREAD_PIN)
    sys.path.insert(0, str(src))

    start = time.perf_counter()
    import crossimpact  # noqa: F401  (first, fresh import in this process)
    import_s = [time.perf_counter() - start]
    import_s += [fresh_import_seconds(src)
                 for _ in range(IMPORT_SAMPLES - 1)]
    import numpy
    import scipy
    import tracer as tracing
    import workloads

    work.mkdir(parents=True)
    wl = workloads.WORKLOADS[args.workload](work, args.seed)
    prepare_s = []
    for _ in range(PREPARE_SAMPLES):
        start = time.perf_counter()
        wl.prepare()
        prepare_s.append(time.perf_counter() - start)
    setup_s = median(import_s) + median(prepare_s)

    out = work / "out"
    ops = []
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced = [], []
        for key in dict.fromkeys(wl.cycle):
            plain.append(run_one(wl, key, out / f"plain_{key}"))
            traced.append(run_one(wl, key, out / f"traced_{key}", tracer))
        ops = [(None, op) for op in plain + traced]
        values = per_layer(plain, traced, tracer.summary())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: (values.get(name, 0.0), unit)
                   for name, unit in units.items()}
        record = dict(tracer.dump(), workload=args.workload, seed=args.seed,
                      layers=values)
    else:
        begin = time.perf_counter()
        cycles = 0
        while cycles < wl.min_cycles or \
                time.perf_counter() - begin < args.seconds:
            for key in wl.cycle:
                ops.append((key, run_one(wl, key, out / f"op_{len(ops)}")))
            cycles += 1
        values = end_to_end(ops, setup_s)
        metrics = {m["name"]: values[m["name"]] for m in spec["end_to_end"]}

    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "blas_threads": THREAD_PIN["OPENBLAS_NUM_THREADS"],
           "output_fs": filesystem_type(work), "ops": len(ops),
           "import_s": import_s, "prepare_s": prepare_s,
           "op_s": [round(op["seconds"], 4) for _, op in ops],
           "norm_s": [round(op["normalized"], 4) for _, op in ops],
           "user_sys_s": [(round(op["user"], 3), round(op["system"], 3))
                          for _, op in ops],
           "probe_s": [[(round(c, 5), round(f, 5)) for c, f in op["probes"]]
                       for _, op in ops]}
    if args.trace:
        (bench_work / f"trace-{args.workload}-{args.seed}.json").write_text(
            json.dumps(dict(record, env=env)))
    attempted = sum(op["attempted"] for _, op in ops)
    failed = sum(op["failed"] for _, op in ops)
    # the table also shows the raw wall_s, which the result line omits
    for name, (value, unit) in (metrics if args.trace else values).items():
        print(f"{args.workload:5s} {name:34s} {value:14.6g} {unit}")
    if not args.trace:
        # the accuracy figures checked on every operation, for reading
        for name in sorted({n for _, op in ops for n in op["accuracy"]}):
            value = mean(op["accuracy"][name] for _, op in ops
                         if name in op["accuracy"])
            print(f"{args.workload:5s} accuracy.{name:25s} {value:14.6g} 1")
    print(f"{args.workload:5s} attempted {attempted} failed {failed}")
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    sys.stdout.flush()
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

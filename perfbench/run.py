"""Stage-timed benchmark of the fairsmooth pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_pipeline --seed 0 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another in this
process; the process peak and the import time are not any one workload's,
so ``peak_rss_mb`` and ``setup_s`` are reported for the first workload only
and per-workload figures come from single runs.  With ``--trace 0`` the ops
run untraced and the report holds every end-to-end metric; with
``--trace 1`` the first half of the time runs untraced and the second half
with spans around every layer, and the report holds the per-layer metrics
and the tracing overhead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics named in BENCHMARK.json.  ``failed`` counts the
ops with a failure outside the known-failure ledger (see ``ledger``), so it
is 0 while ``correct`` is true; known failures within their recorded levels
are counted in ``failed_frac`` and listed in the report.  The full record
(environment, failure ledger, op times and spans) is written to
``.perfbench_out/`` in the checkout.

The program is imported from ``src/`` of the checkout and nowhere else; the
benchmark exits with code 2 when it is missing.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def _parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def _cap_blas_threads():
    """Pin BLAS to one thread before numpy loads.

    On a 2-core box shared with other processes, a 2-thread OpenBLAS pool
    that loses a core stalls: a cli_pipeline pass went from 6 s to 16 s,
    while one thread ran it in 5.2 to 5.5 s either way.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return len(os.sched_getaffinity(0))


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fairsmooth
    except ImportError as exc:
        _fail(f"cannot import fairsmooth from {ROOT / 'src'}: {exc}")
    if Path(fairsmooth.__file__).resolve().parent != ROOT / "src" / "fairsmooth":
        _fail(f"fairsmooth loaded from {fairsmooth.__file__}, not from {ROOT / 'src'}")


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _environment(nproc):
    import ctypes
    import glob

    import numpy
    import scipy

    def blas(show_config, libs_dir, symbol):
        info = show_config(mode="dicts")["Build Dependencies"]["blas"]
        threads = None
        for lib in glob.glob(os.path.join(libs_dir, "*openblas*")):
            try:
                fn = getattr(ctypes.CDLL(lib), symbol)
                fn.restype = ctypes.c_int
                threads = fn()
            except (OSError, AttributeError):
                pass
        return {"name": info.get("name"), "version": info.get("version"), "threads": threads}

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    site = Path(numpy.__file__).parent.parent
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_cap": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy_blas": blas(numpy.show_config, site / "numpy.libs", "scipy_openblas_get_num_threads64_"),
        "scipy_blas": blas(scipy.show_config, site / "scipy.libs", "scipy_openblas_get_num_threads"),
    }


class HostProbe:
    """A fixed pure-Python loop, timed between ops; it runs no fairsmooth code.

    The shared host this benchmark was sized on (2 vCPUs of an Intel Xeon)
    runs every stage of every workload up to a third slower for tens of
    seconds at a time, in user CPU time rather than by descheduling the
    process.  The loop slows with it, so op_p50_s divides each op's time by
    the median loop time within WINDOW_S of the op (see ``summarize``).  Over
    ten seeds of cli_pipeline, scaling by the loop time just after each op
    cut the quartile spread of op_p50_s from 0.24 for the raw median, and
    0.10 for the median divided by the run's median loop time, to 0.05.  The
    window averages several loop times around global_baseline's short ops.
    """

    EVERY_S = 0.5  # at most one probe per half second of measuring
    WINDOW_S = 2.0  # loop times this close to an op's start or end scale it
    REFERENCE_S = 0.005  # the loop's time on the reference host: op_p50_s is in its seconds

    def __init__(self):
        self.samples = []
        self.times = []  # when each sample ended
        self.ops = []  # (start, end) of each op

    def between_ops(self, start, end):
        self.ops.append((start, end))
        if not self.times or time.perf_counter() - self.times[-1] >= self.EVERY_S:
            t0 = time.perf_counter()
            total = 0
            for i in range(50_000):
                total += i * i % 7
            self.times.append(time.perf_counter())
            self.samples.append(self.times[-1] - t0)

    def per_op(self):
        """For each op, the median loop time within WINDOW_S of it.

        The probe runs right after every op unless it ran less than EVERY_S
        before, so as WINDOW_S > EVERY_S every window holds a loop time.
        """
        for start, end in self.ops:
            yield statistics.median(s for t, s in zip(self.times, self.samples)
                                    if start - self.WINDOW_S <= t <= end + self.WINDOW_S)


def measure(workload, seconds, probe, tracer=None):
    """Closed loop: start ops while the next one would end less than half an op late.

    Stops only after a whole number of the workload's ``CYCLE`` ops, so every
    kind of op in a cycle is measured equally often.  The host probe runs
    right after each op, outside its time.
    """
    from workloads import Failure

    ops = []
    start = time.perf_counter()
    while True:
        k = len(ops)
        if tracer is not None:
            tracer.op = k
        t0 = time.perf_counter()
        result = workload.op(k)
        probe.between_ops(t0, time.perf_counter())
        if tracer is not None:
            tracer.flush()
        try:
            failures = workload.check(k, result)
        except Exception as exc:  # a check that cannot read an output fails the op, not the run
            failures = [Failure("check", type(exc).__name__, traceback.format_exc(limit=3)[-300:])]
        ops.append((result, failures))
        elapsed = time.perf_counter() - start
        if len(ops) % workload.CYCLE == 0 and elapsed + 0.5 * statistics.median(r.seconds for r, _ in ops) > seconds:
            return ops


def summarize(ops, probe):
    """End-to-end figures of one measured phase.

    op_p50_s is the median op wall time in reference-host seconds: each op's
    time scaled by REFERENCE_S over the probe time around it.
    op_wall_p50_s is the unscaled median.
    """
    wall = statistics.median(r.seconds for r, _ in ops)
    scaled = statistics.median(r.seconds / host for (r, _), host in zip(ops, probe.per_op()))
    out = {"op_p50_s": scaled * HostProbe.REFERENCE_S, "op_wall_p50_s": wall,
           "host.probe_s": statistics.median(probe.samples),
           "failed_frac": sum(1 for _, f in ops if f) / len(ops)}
    stages, samples, values = {}, {}, {}
    for result, _ in ops:
        for key, value in result.stages.items():
            stages.setdefault(key, []).append(value)
        for key, value in result.samples.items():
            samples.setdefault(key, []).extend(value)
        for key, value in result.values.items():
            values.setdefault(key, []).append(value)
    for key, value in stages.items():
        out[key] = statistics.median(value)
    for key, value in values.items():
        out[key] = statistics.median(value)
    if "inductive_us" in samples:
        percentiles = statistics.quantiles(samples["inductive_us"], n=100)
        out["inductive_p50_us"] = percentiles[49]
        out["inductive_p99_us"] = percentiles[98]
    return out


def ledger(name, ops):
    """Count, worst level and verdict of each (op kind, reason) that failed.

    A failure is within the ledger only if KNOWN_FAILURES lists it for this
    workload and it stays at or below the ceilings recorded there.  Only ops
    with a failure outside the ledger count in the result's ``failed``: the
    known failures recur at a rate that depends on how many ops a run holds,
    and repeated runs of the same code must agree on ``failed``.
    """
    from workloads import KNOWN_FAILURES

    counts, levels = Counter(), {}
    for _, failures in ops:
        for kind in {(f.kind, f.category) for f in failures}:
            counts[kind] += 1
        for f in failures:
            if f.level is not None:
                levels[f.kind, f.category] = max(levels.get((f.kind, f.category), 0.0), f.level)
    entries = []
    for (kind, category), count in sorted(counts.items()):
        known = KNOWN_FAILURES.get((name, kind, category))
        share = count / len(ops)
        level = levels.get((kind, category))
        within = (known is not None
                  and share <= known.get("max_share", 1.0)
                  and (level is None or level <= known.get("max_level", float("inf"))))
        entries.append({"op": kind, "reason": category, "count": count, "share": share, "max_level": level,
                        "known": known is not None, "within_ledger": within})
    return entries


def failed_outside_ledger(ops, entries):
    """Ops with at least one failure whose ledger entry is not within the ledger."""
    outside = {(e["op"], e["reason"]) for e in entries if not e["within_ledger"]}
    return sum(1 for _, failures in ops if any((f.kind, f.category) in outside for f in failures))


def run_workload(name, seed, seconds, trace, spec, env, import_s, first=True):
    """Measure one workload; ``first`` is false for the later workloads of ``all``."""
    import tracing
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_tmp" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = None
    try:
        workload = WORKLOADS[name](seed, str(workdir))
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        metrics = {"setup_s": import_s + statistics.median(setup_times)}
        probe = HostProbe()
        if trace:
            ops = measure(workload, seconds / 2, probe)
            metrics.update(summarize(ops, probe))
            traced_probe = HostProbe()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = measure(workload, seconds / 2, traced_probe, tracer)
            finally:
                tracer.uninstall()
            metrics.update(tracer.layer_metrics(len(traced)))
            metrics["trace.untraced_op_p50_s"] = metrics["op_p50_s"]
            metrics["trace.traced_op_p50_s"] = summarize(traced, traced_probe)["op_p50_s"]
            metrics["trace.overhead_s"] = metrics["trace.traced_op_p50_s"] - metrics["op_p50_s"]
            ops = ops + traced
            probe.samples += traced_probe.samples
            probe.times += traced_probe.times
            probe.ops += traced_probe.ops
        else:
            ops = measure(workload, seconds, probe)
            metrics.update(summarize(ops, probe))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    shared = set() if first else {"setup_s", "peak_rss_mb"}
    for key in shared:
        # the process peak and the import time belong to the whole ``all`` run
        del metrics[key]

    entries = ledger(name, ops)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    line = {
        "correct": all(e["within_ledger"] for e in entries),
        "attempted": len(ops),
        "failed": failed_outside_ledger(ops, entries),
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
                    for m in wanted if m["name"] not in shared},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "environment": env,
        "setup_s_samples": setup_times, "metrics": metrics, "ledger": entries,
        "failing_ops": sum(1 for _, failures in ops if failures),
        "first_failures": [f for _, failures in ops for f in failures][:20],
        "op_seconds": [r.seconds for r, _ in ops], "op_stages": [r.stages for r, _ in ops],
        "probe_seconds": probe.samples, "probe_times": probe.times,
        "op_times": probe.ops,
        "spans": tracer.span_records() if tracer else [],
    }
    outdir = ROOT / ".perfbench_out"
    outdir.mkdir(exist_ok=True)
    with open(outdir / f"{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    _print_report(name, seed, trace, metrics, spec, record, line)
    print(json.dumps(line), flush=True)


def _print_report(name, seed, trace, metrics, spec, record, line):
    units = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"] + spec["per_layer"]}
    known = record["failing_ops"] - line["failed"]
    print(f"== {name} seed={seed} trace={trace}: {line['attempted']} ops, {line['failed']} failed outside "
          f"the ledger, {known} with known failures only, correct={line['correct']}")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for key in sorted(metrics):
        unit, better = units.get(key, ("", ""))
        print(f"{key:52s} {metrics[key]:16.6g} {unit:6s} {better}")
    for e in record["ledger"]:
        level = "" if e["max_level"] is None else f", worst level {e['max_level']:.3g}"
        verdict = ("" if e["within_ledger"] else "  (above its recorded level)" if e["known"]
                   else "  (not in the known-failure ledger)")
        print(f"failure {e['op']}: {e['reason']} x{e['count']} ({e['share']:.1%} of ops{level}){verdict}")


def main():
    args = _parse_args()
    nproc = _cap_blas_threads()
    _import_program()
    import workloads  # noqa: F401  (imports numpy, scipy and the program before the clock stops)

    import_s = time.perf_counter() - START
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    env = _environment(nproc)
    for index, name in enumerate(names):
        run_workload(name, args.seed, args.seconds, args.trace, spec, env, import_s, first=index == 0)


if __name__ == "__main__":
    main()

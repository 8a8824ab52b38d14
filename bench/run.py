"""Benchmark of diracnlft: seeded workloads driven through the public entry points.

    python3 bench/run.py --workload {spectrum,resonance,kernels} --seed N \
        --seconds S --trace {0,1}

Load model: one process, one thread, closed loop.  The jobs of a deck run
back to back in the process that imported the library; each is one
``diracnlft.cli.main(argv)`` call on generated config and potential files,
or one direct call for the job kinds that bypass the CLI.

``--trace 0`` runs as many whole passes over the deck as fit in
``--seconds`` (at least one) and reports the end-to-end metrics.
``--trace 1`` runs one untraced pass, one traced pass, the layer sweep and
the layer probes, and reports the per-layer metrics.  The last line of
standard output is one JSON object; a fuller record goes to ``.bench_out/``
in the checkout.  See ``bench/README.md``.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

#: Set-ups per run; setup_s reports the median.
SETUP_REPS = 5
#: Traced self times must add up to the traced wall time within this share.
SELF_TIME_SLACK = 0.02
WORK_DIR = os.path.join(workloads.ROOT, ".bench_work")
OUT_DIR = os.path.join(workloads.ROOT, ".bench_out")


def run_pass(jobs, tracer=None):
    """Run every job once, back to back; return (wall seconds, records).

    A record is ``(latency, digest, failure)``; ``failure`` is None or a
    (category, message) pair.  Any exception a job raises is a failure of
    that job, and the pass goes on.
    """
    records = []
    t_pass = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        start = time.perf_counter()
        try:
            raw = tracer.call(tracing.JOB, job.execute) if tracer else job.execute()
            failure = None
        except (Exception, SystemExit) as exc:
            raw, failure = None, ("error", f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        digest = None
        if failure is None:
            try:
                digest = job.reduce(raw)
            except Exception as exc:
                failure = ("wrong", f"{type(exc).__name__}: {exc}")
        records.append((latency, digest, failure))
        del raw
    if tracer is not None:
        tracer.job = None
    return time.perf_counter() - t_pass, records


def check_pass(jobs, records, refs):
    """Status per job: ("ok" | "error" | "wrong", message, reference checked)."""
    out = []
    for job, (_, digest, failure) in zip(jobs, records):
        if failure is not None:
            out.append((failure[0], f"{job.kind} {job.key}: {failure[1]}", False))
            continue
        try:
            summary = job.check(digest)
        except workloads.JobFailed as exc:
            out.append(("error", f"{job.kind} {job.key}: {exc}", False))
            continue
        except Exception as exc:
            out.append(("wrong", f"{job.kind} {job.key}: {type(exc).__name__}: {exc}", False))
            continue
        ref = refs.get(job.key)
        if not isinstance(ref, list):  # no reference, or the reference run failed
            out.append(("ok", None, False))
            continue
        msg = workloads.compare(summary, ref)
        out.append(("wrong", f"{job.kind} {job.key}: {msg}", True) if msg else ("ok", None, True))
    return out


def setup(lib, workload, seed, workdir):
    """Build the deck SETUP_REPS times; return (jobs, median set-up seconds)."""
    times = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        jobs, warm = workloads.build_deck(lib, workload, seed, os.path.join(workdir, f"rep{rep}"))
        try:
            warm.execute()
        except Exception as exc:
            print(f"warm-up job raised {type(exc).__name__}: {exc}", file=sys.stderr)
        times.append(time.perf_counter() - t0)
    return jobs, statistics.median(times)


def environment(lib):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "diracnlft": getattr(lib, "__version__", "?"),
        "load_model": "one process, one thread, closed loop",
    }


def tally(statuses):
    failed = [s for s in statuses if s[0] != "ok"]
    wrong = [s for s in statuses if s[0] == "wrong"]
    return {
        "attempted": len(statuses),
        "failed": len(failed),
        "wrong": len(wrong),
        "reference_checked": sum(1 for s in statuses if s[2]),
        "failures": sorted({f"{s[0]}: {s[1]}" for s in failed})[:20],
    }


def end_to_end(jobs, setup_s, seconds, refs):
    wall, records = run_pass(jobs)
    walls, latencies, statuses = [wall], [r[0] for r in records], check_pass(jobs, records, refs)
    passes = max(1, int(seconds // wall))
    for _ in range(passes - 1):
        wall, records = run_pass(jobs)
        walls.append(wall)
        latencies += [r[0] for r in records]
        statuses += check_pass(jobs, records, refs)
    lat_ms = np.asarray(latencies) * 1e3
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "job_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    info = {"passes": passes, "jobs_per_pass": len(jobs), "latency_samples": len(latencies),
            "pass_wall_s": walls, "latencies_ms": lat_ms.tolist()}
    return metrics, statuses, info


def per_layer(lib, jobs, refs, workdir, spans_path):
    wall_u, records_u = run_pass(jobs)
    statuses = check_pass(jobs, records_u, refs)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall_t, records_t = run_pass(jobs, tracer)
        sweep_raised = tracing.sweep(tracer, lib, workdir)
    finally:
        tracer.uninstall()
    statuses += check_pass(jobs, records_t, refs)
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (wall_t / wall_u - 1.0, "ratio")
    probe_metrics, probe_absent = tracing.probes(lib)
    metrics.update(probe_metrics)
    self_t = tracer.self_times()
    self_sum = sum(t for t, rec in zip(self_t, tracer.spans) if rec[tracing.JOBID] != "sweep")
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job", "points", "cellz",
                              "count"], "spans": tracer.spans}, fh)
    info = {
        "untraced_wall_s": wall_u,
        "traced_wall_s": wall_t,
        "traced_self_time_sum_s": self_sum,
        "self_time_gap_frac": abs(self_sum - wall_t) / wall_t,
        "self_time_slack": SELF_TIME_SLACK,
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, workloads.ROOT),
        "absent": tracer.absent + probe_absent,
        "sweep_raised": sweep_raised,
        "count_errors": tracer.count_errors,
        "ratio_bases": tracer.bases,
    }
    return metrics, statuses, info


def run(workload, seed, seconds, trace, jobs_limit=None, refs=None):
    """One benchmark run; returns (result line dict, record dict).

    ``jobs_limit`` and ``refs`` exist for the self-tests: a truncated deck
    and substituted reference values.
    """
    lib = workloads.import_library()
    import_s = time.perf_counter() - T_START
    workdir = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        jobs, setup_rep_s = setup(lib, workload, seed, workdir)
        jobs = jobs[:jobs_limit] if jobs_limit else jobs
        refs = workloads.load_refs(workload) if refs is None else refs
        setup_s = import_s + setup_rep_s
        if trace:
            spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json.gz")
            metrics, statuses, info = per_layer(lib, jobs, refs, workdir, spans_path)
        else:
            metrics, statuses, info = end_to_end(jobs, setup_s, seconds, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    counts = tally(statuses)
    result = {
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(lib), "import_s": import_s,
              "fail_frac": counts["failed"] / counts["attempted"], **counts, **info,
              "metrics": result["metrics"]}
    return result, record


def report(record):
    """Human-readable lines printed before the result line."""
    r = record
    print(f"workload {r['workload']}  seed {r['seed']}  trace {r['trace']}  "
          f"({r['environment']['load_model']}; nproc {r['environment']['nproc']}, "
          f"Python {r['environment']['python']}, numpy {r['environment']['numpy']})")
    print(f"jobs attempted {r['attempted']}, failed {r['failed']} "
          f"(fail_frac {r['fail_frac']:.4g}), wrong output {r['wrong']}, "
          f"reference-checked {r['reference_checked']}")
    for line in r["failures"]:
        print(f"  failure: {line}")
    if "latency_samples" in r:
        print(f"{r['jobs_per_pass']} jobs per pass, {r['passes']} pass(es), "
              f"{r['latency_samples']} latency samples")
    else:
        print(f"traced self times sum to {r['traced_self_time_sum_s']:.4f} s of "
              f"{r['traced_wall_s']:.4f} s traced wall (gap {r['self_time_gap_frac']:.2%}, "
              f"slack {r['self_time_slack']:.0%}); {r['spans']} spans in {r['spans_file']}")
        if r["absent"]:
            print(f"absent: {', '.join(r['absent'])}")
    for name, m in r["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

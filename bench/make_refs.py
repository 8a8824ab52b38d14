"""Regenerate the committed reference values of the benchmark's input pool.

    python3 bench/make_refs.py [workload ...]

Runs every pool input (every slot, every replica) once with the library in
the checkout and writes the summary of its output to
``bench/refs/<workload>.json``.  An input on which the program fails is
kept, with the error in place of a summary; runs then check that input
against its invariants only.  Run it only when the program's outputs are
meant to change, and say so in the change that commits the new files.
"""

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def make(lib, workload):
    workdir = os.path.join(workloads.ROOT, ".bench_work", f"refs-{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    items = {}
    try:
        for slot in range(len(workloads.TEMPLATES[workload])):
            for rep in range(workloads.REPLICAS):
                job = workloads.pool_job(lib, workload, slot, rep, workdir)
                try:
                    items[job.key] = [float(v) for v in job.check(job.reduce(job.execute()))]
                except Exception as exc:
                    items[job.key] = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "pool_seed": workloads.POOL_SEED,
            "replicas": workloads.REPLICAS, "rtol": workloads.RTOL, "atol": workloads.ATOL,
            "items": items}


def main(argv):
    lib = workloads.import_library()
    os.makedirs(workloads.REFS_DIR, exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        doc = make(lib, workload)
        errors = sum(1 for v in doc["items"].values() if isinstance(v, dict))
        items = doc.pop("items")
        head = json.dumps(doc)[:-1]
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in items.items()]
        with open(os.path.join(workloads.REFS_DIR, f"{workload}.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(head + ', "items": {\n' + ",\n".join(lines) + "\n}}\n")
        print(f"{workload}: {len(items)} inputs, {errors} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

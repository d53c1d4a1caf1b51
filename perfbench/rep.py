"""One repetition of one workload, in a fresh process.

Invoked by ``run.py`` (never by hand, though it works standalone)::

    python3 perfbench/rep.py --workload un_saturated --seed 7 --tmp DIR [--trace | --setup-only]

Prints one JSON object as the last line of standard output: the host-time
measurements, the simulated outputs used by the output check, and, with
``--trace``, the tracer's per-layer numbers.  With ``--setup-only`` it only
times the cold construction: the first build in a fresh process, as a user's
run pays it.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import summary_digest, summary_fields  # noqa: E402
from tracing import Tracer, install, merge_dumps  # noqa: E402

_clock = time.perf_counter


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its reaped children (pool workers)."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def setup_single(workload: Any, seed: int) -> Dict[str, Any]:
    """Cold construction of the workload's Simulation, first in this process."""
    from repro.simulation import Simulation

    config = workload.config(seed)
    start = _clock()
    sim = Simulation(config)
    setup_s = _clock() - start
    del sim
    return {"setups_s": [setup_s]}


def setup_sweep(workload: Any, seed: int) -> Dict[str, Any]:
    """Cold construction of every sweep job the way a worker builds it.

    A fresh artifact cache serves each job's topology and route table, and
    the job's Simulation is built from them, as ``_execute_job`` does; the
    reported time is the total over all jobs, first in this process.
    """
    from repro.experiments.orchestrator import ArtifactCache, network_key
    from repro.simulation import Simulation

    jobs = workload.sweep(seed).expand()
    cache = ArtifactCache()
    total = 0.0
    for job in jobs:
        start = _clock()
        artifacts = cache.get(job.network_key or network_key(job.config), job.config,
                              route_table_mode=job.route_table_mode)
        sim = Simulation(job.config, artifacts=artifacts, backend=job.backend)
        total += _clock() - start
        del sim
    return {"setups_s": [total]}


def run_single(workload: Any, seed: int) -> Dict[str, Any]:
    from repro.session import Session
    from repro.simulation import Simulation

    config = workload.config(seed)
    start = _clock()
    sim = Simulation(config)
    setup_s = _clock() - start
    session = Session(simulation=sim)
    start = _clock()
    session.warmup()
    session.measure()
    run_end = _clock()
    record = session.record()
    cycles = config.warmup_cycles + config.measure_cycles
    summary = summary_fields(record.summary)
    return {
        "setups_s": [setup_s],
        "run_s": setup_s + (_clock() - start),
        "job_walls_s": [record.provenance["wall_time_s"]],
        "sim_cycles": cycles,
        "sim_s": run_end - start,
        "peak_rss_mb": _peak_rss_mb(),
        "runs": 1,
        "failed_runs": int(bool(record.summary.deadlock_suspected)),
        "summary": summary,
        "digest": summary_digest({"run": summary}),
    }


def run_sweep(workload: Any, seed: int, tmp: str) -> Dict[str, Any]:
    from repro.experiments.orchestrator import run_jobs
    from repro.store import ResultStore

    from workloads import FIG5_WORKERS

    spec = workload.sweep(seed)
    path = os.path.join(tempfile.mkdtemp(dir=tmp), "sweep.journal")

    start = _clock()
    jobs = spec.expand()
    expanded = _clock()
    store = ResultStore(path, format="journal")
    opened = _clock()
    stats = run_jobs(jobs, workers=FIG5_WORKERS, store=store)
    dispatched = _clock()
    store.flush()
    end = _clock()
    store.close()
    journal_bytes = os.path.getsize(path)
    # Reap the pool workers so their peak RSS lands in RUSAGE_CHILDREN.
    for child in multiprocessing.active_children():
        child.join()

    resume_start = _clock()
    resumed = ResultStore(path, format="journal")
    resume = run_jobs(spec.expand(), workers=FIG5_WORKERS, store=resumed)
    resume_s = _clock() - resume_start

    records = {key: record for key, record, _ in resumed.entries()}
    failures = sum(1 for _ in resumed.failures())
    resumed.close()
    summaries = {key: summary_fields(record.summary) for key, record in records.items()}
    deadlocks = sum(1 for record in records.values() if record.summary.deadlock_suspected)
    return {
        # Set-up is timed by separate --setup-only processes (setup_sweep).
        "setups_s": [],
        "run_s": end - start,
        "job_walls_s": sorted(r.provenance["wall_time_s"] for r in records.values()),
        "sim_cycles": sum(r.provenance["engine_cycles"] for r in records.values()),
        "sim_s": end - start,
        "peak_rss_mb": _peak_rss_mb(),
        "runs": len(jobs),
        "failed_runs": max(stats.failed, failures) + deadlocks,
        "records": len(records),
        "resume_cached": resume.cache_hits,
        "resume_executed": resume.executed,
        "digest": summary_digest(summaries),
        "orchestrator": {
            "expand_s": expanded - start,
            "jobs_executed": stats.executed,
            "artifact_hits": stats.artifact_hits,
            "artifact_misses": stats.artifact_misses,
            "retries": stats.retries,
            "run_jobs_s": dispatched - opened,
            "workers": FIG5_WORKERS,
            "store_open_s": opened - expanded,
            "journal_bytes": journal_bytes,
            "resume_s": resume_s,
        },
    }


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True, help="scratch directory")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="only time the cold construction (setup_s)")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.dump_dir = tempfile.mkdtemp(dir=args.tmp)
        install(tracer)
    if args.setup_only:
        setup = setup_sweep if workload.is_sweep else setup_single
        result = setup(workload, args.seed)
    elif workload.is_sweep:
        result = run_sweep(workload, args.seed, args.tmp)
    else:
        result = run_single(workload, args.seed)
    if tracer is not None:
        trace = tracer.export()
        merge_dumps(trace, tracer.dump_dir, skip_pid=tracer.pid)
        result["trace"] = trace
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # os._exit skips the interpreter's teardown of the simulation's objects:
    # it is part of no metric and would only lengthen the run.
    os._exit(main())

"""Benchmark of the FlexVC simulator: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload un_saturated                # end-to-end
    python3 perfbench/run.py --workload un_saturated --trace 1      # per-layer
    python3 perfbench/run.py --workload fig5_sweep --seed 11 --seconds 20

Each repetition runs in a fresh process (``rep.py``), so every run starts with
cold memos.  Untraced runs repeat until ``--seconds`` have passed and report
medians of the end-to-end metrics; traced runs make one untraced and two
traced repetitions and report the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every output check
passed.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from checks import check_rep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: simulated outputs of the default seed (``make_references.py`` writes it).
REFERENCES = HERE / "references.json"

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sweep_s", "s"),
    ("job_s_p50", "s"),
    ("job_s_p80", "s"),
)

#: the whole run, set-up included, must end well inside 180 s.
RUN_DEADLINE_S = 165.0
#: traced runs: one untraced and this many traced repetitions.
TRACED_REPS = 2
#: count metrics exempt from the exact-repeat check: flushes are time-driven
#: and the journal holds wall-clock provenance.
REPEAT_EXEMPT = frozenset({"store.flush.calls", "store.journal_bytes"})


class RepFailed(RuntimeError):
    """A repetition crashed, timed out or printed no result."""


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def _git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    """SHA-256 over ``src/**/*.py`` (names and contents), git or not."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> Dict[str, Any]:
    return {
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def _kill_group(pgid: int) -> None:
    """Stop whatever is left of a repetition's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def hash_seed(seed: int, index: int) -> str:
    """PYTHONHASHSEED of repetition ``index``: differs between repetitions.

    Outputs that depend on str hash order then differ between repetitions
    and fail the repeat check; a failing repetition can be replayed with the
    hash seed its label prints.
    """
    return str((seed * 1000 + index) % (2**32 - 1) + 1)


def spawn(workload: str, seed: int, tmp: str, timeout: float, index: int = 0,
          mode: str = "run") -> Dict[str, Any]:
    """Run one repetition in a fresh process and return its JSON result.

    ``mode`` is ``"run"``, ``"trace"`` (traced run) or ``"setup"`` (only the
    cold construction is timed).
    """
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", tmp]
    if mode != "run":
        cmd.append({"trace": "--trace", "setup": "--setup-only"}[mode])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed(seed, index))
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise RepFailed(f"repetition timed out after {timeout:.0f} s")
    finally:
        _kill_group(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise RepFailed(f"repetition exited with {proc.returncode}: {tail}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def end_to_end_metrics(reps: List[Dict[str, Any]], setups: List[float]) -> Dict[str, float]:
    """Medians over the repetitions; ``setups`` are cold constructions."""
    jobs = [value for rep in reps for value in rep["job_walls_s"]]
    return {
        "setup_s": statistics.median(setups),
        # All simulated cycles over all simulating time: every measured
        # second counts, which steadies the rate on a noisy host.
        "sim_cycles_per_s": sum(rep["sim_cycles"] for rep in reps)
        / sum(rep["sim_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "sweep_s": statistics.median(rep["run_s"] for rep in reps),
        "job_s_p50": statistics.median(jobs),
        "job_s_p80": (statistics.quantiles(jobs, n=5, method="inclusive")[3]
                      if len(jobs) > 1 else jobs[0]),
    }


def _layer(stats: Dict[str, List[float]], name: str) -> Tuple[int, float, float]:
    calls, total, child = stats.get(name, (0, 0.0, 0.0))
    return int(calls), total, total - child


#: layers reported as ``<layer>.calls`` and ``<layer>.self_s``.
CALL_LAYERS = (
    "router.pump", "router.receive", "router.credit_sink",
    "link.transmit", "link.credit",
    "routing.plan", "routing.decide", "router.saturation",
    "core.mincred", "router.credits", "core.vc_policy",
    "traffic.tick", "traffic.on_delivery", "metrics",
    "store.put", "store.flush",
)


def layer_metrics(rep: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced repetition, name -> (value, unit)."""
    trace = rep["trace"]
    stats = trace["stats"]
    counters = trace["counters"]
    builds = max(1, _layer(stats, "simulation.init")[0])
    sessions = max(1, counters.get("sessions", 0))
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in CALL_LAYERS:
        calls, _, self_s = _layer(stats, name)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for name in ("engine.events", "engine.cycles", "engine.idle_cycles_skipped",
                 "traffic.packets_generated"):
        metrics[name] = (counters.get(name, 0), "count")
    metrics["engine.self_s"] = (_layer(stats, "engine")[2], "s")
    pumps = metrics["router.pump.calls"][0]
    grants = metrics["link.transmit.calls"][0] + counters.get("router.ejections", 0)
    metrics["router.grant_ratio"] = (grants / pumps if pumps else 0.0, "ratio")
    metrics["topology.build_s"] = (_layer(stats, "topology.build")[1] / builds, "s")
    metrics["routing.route_table.build_s"] = (
        _layer(stats, "routing.route_table")[1] / builds, "s")
    metrics["routing.route_table.bytes"] = (
        counters.get("route_table.bytes", 0) / sessions, "B")
    metrics["simulation.wire_s"] = (_layer(stats, "simulation.init")[2] / builds, "s")
    metrics["session.warmup_s"] = (_layer(stats, "session.warmup")[1] / sessions, "s")
    metrics["session.measure_s"] = (_layer(stats, "session.measure")[1] / sessions, "s")
    metrics["store.refresh.self_s"] = (_layer(stats, "store.refresh")[2], "s")

    orch = rep.get("orchestrator")
    if orch is None:
        orch = {}
    workers = orch.get("workers", 1)
    run_jobs_s = orch.get("run_jobs_s", 0.0)
    busy = _layer(stats, "orchestrator.chunk")[1]
    lookups = orch.get("artifact_hits", 0) + orch.get("artifact_misses", 0)
    metrics.update({
        "orchestrator.expand_s": (orch.get("expand_s", 0.0), "s"),
        "orchestrator.jobs_executed": (orch.get("jobs_executed", 0), "count"),
        "orchestrator.artifact_hit_ratio": (
            orch.get("artifact_hits", 0) / lookups if lookups else 0.0, "ratio"),
        "orchestrator.worker_busy_frac": (
            busy / (workers * run_jobs_s) if run_jobs_s else 0.0, "ratio"),
        "orchestrator.dispatch_overhead_s": (
            run_jobs_s - busy / workers if run_jobs_s else 0.0, "s"),
        "orchestrator.retries": (orch.get("retries", 0), "count"),
        "store.open_s": (orch.get("store_open_s", 0.0), "s"),
        "store.journal_bytes": (orch.get("journal_bytes", 0), "B"),
        "store.resume_s": (orch.get("resume_s", 0.0), "s"),
        "store.resume_hit_ratio": (
            rep.get("resume_cached", 0) / rep["runs"] if orch else 0.0, "ratio"),
    })
    return metrics


def repeat_mismatches(first: Dict[str, Tuple[float, str]],
                      second: Dict[str, Tuple[float, str]]) -> List[str]:
    """Count metrics that differ between two traced repetitions."""
    return [
        name for name, (value, unit) in first.items()
        if unit in ("count", "B") and name not in REPEAT_EXEMPT
        and second[name][0] != value
    ]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

class Outcome:
    """Attempted/failed accounting and output-check problems of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reps: List[Dict[str, Any]] = []

    def add(self, workload: Any, rep: Dict[str, Any], reference: Optional[Dict[str, Any]],
            label: str) -> bool:
        """Check and keep one repetition; True when its runs count as failed."""
        problems = check_rep(workload, rep, reference)
        if self.reps and rep["digest"] != self.reps[0]["digest"]:
            problems.append("simulated outputs differ from the first repetition")
        self.attempted += rep["runs"]
        if problems:
            self.failed += rep["runs"]
            self.problems.extend(f"{label}: {problem}" for problem in problems)
        self.reps.append(rep)
        return bool(problems)

    def crash(self, workload: Any, error: Exception, label: str) -> None:
        runs = len(workload.sweep(0).expand()) if workload.is_sweep else 1
        self.attempted += runs
        self.failed += runs
        self.problems.append(f"{label}: {error}")


def _label(kind: str, index: int, seed: int) -> str:
    return f"{kind} {index} (PYTHONHASHSEED={hash_seed(seed, index)})"


def run_untraced(workload: Any, seed: int, seconds: float, tmp: str,
                 reference: Optional[Dict[str, Any]], start: float) -> Tuple[Outcome, Dict]:
    outcome = Outcome()
    # setup_s: the first construction in each of several fresh processes.
    setups: List[float] = []
    index = 0
    for index in range(workload.setup_reps):
        try:
            rep = spawn(workload.name, seed, tmp, timeout=start + RUN_DEADLINE_S
                        - time.monotonic(), index=index, mode="setup")
        except RepFailed as error:
            outcome.crash(workload, error, _label("set-up", index, seed))
            return outcome, {}
        setups.extend(rep["setups_s"])
    runs_start = time.monotonic()
    while True:
        index += 1
        now = time.monotonic()
        if outcome.reps:
            # Start another repetition only if it should end within --seconds.
            per_rep = (now - runs_start) / len(outcome.reps)
            if now - start + per_rep > seconds:
                break
        remaining = start + RUN_DEADLINE_S - now
        if remaining <= 0:
            break
        label = _label("rep", index, seed)
        try:
            rep = spawn(workload.name, seed, tmp, timeout=remaining, index=index)
        except RepFailed as error:
            outcome.crash(workload, error, label)
            break
        outcome.add(workload, rep, reference, label)
        setups.extend(rep["setups_s"])
    metrics = {}
    if outcome.reps:
        values = end_to_end_metrics(outcome.reps, setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return outcome, metrics


def run_traced(workload: Any, seed: int, tmp: str, reference: Optional[Dict[str, Any]],
               start: float, spans_path: Optional[str]) -> Tuple[Outcome, Dict]:
    outcome = Outcome()
    plan = [False] + [True] * TRACED_REPS
    last_failed = False
    for index, trace in enumerate(plan):
        label = _label("traced rep" if trace else "untraced rep", index, seed)
        try:
            rep = spawn(workload.name, seed, tmp,
                        timeout=start + RUN_DEADLINE_S - time.monotonic(),
                        index=index, mode="trace" if trace else "run")
        except RepFailed as error:
            outcome.crash(workload, error, label)
            return outcome, {}
        last_failed = outcome.add(workload, rep, reference, label)
    untraced, traced = outcome.reps[0], outcome.reps[1:]
    if spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump([rep["trace"]["spans"] for rep in traced], handle)
    layers = [layer_metrics(rep) for rep in traced]
    mismatches = repeat_mismatches(layers[0], layers[1])
    if mismatches:
        if not last_failed:  # else its runs are already counted as failed
            outcome.failed += traced[1]["runs"]
        outcome.problems.append(
            "per-layer counts differ between traced repetitions: " + ", ".join(mismatches)
        )
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit not in ("count", "B"):
            value = statistics.median(layer[name][0] for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
    cps_untraced = untraced["sim_cycles"] / untraced["sim_s"]
    cps_traced = statistics.median(rep["sim_cycles"] / rep["sim_s"] for rep in traced)
    metrics["trace.overhead_frac"] = {
        "value": cps_untraced / cps_traced - 1.0, "unit": "ratio"}
    return outcome, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the reference seed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="untraced runs repeat while the next repetition "
                        "should end within this many seconds (at least once)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, metavar="PATH",
                        help="traced runs: write the coarse spans "
                        "(name, start, end, pid) of each traced repetition here")
    args = parser.parse_args(argv)
    start = time.monotonic()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import DEFAULT_SEED, WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    reference = None
    if seed == DEFAULT_SEED:
        with open(REFERENCES, encoding="utf-8") as handle:
            reference = json.load(handle).get(workload.name)
        if reference is None:
            print(f"error: no reference for {workload.name} in {REFERENCES}",
                  file=sys.stderr)
            return 2

    print("provenance " + json.dumps(provenance(), sort_keys=True))
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch_root)
    try:
        if args.trace:
            outcome, metrics = run_traced(workload, seed, tmp, reference, start,
                                          args.spans)
        else:
            outcome, metrics = run_untraced(workload, seed, args.seconds, tmp,
                                            reference, start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload {workload.name} seed {seed} trace {args.trace}: "
          f"{len(outcome.reps)} repetition(s), "
          f"{sum(len(rep['job_walls_s']) for rep in outcome.reps)} job time sample(s)")
    if outcome.reps:
        check = "compared with references" if reference is not None else \
            "no reference for this seed"
        print(f"summary digest {outcome.reps[0]['digest']} ({check})")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}")
    attempted = max(1, outcome.attempted)
    print(f"  failed_frac = {outcome.failed / attempted!r} "
          f"({outcome.failed}/{attempted} runs)")
    for problem in outcome.problems:
        print(f"  FAILED {problem}")
    correct = not outcome.problems and outcome.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
